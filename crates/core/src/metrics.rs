//! Round observers: streaming metrics computed while a process runs.
//!
//! Engines call [`RoundObserver::observe`] once per round *after* the round's
//! re-assignment completes (so round `t ≥ 1` observations correspond to the
//! paper's `Q(t)`). Observers are composable via tuples, so an experiment can
//! track max load, empty-bin counts and legitimacy in one pass without
//! re-scanning the load vector more than each observer needs.

use crate::config::{Config, LegitimacyThreshold};
use crate::engine::Engine;

/// A streaming, per-round metric.
pub trait RoundObserver {
    /// Called once per completed round with the round index (1-based) and the
    /// configuration reached at the end of that round.
    fn observe(&mut self, round: u64, config: &Config);
}

/// The no-op observer, for runs where only the final state matters.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl RoundObserver for NullObserver {
    #[inline]
    fn observe(&mut self, _round: u64, _config: &Config) {}
}

impl<A: RoundObserver, B: RoundObserver> RoundObserver for (A, B) {
    #[inline]
    fn observe(&mut self, round: u64, config: &Config) {
        self.0.observe(round, config);
        self.1.observe(round, config);
    }
}

impl<A: RoundObserver, B: RoundObserver, C: RoundObserver> RoundObserver for (A, B, C) {
    #[inline]
    fn observe(&mut self, round: u64, config: &Config) {
        self.0.observe(round, config);
        self.1.observe(round, config);
        self.2.observe(round, config);
    }
}

impl<T: RoundObserver + ?Sized> RoundObserver for &mut T {
    #[inline]
    fn observe(&mut self, round: u64, config: &Config) {
        (**self).observe(round, config);
    }
}

/// Tracks the maximum load seen over the whole run: the paper's
/// `M_T = max_{t ≤ T} M(t)` (Lemma 3).
#[derive(Debug, Default, Clone)]
pub struct MaxLoadTracker {
    max: u32,
    argmax_round: u64,
    rounds: u64,
    sum_of_round_max: u64,
}

impl MaxLoadTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// `max_{t ≤ T} M(t)` over the observed window.
    pub fn window_max(&self) -> u32 {
        self.max
    }

    /// First round at which the window max was attained.
    pub fn argmax_round(&self) -> u64 {
        self.argmax_round
    }

    /// Mean of the per-round maximum load.
    pub fn mean_round_max(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.sum_of_round_max as f64 / self.rounds as f64
    }

    /// Number of rounds observed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Folds one round's pre-computed max load in — the allocation-free
    /// primitive behind both [`RoundObserver::observe`] and the sparse
    /// engines' [`ObserverStack::observe_engine`] path.
    #[inline]
    pub fn record(&mut self, round: u64, max_load: u32) {
        if max_load > self.max {
            self.max = max_load;
            self.argmax_round = round;
        }
        self.rounds += 1;
        self.sum_of_round_max += max_load as u64;
    }
}

impl RoundObserver for MaxLoadTracker {
    #[inline]
    fn observe(&mut self, round: u64, config: &Config) {
        self.record(round, config.max_load());
    }
}

/// Tracks the number of empty bins per round: the quantity Lemma 1/2 bounds
/// below by `n/4` (after the first round) over polynomial windows.
#[derive(Debug, Clone)]
pub struct EmptyBinsTracker {
    /// Rounds strictly before this one are ignored (the paper's bound holds
    /// from round 1 onward; pass 1 to skip nothing, 2 to skip round 1).
    from_round: u64,
    min_empty: usize,
    sum_empty: u64,
    rounds: u64,
    violations_below_quarter: u64,
}

impl EmptyBinsTracker {
    /// Observes from round `from_round` (inclusive) onward.
    pub fn starting_at(from_round: u64) -> Self {
        Self {
            from_round,
            min_empty: usize::MAX,
            sum_empty: 0,
            rounds: 0,
            violations_below_quarter: 0,
        }
    }

    /// Creates a tracker observing from round 1.
    pub fn new() -> Self {
        Self::starting_at(1)
    }

    /// Minimum number of empty bins over the observed window.
    pub fn min_empty(&self) -> usize {
        if self.rounds == 0 {
            0
        } else {
            self.min_empty
        }
    }

    /// Mean number of empty bins per round.
    pub fn mean_empty(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.sum_empty as f64 / self.rounds as f64
    }

    /// Number of observed rounds with strictly fewer than `n/4` empty bins —
    /// the event Lemma 2 proves has probability `e^{-γn}` per window.
    pub fn violations_below_quarter(&self) -> u64 {
        self.violations_below_quarter
    }

    /// Number of observed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Whether this round is inside the observed window (callers on the
    /// cheap-accessor path check before computing the empty-bin count).
    #[inline]
    pub fn observing(&self, round: u64) -> bool {
        round >= self.from_round
    }

    /// Folds one round's pre-computed empty-bin count over `n` bins in.
    #[inline]
    pub fn record(&mut self, round: u64, empty: usize, n: usize) {
        if round < self.from_round {
            return;
        }
        self.min_empty = self.min_empty.min(empty);
        if 4 * empty < n {
            self.violations_below_quarter += 1;
        }
        self.sum_empty += empty as u64;
        self.rounds += 1;
    }
}

impl Default for EmptyBinsTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl RoundObserver for EmptyBinsTracker {
    #[inline]
    fn observe(&mut self, round: u64, config: &Config) {
        self.record(round, config.empty_bins(), config.n());
    }
}

/// Tracks legitimacy: the first round a legitimate configuration is reached
/// (Theorem 1(b) convergence) and any later violations (Theorem 1(a)
/// stability).
#[derive(Debug, Clone)]
pub struct LegitimacyTracker {
    threshold: LegitimacyThreshold,
    first_legitimate: Option<u64>,
    violations_after_first: u64,
    rounds: u64,
}

impl LegitimacyTracker {
    /// Creates a tracker with the given legitimacy policy.
    pub fn new(threshold: LegitimacyThreshold) -> Self {
        Self {
            threshold,
            first_legitimate: None,
            violations_after_first: 0,
            rounds: 0,
        }
    }

    /// First observed round whose configuration was legitimate, if any.
    pub fn first_legitimate_round(&self) -> Option<u64> {
        self.first_legitimate
    }

    /// Rounds that were illegitimate *after* the first legitimate round —
    /// zero w.h.p. by Theorem 1(a).
    pub fn violations_after_first(&self) -> u64 {
        self.violations_after_first
    }

    /// Number of observed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Folds one round's pre-computed max load over `n` bins in (legitimacy
    /// is `max_load ≤ bound(n)`, exactly [`LegitimacyThreshold::is_legitimate`]).
    #[inline]
    pub fn record(&mut self, round: u64, max_load: u32, n: usize) {
        self.rounds += 1;
        let legit = max_load <= self.threshold.bound(n);
        match (self.first_legitimate, legit) {
            (None, true) => self.first_legitimate = Some(round),
            (Some(_), false) => self.violations_after_first += 1,
            _ => {}
        }
    }
}

impl RoundObserver for LegitimacyTracker {
    #[inline]
    fn observe(&mut self, round: u64, config: &Config) {
        self.record(round, config.max_load(), config.n());
    }
}

/// Tracks the **weighted** maximum load over the run — the weighted
/// counterpart of [`MaxLoadTracker`]. Weighted loads live on the engine
/// (the [`Config`] only knows ball counts), so this tracker is fed through
/// [`ObserverStack::observe_engine`]'s accessor path; on a unit engine it
/// degenerates to the unit max load ([`Engine::weighted_max_load`]'s
/// default).
#[derive(Debug, Default, Clone)]
pub struct WeightedLoadTracker {
    max: u64,
    argmax_round: u64,
    rounds: u64,
    sum_of_round_max: u64,
}

impl WeightedLoadTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// `max_{t ≤ T} W(t)` — the window maximum of the per-round weighted
    /// max load.
    pub fn window_max(&self) -> u64 {
        self.max
    }

    /// First round at which the window max was attained.
    pub fn argmax_round(&self) -> u64 {
        self.argmax_round
    }

    /// Mean of the per-round weighted maximum load.
    pub fn mean_round_max(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.sum_of_round_max as f64 / self.rounds as f64
    }

    /// Number of rounds observed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Folds one round's pre-computed weighted max load in.
    #[inline]
    pub fn record(&mut self, round: u64, weighted_max: u64) {
        if weighted_max > self.max {
            self.max = weighted_max;
            self.argmax_round = round;
        }
        self.rounds += 1;
        self.sum_of_round_max += weighted_max;
    }
}

/// Tracks capacity violations ([`Engine::capacity_violations`]): how often
/// and how badly bins exceed their bounds over a run. Capacities are
/// *observed*, never enforced, so this tracker is the whole story of a
/// capacity-constrained run. Engine-path only, like [`WeightedLoadTracker`];
/// on an unbounded engine every round records zero.
#[derive(Debug, Default, Clone)]
pub struct CapacityTracker {
    max_violations: u64,
    argmax_round: u64,
    rounds_in_violation: u64,
    rounds: u64,
}

impl CapacityTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Largest per-round violation count seen.
    pub fn max_violations(&self) -> u64 {
        self.max_violations
    }

    /// First round attaining the maximum violation count.
    pub fn argmax_round(&self) -> u64 {
        self.argmax_round
    }

    /// Number of observed rounds with at least one bin over its bound.
    pub fn rounds_in_violation(&self) -> u64 {
        self.rounds_in_violation
    }

    /// Number of rounds observed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Folds one round's pre-computed violating-bin count in.
    #[inline]
    pub fn record(&mut self, round: u64, violations: u64) {
        if violations > self.max_violations {
            self.max_violations = violations;
            self.argmax_round = round;
        }
        if violations > 0 {
            self.rounds_in_violation += 1;
        }
        self.rounds += 1;
    }
}

/// A single recorded trajectory row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrajectoryPoint {
    /// Round index of this point.
    pub round: u64,
    /// Maximum load at this round.
    pub max_load: u32,
    /// Number of empty bins at this round.
    pub empty_bins: usize,
    /// Number of non-empty bins at this round.
    pub nonempty_bins: usize,
}

/// Records a (down-sampled) trajectory of summary statistics, for plotting
/// `M(t)` against the `√t` bound of \[12\] (experiment E10).
#[derive(Debug, Clone)]
pub struct TrajectoryRecorder {
    stride: u64,
    points: Vec<TrajectoryPoint>,
}

impl TrajectoryRecorder {
    /// Records every `stride`-th round (stride ≥ 1); round 1 and every
    /// multiple of `stride` are kept.
    pub fn with_stride(stride: u64) -> Self {
        assert!(stride >= 1);
        Self {
            stride,
            points: Vec::new(),
        }
    }

    /// The recorded points, in round order.
    pub fn points(&self) -> &[TrajectoryPoint] {
        &self.points
    }

    /// Whether this round would be sampled (callers on the cheap-accessor
    /// path check before computing the point's statistics).
    #[inline]
    pub fn wants(&self, round: u64) -> bool {
        round == 1 || round % self.stride == 0
    }

    /// Appends a pre-computed point for a sampled round.
    #[inline]
    pub fn record(&mut self, round: u64, max_load: u32, empty_bins: usize, nonempty_bins: usize) {
        self.points.push(TrajectoryPoint {
            round,
            max_load,
            empty_bins,
            nonempty_bins,
        });
    }
}

impl RoundObserver for TrajectoryRecorder {
    #[inline]
    fn observe(&mut self, round: u64, config: &Config) {
        if self.wants(round) {
            self.record(
                round,
                config.max_load(),
                config.empty_bins(),
                config.nonempty_bins(),
            );
        }
    }
}

/// A composable stack of the standard round observers, replacing the
/// per-experiment ad-hoc closures and observer tuples: enable the metrics a
/// scenario needs, pass one value to the run loop, read the components back
/// afterwards.
///
/// ```
/// use rbb_core::prelude::*;
///
/// let mut p = LoadProcess::legitimate_start(128, 3);
/// let mut stack = ObserverStack::new().with_max_load().with_empty_bins();
/// p.run(500, &mut stack);
/// assert!(stack.max_load.as_ref().unwrap().window_max() >= 1);
/// assert!(stack.empty_bins.as_ref().unwrap().min_empty() >= 128 / 4);
/// ```
#[derive(Debug, Default, Clone)]
pub struct ObserverStack {
    /// Window max load (Theorem 1(a)), when enabled.
    pub max_load: Option<MaxLoadTracker>,
    /// Empty-bin floor (Lemmas 1–2), when enabled.
    pub empty_bins: Option<EmptyBinsTracker>,
    /// Legitimacy progress: first legitimate round + later violations
    /// (Theorem 1), when enabled.
    pub legitimacy: Option<LegitimacyTracker>,
    /// Down-sampled trajectory trace, when enabled.
    pub trace: Option<TrajectoryRecorder>,
    /// Weighted window max load, when enabled (engine path only — the
    /// dense-[`Config`] [`RoundObserver`] path has no weighted state and
    /// leaves it untouched).
    pub weighted_load: Option<WeightedLoadTracker>,
    /// Capacity-violation statistics, when enabled (engine path only, like
    /// [`ObserverStack::weighted_load`]).
    pub capacity: Option<CapacityTracker>,
}

impl ObserverStack {
    /// An empty stack: observing costs nothing until components are added.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a [`MaxLoadTracker`].
    pub fn with_max_load(mut self) -> Self {
        self.max_load = Some(MaxLoadTracker::new());
        self
    }

    /// Adds an [`EmptyBinsTracker`] (observing from round 1).
    pub fn with_empty_bins(mut self) -> Self {
        self.empty_bins = Some(EmptyBinsTracker::new());
        self
    }

    /// Adds a [`LegitimacyTracker`] with the given policy.
    pub fn with_legitimacy(mut self, threshold: LegitimacyThreshold) -> Self {
        self.legitimacy = Some(LegitimacyTracker::new(threshold));
        self
    }

    /// Adds a [`TrajectoryRecorder`] sampling every `stride`-th round.
    pub fn with_trace(mut self, stride: u64) -> Self {
        self.trace = Some(TrajectoryRecorder::with_stride(stride));
        self
    }

    /// Adds a [`WeightedLoadTracker`] (engine observation path only).
    pub fn with_weighted_load(mut self) -> Self {
        self.weighted_load = Some(WeightedLoadTracker::new());
        self
    }

    /// Adds a [`CapacityTracker`] (engine observation path only).
    pub fn with_capacity(mut self) -> Self {
        self.capacity = Some(CapacityTracker::new());
        self
    }

    /// Whether any component is enabled.
    pub fn is_empty(&self) -> bool {
        self.max_load.is_none()
            && self.empty_bins.is_none()
            && self.legitimacy.is_none()
            && self.trace.is_none()
            && self.weighted_load.is_none()
            && self.capacity.is_none()
    }

    /// Observes one completed round through the [`Engine`]'s cheap metric
    /// accessors instead of a dense [`Config`] snapshot. Values are
    /// identical to [`RoundObserver::observe`] on `engine.config()` — each
    /// statistic is computed at most once per round and only if a component
    /// needs it — but a sparse engine pays `O(#occupied)` instead of `O(n)`
    /// (and an empty stack pays nothing at all). The `rbb_sim` scenario
    /// driver observes exclusively through this method.
    pub fn observe_engine(&mut self, round: u64, engine: &dyn Engine) {
        let traced = self.trace.as_ref().is_some_and(|t| t.wants(round));
        let need_max = self.max_load.is_some() || self.legitimacy.is_some() || traced;
        let max = if need_max { engine.max_load() } else { 0 };
        let need_empty = traced || self.empty_bins.as_ref().is_some_and(|t| t.observing(round));
        let empty = if need_empty { engine.empty_bins() } else { 0 };
        if let Some(t) = &mut self.max_load {
            t.record(round, max);
        }
        if let Some(t) = &mut self.empty_bins {
            t.record(round, empty, engine.n());
        }
        if let Some(t) = &mut self.legitimacy {
            t.record(round, max, engine.n());
        }
        if let Some(t) = &mut self.trace {
            if t.wants(round) {
                t.record(round, max, empty, engine.nonempty_bins());
            }
        }
        if let Some(t) = &mut self.weighted_load {
            t.record(round, engine.weighted_max_load());
        }
        if let Some(t) = &mut self.capacity {
            t.record(round, engine.capacity_violations());
        }
    }
}

impl RoundObserver for ObserverStack {
    #[inline]
    fn observe(&mut self, round: u64, config: &Config) {
        if let Some(t) = &mut self.max_load {
            t.observe(round, config);
        }
        if let Some(t) = &mut self.empty_bins {
            t.observe(round, config);
        }
        if let Some(t) = &mut self.legitimacy {
            t.observe(round, config);
        }
        if let Some(t) = &mut self.trace {
            t.observe(round, config);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(loads: &[u32]) -> Config {
        Config::from_loads(loads.to_vec())
    }

    #[test]
    fn max_load_tracker_tracks_window_max() {
        let mut t = MaxLoadTracker::new();
        t.observe(1, &cfg(&[1, 2, 0]));
        t.observe(2, &cfg(&[3, 0, 0]));
        t.observe(3, &cfg(&[1, 1, 1]));
        assert_eq!(t.window_max(), 3);
        assert_eq!(t.argmax_round(), 2);
        assert_eq!(t.rounds(), 3);
        assert!((t.mean_round_max() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_load_argmax_is_first_attaining_round() {
        let mut t = MaxLoadTracker::new();
        t.observe(1, &cfg(&[5]));
        t.observe(2, &cfg(&[5]));
        assert_eq!(t.argmax_round(), 1);
    }

    #[test]
    fn empty_bins_tracker_min_and_violations() {
        let mut t = EmptyBinsTracker::new();
        t.observe(1, &cfg(&[0, 0, 1, 3])); // 2 empty of 4: ok (2 >= 1)
        t.observe(2, &cfg(&[1, 1, 1, 1])); // 0 empty: violation
        assert_eq!(t.min_empty(), 0);
        assert_eq!(t.violations_below_quarter(), 1);
        assert!((t.mean_empty() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_bins_tracker_skips_early_rounds() {
        let mut t = EmptyBinsTracker::starting_at(2);
        t.observe(1, &cfg(&[1, 1])); // ignored
        assert_eq!(t.rounds(), 0);
        t.observe(2, &cfg(&[0, 2]));
        assert_eq!(t.rounds(), 1);
        assert_eq!(t.min_empty(), 1);
    }

    #[test]
    fn quarter_violation_boundary_is_strict() {
        // n = 4, exactly 1 empty bin: 4*1 == n, not a violation.
        let mut t = EmptyBinsTracker::new();
        t.observe(1, &cfg(&[0, 2, 1, 1]));
        assert_eq!(t.violations_below_quarter(), 0);
    }

    #[test]
    fn legitimacy_tracker_convergence_and_stability() {
        let thr = LegitimacyThreshold::new(1.0); // bound(16) = ceil(ln 16) = 3
        let mut t = LegitimacyTracker::new(thr);
        let n16_bad = Config::all_in_one(16, 16);
        let n16_good = Config::one_per_bin(16);
        t.observe(1, &n16_bad);
        assert_eq!(t.first_legitimate_round(), None);
        t.observe(2, &n16_good);
        assert_eq!(t.first_legitimate_round(), Some(2));
        t.observe(3, &n16_bad);
        assert_eq!(t.violations_after_first(), 1);
    }

    #[test]
    fn trajectory_recorder_strides() {
        let mut t = TrajectoryRecorder::with_stride(3);
        for r in 1..=9 {
            t.observe(r, &cfg(&[1, 0]));
        }
        let rounds: Vec<u64> = t.points().iter().map(|p| p.round).collect();
        assert_eq!(rounds, vec![1, 3, 6, 9]);
    }

    #[test]
    fn tuple_observer_composes() {
        let mut pair = (MaxLoadTracker::new(), EmptyBinsTracker::new());
        pair.observe(1, &cfg(&[0, 4]));
        assert_eq!(pair.0.window_max(), 4);
        assert_eq!(pair.1.min_empty(), 1);
    }

    #[test]
    fn null_observer_is_noop() {
        let mut o = NullObserver;
        o.observe(1, &cfg(&[1]));
    }

    #[test]
    fn observer_stack_updates_enabled_components_only() {
        let mut stack = ObserverStack::new().with_max_load().with_trace(2);
        stack.observe(1, &cfg(&[0, 4]));
        stack.observe(2, &cfg(&[2, 2]));
        let max = stack.max_load.as_ref().unwrap();
        assert_eq!(max.window_max(), 4);
        assert_eq!(max.rounds(), 2);
        assert!(stack.empty_bins.is_none());
        assert!(stack.legitimacy.is_none());
        let rounds: Vec<u64> = stack
            .trace
            .as_ref()
            .unwrap()
            .points()
            .iter()
            .map(|p| p.round)
            .collect();
        assert_eq!(rounds, vec![1, 2]);
    }

    #[test]
    fn observe_engine_matches_config_observation() {
        // The cheap-accessor path must produce the exact same statistics as
        // observing the dense configuration directly.
        use crate::process::LoadProcess;
        let mut p = LoadProcess::legitimate_start(64, 9);
        let mut via_engine = ObserverStack::new()
            .with_max_load()
            .with_empty_bins()
            .with_legitimacy(LegitimacyThreshold::default())
            .with_trace(3);
        let mut via_config = via_engine.clone();
        for _ in 0..120 {
            p.step();
            via_engine.observe_engine(p.round(), &p);
            via_config.observe(p.round(), p.config());
        }
        let (a, b) = (&via_engine, &via_config);
        assert_eq!(
            a.max_load.as_ref().unwrap().window_max(),
            b.max_load.as_ref().unwrap().window_max()
        );
        assert_eq!(
            a.max_load.as_ref().unwrap().mean_round_max(),
            b.max_load.as_ref().unwrap().mean_round_max()
        );
        assert_eq!(
            a.empty_bins.as_ref().unwrap().min_empty(),
            b.empty_bins.as_ref().unwrap().min_empty()
        );
        assert_eq!(
            a.empty_bins.as_ref().unwrap().violations_below_quarter(),
            b.empty_bins.as_ref().unwrap().violations_below_quarter()
        );
        assert_eq!(
            a.legitimacy.as_ref().unwrap().first_legitimate_round(),
            b.legitimacy.as_ref().unwrap().first_legitimate_round()
        );
        assert_eq!(
            a.trace.as_ref().unwrap().points(),
            b.trace.as_ref().unwrap().points()
        );
    }

    #[test]
    fn observer_stack_is_empty_reports_components() {
        assert!(ObserverStack::new().is_empty());
        assert!(!ObserverStack::new().with_max_load().is_empty());
        assert!(!ObserverStack::new().with_trace(2).is_empty());
        assert!(!ObserverStack::new().with_weighted_load().is_empty());
        assert!(!ObserverStack::new().with_capacity().is_empty());
    }

    #[test]
    fn weighted_load_tracker_tracks_window_max() {
        let mut t = WeightedLoadTracker::new();
        t.record(1, 10);
        t.record(2, 40);
        t.record(3, 40);
        t.record(4, 6);
        assert_eq!(t.window_max(), 40);
        assert_eq!(t.argmax_round(), 2);
        assert_eq!(t.rounds(), 4);
        assert!((t.mean_round_max() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_tracker_counts_violating_rounds() {
        let mut t = CapacityTracker::new();
        t.record(1, 0);
        t.record(2, 3);
        t.record(3, 1);
        t.record(4, 0);
        assert_eq!(t.max_violations(), 3);
        assert_eq!(t.argmax_round(), 2);
        assert_eq!(t.rounds_in_violation(), 2);
        assert_eq!(t.rounds(), 4);
    }

    #[test]
    fn weighted_observers_on_a_weighted_engine() {
        use crate::config::Config;
        use crate::process::LoadProcess;
        use crate::rng::Xoshiro256pp;
        use crate::weights::{Capacities, Weights};
        let n = 32;
        let mut p = LoadProcess::with_weights(
            Config::all_in_one(n, n as u32),
            Xoshiro256pp::seed_from(5),
            Weights::zipf(n as u64, 1.0, 16),
            Capacities::Uniform(4),
        );
        let mut stack = ObserverStack::new()
            .with_max_load()
            .with_weighted_load()
            .with_capacity();
        for _ in 0..200 {
            p.step();
            stack.observe_engine(p.round(), &p);
        }
        let wl = stack.weighted_load.as_ref().unwrap();
        let ml = stack.max_load.as_ref().unwrap();
        // All mass starts in one bin: the first observed weighted max is
        // near the total weight and dominates the unit max throughout.
        assert!(wl.window_max() >= u64::from(ml.window_max()));
        assert_eq!(wl.rounds(), 200);
        // A 16-weighted ball in a capacity-4 world: violations must occur.
        let cap = stack.capacity.as_ref().unwrap();
        assert!(cap.max_violations() >= 1);
        assert!(cap.rounds_in_violation() >= 1);
        assert_eq!(cap.rounds(), 200);
    }

    #[test]
    fn weighted_observers_degenerate_on_unit_engines() {
        use crate::process::LoadProcess;
        // On a unit, unbounded engine the weighted tracker mirrors the unit
        // max-load tracker and the capacity tracker stays at zero.
        let mut p = LoadProcess::legitimate_start(64, 9);
        let mut stack = ObserverStack::new()
            .with_max_load()
            .with_weighted_load()
            .with_capacity();
        for _ in 0..100 {
            p.step();
            stack.observe_engine(p.round(), &p);
        }
        let wl = stack.weighted_load.unwrap();
        let ml = stack.max_load.unwrap();
        assert_eq!(wl.window_max(), u64::from(ml.window_max()));
        assert_eq!(wl.argmax_round(), ml.argmax_round());
        let cap = stack.capacity.unwrap();
        assert_eq!(cap.max_violations(), 0);
        assert_eq!(cap.rounds_in_violation(), 0);
    }

    #[test]
    fn observer_stack_matches_standalone_trackers() {
        let mut stack = ObserverStack::new()
            .with_max_load()
            .with_empty_bins()
            .with_legitimacy(LegitimacyThreshold::default());
        let mut solo = (
            MaxLoadTracker::new(),
            EmptyBinsTracker::new(),
            LegitimacyTracker::new(LegitimacyThreshold::default()),
        );
        for (r, c) in [(1, cfg(&[0, 0, 3, 1])), (2, cfg(&[1, 1, 1, 1]))] {
            stack.observe(r, &c);
            solo.observe(r, &c);
        }
        assert_eq!(stack.max_load.unwrap().window_max(), solo.0.window_max());
        assert_eq!(stack.empty_bins.unwrap().min_empty(), solo.1.min_empty());
        assert_eq!(
            stack.legitimacy.unwrap().first_legitimate_round(),
            solo.2.first_legitimate_round()
        );
    }
}
