//! The repeated balls-into-bins process — dense load storage.
//!
//! This engine simulates exactly the dynamics of Section 2:
//!
//! ```text
//! Q_v(t+1) = max(Q_v(t) - 1, 0) + |{ u ∈ W(t) : X_u(t+1) = v }|
//! ```
//!
//! where `W(t)` is the set of non-empty bins at round `t` and each
//! `X_u(t+1)` is u.a.r. over the `n` bins. Because exactly one ball leaves
//! every non-empty bin regardless of *which* ball the queue strategy picks,
//! the load process is strategy-invariant; this engine therefore carries no
//! ball identities and runs a round in `O(n)` time over a dense `Vec<u32>`
//! (see DESIGN.md §3.1 — [`crate::ball_process::BallProcess`] is the
//! identity-carrying sibling). [`crate::load::LoadEngine`] supplies
//! everything but the storage.

use crate::config::Config;
use crate::engine::Engine;
use crate::load::{ascending, Draws, LoadEngine, LoadStore, Rule, MAX_BEST_OF};
use crate::rng::Xoshiro256pp;
use crate::sampling::throw_uniform_batched;
use crate::snapshot::ENGINE_DENSE;
use crate::weights::{Capacities, Weights};

/// Dense load storage: one `u32` per bin.
#[derive(Debug, Clone)]
pub struct DenseStore {
    config: Config,
}

impl LoadStore for DenseStore {
    const KIND: &'static str = ENGINE_DENSE;
    const BIN_HANDLES: bool = true;

    /// Writes the entries into a zeroed `Vec<u32>`: the only `O(n)` buffer
    /// construction allocates.
    fn fill(
        n: usize,
        shards: usize,
        entries: impl Iterator<Item = (u32, u32)>,
        mut filed: impl FnMut(u32, u32, u32),
    ) -> Self {
        let entries = ascending(n, entries);
        assert_eq!(shards, 1, "dense storage draws from one stream");
        let mut config = Config::empty(n);
        let loads = config.loads_mut();
        entries.for_each(|(bin, load)| {
            loads[bin as usize] = load;
            filed(bin, bin, load);
        });
        Self { config }
    }

    #[inline]
    fn n(&self) -> usize {
        self.config.n()
    }

    /// The departure scan, then one draw per departure: straight into the
    /// loads on a unit round, through the batched throw of
    /// [`throw_uniform_batched`] (which leaves the draws in `draws.dests`)
    /// on a weighted one.
    fn round(&mut self, draws: &mut Draws, srcs: Option<&mut Vec<u32>>) -> usize {
        let loads = self.config.loads_mut();
        let Some(srcs) = srcs else {
            // Counted in u32 lanes: the non-empty bins never outnumber the
            // balls, which every load engine keeps at or below u32::MAX.
            let mut departures = 0u32;
            for l in loads.iter_mut() {
                // Branchless: at ~63% occupancy in equilibrium the `l > 0`
                // branch is close to worst-case unpredictable.
                let occupied = u32::from(*l > 0);
                *l -= occupied;
                departures += occupied;
            }
            let rng = &mut draws.streams[0];
            for _ in 0..departures {
                loads[draws.sampler.sample(rng) as usize] += 1;
            }
            return departures as usize;
        };
        let mut departures = 0usize;
        for (l, b) in loads.iter_mut().zip(0u32..) {
            if *l > 0 {
                *l -= 1;
                departures += 1;
                srcs.push(b);
            }
        }
        throw_uniform_batched(
            &draws.sampler,
            &mut draws.streams[0],
            loads,
            departures,
            &mut draws.dests,
        );
        departures
    }

    #[inline]
    fn arrive(&mut self, bin: u32) -> u32 {
        self.config.loads_mut()[bin as usize] += 1;
        bin
    }

    fn remove(&mut self, bin: u32) -> Option<u32> {
        let slot = &mut self.config.loads_mut()[bin as usize];
        let occupied = *slot > 0;
        *slot -= u32::from(occupied);
        occupied.then_some(bin)
    }

    #[inline]
    fn handle(&self, bin: u32) -> Option<u32> {
        Some(bin)
    }

    fn clear(&mut self) {
        self.config.loads_mut().fill(0);
    }

    #[inline]
    fn load(&self, bin: usize) -> u32 {
        self.config.loads()[bin]
    }

    fn max_load(&self) -> u32 {
        self.config.max_load()
    }

    fn nonempty(&self) -> usize {
        self.config.nonempty_bins()
    }

    fn occupied(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.config
            .loads()
            .iter()
            .zip(0u32..)
            .filter(|&(&l, _)| l > 0)
            .map(|(&l, b)| (b, l))
    }

    #[inline]
    fn config(&self) -> &Config {
        &self.config
    }
}

/// Load-only repeated balls-into-bins simulator over dense storage.
///
/// ```
/// use rbb_core::prelude::*;
///
/// let mut p = LoadProcess::legitimate_start(64, 7);
/// let mut tracker = MaxLoadTracker::new();
/// p.run(1_000, &mut tracker);
/// assert_eq!(p.config().total_balls(), 64);       // mass conserved
/// assert!(tracker.window_max() <= 4 * 64u32.ilog2()); // O(log n) loads
/// ```
pub type LoadProcess = LoadEngine<DenseStore>;

impl LoadProcess {
    /// Creates a process from an initial configuration and a seeded RNG.
    ///
    /// # RNG stream
    ///
    /// Takes ownership of `rng` as the engine stream: each round consumes one
    /// uniform destination draw per ball released, in bin order (the contract
    /// of [`crate::load::reference_round`] at one stream).
    pub fn new(config: Config, rng: Xoshiro256pp) -> Self {
        Self::with_weights(config, rng, Weights::Unit, Capacities::Unbounded)
    }

    /// Creates a weighted, capacity-observing process. [`Weights::Unit`]
    /// (or an explicit all-ones vector) builds no overlay at all, so the
    /// unit configuration is the *same engine* as [`Self::new`] — identical
    /// trajectory, RNG stream, and snapshot bytes. Non-unit weights are
    /// assigned ball by ball in bin order over `config`. The process adopts
    /// `config` as its storage: one pass over it counts the balls and files
    /// the weights, and nothing else of size `n` is allocated.
    ///
    /// # RNG stream
    ///
    /// Identical to [`Self::new`]: weights never touch the RNG — each round
    /// still consumes one uniform draw per non-empty bin, in bin order.
    pub fn with_weights(
        config: Config,
        rng: Xoshiro256pp,
        weights: Weights,
        capacities: Capacities,
    ) -> Self {
        Self::adopt(DenseStore { config }, vec![rng], weights, capacities)
    }

    /// The same process with its released balls sent by `rule`:
    /// `BestOf(d)` is the repeated d-choice process (`BestOf(1)` is kept as
    /// `Uniform`, the same stream, the way all-ones weights build no
    /// overlay), `Neighbors` the walk on a graph whose vertices are the `n`
    /// bins. Weights stay a metric overlay under any rule. Panics unless
    /// `1 <= d <=` [`MAX_BEST_OF`], and on a graph whose vertex count is
    /// not the bin count.
    ///
    /// ```
    /// use rbb_core::load::Rule;
    /// use rbb_core::prelude::*;
    ///
    /// let mut p = LoadProcess::legitimate_start(64, 7).with_rule(Rule::BestOf(2));
    /// p.run_silent(100);
    /// assert_eq!(p.config().total_balls(), 64);
    /// ```
    ///
    /// # RNG stream
    ///
    /// Each round, the engine stream serves the non-empty bins in bin order:
    /// `d` uniform draws each under `BestOf(d)`, one
    /// [`Neighbors::random_neighbor`](crate::load::Neighbors::random_neighbor)
    /// draw each under `Neighbors` (the contract of
    /// [`crate::load::reference_round`] under the rule).
    pub fn with_rule(mut self, rule: Rule) -> Self {
        match &rule {
            Rule::Uniform => {}
            Rule::BestOf(d) => assert!(
                (1..=MAX_BEST_OF).contains(d),
                "d-choice takes 1 to {MAX_BEST_OF} choices, not {d}"
            ),
            Rule::Neighbors(graph) => assert_eq!(
                graph.n(),
                self.store.n(),
                "a walk needs one graph vertex per bin"
            ),
        }
        self.rule = match rule {
            Rule::BestOf(1) => Rule::Uniform,
            rule => rule,
        };
        self
    }

    /// Convenience constructor: `n` balls into `n` bins, one per bin.
    pub fn legitimate_start(n: usize, seed: u64) -> Self {
        // rbb-lint: allow(rng-construct, reason = "engine-convention stream for a core convenience constructor; core cannot depend on rbb_sim::seed")
        Self::new(Config::one_per_bin(n), Xoshiro256pp::seed_from(seed))
    }

    /// Advances one round, recording each mover's destination in `dests`
    /// (bin indices in the order the source bins were scanned). Used by the
    /// Lemma-3 coupling, which reuses these choices for the Tetris copy.
    /// Panics on a weighted engine or a rule other than `Uniform`.
    ///
    /// # RNG stream
    ///
    /// Consumes what [`Engine::step`] does: the recorded destinations are
    /// the round's `moved` draws, replayed from a copy of the engine
    /// stream taken before the step.
    pub fn step_recording(&mut self, dests: &mut Vec<usize>) -> usize {
        assert!(
            self.weighted.is_none() && matches!(self.rule, Rule::Uniform),
            "step_recording is a unit-path primitive of the uniform process (the \
             Lemma-3 coupling); weighted rounds and destination rules go through step"
        );
        let mut replay = self.draws.streams[0].clone();
        let moved = self.step();
        let sampler = self.draws.sampler;
        dests.clear();
        dests.extend((0..moved).map(|_| sampler.sample(&mut replay) as usize));
        moved
    }

    /// Replaces the configuration wholesale — the §4.1 adversary's move.
    /// Panics if the new configuration changes the ball count (the adversary
    /// may *re-assign* balls, not create or destroy them), and on a weighted
    /// engine before touching the loads, as
    /// [`Faults::apply_fault`](crate::engine::Faults::apply_fault) does: a
    /// configuration does not say which weight goes where.
    pub fn adversarial_reassign(&mut self, new_config: Config) {
        assert!(
            self.weighted.is_none(),
            "adversarial reassignment is unsupported on a weighted engine"
        );
        assert_eq!(
            new_config.total_balls(),
            self.balls,
            "adversary must conserve balls"
        );
        assert_eq!(new_config.n(), self.n(), "adversary must keep n bins");
        self.store.config = new_config;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LegitimacyThreshold;
    use crate::engine::{Engine, Incremental};
    use crate::load::reference_round;
    use crate::load::tests::{
        assert_fault_support, assert_matches_reference, assert_place_and_depart,
        assert_snapshot_round_trip, assert_unit_weights_build_the_same_engine,
        assert_weighted_place_and_depart,
    };
    use crate::metrics::{EmptyBinsTracker, MaxLoadTracker};
    use crate::snapshot::SNAPSHOT_VERSION_WEIGHTED;

    #[test]
    fn step_conserves_balls() {
        let mut p = LoadProcess::legitimate_start(64, 1);
        for _ in 0..200 {
            p.step();
            assert_eq!(p.config().total_balls(), 64);
        }
    }

    #[test]
    fn step_returns_nonempty_count() {
        let mut p = LoadProcess::new(Config::all_in_one(8, 8), Xoshiro256pp::seed_from(2));
        // Round 1: only bin 0 is non-empty, so exactly one ball moves.
        assert_eq!(p.step(), 1);
    }

    #[test]
    fn round_counter_advances() {
        let mut p = LoadProcess::legitimate_start(16, 3);
        assert_eq!(p.round(), 0);
        p.run_silent(10);
        assert_eq!(p.round(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = LoadProcess::legitimate_start(32, 42);
        let mut b = LoadProcess::legitimate_start(32, 42);
        a.run_silent(100);
        b.run_silent(100);
        assert_eq!(a.config(), b.config());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = LoadProcess::legitimate_start(32, 1);
        let mut b = LoadProcess::legitimate_start(32, 2);
        a.run_silent(50);
        b.run_silent(50);
        assert_ne!(a.config(), b.config());
    }

    #[test]
    fn empty_bins_appear_after_one_round() {
        // Lemma 1: from the all-singleton start, one round creates ≥ n/4
        // empty bins w.h.p. (here: just check plenty appear).
        let mut p = LoadProcess::legitimate_start(1024, 7);
        p.step();
        let empty = p.config().empty_bins();
        assert!(empty >= 1024 / 4, "only {empty} empty bins after round 1");
    }

    #[test]
    fn max_load_stays_logarithmic_short_window() {
        let n = 512;
        let mut p = LoadProcess::legitimate_start(n, 11);
        let mut tracker = MaxLoadTracker::new();
        p.run(2000, &mut tracker);
        let bound = LegitimacyThreshold::default().bound(n);
        assert!(
            tracker.window_max() <= bound,
            "max load {} exceeded 4 ln n = {}",
            tracker.window_max(),
            bound
        );
    }

    #[test]
    fn empty_fraction_at_least_quarter_in_window() {
        let mut p = LoadProcess::legitimate_start(1024, 13);
        let mut tracker = EmptyBinsTracker::new();
        p.run(2000, &mut tracker);
        assert_eq!(tracker.violations_below_quarter(), 0);
        assert!(tracker.min_empty() >= 256);
    }

    #[test]
    fn all_in_one_drains_one_per_round() {
        let n = 64;
        let mut p = LoadProcess::new(Config::all_in_one(n, n as u32), Xoshiro256pp::seed_from(5));
        for t in 1..=10u32 {
            p.step();
            // Bin 0 loses one per round and receives at most the number of
            // movers; early on it can only shrink roughly one per round.
            assert!(p.config().loads()[0] >= n as u32 - 2 * t);
        }
    }

    #[test]
    fn convergence_from_all_in_one_is_linear() {
        let n = 256;
        let thr = LegitimacyThreshold::default();
        let mut p = LoadProcess::new(Config::all_in_one(n, n as u32), Xoshiro256pp::seed_from(6));
        let hit = p
            .run_until(20 * n as u64, |c| thr.is_legitimate(c))
            .expect("should converge");
        // Needs at least (n - bound) rounds to drain bin 0; should finish in O(n).
        assert!(hit >= (n as u64 - thr.bound(n) as u64));
        assert!(hit <= 3 * n as u64, "took {hit} rounds");
    }

    #[test]
    fn run_until_immediate_hit() {
        let mut p = LoadProcess::legitimate_start(16, 8);
        let hit = p.run_until(10, |_| true);
        assert_eq!(hit, Some(0));
    }

    #[test]
    fn run_until_gives_none_on_timeout() {
        let mut p = LoadProcess::legitimate_start(16, 9);
        assert_eq!(p.run_until(5, |c| c.max_load() > 1_000), None);
    }

    #[test]
    fn step_recording_matches_departures() {
        let mut p = LoadProcess::legitimate_start(32, 10);
        let mut dests = Vec::new();
        let d = p.step_recording(&mut dests);
        assert_eq!(d, 32);
        assert_eq!(dests.len(), 32);
        // Every bin released its one ball, so the loads are the arrivals.
        let mut recount = [0u32; 32];
        for &b in &dests {
            recount[b] += 1;
        }
        assert_eq!(p.config().loads(), &recount[..]);
    }

    #[test]
    fn adversarial_reassign_conserves() {
        let mut p = LoadProcess::legitimate_start(16, 11);
        p.adversarial_reassign(Config::all_in_one(16, 16));
        assert_eq!(p.config().max_load(), 16);
        p.step();
        assert_eq!(p.config().total_balls(), 16);
    }

    #[test]
    #[should_panic(expected = "conserve")]
    fn adversarial_reassign_rejects_mass_change() {
        let mut p = LoadProcess::legitimate_start(16, 12);
        p.adversarial_reassign(Config::all_in_one(16, 17));
    }

    #[test]
    fn adversarial_reassign_refuses_a_weighted_engine_before_touching_it() {
        // Replacing the loads under the overlay would leave bin 0 with 16
        // balls but weighing 8, and a later round would panic.
        let mut p = LoadProcess::with_weights(
            Config::one_per_bin(16),
            Xoshiro256pp::seed_from(3),
            Weights::zipf(16, 1.0, 8),
            Capacities::Unbounded,
        );
        let mut twin = p.clone();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.adversarial_reassign(Config::all_in_one(16, 16));
        }))
        .expect_err("a reassignment of a weighted engine panics");
        let message = (panic.downcast_ref::<String>().map(String::as_str))
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("unsupported on a weighted engine"),
            "{message}"
        );
        assert_eq!(p.config(), &Config::one_per_bin(16), "loads untouched");
        p.check_overlay().unwrap();
        for _ in 0..3 {
            assert_eq!(p.step(), twin.step());
            assert_eq!(
                Engine::weighted_max_load(&p),
                Engine::weighted_max_load(&twin)
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "queue length")]
    fn step_names_the_overlay_mismatch() {
        // Moves a ball in the loads behind the overlay's back: the debug
        // check after the round reports check_against's own error.
        let mut p = zipf_process(16, 62, Capacities::Unbounded);
        let loads = p.store.config.loads_mut();
        loads[0] += 1;
        loads[1] -= 1;
        p.step();
    }

    #[test]
    fn batched_step_is_bit_identical_to_scalar() {
        // The one round path must be indistinguishable from the scalar
        // reference round: same loads and same RNG consumption.
        for n in [1usize, 7, 64, 1000] {
            assert_matches_reference(&mut LoadProcess::legitimate_start(n, 21), 300);
        }
    }

    #[test]
    fn cached_sampler_keeps_rng_state_bit_identical_to_scalar() {
        // The cached `UniformSampler` must not change what a round
        // consumes: after any number of rounds the loads AND the raw RNG
        // state match the reference round exactly.
        for n in [2usize, 33, 500] {
            let mut p = LoadProcess::legitimate_start(n, 77);
            assert_matches_reference(&mut p, 250);
            assert_eq!(p.draws.sampler.bound(), n as u64, "sampler keyed on n");
        }
    }

    #[test]
    fn batched_and_scalar_steps_interleave() {
        // Because the kernel and the reference round consume the stream
        // identically, they can advance one trajectory in turns.
        let mut reference = LoadProcess::legitimate_start(128, 22);
        let mut mixed = reference.clone();
        for i in 0..200 {
            reference.step();
            if i % 2 == 0 {
                mixed.step();
            } else {
                reference_round(
                    mixed.store.config.loads_mut(),
                    &mut mixed.draws.streams,
                    &Rule::Uniform,
                );
                mixed.round += 1;
            }
        }
        assert_eq!(reference.config(), mixed.config());
        assert_eq!(reference.round(), mixed.round());
    }

    #[test]
    fn run_silent_matches_scalar_stepping() {
        let mut p = LoadProcess::legitimate_start(256, 23);
        let mut loads = p.config().loads().to_vec();
        let mut streams = p.draws.streams.clone();
        p.run_silent(500);
        for _ in 0..500 {
            reference_round(&mut loads, &mut streams, &Rule::Uniform);
        }
        assert_eq!(p.config().loads(), &loads[..]);
        assert_eq!(p.round(), 500);
        assert_eq!(p.config().total_balls(), 256);
    }

    #[test]
    fn run_invokes_observer() {
        let mut p = LoadProcess::legitimate_start(64, 24);
        let mut tracker = MaxLoadTracker::new();
        p.run(100, &mut tracker);
        assert!(tracker.window_max() >= 1);
    }

    #[test]
    fn batched_from_all_in_one_conserves() {
        let mut p = LoadProcess::new(Config::all_in_one(64, 200), Xoshiro256pp::seed_from(25));
        p.run_silent(300);
        assert_eq!(p.config().total_balls(), 200);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        assert_snapshot_round_trip(LoadProcess::legitimate_start(64, 33), 37);
    }

    #[test]
    fn from_snapshot_rejects_other_kinds() {
        let mut snap = Engine::snapshot(&LoadProcess::legitimate_start(8, 1)).unwrap();
        snap.engine = "sparse".to_string();
        assert!(LoadProcess::from_snapshot(&snap).is_err());
    }

    #[test]
    fn place_and_depart_update_loads_and_mass() {
        assert_place_and_depart(LoadProcess::legitimate_start(32, 44));
        assert_place_and_depart(LoadProcess::new(
            Config::all_in_one(32, 5),
            Xoshiro256pp::seed_from(44),
        ));
    }

    #[test]
    fn place_consumes_the_engine_stream_deterministically() {
        let mut a = LoadProcess::legitimate_start(64, 9);
        let mut b = a.clone();
        for _ in 0..20 {
            assert_eq!(a.place(), b.place());
        }
        a.run_silent(10);
        b.run_silent(10);
        assert_eq!(a.config(), b.config());
    }

    #[test]
    fn m_less_than_n_supported() {
        let mut rng = Xoshiro256pp::seed_from(13);
        let cfg = Config::random(&mut rng, 100, 50);
        let mut p = LoadProcess::new(cfg, rng);
        p.run_silent(100);
        assert_eq!(p.config().total_balls(), 50);
    }

    #[test]
    fn m_greater_than_n_supported() {
        let mut rng = Xoshiro256pp::seed_from(14);
        let cfg = Config::random(&mut rng, 100, 400);
        let mut p = LoadProcess::new(cfg, rng);
        p.run_silent(100);
        assert_eq!(p.config().total_balls(), 400);
    }

    fn zipf_process(n: usize, seed: u64, caps: Capacities) -> LoadProcess {
        let config = Config::one_per_bin(n);
        LoadProcess::with_weights(
            config,
            Xoshiro256pp::seed_from(seed),
            Weights::zipf(n as u64, 1.0, 50),
            caps,
        )
    }

    #[test]
    fn unit_weights_build_the_same_engine() {
        // Weights::Unit (and an explicit all-ones vector) must not build an
        // overlay: the weighted constructor returns the *same* engine as
        // `new`, trajectory, stream, and snapshot bytes included.
        for weights in [Weights::Unit, Weights::Explicit(vec![1; 64])] {
            assert_unit_weights_build_the_same_engine(
                LoadProcess::legitimate_start(64, 51),
                LoadProcess::with_weights(
                    Config::one_per_bin(64),
                    Xoshiro256pp::seed_from(51),
                    weights,
                    Capacities::Unbounded,
                ),
            );
        }
    }

    #[test]
    fn weighted_trajectory_matches_unit_trajectory() {
        // Weight-obliviousness: the load trajectory and RNG stream of a
        // weighted process are bit-identical to the unit process from the
        // same seed — weights are a metric overlay, not a dynamic.
        let mut unit = LoadProcess::legitimate_start(128, 52);
        let mut zipf = zipf_process(128, 52, Capacities::Unbounded);
        assert!(Engine::weighted(&zipf));
        for _ in 0..200 {
            assert_eq!(unit.step(), zipf.step());
            assert_eq!(unit.config(), zipf.config());
        }
        assert_eq!(
            unit.draws.streams, zipf.draws.streams,
            "weights must never touch the RNG"
        );
        assert_eq!(Engine::balls(&zipf), 128);
        assert_eq!(
            Engine::total_weight(&zipf),
            Weights::zipf(128, 1.0, 50).total(128)
        );
    }

    #[test]
    fn weighted_scalar_and_batched_paths_are_bit_identical() {
        let mut p = zipf_process(96, 53, Capacities::Unbounded);
        assert_matches_reference(&mut p, 150);
        assert!(Engine::weighted(&p));
    }

    #[test]
    fn weighted_rounds_conserve_total_weight() {
        let mut p = zipf_process(64, 54, Capacities::Uniform(60));
        let total = Engine::total_weight(&p);
        for _ in 0..100 {
            p.step();
            assert_eq!(Engine::total_weight(&p), total);
            assert!(Engine::weighted_max_load(&p) <= total);
        }
        // Weighted max load dominates the unweighted count whenever any
        // heavy ball exists (here ball 0 weighs 50).
        assert!(Engine::weighted_max_load(&p) >= u64::from(Engine::max_load(&p)));
    }

    #[test]
    fn weighted_snapshot_round_trips_bit_identically() {
        let p = zipf_process(48, 55, Capacities::Uniform(55));
        let snap = Engine::snapshot(&p).unwrap();
        assert_eq!(snap.version, SNAPSHOT_VERSION_WEIGHTED);
        assert_eq!(snap.weighted.as_ref().unwrap().cap_kind, "uniform");
        assert_snapshot_round_trip(p, 31);
    }

    #[test]
    fn capacity_only_process_snapshots_and_counts_violations() {
        // Unit weights + real capacities: no overlay, but the capacities
        // persist through snapshots and violations use the dense scan.
        let mut p = LoadProcess::with_weights(
            Config::all_in_one(16, 16),
            Xoshiro256pp::seed_from(56),
            Weights::Unit,
            Capacities::Uniform(3),
        );
        assert!(p.weighted.is_none());
        assert_eq!(Engine::capacity_violations(&p), 1, "bin 0 holds 16 > 3");
        let snap = Engine::snapshot(&p).expect("dense engine snapshots");
        assert_eq!(snap.version, SNAPSHOT_VERSION_WEIGHTED);
        assert!(snap.weighted.as_ref().is_some_and(|w| w.queues.is_empty()));
        let q = LoadProcess::from_snapshot(&snap).unwrap();
        assert_eq!(Engine::capacities(&q), &Capacities::Uniform(3));
        assert_eq!(Engine::capacity_violations(&q), 1);
        p.run_silent(200);
        assert_eq!(p.config().total_balls(), 16);
    }

    #[test]
    fn weighted_place_and_depart_track_the_overlay() {
        assert_weighted_place_and_depart(zipf_process(32, 57, Capacities::Unbounded));
    }

    #[test]
    fn only_unit_weight_engines_support_faults() {
        let capacity_only = LoadProcess::with_weights(
            Config::one_per_bin(16),
            Xoshiro256pp::seed_from(61),
            Weights::Unit,
            Capacities::Uniform(3),
        );
        assert_fault_support(zipf_process(16, 61, Capacities::Unbounded), capacity_only);
    }

    #[test]
    #[should_panic(expected = "unit-weight")]
    fn unit_process_rejects_heavy_placements() {
        let mut p = LoadProcess::legitimate_start(8, 58);
        p.place_weighted(2);
    }

    #[test]
    #[should_panic(expected = "unit-path primitive")]
    fn weighted_process_rejects_step_recording() {
        let mut p = zipf_process(8, 59, Capacities::Unbounded);
        let mut dests = Vec::new();
        p.step_recording(&mut dests);
    }

    /// The walk on a ring of `n` bins: one `uniform_usize(2)` draw per
    /// departing bin picks the left or right neighbor.
    #[derive(Debug)]
    struct Ring(usize);

    impl crate::load::Neighbors for Ring {
        fn random_neighbor(&self, v: usize, rng: &mut Xoshiro256pp) -> usize {
            (v + [self.0 - 1, 1][rng.uniform_usize(2)]) % self.0
        }

        fn n(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn best_of_rounds_match_the_reference_round() {
        // The rule round draws d candidates per departing bin through the
        // cached sampler; the reference draws them with `uniform_usize`
        // against a copy of the start-of-round loads.
        for (n, d) in [(1usize, 2usize), (7, 2), (64, 3), (500, 2)] {
            let start = Config::random(&mut Xoshiro256pp::seed_from(n as u64), n, 2 * n as u64);
            let mut p =
                LoadProcess::new(start, Xoshiro256pp::seed_from(81)).with_rule(Rule::BestOf(d));
            assert_matches_reference(&mut p, 200);
        }
    }

    #[test]
    fn neighbor_rounds_match_the_reference_round() {
        // A walk has no snapshot, so the reference starts from the engine's
        // own loads and stream.
        let rule = Rule::Neighbors(std::sync::Arc::new(Ring(40)));
        let start = Config::all_in_one(40, 40);
        let mut p = LoadProcess::new(start, Xoshiro256pp::seed_from(82)).with_rule(rule.clone());
        assert!(
            Engine::snapshot(&p).is_none(),
            "a snapshot cannot carry the graph"
        );
        let mut loads = p.config().loads().to_vec();
        let mut streams = p.draws.streams.clone();
        for r in 0..300 {
            assert_eq!(
                p.step(),
                reference_round(&mut loads, &mut streams, &rule),
                "round {r}"
            );
            assert_eq!(p.config().loads(), &loads[..], "round {r}");
        }
        assert_eq!(p.draws.streams, streams);
    }

    #[test]
    #[should_panic(expected = "one graph vertex per bin")]
    fn a_walk_needs_a_graph_of_n_vertices() {
        let rule = Rule::Neighbors(std::sync::Arc::new(Ring(41)));
        let _ = LoadProcess::legitimate_start(40, 1).with_rule(rule);
    }

    #[test]
    #[should_panic(expected = "choices")]
    fn best_of_takes_at_most_max_best_of_choices() {
        let _ = LoadProcess::legitimate_start(40, 1).with_rule(Rule::BestOf(MAX_BEST_OF + 1));
    }

    #[test]
    fn best_of_one_is_the_uniform_process() {
        let plain = LoadProcess::legitimate_start(64, 83);
        let one = plain.clone().with_rule(Rule::BestOf(1));
        assert!(matches!(one.rule, Rule::Uniform));
        assert_unit_weights_build_the_same_engine(plain, one);
    }

    #[test]
    fn best_of_snapshot_round_trips_at_layout_version_3() {
        let p = LoadProcess::legitimate_start(64, 84).with_rule(Rule::BestOf(2));
        let snap = Engine::snapshot(&p).unwrap();
        assert_eq!(snap.best_of, Some(2));
        assert_snapshot_round_trip(p, 23);
    }

    #[test]
    fn best_of_place_takes_the_least_loaded_of_d_draws() {
        // Bins 0..4 hold 5, 4, 3, 2, 1 balls; the rest are empty.
        let start = Config::from_loads([vec![5, 4, 3, 2, 1], vec![0; 3]].concat());
        let mut p = LoadProcess::new(start, Xoshiro256pp::seed_from(85)).with_rule(Rule::BestOf(3));
        for _ in 0..50 {
            let mut rng = p.draws.streams[0].clone();
            let loads = p.config().loads().to_vec();
            let mut want = rng.uniform_usize(8);
            for _ in 1..3 {
                let c = rng.uniform_usize(8);
                if loads[c] < loads[want] {
                    want = c;
                }
            }
            assert_eq!(p.place(), want);
            assert_eq!(p.draws.streams[0], rng, "d draws per placement");
        }
    }

    #[test]
    fn weighted_best_of_is_weight_oblivious_and_snapshots() {
        // Weights stay a metric overlay under a rule: the trajectory and
        // stream match the unit engine, and the overlay follows each ball.
        let mut unit = LoadProcess::legitimate_start(96, 86).with_rule(Rule::BestOf(2));
        let mut zipf = zipf_process(96, 86, Capacities::Uniform(60)).with_rule(Rule::BestOf(2));
        let total = Engine::total_weight(&zipf);
        for _ in 0..100 {
            assert_eq!(unit.step(), zipf.step());
            assert_eq!(unit.config(), zipf.config());
            assert_eq!(Engine::total_weight(&zipf), total);
        }
        zipf.check_overlay().unwrap();
        assert_eq!(unit.draws.streams, zipf.draws.streams);
        let snap = Engine::snapshot(&zipf).unwrap();
        assert!(snap.weighted.is_some() && snap.best_of == Some(2));
        let fresh = zipf_process(96, 86, Capacities::Uniform(60)).with_rule(Rule::BestOf(2));
        assert_snapshot_round_trip(fresh, 17);
    }

    #[test]
    fn sorted_entries_fill_the_engine_the_config_builds() {
        // One pass over lazy entries builds what adopting the densified
        // start builds, overlay included; zero loads are skipped.
        let start = Config::from_loads(vec![3, 0, 1, 0, 0, 2, 1]);
        let entries = start.loads().iter().zip(0u32..).map(|(&l, b)| (b, l));
        let weights = Weights::Explicit(vec![9, 8, 7, 6, 5, 4, 3]);
        let caps = Capacities::Uniform(10);
        let rng = Xoshiro256pp::seed_from(62);
        let mut filled = LoadProcess::from_sorted_entries(
            7,
            entries,
            vec![rng.clone()],
            weights.clone(),
            caps.clone(),
        );
        let mut adopted = LoadProcess::with_weights(start, rng, weights, caps);
        filled.check_overlay().unwrap();
        assert_eq!(Engine::snapshot(&filled), Engine::snapshot(&adopted));
        for _ in 0..30 {
            assert_eq!(filled.step(), adopted.step());
            assert_eq!(
                Engine::weighted_max_load(&filled),
                Engine::weighted_max_load(&adopted)
            );
        }
        assert_eq!(Engine::snapshot(&filled), Engine::snapshot(&adopted));
    }

    #[test]
    #[should_panic(expected = "out of order at bin 1")]
    fn sorted_entries_must_ascend() {
        let entries = [(2, 1), (1, 1)];
        let rng = vec![Xoshiro256pp::seed_from(63)];
        LoadProcess::from_sorted_entries(4, entries, rng, Weights::Unit, Capacities::Unbounded);
    }

    #[test]
    #[should_panic(expected = "out of order at bin 2")]
    fn sorted_entries_must_not_repeat_a_bin() {
        let entries = [(2, 1), (2, 1)];
        let rng = vec![Xoshiro256pp::seed_from(64)];
        LoadProcess::from_sorted_entries(4, entries, rng, Weights::Unit, Capacities::Unbounded);
    }

    #[test]
    #[should_panic(expected = "one stream")]
    fn dense_storage_takes_one_stream() {
        let rngs = vec![Xoshiro256pp::seed_from(65), Xoshiro256pp::seed_from(66)];
        LoadProcess::from_sorted_entries(4, [(0, 4)], rngs, Weights::Unit, Capacities::Unbounded);
    }

    #[test]
    #[should_panic(expected = "invalid weights")]
    fn with_weights_rejects_wrong_arity() {
        LoadProcess::with_weights(
            Config::one_per_bin(4),
            Xoshiro256pp::seed_from(60),
            Weights::Explicit(vec![2, 3]),
            Capacities::Unbounded,
        );
    }
}
