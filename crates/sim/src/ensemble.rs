//! Many-seed ensemble runs with mergeable streaming statistics.
//!
//! An [`EnsembleSpec`] is the declarative description of a *statistical*
//! experiment: one [`ScenarioSpec`] replicated across many independent
//! seeds, a list of per-trial [`MetricSpec`]s to extract, and a report
//! policy (confidence level, quantiles). [`EnsembleSpec::run`] fans the
//! trials out through the work-stealing scheduler ([`run_trials_seeded`])
//! and folds each trial's handful of metric values into mergeable
//! streaming accumulators ([`rbb_stats::MetricAccumulator`]) — no
//! trajectory is ever stored, so peak memory is independent of the round
//! count — and produces an [`EnsembleReport`]: mean/CI, exact quantiles
//! (for integer-valued metrics), and tail probabilities with Wilson
//! intervals per requested threshold.
//!
//! # Determinism
//!
//! Trial `i` runs the scenario with seed `SeedTree::new(master_seed)
//! .trial(i)` — the exact derivation the experiment suite uses for its
//! per-parameter trial loops, so an experiment migrating onto the ensemble
//! API reproduces its historical trajectories bit for bit by setting
//! `master_seed` to its scoped tree's master. Seeds never depend on thread
//! ids or scheduling order and the trial fold happens in trial order, so
//! the rendered JSON report is **byte-identical** for any
//! `RAYON_NUM_THREADS` (CI runs the suite under 1 and 4 threads and diffs
//! the output).
//!
//! Specs serialize to JSON like scenarios do; see `specs/ensemble-*.json`
//! for committed examples and README.md for the schema.

use serde::{Deserialize, Serialize};

use rbb_core::config::LegitimacyThreshold;
use rbb_core::metrics::ObserverStack;
use rbb_stats::{mean_ci, MetricAccumulator};

use crate::runner::run_trials_seeded;
use crate::seed::SeedTree;
use crate::spec::{ScenarioSpec, SpecError};

/// What an ensemble extracts from each finished trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub enum MetricKind {
    /// `max_{t ≤ T} M(t)` — the window max load (Theorem 1(a)).
    WindowMaxLoad,
    /// Mean of the per-round max load over the window.
    MeanRoundMax,
    /// Max load of the final configuration.
    FinalMaxLoad,
    /// Minimum number of empty bins over the window (Lemmas 1–2).
    MinEmptyBins,
    /// Fraction of observed rounds with fewer than `n/4` empty bins — the
    /// per-round event Lemma 2 bounds by `e^{−αn}`.
    QuarterViolationRate,
    /// First round with a legitimate configuration (missing if never).
    FirstLegitimateRound,
    /// Round at which the scenario's stop condition was met (missing if
    /// the horizon ran out first).
    StopRound,
    /// Rounds actually executed.
    Rounds,
    /// Adversarial faults injected.
    Faults,
    /// `max_{t ≤ T} W(t)` — the window max **weighted** load. On a unit
    /// scenario this coincides with the window max load.
    WeightedWindowMaxLoad,
    /// Weighted max load of the final configuration.
    FinalWeightedMaxLoad,
    /// Bins over their capacity bound in the final configuration (always 0
    /// for unbounded scenarios).
    FinalCapacityViolations,
    /// Fraction of observed rounds with at least one bin over its bound.
    CapacityViolationRate,
}

impl MetricKind {
    /// The spec-layer name (the JSON `kind` string, as the derive spells
    /// it).
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::WindowMaxLoad => "window-max-load",
            MetricKind::MeanRoundMax => "mean-round-max",
            MetricKind::FinalMaxLoad => "final-max-load",
            MetricKind::MinEmptyBins => "min-empty-bins",
            MetricKind::QuarterViolationRate => "quarter-violation-rate",
            MetricKind::FirstLegitimateRound => "first-legitimate-round",
            MetricKind::StopRound => "stop-round",
            MetricKind::Rounds => "rounds",
            MetricKind::Faults => "faults",
            MetricKind::WeightedWindowMaxLoad => "weighted-window-max-load",
            MetricKind::FinalWeightedMaxLoad => "final-weighted-max-load",
            MetricKind::FinalCapacityViolations => "final-capacity-violations",
            MetricKind::CapacityViolationRate => "capacity-violation-rate",
        }
    }

    /// Every metric kind, in report order.
    pub fn all() -> [MetricKind; 13] {
        [
            MetricKind::WindowMaxLoad,
            MetricKind::MeanRoundMax,
            MetricKind::FinalMaxLoad,
            MetricKind::MinEmptyBins,
            MetricKind::QuarterViolationRate,
            MetricKind::FirstLegitimateRound,
            MetricKind::StopRound,
            MetricKind::Rounds,
            MetricKind::Faults,
            MetricKind::WeightedWindowMaxLoad,
            MetricKind::FinalWeightedMaxLoad,
            MetricKind::FinalCapacityViolations,
            MetricKind::CapacityViolationRate,
        ]
    }
}

/// One requested metric: what to extract plus the tail thresholds to count
/// (`P(X >= t)` columns with Wilson intervals).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MetricSpec {
    /// What to extract from each trial.
    pub kind: MetricKind,
    /// Exceedance thresholds (may be empty, and then left out of the JSON).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub thresholds: Vec<f64>,
}

impl MetricSpec {
    /// A metric with no tail thresholds.
    pub fn plain(kind: MetricKind) -> Self {
        Self {
            kind,
            thresholds: Vec::new(),
        }
    }

    /// A metric with tail thresholds.
    pub fn with_thresholds(kind: MetricKind, thresholds: Vec<f64>) -> Self {
        Self { kind, thresholds }
    }
}

/// Report policy: confidence level and quantiles.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ReportSpec {
    /// Two-sided confidence level for mean CIs and Wilson tails
    /// (default 0.95).
    pub level: Option<f64>,
    /// Quantiles to report for integer-valued metrics
    /// (default `[0.5, 0.9, 0.99]`).
    pub quantiles: Option<Vec<f64>>,
}

impl ReportSpec {
    /// The resolved confidence level.
    pub fn level_or_default(&self) -> f64 {
        self.level.unwrap_or(0.95)
    }

    /// The resolved quantile list.
    pub fn quantiles_or_default(&self) -> Vec<f64> {
        self.quantiles
            .clone()
            .unwrap_or_else(|| vec![0.5, 0.9, 0.99])
    }
}

/// A declarative many-seed ensemble: scenario × replications × metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct EnsembleSpec {
    /// The scenario to replicate. Its own `seed` field is ignored; trial
    /// seeds derive from `master_seed` (see the module docs).
    pub scenario: ScenarioSpec,
    /// Root of the trial seed derivation.
    pub master_seed: u64,
    /// Number of independent trials.
    pub replications: usize,
    /// Metrics to extract per trial.
    pub metrics: Vec<MetricSpec>,
    /// Report policy (`null` for defaults).
    pub report: Option<ReportSpec>,
}

impl EnsembleSpec {
    /// A builder-style constructor with the standard metric set
    /// (window max load + mean round max) and default report policy.
    pub fn new(scenario: ScenarioSpec, master_seed: u64, replications: usize) -> Self {
        Self {
            scenario,
            master_seed,
            replications,
            metrics: vec![
                MetricSpec::plain(MetricKind::WindowMaxLoad),
                MetricSpec::plain(MetricKind::MeanRoundMax),
            ],
            report: None,
        }
    }

    /// Replaces the metric list.
    pub fn with_metrics(mut self, metrics: Vec<MetricSpec>) -> Self {
        self.metrics = metrics;
        self
    }

    /// The resolved report policy.
    pub fn report_or_default(&self) -> ReportSpec {
        self.report.clone().unwrap_or_default()
    }

    /// Structural validation: scenario validity, positive replication
    /// count, a non-empty metric list, sane report policy.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.scenario.validate()?;
        if self.replications == 0 {
            return Err(SpecError("replications must be positive".into()));
        }
        if self.metrics.is_empty() {
            return Err(SpecError("ensemble needs at least one metric".into()));
        }
        let report = self.report_or_default();
        let level = report.level_or_default();
        if !(0.0..1.0).contains(&level) || level <= 0.0 {
            return Err(SpecError(format!(
                "confidence level {level} outside (0, 1)"
            )));
        }
        for q in report.quantiles_or_default() {
            if !(0.0..=1.0).contains(&q) {
                return Err(SpecError(format!("quantile {q} outside [0, 1]")));
            }
        }
        for m in &self.metrics {
            for &t in &m.thresholds {
                if !t.is_finite() {
                    return Err(SpecError(format!(
                        "non-finite threshold for metric '{}'",
                        m.kind.name()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Runs the ensemble: parallel trials, streaming fold, report.
    pub fn run(&self) -> Result<EnsembleReport, SpecError> {
        self.validate()?;
        let needs_max = self
            .metrics
            .iter()
            .any(|m| matches!(m.kind, MetricKind::WindowMaxLoad | MetricKind::MeanRoundMax));
        let needs_empty = self.metrics.iter().any(|m| {
            matches!(
                m.kind,
                MetricKind::MinEmptyBins | MetricKind::QuarterViolationRate
            )
        });
        let needs_legit = self
            .metrics
            .iter()
            .any(|m| m.kind == MetricKind::FirstLegitimateRound);
        let needs_weighted = self
            .metrics
            .iter()
            .any(|m| m.kind == MetricKind::WeightedWindowMaxLoad);
        let needs_capacity = self
            .metrics
            .iter()
            .any(|m| m.kind == MetricKind::CapacityViolationRate);

        // Surface factory errors (e.g. an adversary against a fault-less
        // engine) before fanning out; per-trial construction cannot fail
        // differently because only the seed varies.
        self.scenario.scenario()?;

        let kinds: Vec<MetricKind> = self.metrics.iter().map(|m| m.kind).collect();
        let tree = SeedTree::new(self.master_seed);
        let records: Vec<Vec<Option<f64>>> =
            run_trials_seeded(tree, self.replications, |_i, seed| {
                let mut scenario = self
                    .scenario
                    .scenario_seeded(seed)
                    // rbb-lint: allow(panic, reason = "the spec is validated once before the fan-out; per-seed builds cannot fail")
                    .expect("validated spec builds for every seed");
                let mut stack = ObserverStack::new();
                if needs_max {
                    stack = stack.with_max_load();
                }
                if needs_empty {
                    stack = stack.with_empty_bins();
                }
                if needs_legit {
                    stack = stack.with_legitimacy(LegitimacyThreshold::default());
                }
                if needs_weighted {
                    stack = stack.with_weighted_load();
                }
                if needs_capacity {
                    stack = stack.with_capacity();
                }
                let outcome = scenario.run_observed(&mut stack);
                kinds
                    .iter()
                    .map(|kind| match kind {
                        MetricKind::WindowMaxLoad => {
                            // rbb-lint: allow(panic, reason = "the stack enables exactly the observers the requested statistics need, built above")
                            Some(stack.max_load.as_ref().expect("enabled").window_max() as f64)
                        }
                        MetricKind::MeanRoundMax => {
                            // rbb-lint: allow(panic, reason = "the stack enables exactly the observers the requested statistics need, built above")
                            Some(stack.max_load.as_ref().expect("enabled").mean_round_max())
                        }
                        MetricKind::FinalMaxLoad => {
                            // Cheap accessor: identical to config().max_load()
                            // but O(#occupied) on sparse engines.
                            Some(scenario.engine().max_load() as f64)
                        }
                        MetricKind::MinEmptyBins => {
                            // rbb-lint: allow(panic, reason = "the stack enables exactly the observers the requested statistics need, built above")
                            Some(stack.empty_bins.as_ref().expect("enabled").min_empty() as f64)
                        }
                        MetricKind::QuarterViolationRate => {
                            // rbb-lint: allow(panic, reason = "the stack enables exactly the observers the requested statistics need, built above")
                            let t = stack.empty_bins.as_ref().expect("enabled");
                            (t.rounds() > 0)
                                .then(|| t.violations_below_quarter() as f64 / t.rounds() as f64)
                        }
                        MetricKind::FirstLegitimateRound => stack
                            .legitimacy
                            .as_ref()
                            // rbb-lint: allow(panic, reason = "the stack enables exactly the observers the requested statistics need, built above")
                            .expect("enabled")
                            .first_legitimate_round()
                            .map(|r| r as f64),
                        MetricKind::StopRound => outcome.stop_round.map(|r| r as f64),
                        MetricKind::Rounds => Some(outcome.rounds as f64),
                        MetricKind::Faults => Some(outcome.faults as f64),
                        MetricKind::WeightedWindowMaxLoad => {
                            // rbb-lint: allow(panic, reason = "the stack enables exactly the observers the requested statistics need, built above")
                            Some(stack.weighted_load.as_ref().expect("enabled").window_max() as f64)
                        }
                        MetricKind::FinalWeightedMaxLoad => {
                            Some(scenario.engine().weighted_max_load() as f64)
                        }
                        MetricKind::FinalCapacityViolations => {
                            Some(scenario.engine().capacity_violations() as f64)
                        }
                        MetricKind::CapacityViolationRate => {
                            // rbb-lint: allow(panic, reason = "the stack enables exactly the observers the requested statistics need, built above")
                            let t = stack.capacity.as_ref().expect("enabled");
                            (t.rounds() > 0)
                                .then(|| t.rounds_in_violation() as f64 / t.rounds() as f64)
                        }
                    })
                    .collect()
            });

        // Fold in trial order: the collect above is order-preserving, so
        // the accumulator state — and hence the rendered report — is
        // independent of worker count.
        let mut accs: Vec<MetricAccumulator> = self
            .metrics
            .iter()
            .map(|m| MetricAccumulator::new(m.thresholds.clone()))
            .collect();
        for record in &records {
            for (acc, &value) in accs.iter_mut().zip(record) {
                acc.push(value);
            }
        }

        let report = self.report_or_default();
        let level = report.level_or_default();
        let quantiles = report.quantiles_or_default();
        let metrics = self
            .metrics
            .iter()
            .zip(&accs)
            .map(|(m, acc)| MetricReport::from_accumulator(m, acc, level, &quantiles))
            .collect();
        Ok(EnsembleReport {
            name: self.scenario.name.clone(),
            n: self.scenario.n,
            replications: self.replications,
            master_seed: self.master_seed,
            level,
            metrics,
        })
    }
}

/// A two-sided interval in the report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IntervalReport {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

/// One reported quantile.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuantileReport {
    /// The requested quantile in `[0, 1]`.
    pub q: f64,
    /// The smallest value `v` with `P(X <= v) >= q`.
    pub value: u64,
}

/// One reported tail probability.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TailReport {
    /// The threshold `t` of `P(X >= t)`.
    pub threshold: f64,
    /// Trials with `X >= t`.
    pub exceed_count: u64,
    /// Empirical tail probability.
    pub probability: f64,
    /// Wilson score interval at the report's confidence level.
    pub wilson: IntervalReport,
}

/// Aggregated statistics for one metric.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricReport {
    /// The metric's kind name.
    pub metric: String,
    /// Trials that produced a value.
    pub count: u64,
    /// Trials that produced no value (unmet stop conditions etc.).
    pub missing: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Normal-approximation CI for the mean.
    pub mean_ci: IntervalReport,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Exact quantiles — present only while every observation was a small
    /// non-negative integer (see `rbb_stats::MetricAccumulator`).
    pub quantiles: Vec<QuantileReport>,
    /// Tail probabilities per requested threshold.
    pub tails: Vec<TailReport>,
}

impl MetricReport {
    fn from_accumulator(
        spec: &MetricSpec,
        acc: &MetricAccumulator,
        level: f64,
        quantiles: &[f64],
    ) -> Self {
        let s = acc.summary();
        let ci = mean_ci(s, level);
        let quantiles = match acc.histogram() {
            Some(h) => quantiles
                .iter()
                .map(|&q| QuantileReport {
                    q,
                    // rbb-lint: allow(panic, reason = "the histogram holds one sample per trial and trials >= 1 is validated")
                    value: h.quantile(q).expect("non-empty histogram") as u64,
                })
                .collect(),
            None => Vec::new(),
        };
        let exc = acc.exceedance();
        let tails = (0..exc.thresholds().len())
            .map(|i| TailReport {
                threshold: exc.thresholds()[i],
                exceed_count: exc.count(i),
                probability: exc.tail(i),
                wilson: exc
                    .wilson(i, level)
                    .map(|w| IntervalReport { lo: w.lo, hi: w.hi })
                    .unwrap_or(IntervalReport { lo: 0.0, hi: 1.0 }),
            })
            .collect();
        MetricReport {
            metric: spec.kind.name().to_string(),
            count: s.count(),
            missing: acc.missing(),
            mean: s.mean(),
            std_dev: s.std_dev(),
            mean_ci: IntervalReport {
                lo: ci.lo,
                hi: ci.hi,
            },
            min: if s.count() == 0 { 0.0 } else { s.min() },
            max: if s.count() == 0 { 0.0 } else { s.max() },
            quantiles,
            tails,
        }
    }

    /// The tail report for a given threshold, if requested.
    pub fn tail_at(&self, threshold: f64) -> Option<&TailReport> {
        self.tails.iter().find(|t| t.threshold == threshold)
    }
}

/// The aggregate result of an ensemble run. Serializes to the JSON report
/// `rbb ensemble` prints; see README.md for the schema.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EnsembleReport {
    /// The scenario's display name.
    pub name: Option<String>,
    /// Requested bin count.
    pub n: usize,
    /// Trials run.
    pub replications: usize,
    /// Seed-tree root.
    pub master_seed: u64,
    /// Confidence level used throughout.
    pub level: f64,
    /// Per-metric aggregates, in spec order.
    pub metrics: Vec<MetricReport>,
}

impl EnsembleReport {
    /// The report for a metric kind, if it was requested.
    pub fn metric(&self, kind: MetricKind) -> Option<&MetricReport> {
        self.metrics.iter().find(|m| m.metric == kind.name())
    }

    /// Renders the pretty-JSON report (the `rbb ensemble` stdout format).
    pub fn to_json(&self) -> String {
        // rbb-lint: allow(panic, reason = "serializing a plain data struct is infallible")
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ArrivalSpec, StartSpec};
    use rbb_core::engine::Engine;
    use rbb_core::metrics::MaxLoadTracker;
    use rbb_core::process::LoadProcess;
    use rbb_core::rng::Xoshiro256pp;

    fn small_ensemble() -> EnsembleSpec {
        let scenario = ScenarioSpec::builder(64)
            .name("unit-ensemble")
            .horizon_rounds(200)
            .build();
        EnsembleSpec::new(scenario, 0xABCD, 16).with_metrics(vec![
            MetricSpec::with_thresholds(MetricKind::WindowMaxLoad, vec![4.0, 17.0]),
            MetricSpec::plain(MetricKind::MeanRoundMax),
            MetricSpec::plain(MetricKind::MinEmptyBins),
            MetricSpec::plain(MetricKind::Rounds),
        ])
    }

    #[test]
    fn ensemble_matches_hand_rolled_trials() {
        let spec = small_ensemble();
        let report = spec.run().unwrap();

        // Hand-rolled reference: same seed derivation, same engine.
        let tree = SeedTree::new(0xABCD);
        let maxes: Vec<u32> = (0..16)
            .map(|i| {
                let seed = tree.trial(i);
                let mut p = LoadProcess::new(
                    rbb_core::config::Config::one_per_bin(64),
                    Xoshiro256pp::seed_from(seed),
                );
                let mut t = MaxLoadTracker::new();
                p.run(200, &mut t);
                t.window_max()
            })
            .collect();
        let wml = report.metric(MetricKind::WindowMaxLoad).unwrap();
        assert_eq!(wml.count, 16);
        assert_eq!(wml.missing, 0);
        let mean = maxes.iter().map(|&m| m as f64).sum::<f64>() / 16.0;
        assert!((wml.mean - mean).abs() < 1e-12);
        assert_eq!(wml.max as u32, *maxes.iter().max().unwrap());
        let exceed_17 = maxes.iter().filter(|&&m| m >= 17).count() as u64;
        assert_eq!(wml.tail_at(17.0).unwrap().exceed_count, exceed_17);
        // Every trial's window max is >= 4 from a one-per-bin start... not
        // guaranteed a priori, but the tail at 4 must match the raw count.
        let exceed_4 = maxes.iter().filter(|&&m| m >= 4).count() as u64;
        assert_eq!(wml.tail_at(4.0).unwrap().exceed_count, exceed_4);
    }

    #[test]
    fn report_is_deterministic_and_quantiles_are_exact() {
        let spec = small_ensemble();
        let a = spec.run().unwrap();
        let b = spec.run().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());

        let wml = a.metric(MetricKind::WindowMaxLoad).unwrap();
        assert_eq!(wml.quantiles.len(), 3); // integer metric: p50/p90/p99
        let mrm = a.metric(MetricKind::MeanRoundMax).unwrap();
        assert!(
            mrm.quantiles.is_empty(),
            "fractional metric has no exact quantiles"
        );
        let rounds = a.metric(MetricKind::Rounds).unwrap();
        assert_eq!(rounds.mean, 200.0);
        assert_eq!(rounds.std_dev, 0.0);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let spec = small_ensemble();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: EnsembleSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // Defaults: missing report and thresholds parse as empty.
        let sparse = r#"{
            "scenario": {
                "n": 16,
                "start": {"kind": "one-per-bin"},
                "arrival": {"kind": "uniform"},
                "topology": {"kind": "complete"},
                "horizon": {"kind": "rounds", "rounds": 50},
                "stop": "horizon",
                "seed": 1
            },
            "master_seed": 7,
            "replications": 4,
            "metrics": [{"kind": "window-max-load"}]
        }"#;
        let e: EnsembleSpec = serde_json::from_str(sparse).unwrap();
        assert_eq!(e.replications, 4);
        assert!(e.metrics[0].thresholds.is_empty());
        assert_eq!(e.report_or_default().level_or_default(), 0.95);
        e.run().unwrap();
    }

    #[test]
    fn validation_rejects_bad_ensembles() {
        let good = small_ensemble();
        let mut zero_reps = good.clone();
        zero_reps.replications = 0;
        assert!(zero_reps.validate().is_err());
        let mut no_metrics = good.clone();
        no_metrics.metrics.clear();
        assert!(no_metrics.validate().is_err());
        let mut bad_level = good.clone();
        bad_level.report = Some(ReportSpec {
            level: Some(1.5),
            quantiles: None,
        });
        assert!(bad_level.validate().is_err());
        let mut bad_q = good.clone();
        bad_q.report = Some(ReportSpec {
            level: None,
            quantiles: Some(vec![1.2]),
        });
        assert!(bad_q.validate().is_err());
        let mut bad_scenario = good.clone();
        bad_scenario.scenario.n = 1;
        assert!(bad_scenario.validate().is_err());
        let mut bad_threshold = good;
        bad_threshold.metrics[0].thresholds.push(f64::NAN);
        assert!(bad_threshold.validate().is_err());
    }

    #[test]
    fn unknown_metric_kind_is_a_parse_error() {
        let bad = r#"{"kind": "window-min-load"}"#;
        assert!(serde_json::from_str::<MetricSpec>(bad).is_err());
    }

    #[test]
    fn missing_metrics_count_unmet_stop_conditions() {
        // A stop condition that cannot be met within the horizon: legitimacy
        // from an all-in-one start in 2 rounds at n = 64.
        let scenario = ScenarioSpec::builder(64)
            .start(StartSpec::AllInOne)
            .stop(crate::spec::StopSpec::Legitimate)
            .horizon_rounds(2)
            .build();
        let report = EnsembleSpec::new(scenario, 5, 6)
            .with_metrics(vec![MetricSpec::plain(MetricKind::StopRound)])
            .run()
            .unwrap();
        let sr = report.metric(MetricKind::StopRound).unwrap();
        assert_eq!(sr.count + sr.missing, 6);
        assert_eq!(sr.missing, 6, "2 rounds cannot drain bin 0 at n=64");
    }

    #[test]
    fn quarter_violation_rate_is_a_rate() {
        let scenario = ScenarioSpec::builder(32).horizon_rounds(100).build();
        let report = EnsembleSpec::new(scenario, 11, 8)
            .with_metrics(vec![MetricSpec::plain(MetricKind::QuarterViolationRate)])
            .run()
            .unwrap();
        let r = report.metric(MetricKind::QuarterViolationRate).unwrap();
        assert!(r.mean >= 0.0 && r.mean <= 1.0);
        assert_eq!(r.count, 8);
    }

    #[test]
    fn ensemble_runs_tetris_and_dchoice_scenarios() {
        for arrival in [ArrivalSpec::Tetris, ArrivalSpec::DChoice { d: 2 }] {
            let scenario = ScenarioSpec::builder(32)
                .arrival(arrival)
                .horizon_rounds(64)
                .build();
            let report = EnsembleSpec::new(scenario, 3, 4).run().unwrap();
            assert_eq!(report.metrics.len(), 2);
        }
    }

    #[test]
    fn weighted_metric_names_round_trip() {
        for kind in MetricKind::all() {
            let json = serde_json::to_string(&kind).unwrap();
            assert_eq!(json, format!("\"{}\"", kind.name()), "{kind:?}");
            assert_eq!(serde_json::from_str::<MetricKind>(&json).unwrap(), kind);
        }
    }

    #[test]
    fn weighted_ensemble_reports_weighted_statistics() {
        use crate::spec::{CapacitiesSpec, WeightsSpec};
        let scenario = ScenarioSpec::builder(64)
            .weights(WeightsSpec::Zipf {
                s: 1.0,
                w_max: Some(16),
            })
            .capacities(CapacitiesSpec::Uniform { c: 4 })
            .start(StartSpec::AllInOne)
            .balls(64)
            .horizon_rounds(150)
            .build();
        let report = EnsembleSpec::new(scenario, 21, 6)
            .with_metrics(vec![
                MetricSpec::plain(MetricKind::WindowMaxLoad),
                MetricSpec::plain(MetricKind::WeightedWindowMaxLoad),
                MetricSpec::plain(MetricKind::FinalWeightedMaxLoad),
                MetricSpec::plain(MetricKind::FinalCapacityViolations),
                MetricSpec::plain(MetricKind::CapacityViolationRate),
            ])
            .run()
            .unwrap();
        let unit = report.metric(MetricKind::WindowMaxLoad).unwrap();
        let weighted = report.metric(MetricKind::WeightedWindowMaxLoad).unwrap();
        // Weighted mass dominates ball counts under a non-unit skew.
        assert!(weighted.mean >= unit.mean);
        assert_eq!(weighted.count, 6);
        let final_w = report.metric(MetricKind::FinalWeightedMaxLoad).unwrap();
        assert!(final_w.mean >= 1.0);
        // A 16-weight ball against capacity 4: violations are structural.
        let rate = report.metric(MetricKind::CapacityViolationRate).unwrap();
        assert!(rate.mean > 0.0 && rate.mean <= 1.0);
        let final_v = report.metric(MetricKind::FinalCapacityViolations).unwrap();
        assert!(final_v.mean >= 1.0, "the heavy ball always violates c=4");
    }

    #[test]
    fn weighted_metrics_on_unit_scenarios_degenerate_to_unit_values() {
        let scenario = ScenarioSpec::builder(64).horizon_rounds(100).build();
        let report = EnsembleSpec::new(scenario, 13, 5)
            .with_metrics(vec![
                MetricSpec::plain(MetricKind::WindowMaxLoad),
                MetricSpec::plain(MetricKind::WeightedWindowMaxLoad),
                MetricSpec::plain(MetricKind::FinalMaxLoad),
                MetricSpec::plain(MetricKind::FinalWeightedMaxLoad),
                MetricSpec::plain(MetricKind::FinalCapacityViolations),
            ])
            .run()
            .unwrap();
        let unit = report.metric(MetricKind::WindowMaxLoad).unwrap();
        let weighted = report.metric(MetricKind::WeightedWindowMaxLoad).unwrap();
        assert_eq!(unit.mean, weighted.mean);
        assert_eq!(
            report.metric(MetricKind::FinalMaxLoad).unwrap().mean,
            report
                .metric(MetricKind::FinalWeightedMaxLoad)
                .unwrap()
                .mean
        );
        assert_eq!(
            report
                .metric(MetricKind::FinalCapacityViolations)
                .unwrap()
                .mean,
            0.0
        );
    }

    #[test]
    fn trial_seeds_match_the_experiment_suite_convention() {
        // The documented migration contract: master_seed = a scoped tree's
        // master reproduces that scope's run_trials_seeded seeds.
        let scope = SeedTree::new(99).scope("n128");
        let via_ensemble = SeedTree::new(scope.master());
        for i in 0..5 {
            assert_eq!(via_ensemble.trial(i), scope.trial(i));
        }
    }
}
