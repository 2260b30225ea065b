//! # rbb-bench — the ratio gates behind `ci.sh`
//!
//! The `rbb-bench` binary (`src/main.rs`) times four pairs of load-engine
//! kernels, each pair interleaved by [`measure_paired`], and gates on their
//! paired ratios: the dense round against the scalar reference round,
//! sparse against dense storage at `m ≪ n`, sharded against dense storage
//! at large `n`, and the unit-weight path of the weighted constructor
//! against the plain engine. It writes a machine-readable `BENCH.json` (see
//! [`BenchReport`]). End-to-end and per-layer numbers live in `perfbench/`.
//!
//! This library holds the measurement harness and the `BENCH.json` schema so
//! both stay unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Version of the `BENCH.json` schema emitted by [`BenchReport::to_json`].
/// Bump on any breaking change to the report shape.
/// v2: added the interleaved `engine/weighted-unit` /
/// `engine/weighted-unit-baseline` pair and its derived ratio.
/// v3: `benchmarks[]` holds exactly the four gated pairs, each timed
/// interleaved; `derived` holds only their four paired ratios.
pub const SCHEMA_VERSION: u32 = 3;

/// One measured benchmark: `reps` timed iterations after `warmup` untimed
/// ones, summarized by min/median/mean nanoseconds per iteration and the
/// median-derived throughput.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchResult {
    /// Unique benchmark name, `group/variant` by convention.
    pub name: String,
    /// Logical group (e.g. `engine`).
    pub group: String,
    /// Problem size (bins).
    pub n: u64,
    /// Work items performed per timed iteration (rounds).
    pub items_per_iter: u64,
    /// What one work item is: the throughput unit is `<unit>/s`.
    pub unit: String,
    /// Number of timed repetitions the summary is computed from.
    pub reps: usize,
    /// Fastest repetition, in nanoseconds per iteration.
    pub min_ns: f64,
    /// Median repetition, in nanoseconds per iteration.
    pub median_ns: f64,
    /// Mean over repetitions, in nanoseconds per iteration.
    pub mean_ns: f64,
    /// `items_per_iter / median_seconds`.
    pub throughput_per_sec: f64,
    /// For the primary side of a pair: the median over reps of the per-rep
    /// throughput ratio against the partner routine (`partner_ns[i] /
    /// self_ns[i]`). Adjacent-in-time reps see the same machine drift, so
    /// this is far tighter than the ratio of the two medians; the gates
    /// read this. `None` for the partner side.
    pub paired_ratio: Option<f64>,
}

/// Identification half of a benchmark: everything except the timings.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Unique benchmark name, `group/variant` by convention.
    pub name: String,
    /// Logical group.
    pub group: String,
    /// Problem size.
    pub n: u64,
    /// Work items per timed iteration.
    pub items_per_iter: u64,
    /// Throughput unit (`rounds`).
    pub unit: String,
}

impl Spec {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        group: impl Into<String>,
        n: u64,
        items_per_iter: u64,
        unit: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            group: group.into(),
            n,
            items_per_iter,
            unit: unit.into(),
        }
    }
}

/// Summarizes timed samples into a [`BenchResult`] (median-derived
/// throughput, min/median/mean ns).
fn summarize(spec: Spec, samples_ns: &[f64]) -> BenchResult {
    let median_ns = rbb_stats::median(samples_ns);
    let min_ns = samples_ns.iter().copied().fold(f64::INFINITY, f64::min);
    let mean_ns = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
    BenchResult {
        throughput_per_sec: if median_ns > 0.0 {
            spec.items_per_iter as f64 * 1e9 / median_ns
        } else {
            0.0
        },
        name: spec.name,
        group: spec.group,
        n: spec.n,
        items_per_iter: spec.items_per_iter,
        unit: spec.unit,
        reps: samples_ns.len(),
        min_ns,
        median_ns,
        mean_ns,
        paired_ratio: None,
    }
}

/// Times two routines interleaved (a, b, a, b, …): `warmup` untimed pairs
/// (cache warm-up and, for the engines, burn-in to the stationary load
/// profile), then `reps` timed pairs (at least one), each side summarized
/// as its own [`BenchResult`]. The first carries the paired ratio.
///
/// On a machine with drifting background load, two *separately* measured
/// medians can disagree by tens of percent even for identical code, which
/// swamps a ratio gate. Interleaving exposes both sides to the same drift,
/// and the per-rep ratio cancels it rep by rep.
pub fn measure_paired(
    spec_a: Spec,
    spec_b: Spec,
    warmup: usize,
    reps: usize,
    mut routine_a: impl FnMut(),
    mut routine_b: impl FnMut(),
) -> (BenchResult, BenchResult) {
    let reps = reps.max(1);
    for _ in 0..warmup {
        routine_a();
        routine_b();
    }
    let mut samples_a = Vec::with_capacity(reps);
    let mut samples_b = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        routine_a();
        samples_a.push(start.elapsed().as_secs_f64() * 1e9);
        let start = Instant::now();
        routine_b();
        samples_b.push(start.elapsed().as_secs_f64() * 1e9);
    }
    let ratios: Vec<f64> = samples_a
        .iter()
        .zip(&samples_b)
        .map(|(&a, &b)| if a > 0.0 { b / a } else { 0.0 })
        .collect();
    let mut result_a = summarize(spec_a, &samples_a);
    result_a.paired_ratio = Some(rbb_stats::median(&ratios));
    (result_a, summarize(spec_b, &samples_b))
}

/// The four gated ratios, each the [`BenchResult::paired_ratio`] of one
/// pair's primary side. A field renders as JSON `null` when `--only`
/// filtered its pair out.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Derived {
    /// `engine/batched` (the dense engine's round) vs `engine/scalar` (the
    /// scalar reference round, `rbb_core::load::reference_round`, at one
    /// stream); `ci.sh` enforces `--min-engine-speedup`.
    pub engine_speedup_batched_vs_scalar: Option<f64>,
    /// `engine/sparse` (sparse storage at `m/n ≤ 1/64`) vs
    /// `engine/sparse-baseline` (dense storage, same workload); `ci.sh`
    /// enforces `--min-sparse-speedup`.
    pub engine_speedup_sparse_vs_dense: Option<f64>,
    /// `engine/sharded` (sharded storage, large dense regime) vs
    /// `engine/sharded-baseline` (dense storage, same workload); `ci.sh`
    /// enforces `--min-sharded-speedup` when the machine has at least as
    /// many cores as the pair has shards.
    pub engine_speedup_sharded_vs_dense: Option<f64>,
    /// `engine/weighted-unit` (the dense engine built through the weighted
    /// constructor with all-ones weights) vs `engine/weighted-unit-baseline`
    /// (the plain engine, same workload); `ci.sh` enforces
    /// `--min-weighted-unit-ratio` (0.95 ⇒ at most 5% overhead).
    pub engine_ratio_weighted_unit_vs_batched: Option<f64>,
}

impl Derived {
    /// Reads each pair's paired ratio off its primary side.
    pub fn from_results(results: &[BenchResult]) -> Self {
        let paired = |name: &str| {
            results
                .iter()
                .find(|r| r.name == name)
                .and_then(|r| r.paired_ratio)
        };
        Self {
            engine_speedup_batched_vs_scalar: paired("engine/batched"),
            engine_speedup_sparse_vs_dense: paired("engine/sparse"),
            engine_speedup_sharded_vs_dense: paired("engine/sharded"),
            engine_ratio_weighted_unit_vs_batched: paired("engine/weighted-unit"),
        }
    }
}

/// The `BENCH.json` document: schema version, run configuration, raw
/// measurements, and the gated ratios. Timings are wall-clock and
/// machine-dependent; the ratios compare two kernels timed interleaved in
/// one process, so they travel better than the raw numbers.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Unix timestamp (seconds) the run finished.
    pub generated_unix: u64,
    /// Whether this was a `--quick` smoke run (smaller sizes, fewer reps).
    pub quick: bool,
    /// Worker threads available to the sharded engine's round driver.
    pub threads: usize,
    /// Untimed warmup pairs per benchmark pair.
    pub warmup_iters: usize,
    /// Timed repetitions per benchmark.
    pub reps: usize,
    /// Master seed the benchmark processes were constructed from.
    pub seed: u64,
    /// The raw measurements, two per pair.
    pub benchmarks: Vec<BenchResult>,
    /// The gated ratios.
    pub derived: Derived,
}

impl BenchReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report is always renderable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::new("engine/batched", "engine", 64, 10, "rounds")
    }

    fn partner() -> Spec {
        Spec::new("engine/scalar", "engine", 64, 10, "rounds")
    }

    /// A measured primary side renamed to `name`, with its paired ratio
    /// overwritten.
    fn primary(name: &str, paired_ratio: f64) -> BenchResult {
        let (mut r, _) = measure_paired(spec(), partner(), 0, 1, || {}, || {});
        r.name = name.into();
        r.paired_ratio = Some(paired_ratio);
        r
    }

    #[test]
    fn measure_runs_warmup_plus_reps_and_is_positive() {
        let (mut calls_a, mut calls_b) = (0usize, 0usize);
        let work = || std::hint::black_box((0..100).sum::<u64>());
        let (a, b) = measure_paired(
            spec(),
            partner(),
            3,
            7,
            || {
                calls_a += 1;
                work();
            },
            || {
                calls_b += 1;
                work();
            },
        );
        assert_eq!((calls_a, calls_b), (10, 10));
        for r in [&a, &b] {
            assert_eq!(r.reps, 7);
            assert!(r.min_ns > 0.0 && r.min_ns <= r.median_ns);
            assert!(r.throughput_per_sec > 0.0);
            assert_eq!(r.items_per_iter, 10);
        }
    }

    #[test]
    fn measure_clamps_zero_reps_to_one() {
        let (a, b) = measure_paired(spec(), partner(), 0, 0, || {}, || {});
        assert_eq!((a.reps, b.reps), (1, 1));
    }

    #[test]
    fn derived_speedup_from_engine_pair() {
        let batched = primary("engine/batched", 2.5);
        let d = Derived::from_results(&[batched]);
        assert_eq!(d.engine_speedup_batched_vs_scalar, Some(2.5));
        assert_eq!(d.engine_speedup_sparse_vs_dense, None);
    }

    #[test]
    fn derived_sparse_speedup_from_pair() {
        let sparse = primary("engine/sparse", 9.0);
        let d = Derived::from_results(&[sparse]);
        assert_eq!(d.engine_speedup_sparse_vs_dense, Some(9.0));
        assert_eq!(d.engine_speedup_batched_vs_scalar, None);
    }

    #[test]
    fn derived_sharded_speedup_from_pair() {
        let sharded = primary("engine/sharded", 3.0);
        let d = Derived::from_results(&[sharded]);
        assert_eq!(d.engine_speedup_sharded_vs_dense, Some(3.0));
        assert_eq!(d.engine_speedup_sparse_vs_dense, None);
    }

    #[test]
    fn derived_weighted_unit_ratio_from_pair() {
        let weighted = primary("engine/weighted-unit", 0.99);
        let mut baseline = weighted.clone();
        baseline.name = "engine/weighted-unit-baseline".into();
        baseline.paired_ratio = None;
        let d = Derived::from_results(&[weighted.clone(), baseline.clone()]);
        assert_eq!(d.engine_ratio_weighted_unit_vs_batched, Some(0.99));
        // Only the primary side's paired ratio counts: a result without one
        // reports nothing rather than a ratio of two medians.
        let mut unpaired = weighted;
        unpaired.paired_ratio = None;
        let d = Derived::from_results(&[unpaired, baseline]);
        assert_eq!(d.engine_ratio_weighted_unit_vs_batched, None);
    }

    #[test]
    fn measure_paired_interleaves_and_summarizes_both_sides() {
        let order = std::cell::RefCell::new(String::new());
        let (ra, rb) = measure_paired(
            spec(),
            partner(),
            2,
            5,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(ra.reps, 5);
        assert_eq!(rb.reps, 5);
        assert!(ra.min_ns >= 0.0 && rb.min_ns >= 0.0);
        assert_eq!(rb.name, "engine/scalar");
        // The primary side carries the per-rep paired ratio, the partner
        // side does not.
        assert!(ra.paired_ratio.is_some_and(|r| r > 0.0));
        assert_eq!(rb.paired_ratio, None);
        // 2 warmup + 5 timed on each side, strictly alternating.
        assert_eq!(*order.borrow(), "ab".repeat(7));
    }

    #[test]
    fn derived_is_null_when_engines_filtered_out() {
        let d = Derived::from_results(&[]);
        assert_eq!(d.engine_speedup_batched_vs_scalar, None);
        assert_eq!(d.engine_speedup_sparse_vs_dense, None);
        assert_eq!(d.engine_speedup_sharded_vs_dense, None);
        assert_eq!(d.engine_ratio_weighted_unit_vs_batched, None);
        // ...and the nulls survive serialization.
        let v = serde::Serialize::serialize(&d);
        let text = serde_json::to_string(&v).unwrap();
        assert!(text.contains("\"engine_speedup_batched_vs_scalar\":null"));
    }

    #[test]
    fn report_renders_schema_fields() {
        let (a, b) = measure_paired(spec(), partner(), 0, 2, || {}, || {});
        let results = vec![a, b];
        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            generated_unix: 0,
            quick: true,
            threads: 1,
            warmup_iters: 0,
            reps: 2,
            seed: 42,
            derived: Derived::from_results(&results),
            benchmarks: results,
        };
        let json = report.to_json();
        for key in [
            "\"schema_version\": 3",
            "\"benchmarks\"",
            "\"median_ns\"",
            "\"throughput_per_sec\"",
            "\"paired_ratio\"",
            "\"derived\"",
            "\"engine_speedup_batched_vs_scalar\"",
            "\"unit\": \"rounds\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }
}
