//! # rbb-bench — throughput measurement
//!
//! Two entry points:
//!
//! * **`rbb-bench` binary** (`src/main.rs`) — the repo's perf gate: warmup +
//!   repetition + median-throughput measurements of the hot paths (engines,
//!   Tetris, traversal, graph walks, trial scheduler), emitted as a
//!   machine-readable `BENCH.json` (see [`BenchReport`]) and consumed by
//!   `ci.sh` as a compile-and-smoke gate with a minimum engine-speedup
//!   threshold.
//! * **criterion bench targets** (`benches/`): `engine` (load vs identity
//!   engines), `tetris`, `samplers` (+ PRNG ablation),
//!   `graphs`, `traversal` (+ bitset ablation), `baselines`, `strategies`
//!   (FIFO/LIFO/random ablation). Run with `cargo bench -p rbb-bench`.
//!
//! This library holds the measurement harness and the `BENCH.json` schema so
//! both stay unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Version of the `BENCH.json` schema emitted by [`BenchReport::to_json`].
/// Bump on any breaking change to the report shape.
/// v2: added the interleaved `engine/weighted-unit` /
/// `engine/weighted-unit-baseline` pair and the
/// `engine_rounds_per_sec_weighted_unit{,_baseline}` +
/// `engine_ratio_weighted_unit_vs_batched` derived fields.
pub const SCHEMA_VERSION: u32 = 2;

/// One measured benchmark: `reps` timed iterations after `warmup` untimed
/// ones, summarized by min/median/mean nanoseconds per iteration and the
/// median-derived throughput.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchResult {
    /// Unique benchmark name, `group/variant` by convention.
    pub name: String,
    /// Logical group (e.g. `engine`), used for derived cross-variant ratios.
    pub group: String,
    /// Problem size (bins, vertices, or grid width — see `unit`).
    pub n: u64,
    /// Work items performed per timed iteration (rounds, steps, trials).
    pub items_per_iter: u64,
    /// What one work item is: the throughput unit is `<unit>/s`.
    pub unit: String,
    /// Number of timed repetitions the summary is computed from.
    pub reps: usize,
    /// Fastest repetition, in nanoseconds per iteration.
    pub min_ns: f64,
    /// Median repetition, in nanoseconds per iteration — the headline
    /// number (robust to one-off scheduling noise).
    pub median_ns: f64,
    /// Mean over repetitions, in nanoseconds per iteration.
    pub mean_ns: f64,
    /// `items_per_iter / median_seconds` — the headline throughput.
    pub throughput_per_sec: f64,
    /// For the primary side of a [`measure_paired`] run: the median over
    /// reps of the per-rep throughput ratio against the partner routine
    /// (`partner_ns[i] / self_ns[i]`). Adjacent-in-time reps see the same
    /// machine drift, so this is far tighter than the ratio of the two
    /// medians; tight gates read this. `None` for single measurements and
    /// for the partner side.
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
    /// Throughput unit (`rounds`, `steps`, `trials`, ...).
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

/// Median of a non-empty sample (mean of the middle two for even sizes).
/// Thin wrapper over [`rbb_stats::median`] so the bench summary can never
/// diverge from the stats crate's definition.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    rbb_stats::median(samples)
}

/// Summarizes timed samples into a [`BenchResult`] (median-derived
/// throughput, min/median/mean ns).
fn summarize(spec: Spec, samples_ns: &[f64]) -> BenchResult {
    let median_ns = median(samples_ns);
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

/// Times `routine`: `warmup` untimed iterations (cache/branch-predictor
/// warm-up and, for the engines, burn-in to the stationary load profile),
/// then `reps` timed iterations summarized into a [`BenchResult`].
pub fn measure(spec: Spec, warmup: usize, reps: usize, mut routine: impl FnMut()) -> BenchResult {
    let reps = reps.max(1);
    for _ in 0..warmup {
        routine();
    }
    let mut samples_ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        routine();
        samples_ns.push(start.elapsed().as_secs_f64() * 1e9);
    }
    summarize(spec, &samples_ns)
}

/// Times two routines interleaved (a, b, a, b, …), warmup and timed reps
/// alike, summarizing each side as its own [`BenchResult`].
///
/// On a machine with drifting background load, two *separately* measured
/// medians can disagree by tens of percent even for identical code, which
/// swamps any tight ratio gate. Interleaving exposes both sides to the same
/// drift, so their median ratio stays meaningful at the few-percent scale.
/// Use this for neutrality gates (e.g. the weighted-unit ≤ 5% budget);
/// independent [`measure`] calls are fine for order-of-magnitude speedups.
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
    // Per-rep ratios pair each timing with its in-time neighbor, so machine
    // drift cancels rep by rep instead of only in aggregate.
    let ratios: Vec<f64> = samples_a
        .iter()
        .zip(&samples_b)
        .map(|(&a, &b)| if a > 0.0 { b / a } else { 0.0 })
        .collect();
    let mut result_a = summarize(spec_a, &samples_a);
    result_a.paired_ratio = Some(median(&ratios));
    (result_a, summarize(spec_b, &samples_b))
}

/// Cross-benchmark numbers derived from the raw measurements. `None` fields
/// render as JSON `null` when the contributing benchmarks were filtered out.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Derived {
    /// Median throughput of `engine/scalar` (the scalar reference round,
    /// `rbb_core::load::reference_round`, at one stream), in rounds/sec.
    pub engine_rounds_per_sec_scalar: Option<f64>,
    /// Median throughput of `engine/batched` (the dense engine's round), in
    /// rounds/sec.
    pub engine_rounds_per_sec_batched: Option<f64>,
    /// `batched / scalar` — the perf-gate headline; `ci.sh` enforces a
    /// minimum via `--min-engine-speedup`.
    pub engine_speedup_batched_vs_scalar: Option<f64>,
    /// Median throughput of `engine/sparse` (the sparse occupancy engine at
    /// `m/n ≤ 1/64`), in rounds/sec.
    pub engine_rounds_per_sec_sparse: Option<f64>,
    /// Median throughput of `engine/sparse-baseline` (the dense engine on
    /// the same `(n, m)` workload), in rounds/sec.
    pub engine_rounds_per_sec_sparse_baseline: Option<f64>,
    /// `sparse / sparse-baseline` — the sparse-regime gate; `ci.sh`
    /// enforces a minimum via `--min-sparse-speedup`.
    pub engine_speedup_sparse_vs_dense: Option<f64>,
    /// Median throughput of `engine/sharded` (the sharded engine, large
    /// dense regime), in rounds/sec.
    pub engine_rounds_per_sec_sharded: Option<f64>,
    /// Median throughput of `engine/sharded-baseline` (the dense engine on
    /// the same workload), in rounds/sec.
    pub engine_rounds_per_sec_sharded_baseline: Option<f64>,
    /// `sharded / sharded-baseline` — the sharded-engine gate; `ci.sh`
    /// enforces a minimum via `--min-sharded-speedup` when the machine has
    /// at least as many cores as the benchmark has shards (the ratio is
    /// always recorded, so single-core CI still tracks the trajectory).
    pub engine_speedup_sharded_vs_dense: Option<f64>,
    /// Median throughput of `engine/weighted-unit` (the dense engine built
    /// through the weighted constructor with all-ones weights — the unit
    /// fast path), in rounds/sec.
    pub engine_rounds_per_sec_weighted_unit: Option<f64>,
    /// Median throughput of `engine/weighted-unit-baseline` (the plain
    /// batched engine on the identical workload, measured interleaved with
    /// `engine/weighted-unit` via [`measure_paired`]), in rounds/sec.
    pub engine_rounds_per_sec_weighted_unit_baseline: Option<f64>,
    /// `weighted-unit / weighted-unit-baseline` — the weighted-layer
    /// neutrality gate; `ci.sh` enforces a minimum via
    /// `--min-weighted-unit-ratio` (0.95 ⇒ the unit-weight fast path may
    /// regress at most 5% against the batched kernel). The baseline is the
    /// `engine/batched` kernel re-measured interleaved with the weighted
    /// side, and the ratio is the per-rep paired median
    /// ([`BenchResult::paired_ratio`]), falling back to the ratio of the
    /// two medians — two independently measured medians drift by far more
    /// than the 5% budget on a shared machine.
    pub engine_ratio_weighted_unit_vs_batched: Option<f64>,
}

impl Derived {
    /// Computes the derived metrics from the measured set.
    pub fn from_results(results: &[BenchResult]) -> Self {
        let throughput = |name: &str| {
            results
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.throughput_per_sec)
        };
        let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
            (Some(x), Some(y)) if y > 0.0 => Some(x / y),
            _ => None,
        };
        let scalar = throughput("engine/scalar");
        let batched = throughput("engine/batched");
        let sparse = throughput("engine/sparse");
        let sparse_baseline = throughput("engine/sparse-baseline");
        let sharded = throughput("engine/sharded");
        let sharded_baseline = throughput("engine/sharded-baseline");
        let weighted_unit = throughput("engine/weighted-unit");
        let weighted_unit_baseline = throughput("engine/weighted-unit-baseline");
        let weighted_unit_paired = results
            .iter()
            .find(|r| r.name == "engine/weighted-unit")
            .and_then(|r| r.paired_ratio);
        Self {
            engine_rounds_per_sec_scalar: scalar,
            engine_rounds_per_sec_batched: batched,
            engine_speedup_batched_vs_scalar: ratio(batched, scalar),
            engine_rounds_per_sec_sparse: sparse,
            engine_rounds_per_sec_sparse_baseline: sparse_baseline,
            engine_speedup_sparse_vs_dense: ratio(sparse, sparse_baseline),
            engine_rounds_per_sec_sharded: sharded,
            engine_rounds_per_sec_sharded_baseline: sharded_baseline,
            engine_speedup_sharded_vs_dense: ratio(sharded, sharded_baseline),
            engine_rounds_per_sec_weighted_unit: weighted_unit,
            engine_rounds_per_sec_weighted_unit_baseline: weighted_unit_baseline,
            engine_ratio_weighted_unit_vs_batched: weighted_unit_paired
                .or_else(|| ratio(weighted_unit, weighted_unit_baseline)),
        }
    }
}

/// The `BENCH.json` document: schema version, run configuration, raw
/// measurements, and derived ratios. Timings are wall-clock and
/// machine-dependent; comparisons are only meaningful against a baseline
/// captured on the same machine (which is exactly how `ci.sh` uses the
/// batched-vs-scalar speedup — both sides run in the same process).
#[derive(Debug, Clone, serde::Serialize)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Unix timestamp (seconds) the run finished.
    pub generated_unix: u64,
    /// Whether this was a `--quick` smoke run (smaller sizes, fewer reps).
    pub quick: bool,
    /// Worker threads the scheduler benchmarks used.
    pub threads: usize,
    /// Untimed warmup iterations per benchmark.
    pub warmup_iters: usize,
    /// Timed repetitions per benchmark.
    pub reps: usize,
    /// Master seed the benchmark processes were constructed from.
    pub seed: u64,
    /// The raw measurements.
    pub benchmarks: Vec<BenchResult>,
    /// Cross-benchmark ratios.
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
        Spec::new("engine/scalar", "engine", 64, 10, "rounds")
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn measure_runs_warmup_plus_reps_and_is_positive() {
        let mut calls = 0usize;
        let r = measure(spec(), 3, 7, || {
            calls += 1;
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert_eq!(calls, 10);
        assert_eq!(r.reps, 7);
        assert!(r.min_ns > 0.0 && r.min_ns <= r.median_ns);
        assert!(r.throughput_per_sec > 0.0);
        assert_eq!(r.items_per_iter, 10);
    }

    #[test]
    fn measure_clamps_zero_reps_to_one() {
        let r = measure(spec(), 0, 0, || {});
        assert_eq!(r.reps, 1);
    }

    #[test]
    fn derived_speedup_from_engine_pair() {
        let mut scalar = measure(spec(), 0, 1, || {});
        scalar.throughput_per_sec = 100.0;
        let mut batched = scalar.clone();
        batched.name = "engine/batched".into();
        batched.throughput_per_sec = 250.0;
        let d = Derived::from_results(&[scalar, batched]);
        assert_eq!(d.engine_rounds_per_sec_scalar, Some(100.0));
        assert_eq!(d.engine_speedup_batched_vs_scalar, Some(2.5));
    }

    #[test]
    fn derived_sparse_speedup_from_pair() {
        let mut sparse = measure(spec(), 0, 1, || {});
        sparse.name = "engine/sparse".into();
        sparse.throughput_per_sec = 900.0;
        let mut baseline = sparse.clone();
        baseline.name = "engine/sparse-baseline".into();
        baseline.throughput_per_sec = 100.0;
        let d = Derived::from_results(&[sparse, baseline]);
        assert_eq!(d.engine_speedup_sparse_vs_dense, Some(9.0));
        assert_eq!(d.engine_speedup_batched_vs_scalar, None);
    }

    #[test]
    fn derived_sharded_speedup_from_pair() {
        let mut sharded = measure(spec(), 0, 1, || {});
        sharded.name = "engine/sharded".into();
        sharded.throughput_per_sec = 300.0;
        let mut baseline = sharded.clone();
        baseline.name = "engine/sharded-baseline".into();
        baseline.throughput_per_sec = 100.0;
        let d = Derived::from_results(&[sharded, baseline]);
        assert_eq!(d.engine_speedup_sharded_vs_dense, Some(3.0));
        assert_eq!(d.engine_rounds_per_sec_sharded, Some(300.0));
        assert_eq!(d.engine_speedup_sparse_vs_dense, None);
    }

    #[test]
    fn derived_weighted_unit_ratio_from_pair() {
        let mut baseline = measure(spec(), 0, 1, || {});
        baseline.name = "engine/weighted-unit-baseline".into();
        baseline.throughput_per_sec = 200.0;
        let mut weighted = baseline.clone();
        weighted.name = "engine/weighted-unit".into();
        weighted.throughput_per_sec = 190.0;
        assert_eq!(weighted.paired_ratio, None);
        let d = Derived::from_results(&[baseline.clone(), weighted.clone()]);
        assert_eq!(d.engine_rounds_per_sec_weighted_unit, Some(190.0));
        assert_eq!(d.engine_rounds_per_sec_weighted_unit_baseline, Some(200.0));
        // No per-rep paired ratio recorded → fall back to the median ratio.
        assert_eq!(d.engine_ratio_weighted_unit_vs_batched, Some(0.95));
        // The pair is independent of both the scalar side and the
        // standalone engine/batched entry.
        assert_eq!(d.engine_speedup_batched_vs_scalar, None);
        // A recorded paired ratio wins over the ratio of medians.
        weighted.paired_ratio = Some(0.99);
        let d = Derived::from_results(&[baseline, weighted]);
        assert_eq!(d.engine_ratio_weighted_unit_vs_batched, Some(0.99));
    }

    #[test]
    fn measure_paired_interleaves_and_summarizes_both_sides() {
        let order = std::cell::RefCell::new(String::new());
        let spec_b = Spec::new("engine/b", "engine", 64, 10, "rounds");
        let (ra, rb) = measure_paired(
            spec(),
            spec_b,
            2,
            5,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(ra.reps, 5);
        assert_eq!(rb.reps, 5);
        assert!(ra.min_ns >= 0.0 && rb.min_ns >= 0.0);
        assert_eq!(rb.name, "engine/b");
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
        // ...and the nulls survive serialization.
        let v = serde::Serialize::serialize(&d);
        let text = serde_json::to_string(&v).unwrap();
        assert!(text.contains("\"engine_speedup_batched_vs_scalar\":null"));
    }

    #[test]
    fn report_renders_schema_fields() {
        let results = vec![measure(spec(), 0, 2, || {})];
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
            "\"schema_version\": 2",
            "\"benchmarks\"",
            "\"median_ns\"",
            "\"throughput_per_sec\"",
            "\"derived\"",
            "\"unit\": \"rounds\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }
}
