//! What every workload is given and what it hands back.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use rbb_core::engine::Engine;
use rbb_core::metrics::ObserverStack;

use crate::estimate::median;
use crate::trace::Tracer;

/// Run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Scratch directory for generated specs and the daemon's socket.
    pub work_dir: PathBuf,
    /// The `rbb-serve` executable.
    pub serve_bin: Option<PathBuf>,
    /// Reduced sizes, for the benchmark's own tests.
    pub smoke: bool,
}

impl Ctx {
    /// `full` normally, `smoke` in a smoke run.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Writes a generated input into the work directory.
    pub fn write_input(&self, name: &str, text: &str) -> Result<PathBuf, String> {
        let path = self.work_dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted (rounds, ensemble reports, requests) plus the
    /// output checks made.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Input digests and counters that must repeat exactly across runs of
    /// one seed.
    pub exact: Vec<(String, String)>,
    /// Other notes printed before the result: sample counts, totals.
    pub notes: Vec<(String, String)>,
}

impl Run {
    /// Records an output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records an input digest or exact counter.
    pub fn exact(&mut self, key: &str, value: impl ToString) {
        self.exact.push((key.to_string(), value.to_string()));
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The flag that makes `perfbench` time one setup in a fresh process:
/// `perfbench --setup-child WORKLOAD SPEC` prints its seconds.
pub const SETUP_CHILD: &str = "--setup-child";

/// Seconds `f` takes; what it built is dropped after the clock stops.
pub fn time_once<T>(f: impl FnOnce() -> Result<T, String>) -> Result<f64, String> {
    let t = Instant::now();
    let built = f()?;
    let took = secs(t);
    drop(built);
    Ok(took)
}

/// Untimed setups before the timed ones, for setups of a few
/// milliseconds. The first processes that touch fresh memory after another
/// workload ran pay for it at the host level, up to twice the steady cost.
pub const SETUP_WARMUP: usize = 8;

/// A run's timed setups, spread over its measured loop so that they sample
/// the same host conditions as its chunks: the `i`-th of `reps` is due once
/// the loop has used `i / reps` of its seconds. The loop runs the due ones
/// between chunks, outside the chunks' clocks.
pub struct Setups<F> {
    once: F,
    reps: usize,
    seconds: f64,
    start: Instant,
    times: Vec<f64>,
}

impl<F: FnMut() -> Result<f64, String>> Setups<F> {
    /// Runs `warmup` untimed setups, then starts the clock of a loop of
    /// `seconds`. `once` returns the seconds one setup took.
    pub fn new(warmup: usize, reps: usize, seconds: f64, mut once: F) -> Result<Self, String> {
        for _ in 0..warmup {
            once()?;
        }
        Ok(Self {
            once,
            reps,
            seconds,
            start: Instant::now(),
            times: Vec::with_capacity(reps),
        })
    }

    /// Whether a setup is due.
    pub fn due(&self) -> bool {
        let done = self.times.len();
        done < self.reps && secs(self.start) >= self.seconds * done as f64 / self.reps as f64
    }

    /// Runs the setups that are due.
    pub fn catch_up(&mut self) -> Result<(), String> {
        while self.due() {
            self.times.push((self.once)()?);
        }
        Ok(())
    }

    /// Runs the setups the loop ended before, and returns the reported
    /// setup time: the median of the repeats.
    pub fn finish(mut self) -> Result<f64, String> {
        while self.times.len() < self.reps {
            self.times.push((self.once)()?);
        }
        Ok(median(&self.times))
    }
}

/// Seconds one setup of `workload` on `spec` takes in a fresh child
/// process, as a user pays it. Repeats inside one process are not the same
/// cost: once an engine has been built and dropped, where the allocator
/// left its memory makes the next build up to twice as fast or slow, and
/// that flips from run to run.
pub fn cold_setup(workload: &str, spec: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let out = Command::new(&exe)
        .args([SETUP_CHILD, workload])
        .arg(spec)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a setup child: {e}"))?;
    if !out.status.success() {
        return Err(format!("setup child: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|e| format!("setup child printed '{}': {e}", text.trim()))
}

/// The observer stack `rbb sim` runs a unit spec with: max load, empty
/// bins, legitimacy.
pub fn cli_observers() -> ObserverStack {
    ObserverStack::new()
        .with_max_load()
        .with_empty_bins()
        .with_legitimacy(Default::default())
}

/// Everything the observers concluded, as text: two runs of one
/// trajectory must agree on it byte for byte.
pub fn observer_summary(stack: &ObserverStack) -> String {
    let mut out = String::new();
    if let Some(t) = &stack.max_load {
        out += &format!(
            "max_load={} mean_round_max={:?} rounds={};",
            t.window_max(),
            t.mean_round_max(),
            t.rounds()
        );
    }
    if let Some(t) = &stack.empty_bins {
        out += &format!(
            "min_empty={} mean_empty={:?} below_quarter={};",
            t.min_empty(),
            t.mean_empty(),
            t.violations_below_quarter()
        );
    }
    if let Some(t) = &stack.legitimacy {
        out += &format!(
            "first_legitimate={:?} violations_after={};",
            t.first_legitimate_round(),
            t.violations_after_first()
        );
    }
    if let Some(t) = &stack.weighted_load {
        out += &format!("weighted_max={};", t.window_max());
    }
    if let Some(t) = &stack.capacity {
        out += &format!("capacity_rounds_in_violation={};", t.rounds_in_violation());
    }
    out
}

/// Σ loads and Σ weighted loads, read bin by bin from the engine's
/// per-bin state (over its occupied bins where it lists them), not from
/// its running totals.
pub fn bin_totals(engine: &dyn Engine) -> (u64, u64) {
    let add = |(loads, weight): (u64, u64), bin: usize| {
        (
            loads + u64::from(engine.bin_load(bin)),
            weight + engine.weighted_bin_load(bin),
        )
    };
    match engine.nonempty_bins_list() {
        Some(bins) => bins.into_iter().map(|b| b as usize).fold((0, 0), add),
        None => (0..engine.n()).fold((0, 0), add),
    }
}

/// The end-of-run invariants: Σ loads = balls = `balls`, and the total
/// weight, summed bin by bin, is `weight`, what it was at the start.
pub fn conserved(engine: &dyn Engine, balls: u64, weight: u64) -> bool {
    let (loads, weights) = bin_totals(engine);
    loads == balls
        && engine.balls() == balls
        && weights == weight
        && engine.total_weight() == weight
}

/// Repeats the setup `reps` times under spans: `parse` (read and parse the
/// spec) then `build` (the first `build_engine`). Records the medians as
/// `spec.parse_us` and `spec.build_ms` and returns the last parsed spec.
pub fn traced_setups<S>(
    tracer: &mut Tracer,
    run: &mut Run,
    reps: u64,
    parse: impl Fn() -> Result<S, String>,
    build: impl Fn(&S) -> Result<(), String>,
) -> Result<S, String> {
    let mut parse_us = Vec::new();
    let mut build_ms = Vec::new();
    let mut last = None;
    for i in 0..reps {
        let root = tracer.open("setup", i, None);
        let p = tracer.open("spec.parse", i, Some(root));
        let spec = parse()?;
        tracer.close(p);
        let b = tracer.open("spec.build", i, Some(root));
        build(&spec)?;
        tracer.close(b);
        tracer.close(root);
        parse_us.push(tracer.spans()[p].ns() as f64 * 1e-3);
        build_ms.push(tracer.spans()[b].ns() as f64 * 1e-6);
        last = Some(spec);
    }
    run.metric("spec.parse_us", median(&parse_us));
    run.metric("spec.build_ms", median(&build_ms));
    last.ok_or_else(|| "no setup ran".to_string())
}
