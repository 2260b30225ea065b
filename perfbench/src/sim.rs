//! `sim-dense` and `sim-sharded`: the paper's process the way `rbb sim`
//! runs it. The spec is read and parsed from a file,
//! `ScenarioSpec::scenario` validates it and builds the engine, and
//! `Scenario::run_observed` runs it with the CLI's observer stack. The
//! spec's horizon is one call's worth of rounds, so a run is a sequence of
//! `run_observed` calls on one scenario.
//!
//! Moves are counted exactly without reaching into that loop: in this
//! process every non-empty bin releases one ball per round, so the moves
//! of rounds `a+1..=b` are the non-empty bins after rounds `a..b`, which
//! the CLI's empty-bins observer sums. A replay of the first rounds through
//! `build_engine` and `Engine::step_batched` checks that count against the
//! sum of `step_batched` returns.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rbb_core::engine::Engine;
use rbb_core::metrics::ObserverStack;
use rbb_sim::{build_engine, Scenario, ScenarioSpec};

use crate::estimate::{chunk_rate, latency_p50_p99, median, Chunk};
use crate::gen::{digest, scenario_json, spec_seed, Digest};
use crate::host::{peak_rss_mib, process_cpu_secs};
use crate::run::{
    cli_observers, cold_setup, conserved, observer_summary, secs, traced_setups, Ctx, Run, Setups,
    SETUP_WARMUP,
};
use crate::trace::Tracer;

/// One of the two sim workloads.
#[derive(Debug, Clone, Copy)]
pub struct SimShape {
    /// Workload name.
    pub name: &'static str,
    /// Bins (= balls).
    pub n: u64,
    /// `dense` or `sharded`.
    pub engine: &'static str,
    /// Shards for the sharded engine.
    pub shards: Option<u64>,
    /// Worker threads.
    pub threads: usize,
    /// Untimed setups, then timed setups, per run.
    pub setups: (usize, usize),
    /// Rounds per `run_observed` call: the spec's horizon.
    pub call_rounds: u64,
    /// Calls per chunk.
    pub chunk_calls: u64,
    /// Untimed calls before measuring; their moves are the exact counter.
    pub warmup_calls: u64,
}

/// The `sim-dense` shape.
pub fn dense(ctx: &Ctx) -> SimShape {
    SimShape {
        name: "sim-dense",
        n: ctx.pick(1 << 16, 1 << 10),
        engine: "dense",
        shards: None,
        threads: 1,
        setups: (SETUP_WARMUP, ctx.pick(31, 3)),
        call_rounds: ctx.pick(10, 5),
        chunk_calls: ctx.pick(100, 4),
        warmup_calls: ctx.pick(200, 10),
    }
}

/// The `sim-sharded` shape: 2^20 bins (4 MiB of loads, twice a core's
/// L2) on one thread. On a shared 2-vCPU host, two threads or 2^23 bins
/// made the same code's runs spread by a quarter to a third (two threads
/// wait on both vCPUs every round; 32 MiB of loads swung twofold with the
/// neighbours' memory traffic), where this shape holds within a tenth.
pub fn sharded(ctx: &Ctx) -> SimShape {
    SimShape {
        name: "sim-sharded",
        n: ctx.pick(1 << 20, 1 << 14),
        engine: "sharded",
        shards: Some(4),
        threads: 1,
        setups: (SETUP_WARMUP, ctx.pick(31, 3)),
        call_rounds: 1,
        chunk_calls: ctx.pick(24, 2),
        warmup_calls: ctx.pick(48, 4),
    }
}

/// Reads, parses, validates and builds: what a user pays before round 1.
pub fn setup(path: &Path) -> Result<Scenario, String> {
    read_spec(path)?
        .scenario()
        .map_err(|e| format!("spec: {e}"))
}

/// Writes the workload's spec, notes its digest, and returns its path.
fn write_spec(ctx: &Ctx, shape: &SimShape, run: &mut Run) -> Result<PathBuf, String> {
    let text = scenario_json(
        shape.name,
        shape.n,
        shape.engine,
        shape.shards,
        shape.call_rounds,
        spec_seed(ctx.seed, 0x51),
    );
    run.exact("spec_digest", format!("{:016x}", digest(text.as_bytes())));
    ctx.write_input(&format!("{}.json", shape.name), &text)
}

/// Exact moves read from the outside of `run_observed`. Rounds `a+1..=b`
/// move `(b − a)·n` balls less the empty bins after rounds `a..b`: the
/// empty-bins observer's sum over rounds `a+1..=b`, corrected by the empty
/// bins after rounds `a` and `b`.
struct MoveCount {
    n: u64,
    round: u64,
    empty: u64,
    empty_sum: u64,
}

impl MoveCount {
    /// Starts counting at the engine's current round.
    fn new(engine: &dyn Engine, stack: &ObserverStack) -> Result<Self, String> {
        let mut count = Self {
            n: engine.n() as u64,
            round: engine.round(),
            empty: 0,
            empty_sum: 0,
        };
        count.advance(engine, stack)?;
        Ok(count)
    }

    /// Moves since the last reading.
    fn advance(&mut self, engine: &dyn Engine, stack: &ObserverStack) -> Result<u64, String> {
        let t = stack.empty_bins.as_ref().ok_or("empty-bins observer")?;
        // The observer keeps an integer sum and reports its mean; the mean
        // times the rounds gives the sum back exactly below 2^51.
        let sum = t.mean_empty() * t.rounds() as f64;
        if sum >= (1u64 << 51) as f64 {
            return Err("empty-bin sum too large to recover exactly".to_string());
        }
        let (round, empty, sum) = (
            engine.round(),
            engine.empty_bins() as u64,
            sum.round() as u64,
        );
        let moves = ((round - self.round) * self.n + empty + self.empty_sum)
            .checked_sub(sum + self.empty)
            .ok_or("observer sums out of step with the engine")?;
        (self.round, self.empty, self.empty_sum) = (round, empty, sum);
        Ok(moves)
    }
}

/// Reads and parses the spec at `path`.
fn read_spec(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading spec: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("spec: {e}"))
}

/// A bare engine built from the spec at `path`.
fn bare_engine(path: &Path) -> Result<Box<dyn Engine>, String> {
    build_engine(&read_spec(path)?).map_err(|e| e.to_string())
}

/// The first `rounds` rounds of the spec at `path` on a bare engine: the
/// sum of `step_batched` returns and the digest of the loads after them.
fn replay_prefix(path: &Path, rounds: u64) -> Result<(u64, u64), String> {
    let mut engine = bare_engine(path)?;
    let moves = (0..rounds).map(|_| engine.step_batched() as u64).sum();
    Ok((moves, state_digest(engine.as_ref())))
}

/// The untraced run.
pub fn run(ctx: &Ctx, shape: SimShape) -> Result<Run, String> {
    let mut run = Run::default();
    let path = write_spec(ctx, &shape, &mut run)?;
    let (warmup, reps) = shape.setups;
    let mut setups = Setups::new(warmup, reps, ctx.seconds, || cold_setup(shape.name, &path))?;
    // The scenario that runs is the first one this process builds, on a
    // fresh heap like a user's: where a large engine's buffers land moves
    // its speed by several percent.
    let mut scenario = setup(&path)?;
    let mut stack = cli_observers();
    let mut count = MoveCount::new(scenario.engine(), &stack)?;
    for _ in 0..shape.warmup_calls {
        scenario.run_observed(&mut stack);
    }
    let prefix_moves = count.advance(scenario.engine(), &stack)?;
    let prefix_digest = state_digest(scenario.engine());

    let mut chunks = Vec::new();
    let mut latencies = Vec::new();
    let start = Instant::now();
    while secs(start) < ctx.seconds || chunks.len() < 2 {
        setups.catch_up()?;
        let mut lat = Vec::with_capacity(shape.chunk_calls as usize);
        let t = Instant::now();
        for _ in 0..shape.chunk_calls {
            let call = Instant::now();
            scenario.run_observed(&mut stack);
            lat.push(secs(call) * 1e6);
        }
        let wall = secs(t);
        chunks.push(Chunk {
            work: count.advance(scenario.engine(), &stack)?,
            secs: wall,
        });
        latencies.push(lat);
    }
    // The run's own peak, before the checks below allocate.
    run.metric("peak_rss_mib", peak_rss_mib(None).unwrap_or(0.0));
    run.metric("setup_s", setups.finish()?);

    let rounds = scenario.engine().round();
    let calls = shape.warmup_calls + chunks.len() as u64 * shape.chunk_calls;
    run.attempted += calls;
    run.check(
        "sim: every run_observed call ran the spec's horizon",
        rounds == calls * shape.call_rounds,
    );
    run.check(
        "sim: Σ loads = balls = n and weight conserved",
        conserved(scenario.engine(), shape.n, shape.n),
    );
    drop(scenario);
    let prefix_rounds = shape.warmup_calls * shape.call_rounds;
    let (replayed, replayed_digest) = replay_prefix(&path, prefix_rounds)?;
    run.check(
        "sim: run_observed and a step_batched replay reach the same loads",
        replayed_digest == prefix_digest,
    );
    run.check(
        "sim: moves counted from the observers equal the replay's step_batched sum",
        replayed == prefix_moves,
    );

    let call_chunks: Vec<Chunk> = chunks
        .iter()
        .map(|c| Chunk {
            work: shape.chunk_calls,
            secs: c.secs,
        })
        .collect();
    run.metric("moves_per_s", chunk_rate(&chunks));
    run.metric("requests_per_s", chunk_rate(&call_chunks));
    let (p50, p99) = latency_p50_p99(&latencies);
    run.metric("latency_p50_us", p50);
    run.metric("latency_p99_us", p99);
    run.note("setups", reps);
    run.note("rounds", rounds);
    run.note(
        "moves",
        prefix_moves + chunks.iter().map(|c| c.work).sum::<u64>(),
    );
    run.note("calls", calls);
    run.note("rounds_per_call", shape.call_rounds);
    run.note("chunks", chunks.len());
    run.note("calls_per_chunk", shape.chunk_calls);
    run.note("latency_samples", chunks.len() as u64 * shape.chunk_calls);
    run.exact(&format!("moves_first_{prefix_rounds}_rounds"), replayed);
    Ok(run)
}

/// Digest of the loads, read bin by bin (no dense copy of a sharded
/// engine's state).
fn state_digest(engine: &dyn Engine) -> u64 {
    let mut d = Digest::default();
    for bin in 0..engine.n() {
        d.update(&engine.bin_load(bin).to_le_bytes());
    }
    d.value()
}

/// The traced run: spans around `serde_json::from_str`, `build_engine`,
/// `step_batched` and `observe_engine`, the calls `run_observed` makes per
/// round. Two engines run the same trajectory in alternating chunks, one
/// untraced and one traced, so the tracing overhead is measured under the
/// same host conditions and the two runs' outputs can be compared byte for
/// byte.
pub fn traced(ctx: &Ctx, shape: SimShape, tracer: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let path = write_spec(ctx, &shape, &mut run)?;
    // Both engines are built before anything large is freed, so the
    // allocator maps fresh memory for each, as in a user's process.
    let mut engines = [bare_engine(&path)?, bare_engine(&path)?];
    traced_setups(
        tracer,
        &mut run,
        shape.setups.1 as u64,
        || read_spec(&path),
        |spec| build_engine(spec).map(drop).map_err(|e| e.to_string()),
    )?;

    // The two engines swap the traced role every chunk: one runs several
    // percent faster than the other, depending on where its buffers
    // landed, and the swap cancels that from the overhead.
    let mut stacks = [cli_observers(), cli_observers()];
    let sharded = shape.engine == "sharded";
    let step_name = if sharded {
        "sharded.step"
    } else {
        "process.step"
    };
    let rounds = shape.chunk_calls * shape.call_rounds;
    let mut moves = 0u64;
    let mut step_cpu = 0.0;
    let mut ratios = [Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut k = 0;
    while secs(start) < ctx.seconds || k < 2 {
        let (traced, plain) = (k % 2, 1 - k % 2);
        let t = Instant::now();
        let (engine, stack) = (&mut engines[plain], &mut stacks[plain]);
        for _ in 0..rounds {
            engine.step_batched();
            stack.observe_engine(engine.round(), engine.as_ref());
        }
        let untraced = secs(t);
        let t = Instant::now();
        let root = tracer.open("scenario.loop", k as u64, None);
        let (engine, stack) = (&mut engines[traced], &mut stacks[traced]);
        for _ in 0..rounds {
            let r = engine.round() + 1;
            moves += tracer.leaf(step_name, r, Some(root), || {
                if !sharded {
                    return engine.step_batched();
                }
                let cpu = process_cpu_secs();
                let m = engine.step_batched();
                step_cpu += process_cpu_secs() - cpu;
                m
            }) as u64;
            tracer.leaf("metrics.observe", r, Some(root), || {
                stack.observe_engine(engine.round(), engine.as_ref())
            });
        }
        tracer.close(root);
        ratios[traced].push(secs(t) / untraced);
        k += 1;
    }
    let [a, b] = &engines;
    run.attempted += a.round() + b.round();
    run.check(
        "traced sim: observer summaries equal the untraced run's",
        observer_summary(&stacks[0]) == observer_summary(&stacks[1]),
    );
    run.check(
        "traced sim: final loads equal the untraced run's",
        a.round() == b.round() && state_digest(a.as_ref()) == state_digest(b.as_ref()),
    );
    for e in &engines {
        run.check(
            "traced sim: Σ loads = balls = n and weight conserved",
            conserved(e.as_ref(), shape.n, shape.n),
        );
    }

    let totals = tracer.totals();
    let step_ns = totals[step_name].self_ns as f64;
    let observe = totals["metrics.observe"];
    let per_move = step_ns / moves as f64;
    if sharded {
        run.metric("sharded.ns_per_move", per_move);
        run.metric(
            "sharded.cpu_util",
            step_cpu / (shape.threads as f64 * step_ns * 1e-9),
        );
    } else {
        run.metric("process.ns_per_move", per_move);
    }
    let loops = totals["scenario.loop"];
    run.metric("process.moves", moves as f64);
    run.metric("process.rounds", observe.count as f64);
    run.metric(
        "metrics.ns_per_round",
        observe.self_ns as f64 / observe.count as f64,
    );
    run.metric(
        "scenario.residual_frac",
        loops.self_ns as f64 / loops.wall_ns as f64,
    );
    let [even, odd] = &ratios;
    run.metric(
        "trace.overhead_frac",
        (median(even) * median(odd)).sqrt() - 1.0,
    );
    run.note("observer_summary", observer_summary(&stacks[0]));
    Ok(run)
}
