//! `ensemble-sparse-weighted`: `rbb ensemble` on a sparse weighted spec.
//! One operation is `EnsembleSpec::run` plus `EnsembleReport::to_json`,
//! what the CLI does after setup. The exact move count of an operation
//! comes from a replay of its trials through `build_engine` and
//! `Engine::step_batched`, which also checks the invariants and the
//! report's per-metric extremes.

use std::time::Instant;

use rbb_core::engine::Engine;
use rbb_core::metrics::ObserverStack;
use rbb_sim::{build_engine, run_trials_seeded, EnsembleReport, EnsembleSpec, SeedTree};

use crate::estimate::{chunk_rate, latency_p50_p99, median, Chunk};
use crate::gen::{digest, ensemble_json, EnsembleShape};
use crate::host::peak_rss_mib;
use crate::run::{
    bin_totals, cold_setup, conserved, observer_summary, secs, traced_setups, Ctx, Run, Setups,
    SETUP_WARMUP,
};
use crate::trace::Tracer;

/// Worker threads of the fan-out.
const THREADS: usize = 2;
/// Ensemble reports per chunk.
const OPS_PER_CHUNK: usize = 4;

/// The replication count of the committed weighted ensemble spec
/// (`specs/ensemble-weighted.json`): four trials per worker. The horizon
/// is 20 rounds, not its 2000, so that one operation takes about 0.2 s and
/// a 20 s run holds about 80 of them; at 2000 rounds one would take about
/// 14 s. A trial then spends about a tenth of its time in the O(n)
/// weighted start `build_engine` makes (README.md has the split), so work
/// moved into or out of it shows end to end.
fn shape(ctx: &Ctx) -> EnsembleShape {
    EnsembleShape {
        n: ctx.pick(1_000_000, 20_000),
        balls: ctx.pick(10_000, 200),
        rounds: ctx.pick(20, 10),
        replications: ctx.pick(8, 2),
    }
}

/// The observers `EnsembleSpec::run` enables for this spec's metrics.
fn ensemble_observers() -> ObserverStack {
    ObserverStack::new()
        .with_max_load()
        .with_weighted_load()
        .with_capacity()
}

/// Reads and parses the spec, then builds trial 0's engine.
pub fn setup(path: &std::path::Path) -> Result<(EnsembleSpec, Box<dyn Engine>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading spec: {e}"))?;
    let spec: EnsembleSpec = serde_json::from_str(&text).map_err(|e| format!("spec: {e}"))?;
    spec.validate().map_err(|e| format!("spec: {e}"))?;
    let first = spec
        .scenario
        .with_seed(SeedTree::new(spec.master_seed).trial(0));
    let engine = build_engine(&first).map_err(|e| format!("spec: {e}"))?;
    Ok((spec, engine))
}

/// One trial replayed through the engine surface.
struct Trial {
    engine: Box<dyn Engine>,
    balls: u64,
    weight: u64,
    stack: ObserverStack,
    moves: u64,
}

/// What a replayed trial produced.
struct Replay {
    moves: u64,
    /// The four metric values, in spec order.
    values: [f64; 4],
    conserved: bool,
    summary: String,
}

impl Trial {
    /// Builds trial `seed` of `spec`.
    fn start(spec: &EnsembleSpec, seed: u64) -> Result<Self, String> {
        let engine = build_engine(&spec.scenario.with_seed(seed)).map_err(|e| e.to_string())?;
        Ok(Self {
            balls: engine.balls(),
            weight: bin_totals(engine.as_ref()).1,
            engine,
            stack: ensemble_observers(),
            moves: 0,
        })
    }

    /// One round: `step_batched`, then the observers.
    fn round(&mut self) {
        self.moves += self.engine.step_batched() as u64;
        self.stack
            .observe_engine(self.engine.round(), self.engine.as_ref());
    }

    /// The invariants and the trial's metric values.
    fn finish(self) -> Result<Replay, String> {
        let engine = self.engine.as_ref();
        let stack = &self.stack;
        let capacity = stack.capacity.as_ref().ok_or("capacity tracker")?;
        let values = [
            f64::from(stack.max_load.as_ref().ok_or("max tracker")?.window_max()),
            stack
                .weighted_load
                .as_ref()
                .ok_or("weighted tracker")?
                .window_max() as f64,
            engine.weighted_max_load() as f64,
            capacity.rounds_in_violation() as f64 / capacity.rounds() as f64,
        ];
        Ok(Replay {
            moves: self.moves,
            values,
            conserved: conserved(engine, self.balls, self.weight),
            summary: observer_summary(stack),
        })
    }
}

/// Whether per-trial values agree with the report: count, min and max
/// exactly, mean to rounding.
fn agrees(report: &EnsembleReport, trials: &[[f64; 4]]) -> bool {
    report.metrics.len() == 4
        && report.metrics.iter().enumerate().all(|(k, m)| {
            let xs: Vec<f64> = trials.iter().map(|t| t[k]).collect();
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            m.count == xs.len() as u64
                && m.min == min
                && m.max == max
                && (m.mean - mean).abs() <= 1e-9 * mean.abs().max(1.0)
        })
}

fn write_spec(ctx: &Ctx, run: &mut Run, weighted: bool) -> Result<std::path::PathBuf, String> {
    let text = ensemble_json(shape(ctx), ctx.seed, weighted);
    if weighted {
        run.exact("spec_digest", format!("{:016x}", digest(text.as_bytes())));
    }
    ctx.write_input(&format!("ensemble-{weighted}.json"), &text)
}

/// The untraced run.
pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let shape = shape(ctx);
    let path = write_spec(ctx, &mut run, true)?;
    let setups = ctx.pick(31, 3);
    let mut setup_runs = Setups::new(SETUP_WARMUP, setups, ctx.seconds, || {
        cold_setup("ensemble-sparse-weighted", &path)
    })?;
    let (spec, _) = setup(&path)?;

    // Exact moves per operation, and the outputs the report must match.
    let tree = SeedTree::new(spec.master_seed);
    let mut moves_per_op = 0;
    let mut trials = Vec::new();
    for i in 0..shape.replications {
        let mut trial = Trial::start(&spec, tree.trial(i))?;
        for _ in 0..shape.rounds {
            trial.round();
        }
        let r = trial.finish()?;
        run.check(
            "ensemble replay: Σ loads = balls, weight conserved",
            r.conserved,
        );
        moves_per_op += r.moves;
        trials.push(r.values);
    }

    let mut chunks = Vec::new();
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    let mut first_json: Option<String> = None;
    let mut ops = 0u64;
    let start = Instant::now();
    while secs(start) < ctx.seconds || chunks.len() < 2 {
        setup_runs.catch_up()?;
        let mut lat = Vec::with_capacity(OPS_PER_CHUNK);
        let chunk_start = Instant::now();
        for _ in 0..OPS_PER_CHUNK {
            let t = Instant::now();
            let report = spec.run().map_err(|e| e.to_string())?;
            let json = report.to_json();
            lat.push(secs(t) * 1e6);
            ops += 1;
            match &first_json {
                None => {
                    run.check(
                        "ensemble: report agrees with the replayed trials",
                        agrees(&report, &trials),
                    );
                    run.exact("report_digest", format!("{:016x}", digest(json.as_bytes())));
                    first_json = Some(json);
                }
                Some(first) => run.check("ensemble: report repeats byte for byte", *first == json),
            }
        }
        chunks.push(Chunk {
            work: moves_per_op * OPS_PER_CHUNK as u64,
            secs: secs(chunk_start),
        });
        latencies.push(lat);
    }
    run.attempted += ops;
    run.metric("setup_s", setup_runs.finish()?);
    let op_chunks: Vec<Chunk> = chunks
        .iter()
        .map(|c| Chunk {
            work: OPS_PER_CHUNK as u64,
            secs: c.secs,
        })
        .collect();
    run.metric("moves_per_s", chunk_rate(&chunks));
    run.metric("requests_per_s", chunk_rate(&op_chunks));
    let (p50, p99) = latency_p50_p99(&latencies);
    run.metric("latency_p50_us", p50);
    run.metric("latency_p99_us", p99);
    run.metric("peak_rss_mib", peak_rss_mib(None).unwrap_or(0.0));
    run.note("setups", setups);
    run.note("ops", ops);
    run.note("latency_samples", ops);
    run.note("ops_per_chunk", OPS_PER_CHUNK);
    run.note("trials_per_op", shape.replications);
    run.note("rounds_per_trial", shape.rounds);
    run.exact("moves_per_op", moves_per_op);
    Ok(run)
}

/// One trial of the fan-out `EnsembleSpec::run` makes: `scenario_seeded`
/// then `run_observed`, under spans when `tracer` is given. Returns whether
/// the trial built and its observer summary.
fn fanout_trial(
    spec: &EnsembleSpec,
    i: u64,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> (bool, String) {
    let trial = tracer
        .as_deref_mut()
        .map(|t| t.open("runner.trial", i, None));
    let build = tracer
        .as_deref_mut()
        .map(|t| t.open("runner.build", i, trial));
    let scenario = spec.scenario.scenario_seeded(seed);
    if let (Some(t), Some(b)) = (tracer.as_deref_mut(), build) {
        t.close(b);
    }
    let mut stack = ensemble_observers();
    let ok = scenario.is_ok();
    if let Ok(mut s) = scenario {
        let run = tracer
            .as_deref_mut()
            .map(|t| t.open("scenario.run_observed", i, trial));
        s.run_observed(&mut stack);
        if let (Some(t), Some(r)) = (tracer.as_deref_mut(), run) {
            t.close(r);
        }
    }
    if let (Some(t), Some(tr)) = (tracer, trial) {
        t.close(tr);
    }
    (ok, observer_summary(&stack))
}

/// The traced run: spans around `EnsembleSpec::run`, `to_json`, the
/// `run_trials_seeded` fan-out over `scenario_seeded` + `run_observed`,
/// and per-round `step_batched` / `observe_engine` on the same trials with
/// and without weights. Traced and untraced passes alternate, so the
/// overhead is measured under the same host conditions.
pub fn traced(ctx: &Ctx, tracer: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let shape = shape(ctx);
    let path = write_spec(ctx, &mut run, true)?;
    let unit_path = write_spec(ctx, &mut run, false)?;
    let read = |p: &std::path::Path| -> Result<EnsembleSpec, String> {
        let text = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
        let spec: EnsembleSpec = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        spec.validate().map_err(|e| e.to_string())?;
        Ok(spec)
    };
    let spec = traced_setups(
        tracer,
        &mut run,
        ctx.pick(21, 3),
        || read(&path),
        |s| {
            let first = s.scenario.with_seed(SeedTree::new(s.master_seed).trial(0));
            build_engine(&first).map(drop).map_err(|e| e.to_string())
        },
    )?;
    let tree = SeedTree::new(spec.master_seed);
    let trials = shape.replications as usize;

    let mut ratios = [Vec::new(), Vec::new()];
    let mut render_us = Vec::new();
    let mut fanout_wall = 0.0;
    let mut summaries = Vec::new();
    let mut report = None;
    for k in 0..ctx.pick(8, 2) {
        // The entry point, untraced then traced.
        let want = spec.run().map_err(|e| e.to_string())?.to_json();
        let root = tracer.open("ensemble", k, None);
        let traced = tracer.leaf("ensemble.run", k, Some(root), || spec.run());
        let traced = traced.map_err(|e| e.to_string())?;
        let r = tracer.open("ensemble.render", k, Some(root));
        let json = traced.to_json();
        tracer.close(r);
        tracer.close(root);
        render_us.push(tracer.spans()[r].ns() as f64 * 1e-3);
        run.check(
            "traced ensemble: report equals the untraced run's",
            json == want,
        );
        report = Some(traced);

        // The fan-out it makes, untraced and with a span per trial; the two
        // go first in turn, since the second of two runs back to back is
        // faster.
        let plain_fanout = || {
            let t = Instant::now();
            let out = run_trials_seeded(tree, trials, |i, seed| {
                fanout_trial(&spec, i as u64, seed, None)
            });
            (out, secs(t))
        };
        let traced_fanout = |tracer: &mut Tracer| {
            let root = tracer.open("runner.fanout", k, None);
            let base = tracer.fork();
            let t = Instant::now();
            let out = run_trials_seeded(tree, trials, |i, seed| {
                let mut local = base.fork();
                let out = fanout_trial(&spec, i as u64, seed, Some(&mut local));
                (out, local)
            });
            let wall = secs(t);
            tracer.close(root);
            (out, wall, root)
        };
        let ((plain, untraced), (results, wall, root)) = if k % 2 == 0 {
            let plain = plain_fanout();
            (plain, traced_fanout(tracer))
        } else {
            let traced = traced_fanout(tracer);
            (plain_fanout(), traced)
        };
        fanout_wall += wall;
        ratios[k as usize % 2].push(wall / untraced);
        for ((out, local), want) in results.into_iter().zip(plain) {
            run.check("traced fan-out: trial builds", out.0);
            run.check(
                "traced fan-out: observers equal the untraced run's",
                out == want,
            );
            summaries.push(out.1);
            tracer.adopt(local, root);
        }
    }
    let report = report.ok_or("no ensemble ran")?;
    run.metric("ensemble.render_us", median(&render_us));

    // Per-round spans on the same trials, weighted and with weights removed.
    let unit = read(&unit_path)?;
    let mut moves = [0u64; 2];
    let mut trials = Vec::new();
    for (k, (name, spec)) in [("weighted.step", &spec), ("unit.step", &unit)]
        .into_iter()
        .enumerate()
    {
        for i in 0..shape.replications {
            let mut trial = Trial::start(spec, tree.trial(i))?;
            let root = tracer.open("scenario.loop", i, None);
            for r in 0..shape.rounds {
                let step = tracer.open(name, r, Some(root));
                trial.moves += trial.engine.step_batched() as u64;
                tracer.close(step);
                let engine = trial.engine.as_ref();
                tracer.leaf("metrics.observe", r, Some(root), || {
                    trial.stack.observe_engine(engine.round(), engine)
                });
            }
            tracer.close(root);
            let r = trial.finish()?;
            run.check(
                "ensemble replay: Σ loads = balls, weight conserved",
                r.conserved,
            );
            moves[k] += r.moves;
            if k == 0 {
                run.check(
                    "traced fan-out: observers equal the replay's",
                    summaries[i as usize] == r.summary,
                );
                trials.push(r.values);
            }
        }
    }
    run.check(
        "unit and weighted trials move the same balls",
        moves[0] == moves[1],
    );
    run.check(
        "traced ensemble: report agrees with the replay",
        agrees(&report, &trials),
    );

    let totals = tracer.totals();
    let weighted = totals["weighted.step"].self_ns as f64 / moves[0] as f64;
    let unit_ns = totals["unit.step"].self_ns as f64 / moves[1] as f64;
    let rounds = shape.rounds * shape.replications;
    let loop_ns = totals["scenario.loop"];
    let trial_wall = totals["runner.trial"].wall_ns as f64 * 1e-9;
    let builds: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "runner.build")
        .map(|s| s.ns() as f64 * 1e-6)
        .collect();
    run.metric("sparse.ns_per_move", unit_ns);
    run.metric("weights.ns_per_move", weighted - unit_ns);
    run.metric("process.moves", moves[0] as f64);
    run.exact("moves_per_op", moves[0]);
    run.metric("process.rounds", rounds as f64);
    run.metric(
        "metrics.ns_per_round",
        totals["metrics.observe"].self_ns as f64 / (2 * rounds) as f64,
    );
    run.metric(
        "scenario.residual_frac",
        loop_ns.self_ns as f64 / loop_ns.wall_ns as f64,
    );
    run.metric("runner.trial_build_ms", median(&builds));
    run.metric(
        "runner.idle_frac",
        1.0 - trial_wall / (THREADS as f64 * fanout_wall),
    );
    run.metric("runner.trials", shape.replications as f64);
    let [even, odd] = &ratios;
    run.metric(
        "trace.overhead_frac",
        (median(even) * median(odd)).sqrt() - 1.0,
    );
    run.attempted += 1;
    Ok(run)
}
