//! `perfbench` — the end-to-end benchmark of the rbb workspace.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --work-dir DIR [--serve-bin PATH] [--build TEXT] [--smoke]
//! ```
//!
//! Runs one workload (`sim-dense`, `sim-sharded`,
//! `ensemble-sparse-weighted`, `serve-socket`) for `S` measured seconds on
//! inputs generated from seed `N`, checks its outputs, and prints a
//! provenance line, a notes line (exact counters, sample counts, digests)
//! and, last, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). `run.py` builds and launches it; see README.md.
//!
//! `perfbench --setup-child WORKLOAD SPEC` is the child process the
//! untraced runs spawn to time one cold setup.

mod ensemble;
mod estimate;
mod gen;
mod host;
mod run;
mod serve;
mod sim;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Ctx, Run};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "sim-dense",
    "sim-sharded",
    "ensemble-sparse-weighted",
    "serve-socket",
];

/// End-to-end metrics (untraced runs): name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("moves_per_s", "balls/s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced runs): name and unit. A layer a workload does
/// not run reads 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("spec.parse_us", "us"),
    ("spec.build_ms", "ms"),
    ("process.ns_per_move", "ns"),
    ("process.moves", "count"),
    ("process.rounds", "count"),
    ("sharded.ns_per_move", "ns"),
    ("sharded.cpu_util", "ratio"),
    ("sparse.ns_per_move", "ns"),
    ("weights.ns_per_move", "ns"),
    ("metrics.ns_per_round", "ns"),
    ("scenario.residual_frac", "ratio"),
    ("runner.trial_build_ms", "ms"),
    ("runner.idle_frac", "ratio"),
    ("runner.trials", "count"),
    ("ensemble.render_us", "us"),
    ("session.place_ns", "ns"),
    ("session.depart_ns", "ns"),
    ("session.place_count_ns", "ns"),
    ("session.query_ns", "ns"),
    ("session.errors", "count"),
    ("serde_json.parse_ns", "ns"),
    ("io.ns_per_request", "ns"),
    ("io.sleeps_per_request", "count"),
    ("serve.requests", "count"),
    ("host.steal_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    serve_bin: Option<PathBuf>,
    build: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut serve_bin = None;
    let mut build = "unknown".to_string();
    let mut smoke = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--build" => build = value()?,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join(" | ")
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        serve_bin,
        build,
        smoke,
    })
}

/// Worker threads each workload runs with. `sim-sharded` runs one: see
/// [`sim::sharded`].
fn threads(workload: &str) -> usize {
    match workload {
        "ensemble-sparse-weighted" => 2,
        _ => 1,
    }
}

fn dispatch(args: &Args, ctx: &Ctx, tracer: &mut trace::Tracer) -> Result<Run, String> {
    match (args.workload.as_str(), args.trace) {
        ("sim-dense", false) => sim::run(ctx, sim::dense(ctx)),
        ("sim-dense", true) => sim::traced(ctx, sim::dense(ctx), tracer),
        ("sim-sharded", false) => sim::run(ctx, sim::sharded(ctx)),
        ("sim-sharded", true) => sim::traced(ctx, sim::sharded(ctx), tracer),
        ("ensemble-sparse-weighted", false) => ensemble::run(ctx),
        ("ensemble-sparse-weighted", true) => ensemble::traced(ctx, tracer),
        ("serve-socket", false) => serve::run(ctx),
        (_, _) => serve::traced(ctx, tracer),
    }
}

/// Renders a JSON string literal (the values here are plain ASCII).
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The child side of [`run::cold_setups`]: one setup of `workload` on
/// `spec` in this fresh process, its seconds printed on standard output.
fn setup_child(args: &[String]) -> ExitCode {
    let [workload, spec] = args else {
        eprintln!("perfbench: {} needs WORKLOAD SPEC", run::SETUP_CHILD);
        return ExitCode::from(2);
    };
    let spec = std::path::Path::new(spec);
    let timed = match workload.as_str() {
        "sim-dense" | "sim-sharded" => run::time_once(|| sim::setup(spec)),
        "ensemble-sparse-weighted" => run::time_once(|| ensemble::setup(spec)),
        other => Err(format!("no in-process setup for '{other}'")),
    };
    match timed {
        Ok(secs) => {
            println!("{secs}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: setup: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(run::SETUP_CHILD) {
        return setup_child(&argv[2..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The workload's thread count, set before the first parallel call
    // reads it.
    let rayon_threads = threads(&args.workload).to_string();
    std::env::set_var("RAYON_NUM_THREADS", &rayon_threads);
    let run_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: creating {}: {e}", run_dir.display());
        return ExitCode::from(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work_dir: run_dir.clone(),
        serve_bin: args.serve_bin.clone(),
        smoke: args.smoke,
    };
    let steal0 = host::steal_ticks();
    let start = std::time::Instant::now();
    let mut tracer = trace::Tracer::new();
    let result = dispatch(&args, &ctx, &mut tracer);
    let steal_s = host::steal_secs(steal0, host::steal_ticks());
    let wall_s = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    println!(
        "provenance {{\"build\":{},\"nproc\":{},\"RAYON_NUM_THREADS\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"wall_s\":{wall_s},\"steal_s\":{steal_s}}}",
        quote(&args.build),
        host::nproc(),
        quote(&rayon_threads),
        quote(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
    );
    let object = |pairs: &[(String, String)]| {
        let fields: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect();
        format!("{{{}}}", fields.join(","))
    };
    println!("exact {}", object(&run.exact));
    println!("notes {}", object(&run.notes));

    let table: &[(&str, &str)] = if args.trace {
        run.metric("host.steal_frac", steal_s / (host::nproc() as f64 * wall_s));
        run.metric("trace.spans", tracer.spans().len() as f64);
        let path = args
            .work_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("perfbench: spans written to {}", path.display());
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = run.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{value:?},\"unit\":{}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    for name in run.metrics.keys() {
        if !table.iter().any(|&(n, _)| n == *name) {
            eprintln!("perfbench: metric {name} is not in the metric table");
            return ExitCode::from(1);
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
