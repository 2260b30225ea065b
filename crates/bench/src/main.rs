//! `rbb-bench` — the repo's machine-readable perf gate.
//!
//! Runs warmup + repetition + median-throughput measurements of every hot
//! path (the load engine vs its scalar reference round, the ball engine
//! scalar vs batched, Tetris, traversal, graph walks, the work-stealing
//! trial scheduler) and emits `BENCH.json` (see
//! [`rbb_bench::BenchReport`] for the schema). `ci.sh` runs it with
//! `--quick --json target/BENCH.json --min-engine-speedup 1.5` as a smoke
//! gate; the committed `BENCH.json` snapshot is refreshed deliberately with
//! a full-profile run.
//!
//! Usage:
//! ```text
//! rbb-bench [--quick] [--json <path>] [--only <substring>]
//!           [--reps <k>] [--seed <u64>] [--min-engine-speedup <x>]
//!           [--min-sparse-speedup <x>] [--min-sharded-speedup <x>]
//!           [--min-weighted-unit-ratio <x>] [--list]
//! ```

use rbb_bench::{measure, measure_paired, BenchReport, BenchResult, Derived, Spec, SCHEMA_VERSION};
use rbb_core::ball_process::BallProcess;
use rbb_core::config::Config;
use rbb_core::engine::Engine;
use rbb_core::load::reference_round;
use rbb_core::metrics::NullObserver;
use rbb_core::process::LoadProcess;
use rbb_core::rng::Xoshiro256pp;
use rbb_core::strategy::QueueStrategy;
use rbb_core::tetris::Tetris;
use rbb_core::weights::{Capacities, Weights};
use rbb_graphs::{complete, ring, RandomWalk};
use rbb_serve::{MockClock, Session};
use rbb_sim::{
    sweep_par_seeded, EngineSpec, EnsembleSpec, MetricKind, MetricSpec, ScenarioSpec, SeedTree,
    StartSpec,
};
use rbb_traversal::Traversal;

/// Sizes and iteration counts for one run profile.
struct Profile {
    /// Bins for the load-engine pair (the perf-gate headline).
    engine_n: usize,
    /// Rounds per timed iteration for the engines and Tetris.
    engine_rounds: u64,
    /// Bins for the ball-identity engine pair.
    ball_n: usize,
    ball_rounds: u64,
    /// Nodes (= tokens) for the traversal engine.
    traversal_n: usize,
    traversal_rounds: u64,
    /// Vertices for the single-walk benchmarks.
    walk_n: usize,
    walk_steps: u64,
    /// Scheduler grid: `params × trials` trials of `sched_rounds` rounds.
    sched_params: usize,
    sched_trials: usize,
    sched_n: usize,
    sched_rounds: u64,
    /// Sparse-regime pair: `sparse_m` balls over `sparse_n` bins
    /// (`m/n ≤ 1/64`), run for `sparse_rounds` rounds by the sparse engine
    /// and the dense baseline.
    sparse_n: usize,
    sparse_m: u64,
    sparse_rounds: u64,
    /// Sharded pair: the dense `m = n` regime at `sharded_n` bins, run for
    /// `sharded_rounds` rounds by the sharded engine (`sharded_shards`
    /// shards) and the dense baseline. Kept at the gate's contractual
    /// n = 10^7 even in `--quick` — the gate is about large-n scaling, and
    /// a small-n "quick" number would measure nothing relevant.
    sharded_n: usize,
    sharded_shards: usize,
    sharded_rounds: u64,
    /// Ensemble target: `ens_reps` seeds of `ens_rounds` rounds at `ens_n`.
    ens_n: usize,
    ens_reps: usize,
    ens_rounds: u64,
    /// Serve target: `serve_places` hot-path placements per timed iteration
    /// through a daemon session at `serve_n` bins.
    serve_n: usize,
    serve_places: u64,
    warmup: usize,
    reps: usize,
}

const FULL: Profile = Profile {
    engine_n: 4096,
    engine_rounds: 400,
    ball_n: 2048,
    ball_rounds: 200,
    traversal_n: 512,
    traversal_rounds: 200,
    walk_n: 1024,
    walk_steps: 200_000,
    sched_params: 4,
    sched_trials: 8,
    sched_n: 256,
    sched_rounds: 400,
    sparse_n: 1 << 22,
    sparse_m: 4096, // density 1/1024 — well inside the ≤ 1/64 gate regime
    sparse_rounds: 40,
    sharded_n: 10_000_000,
    sharded_shards: 4,
    sharded_rounds: 5,
    ens_n: 512,
    ens_reps: 32,
    ens_rounds: 500,
    serve_n: 4096,
    serve_places: 200_000,
    warmup: 3,
    reps: 15,
};

const QUICK: Profile = Profile {
    engine_n: 1024,
    engine_rounds: 100,
    ball_n: 512,
    ball_rounds: 50,
    traversal_n: 128,
    traversal_rounds: 50,
    walk_n: 256,
    walk_steps: 20_000,
    sched_params: 2,
    sched_trials: 4,
    sched_n: 128,
    sched_rounds: 100,
    sparse_n: 1 << 20,
    sparse_m: 1024,
    sparse_rounds: 20,
    sharded_n: 10_000_000,
    sharded_shards: 4,
    sharded_rounds: 3,
    ens_n: 128,
    ens_reps: 8,
    ens_rounds: 100,
    serve_n: 1024,
    serve_places: 50_000,
    warmup: 1,
    reps: 5,
};

fn usage() -> ! {
    eprintln!(
        "usage: rbb-bench [--quick] [--json <path>] [--only <substring>]\n\
         \u{20}                [--reps <k>] [--seed <u64>] [--min-engine-speedup <x>]\n\
         \u{20}                [--min-sparse-speedup <x>] [--min-sharded-speedup <x>]\n\
         \u{20}                [--min-weighted-unit-ratio <x>] [--list]"
    );
    std::process::exit(2);
}

/// A registered benchmark: its identity plus a deferred fixture builder.
/// Fixtures (processes, graphs) are only constructed once a benchmark
/// survives the `--only` filter; `--list` never constructs any.
struct Bench {
    spec: Spec,
    kind: Kind,
}

/// How a registered benchmark is measured.
enum Kind {
    /// One routine, timed on its own ([`measure`]).
    Single(Box<dyn FnOnce() -> Box<dyn FnMut()>>),
    /// Two routines timed interleaved ([`measure_paired`]) so their ratio
    /// survives timing drift; `baseline` names the second side's entry.
    Paired {
        baseline: Spec,
        #[allow(clippy::type_complexity)]
        build: Box<dyn FnOnce() -> (Box<dyn FnMut()>, Box<dyn FnMut()>)>,
    },
}

/// The benchmark registry — the single source of truth for names, sizes,
/// and routines (`--list`, `--only`, and the measurements all read it).
fn registry(p: &Profile, seed: u64) -> Vec<Bench> {
    let mk = |spec: Spec, build: Box<dyn FnOnce() -> Box<dyn FnMut()>>| Bench {
        spec,
        kind: Kind::Single(build),
    };
    let (engine_n, engine_rounds) = (p.engine_n, p.engine_rounds);
    let (ball_n, ball_rounds) = (p.ball_n, p.ball_rounds);
    let (trav_n, trav_rounds) = (p.traversal_n, p.traversal_rounds);
    let (walk_n, walk_steps) = (p.walk_n, p.walk_steps);
    let (sched_params, sched_trials, sched_n, sched_rounds) =
        (p.sched_params, p.sched_trials, p.sched_n, p.sched_rounds);
    let (sparse_n, sparse_m, sparse_rounds) = (p.sparse_n, p.sparse_m, p.sparse_rounds);
    let (sharded_n, sharded_shards, sharded_rounds) =
        (p.sharded_n, p.sharded_shards, p.sharded_rounds);
    let (ens_n, ens_reps, ens_rounds) = (p.ens_n, p.ens_reps, p.ens_rounds);
    let (serve_n, serve_places) = (p.serve_n, p.serve_places);

    let ball_fixture = move |seed: u64| {
        BallProcess::new(
            Config::one_per_bin(ball_n),
            QueueStrategy::Fifo,
            Xoshiro256pp::seed_from(seed),
        )
    };

    vec![
        mk(
            Spec::new(
                "engine/scalar",
                "engine",
                engine_n as u64,
                engine_rounds,
                "rounds",
            ),
            Box::new(move || {
                // The scalar reference round at one stream — the baseline
                // the engine kernel's speedup gate is measured against.
                let mut loads = vec![1u32; engine_n];
                let mut streams = [Xoshiro256pp::seed_from(seed)];
                Box::new(move || {
                    for _ in 0..engine_rounds {
                        reference_round(&mut loads, &mut streams);
                    }
                })
            }),
        ),
        mk(
            Spec::new(
                "engine/batched",
                "engine",
                engine_n as u64,
                engine_rounds,
                "rounds",
            ),
            Box::new(move || {
                let mut proc = LoadProcess::legitimate_start(engine_n, seed);
                Box::new(move || proc.run_silent(engine_rounds))
            }),
        ),
        mk(
            // The spec-driven factory path: the same batched engine behind
            // `Box<dyn Engine>`, built from a declarative ScenarioSpec.
            // Tracks engine/batched to keep the factory overhead-free.
            Spec::new(
                "engine/spec",
                "engine",
                engine_n as u64,
                engine_rounds,
                "rounds",
            ),
            Box::new(move || {
                let spec = ScenarioSpec::builder(engine_n).seed(seed).build();
                let mut engine = rbb_sim::build_engine(&spec).expect("valid spec");
                Box::new(move || {
                    for _ in 0..engine_rounds {
                        engine.step_batched();
                    }
                })
            }),
        ),
        Bench {
            // The identical workload as engine/batched, but built through
            // the weighted constructor with all-ones weights and unbounded
            // capacities: the overlay normalizes away, so any measured gap
            // against the plain batched engine is overhead the weighted
            // layer leaked into the unit fast path (gated < 5% by ci.sh).
            // The two sides are timed interleaved — a 5% budget is far
            // below the drift between two independently measured medians.
            spec: Spec::new(
                "engine/weighted-unit",
                "engine",
                engine_n as u64,
                engine_rounds,
                "rounds",
            ),
            kind: Kind::Paired {
                baseline: Spec::new(
                    "engine/weighted-unit-baseline",
                    "engine",
                    engine_n as u64,
                    engine_rounds,
                    "rounds",
                ),
                build: Box::new(move || {
                    let mut weighted = LoadProcess::with_weights(
                        Config::one_per_bin(engine_n),
                        Xoshiro256pp::seed_from(seed),
                        Weights::Explicit(vec![1; engine_n]),
                        Capacities::Unbounded,
                    );
                    let mut plain = LoadProcess::legitimate_start(engine_n, seed);
                    (
                        Box::new(move || weighted.run_silent(engine_rounds)),
                        Box::new(move || plain.run_silent(engine_rounds)),
                    )
                }),
            },
        },
        mk(
            Spec::new(
                "ball_engine/scalar",
                "ball_engine",
                ball_n as u64,
                ball_rounds,
                "rounds",
            ),
            Box::new(move || {
                let mut proc = ball_fixture(seed);
                Box::new(move || {
                    for _ in 0..ball_rounds {
                        proc.step();
                    }
                })
            }),
        ),
        mk(
            Spec::new(
                "ball_engine/batched",
                "ball_engine",
                ball_n as u64,
                ball_rounds,
                "rounds",
            ),
            Box::new(move || {
                let mut proc = ball_fixture(seed);
                Box::new(move || {
                    for _ in 0..ball_rounds {
                        proc.step_batched();
                    }
                })
            }),
        ),
        mk(
            // The sparse occupancy engine in its home regime (m/n ≤ 1/64):
            // rounds cost O(#occupied), so throughput is independent of n.
            Spec::new(
                "engine/sparse",
                "engine",
                sparse_n as u64,
                sparse_rounds,
                "rounds",
            ),
            Box::new(move || {
                let spec = ScenarioSpec::builder(sparse_n)
                    .balls(sparse_m)
                    .start(StartSpec::RandomMultinomial { salt: 0x5AA5E })
                    .engine(EngineSpec::Sparse)
                    .seed(seed)
                    .build();
                let mut engine = rbb_sim::build_engine(&spec).expect("valid sparse spec");
                Box::new(move || {
                    for _ in 0..sparse_rounds {
                        engine.step_batched();
                    }
                })
            }),
        ),
        mk(
            // The dense engine on the identical workload — the baseline the
            // --min-sparse-speedup gate compares against. Same start
            // configuration and RNG stream, so both sides do identical
            // "work" in the process sense; only the storage differs.
            Spec::new(
                "engine/sparse-baseline",
                "engine",
                sparse_n as u64,
                sparse_rounds,
                "rounds",
            ),
            Box::new(move || {
                let spec = ScenarioSpec::builder(sparse_n)
                    .balls(sparse_m)
                    .start(StartSpec::RandomMultinomial { salt: 0x5AA5E })
                    .engine(EngineSpec::Dense)
                    .seed(seed)
                    .build();
                let mut engine = rbb_sim::build_engine(&spec).expect("valid dense spec");
                Box::new(move || {
                    for _ in 0..sparse_rounds {
                        engine.step_batched();
                    }
                })
            }),
        ),
        mk(
            // The sharded engine in its home regime (large dense m = n):
            // per-shard columns, per-shard streams, thread-pool round body.
            Spec::new(
                "engine/sharded",
                "engine",
                sharded_n as u64,
                sharded_rounds,
                "rounds",
            ),
            Box::new(move || {
                let spec = ScenarioSpec::builder(sharded_n)
                    .engine(EngineSpec::Sharded)
                    .shards(sharded_shards)
                    .seed(seed)
                    .build();
                let mut engine = rbb_sim::build_engine(&spec).expect("valid sharded spec");
                Box::new(move || {
                    for _ in 0..sharded_rounds {
                        engine.step_batched();
                    }
                })
            }),
        ),
        mk(
            // The dense engine on the identical workload — the baseline the
            // --min-sharded-speedup gate compares against. Same start
            // configuration; the sharded side draws from per-shard streams
            // (law-equal work, different storage and scheduling).
            Spec::new(
                "engine/sharded-baseline",
                "engine",
                sharded_n as u64,
                sharded_rounds,
                "rounds",
            ),
            Box::new(move || {
                let spec = ScenarioSpec::builder(sharded_n)
                    .engine(EngineSpec::Dense)
                    .seed(seed)
                    .build();
                let mut engine = rbb_sim::build_engine(&spec).expect("valid dense spec");
                Box::new(move || {
                    for _ in 0..sharded_rounds {
                        engine.step_batched();
                    }
                })
            }),
        ),
        mk(
            Spec::new(
                "tetris/step",
                "tetris",
                engine_n as u64,
                engine_rounds,
                "rounds",
            ),
            Box::new(move || {
                let mut proc =
                    Tetris::new(Config::one_per_bin(engine_n), Xoshiro256pp::seed_from(seed));
                Box::new(move || proc.run(engine_rounds, NullObserver))
            }),
        ),
        mk(
            Spec::new(
                "traversal/step",
                "traversal",
                trav_n as u64,
                trav_rounds,
                "rounds",
            ),
            Box::new(move || {
                let mut trav = Traversal::new(trav_n, QueueStrategy::Fifo, seed);
                Box::new(move || {
                    for _ in 0..trav_rounds {
                        trav.step();
                    }
                })
            }),
        ),
        mk(
            Spec::new("walk/complete", "walk", walk_n as u64, walk_steps, "steps"),
            Box::new(move || {
                let clique = complete(walk_n);
                let mut rng = Xoshiro256pp::seed_from(seed);
                let mut walk_pos = 0usize;
                Box::new(move || {
                    let mut walk = RandomWalk::new(&clique, walk_pos);
                    for _ in 0..walk_steps {
                        walk.step(&mut rng);
                    }
                    walk_pos = walk.position();
                })
            }),
        ),
        mk(
            Spec::new("walk/ring", "walk", walk_n as u64, walk_steps, "steps"),
            Box::new(move || {
                let cycle = ring(walk_n);
                let mut rng = Xoshiro256pp::seed_from(seed ^ 1);
                let mut walk_pos = 0usize;
                Box::new(move || {
                    let mut walk = RandomWalk::new(&cycle, walk_pos);
                    for _ in 0..walk_steps {
                        walk.step(&mut rng);
                    }
                    walk_pos = walk.position();
                })
            }),
        ),
        mk(
            // The (param × trial) grid through the work-stealing scheduler:
            // measures fan-out overhead + parallel trial throughput.
            Spec::new(
                "scheduler/sweep_par",
                "scheduler",
                (sched_params * sched_trials) as u64,
                (sched_params * sched_trials) as u64,
                "trials",
            ),
            Box::new(move || {
                let grid: Vec<usize> = (0..sched_params).map(|i| sched_n + i).collect();
                let tree = SeedTree::new(seed);
                Box::new(move || {
                    let out = sweep_par_seeded(
                        tree,
                        &grid,
                        sched_trials,
                        |n| format!("bench-n{n}"),
                        |&n, _i, seed| {
                            let mut p = LoadProcess::legitimate_start(n, seed);
                            p.run_silent(sched_rounds);
                            p.config().max_load()
                        },
                    );
                    std::hint::black_box(out);
                })
            }),
        ),
        mk(
            // The full ensemble pipeline: parallel seed fan-out + streaming
            // accumulator fold + report construction. Measures trials/s of
            // the `rbb ensemble` hot path end to end.
            Spec::new(
                "ensemble/run",
                "ensemble",
                ens_n as u64,
                ens_reps as u64,
                "trials",
            ),
            Box::new(move || {
                let scenario = ScenarioSpec::builder(ens_n)
                    .name("bench-ensemble")
                    .horizon_rounds(ens_rounds)
                    .build();
                let bound = 4.0 * (ens_n as f64).ln();
                let spec = EnsembleSpec::new(scenario, seed, ens_reps).with_metrics(vec![
                    MetricSpec::with_thresholds(MetricKind::WindowMaxLoad, vec![bound]),
                    MetricSpec::plain(MetricKind::MeanRoundMax),
                ]);
                Box::new(move || {
                    let report = spec.run().expect("valid ensemble");
                    std::hint::black_box(report);
                })
            }),
        ),
        mk(
            // The rbb-serve hot path end to end: request parse (fast path)
            // → engine placement → response render, on one core with the
            // deterministic mock clock. The ISSUE gate wants ≥ 10^6
            // placements/s here.
            Spec::new(
                "serve/place",
                "serve",
                serve_n as u64,
                serve_places,
                "placements",
            ),
            Box::new(move || {
                let mut session = Session::new(
                    Box::new(LoadProcess::legitimate_start(serve_n, seed)),
                    Box::new(MockClock::new(25)),
                );
                Box::new(move || {
                    for _ in 0..serve_places {
                        let resp = session.handle_line("{\"op\":\"place\"}");
                        std::hint::black_box(&resp);
                    }
                })
            }),
        ),
    ]
}

/// Runs the (filtered) registry: warm-up also burns the engines in to their
/// stationary load profile, so the timed iterations measure equilibrium
/// throughput.
fn run_benchmarks(p: &Profile, seed: u64, only: Option<&str>, reps: usize) -> Vec<BenchResult> {
    let print_line = |r: &BenchResult| {
        println!(
            "{:<24} n={:<6} {:>14.1} ns/iter {:>16.0} {}/s",
            r.name, r.n, r.median_ns, r.throughput_per_sec, r.unit
        );
    };
    registry(p, seed)
        .into_iter()
        .filter(|b| only.is_none_or(|pat| b.spec.name.contains(pat)))
        .flat_map(|b| match b.kind {
            Kind::Single(build) => {
                let mut routine = build();
                let r = measure(b.spec, p.warmup, reps, &mut routine);
                print_line(&r);
                vec![r]
            }
            Kind::Paired { baseline, build } => {
                let (mut ra, mut rb) = build();
                let (a, base) = measure_paired(b.spec, baseline, p.warmup, reps, &mut ra, &mut rb);
                print_line(&a);
                print_line(&base);
                vec![a, base]
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut only: Option<String> = None;
    let mut reps_override: Option<usize> = None;
    let mut seed: u64 = 42;
    let mut min_speedup: Option<f64> = None;
    let mut min_sparse_speedup: Option<f64> = None;
    let mut min_sharded_speedup: Option<f64> = None;
    let mut min_weighted_unit_ratio: Option<f64> = None;
    let mut list = false;

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--quick" => quick = true,
            "--list" => list = true,
            "--json" => json_path = Some(take(&mut i)),
            "--only" => only = Some(take(&mut i)),
            "--reps" => reps_override = Some(take(&mut i).parse().unwrap_or_else(|_| usage())),
            "--seed" => seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--min-engine-speedup" => {
                min_speedup = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--min-sparse-speedup" => {
                min_sparse_speedup = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--min-sharded-speedup" => {
                min_sharded_speedup = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--min-weighted-unit-ratio" => {
                min_weighted_unit_ratio = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
        i += 1;
    }

    if list {
        // Unconsumed builders construct no fixtures, so listing is free.
        for bench in registry(&QUICK, seed) {
            println!("{}", bench.spec.name);
            if let Kind::Paired { baseline, .. } = &bench.kind {
                println!("{}", baseline.name);
            }
        }
        return;
    }

    let profile = if quick { &QUICK } else { &FULL };
    let reps = reps_override.unwrap_or(profile.reps);
    println!(
        "rbb-bench: {} profile, {} warmup + {} reps per benchmark, seed {seed}\n",
        if quick { "quick" } else { "full" },
        profile.warmup,
        reps
    );
    let results = run_benchmarks(profile, seed, only.as_deref(), reps);
    let derived = Derived::from_results(&results);

    if let Some(speedup) = derived.engine_speedup_batched_vs_scalar {
        println!("\nengine speedup (batched vs scalar): {speedup:.2}x");
    }
    if let Some(speedup) = derived.engine_speedup_sparse_vs_dense {
        println!("sparse-regime speedup (sparse vs dense engine): {speedup:.2}x");
    }
    if let Some(speedup) = derived.engine_speedup_sharded_vs_dense {
        println!(
            "sharded speedup (sharded vs dense engine, {} shards): {speedup:.2}x",
            profile.sharded_shards
        );
    }
    if let Some(ratio) = derived.engine_ratio_weighted_unit_vs_batched {
        println!("weighted-unit ratio (unit fast path vs batched): {ratio:.2}x");
    }

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        // Sanctioned wall-clock read: report metadata at the output
        // boundary, never inside a result path (clippy.toml bans the rest).
        #[allow(clippy::disallowed_methods)]
        generated_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        quick,
        threads: rayon::current_num_threads(),
        warmup_iters: profile.warmup,
        reps,
        seed,
        derived,
        benchmarks: results,
    };

    if let Some(path) = &json_path {
        std::fs::write(path, report.to_json() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }

    if let Some(min) = min_speedup {
        match report.derived.engine_speedup_batched_vs_scalar {
            Some(speedup) if speedup >= min => {
                println!("perf gate OK: {speedup:.2}x >= {min:.2}x");
            }
            Some(speedup) => {
                eprintln!("perf gate FAILED: engine speedup {speedup:.2}x < required {min:.2}x");
                std::process::exit(1);
            }
            None => {
                eprintln!("perf gate FAILED: engine benchmarks were filtered out");
                std::process::exit(1);
            }
        }
    }
    if let Some(min) = min_sparse_speedup {
        match report.derived.engine_speedup_sparse_vs_dense {
            Some(speedup) if speedup >= min => {
                println!("sparse perf gate OK: {speedup:.2}x >= {min:.2}x");
            }
            Some(speedup) => {
                eprintln!(
                    "sparse perf gate FAILED: sparse-vs-dense speedup {speedup:.2}x < \
                     required {min:.2}x"
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("sparse perf gate FAILED: sparse benchmarks were filtered out");
                std::process::exit(1);
            }
        }
    }
    if let Some(min) = min_sharded_speedup {
        // The sharded gate is a *parallel-scaling* assertion: with fewer
        // cores than shards the kernel cannot physically beat the dense
        // single-core scan (sharding only redistributes the same work plus
        // outbox traffic), so enforcing the threshold there would gate on
        // the CI machine's shape, not on a code regression. The ratio is
        // still measured, printed, and recorded in BENCH.json above; the
        // threshold is enforced exactly when the machine can express it.
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let shards = profile.sharded_shards;
        match report.derived.engine_speedup_sharded_vs_dense {
            Some(speedup) if cores < shards => {
                println!(
                    "sharded perf gate SKIPPED: machine has {cores} core(s) < {shards} shards \
                     (measured {speedup:.2}x, required {min:.2}x on >= {shards} cores; \
                     ratio recorded in BENCH.json)"
                );
            }
            Some(speedup) if speedup >= min => {
                println!("sharded perf gate OK: {speedup:.2}x >= {min:.2}x");
            }
            Some(speedup) => {
                eprintln!(
                    "sharded perf gate FAILED: sharded-vs-dense speedup {speedup:.2}x < \
                     required {min:.2}x on {cores} cores"
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("sharded perf gate FAILED: sharded benchmarks were filtered out");
                std::process::exit(1);
            }
        }
    }
    if let Some(min) = min_weighted_unit_ratio {
        match report.derived.engine_ratio_weighted_unit_vs_batched {
            Some(ratio) if ratio >= min => {
                println!("weighted-unit perf gate OK: {ratio:.2}x >= {min:.2}x");
            }
            Some(ratio) => {
                eprintln!(
                    "weighted-unit perf gate FAILED: unit fast path at {ratio:.2}x of \
                     engine/batched < required {min:.2}x (the weighted layer leaked \
                     overhead into the unit path)"
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("weighted-unit perf gate FAILED: engine benchmarks were filtered out");
                std::process::exit(1);
            }
        }
    }
}
