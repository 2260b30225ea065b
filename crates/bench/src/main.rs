//! `rbb-bench` — the repo's four ratio gates.
//!
//! Times four pairs of load-engine kernels, each pair interleaved by
//! [`measure_paired`], and emits `BENCH.json` (see
//! [`rbb_bench::BenchReport`] for the schema). Each gate compares one pair's
//! paired ratio with the threshold its flag sets. `ci.sh` runs it with
//! `--quick --json target/BENCH.json` and three thresholds, then once more
//! with `--only engine/weighted-unit --reps 25` for the weighted-unit gate;
//! the committed `BENCH.json` snapshot is refreshed deliberately with a
//! full-profile run.
//!
//! Usage:
//! ```text
//! rbb-bench [--quick] [--json <path>] [--only <substring>]
//!           [--reps <k>] [--seed <u64>] [--min-engine-speedup <x>]
//!           [--min-sparse-speedup <x>] [--min-sharded-speedup <x>]
//!           [--min-weighted-unit-ratio <x>]
//! ```

use rbb_bench::{measure_paired, BenchReport, BenchResult, Derived, Spec, SCHEMA_VERSION};
use rbb_core::config::Config;
use rbb_core::engine::Engine;
use rbb_core::load::{reference_round, Rule};
use rbb_core::process::LoadProcess;
use rbb_core::rng::Xoshiro256pp;
use rbb_core::weights::{Capacities, Weights};
use rbb_sim::{EngineSpec, ScenarioSpec, StartSpec};

/// Sizes and iteration counts for one run profile.
struct Profile {
    /// Bins for the batched-vs-scalar and weighted-unit pairs.
    engine_n: usize,
    /// Rounds per timed iteration for those two pairs.
    engine_rounds: u64,
    /// Sparse pair: `sparse_m` balls over `sparse_n` bins (`m/n ≤ 1/64`),
    /// run for `sparse_rounds` rounds by sparse and dense storage.
    sparse_n: usize,
    sparse_m: u64,
    sparse_rounds: u64,
    /// Sharded pair: the dense `m = n` regime at `sharded_n` bins, run for
    /// `sharded_rounds` rounds by sharded storage (`sharded_shards` shards)
    /// and dense storage. Kept at the gate's contractual n = 10^7 even in
    /// `--quick` — the gate is about large-n scaling, and a small-n "quick"
    /// number would measure nothing relevant.
    sharded_n: usize,
    sharded_shards: usize,
    sharded_rounds: u64,
    warmup: usize,
    reps: usize,
}

const FULL: Profile = Profile {
    engine_n: 4096,
    engine_rounds: 400,
    sparse_n: 1 << 22,
    sparse_m: 4096, // density 1/1024 — well inside the ≤ 1/64 gate regime
    sparse_rounds: 40,
    sharded_n: 10_000_000,
    sharded_shards: 4,
    sharded_rounds: 5,
    warmup: 3,
    reps: 15,
};

const QUICK: Profile = Profile {
    engine_n: 1024,
    engine_rounds: 100,
    sparse_n: 1 << 20,
    sparse_m: 1024,
    sparse_rounds: 20,
    sharded_n: 10_000_000,
    sharded_shards: 4,
    sharded_rounds: 3,
    warmup: 1,
    reps: 5,
};

/// A ratio gate: the flag that sets its threshold, what its pair compares,
/// and where the pair's paired ratio lands in `derived`.
struct Gate {
    flag: &'static str,
    label: &'static str,
    ratio: fn(&Derived) -> Option<f64>,
    /// A parallel-scaling assertion: enforced only on machines with at
    /// least as many cores as the pair has shards.
    parallel: bool,
}

const GATES: [Gate; 4] = [
    Gate {
        flag: "--min-engine-speedup",
        label: "engine speedup (batched vs scalar)",
        ratio: |d| d.engine_speedup_batched_vs_scalar,
        parallel: false,
    },
    Gate {
        flag: "--min-sparse-speedup",
        label: "sparse-regime speedup (sparse vs dense engine)",
        ratio: |d| d.engine_speedup_sparse_vs_dense,
        parallel: false,
    },
    Gate {
        flag: "--min-sharded-speedup",
        label: "sharded speedup (sharded vs dense engine)",
        ratio: |d| d.engine_speedup_sharded_vs_dense,
        parallel: true,
    },
    Gate {
        flag: "--min-weighted-unit-ratio",
        label: "weighted-unit ratio (unit fast path vs batched)",
        ratio: |d| d.engine_ratio_weighted_unit_vs_batched,
        parallel: false,
    },
];

fn usage() -> ! {
    eprintln!(
        "usage: rbb-bench [--quick] [--json <path>] [--only <substring>]\n\
         \u{20}                [--reps <k>] [--seed <u64>] [--min-engine-speedup <x>]\n\
         \u{20}                [--min-sparse-speedup <x>] [--min-sharded-speedup <x>]\n\
         \u{20}                [--min-weighted-unit-ratio <x>]"
    );
    std::process::exit(2);
}

/// Builds both sides of a pair: the measured side first, its baseline
/// second.
type Build = Box<dyn FnOnce() -> (Box<dyn FnMut()>, Box<dyn FnMut()>)>;

/// A registered pair: the two sides' identities plus a deferred fixture
/// builder, so a pair the `--only` filter drops never builds its engines.
struct Pair {
    a: Spec,
    b: Spec,
    build: Build,
}

/// A routine that steps `engine` for `rounds` rounds.
fn rounds_of(mut engine: Box<dyn Engine>, rounds: u64) -> Box<dyn FnMut()> {
    Box::new(move || {
        for _ in 0..rounds {
            engine.step();
        }
    })
}

/// The benchmark registry: the four gated pairs, in [`GATES`] order.
fn registry(p: &Profile, seed: u64) -> Vec<Pair> {
    let spec =
        |name: &str, n: usize, rounds: u64| Spec::new(name, "engine", n as u64, rounds, "rounds");
    let (engine_n, engine_rounds) = (p.engine_n, p.engine_rounds);
    let (sparse_n, sparse_m, sparse_rounds) = (p.sparse_n, p.sparse_m, p.sparse_rounds);
    let (sharded_n, sharded_shards, sharded_rounds) =
        (p.sharded_n, p.sharded_shards, p.sharded_rounds);
    // Sparse and dense storage on the identical workload: same start
    // configuration and RNG stream, so both sides do identical work in the
    // process sense; only the storage differs.
    let sparse_side = move |engine: EngineSpec| {
        let spec = ScenarioSpec::builder(sparse_n)
            .balls(sparse_m)
            .start(StartSpec::RandomMultinomial { salt: 0x5AA5E })
            .engine(engine)
            .seed(seed)
            .build();
        rounds_of(
            rbb_sim::build_engine(&spec).expect("valid spec"),
            sparse_rounds,
        )
    };
    // Sharded and dense storage at large m = n: the sharded side draws from
    // per-shard streams (law-equal work, different storage and scheduling).
    let sharded_side = move |engine: EngineSpec| {
        let mut spec = ScenarioSpec::builder(sharded_n)
            .engine(engine)
            .seed(seed)
            .build();
        // Specs accept a shard count only on the sharded engine.
        if engine == EngineSpec::Sharded {
            spec.shards = Some(sharded_shards);
        }
        rounds_of(
            rbb_sim::build_engine(&spec).expect("valid spec"),
            sharded_rounds,
        )
    };
    vec![
        Pair {
            a: spec("engine/batched", engine_n, engine_rounds),
            b: spec("engine/scalar", engine_n, engine_rounds),
            build: Box::new(move || {
                let mut proc = LoadProcess::legitimate_start(engine_n, seed);
                // The scalar reference round at one stream, from the same
                // start — the baseline the engine kernel's speedup is
                // measured against.
                let mut loads = vec![1u32; engine_n];
                let mut streams = [Xoshiro256pp::seed_from(seed)];
                (
                    Box::new(move || proc.run_silent(engine_rounds)),
                    Box::new(move || {
                        for _ in 0..engine_rounds {
                            reference_round(&mut loads, &mut streams, &Rule::Uniform);
                        }
                    }),
                )
            }),
        },
        Pair {
            a: spec("engine/sparse", sparse_n, sparse_rounds),
            b: spec("engine/sparse-baseline", sparse_n, sparse_rounds),
            build: Box::new(move || {
                (
                    sparse_side(EngineSpec::Sparse),
                    sparse_side(EngineSpec::Dense),
                )
            }),
        },
        Pair {
            a: spec("engine/sharded", sharded_n, sharded_rounds),
            b: spec("engine/sharded-baseline", sharded_n, sharded_rounds),
            build: Box::new(move || {
                (
                    sharded_side(EngineSpec::Sharded),
                    sharded_side(EngineSpec::Dense),
                )
            }),
        },
        Pair {
            // The batched workload built through the weighted constructor
            // with all-ones weights and unbounded capacities: the overlay
            // normalizes away, so any gap against the plain engine is
            // overhead the weighted layer leaked into the unit fast path.
            a: spec("engine/weighted-unit", engine_n, engine_rounds),
            b: spec("engine/weighted-unit-baseline", engine_n, engine_rounds),
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
    ]
}

/// Runs the pairs whose either side matches `only`; warm-up also burns the
/// engines in to their stationary load profile, so the timed iterations
/// measure equilibrium throughput.
fn run_benchmarks(p: &Profile, seed: u64, only: Option<&str>, reps: usize) -> Vec<BenchResult> {
    registry(p, seed)
        .into_iter()
        .filter(|pair| {
            only.is_none_or(|pat| pair.a.name.contains(pat) || pair.b.name.contains(pat))
        })
        .flat_map(|pair| {
            let (mut ra, mut rb) = (pair.build)();
            let (a, b) = measure_paired(pair.a, pair.b, p.warmup, reps, &mut ra, &mut rb);
            for r in [&a, &b] {
                println!(
                    "{:<30} n={:<9} {:>14.1} ns/iter {:>12.0} {}/s",
                    r.name, r.n, r.median_ns, r.throughput_per_sec, r.unit
                );
            }
            [a, b]
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
    let mut mins: [Option<f64>; GATES.len()] = [None; GATES.len()];

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--quick" => quick = true,
            "--json" => json_path = Some(take(&mut i)),
            "--only" => only = Some(take(&mut i)),
            "--reps" => reps_override = Some(take(&mut i).parse().unwrap_or_else(|_| usage())),
            "--seed" => seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            flag => match GATES.iter().position(|g| g.flag == flag) {
                Some(k) => mins[k] = Some(take(&mut i).parse().unwrap_or_else(|_| usage())),
                None => usage(),
            },
        }
        i += 1;
    }

    let profile = if quick { &QUICK } else { &FULL };
    let reps = reps_override.unwrap_or(profile.reps);
    println!(
        "rbb-bench: {} profile, {} warmup + {} reps per pair, interleaved, seed {seed}\n",
        if quick { "quick" } else { "full" },
        profile.warmup,
        reps
    );
    let results = run_benchmarks(profile, seed, only.as_deref(), reps);

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
        derived: Derived::from_results(&results),
        benchmarks: results,
    };

    if let Some(path) = &json_path {
        std::fs::write(path, report.to_json() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }

    // The sharded gate is a *parallel-scaling* assertion: with fewer cores
    // than shards the kernel cannot physically beat the dense single-core
    // scan (sharding only redistributes the same work plus outbox traffic),
    // so enforcing the threshold there would gate on the machine's shape,
    // not on a code regression. Its ratio is still printed and recorded.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let shards = profile.sharded_shards;
    let mut failed = false;
    println!();
    for (gate, min) in GATES.iter().zip(mins) {
        let ratio = (gate.ratio)(&report.derived);
        if let Some(r) = ratio {
            println!("{}: {r:.2}x", gate.label);
        }
        let Some(min) = min else { continue };
        match ratio {
            None => {
                eprintln!(
                    "perf gate FAILED: {} — its pair was filtered out",
                    gate.label
                );
                failed = true;
            }
            Some(r) if gate.parallel && cores < shards => println!(
                "perf gate SKIPPED: {} {r:.2}x, required {min:.2}x on >= {shards} cores; \
                 this machine has {cores} (ratio recorded in BENCH.json)",
                gate.label
            ),
            Some(r) if r >= min => println!("perf gate OK: {} {r:.2}x >= {min:.2}x", gate.label),
            Some(r) => {
                eprintln!(
                    "perf gate FAILED: {} {r:.2}x < required {min:.2}x",
                    gate.label
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
