//! Sharded-engine determinism contract, pinned at the facade:
//!
//! 1. **Shard-count 1 is bit-identical to the dense stream.** The single
//!    shard draws from the engine-convention stream and the single-shard
//!    round is exactly the dense scan + batched throw, so the factory-built
//!    pair must agree on the full metric surface, faults included — the
//!    same discipline `proptest_sparse.rs` pins for the sparse engine.
//! 2. **A fixed shard count is exactly reproducible** — across rebuilds
//!    and (by construction; the unit tests pin the parallel round driver)
//!    across thread counts.
//! 3. **Every shard count obeys the process law.** The round's departure
//!    count equals the previous non-empty count, mass is conserved, and the
//!    cheap accessors match the dense snapshot — the trajectory-level
//!    invariants that characterize the paper's process regardless of which
//!    stream the destinations are drawn from.
//! 4. **Fault injection is engine-independent.** A placement fault forces
//!    the same configuration on every engine at any shard count, and
//!    consumes no engine randomness.
//!
//! Shard counts cover {1, 2, 4, 7}: both power-of-two (mask/shift routing)
//! and odd (div/mod routing) partitions.

use proptest::prelude::*;

use rbb_core::engine::Engine;
use rbb_sim::{EngineSpec, ScenarioSpec, StartSpec};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn arb_start() -> impl Strategy<Value = StartSpec> {
    (0usize..5, 1usize..6, any::<u64>()).prop_map(|(pick, k, salt)| match pick {
        0 => StartSpec::AllInOne,
        1 => StartSpec::Packed { k },
        2 => StartSpec::Geometric,
        3 => StartSpec::RandomMultinomial { salt },
        _ => StartSpec::Random { salt },
    })
}

fn base_spec(n: usize, m: u64, start: StartSpec, seed: u64) -> ScenarioSpec {
    let start = match start {
        StartSpec::Packed { k } => StartSpec::Packed { k: k.min(n) },
        other => other,
    };
    ScenarioSpec::builder(n)
        .balls(m)
        .start(start)
        .horizon_rounds(1)
        .seed(seed)
        .build()
}

fn build(spec: &ScenarioSpec, engine: EngineSpec, shards: Option<usize>) -> Box<dyn Engine> {
    rbb_sim::build_engine(&ScenarioSpec {
        engine: Some(engine),
        shards,
        ..spec.clone()
    })
    .expect("factory")
}

/// Lockstep bit-identity comparison (meaningful at shard count 1), with an
/// optional mid-run fault — mirrors the sparse suite's
/// `assert_pair_identical`.
fn assert_pair_identical(
    dense: &mut dyn Engine,
    sharded: &mut dyn Engine,
    rounds: u64,
    fault_at: Option<u64>,
) {
    for r in 0..rounds {
        assert_eq!(
            dense.step(),
            sharded.step(),
            "departure count diverged at round {r}"
        );
        assert_eq!(dense.round(), sharded.round());
        assert_eq!(dense.balls(), sharded.balls());
        assert_eq!(dense.max_load(), sharded.max_load(), "round {r}");
        assert_eq!(dense.empty_bins(), sharded.empty_bins(), "round {r}");
        assert_eq!(dense.nonempty_bins(), sharded.nonempty_bins());
        assert_eq!(
            dense.config(),
            sharded.config(),
            "trajectory diverged at round {r}"
        );
        if fault_at == Some(r) {
            let placement: Vec<usize> = (0..dense.balls() as usize)
                .map(|ball| (ball * 7 + 1) % dense.n())
                .collect();
            let take = "unit engines take faults";
            dense.faults().expect(take).apply_fault(&placement);
            sharded.faults().expect(take).apply_fault(&placement);
            assert_eq!(dense.config(), sharded.config(), "fault diverged");
        }
    }
}

/// Law-level invariants that hold at any shard count: departures equal the
/// previous non-empty count, mass is conserved, and every cheap accessor
/// agrees with the materialized dense snapshot.
fn assert_law_invariants(engine: &mut dyn Engine, balls: u64, rounds: u64) {
    for r in 0..rounds {
        let nonempty_before = engine.nonempty_bins();
        let moved = engine.step();
        assert_eq!(moved, nonempty_before, "release law violated at round {r}");
        let config = engine.config().clone();
        assert_eq!(config.total_balls(), balls, "mass violated at round {r}");
        assert_eq!(engine.max_load(), config.max_load(), "round {r}");
        assert_eq!(engine.empty_bins(), config.empty_bins(), "round {r}");
        assert_eq!(engine.nonempty_bins(), config.nonempty_bins(), "round {r}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random (n, m, start, seed): a 1-shard sharded engine is
    /// indistinguishable from the dense engine — trajectory, metric
    /// surface, and fault handling.
    #[test]
    fn one_shard_is_bit_identical_to_dense(
        n in 2usize..257,
        m in 1u64..400,
        start in arb_start(),
        seed in any::<u64>(),
        rounds in 10u64..50,
        with_fault in any::<bool>(),
        fault_round in 0u64..40,
    ) {
        let spec = base_spec(n, m, start, seed);
        let mut dense = build(&spec, EngineSpec::Dense, None);
        let mut sharded = build(&spec, EngineSpec::Sharded, Some(1));
        prop_assert!(sharded.faults().is_some());
        let fault = with_fault.then_some(fault_round);
        assert_pair_identical(dense.as_mut(), sharded.as_mut(), rounds, fault);
    }

    /// Random (n, m, start, seed) × shard counts {1, 2, 4, 7}: rebuilding
    /// the same spec reproduces the trajectory exactly, and the law-level
    /// invariants hold round by round.
    #[test]
    fn fixed_shard_count_is_reproducible_and_lawful(
        n in 8usize..257,
        m in 1u64..300,
        start in arb_start(),
        seed in any::<u64>(),
        rounds in 10u64..40,
    ) {
        for shards in SHARD_COUNTS {
            let shards = shards.min(n);
            let spec = base_spec(n, m, start, seed);
            let mut a = build(&spec, EngineSpec::Sharded, Some(shards));
            let mut b = build(&spec, EngineSpec::Sharded, Some(shards));
            assert_law_invariants(a.as_mut(), m, rounds);
            for _ in 0..rounds {
                b.step();
            }
            // `a` (stepped under the law checks) and `b` land on the same
            // state: the build is deterministic.
            prop_assert_eq!(a.config(), b.config(), "shards = {}", shards);
        }
    }

    /// A placement fault forces the same configuration at every shard
    /// count (fault application is engine-independent and consumes no
    /// engine randomness).
    #[test]
    fn faults_are_engine_independent_at_any_shard_count(
        n in 8usize..200,
        seed in any::<u64>(),
        pre_rounds in 1u64..20,
    ) {
        let spec = base_spec(n, n as u64, StartSpec::OnePerBin, seed);
        let placement: Vec<usize> = (0..n).map(|ball| (ball * 3 + 2) % n).collect();
        let mut dense = build(&spec, EngineSpec::Dense, None);
        for _ in 0..pre_rounds { dense.step_batched(); }
        dense.faults().expect("unit engines take faults").apply_fault(&placement);
        let reference = dense.config().clone();
        for shards in SHARD_COUNTS {
            let shards = shards.min(n);
            let mut sharded = build(&spec, EngineSpec::Sharded, Some(shards));
            for _ in 0..pre_rounds { sharded.step_batched(); }
            sharded.faults().expect("unit engines take faults").apply_fault(&placement);
            prop_assert_eq!(sharded.config(), &reference, "shards = {}", shards);
            // Post-fault rounds keep the law invariants.
            assert_law_invariants(sharded.as_mut(), n as u64, 10);
        }
    }
}

/// Fixed-seed pass with more rounds, exercised even if the property
/// runner's case count is trimmed.
#[test]
fn sharded_pinned_seeds() {
    for seed in [1u64, 0xDEAD, 0xC0FFEE] {
        for (n, m, start) in [
            (64usize, 64u64, StartSpec::OnePerBin),
            (1000, 10, StartSpec::AllInOne),
            (128, 300, StartSpec::Random { salt: 0xFEED }),
            (4096, 17, StartSpec::RandomMultinomial { salt: 1 }),
        ] {
            let spec = base_spec(n, m, start, seed);
            let mut dense = build(&spec, EngineSpec::Dense, None);
            let mut sharded = build(&spec, EngineSpec::Sharded, Some(1));
            assert_pair_identical(dense.as_mut(), sharded.as_mut(), 150, Some(75));
        }
    }
}

/// Different shard counts share the law but not the stream: from one seed
/// the trajectories diverge, while long-run occupancy statistics agree to
/// a few percent (the law-equality sanity check at the statistics level).
#[test]
fn shard_counts_differ_per_seed_but_agree_in_law() {
    let n = 512usize;
    let rounds = 400u64;
    let mean_nonempty = |shards: Option<usize>, engine: EngineSpec, seed: u64| {
        let spec = base_spec(n, n as u64, StartSpec::OnePerBin, seed);
        let mut e = build(&spec, engine, shards);
        let mut total = 0.0f64;
        for _ in 0..rounds {
            e.step_batched();
            total += e.nonempty_bins() as f64;
        }
        total / rounds as f64
    };
    let dense = mean_nonempty(None, EngineSpec::Dense, 9);
    for shards in [2usize, 4, 7] {
        let sharded = mean_nonempty(Some(shards), EngineSpec::Sharded, 9);
        let rel = (sharded - dense).abs() / dense;
        assert!(
            rel < 0.05,
            "mean occupancy diverged in law at {shards} shards: dense {dense:.1} vs {sharded:.1}"
        );
    }
    // And the per-seed trajectories do diverge (different streams).
    let spec = base_spec(n, n as u64, StartSpec::OnePerBin, 9);
    let mut one = build(&spec, EngineSpec::Sharded, Some(1));
    let mut four = build(&spec, EngineSpec::Sharded, Some(4));
    for _ in 0..50 {
        one.step_batched();
        four.step_batched();
    }
    assert_ne!(one.config(), four.config());
}
