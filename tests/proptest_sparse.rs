//! Sparse-vs-dense bit-identity: `SparseLoadProcess` must be
//! indistinguishable from `LoadProcess` — same trajectory, same round
//! counter, same departures, same metric surface, same fault behavior,
//! and under weights the same weighted metrics and snapshot — from any
//! seed and any start, because the process consumes randomness only
//! through the round's departure-count-many uniform draws (see
//! `rbb_core::sparse` for the argument). Both engines are built through
//! the scenario factory from one spec that differs only in the `engine`
//! field, so the property also pins the spec-layer wiring
//! (`StartSpec::build_entries`, `resolved_engine`).

use proptest::prelude::*;

use rbb_core::engine::Engine;
use rbb_sim::{
    AdversaryKindSpec, CapacitiesSpec, EngineSpec, ScenarioSpec, ScheduleSpec, StartSpec, StopSpec,
    WeightsSpec,
};

fn arb_start() -> impl Strategy<Value = StartSpec> {
    (0usize..5, 1usize..6, any::<u64>()).prop_map(|(pick, k, salt)| match pick {
        0 => StartSpec::AllInOne,
        1 => StartSpec::Packed { k },
        2 => StartSpec::Geometric,
        3 => StartSpec::RandomMultinomial { salt },
        _ => StartSpec::Random { salt },
    })
}

/// Builds the dense/sparse engine pair from one spec (differing only in
/// the `engine` field), with Zipf weights and a uniform capacity when
/// `weighted`. Packed starts are clamped to `k ≤ n`.
fn engine_pair(
    n: usize,
    m: u64,
    start: StartSpec,
    seed: u64,
    weighted: bool,
) -> (Box<dyn Engine>, Box<dyn Engine>) {
    let start = match start {
        StartSpec::Packed { k } => StartSpec::Packed { k: k.min(n) },
        other => other,
    };
    let mut b = ScenarioSpec::builder(n)
        .balls(m)
        .start(start)
        .horizon_rounds(1)
        .seed(seed);
    if weighted {
        b = b
            .weights(WeightsSpec::Zipf {
                s: 1.0,
                w_max: Some(8),
            })
            .capacities(CapacitiesSpec::Uniform { c: 3 });
    }
    let spec = b.build();
    let dense = rbb_sim::build_engine(&ScenarioSpec {
        engine: Some(EngineSpec::Dense),
        ..spec.clone()
    })
    .expect("dense factory");
    let sparse = rbb_sim::build_engine(&ScenarioSpec {
        engine: Some(EngineSpec::Sparse),
        ..spec
    })
    .expect("sparse factory");
    (dense, sparse)
}

/// Lockstep comparison over `rounds` rounds with an optional mid-run
/// fault; the weighted surface and, at the end, the snapshot bytes (but
/// for the engine tag) must agree too.
fn assert_pair_identical(
    dense: &mut dyn Engine,
    sparse: &mut dyn Engine,
    rounds: u64,
    fault_at: Option<u64>,
) {
    for r in 0..rounds {
        assert_eq!(
            dense.step(),
            sparse.step(),
            "departure count diverged at round {r}"
        );
        assert_eq!(dense.round(), sparse.round());
        assert_eq!(dense.balls(), sparse.balls());
        assert_eq!(dense.max_load(), sparse.max_load(), "round {r}");
        assert_eq!(dense.empty_bins(), sparse.empty_bins(), "round {r}");
        assert_eq!(dense.nonempty_bins(), sparse.nonempty_bins());
        assert_eq!(dense.covered(), sparse.covered());
        assert_eq!(dense.min_progress(), sparse.min_progress());
        assert_eq!(dense.total_weight(), sparse.total_weight());
        assert_eq!(dense.weighted_max_load(), sparse.weighted_max_load());
        assert_eq!(dense.capacity_violations(), sparse.capacity_violations());
        assert_eq!(
            dense.config(),
            sparse.config(),
            "trajectory diverged at round {r}"
        );
        if fault_at == Some(r) {
            // The §4.1 adversary: pile everything into bin 1 (mod n). The
            // placement is engine-independent, and applying it consumes no
            // engine randomness, so the pair must stay in lockstep.
            let placement: Vec<usize> = (0..dense.balls() as usize)
                .map(|ball| (ball * 7 + 1) % dense.n())
                .collect();
            dense.apply_fault(&placement);
            sparse.apply_fault(&placement);
            assert_eq!(dense.config(), sparse.config(), "fault diverged");
        }
    }
    let dense_snap = dense.snapshot().expect("dense snapshots");
    let mut sparse_snap = sparse.snapshot().expect("sparse snapshots");
    assert_eq!(sparse_snap.engine, "sparse");
    sparse_snap.engine = dense_snap.engine.clone();
    assert_eq!(
        serde_json::to_string(&dense_snap).expect("serializes"),
        serde_json::to_string(&sparse_snap).expect("serializes"),
        "snapshot bytes diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (n, m, start, seed, weighted): identical trajectories,
    /// metric surfaces (weighted ones included) and snapshots, and fault
    /// handling on unit engines (only they report fault support, and
    /// weighted specs carry no adversary).
    #[test]
    fn sparse_engine_is_bit_identical_to_dense(
        n in 2usize..257,
        m in 1u64..400,
        start in arb_start(),
        seed in any::<u64>(),
        rounds in 10u64..50,
        with_fault in any::<bool>(),
        fault_round in 0u64..40,
        weighted in any::<bool>(),
    ) {
        let (mut dense, mut sparse) = engine_pair(n, m, start, seed, weighted);
        prop_assert_eq!(dense.supports_faults(), !weighted);
        prop_assert_eq!(sparse.supports_faults(), !weighted);
        prop_assert_eq!(dense.weighted(), weighted);
        prop_assert_eq!(sparse.weighted(), weighted);
        let fault = (with_fault && !weighted).then_some(fault_round);
        assert_pair_identical(dense.as_mut(), sparse.as_mut(), rounds, fault);
    }

    /// The one-per-bin start (m = n) through the same pairing.
    #[test]
    fn sparse_matches_dense_from_legitimate_start(
        n in 2usize..200,
        seed in any::<u64>(),
    ) {
        let (mut dense, mut sparse) = engine_pair(n, n as u64, StartSpec::OnePerBin, seed, false);
        assert_pair_identical(dense.as_mut(), sparse.as_mut(), 60, None);
    }

    /// Full scenario runs (stop conditions, adversary schedule, observers'
    /// statistics) agree between the engines for every stop kind.
    #[test]
    fn sparse_scenarios_produce_identical_outcomes(
        n in 16usize..200,
        m in 1u64..64,
        seed in any::<u64>(),
        stop_pick in 0usize..3,
        with_adversary in any::<bool>(),
    ) {
        let mut b = ScenarioSpec::builder(n)
            .balls(m)
            .start(StartSpec::Geometric)
            .stop(match stop_pick {
                0 => StopSpec::Horizon,
                1 => StopSpec::Legitimate,
                _ => StopSpec::AllEmptied,
            })
            .horizon_rounds(250)
            .seed(seed);
        if with_adversary {
            b = b.adversary(
                AdversaryKindSpec::FollowTheLeader,
                ScheduleSpec::Period { period: 29 },
            );
        }
        let spec = b.build();
        let dense = ScenarioSpec { engine: Some(EngineSpec::Dense), ..spec.clone() }
            .scenario().expect("dense scenario").run();
        let sparse = ScenarioSpec { engine: Some(EngineSpec::Sparse), ..spec }
            .scenario().expect("sparse scenario").run();
        prop_assert_eq!(dense, sparse);
    }
}

/// Fixed-seed pass with more rounds, exercised even if the property
/// runner's case count is trimmed.
#[test]
fn sparse_pinned_seeds() {
    for seed in [1u64, 0xDEAD, 0xC0FFEE] {
        for (n, m, start) in [
            (64usize, 64u64, StartSpec::OnePerBin),
            (1000, 10, StartSpec::AllInOne),
            (128, 300, StartSpec::Random { salt: 0xFEED }),
            (4096, 17, StartSpec::RandomMultinomial { salt: 1 }),
        ] {
            let (mut dense, mut sparse) = engine_pair(n, m, start, seed, false);
            assert_pair_identical(dense.as_mut(), sparse.as_mut(), 150, Some(75));
            let (mut dense, mut sparse) = engine_pair(n, m, start, seed, true);
            assert_pair_identical(dense.as_mut(), sparse.as_mut(), 150, None);
        }
    }
}
