//! Weighted-regime equivalence laws, across dense/sparse/sharded:
//!
//! 1. **Unit degeneration** — a weighted constructor fed all-ones weights
//!    and unbounded capacities builds an engine bit-identical to the plain
//!    constructor: same trajectory, same RNG stream, same (version-1)
//!    snapshot bytes. The weighted layer must cost literally nothing when
//!    it is not used.
//! 2. **Weight obliviousness** — non-unit weights never touch the RNG, so
//!    a weighted engine's ball trajectory (configs, mover counts) is
//!    bit-identical to the unit engine at the same seed; only the metric
//!    overlay differs.
//! 3. **Weighted snapshot round-trip** — a version-2 snapshot restores to
//!    an engine that continues bit-identically, weighted surface included.
//!
//! Together with `tests/proptest_engines.rs` (whose matrix steps the
//! weighted combos against the reference round) this pins the tentpole
//! guarantee: pre-weighted behavior is unchanged wherever weights are not
//! in play.

use proptest::prelude::*;

use rbb_core::prelude::{Capacities, Config, Engine, LoadProcess, Weights, Xoshiro256pp};
use rbb_core::snapshot::restore;
use rbb_sim::{CapacitiesSpec, EngineSpec, ScenarioSpec, WeightsSpec};

/// The three engine families the weighted layer touches.
const FAMILIES: &[&str] = &["dense", "sparse", "sharded"];

fn family_spec(family: &str, n: usize, seed: u64) -> rbb_sim::ScenarioSpecBuilder {
    let mut b = ScenarioSpec::builder(n)
        .name(family)
        .seed(seed)
        .horizon_rounds(1);
    match family {
        "sparse" => b = b.engine(EngineSpec::Sparse),
        "sharded" => b = b.engine(EngineSpec::Sharded).shards(4),
        _ => b = b.engine(EngineSpec::Dense),
    }
    b
}

/// Steps both engines `rounds` times asserting bit-identical trajectories;
/// weighted state is allowed to differ (checked separately).
fn assert_same_trajectory(
    a: &mut dyn rbb_core::engine::Engine,
    b: &mut dyn rbb_core::engine::Engine,
    rounds: u64,
    label: &str,
) {
    for r in 0..rounds {
        assert_eq!(a.step(), b.step(), "{label}: movers diverged at round {r}");
        assert_eq!(
            a.config(),
            b.config(),
            "{label}: config diverged at round {r}"
        );
        assert_eq!(a.round(), b.round());
        assert_eq!(a.balls(), b.balls());
        assert_eq!(a.max_load(), b.max_load());
    }
}

fn unit_degenerate_case(family: &str, n: usize, seed: u64, rounds: u64) {
    let plain_spec = family_spec(family, n, seed).build();
    let unit_weighted_spec = family_spec(family, n, seed)
        .weights(WeightsSpec::Explicit {
            weights: vec![1; n],
        })
        .capacities(CapacitiesSpec::Unbounded)
        .build();
    // All-ones weights + unbounded capacities normalize away entirely: the
    // spec is not weighted and resolves to the same engine.
    assert!(!unit_weighted_spec.is_weighted());
    let mut plain = rbb_sim::build_engine(&plain_spec).expect("factory");
    let mut unit = rbb_sim::build_engine(&unit_weighted_spec).expect("factory");
    assert!(
        !unit.weighted(),
        "{family}: unit weights must not build an overlay"
    );
    assert_same_trajectory(plain.as_mut(), unit.as_mut(), rounds, family);
    // Same snapshot bytes — including the layout version: an unused
    // weighted layer must not version-bump checkpoints.
    let (sa, sb) = (plain.snapshot(), unit.snapshot());
    assert_eq!(sa, sb, "{family}: snapshots differ for unit weights");
    if let Some(s) = sa {
        assert_eq!(
            s.weighted, None,
            "{family}: unit snapshot grew a weighted section"
        );
    }
}

fn oblivious_case(family: &str, n: usize, seed: u64, rounds: u64) {
    let unit_spec = family_spec(family, n, seed).build();
    let weighted_spec = family_spec(family, n, seed)
        .weights(WeightsSpec::Zipf {
            s: 1.0,
            w_max: Some(9),
        })
        .capacities(CapacitiesSpec::Uniform { c: 3 })
        .build();
    assert!(weighted_spec.is_weighted());
    let mut unit = rbb_sim::build_engine(&unit_spec).expect("factory");
    let mut weighted = rbb_sim::build_engine(&weighted_spec).expect("factory");
    assert!(weighted.weighted());
    let total = weighted.total_weight();
    assert!(total >= weighted.balls(), "{family}: weights are >= 1 each");
    assert_same_trajectory(unit.as_mut(), weighted.as_mut(), rounds, family);
    // The overlay conserves mass and stays consistent with the ball loads.
    assert_eq!(
        weighted.total_weight(),
        total,
        "{family}: weight mass not conserved"
    );
    assert!(weighted.weighted_max_load() >= u64::from(weighted.max_load()));
}

fn weighted_round_trip_case(family: &str, n: usize, seed: u64, rounds: u64) {
    let spec = family_spec(family, n, seed)
        .weights(WeightsSpec::Zipf {
            s: 1.2,
            w_max: Some(7),
        })
        .capacities(CapacitiesSpec::Uniform { c: 4 })
        .build();
    let mut engine = rbb_sim::build_engine(&spec).expect("factory");
    for _ in 0..rounds {
        engine.step();
    }
    let snap = engine.snapshot().expect("load engines snapshot");
    snap.validate().expect("engine snapshots validate");
    assert!(
        snap.weighted.is_some(),
        "{family}: weighted run must emit a v2 snapshot"
    );
    let mut restored = restore(&snap).expect("restore");
    // Identical continuation, weighted surface included.
    for r in 0..rounds {
        assert_eq!(
            engine.step(),
            restored.step(),
            "{family}: movers diverged at +{r}"
        );
        assert_eq!(
            engine.config(),
            restored.config(),
            "{family}: config diverged at +{r}"
        );
        assert_eq!(
            engine.weighted_max_load(),
            restored.weighted_max_load(),
            "{family}: weighted max diverged at +{r}"
        );
        assert_eq!(
            engine.capacity_violations(),
            restored.capacity_violations(),
            "{family}: violation count diverged at +{r}"
        );
    }
    assert_eq!(engine.snapshot(), restored.snapshot());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Law 1 across random (n, seed): the unit-weight configuration of the
    /// weighted constructors is today's engine, bit for bit.
    #[test]
    fn unit_weights_and_unbounded_caps_degenerate_to_the_plain_engines(
        n in 9usize..65,
        seed in any::<u64>(),
        rounds in 20u64..50,
    ) {
        for family in FAMILIES {
            unit_degenerate_case(family, n, seed, rounds);
        }
    }

    /// Law 2: weights are metric-only — the trajectory never sees them.
    #[test]
    fn weighted_engines_share_the_unit_trajectory(
        n in 9usize..65,
        seed in any::<u64>(),
        rounds in 20u64..50,
    ) {
        for family in FAMILIES {
            oblivious_case(family, n, seed, rounds);
        }
    }

    /// Law 3: version-2 snapshots resume bit-identically.
    #[test]
    fn weighted_snapshots_round_trip(
        n in 9usize..65,
        seed in any::<u64>(),
        rounds in 10u64..40,
    ) {
        for family in FAMILIES {
            weighted_round_trip_case(family, n, seed, rounds);
        }
    }
}

/// The same three laws at pinned seeds with more rounds, so the weighted
/// matrix is exercised even if the property runner's case count is trimmed.
#[test]
fn weighted_matrix_pinned_seeds() {
    for family in FAMILIES {
        for seed in [1u64, 0xBEEF] {
            unit_degenerate_case(family, 33, seed, 100);
            oblivious_case(family, 33, seed, 100);
            weighted_round_trip_case(family, 33, seed, 60);
        }
    }
}

/// Core-constructor variant of law 1: `with_weights` itself (not just the
/// spec factory) must normalize all-ones weights to the no-overlay engine.
#[test]
fn core_with_weights_normalizes_unit_weights() {
    let n = 48;
    let mk_rng = || Xoshiro256pp::seed_from(11);
    let mut plain = LoadProcess::new(Config::one_per_bin(n), mk_rng());
    let mut unit = LoadProcess::with_weights(
        Config::one_per_bin(n),
        mk_rng(),
        Weights::Explicit(vec![1; n]),
        Capacities::Unbounded,
    );
    assert!(!unit.weighted());
    for _ in 0..80 {
        assert_eq!(plain.step(), unit.step());
    }
    assert_eq!(plain.snapshot(), unit.snapshot());
}
