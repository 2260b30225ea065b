//! Property tests for the declarative scenario layer: `ScenarioSpec` and
//! `EnsembleSpec` JSON round-trips losslessly and refuses a key at any
//! depth that no type names, and spec-built engines reproduce hand-built
//! engines bit for bit across the full strategy × arrival matrix.

mod common;

use proptest::prelude::*;
use serde::Serialize as _;

use rbb_core::ball_process::BallProcess;
use rbb_core::config::Config;
use rbb_core::engine::Engine;
use rbb_core::load::Rule;
use rbb_core::process::LoadProcess;
use rbb_core::rng::Xoshiro256pp;
use rbb_core::strategy::QueueStrategy;
use rbb_core::tetris::{BatchedTetris, Tetris};
use rbb_sim::{
    AdversaryKindSpec, ArrivalSpec, CapacitiesSpec, EngineSpec, EnsembleSpec, HorizonSpec,
    MetricKind, MetricSpec, ReportSpec, ScenarioSpec, ScheduleSpec, StartSpec, StopSpec,
    StrategySpec, TopologySpec, WeightsSpec,
};

fn arb_start() -> impl Strategy<Value = StartSpec> {
    (0usize..6, 1usize..8, any::<u64>()).prop_map(|(pick, k, salt)| match pick {
        0 => StartSpec::OnePerBin,
        1 => StartSpec::AllInOne,
        2 => StartSpec::Packed { k },
        3 => StartSpec::Geometric,
        4 => StartSpec::RandomMultinomial { salt },
        _ => StartSpec::Random { salt },
    })
}

fn arb_arrival() -> impl Strategy<Value = ArrivalSpec> {
    (0usize..4, 1usize..4, 0u32..=100).prop_map(|(pick, d, lam)| match pick {
        0 => ArrivalSpec::Uniform,
        1 => ArrivalSpec::DChoice { d },
        2 => ArrivalSpec::Tetris,
        _ => ArrivalSpec::BatchedTetris {
            lambda: lam as f64 / 100.0,
        },
    })
}

fn arb_strategy() -> impl Strategy<Value = Option<StrategySpec>> {
    (0usize..4).prop_map(|pick| match pick {
        0 => None,
        1 => Some(StrategySpec::Fifo),
        2 => Some(StrategySpec::Lifo),
        _ => Some(StrategySpec::Random),
    })
}

fn arb_topology() -> impl Strategy<Value = TopologySpec> {
    (0usize..7, 1usize..5, any::<u64>()).prop_map(|(pick, degree, salt)| match pick {
        0 => TopologySpec::Complete,
        1 => TopologySpec::CompleteGraph,
        2 => TopologySpec::Ring,
        3 => TopologySpec::Torus,
        4 => TopologySpec::Hypercube,
        5 => TopologySpec::RandomRegular { degree, salt },
        _ => TopologySpec::Star,
    })
}

/// Every weights kind, sized to `balls` balls where a kind lists them.
fn weights(pick: usize, balls: u64, param: u32) -> Option<WeightsSpec> {
    match pick {
        0 => None,
        1 => Some(WeightsSpec::Unit),
        2 => Some(WeightsSpec::Zipf {
            s: f64::from(param) / 8.0,
            w_max: (param % 2 == 0).then_some(param),
        }),
        _ => Some(WeightsSpec::Explicit {
            weights: (0..balls).map(|i| 1 + (i as u32 * param) % 9).collect(),
        }),
    }
}

/// Every capacities kind, sized to `n` bins where a kind lists them.
fn capacities(pick: usize, n: usize, param: u32) -> Option<CapacitiesSpec> {
    match pick {
        0 => None,
        1 => Some(CapacitiesSpec::Unbounded),
        2 => Some(CapacitiesSpec::Uniform { c: param.into() }),
        _ => Some(CapacitiesSpec::Explicit {
            caps: vec![param.into(); n],
        }),
    }
}

fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        (2usize..300, any::<u64>(), (0usize..2, 1u64..500)),
        arb_start(),
        arb_arrival(),
        arb_strategy(),
        arb_topology(),
        (0usize..5, 1usize..10, 1u64..10_000),
        (1u64..100_000, 0usize..4, 0usize..5),
        (0usize..4, 0usize..4, 0usize..3, 1u32..100),
    )
        .prop_map(
            |(
                (n, seed, (balls_some, balls_v)),
                start,
                arrival,
                strategy,
                topology,
                (adv_pick, adv_k, adv_period),
                (horizon, stop_pick, engine_pick),
                (weights_pick, caps_pick, shards_pick, param),
            )| {
                let balls = (balls_some == 1).then_some(balls_v);
                ScenarioSpec {
                    name: Some(format!("prop-{n}-{seed}")),
                    n,
                    balls,
                    weights: weights(weights_pick, balls.unwrap_or(n as u64), param),
                    capacities: capacities(caps_pick, n, param),
                    start,
                    arrival,
                    strategy,
                    engine: match engine_pick {
                        0 => None,
                        1 => Some(EngineSpec::Dense),
                        2 => Some(EngineSpec::Sparse),
                        3 => Some(EngineSpec::Sharded),
                        _ => Some(EngineSpec::Auto),
                    },
                    shards: match shards_pick {
                        0 => None,
                        1 => Some(1 + param as usize % 8),
                        _ => Some(param as usize),
                    },
                    topology,
                    adversary: match adv_pick {
                        0 => None,
                        1 => Some(rbb_sim::AdversarySpec {
                            kind: AdversaryKindSpec::AllInOne,
                            schedule: ScheduleSpec::Gamma { gamma: 6 },
                        }),
                        2 => Some(rbb_sim::AdversarySpec {
                            kind: AdversaryKindSpec::Packed { k: adv_k },
                            schedule: ScheduleSpec::Period { period: adv_period },
                        }),
                        3 => Some(rbb_sim::AdversarySpec {
                            kind: AdversaryKindSpec::FollowTheLeader,
                            schedule: ScheduleSpec::Period { period: adv_period },
                        }),
                        _ => Some(rbb_sim::AdversarySpec {
                            kind: AdversaryKindSpec::Random,
                            schedule: ScheduleSpec::Gamma { gamma: 8 },
                        }),
                    },
                    horizon: if stop_pick % 2 == 0 {
                        HorizonSpec::Rounds { rounds: horizon }
                    } else {
                        HorizonSpec::FactorN {
                            factor: 1 + horizon % 50,
                        }
                    },
                    stop: match stop_pick {
                        0 => StopSpec::Horizon,
                        1 => StopSpec::Legitimate,
                        2 => StopSpec::AllEmptied,
                        _ => StopSpec::Covered,
                    },
                    seed,
                }
            },
        )
}

fn arb_ensemble() -> impl Strategy<Value = EnsembleSpec> {
    (
        arb_spec(),
        any::<u64>(),
        1usize..100,
        proptest::collection::vec((0usize..13, 0usize..3), 1..4),
        (0usize..4, 1u32..99),
    )
        .prop_map(
            |(scenario, master_seed, replications, metrics, (report_pick, level))| {
                let metrics = metrics
                    .into_iter()
                    .map(|(kind, thresholds)| MetricSpec {
                        kind: MetricKind::all()[kind],
                        thresholds: (1..=thresholds).map(|t| t as f64 * 2.5).collect(),
                    })
                    .collect();
                let level = f64::from(level) / 100.0;
                let report = match report_pick {
                    0 => None,
                    1 => Some(ReportSpec::default()),
                    2 => Some(ReportSpec {
                        level: Some(level),
                        quantiles: None,
                    }),
                    _ => Some(ReportSpec {
                        level: Some(level),
                        quantiles: Some(vec![0.5, level]),
                    }),
                };
                EnsembleSpec {
                    scenario,
                    master_seed,
                    replications,
                    metrics,
                    report,
                    sweep: None,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any spec — valid or not — survives a JSON round trip losslessly, and
    /// a key that no type names, in any of its objects, is an error naming
    /// the key.
    #[test]
    fn spec_json_round_trips(spec in arb_spec()) {
        let compact = serde_json::to_string(&spec).unwrap();
        let pretty = serde_json::to_string_pretty(&spec).unwrap();
        let from_compact: ScenarioSpec = serde_json::from_str(&compact).unwrap();
        let from_pretty: ScenarioSpec = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(&from_compact, &spec);
        prop_assert_eq!(&from_pretty, &spec);
        // A second round trip is a fixed point.
        prop_assert_eq!(serde_json::to_string(&from_compact).unwrap(), compact);
        common::assert_stray_keys_refused::<ScenarioSpec>(&spec.serialize(), spec.seed);
    }

    /// The same for ensemble specs: the top level, the scenario's objects,
    /// each metric and the report.
    #[test]
    fn ensemble_json_round_trips(spec in arb_ensemble()) {
        let pretty = serde_json::to_string_pretty(&spec).unwrap();
        let back: EnsembleSpec = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(&back, &spec);
        common::assert_stray_keys_refused::<EnsembleSpec>(&spec.serialize(), spec.master_seed);
    }

    /// Valid specs build engines; invalid specs report errors (never panic).
    #[test]
    fn factory_totality(spec in arb_spec()) {
        match spec.validate() {
            Ok(()) => {
                // Structural validity must carry through the factory.
                prop_assert!(spec.scenario().is_ok() || spec.adversary.is_some(),
                    "fault-free valid spec failed to build: {:?}", spec);
            }
            Err(e) => prop_assert!(!e.0.is_empty()),
        }
    }
}

/// Spec-built engines are bit-identical to hand-constructed engines for
/// every (strategy × arrival) combination the factory serves, across seeds.
#[test]
fn spec_engines_match_hand_built_for_all_strategy_arrival_combos() {
    let n = 48;
    let rounds = 120;
    let strategies: [Option<StrategySpec>; 4] = [
        None,
        Some(StrategySpec::Fifo),
        Some(StrategySpec::Lifo),
        Some(StrategySpec::Random),
    ];
    let arrivals = [
        ArrivalSpec::Uniform,
        ArrivalSpec::DChoice { d: 2 },
        ArrivalSpec::Tetris,
        ArrivalSpec::BatchedTetris { lambda: 0.75 },
    ];
    for seed in [1u64, 42, 0xDEAD] {
        for strategy in strategies {
            for arrival in arrivals {
                let mut builder = ScenarioSpec::builder(n)
                    .arrival(arrival)
                    .horizon_rounds(rounds)
                    .seed(seed);
                if let Some(s) = strategy {
                    builder = builder.strategy(s);
                }
                let spec = builder.build();
                if spec.validate().is_err() {
                    // Ball-identity strategies only compose with uniform
                    // arrivals; the factory rejects the rest by design.
                    assert!(!matches!(arrival, ArrivalSpec::Uniform));
                    continue;
                }

                let mut engine = rbb_sim::build_engine(&spec).expect("valid spec");
                let hand: Box<dyn Engine> = match (strategy, arrival) {
                    (None, ArrivalSpec::Uniform) => Box::new(LoadProcess::new(
                        Config::one_per_bin(n),
                        Xoshiro256pp::seed_from(seed),
                    )),
                    (Some(s), ArrivalSpec::Uniform) => Box::new(BallProcess::new(
                        Config::one_per_bin(n),
                        match s {
                            StrategySpec::Fifo => QueueStrategy::Fifo,
                            StrategySpec::Lifo => QueueStrategy::Lifo,
                            StrategySpec::Random => QueueStrategy::Random,
                        },
                        Xoshiro256pp::seed_from(seed),
                    )),
                    (None, ArrivalSpec::DChoice { d }) => Box::new(
                        LoadProcess::new(Config::one_per_bin(n), Xoshiro256pp::seed_from(seed))
                            .with_rule(Rule::BestOf(d)),
                    ),
                    (None, ArrivalSpec::Tetris) => Box::new(Tetris::new(
                        Config::one_per_bin(n),
                        Xoshiro256pp::seed_from(seed),
                    )),
                    (None, ArrivalSpec::BatchedTetris { lambda }) => Box::new(BatchedTetris::new(
                        Config::one_per_bin(n),
                        lambda,
                        Xoshiro256pp::seed_from(seed),
                    )),
                    _ => unreachable!("validated away"),
                };
                let mut hand = hand;
                for r in 0..rounds {
                    let a = engine.step_batched();
                    let b = hand.step_batched();
                    assert_eq!(
                        a, b,
                        "mover count diverged at round {r} for {strategy:?} × {arrival:?}"
                    );
                    assert_eq!(
                        engine.config(),
                        hand.config(),
                        "trajectory diverged at round {r} for {strategy:?} × {arrival:?} (seed {seed})"
                    );
                }
            }
        }
    }
}

/// The scenario driver's loop equals the scalar reference round from the
/// same seed and start.
#[test]
fn scenario_run_equals_scalar_reference() {
    let spec = ScenarioSpec::builder(96)
        .horizon_rounds(300)
        .seed(5)
        .build();
    let mut scenario = spec.scenario().unwrap();
    scenario.run();

    let mut loads = vec![1u32; 96];
    let mut streams = [Xoshiro256pp::seed_from(5)];
    for _ in 0..300 {
        rbb_core::load::reference_round(&mut loads, &mut streams, &Rule::Uniform);
    }
    assert_eq!(scenario.engine().config().loads(), &loads[..]);
}
