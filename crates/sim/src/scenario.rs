//! The scenario runner: one driver loop for every engine and stop rule.
//!
//! [`ScenarioSpec::scenario`] builds the right engine behind
//! `Box<dyn Engine>` (see the factory table in [`build_engine`]), arms the
//! optional adversary, and returns a [`Scenario`] whose run loop replays
//! exactly the semantics of the historical per-engine run families:
//!
//! * every round: `step_batched` (the engine's round; see
//!   [`Engine::step_batched`]), then observers, then — on fault rounds, if
//!   the stop condition has not yet been met — the adversary;
//! * stop conditions are checked before the first step (an immediately
//!   satisfied condition stops at round 0, like `run_until` and
//!   `run_until_all_emptied` did) and after each round.
//!
//! RNG conventions (engine `seed_from(seed)`, traversal `stream(seed, 0)`,
//! adversary `stream(seed, 0xADFE)`) match the pre-spec experiments, so
//! migrated experiments regenerate identical numbers.

use std::sync::Arc;

use rbb_core::adversary::{
    Adversary, AllInOneAdversary, FaultSchedule, FollowTheLeaderAdversary, PackedAdversary,
    RandomAdversary,
};
use rbb_core::ball_process::BallProcess;
use rbb_core::config::{Config, LegitimacyThreshold};
use rbb_core::engine::Engine;
use rbb_core::load::Rule;
use rbb_core::metrics::ObserverStack;
use rbb_core::process::LoadProcess;
use rbb_core::rng::Xoshiro256pp;
use rbb_core::weights::{Capacities, Weights};

use crate::seed::{adversary_rng, engine_rng};
use rbb_core::sharded::{shard_streams, ShardedLoadProcess};
use rbb_core::sparse::SparseLoadProcess;
use rbb_core::tetris::{BatchedTetris, Tetris};
use rbb_traversal::Traversal;

use crate::spec::{
    AdversaryKindSpec, ArrivalSpec, EngineSpec, ScenarioSpec, ScheduleSpec, SpecError, StopSpec,
};

/// Builds the engine a spec describes. The factory table:
///
/// | topology | arrival | strategy | stop | engine |
/// |---|---|---|---|---|
/// | complete | uniform | — | any but covered | [`LoadProcess`] / [`SparseLoadProcess`] / [`ShardedLoadProcess`] |
/// | complete | uniform | set | covered | [`Traversal`] |
/// | complete | uniform | set | other | [`BallProcess`] |
/// | complete | d-choice | — | any | [`LoadProcess`] under [`Rule::BestOf`] |
/// | complete | tetris | — | any | [`Tetris`] |
/// | complete | batched-tetris | — | any | [`BatchedTetris`] |
/// | graph | uniform | — | any but covered | [`LoadProcess`] under [`Rule::Neighbors`] |
/// | graph | uniform | set | any | [`Traversal`] over [`BallProcess::with_graph`] |
///
/// The d-choice and graph-walk cells build dense storage only (the spec
/// layer refuses other engines and weights there). The graph token walk
/// starts one token per node and draws from the engine stream
/// ([`engine_rng`]), the clique's `covered` cell from the traversal's
/// `stream(seed, 0)`. The load-only cell is
/// one arm: it resolves dense vs sparse vs sharded through
/// [`ScenarioSpec::resolved_engine`] (dense and sparse are
/// bit-identical; sharded is bit-identical at `shards: 1` and law-equal
/// above — see the spec module docs) and hands the spec's weights and
/// capacities to [`LoadEngine::from_sorted_entries`] on that storage; the
/// sharded engine derives its per-shard streams from the spec seed
/// ([`shard_streams`]). Every load engine is built in one pass over
/// [`StartSpec::build_entries`], which fills its storage, counts the balls
/// and files the weights: construction allocates the storage and the
/// weight overlay, and no list of the start's entries or dense copy of it.
///
/// [`LoadEngine::from_sorted_entries`]: rbb_core::load::LoadEngine::from_sorted_entries
/// [`StartSpec::build_entries`]: crate::spec::StartSpec::build_entries
pub fn build_engine(spec: &ScenarioSpec) -> Result<Box<dyn Engine>, SpecError> {
    spec.validate()?;
    let seed = spec.seed;
    let m = spec.balls_or_default();
    // The unweighted dense engine of the d-choice and graph-walk cells.
    let dense = |n: usize, m: u64| -> Result<LoadProcess, SpecError> {
        Ok(LoadProcess::from_sorted_entries(
            n,
            spec.start.build_entries(n, m, seed)?,
            vec![engine_rng(seed)],
            Weights::Unit,
            Capacities::Unbounded,
        ))
    };

    if !spec.topology.is_complete() {
        let graph = spec.topology.build(spec.n, seed);
        return match spec.strategy {
            None => {
                let (n, m) = (graph.n(), m_for_graph(&graph, m, spec)?);
                let rule = Rule::Neighbors(Arc::new(graph));
                Ok(Box::new(dense(n, m)?.with_rule(rule)))
            }
            Some(s) => {
                let start = Config::one_per_bin(graph.n());
                let walk = BallProcess::new(start, s.to_core(), engine_rng(seed))
                    .with_graph(Arc::new(graph));
                Ok(Box::new(Traversal::from_process(walk)))
            }
        };
    }

    match spec.arrival {
        ArrivalSpec::Uniform => match (spec.strategy, spec.stop) {
            (None, _) => {
                // Unit weights and unbounded capacities build no overlay,
                // so every load engine is the same one a plain constructor
                // builds, bit for bit. Weights are assigned in bin order
                // over the start, the order `build_entries` yields.
                let (n, weights, capacities) =
                    (spec.n, spec.core_weights(), spec.core_capacities());
                let entries = spec.start.build_entries(n, m, seed)?;
                let engine: Box<dyn Engine> = match spec.resolved_engine() {
                    EngineSpec::Sparse => Box::new(SparseLoadProcess::from_sorted_entries(
                        n,
                        entries,
                        vec![engine_rng(seed)],
                        weights,
                        capacities,
                    )),
                    EngineSpec::Sharded => Box::new(ShardedLoadProcess::from_sorted_entries(
                        n,
                        entries,
                        shard_streams(seed, spec.resolved_shards()),
                        weights,
                        capacities,
                    )),
                    _ => Box::new(LoadProcess::from_sorted_entries(
                        n,
                        entries,
                        vec![engine_rng(seed)],
                        weights,
                        capacities,
                    )),
                };
                Ok(engine)
            }
            (Some(s), StopSpec::Covered) => {
                let config = spec.start.build(spec.n, m, seed)?;
                Ok(Box::new(Traversal::from_config(config, s.to_core(), seed)))
            }
            (Some(s), _) => {
                let config = spec.start.build(spec.n, m, seed)?;
                Ok(Box::new(BallProcess::new(
                    config,
                    s.to_core(),
                    engine_rng(seed),
                )))
            }
        },
        ArrivalSpec::DChoice { d } => Ok(Box::new(dense(spec.n, m)?.with_rule(Rule::BestOf(d)))),
        ArrivalSpec::Tetris => {
            let config = spec.start.build(spec.n, m, seed)?;
            Ok(Box::new(Tetris::new(config, engine_rng(seed))))
        }
        ArrivalSpec::BatchedTetris { lambda } => {
            let config = spec.start.build(spec.n, m, seed)?;
            Ok(Box::new(BatchedTetris::new(
                config,
                lambda,
                engine_rng(seed),
            )))
        }
    }
}

/// Ball count over a built graph: the requested count, except that a
/// default (`balls: null`) and the one-per-bin start follow the graph's
/// possibly-rounded size (torus/hypercube), where one-per-node is the only
/// consistent count.
fn m_for_graph(graph: &rbb_graphs::Graph, m: u64, spec: &ScenarioSpec) -> Result<u64, SpecError> {
    if spec.balls.is_none() || matches!(spec.start, crate::spec::StartSpec::OnePerBin) {
        return Ok(graph.n() as u64);
    }
    Ok(m)
}

fn build_adversary(kind: AdversaryKindSpec) -> Box<dyn Adversary> {
    match kind {
        AdversaryKindSpec::AllInOne => Box::new(AllInOneAdversary),
        AdversaryKindSpec::Packed { k } => Box::new(PackedAdversary { k }),
        AdversaryKindSpec::FollowTheLeader => Box::new(FollowTheLeaderAdversary),
        AdversaryKindSpec::Random => Box::new(RandomAdversary),
    }
}

/// The armed adversary of a running scenario.
struct FaultArm {
    schedule: FaultSchedule,
    adversary: Box<dyn Adversary>,
    rng: Xoshiro256pp,
}

/// Driver-side stop-condition state.
///
/// Every variant reads the engine through the cheap metric accessors
/// ([`Engine::max_load`], [`Engine::bin_load`], …) rather than a dense
/// [`Engine::config`] snapshot, so stop checking never forces a sparse
/// engine to materialize `O(n)` state per round. Values are identical for
/// dense engines (the accessors default to reading the configuration).
enum StopState {
    Horizon,
    Legitimate(LegitimacyThreshold),
    /// Lemma-4 bookkeeping: the worklist of bins that have never yet been
    /// observed empty (initially-empty bins count as already emptied). It
    /// only ever shrinks, so the per-round cost tracks the unfinished set —
    /// `O(#initially-occupied)` at worst, `O(m)` in the sparse regime.
    AllEmptied {
        never_emptied: Vec<u32>,
    },
    Covered,
}

impl StopState {
    fn init(stop: StopSpec, engine: &dyn Engine) -> Self {
        match stop {
            StopSpec::Horizon => StopState::Horizon,
            StopSpec::Legitimate => StopState::Legitimate(LegitimacyThreshold::default()),
            StopSpec::AllEmptied => {
                let never_emptied = engine.nonempty_bins_list().unwrap_or_else(|| {
                    engine
                        .config()
                        .loads()
                        .iter()
                        .enumerate()
                        .filter(|&(_, &l)| l > 0)
                        // rbb-lint: allow(lossy-cast, reason = "enumerate index < n, validated against the u32 bin-index range")
                        .map(|(u, _)| u as u32)
                        .collect()
                });
                StopState::AllEmptied { never_emptied }
            }
            StopSpec::Covered => StopState::Covered,
        }
    }

    /// Folds the post-step state in (the Lemma-4 "every bin emptied at
    /// least once" bookkeeping).
    fn update(&mut self, engine: &dyn Engine) {
        if let StopState::AllEmptied { never_emptied } = self {
            never_emptied.retain(|&b| engine.bin_load(b as usize) > 0);
        }
    }

    fn met(&self, engine: &dyn Engine) -> bool {
        match self {
            StopState::Horizon => false,
            StopState::Legitimate(thr) => {
                if engine.weighted() {
                    // Weighted legitimacy: the unit bound scaled by the mean
                    // ball weight — `M(q) ≤ ⌈β ln n⌉` on the *weighted* load,
                    // with the threshold adjusted for the total mass.
                    engine.weighted_max_load()
                        <= thr.weighted_bound(engine.n(), engine.total_weight(), engine.balls())
                } else {
                    engine.max_load() <= thr.bound(engine.n())
                }
            }
            StopState::AllEmptied { never_emptied } => never_emptied.is_empty(),
            StopState::Covered => engine.covered() == Some(true),
        }
    }
}

/// What a scenario run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Rounds actually executed (`== engine.round()` afterwards).
    pub rounds: u64,
    /// The round at which a non-horizon stop condition was first met, if it
    /// was met within the horizon (`None` for plain horizon runs and for
    /// runs that timed out).
    pub stop_round: Option<u64>,
    /// Number of adversarial faults injected.
    pub faults: u64,
}

/// A runnable scenario: engine + optional adversary + stop rule.
///
/// ```
/// use rbb_sim::ScenarioSpec;
///
/// let spec = ScenarioSpec::builder(64).horizon_rounds(500).seed(7).build();
/// let mut scenario = spec.scenario().unwrap();
/// let outcome = scenario.run();
/// assert_eq!(outcome.rounds, 500);
/// assert_eq!(scenario.engine().round(), 500);
/// ```
pub struct Scenario {
    engine: Box<dyn Engine>,
    fault_arm: Option<FaultArm>,
    horizon: u64,
    stop: StopSpec,
}

impl ScenarioSpec {
    /// Validates the spec and constructs the scenario (factory entry point).
    pub fn scenario(&self) -> Result<Scenario, SpecError> {
        let mut engine = build_engine(self)?;
        let fault_arm = match &self.adversary {
            None => None,
            Some(adv) => {
                if engine.faults().is_none() {
                    return Err(SpecError(
                        "this engine does not support adversarial reassignment".into(),
                    ));
                }
                let schedule = match adv.schedule {
                    ScheduleSpec::Gamma { gamma } => FaultSchedule::gamma_n(gamma, engine.n()),
                    ScheduleSpec::Period { period } => FaultSchedule::every(period),
                };
                Some(FaultArm {
                    schedule,
                    adversary: build_adversary(adv.kind),
                    rng: adversary_rng(self.seed),
                })
            }
        };
        let horizon = self.horizon.resolve(engine.n());
        Ok(Scenario {
            engine,
            fault_arm,
            horizon,
            stop: self.stop,
        })
    }

    /// Convenience: builds the scenario with a different seed (sweeps).
    pub fn scenario_seeded(&self, seed: u64) -> Result<Scenario, SpecError> {
        self.with_seed(seed).scenario()
    }
}

impl Scenario {
    /// The engine, for post-run inspection (final configuration, coverage,
    /// progress).
    pub fn engine(&self) -> &dyn Engine {
        self.engine.as_ref()
    }

    /// The resolved round budget.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Runs the scenario without observers.
    pub fn run(&mut self) -> ScenarioOutcome {
        self.run_observed(&mut ObserverStack::new())
    }

    /// Runs the scenario, feeding every completed round to `observers`.
    ///
    /// The loop reads the engine exclusively through the cheap metric
    /// accessors ([`ObserverStack::observe_engine`], the accessor-based
    /// stop-condition state); a dense [`Engine::config`] snapshot is only
    /// materialized on fault rounds, where the adversary's placement rule
    /// inspects the current configuration. A sparse-engine round therefore
    /// costs `O(#occupied)` end to end, observers included.
    pub fn run_observed(&mut self, observers: &mut ObserverStack) -> ScenarioOutcome {
        let engine = self.engine.as_mut();
        let mut stop = StopState::init(self.stop, engine);
        let mut faults = 0u64;
        let start_round = engine.round();

        if self.stop != StopSpec::Horizon && stop.met(engine) {
            return ScenarioOutcome {
                rounds: 0,
                stop_round: Some(engine.round()),
                faults: 0,
            };
        }

        let mut stop_round = None;
        for _ in 0..self.horizon {
            engine.step_batched();
            observers.observe_engine(engine.round(), engine);
            stop.update(engine);
            if let Some(arm) = &mut self.fault_arm {
                if arm.schedule.is_faulty(engine.round()) && !stop.met(engine) {
                    let placement = arm.adversary.placement(
                        engine.n(),
                        engine.balls() as usize,
                        engine.config(),
                        &mut arm.rng,
                    );
                    if let Some(target) = engine.faults() {
                        target.apply_fault(&placement);
                        faults += 1;
                    }
                    stop.update(engine);
                }
            }
            if self.stop != StopSpec::Horizon && stop.met(engine) {
                stop_round = Some(engine.round());
                break;
            }
        }

        ScenarioOutcome {
            rounds: engine.round() - start_round,
            stop_round,
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{StartSpec, StrategySpec, TopologySpec};
    use rbb_core::config::Config;
    use rbb_core::metrics::MaxLoadTracker;

    #[test]
    fn default_spec_runs_the_load_engine_bit_identically() {
        let spec = ScenarioSpec::builder(128)
            .horizon_rounds(400)
            .seed(5)
            .build();
        let mut scenario = spec.scenario().unwrap();
        let mut stack = ObserverStack::new().with_max_load();
        let outcome = scenario.run_observed(&mut stack);
        assert_eq!(outcome.rounds, 400);
        assert_eq!(outcome.stop_round, None);
        assert_eq!(outcome.faults, 0);

        // Hand-built reference.
        let mut p = LoadProcess::new(Config::one_per_bin(128), Xoshiro256pp::seed_from(5));
        let mut t = MaxLoadTracker::new();
        p.run(400, &mut t);
        assert_eq!(p.config(), scenario.engine().config());
        assert_eq!(
            t.window_max(),
            stack.max_load.as_ref().unwrap().window_max()
        );
    }

    #[test]
    fn tetris_all_emptied_matches_run_until_all_emptied() {
        let n = 128;
        for (start, m) in [
            (StartSpec::AllInOne, n as u64),
            (StartSpec::Random { salt: 0xFEED }, n as u64),
        ] {
            let spec = ScenarioSpec::builder(n)
                .arrival(ArrivalSpec::Tetris)
                .start(start)
                .stop(StopSpec::AllEmptied)
                .horizon_rounds(20 * n as u64)
                .seed(11)
                .build();
            let mut scenario = spec.scenario().unwrap();
            let outcome = scenario.run();

            let config = start.build(n, m, 11).unwrap();
            let mut t = Tetris::new(config, Xoshiro256pp::seed_from(11));
            let expect = t.run_until_all_emptied(20 * n as u64);
            assert_eq!(outcome.stop_round, expect, "start {start:?}");
        }
    }

    #[test]
    fn covered_scenario_matches_faulty_cover_time() {
        let n = 48;
        let seed = 3;
        let nf = n as f64;
        let cap = (400.0 * nf * nf.ln().powi(2)) as u64;
        let spec = ScenarioSpec::builder(n)
            .strategy(StrategySpec::Fifo)
            .stop(StopSpec::Covered)
            .adversary(
                AdversaryKindSpec::AllInOne,
                ScheduleSpec::Gamma { gamma: 6 },
            )
            .horizon_rounds(cap)
            .seed(seed)
            .build();
        let mut scenario = spec.scenario().unwrap();
        let outcome = scenario.run();

        let mut adv = AllInOneAdversary;
        let reference = rbb_traversal::faulty_cover_time(
            n,
            rbb_core::strategy::QueueStrategy::Fifo,
            FaultSchedule::gamma_n(6, n),
            &mut adv,
            seed,
            cap,
        );
        assert_eq!(outcome.stop_round, reference.cover_time);
        assert_eq!(outcome.faults, reference.faults_injected);
    }

    #[test]
    fn clean_covered_run_matches_plain_traversal() {
        let n = 32;
        let spec = ScenarioSpec::builder(n)
            .strategy(StrategySpec::Fifo)
            .stop(StopSpec::Covered)
            .horizon_rounds(10_000_000)
            .seed(9)
            .build();
        let outcome = spec.scenario().unwrap().run();
        let mut t = Traversal::new(n, rbb_core::strategy::QueueStrategy::Fifo, 9);
        assert_eq!(outcome.stop_round, t.run_to_cover(10_000_000));
    }

    #[test]
    fn legitimate_stop_matches_run_until() {
        let n = 128;
        let spec = ScenarioSpec::builder(n)
            .start(StartSpec::AllInOne)
            .stop(StopSpec::Legitimate)
            .horizon_rounds(20 * n as u64)
            .seed(6)
            .build();
        let outcome = spec.scenario().unwrap().run();

        let thr = LegitimacyThreshold::default();
        let mut p = LoadProcess::new(Config::all_in_one(n, n as u32), Xoshiro256pp::seed_from(6));
        let expect = p.run_until(20 * n as u64, |c| thr.is_legitimate(c));
        assert_eq!(outcome.stop_round, expect);
        assert!(outcome.stop_round.is_some());
    }

    #[test]
    fn immediate_stop_returns_round_zero() {
        let spec = ScenarioSpec::builder(64)
            .stop(StopSpec::Legitimate)
            .horizon_rounds(100)
            .build();
        let outcome = spec.scenario().unwrap().run();
        assert_eq!(outcome.stop_round, Some(0));
        assert_eq!(outcome.rounds, 0);
    }

    #[test]
    fn graph_topology_engine_matches_hand_built() {
        let spec = ScenarioSpec::builder(64)
            .topology(TopologySpec::Ring)
            .horizon_factor(10)
            .seed(21)
            .build();
        let mut scenario = spec.scenario().unwrap();
        let mut stack = ObserverStack::new().with_max_load();
        scenario.run_observed(&mut stack);

        let mut p = LoadProcess::legitimate_start(64, 21)
            .with_rule(Rule::Neighbors(Arc::new(rbb_graphs::ring(64))));
        let mut t = MaxLoadTracker::new();
        p.run(640, &mut t);
        assert_eq!(stack.max_load.unwrap().window_max(), t.window_max());
        assert_eq!(scenario.engine().config(), p.config());
    }

    #[test]
    fn lifo_adversary_graph_combo_needs_zero_new_code() {
        // The motivating example: LIFO + adversary + graph-restricted.
        let spec = ScenarioSpec::builder(32)
            .topology(TopologySpec::Torus)
            .strategy(StrategySpec::Lifo)
            .adversary(
                AdversaryKindSpec::FollowTheLeader,
                ScheduleSpec::Period { period: 50 },
            )
            .stop(StopSpec::Covered)
            .horizon_rounds(2_000_000)
            .seed(13)
            .build();
        let mut scenario = spec.scenario().unwrap();
        let outcome = scenario.run();
        assert!(outcome.faults > 0, "horizon long enough for faults");
        assert!(
            outcome.stop_round.is_some(),
            "torus LIFO walk should still cover"
        );
        // Torus of requested size 32 rounds to 6×6 = 36 nodes.
        assert_eq!(scenario.engine().n(), 36);
    }

    #[test]
    fn dchoice_spec_matches_hand_built() {
        let spec = ScenarioSpec::builder(256)
            .arrival(ArrivalSpec::DChoice { d: 2 })
            .horizon_factor(10)
            .seed(17)
            .build();
        let mut scenario = spec.scenario().unwrap();
        let mut stack = ObserverStack::new().with_max_load();
        scenario.run_observed(&mut stack);

        let mut p = LoadProcess::legitimate_start(256, 17).with_rule(Rule::BestOf(2));
        let mut t = MaxLoadTracker::new();
        p.run(2560, &mut t);
        assert_eq!(stack.max_load.unwrap().window_max(), t.window_max());
    }

    #[test]
    fn sparse_and_dense_scenarios_agree_bit_for_bit() {
        // Same spec, both engines, observers + legitimacy stop + adversary:
        // outcome and every observed statistic must coincide.
        let base = ScenarioSpec::builder(512)
            .balls(6)
            .start(StartSpec::AllInOne)
            .adversary(
                AdversaryKindSpec::AllInOne,
                ScheduleSpec::Period { period: 37 },
            )
            .horizon_rounds(300)
            .seed(17)
            .build();
        assert_eq!(base.resolved_engine(), EngineSpec::Sparse, "64·6 ≤ 512");
        let dense_spec = ScenarioSpec {
            engine: Some(EngineSpec::Dense),
            ..base.clone()
        };
        let sparse_spec = ScenarioSpec {
            engine: Some(EngineSpec::Sparse),
            ..base
        };

        let mut dense = dense_spec.scenario().unwrap();
        let mut sparse = sparse_spec.scenario().unwrap();
        let mut dense_stack = ObserverStack::new()
            .with_max_load()
            .with_empty_bins()
            .with_legitimacy(LegitimacyThreshold::default())
            .with_trace(10);
        let mut sparse_stack = dense_stack.clone();
        let a = dense.run_observed(&mut dense_stack);
        let b = sparse.run_observed(&mut sparse_stack);
        assert_eq!(a, b);
        assert_eq!(dense.engine().config(), sparse.engine().config());
        assert_eq!(
            dense_stack.max_load.as_ref().unwrap().window_max(),
            sparse_stack.max_load.as_ref().unwrap().window_max()
        );
        assert_eq!(
            dense_stack.empty_bins.as_ref().unwrap().min_empty(),
            sparse_stack.empty_bins.as_ref().unwrap().min_empty()
        );
        assert_eq!(
            dense_stack.trace.as_ref().unwrap().points(),
            sparse_stack.trace.as_ref().unwrap().points()
        );
    }

    #[test]
    fn sparse_all_emptied_stop_matches_dense() {
        for seed in [3u64, 29] {
            let spec = ScenarioSpec::builder(256)
                .balls(4)
                .start(StartSpec::Packed { k: 2 })
                .stop(StopSpec::AllEmptied)
                .horizon_rounds(5_000)
                .seed(seed)
                .build();
            let dense = ScenarioSpec {
                engine: Some(EngineSpec::Dense),
                ..spec.clone()
            }
            .scenario()
            .unwrap()
            .run();
            let sparse = ScenarioSpec {
                engine: Some(EngineSpec::Sparse),
                ..spec
            }
            .scenario()
            .unwrap()
            .run();
            assert_eq!(dense, sparse, "seed {seed}");
            assert!(dense.stop_round.is_some(), "4 balls empty quickly");
        }
    }

    #[test]
    fn sparse_scenario_scales_past_dense_feasibility() {
        // n = 10^7 with 200 balls for 500 rounds: a dense engine would
        // visit 5·10^9 slots; the sparse scenario finishes instantly.
        let spec = ScenarioSpec::builder(10_000_000)
            .balls(200)
            .start(StartSpec::RandomMultinomial { salt: 0xBEEF })
            .horizon_rounds(500)
            .seed(7)
            .build();
        assert_eq!(spec.resolved_engine(), EngineSpec::Sparse);
        let mut scenario = spec.scenario().unwrap();
        let mut stack = ObserverStack::new().with_max_load().with_empty_bins();
        let outcome = scenario.run_observed(&mut stack);
        assert_eq!(outcome.rounds, 500);
        assert_eq!(scenario.engine().balls(), 200);
        assert!(stack.empty_bins.unwrap().min_empty() >= 10_000_000 - 200);
    }

    #[test]
    fn one_shard_scenario_agrees_bit_for_bit_with_dense() {
        // The shards: 1 partition uses the engine-convention stream, so the
        // factory-built sharded scenario must reproduce the dense one
        // exactly — observers, adversary arm and all.
        let base = ScenarioSpec::builder(512)
            .adversary(
                AdversaryKindSpec::Packed { k: 3 },
                ScheduleSpec::Period { period: 41 },
            )
            .horizon_rounds(300)
            .seed(23)
            .build();
        let dense_spec = ScenarioSpec {
            engine: Some(EngineSpec::Dense),
            ..base.clone()
        };
        let sharded_spec = ScenarioSpec {
            engine: Some(EngineSpec::Sharded),
            shards: Some(1),
            ..base
        };
        let mut dense = dense_spec.scenario().unwrap();
        let mut sharded = sharded_spec.scenario().unwrap();
        let mut dense_stack = ObserverStack::new()
            .with_max_load()
            .with_empty_bins()
            .with_trace(10);
        let mut sharded_stack = dense_stack.clone();
        let a = dense.run_observed(&mut dense_stack);
        let b = sharded.run_observed(&mut sharded_stack);
        assert_eq!(a, b);
        assert_eq!(dense.engine().config(), sharded.engine().config());
        assert_eq!(
            dense_stack.trace.as_ref().unwrap().points(),
            sharded_stack.trace.as_ref().unwrap().points()
        );
    }

    #[test]
    fn sharded_scenario_is_reproducible_at_fixed_shard_count() {
        let spec = ScenarioSpec::builder(1000)
            .engine(EngineSpec::Sharded)
            .shards(4)
            .horizon_rounds(200)
            .seed(11)
            .build();
        let run = |spec: &ScenarioSpec| {
            let mut s = spec.scenario().unwrap();
            let mut stack = ObserverStack::new().with_max_load();
            let outcome = s.run_observed(&mut stack);
            (outcome, stack.max_load.unwrap().window_max())
        };
        assert_eq!(run(&spec), run(&spec.clone()));
    }

    #[test]
    fn auto_resolves_sharded_at_large_dense_n_and_builds() {
        // Above the auto threshold the dense load-only cell runs sharded;
        // keep the horizon tiny so the test stays fast at n = 2·10^6.
        let spec = ScenarioSpec::builder(crate::spec::SHARDED_AUTO_MIN_N)
            .horizon_rounds(3)
            .seed(5)
            .build();
        assert_eq!(spec.resolved_engine(), EngineSpec::Sharded);
        let mut scenario = spec.scenario().unwrap();
        let outcome = scenario.run();
        assert_eq!(outcome.rounds, 3);
        assert_eq!(
            scenario.engine().balls(),
            crate::spec::SHARDED_AUTO_MIN_N as u64
        );
    }

    #[test]
    fn unit_weight_spec_builds_the_same_engine() {
        // A `weights: unit` / `capacities: unbounded` spec must reproduce
        // the plain spec's run bit for bit — same engine, same stream.
        use crate::spec::{CapacitiesSpec, WeightsSpec};
        let plain = ScenarioSpec::builder(128)
            .horizon_rounds(300)
            .seed(9)
            .build();
        let unit = ScenarioSpec {
            weights: Some(WeightsSpec::Unit),
            capacities: Some(CapacitiesSpec::Unbounded),
            ..plain.clone()
        };
        let mut a = plain.scenario().unwrap();
        let mut b = unit.scenario().unwrap();
        let mut stack_a = ObserverStack::new().with_max_load();
        let mut stack_b = stack_a.clone();
        assert_eq!(a.run_observed(&mut stack_a), b.run_observed(&mut stack_b));
        assert_eq!(a.engine().config(), b.engine().config());
        assert!(!b.engine().weighted());
        assert_eq!(
            stack_a.max_load.unwrap().window_max(),
            stack_b.max_load.unwrap().window_max()
        );
    }

    #[test]
    fn one_pass_builds_the_engines_the_densified_start_builds() {
        // `build_engine` fills each load engine in one pass over the
        // start's entries; the public constructors fed the densified start
        // must build the same engine, for every start, storage and
        // weighting. Debug builds also check the overlay against the
        // storage after construction and after every round.
        use crate::spec::{CapacitiesSpec, WeightsSpec};
        let (n, seed) = (60, 41);
        let starts = [
            (StartSpec::OnePerBin, 60u64),
            (StartSpec::AllInOne, 45),
            (StartSpec::Packed { k: 7 }, 45),
            (StartSpec::Geometric, 45),
            (StartSpec::Random { salt: 0xFEED }, 45),
            (StartSpec::RandomMultinomial { salt: 0xBEEF }, 45),
        ];
        let storages = [
            (EngineSpec::Dense, 1),
            (EngineSpec::Sparse, 1),
            (EngineSpec::Sharded, 1),
            (EngineSpec::Sharded, 3),
        ];
        let snapshot = |e: &dyn Engine| serde_json::to_string(&e.snapshot().unwrap()).unwrap();
        for (start, m) in starts {
            for (engine, shards) in storages {
                for weighted in [false, true] {
                    let case = format!("{start:?} on {engine:?} x{shards}, weighted {weighted}");
                    let mut spec = ScenarioSpec::builder(n)
                        .balls(m)
                        .start(start)
                        .engine(engine)
                        .seed(seed)
                        .build();
                    if engine == EngineSpec::Sharded {
                        spec.shards = Some(shards);
                    }
                    if weighted {
                        spec.weights = Some(WeightsSpec::Zipf {
                            s: 0.8,
                            w_max: Some(30),
                        });
                        let caps = (0..n as u64).map(|b| 3 + 4 * (b % 5)).collect();
                        spec.capacities = Some(CapacitiesSpec::Explicit { caps });
                    }
                    let mut one_pass = build_engine(&spec).unwrap();
                    let config = start.build(n, m, seed).unwrap();
                    let (w, c) = (spec.core_weights(), spec.core_capacities());
                    let mut densified: Box<dyn Engine> = match engine {
                        EngineSpec::Sparse => {
                            let entries = config.loads().iter().zip(0u32..).map(|(&l, b)| (b, l));
                            let rng = engine_rng(seed);
                            Box::new(SparseLoadProcess::with_weights(n, entries, rng, w, c))
                        }
                        EngineSpec::Sharded => {
                            Box::new(ShardedLoadProcess::with_weights(config, seed, shards, w, c))
                        }
                        _ => Box::new(LoadProcess::with_weights(config, engine_rng(seed), w, c)),
                    };
                    assert_eq!(one_pass.weighted(), weighted, "{case}");
                    assert_eq!(snapshot(&*one_pass), snapshot(&*densified), "{case}");
                    for r in 0..50 {
                        assert_eq!(one_pass.step(), densified.step(), "{case}, round {r}");
                        let (a, b) = (&*one_pass, &*densified);
                        assert_eq!(
                            a.weighted_max_load(),
                            b.weighted_max_load(),
                            "{case}, round {r}"
                        );
                        assert_eq!(
                            a.capacity_violations(),
                            b.capacity_violations(),
                            "{case}, round {r}"
                        );
                    }
                    assert_eq!(one_pass.config(), densified.config(), "{case}");
                    let (a, b) = (one_pass.snapshot().unwrap(), densified.snapshot().unwrap());
                    assert_eq!(a.rng_states, b.rng_states, "{case}");
                    assert_eq!(snapshot(&*one_pass), snapshot(&*densified), "{case}");
                }
            }
        }
    }

    #[test]
    fn weighted_spec_matches_hand_built_engine() {
        use crate::spec::{CapacitiesSpec, WeightsSpec};
        let spec = ScenarioSpec::builder(64)
            .weights(WeightsSpec::Zipf {
                s: 1.0,
                w_max: None,
            })
            .capacities(CapacitiesSpec::Uniform { c: 50 })
            .horizon_rounds(200)
            .seed(31)
            .build();
        let mut scenario = spec.scenario().unwrap();
        scenario.run();
        let engine = scenario.engine();
        assert!(engine.weighted());

        let mut p = LoadProcess::with_weights(
            Config::one_per_bin(64),
            Xoshiro256pp::seed_from(31),
            spec.core_weights(),
            spec.core_capacities(),
        );
        for _ in 0..200 {
            p.step_batched();
        }
        assert_eq!(engine.config(), p.config());
        assert_eq!(engine.weighted_max_load(), p.weighted_max_load());
        assert_eq!(engine.total_weight(), p.total_weight());
        assert_eq!(engine.capacity_violations(), p.capacity_violations());
    }

    #[test]
    fn weighted_sparse_and_dense_scenarios_agree_bit_for_bit() {
        use crate::spec::{CapacitiesSpec, WeightsSpec};
        let base = ScenarioSpec::builder(512)
            .balls(6)
            .start(StartSpec::AllInOne)
            .weights(WeightsSpec::Explicit {
                weights: vec![9, 1, 4, 1, 25, 2],
            })
            .capacities(CapacitiesSpec::Uniform { c: 30 })
            .horizon_rounds(300)
            .seed(17)
            .build();
        assert_eq!(base.resolved_engine(), EngineSpec::Sparse);
        let dense_spec = ScenarioSpec {
            engine: Some(EngineSpec::Dense),
            ..base.clone()
        };
        let sparse_spec = ScenarioSpec {
            engine: Some(EngineSpec::Sparse),
            ..base
        };
        let mut dense = dense_spec.scenario().unwrap();
        let mut sparse = sparse_spec.scenario().unwrap();
        let a = dense.run();
        let b = sparse.run();
        assert_eq!(a, b);
        assert_eq!(dense.engine().config(), sparse.engine().config());
        assert_eq!(
            dense.engine().weighted_max_load(),
            sparse.engine().weighted_max_load()
        );
        assert_eq!(
            dense.engine().capacity_violations(),
            sparse.engine().capacity_violations()
        );
    }

    #[test]
    fn weighted_legitimate_stop_uses_the_weighted_bound() {
        use crate::spec::WeightsSpec;
        // All mass in one bin with heavy balls: the run must stop at the
        // first round whose *weighted* max load clears the weighted bound.
        let n = 128;
        let spec = ScenarioSpec::builder(n)
            .start(StartSpec::AllInOne)
            .balls(n as u64)
            .weights(WeightsSpec::Zipf {
                s: 1.0,
                w_max: Some(8),
            })
            .stop(StopSpec::Legitimate)
            .horizon_rounds(40 * n as u64)
            .seed(6)
            .build();
        let mut scenario = spec.scenario().unwrap();
        let outcome = scenario.run();
        let stop_round = outcome.stop_round.expect("legitimizes within horizon");

        // Replay by hand against the weighted threshold.
        let thr = LegitimacyThreshold::default();
        let mut p = LoadProcess::with_weights(
            Config::all_in_one(n, n as u32),
            Xoshiro256pp::seed_from(6),
            spec.core_weights(),
            spec.core_capacities(),
        );
        let bound = thr.weighted_bound(n, p.total_weight(), p.balls());
        let mut expect = None;
        for _ in 0..40 * n as u64 {
            p.step_batched();
            if p.weighted_max_load() <= bound {
                expect = Some(p.round());
                break;
            }
        }
        assert_eq!(Some(stop_round), expect);
        // The weighted stop is strictly later than the unit-load stop
        // would be at this skew: the weighted max dominates the unit max.
        assert!(scenario.engine().weighted_max_load() <= bound);
    }

    #[test]
    fn dchoice_spec_with_an_adversary_runs_and_conserves_balls() {
        // d-choice runs on the load engine, so it takes the unit fault
        // path: every fault round reassigns all 64 balls, none is lost.
        let spec = ScenarioSpec::builder(64)
            .arrival(ArrivalSpec::DChoice { d: 2 })
            .adversary(
                AdversaryKindSpec::AllInOne,
                ScheduleSpec::Period { period: 50 },
            )
            .horizon_rounds(500)
            .seed(8)
            .build();
        let mut scenario = spec.scenario().unwrap();
        let outcome = scenario.run();
        assert_eq!(outcome.faults, 10);
        assert_eq!(scenario.engine().balls(), 64);
        assert_eq!(scenario.engine().config().total_balls(), 64);
    }

    #[test]
    fn outcome_counts_faults_on_horizon_runs() {
        let spec = ScenarioSpec::builder(64)
            .adversary(
                AdversaryKindSpec::AllInOne,
                ScheduleSpec::Period { period: 100 },
            )
            .horizon_rounds(1000)
            .seed(2)
            .build();
        let outcome = spec.scenario().unwrap().run();
        assert_eq!(outcome.rounds, 1000);
        assert_eq!(outcome.faults, 10);
        assert_eq!(outcome.stop_round, None);
    }
}
