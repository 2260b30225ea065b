//! Cross-engine equivalence for **every** [`Engine`] implementation the
//! scenario factory can build. The load engine's rows (dense, sparse and
//! sharded storage, unit and weighted, and the d-choice and graph-walk
//! destination rules) step against the scalar
//! `rbb_core::load::reference_round` under their rule, seeded from the
//! engine's own snapshot (from the spec for the graph walk, which has
//! none); every other row checks that `step` and `step_batched` produce
//! bit-identical trajectories, so the contract stays honest as kernels get
//! added. Mover counts are pinned as well as configurations.
//!
//! Engines are built through `rbb_sim::build_engine` from one spec, so the
//! matrix automatically tracks the factory table (clique engines, d-choice,
//! Tetris variants, traversal, and both graph walks: loads under the
//! neighbor rule, tokens as the traversal over a ball engine on the graph).

use std::sync::Arc;

use proptest::prelude::*;

use rbb_core::engine::Engine;
use rbb_core::load::{reference_round, Rule};
use rbb_core::rng::Xoshiro256pp;
use rbb_sim::seed::engine_rng;
use rbb_sim::{ArrivalSpec, ScenarioSpec, StopSpec, StrategySpec, TopologySpec};

/// Every `impl Engine` type the matrix below drives (indirectly, through
/// `rbb_sim::build_engine`). rbb-lint's `engine-proptest` repo check
/// cross-references the workspace's Engine impls against this file, so a
/// new engine must be added both to [`engine_matrix`] and to this list.
///
/// The load engine ([`rbb_core::load::LoadEngine`], behind the three
/// storage aliases) is covered in both its unit and its **weighted**
/// configurations (the `*-weighted` matrix labels) and, on dense storage,
/// under the d-choice and graph-walk destination rules; the
/// weighted-specific laws — unit degeneration, weight obliviousness,
/// snapshot round-trip — live in `tests/proptest_weighted.rs`.
const COVERED_ENGINES: &[&str] = &[
    "LoadEngine",
    "LoadProcess",
    "LoadProcess (weighted)",
    "LoadProcess (best of d)",
    "LoadProcess (neighbors)",
    "SparseLoadProcess",
    "SparseLoadProcess (weighted)",
    "ShardedLoadProcess",
    "ShardedLoadProcess (weighted)",
    "BallProcess",
    "Tetris",
    "BatchedTetris",
    "Traversal",
    "Traversal (graph token walk)",
];

/// Every distinct engine family the factory serves, as spec fragments:
/// `(label, arrival, strategy, topology, stop)`.
type Combo = (
    &'static str,
    ArrivalSpec,
    Option<StrategySpec>,
    TopologySpec,
    StopSpec,
);

fn engine_matrix() -> Vec<Combo> {
    vec![
        (
            "load",
            ArrivalSpec::Uniform,
            None,
            TopologySpec::Complete,
            StopSpec::Horizon,
        ),
        (
            // The sparse occupancy storage (spec_for forces engine: sparse
            // for this label).
            "load-sparse",
            ArrivalSpec::Uniform,
            None,
            TopologySpec::Complete,
            StopSpec::Horizon,
        ),
        (
            // The sharded storage at 4 shards (spec_for forces engine:
            // sharded), so the reference runs four streams.
            "load-sharded",
            ArrivalSpec::Uniform,
            None,
            TopologySpec::Complete,
            StopSpec::Horizon,
        ),
        (
            // The dense engine carrying the weighted overlay (spec_for
            // adds zipf weights + a uniform capacity for `*-weighted`
            // labels): the reference law must hold with the overlay in
            // play, not just on the unit fast path.
            "load-weighted",
            ArrivalSpec::Uniform,
            None,
            TopologySpec::Complete,
            StopSpec::Horizon,
        ),
        (
            "load-sparse-weighted",
            ArrivalSpec::Uniform,
            None,
            TopologySpec::Complete,
            StopSpec::Horizon,
        ),
        (
            "load-sharded-weighted",
            ArrivalSpec::Uniform,
            None,
            TopologySpec::Complete,
            StopSpec::Horizon,
        ),
        (
            "ball-fifo",
            ArrivalSpec::Uniform,
            Some(StrategySpec::Fifo),
            TopologySpec::Complete,
            StopSpec::Horizon,
        ),
        (
            "ball-lifo",
            ArrivalSpec::Uniform,
            Some(StrategySpec::Lifo),
            TopologySpec::Complete,
            StopSpec::Horizon,
        ),
        (
            "ball-random",
            ArrivalSpec::Uniform,
            Some(StrategySpec::Random),
            TopologySpec::Complete,
            StopSpec::Horizon,
        ),
        (
            "dchoice",
            ArrivalSpec::DChoice { d: 2 },
            None,
            TopologySpec::Complete,
            StopSpec::Horizon,
        ),
        (
            "tetris",
            ArrivalSpec::Tetris,
            None,
            TopologySpec::Complete,
            StopSpec::Horizon,
        ),
        (
            "batched-tetris",
            ArrivalSpec::BatchedTetris { lambda: 0.75 },
            None,
            TopologySpec::Complete,
            StopSpec::Horizon,
        ),
        (
            "traversal",
            ArrivalSpec::Uniform,
            Some(StrategySpec::Fifo),
            TopologySpec::Complete,
            StopSpec::Covered,
        ),
        (
            "graph-load-ring",
            ArrivalSpec::Uniform,
            None,
            TopologySpec::Ring,
            StopSpec::Horizon,
        ),
        (
            "graph-load-torus",
            ArrivalSpec::Uniform,
            None,
            TopologySpec::Torus,
            StopSpec::Horizon,
        ),
        (
            "graph-token-hypercube",
            ArrivalSpec::Uniform,
            Some(StrategySpec::Lifo),
            TopologySpec::Hypercube,
            StopSpec::Horizon,
        ),
        (
            "graph-token-star",
            ArrivalSpec::Uniform,
            Some(StrategySpec::Random),
            TopologySpec::Star,
            StopSpec::Horizon,
        ),
    ]
}

fn spec_for(combo: &Combo, n: usize, seed: u64) -> ScenarioSpec {
    let (label, arrival, strategy, topology, stop) = combo;
    let mut b = ScenarioSpec::builder(n)
        .name(*label)
        .arrival(*arrival)
        .topology(*topology)
        .stop(*stop)
        .horizon_rounds(1)
        .seed(seed);
    if let Some(s) = strategy {
        b = b.strategy(*s);
    }
    if label.starts_with("load-sparse") {
        b = b.engine(rbb_sim::EngineSpec::Sparse);
    }
    if label.starts_with("load-sharded") {
        b = b.engine(rbb_sim::EngineSpec::Sharded).shards(4);
    }
    if label.ends_with("-weighted") {
        b = b
            .weights(rbb_sim::WeightsSpec::Zipf {
                s: 1.0,
                w_max: Some(8),
            })
            .capacities(rbb_sim::CapacitiesSpec::Uniform { c: 3 });
    }
    b.build()
}

/// Steps one engine scalar and its twin batched — or, for the load rows,
/// the engine against the reference round — comparing every round.
fn assert_paths_identical(combo: &Combo, n: usize, seed: u64, rounds: u64) {
    let spec = spec_for(combo, n, seed);
    spec.validate()
        .unwrap_or_else(|e| panic!("matrix combo '{}' must be a valid spec: {e}", combo.0));
    let label = combo.0;
    if label.starts_with("load") || label == "dchoice" {
        let mut engine = rbb_sim::build_engine(&spec).expect("factory");
        assert_matches_reference(engine.as_mut(), label, seed, rounds);
        return;
    }
    if label.starts_with("graph-load") {
        assert_walk_matches_reference(&spec, label, rounds);
        return;
    }
    let mut scalar = rbb_sim::build_engine(&spec).expect("factory");
    let mut batched = rbb_sim::build_engine(&spec).expect("factory");
    for r in 0..rounds {
        let a = scalar.step();
        let b = batched.step_batched();
        assert_eq!(
            a, b,
            "{}: mover count diverged at round {r} (n = {n}, seed = {seed})",
            combo.0
        );
        assert_eq!(
            scalar.config(),
            batched.config(),
            "{}: trajectory diverged at round {r} (n = {n}, seed = {seed})",
            combo.0
        );
        assert_eq!(scalar.round(), batched.round());
        assert_eq!(scalar.balls(), batched.balls());
        assert_eq!(scalar.covered(), batched.covered());
        assert_eq!(scalar.min_progress(), batched.min_progress());
    }
}

/// Steps a load engine against the reference round seeded from its own
/// snapshot (entries → loads, `rng_states` → streams, `best_of` → rule),
/// so one helper covers every storage at every shard count, weighted or
/// not, and the d-choice rule: mover counts and loads every round, stream
/// states at the end.
fn assert_matches_reference(engine: &mut dyn Engine, label: &str, seed: u64, rounds: u64) {
    let snap = engine.snapshot().expect("load engines snapshot");
    let rule = snap.best_of.map_or(Rule::Uniform, Rule::BestOf);
    let mut loads = vec![0u32; snap.n];
    for &(bin, load) in &snap.entries {
        loads[bin as usize] = load;
    }
    let mut streams: Vec<Xoshiro256pp> = snap
        .rng_states
        .iter()
        .map(|&s| Xoshiro256pp::from_state(s))
        .collect();
    for r in 0..rounds {
        assert_eq!(
            engine.step(),
            reference_round(&mut loads, &mut streams, &rule),
            "{label}: mover count diverged at round {r} (seed = {seed})"
        );
        assert_eq!(
            engine.config().loads(),
            &loads[..],
            "{label}: trajectory diverged at round {r} (seed = {seed})"
        );
    }
    let states: Vec<[u64; 4]> = streams.iter().map(Xoshiro256pp::state).collect();
    let snap = engine.snapshot().expect("load engines snapshot");
    assert_eq!(snap.rng_states, states, "{label}: stream states diverged");
    assert_eq!(snap.round, rounds);
}

/// Steps a graph walk against the reference round under its neighbor
/// rule. The walk has no snapshot (it cannot carry the graph), so the
/// reference starts from the spec: its graph, its one-per-node start and
/// the engine stream of its seed. Mover counts and loads every round; at
/// the end one placement, a uniform draw from the engine stream, must
/// match the reference stream's next draw.
fn assert_walk_matches_reference(spec: &ScenarioSpec, label: &str, rounds: u64) {
    let mut engine = rbb_sim::build_engine(spec).expect("factory");
    assert!(
        engine.snapshot().is_none(),
        "{label}: walks do not snapshot"
    );
    let graph = spec.topology.build(spec.n, spec.seed);
    let n = graph.n();
    let mut loads = spec
        .start
        .build(n, n as u64, spec.seed)
        .expect("one per node")
        .loads()
        .to_vec();
    let mut streams = [engine_rng(spec.seed)];
    let rule = Rule::Neighbors(Arc::new(graph));
    for r in 0..rounds {
        assert_eq!(
            engine.step(),
            reference_round(&mut loads, &mut streams, &rule),
            "{label}: mover count diverged at round {r} (seed = {})",
            spec.seed
        );
        assert_eq!(
            engine.config().loads(),
            &loads[..],
            "{label}: trajectory diverged at round {r} (seed = {})",
            spec.seed
        );
    }
    let placed = engine.incremental().expect("walks place").place();
    assert_eq!(
        placed,
        streams[0].uniform_usize(n),
        "{label}: stream states diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random (n, seed, rounds) across the whole engine matrix.
    #[test]
    fn step_and_step_batched_are_bit_identical_for_every_engine(
        n in 9usize..65,
        seed in any::<u64>(),
        rounds in 20u64..60,
    ) {
        for combo in engine_matrix() {
            assert_paths_identical(&combo, n, seed, rounds);
        }
    }
}

/// A fixed-seed pass with more rounds, so the matrix is exercised even if
/// the property runner's case count is trimmed.
#[test]
fn engine_matrix_pinned_seeds() {
    for combo in engine_matrix() {
        for seed in [1u64, 0xDEAD] {
            assert_paths_identical(&combo, 33, seed, 100);
        }
    }
}

/// The coverage list exists for rbb-lint's `engine-proptest`
/// cross-reference; keep it duplicate-free so a stale or copy-pasted
/// entry is noticed.
#[test]
fn covered_engines_list_has_no_duplicates() {
    let mut names = COVERED_ENGINES.to_vec();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), COVERED_ENGINES.len());
}
