//! Snapshot/restore round trip: for every load engine (dense, sparse,
//! sharded, and the d-choice rule on dense storage), a snapshot taken
//! mid-trajectory — serialized to JSON and
//! parsed back — restores an engine whose remaining trajectory is
//! bit-identical to the uninterrupted original, across seeds, start
//! configurations, shard counts, and interleaved `place`/`depart` traffic.
//! This is the invariant the `rbb-serve` daemon's checkpointing rides on.
//! A state carrying a key its layout does not name, at any layout version,
//! is refused.

mod common;

use proptest::prelude::*;

use rbb_core::engine::{Engine, Incremental};
use rbb_core::snapshot::{
    restore, SnapshotState, SNAPSHOT_VERSION, SNAPSHOT_VERSION_BEST_OF, SNAPSHOT_VERSION_WEIGHTED,
};
use rbb_sim::{ArrivalSpec, CapacitiesSpec, EngineSpec, ScenarioSpec, StartSpec, WeightsSpec};
use serde::{Deserialize as _, Serialize as _};

/// The three engines with a snapshot surface, with a shard-count axis for
/// the sharded one, and the d-choice rule (layout version 3) on the dense
/// one.
fn engine_axis() -> Vec<(EngineSpec, Option<usize>, ArrivalSpec)> {
    vec![
        (EngineSpec::Dense, None, ArrivalSpec::Uniform),
        (EngineSpec::Dense, None, ArrivalSpec::DChoice { d: 3 }),
        (EngineSpec::Sparse, None, ArrivalSpec::Uniform),
        (EngineSpec::Sharded, Some(1), ArrivalSpec::Uniform),
        (EngineSpec::Sharded, Some(3), ArrivalSpec::Uniform),
        (EngineSpec::Sharded, Some(4), ArrivalSpec::Uniform),
    ]
}

fn build(
    (engine, shards, arrival): (EngineSpec, Option<usize>, ArrivalSpec),
    start: StartSpec,
    n: usize,
    seed: u64,
) -> Box<dyn Engine> {
    let mut b = ScenarioSpec::builder(n)
        .name("snapshot-roundtrip")
        .start(start)
        .seed(seed)
        .arrival(arrival)
        .engine(engine);
    if let Some(k) = shards {
        b = b.shards(k);
    }
    let spec = b.build();
    spec.validate().expect("axis specs must validate");
    rbb_sim::build_engine(&spec).expect("factory")
}

/// The incremental surface every load engine has.
fn inc(e: &mut dyn Engine) -> &mut dyn Incremental {
    e.incremental().expect("load engines place and depart")
}

/// Asserts two engines agree on every cheap observable.
fn assert_twins(a: &dyn Engine, b: &dyn Engine, context: &str) {
    assert_eq!(a.round(), b.round(), "round diverged {context}");
    assert_eq!(a.balls(), b.balls(), "mass diverged {context}");
    assert_eq!(a.max_load(), b.max_load(), "max load diverged {context}");
    assert_eq!(
        a.empty_bins(),
        b.empty_bins(),
        "empty bins diverged {context}"
    );
    // The sparse engine's occupancy map order is history-dependent and
    // deliberately not trajectory state (each round draws once per occupied
    // bin, destinations i.i.d.), so compare the sets, then per-bin loads.
    let sort = |e: &dyn Engine| {
        let mut bins = e.nonempty_bins_list().unwrap_or_default();
        bins.sort_unstable();
        bins
    };
    let occupied = sort(a);
    assert_eq!(occupied, sort(b), "occupancy diverged {context}");
    for bin in occupied {
        assert_eq!(
            a.bin_load(bin as usize),
            b.bin_load(bin as usize),
            "load of bin {bin} diverged {context}"
        );
    }
}

/// Runs `k` rounds plus some incremental traffic, snapshots, round-trips
/// the state through JSON, restores, then drives original and restoree in
/// lockstep for `m` more rounds of mixed traffic.
fn assert_roundtrip(
    axis: (EngineSpec, Option<usize>, ArrivalSpec),
    start: StartSpec,
    n: usize,
    seed: u64,
    k: u64,
    m: u64,
) {
    let label = format!("({axis:?}, n {n}, seed {seed})");
    let mut original = build(axis, start, n, seed);
    for _ in 0..k {
        original.step_batched();
    }
    // Incremental traffic before the snapshot: arrivals and departures are
    // part of the state the checkpoint must carry.
    let b0 = inc(original.as_mut()).place();
    inc(original.as_mut()).depart(b0);
    inc(original.as_mut()).place();

    let state = original
        .snapshot()
        .unwrap_or_else(|| panic!("{label}: load engines must snapshot"));
    let json = serde_json::to_string(&state).expect("snapshot states serialize");
    let parsed: SnapshotState = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("{label}: snapshot JSON must parse back: {e}"));
    assert_eq!(parsed, state, "{label}: JSON round trip must be lossless");
    common::assert_stray_keys_refused::<SnapshotState>(&state.serialize(), seed);

    let mut restored = restore(&parsed).unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    assert_twins(original.as_ref(), restored.as_ref(), &label);

    // Lockstep resume: rounds, placements, and departures must all replay
    // bit-identically (same RNG stream state ⇒ same draws).
    for r in 0..m {
        let moved_a = original.step_batched();
        let moved_b = restored.step_batched();
        assert_eq!(
            moved_a, moved_b,
            "{label}: movers diverged at resume round {r}"
        );
        let pa = inc(original.as_mut()).place();
        let pb = inc(restored.as_mut()).place();
        assert_eq!(pa, pb, "{label}: placement diverged at resume round {r}");
        assert_eq!(
            inc(original.as_mut()).depart(pa),
            inc(restored.as_mut()).depart(pb),
            "{label}: departure diverged at resume round {r}"
        );
        assert_twins(original.as_ref(), restored.as_ref(), &label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random (n, seed, split) across engines × starts.
    #[test]
    fn snapshot_restore_resumes_bit_identically(
        n in 9usize..65,
        seed in any::<u64>(),
        k in 1u64..30,
        m in 5u64..20,
    ) {
        for axis in engine_axis() {
            for start in [StartSpec::OnePerBin, StartSpec::AllInOne, StartSpec::Geometric] {
                assert_roundtrip(axis, start, n, seed, k, m);
            }
        }
    }
}

/// A fixed-seed pass so the axis is exercised even with a trimmed property
/// runner.
#[test]
fn snapshot_axis_pinned_seeds() {
    for axis in engine_axis() {
        for seed in [1u64, 0xBEEF] {
            assert_roundtrip(axis, StartSpec::OnePerBin, 33, seed, 25, 10);
        }
    }
}

/// A snapshot is a value: restoring the same state twice yields two
/// independent engines on the same trajectory (no shared mutability).
#[test]
fn one_snapshot_restores_many_identical_engines() {
    let axis = (EngineSpec::Sharded, Some(4), ArrivalSpec::Uniform);
    let mut e = build(axis, StartSpec::AllInOne, 48, 7);
    for _ in 0..20 {
        e.step();
    }
    let state = e.snapshot().expect("snapshot");
    let mut a = restore(&state).expect("restore a");
    let mut b = restore(&state).expect("restore b");
    for _ in 0..15 {
        assert_eq!(a.step_batched(), b.step_batched());
        assert_eq!(inc(a.as_mut()).place(), inc(b.as_mut()).place());
    }
    assert_twins(a.as_ref(), b.as_ref(), "(twin restores)");
}

/// Layout versions 1, 2 and 3 each refuse a key they do not name, at the
/// top level and inside the weighted section.
#[test]
fn every_layout_version_refuses_stray_keys() {
    let weighted = |engine| {
        ScenarioSpec::builder(40)
            .weights(WeightsSpec::Zipf {
                s: 1.0,
                w_max: None,
            })
            .capacities(CapacitiesSpec::Uniform { c: 30 })
            .engine(engine)
            .seed(5)
            .build()
    };
    let unit = |arrival| ScenarioSpec::builder(40).arrival(arrival).seed(5).build();
    let cases = [
        (unit(ArrivalSpec::Uniform), SNAPSHOT_VERSION),
        (weighted(EngineSpec::Dense), SNAPSHOT_VERSION_WEIGHTED),
        (weighted(EngineSpec::Sparse), SNAPSHOT_VERSION_WEIGHTED),
        (weighted(EngineSpec::Sharded), SNAPSHOT_VERSION_WEIGHTED),
        (
            unit(ArrivalSpec::DChoice { d: 2 }),
            SNAPSHOT_VERSION_BEST_OF,
        ),
    ];
    for (seed, (spec, version)) in (0u64..).zip(cases) {
        let mut engine = rbb_sim::build_engine(&spec).expect("factory");
        engine.step();
        let state = engine.snapshot().expect("snapshot");
        assert_eq!(state.version, version, "{spec:?}");
        common::assert_stray_keys_refused::<SnapshotState>(&state.serialize(), seed);
    }
}

/// Corrupted snapshots are rejected by `restore`, not trusted.
#[test]
fn restore_rejects_corruption() {
    let axis = (EngineSpec::Dense, None, ArrivalSpec::Uniform);
    let mut e = build(axis, StartSpec::OnePerBin, 16, 3);
    e.step();
    let good = e.snapshot().expect("snapshot");
    let json = serde_json::to_string(&good).expect("serialize");

    // Flip the mass so entries no longer sum to `balls`.
    let mut tampered: SnapshotState = serde_json::from_str(&json).expect("parse");
    tampered.balls += 1;
    assert!(
        restore(&tampered).is_err(),
        "mass mismatch must be rejected"
    );

    // Truncate the RNG streams.
    let mut tampered: SnapshotState = serde_json::from_str(&json).expect("parse");
    tampered.rng_states.clear();
    assert!(
        restore(&tampered).is_err(),
        "missing streams must be rejected"
    );

    // Structural corruption at the JSON layer: a wrong-kind field.
    let broken = json.replace("\"dense\"", "\"marble\"");
    let parsed = serde_json::parse_value_str(&broken).expect("still JSON");
    let state = SnapshotState::deserialize(&parsed).expect("shape still parses");
    assert!(
        restore(&state).is_err(),
        "unknown engine kinds must be rejected"
    );
}
