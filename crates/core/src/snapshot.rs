//! Bit-exact, serializable snapshots of engine state.
//!
//! A [`SnapshotState`] captures everything a load engine needs to resume a
//! trajectory *exactly*: the occupied-bin loads, the raw 256-bit state of
//! every RNG stream the engine owns, and the round/ball counters. Restoring
//! through [`restore`] (or [`crate::load::LoadEngine::from_snapshot`])
//! yields an engine whose remaining trajectory is bit-identical to the
//! uninterrupted run — the contract `tests/proptest_snapshot.rs` and the
//! `ci.sh` serve stage pin for the dense, sparse, and sharded engines.
//!
//! Scratch buffers (destination batches, shard outboxes) and derived caches
//! (dense-view memos, the Lemire sampler) are deliberately **not** part of
//! the state: they never influence the trajectory and are rebuilt from `n`
//! on restore.
//!
//! The struct serializes through the workspace serde stub, so a snapshot
//! renders as a single JSON object — the wire format `rbb-serve` uses for
//! its `snapshot`/`restore` requests and checkpoint files.

use serde::{Deserialize, Serialize};

use crate::engine::Engine;
use crate::load::MAX_BEST_OF;
use crate::process::LoadProcess;
use crate::sharded::ShardedLoadProcess;
use crate::sparse::SparseLoadProcess;
use crate::weights::Capacities;

/// Version tag of the original (unit-weight, unbounded-capacity) layout.
/// Engines in the unit configuration still emit exactly this version with
/// byte-identical serialization, so every pre-weighted snapshot on disk
/// restores unchanged.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Version tag of the weighted layout: version 1 plus a `weighted` section
/// ([`WeightedSection`]) carrying the per-bin weight queues and the
/// capacity bounds.
pub const SNAPSHOT_VERSION_WEIGHTED: u32 = 2;

/// Version tag of a d-choice engine's layout: version 1 or 2 plus a
/// `best_of` key recording `d` (see [`crate::load::Rule::BestOf`]). Its own
/// tag, because a reader of versions 1 and 2 skipped unknown keys and would
/// have resumed the snapshot as the uniform process.
pub const SNAPSHOT_VERSION_BEST_OF: u32 = 3;

/// Engine-kind tag of [`LoadProcess`] snapshots.
pub const ENGINE_DENSE: &str = "dense";
/// Engine-kind tag of [`SparseLoadProcess`] snapshots.
pub const ENGINE_SPARSE: &str = "sparse";
/// Engine-kind tag of [`ShardedLoadProcess`] snapshots.
pub const ENGINE_SHARDED: &str = "sharded";

/// A snapshot failed to validate or restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// The complete, serializable state of a load engine at a round boundary.
///
/// Invariants (enforced by [`SnapshotState::validate`], which every restore
/// path runs):
///
/// * `entries` lists `(bin, load)` pairs with strictly increasing bin
///   indices, every bin `< n`, and every load `> 0` — a canonical sparse
///   encoding, identical for all three engines at equal configurations.
/// * `balls` equals the sum of the entry loads and fits a `u32` (the
///   workspace-wide ball-count bound).
/// * `rng_states` holds one xoshiro256++ state per engine stream — exactly
///   one for the dense and sparse engines, one per shard (in shard order)
///   for the sharded engine — and none of them is the all-zero fixed point.
/// * `weighted` is present when `version` is [`SNAPSHOT_VERSION_WEIGHTED`],
///   may be present at [`SNAPSHOT_VERSION_BEST_OF`], and is absent
///   otherwise.
/// * `best_of` is present exactly when `version` is
///   [`SNAPSHOT_VERSION_BEST_OF`], holds `2 ≤ d ≤` [`MAX_BEST_OF`], and
///   only on a dense engine.
///
/// An absent section is left out of the JSON, not written as `null`, so a
/// version-1 snapshot is byte-identical to the pre-weighted layout. A key
/// the layout does not name is refused.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SnapshotState {
    /// Layout version ([`SNAPSHOT_VERSION`], [`SNAPSHOT_VERSION_WEIGHTED`]
    /// or [`SNAPSHOT_VERSION_BEST_OF`]).
    pub version: u32,
    /// Engine kind: `"dense"`, `"sparse"`, or `"sharded"`.
    pub engine: String,
    /// Number of bins.
    pub n: usize,
    /// Shard count (1 for the dense and sparse engines).
    pub shards: usize,
    /// Rounds completed so far.
    pub round: u64,
    /// Balls currently in the system.
    pub balls: u64,
    /// Occupied bins as `(bin, load)` pairs, sorted by bin index.
    pub entries: Vec<(u32, u32)>,
    /// Raw xoshiro256++ states, one per engine stream.
    pub rng_states: Vec<[u64; 4]>,
    /// Weight queues and capacity bounds (see the invariants above).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub weighted: Option<WeightedSection>,
    /// The `d` of a d-choice engine — `Some` iff the layout version is
    /// [`SNAPSHOT_VERSION_BEST_OF`].
    #[serde(skip_serializing_if = "Option::is_none")]
    pub best_of: Option<usize>,
}

/// The version-2 weighted section: per-bin FIFO weight queues plus the
/// serialized capacity bounds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WeightedSection {
    /// `(bin, weights front→back)` per occupied bin, sorted by bin index.
    /// Empty for a unit-weight engine that only observes capacities.
    pub queues: Vec<(u32, Vec<u32>)>,
    /// Capacity kind tag: `"unbounded"`, `"uniform"`, or `"explicit"`.
    pub cap_kind: String,
    /// Capacity bounds: empty, one shared value, or one per bin.
    pub caps: Vec<u64>,
}

impl WeightedSection {
    /// The decoded capacity bounds.
    pub fn capacities(&self) -> Result<Capacities, SnapshotError> {
        Capacities::from_parts(&self.cap_kind, &self.caps).map_err(SnapshotError)
    }
}

impl SnapshotState {
    /// Checks every structural invariant of the snapshot. All restore paths
    /// call this first, so a corrupted or hand-edited snapshot fails with an
    /// actionable message instead of resuming a wrong trajectory.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        let err = |msg: String| Err(SnapshotError(msg));
        if !(SNAPSHOT_VERSION..=SNAPSHOT_VERSION_BEST_OF).contains(&self.version) {
            return err(format!(
                "snapshot version {} unsupported (this build reads versions \
                 {SNAPSHOT_VERSION} to {SNAPSHOT_VERSION_BEST_OF})",
                self.version
            ));
        }
        match (self.best_of, self.version) {
            (Some(d), SNAPSHOT_VERSION_BEST_OF) => {
                if !(2..=MAX_BEST_OF).contains(&d) {
                    return err(format!(
                        "best_of = {d}: a d-choice snapshot needs 2 <= d <= {MAX_BEST_OF}"
                    ));
                }
                if self.engine != ENGINE_DENSE {
                    return err(format!(
                        "best_of applies to dense snapshots only, not '{}'",
                        self.engine
                    ));
                }
            }
            (None, SNAPSHOT_VERSION_BEST_OF) => {
                return err(format!(
                    "version {SNAPSHOT_VERSION_BEST_OF} snapshots require a best_of key"
                ));
            }
            (Some(_), _) => {
                return err(format!(
                    "version {} snapshots carry no best_of key (that is version \
                     {SNAPSHOT_VERSION_BEST_OF})",
                    self.version
                ));
            }
            (None, _) => {}
        }
        match (&self.weighted, self.version) {
            (None, SNAPSHOT_VERSION)
            | (Some(_), SNAPSHOT_VERSION_WEIGHTED)
            | (_, SNAPSHOT_VERSION_BEST_OF) => {}
            (Some(_), _) => {
                return err(format!(
                    "version {} snapshots carry no weighted section (that is version \
                     {SNAPSHOT_VERSION_WEIGHTED})",
                    self.version
                ));
            }
            (None, _) => {
                return err(format!(
                    "version {} snapshots require a weighted section",
                    self.version
                ));
            }
        }
        if self.n == 0 {
            return err("snapshot has zero bins".to_string());
        }
        if self.n > u32::MAX as usize + 1 {
            return err(format!("bin count {} exceeds the u32 index range", self.n));
        }
        let expected_streams = match self.engine.as_str() {
            ENGINE_DENSE | ENGINE_SPARSE => {
                if self.shards != 1 {
                    return err(format!(
                        "{} engine must have shards = 1, got {}",
                        self.engine, self.shards
                    ));
                }
                1
            }
            ENGINE_SHARDED => {
                if self.shards == 0 || self.shards > self.n {
                    return err(format!(
                        "shard count {} outside 1..={} (the bin count)",
                        self.shards, self.n
                    ));
                }
                self.shards
            }
            other => {
                return err(format!(
                    "unknown engine kind '{other}' (dense | sparse | sharded)"
                ))
            }
        };
        if self.rng_states.len() != expected_streams {
            return err(format!(
                "{} engine expects {expected_streams} RNG stream(s), snapshot has {}",
                self.engine,
                self.rng_states.len()
            ));
        }
        for (i, s) in self.rng_states.iter().enumerate() {
            if *s == [0, 0, 0, 0] {
                return err(format!(
                    "RNG stream {i} is the all-zero xoshiro fixed point (corrupted snapshot)"
                ));
            }
        }
        let mut total: u64 = 0;
        let mut prev: Option<u32> = None;
        for &(bin, load) in &self.entries {
            if (bin as usize) >= self.n {
                return err(format!("entry bin {bin} out of range (n = {})", self.n));
            }
            if load == 0 {
                return err(format!("entry for bin {bin} has zero load"));
            }
            if prev.is_some_and(|p| p >= bin) {
                return err(format!(
                    "entries not strictly increasing at bin {bin} (canonical snapshots sort by bin)"
                ));
            }
            prev = Some(bin);
            total += load as u64;
        }
        if total != self.balls {
            return err(format!(
                "ball count {} disagrees with the entry total {total}",
                self.balls
            ));
        }
        if self.balls > u32::MAX as u64 {
            return err(format!(
                "ball count {} exceeds the u32 load bound",
                self.balls
            ));
        }
        if let Some(w) = &self.weighted {
            let caps = w.capacities()?;
            caps.validate(self.n).map_err(SnapshotError)?;
            if caps.is_unbounded() && w.queues.is_empty() {
                return err(
                    "weighted section is vacuous (no queues, unbounded capacities) — \
                     a unit snapshot must use version 1"
                        .to_string(),
                );
            }
            // Non-empty queues must mirror `entries` exactly: same bins,
            // queue length == load, every weight >= 1.
            if !w.queues.is_empty() {
                if w.queues.len() != self.entries.len() {
                    return err(format!(
                        "{} weight queues but {} occupied bins",
                        w.queues.len(),
                        self.entries.len()
                    ));
                }
                for (&(bin, load), (qbin, ws)) in self.entries.iter().zip(&w.queues) {
                    if *qbin != bin {
                        return err(format!(
                            "weight queue for bin {qbin} does not match entry bin {bin} \
                             (queues are sorted by bin, mirroring entries)"
                        ));
                    }
                    if ws.len() != load as usize {
                        return err(format!(
                            "bin {bin}: weight queue lists {} balls, load says {load}",
                            ws.len()
                        ));
                    }
                    if ws.contains(&0) {
                        return err(format!("bin {bin} holds a ball of weight 0"));
                    }
                }
            }
        }
        Ok(())
    }

    /// The dense load vector encoded by `entries` (validated first).
    #[cfg(test)]
    pub(crate) fn dense_loads(&self) -> Vec<u32> {
        crate::load::densify(self.n, self.entries.iter().copied()).into_loads()
    }
}

/// Validates `state` and rebuilds the engine it came from, boxed behind the
/// [`Engine`] trait — the daemon-side restore entry point. Dispatches on the
/// `engine` kind tag to the matching storage's
/// [`LoadEngine::from_snapshot`](crate::load::LoadEngine::from_snapshot).
pub fn restore(state: &SnapshotState) -> Result<Box<dyn Engine>, SnapshotError> {
    state.validate()?;
    match state.engine.as_str() {
        ENGINE_DENSE => Ok(Box::new(LoadProcess::from_snapshot(state)?)),
        ENGINE_SPARSE => Ok(Box::new(SparseLoadProcess::from_snapshot(state)?)),
        ENGINE_SHARDED => Ok(Box::new(ShardedLoadProcess::from_snapshot(state)?)),
        other => Err(SnapshotError(format!("unknown engine kind '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::rng::Xoshiro256pp;

    type Corruption = (&'static str, Box<dyn Fn(&mut SnapshotState)>);

    fn valid_state() -> SnapshotState {
        SnapshotState {
            version: SNAPSHOT_VERSION,
            engine: ENGINE_DENSE.to_string(),
            n: 8,
            shards: 1,
            round: 5,
            balls: 8,
            entries: vec![(0, 3), (2, 4), (7, 1)],
            rng_states: vec![Xoshiro256pp::seed_from(1).state()],
            weighted: None,
            best_of: None,
        }
    }

    fn valid_weighted_state() -> SnapshotState {
        let mut s = valid_state();
        s.version = SNAPSHOT_VERSION_WEIGHTED;
        s.weighted = Some(WeightedSection {
            queues: vec![(0, vec![5, 1, 2]), (2, vec![1, 1, 9, 1]), (7, vec![30])],
            cap_kind: "uniform".to_string(),
            caps: vec![40],
        });
        s
    }

    #[test]
    fn valid_state_validates_and_round_trips_through_serde() {
        let state = valid_state();
        state.validate().unwrap();
        let back = SnapshotState::deserialize(&state.serialize()).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn validation_rejects_structural_corruption() {
        let cases: Vec<Corruption> = vec![
            ("version", Box::new(|s| s.version = 99)),
            ("kind", Box::new(|s| s.engine = "warped".into())),
            ("zero bins", Box::new(|s| s.n = 0)),
            ("dense shards", Box::new(|s| s.shards = 2)),
            ("bin range", Box::new(|s| s.entries[2].0 = 8)),
            ("zero load", Box::new(|s| s.entries[1].1 = 0)),
            ("unsorted", Box::new(|s| s.entries.swap(0, 2))),
            ("ball total", Box::new(|s| s.balls = 7)),
            ("stream count", Box::new(|s| s.rng_states.clear())),
            ("zero stream", Box::new(|s| s.rng_states[0] = [0; 4])),
            (
                "v1 with weighted section",
                Box::new(|s| {
                    s.weighted = Some(WeightedSection {
                        queues: vec![],
                        cap_kind: "uniform".to_string(),
                        caps: vec![3],
                    })
                }),
            ),
        ];
        for (what, corrupt) in cases {
            let mut s = valid_state();
            corrupt(&mut s);
            assert!(s.validate().is_err(), "corruption '{what}' must be caught");
            assert!(restore(&s).is_err(), "restore must reject '{what}' too");
        }
    }

    #[test]
    fn weighted_state_validates_and_round_trips() {
        let state = valid_weighted_state();
        state.validate().unwrap();
        let back = SnapshotState::deserialize(&state.serialize()).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn weighted_validation_rejects_section_corruption() {
        type WCorruption = (&'static str, Box<dyn Fn(&mut SnapshotState)>);
        fn weighted(s: &mut SnapshotState) -> &mut WeightedSection {
            s.weighted.as_mut().unwrap()
        }
        let cases: Vec<WCorruption> = vec![
            ("v2 without section", Box::new(|s| s.weighted = None)),
            (
                "queue count",
                Box::new(move |s| {
                    weighted(s).queues.pop();
                }),
            ),
            (
                "queue bin mismatch",
                Box::new(move |s| weighted(s).queues[1].0 = 3),
            ),
            (
                "queue length vs load",
                Box::new(move |s| weighted(s).queues[0].1.push(4)),
            ),
            (
                "zero weight",
                Box::new(move |s| weighted(s).queues[2].1[0] = 0),
            ),
            (
                "bad cap kind",
                Box::new(move |s| weighted(s).cap_kind = "warped".to_string()),
            ),
            (
                "uniform caps arity",
                Box::new(move |s| weighted(s).caps = vec![1, 2]),
            ),
            (
                "explicit caps length",
                Box::new(move |s| {
                    let w = weighted(s);
                    w.cap_kind = "explicit".to_string();
                    w.caps = vec![9; 3];
                }),
            ),
            (
                "zero capacity",
                Box::new(move |s| weighted(s).caps = vec![0]),
            ),
            (
                "vacuous section",
                Box::new(move |s| {
                    let w = weighted(s);
                    w.queues.clear();
                    w.cap_kind = "unbounded".to_string();
                    w.caps.clear();
                }),
            ),
        ];
        for (what, corrupt) in cases {
            let mut s = valid_weighted_state();
            corrupt(&mut s);
            assert!(s.validate().is_err(), "corruption '{what}' must be caught");
        }
    }

    #[test]
    fn unit_capacity_only_section_is_valid_without_queues() {
        // A unit-weight engine observing capacities snapshots with an empty
        // queue list but a real capacity bound.
        let mut s = valid_weighted_state();
        let w = s.weighted.as_mut().unwrap();
        w.queues.clear();
        s.validate().unwrap();
    }

    #[test]
    fn v1_serialization_omits_the_weighted_key() {
        // The pre-weighted byte format must be preserved exactly: no
        // `"weighted": null` key may appear on version-1 snapshots.
        let v1 = valid_state().serialize();
        let keys: Vec<&str> = v1
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert!(!keys.contains(&"weighted"), "{keys:?}");
        let v2 = valid_weighted_state().serialize();
        assert!(
            v2.as_object().unwrap().iter().any(|(k, _)| k == "weighted"),
            "version-2 snapshots must carry the weighted key"
        );
    }

    #[test]
    fn best_of_layout_is_version_3_on_dense_snapshots_only() {
        let mut v3 = valid_state();
        v3.version = SNAPSHOT_VERSION_BEST_OF;
        v3.best_of = Some(2);
        v3.validate().unwrap();
        let value = v3.serialize();
        assert!(value
            .as_object()
            .unwrap()
            .iter()
            .any(|(k, _)| k == "best_of"));
        assert_eq!(SnapshotState::deserialize(&value).unwrap(), v3);
        // A weighted d-choice engine keeps its section at version 3.
        let mut weighted = v3.clone();
        weighted.weighted = valid_weighted_state().weighted;
        weighted.validate().unwrap();
        let cases: Vec<Corruption> = vec![
            (
                "v1 with best_of",
                Box::new(|s| s.version = SNAPSHOT_VERSION),
            ),
            ("v3 without best_of", Box::new(|s| s.best_of = None)),
            ("d = 1", Box::new(|s| s.best_of = Some(1))),
            (
                "d above MAX_BEST_OF",
                Box::new(|s| s.best_of = Some(MAX_BEST_OF + 1)),
            ),
            ("d = usize::MAX", Box::new(|s| s.best_of = Some(usize::MAX))),
            ("sparse", Box::new(|s| s.engine = ENGINE_SPARSE.into())),
        ];
        for (what, corrupt) in cases {
            let mut s = v3.clone();
            corrupt(&mut s);
            assert!(s.validate().is_err(), "corruption '{what}' must be caught");
        }
    }

    #[test]
    fn sharded_stream_count_must_match_shards() {
        let mut s = valid_state();
        s.engine = ENGINE_SHARDED.to_string();
        s.shards = 3;
        assert!(s.validate().is_err(), "3 shards need 3 streams");
        s.rng_states = (0..3).map(|i| Xoshiro256pp::stream(9, i).state()).collect();
        s.validate().unwrap();
    }

    #[test]
    fn restore_dispatches_on_the_kind_tag() {
        let state = valid_state();
        let engine = restore(&state).unwrap();
        assert_eq!(engine.n(), 8);
        assert_eq!(engine.balls(), 8);
        assert_eq!(engine.round(), 5);
        assert_eq!(
            engine.config(),
            &Config::from_loads(vec![3, 0, 4, 0, 0, 0, 0, 1])
        );
    }

    #[test]
    fn dense_loads_rebuilds_the_vector() {
        assert_eq!(valid_state().dense_loads(), vec![3, 0, 4, 0, 0, 0, 0, 1]);
    }
}
