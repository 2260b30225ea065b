//! One load engine over three storages.
//!
//! The load process of Section 2,
//!
//! ```text
//! Q_v(t+1) = max(Q_v(t) - 1, 0) + |{ u ∈ W(t) : X_u(t+1) = v }|,
//! ```
//!
//! is one algorithm however the loads are stored. [`LoadEngine`] owns
//! everything about it that does not depend on the layout — the RNG
//! streams, the round and ball counters, the weight overlay and the
//! capacities, the weighted constructor, snapshot/restore, incremental
//! placement, faults, and the single [`Engine`] impl — over a [`LoadStore`]
//! that supplies only the round kernel, arrivals and removals, load
//! lookups, cheap statistics and the occupied bins:
//!
//! * [`DenseStore`] — a dense `Vec<u32>` of all `n` bins
//!   ([`LoadProcess`](crate::process::LoadProcess));
//! * [`SparseStore`] — the occupied bins only, for `m ≪ n`
//!   ([`SparseLoadProcess`](crate::sparse::SparseLoadProcess));
//! * [`ShardedStore`] — strided per-shard columns, one RNG stream per shard
//!   ([`ShardedLoadProcess`](crate::sharded::ShardedLoadProcess)).
//!
//! # One round path
//!
//! Each storage has exactly one round kernel, [`LoadStore::round`], which
//! the engine's [`Engine::step`] (and so every driver) runs. The kernels
//! are pinned bit-identical to [`reference_round`], a plain scalar round
//! over a dense load vector that the tests seed from
//! [`Engine::snapshot`] and `rbb-bench`'s `engine/scalar` target times.
//!
//! [`DenseStore`]: crate::process::DenseStore
//! [`SparseStore`]: crate::sparse::SparseStore
//! [`ShardedStore`]: crate::sharded::ShardedStore

use crate::config::Config;
use crate::engine::{Engine, Incremental};
use crate::rng::Xoshiro256pp;
use crate::sampling::{throw_uniform, UniformSampler};
use crate::snapshot::{
    SnapshotError, SnapshotState, WeightedSection, SNAPSHOT_VERSION, SNAPSHOT_VERSION_WEIGHTED,
};
use crate::weights::{Capacities, WeightOverlay, Weights};

/// The engine's randomness: one RNG stream per storage stream (one for the
/// dense and sparse storages, one per shard for the sharded one), the
/// uniform sampler keyed on `n`, and the destination scratch of the last
/// round.
#[derive(Debug, Clone)]
pub struct Draws {
    pub(crate) streams: Vec<Xoshiro256pp>,
    /// Keyed on `n` (fixed for an engine's lifetime), so no round re-pays
    /// the `2^64 mod n` rejection-threshold division.
    pub(crate) sampler: UniformSampler,
    /// Destination scratch. After a weighted round it holds the round's
    /// draws in the canonical transport order.
    pub(crate) dests: Vec<u32>,
}

/// How a [`LoadEngine`] stores its loads. Implemented by the three
/// storages of this crate (see the module docs).
pub trait LoadStore: Clone + std::fmt::Debug {
    /// The engine-kind tag of this storage's snapshots.
    const KIND: &'static str;

    /// Rebuilds the storage from a validated snapshot's loads (and shard
    /// count).
    fn restore(state: &SnapshotState) -> Self;

    /// Number of bins.
    fn n(&self) -> usize;

    /// One round of the process: every occupied bin releases one ball and
    /// each released ball lands in a uniform bin. Returns the number of
    /// balls that moved. With `srcs`, also pushes the departing bins onto it
    /// and leaves the matching draws in `draws.dests`, both in the canonical
    /// transport order the weight overlay pairs them in: ascending bins
    /// within each stream, streams in order.
    ///
    /// # RNG stream
    ///
    /// Stream `k` consumes one uniform draw over `[0, n)` per ball released
    /// by the bins it serves, exactly the draws of [`reference_round`].
    fn round(&mut self, draws: &mut Draws, srcs: Option<&mut Vec<u32>>) -> usize;

    /// Adds one ball to `bin` (`bin < n`).
    fn arrive(&mut self, bin: u32);

    /// Takes one ball from `bin` (`bin < n`); `false` if it is empty.
    fn remove(&mut self, bin: u32) -> bool;

    /// Empties every bin.
    fn clear(&mut self);

    /// Load of `bin`.
    fn load(&self, bin: usize) -> u32;

    /// Number of non-empty bins.
    fn nonempty(&self) -> usize;

    /// The occupied bins as `(bin, load)`, in storage order.
    fn occupied(&self) -> impl Iterator<Item = (u32, u32)> + '_;

    /// The dense view (free for the dense storage, an `O(n)` cached
    /// materialization for the others).
    fn config(&self) -> &Config;

    /// Maximum load.
    fn max_load(&self) -> u32 {
        self.occupied().map(|(_, l)| l).max().unwrap_or(0)
    }

    /// Total load; one pass, at construction.
    fn total(&self) -> u64 {
        self.occupied().map(|(_, l)| u64::from(l)).sum()
    }

    /// The occupied bins sorted by bin — the canonical snapshot encoding.
    fn entries(&self) -> Vec<(u32, u32)> {
        let mut entries: Vec<(u32, u32)> = self.occupied().collect();
        entries.sort_unstable();
        entries
    }
}

/// Materializes occupied `(bin, load)` pairs into a dense configuration:
/// the cached [`LoadStore::config`] view of the sparse and sharded
/// storages, and the dense and sharded restores.
pub(crate) fn densify(n: usize, occupied: impl Iterator<Item = (u32, u32)>) -> Config {
    let mut loads = vec![0u32; n];
    for (bin, load) in occupied {
        loads[bin as usize] = load;
    }
    Config::from_loads(loads)
}

/// The repeated balls-into-bins load process over a [`LoadStore`].
///
/// Weights are a metric-only overlay: they never touch the RNG, and the
/// unit configuration builds no overlay at all, so a unit engine is
/// bit-identical (trajectory, streams, snapshot bytes) whichever
/// constructor built it.
#[derive(Debug, Clone)]
pub struct LoadEngine<S> {
    pub(crate) store: S,
    pub(crate) draws: Draws,
    pub(crate) round: u64,
    pub(crate) balls: u64,
    /// `None` in the unit configuration.
    pub(crate) weighted: Option<WeightOverlay>,
    pub(crate) capacities: Capacities,
}

impl<S: LoadStore> LoadEngine<S> {
    /// Wraps a filled storage and its streams (one per storage stream).
    /// [`Weights::Unit`] (or an explicit all-ones vector) builds no
    /// overlay; non-unit weights are assigned ball by ball in bin order.
    /// Panics on weights or capacities that do not fit the storage.
    ///
    /// # RNG stream
    ///
    /// Takes ownership of `streams` as the engine streams: stream `k` draws
    /// for the bins it serves (see [`LoadStore::round`]), and stream 0 also
    /// for [`Incremental::place`]. Weights never touch them.
    pub(crate) fn from_parts(
        store: S,
        streams: Vec<Xoshiro256pp>,
        weights: Weights,
        capacities: Capacities,
    ) -> Self {
        let n = store.n();
        let balls = store.total();
        let weights = weights.normalized();
        let checked = weights
            .validate(balls)
            .map_err(|e| format!("invalid weights: {e}"))
            .and_then(|()| {
                capacities
                    .validate(n)
                    .map_err(|e| format!("invalid capacities: {e}"))
            });
        if let Err(e) = checked {
            // rbb-lint: allow(panic, reason = "constructor contract violation, caught by spec-layer validation first")
            panic!("{e}");
        }
        let weighted = match &weights {
            Weights::Unit => None,
            Weights::Explicit(ws) => Some(WeightOverlay::from_entries(store.entries(), ws)),
        };
        Self {
            draws: Draws {
                streams,
                sampler: UniformSampler::new(n as u64),
                dests: Vec::new(),
            },
            store,
            round: 0,
            balls,
            weighted,
            capacities,
        }
    }

    /// Rebuilds an engine from a snapshot (validated first); the restored
    /// engine resumes the snapshotted trajectory bit-identically.
    pub fn from_snapshot(state: &SnapshotState) -> Result<Self, SnapshotError> {
        state.validate()?;
        if state.engine != S::KIND {
            return Err(SnapshotError(format!(
                "expected a {} snapshot, got '{}'",
                S::KIND,
                state.engine
            )));
        }
        let streams = state
            .rng_states
            .iter()
            // rbb-lint: allow(rng-construct, reason = "restoring serialized stream states captured from a live engine snapshot, not seeding new streams")
            .map(|&s| Xoshiro256pp::from_state(s))
            .collect();
        let capacities = match &state.weighted {
            Some(w) => w.capacities()?,
            None => Capacities::Unbounded,
        };
        let mut engine = Self::from_parts(S::restore(state), streams, Weights::Unit, capacities);
        engine.round = state.round;
        engine.weighted = (state.weighted.iter())
            .find(|w| !w.queues.is_empty())
            .map(|w| WeightOverlay::from_queues(&w.queues));
        Ok(engine)
    }
}

/// The reference round: the process written as plainly as possible over a
/// dense load vector, with `S = streams.len()` RNG streams and stream `k`
/// serving the bins `b ≡ k (mod S)`. Every storage's kernel is pinned
/// bit-identical to it — a test seeds `loads` and `streams` from
/// [`Engine::snapshot`] (entries and `rng_states`) — and at `S = 1` it is
/// the dense process's scalar step, which `rbb-bench`'s `engine/scalar`
/// baseline times. Returns the number of balls that moved.
///
/// # RNG stream
///
/// After every non-empty bin has released one ball, stream `k` (streams in
/// order) consumes one `uniform_usize(n)` draw per ball released by its
/// bins: the draws of a sharded engine with `S` shards, and at `S = 1` of
/// the dense and sparse engines' single stream.
pub fn reference_round(loads: &mut [u32], streams: &mut [Xoshiro256pp]) -> usize {
    let shards = streams.len();
    let released: Vec<usize> = (0..shards)
        .map(|k| {
            let mut released = 0;
            for l in loads.iter_mut().skip(k).step_by(shards) {
                if *l > 0 {
                    *l -= 1;
                    released += 1;
                }
            }
            released
        })
        .collect();
    for (rng, &d) in streams.iter_mut().zip(&released) {
        throw_uniform(rng, loads, d);
    }
    released.iter().sum()
}

impl<S: LoadStore> Engine for LoadEngine<S> {
    /// Runs the storage's kernel; a weighted round then pairs the `k`-th
    /// departing bin with the `k`-th draw in the overlay.
    fn step(&mut self) -> usize {
        let moved = match &mut self.weighted {
            None => self.store.round(&mut self.draws, None),
            Some(overlay) => {
                let moved = self.store.round(&mut self.draws, Some(&mut overlay.srcs));
                overlay.transport(&self.draws.dests);
                moved
            }
        };
        self.round += 1;
        debug_assert_eq!(self.store.total(), self.balls, "mass violated");
        debug_assert!(self
            .weighted
            .as_ref()
            .is_none_or(|o| o.check_against(self.store.occupied()).is_ok()));
        moved
    }

    fn round(&self) -> u64 {
        self.round
    }

    /// Free for dense storage; see [`LoadStore::config`] for the others.
    fn config(&self) -> &Config {
        self.store.config()
    }

    fn n(&self) -> usize {
        self.store.n()
    }

    /// The tracked counter, not the trait default's `O(n)` load sum — the
    /// serve hot path reads this per placement.
    fn balls(&self) -> u64 {
        self.balls
    }

    fn max_load(&self) -> u32 {
        self.store.max_load()
    }

    fn empty_bins(&self) -> usize {
        self.store.n() - self.store.nonempty()
    }

    fn nonempty_bins(&self) -> usize {
        self.store.nonempty()
    }

    fn bin_load(&self, bin: usize) -> u32 {
        self.store.load(bin)
    }

    /// In storage order: `O(#occupied)` for sparse storage.
    fn nonempty_bins_list(&self) -> Option<Vec<u32>> {
        Some(self.store.occupied().map(|(b, _)| b).collect())
    }

    /// Unit-weight engines only: a placement says where each ball goes but
    /// not which weight it carries, so the overlay could not follow it.
    fn supports_faults(&self) -> bool {
        self.weighted.is_none()
    }

    /// Placement-based fault: rebuilds the loads from `placement[ball] =
    /// bin` in `O(n + m)` (`O(m)` for sparse storage). Consumes no engine
    /// randomness, so faulty trajectories stay comparable across storages.
    /// Panics on a weighted engine before touching the loads.
    fn apply_fault(&mut self, placement: &[usize]) {
        assert!(
            self.weighted.is_none(),
            "adversarial reassignment is unsupported on a weighted engine"
        );
        assert_eq!(
            placement.len() as u64,
            self.balls,
            "adversary must conserve balls"
        );
        let n = self.store.n();
        self.store.clear();
        for &bin in placement {
            assert!(bin < n, "bin {bin} out of range 0..{n}");
            // rbb-lint: allow(lossy-cast, reason = "bin < n, and every storage asserts n fits the u32 index range")
            self.store.arrive(bin as u32);
        }
    }

    fn incremental(&mut self) -> Option<&mut dyn Incremental> {
        Some(self)
    }

    fn weighted(&self) -> bool {
        self.weighted.is_some()
    }

    fn total_weight(&self) -> u64 {
        self.weighted
            .as_ref()
            .map_or(self.balls, WeightOverlay::total)
    }

    fn weighted_max_load(&self) -> u64 {
        self.weighted.as_ref().map_or_else(
            || u64::from(self.store.max_load()),
            WeightOverlay::weighted_max_load,
        )
    }

    /// Out-of-range bins read as empty.
    fn weighted_bin_load(&self, bin: usize) -> u64 {
        match &self.weighted {
            Some(o) => u32::try_from(bin).map_or(0, |b| o.weighted_load(b)),
            None if bin < self.store.n() => u64::from(self.store.load(bin)),
            None => 0,
        }
    }

    fn capacities(&self) -> &Capacities {
        &self.capacities
    }

    /// `O(#occupied)` through the overlay or the storage's occupied bins:
    /// empty bins never violate, as capacities are ≥ 1.
    fn capacity_violations(&self) -> u64 {
        let caps = &self.capacities;
        if caps.is_unbounded() {
            return 0;
        }
        match &self.weighted {
            Some(o) => o.capacity_violations(caps),
            None => self
                .store
                .occupied()
                .filter(|&(b, l)| caps.bound(b as usize).is_some_and(|c| u64::from(l) > c))
                .count() as u64,
        }
    }

    /// Bin-sorted entries and every stream's raw state, in stream order.
    /// A weighted section is written iff there is anything non-unit to
    /// record: an overlay, or non-default capacities.
    fn snapshot(&self) -> Option<SnapshotState> {
        let weighted =
            (self.weighted.is_some() || !self.capacities.is_unbounded()).then(|| WeightedSection {
                queues: self
                    .weighted
                    .as_ref()
                    .map_or_else(Vec::new, WeightOverlay::queues_sorted),
                cap_kind: self.capacities.kind_str().to_string(),
                caps: self.capacities.bounds_vec(),
            });
        Some(SnapshotState {
            version: if weighted.is_some() {
                SNAPSHOT_VERSION_WEIGHTED
            } else {
                SNAPSHOT_VERSION
            },
            engine: S::KIND.to_string(),
            n: self.store.n(),
            shards: self.draws.streams.len(),
            round: self.round,
            balls: self.balls,
            entries: self.store.entries(),
            rng_states: self.draws.streams.iter().map(Xoshiro256pp::state).collect(),
            weighted,
        })
    }
}

impl<S: LoadStore> Incremental for LoadEngine<S> {
    /// One uniform draw from stream 0 (the engine-convention stream), the
    /// per-ball primitive a round uses; the weight only feeds the overlay.
    fn place_weighted(&mut self, weight: u32) -> usize {
        assert!(
            self.balls < u64::from(u32::MAX),
            "place would overflow the u32 load bound"
        );
        assert!(
            weight == 1 || self.weighted.is_some(),
            "this process is unit-weight: only weight-1 placements are supported"
        );
        assert!(weight >= 1, "placed weight must be at least 1");
        let mut bin = [0u32];
        self.draws
            .sampler
            .fill_u32(&mut self.draws.streams[0], &mut bin);
        let [bin] = bin;
        self.store.arrive(bin);
        self.balls += 1;
        if let Some(o) = &mut self.weighted {
            o.place(bin, weight);
        }
        bin as usize
    }

    fn depart(&mut self, bin: usize) -> bool {
        let Some(b) = u32::try_from(bin).ok().filter(|_| bin < self.store.n()) else {
            return false;
        };
        if !self.store.remove(b) {
            return false;
        }
        self.balls -= 1;
        if let Some(o) = &mut self.weighted {
            o.depart(b);
        }
        true
    }
}

/// Checks shared by every storage's tests: each storage's test module runs
/// them on its own fixtures.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Steps `engine` `rounds` times in lockstep with [`reference_round`]
    /// seeded from the engine's own snapshot: mover counts, loads and, at
    /// the end, every stream state must agree.
    pub(crate) fn assert_matches_reference<S: LoadStore>(engine: &mut LoadEngine<S>, rounds: u64) {
        let snap = Engine::snapshot(engine).expect("load engines snapshot");
        let mut loads = snap.dense_loads();
        let mut streams: Vec<Xoshiro256pp> = snap
            .rng_states
            .iter()
            .map(|&s| Xoshiro256pp::from_state(s))
            .collect();
        for r in 0..rounds {
            let moved = engine.step();
            assert_eq!(
                moved,
                reference_round(&mut loads, &mut streams),
                "round {r}"
            );
            assert_eq!(engine.config().loads(), &loads[..], "round {r}");
        }
        assert_eq!(engine.draws.streams, streams, "stream states diverged");
    }

    /// Snapshot mid-trajectory, restore, and resume in lockstep.
    pub(crate) fn assert_snapshot_round_trip<S: LoadStore>(mut p: LoadEngine<S>, warm: u64) {
        p.run_silent(warm);
        let snap = Engine::snapshot(&p).expect("load engines snapshot");
        assert!(
            snap.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be in canonical bin order"
        );
        let unit = p.weighted.is_none() && p.capacities.is_unbounded();
        let version = if unit {
            SNAPSHOT_VERSION
        } else {
            SNAPSHOT_VERSION_WEIGHTED
        };
        assert_eq!(snap.version, version);
        let mut q = LoadEngine::<S>::from_snapshot(&snap).unwrap();
        assert_eq!(q.round(), warm);
        assert_eq!(Engine::total_weight(&q), Engine::total_weight(&p));
        assert_eq!(Engine::capacities(&q), Engine::capacities(&p));
        for _ in 0..60 {
            assert_eq!(p.step(), q.step());
        }
        assert_eq!(p.config(), q.config());
        assert_eq!(Engine::snapshot(&p), Engine::snapshot(&q));
    }

    /// `place` adds a ball to the drawn bin; `depart` removes one and is a
    /// no-op on empty or out-of-range bins; rounds conserve the new mass.
    pub(crate) fn assert_place_and_depart<S: LoadStore>(mut p: LoadEngine<S>) {
        let (n, balls) = (p.n(), p.balls());
        let before = p.config().clone();
        let b = p.place();
        assert!(b < n);
        assert_eq!(p.balls(), balls + 1);
        assert_eq!(Engine::bin_load(&p, b), before.loads()[b] + 1);
        assert!(p.depart(b));
        assert_eq!(p.config(), &before);
        assert!(!p.depart(n), "out of range is a no-op");
        let empty = before.loads().iter().position(|&l| l == 0);
        if let Some(empty) = empty {
            assert!(!p.depart(empty), "empty bin is a no-op");
        }
        let full = before.loads().iter().position(|&l| l > 0).unwrap();
        assert!(p.depart(full));
        assert_eq!(p.balls(), balls - 1);
        p.run_silent(20);
        assert_eq!(p.config().total_balls(), balls - 1);
    }

    /// A weighted constructor fed all-ones weights builds the plain engine:
    /// no overlay, same trajectory, streams and snapshot bytes.
    pub(crate) fn assert_unit_weights_build_the_same_engine<S: LoadStore>(
        mut plain: LoadEngine<S>,
        mut unit: LoadEngine<S>,
    ) {
        assert!(unit.weighted.is_none(), "all-ones collapses to no overlay");
        for _ in 0..80 {
            assert_eq!(plain.step(), unit.step());
            assert_eq!(plain.config(), unit.config());
        }
        assert_eq!(plain.draws.streams, unit.draws.streams);
        assert_eq!(Engine::snapshot(&plain), Engine::snapshot(&unit));
    }

    /// A weighted engine reports no fault support, and `apply_fault` panics
    /// on it before touching the loads; a unit engine with only capacities
    /// still supports faults.
    pub(crate) fn assert_fault_support<S: LoadStore>(
        mut weighted: LoadEngine<S>,
        mut capacity_only: LoadEngine<S>,
    ) {
        assert!(weighted.weighted.is_some());
        assert!(!weighted.supports_faults());
        let before = weighted.config().clone();
        let placement = vec![0; weighted.balls() as usize];
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            weighted.apply_fault(&placement);
        }))
        .expect_err("a fault on a weighted engine panics");
        let message = (panic.downcast_ref::<String>().map(String::as_str))
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("unsupported"), "{message}");
        assert_eq!(weighted.config(), &before, "loads untouched");
        weighted
            .weighted
            .as_ref()
            .unwrap()
            .check_against(weighted.store.occupied())
            .unwrap();

        assert!(capacity_only.weighted.is_none() && !capacity_only.capacities.is_unbounded());
        assert!(capacity_only.supports_faults());
        let balls = capacity_only.balls();
        capacity_only.apply_fault(&vec![0; balls as usize]);
        assert_eq!(u64::from(Engine::bin_load(&capacity_only, 0)), balls);
        capacity_only.run_silent(5);
        assert_eq!(capacity_only.config().total_balls(), balls);
    }

    /// Weighted `place`/`depart` move the overlay's total with the ball.
    pub(crate) fn assert_weighted_place_and_depart<S: LoadStore>(mut p: LoadEngine<S>) {
        let (total, balls) = (Engine::total_weight(&p), p.balls());
        let b = p.place_weighted(40);
        assert_eq!(Engine::total_weight(&p), total + 40);
        assert_eq!(p.balls(), balls + 1);
        assert!(Engine::weighted_bin_load(&p, b) >= 40);
        assert!(p.depart(b), "bin just received a ball");
        assert_eq!(p.balls(), balls);
        p.run_silent(10);
        assert_eq!(p.config().total_balls(), balls);
    }
}
