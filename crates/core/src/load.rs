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
//! lookups, cheap statistics, the occupied bins, and the handles under
//! which the weight overlay files each occupied bin's queue:
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
//! # Destination rules
//!
//! The paper's process sends every released ball to a uniform bin
//! ([`Rule::Uniform`], the storage kernels above). Two neighboring
//! processes differ only in that draw: the repeated d-choice process of
//! ref. \[36\] ([`Rule::BestOf`]) and the Section 5 walk on a graph
//! ([`Rule::Neighbors`]). Both run through one rule round written against
//! [`LoadStore`], on dense storage ([`LoadProcess::with_rule`]).
//!
//! [`DenseStore`]: crate::process::DenseStore
//! [`SparseStore`]: crate::sparse::SparseStore
//! [`ShardedStore`]: crate::sharded::ShardedStore
//! [`LoadProcess::with_rule`]: crate::process::LoadProcess::with_rule

use std::sync::Arc;

use crate::config::Config;
use crate::engine::{Engine, Incremental};
use crate::rng::Xoshiro256pp;
use crate::sampling::{throw_uniform, UniformSampler};
use crate::snapshot::{
    SnapshotError, SnapshotState, WeightedSection, SNAPSHOT_VERSION, SNAPSHOT_VERSION_BEST_OF,
    SNAPSHOT_VERSION_WEIGHTED,
};
use crate::weights::{Capacities, WeightOverlay, Weights};

/// A graph that a [`Rule::Neighbors`] walk moves on: `rbb_graphs::Graph`
/// implements it.
pub trait Neighbors: std::fmt::Debug + Send + Sync {
    /// A uniformly random neighbor of vertex `v`.
    ///
    /// # RNG stream
    ///
    /// Consumes the draws of one uniform choice among `v`'s neighbors
    /// from `rng` (for `rbb_graphs::Graph`, one `uniform_usize(degree)`).
    fn random_neighbor(&self, v: usize, rng: &mut Xoshiro256pp) -> usize;

    /// The number of vertices: one per bin of the engine that walks on it.
    fn n(&self) -> usize;
}

/// The most choices a [`Rule::BestOf`] engine takes. A d-choice round
/// costs up to `d` draws per departing bin, so the spec layer and
/// [`SnapshotState::validate`], which take `d` from outside the program,
/// refuse a larger one.
pub const MAX_BEST_OF: usize = 64;

/// Where the ball a bin releases goes.
#[derive(Debug, Clone)]
pub enum Rule {
    /// A uniform bin: the paper's process.
    Uniform,
    /// The least loaded of `2 ≤ d ≤` [`MAX_BEST_OF`] uniform bins, compared
    /// on the start-of-round loads, ties to the first draw: the repeated
    /// d-choice process. `BestOf(1)` draws the same stream as `Uniform`,
    /// which [`LoadProcess::with_rule`](crate::process::LoadProcess::with_rule)
    /// turns it into.
    BestOf(usize),
    /// A uniform neighbor of the releasing bin on a graph with one vertex
    /// per bin: the Section 5 walk. A complete graph with self-loops is
    /// the paper's process.
    Neighbors(Arc<dyn Neighbors>),
}

/// The least loaded of `d` uniform bins of `store`, ties to the first draw.
///
/// # RNG stream
///
/// Consumes `d` sampler draws from `rng`.
fn best_of<S: LoadStore>(
    d: usize,
    store: &S,
    sampler: &UniformSampler,
    rng: &mut Xoshiro256pp,
) -> u32 {
    let mut draw = || {
        // rbb-lint: allow(lossy-cast, reason = "the sampler is keyed on n, and every storage asserts n fits the u32 index range")
        let bin = sampler.sample(rng) as u32;
        (bin, store.load(bin as usize))
    };
    let (mut best, mut best_load) = draw();
    for _ in 1..d {
        let (bin, load) = draw();
        if load < best_load {
            (best, best_load) = (bin, load);
        }
    }
    best
}

/// One round under [`Rule::BestOf`] or [`Rule::Neighbors`], on stream 0:
/// every occupied bin, in storage order (ascending on dense storage),
/// draws its ball's destination with `dest(bin, store, sampler, stream)`
/// against the start-of-round loads; then all departures and arrivals
/// apply at once. Leaves `draws.dests`, `srcs` and `draws.handles` as
/// [`LoadStore::round`] does.
fn rule_round<S: LoadStore>(
    store: &mut S,
    draws: &mut Draws,
    mut srcs: Option<&mut Vec<u32>>,
    dest: impl Fn(u32, &S, &UniformSampler, &mut Xoshiro256pp) -> u32,
) -> usize {
    let Draws {
        streams,
        sampler,
        dests,
        handles,
        scratch: departing,
    } = draws;
    let rng = &mut streams[0];
    dests.clear();
    departing.clear();
    for (bin, _) in store.occupied() {
        departing.push(bin);
        dests.push(dest(bin, store, sampler, rng));
    }
    for &bin in departing.iter() {
        let handle = store.remove(bin);
        if let (Some(srcs), Some(handle)) = (srcs.as_deref_mut(), handle) {
            srcs.push(handle);
        }
    }
    handles.clear();
    for &bin in dests.iter() {
        let handle = store.arrive(bin);
        if srcs.is_some() && !S::BIN_HANDLES {
            handles.push(handle);
        }
    }
    departing.len()
}

/// The engine's randomness: one RNG stream per storage stream (one for the
/// dense and sparse storages, one per shard for the sharded one), the
/// uniform sampler keyed on `n`, and the round scratch of the storages.
#[derive(Debug, Clone)]
pub struct Draws {
    pub(crate) streams: Vec<Xoshiro256pp>,
    /// Keyed on `n` (fixed for an engine's lifetime), so no round re-pays
    /// the `2^64 mod n` rejection-threshold division.
    pub(crate) sampler: UniformSampler,
    /// Destination scratch. After a weighted round it holds the round's
    /// draws in the canonical transport order.
    pub(crate) dests: Vec<u32>,
    /// After a weighted round on a storage whose handles are not its bins
    /// (see [`LoadStore::BIN_HANDLES`]): the handle of each draw in
    /// `dests`.
    pub(crate) handles: Vec<u32>,
    /// The rule round's departing bins.
    pub(crate) scratch: Vec<u32>,
}

/// How a [`LoadEngine`] stores its loads. Implemented by the three
/// storages of this crate (see the module docs).
///
/// # Handles
///
/// The storage names each occupied bin by a `u32` *handle*, under which
/// the weight overlay files the bin's queue of ball weights: the bin
/// itself for dense and sharded storage ([`Self::BIN_HANDLES`]), a small
/// index for sparse storage, so that the overlay indexes a vector by
/// handle and probes no map of its own. A handle stays with its bin while
/// the bin is occupied. When the bin empties, the storage may reissue the
/// handle to the next bin it fills, within the same round too: the overlay
/// pops every departing ball before it pushes any arrival, so a reissued
/// handle's queue is empty by the time it receives.
pub trait LoadStore: Clone + std::fmt::Debug {
    /// The engine-kind tag of this storage's snapshots.
    const KIND: &'static str;

    /// Whether every bin is its own handle. Then [`Self::round`] leaves the
    /// destination handles in `draws.dests` itself, not in
    /// `draws.handles`.
    const BIN_HANDLES: bool;

    /// Rebuilds the storage from a validated snapshot's loads (and shard
    /// count).
    fn restore(state: &SnapshotState) -> Self;

    /// Number of bins.
    fn n(&self) -> usize;

    /// One round of the process: every occupied bin releases one ball and
    /// each released ball lands in a uniform bin. Returns the number of
    /// balls that moved. With `srcs`, also pushes the departing bins'
    /// handles onto it and leaves the matching draws in `draws.dests` and,
    /// unless [`Self::BIN_HANDLES`], their handles in `draws.handles`, all
    /// in the canonical transport order the weight overlay pairs them in:
    /// ascending bins within each stream, streams in order. A handle that
    /// a source bin frees may come back as a destination's handle.
    ///
    /// # RNG stream
    ///
    /// Stream `k` consumes one uniform draw over `[0, n)` per ball released
    /// by the bins it serves, exactly the draws of [`reference_round`].
    fn round(&mut self, draws: &mut Draws, srcs: Option<&mut Vec<u32>>) -> usize;

    /// Adds one ball to `bin` (`bin < n`); returns the bin's handle.
    fn arrive(&mut self, bin: u32) -> u32;

    /// Takes one ball from `bin` (`bin < n`); returns the handle the bin
    /// held, or `None` if it is empty. A bin that empties frees its handle,
    /// so the caller settles the overlay before the next arrival.
    fn remove(&mut self, bin: u32) -> Option<u32>;

    /// The handle of `bin` (`bin < n`): `None` for an empty bin of a
    /// storage that issues handles to occupied bins only.
    fn handle(&self, bin: u32) -> Option<u32>;

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
    /// Never `BestOf(0 | 1)`; anything but `Uniform` only on dense storage.
    pub(crate) rule: Rule,
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
            Weights::Explicit(ws) => Some(Self::overlay(&store, ws)),
        };
        Self {
            draws: Draws {
                streams,
                sampler: UniformSampler::new(n as u64),
                dests: Vec::new(),
                handles: Vec::new(),
                scratch: Vec::new(),
            },
            store,
            round: 0,
            balls,
            weighted,
            capacities,
            rule: Rule::Uniform,
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
        // Validation admits `best_of` on dense snapshots only.
        engine.rule = state.best_of.map_or(Rule::Uniform, Rule::BestOf);
        // Validated queues mirror the entries, so their weights in bin
        // order are the per-ball weight vector.
        engine.weighted = (state.weighted.iter())
            .find(|w| !w.queues.is_empty())
            .map(|w| {
                let ws: Vec<u32> = w.queues.iter().flat_map(|(_, ws)| ws).copied().collect();
                Self::overlay(&engine.store, &ws)
            });
        Ok(engine)
    }

    /// The overlay of `store`'s balls, weighed ball by ball in bin order.
    fn overlay(store: &S, weights: &[u32]) -> WeightOverlay {
        let entries = store.entries().into_iter();
        // Every occupied bin has a handle.
        let handled = entries.filter_map(|(bin, load)| Some((bin, store.handle(bin)?, load)));
        // Where a bin is its own handle, the handles reach n - 1.
        let records = if S::BIN_HANDLES { store.n() } else { 0 };
        WeightOverlay::from_entries(records, handled, weights)
    }

    /// Checks the overlay, if any, against the storage's occupied bins and
    /// their handles (see `WeightOverlay::check_against`).
    pub(crate) fn check_overlay(&self) -> Result<(), String> {
        let store = &self.store;
        let handled = store
            .occupied()
            .map(|(bin, load)| (bin, store.handle(bin), load));
        self.weighted
            .as_ref()
            .map_or(Ok(()), |o| o.check_against(handled))
    }
}

/// The reference round: the process written as plainly as possible over a
/// dense load vector, with `S = streams.len()` RNG streams and stream `k`
/// serving the bins `b ≡ k (mod S)`. Every storage's kernel, and the rule
/// round on dense storage, is pinned bit-identical to it — a test seeds
/// `loads` and `streams` from [`Engine::snapshot`] (entries and
/// `rng_states`) — and under [`Rule::Uniform`] at `S = 1` it is the dense
/// process's scalar step, which `rbb-bench`'s `engine/scalar` baseline
/// times. Returns the number of balls that moved. Panics on a rule other
/// than `Uniform` with more than one stream.
///
/// # RNG stream
///
/// Under [`Rule::Uniform`]: after every non-empty bin has released one
/// ball, stream `k` (streams in order) consumes one `uniform_usize(n)` draw
/// per ball released by its bins: the draws of a sharded engine with `S`
/// shards, and at `S = 1` of the dense and sparse engines' single stream.
/// Under the other rules, the one stream serves the non-empty bins in
/// ascending order: `d` `uniform_usize(n)` draws each under
/// [`Rule::BestOf`], one [`Neighbors::random_neighbor`] draw each under
/// [`Rule::Neighbors`].
pub fn reference_round(loads: &mut [u32], streams: &mut [Xoshiro256pp], rule: &Rule) -> usize {
    match rule {
        Rule::Uniform => {
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
        Rule::BestOf(d) => reference_rule_round(loads, streams, |_, start, rng| {
            let mut best = rng.uniform_usize(start.len());
            for _ in 1..*d {
                let c = rng.uniform_usize(start.len());
                if start[c] < start[best] {
                    best = c;
                }
            }
            best
        }),
        Rule::Neighbors(graph) => {
            reference_rule_round(loads, streams, |u, _, rng| graph.random_neighbor(u, rng))
        }
    }
}

/// [`reference_round`] under a destination rule: each non-empty bin `u`,
/// in ascending order, sends one ball to `dest(u, start, stream)`, where
/// `start` holds the start-of-round loads.
fn reference_rule_round(
    loads: &mut [u32],
    streams: &mut [Xoshiro256pp],
    dest: impl Fn(usize, &[u32], &mut Xoshiro256pp) -> usize,
) -> usize {
    assert_eq!(streams.len(), 1, "a destination rule draws from one stream");
    let start = loads.to_vec();
    let mut moved = 0;
    for (u, &load) in start.iter().enumerate() {
        if load == 0 {
            continue;
        }
        let v = dest(u, &start, &mut streams[0]);
        loads[u] -= 1;
        loads[v] += 1;
        moved += 1;
    }
    moved
}

impl<S: LoadStore> Engine for LoadEngine<S> {
    /// Runs the storage's kernel under [`Rule::Uniform`], the rule round
    /// otherwise; a weighted round then pairs the `k`-th departing handle
    /// with the `k`-th draw and its handle in the overlay.
    fn step(&mut self) -> usize {
        let srcs = self.weighted.as_mut().map(|o| &mut o.srcs);
        let moved = match &self.rule {
            Rule::Uniform => self.store.round(&mut self.draws, srcs),
            Rule::BestOf(d) => rule_round(
                &mut self.store,
                &mut self.draws,
                srcs,
                |_, store, sampler, rng| best_of(*d, store, sampler, rng),
            ),
            Rule::Neighbors(graph) => {
                rule_round(&mut self.store, &mut self.draws, srcs, |bin, _, _, rng| {
                    // rbb-lint: allow(lossy-cast, reason = "a neighbor is a vertex, one per bin, and every storage asserts n fits the u32 index range")
                    graph.random_neighbor(bin as usize, rng) as u32
                })
            }
        };
        if let Some(overlay) = &mut self.weighted {
            let Draws { dests, handles, .. } = &self.draws;
            overlay.transport(dests, if S::BIN_HANDLES { dests } else { handles });
        }
        self.round += 1;
        debug_assert_eq!(self.store.total(), self.balls, "mass violated");
        debug_assert_eq!(
            self.check_overlay(),
            Ok(()),
            "weight overlay out of lock-step"
        );
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
        if bin >= self.store.n() {
            return 0;
        }
        match &self.weighted {
            Some(o) => (u32::try_from(bin).ok())
                .and_then(|b| self.store.handle(b))
                .map_or(0, |h| o.weighted_load(h)),
            None => u64::from(self.store.load(bin)),
        }
    }

    fn capacities(&self) -> &Capacities {
        &self.capacities
    }

    /// One pass over the overlay's queue records (`O(n)` on dense and
    /// sharded storage, `O(peak #occupied)` on sparse storage) or, unit,
    /// over the storage's occupied bins: empty bins never violate, as
    /// capacities are ≥ 1.
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
    /// record: an overlay, or non-default capacities. `None` under
    /// [`Rule::Neighbors`]: a snapshot cannot carry the graph.
    fn snapshot(&self) -> Option<SnapshotState> {
        let best_of = match self.rule {
            Rule::Uniform => None,
            Rule::BestOf(d) => Some(d),
            Rule::Neighbors(_) => return None,
        };
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
            version: match (best_of, &weighted) {
                (Some(_), _) => SNAPSHOT_VERSION_BEST_OF,
                (None, Some(_)) => SNAPSHOT_VERSION_WEIGHTED,
                (None, None) => SNAPSHOT_VERSION,
            },
            engine: S::KIND.to_string(),
            n: self.store.n(),
            shards: self.draws.streams.len(),
            round: self.round,
            balls: self.balls,
            entries: self.store.entries(),
            rng_states: self.draws.streams.iter().map(Xoshiro256pp::state).collect(),
            weighted,
            best_of,
        })
    }
}

impl<S: LoadStore> Incremental for LoadEngine<S> {
    /// Draws from stream 0 (the engine-convention stream): the best of `d`
    /// uniform bins on the current loads under [`Rule::BestOf`], one
    /// uniform bin otherwise (a new ball has no vertex to walk from); the
    /// weight only feeds the overlay.
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
        let Draws {
            streams, sampler, ..
        } = &mut self.draws;
        let bin = match self.rule {
            Rule::BestOf(d) => best_of(d, &self.store, sampler, &mut streams[0]),
            // rbb-lint: allow(lossy-cast, reason = "the sampler is keyed on n, and every storage asserts n fits the u32 index range")
            _ => sampler.sample(&mut streams[0]) as u32,
        };
        let handle = self.store.arrive(bin);
        self.balls += 1;
        if let Some(o) = &mut self.weighted {
            o.place(bin, handle, weight);
        }
        bin as usize
    }

    fn depart(&mut self, bin: usize) -> bool {
        let Some(b) = u32::try_from(bin).ok().filter(|_| bin < self.store.n()) else {
            return false;
        };
        let Some(handle) = self.store.remove(b) else {
            return false;
        };
        self.balls -= 1;
        if let Some(o) = &mut self.weighted {
            o.depart(handle);
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
                reference_round(&mut loads, &mut streams, &engine.rule),
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
        let version = match (&p.rule, unit) {
            (Rule::BestOf(_), _) => SNAPSHOT_VERSION_BEST_OF,
            (_, true) => SNAPSHOT_VERSION,
            (_, false) => SNAPSHOT_VERSION_WEIGHTED,
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
        weighted.check_overlay().unwrap();

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
