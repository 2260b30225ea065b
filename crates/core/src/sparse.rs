//! The repeated balls-into-bins process — sparse occupancy engine for the
//! `m ≪ n` regime.
//!
//! [`crate::process::LoadProcess`] scans a dense `Vec<u32>` of all `n` bins
//! every round, so a round costs `O(n)` even when only a few thousand bins
//! are ever occupied. [`SparseStore`] holds **only the occupied bins**, in
//! one hash map from each occupied bin to its load and handle, so one round
//! of [`SparseLoadProcess`] costs `O(#non-empty bins + departures)` and
//! resident memory is `O(m)`, independent of `n`. That unlocks the regime
//! the paper's stability claims are most interesting in at scale
//! (`n = 10^8`, `m = 10^3..10^5`), where the dense engine cannot even
//! afford its own load vector comfortably.
//!
//! # Rebuilding the map every round
//!
//! Every occupied bin releases a ball each round, and at `m ≪ n` almost
//! every occupied bin holds one ball, so the set of occupied bins turns
//! over almost completely each round. A round therefore rebuilds the map:
//! one pass keeps each surviving bin (its load minus one, and its handle)
//! and frees the handles of the bins that empty; then the map is cleared,
//! leaving no tombstones and keeping its capacity unless an earlier peak
//! left that over 8× the occupancy, the survivors are re-inserted, and the
//! arrivals are added, one map probe each.
//!
//! # Why the two engines are bit-identical
//!
//! The process consumes randomness in exactly one place: after every
//! non-empty bin releases one ball, the round's `d` departures each draw an
//! i.i.d. uniform destination over `[0, n)`. The *number* of draws depends
//! only on how many bins are non-empty — never on how the loads are stored
//! — and both engines draw through the same primitive
//! ([`UniformSampler`](crate::sampling::UniformSampler), draw-for-draw
//! compatible with `Xoshiro256pp::uniform_usize`). So from the same seed
//! and the same starting configuration, the dense and sparse engines
//! consume identical RNG streams and traverse identical configuration
//! trajectories, round for round — including across `apply_fault`
//! reassignments, which consume no engine randomness. The cross-engine
//! proptests (`tests/proptest_sparse.rs`) pin this over the full factory
//! matrix, fault injection and weights included.
//!
//! # Weighted rounds
//!
//! The weight overlay pairs the `k`-th departing bin with the `k`-th draw,
//! and the dense scan departs in ascending bin order. So the pass of a
//! weighted round also collects `bin << 32 | handle` for every departing
//! bin, and an 11-bit LSD radix sort on the bin (two passes for
//! `n ≤ 2^22`, three beyond) puts the departing handles in that order. The
//! overlay files each bin's weight queue under the bin's *handle*, a small
//! index kept in the bin's map entry: a bin takes a handle when it becomes
//! occupied (the last one freed, or a new one) and frees it when it
//! empties. The arrivals record their handles as they are added, so the
//! overlay probes no map of its own, and its queue records number at most
//! the peak count of occupied bins.
//!
//! # Observing without densifying
//!
//! [`Engine::config`] must hand out a dense [`Config`]; the sparse storage
//! materializes one lazily into a [`OnceCell`] cache (invalidated by every
//! mutation), so callers that genuinely need the dense view — final
//! inspection, the adversary's `placement(…, &Config, …)`, equivalence
//! tests — pay `O(n)` only when they ask. The per-round driver surface
//! (`max_load`, `empty_bins`, `nonempty_bins`, `bin_load`,
//! `nonempty_bins_list`) is answered in `O(#occupied)` or better, and the
//! `rbb_sim` scenario loop and
//! [`crate::metrics::ObserverStack::observe_engine`] read only that
//! surface.
//!
//! [`Engine::config`]: crate::engine::Engine::config

use std::cell::OnceCell;
use std::collections::hash_map::Entry;

use crate::config::Config;
use crate::det_hash::DetHashMap;
use crate::load::{densify, Draws, LoadEngine, LoadStore};
use crate::rng::Xoshiro256pp;
use crate::snapshot::{SnapshotState, ENGINE_SPARSE};
use crate::weights::{Capacities, Weights};

/// One occupied bin of the sparse storage.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Always ≥ 1.
    load: u32,
    /// The bin's handle (see [`LoadStore`]'s handle docs).
    handle: u32,
}

/// Occupancy map of the sparse storage: bin index → load and handle, keyed
/// through the workspace-wide deterministic hasher ([`crate::det_hash`]).
/// The std default (SipHash, randomly seeded) would be several times slower
/// on 4-byte keys and make map layout non-reproducible; bin indices are
/// uniform draws, so no adversarial-key defense is needed.
type LoadMap = DetHashMap<u32, Slot>;

/// Digit width of [`radix_sort`]: two passes sort any bin below 2^22, and
/// three any `u32`.
const RADIX_BITS: u32 = 11;

/// The number of [`radix_sort`] passes over bins below `n`.
fn radix_passes(n: usize) -> u32 {
    let key_bits = usize::BITS - n.saturating_sub(1).leading_zeros();
    key_bits.div_ceil(RADIX_BITS)
}

/// Sorts `pairs`, each `bin << 32 | handle` with `bin < n`, by bin,
/// ascending: a least-significant-digit radix sort over 11-bit digits of
/// the bin, one counting pass and one scatter into `scratch` per digit,
/// swapping the two buffers after each pass (so an odd pass count leaves
/// the result in the buffer that was `scratch`).
fn radix_sort(pairs: &mut Vec<u64>, scratch: &mut Vec<u64>, n: usize) {
    const MASK: u64 = (1 << RADIX_BITS) - 1;
    scratch.resize(pairs.len(), 0);
    for pass in 0..radix_passes(n) {
        let shift = 32 + pass * RADIX_BITS;
        let mut starts = [0u32; 1 << RADIX_BITS];
        for &p in pairs.iter() {
            starts[((p >> shift) & MASK) as usize] += 1;
        }
        let mut sum = 0;
        for start in &mut starts {
            let count = *start;
            *start = sum;
            sum += count;
        }
        for &p in pairs.iter() {
            let start = &mut starts[((p >> shift) & MASK) as usize];
            scratch[*start as usize] = p;
            *start += 1;
        }
        std::mem::swap(pairs, scratch);
    }
}

/// Sparse load storage: the occupied bins only.
#[derive(Debug, Clone)]
pub struct SparseStore {
    n: usize,
    /// Occupied bins only.
    loads: LoadMap,
    /// Handles of emptied bins, reissued (last freed first) before new
    /// ones.
    free: Vec<u32>,
    /// Handles issued so far: every one is an occupied bin's or free.
    issued: u32,
    /// Round scratch, empty between rounds: the bins that keep a ball
    /// through the round, with their new loads.
    survivors: Vec<(u32, Slot)>,
    /// Weighted-round scratch: `bin << 32 | handle` per departing bin, and
    /// the radix sort's second buffer.
    departing: [Vec<u64>; 2],
    /// Lazily materialized dense view for `Engine::config`; invalidated on
    /// every mutation, so steady-state stepping never allocates `O(n)`.
    dense: OnceCell<Config>,
}

impl SparseStore {
    /// Builds from `(bin, load)` entries: duplicate bins merge, zero loads
    /// are ignored. Panics if `n == 0`, a bin is out of range, or the total
    /// exceeds `u32::MAX` (the per-bin capacity — see [`Config::from_loads`]).
    fn from_entries(n: usize, entries: impl IntoIterator<Item = (u32, u32)>) -> Self {
        assert!(n > 0, "a configuration needs at least one bin");
        // Bin indices are u32 throughout the workspace; a larger n would
        // silently truncate destination draws in release builds.
        assert!(
            n <= u32::MAX as usize + 1,
            "bin count {n} exceeds the u32 index range"
        );
        let mut store = Self {
            n,
            loads: LoadMap::default(),
            free: Vec::new(),
            issued: 0,
            survivors: Vec::new(),
            departing: [Vec::new(), Vec::new()],
            dense: OnceCell::new(),
        };
        let mut balls = 0u64;
        for (bin, load) in entries {
            assert!((bin as usize) < n, "bin {bin} out of range 0..{n}");
            if load > 0 {
                balls += u64::from(load);
                store.add(bin, load);
            }
        }
        assert!(
            balls <= u64::from(u32::MAX),
            "total ball count {balls} exceeds u32::MAX and could overflow a single bin"
        );
        store
    }

    /// Adds `load` balls to bin `b` (one map probe), without invalidating
    /// the dense view; returns the bin's handle. A bin that was empty takes
    /// the last freed handle, or a new one.
    #[inline]
    fn add(&mut self, b: u32, load: u32) -> u32 {
        match self.loads.entry(b) {
            Entry::Occupied(mut e) => {
                let slot = e.get_mut();
                slot.load += load;
                slot.handle
            }
            Entry::Vacant(e) => {
                let handle = self.free.pop().unwrap_or_else(|| {
                    self.issued += 1;
                    self.issued - 1
                });
                e.insert(Slot { load, handle });
                handle
            }
        }
    }
}

impl LoadStore for SparseStore {
    const KIND: &'static str = ENGINE_SPARSE;
    const BIN_HANDLES: bool = false;

    fn restore(state: &SnapshotState) -> Self {
        Self::from_entries(state.n, state.entries.iter().copied())
    }

    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    /// Every occupied bin releases one ball: one pass over the map keeps
    /// the survivors and frees the handles of the bins that empty, then
    /// the map is cleared and the survivors re-inserted (see the module
    /// docs). The departures draw their destinations in one batch and
    /// arrive, one map probe each. On a weighted round the pass also
    /// collects the departing bins with their handles, radix-sorted so
    /// that they enter `srcs` in **ascending bin order** — the dense
    /// scan's order — and the weighted sparse engine is bit-identical to
    /// the weighted dense engine; the arrivals record their handles in
    /// `draws.handles`.
    fn round(&mut self, draws: &mut Draws, srcs: Option<&mut Vec<u32>>) -> usize {
        let weighted = srcs.is_some();
        let departures = self.loads.len();
        let [departing, scratch] = &mut self.departing;
        // rbb-lint: allow(unordered-iter, reason = "the map is rebuilt by key, a freed handle names an empty queue whichever bin takes it next, and the departing pairs are radix-sorted by bin before use")
        for (&bin, slot) in &self.loads {
            if weighted {
                departing.push((u64::from(bin) << 32) | u64::from(slot.handle));
            }
            if slot.load > 1 {
                let load = slot.load - 1;
                self.survivors.push((bin, Slot { load, ..*slot }));
            } else {
                self.free.push(slot.handle);
            }
        }
        self.loads.clear();
        // The pass and the clear walk the whole table. A table that an
        // earlier peak left over 8x larger than the occupancy (a daemon
        // that placed and then departed many balls) is cut back to what
        // this round refills, the survivors and the arrivals; the factor
        // keeps a fluctuating occupancy from shrinking and regrowing it.
        if self.loads.capacity() > 8 * departures.max(64) {
            self.loads.shrink_to(2 * departures);
        }
        for (bin, slot) in self.survivors.drain(..) {
            self.loads.insert(bin, slot);
        }
        if let Some(srcs) = srcs {
            radix_sort(departing, scratch, self.n);
            // rbb-lint: allow(lossy-cast, reason = "the low half of a pair is its handle")
            srcs.extend(departing.drain(..).map(|pair| pair as u32));
        }
        draws.dests.resize(departures, 0);
        draws
            .sampler
            .fill_u32(&mut draws.streams[0], &mut draws.dests);
        draws.handles.clear();
        for &b in &draws.dests {
            let handle = self.add(b, 1);
            if weighted {
                draws.handles.push(handle);
            }
        }
        self.dense.take();
        departures
    }

    fn arrive(&mut self, bin: u32) -> u32 {
        let handle = self.add(bin, 1);
        self.dense.take();
        handle
    }

    fn remove(&mut self, bin: u32) -> Option<u32> {
        let Entry::Occupied(mut e) = self.loads.entry(bin) else {
            return None;
        };
        let slot = e.get_mut();
        let handle = slot.handle;
        slot.load -= 1;
        if slot.load == 0 {
            e.remove();
            self.free.push(handle);
        }
        self.dense.take();
        Some(handle)
    }

    #[inline]
    fn handle(&self, bin: u32) -> Option<u32> {
        self.loads.get(&bin).map(|slot| slot.handle)
    }

    fn clear(&mut self) {
        self.loads.clear();
        self.free.clear();
        self.issued = 0;
        self.dense.take();
    }

    #[inline]
    fn load(&self, bin: usize) -> u32 {
        u32::try_from(bin)
            .ok()
            .and_then(|b| self.loads.get(&b))
            .map_or(0, |slot| slot.load)
    }

    #[inline]
    fn nonempty(&self) -> usize {
        self.loads.len()
    }

    fn occupied(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        // rbb-lint: allow(unordered-iter, reason = "callers fold order-independently (max, sum, count, check) or sort (entries)")
        self.loads.iter().map(|(&b, slot)| (b, slot.load))
    }

    /// Materializes (and caches) the dense view — `O(n)`, so per-round
    /// drivers use the cheap accessors instead (see the module docs).
    fn config(&self) -> &Config {
        self.dense.get_or_init(|| densify(self.n, self.occupied()))
    }
}

/// Sparse load-only repeated balls-into-bins simulator: bit-identical in
/// trajectory to [`LoadProcess`](crate::process::LoadProcess) from the same
/// seed and start, at `O(#non-empty bins + departures)` per round and
/// `O(m)` memory.
///
/// ```
/// use rbb_core::prelude::*;
/// use rbb_core::sparse::SparseLoadProcess;
///
/// // 10^7 bins, 1000 balls: rounds cost O(1000), memory O(1000).
/// let mut p = SparseLoadProcess::from_entries(
///     10_000_000,
///     vec![(0, 1_000)],
///     Xoshiro256pp::seed_from(7),
/// );
/// p.run_silent(2_000);
/// assert_eq!(p.balls(), 1_000);
/// assert!(Engine::max_load(&p) >= 1);
/// ```
pub type SparseLoadProcess = LoadEngine<SparseStore>;

impl SparseLoadProcess {
    /// Creates a sparse process from occupied-bin `(bin, load)` entries —
    /// the `O(#entries)` constructor that never touches a dense vector.
    /// Duplicate bins are merged; zero loads are ignored.
    ///
    /// Panics if `n == 0`, a bin index is out of range, or the total ball
    /// count exceeds `u32::MAX` (the per-bin capacity — see
    /// [`Config::from_loads`]).
    ///
    /// # RNG stream
    ///
    /// Takes ownership of `rng` as the engine stream. Bit-compatible with the
    /// dense engine: each round consumes one uniform destination draw per ball
    /// released, in bin order.
    pub fn from_entries(
        n: usize,
        entries: impl IntoIterator<Item = (u32, u32)>,
        rng: Xoshiro256pp,
    ) -> Self {
        Self::with_weights(n, entries, rng, Weights::Unit, Capacities::Unbounded)
    }

    /// The weighted, capacity-observing form of [`Self::from_entries`],
    /// bit-identical to the dense `with_weights` from the same seed and
    /// start, weighted metrics included. Unit weights build no overlay.
    ///
    /// # RNG stream
    ///
    /// Identical to [`Self::from_entries`]: weights never touch the RNG.
    pub fn with_weights(
        n: usize,
        entries: impl IntoIterator<Item = (u32, u32)>,
        rng: Xoshiro256pp,
        weights: Weights,
        capacities: Capacities,
    ) -> Self {
        let store = SparseStore::from_entries(n, entries);
        Self::from_parts(store, vec![rng], weights, capacities)
    }

    /// Creates a sparse process from a dense configuration (collecting its
    /// non-empty bins) — the drop-in replacement for
    /// [`LoadProcess::new`](crate::process::LoadProcess::new).
    ///
    /// # RNG stream
    ///
    /// Takes ownership of `rng` as the engine stream — see
    /// [`Self::from_entries`] for the per-round draw contract.
    pub fn new(config: Config, rng: Xoshiro256pp) -> Self {
        let entries = config.loads().iter().zip(0u32..).map(|(&l, b)| (b, l));
        Self::from_entries(config.n(), entries, rng)
    }

    /// Convenience constructor: `n` balls into `n` bins, one per bin.
    pub fn legitimate_start(n: usize, seed: u64) -> Self {
        // rbb-lint: allow(rng-construct, reason = "engine-convention stream for a core convenience constructor; core cannot depend on rbb_sim::seed")
        Self::new(Config::one_per_bin(n), Xoshiro256pp::seed_from(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Incremental};
    use crate::load::tests::{
        assert_fault_support, assert_matches_reference, assert_place_and_depart,
        assert_snapshot_round_trip, assert_unit_weights_build_the_same_engine,
        assert_weighted_place_and_depart,
    };
    use crate::process::LoadProcess;

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from(seed)
    }

    /// Steps a dense/sparse pair in lockstep, asserting full agreement.
    fn assert_twins(mut dense: LoadProcess, mut sparse: SparseLoadProcess, rounds: u64) {
        for r in 0..rounds {
            assert_eq!(
                dense.step(),
                sparse.step(),
                "departure count diverged at round {r}"
            );
            assert_eq!(Engine::max_load(&dense), Engine::max_load(&sparse));
            assert_eq!(Engine::empty_bins(&dense), Engine::empty_bins(&sparse));
            assert_eq!(dense.config(), Engine::config(&sparse), "round {r}");
        }
        assert_eq!(dense.round(), Engine::round(&sparse));
    }

    #[test]
    fn trajectory_is_bit_identical_to_dense_from_any_start() {
        for (n, m) in [(64usize, 64u32), (100, 7), (33, 200), (2, 1)] {
            let config = Config::all_in_one(n, m);
            assert_twins(
                LoadProcess::new(config.clone(), rng(9)),
                SparseLoadProcess::new(config, rng(9)),
                120,
            );
        }
    }

    #[test]
    fn legitimate_start_matches_dense() {
        assert_matches_reference(&mut SparseLoadProcess::legitimate_start(128, 5), 100);
        assert_twins(
            LoadProcess::legitimate_start(128, 5),
            SparseLoadProcess::legitimate_start(128, 5),
            100,
        );
    }

    #[test]
    fn from_entries_merges_and_validates() {
        let p = SparseLoadProcess::from_entries(10, vec![(3, 2), (3, 1), (9, 5), (0, 0)], rng(1));
        assert_eq!(p.balls(), 8);
        assert_eq!(Engine::nonempty_bins(&p), 2);
        assert_eq!(Engine::bin_load(&p, 3), 3);
        assert_eq!(Engine::bin_load(&p, 9), 5);
        assert_eq!(Engine::bin_load(&p, 0), 0);
        assert_eq!(Engine::config(&p).loads()[3], 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_entries_rejects_out_of_range_bin() {
        SparseLoadProcess::from_entries(4, vec![(4, 1)], rng(1));
    }

    #[test]
    #[should_panic(expected = "could overflow")]
    fn from_entries_rejects_overflowing_mass() {
        SparseLoadProcess::from_entries(4, vec![(0, u32::MAX), (1, 1)], rng(1));
    }

    #[test]
    fn dense_cache_invalidates_on_step() {
        let mut p = SparseLoadProcess::legitimate_start(16, 3);
        let before = Engine::config(&p).clone();
        p.step();
        let after = Engine::config(&p);
        assert_ne!(&before, after, "stale dense snapshot served after a step");
        assert_eq!(after.total_balls(), 16);
    }

    #[test]
    fn cheap_accessors_match_dense_view() {
        let mut p = SparseLoadProcess::from_entries(1000, vec![(1, 3), (997, 1)], rng(7));
        p.run_silent(50);
        let dense = Engine::config(&p).clone();
        assert_eq!(Engine::max_load(&p), dense.max_load());
        assert_eq!(Engine::empty_bins(&p), dense.empty_bins());
        assert_eq!(Engine::nonempty_bins(&p), dense.nonempty_bins());
        for b in 0..1000 {
            assert_eq!(Engine::bin_load(&p, b), dense.loads()[b]);
        }
        let mut list = Engine::nonempty_bins_list(&p).unwrap();
        list.sort_unstable();
        let expect: Vec<u32> = dense
            .loads()
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l > 0)
            .map(|(b, _)| b as u32)
            .collect();
        assert_eq!(list, expect);
    }

    #[test]
    fn apply_fault_matches_dense_fault_path() {
        let mut dense = LoadProcess::legitimate_start(32, 21);
        let mut sparse = SparseLoadProcess::legitimate_start(32, 21);
        for _ in 0..40 {
            dense.step();
            sparse.step();
        }
        let placement: Vec<usize> = (0..32).map(|i| i % 5).collect();
        Engine::apply_fault(&mut dense, &placement);
        Engine::apply_fault(&mut sparse, &placement);
        assert_eq!(dense.config(), Engine::config(&sparse));
        // Post-fault trajectories keep agreeing (no RNG was consumed).
        assert_twins(dense, sparse, 60);
    }

    #[test]
    #[should_panic(expected = "conserve")]
    fn apply_fault_rejects_mass_change() {
        let mut p = SparseLoadProcess::legitimate_start(8, 1);
        Engine::apply_fault(&mut p, &[0; 9]);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let p = SparseLoadProcess::from_entries(1000, vec![(3, 40), (700, 2)], rng(31));
        assert_snapshot_round_trip(p, 25);
    }

    #[test]
    fn place_and_depart_track_occupancy() {
        let mut p = SparseLoadProcess::from_entries(50, vec![(10, 2)], rng(41));
        assert_place_and_depart(p.clone());
        let b = p.place();
        assert!(p.depart(10));
        assert!(p.depart(10) || b == 10, "bin 10 had 2 balls");
        assert_store_consistent(&p.store);
    }

    #[test]
    fn place_matches_dense_place_bit_for_bit() {
        let mut dense = LoadProcess::legitimate_start(64, 51);
        let mut sparse = SparseLoadProcess::legitimate_start(64, 51);
        for _ in 0..30 {
            assert_eq!(dense.place(), sparse.place());
        }
        assert_twins(dense, sparse, 40);
    }

    #[test]
    fn round_cost_tracks_occupancy_not_n() {
        // Smoke-level scale check: n = 10^7 with 500 balls must step fast
        // (a dense engine would scan 10^7 slots per round — ~10^10 slot
        // visits for this loop).
        let mut p = SparseLoadProcess::from_entries(10_000_000, vec![(0, 500)], rng(2));
        p.run_silent(1_000);
        assert_eq!(p.balls(), 500);
        assert!(Engine::nonempty_bins(&p) <= 500);
        assert!(Engine::empty_bins(&p) >= 10_000_000 - 500);
    }

    #[test]
    fn rounds_cut_back_a_map_left_large_by_departures() {
        // 4096 balls depart down to 10: the next round walks and refills a
        // table sized for what is left, on the dense engine's trajectory.
        let n = 1 << 16;
        let entries = crate::sampling::random_assignment_entries(&mut rng(95), n, 4096);
        let mut sparse = SparseLoadProcess::from_entries(n, entries.iter().copied(), rng(96));
        let mut dense = LoadProcess::new(Engine::config(&sparse).clone(), rng(96));
        for &(bin, load) in &entries {
            for _ in 0..load {
                if sparse.balls() > 10 {
                    assert!(sparse.depart(bin as usize) && dense.depart(bin as usize));
                }
            }
        }
        let peak = sparse.store.loads.capacity();
        assert_eq!(sparse.step(), dense.step());
        let after = sparse.store.loads.capacity();
        assert!(after * 8 < peak, "capacity {peak} -> {after}");
        assert_twins(dense, sparse, 50);
    }

    #[test]
    fn engine_run_family_works() {
        let mut p = SparseLoadProcess::legitimate_start(64, 11);
        let hit = p.run_until(10_000, |c| c.max_load() >= 3);
        assert!(hit.is_some());
        let mut q = SparseLoadProcess::from_entries(64, vec![(0, 64)], rng(11));
        q.run_silent(100);
        assert_eq!(q.round(), 100);
        assert_eq!(q.balls(), 64);
    }

    /// Every mapped bin holds a ball, and every issued handle is held by
    /// one bin or free, once.
    fn assert_store_consistent(store: &SparseStore) {
        assert!(store.loads.values().all(|slot| slot.load > 0));
        let mut handles: Vec<u32> = store.loads.values().map(|slot| slot.handle).collect();
        handles.extend(&store.free);
        handles.sort_unstable();
        assert!(
            handles.iter().copied().eq(0..store.issued),
            "every issued handle is held or free, once"
        );
    }

    #[test]
    fn map_and_handles_stay_consistent_under_churn() {
        let mut p = SparseLoadProcess::from_entries(50, vec![(10, 40)], rng(13));
        for _ in 0..300 {
            p.step();
            assert_store_consistent(&p.store);
        }
    }

    #[test]
    fn weighted_sparse_is_bit_identical_to_weighted_dense() {
        // The tentpole invariant at the sparse layer: from the same seed,
        // start, and weights, the weighted sparse engine matches the
        // weighted dense engine in trajectory, RNG stream, and every
        // weighted metric — the sorted-departure transport reproduces the
        // dense scan order exactly.
        let n = 96;
        let weights = Weights::zipf(n as u64, 1.0, 40);
        let caps = Capacities::Uniform(50);
        let mut dense = LoadProcess::with_weights(
            Config::one_per_bin(n),
            rng(71),
            weights.clone(),
            caps.clone(),
        );
        let entries = (0..n as u32).map(|b| (b, 1));
        let mut sparse = SparseLoadProcess::with_weights(n, entries, rng(71), weights, caps);
        assert!(Engine::weighted(&sparse));
        for r in 0..160 {
            assert_eq!(
                dense.step(),
                sparse.step(),
                "departure count diverged at round {r}"
            );
            assert_eq!(
                Engine::weighted_max_load(&dense),
                Engine::weighted_max_load(&sparse),
                "weighted max load diverged at round {r}"
            );
            assert_eq!(
                Engine::capacity_violations(&dense),
                Engine::capacity_violations(&sparse),
                "violation count diverged at round {r}"
            );
            assert_eq!(dense.config(), Engine::config(&sparse), "round {r}");
        }
        assert_eq!(Engine::total_weight(&dense), Engine::total_weight(&sparse));
        for bin in 0..n {
            assert_eq!(
                Engine::weighted_bin_load(&dense, bin),
                Engine::weighted_bin_load(&sparse, bin)
            );
        }
        let a = Engine::snapshot(&dense).unwrap();
        let b = Engine::snapshot(&sparse).unwrap();
        assert_eq!(a.weighted, b.weighted, "identical weighted sections");
        assert_eq!(a.entries, b.entries);
    }

    fn zipf_process(n: usize, seed: u64, w_max: u32, caps: Capacities) -> SparseLoadProcess {
        let entries = (0..n as u32).map(|b| (b, 1));
        let weights = Weights::zipf(n as u64, 1.0, w_max);
        SparseLoadProcess::with_weights(n, entries, rng(seed), weights, caps)
    }

    #[test]
    fn weighted_snapshot_round_trips_bit_identically() {
        assert_snapshot_round_trip(zipf_process(48, 72, 30, Capacities::Uniform(25)), 19);
    }

    #[test]
    fn unit_weights_build_the_same_sparse_engine() {
        let unit = SparseLoadProcess::with_weights(
            64,
            (0..64).map(|b| (b, 1)),
            rng(73),
            Weights::Explicit(vec![1; 64]),
            Capacities::Unbounded,
        );
        assert_unit_weights_build_the_same_engine(
            SparseLoadProcess::legitimate_start(64, 73),
            unit,
        );
    }

    #[test]
    fn weighted_place_and_depart_track_the_overlay() {
        assert_weighted_place_and_depart(zipf_process(32, 74, 20, Capacities::Unbounded));
    }

    #[test]
    fn only_unit_weight_engines_support_faults() {
        let capacity_only = SparseLoadProcess::with_weights(
            16,
            (0..16).map(|b| (b, 1)),
            rng(75),
            Weights::Unit,
            Capacities::Uniform(3),
        );
        assert_fault_support(
            zipf_process(16, 75, 8, Capacities::Unbounded),
            capacity_only,
        );
    }

    #[test]
    fn load_map_layout_is_reproducible_across_builds() {
        let build = || {
            let mut m = LoadMap::default();
            for i in 0..500u32 {
                m.insert(
                    i.wrapping_mul(48_271),
                    Slot {
                        load: i + 1,
                        handle: i,
                    },
                );
            }
            m.keys().copied().collect::<Vec<u32>>()
        };
        assert_eq!(build(), build(), "deterministic hasher, identical layout");
    }
    /// Asserts that a weighted dense/sparse pair agree on every weighted
    /// observable, and that both overlays are in lock-step with their loads.
    fn assert_weighted_twins(dense: &LoadProcess, sparse: &SparseLoadProcess, at: &str) {
        assert_eq!(dense.config(), Engine::config(sparse), "{at}");
        for bin in 0..dense.n() {
            assert_eq!(
                Engine::weighted_bin_load(dense, bin),
                Engine::weighted_bin_load(sparse, bin),
                "{at}, bin {bin}"
            );
        }
        assert_eq!(
            Engine::weighted_max_load(dense),
            Engine::weighted_max_load(sparse),
            "{at}"
        );
        assert_eq!(
            Engine::capacity_violations(dense),
            Engine::capacity_violations(sparse),
            "{at}"
        );
        dense.check_overlay().unwrap();
        sparse.check_overlay().unwrap();
    }

    #[test]
    fn reissued_handles_keep_the_overlay_in_step_with_dense() {
        // Bins 0 and 1 hold one ball each (weights 7 and 3). Seed 64 draws
        // bins 2 and 1 in round 1, then places in bin 3.
        let weights = Weights::Explicit(vec![7, 3]);
        let caps = Capacities::Explicit(vec![6, 5, 4, 3]);
        let start = Config::from_loads(vec![1, 1, 0, 0]);
        let mut dense = LoadProcess::with_weights(start, rng(64), weights.clone(), caps.clone());
        let mut sparse =
            SparseLoadProcess::with_weights(4, [(0, 1), (1, 1)], rng(64), weights, caps);
        let handle = |p: &SparseLoadProcess, bin| p.store.handle(bin);
        assert_eq!(sparse.store.issued, 2);
        assert_weighted_twins(&dense, &sparse, "start");

        // Both bins release their last ball and free their handles. Bin 0's
        // ball lands in the empty bin 2 and bin 1's back in bin 1: both
        // take a handle freed this round, so none is issued.
        assert_eq!(sparse.step(), dense.step());
        assert_eq!((handle(&sparse, 0), handle(&sparse, 3)), (None, None));
        let (Some(h1), Some(h2)) = (handle(&sparse, 1), handle(&sparse, 2)) else {
            panic!("bins 1 and 2 are occupied");
        };
        assert_ne!(h1, h2);
        assert_eq!(sparse.store.issued, 2, "bin 2 reuses a freed handle");
        assert_eq!(Engine::weighted_bin_load(&sparse, 2), 7);
        assert_eq!(Engine::weighted_bin_load(&sparse, 1), 3);
        assert_weighted_twins(&dense, &sparse, "after round 1");

        // An incremental departure empties bin 2 and frees its handle,
        // which the next placement's empty bin 3 takes.
        assert!(sparse.depart(2) && dense.depart(2));
        assert_eq!(handle(&sparse, 2), None);
        assert_weighted_twins(&dense, &sparse, "after the depart");
        assert_eq!(sparse.place_weighted(5), 3);
        assert_eq!(dense.place_weighted(5), 3);
        assert_eq!(handle(&sparse, 3), Some(h2));
        assert_eq!(handle(&sparse, 1), Some(h1));
        assert_weighted_twins(&dense, &sparse, "after the placement");

        for r in 2..40 {
            assert_eq!(sparse.step(), dense.step());
            assert_weighted_twins(&dense, &sparse, &format!("round {r}"));
            assert_store_consistent(&sparse.store);
        }
    }

    #[test]
    fn weighted_twins_agree_when_most_bins_keep_balls() {
        // At m = 8n nearly every occupied bin survives a round, so the
        // rebuilt map carries queues across rounds under kept handles while
        // the bins that empty hand theirs on.
        let (n, m) = (64, 512);
        let start = Config::random(&mut rng(91), n, m);
        let weights = Weights::zipf(m, 0.5, 60);
        let caps = Capacities::Explicit((0..n as u64).map(|b| 20 + 7 * (b % 9)).collect());
        let mut dense =
            LoadProcess::with_weights(start.clone(), rng(92), weights.clone(), caps.clone());
        let entries = start.loads().iter().zip(0u32..).map(|(&l, b)| (b, l));
        let mut sparse = SparseLoadProcess::with_weights(n, entries, rng(92), weights, caps);
        assert_weighted_twins(&dense, &sparse, "start");
        let mut violated = false;
        for r in 0..300 {
            let survivors = (0..n).filter(|&b| Engine::bin_load(&sparse, b) > 1).count();
            assert!(
                survivors > n / 2,
                "round {r}: only {survivors} bins survive"
            );
            assert_eq!(dense.step(), sparse.step(), "round {r}");
            assert_weighted_twins(&dense, &sparse, &format!("round {r}"));
            violated |= Engine::capacity_violations(&sparse) > 0;
        }
        assert!(violated, "the capacities never bind");
        assert_store_consistent(&sparse.store);
    }

    #[test]
    fn radix_sort_matches_sort_unstable() {
        let cases = [
            (2, 1),
            (1 << 11, 1),
            ((1 << 11) + 1, 2),
            (1 << 22, 2),
            ((1 << 22) + 1, 3),
            (1 << 32, 3),
        ];
        // The low half is a scrambled copy of the bin: repeated bins make
        // equal pairs, so any correct sort gives one order.
        let pair = |bin: u64| (bin << 32) | u64::from((bin as u32).wrapping_mul(0x9E37_79B1));
        let mut rng = rng(2016);
        let (mut pairs, mut scratch) = (Vec::new(), Vec::new());
        for (n, passes) in cases {
            assert_eq!(radix_passes(n), passes, "n = {n}");
            for len in [0, 1, 2, 255, 2049, 10_000] {
                pairs.clear();
                pairs.extend((0..len).map(|_| pair(rng.uniform_usize(n) as u64)));
                let mut want = pairs.clone();
                want.sort_unstable_by_key(|&p| p >> 32);
                radix_sort(&mut pairs, &mut scratch, n);
                assert_eq!(pairs, want, "n = {n}, {len} pairs");
            }
        }
    }
}
