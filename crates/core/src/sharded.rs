//! The repeated balls-into-bins process — sharded single-trial engine.
//!
//! [`crate::process::LoadProcess`] runs one trial on one core; at
//! `n = 10^7+` a single dense trial is the bottleneck of the large-`n`
//! stability experiments. [`ShardedStore`] partitions the bins into `S`
//! fixed shards, each owning a contiguous *column* of the load vector and
//! its **own RNG stream**, so a round of [`ShardedLoadProcess`] decomposes
//! into two embarrassingly parallel phases joined by a barrier:
//!
//! 1. **Depart + throw** (per shard): a branchless departure scan over the
//!    shard's own column, then a batched Lemire draw of that shard's
//!    destinations — one global uniform draw per departure, from the
//!    *shard's* stream — routed into per-destination-shard outboxes.
//! 2. **Merge** (per shard): each shard applies its inbound arrivals,
//!    reading the senders' outboxes in shard-index order.
//!
//! # Partition
//!
//! Bins are sharded by a masked-hash rule: bin `b` belongs to shard
//! `b mod S` and sits at column index `b div S` (a mask and a shift when
//! `S` is a power of two). The rule is a pure function of `(b, S)`, so the
//! partition — and therefore the trajectory — depends only on the shard
//! count, never on the worker count.
//!
//! # Determinism contract
//!
//! * **Fixed shard count ⇒ bit-identical trajectories at any thread
//!   count.** Each shard's draws come from its own stream and depend only
//!   on its own column; the merge reads outboxes in shard-index order; and
//!   arrival application is commutative (pure increments). The parallel and
//!   sequential round drivers therefore produce identical states, which the
//!   unit tests pin; the storage picks one by `n` alone.
//! * **`S = 1` is bit-identical to the dense engine.** Shard 0 uses the
//!   engine-convention stream (`seed_from(seed)`), and the single-shard
//!   round reduces to exactly the dense scan + batched-throw sequence.
//! * **Different shard counts are equal in law, not per seed.** For `S > 1`
//!   the round's `d` draws are split across `S` streams, so trajectories
//!   differ from the dense stream draw-for-draw while the process law — `d`
//!   i.i.d. uniform destinations per round — is unchanged
//!   (`tests/proptest_sharded.rs` pins the law-level invariants).
//!
//! The per-shard streams are documented at [`SHARD_STREAM_SALT`].

use std::cell::OnceCell;
use std::sync::Mutex;

use rayon::prelude::*;

use crate::config::Config;
use crate::load::{ascending, densify, Draws, LoadEngine, LoadStore};
use crate::rng::Xoshiro256pp;
use crate::sampling::UniformSampler;
use crate::snapshot::ENGINE_SHARDED;
use crate::weights::{Capacities, Weights};

/// Base salt of the per-shard RNG streams: shard `s ≥ 1` draws from
/// `Xoshiro256pp::stream(seed, SHARD_STREAM_SALT + s)`, disjoint from the
/// engine stream, the adversary stream (`0xADFE`) and each other. Shard 0
/// uses the salt-free engine-convention stream so a 1-shard process is
/// bit-identical to the dense engine. Salts `SHARD_STREAM_SALT..
/// SHARD_STREAM_SALT + S` are reserved; spec-level salts must stay clear of
/// this range (the adversary's and the start salts are).
pub const SHARD_STREAM_SALT: u64 = 0x5AA4_DED0;

/// Bin-count threshold below which a round runs the two phases
/// sequentially instead of through the thread pool: the parallel and
/// sequential round drivers produce identical states (pinned by unit
/// tests), so this is purely a scheduling choice — per-round thread spawns
/// only pay for themselves once a column scan is macroscopic.
const PAR_MIN_N: usize = 1 << 19;

/// Outbox row of one sender shard: `row[t]` holds the *column indices*
/// (destination-local) of the balls this shard threw into shard `t`, in
/// draw order.
type OutRow = Vec<Vec<u32>>;

/// The masked-hash partition rule: shard of `b` is `b mod S`, column index
/// is `b div S` — a mask and a shift when `S` is a power of two (the
/// performance configurations), one division otherwise (supported for
/// law-equality tests at odd shard counts).
#[derive(Debug, Clone, Copy)]
struct Router {
    count: u32,
    /// `Some((mask, shift))` when the shard count is a power of two.
    mask_shift: Option<(u32, u32)>,
}

impl Router {
    fn of(shard_count: usize) -> Self {
        assert!(
            shard_count >= 1 && shard_count <= u32::MAX as usize,
            "shard count {shard_count} out of the supported 1..=u32::MAX range"
        );
        // rbb-lint: allow(lossy-cast, reason = "shard_count <= u32::MAX is asserted above")
        let count = shard_count as u32;
        let mask_shift = count
            .is_power_of_two()
            .then(|| (count - 1, count.trailing_zeros()));
        Self { count, mask_shift }
    }

    /// Maps a global bin index to `(owner shard, column index)`.
    #[inline]
    fn route(self, b: u32) -> (usize, u32) {
        match self.mask_shift {
            Some((mask, shift)) => ((b & mask) as usize, b >> shift),
            None => ((b % self.count) as usize, b / self.count),
        }
    }

    /// Inverse of [`route`](Router::route): the global bin index of column
    /// slot `idx` in shard `s`.
    #[inline]
    fn unroute(self, s: u32, idx: u32) -> u32 {
        idx * self.count + s
    }
}

/// One owned shard: a contiguous column of the (strided) load vector, an
/// incremental non-empty counter, and the batched draw scratch. Its RNG
/// stream is the engine's stream of the same index.
#[derive(Debug, Clone)]
struct Shard {
    /// Column `loads[idx]` is the load of global bin `idx * S + s`.
    loads: Vec<u32>,
    /// Number of non-empty bins in this column (maintained incrementally).
    nonempty: usize,
    /// This round's raw draws (global bins, draw order).
    dests: Vec<u32>,
}

impl Shard {
    /// One arrival at column slot `idx`.
    #[inline]
    fn add(&mut self, idx: u32) {
        let slot = &mut self.loads[idx as usize];
        debug_assert_ne!(*slot, u32::MAX, "column slot {idx} would overflow u32");
        self.nonempty += usize::from(*slot == 0);
        *slot += 1;
    }
}

/// Phase 1 for one shard: branchless departure scan over the column, then
/// the shard's batched destination draws from its own stream, routed into
/// its outbox row (cleared first). Returns the departure count.
fn depart_and_throw(
    shard: &mut Shard,
    row: &mut OutRow,
    rng: &mut Xoshiro256pp,
    sampler: &UniformSampler,
    router: Router,
) -> usize {
    // Counted in u32 lanes: a shard's non-empty bins never outnumber the
    // balls, which the engine keeps at or below u32::MAX.
    let mut departures = 0u32;
    let mut still = 0u32;
    for l in shard.loads.iter_mut() {
        // Branchless, like the dense kernel: at equilibrium occupancy the
        // `l > 0` branch is close to worst-case unpredictable.
        let occupied = u32::from(*l > 0);
        *l -= occupied;
        departures += occupied;
        still += u32::from(*l > 0);
    }
    shard.nonempty = still as usize;
    for dest in row.iter_mut() {
        dest.clear();
    }
    shard.dests.resize(departures as usize, 0);
    sampler.fill_u32(rng, &mut shard.dests);
    for &b in &shard.dests {
        let (t, idx) = router.route(b);
        row[t].push(idx);
    }
    departures as usize
}

/// Phase 2 for one shard: applies the inbound arrivals addressed to shard
/// `t`, reading every sender's outbox in shard-index order. Arrival
/// application is commutative, so this order is a convention, not a
/// correctness requirement.
fn apply_inbound(shard: &mut Shard, rows: &[OutRow], t: usize) {
    for row in rows {
        for &idx in &row[t] {
            shard.add(idx);
        }
    }
}

/// Sharded load storage: `S` strided columns under the `b mod S` routing, with
/// the round's outboxes and a sequential and a parallel round driver.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    n: usize,
    router: Router,
    shards: Vec<Shard>,
    /// `outboxes[s][t]`: balls thrown by shard `s` into shard `t` this
    /// round (column indices, draw order). Buffers are reused across
    /// rounds.
    outboxes: Vec<OutRow>,
    /// Lazily materialized dense view for `Engine::config`; invalidated on
    /// every mutation.
    dense: OnceCell<Config>,
}

impl ShardedStore {
    /// Both phases in shard-index order on the calling thread. With
    /// `srcs`, each shard's departing bins are recorded in column order and
    /// its draws appended to `draws.dests` in draw order — at `S = 1`
    /// exactly the dense scan.
    fn round_sequential(&mut self, draws: &mut Draws, mut srcs: Option<&mut Vec<u32>>) -> usize {
        let router = self.router;
        let mut departures = 0usize;
        draws.dests.clear();
        let columns = self.shards.iter_mut().zip(&mut self.outboxes);
        for (((shard, row), rng), s) in columns.zip(&mut draws.streams).zip(0u32..) {
            if let Some(srcs) = srcs.as_deref_mut() {
                let occupied = shard.loads.iter().zip(0u32..).filter(|&(&l, _)| l > 0);
                srcs.extend(occupied.map(|(_, idx)| router.unroute(s, idx)));
            }
            departures += depart_and_throw(shard, row, rng, &draws.sampler, router);
            if srcs.is_some() {
                draws.dests.extend_from_slice(&shard.dests);
            }
        }
        for (t, shard) in self.shards.iter_mut().enumerate() {
            apply_inbound(shard, &self.outboxes, t);
        }
        departures
    }

    /// Both phases through the thread pool, one task per shard, with a
    /// barrier between them. Each task locks only its own shard's state
    /// (the mutexes exist to satisfy the `Fn` closure bound; they are
    /// uncontended by construction), so the result is identical to
    /// [`round_sequential`](Self::round_sequential) at any worker count.
    fn round_parallel(&mut self, draws: &mut Draws) -> usize {
        let (sampler, router) = (draws.sampler, self.router);
        let columns = self.shards.iter_mut().zip(&mut self.outboxes);
        let work: Vec<Mutex<_>> = columns
            .zip(&mut draws.streams)
            .map(|((shard, row), rng)| Mutex::new((shard, row, rng)))
            .collect();
        let departures: usize = (0..work.len())
            .into_par_iter()
            .map(|s| {
                // rbb-lint: allow(panic, unordered-merge, reason = "commutes: task index = shard index, so each task locks only its own uncontended shard and no cross-task state merges; poisoning would mean a sibling panicked, which rayon re-raises anyway")
                let mut guard = work[s].lock().expect("shard mutex poisoned");
                let (shard, row, rng) = &mut *guard;
                // rbb-lint: allow(rng-in-par, reason = "rng is the engine stream of this shard, pre-salted with SHARD_STREAM_SALT at construction; tasks never share a stream")
                depart_and_throw(shard, row, rng, &sampler, router)
            })
            .collect::<Vec<usize>>()
            .into_iter()
            .sum();
        drop(work);
        let rows = &self.outboxes;
        let cells: Vec<Mutex<&mut Shard>> = self.shards.iter_mut().map(Mutex::new).collect();
        let _: Vec<()> = (0..cells.len())
            .into_par_iter()
            .map(|t| {
                // rbb-lint: allow(panic, unordered-merge, reason = "commutes: task index = shard index, so each task locks only its own uncontended shard and no cross-task state merges; poisoning would mean a sibling panicked, which rayon re-raises anyway")
                let mut shard = cells[t].lock().expect("shard mutex poisoned");
                apply_inbound(&mut shard, rows, t);
            })
            .collect();
        departures
    }
}

impl LoadStore for ShardedStore {
    const KIND: &'static str = ENGINE_SHARDED;
    const BIN_HANDLES: bool = true;

    /// Routes each entry straight into its shard's column: the columns are
    /// the only `O(n)` buffers construction allocates.
    fn fill(
        n: usize,
        shards: usize,
        entries: impl Iterator<Item = (u32, u32)>,
        mut filed: impl FnMut(u32, u32, u32),
    ) -> Self {
        let entries = ascending(n, entries);
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shards <= n,
            "shard count {shards} exceeds the bin count {n}"
        );
        let router = Router::of(shards);
        let mut columns: Vec<Shard> = (0..shards)
            .map(|s| Shard {
                loads: vec![0u32; (n - s).div_ceil(shards)],
                nonempty: 0,
                dests: Vec::new(),
            })
            .collect();
        entries.for_each(|(bin, load)| {
            let (s, idx) = router.route(bin);
            let shard = &mut columns[s];
            shard.loads[idx as usize] = load;
            shard.nonempty += 1;
            filed(bin, bin, load);
        });
        Self {
            n,
            router,
            shards: columns,
            outboxes: vec![vec![Vec::new(); shards]; shards],
            dense: OnceCell::new(),
        }
    }

    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    /// Runs the parallel driver for unit rounds once `n ≥ PAR_MIN_N` (and
    /// `S > 1`), the sequential one otherwise; weighted rounds always run
    /// sequentially, which records the transport order.
    fn round(&mut self, draws: &mut Draws, srcs: Option<&mut Vec<u32>>) -> usize {
        let moved = if srcs.is_none() && self.shards.len() > 1 && self.n >= PAR_MIN_N {
            self.round_parallel(draws)
        } else {
            self.round_sequential(draws, srcs)
        };
        self.dense.take();
        debug_assert!(self
            .shards
            .iter()
            .all(|s| s.nonempty == s.loads.iter().filter(|&&l| l > 0).count()));
        moved
    }

    fn arrive(&mut self, bin: u32) -> u32 {
        let (s, idx) = self.router.route(bin);
        self.shards[s].add(idx);
        self.dense.take();
        bin
    }

    fn remove(&mut self, bin: u32) -> Option<u32> {
        let (s, idx) = self.router.route(bin);
        let shard = &mut self.shards[s];
        let slot = &mut shard.loads[idx as usize];
        if *slot == 0 {
            return None;
        }
        *slot -= 1;
        shard.nonempty -= usize::from(*slot == 0);
        self.dense.take();
        Some(bin)
    }

    #[inline]
    fn handle(&self, bin: u32) -> Option<u32> {
        Some(bin)
    }

    fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.loads.fill(0);
            shard.nonempty = 0;
        }
        self.dense.take();
    }

    #[inline]
    fn load(&self, bin: usize) -> u32 {
        debug_assert!(bin < self.n);
        u32::try_from(bin).map_or(0, |b| {
            let (s, idx) = self.router.route(b);
            self.shards[s].loads[idx as usize]
        })
    }

    fn max_load(&self) -> u32 {
        let loads = self.shards.iter().flat_map(|s| &s.loads);
        loads.copied().max().unwrap_or(0)
    }

    /// `O(S)`: the per-shard counters are maintained incrementally.
    #[inline]
    fn nonempty(&self) -> usize {
        self.shards.iter().map(|s| s.nonempty).sum()
    }

    fn occupied(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let router = self.router;
        self.shards.iter().zip(0u32..).flat_map(move |(shard, s)| {
            let column = shard.loads.iter().zip(0u32..);
            column
                .filter(|&(&l, _)| l > 0)
                .map(move |(&l, idx)| (router.unroute(s, idx), l))
        })
    }

    /// Materializes (and caches) the dense view — `O(n)`, so per-round
    /// drivers use the cheap accessors instead.
    fn config(&self) -> &Config {
        self.dense.get_or_init(|| densify(self.n, self.occupied()))
    }
}

/// Sharded load-only repeated balls-into-bins simulator: law-equal to
/// [`LoadProcess`](crate::process::LoadProcess) at any shard count,
/// bit-identical to it at `S = 1`, and bit-identical to *itself* for a
/// fixed shard count at any `RAYON_NUM_THREADS` (see the module docs for
/// the full determinism contract).
///
/// ```
/// use rbb_core::prelude::*;
/// use rbb_core::sharded::ShardedLoadProcess;
///
/// let mut p = ShardedLoadProcess::legitimate_start(1024, 7, 4);
/// p.run_silent(100);
/// assert_eq!(p.balls(), 1024); // mass conserved
/// assert_eq!(p.round(), 100);
/// ```
pub type ShardedLoadProcess = LoadEngine<ShardedStore>;

impl ShardedLoadProcess {
    /// Creates a sharded process from an initial configuration, the
    /// scenario seed, and a shard count.
    ///
    /// Panics if `shards` is zero, exceeds `n`, or `n` exceeds the `u32`
    /// index range.
    ///
    /// # RNG stream
    ///
    /// Derives `shards` private streams from `seed`: shard 0 gets the
    /// engine-convention stream (`seed_from(seed)` — so `shards = 1`
    /// reproduces the dense engine bit-for-bit), shard `s ≥ 1` gets stream
    /// `SHARD_STREAM_SALT + s`. Each round, shard `s` consumes one uniform
    /// destination draw per ball it releases, in column order.
    pub fn new(config: Config, seed: u64, shards: usize) -> Self {
        Self::with_weights(config, seed, shards, Weights::Unit, Capacities::Unbounded)
    }

    /// Creates a weighted, capacity-observing sharded process.
    /// [`Weights::Unit`] (or an explicit all-ones vector) builds no overlay,
    /// so the unit configuration is the same engine as [`Self::new`]. At
    /// `shards = 1` the weighted trajectory — and every weighted metric —
    /// is bit-identical to the dense `with_weights`; at `shards > 1` it is
    /// law-equal, exactly as in the unit regime. One pass over `config`
    /// fills the shard columns, counts the balls and files the weights;
    /// starts that need no dense copy at all go to
    /// [`LoadEngine::from_sorted_entries`] with [`shard_streams`].
    ///
    /// # RNG stream
    ///
    /// As [`Self::new`]; weights never touch the streams.
    pub fn with_weights(
        config: Config,
        seed: u64,
        shards: usize,
        weights: Weights,
        capacities: Capacities,
    ) -> Self {
        let entries = config.loads().iter().zip(0u32..).map(|(&l, b)| (b, l));
        let streams = shard_streams(seed, shards);
        Self::from_sorted_entries(config.n(), entries, streams, weights, capacities)
    }

    /// Convenience constructor: `n` balls into `n` bins, one per bin.
    pub fn legitimate_start(n: usize, seed: u64, shards: usize) -> Self {
        Self::new(Config::one_per_bin(n), seed, shards)
    }
}

/// The `shards` RNG streams of a sharded engine seeded with `seed`, in
/// shard order.
///
/// # RNG stream
///
/// Shard 0 gets the engine-convention stream (`seed_from(seed)`, so one
/// shard reproduces the dense engine bit-for-bit), shard `s ≥ 1` stream
/// `SHARD_STREAM_SALT + s` of `seed` — see the module docs.
pub fn shard_streams(seed: u64, shards: usize) -> Vec<Xoshiro256pp> {
    let stream = |s: usize| {
        if s == 0 {
            // rbb-lint: allow(rng-construct, reason = "shard 0 is the engine-convention stream, so shards = 1 is bit-identical to the dense engine; core cannot depend on rbb_sim::seed")
            Xoshiro256pp::seed_from(seed)
        } else {
            // rbb-lint: allow(rng-construct, reason = "per-shard streams are derived from the scenario seed at the documented reserved salts; core cannot depend on rbb_sim::seed")
            Xoshiro256pp::stream(seed, SHARD_STREAM_SALT + s as u64)
        }
    };
    (0..shards).map(stream).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Faults, Incremental};
    use crate::load::tests::{
        assert_fault_support, assert_matches_reference, assert_place_and_depart,
        assert_snapshot_round_trip, assert_unit_weights_build_the_same_engine,
        assert_weighted_place_and_depart,
    };
    use crate::process::LoadProcess;

    /// Steps a dense/sharded pair in lockstep, asserting full agreement —
    /// only meaningful at `shards = 1` (the bit-identity case).
    fn assert_twins(mut dense: LoadProcess, mut sharded: ShardedLoadProcess, rounds: u64) {
        for r in 0..rounds {
            assert_eq!(
                dense.step(),
                sharded.step(),
                "departure count diverged at round {r}"
            );
            assert_eq!(Engine::max_load(&dense), Engine::max_load(&sharded));
            assert_eq!(Engine::empty_bins(&dense), Engine::empty_bins(&sharded));
            assert_eq!(dense.config(), Engine::config(&sharded), "round {r}");
        }
        assert_eq!(dense.round(), Engine::round(&sharded));
    }

    #[test]
    fn one_shard_is_bit_identical_to_dense_from_any_start() {
        for (n, m) in [(64usize, 64u32), (100, 7), (33, 200), (2, 1)] {
            let config = Config::all_in_one(n, m);
            assert_twins(
                LoadProcess::new(config.clone(), Xoshiro256pp::seed_from(9)),
                ShardedLoadProcess::new(config, 9, 1),
                120,
            );
        }
    }

    #[test]
    fn one_shard_legitimate_start_matches_dense() {
        assert_twins(
            LoadProcess::legitimate_start(128, 5),
            ShardedLoadProcess::legitimate_start(128, 5, 1),
            100,
        );
    }

    #[test]
    fn scalar_and_batched_are_bit_identical_at_every_shard_count() {
        for shards in [1usize, 2, 3, 4, 7] {
            let mut p = ShardedLoadProcess::legitimate_start(96, 21, shards);
            assert_matches_reference(&mut p, 200);
        }
    }

    #[test]
    fn parallel_round_matches_sequential_round() {
        // The mutex-and-barrier parallel driver must produce exactly the
        // sequential driver's state, shard count and start regardless.
        for shards in [2usize, 4, 7] {
            let mut seq = ShardedLoadProcess::new(Config::all_in_one(257, 300), 3, shards);
            let mut par = seq.clone();
            for r in 0..120 {
                let a = seq.store.round_sequential(&mut seq.draws, None);
                let b = par.store.round_parallel(&mut par.draws);
                assert_eq!(a, b, "shards={shards} round {r}");
                assert_eq!(
                    seq.store.entries(),
                    par.store.entries(),
                    "shards={shards} round {r}"
                );
            }
            assert_eq!(seq.draws.streams, par.draws.streams, "shards={shards}");
        }
    }

    #[test]
    fn fixed_shard_count_is_reproducible() {
        for shards in [1usize, 2, 4, 7] {
            let mut a = ShardedLoadProcess::legitimate_start(128, 42, shards);
            let mut b = ShardedLoadProcess::legitimate_start(128, 42, shards);
            a.run_silent(150);
            b.run_silent(150);
            assert_eq!(Engine::config(&a), Engine::config(&b), "shards={shards}");
        }
    }

    #[test]
    fn different_shard_counts_differ_per_seed_but_conserve_mass() {
        let mut one = ShardedLoadProcess::legitimate_start(256, 7, 1);
        let mut four = ShardedLoadProcess::legitimate_start(256, 7, 4);
        one.run_silent(60);
        four.run_silent(60);
        // Equal in law, different draw-for-draw: the trajectories diverge.
        assert_ne!(Engine::config(&one), Engine::config(&four));
        assert_eq!(one.balls(), 256);
        assert_eq!(four.balls(), 256);
        assert_eq!(Engine::config(&four).total_balls(), 256);
    }

    #[test]
    fn departures_equal_previous_nonempty_count() {
        let mut p = ShardedLoadProcess::new(Config::all_in_one(64, 40), 11, 4);
        for _ in 0..100 {
            let before = Engine::nonempty_bins(&p);
            let moved = p.step();
            assert_eq!(moved, before);
        }
    }

    #[test]
    fn cheap_accessors_match_dense_view() {
        for shards in [2usize, 5] {
            let mut p = ShardedLoadProcess::new(Config::all_in_one(100, 70), 13, shards);
            p.run_silent(50);
            let dense = Engine::config(&p).clone();
            assert_eq!(Engine::max_load(&p), dense.max_load());
            assert_eq!(Engine::empty_bins(&p), dense.empty_bins());
            assert_eq!(Engine::nonempty_bins(&p), dense.nonempty_bins());
            for b in 0..100 {
                assert_eq!(Engine::bin_load(&p, b), dense.loads()[b]);
            }
        }
    }

    #[test]
    fn dense_cache_invalidates_on_step() {
        let mut p = ShardedLoadProcess::legitimate_start(32, 3, 2);
        let before = Engine::config(&p).clone();
        p.step();
        let after = Engine::config(&p);
        assert_ne!(&before, after, "stale dense snapshot served after a step");
        assert_eq!(after.total_balls(), 32);
    }

    #[test]
    fn apply_fault_matches_dense_fault_path_at_one_shard() {
        let mut dense = LoadProcess::legitimate_start(32, 21);
        let mut sharded = ShardedLoadProcess::legitimate_start(32, 21, 1);
        for _ in 0..40 {
            assert_eq!(dense.step(), sharded.step());
        }
        let placement: Vec<usize> = (0..32).map(|i| i % 5).collect();
        Faults::apply_fault(&mut dense, &placement);
        Faults::apply_fault(&mut sharded, &placement);
        assert_eq!(dense.config(), Engine::config(&sharded));
        assert_twins(dense, sharded, 60);
    }

    #[test]
    fn apply_fault_rebuilds_counters_at_any_shard_count() {
        let mut p = ShardedLoadProcess::legitimate_start(60, 17, 7);
        p.run_silent(30);
        let placement: Vec<usize> = (0..60).map(|i| (i * 3) % 10).collect();
        Faults::apply_fault(&mut p, &placement);
        assert_eq!(Engine::nonempty_bins(&p), 10);
        assert_eq!(Engine::config(&p).total_balls(), 60);
        // Post-fault rounds keep the counters consistent (debug asserts
        // recount them).
        p.run_silent(30);
        assert_eq!(p.balls(), 60);
    }

    #[test]
    #[should_panic(expected = "conserve")]
    fn apply_fault_rejects_mass_change() {
        let mut p = ShardedLoadProcess::legitimate_start(8, 1, 2);
        Faults::apply_fault(&mut p, &[0; 9]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedLoadProcess::legitimate_start(8, 1, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the bin count")]
    fn more_shards_than_bins_rejected() {
        let _ = ShardedLoadProcess::legitimate_start(4, 1, 5);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically_at_any_shard_count() {
        for shards in [1usize, 3, 4] {
            let p = ShardedLoadProcess::new(Config::all_in_one(96, 120), 27, shards);
            assert_eq!(Engine::snapshot(&p).unwrap().rng_states.len(), shards);
            assert_snapshot_round_trip(p, 30);
        }
    }

    #[test]
    fn place_and_depart_maintain_shard_counters() {
        let mut p = ShardedLoadProcess::legitimate_start(60, 19, 7);
        assert_place_and_depart(p.clone());
        let b = p.place();
        assert!(p.depart(b) && p.depart(b));
        assert!(!p.depart(b), "bin drained");
        assert_eq!(Engine::nonempty_bins(&p), 59);
        // Debug builds recount the incremental counters every round.
        p.run_silent(20);
        assert_eq!(p.balls(), 59);
    }

    #[test]
    fn one_shard_place_matches_dense_place() {
        let mut dense = LoadProcess::legitimate_start(64, 51);
        let mut sharded = ShardedLoadProcess::legitimate_start(64, 51, 1);
        for _ in 0..30 {
            assert_eq!(dense.place(), sharded.place());
        }
        assert_twins(dense, sharded, 40);
    }

    #[test]
    fn router_is_a_bijection() {
        for shards in [1usize, 2, 3, 4, 7, 8, 13] {
            let router = Router::of(shards);
            let n = 100usize;
            let mut seen = vec![false; n];
            for b in 0..n as u32 {
                let (s, idx) = router.route(b);
                assert!(s < shards);
                let back = router.unroute(s as u32, idx);
                assert_eq!(back, b);
                assert!(!seen[back as usize]);
                seen[back as usize] = true;
            }
            assert!(seen.iter().all(|&v| v));
        }
    }

    #[test]
    fn shards_equal_to_bins_is_supported() {
        let mut p = ShardedLoadProcess::legitimate_start(8, 5, 8);
        p.run_silent(50);
        assert_eq!(p.balls(), 8);
        assert_eq!(Engine::config(&p).total_balls(), 8);
    }

    #[test]
    fn engine_run_family_works() {
        let mut p = ShardedLoadProcess::legitimate_start(64, 11, 4);
        let hit = p.run_until(10_000, |c| c.max_load() >= 3);
        assert!(hit.is_some());
    }

    #[test]
    fn m_not_equal_n_supported() {
        for m in [7u32, 300] {
            let mut p = ShardedLoadProcess::new(Config::all_in_one(100, m), 14, 4);
            p.run_silent(100);
            assert_eq!(p.balls(), m as u64);
        }
    }

    #[test]
    fn one_shard_weighted_is_bit_identical_to_weighted_dense() {
        // The tentpole invariant at the sharded layer: at shards = 1 the
        // weighted sharded engine matches the weighted dense engine in
        // trajectory, RNG stream, and every weighted metric.
        let n = 96;
        let weights = Weights::zipf(n as u64, 1.0, 40);
        let caps = Capacities::Uniform(50);
        let mut dense = LoadProcess::with_weights(
            Config::one_per_bin(n),
            Xoshiro256pp::seed_from(81),
            weights.clone(),
            caps.clone(),
        );
        let mut sharded =
            ShardedLoadProcess::with_weights(Config::one_per_bin(n), 81, 1, weights, caps);
        assert!(Engine::weighted(&sharded));
        for r in 0..160 {
            assert_eq!(
                dense.step(),
                sharded.step(),
                "departure count diverged at round {r}"
            );
            assert_eq!(
                Engine::weighted_max_load(&dense),
                Engine::weighted_max_load(&sharded),
                "weighted max load diverged at round {r}"
            );
            assert_eq!(
                Engine::capacity_violations(&dense),
                Engine::capacity_violations(&sharded),
                "violation count diverged at round {r}"
            );
            assert_eq!(dense.config(), Engine::config(&sharded), "round {r}");
        }
        assert_eq!(Engine::total_weight(&dense), Engine::total_weight(&sharded));
        let a = Engine::snapshot(&dense).unwrap();
        let b = Engine::snapshot(&sharded).unwrap();
        assert_eq!(a.weighted, b.weighted, "identical weighted sections");
        assert_eq!(a.entries, b.entries);
    }

    #[test]
    fn weighted_multi_shard_conserves_weight_and_is_reproducible() {
        let make = || {
            ShardedLoadProcess::with_weights(
                Config::one_per_bin(128),
                82,
                4,
                Weights::zipf(128, 1.0, 30),
                Capacities::Uniform(40),
            )
        };
        let mut a = make();
        let mut b = make();
        let total = Engine::total_weight(&a);
        for _ in 0..120 {
            assert_eq!(a.step(), b.step());
            assert_eq!(Engine::total_weight(&a), total);
        }
        assert_eq!(Engine::config(&a), Engine::config(&b));
        assert_eq!(Engine::weighted_max_load(&a), Engine::weighted_max_load(&b));
        assert!(Engine::weighted_max_load(&a) >= u64::from(Engine::max_load(&a)));
    }

    fn zipf_process(n: usize, seed: u64, shards: usize, caps: Capacities) -> ShardedLoadProcess {
        let weights = Weights::zipf(n as u64, 1.0, 20);
        ShardedLoadProcess::with_weights(Config::one_per_bin(n), seed, shards, weights, caps)
    }

    #[test]
    fn weighted_snapshot_round_trips_at_any_shard_count() {
        for shards in [1usize, 3, 4] {
            let p = zipf_process(60, 83, shards, Capacities::Uniform(25));
            assert_snapshot_round_trip(p, 21);
        }
    }

    #[test]
    fn unit_weights_build_the_same_sharded_engine() {
        let unit = ShardedLoadProcess::with_weights(
            Config::one_per_bin(64),
            84,
            4,
            Weights::Explicit(vec![1; 64]),
            Capacities::Unbounded,
        );
        assert_unit_weights_build_the_same_engine(
            ShardedLoadProcess::legitimate_start(64, 84, 4),
            unit,
        );
    }

    #[test]
    fn only_unit_weight_engines_support_faults() {
        for shards in [1usize, 3] {
            let capacity_only = ShardedLoadProcess::with_weights(
                Config::one_per_bin(16),
                86,
                shards,
                Weights::Unit,
                Capacities::Uniform(3),
            );
            let weighted = zipf_process(16, 86, shards, Capacities::Unbounded);
            assert_fault_support(weighted, capacity_only);
        }
    }

    #[test]
    fn weighted_place_draws_from_shard_zero() {
        let p = zipf_process(32, 85, 2, Capacities::Unbounded);
        let mut shard_zero = p.draws.streams[0].clone();
        assert_weighted_place_and_depart(p.clone());
        let mut q = p;
        assert_eq!(q.place_weighted(9), shard_zero.uniform_usize(32));
    }

    #[test]
    fn shard_streams_are_decorrelated() {
        let [mut r0, mut r1, mut r2]: [Xoshiro256pp; 3] = shard_streams(99, 3).try_into().unwrap();
        let same01 = (0..64).filter(|_| r0.next_u64() == r1.next_u64()).count();
        let same12 = (0..64).filter(|_| r1.next_u64() == r2.next_u64()).count();
        assert_eq!(same01 + same12, 0);
    }
}
