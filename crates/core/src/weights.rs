//! Weighted balls and capacity-constrained bins.
//!
//! The paper's process moves *unit* balls: every non-empty bin releases one
//! ball per round, and legitimacy bounds the ball **count** per bin. This
//! module generalizes both sides of that assumption without touching the
//! dynamics:
//!
//! * [`Weights`] assigns each ball an integer weight ≥ 1. The dynamics stay
//!   **weight-oblivious** — each non-empty bin still releases exactly one
//!   ball per round, chosen FIFO by arrival order, and the destination draw
//!   is the same uniform draw the unit process makes. Weights are therefore
//!   a *metric overlay*: they change what "load" means (weighted load,
//!   weighted legitimacy), never how many RNG draws a round consumes or in
//!   which order. The unit configuration is bit-identical to the
//!   pre-weighted engines — same trajectory, same stream, same snapshots.
//! * [`Capacities`] bounds each bin. The process does not *enforce* bounds
//!   (a uniform re-assignment cannot), it **observes** them: engines count
//!   capacity-violating bins per round, the quantity the binpacking
//!   baseline in `crates/baselines` respects by construction.
//!
//! [`WeightOverlay`] is the shared engine-side state: per-bin FIFO weight
//! queues kept in lock-step with the load vector. All three load engines
//! (dense, sparse, sharded) drive it through the same canonical transport
//! order — departing bins in ascending bin order within each RNG stream —
//! so the weighted sparse engine is bit-identical to the weighted dense
//! engine, exactly as in the unit regime.
//!
//! The queues live in one ball-slot slab: every ball holds a slot (its
//! weight and the next slot of its bin's queue), and each occupied bin one
//! map entry with its queue's head and tail slots, length and weighted
//! load. A round's transport moves slot indices between bins, so a weighted
//! move costs one map probe at its source, one at its destination and no
//! allocation.

use std::collections::hash_map::Entry;

use crate::det_hash::DetHashMap;

/// Default maximum weight of the deterministic Zipf assignment.
pub const DEFAULT_ZIPF_W_MAX: u32 = 100;

/// Per-ball weight assignment, enumerated ball by ball in bin order over
/// the start configuration (bin 0's balls first, then bin 1's, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Weights {
    /// Every ball weighs 1 — the fast path, statically equivalent to the
    /// pre-weighted engines (no overlay is built at all).
    Unit,
    /// Explicit per-ball weights, each ≥ 1.
    Explicit(Vec<u32>),
}

impl Weights {
    /// Deterministic Zipf-skewed weights: ball `k` (0-indexed) weighs
    /// `max(1, round(w_max / (k+1)^s))`. No RNG is consumed — the skew is
    /// a fixed profile, so two runs of the same spec see identical weights
    /// regardless of engine or seed.
    pub fn zipf(balls: u64, s: f64, w_max: u32) -> Self {
        assert!(s.is_finite() && s > 0.0, "zipf exponent must be positive");
        assert!(w_max >= 1, "zipf w_max must be at least 1");
        let ws = (0..balls)
            .map(|k| {
                let scaled = f64::from(w_max) / ((k + 1) as f64).powf(s);
                // rbb-lint: allow(lossy-cast, reason = "value is clamped into [1, w_max] before the cast")
                scaled.round().clamp(1.0, f64::from(w_max)) as u32
            })
            .collect();
        Weights::Explicit(ws).normalized()
    }

    /// Whether this is the unit assignment (after [`Self::normalized`]).
    pub fn is_unit(&self) -> bool {
        matches!(self, Weights::Unit)
    }

    /// Canonicalizes: an explicit all-ones vector *is* the unit assignment,
    /// so it collapses to [`Weights::Unit`] and engines skip the overlay
    /// entirely — `explicit [1,1,…]` specs stay bit-identical to `unit`
    /// down to the snapshot bytes.
    pub fn normalized(self) -> Self {
        match self {
            Weights::Explicit(ws) if ws.iter().all(|&w| w == 1) => Weights::Unit,
            other => other,
        }
    }

    /// Total weight of `balls` balls under this assignment.
    pub fn total(&self, balls: u64) -> u64 {
        match self {
            Weights::Unit => balls,
            Weights::Explicit(ws) => ws.iter().map(|&w| u64::from(w)).sum(),
        }
    }

    /// Structural validation against a ball count: explicit vectors must
    /// cover every ball exactly once with weights ≥ 1.
    pub fn validate(&self, balls: u64) -> Result<(), String> {
        match self {
            Weights::Unit => Ok(()),
            Weights::Explicit(ws) => {
                if ws.len() as u64 != balls {
                    return Err(format!(
                        "explicit weights list {} balls, the start configuration has {balls}",
                        ws.len()
                    ));
                }
                if let Some(k) = ws.iter().position(|&w| w == 0) {
                    return Err(format!("ball {k} has weight 0 (weights must be >= 1)"));
                }
                Ok(())
            }
        }
    }
}

/// Per-bin capacity bounds, observed (not enforced) by the engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capacities {
    /// No bounds — the default, and the only mode the unit fast path needs.
    Unbounded,
    /// Every bin bounds its weighted load by the same value (≥ 1).
    Uniform(u64),
    /// Per-bin bounds, one per bin.
    Explicit(Vec<u64>),
}

impl Capacities {
    /// Whether no bin is bounded.
    pub fn is_unbounded(&self) -> bool {
        matches!(self, Capacities::Unbounded)
    }

    /// The bound of one bin, `None` when unbounded.
    pub fn bound(&self, bin: usize) -> Option<u64> {
        match self {
            Capacities::Unbounded => None,
            Capacities::Uniform(c) => Some(*c),
            Capacities::Explicit(cs) => cs.get(bin).copied(),
        }
    }

    /// Snapshot kind tag: `"unbounded"`, `"uniform"`, or `"explicit"`.
    pub fn kind_str(&self) -> &'static str {
        match self {
            Capacities::Unbounded => "unbounded",
            Capacities::Uniform(_) => "uniform",
            Capacities::Explicit(_) => "explicit",
        }
    }

    /// The serialized bound list: empty / one element / one per bin.
    pub fn bounds_vec(&self) -> Vec<u64> {
        match self {
            Capacities::Unbounded => Vec::new(),
            Capacities::Uniform(c) => vec![*c],
            Capacities::Explicit(cs) => cs.clone(),
        }
    }

    /// Rebuilds from the snapshot encoding of [`Self::kind_str`] +
    /// [`Self::bounds_vec`].
    pub fn from_parts(kind: &str, bounds: &[u64]) -> Result<Self, String> {
        match kind {
            "unbounded" if bounds.is_empty() => Ok(Capacities::Unbounded),
            "unbounded" => Err("unbounded capacities carry no bounds".to_string()),
            "uniform" => match bounds {
                [c] => Ok(Capacities::Uniform(*c)),
                _ => Err(format!(
                    "uniform capacities need exactly 1 bound, got {}",
                    bounds.len()
                )),
            },
            "explicit" => Ok(Capacities::Explicit(bounds.to_vec())),
            other => Err(format!(
                "unknown capacity kind '{other}' (unbounded | uniform | explicit)"
            )),
        }
    }

    /// Structural validation against a bin count.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        match self {
            Capacities::Unbounded => Ok(()),
            Capacities::Uniform(c) => {
                if *c == 0 {
                    return Err("uniform capacity must be at least 1".to_string());
                }
                Ok(())
            }
            Capacities::Explicit(cs) => {
                if cs.len() != n {
                    return Err(format!(
                        "explicit capacities list {} bins, the configuration has {n}",
                        cs.len()
                    ));
                }
                if let Some(b) = cs.iter().position(|&c| c == 0) {
                    return Err(format!("bin {b} has capacity 0 (capacities must be >= 1)"));
                }
                Ok(())
            }
        }
    }
}

/// Engine-side weighted state: per-bin FIFO weight queues (front = next
/// ball to depart), keyed on the **occupied** bins only — an `m ≪ n`
/// sparse run never pays `O(n)`.
///
/// The queues share one slab of ball slots: slot `s` holds a ball's weight
/// and the slot behind it in its bin's queue. Each occupied bin has one map
/// entry with its queue's head and tail slots, length and weighted load.
/// A departed ball's slot goes on a free list that the next placement
/// reuses, so the slab holds at most the peak ball count of slots. That is
/// about 8 bytes per ball plus one map entry per occupied bin, and every
/// slot index is below the ball count, which the engines keep below
/// `u32::MAX`.
///
/// The overlay is pure metric state: it never touches the RNG. Engines
/// keep the invariant `queue(b).len() == load(b)` for every bin (the unit
/// load vector remains the single source of truth for the dynamics) and
/// drive rounds through the two-phase [`Self::transport`], which models
/// the paper's simultaneous departures: all departing front balls are
/// popped before any arrival is pushed, so a bin that both releases and
/// receives in one round still releases its *original* front ball.
#[derive(Debug, Clone, Default)]
pub struct WeightOverlay {
    /// Weight of the ball in each slot (stale in a free slot).
    weight: Vec<u32>,
    /// The slot behind each slot in its bin's queue (stale at a queue's
    /// tail and in a free slot).
    next: Vec<u32>,
    /// Free slots, reused before the slab grows.
    free: Vec<u32>,
    /// The queue of each occupied bin.
    bins: DetHashMap<u32, Fifo>,
    /// Total weight in the system.
    total: u64,
    /// Scratch: the departing bins of the in-flight round, in canonical
    /// (ascending within each stream) order. Cleared and refilled by the
    /// engines each weighted round; never part of the resumable state.
    pub(crate) srcs: Vec<u32>,
}

/// One occupied bin's queue: `len ≥ 1` slots linked from `head` to `tail`
/// through [`WeightOverlay`]'s `next`.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
    /// Sum of the queue's weights.
    wload: u64,
}

impl WeightOverlay {
    /// Builds the overlay from a sorted occupied-bin iterator and the
    /// per-ball weight vector, consumed ball by ball in bin order (the
    /// enumeration [`Weights`] documents).
    pub fn from_entries(entries: impl IntoIterator<Item = (u32, u32)>, weights: &[u32]) -> Self {
        let mut overlay = WeightOverlay::default();
        let mut rest = weights;
        for (bin, load) in entries {
            assert!(
                load as usize <= rest.len(),
                "weight vector shorter than the ball count"
            );
            let (ws, tail) = rest.split_at(load as usize);
            for &w in ws {
                overlay.place(bin, w);
            }
            rest = tail;
        }
        assert!(rest.is_empty(), "weight vector longer than the ball count");
        overlay
    }

    /// Total weight currently in the system.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Weighted load of one bin (0 when empty).
    #[inline]
    pub fn weighted_load(&self, bin: u32) -> u64 {
        self.bins.get(&bin).map_or(0, |q| q.wload)
    }

    /// Maximum weighted load over all bins — `O(#occupied)`.
    pub fn weighted_max_load(&self) -> u64 {
        // rbb-lint: allow(unordered-iter, reason = "max over u64 values is order-independent")
        self.bins.values().map(|q| q.wload).max().unwrap_or(0)
    }

    /// Number of occupied bins whose weighted load exceeds its capacity —
    /// `O(#occupied)`; empty bins can never violate (capacities are ≥ 1).
    pub fn capacity_violations(&self, caps: &Capacities) -> u64 {
        if caps.is_unbounded() {
            return 0;
        }
        // rbb-lint: allow(unordered-iter, reason = "counting violators is order-independent")
        self.bins
            .iter()
            .filter(|(&bin, q)| caps.bound(bin as usize).is_some_and(|c| q.wload > c))
            .count() as u64
    }

    /// The round's weighted transport, pairing the `k`-th departing bin in
    /// `self.srcs` with the `k`-th destination draw in `dests`.
    /// Two-phase: every departing front slot is unlinked before any is
    /// linked at its destination (simultaneous departures), preserving
    /// `total`.
    pub fn transport(&mut self, dests: &[u32]) {
        let mut moving = std::mem::take(&mut self.srcs);
        debug_assert_eq!(moving.len(), dests.len(), "one destination per departure");
        for src in &mut moving {
            // Each departing bin is replaced by its front slot.
            *src = self
                .pop_front(*src)
                // rbb-lint: allow(panic, reason = "engines keep queue length == load in lock-step; only non-empty bins depart")
                .expect("departing bin has a queue");
        }
        for (&dest, &slot) in dests.iter().zip(&moving) {
            self.push_back(dest, slot);
        }
        // The departure list is consumed: round-scoped scratch, restored
        // empty (capacity kept) for the next round's refill.
        moving.clear();
        self.srcs = moving;
    }

    /// Incremental arrival of one ball of weight `w` into `bin`.
    pub fn place(&mut self, bin: u32, w: u32) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.weight[slot as usize] = w;
                slot
            }
            None => {
                let slot = u32::try_from(self.weight.len())
                    // rbb-lint: allow(panic, reason = "one slot per ball, and the engines keep the ball count below u32::MAX")
                    .expect("slot index fits u32");
                self.weight.push(w);
                self.next.push(slot);
                slot
            }
        };
        self.push_back(bin, slot);
        self.total += u64::from(w);
    }

    /// Incremental departure of `bin`'s front ball; returns its weight, or
    /// `None` when the bin is empty.
    pub fn depart(&mut self, bin: u32) -> Option<u32> {
        let slot = self.pop_front(bin)?;
        self.free.push(slot);
        let w = self.weight[slot as usize];
        self.total -= u64::from(w);
        Some(w)
    }

    /// The canonical snapshot encoding: `(bin, weights front→back)` pairs
    /// sorted by bin index.
    pub fn queues_sorted(&self) -> Vec<(u32, Vec<u32>)> {
        let mut out: Vec<(u32, Vec<u32>)> = self
            // rbb-lint: allow(unordered-iter, reason = "collected then sorted by bin before use")
            .bins
            .iter()
            .map(|(&bin, q)| {
                let ws = self.slots(q).map(|s| self.weight[s as usize]);
                (bin, ws.collect())
            })
            .collect();
        out.sort_unstable_by_key(|&(bin, _)| bin);
        out
    }

    /// Rebuilds from the snapshot encoding of [`Self::queues_sorted`].
    pub fn from_queues(queues: &[(u32, Vec<u32>)]) -> Self {
        let mut overlay = WeightOverlay::default();
        for (bin, ws) in queues {
            for &w in ws {
                overlay.place(*bin, w);
            }
        }
        overlay
    }

    /// Checks the lock-step invariant against a load lookup over the
    /// occupied bins: every queue length equals its bin's load, and the
    /// slab is consistent — each queue's links end at its tail and its
    /// weights sum to its weighted load, the queues and the free list
    /// account for every slot, and the weighted loads sum to `total`.
    pub fn check_against(&self, occupied: impl Iterator<Item = (u32, u32)>) -> Result<(), String> {
        let mut seen = 0usize;
        for (bin, load) in occupied {
            let len = self.bins.get(&bin).map_or(0, |q| q.len);
            if len != load {
                return Err(format!("bin {bin}: queue length {len} != load {load}"));
            }
            seen += 1;
        }
        if seen != self.bins.len() {
            return Err(format!(
                "{} weight queues but {seen} occupied bins",
                self.bins.len()
            ));
        }
        let (mut queued, mut sum) = (0usize, 0u64);
        // rbb-lint: allow(unordered-iter, reason = "every queue is checked; the counts and sums are order-independent")
        for (&bin, q) in &self.bins {
            let (mut back, mut w) = (q.head, 0u64);
            for s in self.slots(q) {
                w += u64::from(self.weight[s as usize]);
                back = s;
            }
            if back != q.tail || w != q.wload {
                return Err(format!(
                    "bin {bin}: queue ends at slot {back} (tail {}) and weighs {w} (weighted load {})",
                    q.tail, q.wload
                ));
            }
            queued += q.len as usize;
            sum += w;
        }
        if queued + self.free.len() != self.weight.len() {
            return Err(format!(
                "{queued} queued and {} free slots, the slab has {}",
                self.free.len(),
                self.weight.len()
            ));
        }
        if sum != self.total {
            return Err(format!(
                "weighted loads sum to {sum}, total says {}",
                self.total
            ));
        }
        Ok(())
    }

    /// The slots of one queue, front to back.
    fn slots(&self, q: &Fifo) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(q.head), |&s| Some(self.next[s as usize])).take(q.len as usize)
    }

    /// Unlinks `bin`'s front slot (one map probe); `None` when the bin is
    /// empty.
    fn pop_front(&mut self, bin: u32) -> Option<u32> {
        let Entry::Occupied(mut e) = self.bins.entry(bin) else {
            return None;
        };
        let q = e.get_mut();
        let slot = q.head;
        if q.len == 1 {
            e.remove();
        } else {
            q.head = self.next[slot as usize];
            q.len -= 1;
            q.wload -= u64::from(self.weight[slot as usize]);
        }
        Some(slot)
    }

    /// Links `slot` behind `bin`'s back slot (one map probe).
    fn push_back(&mut self, bin: u32, slot: u32) {
        let w = u64::from(self.weight[slot as usize]);
        match self.bins.entry(bin) {
            Entry::Occupied(mut e) => {
                let q = e.get_mut();
                self.next[q.tail as usize] = slot;
                q.tail = slot;
                q.len += 1;
                q.wload += w;
            }
            Entry::Vacant(e) => {
                e.insert(Fifo {
                    head: slot,
                    tail: slot,
                    len: 1,
                    wload: w,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let a = Weights::zipf(100, 1.0, 100);
        let b = Weights::zipf(100, 1.0, 100);
        assert_eq!(a, b);
        let Weights::Explicit(ws) = &a else {
            panic!("zipf with w_max > 1 is non-unit");
        };
        assert_eq!(ws[0], 100);
        assert_eq!(ws[1], 50);
        assert!(ws.iter().all(|&w| w >= 1));
        assert!(
            ws.windows(2).all(|p| p[0] >= p[1]),
            "monotone non-increasing"
        );
    }

    #[test]
    fn zipf_with_w_max_one_collapses_to_unit() {
        assert!(Weights::zipf(50, 1.5, 1).is_unit());
    }

    #[test]
    fn normalization_collapses_all_ones() {
        assert!(Weights::Explicit(vec![1, 1, 1]).normalized().is_unit());
        assert!(!Weights::Explicit(vec![1, 2]).normalized().is_unit());
    }

    #[test]
    fn weights_validate_length_and_positivity() {
        assert!(Weights::Unit.validate(7).is_ok());
        assert!(Weights::Explicit(vec![1, 2]).validate(2).is_ok());
        assert!(Weights::Explicit(vec![1, 2]).validate(3).is_err());
        assert!(Weights::Explicit(vec![1, 0]).validate(2).is_err());
        assert_eq!(Weights::Explicit(vec![3, 4]).total(2), 7);
        assert_eq!(Weights::Unit.total(9), 9);
    }

    #[test]
    fn capacities_validate_and_round_trip_parts() {
        assert!(Capacities::Unbounded.validate(4).is_ok());
        assert!(Capacities::Uniform(0).validate(4).is_err());
        assert!(Capacities::Explicit(vec![1, 2]).validate(3).is_err());
        assert!(Capacities::Explicit(vec![1, 0, 2]).validate(3).is_err());
        for caps in [
            Capacities::Unbounded,
            Capacities::Uniform(9),
            Capacities::Explicit(vec![4, 5, 6]),
        ] {
            let back = Capacities::from_parts(caps.kind_str(), &caps.bounds_vec()).unwrap();
            assert_eq!(back, caps);
        }
        assert!(Capacities::from_parts("warped", &[]).is_err());
        assert!(Capacities::from_parts("uniform", &[]).is_err());
        assert!(Capacities::from_parts("unbounded", &[3]).is_err());
    }

    #[test]
    fn overlay_builds_in_bin_order_and_tracks_loads() {
        // Bins 0 (2 balls), 3 (1 ball): weights consumed in bin order.
        let o = WeightOverlay::from_entries([(0, 2), (3, 1)], &[10, 20, 30]);
        assert_eq!(o.total(), 60);
        assert_eq!(o.weighted_load(0), 30);
        assert_eq!(o.weighted_load(3), 30);
        assert_eq!(o.weighted_load(1), 0);
        assert_eq!(o.weighted_max_load(), 30);
        o.check_against([(0u32, 2u32), (3, 1)].into_iter()).unwrap();
    }

    #[test]
    fn transport_is_two_phase_fifo() {
        // Bin 0 = [10, 20], bin 1 = [5]. Both depart; bin 0's ball lands in
        // bin 1 and bin 1's ball lands in bin 0. Simultaneity: bin 1 must
        // release its *original* front (5), not the arriving 10.
        let mut o = WeightOverlay::from_entries([(0, 2), (1, 1)], &[10, 20, 5]);
        o.srcs.extend([0, 1]);
        o.transport(&[1, 0]);
        assert_eq!(o.total(), 35);
        assert_eq!(o.weighted_load(0), 25); // [20, 5]
        assert_eq!(o.weighted_load(1), 10); // [10]
                                            // Next round: bin 0 releases 20 (FIFO), not 5.
        o.srcs.extend([0, 1]);
        o.transport(&[0, 1]);
        assert_eq!(o.weighted_load(0), 25); // [5, 20]
        assert_eq!(o.weighted_load(1), 10);
    }

    #[test]
    fn place_and_depart_maintain_totals() {
        let mut o = WeightOverlay::from_entries([(2, 1)], &[7]);
        o.place(2, 3);
        o.place(5, 11);
        assert_eq!(o.total(), 21);
        assert_eq!(o.depart(2), Some(7), "FIFO front departs first");
        assert_eq!(o.depart(9), None, "empty bin is a no-op");
        assert_eq!(o.total(), 14);
        assert_eq!(o.weighted_load(2), 3);
    }

    #[test]
    fn snapshot_queues_round_trip() {
        let mut o = WeightOverlay::from_entries([(1, 2), (4, 1)], &[9, 8, 7]);
        o.srcs.push(1);
        o.transport(&[4]);
        let queues = o.queues_sorted();
        let back = WeightOverlay::from_queues(&queues);
        assert_eq!(back.total(), o.total());
        assert_eq!(back.queues_sorted(), queues);
        assert_eq!(back.weighted_load(4), o.weighted_load(4));
    }

    /// Drives the overlay and a model of one `VecDeque` per occupied bin
    /// (the plain representation) through the same seeded operations, and
    /// compares every observable after each one.
    #[test]
    fn overlay_matches_a_queue_model_under_random_operations() {
        use crate::rng::Xoshiro256pp;
        use std::collections::{BTreeMap, VecDeque};

        const N: usize = 32;
        let mut rng = Xoshiro256pp::seed_from(2015);
        let uniform = Capacities::Uniform(40);
        let explicit = Capacities::Explicit((0..N as u64).map(|b| 5 + 3 * b).collect());
        let mut model: BTreeMap<u32, VecDeque<u32>> = BTreeMap::new();
        let mut o = WeightOverlay::default();
        let mut peak = 0;
        for op in 0..20_000 {
            let mut touched = Vec::new();
            // Placements and departures pull the ball count toward a target
            // that alternates between a sparse and a crowded regime.
            let balls: usize = model.values().map(VecDeque::len).sum();
            let target = if op / 2500 % 2 == 0 { 6 } else { 80 };
            match rng.uniform_usize(40) {
                0..=11 => {
                    // A round over a random subset of the occupied bins.
                    let srcs: Vec<u32> = (model.keys().copied())
                        .filter(|_| rng.uniform_usize(2) == 0)
                        .collect();
                    let dests: Vec<u32> =
                        srcs.iter().map(|_| rng.uniform_usize(N) as u32).collect();
                    let moving: Vec<u32> = (srcs.iter())
                        .map(|b| model.get_mut(b).unwrap().pop_front().unwrap())
                        .collect();
                    model.retain(|_, q| !q.is_empty());
                    for (&dest, &w) in dests.iter().zip(&moving) {
                        model.entry(dest).or_default().push_back(w);
                    }
                    o.srcs.extend(&srcs);
                    o.transport(&dests);
                    touched.extend(srcs.into_iter().chain(dests));
                }
                12 => {
                    // The rebuild packs the live balls into a fresh slab.
                    o = WeightOverlay::from_queues(&o.queues_sorted());
                    peak = balls;
                }
                _ if rng.uniform_usize(balls + target) < target => {
                    let (bin, w) = (
                        rng.uniform_usize(N) as u32,
                        1 + rng.uniform_usize(20) as u32,
                    );
                    model.entry(bin).or_default().push_back(w);
                    o.place(bin, w);
                    touched.push(bin);
                }
                _ => {
                    // Often an empty bin in the sparse regime.
                    let bin = rng.uniform_usize(N) as u32;
                    let front = model.get_mut(&bin).and_then(VecDeque::pop_front);
                    model.retain(|_, q| !q.is_empty());
                    assert_eq!(o.depart(bin), front, "op {op}");
                    touched.push(bin);
                }
            }
            // Churn reuses freed slots: the slab never outgrows the peak
            // ball count since it was built.
            peak = peak.max(model.values().map(VecDeque::len).sum());
            assert!(
                o.weight.len() <= peak,
                "op {op}: {} slots, peak ball count {peak}",
                o.weight.len()
            );
            let queues: Vec<(u32, Vec<u32>)> = (model.iter())
                .map(|(&bin, q)| (bin, q.iter().copied().collect()))
                .collect();
            assert_eq!(o.queues_sorted(), queues, "op {op}");
            let wload = |bin: &u32| {
                let q = model.get(bin);
                q.map_or(0, |q| q.iter().map(|&w| u64::from(w)).sum::<u64>())
            };
            for bin in &touched {
                assert_eq!(o.weighted_load(*bin), wload(bin), "op {op}, bin {bin}");
            }
            assert_eq!(o.total(), model.keys().map(wload).sum::<u64>(), "op {op}");
            let max = model.keys().map(wload).max().unwrap_or(0);
            assert_eq!(o.weighted_max_load(), max, "op {op}");
            for caps in [&uniform, &explicit] {
                let over = |bin: &&u32| wload(bin) > caps.bound(**bin as usize).unwrap();
                let violations = model.keys().filter(over).count() as u64;
                assert_eq!(o.capacity_violations(caps), violations, "op {op}");
            }
            let occupied = model.iter().map(|(&bin, q)| (bin, q.len() as u32));
            o.check_against(occupied).unwrap();
        }
    }

    #[test]
    fn capacity_violations_count_only_exceeding_bins() {
        let o = WeightOverlay::from_entries([(0, 1), (1, 1)], &[10, 3]);
        assert_eq!(o.capacity_violations(&Capacities::Unbounded), 0);
        assert_eq!(o.capacity_violations(&Capacities::Uniform(5)), 1);
        assert_eq!(o.capacity_violations(&Capacities::Uniform(2)), 2);
        assert_eq!(o.capacity_violations(&Capacities::Explicit(vec![10, 1])), 1);
    }
}
