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
//! The crate-private `WeightOverlay` is the shared engine-side state:
//! per-bin FIFO weight queues kept in lock-step with the loads. All three
//! load engines (dense, sparse, sharded) drive it through the same
//! canonical transport order — departing bins in ascending bin order within
//! each RNG stream — so the weighted sparse engine is bit-identical to the
//! weighted dense engine, exactly as in the unit regime.
//!
//! The queues live in one ball-slot slab: every ball holds a slot (its
//! weight and the next slot of its bin's queue), and each occupied bin one
//! queue record with its head and tail slots, length and weighted load.
//! The records sit in a vector indexed by a handle that the storage
//! supplies ([`LoadStore::handle`]): the bin itself on dense and sharded
//! storage, so one record per bin, and a reissued small index on sparse
//! storage, so one per occupied bin at the peak. A round's transport
//! moves slot indices between records, so the overlay makes no map probe
//! and no allocation per weighted move. On sparse storage the move's only
//! map work is the storage's own: its source is read in the round's one
//! pass over the map, and its arrival probes the map once.
//!
//! [`LoadStore::handle`]: crate::load::LoadStore::handle

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
        // The profile is non-increasing in k, so once a weight reaches the
        // floor of 1, every later one is 1 too.
        let mut floor = false;
        let ws = (0..balls)
            .map(|k| {
                if floor {
                    return 1;
                }
                let scaled = f64::from(w_max) / ((k + 1) as f64).powf(s);
                // rbb-lint: allow(lossy-cast, reason = "value is clamped into [1, w_max] before the cast")
                let w = scaled.round().clamp(1.0, f64::from(w_max)) as u32;
                floor = w == 1;
                w
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

/// Engine-side weighted state: one FIFO weight queue (front = next ball to
/// depart) per occupied bin, kept in lock-step with the storage's loads.
///
/// The queues share one slab of ball slots: slot `s` holds a ball's weight
/// and the slot behind it in its bin's queue. Each queue is a record with
/// its head and tail slots, length, bin and weighted load, kept in a vector
/// indexed by the bin's *handle*, which the storage supplies
/// ([`LoadStore::handle`](crate::load::LoadStore::handle)). On sparse
/// storage the handle is a reissued small index, so the records number at
/// most the peak count of occupied bins. On dense and sharded storage the
/// handle is the bin itself, so the records, 24 bytes each, cover every bin
/// up to the highest one ever occupied: `O(n)` of them however few bins are
/// occupied. A record of length 0 is unused. A departed ball's slot goes on
/// a free list that the next placement reuses, so the slab holds at most
/// the peak ball count of slots: about 8 bytes per ball, and every slot
/// index is below the ball count, which the engines keep below `u32::MAX`.
/// No operation probes a map.
///
/// The overlay is pure metric state: it never touches the RNG. Engines
/// keep the invariant that each occupied bin's queue, under its handle, is
/// as long as the bin's load (the unit loads remain the single source of
/// truth for the dynamics) and drive rounds through the two-phase
/// [`Self::transport`], which models the paper's simultaneous departures:
/// all departing front balls are popped before any arrival is pushed, so a
/// bin that both releases and receives in one round still releases its
/// *original* front ball.
#[derive(Debug, Clone, Default)]
pub(crate) struct WeightOverlay {
    /// Weight of the ball in each slot (stale in a free slot).
    weight: Vec<u32>,
    /// The slot behind each slot in its bin's queue (stale at a queue's
    /// tail and in a free slot).
    next: Vec<u32>,
    /// Free slots, reused before the slab grows.
    free: Vec<u32>,
    /// The queue under each handle; length 0 when unused.
    queues: Vec<Fifo>,
    /// Total weight in the system.
    total: u64,
    /// Scratch: the departing handles of the in-flight round, in canonical
    /// (ascending bins within each stream) order. Cleared and refilled by
    /// the engines each weighted round; never part of the resumable state.
    pub(crate) srcs: Vec<u32>,
}

/// One queue record: `len` slots linked from `head` to `tail` through
/// [`WeightOverlay`]'s `next`. `head`, `tail` and `bin` are stale when
/// `len == 0`, and `wload` is then 0.
#[derive(Debug, Clone, Copy, Default)]
struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
    /// The bin that holds the queue.
    bin: u32,
    /// Sum of the queue's weights.
    wload: u64,
}

impl WeightOverlay {
    /// Builds the overlay from `(bin, handle, load)` triples sorted by bin
    /// and the per-ball weight vector, consumed ball by ball in bin order
    /// (the enumeration [`Weights`] documents). Reserves queue records for
    /// the handles below `records` in one allocation: growing the records
    /// one handle at a time would copy them and leave the old buffers
    /// stranded in the allocator.
    pub(crate) fn from_entries(
        records: usize,
        entries: impl IntoIterator<Item = (u32, u32, u32)>,
        weights: &[u32],
    ) -> Self {
        let mut overlay = WeightOverlay {
            queues: Vec::with_capacity(records),
            ..WeightOverlay::default()
        };
        let mut rest = weights;
        for (bin, handle, load) in entries {
            assert!(
                load as usize <= rest.len(),
                "weight vector shorter than the ball count"
            );
            let (ws, tail) = rest.split_at(load as usize);
            for &w in ws {
                overlay.place(bin, handle, w);
            }
            rest = tail;
        }
        assert!(rest.is_empty(), "weight vector longer than the ball count");
        overlay
    }

    /// Total weight currently in the system.
    #[inline]
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Weighted load of the bin under `handle` (0 for an unused handle).
    #[inline]
    pub(crate) fn weighted_load(&self, handle: u32) -> u64 {
        self.queues.get(handle as usize).map_or(0, |q| q.wload)
    }

    /// Maximum weighted load over all bins: one pass over the records, so
    /// `O(n)` on dense and sharded storage and `O(peak #occupied)` on
    /// sparse storage.
    pub(crate) fn weighted_max_load(&self) -> u64 {
        self.queues.iter().map(|q| q.wload).max().unwrap_or(0)
    }

    /// Number of bins whose weighted load exceeds their capacity: one pass
    /// over the records, as in [`Self::weighted_max_load`]. Unused records
    /// weigh 0 and never violate.
    pub(crate) fn capacity_violations(&self, caps: &Capacities) -> u64 {
        if caps.is_unbounded() {
            return 0;
        }
        let over = |q: &&Fifo| caps.bound(q.bin as usize).is_some_and(|c| q.wload > c);
        self.queues.iter().filter(over).count() as u64
    }

    /// The round's weighted transport: the `k`-th handle in `self.srcs`
    /// releases its front ball to bin `bins[k]`, whose handle is
    /// `handles[k]`. Two-phase: every departing front slot is unlinked
    /// before any is linked at its destination (simultaneous departures),
    /// preserving `total`. So a handle that an emptied source freed may
    /// already hold a destination: its queue is empty by the second phase.
    pub(crate) fn transport(&mut self, bins: &[u32], handles: &[u32]) {
        let mut moving = std::mem::take(&mut self.srcs);
        debug_assert_eq!(moving.len(), bins.len(), "one destination per departure");
        debug_assert_eq!(bins.len(), handles.len(), "one handle per destination");
        for src in &mut moving {
            // Each departing handle is replaced by its front slot.
            *src = self
                .pop_front(*src)
                // rbb-lint: allow(panic, reason = "engines keep queue length == load in lock-step; only non-empty bins depart")
                .expect("departing bin has a queue");
        }
        for ((&bin, &handle), &slot) in bins.iter().zip(handles).zip(&moving) {
            self.push_back(bin, handle, slot);
        }
        // The departure list is consumed: round-scoped scratch, restored
        // empty (capacity kept) for the next round's refill.
        moving.clear();
        self.srcs = moving;
    }

    /// Incremental arrival of one ball of weight `w` into `bin`, whose
    /// handle is `handle`.
    pub(crate) fn place(&mut self, bin: u32, handle: u32, w: u32) {
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
        self.push_back(bin, handle, slot);
        self.total += u64::from(w);
    }

    /// Incremental departure of the front ball under `handle`; returns its
    /// weight, or `None` when the queue is empty.
    pub(crate) fn depart(&mut self, handle: u32) -> Option<u32> {
        let slot = self.pop_front(handle)?;
        self.free.push(slot);
        let w = self.weight[slot as usize];
        self.total -= u64::from(w);
        Some(w)
    }

    /// The canonical snapshot encoding: `(bin, weights front→back)` pairs
    /// sorted by bin index.
    pub(crate) fn queues_sorted(&self) -> Vec<(u32, Vec<u32>)> {
        let used = self.queues.iter().filter(|q| q.len > 0);
        let mut out: Vec<(u32, Vec<u32>)> = used
            .map(|q| {
                (
                    q.bin,
                    self.slots(q).map(|s| self.weight[s as usize]).collect(),
                )
            })
            .collect();
        out.sort_unstable_by_key(|&(bin, _)| bin);
        out
    }

    /// Checks the lock-step invariant against the storage's occupied bins,
    /// given as `(bin, handle, load)`: every occupied bin has a handle
    /// whose queue belongs to it and is as long as its load, and no other
    /// queue is in use. Then checks the slab: each queue's links end at its
    /// tail and its weights sum to its weighted load, the queues and the
    /// free list account for every slot, and the weighted loads sum to
    /// `total`.
    pub(crate) fn check_against(
        &self,
        occupied: impl Iterator<Item = (u32, Option<u32>, u32)>,
    ) -> Result<(), String> {
        let mut seen = 0usize;
        for (bin, handle, load) in occupied {
            let Some(handle) = handle else {
                return Err(format!("bin {bin} holds {load} balls but has no handle"));
            };
            let q = self
                .queues
                .get(handle as usize)
                .copied()
                .unwrap_or_default();
            if q.len != load {
                return Err(format!(
                    "bin {bin}: queue length {} != load {load} (handle {handle})",
                    q.len
                ));
            }
            if q.bin != bin {
                return Err(format!(
                    "bin {bin}: handle {handle} holds the queue of bin {}",
                    q.bin
                ));
            }
            seen += 1;
        }
        let used = self.queues.iter().filter(|q| q.len > 0).count();
        if seen != used {
            return Err(format!("{used} weight queues but {seen} occupied bins"));
        }
        let (mut queued, mut sum) = (0usize, 0u64);
        for q in &self.queues {
            let (mut back, mut w) = (q.tail, 0u64);
            for s in self.slots(q) {
                w += u64::from(self.weight[s as usize]);
                back = s;
            }
            if back != q.tail || w != q.wload {
                return Err(format!(
                    "bin {}: queue ends at slot {back} (tail {}) and weighs {w} (weighted load {})",
                    q.bin, q.tail, q.wload
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

    /// Unlinks the front slot under `handle`; `None` when its queue is
    /// empty.
    #[inline]
    fn pop_front(&mut self, handle: u32) -> Option<u32> {
        let q = self.queues.get_mut(handle as usize).filter(|q| q.len > 0)?;
        let slot = q.head;
        q.head = self.next[slot as usize];
        q.len -= 1;
        q.wload -= u64::from(self.weight[slot as usize]);
        Some(slot)
    }

    /// Links `slot` behind the back slot of `bin`'s queue, under `handle`.
    #[inline]
    fn push_back(&mut self, bin: u32, handle: u32, slot: u32) {
        let h = handle as usize;
        if h >= self.queues.len() {
            self.queues.resize(h + 1, Fifo::default());
        }
        let q = &mut self.queues[h];
        if q.len == 0 {
            q.head = slot;
            q.bin = bin;
        } else {
            self.next[q.tail as usize] = slot;
        }
        q.tail = slot;
        q.len += 1;
        q.wload += u64::from(self.weight[slot as usize]);
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
    fn zipf_matches_the_per_ball_formula() {
        // The tail past the first weight of 1 is filled without `powf`;
        // the per-ball formula must agree with it everywhere.
        let balls = 200_000;
        for s in [0.05, 0.2, 0.5, 1.0, 1.7, 3.0, 7.5] {
            for w_max in [1, 2, 7, 100, 4_096, 1_000_000] {
                let formula = (0..balls)
                    .map(|k| {
                        let scaled = f64::from(w_max) / ((k + 1) as f64).powf(s);
                        scaled.round().clamp(1.0, f64::from(w_max)) as u32
                    })
                    .collect();
                assert_eq!(
                    Weights::zipf(balls, s, w_max),
                    Weights::Explicit(formula).normalized(),
                    "s = {s}, w_max = {w_max}"
                );
            }
        }
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

    /// `(bin, handle, load)` triples in the form
    /// [`WeightOverlay::check_against`] takes.
    fn occupied(entries: &[(u32, u32, u32)]) -> impl Iterator<Item = (u32, Option<u32>, u32)> + '_ {
        entries
            .iter()
            .map(|&(bin, handle, load)| (bin, Some(handle), load))
    }

    #[test]
    fn overlay_builds_in_bin_order_and_tracks_loads() {
        // Bins 0 (2 balls, handle 1), 3 (1 ball, handle 0): weights are
        // consumed in bin order, whatever the handles.
        let entries = [(0, 1, 2), (3, 0, 1)];
        let o = WeightOverlay::from_entries(0, entries, &[10, 20, 30]);
        assert_eq!(o.total(), 60);
        assert_eq!(o.weighted_load(1), 30);
        assert_eq!(o.weighted_load(0), 30);
        assert_eq!(o.weighted_load(2), 0, "an unused handle weighs nothing");
        assert_eq!(o.weighted_max_load(), 30);
        assert_eq!(o.queues_sorted(), [(0, vec![10, 20]), (3, vec![30])]);
        o.check_against(occupied(&entries)).unwrap();
        let swapped = [(0, 0, 2), (3, 1, 1)];
        let err = o.check_against(occupied(&swapped)).unwrap_err();
        assert!(err.contains("queue length"), "{err}");
    }

    #[test]
    fn transport_is_two_phase_fifo() {
        // Bin 0 = [10, 20] (handle 0), bin 1 = [5] (handle 1). Both depart;
        // bin 0's ball lands in bin 1 and bin 1's ball lands in bin 0.
        // Simultaneity: bin 1 must release its *original* front (5), not
        // the arriving 10.
        let mut o = WeightOverlay::from_entries(0, [(0, 0, 2), (1, 1, 1)], &[10, 20, 5]);
        o.srcs.extend([0, 1]);
        o.transport(&[1, 0], &[1, 0]);
        assert_eq!(o.total(), 35);
        assert_eq!(o.weighted_load(0), 25); // [20, 5]
        assert_eq!(o.weighted_load(1), 10); // [10]
                                            // Next round: bin 0 releases 20 (FIFO), not 5.
        o.srcs.extend([0, 1]);
        o.transport(&[0, 1], &[0, 1]);
        assert_eq!(o.weighted_load(0), 25); // [5, 20]
        assert_eq!(o.weighted_load(1), 10);
    }

    #[test]
    fn transport_reissues_a_handle_freed_in_the_same_round() {
        // Bin 4 = [7] under handle 0 empties, and its freed handle goes to
        // bin 9, which was empty. Bin 2 = [3] under handle 1 releases its
        // last ball and receives one: it keeps handle 1 here.
        let mut o = WeightOverlay::from_entries(0, [(2, 1, 1), (4, 0, 1)], &[3, 7]);
        o.srcs.extend([1, 0]);
        o.transport(&[9, 2], &[0, 1]);
        assert_eq!(o.queues_sorted(), [(2, vec![7]), (9, vec![3])]);
        o.check_against(occupied(&[(2, 1, 1), (9, 0, 1)])).unwrap();
        assert_eq!(o.capacity_violations(&Capacities::Explicit(vec![5; 10])), 1);
    }

    #[test]
    fn place_and_depart_maintain_totals() {
        let mut o = WeightOverlay::from_entries(0, [(2, 0, 1)], &[7]);
        o.place(2, 0, 3);
        o.place(5, 1, 11);
        assert_eq!(o.total(), 21);
        assert_eq!(o.depart(0), Some(7), "FIFO front departs first");
        assert_eq!(o.depart(9), None, "unused handle is a no-op");
        assert_eq!(o.depart(1), Some(11));
        assert_eq!(o.depart(1), None, "emptied queue is a no-op");
        assert_eq!(o.total(), 3);
        assert_eq!(o.weighted_load(0), 3);
        assert_eq!(o.weighted_load(1), 0);
    }

    #[test]
    fn snapshot_queues_round_trip() {
        // A restore rebuilds from the bin-sorted queues, flattened into the
        // per-ball weight vector, under handles issued afresh in bin order.
        let mut o = WeightOverlay::from_entries(0, [(1, 1, 2), (4, 0, 1)], &[9, 8, 7]);
        o.srcs.push(1);
        o.transport(&[4], &[0]);
        let queues = o.queues_sorted();
        assert_eq!(queues, [(1, vec![8]), (4, vec![7, 9])]);
        let entries = (queues.iter().zip(0..)).map(|((bin, ws), h)| (*bin, h, ws.len() as u32));
        let weights: Vec<u32> = queues.iter().flat_map(|(_, ws)| ws).copied().collect();
        let back = WeightOverlay::from_entries(0, entries, &weights);
        assert_eq!(back.total(), o.total());
        assert_eq!(back.queues_sorted(), queues);
        assert_eq!(back.weighted_load(1), o.weighted_load(0), "bin 4");
        back.check_against(occupied(&[(1, 0, 1), (4, 1, 2)]))
            .unwrap();
    }

    /// Drives the overlay and a model of one `VecDeque` per occupied bin
    /// (the plain representation) through the same seeded operations, and
    /// compares every observable after each one. The handles differ from
    /// the bins, and are freed and reissued the way sparse storage does it:
    /// an emptied bin's handle goes on a free list, the next bin to become
    /// occupied takes the last one freed (within the same round, too), and
    /// a rebuild issues fresh handles in bin order, like a restore.
    #[test]
    fn overlay_matches_a_queue_model_under_random_operations() {
        use crate::rng::Xoshiro256pp;
        use std::collections::{BTreeMap, VecDeque};

        /// The model: per occupied bin its queue and handle, plus the free
        /// handles and the count issued.
        #[derive(Default)]
        struct Model {
            bins: BTreeMap<u32, (VecDeque<u32>, u32)>,
            free: Vec<u32>,
            issued: u32,
        }
        impl Model {
            /// Adds weight `w` to `bin`; returns the bin's handle.
            fn push(&mut self, bin: u32, w: u32) -> u32 {
                let (free, issued) = (&mut self.free, &mut self.issued);
                let (q, handle) = self.bins.entry(bin).or_insert_with(|| {
                    let handle = free.pop().unwrap_or_else(|| {
                        *issued += 1;
                        *issued - 1
                    });
                    (VecDeque::new(), handle)
                });
                q.push_back(w);
                *handle
            }
            /// Pops `bin`'s front weight, freeing its handle when it empties.
            fn pop(&mut self, bin: u32) -> Option<(u32, u32)> {
                let (q, handle) = self.bins.get_mut(&bin)?;
                let (w, handle) = (q.pop_front()?, *handle);
                if q.is_empty() {
                    self.bins.remove(&bin);
                    self.free.push(handle);
                }
                Some((w, handle))
            }
            fn wload(&self, bin: u32) -> u64 {
                let q = self.bins.get(&bin);
                q.map_or(0, |(q, _)| q.iter().map(|&w| u64::from(w)).sum())
            }
            fn balls(&self) -> usize {
                self.bins.values().map(|(q, _)| q.len()).sum()
            }
        }

        const N: usize = 32;
        let mut rng = Xoshiro256pp::seed_from(2015);
        let uniform = Capacities::Uniform(40);
        let explicit = Capacities::Explicit((0..N as u64).map(|b| 5 + 3 * b).collect());
        let mut model = Model::default();
        let mut o = WeightOverlay::default();
        let mut peak = 0;
        let mut reissued = 0;
        for op in 0..20_000 {
            let mut touched = Vec::new();
            // Placements and departures pull the ball count toward a target
            // that alternates between a sparse and a crowded regime.
            let balls = model.balls();
            let target = if op / 2500 % 2 == 0 { 6 } else { 80 };
            match rng.uniform_usize(40) {
                0..=11 => {
                    // A round over a random subset of the occupied bins, in
                    // ascending bin order: every departure first, then every
                    // arrival, which may take a handle freed just before.
                    let srcs: Vec<u32> = (model.bins.keys().copied())
                        .filter(|_| rng.uniform_usize(2) == 0)
                        .collect();
                    let dests: Vec<u32> =
                        srcs.iter().map(|_| rng.uniform_usize(N) as u32).collect();
                    let freed = model.free.len();
                    let moving: Vec<(u32, u32)> =
                        srcs.iter().map(|&b| model.pop(b).unwrap()).collect();
                    let fresh = model.free[freed..].to_vec();
                    let handles: Vec<u32> = (dests.iter().zip(&moving))
                        .map(|(&dest, &(w, _))| model.push(dest, w))
                        .collect();
                    reissued += handles.iter().filter(|h| fresh.contains(h)).count();
                    o.srcs.extend(moving.iter().map(|&(_, handle)| handle));
                    o.transport(&dests, &handles);
                    touched.extend(srcs.into_iter().chain(dests));
                }
                12 => {
                    // The rebuild packs the live balls into a fresh slab under
                    // fresh handles, issued in bin order.
                    let mut rebuilt = Model::default();
                    let mut entries = Vec::new();
                    let mut weights = Vec::new();
                    for (&bin, (q, _)) in &model.bins {
                        let handle = q.iter().map(|&w| rebuilt.push(bin, w)).last().unwrap();
                        entries.push((bin, handle, q.len() as u32));
                        weights.extend(q);
                    }
                    model = rebuilt;
                    o = WeightOverlay::from_entries(0, entries, &weights);
                    peak = balls;
                }
                _ if rng.uniform_usize(balls + target) < target => {
                    let (bin, w) = (
                        rng.uniform_usize(N) as u32,
                        1 + rng.uniform_usize(20) as u32,
                    );
                    let handle = model.push(bin, w);
                    o.place(bin, handle, w);
                    touched.push(bin);
                }
                _ => {
                    // Often an empty bin in the sparse regime, which has no
                    // handle: the engines never call `depart` for one.
                    let bin = rng.uniform_usize(N) as u32;
                    if let Some((w, handle)) = model.pop(bin) {
                        assert_eq!(o.depart(handle), Some(w), "op {op}");
                    }
                    touched.push(bin);
                }
            }
            // Churn reuses freed slots: the slab never outgrows the peak
            // ball count since it was built.
            peak = peak.max(model.balls());
            assert!(
                o.weight.len() <= peak,
                "op {op}: {} slots, peak ball count {peak}",
                o.weight.len()
            );
            assert!(o.queues.len() <= N, "op {op}: handles are reissued");
            let queues: Vec<(u32, Vec<u32>)> = (model.bins.iter())
                .map(|(&bin, (q, _))| (bin, q.iter().copied().collect()))
                .collect();
            assert_eq!(o.queues_sorted(), queues, "op {op}");
            for bin in &touched {
                let handle = model.bins.get(bin).map(|&(_, h)| h);
                let got = handle.map_or(0, |h| o.weighted_load(h));
                assert_eq!(got, model.wload(*bin), "op {op}, bin {bin}");
            }
            let wloads: Vec<u64> = model.bins.keys().map(|&b| model.wload(b)).collect();
            assert_eq!(o.total(), wloads.iter().sum::<u64>(), "op {op}");
            let max = wloads.iter().copied().max().unwrap_or(0);
            assert_eq!(o.weighted_max_load(), max, "op {op}");
            for caps in [&uniform, &explicit] {
                let over = |&&bin: &&u32| model.wload(bin) > caps.bound(bin as usize).unwrap();
                let violations = model.bins.keys().filter(over).count() as u64;
                assert_eq!(o.capacity_violations(caps), violations, "op {op}");
            }
            let occupied =
                (model.bins.iter()).map(|(&bin, (q, h))| (bin, Some(*h), q.len() as u32));
            o.check_against(occupied).unwrap();
        }
        assert!(
            reissued > 1000,
            "only {reissued} handles reissued within a round"
        );
    }

    #[test]
    fn capacity_violations_count_only_exceeding_bins() {
        let o = WeightOverlay::from_entries(0, [(0, 1, 1), (1, 0, 1)], &[10, 3]);
        assert_eq!(o.capacity_violations(&Capacities::Unbounded), 0);
        assert_eq!(o.capacity_violations(&Capacities::Uniform(5)), 1);
        assert_eq!(o.capacity_violations(&Capacities::Uniform(2)), 2);
        assert_eq!(o.capacity_violations(&Capacities::Explicit(vec![10, 1])), 1);
        assert_eq!(o.capacity_violations(&Capacities::Explicit(vec![9, 3])), 1);
    }
}
