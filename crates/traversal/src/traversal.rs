//! Multi-token traversal on the complete graph (Section 4, Corollary 1)
//! and, off the clique, on any graph (Section 5).
//!
//! `n` tokens perform the repeated balls-into-bins process; each token must
//! visit all `n` nodes ("parallel resource assignment in mutual exclusion").
//! The **parallel cover time** is the first round by which every token has
//! visited every node. Corollary 1: `O(n log² n)` w.h.p. — a single `log n`
//! factor above the single-token cover time `O(n log n)`. Wrapped around a
//! [`BallProcess`] on a graph ([`BallProcess::with_graph`]), the same
//! visited sets measure the parallel cover time of the constrained token
//! walk on that graph.

use rbb_core::ball_process::BallProcess;
use rbb_core::config::Config;
use rbb_core::engine::{Engine, Faults};
use rbb_core::rng::Xoshiro256pp;
use rbb_core::strategy::QueueStrategy;

use crate::bitset::FixedBitSet;

/// Multi-token traversal state: the process plus per-token visited sets.
///
/// ```
/// use rbb_core::strategy::QueueStrategy;
/// use rbb_traversal::Traversal;
///
/// let mut t = Traversal::new(32, QueueStrategy::Fifo, 42);
/// let cover = t.run_to_cover(1_000_000).expect("Corollary 1: covers w.h.p.");
/// assert!(t.all_covered());
/// assert!(cover > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Traversal {
    process: BallProcess,
    visited: Vec<FixedBitSet>,
    covered_tokens: usize,
}

impl Traversal {
    /// Starts `n` tokens, one per node (token `i` at node `i`, which counts
    /// as visited).
    pub fn new(n: usize, strategy: QueueStrategy, seed: u64) -> Self {
        Self::from_config(Config::one_per_bin(n), strategy, seed)
    }

    /// Starts from an arbitrary configuration; tokens are placed densely
    /// (see [`BallProcess::new`]) and their starting node counts as visited.
    ///
    /// # RNG stream
    ///
    /// The process draws from `Xoshiro256pp::stream(seed, 0)`.
    pub fn from_config(config: Config, strategy: QueueStrategy, seed: u64) -> Self {
        Self::from_process(BallProcess::new(
            config,
            strategy,
            Xoshiro256pp::stream(seed, 0),
        ))
    }

    /// Tracks the visited sets of `process`'s tokens, on the clique or on
    /// the graph the process walks ([`BallProcess::with_graph`]); each
    /// token's current node counts as visited. Consumes no draws.
    pub fn from_process(process: BallProcess) -> Self {
        let n = process.n();
        let m = process.balls() as usize;
        let mut visited = vec![FixedBitSet::new(n); m];
        let mut covered = 0usize;
        for bin in 0..n {
            for &ball in process.queue(bin) {
                visited[ball as usize].insert(bin);
                if visited[ball as usize].is_full() {
                    covered += 1;
                }
            }
        }
        Self {
            process,
            visited,
            covered_tokens: covered,
        }
    }

    /// Number of nodes (= bins).
    #[inline]
    pub fn n(&self) -> usize {
        self.process.n()
    }

    /// Number of tokens.
    #[inline]
    pub fn tokens(&self) -> usize {
        self.process.balls() as usize
    }

    /// Current round.
    #[inline]
    pub fn round(&self) -> u64 {
        self.process.round()
    }

    /// Tokens that have visited every node.
    #[inline]
    pub fn covered_tokens(&self) -> usize {
        self.covered_tokens
    }

    /// Whether the traversal task is complete.
    #[inline]
    pub fn all_covered(&self) -> bool {
        self.covered_tokens == self.visited.len()
    }

    /// Mean fraction of nodes visited, over tokens.
    pub fn coverage_fraction(&self) -> f64 {
        if self.visited.is_empty() {
            return 1.0;
        }
        let total: usize = self.visited.iter().map(|v| v.count_ones()).sum();
        total as f64 / (self.visited.len() * self.n()) as f64
    }

    /// The underlying process (per-token progress, delays, loads).
    pub fn process(&self) -> &BallProcess {
        &self.process
    }

    /// Visited set of a token.
    pub fn visited(&self, token: usize) -> &FixedBitSet {
        &self.visited[token]
    }

    /// Advances one round, updating visited sets; returns the number of
    /// tokens that moved.
    pub fn step(&mut self) -> usize {
        let visited = &mut self.visited;
        let covered = &mut self.covered_tokens;
        self.process.step_with(|ball, dest, _round| {
            let v = &mut visited[ball as usize];
            if v.insert(dest) && v.is_full() {
                *covered += 1;
            }
        })
    }

    /// Runs until all tokens cover all nodes, or `cap` rounds; returns the
    /// parallel cover time.
    pub fn run_to_cover(&mut self, cap: u64) -> Option<u64> {
        while !self.all_covered() {
            if self.round() >= cap {
                return None;
            }
            self.step();
        }
        Some(self.round())
    }
}

/// The run family is provided by [`Engine`]. The traversal's visited-set
/// bookkeeping rides on [`BallProcess::step_with`]'s per-move hook;
/// `covered` exposes the Corollary-1 goal to generic drivers and stop
/// conditions.
impl Engine for Traversal {
    #[inline]
    fn step(&mut self) -> usize {
        Traversal::step(self)
    }

    #[inline]
    fn round(&self) -> u64 {
        Traversal::round(self)
    }

    #[inline]
    fn config(&self) -> &Config {
        self.process.config()
    }

    fn faults(&mut self) -> Option<&mut dyn Faults> {
        Some(self)
    }

    fn covered(&self) -> Option<bool> {
        Some(self.all_covered())
    }

    fn min_progress(&self) -> Option<u64> {
        Some(self.process.min_progress())
    }
}

impl Faults for Traversal {
    /// The §4.1 adversary, `placement[token] = node`, applied to the
    /// process; the post-fault position counts as visited (the token is
    /// there).
    fn apply_fault(&mut self, placement: &[usize]) {
        self.process.apply_fault(placement);
        for (token, &node) in placement.iter().enumerate() {
            let v = &mut self.visited[token];
            if v.insert(node) && v.is_full() {
                self.covered_tokens += 1;
            }
        }
    }
}

/// Single-token cover time on the clique with uniform re-assignment — the
/// baseline of Corollary 1 (`O(n log n)` = coupon collector, since every
/// round the lone token jumps to a uniform node).
pub fn single_token_cover_time(n: usize, seed: u64, cap: u64) -> Option<u64> {
    let mut rng = Xoshiro256pp::seed_from(seed);
    let mut visited = FixedBitSet::new(n);
    visited.insert(0);
    let mut t = 0u64;
    while !visited.is_full() {
        if t >= cap {
            return None;
        }
        visited.insert(rng.uniform_usize(n));
        t += 1;
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_counts_start_as_visited() {
        let t = Traversal::new(8, QueueStrategy::Fifo, 1);
        assert_eq!(t.tokens(), 8);
        for token in 0..8 {
            assert_eq!(t.visited(token).count_ones(), 1);
            assert!(t.visited(token).contains(token));
        }
        assert_eq!(t.covered_tokens(), 0);
        assert!((t.coverage_fraction() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_is_monotone() {
        let mut t = Traversal::new(16, QueueStrategy::Fifo, 2);
        let mut prev = t.coverage_fraction();
        for _ in 0..200 {
            t.step();
            let cur = t.coverage_fraction();
            assert!(cur >= prev);
            prev = cur;
        }
    }

    #[test]
    fn small_clique_covers() {
        let mut t = Traversal::new(16, QueueStrategy::Fifo, 3);
        let cover = t.run_to_cover(1_000_000).expect("must cover");
        assert!(cover > 0);
        assert!(t.all_covered());
        assert_eq!(t.covered_tokens(), 16);
        assert!((t.coverage_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cover_time_scale_is_nlog2n() {
        let n = 64;
        let mut t = Traversal::new(n, QueueStrategy::Fifo, 4);
        let cover = t.run_to_cover(10_000_000).unwrap() as f64;
        let nf = n as f64;
        let scale = nf * nf.ln() * nf.ln();
        // Expect cover within [0.2, 3]× of n ln²n for this size.
        assert!(
            cover > 0.2 * scale && cover < 3.0 * scale,
            "cover {cover}, scale {scale}"
        );
    }

    #[test]
    fn cap_returns_none() {
        let mut t = Traversal::new(64, QueueStrategy::Fifo, 5);
        assert_eq!(t.run_to_cover(3), None);
    }

    #[test]
    fn single_token_cover_is_coupon_collector() {
        let n = 128;
        let trials = 30;
        let mut total = 0u64;
        for s in 0..trials {
            total += single_token_cover_time(n, s, 10_000_000).unwrap();
        }
        let mean = total as f64 / trials as f64;
        let cc = rbb_stats::coupon_collector(n);
        assert!(mean > 0.6 * cc && mean < 1.6 * cc, "mean {mean}, cc {cc}");
    }

    #[test]
    fn parallel_cover_slower_than_single_token() {
        let n = 64;
        let mut t = Traversal::new(n, QueueStrategy::Fifo, 6);
        let parallel = t.run_to_cover(10_000_000).unwrap();
        let single = single_token_cover_time(n, 6, 10_000_000).unwrap();
        // The parallel task requires every token to cover: strictly harder.
        assert!(parallel > single, "parallel {parallel} vs single {single}");
    }

    #[test]
    fn adversarial_reassign_updates_visited() {
        let mut t = Traversal::new(8, QueueStrategy::Fifo, 7);
        let placement: Vec<usize> = (0..8).map(|i| (i + 1) % 8).collect();
        t.apply_fault(&placement);
        for token in 0..8 {
            assert!(t.visited(token).contains((token + 1) % 8));
            assert_eq!(t.visited(token).count_ones(), 2);
        }
    }

    #[test]
    fn from_skewed_config_still_covers() {
        let mut t = Traversal::from_config(Config::all_in_one(12, 12), QueueStrategy::Fifo, 8);
        assert!(t.run_to_cover(1_000_000).is_some());
    }

    #[test]
    fn strategies_all_cover() {
        for strategy in QueueStrategy::ALL {
            let mut t = Traversal::new(12, strategy, 9);
            assert!(
                t.run_to_cover(1_000_000).is_some(),
                "{} failed to cover",
                strategy.label()
            );
        }
    }
}
