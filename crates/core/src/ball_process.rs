//! The repeated balls-into-bins process — ball-identity engine.
//!
//! Carries individual ball identities through FIFO/LIFO/random bin queues.
//! The *load* trajectory is identical in law to [`crate::process::LoadProcess`]
//! (the paper's strategy-obliviousness); what this engine adds is everything
//! per-ball: walk progress (number of moves — the `Ω(t/log n)` claim),
//! queueing delay, and a per-move hook that the traversal crate uses to
//! maintain visited-set bitmaps for cover-time measurement (Corollary 1).
//!
//! On a graph ([`BallProcess::with_graph`]) a released ball goes to a
//! uniform neighbor of its bin instead of a uniform bin: the Section 5
//! token walk, whose load-only twin is the load engine under
//! [`Rule::Neighbors`](crate::load::Rule::Neighbors).

use std::collections::VecDeque;
use std::sync::Arc;

use crate::config::Config;
use crate::engine::{Engine, Faults};
use crate::load::Neighbors;
use crate::rng::Xoshiro256pp;
use crate::sampling::UniformSampler;
use crate::strategy::QueueStrategy;

/// Identifier of a ball: dense indices `0..m`.
pub type BallId = u32;

/// Per-ball accounting.
#[derive(Debug, Clone, Default)]
pub struct BallStats {
    /// Number of random-walk steps the ball has performed (times selected).
    pub moves: u64,
    /// Total rounds spent waiting in queues (excluding the move rounds).
    pub total_wait: u64,
    /// Maximum single-visit wait.
    pub max_wait: u64,
}

/// Ball-identity repeated balls-into-bins simulator.
#[derive(Debug, Clone)]
pub struct BallProcess {
    queues: Vec<VecDeque<BallId>>,
    /// Load vector kept in lock-step with `queues` so observers get O(n)
    /// snapshots without scanning queue lengths.
    config: Config,
    strategy: QueueStrategy,
    rng: Xoshiro256pp,
    round: u64,
    /// Round at which each ball entered its current bin.
    arrival_round: Vec<u64>,
    stats: Vec<BallStats>,
    /// Scratch buffer reused across rounds: (ball, destination).
    movers: Vec<(BallId, u32)>,
    /// Uniform sampler keyed on `n`, cached so no destination draw
    /// rebuilds the Lemire rejection threshold (a `u64` modulo).
    sampler: UniformSampler,
    /// The graph released balls walk on, one vertex per bin; `None` sends
    /// them to a uniform bin, the paper's process.
    graph: Option<Arc<dyn Neighbors>>,
}

impl BallProcess {
    /// Creates the process from an initial configuration: ball ids are
    /// assigned densely, bin by bin (bin 0 holds balls `0..q_0`, etc).
    /// Panics if the balls outnumber the `u32` ids or `n` exceeds the `u32`
    /// index range.
    ///
    /// # RNG stream
    ///
    /// Takes ownership of `rng` as the process's engine stream. Construction
    /// consumes no draws; each round consumes one uniform destination draw per
    /// ball released, plus one queue-position draw per non-empty bin under
    /// [`QueueStrategy::Random`].
    pub fn new(config: Config, strategy: QueueStrategy, rng: Xoshiro256pp) -> Self {
        let m = config.total_balls();
        assert!(m <= u32::MAX as u64, "ball ids are u32");
        // Destinations are u32 bin indices, as in every storage.
        assert!(
            config.n() <= u32::MAX as usize + 1,
            "bin count {} exceeds the u32 index range",
            config.n()
        );
        let mut queues: Vec<VecDeque<BallId>> = Vec::with_capacity(config.n());
        let mut next: BallId = 0;
        for &q in config.loads() {
            let mut dq = VecDeque::with_capacity(q as usize);
            for _ in 0..q {
                dq.push_back(next);
                next += 1;
            }
            queues.push(dq);
        }
        let sampler = UniformSampler::new(config.n() as u64);
        Self {
            queues,
            config,
            strategy,
            rng,
            round: 0,
            arrival_round: vec![0; m as usize],
            stats: vec![BallStats::default(); m as usize],
            movers: Vec::new(),
            sampler,
            graph: None,
        }
    }

    /// The same process on a graph with one vertex per bin: a released ball
    /// goes to a uniform neighbor of its bin instead of a uniform bin (the
    /// Section 5 walk; a complete graph with self-loops is the paper's
    /// process), drawn where [`step_with`](Self::step_with) draws the
    /// uniform bin. Panics on a graph whose vertex count is not the bin
    /// count.
    pub fn with_graph(mut self, graph: Arc<dyn Neighbors>) -> Self {
        assert_eq!(graph.n(), self.n(), "a walk needs one graph vertex per bin");
        self.graph = Some(graph);
        self
    }

    /// Convenience: one ball per bin, FIFO.
    pub fn legitimate_start(n: usize, seed: u64) -> Self {
        Self::new(
            Config::one_per_bin(n),
            QueueStrategy::Fifo,
            // rbb-lint: allow(rng-construct, reason = "engine-convention stream for a core convenience constructor; core cannot depend on rbb_sim::seed")
            Xoshiro256pp::seed_from(seed),
        )
    }

    #[inline]
    /// Number of bins.
    pub fn n(&self) -> usize {
        self.queues.len()
    }

    #[inline]
    /// Number of balls `m` — `u64` like every other engine's ball counter
    /// (the [`Engine::balls`] unit), even though ball identities cap the
    /// practical range well below it.
    pub fn balls(&self) -> u64 {
        self.stats.len() as u64
    }

    #[inline]
    /// Current round (0 before any step).
    pub fn round(&self) -> u64 {
        self.round
    }

    #[inline]
    /// Current load configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    #[inline]
    /// The queue strategy in use.
    pub fn strategy(&self) -> QueueStrategy {
        self.strategy
    }

    /// Per-ball statistics.
    #[inline]
    pub fn ball_stats(&self) -> &[BallStats] {
        &self.stats
    }

    /// The queue of a bin (front = oldest).
    pub fn queue(&self, bin: usize) -> &VecDeque<BallId> {
        &self.queues[bin]
    }

    /// Advances one round. `on_move(ball, dest, round)` fires once per moved
    /// ball, after the ball's arrival at `dest` is decided.
    ///
    /// # RNG stream
    ///
    /// Each non-empty bin, in bin order, consumes its queue pick's draws
    /// (one position bounded by the queue length under
    /// [`Random`](QueueStrategy::Random), none otherwise) and then one
    /// `uniform_usize(n)` for its ball's destination, or on a graph one
    /// [`Neighbors::random_neighbor`] draw.
    pub fn step_with(&mut self, mut on_move: impl FnMut(BallId, usize, u64)) -> usize {
        let n = self.queues.len();
        let round = self.round + 1;
        self.movers.clear();

        // Selection phase: every non-empty bin releases exactly one ball.
        for u in 0..n {
            let len = self.queues[u].len();
            if len == 0 {
                continue;
            }
            let ball = match self.strategy {
                // rbb-lint: allow(panic, reason = "only non-empty bins enter the release loop")
                QueueStrategy::Fifo => self.queues[u].pop_front().expect("non-empty"),
                // rbb-lint: allow(panic, reason = "only non-empty bins enter the release loop")
                QueueStrategy::Lifo => self.queues[u].pop_back().expect("non-empty"),
                QueueStrategy::Random => {
                    // Order within the queue is irrelevant under Random, so a
                    // swap-remove keeps this O(1).
                    self.queues[u].swap(self.strategy.pick(len, &mut self.rng), len - 1);
                    // rbb-lint: allow(panic, reason = "only non-empty bins enter the release loop")
                    self.queues[u].pop_back().expect("non-empty")
                }
            };
            let wait = round - 1 - self.arrival_round[ball as usize];
            let st = &mut self.stats[ball as usize];
            st.moves += 1;
            st.total_wait += wait;
            st.max_wait = st.max_wait.max(wait);
            let dest = match &self.graph {
                // rbb-lint: allow(lossy-cast, reason = "n <= u32::MAX + 1 is asserted at construction; draws are < n")
                None => self.sampler.sample(&mut self.rng) as u32,
                // rbb-lint: allow(lossy-cast, reason = "a neighbor is a vertex, one per bin, so it is < n like a uniform draw")
                Some(graph) => graph.random_neighbor(u, &mut self.rng) as u32,
            };
            self.movers.push((ball, dest));
        }

        // Re-assignment phase: all arrivals land simultaneously.
        let moved = self.movers.len();
        let loads = self.config.loads_mut();
        for (u, q) in self.queues.iter().enumerate() {
            // rbb-lint: allow(lossy-cast, reason = "queue length <= total balls <= u32::MAX, asserted at construction")
            loads[u] = q.len() as u32;
        }
        for &(ball, dest) in &self.movers {
            self.queues[dest as usize].push_back(ball);
            loads[dest as usize] += 1;
            self.arrival_round[ball as usize] = round;
            on_move(ball, dest as usize, round);
        }

        self.round = round;
        moved
    }

    /// Advances one round without a per-move hook.
    pub fn step(&mut self) -> usize {
        self.step_with(|_, _, _| {})
    }

    /// Minimum walk progress over all balls (the quantity bounded below by
    /// `Ω(t / log n)` under FIFO).
    pub fn min_progress(&self) -> u64 {
        self.stats.iter().map(|s| s.moves).min().unwrap_or(0)
    }

    /// Mean walk progress over all balls.
    pub fn mean_progress(&self) -> f64 {
        if self.stats.is_empty() {
            return 0.0;
        }
        self.stats.iter().map(|s| s.moves).sum::<u64>() as f64 / self.stats.len() as f64
    }

    /// Validates internal consistency (queues vs load vector vs ball count).
    pub fn validate(&self) -> Result<(), String> {
        let total: usize = self.queues.iter().map(|q| q.len()).sum();
        if total != self.stats.len() {
            return Err(format!(
                "{total} balls in queues, expected {}",
                self.stats.len()
            ));
        }
        for (u, q) in self.queues.iter().enumerate() {
            if q.len() != self.config.loads()[u] as usize {
                return Err(format!(
                    "bin {u}: queue len {} != load {}",
                    q.len(),
                    self.config.loads()[u]
                ));
            }
        }
        let mut seen = vec![false; self.stats.len()];
        for q in &self.queues {
            for &b in q {
                if seen[b as usize] {
                    return Err(format!("ball {b} appears twice"));
                }
                seen[b as usize] = true;
            }
        }
        Ok(())
    }
}

/// The run family is provided by [`Engine`]; every strategy runs the one
/// kernel of [`BallProcess::step_with`].
impl Engine for BallProcess {
    #[inline]
    fn step(&mut self) -> usize {
        BallProcess::step(self)
    }

    #[inline]
    fn round(&self) -> u64 {
        self.round
    }

    #[inline]
    fn config(&self) -> &Config {
        &self.config
    }

    fn faults(&mut self) -> Option<&mut dyn Faults> {
        Some(self)
    }

    fn min_progress(&self) -> Option<u64> {
        Some(BallProcess::min_progress(self))
    }
}

impl Faults for BallProcess {
    /// The §4.1 adversary: reassigns every ball to an arbitrary bin given by
    /// `placement[ball]`. Queue order after a fault is by ball id (the
    /// adversary controls placement, not intra-bin order, which is
    /// irrelevant to the analysis).
    fn apply_fault(&mut self, placement: &[usize]) {
        assert_eq!(placement.len(), self.stats.len(), "one bin per ball");
        let n = self.queues.len();
        for q in &mut self.queues {
            q.clear();
        }
        for (ball, &bin) in placement.iter().enumerate() {
            assert!(bin < n, "bin out of range");
            self.queues[bin].push_back(ball as BallId);
            self.arrival_round[ball] = self.round;
        }
        let loads = self.config.loads_mut();
        for (u, q) in self.queues.iter().enumerate() {
            // rbb-lint: allow(lossy-cast, reason = "queue length <= total balls <= u32::MAX, asserted at construction")
            loads[u] = q.len() as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MaxLoadTracker;
    use crate::process::LoadProcess;

    /// The reference round: the process's scalar loop, one queue pick and
    /// one `uniform_usize(n)` destination draw per non-empty bin, in bin
    /// order. [`BallProcess::step_with`] is pinned bit-identical to it.
    fn reference_step(p: &mut BallProcess, mut on_move: impl FnMut(BallId, usize, u64)) -> usize {
        let n = p.queues.len();
        let round = p.round + 1;
        let mut movers = Vec::new();
        for u in 0..n {
            let len = p.queues[u].len();
            if len == 0 {
                continue;
            }
            let idx = p.strategy.pick(len, &mut p.rng);
            let ball = match p.strategy {
                QueueStrategy::Fifo => p.queues[u].pop_front().unwrap(),
                QueueStrategy::Lifo => p.queues[u].pop_back().unwrap(),
                QueueStrategy::Random => {
                    p.queues[u].swap(idx, len - 1);
                    p.queues[u].pop_back().unwrap()
                }
            };
            let dest = p.rng.uniform_usize(n);
            let wait = round - 1 - p.arrival_round[ball as usize];
            let st = &mut p.stats[ball as usize];
            st.moves += 1;
            st.total_wait += wait;
            st.max_wait = st.max_wait.max(wait);
            movers.push((ball, dest));
        }
        let loads = p.config.loads_mut();
        for (u, q) in p.queues.iter().enumerate() {
            loads[u] = q.len() as u32;
        }
        for &(ball, dest) in &movers {
            p.queues[dest].push_back(ball);
            loads[dest] += 1;
            p.arrival_round[ball as usize] = round;
            on_move(ball, dest, round);
        }
        p.round = round;
        movers.len()
    }

    /// A ring of `n` bins: one `uniform_usize(2)` draw picks the left or
    /// right neighbor.
    #[derive(Debug)]
    struct Ring(usize);

    impl Neighbors for Ring {
        fn random_neighbor(&self, v: usize, rng: &mut Xoshiro256pp) -> usize {
            (v + [self.0 - 1, 1][rng.uniform_usize(2)]) % self.0
        }

        fn n(&self) -> usize {
            self.0
        }
    }

    /// A `w × h` torus, bin `y·w + x` at `(x, y)`: one `uniform_usize(4)`
    /// draw picks the left, right, lower or upper neighbor.
    #[derive(Debug)]
    struct Torus(usize, usize);

    impl Neighbors for Torus {
        fn random_neighbor(&self, v: usize, rng: &mut Xoshiro256pp) -> usize {
            let (w, h) = (self.0, self.1);
            let (x, y) = (v % w, v / w);
            match rng.uniform_usize(4) {
                0 => y * w + (x + w - 1) % w,
                1 => y * w + (x + 1) % w,
                2 => (y + h - 1) % h * w + x,
                _ => (y + 1) % h * w + x,
            }
        }

        fn n(&self) -> usize {
            self.0 * self.1
        }
    }

    #[test]
    fn graph_walk_matches_reference_under_every_strategy() {
        // The reference is the token walk as a plain loop over queues: each
        // non-empty node, in order, takes its queue pick (one position draw
        // under Random, none otherwise) and then one neighbor draw; all
        // tokens land at once. Loads and queue order must agree every
        // round, and the stream state at the end.
        let graphs: [Arc<dyn Neighbors>; 2] = [Arc::new(Ring(24)), Arc::new(Torus(6, 5))];
        for graph in graphs {
            for strategy in QueueStrategy::ALL {
                let n = graph.n();
                let label = format!("{graph:?} {}", strategy.label());
                let mut p = BallProcess::new(
                    Config::one_per_bin(n),
                    strategy,
                    Xoshiro256pp::seed_from(12),
                )
                .with_graph(graph.clone());
                let mut rng = Xoshiro256pp::seed_from(12);
                let mut queues: Vec<VecDeque<BallId>> =
                    (0..n as BallId).map(|v| VecDeque::from([v])).collect();
                for r in 0..300 {
                    let mut movers = Vec::new();
                    for (u, queue) in queues.iter_mut().enumerate() {
                        let len = queue.len();
                        let token = match strategy {
                            _ if len == 0 => continue,
                            QueueStrategy::Fifo => queue.pop_front(),
                            QueueStrategy::Lifo => queue.pop_back(),
                            QueueStrategy::Random => {
                                queue.swap(rng.uniform_usize(len), len - 1);
                                queue.pop_back()
                            }
                        };
                        movers.push((token.unwrap(), graph.random_neighbor(u, &mut rng)));
                    }
                    for &(token, v) in &movers {
                        queues[v].push_back(token);
                    }
                    assert_eq!(p.step(), movers.len(), "{label}, round {r}");
                    for (u, queue) in queues.iter().enumerate() {
                        assert_eq!(p.queue(u), queue, "{label}, round {r}, node {u}");
                        assert_eq!(p.config().loads()[u] as usize, queue.len());
                    }
                }
                assert_eq!(p.rng, rng, "{label}: stream states diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one graph vertex per bin")]
    fn a_token_walk_needs_a_graph_of_n_vertices() {
        let _ = BallProcess::legitimate_start(40, 1).with_graph(Arc::new(Ring(41)));
    }

    #[test]
    fn construction_assigns_dense_ids() {
        let p = BallProcess::new(
            Config::from_loads(vec![2, 0, 1]),
            QueueStrategy::Fifo,
            Xoshiro256pp::seed_from(1),
        );
        assert_eq!(p.queue(0).iter().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert!(p.queue(1).is_empty());
        assert_eq!(p.queue(2).iter().copied().collect::<Vec<_>>(), vec![2]);
        p.validate().unwrap();
    }

    #[test]
    fn step_conserves_balls_all_strategies() {
        for strategy in QueueStrategy::ALL {
            let mut p = BallProcess::new(
                Config::one_per_bin(64),
                strategy,
                Xoshiro256pp::seed_from(2),
            );
            for _ in 0..100 {
                p.step();
                p.validate().unwrap();
            }
        }
    }

    #[test]
    fn moved_count_equals_nonempty_bins() {
        let mut p = BallProcess::legitimate_start(32, 3);
        let nonempty_before = p.config().nonempty_bins();
        let moved = p.step();
        assert_eq!(moved, nonempty_before);
    }

    #[test]
    fn fifo_load_trajectory_matches_load_process() {
        // With the same seed, FIFO consumes RNG draws in exactly the same
        // order as the load-only engine, so trajectories coincide bit-for-bit.
        let n = 48;
        let mut bp = BallProcess::legitimate_start(n, 99);
        let mut lp = LoadProcess::legitimate_start(n, 99);
        for _ in 0..200 {
            bp.step();
            lp.step();
            assert_eq!(bp.config(), lp.config());
        }
    }

    #[test]
    fn lifo_load_trajectory_matches_load_process() {
        let n = 48;
        let mut bp = BallProcess::new(
            Config::one_per_bin(n),
            QueueStrategy::Lifo,
            Xoshiro256pp::seed_from(99),
        );
        let mut lp = LoadProcess::legitimate_start(n, 99);
        for _ in 0..200 {
            bp.step();
            lp.step();
            assert_eq!(bp.config(), lp.config());
        }
    }

    #[test]
    fn on_move_hook_fires_per_mover() {
        let mut p = BallProcess::legitimate_start(16, 4);
        let mut count = 0;
        let moved = p.step_with(|_, dest, round| {
            assert!(dest < 16);
            assert_eq!(round, 1);
            count += 1;
        });
        assert_eq!(count, moved);
    }

    #[test]
    fn progress_accumulates() {
        let mut p = BallProcess::legitimate_start(32, 5);
        p.run(100, crate::metrics::NullObserver);
        assert!(p.min_progress() > 0, "every ball should move in 100 rounds");
        assert!(p.mean_progress() <= 100.0);
        // In 100 rounds a ball moves at most once per round.
        assert!(p.ball_stats().iter().all(|s| s.moves <= 100));
    }

    #[test]
    fn wait_accounting_consistent() {
        let mut p = BallProcess::legitimate_start(16, 6);
        p.run(200, crate::metrics::NullObserver);
        for s in p.ball_stats() {
            // moves + waits cannot exceed elapsed rounds.
            assert!(s.moves + s.total_wait <= 200);
            assert!(s.max_wait <= s.total_wait || s.max_wait == 0);
        }
    }

    #[test]
    fn single_ball_performs_plain_random_walk() {
        // With m = 1 the constraint is vacuous: the ball moves every round.
        let mut p = BallProcess::new(
            Config::all_in_one(8, 1),
            QueueStrategy::Fifo,
            Xoshiro256pp::seed_from(7),
        );
        p.run(50, crate::metrics::NullObserver);
        assert_eq!(p.ball_stats()[0].moves, 50);
        assert_eq!(p.ball_stats()[0].total_wait, 0);
    }

    #[test]
    fn lifo_starves_buried_ball() {
        // All balls in one bin: under LIFO the bottom ball moves only after
        // the queue above it drains below it; under FIFO the first ball moves
        // immediately. Check FIFO moves ball 0 in round 1.
        let mut fifo = BallProcess::new(
            Config::all_in_one(8, 8),
            QueueStrategy::Fifo,
            Xoshiro256pp::seed_from(8),
        );
        fifo.step();
        assert_eq!(fifo.ball_stats()[0].moves, 1);

        let mut lifo = BallProcess::new(
            Config::all_in_one(8, 8),
            QueueStrategy::Lifo,
            Xoshiro256pp::seed_from(8),
        );
        lifo.step();
        assert_eq!(lifo.ball_stats()[7].moves, 1);
        assert_eq!(lifo.ball_stats()[0].moves, 0);
    }

    #[test]
    fn batched_step_bit_identical_for_fifo_and_lifo() {
        // Under FIFO/LIFO the kernel's loads, stream and per-ball accounting
        // match the reference's, round by round.
        for strategy in [QueueStrategy::Fifo, QueueStrategy::Lifo] {
            let mut reference = BallProcess::new(
                Config::one_per_bin(64),
                strategy,
                Xoshiro256pp::seed_from(77),
            );
            let mut kernel = reference.clone();
            for _ in 0..150 {
                let a = reference_step(&mut reference, |_, _, _| {});
                let b = kernel.step();
                assert_eq!(a, b);
                assert_eq!(reference.config(), kernel.config());
            }
            kernel.validate().unwrap();
            assert_eq!(reference.rng, kernel.rng);
            // Per-ball accounting agrees too, not just the load vector.
            for (s, t) in reference.ball_stats().iter().zip(kernel.ball_stats()) {
                assert_eq!(s.moves, t.moves);
                assert_eq!(s.total_wait, t.total_wait);
                assert_eq!(s.max_wait, t.max_wait);
            }
        }
    }

    #[test]
    fn batched_step_random_falls_back_to_scalar() {
        // The Random strategy interleaves queue-index draws with destination
        // draws, so its kernel must follow the reference's stream verbatim:
        // bit-identical loads, RNG stream, and per-ball accounting —
        // including from a skewed start where queue lengths (and hence
        // pick bounds) vary wildly.
        let mut rng = Xoshiro256pp::seed_from(78);
        let skewed = Config::random(&mut rng, 32, 64);
        for start in [Config::one_per_bin(32), skewed] {
            let mut reference = BallProcess::new(
                start.clone(),
                QueueStrategy::Random,
                Xoshiro256pp::seed_from(78),
            );
            let mut kernel = reference.clone();
            for i in 0..100 {
                // Interleave the two: the streams must stay in lockstep.
                let (a, b) = if i % 2 == 0 {
                    (reference_step(&mut reference, |_, _, _| {}), kernel.step())
                } else {
                    (reference.step(), reference_step(&mut kernel, |_, _, _| {}))
                };
                assert_eq!(a, b);
                assert_eq!(reference.config(), kernel.config());
            }
            kernel.validate().unwrap();
            assert_eq!(reference.rng, kernel.rng);
            for (s, t) in reference.ball_stats().iter().zip(kernel.ball_stats()) {
                assert_eq!(
                    (s.moves, s.total_wait, s.max_wait),
                    (t.moves, t.total_wait, t.max_wait)
                );
            }
        }
    }

    #[test]
    fn batched_hook_fires_per_mover() {
        // The hook sees every move, in the reference's order, under every
        // strategy.
        for strategy in QueueStrategy::ALL {
            let start = Config::from_loads(vec![3, 0, 1, 5, 0, 2, 1, 4]);
            let mut reference = BallProcess::new(start, strategy, Xoshiro256pp::seed_from(79));
            let mut kernel = reference.clone();
            for _ in 0..20 {
                let (mut want, mut got) = (Vec::new(), Vec::new());
                let a = reference_step(&mut reference, |b, d, r| want.push((b, d, r)));
                let b = kernel.step_with(|b, d, r| got.push((b, d, r)));
                assert_eq!((a, &want), (b, &got), "{}", strategy.label());
                assert_eq!(got.len(), b);
            }
        }
    }

    #[test]
    fn adversarial_reassign_all_to_one() {
        let mut p = BallProcess::legitimate_start(16, 9);
        p.run(10, crate::metrics::NullObserver);
        let placement = vec![3usize; 16];
        p.apply_fault(&placement);
        p.validate().unwrap();
        assert_eq!(p.config().loads()[3], 16);
        assert_eq!(p.config().max_load(), 16);
        p.step();
        p.validate().unwrap();
    }

    #[test]
    fn max_load_tracker_via_run() {
        let mut p = BallProcess::legitimate_start(128, 10);
        let mut t = MaxLoadTracker::new();
        p.run(500, &mut t);
        assert!(t.window_max() >= 1);
        assert!(t.window_max() < 30, "load blew up: {}", t.window_max());
    }
}
