//! Constrained parallel token walks on arbitrary graphs — the
//! generalization of the repeated balls-into-bins process that Section 5
//! poses as an open question.
//!
//! Each node holds a queue of tokens. Per round, every non-empty node
//! forwards exactly one token to a neighbor chosen uniformly at random
//! (on [`crate::graph::complete_with_loops`] this is *exactly* the paper's
//! process). The load-only walk is the core load engine under
//! [`Rule::Neighbors`], which [`Graph`] serves through the core
//! [`Neighbors`] trait; [`GraphTokenProcess`] carries token identities
//! (under any [`QueueStrategy`]) and visited-sets for cover-time
//! measurement on general topologies. It owns its graph, so it can stand
//! behind the unified [`Engine`] trait and be built by the `rbb_sim`
//! scenario factory.
//!
//! [`Rule::Neighbors`]: rbb_core::load::Rule::Neighbors

use rbb_core::config::Config;
use rbb_core::engine::Engine;
use rbb_core::load::Neighbors;
use rbb_core::rng::Xoshiro256pp;
use rbb_core::strategy::QueueStrategy;

use crate::graph::Graph;

/// The load-only walk's neighbor draw: [`Graph::random_neighbor`].
impl Neighbors for Graph {
    fn random_neighbor(&self, v: usize, rng: &mut Xoshiro256pp) -> usize {
        Graph::random_neighbor(self, v, rng)
    }

    fn n(&self) -> usize {
        Graph::n(self)
    }
}

/// Token-identity constrained parallel walk: per-node queues under any
/// [`QueueStrategy`], with visited tracking for cover-time measurement.
#[derive(Debug, Clone)]
pub struct GraphTokenProcess {
    graph: Graph,
    queues: Vec<std::collections::VecDeque<u32>>,
    /// Load vector kept in lock-step with `queues` for O(n) observation.
    config: Config,
    strategy: QueueStrategy,
    rng: Xoshiro256pp,
    round: u64,
    /// `visited[token]` is a bitmap over vertices (dense words).
    visited: Vec<Vec<u64>>,
    /// Vertices not yet visited, per token.
    unvisited_count: Vec<usize>,
    /// Number of tokens that have covered the whole graph.
    covered_tokens: usize,
    words: usize,
}

impl GraphTokenProcess {
    /// Places one token per vertex (token `i` starts at vertex `i`), FIFO
    /// release — the historical default.
    pub fn one_per_node(graph: Graph, seed: u64) -> Self {
        Self::with_strategy(graph, QueueStrategy::Fifo, seed)
    }

    /// Places one token per vertex under an arbitrary queue strategy. FIFO
    /// consumes no selection randomness, so `with_strategy(g, Fifo, s)` is
    /// bit-identical to the historical FIFO-only process.
    pub fn with_strategy(graph: Graph, strategy: QueueStrategy, seed: u64) -> Self {
        let n = graph.n();
        let words = n.div_ceil(64);
        let mut queues = vec![std::collections::VecDeque::new(); n];
        let mut visited = vec![vec![0u64; words]; n];
        for v in 0..n {
            queues[v].push_back(v as u32);
            visited[v][v / 64] |= 1 << (v % 64);
        }
        Self {
            graph,
            queues,
            config: Config::one_per_bin(n),
            strategy,
            rng: Xoshiro256pp::seed_from(seed),
            round: 0,
            visited,
            unvisited_count: vec![n - 1; n],
            covered_tokens: if n == 1 { 1 } else { 0 },
            words,
        }
    }

    /// The topology being walked.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The queue strategy in use.
    #[inline]
    pub fn strategy(&self) -> QueueStrategy {
        self.strategy
    }

    #[inline]
    /// Current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of tokens that have visited every vertex.
    #[inline]
    pub fn covered_tokens(&self) -> usize {
        self.covered_tokens
    }

    /// Whether all tokens have covered the graph.
    #[inline]
    pub fn all_covered(&self) -> bool {
        self.covered_tokens == self.queues.len()
    }

    /// Maximum queue length (the congestion measure).
    pub fn max_load(&self) -> usize {
        self.queues.iter().map(|q| q.len()).max().unwrap_or(0)
    }

    /// Marks `v` visited for `token`, updating coverage counters.
    fn mark_visited(&mut self, token: usize, v: usize) {
        let (w, b) = (v / 64, v % 64);
        if self.visited[token][w] & (1 << b) == 0 {
            self.visited[token][w] |= 1 << b;
            self.unvisited_count[token] -= 1;
            if self.unvisited_count[token] == 0 {
                self.covered_tokens += 1;
            }
        }
    }

    /// Advances one round (every non-empty node releases one token chosen
    /// by the strategy); returns the number of tokens that moved.
    pub fn step(&mut self) -> usize {
        let n = self.graph.n();
        let round = self.round + 1;
        let mut movers: Vec<(u32, u32)> = Vec::new();
        for u in 0..n {
            let len = self.queues[u].len();
            if len == 0 {
                continue;
            }
            let idx = self.strategy.pick(len, &mut self.rng);
            let token = match self.strategy {
                QueueStrategy::Fifo => self.queues[u].pop_front().expect("non-empty"),
                QueueStrategy::Lifo => self.queues[u].pop_back().expect("non-empty"),
                QueueStrategy::Random => {
                    let last = len - 1;
                    self.queues[u].swap(idx, last);
                    self.queues[u].pop_back().expect("non-empty")
                }
            };
            let v = self.graph.random_neighbor(u, &mut self.rng) as u32;
            movers.push((token, v));
        }
        let moved = movers.len();
        {
            let loads = self.config.loads_slice_mut();
            for (u, q) in self.queues.iter().enumerate() {
                loads[u] = q.len() as u32;
            }
        }
        for &(token, v) in &movers {
            self.queues[v as usize].push_back(token);
            self.config.loads_slice_mut()[v as usize] += 1;
            self.mark_visited(token as usize, v as usize);
        }
        self.round = round;
        debug_assert_eq!(self.words, self.visited[0].len());
        moved
    }

    /// Runs until every token has covered the graph or `cap` rounds elapse;
    /// returns the parallel cover time.
    pub fn run_to_cover(&mut self, cap: u64) -> Option<u64> {
        while !self.all_covered() {
            if self.round >= cap {
                return None;
            }
            self.step();
        }
        Some(self.round)
    }

    /// The §4.1 adversary on a graph: `placement[token] = node`. Queue order
    /// after a fault is by token id; the post-fault position counts as
    /// visited (the token is there).
    pub fn adversarial_reassign(&mut self, placement: &[usize]) {
        let n = self.graph.n();
        assert_eq!(placement.len(), n, "one node per token");
        for q in &mut self.queues {
            q.clear();
        }
        for (token, &node) in placement.iter().enumerate() {
            assert!(node < n, "node out of range");
            self.queues[node].push_back(token as u32);
        }
        self.config
            .loads_slice_mut()
            .iter_mut()
            .for_each(|l| *l = 0);
        for (token, &node) in placement.iter().enumerate() {
            self.config.loads_slice_mut()[node] += 1;
            self.mark_visited(token, node);
        }
    }
}

/// The run family is provided by [`Engine`]; `covered` exposes the
/// cover-time goal to generic drivers and stop conditions.
impl Engine for GraphTokenProcess {
    #[inline]
    fn step(&mut self) -> usize {
        GraphTokenProcess::step(self)
    }

    #[inline]
    fn round(&self) -> u64 {
        self.round
    }

    #[inline]
    fn config(&self) -> &Config {
        &self.config
    }

    fn supports_faults(&self) -> bool {
        true
    }

    fn apply_fault(&mut self, placement: &[usize]) {
        self.adversarial_reassign(placement);
    }

    fn covered(&self) -> Option<bool> {
        Some(self.all_covered())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{complete_with_loops, hypercube, ring, torus};
    use rbb_core::load::Rule;
    use rbb_core::metrics::{EmptyBinsTracker, MaxLoadTracker};
    use rbb_core::process::LoadProcess;
    use std::sync::Arc;

    /// The load-only walk on `graph`, one token per node.
    fn walk(graph: Graph, seed: u64) -> LoadProcess {
        LoadProcess::legitimate_start(graph.n(), seed).with_rule(Rule::Neighbors(Arc::new(graph)))
    }

    #[test]
    fn load_process_conserves_tokens() {
        let mut p = walk(ring(20), 1);
        for _ in 0..100 {
            p.step();
            assert_eq!(p.config().total_balls(), 20);
        }
    }

    #[test]
    fn load_process_on_clique_matches_paper_dynamics() {
        // On K_n with self-loops the destination is uniform over all bins:
        // max load should stay logarithmic as in the paper.
        let mut p = walk(complete_with_loops(256), 2);
        let mut t = MaxLoadTracker::new();
        p.run(1000, &mut t);
        assert!(t.window_max() < 24, "max load {}", t.window_max());
    }

    #[test]
    fn complete_with_loops_walk_is_the_uniform_process_bit_for_bit() {
        // `complete_with_loops(n)` lists every vertex's neighbors as 0..n
        // in order, so a neighbor draw is the uniform draw: same loads
        // every round, same stream state at the end.
        for (n, seed) in [(2usize, 31u64), (97, 32), (256, 33)] {
            let mut uniform = LoadProcess::legitimate_start(n, seed);
            let mut clique = walk(complete_with_loops(n), seed);
            for r in 0..300 {
                assert_eq!(uniform.step(), clique.step(), "n = {n}, round {r}");
                assert_eq!(uniform.config(), clique.config(), "n = {n}, round {r}");
            }
            // Back on the uniform rule, the walk snapshots: entries, round
            // and stream state must all agree.
            let clique = clique.with_rule(Rule::Uniform);
            assert_eq!(Engine::snapshot(&uniform), Engine::snapshot(&clique));
        }
    }

    #[test]
    fn clique_empty_fraction_quarter() {
        let mut p = walk(complete_with_loops(512), 3);
        let mut t = EmptyBinsTracker::new();
        p.run(500, &mut t);
        assert_eq!(t.violations_below_quarter(), 0);
    }

    #[test]
    fn regular_graphs_keep_load_moderate() {
        // The Section-5 conjecture: max load stays logarithmic-ish on
        // regular graphs over moderate windows.
        let mut p = walk(hypercube(8), 4); // 256 vertices
        let mut t = MaxLoadTracker::new();
        p.run(1000, &mut t);
        assert!(t.window_max() < 30, "hypercube max load {}", t.window_max());

        let mut p = walk(torus(16, 16), 5);
        let mut t = MaxLoadTracker::new();
        p.run(1000, &mut t);
        assert!(t.window_max() < 30, "torus max load {}", t.window_max());
    }

    #[test]
    fn load_process_fault_reassigns_loads() {
        let mut p = walk(ring(8), 11);
        p.apply_fault(&[3; 8]);
        assert_eq!(p.config().loads()[3], 8);
        assert_eq!(p.config().total_balls(), 8);
        p.step();
        assert_eq!(p.config().total_balls(), 8);
    }

    #[test]
    fn token_process_initial_state() {
        let p = GraphTokenProcess::one_per_node(ring(8), 6);
        assert_eq!(p.covered_tokens(), 0);
        assert_eq!(p.max_load(), 1);
        assert!(!p.all_covered());
        assert_eq!(p.config().total_balls(), 8);
    }

    #[test]
    fn token_process_covers_small_clique() {
        let mut p = GraphTokenProcess::one_per_node(complete_with_loops(16), 7);
        let cover = p.run_to_cover(100_000).expect("should cover");
        assert!(cover > 0);
        assert!(p.all_covered());
        assert_eq!(Engine::covered(&p), Some(true));
    }

    #[test]
    fn token_process_covers_ring() {
        let mut p = GraphTokenProcess::one_per_node(ring(12), 8);
        let cover = p.run_to_cover(10_000_000).expect("should cover ring");
        // Ring cover for a single walk is Θ(n²); parallel walks with
        // congestion should still finish within the cap.
        assert!(cover >= 11);
    }

    #[test]
    fn token_cover_cap_returns_none() {
        let mut p = GraphTokenProcess::one_per_node(ring(64), 9);
        assert_eq!(p.run_to_cover(5), None);
    }

    #[test]
    fn covered_tokens_monotone() {
        let mut p = GraphTokenProcess::one_per_node(complete_with_loops(12), 10);
        let mut prev = 0;
        for _ in 0..2000 {
            p.step();
            assert!(p.covered_tokens() >= prev);
            prev = p.covered_tokens();
            if p.all_covered() {
                break;
            }
        }
        assert!(p.all_covered());
    }

    #[test]
    fn fifo_strategy_matches_historical_process() {
        // `with_strategy(Fifo)` must not consume selection randomness: its
        // trajectory must coincide with the pre-strategy FIFO-only walker.
        // The reference below re-implements that historical step loop
        // directly against the graph (pop_front + one neighbor draw per
        // non-empty node, simultaneous arrivals) so a future change that
        // makes the FIFO path consume extra RNG draws fails this test.
        let g = torus(4, 4);
        let n = g.n();
        let mut reference_rng = Xoshiro256pp::seed_from(12);
        let mut queues: Vec<std::collections::VecDeque<u32>> =
            (0..n).map(|v| [v as u32].into_iter().collect()).collect();
        let mut p = GraphTokenProcess::with_strategy(g.clone(), QueueStrategy::Fifo, 12);
        for _ in 0..200 {
            let mut movers: Vec<(u32, usize)> = Vec::new();
            for (u, queue) in queues.iter_mut().enumerate() {
                if let Some(token) = queue.pop_front() {
                    movers.push((token, g.random_neighbor(u, &mut reference_rng)));
                }
            }
            for &(token, v) in &movers {
                queues[v].push_back(token);
            }
            p.step();
            let reference_loads: Vec<u32> = queues.iter().map(|q| q.len() as u32).collect();
            assert_eq!(p.config().loads(), &reference_loads[..]);
            for (u, q) in queues.iter().enumerate() {
                assert_eq!(
                    p.queue_tokens(u),
                    q.iter().copied().collect::<Vec<_>>(),
                    "queue order diverged at node {u}"
                );
            }
        }
    }

    #[test]
    fn all_strategies_cover_the_ring() {
        for strategy in QueueStrategy::ALL {
            let mut p = GraphTokenProcess::with_strategy(ring(8), strategy, 13);
            assert!(
                p.run_to_cover(10_000_000).is_some(),
                "{} failed to cover",
                strategy.label()
            );
        }
    }

    #[test]
    fn token_fault_reassigns_and_marks_visited() {
        let mut p = GraphTokenProcess::one_per_node(ring(8), 14);
        let placement: Vec<usize> = (0..8).map(|i| (i + 2) % 8).collect();
        p.adversarial_reassign(&placement);
        assert_eq!(p.config().total_balls(), 8);
        for (token, &node) in placement.iter().enumerate() {
            assert!(p.visited_contains(token, node));
        }
        p.step();
        assert_eq!(p.config().total_balls(), 8);
    }

    impl GraphTokenProcess {
        /// Test helper: whether `token` has visited `node`.
        fn visited_contains(&self, token: usize, node: usize) -> bool {
            self.visited[token][node / 64] & (1 << (node % 64)) != 0
        }

        /// Test helper: the tokens queued at `node`, front first.
        fn queue_tokens(&self, node: usize) -> Vec<u32> {
            self.queues[node].iter().copied().collect()
        }
    }
}
