//! Constrained parallel token walks on arbitrary graphs — the
//! generalization of the repeated balls-into-bins process that Section 5
//! poses as an open question.
//!
//! Each node holds a queue of tokens. Per round, every non-empty node
//! forwards exactly one token to a neighbor chosen uniformly at random
//! (on [`crate::graph::complete_with_loops`] this is *exactly* the paper's
//! process). [`Graph`] serves that draw through the core [`Neighbors`]
//! trait, and the core engines walk on it: the load engine under
//! [`Rule::Neighbors`] carries loads only, and
//! [`BallProcess::with_graph`] carries token identities under any queue
//! strategy. `rbb_traversal::Traversal` wraps the latter to track every
//! token's visited set, for cover-time measurement on general topologies.
//!
//! ```
//! use rbb_core::prelude::*;
//! use rbb_traversal::Traversal;
//!
//! let start = Config::one_per_bin(12);
//! let walk = BallProcess::new(start, QueueStrategy::Fifo, Xoshiro256pp::seed_from(8))
//!     .with_graph(std::sync::Arc::new(rbb_graphs::ring(12)));
//! let cover = Traversal::from_process(walk).run_to_cover(10_000_000);
//! assert!(cover.expect("covers the ring") >= 11);
//! ```
//!
//! [`Rule::Neighbors`]: rbb_core::load::Rule::Neighbors
//! [`BallProcess::with_graph`]: rbb_core::ball_process::BallProcess::with_graph

use rbb_core::load::Neighbors;
use rbb_core::rng::Xoshiro256pp;

use crate::graph::Graph;

/// The walks' neighbor draw: [`Graph::random_neighbor`].
impl Neighbors for Graph {
    fn random_neighbor(&self, v: usize, rng: &mut Xoshiro256pp) -> usize {
        Graph::random_neighbor(self, v, rng)
    }

    fn n(&self) -> usize {
        Graph::n(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{complete_with_loops, hypercube, ring, torus};
    use rbb_core::ball_process::BallProcess;
    use rbb_core::config::Config;
    use rbb_core::engine::{Engine, Faults};
    use rbb_core::load::Rule;
    use rbb_core::metrics::{EmptyBinsTracker, MaxLoadTracker};
    use rbb_core::process::LoadProcess;
    use rbb_core::strategy::QueueStrategy;
    use rbb_traversal::Traversal;
    use std::sync::Arc;

    /// The load-only walk on `graph`, one token per node.
    fn walk(graph: Graph, seed: u64) -> LoadProcess {
        LoadProcess::legitimate_start(graph.n(), seed).with_rule(Rule::Neighbors(Arc::new(graph)))
    }

    /// The token walk on `graph`, token `i` starting at node `i`, with
    /// visited sets.
    fn tokens(graph: Graph, strategy: QueueStrategy, seed: u64) -> Traversal {
        let start = Config::one_per_bin(graph.n());
        let walk = BallProcess::new(start, strategy, Xoshiro256pp::seed_from(seed))
            .with_graph(Arc::new(graph));
        Traversal::from_process(walk)
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
        let p = tokens(ring(8), QueueStrategy::Fifo, 6);
        assert_eq!(p.covered_tokens(), 0);
        assert_eq!(Engine::max_load(&p), 1);
        assert!(!p.all_covered());
        assert_eq!(Engine::config(&p).total_balls(), 8);
    }

    #[test]
    fn token_process_covers_small_clique() {
        let mut p = tokens(complete_with_loops(16), QueueStrategy::Fifo, 7);
        let cover = p.run_to_cover(100_000).expect("should cover");
        assert!(cover > 0);
        assert!(p.all_covered());
        assert_eq!(Engine::covered(&p), Some(true));
    }

    #[test]
    fn token_process_covers_ring() {
        let mut p = tokens(ring(12), QueueStrategy::Fifo, 8);
        let cover = p.run_to_cover(10_000_000).expect("should cover ring");
        // Ring cover for a single walk is Θ(n²); parallel walks with
        // congestion should still finish within the cap.
        assert!(cover >= 11);
    }

    #[test]
    fn token_cover_cap_returns_none() {
        let mut p = tokens(ring(64), QueueStrategy::Fifo, 9);
        assert_eq!(p.run_to_cover(5), None);
    }

    #[test]
    fn covered_tokens_monotone() {
        let mut p = tokens(complete_with_loops(12), QueueStrategy::Fifo, 10);
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
    fn all_strategies_cover_the_ring() {
        for strategy in QueueStrategy::ALL {
            let mut p = tokens(ring(8), strategy, 13);
            assert!(
                p.run_to_cover(10_000_000).is_some(),
                "{} failed to cover",
                strategy.label()
            );
        }
    }

    #[test]
    fn token_fault_reassigns_and_marks_visited() {
        let mut p = tokens(ring(8), QueueStrategy::Fifo, 14);
        let placement: Vec<usize> = (0..8).map(|i| (i + 2) % 8).collect();
        p.faults()
            .expect("token walks take faults")
            .apply_fault(&placement);
        assert_eq!(Engine::config(&p).total_balls(), 8);
        for (token, &node) in placement.iter().enumerate() {
            assert!(p.visited(token).contains(node));
            assert!(p.process().queue(node).contains(&(token as u32)));
        }
        p.step();
        assert_eq!(Engine::config(&p).total_balls(), 8);
    }
}
