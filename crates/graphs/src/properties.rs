//! Structural graph properties: distances, diameter, degree statistics and
//! a spectral-gap estimate for the walk's transition matrix.
//!
//! The prior work \[12\] ties the constrained-walk behavior on regular graphs
//! to spectral expansion; these helpers let the topology experiments report
//! the structural context (diameter, gap) next to the congestion numbers.

use std::collections::VecDeque;

use crate::graph::Graph;

/// BFS distances from `source` (`usize::MAX` for unreachable vertices).
pub fn bfs_distances(graph: &Graph, source: usize) -> Vec<usize> {
    let n = graph.n();
    assert!(source < n);
    let mut dist = vec![usize::MAX; n];
    dist[source] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        for &w in graph.neighbors(v) {
            let w = w as usize;
            if dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Eccentricity of a vertex (longest shortest path from it); `None` if the
/// graph is disconnected.
pub fn eccentricity(graph: &Graph, v: usize) -> Option<usize> {
    let d = bfs_distances(graph, v);
    d.iter().copied().max().filter(|&m| m != usize::MAX)
}

/// Exact diameter via all-sources BFS (`O(n·(n+m))`; fine at experiment
/// sizes). `None` if disconnected.
pub fn diameter(graph: &Graph) -> Option<usize> {
    (0..graph.n())
        .map(|v| eccentricity(graph, v))
        .try_fold(0usize, |acc, e| e.map(|e| acc.max(e)))
}

/// Degree summary: (min, max, mean).
pub fn degree_stats(graph: &Graph) -> (usize, usize, f64) {
    let degrees: Vec<usize> = (0..graph.n()).map(|v| graph.degree(v)).collect();
    let min = *degrees.iter().min().expect("non-empty graph");
    let max = *degrees.iter().max().expect("non-empty graph");
    let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
    (min, max, mean)
}

/// Estimates the second-largest eigenvalue modulus (SLEM) of the *lazy*
/// random-walk matrix `(I + P)/2` by power iteration on the component
/// orthogonal to the stationary distribution. The spectral gap `1 − λ₂`
/// controls the single-walk mixing time.
///
/// Works on connected graphs; the laziness removes periodicity (e.g. on
/// bipartite graphs like even rings or hypercubes, plain `P` has an
/// eigenvalue −1 that would dominate).
fn lazy_walk_slem(graph: &Graph, iterations: usize) -> f64 {
    let n = graph.n();
    assert!(n >= 2);
    // Stationary distribution of the (lazy) walk: proportional to degree.
    let total_degree: f64 = (0..n).map(|v| graph.degree(v) as f64).sum();
    let pi: Vec<f64> = (0..n)
        .map(|v| graph.degree(v) as f64 / total_degree)
        .collect();

    // Deterministic pseudo-random start vector, orthogonalized against π in
    // the π-weighted inner product (left eigenvector convention on
    // distributions row-vector × P).
    let mut x: Vec<f64> = (0..n)
        .map(|v| (v as f64 * 0.7548776662466927).fract() - 0.5)
        .collect();

    let mut lambda = 0.0;
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        // Project out the stationary component: x ← x − (Σx_v)·π.
        let mass: f64 = x.iter().sum();
        for v in 0..n {
            x[v] -= mass * pi[v];
        }
        // One application of the lazy kernel to the distribution x:
        // next[w] = x[w]/2 + Σ_{v: w∈N(v)} x[v] / (2 deg v).
        next.iter_mut().for_each(|e| *e = 0.0);
        for v in 0..n {
            let dv = graph.degree(v) as f64;
            let share = x[v] / (2.0 * dv);
            for &w in graph.neighbors(v) {
                next[w as usize] += share;
            }
            next[v] += x[v] / 2.0;
        }
        let norm_prev: f64 = x.iter().map(|a| a * a).sum::<f64>().sqrt();
        let norm_next: f64 = next.iter().map(|a| a * a).sum::<f64>().sqrt();
        if norm_prev == 0.0 || norm_next == 0.0 {
            return 0.0;
        }
        lambda = norm_next / norm_prev;
        let scale = 1.0 / norm_next;
        for (xv, nv) in x.iter_mut().zip(&next) {
            *xv = nv * scale;
        }
    }
    lambda.min(1.0)
}

/// The spectral gap `1 − λ₂` of the lazy walk.
pub fn spectral_gap(graph: &Graph, iterations: usize) -> f64 {
    1.0 - lazy_walk_slem(graph, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{complete, complete_with_loops, hypercube, path, ring, star, torus};

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn diameter_of_standard_graphs() {
        assert_eq!(diameter(&complete(8)), Some(1));
        assert_eq!(diameter(&ring(8)), Some(4));
        assert_eq!(diameter(&ring(9)), Some(4));
        assert_eq!(diameter(&path(6)), Some(5));
        assert_eq!(diameter(&star(10)), Some(2));
        assert_eq!(diameter(&hypercube(5)), Some(5));
        assert_eq!(diameter(&torus(4, 4)), Some(4));
    }

    #[test]
    fn disconnected_diameter_is_none() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(diameter(&g), None);
        assert_eq!(eccentricity(&g, 0), None);
    }

    #[test]
    fn degree_stats_of_star() {
        let (min, max, mean) = degree_stats(&star(5));
        assert_eq!(min, 1);
        assert_eq!(max, 4);
        assert!((mean - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_has_large_gap() {
        // Lazy walk on K_n: λ₂ = 1/2 − 1/(2(n−1)) ⇒ gap slightly above 1/2.
        let gap = spectral_gap(&complete(32), 300);
        assert!(gap > 0.45 && gap < 0.65, "gap {gap}");
    }

    #[test]
    fn ring_has_tiny_gap() {
        let gap_ring = spectral_gap(&ring(64), 2000);
        let gap_clique = spectral_gap(&complete(64), 300);
        assert!(
            gap_ring < gap_clique / 5.0,
            "ring {gap_ring} vs clique {gap_clique}"
        );
        // Lazy ring gap ≈ (1 − cos(2π/n))/2 ≈ 2.4e-3 for n = 64.
        assert!(gap_ring > 1e-4 && gap_ring < 0.02, "ring gap {gap_ring}");
    }

    #[test]
    fn hypercube_gap_is_one_over_d() {
        // Lazy hypercube: gap = 1/d.
        let d = 6u32;
        let gap = spectral_gap(&hypercube(d), 1500);
        assert!((gap - 1.0 / d as f64).abs() < 0.03, "gap {gap}");
    }

    #[test]
    fn clique_with_loops_mixes_fastest() {
        let gap = spectral_gap(&complete_with_loops(32), 300);
        assert!(gap > 0.45, "gap {gap}");
    }
}
