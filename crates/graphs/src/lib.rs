//! # rbb-graphs — graph substrate for the open-question experiments
//!
//! The repeated balls-into-bins process is the complete-graph case of
//! *constrained parallel token walks*: each node forwards at most one token
//! per round to a uniformly random neighbor. Section 5 of the paper asks how
//! the maximum load behaves on general (regular) graphs; this crate provides
//! the topologies (ring, torus, hypercube, random regular, Erdős–Rényi,
//! clique with/without self-loops), single random walks with cover/hitting
//! times, and the neighbor draw of the constrained parallel walks: the core
//! load engine walks on a graph under `Rule::Neighbors`, and the core
//! ball-identity engine under `BallProcess::with_graph`, which
//! `rbb_traversal::Traversal` wraps for visited sets (see [`parallel`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod parallel;
pub mod properties;
pub mod walk;

pub use graph::{
    complete, complete_with_loops, erdos_renyi, hypercube, path, random_regular, ring, star, torus,
    Graph,
};
pub use properties::{bfs_distances, degree_stats, diameter, eccentricity, spectral_gap};
pub use walk::{cover_time, hitting_time, RandomWalk};
