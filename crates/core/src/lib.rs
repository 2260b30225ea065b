//! # rbb-core — Self-stabilizing repeated balls-into-bins
//!
//! Faithful implementation of the process studied in
//!
//! > L. Becchetti, A. Clementi, E. Natale, F. Pasquale, G. Posta.
//! > *Self-stabilizing repeated balls-into-bins.* SPAA 2015;
//! > Distributed Computing 32:59–68, 2019.
//!
//! `n` balls start in `n` bins in an arbitrary configuration. Every round,
//! each non-empty bin releases one ball (FIFO/LIFO/random — the load law is
//! oblivious to the choice) and the ball is re-assigned to a bin chosen
//! uniformly at random. The paper proves the process is **self-stabilizing**:
//! from any configuration it reaches a configuration with maximum load
//! `O(log n)` within `O(n)` rounds w.h.p., and then keeps the maximum load
//! `O(log n)` over any polynomially long window w.h.p.
//!
//! ## Crate map
//!
//! * [`load`] — the one load engine (the paper's `Q(t)` dynamics) over a
//!   pluggable load storage, and the scalar reference round.
//! * [`process`] — dense storage: the load-only engine
//!   [`LoadProcess`](process::LoadProcess).
//! * [`sparse`] — sparse occupancy storage for the `m ≪ n` regime:
//!   bit-identical trajectories at `O(#non-empty bins)` per round and
//!   `O(m)` memory.
//! * [`sharded`] — sharded storage for the large-`n` dense regime: bins
//!   partitioned into fixed per-shard columns with private RNG streams,
//!   bit-identical for a fixed shard count at any thread count.
//! * [`ball_process`] — the ball-identity engine (per-ball progress, delays,
//!   per-move hooks for cover-time tracking).
//! * [`tetris`] — the Tetris majorant process of Section 3 and its
//!   batched/"leaky bins" generalization.
//! * [`coupling`] — the Lemma-3 joint construction with per-round domination
//!   checking.
//! * [`markov`] — the Lemma-5 drift chain `Z_t` and its Chernoff tail.
//! * [`config`] — load configurations, legitimacy, initial-state builders.
//! * [`det_hash`] — the deterministic hasher every result-affecting map
//!   must use (enforced by `rbb-lint`).
//! * [`strategy`] — queue-selection strategies.
//! * [`metrics`] — streaming round observers (max load, empty bins,
//!   legitimacy, trajectories).
//! * [`adversary`] — the Section-4.1 fault model.
//! * [`arrivals`] / [`phases`] / [`mixing`] — analysis instrumentation:
//!   per-bin arrival series (the Appendix-B variables at scale), busy-period
//!   decomposition (the Lemma-6 phase structure), and exact/empirical
//!   mixing measurements.
//! * [`snapshot`] — serializable bit-exact engine snapshots (loads + RNG
//!   stream states + round counter) with validated restore, for the three
//!   load engines.
//! * [`weights`] — weighted balls and capacity-constrained bins: a metric
//!   overlay over the weight-oblivious dynamics, bit-identical to the unit
//!   process when all weights are 1.
//! * [`exact`] — exact finite-chain analysis for small `n` (ground truth for
//!   the engines) and the Appendix-B counterexample.
//! * [`rng`] / [`sampling`] — deterministic PRNG and exact samplers.
//!
//! ## Quick example
//!
//! ```
//! use rbb_core::prelude::*;
//!
//! // Start from the worst configuration: all 128 balls in one bin.
//! let config = Config::all_in_one(128, 128);
//! let mut process = LoadProcess::new(config, Xoshiro256pp::seed_from(7));
//! let threshold = LegitimacyThreshold::default();
//!
//! // Theorem 1(b): a legitimate configuration is reached within O(n) rounds.
//! let round = process
//!     .run_until(10 * 128, |c| threshold.is_legitimate(c))
//!     .expect("converges w.h.p.");
//! assert!(round <= 3 * 128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod arrivals;
pub mod ball_process;
pub mod config;
pub mod coupling;
pub mod det_hash;
pub mod engine;
pub mod exact;
pub mod load;
pub mod markov;
pub mod metrics;
pub mod mixing;
pub mod phases;
pub mod process;
pub mod rng;
pub mod sampling;
pub mod sharded;
pub mod snapshot;
pub mod sparse;
pub mod strategy;
pub mod tetris;
pub mod weights;

/// The most commonly used items, re-exported.
pub mod prelude {
    pub use crate::adversary::{Adversary, FaultSchedule};
    pub use crate::arrivals::ArrivalTracker;
    pub use crate::ball_process::{BallId, BallProcess, BallStats};
    pub use crate::config::{Config, LegitimacyThreshold};
    pub use crate::coupling::{CoupledRun, CouplingReport};
    pub use crate::det_hash::{DetHashMap, DetHashSet};
    pub use crate::engine::{Engine, Faults, Incremental};
    pub use crate::markov::ZChain;
    pub use crate::metrics::{
        CapacityTracker, EmptyBinsTracker, LegitimacyTracker, MaxLoadTracker, NullObserver,
        ObserverStack, RoundObserver, TrajectoryRecorder, WeightedLoadTracker,
    };
    pub use crate::phases::PhaseTracker;
    pub use crate::process::LoadProcess;
    pub use crate::rng::{SplitMix64, Xoshiro256pp};
    pub use crate::sharded::ShardedLoadProcess;
    pub use crate::snapshot::{SnapshotError, SnapshotState};
    pub use crate::sparse::SparseLoadProcess;
    pub use crate::strategy::QueueStrategy;
    pub use crate::tetris::{BatchedTetris, Tetris};
    pub use crate::weights::{Capacities, Weights};
}
