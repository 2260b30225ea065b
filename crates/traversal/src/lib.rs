//! # rbb-traversal — multi-token traversal on the clique
//!
//! The application the paper motivates (Section 1.1, Section 4): `n` tokens
//! (resources/tasks) each performing a delayed random walk under the
//! one-release-per-node-per-round constraint must visit all `n` nodes in
//! mutual exclusion. Corollary 1 bounds the parallel cover time by
//! `O(n log² n)` w.h.p.; §4.1 shows resilience to adversarial reassignment
//! faults at frequency `≤ 1/(γn)`, `γ ≥ 6`.
//!
//! * [`traversal`] — the traversal engine with per-token visited bitsets and
//!   the single-token baseline; wrapped around a ball engine on a graph it
//!   measures the Section 5 token walk's cover time too.
//! * [`progress`] — the `Ω(t/log n)` per-token progress accounting.
//! * [`faults`] — fault-injected cover-time runs.
//! * [`bitset`] — the word-packed visited-set implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod delays;
pub mod faults;
pub mod progress;
pub mod traversal;

pub use bitset::FixedBitSet;
pub use delays::{record_delays, record_delays_exact, DelayRecorder};
pub use faults::{faulty_cover_time, FaultyCoverResult};
pub use progress::ProgressReport;
pub use traversal::{single_token_cover_time, Traversal};
