//! # rbb-baselines — every comparator the paper cites
//!
//! * [`oneshot`](mod@oneshot) — classical one-shot balls-into-bins
//!   (`Θ(log n/log log n)` max load; the Section-5 tightness question).
//! * [`dchoice`] — the repeated `d`-choice process of \[36\] (`d = 1` is the
//!   paper's process; `d = 2` shows the power of two choices): the core
//!   load engine under `Rule::BestOf(d)`, pinned here by its tests.
//! * [`independent`] — unconstrained parallel random walks (no
//!   one-release-per-round constraint): isolates the queueing correlation.
//! * [`sqrt_bound`] — the prior `O(√t)` bound of \[12\] as an explicit curve.
//! * [`binpack`] — greedy first-fit-decreasing packing with a
//!   rebalancing-cost-under-churn metric: the centralized comparator for
//!   the weighted regime (E27).
//! * [`jackson`] — a closed Jackson network on the clique (\[30\]): the
//!   sequential, product-form cousin from classical queueing theory.
//! * [`sequential`] — the sequentialized (random firing order) update of
//!   the paper's process: the discrete bridge between the two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binpack;
pub mod dchoice;
pub mod independent;
pub mod jackson;
pub mod oneshot;
pub mod sequential;
pub mod sqrt_bound;

pub use binpack::{first_fit_decreasing, rebalancing_cost_under_churn, ChurnReport, Packing};
pub use independent::IndependentWalks;
pub use jackson::JacksonNetwork;
pub use oneshot::{oneshot, oneshot_max_load, oneshot_max_load_distribution, predicted_max_load};
pub use sequential::SequentialProcess;
pub use sqrt_bound::SqrtBound;
