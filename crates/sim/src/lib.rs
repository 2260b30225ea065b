//! # rbb-sim — the experiment harness
//!
//! Deterministic seeding ([`seed::SeedTree`]), rayon-parallel trial fan-out
//! ([`runner`]) including the whole-grid [`runner::sweep_par`], aligned text
//! tables ([`table`]), JSON/CSV artifact output ([`output`]) — and the
//! declarative scenario layer: [`spec::ScenarioSpec`] describes a complete
//! simulation (n, balls, start, arrival model, queue strategy, topology,
//! adversary schedule, horizon, stop condition) as serializable data, and
//! [`scenario::Scenario`] runs it through the unified
//! [`Engine`](rbb_core::engine::Engine) trait; [`ensemble::EnsembleSpec`]
//! replicates one scenario across many seeds and folds the trials into
//! mergeable streaming statistics (see the [`ensemble`] module for the
//! determinism contract and report schema), and its [`sweep`] block runs
//! one ensemble per cell into one table, an experiment as data. Every
//! experiment in `rbb-experiments` is a pure function of its
//! [`seed::SeedTree`] scope, so tables regenerate bit-identically
//! regardless of thread count; spec-built
//! engines reproduce the hand-constructed trajectories bit for bit (see the
//! determinism notes in [`spec`]).
//!
//! ## Spec quickstart
//!
//! ```
//! use rbb_sim::{ScenarioSpec, StrategySpec, StopSpec};
//!
//! // LIFO queues + cover-time stop, straight from data — no new code.
//! let spec = ScenarioSpec::builder(64)
//!     .strategy(StrategySpec::Lifo)
//!     .stop(StopSpec::Covered)
//!     .horizon_rounds(10_000_000)
//!     .seed(7)
//!     .build();
//! let outcome = spec.scenario().unwrap().run();
//! assert!(outcome.stop_round.is_some(), "covers w.h.p.");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ensemble;
pub mod output;
pub mod runner;
pub mod scenario;
pub mod seed;
pub mod spec;
pub mod sweep;
pub mod table;

pub use ensemble::{
    EnsembleReport, EnsembleSpec, MetricKind, MetricReport, MetricSpec, ReportSpec,
};
pub use output::{OutputSink, RESULTS_DIR};
pub use runner::{run_trials_seeded, sweep_par, sweep_par_seeded};
pub use scenario::{build_engine, Scenario, ScenarioOutcome};
pub use seed::{SeedTree, DEFAULT_MASTER_SEED};
pub use spec::{
    AdversaryKindSpec, AdversarySpec, ArrivalSpec, CapacitiesSpec, EngineSpec, HorizonSpec,
    ScenarioSpec, ScenarioSpecBuilder, ScheduleSpec, SpecError, StartSpec, StopSpec, StrategySpec,
    TopologySpec, WeightsSpec, SPARSE_AUTO_RATIO,
};
pub use table::{fmt_f64, Table};
