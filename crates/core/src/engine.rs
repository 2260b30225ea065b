//! The unified simulation surface: one trait in front of every engine.
//!
//! Every process in this workspace advances in synchronous rounds over a
//! load [`Config`]uration. Five types implement [`Engine`]: the load engine
//! ([`LoadEngine`], behind [`LoadProcess`] and its sparse and sharded
//! siblings, which also runs the d-choice process and the load-only graph
//! walk under its destination [`Rule`]), [`BallProcess`] (ball identities,
//! sent to a uniform bin or, on a graph, to a uniform neighbor),
//! [`Tetris`], [`BatchedTetris`], and, in the traversal crate, the
//! traversal, which adds visited sets to a [`BallProcess`] on the clique or
//! on any graph. [`Engine`] captures exactly that contract, so drivers (the
//! CLI, the `rbb_sim` scenario runner, the benchmark harness) can be
//! written once against `dyn Engine` instead of once per process, and the
//! historical per-process run families (`run` / `run_silent` /
//! `run_batched` / `run_rounds_batched` / `run_until`) collapse into the
//! provided methods here.
//!
//! # Capabilities
//!
//! What only some engines can do is reached through an accessor that
//! answers `None` for the others, so no provided method panics:
//! [`Engine::incremental`] hands out the [`Incremental`] allocation
//! surface, and [`Engine::faults`] the §4.1 adversary's [`Faults`] move.
//!
//! # One round path
//!
//! [`Engine::step`] is an engine's round, and each engine has exactly one
//! round kernel. The load engines have one per storage plus the rule round
//! (see [`crate::load`]), pinned bit-identical to the scalar
//! [`reference_round`](crate::load::reference_round); [`BallProcess`]'s one
//! kernel is pinned to a scalar reference in its unit tests.
//! [`Engine::step_batched`] is a provided method forwarding to `step`, and
//! no engine overrides it; the provided run family and the drivers still
//! call it.
//!
//! [`LoadEngine`]: crate::load::LoadEngine
//! [`Rule`]: crate::load::Rule
//! [`LoadProcess`]: crate::process::LoadProcess
//! [`BallProcess`]: crate::ball_process::BallProcess
//! [`Tetris`]: crate::tetris::Tetris
//! [`BatchedTetris`]: crate::tetris::BatchedTetris

use crate::config::Config;
use crate::metrics::RoundObserver;
use crate::snapshot::SnapshotState;
use crate::weights::Capacities;

/// A round-synchronous simulation engine over a load configuration.
///
/// The required surface is object-safe (the `rbb_sim` scenario factory hands
/// out `Box<dyn Engine>`); the generic run family is provided on top of it
/// for concrete engines.
///
/// ```
/// use rbb_core::prelude::*;
///
/// let mut p = LoadProcess::legitimate_start(64, 7);
/// let mut tracker = MaxLoadTracker::new();
/// p.run(1_000, &mut tracker); // observer after every round
/// assert_eq!(p.round(), 1_000);
/// assert!(tracker.window_max() >= 1);
/// ```
pub trait Engine {
    /// Advances one round; returns the number of balls that moved this
    /// round.
    fn step(&mut self) -> usize;

    /// Advances one round; forwards to [`step`](Engine::step), and no
    /// engine overrides it.
    fn step_batched(&mut self) -> usize {
        self.step()
    }

    /// Current round index (0 before any step).
    fn round(&self) -> u64;

    /// Snapshot of the current load configuration — the uniform metric
    /// surface observers and stop conditions read.
    ///
    /// For engines whose canonical state is a dense load vector this is
    /// free; the sparse engine materializes (and caches) an `O(n)` snapshot
    /// on demand. Per-round drivers should therefore prefer the cheap
    /// accessors below ([`max_load`], [`empty_bins`], [`nonempty_bins`],
    /// [`bin_load`]) — [`crate::metrics::ObserverStack::observe_engine`] and
    /// the `rbb_sim` scenario loop only touch those, so a sparse round never
    /// pays `O(n)`.
    ///
    /// [`max_load`]: Engine::max_load
    /// [`empty_bins`]: Engine::empty_bins
    /// [`nonempty_bins`]: Engine::nonempty_bins
    /// [`bin_load`]: Engine::bin_load
    fn config(&self) -> &Config;

    /// Number of bins (nodes).
    fn n(&self) -> usize {
        self.config().n()
    }

    /// Current total ball (token) count.
    fn balls(&self) -> u64 {
        self.config().total_balls()
    }

    /// Maximum load `M(q)` of the current configuration. Default reads
    /// [`config`](Engine::config); sparse engines override it with an
    /// `O(#occupied)` scan.
    fn max_load(&self) -> u32 {
        self.config().max_load()
    }

    /// Number of empty bins. Default reads [`config`](Engine::config);
    /// sparse engines answer in `O(1)` (`n − #occupied`).
    fn empty_bins(&self) -> usize {
        self.config().empty_bins()
    }

    /// Number of non-empty bins (`|W|` — exactly next round's movers).
    fn nonempty_bins(&self) -> usize {
        self.config().nonempty_bins()
    }

    /// Load of one bin. Default indexes [`config`](Engine::config); sparse
    /// engines answer from their occupancy map in `O(1)`.
    fn bin_load(&self, bin: usize) -> u32 {
        self.config().loads()[bin]
    }

    /// Indices of the currently non-empty bins, in any order, for engines
    /// that list them without materializing a dense configuration (the
    /// load engines). `None` means "derive it from `config()`" — the
    /// `all-emptied` stop condition uses this to initialize its worklist.
    fn nonempty_bins_list(&self) -> Option<Vec<u32>> {
        None
    }

    /// The §4.1 adversary's move, for engines that can replay an arbitrary
    /// placement of their balls. `None` for Tetris, whose ball count is not
    /// conserved, and for the weighted load engines, whose weight overlay
    /// cannot tell which ball a placement moves; the scenario layer refuses
    /// an adversary against them.
    fn faults(&mut self) -> Option<&mut dyn Faults> {
        None
    }

    /// The incremental allocation surface, for engines that support it —
    /// the load engines (dense, sparse, sharded). `None` for engines whose
    /// state is not a plain load vector (ball identities, Tetris
    /// non-conservation); `rbb-serve` rejects allocation requests against
    /// them.
    fn incremental(&mut self) -> Option<&mut dyn Incremental> {
        None
    }

    /// Whether the engine carries non-unit ball weights. `false` for every
    /// engine outside the weighted configurations of the load engines; when
    /// `false`, all the `weighted_*` accessors below degenerate to their
    /// unit counterparts.
    fn weighted(&self) -> bool {
        false
    }

    /// Total weight in the system. Equals [`balls`](Engine::balls) for unit
    /// engines.
    fn total_weight(&self) -> u64 {
        self.balls()
    }

    /// Maximum **weighted** load over all bins. Equals
    /// [`max_load`](Engine::max_load) for unit engines.
    fn weighted_max_load(&self) -> u64 {
        u64::from(self.max_load())
    }

    /// Weighted load of one bin. Equals [`bin_load`](Engine::bin_load) for
    /// unit engines.
    fn weighted_bin_load(&self, bin: usize) -> u64 {
        u64::from(self.bin_load(bin))
    }

    /// The per-bin capacity bounds the engine observes —
    /// [`Capacities::Unbounded`] unless configured otherwise (only the load
    /// engines accept capacities).
    fn capacities(&self) -> &Capacities {
        &Capacities::Unbounded
    }

    /// Number of bins whose weighted load currently exceeds their capacity;
    /// 0 for engines without capacities (only the load engines observe
    /// them).
    fn capacity_violations(&self) -> u64 {
        0
    }

    /// The engine's bit-exact resumable state (loads + RNG stream states +
    /// round counter), for engines that support serialized snapshots — see
    /// [`crate::snapshot`]. `None` for engines without snapshot support.
    fn snapshot(&self) -> Option<SnapshotState> {
        None
    }

    /// Coverage progress for engines that track a visited-set goal
    /// (traversal / token walks): `Some(true)` once every token has visited
    /// every node. `None` for engines without a coverage notion.
    fn covered(&self) -> Option<bool> {
        None
    }

    /// Minimum per-ball walk progress, for engines that carry ball
    /// identities (`Ω(t / log n)` under FIFO). `None` for load-only engines.
    fn min_progress(&self) -> Option<u64> {
        None
    }

    /// Runs `rounds` rounds, invoking `observer` after each round.
    fn run(&mut self, rounds: u64, mut observer: impl RoundObserver)
    where
        Self: Sized,
    {
        for _ in 0..rounds {
            self.step_batched();
            observer.observe(self.round(), self.config());
        }
    }

    /// Runs `rounds` rounds without observation — the
    /// throughput-critical entry point.
    fn run_silent(&mut self, rounds: u64)
    where
        Self: Sized,
    {
        for _ in 0..rounds {
            self.step_batched();
        }
    }

    /// Runs until `pred` holds for the current configuration or `max_rounds`
    /// elapse; returns the round at which the predicate first held (checked
    /// before the first step, so an immediately-true predicate returns the
    /// current round).
    fn run_until(&mut self, max_rounds: u64, mut pred: impl FnMut(&Config) -> bool) -> Option<u64>
    where
        Self: Sized,
    {
        if pred(self.config()) {
            return Some(self.round());
        }
        for _ in 0..max_rounds {
            self.step_batched();
            if pred(self.config()) {
                return Some(self.round());
            }
        }
        None
    }
}

/// The §4.1 adversary's move on an engine that conserves its balls.
/// Reached through [`Engine::faults`].
pub trait Faults {
    /// Reassigns every ball, `placement[ball] = bin`. Panics if the
    /// placement does not match the engine's ball count or bin range.
    fn apply_fault(&mut self, placement: &[usize]);
}

/// Incremental allocation between rounds: new balls placed by the engine's
/// own uniform draw, and departures from a named bin. Reached through
/// [`Engine::incremental`].
pub trait Incremental {
    /// Places one **new** ball into a bin drawn uniformly from the engine's
    /// own RNG stream (the sharded engine draws from shard 0's stream);
    /// returns the bin. Panics if the ball count would overflow the `u32`
    /// load bound.
    fn place(&mut self) -> usize {
        self.place_weighted(1)
    }

    /// Places one new ball of weight `weight` — the same RNG draw and the
    /// same bin as [`place`](Incremental::place); the weight only feeds
    /// the weight overlay. Panics on a weight above 1 for a unit-weight
    /// engine, which has nowhere to record it.
    fn place_weighted(&mut self, weight: u32) -> usize;

    /// Removes one ball from `bin`; returns `false` (a no-op) if the bin is
    /// empty or out of range.
    fn depart(&mut self, bin: usize) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ball_process::BallProcess;
    use crate::metrics::{MaxLoadTracker, NullObserver};
    use crate::process::LoadProcess;
    use crate::rng::Xoshiro256pp;
    use crate::strategy::QueueStrategy;
    use crate::tetris::{BatchedTetris, Tetris};

    /// The trait surface works through a trait object (the scenario factory
    /// depends on this).
    #[test]
    fn engines_are_object_safe() {
        let engines: Vec<Box<dyn Engine>> = vec![
            Box::new(LoadProcess::legitimate_start(16, 1)),
            Box::new(BallProcess::legitimate_start(16, 1)),
            Box::new(Tetris::new(
                Config::one_per_bin(16),
                Xoshiro256pp::seed_from(1),
            )),
            Box::new(BatchedTetris::new(
                Config::one_per_bin(16),
                0.75,
                Xoshiro256pp::seed_from(1),
            )),
        ];
        for mut e in engines {
            assert_eq!(e.round(), 0);
            assert_eq!(e.n(), 16);
            e.step();
            e.step_batched();
            assert_eq!(e.round(), 2);
            assert!(e.config().n() == 16);
        }
    }

    #[test]
    fn provided_run_family_drives_batched_path() {
        // Trait run == stepping by hand, bit for bit.
        let mut via_trait = LoadProcess::legitimate_start(64, 3);
        let mut by_hand = via_trait.clone();
        via_trait.run_silent(200);
        for _ in 0..200 {
            by_hand.step_batched();
        }
        assert_eq!(via_trait.config(), by_hand.config());

        let mut tracker = MaxLoadTracker::new();
        let mut observed = LoadProcess::legitimate_start(64, 3);
        observed.run(200, &mut tracker);
        assert_eq!(tracker.rounds(), 200);
        assert_eq!(observed.config(), via_trait.config());
    }

    #[test]
    fn run_until_checks_before_first_step() {
        let mut p = LoadProcess::legitimate_start(16, 4);
        assert_eq!(p.run_until(10, |_| true), Some(0));
        assert_eq!(p.round(), 0);
        assert_eq!(p.run_until(5, |c| c.max_load() > 1_000), None);
        assert_eq!(p.round(), 5);
    }

    #[test]
    fn faults_are_none_for_engines_that_cannot_replay_a_placement() {
        let mut t = Tetris::new(Config::one_per_bin(8), Xoshiro256pp::seed_from(5));
        assert!(Engine::faults(&mut t).is_none());
        let mut b = BatchedTetris::new(Config::one_per_bin(8), 0.5, Xoshiro256pp::seed_from(5));
        assert!(Engine::faults(&mut b).is_none());
        let mut p = LoadProcess::legitimate_start(8, 5);
        assert!(Engine::faults(&mut p).is_some());
        let mut bp = BallProcess::legitimate_start(8, 5);
        assert!(Engine::faults(&mut bp).is_some());
    }

    #[test]
    fn incremental_and_snapshot_defaults_are_gated() {
        let mut t = Tetris::new(Config::one_per_bin(8), Xoshiro256pp::seed_from(5));
        assert!(Engine::incremental(&mut t).is_none());
        assert!(Engine::snapshot(&t).is_none());
        let mut p = LoadProcess::legitimate_start(8, 5);
        assert!(Engine::incremental(&mut p).is_some());
    }

    #[test]
    fn ball_engine_reports_progress_load_engine_does_not() {
        let mut bp = BallProcess::legitimate_start(16, 6);
        bp.run(50, NullObserver);
        assert!(Engine::min_progress(&bp).expect("ball engine tracks progress") > 0);
        let lp = LoadProcess::legitimate_start(16, 6);
        assert_eq!(Engine::min_progress(&lp), None);
    }

    #[test]
    fn weighted_defaults_degenerate_to_unit() {
        let mut p = LoadProcess::legitimate_start(16, 9);
        p.run_silent(20);
        assert!(!Engine::weighted(&p));
        assert_eq!(Engine::total_weight(&p), Engine::balls(&p));
        assert_eq!(
            Engine::weighted_max_load(&p),
            u64::from(Engine::max_load(&p))
        );
        assert_eq!(
            Engine::weighted_bin_load(&p, 3),
            u64::from(Engine::bin_load(&p, 3))
        );
        assert!(Engine::capacities(&p).is_unbounded());
        assert_eq!(Engine::capacity_violations(&p), 0);
        let inc = Engine::incremental(&mut p).expect("load engines place");
        let b = inc.place_weighted(1);
        assert!(b < 16);
        let heavy = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inc.place_weighted(2);
        }));
        assert!(heavy.is_err(), "unit engines must reject weight > 1");
    }

    #[test]
    fn fault_via_trait_matches_inherent_reassign() {
        let mut a = LoadProcess::legitimate_start(8, 7);
        let mut b = a.clone();
        a.faults()
            .expect("unit load engines take faults")
            .apply_fault(&[0; 8]);
        b.adversarial_reassign(Config::all_in_one(8, 8));
        assert_eq!(a.config(), b.config());

        let mut bp = BallProcess::new(
            Config::one_per_bin(4),
            QueueStrategy::Fifo,
            Xoshiro256pp::seed_from(8),
        );
        bp.faults()
            .expect("ball engines take faults")
            .apply_fault(&[2, 2, 2, 2]);
        assert_eq!(bp.config().loads()[2], 4);
        bp.validate().unwrap();
    }
}
