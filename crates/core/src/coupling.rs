//! The Lemma-3 coupling between the original process and Tetris.
//!
//! Both processes start from the *same* configuration (which the lemma
//! requires to have at least `n/4` empty bins) and run in a joint probability
//! space:
//!
//! * **Case (i)** — the original process has `h ≤ (3/4)n` non-empty bins:
//!   `h` of Tetris's `(3/4)n` new balls are thrown into exactly the bins the
//!   original process's movers landed in (destination reuse); the remaining
//!   `(3/4)n − h` are thrown independently u.a.r.
//! * **Case (ii)** — `h > (3/4)n`: the Tetris round runs independently.
//!
//! As long as case (ii) never fires, Tetris *dominates* the original process
//! bin-wise (`Q̂_u(t) ≥ Q_u(t)` for every `u`, every `t`), hence
//! `M̂_T ≥ M_T`. Lemma 2 says case (ii) occurs within a `poly(n)` window only
//! with probability `e^{-γn}`. [`CoupledRun`] executes the joint process and
//! *verifies* domination every round, which is exactly experiment E04.

use crate::config::Config;
use crate::engine::Engine;
use crate::process::LoadProcess;
use crate::rng::Xoshiro256pp;
use crate::tetris::Tetris;

/// Outcome summary of a coupled run.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Rounds in which case (ii) applied (independent Tetris round).
    pub case_ii_rounds: u64,
    /// First round at which case (ii) applied, if any.
    pub first_case_ii: Option<u64>,
    /// Rounds (strictly before any case (ii)) where bin-wise domination
    /// failed. The lemma guarantees this is always 0; a non-zero value would
    /// falsify the coupling construction.
    pub domination_violations_before_case_ii: u64,
    /// Rounds where domination failed at any point (after case (ii) it may
    /// legitimately fail).
    pub domination_violations_total: u64,
    /// `M_T`: window max load of the original process.
    pub original_window_max: u32,
    /// `M̂_T`: window max load of the Tetris process.
    pub tetris_window_max: u32,
}

impl CouplingReport {
    /// Whether the run certifies the lemma's conclusion `M̂_T ≥ M_T` via
    /// per-round domination (vacuously true if case (ii) never fired).
    pub fn domination_certified(&self) -> bool {
        self.domination_violations_before_case_ii == 0
    }
}

/// Joint execution of the original process and its Tetris majorant.
///
/// ```
/// use rbb_core::prelude::*;
///
/// // All-in-one trivially has ≥ n/4 empty bins (the Lemma 3 precondition).
/// let run = CoupledRun::new(Config::all_in_one(64, 64), 5).unwrap();
/// let report = run.run(500);
/// assert!(report.domination_certified());
/// assert!(report.tetris_window_max >= report.original_window_max);
/// ```
#[derive(Debug, Clone)]
pub struct CoupledRun {
    original: LoadProcess,
    tetris: Tetris,
    dests: Vec<usize>,
    case_ii_rounds: u64,
    first_case_ii: Option<u64>,
    violations_before: u64,
    violations_total: u64,
    original_max: u32,
    tetris_max: u32,
}

impl CoupledRun {
    /// Starts both processes from `config`. `seed` derives two independent
    /// RNG streams (one per process; the coupling additionally shares the
    /// original's destination draws with Tetris in case (i)).
    ///
    /// Returns `Err` if the configuration violates the lemma's precondition
    /// of at least `n/4` empty bins.
    pub fn new(config: Config, seed: u64) -> Result<Self, String> {
        let n = config.n();
        if 4 * config.empty_bins() < n {
            return Err(format!(
                "Lemma 3 precondition violated: {} empty bins < n/4 = {}",
                config.empty_bins(),
                n as f64 / 4.0
            ));
        }
        Ok(Self::new_unchecked(config, seed))
    }

    /// Starts the coupling without the empty-bins precondition (useful for
    /// probing *why* the precondition is needed).
    fn new_unchecked(config: Config, seed: u64) -> Self {
        // rbb-lint: allow(rng-construct, reason = "the Lemma-3 coupling derives two disjoint streams from one seed; core cannot depend on rbb_sim::seed")
        let original = LoadProcess::new(config.clone(), Xoshiro256pp::stream(seed, 0));
        // rbb-lint: allow(rng-construct, reason = "second disjoint stream of the Lemma-3 coupling")
        let tetris = Tetris::new(config, Xoshiro256pp::stream(seed, 1));
        Self {
            original,
            tetris,
            dests: Vec::new(),
            case_ii_rounds: 0,
            first_case_ii: None,
            violations_before: 0,
            violations_total: 0,
            original_max: 0,
            tetris_max: 0,
        }
    }

    /// Advances both processes one coupled round; returns `true` if Tetris
    /// dominated the original bin-wise at the end of the round.
    pub fn step(&mut self) -> bool {
        let budget = self.tetris.arrivals_per_round();
        let h = self.original.config().nonempty_bins();
        if h <= budget {
            // Case (i): reuse the movers' destinations.
            self.original.step_recording(&mut self.dests);
            self.tetris.step_reusing(&self.dests);
        } else {
            // Case (ii): independent rounds.
            self.original.step();
            self.tetris.step();
            self.case_ii_rounds += 1;
            if self.first_case_ii.is_none() {
                self.first_case_ii = Some(self.original.round());
            }
        }

        let dominated = self
            .original
            .config()
            .loads()
            .iter()
            .zip(self.tetris.config().loads())
            .all(|(&q, &qt)| qt >= q);
        if !dominated {
            self.violations_total += 1;
            if self.first_case_ii.is_none() {
                self.violations_before += 1;
            }
        }
        self.original_max = self.original_max.max(self.original.config().max_load());
        self.tetris_max = self.tetris_max.max(self.tetris.config().max_load());
        dominated
    }

    /// Runs `rounds` coupled rounds and reports.
    pub fn run(mut self, rounds: u64) -> CouplingReport {
        for _ in 0..rounds {
            self.step();
        }
        CouplingReport {
            rounds,
            case_ii_rounds: self.case_ii_rounds,
            first_case_ii: self.first_case_ii,
            domination_violations_before_case_ii: self.violations_before,
            domination_violations_total: self.violations_total,
            original_window_max: self.original_max,
            tetris_window_max: self.tetris_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::random_assignment;

    /// A random n-ball configuration conditioned on ≥ n/4 empty bins
    /// (rejection sampling; overwhelmingly likely on the first try since a
    /// uniform throw leaves ~n/e empty).
    fn coupling_start(n: usize, seed: u64) -> Config {
        let mut rng = Xoshiro256pp::seed_from(seed);
        loop {
            let loads = random_assignment(&mut rng, n, n as u64);
            let c = Config::from_loads(loads);
            if 4 * c.empty_bins() >= n {
                return c;
            }
        }
    }

    #[test]
    fn precondition_enforced() {
        let bad = Config::one_per_bin(16); // zero empty bins
        assert!(CoupledRun::new(bad, 1).is_err());
        let good = Config::all_in_one(16, 16);
        assert!(CoupledRun::new(good, 1).is_ok());
    }

    #[test]
    fn domination_holds_throughout_window() {
        let n = 256;
        let run = CoupledRun::new(coupling_start(n, 2), 42).unwrap();
        let report = run.run(2000);
        assert_eq!(report.case_ii_rounds, 0, "case (ii) should not fire");
        assert_eq!(report.domination_violations_total, 0);
        assert!(report.domination_certified());
        assert!(report.tetris_window_max >= report.original_window_max);
    }

    #[test]
    fn domination_across_seeds() {
        for seed in 0..10u64 {
            let run = CoupledRun::new(coupling_start(128, seed), seed).unwrap();
            let report = run.run(500);
            assert!(report.domination_certified(), "seed {seed}: {report:?}");
            assert!(report.tetris_window_max >= report.original_window_max);
        }
    }

    #[test]
    fn case_ii_fires_without_precondition() {
        // Start from all-singleton: every bin non-empty, h = n > 3n/4, so the
        // very first round is case (ii).
        let run = CoupledRun::new_unchecked(Config::one_per_bin(64), 3);
        let report = run.run(10);
        assert!(report.case_ii_rounds >= 1);
        assert_eq!(report.first_case_ii, Some(1));
    }

    #[test]
    fn report_counts_rounds() {
        let run = CoupledRun::new(coupling_start(64, 4), 4).unwrap();
        let report = run.run(100);
        assert_eq!(report.rounds, 100);
    }

    #[test]
    fn step_reports_domination() {
        let mut run = CoupledRun::new(coupling_start(128, 5), 5).unwrap();
        for _ in 0..50 {
            assert!(run.step(), "domination must hold each round");
        }
    }
}
