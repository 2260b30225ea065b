//! The Tetris process (Section 3, step (ii)) and its batched variant.
//!
//! Tetris is the analysis device that makes the original process tractable:
//! starting from a configuration with at least `n/4` empty bins, each round
//!
//! 1. every non-empty bin discards one ball ("throws it away"), and
//! 2. exactly `(3/4)·n` *new* balls are thrown, each independently u.a.r.
//!
//! Unlike the original process, the arrival counts at a fixed bin across
//! rounds are i.i.d. `Binomial((3/4)n, 1/n)` — mutually independent — so
//! standard Chernoff bounds apply (Lemmas 4–6). [`BatchedTetris`] is the
//! probabilistic generalization studied after this paper in
//! Berenbrink et al., PODC 2016 ("leaky bins", reference \[18\]): the number
//! of new balls per round is `Binomial(n, λ)`.

use crate::config::Config;
use crate::engine::Engine;
use crate::rng::Xoshiro256pp;
use crate::sampling::{binomial, throw_uniform};

/// The discard pass of both Tetris processes: every non-empty bin throws
/// one ball away. Returns the number discarded. Consumes no draws.
fn discard_one_per_bin(loads: &mut [u32]) -> usize {
    let mut discarded = 0;
    for l in loads.iter_mut().filter(|l| **l > 0) {
        *l -= 1;
        discarded += 1;
    }
    discarded
}

/// The Tetris process with exactly `⌊(3/4)n⌋` arrivals per round.
///
/// ```
/// use rbb_core::prelude::*;
///
/// // Lemma 4: every bin empties at least once within 5n rounds, w.h.p.
/// let mut t = Tetris::new(Config::all_in_one(64, 64), Xoshiro256pp::seed_from(1));
/// let drained = t.run_until_all_emptied(5 * 64).expect("drains w.h.p.");
/// assert!(drained <= 5 * 64);
/// ```
#[derive(Debug, Clone)]
pub struct Tetris {
    config: Config,
    rng: Xoshiro256pp,
    round: u64,
    arrivals_per_round: usize,
}

impl Tetris {
    /// Creates the process. The paper's precondition (≥ `n/4` empty bins)
    /// is *not* enforced here: Lemma 4 is stated from any configuration.
    ///
    /// # RNG stream
    ///
    /// Takes ownership of `rng` as the process's stream; each round consumes
    /// one uniform destination draw per arriving ball (`floor(3n/4)` per
    /// round).
    pub fn new(config: Config, rng: Xoshiro256pp) -> Self {
        let n = config.n();
        Self {
            config,
            rng,
            round: 0,
            arrivals_per_round: (3 * n) / 4,
        }
    }

    /// Number of new balls thrown each round, `⌊(3/4)n⌋`.
    #[inline]
    pub fn arrivals_per_round(&self) -> usize {
        self.arrivals_per_round
    }

    #[inline]
    /// Current configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    #[inline]
    /// Current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    #[inline]
    /// Number of bins.
    pub fn n(&self) -> usize {
        self.config.n()
    }

    /// Advances one round; returns the number of balls discarded. This is
    /// [`step_reusing`](Tetris::step_reusing) with no dictated
    /// destinations: all `⌊(3/4)n⌋` new balls are thrown u.a.r.
    pub fn step(&mut self) -> usize {
        self.step_reusing(&[])
    }

    /// Advances one round where the destinations of the first
    /// `reused.len() ≤ (3/4)n` new balls are dictated by `reused` (the
    /// Lemma-3 coupling: those balls shadow the original process's movers);
    /// the remaining `(3/4)n - reused.len()` balls are thrown u.a.r.
    ///
    /// Panics if `reused` is longer than the per-round arrival budget —
    /// that is the coupling's case (ii), which the caller must handle by
    /// calling plain [`Tetris::step`] instead.
    pub fn step_reusing(&mut self, reused: &[usize]) -> usize {
        assert!(
            reused.len() <= self.arrivals_per_round,
            "coupling case (ii): more movers than Tetris arrivals"
        );
        let loads = self.config.loads_mut();
        let discarded = discard_one_per_bin(loads);
        for &d in reused {
            loads[d] += 1;
        }
        let fresh = self.arrivals_per_round - reused.len();
        throw_uniform(&mut self.rng, loads, fresh);
        self.round += 1;
        discarded
    }

    /// Runs until every bin has been empty at least once, or `max_rounds`
    /// elapse. Returns the first round by which all bins have emptied
    /// (Lemma 4 asserts this is ≤ `5n` w.h.p. from any start).
    pub fn run_until_all_emptied(&mut self, max_rounds: u64) -> Option<u64> {
        let n = self.config.n();
        let mut emptied = vec![false; n];
        let mut remaining = n;
        for (u, &l) in self.config.loads().iter().enumerate() {
            if l == 0 {
                emptied[u] = true;
                remaining -= 1;
            }
        }
        if remaining == 0 {
            return Some(self.round);
        }
        for _ in 0..max_rounds {
            self.step();
            for (u, &l) in self.config.loads().iter().enumerate() {
                if l == 0 && !emptied[u] {
                    emptied[u] = true;
                    remaining -= 1;
                }
            }
            if remaining == 0 {
                return Some(self.round);
            }
        }
        None
    }
}

/// The run family is provided by [`Engine`]. Faults are unsupported: Tetris does not
/// conserve balls, so an arbitrary placement has no well-defined meaning.
impl Engine for Tetris {
    #[inline]
    fn step(&mut self) -> usize {
        Tetris::step(self)
    }

    #[inline]
    fn round(&self) -> u64 {
        self.round
    }

    #[inline]
    fn config(&self) -> &Config {
        &self.config
    }
}

/// Batched Tetris ("leaky bins", \[18\]): per round, every non-empty bin
/// discards one ball and `Binomial(n, λ)` new balls arrive u.a.r.
///
/// For `λ < 1` the expected drift at a busy bin is negative and the process
/// is stable; `λ = 3/4` recovers [`Tetris`] in expectation.
#[derive(Debug, Clone)]
pub struct BatchedTetris {
    config: Config,
    rng: Xoshiro256pp,
    round: u64,
    lambda: f64,
}

impl BatchedTetris {
    /// Creates the process with arrival rate `λ ∈ [0, 1]`.
    ///
    /// # RNG stream
    ///
    /// Takes ownership of `rng` as the process's stream; each round consumes
    /// one `Binomial(n, lambda)` arrival-count sample plus one uniform
    /// destination draw per arriving ball.
    pub fn new(config: Config, lambda: f64, rng: Xoshiro256pp) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "λ must be in [0, 1]");
        Self {
            config,
            rng,
            round: 0,
            lambda,
        }
    }

    #[inline]
    /// Current configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    #[inline]
    /// Current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    #[inline]
    /// The arrival rate λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Advances one round; returns `(discarded, arrived)` — the count-pair
    /// variant of [`Engine::step`] for callers that track the arrival rate.
    pub fn step_counts(&mut self) -> (usize, usize) {
        let n = self.config.n();
        let arrivals = binomial(&mut self.rng, n as u64, self.lambda) as usize;
        let loads = self.config.loads_mut();
        let discarded = discard_one_per_bin(loads);
        throw_uniform(&mut self.rng, loads, arrivals);
        self.round += 1;
        (discarded, arrivals)
    }
}

/// The run family is provided by [`Engine`]; [`Engine::step`] returns the
/// discarded count (use [`BatchedTetris::step_counts`] to also observe the
/// random arrival count).
impl Engine for BatchedTetris {
    #[inline]
    fn step(&mut self) -> usize {
        self.step_counts().0
    }

    #[inline]
    fn round(&self) -> u64 {
        self.round
    }

    #[inline]
    fn config(&self) -> &Config {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MaxLoadTracker;

    #[test]
    fn arrivals_per_round_is_three_quarters() {
        let t = Tetris::new(Config::one_per_bin(100), Xoshiro256pp::seed_from(1));
        assert_eq!(t.arrivals_per_round(), 75);
        let t = Tetris::new(Config::one_per_bin(10), Xoshiro256pp::seed_from(1));
        assert_eq!(t.arrivals_per_round(), 7);
    }

    #[test]
    fn mass_is_not_conserved_but_bounded_in_expectation() {
        // Tetris discards up to n and adds exactly 3n/4: from the
        // all-singleton start mass drifts down towards equilibrium.
        let n = 400;
        let mut t = Tetris::new(Config::one_per_bin(n), Xoshiro256pp::seed_from(2));
        for _ in 0..200 {
            t.step();
        }
        let total = t.config().total_balls();
        // Equilibrium total is around n·(3/4)/(chance busy) ~ n; just check sane bounds.
        assert!(total > 0 && total < 3 * n as u64, "total {total}");
    }

    #[test]
    fn step_decrements_every_nonempty_bin() {
        let mut t = Tetris::new(
            Config::from_loads(vec![5, 0, 0, 0]),
            Xoshiro256pp::seed_from(3),
        );
        let discarded = t.step();
        assert_eq!(discarded, 1);
    }

    #[test]
    fn lemma4_all_bins_empty_within_5n() {
        // From the worst start (all n balls in one bin) every bin must have
        // been empty at least once within 5n rounds, w.h.p.
        let n = 256;
        let mut t = Tetris::new(Config::all_in_one(n, n as u32), Xoshiro256pp::seed_from(4));
        let hit = t.run_until_all_emptied(5 * n as u64);
        assert!(hit.is_some(), "not all bins emptied within 5n rounds");
    }

    #[test]
    fn run_until_all_emptied_immediate_when_all_empty() {
        let mut t = Tetris::new(Config::empty(16), Xoshiro256pp::seed_from(5));
        assert_eq!(t.run_until_all_emptied(10), Some(0));
    }

    #[test]
    fn lemma6_max_load_logarithmic() {
        let n = 512;
        let mut t = Tetris::new(Config::one_per_bin(n), Xoshiro256pp::seed_from(6));
        let mut tracker = MaxLoadTracker::new();
        t.run(4000, &mut tracker);
        let bound = (4.0 * (n as f64).ln()).ceil() as u32;
        assert!(
            tracker.window_max() <= bound,
            "Tetris max load {} > {}",
            tracker.window_max(),
            bound
        );
    }

    #[test]
    fn step_reusing_places_reused_destinations() {
        let mut t = Tetris::new(Config::empty(8), Xoshiro256pp::seed_from(7));
        // 8 bins -> 6 arrivals; reuse 3 of them deterministically.
        t.step_reusing(&[2, 2, 5]);
        let loads = t.config().loads();
        assert!(loads[2] >= 2);
        assert!(loads[5] >= 1);
        assert_eq!(t.config().total_balls(), 6);
    }

    #[test]
    #[should_panic(expected = "case (ii)")]
    fn step_reusing_rejects_overflow() {
        let mut t = Tetris::new(Config::empty(8), Xoshiro256pp::seed_from(8));
        let too_many = vec![0usize; 7]; // budget is 6
        t.step_reusing(&too_many);
    }

    #[test]
    fn batched_tetris_lambda_validated() {
        let c = Config::one_per_bin(8);
        let r = Xoshiro256pp::seed_from(9);
        let _ = BatchedTetris::new(c, 0.5, r);
    }

    #[test]
    #[should_panic(expected = "λ must be")]
    fn batched_tetris_rejects_bad_lambda() {
        BatchedTetris::new(Config::one_per_bin(8), 1.5, Xoshiro256pp::seed_from(10));
    }

    #[test]
    fn batched_tetris_subcritical_is_stable() {
        let n = 256;
        let mut t = BatchedTetris::new(Config::one_per_bin(n), 0.5, Xoshiro256pp::seed_from(11));
        let mut tracker = MaxLoadTracker::new();
        t.run(2000, &mut tracker);
        assert!(
            tracker.window_max() <= 20,
            "λ=0.5 batched Tetris max load {}",
            tracker.window_max()
        );
    }

    #[test]
    fn batched_tetris_arrival_rate_matches_lambda() {
        let n = 1000;
        let mut t = BatchedTetris::new(Config::one_per_bin(n), 0.75, Xoshiro256pp::seed_from(12));
        let rounds = 500;
        let mut arrived_total = 0usize;
        for _ in 0..rounds {
            let (_, a) = t.step_counts();
            arrived_total += a;
        }
        let per_round = arrived_total as f64 / rounds as f64;
        assert!((per_round - 750.0).abs() < 15.0, "rate {per_round}");
    }
}
