//! The Lemma-5 Markov chain: the single-bin drift chain behind the Tetris
//! analysis.
//!
//! `Z_t` models the load of one fixed bin in the Tetris process, started at
//! `k` and absorbed at 0:
//!
//! ```text
//! Z_t = 0                      if Z_{t-1} = 0
//! Z_t = Z_{t-1} − 1 + X_t      if Z_{t-1} ≥ 1,    X_t ~ B((3/4)n, 1/n) i.i.d.
//! ```
//!
//! Lemma 5: for any start `k` and any `t ≥ 8k`, `P_k(τ > t) ≤ e^{−t/144}`
//! where `τ = inf{t : Z_t = 0}`. The proof is a Chernoff bound on
//! `Σ X_i > (7/8)t` (with `δ = 1/6`, mean `(3/4)t`).

use crate::rng::Xoshiro256pp;
use crate::sampling::binomial;

/// The absorbed drift chain of Lemma 5.
#[derive(Debug, Clone)]
pub struct ZChain {
    n: u64,
    trials: u64,
    p: f64,
    state: u64,
    rng: Xoshiro256pp,
    t: u64,
}

impl ZChain {
    /// Creates the chain with bin-count parameter `n` (arrivals are
    /// `B(⌊3n/4⌋, 1/n)`), started at `k`.
    ///
    /// # RNG stream
    ///
    /// Takes ownership of `rng` as the chain's stream; each step consumes the
    /// draws of one exact `Binomial(floor(3n/4), 1/n)` arrival sample (a
    /// data-dependent number of geometric draws, expected `O(1)`).
    pub fn new(n: usize, k: u64, rng: Xoshiro256pp) -> Self {
        assert!(n >= 2);
        Self {
            n: n as u64,
            trials: (3 * n as u64) / 4,
            p: 1.0 / n as f64,
            state: k,
            rng,
            t: 0,
        }
    }

    /// The bin-count parameter `n` of the arrival law.
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Current state `Z_t`.
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Elapsed steps `t`.
    #[inline]
    pub fn t(&self) -> u64 {
        self.t
    }

    /// Whether the chain is absorbed (`Z_t = 0`).
    #[inline]
    pub fn absorbed(&self) -> bool {
        self.state == 0
    }

    /// Advances one step; returns the new state.
    pub fn step(&mut self) -> u64 {
        if self.state > 0 {
            let x = binomial(&mut self.rng, self.trials, self.p);
            self.state = self.state - 1 + x;
        }
        self.t += 1;
        self.state
    }

    /// Runs until absorption or `cap` steps; returns the absorption time `τ`
    /// if it occurred within the cap.
    pub fn absorption_time(&mut self, cap: u64) -> Option<u64> {
        if self.absorbed() {
            return Some(self.t);
        }
        while self.t < cap {
            self.step();
            if self.absorbed() {
                return Some(self.t);
            }
        }
        None
    }
}

/// The Lemma-5 Chernoff tail: `e^{−t/144}`, valid for `t ≥ 8k`.
#[inline]
pub fn lemma5_tail_bound(t: u64) -> f64 {
    (-(t as f64) / 144.0).exp()
}

/// Samples `trials` absorption times of the chain started at `k`, capping
/// each run at `cap` steps (a `None` is recorded as `cap + 1`, which keeps
/// empirical tails conservative). Returns the sorted times.
pub fn sample_absorption_times(n: usize, k: u64, trials: usize, cap: u64, seed: u64) -> Vec<u64> {
    let mut times: Vec<u64> = (0..trials)
        .map(|i| {
            // rbb-lint: allow(rng-construct, reason = "per-trial disjoint streams for absorption sampling; core cannot depend on rbb_sim::seed")
            let rng = Xoshiro256pp::stream(seed, i as u64);
            let mut chain = ZChain::new(n, k, rng);
            chain.absorption_time(cap).unwrap_or(cap + 1)
        })
        .collect();
    times.sort_unstable();
    times
}

/// Empirical tail `P(τ > t)` from a sorted sample.
pub fn empirical_tail(sorted_times: &[u64], t: u64) -> f64 {
    if sorted_times.is_empty() {
        return 0.0;
    }
    // Index of the first element > t.
    let idx = sorted_times.partition_point(|&x| x <= t);
    (sorted_times.len() - idx) as f64 / sorted_times.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_absorbing() {
        let mut z = ZChain::new(16, 0, Xoshiro256pp::seed_from(1));
        for _ in 0..10 {
            assert_eq!(z.step(), 0);
        }
        assert!(z.absorbed());
    }

    #[test]
    fn chain_descends_from_small_start() {
        let mut z = ZChain::new(64, 3, Xoshiro256pp::seed_from(3));
        let tau = z.absorption_time(10_000).expect("must absorb");
        assert!(tau >= 3, "needs at least k steps to absorb");
    }

    #[test]
    fn absorption_time_immediate_at_zero() {
        let mut z = ZChain::new(64, 0, Xoshiro256pp::seed_from(4));
        assert_eq!(z.absorption_time(100), Some(0));
    }

    #[test]
    fn absorption_needs_at_least_k_steps() {
        // The state decreases by at most 1 per step.
        for k in [1u64, 5, 20] {
            let mut z = ZChain::new(128, k, Xoshiro256pp::seed_from(5 + k));
            let tau = z.absorption_time(100_000).unwrap();
            assert!(tau >= k, "k={k}, tau={tau}");
        }
    }

    #[test]
    fn empirical_tail_respects_lemma5_bound_scaled() {
        // Lemma 5 is loose (rate 1/144); the true decay is much faster.
        // Check: P_1(τ > 100) ≤ e^{-100/144} ≈ 0.50 — empirically it is tiny.
        let times = sample_absorption_times(256, 1, 2000, 10_000, 6);
        let emp = empirical_tail(&times, 100);
        assert!(emp <= lemma5_tail_bound(100), "emp {emp}");
        assert!(emp < 0.01, "true tail should be tiny, got {emp}");
    }

    #[test]
    fn empirical_tail_edges() {
        let times = vec![1, 2, 3, 10];
        assert_eq!(empirical_tail(&times, 0), 1.0);
        assert_eq!(empirical_tail(&times, 2), 0.5);
        assert_eq!(empirical_tail(&times, 10), 0.0);
        assert_eq!(empirical_tail(&[], 5), 0.0);
    }

    #[test]
    fn tail_bound_decreases() {
        assert!(lemma5_tail_bound(288) < lemma5_tail_bound(144));
        assert!((lemma5_tail_bound(144) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn sampled_times_are_sorted_and_capped() {
        let times = sample_absorption_times(32, 4, 100, 500, 7);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|&t| t <= 501));
    }
}
