//! Exact (enumerative) analysis of the process for small `n`.
//!
//! The repeated balls-into-bins chain over load configurations is finite:
//! its states are the compositions of `m` balls into `n` bins. For small
//! `n, m` we can build the exact transition kernel, compute the stationary
//! distribution by power iteration, and evaluate any functional exactly.
//! This module is the ground truth the simulation engines are validated
//! against, and it reproduces the Appendix-B counterexample *exactly*:
//! for `n = 2` started from `(1,1)`,
//! `P(X₁=0, X₂=0) = 1/8 > P(X₁=0)·P(X₂=0) = 1/4 · 3/8 = 3/32`,
//! so the per-round arrival counts at a bin are positively — not negatively —
//! associated.

use crate::det_hash::DetHashMap;

/// Enumerates all compositions of `m` into `n` non-negative parts, in
/// lexicographic order. There are `C(m+n-1, n-1)` of them.
pub fn compositions(m: u32, n: usize) -> Vec<Vec<u32>> {
    assert!(n >= 1);
    let mut out = Vec::new();
    let mut cur = vec![0u32; n];
    fn rec(out: &mut Vec<Vec<u32>>, cur: &mut Vec<u32>, pos: usize, left: u32) {
        if pos == cur.len() - 1 {
            cur[pos] = left;
            out.push(cur.clone());
            return;
        }
        for v in 0..=left {
            cur[pos] = v;
            rec(out, cur, pos + 1, left - v);
        }
    }
    rec(&mut out, &mut cur, 0, m);
    out
}

/// Exact factorial as `f64` (valid for `k ≤ 170`).
fn factorial(k: u32) -> f64 {
    assert!(k <= 170, "factorial overflow in f64");
    (1..=k).fold(1.0, |acc, i| acc * i as f64)
}

/// Multinomial probability of arrival vector `a` when `h = Σa` balls are each
/// thrown independently u.a.r. into `n` bins: `h! / ∏ a_u! · n^{-h}`.
pub fn multinomial_probability(a: &[u32], n: usize) -> f64 {
    let h: u32 = a.iter().sum();
    let mut p = factorial(h);
    for &au in a {
        p /= factorial(au);
    }
    p * (n as f64).powi(-(h as i32))
}

/// The exact one-round transition distribution from configuration `q`:
/// pairs `(q', P(q → q'))`.
pub fn transition_distribution(q: &[u32]) -> Vec<(Vec<u32>, f64)> {
    let n = q.len();
    let decremented: Vec<u32> = q.iter().map(|&l| l.saturating_sub(1)).collect();
    // rbb-lint: allow(lossy-cast, reason = "occupied-bin count <= n, and exact analysis is only feasible for tiny n")
    let h: u32 = q.iter().filter(|&&l| l > 0).count() as u32;
    let mut out = Vec::new();
    for a in compositions(h, n) {
        let p = multinomial_probability(&a, n);
        let next: Vec<u32> = decremented.iter().zip(&a).map(|(&d, &x)| d + x).collect();
        out.push((next, p));
    }
    // Merge duplicates (distinct arrival vectors can reach the same state
    // only via identical `a`, so no merge is needed; kept for safety).
    let mut merged: DetHashMap<Vec<u32>, f64> = DetHashMap::default();
    for (next, p) in out {
        *merged.entry(next).or_insert(0.0) += p;
    }
    let mut v: Vec<(Vec<u32>, f64)> = merged.into_iter().collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// The exact finite Markov chain over all configurations of `m` balls in
/// `n` bins.
///
/// ```
/// use rbb_core::exact::ExactChain;
///
/// let chain = ExactChain::build(3, 3);
/// assert_eq!(chain.num_states(), 10); // C(5, 2) compositions
/// let pi = chain.stationary(1e-12, 10_000);
/// // πP = π: stepping the stationary law leaves it unchanged.
/// let stepped = chain.step_distribution(&pi);
/// let tv: f64 = pi.iter().zip(&stepped).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0;
/// assert!(tv < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ExactChain {
    n: usize,
    m: u32,
    configs: Vec<Vec<u32>>,
    index: DetHashMap<Vec<u32>, usize>,
    /// Sparse rows: `rows[i]` = list of `(j, P(i → j))`.
    rows: Vec<Vec<(usize, f64)>>,
}

impl ExactChain {
    /// Builds the full kernel. Feasible for `C(m+n-1, n-1)` up to a few
    /// thousand states (e.g. `n = m = 6` has 462 states).
    pub fn build(n: usize, m: u32) -> Self {
        let configs = compositions(m, n);
        let index: DetHashMap<Vec<u32>, usize> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i))
            .collect();
        let rows = configs
            .iter()
            .map(|q| {
                transition_distribution(q)
                    .into_iter()
                    .map(|(next, p)| (index[&next], p))
                    .collect()
            })
            .collect();
        Self {
            n,
            m,
            configs,
            index,
            rows,
        }
    }

    /// Number of bins.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of balls.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.configs.len()
    }

    /// The state list (lexicographic).
    pub fn configs(&self) -> &[Vec<u32>] {
        &self.configs
    }

    /// Index of a configuration.
    pub fn state_index(&self, q: &[u32]) -> Option<usize> {
        self.index.get(q).copied()
    }

    /// One exact step of a distribution over states: `out = dist · P`.
    pub fn step_distribution(&self, dist: &[f64]) -> Vec<f64> {
        assert_eq!(dist.len(), self.configs.len());
        let mut out = vec![0.0; dist.len()];
        for (i, &pi) in dist.iter().enumerate() {
            if pi == 0.0 {
                continue;
            }
            for &(j, p) in &self.rows[i] {
                out[j] += pi * p;
            }
        }
        out
    }

    /// The point distribution concentrated at `q`.
    pub fn dirac(&self, q: &[u32]) -> Vec<f64> {
        let mut d = vec![0.0; self.configs.len()];
        d[self.index[q]] = 1.0;
        d
    }

    /// Stationary distribution via power iteration to `tol` in total
    /// variation, starting from uniform. The chain is irreducible and
    /// aperiodic on its state space for `m ≥ 1, n ≥ 2`, so this converges.
    pub fn stationary(&self, tol: f64, max_iters: usize) -> Vec<f64> {
        let s = self.configs.len();
        let mut dist = vec![1.0 / s as f64; s];
        for _ in 0..max_iters {
            let next = self.step_distribution(&dist);
            let tv: f64 = dist
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / 2.0;
            dist = next;
            if tv < tol {
                break;
            }
        }
        dist
    }

    /// Expected maximum load under a distribution over states.
    pub fn expected_max_load(&self, dist: &[f64]) -> f64 {
        dist.iter()
            .zip(&self.configs)
            .map(|(&p, q)| p * (q.iter().max().copied().unwrap_or(0) as f64))
            .sum()
    }

    /// Probability that the max load is at least `k` under `dist`.
    pub fn prob_max_load_at_least(&self, dist: &[f64], k: u32) -> f64 {
        dist.iter()
            .zip(&self.configs)
            .filter(|(_, q)| q.iter().max().copied().unwrap_or(0) >= k)
            .map(|(&p, _)| p)
            .sum()
    }
}

/// Exact `Binomial(h, p)` pmf at `k` (small `h`).
pub fn binom_pmf(h: u32, p: f64, k: u32) -> f64 {
    if k > h {
        return 0.0;
    }
    let c = factorial(h) / (factorial(k) * factorial(h - k));
    c * p.powi(k as i32) * (1.0 - p).powi((h - k) as i32)
}

/// The Appendix-B exact quantities for `n = 2` started from `(1, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendixB {
    /// `P(X₁ = 0)` — no arrivals at bin 0 in round 1. Paper: 1/4.
    pub p_x1_zero: f64,
    /// `P(X₂ = 0)` — no arrivals at bin 0 in round 2. Paper: 3/8.
    pub p_x2_zero: f64,
    /// `P(X₁ = 0, X₂ = 0)`. Paper: 1/8.
    pub p_joint_zero: f64,
}

impl AppendixB {
    /// Whether the joint probability strictly exceeds the product —
    /// the counterexample to negative association.
    pub fn violates_negative_association(&self) -> bool {
        self.p_joint_zero > self.p_x1_zero * self.p_x2_zero
    }
}

/// Computes the Appendix-B quantities exactly via the generic kernel.
///
/// Round 1 from `(1,1)`: both bins move their ball; we enumerate the joint
/// destination vector to get `(X₁, next config)` jointly, then use the
/// conditional `Binomial(h, 1/2)` law of `X₂` given the round-1 config.
pub fn appendix_b_exact() -> AppendixB {
    let n = 2usize;
    let start = [1u32, 1u32];
    // Joint distribution over (config after round 1, X1): enumerate the two
    // movers' destinations.
    let mut joint: DetHashMap<(Vec<u32>, u32), f64> = DetHashMap::default();
    for d0 in 0..n {
        for d1 in 0..n {
            let p = 0.25;
            let mut cfg: Vec<u32> = start.iter().map(|&l| l - 1).collect(); // (0,0)
            cfg[d0] += 1;
            cfg[d1] += 1;
            let x1 = cfg[0]; // all balls at bin 0 arrived this round
            *joint.entry((cfg, x1)).or_insert(0.0) += p;
        }
    }

    let mut p_x1_zero = 0.0;
    let mut p_x2_zero = 0.0;
    let mut p_joint_zero = 0.0;
    // rbb-lint: allow(unordered-iter, reason = "DetHashMap order is reproducible run-to-run and the dependence is summation only; the appendix-B regression test pins the value")
    for ((cfg, x1), p) in &joint {
        // rbb-lint: allow(lossy-cast, reason = "occupied-bin count <= n, and exact analysis is only feasible for tiny n")
        let h = cfg.iter().filter(|&&l| l > 0).count() as u32;
        let p_x2_given = binom_pmf(h, 0.5, 0);
        p_x2_zero += p * p_x2_given;
        if *x1 == 0 {
            p_x1_zero += p;
            p_joint_zero += p * p_x2_given;
        }
    }

    AppendixB {
        p_x1_zero,
        p_x2_zero,
        p_joint_zero,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compositions_count_matches_stars_and_bars() {
        // C(m+n-1, n-1)
        assert_eq!(compositions(2, 2).len(), 3);
        assert_eq!(compositions(4, 4).len(), 35);
        assert_eq!(compositions(3, 3).len(), 10);
    }

    #[test]
    fn compositions_sum_to_m() {
        for c in compositions(5, 3) {
            assert_eq!(c.iter().sum::<u32>(), 5);
        }
    }

    #[test]
    fn compositions_are_unique_and_sorted() {
        let cs = compositions(4, 3);
        let mut sorted = cs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(cs, sorted);
    }

    #[test]
    fn multinomial_probabilities_sum_to_one() {
        for (h, n) in [(2u32, 2usize), (3, 3), (5, 4)] {
            let total: f64 = compositions(h, n)
                .iter()
                .map(|a| multinomial_probability(a, n))
                .sum();
            assert!((total - 1.0).abs() < 1e-12, "h={h} n={n}: {total}");
        }
    }

    #[test]
    fn transition_rows_are_stochastic() {
        for q in compositions(3, 3) {
            let total: f64 = transition_distribution(&q).iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-12, "row {q:?} sums to {total}");
        }
    }

    #[test]
    fn transition_conserves_mass() {
        for q in compositions(4, 3) {
            for (next, _) in transition_distribution(&q) {
                assert_eq!(next.iter().sum::<u32>(), 4);
            }
        }
    }

    #[test]
    fn exact_chain_builds_and_is_stochastic() {
        let chain = ExactChain::build(3, 3);
        assert_eq!(chain.num_states(), 10);
        let uniform = vec![0.1; 10];
        let next = chain.step_distribution(&uniform);
        assert!((next.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_is_fixed_point() {
        let chain = ExactChain::build(3, 3);
        let pi = chain.stationary(1e-13, 10_000);
        let pi2 = chain.step_distribution(&pi);
        let tv: f64 = pi.iter().zip(&pi2).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0;
        assert!(tv < 1e-10, "TV after step: {tv}");
    }

    #[test]
    fn stationary_is_exchangeable() {
        // The dynamics are symmetric under bin relabeling, so the stationary
        // probability of a configuration depends only on its multiset.
        let chain = ExactChain::build(2, 2);
        let pi = chain.stationary(1e-14, 10_000);
        let i20 = chain.state_index(&[2, 0]).unwrap();
        let i02 = chain.state_index(&[0, 2]).unwrap();
        assert!((pi[i20] - pi[i02]).abs() < 1e-10);
    }

    #[test]
    fn expected_max_load_bounds() {
        let chain = ExactChain::build(4, 4);
        let pi = chain.stationary(1e-12, 10_000);
        let em = chain.expected_max_load(&pi);
        assert!((1.0..=4.0).contains(&em), "E[max load] = {em}");
    }

    #[test]
    fn prob_max_load_monotone_in_k() {
        let chain = ExactChain::build(4, 4);
        let pi = chain.stationary(1e-12, 10_000);
        let p1 = chain.prob_max_load_at_least(&pi, 1);
        let p2 = chain.prob_max_load_at_least(&pi, 2);
        let p4 = chain.prob_max_load_at_least(&pi, 4);
        assert!(p1 >= p2 && p2 >= p4);
        assert!((p1 - 1.0).abs() < 1e-12, "max load is always >= 1");
    }

    #[test]
    fn binom_pmf_sums_to_one() {
        let total: f64 = (0..=5).map(|k| binom_pmf(5, 0.3, k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(binom_pmf(3, 0.5, 4), 0.0);
    }

    #[test]
    fn appendix_b_matches_paper_exactly() {
        let ab = appendix_b_exact();
        assert!((ab.p_x1_zero - 0.25).abs() < 1e-15, "{ab:?}");
        assert!((ab.p_x2_zero - 0.375).abs() < 1e-15, "{ab:?}");
        assert!((ab.p_joint_zero - 0.125).abs() < 1e-15, "{ab:?}");
        assert!(ab.violates_negative_association());
        // 1/8 > 3/32
        assert!(ab.p_joint_zero > ab.p_x1_zero * ab.p_x2_zero);
    }

    #[test]
    fn dirac_is_point_mass() {
        let chain = ExactChain::build(2, 2);
        let d = chain.dirac(&[1, 1]);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-15);
        assert_eq!(d.iter().filter(|&&p| p > 0.0).count(), 1);
    }
}
