//! Load configurations: the state space of the repeated balls-into-bins
//! process, legitimacy predicates, and initial-configuration builders.
//!
//! Following the paper (Section 2), a configuration is a vector
//! `q = (q_1, ..., q_n)` with `Σ q_u = m` (the paper fixes `m = n`; we keep
//! `m` general for the Section-5 open question, experiment E12).
//! A configuration is **legitimate** if `M(q) ≤ β·log n` for an absolute
//! constant `β` (the paper leaves β implicit; [`LegitimacyThreshold`] makes
//! it an explicit, configurable policy).

use crate::rng::Xoshiro256pp;
use crate::sampling::random_assignment;

/// A load configuration: `loads[u]` is the number of balls in bin `u`.
///
/// Invariant (checked in debug builds and by `validate`): the total mass
/// equals the number of balls the configuration was built with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    loads: Vec<u32>,
}

impl Config {
    /// Builds a configuration from an explicit load vector.
    ///
    /// Rejects configurations whose **total** ball count exceeds `u32::MAX`:
    /// per-bin loads are `u32`, and the adversary (or plain drift) can pile
    /// every ball into one bin, so any larger total could silently wrap a
    /// bin counter in release builds. The throw paths additionally carry
    /// checked-add debug assertions as a second line of defense.
    pub fn from_loads(loads: Vec<u32>) -> Self {
        assert!(!loads.is_empty(), "a configuration needs at least one bin");
        let total: u64 = loads.iter().map(|&x| x as u64).sum();
        assert!(
            total <= u32::MAX as u64,
            "total ball count {total} exceeds u32::MAX ({}) and could overflow a single bin",
            u32::MAX
        );
        Self { loads }
    }

    /// One ball per bin — the canonical legitimate start (`M(q) = 1`).
    pub fn one_per_bin(n: usize) -> Self {
        Self::from_loads(vec![1; n])
    }

    /// The empty configuration over `n` bins (used as scratch space). Its
    /// zeroed pages are first touched when written, not here.
    pub fn empty(n: usize) -> Self {
        assert!(n > 0, "a configuration needs at least one bin");
        Self { loads: vec![0; n] }
    }

    /// All `m` balls in bin 0 — the worst case for convergence
    /// (Theorem 1(b)): the bin drains at most one ball per round, so
    /// stabilization takes `Ω(m)` rounds.
    pub fn all_in_one(n: usize, m: u32) -> Self {
        let mut loads = vec![0; n];
        loads[0] = m;
        Self::from_loads(loads)
    }

    /// `m` balls split evenly over the first `k` bins (remainder to bin 0).
    pub fn packed(n: usize, m: u32, k: usize) -> Self {
        assert!(k >= 1 && k <= n);
        let mut loads = vec![0; n];
        // rbb-lint: allow(lossy-cast, reason = "k <= n is asserted above, and n fits the u32 bin-index range")
        let per = m / k as u32;
        // rbb-lint: allow(lossy-cast, reason = "k <= n is asserted above, and n fits the u32 bin-index range")
        let rem = m % k as u32;
        for l in loads.iter_mut().take(k) {
            *l = per;
        }
        loads[0] += rem;
        Self::from_loads(loads)
    }

    /// Geometric cascade: bin `i` gets `~m/2^{i+1}` balls — a skewed but not
    /// point-mass adversarial start.
    pub fn geometric_cascade(n: usize, m: u32) -> Self {
        let mut loads = vec![0; n];
        let mut left = m;
        for l in loads.iter_mut() {
            if left == 0 {
                break;
            }
            let take = (left / 2).max(1);
            *l = take;
            left -= take;
        }
        // Whatever could not be placed (tiny tail) goes to bin 0.
        loads[0] += left;
        Self::from_loads(loads)
    }

    /// `m` balls thrown independently and u.a.r. — the one-shot random start.
    ///
    /// # RNG stream
    ///
    /// Consumes exactly `m` uniform draws from `rng` (one per ball, in ball
    /// order) via [`random_assignment`].
    pub fn random(rng: &mut Xoshiro256pp, n: usize, m: u64) -> Self {
        Self::from_loads(random_assignment(rng, n, m))
    }

    /// Number of bins.
    #[inline]
    pub fn n(&self) -> usize {
        self.loads.len()
    }

    /// Total number of balls `m = Σ q_u`.
    #[inline]
    pub fn total_balls(&self) -> u64 {
        self.loads.iter().map(|&x| x as u64).sum()
    }

    /// Maximum load `M(q)`.
    #[inline]
    pub fn max_load(&self) -> u32 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Number of empty bins (`a(q)` in Lemma 1).
    #[inline]
    pub fn empty_bins(&self) -> usize {
        self.n() - self.nonempty_bins()
    }

    /// Number of non-empty bins (`|W|` in Lemma 3): exactly the number of
    /// balls that move in the next round.
    #[inline]
    pub fn nonempty_bins(&self) -> usize {
        // Counted in u32 lanes, chunk by chunk: a chunk's count fits u32
        // whatever the loads.
        const CHUNK: usize = 1 << 16;
        let count = |chunk: &[u32]| chunk.iter().map(|&x| u32::from(x > 0)).sum::<u32>();
        self.loads.chunks(CHUNK).map(|c| count(c) as usize).sum()
    }

    /// Immutable view of the raw load vector.
    #[inline]
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// Mutable view (engines operate in place; callers must preserve mass).
    #[inline]
    pub(crate) fn loads_mut(&mut self) -> &mut Vec<u32> {
        &mut self.loads
    }

    /// Mutable access to the raw loads, for simulation engines in sibling
    /// crates (e.g. the graph-walk processes). Callers model the *closed*
    /// process and must preserve total mass across a full round.
    #[inline]
    pub fn loads_slice_mut(&mut self) -> &mut [u32] {
        &mut self.loads
    }

    /// Consumes the configuration, returning the raw load vector.
    pub fn into_loads(self) -> Vec<u32> {
        self.loads
    }

    /// Checks structural sanity against an expected ball count.
    pub fn validate(&self, expected_balls: u64) -> Result<(), String> {
        let total = self.total_balls();
        if total != expected_balls {
            return Err(format!(
                "mass violation: {total} balls present, expected {expected_balls}"
            ));
        }
        Ok(())
    }

    /// Key structural fact used in Lemma 1: bins with ≥ 2 balls cannot
    /// outnumber empty bins when `m ≤ n` (pigeonhole), i.e.
    /// `n - (a + b) ≤ a` where `a` = empty, `b` = singletons.
    pub fn congested_bins(&self) -> usize {
        self.loads.iter().filter(|&&x| x >= 2).count()
    }
}

/// The legitimacy policy: `M(q) ≤ beta · ln(n)` (natural log, matching the
/// `O(log n)` statements; the constant absorbs the base).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegitimacyThreshold {
    /// Multiplier `β` in `M(q) ≤ β·ln n`.
    pub beta: f64,
}

impl LegitimacyThreshold {
    /// The workspace default, `β = 4`: empirically the repeated process's
    /// steady-state max load sits around `2–3 · ln n / ln ln n`, comfortably
    /// below `4 ln n` for all n ≥ 16, while still being `Θ(log n)`.
    pub const DEFAULT_BETA: f64 = 4.0;

    /// Creates a threshold policy with the given `β > 0`.
    pub fn new(beta: f64) -> Self {
        assert!(beta > 0.0, "beta must be positive");
        Self { beta }
    }

    /// The integer load bound for `n` bins: `⌈β·ln n⌉` (at least 1).
    pub fn bound(&self, n: usize) -> u32 {
        assert!(n >= 2, "the process is defined for n >= 2");
        // rbb-lint: allow(lossy-cast, reason = "beta * ln(n) is tiny (< 100 for any feasible n); ceil of it fits u32")
        ((self.beta * (n as f64).ln()).ceil() as u32).max(1)
    }

    /// Whether configuration `q` is legitimate under this policy.
    pub fn is_legitimate(&self, q: &Config) -> bool {
        q.max_load() <= self.bound(q.n())
    }

    /// The weighted-load bound: the unit bound scaled by the mean ball
    /// weight, `⌈β·ln n⌉ · max(1, ⌈W/m⌉)` for total weight `W` over `m`
    /// balls. With unit weights (`W = m`) this is exactly
    /// [`bound`](Self::bound), so weighted legitimacy degenerates to the
    /// paper's definition; under skew it asks the same structural question —
    /// "is no bin holding more than O(log n) *average-sized* balls?"
    pub fn weighted_bound(&self, n: usize, total_weight: u64, balls: u64) -> u64 {
        let mean_weight = total_weight.div_ceil(balls.max(1)).max(1);
        u64::from(self.bound(n)) * mean_weight
    }
}

impl Default for LegitimacyThreshold {
    fn default() -> Self {
        Self::new(Self::DEFAULT_BETA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_per_bin_properties() {
        let q = Config::one_per_bin(100);
        assert_eq!(q.n(), 100);
        assert_eq!(q.total_balls(), 100);
        assert_eq!(q.max_load(), 1);
        assert_eq!(q.empty_bins(), 0);
        assert_eq!(q.nonempty_bins(), 100);
        assert_eq!(q.congested_bins(), 0);
    }

    #[test]
    fn all_in_one_properties() {
        let q = Config::all_in_one(50, 50);
        assert_eq!(q.total_balls(), 50);
        assert_eq!(q.max_load(), 50);
        assert_eq!(q.empty_bins(), 49);
        assert_eq!(q.nonempty_bins(), 1);
    }

    #[test]
    fn packed_splits_evenly_with_remainder() {
        let q = Config::packed(10, 23, 4);
        assert_eq!(q.total_balls(), 23);
        assert_eq!(q.loads()[0], 5 + 3); // per=5, rem=3
        assert_eq!(q.loads()[3], 5);
        assert_eq!(q.loads()[4], 0);
    }

    #[test]
    fn geometric_cascade_conserves_mass() {
        for n in [4usize, 16, 100] {
            let q = Config::geometric_cascade(n, n as u32);
            assert_eq!(q.total_balls(), n as u64, "n={n}");
            assert!(q.loads()[0] >= q.loads()[1]);
        }
    }

    #[test]
    fn random_start_conserves_mass() {
        let mut rng = Xoshiro256pp::seed_from(5);
        let q = Config::random(&mut rng, 128, 128);
        assert_eq!(q.total_balls(), 128);
        q.validate(128).unwrap();
    }

    #[test]
    fn validate_detects_mass_violation() {
        let q = Config::one_per_bin(10);
        assert!(q.validate(11).is_err());
        assert!(q.validate(10).is_ok());
    }

    #[test]
    fn pigeonhole_lemma1_structure() {
        // For any m <= n configuration: congested <= empty.
        let mut rng = Xoshiro256pp::seed_from(7);
        for _ in 0..50 {
            let q = Config::random(&mut rng, 64, 64);
            assert!(
                q.congested_bins() <= q.empty_bins(),
                "pigeonhole violated: {:?}",
                q.loads()
            );
        }
    }

    #[test]
    fn legitimacy_threshold_bounds() {
        let t = LegitimacyThreshold::default();
        // beta=4: bound(1024) = ceil(4 * 6.93) = 28
        assert_eq!(t.bound(1024), 28);
        assert!(t.bound(2) >= 1);
    }

    #[test]
    fn legitimacy_classification() {
        let t = LegitimacyThreshold::new(2.0);
        let n = 256;
        let legit = Config::one_per_bin(n);
        assert!(t.is_legitimate(&legit));
        let bad = Config::all_in_one(n, n as u32);
        assert!(!t.is_legitimate(&bad));
    }

    #[test]
    fn weighted_bound_degenerates_to_unit_and_scales_with_mean() {
        let t = LegitimacyThreshold::default();
        // Unit weights: W = m, mean 1 — exactly the unit bound.
        assert_eq!(t.weighted_bound(1024, 1024, 1024), u64::from(t.bound(1024)));
        // Mean weight 3 (ceil of 2.5) scales the bound.
        assert_eq!(
            t.weighted_bound(1024, 2560, 1024),
            3 * u64::from(t.bound(1024))
        );
        // Degenerate empty system: bound stays positive.
        assert_eq!(t.weighted_bound(64, 0, 0), u64::from(t.bound(64)));
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn zero_beta_rejected() {
        LegitimacyThreshold::new(0.0);
    }

    #[test]
    #[should_panic]
    fn empty_config_rejected() {
        Config::from_loads(vec![]);
    }

    #[test]
    #[should_panic(expected = "could overflow a single bin")]
    fn overflowing_total_rejected() {
        // Per-bin u32 loads admit totals up to n·u32::MAX, but the process
        // can concentrate all mass in one bin — reject at construction.
        Config::from_loads(vec![u32::MAX, 1]);
    }

    #[test]
    fn u32_max_total_is_the_accepted_boundary() {
        let q = Config::from_loads(vec![u32::MAX, 0]);
        assert_eq!(q.total_balls(), u32::MAX as u64);
    }
}
