//! The adversarial model of Section 4.1.
//!
//! In a *faulty round* the adversary reassigns all balls to bins arbitrarily
//! (it may not create or destroy balls). The paper shows that if faults occur
//! with frequency at most once every `γ·n` rounds (`γ ≥ 6`), the cover-time
//! bound only degrades by a constant factor: by Lemma 4 each fault's effect
//! dissipates within `5n` rounds, leaving `(γ−5)·n` clean rounds per period.

use crate::config::Config;
use crate::rng::Xoshiro256pp;

/// An adversary strategy: given `m` balls and `n` bins, produce the placement
/// `placement[ball] = bin` used in a faulty round.
pub trait Adversary {
    /// Produces the post-fault placement. Implementations may use `rng`
    /// (e.g. a randomized adversary) or the current configuration.
    fn placement(
        &mut self,
        n: usize,
        m: usize,
        current: &Config,
        rng: &mut Xoshiro256pp,
    ) -> Vec<usize>;

    /// Label for experiment tables.
    fn label(&self) -> &'static str;
}

/// Piles every ball into bin 0 — the maximum-skew adversary; the worst case
/// for convergence since bin 0 drains one ball per round.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllInOneAdversary;

impl Adversary for AllInOneAdversary {
    fn placement(
        &mut self,
        _n: usize,
        m: usize,
        _current: &Config,
        _rng: &mut Xoshiro256pp,
    ) -> Vec<usize> {
        vec![0; m]
    }

    fn label(&self) -> &'static str {
        "all-in-one"
    }
}

/// Packs all balls evenly into the first `k` bins.
#[derive(Debug, Clone, Copy)]
pub struct PackedAdversary {
    /// Number of bins the adversary packs the balls into.
    pub k: usize,
}

impl Adversary for PackedAdversary {
    fn placement(
        &mut self,
        n: usize,
        m: usize,
        _current: &Config,
        _rng: &mut Xoshiro256pp,
    ) -> Vec<usize> {
        let k = self.k.clamp(1, n);
        (0..m).map(|i| i % k).collect()
    }

    fn label(&self) -> &'static str {
        "packed-k"
    }
}

/// Dumps every ball onto the *currently fullest* bin — an adaptive adversary
/// that amplifies existing skew.
#[derive(Debug, Default, Clone, Copy)]
pub struct FollowTheLeaderAdversary;

impl Adversary for FollowTheLeaderAdversary {
    fn placement(
        &mut self,
        _n: usize,
        m: usize,
        current: &Config,
        _rng: &mut Xoshiro256pp,
    ) -> Vec<usize> {
        let target = current
            .loads()
            .iter()
            .enumerate()
            .max_by_key(|&(_, &l)| l)
            .map(|(u, _)| u)
            .unwrap_or(0);
        vec![target; m]
    }

    fn label(&self) -> &'static str {
        "follow-the-leader"
    }
}

/// Re-throws every ball u.a.r. — the *benign* "adversary" (a fresh one-shot
/// assignment); useful as the control arm in E09.
#[derive(Debug, Default, Clone, Copy)]
pub struct RandomAdversary;

impl Adversary for RandomAdversary {
    fn placement(
        &mut self,
        n: usize,
        m: usize,
        _current: &Config,
        rng: &mut Xoshiro256pp,
    ) -> Vec<usize> {
        (0..m).map(|_| rng.uniform_usize(n)).collect()
    }

    fn label(&self) -> &'static str {
        "random"
    }
}

/// The fault clock: faults fire on rounds that are positive multiples of
/// `period` (the paper's frequency constraint is `period ≥ γ·n`, `γ ≥ 6`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    period: u64,
}

impl FaultSchedule {
    /// A schedule firing every `period ≥ 1` rounds.
    pub fn every(period: u64) -> Self {
        assert!(period >= 1, "fault period must be >= 1");
        Self { period }
    }

    /// The paper's parameterization: every `γ·n` rounds.
    pub fn gamma_n(gamma: u64, n: usize) -> Self {
        Self::every(gamma * n as u64)
    }

    /// Whether round `round` (1-based) is faulty.
    #[inline]
    pub fn is_faulty(&self, round: u64) -> bool {
        round > 0 && round % self.period == 0
    }

    /// Number of faults in rounds `1..=t`.
    pub fn faults_up_to(&self, t: u64) -> u64 {
        t / self.period
    }

    /// The fault period in rounds.
    pub fn period(&self) -> u64 {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Folds a placement into a load configuration over `n` bins.
    fn placement_to_config(n: usize, placement: &[usize]) -> Config {
        let mut loads = vec![0u32; n];
        for &b in placement {
            loads[b] += 1;
        }
        Config::from_loads(loads)
    }

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from(1)
    }

    #[test]
    fn all_in_one_places_everything_in_bin_zero() {
        let mut adv = AllInOneAdversary;
        let cur = Config::one_per_bin(8);
        let p = adv.placement(8, 8, &cur, &mut rng());
        assert_eq!(p, vec![0; 8]);
        let cfg = placement_to_config(8, &p);
        assert_eq!(cfg.max_load(), 8);
        assert_eq!(cfg.total_balls(), 8);
    }

    #[test]
    fn packed_spreads_over_k() {
        let mut adv = PackedAdversary { k: 3 };
        let cur = Config::one_per_bin(10);
        let p = adv.placement(10, 10, &cur, &mut rng());
        let cfg = placement_to_config(10, &p);
        assert_eq!(cfg.nonempty_bins(), 3);
        assert_eq!(cfg.total_balls(), 10);
    }

    #[test]
    fn packed_clamps_k() {
        let mut adv = PackedAdversary { k: 100 };
        let p = adv.placement(4, 4, &Config::one_per_bin(4), &mut rng());
        assert!(p.iter().all(|&b| b < 4));
    }

    #[test]
    fn follow_the_leader_targets_fullest() {
        let mut adv = FollowTheLeaderAdversary;
        let cur = Config::from_loads(vec![1, 5, 2]);
        let p = adv.placement(3, 8, &cur, &mut rng());
        assert_eq!(p, vec![1; 8]);
    }

    #[test]
    fn random_adversary_conserves_mass() {
        let mut adv = RandomAdversary;
        let p = adv.placement(16, 16, &Config::one_per_bin(16), &mut rng());
        assert_eq!(p.len(), 16);
        assert_eq!(placement_to_config(16, &p).total_balls(), 16);
    }

    #[test]
    fn fault_schedule_fires_on_multiples() {
        let s = FaultSchedule::every(10);
        assert!(!s.is_faulty(0));
        assert!(!s.is_faulty(9));
        assert!(s.is_faulty(10));
        assert!(s.is_faulty(20));
        assert_eq!(s.faults_up_to(35), 3);
    }

    #[test]
    fn gamma_n_parameterization() {
        let s = FaultSchedule::gamma_n(6, 100);
        assert_eq!(s.period(), 600);
        assert!(s.is_faulty(600));
        assert!(!s.is_faulty(599));
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_rejected() {
        FaultSchedule::every(0);
    }

    #[test]
    fn labels_distinct() {
        let labels = [
            AllInOneAdversary.label(),
            PackedAdversary { k: 2 }.label(),
            FollowTheLeaderAdversary.label(),
            RandomAdversary.label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
