//! Fault-injected traversal (§4.1): adversarial reassignment every `γ·n`
//! rounds, with cover-time measurement.

use rbb_core::adversary::{Adversary, FaultSchedule};
use rbb_core::engine::Faults;
use rbb_core::rng::Xoshiro256pp;
use rbb_core::strategy::QueueStrategy;

use crate::traversal::Traversal;

/// Result of a faulty traversal run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultyCoverResult {
    /// Parallel cover time (None if the cap was hit).
    pub cover_time: Option<u64>,
    /// Number of faults injected before coverage completed.
    pub faults_injected: u64,
}

/// Runs multi-token traversal with faults every `schedule.period()` rounds;
/// in each faulty round the `adversary` reassigns all tokens.
///
/// Per the paper, with period `γ·n` (`γ ≥ 6`) the `O(n log² n)` cover bound
/// survives with a constant-factor slowdown.
pub fn faulty_cover_time(
    n: usize,
    strategy: QueueStrategy,
    schedule: FaultSchedule,
    adversary: &mut dyn Adversary,
    seed: u64,
    cap: u64,
) -> FaultyCoverResult {
    let mut traversal = Traversal::new(n, strategy, seed);
    let mut adv_rng = Xoshiro256pp::stream(seed, 0xADFE);
    let mut faults = 0u64;
    while !traversal.all_covered() {
        if traversal.round() >= cap {
            return FaultyCoverResult {
                cover_time: None,
                faults_injected: faults,
            };
        }
        traversal.step();
        if schedule.is_faulty(traversal.round()) && !traversal.all_covered() {
            let placement = adversary.placement(
                n,
                traversal.tokens(),
                traversal.process().config(),
                &mut adv_rng,
            );
            traversal.apply_fault(&placement);
            faults += 1;
        }
    }
    FaultyCoverResult {
        cover_time: Some(traversal.round()),
        faults_injected: faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbb_core::adversary::{AllInOneAdversary, RandomAdversary};

    #[test]
    fn fault_free_equals_plain_traversal() {
        // A schedule that never fires within the horizon.
        let n = 32;
        let schedule = FaultSchedule::every(u64::MAX / 2);
        let mut adv = AllInOneAdversary;
        let r = faulty_cover_time(n, QueueStrategy::Fifo, schedule, &mut adv, 1, 10_000_000);
        assert!(r.cover_time.is_some());
        assert_eq!(r.faults_injected, 0);
    }

    #[test]
    fn faults_are_injected_and_coverage_still_completes() {
        let n = 32;
        // γ = 6 — the paper's threshold.
        let schedule = FaultSchedule::gamma_n(6, n);
        let mut adv = AllInOneAdversary;
        let r = faulty_cover_time(n, QueueStrategy::Fifo, schedule, &mut adv, 2, 10_000_000);
        assert!(r.cover_time.is_some(), "coverage must survive γ=6 faults");
        assert!(r.faults_injected >= 1, "horizon long enough for faults");
    }

    #[test]
    fn adversarial_slowdown_is_bounded() {
        let n = 48;
        let mut adv = AllInOneAdversary;
        let clean = faulty_cover_time(
            n,
            QueueStrategy::Fifo,
            FaultSchedule::every(u64::MAX / 2),
            &mut adv,
            3,
            10_000_000,
        )
        .cover_time
        .unwrap();
        let faulty = faulty_cover_time(
            n,
            QueueStrategy::Fifo,
            FaultSchedule::gamma_n(6, n),
            &mut adv,
            3,
            10_000_000,
        )
        .cover_time
        .unwrap();
        // Constant-factor slowdown (generous bound for small n).
        assert!(
            faulty < 20 * clean + 1000,
            "faulty {faulty} vs clean {clean}"
        );
    }

    #[test]
    fn random_adversary_is_benign() {
        let n = 32;
        let mut adv = RandomAdversary;
        let r = faulty_cover_time(
            n,
            QueueStrategy::Fifo,
            FaultSchedule::gamma_n(6, n),
            &mut adv,
            4,
            10_000_000,
        );
        assert!(r.cover_time.is_some());
    }

    #[test]
    fn cap_reports_faults() {
        let n = 64;
        let mut adv = AllInOneAdversary;
        let r = faulty_cover_time(
            n,
            QueueStrategy::Fifo,
            FaultSchedule::every(10),
            &mut adv,
            5,
            100,
        );
        // Faults every 10 rounds on a 100-round cap: likely cannot cover.
        assert_eq!(r.cover_time, None);
        assert!(r.faults_injected >= 9);
    }
}
