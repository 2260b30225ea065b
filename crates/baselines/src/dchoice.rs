//! The repeated `d`-choice process (reference \[36\], Czumaj & Stemann):
//! like the paper's process, but each re-assigned ball samples `d` bins
//! u.a.r. and joins the least loaded.
//!
//! For `d = 1` this is exactly the paper's process; for `d = 2` the
//! power-of-two-choices effect drives the maximum load down to
//! `O(log log n)`-scale. Experiment E14 contrasts the two.
//!
//! The process is the core load engine under a destination rule:
//! `LoadProcess::new(config, rng).with_rule(Rule::BestOf(d))` (see
//! [`rbb_core::load::Rule::BestOf`]). Every ball compares its `d`
//! candidates on the *start-of-round* loads, matching the parallel model of
//! the paper, and ties go to the first draw. The tests below pin the
//! comparator's behaviour against the paper's process.

#[cfg(test)]
mod tests {
    use rbb_core::config::Config;
    use rbb_core::engine::Engine;
    use rbb_core::load::Rule;
    use rbb_core::metrics::MaxLoadTracker;
    use rbb_core::process::LoadProcess;
    use rbb_core::rng::Xoshiro256pp;

    /// One ball per bin, `d` choices.
    fn dchoice(n: usize, d: usize, seed: u64) -> LoadProcess {
        LoadProcess::legitimate_start(n, seed).with_rule(Rule::BestOf(d))
    }

    #[test]
    fn conserves_balls() {
        let mut p = dchoice(64, 2, 1);
        for _ in 0..200 {
            p.step();
            assert_eq!(p.config().total_balls(), 64);
        }
    }

    #[test]
    fn d1_behaves_like_original() {
        // d = 1 is the paper's process, draw for draw.
        let n = 256;
        let mut p = dchoice(n, 1, 2);
        let mut original = LoadProcess::legitimate_start(n, 2);
        let mut t = MaxLoadTracker::new();
        p.run(2000, &mut t);
        original.run_silent(2000);
        assert_eq!(p.config(), original.config());
        assert!(t.window_max() < 24, "d=1 max load {}", t.window_max());
    }

    #[test]
    fn two_choices_beats_one_choice() {
        let n = 1024;
        let rounds = 3000;
        let mut one = dchoice(n, 1, 3);
        let mut t1 = MaxLoadTracker::new();
        one.run(rounds, &mut t1);
        let mut two = dchoice(n, 2, 3);
        let mut t2 = MaxLoadTracker::new();
        two.run(rounds, &mut t2);
        assert!(
            t2.window_max() < t1.window_max(),
            "d=2 ({}) should beat d=1 ({})",
            t2.window_max(),
            t1.window_max()
        );
        // Power of two choices, parallel flavor: collisions among same-round
        // arrivals keep it above the sequential O(log log n), but it stays
        // well below the d=1 logarithmic level.
        assert!(t2.window_max() <= 10, "d=2 max load {}", t2.window_max());
    }

    #[test]
    fn rejects_zero_choices() {
        let result = std::panic::catch_unwind(|| {
            dchoice(8, 0, 4);
        });
        assert!(result.is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = dchoice(32, 2, 5);
        let mut b = LoadProcess::new(Config::one_per_bin(32), Xoshiro256pp::seed_from(5))
            .with_rule(Rule::BestOf(2));
        for _ in 0..100 {
            a.step();
            b.step();
        }
        assert_eq!(a.config(), b.config());
    }
}
