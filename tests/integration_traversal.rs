//! Cross-crate integration: traversal + faults + graphs + stats.

use std::sync::Arc;

use rbb_core::adversary::{AllInOneAdversary, FaultSchedule, FollowTheLeaderAdversary};
use rbb_core::ball_process::BallProcess;
use rbb_core::config::Config;
use rbb_core::rng::Xoshiro256pp;
use rbb_core::strategy::QueueStrategy;
use rbb_graphs::complete_with_loops;
use rbb_stats::{power_fit, Summary};
use rbb_traversal::{faulty_cover_time, single_token_cover_time, ProgressReport, Traversal};

/// Corollary 1 end-to-end: parallel cover time scales like n·polylog(n) —
/// a power fit over a size sweep has exponent close to 1 (with the log²
/// correction pushing it slightly above).
#[test]
fn parallel_cover_time_scaling() {
    let sizes = [64usize, 128, 256, 512];
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in &sizes {
        let mut s = Summary::new();
        for t in 0..3u64 {
            let mut tr = Traversal::new(n, QueueStrategy::Fifo, 500 + t);
            s.push(tr.run_to_cover(100_000_000).expect("covers") as f64);
        }
        xs.push(n as f64);
        ys.push(s.mean());
    }
    let fit = power_fit(&xs, &ys);
    assert!(
        fit.exponent > 1.0 && fit.exponent < 1.75,
        "exponent {} (expect ~1.3 for n log² n over this range)",
        fit.exponent
    );
    assert!(fit.r_squared > 0.95, "R² {}", fit.r_squared);
}

/// The traversal on the clique and the token walk on K_n-with-loops are one
/// process: `complete_with_loops(n)` lists every vertex's neighbors as
/// `0..n`, so a neighbor draw is the uniform draw. From the same stream
/// they cover at the same round with the same visited sets.
#[test]
fn traversal_engines_agree_on_clique() {
    let n = 64;
    for (t, strategy) in (0..5u64).zip(QueueStrategy::ALL.iter().cycle()) {
        let seed = 600 + t;
        let mut uniform = Traversal::new(n, *strategy, seed);
        let start = Config::one_per_bin(n);
        let walk = BallProcess::new(start, *strategy, Xoshiro256pp::stream(seed, 0))
            .with_graph(Arc::new(complete_with_loops(n)));
        let mut clique = Traversal::from_process(walk);
        let cover = uniform.run_to_cover(10_000_000).expect("covers");
        assert_eq!(clique.run_to_cover(10_000_000), Some(cover), "seed {seed}");
        for token in 0..n {
            assert_eq!(
                uniform.visited(token),
                clique.visited(token),
                "token {token}"
            );
        }
        for bin in 0..n {
            assert_eq!(uniform.process().queue(bin), clique.process().queue(bin));
        }
    }
}

/// §4.1 end-to-end: γ = 6 faults from two different adversaries leave the
/// cover time within a constant factor of fault-free.
#[test]
fn fault_resilience_constant_factor() {
    let n = 96;
    let cap = 50_000_000;
    let clean = {
        let mut t = Traversal::new(n, QueueStrategy::Fifo, 42);
        t.run_to_cover(cap).unwrap() as f64
    };
    for seed in 0..3u64 {
        let mut adv = AllInOneAdversary;
        let r = faulty_cover_time(
            n,
            QueueStrategy::Fifo,
            FaultSchedule::gamma_n(6, n),
            &mut adv,
            800 + seed,
            cap,
        );
        let faulty = r.cover_time.expect("covers despite faults") as f64;
        assert!(faulty < 30.0 * clean, "slowdown {}", faulty / clean);

        let mut adv = FollowTheLeaderAdversary;
        let r = faulty_cover_time(
            n,
            QueueStrategy::Fifo,
            FaultSchedule::gamma_n(6, n),
            &mut adv,
            900 + seed,
            cap,
        );
        assert!(r.cover_time.is_some(), "follow-the-leader broke coverage");
    }
}

/// Single-token vs parallel: the measured slowdown is logarithmic-scale,
/// not polynomial — doubling n should roughly add a constant to the ratio,
/// not multiply it.
#[test]
fn slowdown_is_subpolynomial() {
    let mut ratios = Vec::new();
    for &n in &[64usize, 256] {
        let mut par = Summary::new();
        let mut single = Summary::new();
        for t in 0..3u64 {
            let mut tr = Traversal::new(n, QueueStrategy::Fifo, 1000 + t);
            par.push(tr.run_to_cover(100_000_000).unwrap() as f64);
            single.push(single_token_cover_time(n, 1100 + t, 100_000_000).unwrap() as f64);
        }
        ratios.push(par.mean() / single.mean());
    }
    // n quadrupled: a log-factor ratio grows by ~ln 4 ≈ 1.4 additively, so
    // the ratio of ratios stays well under 4 (it would be 4 if polynomial).
    assert!(
        ratios[1] / ratios[0] < 2.5,
        "slowdown grew polynomially: {ratios:?}"
    );
}

/// FIFO progress guarantee composes with the traversal run.
#[test]
fn progress_holds_after_cover() {
    let n = 128;
    let mut t = Traversal::new(n, QueueStrategy::Fifo, 1200);
    t.run_to_cover(100_000_000).unwrap();
    let report = ProgressReport::from_process(t.process());
    // Every token moved at least t/(2 ln n) times.
    assert!(
        report.min_progress_ratio() > 0.5,
        "min progress ratio {}",
        report.min_progress_ratio()
    );
    // And the worst FIFO wait stayed logarithmic.
    assert!(report.max_wait < 40, "max wait {}", report.max_wait);
}
