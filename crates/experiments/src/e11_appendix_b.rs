//! E11 — Appendix B: arrivals are not negatively associated.
//!
//! For `n = 2` started from `(1,1)`, the arrival counts `X₁, X₂` at bin 0 in
//! rounds 1 and 2 satisfy exactly
//! `P(X₁=0,X₂=0) = 1/8 > P(X₁=0)·P(X₂=0) = 1/4 · 3/8 = 3/32`.
//! We reproduce the numbers twice: exactly (enumeration through the generic
//! kernel) and by Monte Carlo with Wilson confidence intervals.

use rbb_core::config::Config;
use rbb_core::engine::Engine;
use rbb_core::exact::{appendix_b_exact, AppendixB};
use rbb_core::process::LoadProcess;
use rbb_core::rng::Xoshiro256pp;
use rbb_sim::{fmt_f64, run_trials_seeded, Table};
use rbb_stats::wilson_ci;

use crate::common::{header, ExpContext};

/// Monte Carlo estimates of the Appendix-B events.
#[derive(Debug, Clone, serde::Serialize)]
pub struct E11Monte {
    /// Trials run.
    pub trials: usize,
    /// Estimate of `P(X₁=0)`.
    pub p_x1_zero: f64,
    /// Estimate of `P(X₂=0)`.
    pub p_x2_zero: f64,
    /// Estimate of the joint `P(X₁=0, X₂=0)`.
    pub p_joint_zero: f64,
}

/// Simulates two rounds of the `n = 2` process from `(1,1)` and reports the
/// indicator pair (X₁ = 0, X₂ = 0). Arrival counts at bin 0 are recovered
/// from the update rule `arrivals = Q'(0) − max(Q(0) − 1, 0)`.
fn one_trial(seed: u64) -> (bool, bool) {
    let mut p = LoadProcess::new(Config::one_per_bin(2), Xoshiro256pp::seed_from(seed));
    let q0_before = p.config().loads()[0];
    p.step();
    let q0_mid = p.config().loads()[0];
    let x1 = q0_mid - q0_before.saturating_sub(1);
    p.step();
    let x2 = p.config().loads()[0] - q0_mid.saturating_sub(1);
    (x1 == 0, x2 == 0)
}

/// Runs the Monte Carlo estimate.
pub fn compute_monte(ctx: &ExpContext, trials: usize) -> E11Monte {
    let outcomes: Vec<(bool, bool)> =
        run_trials_seeded(ctx.seeds.scope("mc"), trials, |_i, seed| one_trial(seed));
    let c1 = outcomes.iter().filter(|(a, _)| *a).count();
    let c2 = outcomes.iter().filter(|(_, b)| *b).count();
    let cj = outcomes.iter().filter(|(a, b)| *a && *b).count();
    E11Monte {
        trials,
        p_x1_zero: c1 as f64 / trials as f64,
        p_x2_zero: c2 as f64 / trials as f64,
        p_joint_zero: cj as f64 / trials as f64,
    }
}

/// Runs and prints E11.
pub fn run(ctx: &ExpContext) {
    header(
        "e11",
        "the negative-association counterexample (Appendix B)",
        "n=2 from (1,1): P(X1=0,X2=0) = 1/8 > 1/4 · 3/8 = P(X1=0)P(X2=0) — arrivals are positively associated",
    );
    let exact: AppendixB = appendix_b_exact();
    let trials = ctx.pick(1_000_000, 50_000);
    let mc = compute_monte(ctx, trials);

    let mut table = Table::new(["quantity", "paper", "exact kernel", "monte carlo", "95% CI"]);
    let ci = |hits: f64| {
        let c = wilson_ci((hits * trials as f64).round() as u64, trials as u64, 0.95);
        format!("[{}, {}]", fmt_f64(c.lo, 4), fmt_f64(c.hi, 4))
    };
    table.row([
        "P(X1=0)".to_string(),
        "1/4 = 0.2500".to_string(),
        fmt_f64(exact.p_x1_zero, 4),
        fmt_f64(mc.p_x1_zero, 4),
        ci(mc.p_x1_zero),
    ]);
    table.row([
        "P(X2=0)".to_string(),
        "3/8 = 0.3750".to_string(),
        fmt_f64(exact.p_x2_zero, 4),
        fmt_f64(mc.p_x2_zero, 4),
        ci(mc.p_x2_zero),
    ]);
    table.row([
        "P(X1=0,X2=0)".to_string(),
        "1/8 = 0.1250".to_string(),
        fmt_f64(exact.p_joint_zero, 4),
        fmt_f64(mc.p_joint_zero, 4),
        ci(mc.p_joint_zero),
    ]);
    table.row([
        "product".to_string(),
        "3/32 = 0.09375".to_string(),
        fmt_f64(exact.p_x1_zero * exact.p_x2_zero, 5),
        fmt_f64(mc.p_x1_zero * mc.p_x2_zero, 5),
        "-".to_string(),
    ]);
    print!("{}", table.render());
    println!(
        "\njoint > product ⇒ NOT negatively associated (exact: {} > {}).",
        fmt_f64(exact.p_joint_zero, 4),
        fmt_f64(exact.p_x1_zero * exact.p_x2_zero, 5)
    );
    let _ = ctx.sink.write_json("monte", &mc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_matches_paper() {
        let e = appendix_b_exact();
        assert!((e.p_x1_zero - 0.25).abs() < 1e-14);
        assert!((e.p_x2_zero - 0.375).abs() < 1e-14);
        assert!((e.p_joint_zero - 0.125).abs() < 1e-14);
    }

    #[test]
    fn monte_carlo_agrees_with_exact() {
        let ctx = ExpContext::for_tests("e11");
        let mc = compute_monte(&ctx, 100_000);
        assert!((mc.p_x1_zero - 0.25).abs() < 0.01, "{}", mc.p_x1_zero);
        assert!((mc.p_x2_zero - 0.375).abs() < 0.01, "{}", mc.p_x2_zero);
        assert!(
            (mc.p_joint_zero - 0.125).abs() < 0.01,
            "{}",
            mc.p_joint_zero
        );
        // The violation itself.
        assert!(mc.p_joint_zero > mc.p_x1_zero * mc.p_x2_zero);
    }
}
