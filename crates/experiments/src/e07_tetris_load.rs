//! E07 — Lemma 6: Tetris max load stays O(log n).
//!
//! Started from a legitimate configuration, the Tetris process keeps
//! `M̂(t) = O(log n)` over any polynomial window w.h.p. Same protocol as E01
//! but for the majorant process; its window max should sit slightly *above*
//! the original's (it dominates) while remaining logarithmic.

use rbb_core::config::Config;
use rbb_core::engine::Engine;
use rbb_core::metrics::MaxLoadTracker;
use rbb_core::rng::Xoshiro256pp;
use rbb_core::tetris::Tetris;
use rbb_sim::{fmt_f64, sweep_par_seeded, Table};
use rbb_stats::{log_fit, Summary};

use crate::common::{header, ExpContext};

/// One row of the E07 table.
#[derive(Debug, Clone, serde::Serialize)]
pub struct E07Row {
    /// Number of bins.
    pub n: usize,
    /// Window length.
    pub window: u64,
    /// Trials.
    pub trials: usize,
    /// Mean window max load of Tetris.
    pub mean_window_max: f64,
    /// Worst window max.
    pub worst_window_max: u32,
    /// `mean / ln n`.
    pub ratio_to_ln_n: f64,
}

/// The measured window: `min(200·n, n²)` rounds (the E01 protocol).
fn window_for(n: usize) -> u64 {
    (200 * n as u64).min((n as u64) * (n as u64))
}

/// Computes the Tetris stability table as one parallel (n × trial) grid;
/// seeds are derived as before, so the published numbers are unchanged.
pub fn compute(ctx: &ExpContext, sizes: &[usize], trials: usize) -> Vec<E07Row> {
    sweep_par_seeded(
        ctx.seeds,
        sizes,
        trials,
        |n| format!("n{n}"),
        |&n, _i, seed| {
            let mut t = Tetris::new(Config::one_per_bin(n), Xoshiro256pp::seed_from(seed));
            let mut tracker = MaxLoadTracker::new();
            t.run(window_for(n), &mut tracker);
            tracker.window_max()
        },
    )
    .into_iter()
    .map(|(n, maxes)| {
        let window = window_for(n);
        let s = Summary::from_iter(maxes.iter().map(|&m| m as f64));
        E07Row {
            n,
            window,
            trials,
            mean_window_max: s.mean(),
            worst_window_max: s.max() as u32,
            ratio_to_ln_n: s.mean() / (n as f64).ln(),
        }
    })
    .collect()
}

/// Runs and prints E07.
pub fn run(ctx: &ExpContext) {
    header(
        "e07",
        "Tetris max load over a polynomial window (Lemma 6)",
        "from a legitimate start, the Tetris process keeps max load O(log n) over O(n^c) rounds w.h.p.",
    );
    let sizes: Vec<usize> = ctx.pick(vec![256, 512, 1024, 2048, 4096, 8192], vec![128, 256]);
    let trials = ctx.pick(10, 3);
    let rows = compute(ctx, &sizes, trials);

    let mut table = Table::new([
        "n",
        "window",
        "trials",
        "mean window max",
        "worst",
        "mean/ln n",
    ]);
    for r in &rows {
        table.row([
            r.n.to_string(),
            r.window.to_string(),
            r.trials.to_string(),
            fmt_f64(r.mean_window_max, 2),
            r.worst_window_max.to_string(),
            fmt_f64(r.ratio_to_ln_n, 3),
        ]);
    }
    print!("{}", table.render());

    if rows.len() >= 3 {
        let xs: Vec<f64> = rows.iter().map(|r| r.n as f64).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r.mean_window_max).collect();
        let fit = log_fit(&xs, &ys);
        println!(
            "\nlog fit: window max ≈ {} + {}·ln n   (R² = {})",
            fmt_f64(fit.intercept, 2),
            fmt_f64(fit.slope, 2),
            fmt_f64(fit.r_squared, 4)
        );
    }
    let _ = ctx.sink.write_json("rows", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tetris_window_max_is_logarithmic() {
        let ctx = ExpContext::for_tests("e07");
        let rows = compute(&ctx, &[128, 256], 3);
        for r in &rows {
            assert!(
                r.ratio_to_ln_n < 6.5,
                "n={}: ratio {}",
                r.n,
                r.ratio_to_ln_n
            );
            assert!(r.mean_window_max >= 1.0);
        }
    }

    #[test]
    fn tetris_dominates_original_in_expectation() {
        let ctx = ExpContext::for_tests("e07");
        let tetris = compute(&ctx, &[256], 3);
        // The paper's process over E01's window at n = 256.
        let scenario = rbb_sim::ScenarioSpec::builder(256)
            .horizon_rounds(51_200)
            .build();
        let master = ExpContext::for_tests("e01").seeds.scope("n256").master();
        let orig = rbb_sim::EnsembleSpec::new(scenario, master, 3)
            .run()
            .unwrap();
        let orig = orig.metric(rbb_sim::MetricKind::WindowMaxLoad).unwrap();
        // Tetris majorizes: its window max should not be smaller on average
        // (allow tiny slack for independent seeds).
        assert!(tetris[0].mean_window_max + 1.0 >= orig.mean);
    }
}
