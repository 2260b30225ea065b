//! A side-by-side zoo of every process in the workspace: the paper's
//! process, its Tetris majorant, the batched variant, and all baselines —
//! one table, same n, same window.
//!
//! Run: `cargo run --release --example process_zoo`

use rbb_baselines::{IndependentWalks, JacksonNetwork};
use rbb_core::load::Rule;
use rbb_core::metrics::MaxLoadTracker;
use rbb_core::prelude::*;

fn main() {
    let n = 1024;
    let window = 50_000u64;
    let nf = n as f64;
    println!(
        "process zoo: n = {n}, window = {window} rounds (ln n = {:.1})\n",
        nf.ln()
    );
    println!("{:<34} {:>8} {:>12}", "process", "max load", "max/ln n");
    println!("{}", "-".repeat(58));

    let row = |name: &str, max: f64| {
        println!("{name:<34} {max:>8.1} {:>12.2}", max / nf.ln());
    };

    // The paper's process.
    let mut p = LoadProcess::new(Config::one_per_bin(n), Xoshiro256pp::seed_from(1));
    let mut t = MaxLoadTracker::new();
    p.run(window, &mut t);
    row("repeated balls-into-bins (paper)", t.window_max() as f64);

    // Tetris majorant (Section 3).
    let mut tet = Tetris::new(Config::one_per_bin(n), Xoshiro256pp::seed_from(2));
    let mut t = MaxLoadTracker::new();
    tet.run(window, &mut t);
    row("tetris majorant (3n/4 arrivals)", t.window_max() as f64);

    // Batched Tetris ([18]).
    for lambda in [0.5, 0.75, 0.95] {
        let mut bt = BatchedTetris::new(Config::one_per_bin(n), lambda, Xoshiro256pp::seed_from(3));
        let mut t = MaxLoadTracker::new();
        bt.run(window, &mut t);
        row(
            &format!("batched tetris λ = {lambda}"),
            t.window_max() as f64,
        );
    }

    // d-choice ([36]): the paper's process with the best of d uniform bins.
    for d in [1usize, 2] {
        let mut dc = LoadProcess::legitimate_start(n, 4).with_rule(Rule::BestOf(d));
        let mut t = MaxLoadTracker::new();
        dc.run(window, &mut t);
        row(&format!("repeated {d}-choice"), t.window_max() as f64);
    }

    // Independent (unconstrained) walks.
    let mut iw = IndependentWalks::legitimate_start(n, 5);
    let mut t = MaxLoadTracker::new();
    iw.run(window, &mut t);
    row("independent walks (no constraint)", t.window_max() as f64);

    // Closed Jackson network ([30]) — sequential events; use matched count.
    let mut j = JacksonNetwork::legitimate_start(n, 6);
    let hist = j.run_events(window);
    row(
        "closed jackson network (max seen)",
        hist.max_value().unwrap_or(0) as f64,
    );

    println!(
        "\nreading: every constrained variant sits at the Θ(log n) level; 2-choice collapses it; \
         \nthe paper's contribution is proving the first row stays there for poly(n) rounds."
    );
}
