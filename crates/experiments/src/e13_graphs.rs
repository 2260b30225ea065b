//! E13 — Section 5 open question: general graphs.
//!
//! The paper conjectures the maximum load stays logarithmic for a long
//! period on any *regular* graph, and notes that even rings are open. We run
//! the constrained parallel walk on ring, torus, hypercube, random 4-regular
//! and the clique (with self-loops — exactly the paper's process) at matched
//! `n`, and report window max loads; non-regular controls (star) show how
//! irregularity breaks the conjecture.

use rbb_core::metrics::ObserverStack;
use rbb_sim::{fmt_f64, run_trials_seeded, ScenarioSpec, Table, TopologySpec};
use rbb_stats::Summary;

use crate::common::{header, ExpContext};

/// One row of the E13 table.
#[derive(Debug, Clone, serde::Serialize)]
pub struct E13Row {
    /// Topology label.
    pub topology: String,
    /// Number of nodes.
    pub n: usize,
    /// Regular degree, if regular.
    pub degree: Option<usize>,
    /// Window length.
    pub window: u64,
    /// Mean window max load.
    pub mean_window_max: f64,
    /// `mean / ln n`.
    pub ratio_to_ln_n: f64,
}

fn topology_spec(name: &str) -> TopologySpec {
    match name {
        // Through the graph walk's neighbor sampler, keeping every row of
        // the table on the same sampling footing (bit-identical to the
        // clique engine: the neighbor draw is the uniform draw).
        "clique+loops" => TopologySpec::CompleteGraph,
        "ring" => TopologySpec::Ring,
        "torus" => TopologySpec::Torus,
        "hypercube" => TopologySpec::Hypercube,
        // The historical per-trial graph stream: `seed ^ 0x6EA9`.
        "random-4-regular" => TopologySpec::RandomRegular {
            degree: 4,
            salt: 0x6EA9,
        },
        "star" => TopologySpec::Star,
        other => panic!("unknown topology {other}"),
    }
}

/// All topologies in the sweep.
pub const TOPOLOGIES: [&str; 6] = [
    "clique+loops",
    "hypercube",
    "torus",
    "random-4-regular",
    "ring",
    "star",
];

/// The declarative scenario behind one E13 cell: the load-only constrained
/// walk on the named topology for `window_factor · n` rounds (the factor
/// horizon tracks the builder's rounding of `n`, as before).
pub fn spec_for(name: &str, n: usize, window_factor: u64) -> ScenarioSpec {
    ScenarioSpec::builder(n)
        .name("e13-graphs")
        .topology(topology_spec(name))
        .horizon_factor(window_factor)
        .build()
}

/// Computes the topology table at size ~`n` (exact for powers of two /
/// perfect squares; the builders round as needed).
///
/// Note the clique row runs through [`TopologySpec::CompleteGraph`], the
/// graph walk on the complete graph with self-loops: its neighbor draw is
/// the uniform draw, so the row is bit-identical to the dedicated load
/// engine's uniform walk.
pub fn compute(ctx: &ExpContext, n: usize, trials: usize, window_factor: u64) -> Vec<E13Row> {
    TOPOLOGIES
        .iter()
        .map(|&name| {
            let scope = ctx.seeds.scope(&format!("{name}-n{n}"));
            let maxes: Vec<u32> = run_trials_seeded(scope, trials, |_i, seed| {
                let mut scenario = spec_for(name, n, window_factor)
                    .scenario_seeded(seed)
                    .expect("valid spec");
                let mut stack = ObserverStack::new().with_max_load();
                scenario.run_observed(&mut stack);
                stack.max_load.expect("enabled").window_max()
            });
            // Rebuild once to report structure (deterministic topologies).
            let g = topology_spec(name).build(n, 0);
            let actual_n = g.n();
            let s = Summary::from_iter(maxes.iter().map(|&x| x as f64));
            E13Row {
                topology: name.to_string(),
                n: actual_n,
                degree: g.regular_degree(),
                window: window_factor * actual_n as u64,
                mean_window_max: s.mean(),
                ratio_to_ln_n: s.mean() / (actual_n as f64).ln(),
            }
        })
        .collect()
}

/// Runs and prints E13.
pub fn run(ctx: &ExpContext) {
    header(
        "e13",
        "constrained parallel walks on general graphs (Section 5 open question)",
        "conjecture: max load stays logarithmic on regular graphs; rings are the hard open case",
    );
    let n = ctx.pick(1024, 256);
    let trials = ctx.pick(10, 3);
    let window_factor = ctx.pick(100, 20);
    let rows = compute(ctx, n, trials, window_factor);

    let mut table = Table::new([
        "topology",
        "n",
        "degree",
        "window",
        "mean window max",
        "mean/ln n",
    ]);
    for r in &rows {
        table.row([
            r.topology.clone(),
            r.n.to_string(),
            r.degree.map(|d| d.to_string()).unwrap_or("-".into()),
            r.window.to_string(),
            fmt_f64(r.mean_window_max, 2),
            fmt_f64(r.ratio_to_ln_n, 3),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nregular topologies stay O(log n)-flat (supporting the conjecture); \
         the star (non-regular control) concentrates load at the hub."
    );
    let _ = ctx.sink.write_json("rows", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_graphs_stay_logarithmic() {
        let ctx = ExpContext::for_tests("e13");
        let rows = compute(&ctx, 256, 2, 10);
        for r in rows.iter().filter(|r| r.degree.is_some()) {
            assert!(
                r.ratio_to_ln_n < 6.0,
                "{}: ratio {}",
                r.topology,
                r.ratio_to_ln_n
            );
        }
    }

    #[test]
    fn star_is_worst() {
        let ctx = ExpContext::for_tests("e13");
        let rows = compute(&ctx, 256, 2, 10);
        let star = rows.iter().find(|r| r.topology == "star").unwrap();
        let clique = rows.iter().find(|r| r.topology == "clique+loops").unwrap();
        assert!(
            star.mean_window_max > clique.mean_window_max,
            "star {} vs clique {}",
            star.mean_window_max,
            clique.mean_window_max
        );
    }

    #[test]
    fn topologies_build_at_256() {
        for t in TOPOLOGIES {
            let g = topology_spec(t).build(256, 1);
            assert!(g.is_connected(), "{t} disconnected");
        }
    }
}
