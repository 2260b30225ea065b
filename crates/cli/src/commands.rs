//! CLI subcommand implementations.

use rbb_core::adversary::{
    Adversary, AllInOneAdversary, FaultSchedule, FollowTheLeaderAdversary, RandomAdversary,
};
use rbb_core::config::{Config, LegitimacyThreshold};
use rbb_core::engine::Engine;
use rbb_core::exact::{appendix_b_exact, ExactChain};
use rbb_core::load::Rule;
use rbb_core::metrics::ObserverStack;
use rbb_core::mixing::mixing_time;
use rbb_core::process::LoadProcess;
use rbb_core::rng::Xoshiro256pp;
use rbb_core::sampling::random_assignment;
use rbb_core::strategy::QueueStrategy;
use rbb_graphs::{
    complete_with_loops, diameter, hypercube, random_regular, ring, spectral_gap, star, torus,
    Graph,
};
use rbb_sim::{fmt_f64, EnsembleSpec, HorizonSpec, ScenarioSpec, StopSpec};
use rbb_traversal::{faulty_cover_time, single_token_cover_time, ProgressReport, Traversal};

use crate::args::{Args, ParseError};

/// Builds an initial configuration from a `--start` flag value.
pub fn build_start(kind: &str, n: usize, seed: u64) -> Result<Config, ParseError> {
    match kind {
        "one-per-bin" | "uniform" => Ok(Config::one_per_bin(n)),
        "all-in-one" => Ok(Config::all_in_one(n, n as u32)),
        "random" => {
            let mut rng = Xoshiro256pp::seed_from(seed ^ 0x57A7);
            Ok(Config::from_loads(random_assignment(&mut rng, n, n as u64)))
        }
        "geometric" => Ok(Config::geometric_cascade(n, n as u32)),
        other => Err(ParseError(format!(
            "unknown --start '{other}' (one-per-bin | all-in-one | random | geometric)"
        ))),
    }
}

/// Builds a queue strategy from a `--strategy` flag value.
pub fn build_strategy(kind: &str) -> Result<QueueStrategy, ParseError> {
    match kind {
        "fifo" => Ok(QueueStrategy::Fifo),
        "lifo" => Ok(QueueStrategy::Lifo),
        "random" => Ok(QueueStrategy::Random),
        other => Err(ParseError(format!(
            "unknown --strategy '{other}' (fifo | lifo | random)"
        ))),
    }
}

/// Builds a topology from a `--kind` flag value at size ~`n`.
pub fn build_topology(kind: &str, n: usize, seed: u64) -> Result<Graph, ParseError> {
    match kind {
        "clique" => Ok(complete_with_loops(n)),
        "ring" => Ok(ring(n)),
        "torus" => {
            let side = (n as f64).sqrt().round().max(3.0) as usize;
            Ok(torus(side, side))
        }
        "hypercube" => Ok(hypercube((n as f64).log2().round().max(1.0) as u32)),
        "regular" => {
            let mut rng = Xoshiro256pp::seed_from(seed ^ 0x6E0);
            Ok(random_regular(n, 4, &mut rng))
        }
        "star" => Ok(star(n)),
        other => Err(ParseError(format!(
            "unknown --kind '{other}' (clique | ring | torus | hypercube | regular | star)"
        ))),
    }
}

/// Prints the post-run summary shared by `sim` and `simulate`.
fn print_summary(n: usize, stack: &ObserverStack, threshold: LegitimacyThreshold) {
    if let Some(max_t) = &stack.max_load {
        println!(
            "  max load over window : {} (bound 4 ln n = {})",
            max_t.window_max(),
            threshold.bound(n)
        );
        println!(
            "  mean per-round max   : {}",
            fmt_f64(max_t.mean_round_max(), 2)
        );
    }
    if let Some(empty_t) = &stack.empty_bins {
        println!(
            "  min empty bins       : {} ({}%; paper: ≥ 25%)",
            empty_t.min_empty(),
            100 * empty_t.min_empty() / n
        );
    }
    if let Some(legit_t) = &stack.legitimacy {
        match legit_t.first_legitimate_round() {
            Some(r) => println!(
                "  legitimate from round {r}; violations after: {}",
                legit_t.violations_after_first()
            ),
            None => println!("  never legitimate within the window (!)"),
        }
    }
}

/// `rbb sim` — run a declarative [`ScenarioSpec`] from a JSON file.
pub fn sim(args: &Args) -> Result<(), ParseError> {
    let path = args
        .get("spec")
        .ok_or_else(|| ParseError("sim requires --spec <file.json>".into()))?
        .to_string();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ParseError(format!("cannot read {path}: {e}")))?;
    let mut spec: ScenarioSpec =
        serde_json::from_str(&text).map_err(|e| ParseError(format!("{path}: {e}")))?;
    if let Some(seed) = args.get("seed") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| ParseError(format!("--seed: cannot parse '{seed}'")))?;
        spec = spec.with_seed(seed);
    }
    let mut scenario = spec
        .scenario()
        .map_err(|e| ParseError(format!("{path}: {e}")))?;
    if args.switch("quick") {
        // Smoke mode: cap the horizon so CI can validate committed specs
        // without paying the full run. The comparison uses the *resolved*
        // horizon (factor-n horizons scale with the engine's possibly
        // rounded n, not the requested one).
        const QUICK_CAP: u64 = 2_000;
        if scenario.horizon() > QUICK_CAP {
            spec.horizon = HorizonSpec::Rounds { rounds: QUICK_CAP };
            scenario = spec
                .scenario()
                .map_err(|e| ParseError(format!("{path}: {e}")))?;
        }
    }
    let threshold = LegitimacyThreshold::default();
    let n = scenario.engine().n();
    println!(
        "scenario '{}': n = {n}, {} balls, horizon {} rounds, seed = {}",
        spec.name.as_deref().unwrap_or(&path),
        scenario.engine().balls(),
        scenario.horizon(),
        spec.seed,
    );
    let mut stack = ObserverStack::new()
        .with_max_load()
        .with_empty_bins()
        .with_legitimacy(threshold);
    if spec.is_weighted() {
        stack = stack.with_weighted_load().with_capacity();
    }
    let outcome = scenario.run_observed(&mut stack);

    println!("  rounds run           : {}", outcome.rounds);
    if spec.stop != StopSpec::Horizon {
        match outcome.stop_round {
            Some(r) => println!("  stop condition met at: round {r}"),
            None => println!("  stop condition       : not met within horizon"),
        }
    }
    if spec.adversary.is_some() {
        println!("  faults injected      : {}", outcome.faults);
    }
    print_summary(n, &stack, threshold);
    if let Some(wl) = &stack.weighted_load {
        let engine = scenario.engine();
        println!(
            "  weighted max (window): {} (scaled bound = {})",
            wl.window_max(),
            threshold.weighted_bound(n, engine.total_weight(), engine.balls()),
        );
        println!(
            "  mean weighted max    : {}",
            fmt_f64(wl.mean_round_max(), 2)
        );
    }
    if let Some(cap) = &stack.capacity {
        println!(
            "  capacity violations  : {} rounds in violation, worst {} bins over",
            cap.rounds_in_violation(),
            cap.max_violations(),
        );
    }
    if let Some(p) = scenario.engine().min_progress() {
        println!("  min token progress   : {p}");
    }
    Ok(())
}

/// `rbb ensemble` — run a declarative [`EnsembleSpec`] and print its JSON
/// report. The report is a pure function of the spec (and the flags), so
/// two invocations — at any `RAYON_NUM_THREADS` — print byte-identical
/// output; CI diffs them.
pub fn ensemble(args: &Args) -> Result<(), ParseError> {
    let path = args
        .get("spec")
        .ok_or_else(|| ParseError("ensemble requires --spec <file.json>".into()))?
        .to_string();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ParseError(format!("cannot read {path}: {e}")))?;
    let mut spec: EnsembleSpec =
        serde_json::from_str(&text).map_err(|e| ParseError(format!("{path}: {e}")))?;
    if let Some(seeds) = args.get("seeds") {
        spec.replications = seeds
            .parse()
            .map_err(|_| ParseError(format!("--seeds: cannot parse '{seeds}'")))?;
        if spec.replications == 0 {
            return Err(ParseError(
                "--seeds must be at least 1: an ensemble with zero replications has no trials to report".into(),
            ));
        }
    }
    if let Some(master) = args.get("master-seed") {
        spec.master_seed = master
            .parse()
            .map_err(|_| ParseError(format!("--master-seed: cannot parse '{master}'")))?;
    }
    if args.switch("quick") {
        // Smoke mode mirrors `rbb sim --quick`: cap the *horizon* (so CI can
        // validate committed ensembles cheaply) but keep the replication
        // count — the determinism gate wants the full seed set.
        const QUICK_CAP: u64 = 2_000;
        let scenario = spec
            .scenario
            .scenario()
            .map_err(|e| ParseError(format!("{path}: {e}")))?;
        if scenario.horizon() > QUICK_CAP {
            spec.scenario.horizon = HorizonSpec::Rounds { rounds: QUICK_CAP };
        }
    }
    let report = spec.run().map_err(|e| ParseError(format!("{path}: {e}")))?;
    println!("{}", report.to_json());
    Ok(())
}

/// `rbb simulate` — run the paper's process and summarize.
pub fn simulate(args: &Args) -> Result<(), ParseError> {
    let n: usize = args.get_parsed("n", 1024)?;
    let rounds: u64 = args.get_parsed("rounds", 100 * n as u64)?;
    let seed: u64 = args.get_parsed("seed", 1)?;
    let start = build_start(&args.get_str("start", "one-per-bin"), n, seed)?;
    let threshold = LegitimacyThreshold::default();

    println!(
        "repeated balls-into-bins: n = {n}, start = {}, {rounds} rounds, seed = {seed}",
        args.get_str("start", "one-per-bin")
    );
    let mut p = LoadProcess::new(start, Xoshiro256pp::seed_from(seed));
    let mut stack = ObserverStack::new()
        .with_max_load()
        .with_empty_bins()
        .with_legitimacy(threshold);
    p.run(rounds, &mut stack);
    print_summary(n, &stack, threshold);
    Ok(())
}

/// `rbb traverse` — multi-token traversal with optional faults.
pub fn traverse(args: &Args) -> Result<(), ParseError> {
    let n: usize = args.get_parsed("n", 512)?;
    let seed: u64 = args.get_parsed("seed", 1)?;
    let gamma: u64 = args.get_parsed("gamma", 0)?;
    let strategy = build_strategy(&args.get_str("strategy", "fifo"))?;
    let nf = n as f64;
    let cap = (500.0 * nf * nf.ln().powi(2)) as u64;

    println!(
        "multi-token traversal: n = {n}, strategy = {}",
        strategy.label()
    );
    if gamma == 0 {
        let mut t = Traversal::new(n, strategy, seed);
        let cover = t
            .run_to_cover(cap)
            .ok_or_else(|| ParseError("did not cover within cap".into()))?;
        let single = single_token_cover_time(n, seed, cap).unwrap_or(0);
        println!("  parallel cover time  : {cover} rounds");
        println!(
            "  n ln²n               : {:.0} (constant {:.2})",
            nf * nf.ln() * nf.ln(),
            cover as f64 / (nf * nf.ln() * nf.ln())
        );
        println!(
            "  single-token baseline: {single} (slowdown {:.2}×)",
            cover as f64 / single as f64
        );
        let rep = ProgressReport::from_process(t.process());
        println!(
            "  min token progress   : {} (t/ln n = {:.0}); worst wait {}",
            rep.min_moves, rep.t_over_ln_n, rep.max_wait
        );
    } else {
        let adversary = args.get_str("adversary", "all-in-one");
        let schedule = FaultSchedule::gamma_n(gamma, n);
        let mut adv: Box<dyn Adversary> = match adversary.as_str() {
            "all-in-one" => Box::new(AllInOneAdversary),
            "random" => Box::new(RandomAdversary),
            "follow-the-leader" => Box::new(FollowTheLeaderAdversary),
            other => {
                return Err(ParseError(format!(
                    "unknown --adversary '{other}' (all-in-one | random | follow-the-leader)"
                )))
            }
        };
        let r = faulty_cover_time(n, strategy, schedule, adv.as_mut(), seed, cap);
        match r.cover_time {
            Some(c) => println!(
                "  covered in {c} rounds despite {} '{adversary}' faults (every {} rounds)",
                r.faults_injected,
                schedule.period()
            ),
            None => println!(
                "  did not cover within cap ({} faults injected)",
                r.faults_injected
            ),
        }
    }
    Ok(())
}

/// `rbb topology` — constrained walks on a chosen graph with structure info.
pub fn topology(args: &Args) -> Result<(), ParseError> {
    let n: usize = args.get_parsed("n", 1024)?;
    let seed: u64 = args.get_parsed("seed", 1)?;
    let kind = args.get_str("kind", "ring");
    let graph = build_topology(&kind, n, seed)?;
    let rounds: u64 = args.get_parsed("rounds", 50 * graph.n() as u64)?;

    println!(
        "topology '{kind}': n = {}, edges = {}",
        graph.n(),
        graph.num_edges()
    );
    match graph.regular_degree() {
        Some(d) => println!("  regular, degree {d}"),
        None => println!("  irregular"),
    }
    println!("  diameter      : {:?}", diameter(&graph));
    println!(
        "  spectral gap  : {:.4} (lazy walk)",
        spectral_gap(&graph, 1500)
    );

    let ln_n = (graph.n() as f64).ln();
    let mut p = LoadProcess::legitimate_start(graph.n(), seed)
        .with_rule(Rule::Neighbors(std::sync::Arc::new(graph)));
    let mut max_t = rbb_core::metrics::MaxLoadTracker::new();
    p.run(rounds, &mut max_t);
    println!(
        "  after {rounds} rounds: max load {} ({} × ln n)",
        max_t.window_max(),
        fmt_f64(max_t.window_max() as f64 / ln_n, 2)
    );
    Ok(())
}

/// `rbb exact` — exact small-n analysis.
pub fn exact(args: &Args) -> Result<(), ParseError> {
    let n: usize = args.get_parsed("n", 3)?;
    if n > 6 {
        return Err(ParseError("exact analysis supports n ≤ 6".into()));
    }
    let chain = ExactChain::build(n, n as u32);
    println!("exact chain: n = m = {n}, {} states", chain.num_states());
    let pi = chain.stationary(1e-13, 200_000);
    println!(
        "  E[max load] at stationarity: {}",
        fmt_f64(chain.expected_max_load(&pi), 4)
    );
    for k in 1..=n as u32 {
        println!(
            "  P(max load ≥ {k}) = {}",
            fmt_f64(chain.prob_max_load_at_least(&pi, k), 6)
        );
    }
    if let Some(t) = mixing_time(&chain, 0.25, 100_000) {
        println!("  mixing time (ε = 1/4): {t} rounds");
    }
    let ab = appendix_b_exact();
    println!(
        "  appendix B (n = 2): P(0,0) = {} > {} = P(0)·P(0) → positively associated",
        fmt_f64(ab.p_joint_zero, 4),
        fmt_f64(ab.p_x1_zero * ab.p_x2_zero, 5)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn start_builders() {
        assert_eq!(build_start("one-per-bin", 8, 0).unwrap().max_load(), 1);
        assert_eq!(build_start("all-in-one", 8, 0).unwrap().max_load(), 8);
        assert_eq!(build_start("random", 8, 0).unwrap().total_balls(), 8);
        assert!(build_start("bogus", 8, 0).is_err());
    }

    #[test]
    fn strategy_builders() {
        assert_eq!(build_strategy("fifo").unwrap(), QueueStrategy::Fifo);
        assert!(build_strategy("stack").is_err());
    }

    #[test]
    fn topology_builders() {
        for kind in ["clique", "ring", "torus", "hypercube", "regular", "star"] {
            let g = build_topology(kind, 64, 1).unwrap();
            assert!(g.is_connected(), "{kind}");
        }
        assert!(build_topology("moebius", 64, 1).is_err());
    }

    #[test]
    fn simulate_runs() {
        simulate(&args("simulate --n 64 --rounds 500")).unwrap();
    }

    #[test]
    fn traverse_runs_clean_and_faulty() {
        traverse(&args("traverse --n 32")).unwrap();
        traverse(&args("traverse --n 32 --gamma 6")).unwrap();
    }

    #[test]
    fn topology_runs() {
        topology(&args("topology --kind hypercube --n 64 --rounds 500")).unwrap();
    }

    #[test]
    fn exact_runs_and_validates_bound() {
        exact(&args("exact --n 3")).unwrap();
        assert!(exact(&args("exact --n 9")).is_err());
    }

    #[test]
    fn ensemble_rejects_zero_seeds() {
        // A committed spec with --seeds 0 must fail fast at flag validation
        // (not deep inside the runner) with a message naming the flag.
        let err = ensemble(&args(
            "ensemble --spec ../../specs/ensemble-stability.json --seeds 0",
        ))
        .unwrap_err();
        assert!(err.0.contains("--seeds must be at least 1"), "{}", err.0);
        let unparsable = ensemble(&args(
            "ensemble --spec ../../specs/ensemble-stability.json --seeds nope",
        ))
        .unwrap_err();
        assert!(unparsable.0.contains("--seeds"), "{}", unparsable.0);
    }
}
