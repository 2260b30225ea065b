//! # rbb-experiments — the paper's quantitative claims as experiments
//!
//! The paper (SPAA 2015 / Distributed Computing 2019) is purely analytical —
//! it has no numbered tables or figures — so the reproduction target is its
//! complete set of quantitative claims, one experiment each (see
//! EXPERIMENTS.md for paper-vs-measured records). An experiment whose cells
//! the spec layer can express is a committed sweep spec,
//! `specs/ensemble-eNN*.json`, which `rbb ensemble` runs as well; the rest
//! are the modules `eNN_*`. Run them via the `rbb-exp` binary:
//!
//! ```text
//! cargo run -p rbb-experiments --release -- all          # everything
//! cargo run -p rbb-experiments --release -- e01 e04      # a subset
//! cargo run -p rbb-experiments --release -- --quick all  # smoke sizes
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod e02_convergence;
pub mod e03_empty_bins;
pub mod e04_coupling;
pub mod e06_absorption;
pub mod e07_tetris_load;
pub mod e08_cover_time;
pub mod e10_sqrt_comparison;
pub mod e11_appendix_b;
pub mod e15_batched_tetris;
pub mod e17_progress;
pub mod e18_oneshot;
pub mod e19_jackson;
pub mod e20_phases;
pub mod e21_mixing;
pub mod e22_arrival_correlation;
pub mod e23_graph_cover;
pub mod e24_window_scaling;
pub mod e26_sharded_scaling;
pub mod e27_weighted_skew;

use common::{Experiment, Run};

/// The full experiment registry, in id order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e01",
            title: "stability of the maximum load",
            claim: "Theorem 1(a): M(t) = O(log n) over poly windows",
            run: Run::Sweeps(&[include_str!("../../../specs/ensemble-e01.json")]),
        },
        Experiment {
            id: "e02",
            title: "linear-time convergence",
            claim: "Theorem 1(b): legitimate within O(n) rounds from anywhere",
            run: Run::Code(e02_convergence::run),
        },
        Experiment {
            id: "e03",
            title: "empty bins stay above n/4",
            claim: "Lemmas 1-2",
            run: Run::Code(e03_empty_bins::run),
        },
        Experiment {
            id: "e04",
            title: "Tetris coupling dominates",
            claim: "Lemma 3",
            run: Run::Code(e04_coupling::run),
        },
        Experiment {
            id: "e05",
            title: "Tetris drains every bin within 5n rounds",
            claim: "Lemma 4",
            run: Run::Sweeps(&[include_str!("../../../specs/ensemble-e05.json")]),
        },
        Experiment {
            id: "e06",
            title: "drift-chain absorption tail",
            claim: "Lemma 5: P_k(tau > t) <= e^{-t/144} for t >= 8k",
            run: Run::Code(e06_absorption::run),
        },
        Experiment {
            id: "e07",
            title: "Tetris max load over poly windows",
            claim: "Lemma 6",
            run: Run::Code(e07_tetris_load::run),
        },
        Experiment {
            id: "e08",
            title: "parallel cover time",
            claim: "Corollary 1: O(n log^2 n)",
            run: Run::Code(e08_cover_time::run),
        },
        Experiment {
            id: "e09",
            title: "cover time under adversarial faults",
            claim: "Section 4.1: constant-factor slowdown for gamma >= 6",
            run: Run::Sweeps(&[include_str!("../../../specs/ensemble-e09.json")]),
        },
        Experiment {
            id: "e10",
            title: "M(t) vs the prior O(sqrt t) bound",
            claim: "improvement over [12]",
            run: Run::Code(e10_sqrt_comparison::run),
        },
        Experiment {
            id: "e11",
            title: "negative-association counterexample",
            claim: "Appendix B: 1/8 > 3/32",
            run: Run::Code(e11_appendix_b::run),
        },
        Experiment {
            id: "e12",
            title: "more balls than bins",
            claim: "Section 5 open question: m up to n log n",
            run: Run::Sweeps(&[include_str!("../../../specs/ensemble-e12.json")]),
        },
        Experiment {
            id: "e13",
            title: "general graph topologies",
            claim: "Section 5 open question: regular graphs",
            run: Run::Sweeps(&[include_str!("../../../specs/ensemble-e13.json")]),
        },
        Experiment {
            id: "e14",
            title: "repeated d-choice variant",
            claim: "reference [36]",
            run: Run::Sweeps(&[include_str!("../../../specs/ensemble-e14.json")]),
        },
        Experiment {
            id: "e15",
            title: "batched Tetris / leaky bins",
            claim: "reference [18]",
            run: Run::Code(e15_batched_tetris::run),
        },
        Experiment {
            id: "e16",
            title: "queue-strategy obliviousness",
            claim: "Section 2, footnote 2",
            run: Run::Sweeps(&[include_str!("../../../specs/ensemble-e16.json")]),
        },
        Experiment {
            id: "e17",
            title: "per-token progress under FIFO",
            claim: "Section 4: Omega(t/log n)",
            run: Run::Code(e17_progress::run),
        },
        Experiment {
            id: "e18",
            title: "one-shot baseline comparison",
            claim: "Section 5 tightness discussion",
            run: Run::Code(e18_oneshot::run),
        },
        Experiment {
            id: "e19",
            title: "closed Jackson network comparator",
            claim: "related work [30]",
            run: Run::Code(e19_jackson::run),
        },
        Experiment {
            id: "e20",
            title: "busy-period phase structure",
            claim: "Lemma 6 proof device: short phases, small openings",
            run: Run::Code(e20_phases::run),
        },
        Experiment {
            id: "e21",
            title: "mixing of the configuration chain",
            claim: "non-reversible chain forgets its start (exact small-n TV + at-scale check)",
            run: Run::Code(e21_mixing::run),
        },
        Experiment {
            id: "e22",
            title: "arrival correlation at scale",
            claim: "Appendix B generalized: positive association at every n",
            run: Run::Code(e22_arrival_correlation::run),
        },
        Experiment {
            id: "e23",
            title: "multi-token traversal beyond the clique",
            claim: "extension of Corollary 1 to the open-question topologies",
            run: Run::Code(e23_graph_cover::run),
        },
        Experiment {
            id: "e24",
            title: "window-length scaling of the max load",
            claim: "Theorem 1(a)'s 'any polynomial window' quantifier, probed directly",
            run: Run::Code(e24_window_scaling::run),
        },
        Experiment {
            id: "e25",
            title: "the sparse regime (m << n) at engine-breaking scale",
            claim: "stability with room to spare and Theta(m) convergence at n up to 10^8",
            run: Run::Sweeps(&[include_str!("../../../specs/ensemble-e25-stability.json"), include_str!("../../../specs/ensemble-e25-convergence.json")]),
        },
        Experiment {
            id: "e26",
            title: "sharded-engine scaling at large n",
            claim: "fixed shard count => thread-invariant trajectory; throughput is the machine's business",
            run: Run::Code(e26_sharded_scaling::run),
        },
        Experiment {
            id: "e27",
            title: "weighted Zipf balls and capacity-constrained bins",
            claim: "weight-oblivious dynamics hold the weighted envelope at max(w_max, bound*mean); FFD packs tighter but pays collateral churn moves",
            run: Run::Code(e27_weighted_skew::run),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbb_sim::{EnsembleSpec, SeedTree};
    use std::path::Path;

    #[test]
    fn committed_sweeps_are_rooted_at_their_experiment_scope() {
        // `rbb ensemble` on a committed sweep prints what `rbb-exp` prints
        // at the default seed: its master seed is the experiment's scope.
        let ctx = common::ExpContext::for_tests("e00");
        for e in registry() {
            let Run::Sweeps(texts) = e.run else { continue };
            for (text, parsed) in texts.iter().zip(e.sweeps(&ctx).unwrap()) {
                let committed: EnsembleSpec = serde_json::from_str(text).unwrap();
                assert_eq!(
                    committed.master_seed,
                    SeedTree::default().scope(e.id).master(),
                    "{}",
                    e.id
                );
                assert_eq!(parsed.master_seed, ctx.seeds.master());
            }
        }
    }

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let reg = registry();
        assert_eq!(reg.len(), 27);
        for (i, e) in reg.iter().enumerate() {
            assert_eq!(e.id, format!("e{:02}", i + 1));
        }
    }

    /// The committed sweep specs of experiment `id`, as written.
    pub(crate) fn committed(id: &str) -> Vec<EnsembleSpec> {
        let e = registry().into_iter().find(|e| e.id == id).unwrap();
        let Run::Sweeps(texts) = e.run else {
            panic!("{id} is code")
        };
        (texts.iter())
            .map(|text| serde_json::from_str(text).unwrap())
            .collect()
    }

    /// A sweep's quick table read back from its output: the header and
    /// each row, split into cells at runs of two or more spaces.
    pub(crate) struct Rows {
        head: Vec<String>,
        rows: Vec<Vec<String>>,
    }

    impl Rows {
        /// The table `rbb ensemble --spec specs/<stem>.json --quick`
        /// prints, as its golden fixture pins it.
        pub(crate) fn golden(stem: &str) -> Rows {
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("../cli/tests/golden/{stem}.stdout"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            Rows::parse(&text)
        }

        pub(crate) fn parse(text: &str) -> Rows {
            let cells = |line: &str| -> Vec<String> {
                (line.split("  ").map(str::trim))
                    .filter(|c| !c.is_empty())
                    .map(String::from)
                    .collect()
            };
            let mut lines = text.lines();
            let head = cells(lines.next().expect("a header row"));
            lines.next(); // the rule
            Rows {
                head,
                rows: lines.map(cells).collect(),
            }
        }

        /// The column headed `head`, one cell per row.
        pub(crate) fn text(&self, head: &str) -> Vec<&str> {
            let i = (self.head.iter().position(|h| h == head))
                .unwrap_or_else(|| panic!("no column {head:?} in {:?}", self.head));
            self.rows.iter().map(|r| r[i].as_str()).collect()
        }

        /// The column headed `head`, as numbers.
        pub(crate) fn num(&self, head: &str) -> Vec<f64> {
            let parse = |c: &&str| c.parse().unwrap_or_else(|_| panic!("{head}: {c:?}"));
            self.text(head).iter().map(parse).collect()
        }

        /// Asserts `ok` of every number in column `head`.
        pub(crate) fn all(&self, head: &str, ok: impl Fn(f64) -> bool) {
            let col = self.num(head);
            assert!(col.iter().all(|&v| ok(v)), "{head} = {col:?}");
        }

        /// The row whose cells read every `(column, value)` of `key`.
        pub(crate) fn row(&self, key: &[(&str, &str)]) -> &[String] {
            let i = (0..self.rows.len())
                .find(|&i| key.iter().all(|(k, v)| self.text(k)[i] == *v))
                .unwrap_or_else(|| panic!("no row with {key:?}"));
            &self.rows[i]
        }

        /// The value in column `head` of the row `key` picks.
        pub(crate) fn at(&self, key: &[(&str, &str)], head: &str) -> f64 {
            let i = (self.head.iter().position(|h| h == head))
                .unwrap_or_else(|| panic!("no column {head:?} in {:?}", self.head));
            let cell = &self.row(key)[i];
            cell.parse().unwrap_or_else(|_| panic!("{head}: {cell:?}"))
        }
    }
}

// The claims of the experiments that are committed sweep specs, one module
// per experiment. Each reads the quick table its golden fixture pins:
// `rbb-cli`'s golden test proves the fixture is what the sweep prints, so
// no sweep runs twice in the test suite.

#[cfg(test)]
mod e01_stability {
    mod tests {
        use crate::tests::{committed, Rows};

        /// Theorem 1(a): no trial's window max reaches past 4 ln n, and the
        /// mean sits at a constant times ln n.
        #[test]
        fn quick_compute_is_stable() {
            let t = Rows::golden("ensemble-e01");
            assert_eq!(t.text("n"), ["128", "256"]);
            t.all("violations", |v| v == 0.0);
            t.all("P(viol)", |v| v == 0.0);
            // The Wilson bound is informative.
            t.all("wilson hi", |v| v < 1.0);
            t.all("mean window max", |v| v >= 1.0);
            t.all("mean/ln n", |v| v < 4.0);
        }

        /// Every cell runs a window of min(200n, n²) rounds, as its label
        /// says; the quick n = 128 cell is the one n² caps.
        #[test]
        fn window_is_capped_by_n_squared() {
            let spec = &committed("e01")[0];
            let mut capped = false;
            for quick in [false, true] {
                for (labels, cell) in spec.sweep_cells(quick).unwrap() {
                    let n = cell.scenario.n as u64;
                    let window = cell.scenario.horizon.resolve(cell.scenario.n);
                    assert_eq!(window, (200 * n).min(n * n), "n = {n}");
                    assert_eq!(labels[1], window.to_string(), "n = {n}");
                    capped |= n * n < 200 * n;
                }
            }
            assert!(capped);
        }

        #[test]
        fn deterministic() {
            let mut spec = committed("e01").remove(0);
            let cell = r#"{"scope": "n64", "labels": ["64", "4096", "2", "17"],
                "scenario": {"n": 64, "horizon": {"kind": "rounds", "rounds": 4096}},
                "metrics": [{"kind": "window-max-load", "thresholds": [18]}], "replications": 2}"#;
            spec.sweep.as_mut().unwrap().quick = vec![serde_json::from_str(cell).unwrap()];
            let a = spec.run_sweep(true).unwrap().render();
            assert_eq!(a, spec.run_sweep(true).unwrap().render());
        }
    }
}

#[cfg(test)]
mod e05_tetris_drain {
    mod tests {
        use crate::tests::{committed, Rows};

        /// Lemma 4: from either start every bin empties within 5n rounds.
        #[test]
        fn drains_within_budget() {
            let t = Rows::golden("ensemble-e05");
            t.all("over budget", |v| v == 0.0);
            t.all("worst/n", |v| v < 5.0);
            t.all("mean drain round", |v| v > 0.0);
            // `over budget` counts the trials that drain after round 5n.
            for quick in [false, true] {
                for (_, cell) in committed("e05")[0].sweep_cells(quick).unwrap() {
                    let budget = 5.0 * cell.scenario.n as f64;
                    assert_eq!(cell.metrics[0].thresholds, [budget + 1.0]);
                }
            }
        }

        /// Bin 0 holding all n balls drains at about 1/4 net per round:
        /// much slower than a random start.
        #[test]
        fn all_in_one_drains_slower_than_random() {
            let t = Rows::golden("ensemble-e05");
            for n in ["128", "256"] {
                let aio = t.at(&[("start", "all-in-one"), ("n", n)], "mean drain round");
                let rnd = t.at(&[("start", "uniform-random"), ("n", n)], "mean drain round");
                assert!(aio > rnd, "n = {n}: {aio} vs {rnd}");
            }
        }
    }
}

#[cfg(test)]
mod e09_adversarial {
    mod tests {
        use crate::tests::Rows;

        /// Section 4.1: with a fault every γn rounds every trial still
        /// covers, and the cover time grows by a constant factor over the
        /// fault-free control at the same n.
        #[test]
        fn no_timeouts_and_bounded_slowdown() {
            let t = Rows::golden("ensemble-e09");
            t.all("timeouts", |v| v == 0.0);
            for (n, cover) in t.text("n").iter().zip(t.num("mean cover")) {
                let clean = t.at(&[("n", n), ("adversary", "none")], "mean cover");
                assert!(cover / clean < 25.0, "n = {n}: slowdown {}", cover / clean);
            }
        }

        /// Each n opens with its control row: no adversary, no faults.
        #[test]
        fn control_row_present_per_n() {
            let t = Rows::golden("ensemble-e09");
            let (ns, advs, gammas) = (t.text("n"), t.text("adversary"), t.text("gamma"));
            let faults = t.num("mean faults");
            for i in 0..ns.len() {
                let first = i == 0 || ns[i - 1] != ns[i];
                assert_eq!(advs[i] == "none", first, "row {i}");
                if first {
                    assert_eq!((gammas[i], faults[i]), ("-", 0.0), "row {i}");
                }
            }
        }

        /// The horizon is long enough for the adversary to strike.
        #[test]
        fn faults_are_actually_injected() {
            let t = Rows::golden("ensemble-e09");
            let rows = t.text("adversary").into_iter().zip(t.text("gamma"));
            for ((adv, gamma), faults) in rows.zip(t.num("mean faults")) {
                assert!(adv == "none" || faults > 0.0, "{adv} γ={gamma}: no fault");
            }
        }
    }
}

#[cfg(test)]
mod e12_more_balls {
    mod tests {
        use crate::tests::{committed, Rows};

        /// Section 5's open question: the excess over m/n stays O(log n)
        /// up to m = n, and grows past it.
        #[test]
        fn excess_logarithmic_up_to_m_equals_n_then_grows() {
            let t = Rows::golden("ensemble-e12");
            let cells = committed("e12")[0].sweep_cells(true).unwrap();
            let ns = cells.iter().map(|(_, cell)| cell.scenario.n as f64);
            let means = t.num("mean window max");
            for (((m, n), mean), excess) in t
                .num("m")
                .into_iter()
                .zip(ns)
                .zip(means)
                .zip(t.num("excess / ln n"))
            {
                assert!(mean >= m / n, "m = {m}: {mean}");
                if m <= n {
                    // The proven regime.
                    assert!(excess < 5.0, "m = {m}: excess/ln n = {excess}");
                }
            }
            let at_n = t.at(&[("load factor", "m = n")], "excess / ln n");
            let at_4n = t.at(&[("load factor", "m = 4n")], "excess / ln n");
            assert!(at_4n > at_n, "expected excess growth: {at_n} vs {at_4n}");
        }

        #[test]
        fn max_load_increases_with_m() {
            let t = Rows::golden("ensemble-e12");
            let (ms, means) = (t.num("m"), t.num("mean window max"));
            for i in 1..ms.len() {
                assert!(ms[i] > ms[i - 1], "row {i}");
                assert!(means[i] > means[i - 1], "row {i}: {means:?}");
            }
        }

        /// The load factors rise cell by cell, and each cell's `m` label
        /// is its ball count.
        #[test]
        fn standard_factors_are_increasing() {
            for quick in [false, true] {
                let cells = committed("e12")[0].sweep_cells(quick).unwrap();
                for (labels, cell) in &cells {
                    assert_eq!(labels[1], cell.scenario.balls_or_default().to_string());
                }
                let ms: Vec<u64> = (cells.iter())
                    .map(|(_, cell)| cell.scenario.balls_or_default())
                    .collect();
                assert!(ms.windows(2).all(|w| w[1] > w[0]), "{ms:?}");
            }
        }

        /// At m = n no trial's window max reaches m/n + 4 ln n.
        #[test]
        fn stability_tail_is_zero_in_the_proven_regime() {
            let t = Rows::golden("ensemble-e12");
            let m_is_n = [("load factor", "m = n")];
            assert_eq!(t.at(&m_is_n, "P(excess ≥ 4 ln n)"), 0.0);
            assert!(t.at(&m_is_n, "wilson hi") < 1.0);
        }
    }
}

#[cfg(test)]
mod e13_graphs {
    mod tests {
        use crate::tests::{committed, Rows};

        /// Section 5's conjecture: on regular graphs the max load stays
        /// logarithmic.
        #[test]
        fn regular_graphs_stay_logarithmic() {
            let t = Rows::golden("ensemble-e13");
            let rows = t.text("topology").into_iter().zip(t.text("degree"));
            for ((topology, degree), ratio) in rows.zip(t.num("mean/ln n")) {
                assert!(degree == "-" || ratio < 6.0, "{topology}: ratio {ratio}");
            }
        }

        /// The star, the non-regular control, piles its load on the hub.
        #[test]
        fn star_is_worst() {
            let t = Rows::golden("ensemble-e13");
            let star = t.at(&[("topology", "star")], "mean window max");
            let rows = t.text("topology").into_iter().zip(t.num("mean window max"));
            for (topology, mean) in rows.filter(|(topology, _)| *topology != "star") {
                assert!(star > mean, "star {star} vs {topology} {mean}");
            }
        }

        /// Every topology the sweep names builds connected at n = 256.
        #[test]
        fn topologies_build_at_256() {
            for (labels, cell) in committed("e13")[0].sweep_cells(false).unwrap() {
                let g = cell.scenario.topology.build(256, 1);
                assert!(g.is_connected(), "{} disconnected", labels[0]);
            }
        }
    }
}

#[cfg(test)]
mod e14_dchoice {
    mod tests {
        use crate::tests::Rows;

        /// [36]: two choices keep the max load below one choice's at every
        /// n, and never at 4 ln n.
        #[test]
        fn d2_below_d1_at_same_n() {
            let t = Rows::golden("ensemble-e14");
            for n in ["128", "256"] {
                let d1 = t.at(&[("d", "1"), ("n", n)], "mean window max");
                let d2 = t.at(&[("d", "2"), ("n", n)], "mean window max");
                assert!(d2 < d1, "n = {n}: d2 {d2} vs d1 {d1}");
                assert_eq!(t.at(&[("d", "2"), ("n", n)], "P(≥ 4 ln n)"), 0.0);
            }
        }

        /// d = 1 is the paper's process: its mean stays below 4 ln n.
        #[test]
        fn d1_ratio_is_bounded() {
            let t = Rows::golden("ensemble-e14");
            for n in ["128", "256"] {
                assert!(t.at(&[("d", "1"), ("n", n)], "mean/ln n") < 4.0, "n = {n}");
            }
            t.all("wilson hi", |v| v <= 1.0);
        }
    }
}

#[cfg(test)]
mod e16_strategies {
    mod tests {
        use crate::tests::Rows;
        use rbb_core::ball_process::BallProcess;
        use rbb_core::config::Config;
        use rbb_core::rng::Xoshiro256pp;
        use rbb_core::strategy::QueueStrategy;

        /// Section 2: the strategy does not change the load process, so
        /// the three strategies' means lie within 2 of each other.
        #[test]
        fn distributions_overlap() {
            let means = Rows::golden("ensemble-e16").num("mean window max");
            let spread = means.iter().cloned().fold(f64::MIN, f64::max)
                - means.iter().cloned().fold(f64::MAX, f64::min);
            assert!(spread < 2.0, "strategy means spread {spread}: {means:?}");
        }

        /// From one seed, FIFO and LIFO load trajectories agree round by
        /// round.
        #[test]
        fn exact_invariance_holds() {
            let start = |strategy| {
                let rng = Xoshiro256pp::seed_from(7);
                BallProcess::new(Config::one_per_bin(64), strategy, rng)
            };
            let (mut fifo, mut lifo) = (start(QueueStrategy::Fifo), start(QueueStrategy::Lifo));
            for t in 0..500 {
                fifo.step();
                lifo.step();
                assert_eq!(
                    fifo.config(),
                    lifo.config(),
                    "trajectories diverged at round {t}"
                );
            }
        }

        /// FIFO and LIFO share their seed scope and consume the RNG
        /// identically, so their rows coincide.
        #[test]
        fn fifo_and_lifo_rows_identical() {
            let t = Rows::golden("ensemble-e16");
            let stats = |strategy| t.row(&[("strategy", strategy)])[1..].to_vec();
            assert_eq!(stats("fifo"), stats("lifo"));
        }
    }
}

#[cfg(test)]
mod e25_sparse_regime {
    mod tests {
        use crate::tests::{committed, Rows};
        use rbb_sim::EngineSpec;

        /// The engine choice is invisible in the numbers: one stability
        /// cell, shrunk to test size, reports the same on both engines.
        #[test]
        fn sparse_tables_are_bit_identical_to_dense_engine() {
            let (_, mut cell) = committed("e25")[0].sweep_cells(true).unwrap().remove(0);
            (cell.scenario.n, cell.scenario.balls, cell.replications) = (1 << 14, Some(64), 3);
            let run = |engine| {
                let mut cell = cell.clone();
                cell.scenario.engine = Some(engine);
                cell.run().unwrap().to_json()
            };
            assert_eq!(run(EngineSpec::Sparse), run(EngineSpec::Dense));
        }

        /// With m ≪ n the window max sits below 4 ln n, and more balls
        /// load no less.
        #[test]
        fn stability_stays_below_bound_at_quick_sizes() {
            let t = Rows::golden("ensemble-e25-stability");
            let means = t.num("mean window max");
            for (mean, bound) in means.iter().zip(t.num("bound 4 ln n")) {
                assert!(
                    *mean >= 1.0 && *mean < bound,
                    "{mean} against bound {bound}"
                );
            }
            t.all("P(viol)", |v| v == 0.0);
            assert!(means.windows(2).all(|w| w[1] >= w[0]), "{means:?}");
        }

        /// From the point mass, convergence takes about m − 4 ln n rounds
        /// (bin 0 drains one ball per round), whatever n: the quick row,
        /// and two cells that differ in n alone.
        #[test]
        fn convergence_tracks_m_not_n() {
            let mut spec = committed("e25").remove(1);
            let cell = |n: usize| {
                let cell = format!(
                    r#"{{"scope": "conv-n{n}-m200", "labels": ["{n}", "200"], "replications": 2,
                        "scenario": {{"n": {n}, "balls": 200, "horizon": {{"kind": "rounds", "rounds": 1800}}}}}}"#
                );
                serde_json::from_str(&cell).unwrap()
            };
            spec.sweep.as_mut().unwrap().quick = vec![cell(1 << 14), cell(1 << 16)];
            let pair = Rows::parse(&spec.run_sweep(true).unwrap().render());
            for t in [&Rows::golden("ensemble-e25-convergence"), &pair] {
                t.all("missing", |v| v == 0.0);
                t.all("stop / m", |v| v < 2.0);
                let cells = t.num("n").into_iter().zip(t.num("m"));
                for ((n, m), stop) in cells.zip(t.num("mean stop round")) {
                    let bound = (4.0 * n.ln()).ceil();
                    assert!(stop >= m - bound - 1.0, "n = {n}: stop {stop} at m = {m}");
                }
            }
            // Quadrupling n barely moves the stop round.
            let stops = pair.num("mean stop round");
            assert!((stops[0] - stops[1]).abs() < 60.0, "stop rounds {stops:?}");
        }
    }
}
