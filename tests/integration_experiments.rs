//! Smoke tests over the experiment suite: every registered experiment runs
//! to completion on quick sizes without writing artifacts. These are the
//! end-to-end guards that the EXPERIMENTS.md pipeline cannot rot.

use rbb_experiments::common::{ExpContext, Run};
use rbb_experiments::registry;

/// Code experiments run; an experiment that is a sweep spec resolves every
/// cell, full and quick, and runs in `rbb-cli`'s golden test instead,
/// which pins its quick table.
#[test]
fn every_experiment_runs_quick() {
    for e in registry() {
        let ctx = ExpContext::for_tests(e.id);
        match e.run {
            Run::Code(_) => e.execute(&ctx).unwrap(),
            Run::Sweeps(_) => {
                for spec in e.sweeps(&ctx).unwrap() {
                    for quick in [false, true] {
                        let cells = spec.sweep_cells(quick).unwrap();
                        assert!(!cells.is_empty(), "{}: no cells", e.id);
                    }
                }
            }
        }
    }
}

#[test]
fn registry_covers_all_claims() {
    let reg = registry();
    let claims: Vec<&str> = reg.iter().map(|e| e.claim).collect();
    // Every theorem/lemma/corollary/appendix of the paper is mapped.
    for needle in [
        "Theorem 1(a)",
        "Theorem 1(b)",
        "Lemmas 1-2",
        "Lemma 3",
        "Lemma 4",
        "Lemma 5",
        "Lemma 6",
        "Corollary 1",
        "Section 4.1",
        "Appendix B",
    ] {
        assert!(
            claims.iter().any(|c| c.contains(needle)),
            "claim {needle} not covered by any experiment"
        );
    }
}

#[test]
fn experiment_results_are_deterministic() {
    // E07 computed twice with the same context gives identical rows.
    use rbb_experiments::e07_tetris_load;
    let ctx = ExpContext::for_tests("e07-det");
    let a = e07_tetris_load::compute(&ctx, &[64, 128], 3);
    let b = e07_tetris_load::compute(&ctx, &[64, 128], 3);
    assert_eq!(a.len(), 2);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.mean_window_max, y.mean_window_max);
        assert_eq!(x.ratio_to_ln_n, y.ratio_to_ln_n);
    }
}
