//! Parallel trial execution.
//!
//! Experiments are embarrassingly parallel over independent trials; per the
//! hpc-parallel guides we use rayon's parallel iterators for the fan-out.
//! [`sweep_par`]/[`sweep_par_seeded`] flatten the full (parameter × trial)
//! grid into one fan-out so uneven parameters cannot leave workers idle.
//!
//! # Determinism
//!
//! Every trial's RNG is derived purely from `(seed tree, scope name, trial
//! index)` — never from thread ids, scheduling order, or worker count — and
//! the scheduler's collect is order-preserving. Consequently every function
//! in this module returns bit-identical results for `RAYON_NUM_THREADS=1`
//! and any other thread count, and the grid functions match a plain
//! parameter-by-parameter loop over the same scopes exactly.

use rayon::prelude::*;

use crate::seed::SeedTree;
use rbb_core::rng::Xoshiro256pp;

/// Runs `trials` independent trials in parallel. `f(trial_index, seed)`
/// receives a dedicated raw seed (a trial body derives whatever streams it
/// needs from it); results are returned in trial order.
///
/// # RNG stream
///
/// Trial `i` receives `seeds.trial(i)` — seeds disjoint across trials and
/// independent of thread count or scheduling.
pub fn run_trials_seeded<T: Send>(
    seeds: SeedTree,
    trials: usize,
    f: impl Fn(usize, u64) -> T + Sync,
) -> Vec<T> {
    (0..trials)
        .into_par_iter()
        .map(|i| f(i, seeds.trial(i as u64)))
        .collect()
}

/// Runs a keyed parameter sweep as one parallel fan-out over the full
/// (parameter × trial) grid, so a parameter with few or cheap trials never
/// leaves workers idle while an expensive one finishes.
///
/// Results are independent of thread count (see the module docs for the
/// determinism contract) and grouped back into `(param, results)` pairs in
/// parameter order, trials in trial order.
///
/// # RNG stream
///
/// Trial `i` of parameter `p` receives
/// `seeds.scope(scope_name(p)).trial_rng(i)`.
pub fn sweep_par<P: Clone + Sync, T: Send>(
    seeds: SeedTree,
    params: &[P],
    trials: usize,
    scope_name: impl Fn(&P) -> String,
    f: impl Fn(&P, usize, Xoshiro256pp) -> T + Sync,
) -> Vec<(P, Vec<T>)> {
    grid_par(seeds, params, trials, scope_name, |p, i, scope| {
        f(p, i, scope.trial_rng(i as u64))
    })
}

/// Like [`sweep_par`], but hands each trial its raw derived seed instead of
/// an RNG (for trial bodies that need several derived streams). The seed for
/// `(p, i)` is `seeds.scope(scope_name(p)).trial(i)` — identical to calling
/// [`run_trials_seeded`] once per parameter on the scoped tree.
pub fn sweep_par_seeded<P: Clone + Sync, T: Send>(
    seeds: SeedTree,
    params: &[P],
    trials: usize,
    scope_name: impl Fn(&P) -> String,
    f: impl Fn(&P, usize, u64) -> T + Sync,
) -> Vec<(P, Vec<T>)> {
    grid_par(seeds, params, trials, scope_name, |p, i, scope| {
        f(p, i, scope.trial(i as u64))
    })
}

/// Shared (parameter × trial) grid fan-out behind [`sweep_par`] and
/// [`sweep_par_seeded`]: flattens the grid into one parallel iterator and
/// regroups the order-preserving collect by parameter.
fn grid_par<P: Clone + Sync, T: Send>(
    seeds: SeedTree,
    params: &[P],
    trials: usize,
    scope_name: impl Fn(&P) -> String,
    f: impl Fn(&P, usize, &SeedTree) -> T + Sync,
) -> Vec<(P, Vec<T>)> {
    if trials == 0 {
        return params.iter().map(|p| (p.clone(), Vec::new())).collect();
    }
    // Scopes are pre-derived once per parameter (they are pure functions of
    // the tree and the name, but there is no reason to re-hash per trial).
    let scopes: Vec<SeedTree> = params.iter().map(|p| seeds.scope(&scope_name(p))).collect();
    let flat: Vec<T> = (0..params.len() * trials)
        .into_par_iter()
        .map(|k| f(&params[k / trials], k % trials, &scopes[k / trials]))
        .collect();
    let mut flat = flat.into_iter();
    params
        .iter()
        .map(|p| (p.clone(), flat.by_ref().take(trials).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_trial_order() {
        let out = run_trials_seeded(SeedTree::new(1), 64, |i, _seed| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_across_runs() {
        let f = |_: usize, seed: u64| Xoshiro256pp::seed_from(seed).next_u64();
        let a = run_trials_seeded(SeedTree::new(2), 32, f);
        let b = run_trials_seeded(SeedTree::new(2), 32, f);
        assert_eq!(a, b);
    }

    #[test]
    fn trials_get_distinct_rngs() {
        let out = run_trials_seeded(SeedTree::new(3), 16, |_, seed| {
            Xoshiro256pp::seed_from(seed).next_u64()
        });
        let mut dedup = out.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), out.len());
    }

    #[test]
    fn seeded_variant_matches_tree() {
        let tree = SeedTree::new(4);
        let out = run_trials_seeded(tree, 8, |_, seed| seed);
        let expect: Vec<u64> = (0..8).map(|i| tree.trial(i)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn sweep_par_matches_sequential_sweep() {
        // The grid fan-out must be indistinguishable from a plain loop,
        // parameter by parameter and trial by trial, over the same scopes.
        let tree = SeedTree::new(6);
        let params = [8usize, 16, 32];
        let name = |p: &usize| format!("n{p}");
        let body = |p: &usize, i: usize, mut rng: Xoshiro256pp| (*p, i, rng.next_u64());
        let seq: Vec<_> = params
            .iter()
            .map(|p| {
                let scope = tree.scope(&name(p));
                let trials = (0..5).map(|i| body(p, i, scope.trial_rng(i as u64)));
                (*p, trials.collect::<Vec<_>>())
            })
            .collect();
        let par = sweep_par(tree, &params, 5, name, body);
        assert_eq!(seq, par);
    }

    #[test]
    fn sweep_par_seeded_matches_per_param_run_trials_seeded() {
        let tree = SeedTree::new(7);
        let params = [3usize, 9, 27];
        let trials = 4;
        let par = sweep_par_seeded(
            tree,
            &params,
            trials,
            |p| format!("p{p}"),
            |p, i, seed| (*p, i, seed),
        );
        for (k, &p) in params.iter().enumerate() {
            let scope = tree.scope(&format!("p{p}"));
            let expect = run_trials_seeded(scope, trials, |i, seed| (p, i, seed));
            assert_eq!(par[k].0, p);
            assert_eq!(par[k].1, expect);
        }
    }

    #[test]
    fn sweep_par_is_deterministic_across_runs() {
        let run = || {
            sweep_par(
                SeedTree::new(8),
                &[2usize, 4, 6, 8],
                7,
                |p| format!("x{p}"),
                |p, i, mut rng| (*p, i, rng.next_u64()),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sweep_par_uneven_trial_costs_keep_results_ordered() {
        // Parameter 50 is ~100x more expensive per trial than parameter 1:
        // under a static split this shape idled workers; here it must still
        // return exact (param, trial) ordering.
        let out = sweep_par(
            SeedTree::new(9),
            &[1usize, 50],
            8,
            |p| format!("w{p}"),
            |p, i, mut rng| {
                let mut acc = 0u64;
                for _ in 0..(p * p * 40) {
                    acc = acc.wrapping_add(rng.next_u64());
                }
                (*p, i, acc)
            },
        );
        assert_eq!(out.len(), 2);
        for (k, (p, results)) in out.iter().enumerate() {
            assert_eq!(*p, [1, 50][k]);
            assert_eq!(results.len(), 8);
            for (i, &(rp, ri, _)) in results.iter().enumerate() {
                assert_eq!((rp, ri), (*p, i));
            }
        }
    }

    #[test]
    fn sweep_par_zero_trials_and_empty_params() {
        let name = |p: &usize| format!("{p}");
        let body = |p: &usize, _: usize, _: Xoshiro256pp| *p;
        let out = sweep_par(SeedTree::new(10), &[1usize, 2], 0, name, body);
        assert_eq!(out, vec![(1, vec![]), (2, vec![])]);
        let out = sweep_par(SeedTree::new(10), &[], 5, name, body);
        assert!(out.is_empty());
    }

    #[test]
    fn sweep_scopes_by_parameter() {
        let tree = SeedTree::new(5);
        let results = sweep_par(
            tree,
            &[10usize, 20],
            4,
            |p| format!("n{p}"),
            |p, _i, mut rng| (*p, rng.next_u64()),
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].1.len(), 4);
        // Different parameters see different random streams.
        assert_ne!(results[0].1[0].1, results[1].1[0].1);
    }
}
