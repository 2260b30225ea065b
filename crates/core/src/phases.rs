//! Busy-period ("phase") decomposition — the structure behind Lemma 6.
//!
//! The paper analyzes a bin's load by splitting time into *phases*: a phase
//! starts when the bin becomes non-empty and ends when it empties again.
//! Lemma 6's proof shows (i) the load at the first round of a phase is
//! `O(log n/log log n)` w.h.p. (a standard balls-into-bins event), and
//! (ii) each phase, coupled with the Lemma-5 chain, lasts `O(log n)` rounds
//! w.h.p. [`PhaseTracker`] measures both quantities empirically for a set
//! of tracked bins (experiment E20).

use crate::config::Config;
use crate::metrics::RoundObserver;

/// Statistics of the completed phases of a set of tracked bins.
#[derive(Debug, Clone)]
pub struct PhaseTracker {
    /// Tracked bin indices.
    bins: Vec<usize>,
    /// For each tracked bin: the round the current phase started, if busy.
    phase_start: Vec<Option<(u64, u32)>>,
    /// Completed phase durations (rounds from non-empty to empty again).
    durations: Vec<u64>,
    /// Load at the first round of each completed-or-ongoing phase.
    opening_loads: Vec<u32>,
}

impl PhaseTracker {
    /// Tracks the given bins (deduplicated order preserved).
    pub fn new(bins: Vec<usize>) -> Self {
        let k = bins.len();
        Self {
            bins,
            phase_start: vec![None; k],
            durations: Vec::new(),
            opening_loads: Vec::new(),
        }
    }

    /// Tracks the first `k` bins.
    pub fn first_k(k: usize) -> Self {
        Self::new((0..k).collect())
    }

    /// Completed phase durations.
    pub fn durations(&self) -> &[u64] {
        &self.durations
    }

    /// Number of completed phases.
    pub fn completed(&self) -> usize {
        self.durations.len()
    }

    /// Longest completed phase (0 if none).
    pub fn max_duration(&self) -> u64 {
        self.durations.iter().copied().max().unwrap_or(0)
    }

    /// Mean completed-phase duration.
    pub fn mean_duration(&self) -> f64 {
        if self.durations.is_empty() {
            return 0.0;
        }
        self.durations.iter().sum::<u64>() as f64 / self.durations.len() as f64
    }

    /// Largest phase-opening load (0 if none observed).
    pub fn max_opening_load(&self) -> u32 {
        self.opening_loads.iter().copied().max().unwrap_or(0)
    }
}

impl RoundObserver for PhaseTracker {
    fn observe(&mut self, round: u64, config: &Config) {
        let loads = config.loads();
        for (i, &bin) in self.bins.iter().enumerate() {
            let load = loads[bin];
            match (self.phase_start[i], load) {
                (None, 0) => {}
                (None, l) => {
                    // Phase opens.
                    self.phase_start[i] = Some((round, l));
                    self.opening_loads.push(l);
                }
                (Some((start, _)), 0) => {
                    // Phase closes.
                    self.durations.push(round - start);
                    self.phase_start[i] = None;
                }
                (Some(_), _) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::process::LoadProcess;

    fn cfg(loads: &[u32]) -> Config {
        Config::from_loads(loads.to_vec())
    }

    #[test]
    fn tracks_a_simple_phase() {
        let mut t = PhaseTracker::new(vec![0]);
        t.observe(1, &cfg(&[0, 1])); // idle
        t.observe(2, &cfg(&[2, 0])); // opens with load 2
        t.observe(3, &cfg(&[1, 1])); // still busy
        t.observe(4, &cfg(&[0, 2])); // closes: duration 4-2 = 2
        assert_eq!(t.completed(), 1);
        assert_eq!(t.durations(), &[2]);
        assert_eq!(t.max_opening_load(), 2);
    }

    #[test]
    fn ongoing_phase_not_counted_as_completed() {
        let mut t = PhaseTracker::new(vec![0]);
        t.observe(1, &cfg(&[3]));
        t.observe(2, &cfg(&[2]));
        assert_eq!(t.completed(), 0);
        assert_eq!(t.max_opening_load(), 3, "opening recorded immediately");
    }

    #[test]
    fn multiple_bins_tracked_independently() {
        let mut t = PhaseTracker::new(vec![0, 1]);
        t.observe(1, &cfg(&[1, 0]));
        t.observe(2, &cfg(&[0, 2]));
        t.observe(3, &cfg(&[0, 0]));
        assert_eq!(t.completed(), 2);
        // Bin 0: open r1, close r2 (dur 1); bin 1: open r2, close r3 (dur 1).
        assert_eq!(t.durations(), &[1, 1]);
    }

    #[test]
    fn phases_in_the_real_process_are_short() {
        // Lemma 6 structure: at equilibrium phases last O(log n) rounds and
        // open with O(log n/log log n) load.
        let n = 512;
        let mut p = LoadProcess::legitimate_start(n, 9);
        p.run_silent(2000);
        let mut t = PhaseTracker::first_k(64);
        p.run(50_000, &mut t);
        assert!(t.completed() > 1000, "phases: {}", t.completed());
        let ln_n = (n as f64).ln();
        assert!(
            (t.max_duration() as f64) < 20.0 * ln_n,
            "max phase duration {} vs ln n {}",
            t.max_duration(),
            ln_n
        );
        assert!(
            (t.max_opening_load() as f64) < 3.0 * ln_n / ln_n.ln().max(1.0),
            "max opening load {}",
            t.max_opening_load()
        );
        // Typical phase is very short (geometric-ish).
        assert!(
            t.mean_duration() < 6.0,
            "mean duration {}",
            t.mean_duration()
        );
    }

    #[test]
    fn empty_tracker_defaults() {
        let t = PhaseTracker::new(vec![]);
        assert_eq!(t.completed(), 0);
        assert_eq!(t.max_duration(), 0);
        assert_eq!(t.mean_duration(), 0.0);
        assert_eq!(t.max_opening_load(), 0);
    }
}
