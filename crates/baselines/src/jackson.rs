//! A closed Jackson network on the clique — the classical queueing-theory
//! comparator the paper's related-work section discusses ([30, 31]).
//!
//! `m` customers circulate among `n` exponential-server (rate 1) stations;
//! on service completion a customer routes to a station chosen u.a.r.
//! Time is continuous, so events are *sequential* — exactly the structural
//! difference the paper highlights: the sequential chain is reversible-ish
//! with a product-form stationary distribution, whereas the paper's parallel
//! process is not. Experiment E19 compares their stationary max loads.
//!
//! Simulation: since all service rates are equal, the next completion occurs
//! after `Exp(k)` time where `k` is the number of busy stations, at a
//! uniformly random busy station (superposition of Poisson processes).

use rbb_core::config::Config;
use rbb_core::rng::Xoshiro256pp;
use rbb_stats::IntHistogram;

/// Event-driven closed Jackson network on the complete graph.
#[derive(Debug, Clone)]
pub struct JacksonNetwork {
    loads: Vec<u32>,
    /// Busy stations, in arbitrary order, for O(1) uniform selection.
    busy: Vec<u32>,
    /// `position[u]` = index of `u` in `busy`, or `usize::MAX` if idle.
    position: Vec<usize>,
    time: f64,
    events: u64,
    rng: Xoshiro256pp,
}

impl JacksonNetwork {
    /// Creates the network from an initial configuration.
    ///
    /// # RNG stream
    ///
    /// Each [`Self::step`] consumes three draws: one exponential holding
    /// time, one `uniform_usize` over the busy stations, and one
    /// `uniform_usize` for the routing destination. Callers hand over a
    /// stream derived from the master seed.
    pub fn new(config: Config, rng: Xoshiro256pp) -> Self {
        let loads = config.into_loads();
        let n = loads.len();
        let mut busy = Vec::new();
        let mut position = vec![usize::MAX; n];
        for (u, &l) in loads.iter().enumerate() {
            if l > 0 {
                position[u] = busy.len();
                // rbb-lint: allow(lossy-cast, reason = "station index < n, and n fits u32 by the Config invariant")
                busy.push(u as u32);
            }
        }
        Self {
            loads,
            busy,
            position,
            time: 0.0,
            events: 0,
            rng,
        }
    }

    /// One customer per station.
    pub fn legitimate_start(n: usize, seed: u64) -> Self {
        // rbb-lint: allow(rng-construct, reason = "baseline convenience constructor seeded by the caller's master seed; baselines sits below rbb_sim::seed in the crate graph")
        Self::new(Config::one_per_bin(n), Xoshiro256pp::seed_from(seed))
    }

    /// Simulated (continuous) time elapsed.
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of service-completion events processed.
    #[inline]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Current loads.
    #[inline]
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// Current maximum load.
    pub fn max_load(&self) -> u32 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    fn mark_idle(&mut self, u: usize) {
        let idx = self.position[u];
        debug_assert!(idx != usize::MAX);
        // rbb-lint: allow(panic, reason = "mark_idle is only called for a station found in the busy list, so the list is non-empty")
        let last = *self.busy.last().expect("busy non-empty");
        self.busy.swap_remove(idx);
        if (last as usize) != u {
            self.position[last as usize] = idx;
        }
        self.position[u] = usize::MAX;
    }

    fn mark_busy(&mut self, u: usize) {
        debug_assert_eq!(self.position[u], usize::MAX);
        self.position[u] = self.busy.len();
        // rbb-lint: allow(lossy-cast, reason = "station index < n, and n fits u32 by the Config invariant")
        self.busy.push(u as u32);
    }

    /// Processes one service completion; returns `(station, destination)`.
    /// Panics if the network is empty (no customers).
    pub fn step(&mut self) -> (usize, usize) {
        let k = self.busy.len();
        assert!(k > 0, "no busy stations: the network has no customers");
        // Superposition of k unit-rate Poisson clocks.
        self.time += self.rng.exponential(k as f64);
        let u = self.busy[self.rng.uniform_usize(k)] as usize;
        self.loads[u] -= 1;
        if self.loads[u] == 0 {
            self.mark_idle(u);
        }
        let v = self.rng.uniform_usize(self.loads.len());
        if self.loads[v] == 0 {
            self.mark_busy(v);
        }
        self.loads[v] += 1;
        self.events += 1;
        (u, v)
    }

    /// Runs `events` completions, recording the max load after each into a
    /// histogram (an event-averaged stationary estimate after burn-in).
    pub fn run_events(&mut self, events: u64) -> IntHistogram {
        let mut hist = IntHistogram::new();
        for _ in 0..events {
            self.step();
            hist.add(self.max_load() as usize);
        }
        hist
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        for (u, &l) in self.loads.iter().enumerate() {
            let busy = self.position[u] != usize::MAX;
            if busy != (l > 0) {
                return Err(format!("station {u}: load {l} but busy={busy}"));
            }
            if busy && self.busy[self.position[u]] as usize != u {
                return Err(format!("station {u}: busy index mismatch"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conserves_customers() {
        let mut j = JacksonNetwork::legitimate_start(32, 1);
        for _ in 0..1000 {
            j.step();
            j.validate().unwrap();
            assert_eq!(j.loads().iter().map(|&x| x as u64).sum::<u64>(), 32);
        }
    }

    #[test]
    fn time_advances() {
        let mut j = JacksonNetwork::legitimate_start(16, 2);
        let t0 = j.time();
        j.step();
        assert!(j.time() > t0);
        assert_eq!(j.events(), 1);
    }

    #[test]
    fn single_customer_walks() {
        let mut j = JacksonNetwork::new(Config::all_in_one(8, 1), Xoshiro256pp::seed_from(3));
        for _ in 0..100 {
            j.step();
            assert_eq!(j.max_load(), 1);
        }
    }

    #[test]
    fn event_rate_matches_busy_count() {
        // With k busy stations, inter-event time is Exp(k): with n=100 all
        // busy initially, mean inter-event ≈ 1/busy.
        let mut j = JacksonNetwork::legitimate_start(100, 4);
        let events = 20_000;
        for _ in 0..events {
            j.step();
        }
        // After many events time should be ≈ events / E[busy]; busy hovers
        // around n(1 - e^{-m/n}-ish); just sanity-check the order.
        let rate = events as f64 / j.time();
        assert!(rate > 30.0 && rate < 110.0, "rate {rate}");
    }

    #[test]
    fn stationary_max_load_is_logarithmic_scale() {
        let n = 256;
        let mut j = JacksonNetwork::legitimate_start(n, 5);
        // Burn in, then measure.
        for _ in 0..50_000 {
            j.step();
        }
        let hist = j.run_events(100_000);
        let mean_max = hist.mean();
        // Product-form geometric-ish tails: mean max load ~ O(log n).
        assert!(
            mean_max > 2.0 && mean_max < 4.0 * (n as f64).ln(),
            "mean max {mean_max}"
        );
    }

    #[test]
    #[should_panic(expected = "no busy stations")]
    fn empty_network_panics() {
        let mut j = JacksonNetwork::new(Config::empty(4), Xoshiro256pp::seed_from(6));
        j.step();
    }
}
