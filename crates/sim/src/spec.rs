//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] describes a complete simulation scenario as *data* —
//! bins, balls, initial configuration, arrival model, queue strategy,
//! topology, adversary schedule, horizon, and stop condition — and the
//! [`scenario`](ScenarioSpec::scenario) factory turns it into a runnable
//! [`Scenario`](crate::scenario::Scenario) around the right engine behind
//! the unified [`Engine`](rbb_core::engine::Engine) trait. New scenario
//! combinations (e.g. LIFO + adversary + graph-restricted walks) therefore
//! need zero new code: compose the fields and run.
//!
//! Specs serialize to JSON (`serde_json::to_string_pretty`) and parse back
//! (`serde_json::from_str`) losslessly; `rbb sim --spec <file.json>` runs a
//! committed spec from the command line. See `specs/` in the repository
//! root for examples and README.md for the schema. The JSON is derived
//! with serde's own attributes: `engine`, `strategy` and `stop` are
//! kebab-case strings (`"all-emptied"`), every other enum a
//! `{"kind": ..., params}` object. Only [`AdversarySpec`], whose kind and
//! schedule share one object, is written by hand. A key that no field
//! names, at any depth, is an error that names it: a misspelt `wieghts` or
//! a `k` in a `one-per-bin` start does not silently run another process.
//!
//! # Determinism
//!
//! Engine construction is a pure function of `(spec, seed)`: the engine RNG
//! is seeded `seed_from(seed)` (the traversal engine keeps its historical
//! `stream(seed, 0)` convention), randomized starts draw from
//! `seed_from(seed ^ salt)`, randomized topologies from
//! `seed_from(seed ^ salt)`, and the adversary from `stream(seed, 0xADFE)`
//! — exactly the conventions the experiments used before the spec API, so
//! spec-driven runs are bit-identical to the hand-constructed ones.
//!
//! # Dense vs sparse engine (`engine` field)
//!
//! The paper's load-only process on the complete topology is served by two
//! interchangeable engines: the dense
//! [`LoadProcess`](rbb_core::process::LoadProcess) (an `O(n)` scan per
//! round) and the sparse
//! [`SparseLoadProcess`](rbb_core::sparse::SparseLoadProcess)
//! (`O(#non-empty bins + departures)` per round, `O(m)` memory). Because
//! the process consumes randomness only through the round's `d` i.i.d.
//! uniform destination draws — `d` being the number of non-empty bins,
//! never a function of how loads are *stored* — the two engines are
//! **bit-identical in trajectory from the same seed** (pinned by
//! `tests/proptest_sparse.rs` across the factory matrix, faults included).
//! The `engine` field selects between them:
//!
//! * `"dense"` — always the dense engine.
//! * `"sparse"` — always the sparse engine (rejected for specs outside the
//!   load-only uniform/complete cell, which has no sparse implementation).
//! * `"sharded"` — the sharded single-trial engine
//!   ([`ShardedLoadProcess`](rbb_core::sharded::ShardedLoadProcess)), for
//!   large dense load-only cells. Unlike `dense`/`sparse` it draws from
//!   *per-shard* RNG streams, so for `shards > 1` it is equal to the dense
//!   stream **in law, not per seed** (pinned by `tests/proptest_sharded.rs`;
//!   `shards: 1` is bit-identical). Its own contract: for a **fixed** shard
//!   count the trajectory is bit-identical at any `RAYON_NUM_THREADS`. The
//!   optional `shards` field (default [`DEFAULT_SHARDS`]) sets the
//!   partition and is part of the reproducibility key.
//! * `"auto"` (also the default when the field is omitted/`null`) — sparse
//!   iff the spec is in the load-only cell **and** `64·balls ≤ n`
//!   ([`SPARSE_AUTO_RATIO`]). The 1/64 density cut-off sits just past the
//!   throughput crossover, which timed unit rounds at `n = 2^20` put
//!   between 1/32 and 1/64 (near 1/45: sparse rounds take about 1.3× the
//!   dense time at 1/32 and 0.8× at 1/64; a dense round streams `4n` bytes
//!   branchlessly, a sparse round rebuilds a hash map of the occupied
//!   bins), and below 1/64 the sparse engine also wins `O(n) → O(m)` on
//!   memory, which at `n = 10^8` is the difference between a 400 MB load
//!   vector and a few megabytes. Denser
//!   load-only cells at `n ≥ `[`SHARDED_AUTO_MIN_N`] resolve to the
//!   sharded engine (with [`DEFAULT_SHARDS`] shards — never the machine's
//!   thread count, which would break cross-machine reproducibility);
//!   everything else is dense. Dense/sparse trajectories are identical
//!   either way; the sharded pick changes the stream but not the law, and
//!   it only fires at scales where per-seed trajectories were never
//!   published.

use serde::{DeError, Deserialize, Serialize, Value};

use rbb_core::config::Config;
use rbb_core::load::{MAX_BEST_OF, MAX_DENSE_BINS};
use rbb_core::sampling::{random_assignment_entries, random_assignment_multinomial};
use rbb_core::strategy::QueueStrategy;
use rbb_core::weights::{Capacities, Weights, DEFAULT_ZIPF_W_MAX};

/// Validation failure for a [`ScenarioSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// Initial configuration of the balls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case", deny_unknown_fields)]
pub enum StartSpec {
    /// One ball per bin (requires `balls == n`) — the legitimate start.
    OnePerBin,
    /// All balls in bin 0 — the worst case for convergence.
    AllInOne,
    /// Balls split evenly over the first `k` bins.
    Packed {
        /// Number of bins the balls are packed into.
        k: usize,
    },
    /// Geometric cascade: bin `i` holds `~m/2^{i+1}` balls.
    Geometric,
    /// One-shot uniform random throw, drawn from `seed ^ salt` — one
    /// uniform draw per ball (the stream every published number pins).
    Random {
        /// XOR-salt applied to the scenario seed for the start's own stream.
        salt: u64,
    },
    /// The same one-shot uniform law as `random`, sampled via binomial
    /// splitting ([`random_assignment_multinomial`]): `O(#occupied)` memory
    /// and a sequential output, the initializer of choice for large-`m`
    /// sparse-regime starts. Equal in law to `random` but **not** per-seed
    /// stream-compatible with it — published `random`-start numbers are
    /// unaffected because this is a distinct start kind.
    RandomMultinomial {
        /// XOR-salt applied to the scenario seed for the start's own stream.
        salt: u64,
    },
}

impl StartSpec {
    /// Builds the initial configuration over `n` bins with `m` balls —
    /// the densified [`build_entries`](StartSpec::build_entries), so each
    /// start layout is defined in exactly one place. Equal to the historic
    /// `Config` constructors (`one_per_bin`, `all_in_one`, `packed`,
    /// `geometric_cascade`, `random_assignment`) configuration-for-
    /// configuration *and*, for `random`, draw-for-draw on the
    /// `seed ^ salt` stream — pinned by the `start_builders_match_config_
    /// constructors` and `build_entries_densify_to_build_for_every_start`
    /// tests.
    pub fn build(&self, n: usize, m: u64, seed: u64) -> Result<Config, SpecError> {
        let entries = self.build_entries(n, m, seed)?;
        let mut config = Config::empty(n);
        let loads = config.loads_slice_mut();
        for (b, l) in entries {
            loads[b as usize] = l;
        }
        Ok(config)
    }

    /// Builds the initial configuration as occupied-bin `(bin, load)`
    /// entries in strictly ascending bin order, the order a load engine
    /// fills from ([`LoadEngine::from_sorted_entries`]), with an exact size
    /// hint. Allocates nothing of size `n`: the `one-per-bin` start, whose
    /// list alone would be `O(n)`, is yielded lazily, and every other start
    /// lists its `O(#occupied)` entries. Densifying the result equals
    /// [`build`](StartSpec::build) exactly — same configuration, and for
    /// `random` the same `seed ^ salt` draw stream — so a sparse engine
    /// started from these entries is bit-identical to a dense engine
    /// started from `build`.
    ///
    /// [`LoadEngine::from_sorted_entries`]: rbb_core::load::LoadEngine::from_sorted_entries
    pub fn build_entries(
        &self,
        n: usize,
        m: u64,
        seed: u64,
    ) -> Result<impl Iterator<Item = (u32, u32)>, SpecError> {
        let m32 = u32::try_from(m).map_err(|_| SpecError("balls must fit in u32".into()))?;
        if n == 0 {
            return Err(SpecError("need at least one bin".into()));
        }
        let listed = match self {
            StartSpec::OnePerBin => {
                if m != n as u64 {
                    return Err(SpecError(format!(
                        "start one-per-bin requires balls == n (got {m} balls, {n} bins)"
                    )));
                }
                return Ok(StartEntries::OnePerBin(0..m32));
            }
            StartSpec::AllInOne => vec![(0, m32)],
            StartSpec::Packed { k } => {
                if *k < 1 || *k > n {
                    return Err(SpecError(format!("packed k = {k} out of range 1..={n}")));
                }
                // Mirrors Config::packed: m/k each, remainder onto bin 0.
                // rbb-lint: allow(lossy-cast, reason = "k <= n is checked above, and validate() bounds n by the u32 range")
                let per = m32 / *k as u32;
                // rbb-lint: allow(lossy-cast, reason = "k <= n is checked above, and validate() bounds n by the u32 range")
                let rem = m32 % *k as u32;
                let mut entries: Vec<(u32, u32)> = Vec::with_capacity(*k);
                // rbb-lint: allow(lossy-cast, reason = "k <= n is checked above, and validate() bounds n by the u32 range")
                for i in 0..*k as u32 {
                    let load = per + if i == 0 { rem } else { 0 };
                    if load > 0 {
                        entries.push((i, load));
                    }
                }
                entries
            }
            StartSpec::Geometric => {
                // Mirrors Config::geometric_cascade: halve what's left per
                // bin (at least 1), unplaceable tail back onto bin 0.
                let mut entries: Vec<(u32, u32)> = Vec::new();
                let mut left = m32;
                // rbb-lint: allow(lossy-cast, reason = "validate() bounds n by the u32 bin-index range")
                for b in 0..n as u32 {
                    if left == 0 {
                        break;
                    }
                    let take = (left / 2).max(1);
                    entries.push((b, take));
                    left -= take;
                }
                if left > 0 {
                    entries[0].1 += left;
                }
                entries
            }
            StartSpec::Random { salt } => {
                let mut rng = crate::seed::xor_salted_rng(seed, *salt);
                random_assignment_entries(&mut rng, n, m)
            }
            StartSpec::RandomMultinomial { salt } => {
                let mut rng = crate::seed::xor_salted_rng(seed, *salt);
                random_assignment_multinomial(&mut rng, n, m)
            }
        };
        Ok(StartEntries::Listed(listed.into_iter()))
    }
}

/// The entries [`StartSpec::build_entries`] yields: the `one-per-bin`
/// start's from its range of bins, every other start's from its list.
enum StartEntries {
    OnePerBin(std::ops::Range<u32>),
    Listed(std::vec::IntoIter<(u32, u32)>),
}

impl Iterator for StartEntries {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        match self {
            StartEntries::OnePerBin(bins) => bins.next().map(|bin| (bin, 1)),
            StartEntries::Listed(entries) => entries.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            StartEntries::OnePerBin(bins) => bins.size_hint(),
            StartEntries::Listed(entries) => entries.size_hint(),
        }
    }

    /// Picks the kind once, so that a storage filling from the entries
    /// runs one tight loop over them.
    fn fold<B, F: FnMut(B, (u32, u32)) -> B>(self, init: B, f: F) -> B {
        match self {
            StartEntries::OnePerBin(bins) => bins.map(|bin| (bin, 1)).fold(init, f),
            StartEntries::Listed(entries) => entries.fold(init, f),
        }
    }
}

/// Which load-process implementation serves the spec — see the module docs
/// ("Dense vs sparse engine") for the full contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub enum EngineSpec {
    /// The dense `O(n)`-per-round engine.
    Dense,
    /// The sparse `O(#occupied)`-per-round engine (load-only cell only).
    Sparse,
    /// The sharded single-trial engine (load-only cell only): per-shard
    /// RNG streams, bit-identical for a fixed `shards` at any thread
    /// count, equal to the dense stream in law (bit-identical at
    /// `shards: 1`).
    Sharded,
    /// Pick per the density heuristic: sparse iff `SPARSE_AUTO_RATIO·balls
    /// ≤ n`, else sharded iff `n ≥ SHARDED_AUTO_MIN_N` (both only in the
    /// load-only cell). The default.
    #[default]
    Auto,
}

/// `auto` engine selection picks the sparse engine when
/// `SPARSE_AUTO_RATIO · balls ≤ n`. See the module docs for why 1/64.
pub const SPARSE_AUTO_RATIO: u64 = 64;

/// `auto` engine selection picks the sharded engine for dense load-only
/// cells with at least this many bins (a scale where the `O(n)` column
/// scans dominate a round and sharding can amortize). Deliberately far
/// above every committed spec and golden fixture that predates the sharded
/// engine, so `auto` resolutions — and therefore published trajectories —
/// are unchanged below it.
pub const SHARDED_AUTO_MIN_N: usize = 2_000_000;

/// Shard count used when `engine: "sharded"` (or an `auto` resolution to
/// it) does not set the `shards` field explicitly. A fixed constant — never
/// the machine's core count — because the shard count is part of the
/// reproducibility key.
pub const DEFAULT_SHARDS: usize = 4;

/// How a moving ball picks its destination (the rebalancing rule).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case", deny_unknown_fields)]
pub enum ArrivalSpec {
    /// Uniform over bins / neighbors — the paper's process.
    Uniform,
    /// Least loaded of `d` uniform candidates (\[36\]; `d = 1` ≡ uniform).
    DChoice {
        /// Number of uniform candidates per re-assignment, 1 to
        /// [`MAX_BEST_OF`].
        d: usize,
    },
    /// The Section-3 Tetris majorant: `⌊(3/4)n⌋` fresh arrivals per round.
    Tetris,
    /// Leaky bins (\[18\]): `Binomial(n, λ)` fresh arrivals per round.
    BatchedTetris {
        /// Arrival rate λ ∈ [0, 1].
        lambda: f64,
    },
}

/// The queue-selection strategy, when ball identities matter.
///
/// Mirrors [`QueueStrategy`] at the spec layer (the core crate stays free
/// of serde).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub enum StrategySpec {
    /// First in, first out.
    Fifo,
    /// Last in, first out.
    Lifo,
    /// Uniformly random enqueued ball.
    Random,
}

impl StrategySpec {
    /// The core-crate strategy this spec value names.
    pub fn to_core(self) -> QueueStrategy {
        match self {
            StrategySpec::Fifo => QueueStrategy::Fifo,
            StrategySpec::Lifo => QueueStrategy::Lifo,
            StrategySpec::Random => QueueStrategy::Random,
        }
    }

    /// Spec value for a core strategy.
    pub fn from_core(s: QueueStrategy) -> Self {
        match s {
            QueueStrategy::Fifo => StrategySpec::Fifo,
            QueueStrategy::Lifo => StrategySpec::Lifo,
            QueueStrategy::Random => StrategySpec::Random,
        }
    }
}

/// Per-ball weights — the weighted generalization of the unit-load model.
///
/// Weights are **metric-only**: they never change the dynamics or the RNG
/// stream (each non-empty bin still releases exactly one ball per round,
/// FIFO by arrival), so the unit configuration of every weighted engine is
/// bit-identical to the historical unit engine. Restricted to the load-only
/// uniform/complete cell — the only cell whose engines carry the weight
/// overlay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case", deny_unknown_fields)]
pub enum WeightsSpec {
    /// Every ball weighs 1 — the paper's model, and the same engine as an
    /// omitted `weights` field.
    Unit,
    /// Power-law weights: ball `k` (in bin order over the start
    /// configuration) weighs `round(w_max / (k+1)^s)`, clamped to
    /// `[1, w_max]`. Deterministic — no RNG draw — so the engine stream is
    /// untouched. Larger `s` concentrates the mass on the first balls.
    Zipf {
        /// Skew exponent (finite, > 0).
        s: f64,
        /// Heaviest weight (`None` ≡ [`DEFAULT_ZIPF_W_MAX`]).
        w_max: Option<u32>,
    },
    /// One weight per ball, in bin order over the start configuration.
    Explicit {
        /// Exactly `balls` entries, all ≥ 1.
        weights: Vec<u32>,
    },
}

impl WeightsSpec {
    /// Lowers to the core weight model for `balls` balls.
    pub fn to_core(&self, balls: u64) -> Weights {
        match self {
            WeightsSpec::Unit => Weights::Unit,
            WeightsSpec::Zipf { s, w_max } => {
                Weights::zipf(balls, *s, w_max.unwrap_or(DEFAULT_ZIPF_W_MAX))
            }
            WeightsSpec::Explicit { weights } => Weights::Explicit(weights.clone()).normalized(),
        }
    }

    /// Whether this spec names the unit weighting (without materializing a
    /// weight vector): `unit`, zipf capped at `w_max: 1`, or an explicit
    /// all-ones vector.
    pub fn is_unit(&self) -> bool {
        match self {
            WeightsSpec::Unit => true,
            WeightsSpec::Zipf { w_max, .. } => w_max.unwrap_or(DEFAULT_ZIPF_W_MAX) == 1,
            WeightsSpec::Explicit { weights } => weights.iter().all(|&w| w == 1),
        }
    }
}

/// Per-bin capacity bounds — *observed* constraints, never dynamics: the
/// process runs exactly as without them while the engine counts how many
/// bins exceed their bound ([`Engine::capacity_violations`]). Restricted to
/// the load-only uniform/complete cell, like [`WeightsSpec`].
///
/// [`Engine::capacity_violations`]: rbb_core::engine::Engine::capacity_violations
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case", deny_unknown_fields)]
pub enum CapacitiesSpec {
    /// No bounds (the same engine as an omitted `capacities` field).
    Unbounded,
    /// Every bin bounded by the same weighted load `c ≥ 1`.
    Uniform {
        /// The shared bound.
        c: u64,
    },
    /// One bound per bin.
    Explicit {
        /// Exactly `n` entries, all ≥ 1.
        caps: Vec<u64>,
    },
}

impl CapacitiesSpec {
    /// Lowers to the core capacity model.
    pub fn to_core(&self) -> Capacities {
        match self {
            CapacitiesSpec::Unbounded => Capacities::Unbounded,
            CapacitiesSpec::Uniform { c } => Capacities::Uniform(*c),
            CapacitiesSpec::Explicit { caps } => Capacities::Explicit(caps.clone()),
        }
    }

    /// Whether this spec names the trivial (unbounded) capacity model.
    pub fn is_unbounded(&self) -> bool {
        matches!(self, CapacitiesSpec::Unbounded)
    }
}

/// The graph the walk is constrained to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case", deny_unknown_fields)]
pub enum TopologySpec {
    /// Complete graph with self-loops — exactly the paper's process, served
    /// by the dedicated (fast) clique engines.
    Complete,
    /// The same complete-with-loops graph, but run through the graph walk's
    /// neighbor sampler — use it when comparing topologies on equal
    /// sampling footing (experiment E13). Bit-identical to
    /// [`Complete`][Self::Complete]: every vertex lists its neighbors as
    /// `0..n` in order, so a neighbor draw is the uniform draw.
    CompleteGraph,
    /// Cycle.
    Ring,
    /// `side × side` torus with `side = round(√n)`.
    Torus,
    /// Hypercube of dimension `round(log₂ n)`.
    Hypercube,
    /// Random `degree`-regular graph drawn from `seed ^ salt`.
    RandomRegular {
        /// Vertex degree.
        degree: usize,
        /// XOR-salt applied to the scenario seed for the graph's stream.
        salt: u64,
    },
    /// Star — the non-regular control.
    Star,
}

impl TopologySpec {
    /// Whether this is the complete-with-loops topology (the paper's clique
    /// process, served by the dedicated engines).
    pub fn is_complete(&self) -> bool {
        matches!(self, TopologySpec::Complete)
    }

    /// Builds the graph at requested size `n` (rounded by the builder where
    /// the family demands it: torus to a square, hypercube to a power of 2).
    pub fn build(&self, n: usize, seed: u64) -> rbb_graphs::Graph {
        match self {
            TopologySpec::Complete | TopologySpec::CompleteGraph => {
                rbb_graphs::complete_with_loops(n)
            }
            TopologySpec::Ring => rbb_graphs::ring(n),
            TopologySpec::Torus => {
                let side = (n as f64).sqrt().round() as usize;
                rbb_graphs::torus(side, side)
            }
            // rbb-lint: allow(lossy-cast, reason = "log2(n) <= 64 for any representable n")
            TopologySpec::Hypercube => rbb_graphs::hypercube((n as f64).log2().round() as u32),
            TopologySpec::RandomRegular { degree, salt } => {
                let mut rng = crate::seed::xor_salted_rng(seed, *salt);
                rbb_graphs::random_regular(n, *degree, &mut rng)
            }
            TopologySpec::Star => rbb_graphs::star(n),
        }
    }
}

/// Which balls the adversary piles where in a faulty round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKindSpec {
    /// Everything into bin 0.
    AllInOne,
    /// Evenly into the first `k` bins.
    Packed {
        /// Number of target bins.
        k: usize,
    },
    /// Everything onto the currently fullest bin.
    FollowTheLeader,
    /// Fresh uniform re-throw (the benign control).
    Random,
}

/// When faults fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleSpec {
    /// Every `γ·n` rounds (the paper's parameterization; γ ≥ 6 analyzed).
    Gamma {
        /// Period multiplier γ.
        gamma: u64,
    },
    /// Every `period` rounds.
    Period {
        /// Fault period in rounds (≥ 1).
        period: u64,
    },
}

/// The adversary arm of a scenario: who reassigns, and how often.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarySpec {
    /// Reassignment rule.
    pub kind: AdversaryKindSpec,
    /// Fault clock.
    pub schedule: ScheduleSpec,
}

/// How long the scenario runs (an upper bound when a stop condition is set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case", deny_unknown_fields)]
pub enum HorizonSpec {
    /// A fixed number of rounds.
    Rounds {
        /// Round budget.
        rounds: u64,
    },
    /// `factor · n` rounds, scaled by the *engine's* bin count (after any
    /// topology rounding).
    FactorN {
        /// Multiplier on n.
        factor: u64,
    },
}

impl HorizonSpec {
    /// Resolves to a concrete round budget for engine size `n`.
    pub fn resolve(&self, n: usize) -> u64 {
        match self {
            HorizonSpec::Rounds { rounds } => *rounds,
            HorizonSpec::FactorN { factor } => factor * n as u64,
        }
    }
}

/// When the run ends before the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub enum StopSpec {
    /// Run the full horizon.
    Horizon,
    /// Stop at the first legitimate configuration (`M(q) ≤ 4 ln n`).
    Legitimate,
    /// Stop once every bin has been empty at least once (Lemma 4).
    AllEmptied,
    /// Stop once every token has visited every node (Corollary 1). Requires
    /// an engine with token identities (a `strategy`).
    Covered,
}

/// A complete, serializable scenario description. See the module docs for
/// the JSON schema and determinism contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Optional human-readable label (printed by `rbb sim`).
    pub name: Option<String>,
    /// Number of bins (nodes). Topology builders may round (torus, cube).
    pub n: usize,
    /// Number of balls (defaults to `n`).
    pub balls: Option<u64>,
    /// Per-ball weights (`None` ≡ unit). Metric-only — see [`WeightsSpec`].
    pub weights: Option<WeightsSpec>,
    /// Per-bin capacity bounds (`None` ≡ unbounded) — see
    /// [`CapacitiesSpec`].
    pub capacities: Option<CapacitiesSpec>,
    /// Initial configuration.
    pub start: StartSpec,
    /// Rebalancing rule.
    pub arrival: ArrivalSpec,
    /// Queue strategy; `None` runs the load-only engine.
    pub strategy: Option<StrategySpec>,
    /// Load-process implementation: `"dense"`, `"sparse"`, `"sharded"`, or
    /// `"auto"` (`None` ≡ auto). See the module docs for the density
    /// heuristic and the bit-identity guarantee.
    pub engine: Option<EngineSpec>,
    /// Shard count for the sharded engine (`None` ≡ [`DEFAULT_SHARDS`]).
    /// Part of the reproducibility key: trajectories are bit-identical for
    /// a fixed shard count, not across shard counts. Only valid together
    /// with `engine: "sharded"`.
    pub shards: Option<usize>,
    /// Topology; [`TopologySpec::Complete`] is the paper's process.
    pub topology: TopologySpec,
    /// Optional adversary arm.
    pub adversary: Option<AdversarySpec>,
    /// Round budget.
    pub horizon: HorizonSpec,
    /// Early-stop condition.
    pub stop: StopSpec,
    /// Master seed for this run (sweeps override per trial).
    pub seed: u64,
}

impl ScenarioSpec {
    /// A builder seeded with the paper's defaults: `n` balls in `n` bins,
    /// one per bin, uniform re-assignment on the clique, no strategy, no
    /// adversary, `100·n` rounds, horizon stop, seed 1.
    pub fn builder(n: usize) -> ScenarioSpecBuilder {
        ScenarioSpecBuilder {
            spec: ScenarioSpec {
                name: None,
                n,
                balls: None,
                weights: None,
                capacities: None,
                start: StartSpec::OnePerBin,
                arrival: ArrivalSpec::Uniform,
                strategy: None,
                engine: None,
                shards: None,
                topology: TopologySpec::Complete,
                adversary: None,
                horizon: HorizonSpec::FactorN { factor: 100 },
                stop: StopSpec::Horizon,
                seed: 1,
            },
        }
    }

    /// The ball count (defaults to `n`).
    pub fn balls_or_default(&self) -> u64 {
        self.balls.unwrap_or(self.n as u64)
    }

    /// Whether the spec lands in the load-only uniform/complete factory
    /// cell — the only cell with both a dense and a sparse implementation.
    pub fn is_load_only_cell(&self) -> bool {
        self.topology.is_complete()
            && self.strategy.is_none()
            && matches!(self.arrival, ArrivalSpec::Uniform)
    }

    /// The core weight model this spec runs with (`None` ≡ unit).
    pub fn core_weights(&self) -> Weights {
        self.weights
            .as_ref()
            .map_or(Weights::Unit, |w| w.to_core(self.balls_or_default()))
    }

    /// The core capacity model this spec runs with (`None` ≡ unbounded).
    pub fn core_capacities(&self) -> Capacities {
        self.capacities
            .as_ref()
            .map_or(Capacities::Unbounded, CapacitiesSpec::to_core)
    }

    /// Whether the spec carries non-trivial weighted state: non-unit
    /// weights or real capacity bounds. A `weights: unit` /
    /// `capacities: unbounded` spec is *not* weighted — it builds the same
    /// engine as omitting the fields, bit for bit.
    pub fn is_weighted(&self) -> bool {
        self.weights.as_ref().is_some_and(|w| !w.is_unit())
            || self.capacities.as_ref().is_some_and(|c| !c.is_unbounded())
    }

    /// Resolves the `engine` field to a concrete choice: explicit
    /// `dense`/`sparse`/`sharded` win; `auto` (and an omitted field) picks
    /// sparse iff the spec is in the load-only cell and
    /// [`SPARSE_AUTO_RATIO`]` · balls ≤ n`, then sharded iff the cell is
    /// load-only and `n ≥ `[`SHARDED_AUTO_MIN_N`], else dense. Dense and
    /// sparse are bit-identical, so choosing between them is purely a
    /// performance decision; the sharded pick keeps the law but changes the
    /// stream (see the module docs), and only fires above the committed
    /// fixtures' scale.
    pub fn resolved_engine(&self) -> EngineSpec {
        match self.engine.unwrap_or_default() {
            EngineSpec::Dense => EngineSpec::Dense,
            EngineSpec::Sparse => EngineSpec::Sparse,
            EngineSpec::Sharded => EngineSpec::Sharded,
            EngineSpec::Auto => {
                let sparse = self.is_load_only_cell()
                    && self
                        .balls_or_default()
                        .checked_mul(SPARSE_AUTO_RATIO)
                        .is_some_and(|scaled| scaled <= self.n as u64);
                if sparse {
                    EngineSpec::Sparse
                } else if self.is_load_only_cell()
                    && self.n >= SHARDED_AUTO_MIN_N
                    && !self.is_weighted()
                {
                    // Weighted mass never auto-selects sharded: the sharded
                    // weighted round is law-equal but stream-different from
                    // dense (it always consumes batched draws), so the
                    // upgrade must be an explicit `engine: "sharded"` opt-in
                    // rather than a silent heuristic flip. Dense and sparse
                    // stay bit-identical under weights, so the sparse pick
                    // above remains safe.
                    EngineSpec::Sharded
                } else {
                    EngineSpec::Dense
                }
            }
        }
    }

    /// The shard count a sharded resolution runs with: the explicit
    /// `shards` field, else [`DEFAULT_SHARDS`] capped at `n` (so tiny
    /// explicit-sharded specs stay valid). Meaningless — and rejected by
    /// [`validate`](Self::validate) — unless the engine is sharded.
    pub fn resolved_shards(&self) -> usize {
        self.shards.unwrap_or(DEFAULT_SHARDS).min(self.n)
    }

    /// Returns a copy with the seed replaced — the sweep entry point (one
    /// spec, many trial seeds).
    pub fn with_seed(&self, seed: u64) -> Self {
        Self {
            seed,
            ..self.clone()
        }
    }

    /// Checks the spec for structural and cross-field validity without
    /// constructing an engine. [`scenario`](ScenarioSpec::scenario) calls
    /// this first, so factory users get the same diagnostics.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.n < 2 {
            return Err(SpecError("n must be at least 2".into()));
        }
        if self.n > u32::MAX as usize + 1 {
            // Bin indices are u32 throughout the workspace; a larger n
            // would silently truncate destination draws in release builds.
            return Err(SpecError(format!(
                "n = {} exceeds the u32 bin-index range",
                self.n
            )));
        }
        if self.n > MAX_DENSE_BINS && self.resolved_engine() != EngineSpec::Sparse {
            return Err(SpecError(format!(
                "n = {} bins: engines that allocate every bin (dense, sharded) are limited \
                 to {MAX_DENSE_BINS} bins; set \"engine\": \"sparse\" for a larger n",
                self.n
            )));
        }
        let m = self.balls_or_default();
        if m == 0 {
            return Err(SpecError("balls must be positive".into()));
        }
        if u32::try_from(m).is_err() {
            return Err(SpecError("balls must fit in u32".into()));
        }
        if self.weights.is_some() || self.capacities.is_some() {
            if !self.is_load_only_cell() {
                // Strict like `shards`: a weights/capacities field outside
                // the only cell that implements them is a typo'd intent.
                return Err(SpecError(
                    "weights/capacities apply to the load-only uniform process on the \
                     complete topology; remove `strategy`/`topology`/`arrival` overrides"
                        .into(),
                ));
            }
            if self.is_weighted() && self.adversary.is_some() {
                return Err(SpecError(
                    "weighted scenarios do not support adversaries yet".into(),
                ));
            }
            if let Some(WeightsSpec::Zipf { s, w_max }) = &self.weights {
                if !s.is_finite() || *s <= 0.0 {
                    return Err(SpecError(format!(
                        "zipf weights need a finite skew s > 0 (got {s})"
                    )));
                }
                if w_max == &Some(0) {
                    return Err(SpecError("zipf weights need w_max >= 1".into()));
                }
            }
            if let Some(WeightsSpec::Explicit { weights }) = &self.weights {
                // Validate the raw vector: `to_core` collapses all-ones to
                // the unit model, which would mask an arity mismatch.
                Weights::Explicit(weights.clone())
                    .validate(m)
                    .map_err(|e| SpecError(format!("invalid weights: {e}")))?;
            }
            self.core_capacities()
                .validate(self.n)
                .map_err(|e| SpecError(format!("invalid capacities: {e}")))?;
        }
        if matches!(self.start, StartSpec::OnePerBin) && m != self.n as u64 {
            return Err(SpecError(format!(
                "start one-per-bin requires balls == n (got {m} balls, {} bins); \
                 omit `balls` to default it",
                self.n
            )));
        }
        if self.horizon.resolve(self.n) == 0 {
            return Err(SpecError("horizon must be positive".into()));
        }
        if self.engine == Some(EngineSpec::Sparse) && !self.is_load_only_cell() {
            return Err(SpecError(
                "the sparse engine serves the load-only uniform process on the complete \
                 topology; remove `strategy`/`topology`/`arrival` overrides or set \
                 engine to \"dense\" or \"auto\""
                    .into(),
            ));
        }
        if self.engine == Some(EngineSpec::Sharded) && !self.is_load_only_cell() {
            return Err(SpecError(
                "the sharded engine serves the load-only uniform process on the complete \
                 topology; remove `strategy`/`topology`/`arrival` overrides or set \
                 engine to \"dense\" or \"auto\""
                    .into(),
            ));
        }
        if let Some(shards) = self.shards {
            if self.engine != Some(EngineSpec::Sharded) {
                // Strict: a shards field on a non-sharded spec is a typo'd
                // intent, not a harmless default.
                return Err(SpecError(
                    "`shards` only applies to engine \"sharded\"; set engine: \"sharded\" \
                     or remove the field"
                        .into(),
                ));
            }
            if shards < 1 || shards > self.n {
                return Err(SpecError(format!(
                    "shards = {shards} out of range 1..={} (need 1 <= shards <= n)",
                    self.n
                )));
            }
        }
        if let StartSpec::Packed { k } = self.start {
            if k < 1 || k > self.n {
                return Err(SpecError(format!(
                    "packed start k = {k} out of range 1..={}",
                    self.n
                )));
            }
        }
        match self.arrival {
            ArrivalSpec::DChoice { d } => {
                if !(1..=MAX_BEST_OF).contains(&d) {
                    return Err(SpecError(format!(
                        "d-choice needs 1 <= d <= {MAX_BEST_OF}, got {d}"
                    )));
                }
                if self.strategy.is_some() {
                    return Err(SpecError(
                        "d-choice is a load-only engine; remove `strategy`".into(),
                    ));
                }
                if !self.topology.is_complete() {
                    return Err(SpecError("d-choice runs on the complete topology".into()));
                }
            }
            ArrivalSpec::Tetris | ArrivalSpec::BatchedTetris { .. } => {
                if self.strategy.is_some() {
                    return Err(SpecError(
                        "Tetris engines are load-only; remove `strategy`".into(),
                    ));
                }
                if !self.topology.is_complete() {
                    return Err(SpecError("Tetris runs on the complete topology".into()));
                }
                if self.adversary.is_some() {
                    return Err(SpecError(
                        "Tetris does not conserve balls, so adversarial reassignment is undefined"
                            .into(),
                    ));
                }
                if let ArrivalSpec::BatchedTetris { lambda } = self.arrival {
                    if !(0.0..=1.0).contains(&lambda) {
                        return Err(SpecError(format!("lambda = {lambda} outside [0, 1]")));
                    }
                }
            }
            ArrivalSpec::Uniform => {}
        }
        if !self.topology.is_complete() {
            if self.strategy.is_some() && !matches!(self.start, StartSpec::OnePerBin) {
                return Err(SpecError(
                    "graph token walks start one-per-node; use start one-per-bin".into(),
                ));
            }
            // Builder preconditions, surfaced as spec diagnostics instead of
            // panics inside the graph constructors.
            match self.topology {
                TopologySpec::Ring if self.n < 3 => {
                    return Err(SpecError("ring needs n >= 3".into()))
                }
                TopologySpec::Torus if ((self.n as f64).sqrt().round() as usize) < 3 => {
                    return Err(SpecError("torus needs n >= 7 (side >= 3)".into()))
                }
                TopologySpec::RandomRegular { degree, .. } => {
                    if degree < 1 || degree >= self.n {
                        return Err(SpecError(format!(
                            "regular topology needs 1 <= degree < n (degree {degree}, n {})",
                            self.n
                        )));
                    }
                    if self.n * degree % 2 != 0 {
                        return Err(SpecError(format!(
                            "regular topology needs n·degree even (n {}, degree {degree})",
                            self.n
                        )));
                    }
                }
                _ => {}
            }
        }
        if self.stop == StopSpec::Covered && self.strategy.is_none() {
            return Err(SpecError(
                "the covered stop needs token identities; set a `strategy`".into(),
            ));
        }
        if let Some(adv) = &self.adversary {
            match adv.schedule {
                ScheduleSpec::Gamma { gamma: 0 } => {
                    return Err(SpecError("gamma must be >= 1".into()))
                }
                ScheduleSpec::Period { period: 0 } => {
                    return Err(SpecError("fault period must be >= 1".into()))
                }
                _ => {}
            }
            if let AdversaryKindSpec::Packed { k } = adv.kind {
                if k == 0 {
                    return Err(SpecError("packed adversary needs k >= 1".into()));
                }
            }
        }
        Ok(())
    }
}

/// Fluent construction of a [`ScenarioSpec`]; see
/// [`ScenarioSpec::builder`] for the defaults.
#[derive(Debug, Clone)]
pub struct ScenarioSpecBuilder {
    spec: ScenarioSpec,
}

impl ScenarioSpecBuilder {
    /// Sets the display name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.spec.name = Some(name.into());
        self
    }

    /// Sets the ball count (default: `n`).
    pub fn balls(mut self, m: u64) -> Self {
        self.spec.balls = Some(m);
        self
    }

    /// Sets the per-ball weights (default: unit).
    pub fn weights(mut self, w: WeightsSpec) -> Self {
        self.spec.weights = Some(w);
        self
    }

    /// Sets the per-bin capacity bounds (default: unbounded).
    pub fn capacities(mut self, c: CapacitiesSpec) -> Self {
        self.spec.capacities = Some(c);
        self
    }

    /// Sets the initial configuration.
    pub fn start(mut self, start: StartSpec) -> Self {
        self.spec.start = start;
        self
    }

    /// Sets the arrival model.
    pub fn arrival(mut self, arrival: ArrivalSpec) -> Self {
        self.spec.arrival = arrival;
        self
    }

    /// Sets the queue strategy (ball-identity engines).
    pub fn strategy(mut self, s: StrategySpec) -> Self {
        self.spec.strategy = Some(s);
        self
    }

    /// Sets the load-process implementation (default: auto).
    pub fn engine(mut self, e: EngineSpec) -> Self {
        self.spec.engine = Some(e);
        self
    }

    /// Sets the shard count for the sharded engine (default:
    /// [`DEFAULT_SHARDS`]). Only valid together with
    /// [`engine`](Self::engine)`(EngineSpec::Sharded)`.
    pub fn shards(mut self, shards: usize) -> Self {
        self.spec.shards = Some(shards);
        self
    }

    /// Sets the topology.
    pub fn topology(mut self, t: TopologySpec) -> Self {
        self.spec.topology = t;
        self
    }

    /// Sets the adversary arm.
    pub fn adversary(mut self, kind: AdversaryKindSpec, schedule: ScheduleSpec) -> Self {
        self.spec.adversary = Some(AdversarySpec { kind, schedule });
        self
    }

    /// Sets a fixed-round horizon.
    pub fn horizon_rounds(mut self, rounds: u64) -> Self {
        self.spec.horizon = HorizonSpec::Rounds { rounds };
        self
    }

    /// Sets a `factor·n` horizon.
    pub fn horizon_factor(mut self, factor: u64) -> Self {
        self.spec.horizon = HorizonSpec::FactorN { factor };
        self
    }

    /// Sets the stop condition.
    pub fn stop(mut self, stop: StopSpec) -> Self {
        self.spec.stop = stop;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Finishes the build (unvalidated; `scenario()` validates).
    pub fn build(self) -> ScenarioSpec {
        self.spec
    }
}

// `AdversarySpec` writes its kind and its schedule into one object, which
// no derive can express, so its serde is written out; its keys are checked
// as a derived type's are.

impl Serialize for AdversarySpec {
    fn serialize(&self) -> Value {
        let (kind, k) = match self.kind {
            AdversaryKindSpec::AllInOne => ("all-in-one", None),
            AdversaryKindSpec::Packed { k } => ("packed", Some(k)),
            AdversaryKindSpec::FollowTheLeader => ("follow-the-leader", None),
            AdversaryKindSpec::Random => ("random", None),
        };
        let schedule = match self.schedule {
            ScheduleSpec::Gamma { gamma } => ("gamma", gamma),
            ScheduleSpec::Period { period } => ("period", period),
        };
        let mut object = vec![("kind".to_string(), kind.serialize())];
        object.extend(k.map(|k| ("k".to_string(), k.serialize())));
        object.push((schedule.0.to_string(), schedule.1.serialize()));
        Value::Object(object)
    }
}

impl Deserialize for AdversarySpec {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        let name = serde::variant(value, Some("kind"))?;
        let kind = match name {
            "all-in-one" => AdversaryKindSpec::AllInOne,
            "packed" => AdversaryKindSpec::Packed {
                k: serde::read_field(value, "k")?,
            },
            "follow-the-leader" => AdversaryKindSpec::FollowTheLeader,
            "random" => AdversaryKindSpec::Random,
            other => {
                return Err(serde::unknown_variant(
                    "kind",
                    other,
                    &["all-in-one", "packed", "follow-the-leader", "random"],
                ))
            }
        };
        let keys: &[&str] = match kind {
            AdversaryKindSpec::Packed { .. } => &["kind", "k", "gamma", "period"],
            _ => &["kind", "gamma", "period"],
        };
        serde::deny_unknown_fields(value, &format!("kind '{name}'"), keys)?;
        let schedule = match (
            serde::read_field(value, "gamma")?,
            serde::read_field(value, "period")?,
        ) {
            (Some(gamma), None) => ScheduleSpec::Gamma { gamma },
            (None, Some(period)) => ScheduleSpec::Period { period },
            _ => {
                return Err(DeError(
                    "adversary needs exactly one of `gamma` or `period`".to_string(),
                ))
            }
        };
        Ok(AdversarySpec { kind, schedule })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbb_core::rng::Xoshiro256pp;
    use rbb_core::sampling::random_assignment;

    fn full_spec() -> ScenarioSpec {
        ScenarioSpec::builder(256)
            .name("kitchen-sink")
            .balls(256)
            .start(StartSpec::Random { salt: 0xFEED })
            .strategy(StrategySpec::Lifo)
            .topology(TopologySpec::Complete)
            .adversary(
                AdversaryKindSpec::Packed { k: 3 },
                ScheduleSpec::Gamma { gamma: 6 },
            )
            .horizon_rounds(5_000)
            .stop(StopSpec::Covered)
            .seed(42)
            .build()
    }

    #[test]
    fn builder_defaults_are_the_paper_process() {
        let spec = ScenarioSpec::builder(128).build();
        assert_eq!(spec.n, 128);
        assert_eq!(spec.balls_or_default(), 128);
        assert_eq!(spec.start, StartSpec::OnePerBin);
        assert_eq!(spec.arrival, ArrivalSpec::Uniform);
        assert_eq!(spec.strategy, None);
        assert_eq!(spec.topology, TopologySpec::Complete);
        assert_eq!(spec.horizon.resolve(spec.n), 12_800);
        assert_eq!(spec.stop, StopSpec::Horizon);
        spec.validate().unwrap();
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let spec = full_spec();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn minimal_json_with_nulls_parses() {
        let json = r#"{
            "name": null, "n": 64, "balls": null,
            "start": {"kind": "one-per-bin"},
            "arrival": {"kind": "uniform"},
            "strategy": null,
            "topology": {"kind": "complete"},
            "adversary": null,
            "horizon": {"kind": "factor-n", "factor": 10},
            "stop": "horizon",
            "seed": 7
        }"#;
        let spec: ScenarioSpec = serde_json::from_str(json).unwrap();
        assert_eq!(
            spec,
            ScenarioSpec::builder(64).horizon_factor(10).seed(7).build()
        );
        // Omitting the optional keys entirely is equivalent to null.
        let json_sparse = r#"{
            "n": 64,
            "start": {"kind": "one-per-bin"},
            "arrival": {"kind": "uniform"},
            "topology": {"kind": "complete"},
            "horizon": {"kind": "factor-n", "factor": 10},
            "stop": "horizon",
            "seed": 7
        }"#;
        let sparse: ScenarioSpec = serde_json::from_str(json_sparse).unwrap();
        assert_eq!(sparse, spec);
    }

    #[test]
    fn bad_json_reports_field() {
        let json = r#"{
            "n": 64,
            "start": {"kind": "sideways"},
            "arrival": {"kind": "uniform"},
            "topology": {"kind": "complete"},
            "horizon": {"kind": "rounds", "rounds": 10},
            "stop": "horizon",
            "seed": 1
        }"#;
        let err = serde_json::from_str::<ScenarioSpec>(json).unwrap_err();
        assert!(err.to_string().contains("start"), "{err}");
        // A key that no field names is refused by name, at any depth.
        let json = json.replace("sideways", "one-per-bin");
        serde_json::from_str::<ScenarioSpec>(&json).unwrap();
        for (from, to, key) in [
            (r#""seed""#, r#""bogus": 1, "seed""#, "bogus"),
            (
                r#""seed""#,
                r#""wieghts": {"kind": "unit"}, "seed""#,
                "wieghts",
            ),
            (r#""one-per-bin""#, r#""one-per-bin", "k": 5"#, "k"),
            (r#""uniform""#, r#""uniform", "d": 2"#, "d"),
        ] {
            let err = serde_json::from_str::<ScenarioSpec>(&json.replace(from, to)).unwrap_err();
            assert!(
                err.to_string().contains(&format!("no field '{key}'")),
                "{err}"
            );
        }
    }

    #[test]
    fn engines_that_allocate_every_bin_are_refused_above_the_bin_limit() {
        // One ball in 2^32 bins: a dense or sharded engine would allocate
        // 16 GiB of loads and abort, so `validate` refuses it first.
        let big = |n: usize, engine| {
            ScenarioSpec::builder(n)
                .balls(1)
                .start(StartSpec::AllInOne)
                .engine(engine)
                .build()
        };
        for engine in [EngineSpec::Dense, EngineSpec::Sharded] {
            let err = big(1 << 32, engine).validate().unwrap_err();
            assert!(err.0.contains(&MAX_DENSE_BINS.to_string()), "{err}");
            assert!(err.0.contains(r#""engine": "sparse""#), "{err}");
            big(MAX_DENSE_BINS, engine).validate().unwrap();
        }
        big(1 << 32, EngineSpec::Sparse).validate().unwrap();
        // `auto` resolves to sparse storage here, but to sharded storage
        // for one ball per bin.
        big(1 << 32, EngineSpec::Auto).validate().unwrap();
        let dense_cell = ScenarioSpec::builder(MAX_DENSE_BINS + 1).build();
        assert!(dense_cell.validate().is_err());
    }

    #[test]
    fn validation_catches_cross_field_conflicts() {
        let bad = [
            ScenarioSpec::builder(1).build(),
            ScenarioSpec::builder(u32::MAX as usize + 2)
                .balls(100)
                .start(StartSpec::AllInOne)
                .build(),
            ScenarioSpec::builder(64).balls(0).build(),
            ScenarioSpec::builder(64).horizon_rounds(0).build(),
            ScenarioSpec::builder(64)
                .arrival(ArrivalSpec::DChoice { d: 0 })
                .build(),
            ScenarioSpec::builder(64)
                .arrival(ArrivalSpec::DChoice { d: MAX_BEST_OF + 1 })
                .build(),
            ScenarioSpec::builder(64)
                .arrival(ArrivalSpec::DChoice { d: 2 })
                .strategy(StrategySpec::Fifo)
                .build(),
            ScenarioSpec::builder(64)
                .arrival(ArrivalSpec::Tetris)
                .topology(TopologySpec::Ring)
                .build(),
            ScenarioSpec::builder(64)
                .arrival(ArrivalSpec::BatchedTetris { lambda: 1.5 })
                .build(),
            ScenarioSpec::builder(64)
                .arrival(ArrivalSpec::Tetris)
                .adversary(
                    AdversaryKindSpec::AllInOne,
                    ScheduleSpec::Gamma { gamma: 6 },
                )
                .build(),
            ScenarioSpec::builder(64).stop(StopSpec::Covered).build(),
            ScenarioSpec::builder(64)
                .strategy(StrategySpec::Fifo)
                .adversary(
                    AdversaryKindSpec::AllInOne,
                    ScheduleSpec::Period { period: 0 },
                )
                .build(),
            ScenarioSpec::builder(64)
                .start(StartSpec::Packed { k: 100 })
                .build(),
            ScenarioSpec::builder(64)
                .topology(TopologySpec::Ring)
                .strategy(StrategySpec::Fifo)
                .start(StartSpec::AllInOne)
                .build(),
        ];
        for spec in bad {
            assert!(spec.validate().is_err(), "accepted: {spec:?}");
        }
    }

    #[test]
    fn start_builders_match_config_constructors() {
        let n = 16;
        assert_eq!(
            StartSpec::OnePerBin.build(n, 16, 1).unwrap(),
            Config::one_per_bin(n)
        );
        assert_eq!(
            StartSpec::AllInOne.build(n, 20, 1).unwrap(),
            Config::all_in_one(n, 20)
        );
        assert_eq!(
            StartSpec::Packed { k: 4 }.build(n, 20, 1).unwrap(),
            Config::packed(n, 20, 4)
        );
        assert_eq!(
            StartSpec::Geometric.build(n, 16, 1).unwrap(),
            Config::geometric_cascade(n, 16)
        );
        // Random start derives from seed ^ salt — the e05 convention.
        let mut rng = Xoshiro256pp::seed_from(9 ^ 0xFEED);
        let expect = Config::from_loads(random_assignment(&mut rng, n, 16));
        assert_eq!(
            StartSpec::Random { salt: 0xFEED }.build(n, 16, 9).unwrap(),
            expect
        );
        assert!(StartSpec::OnePerBin.build(n, 15, 1).is_err());
    }

    #[test]
    fn build_entries_densify_to_build_for_every_start() {
        // The sparse start builders must produce exactly the configuration
        // the dense builders do — same loads, and for `random` the same
        // seed ^ salt draw stream.
        let n = 40;
        let cases = [
            (StartSpec::OnePerBin, 40u64),
            (StartSpec::AllInOne, 23),
            (StartSpec::Packed { k: 7 }, 23),
            (StartSpec::Geometric, 23),
            (StartSpec::Random { salt: 0xFEED }, 23),
            (StartSpec::RandomMultinomial { salt: 0xFEED }, 23),
            (StartSpec::Geometric, 1),
            (StartSpec::Packed { k: 40 }, 3),
        ];
        for (start, m) in cases {
            let dense = start.build(n, m, 9).unwrap();
            // The iterator a load engine fills from: strictly ascending
            // bins, and a size hint exact enough to reserve a map by.
            let entries = start.build_entries(n, m, 9).unwrap();
            let hint = entries.size_hint();
            let entries: Vec<(u32, u32)> = entries.collect();
            assert_eq!(hint, (entries.len(), Some(entries.len())), "{start:?}");
            assert!(
                entries.windows(2).all(|w| w[0].0 < w[1].0),
                "{start:?}: bins not strictly ascending"
            );
            let mut rebuilt = vec![0u32; n];
            for (b, l) in entries {
                assert!(l > 0, "{start:?}: zero entry");
                assert_eq!(rebuilt[b as usize], 0, "{start:?}: duplicate bin {b}");
                rebuilt[b as usize] = l;
            }
            assert_eq!(rebuilt, dense.loads(), "{start:?} with m = {m}");
        }
    }

    #[test]
    fn engine_field_round_trips_and_defaults_to_auto() {
        let spec = ScenarioSpec::builder(6400)
            .balls(10)
            .start(StartSpec::AllInOne)
            .engine(EngineSpec::Sparse)
            .build();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        assert!(json.contains("\"engine\": \"sparse\""));
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // Omitted field parses as None and resolves via the heuristic.
        let default = ScenarioSpec::builder(64).build();
        assert_eq!(default.engine, None);
        assert!(serde_json::to_string_pretty(&default)
            .unwrap()
            .contains("\"engine\": null"));
    }

    #[test]
    fn auto_heuristic_picks_sparse_only_when_sparse_enough() {
        // Density 1 (the paper's m = n): dense.
        assert_eq!(
            ScenarioSpec::builder(1024).build().resolved_engine(),
            EngineSpec::Dense
        );
        // 64·m == n: sparse (boundary inclusive).
        assert_eq!(
            ScenarioSpec::builder(1024)
                .balls(16)
                .start(StartSpec::AllInOne)
                .build()
                .resolved_engine(),
            EngineSpec::Sparse
        );
        // Just above the boundary: dense.
        assert_eq!(
            ScenarioSpec::builder(1024)
                .balls(17)
                .start(StartSpec::AllInOne)
                .build()
                .resolved_engine(),
            EngineSpec::Dense
        );
        // Sparse density but outside the load-only cell: dense.
        assert_eq!(
            ScenarioSpec::builder(2048)
                .balls(8)
                .start(StartSpec::AllInOne)
                .arrival(ArrivalSpec::DChoice { d: 2 })
                .build()
                .resolved_engine(),
            EngineSpec::Dense
        );
        // Explicit choices always win.
        assert_eq!(
            ScenarioSpec::builder(1024)
                .engine(EngineSpec::Sparse)
                .build()
                .resolved_engine(),
            EngineSpec::Sparse
        );
        assert_eq!(
            ScenarioSpec::builder(1 << 20)
                .balls(1)
                .start(StartSpec::AllInOne)
                .engine(EngineSpec::Dense)
                .build()
                .resolved_engine(),
            EngineSpec::Dense
        );
    }

    #[test]
    fn sharded_engine_round_trips_with_shards_field() {
        let spec = ScenarioSpec::builder(4096)
            .engine(EngineSpec::Sharded)
            .shards(4)
            .build();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        assert!(json.contains("\"engine\": \"sharded\""));
        assert!(json.contains("\"shards\": 4"));
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        spec.validate().unwrap();
        assert_eq!(spec.resolved_engine(), EngineSpec::Sharded);
        assert_eq!(spec.resolved_shards(), 4);
        // Omitted shards field: the fixed default, capped at n.
        let default = ScenarioSpec::builder(4096)
            .engine(EngineSpec::Sharded)
            .build();
        default.validate().unwrap();
        assert_eq!(default.resolved_shards(), DEFAULT_SHARDS);
        let tiny = ScenarioSpec::builder(2).engine(EngineSpec::Sharded).build();
        tiny.validate().unwrap();
        assert_eq!(tiny.resolved_shards(), 2);
    }

    #[test]
    fn auto_heuristic_picks_sharded_only_at_large_dense_n() {
        // Large dense load-only cell: sharded (boundary inclusive).
        let big = ScenarioSpec::builder(SHARDED_AUTO_MIN_N).build();
        assert_eq!(big.resolved_engine(), EngineSpec::Sharded);
        assert_eq!(big.resolved_shards(), DEFAULT_SHARDS);
        // Just below the boundary: dense.
        assert_eq!(
            ScenarioSpec::builder(SHARDED_AUTO_MIN_N - 1)
                .build()
                .resolved_engine(),
            EngineSpec::Dense
        );
        // Sparse wins over sharded when both heuristics fire.
        assert_eq!(
            ScenarioSpec::builder(SHARDED_AUTO_MIN_N)
                .balls(100)
                .start(StartSpec::AllInOne)
                .build()
                .resolved_engine(),
            EngineSpec::Sparse
        );
        // Large n outside the load-only cell: dense.
        assert_eq!(
            ScenarioSpec::builder(SHARDED_AUTO_MIN_N)
                .arrival(ArrivalSpec::DChoice { d: 2 })
                .build()
                .resolved_engine(),
            EngineSpec::Dense
        );
        // Explicit dense wins at any n.
        assert_eq!(
            ScenarioSpec::builder(SHARDED_AUTO_MIN_N)
                .engine(EngineSpec::Dense)
                .build()
                .resolved_engine(),
            EngineSpec::Dense
        );
    }

    #[test]
    fn sharded_engine_rejected_outside_load_only_cell() {
        let bad = [
            ScenarioSpec::builder(64)
                .engine(EngineSpec::Sharded)
                .strategy(StrategySpec::Fifo)
                .build(),
            ScenarioSpec::builder(64)
                .engine(EngineSpec::Sharded)
                .topology(TopologySpec::Ring)
                .build(),
            ScenarioSpec::builder(64)
                .engine(EngineSpec::Sharded)
                .arrival(ArrivalSpec::Tetris)
                .build(),
        ];
        for spec in bad {
            let err = spec.validate().unwrap_err();
            assert!(err.0.contains("sharded engine"), "{err}");
        }
    }

    #[test]
    fn shards_field_validation() {
        // shards without engine: "sharded" is rejected, even harmless ones.
        for engine in [None, Some(EngineSpec::Dense), Some(EngineSpec::Auto)] {
            let mut spec = ScenarioSpec::builder(64).shards(4).build();
            spec.engine = engine;
            let err = spec.validate().unwrap_err();
            assert!(err.0.contains("shards"), "{err}");
        }
        // Out-of-range shard counts are rejected.
        for shards in [0usize, 65] {
            let err = ScenarioSpec::builder(64)
                .engine(EngineSpec::Sharded)
                .shards(shards)
                .build()
                .validate()
                .unwrap_err();
            assert!(err.0.contains("shards"), "{err}");
        }
        // The full valid range passes.
        for shards in [1usize, 64] {
            ScenarioSpec::builder(64)
                .engine(EngineSpec::Sharded)
                .shards(shards)
                .build()
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn sparse_engine_rejected_outside_load_only_cell() {
        let bad = [
            ScenarioSpec::builder(64)
                .engine(EngineSpec::Sparse)
                .strategy(StrategySpec::Fifo)
                .build(),
            ScenarioSpec::builder(64)
                .engine(EngineSpec::Sparse)
                .topology(TopologySpec::Ring)
                .build(),
            ScenarioSpec::builder(64)
                .engine(EngineSpec::Sparse)
                .arrival(ArrivalSpec::Tetris)
                .build(),
        ];
        for spec in bad {
            let err = spec.validate().unwrap_err();
            assert!(err.0.contains("sparse engine"), "{err}");
        }
        // Auto never errors — it just resolves to dense there.
        ScenarioSpec::builder(64)
            .engine(EngineSpec::Auto)
            .strategy(StrategySpec::Fifo)
            .build()
            .validate()
            .unwrap();
    }

    #[test]
    fn with_seed_only_changes_seed() {
        let spec = full_spec();
        let reseeded = spec.with_seed(99);
        assert_eq!(reseeded.seed, 99);
        assert_eq!(reseeded.with_seed(spec.seed), spec);
    }

    #[test]
    fn weighted_spec_round_trips_and_validates() {
        let spec = ScenarioSpec::builder(64)
            .weights(WeightsSpec::Zipf {
                s: 1.0,
                w_max: None,
            })
            .capacities(CapacitiesSpec::Uniform { c: 40 })
            .horizon_rounds(100)
            .build();
        spec.validate().unwrap();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        assert!(json.contains("\"kind\": \"zipf\""), "{json}");
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert!(spec.is_weighted());

        let explicit = ScenarioSpec::builder(4)
            .balls(4)
            .weights(WeightsSpec::Explicit {
                weights: vec![5, 1, 2, 1],
            })
            .capacities(CapacitiesSpec::Explicit {
                caps: vec![9, 9, 9, 9],
            })
            .build();
        explicit.validate().unwrap();
        let json = serde_json::to_string_pretty(&explicit).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, explicit);
    }

    #[test]
    fn old_spec_json_without_weighted_keys_still_parses() {
        // The pre-weights schema (no `weights`/`capacities` keys) must keep
        // parsing to the unit model — every committed spec predates them.
        let json = r#"{
            "n": 64,
            "start": {"kind": "one-per-bin"},
            "arrival": {"kind": "uniform"},
            "topology": {"kind": "complete"},
            "horizon": {"kind": "factor-n", "factor": 10},
            "stop": "horizon",
            "seed": 7
        }"#;
        let spec: ScenarioSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.weights, None);
        assert_eq!(spec.capacities, None);
        assert!(!spec.is_weighted());
        assert_eq!(spec.core_weights(), rbb_core::weights::Weights::Unit);
        assert!(spec.core_capacities().is_unbounded());
    }

    #[test]
    fn unit_weight_specs_are_not_weighted() {
        // All three spellings of "everything weighs 1" are recognized as
        // the unit model without materializing a weight vector.
        for w in [
            WeightsSpec::Unit,
            WeightsSpec::Zipf {
                s: 2.0,
                w_max: Some(1),
            },
            WeightsSpec::Explicit {
                weights: vec![1; 64],
            },
        ] {
            let spec = ScenarioSpec::builder(64).weights(w.clone()).build();
            spec.validate().unwrap();
            assert!(!spec.is_weighted(), "{w:?}");
            assert!(spec.core_weights().is_unit(), "{w:?}");
        }
    }

    #[test]
    fn weighted_validation_catches_bad_specs() {
        let bad = [
            // Outside the load-only cell.
            ScenarioSpec::builder(64)
                .weights(WeightsSpec::Unit)
                .strategy(StrategySpec::Fifo)
                .build(),
            ScenarioSpec::builder(64)
                .capacities(CapacitiesSpec::Uniform { c: 4 })
                .topology(TopologySpec::Ring)
                .build(),
            ScenarioSpec::builder(64)
                .weights(WeightsSpec::Zipf {
                    s: 1.0,
                    w_max: None,
                })
                .arrival(ArrivalSpec::DChoice { d: 2 })
                .build(),
            // Weighted + adversary.
            ScenarioSpec::builder(64)
                .weights(WeightsSpec::Zipf {
                    s: 1.0,
                    w_max: None,
                })
                .adversary(
                    AdversaryKindSpec::AllInOne,
                    ScheduleSpec::Gamma { gamma: 6 },
                )
                .build(),
            // Bad zipf parameters.
            ScenarioSpec::builder(64)
                .weights(WeightsSpec::Zipf {
                    s: f64::NAN,
                    w_max: None,
                })
                .build(),
            ScenarioSpec::builder(64)
                .weights(WeightsSpec::Zipf {
                    s: -1.0,
                    w_max: None,
                })
                .build(),
            ScenarioSpec::builder(64)
                .weights(WeightsSpec::Zipf {
                    s: 0.0,
                    w_max: None,
                })
                .build(),
            ScenarioSpec::builder(64)
                .weights(WeightsSpec::Zipf {
                    s: 1.0,
                    w_max: Some(0),
                })
                .build(),
            // Wrong arities / zero entries.
            ScenarioSpec::builder(64)
                .weights(WeightsSpec::Explicit {
                    weights: vec![2, 3],
                })
                .build(),
            ScenarioSpec::builder(64)
                .weights(WeightsSpec::Explicit {
                    weights: vec![1; 63],
                })
                .build(),
            ScenarioSpec::builder(4)
                .balls(4)
                .weights(WeightsSpec::Explicit {
                    weights: vec![1, 0, 1, 1],
                })
                .build(),
            ScenarioSpec::builder(64)
                .capacities(CapacitiesSpec::Explicit { caps: vec![4, 4] })
                .build(),
            ScenarioSpec::builder(64)
                .capacities(CapacitiesSpec::Uniform { c: 0 })
                .build(),
        ];
        for spec in bad {
            assert!(spec.validate().is_err(), "accepted: {spec:?}");
        }
        // A unit weights field beside an adversary stays legal: the engine
        // is the plain unit engine.
        ScenarioSpec::builder(64)
            .weights(WeightsSpec::Unit)
            .adversary(
                AdversaryKindSpec::AllInOne,
                ScheduleSpec::Gamma { gamma: 6 },
            )
            .build()
            .validate()
            .unwrap();
    }

    #[test]
    fn weighted_mass_never_auto_selects_sharded() {
        // Unit-weight control at the sharded auto threshold: sharded.
        let unit = ScenarioSpec::builder(SHARDED_AUTO_MIN_N).build();
        assert_eq!(unit.resolved_engine(), EngineSpec::Sharded);
        // The same spec with non-unit weights resolves dense instead.
        let weighted = ScenarioSpec::builder(SHARDED_AUTO_MIN_N)
            .weights(WeightsSpec::Zipf {
                s: 1.0,
                w_max: None,
            })
            .build();
        assert_eq!(weighted.resolved_engine(), EngineSpec::Dense);
        // Capacity bounds alone also block the silent stream flip.
        let capped = ScenarioSpec::builder(SHARDED_AUTO_MIN_N)
            .capacities(CapacitiesSpec::Uniform { c: 30 })
            .build();
        assert_eq!(capped.resolved_engine(), EngineSpec::Dense);
        // A unit weights field does not: it is the same engine.
        let unit_field = ScenarioSpec::builder(SHARDED_AUTO_MIN_N)
            .weights(WeightsSpec::Unit)
            .build();
        assert_eq!(unit_field.resolved_engine(), EngineSpec::Sharded);
        // The sparse pick is unaffected by weights (bit-identical engines).
        let sparse = ScenarioSpec::builder(4096)
            .balls(8)
            .start(StartSpec::AllInOne)
            .weights(WeightsSpec::Zipf {
                s: 1.0,
                w_max: None,
            })
            .build();
        assert_eq!(sparse.resolved_engine(), EngineSpec::Sparse);
        // Explicit sharded + weights stays allowed — an opt-in.
        ScenarioSpec::builder(64)
            .weights(WeightsSpec::Zipf {
                s: 1.0,
                w_max: None,
            })
            .engine(EngineSpec::Sharded)
            .build()
            .validate()
            .unwrap();
    }
}
