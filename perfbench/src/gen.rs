//! Seeded inputs. The benchmark draws every input from its own generator,
//! so a change to the program's RNG never changes what the program is fed:
//! the same `--seed` gives the same spec text and request lines on every
//! commit.

/// SplitMix64: a tiny, well-mixed 64-bit generator for input generation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded from `seed` and a per-purpose `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut g = Self(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// small ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// FNV-1a, 64 bit: the digest of generated inputs and response streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Digest of one byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.update(bytes);
    d.value()
}

/// The spec seed a benchmark seed maps to. Kept below 2^32 so the JSON
/// integer survives any number parser exactly.
pub fn spec_seed(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed, salt).next_u64() >> 32
}

/// A load-only scenario spec on the complete graph, as `rbb sim` reads it.
pub fn scenario_json(
    name: &str,
    n: u64,
    engine: &str,
    shards: Option<u64>,
    rounds: u64,
    seed: u64,
) -> String {
    let shards = shards.map_or(String::new(), |k| format!("\"shards\": {k}, "));
    format!(
        "{{\"name\": \"{name}\", \"n\": {n}, \"balls\": null, \
         \"start\": {{\"kind\": \"one-per-bin\"}}, \"arrival\": {{\"kind\": \"uniform\"}}, \
         \"strategy\": null, \"engine\": \"{engine}\", {shards}\
         \"topology\": {{\"kind\": \"complete\"}}, \"adversary\": null, \
         \"horizon\": {{\"kind\": \"rounds\", \"rounds\": {rounds}}}, \
         \"stop\": \"horizon\", \"seed\": {seed}}}\n"
    )
}

/// Shape of the ensemble workload's spec.
#[derive(Debug, Clone, Copy)]
pub struct EnsembleShape {
    /// Bins.
    pub n: u64,
    /// Balls (random start).
    pub balls: u64,
    /// Rounds per trial.
    pub rounds: u64,
    /// Trials per ensemble.
    pub replications: u64,
}

/// The sparse weighted ensemble spec, as `rbb ensemble` reads it. With
/// `weighted == false` the weights and capacities are left out: the same
/// trials on the unit sparse engine.
pub fn ensemble_json(shape: EnsembleShape, seed: u64, weighted: bool) -> String {
    let EnsembleShape {
        n,
        balls,
        rounds,
        replications,
    } = shape;
    let overlay = if weighted {
        "\"weights\": {\"kind\": \"zipf\", \"s\": 1.0, \"w_max\": 100}, \
         \"capacities\": {\"kind\": \"uniform\", \"c\": 60}, "
    } else {
        ""
    };
    let salt = spec_seed(seed, 0x5A17);
    let master = spec_seed(seed, 0x3A57);
    format!(
        "{{\"scenario\": {{\"name\": \"perfbench-ensemble\", \"n\": {n}, \"balls\": {balls}, \
         \"start\": {{\"kind\": \"random\", \"salt\": {salt}}}, \"arrival\": {{\"kind\": \"uniform\"}}, \
         \"strategy\": null, \"engine\": \"sparse\", \"topology\": {{\"kind\": \"complete\"}}, \
         \"adversary\": null, {overlay}\"horizon\": {{\"kind\": \"rounds\", \"rounds\": {rounds}}}, \
         \"stop\": \"horizon\", \"seed\": 1}}, \"master_seed\": {master}, \
         \"replications\": {replications}, \"metrics\": [{{\"kind\": \"window-max-load\"}}, \
         {{\"kind\": \"weighted-window-max-load\"}}, {{\"kind\": \"final-weighted-max-load\"}}, \
         {{\"kind\": \"capacity-violation-rate\"}}], \
         \"report\": {{\"level\": 0.95, \"quantiles\": [0.5, 0.9]}}}}\n"
    )
}

/// The request kinds of the serve mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Bare `{"op":"place"}`: the daemon's fast path.
    Place,
    /// `depart` of a seeded bin: the general JSON parse.
    Depart,
    /// `place` with `count: 4`.
    PlaceCount,
    /// `query`: three O(n) scans.
    Query,
}

impl Op {
    /// Every op, in report order.
    pub const ALL: [Op; 4] = [Op::Place, Op::Depart, Op::PlaceCount, Op::Query];

    /// The span of this op's `Session::handle_line` call.
    pub fn span_name(self) -> &'static str {
        match self {
            Op::Place => "session.place",
            Op::Depart => "session.depart",
            Op::PlaceCount => "session.place_count",
            Op::Query => "session.query",
        }
    }

    /// The per-layer metric of this op's mean `handle_line` time.
    pub fn metric_name(self) -> &'static str {
        match self {
            Op::Place => "session.place_ns",
            Op::Depart => "session.depart_ns",
            Op::PlaceCount => "session.place_count_ns",
            Op::Query => "session.query_ns",
        }
    }

    /// Balls this op places.
    pub fn placements(self) -> u64 {
        match self {
            Op::Place => 1,
            Op::PlaceCount => 4,
            Op::Depart | Op::Query => 0,
        }
    }
}

/// The seeded request stream of the serve workload: 50% bare place, 40%
/// depart of a uniform bin, 5% place with count 4, 5% query.
#[derive(Debug, Clone)]
pub struct Requests {
    rng: SplitMix64,
    n: u64,
}

impl Requests {
    /// The stream for `seed` against a daemon with `n` bins.
    pub fn new(seed: u64, n: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed, 0x5E4E),
            n,
        }
    }

    /// Appends the next request line (with its newline) to `buf` and
    /// returns its kind.
    pub fn next_into(&mut self, buf: &mut Vec<u8>) -> Op {
        let roll = self.rng.below(100);
        let (op, line) = match roll {
            0..=49 => (Op::Place, r#"{"op":"place"}"#.to_string()),
            50..=89 => (
                Op::Depart,
                format!(r#"{{"op":"depart","bin":{}}}"#, self.rng.below(self.n)),
            ),
            90..=94 => (Op::PlaceCount, r#"{"op":"place","count":4}"#.to_string()),
            _ => (Op::Query, r#"{"op":"query"}"#.to_string()),
        };
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_pure_function_of_seed_and_salt() {
        let a: Vec<u64> = (0..4)
            .scan(SplitMix64::new(7, 1), |g, _| Some(g.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(SplitMix64::new(7, 1), |g, _| Some(g.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(SplitMix64::new(7, 2), |g, _| Some(g.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut g = SplitMix64::new(3, 0);
        assert!((0..1000).all(|_| g.below(10) < 10));
    }

    #[test]
    fn request_mix_matches_its_shares() {
        let mut reqs = Requests::new(11, 4096);
        let mut counts = [0u64; 4];
        let mut buf = Vec::new();
        for _ in 0..100_000 {
            let op = reqs.next_into(&mut buf);
            counts[Op::ALL.iter().position(|&o| o == op).unwrap()] += 1;
        }
        let shares: Vec<f64> = counts.iter().map(|&c| c as f64 / 1e5).collect();
        for (share, want) in shares.iter().zip([0.50, 0.40, 0.05, 0.05]) {
            assert!((share - want).abs() < 0.01, "{shares:?}");
        }
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 100_000);
    }

    #[test]
    fn generated_specs_parse_as_the_cli_reads_them() {
        let text = scenario_json("t", 64, "sharded", Some(4), 10, 5);
        let spec: rbb_sim::ScenarioSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec.n, 64);
        assert_eq!(spec.resolved_shards(), 4);
        let shape = EnsembleShape {
            n: 1000,
            balls: 10,
            rounds: 5,
            replications: 2,
        };
        for weighted in [true, false] {
            let text = ensemble_json(shape, 9, weighted);
            let spec: rbb_sim::EnsembleSpec = serde_json::from_str(&text).unwrap();
            assert_eq!(spec.scenario.is_weighted(), weighted);
            assert_eq!(spec.replications, 2);
        }
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(digest(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
