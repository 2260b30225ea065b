//! Exact distribution samplers used by the simulation engines.
//!
//! All samplers are *exact* (no normal approximations): experiments in this
//! workspace validate probabilistic bounds with explicit constants, so any
//! sampling bias would contaminate the measurements. The binomial sampler
//! uses geometric gap-skipping, whose expected cost is `O(np + 1)` — the
//! processes here only ever need binomials whose mean is at most `O(n)`,
//! matching the `O(n)`-per-round cost of the engines themselves.

use crate::rng::Xoshiro256pp;

/// Samples `Geometric(p)` on `{1, 2, 3, ...}`: the number of Bernoulli(`p`)
/// trials up to and including the first success.
///
/// Uses the inverse-CDF formula `ceil(ln(1-U) / ln(1-p))`, which is exact for
/// `p ∈ (0, 1)`. The denominator is computed as `(-p).ln_1p()`: the naive
/// `(1.0 - p).ln()` loses all of `p`'s precision below `~1e-9` (the subtraction
/// rounds) and is exactly `0.0` once `p < f64::EPSILON/2`, which turned every
/// sample into `inf → u64::MAX`. `ln_1p` keeps full relative precision down to
/// the smallest subnormal `p`.
#[inline]
///
/// # RNG stream
///
/// Consumes exactly one `next_f64` draw.
pub fn geometric(rng: &mut Xoshiro256pp, p: f64) -> u64 {
    debug_assert!(p > 0.0 && p <= 1.0, "geometric p must be in (0, 1]");
    if p >= 1.0 {
        return 1;
    }
    let u = 1.0 - rng.next_f64(); // in (0, 1]
    let g = (u.ln() / (-p).ln_1p()).ceil();
    if g < 1.0 {
        1
    } else {
        g as u64 // saturates at u64::MAX only when the true sample overflows
    }
}

/// Samples `Binomial(n, p)` exactly via geometric gap-skipping.
///
/// Successive success positions are spaced by i.i.d. geometric gaps, so we
/// count how many gaps fit in `n` trials. Expected running time is
/// `O(n·min(p, 1-p) + 1)`; the `p > 1/2` case is mirrored.
///
/// # RNG stream
///
/// Consumes one [`geometric`] draw per success counted — a data-dependent
/// count with expectation `n * min(p, 1-p) + 1`. The `p > 1/2` mirror
/// consumes exactly the draws of its complement.
pub fn binomial(rng: &mut Xoshiro256pp, n: u64, p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "binomial p must be in [0, 1]");
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - binomial(rng, n, 1.0 - p);
    }
    let mut successes = 0u64;
    let mut position = 0u64;
    loop {
        let gap = geometric(rng, p);
        position = position.saturating_add(gap);
        if position > n {
            return successes;
        }
        successes += 1;
    }
}

/// Throws `d` balls independently and uniformly at random into `loads`,
/// incrementing the hit bins. This is the paper's re-assignment step: the
/// joint law is exactly `d` i.i.d. uniform bin choices (multinomial).
#[inline]
///
/// # RNG stream
///
/// Consumes exactly `d` `uniform_usize` draws, one per ball in throw order.
pub fn throw_uniform(rng: &mut Xoshiro256pp, loads: &mut [u32], d: usize) {
    let n = loads.len();
    debug_assert!(n > 0);
    for _ in 0..d {
        let b = rng.uniform_usize(n);
        debug_assert_ne!(loads[b], u32::MAX, "bin {b} load would overflow u32");
        loads[b] += 1;
    }
}

/// A uniform sampler over `[0, bound)` with the Lemire rejection threshold
/// (`2^64 mod bound`) precomputed once, so batch draws pay no per-draw
/// division or modulo.
///
/// Draw-for-draw compatible with [`Xoshiro256pp::next_below`]: both accept a
/// raw 64-bit output iff the low half of `x · bound` is at least the
/// threshold, so filling a batch through this sampler consumes the RNG
/// stream identically to a loop of scalar draws and produces bit-identical
/// values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformSampler {
    bound: u64,
    threshold: u64,
}

impl UniformSampler {
    /// Creates a sampler over `[0, bound)`. Panics if `bound` is zero.
    #[inline]
    pub fn new(bound: u64) -> Self {
        assert!(bound > 0, "UniformSampler bound must be positive");
        Self {
            bound,
            threshold: bound.wrapping_neg() % bound,
        }
    }

    /// The exclusive upper bound of the sampler.
    #[inline]
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Draws one value in `[0, bound)` (multiply-shift, precomputed
    /// rejection threshold; usually a single multiplication).
    #[inline]
    ///
    /// # RNG stream
    ///
    /// Consumes one `next_u64` draw per rejection-loop iteration — almost
    /// always exactly one (the rejection probability is `bound / 2^64`).
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> u64 {
        loop {
            let m = (rng.next_u64() as u128).wrapping_mul(self.bound as u128);
            if (m as u64) >= self.threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Fills `out` with i.i.d. draws in `[0, bound)`. Requires the bound to
    /// fit `u32` (bin indices are dense `u32`s throughout the workspace).
    #[inline]
    ///
    /// # RNG stream
    ///
    /// Consumes one [`Self::sample`] draw per slot, in slot order.
    pub fn fill_u32(&self, rng: &mut Xoshiro256pp, out: &mut [u32]) {
        debug_assert!(
            self.bound <= u32::MAX as u64 + 1,
            "fill_u32 bound {} exceeds u32 range",
            self.bound
        );
        for slot in out.iter_mut() {
            // rbb-lint: allow(lossy-cast, reason = "bound <= u32::MAX + 1 is asserted above, and draws are < bound")
            *slot = self.sample(rng) as u32;
        }
    }
}

/// Batched form of [`throw_uniform`]: draws all `d` destinations into the
/// reusable `dests` scratch buffer first (amortizing the Lemire threshold
/// over the whole batch), then scatters the increments. Consumes the RNG
/// identically to [`throw_uniform`], so the resulting `loads` and the
/// post-call RNG state are bit-identical to the scalar path.
///
/// The caller passes the [`UniformSampler`] (keyed on `loads.len()`) so the
/// per-round `2^64 mod n` threshold division is paid once at engine
/// construction, not once per round; the engines cache it next to their RNG.
#[inline]
///
/// # RNG stream
///
/// Bit-compatible with [`throw_uniform`]: consumes exactly `d` sampler
/// draws in the same order, leaving the RNG in the identical state.
pub fn throw_uniform_batched(
    sampler: &UniformSampler,
    rng: &mut Xoshiro256pp,
    loads: &mut [u32],
    d: usize,
    dests: &mut Vec<u32>,
) {
    let n = loads.len();
    debug_assert!(n > 0);
    debug_assert_eq!(
        sampler.bound(),
        n as u64,
        "cached sampler must be keyed on the bin count"
    );
    dests.resize(d, 0);
    sampler.fill_u32(rng, dests);
    for &b in dests.iter() {
        debug_assert_ne!(
            loads[b as usize],
            u32::MAX,
            "bin {b} load would overflow u32"
        );
        loads[b as usize] += 1;
    }
}

/// Samples a uniformly random composition: `m` balls into `n` bins, each ball
/// independent and uniform. Returns the load vector.
///
/// This is the *stream-compatible* initializer — one `uniform_usize(n)` draw
/// per ball, in ball order — which every published experiment number depends
/// on. [`random_assignment_multinomial`] is the large-`m` fast path with a
/// different (but equal-in-law) RNG stream; it must never silently replace
/// this function where seeds are pinned.
///
/// # RNG stream
///
/// Consumes exactly `m` `uniform_usize` draws, one per ball in ball order
/// — the stream every published experiment number pins.
pub fn random_assignment(rng: &mut Xoshiro256pp, n: usize, m: u64) -> Vec<u32> {
    let mut loads = vec![0u32; n];
    for _ in 0..m {
        let b = rng.uniform_usize(n);
        debug_assert_ne!(loads[b], u32::MAX, "bin {b} load would overflow u32");
        loads[b] += 1;
    }
    loads
}

/// Sorted occupied-bin entries of the same law as [`random_assignment`], but
/// consuming one `uniform_usize(n)` draw per ball exactly like the dense
/// version — the sparse engine's stream-compatible initializer. Returns
/// `(bin, load)` pairs sorted by bin index, only for non-empty bins, so
/// memory is `O(#occupied)` on top of the transient `O(m)` draw buffer and
/// no `O(n)` vector is ever allocated.
///
/// # RNG stream
///
/// Consumes exactly `m` `uniform_usize` draws — stream-compatible with
/// [`random_assignment`].
pub fn random_assignment_entries(rng: &mut Xoshiro256pp, n: usize, m: u64) -> Vec<(u32, u32)> {
    assert!(
        n <= u32::MAX as usize + 1,
        "bin count {n} exceeds the u32 index range"
    );
    // rbb-lint: allow(lossy-cast, reason = "n <= u32::MAX + 1 is asserted above; draws are < n")
    let mut draws: Vec<u32> = (0..m).map(|_| rng.uniform_usize(n) as u32).collect();
    draws.sort_unstable();
    let mut entries: Vec<(u32, u32)> = Vec::new();
    for b in draws {
        match entries.last_mut() {
            Some((bin, load)) if *bin == b => {
                debug_assert_ne!(*load, u32::MAX, "bin {b} load would overflow u32");
                *load += 1;
            }
            _ => entries.push((b, 1)),
        }
    }
    entries
}

/// Number of sub-blocks a range is split into per level of
/// [`random_assignment_multinomial`]; also the per-node ball count below
/// which the sampler falls back to direct per-ball throws within the range.
const MULTINOMIAL_FANOUT: u64 = 64;

/// Samples the same multinomial law as [`random_assignment`] — `m` i.i.d.
/// uniform balls over `n` bins — via recursive **binomial splitting**,
/// returning sorted `(bin, load)` entries for the occupied bins only.
///
/// The range `[0, n)` is cut into 64 (`MULTINOMIAL_FANOUT`) blocks and the
/// ball count is divided among them with a chain of exact conditional
/// binomials (`k_i ~ Binomial(remaining, |block_i| / |remaining range|)`);
/// blocks that receive at most 64 balls finish with direct per-ball
/// uniform throws inside the block. Expected cost is
/// `O(m · log_64 n)` geometric draws with **`O(#occupied)` memory** and a
/// sequential (sorted) output — no `O(n)` dense vector, no random-access
/// scatter. That makes it the initializer of choice for large-`m` starts in
/// the sparse regime (`n = 10^8` would otherwise pay a 400 MB load vector
/// before the first round).
///
/// **Not stream-compatible** with [`random_assignment`]: it consumes the RNG
/// through binomials instead of per-ball uniforms, so the two samplers agree
/// in law but not per seed. Published numbers pin the per-ball stream; this
/// fast path is opt-in (spec start kind `random-multinomial`).
///
/// # RNG stream
///
/// **Not stream-compatible** with [`random_assignment`]: consumes
/// binomial-splitting draws (a data-dependent count). Equal in law,
/// different per seed.
pub fn random_assignment_multinomial(rng: &mut Xoshiro256pp, n: usize, m: u64) -> Vec<(u32, u32)> {
    assert!(n > 0, "need at least one bin");
    assert!(
        n <= u32::MAX as usize + 1,
        "bin count {n} exceeds the u32 index range"
    );
    assert!(
        m <= u32::MAX as u64,
        "ball count {m} could overflow a u32 bin"
    );
    let mut entries = Vec::new();
    split_range(rng, 0, n as u64, m, &mut entries);
    entries
}

/// Recursive worker of [`random_assignment_multinomial`]: distributes `m`
/// balls u.a.r. over bins `[lo, lo + len)`, appending occupied entries in
/// bin order.
fn split_range(rng: &mut Xoshiro256pp, lo: u64, len: u64, m: u64, out: &mut Vec<(u32, u32)>) {
    if m == 0 {
        return;
    }
    if len == 1 {
        // rbb-lint: allow(lossy-cast, reason = "single-bin range: lo < n fits u32, and m <= u32::MAX is asserted at entry")
        out.push((lo as u32, m as u32));
        return;
    }
    if m <= MULTINOMIAL_FANOUT {
        // Few balls over a wide range: direct per-ball throws, then an
        // insertion-merge into the (sorted) output tail.
        let start = out.len();
        for _ in 0..m {
            let b = lo + rng.next_below(len);
            let pos = out[start..].partition_point(|&(bin, _)| (bin as u64) < b) + start;
            match out.get_mut(pos) {
                Some((bin, load)) if *bin as u64 == b => *load += 1,
                // rbb-lint: allow(lossy-cast, reason = "b < n <= u32::MAX + 1, asserted at entry")
                _ => out.insert(pos, (b as u32, 1)),
            }
        }
        return;
    }
    // Chain of conditional binomials over MULTINOMIAL_FANOUT blocks: given
    // the balls remaining after earlier blocks, each block's count is
    // Binomial(remaining, |block| / |remaining range|) — together an exact
    // multinomial split of m over the blocks.
    let blocks = MULTINOMIAL_FANOUT.min(len);
    let mut remaining_balls = m;
    let mut cursor = lo;
    let end = lo + len;
    for i in 0..blocks {
        // Even partition: block i covers [lo + i*len/blocks, lo + (i+1)*len/blocks).
        let block_end = lo + (i + 1) * len / blocks;
        let block_len = block_end - cursor;
        if block_len == 0 {
            continue;
        }
        let remaining_range = end - cursor;
        let k = if remaining_range == block_len {
            remaining_balls // last block takes whatever is left
        } else {
            binomial(
                rng,
                remaining_balls,
                block_len as f64 / remaining_range as f64,
            )
        };
        split_range(rng, cursor, block_len, k, out);
        remaining_balls -= k;
        cursor = block_end;
        if remaining_balls == 0 {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from(seed)
    }

    #[test]
    fn geometric_mean_is_inverse_p() {
        let mut r = rng(1);
        let p = 0.2;
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| geometric(&mut r, p)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn geometric_p_one_is_always_one() {
        let mut r = rng(2);
        for _ in 0..100 {
            assert_eq!(geometric(&mut r, 1.0), 1);
        }
    }

    #[test]
    fn geometric_minimum_is_one() {
        let mut r = rng(3);
        assert!((0..10_000).all(|_| geometric(&mut r, 0.9) >= 1));
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng(4);
        assert_eq!(binomial(&mut r, 0, 0.5), 0);
        assert_eq!(binomial(&mut r, 100, 0.0), 0);
        assert_eq!(binomial(&mut r, 100, 1.0), 100);
    }

    #[test]
    fn binomial_never_exceeds_n() {
        let mut r = rng(5);
        for _ in 0..10_000 {
            assert!(binomial(&mut r, 20, 0.7) <= 20);
        }
    }

    #[test]
    fn binomial_mean_and_variance_small_p() {
        // This is the paper's workhorse law: B((3/4)n, 1/n) with mean 3/4.
        let mut r = rng(6);
        let n = 768u64; // (3/4) * 1024
        let p = 1.0 / 1024.0;
        let trials = 200_000;
        let samples: Vec<u64> = (0..trials).map(|_| binomial(&mut r, n, p)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / trials as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 0.75).abs() < 0.01, "mean {mean}");
        // Var = np(1-p) ≈ 0.7493
        assert!((var - 0.7493).abs() < 0.02, "var {var}");
    }

    #[test]
    fn binomial_mean_large_p_uses_mirror() {
        let mut r = rng(7);
        let trials = 50_000;
        let sum: u64 = (0..trials).map(|_| binomial(&mut r, 100, 0.9)).sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 90.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn binomial_half_is_symmetric() {
        let mut r = rng(8);
        let trials = 100_000;
        let sum: u64 = (0..trials).map(|_| binomial(&mut r, 10, 0.5)).sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 5.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn throw_uniform_conserves_and_is_uniform() {
        let mut r = rng(9);
        let mut loads = vec![0u32; 10];
        throw_uniform(&mut r, &mut loads, 100_000);
        assert_eq!(loads.iter().map(|&x| x as u64).sum::<u64>(), 100_000);
        for &l in &loads {
            // Each bin expects 10_000, sd ≈ 95.
            assert!((l as f64 - 10_000.0).abs() < 500.0, "load {l}");
        }
    }

    #[test]
    fn uniform_sampler_matches_next_below_bit_for_bit() {
        // The batched sampler must consume the RNG stream exactly like the
        // scalar `next_below`, for any bound (including powers of two, where
        // the threshold is zero and no rejection ever happens).
        for bound in [1u64, 2, 3, 7, 64, 100, 1023, 1024, 1025] {
            let sampler = UniformSampler::new(bound);
            let mut a = rng(100 + bound);
            let mut b = a.clone();
            for _ in 0..10_000 {
                assert_eq!(sampler.sample(&mut a), b.next_below(bound));
            }
            // Post-run states coincide: identical stream consumption.
            assert_eq!(a, b);
        }
    }

    #[test]
    fn fill_u32_matches_scalar_draw_loop() {
        let sampler = UniformSampler::new(77);
        let mut a = rng(200);
        let mut b = a.clone();
        let mut batch = vec![0u32; 5000];
        sampler.fill_u32(&mut a, &mut batch);
        let scalar: Vec<u32> = (0..5000).map(|_| b.next_below(77) as u32).collect();
        assert_eq!(batch, scalar);
        assert_eq!(a, b);
    }

    #[test]
    fn throw_uniform_batched_is_bit_identical_to_scalar() {
        let mut a = rng(300);
        let mut b = a.clone();
        let mut loads_scalar = vec![0u32; 100];
        let mut loads_batched = vec![0u32; 100];
        let mut scratch = Vec::new();
        let sampler = UniformSampler::new(100);
        for d in [0usize, 1, 17, 1000] {
            throw_uniform(&mut a, &mut loads_scalar, d);
            throw_uniform_batched(&sampler, &mut b, &mut loads_batched, d, &mut scratch);
            assert_eq!(loads_scalar, loads_batched);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn throw_uniform_batched_reuses_scratch() {
        let mut r = rng(301);
        let mut loads = vec![0u32; 16];
        let mut scratch = Vec::with_capacity(64);
        let sampler = UniformSampler::new(16);
        throw_uniform_batched(&sampler, &mut r, &mut loads, 64, &mut scratch);
        let ptr = scratch.as_ptr();
        throw_uniform_batched(&sampler, &mut r, &mut loads, 32, &mut scratch);
        // Shrinking reuses the allocation; no per-round realloc.
        assert_eq!(scratch.as_ptr(), ptr);
        assert_eq!(scratch.len(), 32);
        assert_eq!(loads.iter().map(|&x| x as u64).sum::<u64>(), 96);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn uniform_sampler_rejects_zero_bound() {
        let _ = UniformSampler::new(0);
    }

    #[test]
    fn geometric_tiny_p_is_finite_and_unbiased() {
        // Regression: `(1.0 - p).ln()` is exactly 0.0 for p < f64::EPSILON/2,
        // which made every sample inf → u64::MAX. With ln_1p the samples are
        // finite and the mean tracks 1/p.
        let mut r = rng(40);
        let p = 1e-17;
        let k = 2000;
        let mut sum = 0.0f64;
        for _ in 0..k {
            let g = geometric(&mut r, p);
            assert!(g < u64::MAX, "sample saturated at u64::MAX");
            sum += g as f64;
        }
        let mean = sum / k as f64;
        // sd of the sample mean is (1/p)/sqrt(k) ≈ 2.2% of the mean.
        assert!(
            (mean * p - 1.0).abs() < 0.15,
            "mean {mean:e} vs expected {:e}",
            1.0 / p
        );
    }

    #[test]
    fn geometric_sub_1e9_p_has_full_precision() {
        // In the 1e-9..1e-16 band the old denominator silently lost up to
        // ~half its digits; the mean must track 1/p tightly.
        let mut r = rng(41);
        let p = 1e-12;
        let k = 5000;
        let sum: f64 = (0..k).map(|_| geometric(&mut r, p) as f64).sum();
        let mean = sum / k as f64;
        assert!((mean * p - 1.0).abs() < 0.1, "mean {mean:e}");
    }

    #[test]
    fn binomial_stays_sane_at_sparse_regime_n() {
        // B(n, 1/n) at n = 10^8 — the sparse-regime workhorse: mean 1,
        // cheap (O(np) = O(1) gaps), and never wildly large.
        let mut r = rng(42);
        let n = 100_000_000u64;
        let p = 1.0 / n as f64;
        let trials = 20_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            let b = binomial(&mut r, n, p);
            assert!(b <= 20, "B(1e8, 1e-8) produced {b}");
            sum += b;
        }
        let mean = sum as f64 / trials as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn random_assignment_entries_match_dense_stream() {
        // Same RNG stream, same configuration — just the sparse encoding.
        for (n, m) in [(16usize, 16u64), (1000, 10), (64, 300), (8, 0)] {
            let mut a = rng(500 + n as u64);
            let mut b = a.clone();
            let dense = random_assignment(&mut a, n, m);
            let entries = random_assignment_entries(&mut b, n, m);
            assert_eq!(a, b, "RNG streams diverged");
            let mut rebuilt = vec![0u32; n];
            for &(bin, load) in &entries {
                assert!(load > 0, "empty entry");
                rebuilt[bin as usize] = load;
            }
            assert_eq!(rebuilt, dense);
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "sorted unique");
        }
    }

    #[test]
    fn multinomial_assignment_conserves_and_sorts() {
        let mut r = rng(43);
        for (n, m) in [
            (1usize, 100u64),
            (7, 0),
            (1000, 1),
            (100_000, 4096),
            (64, 10_000),
        ] {
            let entries = random_assignment_multinomial(&mut r, n, m);
            let total: u64 = entries.iter().map(|&(_, l)| l as u64).sum();
            assert_eq!(total, m, "mass violated at n={n} m={m}");
            assert!(entries.iter().all(|&(b, l)| (b as usize) < n && l > 0));
            assert!(
                entries.windows(2).all(|w| w[0].0 < w[1].0),
                "entries must be sorted and unique"
            );
        }
    }

    #[test]
    fn multinomial_assignment_is_uniform_in_law() {
        // Small n, large m: per-bin counts must match the multinomial
        // marginals (mean m/n, sd ~ sqrt(m/n)).
        let mut r = rng(44);
        let (n, m) = (10usize, 100_000u64);
        let mut totals = vec![0u64; n];
        for _ in 0..10 {
            for (b, l) in random_assignment_multinomial(&mut r, n, m) {
                totals[b as usize] += l as u64;
            }
        }
        let expect = 10.0 * m as f64 / n as f64; // 100_000 per bin, sd ≈ 300
        for (b, &t) in totals.iter().enumerate() {
            assert!(
                (t as f64 - expect).abs() < 5.0 * 300.0,
                "bin {b}: {t} vs {expect}"
            );
        }
    }

    #[test]
    fn multinomial_assignment_sparse_regime_is_cheap_and_sparse() {
        // n = 10^8, m = 10^4: no dense vector, #occupied ≈ m, all loads tiny.
        let mut r = rng(45);
        let entries = random_assignment_multinomial(&mut r, 100_000_000, 10_000);
        let total: u64 = entries.iter().map(|&(_, l)| l as u64).sum();
        assert_eq!(total, 10_000);
        assert!(entries.len() > 9_900, "collisions are rare at this density");
        assert!(entries.iter().all(|&(_, l)| l <= 4));
    }

    #[test]
    fn random_assignment_conserves_mass() {
        let mut r = rng(11);
        let loads = random_assignment(&mut r, 64, 64);
        assert_eq!(loads.len(), 64);
        assert_eq!(loads.iter().map(|&x| x as u64).sum::<u64>(), 64);
    }

    #[test]
    fn random_assignment_zero_balls() {
        let mut r = rng(12);
        let loads = random_assignment(&mut r, 16, 0);
        assert!(loads.iter().all(|&x| x == 0));
    }
}
