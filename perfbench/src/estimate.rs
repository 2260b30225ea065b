//! Estimators. A run is cut into chunks of fixed work. A rate is the
//! median over chunks of work ÷ chunk wall, and the p50 latency the median
//! over chunks of each chunk's p50. The host this benchmark was tuned on
//! stalls or slows the same code for seconds at a time (noisy neighbours),
//! and total ÷ wall, or one percentile over the whole run, soaks up every
//! such stall; a median over chunks moves only when most of the run moves,
//! as it does for a slower code path. A chunk's p99 is set by its few worst
//! operations, which host stalls hit in some chunks and miss in others, so
//! the p99 latency is the lower quartile over chunks of each chunk's p99:
//! a slower code path still raises every chunk's p99.

pub use rbb_stats::{median, quantile};

/// One chunk of a run: the work it did and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    /// Work items completed (moves, rounds, runs, requests).
    pub work: u64,
    /// Wall seconds.
    pub secs: f64,
}

/// The median over chunks of work ÷ wall.
pub fn chunk_rate(chunks: &[Chunk]) -> f64 {
    let rates: Vec<f64> = chunks
        .iter()
        .filter(|c| c.secs > 0.0)
        .map(|c| c.work as f64 / c.secs)
        .collect();
    median(&rates)
}

/// `(p50, p99)` of a run's per-operation latencies, grouped in chunks:
/// the median over chunks of each chunk's p50, and the lower quartile over
/// chunks of each chunk's p99.
pub fn latency_p50_p99(chunks: &[Vec<f64>]) -> (f64, f64) {
    let per_chunk = |q: f64| -> Vec<f64> {
        chunks
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| quantile(c, q))
            .collect()
    };
    (median(&per_chunk(0.5)), quantile(&per_chunk(0.99), 0.25))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks(secs: &[f64]) -> Vec<Chunk> {
        secs.iter().map(|&secs| Chunk { work: 100, secs }).collect()
    }

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.5);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert!((quantile(&xs, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn chunk_rate_resists_stalls_and_follows_the_code() {
        // Six steady chunks at 100/s and four stalled by the host to 20/s:
        // the run reads the steady rate, where total ÷ wall reads 45/s.
        let mut secs = vec![1.0; 6];
        secs.extend([5.0; 4]);
        let run = chunks(&secs);
        assert_eq!(chunk_rate(&run), 100.0);
        let total: f64 = run.iter().map(|c| c.work as f64).sum::<f64>()
            / run.iter().map(|c| c.secs).sum::<f64>();
        assert!(total < 50.0);
        // A slower code path slows every chunk, and the figure with it.
        let slower: Vec<f64> = secs.iter().map(|s| s * 1.25).collect();
        assert_eq!(chunk_rate(&chunks(&slower)), 80.0);
        // Chunks that took no measurable time are left out.
        assert_eq!(chunk_rate(&chunks(&[1.0, 0.0, 1.0])), 100.0);
    }

    #[test]
    fn latency_reads_the_typical_p50_and_the_unstalled_p99() {
        // Five chunks of 1..=100 µs, three more whose tail a host stall
        // raised tenfold: the p50 is the median chunk's, the p99 that of
        // the chunks the stalls missed.
        let run: Vec<Vec<f64>> = (0..8)
            .map(|k| {
                (1..=100)
                    .map(|x| if k >= 5 && x > 95 { x * 10 } else { x })
                    .map(f64::from)
                    .collect()
            })
            .collect();
        let close = |(p50, p99): (f64, f64), want: (f64, f64)| {
            (p50 - want.0).abs() < 1e-9 && (p99 - want.1).abs() < 1e-9
        };
        assert!(close(latency_p50_p99(&run), (50.5, 99.01)));
        // A code path twice as slow doubles both.
        let slower: Vec<Vec<f64>> = run
            .iter()
            .map(|c| c.iter().map(|x| x * 2.0).collect())
            .collect();
        assert!(close(latency_p50_p99(&slower), (101.0, 198.02)));
    }
}
