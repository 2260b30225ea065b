//! Integer-valued histograms for load distributions.

/// A dense histogram over non-negative integers (loads, delays, counts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl IntHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation of value `v`.
    pub fn add(&mut self, v: usize) {
        if v >= self.counts.len() {
            self.counts.resize(v + 1, 0);
        }
        self.counts[v] += 1;
        self.total += 1;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &IntHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count at value `v`.
    pub fn count(&self, v: usize) -> u64 {
        self.counts.get(v).copied().unwrap_or(0)
    }

    /// Largest observed value (None if empty).
    pub fn max_value(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Empirical probability mass at `v`.
    pub fn pmf(&self, v: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(v) as f64 / self.total as f64
        }
    }

    /// Empirical `P(X ≥ v)`.
    pub fn tail(&self, v: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let above: u64 = self.counts.iter().skip(v).sum();
        above as f64 / self.total as f64
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// The raw dense counts (index = value).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Exact integer quantile: the smallest `v` with `P(X ≤ v) ≥ q`.
    pub fn quantile(&self, q: f64) -> Option<usize> {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(v);
            }
        }
        self.max_value()
    }
}

impl FromIterator<usize> for IntHistogram {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut h = Self::new();
        for v in iter {
            h.add(v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = IntHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.pmf(3), 0.0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn add_and_count() {
        let h: IntHistogram = [1usize, 1, 2, 5].into_iter().collect();
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.count(99), 0);
        assert_eq!(h.max_value(), Some(5));
    }

    #[test]
    fn pmf_and_tail() {
        let h: IntHistogram = [0usize, 0, 1, 3].into_iter().collect();
        assert!((h.pmf(0) - 0.5).abs() < 1e-12);
        assert!((h.tail(1) - 0.5).abs() < 1e-12);
        assert!((h.tail(0) - 1.0).abs() < 1e-12);
        assert_eq!(h.tail(4), 0.0);
    }

    #[test]
    fn mean_is_weighted_average() {
        let h: IntHistogram = [2usize, 2, 2, 6].into_iter().collect();
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a: IntHistogram = [1usize, 2].into_iter().collect();
        let b: IntHistogram = [2usize, 3, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.count(3), 2);
        assert_eq!(a.max_value(), Some(3));
    }

    #[test]
    fn quantile_small_cases() {
        let h: IntHistogram = [1usize, 2, 3, 4].into_iter().collect();
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(2));
        assert_eq!(h.quantile(1.0), Some(4));
    }
}
