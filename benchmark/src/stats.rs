//! Order statistics over timing samples.

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples above it, so the figure never rests on a
/// handful of outliers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Which percentile it is (0–100).
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `values` by the [`Tail`] rule. With too few samples to
/// leave [`TAIL_BEYOND`] beyond any of them, the maximum is reported (as
/// percentile 100) so the caller can see the tail is not resolved.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail::default();
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value: sorted[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    let index = n - 1 - TAIL_BEYOND;
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    }
}

/// The mean of the largest `share` of `values` (at least one of them; 0
/// for an empty slice).
pub fn slowest_mean(values: &[f64], share: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = ((values.len() as f64 * share).ceil() as usize).clamp(1, values.len());
    sorted[..k].iter().sum::<f64>() / k as f64
}

/// A deterministic splitmix64 stream: every seeded choice the benchmark
/// makes (sampled check points, arrival times, the request mix) comes from
/// one of these, so the same `--seed` always produces the same inputs.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A stream for `seed`, separated from other streams of the same seed
    /// by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (which must be positive).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
        assert_eq!(tail(&[1.0, 5.0]).value, 5.0);
    }

    #[test]
    fn slowest_mean_averages_the_top_share() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(slowest_mean(&values, 0.1), 95.5);
        assert_eq!(slowest_mean(&[2.0, 7.0], 0.1), 7.0);
        assert_eq!(slowest_mean(&[], 0.1), 0.0);
    }

    #[test]
    fn seeded_streams_repeat() {
        let a: Vec<u64> = (0..4).map(|_| SeedRng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = SeedRng::new(7, 1);
        let mut y = SeedRng::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
    }
}
