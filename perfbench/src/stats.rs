//! Order statistics and a seeded generator for the workloads.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median over `windows` equal consecutive stretches of `samples` of
/// each stretch's percentile `q`. Contention from other tenants of the
/// machine comes in bursts of a few seconds; a burst moves the
/// percentile of the stretches it falls in, not the median over them.
pub fn windowed_percentile(samples: &[f64], windows: usize, q: f64) -> f64 {
    let per: Vec<f64> = samples
        .chunks(samples.len().div_ceil(windows).max(1))
        .map(|w| percentile(w, q))
        .collect();
    median(&per)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// SplitMix64: a tiny, portable generator so that the same `--seed`
/// gives the same inputs on every machine and toolchain.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64, stream: u64) -> Self {
        SeedRng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.5), 2.0);
        assert_eq!(percentile(&s, 0.99), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_percentile_ignores_a_burst_in_one_stretch() {
        let mut s = vec![1.0; 40];
        s[5] = 9.0;
        s[6] = 9.0;
        assert_eq!(percentile(&s, 0.99), 9.0);
        assert_eq!(windowed_percentile(&s, 4, 0.99), 1.0);
        assert_eq!(windowed_percentile(&[], 4, 0.5), 0.0);
    }

    #[test]
    fn generator_repeats_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| SeedRng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = SeedRng::new(7, 1);
        let mut q = SeedRng::new(8, 1);
        assert_ne!(r.next_u64(), q.next_u64());
    }
}
