//! Percentiles and the tail rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! has at least [`TAIL_SAMPLES`] samples beyond it. A metric named `p99`
//! therefore needs at least 1,000 samples; with fewer the run fails
//! rather than print a tail estimate resting on a handful of values.

use cqu_testutil::Lcg;

/// Samples a percentile must have beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Values kept per [`Samples`]: percentiles come from a uniform random
/// subset of at most this many, so a closed loop of millions of commits
/// neither grows the benchmark's own memory (which would show in
/// `peak_rss_mb`) nor reallocates large buffers mid-run. A p99 from
/// 20,000 kept values still has 200 beyond it.
pub const KEEP: usize = 20_000;

/// Latency samples in one unit: a reservoir of the measured values plus
/// the count of operations that failed (each failed operation counts as
/// missing every percentile, as if it were `+inf`).
#[derive(Debug, Clone)]
pub struct Samples {
    kept: Vec<f64>,
    /// Measured (finite) values seen, kept or not, and their sum.
    seen: u64,
    sum: f64,
    failed: u64,
    rng: Lcg,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples::with_capacity(0)
    }
}

impl Samples {
    /// An empty set with room for `cap` values (at most [`KEEP`]).
    pub fn with_capacity(cap: usize) -> Samples {
        Samples {
            kept: Vec::with_capacity(cap.min(KEEP)),
            seen: 0,
            sum: 0.0,
            failed: 0,
            // A fixed seed: which values are kept never depends on the run.
            rng: Lcg::new(0x5eed),
        }
    }

    /// Records one measured value (reservoir sampling past [`KEEP`]).
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        self.sum += v;
        if self.kept.len() < KEEP {
            self.kept.push(v);
        } else {
            let j = self.rng.below(self.seen as usize);
            if j < KEEP {
                self.kept[j] = v;
            }
        }
    }

    /// Records a failed or refused operation: slower than any limit.
    pub fn push_failed(&mut self) {
        self.failed += 1;
    }

    /// Number of samples, failed ones included.
    pub fn len(&self) -> usize {
        (self.seen + self.failed) as usize
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arithmetic mean of every measured value, kept or not (0 when
    /// there are none).
    pub fn mean(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.sum / self.seen as f64
        }
    }

    /// The `q`-quantile by nearest rank, `+inf` when it falls among the
    /// failed operations. `Err` names the percentile when fewer than
    /// [`TAIL_SAMPLES`] samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Result<f64, String> {
        let n = self.len();
        if !has_tail(n, q) {
            return Err(format!(
                "p{} needs {} samples beyond it, have {n} samples in all",
                q * 100.0,
                TAIL_SAMPLES
            ));
        }
        // Failed operations sort last: the quantile is among them when
        // its rank passes the measured ones.
        let rank = (q * n as f64).ceil().max(1.0) as u64;
        if rank > self.seen {
            return Ok(f64::INFINITY);
        }
        let mut sorted = self.kept.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(nearest_rank(&sorted, rank as f64 / self.seen as f64))
    }

    /// The median, or 0 when empty (a layer the workload bypasses).
    pub fn p50_or_zero(&self) -> f64 {
        self.quantile(0.5).unwrap_or(0.0)
    }
}

/// Whether `n` samples leave at least [`TAIL_SAMPLES`] beyond quantile `q`.
pub fn has_tail(n: usize, q: f64) -> bool {
    // The tolerance absorbs float error: 1000 samples leave exactly 10
    // beyond p99, even if `1.0 - 0.99` is not exactly 0.01.
    let beyond = n as f64 * (1.0 - q);
    n > 0 && beyond + 1e-9 >= TAIL_SAMPLES as f64
}

/// Nearest-rank quantile of sorted values.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of a small set of repeated measurements (e.g. set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `q`-quantile of a log2-bucket histogram (bucket `b` holds values
/// in `[2^b, 2^(b+1))`), interpolated linearly inside its bucket so the
/// estimate moves with the data rather than snapping to a power of two.
pub fn bucket_quantile(buckets: &[u64], q: f64) -> f64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0.0;
    }
    let rank = ((count as f64) * q).ceil().max(1.0);
    let mut seen = 0.0;
    for (b, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let n = n as f64;
        if seen + n >= rank {
            let lo = if b == 0 { 0.0 } else { (1u64 << b) as f64 };
            let hi = 2.0f64.powi(b as i32 + 1);
            return lo + (hi - lo) * (rank - seen) / n;
        }
        seen += n;
    }
    2.0f64.powi(buckets.len() as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(samples(999).quantile(0.99).is_err());
        let err = samples(500).quantile(0.99).unwrap_err();
        assert!(err.contains("p99"), "{err}");
        assert_eq!(samples(1000).quantile(0.99).unwrap(), 990.0);
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert!(samples(19).quantile(0.5).is_err());
        assert_eq!(samples(20).quantile(0.5).unwrap(), 10.0);
        assert_eq!(samples(0).p50_or_zero(), 0.0);
    }

    #[test]
    fn the_tail_rule_counts_samples_beyond_the_percentile() {
        assert!(!has_tail(0, 0.5));
        assert!(!has_tail(19, 0.5) && has_tail(20, 0.5));
        assert!(!has_tail(99, 0.9) && has_tail(100, 0.9));
        assert!(!has_tail(999, 0.99) && has_tail(1000, 0.99));
    }

    #[test]
    fn failed_operations_miss_every_percentile() {
        let mut s = samples(1000);
        for _ in 0..20 {
            s.push_failed();
        }
        assert!(s.quantile(0.99).unwrap().is_infinite());
        assert!(s.quantile(0.5).unwrap().is_finite());
    }

    #[test]
    fn a_reservoir_keeps_memory_bounded_and_percentiles_close() {
        let n = 1_000_000;
        let s = samples(n);
        assert_eq!(s.len(), n);
        assert_eq!(s.kept.len(), KEEP);
        let p50 = s.quantile(0.5).unwrap();
        let p99 = s.quantile(0.99).unwrap();
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.01, "{p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.01, "{p99}");
        assert_eq!(s.mean(), 500_000.5);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        let mut buckets = [0u64; 64];
        buckets[10] = 4; // values in [1024, 2048)
        assert_eq!(bucket_quantile(&buckets, 0.5), 1024.0 + 1024.0 * 0.5);
        assert_eq!(bucket_quantile(&buckets, 1.0), 2048.0);
        assert_eq!(bucket_quantile(&[0u64; 64], 0.5), 0.0);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
