//! Order statistics over repeated samples, and a log-linear histogram
//! for per-call durations.

/// Median, quartiles and maximum of a sample set.
///
/// The quartiles follow Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) and the median follows
/// `statistics.median`, so a spread computed here matches one computed
/// from the result files with the standard library.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; a single sample is its own median and
    /// quartiles.
    ///
    /// # Panics
    ///
    /// Panics when `values` is empty or holds a NaN.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let n = v.len();
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        let (p25, p75) = if n == 1 { (v[0], v[0]) } else { (quartile(&v, 1), quartile(&v, 3)) };
        Summary { median, p25, p75, max: v[n - 1], n }
    }

    /// Distance between the quartiles.
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }

    /// The quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr() / self.median.abs()
        }
    }
}

/// Quartile `i` (1 or 3) of sorted data with at least two samples, by
/// the exclusive method of Python's `statistics.quantiles`.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let ld = sorted.len();
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Sub-buckets per power of two: quantiles read from the histogram are
/// within 1/64 (1.6%) of the true sample.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Log-linear histogram of durations in nanoseconds, with exact count
/// and sum. Fixed size, so recording never allocates.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Box<[u64]>,
    count: u64,
    sum: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { counts: vec![0; BUCKETS].into_boxed_slice(), count: 0, sum: 0 }
    }
}

impl LogHistogram {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = (v >> shift) & (SUB - 1);
        ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Midpoint of bucket `idx`.
    fn value(idx: usize) -> f64 {
        let idx = idx as u64;
        if idx < SUB {
            return idx as f64;
        }
        let shift = (idx / SUB - 1) as u32;
        let lower = (SUB + idx % SUB) << shift;
        lower as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    /// Records one duration.
    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::index(nanos)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(nanos);
    }

    /// Durations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact total of the recorded durations, nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `q`-quantile (0..=1) in nanoseconds, 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.p25, s.median, s.p75, s.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn histogram_quantiles_are_within_bucket_precision() {
        let mut h = LogHistogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum(), (1..=10_000u64).map(|v| v * 100).sum::<u64>());
        for (q, exact) in [(0.5, 500_000.0), (0.999, 999_000.0), (0.01, 10_000.0)] {
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 1.0 / 64.0, "q{q}: {got} vs {exact}");
        }
        assert_eq!(LogHistogram::default().quantile(0.5), 0.0);
    }
}
