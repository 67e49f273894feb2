//! Summary statistics, a log-linear latency histogram and the report
//! hash.

/// Median, quartiles and range of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// The samples, in measurement order.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarizes `samples`; all fields are zero for an empty sample.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&s);
        Summary {
            median: median_sorted(&s),
            min: s.first().copied().unwrap_or(0.0),
            q1,
            q3,
            max: s.last().copied().unwrap_or(0.0),
            samples: samples.to_vec(),
        }
    }

    /// The quartile distance as a share of the median (0 when the median
    /// is 0).
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The median of `samples` (0 for an empty sample).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    median_sorted(&s)
}

fn median_sorted(s: &[f64]) -> f64 {
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so quoted spreads match what that
/// function computes from the same samples.
fn quartiles(s: &[f64]) -> (f64, f64) {
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Sub-buckets per power of two: values are kept to within 1/32.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are counted exactly.
const LINEAR: u64 = 2 * SUB;

/// A log-linear histogram of nanosecond durations: exact below 64,
/// then 32 buckets per power of two.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; (LINEAR + (64 - u64::from(SUB_BITS) - 1) * SUB) as usize],
            n: 0,
            sum: 0,
        }
    }
}

impl LogHist {
    fn index(v: u64) -> usize {
        if v < LINEAR {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let top = v >> (e - SUB_BITS);
        (LINEAR + u64::from(e - SUB_BITS - 1) * SUB + (top - SUB)) as usize
    }

    /// The midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < LINEAR {
            return i as f64;
        }
        let e = (i - LINEAR) / SUB + u64::from(SUB_BITS) + 1;
        let top = (i - LINEAR) % SUB + SUB;
        let width = (1u64 << (e - u64::from(SUB_BITS))) as f64;
        top as f64 * width + (width - 1.0) / 2.0
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
        self.sum += u128::from(ns);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the recorded durations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) to within a bucket (0 when
    /// empty).
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// 64-bit FNV-1a of `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
    }

    #[test]
    fn histogram_buckets_are_within_a_thirty_second() {
        let mut last = 0;
        for v in [0u64, 1, 63, 64, 65, 100, 1_000, 123_456, u64::MAX / 3] {
            let i = LogHist::index(v);
            assert!(i >= last, "indices grow with values");
            last = i;
            let mid = LogHist::value(i);
            assert!((mid - v as f64).abs() <= v as f64 / 32.0 + 1.0);
        }
        let top = LogHist::index(u64::MAX);
        assert_eq!(top, LogHist::default().counts.len() - 1);
        assert!(LogHist::value(top) > 1.8e19);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = LogHist::default();
        for v in 1..=1000 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert!((h.percentile(0.5) - 500.0).abs() <= 500.0 / 32.0);
        assert!((h.percentile(0.999) - 999.0).abs() <= 999.0 / 32.0);
        assert_eq!(LogHist::default().percentile(0.5), 0.0);
    }

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
