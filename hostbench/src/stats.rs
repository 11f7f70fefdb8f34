//! Order statistics over latency samples and per-operation counts.

use rand::Rng;
use std::collections::BTreeMap;

/// Shuffle `v` in place (Fisher–Yates), reproducibly for a given `rng`
/// state.
pub fn shuffle<T>(v: &mut [T], rng: &mut impl Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..i + 1));
    }
}

/// The median of `v` (mean of the middle pair for even lengths); `0.0`
/// for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail latency: the sample at the highest percentile, up to
/// [`TAIL_MAX_PERCENTILE`], that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

/// Samples beyond the reported tail percentile, at least.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile reported as the tail. Past it, a run of 10⁵
/// sub-millisecond operations would report the ten worst scheduler
/// preemptions rather than the program's slowest operations.
pub const TAIL_MAX_PERCENTILE: f64 = 99.0;

/// The [`Tail`] of `v`. With fewer than eleven samples no percentile has
/// ten beyond it, so the maximum is reported with `beyond = 0`.
pub fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return Tail { value: s.last().copied().unwrap_or(0.0), percentile: 100.0, beyond: 0 };
    }
    let capped = (n as f64 * TAIL_MAX_PERCENTILE / 100.0).ceil() as usize;
    let idx = (n - 1 - TAIL_BEYOND).min(capped.max(1) - 1);
    Tail { value: s[idx], percentile: 100.0 * (idx + 1) as f64 / n as f64, beyond: n - 1 - idx }
}

/// A named series of per-operation values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Values recorded.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub median: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Whether every operation reported the same value.
    pub fn exact(&self) -> bool {
        self.min == self.max
    }
}

/// Per-operation values keyed by metric name: counts, ratios and
/// latency samples that the workloads gather while checking outputs.
#[derive(Debug, Default)]
pub struct Series {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Series {
    /// Record one operation's value of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// The raw values of `name` (empty when never recorded).
    pub fn values(&self, name: &str) -> &[f64] {
        self.values.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Summary of `name`, or `None` when never recorded.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        let v = self.values.get(name)?;
        if v.is_empty() {
            return None;
        }
        Some(Summary {
            n: v.len(),
            mean: v.iter().sum::<f64>() / v.len() as f64,
            median: median(v),
            min: v.iter().copied().fold(f64::INFINITY, f64::min),
            max: v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }

    /// Every recorded name, sorted.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        // Past 1100 samples the cap holds the tail at p99.
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&many);
        assert_eq!((t.value, t.percentile, t.beyond), (9900.0, 99.0, 100));
        let short = tail(&[1.0, 5.0, 2.0]);
        assert_eq!((short.value, short.beyond), (5.0, 0));
    }

    #[test]
    fn series_reports_exactness() {
        let mut s = Series::default();
        s.add("a", 4.0);
        s.add("a", 4.0);
        s.add("b", 4.0);
        s.add("b", 5.0);
        assert!(s.summary("a").unwrap().exact());
        let b = s.summary("b").unwrap();
        assert!(!b.exact());
        assert_eq!((b.min, b.max, b.mean), (4.0, 5.0, 4.5));
        assert!(s.summary("c").is_none());
    }
}
