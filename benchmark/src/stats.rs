//! Percentiles, medians over measurement windows, and the quartile spread
//! the bounds in `BENCHMARK.json` are checked against.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns the q-th percentile.
pub fn percentile_of(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, q)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The equal measurement windows of one run. A sample belongs to the
/// window its completion time falls in; samples outside (warm-up, or
/// after the last window) belong to none.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    /// Start of the first window (end of warm-up).
    pub start: Instant,
    /// Length of each window.
    pub len: Duration,
    /// Number of windows.
    pub count: usize,
}

impl Windows {
    /// `count` windows of `len` each, the first starting at `start`.
    pub fn new(start: Instant, len: Duration, count: usize) -> Windows {
        Windows { start, len, count }
    }

    /// End of the last window.
    pub fn end(&self) -> Instant {
        self.start + self.len * self.count as u32
    }

    /// Start of window `i`.
    pub fn start_of(&self, i: usize) -> Instant {
        self.start + self.len * i as u32
    }

    /// Which window a sample completed at `t` belongs to.
    pub fn index_of(&self, t: Instant) -> Option<usize> {
        let since = t.checked_duration_since(self.start)?;
        let i = (since.as_secs_f64() / self.len.as_secs_f64()) as usize;
        (i < self.count).then_some(i)
    }

    /// Splits `(completion time, value)` samples into per-window lists.
    pub fn bucket<T: Copy>(&self, samples: impl IntoIterator<Item = (Instant, T)>) -> Vec<Vec<T>> {
        let mut out = vec![Vec::new(); self.count];
        for (t, v) in samples {
            if let Some(i) = self.index_of(t) {
                out[i].push(v);
            }
        }
        out
    }
}

/// One statistic per window plus its median over windows — the value a
/// run reports. Windows without samples are skipped; `None` if all are.
pub fn median_of_windows(
    per_window: &[Vec<f64>],
    stat: impl Fn(&mut [f64]) -> f64,
) -> Option<(f64, Vec<f64>)> {
    let mut raw: Vec<f64> = per_window
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stat(&mut w.clone()))
        .collect();
    if raw.is_empty() {
        return None;
    }
    let shown = raw.clone();
    Some((median(&mut raw), shown))
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // Ten samples: p95 is the largest, p50 the fifth.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.95), 10.0);
        assert_eq!(percentile(&w, 0.5), 5.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn samples_land_in_the_window_they_completed_in() {
        let t0 = Instant::now();
        let w = Windows::new(t0 + Duration::from_secs(1), Duration::from_secs(2), 5);
        assert_eq!(w.index_of(t0), None, "warm-up sample");
        assert_eq!(w.index_of(t0 + Duration::from_millis(1000)), Some(0));
        assert_eq!(w.index_of(t0 + Duration::from_millis(2999)), Some(0));
        assert_eq!(w.index_of(t0 + Duration::from_millis(3000)), Some(1));
        assert_eq!(w.index_of(t0 + Duration::from_millis(10_999)), Some(4));
        assert_eq!(w.index_of(t0 + Duration::from_millis(11_000)), None);
        assert_eq!(w.end(), t0 + Duration::from_secs(11));
        let buckets = w.bucket([
            (t0, 9.0),
            (t0 + Duration::from_millis(1500), 1.0),
            (t0 + Duration::from_millis(3500), 2.0),
            (t0 + Duration::from_millis(3600), 3.0),
        ]);
        assert_eq!(buckets[0], vec![1.0]);
        assert_eq!(buckets[1], vec![2.0, 3.0]);
        assert!(buckets[2].is_empty());
    }

    #[test]
    fn run_value_is_the_median_over_windows_not_over_samples() {
        // One slow window must not move the reported value: per-window
        // p50s are 1, 1, 50, 1, 1 -> median 1, although the pooled p95
        // would be 50.
        let windows = vec![
            vec![1.0, 1.0, 1.0],
            vec![1.0, 1.0],
            vec![50.0, 50.0, 50.0],
            vec![1.0],
            vec![1.0, 1.0],
        ];
        let (value, raw) = median_of_windows(&windows, |w| percentile_of(w, 0.5)).unwrap();
        assert_eq!(value, 1.0);
        assert_eq!(raw, vec![1.0, 1.0, 50.0, 1.0, 1.0]);
        // Empty windows are skipped, all-empty is None.
        let sparse = vec![vec![], vec![4.0], vec![]];
        assert_eq!(
            median_of_windows(&sparse, |w| percentile_of(w, 0.5))
                .unwrap()
                .0,
            4.0
        );
        assert!(median_of_windows(&[vec![], vec![]], |w| percentile_of(w, 0.5)).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((spread_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 13, 50], n=4) == [10.5, 12.0, 31.5]
        assert_eq!(
            quartiles(&[10.0, 12.0, 11.0, 13.0, 50.0]),
            [10.5, 12.0, 31.5]
        );
    }
}
