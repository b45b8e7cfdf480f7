//! Wall-clock measurement: [`Samples`] (per-iteration durations after
//! explicit warmup) and their [`SampleStats`] summary (median/MAD/p95/
//! min/max/mean) — what the perf-regression harness in [`crate::regress`]
//! stores and compares and what `experiments` prints (per-run means) —
//! plus [`time_once`], a one-shot stopwatch that hands back the closure's
//! value.

use std::time::{Duration, Instant};

/// Times one execution of `f`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Per-iteration measurements of one benchmark: `samples.len()` timed
/// iterations taken after `warmup` untimed ones.
#[derive(Clone, Debug)]
pub struct Samples {
    /// Untimed iterations run before sampling started.
    pub warmup: usize,
    /// One wall-clock duration per timed iteration, in run order.
    pub samples: Vec<Duration>,
}

/// Robust summary of per-iteration samples (all durations in integer
/// nanoseconds, matching the `BENCH_*.json` schema).
///
/// Invariants (tested property-style in `tests/stats_props.rs`):
/// `min <= median <= max`, `median <= p95 <= max`, and `mad >= 0` by
/// construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SampleStats {
    /// Iterations timed and summarized.
    pub runs: usize,
    /// Median duration, ns.
    pub median_ns: u64,
    /// Median absolute deviation from the median, ns — the robust noise
    /// estimate the regression thresholds scale with.
    pub mad_ns: u64,
    /// 95th-percentile duration (nearest-rank), ns.
    pub p95_ns: u64,
    /// Fastest iteration, ns.
    pub min_ns: u64,
    /// Slowest iteration, ns.
    pub max_ns: u64,
    /// Arithmetic mean, ns.
    pub mean_ns: u64,
}

/// Median of a **sorted** nanosecond slice (mean of the middle two when
/// even). Empty input is the caller's bug.
fn median_sorted(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        // Midpoint without overflow.
        let (a, b) = (sorted[n / 2 - 1], sorted[n / 2]);
        a + (b - a) / 2
    }
}

impl Samples {
    /// Runs `f` for `warmup` untimed iterations, then `runs` timed ones
    /// (the closure receives the global iteration index) and collects one
    /// duration per timed iteration.
    pub fn collect(warmup: usize, runs: usize, mut f: impl FnMut(usize)) -> Samples {
        for i in 0..warmup {
            f(i);
        }
        let mut samples = Vec::with_capacity(runs);
        for i in 0..runs {
            let start = Instant::now();
            f(warmup + i);
            samples.push(start.elapsed());
        }
        Samples { warmup, samples }
    }

    /// Summarizes the samples. Panics on zero samples — an empty
    /// benchmark is a harness bug, not a measurement.
    pub fn stats(&self) -> SampleStats {
        assert!(!self.samples.is_empty(), "no samples to summarize");
        let mut ns: Vec<u64> = self
            .samples
            .iter()
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .collect();
        ns.sort_unstable();
        let n = ns.len();
        let median = median_sorted(&ns);
        let mut dev: Vec<u64> = ns.iter().map(|&x| x.abs_diff(median)).collect();
        dev.sort_unstable();
        let mad = median_sorted(&dev);
        // Nearest-rank p95: the smallest sample >= 95% of the others.
        let p95 = ns[((n * 95).div_ceil(100)).clamp(1, n) - 1];
        let mean = (ns.iter().map(|&x| u128::from(x)).sum::<u128>() / n as u128)
            .min(u128::from(u64::MAX)) as u64;
        SampleStats {
            runs: n,
            median_ns: median,
            mad_ns: mad,
            p95_ns: p95,
            min_ns: ns[0],
            max_ns: ns[n - 1],
            mean_ns: mean,
        }
    }

    /// The raw samples as integer nanoseconds, in run order.
    pub fn to_ns(&self) -> Vec<u64> {
        self.samples
            .iter()
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_value() {
        let (v, d) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }

    fn from_ns(ns: &[u64]) -> Samples {
        Samples {
            warmup: 0,
            samples: ns.iter().map(|&n| Duration::from_nanos(n)).collect(),
        }
    }

    #[test]
    fn sample_stats_known_values() {
        // Sorted: [10, 20, 30, 40, 100]; median 30; deviations sorted
        // [0, 10, 10, 20, 70] -> MAD 10; p95 = max at n=5.
        let s = from_ns(&[30, 10, 100, 20, 40]).stats();
        assert_eq!(s.runs, 5);
        assert_eq!(s.median_ns, 30);
        assert_eq!(s.mad_ns, 10);
        assert_eq!(s.p95_ns, 100);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 100);
        assert_eq!(s.mean_ns, 40);
    }

    #[test]
    fn sample_stats_even_count_and_constant_series() {
        let s = from_ns(&[10, 20]).stats();
        assert_eq!(s.median_ns, 15);
        let s = from_ns(&[7, 7, 7, 7]).stats();
        assert_eq!((s.median_ns, s.mad_ns, s.p95_ns), (7, 0, 7));
    }

    #[test]
    fn collect_runs_warmup_then_samples_in_order() {
        let mut seen = Vec::new();
        let s = Samples::collect(2, 5, |i| seen.push(i));
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(s.warmup, 2);
        assert_eq!(s.samples.len(), 5);
        assert_eq!(s.to_ns().len(), 5);
    }
}
