//! Property tests for the harness's measurement primitives: the duration
//! formatters' unit boundaries, `Samples::collect`'s shape and the
//! `SampleStats` invariants the `BENCH_*.json` schema leans on.

use phast_bench::report::{fmt_days, fmt_duration};
use phast_bench::timing::Samples;
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(256))]

    /// `fmt_duration` always picks exactly one unit, never prints a
    /// negative or empty string, and respects the unit thresholds:
    /// `>= 1 s` never renders as ms/µs, `< 1 ms` always renders as µs.
    #[test]
    fn fmt_duration_unit_boundaries(ns in 0u64..u64::MAX / 2) {
        let d = Duration::from_nanos(ns);
        let s = fmt_duration(d);
        let units = [" s", " ms", " µs"];
        prop_assert_eq!(
            units.iter().filter(|u| s.ends_with(*u)).count(),
            1,
            "no unique unit in `{}`",
            s
        );
        if d >= Duration::from_secs(1) {
            prop_assert!(s.ends_with(" s"), "{:?} -> `{}`", d, s);
        }
        if d < Duration::from_millis(1) {
            prop_assert!(s.ends_with(" µs"), "{:?} -> `{}`", d, s);
        }
        prop_assert!(!s.starts_with('-'));
    }

    /// `fmt_days` is always `d:hh:mm` with hours < 24, minutes < 60, and
    /// the fields recombine to the truncated total minutes.
    #[test]
    fn fmt_days_fields_recombine(secs in 0u64..10_000_000_000) {
        let s = fmt_days(Duration::from_secs(secs));
        let parts: Vec<u64> = s.split(':').map(|p| p.parse().unwrap()).collect();
        prop_assert_eq!(parts.len(), 3, "`{}`", s);
        let (days, hours, mins) = (parts[0], parts[1], parts[2]);
        prop_assert!(hours < 24 && mins < 60, "`{}`", s);
        prop_assert_eq!((days * 24 + hours) * 60 + mins, secs / 60, "`{}`", s);
    }

    /// `Samples::collect` calls the closure `warmup` times untimed, then
    /// exactly `runs` timed times, with the global call index in order,
    /// and its summary counts exactly `runs` samples with
    /// `min <= mean <= max`.
    #[test]
    fn collect_times_exactly_runs_calls_after_warmup(warmup in 0usize..5, runs in 1usize..20) {
        let mut calls = Vec::new();
        let samples = Samples::collect(warmup, runs, |i| calls.push(i));
        prop_assert_eq!(calls, (0..warmup + runs).collect::<Vec<_>>());
        prop_assert_eq!(samples.warmup, warmup);
        prop_assert_eq!(samples.samples.len(), runs);
        let s = samples.stats();
        prop_assert_eq!(s.runs, runs);
        prop_assert!(s.min_ns <= s.mean_ns && s.mean_ns <= s.max_ns);
    }

    /// `SampleStats` invariants over arbitrary sample vectors:
    /// `min <= median <= max`, `median <= p95 <= max`, `min <= mean <= max`,
    /// and MAD never exceeds the full spread.
    #[test]
    fn sample_stats_invariants(ns in proptest::collection::vec(0u64..u64::MAX / 4, 1..60)) {
        let samples = Samples {
            warmup: 0,
            samples: ns.iter().map(|&n| Duration::from_nanos(n)).collect(),
        };
        let s = samples.stats();
        prop_assert_eq!(s.runs, ns.len());
        prop_assert_eq!(s.min_ns, *ns.iter().min().unwrap());
        prop_assert_eq!(s.max_ns, *ns.iter().max().unwrap());
        prop_assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
        prop_assert!(s.median_ns <= s.p95_ns && s.p95_ns <= s.max_ns);
        prop_assert!(s.min_ns <= s.mean_ns && s.mean_ns <= s.max_ns);
        prop_assert!(s.mad_ns <= s.max_ns - s.min_ns);
        // The raw serialization matches the input order and length.
        prop_assert_eq!(samples.to_ns(), ns);
    }

    /// A constant series has zero spread in every statistic.
    #[test]
    fn constant_series_has_zero_spread(v in 0u64..1_000_000, len in 1usize..30) {
        let samples = Samples {
            warmup: 0,
            samples: vec![Duration::from_nanos(v); len],
        };
        let s = samples.stats();
        prop_assert_eq!(s.median_ns, v);
        prop_assert_eq!(s.p95_ns, v);
        prop_assert_eq!(s.mean_ns, v);
        prop_assert_eq!(s.mad_ns, 0);
    }
}
