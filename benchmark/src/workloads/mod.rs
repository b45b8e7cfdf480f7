//! The four workloads and what they share: run parameters, the shape of
//! a measurement, and the summary of a list of request samples.

pub mod rebuild;
pub mod serve;
pub mod trees_batch;

use crate::instance::Instance;
use crate::loadgen::Sample;
use crate::stats::{median_of_windows, percentile_of, Windows};
use crate::trace::Tracer;
use serde::Value;
use std::time::{Duration, Instant};

/// Measurement windows per segment. An untraced run measures one segment
/// after each of its set-ups and reports the median over all windows.
pub const WINDOWS: usize = 2;

/// Client connections (and load threads): never more than the host has
/// cores, never more than two.
pub fn connections() -> usize {
    crate::host::nproc().min(2)
}

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// In-process sweeps: one thread k = 1, then all cores k = 16.
    TreesBatch,
    /// Closed loop of `tree` requests through router and server.
    ServeTree,
    /// Open loop of small requests straight to the server.
    ServeMixed,
    /// The operator path (rebuild, metric rollouts) beside a reader.
    Rebuild,
}

impl Kind {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::TreesBatch,
        Kind::ServeTree,
        Kind::ServeMixed,
        Kind::Rebuild,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TreesBatch => "trees_batch",
            Kind::ServeTree => "serve_tree",
            Kind::ServeMixed => "serve_mixed",
            Kind::Rebuild => "rebuild",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Target vertex count. `rebuild` is small because freezing the
    /// customization topology is superlinear in time and memory (see the
    /// README); `--smoke` shrinks everything.
    pub fn vertices(self, smoke: bool) -> usize {
        match (smoke, self) {
            (true, _) => 5_000,
            (false, Kind::Rebuild) => 20_000,
            (false, _) => 100_000,
        }
    }

    /// The root span behind the workload's `p50_ms`.
    pub fn root_span(self) -> &'static str {
        match self {
            Kind::TreesBatch => "tree",
            Kind::ServeTree | Kind::ServeMixed => "request",
            Kind::Rebuild => "rollout",
        }
    }
}

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// The workload.
    pub kind: Kind,
    /// Drives pools, op order and metric perturbations.
    pub seed: u64,
    /// Small instances, for CI.
    pub smoke: bool,
}

/// What a measurement of `seconds` seconds produced.
pub struct Measured {
    /// Operations attempted (every one is verified).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Per window: the median latency, ms.
    pub p50_ms: Vec<f64>,
    /// Per window: the 95th percentile, ms.
    pub p95_ms: Vec<f64>,
    /// Per window: correct operations per second.
    pub throughput: Vec<f64>,
    /// Graph → artifact, one per rebuild, if the workload rebuilds in its
    /// loop (empty otherwise).
    pub preprocess_s: Vec<f64>,
    /// Artifact → first verified tree, likewise.
    pub load_ms: Vec<f64>,
    /// Counts and shares taken at the loop's boundaries.
    pub counts: Vec<(String, f64)>,
    /// Raw per-window values and sample counts, for the result file.
    pub detail: Value,
}

impl Measured {
    /// Median over windows of the per-window median latency, ms.
    pub fn p50(&self) -> f64 {
        crate::stats::median(&mut self.p50_ms.clone())
    }
}

/// A workload: set up once, measure, tear down.
pub trait Workload: Sized {
    /// Everything that must exist before the first measured operation.
    fn setup(p: &Params) -> Result<Self, String>;
    /// The instance (step timings, oracle) behind the workload.
    fn instance(&self) -> &Instance;
    /// Warm up, then measure [`WINDOWS`] equal windows that add up to
    /// `seconds`. With a tracer, the same loop records a span at every
    /// layer boundary.
    fn measure(
        &mut self,
        p: &Params,
        seconds: f64,
        tracer: Option<&mut Tracer>,
    ) -> Result<Measured, String>;
    /// Stops every thread and closes every socket.
    fn teardown(self);
}

/// Warm-up length and the windows that follow it, starting now.
pub fn plan(seconds: f64) -> (Duration, Windows) {
    let len = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let warm = len.min(Duration::from_millis(500));
    (warm, Windows::new(Instant::now() + warm, len, WINDOWS))
}

/// Per-window latency statistics of request samples.
pub struct Summary {
    /// Median over windows of per-window p50, ms.
    pub p50_ms: f64,
    /// Median over windows of per-window p95, ms.
    pub p95_ms: f64,
    /// Median over windows of good answers per second.
    pub throughput: f64,
    /// The per-window values behind the three medians.
    pub p50s: Vec<f64>,
    /// See `p50s`.
    pub p95s: Vec<f64>,
    /// See `p50s`.
    pub rates: Vec<f64>,
    /// p99 over all measured samples, ms.
    pub p99_ms: f64,
    /// p99 of generator lateness over all measured samples, ms.
    pub late_p99_ms: f64,
    /// Share of measured requests that were good.
    pub good_share: f64,
    /// Measured requests.
    pub attempted: u64,
    /// Measured requests that failed or answered wrongly.
    pub failed: u64,
    /// Raw per-window values.
    pub detail: Value,
}

/// A JSON array of numbers, for the raw per-window values.
pub fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Float(v)).collect())
}

/// A JSON array of counts, for the per-window sample counts.
pub fn counts(values: impl IntoIterator<Item = usize>) -> Value {
    Value::Array(values.into_iter().map(|v| Value::Int(v as i64)).collect())
}

/// Summarises the samples that completed inside `windows`. A good answer
/// is a correct one that, if `slo_ms` is set, arrived within it.
pub fn summarize(
    samples: &[Sample],
    windows: &Windows,
    slo_ms: Option<f64>,
) -> Result<Summary, String> {
    let measured: Vec<&Sample> = samples
        .iter()
        .filter(|s| windows.index_of(s.end).is_some())
        .collect();
    if measured.is_empty() {
        return Err("no request completed inside the measurement windows".into());
    }
    let good = |s: &Sample| s.ok && slo_ms.is_none_or(|slo| s.ms <= slo);
    let latencies = windows.bucket(measured.iter().map(|s| (s.end, s.ms)));
    let goods = windows.bucket(measured.iter().filter(|s| good(s)).map(|s| (s.end, 1.0)));
    let (p50_ms, p50s) =
        median_of_windows(&latencies, |w| percentile_of(w, 0.50)).expect("non-empty");
    let (p95_ms, p95s) =
        median_of_windows(&latencies, |w| percentile_of(w, 0.95)).expect("non-empty");
    let secs = windows.len.as_secs_f64();
    let rates: Vec<f64> = goods.iter().map(|w| w.len() as f64 / secs).collect();
    let throughput = crate::stats::median(&mut rates.clone());
    let mut all: Vec<f64> = measured.iter().map(|s| s.ms).collect();
    let mut late: Vec<f64> = measured.iter().map(|s| s.late_ms).collect();
    let attempted = measured.len() as u64;
    let failed = measured.iter().filter(|s| !s.ok).count() as u64;
    let n_good = measured.iter().filter(|s| good(s)).count();
    Ok(Summary {
        p50_ms,
        p95_ms,
        throughput,
        p50s: p50s.clone(),
        p95s: p95s.clone(),
        rates: rates.clone(),
        p99_ms: percentile_of(&mut all, 0.99),
        late_p99_ms: percentile_of(&mut late, 0.99),
        good_share: n_good as f64 / attempted as f64,
        attempted,
        failed,
        detail: Value::Object(vec![
            ("window_s".into(), Value::Float(secs)),
            (
                "samples_per_window".into(),
                counts(latencies.iter().map(Vec::len)),
            ),
            ("p50_ms".into(), floats(&p50s)),
            ("p95_ms".into(), floats(&p95s)),
            ("good_per_s".into(), floats(&rates)),
        ]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_counts_a_late_or_wrong_answer_as_not_good() {
        let start = Instant::now();
        let windows = Windows::new(start, Duration::from_secs(1), 5);
        let at = |ms: u64| start + Duration::from_millis(ms);
        let sample = |end, ms, ok| Sample {
            end,
            ms,
            late_ms: 0.5,
            ok,
        };
        let mut samples = Vec::new();
        for w in 0..5u64 {
            samples.push(sample(at(w * 1000 + 100), 2.0, true));
            samples.push(sample(at(w * 1000 + 200), 4.0, true));
            samples.push(sample(at(w * 1000 + 300), 30.0, true)); // misses a 20 ms limit
            samples.push(sample(at(w * 1000 + 400), 3.0, w != 2)); // one wrong answer
        }
        samples.push(sample(at(9_000), 1.0, true)); // after the last window
        let s = summarize(&samples, &windows, Some(20.0)).unwrap();
        assert_eq!(s.attempted, 20);
        assert_eq!(s.failed, 1);
        assert_eq!(s.p50_ms, 3.0);
        assert_eq!(s.p95_ms, 30.0);
        assert_eq!(s.throughput, 3.0, "three good answers per 1 s window");
        assert!((s.good_share - 14.0 / 20.0).abs() < 1e-12);
        assert_eq!(s.late_p99_ms, 0.5);
        let open = summarize(&samples, &windows, None).unwrap();
        assert_eq!(
            open.throughput, 4.0,
            "without a limit only wrong answers are not good"
        );
        assert!(summarize(&samples[..0], &windows, None).is_err());
    }

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
