//! The perf-regression subsystem: a deterministic benchmark suite over
//! the hot paths, a versioned `BENCH_*.json` artifact, and a noise-aware
//! baseline comparison that CI can gate on.
//!
//! The paper's contribution *is* measured speed, so this repo treats its
//! performance trajectory as data: every suite run produces a
//! [`BenchArtifact`] (schema [`SCHEMA_VERSION`]) holding, per benchmark,
//! the per-iteration samples and their [`SampleStats`] summary
//! (median/MAD/p95 — medians because wall-clock noise is one-sided,
//! MAD because it is robust to the stragglers that inflate a variance).
//!
//! ## Covered engines
//!
//! One benchmark per hot path, at a shared instance scale:
//!
//! | name | path |
//! |------|------|
//! | `dijkstra_scalar` | scalar Dijkstra baseline (`phast-dijkstra`) |
//! | `phast_single_tree` | single-tree level-ordered sweep; `obs` carries its per-arc cost: `down_arcs`, `ns_per_arc` |
//! | `phast_k{k}_scalar` / `_sse41` / `_avx2` | k-tree batched sweep per kernel (SIMD rows only where the CPU has the feature); `obs` carries each one's roofline: `sweep_bytes`, `stream_gbps`, `roofline_share` |
//! | `phast_par_k{k}` | `run_par` intra-level parallel batched sweep |
//! | `gphast_k{k}` | GPHAST simulator batch (GTX 580 profile) |
//! | `serve_batch_k{k}` | the serve scheduler's batch-execution path ([`phast_serve::BatchRunner`]) |
//! | `rphast_select_r100` | RPHAST selection build at `\|T\| = scale/100` |
//! | `rphast_sweep_r{10,100,1000}` | RPHAST restricted single-tree sweep at `\|T\| = scale/ratio` (r100/r1000 are the paper's "beats the full sweep" regime) |
//! | `freeze_10e6` | `phast-metrics` topology freeze (`MetricCustomizer::new`): elimination order, closure, by-middle triangle layout |
//! | `customize_10e6` | `phast-metrics` customization (`MetricCustomizer::build`): the customization pass on a perturbed metric, then one gather per sweep array into the layout frozen at `new` → servable `(Phast, Hierarchy)`; `obs` carries the pass's size and per-triangle cost: `closure_arcs`, `triangles`, `ns_per_triangle`, `frozen_bytes` |
//! | `recontract_10e6` | the path customization replaces: full witness-search recontraction + instance build |
//! | `contract_10e5` | sequential lazy-heap CH contraction (reference ordering) |
//! | `contract_par_10e5` | round-based parallel CH contraction at 4 threads |
//! | `store_load_heap` | PHASTBIN artifact load from bytes read to the heap (`read_instance`) |
//! | `store_load_mmap` | the same artifact, same decoder, borrowing from a mapping (`load_instance_mmap`) |
//! | `store_crc` | the dispatched CRC-32 (`phast_store::crc::crc32`) over that artifact's bytes; `obs` carries `bytes`, `gbps` and the byte-table twin's `table_gbps` |
//! | `wire_encode_tree` / `wire_encode_matrix` | `protocol::encode_answer_into` a reused buffer: one full tree; a 16 × `scale/16` matrix |
//! | `wire_decode_tree` | `protocol::decode_reply_with_epoch` of that tree line (the client's one pass) |
//! | `wire_classify_tree` | `protocol::classify_reply` of the same line (the router's validate-only pass) |
//! | `phast_upward` | the upward CH search alone (PHAST's first phase) |
//! | `ch_p2p` / `ch_p2p_path` | the bidirectional CH point-to-point query, distance only / with the unpacked path |
//! | `diameter_s32` / `reach_s32` / `betweenness_s32` | the §VII applications over 32 PHAST trees (`phast-apps`) |
//! | `arcflags_preprocess_16cells` | arc-flag preprocessing from reverse PHAST trees on a 4 × 4 grid partition |
//! | `arcflags_query` / `arcflags_bi_query` | one flagged Dijkstra query, unidirectional / bidirectional |
//!
//! ## Comparison policy
//!
//! A benchmark regresses when its current median exceeds
//! `base_median + max(threshold% · base_median, k · base_MAD)` — the
//! percentage term catches real slowdowns on quiet benchmarks, the MAD
//! term keeps noisy benchmarks from tripping the gate on jitter. A
//! benchmark present in the baseline but missing from the current run is
//! a failure too (a silently dropped benchmark must not read as green),
//! as is comparing artifacts of different instance scales.
//!
//! `PHAST_BENCH_SLOWDOWN=name:factor` (test knob, exact benchmark name or
//! `*`) multiplies that benchmark's recorded samples — CI uses it to
//! prove the gate actually fails on an injected regression.

use crate::hostinfo::HostInfo;
use crate::lower_bound;
use crate::report::Table;
use crate::timing::{SampleStats, Samples};
use crate::workload::{scale_from_env, InstanceConfig};
use phast_core::simd::{best_simd_for, SimdLevel, MAX_K};
use phast_core::{Direction, HeteroQuery, PhastBuilder, RestrictedEngine, SelectionBuilder};
use phast_dijkstra::dijkstra::Dijkstra;
use phast_gpu::{DeviceProfile, Gphast};
use phast_graph::Vertex;
use phast_serve::{ServeConfig, Service};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Version of the `BENCH_*.json` schema this module reads and writes.
/// Bump on any incompatible change; [`load_artifact`] refuses mismatches.
pub const SCHEMA_VERSION: u32 = 1;

/// Suite identifier stored in every artifact.
pub const SUITE_NAME: &str = "phast-bench/regress";

/// One benchmark's result: summary statistics plus the raw per-iteration
/// samples (so a future reader can re-derive any statistic).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct BenchResult {
    /// Stable benchmark name (the comparison key).
    pub name: String,
    /// Untimed warmup iterations run before sampling.
    pub warmup: usize,
    /// Median/MAD/p95/min/max/mean over the samples.
    pub stats: SampleStats,
    /// Raw per-iteration durations, ns, in run order.
    pub samples_ns: Vec<u64>,
}

/// A full suite run: the versioned, machine-readable perf artifact.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct BenchArtifact {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Suite identifier ([`SUITE_NAME`]).
    pub suite: String,
    /// Unix timestamp (seconds) of the run.
    pub created_unix_s: u64,
    /// Host fingerprint — baselines from another machine are detectable.
    pub host: HostInfo,
    /// Instance size the suite ran at (`PHAST_SCALE`-controlled).
    pub scale: usize,
    /// Batch width of the k-tree benchmarks.
    pub k: usize,
    /// One entry per benchmark, in suite order.
    pub benchmarks: Vec<BenchResult>,
    /// Merged observability report of the suite run (per-benchmark
    /// engine counters under `benchname.*`), in `phast-obs` JSON form.
    pub obs: serde::Value,
}

impl BenchArtifact {
    /// Looks a benchmark up by name.
    pub fn get(&self, name: &str) -> Option<&BenchResult> {
        self.benchmarks.iter().find(|b| b.name == name)
    }

    /// Renders the per-benchmark summary as a [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("bench suite ({} vertices, k={})", self.scale, self.k),
            &["benchmark", "runs", "median", "mad", "p95", "of roofline"],
        );
        for b in &self.benchmarks {
            let share = format!("{}.roofline_share", b.name);
            let share = self.obs["metrics"][share.as_str()].as_f64();
            t.row(&[
                b.name.clone(),
                b.stats.runs.to_string(),
                crate::report::fmt_duration(Duration::from_nanos(b.stats.median_ns)),
                crate::report::fmt_duration(Duration::from_nanos(b.stats.mad_ns)),
                crate::report::fmt_duration(Duration::from_nanos(b.stats.p95_ns)),
                share.map_or("-".into(), |s| format!("{s:.2}")),
            ]);
        }
        t
    }
}

/// Writes an artifact as JSON, creating its directory if need be, naming
/// the path in the error.
pub fn write_artifact(path: &Path, artifact: &BenchArtifact) -> Result<(), String> {
    let json = serde_json::to_string(artifact)
        .map_err(|e| format!("cannot serialize bench artifact: {e}"))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    }
    std::fs::write(path, json)
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

/// Loads and structurally validates an artifact: schema version, suite
/// name, and per-benchmark sample consistency all checked up front, so a
/// stale or foreign file is a clean error instead of a nonsense compare.
pub fn load_artifact(path: &Path) -> Result<BenchArtifact, String> {
    let bytes = std::fs::read(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let a: BenchArtifact = serde_json::from_slice(&bytes)
        .map_err(|e| format!("cannot parse bench artifact `{}`: {e}", path.display()))?;
    if a.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "bench artifact `{}` has schema version {} (this binary reads {SCHEMA_VERSION}); \
             regenerate the baseline",
            path.display(),
            a.schema_version
        ));
    }
    if a.suite != SUITE_NAME {
        return Err(format!(
            "`{}` is a `{}` artifact, not `{SUITE_NAME}`",
            path.display(),
            a.suite
        ));
    }
    for b in &a.benchmarks {
        if b.samples_ns.is_empty() || b.stats.runs != b.samples_ns.len() {
            return Err(format!(
                "bench artifact `{}`: benchmark `{}` has inconsistent samples",
                path.display(),
                b.name
            ));
        }
    }
    Ok(a)
}

/// Suite parameters.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Instance vertex count (defaults to `PHAST_SCALE` or 50 000).
    pub scale: usize,
    /// Untimed warmup iterations per benchmark.
    pub warmup: usize,
    /// Samples timed per benchmark (the acceptance floor is 5).
    pub runs: usize,
    /// Batch width of the k-tree benchmarks (multiple of 4, `<= MAX_K`).
    pub k: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            scale: scale_from_env(50_000),
            warmup: 2,
            runs: 7,
            k: 16,
        }
    }
}

impl SuiteConfig {
    fn validate(&self) -> Result<(), String> {
        if self.runs < 5 {
            return Err(format!(
                "need at least 5 samples for a meaningful median/MAD (got {})",
                self.runs
            ));
        }
        if self.k == 0 || self.k > MAX_K || !self.k.is_multiple_of(4) {
            return Err(format!(
                "k must be a positive multiple of 4 up to {MAX_K} (got {})",
                self.k
            ));
        }
        if self.scale < 100 {
            return Err(format!("scale {} is too small to benchmark", self.scale));
        }
        Ok(())
    }
}

/// The injected-slowdown test knob, parsed from `PHAST_BENCH_SLOWDOWN`.
struct Slowdown {
    name: String,
    factor: u32,
}

impl Slowdown {
    /// Reads the knob; malformed values fail fast — it only exists so CI
    /// can prove the gate fires, and a typo silently measuring nothing
    /// would defeat exactly that.
    fn from_env() -> Result<Option<Slowdown>, String> {
        let Some(raw) = std::env::var("PHAST_BENCH_SLOWDOWN").ok().filter(|s| !s.is_empty())
        else {
            return Ok(None);
        };
        let (name, factor) = raw
            .split_once(':')
            .ok_or_else(|| format!("malformed PHAST_BENCH_SLOWDOWN `{raw}` (want name:factor)"))?;
        let factor: u32 = factor
            .parse()
            .map_err(|e| format!("malformed PHAST_BENCH_SLOWDOWN factor `{factor}`: {e}"))?;
        if factor == 0 {
            return Err("PHAST_BENCH_SLOWDOWN factor must be positive".into());
        }
        Ok(Some(Slowdown {
            name: name.to_string(),
            factor,
        }))
    }

    fn applies_to(&self, bench: &str) -> bool {
        self.name == "*" || self.name == bench
    }
}

/// Runs the full suite and assembles the artifact. Deterministic in the
/// workload (fixed generator seeds, fixed source rotation); the only
/// nondeterminism left is the wall clock itself.
pub fn run_suite(cfg: &SuiteConfig) -> Result<BenchArtifact, String> {
    cfg.validate()?;
    let slowdown = Slowdown::from_env()?;
    let k = cfg.k;
    let iterations = cfg.warmup + cfg.runs;

    // Shared workload: one Europe-like instance, preprocessed once.
    let instance = InstanceConfig::default_europe()
        .with_vertices(cfg.scale)
        .build();
    let graph = &instance.network.graph;
    let hierarchy = phast_ch::contract_graph(graph, &phast_ch::ContractionConfig::default());
    let phast = Arc::new(PhastBuilder::new().build_with_hierarchy(graph, &hierarchy));
    // Enough distinct sources that consecutive iterations never reuse a
    // tree, deterministic in the fixed seed.
    let pool = instance.sources((iterations * k).max(64), 0xBE7C);
    let src = |i: usize| pool[i % pool.len()];
    let batch_at = |i: usize| -> Vec<Vertex> { (0..k).map(|j| src(i * k + j)).collect() };

    let mut suite_report = phast_obs::Report::new(SUITE_NAME);
    let mut benchmarks: Vec<BenchResult> = Vec::new();
    let mut record = |name: &str, mut samples: Samples, report: Option<&phast_obs::Report>| {
        if let Some(s) = slowdown.as_ref().filter(|s| s.applies_to(name)) {
            for d in &mut samples.samples {
                *d = d.saturating_mul(s.factor);
            }
        }
        if let Some(r) = report {
            suite_report.merge_prefixed(name, r);
        }
        benchmarks.push(BenchResult {
            name: name.to_string(),
            warmup: samples.warmup,
            stats: samples.stats(),
            samples_ns: samples.to_ns(),
        });
    };

    // 1. Scalar Dijkstra baseline.
    {
        let mut d: Dijkstra = Dijkstra::new(graph.forward());
        let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
            d.run_in_place(src(i));
        });
        record("dijkstra_scalar", s, None);
    }

    // 2. Single-tree level-ordered sweep.
    {
        let mut e = phast.engine();
        let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
            e.distances_sweep(src(i));
        });
        // The sweep relaxes every downward arc once, whatever the source:
        // the median over that count is the per-arc cost the sweep order
        // moves (the upward search is ~1 % of the time).
        let mut report = e.stats().report("single");
        let down_arcs = phast.down().num_arcs();
        report.push_count("down_arcs", down_arcs as u64).push_ratio(
            "ns_per_arc",
            s.stats().median_ns as f64 / down_arcs.max(1) as f64,
        );
        record("phast_single_tree", s, Some(&report));
    }

    // 3. k-tree batched sweep, one benchmark per kernel the CPU has, each
    // against its roofline (the paper's Section VIII-B bound): the bytes
    // a sweep moves if `first`, the downward arcs and the k-wide label
    // rows (read and written) each stream once — computed from the array
    // sizes — over the bandwidth of a sequential scan of arrays of those
    // very sizes, measured here, in the same run (best pass of `runs`).
    let mut rows = vec![0; phast.num_vertices() * k];
    let stream = (0..cfg.runs)
        .map(|_| lower_bound::measure(&phast, &mut rows))
        .min_by_key(|bound| bound.sequential_scan)
        .expect("runs >= 5");
    drop(rows);
    let kernels: &[SimdLevel] = match best_simd_for(k) {
        SimdLevel::Scalar => &[SimdLevel::Scalar],
        SimdLevel::Sse41 => &[SimdLevel::Scalar, SimdLevel::Sse41],
        SimdLevel::Avx2 => &[SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2],
    };
    for &level in kernels {
        let suffix = match level {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse41 => "sse41",
            SimdLevel::Avx2 => "avx2",
        };
        let mut e = phast.multi_engine(k);
        e.force_simd(level);
        let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
            e.run(&batch_at(i));
        });
        let mut report = e.stats().report(suffix);
        let median_ns = s.stats().median_ns.max(1);
        report
            .push_count("sweep_bytes", stream.bytes as u64)
            .push_ratio("stream_gbps", stream.bandwidth_gbps())
            .push_ratio(
                "roofline_share",
                stream.sequential_scan.as_nanos() as f64 / median_ns as f64,
            );
        record(&format!("phast_k{k}_{suffix}"), s, Some(&report));
    }

    // 4. Intra-level parallel batched sweep (`run_par`, rayon pool).
    {
        let mut e = phast.multi_engine(k);
        let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
            e.run_par(&batch_at(i));
        });
        record(&format!("phast_par_k{k}"), s, Some(&e.stats().report("par")));
    }

    // 5. GPHAST simulator batch (GTX 580 profile).
    {
        let mut g = Gphast::new(&phast, DeviceProfile::gtx_580(), k)
            .map_err(|e| format!("GPHAST device setup failed: {e:?}"))?;
        let mut last_stats = None;
        let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
            last_stats = Some(g.run(&batch_at(i)));
        });
        let r = last_stats.map(|st| st.report("gphast"));
        record(&format!("gphast_k{k}"), s, r.as_ref());
    }

    // 6. Serve scheduler batch-execution path.
    {
        let serve_cfg = ServeConfig {
            max_k: k,
            window: Duration::ZERO,
            workers: 1,
            ..ServeConfig::default()
        };
        let service = Service::new(Arc::clone(&phast), None, serve_cfg);
        let epoch = service.current_epoch();
        let mut runner = service.batch_runner(&epoch);
        let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
            let queries: Vec<HeteroQuery> = batch_at(i)
                .into_iter()
                .map(|source| HeteroQuery::Tree { source })
                .collect();
            runner.run(&queries);
        });
        drop(runner);
        let r = service.stats().report("serve");
        record(&format!("serve_batch_k{k}"), s, Some(&r));
        service.shutdown();
    }

    // 7. RPHAST restricted sweeps: one selection-build benchmark, then a
    //    restricted single-tree sweep per |T|/n ratio. Targets are an
    //    even deterministic stride over the vertex range; the restricted
    //    rows at ratio >= 100 are the regime where RPHAST must beat
    //    `phast_single_tree` (the acceptance gate in the bench e2e test).
    {
        let n = graph.num_vertices();
        let targets_at = |ratio: usize| -> Vec<Vertex> {
            let count = (n / ratio).max(1);
            (0..count).map(|j| (j * (n / count)) as Vertex).collect()
        };
        let mut builder = SelectionBuilder::new(&phast);
        {
            let t = targets_at(100);
            let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
                builder.build(&t);
            });
            record("rphast_select_r100", s, None);
        }
        for ratio in [10usize, 100, 1000] {
            let t = targets_at(ratio);
            let sel = builder.build(&t);
            let mut e = RestrictedEngine::new(&phast);
            let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
                e.distances(&sel, src(i));
            });
            let name = format!("rphast_sweep_r{ratio}");
            let r = e.stats().report(format!("rphast_r{ratio}"));
            record(&name, s, Some(&r));
        }
    }

    // 8. Metric customization vs full recontraction (`phast-metrics`).
    //    The topology is frozen once (amortized, like production); each
    //    iteration then turns a distinct perturbed metric into a servable
    //    (Phast, Hierarchy) pair. The companion `recontract_10e6` entry
    //    measures the path customization replaces — witness-search
    //    contraction plus instance build on the same graph. The `10e6`
    //    suffix names the production target scale (PHAST_SCALE=10^6);
    //    like every other entry the suite runs it at `cfg.scale`, and the
    //    customize/recontract *ratio* is what the e2e gate asserts.
    {
        let customizer = phast_metrics::MetricCustomizer::new(graph.clone(), &hierarchy)
            .map_err(|e| format!("metric topology freeze failed: {e}"))?;
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            phast_metrics::MetricCustomizer::new(graph.clone(), &hierarchy)
                .expect("the freeze above succeeded on the same inputs");
        });
        record("freeze_10e6", s, None);
        let perturbed = |i: usize| {
            phast_metrics::MetricWeights::perturbed(graph, "bench", i as u64, 0xC0FFEE ^ i as u64)
        };
        let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
            customizer
                .build(&perturbed(i))
                .expect("customizing a valid perturbed metric cannot fail");
        });
        // What the frozen layout moves is the pass alone (the entry's
        // median also gathers it into the frozen sweep layout): its own
        // median over the triangle count is the per-triangle cost.
        let frozen = customizer.frozen();
        let pass = Samples::collect(cfg.warmup, cfg.runs, |i| {
            frozen
                .customize(&perturbed(i))
                .expect("customizing a valid perturbed metric cannot fail");
        });
        let mut report = phast_obs::Report::new("customize");
        report
            .push_count("closure_arcs", frozen.num_arcs() as u64)
            .push_count("triangles", frozen.num_triangles() as u64)
            .push_ratio(
                "ns_per_triangle",
                pass.stats().median_ns as f64 / frozen.num_triangles().max(1) as f64,
            )
            .push_count("frozen_bytes", frozen.memory_bytes() as u64);
        record("customize_10e6", s, Some(&report));
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            let h = phast_ch::contract_graph(graph, &phast_ch::ContractionConfig::default());
            PhastBuilder::new().build_with_hierarchy(graph, &h);
        });
        record("recontract_10e6", s, None);
    }

    // 9. CH contraction: the sequential lazy-heap reference vs the
    //    round-based parallel contractor pinned at 4 threads. Like the
    //    `10e6` entries, the `10e5` suffix names the production target
    //    scale; the suite runs both at `cfg.scale` on the shared graph.
    //    Tracking both medians makes the parallel speedup (or any witness
    //    -search regression) part of the BENCH trajectory.
    {
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            phast_ch::contract_graph(graph, &phast_ch::ContractionConfig::sequential());
        });
        record("contract_10e5", s, None);
        let par_cfg = phast_ch::ContractionConfig {
            threads: 4,
            ..phast_ch::ContractionConfig::default()
        };
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            phast_ch::contract_graph(graph, &par_cfg);
        });
        record("contract_par_10e5", s, None);
    }

    // 10. Artifact load: the one decoder over bytes read to the heap
    //    (`read_instance`) vs over a mapping (`load_instance_mmap`). Same
    //    file, written once; both rows validate every CRC, the mmap row
    //    then borrows the big section slices out of the mapping instead of
    //    converting them — replica startup cost is dominated by this. Then
    //    the CRC-32 alone over that file's bytes (`store_crc`).
    {
        let dir = std::env::temp_dir().join(format!("phast-regress-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
        let file = dir.join("instance.phast");
        phast_store::write_instance(&file, &phast, Some(&hierarchy))
            .map_err(|e| format!("cannot write bench artifact instance: {e}"))?;
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            phast_store::read_instance(&file).expect("heap load of a file we just wrote");
        });
        record("store_load_heap", s, None);
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            let loaded =
                phast_store::load_instance_mmap(&file).expect("mmap load of a file we just wrote");
            assert!(loaded.zero_copy, "a fresh artifact must take the zero-copy path");
        });
        record("store_load_mmap", s, None);
        // The checksum both loads run, over the same bytes: the kernel
        // `Crc32::update` dispatches to against the byte-table twin, so the
        // artifact shows which path ran and how far it is from memory speed.
        let bytes = std::fs::read(&file)
            .map_err(|e| format!("cannot read bench artifact instance: {e}"))?;
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            std::hint::black_box(phast_store::crc::crc32(std::hint::black_box(&bytes)));
        });
        let table = Samples::collect(cfg.warmup, cfg.runs, |_| {
            std::hint::black_box(phast_store::crc::crc32_table(std::hint::black_box(&bytes)));
        });
        // Bytes per nanosecond are GB/s.
        let gbps = |samples: &Samples| bytes.len() as f64 / samples.stats().median_ns.max(1) as f64;
        let mut report = phast_obs::Report::new("store_crc");
        report
            .push_count("bytes", bytes.len() as u64)
            .push_ratio("gbps", gbps(&s))
            .push_ratio("table_gbps", gbps(&table));
        record("store_crc", s, Some(&report));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // 11. The reply codec (DESIGN §9), one pass per hop of a served tree:
    //    the server's encode into its per-connection buffer, the router's
    //    validate-only classification, the client's decode. A real tree
    //    gives the digit mix of real replies; the matrix has as many
    //    cells in 16 rows.
    {
        use phast_serve::protocol;
        let tree = phast.engine().distances_sweep(src(0)).to_vec();
        let rows: Vec<Vec<u32>> = tree
            .chunks(tree.len().div_ceil(16))
            .map(<[u32]>::to_vec)
            .collect();
        let tree = phast_core::HeteroAnswer::Tree(tree);
        let matrix = phast_core::HeteroAnswer::Matrix(rows);
        let mut line = String::new();
        for (name, answer) in [("wire_encode_matrix", &matrix), ("wire_encode_tree", &tree)] {
            let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
                line.clear();
                protocol::encode_answer_into(&mut line, Some(i as i64), answer, Some(1));
            });
            record(name, s, None);
        }
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            let (reply, epoch) = protocol::decode_reply_with_epoch(&line).expect("own encoding");
            std::hint::black_box((reply, epoch));
        });
        record("wire_decode_tree", s, None);
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            let class = protocol::classify_reply(line.as_bytes());
            assert_eq!(class, Ok(protocol::ReplyClass::Ok));
        });
        record("wire_classify_tree", s, None);
    }

    // 12. Around the sweep: PHAST's first phase alone, the CH
    //    point-to-point query the hierarchy also answers, and the §VII
    //    applications the paper builds from many trees.
    {
        use phast_apps::{ArcFlags, BidirectionalArcFlags, Partition};
        use std::hint::black_box;
        let mut e = phast.engine();
        let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
            black_box(e.upward_search(src(i)).len());
        });
        record("phast_upward", s, None);
        let mut q = phast_ch::ChQuery::new(&hierarchy);
        let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
            black_box(q.query(src(i), src(i + 1)));
        });
        record("ch_p2p", s, None);
        let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
            black_box(q.query_path(src(i), src(i + 1)));
        });
        record("ch_p2p_path", s, None);
        let sources: Vec<Vertex> = (0..32).map(src).collect();
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            black_box(phast_apps::diameter_phast(&phast, &sources));
        });
        record("diameter_s32", s, None);
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            black_box(phast_apps::reaches_phast(&phast, &sources));
        });
        record("reach_s32", s, None);
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            black_box(phast_apps::betweenness_phast(&phast, &sources));
        });
        record("betweenness_s32", s, None);
        let reverse = PhastBuilder::new()
            .direction(Direction::Reverse)
            .build_with_hierarchy(graph, &hierarchy);
        let cells = Partition::grid(&instance.network.coords, 4, 4);
        let mut flags = None;
        let s = Samples::collect(cfg.warmup, cfg.runs, |_| {
            flags = Some(ArcFlags::preprocess_phast(graph, cells.clone(), &reverse));
        });
        record("arcflags_preprocess_16cells", s, None);
        let flags = flags.expect("runs >= 5");
        let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
            black_box(flags.query(graph, src(i), src(i + 1)));
        });
        record("arcflags_query", s, None);
        let bi = BidirectionalArcFlags::preprocess_phast(graph, cells, &reverse, &phast);
        let s = Samples::collect(cfg.warmup, cfg.runs, |i| {
            black_box(bi.query(graph, src(i), src(i + 1)));
        });
        record("arcflags_bi_query", s, None);
    }

    Ok(BenchArtifact {
        schema_version: SCHEMA_VERSION,
        suite: SUITE_NAME.to_string(),
        created_unix_s: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        host: HostInfo::detect(),
        scale: cfg.scale,
        k,
        benchmarks,
        obs: serde_json::to_value(&suite_report)
            .map_err(|e| format!("cannot serialize obs report: {e}"))?,
    })
}

/// Noise-aware regression thresholds.
#[derive(Clone, Copy, Debug)]
pub struct CompareConfig {
    /// Minimum relative slowdown that counts as a regression, percent.
    pub threshold_pct: f64,
    /// MAD multiplier: on noisy benchmarks the allowance grows to
    /// `mad_k · baseline MAD` so jitter does not trip the gate.
    pub mad_k: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        Self {
            threshold_pct: 10.0,
            mad_k: 4.0,
        }
    }
}

/// One benchmark's baseline-vs-current verdict.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Benchmark name.
    pub name: String,
    /// Baseline median, ns.
    pub base_median_ns: u64,
    /// Current median, ns.
    pub cur_median_ns: u64,
    /// Largest non-regressing current median, ns.
    pub allowed_ns: u64,
    /// `current / baseline` medians (`> 1` is slower).
    pub ratio: f64,
    /// Whether the current median exceeds the allowance.
    pub regressed: bool,
}

/// Outcome of comparing two artifacts.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Per-benchmark verdicts, in baseline order.
    pub deltas: Vec<Delta>,
    /// Baseline benchmarks absent from the current run — a failure: a
    /// silently dropped benchmark must not read as green.
    pub missing_in_current: Vec<String>,
    /// Current benchmarks absent from the baseline (informational).
    pub new_in_current: Vec<String>,
    /// The two artifacts ran at different instance scales — a failure:
    /// the numbers are not comparable.
    pub scale_mismatch: Option<(usize, usize)>,
    /// The host fingerprints differ (warning only: thresholds were
    /// calibrated against same-machine noise).
    pub host_mismatch: bool,
}

impl Comparison {
    /// Every reason this comparison fails the gate (empty = pass).
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some((base, cur)) = self.scale_mismatch {
            out.push(format!(
                "instance scale mismatch: baseline ran at {base} vertices, current at {cur}"
            ));
        }
        for name in &self.missing_in_current {
            out.push(format!("benchmark `{name}` is in the baseline but was not run"));
        }
        for d in self.deltas.iter().filter(|d| d.regressed) {
            out.push(format!(
                "`{}` regressed: median {} -> {} ({:+.1}%, allowed up to {})",
                d.name,
                crate::report::fmt_duration(Duration::from_nanos(d.base_median_ns)),
                crate::report::fmt_duration(Duration::from_nanos(d.cur_median_ns)),
                (d.ratio - 1.0) * 100.0,
                crate::report::fmt_duration(Duration::from_nanos(d.allowed_ns)),
            ));
        }
        out
    }

    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// Renders the per-benchmark deltas as a [`Table`].
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "baseline comparison",
            &["benchmark", "baseline", "current", "delta", "allowed", "verdict"],
        );
        for d in &self.deltas {
            t.row(&[
                d.name.clone(),
                crate::report::fmt_duration(Duration::from_nanos(d.base_median_ns)),
                crate::report::fmt_duration(Duration::from_nanos(d.cur_median_ns)),
                format!("{:+.1}%", (d.ratio - 1.0) * 100.0),
                crate::report::fmt_duration(Duration::from_nanos(d.allowed_ns)),
                if d.regressed { "REGRESSED" } else { "ok" }.to_string(),
            ]);
        }
        for name in &self.missing_in_current {
            t.row(&[
                name.clone(),
                "-".into(),
                "MISSING".into(),
                "-".into(),
                "-".into(),
                "REGRESSED".into(),
            ]);
        }
        for name in &self.new_in_current {
            t.row(&[name.clone(), "NEW".into(), "-".into(), "-".into(), "-".into(), "ok".into()]);
        }
        t
    }
}

/// Compares `current` against `baseline` under `cfg`'s thresholds.
pub fn compare(baseline: &BenchArtifact, current: &BenchArtifact, cfg: &CompareConfig) -> Comparison {
    let mut c = Comparison {
        host_mismatch: baseline.host != current.host,
        scale_mismatch: (baseline.scale != current.scale)
            .then_some((baseline.scale, current.scale)),
        ..Comparison::default()
    };
    for base in &baseline.benchmarks {
        let Some(cur) = current.get(&base.name) else {
            c.missing_in_current.push(base.name.clone());
            continue;
        };
        let base_median = base.stats.median_ns;
        let cur_median = cur.stats.median_ns;
        let margin_pct = base_median as f64 * cfg.threshold_pct / 100.0;
        let margin_mad = base.stats.mad_ns as f64 * cfg.mad_k;
        let allowed = base_median.saturating_add(margin_pct.max(margin_mad) as u64);
        c.deltas.push(Delta {
            name: base.name.clone(),
            base_median_ns: base_median,
            cur_median_ns: cur_median,
            allowed_ns: allowed,
            ratio: if base_median == 0 {
                1.0
            } else {
                cur_median as f64 / base_median as f64
            },
            regressed: cur_median > allowed,
        });
    }
    for cur in &current.benchmarks {
        if baseline.get(&cur.name).is_none() {
            c.new_in_current.push(cur.name.clone());
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, samples_ns: Vec<u64>) -> BenchResult {
        let samples = Samples {
            warmup: 1,
            samples: samples_ns
                .iter()
                .map(|&n| Duration::from_nanos(n))
                .collect(),
        };
        BenchResult {
            name: name.to_string(),
            warmup: 1,
            stats: samples.stats(),
            samples_ns,
        }
    }

    fn artifact(benchmarks: Vec<BenchResult>) -> BenchArtifact {
        BenchArtifact {
            schema_version: SCHEMA_VERSION,
            suite: SUITE_NAME.to_string(),
            created_unix_s: 0,
            host: HostInfo::detect(),
            scale: 1000,
            k: 16,
            benchmarks,
            obs: serde::Value::Null,
        }
    }

    #[test]
    fn self_compare_passes() {
        let a = artifact(vec![result("x", vec![100, 110, 90, 105, 95])]);
        let c = compare(&a, &a, &CompareConfig::default());
        assert!(c.passed(), "{:?}", c.failures());
        assert_eq!(c.deltas.len(), 1);
        assert!(!c.deltas[0].regressed);
    }

    #[test]
    fn clear_regression_fails_and_names_the_benchmark() {
        let base = artifact(vec![result("x", vec![100, 110, 90, 105, 95])]);
        let cur = artifact(vec![result("x", vec![300, 310, 290, 305, 295])]);
        let c = compare(&base, &cur, &CompareConfig::default());
        assert!(!c.passed());
        let msg = c.failures().join("\n");
        assert!(msg.contains('x') && msg.contains("regressed"), "{msg}");
        // And the delta table renders a REGRESSED verdict.
        assert!(c.table().render().contains("REGRESSED"));
    }

    #[test]
    fn mad_margin_absorbs_noise_on_jittery_benchmarks() {
        // Baseline: median 100, MAD 20 (deviations 30, 20, 0, 20, 30).
        let base = artifact(vec![result("x", vec![70, 80, 100, 120, 130])]);
        // Current median 160: +60% > the 10% threshold, but within the
        // 4·MAD = 80 noise margin.
        let cur = artifact(vec![result("x", vec![160, 160, 160, 160, 160])]);
        let cfg = CompareConfig::default();
        assert!(compare(&base, &cur, &cfg).passed());
        // Past the MAD margin it fails.
        let cur = artifact(vec![result("x", vec![190, 190, 190, 190, 190])]);
        assert!(!compare(&base, &cur, &cfg).passed());
    }

    #[test]
    fn missing_benchmark_and_scale_mismatch_fail() {
        let base = artifact(vec![
            result("x", vec![100, 100, 100, 100, 100]),
            result("y", vec![100, 100, 100, 100, 100]),
        ]);
        let cur = artifact(vec![result("x", vec![100, 100, 100, 100, 100])]);
        let c = compare(&base, &cur, &CompareConfig::default());
        assert!(!c.passed());
        assert!(c.failures().join("\n").contains("`y`"));

        let mut small = base.clone();
        small.scale = 999;
        let c = compare(&small, &base, &CompareConfig::default());
        assert!(!c.passed());
        assert!(c.failures().join("\n").contains("scale mismatch"));
    }

    #[test]
    fn new_benchmark_is_informational_not_fatal() {
        let base = artifact(vec![result("x", vec![100, 100, 100, 100, 100])]);
        let cur = artifact(vec![
            result("x", vec![100, 100, 100, 100, 100]),
            result("z", vec![1, 1, 1, 1, 1]),
        ]);
        let c = compare(&base, &cur, &CompareConfig::default());
        assert!(c.passed());
        assert_eq!(c.new_in_current, vec!["z".to_string()]);
    }

    #[test]
    fn artifact_roundtrips_and_load_validates() {
        let dir = std::env::temp_dir().join(format!("phast-bench-art-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let a = artifact(vec![result("x", vec![100, 110, 90, 105, 95])]);
        write_artifact(&path, &a).unwrap();
        let b = load_artifact(&path).unwrap();
        assert_eq!(b.schema_version, SCHEMA_VERSION);
        assert_eq!(b.scale, a.scale);
        assert_eq!(b.get("x").unwrap().stats, a.benchmarks[0].stats);
        assert_eq!(b.get("x").unwrap().samples_ns, a.benchmarks[0].samples_ns);

        // A field this reader does not know — one an older writer still
        // emitted — is ignored, so such artifacts keep loading as baselines.
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, json.replacen('{', "{\"retired_flag\":false,", 1)).unwrap();
        assert_eq!(load_artifact(&path).unwrap().benchmarks.len(), 1);

        // A bumped schema version is refused with a regenerate hint.
        let mut skewed = a.clone();
        skewed.schema_version = SCHEMA_VERSION + 1;
        write_artifact(&path, &skewed).unwrap();
        let err = load_artifact(&path).unwrap_err();
        assert!(err.contains("schema version"), "{err}");

        // Garbage is a clean error, not a panic.
        std::fs::write(&path, b"not json").unwrap();
        assert!(load_artifact(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn suite_config_validation_catches_bad_knobs() {
        let ok = SuiteConfig {
            scale: 1000,
            ..SuiteConfig::default()
        };
        assert!(ok.validate().is_ok());
        for bad in [
            SuiteConfig { runs: 4, ..ok.clone() },
            SuiteConfig { k: 0, ..ok.clone() },
            SuiteConfig { k: 6, ..ok.clone() },
            SuiteConfig { k: MAX_K + 4, ..ok.clone() },
            SuiteConfig { scale: 10, ..ok.clone() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    /// End-to-end: a tiny suite run produces a well-formed artifact whose
    /// self-comparison passes. (The CI smoke does this again through the
    /// CLI at a larger size.)
    #[test]
    fn tiny_suite_runs_and_self_compares() {
        let cfg = SuiteConfig {
            scale: 600,
            warmup: 1,
            runs: 5,
            k: 4,
        };
        let a = run_suite(&cfg).expect("suite runs");
        assert_eq!(a.schema_version, SCHEMA_VERSION);
        assert_eq!(a.k, 4);
        // The six engine families are all covered.
        for name in [
            "dijkstra_scalar",
            "phast_single_tree",
            "phast_k4_scalar",
            "phast_par_k4",
            "gphast_k4",
            "serve_batch_k4",
            "rphast_select_r100",
            "rphast_sweep_r10",
            "rphast_sweep_r100",
            "rphast_sweep_r1000",
            "freeze_10e6",
            "customize_10e6",
            "recontract_10e6",
            "contract_10e5",
            "contract_par_10e5",
            "store_load_heap",
            "store_load_mmap",
            "store_crc",
            "wire_encode_tree",
            "wire_encode_matrix",
            "wire_decode_tree",
            "wire_classify_tree",
            "phast_upward",
            "ch_p2p",
            "ch_p2p_path",
            "diameter_s32",
            "reach_s32",
            "betweenness_s32",
            "arcflags_preprocess_16cells",
            "arcflags_query",
            "arcflags_bi_query",
        ] {
            let b = a.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(b.stats.runs, 5, "{name}");
            assert_eq!(b.samples_ns.len(), 5, "{name}");
            assert!(b.stats.min_ns <= b.stats.median_ns, "{name}");
            assert!(b.stats.median_ns <= b.stats.max_ns, "{name}");
        }
        // The single-tree entry carries its per-arc cost.
        let metrics = &a.obs["metrics"];
        let arcs = metrics["phast_single_tree.down_arcs"]
            .as_i64()
            .expect("down_arcs");
        assert!(arcs > 500 && arcs < 20 * 600, "down_arcs {arcs}");
        let per_arc = metrics["phast_single_tree.ns_per_arc"].as_f64();
        assert!(
            per_arc.is_some_and(|x| x > 0.0 && x.is_finite()),
            "{per_arc:?}"
        );
        // The customize entry carries the pass's size and per-triangle
        // cost; the layout stores 4 bytes per triangle plus the arcs.
        let count = |field: &str| {
            let x = metrics[format!("customize_10e6.{field}").as_str()].as_i64();
            x.unwrap_or_else(|| panic!("customize_10e6.{field} missing"))
        };
        let (arcs, triangles) = (count("closure_arcs"), count("triangles"));
        assert!(arcs > 600 && triangles > arcs, "{arcs} arcs, {triangles} triangles");
        assert!(count("frozen_bytes") > 4 * (triangles + arcs));
        let per_triangle = metrics["customize_10e6.ns_per_triangle"].as_f64();
        assert!(
            per_triangle.is_some_and(|x| x > 0.0 && x.is_finite()),
            "{per_triangle:?}"
        );
        // Each k-tree kernel entry carries its roofline: bytes computed
        // from the array sizes (`first` + 8-byte arcs + the 4-wide rows
        // read and written), a bandwidth measured in this run, and the
        // share of it the measured median reaches.
        let n = metrics["phast_k4_scalar.sweep_bytes"].as_i64().expect("bytes");
        assert!(n > 2 * 4 * 4 * 500 && n < 64 * 600, "sweep_bytes {n}");
        for level in ["scalar", "sse41", "avx2"] {
            if a.get(&format!("phast_k4_{level}")).is_none() {
                continue;
            }
            let bytes = format!("phast_k4_{level}.sweep_bytes");
            assert_eq!(metrics[bytes.as_str()].as_i64(), Some(n));
            for field in ["stream_gbps", "roofline_share"] {
                let x = metrics[format!("phast_k4_{level}.{field}").as_str()].as_f64();
                assert!(x.is_some_and(|x| x > 0.0 && x.is_finite()), "{level} {field}: {x:?}");
            }
        }
        // The CRC entry carries the artifact's size and both kernels' rates.
        let crc_bytes = metrics["store_crc.bytes"]
            .as_i64()
            .expect("store_crc.bytes");
        assert!(crc_bytes > 6_000, "store_crc.bytes {crc_bytes}");
        for field in ["gbps", "table_gbps"] {
            let x = metrics[format!("store_crc.{field}").as_str()].as_f64();
            assert!(
                x.is_some_and(|x| x > 0.0 && x.is_finite()),
                "store_crc.{field}: {x:?}"
            );
        }
        // The point of metric customization: producing a servable
        // instance for a new metric must be at least 10x faster than
        // recontracting from scratch (the margin grows with scale; this
        // asserts it already holds at test size).
        let customize = a.get("customize_10e6").unwrap().stats.median_ns;
        let recontract = a.get("recontract_10e6").unwrap().stats.median_ns;
        assert!(
            recontract >= customize.saturating_mul(10),
            "customization must be >=10x faster than recontraction \
             (customize {customize}ns vs recontract {recontract}ns)"
        );
        // The parallel contractor must stay in the same league as the
        // sequential one even at this tiny scale, where per-round thread
        // fan-out overhead is at its relative worst and no speedup can be
        // expected (the "beats sequential at >= 4 threads" claim needs
        // meaningful per-round work; it is visible in the recorded
        // `contract_10e5` / `contract_par_10e5` medians at suite scale on
        // multi-core hosts). This sanity bound catches a parallel path
        // that has gone pathologically wrong without flaking on core count.
        let seq = a.get("contract_10e5").unwrap().stats.median_ns;
        let par = a.get("contract_par_10e5").unwrap().stats.median_ns;
        assert!(
            par <= seq.saturating_mul(4).max(50_000_000),
            "parallel contraction median {par}ns vs sequential {seq}ns"
        );
        let c = compare(&a, &a, &CompareConfig::default());
        assert!(c.passed(), "{:?}", c.failures());
        // The merged obs report is a real phast-obs JSON object.
        assert!(a.obs.get("metrics").is_some());
    }
}
