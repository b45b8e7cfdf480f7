//! Instance set-up shared by every workload: generate the road network,
//! contract it, build the sweep instance, write the artifact, load it back
//! through the zero-copy path and verify a first tree, and build the
//! oracle. Every step is timed from outside around the public call.

use crate::oracle::{sample_distinct, Oracle, Rng};
use phast_ch::{contract_graph, ContractionConfig, Hierarchy};
use phast_core::{Phast, PhastBuilder};
use phast_graph::gen::{Metric, RoadNetworkConfig};
use phast_graph::Graph;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The road-network generator seed is fixed: `--seed` varies the queries,
/// never the graph, so instance sizes are comparable across runs.
pub const GRAPH_SEED: u64 = 20110516;

/// Source-pool size of the oracle.
pub const SOURCE_POOL: usize = 128;
/// Target-pool size of the oracle.
pub const TARGET_POOL: usize = 1024;

/// How often each set-up (and each in-loop rebuild) loads the artifact:
/// a load is cheap and its time is the noisiest of the set-up steps.
pub const LOADS: usize = 5;

/// Where the benchmark keeps everything it writes.
pub const OUT_DIR: &str = "benchmark/out";

/// A path under [`OUT_DIR`] no other call (or process) gets.
pub fn scratch_path(stem: &str, ext: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let serial = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!(
        "{OUT_DIR}/{stem}-{}-{serial}.{ext}",
        std::process::id()
    ))
}

/// How long each set-up step took.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes {
    /// `RoadNetworkConfig::build`.
    pub generate: Duration,
    /// `contract_graph`.
    pub contract: Duration,
    /// `PhastBuilder::build_with_hierarchy`.
    pub build: Duration,
    /// `write_instance`.
    pub write: Duration,
    /// `load_instance_mmap` alone (the last of the loads).
    pub load_mmap: Duration,
    /// `load_instance_mmap` + engine + first tree + its verification,
    /// once per load: [`LOADS`] of them.
    pub loads: Vec<Duration>,
    /// Building the oracle (all pool sources, all threads).
    pub oracle: Duration,
    /// Median single-threaded reference Dijkstra tree.
    pub dijkstra_tree: Duration,
    /// Artifact size on disk.
    pub artifact_bytes: u64,
}

impl SetupTimes {
    /// Graph → artifact on disk.
    pub fn preprocess(&self) -> Duration {
        self.contract + self.build + self.write
    }
}

/// Graph → hierarchy → sweep instance → artifact on disk, each step timed.
pub fn preprocess(
    graph: &Graph,
    artifact: &Path,
    times: &mut SetupTimes,
) -> Result<(Hierarchy, Phast), String> {
    let start = Instant::now();
    let hierarchy = contract_graph(graph, &ContractionConfig::default());
    times.contract = start.elapsed();
    let start = Instant::now();
    let phast = PhastBuilder::new().build_with_hierarchy(graph, &hierarchy);
    times.build = start.elapsed();
    let start = Instant::now();
    phast_store::write_instance(artifact, &phast, Some(&hierarchy))
        .map_err(|e| format!("writing {}: {e}", artifact.display()))?;
    times.write = start.elapsed();
    times.artifact_bytes = std::fs::metadata(artifact).map_or(0, |m| m.len());
    Ok((hierarchy, phast))
}

/// Artifact → first verified tree, [`LOADS`] times: zero-copy load, one
/// sweep from pool source 0, checked against the oracle. Returns what the
/// last load produced.
pub fn load_verified(
    artifact: &Path,
    oracle: &Oracle,
    times: &mut SetupTimes,
) -> Result<(Phast, Hierarchy), String> {
    let mut last = None;
    for _ in 0..LOADS {
        drop(last.take());
        let start = Instant::now();
        let loaded = phast_store::load_instance_mmap(artifact)
            .map_err(|e| format!("loading {}: {e}", artifact.display()))?;
        times.load_mmap = start.elapsed();
        let tree = loaded.phast.engine().distances(oracle.sources[0]);
        let ok = oracle.tree_ok(0, tree);
        times.loads.push(start.elapsed());
        if !ok {
            return Err("first tree on the loaded artifact differs from Dijkstra".into());
        }
        last = Some(loaded);
    }
    let loaded = last.expect("LOADS is positive");
    let hierarchy = loaded
        .hierarchy
        .ok_or("the artifact lost its hierarchy on the way through the store")?;
    Ok((loaded.phast, hierarchy))
}

/// A preprocessed, loaded and oracle-backed instance.
pub struct Instance {
    /// The input graph (what the oracle runs on).
    pub graph: Graph,
    /// The sweep instance as loaded from the artifact.
    pub phast: Arc<Phast>,
    /// The hierarchy as loaded from the artifact.
    pub hierarchy: Arc<Hierarchy>,
    /// Reference answers for the seeded pools.
    pub oracle: Oracle,
    /// Step timings.
    pub times: SetupTimes,
    /// The artifact this instance was loaded from.
    pub artifact: PathBuf,
}

impl Instance {
    /// Builds the instance with `target_vertices` vertices; pools come
    /// from `seed`.
    pub fn build(target_vertices: usize, seed: u64, threads: usize) -> Result<Instance, String> {
        let mut times = SetupTimes::default();
        let start = Instant::now();
        let graph = RoadNetworkConfig::europe_like(target_vertices, GRAPH_SEED, Metric::TravelTime)
            .build()
            .graph;
        times.generate = start.elapsed();

        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
        let artifact = scratch_path("instance", "phast");
        // The built pair is dropped: like a replica, the benchmark serves
        // what the store hands back.
        preprocess(&graph, &artifact, &mut times)?;

        let start = Instant::now();
        let n = graph.num_vertices();
        let sources = sample_distinct(&mut Rng::new(seed, 1), n, SOURCE_POOL);
        let targets = sample_distinct(&mut Rng::new(seed, 2), n, TARGET_POOL);
        let (oracle, per_tree) = Oracle::build(graph.forward(), sources, targets, threads);
        times.oracle = start.elapsed();
        times.dijkstra_tree = per_tree;

        let (phast, hierarchy) = load_verified(&artifact, &oracle, &mut times)?;
        Ok(Instance {
            graph,
            phast: Arc::new(phast),
            hierarchy: Arc::new(hierarchy),
            oracle,
            times,
            artifact,
        })
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        // The mapping outlives the unlink; nothing is left on disk.
        let _ = std::fs::remove_file(&self.artifact);
    }
}
