//! Multi-core PHAST (Section V).
//!
//! Two orthogonal parallelizations:
//!
//! * **per-source**: different cores build different trees — embarrassingly
//!   parallel, the paper's 3.7× on four cores ([`par_trees`],
//!   [`par_multi_trees`]);
//! * **intra-level**: one tree, but the vertices of each level are split
//!   into blocks processed by different cores — the paper's 3.5× on four
//!   cores, and the scheme GPHAST inherits ([`MultiTreeEngine::run_par`],
//!   [`PhastEngine::distances_par`]): [`sweep_levels`], the one
//!   level-block loop.

use crate::simd::{sweep_range, SimdLevel, SweepParams};
use crate::sweep::PhastEngine;
use crate::{MultiTreeEngine, Phast};
use phast_graph::Vertex;
use rayon::prelude::*;
use std::ops::Range;

/// Minimum labels a parallel block is worth; smaller levels are swept
/// sequentially (the top of the hierarchy is tiny).
const MIN_BLOCK: usize = 4096;

/// The block decomposition of one level — Section V: how many of a
/// level's `len` vertices, `k` labels each, one of `threads` workers
/// takes. `len` itself when the level is not worth a fork.
fn block_len(len: usize, k: usize, threads: usize) -> usize {
    if len * k < MIN_BLOCK || threads == 1 {
        len
    } else {
        len.div_ceil(threads).max(MIN_BLOCK / (2 * k))
    }
}

/// The intra-level parallel sweep: `levels` one after the other, each
/// split into blocks across the current rayon pool where [`block_len`]
/// says so, every block through the `level` kernel. Returns the number of
/// blocks executed.
///
/// # Safety
///
/// See [`sweep_range`], with `levels` as the range: consecutive, in sweep
/// order, and no arc of `params` joining two vertices of one level.
pub(crate) unsafe fn sweep_levels(
    level: SimdLevel,
    params: &SweepParams<'_>,
    levels: &[Range<u32>],
) -> u64 {
    let threads = rayon::current_num_threads().max(1);
    let mut blocks_executed: u64 = 0;
    for range in levels {
        let (start, end) = (range.start as usize, range.end as usize);
        let block = block_len(end - start, params.k, threads);
        let count = (end - start).div_ceil(block);
        blocks_executed += count as u64;
        if count == 1 {
            // SAFETY: sequential call, exclusive access to everything.
            unsafe { sweep_range(level, params, start..end) };
            continue;
        }
        (0..count).into_par_iter().for_each(|i| {
            let lo = start + i * block;
            // SAFETY: disjoint vertex blocks within one level, which no
            // arc joins (Lemma 4.1 makes levels independent sets of `G↓`):
            // each block writes only its own label rows and marks and
            // reads only rows of earlier levels, which are complete
            // because the level loop is sequential with a barrier (the
            // parallel iterator joins) between levels.
            unsafe { sweep_range(level, params, lo..(lo + block).min(end)) };
        });
    }
    blocks_executed
}

/// Builds one tree per source across the rayon pool (one engine per worker)
/// and reduces each tree to a summary with `f`, which receives the source
/// and the engine state after its query.
pub fn par_trees<T, F>(p: &Phast, sources: &[Vertex], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Vertex, &mut PhastEngine<'_>) -> T + Sync,
{
    sources
        .par_iter()
        .map_init(
            || p.engine(),
            |engine, &s| {
                engine.distances_sweep(s);
                f(s, engine)
            },
        )
        .collect()
}

/// Like [`par_trees`] but each worker sweeps `k` sources at once
/// (Table II's "16 trees per core per sweep" configuration). `sources` is
/// processed in chunks of `k`; a final short chunk runs as narrow as it is
/// ([`MultiTreeEngine::set_k`]). `f` sees the engine after each batch
/// together with the sources of the batch, one per lane: `engine.k()` is
/// their number and the stride of `engine.labels()`.
pub fn par_multi_trees<T, F>(p: &Phast, k: usize, sources: &[Vertex], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&[Vertex], &MultiTreeEngine<'_>) -> T + Sync,
{
    par_multi_trees_with(p, k, None, sources, f)
}

/// [`par_multi_trees`] with an explicit kernel override (ablation: Table II
/// measures SSE on and off).
pub fn par_multi_trees_with<T, F>(
    p: &Phast,
    k: usize,
    simd: Option<SimdLevel>,
    sources: &[Vertex],
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(&[Vertex], &MultiTreeEngine<'_>) -> T + Sync,
{
    sources
        .par_chunks(k)
        .map_init(
            || {
                let mut e = p.multi_engine(k);
                if let Some(level) = simd {
                    e.force_simd(level);
                }
                e
            },
            |engine, chunk| {
                engine.set_k(chunk.len());
                engine.run(chunk);
                f(chunk, engine)
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_dijkstra::dijkstra::shortest_paths;
    use phast_graph::gen::{Metric, RoadNetworkConfig};
    use phast_graph::INF;

    #[test]
    fn parallel_sweep_matches_sequential() {
        let net = RoadNetworkConfig::new(25, 25, 11, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let mut e = p.engine();
        for s in [0u32, 77, 300] {
            let seq = e.distances(s);
            let par = e.distances_par(s);
            assert_eq!(seq, par, "source {s}");
            assert_eq!(par, shortest_paths(net.graph.forward(), s).dist);
        }
    }

    #[test]
    fn par_trees_summaries() {
        let net = RoadNetworkConfig::new(10, 10, 12, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let sources: Vec<Vertex> = (0..20).collect();
        let eccs = par_trees(&p, &sources, |_, e| {
            e.labels().iter().copied().filter(|&d| d < INF).max().unwrap()
        });
        for (i, &s) in sources.iter().enumerate() {
            let want = shortest_paths(net.graph.forward(), s)
                .dist
                .into_iter()
                .filter(|&d| d < INF)
                .max()
                .unwrap();
            assert_eq!(eccs[i], want);
        }
    }

    /// The one decomposition behind every parallel sweep: a level is
    /// split only from `MIN_BLOCK` labels on and only for more than one
    /// worker, evenly, and never into blocks below half of `MIN_BLOCK`
    /// labels.
    #[test]
    fn block_decomposition_thresholds() {
        for (len, k, threads, want) in [
            (4095, 1, 4, 4095),
            (4096, 1, 4, 2048),
            (100_000, 1, 4, 25_000),
            (100_000, 1, 1, 100_000),
            (255, 16, 4, 255),
            (300, 16, 4, 128),
            (1000, 16, 4, 250),
            (64, 64, 2, 32),
        ] {
            assert_eq!(block_len(len, k, threads), want, "{len} x {k} on {threads}");
        }
    }

    #[test]
    fn four_worker_sweep_matches_the_ambient_pool() {
        let net = RoadNetworkConfig::new(18, 18, 15, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let four = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("thread pool");
        let mut e = p.engine();
        for s in [0u32, 99, 200] {
            let planned = four.install(|| e.distances_par_sweep(s).to_vec());
            assert!(e.stats().counters.blocks_executed >= p.num_levels() as u64);
            let adhoc = e.distances_par_sweep(s).to_vec();
            assert_eq!(planned, adhoc, "source {s}");
            assert_eq!(
                p.labels_to_original(&planned),
                shortest_paths(net.graph.forward(), s).dist
            );
        }
    }

    #[test]
    fn parallel_multi_tree_sweep_matches_sequential() {
        let net = RoadNetworkConfig::new(20, 20, 14, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let sources: Vec<Vertex> = (0..8).map(|i| i * 41 % 390).collect();
        let mut seq = p.multi_engine(8);
        let mut par = p.multi_engine(8);
        seq.run(&sources);
        par.run_par(&sources);
        assert_eq!(seq.labels(), par.labels());
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(
                par.tree_distances(i),
                shortest_paths(net.graph.forward(), s).dist
            );
        }
    }

    #[test]
    fn par_multi_trees_with_ragged_tail() {
        let net = RoadNetworkConfig::new(10, 10, 13, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let sources: Vec<Vertex> = (0..10).collect(); // 10 = 4 + 4 + 2
        let batches = par_multi_trees(&p, 4, &sources, |chunk, e| {
            assert_eq!(e.k(), chunk.len(), "one lane per source");
            assert_eq!(e.labels().len(), p.num_vertices() * chunk.len());
            chunk
                .iter()
                .enumerate()
                .map(|(i, &s)| (s, e.dist_of(i, s)))
                .collect::<Vec<_>>()
        });
        let seen: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(seen, 10);
        for batch in batches {
            for (s, d_self) in batch {
                assert_eq!(d_self, 0, "distance from {s} to itself");
            }
        }
    }
}
