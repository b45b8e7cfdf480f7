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

use crate::simd::{sweep_range, Block, InOrder, SimdLevel, SweepParams};
use crate::sweep::PhastEngine;
use crate::{MultiTreeEngine, Phast};
use phast_graph::Vertex;
use rayon::prelude::*;

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

/// Labels below which a level is not worth a kernel call of its own in a
/// sequential sweep: it joins the next big level's in-order run (the rank
/// order's "levels" are runs of a few rows).
const MIN_LEVEL: usize = 512;

/// The sweep of a full view, level by level (Section V). `dist`, `marked`
/// and `parent` (empty, or one per row at `k = 1`) are the view's.
/// Sequentially, every level of [`MIN_LEVEL`] labels or more is one block,
/// after the smaller levels before it in one in-order run. With `par`
/// (and no parents) every level is split into blocks across the current
/// rayon pool where [`block_len`] says so. Every call runs the `level`
/// kernel. Returns the blocks executed: one per level when sequential.
///
/// A level splits `dist` at its start: the earlier levels' rows are
/// shared, read-only, by every block, and the level's rows and marks go
/// out as disjoint chunks — the borrow checker's proof of what Lemma 4.1
/// makes true, that no arc joins two vertices of one level.
pub(crate) fn sweep_levels(
    level: SimdLevel,
    (p, k): (&Phast, usize),
    (dist, marked, parent): (&mut [u32], &mut [u8], &mut [u32]),
    par: bool,
) -> u64 {
    assert!(!par || parent.is_empty(), "parents are swept sequentially");
    let params = &SweepParams::full(p, k);
    // Sequentially one block per level; with `par` counted as they go.
    let mut blocks_executed = if par { 0 } else { p.num_levels() as u64 };
    let mut swept = 0;
    for (l, range) in p.level_ranges().iter().enumerate() {
        let (start, end) = (range.start as usize, range.end as usize);
        if !par && (end - start) * k < MIN_LEVEL && end < p.num_vertices() {
            continue;
        }
        let run = parent.get_mut(swept..start).unwrap_or_default();
        let rows = InOrder(&mut dist[..start * k], swept);
        sweep_range(level, params, rows, &mut marked[swept..start], run);
        swept = end;
        let (done, rest) = dist.split_at_mut(start * k);
        let (done, rows) = (&*done, &mut rest[..(end - start) * k]);
        let marked = &mut marked[start..end];
        if !par {
            let parent = parent.get_mut(start..end).unwrap_or_default();
            sweep_range(level, params, Block(done, rows, start, l), marked, parent);
            continue;
        }
        let block = block_len(end - start, k, rayon::current_num_threads().max(1));
        blocks_executed += (end - start).div_ceil(block) as u64;
        rows.par_chunks_mut(block * k)
            .zip(marked.par_chunks_mut(block))
            .enumerate()
            .for_each(|(i, (rows, marked))| {
                let rows = Block(done, rows, start + i * block, l);
                sweep_range(level, params, rows, marked, &mut []);
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

    /// On a network whose lowest level is big enough to split, so that
    /// the four workers really share levels.
    #[test]
    fn four_worker_sweep_matches_the_ambient_pool() {
        let net = RoadNetworkConfig::new(130, 130, 15, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let four = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("thread pool");
        let mut e = p.engine();
        for s in [0u32, 99, 200] {
            let planned = four.install(|| e.distances_par_sweep(s).to_vec());
            assert!(e.stats().counters.blocks_executed > p.num_levels() as u64);
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
