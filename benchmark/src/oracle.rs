//! The reference every answer is checked against: plain Dijkstra on the
//! input graph, reduced to one checksum per pool source (full trees) and
//! an S×T distance table over the target pool (p2p / many / matrix).

use phast_dijkstra::Dijkstra;
use phast_graph::{Csr, Vertex, Weight};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only random source, seeded from `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that pools, op
    /// order and metric perturbations do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `count` distinct vertices of `0..n`, in draw order.
pub fn sample_distinct(rng: &mut Rng, n: usize, count: usize) -> Vec<Vertex> {
    let count = count.min(n);
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.below(n) as Vertex;
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

/// Order-dependent checksum of a distance array in original vertex order.
pub fn checksum(dist: impl IntoIterator<Item = Weight>) -> u64 {
    dist.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, d| {
        (h ^ u64::from(d)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Reference answers for one metric over a source pool and a target pool.
pub struct Oracle {
    /// Source pool (original vertex ids).
    pub sources: Vec<Vertex>,
    /// Target pool (distinct original vertex ids).
    pub targets: Vec<Vertex>,
    checksums: Vec<u64>,
    table: Vec<Weight>,
}

impl Oracle {
    /// Runs one Dijkstra per pool source on `threads` threads. Also
    /// returns the median time of one single-threaded tree.
    pub fn build(
        graph: &Csr,
        sources: Vec<Vertex>,
        targets: Vec<Vertex>,
        threads: usize,
    ) -> (Oracle, Duration) {
        let chunk = sources.len().div_ceil(threads.max(1)).max(1);
        let rows: Vec<(u64, Vec<Weight>, Duration)> = std::thread::scope(|scope| {
            let handles: Vec<_> = sources
                .chunks(chunk)
                .map(|part| {
                    let targets = &targets;
                    scope.spawn(move || {
                        let mut dijkstra: Dijkstra = Dijkstra::new(graph);
                        part.iter()
                            .map(|&s| {
                                let start = Instant::now();
                                let (dist, _, _) = dijkstra.run_in_place(s);
                                let took = start.elapsed();
                                let row = targets.iter().map(|&t| dist[t as usize]).collect();
                                (checksum(dist.iter().copied()), row, took)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        let mut times: Vec<Duration> = rows.iter().map(|r| r.2).collect();
        times.sort();
        let per_tree = times.get(times.len() / 2).copied().unwrap_or_default();
        let mut checksums = Vec::with_capacity(rows.len());
        let mut table = Vec::with_capacity(rows.len() * targets.len());
        for (sum, row, _) in rows {
            checksums.push(sum);
            table.extend(row);
        }
        (
            Oracle {
                sources,
                targets,
                checksums,
                table,
            },
            per_tree,
        )
    }

    /// Reference distance from pool source `si` to pool target `ti`.
    pub fn dist(&self, si: usize, ti: usize) -> Weight {
        self.table[si * self.targets.len() + ti]
    }

    /// Whether `dist` (original vertex order) is the tree of pool source `si`.
    pub fn tree_ok(&self, si: usize, dist: impl IntoIterator<Item = Weight>) -> bool {
        checksum(dist) == self.checksums[si]
    }

    /// Whether `got` holds the distances from pool source `si` to the pool
    /// targets `tis`, in order.
    pub fn row_ok(
        &self,
        si: usize,
        tis: impl ExactSizeIterator<Item = usize>,
        got: &[Weight],
    ) -> bool {
        tis.len() == got.len() && tis.zip(got).all(|(ti, &d)| self.dist(si, ti) == d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_graph::gen::{Metric, RoadNetworkConfig};

    #[test]
    fn same_seed_same_pools_and_distinct_targets() {
        let a = sample_distinct(&mut Rng::new(7, 1), 1000, 64);
        let b = sample_distinct(&mut Rng::new(7, 1), 1000, 64);
        let c = sample_distinct(&mut Rng::new(8, 1), 1000, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 64);
        assert_eq!(sample_distinct(&mut Rng::new(1, 1), 5, 64).len(), 5);
    }

    #[test]
    fn oracle_accepts_dijkstra_and_rejects_a_single_wrong_label() {
        let net = RoadNetworkConfig::new(12, 12, 3, Metric::TravelTime).build();
        let g = net.graph.forward();
        let n = g.num_vertices();
        let mut rng = Rng::new(3, 0);
        let sources = sample_distinct(&mut rng, n, 5);
        let targets = sample_distinct(&mut rng, n, 9);
        let (oracle, _) = Oracle::build(g, sources.clone(), targets.clone(), 2);
        for (si, &s) in sources.iter().enumerate() {
            let want = phast_dijkstra::dijkstra::shortest_paths(g, s).dist;
            assert!(oracle.tree_ok(si, want.iter().copied()));
            let mut wrong = want.clone();
            wrong[n / 2] ^= 1;
            assert!(!oracle.tree_ok(si, wrong));
            let row: Vec<Weight> = targets.iter().map(|&t| want[t as usize]).collect();
            assert!(oracle.row_ok(si, 0..targets.len(), &row));
            assert!(!oracle.row_ok(si, 0..targets.len() - 1, &row));
            assert_eq!(oracle.dist(si, 3), want[targets[3] as usize]);
        }
    }
}
