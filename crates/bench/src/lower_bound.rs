//! The memory-bandwidth lower-bound test of Section VIII-B.
//!
//! "To determine the memory bandwidth of the system, we sequentially and
//! independently read from all arrays (`first`, `arclist`, and the distance
//! array) and then write a value to each entry of the distance array. [...]
//! PHAST is only 2.6 times slower than this." A second, harder bound
//! traverses the graph exactly as PHAST does but only sums arc lengths —
//! isolating the cost of the irregular reads of `d(u)`.

use phast_core::Phast;
use phast_graph::Weight;
use std::time::Duration;

/// Results of the two bounds, for one pass over the sweep data.
#[derive(Clone, Copy, Debug)]
pub struct LowerBound {
    /// Pure sequential scan of `first` + `arclist` + read/write of the
    /// distance array.
    pub sequential_scan: Duration,
    /// PHAST-shaped traversal storing the sum of incoming arc lengths
    /// (everything but the `d(u)` gather).
    pub traversal_sum: Duration,
    /// Bytes touched by the sequential scan.
    pub bytes: usize,
}

impl LowerBound {
    /// Effective bandwidth of the sequential scan in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        self.bytes as f64 / self.sequential_scan.as_secs_f64() / 1e9
    }
}

/// Runs both bounds over the instance's sweep arrays. `dist` holds the
/// labels of one sweep: `k >= 1` per vertex, so the bound is that of a
/// `k`-tree sweep.
pub fn measure(p: &Phast, dist: &mut [Weight]) -> LowerBound {
    let first = p.down().first();
    let arcs = p.down().arcs();
    let n = p.num_vertices();
    assert!(
        !dist.is_empty() && dist.len().is_multiple_of(n),
        "dist must hold k >= 1 labels per vertex"
    );
    let k = dist.len() / n;

    // Bound 1: sequential, independent scans.
    let start = std::time::Instant::now();
    let mut acc = 0u64;
    for &f in first {
        acc = acc.wrapping_add(f as u64);
    }
    for a in arcs {
        acc = acc.wrapping_add(a.tail as u64).wrapping_add(a.weight as u64);
    }
    for d in dist.iter() {
        acc = acc.wrapping_add(*d as u64);
    }
    for d in dist.iter_mut() {
        *d = acc as u32;
    }
    let sequential_scan = start.elapsed();
    std::hint::black_box(acc);

    // Bound 2: the PHAST loop structure, but d(v) = sum of incoming arc
    // lengths (no dependence on d(u), so no irregular reads).
    let start = std::time::Instant::now();
    for (v, row) in dist.chunks_exact_mut(k).enumerate() {
        let mut sum = 0u32;
        for a in &arcs[first[v] as usize..first[v + 1] as usize] {
            sum = sum.wrapping_add(a.weight);
        }
        row.fill(sum);
    }
    let traversal_sum = start.elapsed();
    std::hint::black_box(&dist);

    LowerBound {
        sequential_scan,
        traversal_sum,
        bytes: std::mem::size_of_val(first)
            + std::mem::size_of_val(arcs)
            + 2 * std::mem::size_of_val(dist),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_graph::gen::{Metric, RoadNetworkConfig};

    #[test]
    fn bounds_are_positive_and_ordered_sanely() {
        let net = RoadNetworkConfig::new(40, 40, 3, Metric::TravelTime).build();
        let p = Phast::preprocess(&net.graph);
        let mut dist = vec![0u32; p.num_vertices()];
        let lb = measure(&p, &mut dist);
        assert!(lb.sequential_scan > Duration::ZERO);
        assert!(lb.traversal_sum > Duration::ZERO);
        assert!(lb.bytes > 0);
        assert!(lb.bandwidth_gbps() > 0.0);
    }
}
