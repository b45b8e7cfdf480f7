//! Determinism: equal seeds must reproduce every stage bit-for-bit, so
//! experiments are repeatable.

use phast::core::Phast;
use phast::gpu::{DeviceProfile, Gphast};
use phast::graph::gen::{Metric, RoadNetworkConfig};

fn build() -> (phast::graph::Graph, Phast) {
    let net = RoadNetworkConfig::new(15, 15, 999, Metric::TravelTime).build();
    let p = Phast::preprocess(&net.graph);
    (net.graph, p)
}

#[test]
fn preprocessing_is_deterministic() {
    let (g1, p1) = build();
    let (g2, p2) = build();
    assert_eq!(g1.forward(), g2.forward());
    assert_eq!(p1.num_shortcuts(), p2.num_shortcuts());
    assert_eq!(p1.num_levels(), p2.num_levels());
    assert_eq!(p1.level_histogram(), p2.level_histogram());
    assert_eq!(p1.permutation().as_slice(), p2.permutation().as_slice());
    assert_eq!(p1.up().arcs(), p2.up().arcs());
    assert_eq!(p1.down().arcs(), p2.down().arcs());
}

#[test]
fn query_results_are_deterministic() {
    let (_, p1) = build();
    let (_, p2) = build();
    let mut e1 = p1.engine();
    let mut e2 = p2.engine();
    for s in [0u32, 7, 100] {
        assert_eq!(e1.distances(s), e2.distances(s));
    }
}

#[test]
fn parallel_sweep_is_bit_identical_across_thread_counts() {
    // The intra-level parallel sweep partitions each level into blocks,
    // but every vertex label still depends only on higher levels, so the
    // result must be bit-for-bit the sequential sweep's — for any thread
    // count, including the degenerate single-thread pool.
    let (_, p) = build();
    let mut e = p.engine();
    let n = p.num_vertices() as u32;
    for s in [0u32, 31, n - 1] {
        let seq = e.distances_sweep(s).to_vec();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            let par = pool.install(|| e.distances_par_sweep(s).to_vec());
            assert_eq!(par, seq, "threads {threads}, source {s}");
        }
        // On the ambient pool it must agree too (this entry point returns
        // original vertex order, so compare against `distances`).
        assert_eq!(e.distances_par(s), e.distances(s), "auto plan, source {s}");
    }
}

#[test]
fn gphast_cost_model_is_deterministic() {
    let (_, p) = build();
    let mut a = Gphast::new(&p, DeviceProfile::gtx_580(), 4).unwrap();
    let mut b = Gphast::new(&p, DeviceProfile::gtx_580(), 4).unwrap();
    let sa = a.run(&[0, 1, 2, 3]);
    let sb = b.run(&[0, 1, 2, 3]);
    assert_eq!(sa.batch_time, sb.batch_time);
    assert_eq!(sa.dram_transactions, sb.dram_transactions);
    assert_eq!(sa.kernel_launches, sb.kernel_launches);
    assert_eq!(a.labels(), b.labels());
}
