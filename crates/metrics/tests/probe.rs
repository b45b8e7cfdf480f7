//! Scaling probe for the freeze/customize pipeline: closure size, triangle
//! count, phase timings and the freeze's peak memory on the benchmark's
//! Europe-like instance (its graph seed) at 20k / 40k / 100k vertices — the footprint
//! table of DESIGN §14. Ignored by default — run with `cargo test
//! --release -p phast-metrics --test probe -- --ignored --nocapture`
//! (~1 min, ~1 GiB at the largest size).

use phast_ch::{contract_graph, ContractionConfig};
use phast_dijkstra::dijkstra::shortest_paths;
use phast_graph::gen::{Metric, RoadNetworkConfig};
use phast_metrics::{MetricCustomizer, MetricWeights};
use std::time::Instant;

/// A `kB` field of `/proc/self/status` in MiB (0 where there is no procfs).
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|l| {
        l.strip_prefix(field)?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse::<f64>()
            .ok()
    });
    kb.unwrap_or(0.0) / 1024.0
}

/// Median wall time of `reps` runs of `f`, in ms.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[reps / 2]
}

#[test]
#[ignore]
fn probe_scaling() {
    for vertices in [20_000usize, 40_000, 100_000] {
        let g = RoadNetworkConfig::europe_like(vertices, 20110516, Metric::TravelTime)
            .build()
            .graph;
        let t0 = Instant::now();
        let h = contract_graph(&g, &ContractionConfig::default());
        let t_contract = t0.elapsed();

        // Reset the high-water mark so VmHWM is this freeze's own peak
        // (where that is refused it is the process's, still an upper bound
        // because the sizes ascend).
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let before = status_mib("VmRSS:");
        let t0 = Instant::now();
        let c = MetricCustomizer::new(g.clone(), &h).unwrap();
        let t_freeze = t0.elapsed();
        let peak = status_mib("VmHWM:");
        let f = c.frozen();
        eprintln!(
            "n={} ch_shortcuts={} closure_arcs={} fill={} tris={} levels={} contract={:.2?} \
             freeze={:.2?} freeze_peak_rss={:.0}MiB (+{:.0} over {:.0}) frozen={:.1}MiB",
            g.num_vertices(),
            h.num_shortcuts,
            f.num_arcs(),
            f.num_fill_arcs(),
            f.num_triangles(),
            f.num_levels(),
            t_contract,
            t_freeze,
            peak,
            peak - before,
            before,
            f.memory_bytes() as f64 / (1 << 20) as f64,
        );
        let m = MetricWeights::perturbed(&g, "p", 1, 7);
        let customize = median_ms(7, || f.customize(&m).unwrap());
        let cm = f.customize(&m).unwrap();
        let assemble = median_ms(7, || c.assemble(&m, &cm).unwrap());
        // What the serve canary computes beside the customization: the
        // reweighted graph and 8 reference Dijkstra trees.
        let n = g.num_vertices();
        let canary_reference = median_ms(7, || {
            let g2 = m.reweighted(&g);
            let sources = (0..8).map(|i| (i * n / 8) as u32);
            sources
                .map(|s| shortest_paths(g2.forward(), s).dist)
                .collect::<Vec<_>>()
        });
        // FNV-1a over the customized hierarchy: equal across two builds
        // means equal weights and middles in equal CSR order.
        let (_, h2) = c.assemble(&m, &cm).unwrap();
        let mut sum = 0xcbf29ce484222325u64;
        let arcs = h2.forward_up.iter_arcs().chain(h2.backward_up.iter_arcs());
        let middles = h2.forward_middle.iter().chain(&h2.backward_middle);
        for ((v, w, weight), &mid) in arcs.zip(middles) {
            for x in [v, w, weight, mid] {
                sum = (sum ^ x as u64).wrapping_mul(0x100000001b3);
            }
        }
        eprintln!(
            "  customize={customize:.1}ms ({:.2} ns/triangle) assemble={assemble:.1}ms \
             canary_reference={canary_reference:.1}ms checksum={sum:016x}",
            customize * 1e6 / f.num_triangles() as f64
        );
    }
}
