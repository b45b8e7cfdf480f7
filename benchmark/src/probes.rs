//! Layer probes: each layer timed from outside around its public calls, on
//! the workload's own instance, in every traced run. The customizer
//! probes run on a side instance of `rebuild`'s size because the topology
//! freeze does not scale to the serving instances (see the README).
//!
//! Every value is the median over the probe's repetitions; the number of
//! repetitions is stated at each call.

use crate::host;
use crate::instance::{scratch_path, Instance, GRAPH_SEED};
use crate::loadgen::{hetero_query, Issuer, Req};
use crate::oracle::{Oracle, Rng};
use crate::stats::{median, Windows};
use crate::workloads::rebuild::write_weights;
use crate::workloads::serve::{drive, ServiceCounts, MIXED_RATE_PER_CONNECTION, MIXED_SLO_MS};
use crate::workloads::trees_batch::K;
use crate::workloads::{connections, summarize, Kind, Params};
use phast_ch::{contract_graph, ChQuery, ContractionConfig, UpwardSearch};
use phast_core::simd::{best_simd_for, SimdLevel};
use phast_core::{run_hetero_batch, HeteroAnswer, HeteroQuery, RestrictedEngine, SelectionBuilder};
use phast_graph::gen::{Metric, RoadNetworkConfig};
use phast_graph::Vertex;
use phast_metrics::{MetricCustomizer, MetricWeights};
use phast_router::{Router, RouterConfig};
use phast_serve::protocol;
use phast_serve::{
    poll_metric_file, Client, ServeConfig, Server, Service, WatchConfig, WatchReport, WatchState,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Named layer values, in emission order.
pub type Layers = Vec<(String, f64)>;

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut ms: Vec<f64> = (0..reps)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut ms)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn rank(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Scalar => 0,
        SimdLevel::Sse41 => 1,
        SimdLevel::Avx2 => 2,
    }
}

/// Runs every probe.
pub fn run(inst: &Instance, p: &Params) -> Result<Layers, String> {
    let mut out = Layers::new();
    setup_layers(inst, &mut out)?;
    core_layers(inst, p.seed, &mut out);
    serve_layers(inst, p.seed, &mut out)?;
    metric_layers(p, &mut out)?;
    Ok(out)
}

/// What set-up already timed, plus the heap decoder for comparison.
fn setup_layers(inst: &Instance, out: &mut Layers) -> Result<(), String> {
    let t = &inst.times;
    // 3 repetitions.
    let mut failed = None;
    let heap = time_ms(3, |_| {
        if let Err(e) = phast_store::read_instance(&inst.artifact) {
            failed = Some(format!("heap load of {}: {e}", inst.artifact.display()));
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    out.extend([
        ("graph.generate_ms".into(), ms(t.generate)),
        ("dijkstra.tree_ms".into(), ms(t.dijkstra_tree)),
        ("ch.contract_s".into(), t.contract.as_secs_f64()),
        ("ch.shortcuts".into(), inst.phast.num_shortcuts() as f64),
        ("ch.levels".into(), inst.phast.num_levels() as f64),
        ("core.build_ms".into(), ms(t.build)),
        ("store.write_ms".into(), ms(t.write)),
        (
            "store.artifact_mb".into(),
            t.artifact_bytes as f64 / (1 << 20) as f64,
        ),
        ("store.load_mmap_ms".into(), ms(t.load_mmap)),
        ("store.load_heap_ms".into(), heap),
    ]);
    Ok(())
}

/// Upward search, the sweep at k = 1 and k = 16 per kernel, the roofline
/// row, the CH point query, RPHAST selection and sweep, the mixed batch.
fn core_layers(inst: &Instance, seed: u64, out: &mut Layers) {
    let (phast, oracle) = (&inst.phast, &inst.oracle);
    let src = |i: usize| oracle.sources[i % oracle.sources.len()];
    let batch = |i: usize| -> Vec<Vertex> { (0..K).map(|j| src(i * K + j)).collect() };

    // 64 repetitions.
    let mut upward = UpwardSearch::new(&inst.hierarchy);
    let mut space = Vec::new();
    let upward_ms = time_ms(64, |i| upward.run_into(src(i), &mut space));
    // 32 repetitions.
    let mut engine = phast.engine();
    let sweep_1 = time_ms(32, |i| {
        black_box(engine.distances_sweep(src(i)));
    });

    // 8 batches per kernel. A level the CPU lacks runs the best one it has.
    let best = best_simd_for(K);
    let per_tree = |level: SimdLevel, parallel: bool| {
        let mut e = phast.multi_engine(K);
        e.force_simd(if rank(level) <= rank(best) {
            level
        } else {
            best
        });
        time_ms(8, |i| {
            if parallel {
                e.run_par(&batch(i))
            } else {
                e.run(&batch(i))
            }
        }) / K as f64
    };
    let scalar = per_tree(SimdLevel::Scalar, false);
    let sse41 = per_tree(SimdLevel::Sse41, false);
    let avx2 = per_tree(SimdLevel::Avx2, false);
    let par = per_tree(best, true);

    // Bytes one k = 16 sweep moves if every array streams once: `first`,
    // the downward arcs, and the labels read and written. Computed from
    // array sizes, not measured.
    let down = phast.down();
    let bytes_per_tree = (std::mem::size_of_val(down.first())
        + std::mem::size_of_val(down.arcs())
        + 2 * phast.num_vertices() * K * 4) as f64
        / K as f64;
    // Best of 5 passes, measured in the same run as the sweep above.
    let stream = host::stream_probe(5);
    let roofline_ms = bytes_per_tree / (stream.gbps * 1e9) * 1e3;

    // 256 repetitions.
    let mut ch = ChQuery::new(&inst.hierarchy);
    let p2p = time_ms(256, |i| {
        black_box(ch.query(src(i), oracle.targets[i % oracle.targets.len()]));
    });
    // 16 selections of 128 targets, then 64 restricted sweeps on the last.
    let mut rng = Rng::new(seed, 6);
    let mut builder = SelectionBuilder::new(phast);
    let window = |rng: &mut Rng| {
        let off = rng.below(oracle.targets.len() - 127);
        oracle.targets[off..off + 128].to_vec()
    };
    let select = time_ms(16, |_| {
        black_box(builder.build(&window(&mut rng)).len());
    });
    let selection = builder.build(&window(&mut rng));
    let mut restricted = RestrictedEngine::new(phast);
    let rphast_sweep = time_ms(64, |i| {
        black_box(restricted.distances(&selection, src(i)));
    });
    // 8 batches of 16 mixed lane queries (p2p and many, as serve_mixed).
    let mut multi = phast.multi_engine(K);
    let hetero = time_ms(8, |_| {
        let queries: Vec<HeteroQuery> = (0..K).map(|_| lane_query(&mut rng, oracle)).collect();
        black_box(run_hetero_batch(&mut multi, &queries));
    });

    out.extend([
        ("core.upward_us".into(), upward_ms * 1e3),
        ("core.sweep_1_ms".into(), sweep_1),
        (
            "core.speedup_vs_dijkstra".into(),
            ms(inst.times.dijkstra_tree) / sweep_1,
        ),
        ("core.sweep_k16_scalar_ms".into(), scalar),
        ("core.sweep_k16_sse41_ms".into(), sse41),
        ("core.sweep_k16_avx2_ms".into(), avx2),
        ("core.sweep_par_k16_ms".into(), par),
        ("core.down_arcs".into(), down.num_arcs() as f64),
        ("core.sweep_bytes_per_tree".into(), bytes_per_tree),
        ("host.stream_gbps".into(), stream.gbps),
        (
            "host.stream_array_mb".into(),
            stream.array_bytes as f64 / (1 << 20) as f64,
        ),
        (
            "host.stream_leaves_cache_mb".into(),
            stream.cache_bytes as f64 / (1 << 20) as f64,
        ),
        (
            "core.sweep_roofline_share".into(),
            roofline_ms / scalar.min(sse41).min(avx2),
        ),
        ("ch.p2p_query_us".into(), p2p * 1e3),
        ("core.rphast_select_ms".into(), select),
        ("core.rphast_sweep_us".into(), rphast_sweep * 1e3),
        ("core.hetero_batch_ms".into(), hetero),
    ]);
}

fn lane_query(rng: &mut Rng, oracle: &Oracle) -> HeteroQuery {
    loop {
        let req = Req::mixed(rng, oracle);
        if !matches!(req, Req::Matrix { .. }) {
            return hetero_query(&req, oracle);
        }
    }
}

/// Median latency of `n` back-to-back requests through `iss`; an error
/// or a wrong answer fails the probe.
fn roundtrip_ms(
    iss: &mut impl Issuer,
    oracle: &Oracle,
    n: usize,
    mut next: impl FnMut() -> Req,
) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(n);
    for _ in 0..n {
        let req = next();
        let start = Instant::now();
        let answer = iss.issue(&req, oracle, None);
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        if !answer.is_ok_and(|a| req.verify(oracle, &a)) {
            return Err(format!("probe request {req:?} failed or answered wrongly"));
        }
    }
    Ok(median(&mut ms))
}

/// Wire codec, scheduler, TCP hop and router hop, then one second of the
/// `serve_mixed` open loop for the scheduler's counters.
fn serve_layers(inst: &Instance, seed: u64, out: &mut Layers) -> Result<(), String> {
    let oracle = &inst.oracle;
    let mut rng = Rng::new(seed, 7);
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");

    // Codec. 256 repetitions for the small lines, 16 for the tree reply.
    let many = Req::Many { s: 1, off: 0 };
    let line = format!("{{\"id\":7,{}}}", many.body(oracle));
    let parse = time_ms(256, |_| {
        black_box(protocol::parse_request(&line).is_ok());
    });
    let row: Vec<u32> = (0..64).map(|t| oracle.dist(1, t)).collect();
    let small = HeteroAnswer::Many(row);
    let encode_small = time_ms(256, |_| {
        black_box(protocol::encode_answer(Some(7), &small, Some(1)).len());
    });
    let tree = HeteroAnswer::Tree(inst.phast.engine().distances(oracle.sources[0]));
    let mut reply = String::new();
    let encode_tree = time_ms(16, |_| {
        reply = protocol::encode_answer(Some(7), &tree, Some(1))
    });
    let decode_tree = time_ms(16, |_| {
        black_box(protocol::decode_reply(&reply).is_ok());
    });
    let decode_epoch = time_ms(16, |_| {
        black_box(protocol::decode_epoch(&reply));
    });

    // Scheduler, in process. 32 repetitions; 8 for the 16-wide ones.
    let service = Service::new(
        Arc::clone(&inst.phast),
        Some(Arc::clone(&inst.hierarchy)),
        ServeConfig::default(),
    );
    let tree_query = |i: usize| HeteroQuery::Tree {
        source: oracle.sources[i % oracle.sources.len()],
    };
    let mut failed = 0usize;
    let call_tree = time_ms(32, |i| {
        failed += usize::from(service.call(tree_query(i), None).is_err())
    });
    let call_p2p = time_ms(32, |i| {
        let q = hetero_query(
            &Req::P2p {
                s: i % 16,
                t: i % 64,
            },
            oracle,
        );
        failed += usize::from(service.call(q, None).is_err());
    });
    let epoch = service.current_epoch();
    let (run_tree, run_k16) = {
        let mut runner = service.batch_runner(&epoch);
        let one = time_ms(32, |i| {
            black_box(runner.run(&[tree_query(i)]).len());
        });
        let sixteen = time_ms(8, |i| {
            let queries: Vec<HeteroQuery> = (0..K).map(|j| tree_query(i * K + j)).collect();
            black_box(runner.run(&queries).len());
        });
        (one, sixteen)
    };
    let submit16 = time_ms(8, |i| {
        let pending: Vec<_> = (0..K)
            .map(|j| service.submit(tree_query(i * K + j), None))
            .collect();
        for rx in pending {
            failed += usize::from(!matches!(rx.map(|r| r.recv()), Ok(Ok(Ok(_)))));
        }
    });
    if failed > 0 {
        return Err(format!("{failed} in-process probe calls failed"));
    }

    // TCP, direct and through the router. 48 trees and 200 p2p each way.
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0")
        .map_err(|e| io("starting the probe server", e))?;
    let router = Router::spawn(
        RouterConfig {
            backends: vec![server.local_addr()],
            ..RouterConfig::default()
        },
        "127.0.0.1:0",
    )
    .map_err(|e| io("starting the probe router", e))?;
    let mut direct = Client::connect(server.local_addr())
        .map_err(|e| io("connecting to the probe server", e))?;
    let mut routed = Client::connect(router.local_addr())
        .map_err(|e| io("connecting to the probe router", e))?;
    let (ns, nt) = (oracle.sources.len(), oracle.targets.len());
    let mut a_tree = || Req::Tree { s: rng.below(ns) };
    let tcp_tree = roundtrip_ms(&mut direct, oracle, 48, &mut a_tree)?;
    let routed_tree = roundtrip_ms(&mut routed, oracle, 48, &mut a_tree)?;
    let mut a_p2p = || Req::P2p {
        s: rng.below(ns),
        t: rng.below(nt),
    };
    let tcp_p2p = roundtrip_ms(&mut direct, oracle, 200, &mut a_p2p)?;
    let routed_p2p = roundtrip_ms(&mut routed, oracle, 200, &mut a_p2p)?;
    let (failovers, ejections) = (router.stats().failovers(), router.stats().ejections());
    drop(routed);
    router.shutdown();

    // One second of serve_mixed's open loop (after 0.2 s of warm-up).
    let before = ServiceCounts::read(&service);
    let mut clients = (0..connections())
        .map(|_| Client::connect(server.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io("connecting the open-loop probe", e))?;
    let start = Instant::now();
    let windows = Windows::new(
        start + Duration::from_millis(200),
        Duration::from_millis(200),
        5,
    );
    let period = Duration::from_secs_f64(1.0 / MIXED_RATE_PER_CONNECTION);
    let samples = drive(
        &mut clients,
        oracle,
        seed,
        Kind::ServeMixed,
        Some(period),
        start,
        &windows,
    );
    let mixed = summarize(&samples, &windows, Some(MIXED_SLO_MS))?;
    if mixed.failed > 0 {
        return Err(format!(
            "{} of {} open-loop probe requests failed",
            mixed.failed, mixed.attempted
        ));
    }
    let counts = before.delta(&ServiceCounts::read(&service));
    drop(clients);
    drop(direct);
    server.shutdown();
    service.shutdown();

    out.extend([
        ("serve.parse_request_us".into(), parse * 1e3),
        ("serve.encode_small_us".into(), encode_small * 1e3),
        ("serve.encode_tree_ms".into(), encode_tree),
        ("serve.decode_tree_ms".into(), decode_tree),
        ("serve.decode_epoch_tree_ms".into(), decode_epoch),
        ("serve.tree_reply_bytes".into(), reply.len() as f64),
        ("serve.call_tree_ms".into(), call_tree),
        ("serve.call_p2p_ms".into(), call_p2p),
        ("serve.queue_wait_ms".into(), call_tree - run_tree),
        ("serve.batch_run_k16_ms".into(), run_k16),
        ("serve.submit16_ms".into(), submit16),
        ("serve.tcp_tree_ms".into(), tcp_tree),
        (
            "serve.tcp_hop_tree_ms".into(),
            tcp_tree - call_tree - encode_tree - decode_tree - decode_epoch,
        ),
        ("serve.tcp_p2p_ms".into(), tcp_p2p),
        ("router.hop_tree_ms".into(), routed_tree - tcp_tree),
        ("router.hop_p2p_ms".into(), routed_p2p - tcp_p2p),
        ("router.failovers".into(), failovers as f64),
        ("router.ejections".into(), ejections as f64),
        ("client.p99_ms".into(), mixed.p99_ms),
        ("loadgen.late_p99_ms".into(), mixed.late_p99_ms),
        ("loadgen.slo_share".into(), mixed.good_share),
    ]);
    out.extend(counts);
    Ok(())
}

/// Freeze, customize, guarded publish, epoch swap and the first reply on
/// the new epoch, on a side instance of `rebuild`'s size.
fn metric_layers(p: &Params, out: &mut Layers) -> Result<(), String> {
    let graph = RoadNetworkConfig::europe_like(
        Kind::Rebuild.vertices(p.smoke),
        GRAPH_SEED,
        Metric::TravelTime,
    )
    .build()
    .graph;
    let hierarchy = contract_graph(&graph, &ContractionConfig::default());
    let phast = phast_core::PhastBuilder::new().build_with_hierarchy(&graph, &hierarchy);

    let before_mb = host::rss_mb();
    let reset = host::reset_peak_rss();
    let start = Instant::now();
    let customizer = MetricCustomizer::new(graph.clone(), &hierarchy)?;
    let freeze = start.elapsed();
    // With the watermark reset, the peak is the freeze's own; without,
    // only a peak above the earlier one shows.
    let freeze_mb = (host::peak_rss_mb() - before_mb).max(0.0);
    if !reset {
        eprintln!(
            "note: /proc/self/clear_refs is not writable; metrics.freeze_rss_mb is a lower bound"
        );
    }

    let perturbed =
        |version: u64| MetricWeights::perturbed(&graph, "probe", version, p.seed ^ version);
    // 3 repetitions each.
    let mut built = Vec::new();
    let mut failed = None;
    let customize = time_ms(3, |i| match customizer.build(&perturbed(100 + i as u64)) {
        Ok(pair) => built.push(pair),
        Err(e) => failed = Some(e),
    });
    if let Some(e) = failed {
        return Err(format!("customizing a perturbed metric: {e}"));
    }

    let service = Service::new(
        Arc::new(phast),
        Some(Arc::new(hierarchy)),
        ServeConfig::default(),
    );
    let weights = scratch_path("probe-weights", "json");
    let mut state = WatchState::default();
    let mut rejected = None;
    let poll_publish = time_ms(3, |i| {
        let written = write_weights(&weights, &perturbed(200 + i as u64));
        let report = poll_metric_file(
            &service,
            &customizer,
            &weights,
            &WatchConfig::default(),
            &mut state,
        );
        if written.is_err() || !matches!(report, WatchReport::Swapped { .. }) {
            rejected = Some(format!("{written:?} / {report:?}"));
        }
    });
    let _ = std::fs::remove_file(&weights);
    if let Some(r) = rejected {
        return Err(format!("the guarded publish probe was not published: {r}"));
    }

    let mut first_reply = Vec::new();
    let mut swap_us = Vec::new();
    for (phast, hierarchy) in built {
        let (phast, hierarchy) = (Arc::new(phast), Arc::new(hierarchy));
        let start = Instant::now();
        let epoch = service
            .swap_epoch(phast, Some(hierarchy))
            .map_err(|e| format!("swap_epoch: {e}"))?;
        let swapped = Instant::now();
        let (_, answered_on) = service
            .call_with_epoch(
                HeteroQuery::Point {
                    source: 0,
                    target: 1,
                },
                None,
            )
            .map_err(|e| format!("first call after the swap: {e}"))?;
        if answered_on != epoch {
            return Err(format!(
                "a call admitted after swap_epoch ran on epoch {answered_on}, not {epoch}"
            ));
        }
        swap_us.push((swapped - start).as_secs_f64() * 1e6);
        first_reply.push(swapped.elapsed().as_secs_f64() * 1e3);
    }
    service.shutdown();

    out.extend([
        ("metrics.freeze_s".into(), freeze.as_secs_f64()),
        ("metrics.freeze_rss_mb".into(), freeze_mb),
        ("metrics.customize_ms".into(), customize),
        ("serve.poll_publish_ms".into(), poll_publish),
        ("serve.swap_epoch_us".into(), median(&mut swap_us)),
        (
            "serve.first_reply_new_epoch_ms".into(),
            median(&mut first_reply),
        ),
    ]);
    Ok(())
}
