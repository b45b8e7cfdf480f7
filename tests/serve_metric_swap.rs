//! Live metric hot-swap over TCP (ISSUE acceptance bar): while a burst of
//! concurrent clients hammers the server, the metric is swapped twice via
//! [`Service::swap_epoch`]. Every reply carries the epoch it was answered
//! under, and every reply must match the scalar-Dijkstra oracle *of that
//! epoch's metric* — zero wrong replies across the swap boundary, with
//! requests admitted before a swap completing on their admission metric
//! (DESIGN.md §14).

use phast::ch::{contract_graph, ContractionConfig};
use phast::dijkstra::dijkstra::shortest_paths;
use phast::graph::gen::{Metric, RoadNetworkConfig};
use phast::graph::Graph;
use phast::metrics::{MetricCustomizer, MetricWeights};
use phast::serve::{Client, ClientConfig, MetricWatcher, ServeConfig, Server, Service};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Distance tables for the burst's fixed sources, one per metric epoch:
/// index 0 = base metric (epoch 1), index k = variant k (epoch k + 1 —
/// the test swaps each variant exactly once, in order).
fn oracle(g: &Graph, sources: &[u32]) -> Vec<Vec<u32>> {
    sources
        .iter()
        .map(|&s| shortest_paths(g.forward(), s).dist)
        .collect()
}

#[test]
fn hot_swap_under_tcp_burst_yields_zero_wrong_replies() {
    let net = RoadNetworkConfig::new(10, 10, 21, Metric::TravelTime).build();
    let g = net.graph;
    let h = contract_graph(&g, &ContractionConfig::default());
    let customizer = MetricCustomizer::new(g.clone(), &h).expect("freeze");

    let sources: Vec<u32> = vec![0, 17, 33, 64, 99];
    let mut tables = vec![oracle(&g, &sources)];
    let mut variants = Vec::new();
    for v in 1..=2u64 {
        let m = MetricWeights::perturbed(&g, "swap-burst", v, v * 0x9E37);
        tables.push(oracle(&m.reweighted(&g), &sources));
        let (p, ch) = customizer.build(&m).expect("customize");
        variants.push((Arc::new(p), Arc::new(ch)));
    }
    let tables = Arc::new(tables);

    let service = Service::for_graph(
        &g,
        ServeConfig {
            window: Duration::from_millis(1),
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for c in 0..3usize {
        let (addr, stop, tables, sources) =
            (addr.clone(), Arc::clone(&stop), Arc::clone(&tables), sources.clone());
        clients.push(std::thread::spawn(move || {
            let mut client =
                Client::connect_with(&addr, ClientConfig::retrying(4)).expect("connect");
            let (mut ok, mut wrong, mut epochs_seen) = (0u64, Vec::new(), Vec::new());
            let mut turn = c as u64;
            while !stop.load(Ordering::SeqCst) {
                let si = (turn as usize) % sources.len();
                let source = sources[si];
                let got = match client.tree(source, Some(3_000)) {
                    Ok(d) => d,
                    // Transient transport noise is not what this test is
                    // about; wrong *answers* are.
                    Err(_) => continue,
                };
                let epoch = client.last_epoch().expect("replies carry an epoch stamp");
                epochs_seen.push(epoch);
                let want = &tables[(epoch as usize - 1).min(tables.len() - 1)][si];
                if &got == want {
                    ok += 1;
                } else {
                    wrong.push((source, epoch));
                }
                turn += 1;
            }
            (ok, wrong, epochs_seen)
        }));
    }

    // Two swaps mid-burst, spaced so traffic straddles both boundaries.
    std::thread::sleep(Duration::from_millis(250));
    for (p, ch) in &variants {
        let epoch = service
            .swap_epoch(Arc::clone(p), Some(Arc::clone(ch)))
            .expect("swap");
        assert!(epoch >= 2);
        std::thread::sleep(Duration::from_millis(250));
    }
    stop.store(true, Ordering::SeqCst);

    let mut total_ok = 0u64;
    let mut all_epochs = Vec::new();
    for t in clients {
        let (ok, wrong, epochs) = t.join().expect("client thread");
        assert!(wrong.is_empty(), "wrong replies across the swap: {wrong:?}");
        total_ok += ok;
        all_epochs.extend(epochs);
    }
    assert!(total_ok > 0, "the burst must land some replies");
    assert!(
        all_epochs.contains(&1) && all_epochs.contains(&3),
        "traffic must span the swaps (epochs seen: {all_epochs:?})"
    );
    assert_eq!(service.stats().metric_swaps(), 2);

    server.shutdown();
    service.shutdown();
}

#[test]
fn file_watcher_swaps_a_served_metric_end_to_end() {
    let net = RoadNetworkConfig::new(7, 7, 3, Metric::TravelDistance).build();
    let g = net.graph;
    let h = contract_graph(&g, &ContractionConfig::default());
    let customizer = Arc::new(MetricCustomizer::new(g.clone(), &h).expect("freeze"));

    let service = Service::for_graph(&g, ServeConfig::default());
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    let path = std::env::temp_dir().join(format!(
        "phast-swap-e2e-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut watcher = MetricWatcher::spawn(
        Arc::clone(&service),
        customizer,
        path.clone(),
        Duration::from_millis(10),
    );

    let m = MetricWeights::perturbed(&g, "dropped-in", 4, 0xFACE);
    let want = shortest_paths(m.reweighted(&g).forward(), 11).dist;
    std::fs::write(&path, serde_json::to_string(&m).unwrap()).unwrap();

    let t0 = std::time::Instant::now();
    while service.epoch_id() < 2 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(service.epoch_id(), 2, "watcher must publish the metric");

    let mut client = Client::connect(&addr).expect("connect");
    let got = client.tree(11, None).expect("tree");
    assert_eq!(client.last_epoch(), Some(2));
    assert_eq!(got, want, "served tree must match the new metric's oracle");

    watcher.shutdown();
    let _ = std::fs::remove_file(&path);
    server.shutdown();
    service.shutdown();
}

/// The guarded-rollout acceptance bar over live TCP: with the
/// `PHAST_CANARY_FAULT` seam arming a poisoned metric, the watcher's
/// canary must quarantine it before publish — the serving epoch never
/// moves, not one live reply is answered under it, and an honest metric
/// still rolls out afterwards.
#[test]
fn watcher_canary_blocks_a_poisoned_metric_on_the_live_server() {
    // Keyed on the metric *name*, so concurrent tests in this binary
    // (different names) are untouched.
    std::env::set_var(phast::metrics::CANARY_FAULT_ENV, "wire-poison");

    let net = RoadNetworkConfig::new(7, 7, 5, Metric::TravelTime).build();
    let g = net.graph;
    let h = contract_graph(&g, &ContractionConfig::default());
    let customizer = Arc::new(MetricCustomizer::new(g.clone(), &h).expect("freeze"));

    let service = Service::for_graph(&g, ServeConfig::default());
    let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    let path = std::env::temp_dir().join(format!(
        "phast-canary-e2e-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut watcher = MetricWatcher::spawn(
        Arc::clone(&service),
        Arc::clone(&customizer),
        path.clone(),
        Duration::from_millis(10),
    );
    let wait = |what: &str, cond: &dyn Fn() -> bool| {
        let t0 = std::time::Instant::now();
        while !cond() && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(cond(), "timed out waiting for {what}");
    };

    // Honest publish first: the canary must pass honest metrics through.
    let honest = MetricWeights::perturbed(&g, "wire-honest", 1, 0xE11);
    let honest_tree = shortest_paths(honest.reweighted(&g).forward(), 9).dist;
    std::fs::write(&path, serde_json::to_string(&honest).unwrap()).unwrap();
    wait("honest publish", &|| service.epoch_id() >= 2);
    assert_eq!(service.epoch_id(), 2);

    // The poisoned drop: honest on disk, corrupted inside the customizer.
    let poison = MetricWeights::perturbed(&g, "wire-poison", 1, 0xBAD);
    std::fs::write(&path, serde_json::to_string(&poison).unwrap()).unwrap();
    wait("canary rejection", &|| {
        service.stats().canary_failures() >= 1
    });
    assert_eq!(
        service.epoch_id(),
        2,
        "a canary-rejected metric must never publish"
    );
    assert_eq!(service.stats().quarantined_metrics(), 1);

    // Live replies still come from the honest epoch, bit-exact.
    let mut client = Client::connect(&addr).expect("connect");
    let got = client.tree(9, None).expect("tree");
    assert_eq!(client.last_epoch(), Some(2), "replies stay on the honest epoch");
    assert_eq!(got, honest_tree, "not one reply may reflect the poisoned metric");

    // A quarantine is not a lockout: the next honest metric rolls out.
    let honest2 = MetricWeights::perturbed(&g, "wire-honest", 2, 0xE12);
    let honest2_tree = shortest_paths(honest2.reweighted(&g).forward(), 9).dist;
    std::fs::write(&path, serde_json::to_string(&honest2).unwrap()).unwrap();
    wait("post-quarantine honest publish", &|| service.epoch_id() >= 3);
    let got = client.tree(9, None).expect("tree");
    assert_eq!(client.last_epoch(), Some(3));
    assert_eq!(got, honest2_tree);

    std::env::remove_var(phast::metrics::CANARY_FAULT_ENV);
    watcher.shutdown();
    let _ = std::fs::remove_file(&path);
    server.shutdown();
    service.shutdown();
}
