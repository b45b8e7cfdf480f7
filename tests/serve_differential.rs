//! Differential test for the `phast-serve` batching service: answers
//! produced over TCP under concurrent mixed load — where requests get
//! batched into shared k-tree sweeps, padded, or degraded to scalar /
//! bidirectional-CH rungs — must be bit-identical to direct engine calls.
//!
//! This is the scheduler's core guarantee (DESIGN.md §9): batching is a
//! throughput optimization, invisible in the answers.

use phast::dijkstra::dijkstra::shortest_paths;
use phast::graph::gen::{adversarial, Metric, RoadNetworkConfig};
use phast::graph::{Vertex, Weight, INF};
use phast::serve::{Client, ServeConfig, Server, Service};
use phast_router::{Router, RouterConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;

/// One recorded exchange: what was asked, what the server answered.
enum Exchange {
    Tree { source: Vertex, dist: Vec<Weight> },
    Many { source: Vertex, targets: Vec<Vertex>, dist: Vec<Weight> },
    P2p { source: Vertex, target: Vertex, dist: Weight },
}

fn drive_clients(
    addr: std::net::SocketAddr,
    n: u32,
    clients: usize,
    requests: usize,
    seed: u64,
) -> Vec<Exchange> {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (c as u64) << 17);
                let mut client = Client::connect(addr).expect("connect");
                let mut log = Vec::new();
                for _ in 0..requests {
                    let source = rng.random_range(0..n);
                    match rng.random_range(0..3u32) {
                        0 => {
                            let dist = client.tree(source, None).expect("tree");
                            log.push(Exchange::Tree { source, dist });
                        }
                        1 => {
                            let targets: Vec<Vertex> = (0..rng.random_range(1..6usize))
                                .map(|_| rng.random_range(0..n))
                                .collect();
                            let dist =
                                client.many(source, &targets, None).expect("many");
                            log.push(Exchange::Many { source, targets, dist });
                        }
                        _ => {
                            let target = rng.random_range(0..n);
                            let dist = client.p2p(source, target, None).expect("p2p");
                            log.push(Exchange::P2p { source, target, dist });
                        }
                    }
                }
                log
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect()
}

#[test]
fn concurrent_batched_answers_match_direct_engine_calls() {
    let net = RoadNetworkConfig::new(28, 28, 97, Metric::TravelTime).build();
    let n = net.graph.num_vertices() as u32;

    // Exercise several scheduler shapes: different batch widths and
    // windows route the same queries down different ladder rungs.
    let cells = [
        (4usize, Duration::from_millis(1)),
        (8, Duration::from_millis(3)),
        (16, Duration::from_millis(0)),
    ];
    let mut exchanges = Vec::new();
    for (i, (max_k, window)) in cells.into_iter().enumerate() {
        let service = Service::for_graph(
            &net.graph,
            ServeConfig {
                max_k,
                window,
                ..ServeConfig::default()
            },
        );
        let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let log = drive_clients(server.local_addr(), n, 6, 10, 0xC0FFEE + i as u64);
        server.shutdown();
        assert_eq!(log.len(), 60, "every request answered");
        exchanges.extend(log);
    }

    // Reference: direct single-tree engine calls on the same instance.
    let p = phast::core::Phast::preprocess(&net.graph);
    let mut engine = p.engine();
    for ex in &exchanges {
        match ex {
            Exchange::Tree { source, dist } => {
                assert_eq!(
                    *dist,
                    engine.distances(*source),
                    "tree from {source} diverged"
                );
            }
            Exchange::Many { source, targets, dist } => {
                let full = engine.distances(*source);
                let expect: Vec<Weight> =
                    targets.iter().map(|&t| full[t as usize]).collect();
                assert_eq!(dist, &expect, "one-to-many from {source} diverged");
            }
            Exchange::P2p { source, target, dist } => {
                let full = engine.distances(*source);
                assert_eq!(
                    *dist, full[*target as usize],
                    "p2p {source}->{target} diverged"
                );
            }
        }
    }

    // The mix really was heterogeneous: all three shapes occurred.
    let trees = exchanges.iter().filter(|e| matches!(e, Exchange::Tree { .. })).count();
    let manys = exchanges.iter().filter(|e| matches!(e, Exchange::Many { .. })).count();
    let p2ps = exchanges.iter().filter(|e| matches!(e, Exchange::P2p { .. })).count();
    assert!(trees > 0 && manys > 0 && p2ps > 0, "{trees}/{manys}/{p2ps}");
}

/// A tree crosses every hop packed (base64 of little-endian words): the
/// server encodes, the router validates without storing, the client
/// decodes. On the adversarial corpus — zero weights, parallel arcs,
/// self-loops and an island that gives `INF` labels — and at vertex counts
/// of every padding class, what arrives is Dijkstra's tree.
#[test]
fn packed_trees_through_client_router_server_equal_dijkstra() {
    let mut classes = [false; 3];
    for (w, h) in [(9, 9), (9, 10), (10, 11)] {
        let graph = adversarial(&RoadNetworkConfig::new(w, h, 5, Metric::TravelTime).build().graph);
        let n = graph.num_vertices() as Vertex;
        classes[n as usize % 3] = true;
        let service = Service::for_graph(&graph, ServeConfig::default());
        let server = Server::spawn(service, "127.0.0.1:0").expect("bind");
        let router = Router::spawn(
            RouterConfig {
                backends: vec![server.local_addr()],
                ..RouterConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("router bind");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        // Base vertices miss the island; island vertices reach only it.
        for source in [0, n / 2, n - 5, n - 4, n - 1] {
            let dist = client.tree(source, None).expect("tree");
            assert_eq!(dist, shortest_paths(graph.forward(), source).dist, "tree from {source}");
            assert!(dist.contains(&INF), "tree from {source} reaches everything");
        }
        router.shutdown();
        server.shutdown();
    }
    assert_eq!(classes, [true; 3], "vertex counts cover every padding class");
}
