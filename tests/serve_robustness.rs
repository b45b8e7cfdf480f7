//! Robustness tests for the serving tier's front ends: every documented
//! failure mode — an expired deadline, a full admission queue, a malformed
//! request line — produces its documented typed error reply, and the
//! listener keeps serving afterwards. No client input tears down a
//! connection, let alone the server (DESIGN.md §9, "failure modes").
//!
//! The edge cases (connection cap, I/O timeout, line cap, malformed
//! lines, forced close, freed port, skipped empty lines, relayed ids) run
//! against both fronts of the one hardened edge (DESIGN.md §11): a
//! `Server`, and a `Router` in front of one. Each asserts the typed line,
//! the close and the counter on the side that enforced it.

use phast::graph::gen::{Metric, RoadNetworkConfig};
use phast::serve::protocol::{decode_reply, parse_request, Reply};
use phast::serve::{Client, ClientConfig, ErrorKind, ServeConfig, Server, Service};
use phast_router::{Router, RouterConfig};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn start(cfg: ServeConfig) -> (Server, u32) {
    let net = RoadNetworkConfig::new(10, 10, 11, Metric::TravelTime).build();
    let n = net.graph.num_vertices() as u32;
    let service = Service::for_graph(&net.graph, cfg);
    (Server::spawn(service, "127.0.0.1:0").expect("bind"), n)
}

/// Which front end of the tier a test's clients connect to.
#[derive(Clone, Copy, Debug)]
enum Front {
    /// The `Server` itself.
    Server,
    /// A `Router` relaying to the server.
    Router,
}

const FRONTS: [Front; 2] = [Front::Server, Front::Router];

/// The limits of the front under test; the tier behind a router keeps its
/// defaults, so whatever is enforced is enforced by the front.
struct Edge {
    max_conns: usize,
    io_timeout: Duration,
    max_line_bytes: usize,
}

impl Default for Edge {
    fn default() -> Self {
        let cfg = ServeConfig::default();
        Edge {
            max_conns: cfg.max_conns,
            io_timeout: cfg.io_timeout,
            max_line_bytes: cfg.max_line_bytes,
        }
    }
}

/// What the edge of the front under test counted: busy refusals, reaped
/// connections, oversized lines.
#[derive(Debug, Default, PartialEq, Eq)]
struct EdgeCounts {
    refused_busy: u64,
    timed_out: u64,
    oversized: u64,
}

/// A server, alone or behind a router, and the address clients use.
struct Tier {
    server: Server,
    router: Option<Router>,
    n: u32,
}

impl Tier {
    fn start(front: Front, edge: Edge) -> Tier {
        Tier::start_windowed(front, edge, Duration::ZERO)
    }

    /// [`Tier::start`] with the server's batch window set to `window`.
    fn start_windowed(front: Front, edge: Edge, window: Duration) -> Tier {
        let Edge { max_conns, io_timeout, max_line_bytes } = edge;
        match front {
            Front::Server => {
                let (server, n) = start(ServeConfig {
                    window,
                    max_conns,
                    io_timeout,
                    max_line_bytes,
                    ..ServeConfig::default()
                });
                Tier { server, router: None, n }
            }
            Front::Router => {
                let (server, n) = start(ServeConfig {
                    window,
                    ..ServeConfig::default()
                });
                let cfg = RouterConfig {
                    backends: vec![server.local_addr()],
                    max_conns,
                    io_timeout,
                    max_line_bytes,
                    ..RouterConfig::default()
                };
                let router = Router::spawn(cfg, "127.0.0.1:0").expect("router bind");
                Tier { server, router: Some(router), n }
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        self.router.as_ref().map_or(self.server.local_addr(), Router::local_addr)
    }

    fn live_connections(&self) -> usize {
        self.router.as_ref().map_or(self.server.live_connections(), Router::live_connections)
    }

    /// The front's own edge counters.
    fn edge_counts(&self) -> EdgeCounts {
        match &self.router {
            Some(router) => EdgeCounts {
                refused_busy: router.stats().refused_busy(),
                timed_out: router.stats().timed_out_connections(),
                oversized: router.stats().oversized_lines(),
            },
            None => self.server_edge_counts(),
        }
    }

    /// The server's edge counters (the front's own when there is no router).
    fn server_edge_counts(&self) -> EdgeCounts {
        let stats = self.server.service().stats();
        EdgeCounts {
            refused_busy: stats.refused_busy(),
            timed_out: stats.timed_out_connections(),
            oversized: stats.rejected_invalid(),
        }
    }

    /// Asserts the front counted exactly `want`, and that a server behind
    /// a router enforced (and counted) nothing itself.
    fn assert_edge_counts(&self, want: EdgeCounts, front: Front) {
        assert_eq!(self.edge_counts(), want, "{front:?}");
        if self.router.is_some() {
            let quiet = EdgeCounts::default();
            assert_eq!(self.server_edge_counts(), quiet, "the router enforces, not the server");
        }
    }

    /// Shuts the front down, then whatever is behind it.
    fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        self.server.shutdown();
    }
}

/// Decodes a raw reply line and asserts it is a typed error of `kind`.
fn assert_error_line(line: &str, kind: ErrorKind, what: &str) {
    match decode_reply(line).expect(what) {
        Reply::Error(e) => assert_eq!(e.kind, kind, "{what}: {line}"),
        other => panic!("{what}: expected {kind:?} error, got {other:?}"),
    }
}

#[test]
fn expired_deadline_gets_typed_reply_and_service_survives() {
    let (server, _) = start(ServeConfig {
        window: Duration::from_millis(40),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(server.local_addr()).expect("connect");
    // deadline_ms = 0 expires before any batch can form.
    let err = c.tree(0, Some(0)).expect_err("deadline must expire");
    assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
    // Same connection, no deadline: served normally.
    let dist = c.tree(0, None).expect("service must keep serving");
    assert_eq!(dist[0], 0);
    assert_eq!(server.service().stats().deadline_misses(), 1);
    server.shutdown();
}

#[test]
fn queue_full_rejects_instead_of_blocking() {
    // One worker, a 2-slot queue, and a long window: admitted jobs sit in
    // the queue while the window is open, so a third rapid submission
    // must be rejected immediately — not block, not drop.
    let (server, _) = start(ServeConfig {
        max_k: 16,
        window: Duration::from_millis(250),
        queue_capacity: 2,
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    // This test's own client connects first: its idle connection keeps
    // the window open, since it could still send a companion.
    let mut c = Client::connect(addr).expect("connect");
    // Two requests from background connections fill the queue.
    let fillers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.tree(0, None)
            })
        })
        .collect();
    // Give them time to be admitted (well under the 250 ms window).
    std::thread::sleep(Duration::from_millis(80));
    let err = c.tree(1, None).expect_err("third submission must bounce");
    assert_eq!(err.kind, ErrorKind::QueueFull);
    // The admitted requests are unaffected by the rejection.
    for f in fillers {
        assert!(f.join().expect("filler thread").is_ok());
    }
    // And once the queue drains, the same connection is served again.
    assert_eq!(c.tree(1, None).expect("served after drain")[1], 0);
    assert_eq!(server.service().stats().rejected_queue_full(), 1);
    server.shutdown();
}

/// A batch window far longer than any test step.
const LONG_WINDOW: Duration = Duration::from_millis(300);

/// `count` clients the server already counts as connections: each has
/// had one `stats` reply, through the router too.
fn counted_clients(addr: SocketAddr, count: usize) -> Vec<Client> {
    (0..count)
        .map(|_| {
            let mut c = Client::connect(addr).expect("connect");
            c.stats().expect("stats");
            c
        })
        .collect()
}

/// Sends one `tree` from every client at the same instant, and returns
/// once all answers are in and checked.
fn trees_at_once(clients: &mut [Client]) {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        for (source, c) in clients.iter_mut().enumerate() {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let dist = c.tree(source as u32, None).expect("tree");
                assert_eq!(dist[source], 0);
            });
        }
    });
}

/// The counters a batch window moves. `stats` lines submit nothing, so
/// they read zero until the first tree.
#[derive(Debug, PartialEq, Eq)]
struct WindowCounts {
    batches: u64,
    batched_requests: u64,
    closed_early: u64,
    expired: u64,
}

impl WindowCounts {
    fn of(tier: &Tier) -> WindowCounts {
        let stats = tier.server.service().stats();
        WindowCounts {
            batches: stats.batches(),
            batched_requests: stats.batched_requests(),
            closed_early: stats.windows_closed_early(),
            expired: stats.windows_expired(),
        }
    }
}

/// The pair's trees as one batch, in a window that `closed_early` or not.
fn one_batch_of_two(closed_early: bool) -> WindowCounts {
    WindowCounts {
        batches: 1,
        batched_requests: 2,
        closed_early: u64::from(closed_early),
        expired: u64::from(!closed_early),
    }
}

#[test]
fn a_window_closes_once_every_connection_is_waiting() {
    for front in FRONTS {
        let tier = Tier::start_windowed(front, Edge::default(), LONG_WINDOW);
        let mut pair = counted_clients(tier.addr(), 2);
        let t = Instant::now();
        trees_at_once(&mut pair);
        let took = t.elapsed();
        // Both connections are waiting once both trees are admitted: no
        // companion can come, so the batch runs without the clock.
        assert!(took < Duration::from_millis(150), "{front:?}: the pair took {took:?}");
        assert_eq!(WindowCounts::of(&tier), one_batch_of_two(true), "{front:?}");
        tier.shutdown();
    }
}

#[test]
fn an_idle_connection_keeps_the_window_open() {
    for front in FRONTS {
        let tier = Tier::start_windowed(front, Edge::default(), LONG_WINDOW);
        let mut pair = counted_clients(tier.addr(), 2);
        let _idle = counted_clients(tier.addr(), 1);
        let t = Instant::now();
        trees_at_once(&mut pair);
        let took = t.elapsed();
        // The idle client could still send a companion.
        assert!(took >= LONG_WINDOW, "{front:?}: the pair took {took:?}");
        assert_eq!(WindowCounts::of(&tier), one_batch_of_two(false), "{front:?}");
        tier.shutdown();
    }
}

#[test]
fn closing_the_idle_connection_starts_the_batch() {
    for front in FRONTS {
        let tier = Tier::start_windowed(front, Edge::default(), LONG_WINDOW);
        let mut pair = counted_clients(tier.addr(), 2);
        let idle = counted_clients(tier.addr(), 1);
        let stats = tier.server.service().stats();
        let t = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| trees_at_once(&mut pair));
            // Both trees wait in the window before the idle client leaves.
            while stats.admitted() < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(idle);
        });
        let took = t.elapsed();
        // The close, not the clock, ended the window.
        assert!(took < Duration::from_millis(200), "{front:?}: the pair took {took:?}");
        assert_eq!(WindowCounts::of(&tier), one_batch_of_two(true), "{front:?}");
        tier.shutdown();
    }
}

#[test]
fn malformed_lines_get_typed_replies_and_connection_survives() {
    let cases: &[(&str, ErrorKind)] = &[
        // not JSON at all
        ("garbage", ErrorKind::Malformed),
        // valid JSON, not an object
        ("[1,2,3]", ErrorKind::Malformed),
        // object without an op
        (r#"{"id":1}"#, ErrorKind::Malformed),
        // unknown op
        (r#"{"op":"teleport","source":0}"#, ErrorKind::Malformed),
        // known op, missing field
        (r#"{"op":"tree"}"#, ErrorKind::BadRequest),
        // known op, wrong field type
        (r#"{"op":"tree","source":"zero"}"#, ErrorKind::BadRequest),
        // out-of-range vertex
        (r#"{"op":"p2p","source":0,"target":4000000000}"#, ErrorKind::BadRequest),
        // empty target list
        (r#"{"op":"many","source":0,"targets":[]}"#, ErrorKind::BadRequest),
        // negative deadline
        (r#"{"op":"tree","source":0,"deadline_ms":-5}"#, ErrorKind::BadRequest),
    ];
    for front in FRONTS {
        let tier = Tier::start(front, Edge::default());
        let mut c = Client::connect(tier.addr()).expect("connect");
        for (line, kind) in cases {
            let reply = c.roundtrip_line(line).expect("connection must stay open");
            assert_error_line(&reply, *kind, line);
        }
        // After the whole gauntlet the same connection still answers.
        let dist = c.tree(tier.n - 1, None).expect("still serving");
        assert_eq!(dist.len(), tier.n as usize);
        let stats = tier.server.service().stats();
        assert!(stats.served() >= 1);
        // The verdicts are the server's, relayed or not: a router forwards
        // a line it cannot parse once, and never retries it.
        assert_eq!(stats.rejected_invalid(), cases.len() as u64, "{front:?}");
        if let Some(router) = &tier.router {
            assert_eq!(router.stats().failovers(), 0);
            assert_eq!(router.stats().answered(), cases.len() as u64 + 1);
        }
        tier.shutdown();
    }
}

#[test]
fn worker_panic_is_quarantined_and_the_socket_keeps_serving() {
    // The fault hook makes any batch containing source `n - 1` panic
    // inside the worker. Over the wire, the poisoned request must come
    // back as a typed Internal error — not a hung or dropped connection —
    // and the respawned worker must serve the very next request.
    let net = RoadNetworkConfig::new(10, 10, 11, Metric::TravelTime).build();
    let n = net.graph.num_vertices() as u32;
    let service = Service::for_graph(
        &net.graph,
        ServeConfig {
            window: Duration::from_millis(0),
            workers: 1,
            panic_on_source: Some(n - 1),
            ..ServeConfig::default()
        },
    );
    let server = Server::spawn(service, "127.0.0.1:0").expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let err = c.tree(n - 1, None).expect_err("poisoned request must fail");
    assert_eq!(err.kind, ErrorKind::Internal);
    // Same connection, healthy source: the respawned worker answers.
    let dist = c.tree(0, None).expect("service must keep serving");
    assert_eq!(dist[0], 0);
    let stats = server.service().stats();
    assert_eq!(stats.worker_restarts(), 1);
    assert_eq!(stats.quarantined_requests(), 1);
    server.shutdown();
}

#[test]
fn oversized_request_line_is_rejected_then_the_connection_closes() {
    for front in FRONTS {
        let tier = Tier::start(front, Edge { max_line_bytes: 256, ..Edge::default() });
        let mut s = TcpStream::connect(tier.addr()).expect("connect");
        s.write_all(&vec![b'a'; 4096]).expect("write flood");
        let _ = s.write_all(b"\n");
        // The front must answer with a typed malformed reply naming the
        // cap, then hang up — read_to_string returning at all proves the
        // close.
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).expect("typed reply then close");
        let line = reply.lines().next().expect("reply line before close");
        assert_error_line(line, ErrorKind::Malformed, "oversized line");
        assert!(line.contains("exceeds 256 bytes"), "{front:?}: {line}");
        tier.assert_edge_counts(EdgeCounts { oversized: 1, ..EdgeCounts::default() }, front);
        // The listener itself is unaffected.
        let mut c = Client::connect(tier.addr()).expect("connect");
        assert_eq!(c.tree(0, None).expect("still serving")[0], 0);
        tier.shutdown();
    }
}

#[test]
fn slow_clients_are_reaped_by_the_io_timeout() {
    for front in FRONTS {
        let io_timeout = Duration::from_millis(150);
        let tier = Tier::start(front, Edge { io_timeout, ..Edge::default() });
        let mut s = TcpStream::connect(tier.addr()).expect("connect");
        s.write_all(b"{\"op\":\"tr").expect("half a request");
        // ...then nothing: a slowloris holding the line open. The front's
        // read timeout must reap the connection instead of waiting forever.
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 64];
        let n = s.read(&mut buf).expect("front close reads as EOF");
        assert_eq!(n, 0, "{front:?}: expected EOF after reaping, got {n} bytes");
        tier.assert_edge_counts(EdgeCounts { timed_out: 1, ..EdgeCounts::default() }, front);
        // A prompt client is still served.
        let mut c = Client::connect(tier.addr()).expect("connect");
        assert_eq!(c.tree(0, None).expect("still serving")[0], 0);
        tier.shutdown();
    }
}

#[test]
fn saturation_sheds_with_a_retry_hint_and_a_retrying_client_recovers() {
    // One worker and a long window keep two admitted jobs in the queue;
    // with shed_queue_depth 2 the next submission must be shed with a
    // typed `overloaded` reply — well before the queue_full backstop.
    let (server, _) = start(ServeConfig {
        max_k: 16,
        window: Duration::from_millis(150),
        queue_capacity: 64,
        shed_queue_depth: 2,
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    // Connected before the fillers, the idle client keeps the window open.
    let mut c = Client::connect(addr).expect("connect");
    let fillers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.tree(0, None)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(60));
    // A non-retrying client sees the typed shed, with its retry hint...
    let err = c.tree(1, None).expect_err("saturated queue must shed");
    assert_eq!(err.kind, ErrorKind::Overloaded);
    let hint = err.retry_after_ms.expect("overloaded carries retry_after_ms");
    assert!((5..=5_000).contains(&hint), "hint {hint} outside the clamp");
    // ...while a retrying client waits out the spike and succeeds.
    let mut retrying = Client::connect_with(addr, ClientConfig::retrying(32)).expect("connect");
    let dist = retrying.tree(1, None).expect("retry must outlast the window");
    assert_eq!(dist[1], 0);
    for f in fillers {
        assert!(f.join().expect("filler").is_ok());
    }
    let stats = server.service().stats();
    assert!(stats.shed_overload() >= 1, "shed_overload not counted");
    assert_eq!(stats.rejected_queue_full(), 0, "backstop should not fire");
    server.shutdown();
}

#[test]
fn connections_beyond_max_conns_get_a_typed_busy_refusal() {
    for front in FRONTS {
        let tier = Tier::start(front, Edge { max_conns: 1, ..Edge::default() });
        let addr = tier.addr();
        let mut first = Client::connect(addr).expect("first connection");
        assert_eq!(first.tree(0, None).expect("first is served")[0], 0);
        // Second connection: accepted at the TCP level, refused with `busy`
        // — in the same words by either front.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).expect("read refusal");
        let line = reply.lines().next().expect("typed busy line");
        assert_error_line(line, ErrorKind::Busy, "over-cap connection");
        assert!(line.contains("connection limit 1 reached; retry shortly"), "{front:?}: {line}");
        tier.assert_edge_counts(EdgeCounts { refused_busy: 1, ..EdgeCounts::default() }, front);
        // Freeing the slot lets the next connection in.
        drop(first);
        let mut served = false;
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(20));
            let mut c = Client::connect(addr).expect("reconnect");
            match c.tree(0, None) {
                Ok(d) => {
                    assert_eq!(d[0], 0);
                    served = true;
                    break;
                }
                Err(e) if e.kind == ErrorKind::Busy => continue,
                Err(e) => panic!("unexpected error after slot freed: {:?} {}", e.kind, e.message),
            }
        }
        assert!(served, "{front:?}: slot never freed after the first client disconnected");
        tier.shutdown();
    }
}

#[test]
fn shutdown_closes_an_idle_connection_without_waiting_on_it() {
    for front in FRONTS {
        let tier = Tier::start(front, Edge::default());
        let mut idle = TcpStream::connect(tier.addr()).expect("connect");
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Wait for the connection to be registered before shutting down.
        let t0 = Instant::now();
        while tier.live_connections() == 0 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(tier.live_connections(), 1, "{front:?}");
        let t = Instant::now();
        tier.shutdown();
        let took = t.elapsed();
        assert!(
            took < Duration::from_secs(4),
            "{front:?}: shutdown waited {took:?} on an idle client"
        );
        // The idle client observes the close instead of hanging.
        let mut buf = [0u8; 8];
        match idle.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("{front:?}: expected close, read {n} bytes"),
        }
    }
}

#[test]
fn a_dropped_front_frees_its_port() {
    for front in FRONTS {
        let tier = Tier::start(front, Edge::default());
        let addr = tier.addr();
        drop(TcpStream::connect(addr).expect("the front is listening"));
        // Dropped, not shut down: the accept thread (and a router's prober)
        // must go with the handle, and the port with them.
        let Tier { server, router, .. } = tier;
        match router {
            Some(router) => drop(router),
            None => drop(server),
        }
        let t = Instant::now();
        let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(300));
        assert!(refused.is_err(), "{front:?}: a dropped front still accepts on {addr}");
        let took = t.elapsed();
        assert!(took < Duration::from_millis(300), "{front:?}: refusal took {took:?}");
    }
}

/// Sends `lines` in one write and returns the reply lines that arrive
/// before the connection goes quiet.
fn reply_lines(addr: SocketAddr, lines: &str) -> Vec<String> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(lines.as_bytes()).expect("write");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut replies = Vec::new();
    let mut line = String::new();
    while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
        replies.push(line.trim_end().to_owned());
        line.clear();
        // Anything after the first reply must already be on its way.
        s.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    }
    replies
}

#[test]
fn empty_lines_are_skipped_not_answered() {
    for front in FRONTS {
        let tier = Tier::start(front, Edge::default());
        let request = "\n   \n\r\n{\"op\":\"p2p\",\"source\":0,\"target\":0}\n\n";
        let replies = reply_lines(tier.addr(), request);
        assert_eq!(replies.len(), 1, "{front:?}: one request line, one reply line: {replies:?}");
        let answered = matches!(decode_reply(&replies[0]), Ok(Reply::Answer(_)));
        assert!(answered, "{front:?}: {replies:?}");
        tier.shutdown();
    }
}

#[test]
fn a_request_id_comes_back_on_answers_and_on_errors() {
    for front in FRONTS {
        let tier = Tier::start(front, Edge::default());
        let request = "{\"id\":41,\"op\":\"p2p\",\"source\":0,\"target\":1}\n\
                       {\"id\":-7,\"op\":\"tree\",\"source\":4000000000}\n";
        let replies = reply_lines(tier.addr(), request);
        let ids: Vec<_> = replies
            .iter()
            .map(|r| serde_json::from_str::<serde_json::Value>(r).unwrap()["id"].as_i64())
            .collect();
        assert_eq!(ids, [Some(41), Some(-7)], "{front:?}: {replies:?}");
        assert_error_line(&replies[1], ErrorKind::BadRequest, "out-of-range source");
        tier.shutdown();
    }
}

#[test]
fn deeply_nested_json_is_rejected_without_overflowing_the_stack() {
    // 100k-deep nesting would blow the stack of an unguarded recursive
    // parser; the recursion limit must turn it into a typed error.
    let bomb = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    let err = parse_request(&bomb).expect_err("nesting bomb must be rejected");
    assert_eq!(err.kind, ErrorKind::Malformed);
    let obj_bomb = format!("{}0{}", "{\"op\":".repeat(100_000), "}".repeat(100_000));
    let err = parse_request(&obj_bomb).expect_err("object bomb must be rejected");
    assert_eq!(err.kind, ErrorKind::Malformed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Byte soup of any shape — raw bytes run through lossy UTF-8
    /// decoding, exactly as the server's bounded line reader produces
    /// them — must never panic the request parser. Errors are fine;
    /// panics or unbounded work are not.
    #[test]
    fn parse_request_never_panics_on_byte_soup(
        bytes in proptest::collection::vec(0u8..=255, 0..2048),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_request(&line);
    }

    /// JSON-flavored soup biased toward structural characters reaches the
    /// deeper parser paths (nesting, strings, numbers) more often than
    /// uniform bytes do.
    #[test]
    fn parse_request_never_panics_on_json_shaped_soup(
        picks in proptest::collection::vec(0usize..16, 0..512),
    ) {
        const VOCAB: [&str; 16] = [
            "{", "}", "[", "]", ":", ",", "\"", "\\", "op", "tree", "source",
            "-", "1e999", "0.5", " ", "\\u0000",
        ];
        let line: String = picks.iter().map(|&i| VOCAB[i]).collect();
        let _ = parse_request(&line);
        let _ = parse_request(&format!("{{\"op\":\"tree\",\"source\":{line}}}"));
    }
}

#[test]
fn shutdown_drains_then_rejects() {
    let (server, _) = start(ServeConfig {
        window: Duration::from_millis(0),
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let mut c = Client::connect(addr).expect("connect");
    assert!(c.tree(0, None).is_ok());
    let service = Arc::clone(server.service());
    server.shutdown();
    // Direct in-process submission after shutdown: typed rejection.
    let err = service
        .call(phast::core::HeteroQuery::Tree { source: 0 }, None)
        .expect_err("closed service must reject");
    assert_eq!(err.kind, ErrorKind::Shutdown);
}
