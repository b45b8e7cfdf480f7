//! Differential tests of the failover path: a request caught by a dying
//! replica must be re-answered on a healthy one exactly once, with the
//! same tree Dijkstra computes; ejected replicas must rejoin through
//! the half-open door; and connections pooled before an ejection must be
//! drained, not reused.

use phast_core::HeteroAnswer;
use phast_dijkstra::dijkstra::shortest_paths;
use phast_graph::gen::{Metric, RoadNetworkConfig};
use phast_router::{HealthState, Router, RouterConfig};
use phast_serve::protocol::{decode_reply, Reply};
use phast_serve::scheduler::{ServeConfig, Service};
use phast_serve::Server;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn wait_until(what: &str, timeout: Duration, mut ok: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !ok() {
        assert!(t0.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn spawn_backend(net: &phast_graph::gen::RoadNetwork) -> Server {
    let svc = Service::for_graph(&net.graph, ServeConfig::default());
    Server::spawn(svc, "127.0.0.1:0").expect("backend bind")
}

/// A misbehaving backend. It answers the prober's `stats` lines honestly
/// and any other request line with `reply` — valid JSON up to wherever the
/// caller broke it — or, given none, by slamming the connection shut: the
/// shape of a replica dying mid-request. Runs until its listener is
/// dropped by the OS at process exit (the accept thread is detached; tests
/// are short-lived).
fn spawn_scripted_backend(reply: Option<Vec<u8>>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("scripted bind");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let reply = reply.clone();
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                    let reply = match &reply {
                        _ if line.contains("\"stats\"") => {
                            b"{\"ok\":true,\"op\":\"stats\",\"report\":{}}\n".as_slice()
                        }
                        Some(reply) => reply,
                        // Drop: RST/EOF toward the router mid-request.
                        None => return,
                    };
                    if (&stream).write_all(reply).is_err() {
                        return;
                    }
                    line.clear();
                }
            });
        }
    });
    addr
}

/// Spawns a router over `[misbehaving, healthy]` whose prober runs once, at
/// start-up, and returns when that round is past the misbehaving replica.
/// The scripted request must find it in rotation (idle least-inflight
/// picking tries the first backend first), and no probe verdict may land
/// after the request's own: a probe racing the request used to eject the
/// replica first — no failover to observe — about once in thirty runs.
fn spawn_router_after_startup_probe(misbehaving: SocketAddr, healthy: SocketAddr) -> Router {
    let router = Router::spawn(
        RouterConfig {
            backends: vec![misbehaving, healthy],
            probe_interval: Duration::from_secs(3600),
            eject_after: 1,
            ..RouterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("router bind");
    // Probes run in backend order and are counted as they start.
    wait_until("the start-up probe round", Duration::from_secs(10), || {
        router.stats().probes() >= 2
    });
    router
}

fn send_line(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
}

fn read_reply_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read reply");
    assert!(n > 0, "connection closed instead of replying");
    line.trim_end().to_owned()
}

#[test]
fn request_caught_by_dying_replica_fails_over_exactly_once() {
    let net = RoadNetworkConfig::new(6, 6, 3, Metric::TravelTime).build();
    let healthy = spawn_backend(&net);
    let flaky = spawn_scripted_backend(None);
    let router = spawn_router_after_startup_probe(flaky, healthy.local_addr());

    let mut client = TcpStream::connect(router.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    send_line(&mut client, r#"{"id":7,"op":"tree","source":0}"#);
    let reply = read_reply_line(&mut reader);

    // Exactly one reply, carrying the client's id.
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v.get("id").and_then(|i| i.as_i64()), Some(7));
    let answer = match decode_reply(&reply).expect("decodable reply") {
        Reply::Answer(HeteroAnswer::Tree(dist)) => dist,
        other => panic!("expected a tree answer after failover, got {other:?}"),
    };
    // ... and it is the tree, not an approximation of it.
    let reference = shortest_paths(net.graph.forward(), 0);
    assert_eq!(answer, reference.dist, "failover reply must stay exact");

    // No duplicate reply follows (the failed attempt was not re-answered).
    client
        .set_read_timeout(Some(Duration::from_millis(150)))
        .unwrap();
    let mut probe_buf = [0u8; 1];
    match client.read(&mut probe_buf) {
        Ok(0) | Err(_) => {}
        Ok(_) => panic!("router sent a second reply for one request"),
    }

    let stats = router.stats();
    assert!(stats.failovers() >= 1, "the dying replica forced a failover");
    assert_eq!(stats.answered(), 1, "exactly one reply relayed");
    assert!(stats.ejections() >= 1, "eject_after=1 ejects on first fault");
    assert_eq!(
        router.pool().backends()[0].state(),
        HealthState::Ejected,
        "the flaky replica is out of rotation"
    );

    router.shutdown();
    healthy.shutdown();
}

/// The router classifies a reply without keeping its distances; that must
/// not mean without reading them. A replica that sends a well-formed
/// ~500 KB prefix of a tree and then garbage is a transport fault like any
/// other: counted against its health, and the request answered once, by
/// the healthy replica.
#[test]
fn corrupt_tail_of_a_large_reply_is_a_transport_fault() {
    let net = RoadNetworkConfig::new(6, 6, 3, Metric::TravelTime).build();
    let healthy = spawn_backend(&net);
    let tree = HeteroAnswer::Tree(vec![123_456; 95_000]);
    let mut corrupt = phast_serve::protocol::encode_answer(Some(7), &tree, Some(1)).into_bytes();
    assert!(corrupt.len() > 500_000);
    // Break the last group of the packed labels with a byte outside the
    // base64 alphabet; braces, quotes and length stay plausible.
    let at = corrupt.len() - 16;
    assert!(corrupt[at..].ends_with(b"=\",\"epoch\":1}"));
    corrupt[at] = b'!';
    corrupt.push(b'\n');
    let liar = spawn_scripted_backend(Some(corrupt));
    let router = spawn_router_after_startup_probe(liar, healthy.local_addr());

    let mut client = TcpStream::connect(router.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    send_line(&mut client, r#"{"id":7,"op":"tree","source":0}"#);
    let reply = read_reply_line(&mut reader);
    let answer = match decode_reply(&reply).expect("the relayed line is well-formed") {
        Reply::Answer(HeteroAnswer::Tree(dist)) => dist,
        other => panic!("expected the healthy replica's tree, got {other:?}"),
    };
    let reference = shortest_paths(net.graph.forward(), 0);
    assert_eq!(
        answer, reference.dist,
        "the corrupt line must not be relayed"
    );

    // Exactly once: nothing follows the one reply.
    client
        .set_read_timeout(Some(Duration::from_millis(150)))
        .unwrap();
    let mut probe_buf = [0u8; 1];
    match reader.read(&mut probe_buf) {
        Ok(0) | Err(_) => {}
        Ok(_) => panic!("router sent a second reply for one request"),
    }

    let stats = router.stats();
    assert_eq!(
        stats.failovers(),
        1,
        "the corrupt reply forced one failover"
    );
    assert_eq!(stats.answered(), 1, "exactly one reply relayed");
    assert_eq!(stats.ejections(), 1, "eject_after=1: the fault counted");
    assert_eq!(
        router.pool().backends()[0].state(),
        HealthState::Ejected,
        "the lying replica is out of rotation"
    );

    router.shutdown();
    healthy.shutdown();
}

#[test]
fn ejected_backend_rejoins_through_halfopen_and_pooled_conns_drain() {
    let net = RoadNetworkConfig::new(6, 6, 4, Metric::TravelTime).build();
    let first = spawn_backend(&net);
    let port = first.local_addr();
    let second = spawn_backend(&net);
    let router = Router::spawn(
        RouterConfig {
            backends: vec![port, second.local_addr()],
            probe_interval: Duration::from_millis(20),
            eject_after: 2,
            halfopen_after: Duration::from_millis(50),
            ..RouterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("router bind");

    // One long-lived client; its first requests seed pooled connections
    // to both replicas (least-inflight alternation over sequential
    // requests lands at least one request on backend 0).
    let mut client = TcpStream::connect(router.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    let reference = shortest_paths(net.graph.forward(), 5);
    for _ in 0..4 {
        send_line(&mut client, r#"{"op":"tree","source":5}"#);
        let reply = read_reply_line(&mut reader);
        match decode_reply(&reply).expect("decodable") {
            Reply::Answer(HeteroAnswer::Tree(dist)) => assert_eq!(dist, reference.dist),
            other => panic!("expected tree, got {other:?}"),
        }
    }

    // Kill replica 0; the prober ejects it within a few intervals.
    first.shutdown();
    wait_until("ejection of the killed replica", Duration::from_secs(10), || {
        router.pool().backends()[0].state() == HealthState::Ejected
    });
    assert!(router.stats().ejections() >= 1);

    // Requests keep working on the survivor; the stale pooled connection
    // to replica 0 is drained (closed), never written into.
    let drained_before = router.stats().drained_conns();
    for _ in 0..3 {
        send_line(&mut client, r#"{"op":"tree","source":5}"#);
        let reply = read_reply_line(&mut reader);
        match decode_reply(&reply).expect("decodable") {
            Reply::Answer(HeteroAnswer::Tree(dist)) => assert_eq!(dist, reference.dist),
            other => panic!("expected tree during outage, got {other:?}"),
        }
    }

    // Revive a replica on the same port; the half-open door lets the
    // prober rediscover it.
    let revived = spawn_backend_on(&net, port);
    wait_until("half-open recovery", Duration::from_secs(10), || {
        router.pool().backends()[0].state() == HealthState::Healthy
    });
    assert!(router.stats().recoveries() >= 1, "recovery must be counted");

    // The same client connection keeps working after recovery; once
    // traffic lands on the revived replica again, the pre-ejection
    // pooled connection is detected stale and drained.
    wait_until("stale connection drain", Duration::from_secs(10), || {
        send_line(&mut client, r#"{"op":"tree","source":5}"#);
        let reply = read_reply_line(&mut reader);
        match decode_reply(&reply).expect("decodable") {
            Reply::Answer(HeteroAnswer::Tree(dist)) => assert_eq!(dist, reference.dist),
            other => panic!("expected tree after recovery, got {other:?}"),
        }
        router.stats().drained_conns() > drained_before
    });

    router.shutdown();
    second.shutdown();
    revived.shutdown();
}

fn spawn_backend_on(net: &phast_graph::gen::RoadNetwork, addr: SocketAddr) -> Server {
    let svc = Service::for_graph(&net.graph, ServeConfig::default());
    // SO_REUSEADDR (set by the std listener) admits the rebind while old
    // probe sockets linger in TIME_WAIT.
    Server::spawn(svc, addr).expect("rebind revived backend")
}

#[test]
fn no_healthy_backend_yields_a_typed_overloaded_reply() {
    // A backend that answers nothing: it accepts and hangs up, so every
    // probe fails. The port stays bound for the whole test — a port that
    // was bound and released may be handed to the router's own
    // `127.0.0.1:0` bind below or to a backend of a test running in
    // parallel, and then the "dead" replica answers. (The accept thread is
    // detached like `spawn_scripted_backend`'s.)
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead = listener.local_addr().unwrap();
    std::thread::spawn(move || listener.incoming().for_each(drop));
    let router = Router::spawn(
        RouterConfig {
            backends: vec![dead],
            probe_interval: Duration::from_millis(10),
            eject_after: 1,
            halfopen_after: Duration::from_secs(3600),
            connect_timeout: Duration::from_millis(200),
            ..RouterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("router bind");
    wait_until("dead backend ejection", Duration::from_secs(10), || {
        router.pool().healthy() == 0
    });

    let mut client = TcpStream::connect(router.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    send_line(&mut client, r#"{"id":3,"op":"tree","source":0}"#);
    let reply = read_reply_line(&mut reader);
    match decode_reply(&reply).expect("decodable") {
        Reply::Error(e) => {
            assert_eq!(e.kind, phast_serve::ErrorKind::Overloaded);
            assert!(e.retry_after_ms.is_some(), "hint tells clients when to retry");
        }
        other => panic!("expected typed overloaded, got {other:?}"),
    }
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v.get("id").and_then(|i| i.as_i64()), Some(3));
    assert!(router.stats().no_backend() >= 1);

    router.shutdown();
}
