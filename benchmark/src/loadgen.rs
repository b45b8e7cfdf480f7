//! The load generator: seeded requests by pool index, their verification
//! against the oracle, closed- and open-loop drivers, and the traced
//! stand-ins for `Client` and `Server` that record a span at every layer
//! boundary of a request using the same public functions the real ones
//! call (`parse_request`, `Service::call_with_epoch`, `encode_answer`,
//! `decode_epoch`, `decode_reply`).

use crate::oracle::{Oracle, Rng};
use crate::trace::{span_id, Tracer, ROOT};
use phast_core::{HeteroAnswer, HeteroQuery};
use phast_graph::Vertex;
use phast_serve::protocol::{self, ErrorKind, Op, Reply, Request, ServeError};
use phast_serve::{Client, Service};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Targets per `many` request.
pub const MANY_TARGETS: usize = 64;
/// Sources per `matrix` request.
pub const MATRIX_SOURCES: usize = 8;
/// Targets per `matrix` request.
pub const MATRIX_TARGETS: usize = 128;
/// Distinct matrix target sets: twice the per-worker selection LRU
/// (`SELECTION_CACHE_CAPACITY` = 8), so cold sets evict each other.
pub const MATRIX_SETS: usize = 16;
/// The first few sets are hot (70 % of matrix requests) and stay cached.
pub const HOT_SETS: usize = 4;

/// One generated request; every field is a pool index, never a vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Req {
    /// Full tree from pool source `s`.
    Tree { s: usize },
    /// Point-to-point from pool source `s` to pool target `t`.
    P2p { s: usize, t: usize },
    /// Pool source `s` to the [`MANY_TARGETS`] pool targets from `off`.
    Many { s: usize, off: usize },
    /// [`MATRIX_SOURCES`] pool sources from `s0` × target set `set`.
    Matrix { s0: usize, set: usize },
}

/// Pool-target indices of matrix target set `set`: a window of the pool,
/// so each set is duplicate-free and neighbouring sets overlap by half.
fn matrix_set(set: usize, pool: usize) -> impl ExactSizeIterator<Item = usize> {
    (0..MATRIX_TARGETS.min(pool)).map(move |i| (set * MATRIX_TARGETS / 2 + i) % pool)
}

fn join(vs: impl Iterator<Item = Vertex>) -> String {
    vs.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

impl Req {
    /// The serve_mixed mix: 50 % p2p, 40 % many, 10 % matrix.
    pub fn mixed(rng: &mut Rng, oracle: &Oracle) -> Req {
        let (ns, nt) = (oracle.sources.len(), oracle.targets.len());
        match rng.below(10) {
            0..=4 => Req::P2p {
                s: rng.below(ns),
                t: rng.below(nt),
            },
            5..=8 => Req::Many {
                s: rng.below(ns),
                off: rng.below(nt - MANY_TARGETS.min(nt) + 1),
            },
            _ => Req::Matrix {
                s0: rng.below(ns - MATRIX_SOURCES.min(ns) + 1),
                set: if rng.below(10) < 7 {
                    rng.below(HOT_SETS)
                } else {
                    rng.below(MATRIX_SETS)
                },
            },
        }
    }

    fn many_targets(off: usize, oracle: &Oracle) -> std::ops::Range<usize> {
        off..(off + MANY_TARGETS).min(oracle.targets.len())
    }

    fn matrix_sources(s0: usize, oracle: &Oracle) -> std::ops::Range<usize> {
        s0..(s0 + MATRIX_SOURCES).min(oracle.sources.len())
    }

    /// The request's fields as they go on the wire (no braces, no id).
    pub fn body(&self, oracle: &Oracle) -> String {
        let (src, tgt) = (&oracle.sources, &oracle.targets);
        match *self {
            Req::Tree { s } => format!("\"op\":\"tree\",\"source\":{}", src[s]),
            Req::P2p { s, t } => {
                format!("\"op\":\"p2p\",\"source\":{},\"target\":{}", src[s], tgt[t])
            }
            Req::Many { s, off } => format!(
                "\"op\":\"many\",\"source\":{},\"targets\":[{}]",
                src[s],
                join(Req::many_targets(off, oracle).map(|ti| tgt[ti]))
            ),
            Req::Matrix { s0, set } => format!(
                "\"op\":\"matrix\",\"sources\":[{}],\"targets\":[{}]",
                join(Req::matrix_sources(s0, oracle).map(|si| src[si])),
                join(matrix_set(set, tgt.len()).map(|ti| tgt[ti]))
            ),
        }
    }

    /// Whether `answer` is exactly what reference Dijkstra gives.
    pub fn verify(&self, oracle: &Oracle, answer: &HeteroAnswer) -> bool {
        match (self, answer) {
            (&Req::Tree { s }, HeteroAnswer::Tree(d)) => oracle.tree_ok(s, d.iter().copied()),
            (&Req::P2p { s, t }, HeteroAnswer::Point(d)) => oracle.dist(s, t) == *d,
            (&Req::Many { s, off }, HeteroAnswer::Many(d)) => {
                oracle.row_ok(s, Req::many_targets(off, oracle), d)
            }
            (&Req::Matrix { s0, set }, HeteroAnswer::Matrix(rows)) => {
                let sources = Req::matrix_sources(s0, oracle);
                rows.len() == sources.len()
                    && sources.zip(rows).all(|(si, row)| {
                        oracle.row_ok(si, matrix_set(set, oracle.targets.len()), row)
                    })
            }
            _ => false,
        }
    }
}

/// Something a request can be sent through: the real [`Client`] in
/// measured runs, [`TracedClient`] in traced ones.
pub trait Issuer {
    /// Sends `req` and waits for its answer. `due` is when an open-loop
    /// schedule wanted it sent (`None` in a closed loop).
    fn issue(
        &mut self,
        req: &Req,
        oracle: &Oracle,
        due: Option<Instant>,
    ) -> Result<HeteroAnswer, ServeError>;
}

impl Issuer for Client {
    fn issue(
        &mut self,
        req: &Req,
        oracle: &Oracle,
        _due: Option<Instant>,
    ) -> Result<HeteroAnswer, ServeError> {
        let (src, tgt) = (&oracle.sources, &oracle.targets);
        match *req {
            Req::Tree { s } => self.tree(src[s], None).map(HeteroAnswer::Tree),
            Req::P2p { s, t } => self.p2p(src[s], tgt[t], None).map(HeteroAnswer::Point),
            Req::Many { s, off } => {
                let targets: Vec<Vertex> =
                    Req::many_targets(off, oracle).map(|ti| tgt[ti]).collect();
                self.many(src[s], &targets, None).map(HeteroAnswer::Many)
            }
            Req::Matrix { s0, set } => {
                let sources: Vec<Vertex> =
                    Req::matrix_sources(s0, oracle).map(|si| src[si]).collect();
                let targets: Vec<Vertex> = matrix_set(set, tgt.len()).map(|ti| tgt[ti]).collect();
                self.matrix(&sources, &targets, None)
                    .map(HeteroAnswer::Matrix)
            }
        }
    }
}

/// One finished request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the answer was decoded.
    pub end: Instant,
    /// Latency in ms: from the due time in an open loop, from the send in
    /// a closed one.
    pub ms: f64,
    /// How late the generator sent it, ms (0 in a closed loop).
    pub late_ms: f64,
    /// Answered, and exactly as the oracle says.
    pub ok: bool,
}

fn finish(
    iss: &mut impl Issuer,
    req: &Req,
    oracle: &Oracle,
    due: Option<Instant>,
    sent: Instant,
) -> Sample {
    let answer = iss.issue(req, oracle, due);
    let end = Instant::now();
    let from = due.unwrap_or(sent);
    Sample {
        end,
        ms: end.saturating_duration_since(from).as_secs_f64() * 1e3,
        late_ms: sent.saturating_duration_since(from).as_secs_f64() * 1e3,
        // Verification is outside the timed interval.
        ok: answer.is_ok_and(|a| req.verify(oracle, &a)),
    }
}

/// Closed loop: the next request goes out when the previous answer has
/// been verified. Runs until `until`.
pub fn closed_loop(
    iss: &mut impl Issuer,
    oracle: &Oracle,
    mut next: impl FnMut() -> Req,
    until: Instant,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    loop {
        let sent = Instant::now();
        if sent >= until {
            return samples;
        }
        let req = next();
        samples.push(finish(iss, &req, oracle, None, sent));
    }
}

/// Open loop on one connection: request `i` is due at `first_due + i *
/// period` whatever happened to the ones before it. A connection carries
/// one request at a time, so a stalled answer makes the following ones
/// late; latency is timed from the due time and so contains that wait.
pub fn open_loop(
    iss: &mut impl Issuer,
    oracle: &Oracle,
    mut next: impl FnMut() -> Req,
    first_due: Instant,
    period: Duration,
    until: Instant,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for i in 0u32.. {
        let due = first_due + period * i;
        if due >= until {
            break;
        }
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        let req = next();
        samples.push(finish(iss, &req, oracle, Some(due), Instant::now()));
    }
    samples
}

// Span slots of one request (see `trace::span_id`).
const S_REQUEST: u64 = 1;
const S_LATE: u64 = 2;
const S_WRITE: u64 = 3;
const S_WAIT: u64 = 4;
const S_DECODE_EPOCH: u64 = 5;
const S_DECODE_REPLY: u64 = 6;
const S_PARSE: u64 = 7;
const S_CALL: u64 = 8;
const S_ENCODE: u64 = 9;
const S_SERVER_WRITE: u64 = 10;

fn transport(e: &std::io::Error) -> ServeError {
    ServeError::new(ErrorKind::Transport, format!("transport: {e}"))
}

/// [`Client`]'s request path with a span around each step. Request ids
/// are `first, first + stride, ...` so connections never share one.
pub struct TracedClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next: u64,
    stride: u64,
    /// Spans recorded on this connection.
    pub tracer: Tracer,
}

impl TracedClient {
    /// Connects to `addr`.
    pub fn connect(
        addr: SocketAddr,
        first: u64,
        stride: u64,
        tracer: Tracer,
    ) -> std::io::Result<TracedClient> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(TracedClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next: first,
            stride,
            tracer,
        })
    }
}

impl Issuer for TracedClient {
    fn issue(
        &mut self,
        req: &Req,
        oracle: &Oracle,
        due: Option<Instant>,
    ) -> Result<HeteroAnswer, ServeError> {
        let r = self.next;
        self.next += self.stride;
        let root = span_id(r, S_REQUEST);
        let sent = Instant::now();
        if let Some(due) = due {
            self.tracer
                .record(span_id(r, S_LATE), root, r, "loadgen.late", due, sent);
        }
        let line = format!("{{\"id\":{r},{}}}\n", req.body(oracle));
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| transport(&e))?;
        let written = Instant::now();
        self.tracer
            .record(span_id(r, S_WRITE), root, r, "client.write", sent, written);
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| transport(&e))?;
        let read = Instant::now();
        self.tracer.record(
            span_id(r, S_WAIT),
            root,
            r,
            "client.wait_read",
            written,
            read,
        );
        if n == 0 {
            return Err(ServeError::new(
                ErrorKind::Transport,
                "server closed the connection",
            ));
        }
        let reply = reply.trim_end();
        // `Client` parses every reply twice, first for the epoch stamp.
        self.tracer.time(
            span_id(r, S_DECODE_EPOCH),
            root,
            r,
            "client.decode_epoch",
            || std::hint::black_box(protocol::decode_epoch(reply)),
        );
        let decoded = self.tracer.time(
            span_id(r, S_DECODE_REPLY),
            root,
            r,
            "client.decode_reply",
            || protocol::decode_reply(reply),
        );
        self.tracer.record(
            root,
            ROOT,
            r,
            "request",
            due.unwrap_or(sent),
            Instant::now(),
        );
        match decoded? {
            Reply::Answer(a) => Ok(a),
            Reply::Error(e) => Err(e),
            Reply::Stats(_) => Err(ServeError::new(
                ErrorKind::Malformed,
                "unexpected stats reply",
            )),
        }
    }
}

/// `Server`'s connection loop with a span around each step: one thread
/// per connection, `parse_request` → `Service::call_with_epoch` →
/// `encode_answer` → write. Lines the spans do not cover (the router's
/// `stats` probes, anything malformed) go through `handle_line`.
pub struct TracedServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    streams: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<JoinHandle<Tracer>>,
}

impl TracedServer {
    /// Listens on a loopback port.
    pub fn spawn(service: Arc<Service>, tracer: Tracer) -> std::io::Result<TracedServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let streams = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let (stop, streams) = (Arc::clone(&stop), Arc::clone(&streams));
            std::thread::spawn(move || {
                let mut tracer = tracer;
                let mut conns: Vec<JoinHandle<Tracer>> = Vec::new();
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let Ok(clone) = stream.try_clone() else {
                        continue;
                    };
                    streams.lock().expect("stream list poisoned").push(clone);
                    let (service, conn_tracer) = (Arc::clone(&service), tracer.fork());
                    conns.push(std::thread::spawn(move || {
                        serve_conn(stream, &service, conn_tracer)
                    }));
                }
                for conn in conns {
                    if let Ok(t) = conn.join() {
                        tracer.absorb(t);
                    }
                }
                tracer
            })
        };
        Ok(TracedServer {
            addr,
            stop,
            streams,
            accept: Some(accept),
        })
    }

    /// The listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Closes every connection, joins every thread and returns the spans.
    pub fn shutdown(mut self) -> Tracer {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        for s in self.streams.lock().expect("stream list poisoned").drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        self.accept
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("traced server thread panicked")
    }
}

fn serve_conn(stream: TcpStream, service: &Service, mut tracer: Tracer) -> Tracer {
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return tracer;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return tracer,
            Ok(_) => {}
        }
        let text = line.trim_end();
        if text.is_empty() {
            continue;
        }
        let parse_start = Instant::now();
        let parsed = protocol::parse_request(text);
        let parse_end = Instant::now();
        let (request, reply) = match parsed {
            Ok(Request {
                id: Some(id),
                deadline_ms,
                op: op @ (Op::Query(_) | Op::Matrix { .. }),
            }) if id >= 0 => {
                let r = id as u64;
                let wait = span_id(r, S_WAIT);
                tracer.record(
                    span_id(r, S_PARSE),
                    wait,
                    r,
                    "server.parse_request",
                    parse_start,
                    parse_end,
                );
                let deadline = deadline_ms.map(Duration::from_millis);
                let result = tracer.time(span_id(r, S_CALL), wait, r, "server.call", || {
                    call(service, op, deadline)
                });
                let reply = tracer.time(
                    span_id(r, S_ENCODE),
                    wait,
                    r,
                    "server.encode_answer",
                    || match result {
                        Ok((answer, epoch)) => {
                            protocol::encode_answer(Some(id), &answer, Some(epoch))
                        }
                        Err(e) => protocol::encode_error(Some(id), &e),
                    },
                );
                (Some(r), reply)
            }
            _ => (None, phast_serve::server::handle_line(service, text)),
        };
        let write_start = Instant::now();
        let wrote = writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if let Some(r) = request {
            tracer.record(
                span_id(r, S_SERVER_WRITE),
                span_id(r, S_WAIT),
                r,
                "server.write",
                write_start,
                Instant::now(),
            );
        }
        if wrote.is_err() {
            return tracer;
        }
    }
}

fn call(
    service: &Service,
    op: Op,
    deadline: Option<Duration>,
) -> Result<(HeteroAnswer, u64), ServeError> {
    match op {
        Op::Query(q) => service.call_with_epoch(q, deadline),
        Op::Matrix { sources, targets } => service
            .matrix_with_epoch(sources, targets, deadline)
            .map(|(rows, epoch)| (HeteroAnswer::Matrix(rows), epoch)),
        Op::Stats => unreachable!("stats lines go through handle_line"),
    }
}

/// The query a [`Req`] turns into inside the service (for in-process
/// probes that skip the wire).
pub fn hetero_query(req: &Req, oracle: &Oracle) -> HeteroQuery {
    let (src, tgt) = (&oracle.sources, &oracle.targets);
    match *req {
        Req::Tree { s } => HeteroQuery::Tree { source: src[s] },
        Req::P2p { s, t } => HeteroQuery::Point {
            source: src[s],
            target: tgt[t],
        },
        Req::Many { s, off } => HeteroQuery::Many {
            source: src[s],
            targets: Req::many_targets(off, oracle).map(|ti| tgt[ti]).collect(),
        },
        Req::Matrix { .. } => panic!("a matrix request is not a batch lane"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::sample_distinct;
    use phast_graph::gen::{Metric, RoadNetworkConfig};
    use phast_serve::{ServeConfig, Server};

    fn small() -> (phast_graph::Graph, Oracle) {
        let graph = RoadNetworkConfig::new(16, 16, 5, Metric::TravelTime)
            .build()
            .graph;
        let n = graph.num_vertices();
        let mut rng = Rng::new(11, 0);
        let sources = sample_distinct(&mut rng, n, 12);
        let targets = sample_distinct(&mut rng, n, 200);
        let (oracle, _) = Oracle::build(graph.forward(), sources, targets, 2);
        (graph, oracle)
    }

    /// An issuer whose answers take scripted times: the open-loop
    /// accounting is checked without a server.
    struct Scripted {
        delays_ms: Vec<u64>,
        sent: Vec<Instant>,
    }

    impl Issuer for Scripted {
        fn issue(
            &mut self,
            _: &Req,
            _: &Oracle,
            _: Option<Instant>,
        ) -> Result<HeteroAnswer, ServeError> {
            let delay = self.delays_ms.get(self.sent.len()).copied().unwrap_or(0);
            self.sent.push(Instant::now());
            std::thread::sleep(Duration::from_millis(delay));
            Ok(HeteroAnswer::Point(0))
        }
    }

    #[test]
    fn a_stalled_reply_delays_later_requests_and_is_charged_from_their_due_time() {
        let (_, oracle) = small();
        // 20 ms period; the first answer stalls for 70 ms, so requests 1-3
        // (due at 20/40/60 ms) are sent late, back to back, and their
        // latency contains the wait; request 4 (due at 80 ms) is on time.
        let mut iss = Scripted {
            delays_ms: vec![70],
            sent: Vec::new(),
        };
        let start = Instant::now() + Duration::from_millis(5);
        let period = Duration::from_millis(20);
        let samples = open_loop(
            &mut iss,
            &oracle,
            || Req::P2p { s: 0, t: 0 },
            start,
            period,
            start + period * 6,
        );
        assert_eq!(samples.len(), 6, "every due request is sent, none skipped");
        assert!(samples[0].late_ms < 10.0 && samples[0].ms >= 70.0);
        assert!(
            samples[1].late_ms >= 45.0,
            "due at 20, sent at ~70: {}",
            samples[1].late_ms
        );
        assert!(samples[1].ms >= samples[1].late_ms);
        assert!(samples[2].late_ms >= 25.0 && samples[2].late_ms < samples[1].late_ms);
        assert!(samples[3].late_ms >= 5.0 && samples[3].late_ms < samples[2].late_ms);
        assert!(
            samples[5].late_ms < 10.0,
            "caught up: {}",
            samples[5].late_ms
        );
        // Never sent before it was due.
        for (i, sent) in iss.sent.iter().enumerate() {
            assert!(*sent >= start + period * i as u32);
        }
    }

    #[test]
    fn closed_loop_sends_the_next_request_only_after_the_previous_answer() {
        let (_, oracle) = small();
        let mut iss = Scripted {
            delays_ms: vec![30, 30, 30],
            sent: Vec::new(),
        };
        let samples = closed_loop(
            &mut iss,
            &oracle,
            || Req::P2p { s: 0, t: 0 },
            Instant::now() + Duration::from_millis(80),
        );
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|s| s.late_ms == 0.0 && s.ms >= 30.0));
        assert!(iss.sent[1] >= iss.sent[0] + Duration::from_millis(30));
    }

    #[test]
    fn traced_pair_answers_like_the_real_pair_and_records_every_boundary() {
        let (graph, oracle) = small();
        let service = Service::for_graph(&graph, ServeConfig::default());
        let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut real = Client::connect(server.local_addr()).unwrap();
        let origin = Instant::now();
        let traced_server = TracedServer::spawn(Arc::clone(&service), Tracer::new(origin)).unwrap();
        let mut traced =
            TracedClient::connect(traced_server.local_addr(), 0, 1, Tracer::new(origin)).unwrap();
        let mut rng = Rng::new(5, 9);
        let mut reqs = vec![Req::Tree { s: 3 }];
        reqs.extend((0..30).map(|_| Req::mixed(&mut rng, &oracle)));
        for req in &reqs {
            let a = real.issue(req, &oracle, None).unwrap();
            let b = traced.issue(req, &oracle, None).unwrap();
            assert_eq!(a, b, "{req:?}");
            assert!(req.verify(&oracle, &a), "{req:?}");
        }
        // A wrong answer is noticed.
        assert!(
            !Req::P2p { s: 0, t: 0 }.verify(&oracle, &HeteroAnswer::Point(oracle.dist(0, 0) + 1))
        );
        assert!(!Req::Tree { s: 0 }.verify(&oracle, &HeteroAnswer::Point(0)));
        let mut spans = traced.tracer.clone();
        drop(traced);
        spans.absorb(traced_server.shutdown());
        server.shutdown();
        let layers = crate::trace::layer_times(&spans.spans);
        for name in [
            "request",
            "client.write",
            "client.wait_read",
            "client.decode_epoch",
            "client.decode_reply",
            "server.parse_request",
            "server.call",
            "server.encode_answer",
            "server.write",
        ] {
            assert_eq!(layers[name].count, reqs.len(), "{name}");
        }
        // Server spans nest inside the client's wait.
        let own = crate::trace::self_times_ms(&spans.spans);
        assert!(own.values().all(|&ms| ms >= 0.0));
    }
}
