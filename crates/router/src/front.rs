//! The TCP front: accept loop, prober thread, and the failover
//! dispatch path.
//!
//! The router speaks the backends' own line-delimited JSON protocol on
//! both sides, so a request line is relayed verbatim: whatever `id` the
//! client chose is echoed by whichever replica finally answers, and a
//! failed-over request is answered exactly once — the first well-formed
//! reply wins and nothing else is sent for that line.

use crate::backend::BackendPool;
use crate::stats::RouterStats;
use crate::RouterConfig;
use phast_serve::conn::{BoundedLineReader, ConnRegistry, LineOutcome};
use phast_serve::protocol::{self, ErrorKind, ReplyClass, ServeError};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Accept-failure backoff start; doubles per consecutive failure.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(5);

/// Accept-failure backoff cap — EMFILE-style pressure clears when
/// connections close, so the loop keeps probing.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

/// How long [`Router::shutdown`] waits for connection threads to notice
/// their closed sockets.
const SHUTDOWN_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Sleep slice of the prober loop, so shutdown is never blocked behind a
/// full probe interval.
const PROBER_TICK: Duration = Duration::from_millis(10);

/// `retry_after_ms` hint sent when no backend is healthy: long enough
/// for an eject/half-open/recover round trip at default tuning.
const NO_BACKEND_RETRY_MS: u64 = 200;

/// A running failover router: one listening port, N backend replicas.
pub struct Router {
    addr: SocketAddr,
    cfg: Arc<RouterConfig>,
    pool: Arc<BackendPool>,
    stats: Arc<RouterStats>,
    stop: Arc<AtomicBool>,
    registry: Arc<ConnRegistry>,
    accept_handle: Option<thread::JoinHandle<()>>,
    prober_handle: Option<thread::JoinHandle<()>>,
}

impl Router {
    /// Binds `addr`, starts the prober and the accept loop, and returns
    /// once the port is listening. Backends all start healthy; dead ones
    /// are ejected by the prober within a few probe intervals.
    pub fn spawn(cfg: RouterConfig, addr: impl ToSocketAddrs) -> std::io::Result<Router> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let cfg = Arc::new(cfg);
        let pool = Arc::new(BackendPool::new(&cfg.backends));
        let stats = Arc::new(RouterStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let registry = ConnRegistry::new(cfg.max_conns);
        let prober_handle = {
            let (cfg, pool, stats, stop) = (
                Arc::clone(&cfg),
                Arc::clone(&pool),
                Arc::clone(&stats),
                Arc::clone(&stop),
            );
            thread::Builder::new()
                .name("router-prober".into())
                .spawn(move || prober_loop(&cfg, &pool, &stats, &stop))?
        };
        let accept_handle = {
            let (cfg, pool, stats, stop, registry) = (
                Arc::clone(&cfg),
                Arc::clone(&pool),
                Arc::clone(&stats),
                Arc::clone(&stop),
                Arc::clone(&registry),
            );
            thread::Builder::new()
                .name("router-accept".into())
                .spawn(move || accept_loop(&listener, &cfg, &pool, &stats, &stop, &registry))?
        };
        Ok(Router {
            addr,
            cfg,
            pool,
            stats,
            stop,
            registry,
            accept_handle: Some(accept_handle),
            prober_handle: Some(prober_handle),
        })
    }

    /// The bound listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The configuration this router runs with.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// The router's counters.
    pub fn stats(&self) -> &Arc<RouterStats> {
        &self.stats
    }

    /// The backend pool (health states, inflight, generations).
    pub fn pool(&self) -> &Arc<BackendPool> {
        &self.pool
    }

    /// Live client connections right now.
    pub fn live_connections(&self) -> usize {
        self.registry.live()
    }

    /// Stops accepting, force-closes live client connections, and joins
    /// the prober. Clients mid-request observe a closed connection.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        self.registry.close_all();
        self.registry.wait_drained(SHUTDOWN_DRAIN_TIMEOUT);
        if let Some(h) = self.prober_handle.take() {
            let _ = h.join();
        }
    }
}

/// One pooled connection to a backend. `generation` is the backend's
/// generation at open time; an ejection bumps the backend's counter, so
/// a mismatch means "opened before the replica was declared dead" and
/// the connection is drained (closed) instead of reused.
struct BackendConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    generation: u64,
    /// The most recent reply line; reused across exchanges, and swapped
    /// with the client connection's buffer when the line is relayed.
    reply: Vec<u8>,
}

fn open_conn(addr: SocketAddr, generation: u64, cfg: &RouterConfig) -> std::io::Result<BackendConn> {
    let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)?;
    stream.set_nodelay(true).ok();
    let io_timeout = (!cfg.io_timeout.is_zero()).then_some(cfg.io_timeout);
    stream.set_read_timeout(io_timeout)?;
    stream.set_write_timeout(io_timeout)?;
    Ok(BackendConn {
        reader: BufReader::new(stream.try_clone()?),
        writer: stream,
        generation,
        reply: Vec::new(),
    })
}

/// Writes one request line and reads one reply line into `conn.reply`
/// (line end cut). Any error — including a clean EOF, which mid-exchange
/// means the replica died — leaves the connection unusable (possible
/// stream desync), so the caller must drop it.
fn exchange(conn: &mut BackendConn, line: &str, read_budget: Duration) -> std::io::Result<()> {
    // A shrinking deadline budget caps the read: waiting the full
    // io_timeout on a doomed attempt would eat the failover attempts.
    conn.writer
        .set_read_timeout(Some(read_budget.max(Duration::from_millis(1))))?;
    conn.writer.write_all(line.as_bytes())?;
    conn.writer.write_all(b"\n")?;
    conn.reply.clear();
    if conn.reader.read_until(b'\n', &mut conn.reply)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "backend closed mid-request",
        ));
    }
    while let Some(b'\n' | b'\r') = conn.reply.last() {
        conn.reply.pop();
    }
    Ok(())
}

fn prober_loop(cfg: &RouterConfig, pool: &BackendPool, stats: &RouterStats, stop: &AtomicBool) {
    let mut last_round = Instant::now() - cfg.probe_interval;
    while !stop.load(Ordering::SeqCst) {
        if last_round.elapsed() < cfg.probe_interval {
            thread::sleep(PROBER_TICK.min(cfg.probe_interval));
            continue;
        }
        last_round = Instant::now();
        for backend in pool.backends() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let due = match backend.state() {
                crate::HealthState::Healthy => true,
                // Ejected backends are probed only once the half-open
                // door opens; a resting replica is left alone.
                crate::HealthState::Ejected | crate::HealthState::HalfOpen => {
                    backend.tick_halfopen(cfg.halfopen_after)
                }
            };
            if !due {
                continue;
            }
            stats.add_probes(1);
            if probe(backend.addr(), cfg) {
                backend.note_success(stats);
            } else {
                stats.add_probe_failures(1);
                backend.note_failure(cfg.eject_after, stats);
            }
        }
    }
}

/// One health probe: a `stats` request must come back as a well-formed
/// `ok` reply within the io timeout.
fn probe(addr: SocketAddr, cfg: &RouterConfig) -> bool {
    let mut conn = match open_conn(addr, 0, cfg) {
        Ok(c) => c,
        Err(_) => return false,
    };
    exchange(&mut conn, "{\"op\":\"stats\"}", cfg.io_timeout).is_ok()
        && protocol::classify_reply(&conn.reply) == Ok(ReplyClass::Ok)
}

fn accept_loop(
    listener: &TcpListener,
    cfg: &Arc<RouterConfig>,
    pool: &Arc<BackendPool>,
    stats: &Arc<RouterStats>,
    stop: &Arc<AtomicBool>,
    registry: &Arc<ConnRegistry>,
) {
    let mut backoff = ACCEPT_BACKOFF_START;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match stream {
            Ok(s) => {
                backoff = ACCEPT_BACKOFF_START;
                s
            }
            Err(_) => {
                thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                continue;
            }
        };
        let Some(guard) = registry.try_register(&stream) else {
            refuse_busy(&stream, cfg);
            continue;
        };
        let (cfg, pool, stats) = (Arc::clone(cfg), Arc::clone(pool), Arc::clone(stats));
        // On spawn failure (thread exhaustion) the closure is dropped,
        // which closes the socket — the client sees a clean refusal.
        let _ = thread::Builder::new()
            .name("router-conn".into())
            .spawn(move || {
                let _guard = guard;
                let _ = client_loop(&stream, &cfg, &pool, &stats);
            });
    }
}

fn refuse_busy(stream: &TcpStream, cfg: &RouterConfig) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let err = ServeError::new(
        ErrorKind::Busy,
        format!(
            "router connection limit {} reached; retry shortly",
            cfg.max_conns
        ),
    );
    let mut line = protocol::encode_error(None, &err);
    line.push('\n');
    let _ = (&mut &*stream).write_all(line.as_bytes());
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn client_loop(
    stream: &TcpStream,
    cfg: &RouterConfig,
    pool: &BackendPool,
    stats: &RouterStats,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let io_timeout = (!cfg.io_timeout.is_zero()).then_some(cfg.io_timeout);
    stream.set_read_timeout(io_timeout)?;
    stream.set_write_timeout(io_timeout)?;
    let mut reader = BoundedLineReader::new(stream.try_clone()?, cfg.max_line_bytes);
    let mut writer = stream.try_clone()?;
    // Pooled backend connections of THIS client connection, by backend
    // index. Per-connection pooling keeps request/reply pairing trivial
    // (one line in flight per backend socket) at the cost of more
    // sockets; replicas already bound their own connection counts.
    let mut conns: HashMap<usize, BackendConn> = HashMap::new();
    // The one reply line this connection is about to send, newline
    // included so it leaves in a single write.
    let mut reply: Vec<u8> = Vec::new();
    loop {
        let line = match reader.read_line() {
            Ok(LineOutcome::Eof) => return Ok(()),
            Ok(LineOutcome::Line(line)) => line,
            Ok(LineOutcome::TooLong) => {
                let err = ServeError::new(
                    ErrorKind::Malformed,
                    format!("request line exceeds {} bytes", cfg.max_line_bytes),
                );
                let mut refusal = protocol::encode_error(None, &err);
                refusal.push('\n');
                writer.write_all(refusal.as_bytes())?;
                return Ok(());
            }
            // An idle keep-alive connection timing out is a normal
            // close, not an error.
            Err(ref e) if is_timeout(e) => return Ok(()),
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        dispatch(&line, cfg, pool, stats, &mut conns, &mut reply);
        reply.push(b'\n');
        writer.write_all(&reply)?;
    }
}

/// Routes one request line and leaves in `reply` the one reply line the
/// client gets (no newline). Failover policy:
///
/// * A transport failure (connect/write/read error, EOF, garbage reply)
///   counts against the backend's health, drops the pooled connection,
///   and re-dispatches to a different healthy replica.
/// * A *retryable* typed reply (`overloaded`, `queue_full`, `busy`,
///   `transport`) re-dispatches too, but with no health penalty — a
///   shedding replica is alive — and over a kept connection.
/// * Any other reply is relayed verbatim, so the client's `id` (echoed
///   by the replica) survives the failover untouched.
///
/// The budget is the request's own `deadline_ms` when present, else
/// [`RouterConfig::default_budget`]; attempts are further capped at
/// `1 + max_failovers`. An unparseable line gets exactly one attempt —
/// the backend's `malformed` verdict is relayed, never retried.
fn dispatch(
    line: &str,
    cfg: &RouterConfig,
    pool: &BackendPool,
    stats: &RouterStats,
    conns: &mut HashMap<usize, BackendConn>,
    reply: &mut Vec<u8>,
) {
    let parsed = protocol::parse_request(line).ok();
    let id = parsed.as_ref().and_then(|r| r.id);
    let budget = parsed
        .as_ref()
        .and_then(|r| r.deadline_ms)
        .map(Duration::from_millis)
        .unwrap_or(cfg.default_budget);
    let give_up_at = Instant::now() + budget;
    let max_attempts = if parsed.is_some() {
        cfg.max_failovers.saturating_add(1)
    } else {
        1
    };
    let mut tried: Vec<usize> = Vec::new();
    let mut last_err: Option<ServeError> = None;
    let mut attempts = 0u32;
    while attempts < max_attempts {
        let now = Instant::now();
        if attempts > 0 && now >= give_up_at {
            break;
        }
        let Some(idx) = pool.pick(&tried) else { break };
        if attempts > 0 {
            stats.add_failovers(1);
        }
        attempts += 1;
        let backend = &pool.backends()[idx];
        let pooled = match conns.remove(&idx) {
            Some(c) if c.generation == backend.generation() => Some(c),
            Some(_stale) => {
                // Opened before this backend's last ejection: drain it
                // (dropping closes the socket) rather than trust it.
                stats.add_drained_conns(1);
                None
            }
            None => None,
        };
        let mut conn = match pooled
            .map(Ok)
            .unwrap_or_else(|| open_conn(backend.addr(), backend.generation(), cfg))
        {
            Ok(c) => c,
            Err(e) => {
                backend.note_failure(cfg.eject_after, stats);
                tried.push(idx);
                last_err = Some(ServeError::new(
                    ErrorKind::Transport,
                    format!("backend {}: connect failed: {e}", backend.addr()),
                ));
                continue;
            }
        };
        let read_budget = give_up_at
            .saturating_duration_since(Instant::now())
            .min(cfg.io_timeout);
        backend.start();
        stats.add_forwarded(1);
        let outcome = exchange(&mut conn, line, read_budget);
        backend.finish();
        if let Err(e) = outcome {
            backend.note_failure(cfg.eject_after, stats);
            tried.push(idx);
            last_err = Some(ServeError::new(
                ErrorKind::Transport,
                format!("backend {} failed mid-request: {e}", backend.addr()),
            ));
            continue;
        }
        // One validating pass over the whole line and nothing kept of it:
        // the hop needs "relay, retry elsewhere, or fault", not the tree.
        match protocol::classify_reply(&conn.reply) {
            Ok(ReplyClass::Error(e)) if e.kind.is_retryable() && max_attempts > 1 => {
                // The replica is alive and talking — keep its connection
                // and its health, just take the work elsewhere.
                backend.note_success(stats);
                conns.insert(idx, conn);
                tried.push(idx);
                last_err = Some(e);
            }
            Ok(_) => {
                backend.note_success(stats);
                // Hand the line over by swapping buffers: both keep their
                // capacity for the next reply.
                std::mem::swap(reply, &mut conn.reply);
                conns.insert(idx, conn);
                stats.add_answered(1);
                return;
            }
            Err(e) => {
                // Garbage on a trusted stream: possible desync, treat
                // like a transport fault.
                backend.note_failure(cfg.eject_after, stats);
                tried.push(idx);
                last_err = Some(ServeError::new(
                    ErrorKind::Transport,
                    format!("backend {} sent an undecodable reply: {e}", backend.addr()),
                ));
            }
        }
    }
    let err = match last_err {
        Some(err) => {
            stats.add_retries_exhausted(1);
            err
        }
        None => {
            stats.add_no_backend(1);
            ServeError::overloaded(NO_BACKEND_RETRY_MS, "no healthy backend in rotation")
        }
    };
    reply.clear();
    reply.extend_from_slice(protocol::encode_error(id, &err).as_bytes());
}
