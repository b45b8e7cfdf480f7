//! The router's front: a [`LineFront`] whose lines are relayed to the
//! backends by the failover dispatch path, and the prober thread beside
//! it.
//!
//! The router speaks the backends' own line-delimited JSON protocol on
//! both sides, so a request line is relayed verbatim: whatever `id` the
//! client chose is echoed by whichever replica finally answers, and a
//! failed-over request is answered exactly once — the first well-formed
//! reply wins and nothing else is sent for that line. The client-facing
//! edge (connection cap, timeouts, bounded lines, forced close) is the
//! same hardened front `phast-serve` listens through, and every backend
//! socket — pooled or the prober's — is a [`LineConn`].

use crate::backend::BackendPool;
use crate::stats::RouterStats;
use crate::{HealthState, RouterConfig};
use phast_serve::conn::{EdgeEvent, FrontLimits, LineConn, LineFront, LineService};
use phast_serve::protocol::{self, ErrorKind, ReplyClass, ServeError};
use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Sleep slice of the prober loop, so shutdown is never blocked behind a
/// full probe interval.
const PROBER_TICK: Duration = Duration::from_millis(10);

/// `retry_after_ms` hint sent when no backend is healthy: long enough
/// for an eject/half-open/recover round trip at default tuning.
const NO_BACKEND_RETRY_MS: u64 = 200;

/// What the connection threads and the prober share.
struct Shared {
    cfg: RouterConfig,
    pool: Arc<BackendPool>,
    stats: Arc<RouterStats>,
    /// Stops the prober.
    stop: AtomicBool,
}

/// A running failover router: one listening port, N backend replicas.
pub struct Router {
    front: LineFront,
    shared: Arc<Shared>,
    prober_handle: Option<thread::JoinHandle<()>>,
}

impl Router {
    /// Binds `addr`, starts the prober and the accept loop, and returns
    /// once the port is listening. Backends all start healthy; dead ones
    /// are ejected by the prober within a few probe intervals.
    pub fn spawn(cfg: RouterConfig, addr: impl ToSocketAddrs) -> std::io::Result<Router> {
        let limits = FrontLimits {
            max_conns: cfg.max_conns,
            io_timeout: cfg.io_timeout,
            max_line_bytes: cfg.max_line_bytes,
        };
        let shared = Arc::new(Shared {
            pool: Arc::new(BackendPool::new(&cfg.backends)),
            stats: Arc::new(RouterStats::default()),
            stop: AtomicBool::new(false),
            cfg,
        });
        let front = LineFront::spawn(Arc::clone(&shared), addr, limits, "router")?;
        let prober = Arc::clone(&shared);
        let prober_handle = thread::Builder::new()
            .name("router-prober".into())
            .spawn(move || prober_loop(&prober))?;
        Ok(Router {
            front,
            shared,
            prober_handle: Some(prober_handle),
        })
    }

    /// The bound listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The configuration this router runs with.
    pub fn config(&self) -> &RouterConfig {
        &self.shared.cfg
    }

    /// The router's counters.
    pub fn stats(&self) -> &Arc<RouterStats> {
        &self.shared.stats
    }

    /// The backend pool (health states, inflight, generations).
    pub fn pool(&self) -> &Arc<BackendPool> {
        &self.shared.pool
    }

    /// Live client connections right now.
    pub fn live_connections(&self) -> usize {
        self.front.live_connections()
    }

    /// Stops accepting, force-closes live client connections and waits
    /// for their threads, and joins the prober. Clients mid-request
    /// observe a closed connection.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.front.shutdown();
    }
}

impl Drop for Router {
    /// A dropped router takes its port and its threads with it: the front
    /// closes first (so the port is free even while a probe is still
    /// waiting out a dead backend), then the prober is joined.
    fn drop(&mut self) {
        self.front.close();
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.prober_handle.take() {
            let _ = h.join();
        }
    }
}

/// One pooled connection to a backend. `generation` is the backend's
/// generation at open time; an ejection bumps the backend's counter, so
/// a mismatch means "opened before the replica was declared dead" and
/// the connection is drained (closed) instead of reused.
struct Pooled {
    conn: LineConn,
    generation: u64,
}

/// State of one client connection.
#[derive(Default)]
struct ClientConn {
    /// Pooled backend connections of THIS client connection, by backend
    /// index. Per-connection pooling keeps request/reply pairing trivial
    /// (one line in flight per backend socket) at the cost of more
    /// sockets; replicas already bound their own connection counts.
    backends: HashMap<usize, Pooled>,
    /// The one reply line this connection is about to send; a relayed
    /// line arrives here by buffer swap, not by copy.
    reply: Vec<u8>,
}

impl LineService for Shared {
    type Conn = ClientConn;

    fn answer<'c>(&self, conn: &'c mut ClientConn, line: &str) -> &'c [u8] {
        self.dispatch(line, conn);
        conn.reply.push(b'\n');
        &conn.reply
    }

    fn count(&self, event: EdgeEvent) {
        match event {
            EdgeEvent::RefusedBusy => self.stats.add_refused_busy(1),
            EdgeEvent::TimedOut => self.stats.add_timed_out_connections(1),
            EdgeEvent::OversizedLine => self.stats.add_oversized_lines(1),
            EdgeEvent::AcceptError => self.stats.add_accept_errors(1),
        }
    }
}

fn prober_loop(shared: &Shared) {
    let (cfg, pool, stats, stop) = (&shared.cfg, &shared.pool, &shared.stats, &shared.stop);
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
                HealthState::Healthy => true,
                // Ejected backends are probed only once the half-open
                // door opens; a resting replica is left alone.
                HealthState::Ejected | HealthState::HalfOpen => {
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
    LineConn::connect(addr, cfg.connect_timeout, cfg.io_timeout).is_ok_and(|mut conn| {
        conn.exchange("{\"op\":\"stats\"}", None).is_ok()
            && protocol::classify_reply(conn.reply()) == Ok(ReplyClass::Ok)
    })
}

impl Shared {
    /// Routes one request line and leaves in `client.reply` the one reply line
    /// the client gets (no newline). Failover policy:
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
    fn dispatch(&self, line: &str, client: &mut ClientConn) {
        let (cfg, pool, stats) = (&self.cfg, &self.pool, &self.stats);
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
            match self.attempt(idx, line, give_up_at, max_attempts > 1, client) {
                Ok(None) => {
                    stats.add_answered(1);
                    return;
                }
                // The replica is alive and talking — it keeps its health,
                // the work just goes elsewhere.
                Ok(Some(retryable)) => last_err = Some(retryable),
                Err(fault) => {
                    pool.backends()[idx].note_failure(cfg.eject_after, stats);
                    last_err = Some(ServeError::new(ErrorKind::Transport, fault));
                }
            }
            tried.push(idx);
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
        client.reply.clear();
        client
            .reply
            .extend_from_slice(protocol::encode_error(id, &err).as_bytes());
    }

    /// One attempt of `line` on backend `idx`, over its pooled connection
    /// or a fresh one. `Ok(None)`: the reply line is in `client.reply`, to be
    /// relayed. `Ok(Some(e))`: the replica answered with the retryable
    /// error `e` and `may_retry` — its connection is kept. `Err(why)`: a
    /// transport fault; whatever connection was involved is dropped
    /// (closed), since a poisoned or lying stream cannot be trusted again.
    fn attempt(
        &self,
        idx: usize,
        line: &str,
        give_up_at: Instant,
        may_retry: bool,
        client: &mut ClientConn,
    ) -> Result<Option<ServeError>, String> {
        let (cfg, stats, backend) = (&self.cfg, &self.stats, &self.pool.backends()[idx]);
        let addr = backend.addr();
        let generation = backend.generation();
        let mut pooled = match client.backends.remove(&idx) {
            Some(pooled) if pooled.generation == generation => pooled,
            stale => {
                if stale.is_some() {
                    // Opened before this backend's last ejection: drain it
                    // (dropping closes the socket) rather than trust it.
                    stats.add_drained_conns(1);
                }
                let conn = LineConn::connect(addr, cfg.connect_timeout, cfg.io_timeout)
                    .map_err(|e| format!("backend {addr}: connect failed: {e}"))?;
                Pooled { conn, generation }
            }
        };
        // A shrinking deadline budget caps the read: waiting the full
        // io_timeout on a doomed attempt would eat the failover attempts.
        let read_budget = give_up_at
            .saturating_duration_since(Instant::now())
            .min(cfg.io_timeout);
        backend.start();
        stats.add_forwarded(1);
        let outcome = pooled.conn.exchange(line, Some(read_budget));
        backend.finish();
        outcome.map_err(|e| format!("backend {addr} failed mid-request: {e}"))?;
        // One validating pass over the whole line and nothing kept of it:
        // the hop needs "relay, retry elsewhere, or fault", not the tree.
        // Garbage on a trusted stream is a possible desync: a fault too.
        let class = protocol::classify_reply(pooled.conn.reply())
            .map_err(|e| format!("backend {addr} sent an undecodable reply: {e}"))?;
        backend.note_success(stats);
        let retryable = match class {
            ReplyClass::Error(e) if e.kind.is_retryable() && may_retry => Some(e),
            _ => {
                pooled.conn.swap_reply(&mut client.reply);
                None
            }
        };
        client.backends.insert(idx, pooled);
        Ok(retryable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// A router dropped without `shutdown()` used to keep its port bound
    /// and its accept and prober threads running for the life of the
    /// process.
    #[test]
    fn a_dropped_router_frees_its_port() {
        // A backend that accepts and hangs up: every probe runs and fails.
        let backend = TcpListener::bind("127.0.0.1:0").unwrap();
        let cfg = RouterConfig {
            backends: vec![backend.local_addr().unwrap()],
            probe_interval: Duration::from_millis(5),
            ..RouterConfig::default()
        };
        std::thread::spawn(move || backend.incoming().for_each(drop));
        let router = Router::spawn(cfg, "127.0.0.1:0").unwrap();
        let addr = router.local_addr();
        let stats = Arc::clone(router.stats());
        while stats.probes() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        drop(TcpStream::connect(addr).expect("the router is listening"));

        drop(router);
        let t = Instant::now();
        let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(300));
        assert!(refused.is_err(), "a dropped router still accepts on {addr}");
        assert!(
            t.elapsed() < Duration::from_millis(300),
            "refusal took {:?}",
            t.elapsed()
        );
        // The prober went with it: no probe is sent any more.
        let probes = stats.probes();
        thread::sleep(Duration::from_millis(50));
        assert_eq!(stats.probes(), probes, "router-prober outlived its router");
    }
}
