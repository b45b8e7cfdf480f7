//! The std-only TCP front end: one accept loop, one thread per
//! connection, line-delimited JSON in both directions.
//!
//! Robustness contract: a malformed or invalid request line produces a
//! typed error *reply* and the connection keeps serving; only an I/O
//! failure (or the client closing its half) ends a connection thread.
//! The edge is hardened against hostile and broken clients:
//!
//! * **Bounded connections.** At most `ServeConfig::max_conns` live
//!   connections; one past the cap gets a typed `busy` reply and an
//!   immediate close (`refused_busy` counter), so accepted clients keep
//!   their latency instead of sharing it with a flood.
//! * **Socket timeouts.** Every connection carries read/write timeouts
//!   (`ServeConfig::io_timeout`). A slowloris writer or a dead client is
//!   reaped when its socket stalls past the timeout
//!   (`timed_out_connections` counter) — it cannot pin a thread forever.
//! * **Bounded request lines.** A line longer than
//!   `ServeConfig::max_line_bytes` is answered with a typed `malformed`
//!   reply and the connection is closed; the oversized tail is never
//!   buffered (see [`BoundedLineReader`]).
//! * **Accept-loop backoff.** Persistent `accept()` failures (e.g.
//!   EMFILE) back off with a capped sleep and count `accept_errors`
//!   instead of tight-spinning the listener thread.
//! * **Forced shutdown.** [`Server::shutdown`] stops the accept loop,
//!   closes every live connection through the [`ConnRegistry`] (instead
//!   of waiting for clients to hang up), then drains the scheduler so
//!   every admitted request is answered before the process moves on.

use crate::conn::{BoundedLineReader, ConnRegistry, LineOutcome};
use crate::protocol::{self, ErrorKind, Op, ServeError};
use crate::scheduler::Service;
use phast_core::HeteroAnswer;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// First sleep after an `accept()` failure; doubles per consecutive
/// failure up to [`ACCEPT_BACKOFF_MAX`], resets on success.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(5);

/// Cap of the accept-failure backoff: EMFILE-style conditions clear when
/// connections close, so the loop must keep probing.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

/// How long [`Server::shutdown`] waits for connection threads to observe
/// their closed sockets before giving up on the stragglers.
const SHUTDOWN_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// A running TCP front end over a [`Service`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    service: Arc<Service>,
    registry: Arc<ConnRegistry>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections. Connection limits and timeouts come
    /// from the service's [`ServeConfig`](crate::ServeConfig).
    pub fn spawn(service: Arc<Service>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry = ConnRegistry::new(service.config().max_conns);
        let accept_handle = {
            let stop = Arc::clone(&stop);
            let service = Arc::clone(&service);
            let registry = Arc::clone(&registry);
            std::thread::Builder::new()
                .name("phast-serve-accept".into())
                .spawn(move || accept_loop(&listener, &stop, &service, &registry))?
        };
        Ok(Server {
            addr,
            stop,
            accept_handle: Some(accept_handle),
            service,
            registry,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind this front end.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Live connections right now.
    pub fn live_connections(&self) -> usize {
        self.registry.live()
    }

    /// Stops accepting, force-closes live connections, then drains the
    /// scheduler (graceful for admitted requests, forceful for sockets).
    /// A client mid-request observes a closed connection, not a hang.
    pub fn shutdown(mut self) {
        self.stop_accepting();
        self.registry.close_all();
        self.registry.wait_drained(SHUTDOWN_DRAIN_TIMEOUT);
        self.service.shutdown();
    }

    fn stop_accepting(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
        self.registry.close_all();
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    service: &Arc<Service>,
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
                // EMFILE and friends: pressure that only clears when
                // connections close. Sleep instead of spinning, but keep
                // probing — and count it, so the condition is visible.
                service.stats().add_accept_errors(1);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                continue;
            }
        };
        let Some(guard) = registry.try_register(&stream) else {
            refuse_busy(&stream, service);
            continue;
        };
        let svc = Arc::clone(service);
        if std::thread::Builder::new()
            .name("phast-serve-conn".into())
            .spawn(move || {
                let _ = serve_connection(&stream, &svc);
                drop(guard);
            })
            .is_err()
        {
            // Thread spawn failed (resource exhaustion). The closure —
            // and with it the stream and its registry guard — is dropped
            // by the failed spawn, closing and deregistering the
            // connection; only the counter is left to us.
            service.stats().add_accept_errors(1);
        }
    }
}

/// Writes the one-line `busy` refusal and closes. Best-effort: a client
/// that cannot even take one line just sees the close.
fn refuse_busy(stream: &TcpStream, service: &Service) {
    service.stats().add_refused_busy(1);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let err = ServeError::new(
        ErrorKind::Busy,
        format!(
            "connection limit {} reached; retry shortly",
            service.config().max_conns
        ),
    );
    let mut line = protocol::encode_error(None, &err);
    line.push('\n');
    let _ = (&*stream).write_all(line.as_bytes());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Whether an I/O error is a socket-timeout expiry (platform-dependent
/// spelling: `WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Runs one connection until EOF, an I/O error or timeout, or an
/// oversized request line; every complete request line gets exactly one
/// reply line.
fn serve_connection(stream: &TcpStream, service: &Service) -> std::io::Result<()> {
    let cfg = service.config();
    stream.set_nodelay(true).ok();
    let io_timeout = (!cfg.io_timeout.is_zero()).then_some(cfg.io_timeout);
    stream.set_read_timeout(io_timeout)?;
    stream.set_write_timeout(io_timeout)?;
    let mut reader = BoundedLineReader::new(stream.try_clone()?, cfg.max_line_bytes);
    // One reply buffer per connection: an answer is encoded straight into
    // it and leaves in one write, so a served tree allocates nothing here.
    let mut reply = String::new();
    loop {
        reply.clear();
        match reader.read_line() {
            Ok(LineOutcome::Eof) => return Ok(()),
            Ok(LineOutcome::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle_line_into(service, &line, &mut reply);
            }
            Ok(LineOutcome::TooLong) => {
                // Reply, then close: there is no resynchronizing with a
                // writer this far out of protocol.
                service.stats().add_rejected_invalid(1);
                let err = ServeError::new(
                    ErrorKind::Malformed,
                    format!("request line exceeds {} bytes", cfg.max_line_bytes),
                );
                reply.push_str(&protocol::encode_error(None, &err));
                let _ = write_reply(stream, &mut reply);
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return Ok(());
            }
            Err(e) if is_timeout(&e) => {
                // Slowloris writer or dead client: reap the connection.
                service.stats().add_timed_out_connections(1);
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        if let Err(e) = write_reply(stream, &mut reply) {
            if is_timeout(&e) {
                // A reader that stopped draining its replies is as dead
                // as a writer that stopped sending.
                service.stats().add_timed_out_connections(1);
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            return Err(e);
        }
    }
}

/// Sends `reply` and its newline in one write: on a `TCP_NODELAY` socket
/// a separate one-byte write is a segment and a wake-up of its own.
fn write_reply(mut stream: &TcpStream, reply: &mut String) -> std::io::Result<()> {
    reply.push('\n');
    stream.write_all(reply.as_bytes())
}

/// Parses and executes one request line, returning the reply line. Never
/// panics on client input — every failure maps to a typed error reply.
pub fn handle_line(service: &Service, line: &str) -> String {
    let mut reply = String::new();
    handle_line_into(service, line, &mut reply);
    reply
}

/// [`handle_line`] appending the reply line to a caller-owned buffer.
pub fn handle_line_into(service: &Service, line: &str, reply: &mut String) {
    let (id, outcome) = match protocol::parse_request(line) {
        Err(err) => {
            service.stats().add_rejected_invalid(1);
            (None, Err(err))
        }
        Ok(req) => {
            let deadline = req.deadline_ms.map(Duration::from_millis);
            let outcome = match req.op {
                Op::Stats => {
                    let report = service.stats().report("phast-serve");
                    reply.push_str(&protocol::encode_report(req.id, &report));
                    return;
                }
                Op::Query(query) => service.call_with_epoch(query, deadline),
                Op::Matrix { sources, targets } => service
                    .matrix_with_epoch(sources, targets, deadline)
                    .map(|(rows, epoch)| (HeteroAnswer::Matrix(rows), epoch)),
            };
            (req.id, outcome)
        }
    };
    match outcome {
        Ok((answer, epoch)) => protocol::encode_answer_into(reply, id, &answer, Some(epoch)),
        Err(err) => reply.push_str(&protocol::encode_error(id, &err)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_reply, ErrorKind, Reply};
    use crate::scheduler::ServeConfig;
    use phast_core::HeteroAnswer;
    use phast_graph::gen::{Metric, RoadNetworkConfig};

    #[test]
    fn handle_line_maps_failures_to_typed_replies() {
        let net = RoadNetworkConfig::new(6, 6, 3, Metric::TravelTime).build();
        let svc = Service::for_graph(
            &net.graph,
            ServeConfig {
                window: Duration::from_millis(0),
                ..ServeConfig::default()
            },
        );
        let cases = [
            ("garbage", ErrorKind::Malformed),
            (r#"{"op":"fly","source":0}"#, ErrorKind::Malformed),
            (r#"{"op":"tree"}"#, ErrorKind::BadRequest),
            (r#"{"op":"tree","source":999999}"#, ErrorKind::BadRequest),
        ];
        for (line, kind) in cases {
            match decode_reply(&handle_line(&svc, line)).unwrap() {
                Reply::Error(e) => assert_eq!(e.kind, kind, "line {line}"),
                other => panic!("expected error for {line}, got {other:?}"),
            }
        }
        // And after all those failures a valid request still works.
        match decode_reply(&handle_line(&svc, r#"{"op":"p2p","source":0,"target":1}"#)).unwrap()
        {
            Reply::Answer(HeteroAnswer::Point(_)) => {}
            other => panic!("expected answer, got {other:?}"),
        }
        svc.shutdown();
    }

    #[test]
    fn server_binds_ephemeral_port_and_shuts_down() {
        let net = RoadNetworkConfig::new(6, 6, 4, Metric::TravelTime).build();
        let svc = Service::for_graph(&net.graph, ServeConfig::default());
        let srv = Server::spawn(svc, "127.0.0.1:0").unwrap();
        assert_ne!(srv.local_addr().port(), 0);
        srv.shutdown();
    }

    #[test]
    fn shutdown_closes_a_live_idle_connection() {
        use std::io::Read;
        let net = RoadNetworkConfig::new(6, 6, 4, Metric::TravelTime).build();
        let svc = Service::for_graph(&net.graph, ServeConfig::default());
        let srv = Server::spawn(svc, "127.0.0.1:0").unwrap();
        let mut idle = TcpStream::connect(srv.local_addr()).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Wait for the connection to be registered before shutting down.
        let t0 = std::time::Instant::now();
        while srv.live_connections() == 0 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(srv.live_connections(), 1);
        let t = std::time::Instant::now();
        srv.shutdown();
        assert!(
            t.elapsed() < Duration::from_secs(4),
            "shutdown must not wait on the idle client"
        );
        // The idle client observes the close instead of hanging.
        let mut buf = [0u8; 8];
        match idle.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("expected close, read {n} bytes"),
        }
    }
}
