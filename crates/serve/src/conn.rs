//! The one TCP edge of the serving tier: the hardened line front that
//! [`Server`](crate::Server) and `phast-router`'s `Router` listen through,
//! and the outbound line connection that [`Client`](crate::Client), the
//! router's backend pool and its prober talk through.
//!
//! **Inbound — [`LineFront`].** One accept loop, one thread per
//! connection, line-delimited JSON both ways: every complete request line
//! gets exactly one reply line, in one write. What a line *means* is
//! behind the [`LineService`] seam (the scheduler answers it, the router
//! relays it), which is also told when each connection opens and closes
//! (the scheduler counts its connections to close batch windows early);
//! what the edge enforces is the same for both:
//!
//! * **Bounded connections.** At most [`FrontLimits::max_conns`] live
//!   connections, tracked by the [`ConnRegistry`]; one past the cap gets a
//!   typed `busy` line and a close before a thread is ever spawned for it
//!   ([`EdgeEvent::RefusedBusy`]), so accepted clients keep their latency
//!   instead of sharing it with a flood.
//! * **Socket timeouts.** A slowloris writer, a dead client or a reader
//!   that stopped draining its replies is reaped when its socket stalls
//!   past [`FrontLimits::io_timeout`] ([`EdgeEvent::TimedOut`]) — it
//!   cannot pin a thread forever.
//! * **Bounded request lines.** `BufRead::read_line` happily buffers an
//!   attacker-controlled number of bytes looking for a `\n`; the
//!   [`BoundedLineReader`] reports [`LineOutcome::TooLong`] the moment
//!   [`FrontLimits::max_line_bytes`] is crossed, the front answers with a
//!   typed `malformed` line and closes ([`EdgeEvent::OversizedLine`]), and
//!   the oversized tail is never accumulated.
//! * **Accept-loop backoff.** Persistent `accept()` failures (EMFILE and
//!   friends) back off with a capped sleep and are counted
//!   ([`EdgeEvent::AcceptError`]) instead of tight-spinning the listener.
//! * **Forced shutdown.** [`LineFront::shutdown`] stops accepting, then
//!   closes every live socket through the registry, unblocking the
//!   connection threads mid-read instead of waiting on their clients; a
//!   dropped front does the same, so its port and threads never outlive it.
//!
//! **Outbound — [`LineConn`].** Connect under a timeout, then
//! [`exchange`](LineConn::exchange): request line and newline in one
//! write, one reply line read into a buffer the connection keeps. A
//! failed exchange poisons the connection (the stream may be desynced),
//! so it cannot be reused by accident.

use crate::protocol::{self, ErrorKind, ServeError};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tracks every live connection's socket handle, bounded by `max_conns`.
#[derive(Debug)]
pub struct ConnRegistry {
    max_conns: usize,
    next_id: AtomicU64,
    live: Mutex<HashMap<u64, TcpStream>>,
}

impl ConnRegistry {
    /// A registry admitting at most `max_conns` concurrent connections.
    pub fn new(max_conns: usize) -> Arc<ConnRegistry> {
        assert!(max_conns > 0, "need room for at least one connection");
        Arc::new(ConnRegistry {
            max_conns,
            next_id: AtomicU64::new(0),
            live: Mutex::new(HashMap::new()),
        })
    }

    /// Registers `stream`, returning a guard that deregisters on drop, or
    /// `None` when the cap is reached (the caller refuses the connection).
    pub fn try_register(self: &Arc<Self>, stream: &TcpStream) -> Option<ConnGuard> {
        let handle = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut live = self.live.lock().unwrap();
        if live.len() >= self.max_conns {
            return None;
        }
        live.insert(id, handle);
        Some(ConnGuard {
            registry: Arc::clone(self),
            id,
        })
    }

    /// Live connections right now.
    pub fn live(&self) -> usize {
        self.live.lock().unwrap().len()
    }

    /// Forcibly closes every live connection's socket. The connection
    /// threads observe the close as an I/O error on their next read or
    /// write and exit; their guards deregister them.
    pub fn close_all(&self) {
        let live = self.live.lock().unwrap();
        for stream in live.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Blocks until every connection has deregistered or `timeout`
    /// passes; returns whether the registry drained.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.live() > 0 {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }
}

/// Deregisters one connection on drop.
#[derive(Debug)]
pub struct ConnGuard {
    registry: Arc<ConnRegistry>,
    id: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.registry.live.lock().unwrap().remove(&self.id);
    }
}

/// One read attempt's result, with the pathological cases made explicit.
#[derive(Debug)]
pub enum LineOutcome {
    /// A complete line (without its `\n`), lossily decoded — invalid
    /// UTF-8 still reaches the parser, which rejects it as malformed
    /// JSON rather than tearing the connection down here.
    Line(String),
    /// Clean end of stream (a partial unterminated line is discarded).
    Eof,
    /// The line crossed the byte cap before a `\n` arrived. The caller
    /// replies `malformed` and closes — there is no way to resynchronize
    /// with a writer that is this far out of protocol.
    TooLong,
}

/// A line reader with a hard cap on buffered bytes per line.
#[derive(Debug)]
pub struct BoundedLineReader<R> {
    inner: R,
    max_line_bytes: usize,
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for `\n` (avoid re-scanning).
    scanned: usize,
}

impl<R: Read> BoundedLineReader<R> {
    /// Caps each line at `max_line_bytes` bytes (excluding the `\n`).
    pub fn new(inner: R, max_line_bytes: usize) -> Self {
        BoundedLineReader {
            inner,
            max_line_bytes,
            buf: Vec::new(),
            scanned: 0,
        }
    }

    /// Reads the next line. I/O errors (including read timeouts) surface
    /// as `Err`; the protocol-level pathologies as their [`LineOutcome`].
    pub fn read_line(&mut self) -> std::io::Result<LineOutcome> {
        loop {
            if let Some(nl) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let nl = self.scanned + nl;
                let line = String::from_utf8_lossy(&self.buf[..nl]).into_owned();
                self.buf.drain(..=nl);
                self.scanned = 0;
                return Ok(LineOutcome::Line(line));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.max_line_bytes {
                // Past the cap with no newline in sight: stop buffering.
                self.buf.clear();
                self.scanned = 0;
                return Ok(LineOutcome::TooLong);
            }
            let mut chunk = [0u8; 4096];
            // Never read past the cap by more than one chunk.
            let want = chunk
                .len()
                .min(self.max_line_bytes + 1 - self.buf.len().min(self.max_line_bytes));
            match self.inner.read(&mut chunk[..want])? {
                0 => return Ok(LineOutcome::Eof),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }
}

/// First sleep after an `accept()` failure; doubles per consecutive
/// failure up to [`ACCEPT_BACKOFF_MAX`], resets on success.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(5);

/// Cap of the accept-failure backoff: EMFILE-style conditions clear when
/// connections close, so the loop must keep probing.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

/// How long [`LineFront::shutdown`] waits for connection threads to
/// observe their closed sockets before giving up on the stragglers.
const SHUTDOWN_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Write timeout of the `busy` refusal: a client that cannot even take
/// one line just sees the close.
const REFUSAL_WRITE_TIMEOUT: Duration = Duration::from_millis(200);

/// What a [`LineFront`] enforces; each tier fills it from the fields of
/// the same names in its own configuration.
#[derive(Clone, Copy, Debug)]
pub struct FrontLimits {
    /// Concurrent connections admitted before typed `busy` refusals.
    pub max_conns: usize,
    /// Read/write timeout per socket operation; zero disables it.
    pub io_timeout: Duration,
    /// Longest accepted request line in bytes (excluding the `\n`).
    pub max_line_bytes: usize,
}

/// An enforcement action of the edge, reported to [`LineService::count`]
/// so that each tier counts it in its own table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeEvent {
    /// A connection past the cap was refused with a typed `busy` line.
    RefusedBusy,
    /// A read or write stalled past the I/O timeout; the connection was
    /// reaped.
    TimedOut,
    /// A request line crossed the byte cap; the connection got a typed
    /// `malformed` line and was closed.
    OversizedLine,
    /// `accept()` failed, or no thread could be spawned for a connection.
    AcceptError,
}

/// What a [`LineFront`] serves: the meaning of a request line. The front
/// owns sockets, threads and limits; the service owns everything else.
pub trait LineService: Send + Sync + 'static {
    /// State of one client connection, default-constructed on its thread.
    /// It owns the reply buffer, so a large reply is built (or swapped in)
    /// in memory the connection already holds.
    type Conn: Default;

    /// Answers one non-empty request line with exactly one reply line,
    /// `\n` included, which the front sends in a single write. Must not
    /// panic on client input: every failure is a typed error *line*.
    fn answer<'c>(&self, conn: &'c mut Self::Conn, line: &str) -> &'c [u8];

    /// Counts one enforcement action of the edge.
    fn count(&self, event: EdgeEvent);

    /// A connection was admitted; [`close`](Self::close) follows exactly
    /// once, when it ends for any reason. Between the two, the front
    /// calls [`answer`](Self::answer) for one line at a time and reads
    /// the next line only after the reply is written.
    fn open(&self) {}

    /// The connection an [`open`](Self::open) announced has ended.
    fn close(&self) {}
}

/// One admitted connection as its service counts it: opened on creation,
/// closed on drop — whether the connection thread returns, unwinds, or
/// never starts because the spawn failed.
struct Opened<S: LineService>(Arc<S>);

impl<S: LineService> Opened<S> {
    fn new(service: &Arc<S>) -> Self {
        service.open();
        Opened(Arc::clone(service))
    }
}

impl<S: LineService> Drop for Opened<S> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// A listening port served by one accept thread and one thread per
/// connection, answering through a [`LineService`].
#[derive(Debug)]
pub struct LineFront {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    registry: Arc<ConnRegistry>,
    accept_handle: Option<JoinHandle<()>>,
}

impl LineFront {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting. Threads are named `{name}-accept` and
    /// `{name}-conn`.
    pub fn spawn<S: LineService>(
        service: Arc<S>,
        addr: impl ToSocketAddrs,
        limits: FrontLimits,
        name: &'static str,
    ) -> std::io::Result<LineFront> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry = ConnRegistry::new(limits.max_conns);
        let accept_handle = {
            let (stop, registry) = (Arc::clone(&stop), Arc::clone(&registry));
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&listener, &stop, &service, &registry, limits, name))?
        };
        Ok(LineFront {
            addr,
            stop,
            registry,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connections right now.
    pub fn live_connections(&self) -> usize {
        self.registry.live()
    }

    /// Stops accepting (the port is free when this returns) and
    /// force-closes every live connection. Idempotent; `Drop` does this.
    pub fn close(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
            if let Some(h) = self.accept_handle.take() {
                let _ = h.join();
            }
        }
        self.registry.close_all();
    }

    /// [`close`](Self::close), then waits (bounded) for the connection
    /// threads to notice. A client mid-request observes a closed
    /// connection, not a hang.
    pub fn shutdown(&mut self) {
        self.close();
        self.registry.wait_drained(SHUTDOWN_DRAIN_TIMEOUT);
    }
}

impl Drop for LineFront {
    fn drop(&mut self) {
        self.close();
    }
}

fn accept_loop<S: LineService>(
    listener: &TcpListener,
    stop: &AtomicBool,
    service: &Arc<S>,
    registry: &Arc<ConnRegistry>,
    limits: FrontLimits,
    name: &str,
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
                service.count(EdgeEvent::AcceptError);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                continue;
            }
        };
        let Some(guard) = registry.try_register(&stream) else {
            service.count(EdgeEvent::RefusedBusy);
            let _ = stream.set_write_timeout(Some(REFUSAL_WRITE_TIMEOUT));
            let why = format!(
                "connection limit {} reached; retry shortly",
                limits.max_conns
            );
            refuse(&stream, ErrorKind::Busy, why);
            continue;
        };
        let opened = Opened::new(service);
        if std::thread::Builder::new()
            .name(format!("{name}-conn"))
            .spawn(move || {
                let _guard = guard;
                let _ = serve_connection(&stream, &*opened.0, limits);
            })
            .is_err()
        {
            // Thread spawn failed (resource exhaustion). The closure —
            // and with it the stream, its registry guard and its
            // `Opened` — is dropped by the failed spawn, closing and
            // deregistering the connection; only the counter is left to
            // us.
            service.count(EdgeEvent::AcceptError);
        }
    }
}

/// Writes one typed error line and closes. Best-effort: the peer is out
/// of protocol or out of luck either way.
fn refuse(mut stream: &TcpStream, kind: ErrorKind, why: String) {
    let mut line = protocol::encode_error(None, &ServeError::new(kind, why));
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

/// `TCP_NODELAY` plus the read/write timeouts — the socket options of
/// every line connection, inbound or outbound.
fn configure(stream: &TcpStream, io_timeout: Duration) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let io_timeout = (!io_timeout.is_zero()).then_some(io_timeout);
    stream.set_read_timeout(io_timeout)?;
    stream.set_write_timeout(io_timeout)
}

/// Runs one connection until EOF, an I/O error or timeout, or an
/// oversized request line.
fn serve_connection<S: LineService>(
    stream: &TcpStream,
    service: &S,
    limits: FrontLimits,
) -> std::io::Result<()> {
    configure(stream, limits.io_timeout)?;
    let mut reader = BoundedLineReader::new(stream, limits.max_line_bytes);
    let mut conn = S::Conn::default();
    // A stalled read is a slowloris writer or a dead client; a stalled
    // write is a reader that stopped draining its replies — as dead as a
    // writer that stopped sending. Both are reaped. (A socket timeout is
    // spelled `WouldBlock` on Unix, `TimedOut` on Windows.)
    let reap = |e: std::io::Error| {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        if matches!(e.kind(), WouldBlock | TimedOut) {
            service.count(EdgeEvent::TimedOut);
            let _ = stream.shutdown(Shutdown::Both);
        }
        e
    };
    loop {
        let line = match reader.read_line().map_err(reap)? {
            LineOutcome::Eof => return Ok(()),
            LineOutcome::Line(line) => line,
            LineOutcome::TooLong => {
                // Reply, then close: there is no resynchronizing with a
                // writer this far out of protocol.
                service.count(EdgeEvent::OversizedLine);
                let why = format!("request line exceeds {} bytes", limits.max_line_bytes);
                refuse(stream, ErrorKind::Malformed, why);
                return Ok(());
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        (&*stream)
            .write_all(service.answer(&mut conn, &line))
            .map_err(reap)?;
    }
}

/// One outbound connection speaking the line protocol: requests are
/// answered in order, so a call is one write and one line read.
#[derive(Debug)]
pub struct LineConn {
    /// Read through the buffer, written through `get_mut`.
    stream: BufReader<TcpStream>,
    /// The outgoing line and its newline, so they leave in one write: on
    /// a `TCP_NODELAY` socket a separate one-byte write is a segment and
    /// a wake-up of the peer's connection thread of its own.
    request: Vec<u8>,
    /// The most recent reply line; kept across exchanges so a tree reply
    /// is read into memory the connection already owns.
    reply: Vec<u8>,
    /// Set while an exchange is in flight and left set when it fails.
    poisoned: bool,
}

impl LineConn {
    /// Connects within `connect_timeout`; `io_timeout` then bounds every
    /// read and write (`Duration::ZERO` disables it).
    pub fn connect(
        addr: SocketAddr,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> std::io::Result<LineConn> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        configure(&stream, io_timeout)?;
        Ok(LineConn {
            stream: BufReader::new(stream),
            request: Vec::new(),
            reply: Vec::new(),
            poisoned: false,
        })
    }

    /// Sends `line` and reads the one reply line into
    /// [`reply`](Self::reply). `read_budget`, when given, replaces the
    /// socket's read timeout from this exchange on (a router attempt must
    /// not wait out the full I/O timeout on a shrinking deadline).
    ///
    /// Any error — including a clean EOF, which mid-exchange means the
    /// peer died — leaves the stream possibly desynced: the connection is
    /// poisoned and every later exchange fails without touching it.
    pub fn exchange(&mut self, line: &str, read_budget: Option<Duration>) -> std::io::Result<()> {
        if std::mem::replace(&mut self.poisoned, true) {
            return Err(std::io::Error::other(
                "connection poisoned by a failed exchange",
            ));
        }
        if let Some(budget) = read_budget {
            let budget = budget.max(Duration::from_millis(1));
            self.stream.get_ref().set_read_timeout(Some(budget))?;
        }
        self.request.clear();
        self.request.extend_from_slice(line.as_bytes());
        self.request.push(b'\n');
        self.stream.get_mut().write_all(&self.request)?;
        self.reply.clear();
        self.stream.read_until(b'\n', &mut self.reply)?;
        if self.reply.last() != Some(&b'\n') {
            // Nothing, or a line cut short: the peer died mid-reply.
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed the connection mid-request",
            ));
        }
        let end = self.reply.trim_ascii_end().len();
        self.reply.truncate(end);
        self.poisoned = false;
        Ok(())
    }

    /// The reply line of the last successful exchange, line end cut.
    pub fn reply(&self) -> &[u8] {
        &self.reply
    }

    /// Whether a failed exchange left this connection unusable.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Hands the most recent reply line over by swapping buffers: both
    /// sides keep their capacity for the next line.
    pub fn swap_reply(&mut self, other: &mut Vec<u8>) {
        std::mem::swap(&mut self.reply, other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(input: &[u8], cap: usize) -> Vec<String> {
        let mut r = BoundedLineReader::new(input, cap);
        let mut out = Vec::new();
        loop {
            match r.read_line().unwrap() {
                LineOutcome::Line(l) => out.push(l),
                LineOutcome::Eof => return out,
                LineOutcome::TooLong => {
                    out.push("<TOOLONG>".into());
                    return out;
                }
            }
        }
    }

    #[test]
    fn splits_lines_and_discards_trailing_partial() {
        assert_eq!(lines(b"a\nbb\nccc", 100), vec!["a", "bb"]);
        assert_eq!(lines(b"", 100), Vec::<String>::new());
        assert_eq!(lines(b"\n\n", 100), vec!["", ""]);
    }

    #[test]
    fn caps_an_unterminated_line() {
        let long = vec![b'x'; 10_000];
        assert_eq!(lines(&long, 100), vec!["<TOOLONG>"]);
        // Exactly at the cap with a newline is still fine.
        let mut ok = vec![b'y'; 100];
        ok.push(b'\n');
        assert_eq!(lines(&ok, 100), vec!["y".repeat(100)]);
    }

    #[test]
    fn invalid_utf8_is_decoded_lossily_not_fatal() {
        let out = lines(b"\xff\xfe\xfd\n", 100);
        assert_eq!(out.len(), 1);
        assert!(!out[0].is_empty());
    }

    #[test]
    fn registry_caps_and_closes() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let c1 = TcpStream::connect(addr).unwrap();
        let c2 = TcpStream::connect(addr).unwrap();
        let (s1, _) = listener.accept().unwrap();
        let (s2, _) = listener.accept().unwrap();
        let reg = ConnRegistry::new(1);
        let g1 = reg.try_register(&s1).expect("first fits");
        assert!(reg.try_register(&s2).is_none(), "cap of 1 is enforced");
        assert_eq!(reg.live(), 1);
        drop(g1);
        assert_eq!(reg.live(), 0);
        let _g2 = reg.try_register(&s2).expect("slot freed");
        drop(c1);
        drop(c2);
    }

    #[test]
    fn close_all_unblocks_a_reader() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let reg = ConnRegistry::new(4);
        let guard = reg.try_register(&server_side).unwrap();
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 16];
            let n = (&server_side).read(&mut buf); // blocks until close_all
            drop(guard);
            n
        });
        std::thread::sleep(Duration::from_millis(50));
        reg.close_all();
        // The blocked read returns (0 or an error — either unblocks).
        let _ = reader.join().unwrap();
        assert!(reg.wait_drained(Duration::from_secs(2)));
        drop(client);
    }

    /// A scripted peer: for each accepted connection, reads one request
    /// with a single `read` call, hands it to `script` together with the
    /// stream, and keeps going while the script returns true.
    fn scripted_peer(script: impl Fn(&[u8], &TcpStream) -> bool + Send + 'static) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for mut stream in listener.incoming().flatten() {
                let mut buf = [0u8; 256];
                loop {
                    let n = stream.read(&mut buf).unwrap_or(0);
                    if n == 0 || !script(&buf[..n], &stream) {
                        break;
                    }
                }
            }
        });
        addr
    }

    fn connect(addr: SocketAddr) -> LineConn {
        LineConn::connect(addr, Duration::from_secs(2), Duration::from_secs(5)).unwrap()
    }

    #[test]
    fn exchange_is_one_write_and_cuts_the_line_end() {
        let addr = scripted_peer(|request, mut stream| {
            // Line and newline arrive together: one write, one segment.
            assert_eq!(request, b"ping\n", "the request must leave in one write");
            stream.write_all(b"pong \t\r\n").is_ok()
        });
        let mut conn = connect(addr);
        conn.exchange("ping", None).unwrap();
        assert_eq!(conn.reply(), b"pong", "trailing \\r\\n and blanks are cut");
        conn.exchange("ping", Some(Duration::from_secs(5))).unwrap();
        assert_eq!(conn.reply(), b"pong");
        assert!(!conn.is_poisoned());
    }

    #[test]
    fn eof_mid_exchange_poisons_the_connection() {
        // First connection: hang up without a byte. Second: hang up
        // mid-line. Both are the peer dying mid-reply.
        let cut = AtomicBool::new(false);
        let addr = scripted_peer(move |_, mut stream| {
            if cut.swap(true, Ordering::SeqCst) {
                let _ = stream.write_all(b"{\"ok\":tr");
            }
            false
        });
        for what in ["nothing", "half a line"] {
            let mut conn = connect(addr);
            let err = conn.exchange("ping", None).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{what}");
            assert!(conn.is_poisoned(), "{what}");
            // Poisoned for good: the socket is not touched again.
            let err = conn.exchange("ping", None).expect_err("poisoned");
            assert_eq!(err.kind(), std::io::ErrorKind::Other, "{what}");
        }
    }

    #[test]
    fn reply_buffers_keep_their_capacity() {
        let addr = scripted_peer(|request, mut stream| {
            let reply = if request == b"big\n" {
                vec![b'x'; 100_000]
            } else {
                vec![b'y']
            };
            stream
                .write_all(&reply)
                .and_then(|()| stream.write_all(b"\n"))
                .is_ok()
        });
        let mut conn = connect(addr);
        conn.exchange("big", None).unwrap();
        assert_eq!(conn.reply().len(), 100_000);
        // A relay takes the line by swap and hands its old buffer back...
        let mut relay = Vec::new();
        conn.swap_reply(&mut relay);
        assert_eq!(relay.len(), 100_000);
        conn.exchange("small", None).unwrap();
        assert_eq!(conn.reply(), b"y");
        // ...so after one more swap each side holds a grown buffer again.
        conn.swap_reply(&mut relay);
        assert_eq!(relay, b"y");
        assert!(relay.capacity() < 100_000 && conn.reply.capacity() >= 100_000);
        conn.exchange("small", None).unwrap();
        assert!(
            conn.reply.capacity() >= 100_000,
            "a small reply must not shrink the buffer"
        );
    }

    /// Echoes each line with the number of lines its connection has sent,
    /// and records every edge event.
    #[derive(Default)]
    struct Echo {
        events: Mutex<Vec<EdgeEvent>>,
    }

    impl LineService for Echo {
        type Conn = (usize, Vec<u8>);

        fn answer<'c>(&self, (seen, reply): &'c mut Self::Conn, line: &str) -> &'c [u8] {
            *seen += 1;
            *reply = format!("{seen}:{line}\n").into_bytes();
            reply
        }

        fn count(&self, event: EdgeEvent) {
            self.events.lock().unwrap().push(event);
        }
    }

    /// The kind of the typed error line `conn` was last answered with.
    fn refusal(conn: &LineConn) -> ErrorKind {
        match protocol::classify_reply(conn.reply()) {
            Ok(protocol::ReplyClass::Error(e)) => e.kind,
            other => panic!("expected a typed error line, got {other:?}"),
        }
    }

    #[test]
    fn a_front_serves_any_line_service_and_reports_its_edge_events() {
        let echo = Arc::new(Echo::default());
        let limits = FrontLimits {
            max_conns: 1,
            io_timeout: Duration::from_secs(5),
            max_line_bytes: 16,
        };
        let mut front = LineFront::spawn(Arc::clone(&echo), "127.0.0.1:0", limits, "echo").unwrap();
        let mut first = connect(front.local_addr());
        // State is per connection and empty lines are not requests.
        first.exchange("a", None).unwrap();
        assert_eq!(first.reply(), b"1:a");
        first.exchange("\n \nb", None).unwrap();
        assert_eq!(first.reply(), b"2:b");
        // One connection past the cap: a typed busy line, then the close.
        let mut second = connect(front.local_addr());
        second.exchange("c", None).unwrap();
        assert_eq!(refusal(&second), ErrorKind::Busy);
        assert!(second.exchange("c", None).is_err());
        // An oversized line: a typed malformed line, then the close.
        first.exchange(&"x".repeat(64), None).unwrap();
        assert_eq!(refusal(&first), ErrorKind::Malformed);
        assert!(first.exchange("a", None).is_err());
        front.shutdown();
        assert_eq!(front.live_connections(), 0);
        assert_eq!(
            *echo.events.lock().unwrap(),
            [EdgeEvent::RefusedBusy, EdgeEvent::OversizedLine]
        );
    }
}
