//! A small blocking client for the line protocol — what `loadgen` and the
//! integration tests speak through.
//!
//! Hardened against a flaky link and an overloaded server:
//!
//! * **Timeouts everywhere.** Connect, read, and write all carry
//!   timeouts ([`ClientConfig`]); a dead server yields a typed
//!   [`ErrorKind::Transport`] error, never a hang.
//! * **Typed transport faults.** Socket-level failures map to
//!   [`ErrorKind::Transport`], distinct from the server-sent
//!   [`ErrorKind::Internal`], so callers can tell a broken link from a
//!   broken service.
//! * **Bounded retry.** With [`ClientConfig::max_retries`] > 0, retryable
//!   failures (`transport`, `overloaded`, `queue_full`, `busy`) are
//!   retried with exponential backoff plus jitter. An `overloaded` reply's
//!   `retry_after_ms` hint overrides the backoff. Transport faults
//!   reconnect automatically before the retry.
//! * **Deadline-aware give-up.** A request's `deadline_ms` bounds the
//!   *whole* retry loop: the client never sleeps past the deadline only
//!   to fail anyway, and gives up with the last error once the budget is
//!   spent.
//!
//! The default [`Client::connect`] keeps `max_retries = 0` — every typed
//! error surfaces immediately, which is what the differential tests want.
//! Load generators and production callers opt into retries via
//! [`Client::connect_with`].

use crate::conn::LineConn;
use crate::protocol::{decode_reply_with_epoch, ErrorKind, Reply, ServeError};
use phast_core::HeteroAnswer;
use phast_graph::{Vertex, Weight};
use serde::Value;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Transport and retry policy of one [`Client`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read/write timeout per operation. `Duration::ZERO`
    /// disables the socket timeouts.
    pub io_timeout: Duration,
    /// Retries after the first attempt for retryable failures
    /// (`transport`, `overloaded`, `queue_full`, `busy`). `0` surfaces
    /// every failure immediately.
    pub max_retries: u32,
    /// First retry backoff; doubles per retry (full jitter applied).
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            max_retries: 0,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
        }
    }
}

impl ClientConfig {
    /// A retrying profile: up to `retries` retries with backoff.
    pub fn retrying(retries: u32) -> Self {
        ClientConfig {
            max_retries: retries,
            ..ClientConfig::default()
        }
    }
}

/// One blocking connection to a `phast-serve` front end. Requests are
/// answered in order, so a call is a write + a read. Transparently
/// reconnects between requests when retries are enabled.
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    /// The live connection; replaced before the next request once a
    /// failed exchange has poisoned it.
    conn: LineConn,
    next_id: i64,
    /// xorshift state for backoff jitter.
    jitter: u64,
    /// Metric-epoch stamp of the most recent successful reply, when the
    /// server sent one (see [`crate::protocol::decode_epoch`]).
    last_epoch: Option<u64>,
}

fn transport(e: &std::io::Error) -> ServeError {
    ServeError::new(ErrorKind::Transport, format!("transport: {e}"))
}

impl Client {
    /// Connects with the default (non-retrying) configuration.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit transport/retry policy.
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> std::io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?;
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        Ok(Client {
            conn: LineConn::connect(addr, cfg.connect_timeout, cfg.io_timeout)?,
            addr,
            cfg,
            next_id: 0,
            jitter: seed | 1,
            last_epoch: None,
        })
    }

    /// Sends one raw line and returns the raw reply line. Exposed so the
    /// robustness tests can send deliberately malformed requests. No
    /// retries at this layer.
    pub fn roundtrip_line(&mut self, line: &str) -> std::io::Result<String> {
        self.exchange(line).map(str::to_owned)
    }

    /// Sends one raw line and returns the reply line, trailing whitespace
    /// cut — over a fresh connection when the last exchange failed and
    /// left the old one in an unknown half-spoken state.
    fn exchange(&mut self, line: &str) -> std::io::Result<&str> {
        if self.conn.is_poisoned() {
            self.conn =
                LineConn::connect(self.addr, self.cfg.connect_timeout, self.cfg.io_timeout)?;
        }
        self.conn.exchange(line, None)?;
        std::str::from_utf8(self.conn.reply())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Full-jitter backoff for retry `attempt` (0-based).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let ceiling = self
            .cfg
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cfg.max_backoff);
        // xorshift64*: cheap jitter, no rand dependency.
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let nanos = ceiling.as_nanos().max(1) as u64;
        Duration::from_nanos(self.jitter % nanos)
    }

    /// One request with the configured retry policy. `deadline_ms` is
    /// both the per-request deadline sent to the server and the overall
    /// retry budget measured from now.
    fn request(&mut self, body: &str, deadline_ms: Option<u64>) -> Result<Reply, ServeError> {
        let give_up_at = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let mut attempt = 0u32;
        loop {
            let outcome = self.request_once(body, deadline_ms);
            let err = match outcome {
                Ok(Reply::Error(e)) if e.kind.is_retryable() => e,
                other => return other,
            };
            if attempt >= self.cfg.max_retries {
                return Ok(Reply::Error(err));
            }
            // Honor the server's drain estimate when it gave one;
            // otherwise back off exponentially with jitter.
            let mut pause = match err.retry_after_ms {
                Some(ms) => Duration::from_millis(ms),
                None => self.backoff(attempt),
            };
            if let Some(give_up) = give_up_at {
                let left = give_up.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    // The budget is spent; sleeping only defers the failure.
                    return Ok(Reply::Error(err));
                }
                // A jittered pause longer than the remaining budget is
                // clamped, not treated as give-up: the final attempt still
                // runs inside the deadline instead of being skipped.
                pause = pause.min(left);
            }
            std::thread::sleep(pause);
            attempt += 1;
        }
    }

    /// One attempt: reconnect if needed, send, receive, decode. Socket
    /// failures come back as typed [`ErrorKind::Transport`] errors.
    fn request_once(&mut self, body: &str, deadline_ms: Option<u64>) -> Result<Reply, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let deadline = deadline_ms
            .map(|ms| format!(",\"deadline_ms\":{ms}"))
            .unwrap_or_default();
        let line = format!("{{\"id\":{id},{body}{deadline}}}");
        let reply = self.exchange(&line).map_err(|e| transport(&e))?;
        let (reply, epoch) = decode_reply_with_epoch(reply)?;
        self.last_epoch = epoch;
        Ok(reply)
    }

    /// The metric-epoch stamp of the most recent reply, when the server
    /// sent one. Differential checkers use this to pick the reference
    /// tables a reply must be compared against across a live metric swap.
    pub fn last_epoch(&self) -> Option<u64> {
        self.last_epoch
    }

    fn answer(
        &mut self,
        body: &str,
        deadline_ms: Option<u64>,
    ) -> Result<HeteroAnswer, ServeError> {
        match self.request(body, deadline_ms)? {
            Reply::Answer(a) => Ok(a),
            Reply::Error(e) => Err(e),
            Reply::Stats(_) => Err(ServeError::new(
                ErrorKind::Malformed,
                "unexpected stats reply",
            )),
        }
    }

    /// Requests a full shortest path tree from `source`.
    pub fn tree(
        &mut self,
        source: Vertex,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<Weight>, ServeError> {
        match self.answer(&format!("\"op\":\"tree\",\"source\":{source}"), deadline_ms)? {
            HeteroAnswer::Tree(d) => Ok(d),
            other => Err(unexpected("tree", &other)),
        }
    }

    /// Requests the distances from `source` to each target.
    pub fn many(
        &mut self,
        source: Vertex,
        targets: &[Vertex],
        deadline_ms: Option<u64>,
    ) -> Result<Vec<Weight>, ServeError> {
        let list = targets
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(",");
        match self.answer(
            &format!("\"op\":\"many\",\"source\":{source},\"targets\":[{list}]"),
            deadline_ms,
        )? {
            HeteroAnswer::Many(d) => Ok(d),
            other => Err(unexpected("many", &other)),
        }
    }

    /// Requests the full many-to-many matrix: one row per source (in
    /// source order), one column per target. Targets must be
    /// duplicate-free and in range, or the server replies `malformed`.
    pub fn matrix(
        &mut self,
        sources: &[Vertex],
        targets: &[Vertex],
        deadline_ms: Option<u64>,
    ) -> Result<Vec<Vec<Weight>>, ServeError> {
        let join = |vs: &[Vertex]| {
            vs.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        match self.answer(
            &format!(
                "\"op\":\"matrix\",\"sources\":[{}],\"targets\":[{}]",
                join(sources),
                join(targets)
            ),
            deadline_ms,
        )? {
            HeteroAnswer::Matrix(rows) => Ok(rows),
            other => Err(unexpected("matrix", &other)),
        }
    }

    /// Requests one point-to-point distance (`INF` when unreachable).
    pub fn p2p(
        &mut self,
        source: Vertex,
        target: Vertex,
        deadline_ms: Option<u64>,
    ) -> Result<Weight, ServeError> {
        match self.answer(
            &format!("\"op\":\"p2p\",\"source\":{source},\"target\":{target}"),
            deadline_ms,
        )? {
            HeteroAnswer::Point(d) => Ok(d),
            other => Err(unexpected("p2p", &other)),
        }
    }

    /// Fetches the service's statistics report as a JSON value (the
    /// `phast-obs` `Report` schema).
    pub fn stats(&mut self) -> Result<Value, ServeError> {
        match self.request("\"op\":\"stats\"", None)? {
            Reply::Stats(v) => Ok(v),
            Reply::Error(e) => Err(e),
            Reply::Answer(_) => Err(ServeError::new(
                ErrorKind::Malformed,
                "unexpected answer reply",
            )),
        }
    }
}

/// A well-formed answer of another shape than `expected`. Names the
/// shape and its length only: the answer itself can be a whole tree.
fn unexpected(expected: &str, answer: &HeteroAnswer) -> ServeError {
    let got = match answer {
        HeteroAnswer::Tree(d) => format!("tree of {}", d.len()),
        HeteroAnswer::Many(d) => format!("many of {}", d.len()),
        HeteroAnswer::Matrix(rows) => format!("matrix of {} rows", rows.len()),
        HeteroAnswer::Point(_) => "p2p".to_owned(),
    };
    ServeError::new(
        ErrorKind::Internal,
        format!("reply shape does not match the request: expected {expected}, got {got}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_answer, encode_error};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// Regression: a backoff (or server retry hint) longer than the
    /// remaining deadline budget used to make the client give up without
    /// running its final attempt. The pause must be clamped to the budget
    /// so the last retry still happens *inside* the deadline.
    #[test]
    fn final_retry_runs_inside_a_short_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            // First attempt: overloaded, with a drain hint far beyond the
            // client's whole deadline.
            let err = ServeError::overloaded(60_000, "drain in progress");
            let mut reply = encode_error(None, &err);
            reply.push('\n');
            (&stream).write_all(reply.as_bytes()).unwrap();
            // Second attempt (the clamped retry): a real answer.
            line.clear();
            reader.read_line(&mut line).unwrap();
            let mut ok = encode_answer(None, &HeteroAnswer::Point(7), None);
            ok.push('\n');
            (&stream).write_all(ok.as_bytes()).unwrap();
        });
        let mut client = Client::connect_with(addr, ClientConfig::retrying(1)).unwrap();
        let t0 = Instant::now();
        let d = client
            .p2p(0, 1, Some(250))
            .expect("the final retry must run, not be skipped for its oversized pause");
        assert_eq!(d, 7);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the 60s retry hint must be clamped to the 250ms budget"
        );
        server.join().unwrap();
    }

    /// Regression: a well-formed answer of the wrong shape used to be
    /// rendered whole into the error message — 586 KB for a tree.
    #[test]
    fn shape_mismatch_names_the_shape_not_the_payload() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let tree = HeteroAnswer::Tree(vec![7; 99_618]);
            let mut reply = encode_answer(None, &tree, Some(1));
            reply.push('\n');
            (&stream).write_all(reply.as_bytes()).unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        let err = client.many(0, &[1, 2], None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Internal);
        assert_eq!(
            err.message,
            "reply shape does not match the request: expected many, got tree of 99618"
        );
        server.join().unwrap();
    }

    /// With the budget already spent, the client gives up with the last
    /// error instead of sleeping or retrying.
    #[test]
    fn spent_budget_gives_up_with_the_last_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            // Serve exactly one request: stall past the deadline, then
            // send the retryable error. There is no second reply — a
            // retry attempt would hang the test, proving the give-up.
            reader.read_line(&mut line).unwrap();
            std::thread::sleep(Duration::from_millis(80));
            let err = ServeError::overloaded(10, "still full");
            let mut reply = encode_error(None, &err);
            reply.push('\n');
            (&stream).write_all(reply.as_bytes()).unwrap();
        });
        let mut client = Client::connect_with(addr, ClientConfig::retrying(3)).unwrap();
        match client.p2p(0, 1, Some(40)) {
            Err(e) => assert_eq!(e.kind, ErrorKind::Overloaded),
            Ok(d) => panic!("expected the budget-exhausted error, got answer {d}"),
        }
        server.join().unwrap();
    }
}
