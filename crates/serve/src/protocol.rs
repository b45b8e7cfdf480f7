//! The wire protocol: line-delimited JSON requests and replies.
//!
//! One request per line, one reply line per request, always in order.
//! Requests:
//!
//! ```json
//! {"id":1,"op":"tree","source":17}
//! {"id":2,"op":"many","source":4,"targets":[0,9,9]}
//! {"id":3,"op":"p2p","source":0,"target":99,"deadline_ms":50}
//! {"id":4,"op":"stats"}
//! {"id":5,"op":"matrix","sources":[0,17],"targets":[3,9]}
//! ```
//!
//! `id` is an optional client-chosen integer echoed back verbatim;
//! `deadline_ms` is an optional per-request deadline measured from
//! admission. Successful replies:
//!
//! ```json
//! {"id":1,"ok":true,"op":"tree","dist":"AAAAAAoAAAAeAAAA"}
//! {"id":2,"ok":true,"op":"many","dist":[12,7,7]}
//! {"id":3,"ok":true,"op":"p2p","dist":null}
//! {"id":4,"ok":true,"op":"stats","report":{...}}
//! {"id":5,"ok":true,"op":"matrix","dist":[[0,4],[9,2]]}
//! ```
//!
//! A `matrix` reply holds one row per source (in request order), one
//! column per target. Unlike `many`, the target set of a `matrix` request
//! must be duplicate-free and in range — the selection is built once per
//! target set and shared, so a sloppy target list is a client bug the
//! server reports as `malformed` rather than silently deduplicating.
//!
//! A `tree` reply packs its distances: `dist` is a string holding the
//! RFC 4648 base64 (standard alphabet, padded with `=`) of the distances as
//! little-endian 32-bit words, in original vertex order — above, the words
//! 0, 10 and 30. The decoders also read a `tree` whose `dist` is an array
//! of integers, as older servers send it. Every other answer writes its
//! distances as decimal integers. An unreachable vertex carries the `INF`
//! sentinel, 2^31 − 1 (`2147483647`, the word `ff ff ff 7f`), in every
//! shape but `p2p`, where an unreachable target serializes as `null`.
//! Error replies are typed:
//!
//! ```json
//! {"id":3,"ok":false,"error":"queue_full","message":"admission queue at capacity 1024"}
//! ```
//!
//! with `error` one of `malformed`, `bad_request`, `queue_full`,
//! `overloaded`, `busy`, `deadline_exceeded`, `shutdown`, `transport`,
//! `internal`. A malformed line produces a `malformed` reply (with
//! `id:null`) and the connection keeps serving. `overloaded` replies carry
//! an additional `retry_after_ms` hint — the server's estimate of when the
//! admission queue will have drained — which the retrying client honors:
//!
//! ```json
//! {"id":5,"ok":false,"error":"overloaded","message":"...","retry_after_ms":40}
//! ```
//!
//! # The reply codec
//!
//! An answer can be one integer per vertex, so answers do not pass through
//! a `serde` `Value` tree: [`encode_answer_into`] writes the digits (or a
//! tree's base64) into a caller-owned buffer, and one scanner (`scan`)
//! reads a reply line in a single validating pass — storing the distances
//! for [`decode_reply_with_epoch`], only checking them for
//! [`classify_reply`] and [`decode_epoch`]. Requests, error replies and
//! `stats` reports are small and stay on `serde_json`. The `Value` path
//! survives in `oracle` as the test-only reference: its lines are the
//! encoder's byte for byte, and it accepts a line exactly when the scanner
//! does (`tests/wire_codec.rs`, DESIGN.md §9).

use phast_core::{HeteroAnswer, HeteroQuery};
use phast_graph::{Vertex, INF};
use phast_obs::Report;
use serde::Value;

#[cfg(test)]
mod oracle;
mod scan;

/// The category of a typed error reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line is not valid JSON or lacks a recognizable `op`.
    Malformed,
    /// Structurally valid, but semantically impossible (e.g. a vertex
    /// outside the graph, a missing field, an oversized target list).
    BadRequest,
    /// The admission queue is at capacity; the request was rejected
    /// instead of blocking (backpressure).
    QueueFull,
    /// The service shed this request before admission because the queue
    /// depth (or queue latency) crossed the overload threshold. The reply
    /// carries a `retry_after_ms` hint.
    Overloaded,
    /// The server refused the whole connection: the concurrent-connection
    /// cap is reached. Sent once, then the connection is closed.
    Busy,
    /// The request's deadline expired before its batch was formed.
    DeadlineExceeded,
    /// The service is shutting down and no longer admits requests.
    Shutdown,
    /// The link failed, not the service: a connect, read, or write on the
    /// client's socket errored or timed out. Never sent on the wire —
    /// produced client-side so retry logic can tell server faults
    /// ([`ErrorKind::Internal`]) from transport faults.
    Transport,
    /// The service failed internally (a worker disappeared).
    Internal,
}

impl ErrorKind {
    /// The stable wire code of this kind.
    pub fn code(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::QueueFull => "queue_full",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Busy => "busy",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::Transport => "transport",
            ErrorKind::Internal => "internal",
        }
    }

    /// Whether a client may retry a request that failed with this kind
    /// and reasonably expect a different outcome: transient load
    /// ([`ErrorKind::QueueFull`], [`ErrorKind::Overloaded`],
    /// [`ErrorKind::Busy`]) and link faults ([`ErrorKind::Transport`])
    /// are retryable; malformed input, bad requests, expired deadlines,
    /// shutdown, and internal faults are not.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorKind::QueueFull
                | ErrorKind::Overloaded
                | ErrorKind::Busy
                | ErrorKind::Transport
        )
    }

    /// Parses a wire code back into a kind.
    pub fn from_code(code: &str) -> Option<ErrorKind> {
        Some(match code {
            "malformed" => ErrorKind::Malformed,
            "bad_request" => ErrorKind::BadRequest,
            "queue_full" => ErrorKind::QueueFull,
            "overloaded" => ErrorKind::Overloaded,
            "busy" => ErrorKind::Busy,
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "shutdown" => ErrorKind::Shutdown,
            "transport" => ErrorKind::Transport,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// A typed service error: kind plus a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeError {
    /// Error category (drives the wire `error` code).
    pub kind: ErrorKind,
    /// Free-form detail for humans; never parsed.
    pub message: String,
    /// For [`ErrorKind::Overloaded`]: the server's estimate (ms) of when
    /// the queue will have drained enough to admit this request. A
    /// backoff *hint*, not a promise.
    pub retry_after_ms: Option<u64>,
}

impl ServeError {
    /// Builds an error of `kind` with a formatted message.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Builds an [`ErrorKind::Overloaded`] shed reply with its
    /// retry-after hint.
    pub fn overloaded(retry_after_ms: u64, message: impl Into<String>) -> Self {
        Self {
            kind: ErrorKind::Overloaded,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.code(), self.message)
    }
}

impl std::error::Error for ServeError {}

/// What a parsed request asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// A routing query answered through the scheduler.
    Query(HeteroQuery),
    /// A many-to-many matrix answered on the scheduler's restricted-sweep
    /// rung (one RPHAST selection amortized over all sources).
    Matrix {
        /// Row sources, in reply-row order.
        sources: Vec<Vertex>,
        /// Column targets; must be duplicate-free and in range.
        targets: Vec<Vertex>,
    },
    /// The service-level statistics report (answered immediately,
    /// bypassing the scheduler).
    Stats,
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen id echoed in the reply (`null` when absent).
    pub id: Option<i64>,
    /// Optional deadline in milliseconds, measured from admission.
    pub deadline_ms: Option<u64>,
    /// The operation.
    pub op: Op,
}

/// Upper bound on `targets` per `many` or `matrix` request — a service
/// must bound the memory one request line can pin.
pub const MAX_TARGETS: usize = 4096;

/// Upper bound on `sources` per `matrix` request.
pub const MAX_MATRIX_SOURCES: usize = 1024;

/// Upper bound on `sources.len() * targets.len()` per `matrix` request —
/// the reply is materialized as one allocation per row, so the cell count
/// is the real cost and gets its own cap below the individual products.
pub const MAX_MATRIX_CELLS: usize = 1 << 20;

fn get_vertex(v: &Value, field: &str) -> Result<Vertex, ServeError> {
    let raw = v.get(field).ok_or_else(|| {
        ServeError::new(ErrorKind::BadRequest, format!("missing field `{field}`"))
    })?;
    let i = raw.as_i64().ok_or_else(|| {
        ServeError::new(ErrorKind::BadRequest, format!("`{field}` must be an integer"))
    })?;
    Vertex::try_from(i).map_err(|_| {
        ServeError::new(ErrorKind::BadRequest, format!("`{field}` {i} is not a vertex id"))
    })
}

fn get_vertex_array(v: &Value, field: &str, max: usize) -> Result<Vec<Vertex>, ServeError> {
    let raw = v.get(field).and_then(Value::as_array).ok_or_else(|| {
        ServeError::new(ErrorKind::BadRequest, format!("missing array field `{field}`"))
    })?;
    if raw.is_empty() || raw.len() > max {
        return Err(ServeError::new(
            ErrorKind::BadRequest,
            format!("`{field}` must hold 1..={max} entries"),
        ));
    }
    let mut out = Vec::with_capacity(raw.len());
    for t in raw {
        let i = t.as_i64().ok_or_else(|| {
            ServeError::new(
                ErrorKind::BadRequest,
                format!("`{field}` entries must be integers"),
            )
        })?;
        out.push(Vertex::try_from(i).map_err(|_| {
            ServeError::new(
                ErrorKind::BadRequest,
                format!("`{field}` entry {i} is not a vertex id"),
            )
        })?);
    }
    Ok(out)
}

/// Parses one request line. The error distinguishes `malformed` (not
/// JSON / no usable `op`) from `bad_request` (bad or missing fields), so
/// the caller can reply without tearing down the connection.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let v: Value = serde_json::from_str(line)
        .map_err(|e| ServeError::new(ErrorKind::Malformed, format!("invalid JSON: {e}")))?;
    let op_name = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::new(ErrorKind::Malformed, "missing string field `op`"))?;
    let id = v.get("id").and_then(Value::as_i64);
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(d) => Some(d.as_i64().and_then(|ms| u64::try_from(ms).ok()).ok_or_else(
            || {
                ServeError::new(
                    ErrorKind::BadRequest,
                    "`deadline_ms` must be a non-negative integer",
                )
            },
        )?),
    };
    let op = match op_name {
        "tree" => Op::Query(HeteroQuery::Tree {
            source: get_vertex(&v, "source")?,
        }),
        "many" => Op::Query(HeteroQuery::Many {
            source: get_vertex(&v, "source")?,
            targets: get_vertex_array(&v, "targets", MAX_TARGETS)?,
        }),
        "matrix" => {
            let sources = get_vertex_array(&v, "sources", MAX_MATRIX_SOURCES)?;
            let targets = get_vertex_array(&v, "targets", MAX_TARGETS)?;
            if sources.len() * targets.len() > MAX_MATRIX_CELLS {
                return Err(ServeError::new(
                    ErrorKind::BadRequest,
                    format!(
                        "matrix of {}x{} exceeds the {MAX_MATRIX_CELLS}-cell cap",
                        sources.len(),
                        targets.len()
                    ),
                ));
            }
            Op::Matrix { sources, targets }
        }
        "p2p" => Op::Query(HeteroQuery::Point {
            source: get_vertex(&v, "source")?,
            target: get_vertex(&v, "target")?,
        }),
        "stats" => Op::Stats,
        other => {
            return Err(ServeError::new(
                ErrorKind::Malformed,
                format!("unknown op `{other}`"),
            ))
        }
    };
    Ok(Request { id, deadline_ms, op })
}

fn id_value(id: Option<i64>) -> Value {
    match id {
        Some(i) => Value::Int(i),
        None => Value::Null,
    }
}

fn write_line(v: &Value) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// `00` to `99`, for two digits per division.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The powers of ten a `u32` can reach: it has one digit more than it
/// reaches of them.
const POWERS: [u32; 9] = [
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Appends `[d,d,...]`, byte for byte what `{d}` formatting would write.
fn push_dists(out: &mut String, dist: &[u32]) {
    // Ten digits and a comma bound one entry: reserve once, never grow.
    out.reserve(dist.len() * 11 + 2);
    out.push('[');
    // Entries are laid out in a block on the stack and appended a block at
    // a time: no per-entry capacity check, and each entry's digits go
    // straight to their place, its length counted first.
    let mut block = [0u8; 4096];
    let mut used = 0;
    for (i, &d) in dist.iter().enumerate() {
        if used + 11 > block.len() {
            out.push_str(std::str::from_utf8(&block[..used]).expect("digits and commas"));
            used = 0;
        }
        if i > 0 {
            block[used] = b',';
            used += 1;
        }
        // Branch-free: neighbouring distances differ in length all the time.
        let len = 1 + POWERS.iter().map(|&p| usize::from(d >= p)).sum::<usize>();
        used += len;
        let mut at = used;
        let mut v = d;
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            at -= 2;
            block[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            block[at - 2..at].copy_from_slice(&PAIRS[pair..pair + 2]);
        } else {
            block[at - 1] = b'0' + v as u8;
        }
    }
    out.push_str(std::str::from_utf8(&block[..used]).expect("digits and commas"));
    out.push(']');
}

/// The RFC 4648 base64 alphabet, `+` and `/` included; `=` pads.
const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Every 12-bit value as its two base64 digits.
const DIGIT_PAIRS: [[u8; 2]; 4096] = {
    let mut pairs = [[0u8; 2]; 4096];
    let mut v = 0;
    while v < 4096 {
        pairs[v] = [BASE64[v >> 6], BASE64[v & 63]];
        v += 1;
    }
    pairs
};

/// Appends `"…"`: the base64 of `dist` as little-endian words.
fn push_packed(out: &mut String, dist: &[u32]) {
    out.reserve((dist.len() * 4).div_ceil(3) * 4 + 2);
    out.push('"');
    // Three words are 12 bytes are 16 digits, with no padding: written
    // into a block on the stack and appended a block at a time, as
    // `push_dists` does.
    let mut block = [0u8; 4096];
    let whole = dist.len() - dist.len() % 3;
    for run in dist[..whole].chunks(block.len() / 16 * 3) {
        for (w, digits) in run.chunks_exact(3).zip(block.chunks_exact_mut(16)) {
            // The 12 bytes as two big-endian 48-bit halves, 12 bits a pair.
            let (a, b, c) = (w[0].swap_bytes(), w[1].swap_bytes(), w[2].swap_bytes());
            let hi = u64::from(a) << 16 | u64::from(b >> 16);
            let lo = u64::from(b & 0xFFFF) << 32 | u64::from(c);
            let pair = |half: u64, shift: u32| DIGIT_PAIRS[(half >> shift) as usize & 0xFFF];
            let pairs = [
                pair(hi, 36),
                pair(hi, 24),
                pair(hi, 12),
                pair(hi, 0),
                pair(lo, 36),
                pair(lo, 24),
                pair(lo, 12),
                pair(lo, 0),
            ];
            digits.copy_from_slice(pairs.as_flattened());
        }
        let used = run.len() / 3 * 16;
        out.push_str(std::str::from_utf8(&block[..used]).expect("base64 digits"));
    }
    // One or two words left: 4 or 8 bytes, the last group padded.
    let mut tail = [0u8; 8];
    let rest = &dist[whole..];
    for (bytes, w) in tail.chunks_exact_mut(4).zip(rest) {
        bytes.copy_from_slice(&w.to_le_bytes());
    }
    for group in tail[..rest.len() * 4].chunks(3) {
        let v = group
            .iter()
            .enumerate()
            .fold(0, |v, (i, &b)| v | usize::from(b) << (16 - 8 * i));
        for i in 0..4 {
            out.push(if i <= group.len() {
                char::from(BASE64[v >> (18 - 6 * i) & 63])
            } else {
                '='
            });
        }
    }
    out.push('"');
}

/// Appends a successful answer to `out` as one reply line (no trailing
/// newline), writing every distance straight into the buffer — a caller
/// that keeps `out` across replies encodes without allocating. `epoch`
/// (when known) records the metric epoch the answer is exact for, so
/// clients can differentially check replies across a live metric swap;
/// [`decode_epoch`] reads it back.
pub fn encode_answer_into(
    out: &mut String,
    id: Option<i64>,
    answer: &HeteroAnswer,
    epoch: Option<u64>,
) {
    use std::fmt::Write;
    let fmt = "formatting into a String cannot fail";
    out.push_str("{\"id\":");
    match id {
        Some(i) => write!(out, "{i}").expect(fmt),
        None => out.push_str("null"),
    }
    out.push_str(",\"ok\":true,\"op\":\"");
    out.push_str(match answer {
        HeteroAnswer::Tree(_) => "tree",
        HeteroAnswer::Many(_) => "many",
        HeteroAnswer::Matrix(_) => "matrix",
        HeteroAnswer::Point(_) => "p2p",
    });
    out.push_str("\",\"dist\":");
    match answer {
        HeteroAnswer::Tree(d) => push_packed(out, d),
        HeteroAnswer::Many(d) => push_dists(out, d),
        HeteroAnswer::Matrix(rows) => {
            out.push('[');
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_dists(out, row);
            }
            out.push(']');
        }
        HeteroAnswer::Point(d) if *d >= INF => out.push_str("null"),
        HeteroAnswer::Point(d) => write!(out, "{d}").expect(fmt),
    }
    if let Some(e) = epoch {
        // Signed, as the `Value::Int` it used to pass through.
        write!(out, ",\"epoch\":{}", e as i64).expect(fmt);
    }
    out.push('}');
}

/// [`encode_answer_into`] a fresh `String`.
pub fn encode_answer(id: Option<i64>, answer: &HeteroAnswer, epoch: Option<u64>) -> String {
    let mut out = String::new();
    encode_answer_into(&mut out, id, answer, epoch);
    out
}

/// Reads the metric-epoch stamp out of a reply line, if the server sent
/// one. Tolerant by design: replies from servers predating metric epochs
/// (or error replies, which carry no epoch) yield `None`, as does a line
/// that is not JSON.
pub fn decode_epoch(line: &str) -> Option<u64> {
    scan::scan(line.as_bytes(), false).ok()?.epoch
}

/// Encodes a statistics reply embedding a `phast-obs` report.
pub fn encode_report(id: Option<i64>, report: &Report) -> String {
    write_line(&Value::Object(vec![
        ("id".into(), id_value(id)),
        ("ok".into(), Value::Bool(true)),
        ("op".into(), Value::String("stats".into())),
        ("report".into(), serde::Serialize::to_value(report)),
    ]))
}

/// Encodes a typed error reply.
pub fn encode_error(id: Option<i64>, err: &ServeError) -> String {
    let mut fields = vec![
        ("id".into(), id_value(id)),
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::String(err.kind.code().into())),
        ("message".into(), Value::String(err.message.clone())),
    ];
    if let Some(ms) = err.retry_after_ms {
        fields.push(("retry_after_ms".into(), Value::Int(ms as i64)));
    }
    write_line(&Value::Object(fields))
}

/// A decoded reply line (the client half of the protocol).
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// A successful routing answer.
    Answer(HeteroAnswer),
    /// A statistics report (raw JSON value, obs `Report` schema).
    Stats(Value),
    /// A typed error.
    Error(ServeError),
}

/// Decodes one reply line.
pub fn decode_reply(line: &str) -> Result<Reply, ServeError> {
    decode_reply_with_epoch(line).map(|(reply, _)| reply)
}

/// Decodes one reply line and its metric-epoch stamp (see
/// [`decode_epoch`]) in the same pass.
pub fn decode_reply_with_epoch(line: &str) -> Result<(Reply, Option<u64>), ServeError> {
    let fields = scan_reply(line.as_bytes(), true)?;
    let epoch = fields.epoch;
    Ok((reply_of(fields)?, epoch))
}

/// What a relaying hop needs to know of a reply line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplyClass {
    /// A well-formed answer or statistics report.
    Ok,
    /// A well-formed typed error.
    Error(ServeError),
}

/// Validates one reply line without keeping its payload: `Ok` and `Err`
/// exactly when [`decode_reply`] is — every byte is checked — but an
/// answer's distances are only counted, never stored.
pub fn classify_reply(line: &[u8]) -> Result<ReplyClass, ServeError> {
    Ok(match reply_of(scan_reply(line, false)?)? {
        Reply::Error(e) => ReplyClass::Error(e),
        Reply::Answer(_) | Reply::Stats(_) => ReplyClass::Ok,
    })
}

fn malformed(message: impl Into<String>) -> ServeError {
    ServeError::new(ErrorKind::Malformed, message)
}

fn scan_reply(line: &[u8], store: bool) -> Result<scan::Fields<'_>, ServeError> {
    scan::scan(line, store).map_err(|e| malformed(format!("invalid reply: {e}")))
}

/// Reads a scanned line as a reply. Scanned without storing, the payload
/// of the returned `Answer` / `Stats` is empty: only the variant means
/// anything.
fn reply_of(f: scan::Fields<'_>) -> Result<Reply, ServeError> {
    use scan::Dist;
    let ok = f.ok.ok_or_else(|| malformed("reply lacks `ok`"))?;
    if !ok {
        let kind = f
            .error
            .and_then(|code| ErrorKind::from_code(&code))
            .unwrap_or(ErrorKind::Internal);
        let mut err = ServeError::new(kind, f.message.unwrap_or_default());
        err.retry_after_ms = f.retry_after_ms;
        return Ok(Reply::Error(err));
    }
    let op = f.op.ok_or_else(|| malformed("reply lacks `op`"))?;
    let answer = match (op.as_ref(), f.dist) {
        ("tree", Dist::Packed(vals) | Dist::Flat { vals, .. }) => HeteroAnswer::Tree(vals),
        ("many", Dist::Flat { vals, .. }) => HeteroAnswer::Many(vals),
        ("matrix", Dist::Rows(rows)) => HeteroAnswer::Matrix(rows),
        ("matrix", Dist::Flat { len: 0, .. }) => HeteroAnswer::Matrix(Vec::new()),
        ("p2p", Dist::Scalar(d)) => HeteroAnswer::Point(d),
        ("p2p", Dist::None) => HeteroAnswer::Point(INF),
        ("stats", _) => {
            let report = match f.report {
                Some(json) => std::str::from_utf8(json)
                    .ok()
                    .and_then(|s| serde_json::from_str(s).ok())
                    .ok_or_else(|| malformed("unreadable `report`"))?,
                None => Value::Null,
            };
            return Ok(Reply::Stats(report));
        }
        ("tree" | "many" | "matrix" | "p2p", _) => {
            return Err(malformed("reply lacks a well-formed `dist`"))
        }
        (other, _) => return Err(malformed(format!("unknown reply op `{other}`"))),
    };
    Ok(Reply::Answer(answer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let r = parse_request(r#"{"id":7,"op":"tree","source":3}"#).unwrap();
        assert_eq!(r.id, Some(7));
        assert_eq!(r.op, Op::Query(HeteroQuery::Tree { source: 3 }));
        let r = parse_request(r#"{"op":"many","source":1,"targets":[2,2,0]}"#).unwrap();
        assert_eq!(
            r.op,
            Op::Query(HeteroQuery::Many {
                source: 1,
                targets: vec![2, 2, 0]
            })
        );
        let r = parse_request(r#"{"op":"p2p","source":0,"target":9,"deadline_ms":50}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(50));
        assert_eq!(
            r.op,
            Op::Query(HeteroQuery::Point {
                source: 0,
                target: 9
            })
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap().op, Op::Stats);
    }

    #[test]
    fn malformed_vs_bad_request() {
        assert_eq!(
            parse_request("not json").unwrap_err().kind,
            ErrorKind::Malformed
        );
        assert_eq!(
            parse_request(r#"{"answer":42}"#).unwrap_err().kind,
            ErrorKind::Malformed
        );
        assert_eq!(
            parse_request(r#"{"op":"warp","source":0}"#).unwrap_err().kind,
            ErrorKind::Malformed
        );
        assert_eq!(
            parse_request(r#"{"op":"tree"}"#).unwrap_err().kind,
            ErrorKind::BadRequest
        );
        assert_eq!(
            parse_request(r#"{"op":"tree","source":-4}"#).unwrap_err().kind,
            ErrorKind::BadRequest
        );
        assert_eq!(
            parse_request(r#"{"op":"many","source":0,"targets":[]}"#)
                .unwrap_err()
                .kind,
            ErrorKind::BadRequest
        );
        assert_eq!(
            parse_request(r#"{"op":"tree","source":0,"deadline_ms":-1}"#)
                .unwrap_err()
                .kind,
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn parses_matrix_requests() {
        let r = parse_request(r#"{"id":5,"op":"matrix","sources":[0,17],"targets":[3,9]}"#)
            .unwrap();
        assert_eq!(r.id, Some(5));
        assert_eq!(
            r.op,
            Op::Matrix {
                sources: vec![0, 17],
                targets: vec![3, 9]
            }
        );
    }

    #[test]
    fn matrix_requests_enforce_structural_caps() {
        for line in [
            r#"{"op":"matrix","targets":[1]}"#,
            r#"{"op":"matrix","sources":[],"targets":[1]}"#,
            r#"{"op":"matrix","sources":[1],"targets":[]}"#,
            r#"{"op":"matrix","sources":[1],"targets":["x"]}"#,
            r#"{"op":"matrix","sources":[-1],"targets":[1]}"#,
        ] {
            assert_eq!(
                parse_request(line).unwrap_err().kind,
                ErrorKind::BadRequest,
                "{line}"
            );
        }
        // Individually under the per-axis caps, but over the cell cap.
        let sources: Vec<String> = (0..MAX_MATRIX_SOURCES).map(|i| i.to_string()).collect();
        let targets: Vec<String> = (0..MAX_TARGETS).map(|i| i.to_string()).collect();
        let line = format!(
            r#"{{"op":"matrix","sources":[{}],"targets":[{}]}}"#,
            sources.join(","),
            targets.join(",")
        );
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("cell cap"), "{}", err.message);
    }

    #[test]
    fn answers_roundtrip() {
        for answer in [
            HeteroAnswer::Tree(vec![0, 5, INF]),
            HeteroAnswer::Many(vec![7]),
            HeteroAnswer::Matrix(vec![vec![0, 4, INF], vec![9, 2, 1]]),
            HeteroAnswer::Matrix(vec![]),
            HeteroAnswer::Point(12),
            HeteroAnswer::Point(INF),
        ] {
            let line = encode_answer(Some(3), &answer, None);
            assert_eq!(decode_reply(&line).unwrap(), Reply::Answer(answer));
        }
    }

    /// A thin slice of `tests/wire_codec.rs`, so this crate's own tests
    /// hold the streaming codec against the `Value` oracle too.
    #[test]
    fn codec_agrees_with_the_value_oracle() {
        for answer in [
            HeteroAnswer::Tree(vec![0, 5, INF, u32::MAX]),
            HeteroAnswer::Many(vec![]),
            HeteroAnswer::Matrix(vec![vec![0, 4], vec![], vec![9]]),
            HeteroAnswer::Point(INF),
        ] {
            let line = oracle::assert_encoders_agree(Some(-3), &answer, Some(7));
            for cut in 0..=line.len() {
                oracle::assert_decoders_agree(&line[..cut]);
            }
        }
        for line in [
            r#"{"ok":true,"op":"tree","dist":[1.0,1e3,07]}"#,
            r#"{"ok":true,"op":"tree","dist":[1,-1]}"#,
            r#"{"dist":[[1],2],"op":"matrix","ok":true}"#,
            r#"{"ok":false,"ok":true,"error":"overloaded","retry_after_ms":4e1}"#,
            r#"{"ok":true,"op":"stats","report":{"a":[1,{"b":"\u00e9"}]}}"#,
            r#" { "ok" : true , "op" : "p2p" , "dist" : null , "epoch" : 3 } x"#,
        ] {
            oracle::assert_decoders_agree(line);
        }
    }

    #[test]
    fn unreachable_p2p_is_null_on_the_wire() {
        let line = encode_answer(None, &HeteroAnswer::Point(INF), None);
        assert!(line.contains("\"dist\":null"), "{line}");
    }

    #[test]
    fn epoch_stamps_roundtrip_and_are_optional() {
        let answer = HeteroAnswer::Point(4);
        let stamped = encode_answer(Some(1), &answer, Some(7));
        assert_eq!(decode_epoch(&stamped), Some(7));
        // The stamp is an extra field — the reply still decodes normally.
        assert_eq!(decode_reply(&stamped).unwrap(), Reply::Answer(answer.clone()));
        let bare = encode_answer(Some(1), &answer, None);
        assert_eq!(decode_epoch(&bare), None);
        // Error replies carry no epoch.
        let err = encode_error(Some(1), &ServeError::new(ErrorKind::Internal, "x"));
        assert_eq!(decode_epoch(&err), None);
        assert_eq!(decode_epoch("not json"), None);
    }

    #[test]
    fn errors_roundtrip_with_stable_codes() {
        for kind in [
            ErrorKind::Malformed,
            ErrorKind::BadRequest,
            ErrorKind::QueueFull,
            ErrorKind::Overloaded,
            ErrorKind::Busy,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Shutdown,
            ErrorKind::Transport,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::from_code(kind.code()), Some(kind));
            let line = encode_error(Some(1), &ServeError::new(kind, "detail"));
            match decode_reply(&line).unwrap() {
                Reply::Error(e) => {
                    assert_eq!(e.kind, kind);
                    assert_eq!(e.message, "detail");
                }
                other => panic!("expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn overloaded_replies_carry_the_retry_hint() {
        let line = encode_error(Some(5), &ServeError::overloaded(40, "queue deep"));
        assert!(line.contains("\"retry_after_ms\":40"), "{line}");
        match decode_reply(&line).unwrap() {
            Reply::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Overloaded);
                assert_eq!(e.retry_after_ms, Some(40));
            }
            other => panic!("expected overloaded error, got {other:?}"),
        }
        // Errors without the hint decode to None, not 0.
        let line = encode_error(None, &ServeError::new(ErrorKind::QueueFull, "full"));
        assert!(!line.contains("retry_after_ms"), "{line}");
        match decode_reply(&line).unwrap() {
            Reply::Error(e) => assert_eq!(e.retry_after_ms, None),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn retryability_matches_the_kind_taxonomy() {
        for kind in [
            ErrorKind::QueueFull,
            ErrorKind::Overloaded,
            ErrorKind::Busy,
            ErrorKind::Transport,
        ] {
            assert!(kind.is_retryable(), "{kind:?}");
        }
        for kind in [
            ErrorKind::Malformed,
            ErrorKind::BadRequest,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Shutdown,
            ErrorKind::Internal,
        ] {
            assert!(!kind.is_retryable(), "{kind:?}");
        }
    }

    #[test]
    fn stats_reply_embeds_the_report_schema() {
        let mut report = Report::new("svc");
        report.push_count("batches", 3).push_ratio("occupancy", 2.5);
        let line = encode_report(Some(9), &report);
        match decode_reply(&line).unwrap() {
            Reply::Stats(v) => {
                assert_eq!(v.get("title").and_then(Value::as_str), Some("svc"));
                let m = v.get("metrics").expect("metrics object");
                assert_eq!(m.get("batches").and_then(Value::as_i64), Some(3));
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }
}
