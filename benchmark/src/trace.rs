//! In-memory spans recorded from the benchmark's own files around the
//! public calls into each layer, their self times, and the trace file.
//!
//! A span is `{id, parent, request, name, start, end}`; all spans of one
//! request share `request`. Ids are derived from the request number
//! ([`span_id`]) so that a span recorded on the server thread can name its
//! parent on the client thread without any shared state.

use crate::stats::median;
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Id of "no parent".
pub const ROOT: u64 = 0;

/// Slots reserved per request for [`span_id`].
const SLOTS: u64 = 16;

/// The id of the `slot`-th span (1-based, below 16) of request `request`.
pub fn span_id(request: u64, slot: u64) -> u64 {
    debug_assert!((1..SLOTS).contains(&slot));
    request * SLOTS + slot
}

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// Id of the span that caused this one ([`ROOT`] for a request root).
    pub parent: u64,
    /// The request all spans of one operation share.
    pub request: u64,
    /// Layer boundary the span was recorded at.
    pub name: &'static str,
    /// Start, microseconds since the tracer's origin.
    pub start_us: f64,
    /// End, microseconds since the tracer's origin.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A per-thread span buffer; buffers are merged when the threads end.
#[derive(Clone, Debug)]
pub struct Tracer {
    origin: Instant,
    /// The spans recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A buffer whose timestamps count from `origin`. Every buffer of one
    /// run shares the origin.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty buffer with the same origin, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin)
    }

    /// Records one finished interval.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        id: u64,
        parent: u64,
        request: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(id, parent, request, name, start, Instant::now());
        out
    }

    /// Appends another thread's buffer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Self time of every span in milliseconds, by span id: its duration
/// minus the part of its interval that its child spans cover (children
/// are clipped to the parent and overlapping children counted once).
pub fn self_times_ms(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut cursor = s.start_us;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_us));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, (s.end_us - s.start_us - covered) / 1e3)
        })
        .collect()
}

/// Per span name: how many spans, the median duration and the median self
/// time, both in milliseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerTime {
    /// Number of spans with this name.
    pub count: usize,
    /// Median duration.
    pub total_ms: f64,
    /// Median self time.
    pub self_ms: f64,
}

/// Groups spans by name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times_ms(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.ms());
        e.1.push(selfs[&s.id]);
    }
    by_name
        .into_iter()
        .map(|(name, (mut total, mut own))| {
            let lt = LayerTime {
                count: total.len(),
                total_ms: median(&mut total),
                self_ms: median(&mut own),
            };
            (name, lt)
        })
        .collect()
}

/// The unexplained remainder of the root span `root`: (median root
/// duration − Σ over every other span name under it of the median self
/// time) / median root duration. The root's own self time is exactly
/// what no child span covers, so it is left out of the sum.
pub fn residual_share(spans: &[Span], root: &str) -> Option<f64> {
    let roots: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == root && s.parent == ROOT)
        .map(|s| s.request)
        .collect();
    let under: Vec<Span> = spans
        .iter()
        .filter(|s| roots.contains(&s.request))
        .cloned()
        .collect();
    let layers = layer_times(&under);
    let total = layers.get(root)?.total_ms;
    let explained: f64 = layers
        .iter()
        .filter(|(name, _)| **name != root)
        .map(|(_, lt)| lt.self_ms)
        .sum();
    (total > 0.0).then(|| (total - explained) / total)
}

/// The trace file: every span plus the counts taken at the same
/// boundaries.
pub fn to_json(workload: &str, seed: u64, spans: &[Span], counts: &[(String, f64)]) -> Value {
    let span_values = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("id".into(), Value::Int(s.id as i64)),
                ("parent".into(), Value::Int(s.parent as i64)),
                ("request".into(), Value::Int(s.request as i64)),
                ("name".into(), Value::String(s.name.into())),
                ("start_us".into(), Value::Float(s.start_us)),
                ("end_us".into(), Value::Float(s.end_us)),
            ])
        })
        .collect();
    let layers = layer_times(spans)
        .into_iter()
        .map(|(name, lt)| {
            (
                name.to_string(),
                Value::Object(vec![
                    ("count".into(), Value::Int(lt.count as i64)),
                    ("median_ms".into(), Value::Float(lt.total_ms)),
                    ("median_self_ms".into(), Value::Float(lt.self_ms)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::String(workload.into())),
        ("seed".into(), Value::Int(seed as i64)),
        ("layers".into(), Value::Object(layers)),
        (
            "counts".into(),
            Value::Object(
                counts
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Float(*v)))
                    .collect(),
            ),
        ),
        ("spans".into(), Value::Array(span_values)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, request: u64, name: &'static str, a: f64, b: f64) -> Span {
        Span {
            id,
            parent,
            request,
            name,
            start_us: a,
            end_us: b,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span(1, ROOT, 0, "request", 0.0, 10_000.0),
            span(2, 1, 0, "write", 0.0, 1_000.0),
            span(3, 1, 0, "wait", 1_000.0, 8_000.0),
            span(4, 3, 0, "call", 2_000.0, 5_000.0),
            span(5, 3, 0, "encode", 5_000.0, 7_000.0),
        ];
        let own = self_times_ms(&spans);
        assert_eq!(own[&1], 2.0, "root: 10 - (1 + 7)");
        assert_eq!(own[&2], 1.0);
        assert_eq!(own[&3], 2.0, "wait: 7 - (3 + 2)");
        assert_eq!(own[&4], 3.0);
        assert_eq!(own[&5], 2.0);
        // Everything is accounted for exactly once.
        assert_eq!(own.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(1, ROOT, 0, "request", 0.0, 10_000.0),
            span(2, 1, 0, "a", 1_000.0, 6_000.0),
            span(3, 1, 0, "b", 4_000.0, 8_000.0),
            span(4, 1, 0, "c", 9_000.0, 12_000.0),
        ];
        // Covered: [1,8] and [9,10] -> 8 of 10 ms.
        assert_eq!(self_times_ms(&spans)[&1], 2.0);
    }

    #[test]
    fn residual_is_what_no_layer_explains() {
        let mut spans = Vec::new();
        for r in 0..3u64 {
            let base = r as f64 * 100_000.0;
            spans.push(span(
                span_id(r, 1),
                ROOT,
                r,
                "request",
                base,
                base + 10_000.0,
            ));
            spans.push(span(
                span_id(r, 2),
                span_id(r, 1),
                r,
                "call",
                base + 1_000.0,
                base + 7_000.0,
            ));
            spans.push(span(
                span_id(r, 3),
                span_id(r, 2),
                r,
                "sweep",
                base + 2_000.0,
                base + 4_000.0,
            ));
        }
        // A second root kind must not leak into the first one's budget.
        spans.push(span(span_id(9, 1), ROOT, 9, "rebuild", 0.0, 900_000.0));
        let layers = layer_times(&spans);
        assert_eq!(layers["request"].count, 3);
        assert_eq!(layers["call"].self_ms, 4.0);
        assert_eq!(layers["sweep"].self_ms, 2.0);
        // 10 ms root, 4 + 2 explained -> 0.4 unexplained.
        assert!((residual_share(&spans, "request").unwrap() - 0.4).abs() < 1e-12);
        assert!(residual_share(&spans, "absent").is_none());
    }

    #[test]
    fn trace_file_lists_every_span_with_its_parent_and_request() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        tr.time(span_id(4, 1), ROOT, 4, "request", || ());
        let mut other = tr.fork();
        other.time(span_id(4, 2), span_id(4, 1), 4, "call", || ());
        tr.absorb(other);
        let v = to_json("serve_tree", 7, &tr.spans, &[("requests".into(), 1.0)]);
        let spans = v.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("parent").and_then(Value::as_i64),
            Some(span_id(4, 1) as i64)
        );
        assert_eq!(spans[1].get("request").and_then(Value::as_i64), Some(4));
        assert!(v.get("layers").and_then(|l| l.get("call")).is_some());
    }
}
