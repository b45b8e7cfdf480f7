//! The differential oracle of the reply codec: the `Value`-tree encoder
//! and decoder that shipped before the streaming codec, a deliberately
//! naive bit-at-a-time base64 for a `tree`'s packed labels, and the
//! definition of "the shipped codec agrees with it".
//!
//! It compiles only into tests — this crate's unit tests, and
//! `tests/wire_codec.rs`, which includes this file by `#[path]`. So
//! nothing here may name this crate: the including module must have the
//! `protocol` items used below in scope, and the shipped functions are
//! spelled `super::name` where the oracle has one of the same name.

use super::{ErrorKind, Reply, ReplyClass, ServeError};
use phast_core::HeteroAnswer;
use phast_graph::INF;
use serde_json::Value;

fn id_value(id: Option<i64>) -> Value {
    match id {
        Some(i) => Value::Int(i),
        None => Value::Null,
    }
}

fn dist_array(dist: &[u32]) -> Value {
    Value::Array(dist.iter().map(|&d| Value::Int(i64::from(d))).collect())
}

const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The RFC 4648 base64 of the labels' little-endian bytes, padded: one bit
/// at a time, six to a digit, the last digit filled up with zeros.
fn packed(dist: &[u32]) -> String {
    let bits: Vec<u8> = dist
        .iter()
        .flat_map(|d| d.to_le_bytes())
        .flat_map(|byte| (0..8).rev().map(move |i| byte >> i & 1))
        .collect();
    let mut s: String = bits
        .chunks(6)
        .map(|six| {
            let v = (0..6).fold(0, |v, i| v << 1 | usize::from(six.get(i).copied().unwrap_or(0)));
            char::from(BASE64[v])
        })
        .collect();
    while !s.len().is_multiple_of(4) {
        s.push('=');
    }
    s
}

/// The inverse of [`packed`], or `None` unless `s` is exactly what it
/// writes for some labels.
fn unpacked(s: &str) -> Option<Vec<u32>> {
    let digits = s.trim_end_matches('=');
    if !s.len().is_multiple_of(4) || s.len() - digits.len() > 2 {
        return None;
    }
    let mut bits = Vec::new();
    for c in digits.bytes() {
        let v = BASE64.iter().position(|&d| d == c)?;
        bits.extend((0..6).rev().map(|i| v >> i & 1 == 1));
    }
    let (whole, spare) = bits.split_at(bits.len() / 8 * 8);
    if spare.contains(&true) || !whole.len().is_multiple_of(32) {
        return None;
    }
    let bytes: Vec<u8> = whole
        .chunks(8)
        .map(|byte| byte.iter().fold(0, |v, &b| v << 1 | u8::from(b)))
        .collect();
    Some(
        bytes
            .chunks(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect(),
    )
}

fn write_line(v: &Value) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// The reference for `encode_answer`: builds the whole `Value` tree, then
/// stringifies it.
pub fn encode_answer(id: Option<i64>, answer: &HeteroAnswer, epoch: Option<u64>) -> String {
    let (op, dist) = match answer {
        HeteroAnswer::Tree(d) => ("tree", Value::String(packed(d))),
        HeteroAnswer::Many(d) => ("many", dist_array(d)),
        HeteroAnswer::Matrix(rows) => (
            "matrix",
            Value::Array(rows.iter().map(|r| dist_array(r)).collect()),
        ),
        HeteroAnswer::Point(d) => (
            "p2p",
            if *d >= INF {
                Value::Null
            } else {
                Value::Int(i64::from(*d))
            },
        ),
    };
    let mut fields = vec![
        ("id".into(), id_value(id)),
        ("ok".into(), Value::Bool(true)),
        ("op".into(), Value::String(op.into())),
        ("dist".into(), dist),
    ];
    if let Some(e) = epoch {
        fields.push(("epoch".into(), Value::Int(e as i64)));
    }
    write_line(&Value::Object(fields))
}

/// The reference for `decode_epoch`.
pub fn decode_epoch(line: &str) -> Option<u64> {
    let v: Value = serde_json::from_str(line).ok()?;
    v.get("epoch")
        .and_then(Value::as_i64)
        .and_then(|e| u64::try_from(e).ok())
}

/// The reference for `decode_reply`.
pub fn decode_reply(line: &str) -> Result<Reply, ServeError> {
    let v: Value = serde_json::from_str(line)
        .map_err(|e| ServeError::new(ErrorKind::Malformed, format!("invalid reply: {e}")))?;
    let ok = v
        .get("ok")
        .and_then(Value::as_bool)
        .ok_or_else(|| ServeError::new(ErrorKind::Malformed, "reply lacks `ok`"))?;
    if !ok {
        let code = v.get("error").and_then(Value::as_str).unwrap_or("internal");
        let kind = ErrorKind::from_code(code).unwrap_or(ErrorKind::Internal);
        let message = v
            .get("message")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned();
        let mut err = ServeError::new(kind, message);
        err.retry_after_ms = v
            .get("retry_after_ms")
            .and_then(Value::as_i64)
            .and_then(|ms| u64::try_from(ms).ok());
        return Ok(Reply::Error(err));
    }
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::new(ErrorKind::Malformed, "reply lacks `op`"))?;
    let dists = |v: &Value| -> Result<Vec<u32>, ServeError> {
        v.get("dist")
            .and_then(Value::as_array)
            .ok_or_else(|| ServeError::new(ErrorKind::Malformed, "reply lacks `dist`"))?
            .iter()
            .map(|d| {
                d.as_i64()
                    .and_then(|i| u32::try_from(i).ok())
                    .ok_or_else(|| ServeError::new(ErrorKind::Malformed, "bad distance"))
            })
            .collect()
    };
    Ok(match op {
        // Packed, or the decimal array of older servers. An escape cannot
        // spell packed labels: the digits must stand in the line as they are.
        "tree" => Reply::Answer(HeteroAnswer::Tree(match v.get("dist") {
            Some(Value::String(s)) => unpacked(s)
                .filter(|_| line.contains(&format!("\"{s}\"")))
                .ok_or_else(|| ServeError::new(ErrorKind::Malformed, "bad packed labels"))?,
            _ => dists(&v)?,
        })),
        "many" => Reply::Answer(HeteroAnswer::Many(dists(&v)?)),
        "matrix" => {
            let rows = v
                .get("dist")
                .and_then(Value::as_array)
                .ok_or_else(|| ServeError::new(ErrorKind::Malformed, "reply lacks `dist`"))?
                .iter()
                .map(|row| {
                    row.as_array()
                        .ok_or_else(|| {
                            ServeError::new(ErrorKind::Malformed, "matrix row must be an array")
                        })?
                        .iter()
                        .map(|d| {
                            d.as_i64()
                                .and_then(|i| u32::try_from(i).ok())
                                .ok_or_else(|| {
                                    ServeError::new(ErrorKind::Malformed, "bad distance")
                                })
                        })
                        .collect()
                })
                .collect::<Result<Vec<Vec<u32>>, ServeError>>()?;
            Reply::Answer(HeteroAnswer::Matrix(rows))
        }
        "p2p" => {
            let d = match v.get("dist") {
                None | Some(Value::Null) => INF,
                Some(d) => d
                    .as_i64()
                    .and_then(|i| u32::try_from(i).ok())
                    .ok_or_else(|| ServeError::new(ErrorKind::Malformed, "bad distance"))?,
            };
            Reply::Answer(HeteroAnswer::Point(d))
        }
        "stats" => Reply::Stats(v.get("report").cloned().unwrap_or(Value::Null)),
        other => {
            return Err(ServeError::new(
                ErrorKind::Malformed,
                format!("unknown reply op `{other}`"),
            ))
        }
    })
}

/// Encodes with the shipped encoder, panics unless the bytes are the
/// oracle's, and returns the line.
pub fn assert_encoders_agree(id: Option<i64>, answer: &HeteroAnswer, epoch: Option<u64>) -> String {
    let line = super::encode_answer(id, answer, epoch);
    assert_eq!(line, encode_answer(id, answer, epoch), "encoder drifted");
    // Appending to a buffer in use writes the same bytes after its content.
    let mut reused = String::from("é\n");
    super::encode_answer_into(&mut reused, id, answer, epoch);
    assert_eq!(reused, format!("é\n{line}"));
    line
}

/// Panics unless `decode_reply_with_epoch`, `decode_reply`, `decode_epoch`
/// and `classify_reply` read `line` as the oracle does: the same `Ok`
/// value, or an `Err` of the same kind.
pub fn assert_decoders_agree(line: &str) {
    let want = decode_reply(line);
    let want_epoch = decode_epoch(line);
    assert_eq!(
        super::decode_epoch(line),
        want_epoch,
        "decode_epoch on {line:?}"
    );
    match (&want, super::decode_reply_with_epoch(line)) {
        (Ok(w), Ok((g, epoch))) => {
            assert_eq!(&g, w, "decoded value on {line:?}");
            assert_eq!(epoch, want_epoch, "epoch beside the reply on {line:?}");
        }
        (Err(w), Err(g)) => assert_eq!(g.kind, w.kind, "error kind on {line:?}"),
        (w, g) => panic!("oracle {w:?} but decode_reply_with_epoch {g:?} on {line:?}"),
    }
    match (&want, super::decode_reply(line)) {
        (Ok(w), Ok(g)) => assert_eq!(&g, w, "decode_reply on {line:?}"),
        (Err(w), Err(g)) => assert_eq!(g.kind, w.kind, "error kind on {line:?}"),
        (w, g) => panic!("oracle {w:?} but decode_reply {g:?} on {line:?}"),
    }
    match (&want, super::classify_reply(line.as_bytes())) {
        (Ok(Reply::Error(w)), Ok(ReplyClass::Error(g))) => {
            assert_eq!(&g, w, "classified error on {line:?}")
        }
        (Ok(Reply::Answer(_) | Reply::Stats(_)), Ok(ReplyClass::Ok)) => {}
        (Err(w), Err(g)) => assert_eq!(g.kind, w.kind, "error kind on {line:?}"),
        (w, g) => panic!("oracle {w:?} but classify_reply {g:?} on {line:?}"),
    }
}
