//! The single-pass reply scanner behind [`decode_reply`],
//! [`decode_epoch`] and [`classify_reply`](super::classify_reply).
//!
//! One walk over the bytes of a reply line validates **all** of it as
//! JSON and picks out the handful of top-level fields a reply can carry.
//! Distances are parsed straight into `Vec<u32>`s — no intermediate
//! `Value` per integer — or, with `store` off, only counted, so a hop
//! that merely needs "ok, or which error?" allocates nothing for a
//! well-formed answer.
//!
//! The grammar is the `serde_json` stand-in's, leniencies included
//! (leading zeros, `1.`, integral floats as integers, `MAX_DEPTH`
//! nesting): a line is accepted here exactly when `serde_json::from_str`
//! accepts it. Only the shapes an encoder writes are read here; a string
//! with an escape or a number that is not a short run of digits is cut
//! out and handed to `serde_json` itself. `tests/wire_codec.rs` holds the
//! two against each other on every truncation and byte flip of every
//! reply shape.
//!
//! [`decode_reply`]: super::decode_reply
//! [`decode_epoch`]: super::decode_epoch

use std::borrow::Cow;

/// Container nesting limit of the `serde_json` stand-in's parser.
const MAX_DEPTH: usize = 128;

/// The top-level keys a reply is read from; the last one is `report`.
const KEYS: [&str; 8] = [
    "ok",
    "op",
    "dist",
    "epoch",
    "error",
    "message",
    "retry_after_ms",
    "report",
];

/// Why a line is not JSON.
#[derive(Debug)]
pub(super) struct SyntaxError {
    msg: &'static str,
    at: usize,
}

impl std::fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

type Scan<T> = Result<T, SyntaxError>;

/// The first `dist` field of a reply, read without knowing the `op` yet
/// (keys come in any order): every shape some op accepts, or `Other`.
#[derive(Debug, Default)]
pub(super) enum Dist {
    /// Absent, or `null` (an unreachable `p2p` target).
    #[default]
    None,
    /// One distance.
    Scalar(u32),
    /// An array of `len` distances; `[]` is also the empty matrix.
    /// `vals` stays empty when the scanner does not store.
    Flat { len: usize, vals: Vec<u32> },
    /// A non-empty array of distance arrays (filled only when storing).
    Rows(Vec<Vec<u32>>),
    /// Valid JSON that is no distance payload.
    Other,
}

/// The top-level fields of a reply line, first occurrence of each key.
/// A field of the wrong JSON type reads as absent, as `Value::as_*` did.
#[derive(Debug, Default)]
pub(super) struct Fields<'a> {
    pub ok: Option<bool>,
    pub op: Option<Cow<'a, str>>,
    pub dist: Dist,
    pub epoch: Option<u64>,
    pub error: Option<Cow<'a, str>>,
    pub message: Option<Cow<'a, str>>,
    pub retry_after_ms: Option<u64>,
    /// The bytes of the `report` value (validated JSON); like the
    /// distances, kept only when the scanner stores.
    pub report: Option<&'a [u8]>,
}

/// Scans one reply line. `store` off validates the same bytes but keeps
/// no distances.
pub(super) fn scan(line: &[u8], store: bool) -> Scan<Fields<'_>> {
    Scanner {
        bytes: line,
        pos: 0,
        depth: 0,
        store,
    }
    .reply()
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    store: bool,
}

fn utf8(bytes: &[u8], at: usize) -> Scan<&str> {
    std::str::from_utf8(bytes).map_err(|_| SyntaxError {
        msg: "invalid UTF-8 in string",
        at,
    })
}

impl<'a> Scanner<'a> {
    fn err(&self, msg: &'static str) -> SyntaxError {
        SyntaxError { msg, at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &'static str) -> Scan<()> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err("expected a JSON literal"))
        }
    }

    /// Steps into a container whose opening byte is under the cursor.
    fn enter(&mut self) -> Scan<()> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        Ok(())
    }

    /// After a container element: `,` continues (true), `close` ends the
    /// container (false).
    fn more(&mut self, close: u8) -> Scan<bool> {
        self.skip_ws();
        match self.bump() {
            Some(b',') => Ok(true),
            Some(b) if b == close => {
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.err("expected `,` or the container's close")),
        }
    }

    /// Steps into a container and reports whether it has elements.
    fn open(&mut self, close: u8) -> Scan<bool> {
        self.enter()?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// `"key" :` of an object entry, cursor left on the value.
    fn key(&mut self) -> Scan<Cow<'a, str>> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        if self.bump() != Some(b':') {
            return Err(self.err("expected `:`"));
        }
        self.skip_ws();
        Ok(key)
    }

    /// Validates any JSON value and keeps nothing of it.
    fn skip_value(&mut self) -> Scan<()> {
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(b'[') => {
                let mut more = self.open(b']')?;
                while more {
                    self.skip_ws();
                    self.skip_value()?;
                    more = self.more(b']')?;
                }
                Ok(())
            }
            Some(b'{') => {
                let mut more = self.open(b'}')?;
                while more {
                    self.key()?;
                    self.skip_value()?;
                    more = self.more(b'}')?;
                }
                Ok(())
            }
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// A string, borrowed from the line unless it holds an escape.
    fn string(&mut self) -> Scan<Cow<'a, str>> {
        if self.bump() != Some(b'"') {
            return Err(self.err("expected `\"`"));
        }
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => {
                    // Whatever follows cannot close the string.
                    escaped = true;
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {}
                None => return Err(self.err("unterminated string")),
            }
        }
        if !escaped {
            return utf8(&self.bytes[start..self.pos - 1], start).map(Cow::Borrowed);
        }
        // Escapes are rare (a quote in an error message): let the
        // reference parser decode — and judge — the token.
        serde_json::from_str(utf8(&self.bytes[start - 1..self.pos], start)?)
            .map(Cow::Owned)
            .map_err(|_| self.err("invalid escape in string"))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// A number, as the integer `Value::as_i64` reads from it (`None`:
    /// fractional, or beyond ±9e18).
    fn number(&mut self) -> Scan<Option<i64>> {
        // A run of at most 18 plain digits — all the encoder ever writes —
        // cannot overflow and needs no float parse.
        let start = self.pos;
        let mut v = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            v = v.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        let plain = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if plain && (1..=18).contains(&(self.pos - start)) {
            return Ok(Some(v as i64));
        }
        // Anything else: cut the token as the reference parser would and
        // let it convert — and judge — the spelling.
        self.pos = start;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let token = utf8(&self.bytes[start..self.pos], start)?;
        let value: serde_json::Value =
            serde_json::from_str(token).map_err(|_| self.err("invalid number"))?;
        Ok(value.as_i64())
    }

    /// A number that is a distance.
    fn distance(&mut self) -> Scan<Option<u32>> {
        Ok(self.number()?.and_then(|i| u32::try_from(i).ok()))
    }

    /// A non-negative integer field (`epoch`, `retry_after_ms`).
    fn unsigned(&mut self) -> Scan<Option<u64>> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => Ok(self.number()?.and_then(|i| u64::try_from(i).ok())),
            _ => self.skip_value().map(|()| None),
        }
    }

    fn string_field(&mut self) -> Scan<Option<Cow<'a, str>>> {
        match self.peek() {
            Some(b'"') => self.string().map(Some),
            _ => self.skip_value().map(|()| None),
        }
    }

    /// The fast lane of [`Self::distances`]: consumes elements spelled
    /// `digits,` — all an encoder writes but the last — and returns how
    /// many, leaving the cursor on the first element of any other form
    /// (signs, fractions, blanks, the closing one) for the general path.
    fn plain_distances(&mut self, out: &mut Vec<u32>) -> usize {
        let mut count = 0;
        loop {
            let mut v = 0u64;
            let mut end = self.pos;
            while let Some(d @ b'0'..=b'9') = self.bytes.get(end) {
                v = v.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                end += 1;
            }
            // One to ten digits cannot have wrapped.
            let plain = (1..=10).contains(&(end - self.pos)) && self.bytes.get(end) == Some(&b',');
            match u32::try_from(v) {
                Ok(d) if plain => {
                    if self.store {
                        out.push(d);
                    }
                    count += 1;
                    self.pos = end + 1;
                }
                _ => return count,
            }
        }
    }

    /// The elements of an array already stepped into and known non-empty:
    /// their count when every one is a distance (pushed onto `out` when
    /// storing), `None` otherwise. Either way the whole array is validated.
    fn distances(&mut self, out: &mut Vec<u32>) -> Scan<Option<usize>> {
        let mut len = 0;
        let mut all = true;
        loop {
            if all {
                len += self.plain_distances(out);
            }
            self.skip_ws();
            match self.peek() {
                Some(b'-' | b'0'..=b'9') => match self.distance()? {
                    Some(d) if all => {
                        len += 1;
                        if self.store {
                            out.push(d);
                        }
                    }
                    _ => all = false,
                },
                _ => {
                    self.skip_value()?;
                    all = false;
                }
            }
            if !self.more(b']')? {
                return Ok(all.then_some(len));
            }
        }
    }

    fn dist(&mut self) -> Scan<Dist> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Dist::None),
            Some(b'-' | b'0'..=b'9') => Ok(self.distance()?.map_or(Dist::Other, Dist::Scalar)),
            Some(b'[') => {
                if !self.open(b']')? {
                    return Ok(Dist::Flat {
                        len: 0,
                        vals: Vec::new(),
                    });
                }
                if self.peek() == Some(b'[') {
                    return self.rows();
                }
                // A line is at least two bytes per distance; real trees
                // run five to six, so this rarely grows and never
                // reserves more than the line already occupies.
                let mut vals = Vec::new();
                if self.store {
                    vals.reserve((self.bytes.len() - self.pos) / 5);
                }
                Ok(match self.distances(&mut vals)? {
                    Some(len) => Dist::Flat { len, vals },
                    None => Dist::Other,
                })
            }
            _ => self.skip_value().map(|()| Dist::Other),
        }
    }

    /// The rows of a matrix, cursor on the first row's `[`.
    fn rows(&mut self) -> Scan<Dist> {
        let mut rows: Vec<Vec<u32>> = Vec::new();
        let mut all = true;
        loop {
            self.skip_ws();
            let mut row = Vec::new();
            if self.peek() == Some(b'[') {
                if self.open(b']')? {
                    if self.store {
                        row.reserve(rows.last().map_or(0, Vec::len));
                    }
                    all &= self.distances(&mut row)?.is_some();
                }
            } else {
                self.skip_value()?;
                all = false;
            }
            if self.store && all {
                rows.push(row);
            }
            if !self.more(b']')? {
                return Ok(if all { Dist::Rows(rows) } else { Dist::Other });
            }
        }
    }

    fn reply(mut self) -> Scan<Fields<'a>> {
        let mut f = Fields::default();
        self.skip_ws();
        if self.peek() != Some(b'{') {
            // Not an object: still JSON or not, but it has no fields.
            self.skip_value()?;
        } else {
            let mut seen = [false; KEYS.len()];
            let mut more = self.open(b'}')?;
            while more {
                let key = self.key()?;
                // The first occurrence of a key wins, whatever its type.
                match KEYS.iter().position(|k| *k == key) {
                    Some(i) if !std::mem::replace(&mut seen[i], true) => {
                        self.field(KEYS[i], &mut f)?
                    }
                    _ => self.skip_value()?,
                }
                more = self.more(b'}')?;
            }
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(f)
    }

    fn field(&mut self, key: &'static str, f: &mut Fields<'a>) -> Scan<()> {
        match key {
            "ok" => {
                f.ok = match self.peek() {
                    Some(b't') => self.literal("true").map(|()| Some(true))?,
                    Some(b'f') => self.literal("false").map(|()| Some(false))?,
                    _ => self.skip_value().map(|()| None)?,
                }
            }
            "op" => f.op = self.string_field()?,
            "dist" => f.dist = self.dist()?,
            "epoch" => f.epoch = self.unsigned()?,
            "error" => f.error = self.string_field()?,
            "message" => f.message = self.string_field()?,
            "retry_after_ms" => f.retry_after_ms = self.unsigned()?,
            _ => {
                let start = self.pos;
                self.skip_value()?;
                f.report = self.store.then_some(&self.bytes[start..self.pos]);
            }
        }
        Ok(())
    }
}
