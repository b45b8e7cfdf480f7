//! The single-pass reply scanner behind [`decode_reply`],
//! [`decode_epoch`] and [`classify_reply`](super::classify_reply).
//!
//! One walk over the bytes of a reply line validates **all** of it as
//! JSON and picks out the handful of top-level fields a reply can carry.
//! Distances are parsed straight into `Vec<u32>`s — no intermediate
//! `Value` per integer; a `tree`'s packed string is decoded 16 digits to 3
//! words at a time — or, with `store` off, only checked, so a hop that
//! merely needs "ok, or which error?" allocates nothing for a well-formed
//! answer.
//!
//! The grammar is the `serde_json` stand-in's, leniencies included
//! (leading zeros, `1.`, integral floats as integers, `MAX_DEPTH`
//! nesting): a line is accepted here exactly when `serde_json::from_str`
//! accepts it. Only the shapes an encoder writes are read here; a string
//! with an escape or a number that is not a short run of digits is cut
//! out and handed to `serde_json` itself. A `dist` string is packed words
//! only when it is canonical base64 of whole words, escapes excluded;
//! any other string is a valid line whose `dist` is no payload.
//! `tests/wire_codec.rs` holds the scanner against the test-only `Value`
//! oracle on every truncation and byte flip of every reply shape.
//!
//! [`decode_reply`]: super::decode_reply
//! [`decode_epoch`]: super::decode_epoch

use super::BASE64;
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

/// Each byte's base64 digit value; `NOT_A_DIGIT` for every other byte.
const SEXTETS: [u8; 256] = {
    let mut table = [NOT_A_DIGIT; 256];
    let mut v = 0;
    while v < 64 {
        table[BASE64[v] as usize] = v as u8;
        v += 1;
    }
    table
};

/// Marks a byte that is no base64 digit (`=`, `"` and `\\` included).
const NOT_A_DIGIT: u8 = 0x80;

/// Per position in a group of four digits, each digit's six bits where
/// they land among the group's three bytes, the first byte lowest: a group
/// is the OR of four entries. A non-digit sets bits from 24 up.
const PLACED: [[u32; 256]; 4] = {
    let mut placed = [[u32::MAX; 256]; 4];
    let mut b = 0;
    while b < 256 {
        let s = SEXTETS[b] as u32;
        if s < 64 {
            placed[0][b] = s << 2;
            placed[1][b] = s >> 4 | (s & 0xF) << 12;
            placed[2][b] = s >> 2 << 8 | (s & 0x3) << 22;
            placed[3][b] = s << 16;
        }
        b += 1;
    }
    placed
};

/// A base64 digit, decided without a table so that a block of them is
/// checked many bytes at a time.
fn is_digit(b: u8) -> bool {
    (b.wrapping_sub(b'A') < 26)
        | (b.wrapping_sub(b'a') < 26)
        | (b.wrapping_sub(b'0') < 10)
        | (b == b'+')
        | (b == b'/')
}

/// How many leading bytes of `body` are 64-byte blocks of digits only.
fn digit_blocks(body: &[u8]) -> usize {
    let mut len = 0;
    for block in body.chunks_exact(64) {
        if !block.iter().fold(true, |all, &b| all & is_digit(b)) {
            break;
        }
        len += 64;
    }
    len
}

/// Decodes 16-digit blocks of `body` (12 bytes, 3 words each) onto `out`
/// until a block holds a non-digit; returns the digits decoded.
fn decode_blocks(body: &[u8], out: &mut Vec<u32>) -> usize {
    let mut len = 0;
    for block in body.chunks_exact(16) {
        let block: &[u8; 16] = block.try_into().expect("16 digits");
        let group = |i: usize| {
            PLACED[0][usize::from(block[i])]
                | PLACED[1][usize::from(block[i + 1])]
                | PLACED[2][usize::from(block[i + 2])]
                | PLACED[3][usize::from(block[i + 3])]
        };
        let (a, b, c, d) = (group(0), group(4), group(8), group(12));
        if (a | b | c | d) >> 24 != 0 {
            break;
        }
        out.extend_from_slice(&[a | b << 24, b >> 8 | c << 16, c >> 16 | d << 8]);
        len += 16;
    }
    len
}

/// Whether `digits` and `pad` `=` are the base64 of whole words: groups of
/// four, at most two `=`, and none of the bits the last digit carries
/// beyond the last byte (4 or 2) set.
fn whole_words(digits: &[u8], pad: usize) -> bool {
    let spare = match digits.len() % 4 {
        0 => 0,
        2 => 0xF,
        3 => 0x3,
        _ => return false,
    };
    let bytes = digits.len() / 4 * 3 + (digits.len() % 4).saturating_sub(1);
    let last = digits.last().map_or(0, |&b| SEXTETS[usize::from(b)]);
    pad <= 2
        && (digits.len() + pad).is_multiple_of(4)
        && bytes.is_multiple_of(4)
        && last & spare == 0
}

/// Decodes the digits after the last whole block onto `out`, a bit at a
/// time: they make whole words (checked by [`whole_words`]).
fn decode_tail(digits: &[u8], out: &mut Vec<u32>) {
    let (mut acc, mut bits) = (0u32, 0);
    let (mut word, mut len) = (0u32, 0);
    for &b in digits {
        acc = acc << 6 | u32::from(SEXTETS[usize::from(b)]);
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            word |= (acc >> bits & 0xFF) << (8 * len);
            len += 1;
            if len == 4 {
                out.push(word);
                (word, len) = (0, 0);
            }
        }
    }
}

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
    /// A string of well-formed packed words (a `tree`): the base64 of
    /// little-endian `u32`s. Empty when the scanner does not store.
    Packed(Vec<u32>),
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

    /// Packed words, cursor on the opening `"`: RFC 4648 base64 with its
    /// padding, no other byte, no bits left over, whole words only. Any
    /// other string is validated as a string and read as `Other`.
    fn packed(&mut self) -> Scan<Dist> {
        let open = self.pos;
        let body = &self.bytes[open + 1..];
        let mut vals = Vec::new();
        let mut end = if self.store {
            vals.reserve(body.len() / 16 * 3 + 2);
            decode_blocks(body, &mut vals)
        } else {
            digit_blocks(body)
        };
        // Less than a block of digits is left, then the padding and the quote.
        let tail = end;
        while body.get(end).copied().is_some_and(is_digit) {
            end += 1;
        }
        let pad = body[end..].iter().take_while(|&&b| b == b'=').count();
        if body.get(end + pad) != Some(&b'"') {
            // Not packed words after all; still maybe a JSON string.
            return self.string().map(|_| Dist::Other);
        }
        self.pos = open + end + pad + 2;
        if !whole_words(&body[..end], pad) {
            return Ok(Dist::Other);
        }
        if self.store {
            decode_tail(&body[tail..end], &mut vals);
        }
        Ok(Dist::Packed(vals))
    }

    fn dist(&mut self) -> Scan<Dist> {
        match self.peek() {
            Some(b'"') => self.packed(),
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
