//! CRC-32 (IEEE 802.3 polynomial), at memory speed where the CPU allows.
//!
//! Implemented in-crate so the store has no external dependency for its
//! integrity checks; the polynomial matches zlib/gzip/`cksum -o3`, so
//! section checksums can be verified with standard tools.
//!
//! Two kernels compute the same digest, and [`Crc32::update`] picks one
//! per call:
//!
//! * on x86-64 CPUs with `pclmulqdq` and SSE4.1, a carry-less-multiply
//!   fold (Gopal et al., Intel 2009, "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ"): four 128-bit lanes advance 64 bytes
//!   per step, then fold into one lane and reduce to 32 bits by Barrett
//!   reduction;
//! * everywhere else, for slices shorter than 64 bytes and for the last
//!   < 16 bytes of a folded one, a 256-entry table stepped one
//!   byte at a time. [`crc32_table`] runs the table alone: it is the
//!   checked twin the tests pin the fold to.
//!
//! [`crc32_combine`] derives the digest of a concatenation from the
//! digests of its parts, so a reader that has hashed every section
//! payload need not hash them again for the whole-file CRC.

/// Reflected IEEE polynomial (bit 31 is `x^0`, the `x^32` term implied).
const POLY: u32 = 0xEDB8_8320;

/// Shortest slice the fold kernel takes: one 16-byte block per lane.
const FOLD_MIN_LEN: usize = 64;

/// 256-entry lookup table, built at compile time.
static TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Advances the raw (complemented) CRC `state` over `bytes`, one table
/// step per byte.
fn table_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// `a · b mod P(x)` over GF(2), both operands reflected like the CRC
/// (bit 31 is `x^0`).
const fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        // b ← b · x mod P(x).
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `x^e mod P(x)`, reflected, by square-and-multiply.
const fn x_pow_mod(mut e: u64) -> u32 {
    let mut result = 1u32 << 31; // x^0
    let mut square = 1u32 << 30; // x^1, then x^2, x^4, …
    while e != 0 {
        if e & 1 != 0 {
            result = mul_mod(result, square);
        }
        square = mul_mod(square, square);
        e >>= 1;
    }
    result
}

/// Running CRC-32 state; feed bytes with [`Self::update`], read the
/// digest with [`Self::finish`].
#[derive(Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum: the `pclmulqdq` fold for the whole
    /// 16-byte blocks of a long enough slice when the CPU has it, the byte
    /// table for everything else.
    pub fn update(&mut self, mut bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= FOLD_MIN_LEN && fold::detected() {
            // SAFETY: `fold::detected()` has just confirmed that this CPU
            // has `pclmulqdq` and SSE4.1, the features `fold::fold` is
            // compiled for; this is its only call site.
            (self.state, bytes) = unsafe { fold::fold(self.state, bytes) };
        }
        self.state = table_update(self.state, bytes);
    }

    /// Advances the checksum past `len` bytes whose own CRC-32 is `crc`,
    /// as if they had been fed to [`Self::update`].
    pub fn combine(&mut self, crc: u32, len: u64) {
        self.state = !crc32_combine(self.finish(), crc, len);
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot checksum of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// [`crc32`] by the byte table alone, whatever the CPU: the checked twin
/// of the fold kernel, and the baseline `phast_cli bench` rates it by.
pub fn crc32_table(bytes: &[u8]) -> u32 {
    !table_update(!0, bytes)
}

/// The CRC-32 of `a ++ b` from `crc1 = crc32(a)`, `crc2 = crc32(b)` and
/// `len2 = b.len()`: `crc1` shifted past `len2` bytes (a multiply by
/// `x^(8·len2) mod P(x)`), plus `crc2` — O(log `len2`), whatever `len2`.
pub fn crc32_combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    mul_mod(x_pow_mod(len2.wrapping_mul(8)), crc1) ^ crc2
}

/// Which kernel [`Crc32::update`] runs on this CPU for slices of 64 bytes
/// or more: `"pclmulqdq"` or `"table"`.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if fold::detected() {
        return "pclmulqdq";
    }
    "table"
}

#[cfg(target_arch = "x86_64")]
mod fold {
    use super::{x_pow_mod, FOLD_MIN_LEN, POLY};
    use std::arch::x86_64::*;

    /// A fold constant: `x^e mod P(x)`, reflected and shifted left one
    /// bit — the 33-bit form a carry-less multiply of reflected operands
    /// needs.
    const fn k(e: u64) -> i64 {
        ((x_pow_mod(e) as u64) << 1) as i64
    }

    /// Four lanes forward by 512 bits: the low and high halves of a lane.
    const K1: i64 = k(4 * 128 + 32);
    const K2: i64 = k(4 * 128 - 32);
    /// One lane forward by 128 bits.
    const K3: i64 = k(128 + 32);
    const K4: i64 = k(128 - 32);
    /// 64 bits down to 32.
    const K5: i64 = k(64);
    /// `P(x)` reflected, its `x^32` term included: 33 bits.
    const P: i64 = (((POLY as u64) << 1) | 1) as i64;
    /// `μ = ⌊x^64 / P(x)⌋` reflected, the Barrett constant.
    const MU: i64 = barrett_mu();

    const fn barrett_mu() -> i64 {
        // Long division in the unreflected representation (bit i is x^i).
        let divisor = (1u128 << 32) | POLY.reverse_bits() as u128;
        let mut rem = 1u128 << 64;
        let mut quotient = 0u64;
        let mut i = 64;
        while i >= 32 {
            if (rem >> i) & 1 != 0 {
                quotient |= 1 << (i - 32);
                rem ^= divisor << (i - 32);
            }
            i -= 1;
        }
        // Reflect the 33-bit quotient.
        (quotient.reverse_bits() >> 31) as i64
    }

    /// Whether this CPU has what [`fold`] is compiled for.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// The first 16 bytes of `block`.
    #[inline(always)]
    fn load(block: &[u8]) -> __m128i {
        let block = &block[..16];
        // SAFETY: `block` is 16 readable bytes (the slice above checked
        // it), and `_mm_loadu_si128` takes any alignment; SSE2 is part of
        // x86-64.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `lane` carried forward by the distance `keys` encodes, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128(lane, keys, 0x00);
        let high = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(low, high), next)
    }

    /// Advances the raw CRC `state` over every whole 16-byte block of
    /// `bytes` (at least [`FOLD_MIN_LEN`] bytes long), returning the new
    /// state and the < 16 bytes left over for the table.
    ///
    /// Every intrinsic below needs `pclmulqdq` or SSE4.1 at most, which
    /// this function is compiled for; calling it is `unsafe` anywhere else,
    /// and [`super::Crc32::update`] does so only after [`detected`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        assert!(
            bytes.len() >= FOLD_MIN_LEN,
            "the fold takes at least one block per lane"
        );
        // Four lanes, one per 16 bytes of each 64; the state goes into the
        // first four bytes.
        let mut x0 = _mm_xor_si128(load(bytes), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&bytes[16..]);
        let mut x2 = load(&bytes[32..]);
        let mut x3 = load(&bytes[48..]);
        let by_four = _mm_set_epi64x(K2, K1);
        let mut lines = bytes[FOLD_MIN_LEN..].chunks_exact(64);
        for line in &mut lines {
            x0 = fold_into(x0, load(line), by_four);
            x1 = fold_into(x1, load(&line[16..]), by_four);
            x2 = fold_into(x2, load(&line[32..]), by_four);
            x3 = fold_into(x3, load(&line[48..]), by_four);
        }
        // The four lanes into one, then the whole blocks that are left.
        let by_one = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x0, x1, by_one);
        x = fold_into(x, x2, by_one);
        x = fold_into(x, x3, by_one);
        let mut blocks = lines.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold_into(x, load(block), by_one);
        }
        // 128 bits to 64: the low half times x^96, plus the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, by_one, 0x10), _mm_srli_si128(x, 8));
        // 64 bits to 32: the low word times x^64, plus the rest.
        let low_word = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low_word), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: the remainder modulo P(x), in the second word.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low_word), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low_word), p_mu, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        (state, blocks.remainder())
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The derived constants are the published ones (the Linux
        /// kernel's `crc32-pclmul_asm.S`, `R1`…`R5`, `P'`, `μ'`).
        #[test]
        fn constants_match_the_published_ones() {
            assert_eq!(K1, 0x1_5444_2BD4);
            assert_eq!(K2, 0x1_C6E4_1596);
            assert_eq!(K3, 0x1_7519_97D0);
            assert_eq!(K4, 0x0_CCAA_009E);
            assert_eq!(K5, 0x1_63CD_6124);
            assert_eq!(P, 0x1_DB71_0641);
            assert_eq!(MU, 0x1_F701_1641);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// IEEE CRC-32 vectors: the standard three, then two long enough for
    /// the fold, whose digests come from zlib and agree with gzip's
    /// trailer.
    fn vectors() -> Vec<(Vec<u8>, u32)> {
        let fox = b"The quick brown fox jumps over the lazy dog";
        vec![
            (b"".to_vec(), 0x0000_0000),
            (b"123456789".to_vec(), 0xCBF4_3926),
            (fox.to_vec(), 0x414F_A339),
            (fox.repeat(100), 0x9F5F_A465),
            (
                (0..1u32 << 20).map(|i| (i * 31 + 7) as u8).collect(),
                0xD424_BDC1,
            ),
        ]
    }

    /// `len` bytes of splitmix64 output from `seed`.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// The dispatched digest of `data` fed in pieces cut at `cuts`.
    fn in_pieces(data: &[u8], cuts: &[usize]) -> u32 {
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut c = Crc32::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([data.len()]) {
            c.update(&data[from..cut]);
            from = cut;
        }
        c.finish()
    }

    #[test]
    fn known_vectors() {
        for (data, want) in vectors() {
            assert_eq!(crc32(&data), want, "dispatched, {} bytes", data.len());
            assert_eq!(crc32_table(&data), want, "table, {} bytes", data.len());
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"hello phast store";
        let mut c = Crc32::new();
        c.update(&data[..5]);
        c.update(&data[5..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data = vec![0xA5u8; 97];
        let base = crc32(&data);
        for i in 0..data.len() {
            data[i] ^= 0x10;
            assert_ne!(crc32(&data), base, "flip at byte {i} undetected");
            data[i] ^= 0x10;
        }
    }

    /// Buffers of a MiB and more, at every start offset mod 64, through
    /// the fold's long 64-byte loop and every tail length.
    #[test]
    fn long_buffers_match_the_table() {
        for (len, seed) in [(1 << 20, 1), ((1 << 20) + 15, 2), ((3 << 20) + 77, 3)] {
            let buf = noise(seed, len + 64);
            for offset in [0, 1, 7, 16, 33, 63] {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), crc32_table(data), "{len} bytes at +{offset}");
            }
        }
    }

    #[test]
    fn combine_edge_cases() {
        let data = noise(9, 4096);
        for split in [
            0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 4095, 4096,
        ] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                crc32(&data),
                "split at {split}"
            );
        }
        // An empty `b` changes nothing; an empty `a` contributes nothing.
        assert_eq!(crc32_combine(0xDEAD_BEEF, crc32(b""), 0), 0xDEAD_BEEF);
        assert_eq!(crc32_combine(crc32(b""), crc32(&data), 4096), crc32(&data));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The dispatched kernel equals the byte table at every length,
        /// start offset and set of `update` split points.
        #[test]
        fn dispatched_matches_table(
            len in 0usize..8192,
            offset in 0usize..64,
            seed in 0u64..u64::MAX,
            cuts in proptest::collection::vec(0usize..8193, 0..6),
        ) {
            let buf = noise(seed, offset + len);
            let data = &buf[offset..];
            let want = crc32_table(data);
            prop_assert_eq!(crc32(data), want, "{} bytes at +{}", len, offset);
            prop_assert_eq!(in_pieces(data, &cuts), want, "{} bytes cut at {:?}", len, cuts);
        }

        /// `crc32_combine` of two parts is the digest of their
        /// concatenation, either part possibly empty.
        #[test]
        fn combine_matches_concatenation(
            len_a in 0usize..600,
            len_b in 0usize..600,
            seed in 0u64..u64::MAX,
        ) {
            let data = noise(seed, len_a + len_b);
            let (a, b) = data.split_at(len_a);
            prop_assert_eq!(crc32_combine(crc32(a), crc32(b), len_b as u64), crc32(&data));
            let mut c = Crc32::new();
            c.update(a);
            c.combine(crc32(b), len_b as u64);
            prop_assert_eq!(c.finish(), crc32(&data));
        }
    }
}
