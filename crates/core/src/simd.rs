//! Sweep kernels: scalar, SSE4.1 and AVX2.
//!
//! The paper's Section IV-B: distance labels are 32-bit, so a 128-bit SSE
//! register holds four of them and one packed `add` + packed `min` relaxes
//! one arc for four trees at once (packed *unsigned* min needs SSE 4.1 —
//! the paper makes the same observation). The AVX2 kernel is the natural
//! 8-lane extension on newer cores.
//!
//! All kernels share one contract, [`SweepParams`]: process vertices of a
//! range in increasing sweep-ID order; for each vertex either take its `k`
//! marked labels or `∞`, relax every incoming downward arc for all `k`
//! trees, clamp to `INF`, store, and clear the mark.

use phast_graph::csr::ReverseArc;
use phast_graph::INF;
use std::ops::Range;

/// Kernel selection for the batched sweep, ordered by what the CPU must
/// offer: each level needs everything the one before it needs, so
/// `requested.min(best_simd_for(k))` is the most a request may be granted
/// — running a kernel the CPU lacks is undefined behaviour, not a slow
/// path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loop (any `k`).
    Scalar,
    /// SSE4.1 packed 4-lane kernel (`k` must be a multiple of 4).
    Sse41,
    /// AVX2 packed 8-lane kernel (`k` must be a multiple of 4; odd
    /// half-chunks fall back to one SSE chunk).
    Avx2,
}

/// Largest `k` the register-resident SIMD kernels support.
pub const MAX_K: usize = 64;

/// Detects the best kernel the CPU supports for batch width `k`.
pub fn best_simd_for(k: usize) -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if k.is_multiple_of(4) && k <= MAX_K {
            if is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
            if is_x86_feature_detected!("sse4.1") {
                return SimdLevel::Sse41;
            }
        }
    }
    let _ = k;
    SimdLevel::Scalar
}

/// Borrowed inputs of one sweep-range invocation.
///
/// `dist` points at `n * k` labels laid out row-major (the `k` labels of a
/// vertex are consecutive); `marked` at `n` bytes.
pub(crate) struct SweepParams<'a> {
    pub first: &'a [u32],
    pub arcs: &'a [ReverseArc],
    pub k: usize,
    pub dist: *mut u32,
    pub marked: *mut u8,
}

/// Runs the selected kernel over `range`.
///
/// # Safety
///
/// * `dist` must be valid for `n * k` elements, `marked` for `n`, where
///   `n = first.len() - 1`;
/// * every arc tail in the range's arc slices must be `< range.start` or
///   already finalized (the caller guarantees the topological property);
/// * the caller must have exclusive access to the label rows and marks of
///   `range` and shared access to all earlier rows (no other thread may
///   write them concurrently).
pub(crate) unsafe fn sweep_range(level: SimdLevel, p: &SweepParams<'_>, range: Range<usize>) {
    // The caller upholds this function's own contract, which is exactly
    // each kernel's contract; the SIMD arms are only selected when
    // `best_simd_for`/`force_simd` verified the CPU feature.
    match level {
        // SAFETY: see above.
        SimdLevel::Scalar => unsafe { sweep_range_scalar(p, range) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see above.
        SimdLevel::Sse41 => unsafe { sweep_range_sse41(p, range) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see above.
        SimdLevel::Avx2 => unsafe { sweep_range_avx2(p, range) },
        #[cfg(not(target_arch = "x86_64"))]
        // SAFETY: see above.
        _ => unsafe { sweep_range_scalar(p, range) },
    }
}

/// Portable kernel; the structure mirrors the SIMD versions so the compiler
/// can auto-vectorize the inner lane loop.
///
/// # Safety
///
/// See [`sweep_range`].
pub(crate) unsafe fn sweep_range_scalar(p: &SweepParams<'_>, range: Range<usize>) {
    let k = p.k;
    for v in range {
        // SAFETY: caller guarantees exclusive access to row v and mark v.
        let row = unsafe { std::slice::from_raw_parts_mut(p.dist.add(v * k), k) };
        // SAFETY: as above — mark v belongs to this range.
        let marked = unsafe { &mut *p.marked.add(v) };
        if *marked == 0 {
            row.fill(INF);
        }
        let lo = p.first[v] as usize;
        let hi = p.first[v + 1] as usize;
        for a in &p.arcs[lo..hi] {
            // SAFETY: tails precede v in sweep order, so their rows are
            // final and no thread is writing them.
            let base = unsafe { std::slice::from_raw_parts(p.dist.add(a.tail as usize * k), k) };
            let w = a.weight;
            for i in 0..k {
                let cand = base[i] + w;
                if cand < row[i] {
                    row[i] = cand;
                }
            }
        }
        for x in row.iter_mut() {
            if *x > INF {
                *x = INF;
            }
        }
        *marked = 0;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// SSE4.1 kernel: the whole `k`-wide accumulator row lives in XMM
    /// registers across the arc loop (`k <= 64` means at most 16 chunks).
    ///
    /// # Safety
    ///
    /// See [`sweep_range`]; additionally requires SSE4.1 and `k % 4 == 0`.
    #[target_feature(enable = "sse4.1")]
    pub(crate) unsafe fn sweep_range_sse41(p: &SweepParams<'_>, range: Range<usize>) {
        debug_assert_eq!(p.k % 4, 0);
        debug_assert!(p.k <= MAX_K);
        let chunks = p.k / 4;
        // SAFETY: intrinsics below stay within the bounds the caller
        // guarantees (rows v and tail rows of length k).
        unsafe {
            let inf = _mm_set1_epi32(INF as i32);
            let mut acc = [_mm_setzero_si128(); MAX_K / 4];
            for v in range {
                let row = p.dist.add(v * p.k);
                if *p.marked.add(v) == 0 {
                    acc[..chunks].fill(inf);
                } else {
                    for (c, a) in acc[..chunks].iter_mut().enumerate() {
                        *a = _mm_loadu_si128(row.add(4 * c).cast());
                    }
                }
                let lo = p.first[v] as usize;
                let hi = p.first[v + 1] as usize;
                for a in &p.arcs[lo..hi] {
                    let w4 = _mm_set1_epi32(a.weight as i32);
                    let base = p.dist.add(a.tail as usize * p.k);
                    for (c, av) in acc[..chunks].iter_mut().enumerate() {
                        let t = _mm_add_epi32(_mm_loadu_si128(base.add(4 * c).cast()), w4);
                        *av = _mm_min_epu32(*av, t);
                    }
                }
                for (c, av) in acc[..chunks].iter_mut().enumerate() {
                    *av = _mm_min_epu32(*av, inf);
                    _mm_storeu_si128(row.add(4 * c).cast(), *av);
                }
                *p.marked.add(v) = 0;
            }
        }
    }

    /// AVX2 kernel: 8 lanes per chunk; a trailing 4-lane chunk (when
    /// `k % 8 == 4`) is handled with SSE operations.
    ///
    /// # Safety
    ///
    /// See [`sweep_range`]; additionally requires AVX2 and `k % 4 == 0`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn sweep_range_avx2(p: &SweepParams<'_>, range: Range<usize>) {
        debug_assert_eq!(p.k % 4, 0);
        debug_assert!(p.k <= MAX_K);
        let wide = p.k / 8;
        let has_tail = p.k % 8 == 4;
        let tail_off = wide * 8;
        // SAFETY: as in the SSE kernel.
        unsafe {
            let inf8 = _mm256_set1_epi32(INF as i32);
            let inf4 = _mm_set1_epi32(INF as i32);
            let mut acc = [_mm256_setzero_si256(); MAX_K / 8];
            let mut tacc = _mm_setzero_si128();
            for v in range {
                let row = p.dist.add(v * p.k);
                if *p.marked.add(v) == 0 {
                    acc[..wide].fill(inf8);
                    if has_tail {
                        tacc = inf4;
                    }
                } else {
                    for (c, a) in acc[..wide].iter_mut().enumerate() {
                        *a = _mm256_loadu_si256(row.add(8 * c).cast());
                    }
                    if has_tail {
                        tacc = _mm_loadu_si128(row.add(tail_off).cast());
                    }
                }
                let lo = p.first[v] as usize;
                let hi = p.first[v + 1] as usize;
                for a in &p.arcs[lo..hi] {
                    let w8 = _mm256_set1_epi32(a.weight as i32);
                    let base = p.dist.add(a.tail as usize * p.k);
                    for (c, av) in acc[..wide].iter_mut().enumerate() {
                        let t = _mm256_add_epi32(_mm256_loadu_si256(base.add(8 * c).cast()), w8);
                        *av = _mm256_min_epu32(*av, t);
                    }
                    if has_tail {
                        let w4 = _mm_set1_epi32(a.weight as i32);
                        let t = _mm_add_epi32(_mm_loadu_si128(base.add(tail_off).cast()), w4);
                        tacc = _mm_min_epu32(tacc, t);
                    }
                }
                for (c, av) in acc[..wide].iter_mut().enumerate() {
                    *av = _mm256_min_epu32(*av, inf8);
                    _mm256_storeu_si256(row.add(8 * c).cast(), *av);
                }
                if has_tail {
                    tacc = _mm_min_epu32(tacc, inf4);
                    _mm_storeu_si128(row.add(tail_off).cast(), tacc);
                }
                *p.marked.add(v) = 0;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{sweep_range_avx2, sweep_range_sse41};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_respects_lane_constraints() {
        // k not a multiple of 4 must always select scalar.
        assert_eq!(best_simd_for(3), SimdLevel::Scalar);
        assert_eq!(best_simd_for(7), SimdLevel::Scalar);
        // Oversized k falls back to scalar.
        assert_eq!(best_simd_for(MAX_K + 4), SimdLevel::Scalar);
    }

    /// Regression: `force_simd` used to grant any non-scalar request
    /// whenever *some* SIMD level was available, so `Avx2` on an
    /// SSE4.1-only CPU selected the AVX2 kernel. It now grants
    /// `requested.min(available)`, which rests on the variant order.
    #[test]
    fn a_forced_level_never_exceeds_the_available_one() {
        use SimdLevel::{Avx2, Scalar, Sse41};
        for (requested, available, want) in [
            (Scalar, Scalar, Scalar),
            (Scalar, Sse41, Scalar),
            (Scalar, Avx2, Scalar),
            (Sse41, Scalar, Scalar),
            (Sse41, Sse41, Sse41),
            (Sse41, Avx2, Sse41),
            (Avx2, Scalar, Scalar),
            (Avx2, Sse41, Sse41),
            (Avx2, Avx2, Avx2),
        ] {
            assert_eq!(
                requested.min(available),
                want,
                "{requested:?} asked, {available:?} available"
            );
        }
    }

    #[test]
    fn kernels_agree_on_a_tiny_sweep() {
        // Hand-built G↓: 3 vertices; vertex 2 has arcs from 0 and 1.
        let first = vec![0u32, 0, 1, 3];
        let arcs = vec![
            ReverseArc::new(0, 5),
            ReverseArc::new(0, 7),
            ReverseArc::new(1, 1),
        ];
        let k = 8;
        let run = |level: SimdLevel| {
            let mut dist = vec![0u32; 3 * k];
            let mut marked = vec![0u8; 3];
            // Seed tree labels at vertex 0 and 1 as if a CH search ran.
            for i in 0..k {
                dist[i] = 10 + i as u32; // vertex 0
                dist[k + i] = 100 + i as u32; // vertex 1
            }
            marked[0] = 1;
            marked[1] = 1;
            let p = SweepParams {
                first: &first,
                arcs: &arcs,
                k,
                dist: dist.as_mut_ptr(),
                marked: marked.as_mut_ptr(),
            };
            // SAFETY: single-threaded full-range call over valid arrays.
            unsafe { sweep_range(level, &p, 0..3) };
            assert!(marked.iter().all(|&m| m == 0));
            dist
        };
        let scalar = run(SimdLevel::Scalar);
        // Vertex 1 improves to 10+i+5 = 15+i via its arc from vertex 0;
        // vertex 2 then sees min(10+i+7, 15+i+1) = 16+i.
        for i in 0..k {
            assert_eq!(scalar[k + i], 15 + i as u32);
            assert_eq!(scalar[2 * k + i], 16 + i as u32);
        }
        if is_x86_feature_detected!("sse4.1") {
            assert_eq!(run(SimdLevel::Sse41), scalar);
        }
        if is_x86_feature_detected!("avx2") {
            assert_eq!(run(SimdLevel::Avx2), scalar);
        }
    }

    #[test]
    fn kernels_clamp_unreached_chains_to_inf() {
        // Vertex 1 unreached (mark clear, stale garbage label), vertex 2
        // hangs off it: the result must clamp to INF, not overflow.
        let first = vec![0u32, 0, 0, 1];
        let arcs = vec![ReverseArc::new(1, 1000)];
        for k in [4usize, 12] {
            for level in [SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2] {
                if level == SimdLevel::Sse41 && !is_x86_feature_detected!("sse4.1") {
                    continue;
                }
                if level == SimdLevel::Avx2 && !is_x86_feature_detected!("avx2") {
                    continue;
                }
                let mut dist = vec![0xDEAD_BEEFu32; 3 * k];
                let mut marked = vec![0u8; 3];
                let p = SweepParams {
                    first: &first,
                    arcs: &arcs,
                    k,
                    dist: dist.as_mut_ptr(),
                    marked: marked.as_mut_ptr(),
                };
                // SAFETY: single-threaded full-range call over valid arrays.
                unsafe { sweep_range(level, &p, 0..3) };
                assert!(dist[k..].iter().all(|&d| d == INF), "{level:?} k={k}");
            }
        }
    }
}
