//! Sweep kernels: the scalar reference for any `k`, the scalar `k = 1`
//! loop (with or without parent pointers), and one packed kernel body
//! instantiated for SSE4.1 (4 lanes) and AVX2 (8 lanes).
//!
//! The paper's Section IV-B: distance labels are 32-bit, so a 128-bit SSE
//! register holds four of them and one packed `add` + packed `min` relaxes
//! one arc for four trees at once (packed *unsigned* min needs SSE 4.1 —
//! the paper makes the same observation); a 256-bit AVX2 register holds
//! eight. The `k`-wide row of the vertex being relaxed stays in registers
//! across its arc loop, which takes a chunk count known at compile time:
//! the body is generic over the lane type and a `const` chunk count, and
//! there is one instantiation per admitted `k` and level (the table in
//! `x86::kernel`). With the count a run-time value the accumulators are a
//! stack array, reloaded and stored again for every chunk of every arc —
//! that cost 40 % of the sweep at `k = 16` (DESIGN §4). The same holds at
//! `k = 1` without any packing: [`sweep_single`] keeps the one label (and
//! its parent) in a register, which the any-`k` loop cannot.
//!
//! All kernels share one contract, [`SweepParams`]: process the rows of a
//! range in increasing order; for each row either take its `k` marked
//! labels or `∞`, relax every incoming arc for all `k` trees, clamp to
//! `INF`, store, and clear the mark. A row is a sweep vertex of the full
//! `G↓` or a restricted vertex of a selection — the kernels cannot tell.

use crate::upward::NO_PARENT;
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
    /// The packed kernel on 4-lane SSE4.1 registers (`k` must be a
    /// multiple of 4).
    Sse41,
    /// The packed kernel on 8-lane AVX2 registers (`k` must be a multiple
    /// of 4; an odd half-chunk is one 4-lane column block).
    Avx2,
}

/// Largest `k` the packed kernel is instantiated for.
pub const MAX_K: usize = 64;

/// Detects the best kernel the CPU supports for batch width `k`: the
/// highest level the CPU has that holds an instantiation for `k`
/// (multiples of 4 up to [`MAX_K`]).
pub fn best_simd_for(k: usize) -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && x86::kernel(SimdLevel::Avx2, k).is_some() {
            return SimdLevel::Avx2;
        }
        if is_x86_feature_detected!("sse4.1") && x86::kernel(SimdLevel::Sse41, k).is_some() {
            return SimdLevel::Sse41;
        }
    }
    let _ = k;
    SimdLevel::Scalar
}

/// Borrowed inputs of one sweep-range invocation.
///
/// `dist` points at `n * k` labels laid out row-major (the `k` labels of a
/// row are consecutive); `marked` at `n` bytes; `parent` is null, or (at
/// `k = 1` only) points at `n` parent slots the sweep fills with the tail
/// of the arc that set each label.
pub(crate) struct SweepParams<'a> {
    pub first: &'a [u32],
    pub arcs: &'a [ReverseArc],
    pub k: usize,
    pub dist: *mut u32,
    pub marked: *mut u8,
    pub parent: *mut u32,
}

// SAFETY: the pointers are dereferenced only inside `sweep_range`, whose
// contract has every caller — so every thread sharing one `SweepParams` —
// hold exclusive access to the rows and marks of its own range and read
// only rows that are final; the slices are shared borrows.
unsafe impl Sync for SweepParams<'_> {}

/// Runs the selected kernel over `range`.
///
/// # Safety
///
/// * `dist` must be valid for `n * k` elements, `marked` for `n` and a
///   non-null `parent` for `n`, where `n = first.len() - 1`; `parent` must
///   be null unless `k == 1`;
/// * every arc tail in the range's arc slices must be `< range.start` or
///   already finalized (the caller guarantees the topological property);
/// * the caller must have exclusive access to the label rows and marks of
///   `range` and shared access to all earlier rows (no other thread may
///   write them concurrently);
/// * a SIMD `level` must not exceed `best_simd_for(p.k)` — running a
///   kernel the CPU lacks is undefined behaviour.
pub(crate) unsafe fn sweep_range(level: SimdLevel, p: &SweepParams<'_>, range: Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    if let Some(kernel) = x86::kernel(level, p.k) {
        // SAFETY: the caller upholds this function's contract, which is
        // the kernel's; `kernel` is the instantiation for `p.k`, and the
        // caller vouches for the CPU feature behind `level`.
        return unsafe { kernel(p, range) };
    }
    let _ = level;
    // SAFETY: the caller upholds this function's contract, which is that
    // of each scalar kernel; the parent array is there when it is read.
    unsafe {
        match (p.k, p.parent.is_null()) {
            (1, true) => sweep_single::<false>(p, range),
            (1, false) => sweep_single::<true>(p, range),
            _ => sweep_range_scalar(p, range),
        }
    }
}

/// The scalar sweep at `k = 1`: the label of the row being relaxed — and,
/// with `PARENTS`, the tail of the arc that last improved it — stays in a
/// register across the arc loop. Same order and clamp as
/// [`sweep_range_scalar`], bit-identical labels; a row that ends at `INF`
/// has no parent.
///
/// # Safety
///
/// See [`sweep_range`]; additionally `p.k` must be 1, and `p.parent`
/// non-null if `PARENTS`.
unsafe fn sweep_single<const PARENTS: bool>(p: &SweepParams<'_>, range: Range<usize>) {
    debug_assert_eq!(p.k, 1);
    for v in range {
        let arcs = &p.arcs[p.first[v] as usize..p.first[v + 1] as usize];
        // SAFETY: label, mark and parent `v` belong to this range and the
        // caller has exclusive access to them; tails precede `v` in sweep
        // order, so their labels are final and no thread is writing them.
        unsafe {
            let mark = p.marked.add(v);
            let (mut dv, mut par) = (INF, NO_PARENT);
            if *mark != 0 {
                dv = *p.dist.add(v);
                if PARENTS {
                    par = *p.parent.add(v);
                }
            }
            let mut relax = |a: &ReverseArc| {
                let cand = *p.dist.add(a.tail as usize) + a.weight;
                if cand < dv {
                    dv = cand;
                    par = a.tail;
                }
            };
            // Straight-line code for the short rows that are ~90 % of a
            // road network: the degree tiles make consecutive rows the
            // same length, so this branch predicts, and the sweep's speed
            // no longer hangs on whether the linker lets the 30-byte arc
            // loop straddle a 64-byte line (DESIGN §4).
            match arcs {
                [] => {}
                [a] => relax(a),
                [a, b] => {
                    relax(a);
                    relax(b);
                }
                [a, b, c] => {
                    relax(a);
                    relax(b);
                    relax(c);
                }
                [a, b, c, d] => {
                    relax(a);
                    relax(b);
                    relax(c);
                    relax(d);
                }
                _ => arcs.iter().for_each(relax),
            }
            *p.dist.add(v) = dv.min(INF);
            if PARENTS {
                *p.parent.add(v) = if dv < INF { par } else { NO_PARENT };
            }
            *mark = 0;
        }
    }
}

/// Portable kernel for any `k` (it never fills `parent`), and the
/// reference the other kernels are tested against: same order, same
/// clamp, bit-identical labels.
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

    /// One packed register of `N` 32-bit labels. The methods carry no
    /// `#[target_feature]` of their own: they are inlined into
    /// [`sse41`] / [`avx2`], which do.
    ///
    /// # Safety
    ///
    /// Every method requires the ISA extension of the implementing type;
    /// `load` and `store` also `N` valid labels at `p`.
    trait Lanes: Copy {
        const N: usize;
        unsafe fn splat(x: u32) -> Self;
        unsafe fn load(p: *const u32) -> Self;
        unsafe fn store(self, p: *mut u32);
        unsafe fn add(self, o: Self) -> Self;
        unsafe fn min(self, o: Self) -> Self;
    }

    macro_rules! impl_lanes {
        ($t:ty, $n:literal, $splat:ident, $load:ident, $store:ident, $add:ident, $min:ident) => {
            impl Lanes for $t {
                const N: usize = $n;
                #[inline(always)]
                unsafe fn splat(x: u32) -> Self {
                    // SAFETY: the caller guarantees the ISA extension.
                    unsafe { $splat(x as i32) }
                }
                #[inline(always)]
                unsafe fn load(p: *const u32) -> Self {
                    // SAFETY: as above, and `N` readable labels at `p`;
                    // the intrinsic takes any alignment.
                    unsafe { $load(p.cast()) }
                }
                #[inline(always)]
                unsafe fn store(self, p: *mut u32) {
                    // SAFETY: as above, and `N` writable labels at `p`;
                    // the intrinsic takes any alignment.
                    unsafe { $store(p.cast(), self) }
                }
                #[inline(always)]
                unsafe fn add(self, o: Self) -> Self {
                    // SAFETY: the caller guarantees the ISA extension.
                    unsafe { $add(self, o) }
                }
                #[inline(always)]
                unsafe fn min(self, o: Self) -> Self {
                    // SAFETY: the caller guarantees the ISA extension.
                    unsafe { $min(self, o) }
                }
            }
        };
    }
    impl_lanes!(
        __m128i,
        4,
        _mm_set1_epi32,
        _mm_loadu_si128,
        _mm_storeu_si128,
        _mm_add_epi32,
        _mm_min_epu32
    );
    impl_lanes!(
        __m256i,
        8,
        _mm256_set1_epi32,
        _mm256_loadu_si256,
        _mm256_storeu_si256,
        _mm256_add_epi32,
        _mm256_min_epu32
    );

    /// The kernel body: relaxes the incoming arcs of sweep vertex `v` for
    /// the `C * V::N` trees whose labels start at column `col` of each
    /// `k`-wide row. `C` is a compile-time constant, so the accumulators
    /// are `C` registers for the whole arc loop and every `0..C` loop is
    /// unrolled: per arc and chunk, one packed add (with the tail row as
    /// its memory operand) and one packed min.
    ///
    /// # Safety
    ///
    /// See [`sweep_range`]; additionally `V`'s ISA extension must be
    /// present and `col + C * V::N <= k`.
    #[inline(always)]
    unsafe fn relax_columns<V: Lanes, const C: usize>(
        dist: *mut u32,
        k: usize,
        col: usize,
        v: usize,
        reached: bool,
        arcs: &[ReverseArc],
    ) {
        // SAFETY: row `v` and every tail row are `k` labels long and the
        // columns `col .. col + C * V::N` lie inside them; the caller has
        // exclusive access to row `v`, and tail rows are final.
        unsafe {
            let inf = V::splat(INF);
            let row = dist.add(v * k + col);
            let mut acc = [inf; C];
            if reached {
                for (c, a) in acc.iter_mut().enumerate() {
                    *a = V::load(row.add(c * V::N));
                }
            }
            for arc in arcs {
                let w = V::splat(arc.weight);
                let tail = dist.add(arc.tail as usize * k + col);
                for (c, a) in acc.iter_mut().enumerate() {
                    *a = a.min(V::load(tail.add(c * V::N)).add(w));
                }
            }
            for (c, a) in acc.iter().enumerate() {
                a.min(inf).store(row.add(c * V::N));
            }
        }
    }

    /// Sweeps `range` at `k = CA * A::N + CB * B::N`: per vertex, one
    /// column block of `CA` chunks of lane type `A`, then (when `CB > 0`)
    /// a second of `CB` chunks of `B` over the same arc slice, which is in
    /// L1 by then.
    ///
    /// # Safety
    ///
    /// See [`sweep_range`]; additionally the ISA extensions of `A` and `B`
    /// must be present and `p.k` must equal the `k` above.
    #[inline(always)]
    unsafe fn sweep_rows<A: Lanes, const CA: usize, B: Lanes, const CB: usize>(
        p: &SweepParams<'_>,
        range: Range<usize>,
    ) {
        let k = CA * A::N + CB * B::N;
        debug_assert_eq!(p.k, k);
        for v in range {
            let arcs = &p.arcs[p.first[v] as usize..p.first[v + 1] as usize];
            // SAFETY: mark `v` belongs to this range; the blocks cover
            // columns `0..k` of rows the caller vouches for.
            unsafe {
                let mark = p.marked.add(v);
                let reached = *mark != 0;
                relax_columns::<A, CA>(p.dist, k, 0, v, reached, arcs);
                if CB > 0 {
                    relax_columns::<B, CB>(p.dist, k, CA * A::N, v, reached, arcs);
                }
                *mark = 0;
            }
        }
    }

    /// [`sweep_rows`] compiled for SSE4.1: `k = 4 * (C0 + C1)`.
    ///
    /// # Safety
    ///
    /// See [`sweep_range`]; additionally requires SSE4.1 and `p.k` equal
    /// to the `k` above.
    #[target_feature(enable = "sse4.1")]
    unsafe fn sse41<const C0: usize, const C1: usize>(p: &SweepParams<'_>, range: Range<usize>) {
        // SAFETY: forwarded contract; SSE4.1 is enabled here.
        unsafe { sweep_rows::<__m128i, C0, __m128i, C1>(p, range) }
    }

    /// [`sweep_rows`] compiled for AVX2: `k = 8 * W + 4 * T`, the odd
    /// half-chunk (`T = 1`) being one 4-lane column block.
    ///
    /// # Safety
    ///
    /// See [`sweep_range`]; additionally requires AVX2 and `p.k` equal to
    /// the `k` above.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2<const W: usize, const T: usize>(p: &SweepParams<'_>, range: Range<usize>) {
        // SAFETY: forwarded contract; AVX2 (hence SSE4.1) is enabled here.
        unsafe { sweep_rows::<__m256i, W, __m128i, T>(p, range) }
    }

    /// A kernel instantiation: [`sweep_range`]'s contract at one fixed `k`.
    pub(super) type Kernel = unsafe fn(&SweepParams<'_>, Range<usize>);

    /// The instantiation of the kernel body for `level` at width `k`, and
    /// so the definition of the widths [`best_simd_for`] admits. Each entry
    /// reads `chunks of 4 labels => first block + second block`, in chunks
    /// of the level's own width (for AVX2 the second block is 4-lane).
    ///
    /// A block holds at most 12 accumulators, which with the broadcast
    /// weight and one scratch register leaves two of the 16 vector
    /// registers free, so only the four widest SSE4.1 rows are split.
    /// Measured at n = 100k on the development host: splitting from 9
    /// chunks on was 3-7 % slower at `k` = 36..48, 13-16 chunks in one
    /// block no faster than 8 + rest, and AVX2 `k` = 12 as three 4-lane
    /// chunks the same as 8 + 4.
    pub(super) fn kernel(level: SimdLevel, k: usize) -> Option<Kernel> {
        macro_rules! by_chunks {
            ($f:ident: $($chunks:literal => $a:literal + $b:literal,)*) => {
                match k / 4 {
                    $($chunks => Some($f::<$a, $b> as Kernel),)*
                    _ => None,
                }
            };
        }
        if !k.is_multiple_of(4) {
            return None;
        }
        match level {
            SimdLevel::Scalar => None,
            SimdLevel::Sse41 => by_chunks!(sse41:
                1 => 1 + 0, 2 => 2 + 0, 3 => 3 + 0, 4 => 4 + 0,
                5 => 5 + 0, 6 => 6 + 0, 7 => 7 + 0, 8 => 8 + 0,
                9 => 9 + 0, 10 => 10 + 0, 11 => 11 + 0, 12 => 12 + 0,
                13 => 8 + 5, 14 => 8 + 6, 15 => 8 + 7, 16 => 8 + 8,
            ),
            SimdLevel::Avx2 => by_chunks!(avx2:
                1 => 0 + 1, 2 => 1 + 0, 3 => 1 + 1, 4 => 2 + 0,
                5 => 2 + 1, 6 => 3 + 0, 7 => 3 + 1, 8 => 4 + 0,
                9 => 4 + 1, 10 => 5 + 0, 11 => 5 + 1, 12 => 6 + 0,
                13 => 6 + 1, 14 => 7 + 0, 15 => 7 + 1, 16 => 8 + 0,
            ),
        }
    }
}

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
        // The packed kernel is instantiated for exactly the multiples of
        // 4 up to MAX_K, at either level.
        for k in 0..=MAX_K + 8 {
            let admitted = k % 4 == 0 && (4..=MAX_K).contains(&k);
            assert!(admitted || best_simd_for(k) == SimdLevel::Scalar, "k={k}");
            #[cfg(target_arch = "x86_64")]
            for level in [SimdLevel::Sse41, SimdLevel::Avx2] {
                assert_eq!(x86::kernel(level, k).is_some(), admitted, "{level:?} k={k}");
            }
        }
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

    /// Every width with a kernel of its own: the single lane, and each
    /// width the packed kernel is instantiated for.
    fn widths() -> impl Iterator<Item = usize> {
        std::iter::once(1).chain((4..=MAX_K).step_by(4))
    }

    /// What one test sweep runs.
    #[derive(Clone, Copy, Debug)]
    enum Kernel {
        /// [`sweep_range_scalar`], the reference.
        Reference,
        /// [`sweep_range`] at a level, without a parent array.
        Level(SimdLevel),
        /// [`sweep_range`] with a parent array (`k = 1`).
        Parents,
    }

    /// Every kernel `sweep_range` can reach on this CPU at width `k`, the
    /// scalar one first.
    fn kernels(k: usize) -> Vec<Kernel> {
        let mut kernels: Vec<Kernel> = [SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2]
            .into_iter()
            .filter(|&level| level <= best_simd_for(k))
            .map(Kernel::Level)
            .collect();
        if k == 1 {
            kernels.push(Kernel::Parents);
        }
        kernels
    }

    /// One kernel call on copies of `dist` and `marked`. With
    /// [`Kernel::Parents`] every vertex starts with a parent of its own
    /// (as if an upward search had set it), and the parents the sweep
    /// leaves are checked here: inside `range`, the tail of the first arc
    /// that reaches the final label, else what a marked vertex started
    /// with, and none at `INF`; outside it, untouched.
    fn sweep(
        kernel: Kernel,
        (first, arcs): (&[u32], &[ReverseArc]),
        k: usize,
        (dist, marked): (&[u32], &[u8]),
        range: Range<usize>,
    ) -> (Vec<u32>, Vec<u8>) {
        let n = first.len() - 1;
        let (before, was_marked) = (dist, marked);
        let (mut dist, mut marked) = (dist.to_vec(), marked.to_vec());
        assert_eq!(dist.len(), n * k);
        assert_eq!(marked.len(), n);
        let seed: Vec<u32> = (0..n as u32).map(|v| v ^ 0x5555).collect();
        let mut parent = seed.clone();
        let p = SweepParams {
            first,
            arcs,
            k,
            dist: dist.as_mut_ptr(),
            marked: marked.as_mut_ptr(),
            parent: match kernel {
                Kernel::Parents => parent.as_mut_ptr(),
                _ => std::ptr::null_mut(),
            },
        };
        // SAFETY: single-threaded call over arrays of n*k labels, n marks
        // and n parents; every test graph has its tails below their
        // heads, `kernels` offers only what the CPU has, and parents only
        // at k = 1.
        unsafe {
            match kernel {
                Kernel::Reference => sweep_range_scalar(&p, range.clone()),
                Kernel::Level(level) => sweep_range(level, &p, range.clone()),
                Kernel::Parents => sweep_range(SimdLevel::Scalar, &p, range.clone()),
            }
        }
        if let Kernel::Parents = kernel {
            for v in 0..n {
                let mut want = seed[v];
                if range.contains(&v) {
                    let mut best = if was_marked[v] != 0 { before[v] } else { INF };
                    if was_marked[v] == 0 {
                        want = NO_PARENT;
                    }
                    for a in &arcs[first[v] as usize..first[v + 1] as usize] {
                        let cand = dist[a.tail as usize] + a.weight;
                        if cand < best {
                            (best, want) = (cand, a.tail);
                        }
                    }
                    if best >= INF {
                        want = NO_PARENT;
                    }
                }
                assert_eq!(parent[v], want, "parent of {v}, range {range:?}");
            }
        }
        (dist, marked)
    }

    #[test]
    fn kernels_agree_on_a_tiny_sweep() {
        // Hand-built G↓: 3 vertices; vertex 2 has arcs from 0 and 1.
        let first = [0u32, 0, 1, 3];
        let arcs = [
            ReverseArc::new(0, 5),
            ReverseArc::new(0, 7),
            ReverseArc::new(1, 1),
        ];
        for k in widths() {
            // Seed tree labels at vertex 0 and 1 as if a CH search ran.
            let mut dist = vec![0u32; 3 * k];
            for i in 0..k {
                dist[i] = 10 + i as u32; // vertex 0
                dist[k + i] = 100 + i as u32; // vertex 1
            }
            for level in kernels(k) {
                let (got, marked) = sweep(level, (&first, &arcs), k, (&dist, &[1, 1, 0]), 0..3);
                assert_eq!(marked, [0, 0, 0], "{level:?} k={k}");
                // Vertex 1 improves to 10+i+5 = 15+i via its arc from
                // vertex 0; vertex 2 then sees min(10+i+7, 15+i+1) = 16+i.
                for i in 0..k {
                    assert_eq!(got[i], 10 + i as u32, "{level:?} k={k}");
                    assert_eq!(got[k + i], 15 + i as u32, "{level:?} k={k}");
                    assert_eq!(got[2 * k + i], 16 + i as u32, "{level:?} k={k}");
                }
            }
        }
    }

    /// A 48-vertex G↓ with everything a sweep meets at once: vertices
    /// without incoming arcs, parallel and zero-weight arcs, weights up to
    /// `MAX_WEIGHT`; marked rows with labels from 0 to beyond `INF` per
    /// lane mixed with unmarked rows holding stale labels or garbage. Swept in pieces, as
    /// `run_par` does: the rows below a piece are final, and a piece must
    /// leave everything outside itself alone.
    #[test]
    fn kernels_agree_with_scalar_on_every_piece_of_a_mixed_sweep() {
        const N: usize = 48;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let mut first = vec![0u32];
        let mut arcs = Vec::new();
        for v in 0..N as u64 {
            let degree = if v == 0 || next(4) == 0 {
                0
            } else {
                1 + next(5)
            };
            for _ in 0..degree {
                let weight = match next(4) {
                    0 => 0,
                    1 => phast_graph::MAX_WEIGHT - next(3) as u32,
                    _ => next(1000) as u32,
                };
                arcs.push(ReverseArc::new(next(v) as u32, weight));
            }
            if degree > 1 {
                arcs.push(*arcs.last().expect("degree > 1")); // parallel arc
            }
            first.push(arcs.len() as u32);
        }
        for k in widths() {
            let mut marked = vec![0u8; N];
            let mut dist = vec![0xDEAD_BEEFu32; N * k];
            for v in 0..N {
                let row = &mut dist[v * k..(v + 1) * k];
                match next(3) {
                    0 => marked[v] = 1,
                    // What an unreached row really holds: the labels of
                    // an earlier batch, smaller than this one's.
                    1 => row.fill_with(|| next(100) as u32),
                    _ => continue,
                }
                if marked[v] == 1 {
                    // Above INF is nothing an upward search writes; the
                    // clamp makes it INF in every kernel all the same.
                    row.fill_with(|| match next(5) {
                        0 => INF,
                        1 => INF - next(50) as u32,
                        2 => INF + next(50) as u32,
                        _ => next(5000) as u32,
                    });
                }
            }
            for (lo, hi) in [(0, N), (1, N), (5, 29), (29, N), (17, 17), (N - 1, N)] {
                // Rows below the piece are final before it runs.
                let (dist, marked) = sweep(
                    Kernel::Reference,
                    (&first, &arcs),
                    k,
                    (&dist, &marked),
                    0..lo,
                );
                let want = sweep(
                    Kernel::Reference,
                    (&first, &arcs),
                    k,
                    (&dist, &marked),
                    lo..hi,
                );
                assert!(want.1[lo..hi].iter().all(|&m| m == 0));
                assert!(want.0[lo * k..hi * k].iter().all(|&d| d <= INF));
                assert_eq!(want.0[..lo * k], dist[..lo * k]);
                assert_eq!(want.0[hi * k..], dist[hi * k..]);
                assert_eq!(want.1[hi..], marked[hi..]);
                for level in kernels(k) {
                    let got = sweep(level, (&first, &arcs), k, (&dist, &marked), lo..hi);
                    assert_eq!(got, want, "{level:?} k={k} piece {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn kernels_clamp_unreached_chains_to_inf() {
        // Vertex 1 unreached (mark clear, stale garbage label), vertex 2
        // hangs off it, vertex 3 off that by the heaviest arc there is:
        // the result must clamp to INF, not overflow. Vertex 4 is reached
        // at INF - 1 - lane, and vertex 5 hangs off it by MAX_WEIGHT:
        // `label + w` passes INF in every lane and must not wrap either.
        let first = [0u32, 0, 0, 1, 2, 2, 3];
        let arcs = [
            ReverseArc::new(1, 1000),
            ReverseArc::new(2, phast_graph::MAX_WEIGHT),
            ReverseArc::new(4, phast_graph::MAX_WEIGHT),
        ];
        for k in widths() {
            let mut dist = vec![0xDEAD_BEEFu32; 6 * k];
            for (i, label) in dist[4 * k..5 * k].iter_mut().enumerate() {
                *label = INF - 1 - i as u32;
            }
            for level in kernels(k) {
                let (got, marked) = sweep(
                    level,
                    (&first, &arcs),
                    k,
                    (&dist, &[0, 0, 0, 0, 1, 0]),
                    0..6,
                );
                assert_eq!(marked, [0; 6], "{level:?} k={k}");
                assert_eq!(got[4 * k..5 * k], dist[4 * k..5 * k], "{level:?} k={k}");
                for v in [0, 1, 2, 3, 5] {
                    assert!(
                        got[v * k..(v + 1) * k].iter().all(|&d| d == INF),
                        "{level:?} k={k} vertex {v}"
                    );
                }
            }
        }
    }
}
