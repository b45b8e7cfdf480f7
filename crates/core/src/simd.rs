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
//! the body is generic over a `const` chunk count, and there is one
//! instantiation per admitted `k` and level (the table in
//! `x86::kernel`). With the count a run-time value the accumulators are a
//! stack array, reloaded and stored again for every chunk of every arc —
//! that cost 40 % of the sweep at `k = 16` (DESIGN §4). The same holds at
//! `k = 1` without any packing: [`sweep_single`] keeps the one label (and
//! its parent) in a register, which the any-`k` loop cannot.
//!
//! All kernels share one contract, [`sweep_range`]'s: process the rows of
//! one call in increasing order; for each row either take its `k` marked
//! labels or `∞`, relax every incoming arc for all `k` trees, clamp to
//! `INF`, store, and clear the mark. A row is a sweep vertex of the full
//! `G↓` or a restricted vertex of a selection — the kernels cannot tell.
//! A row reads its arcs' tail rows from the finished rows its call holds
//! ([`Rows`]): the rows before it in a sequential sweep, the earlier
//! levels in an intra-level block. That every tail lies there is the
//! paper's two facts — a tail precedes its head in sweep order (§IV-A),
//! and no arc joins two vertices of one level (Lemma 4.1) — which
//! [`Phast::validate`] checks for every instance and a selection's
//! postorder numbering gives its restricted CSR; [`tail`], the one read
//! without a bounds check, rests on them.

use crate::rphast::TargetSelection;
use phast_ch::search::NO_PARENT;
use crate::Phast;
use phast_graph::csr::ReverseArc;
use phast_graph::INF;
use std::ops::Range;

/// Kernel selection for the batched sweep, ordered by what the CPU must
/// offer: each level needs everything the one before it needs, so
/// `requested.min(best_simd_for(k))` is the most a request may be granted
/// — running a kernel the CPU lacks is undefined behaviour, not a slow
/// path, and [`sweep_range`] clamps every request so.
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
        let has = |level| x86::kernel::<InOrder>(level, k).is_some();
        if is_x86_feature_detected!("avx2") && has(SimdLevel::Avx2) {
            return SimdLevel::Avx2;
        }
        if is_x86_feature_detected!("sse4.1") && has(SimdLevel::Sse41) {
            return SimdLevel::Sse41;
        }
    }
    let _ = k;
    SimdLevel::Scalar
}

/// A view of `G↓` swept at `k` lanes: row `v` relaxes the arcs
/// `arcs[first[v]..first[v + 1]]`, whose tails are rows before `v` — in an
/// earlier one of `levels` where the view has levels. Built only from a
/// [`Phast`] or a [`TargetSelection`], which is what [`tail`] rests on.
pub(crate) struct SweepParams<'a> {
    first: &'a [u32],
    arcs: &'a [ReverseArc],
    /// The full view's levels, highest first; none for a selection.
    levels: &'a [Range<u32>],
    k: usize,
}

impl<'a> SweepParams<'a> {
    /// The full `G↓` of `p`.
    pub fn full(p: &'a Phast, k: usize) -> Self {
        let down = p.down();
        Self {
            first: down.first(),
            arcs: down.arcs(),
            levels: p.level_ranges(),
            k,
        }
    }

    /// The restricted CSR of `sel`, one flat block of rows.
    pub fn selection(sel: &'a TargetSelection<'_>, k: usize) -> Self {
        let (first, arcs) = sel.csr();
        Self {
            first,
            arcs,
            levels: &[],
            k,
        }
    }

    /// The incoming arcs of the rows `start..start + len`, one slice per
    /// row.
    #[inline(always)]
    fn arcs_of(&self, start: usize, len: usize) -> impl Iterator<Item = &'a [ReverseArc]> {
        let (first, arcs) = (&self.first[start..=start + len], self.arcs);
        first
            .windows(2)
            .map(move |w| &arcs[w[0] as usize..w[1] as usize])
    }
}

/// The label rows of one kernel call, and the finished rows their arcs'
/// tails are read from: [`InOrder`] or [`Block`]. Every kernel is
/// instantiated for each, so neither pays for the other.
pub(crate) trait Rows: Sized {
    /// Calls `f(i, arcs, done, row, mark)` for every row `i` of the call,
    /// in order: its incoming arcs, the finished labels its tails are read
    /// from, its `k` labels and its mark (`marked[i]`). `k` is `p.k`,
    /// passed as a constant where the kernel knows it.
    fn each<F: RowFn>(self, p: &SweepParams<'_>, k: usize, marked: &mut [u8], f: F);
}

/// What a kernel does with one row, called as [`Rows::each`] says.
pub(crate) trait RowFn: FnMut(usize, &[ReverseArc], &[u32], &mut [u32], &mut u8) {}

impl<F: FnMut(usize, &[ReverseArc], &[u32], &mut [u32], &mut u8)> RowFn for F {}

/// `InOrder(dist, start)`: rows `start..` of a view, in order — the
/// sequential sweep. `dist` holds the view's rows from 0 up to at least
/// the last one swept, and a row reads its tails from the rows before it.
pub(crate) struct InOrder<'a>(pub &'a mut [u32], pub usize);

impl Rows for InOrder<'_> {
    #[inline(always)]
    fn each<F: RowFn>(self, p: &SweepParams<'_>, k: usize, marked: &mut [u8], mut f: F) {
        let InOrder(dist, start) = self;
        let arcs = p.arcs_of(start, marked.len());
        for (i, (mark, arcs)) in marked.iter_mut().zip(arcs).enumerate() {
            let (done, rest) = dist.split_at_mut((start + i) * k);
            f(i, arcs, done, &mut rest[..k], mark);
        }
    }
}

/// `Block(done, rows, start, level)`: rows `start..` of level `level` (an
/// index into the view's levels) of a full view — one intra-level block.
/// `rows` holds the block's labels and `done` those of every earlier
/// level, where all its tails lie (Lemma 4.1).
pub(crate) struct Block<'a>(pub &'a [u32], pub &'a mut [u32], pub usize, pub usize);

impl Rows for Block<'_> {
    /// # Panics
    ///
    /// Panics unless the block is a run of rows of its level and `done`
    /// exactly the rows of the earlier levels.
    #[inline(always)]
    fn each<F: RowFn>(self, p: &SweepParams<'_>, k: usize, marked: &mut [u8], mut f: F) {
        let Block(done, rows, start, level) = self;
        let (first, end) = (p.levels[level].start as usize, p.levels[level].end as usize);
        let within = first <= start && start + marked.len() <= end && done.len() == first * k;
        assert!(within, "a block lies in one level, after exactly the rest");
        let arcs = p.arcs_of(start, marked.len());
        for (i, ((row, mark), arcs)) in rows.chunks_exact_mut(k).zip(marked).zip(arcs).enumerate() {
            f(i, arcs, done, row, mark);
        }
    }
}

/// Columns `at .. at + len` of the finished labels: part of an arc's tail
/// row, `at = tail * k + col` with `col + len <= k`.
#[inline(always)]
fn tail(done: &[u32], at: usize, len: usize) -> &[u32] {
    debug_assert!(at + len <= done.len(), "a tail outside the finished rows");
    // SAFETY: every caller reads `len` labels from column `col` of a tail
    // row (`at = tail * k + col`, `col + len <= k`) in the finished rows its
    // row was handed, and the tail lies there. `SweepParams` comes only from a `Phast`,
    // whose `validate` (run on every instance) checked each tail to be in
    // a level before its head's, or from a selection, whose postorder
    // numbers each tail before its head. `InOrder` hands a row every row
    // before it; `Block::each` asserts that `done` is exactly the levels
    // before the block's.
    unsafe { done.get_unchecked(at..at + len) }
}

/// Sweeps the rows of one call with the kernel of `level`, clamped to the
/// best one the CPU has at `p.k`. `marked` holds the marks of the call's
/// rows; `parent` is empty or, at `k = 1` only, their parents, which the
/// sweep fills with the tail of the arc that set each label.
///
/// # Panics
///
/// Panics if [`Rows::each`] does, or unless `parent` is empty or, at
/// `k = 1`, as long as `marked`.
pub(crate) fn sweep_range<R: Rows>(
    level: SimdLevel,
    p: &SweepParams<'_>,
    rows: R,
    marked: &mut [u8],
    parent: &mut [u32],
) {
    let parents = parent.is_empty() || (p.k == 1 && parent.len() == marked.len());
    assert!(parents, "parents need k = 1 and one slot per row");
    #[cfg(target_arch = "x86_64")]
    if let Some(kernel) = x86::kernel::<R>(level.min(best_simd_for(p.k)), p.k) {
        // SAFETY: `kernel` is compiled for the CPU features of its level,
        // which `best_simd_for` has just found on this CPU.
        return unsafe { kernel(p, rows, marked) };
    }
    let _ = level;
    match (p.k, parent.is_empty()) {
        (1, true) => sweep_single::<R, false>(p, rows, marked, parent),
        (1, false) => sweep_single::<R, true>(p, rows, marked, parent),
        _ => sweep_range_scalar(p, rows, marked),
    }
}

/// The scalar sweep at `k = 1`: the label of the row being relaxed — and,
/// with `PARENTS`, the tail of the arc that last improved it — stays in a
/// register across the arc loop. Same order and clamp as
/// [`sweep_range_scalar`], bit-identical labels; a row that ends at `INF`
/// has no parent.
fn sweep_single<R: Rows, const PARENTS: bool>(
    p: &SweepParams<'_>,
    rows: R,
    marked: &mut [u8],
    parent: &mut [u32],
) {
    rows.each(p, 1, marked, |i, arcs, done, label, mark| {
        let (mut dv, mut par) = (INF, NO_PARENT);
        if *mark != 0 {
            dv = label[0];
            if PARENTS {
                par = parent[i];
            }
        }
        let mut relax = |a: &ReverseArc| {
            let cand = tail(done, a.tail as usize, 1)[0] + a.weight;
            if cand < dv {
                dv = cand;
                par = a.tail;
            }
        };
        // Straight-line code for the short rows that are ~90 % of a road
        // network: the degree tiles make consecutive rows the same length,
        // so this branch predicts, and the sweep's speed no longer hangs on
        // whether the linker lets the 30-byte arc loop straddle a 64-byte
        // line (DESIGN §4).
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
        label[0] = dv.min(INF);
        if PARENTS {
            parent[i] = if dv < INF { par } else { NO_PARENT };
        }
        *mark = 0;
    });
}

/// Portable kernel for any `k` (it never fills parents), and the
/// reference the other kernels are tested against: same order, same
/// clamp, bit-identical labels.
fn sweep_range_scalar<R: Rows>(p: &SweepParams<'_>, rows: R, marked: &mut [u8]) {
    let k = p.k;
    rows.each(p, k, marked, |_, arcs, done, row, mark| {
        if *mark == 0 {
            row.fill(INF);
        }
        for a in arcs {
            let base = tail(done, a.tail as usize * k, k);
            for (x, &b) in row.iter_mut().zip(base) {
                *x = (*x).min(b + a.weight);
            }
        }
        row.iter_mut().for_each(|x| *x = (*x).min(INF));
        *mark = 0;
    });
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;

    /// One register width: a module `$name` of the five operations the
    /// kernel body needs on `$n`-lane registers of type `$t`, each compiled
    /// for `$feature` and so callable from a kernel compiled for it.
    macro_rules! lanes {
        ($name:ident: $t:ty, $n:literal, $feature:literal,
         $splat:ident, $load:ident, $store:ident, $add:ident, $min:ident) => {
            mod $name {
                use std::arch::x86_64::*;
                pub(super) use std::arch::x86_64::{$add as add, $min as min, $splat as splat};

                /// Lanes per register.
                pub(super) const N: usize = $n;

                /// The first `N` labels of `src`.
                #[inline]
                #[target_feature(enable = $feature)]
                pub(super) fn load(src: &[u32]) -> $t {
                    let src = &src[..N];
                    // SAFETY: `src` is `N` readable labels; the intrinsic
                    // takes any alignment.
                    unsafe { $load(src.as_ptr().cast()) }
                }

                /// Stores `x` into the first `N` labels of `dst`.
                #[inline]
                #[target_feature(enable = $feature)]
                pub(super) fn store(x: $t, dst: &mut [u32]) {
                    let dst = &mut dst[..N];
                    // SAFETY: `dst` is `N` writable labels; the intrinsic
                    // takes any alignment.
                    unsafe { $store(dst.as_mut_ptr().cast(), x) }
                }
            }
        };
    }
    lanes!(m128: __m128i, 4, "sse4.1",
        _mm_set1_epi32, _mm_loadu_si128, _mm_storeu_si128, _mm_add_epi32, _mm_min_epu32);
    lanes!(m256: __m256i, 8, "avx2",
        _mm256_set1_epi32, _mm256_loadu_si256, _mm256_storeu_si256, _mm256_add_epi32,
        _mm256_min_epu32);

    /// The packed kernel body: per row, one column block after the other
    /// (a second one runs over the arc slice while it is in L1), each of
    /// `$c` registers of module `$m`. Per block, `$c` is a compile-time
    /// constant, so its accumulators are `$c` registers for the whole arc
    /// loop and every `0..$c` loop is unrolled: per arc and chunk, one
    /// packed add (with the tail row as its memory operand) and one packed
    /// min. A macro, not a function, so that it is always inlined into the
    /// kernel, which a `#[target_feature]` function is not.
    macro_rules! sweep_rows {
        ($p:ident, $rows:ident, $marked:ident, $($m:ident::<$c:ident>)+) => {{
            let k = 0 $(+ $c * $m::N)+;
            assert_eq!($p.k, k, "the kernel instantiated for this width");
            $rows.each($p, k, $marked, |_, arcs, done, row, mark| {
                $(
                    let (cols, row) = row.split_at_mut($c * $m::N);
                    let col = k - cols.len() - row.len();
                    let inf = $m::splat(INF as i32);
                    let mut acc = [inf; $c];
                    if *mark != 0 {
                        for (c, a) in acc.iter_mut().enumerate() {
                            *a = $m::load(&cols[c * $m::N..]);
                        }
                    }
                    for arc in arcs {
                        let w = $m::splat(arc.weight as i32);
                        let from = tail(done, arc.tail as usize * k + col, $c * $m::N);
                        for (c, a) in acc.iter_mut().enumerate() {
                            *a = $m::min(*a, $m::add($m::load(&from[c * $m::N..]), w));
                        }
                    }
                    for (c, a) in acc.iter().enumerate() {
                        $m::store($m::min(*a, inf), &mut cols[c * $m::N..]);
                    }
                )+
                *mark = 0;
            });
        }};
    }

    /// The packed kernel on SSE4.1: `k = 4 * (A + B)`.
    #[target_feature(enable = "sse4.1")]
    fn sse41<R: Rows, const A: usize, const B: usize>(p: &SweepParams<'_>, rows: R, m: &mut [u8]) {
        sweep_rows!(p, rows, m, m128::<A> m128::<B>)
    }

    /// The packed kernel on AVX2: `k = 8 * A + 4 * B`, the odd half-chunk
    /// (`B = 1`) being one 4-lane column block.
    #[target_feature(enable = "avx2")]
    fn avx2<R: Rows, const A: usize, const B: usize>(p: &SweepParams<'_>, rows: R, m: &mut [u8]) {
        sweep_rows!(p, rows, m, m256::<A> m128::<B>)
    }

    /// A kernel instantiation: [`sweep_range`]'s contract at one fixed `k`,
    /// for a CPU with the instantiation's features.
    pub(super) type Kernel<R> = unsafe fn(&SweepParams<'_>, R, &mut [u8]);

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
    pub(super) fn kernel<R: Rows>(level: SimdLevel, k: usize) -> Option<Kernel<R>> {
        macro_rules! by_chunks {
            ($f:ident: $($chunks:literal => $a:literal + $b:literal,)*) => {
                match k / 4 {
                    $($chunks => Some($f::<R, $a, $b> as Kernel<R>),)*
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
                assert_eq!(
                    x86::kernel::<InOrder>(level, k).is_some(),
                    admitted,
                    "{level:?} k={k}"
                );
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
        /// [`sweep_range`] with parents (`k = 1`).
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

    /// One kernel call on copies of `dist` and `marked`, lent only the
    /// rows up to the end of `range`. With [`Kernel::Parents`] every
    /// vertex starts with a parent of its own (as if an upward search had
    /// set it), and the parents the sweep leaves are checked here: inside
    /// `range`, the tail of the first arc that reaches the final label,
    /// else what a marked vertex started with, and none at `INF`; outside
    /// it, untouched.
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
        // Every test graph has its tails below their heads.
        let p = SweepParams {
            first,
            arcs,
            levels: &[],
            k,
        };
        let rows = InOrder(&mut dist[..range.end * k], range.start);
        let marks = &mut marked[range.clone()];
        match kernel {
            Kernel::Reference => sweep_range_scalar(&p, rows, marks),
            Kernel::Level(level) => sweep_range(level, &p, rows, marks, &mut []),
            Kernel::Parents => {
                let parents = &mut parent[range.clone()];
                sweep_range(SimdLevel::Scalar, &p, rows, marks, parents)
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
    /// lane mixed with unmarked rows holding stale labels or garbage.
    /// Swept in pieces, as `run_par` does: the rows below a piece are
    /// final, and a piece must leave everything outside itself alone —
    /// the rows after it are not even lent to the kernel.
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
