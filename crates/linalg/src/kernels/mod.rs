//! Packed, register-blocked dense multiplication kernels.
//!
//! Every dense product in the crate funnels through [`gemm`]: the right-hand
//! side is packed once into cache-friendly `NR`-wide column panels, then the
//! output is produced tile by tile with an `MR × NR` register-blocked
//! microkernel. The same driver serves four call shapes — plain `A·B`,
//! `A·Bᵀ` (the DeepONet combine step), and either of those with a fused
//! [`Epilogue`] (bias add, affine output transform, or bias + activation) —
//! so the fused paths never materialise an intermediate matrix.
//!
//! # Determinism contract
//!
//! The kernels uphold the crate-wide rule that results are bitwise
//! independent of thread count *and* of instruction set:
//!
//! * Each output element accumulates its `k` products in ascending-`k`
//!   order, exactly like a naive dot product. Vector lanes span output
//!   *columns*, never the reduction dimension, and no FMA contraction is
//!   used, so the AVX2 microkernel, the scalar microkernel and the naive
//!   reference produce identical bits for every element.
//! * When `k` exceeds one [`KC`] slab the microkernel reloads the partial
//!   sum from the output tile and continues accumulating in registers —
//!   a plain continuation of the same add sequence, not a second reduction
//!   tree (`c = acc` stores, never `c += acc`), so signed zeros and
//!   rounding match the single-pass order exactly.
//! * Blocking constants ([`MR`], [`NR`], [`KC`]) and the row-band split in
//!   [`dispatch_rows`] are derived from the problem shape only, never from
//!   the pool width.
//!
//! The one deliberate behaviour change versus the pre-blocking kernels is
//! the removal of the `if a == 0.0 { continue; }` skip: on finite inputs
//! the result is bit-identical (skipping `acc += 0.0 * b` never changes a
//! finite sum), but a `0.0 · ∞` or `0.0 · NaN` product now propagates NaN
//! as IEEE arithmetic specifies instead of being silently dropped.

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[allow(unsafe_code)]
mod simd;

use deepoheat_parallel as parallel;

/// Rows per register tile. Four accumulator rows of [`NR`] lanes fit in the
/// 16 ymm registers with room for the broadcast operand.
pub(crate) const MR: usize = 4;

/// Columns per register tile: two 4-wide f64 vectors (or one cache line).
pub(crate) const NR: usize = 8;

/// Reduction-dimension slab length, sized so one packed B strip
/// (`KC × NR × 8 B = 16 KiB`) stays resident in L1 across the row tiles
/// that consume it, and a full 512-wide slab (`KC × 512 × 8 B = 1 MiB`)
/// still fits L2. The hot shapes (trunk width ≤ 256, sensor count ≤ 441)
/// pack into a single slab.
pub(crate) const KC: usize = 256;

/// Output rows per cache chunk: the `MC × KC` block of A a chunk touches
/// (`128 KiB`) stays L2-resident while each B strip is re-read from L1 by
/// the `MC / MR` row tiles inside the chunk.
pub(crate) const MC: usize = 64;

/// Multiply-add count below which the naive loop runs directly with no
/// packing: biases, jets and 2–3-wide coordinate batches never pay the
/// `O(k·n)` pack cost. Both paths are bit-identical, so the cutover is a
/// pure heuristic and cannot affect results.
const TINY_GEMM_WORK: usize = 8 * 1024;

/// Multiply-add count below which [`gemm`] stays on the calling thread and
/// never touches the worker pool. Retuned for the blocked microkernel: the
/// packed kernel moves ~4× more multiply-adds per microsecond than the old
/// scalar loop did, so the work equivalent of the pool's few-microsecond
/// dispatch cost moves up accordingly (32k → 128k).
const PARALLEL_MATMUL_THRESHOLD: usize = 128 * 1024;

/// Target multiply-adds per pooled matmul job. Larger than the dispatch
/// threshold so each job amortises its queue round-trip; derived from the
/// problem shape only, never from the thread count.
const MATMUL_CHUNK_WORK: usize = 1024 * 1024;

/// Minimum rows per pooled band, and the band size is rounded up to a
/// multiple of [`MR`]: a band shorter than this would fragment the
/// register tiles (partial `mr` on every band) and re-stream the whole
/// packed B per handful of rows, turning the kernel memory-bound again.
const MIN_BAND_ROWS: usize = 32;

/// Scalar element the kernels are generic over (`f64`, and `f32` for the
/// opt-in inference path). The trait is `pub(crate)`: it exists so the f64
/// and f32 matrix types share one driver, not as a public extension point.
pub(crate) trait Element: Copy + Send + Sync {
    const ZERO: Self;
    fn mul(self, rhs: Self) -> Self;
    fn add(self, rhs: Self) -> Self;
    /// Runs one `mr × nr` output tile against a packed B strip, accumulating
    /// in ascending-`k` order. `first` selects zero-initialised accumulators
    /// (first slab) versus continuing from the partial sums already stored
    /// in `c`. Implementations may use SIMD only if the result stays
    /// bit-identical to [`scalar_tile`].
    #[allow(clippy::too_many_arguments)] // one GEMM operand descriptor per slot
    fn run_tile(
        a: &[Self],
        lda: usize,
        bstrip: &[Self],
        ks: usize,
        c: &mut [Self],
        ldc: usize,
        mr: usize,
        nr: usize,
        first: bool,
    );
}

impl Element for f64 {
    const ZERO: f64 = 0.0;
    #[inline(always)]
    fn mul(self, rhs: f64) -> f64 {
        self * rhs
    }
    #[inline(always)]
    fn add(self, rhs: f64) -> f64 {
        self + rhs
    }
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // one GEMM operand descriptor per slot
    fn run_tile(
        a: &[f64],
        lda: usize,
        bstrip: &[f64],
        ks: usize,
        c: &mut [f64],
        ldc: usize,
        mr: usize,
        nr: usize,
        first: bool,
    ) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if mr == MR && nr == NR && simd::tile_f64(a, lda, bstrip, ks, c, ldc, first) {
            return;
        }
        scalar_tile(a, lda, bstrip, ks, c, ldc, mr, nr, first);
    }
}

impl Element for f32 {
    const ZERO: f32 = 0.0;
    #[inline(always)]
    fn mul(self, rhs: f32) -> f32 {
        self * rhs
    }
    #[inline(always)]
    fn add(self, rhs: f32) -> f32 {
        self + rhs
    }
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // one GEMM operand descriptor per slot
    fn run_tile(
        a: &[f32],
        lda: usize,
        bstrip: &[f32],
        ks: usize,
        c: &mut [f32],
        ldc: usize,
        mr: usize,
        nr: usize,
        first: bool,
    ) {
        // The scalar tile over f32 autovectorizes to 8-lane mul/add on any
        // SSE2+ target; an intrinsics path buys nothing extra here.
        scalar_tile(a, lda, bstrip, ks, c, ldc, mr, nr, first);
    }
}

/// Per-element transform fused into the microkernel's final store, applied
/// while the output tile is still hot in L1. Replicates the rounding of the
/// separate passes it replaces exactly: the raw ascending-`k` sum is fully
/// formed first, then the epilogue expression is evaluated once on it.
pub(crate) enum Epilogue<'a, T> {
    /// Plain product: store the raw sum.
    None,
    /// `offset + scale * acc` — the trunk-combine output transform.
    Affine { offset: T, scale: T },
    /// `acc + bias[col]` — a fused dense-layer bias row broadcast.
    Bias(&'a [T]),
    /// `f(acc + bias[col])` — fused dense layer + activation.
    BiasMap { bias: &'a [T], f: &'a (dyn Fn(T) -> T + Sync) },
}

impl<T: Element> Epilogue<'_, T> {
    #[inline(always)]
    fn apply(&self, acc: T, col: usize) -> T {
        match self {
            Epilogue::None => acc,
            Epilogue::Affine { offset, scale } => offset.add(scale.mul(acc)),
            Epilogue::Bias(bias) => acc.add(bias[col]),
            Epilogue::BiasMap { bias, f } => f(acc.add(bias[col])),
        }
    }
}

/// B packed into `KC`-slab, `NR`-strip panels.
///
/// Layout: slabs (ascending `k` ranges) are concatenated; within a slab,
/// `NR`-wide column strips are concatenated; within a strip, the `NR`
/// values of one `k` row are contiguous (`strip[kk * NR + lane]`). The
/// tail strip is zero-padded to `NR` lanes — padded lanes accumulate
/// garbage that is never stored back.
pub(crate) struct PackedB<T> {
    buf: Vec<T>,
    k: usize,
    n: usize,
}

impl<T: Element> PackedB<T> {
    /// Offset of slab `s` (slabs before it hold `s * KC` k-rows each of
    /// `strips * NR` lanes).
    #[inline]
    fn slab(&self, s: usize) -> &[T] {
        let strips = self.n.div_ceil(NR);
        let start = s * KC * strips * NR;
        let ks = slab_len(self.k, s);
        &self.buf[start..start + ks * strips * NR]
    }
}

#[inline]
fn slab_len(k: usize, s: usize) -> usize {
    (k - s * KC).min(KC)
}

#[inline]
fn slab_count(k: usize) -> usize {
    // One (empty) slab even at k == 0 so the store + epilogue still run.
    k.div_ceil(KC).max(1)
}

/// Packs `src` into panel form. `src` is row-major `k × n` when
/// `transposed` is false, or row-major `n × k` (the un-transposed operand
/// of an `A·Bᵀ` product) when true — both land in the identical packed
/// layout, which is how the two public multiplication shapes share one
/// microkernel.
#[inline(always)]
pub(crate) fn pack_b<T: Element>(src: &[T], k: usize, n: usize, transposed: bool) -> PackedB<T> {
    let strips = n.div_ceil(NR);
    // Each of the k reduction rows is stored exactly once across the slabs.
    let mut buf = vec![T::ZERO; k * strips * NR];
    if k == 0 || n == 0 {
        return PackedB { buf, k, n };
    }
    let mut w = 0;
    for s in 0..slab_count(k) {
        let k0 = s * KC;
        let ks = slab_len(k, s);
        for strip in 0..strips {
            let j0 = strip * NR;
            let width = NR.min(n - j0);
            for kk in 0..ks {
                let ki = k0 + kk;
                for lane in 0..width {
                    buf[w + lane] = if transposed {
                        src[(j0 + lane) * k + ki]
                    } else {
                        src[ki * n + j0 + lane]
                    };
                }
                w += NR;
            }
        }
    }
    PackedB { buf, k, n }
}

/// Portable microkernel: an `mr × nr` tile accumulated over one packed
/// strip in ascending-`k` order. The accumulator array is sized `MR × NR`
/// with fixed bounds so LLVM unrolls and vectorizes the lane loop; partial
/// tiles simply compute (and discard) the padded lanes.
///
/// Always inlined, like [`pack_b`]: with a second caller ([`gemm_tn`])
/// LLVM otherwise outlines both, and a call per tile slowed single-row
/// products (the branch encode and the warm-basis combine) by about 6%.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // full GEMM problem descriptor
fn scalar_tile<T: Element>(
    a: &[T],
    lda: usize,
    bstrip: &[T],
    ks: usize,
    c: &mut [T],
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    let mut acc = [[T::ZERO; NR]; MR];
    if !first {
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            for (j, v) in row.iter_mut().enumerate().take(nr) {
                *v = c[r * ldc + j];
            }
        }
    }
    for kk in 0..ks {
        let brow = &bstrip[kk * NR..kk * NR + NR];
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            let av = a[r * lda + kk];
            for (v, &b) in row.iter_mut().zip(brow) {
                *v = v.add(av.mul(b));
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        for (j, &v) in row.iter().enumerate().take(nr) {
            c[r * ldc + j] = v;
        }
    }
}

/// Applies `epi` to an `mr × nr` output tile in place (last slab only).
#[inline]
fn epilogue_tile<T: Element>(
    c: &mut [T],
    ldc: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    epi: &Epilogue<'_, T>,
) {
    if matches!(epi, Epilogue::None) {
        return;
    }
    for r in 0..mr {
        for j in 0..nr {
            let v = c[r * ldc + j];
            c[r * ldc + j] = epi.apply(v, col0 + j);
        }
    }
}

/// Runs `nrows` output rows of `lhs · packed` into `out`, tile by tile.
/// `out` must be zeroed (`Matrix::zeros` storage); each element is written
/// by exactly one microkernel store per slab.
fn gemm_band<T: Element>(
    lhs: &[T],
    packed: &PackedB<T>,
    out: &mut [T],
    nrows: usize,
    epi: &Epilogue<'_, T>,
) {
    let (k, n) = (packed.k, packed.n);
    let strips = n.div_ceil(NR);
    let slabs = slab_count(k);
    for s in 0..slabs {
        let ks = slab_len(k, s);
        let slab = packed.slab(s);
        let last = s + 1 == slabs;
        let first = s == 0;
        // Cache loop order: the B strip (≤ 16 KiB) is the innermost reuse
        // unit — it stays in L1 while every row tile of the MC chunk runs
        // against it; the chunk's A rows stay in L2 across strips.
        let mut rc = 0;
        while rc < nrows {
            let mc = MC.min(nrows - rc);
            for strip in 0..strips {
                let j0 = strip * NR;
                let nr = NR.min(n - j0);
                let bstrip = &slab[strip * ks * NR..(strip + 1) * ks * NR];
                let mut r = rc;
                while r < rc + mc {
                    let mr = MR.min(rc + mc - r);
                    let a = &lhs[r * k + s * KC..];
                    let c = &mut out[r * n + j0..];
                    T::run_tile(a, k, bstrip, ks, c, n, mr, nr, first);
                    if last {
                        epilogue_tile(c, n, j0, mr, nr, epi);
                    }
                    r += mr;
                }
            }
            rc += mc;
        }
    }
}

/// Naive reference path for tiny products: plain ascending-`k` loops with
/// the epilogue applied after each row's sums are complete. Bit-identical
/// to the blocked path by the determinism contract above; also reused as
/// the property-test and benchmark reference via `Matrix::matmul_naive`.
#[allow(clippy::too_many_arguments)] // full GEMM problem descriptor
pub(crate) fn gemm_naive<T: Element>(
    lhs: &[T],
    rhs: &[T],
    out: &mut [T],
    m: usize,
    k: usize,
    n: usize,
    rhs_transposed: bool,
    epi: &Epilogue<'_, T>,
) {
    for r in 0..m {
        let a = &lhs[r * k..(r + 1) * k];
        let o = &mut out[r * n..(r + 1) * n];
        if rhs_transposed {
            for (c, v) in o.iter_mut().enumerate() {
                let b = &rhs[c * k..(c + 1) * k];
                let mut acc = T::ZERO;
                for i in 0..k {
                    acc = acc.add(a[i].mul(b[i]));
                }
                *v = acc;
            }
        } else {
            for (i, &av) in a.iter().enumerate() {
                let b = &rhs[i * n..(i + 1) * n];
                for (v, &bv) in o.iter_mut().zip(b) {
                    *v = v.add(av.mul(bv));
                }
            }
        }
        for (c, v) in o.iter_mut().enumerate() {
            *v = epi.apply(*v, c);
        }
    }
}

/// The single entry point for every dense product: `out = lhs · rhs`
/// (`m × k` times `k × n`, or times the transpose of a row-major `n × k`
/// `rhs` when `rhs_transposed`), with `epi` fused into the final store.
/// `out` must be the zeroed `m × n` destination.
///
/// Tiny products run the naive loop directly; everything else packs `rhs`
/// once and row-band-dispatches to the worker pool via [`dispatch_rows`].
#[allow(clippy::too_many_arguments)] // full GEMM problem descriptor
pub(crate) fn gemm<T: Element>(
    lhs: &[T],
    rhs: &[T],
    out: &mut [T],
    m: usize,
    k: usize,
    n: usize,
    rhs_transposed: bool,
    epi: &Epilogue<'_, T>,
) {
    if m * k * n <= TINY_GEMM_WORK {
        gemm_naive(lhs, rhs, out, m, k, n, rhs_transposed, epi);
        return;
    }
    let packed = pack_b(rhs, k, n, rhs_transposed);
    dispatch_rows(lhs, out, m, k, n, |lhs_rows, out_band, nrows| {
        gemm_band(lhs_rows, &packed, out_band, nrows, epi);
    });
}

/// `out = lhsᵀ · rhs` for a row-major `k × m` `lhs` and `k × n` `rhs`:
/// the weight-gradient shape `Xᵀ·dY`, without a transposed copy of `lhs`.
/// `out` must be the zeroed `m × n` destination.
///
/// Each element is the same ascending-`k` sum, started from zero, that
/// `lhs.transpose() · rhs` produces through [`gemm`], so the two agree
/// bit for bit. The blocked path packs `rhs` like any right-hand side and
/// gathers `lhs` one `MC × KC` block at a time into the microkernel's
/// row-major operand layout.
pub(crate) fn gemm_tn<T: Element>(
    lhs: &[T],
    rhs: &[T],
    out: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    if m * k * n <= TINY_GEMM_WORK {
        for kk in 0..k {
            let b = &rhs[kk * n..(kk + 1) * n];
            for (r, &av) in lhs[kk * m..(kk + 1) * m].iter().enumerate() {
                for (v, &bv) in out[r * n..(r + 1) * n].iter_mut().zip(b) {
                    *v = v.add(av.mul(bv));
                }
            }
        }
        return;
    }
    let packed = pack_b(rhs, k, n, false);
    dispatch_bands(out, m, k, n, |r0, out_band, nrows| {
        gemm_band_tn(lhs, m, r0, &packed, out_band, nrows);
    });
}

/// [`gemm_band`] for a transposed left operand: output rows
/// `r0..r0 + nrows` of `lhsᵀ · packed`, where `lhs` is row-major `k × m`.
/// Same slab, chunk, strip and tile order as [`gemm_band`]; each `MC`-row
/// chunk of one slab is gathered into `apack` before its tiles run.
fn gemm_band_tn<T: Element>(
    lhs: &[T],
    m: usize,
    r0: usize,
    packed: &PackedB<T>,
    out: &mut [T],
    nrows: usize,
) {
    let (k, n) = (packed.k, packed.n);
    let strips = n.div_ceil(NR);
    let slabs = slab_count(k);
    let mut apack = vec![T::ZERO; MC.min(nrows) * KC.min(k)];
    for s in 0..slabs {
        let ks = slab_len(k, s);
        let slab = packed.slab(s);
        let first = s == 0;
        let mut rc = 0;
        while rc < nrows {
            let mc = MC.min(nrows - rc);
            for kk in 0..ks {
                let src = &lhs[(s * KC + kk) * m + r0 + rc..][..mc];
                for (r, &v) in src.iter().enumerate() {
                    apack[r * ks + kk] = v;
                }
            }
            for strip in 0..strips {
                let j0 = strip * NR;
                let nr = NR.min(n - j0);
                let bstrip = &slab[strip * ks * NR..(strip + 1) * ks * NR];
                let mut r = rc;
                while r < rc + mc {
                    let mr = MR.min(rc + mc - r);
                    let c = &mut out[r * n + j0..];
                    T::run_tile(&apack[(r - rc) * ks..], ks, bstrip, ks, c, n, mr, nr, first);
                    r += mr;
                }
            }
            rc += mc;
        }
    }
}

/// The single pool-integration point for the multiplication kernels:
/// splits the `rows × n` output into fixed row bands of roughly
/// [`MATMUL_CHUNK_WORK`] multiply-adds each and runs
/// `kernel(lhs_rows, out_band, band_rows)` for every band on the current
/// pool. Products under [`PARALLEL_MATMUL_THRESHOLD`] multiply-adds run the
/// kernel directly on the calling thread — the small-matrix fast path.
///
/// Each output row is produced in full by exactly one kernel invocation,
/// so the result is bitwise independent of how bands map to threads; band
/// boundaries depend only on `(rows, k, n)`.
pub(crate) fn dispatch_rows<T, K>(
    lhs: &[T],
    out: &mut [T],
    rows: usize,
    k: usize,
    n: usize,
    kernel: K,
) where
    T: Element,
    K: Fn(&[T], &mut [T], usize) + Sync,
{
    let work_per_row = k * n;
    if rows * work_per_row < PARALLEL_MATMUL_THRESHOLD || rows < 2 {
        kernel(lhs, out, rows);
        return;
    }
    let band_rows =
        (MATMUL_CHUNK_WORK / work_per_row.max(1)).max(MIN_BAND_ROWS).next_multiple_of(MR).min(rows);
    parallel::par_chunks_mut(out, band_rows * n, |band, out_band| {
        let r0 = band * band_rows;
        let nrows = out_band.len() / n.max(1);
        kernel(&lhs[r0 * k..(r0 + nrows) * k], out_band, nrows);
    });
}

/// [`dispatch_rows`] for a kernel that indexes its left operand itself
/// (a transposed one has no contiguous row bands): the same bands, with
/// `kernel(first_row, out_band, band_rows)` per band.
fn dispatch_bands<T, K>(out: &mut [T], rows: usize, k: usize, n: usize, kernel: K)
where
    T: Element,
    K: Fn(usize, &mut [T], usize) + Sync,
{
    let work_per_row = k * n;
    if rows * work_per_row < PARALLEL_MATMUL_THRESHOLD || rows < 2 {
        kernel(0, out, rows);
        return;
    }
    let band_rows =
        (MATMUL_CHUNK_WORK / work_per_row.max(1)).max(MIN_BAND_ROWS).next_multiple_of(MR).min(rows);
    parallel::par_chunks_mut(out, band_rows * n, |band, out_band| {
        let nrows = out_band.len() / n.max(1);
        kernel(band * band_rows, out_band, nrows);
    });
}
