//! Lane-vectorized compute kernels: the plain matmuls under the tape,
//! and the packed-weight, register-tiled, optionally row-parallel GEMM,
//! the fused attention and the fused row kernels under the serving
//! executor.
//!
//! # The bit-identity contract
//!
//! Every kernel in this module preserves one invariant: **each output
//! element accumulates its inner products with a single accumulator in
//! ascending-`k` order**. Vectorization happens only *across independent
//! output lanes* (8 output columns at a time, each with its own
//! accumulator), never across the reduction dimension — so no partial
//! sums are ever reassociated and the result is bit-identical to the
//! naive scalar loop, to the pre-existing k-blocked kernel, and to every
//! other variant here (packed or unpacked, fused or composed, 1 thread
//! or N). That is what lets training (tape) and serving (tape-free,
//! packed, multicore) share numerics exactly; the kernel-parity
//! proptests assert equality down to the byte.
//!
//! Row-parallel drivers split the output rows into contiguous per-thread
//! ranges on the persistent [`KernelPool`]; a row is always computed
//! entirely by one thread, so thread count cannot affect values.
//!
//! The one place a sum is *not* a single ascending chain is the softmax
//! denominator, whose 8-lane order is fixed by definition in
//! [`crate::elementary`] — the module that also defines the `exp` and
//! `tanh` under every activation, each with a scalar and an AVX2 body
//! that agree bit for bit. No kernel here calls libm.
//!
//! # The serving micro-kernel
//!
//! The packed linears and both attention products run through one
//! register-blocked driver ([`gemm`]): an `MR`-row × `NP`-panel tile
//! whose accumulators stay in registers across the whole `k` loop. The
//! tile has two bodies behind one run-time check ([`Isa::detect`]): an
//! explicit `std::arch` AVX2 body and the portable `[f32; 8]` lane body,
//! which is the fallback on every other target and the oracle the AVX2
//! body is tested against. The AVX2 body multiplies, then adds
//! (`_mm256_mul_ps`, `_mm256_add_ps`) and **never fuses**: an FMA rounds
//! once where `acc += a * b` rounds twice, so it would change bytes.
//!
//! # The plain lane kernels
//!
//! [`matmul_into`] / [`matmul_bt_into`] / [`matmul_at_into`] are what
//! `Matrix::matmul{,_bt,_at}{,_into}` call: the tape's forward and
//! backward products, single-threaded. They are branch-free loops over
//! fixed-width `[f32; 8]` accumulators that lower to SIMD adds/multiplies
//! on any x86-64 / aarch64 baseline; the transpose-free
//! [`matmul_bt_into`] runs 8 independent dot-product chains per output
//! row.

use crate::elementary::{self, gelu_f, relu_f, sigmoid_f, tanh_f};
use crate::matrix::Matrix;
use crate::pool::KernelPool;
use std::cell::RefCell;

/// Output-lane width of the vectorized kernels. Accumulators are
/// `[f32; LANES]` blocks that LLVM keeps in vector registers.
pub const LANES: usize = 8;

/// Below this many multiply-adds (`2·m·k·n`), a matmul is dispatched
/// single-threaded regardless of the configured thread count — the
/// dispatch latency would exceed the kernel time.
pub const PAR_MIN_FLOPS: usize = 1 << 16;

/// Elementwise activation applied by the fused linear kernels. The
/// functions are the exact ones the composed ops use, so fusing changes
/// no values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Act {
    /// No activation.
    #[default]
    Ident,
    /// Rectified linear unit.
    Relu,
    /// GELU (tanh approximation, as BERT uses).
    Gelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Act {
    /// Applies the activation to one value — the scalar definition
    /// [`Act::apply_slice`] is tested against.
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Act::Ident => v,
            Act::Relu => relu_f(v),
            Act::Gelu => gelu_f(v),
            Act::Sigmoid => sigmoid_f(v),
            Act::Tanh => tanh_f(v),
        }
    }

    /// Applies the activation to every element of `xs` in place, 8 lanes
    /// at a time where the CPU allows; bit-identical to [`Act::apply`]
    /// per element.
    pub fn apply_slice(self, xs: &mut [f32]) {
        self.apply_slice_with(Isa::detect(), xs)
    }

    fn apply_slice_with(self, isa: Isa, xs: &mut [f32]) {
        match self {
            Act::Ident => {}
            Act::Relu => xs.iter_mut().for_each(|v| *v = relu_f(*v)),
            Act::Gelu => elementary::gelu_slice(isa, xs),
            Act::Sigmoid => elementary::sigmoid_slice(isa, xs),
            Act::Tanh => elementary::tanh_slice(isa, xs),
        }
    }
}

/// A raw pointer to an output matrix that worker threads write disjoint
/// rows of. Safe to share because every parallel driver hands each
/// thread a disjoint row range and waits for all threads before the
/// borrow ends.
#[derive(Clone, Copy)]
struct RowsOut {
    ptr: *mut f32,
    cols: usize,
}

unsafe impl Send for RowsOut {}
unsafe impl Sync for RowsOut {}

impl RowsOut {
    fn new(m: &mut Matrix) -> RowsOut {
        RowsOut { ptr: m.as_mut_slice().as_mut_ptr(), cols: m.cols() }
    }

    /// Rows `[r0, r1)` as one contiguous slice.
    ///
    /// # Safety
    /// The range must be in bounds and no other thread may hold its rows.
    #[allow(clippy::mut_from_ref)]
    unsafe fn rows(&self, r0: usize, r1: usize) -> &mut [f32] {
        std::slice::from_raw_parts_mut(self.ptr.add(r0 * self.cols), (r1 - r0) * self.cols)
    }

    /// Pointer to element `(r, c)`, for a writer that owns a column
    /// segment of some rows rather than whole rows.
    ///
    /// # Safety
    /// `(r, c)` must be in range.
    unsafe fn at(&self, r: usize, c: usize) -> *mut f32 {
        self.ptr.add(r * self.cols + c)
    }
}

fn effective_threads(threads: usize, rows: usize, flops: usize) -> usize {
    if threads <= 1 || rows < 2 || flops < PAR_MIN_FLOPS {
        1
    } else {
        threads.min(rows)
    }
}

fn run_row_ranges(threads: usize, rows: usize, flops: usize, f: &(dyn Fn(usize, usize) + Sync)) {
    let t = effective_threads(threads, rows, flops);
    if t <= 1 {
        f(0, rows);
    } else {
        KernelPool::global().run_rows(t, rows, f);
    }
}

// ---- plain matmul (out = A @ B) --------------------------------------------

/// `out = a @ b`, fully overwriting `out`. Panel-outer, row-inner: the
/// `[k, 8]` column panel of `b` stays hot in cache across all rows.
///
/// # Panics
/// Panics on inner-dimension mismatch or when `out` is not
/// `[a.rows, b.cols]`.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul {}x{} @ {}x{}", a.rows(), a.cols(), b.rows(), b.cols());
    assert_eq!(out.shape(), (a.rows(), b.cols()), "matmul_into output shape");
    let n = b.cols();
    let m = a.rows();
    if n == 0 {
        return;
    }
    let bd = b.as_slice();
    let mut j0 = 0;
    // Lane pairs first: 16 output columns per pass with two independent
    // accumulator arrays, doubling instruction-level parallelism over a
    // single 8-wide chain. Each column still owns one accumulator
    // summing in ascending-`k` order, so pairing changes nothing
    // bitwise.
    while j0 + 2 * LANES <= n {
        for i in 0..m {
            let a_row = a.row_slice(i);
            let mut acc0 = [0.0f32; LANES];
            let mut acc1 = [0.0f32; LANES];
            for (&av, brow) in a_row.iter().zip(bd.chunks_exact(n)) {
                let b0: &[f32; LANES] = brow[j0..j0 + LANES].try_into().expect("lane width");
                let b1: &[f32; LANES] = brow[j0 + LANES..j0 + 2 * LANES].try_into().expect("lane width");
                for (o, &bv) in acc0.iter_mut().zip(b0) {
                    *o += av * bv;
                }
                for (o, &bv) in acc1.iter_mut().zip(b1) {
                    *o += av * bv;
                }
            }
            let dst = out.row_slice_mut(i);
            dst[j0..j0 + LANES].copy_from_slice(&acc0);
            dst[j0 + LANES..j0 + 2 * LANES].copy_from_slice(&acc1);
        }
        j0 += 2 * LANES;
    }
    while j0 < n {
        let w = LANES.min(n - j0);
        if w == LANES {
            for i in 0..m {
                let a_row = a.row_slice(i);
                let mut acc = [0.0f32; LANES];
                for (&av, brow) in a_row.iter().zip(bd.chunks_exact(n)) {
                    let b8: &[f32; LANES] = brow[j0..j0 + LANES].try_into().expect("lane width");
                    for (o, &bv) in acc.iter_mut().zip(b8) {
                        *o += av * bv;
                    }
                }
                out.row_slice_mut(i)[j0..j0 + LANES].copy_from_slice(&acc);
            }
        } else {
            for i in 0..m {
                let a_row = a.row_slice(i);
                let mut acc = [0.0f32; LANES];
                for (&av, brow) in a_row.iter().zip(bd.chunks_exact(n)) {
                    for (o, &bv) in acc.iter_mut().zip(&brow[j0..j0 + w]) {
                        *o += av * bv;
                    }
                }
                out.row_slice_mut(i)[j0..j0 + w].copy_from_slice(&acc[..w]);
            }
        }
        j0 += w;
    }
}

// ---- transpose-free matmuls ------------------------------------------------

/// `out = a @ b^T`, fully overwriting `out`, without materializing the
/// transpose. Eight independent dot-product chains run per output row
/// (one accumulator per `b` row), each still summing in ascending-`k`
/// order.
///
/// # Panics
/// Panics when the shared dimensions mismatch or `out` is not
/// `[a.rows, b.rows]`.
pub fn matmul_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_bt {}x{} @ ({}x{})^T",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(out.shape(), (a.rows(), b.rows()), "matmul_bt_into output shape");
    let nout = b.rows();
    for i in 0..a.rows() {
        let a_row = a.row_slice(i);
        let dst = out.row_slice_mut(i);
        let mut j = 0;
        while j < nout {
            let w = LANES.min(nout - j);
            let mut acc = [0.0f32; LANES];
            if w == LANES {
                let br: [&[f32]; LANES] = std::array::from_fn(|l| b.row_slice(j + l));
                for (kk, &av) in a_row.iter().enumerate() {
                    for (o, brow) in acc.iter_mut().zip(&br) {
                        // SAFETY: kk < a.cols() == b.cols() == brow.len().
                        *o += av * unsafe { *brow.get_unchecked(kk) };
                    }
                }
            } else {
                for (l, o) in acc.iter_mut().enumerate().take(w) {
                    let mut s = 0.0f32;
                    for (&x, &y) in a_row.iter().zip(b.row_slice(j + l)) {
                        s += x * y;
                    }
                    *o = s;
                }
            }
            dst[j..j + w].copy_from_slice(&acc[..w]);
            j += w;
        }
    }
}

/// `out = a^T @ b`, fully overwriting `out`, without materializing the
/// transpose. Its hot caller is the tape's backward pass.
///
/// # Panics
/// Panics when the shared dimensions mismatch or `out` is not
/// `[a.cols, b.cols]`.
pub fn matmul_at_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at ({}x{})^T @ {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(out.shape(), (a.cols(), b.cols()), "matmul_at_into output shape");
    out.fill_zero();
    for kk in 0..a.rows() {
        let a_row = a.row_slice(kk);
        let b_row = b.row_slice(kk);
        for (i, &av) in a_row.iter().enumerate() {
            axpy_lanes(out.row_slice_mut(i), av, b_row);
        }
    }
}

/// `dst += a * src`, in 8-wide lanes (branch-free saxpy).
#[inline]
fn axpy_lanes(dst: &mut [f32], a: f32, src: &[f32]) {
    let mut dc = dst.chunks_exact_mut(LANES);
    let mut sc = src.chunks_exact(LANES);
    for (d8, s8) in (&mut dc).zip(&mut sc) {
        for (o, &sv) in d8.iter_mut().zip(s8) {
            *o += a * sv;
        }
    }
    for (o, &sv) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *o += a * sv;
    }
}

// ---- packed right-hand sides -----------------------------------------------

/// A right-hand-side matrix repacked into column panels of [`LANES`]
/// columns: panel `p` holds `k × LANES` values laid out so the inner
/// matmul loop reads one contiguous 8-float block per `k` step instead of
/// striding across the row-major matrix. The last panel is zero-padded;
/// padded lanes accumulate garbage-free zeros that are never stored.
///
/// Serving weights are static, so the executor packs each weight matrix
/// once per worker and reuses the panels for every table (see the packed
/// cache on `InferExec`).
#[derive(Debug, Clone)]
pub struct PackedB {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// Packs `b` into column panels.
    pub fn pack(b: &Matrix) -> PackedB {
        let (k, n) = b.shape();
        let mut data = vec![0.0f32; n.div_ceil(LANES) * k * LANES];
        pack_panels(b.as_slice(), n, k, n, &mut data);
        PackedB { k, n, data }
    }

    /// Logical `(rows, cols)` of the packed matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }
}

/// Packs a `k × n` block (row stride `ld`) into [`LANES`]-column panels:
/// `dst[p][kk·LANES + l] = src[kk][p·LANES + l]`. `dst` must be zeroed
/// and hold `n.div_ceil(LANES) · k · LANES` elements.
fn pack_panels(src: &[f32], ld: usize, k: usize, n: usize, dst: &mut [f32]) {
    for p in 0..n.div_ceil(LANES) {
        let j0 = p * LANES;
        let w = LANES.min(n - j0);
        let panel = &mut dst[p * k * LANES..(p + 1) * k * LANES];
        let rows = panel.chunks_exact_mut(LANES).zip(src.chunks(ld.max(1)));
        if w == LANES {
            // Fixed width: the copy inlines instead of calling `memcpy`.
            rows.for_each(|(dst8, row)| dst8.copy_from_slice(&row[j0..j0 + LANES]));
        } else {
            rows.for_each(|(dst8, row)| dst8[..w].copy_from_slice(&row[j0..j0 + w]));
        }
    }
}

// ---- the register-blocked GEMM driver --------------------------------------

/// Output rows per register tile.
const MR: usize = 4;
/// Packed panels ([`LANES`] columns each) per register tile.
const NP: usize = 2;

/// Which body a kernel runs — the GEMM tile here, the elementary
/// functions in [`crate::elementary`]. Only tests name a variant; every
/// serving call takes [`Isa::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// `[f32; 8]` lane loops — every target, and the test oracle.
    Portable,
    /// Explicit 256-bit intrinsics, multiply then add.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The fastest body this CPU runs. `std` caches the CPUID answer, so
    /// asking per kernel call is one atomic load.
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Portable
    }

    /// Every body this host can run: the portable one always, the AVX2
    /// one where the CPU has it. Says so when it does not, so a test run
    /// that compared nothing against the intrinsics is visible.
    #[cfg(test)]
    pub(crate) fn bodies() -> Vec<Isa> {
        let mut bodies = vec![Isa::Portable];
        if Isa::detect() == Isa::Portable {
            eprintln!("no AVX2 on this host: the AVX2 bodies were compared against nothing");
        } else {
            bodies.push(Isa::detect());
        }
        bodies
    }
}

/// The arithmetic of one register tile. Both bodies perform, per output
/// element, the exact sequence `acc = acc + a * b` over ascending `k`
/// starting from `+0.0`, then one `+ bias` — so they agree with each
/// other and with the scalar reference byte for byte.
trait Tile {
    /// One accumulator of [`LANES`] output columns.
    type Acc: Copy;

    /// `acc[r][p][l] = Σ_kk a[r·lda + kk] · b[p·pstride + kk·LANES + l]`.
    ///
    /// # Safety
    /// `a` must be readable for `(R-1)·lda + k` elements and `b` for
    /// `(P-1)·pstride + k·LANES`; the CPU must support the body's ISA.
    unsafe fn mac<const R: usize, const P: usize>(
        a: *const f32,
        lda: usize,
        k: usize,
        b: *const f32,
        pstride: usize,
    ) -> [[Self::Acc; P]; R];

    /// `dst[..LANES] = acc + bias[..LANES]`, or `acc` when `bias` is null.
    ///
    /// # Safety
    /// `dst` must be writable, and a non-null `bias` readable, for
    /// [`LANES`] elements.
    unsafe fn store(acc: Self::Acc, bias: *const f32, dst: *mut f32);
}

/// The portable tile body: the lane loops of [`matmul_into`].
struct Lanes;

impl Tile for Lanes {
    type Acc = [f32; LANES];

    #[inline(always)]
    unsafe fn mac<const R: usize, const P: usize>(
        a: *const f32,
        lda: usize,
        k: usize,
        b: *const f32,
        pstride: usize,
    ) -> [[Self::Acc; P]; R] {
        let mut acc = [[[0.0f32; LANES]; P]; R];
        for kk in 0..k {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = *a.add(r * lda + kk);
                for (p, acc_rp) in acc_r.iter_mut().enumerate() {
                    let b8 = &*b.add(p * pstride + kk * LANES).cast::<[f32; LANES]>();
                    for (o, &bv) in acc_rp.iter_mut().zip(b8) {
                        *o += av * bv;
                    }
                }
            }
        }
        acc
    }

    #[inline(always)]
    unsafe fn store(acc: Self::Acc, bias: *const f32, dst: *mut f32) {
        let dst = &mut *dst.cast::<[f32; LANES]>();
        if bias.is_null() {
            *dst = acc;
        } else {
            let bias = &*bias.cast::<[f32; LANES]>();
            for ((o, &a), &bv) in dst.iter_mut().zip(&acc).zip(bias) {
                *o = a + bv;
            }
        }
    }
}

/// The AVX2 tile body. Written with intrinsics because the lane loops
/// compiled under `target_feature(enable = "avx2")` get *slower* (the
/// SLP vectorizer splits each 8-lane accumulator; DESIGN §8). Nothing
/// here carries a `target_feature` attribute itself: the bodies are
/// `inline(always)` into [`gemm_rows_avx2`], which does.
#[cfg(target_arch = "x86_64")]
struct Avx2;

#[cfg(target_arch = "x86_64")]
impl Tile for Avx2 {
    type Acc = std::arch::x86_64::__m256;

    #[inline(always)]
    unsafe fn mac<const R: usize, const P: usize>(
        a: *const f32,
        lda: usize,
        k: usize,
        b: *const f32,
        pstride: usize,
    ) -> [[Self::Acc; P]; R] {
        use std::arch::x86_64::*;
        let mut acc = [[_mm256_setzero_ps(); P]; R];
        for kk in 0..k {
            let mut bv = [_mm256_setzero_ps(); P];
            for (p, bv_p) in bv.iter_mut().enumerate() {
                *bv_p = _mm256_loadu_ps(b.add(p * pstride + kk * LANES));
            }
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*a.add(r * lda + kk));
                for (acc_rp, &bv_p) in acc_r.iter_mut().zip(&bv) {
                    // Two roundings, as `acc += a * b` has. Never FMA.
                    *acc_rp = _mm256_add_ps(*acc_rp, _mm256_mul_ps(av, bv_p));
                }
            }
        }
        acc
    }

    #[inline(always)]
    unsafe fn store(acc: Self::Acc, bias: *const f32, dst: *mut f32) {
        use std::arch::x86_64::*;
        let v = if bias.is_null() { acc } else { _mm256_add_ps(acc, _mm256_loadu_ps(bias)) };
        _mm256_storeu_ps(dst, v);
    }
}

/// One GEMM problem over row-major operands with explicit row strides:
/// `C[i, ..n] = A[i, ..k] · B (+ bias)`, `B` in packed [`LANES`]-column
/// panels (the [`PackedB`] layout).
struct Gemm<'a> {
    a: &'a [f32],
    lda: usize,
    k: usize,
    b: &'a [f32],
    n: usize,
    bias: Option<&'a [f32]>,
    c: *mut f32,
    ldc: usize,
}

/// Runs rows `[r0, r1)` of `g` with the chosen tile body.
///
/// # Safety
/// `g.c` must be writable at `i·ldc + j` for every `i` in `[r0, r1)` and
/// `j < n`, and no other thread may touch those elements meanwhile.
unsafe fn gemm(isa: Isa, g: &Gemm, r0: usize, r1: usize) {
    if r0 >= r1 {
        return;
    }
    // The tile bodies read through raw pointers; these two checks are
    // what bounds every such read.
    assert!((r1 - 1) * g.lda + g.k <= g.a.len(), "gemm: A out of bounds");
    assert!(g.n.div_ceil(LANES) * g.k * LANES <= g.b.len(), "gemm: packed B out of bounds");
    assert!(g.bias.is_none_or(|b| b.len() >= g.n), "gemm: bias out of bounds");
    match isa {
        Isa::Portable => gemm_rows::<Lanes>(g, r0, r1),
        // SAFETY: `Isa::Avx2` is only produced after the CPU check.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => gemm_rows_avx2(g, r0, r1),
    }
}

/// Where AVX2 code generation is switched on for the tile — `avx2`
/// alone, so no FMA instruction can be selected.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_rows_avx2(g: &Gemm, r0: usize, r1: usize) {
    gemm_rows::<Avx2>(g, r0, r1)
}

/// Panel-outer, row-inner: one `NP`-panel strip of `B` (`k × 16` floats)
/// stays in L1 while every `MR`-row block of the range passes over it.
///
/// # Safety
/// As [`gemm`], whose bounds checks have passed.
#[inline(always)]
unsafe fn gemm_rows<T: Tile>(g: &Gemm, r0: usize, r1: usize) {
    let panels = g.n.div_ceil(LANES);
    let mut p = 0;
    while p < panels {
        let np = NP.min(panels - p);
        let mut i = r0;
        while i < r1 {
            let mr = MR.min(r1 - i);
            match (mr, np) {
                (4, 2) => tile::<T, 4, 2>(g, i, p),
                (3, 2) => tile::<T, 3, 2>(g, i, p),
                (2, 2) => tile::<T, 2, 2>(g, i, p),
                (1, 2) => tile::<T, 1, 2>(g, i, p),
                (4, 1) => tile::<T, 4, 1>(g, i, p),
                (3, 1) => tile::<T, 3, 1>(g, i, p),
                (2, 1) => tile::<T, 2, 1>(g, i, p),
                (1, 1) => tile::<T, 1, 1>(g, i, p),
                _ => unreachable!("tile {mr}x{np} outside {MR}x{NP}"),
            }
            i += mr;
        }
        p += np;
    }
}

/// Rows `[i, i+R)` × panels `[p, p+P)`: accumulate, add the bias, store.
/// A panel narrower than [`LANES`] (the last one) goes through padded
/// temporaries so neither the bias read nor the store leaves the row.
///
/// # Safety
/// As [`gemm_rows`], with the tile inside the problem.
#[inline(always)]
unsafe fn tile<T: Tile, const R: usize, const P: usize>(g: &Gemm, i: usize, p: usize) {
    let pstride = g.k * LANES;
    let acc = T::mac::<R, P>(g.a.as_ptr().add(i * g.lda), g.lda, g.k, g.b.as_ptr().add(p * pstride), pstride);
    for (r, acc_r) in acc.iter().enumerate() {
        for (q, &acc_rq) in acc_r.iter().enumerate() {
            let j0 = (p + q) * LANES;
            let w = LANES.min(g.n - j0);
            let dst = g.c.add((i + r) * g.ldc + j0);
            if w == LANES {
                let bias = g.bias.map_or(std::ptr::null(), |b| b.as_ptr().add(j0));
                T::store(acc_rq, bias, dst);
            } else {
                let mut bias8 = [0.0f32; LANES];
                let mut out8 = [0.0f32; LANES];
                let bias = g.bias.map_or(std::ptr::null(), |b| {
                    bias8[..w].copy_from_slice(&b[j0..j0 + w]);
                    bias8.as_ptr()
                });
                T::store(acc_rq, bias, out8.as_mut_ptr());
                std::ptr::copy_nonoverlapping(out8.as_ptr(), dst, w);
            }
        }
    }
}

/// `out = act(a @ packed + bias)`, fully overwriting `out`, optionally
/// row-parallel. `bias` must be a `[1, n]` row when present.
///
/// # Panics
/// Panics on shape mismatches.
pub fn matmul_packed_into(
    a: &Matrix,
    pb: &PackedB,
    bias: Option<&Matrix>,
    act: Act,
    threads: usize,
    out: &mut Matrix,
) {
    matmul_packed_with(Isa::detect(), a, pb, bias, act, threads, out)
}

fn matmul_packed_with(
    isa: Isa,
    a: &Matrix,
    pb: &PackedB,
    bias: Option<&Matrix>,
    act: Act,
    threads: usize,
    out: &mut Matrix,
) {
    let (k, n) = pb.shape();
    assert_eq!(a.cols(), k, "packed matmul {}x{} @ {}x{}", a.rows(), a.cols(), k, n);
    assert_eq!(out.shape(), (a.rows(), n), "packed matmul output shape");
    let bias = bias.map(|b| {
        assert_eq!(b.shape(), (1, n), "fused bias must be [1, {n}]");
        b.as_slice()
    });
    let flops = 2 * a.rows() * k * n;
    let mo = RowsOut::new(out);
    run_row_ranges(threads, a.rows(), flops, &|r0, r1| {
        let g = Gemm { a: a.as_slice(), lda: k, k, b: &pb.data, n, bias, c: mo.ptr, ldc: n };
        // SAFETY: `out` is `[a.rows, n]` and rows in [r0, r1) belong
        // exclusively to this range.
        unsafe { gemm(isa, &g, r0, r1) };
        // The activation is a second pass, one slice-kernel call over the
        // finished (contiguous) rows. Same value sequence as the composed
        // ops: `act(acc + bias)`.
        // SAFETY: as above.
        act.apply_slice_with(isa, unsafe { mo.rows(r0, r1) });
    });
}

// ---- fused block-diagonal attention ----------------------------------------

/// Per-thread buffers of [`attn_blocks_into`]: one (sequence, head)'s
/// packed `Kᵀ`, packed `V` and score matrix. Thread-local so a warmed
/// worker allocates nothing per call.
struct AttnScratch {
    kt: Vec<f32>,
    vp: Vec<f32>,
    scores: Vec<f32>,
}

thread_local! {
    static ATTN_SCRATCH: RefCell<AttnScratch> =
        const { RefCell::new(AttnScratch { kt: Vec::new(), vp: Vec::new(), scores: Vec::new() }) };
}

/// `buf[..len]`, growing the allocation when it is short. Contents are
/// whatever an earlier call left.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Packs the *transpose* of a `rows × k` block (row stride `ld`) into
/// panels of [`LANES`] block rows: `dst[p][c·LANES + l] = src[p·LANES + l][c]`
/// — the `B = Kᵀ` operand of the attention-score product. `dst` must be
/// zeroed and hold `rows.div_ceil(LANES) · k · LANES` elements.
fn pack_panels_transposed(src: &[f32], ld: usize, rows: usize, k: usize, dst: &mut [f32]) {
    for j in 0..rows {
        let panel = &mut dst[(j / LANES) * k * LANES..][..k * LANES];
        for (c, &x) in src[j * ld..j * ld + k].iter().enumerate() {
            panel[c * LANES + j % LANES] = x;
        }
    }
}

/// Block-diagonal multi-head attention over row-stacked sequences, in one
/// pass: for every sequence `b` and head `h`,
///
/// ```text
/// out[qb, h·dh..(h+1)·dh] = softmax(scale · Q[qb,h] @ K[kb,h]^T) @ V[kb,h]
/// ```
///
/// where `qb` / `kb` are sequence `b`'s row ranges of the projected
/// stacks. Per (sequence, head) the kernel packs `K[kb,h]ᵀ` and `V[kb,h]`
/// into panels in a per-thread scratch and runs both products through
/// the register-blocked driver the packed linears use: `Q` is read in
/// place (row stride `dim`), the scores land in the scratch, and the
/// context rows are written straight into the head-merged output.
///
/// Bit-identity: every score is one ascending-`c` accumulator chain
/// (exactly [`matmul_bt_into`] on the sliced block), each score row
/// goes through [`elementary::softmax_row`] with `scale` (exactly
/// [`softmax_rows_scaled_into`]), and every
/// output element accumulates `attn[i,j] · v[j,c]` in ascending-`j`
/// order (exactly [`matmul_into`] on the sliced block) — so the
/// result matches the composed ops byte for byte.
///
/// Parallelism is per (sequence, head), so a one-sequence call still
/// spreads over `threads`; an output element is written by exactly one
/// thread, so thread count cannot affect values.
///
/// # Panics
/// Panics when shapes, lengths, or `heads` disagree.
#[allow(clippy::too_many_arguments)]
pub fn attn_blocks_into(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    q_lens: &[usize],
    kv_lens: &[usize],
    heads: usize,
    scale: f32,
    threads: usize,
    out: &mut Matrix,
) {
    attn_blocks_with(Isa::detect(), q, k, v, q_lens, kv_lens, heads, scale, threads, out)
}

#[allow(clippy::too_many_arguments)]
fn attn_blocks_with(
    isa: Isa,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    q_lens: &[usize],
    kv_lens: &[usize],
    heads: usize,
    scale: f32,
    threads: usize,
    out: &mut Matrix,
) {
    let dim = q.cols();
    assert!(heads > 0 && dim.is_multiple_of(heads), "heads {heads} must divide dim {dim}");
    assert_eq!(k.cols(), dim, "key width mismatch");
    assert_eq!(v.cols(), dim, "value width mismatch");
    assert_eq!(q_lens.len(), kv_lens.len(), "per-sequence length mismatch");
    let total_q: usize = q_lens.iter().sum();
    let total_kv: usize = kv_lens.iter().sum();
    assert_eq!(q.rows(), total_q, "query stack height mismatch");
    assert_eq!(k.rows(), total_kv, "key stack height mismatch");
    assert_eq!(v.rows(), total_kv, "value stack height mismatch");
    assert_eq!(out.shape(), (total_q, dim), "attn_blocks output shape");

    let dh = dim / heads;
    let nb = q_lens.len();
    let mut q_offs = Vec::with_capacity(nb);
    let mut kv_offs = Vec::with_capacity(nb);
    let (mut qo, mut ko) = (0usize, 0usize);
    for (&ql, &kl) in q_lens.iter().zip(kv_lens) {
        q_offs.push(qo);
        kv_offs.push(ko);
        qo += ql;
        ko += kl;
    }
    let flops: usize = q_lens.iter().zip(kv_lens).map(|(&ql, &kl)| 4 * ql * kl * dim).sum();
    let mo = RowsOut::new(out);
    run_row_ranges(threads, nb * heads, flops, &|i0, i1| {
        ATTN_SCRATCH.with_borrow_mut(|s| {
            for item in i0..i1 {
                let (b, c0) = (item / heads, item % heads * dh);
                let (qoff, ql) = (q_offs[b], q_lens[b]);
                let (koff, kl) = (kv_offs[b], kv_lens[b]);
                if ql == 0 {
                    continue;
                }
                let kt = grown(&mut s.kt, kl.div_ceil(LANES) * dh * LANES);
                let vp = grown(&mut s.vp, dh.div_ceil(LANES) * kl * LANES);
                let scores = grown(&mut s.scores, ql * kl);
                if kl > 0 {
                    // The packs want zeroed padding lanes; `scores` is
                    // overwritten whole by the first product.
                    kt.fill(0.0);
                    vp.fill(0.0);
                    pack_panels_transposed(&k.as_slice()[koff * dim + c0..], dim, kl, dh, kt);
                    pack_panels(&v.as_slice()[koff * dim + c0..], dim, kl, dh, vp);
                    let qk = Gemm {
                        a: &q.as_slice()[qoff * dim + c0..],
                        lda: dim,
                        k: dh,
                        b: kt,
                        n: kl,
                        bias: None,
                        c: scores.as_mut_ptr(),
                        ldc: kl,
                    };
                    // SAFETY: `scores` is this thread's `[ql, kl]` buffer.
                    unsafe { gemm(isa, &qk, 0, ql) };
                    for row in scores.chunks_exact_mut(kl) {
                        elementary::softmax_row(isa, row, scale);
                    }
                }
                // SAFETY: (qoff, c0) is inside `out`; the `[ql, dh]`
                // segment below it belongs to this (sequence, head) alone.
                let pv =
                    Gemm { a: scores, lda: kl, k: kl, b: vp, n: dh, bias: None, c: unsafe { mo.at(qoff, c0) }, ldc: dim };
                // SAFETY: as above. With `kl == 0` this stores the zeros
                // an empty weighted sum is.
                unsafe { gemm(isa, &pv, 0, ql) };
            }
        })
    });
}

// ---- fused row kernels -----------------------------------------------------

/// Numerically-stabilized softmax of one row, in place:
/// [`elementary::softmax_row`] at scale 1, the kernel the fused scaled
/// variant and attention also run, so all softmax paths produce identical
/// values.
#[inline]
pub(crate) fn softmax_row(row: &mut [f32]) {
    elementary::softmax_row(Isa::detect(), row, 1.0)
}

/// Layer normalization of one row (no affine), in place. Shared by
/// [`Matrix::layer_norm_rows_inplace`] and the fused affine variant.
#[inline]
pub(crate) fn layer_norm_row(row: &mut [f32], eps: f32) {
    let n = row.len() as f32;
    let mean: f32 = row.iter().sum::<f32>() / n;
    let var: f32 = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    for val in row.iter_mut() {
        *val = (*val - mean) * inv;
    }
}

/// `out = softmax_rows(alpha * x)` in one pass — the attention-score
/// kernel (`scale` + `softmax_rows`) without the intermediate buffer.
/// The scaled values are materialized per element before the softmax,
/// exactly as the composed ops would.
///
/// # Panics
/// Panics when `out` is not shaped like `x`.
pub fn softmax_rows_scaled_into(x: &Matrix, alpha: f32, out: &mut Matrix) {
    assert_eq!(out.shape(), x.shape(), "softmax_rows_scaled output shape");
    let isa = Isa::detect();
    for r in 0..x.rows() {
        let dst = out.row_slice_mut(r);
        dst.copy_from_slice(x.row_slice(r));
        elementary::softmax_row(isa, dst, alpha);
    }
}

/// `out = layer_norm(x) * gain + bias` in one pass — the full LayerNorm
/// module (`layer_norm_rows` + `mul_row` + `add_row`) without two
/// intermediate buffers. `gain` and `bias` are `[1, n]` rows.
///
/// # Panics
/// Panics on shape mismatches.
pub fn layer_norm_affine_into(x: &Matrix, gain: &Matrix, bias: &Matrix, eps: f32, out: &mut Matrix) {
    assert_eq!(out.shape(), x.shape(), "layer_norm_affine output shape");
    assert_eq!(gain.shape(), (1, x.cols()), "layer_norm gain shape");
    assert_eq!(bias.shape(), (1, x.cols()), "layer_norm bias shape");
    let gs = gain.as_slice();
    let bs = bias.as_slice();
    for r in 0..x.rows() {
        let dst = out.row_slice_mut(r);
        dst.copy_from_slice(x.row_slice(r));
        layer_norm_row(dst, eps);
        for ((v, &g), &b) in dst.iter_mut().zip(gs).zip(bs) {
            let scaled = *v * g;
            *v = scaled + b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, f: impl Fn(usize) -> f32) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(f).collect())
    }

    fn wavy(rows: usize, cols: usize, phase: f32) -> Matrix {
        mat(rows, cols, |i| (i as f32 * 0.37 + phase).sin())
    }

    #[test]
    fn lane_matmul_matches_reference_on_awkward_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 16, 9), (13, 100, 21), (2, 64, 8)] {
            let a = wavy(m, k, 0.0);
            let b = wavy(k, n, 1.0);
            let mut out = Matrix::zeros(m, n);
            matmul_into(&a, &b, &mut out);
            // Reference: naive i-j-k with a single ascending-k accumulator.
            let mut reference = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0.0f32;
                    for kk in 0..k {
                        s += a.get(i, kk) * b.get(kk, j);
                    }
                    reference.set(i, j, s);
                }
            }
            assert_eq!(out.as_slice(), reference.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_matmul_matches_unpacked_bitwise() {
        for &(m, k, n) in &[(5, 12, 16), (7, 33, 19), (1, 8, 3), (16, 64, 64)] {
            let a = wavy(m, k, 0.1);
            let b = wavy(k, n, 0.9);
            let pb = PackedB::pack(&b);
            assert_eq!(pb.shape(), (k, n));
            let mut plain = Matrix::zeros(m, n);
            matmul_into(&a, &b, &mut plain);
            let mut packed = Matrix::zeros(m, n);
            matmul_packed_into(&a, &pb, None, Act::Ident, 1, &mut packed);
            assert_eq!(packed.as_slice(), plain.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn fused_bias_act_matches_composed_ops_bitwise() {
        let a = wavy(6, 20, 0.0);
        let b = wavy(20, 11, 2.0);
        let bias = wavy(1, 11, 3.0);
        let pb = PackedB::pack(&b);
        for act in [Act::Ident, Act::Relu, Act::Gelu, Act::Sigmoid, Act::Tanh] {
            let mut fused = Matrix::zeros(6, 11);
            matmul_packed_into(&a, &pb, Some(&bias), act, 1, &mut fused);
            // Composed: matmul, then add_row, then the activation map.
            let mut composed = a.matmul(&b);
            for r in 0..composed.rows() {
                for (o, &bv) in composed.row_slice_mut(r).iter_mut().zip(bias.as_slice()) {
                    *o += bv;
                }
            }
            let composed = composed.map(|v| act.apply(v));
            assert_eq!(fused.as_slice(), composed.as_slice(), "{act:?}");
        }
    }

    #[test]
    fn relu_keeps_nan_through_the_fused_linear() {
        // `f32::max(NaN, 0.0)` is 0.0: a NaN pre-activation used to leave
        // the layer as a zero and the non-finite sentinel never saw it.
        assert!(Act::Relu.apply(f32::NAN).is_nan());
        assert_eq!(Act::Relu.apply(-2.0), 0.0);
        assert_eq!(Act::Relu.apply(3.0), 3.0);
        let a = Matrix::from_vec(1, 2, vec![f32::NAN, 1.0]);
        let pb = PackedB::pack(&Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 1.0, -3.0]));
        for isa in Isa::bodies() {
            let mut out = Matrix::zeros(1, 3);
            matmul_packed_with(isa, &a, &pb, None, Act::Relu, 1, &mut out);
            assert!(out.as_slice().iter().all(|v| v.is_nan()), "{isa:?}: {:?}", out.as_slice());
        }
    }

    #[test]
    fn fused_row_kernels_match_composed_ops_bitwise() {
        let x = wavy(5, 13, 0.4);
        let alpha = 0.35f32;
        let mut fused = Matrix::zeros(5, 13);
        softmax_rows_scaled_into(&x, alpha, &mut fused);
        let mut composed = x.map(|v| v * alpha);
        composed.softmax_rows_inplace();
        assert_eq!(fused.as_slice(), composed.as_slice());

        let gain = wavy(1, 13, 1.1);
        let bias = wavy(1, 13, 2.2);
        let mut ln = Matrix::zeros(5, 13);
        layer_norm_affine_into(&x, &gain, &bias, 1e-5, &mut ln);
        let mut want = x.clone();
        want.layer_norm_rows_inplace(1e-5);
        for r in 0..want.rows() {
            for ((v, &g), &b) in want.row_slice_mut(r).iter_mut().zip(gain.as_slice()).zip(bias.as_slice()) {
                let scaled = *v * g;
                *v = scaled + b;
            }
        }
        assert_eq!(ln.as_slice(), want.as_slice());
    }


    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn packed_driver_matches_lane_matmul_bias_act_bytewise_on_every_tile_body() {
        // Row counts around MR, widths that end in a lone or a partial
        // panel, an empty reduction, and the serving shapes (feed-forward,
        // attention score and context products).
        let shapes = [
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 9),
            (13, 100, 21),
            (5, 0, 9),
            (9, 33, 17),
            (64, 312, 1200),
            (7, 312, 26),
            (230, 26, 320),
        ];
        for (m, k, n) in shapes {
            let a = wavy(m, k, 0.1);
            let b = wavy(k, n, 0.9);
            let bias = wavy(1, n, 2.9);
            let pb = PackedB::pack(&b);
            let mut plain = Matrix::zeros(m, n);
            matmul_into(&a, &b, &mut plain);
            for act in [Act::Ident, Act::Relu, Act::Gelu, Act::Sigmoid, Act::Tanh] {
                let mut want = plain.clone();
                for r in 0..m {
                    for (v, &bv) in want.row_slice_mut(r).iter_mut().zip(bias.as_slice()) {
                        *v = act.apply(*v + bv);
                    }
                }
                for isa in Isa::bodies() {
                    for threads in [1, 2, 3] {
                        let mut got = Matrix::zeros(m, n);
                        matmul_packed_with(isa, &a, &pb, Some(&bias), act, threads, &mut got);
                        assert_same_bits(&got, &want, &format!("{m}x{k}x{n} {act:?} {isa:?} threads={threads}"));
                    }
                }
            }
            for isa in Isa::bodies() {
                let mut got = Matrix::zeros(m, n);
                matmul_packed_with(isa, &a, &pb, None, Act::Ident, 1, &mut got);
                assert_same_bits(&got, &plain, &format!("{m}x{k}x{n} no bias {isa:?}"));
            }
        }
    }

    /// Composed reference for [`attn_blocks_into`]: per head, slice the
    /// blocks out, run the standalone kernels, and merge heads into the
    /// output layout.
    fn composed_attention(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        q_lens: &[usize],
        kv_lens: &[usize],
        heads: usize,
        scale: f32,
    ) -> Matrix {
        let dim = q.cols();
        let dh = dim / heads;
        let mut want = Matrix::zeros(q.rows(), dim);
        for h in 0..heads {
            let c0 = h * dh;
            let (mut qo, mut ko) = (0usize, 0usize);
            for (&ql, &kl) in q_lens.iter().zip(kv_lens) {
                let slice_block = |m: &Matrix, r0: usize, rows: usize| {
                    let mut s = Matrix::zeros(rows, dh);
                    for r in 0..rows {
                        s.row_slice_mut(r).copy_from_slice(&m.row_slice(r0 + r)[c0..c0 + dh]);
                    }
                    s
                };
                let qb = slice_block(q, qo, ql);
                let kb = slice_block(k, ko, kl);
                let vb = slice_block(v, ko, kl);
                let mut raw = Matrix::zeros(ql, kl);
                matmul_bt_into(&qb, &kb, &mut raw);
                let mut attn = Matrix::zeros(ql, kl);
                softmax_rows_scaled_into(&raw, scale, &mut attn);
                let mut ob = Matrix::zeros(ql, dh);
                matmul_into(&attn, &vb, &mut ob);
                for r in 0..ql {
                    want.row_slice_mut(qo + r)[c0..c0 + dh].copy_from_slice(ob.row_slice(r));
                }
                qo += ql;
                ko += kl;
            }
        }
        want
    }

    #[test]
    fn attn_blocks_matches_composed_ops_bitwise() {
        // The first case's third block alone clears PAR_MIN_FLOPS, so its
        // threaded runs genuinely exercise the pool path; the second is
        // the paper encoder's cross-attention; the last two carry a
        // sequence with no keys and one with no queries.
        let cases: [(usize, usize, &[usize], &[usize]); 6] = [
            (2, 16, &[3, 1, 40, 9], &[4, 7, 30, 9]),
            (12, 312, &[230], &[320]),
            (12, 312, &[5, 17, 1], &[9, 33, 8]),
            (4, 64, &[25, 7], &[25, 31]),
            (2, 16, &[3, 4, 2], &[5, 0, 6]),
            (2, 16, &[3, 0, 2], &[5, 4, 6]),
        ];
        for (heads, dim, q_lens, kv_lens) in cases {
            let scale = 1.0 / ((dim / heads) as f32).sqrt();
            let tq: usize = q_lens.iter().sum();
            let tk: usize = kv_lens.iter().sum();
            let q = wavy(tq, dim, 0.3);
            let k = wavy(tk, dim, 1.3);
            let v = wavy(tk, dim, 2.3);
            let want = composed_attention(&q, &k, &v, q_lens, kv_lens, heads, scale);
            for isa in Isa::bodies() {
                for threads in [1, 3] {
                    // Poisoned, so an element the kernel skips shows.
                    let mut got = Matrix::full(tq, dim, f32::NAN);
                    attn_blocks_with(isa, &q, &k, &v, q_lens, kv_lens, heads, scale, threads, &mut got);
                    assert_same_bits(&got, &want, &format!("{heads}h d{dim} q{q_lens:?} kv{kv_lens:?} {isa:?} threads={threads}"));
                }
            }
        }
    }

    #[test]
    fn effective_threads_gates_small_work() {
        assert_eq!(effective_threads(4, 1, usize::MAX), 1);
        assert_eq!(effective_threads(4, 100, 10), 1);
        assert_eq!(effective_threads(1, 100, usize::MAX), 1);
        assert_eq!(effective_threads(4, 100, PAR_MIN_FLOPS), 4);
        assert_eq!(effective_threads(8, 3, PAR_MIN_FLOPS), 3);
    }

    #[test]
    fn packing_zero_width_and_empty_edges() {
        let b = Matrix::zeros(0, 5);
        let pb = PackedB::pack(&b);
        assert_eq!(pb.shape(), (0, 5));
        let a = Matrix::zeros(2, 0);
        let mut out = Matrix::zeros(2, 5);
        matmul_packed_into(&a, &pb, None, Act::Ident, 1, &mut out);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }
}
