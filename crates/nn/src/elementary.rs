//! The elementary functions of the forward pass: one `exp`, one `tanh`,
//! and the GELU, sigmoid and softmax built on them.
//!
//! Each function is a fixed sequence of IEEE-754 single-precision
//! `mul` / `add` / `sub` / `div`, compare-selects, one float↔int
//! conversion pair and one integer shift — **no FMA, no libm, no table**.
//! The scalar functions here ([`exp_f`], [`tanh_f`], [`gelu_f`],
//! [`sigmoid_f`], [`relu_f`]) are the definition, the portable fallback
//! and the test oracle; the AVX2 bodies in [`avx2`] perform the same
//! operations lane-wise, so the two agree byte for byte, exactly as the
//! two GEMM tile bodies in [`crate::kernels`] do. Because every forward
//! path (tape, serving executor, fused epilogues) goes through these
//! functions, train/serve, thread-count, batched-vs-single and
//! fused-vs-composed parity stay exact.
//!
//! Two rules keep a numerically broken model visible to the rollout's
//! non-finite sentinel:
//!
//! * every clamp is written in the operand order that passes NaN through
//!   (`min(HI, x)`, never `min(x, HI)`: both the SSE/AVX `min`/`max`
//!   instructions and [`min_ps`] / [`max_ps`] return the *second* operand
//!   when either is NaN);
//! * [`relu_f`] is a compare-select, not `f32::max`, which would return
//!   the other operand for NaN.
//!
//! Accuracy against an `f64` reference is in DESIGN §8 and asserted by
//! this module's tests.

// Coefficients stay digit for digit as their sources print them.
#![allow(clippy::excessive_precision)]

use crate::kernels::Isa;
use std::f32::consts::LOG2_E;

// ---- the operations shared by both bodies ----------------------------------

/// `minps` semantics: `a` when `a < b`, else `b` — so `b` when either is
/// NaN.
#[inline(always)]
fn min_ps(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `maxps` semantics: `a` when `a > b`, else `b` — so `b` when either is
/// NaN.
#[inline(always)]
fn max_ps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// The defined reduction order of an 8-lane accumulator:
/// `((0∘4)∘(2∘6))∘((1∘5)∘(3∘7))` — what folding a 256-bit register onto
/// its low half, then its low quarter, then its low element computes.
#[inline(always)]
fn reduce8(l: [f32; 8], f: impl Fn(f32, f32) -> f32) -> f32 {
    f(f(f(l[0], l[4]), f(l[2], l[6])), f(f(l[1], l[5]), f(l[3], l[7])))
}

// ---- exp ---------------------------------------------------------------------

/// At and above `x·log2(e) + 0.5 = 128` (x ≈ 88.3763) the scale `2^n`
/// is `+∞`, and so is the result; the clamp only keeps `n` at 128.
const EXP_HI: f32 = 88.38;
/// Below this (just above `ln(f32::MIN_POSITIVE)` = −87.33654) the
/// result is `+0.0`, so no subnormal is ever produced; the clamp keeps
/// `n ≥ −126`.
const EXP_LO: f32 = -87.3365;
/// `ln 2` split so that `n · LN2_HI` is exact for every `|n| ≤ 128`.
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_40e-4;
/// Cephes `expf`: `e^r ≈ 1 + r + r²·P(r)` on `|r| ≤ ½ ln 2`, highest
/// degree first.
const EXP_P: [f32; 6] = [
    1.987_569_150_0e-4,
    1.398_199_950_7e-3,
    8.333_451_907_3e-3,
    4.166_579_589_4e-2,
    1.666_666_545_9e-1,
    5.000_000_120_1e-1,
];

/// `e^x`: `x = n·ln 2 + r`, a degree-5 Horner polynomial in `r`, times
/// `2^n` built in the exponent field. `+∞` from x ≈ 88.3763 up, `+0.0`
/// below −87.3365, NaN for NaN.
#[inline]
pub(crate) fn exp_f(x: f32) -> f32 {
    let xc = max_ps(EXP_LO, min_ps(EXP_HI, x));
    // n = floor(xc·log2(e) + ½), as truncate-then-correct: no `floorf`.
    let fx = xc * LOG2_E + 0.5;
    let t = (fx as i32) as f32;
    let n = if t > fx { t - 1.0 } else { t };
    let r = xc - n * LN2_HI;
    let r = r - n * LN2_LO;
    let mut p = EXP_P[0];
    for &c in &EXP_P[1..] {
        p = p * r + c;
    }
    let y = p * (r * r) + r + 1.0;
    let pow2 = f32::from_bits(((n as i32).wrapping_add(127) as u32) << 23);
    let y = y * pow2;
    if x < EXP_LO {
        0.0
    } else {
        y
    }
}

// ---- tanh --------------------------------------------------------------------

/// Beyond this the rational below would exceed 1 in `f32`; at it, the
/// result is exactly ±1.
const TANH_CLAMP: f32 = 7.905_311_107_635_498_05;
/// Numerator (odd powers 13 down to 1) and denominator (even powers 6
/// down to 0) of the 13/6 rational minimax `tanh` used by Eigen
/// (`generic_fast_tanh_float`), XNNPACK and ONNX Runtime.
const TANH_ALPHA: [f32; 7] = [
    -2.760_768_477_423_55e-16,
    2.000_187_904_824_77e-13,
    -8.604_671_522_137_35e-11,
    5.122_297_090_371_14e-08,
    1.485_722_357_179_79e-05,
    6.372_619_288_754_36e-04,
    4.893_524_558_917_86e-03,
];
const TANH_BETA: [f32; 4] = [
    1.198_258_394_667_02e-06,
    1.185_347_056_866_54e-04,
    2.268_434_632_439_00e-03,
    4.893_525_185_543_85e-03,
];

/// `tanh x` as `x·P(x²) / Q(x²)` on the clamped argument, both Horner.
/// Odd bit for bit, `|tanh_f| ≤ 1`, NaN for NaN.
#[inline]
pub(crate) fn tanh_f(x: f32) -> f32 {
    let x = max_ps(-TANH_CLAMP, min_ps(TANH_CLAMP, x));
    let x2 = x * x;
    let mut p = TANH_ALPHA[0];
    for &c in &TANH_ALPHA[1..] {
        p = p * x2 + c;
    }
    let mut q = TANH_BETA[0];
    for &c in &TANH_BETA[1..] {
        q = q * x2 + c;
    }
    (x * p) / q
}

// ---- the activations built on them -------------------------------------------

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044_715;

/// The argument of GELU's `tanh`.
#[inline(always)]
fn gelu_inner(x: f32) -> f32 {
    GELU_C * (x + GELU_A * x * x * x)
}

/// GELU, tanh approximation (as BERT uses).
#[inline]
pub(crate) fn gelu_f(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_f(gelu_inner(x)))
}

/// `d gelu_f / dx`, on the same [`tanh_f`].
#[inline]
pub(crate) fn gelu_grad_f(x: f32) -> f32 {
    let t = tanh_f(gelu_inner(x));
    let dinner = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

/// Logistic sigmoid in its overflow-free form: with `e = e^{-|z|}`,
/// `1 / (1 + e)` for `z ≥ 0` and `e / (1 + e)` otherwise.
#[inline]
pub(crate) fn sigmoid_f(z: f32) -> f32 {
    let e = exp_f(-z.abs());
    let num = if z >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

/// Rectified linear unit that keeps NaN: `f32::max(NaN, 0.0)` is `0.0`,
/// which would hide a broken model from the non-finite sentinel.
#[inline]
pub(crate) fn relu_f(v: f32) -> f32 {
    if v < 0.0 {
        0.0
    } else {
        v
    }
}

// ---- slice kernels -------------------------------------------------------------

macro_rules! slice_kernel {
    ($(#[$doc:meta])* $name:ident, $scalar:ident) => {
        $(#[$doc])*
        pub(crate) fn $name(isa: Isa, xs: &mut [f32]) {
            match isa {
                Isa::Portable => xs.iter_mut().for_each(|v| *v = $scalar(*v)),
                // SAFETY: `Isa::Avx2` is only produced after the CPU check.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => unsafe { avx2::$name(xs) },
            }
        }
    };
}

slice_kernel!(
    /// [`gelu_f`] over a slice, in place.
    gelu_slice,
    gelu_f
);
slice_kernel!(
    /// [`sigmoid_f`] over a slice, in place.
    sigmoid_slice,
    sigmoid_f
);
slice_kernel!(
    /// [`tanh_f`] over a slice, in place.
    tanh_slice,
    tanh_f
);

/// Numerically-stabilized softmax of `scale · row`, in place; the one
/// per-row kernel under every softmax path (`scale` is `1.0` for the
/// plain op: `x · 1.0` is `x` bit for bit).
///
/// The order is defined, and the same in both bodies: each element is
/// first replaced by `x · scale`; the maximum and the sum each run in 8
/// lane accumulators, element `i` into lane `i % 8` (a lane the tail
/// does not reach keeps its start value, `−∞` or `+0.0`), reduced by
/// [`reduce8`]; then every `e^{x − max}` is multiplied by one `1 / sum`.
/// A NaN or `+∞` anywhere in the row makes the whole row NaN.
pub(crate) fn softmax_row(isa: Isa, row: &mut [f32], scale: f32) {
    match isa {
        Isa::Portable => softmax_row_portable(row, scale),
        // SAFETY: `Isa::Avx2` is only produced after the CPU check.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx2::softmax_row(row, scale) },
    }
}

fn softmax_row_portable(row: &mut [f32], scale: f32) {
    let mut m = [f32::NEG_INFINITY; 8];
    for (i, v) in row.iter_mut().enumerate() {
        *v *= scale;
        m[i % 8] = max_ps(m[i % 8], *v);
    }
    let max = reduce8(m, max_ps);
    let mut s = [0.0f32; 8];
    for (i, v) in row.iter_mut().enumerate() {
        *v = exp_f(*v - max);
        s[i % 8] += *v;
    }
    let inv = 1.0 / reduce8(s, |a, b| a + b);
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// The AVX2 bodies: the scalar functions above, eight lanes at a time.
/// Only the `pub(super)` functions carry `target_feature` (`avx2` alone,
/// so no FMA can be selected); the `*_v` helpers are `inline(always)`
/// into them. A slice's last `len % 8` elements go through the scalar
/// functions, which compute the same bits.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    #[inline(always)]
    unsafe fn exp_v(x: __m256) -> __m256 {
        let lo = _mm256_set1_ps(EXP_LO);
        let xc = _mm256_max_ps(lo, _mm256_min_ps(_mm256_set1_ps(EXP_HI), x));
        let fx = _mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(LOG2_E)), _mm256_set1_ps(0.5));
        let t = _mm256_cvtepi32_ps(_mm256_cvttps_epi32(fx));
        let n = _mm256_blendv_ps(t, _mm256_sub_ps(t, _mm256_set1_ps(1.0)), _mm256_cmp_ps::<_CMP_GT_OQ>(t, fx));
        let r = _mm256_sub_ps(xc, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)));
        let mut p = _mm256_set1_ps(EXP_P[0]);
        for &c in &EXP_P[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r), _mm256_set1_ps(1.0));
        let biased = _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(127));
        let y = _mm256_mul_ps(y, _mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased)));
        _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(x, lo), y)
    }

    #[inline(always)]
    unsafe fn tanh_v(x: __m256) -> __m256 {
        let x = _mm256_max_ps(_mm256_set1_ps(-TANH_CLAMP), _mm256_min_ps(_mm256_set1_ps(TANH_CLAMP), x));
        let x2 = _mm256_mul_ps(x, x);
        let mut p = _mm256_set1_ps(TANH_ALPHA[0]);
        for &c in &TANH_ALPHA[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(c));
        }
        let mut q = _mm256_set1_ps(TANH_BETA[0]);
        for &c in &TANH_BETA[1..] {
            q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(c));
        }
        _mm256_div_ps(_mm256_mul_ps(x, p), q)
    }

    #[inline(always)]
    unsafe fn gelu_v(x: __m256) -> __m256 {
        let cube = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(GELU_A), x), x), x);
        let t = tanh_v(_mm256_mul_ps(_mm256_set1_ps(GELU_C), _mm256_add_ps(x, cube)));
        _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5), x), _mm256_add_ps(_mm256_set1_ps(1.0), t))
    }

    #[inline(always)]
    unsafe fn sigmoid_v(z: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let e = exp_v(_mm256_or_ps(z, _mm256_set1_ps(-0.0)));
        let num = _mm256_blendv_ps(e, one, _mm256_cmp_ps::<_CMP_GE_OQ>(z, _mm256_setzero_ps()));
        _mm256_div_ps(num, _mm256_add_ps(one, e))
    }

    /// `xs[i] = f(xs[i])`: whole 8-lane chunks through `fv`, the rest
    /// through its scalar definition `fs`.
    #[inline(always)]
    unsafe fn map_in_place(xs: &mut [f32], fv: impl Fn(__m256) -> __m256, fs: impl Fn(f32) -> f32) {
        let mut chunks = xs.chunks_exact_mut(8);
        for c in &mut chunks {
            _mm256_storeu_ps(c.as_mut_ptr(), fv(_mm256_loadu_ps(c.as_ptr())));
        }
        for v in chunks.into_remainder() {
            *v = fs(*v);
        }
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gelu_slice(xs: &mut [f32]) {
        map_in_place(xs, |v| gelu_v(v), gelu_f)
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sigmoid_slice(xs: &mut [f32]) {
        map_in_place(xs, |v| sigmoid_v(v), sigmoid_f)
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tanh_slice(xs: &mut [f32]) {
        map_in_place(xs, |v| tanh_v(v), tanh_f)
    }

    #[inline(always)]
    unsafe fn lanes(v: __m256) -> [f32; 8] {
        let mut l = [0.0f32; 8];
        _mm256_storeu_ps(l.as_mut_ptr(), v);
        l
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn softmax_row(row: &mut [f32], scale: f32) {
        let (head, tail) = row.split_at_mut(row.len() / 8 * 8);

        let sv = _mm256_set1_ps(scale);
        let mut m = _mm256_set1_ps(f32::NEG_INFINITY);
        for c in head.chunks_exact_mut(8) {
            let v = _mm256_mul_ps(_mm256_loadu_ps(c.as_ptr()), sv);
            _mm256_storeu_ps(c.as_mut_ptr(), v);
            m = _mm256_max_ps(m, v);
        }
        let mut m = lanes(m);
        for (v, ml) in tail.iter_mut().zip(&mut m) {
            *v *= scale;
            *ml = max_ps(*ml, *v);
        }
        let max = reduce8(m, max_ps);

        let mv = _mm256_set1_ps(max);
        let mut s = _mm256_setzero_ps();
        for c in head.chunks_exact_mut(8) {
            let e = exp_v(_mm256_sub_ps(_mm256_loadu_ps(c.as_ptr()), mv));
            _mm256_storeu_ps(c.as_mut_ptr(), e);
            s = _mm256_add_ps(s, e);
        }
        let mut s = lanes(s);
        for (v, sl) in tail.iter_mut().zip(&mut s) {
            *v = exp_f(*v - max);
            *sl += *v;
        }
        let inv = 1.0 / reduce8(s, |a, b| a + b);

        let iv = _mm256_set1_ps(inv);
        for c in head.chunks_exact_mut(8) {
            _mm256_storeu_ps(c.as_mut_ptr(), _mm256_mul_ps(_mm256_loadu_ps(c.as_ptr()), iv));
        }
        for v in tail {
            *v *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense sweep of [−90, 90] (step 3.6e-4) plus the values where a
    /// branch, a clamp or the number format changes.
    fn sweep() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=500_000).map(|i| -90.0 + i as f32 * 3.6e-4).collect();
        let next = |x: f32| f32::from_bits(x.to_bits() + 1);
        let prev = |x: f32| f32::from_bits(x.to_bits() - 1);
        for edge in [EXP_HI, -EXP_LO, TANH_CLAMP, 88.376_26, 1.0, f32::MIN_POSITIVE, 1e-40, 1e-45] {
            for v in [prev(edge), edge, next(edge)] {
                xs.extend([v, -v]);
            }
        }
        xs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN]);
        xs.sort_by(f32::total_cmp);
        xs
    }

    /// Bit equality; two NaNs are equal whatever their payload, which the
    /// language does not define.
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()), "{what}: element {i}: {g:e} vs {w:e}");
        }
    }

    #[test]
    fn exp_matches_f64_reference_and_saturates_as_documented() {
        let mut worst = 0.0f64;
        for x in sweep() {
            let got = exp_f(x);
            if x < EXP_LO {
                assert_eq!(got.to_bits(), 0.0f32.to_bits(), "exp_f({x:e}) must be +0.0");
            } else if x >= 88.376_27 {
                assert_eq!(got, f32::INFINITY, "exp_f({x:e})");
            } else {
                assert!(got.is_normal(), "exp_f({x:e}) = {got:e}");
            }
            if (-87.0..=88.0).contains(&x) {
                let want = f64::from(x).exp();
                worst = worst.max(((f64::from(got) - want) / want).abs());
            }
        }
        assert!(worst <= 2e-7, "exp_f relative error {worst:e}");
        assert_eq!(exp_f(0.0), 1.0);
        assert_eq!(exp_f(-0.0), 1.0);
        assert!(exp_f(f32::NAN).is_nan());
    }

    /// Monotone down to its rounding noise: where `tanh` has saturated
    /// (|x| > 4, slope under one ulp per sweep step) `x·P / Q` wobbles by
    /// up to three ulps of 1 (measured; four allowed), so consecutive sweep points may fall by
    /// that much and no more; below that it never falls.
    #[test]
    fn tanh_matches_f64_reference_is_odd_bounded_and_monotone() {
        let (mut worst, mut last) = (0.0f64, -1.0f32);
        for x in sweep() {
            let got = tanh_f(x);
            assert_eq!(tanh_f(-x).to_bits(), (-got).to_bits(), "tanh_f odd at {x:e}");
            assert!(got.abs() <= 1.0, "tanh_f({x:e}) = {got:e}");
            let noise = if x.abs() > 4.0 { 4.0 * f32::EPSILON } else { 0.0 };
            assert!(got >= last - noise, "tanh_f falls at {x:e}: {last:e} -> {got:e}");
            last = got;
            worst = worst.max((f64::from(got) - f64::from(x).tanh()).abs());
        }
        assert!(worst <= 1e-6, "tanh_f absolute error {worst:e}");
        assert_eq!(tanh_f(f32::INFINITY), 1.0);
        assert_eq!(tanh_f(f32::NEG_INFINITY), -1.0);
        assert!(tanh_f(f32::NAN).is_nan());
    }

    #[test]
    fn gelu_and_sigmoid_match_f64_references() {
        for x in sweep().into_iter().filter(|x| x.is_finite()) {
            let xd = f64::from(x);
            let inner = (2.0 / std::f64::consts::PI).sqrt() * (xd + 0.044_715 * xd * xd * xd);
            let err = (f64::from(gelu_f(x)) - 0.5 * xd * (1.0 + inner.tanh())).abs();
            assert!(err <= 2e-6 * xd.abs().max(1.0), "gelu_f({x:e}) off by {err:e}");
            let err = (f64::from(sigmoid_f(x)) - 1.0 / (1.0 + (-xd).exp())).abs();
            assert!(err <= 2e-7, "sigmoid_f({x:e}) off by {err:e}");
        }
        assert_eq!(sigmoid_f(f32::INFINITY), 1.0);
        assert_eq!(sigmoid_f(f32::NEG_INFINITY), 0.0);
    }

    #[test]
    fn nan_goes_in_and_comes_out_of_every_function_in_every_body() {
        for f in [exp_f, tanh_f, gelu_f, gelu_grad_f, sigmoid_f, relu_f] {
            assert!(f(f32::NAN).is_nan());
            assert!(f(-f32::NAN).is_nan());
        }
        assert_eq!(relu_f(-1.5), 0.0);
        assert_eq!(relu_f(2.5), 2.5);
        for isa in Isa::bodies() {
            for kernel in [gelu_slice, sigmoid_slice, tanh_slice] {
                // One NaN in a vector lane, one in the scalar tail.
                let mut xs = [0.5f32; 11];
                (xs[3], xs[9]) = (f32::NAN, f32::NAN);
                kernel(isa, &mut xs);
                assert!(xs[3].is_nan() && xs[9].is_nan(), "{isa:?}");
                assert_eq!(xs.iter().filter(|v| v.is_nan()).count(), 2, "{isa:?}");
            }
            for poison in [f32::NAN, f32::INFINITY] {
                for at in [2, 10] {
                    let mut row = [0.25f32; 11];
                    row[at] = poison;
                    softmax_row(isa, &mut row, 1.0);
                    assert!(row.iter().all(|v| v.is_nan()), "{isa:?} {poison} at {at}: {row:?}");
                }
            }
        }
    }

    #[test]
    fn avx2_slices_match_the_scalar_definitions_bitwise() {
        let xs = sweep();
        type Pair = (&'static str, fn(Isa, &mut [f32]), fn(f32) -> f32);
        let kernels: [Pair; 3] =
            [("gelu", gelu_slice, gelu_f), ("sigmoid", sigmoid_slice, sigmoid_f), ("tanh", tanh_slice, tanh_f)];
        for isa in Isa::bodies() {
            for (name, kernel, scalar) in kernels {
                // Every tail length, at every offset into the sweep's
                // special values; then the whole sweep.
                for len in 0..=33 {
                    for start in [0, xs.len() / 2, xs.len() - 40] {
                        let mut got = xs[start..start + len].to_vec();
                        kernel(isa, &mut got);
                        let want: Vec<f32> = xs[start..start + len].iter().map(|&v| scalar(v)).collect();
                        assert_same_bits(&got, &want, &format!("{name} {isa:?} len {len} from {start}"));
                    }
                }
                let mut got = xs.clone();
                kernel(isa, &mut got);
                let want: Vec<f32> = xs.iter().map(|&v| scalar(v)).collect();
                assert_same_bits(&got, &want, &format!("{name} {isa:?} sweep"));
            }
        }
    }

    /// [`exp_f`] has no slice kernel of its own; its AVX2 body is reached
    /// through softmax (`e^{x − max}`) and sigmoid (`e^{−|z|}`).
    #[test]
    fn softmax_bodies_agree_bitwise_sum_to_one_and_preserve_order() {
        for len in [1usize, 7, 8, 9, 16, 31, 160, 333] {
            for (scale, spread) in [(1.0f32, 3.0f32), (0.196_116_14, 40.0), (1.0, 200.0)] {
                let row: Vec<f32> = (0..len).map(|i| (i as f32 * 0.73 + len as f32).sin() * spread).collect();
                let mut want = row.clone();
                softmax_row(Isa::Portable, &mut want, scale);
                let sum: f64 = want.iter().map(|&v| f64::from(v)).sum();
                assert!((sum - 1.0).abs() <= 1e-6, "len {len} scale {scale}: sum {sum}");
                for (i, j) in (0..len).zip(1..len) {
                    let (lt, le) = (row[i] * scale < row[j] * scale, want[i] <= want[j]);
                    assert!(!lt || le, "len {len}: order of {i},{j} not preserved");
                }
                if len == 1 {
                    assert_eq!(want[0].to_bits(), 1.0f32.to_bits());
                }
                for isa in Isa::bodies() {
                    let mut got = row.clone();
                    softmax_row(isa, &mut got, scale);
                    assert_same_bits(&got, &want, &format!("softmax len {len} scale {scale} {isa:?}"));
                }
            }
        }
        for isa in Isa::bodies() {
            softmax_row(isa, &mut [], 1.0);
        }
    }
}
