//! Property-based parity checks for the vectorized kernel layer: every
//! kernel variant (lane-vectorized, packed, fused, threaded) must be
//! **bitwise** identical to the composed single-threaded reference —
//! `assert_eq!` on `f32`s, no tolerance.

use proptest::prelude::*;
use taste_nn::kernels::{self, Act, PackedB};
use taste_nn::Matrix;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Shape strategy spanning sub-lane, exact-lane, and lane+remainder
/// widths so every code path (full panels, tail panel, tiny matrices)
/// is exercised — and, for the packed driver's 4-row × 2-panel register
/// tile, row counts on both sides of a multiple of 4 and widths that end
/// in a lone last panel, full (24, 40) or partial (17, 33, 41).
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..14, 1usize..12, prop_oneof![1usize..20, prop::sample::select(vec![24usize, 33, 40, 41])])
}

/// The composed reference for a fused `act(x @ w + bias)`: plain matmul,
/// then a row-broadcast bias add, then the scalar activation — the exact
/// op sequence `modules.rs` used before fusion.
fn composed_linear_act(x: &Matrix, w: &Matrix, bias: &Matrix, act: Act) -> Matrix {
    let mut out = x.matmul(w);
    let b = bias.as_slice();
    for r in 0..out.rows() {
        for (v, &bv) in out.row_slice_mut(r).iter_mut().zip(b) {
            let a = *v + bv;
            *v = act.apply(a);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn packed_matmul_is_bit_identical_to_unpacked(
        (m, k, n) in dims(),
        a in prop::collection::vec(-2.0f32..2.0, 160),
        b in prop::collection::vec(-2.0f32..2.0, 640),
    ) {
        prop_assume!(a.len() >= m * k && b.len() >= k * n);
        let a = Matrix::from_vec(m, k, a[..m * k].to_vec());
        let b = Matrix::from_vec(k, n, b[..k * n].to_vec());
        let reference = a.matmul(&b);
        let packed = PackedB::pack(&b);
        for threads in [1usize, 2, 4] {
            let mut out = Matrix::zeros(m, n);
            kernels::matmul_packed_into(&a, &packed, None, Act::Ident, threads, &mut out);
            prop_assert_eq!(&out, &reference, "packed threads={}", threads);
        }
    }

    #[test]
    fn fused_bias_activation_is_bit_identical_to_composed(
        (m, k, n) in dims(),
        x in prop::collection::vec(-2.0f32..2.0, 160),
        w in prop::collection::vec(-2.0f32..2.0, 640),
        bias_salt in -2.0f32..2.0,
        act_pick in 0usize..5,
    ) {
        prop_assume!(x.len() >= m * k && w.len() >= k * n);
        let x = Matrix::from_vec(m, k, x[..m * k].to_vec());
        let w = Matrix::from_vec(k, n, w[..k * n].to_vec());
        let bias = Matrix::from_vec(1, n, (0..n).map(|j| bias_salt + j as f32 * 0.125).collect());
        let act = [Act::Ident, Act::Relu, Act::Gelu, Act::Sigmoid, Act::Tanh][act_pick];

        let reference = composed_linear_act(&x, &w, &bias, act);
        let packed = PackedB::pack(&w);
        for threads in [1usize, 2, 4] {
            let mut out = Matrix::zeros(m, n);
            kernels::matmul_packed_into(&x, &packed, Some(&bias), act, threads, &mut out);
            prop_assert_eq!(&out, &reference, "fused act={:?} threads={}", act, threads);
        }
    }

    #[test]
    fn fused_row_kernels_are_bit_identical_to_composed(
        x in matrix(4, 11),
        alpha in 0.05f32..2.0,
        eps in prop::sample::select(vec![1e-5f32, 1e-6]),
    ) {
        // Fused scaled-softmax vs scale-then-softmax.
        let mut composed = x.clone();
        for v in composed.as_mut_slice() {
            *v *= alpha;
        }
        composed.softmax_rows_inplace();
        let mut fused = Matrix::zeros(x.rows(), x.cols());
        kernels::softmax_rows_scaled_into(&x, alpha, &mut fused);
        prop_assert_eq!(&fused, &composed);

        // Fused affine layer-norm vs normalize-then-scale-then-shift.
        let n = x.cols();
        let gain = Matrix::from_vec(1, n, (0..n).map(|j| 0.5 + j as f32 * 0.1).collect());
        let bias = Matrix::from_vec(1, n, (0..n).map(|j| -0.3 + j as f32 * 0.05).collect());
        let mut composed = x.clone();
        composed.layer_norm_rows_inplace(eps);
        for r in 0..composed.rows() {
            for ((v, &g), &b) in composed
                .row_slice_mut(r)
                .iter_mut()
                .zip(gain.as_slice())
                .zip(bias.as_slice())
            {
                let scaled = *v * g;
                *v = scaled + b;
            }
        }
        let mut fused = Matrix::zeros(x.rows(), x.cols());
        kernels::layer_norm_affine_into(&x, &gain, &bias, eps, &mut fused);
        prop_assert_eq!(&fused, &composed);
    }

    #[test]
    fn transpose_free_variants_match_explicit_transposes(
        (m, k, n) in dims(),
        a in prop::collection::vec(-2.0f32..2.0, 160),
        b in prop::collection::vec(-2.0f32..2.0, 640),
    ) {
        prop_assume!(a.len() >= m * k && b.len() >= k * n && b.len() >= m * n);
        let a = Matrix::from_vec(m, k, a[..m * k].to_vec());
        let raw = b;
        let b = Matrix::from_vec(k, n, raw[..k * n].to_vec());

        // a @ b^T via matmul_bt == a @ transpose(b) elementwise (the
        // accumulation order is ascending-k in both, so bitwise).
        let bt = Matrix::from_vec(n, k, b.transpose().as_slice().to_vec());
        prop_assert_eq!(a.matmul_bt(&bt), a.matmul(&b));

        // a^T @ b via matmul_at (both operands share their row count):
        // same values as transpose(a) @ b — matmul_at accumulates in the
        // same ascending-k order, so it is bitwise equal here too.
        let c = Matrix::from_vec(m, n, raw[..m * n].to_vec());
        let at = a.transpose();
        prop_assert_eq!(a.matmul_at(&c), at.matmul(&c));
    }
}
