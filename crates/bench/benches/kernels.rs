//! Criterion microbenches for the numeric kernels underlying inference:
//! matmul variants, softmax, layer norm, and the tokenizer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use taste_nn::kernels::{self, Act, PackedB};
use taste_nn::Matrix;
use taste_tokenizer::{Tokenizer, VocabBuilder};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &(m, k, n) in &[(64usize, 64usize, 64usize), (256, 64, 64), (256, 16, 256)] {
        let a = Matrix::full(m, k, 0.5);
        let b = Matrix::full(k, n, 0.25);
        group.bench_with_input(BenchmarkId::from_parameter(format!("{m}x{k}x{n}")), &(a, b), |bench, (a, b)| {
            bench.iter(|| black_box(a.matmul(b)))
        });
    }
    // Transpose-free attention-score kernels.
    let q = Matrix::full(128, 16, 0.5);
    let kk = Matrix::full(128, 16, 0.25);
    group.bench_function("scores_matmul_bt_128x128x16", |b| b.iter(|| black_box(q.matmul_bt(&kk))));
    group.finish();
}

fn bench_kernel_variants(c: &mut Criterion) {
    // Encoder-shaped matmul through each kernel variant: the tape's
    // lane kernel, and the serving path's packed panels, packed + fused
    // bias/GELU, and packed row-parallel at 4 threads. All are
    // bit-identical; only the time differs.
    let (m, k, n) = (64usize, 312usize, 312usize);
    let a = Matrix::full(m, k, 0.5);
    let b = Matrix::full(k, n, 0.25);
    let bias = Matrix::full(1, n, 0.1);
    let packed = PackedB::pack(&b);
    let mut out = Matrix::zeros(m, n);

    let mut group = c.benchmark_group("kernel_variants_64x312x312");
    group.bench_function("lane", |bench| {
        bench.iter(|| black_box(&a).matmul_into(black_box(&b), &mut out))
    });
    group.bench_function("packed", |bench| {
        bench.iter(|| kernels::matmul_packed_into(black_box(&a), black_box(&packed), None, Act::Ident, 1, &mut out))
    });
    group.bench_function("packed_fused_bias_gelu", |bench| {
        bench.iter(|| {
            kernels::matmul_packed_into(black_box(&a), black_box(&packed), Some(&bias), Act::Gelu, 1, &mut out)
        })
    });
    group.bench_function("packed_threads4", |bench| {
        bench.iter(|| kernels::matmul_packed_into(black_box(&a), black_box(&packed), None, Act::Ident, 4, &mut out))
    });

    // The allocation-free transpose-free forms the tape backward uses.
    let grad = Matrix::full(m, n, 0.125);
    let mut da = Matrix::zeros(m, k);
    let mut db = Matrix::zeros(k, n);
    group.bench_function("backward_matmul_bt_into", |bench| {
        bench.iter(|| grad.matmul_bt_into(black_box(&b), &mut da))
    });
    group.bench_function("backward_matmul_at_into", |bench| {
        bench.iter(|| a.matmul_at_into(black_box(&grad), &mut db))
    });
    group.finish();
}

fn bench_micro_kernel(c: &mut Criterion) {
    // The register-blocked micro-kernel at the paper encoder's
    // feed-forward shape, and the attention kernel it also drives at the
    // paper's cross-attention shape (230 content rows over 320 keys).
    let mut group = c.benchmark_group("micro_kernel");
    let (x, w) = (Matrix::full(64, 312, 0.5), PackedB::pack(&Matrix::full(312, 1200, 0.25)));
    let mut out = Matrix::zeros(64, 1200);
    group.bench_function("packed_64x312x1200", |bench| {
        bench.iter(|| kernels::matmul_packed_into(black_box(&x), black_box(&w), None, Act::Ident, 1, &mut out))
    });
    let (q, kv) = (Matrix::full(230, 312, 0.5), Matrix::full(320, 312, 0.25));
    let mut ctx = Matrix::zeros(230, 312);
    let scale = 1.0 / 26.0f32.sqrt();
    group.bench_function("attn_blocks_q230_kv320_h12", |bench| {
        bench.iter(|| kernels::attn_blocks_into(black_box(&q), black_box(&kv), &kv, &[230], &[320], 12, scale, 1, &mut ctx))
    });
    group.finish();
}

fn bench_rowwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("rowwise");
    let x = Matrix::full(256, 256, 0.1);
    group.bench_function("softmax_rows_256x256", |b| b.iter(|| black_box(x.softmax_rows())));
    group.bench_function("transpose_256x256", |b| b.iter(|| black_box(x.transpose())));
    group.finish();
}

fn bench_epilogues(c: &mut Criterion) {
    // What follows the GEMMs, at the shapes serving runs them: the paper
    // feed-forward's GELU, one head's attention scores at the paper's
    // cross-attention shape, and the classifier's sigmoid over 255 types.
    let mut group = c.benchmark_group("epilogues");
    let mut ff = Matrix::full(64, 1200, 0.5);
    group.bench_function("gelu_64x1200", |b| b.iter(|| Act::Gelu.apply_slice(black_box(ff.as_mut_slice()))));
    let scores = Matrix::full(230, 320, 0.1);
    group.bench_function("softmax_230x320", |b| b.iter(|| black_box(scores.softmax_rows())));
    let mut logits = Matrix::full(64, 255, 0.5);
    group.bench_function("sigmoid_64x255", |b| b.iter(|| Act::Sigmoid.apply_slice(black_box(logits.as_mut_slice()))));
    group.finish();
}

fn bench_tokenizer(c: &mut Criterion) {
    let mut vb = VocabBuilder::new();
    for w in ["customer", "orders", "city", "phone", "number", "shipment", "address"] {
        for _ in 0..3 {
            vb.add_word(w);
        }
    }
    let tok = Tokenizer::new(vb.build(1000, 1));
    let text = "customer_shipment_address city phone_number 4111111111111111 orders2024 unknownword";
    c.bench_function("tokenizer_encode_mixed_text", |b| b.iter(|| black_box(tok.encode(black_box(text)))));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_kernel_variants, bench_micro_kernel, bench_rowwise, bench_epilogues, bench_tokenizer
}
criterion_main!(benches);
