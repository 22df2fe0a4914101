//! Micro-measurements below and beside the workloads: the compute
//! kernels at the shapes the two encoders use, and the engine's fixed
//! cost per `detect_batch`.

use crate::setup::Inputs;
use crate::stats::median;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taste_framework::TasteEngine;
use taste_model::ModelConfig;
use taste_nn::kernels::{attn_blocks_into, matmul_packed_into};
use taste_nn::{Act, Matrix, PackedB};

/// Kernel rates on this host, single-threaded.
pub struct KernelProbe {
    /// Packed matmul at 64×312×1200 (a paper-encoder feed-forward).
    pub gflops_paper: f64,
    /// Packed matmul at 48×64×256 (a small-encoder feed-forward).
    pub gflops_small: f64,
    /// One block-diagonal attention call: 64 query rows, 160 key rows,
    /// 12 heads, width 312.
    pub attn_us: f64,
    /// `PackedB::pack` over every paper-encoder weight shape once.
    pub pack_ms_paper: f64,
}

/// A deterministic, non-trivial fill; the values are irrelevant to speed
/// but zeros or denormals would not be.
fn filled(rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) / 64.0)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Median seconds per call over `batches` batches of `calls` calls.
fn time_calls(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&per_call)
}

fn matmul_gflops(m: usize, k: usize, n: usize, calls: usize) -> f64 {
    let a = filled(m, k);
    let pb = PackedB::pack(&filled(k, n));
    let mut out = Matrix::zeros(m, n);
    let secs = time_calls(7, calls, || {
        matmul_packed_into(black_box(&a), black_box(&pb), None, Act::Ident, 1, &mut out);
        black_box(&out);
    });
    2.0 * (m * k * n) as f64 / secs / 1e9
}

/// The weight shapes one `Inferencer` packs for the paper encoder:
/// per layer the four attention projections and the two feed-forward
/// matrices, plus both classifier heads.
pub fn paper_weight_shapes(ntypes: usize, feat: usize) -> Vec<(usize, usize)> {
    let c = ModelConfig::paper();
    let mut shapes = Vec::new();
    for _ in 0..c.layers {
        shapes.extend([(c.hidden, c.hidden); 4]);
        shapes.push((c.hidden, c.intermediate));
        shapes.push((c.intermediate, c.hidden));
    }
    shapes.push((c.hidden + feat, c.meta_head_hidden));
    shapes.push((c.meta_head_hidden, ntypes));
    shapes.push((2 * c.hidden + feat, c.content_head_hidden));
    shapes.push((c.content_head_hidden, ntypes));
    shapes
}

/// Runs the kernel probes (about a second in a release build).
pub fn kernels(ntypes: usize, feat: usize, quick: bool) -> KernelProbe {
    let scale = if quick { 20 } else { 1 };
    let gflops_paper = matmul_gflops(64, 312, 1200, 40 / scale + 1);
    let gflops_small = matmul_gflops(48, 64, 256, 1200 / scale + 1);

    let (heads, dim) = (12, 312);
    let (q, k, v) = (filled(64, dim), filled(160, dim), filled(160, dim));
    let mut out = Matrix::zeros(64, dim);
    let scale_f = 1.0 / ((dim / heads) as f32).sqrt();
    let attn_s = time_calls(7, 60 / scale + 1, || {
        attn_blocks_into(
            black_box(&q),
            black_box(&k),
            black_box(&v),
            &[64],
            &[160],
            heads,
            scale_f,
            1,
            &mut out,
        );
        black_box(&out);
    });

    let weights: Vec<Matrix> = paper_weight_shapes(ntypes, feat)
        .into_iter()
        .map(|(r, c)| filled(r, c))
        .collect();
    let pack_s = time_calls(if quick { 1 } else { 5 }, 1, || {
        for w in &weights {
            black_box(PackedB::pack(black_box(w)));
        }
    });

    KernelProbe {
        gflops_paper,
        gflops_small,
        attn_us: attn_s * 1e6,
        pack_ms_paper: pack_s * 1e3,
    }
}

/// The engine's costs that do not depend on how many tables a batch has.
pub struct FixedCosts {
    /// `detect_batch` over zero tables: thread spawn, connects, teardown.
    pub batch_fixed_ms: f64,
    /// `detect_batch` over the round's first table alone.
    pub one_table_ms: f64,
    /// Calls behind each median.
    pub samples: usize,
}

/// Measures the fixed costs on the workload's own database and engine
/// configuration.
pub fn fixed_costs(inputs: &Inputs, samples: usize) -> Result<FixedCosts, String> {
    let engine = TasteEngine::new(Arc::clone(&inputs.model), inputs.config)
        .map_err(|e| format!("engine: {e}"))?;
    let time = |tables: &[taste_core::TableId]| -> Result<f64, String> {
        let mut ms = Vec::with_capacity(samples);
        for _ in 0..=samples {
            let t0 = Instant::now();
            engine
                .detect_batch(&inputs.db, tables)
                .map_err(|e| format!("fixed-cost probe: {e}"))?;
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        // The first call warms the path and is dropped.
        Ok(median(&ms[1..]))
    };
    Ok(FixedCosts {
        batch_fixed_ms: time(&[])?,
        one_table_ms: time(&inputs.tables[..1])?,
        samples,
    })
}

/// Sequential-engine wall times (`pipelining: false`) on `db`,
/// milliseconds.
pub fn sequential_ms(
    inputs: &Inputs,
    db: &Arc<taste_db::Database>,
    budget: Duration,
    min_runs: usize,
) -> Result<Vec<f64>, String> {
    let engine = TasteEngine::new(Arc::clone(&inputs.model), inputs.sequential_config)
        .map_err(|e| format!("engine: {e}"))?;
    let mut ms = Vec::new();
    let start = Instant::now();
    while ms.len() < min_runs || start.elapsed() < budget {
        let t0 = Instant::now();
        let report = engine
            .detect_batch(db, &inputs.tables)
            .map_err(|e| format!("sequential run: {e}"))?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let verdicts: Vec<_> = report.tables.into_iter().map(|t| t.admitted).collect();
        if verdicts != inputs.reference {
            return Err("sequential run: verdicts differ from the reference".into());
        }
    }
    Ok(ms)
}
