//! A *one-sequence* attention call must still spread over
//! `kernel_threads`: the kernel splits its work by (sequence, head), not
//! by sequence. This file holds a single test on purpose — the worker
//! pool is process-global, and only a process that has run nothing else
//! can tell from its worker count that this call entered it.

use taste_nn::kernels::{attn_blocks_into, PAR_MIN_FLOPS};
use taste_nn::{KernelPool, Matrix};

#[test]
fn one_sequence_attention_enters_the_pool_and_keeps_its_bytes() {
    let (heads, dim, ql, kl) = (4usize, 32usize, 24usize, 40usize);
    assert!(4 * ql * kl * dim >= PAR_MIN_FLOPS, "the call must clear the parallel gate");
    let wavy = |rows: usize, phase: f32| {
        Matrix::from_vec(rows, dim, (0..rows * dim).map(|i| (i as f32 * 0.37 + phase).sin()).collect())
    };
    let (q, k, v) = (wavy(ql, 0.3), wavy(kl, 1.3), wavy(kl, 2.3));
    let scale = 1.0 / ((dim / heads) as f32).sqrt();
    let run = |threads: usize| {
        let mut out = Matrix::zeros(ql, dim);
        attn_blocks_into(&q, &k, &v, &[ql], &[kl], heads, scale, threads, &mut out);
        out.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
    };

    let single = run(1);
    assert_eq!(KernelPool::global().spawned_workers(), 0, "one thread must stay off the pool");
    assert_eq!(run(2), single, "threads=2");
    assert_eq!(KernelPool::global().spawned_workers(), 1, "threads=2 must dispatch one worker");
    assert_eq!(run(4), single, "threads=4");
    assert_eq!(KernelPool::global().spawned_workers(), 3, "threads=4 must dispatch one worker per extra head range");
}
