//! Backend parity: random programs over the 13 ops of the [`Forward`]
//! seam, evaluated on the recording `Tape` — whose compositions define
//! the ops — and on the tape-free `InferExec`, must agree on the `f32`
//! **bits** of every node, at 1 and at 4 kernel threads.
//!
//! The generator draws from everything the seam has, composites
//! included: `linear`, `linear_act` over every `Act`, `layer_norm_affine`,
//! `vcat_rows` with partial ranges, and `attn_blocks` with random ragged
//! `q_lens` / `kv_lens` and head counts. This is the suite to read after
//! touching `Forward` or either implementation of it.

use proptest::prelude::*;
use taste_nn::{Act, Forward, InferExec, Matrix, NodeId, ParamId, ParamStore, Tape};

const VOCAB: usize = 16;
const ACTS: [Act; 5] = [Act::Ident, Act::Relu, Act::Gelu, Act::Sigmoid, Act::Tanh];
/// Picks per step: operand choices, lengths, offsets.
const PICKS: usize = 8;

/// One step of a random forward program. Operands are drawn by index
/// from the width-`d` nodes produced so far and re-rowed where an op
/// needs matching heights, so every program is well-formed by
/// construction.
#[derive(Debug, Clone)]
enum OpStep {
    GatherParamRows,
    Add,
    Hcat, // followed by a `linear` back down to width `d`
    Sigmoid,
    LeafCopy,
    LeafRows,
    GatherRows,
    VcatRows,
    Linear,
    LinearAct(Act),
    LayerNormAffine,
    AttnBlocks(f32),
}

fn op_step() -> impl Strategy<Value = OpStep> {
    prop_oneof![
        Just(OpStep::GatherParamRows),
        Just(OpStep::Add),
        Just(OpStep::Hcat),
        Just(OpStep::Sigmoid),
        Just(OpStep::LeafCopy),
        Just(OpStep::LeafRows),
        Just(OpStep::GatherRows),
        Just(OpStep::VcatRows),
        Just(OpStep::Linear),
        prop::sample::select(ACTS.to_vec()).prop_map(OpStep::LinearAct),
        Just(OpStep::LayerNormAffine),
        (0.05f32..1.5).prop_map(OpStep::AttnBlocks),
    ]
}

type Step = (OpStep, Vec<usize>);

fn program(max: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((op_step(), prop::collection::vec(0usize..1000, PICKS)), 1..max)
}

struct Params {
    table: ParamId,
    w: ParamId,
    b: ParamId,
    w_down: ParamId,
    b_down: ParamId,
    gain: ParamId,
    bias: ParamId,
}

fn params(store: &mut ParamStore, d: usize) -> Params {
    Params {
        table: store.normal("table", VOCAB, d, 0.5),
        w: store.normal("w", d, d, 0.4),
        b: store.normal("b", 1, d, 0.2),
        w_down: store.normal("w_down", 2 * d, d, 0.3),
        b_down: store.normal("b_down", 1, d, 0.2),
        gain: store.normal("gain", 1, d, 0.7),
        bias: store.normal("bias", 1, d, 0.3),
    }
}

/// A `[rows, cols]` matrix of values in `[-1, 1)` decided by `pick`.
fn wave(rows: usize, cols: usize, pick: usize) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| ((i * 7 + pick * 13) % 29) as f32 / 14.5 - 1.0).collect())
}

/// `total` rows as `parts` non-empty sequence lengths.
fn split(total: usize, parts: usize, pick: usize) -> Vec<usize> {
    let mut lens = vec![1; parts];
    for r in 0..total - parts {
        lens[(pick + r * r) % parts] += 1;
    }
    lens
}

/// Replays `steps` on any backend and returns the value of every node it
/// created, in order.
fn run_program<E: Forward + ?Sized>(ex: &mut E, store: &ParamStore, p: &Params, d: usize, steps: &[Step]) -> Vec<Matrix> {
    // `x` re-rowed to `rows` rows by a wrapping gather.
    fn conform<E: Forward + ?Sized>(ex: &mut E, all: &mut Vec<NodeId>, x: NodeId, rows: usize, salt: usize) -> NodeId {
        let have = ex.value(x).rows();
        let idx: Vec<usize> = (0..rows).map(|i| (i * (salt % 5 + 1) + salt) % have).collect();
        let out = ex.gather_rows(x, &idx);
        all.push(out);
        out
    }
    let max_rows = if d >= 32 { 48 } else { 12 };
    let first = ex.gather_param_rows(store, p.table, &[0, 1, 2]);
    let mut all = vec![first];
    let mut pool = vec![first];
    for (step, k) in steps {
        let [a, b, c] = [0, 1, 2].map(|i| pool[k[i] % pool.len()]);
        let (rows_a, rows_b) = (ex.value(a).rows(), ex.value(b).rows());
        let id = match step {
            OpStep::GatherParamRows => {
                let idx: Vec<usize> = (0..1 + k[3] % max_rows).map(|i| (i * k[4] + k[5]) % VOCAB).collect();
                ex.gather_param_rows(store, p.table, &idx)
            }
            OpStep::Add => {
                let b2 = conform(ex, &mut all, b, rows_a, k[3]);
                ex.add(a, b2)
            }
            OpStep::Hcat => {
                let b2 = conform(ex, &mut all, b, rows_a, k[3]);
                let wide = ex.hcat(a, b2);
                all.push(wide);
                ex.linear(store, wide, p.w_down, p.b_down)
            }
            OpStep::Sigmoid => ex.sigmoid(a),
            OpStep::LeafCopy => ex.leaf_copy(&wave(1 + k[3] % 7, d, k[4])),
            OpStep::LeafRows => {
                let m = wave(1 + k[3] % 7, d, k[4]);
                let rows: Vec<&[f32]> = (0..m.rows()).map(|r| m.row_slice(r)).collect();
                ex.leaf_rows(&rows)
            }
            OpStep::GatherRows => {
                let idx: Vec<usize> = (0..1 + k[3] % 9).map(|i| (i * k[4] + k[5]) % rows_a).collect();
                ex.gather_rows(a, &idx)
            }
            OpStep::VcatRows => {
                let parts: Vec<(NodeId, usize, usize)> = [a, b, c][..1 + k[3] % 3]
                    .iter()
                    .enumerate()
                    .map(|(j, &x)| {
                        let rows = ex.value(x).rows();
                        let start = k[4 + j] % rows;
                        (x, start, 1 + k[7 - j] % (rows - start))
                    })
                    .collect();
                ex.vcat_rows(&parts)
            }
            OpStep::Linear => ex.linear(store, a, p.w, p.b),
            OpStep::LinearAct(act) => ex.linear_act(store, a, p.w, p.b, *act),
            OpStep::LayerNormAffine => ex.layer_norm_affine(store, a, p.gain, p.bias, 1e-5),
            OpStep::AttnBlocks(scale) => {
                let v = conform(ex, &mut all, c, rows_b, k[6]);
                let nb = 1 + k[3] % rows_a.min(rows_b).min(4);
                let heads: Vec<usize> = (1..=4).filter(|&h| d.is_multiple_of(h)).collect();
                let (q_lens, kv_lens) = (split(rows_a, nb, k[4]), split(rows_b, nb, k[5]));
                ex.attn_blocks(a, b, v, &q_lens, &kv_lens, heads[k[7] % heads.len()], *scale)
            }
        };
        all.push(id);
        pool.push(id);
    }
    all.iter().map(|&id| ex.value(id).clone()).collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The tape's values for `steps`, and the executor's at 1 and 4 kernel
/// threads, node by node, shape and bits.
fn assert_backends_agree(d: usize, steps: &[Step]) -> Result<(), TestCaseError> {
    let mut store = ParamStore::new(11);
    let p = params(&mut store, d);
    let taped = run_program(&mut Tape::new(), &store, &p, d, steps);
    for threads in [1usize, 4] {
        let mut exec = InferExec::with_kernel_threads(threads);
        let eager = run_program(&mut exec.session(&store), &store, &p, d, steps);
        prop_assert_eq!(taped.len(), eager.len());
        for (i, (t, e)) in taped.iter().zip(&eager).enumerate() {
            prop_assert_eq!(t.shape(), e.shape(), "node {} shape, threads={}", i, threads);
            prop_assert!(bits(t) == bits(e), "node {i} bits diverged, threads={threads}:\n{t:?}\n{e:?}");
        }
    }
    Ok(())
}

#[test]
fn every_op_and_activation_at_shapes_that_engage_the_kernel_pool() {
    // d = 32 and a 40-row operand: the packed linears (2·40·32·32 FLOP)
    // and the attention (4·40·40·32) clear `kernels::PAR_MIN_FLOPS`, so
    // the 4-thread run really splits rows and (sequence, head) items.
    // Picks `[i, j, l, ..]` choose pool nodes i, j, l; node 1 is the
    // 40-row stack, node 2 its layer-normed self.
    let on = |i: usize, j: usize, l: usize, rest: [usize; 5]| [&[i, j, l][..], &rest[..]].concat();
    let mut program: Vec<Step> = vec![
        (OpStep::GatherParamRows, on(0, 0, 0, [39, 5, 3, 0, 0])),
        (OpStep::LayerNormAffine, on(1, 0, 0, [0; 5])),
        (OpStep::Linear, on(2, 0, 0, [0; 5])),
        (OpStep::Add, on(2, 3, 0, [7, 0, 0, 0, 0])),
        (OpStep::Hcat, on(4, 2, 0, [3, 0, 0, 0, 0])),
        (OpStep::Sigmoid, on(5, 0, 0, [0; 5])),
        (OpStep::LeafCopy, on(0, 0, 0, [6, 4, 0, 0, 0])),
        (OpStep::LeafRows, on(0, 0, 0, [4, 9, 0, 0, 0])),
        (OpStep::GatherRows, on(6, 0, 0, [8, 7, 2, 0, 0])),
        (OpStep::VcatRows, on(7, 2, 8, [2, 3, 11, 1, 25])),
        (OpStep::AttnBlocks(0.35), on(2, 4, 6, [1, 1, 2, 4, 2])),
        (OpStep::AttnBlocks(0.5), on(10, 10, 10, [0, 0, 0, 1, 1])),
    ];
    program.extend(ACTS.iter().enumerate().map(|(i, &act)| (OpStep::LinearAct(act), on(2 + i, 0, 0, [0; 5]))));
    assert_backends_agree(32, &program).expect("backends agree");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_op_sequences_agree_bit_for_bit_across_backends(
        d in prop::sample::select(vec![4usize, 6, 8, 32]),
        steps in program(14),
    ) {
        assert_backends_agree(d, &steps)?;
    }

    #[test]
    fn executor_arena_is_stable_across_repeated_programs(steps in program(10)) {
        // Rerunning the same program on one executor must not grow the
        // buffer arena after the first pass (amortized zero allocation).
        let mut store = ParamStore::new(7);
        let p = params(&mut store, 8);
        let mut exec = InferExec::new();
        run_program(&mut exec.session(&store), &store, &p, 8, &steps);
        let warm = exec.buffer_count();
        for _ in 0..3 {
            run_program(&mut exec.session(&store), &store, &p, 8, &steps);
        }
        prop_assert_eq!(exec.buffer_count(), warm, "arena grew on a repeated program");
    }
}
