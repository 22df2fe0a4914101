//! Stacking parity: B sequences row-stacked through `Embedding::forward`
//! / `TransformerLayer::forward` / `MultiHeadAttention::forward` must be
//! **bit-identical** to B batches of one, and both to the `Tape`'s
//! composed reference, for any random batch and at every kernel thread
//! width. This is the contract the serving-side micro-batcher leans on —
//! what a chunk is batched with may change throughput, never verdicts.
//!
//! Comparisons are exact (`==` on the f32 payload), not tolerance-based:
//! stacking only reorders *rows*, never the reduction order inside a
//! row, and threaded kernels partition by row too.

use proptest::prelude::*;
use taste_nn::modules::{Embedding, MultiHeadAttention, TransformerLayer};
use taste_nn::{Forward, InferExec, Matrix, ParamStore, Tape};

const DIM: usize = 8;
const HEADS: usize = 2;
const VOCAB: usize = 32;
const MAX_LEN: usize = 12;

/// A random batch: per-sequence token ids, 1..=8 sequences of 1..=6 tokens.
fn batch_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..VOCAB, 1..=6), 1..=8)
}

/// Row-stacks per-sequence results.
fn stack(parts: &[Matrix]) -> Matrix {
    parts[1..].iter().fold(parts[0].clone(), |acc, m| acc.vcat(m))
}

/// Embedding, then one self-attention encoder block, over `seqs`.
fn embed_and_encode<E: Forward + ?Sized>(
    ex: &mut E,
    store: &ParamStore,
    emb: &Embedding,
    layer: &TransformerLayer,
    seqs: &[&[usize]],
) -> (Matrix, Matrix) {
    let lens: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
    let e = emb.forward(ex, store, seqs);
    let x = layer.forward(ex, store, e, e, &lens, &lens);
    (ex.value(e).clone(), ex.value(x).clone())
}

/// Cross-attention with queries from `qs` and keys/values from `kvs`.
fn cross_attend<E: Forward + ?Sized>(
    ex: &mut E,
    store: &ParamStore,
    emb: &Embedding,
    attn: &MultiHeadAttention,
    qs: &[&[usize]],
    kvs: &[&[usize]],
) -> Matrix {
    let q_lens: Vec<usize> = qs.iter().map(|s| s.len()).collect();
    let kv_lens: Vec<usize> = kvs.iter().map(|s| s.len()).collect();
    let q = emb.forward(ex, store, qs);
    let kv = emb.forward(ex, store, kvs);
    let out = attn.forward(ex, store, q, kv, &q_lens, &kv_lens);
    ex.value(out).clone()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn embedding_and_layer_stacked_match_batches_of_one(seqs in batch_strategy()) {
        let mut store = ParamStore::new(17);
        let emb = Embedding::new(&mut store, "emb", VOCAB, DIM, MAX_LEN);
        let layer = TransformerLayer::new(&mut store, "layer", DIM, HEADS, DIM * 2);
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();

        // The reference: each sequence alone through the tape's compositions.
        let solo: Vec<(Matrix, Matrix)> =
            refs.iter().map(|&s| embed_and_encode(&mut Tape::new(), &store, &emb, &layer, &[s])).collect();
        let want_emb = stack(&solo.iter().map(|(e, _)| e.clone()).collect::<Vec<_>>());
        let want_enc = stack(&solo.iter().map(|(_, x)| x.clone()).collect::<Vec<_>>());

        let (emb_t, enc_t) = embed_and_encode(&mut Tape::new(), &store, &emb, &layer, &refs);
        prop_assert_eq!(&emb_t, &want_emb, "tape, stacked: embedding rows diverged");
        prop_assert_eq!(&enc_t, &want_enc, "tape, stacked: encoder rows diverged");

        for threads in [1usize, 4] {
            let mut exec = InferExec::with_kernel_threads(threads);
            let (emb_s, enc_s) = embed_and_encode(&mut exec.session(&store), &store, &emb, &layer, &refs);
            prop_assert_eq!(&emb_s, &want_emb, "session, stacked: embedding rows diverged (threads={})", threads);
            prop_assert_eq!(&enc_s, &want_enc, "session, stacked: encoder rows diverged (threads={})", threads);
            for (&seq, want) in refs.iter().zip(&solo) {
                let got = embed_and_encode(&mut exec.session(&store), &store, &emb, &layer, &[seq]);
                prop_assert_eq!(&got, want, "session, one sequence alone (threads={})", threads);
            }
        }
    }

    #[test]
    fn cross_attention_stacked_matches_batches_of_one(
        pairs in prop::collection::vec(
            (prop::collection::vec(0usize..VOCAB, 1..=4), prop::collection::vec(0usize..VOCAB, 1..=6)),
            1..=6,
        ),
    ) {
        // The asymmetric content-tower case: Q comes from one stream,
        // K/V from another, with per-pair lengths that disagree.
        let mut store = ParamStore::new(23);
        let emb = Embedding::new(&mut store, "emb", VOCAB, DIM, MAX_LEN);
        let attn = MultiHeadAttention::new(&mut store, "xattn", DIM, HEADS);
        let q_refs: Vec<&[usize]> = pairs.iter().map(|(q, _)| q.as_slice()).collect();
        let kv_refs: Vec<&[usize]> = pairs.iter().map(|(_, kv)| kv.as_slice()).collect();

        let solo: Vec<Matrix> = q_refs
            .iter()
            .zip(&kv_refs)
            .map(|(&q, &kv)| cross_attend(&mut Tape::new(), &store, &emb, &attn, &[q], &[kv]))
            .collect();
        let want = stack(&solo);
        prop_assert_eq!(&cross_attend(&mut Tape::new(), &store, &emb, &attn, &q_refs, &kv_refs), &want, "tape, stacked");

        for threads in [1usize, 4] {
            let mut exec = InferExec::with_kernel_threads(threads);
            let got = cross_attend(&mut exec.session(&store), &store, &emb, &attn, &q_refs, &kv_refs);
            prop_assert_eq!(&got, &want, "session, stacked (threads={})", threads);
            for ((&q, &kv), want) in q_refs.iter().zip(&kv_refs).zip(&solo) {
                let got = cross_attend(&mut exec.session(&store), &store, &emb, &attn, &[q], &[kv]);
                prop_assert_eq!(&got, want, "session, one pair alone (threads={})", threads);
            }
        }
    }
}
