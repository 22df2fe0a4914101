//! Neural network modules: Linear, LayerNorm, Embedding, multi-head
//! (cross-)attention, feed-forward, and post-LN transformer encoder layers.
//!
//! A module owns [`ParamId`]s registered in a [`ParamStore`] at build time
//! and replays its computation onto any [`Forward`] backend at call time —
//! the recording [`crate::tape::Tape`] when training, the tape-free
//! [`crate::exec::InferExec`] when serving. Two modules constructed over
//! the *same* parameter ids share weights — exactly how the ADTD metadata
//! and content towers share their transformer blocks.

use crate::exec::Forward;
use crate::kernels::Act;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::tape::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Affine map `x @ W + b` with `W: [in, out]`, `b: [1, out]`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix id.
    pub w: ParamId,
    /// Bias row id.
    pub b: ParamId,
}

impl Linear {
    /// Registers a Xavier-initialized linear layer.
    pub fn new(store: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize) -> Linear {
        Linear {
            w: store.xavier(&format!("{name}.w"), in_dim, out_dim),
            b: store.constant(&format!("{name}.b"), 1, out_dim, 0.0),
        }
    }

    /// Applies the layer to a `[m, in]` node, producing `[m, out]`.
    ///
    /// Goes through [`Forward::linear`], so the serving backend runs its
    /// fused packed matmul+bias kernel while the tape records the usual
    /// `param/matmul/add_row` sequence.
    pub fn forward<E: Forward + ?Sized>(&self, ex: &mut E, store: &ParamStore, x: NodeId) -> NodeId {
        ex.linear(store, x, self.w, self.b)
    }

    /// `act(x @ W + b)` — fused on backends that support it.
    pub fn forward_act<E: Forward + ?Sized>(
        &self,
        ex: &mut E,
        store: &ParamStore,
        x: NodeId,
        act: Act,
    ) -> NodeId {
        ex.linear_act(store, x, self.w, self.b, act)
    }
}

/// Row-wise layer normalization with learned gain and bias.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LayerNorm {
    /// Gain row id (initialized to 1).
    pub gain: ParamId,
    /// Bias row id (initialized to 0).
    pub bias: ParamId,
    /// Numerical stabilizer added to the variance.
    pub eps: f32,
}

impl LayerNorm {
    /// Registers a layer-norm over `dim` features.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> LayerNorm {
        LayerNorm {
            gain: store.constant(&format!("{name}.gain"), 1, dim, 1.0),
            bias: store.constant(&format!("{name}.bias"), 1, dim, 0.0),
            eps: 1e-5,
        }
    }

    /// Applies normalization + affine to a `[m, dim]` node via
    /// [`Forward::layer_norm_affine`] (single fused pass when serving).
    pub fn forward<E: Forward + ?Sized>(&self, ex: &mut E, store: &ParamStore, x: NodeId) -> NodeId {
        ex.layer_norm_affine(store, x, self.gain, self.bias, self.eps)
    }
}

/// Token embedding table with additive learned position embeddings.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Embedding {
    /// `[vocab, dim]` token table id.
    pub table: ParamId,
    /// `[max_len, dim]` position table id.
    pub positions: ParamId,
    /// Maximum supported sequence length.
    pub max_len: usize,
}

impl Embedding {
    /// Registers token + position embeddings.
    pub fn new(store: &mut ParamStore, name: &str, vocab: usize, dim: usize, max_len: usize) -> Embedding {
        Embedding {
            table: store.normal(&format!("{name}.tok"), vocab, dim, 0.02),
            positions: store.normal(&format!("{name}.pos"), max_len, dim, 0.02),
            max_len,
        }
    }

    /// Embeds a batch of token sequences row-stacked into one
    /// `[Σ len_i, dim]` node. Position indices restart at 0 for every
    /// sequence, so a sequence's rows do not depend on what it is
    /// stacked with.
    ///
    /// # Panics
    /// Panics when the batch is empty or any sequence exceeds `max_len`.
    pub fn forward<E: Forward + ?Sized>(&self, ex: &mut E, store: &ParamStore, seqs: &[&[usize]]) -> NodeId {
        assert!(!seqs.is_empty(), "cannot embed an empty batch");
        let total: usize = seqs.iter().map(|s| s.len()).sum();
        let mut tok_idx = Vec::with_capacity(total);
        let mut pos_idx = Vec::with_capacity(total);
        for seq in seqs {
            assert!(
                seq.len() <= self.max_len,
                "sequence length {} exceeds max_len {}",
                seq.len(),
                self.max_len
            );
            tok_idx.extend_from_slice(seq);
            pos_idx.extend(0..seq.len());
        }
        let tok = ex.gather_param_rows(store, self.table, &tok_idx);
        let pos = ex.gather_param_rows(store, self.positions, &pos_idx);
        ex.add(tok, pos)
    }
}

/// Multi-head scaled-dot-product attention supporting distinct query and
/// key/value inputs — the primitive behind both self-attention (metadata
/// tower) and the paper's asymmetric cross-attention (content tower, where
/// `Q = content` and `K = V = meta ⊕ content`).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MultiHeadAttention {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    /// Number of attention heads; must divide the hidden size.
    pub heads: usize,
    /// Hidden size.
    pub dim: usize,
}

impl MultiHeadAttention {
    /// Registers the four projections.
    ///
    /// # Panics
    /// Panics when `heads` does not divide `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, heads: usize) -> MultiHeadAttention {
        assert_eq!(dim % heads, 0, "heads {heads} must divide dim {dim}");
        MultiHeadAttention {
            wq: Linear::new(store, &format!("{name}.q"), dim, dim),
            wk: Linear::new(store, &format!("{name}.k"), dim, dim),
            wv: Linear::new(store, &format!("{name}.v"), dim, dim),
            wo: Linear::new(store, &format!("{name}.o"), dim, dim),
            heads,
            dim,
        }
    }

    /// Block-diagonal attention over B row-stacked sequences.
    ///
    /// `q_in` is `[Σ q_lens, dim]`, `kv_in` is `[Σ kv_lens, dim]`;
    /// sequence `b`'s queries attend only to sequence `b`'s keys/values
    /// (self-attention passes the same node and lengths twice; one
    /// sequence is a batch of one). The Q/K/V/output projections are
    /// row-wise, so they run as single matmuls over the whole stack —
    /// that is where batching earns its throughput. Only the
    /// score/softmax/value products are taken per sequence (attention is
    /// the one op that mixes rows), via [`Forward::attn_blocks`], so a
    /// sequence's output rows do not depend on what it is stacked with.
    ///
    /// # Panics
    /// Panics when the batch is empty or the length vectors disagree.
    pub fn forward<E: Forward + ?Sized>(
        &self,
        ex: &mut E,
        store: &ParamStore,
        q_in: NodeId,
        kv_in: NodeId,
        q_lens: &[usize],
        kv_lens: &[usize],
    ) -> NodeId {
        let dh = self.dim / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let q = self.wq.forward(ex, store, q_in);
        let k = self.wk.forward(ex, store, kv_in);
        let v = self.wv.forward(ex, store, kv_in);
        let ctx = ex.attn_blocks(q, k, v, q_lens, kv_lens, self.heads, scale);
        self.wo.forward(ex, store, ctx)
    }
}

/// Position-wise feed-forward network: `GELU(x W1 + b1) W2 + b2`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FeedForward {
    /// Expansion layer (`dim -> intermediate`).
    pub lin1: Linear,
    /// Contraction layer (`intermediate -> dim`).
    pub lin2: Linear,
}

impl FeedForward {
    /// Registers a two-layer FFN with intermediate size `inter`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, inter: usize) -> FeedForward {
        FeedForward {
            lin1: Linear::new(store, &format!("{name}.ff1"), dim, inter),
            lin2: Linear::new(store, &format!("{name}.ff2"), inter, dim),
        }
    }

    /// Applies the FFN to `[m, dim]`. The expansion layer and its GELU go
    /// through the fused [`Forward::linear_act`].
    pub fn forward<E: Forward + ?Sized>(&self, ex: &mut E, store: &ParamStore, x: NodeId) -> NodeId {
        let a = self.lin1.forward_act(ex, store, x, Act::Gelu);
        self.lin2.forward(ex, store, a)
    }
}

/// One post-LN transformer encoder block:
/// `x = LN(x + Attn(x)); x = LN(x + FFN(x))` — the `T_i(Q, K, V)` of §4.2.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TransformerLayer {
    /// Attention sublayer.
    pub attn: MultiHeadAttention,
    /// Post-attention layer norm.
    pub ln1: LayerNorm,
    /// Feed-forward sublayer.
    pub ffn: FeedForward,
    /// Post-FFN layer norm.
    pub ln2: LayerNorm,
}

impl TransformerLayer {
    /// Registers one encoder block.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, heads: usize, inter: usize) -> TransformerLayer {
        TransformerLayer {
            attn: MultiHeadAttention::new(store, &format!("{name}.attn"), dim, heads),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            ffn: FeedForward::new(store, &format!("{name}.ffn"), dim, inter),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
        }
    }

    /// The block over B row-stacked sequences with distinct query and
    /// key/value streams; the residual is taken on the *query* stream, so
    /// the output keeps the query stack's layout. Attention is
    /// block-diagonal per sequence ([`MultiHeadAttention::forward`]);
    /// the residuals, layer norms and FFN — all row-wise — run as single
    /// passes over the whole `[Σ q_lens, dim]` stack. Self-attention
    /// passes the same node and lengths twice.
    pub fn forward<E: Forward + ?Sized>(
        &self,
        ex: &mut E,
        store: &ParamStore,
        q_in: NodeId,
        kv_in: NodeId,
        q_lens: &[usize],
        kv_lens: &[usize],
    ) -> NodeId {
        let attn_out = self.attn.forward(ex, store, q_in, kv_in, q_lens, kv_lens);
        let res1 = ex.add(q_in, attn_out);
        let x = self.ln1.forward(ex, store, res1);
        let ffn_out = self.ffn.forward(ex, store, x);
        let res2 = ex.add(x, ffn_out);
        self.ln2.forward(ex, store, res2)
    }
}

/// Inverted-dropout mask generator: each element is `0` with probability
/// `p`, otherwise `1/(1-p)`, so the expectation is identity. Returns
/// `None` when `p == 0` (no-op).
pub fn dropout_mask(rng: &mut impl Rng, rows: usize, cols: usize, p: f32) -> Option<Matrix> {
    if p <= 0.0 {
        return None;
    }
    assert!(p < 1.0, "dropout probability must be < 1");
    let keep = 1.0 / (1.0 - p);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = if rng.gen::<f32>() < p { 0.0 } else { keep };
    }
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::InferExec;
    use crate::tape::Tape;
    use rand::SeedableRng;

    fn store() -> ParamStore {
        ParamStore::new(99)
    }

    #[test]
    fn linear_output_shape_and_bias() {
        let mut s = store();
        let lin = Linear::new(&mut s, "l", 3, 5);
        // Force recognizable weights.
        *s.value_mut(lin.w) = Matrix::zeros(3, 5);
        *s.value_mut(lin.b) = Matrix::full(1, 5, 2.0);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(4, 3));
        let y = lin.forward(&mut t, &s, x);
        assert_eq!(t.value(y).shape(), (4, 5));
        assert!(t.value(y).as_slice().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut s = store();
        let ln = LayerNorm::new(&mut s, "ln", 4);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(2, 4, vec![1., 2., 3., 4., 10., 10., 10., 10.]));
        let y = ln.forward(&mut t, &s, x);
        let out = t.value(y);
        // With unit gain / zero bias: each row has ~zero mean, ~unit var.
        let row0: f32 = out.row_slice(0).iter().sum();
        assert!(row0.abs() < 1e-4);
        // Constant row normalizes to zeros (variance ~ 0 guarded by eps).
        assert!(out.row_slice(1).iter().all(|v| v.abs() < 1e-2));
    }

    #[test]
    fn embedding_adds_positions_and_respects_max_len() {
        let mut s = store();
        let emb = Embedding::new(&mut s, "e", 10, 8, 16);
        let mut t = Tape::new();
        let x = emb.forward(&mut t, &s, &[&[1, 2, 1]]);
        assert_eq!(t.value(x).shape(), (3, 8));
        // Token 1 at positions 0 and 2 must differ (position embeddings).
        let v = t.value(x);
        assert_ne!(v.row_slice(0), v.row_slice(2));
    }

    #[test]
    #[should_panic(expected = "exceeds max_len")]
    fn embedding_rejects_overlong_sequences() {
        let mut s = store();
        let emb = Embedding::new(&mut s, "e", 10, 4, 2);
        let mut t = Tape::new();
        let _ = emb.forward(&mut t, &s, &[&[0, 1, 2]]);
    }

    #[test]
    fn mha_self_attention_shape() {
        let mut s = store();
        let mha = MultiHeadAttention::new(&mut s, "a", 8, 2);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(5, 8, 0.1));
        let y = mha.forward(&mut t, &s, x, x, &[5], &[5]);
        assert_eq!(t.value(y).shape(), (5, 8));
    }

    #[test]
    fn mha_cross_attention_keeps_query_length() {
        let mut s = store();
        let mha = MultiHeadAttention::new(&mut s, "a", 8, 4);
        let mut t = Tape::new();
        let q = t.leaf(Matrix::full(3, 8, 0.1));
        let kv = t.leaf(Matrix::full(7, 8, -0.2));
        let y = mha.forward(&mut t, &s, q, kv, &[3], &[7]);
        assert_eq!(t.value(y).shape(), (3, 8));
    }

    /// The per-head loop `MultiHeadAttention::forward` ran before it
    /// became a one-block `attn_blocks` call — the oracle for it, written
    /// in the tape's own primitives.
    fn per_head_attention(mha: &MultiHeadAttention, t: &mut Tape, store: &ParamStore, q_in: NodeId, kv_in: NodeId) -> NodeId {
        let dh = mha.dim / mha.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let q = mha.wq.forward(t, store, q_in);
        let k = mha.wk.forward(t, store, kv_in);
        let v = mha.wv.forward(t, store, kv_in);
        let mut merged: Option<NodeId> = None;
        for h in 0..mha.heads {
            let qh = t.slice_cols(q, h * dh, dh);
            let kh = t.slice_cols(k, h * dh, dh);
            let vh = t.slice_cols(v, h * dh, dh);
            let kt = t.transpose(kh);
            let scores = t.matmul(qh, kt);
            let scaled = t.scale(scores, scale);
            let attn = t.softmax_rows(scaled);
            let out = t.matmul(attn, vh);
            merged = Some(match merged {
                Some(prev) => t.hcat(prev, out),
                None => out,
            });
        }
        mha.wo.forward(t, store, merged.expect("at least one head"))
    }

    #[test]
    fn mha_forward_on_tape_equals_per_head_loop_in_values_gradients_and_ops() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        // Self-attention (one node feeds both streams) and cross-attention
        // with Lq != Lkv.
        for (lq, lkv) in [(5usize, 5usize), (3, 7)] {
            let mut s = store();
            let mha = MultiHeadAttention::new(&mut s, "a", 12, 3);
            let mk = |rows: usize, seed: f32| Matrix::from_vec(rows, 12, (0..rows * 12).map(|i| (i as f32 * seed).sin()).collect());
            let (q_val, kv_val) = (mk(lq, 0.37), mk(lkv, 0.53));
            let mut run = |oracle: bool| {
                let mut t = Tape::new();
                let q = t.leaf(q_val.clone());
                let kv = if lq == lkv { q } else { t.leaf(kv_val.clone()) };
                let y = if oracle { per_head_attention(&mha, &mut t, &s, q, kv) } else { mha.forward(&mut t, &s, q, kv, &[lq], &[lkv]) };
                let sq = t.square(y);
                let loss = t.sum(sq);
                t.backward(loss);
                s.zero_grads();
                t.accumulate_param_grads(&mut s);
                let grads: Vec<Vec<u32>> = s.ids().map(|id| bits(&s.grad(id))).collect();
                (bits(t.value(y)), grads, t.len())
            };
            let (want_y, want_grads, want_ops) = run(true);
            let (got_y, got_grads, got_ops) = run(false);
            assert_eq!(got_y, want_y, "forward values, Lq={lq} Lkv={lkv}");
            assert_eq!(got_grads, want_grads, "parameter gradients, Lq={lq} Lkv={lkv}");
            assert_eq!(got_ops, want_ops, "tape nodes recorded, Lq={lq} Lkv={lkv}");
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn mha_rejects_indivisible_heads() {
        let mut s = store();
        let _ = MultiHeadAttention::new(&mut s, "a", 10, 3);
    }

    #[test]
    fn transformer_layer_trains_end_to_end() {
        // Gradient descent on a toy regression must drive the loss down:
        // exercises attention, layernorm, FFN forward + backward together.
        // The claim is a loss *ratio* after enough small steps, over
        // several init seeds — whether a single step at a fixed rate
        // overshoots depends on the draw, which is a property of the RNG
        // stream, not of the layer. (Forty seeds all fall below 1e-8.)
        let input = Matrix::full(4, 8, 0.3);
        let target = Matrix::full(4, 1, 1.0);
        const STEPS: usize = 40;
        const LR: f32 = 0.002;
        for seed in [99u64, 1, 2, 3, 4] {
            let mut s = ParamStore::new(seed);
            let layer = TransformerLayer::new(&mut s, "t0", 8, 2, 16);
            let head = Linear::new(&mut s, "head", 8, 1);
            // Builds the loss on a fresh tape; returns the tape and node.
            let loss_on = |s: &ParamStore| {
                let mut t = Tape::new();
                let x = t.leaf(input.clone());
                let enc = layer.forward(&mut t, s, x, x, &[4], &[4]);
                let pred = head.forward(&mut t, s, enc);
                let tgt = t.leaf(target.clone());
                let neg = t.scale(tgt, -1.0);
                let diff = t.add(pred, neg);
                let sq = t.square(diff);
                let l = t.sum(sq);
                (t, l)
            };
            let loss_of = |s: &ParamStore| {
                let (t, l) = loss_on(s);
                t.value(l).item()
            };

            let before = loss_of(&s);
            let ids: Vec<_> = s.ids().collect();
            for _ in 0..STEPS {
                let (mut t, l) = loss_on(&s);
                t.backward(l);
                s.zero_grads();
                t.accumulate_param_grads(&mut s);
                for &id in &ids {
                    let g = s.grad(id);
                    s.value_mut(id).axpy(-LR, &g);
                }
            }
            let after = loss_of(&s);
            assert!(after < 0.1 * before, "seed {seed}: loss did not fall tenfold: {before} -> {after}");
        }
    }

    #[test]
    fn shared_layer_between_two_towers_gets_grads_from_both() {
        // Mimics ADTD parameter sharing: the same TransformerLayer runs in
        // a "metadata" pass and a "content" pass of one tape; parameter
        // grads must reflect both passes.
        let mut s = store();
        let layer = TransformerLayer::new(&mut s, "shared", 4, 2, 8);
        let mut t = Tape::new();
        let meta = t.leaf(Matrix::full(2, 4, 0.5));
        let content = t.leaf(Matrix::full(3, 4, -0.5));
        let meta_out = layer.forward(&mut t, &s, meta, meta, &[2], &[2]);
        let kv = t.vcat(meta_out, content);
        let content_out = layer.forward(&mut t, &s, content, kv, &[3], &[5]);
        let s1 = t.square(meta_out);
        let s2 = t.square(content_out);
        let l1 = t.sum(s1);
        let l2 = t.sum(s2);
        let total = t.add(l1, l2);
        let loss = t.sum(total);
        t.backward(loss);
        t.accumulate_param_grads(&mut s);
        let gnorm = s.grad_global_norm();
        assert!(gnorm > 0.0 && gnorm.is_finite());
    }

    #[test]
    fn transformer_layer_agrees_across_backends() {
        // The same block, replayed on the tape and on the tape-free
        // executor, must produce identical outputs (shared kernels).
        let mut s = store();
        let layer = TransformerLayer::new(&mut s, "t0", 8, 2, 16);
        let input = Matrix::from_vec(
            3,
            8,
            (0..24).map(|i| (i as f32 * 0.37).sin()).collect(),
        );

        let mut t = Tape::new();
        let xt = t.leaf(input.clone());
        let yt = layer.forward(&mut t, &s, xt, xt, &[3], &[3]);
        let taped = t.value(yt).clone();

        let mut exec = InferExec::new();
        let mut sess = exec.session(&s);
        let xs = sess.leaf_copy(&input);
        let ys = layer.forward(&mut sess, &s, xs, xs, &[3], &[3]);
        assert_eq!(sess.value(ys), &taped);
    }

    #[test]
    fn stacked_embedding_matches_batches_of_one() {
        let mut s = store();
        let emb = Embedding::new(&mut s, "e", 12, 8, 16);
        let seqs: [&[usize]; 3] = [&[1, 2, 3], &[4, 5], &[1, 2, 3, 4, 5, 6]];
        let mut t = Tape::new();
        let stacked = emb.forward(&mut t, &s, &seqs);
        let mut off = 0;
        for seq in seqs {
            let mut t2 = Tape::new();
            let solo = emb.forward(&mut t2, &s, &[seq]);
            for r in 0..seq.len() {
                assert_eq!(
                    t.value(stacked).row_slice(off + r),
                    t2.value(solo).row_slice(r),
                    "embedding row diverged"
                );
            }
            off += seq.len();
        }
    }

    #[test]
    fn stacked_transformer_layer_equals_batches_of_one_on_both_backends() {
        // Variable-length sequences, distinct q/kv lengths (the content
        // tower's cross-attention shape), threaded kernels: N sequences
        // stacked = N batches of one = the tape's composed reference,
        // row for row, exactly.
        let mut s = store();
        let layer = TransformerLayer::new(&mut s, "t0", 8, 2, 16);
        let q_lens = [3usize, 5, 2];
        let kv_lens = [7usize, 6, 9];
        let mk = |rows: usize, seed: f32| {
            Matrix::from_vec(rows, 8, (0..rows * 8).map(|i| (i as f32 * seed).sin()).collect())
        };
        let qs: Vec<Matrix> = q_lens.iter().enumerate().map(|(i, &l)| mk(l, 0.31 + i as f32 * 0.11)).collect();
        let kvs: Vec<Matrix> = kv_lens.iter().enumerate().map(|(i, &l)| mk(l, 0.17 + i as f32 * 0.07)).collect();
        let stack = |ms: &[Matrix]| ms[1..].iter().fold(ms[0].clone(), |acc, m| acc.vcat(m));
        let (q_stack, kv_stack) = (stack(&qs), stack(&kvs));

        // Reference: each sequence alone through the tape's compositions.
        let mut want: Vec<Matrix> = Vec::new();
        for (q, kv) in qs.iter().zip(&kvs) {
            let mut t = Tape::new();
            let qn = t.leaf(q.clone());
            let kvn = t.leaf(kv.clone());
            let y = layer.forward(&mut t, &s, qn, kvn, &[q.rows()], &[kv.rows()]);
            want.push(t.value(y).clone());
        }
        let want_stack = stack(&want);

        let mut t = Tape::new();
        let (qn, kvn) = (t.leaf(q_stack.clone()), t.leaf(kv_stack.clone()));
        let y = layer.forward(&mut t, &s, qn, kvn, &q_lens, &kv_lens);
        assert_eq!(t.value(y), &want_stack, "tape, stacked");

        for threads in [1usize, 4] {
            let mut exec = InferExec::with_kernel_threads(threads);
            let mut sess = exec.session(&s);
            let (qn, kvn) = (sess.leaf_copy(&q_stack), sess.leaf_copy(&kv_stack));
            let y = layer.forward(&mut sess, &s, qn, kvn, &q_lens, &kv_lens);
            assert_eq!(sess.value(y), &want_stack, "session, stacked, threads {threads}");
            for (b, (q, kv)) in qs.iter().zip(&kvs).enumerate() {
                let mut sess = exec.session(&s);
                let (qn, kvn) = (sess.leaf_copy(q), sess.leaf_copy(kv));
                let y = layer.forward(&mut sess, &s, qn, kvn, &[q.rows()], &[kv.rows()]);
                assert_eq!(sess.value(y), &want[b], "session, seq {b} alone, threads {threads}");
            }
        }
    }

    #[test]
    fn dropout_mask_statistics_and_noop() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        assert!(dropout_mask(&mut rng, 10, 10, 0.0).is_none());
        let m = dropout_mask(&mut rng, 100, 100, 0.25).unwrap();
        let zeros = m.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.03, "dropout rate {frac}");
        let keep = 1.0 / 0.75;
        assert!(m.as_slice().iter().all(|&v| v == 0.0 || (v - keep).abs() < 1e-6));
    }
}
