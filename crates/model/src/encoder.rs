//! The shared transformer stack and the two tower forward passes (§4.2).
//!
//! Both towers run the *same* [`TransformerLayer`]s (shared parameters —
//! constructing the encoder once and calling both forwards reuses the
//! same [`taste_nn::ParamId`]s). The metadata tower is plain self-attention; the
//! content tower's layer `i` asymmetrically cross-attends with
//! `Q = content_{i-1}` and `K = V = meta_{i-1} ⊕ content_{i-1}`, where
//! `meta_{i-1}` is the metadata tower's layer-`(i-1)` latent — served
//! from the latent cache at inference time.

use crate::config::ModelConfig;
use taste_nn::modules::{Embedding, TransformerLayer};
use taste_nn::{Forward, NodeId, ParamStore};

/// Shared embedding + transformer layers.
pub struct Encoder {
    /// Token + position embeddings.
    pub emb: Embedding,
    /// Encoder blocks, applied in order by both towers.
    pub layers: Vec<TransformerLayer>,
}

impl Encoder {
    /// Registers encoder parameters under `name.*`.
    ///
    /// # Panics
    /// Panics when `cfg.heads` does not divide `cfg.hidden`.
    pub fn new(store: &mut ParamStore, name: &str, cfg: &ModelConfig, vocab_size: usize) -> Encoder {
        let emb = Embedding::new(store, &format!("{name}.emb"), vocab_size, cfg.hidden, cfg.budget.max_len);
        let layers = (0..cfg.layers)
            .map(|i| TransformerLayer::new(store, &format!("{name}.layer{i}"), cfg.hidden, cfg.heads, cfg.intermediate))
            .collect();
        Encoder { emb, layers }
    }

    /// Metadata-tower forward over B row-stacked sequences: one embedding
    /// gather and one set of projection/FFN/LN passes serve the whole
    /// batch, with attention kept block-diagonal per sequence. Returns
    /// the per-layer *stacked* latents `[Encode_0 (embedding), Encode_1,
    /// ..., Encode_L]`, each `[Σ len_b, hidden]` with sequence `b` at the
    /// row range starting at `Σ_{a<b} len_a` — all of which the latent
    /// cache stores, because content-tower layer `i` consumes
    /// `Encode_{i-1}`. A sequence's rows do not depend on what it is
    /// stacked with.
    pub fn forward_meta<E: Forward + ?Sized>(
        &self,
        ex: &mut E,
        store: &ParamStore,
        seqs: &[&[usize]],
    ) -> Vec<NodeId> {
        let lens: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
        let mut latents = Vec::with_capacity(self.layers.len() + 1);
        let mut x = self.emb.forward(ex, store, seqs);
        latents.push(x);
        for layer in &self.layers {
            x = layer.forward(ex, store, x, x, &lens, &lens);
            latents.push(x);
        }
        latents
    }

    /// Content-tower forward with the asymmetric dependency: `seqs[b]` is
    /// sequence `b`'s content tokens and `meta_latents[b]` its full
    /// `[Encode_0..Encode_L]` metadata latents (from
    /// [`Encoder::forward_meta`] or the cache — each sequence brings its
    /// own, which is why layer `i`'s key/value stack is assembled per
    /// sequence: `Q = content_b`, `K = V = meta_latents[b][i] ⊕
    /// content_b`). Returns the stacked final content latent `Encode_L^D`,
    /// `[Σ len_b, hidden]`, in the row layout of [`Encoder::forward_meta`].
    ///
    /// # Panics
    /// Panics when the batch is empty or any `meta_latents[b]` does not
    /// hold `layers + 1` latents.
    pub fn forward_content<E: Forward + ?Sized>(
        &self,
        ex: &mut E,
        store: &ParamStore,
        seqs: &[&[usize]],
        meta_latents: &[Vec<NodeId>],
    ) -> NodeId {
        assert_eq!(seqs.len(), meta_latents.len(), "one latent vector per sequence");
        assert!(!seqs.is_empty(), "cannot encode an empty batch");
        for m in meta_latents {
            assert_eq!(m.len(), self.layers.len() + 1, "need one metadata latent per layer input");
        }
        let lens: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
        let mut x = self.emb.forward(ex, store, seqs);
        let mut kv_ranges = Vec::with_capacity(2 * seqs.len());
        let mut kv_lens = Vec::with_capacity(seqs.len());
        for (i, layer) in self.layers.iter().enumerate() {
            kv_ranges.clear();
            kv_lens.clear();
            let mut off = 0;
            for (b, &l) in lens.iter().enumerate() {
                let mb = meta_latents[b][i];
                let mrows = ex.value(mb).rows();
                kv_lens.push(mrows + l);
                kv_ranges.push((mb, 0, mrows));
                kv_ranges.push((x, off, l));
                off += l;
            }
            // One copy assembles every sequence's meta ⊕ content stack
            // straight from the source buffers.
            let kv = ex.vcat_rows(&kv_ranges);
            x = layer.forward(ex, store, x, kv, &lens, &kv_lens);
        }
        x
    }

    /// Plain self-attention forward of one sequence returning only the
    /// final latent — the single-tower baselines' and MLM pre-training's
    /// convenience over [`Encoder::forward_meta`].
    pub fn forward_self<E: Forward + ?Sized>(&self, ex: &mut E, store: &ParamStore, tokens: &[usize]) -> NodeId {
        *self
            .forward_meta(ex, store, &[tokens])
            .last()
            .expect("at least the embedding latent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taste_nn::{InferExec, Matrix, Tape};

    fn setup() -> (ParamStore, Encoder, ModelConfig) {
        let cfg = ModelConfig::tiny();
        let mut store = ParamStore::new(5);
        let enc = Encoder::new(&mut store, "enc", &cfg, 50);
        (store, enc, cfg)
    }

    #[test]
    fn meta_forward_produces_layers_plus_one_latents() {
        let (store, enc, cfg) = setup();
        let mut tape = Tape::new();
        let latents = enc.forward_meta(&mut tape, &store, &[&[1, 2, 3, 4]]);
        assert_eq!(latents.len(), cfg.layers + 1);
        for &l in &latents {
            assert_eq!(tape.value(l).shape(), (4, cfg.hidden));
        }
    }

    #[test]
    fn content_forward_keeps_content_length() {
        let (store, enc, cfg) = setup();
        let mut tape = Tape::new();
        let meta = enc.forward_meta(&mut tape, &store, &[&[1, 2, 3, 4, 5]]);
        let out = enc.forward_content(&mut tape, &store, &[&[6, 7, 8]], &[meta]);
        assert_eq!(tape.value(out).shape(), (3, cfg.hidden));
    }

    #[test]
    fn content_forward_accepts_cached_latents_as_leaves() {
        // Simulates P2 with the latent cache: meta latents enter a fresh
        // tape as constants and produce identical content latents.
        let (store, enc, _) = setup();
        let mut tape1 = Tape::new();
        let meta = enc.forward_meta(&mut tape1, &store, &[&[1, 2, 3]]);
        let out_live = enc.forward_content(&mut tape1, &store, &[&[4, 5]], std::slice::from_ref(&meta));
        let live = tape1.value(out_live).clone();

        let cached: Vec<Matrix> = meta.iter().map(|&id| tape1.value(id).clone()).collect();
        let mut tape2 = Tape::new();
        let leaves: Vec<NodeId> = cached.into_iter().map(|m| tape2.leaf(m)).collect();
        let out_cached = enc.forward_content(&mut tape2, &store, &[&[4, 5]], &[leaves]);
        let replayed = tape2.value(out_cached).clone();
        assert_eq!(live, replayed, "cache replay must be bit-identical");
    }

    /// Both towers over `metas[b]` / `contents[b]` on one backend: the
    /// per-layer metadata latents and the final content latent, stacked.
    fn towers<E: Forward + ?Sized>(
        ex: &mut E,
        store: &ParamStore,
        enc: &Encoder,
        metas: &[&[usize]],
        contents: &[&[usize]],
    ) -> (Vec<Matrix>, Matrix) {
        let stacked = enc.forward_meta(ex, store, metas);
        // Each sequence's own latents: row ranges of the stacked ones.
        let mut per_seq: Vec<Vec<NodeId>> = vec![Vec::new(); metas.len()];
        for &l in &stacked {
            let mut off = 0;
            for (b, m) in metas.iter().enumerate() {
                per_seq[b].push(ex.vcat_rows(&[(l, off, m.len())]));
                off += m.len();
            }
        }
        let out = enc.forward_content(ex, store, contents, &per_seq);
        (stacked.iter().map(|&l| ex.value(l).clone()).collect(), ex.value(out).clone())
    }

    #[test]
    fn stacked_towers_equal_batches_of_one_on_both_backends() {
        // N sequences stacked = N batches of one = the tape's composed
        // reference, byte for byte, on the tape and on the executor.
        let (store, enc, _) = setup();
        let metas: [&[usize]; 3] = [&[1, 2, 3], &[9, 8, 7, 6, 5], &[4]];
        let contents: [&[usize]; 3] = [&[4, 5], &[6], &[1, 2, 3, 4]];
        let stack = |ms: &[Matrix]| ms[1..].iter().fold(ms[0].clone(), |acc, m| acc.vcat(m));

        // Reference: one sequence at a time on the tape.
        let solo: Vec<(Vec<Matrix>, Matrix)> = metas
            .iter()
            .zip(&contents)
            .map(|(m, c)| towers(&mut Tape::new(), &store, &enc, &[m], &[c]))
            .collect();
        let want_meta: Vec<Matrix> = (0..solo[0].0.len())
            .map(|i| stack(&solo.iter().map(|(m, _)| m[i].clone()).collect::<Vec<_>>()))
            .collect();
        let want_content = stack(&solo.iter().map(|(_, c)| c.clone()).collect::<Vec<_>>());

        let (meta_t, content_t) = towers(&mut Tape::new(), &store, &enc, &metas, &contents);
        assert_eq!(meta_t, want_meta, "tape, stacked");
        assert_eq!(content_t, want_content, "tape, stacked");

        let mut exec = InferExec::new();
        let (meta_s, content_s) = towers(&mut exec.session(&store), &store, &enc, &metas, &contents);
        assert_eq!(meta_s, want_meta, "session, stacked");
        assert_eq!(content_s, want_content, "session, stacked");
        for (b, (m, c)) in metas.iter().zip(&contents).enumerate() {
            let got = towers(&mut exec.session(&store), &store, &enc, &[m], &[c]);
            assert_eq!(got, solo[b], "session, sequence {b} alone");
        }
    }

    #[test]
    #[should_panic(expected = "metadata latent")]
    fn content_forward_rejects_wrong_latent_count() {
        let (store, enc, _) = setup();
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(2, 16));
        let _ = enc.forward_content(&mut tape, &store, &[&[1]], &[vec![x]]);
    }

    #[test]
    fn towers_share_parameters() {
        // Parameter count must not grow when using both towers: a second
        // encoder would double it; the shared one must not.
        let cfg = ModelConfig::tiny();
        let mut store = ParamStore::new(5);
        let before = store.len();
        let _enc = Encoder::new(&mut store, "enc", &cfg, 50);
        let per_encoder = store.len() - before;
        // forward passes register nothing new.
        assert!(per_encoder > 0);
        assert_eq!(store.len(), before + per_encoder);
    }

    #[test]
    fn forward_self_equals_last_meta_latent() {
        let (store, enc, _) = setup();
        let mut tape = Tape::new();
        let latents = enc.forward_meta(&mut tape, &store, &[&[9, 8, 7]]);
        let mut tape2 = Tape::new();
        let out = enc.forward_self(&mut tape2, &store, &[9, 8, 7]);
        assert_eq!(tape.value(*latents.last().unwrap()), tape2.value(out));
    }
}
