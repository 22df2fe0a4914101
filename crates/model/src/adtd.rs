//! The Asymmetric Double-Tower Detection model (§4).
//!
//! One [`Adtd`] owns a single parameter store holding: the shared
//! encoder (both towers reuse its [`taste_nn::ParamId`]s), the metadata
//! classifier head (`f1(c) = Classify_meta(Encode_L^M ⊕ M_n^c)`), the
//! content classifier head
//! (`f2(c) = Classify_cont(Encode_L^D ⊕ Encode_L^M ⊕ M_n^c)`), and the
//! learnable automatic-weighted-loss weights. P1 serves with only the
//! metadata tower ([`Adtd::encode_meta`] + [`Adtd::predict_meta`]); P2
//! serves with the full model, feeding cached metadata latents into the
//! content tower ([`Adtd::predict_content`]).
//!
//! Those three inference entry points each have one body, over a ragged
//! batch of chunks drawn from any number of tables — one chunk is a
//! batch of one. They are generic over [`Forward`], the only seam between
//! model code and execution. Serving reaches them through
//! [`crate::Inferencer`], which owns the tape-free executor; the
//! recording [`Tape`] runs the same code in the parity tests, and
//! [`Adtd::forward_train`] drives the same encoder body in training.

use crate::cache::CachedMeta;
use crate::config::ModelConfig;
use crate::encoder::Encoder;
use crate::features::NONMETA_DIM;
use crate::prepare::{ModelInput, TableChunk};
use taste_nn::losses::AutomaticWeightedLoss;
use taste_nn::modules::{dropout_mask, Linear};
use taste_nn::{Act, Forward, Matrix, NodeId, ParamStore, Tape};
use taste_tokenizer::{ColumnContent, PackedContent, PackedMeta, Packer, Tokenizer};

/// Alias: the output of a metadata-tower pass is exactly what the latent
/// cache stores.
pub type MetaEncoding = CachedMeta;

/// One chunk's entry in a P2 micro-batch: its cached metadata encoding,
/// per-column content (`None` = metadata-only column), and non-meta
/// feature rows.
pub type ContentBatchItem<'a> = (&'a MetaEncoding, &'a [Option<ColumnContent>], &'a [Vec<f32>]);

/// A two-layer classifier head: `sigmoid(W2 · ReLU(W1 x + b1) + b2)`
/// (probabilities are produced by the caller; the head emits logits).
#[derive(Debug, Clone, Copy)]
pub struct Head {
    l1: Linear,
    l2: Linear,
}

impl Head {
    pub(crate) fn new(store: &mut ParamStore, name: &str, in_dim: usize, hidden: usize, out_dim: usize) -> Head {
        Head {
            l1: Linear::new(store, &format!("{name}.h1"), in_dim, hidden),
            l2: Linear::new(store, &format!("{name}.h2"), hidden, out_dim),
        }
    }

    pub(crate) fn forward<E: Forward + ?Sized>(&self, ex: &mut E, store: &ParamStore, x: NodeId) -> NodeId {
        let h = self.l1.forward_act(ex, store, x, Act::Relu);
        self.l2.forward(ex, store, h)
    }

    /// The two affine layers `(hidden, output)` of the head.
    pub fn layers(&self) -> (Linear, Linear) {
        (self.l1, self.l2)
    }

    /// Rebuilds a head from explicit layers (type-set extension).
    pub fn from_parts(l1: Linear, l2: Linear) -> Head {
        Head { l1, l2 }
    }
}

/// Everything the training loop needs from one forward pass.
pub struct TrainForward {
    /// Metadata-tower logits, `[ncols, ntypes]`.
    pub meta_logits: NodeId,
    /// Content-tower logits, `[k, ntypes]` over `content_cols`.
    pub content_logits: Option<NodeId>,
    /// Column indices (within the chunk) covered by `content_logits`.
    pub content_cols: Vec<usize>,
}

/// The ADTD model.
pub struct Adtd {
    /// Hyperparameters.
    pub cfg: ModelConfig,
    /// Classifier output width (number of semantic types incl. `null`).
    pub ntypes: usize,
    /// All trainable parameters.
    pub store: ParamStore,
    /// Shared two-tower encoder.
    pub encoder: Encoder,
    /// The automatic weighted loss combiner (§4.4).
    pub awl: AutomaticWeightedLoss,
    meta_head: Head,
    content_head: Head,
    tokenizer: Tokenizer,
    packer: Packer,
}

impl Adtd {
    /// Builds a fresh (untrained) model around a frozen tokenizer.
    pub fn new(cfg: ModelConfig, tokenizer: Tokenizer, ntypes: usize, seed: u64) -> Adtd {
        let mut store = ParamStore::new(seed);
        let encoder = Encoder::new(&mut store, "enc", &cfg, tokenizer.vocab().len());
        let meta_head = Head::new(&mut store, "meta_head", cfg.hidden + NONMETA_DIM, cfg.meta_head_hidden, ntypes);
        let content_head = Head::new(
            &mut store,
            "content_head",
            2 * cfg.hidden + NONMETA_DIM,
            cfg.content_head_hidden,
            ntypes,
        );
        let awl = AutomaticWeightedLoss::new(&mut store, "awl", 2);
        let packer = Packer::new(cfg.budget);
        Adtd { cfg, ntypes, store, encoder, awl, meta_head, content_head, tokenizer, packer }
    }

    /// The model's tokenizer (vocabulary is part of the model artifact).
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Packs a chunk's metadata sequence.
    pub fn pack_meta(&self, chunk: &TableChunk) -> PackedMeta {
        self.packer.pack_meta(&self.tokenizer, &chunk.table_text, &chunk.col_texts)
    }

    /// Packs column contents (columns to scan are `Some`).
    pub fn pack_content(&self, contents: &[Option<ColumnContent>]) -> PackedContent {
        self.packer.pack_content(&self.tokenizer, contents)
    }

    // ---- inference entry points --------------------------------------
    //
    // The unit of inference is a batch of chunks, from one table or from
    // many. Encoder passes row-stack every chunk's packed sequence —
    // lengths may differ freely, since attention is block-diagonal per
    // sequence and every other op is row-wise — so one ragged forward
    // serves the whole batch with no padding ever introduced. Classifier
    // heads are purely row-wise, so every column in the batch goes
    // through a single head pass. A chunk's outputs do not depend on
    // what it is batched with.

    /// P1 inference, step 1: one metadata-tower pass over the batch,
    /// scattering the stacked per-layer latents back into one cacheable
    /// [`MetaEncoding`] (latents + marker positions) per chunk. The
    /// latents are copied out of the executor because the encoding must
    /// outlive it (that copy *is* the cacheable artifact).
    pub fn encode_meta<E: Forward + ?Sized>(&self, ex: &mut E, chunks: &[&TableChunk]) -> Vec<MetaEncoding> {
        if chunks.is_empty() {
            return Vec::new();
        }
        let packed: Vec<PackedMeta> = chunks.iter().map(|c| self.pack_meta(c)).collect();
        let tokens: Vec<Vec<usize>> =
            packed.iter().map(|p| p.tokens.iter().map(|&t| t as usize).collect()).collect();
        let seqs: Vec<&[usize]> = tokens.iter().map(Vec::as_slice).collect();
        let latents = self.encoder.forward_meta(ex, &self.store, &seqs);
        let mut out = Vec::with_capacity(chunks.len());
        let mut off = 0;
        for (p, seq) in packed.into_iter().zip(&seqs) {
            out.push(MetaEncoding {
                layer_latents: latents
                    .iter()
                    .map(|&l| {
                        // Copy the chunk's row range straight out of the
                        // stacked latent — no slice node, one copy.
                        let m = ex.value(l);
                        let cols = m.cols();
                        let rows = &m.as_slice()[off * cols..(off + seq.len()) * cols];
                        Matrix::from_vec(seq.len(), cols, rows.to_vec())
                    })
                    .collect(),
                col_marker_pos: p.col_marker_pos,
            });
            off += seq.len();
        }
        out
    }

    /// P1 inference, step 2: per-column type probabilities from the
    /// metadata encodings — the matrix `p_{c,s}` of §3.2, one per chunk.
    /// `items[i]` pairs chunk `i`'s encoding with its per-column
    /// non-metadata features. Every column of every chunk is classified
    /// in one head pass; marker rows and features go straight into
    /// backend leaves — no intermediate owned matrices on the hot path.
    pub fn predict_meta<E: Forward + ?Sized>(
        &self,
        ex: &mut E,
        items: &[(&MetaEncoding, &[Vec<f32>])],
    ) -> Vec<Vec<Vec<f32>>> {
        let mut latent_rows: Vec<&[f32]> = Vec::new();
        let mut feat_rows: Vec<&[f32]> = Vec::new();
        for (enc, nonmeta) in items {
            assert_eq!(enc.col_marker_pos.len(), nonmeta.len(), "column count mismatch");
            let final_latent = enc.layer_latents.last().expect("encoder has layers");
            for (&pos, feats) in enc.col_marker_pos.iter().zip(nonmeta.iter()) {
                latent_rows.push(final_latent.row_slice(pos));
                feat_rows.push(feats.as_slice());
            }
        }
        if latent_rows.is_empty() {
            return items.iter().map(|_| Vec::new()).collect();
        }
        let latent_node = ex.leaf_rows(&latent_rows);
        let feat_node = ex.leaf_rows(&feat_rows);
        let x = ex.hcat(latent_node, feat_node);
        let logits = self.meta_head.forward(ex, &self.store, x);
        let probs = ex.sigmoid(logits);
        let mut rows = matrix_rows(ex.value(probs)).into_iter();
        items
            .iter()
            .map(|(_, nonmeta)| (0..nonmeta.len()).map(|_| rows.next().expect("row per column")).collect())
            .collect()
    }

    /// P2 inference: one content-tower pass over the batch, reusing each
    /// chunk's cached metadata latents (each sequence keeps its *own*
    /// per-layer key/value stack), then one head pass over every scanned
    /// column. A chunk's `contents[j]` is `Some` exactly for its scanned
    /// columns; it gets `Some(probs)` for those (unless the sequence cap
    /// dropped them) and `None` elsewhere. Cached latents enter as
    /// leaves and the marker gather stays inside the backend.
    pub fn predict_content<E: Forward + ?Sized>(
        &self,
        ex: &mut E,
        items: &[ContentBatchItem<'_>],
    ) -> Vec<Vec<Option<Vec<f32>>>> {
        // Pack every chunk; chunks whose packed sequence is empty (or
        // whose columns were all dropped by the cap) stay all-`None`.
        struct Prep {
            item: usize,
            tokens: Vec<usize>,
            included: Vec<usize>,
            content_rows: Vec<usize>,
        }
        let mut out: Vec<Vec<Option<Vec<f32>>>> = Vec::with_capacity(items.len());
        let mut preps: Vec<Prep> = Vec::new();
        for (i, (enc, contents, nonmeta)) in items.iter().enumerate() {
            assert_eq!(contents.len(), nonmeta.len(), "column count mismatch");
            assert_eq!(contents.len(), enc.col_marker_pos.len(), "column count mismatch");
            out.push(vec![None; contents.len()]);
            let packed = self.pack_content(contents);
            if packed.tokens.is_empty() {
                continue;
            }
            let mut included = Vec::new();
            let mut content_rows = Vec::new();
            for (j, pos) in packed.val_marker_pos.iter().enumerate() {
                if let Some(p) = pos {
                    included.push(j);
                    content_rows.push(*p);
                }
            }
            if included.is_empty() {
                continue;
            }
            preps.push(Prep {
                item: i,
                tokens: packed.tokens.iter().map(|&t| t as usize).collect(),
                included,
                content_rows,
            });
        }
        if preps.is_empty() {
            return out;
        }

        let seqs: Vec<&[usize]> = preps.iter().map(|p| p.tokens.as_slice()).collect();
        let meta_nodes: Vec<Vec<NodeId>> = preps
            .iter()
            .map(|p| items[p.item].0.layer_latents.iter().map(|m| ex.leaf_copy(m)).collect())
            .collect();
        let content_latent = self.encoder.forward_content(ex, &self.store, &seqs, &meta_nodes);

        // One head pass over every scanned column in the batch.
        let mut gather_rows: Vec<usize> = Vec::new();
        let mut meta_rows: Vec<&[f32]> = Vec::new();
        let mut feat_rows: Vec<&[f32]> = Vec::new();
        let mut off = 0;
        for p in &preps {
            let (enc, _, nonmeta) = &items[p.item];
            let meta_final = enc.layer_latents.last().expect("encoder has layers");
            for (&j, &row) in p.included.iter().zip(&p.content_rows) {
                gather_rows.push(off + row);
                meta_rows.push(meta_final.row_slice(enc.col_marker_pos[j]));
                feat_rows.push(nonmeta[j].as_slice());
            }
            off += p.tokens.len();
        }
        let c = ex.gather_rows(content_latent, &gather_rows);
        let m = ex.leaf_rows(&meta_rows);
        let f = ex.leaf_rows(&feat_rows);
        let cm = ex.hcat(c, m);
        let x = ex.hcat(cm, f);
        let logits = self.content_head.forward(ex, &self.store, x);
        let probs = ex.sigmoid(logits);
        let mut rows = matrix_rows(ex.value(probs)).into_iter();
        for p in &preps {
            for &j in &p.included {
                out[p.item][j] = Some(rows.next().expect("row per scanned column"));
            }
        }
        out
    }

    /// Training forward pass: both towers in one tape (so the shared
    /// encoder receives gradients from both tasks), with dropout on the
    /// classifier inputs when `dropout_rng` is provided — the training
    /// loop's checkpointable `SplitMix64Rng`, taken as a trait object.
    pub fn forward_train(
        &self,
        tape: &mut Tape,
        input: &ModelInput,
        dropout_rng: Option<&mut dyn rand::RngCore>,
    ) -> TrainForward {
        let packed_meta = self.pack_meta(&input.chunk);
        let meta_tokens: Vec<usize> = packed_meta.tokens.iter().map(|&t| t as usize).collect();
        let meta_latents = self.encoder.forward_meta(tape, &self.store, &[&meta_tokens]);
        let meta_final = *meta_latents.last().expect("layers");

        let ncols = input.chunk.col_texts.len();
        let meta_rows = tape.gather_rows(meta_final, &packed_meta.col_marker_pos);
        let feat_dim = input.chunk.nonmeta.first().map_or(0, Vec::len);
        let mut feats = tape.leaf(Matrix::from_rows(&input.chunk.nonmeta));

        // Optional inverted dropout on the latent rows, and a *stronger*
        // dropout on the non-textual features: catalog statistics (NDV,
        // min/max, average length) nearly fingerprint individual columns,
        // and the classifier will happily memorize them instead of
        // reading the metadata text unless they are made unreliable
        // during training.
        let meta_rows = match dropout_rng {
            Some(mut rng) if self.cfg.dropout > 0.0 => {
                if let Some(mask) = dropout_mask(&mut rng, ncols, feat_dim, (3.0 * self.cfg.dropout).min(0.6)) {
                    feats = tape.mul_const_mask(feats, mask);
                }
                match dropout_mask(&mut rng, ncols, self.cfg.hidden, self.cfg.dropout) {
                    Some(mask) => tape.mul_const_mask(meta_rows, mask),
                    None => meta_rows,
                }
            }
            _ => meta_rows,
        };

        let meta_in = tape.hcat(meta_rows, feats);
        let meta_logits = self.meta_head.forward(tape, &self.store, meta_in);

        // Content tower over all columns' contents.
        let contents: Vec<Option<ColumnContent>> =
            input.contents.iter().cloned().map(Some).collect();
        let packed_content = self.pack_content(&contents);
        let mut content_cols = Vec::new();
        let mut marker_rows = Vec::new();
        for (j, pos) in packed_content.val_marker_pos.iter().enumerate() {
            if let Some(p) = pos {
                content_cols.push(j);
                marker_rows.push(*p);
            }
        }
        let content_logits = if content_cols.is_empty() {
            None
        } else {
            let content_tokens: Vec<usize> = packed_content.tokens.iter().map(|&t| t as usize).collect();
            let content_latent = self.encoder.forward_content(
                tape,
                &self.store,
                &[&content_tokens],
                std::slice::from_ref(&meta_latents),
            );
            let c_rows = tape.gather_rows(content_latent, &marker_rows);
            let m_positions: Vec<usize> = content_cols.iter().map(|&j| packed_meta.col_marker_pos[j]).collect();
            let m_rows = tape.gather_rows(meta_final, &m_positions);
            let f_refs: Vec<&[f32]> = content_cols.iter().map(|&j| input.chunk.nonmeta[j].as_slice()).collect();
            let f_rows = tape.leaf_rows(&f_refs);
            let cm = tape.hcat(c_rows, m_rows);
            let x = tape.hcat(cm, f_rows);
            Some(self.content_head.forward(tape, &self.store, x))
        };

        TrainForward { meta_logits, content_logits, content_cols }
    }

    /// The metadata classifier head.
    pub fn meta_head(&self) -> Head {
        self.meta_head
    }

    /// The content classifier head.
    pub fn content_head(&self) -> Head {
        self.content_head
    }

    /// Replaces both heads and the domain width (type-set extension).
    pub fn set_heads(&mut self, meta: Head, content: Head, ntypes: usize) {
        self.meta_head = meta;
        self.content_head = content;
        self.ntypes = ntypes;
    }

    /// Parameter ids of the classifier heads plus the AWL weights — the
    /// trainable subset for head-only fine-tuning.
    pub fn head_param_ids(&self) -> Vec<taste_nn::ParamId> {
        let mut ids = Vec::with_capacity(9);
        for head in [self.meta_head, self.content_head] {
            let (l1, l2) = head.layers();
            ids.extend([l1.w, l1.b, l2.w, l2.b]);
        }
        ids.push(self.awl.weights);
        ids
    }

    /// Serializes the model (parameters + config + tokenizer vocabulary)
    /// to a JSON checkpoint.
    pub fn to_json(&self) -> String {
        let obj = serde_json::json!({
            "cfg": self.cfg,
            "ntypes": self.ntypes,
            "store": serde_json::from_str::<serde_json::Value>(&self.store.to_json()).expect("valid"),
            "vocab": self.tokenizer.vocab(),
        });
        obj.to_string()
    }

    /// Restores a model from [`Adtd::to_json`] output.
    pub fn from_json(json: &str) -> Result<Adtd, String> {
        let v: serde_json::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let cfg: ModelConfig = serde_json::from_value(v["cfg"].clone()).map_err(|e| e.to_string())?;
        let ntypes = v["ntypes"].as_u64().ok_or("missing ntypes")? as usize;
        let mut vocab: taste_tokenizer::Vocab =
            serde_json::from_value(v["vocab"].clone()).map_err(|e| e.to_string())?;
        vocab.rebuild_index();
        let tokenizer = Tokenizer::new(vocab);
        let mut model = Adtd::new(cfg, tokenizer, ntypes, 0);
        let source = ParamStore::from_json(&v["store"].to_string()).map_err(|e| e.to_string())?;
        let copied = model.store.load_matching(&source);
        if copied != model.store.len() {
            return Err(format!("checkpoint restored only {copied}/{} params", model.store.len()));
        }
        Ok(model)
    }
}

/// Splits a matrix back into per-row vectors.
pub(crate) fn matrix_rows(m: &Matrix) -> Vec<Vec<f32>> {
    (0..m.rows()).map(|r| m.row_slice(r).to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Inferencer;
    use taste_nn::InferExec;
    use taste_tokenizer::VocabBuilder;

    fn tokenizer() -> Tokenizer {
        let mut b = VocabBuilder::new();
        b.add_words(["orders", "city", "name", "phone", "int", "text", "demo"]);
        b.add_words(["orders", "city", "name", "phone", "int", "text", "demo"]);
        Tokenizer::new(b.build(100, 1))
    }

    fn chunk(ncols: usize) -> TableChunk {
        TableChunk {
            table_text: "orders demo".into(),
            col_texts: (0..ncols).map(|i| format!("city{i} text")).collect(),
            nonmeta: (0..ncols).map(|_| vec![0.5; NONMETA_DIM]).collect(),
            ordinals: (0..ncols as u16).collect(),
        }
    }

    fn model(ntypes: usize) -> Adtd {
        Adtd::new(ModelConfig::tiny(), tokenizer(), ntypes, 3)
    }

    #[test]
    fn predict_meta_shapes_and_probability_range() {
        let m = model(6);
        let mut inf = Inferencer::default();
        let c = chunk(3);
        let enc = inf.encode_meta(&m, &c);
        assert_eq!(enc.layer_latents.len(), m.cfg.layers + 1);
        assert_eq!(enc.col_marker_pos.len(), 3);
        let probs = inf.predict_meta(&m, &enc, &c.nonmeta);
        assert_eq!(probs.len(), 3);
        for row in &probs {
            assert_eq!(row.len(), 6);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn predict_content_only_for_scanned_columns() {
        let m = model(5);
        let mut inf = Inferencer::default();
        let c = chunk(3);
        let enc = inf.encode_meta(&m, &c);
        let contents = vec![
            None,
            Some(ColumnContent { cells: vec!["city".into(), "name".into()] }),
            None,
        ];
        let out = inf.predict_content(&m, &enc, &contents, &c.nonmeta);
        assert_eq!(out.len(), 3);
        assert!(out[0].is_none() && out[2].is_none());
        let probs = out[1].as_ref().unwrap();
        assert_eq!(probs.len(), 5);
    }

    #[test]
    fn predict_content_all_none_short_circuits() {
        let m = model(5);
        let mut inf = Inferencer::default();
        let c = chunk(2);
        let enc = inf.encode_meta(&m, &c);
        let out = inf.predict_content(&m, &enc, &[None, None], &c.nonmeta);
        assert_eq!(out, vec![None, None]);
    }

    #[test]
    fn encode_meta_is_deterministic() {
        let m = model(4);
        let mut inf = Inferencer::default();
        let c = chunk(2);
        let e1 = inf.encode_meta(&m, &c);
        let e2 = inf.encode_meta(&m, &c);
        assert_eq!(e1.layer_latents.last(), e2.layer_latents.last());
    }

    #[test]
    fn cached_and_live_content_predictions_agree() {
        // The latent-cache contract: P2 probabilities computed from the
        // stored encoding equal those computed from a fresh P1 pass.
        let m = model(4);
        let mut inf = Inferencer::default();
        let c = chunk(2);
        let enc_live = inf.encode_meta(&m, &c);
        let cached = MetaEncoding {
            layer_latents: enc_live.layer_latents.clone(),
            col_marker_pos: enc_live.col_marker_pos.clone(),
        };
        let contents = vec![Some(ColumnContent { cells: vec!["phone".into()] }), None];
        let a = inf.predict_content(&m, &enc_live, &contents, &c.nonmeta);
        let b = inf.predict_content(&m, &cached, &contents, &c.nonmeta);
        assert_eq!(a, b);
    }

    #[test]
    fn forward_train_covers_all_columns() {
        let mut m = model(4);
        // Weights that do not depend on which `rand` is linked, so the
        // pinned bits below are a property of the forward pass alone.
        let ids: Vec<_> = m.store.ids().collect();
        for (k, id) in ids.into_iter().enumerate() {
            for (i, v) in m.store.value_mut(id).as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 31 + k * 17) % 23) as f32 / 23.0 * 0.4 - 0.2;
            }
        }
        let c = chunk(3);
        let input = ModelInput {
            contents: (0..3).map(|_| ColumnContent { cells: vec!["city".into()] }).collect(),
            targets: (0..3).map(|_| vec![0.0, 1.0, 0.0, 0.0]).collect(),
            labels: vec![Default::default(); 3],
            chunk: c,
        };
        let mut tape = Tape::new();
        let fwd = m.forward_train(&mut tape, &input, None);
        assert_eq!(tape.value(fwd.meta_logits).shape(), (3, 4));
        assert_eq!(fwd.content_cols, vec![0, 1, 2]);
        assert_eq!(tape.value(fwd.content_logits.unwrap()).shape(), (3, 4));

        // Recorded at the commit that still had single-sequence encoder
        // forwards (PR 16): training through the one ragged body, as a
        // batch of one, records the same nodes and computes the same bits.
        assert_eq!(tape.len(), 153, "tape nodes recorded by forward_train");
        let sm = tape.square(fwd.meta_logits);
        let sc = tape.square(fwd.content_logits.unwrap());
        let (lm, lc) = (tape.sum(sm), tape.sum(sc));
        let loss = tape.add(lm, lc);
        assert_eq!(tape.value(loss).item().to_bits(), 0x3eb8_e2aa, "Σ logits² over both towers");
    }

    #[test]
    fn checkpoint_roundtrip_preserves_predictions() {
        let m = model(4);
        let mut inf = Inferencer::default();
        let c = chunk(2);
        let enc = inf.encode_meta(&m, &c);
        let probs = inf.predict_meta(&m, &enc, &c.nonmeta);
        let json = m.to_json();
        let restored = Adtd::from_json(&json).unwrap();
        let enc2 = inf.encode_meta(&restored, &c);
        let probs2 = inf.predict_meta(&restored, &enc2, &c.nonmeta);
        assert_eq!(probs, probs2);
    }

    /// A chunk with a distinct shape per index so batched tests mix
    /// sequence lengths (different column counts pack to different
    /// lengths).
    fn varied_chunk(i: usize) -> TableChunk {
        let ncols = 1 + (i % 3);
        TableChunk {
            table_text: "orders demo".into(),
            col_texts: (0..ncols).map(|c| format!("city{c} name{i}")).collect(),
            nonmeta: (0..ncols).map(|c| vec![0.1 * (i + c) as f32; NONMETA_DIM]).collect(),
            ordinals: (0..ncols as u16).collect(),
        }
    }

    #[test]
    fn stacked_encode_meta_is_bit_identical_to_batches_of_one() {
        let m = model(4);
        let mut inf = Inferencer::default();
        let chunks: Vec<TableChunk> = (0..7).map(varied_chunk).collect();
        let refs: Vec<&TableChunk> = chunks.iter().collect();
        let batched = inf.encode_meta_batch(&m, &refs);
        for (c, b) in chunks.iter().zip(&batched) {
            let solo = inf.encode_meta(&m, c);
            assert_eq!(solo.layer_latents, b.layer_latents, "latent bytes diverged");
            assert_eq!(solo.col_marker_pos, b.col_marker_pos);
        }
    }

    #[test]
    fn stacked_predict_meta_is_bit_identical_to_batches_of_one() {
        let m = model(5);
        let mut inf = Inferencer::default();
        let chunks: Vec<TableChunk> = (0..5).map(varied_chunk).collect();
        let encs: Vec<MetaEncoding> = chunks.iter().map(|c| inf.encode_meta(&m, c)).collect();
        let items: Vec<(&MetaEncoding, &[Vec<f32>])> =
            encs.iter().zip(&chunks).map(|(e, c)| (e, c.nonmeta.as_slice())).collect();
        let batched = inf.predict_meta_batch(&m, &items);
        for ((enc, c), b) in encs.iter().zip(&chunks).zip(&batched) {
            assert_eq!(&inf.predict_meta(&m, enc, &c.nonmeta), b);
        }
    }

    #[test]
    fn stacked_predict_content_is_bit_identical_to_batches_of_one() {
        let m = model(4);
        let mut inf = Inferencer::default();
        let chunks: Vec<TableChunk> = (0..6).map(varied_chunk).collect();
        let encs: Vec<MetaEncoding> = chunks.iter().map(|c| inf.encode_meta(&m, c)).collect();
        // Mixed scan patterns, including an all-None chunk.
        let contents: Vec<Vec<Option<ColumnContent>>> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (0..c.col_texts.len())
                    .map(|j| {
                        if i == 2 || (i + j) % 2 == 0 {
                            None
                        } else {
                            Some(ColumnContent { cells: vec![format!("phone{i}"), "city".into()] })
                        }
                    })
                    .collect()
            })
            .collect();
        let items: Vec<ContentBatchItem<'_>> = encs
            .iter()
            .zip(&contents)
            .zip(&chunks)
            .map(|((e, ct), c)| (e, ct.as_slice(), c.nonmeta.as_slice()))
            .collect();
        let batched = inf.predict_content_batch(&m, &items);
        for (((enc, ct), c), b) in encs.iter().zip(&contents).zip(&chunks).zip(&batched) {
            assert_eq!(&inf.predict_content(&m, enc, ct, &c.nonmeta), b);
        }
    }

    #[test]
    fn three_bodies_produce_identical_bytes_stacked_and_one_by_one_on_tape_and_exec_session() {
        // Three bodies × two backends × {stacked, one chunk at a time}:
        // N chunks stacked = N batches of one = the tape's composed
        // reference, byte for byte — empty and singleton batches and an
        // all-`None` content chunk included.
        let m = model(4);
        let chunks: Vec<TableChunk> = (0..4).map(varied_chunk).collect();
        let refs: Vec<&TableChunk> = chunks.iter().collect();
        let contents: Vec<Vec<Option<ColumnContent>>> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (0..c.col_texts.len())
                    .map(|j| (i != 2 && (i + j) % 2 == 1).then(|| ColumnContent { cells: vec![format!("phone{i}")] }))
                    .collect()
            })
            .collect();
        assert!(contents[2].iter().all(Option::is_none), "fixture has an all-None chunk");
        let mut exec = InferExec::new();

        // The reference for everything: one chunk at a time on the tape.
        let solo_t: Vec<MetaEncoding> =
            refs.iter().flat_map(|c| m.encode_meta(&mut Tape::new(), &[c])).collect();
        let solo_s: Vec<MetaEncoding> =
            refs.iter().flat_map(|c| m.encode_meta(&mut exec.session(&m.store), &[c])).collect();
        let fused_t = m.encode_meta(&mut Tape::new(), &refs);
        let fused_s = m.encode_meta(&mut exec.session(&m.store), &refs);
        for enc in [&solo_s, &fused_t, &fused_s] {
            assert_eq!(enc.len(), solo_t.len());
            for (a, b) in solo_t.iter().zip(enc) {
                assert_eq!(a.layer_latents, b.layer_latents, "latent bytes diverged");
                assert_eq!(a.col_marker_pos, b.col_marker_pos);
            }
        }
        assert!(m.encode_meta(&mut Tape::new(), &[]).is_empty());
        assert!(m.encode_meta(&mut exec.session(&m.store), &[]).is_empty());

        let meta_items: Vec<(&MetaEncoding, &[Vec<f32>])> =
            solo_t.iter().zip(&chunks).map(|(e, c)| (e, c.nonmeta.as_slice())).collect();
        let meta_t: Vec<Vec<Vec<f32>>> =
            meta_items.iter().flat_map(|&it| m.predict_meta(&mut Tape::new(), &[it])).collect();
        let meta_s: Vec<Vec<Vec<f32>>> =
            meta_items.iter().flat_map(|&it| m.predict_meta(&mut exec.session(&m.store), &[it])).collect();
        assert_eq!(meta_t.len(), chunks.len());
        assert_eq!(meta_t, meta_s);
        assert_eq!(meta_t, m.predict_meta(&mut Tape::new(), &meta_items));
        assert_eq!(meta_t, m.predict_meta(&mut exec.session(&m.store), &meta_items));
        assert!(m.predict_meta(&mut Tape::new(), &[]).is_empty());
        assert!(m.predict_meta(&mut exec.session(&m.store), &[]).is_empty());

        let content_items: Vec<ContentBatchItem<'_>> = solo_t
            .iter()
            .zip(&contents)
            .zip(&chunks)
            .map(|((e, ct), c)| (e, ct.as_slice(), c.nonmeta.as_slice()))
            .collect();
        let content_t: Vec<Vec<Option<Vec<f32>>>> =
            content_items.iter().flat_map(|&it| m.predict_content(&mut Tape::new(), &[it])).collect();
        let content_s: Vec<Vec<Option<Vec<f32>>>> = content_items
            .iter()
            .flat_map(|&it| m.predict_content(&mut exec.session(&m.store), &[it]))
            .collect();
        assert_eq!(content_t.len(), chunks.len());
        assert!(content_t.iter().flatten().any(Option::is_some), "fixture scans at least one column");
        assert!(content_t[2].iter().all(Option::is_none), "nothing scanned, nothing predicted");
        assert_eq!(content_t, content_s);
        assert_eq!(content_t, m.predict_content(&mut Tape::new(), &content_items));
        assert_eq!(content_t, m.predict_content(&mut exec.session(&m.store), &content_items));
        assert!(m.predict_content(&mut Tape::new(), &[]).is_empty());
        assert!(m.predict_content(&mut exec.session(&m.store), &[]).is_empty());
    }

    #[test]
    fn paper_scale_model_constructs_with_correct_shapes() {
        // Shape-checks the full published configuration (L=4, A=12,
        // H=312, I=1200) without training it.
        let cfg = ModelConfig::paper();
        let m = Adtd::new(cfg, tokenizer(), 10, 0);
        let mut inf = Inferencer::default();
        let c = chunk(2);
        let enc = inf.encode_meta(&m, &c);
        assert_eq!(enc.layer_latents.len(), 5);
        assert_eq!(enc.layer_latents[0].cols(), 312);
        let probs = inf.predict_meta(&m, &enc, &c.nonmeta);
        assert_eq!(probs[0].len(), 10);
    }
}
