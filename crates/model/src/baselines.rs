//! Single-tower baseline analogs of TURL and Doduo (§6.2).
//!
//! Both baselines *require* column content for every prediction — at
//! serving time the framework must scan 100% of columns for them, which
//! is what Figs. 4 and 5 measure. Architecturally:
//!
//! * **TURL analog** — one encoder of the same size as TASTE's; each
//!   column is encoded *independently* with its own sequence
//!   `[CLS] table-meta [SEP] [COL] column-meta [SEP] cells…`, so
//!   cross-attention only sees the current column's metadata (the paper's
//!   §6.4 description of TURL's attention restriction).
//! * **Doduo analog** — a larger encoder; column metadata is mixed
//!   *into* the cell values (`[COL] name cells…` per column, concatenated
//!   table-wise), so metadata and content are not architecturally
//!   separated — again per §6.4.

use crate::adtd::{matrix_rows, Head};
use crate::config::ModelConfig;
use crate::encoder::Encoder;
use crate::features::NONMETA_DIM;
use crate::prepare::{ModelInput, TableChunk};
use serde::{Deserialize, Serialize};
use taste_nn::{Forward, Matrix, NodeId, ParamStore, Tape};
use taste_tokenizer::vocab::Special;
use taste_tokenizer::{ColumnContent, Tokenizer};

/// Which baseline an instance implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaselineKind {
    /// TURL analog: per-column sequences, TASTE-sized encoder.
    Turl,
    /// Doduo analog: table-wise sequences with metadata folded into
    /// content, larger encoder.
    Doduo,
}

impl BaselineKind {
    /// Display name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::Turl => "TURL",
            BaselineKind::Doduo => "Doduo",
        }
    }

    /// Derives this baseline's encoder configuration from TASTE's.
    /// TURL matches TASTE's size exactly (the paper gives both 14.5M
    /// parameters); Doduo is ~1.5× wider and one layer deeper (standing
    /// in for its BERT-base, 108M vs 14.5M).
    pub fn derive_config(self, base: &ModelConfig) -> ModelConfig {
        match self {
            BaselineKind::Turl => *base,
            BaselineKind::Doduo => {
                let mut cfg = *base;
                cfg.hidden = base.hidden * 3 / 2;
                cfg.heads = base.heads; // keep divisibility: 96 = 4 * 24
                cfg.intermediate = base.intermediate * 3 / 2;
                cfg.layers = base.layers + 1;
                cfg
            }
        }
    }
}

/// A single-tower content-dependent baseline model.
pub struct SingleTower {
    /// Which baseline this is.
    pub kind: BaselineKind,
    /// Encoder configuration (already derived for the kind).
    pub cfg: ModelConfig,
    /// Classifier output width.
    pub ntypes: usize,
    /// All trainable parameters.
    pub store: ParamStore,
    /// The (single) encoder stack.
    pub encoder: Encoder,
    head: Head,
    tokenizer: Tokenizer,
}

impl SingleTower {
    /// Builds a fresh baseline from TASTE's base configuration.
    pub fn new(kind: BaselineKind, base_cfg: &ModelConfig, tokenizer: Tokenizer, ntypes: usize, seed: u64) -> SingleTower {
        let cfg = kind.derive_config(base_cfg);
        let mut store = ParamStore::new(seed);
        let encoder = Encoder::new(&mut store, "enc", &cfg, tokenizer.vocab().len());
        let head = Head::new(&mut store, "head", cfg.hidden + NONMETA_DIM, cfg.content_head_hidden, ntypes);
        SingleTower { kind, cfg, ntypes, store, encoder, head, tokenizer }
    }

    /// The model's tokenizer.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// TURL-style sequence for one column.
    fn turl_tokens(&self, chunk: &TableChunk, j: usize, content: &ColumnContent) -> Vec<u32> {
        let v = self.tokenizer.vocab();
        let b = &self.cfg.budget;
        let mut toks = Vec::with_capacity(b.max_len.min(64));
        toks.push(v.special(Special::Cls));
        toks.extend(self.tokenizer.encode_budgeted(&chunk.table_text, b.table));
        toks.push(v.special(Special::Sep));
        toks.push(v.special(Special::Col));
        toks.extend(self.tokenizer.encode_budgeted(&chunk.col_texts[j], b.column));
        toks.push(v.special(Special::Sep));
        for cell in &content.cells {
            let body = self.tokenizer.encode_budgeted(cell, b.cell);
            if toks.len() + body.len() + 1 > b.max_len {
                break;
            }
            toks.extend(body);
            toks.push(v.special(Special::Sep));
        }
        toks
    }

    /// Doduo-style table-wise sequence; returns tokens and per-column
    /// `[COL]` marker positions (columns dropped by the cap keep the last
    /// marker so shapes stay aligned).
    fn doduo_tokens(&self, chunk: &TableChunk, contents: &[ColumnContent]) -> (Vec<u32>, Vec<usize>) {
        let v = self.tokenizer.vocab();
        let b = &self.cfg.budget;
        let mut toks = Vec::new();
        let mut markers = Vec::with_capacity(contents.len());
        for (j, content) in contents.iter().enumerate() {
            let name_toks = self.tokenizer.encode_budgeted(&chunk.col_texts[j], b.column);
            if toks.len() + name_toks.len() + 2 > b.max_len {
                markers.push(markers.last().copied().unwrap_or(0));
                continue;
            }
            markers.push(toks.len());
            toks.push(v.special(Special::Col));
            toks.extend(name_toks);
            for cell in &content.cells {
                let body = self.tokenizer.encode_budgeted(cell, b.cell);
                if toks.len() + body.len() + 1 > b.max_len {
                    break;
                }
                toks.extend(body);
                toks.push(v.special(Special::Sep));
            }
        }
        (toks, markers)
    }

    /// Inference: per-column type probabilities for a chunk. Baselines
    /// always consume content; pass empty [`ColumnContent`]s to model the
    /// strict-privacy "w/o content" setting of Table 4.
    pub fn predict(&self, chunk: &TableChunk, contents: &[ColumnContent]) -> Vec<Vec<f32>> {
        assert_eq!(chunk.col_texts.len(), contents.len(), "column count mismatch");
        if contents.is_empty() {
            return Vec::new();
        }
        match self.kind {
            BaselineKind::Turl => (0..contents.len())
                .map(|j| {
                    let toks = self.turl_tokens(chunk, j, &contents[j]);
                    let tokens: Vec<usize> = toks.iter().map(|&t| t as usize).collect();
                    let mut tape = Tape::new();
                    let latent = self.encoder.forward_self(&mut tape, &self.store, &tokens);
                    // [COL] marker sits right after [CLS]+table+[SEP].
                    let col_pos = tokens
                        .iter()
                        .position(|&t| t as u32 == self.tokenizer.vocab().special(Special::Col))
                        .expect("turl sequence always contains [COL]");
                    let row = tape.slice_rows(latent, col_pos, 1);
                    let feats = tape.leaf(Matrix::row(chunk.nonmeta[j].clone()));
                    let x = tape.hcat(row, feats);
                    let logits = self.head.forward(&mut tape, &self.store, x);
                    let probs = tape.sigmoid(logits);
                    tape.value(probs).row_slice(0).to_vec()
                })
                .collect(),
            BaselineKind::Doduo => {
                let (toks, markers) = self.doduo_tokens(chunk, contents);
                let tokens: Vec<usize> = toks.iter().map(|&t| t as usize).collect();
                let mut tape = Tape::new();
                let latent = self.encoder.forward_self(&mut tape, &self.store, &tokens);
                let rows = tape.gather_rows(latent, &markers);
                let feats = tape.leaf(Matrix::from_rows(&chunk.nonmeta));
                let x = tape.hcat(rows, feats);
                let logits = self.head.forward(&mut tape, &self.store, x);
                let probs = tape.sigmoid(logits);
                matrix_rows(tape.value(probs))
            }
        }
    }

    /// Serializes the baseline (parameters + config + vocabulary) to a
    /// JSON checkpoint.
    pub fn to_json(&self) -> String {
        serde_json::json!({
            "kind": self.kind,
            "cfg": self.cfg,
            "ntypes": self.ntypes,
            "store": serde_json::from_str::<serde_json::Value>(&self.store.to_json()).expect("valid"),
            "vocab": self.tokenizer.vocab(),
        })
        .to_string()
    }

    /// Restores a baseline from [`SingleTower::to_json`] output.
    pub fn from_json(json: &str) -> Result<SingleTower, String> {
        let v: serde_json::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let kind: BaselineKind = serde_json::from_value(v["kind"].clone()).map_err(|e| e.to_string())?;
        let cfg: ModelConfig = serde_json::from_value(v["cfg"].clone()).map_err(|e| e.to_string())?;
        let ntypes = v["ntypes"].as_u64().ok_or("missing ntypes")? as usize;
        let mut vocab: taste_tokenizer::Vocab =
            serde_json::from_value(v["vocab"].clone()).map_err(|e| e.to_string())?;
        vocab.rebuild_index();
        // `new` derives the config from a base; reconstruct with the
        // stored (already-derived) config by passing it as the base for
        // Turl (identity) or inverting for Doduo via a direct build.
        let mut model = SingleTower::build_with_config(kind, cfg, Tokenizer::new(vocab), ntypes);
        let source = ParamStore::from_json(&v["store"].to_string()).map_err(|e| e.to_string())?;
        let copied = model.store.load_matching(&source);
        if copied != model.store.len() {
            return Err(format!("checkpoint restored only {copied}/{} params", model.store.len()));
        }
        Ok(model)
    }

    /// Builds a baseline with an explicit (pre-derived) configuration.
    pub fn build_with_config(kind: BaselineKind, cfg: ModelConfig, tokenizer: Tokenizer, ntypes: usize) -> SingleTower {
        let mut store = ParamStore::new(0);
        let encoder = Encoder::new(&mut store, "enc", &cfg, tokenizer.vocab().len());
        let head = Head::new(&mut store, "head", cfg.hidden + NONMETA_DIM, cfg.content_head_hidden, ntypes);
        SingleTower { kind, cfg, ntypes, store, encoder, head, tokenizer }
    }

    /// Training forward: logits for every column of the input (one tape,
    /// caller owns loss and step). Returns the logits node (rows align
    /// with chunk columns).
    pub fn forward_train(&self, tape: &mut Tape, input: &ModelInput) -> NodeId {
        match self.kind {
            BaselineKind::Turl => {
                let mut acc: Option<NodeId> = None;
                for j in 0..input.contents.len() {
                    let toks = self.turl_tokens(&input.chunk, j, &input.contents[j]);
                    let tokens: Vec<usize> = toks.iter().map(|&t| t as usize).collect();
                    let latent = self.encoder.forward_self(tape, &self.store, &tokens);
                    let col_pos = tokens
                        .iter()
                        .position(|&t| t as u32 == self.tokenizer.vocab().special(Special::Col))
                        .expect("turl sequence always contains [COL]");
                    let row = tape.slice_rows(latent, col_pos, 1);
                    acc = Some(match acc {
                        Some(prev) => tape.vcat(prev, row),
                        None => row,
                    });
                }
                let rows = acc.expect("non-empty chunk");
                let feats = tape.leaf(Matrix::from_rows(&input.chunk.nonmeta));
                let x = tape.hcat(rows, feats);
                self.head.forward(tape, &self.store, x)
            }
            BaselineKind::Doduo => {
                let (toks, markers) = self.doduo_tokens(&input.chunk, &input.contents);
                let tokens: Vec<usize> = toks.iter().map(|&t| t as usize).collect();
                let latent = self.encoder.forward_self(tape, &self.store, &tokens);
                let rows = tape.gather_rows(latent, &markers);
                let feats = tape.leaf(Matrix::from_rows(&input.chunk.nonmeta));
                let x = tape.hcat(rows, feats);
                self.head.forward(tape, &self.store, x)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taste_tokenizer::VocabBuilder;

    fn tokenizer() -> Tokenizer {
        let mut b = VocabBuilder::new();
        b.add_words(["orders", "city", "phone", "text", "int", "demo"]);
        b.add_words(["orders", "city", "phone", "text", "int", "demo"]);
        Tokenizer::new(b.build(100, 1))
    }

    fn chunk(ncols: usize) -> TableChunk {
        TableChunk {
            table_text: "orders demo".into(),
            col_texts: (0..ncols).map(|i| format!("city{i} text")).collect(),
            nonmeta: (0..ncols).map(|_| vec![0.25; NONMETA_DIM]).collect(),
            ordinals: (0..ncols as u16).collect(),
        }
    }

    fn contents(ncols: usize) -> Vec<ColumnContent> {
        (0..ncols)
            .map(|_| ColumnContent { cells: vec!["city".into(), "phone".into()] })
            .collect()
    }

    #[test]
    fn doduo_config_is_larger_than_turl() {
        let base = ModelConfig::small();
        let turl = BaselineKind::Turl.derive_config(&base);
        let doduo = BaselineKind::Doduo.derive_config(&base);
        assert_eq!(turl.hidden, base.hidden);
        assert!(doduo.hidden > base.hidden);
        assert!(doduo.layers > base.layers);
        assert_eq!(doduo.hidden % doduo.heads, 0, "heads must still divide hidden");
    }

    #[test]
    fn both_baselines_predict_full_probability_rows() {
        for kind in [BaselineKind::Turl, BaselineKind::Doduo] {
            let m = SingleTower::new(kind, &ModelConfig::tiny(), tokenizer(), 5, 1);
            let c = chunk(3);
            let probs = m.predict(&c, &contents(3));
            assert_eq!(probs.len(), 3, "{kind:?}");
            for row in &probs {
                assert_eq!(row.len(), 5);
                assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }

    #[test]
    fn empty_content_still_predicts() {
        // Table 4's "w/o content" setting: content replaced by emptiness.
        for kind in [BaselineKind::Turl, BaselineKind::Doduo] {
            let m = SingleTower::new(kind, &ModelConfig::tiny(), tokenizer(), 4, 1);
            let c = chunk(2);
            let empty: Vec<ColumnContent> = (0..2).map(|_| ColumnContent::default()).collect();
            let probs = m.predict(&c, &empty);
            assert_eq!(probs.len(), 2);
        }
    }

    #[test]
    fn content_changes_predictions() {
        for kind in [BaselineKind::Turl, BaselineKind::Doduo] {
            let m = SingleTower::new(kind, &ModelConfig::tiny(), tokenizer(), 4, 1);
            let c = chunk(2);
            let with = m.predict(&c, &contents(2));
            let without = m.predict(&c, &(0..2).map(|_| ColumnContent::default()).collect::<Vec<_>>());
            assert_ne!(with, without, "{kind:?} must be content-sensitive");
        }
    }

    #[test]
    fn forward_train_logits_align_with_columns() {
        for kind in [BaselineKind::Turl, BaselineKind::Doduo] {
            let m = SingleTower::new(kind, &ModelConfig::tiny(), tokenizer(), 4, 1);
            let input = ModelInput {
                chunk: chunk(3),
                contents: contents(3),
                targets: (0..3).map(|_| vec![1.0, 0.0, 0.0, 0.0]).collect(),
                labels: vec![Default::default(); 3],
            };
            let mut tape = Tape::new();
            let logits = m.forward_train(&mut tape, &input);
            assert_eq!(tape.value(logits).shape(), (3, 4));
        }
    }

    #[test]
    fn kind_labels() {
        assert_eq!(BaselineKind::Turl.label(), "TURL");
        assert_eq!(BaselineKind::Doduo.label(), "Doduo");
    }
}
