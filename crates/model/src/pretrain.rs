//! Masked Language Model pre-training (§4.2.1).
//!
//! The paper initializes its encoder from a checkpoint pre-trained on an
//! unlabeled Wikipedia table corpus with MLM objectives. The reproduction
//! pre-trains on the synthetic corpus's packed sequences: 15% of
//! non-reserved tokens are selected; of those, 80% become `[MASK]`, 10% a
//! random token, 10% stay, and the model predicts the originals. The
//! resulting `enc.*` parameters are copied into ADTD / baseline stores by
//! name via [`taste_nn::ParamStore::load_matching`].

use crate::config::ModelConfig;
use crate::encoder::Encoder;
use crate::prepare::ModelInput;
use crate::resilience::{fit, sum_nodes, warmup_adam, Plan, TrainResilience};
use crate::trainer::TrainReport;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use taste_core::TasteError;
use taste_nn::losses::mlm_cross_entropy;
use taste_nn::modules::Linear;
use taste_nn::{Forward, NodeId, ParamStore, Tape};
use taste_tokenizer::vocab::Special;
use taste_tokenizer::{Packer, Tokenizer};

/// Pre-training hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PretrainConfig {
    /// Pre-training epochs over the sequence set.
    pub epochs: usize,
    /// Sequences per optimizer step.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Fraction of maskable tokens selected per sequence.
    pub mask_prob: f32,
    /// Masking / shuffling seed.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig { epochs: 2, batch_size: 8, lr: 1e-3, mask_prob: 0.15, seed: 0 }
    }
}

/// Builds the pre-training sequence set from prepared inputs: each
/// chunk's metadata sequence and content sequence become separate
/// unlabeled sequences.
pub fn sequences_from_inputs(
    tokenizer: &Tokenizer,
    budget: taste_tokenizer::PackingBudget,
    inputs: &[ModelInput],
) -> Vec<Vec<u32>> {
    let packer = Packer::new(budget);
    let mut out = Vec::with_capacity(inputs.len() * 2);
    for input in inputs {
        let meta = packer.pack_meta(tokenizer, &input.chunk.table_text, &input.chunk.col_texts);
        if meta.tokens.len() >= 4 {
            out.push(meta.tokens);
        }
        let contents: Vec<_> = input.contents.iter().cloned().map(Some).collect();
        let content = packer.pack_content(tokenizer, &contents);
        if content.tokens.len() >= 4 {
            out.push(content.tokens);
        }
    }
    out
}

/// Applies BERT-style masking; returns `(masked tokens, positions,
/// original ids at those positions)`. Generic over the RNG so training
/// (the checkpointable `SplitMix64Rng`) and [`mlm_eval_loss`] share it.
fn mask_sequence(
    tokens: &[u32],
    tokenizer: &Tokenizer,
    mask_prob: f32,
    rng: &mut impl Rng,
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let vocab = tokenizer.vocab();
    let mask_id = vocab.special(Special::Mask) as usize;
    let vocab_len = vocab.len();
    let mut masked: Vec<usize> = tokens.iter().map(|&t| t as usize).collect();
    let mut positions = Vec::new();
    let mut originals = Vec::new();
    for (i, &t) in tokens.iter().enumerate() {
        if vocab.is_reserved(t) || !rng.gen_bool(f64::from(mask_prob)) {
            continue;
        }
        positions.push(i);
        originals.push(t as usize);
        let roll: f32 = rng.gen();
        if roll < 0.8 {
            masked[i] = mask_id;
        } else if roll < 0.9 {
            masked[i] = rng.gen_range(taste_tokenizer::Vocab::special_len()..vocab_len);
        } // else: keep original
    }
    (masked, positions, originals)
}

/// The MLM loss node of one masked sequence (what [`mask_sequence`]
/// returned), or `None` when the mask selected no position.
fn mlm_loss(
    encoder: &Encoder,
    mlm_head: &Linear,
    store: &ParamStore,
    tape: &mut Tape,
    (masked, positions, originals): (Vec<usize>, Vec<usize>, Vec<usize>),
) -> Option<NodeId> {
    if positions.is_empty() {
        return None;
    }
    let latent = encoder.forward_self(tape, store, &masked);
    let rows = tape.gather_rows(latent, &positions);
    let logits = mlm_head.forward(tape, store, rows);
    Some(mlm_cross_entropy(tape, logits, originals))
}

/// Pre-trains an encoder of the given configuration with MLM and returns
/// its parameter store (`enc.*` parameters plus the discarded MLM head)
/// with the run's report, through the one checkpointable,
/// anomaly-guarded loop (see [`crate::resilience`]; pass
/// `&TrainResilience::default()` to train without checkpoints).
///
/// # Errors
/// As [`crate::trainer::train_adtd`].
pub fn pretrain_encoder(
    cfg: &ModelConfig,
    tokenizer: &Tokenizer,
    sequences: &[Vec<u32>],
    pcfg: &PretrainConfig,
    res: &TrainResilience,
) -> Result<(ParamStore, TrainReport), TasteError> {
    let mut store = ParamStore::new(pcfg.seed ^ 0x9E37);
    let encoder = Encoder::new(&mut store, "enc", cfg, tokenizer.vocab().len());
    let mlm_head = Linear::new(&mut store, "mlm", cfg.hidden, tokenizer.vocab().len());
    let plan = Plan {
        n_items: sequences.len(),
        epochs: pcfg.epochs,
        batch_size: pcfg.batch_size,
        seed: pcfg.seed,
        frozen: &[],
    };
    let report = fit(
        &mut store,
        |s| s,
        &plan,
        |steps| warmup_adam(pcfg.lr, steps),
        res,
        |store, tape, batch, rng| {
            let losses: Vec<NodeId> = batch
                .iter()
                .filter_map(|&i| {
                    let masked = mask_sequence(&sequences[i], tokenizer, pcfg.mask_prob, rng);
                    mlm_loss(&encoder, &mlm_head, store, tape, masked)
                })
                .collect();
            if losses.is_empty() {
                return None;
            }
            let total = sum_nodes(tape, &losses);
            Some(tape.scale(total, 1.0 / losses.len() as f32))
        },
    )?;
    Ok((store, report))
}

/// Measures the mean MLM loss of a store over a sequence sample —
/// used to verify pre-training actually learned something.
pub fn mlm_eval_loss(
    cfg: &ModelConfig,
    store: &ParamStore,
    tokenizer: &Tokenizer,
    sequences: &[Vec<u32>],
    seed: u64,
) -> f32 {
    // Rebuild module handles over the same (by-construction) param ids.
    let mut probe = ParamStore::new(0);
    let encoder = Encoder::new(&mut probe, "enc", cfg, tokenizer.vocab().len());
    let mlm_head = Linear::new(&mut probe, "mlm", cfg.hidden, tokenizer.vocab().len());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut total = 0.0f64;
    let mut n = 0usize;
    for seq in sequences {
        let mut tape = Tape::new();
        let masked = mask_sequence(seq, tokenizer, 0.15, &mut rng);
        if let Some(loss) = mlm_loss(&encoder, &mlm_head, store, &mut tape, masked) {
            total += f64::from(tape.value(loss).item());
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (total / n as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::NONMETA_DIM;
    use crate::prepare::TableChunk;
    use taste_tokenizer::{ColumnContent, VocabBuilder};

    fn tokenizer() -> Tokenizer {
        let mut b = VocabBuilder::new();
        for w in ["orders", "city", "phone", "alpha", "beta", "gamma", "delta", "text"] {
            b.add_word(w);
            b.add_word(w);
        }
        Tokenizer::new(b.build(100, 1))
    }

    fn inputs() -> Vec<ModelInput> {
        (0..12)
            .map(|i| ModelInput {
                chunk: TableChunk {
                    table_text: "orders city".into(),
                    col_texts: vec![format!("{} text", if i % 2 == 0 { "city" } else { "phone" })],
                    nonmeta: vec![vec![0.0; NONMETA_DIM]],
                    ordinals: vec![0],
                },
                contents: vec![ColumnContent {
                    cells: vec!["alpha beta".into(), "gamma delta".into()],
                }],
                targets: vec![vec![1.0, 0.0]],
                labels: vec![Default::default()],
            })
            .collect()
    }

    #[test]
    fn sequences_include_meta_and_content() {
        let tok = tokenizer();
        let seqs = sequences_from_inputs(&tok, ModelConfig::tiny().budget, &inputs());
        assert_eq!(seqs.len(), 24, "one meta + one content sequence per input");
        assert!(seqs.iter().all(|s| s.len() >= 4));
    }

    #[test]
    fn masking_never_touches_reserved_tokens() {
        let tok = tokenizer();
        let seqs = sequences_from_inputs(&tok, ModelConfig::tiny().budget, &inputs());
        let mut rng = taste_core::rng::SplitMix64Rng::new(0);
        for seq in &seqs {
            let (_, positions, originals) = mask_sequence(seq, &tok, 0.5, &mut rng);
            for (&p, &orig) in positions.iter().zip(&originals) {
                assert_eq!(seq[p] as usize, orig);
                assert!(!tok.vocab().is_reserved(seq[p]));
            }
        }
    }

    #[test]
    fn masking_rate_is_approximately_requested() {
        let tok = tokenizer();
        // A long artificial sequence of maskable tokens.
        let word_id = tok.vocab().id("alpha").unwrap();
        let seq = vec![word_id; 2000];
        let mut rng = taste_core::rng::SplitMix64Rng::new(1);
        let (_, positions, _) = mask_sequence(&seq, &tok, 0.15, &mut rng);
        let rate = positions.len() as f64 / 2000.0;
        assert!((rate - 0.15).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn pretraining_reduces_mlm_loss() {
        let tok = tokenizer();
        let cfg = ModelConfig::tiny();
        let seqs = sequences_from_inputs(&tok, cfg.budget, &inputs());
        let pcfg = PretrainConfig { epochs: 5, lr: 3e-3, ..Default::default() };
        let (trained, report) = pretrain_encoder(&cfg, &tok, &seqs, &pcfg, &TrainResilience::default()).unwrap();
        assert!(report.health.is_clean());
        // Fresh random encoder as the baseline.
        let fresh = {
            let mut s = ParamStore::new(123);
            let _ = Encoder::new(&mut s, "enc", &cfg, tok.vocab().len());
            let _ = Linear::new(&mut s, "mlm", cfg.hidden, tok.vocab().len());
            s
        };
        let loss_fresh = mlm_eval_loss(&cfg, &fresh, &tok, &seqs, 9);
        let loss_trained = mlm_eval_loss(&cfg, &trained, &tok, &seqs, 9);
        assert!(
            loss_trained < loss_fresh,
            "pretraining did not help: {loss_trained} vs {loss_fresh}"
        );
    }

    #[test]
    fn pretrained_params_transfer_by_name() {
        let tok = tokenizer();
        let cfg = ModelConfig::tiny();
        let seqs = sequences_from_inputs(&tok, cfg.budget, &inputs());
        let (trained, _) =
            pretrain_encoder(&cfg, &tok, &seqs, &PretrainConfig::default(), &TrainResilience::default()).unwrap();
        let mut model = crate::adtd::Adtd::new(cfg, tok, 4, 0);
        let copied = model.store.load_matching(&trained);
        assert!(copied > 0, "encoder parameters should transfer");
        // The MLM head must not transfer (no matching name in ADTD).
        assert!(model.store.id_by_name("mlm.w").is_none());
    }

    #[test]
    fn empty_sequences_error() {
        let tok = tokenizer();
        let res = TrainResilience::default();
        assert!(pretrain_encoder(&ModelConfig::tiny(), &tok, &[], &PretrainConfig::default(), &res).is_err());
    }
}
