//! Incremental semantic-type extension (the paper's first future-work
//! direction, §8): accommodate *new* semantic types without retraining
//! the encoder.
//!
//! The encoder's latents are type-agnostic; only the classifier heads
//! have per-type output units. [`extend_types`] widens both heads,
//! copying the trained weights for existing types and freshly
//! initializing the new units; [`train_heads_only`] then fine-tunes the
//! heads (encoder frozen) on examples of the new types — orders of
//! magnitude cheaper than full retraining, and existing types keep their
//! exact representations.

use crate::adtd::{Adtd, Head};
use crate::prepare::ModelInput;
use crate::resilience::{fit, sum_nodes, warmup_adam, Plan, TrainResilience};
use crate::trainer::{tower_bce_sums, TrainReport};
use taste_core::TasteError;
use taste_nn::{Matrix, ParamId};

/// Widens the model's type domain from `model.ntypes` to `new_ntypes`.
///
/// Existing output units keep their trained weights; new units are
/// zero-initialized (predicting ~0.5 before head fine-tuning, i.e.
/// "uncertain", which is exactly right for a type the model has never
/// seen).
///
/// # Errors
/// Returns an error when `new_ntypes` does not exceed the current width.
pub fn extend_types(model: &mut Adtd, new_ntypes: usize) -> Result<(), TasteError> {
    if new_ntypes <= model.ntypes {
        return Err(TasteError::invalid(format!(
            "new domain width {new_ntypes} must exceed current {}",
            model.ntypes
        )));
    }
    let old = model.ntypes;
    let gen = generation_suffix(model);
    let meta = widen_head(model, model.meta_head(), "meta_head", &gen, old, new_ntypes);
    let content = widen_head(model, model.content_head(), "content_head", &gen, old, new_ntypes);
    model.set_heads(meta, content, new_ntypes);
    Ok(())
}

fn generation_suffix(model: &Adtd) -> String {
    // Unique suffix per widening so parameter names never collide.
    format!("g{}", model.store.len())
}

fn widen_head(model: &mut Adtd, head: Head, name: &str, gen: &str, old: usize, new: usize) -> Head {
    let (l1, l2) = head.layers();
    // Hidden layer is untouched; reuse its parameters as-is.
    let hidden_dim = model.store.value(l2.w).rows();
    let mut w = Matrix::zeros(hidden_dim, new);
    let mut b = Matrix::zeros(1, new);
    {
        let old_w = model.store.value(l2.w);
        for r in 0..hidden_dim {
            w.row_slice_mut(r)[..old].copy_from_slice(old_w.row_slice(r));
        }
        let old_b = model.store.value(l2.b);
        b.row_slice_mut(0)[..old].copy_from_slice(old_b.row_slice(0));
    }
    let w_id = model.store.with_value(&format!("{name}.h2.{gen}.w"), w);
    let b_id = model.store.with_value(&format!("{name}.h2.{gen}.b"), b);
    Head::from_parts(l1, taste_nn::modules::Linear { w: w_id, b: b_id })
}

/// Chunks per optimizer step of head-only fine-tuning.
const HEAD_BATCH: usize = 4;

/// Fine-tunes *only* the classifier heads (and the AWL weights) on the
/// given inputs; every other parameter is frozen. Runs through the one
/// checkpointable, anomaly-guarded loop (see [`crate::resilience`]; pass
/// `&TrainResilience::default()` to train without checkpoints).
///
/// # Errors
/// As [`crate::trainer::train_adtd`].
pub fn train_heads_only(
    model: &mut Adtd,
    inputs: &[ModelInput],
    epochs: usize,
    lr: f32,
    pos_weight: f32,
    seed: u64,
    res: &TrainResilience,
) -> Result<TrainReport, TasteError> {
    let trainable = model.head_param_ids();
    let frozen: Vec<ParamId> = model.store.ids().filter(|id| !trainable.contains(id)).collect();
    // Stale Adam momentum from the original full training would keep
    // nudging frozen parameters even with zeroed gradients.
    model.store.reset_optimizer_state();
    fit(
        model,
        |m| &mut m.store,
        &Plan { n_items: inputs.len(), epochs, batch_size: HEAD_BATCH, seed, frozen: &frozen },
        |steps| warmup_adam(lr, steps),
        res,
        |model, tape, batch, _rng| {
            let mut losses = Vec::new();
            let mut cols = 0usize;
            for &i in batch {
                let (meta, content) = tower_bce_sums(model, tape, &inputs[i], None, pos_weight);
                cols += inputs[i].targets.len();
                losses.push(meta);
                losses.extend(content.map(|(node, _)| node));
            }
            let total = sum_nodes(tape, &losses);
            Some(tape.scale(total, 1.0 / cols.max(1) as f32))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::features::NONMETA_DIM;
    use crate::prepare::TableChunk;
    use crate::trainer::{train_adtd, TrainConfig};
    use taste_tokenizer::{ColumnContent, Tokenizer, VocabBuilder};

    fn tokenizer() -> Tokenizer {
        let mut b = VocabBuilder::new();
        for w in ["orders", "city", "phone", "iban", "alpha", "beta", "gamma", "text"] {
            b.add_word(w);
            b.add_word(w);
        }
        Tokenizer::new(b.build(100, 1))
    }

    fn input(name: &str, word: &str, target: Vec<f32>) -> ModelInput {
        ModelInput {
            chunk: TableChunk {
                table_text: "orders".into(),
                col_texts: vec![format!("{name} text")],
                nonmeta: vec![vec![0.0; NONMETA_DIM]],
                ordinals: vec![0],
            },
            contents: vec![ColumnContent { cells: vec![word.into(), word.into()] }],
            targets: vec![target],
            labels: vec![Default::default()],
        }
    }

    fn base_cfg() -> TrainConfig {
        TrainConfig { epochs: 16, batch_size: 4, lr: 2.5e-3, ..Default::default() }
    }

    fn base_inputs() -> Vec<ModelInput> {
        (0..16)
            .map(|i| {
                if i % 2 == 0 {
                    input("city", "alpha", vec![0.0, 1.0, 0.0])
                } else {
                    input("phone", "beta", vec![0.0, 0.0, 1.0])
                }
            })
            .collect()
    }

    #[test]
    fn extend_widens_heads_and_preserves_old_predictions() {
        let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 3, 0);
        train_adtd(&mut model, &base_inputs(), &base_cfg(), &TrainResilience::default()).unwrap();
        let probe = base_inputs()[0].clone();
        let mut inf = crate::Inferencer::default();
        let enc = inf.encode_meta(&model, &probe.chunk);
        let before = inf.predict_meta(&model, &enc, &probe.chunk.nonmeta);

        extend_types(&mut model, 5).unwrap();
        assert_eq!(model.ntypes, 5);
        let enc2 = inf.encode_meta(&model, &probe.chunk);
        let after = inf.predict_meta(&model, &enc2, &probe.chunk.nonmeta);
        assert_eq!(after[0].len(), 5);
        for s in 0..3 {
            assert!(
                (after[0][s] - before[0][s]).abs() < 1e-5,
                "existing type {s} changed: {} -> {}",
                before[0][s],
                after[0][s]
            );
        }
        // New units start at logit 0 => probability 0.5 ("uncertain").
        assert!((after[0][3] - 0.5).abs() < 1e-5);
        assert!((after[0][4] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn extend_rejects_non_growth() {
        let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 3, 0);
        assert!(extend_types(&mut model, 3).is_err());
        assert!(extend_types(&mut model, 2).is_err());
    }

    #[test]
    fn head_only_training_learns_new_type_without_touching_encoder() {
        let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 3, 0);
        train_adtd(&mut model, &base_inputs(), &base_cfg(), &TrainResilience::default()).unwrap();
        extend_types(&mut model, 4).unwrap();

        // Snapshot every parameter outside the heads, as bits.
        let heads = model.head_param_ids();
        let frozen_bits = |m: &Adtd| -> Vec<(String, Vec<u32>)> {
            m.store
                .ids()
                .filter(|id| !heads.contains(id))
                .map(|id| {
                    let bits = m.store.value(id).as_slice().iter().map(|v| v.to_bits()).collect();
                    (m.store.name(id).to_owned(), bits)
                })
                .collect()
        };
        let before = frozen_bits(&model);
        assert!(before.iter().any(|(name, _)| name == "enc.layer0.attn.q.w"), "encoder is among the frozen");

        // New type 3: columns named "iban" holding "gamma". Old-type
        // replay inputs get their targets padded to the new width.
        let mut new_inputs: Vec<ModelInput> = base_inputs()
            .into_iter()
            .map(|mut i| {
                for t in &mut i.targets {
                    t.resize(4, 0.0);
                }
                i
            })
            .collect();
        for _ in 0..8 {
            new_inputs.push(input("iban", "gamma", vec![0.0, 0.0, 0.0, 1.0]));
        }
        let report =
            train_heads_only(&mut model, &new_inputs, 14, 4e-3, 4.0, 1, &TrainResilience::default()).unwrap();
        let losses = &report.epoch_losses;
        assert!(losses.last().unwrap() < losses.first().unwrap(), "{losses:?}");
        assert!(report.health.is_clean());

        // Nothing but the heads moved, not by a bit.
        assert_eq!(frozen_bits(&model), before);

        // The new type is now detected for iban columns.
        let probe = input("iban", "gamma", vec![0.0; 4]);
        let mut inf = crate::Inferencer::default();
        let enc = inf.encode_meta(&model, &probe.chunk);
        let probs = inf.predict_meta(&model, &enc, &probe.chunk.nonmeta);
        let row = &probs[0];
        assert!(
            row[3] > row[1] && row[3] > row[2],
            "new type should win for iban: {row:?}"
        );
    }

    #[test]
    fn multiple_extensions_compose() {
        let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 3, 0);
        extend_types(&mut model, 5).unwrap();
        extend_types(&mut model, 8).unwrap();
        assert_eq!(model.ntypes, 8);
        let probe = input("city", "alpha", vec![0.0; 8]);
        let mut inf = crate::Inferencer::default();
        let enc = inf.encode_meta(&model, &probe.chunk);
        let probs = inf.predict_meta(&model, &enc, &probe.chunk.nonmeta);
        assert_eq!(probs[0].len(), 8);
    }
}
