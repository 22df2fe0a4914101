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
use rand::seq::SliceRandom;
use rand::SeedableRng;
use taste_core::TasteError;
use taste_nn::guard::{AnomalyDetector, AnomalyPolicy, StepVerdict};
use taste_nn::{Adam, AdamConfig, LrSchedule, Matrix, ParamId, Tape};

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

/// Fine-tunes *only* the classifier heads (and the AWL weights) on the
/// given inputs; every encoder parameter is frozen. Returns per-epoch
/// losses.
///
/// Anomalous steps (non-finite loss or gradients, loss spikes) are
/// contained rather than fatal: the step's gradients are dropped and
/// training continues, same as the resumable loops. Only a *persistent*
/// anomaly — the detector escalating past its consecutive-step limit,
/// with no checkpoint to roll back to in this lightweight path — aborts.
///
/// # Errors
/// Returns [`TasteError::Training`] on persistent anomalies, or
/// [`TasteError::InvalidArgument`] on empty input.
pub fn train_heads_only(
    model: &mut Adtd,
    inputs: &[ModelInput],
    epochs: usize,
    lr: f32,
    pos_weight: f32,
    seed: u64,
) -> Result<Vec<f32>, TasteError> {
    if inputs.is_empty() {
        return Err(TasteError::invalid("no inputs"));
    }
    let trainable: Vec<ParamId> = model.head_param_ids();
    // Stale Adam momentum from the original full training would keep
    // nudging frozen parameters even with zeroed gradients.
    model.store.reset_optimizer_state();
    let steps = inputs.len().div_ceil(4) * epochs;
    let mut opt = Adam::new(
        AdamConfig { lr, clip_norm: 1.0, ..Default::default() },
        LrSchedule::LinearWarmupDecay { warmup: (steps / 10).max(1), total: steps.max(2) },
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut losses = Vec::with_capacity(epochs);
    let guard_policy = AnomalyPolicy::default();
    let mut detector = AnomalyDetector::default();
    for _ in 0..epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut steps_done = 0usize;
        for batch in order.chunks(4) {
            let mut tape = Tape::new();
            let mut batch_losses = Vec::new();
            let mut cols = 0usize;
            for &i in batch {
                let input = &inputs[i];
                let fwd = model.forward_train(&mut tape, input, None);
                cols += input.targets.len();
                let targets = Matrix::from_rows(&input.targets);
                batch_losses.push(tape.bce_with_logits_weighted_sum(fwd.meta_logits, targets, pos_weight));
                if let Some(logits) = fwd.content_logits {
                    let sub: Vec<Vec<f32>> =
                        fwd.content_cols.iter().map(|&j| input.targets[j].clone()).collect();
                    batch_losses.push(tape.bce_with_logits_weighted_sum(logits, Matrix::from_rows(&sub), pos_weight));
                }
            }
            let mut total = batch_losses[0];
            for &l in &batch_losses[1..] {
                total = tape.add(total, l);
            }
            let total = tape.scale(total, 1.0 / cols.max(1) as f32);
            let v = tape.value(total).item();
            tape.backward(total);
            tape.accumulate_param_grads(&mut model.store);
            // Freeze everything that is not a head parameter.
            let frozen: Vec<ParamId> = model
                .store
                .ids()
                .filter(|id| !trainable.contains(id))
                .collect();
            for id in frozen {
                model.store.grad_mut(id).fill_zero();
            }
            // The detector observes the *effective* (post-freeze)
            // gradient norm, after backward and before the update.
            match detector.observe(&guard_policy, v, model.store.grad_global_norm()) {
                StepVerdict::Apply => {
                    opt.step(&mut model.store);
                    epoch_loss += f64::from(v);
                    steps_done += 1;
                }
                StepVerdict::Skip(_) => model.store.zero_grads(),
                StepVerdict::Rollback(anomaly) => {
                    // Head-only training keeps no checkpoints; a
                    // persistent anomaly has nowhere to roll back to.
                    return Err(TasteError::Training(format!(
                        "persistent anomaly in head fine-tuning: {anomaly:?} (loss {v})"
                    )));
                }
            }
        }
        losses.push((epoch_loss / steps_done.max(1) as f64) as f32);
    }
    Ok(losses)
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
        train_adtd(&mut model, &base_inputs(), &TrainConfig { epochs: 16, batch_size: 4, lr: 2.5e-3, ..Default::default() })
            .unwrap();
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
        train_adtd(&mut model, &base_inputs(), &TrainConfig { epochs: 16, batch_size: 4, lr: 2.5e-3, ..Default::default() })
            .unwrap();
        extend_types(&mut model, 4).unwrap();

        // Snapshot an encoder parameter.
        let enc_param = model.store.id_by_name("enc.layer0.attn.q.w").expect("encoder param");
        let enc_before = model.store.value(enc_param).clone();

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
        let losses = train_heads_only(&mut model, &new_inputs, 14, 4e-3, 4.0, 1).unwrap();
        assert!(losses.last().unwrap() < losses.first().unwrap(), "{losses:?}");

        // Encoder untouched.
        assert_eq!(model.store.value(enc_param), &enc_before);

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
