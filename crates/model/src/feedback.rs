//! User-feedback adaptation (the paper's second future-work direction,
//! §8): adjust the model online from accept / reject verdicts on
//! individual detections.
//!
//! A catalog UI surfaces detected types; users confirm or correct them.
//! Each verdict is a *partial* label — it says something about exactly
//! one (column, type) pair and nothing about the other types. Feedback
//! application therefore optimizes the BCE of only the judged logits,
//! only through the classifier heads (encoder frozen), so a handful of
//! clicks cannot distort the shared representation.

use crate::adtd::Adtd;
use crate::prepare::TableChunk;
use taste_core::{TasteError, TypeId};
use taste_nn::{Adam, AdamConfig, Forward, LrSchedule, Matrix, Tape};

/// One user verdict on one detection.
#[derive(Debug, Clone)]
pub struct Feedback {
    /// The metadata chunk the detection was made on.
    pub chunk: TableChunk,
    /// Column index within the chunk.
    pub column: usize,
    /// The judged semantic type.
    pub type_id: TypeId,
    /// `true` = "this detection is correct" (drive probability up);
    /// `false` = "wrong" (drive it down).
    pub accepted: bool,
}

/// Outcome of a feedback application.
#[derive(Debug, Clone)]
pub struct FeedbackReport {
    /// Number of verdicts applied.
    pub applied: usize,
    /// Mean per-verdict loss before the updates.
    pub loss_before: f32,
    /// Mean per-verdict loss after the updates.
    pub loss_after: f32,
}

fn verdict_loss(model: &Adtd, tape: &mut Tape, fb: &Feedback) -> Result<taste_nn::NodeId, TasteError> {
    if fb.type_id.index() >= model.ntypes {
        return Err(TasteError::invalid(format!(
            "feedback type {} outside domain of width {}",
            fb.type_id.0, model.ntypes
        )));
    }
    let packed = model.pack_meta(&fb.chunk);
    let marker = *packed
        .col_marker_pos
        .get(fb.column)
        .ok_or_else(|| TasteError::invalid(format!("feedback column {} out of range", fb.column)))?;
    let tokens: Vec<usize> = packed.tokens.iter().map(|&t| t as usize).collect();
    let latents = model.encoder.forward_meta(tape, &model.store, &[&tokens]);
    let final_latent = *latents.last().expect("layers");
    let row = tape.gather_rows(final_latent, &[marker]);
    let feats = tape.leaf(Matrix::row(fb.chunk.nonmeta[fb.column].clone()));
    let x = tape.hcat(row, feats);
    let logits = model.meta_head().forward(tape, &model.store, x);
    let judged = tape.slice_cols(logits, fb.type_id.index(), 1);
    let target = Matrix::scalar(if fb.accepted { 1.0 } else { 0.0 });
    Ok(tape.bce_with_logits_sum(judged, target))
}

/// Applies a batch of verdicts with `rounds` head-only gradient passes.
///
/// # Errors
/// Returns an error for empty feedback, out-of-domain types, or
/// out-of-range columns.
pub fn apply_feedback(
    model: &mut Adtd,
    feedback: &[Feedback],
    rounds: usize,
    lr: f32,
) -> Result<FeedbackReport, TasteError> {
    if feedback.is_empty() {
        return Err(TasteError::invalid("no feedback to apply"));
    }
    let mean_loss = |model: &Adtd| -> Result<f32, TasteError> {
        let mut total = 0.0f64;
        for fb in feedback {
            let mut tape = Tape::new();
            let loss = verdict_loss(model, &mut tape, fb)?;
            total += f64::from(tape.value(loss).item());
        }
        Ok((total / feedback.len() as f64) as f32)
    };
    let loss_before = mean_loss(model)?;

    let trainable = model.head_param_ids();
    model.store.reset_optimizer_state();
    let mut opt = Adam::new(
        AdamConfig { lr, clip_norm: 1.0, ..Default::default() },
        LrSchedule::Constant,
    );
    for _ in 0..rounds {
        let mut tape = Tape::new();
        let mut total: Option<taste_nn::NodeId> = None;
        for fb in feedback {
            let loss = verdict_loss(model, &mut tape, fb)?;
            total = Some(match total {
                Some(acc) => tape.add(acc, loss),
                None => loss,
            });
        }
        let total = total.expect("non-empty feedback");
        let total = tape.scale(total, 1.0 / feedback.len() as f32);
        tape.backward(total);
        tape.accumulate_param_grads(&mut model.store);
        let frozen: Vec<_> = model.store.ids().filter(|id| !trainable.contains(id)).collect();
        for id in frozen {
            model.store.grad_mut(id).fill_zero();
        }
        opt.step(&mut model.store);
    }
    let loss_after = mean_loss(model)?;
    Ok(FeedbackReport { applied: feedback.len(), loss_before, loss_after })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::features::NONMETA_DIM;
    use taste_tokenizer::{Tokenizer, VocabBuilder};

    fn tokenizer() -> Tokenizer {
        let mut b = VocabBuilder::new();
        for w in ["orders", "num", "text", "city"] {
            b.add_word(w);
            b.add_word(w);
        }
        Tokenizer::new(b.build(100, 1))
    }

    fn chunk() -> TableChunk {
        TableChunk {
            table_text: "orders".into(),
            col_texts: vec!["num text".into(), "city text".into()],
            nonmeta: vec![vec![0.0; NONMETA_DIM]; 2],
            ordinals: vec![0, 1],
        }
    }

    fn prob_of(model: &Adtd, column: usize, ty: TypeId) -> f32 {
        let c = chunk();
        let mut inf = crate::Inferencer::default();
        let enc = inf.encode_meta(model, &c);
        let probs = inf.predict_meta(model, &enc, &c.nonmeta);
        probs[column][ty.index()]
    }

    #[test]
    fn accepting_feedback_raises_probability() {
        let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 4, 0);
        let ty = TypeId(2);
        let before = prob_of(&model, 0, ty);
        let report = apply_feedback(
            &mut model,
            &[Feedback { chunk: chunk(), column: 0, type_id: ty, accepted: true }],
            20,
            5e-3,
        )
        .unwrap();
        let after = prob_of(&model, 0, ty);
        assert!(after > before, "accept should raise probability: {before} -> {after}");
        assert!(report.loss_after < report.loss_before);
        assert_eq!(report.applied, 1);
    }

    #[test]
    fn rejecting_feedback_lowers_probability() {
        let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 4, 0);
        let ty = TypeId(1);
        let before = prob_of(&model, 1, ty);
        apply_feedback(
            &mut model,
            &[Feedback { chunk: chunk(), column: 1, type_id: ty, accepted: false }],
            20,
            5e-3,
        )
        .unwrap();
        let after = prob_of(&model, 1, ty);
        assert!(after < before, "reject should lower probability: {before} -> {after}");
    }

    #[test]
    fn feedback_does_not_touch_the_encoder() {
        let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 4, 0);
        let enc_param = model.store.id_by_name("enc.layer0.attn.q.w").unwrap();
        let before = model.store.value(enc_param).clone();
        apply_feedback(
            &mut model,
            &[Feedback { chunk: chunk(), column: 0, type_id: TypeId(3), accepted: true }],
            5,
            5e-3,
        )
        .unwrap();
        assert_eq!(model.store.value(enc_param), &before);
    }

    #[test]
    fn invalid_feedback_is_rejected() {
        let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 4, 0);
        assert!(apply_feedback(&mut model, &[], 5, 1e-3).is_err());
        let bad_type = Feedback { chunk: chunk(), column: 0, type_id: TypeId(99), accepted: true };
        assert!(apply_feedback(&mut model, &[bad_type], 5, 1e-3).is_err());
        let bad_col = Feedback { chunk: chunk(), column: 9, type_id: TypeId(1), accepted: true };
        assert!(apply_feedback(&mut model, &[bad_col], 5, 1e-3).is_err());
    }

    #[test]
    fn conflicting_feedback_still_converges() {
        // Accept on one column, reject on the other, same type.
        let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 4, 0);
        let ty = TypeId(2);
        let report = apply_feedback(
            &mut model,
            &[
                Feedback { chunk: chunk(), column: 0, type_id: ty, accepted: true },
                Feedback { chunk: chunk(), column: 1, type_id: ty, accepted: false },
            ],
            25,
            5e-3,
        )
        .unwrap();
        assert!(report.loss_after < report.loss_before);
        assert!(prob_of(&model, 0, ty) > prob_of(&model, 1, ty));
    }
}
