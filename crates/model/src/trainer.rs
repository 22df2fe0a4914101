//! Fine-tuning loops (§6.1.3: 20 epochs of full fine-tuning per dataset).
//!
//! ADTD trains with per-tower multi-label BCE combined by the automatic
//! weighted loss; gradients from both towers flow into the shared
//! encoder. Baselines train with a single BCE.

use crate::adtd::Adtd;
use crate::baselines::SingleTower;
use crate::prepare::ModelInput;
use crate::resilience::{ResilienceDriver, ResumableReport, StepOutcome, TrainResilience};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use taste_core::TasteError;
use taste_nn::checkpoint::TrainProgress;
use taste_nn::losses::multilabel_bce;
use taste_nn::{Adam, AdamConfig, LrSchedule, Matrix, Tape};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Fine-tuning epochs.
    pub epochs: usize,
    /// Chunks per optimizer step.
    pub batch_size: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Gradient clip (global norm); 0 disables.
    pub clip_norm: f32,
    /// Shuffle / dropout seed.
    pub seed: u64,
    /// Warmup fraction of total steps.
    pub warmup_frac: f32,
    /// Positive-decision weight in the multi-label BCE. With a domain of
    /// dozens of types and one or two positives per column, an
    /// unweighted BCE spends most of its gradient pushing negatives
    /// down; a moderate positive weight restores the signal.
    pub pos_weight: f32,
    /// Freeze the automatic-weighted-loss weights at their (unit
    /// effective weight) initialization. In the paper's regime the AWL
    /// weights converge gracefully over 20 epochs on 628K columns; in
    /// the reproduction's short-training regime they run away from the
    /// harder (higher-loss) task and starve it of gradient — freezing
    /// keeps the two towers' multi-task balance fixed at 1:1.
    pub freeze_awl: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 8,
            lr: 1e-3,
            clip_norm: 1.0,
            seed: 0,
            warmup_frac: 0.1,
            pos_weight: 4.0,
            freeze_awl: false,
        }
    }
}

/// Per-epoch mean losses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean combined loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// Whether the loss decreased from the first epoch to the last.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(a), Some(b)) => b < a,
            _ => false,
        }
    }
}

fn make_optimizer(cfg: &TrainConfig, total_steps: usize) -> Adam {
    Adam::new(
        AdamConfig { lr: cfg.lr, clip_norm: cfg.clip_norm, weight_decay: 0.02, ..Default::default() },
        LrSchedule::LinearWarmupDecay {
            warmup: ((total_steps as f32 * cfg.warmup_frac) as usize).max(1),
            total: total_steps.max(2),
        },
    )
}

/// Fine-tunes an [`Adtd`] on prepared inputs.
///
/// # Errors
/// Returns [`TasteError::Training`] if a non-finite loss appears.
pub fn train_adtd(model: &mut Adtd, inputs: &[ModelInput], cfg: &TrainConfig) -> Result<TrainReport, TasteError> {
    if inputs.is_empty() {
        return Err(TasteError::invalid("no training inputs"));
    }
    let steps_per_epoch = inputs.len().div_ceil(cfg.batch_size);
    let mut opt = make_optimizer(cfg, steps_per_epoch * cfg.epochs);
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    for _epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut steps = 0usize;
        for batch in order.chunks(cfg.batch_size) {
            let mut tape = Tape::new();
            let mut meta_losses = Vec::new();
            let mut content_losses = Vec::new();
            let mut meta_cols = 0usize;
            let mut content_cols_total = 0usize;
            for &i in batch {
                let input = inputs[i].shuffled(&mut rng);
                let input = &input;
                let fwd = model.forward_train(&mut tape, input, Some(&mut rng));
                let targets = Matrix::from_rows(&input.targets);
                meta_cols += input.targets.len();
                meta_losses.push(tape.bce_with_logits_weighted_sum(fwd.meta_logits, targets, cfg.pos_weight));
                if let Some(logits) = fwd.content_logits {
                    let sub: Vec<Vec<f32>> = fwd
                        .content_cols
                        .iter()
                        .map(|&j| input.targets[j].clone())
                        .collect();
                    content_cols_total += sub.len();
                    content_losses.push(tape.bce_with_logits_weighted_sum(logits, Matrix::from_rows(&sub), cfg.pos_weight));
                }
            }
            let meta_sum = sum_nodes(&mut tape, &meta_losses);
            let meta_loss = tape.scale(meta_sum, 1.0 / meta_cols.max(1) as f32);
            let content_loss = if content_losses.is_empty() {
                tape.leaf(taste_nn::Matrix::scalar(0.0))
            } else {
                let s = sum_nodes(&mut tape, &content_losses);
                tape.scale(s, 1.0 / content_cols_total.max(1) as f32)
            };
            let total = model.awl.combine(&mut tape, &model.store, &[meta_loss, content_loss]);
            let loss_val = tape.value(total).item();
            if !loss_val.is_finite() {
                return Err(TasteError::Training(format!("non-finite loss {loss_val}")));
            }
            tape.backward(total);
            tape.accumulate_param_grads(&mut model.store);
            if cfg.freeze_awl {
                model.store.grad_mut(model.awl.weights).fill_zero();
            }
            opt.step(&mut model.store);
            epoch_loss += f64::from(loss_val);
            steps += 1;
        }
        epoch_losses.push((epoch_loss / steps.max(1) as f64) as f32);
    }
    Ok(TrainReport { epoch_losses })
}

/// Crash-safe variant of [`train_adtd`]: periodic full-state
/// checkpoints, resume-on-start, and numerical-fault containment, all
/// configured by `res`.
///
/// With a checkpoint directory set, killing the process at any point
/// and calling this again with a freshly constructed model (same
/// constructor seed) and the same configs resumes from the last
/// checkpoint and produces **bit-identical** final parameters and
/// per-step losses to an uninterrupted run: the loop's shuffle order,
/// input subsampling, and dropout all draw from a checkpointable RNG
/// carried in [`TrainProgress`], and parameter/moment values travel
/// through the checkpoint as raw bits.
///
/// # Errors
/// [`TasteError::InvalidArgument`] on empty input;
/// [`TasteError::Training`] when the anomaly rollback budget is
/// exhausted; [`TasteError::Serde`] on checkpoint I/O failure.
pub fn train_adtd_resumable(
    model: &mut Adtd,
    inputs: &[ModelInput],
    cfg: &TrainConfig,
    res: &TrainResilience,
) -> Result<ResumableReport, TasteError> {
    if inputs.is_empty() {
        return Err(TasteError::invalid("no training inputs"));
    }
    let steps_per_epoch = inputs.len().div_ceil(cfg.batch_size);
    let mut opt = make_optimizer(cfg, steps_per_epoch * cfg.epochs);
    let mut driver = ResilienceDriver::new(res)?;
    let mut st = match driver.resume(&mut model.store, &mut opt)? {
        Some(progress) => progress,
        None => TrainProgress::fresh(inputs.len(), cfg.seed),
    };
    let batches_per_epoch = steps_per_epoch as u64;
    let mut halted = false;

    while (st.epoch as usize) < cfg.epochs {
        if driver.should_halt(&st) {
            halted = true;
            break;
        }
        // `batch == 0` always means "epoch not started": the cursor
        // never rests at 0 mid-epoch, so shuffling here replays
        // identically whether the epoch boundary was crossed live or
        // restored from a checkpoint.
        if st.batch == 0 {
            st.order.shuffle(&mut st.rng);
        }
        let lo = st.batch as usize * cfg.batch_size;
        let hi = (lo + cfg.batch_size).min(inputs.len());
        let batch: Vec<usize> = st.order[lo..hi].iter().map(|&i| i as usize).collect();

        let mut tape = Tape::new();
        let mut meta_losses = Vec::new();
        let mut content_losses = Vec::new();
        let mut meta_cols = 0usize;
        let mut content_cols_total = 0usize;
        for &i in &batch {
            let input = inputs[i].shuffled(&mut st.rng);
            let input = &input;
            let fwd = model.forward_train(&mut tape, input, Some(&mut st.rng));
            let targets = Matrix::from_rows(&input.targets);
            meta_cols += input.targets.len();
            meta_losses.push(tape.bce_with_logits_weighted_sum(fwd.meta_logits, targets, cfg.pos_weight));
            if let Some(logits) = fwd.content_logits {
                let sub: Vec<Vec<f32>> = fwd
                    .content_cols
                    .iter()
                    .map(|&j| input.targets[j].clone())
                    .collect();
                content_cols_total += sub.len();
                content_losses.push(tape.bce_with_logits_weighted_sum(logits, Matrix::from_rows(&sub), cfg.pos_weight));
            }
        }
        let meta_sum = sum_nodes(&mut tape, &meta_losses);
        let meta_loss = tape.scale(meta_sum, 1.0 / meta_cols.max(1) as f32);
        let content_loss = if content_losses.is_empty() {
            tape.leaf(taste_nn::Matrix::scalar(0.0))
        } else {
            let s = sum_nodes(&mut tape, &content_losses);
            tape.scale(s, 1.0 / content_cols_total.max(1) as f32)
        };
        let total = model.awl.combine(&mut tape, &model.store, &[meta_loss, content_loss]);
        let loss_val = tape.value(total).item();
        // Unlike `train_adtd`, a non-finite loss is not fatal here: it
        // flows to the detector, which skips (or rolls back) the step.
        tape.backward(total);
        tape.accumulate_param_grads(&mut model.store);
        if cfg.freeze_awl {
            model.store.grad_mut(model.awl.weights).fill_zero();
        }
        match driver.after_backward(&mut model.store, &mut opt, &mut st, loss_val)? {
            StepOutcome::Applied => {
                st.record_loss(loss_val);
                st.advance(batches_per_epoch);
                driver.maybe_checkpoint(&model.store, &opt, &mut st)?;
            }
            StepOutcome::Skipped(_) => st.advance(batches_per_epoch),
            StepOutcome::RolledBack => {} // cursor rewound; just loop
        }
    }
    Ok(ResilienceDriver::finish(st, &opt, halted))
}

/// Fine-tunes a [`SingleTower`] baseline on prepared inputs.
///
/// # Errors
/// Returns [`TasteError::Training`] if a non-finite loss appears.
pub fn train_single_tower(
    model: &mut SingleTower,
    inputs: &[ModelInput],
    cfg: &TrainConfig,
) -> Result<TrainReport, TasteError> {
    if inputs.is_empty() {
        return Err(TasteError::invalid("no training inputs"));
    }
    let steps_per_epoch = inputs.len().div_ceil(cfg.batch_size);
    let mut opt = make_optimizer(cfg, steps_per_epoch * cfg.epochs);
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    for _epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut steps = 0usize;
        for batch in order.chunks(cfg.batch_size) {
            let mut tape = Tape::new();
            let mut losses = Vec::new();
            let mut cols = 0usize;
            for &i in batch {
                let input = inputs[i].shuffled(&mut rng);
                let input = &input;
                let logits = model.forward_train(&mut tape, input);
                cols += input.targets.len();
                losses.push(tape.bce_with_logits_weighted_sum(logits, Matrix::from_rows(&input.targets), cfg.pos_weight));
            }
            let sum = sum_nodes(&mut tape, &losses);
            let loss = tape.scale(sum, 1.0 / cols.max(1) as f32);
            let loss_val = tape.value(loss).item();
            if !loss_val.is_finite() {
                return Err(TasteError::Training(format!("non-finite loss {loss_val}")));
            }
            tape.backward(loss);
            tape.accumulate_param_grads(&mut model.store);
            opt.step(&mut model.store);
            epoch_loss += f64::from(loss_val);
            steps += 1;
        }
        epoch_losses.push((epoch_loss / steps.max(1) as f64) as f32);
    }
    Ok(TrainReport { epoch_losses })
}

fn sum_nodes(tape: &mut Tape, nodes: &[taste_nn::NodeId]) -> taste_nn::NodeId {
    let mut acc = nodes[0];
    for &n in &nodes[1..] {
        acc = tape.add(acc, n);
    }
    acc
}

/// Equivalent of [`multilabel_bce`] exposed for tests that need the same
/// normalization the trainer applies.
pub fn eval_bce(tape: &mut Tape, logits: taste_nn::NodeId, targets: taste_nn::Matrix, batch: usize) -> taste_nn::NodeId {
    multilabel_bce(tape, logits, targets, batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::BaselineKind;
    use crate::config::ModelConfig;
    use crate::features::NONMETA_DIM;
    use crate::prepare::TableChunk;
    use taste_tokenizer::{ColumnContent, Tokenizer, VocabBuilder};

    fn tokenizer() -> Tokenizer {
        let mut b = VocabBuilder::new();
        for w in ["orders", "city", "phone", "alpha", "beta", "text", "int"] {
            b.add_word(w);
            b.add_word(w);
        }
        Tokenizer::new(b.build(100, 1))
    }

    /// Two linearly separable pseudo-types: columns named "city…" hold
    /// "alpha" content and type 1; "phone…" hold "beta" and type 2.
    fn toy_inputs(n: usize) -> Vec<ModelInput> {
        (0..n)
            .map(|i| {
                let is_city = i % 2 == 0;
                let (name, word, target) = if is_city {
                    ("city", "alpha", vec![0.0, 1.0, 0.0])
                } else {
                    ("phone", "beta", vec![0.0, 0.0, 1.0])
                };
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
            })
            .collect()
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig { epochs: 16, batch_size: 4, lr: 2.5e-3, ..Default::default() }
    }

    #[test]
    fn adtd_learns_separable_toy_task() {
        let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 3, 0);
        let inputs = toy_inputs(16);
        let report = train_adtd(&mut model, &inputs, &quick_cfg()).unwrap();
        assert!(report.improved(), "losses: {:?}", report.epoch_losses);
        // Both towers should now classify the toy task.
        let input = &inputs[0];
        let mut inf = crate::Inferencer::default();
        let enc = inf.encode_meta(&model, &input.chunk);
        let probs = inf.predict_meta(&model, &enc, &input.chunk.nonmeta);
        assert!(
            probs[0][1] > probs[0][2],
            "metadata tower should prefer type 1 for city: {:?}",
            probs[0]
        );
        let contents: Vec<_> = input.contents.iter().cloned().map(Some).collect();
        let cprobs = inf.predict_content(&model, &enc, &contents, &input.chunk.nonmeta);
        let row = cprobs[0].as_ref().unwrap();
        assert!(row[1] > row[2], "content tower should prefer type 1: {row:?}");
    }

    #[test]
    fn baselines_learn_separable_toy_task() {
        for kind in [BaselineKind::Turl, BaselineKind::Doduo] {
            let mut model = SingleTower::new(kind, &ModelConfig::tiny(), tokenizer(), 3, 0);
            let inputs = toy_inputs(16);
            let report = train_single_tower(&mut model, &inputs, &quick_cfg()).unwrap();
            assert!(report.improved(), "{kind:?} losses: {:?}", report.epoch_losses);
            let probs = model.predict(&inputs[1].chunk, &inputs[1].contents);
            assert!(probs[0][2] > probs[0][1], "{kind:?} should prefer type 2: {:?}", probs[0]);
        }
    }

    #[test]
    fn empty_inputs_error() {
        let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 3, 0);
        assert!(train_adtd(&mut model, &[], &quick_cfg()).is_err());
        let mut st = SingleTower::new(BaselineKind::Turl, &ModelConfig::tiny(), tokenizer(), 3, 0);
        assert!(train_single_tower(&mut st, &[], &quick_cfg()).is_err());
    }

    #[test]
    fn training_is_seed_deterministic() {
        let run = |seed| {
            let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 3, 7);
            let cfg = TrainConfig { seed, epochs: 2, ..quick_cfg() };
            train_adtd(&mut model, &toy_inputs(8), &cfg).unwrap().epoch_losses
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn awl_weights_move_during_training() {
        let mut model = Adtd::new(ModelConfig::tiny(), tokenizer(), 3, 0);
        let w_before = model.store.value(model.awl.weights).clone();
        train_adtd(&mut model, &toy_inputs(8), &quick_cfg()).unwrap();
        let w_after = model.store.value(model.awl.weights).clone();
        assert_ne!(w_before, w_after, "AWL weights should be learnable");
    }
}
