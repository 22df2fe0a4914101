//! The one training loop, crash-safe and anomaly-guarded.
//!
//! Every model in this crate trains through the private `fit`:
//! [`crate::trainer::train_adtd`], [`crate::trainer::train_single_tower`],
//! [`crate::pretrain::pretrain_encoder`] and
//! [`crate::extend::train_heads_only`] each supply an optimizer and a
//! closure that builds one batch's loss node; `fit` owns everything else
//! — the cursor and loop-top shuffle, one [`Tape`] per step, backward,
//! gradient accumulation, the frozen-parameter hook and the optimizer
//! step.
//!
//! The serving path already survives crashes (journaled detection runs)
//! and bad inputs (panic isolation); `fit` gives the *training* path the
//! same two properties:
//!
//! * **resume-on-start** — the newest intact checkpoint in the
//!   configured directory is restored (corrupt files are quarantined
//!   and skipped), and the loop continues from its cursor through the
//!   same RNG stream, so a killed-and-resumed run is bit-identical to
//!   an uninterrupted one;
//! * **periodic checkpoints** — full state (params, Adam moments and
//!   step, LR position, cursor, RNG, loss history, detector) saved
//!   atomically on the [`CheckpointPolicy`] cadence with rotation;
//! * **numerical-fault containment** — every step's loss and global
//!   gradient norm pass through the [`taste_nn::guard`] detector;
//!   anomalous steps are skipped (gradients dropped), and consecutive
//!   anomalies roll the run back to the previous checkpoint at a
//!   reduced learning rate.
//!
//! Fault injection mirrors the database's seeded `FaultProfile` idiom:
//! a [`FaultInjection`] names the exact steps to poison, and each named
//! step fires once — after a rollback replays it, the fault does not
//! recur, exactly like a transient production fault.

use std::path::PathBuf;

use rand::seq::SliceRandom;
use rustc_hash::FxHashSet;
use taste_core::rng::SplitMix64Rng;
use taste_core::TasteError;
use taste_nn::checkpoint::{CheckpointPolicy, CheckpointStore, TrainCheckpoint, TrainProgress};
use taste_nn::guard::{AnomalyPolicy, StepVerdict};
use taste_nn::{Adam, AdamConfig, LrSchedule, NodeId, ParamId, ParamStore, Tape};

use crate::trainer::TrainReport;

/// Crash-safety and anomaly-containment settings of a training run;
/// `TrainResilience::default()` trains without checkpoints.
#[derive(Debug, Clone, Default)]
pub struct TrainResilience {
    /// Checkpoint directory. `None` trains without checkpoints: anomaly
    /// containment stays active, but rollback degrades to
    /// skip-and-reduce-LR.
    pub dir: Option<PathBuf>,
    /// Checkpoint cadence and retention.
    pub policy: CheckpointPolicy,
    /// Anomaly thresholds and escalation limits.
    pub anomaly: AnomalyPolicy,
    /// Stop after this many processed steps — a simulated kill for
    /// tests and benchmarks. The run returns early with `halted = true`
    /// and writes **no** extra checkpoint, so resuming replays from the
    /// last periodic one like a real crash.
    pub halt_after_steps: Option<u64>,
    /// Deterministic numerical-fault injection.
    pub inject: FaultInjection,
}

impl TrainResilience {
    /// Checkpoints into `dir` with default cadence and anomaly policy.
    pub fn with_dir(dir: impl Into<PathBuf>) -> TrainResilience {
        TrainResilience { dir: Some(dir.into()), ..TrainResilience::default() }
    }
}

/// Steps to poison, by kind. A step listed here fires **once** per run
/// object: after a rollback replays the step, the fault does not recur
/// (a step-keyed fault that re-fired forever would defeat rollback by
/// construction). List each step under at most one kind.
#[derive(Debug, Clone)]
pub struct FaultInjection {
    /// Steps whose gradients are poisoned with NaN after backward.
    pub nan_grad_steps: Vec<u64>,
    /// Steps whose loss reaches the detector as NaN.
    pub nan_loss_steps: Vec<u64>,
    /// Steps whose loss reaches the detector scaled by `spike_scale`.
    pub spike_loss_steps: Vec<u64>,
    /// Multiplier applied on `spike_loss_steps`.
    pub spike_scale: f32,
}

impl Default for FaultInjection {
    fn default() -> Self {
        FaultInjection {
            nan_grad_steps: Vec::new(),
            nan_loss_steps: Vec::new(),
            spike_loss_steps: Vec::new(),
            spike_scale: 100.0,
        }
    }
}

/// The per-step outcome [`ResilienceDriver::after_backward`] reports to
/// `fit`.
enum StepOutcome {
    /// The optimizer stepped: record the loss and advance the cursor.
    Applied,
    /// The step was anomalous: gradients were dropped, nothing was
    /// applied. Advance the cursor without recording a loss.
    Skipped,
    /// The run was rolled back to an earlier checkpoint; the cursor
    /// moved *backwards*. Do not advance — loop again from the restored
    /// progress.
    RolledBack,
}

/// The checkpoint, fault-injection and anomaly mechanics of `fit`.
struct ResilienceDriver {
    store: Option<CheckpointStore>,
    cfg: TrainResilience,
    fired: FxHashSet<u64>,
    n_items: usize,
    batches_per_epoch: u64,
}

impl ResilienceDriver {
    /// Builds the driver for a run over `n_items` items in
    /// `batches_per_epoch` batches, creating the checkpoint directory if
    /// one is configured.
    fn new(cfg: &TrainResilience, n_items: usize, batches_per_epoch: u64) -> Result<ResilienceDriver, TasteError> {
        let store = match &cfg.dir {
            Some(dir) => Some(CheckpointStore::new(dir, cfg.policy)?),
            None => None,
        };
        Ok(ResilienceDriver { store, cfg: cfg.clone(), fired: FxHashSet::default(), n_items, batches_per_epoch })
    }

    /// A checkpoint is outside input even when its CRC holds: the
    /// directory may have been written by a run over another dataset or
    /// batch size. Rejects a cursor `fit` could not index with.
    fn check_progress(&self, progress: &TrainProgress) -> Result<(), TasteError> {
        let mut seen = vec![false; self.n_items];
        let is_permutation = progress.order.len() == self.n_items
            && progress.order.iter().all(|&i| {
                seen.get_mut(i as usize).is_some_and(|s| !std::mem::replace(s, true))
            });
        if !is_permutation {
            return Err(TasteError::corrupt(format!(
                "checkpoint at step {} orders {} items, not a permutation of the {} being trained on",
                progress.step,
                progress.order.len(),
                self.n_items
            )));
        }
        if progress.batch >= self.batches_per_epoch {
            return Err(TasteError::corrupt(format!(
                "checkpoint at step {} points at batch {} of an epoch of {}",
                progress.step, progress.batch, self.batches_per_epoch
            )));
        }
        Ok(())
    }

    /// Restores the newest intact checkpoint into `params` and `opt`;
    /// returns its progress and the number of corrupt files quarantined
    /// on the way, or `None` when there is nothing to restore. The
    /// progress is validated before anything is overwritten.
    ///
    /// # Errors
    /// [`TasteError::Corrupt`] when an intact-looking checkpoint does
    /// not match the model or the dataset (another run's directory).
    fn restore_latest(
        &self,
        params: &mut ParamStore,
        opt: &mut Adam,
    ) -> Result<Option<(TrainProgress, u64)>, TasteError> {
        let Some(cs) = &self.store else { return Ok(None) };
        let outcome = cs.load_latest()?;
        let Some((_step, ck)) = outcome.loaded else { return Ok(None) };
        self.check_progress(&ck.progress)?;
        Ok(Some((ck.restore(params, opt)?, outcome.quarantined)))
    }

    /// The progress a run starts from: the newest checkpoint's, or fresh.
    fn resume(&self, params: &mut ParamStore, opt: &mut Adam, seed: u64) -> Result<TrainProgress, TasteError> {
        Ok(match self.restore_latest(params, opt)? {
            Some((mut progress, quarantined)) => {
                progress.health.resumed_from_step = Some(progress.step);
                progress.health.checkpoints_quarantined += quarantined;
                progress
            }
            None => TrainProgress::fresh(self.n_items, seed),
        })
    }

    /// Whether the simulated-kill point has been reached.
    fn should_halt(&self, progress: &TrainProgress) -> bool {
        self.cfg.halt_after_steps.is_some_and(|h| progress.step >= h)
    }

    /// Applies any one-shot fault configured for this step; returns the
    /// loss value the detector should observe.
    fn inject(&mut self, step: u64, loss: f32, params: &mut ParamStore) -> f32 {
        if self.cfg.inject.nan_grad_steps.contains(&step) && self.fired.insert(step) {
            if let Some(id) = params.ids().next() {
                params.grad_mut(id).as_mut_slice()[0] = f32::NAN;
            }
            return loss;
        }
        if self.cfg.inject.nan_loss_steps.contains(&step) && self.fired.insert(step) {
            return f32::NAN;
        }
        if self.cfg.inject.spike_loss_steps.contains(&step) && self.fired.insert(step) {
            return loss * self.cfg.inject.spike_scale;
        }
        loss
    }

    /// The per-step decision point, called after backward with the
    /// gradients accumulated (and any frozen gradients already zeroed)
    /// but *before* the optimizer step: injects configured faults, runs
    /// the anomaly detector, and either applies the update, skips the
    /// step, or rolls back to the previous checkpoint.
    ///
    /// # Errors
    /// [`TasteError::Training`] once the rollback budget is exhausted —
    /// the run is not converging and silently continuing would burn
    /// compute on a poisoned model.
    fn after_backward(
        &mut self,
        params: &mut ParamStore,
        opt: &mut Adam,
        progress: &mut TrainProgress,
        loss: f32,
    ) -> Result<StepOutcome, TasteError> {
        let observed = self.inject(progress.step, loss, params);
        let grad_norm = params.grad_global_norm();
        match progress.detector.observe(&self.cfg.anomaly, observed, grad_norm) {
            StepVerdict::Apply => {
                opt.step(params);
                progress.health.steps_applied += 1;
                Ok(StepOutcome::Applied)
            }
            StepVerdict::Skip(anomaly) => {
                params.zero_grads();
                progress.health.record_anomaly(anomaly);
                Ok(StepOutcome::Skipped)
            }
            StepVerdict::Rollback(anomaly) => {
                params.zero_grads();
                progress.health.record_anomaly(anomaly);
                progress.health.rollbacks += 1;
                if progress.health.rollbacks > self.cfg.anomaly.max_rollbacks {
                    return Err(TasteError::Training(format!(
                        "aborting after {} rollbacks (latest: {anomaly:?} at step {})",
                        progress.health.rollbacks, progress.step
                    )));
                }
                let restored = self.restore_latest(params, opt)?;
                opt.config.lr *= self.cfg.anomaly.lr_backoff;
                match restored {
                    Some((back, quarantined)) => {
                        // Live counters must survive the restore: the
                        // restored progress carries the *old* health,
                        // and rewinding the anomaly history would both
                        // under-report and reset the rollback budget.
                        let mut health = std::mem::take(&mut progress.health);
                        health.checkpoints_quarantined += quarantined;
                        *progress = TrainProgress { health, ..back };
                        // Persist the reduced LR and the anomaly counts
                        // immediately: a crash right after rollback must
                        // not resume at the un-reduced rate.
                        self.save_now(params, opt, progress)?;
                        Ok(StepOutcome::RolledBack)
                    }
                    // Nothing to roll back to (no checkpointing, or no
                    // checkpoint yet): contain locally.
                    None => Ok(StepOutcome::Skipped),
                }
            }
        }
    }

    /// Saves a checkpoint when the periodic cadence is due.
    ///
    /// # Errors
    /// [`TasteError::Serde`] on I/O failure.
    fn maybe_checkpoint(&self, params: &ParamStore, opt: &Adam, progress: &mut TrainProgress) -> Result<(), TasteError> {
        if self.cfg.policy.due(progress.step) {
            self.save_now(params, opt, progress)?;
        }
        Ok(())
    }

    fn save_now(&self, params: &ParamStore, opt: &Adam, progress: &mut TrainProgress) -> Result<(), TasteError> {
        let Some(cs) = &self.store else { return Ok(()) };
        progress.health.checkpoints_written += 1;
        cs.save(&TrainCheckpoint::capture(params, opt, progress))?;
        Ok(())
    }

    /// Packages the final state of a completed (or halted) run.
    fn finish(progress: TrainProgress, opt: &Adam, halted: bool) -> TrainReport {
        let mut health = progress.health;
        health.final_lr = opt.config.lr;
        TrainReport { epoch_losses: progress.epoch_losses, step_losses: progress.step_losses, health, halted }
    }
}

/// The shape of one run: what `fit` iterates over and which parameters
/// it holds still.
pub(crate) struct Plan<'a> {
    /// Items in the training set; batches index `0..n_items`.
    pub n_items: usize,
    /// Passes over the set.
    pub epochs: usize,
    /// Items per optimizer step.
    pub batch_size: usize,
    /// Seed of the shuffle / subsampling / masking / dropout stream.
    pub seed: u64,
    /// Parameters whose gradients are zeroed after every backward, so the
    /// detector sees the effective gradient norm and the optimizer never
    /// moves them.
    pub frozen: &'a [ParamId],
}

/// The optimizer of MLM pre-training and head-only fine-tuning: Adam at
/// `lr`, clipped at unit norm, warming up linearly over the first tenth
/// of the run's `steps` and decaying over the rest.
pub(crate) fn warmup_adam(lr: f32, steps: usize) -> Adam {
    Adam::new(
        AdamConfig { lr, clip_norm: 1.0, ..Default::default() },
        LrSchedule::LinearWarmupDecay { warmup: (steps / 10).max(1), total: steps.max(2) },
    )
}

/// Adds up a non-empty list of scalar loss nodes.
pub(crate) fn sum_nodes(tape: &mut Tape, nodes: &[NodeId]) -> NodeId {
    nodes[1..].iter().fold(nodes[0], |acc, &n| tape.add(acc, n))
}

/// The one training loop. `optimizer` builds the run's Adam from its
/// total step count; `loss` builds one batch's scalar loss node on a
/// fresh tape from the model, the batch's item indices and the run's
/// RNG, or returns `None` when the batch has nothing to learn from (its
/// RNG draws are kept and the cursor advances, so replay stays aligned).
///
/// With a checkpoint directory set, killing the process at any point and
/// calling again with a freshly constructed model (same constructor
/// seed) and the same configs resumes from the last checkpoint and
/// produces **bit-identical** final parameters and per-step losses to an
/// uninterrupted run: shuffle order, input subsampling, masking and
/// dropout all draw from the checkpointable RNG carried in
/// [`TrainProgress`], and parameter/moment values travel through the
/// checkpoint as raw bits.
///
/// # Errors
/// [`TasteError::InvalidArgument`] on an empty training set or a zero
/// batch size; [`TasteError::Corrupt`] when the checkpoint directory
/// belongs to another model or dataset; [`TasteError::Training`] when
/// the anomaly rollback budget is exhausted; [`TasteError::Serde`] on
/// checkpoint I/O failure.
pub(crate) fn fit<M>(
    model: &mut M,
    store_of: fn(&mut M) -> &mut ParamStore,
    plan: &Plan<'_>,
    optimizer: impl FnOnce(usize) -> Adam,
    res: &TrainResilience,
    mut loss: impl FnMut(&M, &mut Tape, &[usize], &mut SplitMix64Rng) -> Option<NodeId>,
) -> Result<TrainReport, TasteError> {
    if plan.n_items == 0 {
        return Err(TasteError::invalid("no training inputs"));
    }
    if plan.batch_size == 0 {
        return Err(TasteError::invalid("batch_size must be at least 1"));
    }
    let steps_per_epoch = plan.n_items.div_ceil(plan.batch_size);
    let batches_per_epoch = steps_per_epoch as u64;
    let mut opt = optimizer(steps_per_epoch * plan.epochs);
    let mut driver = ResilienceDriver::new(res, plan.n_items, batches_per_epoch)?;
    let mut st = driver.resume(store_of(model), &mut opt, plan.seed)?;
    let mut halted = false;

    while (st.epoch as usize) < plan.epochs {
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
        let lo = st.batch as usize * plan.batch_size;
        let hi = (lo + plan.batch_size).min(plan.n_items);
        let batch: Vec<usize> = st.order[lo..hi].iter().map(|&i| i as usize).collect();

        let mut tape = Tape::new();
        let Some(total) = loss(model, &mut tape, &batch, &mut st.rng) else {
            st.advance(batches_per_epoch);
            continue;
        };
        // A non-finite loss is not fatal: it flows to the detector,
        // which skips (or rolls back) the step.
        let loss_val = tape.value(total).item();
        tape.backward(total);
        let store = store_of(model);
        tape.accumulate_param_grads(store);
        for &id in plan.frozen {
            store.grad_mut(id).fill_zero();
        }
        match driver.after_backward(store, &mut opt, &mut st, loss_val)? {
            StepOutcome::Applied => {
                st.record_loss(loss_val);
                st.advance(batches_per_epoch);
                driver.maybe_checkpoint(store, &opt, &mut st)?;
            }
            StepOutcome::Skipped => st.advance(batches_per_epoch),
            StepOutcome::RolledBack => {} // cursor rewound; just loop
        }
    }
    Ok(ResilienceDriver::finish(st, &opt, halted))
}
