//! Versioned, torn-write-safe full-state training checkpoints.
//!
//! A checkpoint captures *everything* a training loop needs to resume
//! bit-identically: parameter values, Adam first/second moments and
//! step count, the LR-schedule position, the epoch/batch cursor, the
//! shuffle order and shuffle-RNG state, the loss history, and the
//! anomaly-detector state. The serving side already has this property
//! for detection runs (the framework journal); this module gives the
//! training side the same guarantee with the same integrity primitive.
//!
//! # On-disk format
//!
//! Two [`taste_core::checksum`] CRC32C-framed records, back to back:
//!
//! 1. a JSON *manifest* — format tag, format version, optimizer state,
//!    loop progress, and a parameter directory (name, shape, whether
//!    Adam moments follow);
//! 2. a raw little-endian `f32` *blob* — each parameter's values, then
//!    its `m` and `v` moments when present, in directory order.
//!
//! Values travel as raw bits, not JSON text, for two reasons: exact
//! bit preservation (JSON round-trips can legally reformat floats) and
//! tolerance for non-finite moments without inventing an encoding.
//! Any torn tail, bit flip, wrong tag, or directory/blob disagreement
//! decodes to [`TasteError::Corrupt`] — never a panic — so the loader
//! ([`taste_core::durable::VersionedDir`], which owns all file I/O) can
//! quarantine the file and fall back to an older checkpoint.

use crate::guard::{AnomalyDetector, TrainingHealth};
use crate::matrix::Matrix;
use crate::optim::Adam;
use crate::params::ParamStore;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use taste_core::durable::{self, Newest, VersionedDir};
use taste_core::rng::SplitMix64Rng;
use taste_core::TasteError;

/// Bumped whenever the on-disk layout changes incompatibly.
pub const CHECKPOINT_VERSION: u32 = 1;

const FORMAT_TAG: &str = "taste-train-ckpt";
/// Extension of live checkpoint files (`ckpt-<step>.tck`).
pub const FILE_EXT: &str = "tck";

/// Where a training loop is in its epoch/batch/RNG stream.
///
/// The cursor convention: `step` counts *batches processed* (applied
/// or skipped), `batch` is the next batch index within `epoch`, and
/// `batch == 0` always means "epoch not started yet" — the loop
/// shuffles `order` with `rng` exactly at that point, so a checkpoint
/// taken at an epoch boundary resumes through the same shuffle the
/// uninterrupted run performed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainProgress {
    /// Batches processed so far (monotone; never rewound by skips).
    pub step: u64,
    /// Current epoch, 0-based.
    pub epoch: u64,
    /// Next batch index within the epoch.
    pub batch: u64,
    /// The loop's RNG (shuffling, subsampling, masking, dropout).
    pub rng: SplitMix64Rng,
    /// The current epoch's shuffled item order.
    pub order: Vec<u32>,
    /// Mean loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Loss sum accumulated over the current epoch's applied steps.
    pub epoch_accum: f64,
    /// Applied steps within the current epoch.
    pub steps_in_epoch: u64,
    /// Loss of every applied step across the whole run.
    pub step_losses: Vec<f32>,
    /// Loss-EMA and sentinel state.
    pub detector: AnomalyDetector,
    /// Anomaly and checkpoint counters so far.
    pub health: TrainingHealth,
}

impl TrainProgress {
    /// Progress at the very start of a run over `n_items` items.
    pub fn fresh(n_items: usize, seed: u64) -> TrainProgress {
        TrainProgress {
            step: 0,
            epoch: 0,
            batch: 0,
            rng: SplitMix64Rng::new(seed),
            order: (0..n_items as u32).collect(),
            epoch_losses: Vec::new(),
            epoch_accum: 0.0,
            steps_in_epoch: 0,
            step_losses: Vec::new(),
            detector: AnomalyDetector::default(),
            health: TrainingHealth::default(),
        }
    }

    /// Number of batches one epoch spans at the given batch size.
    pub fn batches_per_epoch(&self, batch_size: usize) -> u64 {
        self.order.len().div_ceil(batch_size.max(1)) as u64
    }

    /// Records an applied step's loss into the epoch and run histories.
    pub fn record_loss(&mut self, loss: f32) {
        self.epoch_accum += f64::from(loss);
        self.steps_in_epoch += 1;
        self.step_losses.push(loss);
    }

    /// Advances the batch cursor, finalizing the epoch's mean loss and
    /// rolling to the next epoch at the boundary.
    pub fn advance(&mut self, batches_per_epoch: u64) {
        self.step += 1;
        self.batch += 1;
        if self.batch >= batches_per_epoch.max(1) {
            self.epoch_losses
                .push((self.epoch_accum / self.steps_in_epoch.max(1) as f64) as f32);
            self.epoch_accum = 0.0;
            self.steps_in_epoch = 0;
            self.epoch += 1;
            self.batch = 0;
        }
    }
}

#[derive(Serialize, Deserialize)]
struct DirEntry {
    name: String,
    rows: usize,
    cols: usize,
    has_moments: bool,
}

#[derive(Serialize, Deserialize)]
struct Manifest {
    format: String,
    version: u32,
    opt: Adam,
    progress: TrainProgress,
    dir: Vec<DirEntry>,
}

#[derive(Debug)]
struct ParamState {
    name: String,
    value: Matrix,
    moments: Option<(Matrix, Matrix)>,
}

/// A fully materialized training checkpoint.
#[derive(Debug)]
pub struct TrainCheckpoint {
    /// Optimizer state: hyperparameters (including any rolled-back
    /// learning rate), schedule, and step count.
    pub opt: Adam,
    /// Loop progress (cursor, RNG, histories, detector, health).
    pub progress: TrainProgress,
    params: Vec<ParamState>,
}

impl TrainCheckpoint {
    /// Snapshots the full training state.
    pub fn capture(store: &ParamStore, opt: &Adam, progress: &TrainProgress) -> TrainCheckpoint {
        let params = store
            .ids()
            .map(|id| ParamState {
                name: store.name(id).to_owned(),
                value: store.value(id).clone(),
                moments: store.adam_moments(id).map(|(m, v)| (m.clone(), v.clone())),
            })
            .collect();
        TrainCheckpoint { opt: opt.clone(), progress: progress.clone(), params }
    }

    /// Restores parameter values and Adam state into `store` and `opt`,
    /// returning the loop progress to resume from. Existing optimizer
    /// moments in `store` are cleared first, so parameters the
    /// checkpoint has no moments for do not keep stale momentum.
    ///
    /// # Errors
    /// [`TasteError::Corrupt`] when the checkpoint does not cover the
    /// store exactly (count, name, or shape disagreement).
    pub fn restore(&self, store: &mut ParamStore, opt: &mut Adam) -> Result<TrainProgress, TasteError> {
        if self.params.len() != store.len() {
            return Err(TasteError::corrupt(format!(
                "checkpoint holds {} params, store expects {}",
                self.params.len(),
                store.len()
            )));
        }
        store.reset_optimizer_state();
        for p in &self.params {
            let id = store
                .id_by_name(&p.name)
                .ok_or_else(|| TasteError::corrupt(format!("checkpoint param {:?} not in store", p.name)))?;
            if store.value(id).shape() != p.value.shape() {
                return Err(TasteError::corrupt(format!(
                    "param {:?}: checkpoint shape {:?} != store shape {:?}",
                    p.name,
                    p.value.shape(),
                    store.value(id).shape()
                )));
            }
            *store.value_mut(id) = p.value.clone();
            if let Some((m, v)) = &p.moments {
                store.restore_adam_moments(id, m.clone(), v.clone())?;
            }
        }
        store.zero_grads();
        *opt = self.opt.clone();
        Ok(self.progress.clone())
    }

    /// Serializes to the two-record framed binary format.
    pub fn encode(&self) -> Vec<u8> {
        let dir = self
            .params
            .iter()
            .map(|p| DirEntry {
                name: p.name.clone(),
                rows: p.value.rows(),
                cols: p.value.cols(),
                has_moments: p.moments.is_some(),
            })
            .collect();
        let manifest = Manifest {
            format: FORMAT_TAG.to_owned(),
            version: CHECKPOINT_VERSION,
            opt: self.opt.clone(),
            progress: self.progress.clone(),
            dir,
        };
        let manifest_json = serde_json::to_vec(&manifest).expect("manifest is always serializable");
        let mut blob = Vec::new();
        for p in &self.params {
            push_f32s(&mut blob, p.value.as_slice());
            if let Some((m, v)) = &p.moments {
                push_f32s(&mut blob, m.as_slice());
                push_f32s(&mut blob, v.as_slice());
            }
        }
        durable::frame_all([&manifest_json[..], &blob[..]])
    }

    /// Decodes a checkpoint from bytes.
    ///
    /// # Errors
    /// [`TasteError::Corrupt`] on any torn tail, checksum failure,
    /// unknown format tag or version, or directory/blob disagreement.
    /// Never panics on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<TrainCheckpoint, TasteError> {
        let (manifest_bytes, blob) = durable::split_artifact(bytes, "checkpoint")?;
        let manifest: Manifest = serde_json::from_slice(manifest_bytes)
            .map_err(|e| TasteError::corrupt(format!("checkpoint manifest: {e}")))?;
        durable::check_format("training checkpoint", (&manifest.format, manifest.version), (FORMAT_TAG, CHECKPOINT_VERSION))?;
        let mut off = 0usize;
        let mut params = Vec::with_capacity(manifest.dir.len());
        for e in &manifest.dir {
            let value = take_matrix(blob, &mut off, e.rows, e.cols, &e.name)?;
            let moments = if e.has_moments {
                let m = take_matrix(blob, &mut off, e.rows, e.cols, &e.name)?;
                let v = take_matrix(blob, &mut off, e.rows, e.cols, &e.name)?;
                Some((m, v))
            } else {
                None
            };
            params.push(ParamState { name: e.name.clone(), value, moments });
        }
        if off != blob.len() {
            return Err(TasteError::corrupt(format!(
                "checkpoint blob holds {} bytes beyond its directory",
                blob.len() - off
            )));
        }
        Ok(TrainCheckpoint { opt: manifest.opt, progress: manifest.progress, params })
    }

    /// Replaces the file at `path` with this checkpoint ([`durable::write_atomic`]).
    pub fn write_atomic(&self, path: &Path) -> Result<(), TasteError> {
        durable::write_atomic(path, &self.encode())
    }

    /// Reads and decodes a checkpoint file: [`TasteError::Serde`] on I/O
    /// failure, [`TasteError::Corrupt`] on a damaged file.
    pub fn read(path: &Path) -> Result<TrainCheckpoint, TasteError> {
        TrainCheckpoint::decode(&durable::read(path)?)
    }
}

fn push_f32s(blob: &mut Vec<u8>, values: &[f32]) {
    for v in values {
        blob.extend_from_slice(&v.to_le_bytes());
    }
}

fn take_matrix(blob: &[u8], off: &mut usize, rows: usize, cols: usize, name: &str) -> Result<Matrix, TasteError> {
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| TasteError::corrupt(format!("param {name:?}: shape overflow")))?;
    let need = n
        .checked_mul(4)
        .ok_or_else(|| TasteError::corrupt(format!("param {name:?}: size overflow")))?;
    let end = off
        .checked_add(need)
        .filter(|&e| e <= blob.len())
        .ok_or_else(|| TasteError::corrupt(format!("param {name:?}: blob exhausted")))?;
    let data = blob[*off..end]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    *off = end;
    Ok(Matrix::from_vec(rows, cols, data))
}

/// How often a resumable loop checkpoints and how many files it keeps.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Save after every `n` processed steps; `0` disables periodic
    /// saves (rollback then degrades to skip-and-reduce-LR).
    pub every_n_steps: u64,
    /// Checkpoints retained on disk; older ones are pruned. Minimum 1.
    pub keep_last_k: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy { every_n_steps: 25, keep_last_k: 2 }
    }
}

impl CheckpointPolicy {
    /// Whether a save is due after `step` processed steps.
    pub fn due(&self, step: u64) -> bool {
        self.every_n_steps > 0 && step > 0 && step.is_multiple_of(self.every_n_steps)
    }
}

/// A rotating directory of checkpoint files `ckpt-<step>.tck`: saves
/// prune beyond `keep_last_k`, loads return the newest file that decodes
/// and quarantine corrupt ones as `*.tck.corrupt` on the way.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: VersionedDir,
    policy: CheckpointPolicy,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn new(dir: &Path, policy: CheckpointPolicy) -> Result<CheckpointStore, TasteError> {
        Ok(CheckpointStore { dir: VersionedDir::open(dir, "ckpt", FILE_EXT)?, policy })
    }

    /// The configured cadence/retention policy.
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// The file path a checkpoint at `step` is stored under.
    pub fn path_for(&self, step: u64) -> PathBuf {
        self.dir.path_for(step)
    }

    /// Saves a checkpoint under its step's file name and prunes files
    /// beyond `keep_last_k`.
    pub fn save(&self, checkpoint: &TrainCheckpoint) -> Result<PathBuf, TasteError> {
        let path = self.dir.publish(checkpoint.progress.step, &checkpoint.encode())?;
        self.dir.prune(self.policy.keep_last_k)?;
        Ok(path)
    }

    /// Loads the newest checkpoint [`TrainCheckpoint::decode`] accepts, as
    /// `(step, checkpoint)` ([`VersionedDir::load_newest`]: corrupt files
    /// are quarantined, an unreadable one is an error that renames nothing).
    pub fn load_latest(&self) -> Result<Newest<TrainCheckpoint>, TasteError> {
        self.dir.load_newest(|_, bytes| TrainCheckpoint::decode(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{AdamConfig, LrSchedule};

    fn toy_state() -> (ParamStore, Adam, TrainProgress) {
        let mut store = ParamStore::new(3);
        store.normal("enc.w", 4, 4, 0.1);
        store.constant("head.b", 1, 4, 0.5);
        let mut opt = Adam::new(
            AdamConfig { lr: 0.01, ..Default::default() },
            LrSchedule::LinearWarmupDecay { warmup: 4, total: 40 },
        );
        // A few real steps so moments and step counts are non-trivial.
        for id in store.ids().collect::<Vec<_>>() {
            let (rows, cols) = store.value(id).shape();
            store.grad_mut(id).axpy(1.0, &Matrix::full(rows, cols, 0.3));
        }
        opt.step(&mut store);
        let mut progress = TrainProgress::fresh(10, 7);
        progress.record_loss(0.8);
        progress.advance(5);
        (store, opt, progress)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let (store, opt, progress) = toy_state();
        let ck = TrainCheckpoint::capture(&store, &opt, &progress);
        let back = TrainCheckpoint::decode(&ck.encode()).unwrap();

        let mut store2 = ParamStore::new(99);
        store2.normal("enc.w", 4, 4, 0.1);
        store2.constant("head.b", 1, 4, 0.5);
        let mut opt2 = Adam::new(AdamConfig::default(), LrSchedule::Constant);
        let restored = back.restore(&mut store2, &mut opt2).unwrap();

        assert_eq!(restored, progress);
        assert_eq!(opt2.steps(), opt.steps());
        assert_eq!(opt2.current_lr(), opt.current_lr());
        for id in store.ids() {
            let id2 = store2.id_by_name(store.name(id)).unwrap();
            let a: Vec<u32> = store.value(id).as_slice().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = store2.value(id2).as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "values of {}", store.name(id));
            let (m1, v1) = store.adam_moments(id).unwrap();
            let (m2, v2) = store2.adam_moments(id2).unwrap();
            assert_eq!(m1, m2);
            assert_eq!(v1, v2);
        }
    }

    #[test]
    fn non_finite_moments_survive_the_blob() {
        // Raw-bits encoding must carry NaN/Inf moments verbatim; JSON
        // would have rejected them.
        let (mut store, opt, progress) = toy_state();
        let id = store.id_by_name("enc.w").unwrap();
        let mut m = Matrix::full(4, 4, f32::NAN);
        m.as_mut_slice()[3] = f32::INFINITY;
        store.restore_adam_moments(id, m, Matrix::zeros(4, 4)).unwrap();
        let back = TrainCheckpoint::decode(&TrainCheckpoint::capture(&store, &opt, &progress).encode()).unwrap();
        let _ = back; // decoding alone is the assertion: no rejection, no panic
    }

    #[test]
    fn wrong_tag_and_version_are_corrupt() {
        let bytes = durable::frame_all([&br#"{"format":"not-a-checkpoint"}"#[..], &b""[..]]);
        assert!(matches!(TrainCheckpoint::decode(&bytes), Err(TasteError::Corrupt(_))));
        let garbage = durable::frame_all([&b"\x00\x01\x02"[..]]);
        assert!(matches!(TrainCheckpoint::decode(&garbage), Err(TasteError::Corrupt(_))));
    }

    /// The on-disk bytes of a fixed state, pinned by CRC32C at the commit
    /// before the stores moved onto `taste_core::durable`. Every float is
    /// a dyadic rational in plain-decimal range, so any shortest-round-trip
    /// JSON float formatter writes the same manifest.
    #[test]
    fn encoded_bytes_are_pinned() {
        let mut store = ParamStore::new(0);
        let w = store.constant("enc.w", 2, 3, 0.25);
        store.constant("head.b", 1, 2, -1.5);
        store.restore_adam_moments(w, Matrix::full(2, 3, 0.5), Matrix::full(2, 3, 0.125)).unwrap();
        let cfg = AdamConfig { lr: 0.5, beta1: 0.5, beta2: 0.75, eps: 0.125, weight_decay: 0.0, clip_norm: 2.0 };
        let opt = Adam::new(cfg, LrSchedule::LinearWarmupDecay { warmup: 4, total: 40 });
        let mut progress = TrainProgress::fresh(4, 7);
        progress.record_loss(0.75);
        progress.advance(2);
        let bytes = TrainCheckpoint::capture(&store, &opt, &progress).encode();
        assert_eq!((bytes.len(), taste_core::checksum::crc32c(&bytes)), (874, 0x5895_7fff));
    }

    fn temp_store(tag: &str, policy: CheckpointPolicy) -> (std::path::PathBuf, CheckpointStore) {
        let dir = std::env::temp_dir().join(format!("taste-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, policy).unwrap();
        (dir, store)
    }

    /// The store's wiring onto `VersionedDir` (whose own behaviour
    /// `taste_core::durable`'s suite covers): file names, pruning by
    /// `keep_last_k`, and `TrainCheckpoint::decode` as the decoder
    /// `load_newest` runs — the newest file here is two CRC-valid records
    /// that only `decode`'s tag check can refuse.
    #[test]
    fn store_names_prunes_and_loads_through_decode() {
        let (dir, cs) = temp_store("wiring", CheckpointPolicy { every_n_steps: 1, keep_last_k: 2 });
        let (store, opt, mut progress) = toy_state();
        for step in [5, 10, 15] {
            progress.step = step;
            cs.save(&TrainCheckpoint::capture(&store, &opt, &progress)).unwrap();
        }
        assert!(!dir.join("ckpt-000000000005.tck").exists(), "oldest file pruned");
        assert!(dir.join("ckpt-000000000010.tck").exists());
        assert_eq!(cs.path_for(15), dir.join("ckpt-000000000015.tck"));
        assert_eq!(cs.load_latest().unwrap().loaded.unwrap().0, 15);

        let foreign = durable::frame_all([&br#"{"format":"not-a-checkpoint"}"#[..], &b""[..]]);
        std::fs::write(cs.path_for(15), foreign).unwrap();
        let found = cs.load_latest().unwrap();
        let (step, ck) = found.loaded.unwrap();
        assert_eq!((step, ck.progress.step, found.quarantined), (10, 10, 1));
        assert!(dir.join("ckpt-000000000015.tck.corrupt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint directory that cannot be listed is an error: reading it
    /// as "no checkpoints" would make `fit` restart a live run from step 0.
    #[test]
    fn unlistable_directory_is_an_error_not_an_empty_store() {
        let (dir, cs) = temp_store("unlistable", CheckpointPolicy::default());
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(cs.load_latest(), Err(TasteError::Serde(_))));
    }

    #[test]
    fn policy_cadence() {
        let p = CheckpointPolicy { every_n_steps: 4, keep_last_k: 2 };
        assert!(!p.due(0));
        assert!(!p.due(3));
        assert!(p.due(4));
        assert!(p.due(8));
        assert!(!CheckpointPolicy { every_n_steps: 0, keep_last_k: 1 }.due(100));
    }

    #[test]
    fn progress_cursor_rolls_epochs() {
        let mut p = TrainProgress::fresh(10, 1);
        assert_eq!(p.batches_per_epoch(4), 3);
        for _ in 0..3 {
            p.record_loss(0.5);
            p.advance(3);
        }
        assert_eq!(p.epoch, 1);
        assert_eq!(p.batch, 0);
        assert_eq!(p.step, 3);
        assert_eq!(p.epoch_losses, vec![0.5]);
        assert_eq!(p.steps_in_epoch, 0);
        assert_eq!(p.step_losses.len(), 3);
    }
}
