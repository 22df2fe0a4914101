//! # taste-model
//!
//! The paper's DL models, built on `taste-nn`:
//!
//! * [`config`] — model hyperparameters, with the reduced-scale default
//!   used by the reproduction's experiments and the paper-scale TinyBERT
//!   configuration (L=4, A=12, H=312, I=1200, W_max=512).
//! * [`features`] — featurization of non-textual metadata `M_n^c` (raw
//!   type, nullability, catalog statistics, histogram summary).
//! * [`prepare`] — turning a [`taste_core::Table`] into model inputs:
//!   column splitting under the threshold `l`, metadata text assembly,
//!   first-`n` non-empty cell selection, and multi-hot targets.
//! * [`encoder`] — the shared transformer stack with both tower forward
//!   passes: self-attention for the metadata tower, and the asymmetric
//!   cross-attention (`Q = content`, `K = V = meta ⊕ content`) for the
//!   content tower (§4.2).
//! * [`cache`] — the latent cache storing per-layer metadata latents from
//!   P1 for reuse by P2 (§4.2.2).
//! * [`adtd`] — the Asymmetric Double-Tower Detection model: two
//!   classifier heads over shared towers, trained with multi-label BCE
//!   under the automatic weighted multi-task loss (§4.3–4.4).
//! * [`infer`] — the serving-side [`infer::Inferencer`]: a per-worker
//!   handle owning a tape-free executor, on which it runs the one body
//!   each model operation has — over a batch of chunks, or a batch of
//!   one.
//! * [`baselines`] — the TURL and Doduo analogs (single-tower,
//!   content-dependent; §6.2) used for every comparison.
//! * [`pretrain`] — Masked Language Model pre-training on the unlabeled
//!   table corpus, standing in for the TURL pre-trained checkpoint.
//! * [`trainer`] — mini-batch fine-tuning of ADTD and the baselines.
//! * [`extend`] — widening the heads to new semantic types and
//!   fine-tuning them with the encoder frozen (the paper's first
//!   future-work direction, §8).
//! * [`registry`] — versioned on-disk model artifacts for hot reload:
//!   CRC32C-framed, atomically published, quarantined on corruption —
//!   the source the serving-side rollout controller promotes from.
//! * [`resilience`] — the one training loop under
//!   [`trainer::train_adtd`], [`trainer::train_single_tower`],
//!   [`pretrain::pretrain_encoder`] and [`extend::train_heads_only`],
//!   each of which only builds a batch's loss: periodic full-state
//!   checkpoints, bit-identical resume, anomaly skip/rollback, and the
//!   [`taste_nn::guard::TrainingHealth`] in every [`TrainReport`].

#![warn(missing_docs)]

pub mod adtd;
pub mod baselines;
pub mod cache;
pub mod config;
pub mod encoder;
pub mod extend;
pub mod feedback;
pub mod features;
pub mod infer;
pub mod prepare;
pub mod pretrain;
pub mod registry;
pub mod resilience;
pub mod trainer;

pub use adtd::{Adtd, ContentBatchItem, MetaEncoding};
pub use baselines::{BaselineKind, SingleTower};
pub use cache::{CacheRestoreStats, LatentCache};
pub use config::ModelConfig;
pub use infer::Inferencer;
pub use prepare::{ModelInput, TableChunk};
pub use registry::{ModelRegistry, VersionedModel};
pub use resilience::{FaultInjection, TrainResilience};
pub use trainer::{TrainConfig, TrainReport};
