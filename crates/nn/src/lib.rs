//! # taste-nn
//!
//! A from-scratch, dependency-light deep learning stack sufficient to train
//! and serve the paper's ADTD model and its TURL/Doduo baseline analogs on
//! CPU:
//!
//! * [`matrix`] — dense row-major `f32` matrices with the raw kernels
//!   (matmul, transpose, elementwise maps).
//! * [`kernels`] — the lane-vectorized compute kernels under the matrix
//!   ops: 8-wide output-column lanes, packed weight panels ([`PackedB`]),
//!   fused matmul+bias+activation / scaled-softmax / affine-layer-norm
//!   row kernels, and row-parallel drivers — all bit-identical to the
//!   scalar reference order.
//! * `elementary` (private) — the one polynomial `exp` and one rational
//!   `tanh` under GELU, sigmoid and softmax: a scalar definition and an
//!   AVX2 body that agree bit for bit, so no forward path calls libm.
//! * [`pool`] — the persistent scoped worker pool behind row-parallel
//!   kernels ([`KernelPool`]), deterministic by construction.
//! * [`tape`] — reverse-mode automatic differentiation over matrices.
//!   A [`tape::Tape`] records the forward computation; [`tape::Tape::backward`]
//!   replays it in reverse, producing gradients for every leaf.
//! * [`exec`] — the execution-backend split: the 13-op [`exec::Forward`]
//!   trait is the only seam between model code and execution, so the same
//!   model code runs on the recording [`tape::Tape`] (training; its
//!   compositions define the ops) or the tape-free, buffer-reusing
//!   [`exec::InferExec`] (serving).
//! * [`params`] — named trainable parameters with Adam state, plus
//!   Xavier/normal initialization.
//! * [`modules`] — Linear, LayerNorm, Embedding, multi-head (cross-)
//!   attention, feed-forward, and full post-LN transformer encoder layers.
//! * [`losses`] — multi-label BCE-with-logits, softmax cross-entropy for
//!   MLM pre-training, and the paper's automatic weighted multi-task loss.
//! * [`optim`] — Adam with bias correction, global-norm gradient clipping,
//!   and warmup/decay learning-rate schedules.
//! * [`checkpoint`] — versioned, CRC32C-framed, atomically-written
//!   full-state training checkpoints (values + Adam moments + LR
//!   position + loop cursor + RNG state) with rotation and corrupt-file
//!   quarantine, enabling bit-identical resume after a crash.
//! * [`guard`] — numerical-fault containment: NaN/Inf sentinels and a
//!   loss-spike detector that skip poisoned steps, escalate to
//!   checkpoint rollback, and report a [`guard::TrainingHealth`].
//!
//! The substitution rationale (this stack in place of PyTorch + CUDA) is
//! documented in the workspace `DESIGN.md`.

#![warn(missing_docs)]

pub mod checkpoint;
mod elementary;
pub mod exec;
pub mod guard;
pub mod kernels;
pub mod losses;
pub mod matrix;
pub mod modules;
pub mod optim;
pub mod params;
pub mod pool;
pub mod summary;
pub mod tape;

pub use checkpoint::{CheckpointPolicy, CheckpointStore, TrainCheckpoint, TrainProgress};
pub use exec::{ExecSession, Forward, InferExec};
pub use guard::{Anomaly, AnomalyDetector, AnomalyPolicy, StepVerdict, TrainingHealth};
pub use kernels::{Act, PackedB};
pub use matrix::Matrix;
pub use optim::{Adam, AdamConfig, LrSchedule};
pub use params::{ParamId, ParamStore};
pub use pool::KernelPool;
pub use tape::{NodeId, Tape};
