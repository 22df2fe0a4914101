//! # taste-framework
//!
//! The TASTE two-phase semantic type detection engine (§3, §5):
//!
//! * [`config`] — [`config::TasteConfig`]: the thresholds `α`/`β`, the
//!   reading parameters `m`/`n`, the column-split threshold `l`, scan
//!   method, and the latent-caching / pipelining toggles that define the
//!   paper's six evaluation variants (§6.2).
//! * [`stages`] — the four per-table stages: P1 data preparation
//!   (metadata fetch), P1 inference (metadata tower + threshold
//!   classification into admitted / rejected / *uncertain*), P2 data
//!   preparation (content scan of uncertain columns only), and P2
//!   inference (content tower over cached latents).
//! * [`engine`] — [`engine::TasteEngine`]: batch detection over a
//!   simulated user database, in sequential mode or under the pipelined
//!   scheduler of Algorithm 1 (two worker pools, stage queue, eligibility
//!   rule).
//! * [`baseline_run`] — end-to-end runners for the TURL / Doduo analogs
//!   (always scan 100% of columns, sequential execution), including the
//!   §6.4 "w/o content" privacy setting.
//! * [`report`] — [`report::DetectionReport`] (wall time, intrusiveness
//!   ledger delta, scanned ratio, per-column admitted types) and
//!   evaluation against ground truth.
//! * [`retry`] — the fault-handling layer: capped exponential backoff
//!   with decorrelated jitter, per-stage deadlines, and a per-database
//!   circuit breaker. With degradation enabled, a table whose P2 scan
//!   exhausts its retry budget falls back to P1 metadata-only verdicts
//!   instead of failing the batch.
//! * [`watchdog`] — cooperative cancellation: per-table
//!   [`watchdog::CancelToken`]s flipped by a deadline-monitoring thread,
//!   observed by stages at boundaries and inside row-scan loops.
//! * [`journal`] — the resumable verdict journal: checksummed
//!   append-only records of each table's final verdicts, replayed by
//!   [`engine::TasteEngine::resume`] to skip finished tables after a
//!   crash.
//! * [`overload`] — overload control: bounded admission with a
//!   [`overload::LoadController`], CoDel-style queue-latency detection,
//!   deadline-aware P2 load shedding, AIMD-tuned concurrency and
//!   connection budgets, and a probing brownout mode.
//! * [`batcher`] — cross-table micro-batching: a
//!   [`batcher::BatchPlanner`] with per-phase queues and size-, deadline-
//!   and drain-triggered flushes, so one TP2 job serves a fused forward
//!   pass over columns from many tables (bit-identical to serving each
//!   table as a batch of one).
//! * [`rollout`] — health-gated hot model reload: a
//!   [`rollout::RolloutController`] that swaps model versions under live
//!   traffic with epoch-style pinning (in-flight tables finish on their
//!   `Arc`'d model), canary routing with shadow scoring against the
//!   incumbent, and automatic rollback when an agreement, non-finite
//!   sentinel, or p99-latency gate fails.

#![warn(missing_docs)]

pub mod baseline_run;
pub mod batcher;
pub mod custom_types;
pub mod config;
pub mod engine;
pub mod journal;
pub mod overload;
pub mod report;
pub mod retry;
pub mod rollout;
pub mod rules;
pub mod stages;
pub mod watchdog;

pub use batcher::{BatchItem, BatchPhase, BatchPlanner, FlushReason};
pub use config::{BatchingConfig, ExecutionConfig, HardeningConfig, TasteConfig};
pub use engine::TasteEngine;
pub use journal::{JournalRecord, JournalReplay, JournalWriter};
pub use overload::{Admission, LoadController, OverloadConfig};
pub use report::{
    evaluate_report, BatchingSummary, DetectionReport, OverloadSummary, PhaseBatchingSummary,
    ResilienceSummary, TableResult,
};
pub use retry::{BreakerState, CircuitBreaker, RetryConfig};
pub use rollout::{
    CanaryObservation, EpisodeOutcome, GateVerdicts, Pinned, RolloutConfig, RolloutController,
    RolloutEpisode, RolloutSummary,
};
pub use watchdog::{CancelReason, CancelToken, Wakeup};
