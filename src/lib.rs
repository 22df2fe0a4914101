//! # taste
//!
//! Umbrella crate for the TASTE reproduction: re-exports every workspace
//! crate under one roof plus a [`prelude`] for examples and downstream
//! experiments.
//!
//! The workspace reproduces *TASTE: Towards Practical Deep Learning-based
//! Approaches for Semantic Type Detection in the Cloud* (EDBT 2025):
//!
//! * [`taste_core`] — ids, errors, label sets, evaluation, seeded RNG.
//! * [`taste_nn`] — the minimal CPU tensor/autograd kit.
//! * [`taste_tokenizer`] — normalization, vocabulary, input packing.
//! * [`taste_data`] — synthetic corpora (SynthWiki / SynthGit) + splits.
//! * [`taste_db`] — the simulated cloud RDS: latency model, intrusiveness
//!   ledger, connection pool, and the seeded fault-injection layer.
//! * [`taste_model`] — the two-tower ADTD model and baselines.
//! * [`taste_framework`] — the two-phase engine, Algorithm 1 scheduler,
//!   and the retry / circuit-breaker / graceful-degradation stack.

#![warn(missing_docs)]

pub use taste_core;
pub use taste_core as core;
pub use taste_data;
pub use taste_db;
pub use taste_framework;
pub use taste_model;
pub use taste_nn;
pub use taste_tokenizer;

/// The names almost every example and experiment needs.
pub mod prelude {
    pub use taste_core::{
        Cell, ColumnId, ColumnMeta, LabelSet, RawType, Result, ShedReason, Table, TableId,
        TableMeta, TableOutcome, TasteError, TypeId,
    };
    pub use taste_data::corpus::{Corpus, CorpusSpec};
    pub use taste_data::splits::Split;
    pub use taste_data::BuiltinRegistry;
    pub use taste_db::{
        Connection, ConnectionPool, Database, FaultProfile, LatencyProfile, ScanMethod,
    };
    pub use taste_framework::{
        evaluate_report, BatchingConfig, BatchingSummary, DetectionReport, ExecutionConfig,
        HardeningConfig, LoadController, OverloadConfig, OverloadSummary, ResilienceSummary,
        RetryConfig, RolloutConfig, RolloutSummary, TasteConfig, TasteEngine,
    };
    pub use taste_model::registry::{ModelRegistry, VersionedModel};
    pub use taste_model::{Adtd, Inferencer, ModelConfig, TrainConfig};
    pub use taste_tokenizer::{Tokenizer, Vocab, VocabBuilder};
}
