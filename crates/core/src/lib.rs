//! # taste-core
//!
//! Shared domain vocabulary for the TASTE semantic type detection
//! reproduction (EDBT 2025).
//!
//! This crate defines the types every other crate in the workspace speaks:
//!
//! * [`SemanticType`] / [`TypeId`] / [`TypeRegistry`] — the domain set `S`
//!   of semantic types and an interning registry over it.
//! * [`table`] — logical tables, columns, and the metadata the paper's
//!   Phase 1 consumes ([`table::ColumnMeta`], [`table::TableMeta`]).
//! * [`histogram`] — equal-width / equal-depth column histograms, the
//!   optional statistics metadata of the *TASTE with histogram* variant.
//! * [`labels`] — multi-label admitted-type sets (`A^c` in the paper).
//! * [`metrics`] — micro / macro precision, recall, and F1 for the
//!   multi-label classification evaluation (Tables 3 and 4).
//! * [`rng`] — deterministic seed derivation so every experiment in the
//!   reproduction is replayable.
//! * [`outcome`] — per-table terminal outcomes of a detection batch
//!   ([`TableOutcome`]): completed, degraded, failed, panicked,
//!   timed-out, shed (with a [`ShedReason`]), rejected, or cancelled.
//! * [`checksum`] — CRC32C and torn-write-safe record framing.
//! * [`durable`] — the two primitives every on-disk store is a codec
//!   over: a versioned atomic-publish directory (checkpoints, model
//!   artifacts) and a framed log (verdict journal, latent-cache file),
//!   with the one corrupt-vs-unreadable-vs-foreign rule.

#![warn(missing_docs)]

pub mod checksum;
pub mod durable;
pub mod error;
pub mod histogram;
pub mod labels;
pub mod metrics;
pub mod outcome;
pub mod rng;
pub mod table;
pub mod types;

pub use error::{Result, TasteError};
pub use histogram::{Histogram, HistogramKind};
pub use labels::LabelSet;
pub use metrics::{EvalAccumulator, EvalScores};
pub use outcome::{ShedReason, TableOutcome};
pub use table::{Cell, ColumnId, ColumnMeta, RawType, Table, TableId, TableMeta};
pub use types::{SemanticType, TypeId, TypeRegistry};
