//! # taste-db
//!
//! A simulated cloud relational database, standing in for the paper's
//! "RDS for MySQL in a VPC" testbed (§6.1.3). It provides everything the
//! end-to-end detection pipeline touches on a real user database:
//!
//! * [`engine`] — an in-memory storage engine with byte-encoded rows,
//!   table creation, `ANALYZE` (statistics + histograms), and scans
//!   (first-`m` rows or seeded random sampling, per selected columns).
//! * [`catalog`] — the `information_schema`-style metadata views Phase 1
//!   reads instead of scanning content.
//! * [`connection`] — connection objects with open/close costs, through
//!   which every operation flows (connection reuse across the tables of a
//!   batch is part of the paper's implementation guidance).
//! * [`latency`] — a configurable latency model realized as *real* sleeps
//!   (connect cost, per-query RTT, per-row and per-byte scan costs), so
//!   the pipelined scheduler's I/O-compute overlap shows up in measured
//!   wall time exactly as it does in the paper's evaluation.
//! * [`ledger`] — the intrusiveness ledger: columns scanned, rows read,
//!   bytes moved, metadata queries, connections opened. The "ratio of
//!   scanned columns" metric (Fig. 5) is computed from it.
//! * [`rowcodec`] — the compact cell/row byte encoding used by the engine.
//! * [`faults`] — deterministic, seeded fault injection (transient errors,
//!   connection drops, query timeouts, throttling windows), so the
//!   framework's retry/degradation machinery can be exercised and measured
//!   reproducibly.

#![warn(missing_docs)]

pub mod catalog;
pub mod connection;
pub mod engine;
pub mod faults;
pub mod latency;
pub mod ledger;
pub mod pool;
pub mod rowcodec;
pub mod sql;

pub use connection::{CatalogEntry, Connection};
pub use engine::{Database, ScanMethod};
pub use faults::{FaultDecision, FaultInjector, FaultProfile, Throttle};
pub use latency::LatencyProfile;
pub use ledger::{Ledger, LedgerSnapshot};
pub use pool::{ConnectionPool, PooledConnection};
