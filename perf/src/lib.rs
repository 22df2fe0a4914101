//! `taste-perf`: the repository's benchmark.
//!
//! It drives the TASTE engine from outside, through public functions
//! only, in a closed loop with one caller thread, on four generated
//! workloads, and reports named end-to-end metrics (tracing off) and
//! per-layer metrics (a separate traced run). See `README.md` beside
//! this crate for the glossary, and `BENCHMARK.json` at the repository
//! root for the contract.

#![warn(missing_docs)]

pub mod calibrate;
pub mod check;
pub mod flops;
pub mod host;
pub mod overlay;
pub mod probes;
pub mod replay;
pub mod run;
pub mod setup;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workload;
