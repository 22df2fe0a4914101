//! The timed run: one caller thread issuing `detect_batch` back to back
//! (a closed loop with one client), every round checked against the
//! reference verdicts.

use crate::setup::Inputs;
use crate::workload::WARMUP_ROUNDS;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taste_core::TableOutcome;
use taste_framework::{BatchingSummary, DetectionReport, TasteEngine};

/// What the timed rounds measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall time of each round in milliseconds, clock outside
    /// `detect_batch`.
    pub round_ms: Vec<f64>,
    /// Resident set after each round, MiB (`VmRSS`).
    pub rss_mib: Vec<f64>,
    /// `TableResult.latency` of every table of every round, milliseconds.
    pub table_ms: Vec<f64>,
    /// Columns attempted: rounds × columns per round.
    pub attempted: u64,
    /// Columns failed: all columns of a table that did not complete
    /// normally or of a round that returned `Err`, plus columns whose
    /// admitted set differs from the reference.
    pub failed: u64,
    /// Rounds whose scanned-column count was not the calibrated one.
    pub scan_mismatches: u64,
    /// Injected-fault query failures summed over rounds (must be zero).
    pub failed_queries: u64,
    /// Latent-cache hits and misses summed over rounds.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// The last round's ledger delta and batching summary.
    pub last: Option<(taste_db::LedgerSnapshot, BatchingSummary)>,
    /// Batching flush counts summed over rounds, for per-round means.
    pub flushes: [u64; 5],
    /// First failure, for the error message.
    pub first_error: Option<String>,
}

impl Timed {
    /// Folds one round's report in, checking it against the reference.
    fn absorb(
        &mut self,
        inputs: &Inputs,
        wall: Duration,
        result: taste_core::Result<DetectionReport>,
    ) {
        self.round_ms.push(wall.as_secs_f64() * 1e3);
        self.attempted += inputs.total_columns as u64;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                self.failed += inputs.total_columns as u64;
                self.first_error.get_or_insert(format!("detect_batch: {e}"));
                return;
            }
        };
        for (table, want) in report.tables.iter().zip(&inputs.reference) {
            self.table_ms.push(table.latency.as_secs_f64() * 1e3);
            if table.outcome != TableOutcome::Completed || table.admitted.len() != want.len() {
                self.failed += want.len() as u64;
                self.first_error.get_or_insert(format!(
                    "table {}: outcome {:?}",
                    table.table.0, table.outcome
                ));
            } else {
                let wrong = table
                    .admitted
                    .iter()
                    .zip(want)
                    .filter(|(a, b)| a != b)
                    .count();
                if wrong > 0 {
                    self.failed += wrong as u64;
                    self.first_error.get_or_insert(format!(
                        "table {}: {wrong} verdicts differ from the reference",
                        table.table.0
                    ));
                }
            }
        }
        if report.tables.len() != inputs.reference.len() {
            self.failed += inputs.total_columns as u64;
            self.first_error
                .get_or_insert("report covers a different table count".into());
        }
        if report.ledger.columns_scanned != inputs.scanned_columns as u64 {
            self.scan_mismatches += 1;
            self.first_error.get_or_insert(format!(
                "scanned {} columns, calibrated {}",
                report.ledger.columns_scanned, inputs.scanned_columns
            ));
        }
        self.failed_queries += report.ledger.failed_queries;
        self.cache_hits += report.cache_hits;
        self.cache_misses += report.cache_misses;
        let b = &report.batching;
        for (slot, add) in self.flushes.iter_mut().zip([
            b.p1.batches,
            b.p2.batches,
            b.p1.size_flushes + b.p2.size_flushes,
            b.p1.deadline_flushes + b.p2.deadline_flushes,
            b.p1.drain_flushes + b.p2.drain_flushes,
        ]) {
            *slot += add;
        }
        self.last = Some((report.ledger, report.batching));
    }

    /// Whether every gate held on every round.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.scan_mismatches == 0
            && self.failed_queries == 0
            && !self.round_ms.is_empty()
    }

    /// Columns detected per second over all rounds: total over total.
    /// The reported `cols_per_s` rests on the 80th-percentile round
    /// instead (see `run::sustained_round_ms`).
    pub fn cols_per_s_mean(&self) -> f64 {
        (self.attempted - self.failed) as f64 / (self.round_ms.iter().sum::<f64>() / 1e3)
    }
}

/// Runs warm-up rounds, then timed rounds until `budget` has elapsed
/// (at least `min_rounds`; exactly `min_rounds` when `budget` is zero).
pub fn run(inputs: &Inputs, budget: Duration, min_rounds: usize) -> Result<Timed, String> {
    let engine = TasteEngine::new(Arc::clone(&inputs.model), inputs.config)
        .map_err(|e| format!("engine: {e}"))?;
    for _ in 0..WARMUP_ROUNDS {
        engine
            .detect_batch(&inputs.db, &inputs.tables)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let mut timed = Timed::default();
    let start = Instant::now();
    while timed.round_ms.len() < min_rounds || start.elapsed() < budget {
        let t0 = Instant::now();
        let result = engine.detect_batch(&inputs.db, &inputs.tables);
        let wall = t0.elapsed();
        timed.absorb(inputs, wall, result);
        timed
            .rss_mib
            .push(crate::host::resident_mib().unwrap_or(f64::NAN));
    }
    Ok(timed)
}
