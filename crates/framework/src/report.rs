//! Detection reports and evaluation.

use crate::retry::RetryStats;
use serde::{Deserialize, Serialize};
use std::time::Duration;
use taste_core::histogram::Histogram;
use taste_core::{EvalAccumulator, EvalScores, LabelSet, TableId, TableOutcome};
use taste_db::LedgerSnapshot;

/// Per-table fault-handling telemetry: what it cost to get this table's
/// verdicts out of a flaky database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceSummary {
    /// Database operation attempts across the table's stages.
    pub attempts: u32,
    /// Attempts beyond the first per stage (i.e. actual retries).
    pub retries: u32,
    /// Total backoff sleep spent on this table.
    pub backoff: Duration,
    /// Poisoned-connection reconnects performed for this table.
    pub reconnects: u32,
    /// Columns whose final verdicts fell back to P1 metadata-only
    /// inference because the P2 content scan exhausted its retry budget.
    pub degraded_columns: usize,
    /// Whether any stage of this table degraded.
    pub degraded: bool,
    /// Whether the table failed outright (P1 exhausted under `degrade`):
    /// it appears in the report with empty admitted sets.
    pub failed: bool,
}

impl ResilienceSummary {
    /// Folds one stage's retry telemetry into the table summary.
    pub fn absorb(&mut self, stats: &RetryStats) {
        self.attempts += stats.attempts;
        self.retries += stats.retries;
        self.backoff += stats.backoff;
        self.reconnects += stats.reconnects;
    }
}

/// Per-table detection outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableResult {
    /// Which table.
    pub table: TableId,
    /// Final admitted types per column (`A^c`).
    pub admitted: Vec<LabelSet>,
    /// How many of the table's columns were uncertain after P1.
    pub uncertain_columns: usize,
    /// How the table's pipeline run ended (see the state diagram in
    /// [`taste_core::outcome`]).
    #[serde(default)]
    pub outcome: TableOutcome,
    /// Fault-handling telemetry (all zeros on a clean run).
    #[serde(default)]
    pub resilience: ResilienceSummary,
    /// End-to-end latency of this table from batch start (or admission,
    /// under overload control) to its final outcome. Zero for tables
    /// that never ran (rejected / replayed from a journal without a
    /// recorded latency).
    #[serde(default)]
    pub latency: Duration,
    /// Version of the model this table's verdicts were served on. Zero
    /// when the rollout subsystem is disabled (or for results recorded
    /// before it existed).
    #[serde(default)]
    pub model_version: u64,
}

/// What the overload controller did during one batch: admission
/// accounting, shedding, brownout transitions, and the final AIMD
/// limits. All zeros / empty when overload control is disabled.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OverloadSummary {
    /// Whether overload control was enabled for the batch.
    pub enabled: bool,
    /// Tables offered to the admission gate.
    pub submitted: u64,
    /// Tables admitted into the pipeline.
    pub admitted: u64,
    /// Tables rejected at the gate (occupancy bound reached).
    pub rejected: u64,
    /// Tables whose P2 work was shed (P1 verdicts stand).
    pub shed_tables: u64,
    /// High-water mark of the stage-queue depth.
    pub queue_peak: u64,
    /// Distribution of stage time-in-queue (milliseconds), when any
    /// stages were dispatched.
    pub queue_wait_hist: Option<Histogram>,
    /// Times the engine entered brownout mode.
    pub brownout_entries: u64,
    /// Chronological brownout transition log
    /// (`normal->brownout` / `brownout->normal`, with offsets).
    pub transitions: Vec<String>,
    /// Additive concurrency increases applied by the AIMD governor.
    pub aimd_increases: u64,
    /// Multiplicative concurrency decreases applied by the AIMD governor.
    pub aimd_decreases: u64,
    /// Effective TP1 (prep pool) parallelism at batch end.
    pub final_tp1_limit: u64,
    /// Effective TP2 (inference pool) parallelism at batch end.
    pub final_tp2_limit: u64,
    /// Effective per-database connection budget at batch end.
    pub final_conn_limit: u64,
}

/// One inference phase's micro-batching telemetry: how many batches the
/// planner flushed, how full they were, and which trigger flushed them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseBatchingSummary {
    /// Micro-batches flushed for this phase.
    pub batches: u64,
    /// Table-stages served by a forward pass of a planner-formed batch.
    /// Live members only: a shed, cancelled, failed or stalled member
    /// settles before the pass and does not count; a canary member, a
    /// batch of one, does.
    pub batched_tables: u64,
    /// Columns that executed inside a batch (total columns for P1,
    /// uncertain columns for P2).
    pub batched_columns: u64,
    /// Mean fill ratio (batch columns over `max_batch_columns`; can
    /// exceed 1.0 when a single table is wider than the budget).
    pub mean_fill: f64,
    /// 95th-percentile fill ratio.
    pub p95_fill: f64,
    /// Batches flushed because the column budget filled.
    pub size_flushes: u64,
    /// Batches flushed because the oldest item hit the flush deadline.
    pub deadline_flushes: u64,
    /// Batches flushed because the pipeline ran dry.
    pub drain_flushes: u64,
}

/// Micro-batching telemetry for the batch. All zeros when batching is
/// disabled or the engine ran sequentially.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchingSummary {
    /// Whether cross-table micro-batching was active for this run.
    pub enabled: bool,
    /// Phase-1 (metadata-tower) batching telemetry.
    pub p1: PhaseBatchingSummary,
    /// Phase-2 (content-tower) batching telemetry.
    pub p2: PhaseBatchingSummary,
}

/// The outcome of one end-to-end detection batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionReport {
    /// Label of the approach that produced this report (for harnesses).
    pub approach: String,
    /// Per-table results, in batch order.
    pub tables: Vec<TableResult>,
    /// End-to-end wall-clock time of the batch (connection management,
    /// metadata fetches, content scans, and inference — §2.2's
    /// end-to-end execution time metric).
    pub wall_time: Duration,
    /// Intrusiveness counters accumulated during the batch.
    pub ledger: LedgerSnapshot,
    /// Total columns processed.
    pub total_columns: u64,
    /// Latent cache hits/misses during the batch (zeros for baselines).
    pub cache_hits: u64,
    /// Latent cache misses during the batch.
    pub cache_misses: u64,
    /// Times the per-database circuit breaker tripped during the batch.
    #[serde(default)]
    pub breaker_trips: u64,
    /// Chronological circuit-breaker transition log for the batch.
    #[serde(default)]
    pub breaker_transitions: Vec<String>,
    /// Tables whose results were replayed from a journal (resume runs).
    #[serde(default)]
    pub replayed_tables: u64,
    /// Journal records quarantined on replay (checksum or decode
    /// failure); the tables they covered were re-run.
    #[serde(default)]
    pub journal_corrupt_records: u64,
    /// Whether replay found and truncated a torn journal tail.
    #[serde(default)]
    pub journal_torn_tail: bool,
    /// Latent-cache entries quarantined on restore (checksum failure).
    #[serde(default)]
    pub cache_corrupt_entries: u64,
    /// Overload-control telemetry (admission, shedding, brownout, AIMD).
    #[serde(default)]
    pub overload: OverloadSummary,
    /// Cross-table micro-batching telemetry (batch counts, fill ratios,
    /// flush-reason histogram).
    #[serde(default)]
    pub batching: BatchingSummary,
    /// Hot model reload activity: versions served, canary gate verdicts,
    /// promotions and rollbacks (disabled default when rollout is off).
    #[serde(default)]
    pub rollout: crate::rollout::RolloutSummary,
}

impl DetectionReport {
    /// The Fig. 5 metric: columns whose content was read over all
    /// columns processed.
    pub fn scanned_ratio(&self) -> f64 {
        self.ledger.scanned_ratio(self.total_columns)
    }

    /// Number of columns the framework flagged as uncertain after P1.
    pub fn uncertain_columns(&self) -> usize {
        self.tables.iter().map(|t| t.uncertain_columns).sum()
    }

    /// Flattened admitted sets in (table, ordinal) order.
    pub fn all_admitted(&self) -> impl Iterator<Item = &LabelSet> {
        self.tables.iter().flat_map(|t| t.admitted.iter())
    }

    /// Columns that fell back to P1-only verdicts under faults.
    pub fn degraded_columns(&self) -> usize {
        self.tables.iter().map(|t| t.resilience.degraded_columns).sum()
    }

    /// Tables with at least one degraded stage (including failed tables).
    pub fn degraded_tables(&self) -> usize {
        self.tables.iter().filter(|t| t.resilience.degraded || t.resilience.failed).count()
    }

    /// Total database-operation retries across the batch.
    pub fn total_retries(&self) -> u32 {
        self.tables.iter().map(|t| t.resilience.retries).sum()
    }

    /// Total backoff sleep across the batch.
    pub fn total_backoff(&self) -> Duration {
        self.tables.iter().map(|t| t.resilience.backoff).sum()
    }

    /// Tables whose pipeline panicked in some stage (isolated, batch
    /// unaffected).
    pub fn panicked_tables(&self) -> usize {
        self.tables.iter().filter(|t| matches!(t.outcome, TableOutcome::Panicked { .. })).count()
    }

    /// Tables abandoned by the watchdog for exceeding a stage deadline.
    pub fn timed_out_tables(&self) -> usize {
        self.tables.iter().filter(|t| matches!(t.outcome, TableOutcome::TimedOut { .. })).count()
    }

    /// Tables cancelled before reaching any final outcome (batch
    /// deadline or deliberate halt); a resumed run re-processes these.
    pub fn cancelled_tables(&self) -> usize {
        self.tables.iter().filter(|t| t.outcome == TableOutcome::Cancelled).count()
    }

    /// Tables whose P2 work the overload controller shed: their verdicts
    /// are the P1 metadata-only verdicts.
    pub fn shed_tables(&self) -> usize {
        self.tables.iter().filter(|t| matches!(t.outcome, TableOutcome::Shed { .. })).count()
    }

    /// Tables refused by the admission gate; they never ran and carry
    /// empty verdicts (a resumed run re-submits them).
    pub fn rejected_tables(&self) -> usize {
        self.tables.iter().filter(|t| t.outcome == TableOutcome::Rejected).count()
    }

    /// Tables that reached a final outcome within `budget` of their
    /// admission — the numerator of a goodput-under-deadline metric.
    pub fn tables_within(&self, budget: Duration) -> usize {
        self.tables
            .iter()
            .filter(|t| t.outcome.is_final() && !t.latency.is_zero() && t.latency <= budget)
            .count()
    }
}

/// Scores a report against ground truth (`truth[table.0][ordinal]`),
/// producing the micro precision/recall/F1 of Tables 3 and 4.
///
/// Tables that never produced verdicts — refused by the admission gate,
/// cancelled mid-batch, or failed after exhausting their retry budget —
/// carry empty verdict sets and are skipped here; they are accounted by
/// the report's outcome counters, not its fidelity scores.
pub fn evaluate_report(report: &DetectionReport, truth: &[Vec<LabelSet>], ntypes: usize) -> EvalScores {
    let mut acc = EvalAccumulator::new(ntypes);
    for tr in &report.tables {
        if tr.admitted.is_empty() {
            continue;
        }
        let table_truth = &truth[tr.table.0 as usize];
        assert_eq!(
            table_truth.len(),
            tr.admitted.len(),
            "truth/result column count mismatch for table {}",
            tr.table.0
        );
        for (pred, gt) in tr.admitted.iter().zip(table_truth) {
            acc.observe(pred, gt);
        }
    }
    acc.scores()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taste_core::TypeId;

    fn ls(ids: &[u32]) -> LabelSet {
        LabelSet::from_iter(ids.iter().map(|&i| TypeId(i)))
    }

    fn report() -> DetectionReport {
        DetectionReport {
            approach: "test".into(),
            tables: vec![
                TableResult {
                    table: TableId(0),
                    admitted: vec![ls(&[1]), ls(&[])],
                    uncertain_columns: 1,
                    outcome: TableOutcome::Completed,
                    resilience: ResilienceSummary::default(),
                    latency: Duration::from_millis(2),
                    model_version: 0,
                },
                TableResult {
                    table: TableId(1),
                    admitted: vec![ls(&[2])],
                    uncertain_columns: 0,
                    outcome: TableOutcome::Completed,
                    resilience: ResilienceSummary::default(),
                    latency: Duration::from_millis(4),
                    model_version: 0,
                },
            ],
            wall_time: Duration::from_millis(5),
            ledger: LedgerSnapshot { columns_scanned: 1, ..Default::default() },
            total_columns: 3,
            cache_hits: 0,
            cache_misses: 0,
            breaker_trips: 0,
            breaker_transitions: Vec::new(),
            replayed_tables: 0,
            journal_corrupt_records: 0,
            journal_torn_tail: false,
            cache_corrupt_entries: 0,
            overload: OverloadSummary::default(),
            batching: BatchingSummary::default(),
            rollout: crate::rollout::RolloutSummary::default(),
        }
    }

    #[test]
    fn scanned_ratio_uses_ledger_over_total() {
        let r = report();
        assert!((r.scanned_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.uncertain_columns(), 1);
        assert_eq!(r.all_admitted().count(), 3);
    }

    #[test]
    fn evaluation_against_truth() {
        let r = report();
        let truth = vec![
            vec![ls(&[1]), ls(&[])],  // table 0: both correct
            vec![ls(&[3])],           // table 1: wrong type
        ];
        let scores = evaluate_report(&r, &truth, 5);
        // TP: type1 + background = 2; FP: type2; FN: type3.
        assert!((scores.precision - 2.0 / 3.0).abs() < 1e-9);
        assert!((scores.recall - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn evaluation_rejects_misaligned_truth() {
        let r = report();
        let truth = vec![vec![ls(&[1])], vec![ls(&[3])]];
        let _ = evaluate_report(&r, &truth, 5);
    }

    #[test]
    fn evaluation_skips_verdictless_tables() {
        let mut r = report();
        r.tables.push(TableResult {
            table: TableId(2),
            admitted: Vec::new(),
            uncertain_columns: 0,
            outcome: TableOutcome::Rejected,
            resilience: ResilienceSummary::default(),
            latency: Duration::ZERO,
            model_version: 0,
        });
        // Table 2's truth has columns, but the rejected table carries no
        // verdicts: it must not panic the evaluation or move the scores.
        let truth = vec![
            vec![ls(&[1]), ls(&[])],
            vec![ls(&[3])],
            vec![ls(&[1]), ls(&[2]), ls(&[3])],
        ];
        let scores = evaluate_report(&r, &truth, 5);
        assert!((scores.precision - 2.0 / 3.0).abs() < 1e-9);
        assert!((scores.recall - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn resilience_rollups() {
        let mut r = report();
        r.tables[0].resilience = ResilienceSummary {
            attempts: 6,
            retries: 4,
            backoff: Duration::from_millis(12),
            reconnects: 1,
            degraded_columns: 2,
            degraded: true,
            failed: false,
        };
        assert_eq!(r.degraded_columns(), 2);
        assert_eq!(r.degraded_tables(), 1);
        assert_eq!(r.total_retries(), 4);
        assert_eq!(r.total_backoff(), Duration::from_millis(12));
    }

    #[test]
    fn outcome_rollups_count_each_kind() {
        let mut r = report();
        r.tables[0].outcome = TableOutcome::Panicked { stage: "P1Infer".into(), payload: "boom".into() };
        r.tables[1].outcome = TableOutcome::TimedOut { stage: "P2Prep".into() };
        r.tables.push(TableResult {
            table: TableId(2),
            admitted: Vec::new(),
            uncertain_columns: 0,
            outcome: TableOutcome::Cancelled,
            resilience: ResilienceSummary::default(),
            latency: Duration::ZERO,
            model_version: 0,
        });
        assert_eq!(r.panicked_tables(), 1);
        assert_eq!(r.timed_out_tables(), 1);
        assert_eq!(r.cancelled_tables(), 1);
    }

    #[test]
    fn overload_rollups_and_latency_goodput() {
        use taste_core::ShedReason;
        let mut r = report();
        r.tables[0].outcome = TableOutcome::Shed { reason: ShedReason::QueuePressure };
        r.tables.push(TableResult {
            table: TableId(2),
            admitted: Vec::new(),
            uncertain_columns: 0,
            outcome: TableOutcome::Rejected,
            resilience: ResilienceSummary::default(),
            latency: Duration::ZERO,
            model_version: 0,
        });
        assert_eq!(r.shed_tables(), 1);
        assert_eq!(r.rejected_tables(), 1);
        // Goodput under a 3ms budget: table 0 (2ms, shed but final)
        // counts; table 1 (4ms) misses; table 2 never ran.
        assert_eq!(r.tables_within(Duration::from_millis(3)), 1);
        assert_eq!(r.tables_within(Duration::from_millis(10)), 2);
    }

    #[test]
    fn overload_summary_serde_defaults() {
        // Reports serialized before the overload subsystem deserialize to
        // the disabled default, and the summary roundtrips.
        let r = report();
        let mut v = serde_json::to_value(&r).unwrap();
        v.as_object_mut().unwrap().remove("overload");
        let restored: DetectionReport = serde_json::from_value(v).unwrap();
        assert_eq!(restored.overload, OverloadSummary::default());
        assert!(!restored.overload.enabled);
        let s = OverloadSummary {
            enabled: true,
            submitted: 10,
            admitted: 7,
            rejected: 3,
            shed_tables: 2,
            queue_peak: 5,
            transitions: vec!["normal->brownout @1.0ms".into()],
            brownout_entries: 1,
            ..Default::default()
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: OverloadSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn batching_summary_serde_defaults() {
        // Reports serialized before the batching subsystem deserialize to
        // the zeroed default, and a populated summary roundtrips.
        let r = report();
        let mut v = serde_json::to_value(&r).unwrap();
        v.as_object_mut().unwrap().remove("batching");
        let restored: DetectionReport = serde_json::from_value(v).unwrap();
        assert_eq!(restored.batching, BatchingSummary::default());
        assert!(!restored.batching.enabled);
        let s = BatchingSummary {
            enabled: true,
            p1: PhaseBatchingSummary {
                batches: 4,
                batched_tables: 9,
                batched_columns: 31,
                mean_fill: 0.75,
                p95_fill: 1.0,
                size_flushes: 3,
                deadline_flushes: 1,
                drain_flushes: 0,
            },
            p2: PhaseBatchingSummary::default(),
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: BatchingSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn rollout_summary_serde_defaults() {
        use crate::rollout::{EpisodeOutcome, GateVerdicts, RolloutEpisode, RolloutSummary};
        // Reports serialized before the rollout subsystem deserialize to
        // the disabled default (and model_version to 0), and a populated
        // summary roundtrips.
        let r = report();
        let mut v = serde_json::to_value(&r).unwrap();
        v.as_object_mut().unwrap().remove("rollout");
        let restored: DetectionReport = serde_json::from_value(v).unwrap();
        assert_eq!(restored.rollout, RolloutSummary::default());
        assert!(!restored.rollout.enabled);
        let mut tv = serde_json::to_value(&r.tables[0]).unwrap();
        tv.as_object_mut().unwrap().remove("model_version");
        let tr: TableResult = serde_json::from_value(tv).unwrap();
        assert_eq!(tr.model_version, 0);
        let s = RolloutSummary {
            enabled: true,
            initial_version: 1,
            final_version: 2,
            candidates_offered: 2,
            rejected_artifacts: 1,
            promotions: 1,
            rollbacks: 1,
            episodes: vec![RolloutEpisode {
                candidate_version: 2,
                incumbent_version: 1,
                gates: GateVerdicts { canary_tables: 4, agreement: 0.97, ..Default::default() },
                outcome: EpisodeOutcome::Promoted,
                cause: None,
            }],
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: RolloutSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn resilience_absorbs_stage_stats() {
        use crate::retry::RetryStats;
        let mut s = ResilienceSummary::default();
        s.absorb(&RetryStats {
            attempts: 3,
            retries: 2,
            backoff: Duration::from_millis(4),
            reconnects: 1,
        });
        s.absorb(&RetryStats { attempts: 1, ..Default::default() });
        assert_eq!(s.attempts, 4);
        assert_eq!(s.retries, 2);
        assert_eq!(s.backoff, Duration::from_millis(4));
        assert_eq!(s.reconnects, 1);
        assert!(!s.degraded && !s.failed);
    }
}
