//! Cross-table micro-batch planning for the inference stages.
//!
//! Without a planner the pipelined scheduler dispatches each runnable
//! inference stage at once, as a batch of one, so every `P1Infer`/`P2Infer`
//! pass runs the model over a single table's chunks. Cloud catalogs are
//! dominated by *small* tables, which leaves the fused kernels running at
//! a fraction of their useful row count. The [`BatchPlanner`] changes how
//! the scheduler forms an inference job's member list: runnable inference
//! stages are queued per phase, and one dispatched job serves a
//! micro-batch of columns drawn from many tables in row-stacked forward
//! passes (see [`taste_model::Adtd::encode_meta`]).
//!
//! A phase's queue is flushed by whichever trigger fires first:
//!
//! * **Size** — the queued column count reaches
//!   [`BatchingConfig::max_batch_columns`].
//! * **Deadline** — the oldest queued item has waited
//!   [`BatchingConfig::flush_deadline`], bounding the latency a small
//!   table can pay for batching.
//! * **Drain** — the scheduler has nothing else to dispatch and both
//!   pools are idle, so waiting any longer cannot improve fill.
//!
//! The planner is a passive, clock-free data structure: the scheduler
//! thread owns it, supplies `Instant`s, and decides when to ask for a
//! flush. Shed or cancelled tables are kept out of fused passes twice — a
//! shed table's P2 stages leave the stage queue before they reach the
//! planner, and the inference job re-checks every member under its state
//! lock at execution time.

use crate::config::BatchingConfig;
use crate::report::{BatchingSummary, PhaseBatchingSummary};
use std::collections::VecDeque;
use std::time::Instant;

/// Which inference phase a queued item belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPhase {
    /// Phase 1: metadata-tower inference.
    P1,
    /// Phase 2: content-tower inference.
    P2,
}

impl BatchPhase {
    fn index(self) -> usize {
        match self {
            BatchPhase::P1 => 0,
            BatchPhase::P2 => 1,
        }
    }
}

/// Why a batch was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The queued column count reached the size budget.
    Size,
    /// The oldest queued item exceeded the flush deadline.
    Deadline,
    /// The pipeline ran dry: nothing else to dispatch, pools idle.
    Drain,
}

/// One table's inference stage waiting for a batch slot.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Scheduler index of the owning table.
    pub t: usize,
    /// Columns this item contributes to the batch (total columns for
    /// P1, uncertain columns for P2).
    pub cols: usize,
    /// When the item became runnable and entered the queue.
    pub since: Instant,
}

/// Per-phase flush accounting, folded into the report at batch end.
#[derive(Debug, Clone, Default)]
struct PhaseStats {
    batches: u64,
    size_flushes: u64,
    deadline_flushes: u64,
    drain_flushes: u64,
    /// Fill ratio (queued columns over budget) of each flushed batch.
    fills: Vec<f64>,
}

impl PhaseStats {
    fn summary(&self) -> PhaseBatchingSummary {
        let mut sorted = self.fills.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("fill ratios are finite"));
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        };
        let p95 = if sorted.is_empty() {
            0.0
        } else {
            let idx = ((sorted.len() as f64 * 0.95).ceil() as usize).max(1) - 1;
            sorted[idx.min(sorted.len() - 1)]
        };
        PhaseBatchingSummary {
            batches: self.batches,
            batched_tables: 0,
            batched_columns: 0,
            mean_fill: mean,
            p95_fill: p95,
            size_flushes: self.size_flushes,
            deadline_flushes: self.deadline_flushes,
            drain_flushes: self.drain_flushes,
        }
    }
}

/// Size- and deadline-triggered micro-batch planner with one queue per
/// inference phase. Owned by the scheduler thread; see the module docs
/// for the flush protocol.
pub struct BatchPlanner {
    cfg: BatchingConfig,
    queues: [VecDeque<BatchItem>; 2],
    queued_cols: [usize; 2],
    stats: [PhaseStats; 2],
}

impl BatchPlanner {
    /// A planner with empty queues.
    pub fn new(cfg: BatchingConfig) -> BatchPlanner {
        BatchPlanner {
            cfg,
            queues: [VecDeque::new(), VecDeque::new()],
            queued_cols: [0, 0],
            stats: [PhaseStats::default(), PhaseStats::default()],
        }
    }

    /// Queues one table's inference stage for `phase`.
    pub fn push(&mut self, phase: BatchPhase, t: usize, cols: usize, now: Instant) {
        let p = phase.index();
        self.queued_cols[p] += cols;
        self.queues[p].push_back(BatchItem { t, cols, since: now });
    }

    /// Whether both phase queues are empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Items currently queued across both phases.
    pub fn items(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Whether `phase` should flush now, and why. Size wins over
    /// deadline when both hold, so a full batch is never misattributed
    /// to latency pressure.
    pub fn ready(&self, phase: BatchPhase, now: Instant) -> Option<FlushReason> {
        let p = phase.index();
        let oldest = self.queues[p].front()?;
        if self.queued_cols[p] >= self.cfg.max_batch_columns {
            return Some(FlushReason::Size);
        }
        if now.duration_since(oldest.since) >= self.cfg.flush_deadline {
            return Some(FlushReason::Deadline);
        }
        None
    }

    /// The instant at which `phase`'s oldest item hits its flush
    /// deadline, if anything is queued — the scheduler's wakeup bound.
    pub fn next_deadline(&self, phase: BatchPhase) -> Option<Instant> {
        self.queues[phase.index()].front().map(|it| it.since + self.cfg.flush_deadline)
    }

    /// Takes one batch off `phase`'s queue: the oldest item always, then
    /// more items while the column budget holds. Returns an empty vector
    /// when nothing is queued. Records the flush in the stats.
    pub fn flush(&mut self, phase: BatchPhase, reason: FlushReason) -> Vec<BatchItem> {
        let p = phase.index();
        let mut batch = Vec::new();
        let mut cols = 0usize;
        while let Some(item) = self.queues[p].front() {
            if !batch.is_empty() && cols + item.cols > self.cfg.max_batch_columns {
                break;
            }
            cols += item.cols;
            let item = self.queues[p].pop_front().expect("front observed above");
            self.queued_cols[p] -= item.cols;
            batch.push(item);
        }
        if batch.is_empty() {
            return batch;
        }
        let stats = &mut self.stats[p];
        stats.batches += 1;
        match reason {
            FlushReason::Size => stats.size_flushes += 1,
            FlushReason::Deadline => stats.deadline_flushes += 1,
            FlushReason::Drain => stats.drain_flushes += 1,
        }
        stats.fills.push(cols as f64 / self.cfg.max_batch_columns.max(1) as f64);
        batch
    }

    /// Folds the flush accounting into a report summary. The per-batch
    /// `batched_tables`/`batched_columns` counters are filled in by the
    /// executed jobs, which know how many members were still live.
    pub fn summary(&self) -> BatchingSummary {
        BatchingSummary {
            enabled: true,
            p1: self.stats[0].summary(),
            p2: self.stats[1].summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg(max_cols: usize, deadline_ms: u64) -> BatchingConfig {
        BatchingConfig {
            enabled: true,
            max_batch_columns: max_cols,
            flush_deadline: Duration::from_millis(deadline_ms),
        }
    }

    #[test]
    fn size_trigger_fires_at_the_column_budget() {
        let mut p = BatchPlanner::new(cfg(8, 1_000));
        let now = Instant::now();
        p.push(BatchPhase::P1, 0, 3, now);
        p.push(BatchPhase::P1, 1, 4, now);
        assert_eq!(p.ready(BatchPhase::P1, now), None, "7 of 8 columns queued");
        p.push(BatchPhase::P1, 2, 1, now);
        assert_eq!(p.ready(BatchPhase::P1, now), Some(FlushReason::Size));
        // Phases are independent queues.
        assert_eq!(p.ready(BatchPhase::P2, now), None);
        let batch = p.flush(BatchPhase::P1, FlushReason::Size);
        assert_eq!(batch.iter().map(|b| b.t).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(p.is_empty());
    }

    #[test]
    fn deadline_trigger_fires_on_the_oldest_item() {
        let mut p = BatchPlanner::new(cfg(100, 5));
        let t0 = Instant::now();
        p.push(BatchPhase::P2, 4, 2, t0);
        assert_eq!(p.ready(BatchPhase::P2, t0), None);
        let late = t0 + Duration::from_millis(6);
        assert_eq!(p.ready(BatchPhase::P2, late), Some(FlushReason::Deadline));
        assert_eq!(p.next_deadline(BatchPhase::P2), Some(t0 + Duration::from_millis(5)));
        let batch = p.flush(BatchPhase::P2, FlushReason::Deadline);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].t, 4);
    }

    #[test]
    fn size_wins_over_deadline_when_both_hold() {
        let mut p = BatchPlanner::new(cfg(2, 1));
        let t0 = Instant::now();
        p.push(BatchPhase::P1, 0, 2, t0);
        let late = t0 + Duration::from_millis(10);
        assert_eq!(p.ready(BatchPhase::P1, late), Some(FlushReason::Size));
    }

    #[test]
    fn flush_respects_the_budget_but_never_starves_an_oversized_table() {
        let mut p = BatchPlanner::new(cfg(4, 1_000));
        let now = Instant::now();
        p.push(BatchPhase::P1, 0, 9, now); // wider than the whole budget
        p.push(BatchPhase::P1, 1, 1, now);
        assert_eq!(p.ready(BatchPhase::P1, now), Some(FlushReason::Size));
        let first = p.flush(BatchPhase::P1, FlushReason::Size);
        assert_eq!(first.len(), 1, "the oversized table flushes alone");
        assert_eq!(first[0].t, 0);
        // The remainder keeps its original enqueue stamp and flushes on
        // the next trigger.
        assert_eq!(p.items(), 1);
        let rest = p.flush(BatchPhase::P1, FlushReason::Drain);
        assert_eq!(rest[0].t, 1);
        assert!(p.is_empty());
    }

    #[test]
    fn zero_column_items_ride_along_for_free() {
        let mut p = BatchPlanner::new(cfg(2, 1_000));
        let now = Instant::now();
        p.push(BatchPhase::P2, 0, 0, now);
        p.push(BatchPhase::P2, 1, 2, now);
        p.push(BatchPhase::P2, 2, 0, now);
        let batch = p.flush(BatchPhase::P2, FlushReason::Size);
        assert_eq!(batch.iter().map(|b| b.t).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn stats_track_reasons_and_fill_ratios() {
        let mut p = BatchPlanner::new(cfg(8, 1_000));
        let now = Instant::now();
        p.push(BatchPhase::P1, 0, 8, now);
        p.flush(BatchPhase::P1, FlushReason::Size);
        p.push(BatchPhase::P1, 1, 2, now);
        p.flush(BatchPhase::P1, FlushReason::Deadline);
        p.push(BatchPhase::P1, 2, 4, now);
        p.flush(BatchPhase::P1, FlushReason::Drain);
        let s = p.summary();
        assert!(s.enabled);
        assert_eq!(s.p1.batches, 3);
        assert_eq!(s.p1.size_flushes, 1);
        assert_eq!(s.p1.deadline_flushes, 1);
        assert_eq!(s.p1.drain_flushes, 1);
        // Fills 1.0, 0.25, 0.5 → mean ~0.583, p95 = 1.0.
        assert!((s.p1.mean_fill - (1.0 + 0.25 + 0.5) / 3.0).abs() < 1e-12);
        assert!((s.p1.p95_fill - 1.0).abs() < 1e-12);
        assert_eq!(s.p2.batches, 0);
        assert_eq!(s.p2.mean_fill, 0.0);
    }

    #[test]
    fn empty_flush_records_nothing() {
        let mut p = BatchPlanner::new(cfg(8, 1));
        assert!(p.flush(BatchPhase::P1, FlushReason::Drain).is_empty());
        assert_eq!(p.summary().p1.batches, 0);
        assert_eq!(p.ready(BatchPhase::P1, Instant::now()), None);
    }
}
