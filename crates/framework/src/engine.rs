//! The batch detection engine: sequential mode and the Algorithm 1
//! pipelined scheduler (§5), hardened for crash-safe detection runs.
//!
//! Pipelined mode builds two worker pools of different widths — `TP1` for
//! data-preparation stages (each worker owns one reused database
//! connection, per the paper's batching guidance) and `TP2` for inference
//! stages, each worker owning a long-lived [`Inferencer`] whose scratch
//! buffers persist across every table it serves. TP2 is compute and is
//! `pool_size` wide. A prep stage is a wait on someone else's database, so
//! TP1 is sized by how many waits to keep in flight, not by cores: eight,
//! or `pool_size` where that is larger — a constant beside the catalog
//! group cap in [`crate::stages`], a budget on the database's connections
//! that only a [`LoadController`] may shrink. The engine runs **one**
//! scheduler loop,
//! [`schedule`], over one stage queue holding the four stages of every
//! admitted table in order. Each pass dispatches the *first runnable*
//! prep stage to a free TP1 worker and hands runnable inference stages to
//! TP2, where a stage is runnable exactly when all previous stages of its
//! table have finished (Definition 5.1). The per-table stage order is
//! thus preserved while stages of different tables overlap: one table's
//! content scan (I/O sleep) proceeds while another's inference (CPU)
//! runs.
//!
//! A dispatched `P1Prep` does not travel alone: it takes with it every
//! other `P1Prep` runnable at that moment, up to a fixed cap of 16 tables,
//! and the group's catalog rows ride **one** joined `information_schema`
//! read ([`run_prep1`]) — on a cloud database the round trip, not the
//! payload, is what a metadata query costs. A group is one TP1 job on one
//! connection, so the pool limits and the connection budget mean what
//! they meant; Definition 5.1 orders the stages of one table only, so
//! nothing in Algorithm 1 changes.
//!
//! The two optional policies plug into that loop rather than replacing
//! it:
//!
//! * **No [`LoadController`]** (`overload.enabled` off): every table is
//!   admitted up front, each pool may run its full width of stages at
//!   once (TP1's I/O depth, TP2's `pool_size`), and the shed pass, the
//!   queue-wait observation and the connection-budget follow-up are
//!   skipped. With one, tables enter the queue as in-flight slots free —
//!   so a catalog group is whatever the admission window has promoted —
//!   the TP1/TP2 limits follow the AIMD governor, and P2 work is shed
//!   cheapest-first under pressure.
//! * **No [`BatchPlanner`]** (`batching.enabled` off): the first
//!   runnable inference stage goes to a free TP2 worker at once, as a
//!   batch of one. With one, every runnable inference stage joins the
//!   planner and a TP2 job serves a *micro-batch of columns from many
//!   tables*, flushed when the column budget fills, when the oldest
//!   member hits the flush deadline, or when the pipeline runs dry.
//!
//! Either way an inference job is [`run_infer`] over a member list —
//! also in sequential mode, where every list has one member. It gathers
//! each member's inputs under that member's own lock, stage clock and
//! cancel token (a dead, failed, degraded or cancelled member settles
//! right there and contributes no columns), groups the live ones by
//! pinned model version (a canary table is a group of one), runs one
//! fused forward pass per group and scatters the verdicts back under
//! each owner's lock. The result does not depend on the grouping (see
//! `crates/framework/tests/`). [`run_prep1`] is the same shape one stage
//! earlier: gather (a panicking, stalling, cancelled or settled member
//! finishes its slot alone and contributes no table id), one read under
//! the retry policy, scatter.
//!
//! ```text
//!   admission ──→ stage queue ──→ TP1 (prep pool, 8 deep)     TP2 (inference pool,
//!   (all at once,  4 stages      ┌──────────────────────┐          pool_size wide)
//!    or as slots   per table,    │ P1Prep [A, B, C]     │     ┌────────────────────────┐
//!    free)         in order      │  one catalog read,   │ ──→ │ P1Infer  [A ++ B ++ C] │
//!                                │  ≤ 16 tables         │     └───────────┬────────────┘
//!                                └──────────────────────┘                 ↓ scatter
//!                                  planner, or a batch of one
//!                                table A ─ P2Prep (scan) ─┐   ┌────────────────────────┐
//!                                table C ─ P2Prep (scan) ─┼─→ │ P2Infer  [A ++ C]      │
//!                                  (B shed: leaves the    ┘   └───────────┬────────────┘
//!                                   queue)                                ↓ per-table verdicts
//! ```
//!
//! Every database stage runs under the retry policy of
//! [`crate::retry`]: transient faults are retried with backoff behind a
//! per-database circuit breaker, and — with `retry.degrade` on — a table
//! whose P2 content scan exhausts its budget falls back to its P1
//! metadata-only verdicts instead of failing the batch (a table whose P1
//! fails is reported as failed with empty verdicts — and a catalog read
//! that exhausts its budget fails every table of its group that way, its
//! retries charged to the group's first member so that the per-table
//! retries still add up to the ledger's). Either way a failing
//! table can never wedge a pool worker or lose its slot in the report. A
//! stage error that does fail the batch is recorded on its table, whose
//! remaining stages become no-ops; every other table still runs to
//! completion before the first recorded error, in batch order, is
//! returned.
//!
//! On top of that sits the crash-safety layer:
//!
//! * **Panic isolation** — every stage executes under `catch_unwind`, so
//!   a poisoned table is reported as
//!   [`TableOutcome::Panicked`] while the worker survives and the pools
//!   stay at full strength. A panic inside a fused pass re-runs its
//!   members one by one, so only the culprit is lost.
//! * **Watchdog + cooperative cancellation** — with deadlines configured
//!   in [`crate::config::HardeningConfig`], a monitor thread flips a
//!   per-table [`CancelToken`] when a stage (or the batch) overruns;
//!   stages observe the token at boundaries and inside row loops, and an
//!   expired table is reported as [`TableOutcome::TimedOut`] with its P1
//!   verdicts when Phase 1 completed.
//! * **Resumable verdict journal** — [`TasteEngine::detect_batch_journaled`]
//!   appends each table's final verdicts to a checksummed journal as it
//!   finishes; after a crash, [`TasteEngine::resume`] replays the intact
//!   records, re-runs only the unfinished tables, and merges both into
//!   one report.

use crate::batcher::{BatchPhase, BatchPlanner, FlushReason};
use crate::config::TasteConfig;
use crate::journal::{self, JournalRecord, JournalWriter};
use crate::overload::{Admission, LoadController};
use crate::report::{BatchingSummary, DetectionReport, OverloadSummary, ResilienceSummary, TableResult};
use crate::retry::{acquire_with_retry, connect_with_retry, run_with_retry, CircuitBreaker};
use crate::rollout::{CanaryObservation, Pinned, RolloutController};
use crate::stages::{
    catalog_group_cap, infer_phase1, infer_phase2, prep_phase1, prep_phase2, shed_finals,
    table_not_found, tp1_depth, P1Infer, P1Item, P1Prep, P2Item, P2Prep,
};
use crate::watchdog::{CancelReason, CancelToken, StageClocks, TableDeadlines, Wakeup, Watchdog};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taste_core::{LabelSet, Result, ShedReason, TableId, TableOutcome, TasteError};
use taste_db::{Connection, ConnectionPool, Database};
use taste_model::registry::VersionedModel;
use taste_model::{Adtd, CacheRestoreStats, Inferencer, LatentCache};

/// The TASTE detection engine: a trained model plus a configuration.
pub struct TasteEngine {
    model: Arc<Adtd>,
    /// The active configuration.
    pub config: TasteConfig,
    cache: Arc<LatentCache>,
    cache_corrupt: AtomicU64,
    /// Present when `config.rollout.enabled`: the hot-reload coordinator
    /// shared between this engine's runs and external publishers.
    rollout: Option<Arc<RolloutController>>,
}

/// Shared per-table pipeline state.
struct TableState {
    tid: TableId,
    // Prep outputs are Arc'd so an inference job can lift them out of
    // the lock and run the fused pass without holding any state.
    prep1: Option<Arc<P1Prep>>,
    infer1: Option<P1Infer>,
    prep2: Option<Arc<P2Prep>>,
    finals: Option<Vec<LabelSet>>,
    error: Option<TasteError>,
    outcome: Option<TableOutcome>,
    resilience: ResilienceSummary,
    /// The overload controller's verdict at admission (overload mode).
    admission: Option<Admission>,
    /// When the table was promoted into the in-flight set.
    admitted_at: Option<Instant>,
    /// Absolute completion deadline stamped at admission.
    deadline: Option<Instant>,
    /// End-to-end latency, stamped at finalization.
    latency: Duration,
    /// The model pinned at the table's first inference stage. Every
    /// later stage of the table runs on this `Arc`, so a promotion or
    /// rollback mid-run never tears a table across versions.
    pinned: Option<Pinned>,
}

type Shared = Arc<(Mutex<TableState>, AtomicUsize)>;

/// Everything one batch's stages share: the model artifacts, the fault
/// policy, and the crash-safety plumbing (tokens, clocks, journal).
struct BatchCtx {
    model: Arc<Adtd>,
    cache: Arc<LatentCache>,
    cfg: TasteConfig,
    breaker: Arc<CircuitBreaker>,
    db: Arc<Database>,
    tokens: Vec<CancelToken>,
    clocks: Arc<StageClocks>,
    journal: Option<Mutex<JournalWriter>>,
    finished_final: AtomicUsize,
    /// Present only in pipelined runs with overload control enabled;
    /// without one the scheduler admits every table at once.
    controller: Option<Arc<LoadController>>,
    /// Per-table admission deadlines enforced by the watchdog.
    deadlines: Option<Arc<TableDeadlines>>,
    /// When the batch entered the engine; latency baseline for tables
    /// that never pass through the admission gate.
    batch_start: Instant,
    /// Progress event: workers notify after every job, the watchdog on
    /// every fresh cancellation, so the scheduler blocks instead of
    /// polling.
    wake: Arc<Wakeup>,
    /// Micro-batching telemetry: every inference job records the members
    /// its fused passes served; a scheduler that ran a planner folds the
    /// flush accounting in when it exits, which is what makes the counts
    /// a report (`enabled`).
    batching: Mutex<BatchingSummary>,
    /// The hot-reload coordinator, when rollout is enabled: tables pin
    /// their serving model through it and canary tables report shadow
    /// scores back to its health gates.
    rollout: Option<Arc<RolloutController>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageKind {
    P1Prep,
    P1Infer,
    P2Prep,
    P2Infer,
}

impl StageKind {
    const ORDER: [StageKind; 4] = [StageKind::P1Prep, StageKind::P1Infer, StageKind::P2Prep, StageKind::P2Infer];

    fn index(self) -> usize {
        Self::ORDER.iter().position(|&s| s == self).expect("member")
    }

    /// The planner phase of an inference stage; `None` for a prep stage.
    fn phase(self) -> Option<BatchPhase> {
        match self {
            StageKind::P1Infer => Some(BatchPhase::P1),
            StageKind::P2Infer => Some(BatchPhase::P2),
            StageKind::P1Prep | StageKind::P2Prep => None,
        }
    }

    fn is_p2(self) -> bool {
        matches!(self, StageKind::P2Prep | StageKind::P2Infer)
    }
}

impl TasteEngine {
    /// Builds an engine; validates the configuration. With
    /// `config.rollout.enabled`, the construction-time model becomes the
    /// incumbent at `config.rollout.initial_version` and the engine
    /// exposes a [`RolloutController`] via [`rollout`](Self::rollout)
    /// for publishers to offer candidates through.
    pub fn new(model: Arc<Adtd>, config: TasteConfig) -> Result<TasteEngine> {
        config.validate()?;
        let rollout = config.rollout.enabled.then(|| {
            Arc::new(RolloutController::new(
                VersionedModel {
                    version: config.rollout.initial_version,
                    model: Arc::clone(&model),
                },
                config.rollout,
            ))
        });
        Ok(TasteEngine {
            model,
            config,
            cache: Arc::new(LatentCache::new(512)),
            cache_corrupt: AtomicU64::new(0),
            rollout,
        })
    }

    /// The model in service.
    pub fn model(&self) -> &Arc<Adtd> {
        &self.model
    }

    /// The hot-reload coordinator (present when `config.rollout.enabled`).
    /// Publishers offer candidates through it — directly via
    /// [`RolloutController::offer`] or from disk via
    /// [`RolloutController::adopt_latest`] — while detection runs serve.
    pub fn rollout(&self) -> Option<&Arc<RolloutController>> {
        self.rollout.as_ref()
    }

    /// Detects semantic types for a batch of tables end-to-end,
    /// returning the per-column admitted sets plus the cost telemetry.
    pub fn detect_batch(&self, db: &Arc<Database>, tables: &[TableId]) -> Result<DetectionReport> {
        self.cache.clear();
        self.run(db, tables, None)
    }

    /// Like [`detect_batch`](Self::detect_batch), but appends each
    /// table's final verdicts to a fresh journal at `journal_path` as it
    /// finishes, so a killed run can be picked up by
    /// [`resume`](Self::resume).
    pub fn detect_batch_journaled(
        &self,
        db: &Arc<Database>,
        tables: &[TableId],
        journal_path: &Path,
    ) -> Result<DetectionReport> {
        self.cache.clear();
        let writer = JournalWriter::create(journal_path)?;
        self.run(db, tables, Some(writer))
    }

    /// Resumes an interrupted journaled run: replays the intact journal
    /// records (quarantining corrupt ones, truncating a torn tail),
    /// re-runs only the tables without a journaled final outcome, and
    /// returns the merged report in the original batch order.
    ///
    /// No table with an intact journal record is processed twice. The
    /// latent cache is deliberately *not* cleared, so entries restored
    /// via [`restore_cache`](Self::restore_cache) carry over.
    pub fn resume(
        &self,
        db: &Arc<Database>,
        tables: &[TableId],
        journal_path: &Path,
    ) -> Result<DetectionReport> {
        let replayed = journal::replay(journal_path)?;
        let mut done: FxHashMap<TableId, JournalRecord> = FxHashMap::default();
        for rec in replayed.records {
            done.insert(rec.table, rec);
        }
        let todo: Vec<TableId> = tables.iter().copied().filter(|tid| !done.contains_key(tid)).collect();
        let writer = JournalWriter::append_to(journal_path)?;
        let mut report = self.run(db, &todo, Some(writer))?;

        let mut fresh: FxHashMap<TableId, TableResult> =
            report.tables.drain(..).map(|tr| (tr.table, tr)).collect();
        let mut merged = Vec::with_capacity(tables.len());
        let mut replayed_tables = 0u64;
        for tid in tables {
            if let Some(rec) = done.remove(tid) {
                replayed_tables += 1;
                merged.push(rec.into_result());
            } else if let Some(tr) = fresh.remove(tid) {
                merged.push(tr);
            }
        }
        report.total_columns = merged.iter().map(|t| t.admitted.len() as u64).sum();
        report.tables = merged;
        report.replayed_tables = replayed_tables;
        report.journal_corrupt_records = replayed.corrupt_records;
        report.journal_torn_tail = replayed.torn_tail;
        Ok(report)
    }

    /// Persists the latent cache to `path` (checksummed records, atomic
    /// rename); returns how many entries were written.
    pub fn persist_cache(&self, path: &Path) -> Result<usize> {
        self.cache.save(path)
    }

    /// Restores the latent cache from `path`, quarantining entries whose
    /// checksum fails; corrupt-entry counts surface in subsequent
    /// reports' `cache_corrupt_entries`.
    pub fn restore_cache(&self, path: &Path) -> Result<CacheRestoreStats> {
        let stats = self.cache.restore(path)?;
        self.cache_corrupt.fetch_add(stats.corrupt as u64, Ordering::SeqCst);
        Ok(stats)
    }

    /// The shared batch body behind every public entry point.
    fn run(
        &self,
        db: &Arc<Database>,
        tables: &[TableId],
        journal: Option<JournalWriter>,
    ) -> Result<DetectionReport> {
        let breaker = CircuitBreaker::new(
            self.config.retry.breaker_threshold,
            self.config.retry.breaker_cooldown,
        );
        let ledger_before = db.ledger().snapshot();
        let clocks = Arc::new(StageClocks::new(tables.len()));
        let overload_on = self.config.overload.enabled && self.config.pipelining;
        let pool = self.config.pool_size;
        let controller =
            overload_on.then(|| Arc::new(LoadController::new(self.config.overload, tp1_depth(pool), pool)));
        let deadlines = (overload_on && self.config.overload.deadline.is_some())
            .then(|| Arc::new(TableDeadlines::new(tables.len())));
        let wake = Arc::new(Wakeup::new());
        let ctx = Arc::new(BatchCtx {
            model: Arc::clone(&self.model),
            cache: Arc::clone(&self.cache),
            cfg: self.config,
            breaker: Arc::clone(&breaker),
            db: Arc::clone(db),
            tokens: (0..tables.len()).map(|_| CancelToken::new()).collect(),
            clocks: Arc::clone(&clocks),
            journal: journal.map(Mutex::new),
            finished_final: AtomicUsize::new(0),
            controller,
            deadlines: deadlines.clone(),
            batch_start: Instant::now(),
            wake: Arc::clone(&wake),
            batching: Mutex::new(BatchingSummary::default()),
            rollout: self.rollout.clone(),
        });
        let hardening = self.config.hardening;
        let watchdog = (hardening.needs_watchdog() || deadlines.is_some()).then(|| {
            Watchdog::spawn(
                hardening.stage_deadline,
                hardening.batch_deadline,
                hardening.watchdog_poll,
                clocks,
                ctx.tokens.clone(),
                deadlines,
                Some(wake),
            )
        });
        let t0 = Instant::now();
        let run_result = if self.config.pipelining {
            self.run_pipelined(db, tables, &ctx)
        } else {
            self.run_sequential(db, tables, &ctx)
        };
        if let Some(dog) = watchdog {
            dog.stop();
        }
        let states = run_result?;
        let wall_time = t0.elapsed();
        let ledger = db.ledger().snapshot().since(&ledger_before);
        let (cache_hits, cache_misses) = self.cache.stats();

        // A batch-failing stage error outranks whatever it left
        // unfinished: surface the first one recorded, in batch order.
        if let Some(e) = states.iter().find_map(|s| s.0.lock().error.take()) {
            return Err(e);
        }
        let mut results = Vec::with_capacity(states.len());
        let mut total_columns = 0u64;
        for state in states {
            let st = Arc::try_unwrap(state)
                .map_err(|_| TasteError::Scheduler("state still shared after completion".into()))?
                .0
                .into_inner();
            let finals = st
                .finals
                .ok_or_else(|| TasteError::Scheduler(format!("table {} never finished", st.tid.0)))?;
            total_columns += finals.len() as u64;
            let uncertain_columns = st.infer1.as_ref().map_or(0, |i| i.uncertain.len());
            results.push(TableResult {
                table: st.tid,
                admitted: finals,
                uncertain_columns,
                outcome: st.outcome.unwrap_or_default(),
                resilience: st.resilience,
                latency: st.latency,
                model_version: st.pinned.as_ref().map_or(0, |p| p.version),
            });
        }
        let overload = ctx.controller.as_ref().map_or_else(OverloadSummary::default, |c| c.summary());
        // Served-member counts are batching telemetry only when a planner
        // formed the batches (it sets `enabled`); otherwise all zeros.
        let batching = Some(ctx.batching.lock().clone()).filter(|b| b.enabled).unwrap_or_default();
        let rollout = ctx.rollout.as_ref().map_or_else(Default::default, |r| r.summary());
        Ok(DetectionReport {
            approach: "TASTE".into(),
            tables: results,
            wall_time,
            ledger,
            total_columns,
            cache_hits,
            cache_misses,
            breaker_trips: breaker.trips(),
            breaker_transitions: breaker.transitions(),
            replayed_tables: 0,
            journal_corrupt_records: 0,
            journal_torn_tail: false,
            cache_corrupt_entries: self.cache_corrupt.load(Ordering::SeqCst),
            overload,
            batching,
            rollout,
        })
    }

    fn new_states(&self, tables: &[TableId]) -> Vec<Shared> {
        tables
            .iter()
            .map(|&tid| {
                Arc::new((
                    Mutex::new(TableState {
                        tid,
                        prep1: None,
                        infer1: None,
                        prep2: None,
                        finals: None,
                        error: None,
                        outcome: None,
                        resilience: ResilienceSummary::default(),
                        admission: None,
                        admitted_at: None,
                        deadline: None,
                        latency: Duration::ZERO,
                        pinned: None,
                    }),
                    AtomicUsize::new(0),
                ))
            })
            .collect()
    }

    /// Sequential mode (*TASTE w/o pipelining*): one connection, tables
    /// processed one after another, stages in order — except that the
    /// catalog rows of up to 16 tables at a time ride one read, as they do
    /// in pipelined mode.
    fn run_sequential(
        &self,
        db: &Arc<Database>,
        tables: &[TableId],
        ctx: &Arc<BatchCtx>,
    ) -> Result<Vec<Shared>> {
        let states = self.new_states(tables);
        let conn = connect_with_retry(db, &self.config.retry)?;
        let mut inf = self.config.execution.inferencer();
        let members: Vec<(usize, Shared)> = states.iter().cloned().enumerate().collect();
        // The catalog is read in the same groups the scheduler forms, so
        // the two modes differ in overlap only; then each table of the
        // group walks its remaining three stages.
        for group in members.chunks(catalog_group_cap()) {
            run_prep1(group, Some(&conn), ctx);
            for member in group {
                run_infer(BatchPhase::P1, std::slice::from_ref(member), ctx, &mut inf);
                run_prep2(member.0, &member.1, Some(&conn), ctx);
                run_infer(BatchPhase::P2, std::slice::from_ref(member), ctx, &mut inf);
            }
        }
        Ok(states)
    }

    /// Pipelined mode: the two worker pools around [`schedule`].
    fn run_pipelined(
        &self,
        db: &Arc<Database>,
        tables: &[TableId],
        ctx: &Arc<BatchCtx>,
    ) -> Result<Vec<Shared>> {
        let states = self.new_states(tables);
        let pool = self.config.pool_size;
        let depth = tp1_depth(pool);

        // TP1: preparation workers, `depth` of them — a prep stage is a
        // wait on the database, so the pool is sized by how many waits to
        // keep in flight, not by cores. Each worker owns one reused
        // connection, opened as it starts; with overload control every
        // worker instead draws from one shared FIFO connection pool whose
        // limit the AIMD governor tunes at runtime. Either way a worker
        // that cannot get a connection still drains jobs (with none), so
        // prep stages degrade instead of deadlocking — and tries again
        // for a connection at its next job.
        let (prep_tx, prep_rx) = unbounded::<PrepJob>();
        let tp1_active = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::with_capacity(depth + pool);
        let retry_cfg = self.config.retry;
        let conn_pool = ctx.controller.as_ref().map(|_| {
            // Short acquire slices keep a saturated pool from stalling
            // the shedding loop; acquire_with_retry supplies the backoff.
            let slice = retry_cfg.stage_deadline.min(Duration::from_millis(50));
            Arc::new(ConnectionPool::new(Arc::clone(db), depth, slice))
        });
        for _ in 0..depth {
            let rx = prep_rx.clone();
            let active = Arc::clone(&tp1_active);
            let wake = Arc::clone(&ctx.wake);
            let cpool = conn_pool.clone();
            let db = Arc::clone(db);
            handles.push(std::thread::spawn(move || {
                let connect = || connect_with_retry(&db, &retry_cfg).ok();
                let mut own = if cpool.is_none() { connect() } else { None };
                while let Ok(job) = rx.recv() {
                    match &cpool {
                        Some(cpool) => job(acquire_with_retry(cpool, &retry_cfg).ok().as_deref()),
                        None => {
                            // A failed start-up connect is not final.
                            own = own.or_else(connect);
                            job(own.as_ref())
                        }
                    }
                    active.fetch_sub(1, Ordering::SeqCst);
                    wake.notify();
                }
            }));
        }
        // TP2: inference workers, `pool_size` of them (compute), each
        // owning a long-lived inferencer whose scratch buffers persist
        // across every table it serves.
        let (infer_tx, infer_rx) = unbounded::<InferJob>();
        let tp2_active = Arc::new(AtomicUsize::new(0));
        let exec_cfg = self.config.execution;
        for _ in 0..pool {
            let rx = infer_rx.clone();
            let active = Arc::clone(&tp2_active);
            let wake = Arc::clone(&ctx.wake);
            handles.push(std::thread::spawn(move || {
                let mut inf = exec_cfg.inferencer();
                while let Ok(job) = rx.recv() {
                    job(&mut inf);
                    active.fetch_sub(1, Ordering::SeqCst);
                    wake.notify();
                }
            }));
        }
        schedule(&states, ctx, conn_pool.as_deref(), (&prep_tx, &tp1_active), (&infer_tx, &tp2_active));
        drop(prep_tx);
        drop(infer_tx);
        for h in handles {
            h.join().map_err(|_| TasteError::Scheduler("worker panicked".into()))?;
        }
        Ok(states)
    }
}

/// A TP1 job: one table's P2Prep or a group's P1Prep, run on whatever
/// connection the worker has.
type PrepJob = Box<dyn FnOnce(Option<&Connection>) + Send>;
/// A TP2 job: one [`run_infer`] call on the worker's inferencer.
type InferJob = Box<dyn FnOnce(&mut Inferencer) + Send>;

/// One stage waiting in the scheduler's queue. `since` is stamped the
/// first time the stage is seen *runnable* (all earlier stages of its
/// table done); dispatch delay from that moment is the standing-queue
/// signal fed to the overload controller.
#[derive(Clone, Copy)]
struct PendingStage {
    t: usize,
    stage: StageKind,
    since: Option<Instant>,
}

const PHASES: [BatchPhase; 2] = [BatchPhase::P1, BatchPhase::P2];

/// The Algorithm 1 scheduler loop, the only one: a stage queue, a
/// runnable test (Definition 5.1), one prep dispatch and one inference
/// dispatch per pass, and a blocking wait when a pass made no progress.
///
/// With a [`LoadController`] in `ctx` the loop is admission-gated,
/// backpressured, deadline-aware and AIMD-throttled: tables pass the
/// admission gate before their stages enter the queue (rejected tables
/// never run and report [`TableOutcome::Rejected`]); dispatch is gated on
/// the controller's adaptive TP1/TP2 limits instead of the fixed pool
/// size; the shared connection pool's limit follows the AIMD connection
/// budget; and P2 work is shed — table by table, cheapest first —
/// whenever the controller reports pressure. Without one, every table is
/// queued at once and none of that runs.
fn schedule(
    states: &[Shared],
    ctx: &Arc<BatchCtx>,
    conn_pool: Option<&ConnectionPool>,
    (prep_tx, tp1_active): (&Sender<PrepJob>, &AtomicUsize),
    (infer_tx, tp2_active): (&Sender<InferJob>, &AtomicUsize),
) {
    let ctrl = ctx.controller.as_deref();
    let stages_of =
        |t: usize| StageKind::ORDER.into_iter().map(move |stage| PendingStage { t, stage, since: None });
    // Offer every table up front; tables beyond the occupancy bound are
    // rejected immediately and never enter the pipeline.
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut queue: Vec<PendingStage> = Vec::new();
    for (t, state) in states.iter().enumerate() {
        match ctrl {
            None => queue.extend(stages_of(t)),
            Some(ctrl) if ctrl.offer() => waiting.push_back(t),
            Some(_) => {
                let mut st = state.0.lock();
                st.outcome = Some(TableOutcome::Rejected);
                st.finals = Some(Vec::new());
            }
        }
    }
    // The one point where the two dispatch styles part: with a planner,
    // runnable inference stages queue up for a cross-table micro-batch;
    // without, each is dispatched at once as a batch of one.
    let mut planner = ctx.cfg.batching.enabled.then(|| BatchPlanner::new(ctx.cfg.batching));
    let mut applied_conn_limit = 0usize;
    loop {
        // Promote queued tables into the pipeline as in-flight slots
        // free up, stamping admission time and completion deadline.
        while !waiting.is_empty() {
            let Some(adm) = ctrl.and_then(LoadController::promote) else { break };
            let t = waiting.pop_front().expect("waiting mirrors the admission queue");
            let now = Instant::now();
            {
                let mut st = states[t].0.lock();
                st.admission = Some(adm);
                st.admitted_at = Some(now);
                st.deadline = ctx.cfg.overload.deadline.map(|d| now + d);
                if let (Some(dls), Some(dl)) = (&ctx.deadlines, st.deadline) {
                    dls.set(t, dl);
                }
            }
            queue.extend(stages_of(t));
        }
        if queue.is_empty() && waiting.is_empty() && planner.as_ref().is_none_or(BatchPlanner::is_empty) {
            break;
        }
        // Snapshot the wake generation before scanning, so any progress
        // signalled during the pass cuts the wait short.
        let seen = ctx.wake.gen();
        let now = Instant::now();
        for e in queue.iter_mut() {
            if e.since.is_none() && states[e.t].1.load(Ordering::SeqCst) == e.stage.index() {
                e.since = Some(now);
            }
        }
        let (mut tp1_limit, mut tp2_limit) = (tp1_depth(ctx.cfg.pool_size), ctx.cfg.pool_size);
        if let Some(ctrl) = ctrl {
            // Follow the AIMD budgets.
            if let Some(cpool) = conn_pool {
                let limit = ctrl.conn_limit();
                if limit != applied_conn_limit {
                    applied_conn_limit = cpool.set_limit(limit);
                }
            }
            (tp1_limit, tp2_limit) = (ctrl.tp1_limit(), ctrl.tp2_limit());
            ctrl.note_queue_depth(queue.len() + planner.as_ref().map_or(0, BatchPlanner::items));
            shed_pressured_p2(&mut queue, states, ctx, ctrl, now);
        }
        let mut dispatched = false;
        if tp1_active.load(Ordering::SeqCst) < tp1_limit {
            if let Some(pos) = queue.iter().position(|e| e.stage.phase().is_none() && e.since.is_some()) {
                // The first runnable prep stage goes to a free TP1 worker.
                // A P1Prep takes along every other P1Prep runnable right
                // now, up to the cap: one job, one connection, one
                // catalog round trip for the group.
                let head = queue[pos].stage;
                let cap = if head == StageKind::P1Prep { catalog_group_cap() } else { 1 };
                let mut group: Vec<PendingStage> = Vec::with_capacity(cap);
                queue.retain(|e| {
                    let take = group.len() < cap && e.stage == head && e.since.is_some();
                    if take {
                        group.push(*e);
                    }
                    !take
                });
                if let Some(ctrl) = ctrl {
                    // The standing-queue signal is measured on the prep
                    // (TP1) queue only: that is where cloud-RDS contention
                    // manifests, and inference dispatches draining quickly
                    // must not mask a congested database.
                    for e in &group {
                        ctrl.observe_queue_wait(e.since.map_or(Duration::ZERO, |s| now.duration_since(s)), now);
                    }
                }
                tp1_active.fetch_add(1, Ordering::SeqCst);
                let members: Vec<(usize, Shared)> =
                    group.iter().map(|e| (e.t, Arc::clone(&states[e.t]))).collect();
                let ctx = Arc::clone(ctx);
                let job: PrepJob = match head {
                    StageKind::P1Prep => Box::new(move |conn| run_prep1(&members, conn, &ctx)),
                    _ => Box::new(move |conn| members.iter().for_each(|(t, state)| run_prep2(*t, state, conn, &ctx))),
                };
                prep_tx.send(job).expect("workers outlive the scheduler loop");
                dispatched = true;
            }
        }
        let tp2_free = tp2_active.load(Ordering::SeqCst) < tp2_limit;
        let batch: Option<(BatchPhase, Vec<usize>)> = match planner.as_mut() {
            Some(planner) => {
                // Every runnable inference stage moves into the planner
                // (that is where the cross-table fill comes from). A
                // table shed above never gets here — its P2 stages left
                // the queue — so a shed table's columns never join a
                // batch.
                queue.retain(|e| match (e.stage.phase(), e.since) {
                    (Some(phase), Some(_)) => {
                        planner.push(phase, e.t, batch_cols(e.stage, &states[e.t]), now);
                        dispatched = true;
                        false
                    }
                    _ => true,
                });
                // A full-or-late batch flushes to a free TP2 worker.
                let mut flushed = None;
                if tp2_free {
                    flushed = PHASES
                        .into_iter()
                        .find_map(|p| planner.ready(p, now).map(|why| (p, planner.flush(p, why))));
                }
                if flushed.is_none()
                    && !dispatched
                    && tp1_active.load(Ordering::SeqCst) == 0
                    && tp2_active.load(Ordering::SeqCst) == 0
                {
                    // The pipeline ran dry: waiting out the deadline
                    // cannot improve fill, so flush what is queued.
                    flushed = PHASES
                        .into_iter()
                        .map(|p| (p, planner.flush(p, FlushReason::Drain)))
                        .find(|(_, items)| !items.is_empty());
                }
                flushed.map(|(phase, items)| (phase, items.iter().map(|it| it.t).collect()))
            }
            None if tp2_free => queue
                .iter()
                .position(|e| e.stage.phase().is_some() && e.since.is_some())
                .map(|pos| queue.remove(pos))
                .and_then(|e| Some((e.stage.phase()?, vec![e.t]))),
            None => None,
        };
        if let Some((phase, ts)) = batch {
            tp2_active.fetch_add(1, Ordering::SeqCst);
            let members: Vec<(usize, Shared)> = ts.into_iter().map(|t| (t, Arc::clone(&states[t]))).collect();
            let ctx = Arc::clone(ctx);
            let job: InferJob = Box::new(move |inf| run_infer(phase, &members, &ctx, inf));
            infer_tx.send(job).expect("workers outlive the scheduler loop");
            dispatched = true;
        }
        if !dispatched {
            // Block until a worker, the watchdog, or a halt signals
            // progress — bounded by the next batch flush deadline and a
            // coarse safety net, which a controller tightens because
            // deadline shedding and the AIMD governor need periodic
            // now-driven passes even without progress events.
            let cap = Duration::from_micros(if ctrl.is_some() { 500 } else { 1000 });
            let now = Instant::now();
            let timeout = planner
                .iter()
                .flat_map(|p| PHASES.into_iter().filter_map(|phase| p.next_deadline(phase)))
                .fold(cap, |acc, dl| acc.min(dl.saturating_duration_since(now)));
            ctx.wake.wait_past(seen, timeout.max(Duration::from_micros(50)));
        }
    }
    if let Some(planner) = &planner {
        fold_planner_summary(ctx, planner);
    }
}

/// Sheds the P2 stages of every table the controller wants lightened:
/// brownout admissions (P2 disallowed up front), standing-queue
/// pressure, and deadline-risk projections. The shed table settles on
/// its P1 metadata-only verdicts via [`finalize_table`]'s fallback.
fn shed_pressured_p2(
    queue: &mut Vec<PendingStage>,
    states: &[Shared],
    ctx: &BatchCtx,
    ctrl: &LoadController,
    now: Instant,
) {
    let mut idx = 0;
    while idx < queue.len() {
        let runnable_p2prep = queue[idx].stage == StageKind::P2Prep && queue[idx].since.is_some();
        if !runnable_p2prep {
            idx += 1;
            continue;
        }
        let t = queue[idx].t;
        let mut shed = false;
        {
            let mut st = states[t].0.lock();
            // Only healthy tables with P1 verdicts in hand can shed P2;
            // failed or hazard tables follow their own paths.
            let reason = if st.error.is_some()
                || st.outcome.is_some()
                || st.resilience.failed
                || st.infer1.is_none()
            {
                None
            } else {
                match st.admission {
                    Some(a) if !a.p2_allowed => Some(ShedReason::Brownout),
                    // A brownout exit probe deliberately runs P2 at full
                    // fidelity; only its real deadline (enforced by the
                    // watchdog) can still cut it short.
                    Some(a) if a.probe => None,
                    _ => ctrl.shed_reason(st.deadline, now),
                }
            };
            if let Some(reason) = reason {
                record_hazard(&mut st, TableOutcome::Shed { reason }, ctx);
                shed = true;
            }
        }
        if shed {
            queue.retain(|e| {
                !(e.t == t && matches!(e.stage, StageKind::P2Prep | StageKind::P2Infer))
            });
            // Both P2 stage slots are accounted as done without running.
            let done = states[t].1.fetch_add(2, Ordering::SeqCst) + 2;
            if done == StageKind::ORDER.len() {
                finalize_table(t, &states[t], ctx);
            }
        } else {
            idx += 1;
        }
    }
}

/// The columns an inference stage would contribute to a batch: total
/// columns for P1, uncertain columns for P2, zero for tables that will
/// settle in the gather step anyway.
fn batch_cols(stage: StageKind, state: &Shared) -> usize {
    let st = state.0.lock();
    if st.error.is_some() || st.outcome.is_some() || st.resilience.failed {
        return 0;
    }
    match stage {
        StageKind::P1Infer => st.prep1.as_ref().map_or(0, |p| p.ncols),
        StageKind::P2Infer => st.infer1.as_ref().map_or(0, |i| i.uncertain.len()),
        _ => 0,
    }
}

/// Folds the planner's flush accounting into the batch telemetry,
/// preserving the live member counts the executed jobs recorded.
fn fold_planner_summary(ctx: &BatchCtx, planner: &BatchPlanner) {
    fn take_flush(dst: &mut crate::report::PhaseBatchingSummary, src: crate::report::PhaseBatchingSummary) {
        dst.batches = src.batches;
        dst.mean_fill = src.mean_fill;
        dst.p95_fill = src.p95_fill;
        dst.size_flushes = src.size_flushes;
        dst.deadline_flushes = src.deadline_flushes;
        dst.drain_flushes = src.drain_flushes;
    }
    let s = planner.summary();
    let mut b = ctx.batching.lock();
    b.enabled = true;
    take_flush(&mut b.p1, s.p1);
    take_flush(&mut b.p2, s.p2);
}

/// Advances a table's stage counter by one slot and finalizes the table
/// when its last slot lands.
fn advance_stage(t: usize, state: &Shared, ctx: &BatchCtx) {
    let done = state.1.fetch_add(1, Ordering::SeqCst) + 1;
    if done == StageKind::ORDER.len() {
        finalize_table(t, state, ctx);
    }
}

/// One live member of an inference job: its inputs, lifted out of the
/// table lock by the gather step.
struct Live<'a> {
    t: usize,
    state: &'a Shared,
    tid: TableId,
    prep1: Arc<P1Prep>,
    /// P1 verdicts and scanned content — `Some` exactly in phase 2.
    p2: Option<(P1Infer, Arc<P2Prep>)>,
    pin: Pinned,
}

/// What one member's inference stage writes back under its lock.
enum StageOut {
    /// P1 verdicts — plus, for a canary member whose candidate turned
    /// out numerically broken, the incumbent pin its P2 must run on.
    Infer1(P1Infer, Option<Pinned>),
    /// Final admitted sets.
    Finals(Vec<LabelSet>),
}

/// Executes one inference stage for every member of a batch — a flushed
/// micro-batch, or a single table (unbatched dispatch, sequential mode,
/// the panic fallback below): the one inference executor.
///
/// *Gather*: each member runs its share of the stage under its own lock,
/// stage clock and cancel token, inside the [`guarded`] envelope — the
/// injected fault, then lifting its inputs out of the lock. A member that
/// is settled, cancelled, failed, degraded without content, or that
/// panics or stalls right there finishes its stage slot alone and never
/// contributes columns to a fused pass. *Group*: live members are
/// partitioned by pinned model version — a fused pass never mixes
/// weights — and a canary member is a group of one, because it runs
/// cache-free and shadow-scores the incumbent on the same input. *Run*:
/// one fused pass per group. *Scatter*: verdicts go back under each
/// owner's lock. A panic inside a multi-member pass stored nothing, so
/// its members are re-run one by one and only the culprit is lost.
fn run_infer(phase: BatchPhase, members: &[(usize, Shared)], ctx: &BatchCtx, inf: &mut Inferencer) {
    let cfg = &ctx.cfg;
    let stage = match phase {
        BatchPhase::P1 => StageKind::P1Infer,
        BatchPhase::P2 => StageKind::P2Infer,
    };
    let mut live: Vec<Live<'_>> = Vec::with_capacity(members.len());
    for (t, state) in members {
        let gathered = guarded(stage, *t, &mut state.0.lock(), ctx, |st| {
            inject_faults(stage, st.tid, cfg, &ctx.tokens[*t], &ctx.wake)?;
            let missing = |what: &str| TasteError::Scheduler(format!("{stage:?} before {what}"));
            if st.resilience.failed {
                // P1 never produced verdicts; report the table with
                // empty admitted sets so the batch stays complete.
                if phase == BatchPhase::P2 {
                    st.finals = Some(Vec::new());
                }
                return Ok(None);
            }
            let prep1 = Arc::clone(st.prep1.as_ref().ok_or_else(|| missing("P1Prep"))?);
            let p2 = if phase == BatchPhase::P2 {
                let infer1 = st.infer1.as_ref().ok_or_else(|| missing("P1Infer"))?;
                if st.resilience.degraded && st.prep2.is_none() {
                    // Graceful degradation: P1 metadata-only verdicts
                    // stand for the uncertain columns (α = β semantics).
                    st.finals = Some(shed_finals(infer1));
                    return Ok(None);
                }
                let prep2 = Arc::clone(st.prep2.as_ref().ok_or_else(|| missing("P2Prep"))?);
                Some((infer1.clone(), prep2))
            } else {
                None
            };
            Ok(Some(Live { t: *t, state, tid: st.tid, prep1, p2, pin: pinned_model(ctx, st) }))
        });
        match gathered {
            Some(m) => live.push(m),
            None => advance_stage(*t, state, ctx),
        }
    }

    let mut work: VecDeque<Vec<usize>> = VecDeque::new();
    for (i, m) in live.iter().enumerate() {
        let fused = work.iter_mut().find(|g| {
            let head = &live[g[0]].pin;
            !m.pin.canary && !head.canary && head.version == m.pin.version
        });
        match fused {
            Some(group) => group.push(i),
            None => work.push_back(vec![i]),
        }
    }
    while let Some(group) = work.pop_front() {
        let of = |i: &usize| &live[*i];
        let pin = &live[group[0]].pin;
        // Canary members skip the latent cache end to end, so no latent
        // computed by one model version is ever read by another.
        let cache = (!pin.canary).then_some(&*ctx.cache);
        group.iter().map(of).for_each(|m| ctx.clocks.start(m.t));
        let started = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| -> Vec<StageOut> {
            if phase == BatchPhase::P2 {
                let items: Vec<P2Item<'_>> = group
                    .iter()
                    .map(of)
                    .map(|m| {
                        let (infer1, prep2) = m.p2.as_ref().expect("gathered for phase 2");
                        P2Item { tid: m.tid, prep1: &m.prep1, infer1, prep2 }
                    })
                    .collect();
                let finals = infer_phase2(&pin.model, cfg, &items, cache, inf);
                return finals.into_iter().map(StageOut::Finals).collect();
            }
            let items: Vec<P1Item<'_>> =
                group.iter().map(of).map(|m| P1Item { tid: m.tid, prep: &m.prep1 }).collect();
            let mut timed_p1 = |model: &Adtd| {
                let t0 = Instant::now();
                let out = infer_phase1(model, cfg, &items, cache, inf);
                (out, t0.elapsed().as_secs_f64() * 1e3)
            };
            let (mut out, candidate_ms) = timed_p1(&pin.model);
            if !pin.canary {
                return out.into_iter().map(|i1| StageOut::Infer1(i1, None)).collect();
            }
            // Canary serving: the candidate AND the incumbent run on the
            // same input and feed the agreement / sentinel / latency
            // gates.
            let shadow = pin.shadow.as_ref().expect("canary pins carry their incumbent");
            let (mut inc, incumbent_ms) = timed_p1(&shadow.model);
            let (cand, inc) = (out.pop().expect("a group of one"), inc.pop().expect("a group of one"));
            let ncols = cand.admitted.len();
            let agree_cols = (0..ncols)
                .filter(|&j| {
                    let o = j as u16;
                    cand.admitted[j] == inc.admitted[j]
                        && cand.uncertain.contains(&o) == inc.uncertain.contains(&o)
                })
                .count() as u64;
            if let Some(rc) = &ctx.rollout {
                rc.observe_canary(CanaryObservation {
                    agree_cols,
                    total_cols: ncols as u64,
                    nonfinite: cand.nonfinite,
                    candidate_ms,
                    incumbent_ms,
                });
            }
            if cand.nonfinite {
                // The candidate is numerically broken: this table falls
                // back to the incumbent's shadow verdicts (and re-pins so
                // its P2 runs the incumbent too), so the broken candidate
                // harms no request.
                let repin = Pinned {
                    model: Arc::clone(&shadow.model),
                    version: shadow.version,
                    canary: false,
                    shadow: None,
                };
                vec![StageOut::Infer1(inc, Some(repin))]
            } else {
                vec![StageOut::Infer1(cand, None)]
            }
        }));
        let service = started.elapsed();
        group.iter().map(of).for_each(|m| ctx.clocks.finish(m.t));
        // Per-member service is the pass's share: the AIMD governor sees
        // per-stage costs, not N copies of the fused pass.
        let observe = |failed: bool| {
            if let Some(ctrl) = &ctx.controller {
                ctrl.observe_stage(service / group.len() as u32, failed, stage.is_p2(), Instant::now());
            }
        };
        match caught {
            Ok(outs) => {
                {
                    let mut b = ctx.batching.lock();
                    let served = if phase == BatchPhase::P1 { &mut b.p1 } else { &mut b.p2 };
                    served.batched_tables += group.len() as u64;
                    served.batched_columns += group
                        .iter()
                        .map(of)
                        .map(|m| m.p2.as_ref().map_or(m.prep1.ncols, |(i1, _)| i1.uncertain.len()) as u64)
                        .sum::<u64>();
                }
                for (m, out) in group.iter().map(of).zip(outs) {
                    {
                        let mut st = m.state.0.lock();
                        match out {
                            StageOut::Infer1(infer1, repin) => {
                                st.infer1 = Some(infer1);
                                if repin.is_some() {
                                    st.pinned = repin;
                                }
                            }
                            StageOut::Finals(finals) => st.finals = Some(finals),
                        }
                    }
                    observe(false);
                    advance_stage(m.t, m.state, ctx);
                }
            }
            Err(payload) if group.len() == 1 => {
                let m = of(&group[0]);
                record_hazard(&mut m.state.0.lock(), panicked(stage, payload.as_ref()), ctx);
                observe(true);
                advance_stage(m.t, m.state, ctx);
            }
            Err(_) => work.extend(group.into_iter().map(|i| vec![i])),
        }
    }
}

/// Maps a cancellation reason observed at `stage` to the table outcome
/// it implies: a stage timeout means the table was abandoned by the
/// watchdog (final), a blown per-table admission deadline sheds the
/// table onto its P1 verdicts (final), while a batch timeout or halt
/// leaves the table merely cancelled (non-final; a resumed run
/// re-processes it).
fn hazard_from_cancel(reason: CancelReason, stage: StageKind) -> TableOutcome {
    match reason {
        CancelReason::StageTimeout => TableOutcome::TimedOut { stage: format!("{stage:?}") },
        CancelReason::DeadlineExceeded => TableOutcome::Shed { reason: ShedReason::DeadlineRisk },
        CancelReason::BatchTimeout | CancelReason::Halted => TableOutcome::Cancelled,
    }
}

/// Stamps a hazard outcome onto the table (first hazard wins) and
/// mirrors it into the database ledger's stage-outcome counters (and,
/// for shed tables, the overload controller's shed count).
fn record_hazard(st: &mut TableState, outcome: TableOutcome, ctx: &BatchCtx) {
    debug_assert!(st.outcome.is_none(), "hazards are recorded at most once");
    match &outcome {
        TableOutcome::Panicked { .. } => ctx.db.ledger().record_panicked_stage(),
        TableOutcome::TimedOut { .. } => ctx.db.ledger().record_timed_out_stage(),
        TableOutcome::Cancelled => ctx.db.ledger().record_cancelled_stage(),
        TableOutcome::Shed { .. } => {
            ctx.db.ledger().record_shed_stage();
            if let Some(ctrl) = &ctx.controller {
                ctrl.record_shed();
            }
        }
        _ => {}
    }
    st.outcome = Some(outcome);
}

/// The outcome of a table whose `stage` panicked with `payload`.
fn panicked(stage: StageKind, payload: &(dyn std::any::Any + Send)) -> TableOutcome {
    let payload = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    };
    TableOutcome::Panicked { stage: format!("{stage:?}"), payload }
}

/// The crash-safety envelope every stage runs `body` in, under its
/// table's lock. Skipped once the table has errored or hit a hazard, so
/// the scheduler always drains the queue; a table found cancelled gets
/// the hazard its reason implies. Otherwise `body` runs under the
/// table's stage clock and `catch_unwind`: a panic is caught here — the
/// worker survives and the table is reported as
/// [`TableOutcome::Panicked`] — a cancellation observed mid-flight maps
/// to its hazard, and any other error fails the batch.
///
/// `body` returns `Some(carried)` when the stage's work continues
/// outside the lock: the caller then owes the AIMD observation and the
/// stage-slot advance. `None` means the stage is over for this table.
fn guarded<T>(
    stage: StageKind,
    t: usize,
    st: &mut TableState,
    ctx: &BatchCtx,
    body: impl FnOnce(&mut TableState) -> Result<Option<T>>,
) -> Option<T> {
    if st.error.is_some() || st.outcome.is_some() {
        return None;
    }
    let token = &ctx.tokens[t];
    if let Some(reason) = token.reason() {
        record_hazard(st, hazard_from_cancel(reason, stage), ctx);
        return None;
    }
    let was_clean = !(st.resilience.failed || st.resilience.degraded);
    ctx.clocks.start(t);
    let started = Instant::now();
    let caught = catch_unwind(AssertUnwindSafe(|| body(st)));
    let service = started.elapsed();
    ctx.clocks.finish(t);
    let carried = match caught {
        Ok(Ok(carried)) => carried,
        Ok(Err(TasteError::Cancelled(_))) => {
            // The stage observed its token mid-flight; map the reason to
            // the table's outcome.
            let reason = token.reason().unwrap_or(CancelReason::StageTimeout);
            record_hazard(st, hazard_from_cancel(reason, stage), ctx);
            None
        }
        Ok(Err(e)) => {
            st.error = Some(e);
            None
        }
        Err(payload) => {
            record_hazard(st, panicked(stage, payload.as_ref()), ctx);
            None
        }
    };
    // Feed the AIMD governor: a stage that newly burned its fault budget
    // (or panicked / timed out) cuts the limits, a clean one grows them.
    if let (None, Some(ctrl)) = (&carried, &ctx.controller) {
        let failed = st.error.is_some()
            || (was_clean && (st.resilience.failed || st.resilience.degraded))
            || matches!(st.outcome, Some(TableOutcome::Panicked { .. } | TableOutcome::TimedOut { .. }));
        ctrl.observe_stage(service, failed, stage.is_p2(), Instant::now());
    }
    carried
}

/// Executes the P1Prep stage for every member of a group — the tables
/// whose catalog rows ride one round trip; a table served alone is a
/// group of one, in sequential mode too: the one P1Prep executor, shaped
/// like [`run_infer`].
///
/// *Gather*: each member runs its share of the stage under its own lock,
/// stage clock and cancel token, inside the [`guarded`] envelope — the
/// injected fault, and the settlement of a worker without a connection. A
/// member that is settled, cancelled, or that panics or stalls right
/// there finishes its stage slot alone and never contributes a table id
/// to the read. *Run*: one [`prep_phase1`] over the live members' ids,
/// under the retry policy and the batch's shared breaker — one query, so
/// one set of [`crate::retry::RetryStats`], which the group's first
/// member absorbs: Σ per-table retries still equals the ledger's retried
/// queries. *Scatter*: each member's token is re-checked (a table
/// cancelled while the read was in flight reports its hazard, not a prep
/// result), then its chunks go back under its lock; a table the catalog
/// does not hold fails alone with its not-found error, and a read that
/// exhausted its budget settles every member exactly as a solo failure
/// would — `degrade` marks each failed, otherwise each carries the batch
/// error. A panic inside a multi-member read stored nothing, so its
/// members are re-run one by one and only the culprit is lost.
fn run_prep1(members: &[(usize, Shared)], conn: Option<&Connection>, ctx: &BatchCtx) {
    let stage = StageKind::P1Prep;
    let cfg = &ctx.cfg;
    let mut live: Vec<(usize, &Shared, TableId)> = Vec::with_capacity(members.len());
    for (t, state) in members {
        let gathered = guarded(stage, *t, &mut state.0.lock(), ctx, |st| {
            inject_faults(stage, st.tid, cfg, &ctx.tokens[*t], &ctx.wake)?;
            if conn.is_some() {
                return Ok(Some(st.tid));
            }
            // The worker never got a connection. Without P1 metadata
            // there is nothing to fall back to: mark the table failed
            // (degrade mode) or fail the batch.
            if cfg.retry.degrade {
                st.resilience.failed = true;
                return Ok(None);
            }
            Err(TasteError::Scheduler("prep without connection".into()))
        });
        match gathered {
            Some(tid) => live.push((*t, state, tid)),
            None => advance_stage(*t, state, ctx),
        }
    }
    let Some(conn) = conn else { return };

    let mut work = VecDeque::from([live]);
    while let Some(group) = work.pop_front() {
        if group.is_empty() {
            continue;
        }
        let tids: Vec<TableId> = group.iter().map(|&(_, _, tid)| tid).collect();
        group.iter().for_each(|&(t, ..)| ctx.clocks.start(t));
        let started = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_with_retry(&cfg.retry, &ctx.breaker, conn, "prep_phase1", |c| prep_phase1(c, &tids, cfg))
        }));
        // Per-member service is the read's share, as in `run_infer`.
        let service = started.elapsed() / group.len() as u32;
        group.iter().for_each(|&(t, ..)| ctx.clocks.finish(t));
        let observe = |failed: bool| {
            if let Some(ctrl) = &ctx.controller {
                ctrl.observe_stage(service, failed, false, Instant::now());
            }
        };
        let (preps, failure, stats) = match caught {
            Ok((Ok(preps), stats)) => (preps, None, stats),
            Ok((Err(failure), stats)) => (Vec::new(), Some(failure), stats),
            Err(payload) if group.len() == 1 => {
                let (t, state, _) = group[0];
                record_hazard(&mut state.0.lock(), panicked(stage, payload.as_ref()), ctx);
                observe(true);
                advance_stage(t, state, ctx);
                continue;
            }
            Err(_) => {
                work.extend(group.into_iter().map(|m| vec![m]));
                continue;
            }
        };
        let mut preps = preps.into_iter();
        for (i, &(t, state, tid)) in group.iter().enumerate() {
            let failed = {
                let mut st = state.0.lock();
                if i == 0 {
                    st.resilience.absorb(&stats);
                }
                match (ctx.tokens[t].reason(), &failure, preps.next().flatten()) {
                    (Some(reason), ..) => record_hazard(&mut st, hazard_from_cancel(reason, stage), ctx),
                    (None, None, Some(prep)) => st.prep1 = Some(Arc::new(prep)),
                    (None, None, None) => st.error = Some(table_not_found(tid)),
                    (None, Some(f), _) if f.retryable && cfg.retry.degrade => st.resilience.failed = true,
                    (None, Some(f), _) => st.error = Some(f.error.clone()),
                }
                st.error.is_some()
                    || st.resilience.failed
                    || matches!(st.outcome, Some(TableOutcome::TimedOut { .. }))
            };
            observe(failed);
            advance_stage(t, state, ctx);
        }
    }
}

/// Executes one table's P2Prep stage — the content scan of its uncertain
/// columns — on the worker's connection, and advances the table's stage
/// counter.
fn run_prep2(t: usize, state: &Shared, conn: Option<&Connection>, ctx: &BatchCtx) {
    let stage = StageKind::P2Prep;
    let cfg = &ctx.cfg;
    let token = &ctx.tokens[t];
    // A prep stage completes under the lock: nothing is carried out of it.
    let _: Option<()> = guarded(stage, t, &mut state.0.lock(), ctx, |st| {
        inject_faults(stage, st.tid, cfg, token, &ctx.wake)?;
        if st.resilience.failed {
            return Ok(None);
        }
        let tid = st.tid;
        let uncertain = st
            .infer1
            .as_ref()
            .ok_or_else(|| TasteError::Scheduler("P2Prep before P1Infer".into()))?
            .uncertain
            .clone();
        let prep1 = st.prep1.as_ref().ok_or_else(|| TasteError::Scheduler("P2Prep before P1Prep".into()))?;
        let degrade = |st: &mut TableState| {
            st.resilience.degraded = true;
            st.resilience.degraded_columns += uncertain.len();
        };
        let Some(conn) = conn else {
            // Lost connection: P1 verdicts survive, so degrade.
            if cfg.retry.degrade {
                degrade(st);
                return Ok(None);
            }
            return Err(TasteError::Scheduler("prep without connection".into()));
        };
        let (res, stats) = run_with_retry(&cfg.retry, &ctx.breaker, conn, "prep_phase2", |c| {
            prep_phase2(c, tid, prep1, &uncertain, cfg, token)
        });
        st.resilience.absorb(&stats);
        match res {
            Ok(p) => st.prep2 = Some(Arc::new(p)),
            Err(f) if matches!(f.error, TasteError::Cancelled(_)) => return Err(f.error),
            Err(f) if f.retryable && cfg.retry.degrade => degrade(st),
            Err(f) => return Err(f.error),
        }
        Ok(None)
    });
    advance_stage(t, state, ctx);
}

/// Runs once per table, after its last stage slot: settles the final
/// outcome, fills in fallback verdicts for hazard and shed tables,
/// stamps the end-to-end latency, returns the table's in-flight slot to
/// the overload controller, journals final outcomes, and triggers the
/// simulated halt when configured.
fn finalize_table(t: usize, state: &Shared, ctx: &BatchCtx) {
    if let Some(dls) = &ctx.deadlines {
        dls.clear(t);
    }
    let mut st = state.0.lock();
    let admission = st.admission;
    let release_slot = |ok: bool| {
        if let (Some(ctrl), Some(adm)) = (&ctx.controller, admission) {
            ctrl.complete(adm.probe, ok, Instant::now());
        }
    };
    if st.error.is_some() {
        // The batch is failing: nothing to journal, but the slot goes
        // back, so tables still waiting for admission run and the
        // scheduler drains instead of hanging on a slot that never frees.
        release_slot(false);
        return;
    }
    let outcome = match st.outcome.clone() {
        Some(o) => o,
        None => {
            let o = if st.resilience.failed {
                TableOutcome::Failed
            } else if st.resilience.degraded {
                TableOutcome::Degraded
            } else {
                TableOutcome::Completed
            };
            st.outcome = Some(o.clone());
            o
        }
    };
    if st.finals.is_none() {
        // Hazard path: a panicked, timed-out, or shed table keeps its
        // P1 verdicts when Phase 1 completed, otherwise empty sets; a
        // cancelled table reports empty sets (resume re-runs it).
        st.finals = Some(match (&outcome, st.infer1.as_ref()) {
            (TableOutcome::Cancelled, _) | (_, None) => Vec::new(),
            (_, Some(i1)) => shed_finals(i1),
        });
    }
    st.latency = st.admitted_at.unwrap_or(ctx.batch_start).elapsed();
    // Only a cleanly completed table counts as a successful brownout
    // probe: P2 ran end-to-end without shedding.
    release_slot(matches!(outcome, TableOutcome::Completed));
    if !outcome.is_final() {
        return;
    }
    if let Some(journal) = &ctx.journal {
        let record = JournalRecord {
            table: st.tid,
            outcome,
            admitted: st.finals.clone().unwrap_or_default(),
            uncertain_columns: st.infer1.as_ref().map_or(0, |i| i.uncertain.len()),
            resilience: st.resilience,
            latency: st.latency,
            model_version: st.pinned.as_ref().map_or(0, |p| p.version),
        };
        if let Err(e) = journal.lock().append(&record) {
            st.error = Some(e);
            return;
        }
    }
    let finished = ctx.finished_final.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(halt_after) = ctx.cfg.hardening.halt_after_tables {
        if finished >= halt_after {
            // Simulated crash: every table not yet finalized is
            // cancelled, exactly as if the process had been killed
            // between journal appends.
            let mut flipped = false;
            for token in &ctx.tokens {
                flipped |= token.cancel(CancelReason::Halted);
            }
            if flipped {
                ctx.wake.notify();
            }
        }
    }
}

/// Deterministic fault injection (test/repro hook): panics or stalls
/// when the configured `(table, stage)` point is reached. The stall is
/// cancellation-aware — it waits on the batch's wake event, which the
/// watchdog notifies on every fresh cancellation, so the watchdog cuts
/// it short without the stall polling a sleep loop.
fn inject_faults(
    stage: StageKind,
    tid: TableId,
    cfg: &TasteConfig,
    token: &CancelToken,
    wake: &Wakeup,
) -> Result<()> {
    let h = &cfg.hardening;
    let here = (tid.0, stage.index() as u8);
    if h.panic_at == Some(here) {
        panic!("injected panic: table {} stage {:?}", tid.0, stage);
    }
    if h.stall_at == Some(here) {
        let deadline = Instant::now() + h.stall_for;
        loop {
            // Snapshot before the token check: a cancellation landing
            // after the check bumps the generation, so the wait below
            // returns immediately instead of losing the wakeup.
            let seen = wake.gen();
            token.check("injected stall")?;
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            wake.wait_past(seen, deadline - now);
        }
    }
    Ok(())
}

/// Returns the table's pinned model, pinning one on first use: through
/// the rollout controller when hot reload is enabled (which may route
/// the table to an in-canary candidate), otherwise the batch's fixed
/// construction-time model. Idempotent — later stages reuse the pin, so
/// a promotion or rollback between a table's stages changes nothing for
/// that table.
fn pinned_model(ctx: &BatchCtx, st: &mut TableState) -> Pinned {
    if st.pinned.is_none() {
        st.pinned = Some(match &ctx.rollout {
            Some(rc) => rc.pin(),
            None => Pinned::fixed(Arc::clone(&ctx.model)),
        });
    }
    st.pinned.clone().expect("pinned just above")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardeningConfig;
    use std::path::PathBuf;
    use taste_core::{Cell, ColumnId, ColumnMeta, RawType, Table, TableMeta};
    use taste_db::LatencyProfile;
    use taste_model::ModelConfig;
    use taste_tokenizer::{Tokenizer, VocabBuilder};

    fn tokenizer() -> Tokenizer {
        let mut b = VocabBuilder::new();
        for w in ["users", "city", "num", "text", "demo", "alpha", "beta"] {
            b.add_word(w);
            b.add_word(w);
        }
        Tokenizer::new(b.build(100, 1))
    }

    fn fixture_db(n_tables: usize, latency: LatencyProfile) -> (Arc<Database>, Vec<TableId>) {
        let db = Database::new("d", latency);
        let mut ids = Vec::new();
        for i in 0..n_tables {
            let tid = TableId(0);
            let ncols = 2 + i % 3;
            let columns: Vec<ColumnMeta> = (0..ncols)
                .map(|j| ColumnMeta {
                    id: ColumnId::new(tid, j as u16),
                    name: format!("city{j}"),
                    comment: None,
                    raw_type: RawType::Text,
                    nullable: false,
                    stats: Default::default(),
                    histogram: None,
                })
                .collect();
            let rows = (0..15)
                .map(|r| (0..ncols).map(|c| Cell::Text(format!("alpha{}", r * c))).collect())
                .collect();
            let t = Table {
                meta: TableMeta { id: tid, name: format!("users_demo_{i}"), comment: None, row_count: 15 },
                columns,
                rows,
                labels: vec![LabelSet::empty(); ncols],
            };
            ids.push(db.create_table(&t).unwrap());
        }
        (db, ids)
    }

    fn engine(cfg: TasteConfig) -> TasteEngine {
        let model = Arc::new(Adtd::new(ModelConfig::tiny(), tokenizer(), 4, 9));
        TasteEngine::new(model, cfg).unwrap()
    }

    fn temp_path(tag: &str) -> PathBuf {
        let tid = format!("{:?}", std::thread::current().id());
        std::env::temp_dir().join(format!(
            "taste-engine-{tag}-{}-{}",
            std::process::id(),
            tid.replace(|c: char| !c.is_ascii_alphanumeric(), "")
        ))
    }

    #[test]
    fn sequential_and_pipelined_agree() {
        let (db, ids) = fixture_db(6, LatencyProfile::zero());
        let cfg_seq = TasteConfig { pipelining: false, alpha: 0.0001, beta: 0.9999, ..Default::default() };
        let cfg_pipe = TasteConfig { pipelining: true, ..cfg_seq };
        let seq = engine(cfg_seq).detect_batch(&db, &ids).unwrap();
        let pipe = engine(cfg_pipe).detect_batch(&db, &ids).unwrap();
        assert_eq!(seq.tables.len(), pipe.tables.len());
        for (a, b) in seq.tables.iter().zip(&pipe.tables) {
            assert_eq!(a.table, b.table);
            assert_eq!(a.admitted, b.admitted, "pipelining must not change results");
            assert_eq!(a.uncertain_columns, b.uncertain_columns);
            assert_eq!(a.outcome, TableOutcome::Completed);
        }
        assert_eq!(seq.total_columns, pipe.total_columns);
    }

    #[test]
    fn without_p2_never_scans() {
        let (db, ids) = fixture_db(4, LatencyProfile::zero());
        let cfg = TasteConfig { pipelining: false, ..TasteConfig::default().without_p2() };
        let report = engine(cfg).detect_batch(&db, &ids).unwrap();
        assert_eq!(report.ledger.columns_scanned, 0);
        assert_eq!(report.scanned_ratio(), 0.0);
        assert_eq!(report.uncertain_columns(), 0);
    }

    #[test]
    fn wide_band_scans_everything_once() {
        let (db, ids) = fixture_db(4, LatencyProfile::zero());
        let cfg = TasteConfig {
            pipelining: false,
            alpha: 0.0001,
            beta: 0.9999,
            ..Default::default()
        };
        let report = engine(cfg).detect_batch(&db, &ids).unwrap();
        assert_eq!(report.ledger.columns_scanned, report.total_columns);
        assert!((report.scanned_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn caching_toggle_changes_cache_traffic_not_results() {
        let (db, ids) = fixture_db(5, LatencyProfile::zero());
        let base = TasteConfig { pipelining: false, alpha: 0.0001, beta: 0.9999, ..Default::default() };
        let with_cache = engine(base).detect_batch(&db, &ids).unwrap();
        let no_cache_cfg = TasteConfig { caching: false, ..base };
        let without_cache = engine(no_cache_cfg).detect_batch(&db, &ids).unwrap();
        assert!(with_cache.cache_hits > 0, "cache should be hit in P2");
        assert_eq!(without_cache.cache_hits, 0);
        for (a, b) in with_cache.tables.iter().zip(&without_cache.tables) {
            assert_eq!(a.admitted, b.admitted);
        }
    }

    #[test]
    fn pipelined_overlaps_io_and_compute() {
        // With real per-table I/O sleeps, the pipelined engine must beat
        // sequential wall time on a multi-table batch.
        let latency = LatencyProfile {
            query_rtt: Duration::from_millis(4),
            connect: Duration::from_millis(2),
            ..LatencyProfile::zero()
        };
        let (db, ids) = fixture_db(12, latency);
        let cfg_seq = TasteConfig { pipelining: false, alpha: 0.0001, beta: 0.9999, ..Default::default() };
        let seq = engine(cfg_seq).detect_batch(&db, &ids).unwrap();
        let cfg_pipe = TasteConfig { pipelining: true, pool_size: 3, ..cfg_seq };
        let pipe = engine(cfg_pipe).detect_batch(&db, &ids).unwrap();
        assert!(
            pipe.wall_time < seq.wall_time,
            "pipelined {:?} should beat sequential {:?}",
            pipe.wall_time,
            seq.wall_time
        );
    }

    #[test]
    fn detect_batch_on_missing_table_errors() {
        let (db, _) = fixture_db(1, LatencyProfile::zero());
        let cfg = TasteConfig { pipelining: false, ..Default::default() };
        let err = engine(cfg).detect_batch(&db, &[TableId(99)]);
        assert!(err.is_err());
    }

    #[test]
    fn pipelined_error_propagates_without_deadlock() {
        // A bad table id mid-batch must fail the batch with *its* error,
        // not hang the scheduler and not be masked by what it left
        // unfinished: later stages of the failed table become no-ops and
        // every other table still runs to completion first — with and
        // without an admission gate, with and without a planner.
        use crate::config::BatchingConfig;
        use crate::overload::OverloadConfig;
        let latency = LatencyProfile { query_rtt: Duration::from_millis(3), ..LatencyProfile::zero() };
        let (db, ids) = fixture_db(8, latency);
        let mut with_bad = ids.clone();
        with_bad.insert(1, TableId(4242));
        for overload in [false, true] {
            for batching in [false, true] {
                let cfg = TasteConfig {
                    pipelining: true,
                    pool_size: 2,
                    // No queue pressure: a loaded test host must not shed.
                    overload: OverloadConfig {
                        enabled: overload,
                        queue_target: Duration::from_secs(10),
                        ..Default::default()
                    },
                    batching: BatchingConfig { enabled: batching, ..Default::default() },
                    ..Default::default()
                };
                let err = engine(cfg).detect_batch(&db, &with_bad);
                assert!(
                    matches!(err, Err(taste_core::TasteError::NotFound(_))),
                    "overload={overload} batching={batching}: {err:?}"
                );
                // The same engine config still works on a clean batch.
                let ok = engine(cfg).detect_batch(&db, &ids).unwrap();
                assert!(ok.tables.iter().all(|t| t.outcome == TableOutcome::Completed));
            }
        }
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let model = Arc::new(Adtd::new(ModelConfig::tiny(), tokenizer(), 4, 9));
        let bad = TasteConfig { alpha: 0.9, beta: 0.1, ..Default::default() };
        assert!(TasteEngine::new(model, bad).is_err());
    }

    #[test]
    fn empty_batch_produces_empty_report() {
        let (db, _) = fixture_db(1, LatencyProfile::zero());
        let report = engine(TasteConfig::default()).detect_batch(&db, &[]).unwrap();
        assert!(report.tables.is_empty());
        assert_eq!(report.total_columns, 0);
    }

    #[test]
    fn panicking_stage_is_isolated_and_batch_completes() {
        let (db, ids) = fixture_db(4, LatencyProfile::zero());
        let hardening = HardeningConfig { panic_at: Some((ids[1].0, 1)), ..Default::default() };
        let cfg = TasteConfig { pipelining: true, pool_size: 2, hardening, ..Default::default() };
        let report = engine(cfg).detect_batch(&db, &ids).unwrap();
        assert_eq!(report.tables.len(), 4, "the batch must complete despite the panic");
        assert_eq!(report.panicked_tables(), 1);
        assert_eq!(report.ledger.panicked_stages, 1);
        for tr in &report.tables {
            if tr.table == ids[1] {
                match &tr.outcome {
                    TableOutcome::Panicked { stage, payload } => {
                        assert_eq!(stage, "P1Infer");
                        assert!(payload.contains("injected panic"), "{payload}");
                    }
                    other => panic!("expected Panicked, got {other:?}"),
                }
                assert!(tr.admitted.is_empty(), "P1 never finished, no verdicts to keep");
            } else {
                assert_eq!(tr.outcome, TableOutcome::Completed);
                assert!(!tr.admitted.is_empty());
            }
        }
    }

    #[test]
    fn stalled_stage_times_out_with_partial_p1_verdicts() {
        let (db, ids) = fixture_db(3, LatencyProfile::zero());
        let hardening = HardeningConfig {
            stage_deadline: Some(Duration::from_millis(25)),
            watchdog_poll: Duration::from_millis(1),
            stall_at: Some((ids[2].0, 2)), // P2Prep of the last table
            stall_for: Duration::from_secs(30),
            ..Default::default()
        };
        let cfg = TasteConfig {
            pipelining: true,
            pool_size: 2,
            alpha: 0.0001,
            beta: 0.9999,
            hardening,
            ..Default::default()
        };
        let t0 = Instant::now();
        let report = engine(cfg).detect_batch(&db, &ids).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the watchdog must cut the stall short, not wait it out"
        );
        assert_eq!(report.timed_out_tables(), 1);
        assert_eq!(report.ledger.timed_out_stages, 1);
        let victim = report.tables.iter().find(|t| t.table == ids[2]).unwrap();
        assert!(matches!(&victim.outcome, TableOutcome::TimedOut { stage } if stage == "P2Prep"));
        assert!(
            !victim.admitted.is_empty(),
            "P1 completed, so its verdicts must survive the timeout"
        );
        for tr in report.tables.iter().filter(|t| t.table != ids[2]) {
            assert_eq!(tr.outcome, TableOutcome::Completed);
        }
    }

    #[test]
    fn batched_pipeline_matches_unbatched_verdicts_and_reports_fills() {
        use crate::config::BatchingConfig;
        let (db, ids) = fixture_db(8, LatencyProfile::zero());
        let base = TasteConfig {
            pipelining: true,
            pool_size: 2,
            alpha: 0.0001,
            beta: 0.9999,
            ..Default::default()
        };
        let plain = engine(base).detect_batch(&db, &ids).unwrap();
        assert!(!plain.batching.enabled, "batching is off by default");
        for max in [1usize, 3, 64] {
            let cfg = TasteConfig {
                batching: BatchingConfig { enabled: true, max_batch_columns: max, ..Default::default() },
                ..base
            };
            let batched = engine(cfg).detect_batch(&db, &ids).unwrap();
            assert_eq!(plain.tables.len(), batched.tables.len());
            for (a, b) in plain.tables.iter().zip(&batched.tables) {
                assert_eq!(a.table, b.table);
                assert_eq!(a.admitted, b.admitted, "micro-batching must not change verdicts (max={max})");
                assert_eq!(a.uncertain_columns, b.uncertain_columns);
                assert_eq!(b.outcome, TableOutcome::Completed);
            }
            assert_eq!(plain.cache_hits, batched.cache_hits, "same latent traffic (max={max})");
            let bt = &batched.batching;
            assert!(bt.enabled);
            for phase in [&bt.p1, &bt.p2] {
                assert!(phase.batches >= 1, "max={max}");
                assert_eq!(
                    phase.batches,
                    phase.size_flushes + phase.deadline_flushes + phase.drain_flushes,
                    "every flush has exactly one reason (max={max})"
                );
                assert!(phase.mean_fill > 0.0 && phase.mean_fill <= phase.p95_fill + 1e-9);
            }
            assert_eq!(bt.p1.batched_tables, ids.len() as u64, "every table P1-infers exactly once");
            assert_eq!(bt.p1.batched_columns, batched.total_columns);
            assert_eq!(bt.p2.batched_columns, batched.total_columns, "wide band sends every column to P2");
            if max == 1 {
                // No two of these multi-column tables fit one batch.
                assert_eq!(bt.p1.batches, ids.len() as u64);
            }
        }
    }

    #[test]
    fn timed_out_tables_never_join_fused_batches() {
        use crate::config::BatchingConfig;
        let (db, ids) = fixture_db(3, LatencyProfile::zero());
        let hardening = HardeningConfig {
            stage_deadline: Some(Duration::from_millis(25)),
            watchdog_poll: Duration::from_millis(1),
            stall_at: Some((ids[2].0, 2)), // P2Prep of the last table
            stall_for: Duration::from_secs(30),
            ..Default::default()
        };
        let cfg = TasteConfig {
            pipelining: true,
            pool_size: 2,
            alpha: 0.0001,
            beta: 0.9999,
            hardening,
            batching: BatchingConfig { enabled: true, max_batch_columns: 64, ..Default::default() },
            ..Default::default()
        };
        let report = engine(cfg).detect_batch(&db, &ids).unwrap();
        assert_eq!(report.timed_out_tables(), 1);
        let victim = report.tables.iter().find(|t| t.table == ids[2]).unwrap();
        assert!(matches!(&victim.outcome, TableOutcome::TimedOut { stage } if stage == "P2Prep"));
        assert!(!victim.admitted.is_empty(), "P1 verdicts survive the timeout");
        let survivor_uncertain: u64 = report
            .tables
            .iter()
            .filter(|t| t.table != ids[2])
            .map(|t| {
                assert_eq!(t.outcome, TableOutcome::Completed);
                t.uncertain_columns as u64
            })
            .sum();
        assert!(survivor_uncertain > 0, "wide band leaves survivors uncertain");
        assert_eq!(
            report.batching.p2.batched_columns, survivor_uncertain,
            "a cancelled table's columns must never enter a fused P2 pass"
        );
        // P1 finished for all three tables before the stall; P2 excludes
        // the victim, so strictly fewer columns reach the fused P2 pass.
        assert_eq!(report.batching.p1.batched_columns, report.total_columns);
        assert!(report.batching.p2.batched_columns < report.batching.p1.batched_columns);
    }

    #[test]
    fn a_panic_inside_a_fused_pass_costs_only_the_culprit() {
        // The injected-fault hook fires in the gather step, so it never
        // reaches the pass itself. A model-side panic does: one member's
        // prep output is malformed, the fused pass over all three members
        // panics, and the one-by-one re-run must isolate exactly that
        // member while the others get the verdicts a clean run gives.
        let (db, ids) = fixture_db(3, LatencyProfile::zero());
        let cfg = TasteConfig { alpha: 0.0001, beta: 0.9999, ..Default::default() };
        let eng = engine(cfg);
        let clean = eng.detect_batch(&db, &ids).unwrap();
        let ctx = BatchCtx {
            model: Arc::clone(&eng.model),
            cache: Arc::clone(&eng.cache),
            cfg,
            breaker: CircuitBreaker::new(cfg.retry.breaker_threshold, cfg.retry.breaker_cooldown),
            db: Arc::clone(&db),
            tokens: ids.iter().map(|_| CancelToken::new()).collect(),
            clocks: Arc::new(StageClocks::new(ids.len())),
            journal: None,
            finished_final: AtomicUsize::new(0),
            controller: None,
            deadlines: None,
            batch_start: Instant::now(),
            wake: Arc::new(Wakeup::new()),
            batching: Mutex::new(BatchingSummary::default()),
            rollout: None,
        };
        let states = eng.new_states(&ids);
        let conn = db.connect();
        let members: Vec<(usize, Shared)> = states.iter().cloned().enumerate().collect();
        run_prep1(&members, Some(&conn), &ctx);
        {
            let mut st = states[1].0.lock();
            let good = st.prep1.take().unwrap();
            let mut chunks = good.chunks.clone();
            chunks[0].nonmeta.pop();
            st.prep1 = Some(Arc::new(P1Prep { chunks, ncols: good.ncols }));
        }
        run_infer(BatchPhase::P1, &members, &ctx, &mut cfg.execution.inferencer());

        for (t, state) in states.iter().enumerate() {
            assert_eq!(state.1.load(Ordering::SeqCst), 2, "table {t} finished its P1Infer slot");
            let st = state.0.lock();
            assert!(st.error.is_none());
            if t == 1 {
                assert!(
                    matches!(&st.outcome, Some(TableOutcome::Panicked { stage, .. }) if stage == "P1Infer"),
                    "{:?}",
                    st.outcome
                );
                assert!(st.infer1.is_none());
            } else {
                assert_eq!(st.outcome, None);
                let i1 = st.infer1.as_ref().expect("a survivor keeps its P1 verdicts");
                assert_eq!(i1.uncertain.len(), clean.tables[t].uncertain_columns);
            }
        }
        assert_eq!(ctx.batching.lock().p1.batched_tables, 2, "only the survivors' re-runs count");
        assert_eq!(db.ledger().snapshot().panicked_stages, 1);
    }

    #[test]
    fn batch_deadline_drains_cleanly() {
        let latency = LatencyProfile { query_rtt: Duration::from_millis(5), ..LatencyProfile::zero() };
        let (db, ids) = fixture_db(6, latency);
        let hardening = HardeningConfig {
            batch_deadline: Some(Duration::from_millis(1)),
            watchdog_poll: Duration::from_millis(1),
            ..Default::default()
        };
        let cfg = TasteConfig { pipelining: true, pool_size: 2, hardening, ..Default::default() };
        let report = engine(cfg).detect_batch(&db, &ids).unwrap();
        assert_eq!(report.tables.len(), 6, "cancelled batches still report every table");
        assert!(report.cancelled_tables() >= 1, "the deadline must cancel unfinished tables");
        assert_eq!(report.ledger.cancelled_stages as usize, report.cancelled_tables());
    }

    #[test]
    fn halt_and_resume_matches_uninterrupted() {
        let (db, ids) = fixture_db(5, LatencyProfile::zero());
        let base = TasteConfig { pipelining: false, alpha: 0.0001, beta: 0.9999, ..Default::default() };
        let full_path = temp_path("full");
        let full = engine(base).detect_batch_journaled(&db, &ids, &full_path).unwrap();
        assert!(full.tables.iter().all(|t| t.outcome == TableOutcome::Completed));

        // Crash simulation: die after two journaled tables.
        let halt_cfg = TasteConfig {
            hardening: HardeningConfig { halt_after_tables: Some(2), ..Default::default() },
            ..base
        };
        let halt_path = temp_path("halt");
        let aborted = engine(halt_cfg).detect_batch_journaled(&db, &ids, &halt_path).unwrap();
        assert_eq!(aborted.cancelled_tables(), 3, "sequential halt leaves exactly 3 tables");

        let resumed = engine(base).resume(&db, &ids, &halt_path).unwrap();
        assert_eq!(resumed.replayed_tables, 2);
        assert_eq!(resumed.tables.len(), full.tables.len());
        for (a, b) in full.tables.iter().zip(&resumed.tables) {
            assert_eq!(a.table, b.table);
            assert_eq!(a.admitted, b.admitted, "resume must reproduce the uninterrupted verdicts");
            assert_eq!(b.outcome, TableOutcome::Completed);
        }
        assert_eq!(resumed.total_columns, full.total_columns);

        // The journal now covers every table exactly once: no table was
        // processed twice.
        let replay = journal::replay(&halt_path).unwrap();
        let mut seen: Vec<u32> = replay.records.iter().map(|r| r.table.0).collect();
        seen.sort_unstable();
        let mut want: Vec<u32> = ids.iter().map(|t| t.0).collect();
        want.sort_unstable();
        assert_eq!(seen, want);
        std::fs::remove_file(&full_path).unwrap();
        std::fs::remove_file(&halt_path).unwrap();
    }

    #[test]
    fn resume_quarantines_corrupt_journal_records() {
        let (db, ids) = fixture_db(3, LatencyProfile::zero());
        let cfg = TasteConfig { pipelining: false, alpha: 0.0001, beta: 0.9999, ..Default::default() };
        let path = temp_path("corrupt");
        let full = engine(cfg).detect_batch_journaled(&db, &ids, &path).unwrap();

        // Flip one payload byte inside the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = match taste_core::checksum::decode_record(&bytes) {
            taste_core::checksum::DecodeStep::Record { consumed, .. } => consumed,
            other => panic!("journal must start with a record, got {other:?}"),
        };
        let victim = first_len + taste_core::checksum::RECORD_HEADER_LEN + 4;
        bytes[victim] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let resumed = engine(cfg).resume(&db, &ids, &path).unwrap();
        assert_eq!(resumed.journal_corrupt_records, 1);
        assert_eq!(resumed.replayed_tables, 2, "the intact records are replayed");
        assert_eq!(resumed.tables.len(), 3, "the corrupted table is re-run, not lost");
        for (a, b) in full.tables.iter().zip(&resumed.tables) {
            assert_eq!(a.table, b.table);
            assert_eq!(a.admitted, b.admitted);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cache_persists_and_restores_through_the_engine() {
        let (db, ids) = fixture_db(4, LatencyProfile::zero());
        let cfg = TasteConfig { pipelining: false, alpha: 0.0001, beta: 0.9999, ..Default::default() };
        let eng = engine(cfg);
        let _ = eng.detect_batch(&db, &ids).unwrap();
        let path = temp_path("cache");
        let written = eng.persist_cache(&path).unwrap();
        assert!(written > 0, "the wide band populates the cache");
        let stats = eng.restore_cache(&path).unwrap();
        assert_eq!(stats.loaded, written);
        assert_eq!(stats.corrupt, 0);
        std::fs::remove_file(&path).unwrap();
    }
}
