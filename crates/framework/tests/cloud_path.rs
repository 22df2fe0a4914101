//! The cloud path: Phase 1 prep reads the catalog of a whole group of
//! tables in one round trip (≤ 16 tables a group). These tests pin what a
//! group may not change — verdicts, the per-table outcome contract, fault
//! isolation, retry attribution, the admission window — and the exact
//! query counts it must change.

use std::sync::Arc;
use std::time::{Duration, Instant};
use taste_core::{Cell, ColumnId, ColumnMeta, LabelSet, RawType, Table, TableId, TableMeta, TableOutcome, TasteError};
use taste_db::{Database, FaultDecision, FaultProfile, LatencyProfile};
use taste_framework::retry::RetryConfig;
use taste_framework::stages::with_catalog_group_cap;
use taste_framework::{DetectionReport, HardeningConfig, OverloadConfig, TasteConfig, TasteEngine};
use taste_model::{Adtd, ModelConfig};
use taste_tokenizer::{Tokenizer, VocabBuilder};

/// An id no fixture database holds.
const MISSING: TableId = TableId(4242);

/// TP1's width — workers, and so connections a batch opens — whenever
/// `pool_size` is at most eight.
const TP1_DEPTH: u64 = 8;

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
            .map(|r| (0..ncols).map(|c| Cell::Text(format!("alpha{}", r * c + i))).collect())
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
    TasteEngine::new(Arc::new(Adtd::new(ModelConfig::tiny(), tokenizer(), 4, 9)), cfg).unwrap()
}

/// Every column uncertain, so every table has Phase 2 work.
fn wide_band(pipelining: bool) -> TasteConfig {
    TasteConfig { pipelining, pool_size: 2, alpha: 0.0001, beta: 0.9999, ..Default::default() }
}

fn fast_retry() -> RetryConfig {
    RetryConfig {
        max_attempts: 4,
        breaker_threshold: 1_000_000,
        base_backoff: Duration::from_micros(10),
        max_backoff: Duration::from_micros(50),
        ..RetryConfig::default()
    }
}

/// Every table of the batch is reported exactly once, in batch order.
fn assert_one_outcome_each(report: &DetectionReport, ids: &[TableId]) {
    assert_eq!(report.tables.len(), ids.len());
    for (tr, &tid) in report.tables.iter().zip(ids) {
        assert_eq!(tr.table, tid);
    }
}

fn assert_same_verdicts(a: &DetectionReport, b: &DetectionReport, what: &str) {
    assert_eq!(a.tables.len(), b.tables.len(), "{what}");
    for (x, y) in a.tables.iter().zip(&b.tables) {
        assert_eq!(x.table, y.table, "{what}");
        assert_eq!(x.admitted, y.admitted, "{what}: table {}", x.table.0);
        assert_eq!(x.uncertain_columns, y.uncertain_columns, "{what}: table {}", x.table.0);
        assert_eq!(x.outcome, TableOutcome::Completed, "{what}");
        assert_eq!(y.outcome, TableOutcome::Completed, "{what}");
    }
}

#[test]
fn grouping_changes_the_query_count_and_nothing_else() {
    for n in [1usize, 15, 16, 17, 40] {
        let (db, ids) = fixture_db(n, LatencyProfile::zero());
        let pipelined = engine(wide_band(true)).detect_batch(&db, &ids).unwrap();
        let sequential = engine(wide_band(false)).detect_batch(&db, &ids).unwrap();
        assert_one_outcome_each(&pipelined, &ids);
        assert_same_verdicts(&pipelined, &sequential, &format!("n={n}: pipelined vs sequential"));
        for (mode, report) in [("pipelined", &pipelined), ("sequential", &sequential)] {
            assert_eq!(report.ledger.metadata_queries, n.div_ceil(16) as u64, "n={n} {mode}: one read per ≤16 tables");
            assert_eq!(report.ledger.scan_queries, n as u64, "n={n} {mode}");
            assert_eq!(report.ledger.columns_scanned, report.total_columns, "n={n} {mode}");
        }
        // The same batches forced to groups of one: same verdicts, one
        // read per table.
        for pipelining in [true, false] {
            let solo = with_catalog_group_cap(1, || engine(wide_band(pipelining)).detect_batch(&db, &ids).unwrap());
            assert_same_verdicts(&pipelined, &solo, &format!("n={n}: groups of one, pipelining={pipelining}"));
            assert_eq!(solo.ledger.metadata_queries, n as u64);
            assert_eq!(solo.ledger.scan_queries, pipelined.ledger.scan_queries);
            assert_eq!(solo.ledger.rows_read, pipelined.ledger.rows_read);
            assert_eq!(solo.ledger.bytes_read, pipelined.ledger.bytes_read);
        }
    }
}

#[test]
fn a_group_is_one_tp1_job_on_one_connection() {
    // 16 tables, one read of 40 ms: the group rides one worker's
    // connection, so the batch opens exactly one connection per TP1 worker
    // (eight: the I/O depth, `pool_size` being smaller), and the catalog
    // costs one round trip of wall time, not sixteen.
    let latency = LatencyProfile { query_rtt: Duration::from_millis(40), ..LatencyProfile::zero() };
    let (db, ids) = fixture_db(16, latency);
    let cfg = TasteConfig { pool_size: 2, ..TasteConfig::default().without_p2() };
    let report = engine(cfg).detect_batch(&db, &ids).unwrap();
    assert_eq!(report.ledger.connections_opened, TP1_DEPTH);
    assert_eq!(report.ledger.metadata_queries, 1);
    assert!(report.wall_time >= Duration::from_millis(40));
    assert!(report.wall_time < Duration::from_millis(16 * 40 / 2), "{:?}", report.wall_time);
}

#[test]
fn one_core_still_overlaps_eight_scans() {
    // pool_size 1 is one inference worker, not one connection: the 16
    // scans of 20 ms go out eight at a time behind the one catalog read,
    // ≈ 60 ms where a `pool_size`-wide TP1 took 16 × 20 + 20.
    let rtt = Duration::from_millis(20);
    let (db, ids) = fixture_db(16, LatencyProfile { query_rtt: rtt, ..LatencyProfile::zero() });
    let sequential = engine(wide_band(false)).detect_batch(&db, &ids).unwrap();
    let report = engine(TasteConfig { pool_size: 1, ..wide_band(true) }).detect_batch(&db, &ids).unwrap();
    assert_same_verdicts(&sequential, &report, "depth 8 on one core vs sequential");
    assert_eq!(report.ledger.connections_opened, TP1_DEPTH);
    assert_eq!((report.ledger.metadata_queries, report.ledger.scan_queries), (1, 16));
    assert!(report.wall_time >= 2 * rtt, "{:?}", report.wall_time);
    // Optimized builds only (`make sched-1core` is one): unoptimized, the
    // 32 forward passes on the one inference worker alone outlast the bound.
    if !cfg!(debug_assertions) {
        assert!(report.wall_time < 16 * rtt / 4, "{:?}", report.wall_time);
    }
}

#[test]
fn a_wider_pool_size_is_never_narrowed() {
    let (db, ids) = fixture_db(16, LatencyProfile::zero());
    let report = engine(TasteConfig { pool_size: 12, ..wide_band(true) }).detect_batch(&db, &ids).unwrap();
    assert_eq!(report.ledger.connections_opened, 12);
    assert!(report.tables.iter().all(|t| t.outcome == TableOutcome::Completed));
}

#[test]
fn the_controller_narrows_the_depth_and_gives_it_back() {
    // No queue pressure (a loaded test host must not shed), every table
    // admitted at once: only an exhausted fault budget moves the limits.
    let calm = OverloadConfig {
        enabled: true,
        max_in_flight: 64,
        queue_target: Duration::from_secs(10),
        ..OverloadConfig::default()
    };
    let cfg = TasteConfig { overload: calm, retry: fast_retry(), ..wide_band(true) };
    let run = |db: &Arc<Database>, ids: &[TableId]| {
        let report = engine(cfg).detect_batch(db, ids).unwrap();
        assert_one_outcome_each(&report, ids);
        // Whatever happened on the way, each limit ends at its own pool's
        // width, and a connection is only ever re-opened into a slot the
        // governor gave back: the pool's eight slots are the ceiling.
        let s = &report.overload;
        assert_eq!((s.final_tp1_limit, s.final_conn_limit, s.final_tp2_limit), (TP1_DEPTH, TP1_DEPTH, 2), "{s:?}");
        assert!(report.ledger.connections_opened <= TP1_DEPTH + s.aimd_increases, "{s:?}");
        report
    };

    // Undisturbed, with scans slow enough to pile up behind the pool:
    // eight connections, never a ninth.
    let (db, ids) = fixture_db(40, LatencyProfile { query_rtt: Duration::from_millis(30), ..LatencyProfile::zero() });
    let report = run(&db, &ids);
    assert_eq!(report.overload.aimd_decreases, 0);
    assert_eq!(report.ledger.connections_opened, TP1_DEPTH);
    assert!(report.tables.iter().all(|t| t.outcome == TableOutcome::Completed));

    // One table's scan exhausts its retries: it degrades, the limits are
    // cut once (8 → 4), and the clean stages that follow grow them back.
    let (db, ids) = fixture_db(40, LatencyProfile::zero());
    db.set_fault_profile(FaultProfile { seed: 5, scan_transient: 1.0, scan_target: Some(ids[0]), ..FaultProfile::none() });
    let report = run(&db, &ids);
    assert!(report.overload.aimd_decreases >= 1 && report.overload.aimd_increases >= 4, "{:?}", report.overload);
    assert_eq!(report.tables[0].outcome, TableOutcome::Degraded);
    assert!(report.tables[1..].iter().all(|t| t.outcome == TableOutcome::Completed));

    // The first group's catalog read exhausts its four attempts (the
    // seed's premise, checked on the same roll sequence the batch replays):
    // its 16 tables fail, the other 24 complete, and the limits recover.
    let profile = FaultProfile { seed: 30, meta_transient: 0.5, ..FaultProfile::none() };
    db.set_fault_profile(profile);
    let reset = |tid: TableId| db.faults().on_metadata(Some(tid)) != FaultDecision::Proceed;
    assert!((0..4).all(|_| reset(ids[0])) && !reset(ids[16]) && !reset(ids[32]), "the seed's premise");
    db.set_fault_profile(profile);
    let report = run(&db, &ids);
    assert!(report.overload.aimd_decreases >= 1 && report.overload.aimd_increases >= 4, "{:?}", report.overload);
    for (i, tr) in report.tables.iter().enumerate() {
        assert_eq!(tr.outcome, if i < 16 { TableOutcome::Failed } else { TableOutcome::Completed }, "table {i}");
    }
}

/// A batch of 16 whose member `k` carries an id the catalog does not
/// hold: had `k` contributed its id to the group's read, its empty row
/// would fail the batch with a not-found error.
fn batch_with_victim(k: usize) -> (Arc<Database>, Vec<TableId>) {
    let (db, mut ids) = fixture_db(15, LatencyProfile::zero());
    ids.insert(k, MISSING);
    (db, ids)
}

fn assert_only_victim_lost(report: &DetectionReport, ids: &[TableId], k: usize) {
    assert_one_outcome_each(report, ids);
    assert_eq!(report.ledger.metadata_queries, 1, "the 15 neighbours ride one read");
    for (i, tr) in report.tables.iter().enumerate() {
        if i == k {
            assert!(tr.admitted.is_empty(), "P1 never ran for the victim");
        } else {
            assert_eq!(tr.outcome, TableOutcome::Completed, "table {i}");
            assert!(tr.uncertain_columns > 0 && tr.admitted.len() == tr.uncertain_columns, "table {i} got P2 verdicts");
        }
    }
    assert_eq!(report.ledger.scan_queries, 15);
}

#[test]
fn a_panicking_member_is_lost_alone_and_never_joins_the_read() {
    for k in [0usize, 7, 15] {
        let (db, ids) = batch_with_victim(k);
        for pipelining in [true, false] {
            let hardening = HardeningConfig { panic_at: Some((MISSING.0, 0)), ..Default::default() };
            let report = engine(TasteConfig { hardening, ..wide_band(pipelining) }).detect_batch(&db, &ids).unwrap();
            assert_only_victim_lost(&report, &ids, k);
            assert!(
                matches!(&report.tables[k].outcome, TableOutcome::Panicked { stage, .. } if stage == "P1Prep"),
                "{:?}",
                report.tables[k].outcome
            );
            assert_eq!(report.ledger.panicked_stages, 1);
        }
    }
}

#[test]
fn a_stalling_member_is_lost_alone_and_never_joins_the_read() {
    let k = 7;
    let (db, ids) = batch_with_victim(k);
    for pipelining in [true, false] {
        let hardening = HardeningConfig {
            stage_deadline: Some(Duration::from_millis(25)),
            watchdog_poll: Duration::from_millis(1),
            stall_at: Some((MISSING.0, 0)),
            stall_for: Duration::from_secs(30),
            ..Default::default()
        };
        let t0 = Instant::now();
        let report = engine(TasteConfig { hardening, ..wide_band(pipelining) }).detect_batch(&db, &ids).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(10), "the watchdog cuts the stall short");
        assert_only_victim_lost(&report, &ids, k);
        assert!(
            matches!(&report.tables[k].outcome, TableOutcome::TimedOut { stage } if stage == "P1Prep"),
            "{:?}",
            report.tables[k].outcome
        );
        assert_eq!(report.ledger.timed_out_stages, 1);
    }
}

#[test]
fn a_missing_table_mid_group_fails_the_batch_after_the_others_ran() {
    let (db, ids) = fixture_db(15, LatencyProfile::zero());
    let clean = engine(wide_band(true)).detect_batch(&db, &ids).unwrap();
    let mut with_bad = ids.clone();
    with_bad.insert(7, MISSING);
    for pipelining in [true, false] {
        let before = db.ledger().snapshot();
        let err = engine(wide_band(pipelining)).detect_batch(&db, &with_bad).unwrap_err();
        assert_eq!(err, TasteError::not_found(format!("table {}", MISSING.0)), "that table's own error");
        // Every other table of the group still ran to completion first:
        // the database saw exactly the clean batch's scans.
        let delta = db.ledger().snapshot().since(&before);
        assert_eq!(delta.metadata_queries, 1);
        assert_eq!(delta.scan_queries, clean.ledger.scan_queries);
        assert_eq!(delta.columns_scanned, clean.ledger.columns_scanned);
        assert_eq!(delta.rows_read, clean.ledger.rows_read);
    }
}

#[test]
fn an_exhausted_read_fails_its_whole_group_and_charges_one_member() {
    let (db, ids) = fixture_db(40, LatencyProfile::zero());
    db.set_fault_profile(FaultProfile { seed: 5, meta_transient: 1.0, ..FaultProfile::none() });
    for pipelining in [true, false] {
        let cfg = TasteConfig { retry: fast_retry(), ..wide_band(pipelining) };
        let report = engine(cfg).detect_batch(&db, &ids).unwrap();
        assert_one_outcome_each(&report, &ids);
        for tr in &report.tables {
            assert_eq!(tr.outcome, TableOutcome::Failed);
            assert!(tr.resilience.failed && tr.admitted.is_empty());
            assert!(tr.resilience.retries <= 2 * (4 - 1));
        }
        // Three groups (16 + 16 + 8), four attempts each; each group's
        // retries sit on exactly one member.
        let charged: Vec<u32> =
            report.tables.iter().map(|t| t.resilience.retries).filter(|&r| r > 0).collect();
        assert_eq!(charged, vec![3, 3, 3]);
        let attempts: u32 = report.tables.iter().map(|t| t.resilience.attempts).sum();
        assert_eq!(u64::from(attempts), report.ledger.failed_queries, "Σ attempts = the ledger's failed queries");
        assert_eq!(
            u64::from(report.total_retries()),
            report.ledger.failed_queries - 3,
            "Σ retries = failed queries beyond each read's first attempt"
        );
        assert_eq!(report.ledger.metadata_queries, 0);
        assert_eq!(report.ledger.scan_queries, 0);
    }
    // Strict mode: the same exhaustion is the batch's error.
    let retry = RetryConfig { degrade: false, ..fast_retry() };
    let err = engine(TasteConfig { retry, ..wide_band(true) }).detect_batch(&db, &ids).unwrap_err();
    assert!(err.is_retryable(), "{err:?}");
}

#[test]
fn a_group_never_exceeds_the_admission_window() {
    // No queue pressure: a loaded test host must not shed.
    let calm = OverloadConfig {
        enabled: true,
        max_in_flight: 4,
        queue_target: Duration::from_secs(10),
        ..OverloadConfig::default()
    };
    let (db, ids) = fixture_db(20, LatencyProfile::zero());
    let reference = engine(wide_band(true)).detect_batch(&db, &ids).unwrap();

    let report = engine(TasteConfig { overload: calm, ..wide_band(true) }).detect_batch(&db, &ids).unwrap();
    assert_same_verdicts(&reference, &report, "admission-gated");
    // At most four tables are ever promoted at once, so no read can
    // cover more: twenty tables need at least five.
    assert!(report.ledger.metadata_queries >= 5, "{}", report.ledger.metadata_queries);
    assert!(report.ledger.metadata_queries <= 20);

    // A rejected table never appears in a read: the last id is one the
    // catalog does not hold, and it is turned away at the gate — had it
    // joined a read the batch would fail with its not-found error.
    let mut with_bad = ids.clone();
    with_bad.push(MISSING);
    let tight = OverloadConfig { max_queued: 4, ..calm };
    let report = engine(TasteConfig { overload: tight, ..wide_band(true) }).detect_batch(&db, &with_bad).unwrap();
    assert_one_outcome_each(&report, &with_bad);
    assert_eq!(report.rejected_tables(), 13);
    for (i, tr) in report.tables.iter().enumerate() {
        if i < 8 {
            assert_eq!(tr.outcome, TableOutcome::Completed);
            assert_eq!(tr.admitted, reference.tables[i].admitted);
        } else {
            assert_eq!(tr.outcome, TableOutcome::Rejected);
            assert!(tr.admitted.is_empty());
        }
    }
    assert!((2..=8).contains(&report.ledger.metadata_queries), "{}", report.ledger.metadata_queries);
    assert_eq!(report.ledger.scan_queries, 8);
}

#[test]
fn a_table_cancelled_while_its_read_is_in_flight_reports_cancelled() {
    let latency = LatencyProfile { query_rtt: Duration::from_millis(80), ..LatencyProfile::zero() };
    let (db, ids) = fixture_db(5, latency);
    for pipelining in [true, false] {
        let hardening = HardeningConfig {
            batch_deadline: Some(Duration::from_millis(10)),
            watchdog_poll: Duration::from_millis(1),
            ..Default::default()
        };
        let report = engine(TasteConfig { hardening, ..wide_band(pipelining) }).detect_batch(&db, &ids).unwrap();
        assert_one_outcome_each(&report, &ids);
        // The read went out before the deadline and came back after it.
        assert_eq!(report.ledger.metadata_queries, 1);
        for tr in &report.tables {
            assert_eq!(tr.outcome, TableOutcome::Cancelled, "not a prep result");
            assert!(tr.admitted.is_empty());
        }
        assert_eq!(report.ledger.cancelled_stages, 5);
        assert_eq!(report.ledger.scan_queries, 0);

        // A read that overruns the *stage* deadline times out every
        // member — at the stage that was running, P1Prep.
        let hardening = HardeningConfig {
            stage_deadline: Some(Duration::from_millis(10)),
            watchdog_poll: Duration::from_millis(1),
            ..Default::default()
        };
        let report = engine(TasteConfig { hardening, ..wide_band(pipelining) }).detect_batch(&db, &ids).unwrap();
        assert_one_outcome_each(&report, &ids);
        for tr in &report.tables {
            assert!(matches!(&tr.outcome, TableOutcome::TimedOut { stage } if stage == "P1Prep"), "{:?}", tr.outcome);
        }
        assert_eq!(report.ledger.timed_out_stages, 5);
    }
}
