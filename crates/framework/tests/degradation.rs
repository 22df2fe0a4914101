//! Deterministic graceful-degradation integration tests: a 100%-failure
//! window on one table's P2 content scans must not fail (or lose any
//! table from) the batch — the affected table falls back to its P1
//! metadata-only verdicts and the circuit breaker walks the full
//! closed → open → half-open → closed cycle.

use std::sync::Arc;
use std::time::Duration;
use taste_core::{Cell, ColumnId, ColumnMeta, LabelSet, RawType, Table, TableId, TableMeta, TableOutcome};
use taste_db::{Database, FaultDecision, FaultProfile, LatencyProfile};
use taste_framework::retry::RetryConfig;
use taste_framework::stages::{infer_phase1, prep_phase1, P1Item};
use taste_framework::{TasteConfig, TasteEngine};
use taste_model::{Adtd, ModelConfig};
use taste_tokenizer::{Tokenizer, VocabBuilder};

fn tokenizer() -> Tokenizer {
    let mut b = VocabBuilder::new();
    for w in ["users", "city", "num", "text", "demo", "alpha", "beta"] {
        b.add_word(w);
        b.add_word(w);
    }
    Tokenizer::new(b.build(100, 1))
}

fn fixture_db(n_tables: usize) -> (Arc<Database>, Vec<TableId>) {
    let db = Database::new("d", LatencyProfile::zero());
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

fn model() -> Arc<Adtd> {
    Arc::new(Adtd::new(ModelConfig::tiny(), tokenizer(), 4, 9))
}

fn wide_band_cfg(retry: RetryConfig, pipelining: bool) -> TasteConfig {
    TasteConfig {
        pipelining,
        alpha: 0.0001,
        beta: 0.9999,
        retry,
        ..Default::default()
    }
}

fn fast_retry() -> RetryConfig {
    RetryConfig {
        max_attempts: 4,
        breaker_threshold: 4,
        breaker_cooldown: Duration::ZERO,
        base_backoff: Duration::from_micros(10),
        max_backoff: Duration::from_micros(50),
        ..RetryConfig::default()
    }
}

#[test]
fn p2_total_failure_degrades_to_p1_and_cycles_the_breaker() {
    let (db, ids) = fixture_db(3);
    let target = ids[0];
    db.set_fault_profile(FaultProfile {
        seed: 7,
        scan_transient: 1.0,
        scan_target: Some(target),
        ..FaultProfile::none()
    });
    // breaker_threshold == max_attempts: exhausting the target's P2
    // retries trips the breaker exactly once, and the next table's first
    // operation is the half-open probe that closes it again.
    let cfg = wide_band_cfg(fast_retry(), false);
    let m = model();
    let report = TasteEngine::new(Arc::clone(&m), cfg).unwrap().detect_batch(&db, &ids).unwrap();

    // The batch completed with every table present, in order.
    assert_eq!(report.tables.len(), ids.len());
    for (tr, &tid) in report.tables.iter().zip(&ids) {
        assert_eq!(tr.table, tid);
    }

    // The target table is degraded, not failed: P2 fell back to P1.
    let degraded = &report.tables[0];
    assert!(degraded.resilience.degraded);
    assert!(!degraded.resilience.failed);
    assert!(!degraded.admitted.is_empty());
    // Wide band: every column was uncertain, so every column degraded.
    assert_eq!(degraded.uncertain_columns, degraded.admitted.len());
    assert_eq!(degraded.resilience.degraded_columns, degraded.admitted.len());
    // 1 clean P1 attempt + max_attempts failed P2 attempts.
    assert_eq!(degraded.resilience.attempts, 1 + 4);
    assert_eq!(degraded.resilience.retries, 3);
    assert!(degraded.resilience.backoff > Duration::ZERO);

    // Healthy tables ran clean.
    for tr in &report.tables[1..] {
        assert!(!tr.resilience.degraded && !tr.resilience.failed);
        assert_eq!(tr.resilience.retries, 0);
        assert_eq!(tr.resilience.degraded_columns, 0);
    }

    // Degraded verdicts are exactly the P1 metadata-only verdicts.
    db.set_fault_profile(FaultProfile::none());
    let conn = db.connect();
    let prep = prep_phase1(&conn, &[target], &cfg).unwrap().pop().flatten().expect("target is in the catalog");
    let item = [P1Item { tid: target, prep: &prep }];
    let p1 = infer_phase1(&m, &cfg, &item, None, &mut taste_model::Inferencer::default());
    assert_eq!(degraded.admitted, p1[0].admitted);

    // Full breaker cycle, observed in order.
    assert_eq!(report.breaker_trips, 1);
    assert_eq!(
        report.breaker_transitions,
        vec!["closed->open", "open->half-open", "half-open->closed"]
    );

    // The intrusiveness ledger saw the injected failures...
    assert!(report.ledger.failed_queries >= 4);
    // ...and the healthy tables' scans still went through.
    assert!(report.ledger.columns_scanned > 0);

    // Report-level rollups agree with the per-table summaries.
    assert_eq!(report.degraded_tables(), 1);
    assert_eq!(report.degraded_columns(), degraded.admitted.len());
    assert!(report.total_backoff() >= degraded.resilience.backoff);
}

#[test]
fn pipelined_batch_survives_p2_total_failure() {
    let (db, ids) = fixture_db(5);
    let target = ids[2];
    db.set_fault_profile(FaultProfile {
        seed: 11,
        scan_transient: 1.0,
        scan_target: Some(target),
        ..FaultProfile::none()
    });
    // A huge threshold keeps the breaker out of the picture: this test is
    // about the pipelined scheduler not wedging or losing tables.
    let retry = RetryConfig { breaker_threshold: 1_000_000, ..fast_retry() };
    let cfg = wide_band_cfg(retry, true);
    let report = TasteEngine::new(model(), cfg).unwrap().detect_batch(&db, &ids).unwrap();
    assert_eq!(report.tables.len(), ids.len());
    for (tr, &tid) in report.tables.iter().zip(&ids) {
        assert_eq!(tr.table, tid);
    }
    assert_eq!(report.degraded_tables(), 1);
    assert!(report.tables[2].resilience.degraded);
    assert!(!report.tables[2].admitted.is_empty());
}

#[test]
fn degrade_disabled_fails_the_batch_instead() {
    let (db, ids) = fixture_db(2);
    db.set_fault_profile(FaultProfile {
        seed: 3,
        scan_transient: 1.0,
        scan_target: Some(ids[0]),
        ..FaultProfile::none()
    });
    let retry = RetryConfig { degrade: false, ..fast_retry() };
    let cfg = wide_band_cfg(retry, false);
    let err = TasteEngine::new(model(), cfg).unwrap().detect_batch(&db, &ids);
    assert!(err.is_err(), "strict mode must surface the exhausted fault");
    assert!(err.unwrap_err().is_retryable());
}

#[test]
fn clean_run_reports_zero_resilience_cost() {
    let (db, ids) = fixture_db(3);
    let cfg = wide_band_cfg(RetryConfig::default(), false);
    let report = TasteEngine::new(model(), cfg).unwrap().detect_batch(&db, &ids).unwrap();
    for tr in &report.tables {
        assert_eq!(tr.resilience.retries, 0);
        assert_eq!(tr.resilience.backoff, Duration::ZERO);
        assert!(!tr.resilience.degraded && !tr.resilience.failed);
    }
    assert_eq!(report.breaker_trips, 0);
    assert!(report.breaker_transitions.is_empty());
    assert_eq!(report.ledger.failed_queries, 0);
    assert_eq!(report.degraded_columns(), 0);
}

#[test]
fn transient_faults_below_budget_are_invisible_in_results() {
    // A mid-rate flaky profile: retries absorb every fault, so admitted
    // sets must equal the clean run's exactly (determinism + monotone
    // fault rolls make this reproducible).
    let (db, ids) = fixture_db(4);
    let m = model();
    let cfg = wide_band_cfg(
        RetryConfig {
            max_attempts: 10,
            breaker_threshold: 1_000_000,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
            ..RetryConfig::default()
        },
        false,
    );
    let clean = TasteEngine::new(Arc::clone(&m), cfg).unwrap().detect_batch(&db, &ids).unwrap();
    db.set_fault_profile(FaultProfile::flaky(5, 0.3));
    let flaky = TasteEngine::new(Arc::clone(&m), cfg).unwrap().detect_batch(&db, &ids).unwrap();
    assert!(flaky.total_retries() > 0, "0.3 fault rate must cause retries");
    assert_eq!(flaky.degraded_columns(), 0, "10 attempts must outlast 0.3-rate faults");
    for (a, b) in clean.tables.iter().zip(&flaky.tables) {
        assert_eq!(a.admitted, b.admitted, "absorbed faults must not change verdicts");
    }
}

#[test]
fn a_worker_whose_startup_connect_failed_reconnects_at_its_next_job() {
    // Connect rolls are indexed by attempt, whichever worker makes them:
    // under this seed the very first fails — necessarily some TP1 worker's
    // start-up connect — and the next 32 succeed. With one attempt per
    // connect that worker starts the batch connectionless; the 3 catalog
    // reads and 40 scans it shares with the other workers all succeed only
    // if it tries again when a job reaches it.
    let profile = FaultProfile { seed: 101, connect_fail: 0.05, ..FaultProfile::none() };
    let (db, ids) = fixture_db(40);
    db.set_fault_profile(profile);
    let resets: Vec<bool> = (0..33).map(|_| db.faults().on_connect() != FaultDecision::Proceed).collect();
    assert!(resets[0] && !resets[1..].contains(&true), "the seed's premise");
    db.set_fault_profile(profile); // replay the sequence from its start

    let retry = RetryConfig { max_attempts: 1, ..fast_retry() };
    let report = TasteEngine::new(model(), wide_band_cfg(retry, true)).unwrap().detect_batch(&db, &ids).unwrap();
    assert_eq!(report.tables.len(), ids.len());
    for tr in &report.tables {
        assert_eq!(tr.outcome, TableOutcome::Completed, "table {}", tr.table.0);
        assert!(!tr.resilience.failed && !tr.resilience.degraded);
        assert_eq!(tr.admitted.len(), tr.uncertain_columns, "wide band: P2 verdicts for every column");
    }
    // Only successful handshakes are counted: seven start-up connects,
    // and the eighth worker's reconnect if a job ever reached it.
    assert_eq!(report.ledger.failed_queries, 1, "the one reset handshake");
    assert!((7..=8).contains(&report.ledger.connections_opened), "{}", report.ledger.connections_opened);
}
