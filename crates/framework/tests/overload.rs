//! Overload-control integration tests: offered load well beyond pool
//! capacity must keep the queue bounded, shed P2 work onto P1
//! metadata-only verdicts instead of stalling, account for every
//! submitted table exactly once, and deliver strictly better goodput
//! under a latency budget than the control-disabled engine.

use std::sync::Arc;
use std::time::Duration;
use taste_core::{Cell, ColumnId, ColumnMeta, LabelSet, RawType, Table, TableId, TableMeta, TableOutcome};
use taste_db::{Database, LatencyProfile};
use taste_framework::{OverloadConfig, OverloadSummary, TasteConfig, TasteEngine};
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

/// Wide α/β band: every column is uncertain after P1, so every table
/// carries a full P2 content scan unless the controller sheds it.
fn wide_band(pipelining: bool) -> TasteConfig {
    TasteConfig { pipelining, alpha: 0.0001, beta: 0.9999, ..Default::default() }
}

#[test]
fn disabled_overload_control_is_inert() {
    let (db, ids) = fixture_db(6, LatencyProfile::zero());
    let cfg = wide_band(true);
    assert!(!cfg.overload.enabled, "overload control must default off");
    let report = engine(cfg).detect_batch(&db, &ids).unwrap();
    assert_eq!(report.overload, OverloadSummary::default());
    assert_eq!(report.shed_tables(), 0);
    assert_eq!(report.rejected_tables(), 0);
    assert_eq!(report.ledger.shed_stages, 0);
    for tr in &report.tables {
        assert_eq!(tr.outcome, TableOutcome::Completed);
        assert!(tr.latency > Duration::ZERO, "latency is stamped even without the controller");
    }
}

#[test]
fn admission_rejects_beyond_occupancy_and_accounts_every_table() {
    // 12 tables against an occupancy bound of 5: exactly 7 are turned
    // away at the gate, before any of them can queue without bound.
    let (db, ids) = fixture_db(12, LatencyProfile::zero());
    let overload = OverloadConfig {
        enabled: true,
        max_in_flight: 2,
        max_queued: 3,
        ..OverloadConfig::default()
    };
    let cfg = TasteConfig { overload, pool_size: 2, ..wide_band(true) };
    let report = engine(cfg).detect_batch(&db, &ids).unwrap();

    assert_eq!(report.tables.len(), 12, "every submitted table appears in the report");
    assert_eq!(report.rejected_tables(), 7);
    let s = &report.overload;
    assert!(s.enabled);
    assert_eq!(s.submitted, 12);
    assert_eq!(s.rejected, 7);
    assert_eq!(s.admitted, 5);
    // Stage-queue depth stays bounded by the in-flight budget: at most
    // `max_in_flight` tables × 4 stages are ever queued at once.
    assert!(
        s.queue_peak <= 4 * overload.max_in_flight as u64,
        "queue peak {} exceeds the admission bound",
        s.queue_peak
    );

    // Zero unaccounted tables: each is either rejected (non-final, to be
    // re-submitted) or reached a final outcome with verdicts.
    for (tr, &tid) in report.tables.iter().zip(&ids) {
        assert_eq!(tr.table, tid);
        if tr.outcome == TableOutcome::Rejected {
            assert!(tr.admitted.is_empty(), "rejected tables never ran");
            assert_eq!(tr.latency, Duration::ZERO);
            assert!(!tr.outcome.is_final(), "rejection is retryable, not final");
        } else {
            assert_eq!(tr.outcome, TableOutcome::Completed);
            assert!(!tr.admitted.is_empty());
        }
    }
    let finished = report.tables.iter().filter(|t| t.outcome.is_final()).count();
    assert_eq!(finished + report.rejected_tables(), 12);
}

#[test]
fn pressure_sheds_p2_to_p1_verdicts_and_beats_uncontrolled_goodput() {
    // Offered load ≥ 2× capacity: 32 P2-heavy tables against the prep
    // pool's eight connections with per-query latency, 24 of them in
    // flight at once — three per connection, as six were for the two
    // connections TP1 had when it was `pool_size` wide — so the prep queue
    // stands well above the CoDel target. The controlled run must shed P2
    // work (keeping P1 verdicts), keep admitted tables inside their
    // deadline at p99, and finish strictly more tables within the latency
    // budget than the uncontrolled run.
    // (The catalog rides one read per group of tables, so the load is the
    // 32 content scans: at 32 ms each over eight workers they go out in
    // four waves that end 64, 96, 128 and 160 ms into the batch, so the
    // uncontrolled batch cannot fit its last wave into the 150 ms budget.)
    let latency = LatencyProfile {
        query_rtt: Duration::from_millis(32),
        connect: Duration::from_millis(1),
        ..LatencyProfile::zero()
    };
    // The per-table deadline is generous (slow CI machines must not trip
    // the watchdog spuriously); the goodput budget is tight enough that
    // the uncontrolled run's queueing delay clearly blows it.
    let deadline = Duration::from_millis(300);
    let budget = Duration::from_millis(150);
    let (db, ids) = fixture_db(32, latency);

    let off = engine(TasteConfig { pool_size: 2, ..wide_band(true) })
        .detect_batch(&db, &ids)
        .unwrap();
    let goodput_off = off.tables_within(budget);

    let overload = OverloadConfig {
        enabled: true,
        max_in_flight: 24,
        max_queued: 64,
        deadline: Some(deadline),
        queue_target: Duration::from_millis(1),
        queue_window: Duration::from_millis(4),
        ..OverloadConfig::default()
    };
    let cfg = TasteConfig { overload, pool_size: 2, ..wide_band(true) };
    let on = engine(cfg).detect_batch(&db, &ids).unwrap();

    // Every table is accounted for exactly once, none rejected (the
    // queue bound comfortably covers the batch).
    assert_eq!(on.tables.len(), 32);
    assert_eq!(on.rejected_tables(), 0);
    assert!(on.tables.iter().all(|t| t.outcome.is_final()));
    assert_eq!(on.overload.submitted, 32);
    assert_eq!(on.overload.admitted, 32);
    assert!(on.overload.queue_peak <= 4 * overload.max_in_flight as u64, "stage queue must stay bounded");
    assert!(on.overload.queue_wait_hist.is_some(), "dispatch waits feed the histogram");

    // The standing prep queue forces shedding; shed tables keep their
    // P1 metadata-only verdicts and are mirrored in the ledger.
    let shed = on.shed_tables();
    assert!(shed > 0, "≥2× capacity must shed some P2 work: {:?}", on.overload);
    assert_eq!(on.overload.shed_tables as usize, shed);
    assert_eq!(on.ledger.shed_stages as usize, shed);
    for tr in on.tables.iter().filter(|t| matches!(t.outcome, TableOutcome::Shed { .. })) {
        assert!(!tr.admitted.is_empty(), "shed tables keep P1 verdicts");
        assert_eq!(tr.uncertain_columns, tr.admitted.len(), "wide band: all columns uncertain");
    }

    // Admitted tables meet their deadline at p99 (≤1 of 32 may miss).
    assert!(
        on.tables_within(deadline) >= 31,
        "p99 of admitted tables must finish within {deadline:?}: {} did",
        on.tables_within(deadline)
    );

    // Goodput under the budget is strictly higher with control on.
    assert!(
        on.tables_within(budget) > goodput_off,
        "controlled goodput {} must beat uncontrolled {}",
        on.tables_within(budget),
        goodput_off
    );
}
