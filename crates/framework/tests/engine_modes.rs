//! The engine's mode and hazard matrices: one scheduler loop and one
//! inference executor serve every combination of micro-batching,
//! overload control and model rollout, so every combination must produce
//! the sequential engine's verdicts — and a hazard injected into one
//! table must cost exactly that table, whichever way inference stages
//! are dispatched.

use std::sync::Arc;
use std::time::Duration;
use taste_core::{
    Cell, ColumnId, ColumnMeta, LabelSet, RawType, Table, TableId, TableMeta, TableOutcome,
};
use taste_db::{Database, LatencyProfile};
use taste_framework::{
    BatchingConfig, DetectionReport, HardeningConfig, OverloadConfig, RolloutConfig, TasteConfig,
    TasteEngine,
};
use taste_model::registry::VersionedModel;
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

/// Freshly built from one seed, so two calls yield identical weights.
fn model() -> Arc<Adtd> {
    Arc::new(Adtd::new(ModelConfig::tiny(), tokenizer(), 4, 9))
}

/// Wide α/β band: every column is uncertain after P1, so every table
/// exercises the full two-phase path.
fn wide_band() -> TasteConfig {
    TasteConfig { pool_size: 2, alpha: 0.0001, beta: 0.9999, ..Default::default() }
}

fn batching(enabled: bool, max_batch_columns: usize) -> BatchingConfig {
    BatchingConfig { enabled, max_batch_columns, ..Default::default() }
}

#[test]
fn every_mode_combination_matches_the_sequential_reference() {
    let (db, ids) = fixture_db(24);
    let reference_cfg = TasteConfig { pipelining: false, ..wide_band() };
    let reference = TasteEngine::new(model(), reference_cfg).unwrap().detect_batch(&db, &ids).unwrap();
    assert!(!reference.batching.enabled, "sequential mode has nothing to batch");

    for batched in [false, true] {
        for overload in [false, true] {
            for canary_fraction in [None, Some(0.5), Some(1.0)] {
                let cell = format!("batching={batched} overload={overload} canary={canary_fraction:?}");
                let cfg = TasteConfig {
                    pipelining: true,
                    batching: batching(batched, 16),
                    overload: OverloadConfig {
                        enabled: overload,
                        max_in_flight: 6,
                        max_queued: 64,
                        // The matrix is about composition, not pressure:
                        // no host is slow enough to shed on this target.
                        queue_target: Duration::from_secs(10),
                        ..Default::default()
                    },
                    rollout: RolloutConfig {
                        enabled: canary_fraction.is_some(),
                        initial_version: 1,
                        canary_fraction: canary_fraction.unwrap_or(0.1),
                        min_canary_tables: 4,
                        min_agreement: 0.9,
                        max_p99_latency_ratio: 1e6,
                    },
                    ..wide_band()
                };
                let engine = TasteEngine::new(model(), cfg).unwrap();
                if let Some(rc) = engine.rollout() {
                    // Identical weights under a new version: every gate
                    // must come out green.
                    assert!(rc.offer(VersionedModel { version: 2, model: model() }), "{cell}");
                }
                let report = engine.detect_batch(&db, &ids).unwrap();

                assert_eq!(report.tables.len(), reference.tables.len(), "{cell}");
                for (want, got) in reference.tables.iter().zip(&report.tables) {
                    assert_eq!(want.table, got.table, "{cell}");
                    assert_eq!(want.admitted, got.admitted, "{cell}: verdicts of {:?}", got.table);
                    assert_eq!(want.uncertain_columns, got.uncertain_columns, "{cell}");
                    assert_eq!(got.outcome, TableOutcome::Completed, "{cell}: {:?}", got.table);
                }
                assert_eq!(report.total_columns, reference.total_columns, "{cell}");

                let bt = &report.batching;
                assert_eq!(bt.enabled, batched, "{cell}");
                for phase in [&bt.p1, &bt.p2] {
                    if batched {
                        assert!(phase.batches >= 1, "{cell}");
                        assert_eq!(phase.batched_tables, ids.len() as u64, "{cell}");
                        assert_eq!(phase.batched_columns, report.total_columns, "{cell}");
                    } else {
                        assert_eq!(phase.batches, 0, "{cell}");
                        assert_eq!(phase.batched_tables, 0, "{cell}");
                        assert_eq!(phase.batched_columns, 0, "{cell}");
                        assert_eq!(phase.mean_fill, 0.0, "{cell}");
                        assert_eq!(
                            phase.size_flushes + phase.deadline_flushes + phase.drain_flushes,
                            0,
                            "{cell}"
                        );
                    }
                }
                assert_eq!(report.overload.enabled, overload, "{cell}");
                if overload {
                    assert_eq!(report.overload.admitted, ids.len() as u64, "{cell}");
                    assert_eq!(report.overload.rejected, 0, "{cell}");
                }
                match canary_fraction {
                    None => assert!(!report.rollout.enabled, "{cell}"),
                    Some(_) => {
                        assert_eq!(report.rollout.promotions, 1, "{cell}: {:?}", report.rollout);
                        assert_eq!(report.rollout.rollbacks, 0, "{cell}");
                        assert_eq!(report.rollout.final_version, 2, "{cell}");
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Hazard {
    Panic,
    Stall,
}

/// One letter per table: `C`ompleted, `P`anicked, `T`imed out, `?` other.
fn outcome_vector(report: &DetectionReport) -> String {
    report
        .tables
        .iter()
        .map(|t| match t.outcome {
            TableOutcome::Completed => 'C',
            TableOutcome::Panicked { .. } => 'P',
            TableOutcome::TimedOut { .. } => 'T',
            _ => '?',
        })
        .collect()
}

#[test]
fn an_injected_hazard_costs_one_table_in_both_dispatch_styles() {
    let (db, ids) = fixture_db(6);
    let victim = 2usize;
    for hazard in [Hazard::Panic, Hazard::Stall] {
        for (stage_idx, stage_name) in [(1u8, "P1Infer"), (3u8, "P2Infer")] {
            let at = Some((ids[victim].0, stage_idx));
            let hardening = match hazard {
                Hazard::Panic => HardeningConfig { panic_at: at, ..Default::default() },
                Hazard::Stall => HardeningConfig {
                    stage_deadline: Some(Duration::from_millis(25)),
                    watchdog_poll: Duration::from_millis(1),
                    stall_at: at,
                    stall_for: Duration::from_secs(30),
                    ..Default::default()
                },
            };
            let want: String = (0..ids.len())
                .map(|i| match (i == victim, hazard) {
                    (false, _) => 'C',
                    (true, Hazard::Panic) => 'P',
                    (true, Hazard::Stall) => 'T',
                })
                .collect();
            for batched in [false, true] {
                let cell = format!("{hazard:?} at {stage_name}, batching={batched}");
                let cfg = TasteConfig {
                    pipelining: true,
                    hardening,
                    // One planner budget holds all six tables, so with
                    // batching on the victim shares a job with the rest.
                    batching: batching(batched, 64),
                    ..wide_band()
                };
                let report = TasteEngine::new(model(), cfg).unwrap().detect_batch(&db, &ids).unwrap();
                assert_eq!(outcome_vector(&report), want, "{cell}");
                match &report.tables[victim].outcome {
                    TableOutcome::Panicked { stage, payload } => {
                        assert_eq!(stage, stage_name, "{cell}");
                        assert!(payload.contains("injected panic"), "{cell}: {payload}");
                    }
                    TableOutcome::TimedOut { stage } => assert_eq!(stage, stage_name, "{cell}"),
                    other => panic!("{cell}: victim ended {other:?}"),
                }
                // A victim cut down in phase 2 keeps its P1 verdicts.
                assert_eq!(report.tables[victim].admitted.is_empty(), stage_idx == 1, "{cell}");
                assert_eq!(
                    (report.ledger.panicked_stages, report.ledger.timed_out_stages),
                    if hazard == Hazard::Panic { (1, 0) } else { (0, 1) },
                    "{cell}"
                );
            }
        }
    }
}
