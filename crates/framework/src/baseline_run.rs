//! End-to-end runners for the TURL / Doduo baseline analogs.
//!
//! Baselines process tables sequentially (the paper notes existing work
//! runs in sequential mode, §5) and must scan **every** column's content
//! before predicting — the 100% scanned ratio of Fig. 5. The `with_content
//! = false` mode reproduces Table 4's strict-privacy setting: content is
//! replaced by emptiness at inference time while the model itself was
//! trained with content.

use crate::report::{DetectionReport, TableResult};
use crate::stages::read_catalog;
use std::sync::Arc;
use std::time::Instant;
use taste_core::{LabelSet, Result, TableId, TypeId};
use taste_db::{Database, ScanMethod};
use taste_model::prepare::build_chunks;
use taste_model::SingleTower;
use taste_tokenizer::ColumnContent;

/// Configuration for a baseline run.
#[derive(Debug, Clone, Copy)]
pub struct BaselineRunConfig {
    /// Rows retrieved per scan (`m`).
    pub m: usize,
    /// Non-empty cells kept per column (`n`).
    pub n: usize,
    /// Column split threshold (`l`).
    pub l: usize,
    /// Admission threshold on output probabilities.
    pub threshold: f32,
    /// Whether content is fetched (false = Table 4 "w/o content").
    pub with_content: bool,
    /// Whether histogram features are consumed.
    pub use_histograms: bool,
}

impl Default for BaselineRunConfig {
    fn default() -> Self {
        BaselineRunConfig {
            m: 50,
            n: 10,
            l: 20,
            threshold: 0.5,
            with_content: true,
            use_histograms: false,
        }
    }
}

/// Runs a baseline end-to-end over a batch of tables.
pub fn run_baseline(
    model: &SingleTower,
    db: &Arc<Database>,
    tables: &[TableId],
    cfg: &BaselineRunConfig,
) -> Result<DetectionReport> {
    let ledger_before = db.ledger().snapshot();
    let t0 = Instant::now();
    let conn = db.connect();
    let mut results = Vec::with_capacity(tables.len());
    let mut total_columns = 0u64;
    // The catalog costs a baseline what it costs TASTE: one read per
    // group of tables, so Fig 4 compares the approaches, not their
    // metadata round trips.
    let catalog = read_catalog(&conn, tables)?;
    for (&tid, (meta, columns)) in tables.iter().zip(&catalog) {
        let t_table = Instant::now();
        let ncols = columns.len();
        total_columns += ncols as u64;
        // Content: baselines scan every column.
        let selected: Vec<ColumnContent> = if cfg.with_content && ncols > 0 {
            let ordinals: Vec<u16> = (0..ncols as u16).collect();
            let rows = conn.scan_columns(tid, &ordinals, ScanMethod::FirstM { m: cfg.m })?;
            let mut selected = vec![ColumnContent::default(); ncols];
            for row in &rows {
                for (k, cell) in row.iter().enumerate() {
                    if selected[k].cells.len() < cfg.n && !cell.is_empty() {
                        selected[k].cells.push(cell.render());
                    }
                }
            }
            selected
        } else {
            vec![ColumnContent::default(); ncols]
        };

        let chunks = build_chunks(meta, columns, cfg.l, cfg.use_histograms);
        let mut admitted = Vec::with_capacity(ncols);
        for chunk in &chunks {
            let contents: Vec<ColumnContent> = chunk
                .ordinals
                .iter()
                .map(|&o| selected[o as usize].clone())
                .collect();
            let probs = model.predict(chunk, &contents);
            for row in probs {
                admitted.push(LabelSet::from_iter(
                    row.iter()
                        .enumerate()
                        .filter(|(_, &p)| p >= cfg.threshold)
                        .map(|(s, _)| TypeId(s as u32)),
                ));
            }
        }
        results.push(TableResult {
            table: tid,
            admitted,
            uncertain_columns: 0,
            outcome: Default::default(),
            resilience: Default::default(),
            latency: t_table.elapsed(),
            model_version: 0,
        });
    }
    let wall_time = t0.elapsed();
    let ledger = db.ledger().snapshot().since(&ledger_before);
    Ok(DetectionReport {
        approach: model.kind.label().to_owned(),
        tables: results,
        wall_time,
        ledger,
        total_columns,
        cache_hits: 0,
        cache_misses: 0,
        breaker_trips: 0,
        breaker_transitions: Vec::new(),
        replayed_tables: 0,
        journal_corrupt_records: 0,
        journal_torn_tail: false,
        cache_corrupt_entries: 0,
        overload: Default::default(),
        batching: Default::default(),
        rollout: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taste_core::{Cell, ColumnId, ColumnMeta, RawType, Table, TableMeta};
    use taste_db::LatencyProfile;
    use taste_model::{BaselineKind, ModelConfig};
    use taste_tokenizer::{Tokenizer, VocabBuilder};

    fn tokenizer() -> Tokenizer {
        let mut b = VocabBuilder::new();
        for w in ["users", "city", "text", "alpha"] {
            b.add_word(w);
            b.add_word(w);
        }
        Tokenizer::new(b.build(100, 1))
    }

    fn fixture_db() -> (Arc<Database>, Vec<TableId>) {
        let db = Database::new("d", LatencyProfile::zero());
        let mut ids = Vec::new();
        for i in 0..3 {
            let tid = TableId(0);
            let columns: Vec<ColumnMeta> = (0..3)
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
            let rows = (0..10)
                .map(|r| (0..3).map(|c| Cell::Text(format!("alpha{}", r + c + i))).collect())
                .collect();
            let t = Table {
                meta: TableMeta { id: tid, name: format!("users_{i}"), comment: None, row_count: 10 },
                columns,
                rows,
                labels: vec![LabelSet::empty(); 3],
            };
            ids.push(db.create_table(&t).unwrap());
        }
        (db, ids)
    }

    #[test]
    fn baseline_scans_every_column() {
        let (db, ids) = fixture_db();
        for kind in [BaselineKind::Turl, BaselineKind::Doduo] {
            db.ledger().reset();
            let model = SingleTower::new(kind, &ModelConfig::tiny(), tokenizer(), 4, 0);
            let report = run_baseline(&model, &db, &ids, &BaselineRunConfig::default()).unwrap();
            assert_eq!(report.total_columns, 9);
            assert_eq!(report.ledger.columns_scanned, 9, "{kind:?} must scan 100%");
            assert!((report.scanned_ratio() - 1.0).abs() < 1e-12);
            assert_eq!(report.tables.len(), 3);
            assert!(report.tables.iter().all(|t| t.admitted.len() == 3));
        }
    }

    #[test]
    fn without_content_scans_nothing() {
        let (db, ids) = fixture_db();
        let model = SingleTower::new(BaselineKind::Turl, &ModelConfig::tiny(), tokenizer(), 4, 0);
        let cfg = BaselineRunConfig { with_content: false, ..Default::default() };
        let report = run_baseline(&model, &db, &ids, &cfg).unwrap();
        assert_eq!(report.ledger.columns_scanned, 0);
        assert_eq!(report.scanned_ratio(), 0.0);
        assert_eq!(report.tables.len(), 3);
    }

    #[test]
    fn approach_label_matches_kind() {
        let (db, ids) = fixture_db();
        let model = SingleTower::new(BaselineKind::Doduo, &ModelConfig::tiny(), tokenizer(), 4, 0);
        let report = run_baseline(&model, &db, &ids, &BaselineRunConfig::default()).unwrap();
        assert_eq!(report.approach, "Doduo");
    }
}
