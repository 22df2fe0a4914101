//! `information_schema`-style read-only catalog views.
//!
//! SQL-92 mandates the `information_schema` database; the paper's Phase 1
//! fetches all of its metadata through it (`SELECT * FROM
//! information_schema.columns`). This module renders the engine's catalog
//! into flat view rows, which is also what the examples print.

use crate::engine::Database;
use serde::{Deserialize, Serialize};
use taste_core::{ColumnMeta, Result, TableId, TableMeta};

/// One row of the `information_schema.columns` view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnsViewRow {
    /// Table name.
    pub table_name: String,
    /// Column name.
    pub column_name: String,
    /// Ordinal position (1-based, as in SQL).
    pub ordinal_position: u32,
    /// Raw data type token.
    pub data_type: String,
    /// `YES` / `NO` nullability, as `information_schema` spells it.
    pub is_nullable: String,
    /// Column comment, empty when absent.
    pub column_comment: String,
    /// Number of distinct values, when analyzed.
    pub ndv: Option<u64>,
    /// Whether a histogram is available.
    pub has_histogram: bool,
}

/// One row of the `information_schema.tables` view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TablesViewRow {
    /// Table name.
    pub table_name: String,
    /// Table comment, empty when absent.
    pub table_comment: String,
    /// Row count.
    pub table_rows: u64,
    /// Column count.
    pub column_count: u64,
}

impl Database {
    /// Renders `information_schema.tables`. Administrative/no-cost view
    /// used by examples and tests; the detection service goes through
    /// [`crate::Connection::fetch_tables`] instead.
    pub fn tables_view(&self) -> Vec<TablesViewRow> {
        self.tables
            .read()
            .iter()
            .map(|t| TablesViewRow {
                table_name: t.meta.name.clone(),
                table_comment: t.meta.comment.clone().unwrap_or_default(),
                table_rows: t.meta.row_count,
                column_count: t.columns.len() as u64,
            })
            .collect()
    }

    /// Renders `information_schema.columns` for one table.
    pub fn columns_view(&self, tid: TableId) -> Result<Vec<ColumnsViewRow>> {
        self.with_table(tid, |t| columns_view_rows(&t.meta, &t.columns))
    }
}

/// The `information_schema.columns` rows of one table, from its catalog
/// entry — whether read for free ([`Database::columns_view`]) or returned
/// by a charged [`crate::Connection::fetch_catalog`].
pub fn columns_view_rows(meta: &TableMeta, columns: &[ColumnMeta]) -> Vec<ColumnsViewRow> {
    columns
        .iter()
        .enumerate()
        .map(|(i, c)| ColumnsViewRow {
            table_name: meta.name.clone(),
            column_name: c.name.clone(),
            ordinal_position: i as u32 + 1,
            data_type: c.raw_type.token().to_owned(),
            is_nullable: if c.nullable { "YES".into() } else { "NO".into() },
            column_comment: c.comment.clone().unwrap_or_default(),
            ndv: c.stats.ndv,
            has_histogram: c.histogram.is_some(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyProfile;
    use taste_core::{Cell, ColumnId, ColumnMeta, HistogramKind, LabelSet, RawType, Table, TableMeta};

    fn db_with_table() -> (std::sync::Arc<Database>, TableId) {
        let db = Database::new("d", LatencyProfile::zero());
        let tid = TableId(0);
        let table = Table {
            meta: TableMeta {
                id: tid,
                name: "payments".into(),
                comment: Some("payment records".into()),
                row_count: 3,
            },
            columns: vec![
                ColumnMeta {
                    id: ColumnId::new(tid, 0),
                    name: "amount".into(),
                    comment: None,
                    raw_type: RawType::Float,
                    nullable: false,
                    stats: Default::default(),
                    histogram: None,
                },
                ColumnMeta {
                    id: ColumnId::new(tid, 1),
                    name: "card_no".into(),
                    comment: Some("masked".into()),
                    raw_type: RawType::Text,
                    nullable: true,
                    stats: Default::default(),
                    histogram: None,
                },
            ],
            rows: vec![
                vec![Cell::Float(1.5), Cell::Text("4111".into())],
                vec![Cell::Float(2.0), Cell::Null],
                vec![Cell::Float(9.9), Cell::Text("4242".into())],
            ],
            labels: vec![LabelSet::empty(), LabelSet::empty()],
        };
        let tid = db.create_table(&table).unwrap();
        (db, tid)
    }

    #[test]
    fn tables_view_reports_shape() {
        let (db, _) = db_with_table();
        let rows = db.tables_view();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].table_name, "payments");
        assert_eq!(rows[0].table_comment, "payment records");
        assert_eq!(rows[0].table_rows, 3);
        assert_eq!(rows[0].column_count, 2);
    }

    #[test]
    fn columns_view_spells_sql_conventions() {
        let (db, tid) = db_with_table();
        let rows = db.columns_view(tid).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].ordinal_position, 1);
        assert_eq!(rows[0].data_type, "float");
        assert_eq!(rows[0].is_nullable, "NO");
        assert_eq!(rows[1].is_nullable, "YES");
        assert_eq!(rows[1].column_comment, "masked");
        assert_eq!(rows[0].ndv, None, "not analyzed yet");
    }

    #[test]
    fn columns_view_reflects_analyze() {
        let (db, tid) = db_with_table();
        db.analyze_table(tid, Some((HistogramKind::EqualWidth, 4))).unwrap();
        let rows = db.columns_view(tid).unwrap();
        assert_eq!(rows[0].ndv, Some(3));
        assert!(rows[0].has_histogram);
    }

    #[test]
    fn columns_view_unknown_table_errors() {
        let (db, _) = db_with_table();
        assert!(db.columns_view(TableId(5)).is_err());
    }
}
