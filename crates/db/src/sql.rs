//! A miniature SQL surface over the simulated database.
//!
//! The paper's Phase 1 retrieves metadata with plain SQL (`SELECT * FROM
//! information_schema.columns`, §3.2), and real detection services speak
//! SQL to user databases. This module implements the small dialect the
//! detection workload needs, end to end through the [`Connection`] (so
//! latency and the intrusiveness ledger apply):
//!
//! ```sql
//! SELECT * FROM information_schema.tables
//! SELECT * FROM information_schema.columns WHERE table_name = 'orders'
//! SELECT * FROM information_schema.columns WHERE table_name IN ('orders', 'users')
//! SELECT a, b FROM orders LIMIT 50
//! SELECT * FROM orders ORDER BY RAND(7) LIMIT 20
//! ANALYZE TABLE orders UPDATE HISTOGRAM WITH 8 BUCKETS
//! ```
//!
//! Identifiers are case-insensitive; string literals use single quotes.
//! The result is a [`ResultSet`]: column names plus rows of rendered
//! values, like a textual MySQL client would show.

use crate::catalog::columns_view_rows;
use crate::connection::Connection;
use crate::engine::ScanMethod;
use taste_core::{HistogramKind, Result, TableId, TasteError};

/// A tabular query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultSet {
    /// Output column headers.
    pub columns: Vec<String>,
    /// Rows of rendered values.
    pub rows: Vec<Vec<String>>,
}

impl ResultSet {
    /// Renders the result like a SQL client, for examples and debugging.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                out.push_str("| ");
                out.push_str(cell);
                out.push_str(&" ".repeat(widths.get(i).copied().unwrap_or(0).saturating_sub(cell.len()) + 1));
            }
            out.push_str("|\n");
        };
        fmt_row(&self.columns, &mut out);
        out.push_str(&format!("|{}|\n", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")));
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// Tokenizes a statement into words, punctuation, and quoted strings.
fn lex(input: &str) -> Result<Vec<String>> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '\'' {
            chars.next();
            let mut s = String::from("'");
            loop {
                match chars.next() {
                    Some('\'') => break,
                    Some(c) => s.push(c),
                    None => return Err(TasteError::Database("unterminated string literal".into())),
                }
            }
            tokens.push(s);
        } else if c == ',' || c == '(' || c == ')' || c == '=' || c == '*' {
            tokens.push(c.to_string());
            chars.next();
        } else if c.is_alphanumeric() || c == '_' || c == '.' {
            let mut s = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_alphanumeric() || c == '_' || c == '.' {
                    s.push(c.to_ascii_lowercase());
                    chars.next();
                } else {
                    break;
                }
            }
            tokens.push(s);
        } else {
            return Err(TasteError::Database(format!("unexpected character '{c}'")));
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<String>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&str> {
        self.tokens.get(self.pos).map(String::as_str)
    }

    fn next(&mut self) -> Option<&str> {
        let t = self.tokens.get(self.pos).map(String::as_str);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(t) if t == kw => Ok(()),
            other => Err(TasteError::Database(format!("expected '{kw}', found {other:?}"))),
        }
    }

    /// A single-quoted string literal (the lexer keeps the opening quote).
    fn expect_string(&mut self) -> Result<String> {
        match self.next() {
            Some(lit) if lit.starts_with('\'') => Ok(lit[1..].to_owned()),
            other => Err(TasteError::Database(format!("expected a string literal, found {other:?}"))),
        }
    }

    fn expect_number(&mut self) -> Result<u64> {
        match self.next() {
            Some(t) => t
                .parse()
                .map_err(|_| TasteError::Database(format!("expected a number, found '{t}'"))),
            None => Err(TasteError::Database("expected a number".into())),
        }
    }
}

/// Resolves a table name the way the server does while planning a
/// statement: against its own catalog, with no query charged. One
/// statement is one round trip — the one its execution pays.
fn table_id_by_name(conn: &Connection, name: &str) -> Result<TableId> {
    let tables = conn.database().tables.read();
    tables
        .iter()
        .find(|t| t.meta.name.eq_ignore_ascii_case(name))
        .map(|t| t.meta.id)
        .ok_or_else(|| TasteError::not_found(format!("table '{name}'")))
}

/// Executes one statement through the connection.
pub fn execute(conn: &Connection, statement: &str) -> Result<ResultSet> {
    let tokens = lex(statement)?;
    let mut p = Parser { tokens, pos: 0 };
    match p.peek() {
        Some("select") => execute_select(conn, &mut p),
        Some("analyze") => execute_analyze(conn, &mut p),
        other => Err(TasteError::Database(format!("unsupported statement start: {other:?}"))),
    }
}

fn execute_select(conn: &Connection, p: &mut Parser) -> Result<ResultSet> {
    p.expect("select")?;
    // Projection list.
    let mut projection: Vec<String> = Vec::new();
    let mut star = false;
    loop {
        match p.next() {
            Some("*") => {
                star = true;
            }
            Some(name) => projection.push(name.to_owned()),
            None => return Err(TasteError::Database("unexpected end of SELECT".into())),
        }
        if p.peek() == Some(",") {
            p.next();
        } else {
            break;
        }
    }
    p.expect("from")?;
    let target = p
        .next()
        .ok_or_else(|| TasteError::Database("expected a table name".into()))?
        .to_owned();

    match target.as_str() {
        "information_schema.tables" => {
            if p.peek().is_some() {
                return Err(TasteError::Database("information_schema.tables takes no clauses".into()));
            }
            let rows = conn.database().tables_view();
            Ok(ResultSet {
                columns: vec!["table_name".into(), "table_comment".into(), "table_rows".into(), "column_count".into()],
                rows: rows
                    .into_iter()
                    .map(|r| vec![r.table_name, r.table_comment, r.table_rows.to_string(), r.column_count.to_string()])
                    .collect(),
            })
        }
        "information_schema.columns" => {
            // Optional: WHERE table_name = 'x' | WHERE table_name IN ('x', 'y').
            let mut filter: Option<Vec<String>> = None;
            if p.peek() == Some("where") {
                p.next();
                p.expect("table_name")?;
                let names = match p.next() {
                    Some("=") => vec![p.expect_string()?],
                    Some("in") => {
                        p.expect("(")?;
                        let mut names = vec![p.expect_string()?];
                        while p.peek() == Some(",") {
                            p.next();
                            names.push(p.expect_string()?);
                        }
                        p.expect(")")?;
                        names
                    }
                    other => return Err(TasteError::Database(format!("expected '=' or 'in', found {other:?}"))),
                };
                filter = Some(names);
            }
            if p.peek().is_some() {
                return Err(TasteError::Database("trailing tokens after the table_name filter".into()));
            }
            // Names resolve before anything is paid, so an unknown table
            // costs nothing; then the statement is one catalog read.
            let tids: Vec<TableId> = match &filter {
                Some(names) => names.iter().map(|name| table_id_by_name(conn, name)).collect::<Result<_>>()?,
                None => conn.database().table_ids(),
            };
            let rows = conn
                .fetch_catalog(&tids)?
                .iter()
                .flatten()
                .flat_map(|(meta, columns)| columns_view_rows(meta, columns))
                .map(|r| {
                    vec![
                        r.table_name,
                        r.column_name,
                        r.ordinal_position.to_string(),
                        r.data_type,
                        r.is_nullable,
                        r.column_comment,
                        r.ndv.map(|v| v.to_string()).unwrap_or_default(),
                        r.has_histogram.to_string(),
                    ]
                })
                .collect();
            Ok(ResultSet {
                columns: vec![
                    "table_name".into(),
                    "column_name".into(),
                    "ordinal_position".into(),
                    "data_type".into(),
                    "is_nullable".into(),
                    "column_comment".into(),
                    "ndv".into(),
                    "has_histogram".into(),
                ],
                rows,
            })
        }
        user_table => {
            // Content scan: [ORDER BY RAND(seed)] LIMIT m.
            let tid = table_id_by_name(conn, user_table)?;
            let mut seed: Option<u64> = None;
            if p.peek() == Some("order") {
                p.next();
                p.expect("by")?;
                p.expect("rand")?;
                p.expect("(")?;
                seed = Some(p.expect_number()?);
                p.expect(")")?;
            }
            p.expect("limit")?;
            let m = p.expect_number()? as usize;
            if p.peek().is_some() {
                return Err(TasteError::Database("trailing tokens after LIMIT".into()));
            }
            let meta = conn.database().columns_view(tid)?;
            let ordinals: Vec<u16> = if star {
                (0..meta.len() as u16).collect()
            } else {
                projection
                    .iter()
                    .map(|name| {
                        meta.iter()
                            .position(|c| c.column_name.eq_ignore_ascii_case(name))
                            .map(|i| i as u16)
                            .ok_or_else(|| TasteError::not_found(format!("column '{name}'")))
                    })
                    .collect::<Result<_>>()?
            };
            let mut sorted = ordinals.clone();
            sorted.sort_unstable();
            let method = match seed {
                Some(seed) => ScanMethod::SampleM { m, seed },
                None => ScanMethod::FirstM { m },
            };
            let rows = conn.scan_columns(tid, &sorted, method)?;
            let headers: Vec<String> = sorted.iter().map(|&o| meta[o as usize].column_name.clone()).collect();
            Ok(ResultSet {
                columns: headers,
                rows: rows
                    .into_iter()
                    .map(|r| r.into_iter().map(|c| c.render()).collect())
                    .collect(),
            })
        }
    }
}

fn execute_analyze(conn: &Connection, p: &mut Parser) -> Result<ResultSet> {
    p.expect("analyze")?;
    p.expect("table")?;
    let name = p
        .next()
        .ok_or_else(|| TasteError::Database("expected a table name".into()))?
        .to_owned();
    let tid = table_id_by_name(conn, &name)?;
    let mut histogram = None;
    if p.peek() == Some("update") {
        p.next();
        p.expect("histogram")?;
        p.expect("with")?;
        let buckets = p.expect_number()? as usize;
        p.expect("buckets")?;
        histogram = Some((HistogramKind::EqualDepth, buckets));
    }
    if p.peek().is_some() {
        return Err(TasteError::Database("trailing tokens after ANALYZE".into()));
    }
    conn.database().analyze_table(tid, histogram)?;
    Ok(ResultSet {
        columns: vec!["table".into(), "op".into(), "status".into()],
        rows: vec![vec![name, "analyze".into(), "OK".into()]],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Database;
    use crate::latency::LatencyProfile;
    use std::sync::Arc;
    use taste_core::{Cell, ColumnId, ColumnMeta, LabelSet, RawType, Table, TableMeta};

    fn db() -> Arc<Database> {
        let db = Database::new("tenant", LatencyProfile::zero());
        db.create_table(&table("orders")).unwrap();
        db
    }

    fn table(name: &str) -> Table {
        let tid = TableId(0);
        Table {
            meta: TableMeta { id: tid, name: name.into(), comment: Some("sales".into()), row_count: 6 },
            columns: vec![
                ColumnMeta {
                    id: ColumnId::new(tid, 0),
                    name: "id".into(),
                    comment: None,
                    raw_type: RawType::Integer,
                    nullable: false,
                    stats: Default::default(),
                    histogram: None,
                },
                ColumnMeta {
                    id: ColumnId::new(tid, 1),
                    name: "city".into(),
                    comment: Some("ship-to".into()),
                    raw_type: RawType::Text,
                    nullable: true,
                    stats: Default::default(),
                    histogram: None,
                },
            ],
            rows: (0..6).map(|i| vec![Cell::Int(i), Cell::Text(format!("c{i}"))]).collect(),
            labels: vec![LabelSet::empty(), LabelSet::empty()],
        }
    }

    #[test]
    fn select_information_schema_tables() {
        let db = db();
        let conn = db.connect();
        let rs = execute(&conn, "SELECT * FROM information_schema.tables").unwrap();
        assert_eq!(rs.columns[0], "table_name");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], "orders");
        assert_eq!(rs.rows[0][3], "2");
    }

    #[test]
    fn select_information_schema_columns_with_filter() {
        let db = db();
        let conn = db.connect();
        let rs = execute(
            &conn,
            "SELECT * FROM information_schema.columns WHERE table_name = 'orders'",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[1][1], "city");
        assert_eq!(rs.rows[1][4], "YES");
        // The metadata query hit the ledger.
        assert!(db.ledger().snapshot().metadata_queries >= 1);
    }

    #[test]
    fn one_columns_statement_is_one_metadata_query() {
        let db = db();
        db.create_table(&table("users")).unwrap();
        let conn = db.connect();
        let queries = || db.ledger().snapshot().metadata_queries;
        for (statement, want_rows) in [
            ("SELECT * FROM information_schema.columns", 4),
            ("SELECT * FROM information_schema.columns WHERE table_name = 'users'", 2),
            ("SELECT * FROM information_schema.columns WHERE table_name IN ('users', 'Orders')", 4),
        ] {
            let before = queries();
            let rs = execute(&conn, statement).unwrap();
            assert_eq!(rs.rows.len(), want_rows, "{statement}");
            assert_eq!(queries() - before, 1, "one statement, one round trip: {statement}");
        }
        // IN lists rows in the order the names were given.
        let rs = execute(&conn, "SELECT * FROM information_schema.columns WHERE table_name IN ('users', 'orders')")
            .unwrap();
        assert_eq!((rs.rows[0][0].as_str(), rs.rows[2][0].as_str()), ("users", "orders"));

        // An unknown name is a not-found with nothing paid.
        let before = db.ledger().snapshot();
        for statement in [
            "SELECT * FROM information_schema.columns WHERE table_name = 'missing'",
            "SELECT * FROM information_schema.columns WHERE table_name IN ('orders', 'missing')",
        ] {
            let err = execute(&conn, statement).unwrap_err();
            assert!(matches!(err, TasteError::NotFound(_)), "{statement}: {err:?}");
        }
        assert_eq!(db.ledger().snapshot(), before, "nothing sent, nothing recorded");
    }

    #[test]
    fn select_with_limit_scans_head_rows() {
        let db = db();
        let conn = db.connect();
        let rs = execute(&conn, "SELECT id, city FROM orders LIMIT 3").unwrap();
        assert_eq!(rs.columns, vec!["id", "city"]);
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0], vec!["0", "c0"]);
        assert_eq!(db.ledger().snapshot().columns_scanned, 2);
    }

    #[test]
    fn select_star_and_sampling() {
        let db = db();
        let conn = db.connect();
        let a = execute(&conn, "SELECT * FROM orders ORDER BY RAND(5) LIMIT 2").unwrap();
        let b = execute(&conn, "SELECT * FROM orders ORDER BY RAND(5) LIMIT 2").unwrap();
        assert_eq!(a, b, "seeded sampling is deterministic");
        assert_eq!(a.rows.len(), 2);
        assert_eq!(a.columns, vec!["id", "city"]);
    }

    #[test]
    fn analyze_builds_histogram_visible_in_catalog() {
        let db = db();
        let conn = db.connect();
        execute(&conn, "ANALYZE TABLE orders UPDATE HISTOGRAM WITH 4 BUCKETS").unwrap();
        let rs = execute(&conn, "SELECT * FROM information_schema.columns WHERE table_name = 'orders'").unwrap();
        assert_eq!(rs.rows[0][7], "true");
        assert_ne!(rs.rows[0][6], "", "NDV populated by ANALYZE");
    }

    #[test]
    fn errors_are_database_errors_not_panics() {
        let db = db();
        let conn = db.connect();
        for bad in [
            "SELECT * FROM missing LIMIT 1",
            "SELECT nope FROM orders LIMIT 1",
            "DROP TABLE orders",
            "SELECT * FROM orders",       // missing LIMIT
            "SELECT * FROM orders LIMIT", // missing number
            "SELECT * FROM orders LIMIT 2 trailing",
            "SELECT * FROM information_schema.columns WHERE table_name = orders", // unquoted
        ] {
            assert!(execute(&conn, bad).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn render_produces_aligned_table() {
        let db = db();
        let conn = db.connect();
        let rs = execute(&conn, "SELECT id FROM orders LIMIT 2").unwrap();
        let text = rs.render();
        assert!(text.contains("| id"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn lexer_handles_quotes_and_case() {
        let toks = lex("SELECT City FROM T WHERE table_name = 'Mixed Case'").unwrap();
        assert!(toks.contains(&"city".to_string()));
        assert!(toks.contains(&"'Mixed Case".to_string()));
        assert!(lex("SELECT 'unterminated").is_err());
        assert!(lex("SELECT #").is_err());
    }
}
