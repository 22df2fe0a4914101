//! Database connections — the only sanctioned access path for the
//! detection service.
//!
//! Opening a connection pays the handshake cost; every query pays its
//! modeled latency and records into the ledger. The paper recommends
//! batching tables of one database so the (costly) connection can be
//! reused — the framework's scheduler does exactly that with one
//! connection per preparation worker.
//!
//! When a [`crate::FaultProfile`] is active, every operation first rolls
//! the database's [`crate::faults::FaultInjector`]. Injected failures
//! surface as retryable [`TasteError::Transient`] / [`TasteError::Timeout`]
//! errors; a dropped connection is *poisoned* and rejects every further
//! query until [`Connection::reconnect`] succeeds.

use crate::engine::{Database, ScanMethod};
use crate::faults::FaultDecision;
use crate::latency::LatencyProfile;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use taste_core::{Cell, ColumnMeta, Result, TableId, TableMeta, TasteError};

/// One table's catalog entry as [`Connection::fetch_catalog`] returns it:
/// the table row and its column rows.
pub type CatalogEntry = (TableMeta, Vec<ColumnMeta>);

/// An open connection to a [`Database`].
pub struct Connection {
    db: Arc<Database>,
    /// Set when an injected fault dropped the connection mid-query.
    poisoned: AtomicBool,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("poisoned", &self.is_poisoned())
            .finish_non_exhaustive()
    }
}

impl Database {
    /// Opens a connection, paying the connect cost.
    ///
    /// Infallible without fault injection; under an active profile with
    /// `connect_fail > 0` this panics on an injected failure — callers
    /// that expect faults should use [`Database::try_connect`].
    pub fn connect(self: &Arc<Self>) -> Connection {
        self.try_connect()
            .expect("connect failed under fault injection; use try_connect")
    }

    /// Opens a connection, paying the connect cost; an injected connect
    /// fault still pays the (wasted) handshake latency and returns a
    /// retryable [`TasteError::Transient`].
    pub fn try_connect(self: &Arc<Self>) -> Result<Connection> {
        let decision = self.faults().on_connect();
        LatencyProfile::pay(self.latency().connect);
        if decision != FaultDecision::Proceed {
            self.ledger().record_failed_query();
            return Err(TasteError::transient(format!(
                "connect to {}: handshake reset",
                self.name()
            )));
        }
        self.ledger().record_connection();
        Ok(Connection { db: Arc::clone(self), poisoned: AtomicBool::new(false) })
    }
}

impl Connection {
    /// The database this connection talks to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Whether an injected fault dropped this connection. A poisoned
    /// connection rejects every query until [`Connection::reconnect`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Re-establishes a dropped connection in place, paying the connect
    /// cost again. Subject to the same injected connect faults as
    /// [`Database::try_connect`]. A no-op on a healthy connection.
    pub fn reconnect(&self) -> Result<()> {
        if !self.is_poisoned() {
            return Ok(());
        }
        let decision = self.db.faults().on_connect();
        LatencyProfile::pay(self.db.latency().connect);
        if decision != FaultDecision::Proceed {
            self.db.ledger().record_failed_query();
            return Err(TasteError::transient(format!(
                "reconnect to {}: handshake reset",
                self.db.name()
            )));
        }
        self.db.ledger().record_connection();
        self.db.ledger().record_reconnect();
        self.poisoned.store(false, Ordering::Release);
        Ok(())
    }

    /// Rejects queries on a poisoned connection.
    fn guard(&self) -> Result<()> {
        if self.is_poisoned() {
            Err(TasteError::transient(format!(
                "connection to {} is dropped; reconnect required",
                self.db.name()
            )))
        } else {
            Ok(())
        }
    }

    /// Realizes an injected fault on a query: pays the appropriate
    /// latency, records it in the ledger, and produces the error.
    /// `Proceed` is a no-op `Ok(())`.
    fn inject(&self, decision: FaultDecision, what: &str) -> Result<()> {
        match decision {
            FaultDecision::Proceed => Ok(()),
            FaultDecision::Transient => {
                LatencyProfile::pay(self.db.latency().query_rtt);
                self.db.ledger().record_failed_query();
                Err(TasteError::transient(format!("{what}: connection reset by peer")))
            }
            FaultDecision::Timeout => {
                LatencyProfile::pay(self.db.faults().profile().deadline);
                self.db.ledger().record_injected_timeout();
                Err(TasteError::timeout(format!("{what}: deadline exceeded")))
            }
            FaultDecision::Throttled => {
                LatencyProfile::pay(self.db.latency().query_rtt);
                self.db.ledger().record_throttled_query();
                Err(TasteError::transient(format!("{what}: throttled by provider")))
            }
            FaultDecision::Drop => {
                self.poisoned.store(true, Ordering::Release);
                LatencyProfile::pay(self.db.latency().query_rtt);
                self.db.ledger().record_dropped_connection();
                Err(TasteError::transient(format!("{what}: connection dropped")))
            }
        }
    }

    /// `SELECT * FROM information_schema.tables` — all table metadata.
    pub fn fetch_tables(&self) -> Result<Vec<TableMeta>> {
        self.guard()?;
        self.inject(self.db.faults().on_metadata(None), "fetch_tables")?;
        let lat = self.db.latency();
        let tables = self.db.tables.read();
        LatencyProfile::pay(lat.metadata_query(tables.len()));
        self.db.ledger().record_metadata_query();
        Ok(tables.iter().map(|t| t.meta.clone()).collect())
    }

    /// The joined `information_schema` read — `SELECT … FROM
    /// information_schema.tables JOIN information_schema.columns … WHERE
    /// table_id IN (…)` — that the Phase 1 data preparation of a whole
    /// group of tables rides on: **one** round trip however many tables
    /// are named. Rows come back in input order; an id the catalog does
    /// not hold yields `None` (SQL `IN` semantics) without failing its
    /// neighbours.
    ///
    /// One query, one chance to fail: a single fault roll, keyed by the
    /// first table id. The cost is one `query_rtt` plus `meta_per_column`
    /// per payload row — one per table, one per column, and two more per
    /// column that carries a histogram (histogram JSON is bulky — this is
    /// what makes the paper's *with histogram* variant slightly slower
    /// end-to-end, §6.3). The ledger counts one metadata query. An empty
    /// slice sends nothing, costs nothing and records nothing.
    pub fn fetch_catalog(&self, tids: &[TableId]) -> Result<Vec<Option<CatalogEntry>>> {
        let Some(&first) = tids.first() else {
            return Ok(Vec::new());
        };
        self.guard()?;
        self.inject(self.db.faults().on_metadata(Some(first)), "fetch_catalog")?;
        let rows: Vec<Option<CatalogEntry>> = {
            let tables = self.db.tables.read();
            tids.iter()
                .map(|tid| tables.get(tid.0 as usize).map(|t| (t.meta.clone(), t.columns.clone())))
                .collect()
        };
        let payload: usize = rows
            .iter()
            .flatten()
            .map(|(_, cols)| 1 + cols.len() + 2 * cols.iter().filter(|c| c.histogram.is_some()).count())
            .sum();
        LatencyProfile::pay(self.db.latency().metadata_query(payload));
        self.db.ledger().record_metadata_query();
        Ok(rows)
    }

    /// Table-level metadata for one table. Kept, unchanged, only because
    /// `perf/README.md` pins it for the benchmark's replay; the library
    /// itself reads the catalog through [`Connection::fetch_catalog`].
    pub fn fetch_table_meta(&self, tid: TableId) -> Result<TableMeta> {
        self.guard()?;
        self.inject(self.db.faults().on_metadata(Some(tid)), "fetch_table_meta")?;
        let lat = self.db.latency();
        LatencyProfile::pay(lat.metadata_query(1));
        self.db.ledger().record_metadata_query();
        self.db.with_table(tid, |t| t.meta.clone())
    }

    /// `SELECT * FROM information_schema.columns WHERE table_id = ?` —
    /// the Phase 1 data-preparation query. Cost scales with the table's
    /// column count; columns carrying histograms cost 3× their metadata
    /// rate (histogram JSON is bulky — this is what makes the paper's
    /// *with histogram* variant slightly slower end-to-end, §6.3). Kept,
    /// unchanged, only because `perf/README.md` pins it for the
    /// benchmark's replay; see [`Connection::fetch_catalog`].
    pub fn fetch_columns_meta(&self, tid: TableId) -> Result<Vec<ColumnMeta>> {
        self.guard()?;
        let (ncols, hist_cols) = self
            .db
            .with_table(tid, |t| {
                (t.columns.len(), t.columns.iter().filter(|c| c.histogram.is_some()).count())
            })?;
        self.inject(self.db.faults().on_metadata(Some(tid)), "fetch_columns_meta")?;
        let lat = self.db.latency();
        LatencyProfile::pay(lat.metadata_query(ncols) + lat.meta_per_column * (2 * hist_cols) as u32);
        self.db.ledger().record_metadata_query();
        self.db.with_table(tid, |t| t.columns.clone())
    }

    /// Content scan of the selected columns — the Phase 2 data-preparation
    /// query. Returns row-major projected cells (in ascending-ordinal
    /// order). Pays per-row and per-byte costs and records the scan as
    /// `ordinals.len()` column scans in the ledger.
    ///
    /// Injected scan faults fire *after* the engine has located the rows
    /// (logical errors like an unknown table stay non-retryable and
    /// deterministic), so the ledger can attribute the wasted bytes: a
    /// timed-out scan wastes the full transfer, a dropped connection
    /// roughly half of it.
    pub fn scan_columns(
        &self,
        tid: TableId,
        ordinals: &[u16],
        method: ScanMethod,
    ) -> Result<Vec<Vec<Cell>>> {
        if ordinals.is_empty() {
            return Ok(Vec::new());
        }
        self.guard()?;
        let (rows, bytes) = self.db.scan_raw(tid, ordinals, method)?;
        let decision = self.db.faults().on_scan(tid);
        match decision {
            FaultDecision::Timeout => self.db.ledger().record_wasted_bytes(bytes as u64),
            FaultDecision::Drop => self.db.ledger().record_wasted_bytes(bytes as u64 / 2),
            _ => {}
        }
        self.inject(decision, "scan_columns")?;
        LatencyProfile::pay(self.db.latency().scan(rows.len(), bytes, method.is_sampled()));
        self.db
            .ledger()
            .record_scan(ordinals.len() as u64, rows.len() as u64, bytes as u64);
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultProfile;
    use std::time::Duration;
    use taste_core::{ColumnId, LabelSet, RawType, Table};

    fn mk_db(latency: LatencyProfile) -> (Arc<Database>, TableId) {
        let db = Database::new("udb", latency);
        let tid = TableId(0);
        let table = Table {
            meta: TableMeta { id: tid, name: "users".into(), comment: None, row_count: 4 },
            columns: vec![ColumnMeta {
                id: ColumnId::new(tid, 0),
                name: "email".into(),
                comment: None,
                raw_type: RawType::Text,
                nullable: false,
                stats: Default::default(),
                histogram: None,
            }],
            rows: (0..4).map(|i| vec![Cell::Text(format!("u{i}@example.com"))]).collect(),
            labels: vec![LabelSet::empty()],
        };
        let tid = db.create_table(&table).unwrap();
        (db, tid)
    }

    #[test]
    fn connection_and_queries_hit_the_ledger() {
        let (db, tid) = mk_db(LatencyProfile::zero());
        let conn = db.connect();
        let tables = conn.fetch_tables().unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].name, "users");
        let cols = conn.fetch_columns_meta(tid).unwrap();
        assert_eq!(cols.len(), 1);
        let rows = conn.scan_columns(tid, &[0], ScanMethod::FirstM { m: 2 }).unwrap();
        assert_eq!(rows.len(), 2);

        let s = db.ledger().snapshot();
        assert_eq!(s.connections_opened, 1);
        assert_eq!(s.metadata_queries, 2);
        assert_eq!(s.scan_queries, 1);
        assert_eq!(s.columns_scanned, 1);
        assert_eq!(s.rows_read, 2);
        assert!(s.bytes_read > 0);
        assert_eq!(s.failed_queries, 0);
    }

    /// `n` two-column tables (`t0`, `t1`, …) with three rows each.
    fn mk_catalog(latency: LatencyProfile, n: usize) -> (Arc<Database>, Vec<TableId>) {
        let db = Database::new("udb", latency);
        let tid = TableId(0);
        let column = |ordinal: u16, name: &str| ColumnMeta {
            id: ColumnId::new(tid, ordinal),
            name: name.into(),
            comment: None,
            raw_type: RawType::Text,
            nullable: false,
            stats: Default::default(),
            histogram: None,
        };
        let ids = (0..n)
            .map(|i| {
                let table = Table {
                    meta: TableMeta { id: tid, name: format!("t{i}"), comment: None, row_count: 3 },
                    columns: vec![column(0, "email"), column(1, "city")],
                    rows: (0..3).map(|r| vec![Cell::Text(format!("u{r}@x.io")), Cell::Text(format!("c{r}"))]).collect(),
                    labels: vec![LabelSet::empty(); 2],
                };
                db.create_table(&table).unwrap()
            })
            .collect();
        (db, ids)
    }

    #[test]
    fn fetch_catalog_is_one_round_trip_for_many_tables() {
        let profile = LatencyProfile { query_rtt: Duration::from_millis(40), ..LatencyProfile::zero() };
        let (db, ids) = mk_catalog(profile, 10);
        let conn = db.connect();
        let before = db.ledger().snapshot();
        let t0 = std::time::Instant::now();
        let rows = conn.fetch_catalog(&ids).unwrap();
        let took = t0.elapsed();
        assert!(took >= Duration::from_millis(40), "the round trip is paid: {took:?}");
        assert!(took < Duration::from_millis(80), "ten tables, one round trip — not ten: {took:?}");
        assert_eq!(rows.len(), 10);
        for (i, row) in rows.iter().enumerate() {
            let (meta, cols) = row.as_ref().expect("every id is in the catalog");
            assert_eq!(meta.name, format!("t{i}"), "rows come back in input order");
            assert_eq!(cols.len(), 2);
        }
        let delta = db.ledger().snapshot().since(&before);
        assert_eq!(delta.metadata_queries, 1, "one query in the ledger");
        assert_eq!(delta.failed_queries, 0);
    }

    #[test]
    fn fetch_catalog_charges_histogram_columns_three_times() {
        // 1 table row + 2 column rows = 3 payload rows plain (30 ms);
        // with a histogram on both columns 1 + 2 + 2·2 = 7 (70 ms).
        let profile = LatencyProfile { meta_per_column: Duration::from_millis(10), ..LatencyProfile::zero() };
        let (db, ids) = mk_catalog(profile, 1);
        let conn = db.connect();
        let t0 = std::time::Instant::now();
        conn.fetch_catalog(&ids).unwrap();
        let plain = t0.elapsed();
        assert!(plain >= Duration::from_millis(30) && plain < Duration::from_millis(70), "{plain:?}");
        db.analyze_table(ids[0], Some((taste_core::HistogramKind::EqualDepth, 4))).unwrap();
        let t0 = std::time::Instant::now();
        let rows = conn.fetch_catalog(&ids).unwrap();
        let with_hist = t0.elapsed();
        assert!(rows[0].as_ref().unwrap().1.iter().all(|c| c.histogram.is_some()));
        assert!(with_hist >= Duration::from_millis(70), "{with_hist:?}");
    }

    #[test]
    fn fetch_catalog_of_nothing_is_free_and_unrecorded() {
        let (db, _) = mk_catalog(LatencyProfile::zero(), 2);
        // Not even a certain fault can fail a query that is never sent.
        db.set_fault_profile(FaultProfile { meta_transient: 1.0, ..FaultProfile::none() });
        let conn = db.connect();
        assert!(conn.fetch_catalog(&[]).unwrap().is_empty());
        let s = db.ledger().snapshot();
        assert_eq!((s.metadata_queries, s.failed_queries), (0, 0));
    }

    #[test]
    fn fetch_catalog_unknown_id_is_none_without_failing_neighbours() {
        let (db, ids) = mk_catalog(LatencyProfile::zero(), 2);
        let conn = db.connect();
        let rows = conn.fetch_catalog(&[ids[0], TableId(42), ids[1]]).unwrap();
        assert_eq!(rows[0].as_ref().unwrap().0.name, "t0");
        assert!(rows[1].is_none(), "SQL IN semantics: no row for an id the catalog lacks");
        assert_eq!(rows[2].as_ref().unwrap().0.name, "t1");
        assert_eq!(db.ledger().snapshot().metadata_queries, 1);
    }

    #[test]
    fn certain_metadata_fault_fails_the_whole_read_once() {
        let (db, ids) = mk_catalog(LatencyProfile::zero(), 5);
        db.set_fault_profile(FaultProfile { meta_transient: 1.0, ..FaultProfile::none() });
        let conn = db.connect();
        let err = conn.fetch_catalog(&ids).unwrap_err();
        assert!(err.is_retryable(), "{err}");
        let s = db.ledger().snapshot();
        assert_eq!(s.failed_queries, 1, "one query, one failure — not one per table");
        assert_eq!(s.metadata_queries, 0, "a failed read is not a completed query");
    }

    #[test]
    fn poisoned_connection_refuses_fetch_catalog() {
        let (db, ids) = mk_catalog(LatencyProfile::zero(), 2);
        db.set_fault_profile(FaultProfile { scan_drop: 1.0, ..FaultProfile::none() });
        let conn = db.connect();
        conn.scan_columns(ids[0], &[0], ScanMethod::FirstM { m: 1 }).unwrap_err();
        assert!(conn.is_poisoned());
        assert!(conn.fetch_catalog(&ids).unwrap_err().is_retryable());
        assert_eq!(db.ledger().snapshot().metadata_queries, 0, "refused before it is sent");
        conn.reconnect().unwrap();
        assert_eq!(conn.fetch_catalog(&ids).unwrap().len(), 2);
    }

    #[test]
    fn empty_scan_is_free() {
        let (db, tid) = mk_db(LatencyProfile::zero());
        let conn = db.connect();
        let rows = conn.scan_columns(tid, &[], ScanMethod::FirstM { m: 10 }).unwrap();
        assert!(rows.is_empty());
        assert_eq!(db.ledger().snapshot().scan_queries, 0);
    }

    #[test]
    fn latency_is_actually_paid() {
        let profile = LatencyProfile {
            connect: Duration::from_millis(20),
            ..LatencyProfile::zero()
        };
        let (db, _) = mk_db(profile);
        let t0 = std::time::Instant::now();
        let _conn = db.connect();
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn fetch_table_meta_for_missing_table_errors() {
        let (db, _) = mk_db(LatencyProfile::zero());
        let conn = db.connect();
        assert!(conn.fetch_table_meta(TableId(9)).is_err());
    }

    #[test]
    fn scan_latency_scales_with_rows() {
        let profile = LatencyProfile {
            scan_per_row: Duration::from_millis(2),
            ..LatencyProfile::zero()
        };
        let (db, tid) = mk_db(profile);
        let conn = db.connect();
        let t0 = std::time::Instant::now();
        conn.scan_columns(tid, &[0], ScanMethod::FirstM { m: 4 }).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(8));
    }

    #[test]
    fn certain_scan_fault_is_transient_and_recorded() {
        let (db, tid) = mk_db(LatencyProfile::zero());
        db.set_fault_profile(FaultProfile {
            scan_transient: 1.0,
            ..FaultProfile::none()
        });
        let conn = db.connect();
        let err = conn.scan_columns(tid, &[0], ScanMethod::FirstM { m: 2 }).unwrap_err();
        assert!(err.is_retryable(), "injected scan fault must be retryable: {err}");
        let s = db.ledger().snapshot();
        assert_eq!(s.failed_queries, 1);
        assert_eq!(s.scan_queries, 0, "failed scan must not count as a completed scan");
    }

    #[test]
    fn certain_timeout_pays_deadline_and_wastes_bytes() {
        let (db, tid) = mk_db(LatencyProfile::zero());
        db.set_fault_profile(FaultProfile {
            scan_timeout: 1.0,
            deadline: Duration::from_millis(15),
            ..FaultProfile::none()
        });
        let conn = db.connect();
        let t0 = std::time::Instant::now();
        let err = conn.scan_columns(tid, &[0], ScanMethod::FirstM { m: 4 }).unwrap_err();
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert!(matches!(err, TasteError::Timeout(_)));
        let s = db.ledger().snapshot();
        assert_eq!(s.injected_timeouts, 1);
        assert!(s.wasted_bytes > 0);
    }

    #[test]
    fn dropped_connection_poisons_until_reconnect() {
        let (db, tid) = mk_db(LatencyProfile::zero());
        db.set_fault_profile(FaultProfile {
            scan_drop: 1.0,
            ..FaultProfile::none()
        });
        let conn = db.connect();
        assert!(!conn.is_poisoned());
        let err = conn.scan_columns(tid, &[0], ScanMethod::FirstM { m: 2 }).unwrap_err();
        assert!(err.is_retryable());
        assert!(conn.is_poisoned());
        // Every query now fails without touching the engine.
        assert!(conn.fetch_tables().is_err());
        assert!(conn.fetch_columns_meta(tid).is_err());
        // Reconnect restores service (connect_fail is 0 here).
        conn.reconnect().unwrap();
        assert!(!conn.is_poisoned());
        assert!(conn.fetch_tables().is_ok());
        let s = db.ledger().snapshot();
        assert_eq!(s.dropped_connections, 1);
        assert_eq!(s.reconnects, 1);
        assert_eq!(s.connections_opened, 2);
    }

    #[test]
    fn certain_connect_fault_fails_try_connect() {
        let (db, _) = mk_db(LatencyProfile::zero());
        db.set_fault_profile(FaultProfile {
            connect_fail: 1.0,
            ..FaultProfile::none()
        });
        let err = db.try_connect().unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(db.ledger().snapshot().connections_opened, 0);
    }

    #[test]
    fn logical_errors_beat_fault_injection() {
        // An unknown table is a deterministic NotFound even at 100% fault
        // rate — retrying it would never help.
        let (db, _) = mk_db(LatencyProfile::zero());
        db.set_fault_profile(FaultProfile {
            scan_transient: 1.0,
            ..FaultProfile::none()
        });
        let conn = db.connect();
        let err = conn.scan_columns(TableId(42), &[0], ScanMethod::FirstM { m: 1 }).unwrap_err();
        assert!(!err.is_retryable());
    }

    #[test]
    fn disabled_profile_changes_nothing() {
        let (db, tid) = mk_db(LatencyProfile::zero());
        db.set_fault_profile(FaultProfile::none());
        let conn = db.connect();
        for _ in 0..20 {
            conn.scan_columns(tid, &[0], ScanMethod::FirstM { m: 2 }).unwrap();
        }
        let s = db.ledger().snapshot();
        assert_eq!(s.failed_queries, 0);
        assert_eq!(s.scan_queries, 20);
    }
}
