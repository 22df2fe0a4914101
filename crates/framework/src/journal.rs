//! The resumable verdict journal.
//!
//! Every table that reaches a *final* outcome during a journaled run has
//! its verdicts appended here as one record of a
//! [`taste_core::durable::FramedLog`]. If the process dies mid-batch,
//! [`replay`] recovers every fully-written record, truncates the torn
//! tail left by an interrupted `write`, and quarantines (skips and
//! counts) any record that fails its checksum, does not decode, or
//! carries a non-final outcome — so [`crate::TasteEngine::resume`] can
//! skip finished tables and run only the remainder.
//!
//! Cancelled tables are deliberately *not* journaled: cancellation is a
//! non-final outcome, and leaving those tables out of the journal is
//! exactly what makes the resumed run pick them up again.

use crate::report::{ResilienceSummary, TableResult};
use serde::{Deserialize, Serialize};
use std::path::Path;
use taste_core::durable::FramedLog;
use taste_core::{LabelSet, Result, TableId, TableOutcome, TasteError};

/// One journaled table: its final outcome and everything needed to
/// rebuild its [`TableResult`] on resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Which table.
    pub table: TableId,
    /// The final outcome the table reached (never `Cancelled`).
    pub outcome: TableOutcome,
    /// Final admitted types per column.
    pub admitted: Vec<LabelSet>,
    /// Columns uncertain after P1.
    pub uncertain_columns: usize,
    /// Fault-handling telemetry for the table.
    pub resilience: ResilienceSummary,
    /// End-to-end latency of the table when it first ran. Records
    /// written before latency tracking existed deserialize to zero.
    #[serde(default)]
    pub latency: std::time::Duration,
    /// Version of the model the table's verdicts were served on, so a
    /// resumed run knows which weights produced them. Records written
    /// before the rollout subsystem existed deserialize to zero (the
    /// same value a rollout-disabled run stamps).
    #[serde(default)]
    pub model_version: u64,
}

impl JournalRecord {
    /// Rebuilds the report row this record stands for.
    pub fn into_result(self) -> TableResult {
        TableResult {
            table: self.table,
            admitted: self.admitted,
            uncertain_columns: self.uncertain_columns,
            outcome: self.outcome,
            resilience: self.resilience,
            latency: self.latency,
            model_version: self.model_version,
        }
    }
}

/// Append-only journal writer: each [`append`](JournalWriter::append) is
/// one [`FramedLog::append`], so a crash can tear at most the final record.
#[derive(Debug)]
pub struct JournalWriter {
    log: FramedLog,
}

impl JournalWriter {
    /// Creates (or truncates) a journal at `path`.
    pub fn create(path: &Path) -> Result<JournalWriter> {
        let log = FramedLog::at(path);
        log.rewrite([])?;
        Ok(JournalWriter { log })
    }

    /// Opens an existing journal for appending. Call only after
    /// [`replay`] has repaired the tail, so appends land on a record
    /// boundary.
    pub fn append_to(path: &Path) -> Result<JournalWriter> {
        Ok(JournalWriter { log: FramedLog::open(path)? })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Appends one record and flushes it to the OS.
    pub fn append(&mut self, record: &JournalRecord) -> Result<()> {
        debug_assert!(record.outcome.is_final(), "only final outcomes are journaled");
        let payload = serde_json::to_vec(record)
            .map_err(|e| TasteError::Serde(format!("encode journal record: {e}")))?;
        self.log.append(&payload)
    }
}

/// What [`replay`] recovered from a journal.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Records quarantined because their checksum or encoding was bad.
    pub corrupt_records: u64,
    /// Whether a torn (partially-written) tail was found and truncated.
    pub torn_tail: bool,
    /// Bytes removed when truncating the torn tail.
    pub truncated_bytes: u64,
}

/// Replays the journal at `path`: returns every intact record, skipping
/// and counting corrupt ones, and truncates the file past the last
/// decodable boundary so subsequent appends are well-framed.
pub fn replay(path: &Path) -> Result<JournalReplay> {
    let mut records = Vec::new();
    // A record whose checksum holds is still outside input: it must decode,
    // and a non-final outcome replayed as final would make `resume` skip a
    // table that never finished.
    let scan = FramedLog::at(path).scan(true, |payload| match serde_json::from_slice::<JournalRecord>(payload) {
        Ok(record) if record.outcome.is_final() => {
            records.push(record);
            true
        }
        _ => false,
    })?;
    Ok(JournalReplay {
        records,
        corrupt_records: scan.corrupt,
        torn_tail: scan.torn_bytes > 0,
        truncated_bytes: scan.torn_bytes as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use taste_core::TypeId;

    fn temp_path(tag: &str) -> PathBuf {
        let tid = format!("{:?}", std::thread::current().id());
        std::env::temp_dir().join(format!(
            "taste-journal-{tag}-{}-{}",
            std::process::id(),
            tid.replace(|c: char| !c.is_ascii_alphanumeric(), "")
        ))
    }

    fn record(t: u32, outcome: TableOutcome) -> JournalRecord {
        JournalRecord {
            table: TableId(t),
            outcome,
            admitted: vec![LabelSet::from_iter([TypeId(1), TypeId(3)]), LabelSet::empty()],
            uncertain_columns: 1,
            resilience: ResilienceSummary { attempts: 2, ..Default::default() },
            latency: std::time::Duration::from_millis(3),
            model_version: 5,
        }
    }

    #[test]
    fn roundtrip_preserves_records_in_order() {
        let path = temp_path("roundtrip");
        let mut w = JournalWriter::create(&path).unwrap();
        let records = vec![
            record(0, TableOutcome::Completed),
            record(1, TableOutcome::Degraded),
            record(2, TableOutcome::Panicked { stage: "P1Infer".into(), payload: "boom".into() }),
        ];
        for r in &records {
            w.append(r).unwrap();
        }
        drop(w);
        let replay = replay(&path).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.corrupt_records, 0);
        assert!(!replay.torn_tail);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume_cleanly() {
        let path = temp_path("torn");
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(&record(0, TableOutcome::Completed)).unwrap();
        w.append(&record(1, TableOutcome::Completed)).unwrap();
        drop(w);
        // Tear the last record: chop off its final 5 bytes.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 5]).unwrap();

        let first = replay(&path).unwrap();
        assert_eq!(first.records.len(), 1);
        assert!(first.torn_tail);
        assert!(first.truncated_bytes > 0);

        // After truncation, appending and replaying again is clean.
        let mut w = JournalWriter::append_to(&path).unwrap();
        w.append(&record(2, TableOutcome::TimedOut { stage: "P2Prep".into() })).unwrap();
        drop(w);
        let second = replay(&path).unwrap();
        assert_eq!(second.records.len(), 2);
        assert_eq!(second.records[0].table, TableId(0));
        assert_eq!(second.records[1].table, TableId(2));
        assert!(!second.torn_tail);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_is_quarantined_not_fatal() {
        let path = temp_path("corrupt");
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(&record(0, TableOutcome::Completed)).unwrap();
        let boundary = fs::metadata(&path).unwrap().len() as usize;
        w.append(&record(1, TableOutcome::Completed)).unwrap();
        w.append(&record(2, TableOutcome::Completed)).unwrap();
        drop(w);
        // Flip one payload byte inside the middle record.
        let mut bytes = fs::read(&path).unwrap();
        let victim = boundary + taste_core::checksum::RECORD_HEADER_LEN + 3;
        bytes[victim] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let replay = replay(&path).unwrap();
        assert_eq!(replay.corrupt_records, 1);
        assert_eq!(
            replay.records.iter().map(|r| r.table).collect::<Vec<_>>(),
            vec![TableId(0), TableId(2)],
            "the records around the corrupt one must survive"
        );
        assert!(!replay.torn_tail);
        fs::remove_file(&path).unwrap();
    }

    /// A record the writer would never append is outside input even when
    /// its checksum holds: replayed as final, `Cancelled` / `Rejected` would
    /// make `resume` skip a table that never finished.
    #[test]
    fn non_final_records_are_quarantined() {
        let path = temp_path("nonfinal");
        let payloads: Vec<Vec<u8>> = [
            record(0, TableOutcome::Completed),
            record(1, TableOutcome::Cancelled),
            record(2, TableOutcome::Rejected),
            record(3, TableOutcome::Degraded),
        ]
        .iter()
        .map(|r| serde_json::to_vec(r).unwrap())
        .collect();
        FramedLog::at(&path).rewrite(payloads.iter().map(Vec::as_slice)).unwrap();

        let replay = replay(&path).unwrap();
        assert_eq!(replay.records.iter().map(|r| r.table).collect::<Vec<_>>(), vec![TableId(0), TableId(3)]);
        assert_eq!(replay.corrupt_records, 2);
        assert!(!replay.torn_tail);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_is_an_error() {
        let err = replay(&temp_path("missing-never-created"));
        assert!(matches!(err, Err(TasteError::Serde(_))), "{err:?}");
    }

    #[test]
    fn record_rebuilds_its_table_result() {
        let r = record(7, TableOutcome::Degraded);
        let tr = r.clone().into_result();
        assert_eq!(tr.table, TableId(7));
        assert_eq!(tr.admitted, r.admitted);
        assert_eq!(tr.uncertain_columns, 1);
        assert_eq!(tr.outcome, TableOutcome::Degraded);
        assert_eq!(tr.resilience, r.resilience);
        assert_eq!(tr.latency, std::time::Duration::from_millis(3));
        assert_eq!(tr.model_version, 5);
    }

    #[test]
    fn pre_rollout_records_deserialize_with_version_zero() {
        let mut v = serde_json::to_value(record(0, TableOutcome::Completed)).unwrap();
        v.as_object_mut().unwrap().remove("model_version");
        let r: JournalRecord = serde_json::from_value(v).unwrap();
        assert_eq!(r.model_version, 0);
    }

    #[test]
    fn pre_latency_records_deserialize_with_zero_latency() {
        let mut v = serde_json::to_value(record(0, TableOutcome::Completed)).unwrap();
        v.as_object_mut().unwrap().remove("latency");
        let r: JournalRecord = serde_json::from_value(v).unwrap();
        assert_eq!(r.latency, std::time::Duration::ZERO);
    }
}
