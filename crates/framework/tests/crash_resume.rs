//! Crash-safety integration tests: journal torn-write properties and
//! kill-and-resume determinism over a flaky tenant.
//!
//! The `#[ignore]`d test is the release-mode crash/resume scenario run
//! by CI via `cargo test --release -- --ignored`.

use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use taste_core::{
    Cell, ColumnId, ColumnMeta, LabelSet, RawType, Table, TableId, TableMeta, TableOutcome, TypeId,
};
use taste_db::{Database, FaultProfile, LatencyProfile};
use taste_framework::journal::{replay, JournalRecord, JournalWriter};
use taste_framework::retry::RetryConfig;
use taste_framework::{HardeningConfig, ResilienceSummary, TasteConfig, TasteEngine};
use taste_model::{Adtd, ModelConfig};
use taste_tokenizer::{Tokenizer, VocabBuilder};

fn temp_path(tag: &str) -> PathBuf {
    let tid = format!("{:?}", std::thread::current().id());
    std::env::temp_dir().join(format!(
        "taste-crash-{tag}-{}-{}",
        std::process::id(),
        tid.replace(|c: char| !c.is_ascii_alphanumeric(), "")
    ))
}

fn sample_records(n: usize, salt: u64) -> Vec<JournalRecord> {
    (0..n)
        .map(|i| {
            let outcome = match (i as u64 + salt) % 4 {
                0 => TableOutcome::Completed,
                1 => TableOutcome::Degraded,
                2 => TableOutcome::Panicked { stage: "P1Infer".into(), payload: format!("p{salt}") },
                _ => TableOutcome::TimedOut { stage: "P2Prep".into() },
            };
            JournalRecord {
                table: TableId(i as u32),
                outcome,
                admitted: vec![
                    LabelSet::from_iter([TypeId((salt % 7) as u32), TypeId(i as u32 % 5)]);
                    1 + i % 3
                ],
                uncertain_columns: i % 2,
                resilience: ResilienceSummary::default(),
                latency: std::time::Duration::from_millis(1 + (i as u64 + salt) % 9),
                model_version: salt % 3,
            }
        })
        .collect()
}

fn write_journal(path: &Path, records: &[JournalRecord]) {
    let mut w = JournalWriter::create(path).unwrap();
    for r in records {
        w.append(r).unwrap();
    }
}

/// The journal bytes of the sample records, pinned by CRC32C at the commit
/// before the stores moved onto `taste_core::durable` (the records hold
/// no floats, so the pin does not depend on a JSON float formatter).
#[test]
fn journal_bytes_are_pinned() {
    let path = temp_path("pinned");
    write_journal(&path, &sample_records(4, 7));
    let bytes = fs::read(&path).unwrap();
    assert_eq!((bytes.len(), taste_core::checksum::crc32c(&bytes)), (1250, 0xf488_e823));
    fs::remove_file(&path).unwrap();
}

/// The satellite requirement, literally: truncating a valid journal at
/// EVERY byte offset must neither panic nor produce a record that was
/// never written — replay always yields an exact prefix.
#[test]
fn every_truncation_offset_yields_a_clean_prefix() {
    use taste_core::checksum::{decode_record, DecodeStep};
    let records = sample_records(3, 7);
    let path = temp_path("exhaustive-trunc");
    write_journal(&path, &records);
    let full = fs::read(&path).unwrap();

    // Record boundaries of the intact file, for exact expectations.
    let mut boundaries = vec![0usize];
    let mut off = 0usize;
    while off < full.len() {
        match decode_record(&full[off..]) {
            DecodeStep::Record { consumed, .. } => {
                off += consumed;
                boundaries.push(off);
            }
            other => panic!("intact journal must decode cleanly, got {other:?}"),
        }
    }
    assert_eq!(boundaries.len(), records.len() + 1);

    for cut in 0..=full.len() {
        fs::write(&path, &full[..cut]).unwrap();
        let got = replay(&path).unwrap();
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(got.records.len(), complete, "cut={cut}");
        for (g, want) in got.records.iter().zip(&records) {
            assert_eq!(g, want, "cut={cut}: replay must yield a prefix, never a mutant");
        }
        assert_eq!(
            got.torn_tail,
            !boundaries.contains(&cut),
            "cut={cut}: a cut off a record boundary must be flagged as torn"
        );
        assert_eq!(got.corrupt_records, 0, "cut={cut}: truncation is tearing, not corruption");
    }
    fs::remove_file(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized variant of the truncation property over varying
    /// record shapes.
    #[test]
    fn truncating_anywhere_is_safe(
        n in 1usize..5,
        salt in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        let records = sample_records(n, salt);
        let path = temp_path("prop-trunc");
        write_journal(&path, &records);
        let full = fs::read(&path).unwrap();
        let cut = ((full.len() as f64) * frac) as usize;
        fs::write(&path, &full[..cut]).unwrap();
        let got = replay(&path).unwrap();
        prop_assert!(got.records.len() <= n);
        for (g, want) in got.records.iter().zip(&records) {
            prop_assert_eq!(g, want);
        }
        fs::remove_file(&path).unwrap();
    }

    /// Flipping any single byte never panics and never yields a wrong
    /// verdict: every surviving record is byte-identical to one that was
    /// written (corruption quarantines, it does not mutate).
    #[test]
    fn single_bitflip_never_misreads(
        n in 1usize..5,
        salt in any::<u64>(),
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let records = sample_records(n, salt);
        let path = temp_path("prop-flip");
        write_journal(&path, &records);
        let mut bytes = fs::read(&path).unwrap();
        let victim = ((bytes.len() as f64 - 1.0) * frac) as usize;
        bytes[victim] ^= 1 << bit;
        fs::write(&path, &bytes).unwrap();
        let got = replay(&path).unwrap();
        prop_assert!(got.records.len() <= n);
        // One flipped bit costs at most the record it lands in: a damaged
        // header no longer discards the intact records behind it.
        prop_assert!(got.records.len() >= n - 1, "{} of {n} records survived", got.records.len());
        for g in &got.records {
            let original = records.iter().find(|r| r.table == g.table);
            prop_assert_eq!(Some(g), original, "a surviving record must match what was written");
        }
        fs::remove_file(&path).unwrap();
    }
}

// ---------------------------------------------------------------------
// Kill-and-resume determinism over a flaky tenant.
// ---------------------------------------------------------------------

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

fn engine(cfg: TasteConfig) -> TasteEngine {
    TasteEngine::new(Arc::new(Adtd::new(ModelConfig::tiny(), tokenizer(), 4, 9)), cfg).unwrap()
}

fn flaky_profile() -> FaultProfile {
    FaultProfile { seed: 0xC0FFEE, scan_transient: 0.3, ..FaultProfile::none() }
}

fn base_cfg() -> TasteConfig {
    TasteConfig {
        pipelining: true,
        pool_size: 3,
        alpha: 0.0001,
        beta: 0.9999,
        retry: RetryConfig {
            max_attempts: 4,
            base_backoff: std::time::Duration::from_micros(10),
            max_backoff: std::time::Duration::from_micros(50),
            breaker_threshold: 10_000,
            degrade: true,
            ..RetryConfig::default()
        },
        ..Default::default()
    }
}

/// The headline acceptance criterion: a run killed mid-batch and then
/// resumed from its journal produces verdicts identical to the
/// uninterrupted run, with no table processed twice. Runs in release
/// mode via `cargo test --release -- --ignored` in CI.
#[test]
#[ignore = "crash/resume scenario for the release CI job"]
fn killed_and_resumed_run_matches_uninterrupted() {
    const TABLES: usize = 24;
    const HALT_AFTER: usize = 8;

    // Uninterrupted reference run on its own database replica.
    let (db_full, ids) = fixture_db(TABLES);
    db_full.set_fault_profile(flaky_profile());
    let full_path = temp_path("full");
    let full = engine(base_cfg()).detect_batch_journaled(&db_full, &ids, &full_path).unwrap();
    assert_eq!(full.tables.len(), TABLES);

    // The same catalog on a second replica: journaled run that "dies"
    // after HALT_AFTER journaled tables.
    let (db_crash, ids2) = fixture_db(TABLES);
    assert_eq!(ids, ids2, "replicas must agree on table ids");
    db_crash.set_fault_profile(flaky_profile());
    let halt_cfg = TasteConfig {
        hardening: HardeningConfig { halt_after_tables: Some(HALT_AFTER), ..Default::default() },
        ..base_cfg()
    };
    let crash_path = temp_path("crash");
    let aborted = engine(halt_cfg).detect_batch_journaled(&db_crash, &ids, &crash_path).unwrap();
    let unfinished = aborted.cancelled_tables();
    assert!(unfinished > 0, "the halt must interrupt the batch");

    // "Restart the process": reinstalling the profile resets the fault
    // layer's per-table attempt counters, exactly as a fresh process
    // would see them, so the re-run tables face the same fault rolls as
    // in the uninterrupted run.
    db_crash.set_fault_profile(flaky_profile());
    let resumed = engine(base_cfg()).resume(&db_crash, &ids, &crash_path).unwrap();

    assert!(resumed.replayed_tables >= HALT_AFTER as u64);
    assert_eq!(resumed.replayed_tables, (TABLES - unfinished) as u64);
    assert_eq!(resumed.tables.len(), full.tables.len());
    for (a, b) in full.tables.iter().zip(&resumed.tables) {
        assert_eq!(a.table, b.table);
        assert_eq!(a.admitted, b.admitted, "table {}: resume must match uninterrupted", a.table.0);
        assert_eq!(a.outcome, b.outcome, "table {}", a.table.0);
    }
    assert_eq!(resumed.total_columns, full.total_columns);

    // No table processed twice: the journal holds exactly one record
    // per table.
    let journal = replay(&crash_path).unwrap();
    let mut seen: Vec<u32> = journal.records.iter().map(|r| r.table.0).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), TABLES, "each table must be journaled exactly once");
    assert_eq!(journal.records.len(), TABLES);
    assert_eq!(journal.corrupt_records, 0);
    assert!(!journal.torn_tail);

    fs::remove_file(&full_path).unwrap();
    fs::remove_file(&crash_path).unwrap();
}

/// Smoke-sized (non-ignored) variant so the default test run still
/// exercises the full journal→halt→resume loop end to end.
#[test]
fn small_kill_and_resume_roundtrip() {
    let (db_full, ids) = fixture_db(6);
    let full_path = temp_path("small-full");
    let full = engine(base_cfg()).detect_batch_journaled(&db_full, &ids, &full_path).unwrap();

    let (db_crash, _) = fixture_db(6);
    let halt_cfg = TasteConfig {
        hardening: HardeningConfig { halt_after_tables: Some(2), ..Default::default() },
        ..base_cfg()
    };
    let crash_path = temp_path("small-crash");
    let aborted = engine(halt_cfg).detect_batch_journaled(&db_crash, &ids, &crash_path).unwrap();
    assert_eq!(aborted.tables.len(), 6, "a halted batch still reports every table");

    let resumed = engine(base_cfg()).resume(&db_crash, &ids, &crash_path).unwrap();
    assert_eq!(resumed.tables.len(), 6);
    for (a, b) in full.tables.iter().zip(&resumed.tables) {
        assert_eq!(a.table, b.table);
        assert_eq!(a.admitted, b.admitted);
    }
    fs::remove_file(&full_path).unwrap();
    fs::remove_file(&crash_path).unwrap();
}
