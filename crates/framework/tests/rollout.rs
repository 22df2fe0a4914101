//! Hot-reload integration tests: swapping models under live traffic
//! must never tear a request. A healthy candidate promotes through its
//! canary, a corrupt artifact quarantines before it can serve, a
//! regressing candidate rolls back — and through all of it every table
//! completes on exactly one model version, recorded in its result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taste_core::{
    Cell, ColumnId, ColumnMeta, LabelSet, RawType, Table, TableId, TableMeta, TableOutcome,
};
use taste_db::{Database, LatencyProfile};
use taste_framework::{EpisodeOutcome, RolloutConfig, RolloutSummary, TasteConfig, TasteEngine};
use taste_model::registry::{ModelRegistry, VersionedModel};
use taste_model::{Adtd, ModelConfig};
use taste_tokenizer::{Tokenizer, VocabBuilder};

const SEED: u64 = 9;

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

fn model() -> Arc<Adtd> {
    Arc::new(Adtd::new(ModelConfig::tiny(), tokenizer(), 4, SEED))
}

/// A candidate guaranteed to disagree with any freshly-seeded incumbent:
/// every parameter forced to a large positive constant saturates the
/// output probabilities to ~1.0, so it admits every type for every
/// column while the incumbent (whose probabilities sit mid-band under
/// the wide α/β thresholds) admits none.
fn saturated_model() -> Arc<Adtd> {
    let mut m = Adtd::new(ModelConfig::tiny(), tokenizer(), 4, SEED);
    let ids: Vec<_> = m.store.ids().collect();
    for id in ids {
        for v in m.store.value_mut(id).as_mut_slice() {
            *v = 8.0;
        }
    }
    Arc::new(m)
}

/// A candidate whose weights are all finite — it passes the registry's
/// load-time check — but whose forward pass is not: the query and key
/// projections are scaled until every attention score overflows, and the
/// softmax of a row holding `inf` is `inf − inf`.
fn overflowing_model() -> Adtd {
    let mut m = Adtd::new(ModelConfig::tiny(), tokenizer(), 4, SEED);
    let ids: Vec<_> = m.store.ids().collect();
    for id in ids {
        let name = m.store.name(id);
        if name.ends_with(".q.w") || name.ends_with(".k.w") {
            for v in m.store.value_mut(id).as_mut_slice() {
                *v *= 1e24;
            }
        }
    }
    m
}

/// Wide α/β band: every column is uncertain after P1, so every table
/// exercises the full two-phase path.
fn wide_band(pipelining: bool) -> TasteConfig {
    TasteConfig { pipelining, alpha: 0.0001, beta: 0.9999, ..Default::default() }
}

/// Rollout knobs for tests: the latency gate is effectively disabled
/// (unit tests cover it; wall-clock ratios of micro-second inferences
/// are too noisy for an integration assertion).
fn rollout_cfg(canary_fraction: f64, min_canary_tables: u64) -> RolloutConfig {
    RolloutConfig {
        enabled: true,
        initial_version: 1,
        canary_fraction,
        min_canary_tables,
        min_agreement: 0.9,
        max_p99_latency_ratio: 1e6,
    }
}

fn engine(cfg: TasteConfig) -> TasteEngine {
    TasteEngine::new(model(), cfg).unwrap()
}

fn assert_all_completed(reports: &[taste_framework::DetectionReport]) {
    for report in reports {
        for tr in &report.tables {
            assert_eq!(
                tr.outcome,
                TableOutcome::Completed,
                "table {:?} harmed during a swap episode",
                tr.table
            );
        }
    }
}

fn version_counts(reports: &[taste_framework::DetectionReport]) -> std::collections::BTreeMap<u64, usize> {
    let mut counts = std::collections::BTreeMap::new();
    for report in reports {
        for tr in &report.tables {
            *counts.entry(tr.model_version).or_insert(0) += 1;
        }
    }
    counts
}

#[test]
fn disabled_rollout_is_inert() {
    let (db, ids) = fixture_db(6, LatencyProfile::zero());
    let cfg = wide_band(true);
    assert!(!cfg.rollout.enabled, "rollout must default off");
    let eng = engine(cfg);
    assert!(eng.rollout().is_none());
    let report = eng.detect_batch(&db, &ids).unwrap();
    assert_eq!(report.rollout, RolloutSummary::default());
    assert!(report.tables.iter().all(|t| t.model_version == 0));
}

#[test]
fn healthy_candidate_promotes_and_matches_the_static_run() {
    let (db, ids) = fixture_db(24, LatencyProfile::zero());
    // Reference: the same model served statically, rollout disabled.
    let reference = engine(wide_band(true)).detect_batch(&db, &ids).unwrap();

    let cfg = TasteConfig { rollout: rollout_cfg(1.0, 4), ..wide_band(true) };
    let eng = engine(cfg);
    let rc = Arc::clone(eng.rollout().expect("rollout enabled"));
    assert_eq!(rc.current_version(), 1);
    // Candidate with bit-identical weights: agreement must be exactly 1.
    assert!(rc.offer(VersionedModel { version: 2, model: model() }));
    let report = eng.detect_batch(&db, &ids).unwrap();

    assert_all_completed(std::slice::from_ref(&report));
    let s = &report.rollout;
    assert!(s.enabled);
    assert_eq!((s.promotions, s.rollbacks), (1, 0));
    assert_eq!((s.initial_version, s.final_version), (1, 2));
    assert_eq!(s.episodes.len(), 1);
    let ep = &s.episodes[0];
    assert_eq!(ep.outcome, EpisodeOutcome::Promoted);
    assert_eq!((ep.candidate_version, ep.incumbent_version), (2, 1));
    assert!(ep.gates.all_ok());
    assert!((ep.gates.agreement - 1.0).abs() < 1e-12, "identical weights must fully agree");
    assert!(ep.gates.canary_tables >= 4);

    // Every table served some version, and — weights being identical —
    // every verdict is bit-identical to the static run.
    for (tr, rf) in report.tables.iter().zip(&reference.tables) {
        assert!(tr.model_version == 1 || tr.model_version == 2);
        assert_eq!(tr.admitted, rf.admitted);
        assert_eq!(tr.uncertain_columns, rf.uncertain_columns);
    }
    assert!(
        report.tables.iter().any(|t| t.model_version == 2),
        "the promoted model must actually serve"
    );
}

/// The headline scenario: a background publisher drives the controller
/// through a healthy candidate (promotes), a corrupt artifact
/// (quarantined, never serves), and a regressing candidate (rolls back
/// on agreement) — all while the engine serves batch after batch.
/// Exactly one rollback per bad candidate, and zero tables fail or
/// degrade because of the swaps. (The non-finite output sentinel has its
/// own release-only test below: in debug builds the NN executor asserts
/// finiteness inside the forward pass, so a NaN-emitting model cannot
/// even reach the engine's sentinel.)
#[test]
fn swap_under_load_promotes_quarantines_and_rolls_back() {
    let latency = LatencyProfile {
        connect: Duration::from_micros(100),
        query_rtt: Duration::from_micros(300),
        ..LatencyProfile::zero()
    };
    let (db, ids) = fixture_db(40, latency);
    let cfg = TasteConfig { rollout: rollout_cfg(0.5, 3), ..wide_band(true) };
    let eng = engine(cfg);
    let rc = Arc::clone(eng.rollout().expect("rollout enabled"));

    let reg_dir = std::env::temp_dir()
        .join(format!("taste-rollout-swap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&reg_dir);
    let registry = ModelRegistry::new(&reg_dir).unwrap();
    let corrupt_path = registry.path_for(3);

    let done = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_secs(60);
    let publisher = {
        let rc = Arc::clone(&rc);
        let done = Arc::clone(&done);
        let registry = ModelRegistry::new(&reg_dir).unwrap();
        std::thread::spawn(move || {
            let wait = |pred: &dyn Fn(&RolloutSummary) -> bool| {
                while !pred(&rc.summary()) {
                    assert!(Instant::now() < deadline, "publisher timed out");
                    std::thread::sleep(Duration::from_millis(2));
                }
            };
            // 1. Healthy candidate: identical weights, promotes.
            assert!(rc.offer(VersionedModel { version: 2, model: model() }));
            wait(&|s| s.promotions >= 1);
            // 2. Corrupt artifact: random garbage fails the CRC frame,
            //    quarantines, and no candidate enters canary.
            std::fs::write(registry.path_for(3), b"not a model artifact at all").unwrap();
            assert!(!rc.adopt_latest(&registry).unwrap());
            assert_eq!(rc.candidate_version(), None);
            // 3. Regressing candidate: saturated weights disagree on
            //    every column, so the agreement gate rolls it back.
            assert!(rc.offer(VersionedModel { version: 4, model: saturated_model() }));
            wait(&|s| s.rollbacks >= 1);
            done.store(true, Ordering::SeqCst);
        })
    };

    let mut reports = Vec::new();
    while !done.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "serving loop timed out");
        reports.push(eng.detect_batch(&db, &ids).unwrap());
    }
    publisher.join().unwrap();

    // Zero swap-attributable harm: every table of every batch completed.
    assert_all_completed(&reports);

    let s = rc.summary();
    assert_eq!(s.candidates_offered, 2, "corrupt artifact never became a candidate");
    assert_eq!(s.rejected_artifacts, 1);
    assert_eq!(s.promotions, 1);
    assert_eq!(s.rollbacks, 1, "exactly one rollback per bad candidate");
    assert_eq!((s.initial_version, s.final_version), (1, 2));
    assert_eq!(s.episodes.len(), 2);
    assert_eq!(s.episodes[0].outcome, EpisodeOutcome::Promoted);
    assert_eq!(s.episodes[0].candidate_version, 2);
    assert_eq!(s.episodes[1].outcome, EpisodeOutcome::RolledBack);
    assert_eq!(s.episodes[1].candidate_version, 4);
    assert!(
        s.episodes[1].cause.as_deref().unwrap().contains("agreement"),
        "saturated candidate must fail the agreement gate: {:?}",
        s.episodes[1].cause
    );

    // The quarantined artifact was renamed aside, mirroring checkpoint
    // semantics, and is skipped on the next poll instead of re-tried.
    assert!(!corrupt_path.exists(), "corrupt artifact must not stay loadable");
    assert!(
        corrupt_path.with_extension("model.corrupt").exists(),
        "corrupt artifact must be quarantined, not deleted"
    );

    // Version accounting: every verdict is attributed to the exact
    // model that produced it — v1 before the promotion, v2 after, and
    // v4 only as bounded canary exposure while it was being judged.
    let counts = version_counts(&reports);
    assert!(counts.keys().all(|v| [1, 2, 4].contains(v)), "unexpected versions {counts:?}");
    assert!(counts.get(&2).copied().unwrap_or(0) > 0, "promoted model must serve");

    let _ = std::fs::remove_dir_all(&reg_dir);
}

/// The non-finite sentinel, end to end: a candidate that loads cleanly
/// but overflows inside attention must reach the sentinel as NaN
/// probabilities — not be laundered into finite ones on the way (ReLU
/// built on `f32::max` turned the head's NaN pre-activations into zeros)
/// — trip it on its first canary table, and harm no request. Release
/// only: a debug build panics on the executor's `debug_assert!` first.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds assert finiteness inside the forward pass")]
fn numerically_broken_candidate_trips_the_nonfinite_sentinel() {
    let (db, ids) = fixture_db(12, LatencyProfile::zero());
    let reference = engine(wide_band(true)).detect_batch(&db, &ids).unwrap();

    let eng = engine(TasteConfig { rollout: rollout_cfg(1.0, 4), ..wide_band(true) });
    let rc = eng.rollout().expect("rollout enabled");
    let reg_dir = std::env::temp_dir().join(format!("taste-rollout-nonfinite-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&reg_dir);
    let registry = ModelRegistry::new(&reg_dir).unwrap();
    registry.publish(&overflowing_model(), 2).unwrap();
    assert!(rc.adopt_latest(&registry).unwrap(), "finite weights must pass the load-time check");
    assert_eq!(rc.candidate_version(), Some(2));

    let report = eng.detect_batch(&db, &ids).unwrap();
    assert_all_completed(std::slice::from_ref(&report));
    let s = &report.rollout;
    assert_eq!((s.promotions, s.rollbacks), (0, 1));
    assert_eq!((s.initial_version, s.final_version), (1, 1));
    assert_eq!(s.episodes[0].outcome, EpisodeOutcome::RolledBack);
    assert!(
        s.episodes[0].cause.as_deref().unwrap().contains("non-finite"),
        "the sentinel, not another gate, must roll it back: {:?}",
        s.episodes[0].cause
    );
    // Every table, the canaried ones included, carries the incumbent's
    // verdicts and version.
    for (tr, rf) in report.tables.iter().zip(&reference.tables) {
        assert_eq!(tr.model_version, 1);
        assert_eq!(tr.admitted, rf.admitted);
        assert_eq!(tr.uncertain_columns, rf.uncertain_columns);
    }
    let _ = std::fs::remove_dir_all(&reg_dir);
}

#[test]
fn corrupt_artifact_quarantines_without_serving() {
    let (db, ids) = fixture_db(8, LatencyProfile::zero());
    let cfg = TasteConfig { rollout: rollout_cfg(1.0, 2), ..wide_band(false) };
    let eng = engine(cfg);
    let rc = eng.rollout().unwrap();

    let reg_dir = std::env::temp_dir()
        .join(format!("taste-rollout-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&reg_dir);
    let registry = ModelRegistry::new(&reg_dir).unwrap();
    // A truncated/bit-flipped artifact: framing CRC rejects it.
    std::fs::write(registry.path_for(7), [0u8; 64]).unwrap();

    assert!(!rc.adopt_latest(&registry).unwrap(), "corrupt artifact must not enter canary");
    assert_eq!(rc.candidate_version(), None);
    assert_eq!(rc.current_version(), 1);

    let report = eng.detect_batch(&db, &ids).unwrap();
    assert!(report.tables.iter().all(|t| t.model_version == 1));
    assert_eq!(report.rollout.rejected_artifacts, 1);
    assert_eq!(report.rollout.candidates_offered, 0);
    assert!(registry.path_for(7).with_extension("model.corrupt").exists());
    // The registry is now empty of intact artifacts: polling again is a
    // clean no-op, not an error.
    assert!(!rc.adopt_latest(&registry).unwrap());
    let _ = std::fs::remove_dir_all(&reg_dir);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Runs `ids` through `eng` split at `k`: first chunk, then the
    /// offer, then the rest — returning all table results in order.
    fn run_with_offer(
        eng: &TasteEngine,
        db: &Arc<Database>,
        ids: &[TableId],
        k: usize,
        candidate: Arc<Adtd>,
    ) -> Vec<taste_framework::TableResult> {
        let mut tables = Vec::new();
        if k > 0 {
            tables.extend(eng.detect_batch(db, &ids[..k]).unwrap().tables);
        }
        assert!(eng
            .rollout()
            .unwrap()
            .offer(VersionedModel { version: 2, model: candidate }));
        tables.extend(eng.detect_batch(db, &ids[k..]).unwrap().tables);
        tables
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Linearizability of the swap: wherever the candidate is
        /// offered and whatever fraction canaries, every table's
        /// verdicts are bit-identical to the single-version run of
        /// whichever model its result says served it. The swap can
        /// change *which* version a table gets, never *what* that
        /// version would have said.
        #[test]
        fn any_swap_interleaving_is_linearizable(
            k in 0usize..12,
            frac_tenths in 1u8..=10,
        ) {
            let (db, ids) = fixture_db(12, LatencyProfile::zero());
            // Single-version references, sequential mode for determinism.
            let ref_inc = engine(wide_band(false)).detect_batch(&db, &ids).unwrap();
            let cand = saturated_model();
            let ref_cand =
                TasteEngine::new(Arc::clone(&cand), wide_band(false)).unwrap()
                    .detect_batch(&db, &ids).unwrap();

            // The candidate stays in canary for the whole run
            // (min_canary_tables is unreachable), so both versions serve.
            let rollout = rollout_cfg(f64::from(frac_tenths) / 10.0, 1_000_000);
            let cfg = TasteConfig { rollout, ..wide_band(false) };
            let eng = engine(cfg);
            let tables = run_with_offer(&eng, &db, &ids, k, cand);

            prop_assert_eq!(tables.len(), ids.len());
            for (i, tr) in tables.iter().enumerate() {
                prop_assert_eq!(tr.outcome.clone(), TableOutcome::Completed);
                let reference = match tr.model_version {
                    1 => &ref_inc.tables[i],
                    2 => &ref_cand.tables[i],
                    v => return Err(TestCaseError::fail(format!("unexpected version {v}"))),
                };
                prop_assert_eq!(&tr.admitted, &reference.admitted);
                prop_assert_eq!(tr.uncertain_columns, reference.uncertain_columns);
            }
            // Tables before the offer can only have seen the incumbent.
            for tr in &tables[..k] {
                prop_assert_eq!(tr.model_version, 1);
            }
            // With the full fraction, every post-offer table canaries.
            if frac_tenths == 10 {
                for tr in &tables[k..] {
                    prop_assert_eq!(tr.model_version, 2);
                }
            }
        }
    }
}
