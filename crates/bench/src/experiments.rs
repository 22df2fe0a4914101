//! One reproduction function per table / figure of the paper (§6).
//!
//! Every function is self-contained: it builds (or reloads from cache)
//! the corpora and models it needs, runs the measurement, prints an
//! aligned table, and writes `results/<exp>.json`.

use crate::datasets::{build_bundle, Bundle, DatasetKind};
use crate::fmt::{pct, print_table, score, secs, write_json};
use crate::models::{self, TrainedModels};
use crate::scale::Scale;
use serde_json::json;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taste_core::{Result, TasteError};
use taste_data::load::{load_split, LoadedSplit};
use taste_data::splits::Split;
use taste_db::{FaultProfile, LatencyProfile};
use taste_framework::baseline_run::{run_baseline, BaselineRunConfig};
use taste_framework::config::ScanKind;
use taste_framework::{
    evaluate_report, DetectionReport, HardeningConfig, OverloadConfig, RetryConfig, TasteConfig,
    TasteEngine,
};
use taste_model::Adtd;

fn run_taste(model: &Arc<Adtd>, split: &LoadedSplit, cfg: TasteConfig) -> Result<DetectionReport> {
    let engine = TasteEngine::new(Arc::clone(model), cfg)?;
    engine.detect_batch(&split.db, &split.db.table_ids())
}

fn mean_std(samples: &[Duration]) -> (f64, f64) {
    let xs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// The seven Fig. 4 execution-time variants, in paper order.
const VARIANTS: [&str; 7] = [
    "TURL",
    "Doduo",
    "TASTE",
    "TASTE w/ histogram",
    "TASTE w/o pipelining",
    "TASTE w/o caching",
    "TASTE w/ sampling",
];

/// Runs one named variant once against the appropriate test database.
fn run_variant(name: &str, bundle: &Bundle, models: &TrainedModels, timed: bool) -> Result<DetectionReport> {
    let split = if timed { &bundle.test_timed } else { &bundle.test_fast };
    let hist_split = if timed { &bundle.test_timed_hist } else { &bundle.test_fast_hist };
    let base = TasteConfig { l: bundle.kind.default_l(), ..TasteConfig::default() };
    match name {
        "TURL" => run_baseline(&models.turl, &split.db, &split.db.table_ids(), &BaselineRunConfig::default()),
        "Doduo" => run_baseline(&models.doduo, &split.db, &split.db.table_ids(), &BaselineRunConfig::default()),
        "TASTE" => run_taste(&models.taste, split, base),
        "TASTE w/ histogram" => run_taste(
            &models.taste_hist,
            hist_split,
            TasteConfig { use_histograms: true, ..base },
        ),
        "TASTE w/o pipelining" => run_taste(&models.taste, split, TasteConfig { pipelining: false, ..base }),
        "TASTE w/o caching" => run_taste(&models.taste, split, TasteConfig { caching: false, ..base }),
        "TASTE w/ sampling" => run_taste(
            &models.taste,
            split,
            TasteConfig { scan: ScanKind::Sample { seed: 0 }, ..base },
        ),
        other => unreachable!("unknown variant {other}"),
    }
}

/// Table 2 — dataset summary.
pub fn table2(scale: &Scale) -> Result<()> {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for kind in [DatasetKind::Wiki, DatasetKind::Git] {
        let corpus = taste_data::Corpus::generate(kind.spec(scale));
        for split in [None, Some(Split::Train), Some(Split::Valid), Some(Split::Test)] {
            let s = corpus.summarize(split);
            rows.push(vec![
                s.name.clone(),
                s.tables.to_string(),
                s.columns.to_string(),
                s.types.to_string(),
                format!("{:.2}%", s.pct_without_types),
            ]);
            out.push(json!({
                "name": s.name, "tables": s.tables, "columns": s.columns,
                "types": s.types, "pct_without_types": s.pct_without_types,
            }));
        }
    }
    print_table(
        "Table 2: summary of the synthetic datasets",
        &["dataset", "# tables", "# cols", "# types", "% col w/o types"],
        &rows,
    );
    write_json("table2", &json!(out));
    Ok(())
}

/// Fig. 4 — end-to-end execution time of every variant on both datasets.
pub fn fig4(scale: &Scale) -> Result<()> {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for kind in [DatasetKind::Wiki, DatasetKind::Git] {
        let bundle = build_bundle(kind, scale)?;
        let models = models::train_all(&bundle, scale)?;
        for name in VARIANTS {
            let mut times = Vec::with_capacity(scale.timing_runs);
            for _ in 0..scale.timing_runs {
                let report = run_variant(name, &bundle, &models, true)?;
                times.push(report.wall_time);
            }
            let (mean, std) = mean_std(&times);
            rows.push(vec![
                kind.label().to_string(),
                name.to_string(),
                format!("{mean:.3}s"),
                format!("±{std:.3}s"),
            ]);
            out.push(json!({
                "dataset": kind.label(), "approach": name,
                "mean_s": mean, "std_s": std, "runs": scale.timing_runs,
            }));
        }
    }
    print_table(
        "Fig 4: end-to-end execution time",
        &["dataset", "approach", "mean", "std"],
        &rows,
    );
    write_json("fig4", &json!(out));
    Ok(())
}

/// Table 3 — precision / recall / F1 of every accuracy-relevant variant.
pub fn table3(scale: &Scale) -> Result<()> {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for kind in [DatasetKind::Wiki, DatasetKind::Git] {
        let bundle = build_bundle(kind, scale)?;
        let models = models::train_all(&bundle, scale)?;
        for name in ["TURL", "Doduo", "TASTE", "TASTE w/ histogram", "TASTE w/ sampling"] {
            let report = run_variant(name, &bundle, &models, false)?;
            let split = if name == "TASTE w/ histogram" { &bundle.test_fast_hist } else { &bundle.test_fast };
            let scores = evaluate_report(&report, &split.truth, split.ntypes);
            rows.push(vec![
                kind.label().to_string(),
                name.to_string(),
                score(scores.precision),
                score(scores.recall),
                score(scores.f1),
            ]);
            out.push(json!({
                "dataset": kind.label(), "approach": name,
                "precision": scores.precision, "recall": scores.recall, "f1": scores.f1,
            }));
        }
    }
    print_table(
        "Table 3: F1 scores (content available)",
        &["dataset", "approach", "precision", "recall", "F1"],
        &rows,
    );
    write_json("table3", &json!(out));
    Ok(())
}

/// Table 4 — metadata-only robustness (strict privacy setting).
pub fn table4(scale: &Scale) -> Result<()> {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for kind in [DatasetKind::Wiki, DatasetKind::Git] {
        let bundle = build_bundle(kind, scale)?;
        let models = models::train_all(&bundle, scale)?;
        let split = &bundle.test_fast;
        let no_content = BaselineRunConfig { with_content: false, ..Default::default() };
        let cases: Vec<(&str, DetectionReport)> = vec![
            (
                "TURL w/o content",
                run_baseline(&models.turl, &split.db, &split.db.table_ids(), &no_content)?,
            ),
            (
                "Doduo w/o content",
                run_baseline(&models.doduo, &split.db, &split.db.table_ids(), &no_content)?,
            ),
            (
                "TASTE w/o P2",
                run_taste(&models.taste, split, TasteConfig::default().without_p2())?,
            ),
        ];
        for (name, report) in cases {
            assert_eq!(report.ledger.columns_scanned, 0, "{name} must not scan content");
            let scores = evaluate_report(&report, &split.truth, split.ntypes);
            rows.push(vec![
                kind.label().to_string(),
                name.to_string(),
                score(scores.precision),
                score(scores.recall),
                score(scores.f1),
            ]);
            out.push(json!({
                "dataset": kind.label(), "approach": name,
                "precision": scores.precision, "recall": scores.recall, "f1": scores.f1,
            }));
        }
    }
    print_table(
        "Table 4: F1 scores with metadata only (strict privacy)",
        &["dataset", "approach", "precision", "recall", "F1"],
        &rows,
    );
    write_json("table4", &json!(out));
    Ok(())
}

/// Fig. 5 — ratio of scanned columns.
pub fn fig5(scale: &Scale) -> Result<()> {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for kind in [DatasetKind::Wiki, DatasetKind::Git] {
        let bundle = build_bundle(kind, scale)?;
        let models = models::train_all(&bundle, scale)?;
        for name in ["TURL", "Doduo", "TASTE", "TASTE w/ histogram"] {
            let report = run_variant(name, &bundle, &models, false)?;
            rows.push(vec![kind.label().to_string(), name.to_string(), pct(report.scanned_ratio())]);
            out.push(json!({
                "dataset": kind.label(), "approach": name, "scanned_ratio": report.scanned_ratio(),
            }));
        }
    }
    print_table("Fig 5: ratio of scanned columns", &["dataset", "approach", "scanned"], &rows);
    write_json("fig5", &json!(out));
    Ok(())
}

/// Fig. 6 — behavior as the ratio of columns without any type grows
/// (retained type sets `S_k` on the Wiki corpus).
pub fn fig6(scale: &Scale) -> Result<()> {
    let bundle = build_bundle(DatasetKind::Wiki, scale)?;
    let mut rows = Vec::new();
    let mut out = Vec::new();
    // Two retained-set sizes bound the sweep (each k costs a full
    // fine-tuning run on one CPU core).
    for k in [scale.fig6_ks[0], scale.fig6_ks[3]] {
        let (tuned, _mask) = bundle.corpus.retain_types(k, scale.seed);
        let model = models::taste_model_for_corpus(
            &tuned,
            &bundle.tokenizer,
            DatasetKind::Wiki.label(),
            scale,
            &format!("s{k}"),
        )?;
        let timed = load_split(&tuned, Split::Test, LatencyProfile::cloud(), None)?;
        let report = run_taste(&model, &timed, TasteConfig::default())?;
        let scores = evaluate_report(&report, &timed.truth, timed.ntypes);
        let eta = {
            let s = tuned.summarize(Some(Split::Test));
            s.pct_without_types / 100.0
        };
        rows.push(vec![
            format!("k={k}"),
            pct(eta),
            secs(report.wall_time),
            score(scores.f1),
            pct(report.scanned_ratio()),
        ]);
        out.push(json!({
            "k": k, "eta": eta, "time_s": report.wall_time.as_secs_f64(),
            "f1": scores.f1, "scanned_ratio": report.scanned_ratio(),
        }));
    }
    print_table(
        "Fig 6: columns without any types (WikiTable-S_k)",
        &["retained", "eta (% cols w/o type)", "time", "F1", "scanned"],
        &rows,
    );
    write_json("fig6", &json!(out));
    Ok(())
}

/// Fig. 7 — sensitivity to `α` and `β` on the Wiki corpus.
pub fn fig7(scale: &Scale) -> Result<()> {
    let bundle = build_bundle(DatasetKind::Wiki, scale)?;
    let models = models::train_all(&bundle, scale)?;
    let split = &bundle.test_fast;
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let mut run_point = |alpha: f32, beta: f32| -> Result<()> {
        let cfg = TasteConfig { alpha, beta, ..Default::default() };
        let report = run_taste(&models.taste, split, cfg)?;
        let scores = evaluate_report(&report, &split.truth, split.ntypes);
        let not_scanned = 1.0 - report.scanned_ratio();
        rows.push(vec![
            format!("{alpha:.1}"),
            format!("{beta:.1}"),
            score(scores.f1),
            pct(not_scanned),
        ]);
        out.push(json!({
            "alpha": alpha, "beta": beta, "f1": scores.f1, "not_scanned_ratio": not_scanned,
        }));
        Ok(())
    };
    for alpha in [0.1f32, 0.2, 0.3, 0.4, 0.5] {
        run_point(alpha, 0.9)?;
    }
    for beta in [0.5f32, 0.6, 0.7, 0.8] {
        run_point(0.1, beta)?;
    }
    print_table(
        "Fig 7: effects of alpha and beta (SynthWiki)",
        &["alpha", "beta", "F1", "not scanned"],
        &rows,
    );
    write_json("fig7", &json!(out));
    Ok(())
}

/// Fig. 8 — impact of the column-split threshold `l` and the cell count
/// `n` on the Wiki corpus.
pub fn fig8(scale: &Scale) -> Result<()> {
    let bundle = build_bundle(DatasetKind::Wiki, scale)?;
    let models = models::train_all(&bundle, scale)?;
    let split = &bundle.test_timed;
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for l in [4usize, 8, 12, 16, 20] {
        let cfg = TasteConfig { l, ..Default::default() };
        let report = run_taste(&models.taste, split, cfg)?;
        let scores = evaluate_report(&report, &split.truth, split.ntypes);
        rows.push(vec![
            format!("l={l}, n=10"),
            secs(report.wall_time),
            score(scores.f1),
        ]);
        out.push(json!({
            "sweep": "l", "l": l, "n": 10,
            "time_s": report.wall_time.as_secs_f64(), "f1": scores.f1,
        }));
    }
    for n in [2usize, 4, 6, 8, 10] {
        let cfg = TasteConfig { n, ..Default::default() };
        let report = run_taste(&models.taste, split, cfg)?;
        let scores = evaluate_report(&report, &split.truth, split.ntypes);
        rows.push(vec![
            format!("l=20, n={n}"),
            secs(report.wall_time),
            score(scores.f1),
        ]);
        out.push(json!({
            "sweep": "n", "l": 20, "n": n,
            "time_s": report.wall_time.as_secs_f64(), "f1": scores.f1,
        }));
    }
    print_table("Fig 8: impact of l and n (SynthWiki)", &["setting", "time", "F1"], &rows);
    write_json("fig8", &json!(out));
    Ok(())
}

/// Fault sweep — robustness of the engine under seeded fault injection
/// on the SynthGit test database: transient scan faults and connection
/// drops at increasing rates, with retries and graceful degradation on.
///
/// Because a fault decision is one uniform roll compared against
/// cumulative rate thresholds, a higher rate fails a strict superset of
/// the operations of a lower rate at the same seed: degraded columns are
/// monotone non-decreasing, F1 monotone non-increasing (degraded columns
/// keep P1-only verdicts), and wall time non-decreasing (backoff sleeps
/// plus re-paid scans) across the sweep.
pub fn fault_sweep(scale: &Scale) -> Result<()> {
    let bundle = build_bundle(DatasetKind::Git, scale)?;
    let models = models::train_all(&bundle, scale)?;
    let split = &bundle.test_timed;
    // Sequential mode + an effectively disabled breaker keep the sweep
    // deterministic: every point's degradations come from per-table retry
    // exhaustion alone, not wall-clock-dependent breaker state.
    let cfg = TasteConfig {
        l: bundle.kind.default_l(),
        pipelining: false,
        retry: RetryConfig {
            breaker_threshold: 1_000_000,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(5),
            ..RetryConfig::default()
        },
        ..TasteConfig::default()
    };
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let mut baseline = split.db.ledger().snapshot();
    for rate in [0.0f64, 0.05, 0.1, 0.2, 0.4] {
        split.db.set_fault_profile(FaultProfile::flaky(scale.seed, rate));
        let report = run_taste(&models.taste, split, cfg)?;
        let injected = split.db.ledger().snapshot_delta(&mut baseline);
        let scores = evaluate_report(&report, &split.truth, split.ntypes);
        let degraded_ratio = if report.total_columns == 0 {
            0.0
        } else {
            report.degraded_columns() as f64 / report.total_columns as f64
        };
        rows.push(vec![
            format!("{rate:.2}"),
            secs(report.wall_time),
            score(scores.f1),
            pct(degraded_ratio),
            report.total_retries().to_string(),
            injected.failed_queries.to_string(),
        ]);
        out.push(json!({
            "fault_rate": rate,
            "time_s": report.wall_time.as_secs_f64(),
            "f1": scores.f1,
            "degraded_ratio": degraded_ratio,
            "degraded_tables": report.degraded_tables(),
            "retries": report.total_retries(),
            "backoff_s": report.total_backoff().as_secs_f64(),
            "failed_queries": injected.failed_queries,
            "dropped_connections": injected.dropped_connections,
            "reconnects": injected.reconnects,
            "wasted_bytes": injected.wasted_bytes,
        }));
    }
    split.db.set_fault_profile(FaultProfile::none());
    print_table(
        "Fault sweep: graceful degradation under injected faults (SynthGit)",
        &["fault rate", "time", "F1", "degraded cols", "retries", "failed queries"],
        &rows,
    );
    write_json("fault_sweep", &json!(out));
    Ok(())
}

/// Overload sweep — serving behavior as offered load crosses capacity
/// on the SynthGit test database (cloud latency profile).
///
/// One "capacity unit" is the controller's in-flight budget; the sweep
/// offers 0.5×, 1×, 2×, and 4× that many tables per batch and compares
/// the overload-controlled engine against the control-disabled engine
/// at each point: goodput (tables finishing inside the latency budget),
/// p50/p99 per-table latency, the shed and rejected fractions, and any
/// brownout activity. Below capacity the two engines should match; past
/// capacity the controlled engine trades P2 coverage (shed tables keep
/// their P1 verdicts) for bounded queues and on-budget latency.
pub fn overload_sweep(scale: &Scale) -> Result<()> {
    let bundle = build_bundle(DatasetKind::Git, scale)?;
    let models = models::train_all(&bundle, scale)?;
    let split = &bundle.test_timed;
    let ids_all = split.db.table_ids();
    let unit = (ids_all.len() / 4).max(1);
    let budget = Duration::from_millis(250);
    let base = || TasteConfig { l: bundle.kind.default_l(), ..TasteConfig::default() };
    let controlled = || TasteConfig {
        overload: OverloadConfig {
            enabled: true,
            max_in_flight: unit,
            max_queued: unit * 2,
            deadline: Some(budget),
            queue_target: Duration::from_millis(2),
            queue_window: Duration::from_millis(8),
            ..OverloadConfig::default()
        },
        ..base()
    };
    let pctl = |lat: &[Duration], p: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        lat[((lat.len() - 1) as f64 * p).round() as usize].as_secs_f64() * 1000.0
    };

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for factor in [0.5f64, 1.0, 2.0, 4.0] {
        let n = ((unit as f64 * factor).round() as usize).clamp(1, ids_all.len());
        let ids = &ids_all[..n];

        let off = TasteEngine::new(Arc::clone(&models.taste), base())?.detect_batch(&split.db, ids)?;
        let on = TasteEngine::new(Arc::clone(&models.taste), controlled())?.detect_batch(&split.db, ids)?;
        let s = &on.overload;
        assert_eq!(s.submitted, s.admitted + s.rejected, "admission accounting must close");

        let mut lat: Vec<Duration> = on
            .tables
            .iter()
            .filter(|t| t.outcome.is_final() && t.latency > Duration::ZERO)
            .map(|t| t.latency)
            .collect();
        lat.sort();
        let shed_frac = on.shed_tables() as f64 / n as f64;
        rows.push(vec![
            format!("{factor:.1}x"),
            n.to_string(),
            format!("{} / {}", on.tables_within(budget), off.tables_within(budget)),
            format!("{:.0}ms", pctl(&lat, 0.50)),
            format!("{:.0}ms", pctl(&lat, 0.99)),
            pct(shed_frac),
            on.rejected_tables().to_string(),
            s.brownout_entries.to_string(),
        ]);
        out.push(json!({
            "load_factor": factor,
            "offered_tables": n,
            "capacity_unit": unit,
            "budget_ms": budget.as_secs_f64() * 1000.0,
            "goodput_on": on.tables_within(budget),
            "goodput_off": off.tables_within(budget),
            "p50_ms": pctl(&lat, 0.50),
            "p99_ms": pctl(&lat, 0.99),
            "shed_tables": on.shed_tables(),
            "shed_fraction": shed_frac,
            "rejected_tables": on.rejected_tables(),
            "queue_peak": s.queue_peak,
            "brownout_entries": s.brownout_entries,
            "transitions": s.transitions,
            "aimd_increases": s.aimd_increases,
            "aimd_decreases": s.aimd_decreases,
            "final_tp1_limit": s.final_tp1_limit,
            "final_tp2_limit": s.final_tp2_limit,
            "wall_time_on_s": on.wall_time.as_secs_f64(),
            "wall_time_off_s": off.wall_time.as_secs_f64(),
        }));
    }
    print_table(
        "Overload sweep: goodput and shedding vs offered load (SynthGit)",
        &["load", "offered", "goodput on/off", "p50", "p99", "shed", "rejected", "brownouts"],
        &rows,
    );
    write_json("BENCH_overload", &json!(out));
    Ok(())
}

/// Crash/resume — kill-and-resume determinism of the journaled engine
/// on a flaky SynthGit tenant: an uninterrupted journaled run, a run
/// halted mid-batch (simulated process kill between journal appends),
/// and a resume from the halted run's journal. The resumed report must
/// reproduce the uninterrupted verdicts exactly, with no table
/// processed twice.
pub fn crash_resume(scale: &Scale) -> Result<()> {
    let bundle = build_bundle(DatasetKind::Git, scale)?;
    let models = models::train_all(&bundle, scale)?;
    let split = &bundle.test_fast;
    let ids = split.db.table_ids();
    // Sequential mode pins the halt point: exactly `halt_at` tables are
    // journaled before the simulated kill.
    let cfg = TasteConfig {
        l: bundle.kind.default_l(),
        pipelining: false,
        retry: RetryConfig {
            breaker_threshold: 1_000_000,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(5),
            ..RetryConfig::default()
        },
        ..TasteConfig::default()
    };
    let full_path = std::env::temp_dir().join("taste-repro-journal-full.bin");
    let crash_path = std::env::temp_dir().join("taste-repro-journal-crash.bin");
    let flaky = || FaultProfile::flaky(scale.seed, 0.1);

    // Uninterrupted reference run.
    split.db.set_fault_profile(flaky());
    let engine = TasteEngine::new(Arc::clone(&models.taste), cfg)?;
    let full = engine.detect_batch_journaled(&split.db, &ids, &full_path)?;

    // Halted run: dies after half the batch is journaled. Reinstalling
    // the profile resets the fault layer's per-table attempt counters,
    // so each run sees the same per-table fault rolls.
    let halt_at = (ids.len() / 2).max(1);
    let halt_cfg = TasteConfig {
        hardening: HardeningConfig { halt_after_tables: Some(halt_at), ..Default::default() },
        ..cfg
    };
    split.db.set_fault_profile(flaky());
    let halt_engine = TasteEngine::new(Arc::clone(&models.taste), halt_cfg)?;
    let aborted = halt_engine.detect_batch_journaled(&split.db, &ids, &crash_path)?;

    // "Process restart": fresh engine, fresh fault counters, resume
    // from the journal.
    split.db.set_fault_profile(flaky());
    let resume_engine = TasteEngine::new(Arc::clone(&models.taste), cfg)?;
    let resumed = resume_engine.resume(&split.db, &ids, &crash_path)?;
    split.db.set_fault_profile(FaultProfile::none());

    let identical = full.tables.len() == resumed.tables.len()
        && full
            .tables
            .iter()
            .zip(&resumed.tables)
            .all(|(a, b)| a.table == b.table && a.admitted == b.admitted);
    let full_scores = evaluate_report(&full, &split.truth, split.ntypes);
    let resumed_scores = evaluate_report(&resumed, &split.truth, split.ntypes);
    let mut rows = Vec::new();
    for (label, report, scores) in [
        ("uninterrupted", &full, full_scores),
        ("halted", &aborted, evaluate_report(&aborted, &split.truth, split.ntypes)),
        ("resumed", &resumed, resumed_scores),
    ] {
        rows.push(vec![
            label.to_string(),
            report.tables.len().to_string(),
            report.cancelled_tables().to_string(),
            report.replayed_tables.to_string(),
            secs(report.wall_time),
            score(scores.f1),
        ]);
    }
    print_table(
        "Crash/resume: journaled detection under a mid-batch kill (SynthGit)",
        &["run", "tables", "cancelled", "replayed", "time", "F1"],
        &rows,
    );
    write_json(
        "crash_resume",
        &json!({
            "tables": ids.len(),
            "halt_after": halt_at,
            "cancelled_at_halt": aborted.cancelled_tables(),
            "replayed_on_resume": resumed.replayed_tables,
            "journal_corrupt_records": resumed.journal_corrupt_records,
            "journal_torn_tail": resumed.journal_torn_tail,
            "verdicts_identical": identical,
            "f1_uninterrupted": full_scores.f1,
            "f1_resumed": resumed_scores.f1,
        }),
    );
    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&crash_path);
    if !identical {
        return Err(TasteError::invalid(
            "resumed verdicts diverged from the uninterrupted run",
        ));
    }
    Ok(())
}

/// Training-resilience benchmark — checkpoint overhead and resume
/// fidelity of the one training loop, through `train_adtd`.
///
/// Three passes over the same SynthGit training set with the same
/// model seed: a bare run without checkpointing, an uninterrupted run
/// checkpointing every few steps (their throughput gap is the
/// checkpoint tax), and a run killed halfway then resumed from disk.
/// The checkpointed run must match the bare run bit for bit (saving
/// state must not perturb training), and the resumed run must match
/// both in final parameters and per-step losses.
pub fn train_resume(scale: &Scale) -> Result<()> {
    use crate::datasets::training_inputs_from_split;
    use taste_model::trainer::train_adtd;
    use taste_model::{TrainConfig, TrainResilience};
    use taste_nn::checkpoint::CheckpointPolicy;
    use taste_nn::ParamStore;

    let bundle = build_bundle(DatasetKind::Git, scale)?;
    let inputs =
        training_inputs_from_split(&bundle.corpus, Split::Train, false, bundle.kind.default_l(), 50, 10)?;
    // Checkpoint overhead is per-step; two epochs give plenty of steps.
    let cfg = TrainConfig { epochs: scale.epochs.clamp(1, 2), ..models::train_config(scale) };
    let total_steps = (inputs.len().div_ceil(cfg.batch_size) * cfg.epochs) as u64;
    let policy = CheckpointPolicy { every_n_steps: 5, keep_last_k: 2 };
    let fresh_model = || {
        Adtd::new(models::experiment_config(), bundle.tokenizer.clone(), bundle.corpus.ntypes(), scale.seed)
    };
    let param_bits = |store: &ParamStore| -> Vec<(String, Vec<u32>)> {
        let mut out: Vec<(String, Vec<u32>)> = store
            .ids()
            .map(|id| {
                let bits = store.value(id).as_slice().iter().map(|v| v.to_bits()).collect();
                (store.name(id).to_owned(), bits)
            })
            .collect();
        out.sort();
        out
    };

    // Pass 1: the bare loop.
    let mut bare = fresh_model();
    let t0 = Instant::now();
    let bare_report = train_adtd(&mut bare, &inputs, &cfg, &TrainResilience::default())?;
    let bare_time = t0.elapsed();

    // Pass 2: same run with periodic checkpoints.
    let ckpt_dir = std::env::temp_dir().join("taste-repro-train-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let res = TrainResilience { dir: Some(ckpt_dir.clone()), policy, ..TrainResilience::default() };
    let mut ckpt = fresh_model();
    let t1 = Instant::now();
    let ckpt_report = train_adtd(&mut ckpt, &inputs, &cfg, &res)?;
    let ckpt_time = t1.elapsed();

    // Pass 3: killed halfway, then resumed from disk into a freshly
    // constructed model, as after a real process death.
    let kill_dir = std::env::temp_dir().join("taste-repro-train-kill");
    let _ = std::fs::remove_dir_all(&kill_dir);
    let halt_at = (total_steps / 2).max(1);
    let kill = TrainResilience {
        dir: Some(kill_dir.clone()),
        policy,
        halt_after_steps: Some(halt_at),
        ..TrainResilience::default()
    };
    let mut halted_model = fresh_model();
    let halted_report = train_adtd(&mut halted_model, &inputs, &cfg, &kill)?;
    let resume = TrainResilience { halt_after_steps: None, ..kill };
    let mut resumed = fresh_model();
    let resumed_report = train_adtd(&mut resumed, &inputs, &cfg, &resume)?;

    let transparent = param_bits(&bare.store) == param_bits(&ckpt.store);
    let loss_bits = |r: &taste_model::TrainReport| -> Vec<u32> {
        r.step_losses.iter().map(|v| v.to_bits()).collect()
    };
    let identical = param_bits(&ckpt.store) == param_bits(&resumed.store)
        && loss_bits(&ckpt_report) == loss_bits(&resumed_report);
    let sps = |steps: u64, t: Duration| steps as f64 / t.as_secs_f64().max(1e-9);
    let bare_sps = sps(bare_report.health.steps_applied, bare_time);
    let ckpt_sps = sps(ckpt_report.health.steps_applied, ckpt_time);
    let overhead_pct = (1.0 - ckpt_sps / bare_sps.max(1e-9)) * 100.0;

    let rows = vec![
        vec![
            "bare".to_string(),
            bare_report.health.steps_applied.to_string(),
            secs(bare_time),
            format!("{bare_sps:.1}"),
            "0".to_string(),
        ],
        vec![
            "checkpointed".to_string(),
            ckpt_report.health.steps_applied.to_string(),
            secs(ckpt_time),
            format!("{ckpt_sps:.1}"),
            ckpt_report.health.checkpoints_written.to_string(),
        ],
        vec![
            "killed+resumed".to_string(),
            resumed_report.health.steps_applied.to_string(),
            "-".to_string(),
            "-".to_string(),
            (halted_report.health.checkpoints_written + resumed_report.health.checkpoints_written)
                .to_string(),
        ],
    ];
    print_table(
        "Training resilience: checkpoint overhead and resume fidelity (SynthGit)",
        &["run", "steps", "time", "steps/sec", "ckpts"],
        &rows,
    );
    println!(
        "  checkpoint overhead {overhead_pct:.1}%  transparent={transparent}  resume_identical={identical}"
    );
    write_json(
        "BENCH_train",
        &json!({
            "inputs": inputs.len(),
            "total_steps": total_steps,
            "checkpoint_every_n_steps": policy.every_n_steps,
            "steps_per_sec_bare": bare_sps,
            "steps_per_sec_checkpointed": ckpt_sps,
            "checkpoint_overhead_pct": overhead_pct,
            "checkpoints_written": ckpt_report.health.checkpoints_written,
            "halted_at_step": halt_at,
            "resumed_from_step": resumed_report.health.resumed_from_step,
            "checkpoint_transparent": transparent,
            "resume_identical": identical,
        }),
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&kill_dir);
    if !transparent {
        return Err(TasteError::invalid("checkpointing perturbed the training trajectory"));
    }
    if !identical {
        return Err(TasteError::invalid("resumed training diverged from the uninterrupted run"));
    }
    Ok(())
}

/// Hot model reload benchmark — registry publish/load latency, swap
/// visibility latency (offer → promoted incumbent), pin overhead on the
/// serving path, and the end-to-end throughput cost of an active canary
/// (shadow-scored Phase-1) against the rollout-disabled engine.
pub fn swap_bench(scale: &Scale) -> Result<()> {
    use taste_framework::{CanaryObservation, RolloutConfig, RolloutController};
    use taste_model::registry::{ModelRegistry, VersionedModel};

    let bundle = build_bundle(DatasetKind::Wiki, scale)?;
    let model = models::taste_model(&bundle, scale, false, "plain")?;
    let split = &bundle.test_fast;
    let ids = split.db.table_ids();
    let base = TasteConfig { l: bundle.kind.default_l(), ..TasteConfig::default() };
    let reps = scale.timing_runs.max(3);

    // 1. Registry artifact lifecycle: CRC-framed publish (temp + fsync +
    // rename) and validated load, per version.
    let dir = std::env::temp_dir().join("taste-repro-swap-registry");
    let _ = std::fs::remove_dir_all(&dir);
    let registry = ModelRegistry::new(&dir)?;
    let mut publish_t = Vec::new();
    let mut load_t = Vec::new();
    let mut artifact_bytes = 0u64;
    for v in 1..=reps as u64 {
        let t0 = Instant::now();
        let path = registry.publish(&model, v)?;
        publish_t.push(t0.elapsed());
        artifact_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let t0 = Instant::now();
        let loaded = registry.load(v)?;
        load_t.push(t0.elapsed());
        if loaded.version != v {
            return Err(TasteError::invalid("registry returned the wrong version"));
        }
    }
    let (publish_mean, publish_std) = mean_std(&publish_t);
    let (load_mean, load_std) = mean_std(&load_t);

    // 2. Swap mechanics on the controller: pin cost (per table, on the
    // hot path) and offer → promotion visibility latency.
    let rollout_on = |fraction: f64, min_tables: u64| RolloutConfig {
        enabled: true,
        canary_fraction: fraction,
        min_canary_tables: min_tables,
        ..RolloutConfig::default()
    };
    let rc = RolloutController::new(
        VersionedModel { version: 1, model: Arc::clone(&model) },
        rollout_on(1.0, 1),
    );
    const PINS: u32 = 100_000;
    let t0 = Instant::now();
    for _ in 0..PINS {
        std::hint::black_box(rc.pin());
    }
    let pin_ns = t0.elapsed().as_secs_f64() * 1e9 / f64::from(PINS);
    let mut swap_t = Vec::new();
    for v in 2..=(reps as u64 + 1) {
        let candidate = VersionedModel { version: v, model: Arc::clone(&model) };
        let t0 = Instant::now();
        if !rc.offer(candidate) {
            return Err(TasteError::invalid("controller rejected a fresh candidate"));
        }
        let _ = rc.pin();
        rc.observe_canary(CanaryObservation {
            agree_cols: 4,
            total_cols: 4,
            nonfinite: false,
            candidate_ms: 1.0,
            incumbent_ms: 1.0,
        });
        swap_t.push(t0.elapsed());
        if rc.current_version() != v {
            return Err(TasteError::invalid("promotion did not become visible"));
        }
    }
    let (swap_mean, swap_std) = mean_std(&swap_t);

    // 3. End-to-end canary cost: the engine with a candidate held in
    // canary for the whole run (judgment unreachable) vs rollout off.
    // Candidate weights are identical, so the delta is pure subsystem
    // overhead: pin routing plus the shadow Phase-1 on canary tables.
    let cols: f64 = {
        let probe = run_taste(&model, split, base)?;
        probe.total_columns as f64
    };
    let mut modes = Vec::new();
    for (label, fraction) in [("rollout off", None), ("canary 20%", Some(0.2)), ("canary 100%", Some(1.0))] {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let cfg = match fraction {
                None => base,
                Some(f) => TasteConfig { rollout: rollout_on(f, u64::MAX), ..base },
            };
            let engine = TasteEngine::new(Arc::clone(&model), cfg)?;
            if fraction.is_some() {
                let rc = engine.rollout().expect("rollout enabled");
                if !rc.offer(VersionedModel { version: 2, model: Arc::clone(&model) }) {
                    return Err(TasteError::invalid("canary candidate rejected"));
                }
            }
            let report = engine.detect_batch(&split.db, &ids)?;
            best = best.min(report.wall_time.as_secs_f64());
            if report.tables.iter().any(|t| t.outcome != taste_core::TableOutcome::Completed) {
                return Err(TasteError::invalid("canary run harmed a table"));
            }
        }
        modes.push((label, fraction, best));
    }
    let base_s = modes[0].2;

    let mut rows = vec![
        vec![
            "registry publish".into(),
            format!("{:.2} ± {:.2} ms", publish_mean * 1e3, publish_std * 1e3),
            format!("{artifact_bytes} B artifact"),
        ],
        vec![
            "registry load+validate".into(),
            format!("{:.2} ± {:.2} ms", load_mean * 1e3, load_std * 1e3),
            "CRC frame + finite params".into(),
        ],
        vec![
            "offer → promoted".into(),
            format!("{:.1} ± {:.1} µs", swap_mean * 1e6, swap_std * 1e6),
            "visibility latency".into(),
        ],
        vec!["pin (per table)".into(), format!("{pin_ns:.0} ns"), "serving hot path".into()],
    ];
    for (label, _, wall) in &modes {
        rows.push(vec![
            (*label).into(),
            format!("{:.0} cols/s", cols / wall),
            format!("{:.3}x vs off", base_s / wall),
        ]);
    }
    print_table(
        "Hot model reload: swap latency and canary overhead (SynthWiki test)",
        &["measure", "value", "notes"],
        &rows,
    );

    let mode_json: Vec<serde_json::Value> = modes
        .iter()
        .map(|(label, fraction, wall)| {
            json!({
                "mode": label,
                "canary_fraction": fraction,
                "wall_s": wall,
                "cols_per_s": cols / wall,
                "throughput_vs_off": base_s / wall,
            })
        })
        .collect();
    write_json(
        "BENCH_swap",
        &json!({
            "dataset": DatasetKind::Wiki.label(),
            "tables": ids.len(),
            "columns": cols,
            "timing": format!("min/mean over {reps} passes"),
            "registry": {
                "publish_mean_s": publish_mean,
                "publish_std_s": publish_std,
                "load_mean_s": load_mean,
                "load_std_s": load_std,
                "artifact_bytes": artifact_bytes,
            },
            "swap": {
                "offer_to_promoted_mean_s": swap_mean,
                "offer_to_promoted_std_s": swap_std,
                "pin_ns": pin_ns,
            },
            "serving": mode_json,
        }),
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Runs every experiment in paper order.
pub fn all(scale: &Scale) -> Result<()> {
    table2(scale)?;
    fig4(scale)?;
    table3(scale)?;
    table4(scale)?;
    fig5(scale)?;
    fig6(scale)?;
    fig7(scale)?;
    fig8(scale)?;
    fault_sweep(scale)?;
    overload_sweep(scale)?;
    crash_resume(scale)?;
    train_resume(scale)?;
    swap_bench(scale)?;
    Ok(())
}
