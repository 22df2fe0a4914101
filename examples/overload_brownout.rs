//! Brownout under a throttling tenant: overload control end to end.
//!
//! A cloud RDS being throttled is the canonical overload story: the
//! service rejects a burst of operations out of every window, retries
//! pile up, prep workers stall holding connections, and the stage queue
//! stands. This example runs the TASTE engine against a simulated
//! SynthGit tenant whose database throttles 5 of every 10 operations,
//! with the overload controller enabled, and prints what the controller
//! did about it: the admission ledger, the CoDel → overload → brownout
//! transition timeline, which tables had P2 work shed (and why), the
//! AIMD concurrency limits it converged to, and the latency spread of
//! what survived.
//!
//! ```text
//! cargo run --release --example overload_brownout
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use taste::prelude::*;
use taste_data::load::load_split;
use taste_db::Throttle;
use taste_model::prepare::ModelInput;
use taste_model::trainer::train_adtd;
use taste_model::TrainResilience;
use taste_tokenizer::normalize;

const SEED: u64 = 29;

fn build_tokenizer(corpus: &Corpus) -> Tokenizer {
    let mut vb = VocabBuilder::new();
    for table in corpus.split_tables(Split::Train) {
        for w in normalize(&table.meta.textual()) {
            vb.add_word(&w);
        }
        for col in &table.columns {
            for w in normalize(&col.textual()) {
                vb.add_word(&w);
            }
        }
        for row in table.rows.iter().take(6) {
            for cell in row {
                for w in normalize(&cell.render()) {
                    vb.add_word(&w);
                }
            }
        }
    }
    Tokenizer::new(vb.build(3000, 2))
}

fn training_inputs(corpus: &Corpus) -> Vec<ModelInput> {
    let loaded = load_split(corpus, Split::Train, LatencyProfile::zero(), None).expect("load");
    let conn = loaded.db.connect();
    let ntypes = corpus.ntypes();
    let mut inputs = Vec::new();
    // One joined catalog read for the whole split, as the engine does.
    let tables = corpus.split_tables(Split::Train);
    let tids: Vec<TableId> = (0..tables.len() as u32).map(TableId).collect();
    let catalog = conn.fetch_catalog(&tids).expect("catalog");
    for (table, entry) in tables.iter().zip(catalog) {
        let (meta, columns) = entry.expect("table in catalog");
        let cells = taste_model::prepare::select_cells(&table.rows, table.width(), 50, 10);
        for chunk in taste_model::prepare::build_chunks(&meta, &columns, 6, false) {
            let contents = chunk.ordinals.iter().map(|&o| cells[o as usize].clone()).collect();
            let labels: Vec<LabelSet> =
                chunk.ordinals.iter().map(|&o| table.labels[o as usize].clone()).collect();
            let targets = labels.iter().map(|l| l.to_multi_hot(ntypes)).collect();
            inputs.push(ModelInput { chunk, contents, targets, labels });
        }
    }
    inputs
}

fn main() {
    println!("generating corpus and training...");
    let corpus = Corpus::generate(CorpusSpec::synth_git(140, SEED));
    let tokenizer = build_tokenizer(&corpus);
    let mut model = Adtd::new(ModelConfig::small(), tokenizer, corpus.ntypes(), SEED);
    train_adtd(
        &mut model,
        &training_inputs(&corpus),
        &TrainConfig { epochs: 8, lr: 2.5e-3, pos_weight: 8.0, ..Default::default() },
        &TrainResilience::default(),
    )
    .expect("training");

    // The tenant database, being throttled: of every 10 operations the
    // last 5 are rejected with a transient error. The retry layer eats
    // the rejections (the budget below outlasts the longest rejection
    // run), but each retry holds a prep worker and a connection while it
    // backs off — queueing delay stands, which is exactly the signal the
    // overload controller watches.
    // The tenant is a second, larger draw of the same schema family: the
    // prep pool keeps eight connections in flight, so a queue only stands
    // behind it when well over eight tables want the database at once
    // (32 tables here, 24 admitted at a time).
    let tenant_corpus = Corpus::generate(CorpusSpec::synth_git(320, SEED + 1));
    assert_eq!(tenant_corpus.ntypes(), corpus.ntypes(), "one type registry per schema family");
    let tenant =
        load_split(&tenant_corpus, Split::Test, LatencyProfile::cloud(), None).expect("tenant db");
    tenant.db.set_fault_profile(FaultProfile {
        seed: SEED,
        throttle: Some(Throttle { every: 10, window: 5 }),
        ..FaultProfile::none()
    });
    println!(
        "tenant database: {} tables, {} columns, throttled 5/10 ops (seed {SEED})\n",
        tenant.db.table_count(),
        tenant.db.total_columns()
    );

    let deadline = Duration::from_millis(400);
    let overload = OverloadConfig {
        enabled: true,
        max_in_flight: 24,
        max_queued: 64,
        deadline: Some(deadline),
        queue_target: Duration::from_millis(2),
        queue_window: Duration::from_millis(8),
        brownout_after: Duration::from_millis(20),
        ..OverloadConfig::default()
    };
    // The retry budget must outlast the throttle's 5-rejection runs
    // (retries consume operations, so a stage can eat the whole run),
    // and the breaker threshold sits above it: this demo is about
    // absorbing overload with delay, not failing fast through the
    // breaker.
    let retry = RetryConfig { max_attempts: 8, breaker_threshold: 16, ..RetryConfig::default() };
    // A slightly widened uncertainty band keeps P2 work on the table —
    // literally — so there is something for the controller to shed.
    let cfg =
        TasteConfig { alpha: 0.02, beta: 0.98, l: 6, overload, retry, ..TasteConfig::default() };
    let engine = TasteEngine::new(Arc::new(model), cfg).expect("engine");
    let report = engine.detect_batch(&tenant.db, &tenant.db.table_ids()).expect("detection");

    let s = &report.overload;
    println!("--- admission ledger ---");
    println!("  submitted:   {}", s.submitted);
    println!("  admitted:    {}", s.admitted);
    println!("  rejected:    {}", s.rejected);
    println!("  queue peak:  {} queued stages", s.queue_peak);

    println!("\n--- overload / brownout timeline ---");
    if s.transitions.is_empty() {
        println!("  (no brownout: shedding drained the standing queue within `brownout_after`)");
    }
    for t in &s.transitions {
        println!("  {t}");
    }
    println!("  brownout entries: {}", s.brownout_entries);

    // Group shed tables by reason — the cheapest-first degradation
    // ladder in action.
    let mut by_reason: BTreeMap<String, usize> = BTreeMap::new();
    for tr in &report.tables {
        if let TableOutcome::Shed { reason } = tr.outcome {
            *by_reason.entry(format!("{reason:?}")).or_insert(0) += 1;
        }
    }
    println!("\n--- load shedding ---");
    println!("  tables shed to P1-only verdicts: {}", report.shed_tables());
    for (reason, n) in &by_reason {
        println!("    {reason:<14} {n}");
    }
    println!("  (every shed table keeps its P1 metadata verdicts — columns");
    println!("   settle on the α-band call instead of waiting for a P2 scan)");

    println!("\n--- adaptive concurrency (AIMD) ---");
    println!("  increases: {}  decreases: {}", s.aimd_increases, s.aimd_decreases);
    println!(
        "  final limits: TP1={} TP2={} connections={}",
        s.final_tp1_limit, s.final_tp2_limit, s.final_conn_limit
    );

    let mut lat: Vec<Duration> = report
        .tables
        .iter()
        .filter(|t| t.outcome.is_final() && t.latency > Duration::ZERO)
        .map(|t| t.latency)
        .collect();
    lat.sort();
    println!("\n--- batch summary ---");
    let completed =
        report.tables.iter().filter(|t| t.outcome == TableOutcome::Completed).count();
    println!("  wall time:          {:?}", report.wall_time);
    println!("  completed:          {completed}");
    println!("  shed:               {}", report.shed_tables());
    println!("  rejected:           {}", report.rejected_tables());
    if !lat.is_empty() {
        let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
        println!(
            "  table latency:      p50 {:.1}ms  p99 {:.1}ms",
            pct(0.50).as_secs_f64() * 1000.0,
            pct(0.99).as_secs_f64() * 1000.0
        );
        println!(
            "  within {:?} deadline: {} / {}",
            deadline,
            report.tables_within(deadline),
            lat.len()
        );
    }
    let scores = evaluate_report(&report, &tenant.truth, tenant.ntypes);
    println!("  F1 (after shedding): {:.4}", scores.f1);
    println!(
        "\nUnder throttling the engine degrades *chosen* tables to their\n\
         P1 verdicts and keeps the rest inside the deadline, instead of\n\
         letting queueing delay degrade every table at once."
    );
}
