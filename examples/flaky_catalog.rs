//! Flaky catalog: semantic type detection on an unreliable tenant
//! database.
//!
//! Real cloud RDS endpoints throttle, drop connections, and time out.
//! This example runs the TASTE engine against a simulated SynthGit
//! tenant with a seeded 10% transient-fault profile (plus proportional
//! connection drops) and shows what the resilience layer did about it:
//! per-table retries, backoff, reconnects, and graceful degradation,
//! plus the circuit-breaker activity for the whole batch.
//!
//! The fault stream is fully deterministic — rerunning this example
//! replays the exact same faults, retries, and backoff schedule.
//!
//! ```text
//! cargo run --release --example flaky_catalog
//! ```

use std::sync::Arc;
use taste::prelude::*;
use taste_data::load::load_split;
use taste_model::prepare::ModelInput;
use taste_model::trainer::train_adtd;
use taste_model::TrainResilience;
use taste_tokenizer::normalize;

const SEED: u64 = 13;

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

    // The tenant database behind a cloud latency profile — made flaky:
    // 10% of content scans fail transiently, a quarter of that rate also
    // drops the connection.
    let tenant = load_split(&corpus, Split::Test, LatencyProfile::cloud(), None).expect("tenant db");
    tenant.db.set_fault_profile(FaultProfile::flaky(SEED, 0.10));
    println!(
        "tenant database: {} tables, {} columns, 10% scan-fault profile (seed {SEED})\n",
        tenant.db.table_count(),
        tenant.db.total_columns()
    );

    let cfg = TasteConfig { l: 6, ..TasteConfig::default() };
    let engine = TasteEngine::new(Arc::new(model), cfg).expect("engine");
    let report = engine.detect_batch(&tenant.db, &tenant.db.table_ids()).expect("detection");

    // Heal the database before the read-only reporting pass below.
    tenant.db.set_fault_profile(FaultProfile::none());
    let conn = tenant.db.connect();
    let names: Vec<String> = conn
        .fetch_catalog(&tenant.db.table_ids())
        .expect("catalog")
        .into_iter()
        .map(|entry| entry.expect("table in catalog").0.name)
        .collect();

    println!(
        "{:<24} {:>8} {:>8} {:>11} {:>10} {:>10}",
        "table", "attempts", "retries", "backoff", "reconnects", "status"
    );
    for tr in &report.tables {
        let r: &ResilienceSummary = &tr.resilience;
        if r.retries == 0 && !r.degraded && !r.failed {
            continue; // clean table — nothing to report
        }
        let name = &names[tr.table.0 as usize];
        let status = if r.failed {
            "FAILED".to_owned()
        } else if r.degraded {
            format!("degraded ({} cols on P1-only verdicts)", r.degraded_columns)
        } else {
            "recovered".to_owned()
        };
        println!(
            "{:<24} {:>8} {:>8} {:>10.1}ms {:>10} {:>10}",
            name,
            r.attempts,
            r.retries,
            r.backoff.as_secs_f64() * 1000.0,
            r.reconnects,
            status
        );
    }

    let scores = evaluate_report(&report, &tenant.truth, tenant.ntypes);
    println!("\n--- batch summary ---");
    println!("  wall time:            {:?}", report.wall_time);
    println!("  F1:                   {:.4}", scores.f1);
    println!("  total retries:        {}", report.total_retries());
    println!(
        "  total backoff:        {:.1}ms",
        report.total_backoff().as_secs_f64() * 1000.0
    );
    println!(
        "  degraded:             {} tables / {} columns",
        report.degraded_tables(),
        report.degraded_columns()
    );
    println!("  failed queries:       {}", report.ledger.failed_queries);
    println!("  dropped connections:  {}", report.ledger.dropped_connections);
    println!("  reconnects:           {}", report.ledger.reconnects);
    println!("  breaker trips:        {}", report.breaker_trips);
    if !report.breaker_transitions.is_empty() {
        println!("  breaker transitions:  {}", report.breaker_transitions.join(", "));
    }
    println!(
        "\nEvery retry, backoff sleep, and degradation above replays\n\
         identically on rerun: faults and jitter are drawn from seeded\n\
         streams, never from the wall clock."
    );
}
