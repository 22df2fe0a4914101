//! Resume run: crash-safe journaled detection on a flaky tenant.
//!
//! Long detection batches die mid-flight in practice — the worker gets
//! preempted, the pod is rescheduled, the process OOMs. This example
//! runs a journaled TASTE batch against a flaky SynthGit tenant, kills
//! it deterministically after half the tables have committed their
//! verdicts to the journal, then resumes from the journal with a fresh
//! engine: finished tables are replayed without touching the tenant
//! database again, unfinished ones are re-run, and the combined report
//! is byte-for-byte identical to an uninterrupted run.
//!
//! ```text
//! cargo run --release --example resume_run
//! ```

use std::sync::Arc;
use taste::prelude::*;
use taste_data::load::load_split;
use taste_model::prepare::ModelInput;
use taste_model::trainer::train_adtd;
use taste_model::TrainResilience;
use taste_tokenizer::normalize;

const SEED: u64 = 29;
const FAULT_RATE: f64 = 0.10;

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
    let corpus = Corpus::generate(CorpusSpec::synth_git(120, SEED));
    let tokenizer = build_tokenizer(&corpus);
    let mut model = Adtd::new(ModelConfig::small(), tokenizer, corpus.ntypes(), SEED);
    train_adtd(
        &mut model,
        &training_inputs(&corpus),
        &TrainConfig { epochs: 8, lr: 2.5e-3, pos_weight: 8.0, ..Default::default() },
        &TrainResilience::default(),
    )
    .expect("training");
    let model = Arc::new(model);

    let tenant = load_split(&corpus, Split::Test, LatencyProfile::cloud(), None).expect("tenant db");
    let ids = tenant.db.table_ids();
    let journal = std::env::temp_dir().join(format!("taste-resume-run-{}.journal", std::process::id()));
    // Sequential mode so the simulated kill lands at a fixed table; the
    // journal and resume path work identically under pipelining.
    let cfg = TasteConfig { l: 6, pipelining: false, ..TasteConfig::default() };

    // Reference: one uninterrupted journaled run.
    tenant.db.set_fault_profile(FaultProfile::flaky(SEED, FAULT_RATE));
    let reference_journal = journal.with_extension("reference");
    let engine = TasteEngine::new(Arc::clone(&model), cfg).expect("engine");
    let full = engine
        .detect_batch_journaled(&tenant.db, &ids, &reference_journal)
        .expect("reference run");

    // The "crashing" run: `halt_after_tables` cancels the rest of the
    // batch once half the tables have journaled final verdicts — the
    // in-process stand-in for `kill -9`.
    let halt_at = ids.len() / 2;
    let halt_cfg = TasteConfig {
        hardening: HardeningConfig { halt_after_tables: Some(halt_at), ..Default::default() },
        ..cfg
    };
    // Reinstalling the fault profile models the process restart: the
    // fault layer's per-table attempt counters start over.
    tenant.db.set_fault_profile(FaultProfile::flaky(SEED, FAULT_RATE));
    let dying = TasteEngine::new(Arc::clone(&model), halt_cfg).expect("engine");
    let aborted = dying.detect_batch_journaled(&tenant.db, &ids, &journal).expect("aborted run");
    println!(
        "\nrun 1 killed after {halt_at} of {} tables ({} cancelled, journal: {})",
        ids.len(),
        aborted.cancelled_tables(),
        journal.display()
    );

    // A fresh engine resumes from the journal: replayed tables cost zero
    // tenant-database work, the rest are re-run.
    tenant.db.set_fault_profile(FaultProfile::flaky(SEED, FAULT_RATE));
    let revived = TasteEngine::new(Arc::clone(&model), cfg).expect("engine");
    let resumed = revived.resume(&tenant.db, &ids, &journal).expect("resume");
    tenant.db.set_fault_profile(FaultProfile::none());

    println!(
        "run 2 resumed: {} tables replayed from the journal, {} re-run",
        resumed.replayed_tables,
        ids.len() as u64 - resumed.replayed_tables
    );
    if resumed.journal_corrupt_records > 0 || resumed.journal_torn_tail {
        println!(
            "journal damage healed: {} corrupt record(s) quarantined, torn tail: {}",
            resumed.journal_corrupt_records, resumed.journal_torn_tail
        );
    }

    let identical = full.tables.len() == resumed.tables.len()
        && full
            .tables
            .iter()
            .zip(&resumed.tables)
            .all(|(a, b)| a.table == b.table && a.admitted == b.admitted);
    let scores = evaluate_report(&resumed, &tenant.truth, tenant.ntypes);
    println!("\n--- resumed batch ---");
    println!("  tables:               {}", resumed.tables.len());
    println!("  F1:                   {:.4}", scores.f1);
    println!("  total retries:        {}", resumed.total_retries());
    println!("  degraded:             {} tables", resumed.degraded_tables());
    println!(
        "  verdicts identical to uninterrupted run: {}",
        if identical { "yes" } else { "NO (bug!)" }
    );

    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&reference_journal);
    assert!(identical, "resume must reproduce the uninterrupted verdicts");
    println!(
        "\nThe journal records each table's final verdicts behind a CRC;\n\
         resume replays clean records, truncates a torn tail, quarantines\n\
         corrupt ones, and re-runs only what is missing — so a killed\n\
         batch converges to the same report as one that never died."
    );
}
