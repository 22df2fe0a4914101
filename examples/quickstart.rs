//! Quickstart: the full TASTE flow in one file.
//!
//! 1. Generate a small synthetic corpus (tables + ground-truth types).
//! 2. Build a vocabulary and train the ADTD model (both towers, multi-
//!    task, automatic weighted loss).
//! 3. Load the test split into a simulated cloud database.
//! 4. Run the two-phase engine end-to-end and print, per column, the
//!    detected semantic types alongside the ground truth.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use taste::prelude::*;
use taste_data::load::load_split;
use taste_model::prepare::ModelInput;
use taste_model::trainer::train_adtd;
use taste_model::TrainResilience;
use taste_tokenizer::normalize;

/// Builds training inputs whose catalog statistics come from an ANALYZEd
/// database — the same distribution the model will see at serving time.
fn training_inputs(corpus: &Corpus, split: Split) -> Vec<ModelInput> {
    let loaded = load_split(corpus, split, LatencyProfile::zero(), None).expect("load split");
    let conn = loaded.db.connect();
    let ntypes = corpus.ntypes();
    let mut inputs = Vec::new();
    // One joined catalog read for the whole split, as the engine does.
    let tables = corpus.split_tables(split);
    let tids: Vec<TableId> = (0..tables.len() as u32).map(TableId).collect();
    let catalog = conn.fetch_catalog(&tids).expect("catalog");
    for (table, entry) in tables.iter().zip(catalog) {
        let (meta, columns) = entry.expect("table in catalog");
        let cells = taste_model::prepare::select_cells(&table.rows, table.width(), 50, 10);
        for chunk in taste_model::prepare::build_chunks(&meta, &columns, 20, false) {
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
    // 1. A small WikiTable-flavored corpus, reduced to a 12-type
    //    retained set (the paper's S_k mechanism, §6.6) so the model
    //    trains to a demonstrable accuracy within a quickstart's budget.
    println!("generating corpus...");
    let full = Corpus::generate(CorpusSpec::synth_wiki(150, 7));
    let (corpus, _mask) = full.retain_types(12, 7);

    // 2. Vocabulary from the training split.
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
    let tokenizer = Tokenizer::new(vb.build(3000, 2));

    // 3. Train ADTD.
    println!("training ADTD ({} types)...", corpus.ntypes());
    let mut model = Adtd::new(ModelConfig::small(), tokenizer, corpus.ntypes(), 7);
    let inputs = training_inputs(&corpus, Split::Train);
    let report = train_adtd(
        &mut model,
        &inputs,
        &TrainConfig { epochs: 10, lr: 2.5e-3, pos_weight: 8.0, ..Default::default() },
        &TrainResilience::default(),
    )
    .expect("training");
    println!("epoch losses: {:?}", report.epoch_losses);

    // 4. Load the test split into a simulated cloud database and detect.
    let test = load_split(&corpus, Split::Test, LatencyProfile::cloud(), None).expect("load test");
    let engine = TasteEngine::new(Arc::new(model), TasteConfig::default()).expect("engine");
    let detection = engine
        .detect_batch(&test.db, &test.db.table_ids())
        .expect("detection");

    println!(
        "\ndetected {} tables / {} columns in {:?}",
        detection.tables.len(),
        detection.total_columns,
        detection.wall_time
    );
    println!(
        "scanned {:.1}% of columns; latent cache: {} hits / {} misses",
        detection.scanned_ratio() * 100.0,
        detection.cache_hits,
        detection.cache_misses
    );

    let registry = corpus.builtin.registry();
    let name_of = |ls: &LabelSet| -> String {
        if ls.is_empty() {
            "(none)".to_owned()
        } else {
            ls.iter()
                .map(|id| registry.get(id).map(|t| t.name.clone()).unwrap_or_default())
                .collect::<Vec<_>>()
                .join(", ")
        }
    };

    println!("\nfirst table's columns:");
    let first = &detection.tables[0];
    let cols = test.db.columns_view(first.table).expect("columns view");
    for (col, (pred, truth)) in cols
        .iter()
        .zip(first.admitted.iter().zip(&test.truth[first.table.0 as usize]))
    {
        let mark = if pred == truth { "ok " } else { "MISS" };
        println!(
            "  [{mark}] {:<18} predicted: {:<28} truth: {}",
            col.column_name,
            name_of(pred),
            name_of(truth)
        );
    }

    let scores = evaluate_report(&detection, &test.truth, test.ntypes);
    println!(
        "\ntest scores: precision {:.4}, recall {:.4}, F1 {:.4}",
        scores.precision, scores.recall, scores.f1
    );
}
