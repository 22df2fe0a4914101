//! Privacy modes: how `α` and `β` trade accuracy against data exposure.
//!
//! A tenant who forbids the cloud service from reading column content can
//! set `α = β` (Phase 2 never triggers — metadata only); a tenant who
//! wants maximum accuracy widens the `(α, β)` band and accepts more
//! scanning. This example runs the same trained model over the same
//! simulated tenant database under three policies and prints the
//! F1 / scanned-ratio / wall-time trade-off (§3.2, §6.7 of the paper).
//!
//! ```text
//! cargo run --release --example privacy_mode
//! ```

use std::sync::Arc;
use taste::prelude::*;
use taste_data::load::load_split;
use taste_model::prepare::ModelInput;
use taste_model::trainer::train_adtd;
use taste_model::TrainResilience;
use taste_tokenizer::normalize;

fn main() {
    println!("generating corpus and training (shared by all policies)...");
    let full = Corpus::generate(CorpusSpec::synth_wiki(150, 42));
    // Retained 12-type set (S_k, §6.6): learnable within a demo budget.
    let (corpus, _mask) = full.retain_types(12, 42);

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

    let loaded_train = load_split(&corpus, Split::Train, LatencyProfile::zero(), None).expect("train db");
    let conn = loaded_train.db.connect();
    let ntypes = corpus.ntypes();
    let mut inputs = Vec::new();
    // One joined catalog read for the whole split, as the engine does.
    let tables = corpus.split_tables(Split::Train);
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
    let mut model = Adtd::new(ModelConfig::small(), tokenizer, ntypes, 42);
    train_adtd(
        &mut model,
        &inputs,
        &TrainConfig { epochs: 10, lr: 2.5e-3, pos_weight: 8.0, ..Default::default() },
        &TrainResilience::default(),
    )
    .expect("train");
    let model = Arc::new(model);

    let tenant = load_split(&corpus, Split::Test, LatencyProfile::cloud(), None).expect("tenant db");

    // Three policies: strict privacy, the paper's default, max accuracy.
    let policies: [(&str, TasteConfig); 3] = [
        (
            "strict privacy (alpha = beta = 0.5, P2 disabled)",
            TasteConfig::default().without_p2(),
        ),
        (
            "balanced (alpha = 0.1, beta = 0.9, paper default)",
            TasteConfig::default(),
        ),
        (
            "max accuracy (alpha = 0.01, beta = 0.99)",
            TasteConfig { alpha: 0.01, beta: 0.99, ..Default::default() },
        ),
    ];

    println!(
        "\n{:<52} {:>8} {:>10} {:>10}",
        "policy", "F1", "scanned", "time"
    );
    for (name, cfg) in policies {
        let engine = TasteEngine::new(Arc::clone(&model), cfg).expect("engine");
        let report = engine.detect_batch(&tenant.db, &tenant.db.table_ids()).expect("detect");
        let scores = evaluate_report(&report, &tenant.truth, tenant.ntypes);
        println!(
            "{:<52} {:>8.4} {:>9.1}% {:>9.0}ms",
            name,
            scores.f1,
            report.scanned_ratio() * 100.0,
            report.wall_time.as_secs_f64() * 1000.0
        );
        if !cfg.p2_possible() {
            assert_eq!(
                report.ledger.columns_scanned, 0,
                "strict privacy must never read content"
            );
        }
    }

    println!(
        "\nUnder strict privacy not a single cell left the tenant database;\n\
         widening the (alpha, beta) band buys accuracy with scans."
    );
}
