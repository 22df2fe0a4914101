//! PII audit: the motivating scenario from the paper's introduction.
//!
//! A cloud data-protection service must find columns holding personally
//! identifiable information (credit card numbers, SSNs, phone numbers,
//! emails, ...) across a tenant's databases — with as little scanning of
//! the tenant's actual data as possible. This example:
//!
//! 1. trains an ADTD model on a synthetic enterprise corpus,
//! 2. audits a fresh "tenant database",
//! 3. reports every PII column found, and how much content the audit
//!    had to read to find it.
//!
//! ```text
//! cargo run --release --example pii_audit
//! ```

use std::sync::Arc;
use taste::prelude::*;
use taste_data::load::load_split;
use taste_model::prepare::ModelInput;
use taste_model::trainer::train_adtd;
use taste_model::TrainResilience;
use taste_tokenizer::normalize;

/// The semantic types this audit treats as PII.
const PII_TYPES: &[&str] = &[
    "person.email",
    "person.phone_number",
    "person.ssn",
    "person.passport_number",
    "person.birth_date",
    "finance.credit_card_number",
    "finance.iban",
];

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
    // Enterprise-style corpus: wide tables, a third of columns carry no
    // type of interest — exactly the regime where scanning everything
    // would be wasteful.
    println!("generating enterprise corpus...");
    // Wide enterprise tables are served with l = 6 column chunks — the
    // same capacity-matched split the reproduction harness uses.
    let full = Corpus::generate(CorpusSpec::synth_git(220, 21));

    // The audit only cares about PII (the paper's §6.6 scenario: "users
    // are only concerned about a small set of semantic types, such as
    // PII"): retain exactly those labels; every other column becomes
    // background.
    let mut keep = vec![false; full.ntypes()];
    for name in PII_TYPES {
        let id = full.builtin.registry().by_name(name).expect("registered PII type");
        keep[id.index()] = true;
    }
    let tables = full
        .tables
        .iter()
        .map(|t| {
            let mut t = t.clone();
            for label in &mut t.labels {
                label.retain_in(&keep);
            }
            t
        })
        .collect();
    let corpus = Corpus {
        spec: full.spec.clone(),
        builtin: taste_data::BuiltinRegistry::full(),
        tables,
    };
    let tokenizer = build_tokenizer(&corpus);

    println!("training the audit model...");
    let mut model = Adtd::new(ModelConfig::small(), tokenizer, corpus.ntypes(), 21);
    let report = train_adtd(
        &mut model,
        &training_inputs(&corpus),
        &TrainConfig { epochs: 16, lr: 2.5e-3, pos_weight: 8.0, ..Default::default() },
        &TrainResilience::default(),
    )
    .expect("training");
    println!("epoch losses: {:?}", report.epoch_losses);

    // The "tenant database" = the held-out test split behind a cloud
    // latency profile.
    let tenant = load_split(&corpus, Split::Test, LatencyProfile::cloud(), None).expect("tenant db");
    println!(
        "\nauditing tenant database: {} tables, {} columns",
        tenant.db.table_count(),
        tenant.db.total_columns()
    );

    let cfg = TasteConfig { l: 6, ..TasteConfig::default() };
    let engine = TasteEngine::new(Arc::new(model), cfg).expect("engine");
    let detection = engine.detect_batch(&tenant.db, &tenant.db.table_ids()).expect("audit");

    let registry = corpus.builtin.registry();
    let pii_ids: Vec<TypeId> = PII_TYPES.iter().filter_map(|n| registry.by_name(n)).collect();
    assert_eq!(pii_ids.len(), PII_TYPES.len(), "all PII types registered");

    println!("\n--- PII findings ---");
    let mut findings = 0usize;
    for tr in &detection.tables {
        let cols = tenant.db.columns_view(tr.table).expect("columns");
        for (col, admitted) in cols.iter().zip(&tr.admitted) {
            let hits: Vec<&str> = pii_ids
                .iter()
                .filter(|id| admitted.contains(**id))
                .map(|id| registry.get(*id).expect("registered").name.as_str())
                .collect();
            if !hits.is_empty() {
                findings += 1;
                println!(
                    "  {}.{} -> {}",
                    col.table_name,
                    col.column_name,
                    hits.join(", ")
                );
            }
        }
    }

    // Recall against ground truth, restricted to PII types.
    let mut pii_truth = 0usize;
    let mut pii_found = 0usize;
    for tr in &detection.tables {
        for (pred, truth) in tr.admitted.iter().zip(&tenant.truth[tr.table.0 as usize]) {
            for id in &pii_ids {
                if truth.contains(*id) {
                    pii_truth += 1;
                    if pred.contains(*id) {
                        pii_found += 1;
                    }
                }
            }
        }
    }

    println!("\n--- audit summary ---");
    println!("  PII columns flagged:     {findings}");
    println!("  PII recall:              {pii_found}/{pii_truth}");
    println!("  columns content-scanned: {:.1}% (the rest were resolved from metadata alone)", detection.scanned_ratio() * 100.0);
    println!("  end-to-end time:         {:?}", detection.wall_time);
    println!("  rows read from tenant:   {}", detection.ledger.rows_read);
    println!("  bytes read from tenant:  {}", detection.ledger.bytes_read);
}
