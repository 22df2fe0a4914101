//! Cross-table micro-batching: many small tables served per fused pass.
//!
//! A cloud catalog is dominated by *narrow* tables — two or three
//! columns each. Served one table at a time, every inference call runs
//! tiny matrices that leave kernels dispatch-bound. With batching
//! enabled, the engine's `BatchPlanner` holds eligible inference stages
//! in per-phase queues and flushes a micro-batch of columns drawn from
//! *many* tables into one fused forward pass — bit-identically to
//! serving each table as a batch of one.
//!
//! This example runs the same narrow-table tenant at batch sizes 1 and
//! 16 and prints columns/sec plus the planner's fill and flush-reason
//! telemetry from the report.
//!
//! ```text
//! cargo run --release --example batched_serving
//! ```

use std::sync::Arc;
use taste::prelude::*;
use taste_data::load::load_split;
use taste_framework::PhaseBatchingSummary;
use taste_tokenizer::normalize;

fn describe(name: &str, phase: &PhaseBatchingSummary) {
    println!(
        "  {name}: {} batches over {} columns from {} table-stages; \
         fill mean {:.2} / p95 {:.2}; flushes: {} size, {} deadline, {} drain",
        phase.batches,
        phase.batched_columns,
        phase.batched_tables,
        phase.mean_fill,
        phase.p95_fill,
        phase.size_flushes,
        phase.deadline_flushes,
        phase.drain_flushes,
    );
}

fn main() {
    println!("generating a narrow-table tenant corpus...");
    // Small tables: the synthetic generator's wiki tables average a
    // handful of columns, the worst case for per-table serving.
    let corpus = Corpus::generate(CorpusSpec::synth_wiki(240, 3));

    let mut vb = VocabBuilder::new();
    for table in &corpus.tables {
        for col in &table.columns {
            for w in normalize(&col.textual()) {
                vb.add_word(&w);
            }
        }
    }
    let tokenizer = Tokenizer::new(vb.build(2000, 1));
    // Untrained model with a wide uncertainty band: every column takes
    // the full P1 -> P2 path, so both fused passes carry real load.
    let model = Arc::new(Adtd::new(ModelConfig::small(), tokenizer, corpus.ntypes(), 5));

    let tenant = load_split(&corpus, Split::Test, LatencyProfile::zero(), None).expect("tenant db");
    println!(
        "tenant database: {} tables, {} columns\n",
        tenant.db.table_count(),
        tenant.db.total_columns()
    );

    let base = TasteConfig { pipelining: true, pool_size: 2, alpha: 0.0001, beta: 0.9999, ..Default::default() };

    let mut reference: Option<DetectionReport> = None;
    println!("{:<22} {:>12} {:>12}", "max_batch_columns", "wall time", "cols/sec");
    for max_batch_columns in [1usize, 16] {
        let cfg = TasteConfig {
            batching: BatchingConfig { enabled: true, max_batch_columns, ..Default::default() },
            ..base
        };
        let engine = TasteEngine::new(Arc::clone(&model), cfg).expect("engine");
        let report = engine.detect_batch(&tenant.db, &tenant.db.table_ids()).expect("detect");
        println!(
            "{:<22} {:>11.0}ms {:>12.0}",
            max_batch_columns,
            report.wall_time.as_secs_f64() * 1000.0,
            report.total_columns as f64 / report.wall_time.as_secs_f64(),
        );
        describe("P1", &report.batching.p1);
        describe("P2", &report.batching.p2);

        if let Some(r) = &reference {
            let identical = r
                .tables
                .iter()
                .zip(&report.tables)
                .all(|(a, b)| a.admitted == b.admitted && a.uncertain_columns == b.uncertain_columns);
            println!("  verdicts identical to batch=1: {identical}");
            assert!(identical, "batching must never change verdicts");
        }
        reference = Some(report);
    }

    println!(
        "\nAt batch=1 every flush carries one table and fill hovers at the\n\
         table width; at batch=16 the planner packs columns from many\n\
         tables per pass, so the same verdicts arrive in fewer, fuller\n\
         fused passes."
    );
}
