//! Pipelining throughput: Algorithm 1 against sequential execution.
//!
//! Each table needs four stages — two database-bound (metadata fetch,
//! content scan) and two compute-bound (tower inference). Sequential
//! mode leaves the CPU idle during every database wait; the pipelined
//! scheduler overlaps one table's I/O with another's inference, and
//! keeps eight database waits in flight at once whatever `pool_size` is:
//! the prep pool is sized by I/O depth, not by cores. This example
//! measures wall time for a latency-heavy tenant database (§5, §6.3 of
//! the paper). Its `pool_size` sweep therefore no longer changes how many
//! scans overlap — every pipelined row has the same eight connections —
//! only how many inference workers drain what the scans release: the
//! step from sequential to `pool_size = 1` is the I/O overlap, the steps
//! after it are compute width.
//!
//! An untrained model is deliberately used here: every column lands in
//! the uncertain band, so every table exercises all four stages — the
//! worst case for the scheduler and the most honest pipelining stress.
//!
//! ```text
//! cargo run --release --example pipeline_throughput
//! ```

use std::sync::Arc;
use std::time::Duration;
use taste::prelude::*;
use taste_data::load::load_split;
use taste_tokenizer::normalize;

fn main() {
    println!("generating tenant corpus...");
    let corpus = Corpus::generate(CorpusSpec::synth_wiki(160, 5));

    let mut vb = VocabBuilder::new();
    for table in &corpus.tables {
        for col in &table.columns {
            for w in normalize(&col.textual()) {
                vb.add_word(&w);
            }
        }
    }
    let tokenizer = Tokenizer::new(vb.build(2000, 1));
    // Untrained model: probabilities hover mid-band, forcing P2 on every
    // table (see module docs).
    let model = Arc::new(Adtd::new(ModelConfig::small(), tokenizer, corpus.ntypes(), 5));

    // A heavier latency profile than the default: a congested VPC.
    let latency = LatencyProfile {
        connect: Duration::from_millis(15),
        query_rtt: Duration::from_millis(5),
        meta_per_column: Duration::from_micros(200),
        scan_per_row: Duration::from_micros(400),
        transfer_per_kib: Duration::from_micros(300),
        sample_overhead_pct: 25,
    };
    let tenant = load_split(&corpus, Split::Test, latency, None).expect("tenant db");
    println!(
        "tenant database: {} tables, {} columns, congested-VPC latency\n",
        tenant.db.table_count(),
        tenant.db.total_columns()
    );

    let base = TasteConfig { alpha: 0.0001, beta: 0.9999, ..Default::default() };

    let mut sequential_time = Duration::ZERO;
    println!("{:<32} {:>12} {:>10}", "mode", "wall time", "speedup");
    for (name, cfg) in [
        ("sequential", TasteConfig { pipelining: false, ..base }),
        ("pipelined, 1 inference worker", TasteConfig { pipelining: true, pool_size: 1, ..base }),
        ("pipelined, 2 inference workers", TasteConfig { pipelining: true, pool_size: 2, ..base }),
        ("pipelined, 4 inference workers", TasteConfig { pipelining: true, pool_size: 4, ..base }),
    ] {
        let engine = TasteEngine::new(Arc::clone(&model), cfg).expect("engine");
        let report = engine.detect_batch(&tenant.db, &tenant.db.table_ids()).expect("detect");
        if name == "sequential" {
            sequential_time = report.wall_time;
        }
        let speedup = sequential_time.as_secs_f64() / report.wall_time.as_secs_f64();
        println!(
            "{:<32} {:>11.0}ms {:>9.2}x",
            name,
            report.wall_time.as_secs_f64() * 1000.0,
            speedup
        );
    }

    println!(
        "\nStage order per table is preserved by the scheduler's\n\
         eligibility rule; only stages of *different* tables overlap.\n\
         Every pipelined row scans over the same eight connections:\n\
         the rows differ in inference workers, not in I/O overlap."
    );
}
