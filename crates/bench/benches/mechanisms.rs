//! Criterion benches for the paper's two performance mechanisms —
//! the **latent cache** (§4.2.2) and **pipelining** (§5) — as isolated
//! ablations over a fixed untrained model (training state does not
//! affect kernel cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use taste_core::LabelSet;
use taste_data::corpus::{Corpus, CorpusSpec};
use taste_data::load::load_split;
use taste_data::splits::Split;
use taste_db::LatencyProfile;
use taste_framework::{TasteConfig, TasteEngine};
use taste_model::features::NONMETA_DIM;
use taste_model::prepare::TableChunk;
use taste_model::{Adtd, Inferencer, ModelConfig};
use taste_tokenizer::{ColumnContent, Tokenizer, VocabBuilder};

fn tokenizer() -> Tokenizer {
    let mut vb = VocabBuilder::new();
    for w in ["users", "city", "name", "phone", "text", "int", "alpha", "beta"] {
        vb.add_word(w);
        vb.add_word(w);
    }
    Tokenizer::new(vb.build(500, 1))
}

fn chunk(ncols: usize) -> TableChunk {
    TableChunk {
        table_text: "users records".into(),
        col_texts: (0..ncols).map(|i| format!("city{i} text")).collect(),
        nonmeta: (0..ncols).map(|_| vec![0.3; NONMETA_DIM]).collect(),
        ordinals: (0..ncols as u16).collect(),
    }
}

/// P2 inference with the metadata latents cached vs recomputed — the
/// *TASTE w/o caching* ablation at kernel granularity.
fn bench_latent_cache(c: &mut Criterion) {
    let model = Adtd::new(ModelConfig::small(), tokenizer(), 16, 3);
    let ch = chunk(6);
    let contents: Vec<Option<ColumnContent>> = (0..6)
        .map(|_| Some(ColumnContent { cells: vec!["alpha".into(), "beta".into(), "alpha".into()] }))
        .collect();
    let mut inf = Inferencer::default();
    let cached = inf.encode_meta(&model, &ch);

    let mut group = c.benchmark_group("latent_cache");
    group.bench_function("p2_with_cached_meta_latents", |b| {
        b.iter(|| black_box(inf.predict_content(&model, &cached, &contents, &ch.nonmeta)))
    });
    group.bench_function("p2_recomputing_meta_tower", |b| {
        b.iter(|| {
            let enc = inf.encode_meta(&model, &ch);
            black_box(inf.predict_content(&model, &enc, &contents, &ch.nonmeta))
        })
    });
    group.finish();
}

/// The fixed cost of a batch of one: a single small chunk through the
/// one ragged model body — the number ROADMAP item 3's planned executor
/// has to beat.
fn bench_single_chunk_call(c: &mut Criterion) {
    let model = Adtd::new(ModelConfig::small(), tokenizer(), 16, 3);
    let ch = chunk(2);
    let mut inf = Inferencer::default();
    let enc = inf.encode_meta(&model, &ch);

    let mut group = c.benchmark_group("single_chunk_call");
    group.bench_function("encode_meta_2cols", |b| b.iter(|| black_box(inf.encode_meta(&model, &ch))));
    group.bench_function("predict_meta_2cols", |b| b.iter(|| black_box(inf.predict_meta(&model, &enc, &ch.nonmeta))));
    group.finish();
}

/// End-to-end batch detection, sequential vs pipelined across pool
/// sizes, on a latency-bearing simulated database.
fn bench_pipelining(c: &mut Criterion) {
    let corpus = Corpus::generate(CorpusSpec {
        n_tables: 12,
        ..CorpusSpec::synth_wiki(12, 3)
    });
    let mut vb = VocabBuilder::new();
    for t in &corpus.tables {
        for col in &t.columns {
            vb.add_word(&col.name);
        }
    }
    let model = Arc::new(Adtd::new(
        ModelConfig::small(),
        Tokenizer::new(vb.build(500, 1)),
        corpus.ntypes(),
        3,
    ));
    let latency = LatencyProfile {
        connect: Duration::from_millis(2),
        query_rtt: Duration::from_micros(800),
        scan_per_row: Duration::from_micros(60),
        ..LatencyProfile::zero()
    };
    let loaded = load_split(&corpus, Split::Train, latency, None).expect("load");
    let ids: Vec<_> = loaded.db.table_ids().into_iter().take(12).collect();
    // Wide-open band: every column goes through P2, stressing all stages.
    let base = TasteConfig { alpha: 0.0001, beta: 0.9999, ..Default::default() };

    let mut group = c.benchmark_group("pipelining");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        let engine = TasteEngine::new(Arc::clone(&model), TasteConfig { pipelining: false, ..base }).unwrap();
        b.iter(|| {
            let r = engine.detect_batch(&loaded.db, &ids).unwrap();
            black_box(r.tables.iter().map(|t| t.admitted.len()).sum::<usize>())
        })
    });
    for pool in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("pipelined", pool), &pool, |b, &pool| {
            let engine = TasteEngine::new(
                Arc::clone(&model),
                TasteConfig { pipelining: true, pool_size: pool, ..base },
            )
            .unwrap();
            b.iter(|| {
                let r = engine.detect_batch(&loaded.db, &ids).unwrap();
                black_box(r.tables.iter().map(|t| t.admitted.len()).sum::<usize>())
            })
        });
    }
    group.finish();

    // Keep the label type referenced so the bench exercises the public
    // result shape end-to-end.
    let _ = LabelSet::empty();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(8));
    targets = bench_latent_cache, bench_single_chunk_call, bench_pipelining
}
criterion_main!(benches);
