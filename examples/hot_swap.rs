//! Health-gated hot model reload: publish → canary → promote/rollback.
//!
//! A trainer publishes new model versions into an on-disk registry
//! while the serving engine keeps answering detection batches. Each
//! adopted candidate serves a canary fraction of tables, shadow-scored
//! against the incumbent; the health gates then promote it or roll it
//! back automatically — and a corrupt artifact never serves at all, it
//! is quarantined at load time.
//!
//! This example walks one full episode of each kind: a healthy
//! candidate (promotes), a bit-flipped artifact (quarantined), and a
//! regressing candidate (rolled back by the agreement gate), printing
//! the gate verdicts and the per-version verdict attribution.
//!
//! ```text
//! cargo run --release --example hot_swap
//! ```

use std::sync::Arc;
use taste::prelude::*;
use taste_data::load::load_split;
use taste_tokenizer::normalize;

fn episode_line(report: &DetectionReport) {
    for ep in &report.rollout.episodes {
        println!(
            "  episode: v{} vs incumbent v{} -> {:?} ({})",
            ep.candidate_version,
            ep.incumbent_version,
            ep.outcome,
            ep.cause.as_deref().unwrap_or("all gates green"),
        );
        println!(
            "    gates: {} canary tables, agreement {:.3}, {} sentinel trips, \
             p99 {:.2}ms vs {:.2}ms",
            ep.gates.canary_tables,
            ep.gates.agreement,
            ep.gates.sentinel_trips,
            ep.gates.candidate_p99_ms,
            ep.gates.incumbent_p99_ms,
        );
    }
}

fn served_versions(report: &DetectionReport) {
    let mut counts = std::collections::BTreeMap::new();
    for t in &report.tables {
        *counts.entry(t.model_version).or_insert(0usize) += 1;
    }
    println!("  verdicts by model version: {counts:?}");
}

fn main() {
    println!("generating a tenant corpus...");
    let corpus = Corpus::generate(CorpusSpec::synth_wiki(160, 3));
    let mut vb = VocabBuilder::new();
    for table in &corpus.tables {
        for col in &table.columns {
            for w in normalize(&col.textual()) {
                vb.add_word(&w);
            }
        }
    }
    let tokenizer = Tokenizer::new(vb.build(2000, 1));
    let ntypes = corpus.ntypes();
    let incumbent = Arc::new(Adtd::new(ModelConfig::small(), tokenizer.clone(), ntypes, 5));
    let tenant = load_split(&corpus, Split::Test, LatencyProfile::zero(), None).expect("tenant db");
    let ids = tenant.db.table_ids();

    // The serving engine: 30% of tables canary a candidate, judged
    // after 12 shadow-scored observations — or after as many as one batch
    // over this tenant can supply, when the test split drew fewer than
    // forty tables: each episode below is decided within its one batch.
    let canary_fraction = 0.3;
    let canaries_per_batch = (ids.len() as f64 * canary_fraction).floor() as u64;
    let cfg = TasteConfig {
        pipelining: true,
        rollout: RolloutConfig {
            enabled: true,
            initial_version: 1,
            canary_fraction,
            min_canary_tables: canaries_per_batch.clamp(1, 12),
            // Generous: the first canary inference on each worker pays
            // the candidate's one-time weight packing, which dwarfs a
            // micro-benchmark-sized inference.
            max_p99_latency_ratio: 50.0,
            ..RolloutConfig::default()
        },
        ..Default::default()
    };
    let engine = TasteEngine::new(Arc::clone(&incumbent), cfg).expect("engine");
    let rollout = Arc::clone(engine.rollout().expect("rollout enabled"));

    // The registry the trainer publishes into.
    let dir = std::env::temp_dir().join(format!("taste-hot-swap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = ModelRegistry::new(&dir).expect("registry");

    // --- Episode 1: a healthy retrain (same weights here, so the
    // agreement gate reads 1.0 and the candidate promotes). ---
    println!("\npublishing healthy candidate v2 and serving a batch...");
    registry.publish(&incumbent, 2).expect("publish");
    assert!(rollout.adopt_latest(&registry).expect("adopt"), "v2 enters canary");
    let report = engine.detect_batch(&tenant.db, &ids).expect("detect");
    episode_line(&report);
    served_versions(&report);
    assert_eq!(rollout.current_version(), 2, "healthy candidate promoted");

    // --- Episode 2: a corrupt artifact. A single flipped bit fails the
    // CRC frame at load: the file is quarantined, the incumbent keeps
    // serving, and no canary ever starts. ---
    println!("\npublishing v3 and flipping one bit in the artifact...");
    let path = registry.publish(&incumbent, 3).expect("publish");
    let mut bytes = std::fs::read(&path).expect("read artifact");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("rewrite artifact");
    assert!(!rollout.adopt_latest(&registry).expect("adopt"), "corrupt artifact rejected");
    println!(
        "  quarantined: {} (exists: {})",
        path.with_extension("model.corrupt").display(),
        path.with_extension("model.corrupt").exists(),
    );
    assert_eq!(rollout.current_version(), 2, "incumbent untouched");

    // --- Episode 3: a regressing candidate — a retrain whose weights
    // collapsed to a constant, so its probabilities saturate and it
    // admits every type for every column. The agreement gate rolls it
    // back; only its canary fraction ever saw it, and every one of
    // those tables still completed. ---
    println!("\npublishing regressing candidate v4 and serving a batch...");
    let mut regressing = Adtd::new(ModelConfig::small(), tokenizer, ntypes, 77);
    let pids: Vec<_> = regressing.store.ids().collect();
    for id in pids {
        for v in regressing.store.value_mut(id).as_mut_slice() {
            *v = 6.0;
        }
    }
    registry.publish(&regressing, 4).expect("publish");
    assert!(rollout.adopt_latest(&registry).expect("adopt"), "v4 enters canary");
    let report = engine.detect_batch(&tenant.db, &ids).expect("detect");
    episode_line(&report);
    served_versions(&report);
    assert_eq!(rollout.current_version(), 2, "regression rolled back");
    assert!(
        report.tables.iter().all(|t| t.outcome == TableOutcome::Completed),
        "no table is harmed by a rollback"
    );

    let s = rollout.summary();
    println!(
        "\nsummary: {} offered, {} promoted, {} rolled back, {} artifacts quarantined; \
         serving v{}",
        s.candidates_offered, s.promotions, s.rollbacks, s.rejected_artifacts, s.final_version
    );
    let _ = std::fs::remove_dir_all(&dir);
}
