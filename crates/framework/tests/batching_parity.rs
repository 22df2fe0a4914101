//! Engine-level micro-batching parity: for random mixes of tables, the
//! batched pipelined engine must produce **bit-identical** verdicts to
//! the unbatched pipelined engine at every batch size × kernel thread
//! width, with identical latent-cache traffic. Batching is a throughput
//! knob, never a results knob.

use proptest::prelude::*;
use std::sync::Arc;
use taste_core::{Cell, ColumnId, ColumnMeta, LabelSet, RawType, Table, TableId, TableMeta};
use taste_db::{Database, LatencyProfile};
use taste_framework::{BatchingConfig, ExecutionConfig, TasteConfig, TasteEngine};
use taste_model::{Adtd, ModelConfig};
use taste_tokenizer::{Tokenizer, VocabBuilder};

const WORDS: [&str; 7] = ["users", "city", "num", "text", "demo", "alpha", "beta"];

fn tokenizer() -> Tokenizer {
    let mut b = VocabBuilder::new();
    for w in WORDS {
        b.add_word(w);
        b.add_word(w);
    }
    Tokenizer::new(b.build(100, 1))
}

/// Builds a database from a generated mix: one entry per table holding
/// the column count and a per-table seed that varies names and content.
fn mix_db(mix: &[(usize, u8)]) -> (Arc<Database>, Vec<TableId>) {
    let db = Database::new("d", LatencyProfile::zero());
    let mut ids = Vec::new();
    for (i, &(ncols, seed)) in mix.iter().enumerate() {
        let tid = TableId(0);
        let columns: Vec<ColumnMeta> = (0..ncols)
            .map(|j| ColumnMeta {
                id: ColumnId::new(tid, j as u16),
                name: format!("{}{j}", WORDS[(seed as usize + j) % WORDS.len()]),
                comment: None,
                raw_type: RawType::Text,
                nullable: false,
                stats: Default::default(),
                histogram: None,
            })
            .collect();
        let rows = (0..10)
            .map(|r| {
                (0..ncols)
                    .map(|c| Cell::Text(format!("{}{}", WORDS[(r + c) % WORDS.len()], r + seed as usize)))
                    .collect()
            })
            .collect();
        let t = Table {
            meta: TableMeta {
                id: tid,
                name: format!("{}_{i}", WORDS[seed as usize % WORDS.len()]),
                comment: None,
                row_count: 10,
            },
            columns,
            rows,
            labels: vec![LabelSet::empty(); ncols],
        };
        ids.push(db.create_table(&t).unwrap());
    }
    (db, ids)
}

fn engine(cfg: TasteConfig) -> TasteEngine {
    let model = Arc::new(Adtd::new(ModelConfig::tiny(), tokenizer(), 4, 9));
    TasteEngine::new(model, cfg).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn random_table_mixes_are_batch_size_and_thread_invariant(
        mix in prop::collection::vec((1usize..=5, 0u8..64), 1..=5),
    ) {
        // Wide uncertainty band: every column takes the full P1 → P2
        // path, so both fused passes and the latent cache are exercised.
        let base = TasteConfig {
            pipelining: true,
            pool_size: 2,
            alpha: 0.0001,
            beta: 0.9999,
            ..Default::default()
        };
        let (db, ids) = mix_db(&mix);
        let reference = engine(base).detect_batch(&db, &ids).unwrap();

        for threads in [1usize, 4] {
            for max in [1usize, 3, 8] {
                let cfg = TasteConfig {
                    execution: ExecutionConfig { kernel_threads: threads },
                    batching: BatchingConfig {
                        enabled: true,
                        max_batch_columns: max,
                        ..Default::default()
                    },
                    ..base
                };
                let batched = engine(cfg).detect_batch(&db, &ids).unwrap();
                prop_assert_eq!(reference.tables.len(), batched.tables.len());
                for (a, b) in reference.tables.iter().zip(&batched.tables) {
                    prop_assert_eq!(a.table, b.table);
                    prop_assert_eq!(
                        &a.admitted, &b.admitted,
                        "verdicts diverged at max_batch_columns={} threads={}", max, threads
                    );
                    prop_assert_eq!(a.uncertain_columns, b.uncertain_columns);
                }
                // Identical latent traffic: the batched path populates and
                // hits the cache with exactly the per-table keys.
                prop_assert_eq!(reference.cache_hits, batched.cache_hits);
                prop_assert_eq!(reference.cache_misses, batched.cache_misses);
                prop_assert!(batched.batching.enabled);
                prop_assert_eq!(batched.batching.p1.batched_columns, batched.total_columns);
            }
        }
    }
}
