//! The traced replay: the paper's four stages assembled in the
//! benchmark's own driver from calls into the lower layers, one table
//! after another on one thread, with a span around every call.
//!
//! It does what `taste_framework::stages` does for one table — fetch
//! metadata, Phase-1 inference and thresholding, scan the uncertain
//! columns, Phase-2 inference — through the layers' public functions
//! only, so each layer's cost is measured where the benchmark can see it.
//! Its final verdicts must equal the engine's.

use crate::flops::chunk_flops;
use crate::setup::Inputs;
use crate::span;
use crate::trace::Recorder;
use std::time::{Duration, Instant};
use taste_core::{LabelSet, TypeId};
use taste_model::prepare::{build_chunks, TableChunk};
use taste_model::MetaEncoding;
use taste_tokenizer::ColumnContent;

/// One chunk as the model saw it: its metadata, and its scanned content
/// when Phase 2 ran on it.
pub struct ChunkIo {
    /// The metadata chunk.
    pub chunk: TableChunk,
    /// Per column, the content Phase 2 was given.
    pub contents: Option<Vec<Option<ColumnContent>>>,
}

/// What one replay produced.
pub struct Replayed {
    /// Wall time from the first call to the last, connect excluded.
    pub wall: Duration,
    /// Final admitted sets per table and column.
    pub verdicts: Vec<Vec<LabelSet>>,
    /// Every chunk's model inputs, for the tokenizer and FLOP accounting.
    pub chunks: Vec<ChunkIo>,
}

/// Replays one round on the zero-latency database.
pub fn replay(inputs: &Inputs, rec: &mut Recorder) -> Result<Replayed, String> {
    let cfg = &inputs.config;
    let model = &*inputs.model;
    let conn = inputs.db_zero.connect();
    let mut inf = cfg.execution.inferencer();
    let mut verdicts = Vec::with_capacity(inputs.tables.len());
    let mut chunks_out = Vec::new();
    let err = |e: taste_core::TasteError| format!("replay: {e}");

    let t0 = Instant::now();
    let root = rec.enter("replay", None);
    for &tid in &inputs.tables {
        let t = Some(tid.0);
        let table_span = rec.enter("table", t);

        let stage = rec.enter("stage.p1_prep", t);
        let meta = span!(rec, "db.fetch_table_meta", t, conn.fetch_table_meta(tid)).map_err(err)?;
        let columns = span!(
            rec,
            "db.fetch_columns_meta",
            t,
            conn.fetch_columns_meta(tid)
        )
        .map_err(err)?;
        let chunks = span!(
            rec,
            "model.prepare.build_chunks",
            t,
            build_chunks(&meta, &columns, cfg.l, cfg.use_histograms)
        );
        rec.exit(stage);

        let stage = rec.enter("stage.p1_infer", t);
        let mut admitted: Vec<LabelSet> = Vec::with_capacity(columns.len());
        let mut uncertain: Vec<u16> = Vec::new();
        let mut encodings: Vec<MetaEncoding> = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            let enc = span!(rec, "model.encode_meta", t, inf.encode_meta(model, chunk));
            let probs = span!(
                rec,
                "model.predict_meta",
                t,
                inf.predict_meta(model, &enc, &chunk.nonmeta)
            );
            for (row, &ordinal) in probs.iter().zip(&chunk.ordinals) {
                let mut a1 = LabelSet::empty();
                let mut is_uncertain = false;
                for (s, &p) in row.iter().enumerate() {
                    if p >= cfg.beta {
                        a1.insert(TypeId(s as u32));
                    } else if p > cfg.alpha {
                        is_uncertain = true;
                    }
                }
                admitted.push(a1);
                if is_uncertain && cfg.p2_possible() {
                    uncertain.push(ordinal);
                }
            }
            encodings.push(enc);
        }
        rec.exit(stage);

        let mut contents: Vec<Vec<Option<ColumnContent>>> = chunks
            .iter()
            .map(|c| vec![None; c.ordinals.len()])
            .collect();
        if !uncertain.is_empty() {
            let stage = rec.enter("stage.p2_prep", t);
            uncertain.sort_unstable();
            let rows = span!(
                rec,
                "db.scan_columns",
                t,
                conn.scan_columns(tid, &uncertain, cfg.scan_method())
            )
            .map_err(err)?;
            let mut selected = vec![ColumnContent::default(); uncertain.len()];
            for row in &rows {
                for (bucket, cell) in selected.iter_mut().zip(row) {
                    if bucket.cells.len() < cfg.n && !cell.is_empty() {
                        bucket.cells.push(cell.render());
                    }
                }
            }
            for (content, ordinal) in selected.into_iter().zip(&uncertain) {
                for (slots, chunk) in contents.iter_mut().zip(&chunks) {
                    if let Some(j) = chunk.ordinals.iter().position(|o| o == ordinal) {
                        slots[j] = Some(content);
                        break;
                    }
                }
            }
            rec.exit(stage);

            let stage = rec.enter("stage.p2_infer", t);
            let mut col_base = 0;
            for ((chunk, slots), enc) in chunks.iter().zip(&contents).zip(&encodings) {
                if slots.iter().any(Option::is_some) {
                    let probs = span!(
                        rec,
                        "model.predict_content",
                        t,
                        inf.predict_content(model, enc, slots, &chunk.nonmeta)
                    );
                    for (j, row) in probs.iter().enumerate() {
                        if let Some(row) = row {
                            admitted[col_base + j] = LabelSet::from_iter(
                                row.iter()
                                    .enumerate()
                                    .filter(|(_, &p)| p >= cfg.p2_threshold)
                                    .map(|(s, _)| TypeId(s as u32)),
                            );
                        }
                    }
                }
                col_base += chunk.ordinals.len();
            }
            rec.exit(stage);
        }
        rec.exit(table_span);

        verdicts.push(admitted);
        for (chunk, slots) in chunks.into_iter().zip(contents) {
            let scanned = slots.iter().any(Option::is_some);
            chunks_out.push(ChunkIo {
                chunk,
                contents: scanned.then_some(slots),
            });
        }
    }
    rec.exit(root);
    Ok(Replayed {
        wall: t0.elapsed(),
        verdicts,
        chunks: chunks_out,
    })
}

/// Token counts and computed forward FLOPs of one round, plus the
/// tokenizer's own time, from packing every chunk once more outside the
/// replay's clock.
pub struct TokenProbe {
    /// Metadata-tower tokens over all chunks.
    pub meta_tokens: u64,
    /// Content-tower tokens over all scanned chunks.
    pub content_tokens: u64,
    /// Seconds in `Adtd::pack_meta`.
    pub pack_meta_s: f64,
    /// Seconds in `Adtd::pack_content`.
    pub pack_content_s: f64,
    /// Forward-pass floating-point operations, computed from tensor
    /// shapes (matmuls and attention only), not measured.
    pub forward_flops: f64,
}

/// Packs every chunk of a replay again, under spans, and derives the
/// round's token counts and forward FLOPs.
pub fn token_probe(inputs: &Inputs, replayed: &Replayed, rec: &mut Recorder) -> TokenProbe {
    let model = &*inputs.model;
    let mut probe = TokenProbe {
        meta_tokens: 0,
        content_tokens: 0,
        pack_meta_s: 0.0,
        pack_content_s: 0.0,
        forward_flops: 0.0,
    };
    let root = rec.enter("probe.tokenizer", None);
    for io in &replayed.chunks {
        let t0 = Instant::now();
        let packed = span!(rec, "tokenizer.pack_meta", None, model.pack_meta(&io.chunk));
        probe.pack_meta_s += t0.elapsed().as_secs_f64();
        probe.meta_tokens += packed.tokens.len() as u64;
        let content = io.contents.as_ref().map(|contents| {
            let t0 = Instant::now();
            let packed = span!(
                rec,
                "tokenizer.pack_content",
                None,
                model.pack_content(contents)
            );
            probe.pack_content_s += t0.elapsed().as_secs_f64();
            probe.content_tokens += packed.tokens.len() as u64;
            (
                packed.tokens.len(),
                packed.val_marker_pos.iter().flatten().count(),
            )
        });
        let feat = io.chunk.nonmeta.first().map_or(0, Vec::len);
        probe.forward_flops += chunk_flops(
            model,
            feat,
            packed.tokens.len(),
            io.chunk.ordinals.len(),
            content,
        );
    }
    rec.exit(root);
    probe
}
