//! The four per-table stages of the TASTE framework (§3.1).
//!
//! Each phase splits into *data preparation* (S1: database I/O + CPU) and
//! *inference* (S2: model compute). Keeping the stages as free functions
//! lets the engine run them sequentially or interleave them under the
//! Algorithm 1 scheduler without duplicating any logic.

use crate::config::TasteConfig;
use crate::watchdog::CancelToken;
use std::sync::Arc;
use taste_core::{LabelSet, Result, TableId, TasteError, TypeId};
use taste_model::cache::CacheKey;
use taste_model::prepare::{build_chunks, TableChunk};
use taste_model::{Adtd, ContentBatchItem, Inferencer, LatentCache, MetaEncoding};
use taste_db::{CatalogEntry, Connection};
use taste_tokenizer::ColumnContent;

/// Output of the Phase 1 data-preparation stage.
pub struct P1Prep {
    /// Metadata chunks (≤ `l` columns each).
    pub chunks: Vec<TableChunk>,
    /// Total columns in the table.
    pub ncols: usize,
}

/// Output of the Phase 1 inference stage.
#[derive(Clone)]
pub struct P1Infer {
    /// Admitted types per column after P1 (`A_1^c = {s | p ≥ β}`).
    pub admitted: Vec<LabelSet>,
    /// Ordinals of the uncertain columns (`C_u`).
    pub uncertain: Vec<u16>,
    /// Whether the metadata tower emitted any non-finite probability —
    /// the rollout subsystem's sentinel for a numerically broken model
    /// (a NaN compares false against both thresholds, so it would
    /// otherwise silently read as "rejected").
    pub nonfinite: bool,
}

/// The verdicts a table settles on when its P2 work is skipped — by
/// graceful degradation (scan budget exhausted) or by overload shedding:
/// the P1 metadata-only admitted sets, for every column. Shared by both
/// paths so a shed table is byte-identical to a degraded one.
pub fn shed_finals(infer1: &P1Infer) -> Vec<LabelSet> {
    infer1.admitted.clone()
}

/// Output of the Phase 2 data-preparation stage: per chunk, per column,
/// the scanned content (`Some` exactly for uncertain columns).
pub struct P2Prep {
    /// Aligned with the chunk/column layout of [`P1Prep::chunks`].
    pub contents: Vec<Vec<Option<ColumnContent>>>,
}

/// Most tables one catalog read covers. At 16 the amortised round trip
/// per table (0.125 ms under `LatencyProfile::cloud()`) is already below
/// a two-column table's own payload (0.18 ms), while the read that delays
/// a batch's first P1 inference is still ≈ 6 ms — see DESIGN, "Cloud
/// path". A constant, not a knob: nobody should have to tune it.
const CATALOG_GROUP_CAP: usize = 16;

/// Database waits the prep pool keeps in flight however few cores the
/// host has. A prep stage is a sleep on someone else's database, so its
/// width is a budget on *their* connections, not on our cores; eight is
/// what a polite catalog client takes (DESIGN, "I/O depth", has the
/// sweep). A constant, not a knob: only the overload controller may
/// shrink it, at run time.
const TP1_IO_DEPTH: usize = 8;

/// TP1's width — prep workers, their connections, and the ceiling of the
/// controller's `tp1_limit` / `conn_limit` — for a `pool_size`-wide TP2.
/// The one place the I/O depth and the compute width are combined; never
/// narrower than `pool_size`, so no caller loses overlap it had.
pub(crate) fn tp1_depth(pool_size: usize) -> usize {
    pool_size.max(TP1_IO_DEPTH)
}

thread_local! {
    static GROUP_CAP_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The catalog group cap in force on the calling thread — the one that
/// forms the groups: the scheduler loop, or a sequential caller.
pub(crate) fn catalog_group_cap() -> usize {
    GROUP_CAP_OVERRIDE.get().unwrap_or(CATALOG_GROUP_CAP)
}

/// Test-only hook: runs `f` with catalog groups formed on this thread
/// capped at `cap` tables instead of the constant, so a suite can pin
/// that verdicts do not depend on the grouping.
#[doc(hidden)]
pub fn with_catalog_group_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    let prev = GROUP_CAP_OVERRIDE.replace(Some(cap.max(1)));
    let out = f();
    GROUP_CAP_OVERRIDE.set(prev);
    out
}

/// The catalog entries of `tables`, in order, read in groups of at most
/// the group cap — one round trip per group. For the callers that walk
/// tables one after another (baselines, rules, dataset builders) and so
/// pay the same catalog cost as the engine. A table the catalog does not
/// hold is a not-found error.
pub fn read_catalog(conn: &Connection, tables: &[TableId]) -> Result<Vec<CatalogEntry>> {
    let mut out = Vec::with_capacity(tables.len());
    for group in tables.chunks(catalog_group_cap()) {
        for (row, tid) in conn.fetch_catalog(group)?.into_iter().zip(group) {
            out.push(row.ok_or_else(|| table_not_found(*tid))?);
        }
    }
    Ok(out)
}

/// The error a table id missing from the catalog fails with.
pub(crate) fn table_not_found(tid: TableId) -> TasteError {
    TasteError::not_found(format!("table {}", tid.0))
}

/// P1-S1 for a group of tables: one joined catalog read through the
/// connection, then each table's model chunks. One slot per input table,
/// in order; `None` for a table the catalog does not hold. An error is
/// the read's — it failed for the whole group.
pub fn prep_phase1(conn: &Connection, tables: &[TableId], cfg: &TasteConfig) -> Result<Vec<Option<P1Prep>>> {
    let rows = conn.fetch_catalog(tables)?;
    Ok(rows
        .into_iter()
        .map(|row| {
            row.map(|(meta, columns)| P1Prep {
                chunks: build_chunks(&meta, &columns, cfg.l, cfg.use_histograms),
                ncols: columns.len(),
            })
        })
        .collect())
}

/// P2-S1: scan the uncertain columns' content (only theirs — columns in
/// `C \ C_u` are never read, §3.3) and select the first `n` non-empty
/// values per column.
///
/// The row-selection loop observes `cancel` so a watchdog-abandoned
/// table stops scanning mid-stage instead of running to completion.
pub fn prep_phase2(
    conn: &Connection,
    tid: TableId,
    prep1: &P1Prep,
    uncertain: &[u16],
    cfg: &TasteConfig,
    cancel: &CancelToken,
) -> Result<P2Prep> {
    let mut contents: Vec<Vec<Option<ColumnContent>>> = prep1
        .chunks
        .iter()
        .map(|c| vec![None; c.ordinals.len()])
        .collect();
    if uncertain.is_empty() {
        return Ok(P2Prep { contents });
    }
    let mut ordinals = uncertain.to_vec();
    ordinals.sort_unstable();
    ordinals.dedup();
    cancel.check("prep_phase2 scan")?;
    let rows = conn.scan_columns(tid, &ordinals, cfg.scan_method())?;
    // Where each scanned column's content goes: ordinal → (chunk, slot).
    let mut slots: Vec<Option<(usize, usize)>> = vec![None; prep1.ncols];
    for (chunk_idx, chunk) in prep1.chunks.iter().enumerate() {
        for (j, &o) in chunk.ordinals.iter().enumerate() {
            if let Some(slot) = slots.get_mut(o as usize) {
                slot.get_or_insert((chunk_idx, j));
            }
        }
    }
    // rows are projected in ascending-ordinal order.
    let mut selected: Vec<ColumnContent> = vec![ColumnContent::default(); ordinals.len()];
    for row in &rows {
        cancel.check("prep_phase2 row loop")?;
        for (k, cell) in row.iter().enumerate() {
            let bucket = &mut selected[k].cells;
            if bucket.len() < cfg.n && !cell.is_empty() {
                bucket.push(cell.render());
            }
        }
    }
    for (ordinal, content) in ordinals.iter().zip(selected) {
        if let Some(&Some((chunk_idx, j))) = slots.get(*ordinal as usize) {
            contents[chunk_idx][j] = Some(content);
        }
    }
    Ok(P2Prep { contents })
}

// ---- inference stages ---------------------------------------------------
//
// Both inference stages take a slice of tables: the engine's one executor
// passes a slice of one for a table served alone, many for a group of a
// micro-batch. Results come back in input order and do not depend on how
// tables are grouped into calls —
// row-wise ops are unchanged under row-stacking and attention is
// block-diagonal per sequence — so "one call with N items" equals "N
// calls with one item", cache traffic included. Which model body a call
// runs on is `Inferencer`'s business.

/// One table's input to [`infer_phase1`].
pub struct P1Item<'a> {
    /// The owning table.
    pub tid: TableId,
    /// Its P1 preparation output.
    pub prep: &'a P1Prep,
}

/// P1-S2: metadata-tower inference + threshold classification (§3.2),
/// one [`P1Infer`] per item.
///
/// Under latent caching (`cfg.caching` and a cache supplied), each
/// chunk's encoding is stored under `(tid, chunk_index)` for P2 to reuse;
/// the *w/o caching* variant stores nothing and P2 recomputes.
///
/// Model compute runs on `inf`, the calling worker's long-lived
/// [`Inferencer`].
pub fn infer_phase1(
    model: &Adtd,
    cfg: &TasteConfig,
    items: &[P1Item<'_>],
    cache: Option<&LatentCache>,
    inf: &mut Inferencer,
) -> Vec<P1Infer> {
    let chunk_refs: Vec<&TableChunk> =
        items.iter().flat_map(|it| it.prep.chunks.iter()).collect();
    let encs = inf.encode_meta_batch(model, &chunk_refs);
    let meta_items: Vec<(&MetaEncoding, &[Vec<f32>])> = encs
        .iter()
        .zip(&chunk_refs)
        .map(|(e, c)| (e, c.nonmeta.as_slice()))
        .collect();
    let probs_per_chunk = inf.predict_meta_batch(model, &meta_items);

    let mut encs = encs.into_iter();
    let mut probs_per_chunk = probs_per_chunk.into_iter();
    let mut out = Vec::with_capacity(items.len());
    for it in items {
        let mut admitted = Vec::with_capacity(it.prep.ncols);
        let mut uncertain = Vec::new();
        let mut nonfinite = false;
        for (chunk_idx, chunk) in it.prep.chunks.iter().enumerate() {
            let enc = Arc::new(encs.next().expect("one encoding per chunk"));
            let probs = probs_per_chunk.next().expect("one prob block per chunk");
            for (j, row) in probs.iter().enumerate() {
                let ordinal = chunk.ordinals[j];
                let mut a1 = LabelSet::empty();
                let mut is_uncertain = false;
                for (s, &p) in row.iter().enumerate() {
                    nonfinite |= !p.is_finite();
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
            if cfg.caching {
                if let Some(cache) = cache {
                    let key: CacheKey = (it.tid, chunk_idx as u32);
                    cache.put(key, enc);
                }
            }
        }
        out.push(P1Infer { admitted, uncertain, nonfinite });
    }
    out
}

/// One table's input to [`infer_phase2`].
pub struct P2Item<'a> {
    /// The owning table.
    pub tid: TableId,
    /// Its P1 preparation output.
    pub prep1: &'a P1Prep,
    /// Its P1 inference output.
    pub infer1: &'a P1Infer,
    /// Its P2 preparation output (scanned content).
    pub prep2: &'a P2Prep,
}

/// A chunk with scanned content, staged for the content pass.
struct ActiveChunk {
    item: usize,
    chunk_idx: usize,
    col_base: usize,
    enc: Option<Arc<MetaEncoding>>,
}

/// P2-S2: content-tower inference over the uncertain columns, combining
/// `A^c = A_1^c` for certain columns and `A^c = A_2^c` for uncertain
/// ones (§3.3). Returns each table's final admitted sets per column.
///
/// Every chunk with scanned content costs one cache `get`; misses (the
/// w/o-caching variant, or an eviction under very large batches)
/// recompute the metadata tower.
pub fn infer_phase2(
    model: &Adtd,
    cfg: &TasteConfig,
    items: &[P2Item<'_>],
    cache: Option<&LatentCache>,
    inf: &mut Inferencer,
) -> Vec<Vec<LabelSet>> {
    let mut finals: Vec<Vec<LabelSet>> =
        items.iter().map(|it| it.infer1.admitted.clone()).collect();

    // Stage every chunk that has scanned content with its cached P1
    // encoding, if any.
    let mut actives: Vec<ActiveChunk> = Vec::new();
    for (i, it) in items.iter().enumerate() {
        if it.infer1.uncertain.is_empty() {
            continue;
        }
        let mut col_base = 0usize;
        for (chunk_idx, chunk) in it.prep1.chunks.iter().enumerate() {
            let any = it.prep2.contents[chunk_idx].iter().any(Option::is_some);
            if any {
                let key: CacheKey = (it.tid, chunk_idx as u32);
                let enc = cache.and_then(|c| c.get(&key));
                actives.push(ActiveChunk { item: i, chunk_idx, col_base, enc });
            }
            col_base += chunk.ordinals.len();
        }
    }
    if actives.is_empty() {
        return finals;
    }

    // Recompute the metadata tower for the cache misses.
    let missing: Vec<usize> =
        (0..actives.len()).filter(|&a| actives[a].enc.is_none()).collect();
    if !missing.is_empty() {
        let chunk_refs: Vec<&TableChunk> = missing
            .iter()
            .map(|&a| &items[actives[a].item].prep1.chunks[actives[a].chunk_idx])
            .collect();
        let encs = inf.encode_meta_batch(model, &chunk_refs);
        for (&a, enc) in missing.iter().zip(encs) {
            actives[a].enc = Some(Arc::new(enc));
        }
    }

    // The content pass over every active chunk.
    let content_items: Vec<ContentBatchItem<'_>> = actives
        .iter()
        .map(|a| {
            let it = &items[a.item];
            let chunk = &it.prep1.chunks[a.chunk_idx];
            let enc = a.enc.as_deref().expect("every active chunk has an encoding");
            (enc, it.prep2.contents[a.chunk_idx].as_slice(), chunk.nonmeta.as_slice())
        })
        .collect();
    let probs_per_chunk = inf.predict_content_batch(model, &content_items);

    // Scatter thresholded verdicts back to the owning tables.
    for (a, probs) in actives.iter().zip(probs_per_chunk) {
        for (j, p) in probs.iter().enumerate() {
            if let Some(row) = p {
                let a2 = LabelSet::from_iter(
                    row.iter()
                        .enumerate()
                        .filter(|(_, &p)| p >= cfg.p2_threshold)
                        .map(|(s, _)| TypeId(s as u32)),
                );
                finals[a.item][a.col_base + j] = a2;
            }
        }
    }
    finals
}

#[cfg(test)]
mod tests {
    use super::*;
    use taste_core::{Cell, ColumnId, ColumnMeta, RawType, Table, TableMeta};
    use taste_db::{Database, LatencyProfile};
    use taste_model::ModelConfig;
    use taste_tokenizer::{Tokenizer, VocabBuilder};

    fn tokenizer() -> Tokenizer {
        let mut b = VocabBuilder::new();
        for w in ["users", "city", "num", "text", "int", "demo", "alpha"] {
            b.add_word(w);
            b.add_word(w);
        }
        Tokenizer::new(b.build(100, 1))
    }

    fn model(ntypes: usize) -> Adtd {
        Adtd::new(ModelConfig::tiny(), tokenizer(), ntypes, 1)
    }

    fn inf() -> Inferencer {
        Inferencer::default()
    }

    /// [`prep_phase1`] over one table the catalog holds.
    fn prep1_one(conn: &Connection, tid: TableId, cfg: &TasteConfig) -> P1Prep {
        prep_phase1(conn, &[tid], cfg).unwrap().pop().unwrap().expect("table in catalog")
    }

    /// [`infer_phase1`] over one table.
    fn p1_one(
        m: &Adtd,
        cfg: &TasteConfig,
        tid: TableId,
        prep: &P1Prep,
        cache: Option<&LatentCache>,
    ) -> P1Infer {
        infer_phase1(m, cfg, &[P1Item { tid, prep }], cache, &mut inf()).pop().unwrap()
    }

    /// [`infer_phase2`] over one table.
    fn p2_one(
        m: &Adtd,
        cfg: &TasteConfig,
        item: P2Item<'_>,
        cache: Option<&LatentCache>,
    ) -> Vec<LabelSet> {
        infer_phase2(m, cfg, &[item], cache, &mut inf()).pop().unwrap()
    }

    fn admitted_at(row: &[f32], threshold: f32) -> LabelSet {
        LabelSet::from_iter(
            row.iter().enumerate().filter(|(_, &p)| p >= threshold).map(|(s, _)| TypeId(s as u32)),
        )
    }

    /// Chunk-at-a-time reference for P1-S2: one single-sequence model
    /// call per chunk, thresholds as §3.2 states them.
    fn reference_p1(
        m: &Adtd,
        cfg: &TasteConfig,
        tid: TableId,
        prep: &P1Prep,
        cache: Option<&LatentCache>,
    ) -> P1Infer {
        let mut inf = inf();
        let mut out = P1Infer { admitted: Vec::new(), uncertain: Vec::new(), nonfinite: false };
        for (k, chunk) in prep.chunks.iter().enumerate() {
            let enc = Arc::new(inf.encode_meta(m, chunk));
            let probs = inf.predict_meta(m, &enc, &chunk.nonmeta);
            for (row, &ordinal) in probs.iter().zip(&chunk.ordinals) {
                out.admitted.push(admitted_at(row, cfg.beta));
                if row.iter().any(|&p| p > cfg.alpha && p < cfg.beta) {
                    out.uncertain.push(ordinal);
                }
            }
            if let Some(cache) = cache {
                cache.put((tid, k as u32), enc);
            }
        }
        out
    }

    /// Chunk-at-a-time reference for P2-S2.
    fn reference_p2(
        m: &Adtd,
        cfg: &TasteConfig,
        it: &P2Item<'_>,
        cache: Option<&LatentCache>,
    ) -> Vec<LabelSet> {
        let mut inf = inf();
        let mut finals = it.infer1.admitted.clone();
        let mut base = 0;
        for (k, chunk) in it.prep1.chunks.iter().enumerate() {
            let contents = &it.prep2.contents[k];
            if contents.iter().any(Option::is_some) {
                let enc = cache
                    .and_then(|c| c.get(&(it.tid, k as u32)))
                    .unwrap_or_else(|| Arc::new(inf.encode_meta(m, chunk)));
                let probs = inf.predict_content(m, &enc, contents, &chunk.nonmeta);
                for (j, row) in probs.iter().enumerate() {
                    if let Some(row) = row {
                        finals[base + j] = admitted_at(row, cfg.p2_threshold);
                    }
                }
            }
            base += chunk.ordinals.len();
        }
        finals
    }

    fn assert_same_cache_entries(a: &LatentCache, b: &LatentCache, tid: TableId, nchunks: usize) {
        assert_eq!(a.len(), b.len());
        for chunk_idx in 0..nchunks {
            let key: CacheKey = (tid, chunk_idx as u32);
            let x = a.get(&key).expect("first cache holds this chunk");
            let y = b.get(&key).expect("second cache holds this chunk");
            assert_eq!(x.layer_latents, y.layer_latents, "cache entry {key:?}");
            assert_eq!(x.col_marker_pos, y.col_marker_pos);
        }
    }

    fn db_with_table(ncols: usize) -> (Arc<Database>, TableId) {
        let db = Database::new("d", LatencyProfile::zero());
        let tid = TableId(0);
        let columns: Vec<ColumnMeta> = (0..ncols)
            .map(|i| ColumnMeta {
                id: ColumnId::new(tid, i as u16),
                name: if i % 2 == 0 { "city".into() } else { format!("num{i}") },
                comment: None,
                raw_type: RawType::Text,
                nullable: false,
                stats: Default::default(),
                histogram: None,
            })
            .collect();
        let rows: Vec<Vec<Cell>> = (0..20)
            .map(|r| (0..ncols).map(|c| Cell::Text(format!("alpha{}", r + c))).collect())
            .collect();
        let table = Table {
            meta: TableMeta { id: tid, name: "users_demo".into(), comment: None, row_count: 20 },
            columns,
            rows,
            labels: vec![LabelSet::empty(); ncols],
        };
        let tid = db.create_table(&table).unwrap();
        (db, tid)
    }

    #[test]
    fn prep_phase1_builds_chunks_under_l() {
        let (db, tid) = db_with_table(5);
        let conn = db.connect();
        let cfg = TasteConfig { l: 2, ..Default::default() };
        let prep = prep1_one(&conn, tid, &cfg);
        assert_eq!(prep.ncols, 5);
        assert_eq!(prep.chunks.len(), 3);
    }

    #[test]
    fn prep_phase1_reads_a_group_in_one_query() {
        let (db, tids) = db_with_tables(&[2, 5, 3]);
        let conn = db.connect();
        let cfg = TasteConfig { l: 2, ..Default::default() };
        let solo: Vec<P1Prep> = tids.iter().map(|&tid| prep1_one(&conn, tid, &cfg)).collect();
        let before = db.ledger().snapshot();
        let group = prep_phase1(&conn, &[tids[0], tids[1], TableId(77), tids[2]], &cfg).unwrap();
        assert_eq!(db.ledger().snapshot().since(&before).metadata_queries, 1);
        assert!(group[2].is_none(), "an id the catalog lacks costs its neighbours nothing");
        for (got, want) in group.iter().flatten().zip(&solo) {
            assert_eq!(got.ncols, want.ncols);
            assert_eq!(got.chunks.len(), want.chunks.len());
            for (a, b) in got.chunks.iter().zip(&want.chunks) {
                assert_eq!((&a.ordinals, &a.nonmeta), (&b.ordinals, &b.nonmeta));
            }
        }
    }

    #[test]
    fn tp1_depth_is_where_the_two_widths_meet() {
        use crate::overload::{LoadController, OverloadConfig};
        for pool in 1..=20usize {
            let depth = tp1_depth(pool);
            assert_eq!(depth, pool.max(8), "the I/O depth, and never narrower than pool_size");
            // The depth reaches TP1's limits only; TP2 stays pool_size.
            let c = LoadController::new(OverloadConfig { enabled: true, ..Default::default() }, depth, pool);
            assert_eq!((c.tp1_limit(), c.conn_limit(), c.tp2_limit()), (depth, depth, pool));
        }
    }

    #[test]
    fn read_catalog_groups_by_the_cap_and_names_the_missing_table() {
        let (db, tids) = db_with_tables(&[1; 5]);
        let conn = db.connect();
        let queries = |f: &dyn Fn()| {
            let before = db.ledger().snapshot();
            f();
            db.ledger().snapshot().since(&before).metadata_queries
        };
        assert_eq!(queries(&|| assert_eq!(read_catalog(&conn, &tids).unwrap().len(), 5)), 1);
        assert_eq!(queries(&|| with_catalog_group_cap(2, || drop(read_catalog(&conn, &tids)))), 3);
        let err = read_catalog(&conn, &[tids[0], TableId(77)]).unwrap_err();
        assert_eq!(err, table_not_found(TableId(77)));
    }

    #[test]
    fn infer_phase1_threshold_algebra() {
        let (db, tid) = db_with_table(4);
        let conn = db.connect();
        // With alpha=beta the uncertain band is empty regardless of the
        // (untrained) model's outputs.
        let cfg = TasteConfig::default().without_p2();
        let prep = prep1_one(&conn, tid, &cfg);
        let m = model(5);
        let out = p1_one(&m, &cfg, tid, &prep, None);
        assert!(out.uncertain.is_empty(), "alpha == beta must yield no uncertain columns");
        assert_eq!(out.admitted.len(), 4);

        // With the widest band every column is uncertain for an
        // untrained model (probabilities hover near 0.5).
        let cfg = TasteConfig { alpha: 0.0001, beta: 0.9999, ..Default::default() };
        let out = p1_one(&m, &cfg, tid, &prep, None);
        assert_eq!(out.uncertain.len(), 4);
    }

    #[test]
    fn infer_phase1_populates_cache_when_enabled() {
        let (db, tid) = db_with_table(3);
        let conn = db.connect();
        let cfg = TasteConfig { l: 2, ..Default::default() };
        let prep = prep1_one(&conn, tid, &cfg);
        let m = model(4);
        let cache = LatentCache::new(8);
        let _out = p1_one(&m, &cfg, tid, &prep, Some(&cache));
        assert_eq!(cache.len(), 2, "one entry per chunk");

        let no_cache_cfg = TasteConfig { caching: false, ..cfg };
        let cache2 = LatentCache::new(8);
        let _out2 = p1_one(&m, &no_cache_cfg, tid, &prep, Some(&cache2));
        assert!(cache2.is_empty());
    }

    #[test]
    fn prep_phase2_scans_only_uncertain_columns() {
        let (db, tid) = db_with_table(4);
        let conn = db.connect();
        let cfg = TasteConfig { n: 3, ..Default::default() };
        let prep = prep1_one(&conn, tid, &cfg);
        let before = db.ledger().snapshot();
        let p2 = prep_phase2(&conn, tid, &prep, &[1, 3], &cfg, &CancelToken::new()).unwrap();
        let delta = db.ledger().snapshot().since(&before);
        assert_eq!(delta.columns_scanned, 2);
        let flat: Vec<&Option<ColumnContent>> = p2.contents.iter().flatten().collect();
        assert!(flat[0].is_none() && flat[2].is_none());
        assert_eq!(flat[1].as_ref().unwrap().cells.len(), 3);
        assert_eq!(flat[3].as_ref().unwrap().cells.len(), 3);
    }

    #[test]
    fn prep_phase2_empty_uncertain_is_free() {
        let (db, tid) = db_with_table(3);
        let conn = db.connect();
        let cfg = TasteConfig::default();
        let prep = prep1_one(&conn, tid, &cfg);
        let before = db.ledger().snapshot();
        let p2 = prep_phase2(&conn, tid, &prep, &[], &cfg, &CancelToken::new()).unwrap();
        assert_eq!(db.ledger().snapshot().since(&before).scan_queries, 0);
        assert!(p2.contents.iter().flatten().all(Option::is_none));
    }

    #[test]
    fn prep_phase2_observes_cancellation() {
        use crate::watchdog::CancelReason;
        let (db, tid) = db_with_table(3);
        let conn = db.connect();
        let cfg = TasteConfig::default();
        let prep = prep1_one(&conn, tid, &cfg);
        let token = CancelToken::new();
        token.cancel(CancelReason::StageTimeout);
        let err =
            prep_phase2(&conn, tid, &prep, &[0, 1], &cfg, &token).map(|_| ()).unwrap_err();
        assert!(matches!(err, taste_core::TasteError::Cancelled(_)), "{err:?}");
        // An empty uncertain set short-circuits before the scan and
        // never observes the token.
        assert!(prep_phase2(&conn, tid, &prep, &[], &cfg, &token).is_ok());
    }

    #[test]
    fn infer_phase2_overrides_only_uncertain_columns() {
        let (db, tid) = db_with_table(4);
        let conn = db.connect();
        let cfg = TasteConfig { alpha: 0.0001, beta: 0.9999, ..Default::default() };
        let m = model(4);
        let prep = prep1_one(&conn, tid, &cfg);
        let infer1 = p1_one(&m, &cfg, tid, &prep, None);
        // Only scan columns 0 and 2.
        let p2 = prep_phase2(&conn, tid, &prep, &[0, 2], &cfg, &CancelToken::new()).unwrap();
        let item = P2Item { tid, prep1: &prep, infer1: &infer1, prep2: &p2 };
        let finals = p2_one(&m, &cfg, item, None);
        assert_eq!(finals.len(), 4);
        // Unscanned columns keep their P1 admitted sets.
        assert_eq!(finals[1], infer1.admitted[1]);
        assert_eq!(finals[3], infer1.admitted[3]);
    }

    fn db_with_tables(widths: &[usize]) -> (Arc<Database>, Vec<TableId>) {
        let db = Database::new("d", LatencyProfile::zero());
        let tids = widths
            .iter()
            .enumerate()
            .map(|(k, &ncols)| {
                let tid = TableId(k as u32);
                let columns: Vec<ColumnMeta> = (0..ncols)
                    .map(|i| ColumnMeta {
                        id: ColumnId::new(tid, i as u16),
                        name: if (i + k) % 2 == 0 { "city".into() } else { format!("num{i}") },
                        comment: None,
                        raw_type: RawType::Text,
                        nullable: false,
                        stats: Default::default(),
                        histogram: None,
                    })
                    .collect();
                let rows: Vec<Vec<Cell>> = (0..12)
                    .map(|r| {
                        (0..ncols).map(|c| Cell::Text(format!("alpha{}", r + c + k))).collect()
                    })
                    .collect();
                let table = Table {
                    meta: TableMeta {
                        id: tid,
                        name: format!("users_demo{k}"),
                        comment: None,
                        row_count: 12,
                    },
                    columns,
                    rows,
                    labels: vec![LabelSet::empty(); ncols],
                };
                db.create_table(&table).unwrap()
            })
            .collect();
        (db, tids)
    }

    #[test]
    fn p1_one_call_with_n_items_equals_n_calls_with_one_item() {
        let (db, tids) = db_with_tables(&[1, 3, 2, 5]);
        let conn = db.connect();
        let cfg = TasteConfig { alpha: 0.0001, beta: 0.9999, l: 2, ..Default::default() };
        let m = model(4);
        let preps: Vec<P1Prep> =
            tids.iter().map(|&tid| prep1_one(&conn, tid, &cfg)).collect();

        let solo_cache = LatentCache::new(64);
        let solo: Vec<P1Infer> = tids
            .iter()
            .zip(&preps)
            .map(|(&tid, p)| p1_one(&m, &cfg, tid, p, Some(&solo_cache)))
            .collect();

        let many_cache = LatentCache::new(64);
        let items: Vec<P1Item> =
            tids.iter().zip(&preps).map(|(&tid, prep)| P1Item { tid, prep }).collect();
        let many = infer_phase1(&m, &cfg, &items, Some(&many_cache), &mut inf());

        assert_eq!(many.len(), solo.len());
        for (b, s) in many.iter().zip(&solo) {
            assert_eq!(b.admitted, s.admitted);
            assert_eq!(b.uncertain, s.uncertain);
        }
        // Same keys, same cached bytes.
        for (&tid, prep) in tids.iter().zip(&preps) {
            assert_same_cache_entries(&solo_cache, &many_cache, tid, prep.chunks.len());
        }
    }

    #[test]
    fn p2_one_call_with_n_items_equals_n_calls_with_one_item() {
        let (db, tids) = db_with_tables(&[2, 4, 1]);
        let conn = db.connect();
        let cfg = TasteConfig { alpha: 0.0001, beta: 0.9999, l: 2, ..Default::default() };
        let m = model(4);
        for use_cache in [true, false] {
            let preps: Vec<P1Prep> =
                tids.iter().map(|&tid| prep1_one(&conn, tid, &cfg)).collect();
            // Two caches filled identically, so both sides see the same
            // hits and their counters can be compared afterwards.
            let caches = [(); 2].map(|_| use_cache.then(|| LatentCache::new(64)));
            let items1: Vec<P1Item> =
                tids.iter().zip(&preps).map(|(&tid, prep)| P1Item { tid, prep }).collect();
            let mut infer1s = infer_phase1(&m, &cfg, &items1, caches[0].as_ref(), &mut inf());
            infer_phase1(&m, &cfg, &items1, caches[1].as_ref(), &mut inf());
            // One table rides along with no uncertain columns at all.
            infer1s[2].uncertain.clear();
            let p2s: Vec<P2Prep> = tids
                .iter()
                .zip(&preps)
                .zip(&infer1s)
                .map(|((&tid, p), i1)| {
                    prep_phase2(&conn, tid, p, &i1.uncertain, &cfg, &CancelToken::new()).unwrap()
                })
                .collect();
            let item = |k: usize| P2Item {
                tid: tids[k],
                prep1: &preps[k],
                infer1: &infer1s[k],
                prep2: &p2s[k],
            };

            let solo: Vec<Vec<LabelSet>> =
                (0..tids.len()).map(|k| p2_one(&m, &cfg, item(k), caches[0].as_ref())).collect();
            let items: Vec<P2Item> = (0..tids.len()).map(item).collect();
            let many = infer_phase2(&m, &cfg, &items, caches[1].as_ref(), &mut inf());
            assert_eq!(many, solo, "use_cache={use_cache}");
            assert_eq!(
                caches[0].as_ref().map(LatentCache::stats),
                caches[1].as_ref().map(LatentCache::stats),
                "hit/miss counts"
            );
        }
    }

    #[test]
    fn wide_table_one_item_call_matches_chunk_at_a_time_reference() {
        // A table wider than `l` hands its chunks to the model together;
        // the single-sequence calls of the reference see them one by one.
        let l = 3;
        let (db, tid) = db_with_table(2 * l + 3);
        let conn = db.connect();
        let cfg = TasteConfig { alpha: 0.0001, beta: 0.9999, l, ..Default::default() };
        let m = model(4);
        let prep = prep1_one(&conn, tid, &cfg);
        assert_eq!(prep.chunks.len(), 3);
        for use_cache in [true, false] {
            let ref_cache = use_cache.then(|| LatentCache::new(8));
            let cache = use_cache.then(|| LatentCache::new(8));

            let want1 = reference_p1(&m, &cfg, tid, &prep, ref_cache.as_ref());
            let got1 = p1_one(&m, &cfg, tid, &prep, cache.as_ref());
            assert_eq!(got1.admitted, want1.admitted);
            assert_eq!(got1.uncertain, want1.uncertain);
            assert_eq!(got1.uncertain.len(), 2 * l + 3, "every chunk reaches P2");
            if let (Some(a), Some(b)) = (&ref_cache, &cache) {
                assert_same_cache_entries(a, b, tid, prep.chunks.len());
            }

            let p2 =
                prep_phase2(&conn, tid, &prep, &got1.uncertain, &cfg, &CancelToken::new()).unwrap();
            let item = P2Item { tid, prep1: &prep, infer1: &got1, prep2: &p2 };
            let want = reference_p2(&m, &cfg, &item, ref_cache.as_ref());
            let got = p2_one(&m, &cfg, item, cache.as_ref());
            assert_eq!(got, want, "use_cache={use_cache}");
            assert_eq!(
                ref_cache.as_ref().map(LatentCache::stats),
                cache.as_ref().map(LatentCache::stats),
                "hit/miss counts"
            );
        }
    }

    #[test]
    fn infer_phase2_with_cache_equals_recompute() {
        let (db, tid) = db_with_table(3);
        let conn = db.connect();
        let cfg = TasteConfig { alpha: 0.0001, beta: 0.9999, l: 2, ..Default::default() };
        let m = model(4);
        let prep = prep1_one(&conn, tid, &cfg);
        let cache = LatentCache::new(8);
        let infer1 = p1_one(&m, &cfg, tid, &prep, Some(&cache));
        let p2 = prep_phase2(&conn, tid, &prep, &infer1.uncertain, &cfg, &CancelToken::new()).unwrap();
        let item = P2Item { tid, prep1: &prep, infer1: &infer1, prep2: &p2 };
        let cached = p2_one(&m, &cfg, item, Some(&cache));

        let nc_cfg = TasteConfig { caching: false, ..cfg };
        let infer1_nc = p1_one(&m, &nc_cfg, tid, &prep, None);
        let item_nc = P2Item { tid, prep1: &prep, infer1: &infer1_nc, prep2: &p2 };
        let recomputed = p2_one(&m, &nc_cfg, item_nc, None);
        assert_eq!(cached, recomputed, "caching must not change results");
    }
}
