//! Set-up: everything a workload needs before the clock starts.
//!
//! From the seed alone: a generated corpus, a tokenizer built from it, a
//! seed-initialised *untrained* model, the user database, thresholds
//! calibrated so a fixed share of columns goes to Phase 2, and the
//! reference verdicts every timed round is checked against.
//!
//! No training: it would make the workload depend on the program's own
//! training code, takes minutes, and is impossible at paper scale. The
//! forward-pass work per column does not depend on the weights; what a
//! trained model contributes to performance is *which* columns go to
//! Phase 2, and calibration sets that directly.

use crate::calibrate::{alpha_for_count, uncertain_quotas};
use crate::flops::chunk_flops;
use crate::overlay::engine_config;
use crate::workload::{Selection, Shape, Workload, SCAN_TARGET};
use serde_json::json;
use std::sync::Arc;
use taste_core::checksum::crc32c;
use taste_core::{LabelSet, Table, TableId, TableOutcome};
use taste_data::{Corpus, CorpusSpec};
use taste_db::{Database, LatencyProfile};
use taste_framework::{DetectionReport, TasteConfig, TasteEngine};
use taste_model::prepare::{build_chunks, select_cells, TableChunk};
use taste_model::{Adtd, Inferencer, ModelConfig};
use taste_tokenizer::{normalize, ColumnContent, Tokenizer, VocabBuilder};

/// How often the generated pool may double before set-up gives up on
/// filling a table quota.
const MAX_POOL_DOUBLINGS: usize = 4;

/// Tables per width that cost-matched selection chooses among.
const COST_CANDIDATES_PER_WIDTH: usize = 4;

/// A workload's inputs, ready to run.
pub struct Inputs {
    /// The untrained model, shared with every engine built on it.
    pub model: Arc<Adtd>,
    /// The workload's engine configuration with calibrated thresholds.
    pub config: TasteConfig,
    /// The user database under the workload's latency profile.
    pub db: Arc<Database>,
    /// The same tables without modelled latency (the same database when
    /// the workload has none): reference runs and the traced replay.
    pub db_zero: Arc<Database>,
    /// `config` with `pipelining: false`: the reference execution mode.
    pub sequential_config: TasteConfig,
    /// The tables of one round, in database order.
    pub tables: Vec<TableId>,
    /// Columns in one round.
    pub total_columns: usize,
    /// Columns Phase 2 must scan in one round.
    pub scanned_columns: usize,
    /// Tables generated to pick the round's tables from.
    pub pool_tables: usize,
    /// Final admitted sets per table and column, from a sequential,
    /// unbatched engine on the zero-latency database.
    pub reference: Vec<Vec<LabelSet>>,
    /// CRC32C over the reference verdicts.
    pub verdict_digest: u32,
}

fn corpus_spec(shape: Shape, n_tables: usize, seed: u64) -> CorpusSpec {
    match shape {
        Shape::Wiki => CorpusSpec::synth_wiki(n_tables, seed),
        Shape::Git => CorpusSpec::synth_git(n_tables, seed),
    }
}

/// Vocabulary from schema words plus a sample of cell renderings, as
/// the reproduction's experiments build theirs.
fn build_tokenizer(tables: &[Table]) -> Tokenizer {
    let mut b = VocabBuilder::new();
    for table in tables {
        for w in normalize(&table.meta.textual()) {
            b.add_word(&w);
        }
        for col in &table.columns {
            for w in normalize(&col.textual()) {
                b.add_word(&w);
            }
            b.add_word(col.raw_type.token());
        }
        for row in table.rows.iter().take(8) {
            for cell in row {
                for w in normalize(&cell.render()) {
                    b.add_word(&w);
                }
            }
        }
    }
    Tokenizer::new(b.build(4000, 2))
}

fn load(name: &str, latency: LatencyProfile, tables: &[&Table]) -> Result<Arc<Database>, String> {
    let db = Database::new(name, latency);
    for table in tables {
        db.create_table(table)
            .map_err(|e| format!("create_table: {e}"))?;
    }
    db.analyze_all(None).map_err(|e| format!("analyze: {e}"))?;
    Ok(db)
}

/// A table that may enter the round, with what calibration needs to
/// know about it.
struct Candidate<'a> {
    table: &'a Table,
    chunks: Vec<TableChunk>,
    /// Per column, the largest Phase-1 probability.
    pmax: Vec<f32>,
}

/// Runs Phase 1 over every candidate, on the same chunks the engine
/// will build.
fn phase1<'a>(
    model: &Adtd,
    cfg: &TasteConfig,
    tables: &[&'a Table],
) -> Result<Vec<Candidate<'a>>, String> {
    let db = load("candidates", LatencyProfile::zero(), tables)?;
    let conn = db.connect();
    let mut inf = Inferencer::default();
    let mut out = Vec::with_capacity(tables.len());
    for (tid, &table) in db.table_ids().into_iter().zip(tables) {
        let meta = conn.fetch_table_meta(tid).map_err(|e| e.to_string())?;
        let columns = conn.fetch_columns_meta(tid).map_err(|e| e.to_string())?;
        let chunks = build_chunks(&meta, &columns, cfg.l, cfg.use_histograms);
        let mut pmax = Vec::with_capacity(columns.len());
        for chunk in &chunks {
            let enc = inf.encode_meta(model, chunk);
            for row in inf.predict_meta(model, &enc, &chunk.nonmeta) {
                pmax.push(row.into_iter().fold(0.0f32, f32::max));
            }
        }
        out.push(Candidate {
            table,
            chunks,
            pmax,
        });
    }
    Ok(out)
}

impl Candidate<'_> {
    fn uncertain(&self, alpha: f32) -> usize {
        self.pmax.iter().filter(|&&p| p > alpha).count()
    }

    /// Computed forward FLOPs to serve this table when the columns with
    /// `pmax > alpha` go to Phase 2, from the token counts its chunks and
    /// scanned cells pack to.
    fn forward_flops(&self, model: &Adtd, cfg: &TasteConfig, alpha: f32) -> f64 {
        let cells = select_cells(&self.table.rows, self.table.width(), cfg.m, cfg.n);
        let mut flops = 0.0;
        let mut base = 0;
        for chunk in &self.chunks {
            let ncols = chunk.ordinals.len();
            let contents: Vec<Option<ColumnContent>> = (base..base + ncols)
                .map(|c| (self.pmax[c] > alpha).then(|| cells[c].clone()))
                .collect();
            let content = contents.iter().any(Option::is_some).then(|| {
                let packed = model.pack_content(&contents);
                (
                    packed.tokens.len(),
                    packed.val_marker_pos.iter().flatten().count(),
                )
            });
            let feat = chunk.nonmeta.first().map_or(0, Vec::len);
            flops += chunk_flops(
                model,
                feat,
                model.pack_meta(chunk).tokens.len(),
                ncols,
                content,
            );
            base += ncols;
        }
        flops
    }
}

/// The first `per_width` tables of each width in the pool; `None` when
/// the pool has too few of some width.
fn first_of_each_width<'a>(
    pool: &'a [Table],
    w: &Workload,
    per_width: usize,
) -> Option<Vec<&'a Table>> {
    let mut picked = Vec::new();
    for &width in w.widths {
        let of_width: Vec<&Table> = pool
            .iter()
            .filter(|t| t.width() == width)
            .take(per_width)
            .collect();
        if of_width.len() < per_width {
            return None;
        }
        picked.extend(of_width);
    }
    Some(picked)
}

/// The first candidates that fill, per width, the fixed quota of tables
/// with `u` uncertain columns. `None` when some quota cannot be filled.
fn pick_by_uncertain(candidates: &[Candidate<'_>], alpha: f32, w: &Workload) -> Option<Vec<usize>> {
    let mut picked = Vec::new();
    for &width in w.widths {
        let mut quota = uncertain_quotas(width, w.tables_per_width, SCAN_TARGET);
        for (i, c) in candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.table.width() == width)
        {
            let u = c.uncertain(alpha);
            if quota[u] > 0 {
                quota[u] -= 1;
                picked.push(i);
            }
        }
        if quota.iter().any(|&q| q > 0) {
            return None;
        }
    }
    Some(picked)
}

/// One candidate per width such that the uncertain columns total
/// `want_uncertain` and the computed forward FLOPs come closest to
/// `target`. Exhaustive over the (few) candidates per width. `None`
/// when no combination has the wanted uncertain total.
fn pick_by_cost(
    candidates: &[Candidate<'_>],
    cost: &[(usize, f64)],
    w: &Workload,
    want_uncertain: usize,
    target: f64,
) -> Option<Vec<usize>> {
    let per_width: Vec<Vec<usize>> = w
        .widths
        .iter()
        .map(|&width| {
            (0..candidates.len())
                .filter(|&i| candidates[i].table.width() == width)
                .collect()
        })
        .collect();
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut choice = vec![0usize; per_width.len()];
    loop {
        let picked: Vec<usize> = choice
            .iter()
            .zip(&per_width)
            .map(|(&c, options)| options[c])
            .collect();
        let uncertain: usize = picked.iter().map(|&i| cost[i].0).sum();
        let miss = (picked.iter().map(|&i| cost[i].1).sum::<f64>() - target).abs();
        if uncertain == want_uncertain && best.as_ref().is_none_or(|(b, _)| miss < *b) {
            best = Some((miss, picked));
        }
        // Odometer over the per-width options.
        let mut digit = 0;
        loop {
            if digit == choice.len() {
                return best.map(|(_, picked)| picked);
            }
            choice[digit] += 1;
            if choice[digit] < per_width[digit].len() {
                break;
            }
            choice[digit] = 0;
            digit += 1;
        }
    }
}

/// CRC32C over every table's admitted sets, so verdict drift between
/// commits shows as a changed digest.
fn verdict_digest(verdicts: &[Vec<LabelSet>]) -> u32 {
    let mut bytes = Vec::new();
    for table in verdicts {
        bytes.extend_from_slice(&(table.len() as u32).to_le_bytes());
        for set in table {
            bytes.extend_from_slice(&(set.len() as u32).to_le_bytes());
            for ty in set.iter() {
                bytes.extend_from_slice(&ty.0.to_le_bytes());
            }
        }
    }
    crc32c(&bytes)
}

/// Whether every table of a report ran to normal completion.
fn all_completed(report: &DetectionReport) -> bool {
    report
        .tables
        .iter()
        .all(|t| t.outcome == TableOutcome::Completed)
}

/// Builds a workload's inputs from the seed.
pub fn build(w: &Workload, seed: u64) -> Result<Inputs, String> {
    let overlay = (w.overlay)();
    let base = engine_config(&[&overlay])?;
    let model_cfg = if w.paper_model {
        ModelConfig::paper()
    } else {
        ModelConfig::small()
    };
    let n = w.table_count();
    let mut pool_n = match w.selection {
        Selection::ByUncertain => 4 * n + 150,
        Selection::FirstOfWidth => 8 * n,
        Selection::ByCost { .. } => 16 * n,
    };

    for _ in 0..=MAX_POOL_DOUBLINGS {
        let corpus = Corpus::generate(corpus_spec(w.shape, pool_n, seed));
        let tables: Option<Vec<&Table>> = match w.selection {
            Selection::FirstOfWidth => first_of_each_width(&corpus.tables, w, w.tables_per_width),
            Selection::ByCost { .. } => {
                first_of_each_width(&corpus.tables, w, COST_CANDIDATES_PER_WIDTH)
            }
            Selection::ByUncertain => Some(
                corpus
                    .tables
                    .iter()
                    .filter(|t| w.widths.contains(&t.width()))
                    .collect(),
            ),
        };
        let Some(tables) = tables else {
            pool_n *= 2;
            continue;
        };
        let model = Arc::new(Adtd::new(
            model_cfg,
            build_tokenizer(&corpus.tables),
            corpus.ntypes(),
            seed,
        ));

        // Calibrate on the candidates: alpha is the pmax quantile that
        // leaves SCAN_TARGET of their columns uncertain.
        let candidates = phase1(&model, &base, &tables)?;
        let flat: Vec<f32> = candidates
            .iter()
            .flat_map(|c| c.pmax.iter().copied())
            .collect();
        let want = (SCAN_TARGET * flat.len() as f64).round() as usize;
        let (alpha, got) = alpha_for_count(&flat, want);
        if got.abs_diff(want) > 1 {
            return Err(format!(
                "calibration: wanted {want} uncertain columns, ties leave {got}"
            ));
        }

        let picked: Option<Vec<usize>> = match w.selection {
            Selection::FirstOfWidth => Some((0..candidates.len()).collect()),
            Selection::ByUncertain => pick_by_uncertain(&candidates, alpha, w),
            Selection::ByCost { gflop } => {
                let cost: Vec<(usize, f64)> = candidates
                    .iter()
                    .map(|c| (c.uncertain(alpha), c.forward_flops(&model, &base, alpha)))
                    .collect();
                let want_uncertain = (SCAN_TARGET * w.column_count() as f64).round() as usize;
                pick_by_cost(&candidates, &cost, w, want_uncertain, gflop * 1e9)
            }
        };
        let Some(picked) = picked else {
            pool_n *= 2;
            continue;
        };
        let scanned_columns: usize = picked.iter().map(|&i| candidates[i].uncertain(alpha)).sum();
        let tables: Vec<&Table> = picked.iter().map(|&i| candidates[i].table).collect();

        let config = engine_config(&[&overlay, &json!({"alpha": alpha, "beta": 1.0})])?;
        let db_zero = load(w.name, LatencyProfile::zero(), &tables)?;
        let db = if w.cloud {
            load(w.name, LatencyProfile::cloud(), &tables)?
        } else {
            Arc::clone(&db_zero)
        };
        let table_ids = db.table_ids();
        let total_columns: usize = tables.iter().map(|t| t.width()).sum();

        // The parity invariant: sequential, unbatched execution gives
        // the verdicts every other execution mode must reproduce.
        let sequential_config = engine_config(&[
            &overlay,
            &json!({"alpha": alpha, "beta": 1.0, "pipelining": false, "batching": {"enabled": false}}),
        ])?;
        let report = TasteEngine::new(Arc::clone(&model), sequential_config)
            .and_then(|engine| engine.detect_batch(&db_zero, &table_ids))
            .map_err(|e| format!("reference run: {e}"))?;
        if !all_completed(&report) || report.ledger.failed_queries != 0 {
            return Err("reference run: a table did not complete normally".into());
        }
        if report.ledger.columns_scanned != scanned_columns as u64 {
            return Err(format!(
                "reference run scanned {} columns, calibration fixed {scanned_columns}",
                report.ledger.columns_scanned
            ));
        }
        let reference: Vec<Vec<LabelSet>> = report.tables.into_iter().map(|t| t.admitted).collect();
        let verdict_digest = verdict_digest(&reference);
        return Ok(Inputs {
            model,
            config,
            sequential_config,
            db,
            db_zero,
            tables: table_ids,
            total_columns,
            scanned_columns,
            pool_tables: pool_n,
            reference,
            verdict_digest,
        });
    }
    Err(format!(
        "{}: {pool_n} generated tables cannot fill the table quotas",
        w.name
    ))
}
