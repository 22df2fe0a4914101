//! One benchmark run: set-up, then either the timed rounds (end-to-end
//! metrics, tracing off) or the traced run (per-layer metrics).

use crate::host;
use crate::probes::{self, FixedCosts, KernelProbe};
use crate::replay::{self, TokenProbe};
use crate::setup::{self, Inputs};
use crate::stats::{median, nearest_rank, percentile};
use crate::timed::{self, Timed};
use crate::trace::{self, Recorder, Span};
use crate::workload::Workload;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Version of the result-file layout.
pub const SCHEMA_VERSION: u32 = 1;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of timed run.
    pub trace: bool,
    /// Tiny inputs and two rounds: exercises every path in seconds.
    pub smoke: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Samples behind it (1 for counts and computed values).
    pub samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// The result of a run.
pub struct Outcome {
    /// The full record written to `out/`.
    pub record: Value,
    /// The one-line summary the driver reads.
    pub line: Value,
    /// Whether every correctness gate held.
    pub correct: bool,
    /// Metrics, for printing.
    pub metrics: Vec<Metric>,
    /// Spans of the traced replay (traced runs only).
    pub spans: Vec<Span>,
}

/// Where result files go: `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The highest supported tail: the `p`-th percentile when enough
/// samples exist, otherwise the largest sample.
fn tail(values: &[f64], p: f64) -> f64 {
    percentile(values, p).unwrap_or_else(|| values.iter().copied().fold(f64::MIN, f64::max))
}

/// The round time the end-to-end metrics rest on: the 80th percentile.
///
/// Not the median: this host's cores run about a quarter faster for
/// seconds at a time, so a 20 s run's median lands on either level
/// depending on how much of the run the fast spells cover, and spread up
/// to 22% between runs of identical inputs. The slower, sustained level
/// is present in nearly every run; a high percentile reads it, and
/// spread 3-15% (README, "Spread behind the bounds").
fn sustained_round_ms(round_ms: &[f64]) -> f64 {
    nearest_rank(round_ms, 80.0)
}

fn end_to_end(inputs: &Inputs, timed: &Timed, setup_s: &[f64]) -> Vec<Metric> {
    let rounds = timed.round_ms.len();
    let scanned = timed
        .last
        .as_ref()
        .map_or(0, |(ledger, _)| ledger.columns_scanned);
    let batch_ms_p80 = sustained_round_ms(&timed.round_ms);
    vec![
        metric(
            "cols_per_s",
            "col/s",
            inputs.total_columns as f64 / (batch_ms_p80 / 1e3),
            rounds,
        ),
        metric("batch_ms_p80", "ms", batch_ms_p80, rounds),
        metric(
            "scan_ratio",
            "share",
            scanned as f64 / inputs.total_columns as f64,
            rounds,
        ),
        metric("setup_s", "s", median(setup_s), setup_s.len()),
    ]
}

/// Everything the traced run measured besides the timed rounds.
struct Traced {
    /// Per span name: median self time over the traced replays, ns.
    self_ns: BTreeMap<&'static str, f64>,
    replays: usize,
    overhead_share: f64,
    span_coverage: f64,
    tokens: TokenProbe,
    seq_ms: Vec<f64>,
    seq_zero_ms: Vec<f64>,
    fixed: FixedCosts,
    kernels: KernelProbe,
}

/// Whether a span is a call into a lower layer (as opposed to the
/// replay's own stage and table scaffolding).
fn is_layer_call(name: &str) -> bool {
    name.starts_with("db.") || name.starts_with("model.")
}

fn traced_run(
    inputs: &Inputs,
    budget: Duration,
    smoke: bool,
) -> Result<(Traced, Vec<Span>, bool), String> {
    let min_pairs = if smoke { 1 } else { 2 };
    let mut traced_walls = Vec::new();
    let mut plain_walls = Vec::new();
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut coverage = Vec::new();
    let mut verdicts_ok = true;
    let mut last: Option<(Recorder, replay::Replayed)> = None;
    // Warm the replay's own inferencer path once, untimed.
    replay::replay(inputs, &mut Recorder::new(false))?;
    let start = Instant::now();
    while traced_walls.len() < min_pairs || start.elapsed() < budget.mul_f64(0.25) {
        // Alternate which side goes first so drift hits both alike.
        for on in if traced_walls.len() % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        } {
            let mut rec = Recorder::new(on);
            let replayed = replay::replay(inputs, &mut rec)?;
            verdicts_ok &= replayed.verdicts == inputs.reference;
            let wall_ns = replayed.wall.as_nanos() as f64;
            if on {
                traced_walls.push(wall_ns);
                let totals = trace::totals_by_name(rec.spans());
                let covered: u64 = totals
                    .iter()
                    .filter(|(n, _)| is_layer_call(n))
                    .map(|(_, t)| t.0)
                    .sum();
                coverage.push(covered as f64 / wall_ns);
                for (name, (ns, _calls)) in totals {
                    per_name.entry(name).or_default().push(ns as f64);
                }
                last = Some((rec, replayed));
            } else {
                plain_walls.push(wall_ns);
            }
        }
    }
    // The tokenizer probe records into the last replay's recorder, so
    // its spans share that trace's clock.
    let (mut rec, replayed) = last.expect("at least one traced replay");
    let tokens = replay::token_probe(inputs, &replayed, &mut rec);
    let spans = rec.into_spans();

    let seq_runs = if smoke { 1 } else { 2 };
    let seq_ms = probes::sequential_ms(inputs, &inputs.db, budget.mul_f64(0.15), seq_runs)?;
    let shares_db = std::sync::Arc::ptr_eq(&inputs.db, &inputs.db_zero);
    let seq_zero_ms = if shares_db {
        seq_ms.clone()
    } else {
        probes::sequential_ms(inputs, &inputs.db_zero, budget.mul_f64(0.05), seq_runs)?
    };
    let fixed = probes::fixed_costs(inputs, if smoke { 2 } else { 10 })?;
    let feat = replayed
        .chunks
        .first()
        .and_then(|c| c.chunk.nonmeta.first())
        .map_or(0, Vec::len);
    let kernels = probes::kernels(inputs.model.ntypes, feat, smoke);

    let self_ns = per_name
        .into_iter()
        .map(|(name, ns)| (name, median(&ns)))
        .collect();
    let traced = Traced {
        self_ns,
        replays: traced_walls.len(),
        overhead_share: median(&traced_walls) / median(&plain_walls) - 1.0,
        span_coverage: median(&coverage),
        tokens,
        seq_ms,
        seq_zero_ms,
        fixed,
        kernels,
    };
    Ok((traced, spans, verdicts_ok))
}

fn per_layer(inputs: &Inputs, w: &Workload, timed: &Timed, tr: &Traced) -> Vec<Metric> {
    let n = tr.replays;
    let cols = inputs.total_columns as f64;
    let scanned = inputs.scanned_columns.max(1) as f64;
    let tables = inputs.tables.len() as f64;
    let ns = |name: &str| tr.self_ns.get(name).copied().unwrap_or(0.0);
    let sum_ns = |pred: &dyn Fn(&str) -> bool| {
        tr.self_ns
            .iter()
            .filter(|(k, _)| pred(k))
            .map(|(_, ns)| ns)
            .sum::<f64>()
    };

    let forward_ns =
        ns("model.encode_meta") + ns("model.predict_meta") + ns("model.predict_content");
    let kernel_gflops = if w.paper_model {
        tr.kernels.gflops_paper
    } else {
        tr.kernels.gflops_small
    };
    let efficiency = tr.tokens.forward_flops / (forward_ns / 1e9) / (kernel_gflops * 1e9);

    let (ledger, batching) = timed.last.clone().unwrap_or_default();
    let profile = inputs.db.latency();
    // Modelled waits, computed from the latency profile and the round's
    // ledger counts: two metadata queries per table (one over the table
    // row, one over its columns) and one scan per table with uncertain
    // columns. The per-query KiB rounding is taken as half a KiB.
    let wait_s = profile.metadata_query(1).as_secs_f64() * tables
        + (profile.query_rtt.as_secs_f64() * tables + profile.meta_per_column.as_secs_f64() * cols)
        + profile.query_rtt.as_secs_f64() * ledger.scan_queries as f64
        + profile.scan_per_row.as_secs_f64() * ledger.rows_read as f64
        + profile.transfer_per_kib.as_secs_f64()
            * (ledger.bytes_read as f64 / 1024.0 + ledger.scan_queries as f64 / 2.0);

    let batch_p50 = median(&timed.round_ms);
    let seq_ms = median(&tr.seq_ms);
    let layer_calls_ms = sum_ns(&is_layer_call) / 1e6;
    let prep_ms = sum_ns(&|k| {
        k.starts_with("db.") || k == "model.prepare.build_chunks" || k.ends_with("_prep")
    }) / 1e6
        + wait_s * 1e3;
    let infer_ms = (forward_ns + sum_ns(&|k| k.ends_with("_infer"))) / 1e6;
    let rounds = timed.round_ms.len();
    let per_round = |i: usize| timed.flushes[i] as f64 / rounds as f64;

    vec![
        metric(
            "nn.kernels.matmul_packed_gflops_paper",
            "GFLOP/s",
            tr.kernels.gflops_paper,
            7,
        ),
        metric(
            "nn.kernels.matmul_packed_gflops_small",
            "GFLOP/s",
            tr.kernels.gflops_small,
            7,
        ),
        metric("nn.kernels.attn_blocks_us", "us", tr.kernels.attn_us, 7),
        metric(
            "nn.kernels.pack_ms_paper",
            "ms",
            tr.kernels.pack_ms_paper,
            5,
        ),
        metric(
            "nn.flops_per_col",
            "FLOP",
            tr.tokens.forward_flops / cols,
            1,
        ),
        metric(
            "tokenizer.pack_meta_us_per_col",
            "us",
            tr.tokens.pack_meta_s * 1e6 / cols,
            1,
        ),
        metric(
            "tokenizer.pack_content_us_per_col",
            "us",
            tr.tokens.pack_content_s * 1e6 / scanned,
            1,
        ),
        metric(
            "model.meta_tokens_per_col",
            "count",
            tr.tokens.meta_tokens as f64 / cols,
            1,
        ),
        metric(
            "model.content_tokens_per_col",
            "count",
            tr.tokens.content_tokens as f64 / scanned,
            1,
        ),
        metric(
            "model.encode_meta_us_per_col",
            "us",
            ns("model.encode_meta") / 1e3 / cols,
            n,
        ),
        metric(
            "model.predict_meta_us_per_col",
            "us",
            ns("model.predict_meta") / 1e3 / cols,
            n,
        ),
        metric(
            "model.predict_content_us_per_col",
            "us",
            ns("model.predict_content") / 1e3 / scanned,
            n,
        ),
        metric("model.efficiency", "share", efficiency, n),
        metric(
            "model.cache.hit_ratio",
            "share",
            timed.cache_hits as f64 / (timed.cache_hits + timed.cache_misses).max(1) as f64,
            rounds,
        ),
        metric(
            "db.meta_fetch_cpu_us_per_table",
            "us",
            (ns("db.fetch_table_meta") + ns("db.fetch_columns_meta")) / 1e3 / tables,
            n,
        ),
        metric(
            "db.scan_cpu_us_per_col",
            "us",
            ns("db.scan_columns") / 1e3 / scanned,
            n,
        ),
        metric(
            "db.modelled_wait_ms_per_table",
            "ms",
            wait_s * 1e3 / tables,
            1,
        ),
        metric(
            "db.connections_opened",
            "count",
            ledger.connections_opened as f64,
            1,
        ),
        metric(
            "db.metadata_queries",
            "count",
            ledger.metadata_queries as f64,
            1,
        ),
        metric("db.scan_queries", "count", ledger.scan_queries as f64, 1),
        metric(
            "db.columns_scanned",
            "count",
            ledger.columns_scanned as f64,
            1,
        ),
        metric("db.rows_read", "count", ledger.rows_read as f64, 1),
        metric("db.bytes_read", "count", ledger.bytes_read as f64, 1),
        metric("db.failed_queries", "count", timed.failed_queries as f64, 1),
        metric(
            "framework.engine.seq_wall_ms",
            "ms",
            seq_ms,
            tr.seq_ms.len(),
        ),
        metric(
            "framework.engine.seq_overhead_ms",
            "ms",
            median(&tr.seq_zero_ms) - layer_calls_ms,
            tr.seq_zero_ms.len(),
        ),
        metric(
            "framework.engine.pipeline_speedup",
            "ratio",
            seq_ms / batch_p50,
            rounds,
        ),
        metric(
            "framework.engine.pipeline_efficiency",
            "share",
            prep_ms.max(infer_ms) / inputs.config.pool_size as f64 / batch_p50,
            rounds,
        ),
        metric(
            "framework.engine.batch_fixed_ms",
            "ms",
            tr.fixed.batch_fixed_ms,
            tr.fixed.samples,
        ),
        metric(
            "framework.engine.one_table_ms",
            "ms",
            tr.fixed.one_table_ms,
            tr.fixed.samples,
        ),
        metric("framework.engine.batch_ms_p50", "ms", batch_p50, rounds),
        metric(
            "framework.engine.batch_ms_p90",
            "ms",
            tail(&timed.round_ms, 90.0),
            rounds,
        ),
        metric(
            "framework.engine.table_ms_p50",
            "ms",
            median(&timed.table_ms),
            timed.table_ms.len(),
        ),
        metric(
            "framework.engine.table_ms_p99",
            "ms",
            tail(&timed.table_ms, 99.0),
            timed.table_ms.len(),
        ),
        metric(
            "framework.batcher.p1_batches",
            "count",
            per_round(0),
            rounds,
        ),
        metric(
            "framework.batcher.p2_batches",
            "count",
            per_round(1),
            rounds,
        ),
        metric(
            "framework.batcher.p1_mean_fill",
            "share",
            batching.p1.mean_fill,
            1,
        ),
        metric(
            "framework.batcher.p2_mean_fill",
            "share",
            batching.p2.mean_fill,
            1,
        ),
        metric(
            "framework.batcher.size_flushes",
            "count",
            per_round(2),
            rounds,
        ),
        metric(
            "framework.batcher.deadline_flushes",
            "count",
            per_round(3),
            rounds,
        ),
        metric(
            "framework.batcher.drain_flushes",
            "count",
            per_round(4),
            rounds,
        ),
        metric(
            "process.peak_rss_mb",
            "MiB",
            host::peak_rss_mib().unwrap_or(f64::NAN),
            1,
        ),
        metric(
            "process.round_end_rss_mb",
            "MiB",
            median(&timed.rss_mib),
            rounds,
        ),
        metric("trace.overhead_share", "share", tr.overhead_share, n),
        metric("trace.span_coverage", "share", tr.span_coverage, n),
    ]
}

/// Runs one workload once.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let base = Workload::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{}` (have: {})",
            args.workload,
            names.join(", ")
        )
    })?;
    if !host::RELEASE_BUILD && !args.smoke {
        return Err("refusing to time a debug build: build with --release, or pass --smoke".into());
    }
    let w = if args.smoke { base.smoke() } else { *base };

    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut inputs = None;
    for _ in 0..repeats {
        // Free the previous set-up first: two models alive at once would
        // set the process's peak memory, not the workload.
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(setup::build(&w, args.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");

    let budget = Duration::from_secs(args.seconds);
    let (min_rounds, timed_budget) = match (args.smoke, args.trace) {
        (true, _) => (2, Duration::ZERO),
        (false, false) => (3, budget),
        (false, true) => (3, budget.mul_f64(0.35)),
    };
    let timed = timed::run(&inputs, timed_budget, min_rounds)?;
    let mut correct = timed.correct();
    let mut error = timed.first_error.clone();

    let (metrics, spans) = if args.trace {
        let (traced, spans, verdicts_ok) = traced_run(&inputs, budget, args.smoke)?;
        if !verdicts_ok {
            correct = false;
            error.get_or_insert("the traced replay's verdicts differ from the engine's".into());
        }
        (per_layer(&inputs, &w, &timed, &traced), spans)
    } else {
        (end_to_end(&inputs, &timed, &setup_s), Vec::new())
    };

    let mut line_metrics = Map::new();
    let mut record_metrics = Map::new();
    for m in &metrics {
        line_metrics.insert(m.name.to_owned(), json!({"value": m.value, "unit": m.unit}));
        record_metrics.insert(
            m.name.to_owned(),
            json!({"value": m.value, "unit": m.unit, "samples": m.samples}),
        );
    }
    let line = json!({
        "correct": correct,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": Value::Object(line_metrics),
    });
    let record = json!({
        "schema": SCHEMA_VERSION,
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "frozen": {
            "tables": inputs.tables.len(),
            "columns": inputs.total_columns,
            "scanned_columns": inputs.scanned_columns,
            "generated_tables": inputs.pool_tables,
            "warmup_rounds": crate::workload::WARMUP_ROUNDS,
            "rounds": timed.round_ms.len(),
        },
        "host": host::fingerprint(),
        "correct": correct,
        "error": error,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "failed_share": timed.failed as f64 / timed.attempted.max(1) as f64,
        "verdict_digest": format!("{:08x}", inputs.verdict_digest),
        "cols_per_s_mean": timed.cols_per_s_mean(),
        "round_ms": timed.round_ms,
        "round_rss_mib": timed.rss_mib,
        "metrics": Value::Object(record_metrics),
    });
    Ok(Outcome {
        record,
        line,
        correct,
        metrics,
        spans,
    })
}
