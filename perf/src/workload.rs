//! The four workloads: what each generates and which engine
//! configuration it runs under.
//!
//! Table counts are frozen here. They were sized once on the 2-core
//! sandbox so that a round (one `detect_batch` over the whole table set)
//! lands where the comments say; changing them changes every number the
//! benchmark reports, so they change only in a benchmark-only PR.

use serde_json::{json, Value};

/// Share of columns sent to Phase 2: the paper's Fig 5 operating point
/// on WikiTable (45.0% of columns scanned).
pub const SCAN_TARGET: f64 = 0.45;

/// Untimed rounds before the clock starts: the first fills the buffer
/// arenas and page cache, the second confirms them warm.
pub const WARMUP_ROUNDS: usize = 2;

/// Which synthetic corpus preset the tables come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `CorpusSpec::synth_wiki`: 2–5 columns, 30–60 rows.
    Wiki,
    /// `CorpusSpec::synth_git`: 6–14 columns, 40–80 rows.
    Git,
}

/// How a round's tables are chosen from the generated pool. Every mode
/// fixes the table and column counts; the stricter ones also fix what
/// else the seed would otherwise move, so that run-to-run spread comes
/// from the program and the host, not from the draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selection {
    /// The first tables of each width. Thresholds are calibrated on
    /// exactly those.
    FirstOfWidth,
    /// Per width, a fixed number of tables with 0, 1, 2, … uncertain
    /// columns (`calibrate::uncertain_quotas`). For narrow tables, where
    /// a table without any uncertain column skips Phase 2 entirely and
    /// how many do so would otherwise vary from seed to seed.
    ByUncertain,
    /// One table per width, chosen among a few candidates so that the
    /// uncertain columns total the scan target exactly and the round's
    /// computed forward FLOPs come closest to `gflop`. For the few wide
    /// tables of the compute-bound workload, whose token counts (and so
    /// cost) otherwise vary by a quarter from seed to seed.
    ByCost {
        /// Forward GFLOP of one round to aim for.
        gflop: f64,
    },
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Corpus preset.
    pub shape: Shape,
    /// Table widths used; every width gets `tables_per_width` tables, so
    /// table and column counts are the same on every seed.
    pub widths: &'static [usize],
    /// Tables per width.
    pub tables_per_width: usize,
    /// `LatencyProfile::cloud()` instead of `zero()`.
    pub cloud: bool,
    /// `ModelConfig::paper()` instead of `small()`.
    pub paper_model: bool,
    /// How the round's tables are chosen from the generated pool.
    pub selection: Selection,
    /// Engine knobs this workload sets, over `TasteConfig::default()`.
    pub overlay: fn() -> Value,
}

fn default_engine() -> Value {
    // The paper's setting: pipelining and caching on, two workers per
    // pool. The workers mostly sleep on modelled RDS waits.
    json!({})
}

fn local_engine() -> Value {
    // One preparation and one inference worker: together the machine's
    // two cores, with single-threaded kernels so nothing oversubscribes.
    json!({"pool_size": 1, "execution": {"kernel_threads": 1}})
}

fn local_batched_engine() -> Value {
    let mut cfg = local_engine();
    crate::overlay::merge(
        &mut cfg,
        &json!({"batching": {
            "enabled": true,
            "max_batch_columns": 64,
            "flush_deadline": {"secs": 0, "nanos": 2_000_000},
        }}),
    );
    cfg
}

const WIKI_WIDTHS: &[usize] = &[2, 3, 4, 5];
const GIT_WIDTHS: &[usize] = &[6, 8, 10, 12, 14];

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "wiki_cloud",
        shape: Shape::Wiki,
        widths: WIKI_WIDTHS,
        tables_per_width: 9,
        cloud: true,
        paper_model: false,
        selection: Selection::ByUncertain,
        overlay: default_engine,
    },
    Workload {
        name: "wiki_local",
        shape: Shape::Wiki,
        widths: WIKI_WIDTHS,
        tables_per_width: 40,
        cloud: false,
        paper_model: false,
        selection: Selection::ByUncertain,
        overlay: local_engine,
    },
    Workload {
        name: "wiki_local_batched",
        shape: Shape::Wiki,
        widths: WIKI_WIDTHS,
        tables_per_width: 40,
        cloud: false,
        paper_model: false,
        selection: Selection::ByUncertain,
        overlay: local_batched_engine,
    },
    Workload {
        name: "git_local_paper",
        shape: Shape::Git,
        widths: GIT_WIDTHS,
        tables_per_width: 1,
        cloud: false,
        paper_model: true,
        selection: Selection::ByCost { gflop: 12.9 },
        overlay: local_engine,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The smoke-test variant: about six tables, small encoder only, so
    /// a debug build gets through every code path in a few seconds.
    pub fn smoke(&self) -> Workload {
        Workload {
            widths: &self.widths[..3],
            tables_per_width: 2,
            paper_model: false,
            selection: Selection::FirstOfWidth,
            ..*self
        }
    }

    /// Tables in one round.
    pub fn table_count(&self) -> usize {
        self.widths.len() * self.tables_per_width
    }

    /// Columns in one round.
    pub fn column_count(&self) -> usize {
        self.widths.iter().sum::<usize>() * self.tables_per_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_overlays_validate() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            crate::overlay::engine_config(&[&(w.overlay)()]).unwrap();
            assert_eq!(Workload::by_name(w.name).unwrap().name, w.name);
            assert!(w.smoke().table_count() <= 6);
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn the_batched_pair_differs_only_in_batching() {
        let plain = crate::overlay::engine_config(&[&local_engine()]).unwrap();
        let batched = crate::overlay::engine_config(&[&local_batched_engine()]).unwrap();
        assert!(!plain.batching.enabled && batched.batching.enabled);
        assert_eq!(batched.batching.max_batch_columns, 64);
        assert_eq!((plain.pool_size, plain.execution.kernel_threads), (1, 1));
        assert_eq!(
            (batched.pool_size, batched.execution.kernel_threads),
            (1, 1)
        );
    }
}
