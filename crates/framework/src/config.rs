//! Framework configuration: the knobs of §3.2, §6.1.2, and §6.2, plus
//! the crash-safety hardening knobs (watchdog deadlines, halt points,
//! and seeded fault injection for panic/stall testing).

use crate::overload::OverloadConfig;
use crate::retry::RetryConfig;
use crate::rollout::RolloutConfig;
use serde::{Deserialize, Serialize};
use std::time::Duration;
use taste_core::{Result, TasteError};
use taste_db::ScanMethod;
use taste_model::Inferencer;

/// Execution configuration for the serving path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// Row-parallel kernel width inside each worker's executor. `1` (the
    /// default) keeps kernels single-threaded; higher values split large
    /// matmuls across a shared persistent pool. Threaded kernels are
    /// bit-identical to single-threaded ones, so this knob never changes
    /// detection results.
    #[serde(default = "default_kernel_threads")]
    pub kernel_threads: usize,
}

fn default_kernel_threads() -> usize {
    1
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig { kernel_threads: default_kernel_threads() }
    }
}

impl ExecutionConfig {
    /// Builds a worker-local [`Inferencer`].
    pub fn inferencer(&self) -> Inferencer {
        Inferencer::with_kernel_threads(self.kernel_threads)
    }

    /// Validates the execution invariants.
    pub fn validate(&self) -> Result<()> {
        if self.kernel_threads == 0 {
            return Err(TasteError::invalid("kernel_threads must be positive (1 = single-threaded)"));
        }
        Ok(())
    }
}

/// Cross-table micro-batching for the inference stages (pipelined mode).
///
/// An inference job always serves a list of tables through one executor;
/// batching decides how the scheduler forms that list. With batching
/// enabled, runnable `P1Infer`/`P2Infer` stages queue on a
/// [`crate::batcher::BatchPlanner`], and one job serves a whole
/// micro-batch of columns drawn from many tables in fused, row-stacked
/// forward passes (see [`taste_model::Adtd::encode_meta`]).
/// Disabled, each runnable stage is dispatched at once as a batch of
/// one. The verdicts are bit-identical either way — the knobs below
/// trade latency against batch fill, never results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchingConfig {
    /// Whether the scheduler runs a planner. Off, every inference job
    /// is a batch of one and the report's batching summary stays all
    /// zeros. Ignored (treated as off) in sequential mode, which has no
    /// cross-table concurrency to batch.
    pub enabled: bool,
    /// Flush a phase's queue once this many columns are waiting. A
    /// single table larger than the budget still flushes alone —
    /// oversized batches are split never, delayed never.
    pub max_batch_columns: usize,
    /// Flush a phase's queue once its oldest column has waited this
    /// long, so a trickle of small tables cannot stall behind the size
    /// trigger.
    pub flush_deadline: Duration,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        BatchingConfig {
            enabled: false,
            max_batch_columns: 64,
            flush_deadline: Duration::from_millis(2),
        }
    }
}

impl BatchingConfig {
    /// Validates the batching invariants.
    pub fn validate(&self) -> Result<()> {
        if self.enabled && self.max_batch_columns == 0 {
            return Err(TasteError::invalid("max_batch_columns must be positive when batching is enabled"));
        }
        Ok(())
    }
}

/// Crash-safety configuration for one engine: watchdog deadlines plus
/// deterministic fault-injection points used by the crash/resume tests.
///
/// Deadlines are cooperative: the watchdog flips a per-table cancel
/// token, which stages observe at stage boundaries and inside their
/// row-scan loops. A stage that exceeds its deadline is therefore
/// abandoned at its next cancellation check, never preempted mid-write.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardeningConfig {
    /// Watchdog deadline for any single stage execution; `None` disables
    /// per-stage timeouts. An expired table is reported as
    /// [`taste_core::TableOutcome::TimedOut`] with its P1 verdicts when
    /// Phase 1 already completed.
    pub stage_deadline: Option<Duration>,
    /// Deadline for the whole batch; on expiry every unfinished table is
    /// cancelled and the batch drains cleanly. `None` disables it.
    pub batch_deadline: Option<Duration>,
    /// How often the watchdog thread re-checks the deadlines.
    pub watchdog_poll: Duration,
    /// Crash simulation: after this many tables have reached a journaled
    /// final outcome, cancel the rest of the batch as if the process had
    /// been killed. The crash/resume tests and `repro crash_resume` use
    /// this to die at a seeded mid-batch point.
    pub halt_after_tables: Option<usize>,
    /// Fault injection: panic when the given `(table id, stage index
    /// 0..=3)` starts executing — exercises panic isolation.
    pub panic_at: Option<(u32, u8)>,
    /// Fault injection: stall the given `(table id, stage index 0..=3)`
    /// in a cancellation-aware loop for [`stall_for`](Self::stall_for) —
    /// exercises the watchdog without wall-clock-sized tests.
    pub stall_at: Option<(u32, u8)>,
    /// Duration of an injected stall when it is not cancelled first.
    pub stall_for: Duration,
}

impl Default for HardeningConfig {
    fn default() -> Self {
        HardeningConfig {
            stage_deadline: None,
            batch_deadline: None,
            watchdog_poll: Duration::from_millis(1),
            halt_after_tables: None,
            panic_at: None,
            stall_at: None,
            stall_for: Duration::ZERO,
        }
    }
}

impl HardeningConfig {
    /// Validates the hardening invariants.
    pub fn validate(&self) -> Result<()> {
        if self.watchdog_poll.is_zero() && (self.stage_deadline.is_some() || self.batch_deadline.is_some()) {
            return Err(TasteError::invalid("watchdog poll interval must be positive"));
        }
        if matches!(self.stage_deadline, Some(d) if d.is_zero()) {
            return Err(TasteError::invalid("stage deadline must be positive"));
        }
        if matches!(self.batch_deadline, Some(d) if d.is_zero()) {
            return Err(TasteError::invalid("batch deadline must be positive"));
        }
        for point in [self.panic_at, self.stall_at].into_iter().flatten() {
            if point.1 > 3 {
                return Err(TasteError::invalid(format!(
                    "fault-injection stage index {} out of range 0..=3",
                    point.1
                )));
            }
        }
        Ok(())
    }

    /// Whether any watchdog deadline is configured.
    pub fn needs_watchdog(&self) -> bool {
        self.stage_deadline.is_some() || self.batch_deadline.is_some()
    }
}

/// Table scanning strategy (§6.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScanKind {
    /// Sequential head scan (`first m rows`, the default).
    FirstM,
    /// Seeded random sampling of `m` rows (`TASTE with sampling`).
    Sample {
        /// RNG seed passed to the database's `RAND()`.
        seed: u64,
    },
}

/// Full configuration of a TASTE deployment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TasteConfig {
    /// Lower certainty threshold: `p ≤ α` means "irrelevant".
    pub alpha: f32,
    /// Upper certainty threshold: `p ≥ β` means "admitted".
    pub beta: f32,
    /// Rows retrieved per content scan (`m`, paper default 50).
    pub m: usize,
    /// Non-empty cell values kept per column (`n ≤ m`, paper default 10).
    pub n: usize,
    /// Column split threshold (`l`, paper default 20).
    pub l: usize,
    /// Scan strategy for P2.
    pub scan: ScanKind,
    /// Latent caching (§4.2.2); disabling reproduces *TASTE w/o caching*.
    pub caching: bool,
    /// Pipelined execution (§5); disabling reproduces *TASTE w/o
    /// pipelining* (pure sequential mode).
    pub pipelining: bool,
    /// Compute width: inference workers in TP2 (paper experiment: 2).
    /// The prep pool TP1 waits on the database rather than computing, so
    /// it is not sized by this: it keeps `max(pool_size, 8)` workers, one
    /// connection each, in flight.
    pub pool_size: usize,
    /// Whether histogram metadata features are consumed (*TASTE with
    /// histogram*; requires a model trained with them).
    pub use_histograms: bool,
    /// P2 admission threshold on the content tower's probabilities.
    pub p2_threshold: f32,
    /// Retry / backoff / circuit-breaker policy for database stages.
    #[serde(default)]
    pub retry: RetryConfig,
    /// Crash-safety policy: watchdog deadlines, halt points, and the
    /// panic/stall fault-injection hooks.
    #[serde(default)]
    pub hardening: HardeningConfig,
    /// Serving execution (kernel width).
    #[serde(default)]
    pub execution: ExecutionConfig,
    /// Overload control: bounded admission, deadline-aware load
    /// shedding, AIMD concurrency, and brownout. Disabled by default.
    #[serde(default)]
    pub overload: OverloadConfig,
    /// Cross-table micro-batched inference dispatch (pipelined mode).
    /// Disabled by default.
    #[serde(default)]
    pub batching: BatchingConfig,
    /// Hot model reload: versioned canary serving with health-gated
    /// automatic rollback. Disabled by default.
    #[serde(default)]
    pub rollout: RolloutConfig,
}

impl Default for TasteConfig {
    fn default() -> Self {
        TasteConfig {
            alpha: 0.1,
            beta: 0.9,
            m: 50,
            n: 10,
            l: 20,
            scan: ScanKind::FirstM,
            caching: true,
            pipelining: true,
            pool_size: 2,
            use_histograms: false,
            p2_threshold: 0.5,
            retry: RetryConfig::default(),
            hardening: HardeningConfig::default(),
            execution: ExecutionConfig::default(),
            overload: OverloadConfig::default(),
            batching: BatchingConfig::default(),
            rollout: RolloutConfig::default(),
        }
    }
}

impl TasteConfig {
    /// Validates the invariants `0 ≤ α ≤ β ≤ 1`, `n ≤ m`, `l > 0`.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.alpha) || !(0.0..=1.0).contains(&self.beta) {
            return Err(TasteError::invalid(format!(
                "thresholds out of range: alpha={}, beta={}",
                self.alpha, self.beta
            )));
        }
        if self.alpha > self.beta {
            return Err(TasteError::invalid(format!(
                "alpha ({}) must not exceed beta ({})",
                self.alpha, self.beta
            )));
        }
        if self.n > self.m {
            return Err(TasteError::invalid(format!("n ({}) must not exceed m ({})", self.n, self.m)));
        }
        if self.l == 0 {
            return Err(TasteError::invalid("column split threshold l must be positive"));
        }
        if self.m == 0 {
            return Err(TasteError::invalid("row budget m must be positive"));
        }
        if self.pool_size == 0 {
            return Err(TasteError::invalid("pool size must be positive"));
        }
        if !(0.0..=1.0).contains(&self.p2_threshold) {
            return Err(TasteError::invalid("p2 threshold out of range"));
        }
        self.retry.validate()?;
        self.hardening.validate()?;
        self.execution.validate()?;
        self.overload.validate()?;
        self.batching.validate()?;
        self.rollout.validate()?;
        Ok(())
    }

    /// The strict-privacy variant: `α = β = 0.5` disables P2 entirely
    /// (*TASTE without P2*, Table 4) — no uncertain band can exist.
    pub fn without_p2(mut self) -> TasteConfig {
        self.alpha = 0.5;
        self.beta = 0.5;
        self
    }

    /// Whether P2 can ever trigger under this configuration.
    pub fn p2_possible(&self) -> bool {
        self.alpha < self.beta
    }

    /// The database scan method for P2 under this configuration.
    pub fn scan_method(&self) -> ScanMethod {
        match self.scan {
            ScanKind::FirstM => ScanMethod::FirstM { m: self.m },
            ScanKind::Sample { seed } => ScanMethod::SampleM { m: self.m, seed },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = TasteConfig::default();
        assert_eq!(c.alpha, 0.1);
        assert_eq!(c.beta, 0.9);
        assert_eq!(c.m, 50);
        assert_eq!(c.n, 10);
        assert_eq!(c.l, 20);
        assert_eq!(c.pool_size, 2);
        assert!(c.caching && c.pipelining);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_thresholds() {
        let mut c = TasteConfig { alpha: 0.9, beta: 0.1, ..Default::default() };
        assert!(c.validate().is_err());
        c = TasteConfig { alpha: -0.1, ..Default::default() };
        assert!(c.validate().is_err());
        c = TasteConfig { beta: 1.5, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_reading_params() {
        assert!(TasteConfig { n: 100, m: 50, ..Default::default() }.validate().is_err());
        assert!(TasteConfig { l: 0, ..Default::default() }.validate().is_err());
        assert!(TasteConfig { m: 0, n: 0, ..Default::default() }.validate().is_err());
        assert!(TasteConfig { pool_size: 0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn validation_covers_retry_policy() {
        let bad_retry = RetryConfig { max_attempts: 0, ..Default::default() };
        let c = TasteConfig { retry: bad_retry, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_covers_hardening_policy() {
        assert!(HardeningConfig::default().validate().is_ok());
        let zero_poll = HardeningConfig {
            stage_deadline: Some(Duration::from_millis(5)),
            watchdog_poll: Duration::ZERO,
            ..Default::default()
        };
        assert!(TasteConfig { hardening: zero_poll, ..Default::default() }.validate().is_err());
        let zero_deadline = HardeningConfig {
            batch_deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        assert!(zero_deadline.validate().is_err());
        let bad_stage = HardeningConfig { panic_at: Some((0, 4)), ..Default::default() };
        assert!(bad_stage.validate().is_err());
        let ok = HardeningConfig {
            stage_deadline: Some(Duration::from_millis(20)),
            batch_deadline: Some(Duration::from_secs(5)),
            stall_at: Some((1, 2)),
            stall_for: Duration::from_millis(50),
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
        assert!(ok.needs_watchdog());
        assert!(!HardeningConfig::default().needs_watchdog());
    }

    #[test]
    fn without_p2_closes_the_uncertain_band() {
        let c = TasteConfig::default().without_p2();
        assert_eq!(c.alpha, c.beta);
        assert!(!c.p2_possible());
        assert!(c.validate().is_ok());
        assert!(TasteConfig::default().p2_possible());
    }

    #[test]
    fn configs_stored_with_the_removed_backend_knob_still_load() {
        // `execution.backend` is gone; serde skips the unknown key, so a
        // config written by an earlier build (with either value, or with
        // no `execution` block at all) loads as the default.
        let mut obj = serde_json::to_value(TasteConfig::default()).unwrap().as_object().unwrap().clone();
        for stored in [
            Some(r#"{"backend": "TapeFree", "kernel_threads": 1}"#),
            Some(r#"{"backend": "Tape", "kernel_threads": 1}"#),
            None,
        ] {
            match stored {
                Some(json) => obj.insert("execution".into(), serde_json::from_str(json).unwrap()),
                None => obj.remove("execution"),
            };
            let restored: TasteConfig =
                serde_json::from_value(serde_json::Value::Object(obj.clone())).unwrap();
            assert_eq!(restored.execution, ExecutionConfig::default(), "stored: {stored:?}");
            assert!(restored.validate().is_ok());
        }
    }

    #[test]
    fn kernel_threads_default_plumb_and_validate() {
        let c = TasteConfig::default();
        assert_eq!(c.execution.kernel_threads, 1);
        assert_eq!(c.execution.inferencer().kernel_threads(), 1);
        let wide = ExecutionConfig { kernel_threads: 4 };
        assert_eq!(wide.inferencer().kernel_threads(), 4);
        assert!(wide.validate().is_ok());
        // Zero is rejected both directly and through TasteConfig.
        let zero = ExecutionConfig { kernel_threads: 0 };
        assert!(zero.validate().is_err());
        let cfg = TasteConfig { execution: zero, ..Default::default() };
        assert!(cfg.validate().is_err());
        // Configs serialized before the kernel layer existed (no
        // `kernel_threads` key) deserialize to the single-threaded
        // default.
        let legacy = serde_json::to_value(TasteConfig::default()).unwrap();
        let mut obj = legacy.as_object().unwrap().clone();
        let mut exec = obj["execution"].as_object().unwrap().clone();
        exec.remove("kernel_threads");
        obj.insert("execution".into(), serde_json::Value::Object(exec));
        let restored: TasteConfig =
            serde_json::from_value(serde_json::Value::Object(obj)).unwrap();
        assert_eq!(restored.execution.kernel_threads, 1);
    }

    #[test]
    fn overload_defaults_off_and_validates_when_enabled() {
        let c = TasteConfig::default();
        assert!(!c.overload.enabled);
        assert!(c.validate().is_ok());
        let bad = TasteConfig {
            overload: OverloadConfig { enabled: true, max_in_flight: 0, ..Default::default() },
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        // Configs serialized before the overload subsystem deserialize to
        // the disabled default.
        let legacy = serde_json::to_value(TasteConfig::default()).unwrap();
        let mut obj = legacy.as_object().unwrap().clone();
        obj.remove("overload");
        let restored: TasteConfig =
            serde_json::from_value(serde_json::Value::Object(obj)).unwrap();
        assert!(!restored.overload.enabled);
        assert_eq!(restored.overload, OverloadConfig::default());
    }

    #[test]
    fn batching_defaults_off_and_validates_when_enabled() {
        let c = TasteConfig::default();
        assert!(!c.batching.enabled);
        assert_eq!(c.batching.max_batch_columns, 64);
        assert!(c.validate().is_ok());
        // A zero column budget is rejected only when batching is on.
        let off = BatchingConfig { max_batch_columns: 0, ..Default::default() };
        assert!(off.validate().is_ok());
        let bad = BatchingConfig { enabled: true, max_batch_columns: 0, ..Default::default() };
        assert!(bad.validate().is_err());
        assert!(TasteConfig { batching: bad, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn batching_config_serde_defaults() {
        // Configs serialized before the batching subsystem deserialize to
        // the disabled default.
        let legacy = serde_json::to_value(TasteConfig::default()).unwrap();
        let mut obj = legacy.as_object().unwrap().clone();
        obj.remove("batching");
        let restored: TasteConfig =
            serde_json::from_value(serde_json::Value::Object(obj)).unwrap();
        assert!(!restored.batching.enabled);
        assert_eq!(restored.batching, BatchingConfig::default());
    }

    #[test]
    fn rollout_defaults_off_and_validates_when_enabled() {
        let c = TasteConfig::default();
        assert!(!c.rollout.enabled);
        assert_eq!(c.rollout.initial_version, 1);
        assert!(c.validate().is_ok());
        // Bad knobs are rejected only when rollout is on.
        let off = RolloutConfig { canary_fraction: 0.0, ..Default::default() };
        assert!(off.validate().is_ok());
        let bad = RolloutConfig { enabled: true, canary_fraction: 0.0, ..Default::default() };
        assert!(bad.validate().is_err());
        assert!(TasteConfig { rollout: bad, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn rollout_config_serde_defaults() {
        // Configs serialized before the rollout subsystem deserialize to
        // the disabled default.
        let legacy = serde_json::to_value(TasteConfig::default()).unwrap();
        let mut obj = legacy.as_object().unwrap().clone();
        obj.remove("rollout");
        let restored: TasteConfig =
            serde_json::from_value(serde_json::Value::Object(obj)).unwrap();
        assert!(!restored.rollout.enabled);
        assert_eq!(restored.rollout, RolloutConfig::default());
    }

    #[test]
    fn scan_method_maps_config() {
        let c = TasteConfig::default();
        assert_eq!(c.scan_method(), ScanMethod::FirstM { m: 50 });
        let s = TasteConfig { scan: ScanKind::Sample { seed: 7 }, ..Default::default() };
        assert_eq!(s.scan_method(), ScanMethod::SampleM { m: 50, seed: 7 });
    }
}
