//! Overload control: admission, backpressure, load shedding, adaptive
//! concurrency, and brownout for the pipelined engine.
//!
//! PRs 4–5 hardened the engine against *downstream* faults (RDS
//! failures) and *internal* faults (panics, hangs, crashes). This module
//! hardens it against the third failure class: **load**. Without it, the
//! Algorithm 1 scheduler enqueues every table of every batch into an
//! unbounded stage queue, so offered load beyond pool capacity degrades
//! *every* table at once — queueing delay grows without bound until the
//! watchdog starts killing work indiscriminately. With it, overload
//! degrades *some* tables gracefully, in a fixed cheapest-first order:
//!
//! 1. **Bounded admission** — a [`LoadController`] holds an in-flight
//!    table budget (`max_in_flight`) plus a bounded admission queue
//!    (`max_queued`). A batch submits each table through
//!    [`LoadController::offer`]; beyond the combined bound the table is
//!    rejected up front ([`taste_core::TableOutcome::Rejected`], surfaced
//!    to strict callers as the non-retryable
//!    [`taste_core::TasteError::Overloaded`]).
//! 2. **Deadline-aware shedding** — every admitted table is stamped with
//!    an admission time and optional deadline. The controller watches the
//!    time-in-queue of dequeued stages against a target (CoDel-style:
//!    *sustained* standing queue above `queue_target` for `queue_window`
//!    means overload, momentary spikes do not). Under overload the engine
//!    sheds the cheapest work first: P2 stages are dropped so uncertain
//!    columns fall back to their P1 metadata-only verdicts
//!    ([`taste_core::TableOutcome::Shed`]), long before whole tables are
//!    rejected.
//! 3. **Adaptive concurrency** — effective TP1/TP2 parallelism and the
//!    per-database connection budget are tuned by AIMD: +1 worker per
//!    `increase_every` clean stages, multiplicative cut on failure or
//!    overload (at most once per `aimd_window`). The two pools have
//!    different widths — TP2 is `pool_size` wide (compute), TP1 keeps
//!    `max(pool_size, 8)` database waits in flight (I/O depth) — so the
//!    TP1 limit and the connection budget are clamped to
//!    `[min_workers, tp1_depth]` and the TP2 limit to
//!    `[min_workers, pool_size]`. A throttling or degraded RDS therefore
//!    narrows admission automatically instead of piling up retries.
//! 4. **Brownout** — overload sustained for `brownout_after` flips a
//!    sticky state that forces P2 off for new admissions. Every
//!    `brownout_probe_every`-th admission keeps P2 on as a *probe*;
//!    `brownout_exit_probes` consecutive successful probes exit brownout.
//!    All transitions are recorded and rolled into the report's
//!    [`crate::report::OverloadSummary`].
//!
//! Time is passed in explicitly (`now: Instant`) so the controller's
//! decisions are a pure function of the observation schedule — the
//! property tests drive it with synthetic schedules and the engine passes
//! the wall clock.

use crate::report::OverloadSummary;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use taste_core::histogram::Histogram;
use taste_core::{Result, ShedReason, TasteError};

/// Maximum queue-wait samples retained for the report histogram.
const MAX_WAIT_SAMPLES: usize = 8192;

/// Buckets in the queue-wait histogram rolled into the report.
const WAIT_HIST_BUCKETS: usize = 12;

/// Overload-control policy knobs.
///
/// Disabled by default (`enabled: false`): the scheduler loop then runs
/// without a [`LoadController`] — every table is admitted at once, each
/// pool may run its full width of stages, and nothing is shed. All duration
/// knobs are deliberately small — they gate *scheduler* decisions, not
/// database I/O, and the simulated latency profiles operate at
/// millisecond scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Whether the scheduler loop consults a [`LoadController`];
    /// `false` means unbounded admission and fixed pool limits.
    pub enabled: bool,
    /// Tables allowed in the pipeline simultaneously.
    pub max_in_flight: usize,
    /// Tables allowed to wait for admission beyond the in-flight budget;
    /// offers beyond `max_in_flight + max_queued` total occupancy are
    /// rejected.
    pub max_queued: usize,
    /// Per-table completion deadline measured from admission; used by
    /// the deadline-risk shedding signal. `None` disables that signal.
    pub deadline: Option<Duration>,
    /// Target time-in-queue for dispatched stages (CoDel target).
    pub queue_target: Duration,
    /// How long time-in-queue must stay above target before the
    /// controller declares overload (CoDel interval).
    pub queue_window: Duration,
    /// Floor for the AIMD-tuned worker and connection limits.
    pub min_workers: usize,
    /// Clean stages required per +1 additive concurrency increase.
    pub increase_every: u32,
    /// Multiplicative factor applied to the limits on decrease, in
    /// `(0, 1)`.
    pub decrease_ratio: f64,
    /// Minimum spacing between two multiplicative decreases, so one
    /// burst of failures cannot collapse the limits to the floor.
    pub aimd_window: Duration,
    /// Overload sustained this long enters brownout.
    pub brownout_after: Duration,
    /// In brownout, every n-th admission keeps P2 on as an exit probe.
    pub brownout_probe_every: u32,
    /// Consecutive successful probes required to exit brownout.
    pub brownout_exit_probes: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            enabled: false,
            max_in_flight: 8,
            max_queued: 64,
            deadline: None,
            queue_target: Duration::from_millis(5),
            queue_window: Duration::from_millis(20),
            min_workers: 1,
            increase_every: 8,
            decrease_ratio: 0.5,
            aimd_window: Duration::from_millis(10),
            brownout_after: Duration::from_millis(50),
            brownout_probe_every: 4,
            brownout_exit_probes: 2,
        }
    }
}

impl OverloadConfig {
    /// Validates the overload-control invariants.
    pub fn validate(&self) -> Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if self.max_in_flight == 0 {
            return Err(TasteError::invalid("max_in_flight must be positive"));
        }
        if self.min_workers == 0 {
            return Err(TasteError::invalid("min_workers must be positive"));
        }
        if !(self.decrease_ratio > 0.0 && self.decrease_ratio < 1.0) {
            return Err(TasteError::invalid(format!(
                "decrease_ratio must be in (0, 1), got {}",
                self.decrease_ratio
            )));
        }
        if self.increase_every == 0 {
            return Err(TasteError::invalid("increase_every must be positive"));
        }
        if self.queue_target.is_zero() || self.queue_window.is_zero() {
            return Err(TasteError::invalid("queue target and window must be positive"));
        }
        if self.brownout_probe_every == 0 || self.brownout_exit_probes == 0 {
            return Err(TasteError::invalid("brownout probe knobs must be positive"));
        }
        if matches!(self.deadline, Some(d) if d.is_zero()) {
            return Err(TasteError::invalid("per-table deadline must be positive"));
        }
        Ok(())
    }

    /// The combined occupancy bound enforced by admission: tables either
    /// in flight or queued never exceed this.
    pub fn occupancy_bound(&self) -> usize {
        self.max_in_flight + self.max_queued
    }
}

/// The decision attached to one admitted table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Whether P2 may run for this table. `false` only in brownout:
    /// uncertain columns settle on P1 verdicts ([`ShedReason::Brownout`]).
    pub p2_allowed: bool,
    /// Whether this admission is a brownout exit probe; its completion
    /// outcome must be reported back via [`LoadController::complete`].
    pub probe: bool,
}

struct Inner {
    // Occupancy.
    queued: usize,
    in_flight: usize,
    // Accounting.
    submitted: u64,
    admitted: u64,
    rejected: u64,
    shed: u64,
    queue_peak: usize,
    waits_ms: Vec<f64>,
    // CoDel-style overload detection.
    first_above: Option<Instant>,
    overloaded: bool,
    overload_since: Option<Instant>,
    // Brownout state machine.
    brownout: bool,
    brownout_entries: u64,
    brownout_admissions: u64,
    probe_oks: u32,
    transitions: Vec<String>,
    // AIMD concurrency limits.
    tp1_limit: usize,
    tp2_limit: usize,
    conn_limit: usize,
    successes: u32,
    last_decrease: Option<Instant>,
    aimd_increases: u64,
    aimd_decreases: u64,
    // EWMA of observed P2 stage cost, for the deadline-risk projection.
    p2_ewma: Duration,
}

/// The admission gate, shedding signal, and AIMD governor for one batch.
///
/// Thread-safe: the scheduler and the worker pools share one controller
/// behind an internal lock. All time-dependent methods take `now`
/// explicitly so tests can drive deterministic schedules.
pub struct LoadController {
    cfg: OverloadConfig,
    /// Ceiling of `tp1_limit` and `conn_limit`.
    tp1_depth: usize,
    /// Ceiling of `tp2_limit`.
    pool_size: usize,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl LoadController {
    /// Creates a controller for a batch served by a `tp1_depth`-worker
    /// prep pool (one connection each) and a `pool_size`-worker inference
    /// pool. Every limit starts at its pool's width.
    pub fn new(cfg: OverloadConfig, tp1_depth: usize, pool_size: usize) -> LoadController {
        let (tp1_depth, pool_size) = (tp1_depth.max(1), pool_size.max(1));
        LoadController {
            cfg,
            tp1_depth,
            pool_size,
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                queued: 0,
                in_flight: 0,
                submitted: 0,
                admitted: 0,
                rejected: 0,
                shed: 0,
                queue_peak: 0,
                waits_ms: Vec::new(),
                first_above: None,
                overloaded: false,
                overload_since: None,
                brownout: false,
                brownout_entries: 0,
                brownout_admissions: 0,
                probe_oks: 0,
                transitions: Vec::new(),
                tp1_limit: tp1_depth,
                tp2_limit: pool_size,
                conn_limit: tp1_depth,
                successes: 0,
                last_decrease: None,
                aimd_increases: 0,
                aimd_decreases: 0,
                p2_ewma: Duration::ZERO,
            }),
        }
    }

    /// `v` brought into `[floor, ceil]`, the range of a limit whose pool is
    /// `ceil` wide.
    fn bounded(&self, v: usize, ceil: usize) -> usize {
        v.clamp(self.cfg.min_workers.min(ceil), ceil)
    }

    /// Offers one table to the admission gate. Returns `true` when the
    /// table entered the admission queue, `false` when total occupancy
    /// (`in_flight + queued`) is at [`OverloadConfig::occupancy_bound`]
    /// and the table must be rejected.
    pub fn offer(&self) -> bool {
        let mut s = self.inner.lock();
        s.submitted += 1;
        if s.in_flight + s.queued < self.cfg.occupancy_bound() {
            s.queued += 1;
            true
        } else {
            s.rejected += 1;
            false
        }
    }

    /// Promotes the longest-queued table into the in-flight set when a
    /// slot is free. Returns `None` when the queue is empty or the
    /// in-flight budget is full.
    pub fn promote(&self) -> Option<Admission> {
        let mut s = self.inner.lock();
        if s.queued == 0 || s.in_flight >= self.cfg.max_in_flight {
            return None;
        }
        s.queued -= 1;
        s.in_flight += 1;
        s.admitted += 1;
        if s.brownout {
            s.brownout_admissions += 1;
            let probe = s.brownout_admissions.is_multiple_of(u64::from(self.cfg.brownout_probe_every));
            Some(Admission { p2_allowed: probe, probe })
        } else {
            Some(Admission { p2_allowed: true, probe: false })
        }
    }

    /// Records one table leaving the in-flight set. `probe`/`ok` feed the
    /// brownout exit state machine: `brownout_exit_probes` consecutive
    /// successful probes restore normal admissions.
    pub fn complete(&self, probe: bool, ok: bool, now: Instant) {
        let mut s = self.inner.lock();
        s.in_flight = s.in_flight.saturating_sub(1);
        if s.brownout && probe {
            if ok {
                s.probe_oks += 1;
                if s.probe_oks >= self.cfg.brownout_exit_probes {
                    s.brownout = false;
                    s.probe_oks = 0;
                    s.brownout_admissions = 0;
                    s.overloaded = false;
                    s.first_above = None;
                    s.overload_since = None;
                    let t = format!("brownout->normal @{:.1}ms", self.ms_since_epoch(now));
                    s.transitions.push(t);
                }
            } else {
                s.probe_oks = 0;
            }
        }
    }

    /// Feeds one dequeued stage's time-in-queue into the CoDel-style
    /// overload detector and the report histogram.
    ///
    /// A single slow sample does nothing; the controller declares
    /// overload only when waits stay above `queue_target` for a full
    /// `queue_window`, and clears it on the first on-target sample.
    /// Overload sustained for `brownout_after` enters brownout.
    pub fn observe_queue_wait(&self, wait: Duration, now: Instant) {
        let mut s = self.inner.lock();
        if s.waits_ms.len() < MAX_WAIT_SAMPLES {
            let ms = wait.as_secs_f64() * 1000.0;
            s.waits_ms.push(ms);
        }
        if wait > self.cfg.queue_target {
            let first = *s.first_above.get_or_insert(now);
            if now.duration_since(first) >= self.cfg.queue_window && !s.overloaded {
                s.overloaded = true;
                s.overload_since = Some(now);
            }
        } else {
            s.first_above = None;
            s.overloaded = false;
            s.overload_since = None;
        }
        if s.overloaded && !s.brownout {
            if let Some(since) = s.overload_since {
                if now.duration_since(since) >= self.cfg.brownout_after {
                    s.brownout = true;
                    s.brownout_entries += 1;
                    s.brownout_admissions = 0;
                    s.probe_oks = 0;
                    let t = format!("normal->brownout @{:.1}ms", self.ms_since_epoch(now));
                    s.transitions.push(t);
                }
            }
        }
    }

    /// Feeds one finished stage into the AIMD governor. `failed` means
    /// the stage exhausted its fault budget (or hit an open breaker);
    /// that, or standing overload, cuts the limits multiplicatively (at
    /// most once per `aimd_window`). Clean stages grow them additively.
    pub fn observe_stage(&self, service: Duration, failed: bool, is_p2: bool, now: Instant) {
        let mut s = self.inner.lock();
        if is_p2 && !failed {
            // EWMA with 1/4 weight on the newest sample.
            s.p2_ewma = (s.p2_ewma * 3 + service) / 4;
        }
        if failed || s.overloaded {
            let due = match s.last_decrease {
                None => true,
                Some(t) => now.duration_since(t) >= self.cfg.aimd_window,
            };
            if due {
                let cut = |v: usize, ceil: usize| {
                    self.bounded(((v as f64) * self.cfg.decrease_ratio).floor() as usize, ceil)
                };
                s.tp1_limit = cut(s.tp1_limit, self.tp1_depth);
                s.tp2_limit = cut(s.tp2_limit, self.pool_size);
                s.conn_limit = cut(s.conn_limit, self.tp1_depth);
                s.last_decrease = Some(now);
                s.successes = 0;
                s.aimd_decreases += 1;
            }
        } else {
            s.successes += 1;
            if s.successes >= self.cfg.increase_every {
                s.successes = 0;
                s.tp1_limit = (s.tp1_limit + 1).min(self.tp1_depth);
                s.tp2_limit = (s.tp2_limit + 1).min(self.pool_size);
                s.conn_limit = (s.conn_limit + 1).min(self.tp1_depth);
                s.aimd_increases += 1;
            }
        }
    }

    /// Whether (and why) a table's P2 work should be shed *now*, given
    /// its completion deadline. Shedding order is cheapest-first: this is
    /// consulted per table at P2 dispatch, long before admission starts
    /// rejecting whole tables.
    pub fn shed_reason(&self, deadline: Option<Instant>, now: Instant) -> Option<ShedReason> {
        let s = self.inner.lock();
        if s.brownout {
            return Some(ShedReason::Brownout);
        }
        if s.overloaded {
            return Some(ShedReason::QueuePressure);
        }
        if let Some(d) = deadline {
            // Project the P2 cost as twice the observed EWMA (prep +
            // infer); if that cannot fit before the deadline, finishing
            // on time with P1 verdicts beats finishing late.
            let projected = s.p2_ewma * 2;
            if !projected.is_zero() && now + projected > d {
                return Some(ShedReason::DeadlineRisk);
            }
        }
        None
    }

    /// Records a table whose P2 work was shed.
    pub fn record_shed(&self) {
        self.inner.lock().shed += 1;
    }

    /// Tracks the stage-queue depth high-water mark for the report.
    pub fn note_queue_depth(&self, depth: usize) {
        let mut s = self.inner.lock();
        s.queue_peak = s.queue_peak.max(depth);
    }

    /// Current effective TP1 (prep pool) parallelism.
    pub fn tp1_limit(&self) -> usize {
        self.inner.lock().tp1_limit
    }

    /// Current effective TP2 (inference pool) parallelism.
    pub fn tp2_limit(&self) -> usize {
        self.inner.lock().tp2_limit
    }

    /// Current effective per-database connection budget.
    pub fn conn_limit(&self) -> usize {
        self.inner.lock().conn_limit
    }

    /// Tables currently admitted and unfinished.
    pub fn in_flight(&self) -> usize {
        self.inner.lock().in_flight
    }

    /// Tables waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.inner.lock().queued
    }

    /// Whether the controller currently sees a standing queue.
    pub fn is_overloaded(&self) -> bool {
        self.inner.lock().overloaded
    }

    /// Whether brownout mode is active.
    pub fn is_brownout(&self) -> bool {
        self.inner.lock().brownout
    }

    /// Rolls the controller's counters into a report summary.
    pub fn summary(&self) -> OverloadSummary {
        let s = self.inner.lock();
        OverloadSummary {
            enabled: self.cfg.enabled,
            submitted: s.submitted,
            admitted: s.admitted,
            rejected: s.rejected,
            shed_tables: s.shed,
            queue_peak: s.queue_peak as u64,
            queue_wait_hist: Histogram::equal_width(&s.waits_ms, WAIT_HIST_BUCKETS),
            brownout_entries: s.brownout_entries,
            transitions: s.transitions.clone(),
            aimd_increases: s.aimd_increases,
            aimd_decreases: s.aimd_decreases,
            final_tp1_limit: s.tp1_limit as u64,
            final_tp2_limit: s.tp2_limit as u64,
            final_conn_limit: s.conn_limit as u64,
        }
    }

    fn ms_since_epoch(&self, now: Instant) -> f64 {
        now.duration_since(self.epoch).as_secs_f64() * 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_cfg() -> OverloadConfig {
        OverloadConfig { enabled: true, ..OverloadConfig::default() }
    }

    #[test]
    fn default_is_disabled_and_valid() {
        let cfg = OverloadConfig::default();
        assert!(!cfg.enabled);
        assert!(cfg.validate().is_ok());
        assert!(enabled_cfg().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        for bad in [
            OverloadConfig { max_in_flight: 0, ..enabled_cfg() },
            OverloadConfig { min_workers: 0, ..enabled_cfg() },
            OverloadConfig { decrease_ratio: 0.0, ..enabled_cfg() },
            OverloadConfig { decrease_ratio: 1.0, ..enabled_cfg() },
            OverloadConfig { increase_every: 0, ..enabled_cfg() },
            OverloadConfig { queue_target: Duration::ZERO, ..enabled_cfg() },
            OverloadConfig { queue_window: Duration::ZERO, ..enabled_cfg() },
            OverloadConfig { brownout_probe_every: 0, ..enabled_cfg() },
            OverloadConfig { brownout_exit_probes: 0, ..enabled_cfg() },
            OverloadConfig { deadline: Some(Duration::ZERO), ..enabled_cfg() },
        ] {
            assert!(bad.validate().is_err(), "should reject {bad:?}");
        }
        // Disabled configs skip validation: knobs are inert.
        assert!(OverloadConfig { max_in_flight: 0, ..OverloadConfig::default() }.validate().is_ok());
    }

    #[test]
    fn admission_enforces_the_occupancy_bound() {
        let cfg = OverloadConfig { max_in_flight: 2, max_queued: 3, ..enabled_cfg() };
        let c = LoadController::new(cfg, 2, 2);
        // Occupancy bound is 5: the first five offers queue, the rest
        // are rejected.
        for _ in 0..5 {
            assert!(c.offer());
        }
        assert!(!c.offer());
        assert!(!c.offer());
        assert_eq!(c.queued(), 5);
        // Promotion respects the in-flight budget.
        assert!(c.promote().is_some());
        assert!(c.promote().is_some());
        assert!(c.promote().is_none(), "in-flight budget is 2");
        assert_eq!(c.in_flight(), 2);
        assert_eq!(c.queued(), 3);
        // A completion frees one slot — and one queue slot for a new offer.
        c.complete(false, true, Instant::now());
        assert!(c.promote().is_some());
        assert!(c.offer());
        let s = c.summary();
        assert_eq!(s.submitted, 8);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.admitted, 3);
    }

    #[test]
    fn codel_requires_sustained_standing_queue() {
        let c = LoadController::new(enabled_cfg(), 2, 2);
        let t0 = Instant::now();
        let slow = Duration::from_millis(8); // above the 5ms target
        // One slow sample: not overload.
        c.observe_queue_wait(slow, t0);
        assert!(!c.is_overloaded());
        // Slow samples for less than the window: still not overload.
        c.observe_queue_wait(slow, t0 + Duration::from_millis(10));
        assert!(!c.is_overloaded());
        // Sustained past the 20ms window: overload.
        c.observe_queue_wait(slow, t0 + Duration::from_millis(25));
        assert!(c.is_overloaded());
        // One on-target sample clears it.
        c.observe_queue_wait(Duration::from_millis(1), t0 + Duration::from_millis(30));
        assert!(!c.is_overloaded());
        // And the clock restarts from scratch afterwards.
        c.observe_queue_wait(slow, t0 + Duration::from_millis(31));
        assert!(!c.is_overloaded());
    }

    #[test]
    fn sustained_overload_enters_brownout_and_probes_exit() {
        let cfg = OverloadConfig {
            brownout_probe_every: 3,
            brownout_exit_probes: 2,
            ..enabled_cfg()
        };
        let c = LoadController::new(cfg, 2, 2);
        let t0 = Instant::now();
        let slow = Duration::from_millis(9);
        // Drive sustained overload past brownout_after (50ms).
        for ms in [0u64, 21, 40, 60, 75] {
            c.observe_queue_wait(slow, t0 + Duration::from_millis(ms));
        }
        assert!(c.is_brownout());
        let s = c.summary();
        assert_eq!(s.brownout_entries, 1);
        assert!(s.transitions.iter().any(|t| t.starts_with("normal->brownout")));

        // In brownout, admissions shed P2 except every 3rd (the probe).
        for _ in 0..6 {
            assert!(c.offer());
        }
        let mut probes = 0;
        for i in 1..=6 {
            let a = c.promote().unwrap();
            assert_eq!(a.p2_allowed, a.probe, "brownout allows P2 only on probes");
            if a.probe {
                probes += 1;
                assert_eq!(i % 3, 0, "every 3rd admission probes");
            }
        }
        assert_eq!(probes, 2);

        // First probe succeeds, second fails: counter resets, still brown.
        c.complete(true, true, t0 + Duration::from_millis(80));
        c.complete(true, false, t0 + Duration::from_millis(81));
        assert!(c.is_brownout());
        // Two consecutive successful probes exit brownout.
        c.complete(true, true, t0 + Duration::from_millis(90));
        c.complete(true, true, t0 + Duration::from_millis(95));
        assert!(!c.is_brownout());
        assert!(!c.is_overloaded(), "brownout exit clears the overload signal");
        let s = c.summary();
        assert!(s.transitions.iter().any(|t| t.starts_with("brownout->normal")));
        // Post-brownout admissions get P2 back.
        assert!(c.offer());
        let a = c.promote().unwrap();
        assert!(a.p2_allowed && !a.probe);
    }

    #[test]
    fn aimd_limits_stay_clamped_and_move_both_ways() {
        let cfg = OverloadConfig {
            min_workers: 1,
            increase_every: 2,
            decrease_ratio: 0.5,
            aimd_window: Duration::from_millis(10),
            ..enabled_cfg()
        };
        let c = LoadController::new(cfg, 4, 4);
        assert_eq!(c.tp1_limit(), 4);
        let t0 = Instant::now();
        // One failure halves the limits.
        c.observe_stage(Duration::from_millis(1), true, false, t0);
        assert_eq!(c.tp1_limit(), 2);
        assert_eq!(c.tp2_limit(), 2);
        assert_eq!(c.conn_limit(), 2);
        // A second failure inside the window is absorbed (no double cut).
        c.observe_stage(Duration::from_millis(1), true, false, t0 + Duration::from_millis(2));
        assert_eq!(c.tp1_limit(), 2);
        // Outside the window it cuts again, clamped at the floor.
        c.observe_stage(Duration::from_millis(1), true, false, t0 + Duration::from_millis(15));
        assert_eq!(c.tp1_limit(), 1);
        c.observe_stage(Duration::from_millis(1), true, false, t0 + Duration::from_millis(30));
        assert_eq!(c.tp1_limit(), 1, "floor holds");
        // Clean stages grow additively, clamped at pool_size.
        for i in 0..20 {
            c.observe_stage(
                Duration::from_millis(1),
                false,
                false,
                t0 + Duration::from_millis(40 + i),
            );
        }
        assert_eq!(c.tp1_limit(), 4, "ceiling holds");
        let s = c.summary();
        assert_eq!(s.aimd_decreases, 3);
        assert!(s.aimd_increases >= 3);
        assert_eq!(s.final_tp1_limit, 4);
    }

    #[test]
    fn each_limit_is_clamped_to_its_own_pool() {
        // A one-core host: TP2 is one worker, TP1 keeps eight waits in
        // flight. Cuts and growth move all three limits, each inside its
        // own range; the floor of a pool narrower than `min_workers` is
        // the pool.
        let cfg = OverloadConfig { min_workers: 2, increase_every: 1, ..enabled_cfg() };
        let c = LoadController::new(cfg, 8, 1);
        let limits = || (c.tp1_limit(), c.conn_limit(), c.tp2_limit());
        assert_eq!(limits(), (8, 8, 1));
        let t0 = Instant::now();
        let step = |i: u64, failed: bool| {
            c.observe_stage(Duration::from_millis(1), failed, false, t0 + cfg.aimd_window * i as u32);
            limits()
        };
        assert_eq!(step(0, true), (4, 4, 1));
        assert_eq!(step(1, true), (2, 2, 1));
        assert_eq!(step(2, true), (2, 2, 1), "floors: min_workers for TP1, the pool for TP2");
        for i in 3..12 {
            step(i, false);
        }
        assert_eq!(limits(), (8, 8, 1), "ceilings: the depth for TP1, pool_size for TP2");
    }

    #[test]
    fn shed_reason_ranks_brownout_pressure_then_deadline() {
        let c = LoadController::new(enabled_cfg(), 2, 2);
        let t0 = Instant::now();
        // Calm controller, no deadline: nothing to shed.
        assert_eq!(c.shed_reason(None, t0), None);
        // Deadline risk: learn a P2 cost, then offer a deadline too close.
        for _ in 0..8 {
            c.observe_stage(Duration::from_millis(10), false, true, t0);
        }
        let tight = t0 + Duration::from_millis(5);
        assert_eq!(c.shed_reason(Some(tight), t0), Some(ShedReason::DeadlineRisk));
        let roomy = t0 + Duration::from_secs(5);
        assert_eq!(c.shed_reason(Some(roomy), t0), None);
        // Standing queue: queue pressure outranks deadline math.
        let slow = Duration::from_millis(9);
        for ms in [0u64, 21, 25] {
            c.observe_queue_wait(slow, t0 + Duration::from_millis(ms));
        }
        assert_eq!(c.shed_reason(Some(roomy), t0), Some(ShedReason::QueuePressure));
        // Brownout outranks everything.
        for ms in [40u64, 60, 80] {
            c.observe_queue_wait(slow, t0 + Duration::from_millis(ms));
        }
        assert!(c.is_brownout());
        assert_eq!(c.shed_reason(None, t0), Some(ShedReason::Brownout));
    }

    #[test]
    fn summary_accounts_every_offer() {
        let cfg = OverloadConfig { max_in_flight: 1, max_queued: 1, ..enabled_cfg() };
        let c = LoadController::new(cfg, 2, 2);
        assert!(c.offer()); // queued
        assert!(c.offer()); // queued (occupancy 2 = bound)
        assert!(!c.offer()); // rejected
        let _ = c.promote();
        c.record_shed();
        c.note_queue_depth(7);
        c.note_queue_depth(3);
        c.observe_queue_wait(Duration::from_millis(2), Instant::now());
        let s = c.summary();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.shed_tables, 1);
        assert_eq!(s.queue_peak, 7);
        assert!(s.queue_wait_hist.is_some());
        // submitted = admitted + rejected + still queued.
        assert_eq!(s.submitted, s.admitted + s.rejected + c.queued() as u64);
    }
}
