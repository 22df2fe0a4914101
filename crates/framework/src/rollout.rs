//! Health-gated hot model reload: canary serving with automatic
//! rollback (DESIGN §11).
//!
//! The [`RolloutController`] owns the *incumbent* serving model and at
//! most one *candidate* at a time. A swap is epoch-style: every table
//! pins an `Arc`'d [`VersionedModel`] at its first inference stage and
//! finishes on it, so promoting or rolling back mid-run never tears a
//! request — the swap itself is just replacing which `Arc` future pins
//! hand out. Per-worker `Inferencer`s need no notification: their
//! packed-weight caches key on the `ParamStore` `uid` + `version`, so a
//! new model simply misses and repacks.
//!
//! While a candidate is in canary, a configurable fraction of tables
//! routes to it; each canary table also *shadow-scores* the incumbent
//! on the same Phase-1 input (without touching the latent cache) to
//! feed three health gates:
//!
//! 1. **agreement** — the per-column P1 verdict agreement rate between
//!    candidate and incumbent must reach `min_agreement`;
//! 2. **non-finite sentinel** — any non-finite candidate probability
//!    rolls back immediately (the table itself falls back to the
//!    incumbent's shadow verdicts, so no request is harmed);
//! 3. **p99 latency** — the candidate's canary-phase p99 inference
//!    latency must stay within `max_p99_latency_ratio` of the
//!    incumbent's shadow p99.
//!
//! After `min_canary_tables` observations the gates are evaluated once:
//! all green promotes the candidate to incumbent, any red rolls back.
//! Either way the whole episode — versions, gate verdicts, cause — is
//! recorded and surfaced in `DetectionReport.rollout`.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::sync::Mutex;
use taste_core::{Result, TasteError};
use taste_model::registry::{ModelRegistry, VersionedModel};
use taste_model::Adtd;

/// Knobs for the hot-reload subsystem. Disabled by default: the engine
/// then serves its construction-time model forever, exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RolloutConfig {
    /// Master switch; when false every other field is ignored.
    pub enabled: bool,
    /// Version stamped on the engine's construction-time model.
    pub initial_version: u64,
    /// Fraction of tables routed to an in-canary candidate, in (0, 1].
    pub canary_fraction: f64,
    /// Canary observations required before the gates are judged (≥ 1).
    pub min_canary_tables: u64,
    /// Minimum per-column P1 agreement rate vs the incumbent, in [0, 1].
    pub min_agreement: f64,
    /// Maximum allowed candidate-p99 / incumbent-p99 inference-latency
    /// ratio over the canary phase (≥ 1).
    pub max_p99_latency_ratio: f64,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        RolloutConfig {
            enabled: false,
            initial_version: 1,
            canary_fraction: 0.2,
            min_canary_tables: 8,
            min_agreement: 0.9,
            max_p99_latency_ratio: 3.0,
        }
    }
}

impl RolloutConfig {
    /// Validates the knobs; only enforced when `enabled`.
    pub fn validate(&self) -> Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if !(self.canary_fraction > 0.0 && self.canary_fraction <= 1.0) {
            return Err(TasteError::invalid(format!(
                "rollout.canary_fraction must be in (0, 1], got {}",
                self.canary_fraction
            )));
        }
        if self.min_canary_tables == 0 {
            return Err(TasteError::invalid("rollout.min_canary_tables must be >= 1"));
        }
        if !(0.0..=1.0).contains(&self.min_agreement) {
            return Err(TasteError::invalid(format!(
                "rollout.min_agreement must be in [0, 1], got {}",
                self.min_agreement
            )));
        }
        if self.max_p99_latency_ratio < 1.0 {
            return Err(TasteError::invalid(format!(
                "rollout.max_p99_latency_ratio must be >= 1, got {}",
                self.max_p99_latency_ratio
            )));
        }
        Ok(())
    }
}

/// The judged health gates of one canary phase.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GateVerdicts {
    /// Canary tables observed before judgment.
    #[serde(default)]
    pub canary_tables: u64,
    /// Per-column P1 agreement rate vs the incumbent, in [0, 1].
    #[serde(default)]
    pub agreement: f64,
    /// Whether the agreement gate passed.
    #[serde(default)]
    pub agreement_ok: bool,
    /// Non-finite candidate outputs seen (any trip fails the gate).
    #[serde(default)]
    pub sentinel_trips: u64,
    /// Whether the non-finite sentinel gate passed.
    #[serde(default)]
    pub sentinel_ok: bool,
    /// Candidate p99 inference latency over the canary, milliseconds.
    #[serde(default)]
    pub candidate_p99_ms: f64,
    /// Incumbent shadow p99 inference latency, milliseconds.
    #[serde(default)]
    pub incumbent_p99_ms: f64,
    /// Whether the p99 latency gate passed.
    #[serde(default)]
    pub latency_ok: bool,
}

impl GateVerdicts {
    /// Whether every gate passed.
    pub fn all_ok(&self) -> bool {
        self.agreement_ok && self.sentinel_ok && self.latency_ok
    }
}

/// How a rollout episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpisodeOutcome {
    /// The candidate passed its gates and became the incumbent.
    Promoted,
    /// The candidate failed a gate; the incumbent kept serving.
    RolledBack,
}

/// One candidate's full journey: offered → canaried → judged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RolloutEpisode {
    /// The candidate's registry version.
    pub candidate_version: u64,
    /// The incumbent it was judged against.
    pub incumbent_version: u64,
    /// The gate verdicts at judgment time.
    pub gates: GateVerdicts,
    /// Promoted or rolled back.
    pub outcome: EpisodeOutcome,
    /// Human-readable cause when rolled back.
    #[serde(default)]
    pub cause: Option<String>,
}

/// Rollout activity over a detection run, for `DetectionReport.rollout`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RolloutSummary {
    /// Whether the hot-reload subsystem was active.
    #[serde(default)]
    pub enabled: bool,
    /// Version of the model the run started serving.
    #[serde(default)]
    pub initial_version: u64,
    /// Version of the incumbent when the summary was taken.
    #[serde(default)]
    pub final_version: u64,
    /// Candidates accepted into a canary phase.
    #[serde(default)]
    pub candidates_offered: u64,
    /// Artifacts quarantined at load time — corrupt files never served.
    #[serde(default)]
    pub rejected_artifacts: u64,
    /// Candidates promoted to incumbent.
    #[serde(default)]
    pub promotions: u64,
    /// Candidates rolled back by a health gate.
    #[serde(default)]
    pub rollbacks: u64,
    /// Every judged episode, in order.
    #[serde(default)]
    pub episodes: Vec<RolloutEpisode>,
}

/// What one table serves on: the model pinned at its first inference
/// stage. In-flight tables finish on their pin no matter what the
/// controller does meanwhile.
#[derive(Clone)]
pub struct Pinned {
    /// The model every stage of this table runs on.
    pub model: Arc<Adtd>,
    /// Its registry version (0 when rollout is disabled).
    pub version: u64,
    /// Whether this table canaries a candidate.
    pub canary: bool,
    /// The incumbent to shadow-score against (canary tables only).
    pub shadow: Option<VersionedModel>,
}

impl Pinned {
    /// A pin outside the rollout subsystem (rollout disabled).
    pub fn fixed(model: Arc<Adtd>) -> Pinned {
        Pinned { model, version: 0, canary: false, shadow: None }
    }
}

/// One canary table's shadow-scored measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct CanaryObservation {
    /// Columns whose P1 verdicts agreed between candidate and incumbent.
    pub agree_cols: u64,
    /// Columns compared.
    pub total_cols: u64,
    /// Whether the candidate emitted any non-finite probability.
    pub nonfinite: bool,
    /// Candidate P1 inference wall time, milliseconds.
    pub candidate_ms: f64,
    /// Incumbent shadow P1 inference wall time, milliseconds.
    pub incumbent_ms: f64,
}

struct CanaryState {
    candidate: VersionedModel,
    routed: u64,
    observed: u64,
    agree_cols: u64,
    total_cols: u64,
    sentinel_trips: u64,
    candidate_ms: Vec<f64>,
    incumbent_ms: Vec<f64>,
}

struct Inner {
    incumbent: VersionedModel,
    canary: Option<CanaryState>,
    summary: RolloutSummary,
}

/// The serving-side swap coordinator: owns the incumbent, routes canary
/// traffic, scores the gates, and promotes or rolls back. Thread-safe;
/// the engine shares one via `Arc` across all workers and external
/// publishers.
pub struct RolloutController {
    cfg: RolloutConfig,
    inner: Mutex<Inner>,
}

impl RolloutController {
    /// A controller serving `initial` as the incumbent.
    pub fn new(initial: VersionedModel, cfg: RolloutConfig) -> RolloutController {
        let summary = RolloutSummary {
            enabled: cfg.enabled,
            initial_version: initial.version,
            final_version: initial.version,
            ..Default::default()
        };
        RolloutController {
            cfg,
            inner: Mutex::new(Inner { incumbent: initial, canary: None, summary }),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> RolloutConfig {
        self.cfg
    }

    /// The incumbent's version right now.
    pub fn current_version(&self) -> u64 {
        self.lock().incumbent.version
    }

    /// The incumbent model right now (new pins go to it unless a canary
    /// routes them to the candidate).
    pub fn incumbent(&self) -> VersionedModel {
        self.lock().incumbent.clone()
    }

    /// The in-canary candidate's version, if one is being judged.
    pub fn candidate_version(&self) -> Option<u64> {
        self.lock().canary.as_ref().map(|c| c.candidate.version)
    }

    /// Offers a candidate for canary serving. Rejected (returning
    /// `false`) when its version is not strictly newer than the
    /// incumbent's or another candidate is still being judged.
    pub fn offer(&self, candidate: VersionedModel) -> bool {
        let mut inner = self.lock();
        if candidate.version <= inner.incumbent.version || inner.canary.is_some() {
            return false;
        }
        inner.summary.candidates_offered += 1;
        inner.canary = Some(CanaryState {
            candidate,
            routed: 0,
            observed: 0,
            agree_cols: 0,
            total_cols: 0,
            sentinel_trips: 0,
            candidate_ms: Vec::new(),
            incumbent_ms: Vec::new(),
        });
        true
    }

    /// Polls `registry` for the newest intact artifact and offers it
    /// when strictly newer than the incumbent. Files quarantined on the
    /// way are counted as rejected artifacts. Returns whether a new
    /// candidate entered canary.
    ///
    /// # Errors
    /// Propagates registry I/O failures; corrupt artifacts are *not*
    /// errors — they quarantine and fall back, per registry semantics.
    pub fn adopt_latest(&self, registry: &ModelRegistry) -> Result<bool> {
        let outcome = registry.load_latest()?;
        if outcome.quarantined > 0 {
            self.lock().summary.rejected_artifacts += outcome.quarantined;
        }
        Ok(match outcome.loaded {
            Some((_version, candidate)) => self.offer(candidate),
            None => false,
        })
    }

    /// Counts `n` artifacts rejected before they reached the controller.
    pub fn record_rejected_artifacts(&self, n: u64) {
        self.lock().summary.rejected_artifacts += n;
    }

    /// Pins a model for one table. Deterministic counter-based routing:
    /// while a candidate is in canary, every ⌈1/fraction⌉-ish table
    /// (exactly `canary_fraction` of them in the long run) pins the
    /// candidate with the incumbent attached for shadow scoring; all
    /// other tables — and all tables outside a canary phase — pin the
    /// incumbent.
    pub fn pin(&self) -> Pinned {
        let mut inner = self.lock();
        if let Some(canary) = inner.canary.as_mut() {
            let f = self.cfg.canary_fraction;
            let before = (canary.routed as f64 * f).floor();
            canary.routed += 1;
            let after = (canary.routed as f64 * f).floor();
            if after > before {
                let pin = Pinned {
                    model: Arc::clone(&canary.candidate.model),
                    version: canary.candidate.version,
                    canary: true,
                    shadow: Some(inner.incumbent.clone()),
                };
                return pin;
            }
        }
        Pinned {
            model: Arc::clone(&inner.incumbent.model),
            version: inner.incumbent.version,
            canary: false,
            shadow: None,
        }
    }

    /// Feeds one canary table's shadow measurements and judges the
    /// gates when due. A non-finite observation rolls back immediately;
    /// otherwise judgment happens once `min_canary_tables` observations
    /// have accumulated.
    pub fn observe_canary(&self, obs: CanaryObservation) {
        let mut inner = self.lock();
        let Some(canary) = inner.canary.as_mut() else { return };
        canary.observed += 1;
        canary.agree_cols += obs.agree_cols;
        canary.total_cols += obs.total_cols;
        if obs.nonfinite {
            canary.sentinel_trips += 1;
        }
        canary.candidate_ms.push(obs.candidate_ms);
        canary.incumbent_ms.push(obs.incumbent_ms);
        if obs.nonfinite {
            self.judge(&mut inner, Some("non-finite output sentinel tripped".to_owned()));
        } else if inner.canary.as_ref().is_some_and(|c| c.observed >= self.cfg.min_canary_tables)
        {
            self.judge(&mut inner, None);
        }
    }

    /// Forces judgment of the in-flight candidate with however many
    /// observations it has (e.g. at the end of a run). No-op without a
    /// candidate; a candidate with zero observations rolls back.
    pub fn settle(&self) {
        let mut inner = self.lock();
        if inner.canary.is_some() {
            self.judge(&mut inner, None);
        }
    }

    /// Rolls back the in-flight candidate unconditionally, recording
    /// `cause`. No-op without a candidate.
    pub fn rollback(&self, cause: &str) {
        let mut inner = self.lock();
        if inner.canary.is_some() {
            self.judge(&mut inner, Some(cause.to_owned()));
        }
    }

    /// The activity summary so far (final_version = incumbent now).
    pub fn summary(&self) -> RolloutSummary {
        let inner = self.lock();
        let mut summary = inner.summary.clone();
        summary.final_version = inner.incumbent.version;
        summary
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Judges the in-flight candidate. `forced_cause` short-circuits to
    /// a rollback (sentinel trip or explicit rollback); otherwise the
    /// three gates decide.
    fn judge(&self, inner: &mut Inner, forced_cause: Option<String>) {
        let Some(canary) = inner.canary.take() else { return };
        let agreement = if canary.total_cols == 0 {
            1.0
        } else {
            canary.agree_cols as f64 / canary.total_cols as f64
        };
        let candidate_p99_ms = p99(&canary.candidate_ms);
        let incumbent_p99_ms = p99(&canary.incumbent_ms);
        let latency_ok = incumbent_p99_ms <= 0.0
            || candidate_p99_ms <= incumbent_p99_ms * self.cfg.max_p99_latency_ratio;
        let gates = GateVerdicts {
            canary_tables: canary.observed,
            agreement,
            agreement_ok: agreement >= self.cfg.min_agreement,
            sentinel_trips: canary.sentinel_trips,
            sentinel_ok: canary.sentinel_trips == 0,
            candidate_p99_ms,
            incumbent_p99_ms,
            latency_ok,
        };
        let forced = forced_cause.is_some();
        let cause = forced_cause.or_else(|| {
            if gates.all_ok() {
                None
            } else {
                let mut failed = Vec::new();
                if !gates.agreement_ok {
                    failed.push(format!(
                        "agreement {:.3} < {:.3}",
                        gates.agreement, self.cfg.min_agreement
                    ));
                }
                if !gates.sentinel_ok {
                    failed.push(format!("{} non-finite sentinel trips", gates.sentinel_trips));
                }
                if !gates.latency_ok {
                    failed.push(format!(
                        "p99 latency {:.2}ms > {:.1}x incumbent {:.2}ms",
                        gates.candidate_p99_ms,
                        self.cfg.max_p99_latency_ratio,
                        gates.incumbent_p99_ms
                    ));
                }
                Some(format!("health gates failed: {}", failed.join("; ")))
            }
        });
        let promoted = !forced && cause.is_none();
        let episode = RolloutEpisode {
            candidate_version: canary.candidate.version,
            incumbent_version: inner.incumbent.version,
            gates,
            outcome: if promoted { EpisodeOutcome::Promoted } else { EpisodeOutcome::RolledBack },
            cause,
        };
        if promoted {
            inner.incumbent = canary.candidate;
            inner.summary.promotions += 1;
        } else {
            inner.summary.rollbacks += 1;
        }
        inner.summary.final_version = inner.incumbent.version;
        inner.summary.episodes.push(episode);
    }
}

/// The p99 of a sample set (max for small sets), 0 for an empty one.
fn p99(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    // Nearest-rank: the smallest value with at least 99% of samples at
    // or below it.
    let idx = (sorted.len() as f64 * 0.99).ceil() as usize - 1;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use taste_model::ModelConfig;
    use taste_tokenizer::{Tokenizer, VocabBuilder};

    fn model(seed: u64) -> Arc<Adtd> {
        let mut b = VocabBuilder::new();
        b.add_words(["orders", "city", "name", "phone", "int", "text"]);
        b.add_words(["orders", "city", "name", "phone", "int", "text"]);
        Arc::new(Adtd::new(ModelConfig::tiny(), Tokenizer::new(b.build(100, 1)), 4, seed))
    }

    fn vm(version: u64) -> VersionedModel {
        VersionedModel { version, model: model(version) }
    }

    fn cfg() -> RolloutConfig {
        RolloutConfig { enabled: true, ..Default::default() }
    }

    fn agreeing(n: u64) -> CanaryObservation {
        CanaryObservation {
            agree_cols: n,
            total_cols: n,
            nonfinite: false,
            candidate_ms: 1.0,
            incumbent_ms: 1.0,
        }
    }

    #[test]
    fn config_validation() {
        assert!(RolloutConfig::default().validate().is_ok());
        assert!(cfg().validate().is_ok());
        assert!(RolloutConfig { canary_fraction: 0.0, ..cfg() }.validate().is_err());
        assert!(RolloutConfig { canary_fraction: 1.5, ..cfg() }.validate().is_err());
        assert!(RolloutConfig { min_canary_tables: 0, ..cfg() }.validate().is_err());
        assert!(RolloutConfig { min_agreement: 1.5, ..cfg() }.validate().is_err());
        assert!(RolloutConfig { max_p99_latency_ratio: 0.5, ..cfg() }.validate().is_err());
        // Disabled configs skip every check.
        assert!(RolloutConfig { canary_fraction: 0.0, ..Default::default() }.validate().is_ok());
    }

    #[test]
    fn offer_rejects_stale_versions_and_double_offers() {
        let rc = RolloutController::new(vm(5), cfg());
        assert!(!rc.offer(vm(5)), "same version is stale");
        assert!(!rc.offer(vm(4)), "older version is stale");
        assert!(rc.offer(vm(6)));
        assert!(!rc.offer(vm(7)), "one candidate at a time");
        assert_eq!(rc.candidate_version(), Some(6));
        assert_eq!(rc.current_version(), 5, "offer alone does not swap");
    }

    #[test]
    fn canary_fraction_routes_deterministically() {
        let rc = RolloutController::new(
            vm(1),
            RolloutConfig { canary_fraction: 0.25, min_canary_tables: 1000, ..cfg() },
        );
        assert!(rc.offer(vm(2)));
        let flags: Vec<bool> = (0..16).map(|_| rc.pin().canary).collect();
        assert_eq!(flags.iter().filter(|&&c| c).count(), 4, "a quarter of pins canary");
        // Without a candidate, nothing canaries.
        let rc2 = RolloutController::new(vm(1), cfg());
        assert!((0..8).all(|_| !rc2.pin().canary));
    }

    #[test]
    fn healthy_candidate_promotes_after_min_tables() {
        let rc = RolloutController::new(
            vm(1),
            RolloutConfig { canary_fraction: 1.0, min_canary_tables: 3, ..cfg() },
        );
        assert!(rc.offer(vm(2)));
        for _ in 0..2 {
            rc.observe_canary(agreeing(4));
            assert_eq!(rc.current_version(), 1, "not judged yet");
        }
        rc.observe_canary(agreeing(4));
        assert_eq!(rc.current_version(), 2, "promoted");
        let s = rc.summary();
        assert_eq!((s.promotions, s.rollbacks), (1, 0));
        assert_eq!(s.episodes.len(), 1);
        let ep = &s.episodes[0];
        assert_eq!(ep.outcome, EpisodeOutcome::Promoted);
        assert!(ep.gates.all_ok());
        assert_eq!(ep.gates.canary_tables, 3);
        assert_eq!((s.initial_version, s.final_version), (1, 2));
        // The promoted model is what new pins serve.
        assert_eq!(rc.pin().version, 2);
    }

    #[test]
    fn low_agreement_rolls_back() {
        let rc = RolloutController::new(
            vm(1),
            RolloutConfig { canary_fraction: 1.0, min_canary_tables: 2, ..cfg() },
        );
        assert!(rc.offer(vm(2)));
        rc.observe_canary(CanaryObservation { agree_cols: 1, total_cols: 4, ..agreeing(0) });
        rc.observe_canary(CanaryObservation { agree_cols: 2, total_cols: 4, ..agreeing(0) });
        assert_eq!(rc.current_version(), 1, "incumbent kept serving");
        let s = rc.summary();
        assert_eq!((s.promotions, s.rollbacks), (0, 1));
        let ep = &s.episodes[0];
        assert_eq!(ep.outcome, EpisodeOutcome::RolledBack);
        assert!(!ep.gates.agreement_ok);
        assert!(ep.cause.as_deref().unwrap().contains("agreement"));
        // The slot is free for the next candidate.
        assert!(rc.offer(vm(3)));
    }

    #[test]
    fn nonfinite_sentinel_rolls_back_immediately() {
        let rc = RolloutController::new(
            vm(1),
            RolloutConfig { canary_fraction: 1.0, min_canary_tables: 100, ..cfg() },
        );
        assert!(rc.offer(vm(2)));
        rc.observe_canary(CanaryObservation { nonfinite: true, ..agreeing(4) });
        let s = rc.summary();
        assert_eq!(s.rollbacks, 1, "did not wait for min_canary_tables");
        assert_eq!(s.episodes[0].gates.sentinel_trips, 1);
        assert!(s.episodes[0].cause.as_deref().unwrap().contains("non-finite"));
    }

    #[test]
    fn slow_candidate_fails_the_latency_gate() {
        let rc = RolloutController::new(
            vm(1),
            RolloutConfig {
                canary_fraction: 1.0,
                min_canary_tables: 2,
                max_p99_latency_ratio: 2.0,
                ..cfg()
            },
        );
        assert!(rc.offer(vm(2)));
        for _ in 0..2 {
            rc.observe_canary(CanaryObservation {
                candidate_ms: 10.0,
                incumbent_ms: 1.0,
                ..agreeing(4)
            });
        }
        let s = rc.summary();
        assert_eq!(s.rollbacks, 1);
        assert!(!s.episodes[0].gates.latency_ok);
        assert!(s.episodes[0].cause.as_deref().unwrap().contains("p99"));
    }

    #[test]
    fn settle_judges_a_lingering_candidate() {
        let rc = RolloutController::new(
            vm(1),
            RolloutConfig { canary_fraction: 1.0, min_canary_tables: 100, ..cfg() },
        );
        assert!(rc.offer(vm(2)));
        rc.observe_canary(agreeing(4));
        rc.settle();
        let s = rc.summary();
        assert_eq!(s.promotions, 1, "healthy partial canary promotes on settle");
        assert_eq!(s.episodes[0].gates.canary_tables, 1);
        // settle with nothing in flight is a no-op.
        rc.settle();
        assert_eq!(rc.summary().episodes.len(), 1);
    }

    #[test]
    fn explicit_rollback_records_cause() {
        let rc = RolloutController::new(vm(1), cfg());
        assert!(rc.offer(vm(2)));
        rc.rollback("operator abort");
        let s = rc.summary();
        assert_eq!(s.rollbacks, 1);
        assert_eq!(s.episodes[0].cause.as_deref(), Some("operator abort"));
    }

    #[test]
    fn pins_are_epochs_not_references() {
        // A pin taken before a promotion keeps serving the old Arc.
        let rc = RolloutController::new(
            vm(1),
            RolloutConfig { canary_fraction: 1.0, min_canary_tables: 1, ..cfg() },
        );
        let old_pin = rc.pin();
        assert!(rc.offer(vm(2)));
        rc.observe_canary(agreeing(4));
        assert_eq!(rc.current_version(), 2);
        assert_eq!(old_pin.version, 1, "in-flight table unaffected by the swap");
    }

    #[test]
    fn p99_of_samples() {
        assert_eq!(p99(&[]), 0.0);
        assert_eq!(p99(&[3.0]), 3.0);
        assert_eq!(p99(&[1.0, 5.0, 2.0]), 5.0);
        let many: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        assert_eq!(p99(&many), 198.0);
    }
}
