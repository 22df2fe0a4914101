//! Property tests for the [`LoadController`]: under *any* interleaving
//! of offers, promotions, completions, queue-wait observations, and
//! stage outcomes, the controller must hold its three contracts —
//! bounded occupancy, clamped AIMD limits, and exact admission
//! accounting (`submitted == admitted + rejected + queued`).
//!
//! Time is synthetic: every operation executes at an explicit
//! `epoch + offset` instant, so a schedule's behavior is a pure function
//! of the generated op list and the tests are deterministic.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use taste_framework::{LoadController, OverloadConfig};

/// One operation against the controller, with any time advance encoded
/// by the op's position in the schedule.
#[derive(Debug, Clone)]
enum Op {
    Offer,
    Promote,
    /// Completes the oldest outstanding admission (no-op when none are
    /// in flight), reporting `ok` to the brownout probe machinery.
    Complete { ok: bool },
    ObserveWait { wait_ms: u16 },
    ObserveStage { service_ms: u16, failed: bool, is_p2: bool },
    NoteDepth { depth: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Offer),
        3 => Just(Op::Promote),
        2 => any::<bool>().prop_map(|ok| Op::Complete { ok }),
        2 => (0u16..40).prop_map(|wait_ms| Op::ObserveWait { wait_ms }),
        2 => (0u16..20, any::<bool>(), any::<bool>())
            .prop_map(|(service_ms, failed, is_p2)| Op::ObserveStage { service_ms, failed, is_p2 }),
        1 => (0u8..32).prop_map(|depth| Op::NoteDepth { depth }),
    ]
}

fn cfg_strategy() -> impl Strategy<Value = (OverloadConfig, usize)> {
    (1usize..6, 0usize..8, 1usize..4, 1u32..4, 1usize..6).prop_map(
        |(max_in_flight, max_queued, min_workers, increase_every, pool_size)| {
            let cfg = OverloadConfig {
                enabled: true,
                max_in_flight,
                max_queued,
                min_workers,
                increase_every,
                decrease_ratio: 0.5,
                deadline: Some(Duration::from_millis(100)),
                queue_target: Duration::from_millis(5),
                queue_window: Duration::from_millis(12),
                aimd_window: Duration::from_millis(6),
                brownout_after: Duration::from_millis(25),
                brownout_probe_every: 3,
                brownout_exit_probes: 2,
            };
            (cfg, pool_size)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Model-based check of every controller contract at every step:
    /// occupancy never exceeds `occupancy_bound`, in-flight never
    /// exceeds `max_in_flight`, each AIMD limit stays inside its own
    /// pool's range — `tp1_limit` and `conn_limit` in
    /// `[min(min_workers, depth), depth]`, `tp2_limit` in
    /// `[min(min_workers, pool_size), pool_size]` — the controller's
    /// occupancy counters track a reference model exactly, and in
    /// brownout `p2_allowed` is granted only to probes.
    #[test]
    fn contracts_hold_under_any_schedule(
        (cfg, pool_size) in cfg_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        prop_assert!(cfg.validate().is_ok());
        // The prep pool's width as the engine derives it.
        let depth = pool_size.max(8);
        let c = LoadController::new(cfg, depth, pool_size);
        let bound = cfg.occupancy_bound();
        let epoch = Instant::now();

        // Reference model: what the counters must read at every step.
        let mut queued = 0usize;
        let mut in_flight: Vec<taste_framework::Admission> = Vec::new();
        let mut submitted = 0u64;
        let mut admitted = 0u64;
        let mut rejected = 0u64;

        for (i, op) in ops.iter().enumerate() {
            // Ops are spaced 3ms apart so wait/stage schedules can cross
            // the CoDel window, the AIMD window, and brownout_after.
            let now = epoch + Duration::from_millis(3 * i as u64);
            match *op {
                Op::Offer => {
                    let accepted = c.offer();
                    submitted += 1;
                    let expect = queued + in_flight.len() < bound;
                    prop_assert_eq!(accepted, expect, "admission must be a pure occupancy check");
                    if accepted { queued += 1; } else { rejected += 1; }
                }
                Op::Promote => {
                    let adm = c.promote();
                    let expect = queued > 0 && in_flight.len() < cfg.max_in_flight;
                    prop_assert_eq!(adm.is_some(), expect, "promotion needs queue + free slot");
                    if let Some(a) = adm {
                        queued -= 1;
                        admitted += 1;
                        if c.is_brownout() {
                            prop_assert_eq!(a.p2_allowed, a.probe, "brownout grants P2 only to probes");
                        } else {
                            prop_assert!(a.p2_allowed && !a.probe);
                        }
                        in_flight.push(a);
                    }
                }
                Op::Complete { ok } => {
                    if !in_flight.is_empty() {
                        let a = in_flight.remove(0);
                        c.complete(a.probe, ok, now);
                    }
                }
                Op::ObserveWait { wait_ms } => {
                    c.observe_queue_wait(Duration::from_millis(wait_ms.into()), now);
                }
                Op::ObserveStage { service_ms, failed, is_p2 } => {
                    c.observe_stage(Duration::from_millis(service_ms.into()), failed, is_p2, now);
                }
                Op::NoteDepth { depth } => c.note_queue_depth(depth.into()),
            }

            // Invariants after *every* op, not just at the end.
            prop_assert_eq!(c.queued(), queued);
            prop_assert_eq!(c.in_flight(), in_flight.len());
            prop_assert!(c.in_flight() + c.queued() <= bound, "occupancy bound breached");
            prop_assert!(c.in_flight() <= cfg.max_in_flight);
            for (limit, ceil) in [(c.tp1_limit(), depth), (c.conn_limit(), depth), (c.tp2_limit(), pool_size)] {
                let floor = cfg.min_workers.min(ceil);
                prop_assert!(
                    (floor..=ceil).contains(&limit),
                    "AIMD limit {} escaped [{}, {}]", limit, floor, ceil
                );
            }
        }

        // Final accounting: every offer is admitted, rejected, or still
        // queued — nothing double-counted, nothing lost.
        let s = c.summary();
        prop_assert_eq!(s.submitted, submitted);
        prop_assert_eq!(s.admitted, admitted);
        prop_assert_eq!(s.rejected, rejected);
        prop_assert_eq!(s.submitted, s.admitted + s.rejected + c.queued() as u64);
        prop_assert_eq!(s.final_tp1_limit as usize, c.tp1_limit());
    }

    /// The brownout ledger is coherent on any wait schedule: transitions
    /// strictly alternate `normal->brownout` / `brownout->normal`,
    /// `brownout_entries` counts exactly the entries, and the current
    /// state matches the parity of the transition list.
    #[test]
    fn brownout_transitions_alternate_and_count(
        waits in prop::collection::vec((0u16..40, 1u16..8), 1..80),
        exits in prop::collection::vec(any::<bool>(), 0..12),
    ) {
        let cfg = OverloadConfig {
            enabled: true,
            queue_target: Duration::from_millis(5),
            queue_window: Duration::from_millis(10),
            brownout_after: Duration::from_millis(20),
            brownout_exit_probes: 1,
            ..OverloadConfig::default()
        };
        let c = LoadController::new(cfg, 8, 2);
        let epoch = Instant::now();
        let mut t = Duration::ZERO;
        let mut exits = exits.into_iter();
        for &(wait_ms, step_ms) in &waits {
            t += Duration::from_millis(step_ms.into());
            c.observe_queue_wait(Duration::from_millis(wait_ms.into()), epoch + t);
            // Occasionally run a successful probe, which exits brownout
            // when active (exit_probes = 1).
            if c.is_brownout() && exits.next() == Some(true) {
                c.offer();
                // Promote until the probe admission appears, then
                // complete it successfully.
                while let Some(a) = c.promote() {
                    c.complete(a.probe, true, epoch + t);
                    if a.probe { break; }
                    c.offer();
                }
            }
        }
        let s = c.summary();
        let mut expect_entry = true;
        for tr in &s.transitions {
            if expect_entry {
                prop_assert!(tr.starts_with("normal->brownout"), "unexpected transition {tr}");
            } else {
                prop_assert!(tr.starts_with("brownout->normal"), "unexpected transition {tr}");
            }
            expect_entry = !expect_entry;
        }
        let entries = s.transitions.iter().filter(|t| t.starts_with("normal->brownout")).count();
        prop_assert_eq!(s.brownout_entries as usize, entries);
        // State parity: an odd number of transitions means we are still
        // in brownout; even means normal.
        prop_assert_eq!(c.is_brownout(), s.transitions.len() % 2 == 1);
    }

    /// The occupancy bound is tight, not just safe: a schedule of pure
    /// offers fills the queue to exactly the bound and rejects the rest,
    /// and draining via promote+complete readmits exactly as many.
    #[test]
    fn admission_bound_is_exact(
        max_in_flight in 1usize..5,
        max_queued in 0usize..6,
        extra in 0usize..10,
    ) {
        let cfg = OverloadConfig { enabled: true, max_in_flight, max_queued, ..OverloadConfig::default() };
        let c = LoadController::new(cfg, 8, 2);
        let bound = cfg.occupancy_bound();
        let mut accepted = 0;
        for _ in 0..bound + extra {
            if c.offer() { accepted += 1; }
        }
        prop_assert_eq!(accepted, bound);
        prop_assert_eq!(c.summary().rejected as usize, extra);
        // Drain one table end-to-end: exactly one more offer fits.
        if let Some(a) = c.promote() {
            c.complete(a.probe, true, Instant::now());
            prop_assert!(c.offer());
            prop_assert!(!c.offer());
        }
    }
}
