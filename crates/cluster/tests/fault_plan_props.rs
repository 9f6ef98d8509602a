//! Property tests for the `--faults` spec grammar: an arbitrary
//! [`FaultPlan`] rendered to its spec string and parsed back must
//! reproduce every field, and re-rendering must be a fixed point.
//!
//! The grammar is the reproduction channel for fault-injection runs
//! (reports print `plan.render()` so a failure can be replayed), so
//! `parse ∘ render` must be the identity on everything a plan carries.

// What this suite drives does not exist in model-checking builds.
#![cfg(not(gar_loom))]

use gar_cluster::{FaultOp, FaultPlan, ServeFaultOp};
use proptest::prelude::*;
use std::time::Duration;

const OPS: [FaultOp; 5] = [
    FaultOp::Panic,
    FaultOp::Hang,
    FaultOp::Drop,
    FaultOp::Corrupt,
    FaultOp::ScanError,
];

const SERVE_OPS: [ServeFaultOp; 5] = [
    ServeFaultOp::ConnReset,
    ServeFaultOp::SlowFrame,
    ServeFaultOp::ShardPanic,
    ServeFaultOp::ShardStall,
    ServeFaultOp::StaleSwap,
];

/// Probabilities in [0, 1] with three decimal digits. The compat
/// strategy ranges are integer-only, so floats are derived; millesimal
/// steps keep `f64::Display` short while still exercising the float
/// round trip (`Display` output always re-parses to the same f64).
fn arb_prob() -> impl Strategy<Value = f64> {
    (0u32..1001).prop_map(|n| f64::from(n) / 1000.0)
}

fn arb_op() -> impl Strategy<Value = FaultOp> {
    (0usize..OPS.len()).prop_map(|i| OPS[i])
}

/// Serve-side fault points as `(op, at, job)`: `job` is only rendered
/// for the shard ops (`…@sNqM`), and the 1-based positions (`job` for
/// shard ops, `at` for `stale-swap@rN`) must stay ≥ 1 to be parsable.
fn arb_serve_fault() -> impl Strategy<Value = (ServeFaultOp, usize, usize)> {
    (0usize..SERVE_OPS.len(), 0usize..16, 1usize..10).prop_map(|(i, at, job)| {
        let op = SERVE_OPS[i];
        match op {
            ServeFaultOp::ShardPanic | ServeFaultOp::ShardStall => (op, at, job),
            ServeFaultOp::StaleSwap => (op, at.max(1), 0),
            ServeFaultOp::ConnReset | ServeFaultOp::SlowFrame => (op, at, 0),
        }
    })
}

/// (seed, [p_drop, p_dup, p_corrupt, p_delay, p_scan], delay-ms,
/// hang-ms, scheduled (node, pass, op) triples, serve fault points) —
/// everything `render` can express. Millisecond sleeps include the
/// defaults (1 and 500) so the omit-if-default path is exercised too.
type PlanParts = (
    u64,
    (f64, f64, f64, f64, f64),
    u64,
    u64,
    Vec<(usize, usize, FaultOp)>,
    Vec<(ServeFaultOp, usize, usize)>,
);

fn arb_plan_parts() -> impl Strategy<Value = PlanParts> {
    (
        proptest::num::u64::ANY,
        (arb_prob(), arb_prob(), arb_prob(), arb_prob(), arb_prob()),
        0u64..2000,
        0u64..2000,
        proptest::collection::vec((0usize..16, 0usize..10, arb_op()), 0..6),
        proptest::collection::vec(arb_serve_fault(), 0..6),
    )
}

fn build_plan((seed, probs, delay_ms, hang_ms, scheduled, serve): &PlanParts) -> FaultPlan {
    let mut plan = FaultPlan {
        seed: *seed,
        p_drop: probs.0,
        p_dup: probs.1,
        p_corrupt: probs.2,
        p_delay: probs.3,
        p_scan_error: probs.4,
        delay: Duration::from_millis(*delay_ms),
        hang: Duration::from_millis(*hang_ms),
        ..FaultPlan::default()
    };
    for &(node, pass, op) in scheduled {
        plan = plan.schedule(node, pass, op);
    }
    for &(op, at, job) in serve {
        plan = plan.schedule_serve(op, at, job);
    }
    plan
}

proptest! {
    #[test]
    fn fault_plan_spec_round_trips(parts in arb_plan_parts()) {
        let plan = build_plan(&parts);
        let rendered = plan.render();
        let reparsed = FaultPlan::parse(&rendered)
            .unwrap_or_else(|e| panic!("render produced an unparsable spec `{rendered}`: {e}"));

        prop_assert_eq!(reparsed.seed, plan.seed);
        prop_assert_eq!(reparsed.p_drop, plan.p_drop);
        prop_assert_eq!(reparsed.p_dup, plan.p_dup);
        prop_assert_eq!(reparsed.p_corrupt, plan.p_corrupt);
        prop_assert_eq!(reparsed.p_delay, plan.p_delay);
        prop_assert_eq!(reparsed.p_scan_error, plan.p_scan_error);
        prop_assert_eq!(reparsed.delay, plan.delay);
        prop_assert_eq!(reparsed.hang, plan.hang);

        // Scheduled fault points survive in order (`ScheduledFault`
        // carries run state, so compare the declarative triple).
        prop_assert_eq!(reparsed.scheduled.len(), plan.scheduled.len());
        for (got, want) in reparsed.scheduled.iter().zip(&plan.scheduled) {
            prop_assert_eq!(got.node, want.node);
            prop_assert_eq!(got.pass, want.pass);
            prop_assert_eq!(got.op, want.op);
        }

        // Serve-side fault points too (`ServeFault` carries a fired
        // flag, so again compare the declarative triple).
        prop_assert_eq!(reparsed.serve.len(), plan.serve.len());
        for (got, want) in reparsed.serve.iter().zip(&plan.serve) {
            prop_assert_eq!(got.op, want.op);
            prop_assert_eq!(got.at, want.at);
            prop_assert_eq!(got.job, want.job);
        }

        // And render is a fixed point of the round trip.
        prop_assert_eq!(reparsed.render(), rendered);
    }

    // Junk that survives parsing must itself round-trip from then on:
    // whatever `parse` accepts, `render` can reproduce.
    #[test]
    fn parse_then_render_is_stable(tokens in proptest::collection::vec(
        (0usize..8, 0usize..16, 0usize..10), 1..5))
    {
        let keys = ["seed", "p-drop", "p-dup", "p-corrupt", "p-delay", "p-scan",
                    "delay-ms", "hang-ms"];
        let spec = tokens
            .iter()
            .map(|&(key, a, b)| match keys[key] {
                k @ ("seed" | "delay-ms" | "hang-ms") => format!("{k}={}", a * 100 + b),
                k => format!("{k}=0.{a}{b}"),
            })
            .collect::<Vec<_>>()
            .join(",");
        let plan = FaultPlan::parse(&spec).unwrap();
        let reparsed = FaultPlan::parse(&plan.render()).unwrap();
        prop_assert_eq!(reparsed.render(), plan.render());
    }
}
