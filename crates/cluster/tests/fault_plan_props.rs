//! Property tests for the `--faults` spec grammar: an arbitrary
//! [`FaultPlan`] rendered to its spec string and parsed back must
//! reproduce every field, and re-rendering must be a fixed point.
//!
//! The grammar is the reproduction channel for fault-injection runs
//! (reports print `plan.render()` so a failure can be replayed), so
//! `parse ∘ render` must be the identity on everything a plan carries.

use gar_cluster::{FaultOp, FaultPlan};
use proptest::prelude::*;
use std::time::Duration;

const OPS: [FaultOp; 10] = [
    FaultOp::Panic,
    FaultOp::Hang,
    FaultOp::Drop,
    FaultOp::Corrupt,
    FaultOp::ScanError,
    FaultOp::ConnReset,
    FaultOp::SlowFrame,
    FaultOp::ShardPanic,
    FaultOp::ShardStall,
    FaultOp::StaleSwap,
];

/// Probabilities in [0, 1] with three decimal digits. The compat
/// strategy ranges are integer-only, so floats are derived; millesimal
/// steps keep `f64::Display` short while still exercising the float
/// round trip (`Display` output always re-parses to the same f64).
fn arb_prob() -> impl Strategy<Value = f64> {
    (0u32..1001).prop_map(|n| f64::from(n) / 1000.0)
}

/// Fault points of every op, node and serve ops interleaved, as
/// `(op, at)`: the second coordinate is only rendered for the node ops
/// (`…@nNpM`) and the shard ops (`…@sNqM`), and the 1-based positions
/// (`job` for shard ops, `at[0]` for `stale-swap@rN`) must stay ≥ 1 to
/// be parsable.
fn arb_fault() -> impl Strategy<Value = (FaultOp, [usize; 2])> {
    (0usize..OPS.len(), 0usize..16, 0usize..10).prop_map(|(i, a, b)| {
        let op = OPS[i];
        let at = match op {
            FaultOp::Panic
            | FaultOp::Hang
            | FaultOp::Drop
            | FaultOp::Corrupt
            | FaultOp::ScanError => [a, b],
            FaultOp::ShardPanic | FaultOp::ShardStall => [a, b.max(1)],
            FaultOp::StaleSwap => [a.max(1), 0],
            FaultOp::ConnReset | FaultOp::SlowFrame => [a, 0],
        };
        (op, at)
    })
}

/// (seed, [p_drop, p_dup, p_corrupt, p_delay, p_scan], delay-ms,
/// hang-ms, scheduled fault points) — everything `render` can express.
/// Millisecond sleeps include the defaults (1 and 500) so the
/// omit-if-default path is exercised too.
type PlanParts = (
    u64,
    (f64, f64, f64, f64, f64),
    u64,
    u64,
    Vec<(FaultOp, [usize; 2])>,
);

fn arb_plan_parts() -> impl Strategy<Value = PlanParts> {
    (
        proptest::num::u64::ANY,
        (arb_prob(), arb_prob(), arb_prob(), arb_prob(), arb_prob()),
        0u64..2000,
        0u64..2000,
        proptest::collection::vec(arb_fault(), 0..12),
    )
}

fn build_plan((seed, probs, delay_ms, hang_ms, scheduled): &PlanParts) -> FaultPlan {
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
    for &(op, at) in scheduled {
        plan = plan.schedule(op, at);
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
        // carries run state, so compare the declarative pair).
        prop_assert_eq!(reparsed.scheduled.len(), plan.scheduled.len());
        for (got, want) in reparsed.scheduled.iter().zip(&plan.scheduled) {
            prop_assert_eq!(got.op, want.op);
            prop_assert_eq!(got.at, want.at);
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
