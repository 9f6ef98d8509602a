//! Golden fixture tests.
//!
//! Every rule in the catalog has a checked-in `*_bad.rs` fixture that
//! must produce exactly the expected `(line, rule)` findings, and an
//! `*_allowed.rs` twin — the same code plus `// lint:allow(<rule>): ..`
//! suppressions — that must be clean. Fixtures are analyzed under a
//! *virtual* workspace path because several rules are path-scoped
//! (cluster-only, serve-only, sink/entry files).
//!
//! Deleting a rule's implementation makes its bad fixture come back
//! empty and fails the table test; deleting the suppression handling
//! makes the allowed twin non-empty and fails it too.

use gar_analyze::rules::CATALOG;
use gar_analyze::{analyze_source, analyze_sources};

struct Fixture {
    name: &'static str,
    /// Virtual workspace-relative path the fixture pretends to live at.
    vpath: &'static str,
    src: &'static str,
    /// Expected findings as (1-based line, rule), in order.
    expect: &'static [(usize, &'static str)],
}

const FIXTURES: &[Fixture] = &[
    Fixture {
        name: "wait_loop_bad",
        vpath: "crates/mining/src/sync_util.rs",
        src: include_str!("fixtures/wait_loop_bad.rs"),
        expect: &[(3, "wait-loop")],
    },
    Fixture {
        name: "wait_loop_allowed",
        vpath: "crates/mining/src/sync_util.rs",
        src: include_str!("fixtures/wait_loop_allowed.rs"),
        expect: &[],
    },
    Fixture {
        name: "cluster_unwrap_bad",
        vpath: "crates/cluster/src/util.rs",
        src: include_str!("fixtures/cluster_unwrap_bad.rs"),
        expect: &[(2, "cluster-unwrap")],
    },
    Fixture {
        name: "cluster_unwrap_allowed",
        vpath: "crates/cluster/src/util.rs",
        src: include_str!("fixtures/cluster_unwrap_allowed.rs"),
        expect: &[],
    },
    Fixture {
        name: "relaxed_bad",
        vpath: "crates/mining/src/counters.rs",
        src: include_str!("fixtures/relaxed_bad.rs"),
        expect: &[(3, "relaxed")],
    },
    Fixture {
        name: "relaxed_allowed",
        vpath: "crates/mining/src/counters.rs",
        src: include_str!("fixtures/relaxed_allowed.rs"),
        expect: &[],
    },
    Fixture {
        name: "no_deadline_bad",
        vpath: "crates/cluster/src/pump.rs",
        src: include_str!("fixtures/no_deadline_bad.rs"),
        expect: &[(2, "no-deadline")],
    },
    Fixture {
        name: "no_deadline_allowed",
        vpath: "crates/cluster/src/pump.rs",
        src: include_str!("fixtures/no_deadline_allowed.rs"),
        expect: &[],
    },
    Fixture {
        name: "no_instant_bad",
        vpath: "crates/mining/src/timer.rs",
        src: include_str!("fixtures/no_instant_bad.rs"),
        expect: &[(2, "no-instant")],
    },
    Fixture {
        name: "no_instant_allowed",
        vpath: "crates/mining/src/timer.rs",
        src: include_str!("fixtures/no_instant_allowed.rs"),
        expect: &[],
    },
    Fixture {
        name: "no_raw_net_bad",
        vpath: "crates/mining/src/net_probe.rs",
        src: include_str!("fixtures/no_raw_net_bad.rs"),
        expect: &[(2, "no-raw-net")],
    },
    Fixture {
        name: "no_raw_net_allowed",
        vpath: "crates/mining/src/net_probe.rs",
        src: include_str!("fixtures/no_raw_net_allowed.rs"),
        expect: &[],
    },
    Fixture {
        // The fixture sits *in* a sink file, so its function is its own
        // det-taint witness; the transitive case is covered separately.
        name: "det_taint_bad",
        vpath: "crates/mining/src/wire.rs",
        src: include_str!("fixtures/det_taint_bad.rs"),
        expect: &[(3, "det-taint")],
    },
    Fixture {
        name: "det_taint_allowed",
        vpath: "crates/mining/src/wire.rs",
        src: include_str!("fixtures/det_taint_allowed.rs"),
        expect: &[],
    },
    Fixture {
        // Entry file: `handle_connection` is a panic-audit seed, so the
        // unwrap and the slice indexing are both on a panic path.
        name: "panic_path_bad",
        vpath: "crates/serve/src/server.rs",
        src: include_str!("fixtures/panic_path_bad.rs"),
        expect: &[(2, "panic-path"), (4, "panic-path")],
    },
    Fixture {
        name: "panic_path_allowed",
        vpath: "crates/serve/src/server.rs",
        src: include_str!("fixtures/panic_path_allowed.rs"),
        expect: &[],
    },
    Fixture {
        // The send line must NOT mention the guard (that would read as a
        // handoff); the guard is live because its scope has not closed.
        name: "lock_blocking_bad",
        vpath: "crates/serve/src/worker.rs",
        src: include_str!("fixtures/lock_blocking_bad.rs"),
        expect: &[(5, "lock-blocking")],
    },
    Fixture {
        name: "lock_blocking_allowed",
        vpath: "crates/serve/src/worker.rs",
        src: include_str!("fixtures/lock_blocking_allowed.rs"),
        expect: &[],
    },
    Fixture {
        name: "unsafe_audit_bad",
        vpath: "crates/types/src/ptr.rs",
        src: include_str!("fixtures/unsafe_audit_bad.rs"),
        expect: &[(2, "unsafe-audit")],
    },
    Fixture {
        name: "unsafe_audit_allowed",
        vpath: "crates/types/src/ptr.rs",
        src: include_str!("fixtures/unsafe_audit_allowed.rs"),
        expect: &[],
    },
    Fixture {
        // An integration-test file: test code from the first line.
        name: "test_sleep_bad",
        vpath: "crates/serve/tests/flow.rs",
        src: include_str!("fixtures/test_sleep_bad.rs"),
        expect: &[(4, "test-sleep")],
    },
    Fixture {
        name: "test_sleep_allowed",
        vpath: "crates/serve/tests/flow.rs",
        src: include_str!("fixtures/test_sleep_allowed.rs"),
        expect: &[],
    },
    Fixture {
        // Regression for the old text lint's worst failure mode: every
        // rule's trigger pattern, but only inside literals and comments.
        // Deliberately placed at a cluster path so the cluster-scoped
        // rules would fire if sanitization ever broke.
        name: "strings_comments_clean",
        vpath: "crates/cluster/src/fixture_strings.rs",
        src: include_str!("fixtures/strings_comments_clean.rs"),
        expect: &[],
    },
];

#[test]
fn fixtures_match_expected_findings() {
    for f in FIXTURES {
        let got = analyze_source(f.vpath, f.src);
        let pairs: Vec<(usize, &str)> = got.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(
            pairs, f.expect,
            "fixture `{}` (as {}): got {:#?}",
            f.name, f.vpath, got
        );
    }
}

#[test]
fn every_rule_has_a_bad_fixture() {
    for info in CATALOG {
        assert!(
            FIXTURES
                .iter()
                .any(|f| f.expect.iter().any(|(_, r)| *r == info.name)),
            "rule `{}` has no bad fixture exercising it",
            info.name
        );
    }
}

#[test]
fn every_rule_has_a_suppression_fixture() {
    for info in CATALOG {
        let stem = info.name.replace('-', "_");
        let allowed = format!("{stem}_allowed");
        let f = FIXTURES
            .iter()
            .find(|f| f.name == allowed)
            .unwrap_or_else(|| panic!("rule `{}` has no `{allowed}` fixture", info.name));
        assert!(
            f.expect.is_empty(),
            "suppression fixture `{allowed}` must expect zero findings"
        );
        assert!(
            f.src.contains(&format!("lint:allow({})", info.name)),
            "`{allowed}` must carry a `lint:allow({})` suppression",
            info.name
        );
    }
}

// ---------------------------------------------------------------------
// Flow-aware behavior that needs more than one file.
// ---------------------------------------------------------------------

#[test]
fn det_taint_flows_through_the_call_graph() {
    let caller = "use std::collections::HashMap;\n\
                  pub fn summarize(m: &HashMap<u32, u64>) {\n    \
                  for (k, v) in m.iter() {\n        \
                  emit_row(*k, *v);\n    \
                  }\n\
                  }\n";
    let sink = "pub fn emit_row(_k: u32, _v: u64) {}\n";
    let findings = analyze_sources(&[
        ("crates/mining/src/aggregate.rs", caller),
        ("crates/mining/src/wire.rs", sink),
    ]);
    let hit = findings
        .iter()
        .find(|f| f.rule == "det-taint")
        .expect("hash iteration reaching a sink through a helper must be flagged");
    assert_eq!(
        (hit.file.as_str(), hit.line),
        ("crates/mining/src/aggregate.rs", 3)
    );
    assert!(
        hit.msg.contains("emit_row"),
        "finding must name the sink witness: {}",
        hit.msg
    );
}

#[test]
fn det_taint_ignores_functions_that_reach_no_sink() {
    let caller = "use std::collections::HashMap;\n\
                  pub fn summarize(m: &HashMap<u32, u64>) {\n    \
                  for (k, v) in m.iter() {\n        \
                  emit_row(*k, *v);\n    \
                  }\n\
                  }\n";
    // Same shape, but `emit_row` lives in a non-sink file.
    let helper = "pub fn emit_row(_k: u32, _v: u64) {}\n";
    let findings = analyze_sources(&[
        ("crates/mining/src/aggregate.rs", caller),
        ("crates/mining/src/math.rs", helper),
    ]);
    assert!(
        findings.iter().all(|f| f.rule != "det-taint"),
        "{findings:#?}"
    );
}

#[test]
fn panic_path_flows_from_entry_to_helper() {
    let entry = "pub fn handle_connection() {\n    decode_request();\n}\n";
    let helper = "pub fn decode_request() -> u32 {\n    \
                  let v: Option<u32> = None;\n    \
                  v.unwrap()\n\
                  }\n";
    let findings = analyze_sources(&[
        ("crates/serve/src/server.rs", entry),
        ("crates/serve/src/util.rs", helper),
    ]);
    let hit = findings
        .iter()
        .find(|f| f.rule == "panic-path")
        .expect("unwrap in a helper reachable from an entry point must be flagged");
    assert_eq!(
        (hit.file.as_str(), hit.line),
        ("crates/serve/src/util.rs", 3)
    );
    assert!(
        hit.msg.contains("handle_connection"),
        "finding must name the entry witness: {}",
        hit.msg
    );
}

#[test]
fn panic_path_ignores_unreachable_helpers() {
    // The same unwrap, but no entry point anywhere in the set.
    let helper = "pub fn decode_request() -> u32 {\n    \
                  let v: Option<u32> = None;\n    \
                  v.unwrap()\n\
                  }\n";
    let findings = analyze_source("crates/serve/src/util.rs", helper);
    assert!(
        findings.iter().all(|f| f.rule != "panic-path"),
        "{findings:#?}"
    );
}

// ---------------------------------------------------------------------
// lock-blocking liveness: the negatives the rule must get right.
// ---------------------------------------------------------------------

#[test]
fn lock_blocking_dropped_guard_is_clean() {
    let src = "use std::sync::Mutex;\n\
               pub fn publish(m: &Mutex<u64>, tx: &std::sync::mpsc::Sender<u64>) {\n    \
               let guard = m.lock().unwrap();\n    \
               let v = *guard + 1;\n    \
               drop(guard);\n    \
               tx.send(v).ok();\n\
               }\n";
    let findings = analyze_source("crates/serve/src/worker.rs", src);
    assert!(
        findings.iter().all(|f| f.rule != "lock-blocking"),
        "{findings:#?}"
    );
}

#[test]
fn lock_blocking_scope_exit_is_clean() {
    let src = "use std::sync::Mutex;\n\
               pub fn publish(m: &Mutex<u64>, tx: &std::sync::mpsc::Sender<u64>) {\n    \
               let v = {\n        \
               let guard = m.lock().unwrap();\n        \
               *guard + 1\n    \
               };\n    \
               tx.send(v).ok();\n\
               }\n";
    let findings = analyze_source("crates/serve/src/worker.rs", src);
    assert!(
        findings.iter().all(|f| f.rule != "lock-blocking"),
        "{findings:#?}"
    );
}

#[test]
fn lock_blocking_handoff_is_clean() {
    // The guard appears on the blocking line itself: it is being handed
    // to the call (condvar/collective style), not held across it.
    let src = "pub fn barrier(m: &std::sync::Mutex<u64>) {\n    \
               let guard = m.lock().unwrap();\n    \
               wait_collective(guard);\n\
               }\n";
    let findings = analyze_source("crates/mining/src/sync.rs", src);
    assert!(
        findings.iter().all(|f| f.rule != "lock-blocking"),
        "{findings:#?}"
    );
}
