//! Behavior ported from the original `xtask lint` text pass, plus the
//! deliberate behavior *changes*: the rules now run on sanitized code
//! lines, so trigger patterns inside string literals and comments —
//! which the old substring scan flagged — are invisible.

use gar_analyze::analyze_source;

/// (line, rule) pairs under the full catalog — what `xtask analyze`
/// (which absorbed `xtask lint`) reports.
fn legacy(rel: &str, src: &str) -> Vec<(usize, &'static str)> {
    analyze_source(rel, src)
        .iter()
        .map(|f| (f.line, f.rule))
        .collect()
}

#[test]
fn wait_inside_while_is_clean() {
    let src = "pub fn block(cv: &std::sync::Condvar, m: &std::sync::Mutex<bool>) {\n    \
               let mut g = m.lock().unwrap();\n    \
               while !*g {\n        \
               g = cv.wait(g).unwrap();\n    \
               }\n\
               }\n";
    assert_eq!(legacy("crates/mining/src/sync.rs", src), vec![]);
}

#[test]
fn wait_outside_loop_is_flagged() {
    let src = "pub fn block(cv: &std::sync::Condvar, m: &std::sync::Mutex<bool>) {\n    \
               let g = m.lock().unwrap();\n    \
               let _g = cv.wait(g).unwrap();\n\
               }\n";
    assert_eq!(
        legacy("crates/mining/src/sync.rs", src),
        vec![(3, "wait-loop")]
    );
}

#[test]
fn wait_in_comment_or_string_is_clean() {
    // The old text lint flagged both of these lines; the lexer-backed
    // pass must not.
    let src = "pub fn describe() -> &'static str {\n    \
               // callers spin on cv.wait(g) here\n    \
               \"docs mention cv.wait(g) too\"\n\
               }\n";
    assert_eq!(legacy("crates/mining/src/sync.rs", src), vec![]);
}

#[test]
fn cluster_unwrap_only_fires_in_cluster_non_test_code() {
    let src = "pub fn f(r: Result<u32, ()>) -> u32 {\n    r.unwrap()\n}\n";
    assert_eq!(
        legacy("crates/cluster/src/x.rs", src),
        vec![(2, "cluster-unwrap")]
    );
    // Same code outside crates/cluster: clean.
    assert_eq!(legacy("crates/mining/src/x.rs", src), vec![]);
    // Same code inside a #[cfg(test)] region: clean.
    let test_src = "#[cfg(test)]\nmod tests {\n    pub fn f(r: Result<u32, ()>) -> u32 {\n        r.unwrap()\n    }\n}\n";
    assert_eq!(legacy("crates/cluster/src/x.rs", test_src), vec![]);
}

#[test]
fn ctx_recv_and_timeout_variants_are_deadline_aware() {
    // NodeCtx::recv is the deadline-aware wrapper by convention, and the
    // `_timeout` / `_deadline` variants carry their own deadline.
    let src = "pub fn pump(ctx: &NodeCtx, rx: &Rx) {\n    \
               let _a = ctx.recv();\n    \
               let _b = self.ctx.recv();\n    \
               let _c = rx.recv_timeout(d);\n    \
               let _d = rx.recv();\n\
               }\n";
    assert_eq!(
        legacy("crates/cluster/src/pump.rs", src),
        vec![(5, "no-deadline")]
    );
}

#[test]
fn relaxed_with_nearby_justification_is_clean() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               // relaxed: advisory counter, read only for telemetry\n\
               pub fn bump(c: &AtomicU64) {\n    \
               c.fetch_add(1, Ordering::Relaxed);\n\
               }\n";
    assert_eq!(legacy("crates/mining/src/counters.rs", src), vec![]);
}

#[test]
fn instant_is_allowed_in_obs() {
    let src = "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    assert_eq!(legacy("crates/obs/src/clock.rs", src), vec![]);
    assert_eq!(
        legacy("crates/mining/src/clock.rs", src),
        vec![(2, "no-instant")]
    );
}

#[test]
fn sockets_are_allowed_in_serve_only() {
    let src = "pub fn open() {\n    let _ = std::net::TcpListener::bind(\"x\");\n}\n";
    assert_eq!(legacy("crates/serve/src/server.rs", src), vec![]);
    assert_eq!(
        legacy("crates/cluster/src/x.rs", src),
        vec![(2, "no-raw-net")]
    );
}

#[test]
fn raw_stream_reads_are_codec_only_within_serve() {
    let src = "pub fn pull(s: &mut impl std::io::Read, buf: &mut [u8]) {\n    \
               let _ = s.read_exact(buf);\n\
               }\n";
    // The frame codec itself may read raw bytes.
    assert_eq!(legacy("crates/serve/src/protocol.rs", src), vec![]);
    // Anywhere else in serve it must go through read_frame.
    assert_eq!(
        legacy("crates/serve/src/engine.rs", src),
        vec![(2, "no-raw-net")]
    );
}

#[test]
fn free_fn_fs_read_is_not_a_stream_read() {
    let src = "pub fn slurp(p: &std::path::Path) -> Vec<u8> {\n    \
               std::fs::read(p).unwrap_or_default()\n\
               }\n";
    assert_eq!(legacy("crates/serve/src/engine.rs", src), vec![]);
}

#[test]
fn det_taint_is_part_of_the_legacy_set() {
    // det-taint is the successor of `xtask lint`'s hash-order rule:
    // iteration in a sink file is flagged just as the old rule did.
    let src = "use std::collections::HashMap;\n\
               pub fn encode(m: &HashMap<u32, u64>, out: &mut Vec<u8>) {\n    \
               for (k, _) in m.iter() {\n        \
               out.push(*k as u8);\n    \
               }\n\
               }\n";
    assert_eq!(
        legacy("crates/mining/src/wire.rs", src),
        vec![(3, "det-taint")]
    );
    // Deterministic container at the top level: clean even in a sink.
    let vec_src = "use std::collections::HashSet;\n\
                   pub fn encode(v: &[HashSet<u32>], out: &mut Vec<u8>) {\n    \
                   let groups: Vec<HashSet<u32>> = v.to_vec();\n    \
                   let sorted_groups = groups;\n    \
                   for g in sorted_groups.iter() {\n        \
                   out.push(g.len() as u8);\n    \
                   }\n\
                   }\n";
    assert_eq!(legacy("crates/mining/src/wire.rs", vec_src), vec![]);
}

#[test]
fn test_sleep_fires_in_test_code_only() {
    // The same sleep three times: in a function (not this rule's
    // business), in a `#[cfg(test)]` module (flagged), and there again
    // under an allow with a reason (clean).
    let src = "pub fn pace() {\n    \
               std::thread::sleep(D);\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n    \
               fn a() {\n        \
               std::thread::sleep(D);\n    \
               }\n    \
               fn b() {\n        \
               // lint:allow(test-sleep): the interval being measured\n        \
               std::thread::sleep(D);\n    \
               }\n\
               }\n";
    assert_eq!(
        legacy("crates/mining/src/pace.rs", src),
        vec![(7, "test-sleep")]
    );
    // Under `tests/` the whole file is test code — and no other rule
    // looks at it.
    let it = "fn helper(r: Result<u32, ()>) -> u32 {\n    \
              sleep(D);\n    \
              r.unwrap()\n\
              }\n";
    assert_eq!(
        legacy("crates/cluster/tests/soak.rs", it),
        vec![(2, "test-sleep")]
    );
}

#[test]
fn suppression_requires_a_reason() {
    // A bare `lint:allow(rule)` without the trailing `: reason` does not
    // suppress.
    let src = "pub fn f(r: Result<u32, ()>) -> u32 {\n    \
               // lint:allow(cluster-unwrap)\n    \
               r.unwrap()\n\
               }\n";
    assert_eq!(
        legacy("crates/cluster/src/x.rs", src),
        vec![(3, "cluster-unwrap")]
    );
    let with_reason = "pub fn f(r: Result<u32, ()>) -> u32 {\n    \
               // lint:allow(cluster-unwrap): infallible by construction\n    \
               r.unwrap()\n\
               }\n";
    assert_eq!(legacy("crates/cluster/src/x.rs", with_reason), vec![]);
}
