//! The rule catalog. Six line-oriented rules ported from the original
//! `xtask lint` pass (now matching on sanitized code lines, so string
//! literals and comments can never trigger them), `test-sleep` — the one
//! rule that looks *only* at test code: a `sleep` there is either a
//! synchronisation by timing (flaky under load; use a barrier, a channel
//! or a deadline-bounded poll of the condition) or it is the thing under
//! test, and the latter says so in its allow comment — plus four
//! flow-aware rules that need the item parser and call graph:
//!
//! * `det-taint` — `HashMap`/`HashSet` iteration in any function from
//!   which a serialization/wire/report sink is reachable over the call
//!   graph. Successor of the old `hash-order` rule, whose hard-coded
//!   file list could not follow hash iteration through helpers.
//! * `panic-path` — `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`
//!   (and, within the serve/cluster crates, direct slice indexing)
//!   transitively reachable from a serve connection/worker entry point
//!   or a cluster node body: a panic there kills a handler thread or
//!   poisons a node without an error frame.
//! * `lock-blocking` — a `Mutex`/`RwLock` guard binding held live
//!   across a blocking call (`send`/`recv`/`wait_collective`/socket
//!   I/O): the classic convoy/deadlock shape.
//! * `unsafe-audit` — every `unsafe` occurrence must carry a
//!   `// SAFETY:` justification on the line or in the comment block
//!   directly above it.
//!
//! Suppression for every rule: `// lint:allow(<rule>): <reason>` on the
//! offending line or the comment block above. The reason is mandatory.

use crate::callgraph::CallGraph;
use crate::lexer::is_ident_char;
use crate::source::{call_names, contains_token, find_token, SourceFile};
use crate::Finding;
use std::collections::HashMap;

pub const RULE_WAIT_LOOP: &str = "wait-loop";
pub const RULE_CLUSTER_UNWRAP: &str = "cluster-unwrap";
pub const RULE_RELAXED: &str = "relaxed";
pub const RULE_NO_DEADLINE: &str = "no-deadline";
pub const RULE_NO_INSTANT: &str = "no-instant";
pub const RULE_NO_RAW_NET: &str = "no-raw-net";
pub const RULE_DET_TAINT: &str = "det-taint";
pub const RULE_PANIC_PATH: &str = "panic-path";
pub const RULE_LOCK_BLOCKING: &str = "lock-blocking";
pub const RULE_UNSAFE_AUDIT: &str = "unsafe-audit";
pub const RULE_TEST_SLEEP: &str = "test-sleep";

/// One catalog entry, for `--help`-style output and the JSON report.
pub struct RuleInfo {
    pub name: &'static str,
    /// Present in the original `xtask lint` set (vs. new in `analyze`).
    pub legacy: bool,
    pub summary: &'static str,
}

/// Every rule, in reporting order.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        name: RULE_WAIT_LOOP,
        legacy: true,
        summary: "Condvar::wait must sit inside a while/loop predicate re-check",
    },
    RuleInfo {
        name: RULE_CLUSTER_UNWRAP,
        legacy: true,
        summary: "no unwrap/expect in crates/cluster non-test code",
    },
    RuleInfo {
        name: RULE_RELAXED,
        legacy: true,
        summary: "Ordering::Relaxed needs a nearby `// relaxed:` justification",
    },
    RuleInfo {
        name: RULE_NO_DEADLINE,
        legacy: true,
        summary: "blocking recv/wait in crates/cluster must be deadline-aware",
    },
    RuleInfo {
        name: RULE_NO_INSTANT,
        legacy: true,
        summary: "Instant::now() is forbidden outside crates/obs",
    },
    RuleInfo {
        name: RULE_NO_RAW_NET,
        legacy: true,
        summary: "sockets only in crates/serve; raw stream reads only in the frame codec",
    },
    RuleInfo {
        name: RULE_DET_TAINT,
        legacy: true,
        summary: "no hash-order iteration in functions that reach a wire/report/store sink",
    },
    RuleInfo {
        name: RULE_PANIC_PATH,
        legacy: false,
        summary: "no panic sites reachable from serve handlers or cluster node bodies",
    },
    RuleInfo {
        name: RULE_LOCK_BLOCKING,
        legacy: false,
        summary: "no lock guard held across send/recv/collective/socket calls",
    },
    RuleInfo {
        name: RULE_UNSAFE_AUDIT,
        legacy: false,
        summary: "every `unsafe` needs a `// SAFETY:` justification",
    },
    RuleInfo {
        name: RULE_TEST_SLEEP,
        legacy: false,
        summary: "no sleep in test code outside an allowed bounded poll or injected delay",
    },
];

/// The one file allowed to read raw bytes off a stream: the frame codec
/// whose length guard (`MAX_FRAME_BYTES`) every read passes through.
const FRAME_CODEC_FILE: &str = "crates/serve/src/protocol.rs";

/// How many lines above an `Ordering::Relaxed` site a `relaxed:`
/// justification comment may sit (covers one comment per short fn).
const RELAXED_WINDOW: usize = 12;

/// Files whose functions *are* determinism sinks: they encode wire
/// messages, build rule reports, or persist deterministic artifacts
/// (stores, checkpoints, metrics). A function anywhere in the workspace
/// that transitively calls into one of these is "sink-reaching", and
/// hash-order iteration inside it is flagged by `det-taint`. Unlike the
/// old `HASH_ORDER_SCOPE`, nothing outside this list needs to be
/// enumerated — the call graph finds the callers.
const SINK_FILES: &[&str] = &[
    "crates/mining/src/wire.rs",
    "crates/mining/src/report.rs",
    "crates/mining/src/persist.rs",
    "crates/mining/src/checkpoint.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/store.rs",
    "crates/obs/src/json.rs",
];

/// Files whose functions are panic-audit entry points: the serve
/// accept/connection/worker loops, and the cluster node machinery every
/// mining node body runs on. Everything transitively callable from
/// these must fail with a typed `Error` (poisoning the collectives or
/// answering an error frame), never a panic.
const ENTRY_FILES: &[&str] = &[
    "crates/serve/src/server.rs",
    "crates/cluster/src/runner.rs",
    "crates/cluster/src/node.rs",
];

/// Calls a lock guard must not be held across: message passing,
/// collective waits, connection setup, and frame I/O. Matched as a
/// token immediately followed by `(`.
const BLOCKING_CALLS: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "accept",
    "connect",
    "read_frame",
    "write_frame",
    "wait_collective",
];

/// Cross-file context shared by the flow-aware rules.
pub struct FlowContext {
    /// fn-node → name of the sink it reaches (det-taint witness).
    taint: HashMap<usize, String>,
    /// fn-node → name of the entry that reaches it (panic-path witness).
    panics: HashMap<usize, String>,
}

impl FlowContext {
    pub fn build(graph: &CallGraph) -> FlowContext {
        let sinks = graph.select(|n| !n.in_test && SINK_FILES.contains(&n.file.as_str()));
        let entries = graph.select(|n| !n.in_test && ENTRY_FILES.contains(&n.file.as_str()));
        FlowContext {
            taint: graph.reaching(&sinks),
            panics: graph.reachable_from(&entries),
        }
    }

    fn fn_witness<'a>(
        &'a self,
        map: &'a HashMap<usize, String>,
        graph: &CallGraph,
        sf: &SourceFile,
        line0: usize,
    ) -> Option<&'a str> {
        let f = sf.fn_at(line0 + 1)?;
        let node = graph.node_at(&sf.rel, f.start_line)?;
        map.get(&node).map(String::as_str)
    }

    /// If 0-based `line0` of `sf` sits in a sink-reaching function, the
    /// sink name it reaches.
    pub fn sink_witness(&self, graph: &CallGraph, sf: &SourceFile, line0: usize) -> Option<&str> {
        self.fn_witness(&self.taint, graph, sf, line0)
    }

    /// If 0-based `line0` sits in a function reachable from a
    /// serve/cluster entry point, the entry's name.
    pub fn entry_witness(&self, graph: &CallGraph, sf: &SourceFile, line0: usize) -> Option<&str> {
        self.fn_witness(&self.panics, graph, sf, line0)
    }
}

/// Runs every rule over one file. `graph`/`flow` carry the
/// workspace-level context.
pub fn check_file(sf: &SourceFile, graph: &CallGraph, flow: &FlowContext) -> Vec<Finding> {
    let mut findings = Vec::new();
    let rel = sf.rel.as_str();

    for (i, code) in sf.code.iter().enumerate() {
        let line_no = i + 1;
        let mut emit = |rule: &'static str, msg: String| {
            if !sf.suppressed(i, rule) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: line_no,
                    rule,
                    msg,
                });
            }
        };

        // ----- test-sleep: test code only; every other rule skips it -----
        if sf.in_test[i] {
            if calls(code, "sleep") {
                emit(
                    RULE_TEST_SLEEP,
                    "sleep in test code; synchronise with a barrier, a channel or a \
                     deadline-bounded poll of the condition (a bounded poll's own \
                     back-off sleep takes `lint:allow(test-sleep): <why it is bounded>`)"
                        .to_string(),
                );
            }
            continue;
        }

        // ----- wait-loop: all crates -------------------------------------
        if code.contains(".wait(") && !sf.wait_in_loop[i] {
            emit(
                RULE_WAIT_LOOP,
                "Condvar::wait outside a while/loop predicate re-check; a spurious \
                 or early wakeup returns with the condition unmet"
                    .to_string(),
            );
        }

        // ----- cluster-unwrap: crates/cluster only -----------------------
        if rel.starts_with("crates/cluster/")
            && (code.contains(".unwrap()") || code.contains(".expect("))
        {
            emit(
                RULE_CLUSTER_UNWRAP,
                "unwrap/expect in cluster non-test code; return an Error (and let \
                 the collectives be poisoned) instead of panicking a node"
                    .to_string(),
            );
        }

        // ----- no-deadline: crates/cluster only --------------------------
        if rel.starts_with("crates/cluster/") {
            if let Some(what) = blocking_call_without_deadline(code) {
                emit(
                    RULE_NO_DEADLINE,
                    format!(
                        "blocking `{what}` without a deadline in cluster non-test code; \
                         use the deadline-aware API (NodeCtx::recv / recv_timeout / \
                         wait_timeout) so a hung peer surfaces as Error::Timeout"
                    ),
                );
            }
        }

        // ----- no-instant: everywhere except crates/obs ------------------
        if !rel.starts_with("crates/obs/") && code.contains("Instant::now()") {
            emit(
                RULE_NO_INSTANT,
                "raw Instant::now() outside crates/obs; time through \
                 gar_obs::Stopwatch (or a span) so wall-clock reads stay \
                 observable and out of deterministic artifacts"
                    .to_string(),
            );
        }

        // ----- relaxed: all crates ---------------------------------------
        if code.contains("Ordering::Relaxed")
            && !sf.has_marker_within(i, "relaxed:", RELAXED_WINDOW)
        {
            emit(
                RULE_RELAXED,
                format!(
                    "Ordering::Relaxed without a `// relaxed: <why>` justification \
                     within {RELAXED_WINDOW} lines"
                ),
            );
        }

        // ----- no-raw-net ------------------------------------------------
        if !rel.starts_with("crates/serve/") {
            if let Some(what) = raw_net_token(code) {
                emit(
                    RULE_NO_RAW_NET,
                    format!(
                        "raw `{what}` outside crates/serve; network I/O lives in the \
                         serving crate so every frame passes the MAX_FRAME_BYTES guard \
                         in gar_serve::protocol"
                    ),
                );
            }
        } else if rel != FRAME_CODEC_FILE {
            if let Some(what) = raw_stream_read(code) {
                emit(
                    RULE_NO_RAW_NET,
                    format!(
                        "raw `{what}` outside {FRAME_CODEC_FILE}; read frames through \
                         protocol::read_frame so the length is checked against \
                         MAX_FRAME_BYTES before any allocation"
                    ),
                );
            }
        }

        // ----- panic-path --------------------------------------------
        if let Some(entry) = flow.entry_witness(graph, sf, i) {
            // unwrap/expect in crates/cluster is already the
            // cluster-unwrap rule's finding; don't double-report.
            if !rel.starts_with("crates/cluster/")
                && (code.contains(".unwrap()") || code.contains(".expect("))
            {
                emit(
                    RULE_PANIC_PATH,
                    format!(
                        "unwrap/expect reachable from entry point `{entry}`; a panic \
                         here kills the handler/worker silently — return a typed \
                         Error so it surfaces as an error frame / Error::Poisoned"
                    ),
                );
            }
            if let Some(mac) = panic_macro(code) {
                emit(
                    RULE_PANIC_PATH,
                    format!(
                        "`{mac}` reachable from entry point `{entry}`; convert to a \
                         typed Error so the failure surfaces as an error frame / \
                         Error::Poisoned instead of a dead thread"
                    ),
                );
            }
            if (rel.starts_with("crates/serve/") || rel.starts_with("crates/cluster/"))
                && has_direct_indexing(code)
            {
                emit(
                    RULE_PANIC_PATH,
                    format!(
                        "direct slice indexing reachable from entry point `{entry}`; \
                         an out-of-bounds here panics the handler — use get()/ \
                         bounds-checked access or justify with a suppression"
                    ),
                );
            }
        }

        // ----- unsafe-audit ------------------------------------------
        if contains_token(code, "unsafe") && !sf.has_safety_comment(i) {
            emit(
                RULE_UNSAFE_AUDIT,
                "`unsafe` without a `// SAFETY:` comment stating the invariant \
                 that makes it sound (on the line or directly above)"
                    .to_string(),
            );
        }
    }

    // ----- det-taint (file-level pass: needs declared-name pool) ---------
    findings.extend(det_taint(sf, graph, flow));

    // ----- lock-blocking (file-level pass: needs guard liveness) ---------
    findings.extend(lock_blocking(sf));

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

// ---------------------------------------------------------------------
// det-taint
// ---------------------------------------------------------------------

/// Declaration-site tracking: collect every identifier declared (or
/// received as a parameter/field) with a `HashMap`/`HashSet` type in
/// this file, then flag iteration over any of them inside functions
/// that can reach a determinism sink.
fn det_taint(sf: &SourceFile, graph: &CallGraph, flow: &FlowContext) -> Vec<Finding> {
    let mut names: Vec<String> = Vec::new();
    for code in &sf.code {
        if !mentions_hash_type(code) {
            continue;
        }
        if let Some(name) = declared_name(code) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    if names.is_empty() {
        return Vec::new();
    }

    let mut findings = Vec::new();
    for (i, code) in sf.code.iter().enumerate() {
        if sf.in_test[i] || sf.suppressed(i, RULE_DET_TAINT) {
            continue;
        }
        let Some(sink) = flow.sink_witness(graph, sf, i) else {
            continue;
        };
        for name in &names {
            if iterates(code, name) {
                findings.push(Finding {
                    file: sf.rel.clone(),
                    line: i + 1,
                    rule: RULE_DET_TAINT,
                    msg: format!(
                        "iteration over hash collection `{name}` in a function that \
                         reaches determinism sink `{sink}`; hash order is \
                         nondeterministic — sort first or use an ordered structure"
                    ),
                });
                break;
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// lock-blocking
// ---------------------------------------------------------------------

/// Guard-liveness walk: a binding whose initializer takes a lock
/// (`.lock()`, RwLock `.read()` / `.write()`) is live until its scope
/// closes or it is explicitly dropped; a blocking call while any guard
/// is live (and not being handed to the call itself) is a finding.
fn lock_blocking(sf: &SourceFile) -> Vec<Finding> {
    struct Guard {
        name: String,
        depth: usize,
        line: usize,
    }
    let mut findings = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: usize = 0;

    for (i, code) in sf.code.iter().enumerate() {
        // Blocking calls are checked against guards bound on *earlier*
        // lines: a guard consumed or taken on the same line (condvar
        // handoff, `drop(g)`, the binding itself) is not "held across".
        if !sf.in_test[i] && !sf.suppressed(i, RULE_LOCK_BLOCKING) {
            if let Some(call) = blocking_call(code) {
                if let Some(g) = guards.iter().find(|g| !contains_token(code, &g.name)) {
                    findings.push(Finding {
                        file: sf.rel.clone(),
                        line: i + 1,
                        rule: RULE_LOCK_BLOCKING,
                        msg: format!(
                            "`{call}(..)` while lock guard `{}` (taken on line {}) is \
                             live; blocking with a lock held convoys every other \
                             locker — drop the guard (or move the blocking call out \
                             of its scope) first",
                            g.name, g.line
                        ),
                    });
                }
            }
        }

        // `drop(name)` / `std::mem::drop(name)` ends a guard early.
        for g_idx in (0..guards.len()).rev() {
            let pat = format!("drop({})", guards[g_idx].name);
            if code.contains(&pat) {
                guards.remove(g_idx);
            }
        }

        // New guard binding?
        if let Some(name) = guard_binding(code) {
            // Brace depth of the binding: after this line's braces.
            let end_depth = line_end_depth(depth, code);
            guards.push(Guard {
                name,
                depth: end_depth,
                line: i + 1,
            });
        }

        // Track depth; kill guards whose scope closed (any dip below
        // their binding depth, so `} else {` ends the if-arm's guards).
        let (min_depth, end_depth) = line_depth_profile(depth, code);
        guards.retain(|g| g.depth <= min_depth);
        depth = end_depth;
    }
    findings
}

/// Does the line call `name` — the identifier as a whole token,
/// immediately followed by `(`?
fn calls(code: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = find_token(&code[from..], name) {
        let after = from + pos + name.len();
        if code[after..].starts_with('(') {
            return true;
        }
        from = after;
    }
    false
}

/// The first blocking-call name on the line, if any.
fn blocking_call(code: &str) -> Option<&'static str> {
    BLOCKING_CALLS
        .iter()
        .copied()
        .find(|name| calls(code, name))
}

/// `let [mut] NAME = <expr containing .lock() / .read() / .write()>`.
fn guard_binding(code: &str) -> Option<String> {
    let has_acquire =
        code.contains(".lock()") || code.contains(".read()") || code.contains(".write()");
    if !has_acquire {
        return None;
    }
    let pos = find_token(code, "let")?;
    let rest = code[pos + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
    if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) || name == "_" {
        return None;
    }
    Some(name)
}

/// (minimum, final) brace depth over the line, starting from `depth`.
fn line_depth_profile(depth: usize, code: &str) -> (usize, usize) {
    let mut d = depth;
    let mut min = depth;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => {
                d = d.saturating_sub(1);
                min = min.min(d);
            }
            _ => {}
        }
    }
    (min, d)
}

fn line_end_depth(depth: usize, code: &str) -> usize {
    line_depth_profile(depth, code).1
}

// ---------------------------------------------------------------------
// Shared helpers (ported from the original text lint; they now run on
// sanitized lines, so literals and comments are invisible to them).
// ---------------------------------------------------------------------

/// Returns the offending call (`.recv()` or `.wait(`) when the line
/// contains a blocking receive/wait with no deadline path. `.recv()` is
/// allowed on the `ctx` receiver by convention: `NodeCtx::recv` *is* the
/// deadline-aware wrapper (it polls `recv_timeout` in poison-checked
/// slices). The `_timeout`/`_deadline` variants never match — the
/// patterns require the opening paren right after the bare name.
fn blocking_call_without_deadline(code: &str) -> Option<&'static str> {
    if code.contains(".wait(") {
        return Some(".wait(");
    }
    let mut from = 0;
    while let Some(rel) = code[from..].find(".recv()") {
        let pos = from + rel;
        if receiver_ident(&code[..pos]) != "ctx" {
            return Some(".recv()");
        }
        from = pos + ".recv()".len();
    }
    None
}

/// The identifier segment immediately preceding a method call:
/// `self.ctx` → "ctx", `rx` → "rx", `self.inbox` → "inbox".
fn receiver_ident(before: &str) -> &str {
    let start = before
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident_char(*c))
        .last()
        .map(|(i, _)| i)
        .unwrap_or(before.len());
    &before[start..]
}

fn starts_with_hash_type(ty: &str) -> bool {
    let ty = ty.strip_prefix('&').unwrap_or(ty).trim_start();
    let ty = ty.strip_prefix("mut ").unwrap_or(ty).trim_start();
    ["FxHashMap", "FxHashSet", "HashMap", "HashSet"]
        .iter()
        .any(|t| ty.starts_with(t) && !is_ident_char(ty[t.len()..].chars().next().unwrap_or('<')))
}

fn mentions_hash_type(code: &str) -> bool {
    ["FxHashMap", "FxHashSet", "HashMap", "HashSet"]
        .iter()
        .any(|t| contains_token(code, t))
}

/// Extracts the declared identifier from a line that mentions a hash
/// type: `let [mut] NAME ...`, or `NAME: [&][mut ]...Hash...` for
/// parameters and struct fields. Returns None for `use` lines, return
/// types and other non-declarations.
fn declared_name(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
        return None;
    }
    // `let [mut] NAME` wins when present (covers `let x: T = ..` and
    // `let x = FxHashMap::default()`), but only when the *top-level*
    // type is the hash collection — `let v: Vec<FxHashSet<u32>> = ..`
    // iterates deterministically and must not poison the name.
    if let Some(pos) = find_token(code, "let") {
        let rest = code[pos + 3..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        let name: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
        if !name.is_empty() {
            let after = rest[name.len()..].trim_start();
            let top_level = if let Some(ann) = after.strip_prefix(':') {
                // Annotated: check the annotation's outermost type.
                let ty = ann.split('=').next().unwrap_or(ann).trim();
                starts_with_hash_type(ty)
            } else if let Some(rhs) = after.strip_prefix('=') {
                // Unannotated: `let m = FxHashMap::default()` etc.
                starts_with_hash_type(rhs.trim_start())
            } else {
                false
            };
            return top_level.then_some(name);
        }
    }
    // Parameter / field: the identifier before the `:` that precedes the
    // hash type token.
    for ty in ["FxHashMap", "FxHashSet", "HashMap", "HashSet"] {
        let Some(tpos) = find_token(code, ty) else {
            continue;
        };
        let before = code[..tpos].trim_end();
        // Skip type-path prefixes (`gar_types::FxHashMap<..>`) and
        // return types (`-> FxHashMap<..>`).
        if before.ends_with("::") || before.ends_with("->") {
            return None;
        }
        let before = before
            .strip_suffix("mut")
            .map(str::trim_end)
            .unwrap_or(before);
        let before = before
            .strip_suffix('&')
            .map(str::trim_end)
            .unwrap_or(before);
        let before = match before.strip_suffix(':') {
            Some(b) => b.trim_end(),
            None => return None,
        };
        let name: String = before
            .chars()
            .rev()
            .take_while(|c| is_ident_char(*c))
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        if !name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return Some(name);
        }
    }
    None
}

/// Does this line iterate `name`? Either a `for .. in` whose iterable
/// mentions the identifier, or a direct iterator-adaptor call on it.
fn iterates(code: &str, name: &str) -> bool {
    for suffix in [
        ".iter()",
        ".iter_mut()",
        ".into_iter()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".drain(",
    ] {
        let pat = format!("{name}{suffix}");
        if let Some(pos) = code.find(&pat) {
            // Reject partial-identifier matches (`sorted_groups.iter()`
            // must not match name `groups`).
            let pre_ok = pos == 0 || !code[..pos].chars().next_back().is_some_and(is_ident_char);
            if pre_ok {
                return true;
            }
        }
    }
    if let Some(for_pos) = find_token(code, "for") {
        let after_for = &code[for_pos..];
        if let Some(in_rel) = find_token(after_for, "in") {
            let iterable = &after_for[in_rel + 2..];
            // `for x in map` / `for x in &map` / `for (k, v) in &mut map`
            if find_token(iterable, name).is_some() {
                return true;
            }
        }
    }
    false
}

/// The socket vocabulary banned outside `crates/serve`. `std::net` is a
/// path fragment rather than an identifier, so a plain substring match
/// is the right test for it.
fn raw_net_token(code: &str) -> Option<&'static str> {
    if code.contains("std::net") {
        return Some("std::net");
    }
    ["TcpListener", "TcpStream", "UdpSocket"]
        .into_iter()
        .find(|t| contains_token(code, t))
}

/// Bulk stream reads banned inside `crates/serve` outside the frame
/// codec. Method-call syntax only: free functions like `std::fs::read`
/// have `::` (not `.`) before the name and stay legal.
fn raw_stream_read(code: &str) -> Option<&'static str> {
    [".read_exact(", ".read_to_end(", ".read("]
        .into_iter()
        .find(|t| code.contains(t))
        .map(|t| t.trim_start_matches('.').trim_end_matches('('))
}

/// A diverging macro in call position: `panic!(`, `unreachable!(`, ...
fn panic_macro(code: &str) -> Option<&'static str> {
    for name in ["panic", "unreachable", "todo", "unimplemented"] {
        let pat = format!("{name}!(");
        if let Some(pos) = code.find(&pat) {
            let pre_ok = pos == 0 || !code[..pos].chars().next_back().is_some_and(is_ident_char);
            // `debug_assert!`-style macros end with the name too; the
            // pre-char check rejects `_panic!(` but `assert` never
            // contains these names.
            if pre_ok {
                return Some(match name {
                    "panic" => "panic!",
                    "unreachable" => "unreachable!",
                    "todo" => "todo!",
                    _ => "unimplemented!",
                });
            }
        }
    }
    None
}

/// Direct indexing: `expr[..]` where `expr` ends in an identifier, a
/// `)` or a `]`. Attribute lines (`#[..]`) and slice *types* (`&[u8]`,
/// `[u8; 4]` in type position) never match because `[` there follows
/// punctuation or whitespace.
fn has_direct_indexing(code: &str) -> bool {
    let trimmed = code.trim_start();
    if trimmed.starts_with('#') {
        return false;
    }
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '[' && i > 0 {
            let p = chars[i - 1];
            if is_ident_char(p) || p == ')' || p == ']' {
                return true;
            }
        }
    }
    false
}

/// Call names mentioned on a line — re-exported for the engine's use in
/// building sink/entry seeds if it ever needs per-line granularity.
#[allow(dead_code)]
pub fn line_calls(code: &str) -> Vec<String> {
    call_names(code)
}
