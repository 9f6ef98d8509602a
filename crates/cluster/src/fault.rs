//! Deterministic, seeded fault injection for the cluster simulator and
//! the serving tier.
//!
//! A [`FaultPlan`] describes which faults to inject and where. Faults
//! come in two flavors:
//!
//! * **probabilistic** — message drop / duplication / corruption /
//!   delay at the [`crate::NodeCtx`] send boundary and read errors at
//!   the partition-scan boundary, each drawn from a per-node SplitMix64
//!   stream seeded from `(plan seed, node id)`. Because every node's
//!   operation sequence is deterministic and the stream is private to
//!   the node, the *same faults fire at the same operations on every
//!   run of the same plan*, regardless of thread scheduling.
//! * **scheduled** — one kind of fault point, a [`FaultOp`] at a
//!   two-coordinate address: `(node, pass)` for the mining ops,
//!   `(connection)`, `(shard, job)` or `(reload)` for the serving ops
//!   `gar-serve` consults. Each point fires **once**: the fired flag is
//!   shared across clones of the plan, so when degraded-mode recovery
//!   re-runs a pass the fault does not re-fire and the retry can
//!   converge.
//!
//! The plan is pure data; the hooks that consult it live in
//! [`crate::NodeCtx`] (send/recv and scan) and in `gar-serve`, and every
//! fault injected into a node is charged to its ledger
//! ([`crate::NodeStatsSnapshot`]).

use gar_types::{Error, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Kinds of faults a scheduled point can inject. The first five fire on
/// a mining node at `[node, pass]`; the rest in `gar-serve`, at
/// `[connection, 0]`, `[shard, job]` or `[reload, 0]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// Panic the node's thread at the start of the pass.
    Panic,
    /// Park the node past its peers' deadlines at the start of the pass.
    Hang,
    /// Silently drop the node's next outgoing message in the pass.
    Drop,
    /// Corrupt the payload of the node's next outgoing message in the pass.
    Corrupt,
    /// Fail the node's next partition-scan open in the pass.
    ScanError,
    /// Drop the connection right after reading a request, before any
    /// response byte — the client sees a reset mid-query.
    ConnReset,
    /// Write the next response frame in tiny chunks with delays between
    /// them (partial writes; the client's read loop must reassemble).
    SlowFrame,
    /// Panic the shard worker at the given job number (1-based, counted
    /// across restarts).
    ShardPanic,
    /// Stall the shard worker for the plan's `hang` duration at the
    /// given job number — backlog builds behind it.
    ShardStall,
    /// Corrupt the bytes of the numbered reload attempt (1-based) after
    /// they are read but before validation — the swap must be rejected while the
    /// old epoch keeps serving.
    StaleSwap,
}

/// The `--faults` grammar of each op: its spec name and the letters of
/// its address, one per coordinate (`at[0]`, then `at[1]`; an op with
/// one letter leaves `at[1]` at 0). The `q` and `r` coordinates count
/// from 1.
const GRAMMAR: [(FaultOp, &str, &str); 10] = [
    (FaultOp::Panic, "panic", "np"),
    (FaultOp::Hang, "hang", "np"),
    (FaultOp::Drop, "drop", "np"),
    (FaultOp::Corrupt, "corrupt", "np"),
    (FaultOp::ScanError, "scan", "np"),
    (FaultOp::ConnReset, "conn-reset", "c"),
    (FaultOp::SlowFrame, "slow-frame", "c"),
    (FaultOp::ShardPanic, "shard-panic", "sq"),
    (FaultOp::ShardStall, "shard-stall", "sq"),
    (FaultOp::StaleSwap, "stale-swap", "r"),
];

impl FaultOp {
    /// The op's spec name and address letters.
    fn grammar(self) -> (&'static str, &'static str) {
        GRAMMAR
            .iter()
            .find(|(op, ..)| *op == self)
            .map_or(("", ""), |&(_, name, letters)| (name, letters))
    }
}

/// Parses a scheduled token's address (`n1p2`, `c0`, `s1q4`, `r1`) by
/// its op's letters; `None` if it does not have exactly that shape.
fn parse_at(letters: &str, mut addr: &str) -> Option<[usize; 2]> {
    let mut at = [0; 2];
    for (slot, letter) in at.iter_mut().zip(letters.chars()) {
        let rest = addr.strip_prefix(letter)?;
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        let (number, tail) = rest.split_at(digits);
        *slot = number.parse().ok()?;
        if *slot == 0 && "qr".contains(letter) {
            return None;
        }
        addr = tail;
    }
    addr.is_empty().then_some(at)
}

/// One scheduled fault point: `op` at address `at`.
#[derive(Clone, Debug)]
pub struct ScheduledFault {
    /// What to inject.
    pub op: FaultOp,
    /// Where: `[node, pass]`, `[connection, 0]`, `[shard, job]` or
    /// `[reload, 0]`.
    pub at: [usize; 2],
    /// Shared across clones of the plan: a fault consumed by one run
    /// attempt stays consumed when recovery re-runs the pass.
    fired: Arc<AtomicBool>,
}

impl ScheduledFault {
    /// Whether the fault has already fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }
}

/// A deterministic fault-injection plan for one cluster run (or a
/// sequence of recovery attempts over the same run).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for the per-node probabilistic streams.
    pub seed: u64,
    /// Probability of silently dropping an outgoing message.
    pub p_drop: f64,
    /// Probability of duplicating an outgoing message.
    pub p_dup: f64,
    /// Probability of corrupting an outgoing message's payload.
    pub p_corrupt: f64,
    /// Probability of delaying an outgoing message by [`FaultPlan::delay`].
    pub p_delay: f64,
    /// Probability of failing a partition-scan open.
    pub p_scan_error: f64,
    /// Sleep injected when a delay fault fires.
    pub delay: Duration,
    /// Sleep injected when a hang fault fires; must exceed the peers'
    /// deadline for the hang to be observable as a timeout.
    pub hang: Duration,
    /// Exact fault points, in spec order.
    pub scheduled: Vec<ScheduledFault>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            p_drop: 0.0,
            p_dup: 0.0,
            p_corrupt: 0.0,
            p_delay: 0.0,
            p_scan_error: 0.0,
            delay: Duration::from_millis(1),
            hang: Duration::from_millis(500),
            scheduled: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn with_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Builder-style addition of a fault point: `op` at `at`.
    pub fn schedule(mut self, op: FaultOp, at: [usize; 2]) -> FaultPlan {
        self.scheduled.push(ScheduledFault {
            op,
            at,
            fired: Arc::new(AtomicBool::new(false)),
        });
        self
    }

    /// Consumes the first unfired fault point of `op` at `at`; only the
    /// first caller (across clones of the plan) sees `true`.
    pub fn take(&self, op: FaultOp, at: [usize; 2]) -> bool {
        self.scheduled
            .iter()
            .filter(|f| f.op == op && f.at == at)
            .any(|f| !f.fired.swap(true, Ordering::SeqCst))
    }

    /// Parses the CLI `--faults` spec: comma-separated tokens, e.g.
    /// `seed=42,p-drop=0.01,delay-ms=2,panic@n1p2,scan@n0p1`.
    ///
    /// Key/value tokens: `seed`, `p-drop`, `p-dup`, `p-corrupt`,
    /// `p-delay`, `p-scan` (all probabilities in `[0, 1]`), `delay-ms`,
    /// `hang-ms`. Scheduled tokens: `<op>@<address>`, the address being
    /// the op's letters each followed by a number (see [`FaultOp`]):
    /// `panic|hang|drop|corrupt|scan@n<node>p<pass>`,
    /// `conn-reset|slow-frame@c<conn>`, `shard-panic|shard-stall@s<shard>q<job>`
    /// and `stale-swap@r<reload>`, with `q` and `r` 1-based.
    pub fn parse(spec: &str) -> Result<FaultPlan> {
        let bad =
            |tok: &str, why: &str| Error::InvalidConfig(format!("fault spec token `{tok}`: {why}"));
        let mut plan = FaultPlan::default();
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some((key, value)) = tok.split_once('=') {
                match key {
                    "seed" => {
                        plan.seed = value.parse().map_err(|_| bad(tok, "seed must be a u64"))?
                    }
                    "delay-ms" => {
                        let ms: u64 = value.parse().map_err(|_| bad(tok, "delay must be in ms"))?;
                        plan.delay = Duration::from_millis(ms);
                    }
                    "hang-ms" => {
                        let ms: u64 = value.parse().map_err(|_| bad(tok, "hang must be in ms"))?;
                        plan.hang = Duration::from_millis(ms);
                    }
                    "p-drop" | "p-dup" | "p-corrupt" | "p-delay" | "p-scan" => {
                        let p: f64 = value
                            .parse()
                            .map_err(|_| bad(tok, "probability must be a float"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(bad(tok, "probability must be within [0, 1]"));
                        }
                        match key {
                            "p-drop" => plan.p_drop = p,
                            "p-dup" => plan.p_dup = p,
                            "p-corrupt" => plan.p_corrupt = p,
                            "p-delay" => plan.p_delay = p,
                            _ => plan.p_scan_error = p,
                        }
                    }
                    _ => return Err(bad(tok, "unknown key")),
                }
            } else if let Some((name, addr)) = tok.split_once('@') {
                let &(op, _, letters) = GRAMMAR
                    .iter()
                    .find(|(_, n, _)| *n == name)
                    .ok_or_else(|| bad(tok, "unknown fault op"))?;
                let at = parse_at(letters, addr).ok_or_else(|| {
                    let shape: String = letters.chars().map(|l| format!("{l}<n>")).collect();
                    bad(
                        tok,
                        &format!("expected {name}@{shape} (q and r count from 1)"),
                    )
                })?;
                plan = plan.schedule(op, at);
            } else {
                return Err(bad(tok, "expected key=value or <op>@<address>"));
            }
        }
        Ok(plan)
    }

    /// Renders the plan back to the spec grammar (for reports and
    /// reproduction instructions).
    pub fn render(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        let d = FaultPlan::default();
        let mut prob = |key: &str, v: f64| {
            if v > 0.0 {
                parts.push(format!("{key}={v}"));
            }
        };
        prob("p-drop", self.p_drop);
        prob("p-dup", self.p_dup);
        prob("p-corrupt", self.p_corrupt);
        prob("p-delay", self.p_delay);
        prob("p-scan", self.p_scan_error);
        if self.delay != d.delay {
            parts.push(format!("delay-ms={}", self.delay.as_millis()));
        }
        if self.hang != d.hang {
            parts.push(format!("hang-ms={}", self.hang.as_millis()));
        }
        for f in &self.scheduled {
            let (name, letters) = f.op.grammar();
            let addr: String = letters
                .chars()
                .zip(f.at)
                .map(|(l, v)| format!("{l}{v}"))
                .collect();
            parts.push(format!("{name}@{addr}"));
        }
        parts.join(",")
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.p_drop == 0.0
            && self.p_dup == 0.0
            && self.p_corrupt == 0.0
            && self.p_delay == 0.0
            && self.p_scan_error == 0.0
            && self.scheduled.is_empty()
    }

    /// Per-node injection state for one run attempt.
    pub(crate) fn node_state(&self, node: usize) -> FaultState {
        FaultState {
            plan: self.clone(),
            node,
            rng: std::cell::Cell::new(
                self.seed
                    .wrapping_add((node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
            pass: std::cell::Cell::new(0),
        }
    }
}

/// Effects to apply to one outgoing message.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct SendEffects {
    pub drop: bool,
    pub duplicate: bool,
    pub corrupt: bool,
    pub delay: Option<Duration>,
}

/// One node's view of the plan: a private RNG stream plus the current
/// pass number. All methods take `&self` (interior mutability) because
/// [`crate::NodeCtx`] hands out shared references; a `FaultState` is
/// only ever used from its own node's thread.
pub(crate) struct FaultState {
    plan: FaultPlan,
    node: usize,
    rng: std::cell::Cell<u64>,
    pass: std::cell::Cell<usize>,
}

impl FaultState {
    /// SplitMix64 step.
    fn next_u64(&self) -> u64 {
        let mut s = self.rng.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.rng.set(s);
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        s ^ (s >> 31)
    }

    /// Uniform draw in `[0, 1)`. Always advances the stream so fault
    /// positions stay aligned across runs regardless of which earlier
    /// faults fired.
    fn roll(&self, p: f64) -> bool {
        let draw = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        p > 0.0 && draw < p
    }

    pub fn set_pass(&self, k: usize) {
        self.pass.set(k);
    }

    /// Consumes the first unfired scheduled fault of `op` at `(this
    /// node, current pass)`.
    fn take_scheduled(&self, op: FaultOp) -> bool {
        self.plan.take(op, [self.node, self.pass.get()])
    }

    /// Faults to apply to the next outgoing message.
    pub fn on_send(&self) -> SendEffects {
        // Fixed draw order keeps the stream aligned no matter what fires.
        let drop = self.roll(self.plan.p_drop) || self.take_scheduled(FaultOp::Drop);
        let duplicate = self.roll(self.plan.p_dup);
        let corrupt = self.roll(self.plan.p_corrupt) || self.take_scheduled(FaultOp::Corrupt);
        let delay = self.roll(self.plan.p_delay).then_some(self.plan.delay);
        SendEffects {
            drop,
            duplicate,
            corrupt,
            delay,
        }
    }

    /// Whether to fail the next partition-scan open.
    pub fn on_scan(&self) -> bool {
        let rolled = self.roll(self.plan.p_scan_error);
        rolled || self.take_scheduled(FaultOp::ScanError)
    }

    /// Pass-start fault, if one is scheduled here: `Panic` or `Hang`.
    pub fn on_pass_start(&self) -> Option<FaultOp> {
        if self.take_scheduled(FaultOp::Panic) {
            Some(FaultOp::Panic)
        } else if self.take_scheduled(FaultOp::Hang) {
            Some(FaultOp::Hang)
        } else {
            None
        }
    }

    pub fn hang_duration(&self) -> Duration {
        self.plan.hang
    }
}

/// Bounded retry with linear backoff for *retryable* errors
/// ([`Error::is_retryable`]): transient I/O (including injected scan
/// faults) and timeouts. Fatal errors (corruption, protocol violations,
/// node failures) pass through on the first occurrence.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retries").
    pub max_attempts: usize,
    /// Sleep before attempt `k` is `backoff * k`.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// Runs `f`, retrying retryable failures up to the attempt budget.
    pub fn run<T>(&self, mut f: impl FnMut() -> Result<T>) -> Result<T> {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt < attempts => {
                    #[expect(clippy::disallowed_methods, reason = "the policy's linear back-off")]
                    std::thread::sleep(self.backoff * attempt as u32);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec_roundtrips() {
        let plan =
            FaultPlan::parse("seed=42, p-drop=0.25, delay-ms=3, panic@n1p2, scan@n0p1").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.p_drop, 0.25);
        assert_eq!(plan.delay, Duration::from_millis(3));
        assert_eq!(plan.scheduled.len(), 2);
        assert_eq!(plan.scheduled[0].op, FaultOp::Panic);
        assert_eq!(plan.scheduled[0].at, [1, 2]);
        let rendered = plan.render();
        let reparsed = FaultPlan::parse(&rendered).unwrap();
        assert_eq!(reparsed.render(), rendered);
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        for bad in [
            "p-drop=2.0",
            "p-drop=x",
            "seed=-1",
            "explode@n1p2",
            "panic@1p2",
            "panic@n1",
            "frobnicate",
            "p-frob=0.1",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig(_)),
                "`{bad}` should be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn parse_serve_tokens_roundtrip() {
        let spec =
            "seed=7,conn-reset@c0,slow-frame@c3,shard-panic@s1q4,shard-stall@s0q2,stale-swap@r1";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.scheduled.len(), 5);
        assert_eq!(plan.scheduled[0].op, FaultOp::ConnReset);
        assert_eq!(plan.scheduled[0].at, [0, 0]);
        assert_eq!(
            (plan.scheduled[2].op, plan.scheduled[2].at),
            (FaultOp::ShardPanic, [1, 4])
        );
        assert_eq!(
            (plan.scheduled[4].op, plan.scheduled[4].at),
            (FaultOp::StaleSwap, [1, 0])
        );
        assert!(!plan.is_empty());
        let rendered = plan.render();
        let reparsed = FaultPlan::parse(&rendered).unwrap();
        assert_eq!(reparsed.render(), rendered);
        assert_eq!(rendered, spec);
    }

    #[test]
    fn parse_rejects_malformed_serve_tokens() {
        for bad in [
            "conn-reset@n1p2",
            "conn-reset@c",
            "shard-panic@s1",
            "shard-panic@s1q0",
            "shard-stall@q1s2",
            "stale-swap@r0",
            "stale-swap@c1",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig(_)),
                "`{bad}` should be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn mixed_node_and_serve_tokens_render_in_spec_order() {
        let spec = "seed=1,stale-swap@r2,panic@n0p1,conn-reset@c3,scan@n2p4";
        assert_eq!(FaultPlan::parse(spec).unwrap().render(), spec);
    }

    #[test]
    fn serve_faults_fire_once_at_their_point() {
        let plan = FaultPlan::with_seed(0)
            .schedule(FaultOp::ConnReset, [1, 0])
            .schedule(FaultOp::ShardPanic, [0, 3])
            .schedule(FaultOp::StaleSwap, [2, 0]);
        // Wrong addresses never fire.
        assert!(!plan.take(FaultOp::ConnReset, [0, 0]));
        assert!(!plan.take(FaultOp::ShardPanic, [0, 2]));
        assert!(!plan.take(FaultOp::ShardStall, [0, 3]));
        assert!(!plan.take(FaultOp::StaleSwap, [1, 0]));
        // Right addresses fire exactly once, even through a clone.
        let clone = plan.clone();
        assert!(clone.take(FaultOp::ConnReset, [1, 0]));
        assert!(!plan.take(FaultOp::ConnReset, [1, 0]));
        assert!(plan.take(FaultOp::ShardPanic, [0, 3]));
        assert!(!clone.take(FaultOp::ShardPanic, [0, 3]));
        assert!(plan.take(FaultOp::StaleSwap, [2, 0]));
        assert!(!plan.take(FaultOp::StaleSwap, [2, 0]));
        assert!(plan.scheduled.iter().all(|f| f.fired()));
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("seed=7").unwrap();
        assert!(plan.is_empty());
        assert!(!plan.clone().schedule(FaultOp::Panic, [0, 1]).is_empty());
    }

    #[test]
    fn per_node_streams_are_deterministic_and_distinct() {
        let plan = FaultPlan {
            p_drop: 0.5,
            ..FaultPlan::with_seed(99)
        };
        let a1: Vec<bool> = {
            let s = plan.node_state(0);
            (0..64).map(|_| s.on_send().drop).collect()
        };
        let a2: Vec<bool> = {
            let s = plan.node_state(0);
            (0..64).map(|_| s.on_send().drop).collect()
        };
        let b: Vec<bool> = {
            let s = plan.node_state(1);
            (0..64).map(|_| s.on_send().drop).collect()
        };
        assert_eq!(a1, a2, "same (seed, node) must replay identically");
        assert_ne!(a1, b, "different nodes must draw different streams");
    }

    #[test]
    fn scheduled_fault_fires_once_across_clones() {
        let plan = FaultPlan::with_seed(0).schedule(FaultOp::Panic, [1, 2]);
        let attempt1 = plan.clone().node_state(1);
        attempt1.set_pass(2);
        assert_eq!(attempt1.on_pass_start(), Some(FaultOp::Panic));
        // A recovery attempt clones the plan again: the fault stays consumed.
        let attempt2 = plan.clone().node_state(1);
        attempt2.set_pass(2);
        assert_eq!(attempt2.on_pass_start(), None);
        assert!(plan.scheduled[0].fired());
    }

    #[test]
    fn scheduled_fault_only_fires_at_its_point() {
        let plan = FaultPlan::with_seed(0).schedule(FaultOp::ScanError, [1, 2]);
        let wrong_node = plan.node_state(0);
        wrong_node.set_pass(2);
        assert!(!wrong_node.on_scan());
        let wrong_pass = plan.node_state(1);
        wrong_pass.set_pass(1);
        assert!(!wrong_pass.on_scan());
        let right = plan.node_state(1);
        right.set_pass(2);
        assert!(right.on_scan());
        assert!(!right.on_scan(), "fires once");
    }

    #[test]
    fn retry_policy_retries_retryable_and_gives_up() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        };
        // Succeeds on the final attempt.
        let mut calls = 0;
        let out: Result<u32> = policy.run(|| {
            calls += 1;
            if calls < 3 {
                Err(Error::io("transient", std::io::Error::other("x")))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls, 3);
        // Exhausts the budget.
        let mut calls = 0;
        let out: Result<u32> = policy.run(|| {
            calls += 1;
            Err(Error::io("always", std::io::Error::other("x")))
        });
        assert!(matches!(out, Err(Error::Io { .. })));
        assert_eq!(calls, 3);
    }

    #[test]
    fn retry_policy_passes_fatal_errors_through() {
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let out: Result<()> = policy.run(|| {
            calls += 1;
            Err(Error::Corrupt("bad bytes".into()))
        });
        assert!(matches!(out, Err(Error::Corrupt(_))));
        assert_eq!(calls, 1, "fatal errors are not retried");
    }
}
