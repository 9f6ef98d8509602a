//! Deterministic, seeded fault injection for the cluster simulator.
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
//! * **scheduled** — exact `(node, pass, op)` points (panic, hang,
//!   drop, corrupt, scan error). Each scheduled fault fires **once**:
//!   the fired flag is shared across clones of the plan, so when
//!   degraded-mode recovery re-runs a pass the fault does not re-fire
//!   and the retry can converge.
//!
//! The plan is pure data; the hooks that consult it live in
//! [`crate::NodeCtx`] (send/recv and scan) and every injected fault is
//! charged to the node's ledger ([`crate::NodeStatsSnapshot`]).

use gar_types::{Error, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Kinds of faults a scheduled point can inject.
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
}

impl FaultOp {
    fn parse(s: &str) -> Option<FaultOp> {
        Some(match s {
            "panic" => FaultOp::Panic,
            "hang" => FaultOp::Hang,
            "drop" => FaultOp::Drop,
            "corrupt" => FaultOp::Corrupt,
            "scan" => FaultOp::ScanError,
            _ => return None,
        })
    }

    fn name(&self) -> &'static str {
        match self {
            FaultOp::Panic => "panic",
            FaultOp::Hang => "hang",
            FaultOp::Drop => "drop",
            FaultOp::Corrupt => "corrupt",
            FaultOp::ScanError => "scan",
        }
    }
}

/// One scheduled `(node, pass, op)` fault point.
#[derive(Clone, Debug)]
pub struct ScheduledFault {
    /// Node the fault fires on.
    pub node: usize,
    /// Mining pass the fault fires in (pass 1 is the item-counting pass).
    pub pass: usize,
    /// What to inject.
    pub op: FaultOp,
    /// Shared across clones of the plan: a fault consumed by one run
    /// attempt stays consumed when recovery re-runs the pass.
    fired: Arc<AtomicBool>,
}

impl ScheduledFault {
    /// A not-yet-fired scheduled fault.
    pub fn new(node: usize, pass: usize, op: FaultOp) -> ScheduledFault {
        ScheduledFault {
            node,
            pass,
            op,
            fired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Consumes the fault; only the first caller sees `true`.
    fn take(&self) -> bool {
        !self.fired.swap(true, Ordering::SeqCst)
    }

    /// Whether the fault has already fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }
}

/// Kinds of faults the serving tier can inject (see `gar-serve`). They
/// address server-side entities rather than mining nodes: accepted
/// connections (in accept order), shard workers (by shard id and job
/// sequence number), and store-reload attempts (in request order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeFaultOp {
    /// Drop the connection right after reading a request, before any
    /// response byte — the client sees a reset mid-query.
    ConnReset,
    /// Write the next response frame in tiny chunks with delays between
    /// them (partial writes; the client's read loop must reassemble).
    SlowFrame,
    /// Panic the shard worker at the given job number (1-based).
    ShardPanic,
    /// Stall the shard worker for the plan's `hang` duration at the
    /// given job number — backlog builds behind it.
    ShardStall,
    /// Corrupt the bytes of the numbered reload attempt (1-based) after
    /// they are read but before validation — the swap must be rejected
    /// while the old epoch keeps serving.
    StaleSwap,
}

impl ServeFaultOp {
    fn parse(s: &str) -> Option<ServeFaultOp> {
        Some(match s {
            "conn-reset" => ServeFaultOp::ConnReset,
            "slow-frame" => ServeFaultOp::SlowFrame,
            "shard-panic" => ServeFaultOp::ShardPanic,
            "shard-stall" => ServeFaultOp::ShardStall,
            "stale-swap" => ServeFaultOp::StaleSwap,
            _ => return None,
        })
    }

    fn name(&self) -> &'static str {
        match self {
            ServeFaultOp::ConnReset => "conn-reset",
            ServeFaultOp::SlowFrame => "slow-frame",
            ServeFaultOp::ShardPanic => "shard-panic",
            ServeFaultOp::ShardStall => "shard-stall",
            ServeFaultOp::StaleSwap => "stale-swap",
        }
    }
}

/// One scheduled serve-side fault point. `at` is the connection index,
/// shard id, or reload number depending on the op; `job` is the 1-based
/// job sequence number for shard ops (0 otherwise).
#[derive(Clone, Debug)]
pub struct ServeFault {
    /// What to inject.
    pub op: ServeFaultOp,
    /// Connection index (`c`), shard id (`s`), or reload number (`r`).
    pub at: usize,
    /// Job sequence number within the shard (`q`, 1-based); 0 for
    /// connection and reload faults.
    pub job: usize,
    /// Shared across clones, exactly like [`ScheduledFault::fired`].
    fired: Arc<AtomicBool>,
}

impl ServeFault {
    /// A not-yet-fired serve fault.
    pub fn new(op: ServeFaultOp, at: usize, job: usize) -> ServeFault {
        ServeFault {
            op,
            at,
            job,
            fired: Arc::new(AtomicBool::new(false)),
        }
    }

    fn take(&self) -> bool {
        !self.fired.swap(true, Ordering::SeqCst)
    }

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
    /// Exact fault points.
    pub scheduled: Vec<ScheduledFault>,
    /// Exact serve-side fault points (consulted by `gar-serve`).
    pub serve: Vec<ServeFault>,
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
            serve: Vec::new(),
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

    /// Builder-style addition of a scheduled fault point.
    pub fn schedule(mut self, node: usize, pass: usize, op: FaultOp) -> FaultPlan {
        self.scheduled.push(ScheduledFault::new(node, pass, op));
        self
    }

    /// Builder-style addition of a serve-side fault point.
    pub fn schedule_serve(mut self, op: ServeFaultOp, at: usize, job: usize) -> FaultPlan {
        self.serve.push(ServeFault::new(op, at, job));
        self
    }

    /// Consumes the first unfired connection fault matching `(op, conn)`.
    /// `conn` is the index of the connection in accept order (0-based).
    pub fn take_serve_conn(&self, op: ServeFaultOp, conn: usize) -> bool {
        debug_assert!(matches!(
            op,
            ServeFaultOp::ConnReset | ServeFaultOp::SlowFrame
        ));
        self.serve
            .iter()
            .filter(|f| f.op == op && f.at == conn)
            .any(|f| f.take())
    }

    /// Consumes the first unfired shard fault matching `(op, shard, job)`.
    /// `job` is the 1-based job sequence number the shard worker is about
    /// to process (counted across restarts).
    pub fn take_serve_shard(&self, op: ServeFaultOp, shard: usize, job: usize) -> bool {
        debug_assert!(matches!(
            op,
            ServeFaultOp::ShardPanic | ServeFaultOp::ShardStall
        ));
        self.serve
            .iter()
            .filter(|f| f.op == op && f.at == shard && f.job == job)
            .any(|f| f.take())
    }

    /// Consumes the stale-swap fault for the numbered reload attempt
    /// (1-based, counted across the server's lifetime).
    pub fn take_serve_reload(&self, reload: usize) -> bool {
        self.serve
            .iter()
            .filter(|f| f.op == ServeFaultOp::StaleSwap && f.at == reload)
            .any(|f| f.take())
    }

    /// Parses the CLI `--faults` spec: comma-separated tokens, e.g.
    /// `seed=42,p-drop=0.01,delay-ms=2,panic@n1p2,scan@n0p1`.
    ///
    /// Key/value tokens: `seed`, `p-drop`, `p-dup`, `p-corrupt`,
    /// `p-delay`, `p-scan` (all probabilities in `[0, 1]`), `delay-ms`,
    /// `hang-ms`. Scheduled tokens: `<op>@n<node>p<pass>` with `op` one
    /// of `panic`, `hang`, `drop`, `corrupt`, `scan`.
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
            } else if let Some((op, at)) = tok.split_once('@') {
                if let Some(op) = ServeFaultOp::parse(op) {
                    let fault = match op {
                        ServeFaultOp::ConnReset | ServeFaultOp::SlowFrame => {
                            let conn = at
                                .strip_prefix('c')
                                .and_then(|c| c.parse().ok())
                                .ok_or_else(|| bad(tok, "expected <op>@c<conn>"))?;
                            ServeFault::new(op, conn, 0)
                        }
                        ServeFaultOp::ShardPanic | ServeFaultOp::ShardStall => {
                            let rest = at
                                .strip_prefix('s')
                                .ok_or_else(|| bad(tok, "expected <op>@s<shard>q<job>"))?;
                            let (shard, job) = rest
                                .split_once('q')
                                .ok_or_else(|| bad(tok, "expected <op>@s<shard>q<job>"))?;
                            let shard = shard
                                .parse()
                                .map_err(|_| bad(tok, "shard must be an integer"))?;
                            let job: usize = job
                                .parse()
                                .map_err(|_| bad(tok, "job must be an integer"))?;
                            if job == 0 {
                                return Err(bad(tok, "job numbers are 1-based"));
                            }
                            ServeFault::new(op, shard, job)
                        }
                        ServeFaultOp::StaleSwap => {
                            let reload: usize =
                                at.strip_prefix('r')
                                    .and_then(|r| r.parse().ok())
                                    .ok_or_else(|| bad(tok, "expected stale-swap@r<reload>"))?;
                            if reload == 0 {
                                return Err(bad(tok, "reload numbers are 1-based"));
                            }
                            ServeFault::new(op, reload, 0)
                        }
                    };
                    plan.serve.push(fault);
                    continue;
                }
                let op = FaultOp::parse(op)
                    .ok_or_else(|| bad(tok, "op must be panic|hang|drop|corrupt|scan"))?;
                let rest = at
                    .strip_prefix('n')
                    .ok_or_else(|| bad(tok, "expected <op>@n<node>p<pass>"))?;
                let (node, pass) = rest
                    .split_once('p')
                    .ok_or_else(|| bad(tok, "expected <op>@n<node>p<pass>"))?;
                let node = node
                    .parse()
                    .map_err(|_| bad(tok, "node must be an integer"))?;
                let pass = pass
                    .parse()
                    .map_err(|_| bad(tok, "pass must be an integer"))?;
                plan.scheduled.push(ScheduledFault::new(node, pass, op));
            } else {
                return Err(bad(tok, "expected key=value or <op>@n<node>p<pass>"));
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
        for s in &self.scheduled {
            parts.push(format!("{}@n{}p{}", s.op.name(), s.node, s.pass));
        }
        for f in &self.serve {
            parts.push(match f.op {
                ServeFaultOp::ConnReset | ServeFaultOp::SlowFrame => {
                    format!("{}@c{}", f.op.name(), f.at)
                }
                ServeFaultOp::ShardPanic | ServeFaultOp::ShardStall => {
                    format!("{}@s{}q{}", f.op.name(), f.at, f.job)
                }
                ServeFaultOp::StaleSwap => format!("{}@r{}", f.op.name(), f.at),
            });
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
            && self.serve.is_empty()
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

    /// Consumes the first unfired scheduled fault matching `(this node,
    /// current pass, op)`.
    fn take_scheduled(&self, op: FaultOp) -> bool {
        self.plan
            .scheduled
            .iter()
            .filter(|s| s.node == self.node && s.pass == self.pass.get() && s.op == op)
            .any(|s| s.take())
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
        assert_eq!((plan.scheduled[0].node, plan.scheduled[0].pass), (1, 2));
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
        assert_eq!(plan.serve.len(), 5);
        assert_eq!(plan.serve[0].op, ServeFaultOp::ConnReset);
        assert_eq!(plan.serve[0].at, 0);
        assert_eq!(
            (plan.serve[2].op, plan.serve[2].at, plan.serve[2].job),
            (ServeFaultOp::ShardPanic, 1, 4)
        );
        assert_eq!(
            (plan.serve[4].op, plan.serve[4].at),
            (ServeFaultOp::StaleSwap, 1)
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
    fn serve_faults_fire_once_at_their_point() {
        let plan = FaultPlan::with_seed(0)
            .schedule_serve(ServeFaultOp::ConnReset, 1, 0)
            .schedule_serve(ServeFaultOp::ShardPanic, 0, 3)
            .schedule_serve(ServeFaultOp::StaleSwap, 2, 0);
        // Wrong addresses never fire.
        assert!(!plan.take_serve_conn(ServeFaultOp::ConnReset, 0));
        assert!(!plan.take_serve_shard(ServeFaultOp::ShardPanic, 0, 2));
        assert!(!plan.take_serve_shard(ServeFaultOp::ShardStall, 0, 3));
        assert!(!plan.take_serve_reload(1));
        // Right addresses fire exactly once, even through a clone.
        let clone = plan.clone();
        assert!(clone.take_serve_conn(ServeFaultOp::ConnReset, 1));
        assert!(!plan.take_serve_conn(ServeFaultOp::ConnReset, 1));
        assert!(plan.take_serve_shard(ServeFaultOp::ShardPanic, 0, 3));
        assert!(!clone.take_serve_shard(ServeFaultOp::ShardPanic, 0, 3));
        assert!(plan.take_serve_reload(2));
        assert!(!plan.take_serve_reload(2));
        assert!(plan.serve.iter().all(|f| f.fired()));
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("seed=7").unwrap();
        assert!(plan.is_empty());
        assert!(!plan.clone().schedule(0, 1, FaultOp::Panic).is_empty());
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
        let plan = FaultPlan::with_seed(0).schedule(1, 2, FaultOp::Panic);
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
        let plan = FaultPlan::with_seed(0).schedule(1, 2, FaultOp::ScanError);
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
