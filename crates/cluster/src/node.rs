//! The per-node execution context: messaging, collectives, ledgers.
//!
//! Messaging robustness: every envelope carries a per-(sender, receiver)
//! sequence number and a payload checksum. The receiver delivers each
//! sequence number exactly once (injected duplicates are absorbed
//! silently), reports a sequence gap as a [`Error::NodeFailure`] naming
//! the lossy sender, and reports a checksum mismatch as
//! [`Error::Corrupt`] — so of the injectable message faults, duplication
//! is *tolerated* while loss and corruption are *detected* (see
//! DESIGN.md §8).

use crate::collective::Collectives;
use crate::fault::{FaultOp, FaultState};
use crate::stats::NodeStatsSnapshot;
use gar_obs::{Obs, Stopwatch};
use gar_types::{Error, Result};
use std::cell::{Cell, RefCell};
use std::hash::Hasher;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// Reserved message tag marking the end of a node's contribution to the
/// current exchange phase (the distributed-termination token).
pub const CONTROL_TAG_EOS: u32 = u32::MAX;

/// Number of children of `node` in a binomial reduction tree over
/// `0..n` rooted at node 0: in round `r` (step `2^r`), every node
/// congruent to `2^r (mod 2^{r+1})` sends to `node - 2^r` and drops out.
pub(crate) fn binomial_children(node: usize, n: usize) -> usize {
    let mut count = 0;
    let mut step = 1;
    while step < n {
        if node.is_multiple_of(2 * step) {
            if node + step < n {
                count += 1;
            }
        } else {
            break; // this node sends at this round and exits
        }
        step *= 2;
    }
    count
}

/// A point-to-point message on the simulated interconnect.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending node.
    pub from: usize,
    /// Application-defined tag ([`CONTROL_TAG_EOS`] is reserved).
    pub tag: u32,
    /// Payload, shared: a duplicated or re-sent envelope clones the
    /// `Arc`, never the bytes.
    pub payload: Arc<[u8]>,
    /// Per-(sender, receiver) sequence number, assigned at send time.
    /// Lets the receiver absorb duplicates and detect losses.
    pub seq: u64,
    /// Checksum over `(from, tag, seq, payload)`, computed before any
    /// injected corruption so the receiver can detect a damaged payload.
    pub checksum: u64,
}

/// Envelope checksum: FxHash over the header fields and payload bytes.
fn envelope_checksum(from: usize, tag: u32, seq: u64, payload: &[u8]) -> u64 {
    let mut h = gar_types::FxHasher::default();
    h.write_usize(from);
    h.write_u32(tag);
    h.write_u64(seq);
    h.write(payload);
    h.finish()
}

/// Poll granularity of the deadline-aware blocking receive: short enough
/// to observe a poisoned run promptly, long enough to stay off the CPU.
const RECV_POLL_SLICE: Duration = Duration::from_millis(2);

/// Everything one simulated node can do: its identity, its private memory
/// budget, point-to-point messaging with per-byte accounting, and the
/// coordinator collectives. Handed by value to each node's closure by
/// [`crate::Cluster::run`].
///
/// The ctx owns the node's ledger. Every event is charged by one call
/// here, which also writes the obs series that mirror it (`cluster.*`,
/// `collective.*`, `scan.*`, `fault.*`), so the two cannot drift apart.
pub struct NodeCtx {
    node_id: usize,
    memory_budget: u64,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// This node's tallies, never shared with another thread.
    ledger: Cell<NodeStatsSnapshot>,
    collectives: Arc<Collectives>,
    /// Per-destination next outgoing sequence number. `RefCell`: the ctx
    /// is handed out by shared reference but only ever used from its own
    /// node's thread.
    send_seq: RefCell<Vec<u64>>,
    /// Per-sender next expected incoming sequence number.
    recv_seq: RefCell<Vec<u64>>,
    /// Active fault injection, if the run has a [`crate::FaultPlan`].
    faults: Option<FaultState>,
    /// Observability sink (disabled by default; shared with the run's
    /// [`crate::ClusterConfig`]).
    obs: Obs,
    /// The pass most recently announced via [`NodeCtx::set_pass`]; labels
    /// this node's metrics and spans.
    pass: Cell<u64>,
}

impl NodeCtx {
    pub(crate) fn new(
        node_id: usize,
        memory_budget: u64,
        senders: Vec<Sender<Envelope>>,
        inbox: Receiver<Envelope>,
        collectives: Arc<Collectives>,
        faults: Option<FaultState>,
        obs: Obs,
    ) -> NodeCtx {
        let n = senders.len();
        NodeCtx {
            node_id,
            memory_budget,
            senders,
            inbox,
            ledger: Cell::default(),
            collectives,
            send_seq: RefCell::new(vec![0; n]),
            recv_seq: RefCell::new(vec![0; n]),
            faults,
            obs,
            pass: Cell::new(0),
        }
    }

    /// This node's identifier in `0..num_nodes`.
    #[inline]
    pub fn node_id(&self) -> usize {
        self.node_id
    }

    /// Cluster size.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.senders.len()
    }

    /// True for the coordinator (node 0 by convention, as in the paper).
    #[inline]
    pub fn is_coordinator(&self) -> bool {
        self.node_id == 0
    }

    /// The node's candidate-memory budget in bytes (the simulated 256 MB).
    #[inline]
    pub fn memory_budget(&self) -> u64 {
        self.memory_budget
    }

    /// A copy of this node's ledger so far; a phase's charges are
    /// `ctx.ledger().delta_since(&before)`.
    pub fn ledger(&self) -> NodeStatsSnapshot {
        self.ledger.get()
    }

    fn charge(&self, f: impl FnOnce(&mut NodeStatsSnapshot)) {
        let mut ledger = self.ledger.get();
        f(&mut ledger);
        self.ledger.set(ledger);
    }

    /// Adds `n` abstract CPU work units.
    #[inline]
    pub fn add_cpu(&self, n: u64) {
        self.charge(|l| l.cpu_ticks += n);
    }

    /// Adds `n` successful hash-table probes (sup_cou increments — the
    /// unit of Figure 15). CPU work for counting is charged separately via
    /// [`NodeCtx::add_cpu`] with the counter's `work` meter, which also
    /// covers unsuccessful probes.
    #[inline]
    pub fn add_probes(&self, n: u64) {
        self.charge(|l| l.hash_probes += n);
    }

    /// Charges one complete pass over the local partition — `transactions`
    /// read, `bytes` of local-disk input — to the ledger and `scan.*`.
    pub fn charge_scan(&self, transactions: u64, bytes: u64) {
        self.charge(|l| {
            l.io_bytes += bytes;
            l.scan_passes += 1;
        });
        let labels = [("node", self.node_id as u64), ("pass", self.pass.get())];
        self.obs.add("scan.passes", &labels, 1);
        self.obs.add("scan.transactions", &labels, transactions);
        self.obs.add("scan.bytes", &labels, bytes);
    }

    /// Charges one injected fault to the ledger and to its `kind` series.
    fn charge_fault(&self, kind: &'static str) {
        self.charge(|l| l.faults_injected += 1);
        let labels = [("node", self.node_id as u64), ("pass", self.pass.get())];
        self.obs.add(kind, &labels, 1);
    }

    /// Charges `count` collective messages of `bytes` each, sent or
    /// received, to the ledger and to `collective.*` (collectives are
    /// costed, not routed through [`NodeCtx::send`]).
    fn charge_collective(&self, sent: bool, count: u64, bytes: u64) {
        let total = count * bytes;
        let (messages, volume) = if sent {
            self.charge(|l| {
                l.messages_sent += count;
                l.bytes_sent += total;
            });
            ("collective.messages_sent", "collective.bytes_sent")
        } else {
            self.charge(|l| {
                l.messages_received += count;
                l.bytes_received += total;
            });
            ("collective.messages_received", "collective.bytes_received")
        };
        let me = [("node", self.node_id as u64)];
        self.obs.add(messages, &me, count);
        self.obs.add(volume, &me, total);
    }

    /// The run's observability sink.
    #[inline]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The pass most recently announced via [`NodeCtx::set_pass`]
    /// (0 before the first announcement).
    #[inline]
    pub fn current_pass(&self) -> u64 {
        self.pass.get()
    }

    /// Opens an observability span for `phase` on this node, labeled
    /// with the current pass. Inert when observability is disabled.
    pub fn span(&self, phase: &'static str) -> gar_obs::Span {
        self.obs.span(self.node_id as u64, self.pass.get(), phase)
    }

    /// Sends `payload` to node `to`. Messages to self are delivered but
    /// not charged to the communication ledger (the paper counts only
    /// inter-processor traffic; local work is CPU).
    ///
    /// This is the send-side fault boundary: an active [`crate::FaultPlan`]
    /// may delay, drop, duplicate, or corrupt the message here. Injected
    /// traffic is charged to `faults_injected`, never to the ledger.
    pub fn send(&self, to: usize, tag: u32, payload: Arc<[u8]>) -> Result<()> {
        let len = payload.len() as u64;
        let seq = {
            let mut seqs = self.send_seq.borrow_mut();
            let slot = seqs.get_mut(to).ok_or_else(|| Error::NodeFailure {
                node: to,
                reason: format!("send to unknown peer {to}"),
            })?;
            let seq = *slot;
            *slot += 1;
            seq
        };
        let checksum = envelope_checksum(self.node_id, tag, seq, &payload);
        let mut duplicate = false;
        let mut payload = payload;
        if let Some(f) = &self.faults {
            let effects = f.on_send();
            for (fired, kind) in [
                (effects.delay.is_some(), "fault.delay"),
                (effects.drop, "fault.drop"),
                (effects.corrupt, "fault.corrupt"),
                (effects.duplicate, "fault.duplicate"),
            ] {
                if fired {
                    self.charge_fault(kind);
                }
            }
            if let Some(d) = effects.delay {
                #[expect(clippy::disallowed_methods, reason = "the injected delay fault")]
                std::thread::sleep(d);
            }
            if effects.drop {
                // The sequence number was consumed, so the receiver will
                // observe the hole (as a gap, or as a timeout if this
                // was the last message it was waiting for).
                return Ok(());
            }
            if effects.corrupt {
                // Flip a payload byte *after* the checksum was computed.
                let mut v = payload.to_vec();
                #[expect(
                    clippy::indexing_slicing,
                    reason = "n is v.len() of the non-empty arm, so n / 2 is in bounds"
                )]
                match v.len() {
                    0 => v.push(0xFF),
                    n => v[n / 2] ^= 0xFF,
                }
                payload = Arc::from(v);
            }
            duplicate = effects.duplicate;
        }
        let env = Envelope {
            from: self.node_id,
            tag,
            payload,
            seq,
            checksum,
        };
        let copies = if duplicate { 2 } else { 1 };
        let sender = self.senders.get(to).ok_or_else(|| Error::NodeFailure {
            node: to,
            reason: format!("send to unknown peer {to}"),
        })?;
        for _ in 0..copies {
            sender.send(env.clone()).map_err(|_| Error::NodeFailure {
                node: to,
                reason: "inbox disconnected".into(),
            })?;
        }
        if to != self.node_id {
            self.charge(|l| {
                l.messages_sent += 1;
                l.bytes_sent += len;
            });
            let me = ("node", self.node_id as u64);
            let link = [me, ("peer", to as u64)];
            self.obs.add("cluster.messages_sent", &link, 1);
            self.obs.add("cluster.bytes_sent", &link, len);
            self.obs.observe("cluster.message_bytes", &[me], len);
        }
        Ok(())
    }

    /// Receive-side admission: absorbs duplicates (returns `None`),
    /// rejects gaps and corruption, charges the ledger for admitted
    /// remote messages.
    fn admit(&self, env: Envelope) -> Result<Option<Envelope>> {
        let expected = self
            .recv_seq
            .borrow()
            .get(env.from)
            .copied()
            .ok_or_else(|| Error::NodeFailure {
                node: env.from,
                reason: format!("message from unknown peer {}", env.from),
            })?;
        if env.seq < expected {
            // Already delivered: an injected duplicate. Absorb it.
            return Ok(None);
        }
        if env.seq > expected {
            return Err(Error::NodeFailure {
                node: env.from,
                reason: format!(
                    "message loss detected: expected seq {expected} from node {}, got seq {}",
                    env.from, env.seq
                ),
            });
        }
        if let Some(slot) = self.recv_seq.borrow_mut().get_mut(env.from) {
            *slot = expected + 1;
        }
        if envelope_checksum(env.from, env.tag, env.seq, &env.payload) != env.checksum {
            return Err(Error::Corrupt(format!(
                "message from node {} failed checksum (tag {}, seq {})",
                env.from, env.tag, env.seq
            )));
        }
        if env.from != self.node_id {
            let len = env.payload.len() as u64;
            self.charge(|l| {
                l.messages_received += 1;
                l.bytes_received += len;
            });
            let link = [("node", self.node_id as u64), ("peer", env.from as u64)];
            self.obs.add("cluster.messages_received", &link, 1);
            self.obs.add("cluster.bytes_received", &link, len);
        }
        Ok(Some(env))
    }

    /// Blocking receive. Charges the receive ledger for remote messages.
    ///
    /// The wait is deadline-aware: it polls in short slices so a
    /// poisoned run is observed promptly (instead of parking on a peer
    /// that will never send), and if the cluster was configured with a
    /// deadline, a wait that outlives it poisons the run and returns
    /// [`Error::Timeout`].
    pub fn recv(&self) -> Result<Envelope> {
        let start = Stopwatch::start();
        loop {
            if let Some(env) = self.try_admit_blocking()? {
                return Ok(env);
            }
            if let Some(limit) = self.collectives.deadline() {
                if start.elapsed() >= limit {
                    self.collectives.poison(self.node_id);
                    return Err(Error::Timeout {
                        node: self.node_id,
                        op: "recv".into(),
                    });
                }
            }
        }
    }

    /// One bounded wait slice of [`NodeCtx::recv`]: returns an admitted
    /// envelope, or `None` if the slice elapsed (or only duplicates
    /// arrived). Errors on poison, disconnect, gap, or corruption.
    fn try_admit_blocking(&self) -> Result<Option<Envelope>> {
        if self.collectives.is_poisoned() {
            // Surfaces the root cause instead of waiting on a dead peer.
            return self.collectives.check_poison().map(|()| None);
        }
        match self.inbox.recv_timeout(RECV_POLL_SLICE) {
            Ok(env) => self.admit(env),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Error::NodeFailure {
                node: self.node_id,
                reason: "all senders disconnected".into(),
            }),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Option<Envelope>> {
        loop {
            match self.inbox.try_recv() {
                Ok(env) => {
                    if let Some(env) = self.admit(env)? {
                        return Ok(Some(env));
                    }
                    // Absorbed duplicate: keep draining.
                }
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => {
                    return Err(Error::NodeFailure {
                        node: self.node_id,
                        reason: "all senders disconnected".into(),
                    })
                }
            }
        }
    }

    /// Rendezvous of all nodes (uncharged control traffic).
    pub fn barrier(&self) -> Result<()> {
        self.obs
            .add("collective.barrier", &[("node", self.node_id as u64)], 1);
        self.collectives.barrier(self.node_id)
    }

    /// Gathers every node's `contribution` at the coordinator, sums
    /// element-wise, broadcasts the sum — the paper's "all node's sup_cou
    /// are gathered into the coordinator node ... and broadcast".
    ///
    /// Charged as a **binomial-tree** reduce + broadcast (what MPL's
    /// collective operations implement): each node sends its partial sum
    /// once up the tree and forwards the result once per child on the way
    /// down, so the coordinator handles `⌈log2 N⌉` vectors instead of
    /// `N-1` — a star-topology charge would hand the coordinator a
    /// spurious bottleneck the real machine does not have.
    pub fn all_reduce_u64(&self, contribution: &[u64]) -> Result<Arc<Vec<u64>>> {
        let bytes = 8 * contribution.len() as u64;
        let children = binomial_children(self.node_id, self.num_nodes()) as u64;
        let has_parent = u64::from(self.node_id != 0);
        // Up: one send to the parent, one receive per child.
        // Down: one receive from the parent, one send per child.
        let edges = has_parent + children;
        self.charge_collective(true, edges, bytes);
        self.charge_collective(false, edges, bytes);
        self.obs
            .add("collective.all_reduce", &[("node", self.node_id as u64)], 1);
        self.collectives.all_reduce_u64(self.node_id, contribution)
    }

    /// One-to-all broadcast of `data` (exactly one node passes `Some`).
    /// Charged as one message down to each non-root node.
    pub fn broadcast(&self, data: Option<Arc<[u8]>>) -> Result<Arc<[u8]>> {
        let root_send = data.as_ref().map(|d| d.len() as u64);
        let out = self.collectives.broadcast(self.node_id, data)?;
        self.obs
            .add("collective.broadcast", &[("node", self.node_id as u64)], 1);
        match root_send {
            Some(bytes) => self.charge_collective(true, self.num_nodes() as u64 - 1, bytes),
            None => self.charge_collective(false, 1, out.len() as u64),
        }
        Ok(out)
    }

    /// Marks this run failed on behalf of this node (wakes peers blocked
    /// in collectives; the resulting [`Error::Poisoned`] names this node
    /// unless a peer poisoned first).
    pub fn poison(&self) {
        self.collectives.poison(self.node_id);
    }

    /// Announces the start of mining pass `k`. This is the pass-boundary
    /// fault point: a scheduled `panic@` fault panics here (modeling a
    /// node crash), and a scheduled `hang@` fault sleeps for the plan's
    /// hang duration (modeling an unresponsive node, which peers detect
    /// via their deadline).
    pub fn set_pass(&self, k: usize) {
        self.pass.set(k as u64);
        let Some(f) = &self.faults else { return };
        f.set_pass(k);
        match f.on_pass_start() {
            #[expect(
                clippy::panic,
                reason = "this panic is the injected fault; the runtime's panic recovery is what \
                          the chaos suite exercises here"
            )]
            Some(FaultOp::Panic) => {
                self.charge_fault("fault.panic");
                panic!("injected panic: node {} pass {k}", self.node_id);
            }
            Some(FaultOp::Hang) => {
                self.charge_fault("fault.hang");
                #[expect(clippy::disallowed_methods, reason = "the injected hang fault")]
                std::thread::sleep(f.hang_duration());
            }
            _ => {}
        }
    }

    /// The partition-scan fault boundary: returns an injected retryable
    /// I/O error if the active plan fires a scan fault at this point.
    /// Mining code calls this when *opening* a partition scan (before any
    /// transaction is consumed), so a retry never double-counts.
    pub fn inject_scan_fault(&self) -> Result<()> {
        let Some(f) = &self.faults else {
            return Ok(());
        };
        if f.on_scan() {
            self.charge_fault("fault.scan_error");
            return Err(Error::io(
                format!("injected scan fault on node {}", self.node_id),
                std::io::Error::other("fault injection"),
            ));
        }
        Ok(())
    }

    /// Starts an all-to-all data-exchange phase (see [`Exchange`]).
    pub fn exchange(&self) -> Exchange<'_> {
        Exchange {
            ctx: self,
            eos_seen: 0,
        }
    }
}

/// One all-to-all exchange phase with distributed termination: every node
/// streams data messages to peers, interleaving opportunistic receives
/// (bounding queue growth), then flushes an EOS token to every peer and
/// drains its inbox until it has seen EOS from all of them.
///
/// This is the count-support communication pattern of HPGM and the
/// H-HPGM family (paper Figures 3 and 5, lines 7-18).
pub struct Exchange<'a> {
    ctx: &'a NodeCtx,
    eos_seen: usize,
}

impl Exchange<'_> {
    /// Sends a data message to `to` (self-sends allowed; see
    /// [`NodeCtx::send`]).
    pub fn send(&self, to: usize, tag: u32, payload: Arc<[u8]>) -> Result<()> {
        debug_assert_ne!(tag, CONTROL_TAG_EOS, "EOS tag is reserved");
        self.ctx.send(to, tag, payload)
    }

    /// Drains currently pending messages without blocking, invoking
    /// `on_data` per data message. Call this periodically while producing.
    pub fn poll(&mut self, mut on_data: impl FnMut(&Envelope) -> Result<()>) -> Result<()> {
        while let Some(env) = self.ctx.try_recv()? {
            if env.tag == CONTROL_TAG_EOS {
                self.eos_seen += 1;
            } else {
                on_data(&env)?;
            }
        }
        Ok(())
    }

    /// Signals this node is done producing, then blocks until every peer
    /// has signaled too, handing each remaining data message to `on_data`.
    pub fn finish(mut self, mut on_data: impl FnMut(&Envelope) -> Result<()>) -> Result<()> {
        let me = self.ctx.node_id();
        for peer in 0..self.ctx.num_nodes() {
            if peer != me {
                self.ctx.send(peer, CONTROL_TAG_EOS, Arc::default())?;
            }
        }
        let expect = self.ctx.num_nodes() - 1;
        while self.eos_seen < expect {
            let env = self.ctx.recv()?;
            if env.tag == CONTROL_TAG_EOS {
                self.eos_seen += 1;
            } else {
                on_data(&env)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::binomial_children;

    #[test]
    fn binomial_tree_shape() {
        // n = 8 rooted at 0: children(0) = {1,2,4}, children(2) = {3},
        // children(4) = {5,6}, children(6) = {7}; odd nodes are leaves.
        assert_eq!(binomial_children(0, 8), 3);
        assert_eq!(binomial_children(1, 8), 0);
        assert_eq!(binomial_children(2, 8), 1);
        assert_eq!(binomial_children(3, 8), 0);
        assert_eq!(binomial_children(4, 8), 2);
        assert_eq!(binomial_children(6, 8), 1);
        // Edges total n - 1 for various n.
        for n in 1..40 {
            let edges: usize = (0..n).map(|i| binomial_children(i, n)).sum();
            assert_eq!(edges, n - 1, "n = {n}");
        }
    }
}
