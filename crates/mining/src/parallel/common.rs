//! The one place a parallel run is driven, shared by both miner families
//! (`gar-fpg` calls in from outside the crate): the degraded-mode recovery
//! loop, pass 1, scan accounting, the batched all-to-all exchange, the
//! coordinator gather, the per-pass ledger, checkpoint writes, and report
//! assembly. An algorithm owns only its placement key, its transaction
//! transform, and what it ships.

use crate::candidate::candidates_for_pass;
use crate::checkpoint::{self, Checkpoint, CheckpointFormat, CheckpointPass, CheckpointSink};
use crate::counter::{candidate_entry_bytes, HashTreeCounter};
use crate::parallel::MineOptions;
use crate::params::{Algorithm, MiningParams};
use crate::report::{LargePass, MiningOutput, ParallelReport, PassReport};
use crate::sequential::large_items_from_counts;
use crate::wire::{self, ItemListBatch, ItemsetBatch};
use gar_cluster::{
    ClusterConfig, ClusterRun, CostModel, Envelope, Exchange, NodeCtx, NodeStatsSnapshot,
    RetryPolicy,
};
use gar_storage::{FlatPartition, PartitionedDatabase};
use gar_taxonomy::Taxonomy;
use gar_types::{Error, ItemId, Itemset, Result};
use std::sync::Arc;

/// Message tags used by the pass-k exchange phases.
pub(crate) mod tags {
    /// A sub-transaction (item list) — the H-HPGM family.
    pub const ITEMS: u32 = 1;
    /// A flat batch of k-itemsets — HPGM.
    pub const ITEMSETS: u32 = 2;
    /// An `L_k^n` fragment flowing to the coordinator.
    pub const GATHER: u32 = 3;
}

/// Flush threshold for outgoing message batches, in bytes. Large enough to
/// amortize per-message latency, small enough to keep the exchange flowing
/// (the SP-2 implementations batched the same way).
const BATCH_FLUSH_BYTES: usize = 16 * 1024;

/// How many transactions to process between opportunistic inbox drains
/// during an exchange phase.
pub(crate) const POLL_EVERY_TXNS: usize = 32;

/// Per-pass bookkeeping accumulated by a node: everything the report needs
/// beyond the counter snapshots. Built by [`close_pass`].
#[derive(Debug, Clone, Default)]
pub struct NodePassInfo {
    pub k: usize,
    pub num_candidates: usize,
    pub num_duplicated: usize,
    pub num_fragments: usize,
    pub num_large: usize,
    /// `true` when this pass was replayed from a checkpoint instead of
    /// computed (its `delta` is zero: no work was redone).
    pub restored: bool,
    pub delta: NodeStatsSnapshot,
}

/// How a run interacts with checkpoints of type `C`: where to resume from
/// (if anywhere) and where the coordinator records completed work.
pub struct PassPersistence<'a, C> {
    /// A verified checkpoint to restart from; its work is replayed
    /// without rescanning.
    pub resume_from: Option<&'a C>,
    /// Completed-work sink, written by the coordinator only.
    pub sink: Option<&'a CheckpointSink<C>>,
}

impl<C: CheckpointFormat> PassPersistence<'_, C> {
    /// Coordinator-side checkpoint write of whatever `make` packages;
    /// non-coordinators and runs without a sink are no-ops.
    pub fn store(&self, ctx: &NodeCtx, make: impl FnOnce() -> C) -> Result<()> {
        let Some(sink) = self.sink else {
            return Ok(());
        };
        if !ctx.is_coordinator() {
            return Ok(());
        }
        let _checkpoint = ctx.span("checkpoint");
        ctx.obs().add(
            "checkpoint.stored",
            &[("node", ctx.node_id() as u64), ("pass", ctx.current_pass())],
            1,
        );
        sink.store(make())
    }
}

/// What each node thread returns to the report assembler.
pub struct NodeOutcome {
    pub pass_infos: Vec<NodePassInfo>,
    /// The mined output; identical on every node, so the assembler takes
    /// node 0's.
    pub output: MiningOutput,
}

/// Result of the shared pass 1.
pub struct Pass1 {
    pub num_transactions: u64,
    pub min_support_count: u64,
    /// Global per-item support counts (dense) — the duplicate-selection
    /// heuristics of TGD/PGD/FGD price candidates with these, FP-Growth
    /// derives its frequency order from them.
    pub item_counts: Vec<u64>,
    pub large: LargePass,
}

/// What an algorithm's pass k ≥ 2 hands back to the pass loop.
pub(crate) struct PassResult {
    /// The global `L_k`.
    pub large: Vec<(Itemset, u64)>,
    pub num_duplicated: usize,
    pub num_fragments: usize,
    /// Candidate-counter probe work over the whole pass (the hits are
    /// the ledger's `hash_probes`).
    pub probes: u64,
}

/// The one way a parallel run is driven, for both miner families: the
/// checkpoint sink, `--resume`, and degraded-mode recovery around
/// `attempt`, which runs the miner once over the given per-node
/// partitions. With default [`MineOptions`] there is no sink and no
/// resume, and it makes exactly one attempt over the database's own
/// partitions — that is `mine_parallel`.
///
/// On a tolerated node failure the failed node's partitions are
/// redistributed round-robin over the survivors (each survivor scans one
/// [`FlatPartition::concat`] of its own partitions and the adopted ones),
/// completed work is restored from the latest checkpoint, and `attempt`
/// re-runs on the smaller cluster. Global support counts do not depend
/// on how transactions are partitioned, so the mined output is identical
/// to the fault-free run; the report's `degraded` notes record what
/// happened.
pub fn mine_with_recovery<C: CheckpointFormat>(
    db: &PartitionedDatabase,
    params: &MiningParams,
    cluster: &ClusterConfig,
    opts: &MineOptions,
    mut attempt: impl FnMut(
        &[&FlatPartition],
        &ClusterConfig,
        &PassPersistence<'_, C>,
    ) -> Result<ParallelReport>,
) -> Result<ParallelReport> {
    params.validate()?;
    cluster.validate()?;
    if db.num_partitions() != cluster.num_nodes {
        return Err(Error::InvalidConfig(format!(
            "database has {} partitions but the cluster has {} nodes",
            db.num_partitions(),
            cluster.num_nodes
        )));
    }
    let want_sink = opts.checkpoint_dir.is_some() || opts.max_node_failures > 0;
    let sink = want_sink
        .then(|| CheckpointSink::new(opts.checkpoint_dir.clone()))
        .transpose()?;
    let mut restore: Option<C> = match &opts.checkpoint_dir {
        Some(dir) if opts.resume => checkpoint::load_latest(dir),
        _ => None,
    };
    if let (Some(s), Some(cp)) = (&sink, &restore) {
        s.seed(cp.clone());
    }

    // `slots[s]` holds the original partition indices node `s` scans in
    // the current attempt; a failed node's slot is dissolved into the
    // survivors' slots.
    let mut slots: Vec<Vec<usize>> = (0..cluster.num_nodes).map(|i| vec![i]).collect();
    let mut degraded: Vec<String> = Vec::new();
    loop {
        let mut smaller = cluster.clone();
        smaller.num_nodes = slots.len();
        // A slot of one partition scans the database's own; a slot that
        // adopted more scans one copy of them all, in slot order.
        let merged: Vec<Option<FlatPartition>> = slots
            .iter()
            .map(|s| {
                (s.len() > 1).then(|| FlatPartition::concat(s.iter().map(|&i| db.partition(i))))
            })
            .collect();
        let sources: Vec<&FlatPartition> = (slots.iter().zip(&merged))
            .map(|(s, m)| m.as_ref().unwrap_or(db.partition(s[0])))
            .collect();
        let persist = PassPersistence {
            resume_from: restore.as_ref(),
            sink: sink.as_ref(),
        };
        match attempt(&sources, &smaller, &persist) {
            Ok(mut report) => {
                report.degraded = degraded;
                return Ok(report);
            }
            Err(Error::NodeFailure { node, reason })
                if degraded.len() < opts.max_node_failures
                    && slots.len() > 1
                    && node < slots.len() =>
            {
                let orphaned = slots.remove(node);
                let survivors = slots.len();
                for (j, part) in orphaned.iter().enumerate() {
                    slots[j % survivors].push(*part);
                }
                restore = sink.as_ref().and_then(|s| s.latest());
                let progress = restore
                    .as_ref()
                    .map_or_else(|| "from scratch".into(), C::progress);
                degraded.push(format!(
                    "node {node} failed ({reason}); redistributed partitions {orphaned:?} \
                     across {survivors} survivors and resumed {progress}"
                ));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Pass 1 (identical in every algorithm): count all items of all levels
/// over ancestor-extended local transactions, then all-reduce.
fn pass1(
    ctx: &NodeCtx,
    part: &FlatPartition,
    tax: &Taxonomy,
    params: &MiningParams,
) -> Result<Pass1> {
    let num_transactions = ctx.all_reduce_u64(&[part.num_transactions() as u64])?[0];
    let min_support_count = params.min_support_count(num_transactions);
    let mut counts = vec![0u64; tax.num_items() as usize];
    let mut extended = Vec::new();
    scan_partition(ctx, part, |t| {
        tax.extend_transaction_into(t, &mut extended);
        ctx.add_cpu(extended.len() as u64);
        for &it in &extended {
            counts[it.index()] += 1;
        }
        Ok(())
    })?;
    let _count = ctx.span("count");
    let global = ctx.all_reduce_u64(&counts)?;
    let large = large_items_from_counts(&global, min_support_count);
    Ok(Pass1 {
        num_transactions,
        min_support_count,
        item_counts: global.as_ref().clone(),
        large,
    })
}

/// Runs pass 1 — or replays `restored`, a checkpoint's copy of it, with
/// a zero delta so the report shows no work was redone — and records its
/// bookkeeping.
pub fn run_pass1(
    ctx: &NodeCtx,
    part: &FlatPartition,
    tax: &Taxonomy,
    params: &MiningParams,
    restored: Option<Pass1>,
) -> Result<(Pass1, NodePassInfo)> {
    let mut since = ctx.ledger();
    let was_restored = restored.is_some();
    let p1 = match restored {
        Some(p1) => p1,
        None => {
            ctx.set_pass(1);
            let _pass = ctx.span("pass");
            pass1(ctx, part, tax, params)?
        }
    };
    let info = NodePassInfo {
        k: 1,
        num_candidates: tax.num_items() as usize,
        num_fragments: 1,
        num_large: p1.large.itemsets.len(),
        restored: was_restored,
        ..NodePassInfo::default()
    };
    Ok((p1, close_pass(ctx, &mut since, info)))
}

/// One full pass over the node's local partition, with I/O accounting
/// (bytes + scan-pass counters — NPGM's fragment loop makes these the
/// story of Figure 14).
pub fn scan_partition(
    ctx: &NodeCtx,
    part: &FlatPartition,
    mut f: impl FnMut(&[ItemId]) -> Result<()>,
) -> Result<()> {
    let _scan = ctx.span("scan");
    let before = part.bytes_read();
    // Opening the scan is where injected (and real) storage errors
    // surface; retrying the *open* can never double-count transactions.
    let mut scan = RetryPolicy::default().run(|| {
        ctx.inject_scan_fault()?;
        part.scan()
    })?;
    let mut transactions = 0u64;
    while let Some(t) = scan.next_slice()? {
        transactions += 1;
        f(t)?;
    }
    ctx.charge_scan(transactions, part.bytes_read() - before);
    Ok(())
}

/// A per-owner wire batch the exchange can flush. The codecs' inherent
/// `byte_len`/`take` are what implement it.
pub trait WireBatch {
    /// Current payload size in bytes (0 ⇔ nothing queued).
    fn byte_len(&self) -> usize;
    /// Takes the queued payload, leaving the batch empty.
    fn take(&mut self) -> Arc<[u8]>;
}

impl WireBatch for ItemsetBatch {
    fn byte_len(&self) -> usize {
        ItemsetBatch::byte_len(self)
    }
    fn take(&mut self) -> Arc<[u8]> {
        ItemsetBatch::take(self)
    }
}

impl WireBatch for ItemListBatch {
    fn byte_len(&self) -> usize {
        ItemListBatch::byte_len(self)
    }
    fn take(&mut self) -> Arc<[u8]> {
        ItemListBatch::take(self)
    }
}

/// The all-to-all exchange protocol of a pass, written once: one batch
/// per owner node flushed at 16 KiB, an opportunistic inbox drain every
/// `poll_every` producer units, then a final flush, a drain until every
/// peer is done, and a barrier. What goes into a batch and what a
/// received payload means stay with the algorithm.
pub struct BatchedExchange<'a, B> {
    ctx: &'a NodeCtx,
    ex: Exchange<'a>,
    tag: u32,
    poll_every: usize,
    units: usize,
    batches: Vec<B>,
}

/// Hands a data envelope's payload to `receive`, refusing foreign tags.
fn deliver(
    tag: u32,
    mut receive: impl FnMut(&[u8]) -> Result<()>,
) -> impl FnMut(&Envelope) -> Result<()> {
    move |env| {
        if env.tag != tag {
            return Err(Error::Protocol(format!(
                "expected tag {tag} during the exchange, got tag {}",
                env.tag
            )));
        }
        receive(&env.payload)
    }
}

impl<'a, B: WireBatch> BatchedExchange<'a, B> {
    /// An exchange of `tag` messages with one `new_batch()` per node.
    pub fn new(
        ctx: &'a NodeCtx,
        tag: u32,
        poll_every: usize,
        new_batch: impl FnMut() -> B,
    ) -> BatchedExchange<'a, B> {
        BatchedExchange {
            ctx,
            ex: ctx.exchange(),
            tag,
            poll_every,
            units: 0,
            batches: std::iter::repeat_with(new_batch)
                .take(ctx.num_nodes())
                .collect(),
        }
    }

    /// Queues data for `owner` through `fill`, shipping the batch once it
    /// reaches the flush threshold.
    #[inline]
    pub fn push(&mut self, owner: usize, fill: impl FnOnce(&mut B)) -> Result<()> {
        let batch = &mut self.batches[owner];
        fill(batch);
        if batch.byte_len() >= BATCH_FLUSH_BYTES {
            self.ex.send(owner, self.tag, batch.take())?;
        }
        Ok(())
    }

    /// Marks one producer unit (a transaction, a projection) done; every
    /// `poll_every` units, drains what has arrived so far into `receive`.
    #[inline]
    pub fn unit_done(&mut self, receive: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        self.units += 1;
        if self.units.is_multiple_of(self.poll_every) {
            self.ex.poll(deliver(self.tag, receive))?;
        }
        Ok(())
    }

    /// Flushes every partial batch, drains into `receive` until all peers
    /// are done, then quiesces the cluster so no later message (a GATHER,
    /// a RESULT) can race into a peer's exchange drain.
    pub fn finish(mut self, receive: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let _exchange = self.ctx.span("exchange");
        for (owner, batch) in self.batches.iter_mut().enumerate() {
            if batch.byte_len() > 0 {
                self.ex.send(owner, self.tag, batch.take())?;
            }
        }
        self.ex.finish(deliver(self.tag, receive))?;
        self.ctx.barrier()
    }
}

/// Byte footprint of `count` candidate k-itemsets under the memory model.
pub(crate) fn candidates_bytes(k: usize, count: usize) -> u64 {
    count as u64 * candidate_entry_bytes(k)
}

/// Assembles the global `L_k` from each node's locally decided fragment:
/// non-coordinators ship `L_k^n` to node 0, the coordinator merges and
/// broadcasts the union (the paper's step 3). Fragments own disjoint
/// candidates, so the merge is a concatenation + sort.
pub(crate) fn gather_large(
    ctx: &NodeCtx,
    k: usize,
    local: Vec<(Itemset, u64)>,
) -> Result<Vec<(Itemset, u64)>> {
    let _gather = ctx.span("gather");
    if ctx.is_coordinator() {
        let mut all = local;
        for _ in 0..ctx.num_nodes() - 1 {
            let env = ctx.recv()?;
            if env.tag != tags::GATHER {
                return Err(Error::Protocol(format!(
                    "coordinator expected GATHER, got tag {}",
                    env.tag
                )));
            }
            all.extend(wire::decode_counted(&env.payload)?);
        }
        all.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        let encoded = wire::encode_counted(k, &all);
        ctx.broadcast(Some(encoded))?;
        Ok(all)
    } else {
        ctx.send(0, tags::GATHER, wire::encode_counted(k, &local))?;
        let merged = ctx.broadcast(None)?;
        wire::decode_counted(&merged)
    }
}

/// The root-itemset partitioning key of the H-HPGM family: each item
/// replaced by its root, the multiset sorted. Duplicates are *kept* — the
/// multiset `(r, r)` is a different hash bucket than `(r)`, exactly as in
/// the paper's `h(X, Y)` over root codes. The miner computes keys in bulk
/// (`duplicate::root_keys`); this is the tests' one-at-a-time form.
#[cfg(test)]
pub(crate) fn root_key(items: &[ItemId], tax: &Taxonomy) -> Box<[u32]> {
    let mut roots: Vec<u32> = items.iter().map(|&i| tax.root_of(i).raw()).collect();
    roots.sort_unstable();
    roots.into_boxed_slice()
}

/// Enumerates every k-multiset over `roots` (ascending root codes) whose
/// per-root multiplicity does not exceed that root's `avail` (the number
/// of distinct transaction items under it — fewer can never support a
/// candidate, because ancestor-related items never form one). The oracle
/// of H-HPGM's route, which counts these in closed form.
#[cfg(test)]
pub(crate) fn for_each_root_multiset(roots: &[(u32, usize)], k: usize, f: &mut impl FnMut(&[u32])) {
    fn rec(
        roots: &[(u32, usize)],
        start: usize,
        need: usize,
        scratch: &mut Vec<u32>,
        f: &mut impl FnMut(&[u32]),
    ) {
        if need == 0 {
            f(scratch);
            return;
        }
        for i in start..roots.len() {
            let (root, avail) = roots[i];
            // Current multiplicity of this root in the scratch prefix.
            let used = scratch.iter().rev().take_while(|&&r| r == root).count();
            if used >= avail {
                continue;
            }
            scratch.push(root);
            rec(roots, i, need - 1, scratch, f);
            scratch.pop();
        }
    }
    let mut scratch = Vec::with_capacity(k);
    rec(roots, 0, k, &mut scratch, f);
}

/// Records a freshly built counter's arena footprint (`counter.arena.*`,
/// one observation per counter per pass).
pub(crate) fn record_arena_obs(ctx: &NodeCtx, k: usize, counter: &HashTreeCounter) {
    let obs = ctx.obs();
    if !obs.is_enabled() {
        return;
    }
    let s = counter.stats();
    let labels = [("node", ctx.node_id() as u64), ("pass", k as u64)];
    obs.add("counter.arena.nodes", &labels, s.nodes);
    obs.add("counter.arena.edges", &labels, s.edges);
    obs.add("counter.arena.dense_nodes", &labels, s.dense_nodes);
    obs.add("counter.arena.bytes", &labels, s.bytes);
}

/// Settles `counter` once its transactions are in: charges the counting
/// work as CPU ticks and the hits as probes, and returns the work for
/// the pass's probe series.
pub(crate) fn settle_counter(ctx: &NodeCtx, counter: &mut HashTreeCounter) -> u64 {
    let out = counter.settle();
    ctx.add_cpu(out.work);
    ctx.add_probes(out.hits);
    out.work
}

/// Closes a pass on this node, the one way every miner family does: cuts
/// the ledger delta since `since` into `info` (and moves `since` up to
/// now), then records the pass's bookkeeping and delta as `pass.*`, so
/// `metrics.json` has one schema across algorithms and miner families.
pub fn close_pass(
    ctx: &NodeCtx,
    since: &mut NodeStatsSnapshot,
    mut info: NodePassInfo,
) -> NodePassInfo {
    let now = ctx.ledger();
    info.delta = now.delta_since(since);
    *since = now;
    let obs = ctx.obs();
    let labels = [("node", ctx.node_id() as u64), ("pass", info.k as u64)];
    obs.add("pass.candidates", &labels, info.num_candidates as u64);
    obs.add("pass.duplicated", &labels, info.num_duplicated as u64);
    obs.add("pass.fragments", &labels, info.num_fragments as u64);
    obs.add("pass.large", &labels, info.num_large as u64);
    if info.restored {
        obs.add("pass.restored", &labels, 1);
    }
    let d = &info.delta;
    obs.add("pass.messages_sent", &labels, d.messages_sent);
    obs.add("pass.bytes_sent", &labels, d.bytes_sent);
    obs.add("pass.messages_received", &labels, d.messages_received);
    obs.add("pass.bytes_received", &labels, d.bytes_received);
    obs.add("pass.hash_probes", &labels, d.hash_probes);
    obs.add("pass.cpu_ticks", &labels, d.cpu_ticks);
    obs.add("pass.io_bytes", &labels, d.io_bytes);
    // Workload-distribution histogram (the paper's Figure 16): one
    // observation per node per pass, keyed by pass only, so the spread
    // across nodes is the distribution.
    obs.observe(
        "pass.node_bytes_received",
        &[("pass", info.k as u64)],
        d.bytes_received,
    );
    obs.observe(
        "pass.node_cpu_ticks",
        &[("pass", info.k as u64)],
        d.cpu_ticks,
    );
    info
}

/// Packages the pass-1 state plus every `L_k` so far as a checkpoint.
fn checkpoint_of(
    algorithm: Algorithm,
    p1: &Pass1,
    passes: &[LargePass],
    pass_infos: &[NodePassInfo],
) -> Checkpoint {
    let passes = passes
        .iter()
        .map(|lp| {
            #[expect(clippy::expect_used, reason = "every completed pass pushed its info")]
            let info = pass_infos
                .iter()
                .find(|i| i.k == lp.k)
                .expect("pass info for every completed pass");
            CheckpointPass {
                k: lp.k,
                num_candidates: info.num_candidates,
                num_duplicated: info.num_duplicated,
                num_fragments: info.num_fragments,
                itemsets: lp.itemsets.clone(),
            }
        })
        .collect();
    Checkpoint {
        algorithm,
        num_transactions: p1.num_transactions,
        min_support_count: p1.min_support_count,
        item_counts: p1.item_counts.clone(),
        passes,
    }
}

/// Drives the Apriori family's pass loop on one node. `run_pass`
/// implements the algorithm-specific pass k ≥ 2. With
/// `persist.resume_from` set, completed passes are replayed from the
/// checkpoint (zero-delta, `restored` flagged) and mining restarts at the
/// first unfinished pass.
pub(crate) fn node_pass_loop(
    ctx: &NodeCtx,
    part: &FlatPartition,
    tax: &Taxonomy,
    params: &MiningParams,
    algorithm: Algorithm,
    persist: &PassPersistence<'_, Checkpoint>,
    mut run_pass: impl FnMut(&NodeCtx, usize, &[Itemset], &Pass1) -> Result<PassResult>,
) -> Result<NodeOutcome> {
    let resume = persist.resume_from.filter(|cp| !cp.passes.is_empty());
    let restored = resume.map(|cp| Pass1 {
        num_transactions: cp.num_transactions,
        min_support_count: cp.min_support_count,
        item_counts: cp.item_counts.clone(),
        large: LargePass {
            k: 1,
            itemsets: cp.passes[0].itemsets.clone(),
        },
    });
    let (p1, info1) = run_pass1(ctx, part, tax, params, restored)?;
    let mut pass_infos = vec![info1];
    let mut passes = vec![p1.large.clone()];
    // A restored pass does no work, so its delta is zero.
    let mut since = ctx.ledger();
    for p in resume.map_or(&[][..], |cp| &cp.passes[1..]) {
        let info = NodePassInfo {
            k: p.k,
            num_candidates: p.num_candidates,
            num_duplicated: p.num_duplicated,
            num_fragments: p.num_fragments,
            num_large: p.itemsets.len(),
            restored: true,
            ..NodePassInfo::default()
        };
        pass_infos.push(close_pass(ctx, &mut since, info));
        passes.push(LargePass {
            k: p.k,
            itemsets: p.itemsets.clone(),
        });
    }
    if resume.is_none() {
        persist.store(ctx, || checkpoint_of(algorithm, &p1, &passes, &pass_infos))?;
    }

    for k in passes.len() + 1.. {
        if passes.last().is_none_or(|p| p.itemsets.is_empty())
            || params.max_pass.is_some_and(|max| k > max)
        {
            break;
        }
        // Keyed by the pass it generates for: the pass is announced only
        // once it has candidates.
        let candidates = {
            let _candgen = ctx.obs().span(ctx.node_id() as u64, k as u64, "candgen");
            #[expect(
                clippy::expect_used,
                reason = "the check above breaks when there is no pass"
            )]
            candidates_for_pass(k, passes.last().expect("nonempty"), tax)
        };
        if candidates.is_empty() {
            break;
        }
        ctx.set_pass(k);
        ctx.add_cpu(candidates.len() as u64);

        let result = {
            let _pass = ctx.span("pass");
            run_pass(ctx, k, &candidates, &p1)?
        };
        let info = NodePassInfo {
            k,
            num_candidates: candidates.len(),
            num_duplicated: result.num_duplicated,
            num_fragments: result.num_fragments,
            num_large: result.large.len(),
            ..NodePassInfo::default()
        };
        let info = close_pass(ctx, &mut since, info);
        let labels = [("node", ctx.node_id() as u64), ("pass", k as u64)];
        // Figure 15's per-node probe series.
        ctx.obs()
            .add("counter.hashtree.probes", &labels, result.probes);
        ctx.obs()
            .add("counter.hashtree.hits", &labels, info.delta.hash_probes);
        pass_infos.push(info);

        if result.large.is_empty() {
            break;
        }
        passes.push(LargePass {
            k,
            itemsets: result.large,
        });
        persist.store(ctx, || checkpoint_of(algorithm, &p1, &passes, &pass_infos))?;
    }

    passes.retain(|p| !p.itemsets.is_empty());
    Ok(NodeOutcome {
        pass_infos,
        output: MiningOutput {
            algorithm,
            num_transactions: p1.num_transactions,
            min_support_count: p1.min_support_count,
            passes,
        },
    })
}

/// Builds the [`ParallelReport`] from a finished cluster run. The one
/// place a ledger is priced: a pass's modeled time is the paper's — its
/// slowest node's [`CostModel`] time over that pass's counter deltas, a
/// barrier ending every pass.
pub fn assemble_report(cluster: &ClusterConfig, run: ClusterRun<NodeOutcome>) -> ParallelReport {
    let cost = CostModel::default();
    let num_passes = run.results[0].pass_infos.len();
    debug_assert!(run.results.iter().all(|r| r.pass_infos.len() == num_passes));

    let mut pass_reports = Vec::with_capacity(num_passes);
    let mut total_modeled = 0.0;
    for p in 0..num_passes {
        let info = &run.results[0].pass_infos[p];
        let node_deltas: Vec<NodeStatsSnapshot> =
            run.results.iter().map(|r| r.pass_infos[p].delta).collect();
        let modeled_seconds = cost.execution_seconds(&node_deltas);
        total_modeled += modeled_seconds;
        pass_reports.push(PassReport {
            k: info.k,
            num_candidates: info.num_candidates,
            num_duplicated: info.num_duplicated,
            num_fragments: info.num_fragments,
            num_large: info.num_large,
            restored: info.restored,
            node_deltas,
            modeled_seconds,
        });
    }

    #[expect(clippy::expect_used, reason = "a cluster has at least one node")]
    let output = run.results.into_iter().next().expect("node 0").output;
    ParallelReport {
        output,
        num_nodes: cluster.num_nodes,
        pass_reports,
        wall: run.wall,
        modeled_seconds: total_modeled,
        node_totals: run.stats,
        degraded: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_taxonomy::TaxonomyBuilder;
    use gar_types::hash::{fx_hash_u32s, place};

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    #[test]
    fn owner_is_stable_bounded_and_spread() {
        for n in 1..8 {
            let o = place(fx_hash_u32s([3, 7]), n);
            assert!(o < n);
            assert_eq!(o, place(fx_hash_u32s([3, 7]), n));
        }
        // 100 distinct pairs over 4 nodes: every node should own some.
        let mut seen = [false; 4];
        for a in 0..10u32 {
            for b in 10..20u32 {
                seen[place(fx_hash_u32s([a, b]), 4)] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // The one placement rule, shared with the serving layer's shards.
        assert_eq!(
            place(fx_hash_u32s([5, 5]), 64) as u64,
            fx_hash_u32s([5, 5]) % 64
        );
    }

    #[test]
    fn root_key_keeps_multiplicity() {
        // 1 -> {3,4}; 2 -> {5}
        let mut b = TaxonomyBuilder::new(6);
        b.edge(3, 1).unwrap();
        b.edge(4, 1).unwrap();
        b.edge(5, 2).unwrap();
        let tax = b.build().unwrap();
        assert_eq!(&*root_key(&ids(&[3, 4]), &tax), &[1, 1]);
        assert_eq!(&*root_key(&ids(&[4, 5]), &tax), &[1, 2]);
        assert_eq!(&*root_key(&ids(&[5, 3]), &tax), &[1, 2]);
    }

    #[test]
    fn root_multisets_respect_availability() {
        let roots = [(1u32, 2usize), (2, 1)];
        let mut got = Vec::new();
        for_each_root_multiset(&roots, 2, &mut |m| got.push(m.to_vec()));
        // (1,1) allowed (avail 2), (1,2) allowed, (2,2) blocked (avail 1).
        assert_eq!(got, vec![vec![1, 1], vec![1, 2]]);
    }

    #[test]
    fn root_multisets_k3() {
        let roots = [(1u32, 3usize), (2, 2)];
        let mut got = Vec::new();
        for_each_root_multiset(&roots, 3, &mut |m| got.push(m.to_vec()));
        assert_eq!(
            got,
            vec![vec![1, 1, 1], vec![1, 1, 2], vec![1, 2, 2], vec![2, 2, 2]]
                .into_iter()
                .filter(|m| m != &vec![2, 2, 2]) // avail(2) = 2
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn candidate_bytes_scale_with_k_and_count() {
        assert_eq!(candidates_bytes(2, 10), 320);
        assert!(candidates_bytes(3, 10) > candidates_bytes(2, 10));
    }
}
