//! Parallel FP-Growth on the shared-nothing cluster simulator.
//!
//! The run has two logical passes:
//!
//! 1. **Count** — identical to the Apriori family's pass 1: all-reduce the
//!    transaction count, scan + count ancestor-extended items, all-reduce
//!    the counts. Every node now holds the global frequency order.
//! 2. **Build + grow** — each node builds an FP-tree over its own
//!    partition, then ships every projection's conditional-base paths to
//!    the projection's *owner* through one non-barrier exchange. Ownership
//!    hashes the projection item's classification-hierarchy **root**
//!    (H-HPGM's placement carried to pattern growth), so an item and all
//!    its ancestors — the generalization chain the related-item filter
//!    inspects — land on one node. After the exchange quiesces, owners
//!    mine their projections as independent tasks, streaming each finished
//!    projection to the coordinator, which checkpoints at projection
//!    granularity and finally broadcasts the assembled output.
//!
//! Every projection task announces itself via `set_pass(3 + t)`, so
//! `FaultPlan` coordinates address "node n, projection t": `panic@n1p4`
//! kills node 1 in its second projection, and [`mine_parallel_with`]
//! recovers by redistributing the dead node's partitions and replaying
//! only the projections missing from the checkpoint. Support counts are
//! partition-independent, so the recovered output — and the rule store
//! derived from it — is byte-identical to the fault-free run.

use crate::checkpoint::FpgCheckpoint;
use crate::grow::{mine_projection, CondBase, GrowCtx};
use crate::order::{ItemOrder, RelatedRanks};
use crate::sequential::group_passes;
use crate::tree::FpTree;
use crate::wire::{self, tags, PathBatch};
use gar_cluster::{Cluster, ClusterConfig, Envelope, NodeCtx};
use gar_mining::parallel::common::{
    assemble_report, close_pass, mine_with_recovery, run_pass1, scan_partition, BatchedExchange,
    NodeOutcome, NodePassInfo, Pass1, PassPersistence, WireBatch,
};
use gar_mining::params::{Algorithm, MiningParams};
use gar_mining::report::{LargePass, MiningOutput, ParallelReport};
use gar_mining::sequential::large_items_from_counts;
use gar_storage::{FlatPartition, PartitionedDatabase};
use gar_taxonomy::Taxonomy;
use gar_types::hash::{fx_hash_u32s, place};
use gar_types::{Error, ItemId, Itemset, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

pub use gar_mining::parallel::MineOptions;

/// How many projections to extract between opportunistic inbox drains
/// during the base exchange.
const POLL_EVERY_PROJECTIONS: usize = 8;

/// The node owning `item`'s projection: hash of the item's *root*, so a
/// whole generalization chain is mined on one node.
pub fn owner_of(item: ItemId, tax: &Taxonomy, num_nodes: usize) -> usize {
    place(fx_hash_u32s([tax.root_of(item).raw()]), num_nodes)
}

impl WireBatch for PathBatch {
    fn byte_len(&self) -> usize {
        PathBatch::byte_len(self)
    }
    fn take(&mut self) -> Arc<[u8]> {
        PathBatch::take(self)
    }
}

/// Runs parallel FP-Growth over `db` (one partition per node) on a
/// simulated cluster of `cluster.num_nodes` nodes: [`mine_parallel_with`]
/// with default [`MineOptions`].
///
/// # Errors
/// Rejects a node/partition mismatch and invalid parameters; propagates
/// node failures.
pub fn mine_parallel(
    db: &PartitionedDatabase,
    tax: &Taxonomy,
    params: &MiningParams,
    cluster: &ClusterConfig,
) -> Result<ParallelReport> {
    mine_parallel_with(db, tax, params, cluster, &MineOptions::default())
}

/// [`mine_parallel`] with the fault-tolerant runtime: projection-level
/// checkpointing, `--resume`, and degraded-mode recovery — the Apriori
/// family's `mine_with_recovery` loop, with the projection (not the pass)
/// as the recovery unit.
pub fn mine_parallel_with(
    db: &PartitionedDatabase,
    tax: &Taxonomy,
    params: &MiningParams,
    cluster: &ClusterConfig,
    opts: &MineOptions,
) -> Result<ParallelReport> {
    mine_with_recovery(db, params, cluster, opts, |sources, cluster, persist| {
        let run = Cluster::run(cluster, |ctx| {
            node_mine(ctx, sources[ctx.node_id()], tax, params, persist)
        })?;
        Ok(assemble_report(cluster, run))
    })
}

/// Coordinator-side intake of one finished projection from a peer.
fn receive_result(
    env: &Envelope,
    order: &ItemOrder,
    deep: &mut BTreeMap<ItemId, Vec<(Itemset, u64)>>,
) -> Result<()> {
    if env.tag != tags::RESULT {
        return Err(Error::Protocol(format!(
            "coordinator expected RESULT, got tag {}",
            env.tag
        )));
    }
    let (rank, items) = wire::decode_result(&env.payload)?;
    if rank as usize >= order.num_large() {
        return Err(Error::Protocol(format!(
            "result for unknown projection rank {rank}"
        )));
    }
    let item = order.item_at(rank);
    if deep.insert(item, items).is_some() {
        return Err(Error::Protocol(format!(
            "duplicate projection result for item {}",
            item.raw()
        )));
    }
    Ok(())
}

fn node_mine(
    ctx: &NodeCtx,
    part: &FlatPartition,
    tax: &Taxonomy,
    params: &MiningParams,
    persist: &PassPersistence<'_, FpgCheckpoint>,
) -> Result<NodeOutcome> {
    let me = ctx.node_id();
    let n = ctx.num_nodes();

    // ---- Pass 1: global item counts (or their checkpointed replay). ----
    let restored = persist.resume_from.map(|cp| Pass1 {
        num_transactions: cp.num_transactions,
        min_support_count: cp.min_support_count,
        item_counts: cp.item_counts.clone(),
        large: large_items_from_counts(&cp.item_counts, cp.min_support_count),
    });
    let (p1, info1) = run_pass1(ctx, part, tax, params, restored)?;
    let order = ItemOrder::new(&p1.item_counts, p1.min_support_count);
    let mut pass_infos = vec![info1];

    // The finished projections every node skips on a resumed attempt.
    let completed: &[(ItemId, Vec<(Itemset, u64)>)] =
        persist.resume_from.map_or(&[], |cp| &cp.completed);
    let has_completed = |item: ItemId| persist.resume_from.is_some_and(|cp| cp.has(item));

    // Coordinator-side accumulator of finished projections, seeded from
    // the checkpoint. BTreeMap keys give the canonical assembly order
    // regardless of result arrival order.
    let mut deep: BTreeMap<ItemId, Vec<(Itemset, u64)>> = BTreeMap::new();
    let checkpoint = |deep: &BTreeMap<ItemId, Vec<(Itemset, u64)>>| {
        persist.store(ctx, || FpgCheckpoint {
            num_transactions: p1.num_transactions,
            min_support_count: p1.min_support_count,
            item_counts: p1.item_counts.clone(),
            // BTreeMap iteration is already the canonical item order.
            completed: deep.iter().map(|(it, v)| (*it, v.clone())).collect(),
        })
    };
    if ctx.is_coordinator() {
        deep.extend(completed.iter().cloned());
        if persist.resume_from.is_none() {
            checkpoint(&deep)?;
        }
    }

    // All nodes derive this from the same global data, so pass_infos
    // stays equal-length across the cluster either way.
    let run_projections = params.max_pass != Some(1) && order.num_large() > 0;

    let passes: Vec<LargePass> = if run_projections {
        ctx.set_pass(2);
        let mut since = ctx.ledger();
        let _pass = ctx.span("pass");

        // Every node derives the same global projection count (the
        // pass-2 "candidates"), its own task list, and — on the
        // coordinator — the exact number of peer results to expect.
        // On a resume this is the *remaining* work; a fully-checkpointed
        // run rebuilds nothing and rescans nothing.
        let todo: Vec<u32> = (0..order.num_large() as u32)
            .filter(|&r| !has_completed(order.item_at(r)))
            .collect();
        let owned: Vec<u32> = todo
            .iter()
            .copied()
            .filter(|&r| owner_of(order.item_at(r), tax, n) == me)
            .collect();
        let mut expected = if ctx.is_coordinator() {
            todo.len() - owned.len()
        } else {
            0
        };

        let related = RelatedRanks::new(&order, tax);
        let mut bases: Vec<CondBase> = vec![CondBase::new(); order.num_large()];
        if !todo.is_empty() {
            // ---- Build the local FP-tree over rank-projected transactions. ----
            let mut tree = FpTree::new(order.num_large());
            {
                let mut ranks = Vec::new();
                let mut extended = Vec::new();
                scan_partition(ctx, part, |t| {
                    tax.extend_transaction_into(t, &mut extended);
                    ctx.add_cpu(extended.len() as u64);
                    order.project(&extended, &mut ranks);
                    tree.insert(&ranks);
                    Ok(())
                })?;
            }
            let labels = [("node", me as u64), ("pass", 2u64)];
            ctx.obs()
                .add("counter.fptree.nodes", &labels, tree.num_nodes() as u64);
            ctx.obs()
                .add("counter.fptree.inserts", &labels, tree.num_inserts());

            // ---- Exchange: ship each projection's base paths to its owner. ----
            let mut filtered: Vec<u32> = Vec::new();
            let mut ex =
                BatchedExchange::new(ctx, tags::PATHS, POLL_EVERY_PROJECTIONS, PathBatch::new);
            for &r in &todo {
                let owner = owner_of(order.item_at(r), tax, n);
                let skip = related.row(r);
                tree.for_each_base_path(r, &mut |path, count| {
                    ctx.add_cpu(path.len() as u64 + 1);
                    if owner == me {
                        bases[r as usize].push_filtered(path, skip, count);
                        return Ok(());
                    }
                    filtered.clear();
                    filtered.extend(path.iter().copied().filter(|&q| !skip.contains(q)));
                    if filtered.is_empty() {
                        Ok(())
                    } else {
                        ex.push(owner, |batch| batch.push(r, count, &filtered))
                    }
                })?;
                ex.unit_done(|p| wire::receive_paths(p, &mut bases))?;
            }
            ex.finish(|p| wire::receive_paths(p, &mut bases))?;
        }

        let mut grow = GrowCtx::new(&order, &related, p1.min_support_count, params.max_pass);
        for (t, &r) in owned.iter().enumerate() {
            // The per-projection fault coordinate: `panic@nXpY` with
            // Y >= 3 kills node X in its (Y-3)rd projection task.
            ctx.set_pass(3 + t);
            let item = order.item_at(r);
            let mut found = Vec::new();
            let produced = (grow.base_entries, grow.base_entries_merged);
            {
                let _projection = ctx.span("projection");
                mine_projection(&mut grow, item, &bases[r as usize], &mut found);
            }
            // Stored ÷ produced is the useful share of the projection's
            // sub-base entries: the rest were equal prefixes, merged.
            let labels = [("node", me as u64), ("pass", ctx.current_pass())];
            ctx.obs().add("counter.fptree.projections", &labels, 1);
            ctx.obs().add(
                "counter.fptree.base_entries",
                &labels,
                grow.base_entries - produced.0,
            );
            ctx.obs().add(
                "counter.fptree.base_entries_merged",
                &labels,
                grow.base_entries_merged - produced.1,
            );
            if ctx.is_coordinator() {
                if deep.insert(item, found).is_some() {
                    return Err(Error::Protocol(format!(
                        "projection {} mined twice",
                        item.raw()
                    )));
                }
                checkpoint(&deep)?;
                // Opportunistically absorb peers' finished projections so
                // the checkpoint advances while we still mine our own.
                while let Some(env) = ctx.try_recv()? {
                    receive_result(&env, &order, &mut deep)?;
                    expected = expected.checked_sub(1).ok_or_else(|| {
                        Error::Protocol("unexpected extra projection result".into())
                    })?;
                    checkpoint(&deep)?;
                }
            } else {
                ctx.send(0, tags::RESULT, wire::encode_result(r, &found))?;
            }
        }
        ctx.add_cpu(grow.work);

        // ---- Gather the stragglers, assemble, broadcast. ----
        let passes = {
            let _gather = ctx.span("gather");
            if ctx.is_coordinator() {
                while expected > 0 {
                    let env = ctx.recv()?;
                    receive_result(&env, &order, &mut deep)?;
                    expected -= 1;
                    checkpoint(&deep)?;
                }
                let found: Vec<(Itemset, u64)> =
                    deep.values().flat_map(|v| v.iter().cloned()).collect();
                let mut passes = Vec::new();
                if !p1.large.itemsets.is_empty() {
                    passes.push(p1.large.clone());
                }
                passes.extend(group_passes(found));
                ctx.broadcast(Some(wire::encode_passes(&passes)))?;
                passes
            } else {
                wire::decode_passes(&ctx.broadcast(None)?)?
            }
        };

        let deep_large: usize = passes
            .iter()
            .filter(|p| p.k >= 2)
            .map(|p| p.itemsets.len())
            .sum();
        let info = NodePassInfo {
            k: 2,
            num_candidates: todo.len(),
            num_fragments: 1,
            num_large: deep_large,
            ..NodePassInfo::default()
        };
        pass_infos.push(close_pass(ctx, &mut since, info));
        passes
    } else if p1.large.itemsets.is_empty() {
        Vec::new()
    } else {
        vec![p1.large.clone()]
    };

    Ok(NodeOutcome {
        pass_infos,
        output: MiningOutput {
            algorithm: Algorithm::FpGrowth,
            num_transactions: p1.num_transactions,
            min_support_count: p1.min_support_count,
            passes,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_taxonomy::TaxonomyBuilder;

    #[test]
    fn owner_is_stable_within_a_generalization_chain() {
        // 0 -> 1 -> 2 (one chain), 3 alone.
        let mut b = TaxonomyBuilder::new(4);
        b.edge(1, 0).unwrap();
        b.edge(2, 1).unwrap();
        let tax = b.build().unwrap();
        for nodes in [1usize, 2, 4, 8] {
            let owner_root = owner_of(ItemId(0), &tax, nodes);
            assert_eq!(owner_of(ItemId(1), &tax, nodes), owner_root);
            assert_eq!(owner_of(ItemId(2), &tax, nodes), owner_root);
            assert!(owner_of(ItemId(3), &tax, nodes) < nodes);
        }
    }

    #[test]
    fn partition_mismatch_rejected() {
        let tax = TaxonomyBuilder::new(2).build().unwrap();
        let db = PartitionedDatabase::build_in_memory(
            2,
            vec![vec![ItemId(0)], vec![ItemId(1)]].into_iter(),
        )
        .unwrap();
        let cluster = ClusterConfig::new(3, 64 * 1024 * 1024);
        let err =
            mine_parallel(&db, &tax, &MiningParams::with_min_support(0.1), &cluster).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
    }
}
