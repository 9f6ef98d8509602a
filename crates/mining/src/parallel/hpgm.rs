//! HPGM — Hash Partitioned Generalized association rule Mining (§3.2).
//!
//! Candidates are spread over the nodes by hashing the *itemset* — no
//! hierarchy awareness. Each node extends its local transactions with all
//! (candidate-present) ancestors, generates every k-subset, and ships each
//! subset to the node the hash assigns it to (paper Figure 3). The
//! paper's Example 1 shows the consequence: one transaction of 3 items
//! turns into 18 shipped items, because the ancestor itemsets scatter
//! uniformly over the cluster. Table 6 and Figure 13 quantify the damage
//! relative to H-HPGM.

use crate::candidate::items_in_candidates;
use crate::checkpoint::Checkpoint;
use crate::counter::{build_counter, CandidateCounter};
use crate::parallel::common::{
    assemble_report, for_each_k_subset, gather_large, node_pass_loop, owner_of, record_arena_obs,
    scan_partition, tags, BatchedExchange, PassPersistence, PassResult, POLL_EVERY_TXNS,
};
use crate::params::{Algorithm, MiningParams};
use crate::report::ParallelReport;
use crate::sequential::extract_large;
use crate::wire::{for_each_itemset, ItemsetBatch};
use gar_cluster::{Cluster, ClusterConfig};
use gar_storage::TransactionSource;
use gar_taxonomy::{PrunedView, Taxonomy};
use gar_types::{ItemId, Itemset, Result};
use std::cell::Cell;

/// The hierarchy-blind partitioning function: hash of the itemset's codes.
fn itemset_owner(items: &[ItemId], num_nodes: usize) -> usize {
    owner_of(items.iter().map(|it| it.raw()), num_nodes)
}

/// Runs HPGM over the per-node sources (`sources[n]` is node `n`'s
/// partition — possibly a recovery composite).
pub(crate) fn mine(
    sources: &[&dyn TransactionSource],
    tax: &Taxonomy,
    params: &MiningParams,
    cluster: &ClusterConfig,
    persist: &PassPersistence<'_, Checkpoint>,
) -> Result<ParallelReport> {
    let run = Cluster::run(cluster, |ctx| {
        let part = sources[ctx.node_id()];
        node_pass_loop(
            ctx,
            part,
            tax,
            params,
            Algorithm::Hpgm,
            persist,
            |ctx, k, candidates, p1| {
                let n = ctx.num_nodes();
                let me = ctx.node_id();
                let view = PrunedView::new(tax, items_in_candidates(candidates));

                // C_k^n: candidates whose hash lands on this node.
                let mine: Vec<Itemset> = candidates
                    .iter()
                    .filter(|c| itemset_owner(c.items(), n) == me)
                    .cloned()
                    .collect();
                let mut counter = build_counter(params.counter, k, &mine);
                record_arena_obs(ctx, k, counter.as_ref());

                // One k-itemset landing on its owner, generated here or
                // received: a single probe of this node's partition.
                let probes = Cell::new(0u64);
                let probe = |counter: &mut dyn CandidateCounter, subset: &[ItemId]| {
                    let out = counter.probe(subset);
                    ctx.stats().add_cpu(1);
                    ctx.stats().add_probes(out.hits);
                    probes.set(probes.get() + out.work.max(1));
                };
                let receive = |counter: &mut dyn CandidateCounter, payload: &[u8]| {
                    for_each_itemset(payload, k, |s| {
                        probe(counter, s);
                        Ok(())
                    })
                };

                let mut ex = BatchedExchange::new(ctx, tags::ITEMSETS, POLL_EVERY_TXNS, || {
                    ItemsetBatch::new(k)
                });
                let mut scratch = Vec::with_capacity(k);
                let mut extended = Vec::new();
                scan_partition(ctx, part, |t| {
                    view.extend_transaction_into(tax, t, &mut extended);
                    ctx.stats().add_cpu(extended.len() as u64);
                    for_each_k_subset(&extended, k, &mut scratch, &mut |subset| {
                        let owner = itemset_owner(subset, n);
                        if owner == me {
                            probe(counter.as_mut(), subset);
                            Ok(())
                        } else {
                            ctx.stats().add_cpu(1);
                            ex.push(owner, |batch| batch.push(subset))
                        }
                    })?;
                    ex.unit_done(|payload| receive(counter.as_mut(), payload))
                })?;
                ex.finish(|payload| receive(counter.as_mut(), payload))?;

                // Each node decides its own candidates, the coordinator merges.
                let _count = ctx.span("count");
                let local_large = extract_large(counter, p1.min_support_count);
                Ok(PassResult {
                    large: gather_large(ctx, k, local_large)?,
                    num_duplicated: 0,
                    num_fragments: 1,
                    probes: probes.get(),
                })
            },
        )
    })?;
    Ok(assemble_report(cluster, run))
}
