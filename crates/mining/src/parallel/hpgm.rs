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
use crate::counter::{CountOutcome, HashTreeCounter};
use crate::parallel::common::{
    assemble_report, gather_large, node_pass_loop, record_arena_obs, scan_partition, tags,
    BatchedExchange, PassPersistence, PassResult, POLL_EVERY_TXNS,
};
use crate::params::{Algorithm, MiningParams};
use crate::report::ParallelReport;
use crate::sequential::extract_large;
use crate::wire::{decode_itemsets, ItemsetBatch};
use gar_cluster::{Cluster, ClusterConfig};
use gar_storage::FlatPartition;
use gar_taxonomy::{PrunedView, Taxonomy};
use gar_types::hash::{fx_hash_u32s, place, SubsetWalk};
use gar_types::{Itemset, Result};
use std::cell::Cell;

/// Runs HPGM over the per-node sources (`sources[n]` is node `n`'s
/// partition — possibly a recovery composite).
pub(crate) fn mine(
    sources: &[&FlatPartition],
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

                // C_k^n: candidates whose hash of codes (the hierarchy-blind
                // partitioning function) lands on this node.
                let mine: Vec<Itemset> = candidates
                    .iter()
                    .filter(|c| place(fx_hash_u32s(c.items().iter().map(|it| it.raw())), n) == me)
                    .cloned()
                    .collect();
                let mut counter = HashTreeCounter::new(k, &mine);
                record_arena_obs(ctx, k, &counter);

                // A k-itemset landing on its owner, generated here or
                // received, is one probe of this node's partition and one
                // tick. The ledger is charged once per transaction and once
                // per payload, never per itemset (DESIGN.md §15).
                let probes = Cell::new(0u64);
                let charge = |out: CountOutcome, ticks: u64| {
                    ctx.add_cpu(ticks + out.work);
                    ctx.add_probes(out.hits);
                    probes.set(probes.get() + out.work);
                };
                let mut received = Vec::new();
                let mut receive = |counter: &mut HashTreeCounter, payload: &[u8]| {
                    decode_itemsets(payload, k, &mut received)?;
                    charge(counter.probe_many(&received), 0);
                    Ok(())
                };

                let mut ex = BatchedExchange::new(ctx, tags::ITEMSETS, POLL_EVERY_TXNS, || {
                    ItemsetBatch::new(k)
                });
                let mut walk = SubsetWalk::default();
                let mut extended = Vec::new();
                let mut local = Vec::new();
                scan_partition(ctx, part, |t| {
                    view.extend_transaction_into(tax, t, &mut extended);
                    local.clear();
                    let mut shipped = 0u64;
                    walk.walk(&extended, k, |subset, hash| {
                        let owner = place(hash, n);
                        if owner == me {
                            local.extend_from_slice(subset);
                            Ok(())
                        } else {
                            shipped += 1;
                            ex.push(owner, |batch| batch.push(subset))
                        }
                    })?;
                    // The extension, one tick per shipped subset, one probe
                    // per local one.
                    charge(counter.probe_many(&local), extended.len() as u64 + shipped);
                    ex.unit_done(|payload| receive(&mut counter, payload))
                })?;
                ex.finish(|payload| receive(&mut counter, payload))?;

                // Each node decides its own candidates, the coordinator merges.
                let _count = ctx.span("count");
                let local_large = extract_large(&mine, counter.counts(), p1.min_support_count);
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
