//! NPGM — Non Partitioned Generalized association rule Mining (§3.1).
//!
//! Candidates are fully replicated: every node counts its local partition
//! against the whole of `C_k` and the counts are all-reduced. No
//! transaction data ever crosses the interconnect — but when `|C_k|`
//! exceeds a node's memory `M`, the candidates are split into
//! `⌈|C_k|/M⌉` fragments and the *entire local partition is re-scanned
//! once per fragment* (the paper's Figure 2 outer loop). That re-scan
//! multiplier is why NPGM's execution time explodes at small minimum
//! support in Figure 14.

use crate::candidate::items_in_candidates;
use crate::checkpoint::Checkpoint;
use crate::counter::HashTreeCounter;
use crate::parallel::common::{
    assemble_report, candidates_bytes, node_pass_loop, record_arena_obs, scan_partition,
    settle_counter, PassPersistence, PassResult,
};
use crate::params::{Algorithm, MiningParams};
use crate::report::ParallelReport;
use crate::sequential::extract_large;
use gar_cluster::{Cluster, ClusterConfig};
use gar_storage::FlatPartition;
use gar_taxonomy::{PrunedView, Taxonomy};
use gar_types::Result;

/// Runs NPGM over the per-node sources (`sources[n]` is node `n`'s
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
            Algorithm::Npgm,
            persist,
            |ctx, k, candidates, p1| {
                let view = PrunedView::new(tax, items_in_candidates(candidates));

                // Fragment C_k so each piece fits the node memory budget.
                let total_bytes = candidates_bytes(k, candidates.len());
                let num_fragments = (total_bytes.div_ceil(ctx.memory_budget())).max(1) as usize;
                let frag_len = candidates.len().div_ceil(num_fragments);

                let mut large = Vec::new();
                let mut probes = 0u64;
                let mut extended = Vec::new();
                for fragment in candidates.chunks(frag_len.max(1)) {
                    let mut counter = HashTreeCounter::new(k, fragment);
                    record_arena_obs(ctx, k, &counter);
                    scan_partition(ctx, part, |t| {
                        view.extend_transaction_into(tax, t, &mut extended);
                        ctx.add_cpu(extended.len() as u64);
                        counter.push(&extended);
                        Ok(())
                    })?;
                    // Paper: "Send the sup_cou of C_k^d to the coordinator
                    // node"; the coordinator decides L_k^d and broadcasts.
                    let _count = ctx.span("count");
                    probes += settle_counter(ctx, &mut counter);
                    let global = ctx.all_reduce_u64(counter.counts())?;
                    large.extend(extract_large(fragment, &global, p1.min_support_count));
                }
                large.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
                Ok(PassResult {
                    large,
                    num_duplicated: 0,
                    num_fragments,
                    probes,
                })
            },
        )
    })?;
    Ok(assemble_report(cluster, run))
}
