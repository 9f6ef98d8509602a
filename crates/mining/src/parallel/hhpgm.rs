//! H-HPGM and the skew-handling variants (§3.3-§3.4).
//!
//! The defining move: candidates are assigned to nodes by hashing their
//! **root itemset** (each member replaced by the root of its tree). Every
//! generalization of an itemset shares its root itemset, so whole ancestor
//! chains land on one node and no ancestor ever needs to cross the wire.
//! A node ships only the *reduced* transaction — each raw item replaced by
//! its closest-to-bottom large ancestor — and only to the owners of root
//! combinations actually present (the paper's Example 2: 3 items sent
//! where HPGM sends 18).
//!
//! The receiving node re-extends the sub-transaction with (candidate-
//! present) ancestors and counts its local candidates — "increment the
//! sup_cou for the itemset and all its ancestor candidates".
//!
//! With a [`DuplicateGrain`], the hottest candidates (`C_k^D`) are first
//! replicated into every node's free memory and counted locally against
//! each node's *own* transactions (evenly distributed data ⇒ evenly
//! distributed work), with one all-reduce at the end of the pass. Root
//! combinations whose candidates are all duplicated stop being shipped
//! at all.

use crate::candidate::items_in_candidates;
use crate::checkpoint::Checkpoint;
use crate::counter::{build_counter, CandidateCounter};
use crate::parallel::common::{
    assemble_report, candidates_bytes, for_each_root_multiset, gather_large, node_pass_loop,
    owner_of, record_arena_obs, root_key, scan_partition, tags, BatchedExchange, Pass1,
    PassPersistence, PassResult, POLL_EVERY_TXNS,
};
use crate::parallel::duplicate::{select_duplicates, DuplicateGrain, DuplicateSelection};
use crate::params::{Algorithm, MiningParams};
use crate::report::ParallelReport;
use crate::sequential::extract_large;
use crate::wire::{for_each_item_list, ItemListBatch};
use gar_cluster::{Cluster, ClusterConfig, NodeCtx};
use gar_storage::TransactionSource;
use gar_taxonomy::{PrunedView, Taxonomy};
use gar_types::{FxHashSet, ItemId, Itemset, Result};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Owner node of a root-itemset key.
fn owner_of_key(key: &[u32], num_nodes: usize) -> usize {
    owner_of(key.iter().copied(), num_nodes)
}

/// Pass-`k` setup that every replica derives identically from globally
/// agreed inputs (the merged large sets and all-reduced pass-1 counts):
/// the duplicate selection, the ancestor-extension view, the owner of
/// each partitioned candidate, and the set of still-partitioned root
/// combinations.
///
/// On a real cluster each node computes this independently and in
/// parallel — zero communication, one setup's worth of elapsed time. The
/// simulator runs its nodes on shared cores, where N identical
/// computations would serialize and charge the wall clock N× for work
/// the modeled ledgers (correctly) price once; so the first node to
/// reach pass `k` computes the setup and the rest share it.
struct PassSetup {
    selection: DuplicateSelection,
    view: PrunedView,
    /// Owner node of `selection.remaining[i]`.
    owners: Vec<u32>,
    /// Root combinations that still have partitioned candidates.
    active: FxHashSet<Box<[u32]>>,
    /// L1 membership mask: defines "large item" for reduce-to-lowest-large.
    l1: Vec<bool>,
}

fn build_pass_setup(
    grain: Option<DuplicateGrain>,
    k: usize,
    candidates: &[Itemset],
    tax: &Taxonomy,
    num_nodes: usize,
    memory_budget: u64,
    p1: &Pass1,
) -> PassSetup {
    let mut l1 = vec![false; tax.num_items() as usize];
    for (s, _) in &p1.large.itemsets {
        l1[s.items()[0].index()] = true;
    }

    let selection = match grain {
        Some(g) => {
            let mut load = vec![0u64; num_nodes];
            for c in candidates {
                load[owner_of_key(&root_key(c.items(), tax), num_nodes)] += candidates_bytes(k, 1);
            }
            let max_load = load.iter().copied().max().unwrap_or(0);
            let budget = memory_budget.saturating_sub(max_load);
            select_duplicates(
                g,
                candidates,
                tax,
                &p1.item_counts,
                p1.num_transactions,
                &l1,
                budget,
            )
        }
        None => DuplicateSelection::none(candidates),
    };

    let view = PrunedView::new(tax, items_in_candidates(candidates));

    let mut owners = Vec::with_capacity(selection.remaining.len());
    let mut active: FxHashSet<Box<[u32]>> = FxHashSet::default();
    for c in &selection.remaining {
        let key = root_key(c.items(), tax);
        owners.push(owner_of_key(&key, num_nodes) as u32);
        active.insert(key);
    }

    PassSetup {
        selection,
        view,
        owners,
        active,
        l1,
    }
}

/// Counts, in one pass over `items` (a local reduced transaction or a
/// received sub-transaction), this node's two counter targets: the
/// replicated `C_k^D` (`dup_counter`, counted by every node against its
/// *own* data — `None` on the receive path, where the sender already
/// counted it) and this node's hash partition (`local_counter`).
///
/// The items are extended with candidate-present ancestors **once**, then
/// each counter walks the extended transaction and its tree jointly
/// ("generate k-itemset from the received items and increment the sup_cou
/// for the itemset and all its ancestor candidates"). Each tree holds
/// exactly the candidates its ownership class admits, so the joint walk
/// counts precisely what per-combination subset enumeration would — while
/// never expanding a subset that matches no candidate prefix.
///
/// Returns the walk's work — already charged to the ledger — so the
/// caller can aggregate it per pass for the observability counters.
fn count_combos(
    ctx: &NodeCtx,
    tax: &Taxonomy,
    view: &PrunedView,
    dup_counter: Option<&mut dyn CandidateCounter>,
    local_counter: &mut dyn CandidateCounter,
    items: &[ItemId],
    ext: &mut Vec<ItemId>,
) -> u64 {
    if items.is_empty() {
        return 0;
    }
    view.extend_transaction_into(tax, items, ext);

    let mut work = 0u64;
    let mut hits = 0u64;
    if let Some(dup) = dup_counter {
        let out = dup.count_transaction(ext);
        work += out.work;
        hits += out.hits;
    }
    let out = local_counter.count_transaction(ext);
    work += out.work;
    hits += out.hits;
    ctx.add_cpu(ext.len() as u64 + work);
    ctx.add_probes(hits);
    work
}

/// Runs H-HPGM (grain `None`) or one of the duplication variants over
/// the per-node sources (`sources[n]` is node `n`'s partition — possibly
/// a recovery composite).
pub(crate) fn mine(
    algorithm: Algorithm,
    grain: Option<DuplicateGrain>,
    sources: &[&dyn TransactionSource],
    tax: &Taxonomy,
    params: &MiningParams,
    cluster: &ClusterConfig,
    persist: &PassPersistence<'_, Checkpoint>,
) -> Result<ParallelReport> {
    let setups: Mutex<HashMap<usize, Arc<PassSetup>>> = Mutex::new(HashMap::new());
    let run = Cluster::run(cluster, |ctx| {
        let part = sources[ctx.node_id()];
        node_pass_loop(
            ctx,
            part,
            tax,
            params,
            algorithm,
            persist,
            |ctx, k, candidates, p1| {
                let n = ctx.num_nodes();
                let me = ctx.node_id();

                // Replica-identical pass setup: computed by the first node
                // to reach pass k, shared by the rest (see [`PassSetup`]).
                let setup = {
                    #[expect(
                        clippy::unwrap_used,
                        reason = "poisoned only by a peer's panic, which already fails the run"
                    )]
                    let mut m = setups.lock().unwrap();
                    match m.get(&k) {
                        Some(s) => Arc::clone(s),
                        None => {
                            let s = Arc::new(build_pass_setup(
                                grain,
                                k,
                                candidates,
                                tax,
                                n,
                                ctx.memory_budget(),
                                p1,
                            ));
                            m.insert(k, Arc::clone(&s));
                            s
                        }
                    }
                };
                let PassSetup {
                    selection,
                    view,
                    owners,
                    active,
                    l1,
                } = &*setup;

                // My partition of the non-duplicated candidates.
                let mine: Vec<Itemset> = selection
                    .remaining
                    .iter()
                    .zip(owners)
                    .filter(|(_, &o)| o as usize == me)
                    .map(|(c, _)| c.clone())
                    .collect();
                let mut local_counter = build_counter(params.counter, k, &mine);
                let mut dup_counter = build_counter(params.counter, k, &selection.duplicated);
                record_arena_obs(ctx, k, local_counter.as_ref());
                record_arena_obs(ctx, k, dup_counter.as_ref());

                let probes = Cell::new(0u64);
                let mut roots_scratch: Vec<(u32, usize)> = Vec::new();
                let mut owner_roots: Vec<FxHashSet<u32>> = vec![FxHashSet::default(); n];
                let mut group_scratch: Vec<ItemId> = Vec::new();
                let mut recv_scratch: Vec<ItemId> = Vec::new();
                let mut reduced: Vec<ItemId> = Vec::new();
                let mut ext_scratch: Vec<ItemId> = Vec::new();

                // Receive path: C_k^D was already counted by the sender
                // against its own transaction, so only the local partition
                // counts here.
                let mut receive =
                    |local: &mut dyn CandidateCounter, ext: &mut Vec<ItemId>, payload: &[u8]| {
                        for_each_item_list(payload, &mut recv_scratch, |list| {
                            let w = count_combos(ctx, tax, view, None, local, list, ext);
                            probes.set(probes.get() + w);
                            Ok(())
                        })
                    };

                let mut ex =
                    BatchedExchange::new(ctx, tags::ITEMS, POLL_EVERY_TXNS, ItemListBatch::new);
                scan_partition(ctx, part, |t| {
                    tax.reduce_to_lowest_large_into(t, |it| l1[it.index()], &mut reduced);
                    ctx.add_cpu(t.len() as u64);
                    if reduced.is_empty() {
                        return Ok(());
                    }

                    // One combined local counting pass: the replicated C_k^D
                    // (counted on every node's own data) and this node's own
                    // partition, sharing a single ancestor extension.
                    let w = count_combos(
                        ctx,
                        tax,
                        view,
                        Some(dup_counter.as_mut()),
                        local_counter.as_mut(),
                        &reduced,
                        &mut ext_scratch,
                    );
                    probes.set(probes.get() + w);

                    // Distinct roots present, with the number of reduced items
                    // under each (availability bound for same-root combos).
                    roots_scratch.clear();
                    for &it in &reduced {
                        let r = tax.root_of(it).raw();
                        match roots_scratch.iter_mut().find(|(x, _)| *x == r) {
                            Some((_, c)) => *c += 1,
                            None => roots_scratch.push((r, 1)),
                        }
                    }
                    roots_scratch.sort_unstable();

                    // Route: every active root k-combination marks its roots
                    // for the owning node.
                    for s in owner_roots.iter_mut() {
                        s.clear();
                    }
                    // One tick per combination, charged once per transaction.
                    let mut combos = 0u64;
                    for_each_root_multiset(&roots_scratch, k, &mut |combo| {
                        combos += 1;
                        if active.contains(combo) {
                            let owner = owner_of_key(combo, n);
                            for &r in combo {
                                owner_roots[owner].insert(r);
                            }
                        }
                    });
                    ctx.add_cpu(combos);

                    // Ship sub-transactions to the other owners (this node's
                    // own combinations were counted above).
                    for (owner, wanted) in owner_roots.iter().enumerate() {
                        if owner == me || wanted.is_empty() {
                            continue;
                        }
                        group_scratch.clear();
                        group_scratch.extend(
                            reduced
                                .iter()
                                .copied()
                                .filter(|&it| wanted.contains(&tax.root_of(it).raw())),
                        );
                        ex.push(owner, |batch| batch.push(&group_scratch))?;
                    }
                    ex.unit_done(|p| receive(local_counter.as_mut(), &mut ext_scratch, p))
                })?;
                ex.finish(|p| receive(local_counter.as_mut(), &mut ext_scratch, p))?;

                let _count = ctx.span("count");
                // Partitioned candidates: local decision + coordinator merge.
                let local_large = extract_large(local_counter, p1.min_support_count);
                let mut large = gather_large(ctx, k, local_large)?;

                // Duplicated candidates: one all-reduce, decided everywhere.
                if !selection.duplicated.is_empty() {
                    let global = ctx.all_reduce_u64(dup_counter.counts())?;
                    dup_counter.set_counts(&global);
                    large.extend(extract_large(dup_counter, p1.min_support_count));
                    large.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
                }
                Ok(PassResult {
                    large,
                    num_duplicated: selection.duplicated.len(),
                    num_fragments: 1,
                    probes: probes.get(),
                })
            },
        )
    })?;
    Ok(assemble_report(cluster, run))
}
