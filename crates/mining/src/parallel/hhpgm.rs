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
use crate::counter::HashTreeCounter;
use crate::parallel::common::{
    assemble_report, candidates_bytes, gather_large, node_pass_loop, record_arena_obs,
    scan_partition, settle_counter, tags, BatchedExchange, Pass1, PassPersistence, PassResult,
    POLL_EVERY_TXNS,
};
use crate::parallel::duplicate::{root_keys, select_duplicate_indices, DuplicateGrain};
use crate::params::{Algorithm, MiningParams};
use crate::report::ParallelReport;
use crate::sequential::extract_large;
use crate::wire::{for_each_item_list, ItemListBatch};
use gar_cluster::{Cluster, ClusterConfig, NodeCtx};
use gar_storage::FlatPartition;
use gar_taxonomy::{PrunedView, Taxonomy};
use gar_types::hash::{fx_hash_u32s, place};
use gar_types::{ItemId, Itemset, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Sentinel for "no slot".
const NONE: u32 = u32::MAX;

/// The route of a pass: every *active* root multiset — the root key of a
/// candidate that stays hash-partitioned — mapped to its owner node. It
/// is a prefix tree over root *ranks* (a root's index in
/// `Taxonomy::roots`, so rank order is code order) whose last level holds
/// the owner, built once per pass from keys and owners computed once per
/// candidate.
struct Route {
    k: usize,
    num_nodes: usize,
    num_roots: usize,
    /// Per item, the rank of its root.
    root_rank: Vec<u32>,
    /// Per prefix-tree node, its `edges` as `(start, len)`.
    nodes: Vec<(u32, u32)>,
    /// `(root rank, target)` per edge, sorted by rank within a node; a
    /// target is the child node, on level `k − 1` the owner.
    edges: Vec<(u32, u32)>,
}

impl Route {
    /// The route of the `(root key, owner)` pairs in `active`.
    fn new<'a>(
        tax: &Taxonomy,
        k: usize,
        num_nodes: usize,
        active: impl Iterator<Item = (&'a [u32], usize)>,
    ) -> Route {
        let mut rank = vec![0; tax.num_items() as usize];
        for (r, root) in tax.roots().iter().enumerate() {
            rank[root.index()] = r as u32;
        }
        let root_rank = (0..tax.num_items())
            .map(|it| rank[tax.root_of(ItemId(it)).index()])
            .collect();

        let mut tree: Vec<Vec<(u32, u32)>> = vec![Vec::new()];
        for (key, owner) in active {
            let mut node = 0;
            for (level, &root) in key.iter().enumerate() {
                let r = rank[root as usize];
                let fresh = tree.len() as u32;
                let edges = &mut tree[node];
                node = match edges.binary_search_by_key(&r, |e| e.0) {
                    Ok(at) => edges[at].1 as usize,
                    Err(at) => {
                        let target = if level + 1 == k { owner as u32 } else { fresh };
                        edges.insert(at, (r, target));
                        if level + 1 < k {
                            tree.push(Vec::new());
                        }
                        target as usize
                    }
                };
            }
        }
        let mut route = Route {
            k,
            num_nodes,
            num_roots: tax.roots().len(),
            root_rank,
            nodes: Vec::with_capacity(tree.len()),
            edges: Vec::new(),
        };
        for edges in tree {
            route
                .nodes
                .push((route.edges.len() as u32, edges.len() as u32));
            route.edges.extend(edges);
        }
        route
    }
}

/// One node's routing scratch over the shared [`Route`].
struct Router<'a> {
    route: &'a Route,
    /// Per root rank, its position in `roots`; `NONE` outside a call.
    slot: Vec<u32>,
    /// The transaction's distinct roots as `(rank, availability)` — the
    /// number of its items under the root — ascending.
    roots: Vec<(u32, u32)>,
    /// Per owner node, `words` words of bits over positions in `roots`.
    marks: Vec<u64>,
    words: usize,
    /// Positions in `roots` of the multiset being walked.
    path: Vec<u32>,
    /// Coefficients of the multiset-counting polynomial.
    poly: Vec<u64>,
    group: Vec<ItemId>,
}

impl<'a> Router<'a> {
    fn new(route: &'a Route) -> Router<'a> {
        Router {
            route,
            slot: vec![NONE; route.num_roots],
            roots: Vec::new(),
            marks: Vec::new(),
            words: 0,
            path: Vec::new(),
            poly: Vec::new(),
            group: Vec::new(),
        }
    }

    /// Routes the reduced transaction `reduced`: every active root
    /// k-multiset it can support (each root at most its availability
    /// times — fewer items can never support a candidate, because
    /// ancestor-related items never form one) marks its roots for its
    /// owner, and `ship` gets, owner by owner except `skip`, the items
    /// under the marked roots. Returns the route's ticks: one per such
    /// multiset, active or not, counted in closed form — so when nothing
    /// is active nothing is enumerated.
    fn route(
        &mut self,
        reduced: &[ItemId],
        skip: usize,
        ship: impl FnMut(usize, &[ItemId]) -> Result<()>,
    ) -> Result<u64> {
        let route = self.route;
        self.roots.clear();
        for &it in reduced {
            let r = route.root_rank[it.index()];
            match self.slot[r as usize] {
                NONE => {
                    self.slot[r as usize] = self.roots.len() as u32;
                    self.roots.push((r, 1));
                }
                at => self.roots[at as usize].1 += 1,
            }
        }
        let combos = self.multisets();
        let shipped = if route.edges.is_empty() {
            Ok(())
        } else {
            self.mark_and_ship(reduced, skip, ship)
        };
        for &(r, _) in &self.roots {
            self.slot[r as usize] = NONE;
        }
        shipped.map(|()| combos)
    }

    /// Marks every active multiset's roots for its owner, then ships each
    /// marked owner but `skip` the items under its marked roots.
    fn mark_and_ship(
        &mut self,
        reduced: &[ItemId],
        skip: usize,
        mut ship: impl FnMut(usize, &[ItemId]) -> Result<()>,
    ) -> Result<()> {
        let route = self.route;
        self.roots.sort_unstable();
        for (at, &(r, _)) in self.roots.iter().enumerate() {
            self.slot[r as usize] = at as u32;
        }
        self.words = self.roots.len().div_ceil(64);
        self.marks.clear();
        self.marks.resize(route.num_nodes * self.words, 0);
        self.walk(0, route.k, 0, 0);
        for owner in (0..route.num_nodes).filter(|&o| o != skip) {
            let marks = &self.marks[owner * self.words..][..self.words];
            if marks.iter().all(|&w| w == 0) {
                continue;
            }
            let slot = &self.slot;
            self.group.clear();
            self.group.extend(reduced.iter().copied().filter(|it| {
                let at = slot[route.root_rank[it.index()] as usize] as usize;
                marks[at / 64] >> (at % 64) & 1 == 1
            }));
            ship(owner, &self.group)?;
        }
        Ok(())
    }

    /// The number of k-multisets over `roots` that take each root at most
    /// its availability times: the `x^k` coefficient of
    /// `Π (1 + x + … + x^avail)`.
    fn multisets(&mut self) -> u64 {
        let k = self.route.k;
        let poly = &mut self.poly;
        poly.clear();
        poly.resize(k + 1, 0);
        poly[0] = 1;
        for &(_, avail) in &self.roots {
            for m in (1..=k).rev() {
                poly[m] += (1..=m.min(avail as usize))
                    .map(|j| poly[m - j])
                    .sum::<u64>();
            }
        }
        poly[k]
    }

    /// Walks prefix-tree `node` with `need` more roots to pick from
    /// position `from` on, which the path already holds `run` times;
    /// every active multiset reached marks its positions for its owner.
    fn walk(&mut self, node: u32, need: usize, from: usize, run: u32) {
        let route = self.route;
        let (start, len) = route.nodes[node as usize];
        let edges = &route.edges[start as usize..][..len as usize];
        for j in from..self.roots.len() {
            let (rank, avail) = self.roots[j];
            let used = if j == from { run } else { 0 };
            if used >= avail {
                continue;
            }
            let Ok(at) = edges.binary_search_by_key(&rank, |e| e.0) else {
                continue;
            };
            let target = edges[at].1;
            self.path.push(j as u32);
            if need == 1 {
                let marks = &mut self.marks[target as usize * self.words..][..self.words];
                for &p in &self.path {
                    marks[p as usize / 64] |= 1 << (p % 64);
                }
            } else {
                self.walk(target, need - 1, j, used + 1);
            }
            self.path.pop();
        }
    }
}

/// Pass-`k` setup that every replica derives identically from globally
/// agreed inputs (the merged large sets and all-reduced pass-1 counts):
/// the duplicate selection, the ancestor-extension view, the partitioned
/// candidates grouped by owner, and the route of their root combinations.
///
/// On a real cluster each node computes this independently and in
/// parallel — zero communication, one setup's worth of elapsed time. The
/// simulator runs its nodes on shared cores, where N identical
/// computations would serialize and charge the wall clock N× for work
/// the modeled ledgers (correctly) price once; so the first node to
/// reach pass `k` computes the setup and the rest share it.
struct PassSetup {
    /// `C_k^D`, in selection order.
    duplicated: Vec<Itemset>,
    /// The hash-partitioned candidates of each owner node, in input order.
    partitions: Vec<Vec<Itemset>>,
    view: PrunedView,
    route: Route,
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

    // Each candidate's root key and owner, computed once.
    let keys = root_keys(candidates, tax);
    let key = |i: usize| &keys[i * k..][..k];
    let owners: Vec<usize> = (0..candidates.len())
        .map(|i| place(fx_hash_u32s(key(i).iter().copied()), num_nodes))
        .collect();

    let (selected, taken) = match grain {
        Some(g) => {
            let mut load = vec![0u64; num_nodes];
            for &o in &owners {
                load[o] += candidates_bytes(k, 1);
            }
            let max_load = load.iter().copied().max().unwrap_or(0);
            select_duplicate_indices(
                g,
                candidates,
                &keys,
                tax,
                &p1.item_counts,
                p1.num_transactions,
                &l1,
                memory_budget.saturating_sub(max_load),
            )
        }
        None => (Vec::new(), vec![false; candidates.len()]),
    };
    let remaining = || (0..candidates.len()).filter(|&i| !taken[i]);
    let mut partitions = vec![Vec::new(); num_nodes];
    for i in remaining() {
        partitions[owners[i]].push(candidates[i].clone());
    }

    PassSetup {
        duplicated: selected.iter().map(|&i| candidates[i].clone()).collect(),
        partitions,
        view: PrunedView::new(tax, items_in_candidates(candidates)),
        route: Route::new(tax, k, num_nodes, remaining().map(|i| (key(i), owners[i]))),
        l1,
    }
}

/// Extends `items` (a local reduced transaction or a received
/// sub-transaction) with its candidate-present ancestors and counts it
/// into `counter` ("generate k-itemset from the received items and
/// increment the sup_cou for the itemset and all its ancestor
/// candidates"). The counter holds exactly the candidates its path
/// admits, so it counts precisely what per-combination subset
/// enumeration would — while never expanding a subset that matches no
/// candidate prefix.
///
/// The extension is charged here; the counting work and hits reach the
/// ledger when the pass settles its counters ([`settle_counter`]).
fn count_extended(
    ctx: &NodeCtx,
    tax: &Taxonomy,
    view: &PrunedView,
    counter: &mut HashTreeCounter,
    items: &[ItemId],
    ext: &mut Vec<ItemId>,
) {
    if items.is_empty() {
        return;
    }
    view.extend_transaction_into(tax, items, ext);
    ctx.add_cpu(ext.len() as u64);
    counter.push(ext);
}

/// Runs H-HPGM (grain `None`) or one of the duplication variants over
/// the per-node sources (`sources[n]` is node `n`'s partition — possibly
/// a recovery composite).
pub(crate) fn mine(
    algorithm: Algorithm,
    grain: Option<DuplicateGrain>,
    sources: &[&FlatPartition],
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
                    let _setup = ctx.span("setup");
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
                    duplicated,
                    partitions,
                    view,
                    route,
                    l1,
                } = &*setup;

                // The local path counts the replicated C_k^D (on every
                // node's own data) and this node's partition in one walk of
                // one union counter. Received sub-transactions count this
                // partition alone — the sender already counted C_k^D — in a
                // counter of their own, the union's when nothing is
                // duplicated.
                let mine = &partitions[me];
                let mut local = HashTreeCounter::union(k, &[duplicated, mine]);
                let mut remote = (!duplicated.is_empty()).then(|| HashTreeCounter::new(k, mine));
                record_arena_obs(ctx, k, &local);
                if let Some(remote) = &remote {
                    record_arena_obs(ctx, k, remote);
                }

                let mut router = Router::new(route);
                let mut recv_scratch: Vec<ItemId> = Vec::new();
                let mut reduced: Vec<ItemId> = Vec::new();
                let mut ext_scratch: Vec<ItemId> = Vec::new();
                let mut receive =
                    |counter: &mut HashTreeCounter, ext: &mut Vec<ItemId>, payload: &[u8]| {
                        for_each_item_list(payload, &mut recv_scratch, |list| {
                            count_extended(ctx, tax, view, counter, list, ext);
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
                    count_extended(ctx, tax, view, &mut local, &reduced, &mut ext_scratch);

                    // Ship sub-transactions to the other owners (this
                    // node's own combinations were counted above); the
                    // route's ticks are charged once per transaction.
                    let combos = router.route(&reduced, me, |owner, sub| {
                        ex.push(owner, |batch| batch.push(sub))
                    })?;
                    ctx.add_cpu(combos);
                    let counter = remote.as_mut().unwrap_or(&mut local);
                    ex.unit_done(|p| receive(counter, &mut ext_scratch, p))
                })?;
                let counter = remote.as_mut().unwrap_or(&mut local);
                ex.finish(|p| receive(counter, &mut ext_scratch, p))?;

                let _count = ctx.span("count");
                let mut probes = settle_counter(ctx, &mut local);
                if let Some(remote) = &mut remote {
                    probes += settle_counter(ctx, remote);
                }
                // Partitioned candidates: the union's second set plus what
                // was received; local decision + coordinator merge.
                let min = p1.min_support_count;
                let (dup_counts, mine_counts) = local.counts().split_at(duplicated.len());
                let mut counts = mine_counts.to_vec();
                if let Some(remote) = &remote {
                    for (c, r) in counts.iter_mut().zip(remote.counts()) {
                        *c += r;
                    }
                }
                let mut large = gather_large(ctx, k, extract_large(mine, &counts, min))?;

                // Duplicated candidates: one all-reduce, decided everywhere.
                if !duplicated.is_empty() {
                    let global = ctx.all_reduce_u64(dup_counts)?;
                    large.extend(extract_large(duplicated, &global, min));
                    large.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
                }
                Ok(PassResult {
                    large,
                    num_duplicated: duplicated.len(),
                    num_fragments: 1,
                    probes,
                })
            },
        )
    })?;
    Ok(assemble_report(cluster, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::common::for_each_root_multiset;
    use gar_taxonomy::TaxonomyBuilder;
    use gar_types::FxHashSet;
    use proptest::prelude::*;

    /// The hash-set route the table replaced, kept as the oracle: distinct
    /// roots by linear search, every availability-bounded root multiset
    /// enumerated and looked up by its boxed key, one root set per owner.
    /// Returns each owner's sub-transaction, in owner order, and the
    /// number of multisets enumerated.
    fn route_reference(
        tax: &Taxonomy,
        k: usize,
        num_nodes: usize,
        active: &FxHashSet<Box<[u32]>>,
        reduced: &[ItemId],
    ) -> (Vec<(usize, Vec<ItemId>)>, u64) {
        let mut roots: Vec<(u32, usize)> = Vec::new();
        for &it in reduced {
            let r = tax.root_of(it).raw();
            match roots.iter_mut().find(|(x, _)| *x == r) {
                Some((_, c)) => *c += 1,
                None => roots.push((r, 1)),
            }
        }
        roots.sort_unstable();
        let mut owner_roots: Vec<FxHashSet<u32>> = vec![FxHashSet::default(); num_nodes];
        let mut combos = 0u64;
        for_each_root_multiset(&roots, k, &mut |combo| {
            combos += 1;
            if active.contains(combo) {
                let owner = place(fx_hash_u32s(combo.iter().copied()), num_nodes);
                for &r in combo {
                    owner_roots[owner].insert(r);
                }
            }
        });
        let shipped = owner_roots
            .iter()
            .enumerate()
            .filter(|(_, wanted)| !wanted.is_empty())
            .map(|(owner, wanted)| {
                let sub = reduced
                    .iter()
                    .copied()
                    .filter(|&it| wanted.contains(&tax.root_of(it).raw()))
                    .collect();
                (owner, sub)
            })
            .collect();
        (shipped, combos)
    }

    proptest! {
        // Random forests of 1..=64 or 65..=128 roots, with 150 more
        // items hung under earlier ones; random active root multisets
        // (none at all included); transactions long enough at k = 2 to
        // hold more than 64 distinct roots. The table route ships every
        // owner what the hash-set route did and charges the same ticks.
        #[test]
        fn table_route_ships_like_the_hash_set_route(
            k in 2usize..5,
            num_nodes in 1usize..9,
            roots in 1u32..65,
            wide in 0u32..2,
            parents in proptest::collection::vec(0u32..10_000, 150..=150),
            keys in proptest::collection::vec(
                proptest::collection::vec(0u32..10_000, 4..=4), 0..40),
            txns in proptest::collection::vec(
                proptest::collection::btree_set(0u32..10_000, 0..120), 1..8)
        ) {
            let roots = roots + 64 * wide;
            let items = roots + 150;
            let mut b = TaxonomyBuilder::new(items);
            for i in roots..items {
                b.edge(i, parents[(i - roots) as usize] % i).unwrap();
            }
            let tax = b.build().unwrap();
            prop_assert_eq!(tax.roots().len(), roots as usize);

            let keys: Vec<Vec<u32>> = keys
                .iter()
                .map(|key| {
                    let mut key: Vec<u32> = key[..k].iter().map(|&r| r % roots).collect();
                    key.sort_unstable();
                    key
                })
                .collect();
            let active: FxHashSet<Box<[u32]>> =
                keys.iter().map(|key| key.clone().into_boxed_slice()).collect();
            let route = Route::new(
                &tax,
                k,
                num_nodes,
                keys.iter().map(|key| {
                    (key.as_slice(), place(fx_hash_u32s(key.iter().copied()), num_nodes))
                }),
            );
            let mut router = Router::new(&route);

            // Short enough at k = 4 for the oracle to enumerate.
            let max_len = [0, 0, 120, 40, 16][k];
            for t in &txns {
                let mut t: Vec<ItemId> = t.iter().map(|&i| ItemId(i % items)).take(max_len).collect();
                t.sort_unstable();
                t.dedup();
                let mut shipped = Vec::new();
                let combos = router
                    .route(&t, num_nodes, |owner, sub| {
                        shipped.push((owner, sub.to_vec()));
                        Ok(())
                    })
                    .unwrap();
                let (want, want_combos) = route_reference(&tax, k, num_nodes, &active, &t);
                prop_assert_eq!(&shipped, &want);
                prop_assert_eq!(combos, want_combos);
                prop_assert!(router.slot.iter().all(|&s| s == NONE), "slot scratch left set");
            }
        }
    }

    #[test]
    fn route_skips_its_own_node_and_counts_inactive_multisets() {
        // 0 -> {2, 3}, 1 -> {4}: roots 0 and 1.
        let mut b = TaxonomyBuilder::new(5);
        for (c, p) in [(2, 0), (3, 0), (4, 1)] {
            b.edge(c, p).unwrap();
        }
        let tax = b.build().unwrap();
        let t = [ItemId(2), ItemId(3), ItemId(4)];
        // (0, 0) and (0, 1) are available, (1, 1) is not: 2 ticks.
        let key = [0u32, 1];
        let owner = place(fx_hash_u32s(key), 2);
        let route = Route::new(&tax, 2, 2, std::iter::once((&key[..], owner)));
        let mut router = Router::new(&route);
        let mut shipped = Vec::new();
        let mut ship = |o: usize, sub: &[ItemId]| {
            shipped.push((o, sub.to_vec()));
            Ok(())
        };
        assert_eq!(router.route(&t, 2, &mut ship).unwrap(), 2);
        assert_eq!(router.route(&t, owner, &mut ship).unwrap(), 2);
        assert_eq!(shipped, vec![(owner, t.to_vec())]);

        // Nothing active: the same ticks, nothing shipped.
        let idle = Route::new(&tax, 2, 2, std::iter::empty());
        let mut router = Router::new(&idle);
        let mut shipped = 0;
        let ticks = router.route(&t, 2, |_, _| {
            shipped += 1;
            Ok(())
        });
        assert_eq!((ticks.unwrap(), shipped), (2, 0));
    }
}
