//! The hash-tree candidate counter: a rank-mapped prefix tree in one arena.
//!
//! This is the prefix-tree formulation of [RR94]'s hash tree: interior
//! levels fan out on the next item of the (sorted) candidate, and counting
//! walks the transaction and tree together so subsets that match no
//! candidate prefix are never enumerated.
//!
//! Three decisions make a node visit a handful of loads instead of a merge:
//!
//! * **Ranks.** The distinct items of the candidate set get dense,
//!   order-preserving ranks at build, and edges store ranks. A transaction
//!   is mapped once into `(rank, original position)` pairs; items in no
//!   candidate drop out of all matching but still count in `work` through
//!   the original positions of their neighbours.
//! * **The shorter side drives, the other side answers in one load.** A
//!   node whose fan-out is dense over its rank span (the root always) owns
//!   a child table in one shared arena. A visit with such a table and a
//!   suffix shorter than the fan-out looks each suffix rank up in the
//!   table; any other visit scans the node's edges and tests each against
//!   a per-transaction position table indexed by rank.
//! * **Level `k − 1` counts in place.** Edges and table entries of the
//!   last level that has nodes hold the candidate index, so a hit is
//!   `counts[idx] += 1` and candidates have no nodes of their own. An
//!   edge scan there adds a 0 or a 1 for every edge instead of branching
//!   on a hit pattern that is the data's (≈ 45 % in a typical pass 3).
//!
//! The meters are those of the pointer-walking formulation the proptests
//! below keep as the oracle: a node is visited iff its prefix is contained
//! in the transaction, every visit charges the length of the *original*
//! suffix as `work`, and every increment is a hit.
//!
//! A tree built over several disjoint candidate sets (a *union*) meters
//! what one tree per set would, summed: each node carries its *weight*,
//! the number of sets whose own prefix tree holds it, and a visit charges
//! `weight × suffix`. Only a union with two or more non-empty sets stores
//! weights; every other tree's weights are 1 and its arena is unchanged.
//!
//! `count_transaction` is the walk above, one transaction at a time, and
//! `probe_many` the lookup of itemset after itemset. The miners count
//! with `push` (transactions) or `push_itemsets` (HPGM's itemsets) and
//! `settle` instead, which return the same counts and meters in one of
//! three executions: from `k = 3` on, a sweep of the tree over blocks of
//! transactions held as bitsets (`vertical.rs`); at `k = 2`, when the
//! ranks are few enough, the triangular pair array of classic Apriori
//! pass-2 counters, one `u32` cell per pair of ranks (`pairs.rs`);
//! otherwise the walk or the lookups, at once.

mod pairs;
mod vertical;

use super::{ArenaStats, CountOutcome};
use gar_types::{ItemId, Itemset};
use pairs::Pairs;
use vertical::{Block, BLOCK, MIN_K};

/// Sentinel for "no rank" / "no child" / "not in this transaction".
const NONE: u32 = u32::MAX;

/// A node below the root gets a dense child table when it has at least
/// this many edges …
const DENSE_MIN_FANOUT: usize = 8;
/// … spread over a rank span of at most this many times its fan-out.
const DENSE_MAX_SPREAD: usize = 4;

/// One interior node: its slice of the edge arrays and, when its fan-out
/// is dense, its slice of the table arena.
#[derive(Clone, Copy)]
struct Node {
    /// Edges are `edges[edges..edges + fanout]`, sorted by rank.
    edges: u32,
    fanout: u32,
    /// Offset of the child table in `dense`, or `NONE`. The table covers
    /// ranks `base..base + span`.
    table: u32,
    base: u32,
    span: u32,
}

/// The immutable part of the counter. Nodes exist on levels `0` (the
/// root) to `k − 1`; an edge's *target* is the child's node handle, and on
/// level `k − 1` the candidate's index.
struct Tree {
    /// `rank_of[item − rank_base]` is the rank of a candidate item.
    rank_base: u32,
    rank_of: Vec<u32>,
    nodes: Vec<Node>,
    /// `(rank, target)` per edge, node after node.
    edges: Vec<(u32, u32)>,
    /// All child tables, back to back; `NONE` marks a hole.
    dense: Vec<u32>,
    /// Per node, how many candidate sets hold it; empty when at most one
    /// set is non-empty.
    weights: Vec<u32>,
}

/// Candidate counter backed by the arena hash tree.
pub struct HashTreeCounter {
    k: usize,
    tree: Tree,
    counts: Vec<u64>,
    /// Scratch of `count_transaction`: the transaction's candidate items
    /// as `(rank, original position)`, and each rank's index in that list
    /// (`NONE` outside a call).
    mapped: Vec<(u32, u32)>,
    pos: Vec<u32>,
    /// Meters of the pushes since the last settle.
    settled: CountOutcome,
    /// The open block of `push` from `k = 3` on (`vertical.rs`).
    block: Block,
    /// The pair cells of `push` and `push_itemsets` at `k = 2`
    /// (`pairs.rs`).
    pairs: Pairs,
}

impl Tree {
    /// Builds the tree over the disjoint candidate sets `sets`, indexing
    /// candidates set after set; also returns the number of ranks handed
    /// out.
    fn build(k: usize, sets: &[&[Itemset]]) -> (Tree, usize) {
        let candidates = || sets.iter().flat_map(|s| s.iter());
        // Dense, order-preserving ranks over the items that occur at all.
        let all = || candidates().flat_map(|c| c.items()).map(|it| it.raw());
        let rank_base = all().min().unwrap_or(0);
        let mut rank_of = vec![NONE; all().max().map_or(0, |hi| (hi - rank_base + 1) as usize)];
        for it in all() {
            rank_of[(it - rank_base) as usize] = 0;
        }
        let mut num_ranks = 0;
        for r in rank_of.iter_mut().filter(|r| **r != NONE) {
            *r = num_ranks;
            num_ranks += 1;
        }

        // Per-node sorted `(rank, target)` edge lists, flattened below, and
        // per node the number of sets through it and the last such set.
        let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new()];
        let mut weights = vec![(0u32, NONE)];
        let tagged = sets
            .iter()
            .enumerate()
            .flat_map(|(s, set)| set.iter().map(move |c| (s as u32, c)));
        for (i, (set, c)) in tagged.enumerate() {
            assert_eq!(c.len(), k, "candidate {c:?} is not a {k}-itemset");
            let mut node = 0usize;
            for (level, it) in c.items().iter().enumerate() {
                let (weight, last) = &mut weights[node];
                if *last != set {
                    *weight += 1;
                    *last = set;
                }
                let rank = rank_of[(it.raw() - rank_base) as usize];
                let found = edges[node].binary_search_by_key(&rank, |e| e.0);
                if level + 1 == k {
                    #[expect(clippy::expect_used, reason = "candidate lists are duplicate-free")]
                    let at = found.expect_err("duplicate candidate");
                    edges[node].insert(at, (rank, i as u32));
                } else {
                    node = match found {
                        Ok(at) => edges[node][at].1 as usize,
                        Err(at) => {
                            let child = edges.len();
                            edges.push(Vec::new());
                            weights.push((0, NONE));
                            edges[node].insert(at, (rank, child as u32));
                            child
                        }
                    };
                }
            }
        }

        let num_edges = edges.iter().map(Vec::len).sum();
        let mut tree = Tree {
            rank_base,
            rank_of,
            nodes: Vec::with_capacity(edges.len()),
            edges: Vec::with_capacity(num_edges),
            dense: Vec::new(),
            weights: Vec::new(),
        };
        if sets.iter().filter(|s| !s.is_empty()).count() > 1 {
            tree.weights = weights.iter().map(|&(w, _)| w).collect();
        }
        for (n, list) in edges.iter().enumerate() {
            let base = list.first().map_or(0, |e| e.0);
            let span = list.last().map_or(0, |e| e.0 + 1 - base) as usize;
            let is_dense =
                n == 0 || (list.len() >= DENSE_MIN_FANOUT && span <= DENSE_MAX_SPREAD * list.len());
            let table = if is_dense {
                let at = tree.dense.len();
                tree.dense.resize(at + span, NONE);
                for &(rank, target) in list {
                    tree.dense[at + (rank - base) as usize] = target;
                }
                at as u32
            } else {
                NONE
            };
            tree.nodes.push(Node {
                edges: tree.edges.len() as u32,
                fanout: list.len() as u32,
                table,
                base,
                span: span as u32,
            });
            tree.edges.extend_from_slice(list);
        }
        (tree, num_ranks as usize)
    }

    /// How many candidate sets hold `node`: 1 outside a union.
    #[inline]
    fn weight(&self, node: u32) -> u64 {
        self.weights.get(node as usize).map_or(1, |&w| u64::from(w))
    }

    /// Rank of `it`, or `NONE` when no candidate holds it.
    #[inline]
    fn rank(&self, it: ItemId) -> u32 {
        let at = it.raw().wrapping_sub(self.rank_base) as usize;
        self.rank_of.get(at).copied().unwrap_or(NONE)
    }

    /// Where `path` leads from the root — a node, or after `k` items the
    /// candidate's index — or `NONE` when it leaves the tree.
    #[inline]
    fn walk(&self, path: &[ItemId]) -> u32 {
        let mut target = 0;
        for &it in path {
            let rank = self.rank(it);
            if rank == NONE {
                return NONE;
            }
            target = self.target(target, rank);
            if target == NONE {
                return NONE;
            }
        }
        target
    }

    /// Target of `node`'s edge on `rank`, or `NONE`: one load where the
    /// node has a table, a binary search of its edges where it has none.
    #[inline]
    fn target(&self, node: u32, rank: u32) -> u32 {
        let n = self.nodes[node as usize];
        if n.table != NONE {
            let at = rank.wrapping_sub(n.base);
            return if at < n.span {
                self.dense[n.table as usize + at as usize]
            } else {
                NONE
            };
        }
        let edges = &self.edges[n.edges as usize..][..n.fanout as usize];
        match edges.binary_search_by_key(&rank, |e| e.0) {
            Ok(at) => edges[at].1,
            Err(_) => NONE,
        }
    }

    /// Offers `each(target, j)` the edges of `n` that can extend a prefix
    /// ending right before `mapped[from]`; `j` indexes the edge's item in
    /// `mapped`. The shorter side drives. A suffix shorter than a tabled
    /// fan-out is looked up rank by rank and only the edges found are
    /// offered. Otherwise every edge is offered, with `j = pos[rank]` —
    /// `NONE` when the transaction lacks the item, so level `k − 1` can
    /// add a 0 or a 1 without a branch; edges below a prefix outrank it,
    /// so an item `pos` does find is at or after `from`.
    #[inline]
    fn matches(
        &self,
        n: Node,
        mapped: &[(u32, u32)],
        pos: &[u32],
        from: usize,
        mut each: impl FnMut(u32, u32),
    ) {
        let suffix = &mapped[from..];
        if n.table != NONE && suffix.len() < n.fanout as usize {
            let table = &self.dense[n.table as usize..][..n.span as usize];
            for (j, &(rank, _)) in suffix.iter().enumerate() {
                match table.get(rank.wrapping_sub(n.base) as usize) {
                    Some(&target) if target != NONE => each(target, (from + j) as u32),
                    _ => {}
                }
            }
        } else {
            for &(rank, target) in &self.edges[n.edges as usize..][..n.fanout as usize] {
                each(target, pos[rank as usize]);
            }
        }
    }
}

/// One `count_transaction` call in flight; `WEIGHED` when the tree
/// carries node weights (a union of several non-empty sets), so a
/// single-set walk never looks a weight up.
struct Walk<'a, const WEIGHED: bool> {
    tree: &'a Tree,
    mapped: &'a [(u32, u32)],
    pos: &'a [u32],
    /// Length of the original transaction.
    len: u64,
    counts: &'a mut [u64],
    out: CountOutcome,
}

impl<const WEIGHED: bool> Walk<'_, WEIGHED> {
    /// Visits `node`, `levels` above the candidates, whose prefix ends
    /// right before original position `consumed` and `mapped[from]`.
    fn visit(&mut self, node: u32, levels: usize, from: usize, consumed: u64) {
        // One work unit per original item still ahead of this node, for
        // each candidate set that holds it.
        let suffix = self.len - consumed;
        self.out.work += if WEIGHED {
            u64::from(self.tree.weights[node as usize]) * suffix
        } else {
            suffix
        };
        let (tree, mapped, pos) = (self.tree, self.mapped, self.pos);
        if from == mapped.len() {
            return;
        }
        let n = tree.nodes[node as usize];
        if levels == 1 {
            let mut hits = 0;
            tree.matches(n, mapped, pos, from, |candidate, j| {
                let hit = (j != NONE) as u64;
                self.counts[candidate as usize] += hit;
                hits += hit;
            });
            self.out.hits += hits;
        } else {
            tree.matches(n, mapped, pos, from, |child, j| {
                if j != NONE {
                    let next = j as usize + 1;
                    self.visit(child, levels - 1, next, mapped[j as usize].1 as u64 + 1);
                }
            });
        }
    }
}

impl HashTreeCounter {
    /// Builds the tree over `candidates` (each of size `k`).
    pub fn new(k: usize, candidates: &[Itemset]) -> HashTreeCounter {
        HashTreeCounter::union(k, &[candidates])
    }

    /// Builds one tree over the disjoint candidate sets `sets`: counts are
    /// laid out set after set, and `count_transaction` meters the sum of
    /// one tree per set, so one walk of a transaction counts and meters
    /// every set. `probe` and `probe_many` meter the union as one set.
    pub fn union(k: usize, sets: &[&[Itemset]]) -> HashTreeCounter {
        let (tree, num_ranks) = Tree::build(k, sets);
        let candidates = sets.iter().map(|s| s.len()).sum();
        HashTreeCounter {
            k,
            block: Block::new(&tree, k, num_ranks),
            pairs: Pairs::new(&tree, k, num_ranks, candidates),
            tree,
            counts: vec![0; candidates],
            mapped: Vec::new(),
            pos: vec![NONE; num_ranks],
            settled: CountOutcome::default(),
        }
    }

    /// Walks the mapped transaction (of `len` original items) and the tree
    /// together from the root.
    fn walk<const WEIGHED: bool>(&mut self, len: usize) -> CountOutcome {
        let mut walk = Walk::<WEIGHED> {
            tree: &self.tree,
            mapped: &self.mapped,
            pos: &self.pos,
            len: len as u64,
            counts: &mut self.counts,
            out: CountOutcome::default(),
        };
        walk.visit(0, self.k, 0, 0);
        walk.out
    }

    /// Arena footprint, for the `counter.arena.*` obs series.
    pub fn stats(&self) -> ArenaStats {
        let t = &self.tree;
        ArenaStats {
            nodes: t.nodes.len() as u64,
            edges: t.edges.len() as u64,
            dense_nodes: t.nodes.iter().filter(|n| n.table != NONE).count() as u64,
            bytes: (t.nodes.len() * std::mem::size_of::<Node>()
                + t.edges.len() * 8
                + (t.rank_of.len() + t.dense.len() + t.weights.len() + self.pos.len()) * 4)
                as u64,
        }
    }

    /// [`stats`](Self::stats) in the shape `benchmark/` still reads
    /// through [`build_counter`](super::build_counter); retired with it
    /// (ROADMAP item 6).
    pub fn arena_stats(&self) -> Option<ArenaStats> {
        Some(self.stats())
    }

    /// Probes one sorted k-itemset; increments its count if it is a
    /// candidate. Returns the outcome (work 1, hits 0/1).
    pub fn probe(&mut self, itemset: &[ItemId]) -> CountOutcome {
        if itemset.len() != self.k {
            return CountOutcome { work: 1, hits: 0 };
        }
        self.probe_many(itemset)
    }

    /// Probes each k-itemset of `flat` (itemsets back to back, a trailing
    /// partial one ignored) — the fold of [`probe`](Self::probe): work is
    /// the number of itemsets, hits the sum of theirs. One call per
    /// received batch or per transaction's local subsets.
    ///
    /// Received batches are grouped by first item and a transaction's
    /// subsets come in lexicographic order, so consecutive itemsets mostly
    /// share their `(k − 1)`-prefix: the node it reaches is kept, and such
    /// a probe is one edge lookup.
    pub fn probe_many(&mut self, flat: &[ItemId]) -> CountOutcome {
        let mut out = CountOutcome::default();
        // The empty prefix leads to the root.
        let mut prev: (&[ItemId], u32) = (&[], 0);
        for itemset in flat.chunks_exact(self.k) {
            out.work += 1;
            let Some((&last, prefix)) = itemset.split_last() else {
                continue;
            };
            if prefix != prev.0 {
                prev = (prefix, self.tree.walk(prefix));
            }
            let rank = self.tree.rank(last);
            if prev.1 == NONE || rank == NONE {
                continue;
            }
            // After `k` edges the target is the candidate's index.
            let candidate = self.tree.target(prev.1, rank);
            if candidate != NONE {
                self.counts[candidate as usize] += 1;
                out.hits += 1;
            }
        }
        out
    }

    /// Counts every candidate contained in the sorted, de-duplicated
    /// transaction `t` (increments each at most once).
    pub fn count_transaction(&mut self, t: &[ItemId]) -> CountOutcome {
        debug_assert!(t.windows(2).all(|w| w[0] < w[1]), "unsorted txn");
        if t.len() < self.k || self.counts.is_empty() {
            return CountOutcome::default();
        }
        self.mapped.clear();
        for (at, &it) in t.iter().enumerate() {
            let rank = self.tree.rank(it);
            if rank != NONE {
                self.pos[rank as usize] = self.mapped.len() as u32;
                self.mapped.push((rank, at as u32));
            }
        }
        let out = if self.tree.weights.is_empty() {
            self.walk::<false>(t.len())
        } else {
            self.walk::<true>(t.len())
        };
        for &(rank, _) in &self.mapped {
            self.pos[rank as usize] = NONE;
        }
        out
    }

    /// Counts the sorted, de-duplicated transaction `t` later, in one of
    /// the executions of the module doc: filed into the open block, which
    /// is swept when full or at [`settle`](Self::settle), from `k = 3`
    /// on; into the pair cells at `k = 2` where the counter keeps them;
    /// otherwise walked at once. Either way its meters reach the caller
    /// through `settle`.
    pub fn push(&mut self, t: &[ItemId]) {
        debug_assert!(t.windows(2).all(|w| w[0] < w[1]), "unsorted txn");
        if t.len() < self.k || self.counts.is_empty() {
            return;
        }
        if self.pairs.is_on() {
            self.pairs
                .file(&self.tree, t, &mut self.counts, &mut self.settled);
        } else if self.k < MIN_K {
            let out = self.count_transaction(t);
            self.settled.absorb(out);
        } else {
            self.block.file(&self.tree, t);
            if self.block.len() == BLOCK {
                self.block
                    .sweep(&self.tree, self.k, &mut self.counts, &mut self.settled);
            }
        }
    }

    /// Counts the k-itemsets of `flat` (back to back, a trailing partial
    /// one ignored) like [`probe_many`](Self::probe_many), with the meters
    /// deferred to [`settle`](Self::settle): into the pair cells at
    /// `k = 2` where the counter keeps them, otherwise by `probe_many` at
    /// once.
    pub fn push_itemsets(&mut self, flat: &[ItemId]) {
        if self.pairs.is_on() {
            self.pairs
                .file_itemsets(&self.tree, flat, &mut self.counts, &mut self.settled);
        } else {
            let out = self.probe_many(flat);
            self.settled.absorb(out);
        }
    }

    /// Counts whatever is still open — sweeps the open block, folds the
    /// pair cells — and returns the meters of every [`push`](Self::push)
    /// and [`push_itemsets`](Self::push_itemsets) since the last settle:
    /// what `count_transaction` on each transaction and `probe_many` on
    /// each run of itemsets would sum to. Charge them, then read
    /// [`counts`](Self::counts).
    pub fn settle(&mut self) -> CountOutcome {
        if self.block.len() > 0 {
            self.block
                .sweep(&self.tree, self.k, &mut self.counts, &mut self.settled);
        }
        self.pairs
            .fold(&self.tree, &mut self.counts, &mut self.settled);
        std::mem::take(&mut self.settled)
    }

    /// The counts, in candidate insertion order — after
    /// [`settle`](Self::settle) for what was given to `push` or
    /// `push_itemsets`.
    pub fn counts(&self) -> &[u64] {
        debug_assert_eq!(self.block.len(), 0, "counts read before settle");
        debug_assert_eq!(self.pairs.filed(), 0, "counts read before settle");
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_types::iset;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&x| ItemId(x)).collect()
    }

    #[test]
    fn shared_prefixes_share_paths() {
        let cands = vec![iset![1, 2, 3], iset![1, 2, 4]];
        let mut c = HashTreeCounter::new(3, &cands);
        let out = c.count_transaction(&ids(&[1, 2, 3, 4]));
        assert_eq!(out.hits, 2);
        assert_eq!(c.counts(), &[1, 1]);
        // Shared prefix = shared arena path: root + the (1, 2) spine; the
        // two candidates are edges of the spine's end, not nodes.
        assert_eq!(c.stats().nodes, 3);
        assert_eq!(c.stats().edges, 4);
    }

    #[test]
    fn probe_walks_the_exact_path() {
        let mut c = HashTreeCounter::new(2, &[iset![3, 7]]);
        assert_eq!(c.probe(&ids(&[3, 7])).hits, 1);
        assert_eq!(c.probe(&ids(&[3, 8])).hits, 0);
        assert_eq!(c.probe(&ids(&[7, 3])).hits, 0); // unsorted = not a path
        assert_eq!(c.counts(), &[1]);
    }

    #[test]
    fn no_match_means_no_hits_but_some_walk_work() {
        let mut c = HashTreeCounter::new(2, &[iset![100, 200]]);
        let out = c.count_transaction(&ids(&[1, 2, 3]));
        assert_eq!(out.hits, 0);
        assert!(out.work > 0);
    }

    #[test]
    fn k1_terminals_at_depth_one() {
        // The root is level k − 1: it counts in place and is the only node.
        let mut c = HashTreeCounter::new(1, &[iset![5], iset![9]]);
        assert_eq!(
            c.count_transaction(&ids(&[5, 6, 7])),
            CountOutcome { work: 3, hits: 1 }
        );
        assert_eq!(c.probe(&ids(&[9])).hits, 1);
        assert_eq!(c.probe(&ids(&[6])).hits, 0);
        assert_eq!(c.counts(), &[1, 1]);
        assert_eq!(c.stats().nodes, 1);
    }

    #[test]
    fn root_table_misses_outside_its_range() {
        // Root fan-out is dense over [2, 9]; items 0, 1, 10 fall outside.
        let mut c = HashTreeCounter::new(2, &[iset![2, 5], iset![9, 11]]);
        assert_eq!(c.probe(&ids(&[1, 5])).hits, 0);
        assert_eq!(c.probe(&ids(&[10, 11])).hits, 0);
        assert_eq!(c.probe(&ids(&[2, 5])).hits, 1);
        assert_eq!(c.probe(&ids(&[9, 11])).hits, 1);
    }

    /// `{1, x}` for eight `x` gives node (1) a table over the ranks of
    /// 10..=18; `{2, 5}`, `{2, 17}` and `{2, 20}` give ranks to an item
    /// below that table, to a hole inside it and to the item right past it.
    fn tabled_node_with_a_hole() -> HashTreeCounter {
        let mut cands: Vec<Itemset> = [10, 11, 12, 13, 14, 15, 16, 18]
            .iter()
            .map(|&x| iset![1, x])
            .collect();
        cands.extend([iset![2, 5], iset![2, 17], iset![2, 20]]);
        let c = HashTreeCounter::new(2, &cands);
        // The root and node (1); node (2) has too few edges.
        assert_eq!(c.stats().dense_nodes, 2);
        c
    }

    #[test]
    fn table_lookup_misses_below_past_and_in_holes() {
        let mut c = tabled_node_with_a_hole();
        // Five items after 1 against eight edges: the suffix drives. 5 is
        // below the table, 17 a hole, 20 at `base + span`.
        let out = c.count_transaction(&ids(&[1, 5, 10, 17, 18, 20]));
        assert_eq!(
            out,
            CountOutcome {
                work: 6 + 5,
                hits: 2
            }
        );
        assert_eq!(c.counts(), &[1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]);
        for miss in [[1, 5], [1, 17], [1, 20], [1, 19], [5, 10]] {
            assert_eq!(c.probe(&ids(&miss)).hits, 0, "{miss:?}");
        }
        assert_eq!(c.probe(&ids(&[1, 18])).hits, 1);
    }

    #[test]
    fn edge_scan_finds_what_the_table_would() {
        let mut c = tabled_node_with_a_hole();
        // Ten items after 1 against eight edges: the edges drive.
        let out = c.count_transaction(&ids(&[1, 2, 5, 10, 11, 12, 13, 14, 17, 18, 20]));
        assert_eq!(
            out,
            CountOutcome {
                work: 11 + 10 + 9,
                hits: 6 + 3
            }
        );
        assert_eq!(c.counts(), &[1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn items_in_no_candidate_count_as_work_only() {
        // 4, 6 and 9 are in no candidate: they drop out of matching but
        // each visited node is still charged the original suffix.
        let mut c = HashTreeCounter::new(2, &[iset![3, 7], iset![7, 8]]);
        let out = c.count_transaction(&ids(&[3, 4, 6, 7, 9]));
        // Root 5, node (3) 4, node (7) 1.
        assert_eq!(out, CountOutcome { work: 10, hits: 1 });
        assert_eq!(c.counts(), &[1, 0]);
        assert!(
            c.pos.iter().all(|&j| j == NONE),
            "position scratch left set"
        );
    }

    #[test]
    fn complete_triples_get_tables_two_levels_down() {
        // All 220 triples over 12 items: node (i) fans out to 10 − i
        // second items and node (i, j) to 11 − j third items, so with the
        // root 1 + 3 + 6 nodes reach the eight edges a table takes.
        let mut cands = Vec::new();
        for a in 0..12 {
            for b in a + 1..12 {
                for c in b + 1..12 {
                    cands.push(iset![a, b, c]);
                }
            }
        }
        let mut c = HashTreeCounter::new(3, &cands);
        assert_eq!(c.stats().nodes, 1 + 10 + 55);
        assert_eq!(c.stats().dense_nodes, 10);
        let all: Vec<u32> = (0..12).collect();
        assert_eq!(c.count_transaction(&ids(&all)).hits, 220);
        assert_eq!(c.count_transaction(&ids(&all[..5])).hits, 10);
        assert!(c.counts().iter().all(|&n| n == 1 || n == 2));
    }

    #[test]
    fn single_set_arena_stats_are_unchanged() {
        // Pinned before trees weighed their nodes by candidate set: a
        // single set, or a union with at most one non-empty set, stores no
        // weights and builds the arena it always did.
        let mut tabled: Vec<Itemset> = [10, 11, 12, 13, 14, 15, 16, 18]
            .iter()
            .map(|&x| iset![1, x])
            .collect();
        tabled.extend([iset![2, 5], iset![2, 17], iset![2, 20]]);
        let mut triples = Vec::new();
        for a in 0..12 {
            for b in a + 1..12 {
                for c in b + 1..12 {
                    triples.push(iset![a, b, c]);
                }
            }
        }
        let stats = |nodes, edges, dense_nodes, bytes| ArenaStats {
            nodes,
            edges,
            dense_nodes,
            bytes,
        };
        let fixtures = [
            (3, vec![iset![1, 2, 3], iset![1, 2, 4]], stats(3, 4, 1, 128)),
            (1, vec![iset![5], iset![9]], stats(1, 2, 1, 72)),
            (2, vec![iset![2, 5], iset![9, 11]], stats(3, 4, 1, 160)),
            (2, tabled, stats(3, 13, 2, 340)),
            (2, vec![iset![3, 7], iset![7, 8]], stats(3, 4, 1, 136)),
            (3, triples, stats(66, 285, 10, 4052)),
            (2, vec![], stats(1, 0, 1, 20)),
        ];
        for (k, cands, want) in fixtures {
            assert_eq!(HashTreeCounter::new(k, &cands).stats(), want, "{cands:?}");
            assert_eq!(HashTreeCounter::union(k, &[&[], &cands]).stats(), want);
            assert_eq!(HashTreeCounter::union(k, &[&cands, &[]]).stats(), want);
        }
    }

    #[test]
    fn a_union_weighs_each_node_by_the_sets_holding_it() {
        // Both sets hold the root and node (1); only the second holds (2).
        let (a, b) = ([iset![1, 2]], [iset![1, 3], iset![2, 3]]);
        let mut c = HashTreeCounter::union(2, &[&a, &b]);
        assert_eq!(c.tree.weights, vec![2, 2, 1]);
        // Root 2 × 3, node (1) 2 × 2, node (2) 1 × 1: what a tree over `a`
        // (3 + 2) and one over `b` (3 + 2 + 1) charge.
        assert_eq!(
            c.count_transaction(&ids(&[1, 2, 3])),
            CountOutcome { work: 11, hits: 3 }
        );
        assert_eq!(c.counts(), &[1, 1, 1]);
        assert_eq!(
            c.stats().bytes,
            HashTreeCounter::new(2, &[iset![1, 2], iset![1, 3], iset![2, 3]])
                .stats()
                .bytes
                + 3 * 4
        );
    }

    #[test]
    fn empty_candidate_set_is_inert() {
        let mut c = HashTreeCounter::new(2, &[]);
        assert_eq!(
            c.count_transaction(&ids(&[1, 2, 3])),
            CountOutcome::default()
        );
        assert_eq!(c.stats().nodes, 1);
        assert_eq!(c.stats().edges, 0);
    }
}

#[cfg(test)]
mod proptests {
    //! The arena is pinned against the original pointer-walking
    //! implementation: identical counts, identical `work`/`hits` meters,
    //! for both `count_transaction` and `probe`, across random candidate
    //! sets and transactions — sparse ones over a wide universe, and
    //! near-complete ones over a narrow universe, where nodes below the
    //! root get tables and transactions hold items no candidate does.

    use super::*;
    use gar_types::FxHashMap;
    use proptest::prelude::*;

    /// The pre-arena implementation, kept verbatim as the oracle.
    #[derive(Default)]
    struct RefNode {
        children: FxHashMap<ItemId, RefNode>,
        terminal: Option<u32>,
    }

    struct RefTree {
        k: usize,
        root: RefNode,
        counts: Vec<u64>,
    }

    impl RefTree {
        fn new(k: usize, candidates: &[Itemset]) -> RefTree {
            let mut root = RefNode::default();
            for (i, c) in candidates.iter().enumerate() {
                let mut node = &mut root;
                for &it in c.items() {
                    node = node.children.entry(it).or_default();
                }
                node.terminal = Some(i as u32);
            }
            RefTree {
                k,
                root,
                counts: vec![0; candidates.len()],
            }
        }

        fn walk(node: &RefNode, t: &[ItemId], counts: &mut [u64], out: &mut CountOutcome) {
            if let Some(idx) = node.terminal {
                counts[idx as usize] += 1;
                out.hits += 1;
            }
            if node.children.is_empty() {
                return;
            }
            for (i, &it) in t.iter().enumerate() {
                out.work += 1;
                if let Some(child) = node.children.get(&it) {
                    Self::walk(child, &t[i + 1..], counts, out);
                }
            }
        }

        fn count_transaction(&mut self, t: &[ItemId]) -> CountOutcome {
            let mut out = CountOutcome::default();
            if t.len() < self.k || self.counts.is_empty() {
                return out;
            }
            Self::walk(&self.root, t, &mut self.counts, &mut out);
            out
        }

        fn probe(&mut self, itemset: &[ItemId]) -> CountOutcome {
            let mut out = CountOutcome { work: 1, hits: 0 };
            let mut node = &self.root;
            for it in itemset {
                match node.children.get(it) {
                    Some(c) => node = c,
                    None => return out,
                }
            }
            if let Some(idx) = node.terminal {
                self.counts[idx as usize] += 1;
                out.hits = 1;
            }
            out
        }
    }

    fn arb_itemsets(k: usize) -> impl Strategy<Value = Vec<Itemset>> {
        proptest::collection::btree_set(proptest::collection::btree_set(0u32..60, k..=k), 1..30)
            .prop_map(|sets| {
                sets.into_iter()
                    .map(|s| Itemset::from_unsorted(s.into_iter().map(ItemId).collect()))
                    .collect()
            })
    }

    /// Calls `f` on every `k`-subset of `t`, in lexicographic order;
    /// `subset` is the (initially empty) scratch it is built in.
    fn subsets(t: &[ItemId], k: usize, subset: &mut Vec<ItemId>, f: &mut impl FnMut(&[ItemId])) {
        if subset.len() == k {
            f(subset);
            return;
        }
        for (i, &it) in t.iter().enumerate() {
            subset.push(it);
            subsets(&t[i + 1..], k, subset, f);
            subset.pop();
        }
    }

    proptest! {
        // Thirteen candidate items at random gaps inside 1..=39, each
        // k-subset kept with probability `density` %: at high densities
        // nodes at depth 1 and 2 get tables, at low ones items fall out of
        // every candidate. Transactions draw from 0..48, so they hold runs
        // of non-candidate items below, between and above the candidates'.
        #[test]
        fn dense_tables_match_pointer_walk(
            k in 1usize..5,
            gaps in proptest::collection::vec(1u32..4, 13..=13),
            density in 10u32..101,
            keep in proptest::collection::vec(0u32..100, 715..=715),
            reversed in 0u32..2,
            txns in proptest::collection::vec(
                proptest::collection::btree_set(0u32..48, 0..40), 1..12)
        ) {
            let items: Vec<ItemId> = gaps
                .iter()
                .scan(0, |id, gap| {
                    *id += gap;
                    Some(ItemId(*id))
                })
                .collect();
            let mut cands = Vec::new();
            let mut rolls = keep.iter();
            subsets(&items, k, &mut Vec::new(), &mut |s| {
                if *rolls.next().expect("a roll per subset") < density {
                    cands.push(Itemset::from_sorted(s.to_vec()));
                }
            });
            if reversed == 1 {
                cands.reverse();
            }
            let mut arena = HashTreeCounter::new(k, &cands);
            let mut reference = RefTree::new(k, &cands);
            for (n, t) in txns.iter().enumerate() {
                let t: Vec<ItemId> = t.iter().copied().map(ItemId).collect();
                prop_assert_eq!(arena.count_transaction(&t), reference.count_transaction(&t));
                prop_assert!(arena.pos.iter().all(|&j| j == NONE), "position scratch left set");

                // The transaction's first k items (seldom a candidate), the
                // same unsorted, a sure hit, and that hit with an item
                // below the rank map or past it swapped in.
                let mut probes: Vec<Vec<ItemId>> = Vec::new();
                if t.len() >= k {
                    probes.push(t[..k].to_vec());
                    probes.push(t[..k].iter().rev().copied().collect());
                }
                if let Some(c) = cands.get(n % cands.len().max(1)) {
                    probes.push(c.items().to_vec());
                    for (at, stray) in [(0, 0), (k - 1, 44), (k / 2, 1000), (k - 1, u32::MAX)] {
                        let mut p = c.items().to_vec();
                        p[at] = ItemId(stray);
                        probes.push(p);
                    }
                }
                for p in &probes {
                    let (a, r) = (arena.probe(p), reference.probe(p));
                    prop_assert!(a == r, "probe {p:?}: {a:?} != {r:?}");
                }
            }
            prop_assert_eq!(arena.counts(), reference.counts.as_slice());
        }

        #[test]
        fn arena_matches_pointer_walk(
            k in 1usize..4,
            seed_cands in arb_itemsets(3),
            txns in proptest::collection::vec(
                proptest::collection::btree_set(0u32..60, 0..14), 1..16)
        ) {
            // Re-cut the generated 3-sets down to size k so one strategy
            // covers every depth.
            let cands: Vec<Itemset> = {
                let mut seen = std::collections::BTreeSet::new();
                seed_cands
                    .iter()
                    .map(|c| Itemset::from_sorted(c.items()[..k].to_vec()))
                    .filter(|c| seen.insert(c.clone()))
                    .collect()
            };
            let mut arena = HashTreeCounter::new(k, &cands);
            let mut reference = RefTree::new(k, &cands);
            for t in &txns {
                let t: Vec<ItemId> = t.iter().copied().map(ItemId).collect();
                let a = arena.count_transaction(&t);
                let r = reference.count_transaction(&t);
                prop_assert_eq!(a, r);
                if t.len() >= k {
                    let probe_set = &t[..k];
                    let a = arena.probe(probe_set);
                    let r = reference.probe(probe_set);
                    prop_assert_eq!(a, r);
                }
            }
            prop_assert_eq!(arena.counts(), reference.counts.as_slice());
        }

        // The H-HPGM family counts a transaction with one joint
        // transaction-and-tree walk; this pins that the walk increments
        // exactly the candidates a per-subset probe sweep would.
        #[test]
        fn joint_walk_counts_like_probing_every_subset(
            k in 1usize..4,
            seed_cands in arb_itemsets(3),
            txn in proptest::collection::btree_set(0u32..60, 0..14)
        ) {
            let cands: Vec<Itemset> = {
                let mut seen = std::collections::BTreeSet::new();
                seed_cands
                    .iter()
                    .map(|c| Itemset::from_sorted(c.items()[..k].to_vec()))
                    .filter(|c| seen.insert(c.clone()))
                    .collect()
            };
            let t: Vec<ItemId> = txn.iter().copied().map(ItemId).collect();
            let mut walked = HashTreeCounter::new(k, &cands);
            let walk_out = walked.count_transaction(&t);
            let mut probed = HashTreeCounter::new(k, &cands);
            let mut probe_hits = 0;
            let mut subset: Vec<ItemId> = Vec::with_capacity(k);
            subsets(&t, k, &mut subset, &mut |s| {
                probe_hits += probed.probe(s).hits;
            });
            prop_assert_eq!(walked.counts(), probed.counts());
            prop_assert_eq!(walk_out.hits, probe_hits);
        }
    }
}
