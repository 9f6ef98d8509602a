//! Recursive pattern growth over conditional pattern bases.
//!
//! A projection mines every large itemset whose *least frequent* member
//! is the projection item: each itemset therefore belongs to exactly one
//! projection (the one of its maximum-rank element), which is what makes
//! projections independently schedulable across cluster nodes.
//!
//! The recursion works on path lists, not rebuilt sub-trees: a conditional
//! base is a list of `(ascending rank path, count)` entries, support of
//! the pattern extended by rank `j` is the count sum over paths containing
//! `j`, and `j`'s own sub-base is the strict prefixes before `j` with
//! items hierarchy-related to `j` dropped. That filter maintains the
//! invariant that a base never contains an item related to any pattern
//! element — Cumulate's ancestor rule, enforced at growth time.
//!
//! Every base lives in one arena ([`CondBase`]), each recursion depth
//! reuses one scratch [`Level`] across siblings and projections, the
//! counting sweep leaves an occurrence list per frequent rank so growing
//! `j` visits only the entries that hold `j`, and equal prefixes met
//! while a sub-base is built collapse into one entry that remembers how
//! many it stands for. The charge to [`GrowCtx::work`] goes through that
//! multiplicity, so it is exactly what walking the unmerged lists costs.

use crate::order::{ItemOrder, RelatedRanks, RelatedRow};
use gar_types::{ItemId, Itemset};

/// One conditional pattern base: ascending rank paths, back to back in
/// one arena, each with its support count.
#[derive(Debug, Clone, Default)]
pub struct CondBase {
    ranks: Vec<u32>,
    entries: Vec<Entry>,
}

/// The path `ranks[start..start + len]`; never empty.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: usize,
    len: u32,
    /// How many entries of the unmerged base this one stands for: equal
    /// paths share one entry, their counts summed. Cost is charged per
    /// unmerged entry, so every length and position this entry
    /// contributes to `work` is scaled by it.
    mult: u32,
    count: u64,
}

impl CondBase {
    /// An empty base.
    pub fn new() -> CondBase {
        CondBase::default()
    }

    /// Whether no path has been stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets every path, keeping the allocations.
    pub fn clear(&mut self) {
        self.ranks.clear();
        self.entries.clear();
    }

    /// Appends `path` (strictly ascending ranks) minus the ranks in
    /// `skip` as one entry; a path that filters to nothing is skipped.
    pub fn push_filtered(&mut self, path: &[u32], skip: RelatedRow<'_>, count: u64) {
        let start = self.ranks.len();
        self.ranks
            .extend(path.iter().copied().filter(|&q| !skip.contains(q)));
        self.commit(start, count);
    }

    /// Appends a path that came from outside this process, for the
    /// projection of rank `target`. Growth indexes per-rank tables with
    /// what a base holds, so the path is stored only if it is non-empty,
    /// strictly ascending and wholly below `target`; otherwise nothing is
    /// stored and the answer is `false`.
    pub fn push_received(
        &mut self,
        ranks: impl Iterator<Item = u32>,
        target: u32,
        count: u64,
    ) -> bool {
        let start = self.ranks.len();
        // The smallest rank the next element may hold.
        let mut floor = 0u32;
        for r in ranks {
            if r < floor || r >= target {
                self.ranks.truncate(start);
                return false;
            }
            floor = r + 1;
            self.ranks.push(r);
        }
        self.commit(start, count);
        self.ranks.len() > start
    }

    /// Turns the arena tail from `start` into an entry, if it holds any
    /// rank. The tail is strictly ascending `u32`s, so its length fits.
    fn commit(&mut self, start: usize, count: u64) {
        let len = self.ranks.len() - start;
        if len > 0 {
            self.entries.push(Entry {
                start,
                len: len as u32,
                mult: 1,
                count,
            });
        }
    }

    fn path(&self, e: &Entry) -> &[u32] {
        &self.ranks[e.start..e.start + e.len as usize]
    }

    /// The stored `(path, count)` pairs, in order.
    #[cfg(test)]
    pub(crate) fn to_paths(&self) -> Vec<(Vec<u32>, u64)> {
        let pair = |e| (self.path(e).to_vec(), e.count);
        self.entries.iter().map(pair).collect()
    }

    /// Folds the arena tail from `start` — a non-empty path just copied
    /// there, `hash` folded over its ranks — into the entry that already
    /// holds the same path, or makes it a new entry. `table` is this
    /// base's open-addressing index: `tag << 32 | entry + 1`, zero for a
    /// free slot, a power of two at least twice the entries it will see.
    fn merge_tail(&mut self, table: &mut [u64], start: usize, hash: u64, count: u64, mult: u32) {
        let (stored, tail) = self.ranks.split_at(start);
        let mask = table.len() - 1;
        let tag = hash >> 32 << 32;
        let mut slot = (hash ^ hash >> 32) as usize & mask;
        loop {
            let held = table[slot];
            if held == 0 {
                table[slot] = tag | (self.entries.len() as u64 + 1);
                self.entries.push(Entry {
                    start,
                    len: tail.len() as u32,
                    mult,
                    count,
                });
                return;
            }
            if held >> 32 << 32 == tag {
                let e = &mut self.entries[(held as u32 - 1) as usize];
                if stored[e.start..e.start + e.len as usize] == *tail {
                    e.count += count;
                    e.mult += mult;
                    self.ranks.truncate(start);
                    return;
                }
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Per-rank result of one level's counting sweep.
#[derive(Debug, Clone, Copy, Default)]
struct RankStat {
    support: u64,
    /// Occurrences of the rank at a position past 0 (position 0 has an
    /// empty prefix: nothing to project).
    occurrences: usize,
    /// Where the rank's occurrence list ends in [`Level::occ`]; set for
    /// frequent ranks only.
    occ_end: usize,
}

/// The scratch of one recursion depth, reused across siblings and
/// projections.
#[derive(Debug, Default)]
struct Level {
    stats: Vec<RankStat>,
    /// `(entry, position)` of every occurrence of a frequent rank, the
    /// lists of the ranks back to back, each in entry order.
    occ: Vec<(u32, u32)>,
    /// The sub-base of the sibling being grown, and its merge index.
    sub: CondBase,
    table: Vec<u64>,
}

impl Level {
    /// The counting sweep over `base`: per-rank supports and, when the
    /// patterns grown from here may grow again, the occurrence list of
    /// every frequent rank. Returns the work charged: every path element,
    /// once per unmerged entry.
    fn sweep(&mut self, base: &CondBase, min_support_count: u64, with_occurrences: bool) -> u64 {
        // Paths are ascending, so the largest rank in play is some path's
        // last element — dense per-rank tables over that prefix are cheap
        // and deterministically iterable, unlike a hash map.
        let num_ranks = base
            .entries
            .iter()
            .map(|e| base.ranks[e.start + e.len as usize - 1] as usize + 1)
            .max()
            .unwrap_or(0);
        self.stats.clear();
        self.stats.resize(num_ranks, RankStat::default());
        let mut work = 0u64;
        for e in &base.entries {
            work += u64::from(e.len) * u64::from(e.mult);
            let path = base.path(e);
            self.stats[path[0] as usize].support += e.count;
            for &r in &path[1..] {
                let stat = &mut self.stats[r as usize];
                stat.support += e.count;
                stat.occurrences += 1;
            }
        }
        if !with_occurrences {
            return work;
        }
        let mut total = 0usize;
        for stat in &mut self.stats {
            if stat.support >= min_support_count {
                stat.occ_end = total;
                total += stat.occurrences;
            } else {
                stat.occurrences = 0;
            }
        }
        self.occ.clear();
        self.occ.resize(total, (0, 0));
        for (at, e) in base.entries.iter().enumerate() {
            for (pos, &r) in base.path(e).iter().enumerate().skip(1) {
                let stat = &mut self.stats[r as usize];
                if stat.occurrences > 0 {
                    self.occ[stat.occ_end] = (at as u32, pos as u32);
                    stat.occ_end += 1;
                }
            }
        }
        work
    }
}

/// Multiplier of the prefix hash (the one Fx hashing uses; any odd
/// constant with well-mixed bits would do). A fixed function, so the
/// merge table's layout repeats from run to run.
const HASH_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// Shared context of one run's growth: one per node, reused by every
/// projection the node mines.
pub struct GrowCtx<'a> {
    order: &'a ItemOrder,
    related: &'a RelatedRanks,
    min_support_count: u64,
    /// Largest itemset to emit (`MiningParams::max_pass`); `None` grows
    /// to fixpoint.
    max_len: Option<usize>,
    /// Path elements visited, counted per unmerged entry — the CPU-work
    /// measure of the projections mined so far.
    pub work: u64,
    /// Sub-base entries produced so far, counted per unmerged entry.
    pub base_entries: u64,
    /// Sub-base entries stored so far, after merging equal prefixes.
    pub base_entries_merged: u64,
    levels: Vec<Level>,
    pattern: Vec<ItemId>,
}

impl<'a> GrowCtx<'a> {
    /// A context with its meters at zero.
    pub fn new(
        order: &'a ItemOrder,
        related: &'a RelatedRanks,
        min_support_count: u64,
        max_len: Option<usize>,
    ) -> GrowCtx<'a> {
        GrowCtx {
            order,
            related,
            min_support_count,
            max_len,
            work: 0,
            base_entries: 0,
            base_entries_merged: 0,
            levels: Vec::new(),
            pattern: Vec::new(),
        }
    }

    fn grow(&mut self, depth: usize, base: &CondBase, out: &mut Vec<(Itemset, u64)>) {
        if self.max_len.is_some_and(|m| self.pattern.len() >= m) {
            return;
        }
        // Whether the patterns grown at this level may grow again.
        let descend = self.max_len.is_none_or(|m| self.pattern.len() + 1 < m);
        if self.levels.len() == depth {
            self.levels.push(Level::default());
        }
        // Taken out so the recursion can borrow `self` while reading this
        // level's sub-base; put back below, allocations intact.
        let mut level = std::mem::take(&mut self.levels[depth]);
        self.work += level.sweep(base, self.min_support_count, descend);
        for j in 0..level.stats.len() {
            let stat = level.stats[j];
            if stat.support < self.min_support_count {
                continue;
            }
            self.pattern.push(self.order.item_at(j as u32));
            out.push((Itemset::from_unsorted(self.pattern.clone()), stat.support));
            if descend {
                let list = &level.occ[stat.occ_end - stat.occurrences..stat.occ_end];
                self.project(base, list, j as u32, &mut level.sub, &mut level.table);
                if !level.sub.is_empty() {
                    self.grow(depth + 1, &level.sub, out);
                }
            }
            self.pattern.pop();
        }
        self.levels[depth] = level;
    }

    /// Builds rank `j`'s conditional base into `sub`: the strict prefix
    /// before `j` of every entry in `j`'s occurrence list, minus the ranks
    /// related to `j`, equal prefixes merged.
    fn project(
        &mut self,
        base: &CondBase,
        list: &[(u32, u32)],
        j: u32,
        sub: &mut CondBase,
        table: &mut Vec<u64>,
    ) {
        let skip = self.related.row(j);
        sub.clear();
        table.clear();
        table.resize((list.len() * 2).next_power_of_two(), 0);
        for &(at, pos) in list {
            let e = base.entries[at as usize];
            self.work += u64::from(pos) * u64::from(e.mult);
            let start = sub.ranks.len();
            let mut hash = HASH_MUL;
            for &q in &base.ranks[e.start..e.start + pos as usize] {
                if !skip.contains(q) {
                    sub.ranks.push(q);
                    hash = (hash ^ u64::from(q)).wrapping_mul(HASH_MUL);
                }
            }
            if sub.ranks.len() > start {
                self.base_entries += u64::from(e.mult);
                sub.merge_tail(table, start, hash, e.count, e.mult);
            }
        }
        self.base_entries_merged += sub.entries.len() as u64;
    }
}

/// Mines every large itemset (size ≥ 2) whose maximum-rank element is
/// `item`, given `item`'s conditional base with hierarchy-related items
/// already dropped. Singletons are pass 1's business. Emission order is
/// depth-first; the caller canonicalizes.
///
/// # Panics
/// If the base holds 2³² entries or more (≥ 96 GiB of entries alone):
/// occurrence lists and multiplicities index entries with `u32`.
pub fn mine_projection(
    ctx: &mut GrowCtx<'_>,
    item: ItemId,
    base: &CondBase,
    out: &mut Vec<(Itemset, u64)>,
) {
    assert!(
        u32::try_from(base.entries.len()).is_ok(),
        "a conditional base of 2^32 entries"
    );
    ctx.pattern.clear();
    ctx.pattern.push(item);
    ctx.grow(0, base, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gar_taxonomy::{Taxonomy, TaxonomyBuilder};
    use gar_types::iset;
    use proptest::prelude::*;

    /// The kernel this one replaced, kept verbatim as the reference:
    /// one `Vec` per path, a rescan of the whole base per frequent rank,
    /// `Taxonomy::related` per copied rank, no merging. Emission sequence
    /// and `work` of the arena kernel are held to it.
    mod reference {
        use crate::order::ItemOrder;
        use gar_taxonomy::Taxonomy;
        use gar_types::{ItemId, Itemset};

        pub type CondBase = Vec<(Vec<u32>, u64)>;

        pub struct GrowCtx<'a> {
            pub order: &'a ItemOrder,
            pub tax: &'a Taxonomy,
            pub min_support_count: u64,
            pub max_len: Option<usize>,
            pub work: u64,
        }

        pub fn mine_projection(
            ctx: &mut GrowCtx<'_>,
            item: ItemId,
            base: &CondBase,
            out: &mut Vec<(Itemset, u64)>,
        ) {
            let mut pattern = vec![item];
            grow(ctx, &mut pattern, base, out);
        }

        fn grow(
            ctx: &mut GrowCtx<'_>,
            pattern: &mut Vec<ItemId>,
            base: &CondBase,
            out: &mut Vec<(Itemset, u64)>,
        ) {
            if ctx.max_len.is_some_and(|m| pattern.len() >= m) {
                return;
            }
            // Support of pattern ∪ {j} for every rank j present in the base.
            // Paths are ascending, so the largest rank in play is each path's
            // last element — a dense count array over that prefix is cheaper and
            // deterministically iterable, unlike a hash map.
            let mut max_rank = 0u32;
            for (path, _) in base {
                if let Some(&last) = path.last() {
                    max_rank = max_rank.max(last + 1);
                }
            }
            let mut counts = vec![0u64; max_rank as usize];
            for (path, count) in base {
                ctx.work += path.len() as u64;
                for &r in path {
                    counts[r as usize] += count;
                }
            }
            for j in 0..max_rank {
                let support = counts[j as usize];
                if support < ctx.min_support_count {
                    continue;
                }
                let grown = ctx.order.item_at(j);
                pattern.push(grown);
                out.push((Itemset::from_unsorted(pattern.clone()), support));
                if ctx.max_len.is_none_or(|m| pattern.len() < m) {
                    // j's conditional base: the strict prefixes before j of every
                    // path containing j, minus items related to the grown item.
                    let mut sub = CondBase::new();
                    for (path, count) in base {
                        let Ok(pos) = path.binary_search(&j) else {
                            continue;
                        };
                        ctx.work += pos as u64;
                        let prefix: Vec<u32> = path[..pos]
                            .iter()
                            .copied()
                            .filter(|&q| !ctx.tax.related(ctx.order.item_at(q), grown))
                            .collect();
                        if !prefix.is_empty() {
                            sub.push((prefix, *count));
                        }
                    }
                    if !sub.is_empty() {
                        grow(ctx, pattern, &sub, out);
                    }
                }
                pattern.pop();
            }
        }
    }

    type Emitted = Vec<(Itemset, u64)>;

    /// Mines the projection of rank `target` from `paths` with both
    /// kernels — each filtering the raw paths its own way, bit matrix
    /// against `Taxonomy::related` — and returns (emissions, work) of
    /// the arena kernel after holding it to the reference.
    fn mine_both(
        tax: &Taxonomy,
        order: &ItemOrder,
        target: u32,
        paths: &[(Vec<u32>, u64)],
        min_support_count: u64,
        max_len: Option<usize>,
    ) -> (Emitted, u64) {
        let item = order.item_at(target);

        let want_base: reference::CondBase = paths
            .iter()
            .map(|(path, count)| {
                let kept: Vec<u32> = path
                    .iter()
                    .copied()
                    .filter(|&q| !tax.related(order.item_at(q), item))
                    .collect();
                (kept, *count)
            })
            .filter(|(kept, _)| !kept.is_empty())
            .collect();
        let mut want_ctx = reference::GrowCtx {
            order,
            tax,
            min_support_count,
            max_len,
            work: 0,
        };
        let mut want = Vec::new();
        reference::mine_projection(&mut want_ctx, item, &want_base, &mut want);

        let related = RelatedRanks::new(order, tax);
        let mut base = CondBase::new();
        for (path, count) in paths {
            base.push_filtered(path, related.row(target), *count);
        }
        let mut ctx = GrowCtx::new(order, &related, min_support_count, max_len);
        let mut got = Vec::new();
        mine_projection(&mut ctx, item, &base, &mut got);

        assert_eq!(got, want, "emission sequence");
        assert_eq!(ctx.work, want_ctx.work, "work");
        assert!(ctx.base_entries_merged <= ctx.base_entries);
        // A context is reused across projections: its scratch must not
        // leak from one into the next.
        let mut again = Vec::new();
        mine_projection(&mut ctx, item, &base, &mut again);
        assert_eq!(again, want, "second use of the same context");
        assert_eq!(ctx.work, 2 * want_ctx.work, "work, second use");
        (got, want_ctx.work)
    }

    /// A forest over `parents.len()` items: item `i`'s parent is drawn
    /// from the items *before it in a shuffled order*, so parents may
    /// carry larger ids than their children — with tied counts (ties
    /// rank by ascending id) such a child outranks its ancestor.
    fn forest(shuffle: &[u32], parents: &[u32]) -> Taxonomy {
        let n = parents.len();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.sort_by_key(|&i| (shuffle[i as usize], i));
        let mut b = TaxonomyBuilder::new(n as u32);
        for (at, &child) in ids.iter().enumerate().skip(1) {
            // One draw in three starts a new root.
            let draw = parents[child as usize] as usize;
            if !draw.is_multiple_of(3) {
                b.edge(child, ids[draw / 3 % at]).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// Raw ascending paths over the ranks below `target`: fresh random
    /// subsets, exact duplicates of an earlier path, and strict prefixes
    /// of one (nested paths), so merging has something to merge at every
    /// depth.
    fn paths_from(target: u32, draws: &[(u64, u32, u64)]) -> Vec<(Vec<u32>, u64)> {
        let mut paths: Vec<(Vec<u32>, u64)> = Vec::new();
        for &(bits, kind, count) in draws {
            let path: Vec<u32> = match (kind % 4, paths.len()) {
                (0, n) if n > 0 => paths[bits as usize % n].0.clone(),
                (1, n) if n > 0 => {
                    let src = &paths[bits as usize % n].0;
                    src[..src.len() - (bits >> 32) as usize % src.len()].to_vec()
                }
                _ => (0..target).filter(|r| bits >> (r % 64) & 1 != 0).collect(),
            };
            if !path.is_empty() {
                paths.push((path, count));
            }
        }
        paths
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arena_kernel_matches_the_reference(
            shuffle in proptest::collection::vec(0u32..4, 4..20),
            parents in proptest::collection::vec(0u32..1000, 20..=20),
            counts in proptest::collection::vec(1u64..4, 20..=20),
            draws in proptest::collection::vec(
                (proptest::num::u64::ANY, 0u32..8, 1u64..5), 0..40),
            support in 0usize..3,
            cap in 0usize..4,
        ) {
            let n = shuffle.len();
            let tax = forest(&shuffle, &parents[..n]);
            // Counts from a range of three: long tie chains, any rank
            // order between an item and its ancestors.
            let order = ItemOrder::new(&counts[..n], 1);
            let target = n as u32 - 1;
            let paths = paths_from(target, &draws);
            let total: u64 = paths.iter().map(|(_, c)| c).sum();
            let min_support_count = [1, 2, (total / 2).max(1)][support];
            let max_len = [None, Some(2), Some(3), Some(5)][cap];
            mine_both(&tax, &order, target, &paths, min_support_count, max_len);
        }

        #[test]
        fn matrix_agrees_with_the_taxonomy(
            shuffle in proptest::collection::vec(0u32..4, 1..20),
            parents in proptest::collection::vec(0u32..1000, 20..=20),
            counts in proptest::collection::vec(0u64..4, 20..=20),
        ) {
            let n = shuffle.len();
            let tax = forest(&shuffle, &parents[..n]);
            let order = ItemOrder::new(&counts[..n], 1);
            let related = RelatedRanks::new(&order, &tax);
            for a in 0..order.num_large() as u32 {
                for b in 0..order.num_large() as u32 {
                    prop_assert!(
                        related.row(a).contains(b)
                            == tax.related(order.item_at(a), order.item_at(b)),
                        "ranks {} and {}", a, b
                    );
                }
            }
        }
    }

    fn flat_tax(n: u32) -> Taxonomy {
        TaxonomyBuilder::new(n).build().unwrap()
    }

    #[test]
    fn empty_base_emits_nothing_and_costs_nothing() {
        let tax = flat_tax(3);
        let order = ItemOrder::new(&[10, 8, 5], 2);
        let (out, work) = mine_both(&tax, &order, 2, &[], 1, None);
        assert!(out.is_empty());
        assert_eq!(work, 0);
    }

    #[test]
    fn base_whose_every_prefix_filters_to_empty_stops_at_pairs() {
        // 0 is the parent of 1 and 2; 3 stands alone. Below rank 3 every
        // prefix of a path is made of items related to the path's last.
        let mut b = TaxonomyBuilder::new(4);
        b.edge(1, 0).unwrap();
        b.edge(2, 0).unwrap();
        let tax = b.build().unwrap();
        let order = ItemOrder::new(&[10, 8, 6, 5], 2);
        let paths = vec![(vec![0, 1], 3), (vec![0, 2], 2), (vec![0], 4)];
        let (out, work) = mine_both(&tax, &order, 3, &paths, 2, None);
        assert_eq!(
            out,
            vec![(iset![0, 3], 9), (iset![1, 3], 3), (iset![2, 3], 2)]
        );
        // The sweep over 5 path elements, then position 1 twice.
        assert_eq!(work, 7);
    }

    #[test]
    fn single_path_base_grows_its_whole_power_set() {
        let tax = flat_tax(4);
        let order = ItemOrder::new(&[10, 8, 6, 5], 2);
        let (out, _) = mine_both(&tax, &order, 3, &[(vec![0, 1, 2], 4)], 2, None);
        assert_eq!(out.len(), 7);
        assert!(out.iter().all(|&(_, support)| support == 4));
        assert!(out.contains(&(iset![0, 1, 2, 3], 4)));
    }

    #[test]
    fn equal_prefixes_merge_and_keep_their_multiplicity() {
        // Four paths that share the prefix [0, 1] before rank 2: one
        // stored entry standing for four, charged as four.
        let tax = flat_tax(5);
        let order = ItemOrder::new(&[10, 9, 8, 7, 5], 2);
        let short = (vec![0, 1, 2], 1);
        let long = (vec![0, 1, 2, 3], 1);
        let paths = [short.clone(), long.clone(), short, long];
        mine_both(&tax, &order, 4, &paths, 4, Some(3));

        let related = RelatedRanks::new(&order, &tax);
        let mut base = CondBase::new();
        for (path, count) in &paths {
            base.push_filtered(path, related.row(4), *count);
        }
        let mut ctx = GrowCtx::new(&order, &related, 4, Some(3));
        let mut out = Vec::new();
        mine_projection(&mut ctx, ItemId(4), &base, &mut out);
        assert!(out.contains(&(iset![0, 2, 4], 4)));
        // Sub-bases of ranks 1 and 2 (rank 3 is infrequent, rank 0 has no
        // prefix): [0] × 4 and [0, 1] × 4, stored once each.
        assert_eq!((ctx.base_entries, ctx.base_entries_merged), (8, 2));
    }

    #[test]
    fn grows_pairs_and_triples() {
        let tax = flat_tax(3);
        // counts: 0 -> 10, 1 -> 8, 2 -> 5 (ranks = ids here)
        let order = ItemOrder::new(&[10, 8, 5], 2);
        // Projection of item 2 (rank 2): base paths over ranks {0, 1}.
        let (mut out, work) = mine_both(&tax, &order, 2, &[(vec![0, 1], 3), (vec![0], 2)], 2, None);
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        assert_eq!(
            out,
            vec![(iset![0, 1, 2], 3), (iset![0, 2], 5), (iset![1, 2], 3),]
        );
        assert!(work > 0);
    }

    #[test]
    fn max_len_caps_growth() {
        let tax = flat_tax(3);
        let order = ItemOrder::new(&[10, 8, 5], 2);
        let (out, _) = mine_both(&tax, &order, 2, &[(vec![0, 1], 3)], 2, Some(2));
        assert!(out.iter().all(|(s, _)| s.len() == 2));
        assert_eq!(out.len(), 2); // {0,2}, {1,2} — no triple
    }

    #[test]
    fn related_items_filtered_from_sub_bases() {
        // 0 is the parent of 1; both large. Projection of item 2 whose
        // base holds both: {0,2} and {1,2} are fine, but growing {1,2}
        // must not add 0 (ancestor of 1).
        let mut b = TaxonomyBuilder::new(3);
        b.edge(1, 0).unwrap();
        let tax = b.build().unwrap();
        let order = ItemOrder::new(&[10, 8, 5], 2);
        let (mut out, _) = mine_both(&tax, &order, 2, &[(vec![0, 1], 4)], 2, None);
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        assert_eq!(out, vec![(iset![0, 2], 4), (iset![1, 2], 4)]);
    }

    #[test]
    fn received_paths_are_validated() {
        let mut base = CondBase::new();
        assert!(base.push_received([0, 2, 5].into_iter(), 6, 3));
        for bad in [vec![], vec![2, 2], vec![3, 1], vec![0, 6], vec![7]] {
            assert!(!base.push_received(bad.iter().copied(), 6, 1), "{bad:?}");
        }
        // Refused paths leave nothing behind.
        assert_eq!(base.to_paths(), vec![(vec![0, 2, 5], 3)]);
        assert_eq!(base.ranks.len(), 3);
    }
}
