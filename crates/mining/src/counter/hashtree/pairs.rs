//! The pair-cell execution of [`HashTreeCounter`], for `k = 2`.
//!
//! A near-complete `C_2` is the triangular pair array of classic Apriori
//! pass-2 counters. When the tree's ranks are few enough for that
//! ([`Pairs::new`]), [`push`](HashTreeCounter::push) and
//! [`push_itemsets`](HashTreeCounter::push_itemsets) add 1 to one `u32`
//! *cell* per pair of ranks `ra < rb` instead of walking the tree, and
//! [`settle`](HashTreeCounter::settle) folds the cells of the candidates
//! into `counts`. The counts, `work` and `hits` are exactly what
//! `count_transaction` (for `push`) and `probe_many` (for
//! `push_itemsets`) would sum to.
//!
//! **The identity.** Let `T` be a transaction with `|T| ≥ 2` pushed into
//! a counter with candidates, `pos_x` the position of `x` in `T`, and
//! `child_x` the root's child on `x`'s rank, if any. Then
//!
//! * `work = w_root · |T| + Σ_x weight(child_x) · (|T| − pos_x − 1)`,
//!   summed over the items `x` of `T` that are a root edge;
//! * after the fold, `counts[c]` has grown by the number of pushed
//!   transactions holding both items of `c`, and `hits` by the sum of
//!   those increments.
//!
//! *Proof.* At `k = 2` the tree has two levels of nodes: the root, and
//! one child per first item of a candidate, whose edges hold the
//! candidate indices. The walk visits the root with every `T` with
//! `|T| ≥ 2` in a counter with candidates, charging `w_root · |T|`; it
//! visits `child_x` iff `x ∈ T`, charging `weight(child_x) · s_T(x)`
//! where `s_T(x) = |T| − pos_x − 1` is the number of items after `x`;
//! and it visits nothing else. At a child it increments each candidate
//! `{x, y}` with `y` later in `T`, one hit each. The cells count every
//! pair of ranks of `T` once, and the candidate `{x, y}` reads the cell
//! of its own ranks (ranks preserve item order), so the fold adds the
//! same increments. An itemset pushed by `push_itemsets` adds one unit of
//! `work`, and one increment to the cell of its ranks exactly when it is
//! two ranked items in ascending order — the only itemsets `probe` can
//! find, since every candidate is one. ∎
//!
//! **The `u32` bound.** A transaction adds at most 1 to any cell and an
//! itemset exactly 1 to one cell, so a cell never exceeds the
//! transactions and itemsets filed since the last fold. Cells are folded
//! early, before that number passes `u32::MAX`.

use super::{HashTreeCounter, Tree, DENSE_MAX_SPREAD, NONE};
use crate::counter::CountOutcome;
use gar_types::ItemId;

/// Itemsets `push_itemsets` files between two checks of the `u32` bound.
const RUN: usize = 1 << 20;

/// A `k = 2` counter's pair cells and what its `work` meter needs of the
/// tree; empty when the counter walks instead.
#[derive(Default)]
pub(super) struct Pairs {
    /// `cells[rb · (rb − 1) / 2 + ra]` counts the pairs of ranks
    /// `ra < rb` filed since the last fold.
    cells: Vec<u32>,
    /// Transactions and itemsets filed since the last fold: a bound on
    /// every cell.
    filed: u64,
    /// Per rank, the weight of the root's child on it, or 0 where the
    /// root has no edge.
    child_weight: Vec<u32>,
    root_weight: u64,
    /// Scratch of `file`: the transaction's ranks.
    ranks: Vec<u32>,
}

/// Offset of rank `rb`'s row of cells, which holds the ranks below it.
#[inline]
fn row(rb: u32) -> usize {
    let rb = rb as usize;
    rb * rb.saturating_sub(1) / 2
}

impl Pairs {
    /// The cells of a tree of `k`-candidates over `num_ranks` ranks, when
    /// `k = 2` and the triangle holds at most [`DENSE_MAX_SPREAD`] cells
    /// per candidate — the rule that gives a node a child table; none
    /// otherwise.
    pub(super) fn new(tree: &Tree, k: usize, num_ranks: usize, candidates: usize) -> Pairs {
        let cells = row(num_ranks as u32);
        if k != 2 || candidates == 0 || cells > DENSE_MAX_SPREAD * candidates {
            return Pairs::default();
        }
        let mut child_weight = vec![0; num_ranks];
        let root = tree.nodes[0];
        for &(ra, child) in &tree.edges[root.edges as usize..][..root.fanout as usize] {
            child_weight[ra as usize] = tree.weight(child) as u32;
        }
        Pairs {
            cells: vec![0; cells],
            filed: 0,
            child_weight,
            root_weight: tree.weight(0),
            ranks: Vec::new(),
        }
    }

    /// Whether the counter counts its pairs here.
    #[inline]
    pub(super) fn is_on(&self) -> bool {
        !self.cells.is_empty()
    }

    /// Itemsets and transactions filed and not yet folded.
    pub(super) fn filed(&self) -> u64 {
        self.filed
    }

    /// Makes room for `n` more filings under the `u32` bound, folding
    /// first when they could overflow a cell.
    fn reserve(&mut self, tree: &Tree, n: u64, counts: &mut [u64], out: &mut CountOutcome) {
        if self.filed + n > u64::from(u32::MAX) {
            self.fold(tree, counts, out);
        }
        self.filed += n;
    }

    /// Files the sorted transaction `t` (`|t| ≥ 2`): one increment per
    /// pair of its ranks, and the walk's `work` into `out`.
    pub(super) fn file(
        &mut self,
        tree: &Tree,
        t: &[ItemId],
        counts: &mut [u64],
        out: &mut CountOutcome,
    ) {
        self.reserve(tree, 1, counts, out);
        let len = t.len() as u64;
        let mut work = self.root_weight * len;
        self.ranks.clear();
        for (at, &it) in t.iter().enumerate() {
            let rank = tree.rank(it);
            if rank != NONE {
                work += u64::from(self.child_weight[rank as usize]) * (len - at as u64 - 1);
                self.ranks.push(rank);
            }
        }
        out.work += work;
        for (j, &rb) in self.ranks.iter().enumerate() {
            let cells = &mut self.cells[row(rb)..][..rb as usize];
            for &ra in &self.ranks[..j] {
                cells[ra as usize] += 1;
            }
        }
    }

    /// Files the 2-itemsets of `flat` (back to back, a trailing odd item
    /// ignored): one unit of `work` each, and one increment for each that
    /// is two ranked items in ascending order.
    pub(super) fn file_itemsets(
        &mut self,
        tree: &Tree,
        flat: &[ItemId],
        counts: &mut [u64],
        out: &mut CountOutcome,
    ) {
        for run in flat.chunks(2 * RUN) {
            let run = &run[..run.len() / 2 * 2];
            self.reserve(tree, (run.len() / 2) as u64, counts, out);
            out.work += (run.len() / 2) as u64;
            for pair in run.chunks_exact(2) {
                let (ra, rb) = (tree.rank(pair[0]), tree.rank(pair[1]));
                // `ra < rb` leaves `ra` ranked; an unsorted pair, or one of
                // equal items, is no candidate.
                if ra < rb && rb != NONE {
                    self.cells[row(rb) + ra as usize] += 1;
                }
            }
        }
    }

    /// Folds the cells of the candidates into `counts` and their sum into
    /// `out.hits`, walking the tree's two levels, and clears every cell.
    pub(super) fn fold(&mut self, tree: &Tree, counts: &mut [u64], out: &mut CountOutcome) {
        if self.filed == 0 {
            return;
        }
        let root = tree.nodes[0];
        for &(ra, child) in &tree.edges[root.edges as usize..][..root.fanout as usize] {
            let n = tree.nodes[child as usize];
            for &(rb, candidate) in &tree.edges[n.edges as usize..][..n.fanout as usize] {
                let hits = u64::from(self.cells[row(rb) + ra as usize]);
                counts[candidate as usize] += hits;
                out.hits += hits;
            }
        }
        self.cells.fill(0);
        self.filed = 0;
    }
}

impl HashTreeCounter {
    /// Whether this counter counts its pairs in cells.
    #[cfg(test)]
    pub(in crate::counter) fn counts_pairs_in_cells(&self) -> bool {
        self.pairs.is_on()
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
    fn cells_fold_before_one_could_pass_u32_max() {
        let cands = [iset![1, 2], iset![1, 3], iset![2, 3]];
        let mut cells = HashTreeCounter::new(2, &cands);
        let mut walked = HashTreeCounter::new(2, &cands);
        let t = ids(&[1, 2, 3]);
        let mut sum = CountOutcome::default();
        for _ in 0..3 {
            sum.absorb(walked.count_transaction(&t));
        }
        cells.push(&t);
        // As if `u32::MAX − 2` more had been filed: the next filing fits,
        // the one after folds first.
        cells.pairs.filed = u64::from(u32::MAX) - 1;
        cells.push(&t);
        assert_eq!(cells.settled.hits, 0);
        cells.push(&t);
        assert_eq!(cells.settled.hits, 6);
        assert_eq!(cells.pairs.filed, 1);
        // A run of itemsets is bounded by its length.
        cells.pairs.filed = u64::from(u32::MAX) - 1;
        let flat = ids(&[1, 2, 2, 3]);
        sum.absorb(walked.probe_many(&flat));
        cells.push_itemsets(&flat);
        assert_eq!(cells.settled.hits, 9);
        assert_eq!(cells.pairs.filed, 2);
        assert_eq!(cells.settle(), sum);
        assert_eq!(cells.counts(), walked.counts());
        assert_eq!(cells.counts(), &[4, 3, 4]);
    }
}
