//! The blocked vertical execution of
//! [`HashTreeCounter`](super::HashTreeCounter), for `k ≥ 3`.
//!
//! [`push`](super::HashTreeCounter::push) files a transaction into the
//! open *block* of up to [`BLOCK`] transactions instead of walking it; a
//! full block, or [`settle`](super::HashTreeCounter::settle), sweeps the
//! tree once for the whole block with bitset ANDs and `count_ones`. The
//! counts, `work` and `hits` are exactly what `count_transaction` on each
//! transaction would sum to.
//!
//! **The identity.** Inside a block, number the transactions `0..n` and
//! give every rank `x` its tid row `tid(x)`: bit `b` is set iff
//! transaction `b` holds `x`. Let `s_T(x)` be the number of items of `T`
//! (candidate items or not) after `x`, and give every rank that ends the
//! prefix of an internal node its *planes*: `plane_p(x)` holds `T` iff
//! `x ∈ T` and bit `p` of `s_T(x)` is set. Then, for the block,
//!
//! * `work = w_root · Σ|T| + Σ_v weight(v) · Σ_p 2^p · popcount(AND_i tid(x_i) ∧ plane_p(x_d))`,
//!   summed over the internal nodes `v` below the root, `v`'s prefix
//!   being `x_1 < … < x_d`;
//! * `counts[c] += popcount(AND_i tid(c_i))` for every candidate `c`;
//! * `hits` is the sum of the count increments.
//!
//! *Proof.* The walk visits a node at depth `d` with transaction `T` iff
//! `|T| ≥ k`, the counter has candidates, and `{x_1 … x_d} ⊆ T`: it
//! descends an edge exactly when the transaction holds the edge's item,
//! and items are sorted, so containment is the whole condition. The
//! visit charges `weight × (|T| − consumed)`, where `consumed` is 0 at
//! the root and one past `x_d`'s original position below it: `|T|` at
//! the root and `s_T(x_d)` below. Only transactions with `|T| ≥ k` enter
//! a block, and a counter without candidates fills none, so the root's
//! share is `w_root · Σ|T|`. For a node below the root, the transactions
//! that visit it are the bits of `A = AND_i tid(x_i)`; since
//! `plane_p(x_d) ⊆ tid(x_d)`, `Σ_{T ∈ A} s_T(x_d) = Σ_p 2^p · |A ∧
//! plane_p(x_d)|` by the binary expansion of each `s_T`. A candidate is
//! incremented once per transaction holding all its items, which is
//! `|AND_i tid(c_i)|`, and each increment is one hit. ∎
//!
//! The sweep walks the tree depth first with a stack of prefix ANDs,
//! each kept with the range of its non-zero words. A prefix whose AND is
//! zero is skipped with its subtree: nothing below it adds `work` or
//! counts. Weights are the tree's own (1 outside a union).

use super::{Tree, NONE};
use crate::counter::CountOutcome;
use gar_types::ItemId;

/// Transactions per block. A tid row is [`WORDS`] words, so a counter's
/// rows and planes stay at a few hundred KB for a few hundred ranks.
pub(super) const BLOCK: usize = 1024;
const WORDS: usize = BLOCK / 64;

/// The smallest `k` that [`push`](super::HashTreeCounter::push) files
/// into blocks; below it, `push` counts pairs in cells (`pairs.rs`) or
/// walks the tree at once. A sweep costs about (candidates × live words)
/// per block whatever the data, a walk what the transactions match: pass
/// 2's `C_2` is large and its pairs sparse, and on R30F5 at 1 % (390,808
/// pairs) blocks counted NPGM's pass 2 in 2.3× the walk's CPU, against
/// 0.5× at pass 3.
pub(super) const MIN_K: usize = 3;

/// A counter's open block and the scratch of a sweep.
#[derive(Default)]
pub(super) struct Block {
    /// Transactions filed since the block was last swept.
    len: usize,
    /// Their summed lengths, `Σ|T|`.
    items: u64,
    /// `rows[r * WORDS..][..WORDS]` is rank `r`'s tid row.
    rows: Vec<u64>,
    /// Per rank, its plane slot, or `NONE` when no internal prefix ends
    /// in it.
    slot: Vec<u32>,
    slots: usize,
    /// Plane `p` of slot `s` is `planes[(p * slots + s) * WORDS..][..WORDS]`;
    /// grown a plane at a time as longer transactions arrive.
    planes: Vec<u64>,
    num_planes: usize,
    /// Per depth, the AND of the prefix's tid rows.
    stack: Vec<u64>,
}

impl Block {
    /// The block of a `k`-candidate tree over `num_ranks` ranks; one that
    /// is never filed into when `k < MIN_K` or the tree has no candidates.
    pub(super) fn new(tree: &Tree, k: usize, num_ranks: usize) -> Block {
        if k < MIN_K || tree.edges.is_empty() {
            return Block::default();
        }
        // Ranks on an edge into an internal node get planes: the edges of
        // the nodes at depth 0..=k − 2.
        let mut slot = vec![NONE; num_ranks];
        let mut slots = 0;
        let mut open = vec![(0u32, 0usize)];
        while let Some((node, depth)) = open.pop() {
            if depth + 2 > k {
                continue;
            }
            let n = tree.nodes[node as usize];
            for &(rank, child) in &tree.edges[n.edges as usize..][..n.fanout as usize] {
                if slot[rank as usize] == NONE {
                    slot[rank as usize] = slots;
                    slots += 1;
                }
                open.push((child, depth + 1));
            }
        }
        Block {
            len: 0,
            items: 0,
            rows: vec![0; num_ranks * WORDS],
            slot,
            slots: slots as usize,
            planes: Vec::new(),
            num_planes: 0,
            stack: vec![0; k * WORDS],
        }
    }

    /// Transactions filed and not yet swept.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Files the sorted transaction `t` (`|t| ≥ k`) as the block's next.
    pub(super) fn file(&mut self, tree: &Tree, t: &[ItemId]) {
        let (word, bit) = (self.len / 64, 1u64 << (self.len % 64));
        let last = t.len().saturating_sub(1);
        self.items += t.len() as u64;
        // `s_T` is at most `|T| − 1`: that many bits of planes.
        let need = (usize::BITS - last.leading_zeros()) as usize;
        if self.num_planes < need {
            self.num_planes = need;
            self.planes.resize(need * self.slots * WORDS, 0);
        }
        for (at, &it) in t.iter().enumerate() {
            let rank = tree.rank(it);
            if rank == NONE {
                continue;
            }
            self.rows[rank as usize * WORDS + word] |= bit;
            let slot = self.slot[rank as usize] as usize;
            if slot == NONE as usize {
                continue;
            }
            let mut after = last - at;
            while after != 0 {
                let p = after.trailing_zeros() as usize;
                self.planes[(p * self.slots + slot) * WORDS + word] |= bit;
                after &= after - 1;
            }
        }
        self.len += 1;
    }

    /// Sweeps the tree over the open block into `counts` and its meters
    /// into `out`, and empties the block.
    pub(super) fn sweep(
        &mut self,
        tree: &Tree,
        k: usize,
        counts: &mut [u64],
        out: &mut CountOutcome,
    ) {
        let words = self.len.div_ceil(64);
        // Depth 0's AND is every transaction of the block; rows hold no
        // bit past `len`, so whole words of ones do.
        self.stack[..words].fill(u64::MAX);
        out.work += tree.weight(0) * self.items;
        Sweep {
            tree,
            block: self,
            counts,
            out,
        }
        .visit(0, 0, k, 0..words);
        self.rows.fill(0);
        self.planes.fill(0);
        self.len = 0;
        self.items = 0;
    }
}

/// One sweep of a block in flight.
struct Sweep<'a> {
    tree: &'a Tree,
    block: &'a mut Block,
    counts: &'a mut [u64],
    out: &'a mut CountOutcome,
}

impl Sweep<'_> {
    /// Visits `node` at `depth`, `levels` above the candidates, whose
    /// prefix AND is `stack` level `depth`, non-zero only in `live`.
    fn visit(&mut self, node: u32, depth: usize, levels: usize, live: std::ops::Range<usize>) {
        let tree = self.tree;
        let n = tree.nodes[node as usize];
        for &(rank, target) in &tree.edges[n.edges as usize..][..n.fanout as usize] {
            let b = &mut *self.block;
            let row = &b.rows[rank as usize * WORDS..][..WORDS];
            let (above, below) = b.stack.split_at_mut((depth + 1) * WORDS);
            let and = &above[depth * WORDS..];
            if levels == 1 {
                let hits: u64 = live
                    .clone()
                    .map(|w| u64::from((and[w] & row[w]).count_ones()))
                    .sum();
                self.counts[target as usize] += hits;
                self.out.hits += hits;
                continue;
            }
            let child = &mut below[..WORDS];
            let (mut lo, mut hi) = (live.end, live.start);
            for w in live.clone() {
                child[w] = and[w] & row[w];
                if child[w] != 0 {
                    lo = lo.min(w);
                    hi = w + 1;
                }
            }
            if lo >= hi {
                continue;
            }
            let slot = b.slot[rank as usize] as usize;
            let mut after = 0u64;
            for p in 0..b.num_planes {
                let plane = &b.planes[(p * b.slots + slot) * WORDS..][..WORDS];
                let ones: u64 = (lo..hi)
                    .map(|w| u64::from((child[w] & plane[w]).count_ones()))
                    .sum();
                after += ones << p;
            }
            self.out.work += tree.weight(target) * after;
            self.visit(target, depth + 1, levels - 1, lo..hi);
        }
    }
}
