//! Everything the programs are handed: the sampled transaction file, its
//! partitions, the memory budget, and the basket stream. All of it is a
//! function of the workload's frozen constants and `--seed`.

use crate::spec::{Workload, BASKET_LEN, NODES, POPULATION_FACTOR, STRUCTURE_SEED};
use crate::trace::Tracer;
use gar_datagen::TransactionGenerator;
use gar_mining::candidate::generate_pairs;
use gar_mining::counter::candidate_entry_bytes;
use gar_mining::MiningParams;
use gar_serve::RuleStore;
use gar_storage::PartitionedDatabase;
use gar_taxonomy::Taxonomy;
use gar_types::{ItemId, Itemset, Result};
use std::collections::BTreeMap;

/// SplitMix64, the workspace's generator for small seeded streams (same
/// recurrence as `gar-datagen` and `serve_load`).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// FNV-1a over little-endian words: the digest that pins "same seed, same
/// input" and compares mined outputs without keeping them all in memory.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn items(&mut self, items: &[ItemId]) {
        self.word(items.len() as u64);
        for it in items {
            self.bytes(&it.raw().to_le_bytes());
        }
    }
}

/// The generated mining input of one run.
pub struct Input {
    pub taxonomy: Taxonomy,
    pub transactions: Vec<Vec<ItemId>>,
    /// Seconds spent in the generator (population + sample).
    pub generate_s: f64,
}

impl Input {
    /// Draws the run's transaction file.
    ///
    /// The generator has one seed for hierarchy, pattern pool and
    /// transactions together, and the pattern-pool draw alone moves ‖C2‖
    /// by a third and Cumulate's time by 17 % (quartile distance over ten
    /// seeds) — more than any bound worth gating. So the *structure* is
    /// frozen ([`STRUCTURE_SEED`]) and `--seed` decides which half of a
    /// twice-as-large population this run mines, and in what order (hence
    /// what each node's partition holds). Supports near the threshold,
    /// ‖L1‖, ‖C2‖ and the mined rules all differ from seed to seed; the
    /// cost regime does not.
    pub fn generate(w: &Workload, seed: u64) -> Result<Input> {
        let clock = gar_obs::Stopwatch::start();
        let mut spec = w.preset.spec(STRUCTURE_SEED).scaled(w.scale);
        let sample = spec.num_transactions;
        spec.num_transactions = sample * POPULATION_FACTOR;
        let mut generator = TransactionGenerator::new(&spec)?;
        let mut transactions: Vec<Vec<ItemId>> = generator.by_ref().collect();
        // Partial Fisher-Yates: the first `sample` slots end up a uniform
        // sample without replacement, in uniform random order.
        let mut rng = SplitMix64(seed);
        for i in 0..sample {
            let j = i + rng.below(transactions.len() - i);
            transactions.swap(i, j);
        }
        transactions.truncate(sample);
        Ok(Input {
            taxonomy: generator.into_taxonomy(),
            transactions,
            generate_s: clock.elapsed().as_secs_f64(),
        })
    }

    /// Flat in-memory partitions, round-robin, as every workload uses.
    pub fn partition(&self, parts: usize) -> Result<PartitionedDatabase> {
        PartitionedDatabase::build_in_memory(parts, self.transactions.iter().cloned())
    }

    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.word(u64::from(self.taxonomy.num_items()));
        for t in &self.transactions {
            d.items(t);
        }
        d.0
    }

    /// Pass-1 supports over extended transactions, the large items, and
    /// the pass-2 candidates: what the memory rule and several layer
    /// kernels start from.
    pub fn pass_one(&self, params: &MiningParams) -> PassOne {
        let threshold = params.min_support_count(self.transactions.len() as u64);
        let mut item_counts = vec![0u64; self.taxonomy.num_items() as usize];
        let mut extended = Vec::new();
        for t in &self.transactions {
            self.taxonomy.extend_transaction_into(t, &mut extended);
            for it in &extended {
                item_counts[it.index()] += 1;
            }
        }
        let is_large: Vec<bool> = item_counts.iter().map(|&c| c >= threshold).collect();
        let l1: Vec<ItemId> = (0..self.taxonomy.num_items())
            .map(ItemId)
            .filter(|it| is_large[it.index()])
            .collect();
        let c2 = generate_pairs(&l1, Some(&self.taxonomy));
        PassOne {
            item_counts,
            is_large,
            l1,
            c2,
        }
    }
}

pub struct PassOne {
    pub item_counts: Vec<u64>,
    pub is_large: Vec<bool>,
    pub l1: Vec<ItemId>,
    pub c2: Vec<Itemset>,
}

/// The paper's memory regime, sized from the run's own ‖C2‖: per-node
/// memory is `factor × ‖C2‖ bytes ÷ nodes`, so `factor = 1.5` gives
/// `M < ‖C2‖ < N·M` and `factor = 0.5` gives NPGM four fragments.
/// Derived, not frozen in bytes, because a ±1 % move of ‖C2‖ between
/// seeds would otherwise flip the fragment count.
pub fn memory_per_node(c2: usize, factor: f64) -> u64 {
    let total = c2 as u64 * candidate_entry_bytes(2);
    ((total as f64 * factor) / NODES as f64).ceil() as u64 + 1
}

/// The mining set-up of one run: the partitions the timed call reads and
/// the memory budget it runs under.
pub struct Prepared {
    pub input: Input,
    pub db: PartitionedDatabase,
    pub memory_per_node: u64,
    pub c2: usize,
    /// Seconds spent partitioning.
    pub build_s: f64,
}

pub fn prepare(w: &Workload, seed: u64, t: &Tracer) -> Result<Prepared> {
    let (input, _) = t.timed("datagen.generate", || Input::generate(w, seed));
    let input = input?;
    let (db, build_s) = t.timed("storage.flat.build", || input.partition(w.miner.threads()));
    let db = db?;
    let c2 = input
        .pass_one(&MiningParams::with_min_support(w.min_support))
        .c2
        .len();
    Ok(Prepared {
        memory_per_node: memory_per_node(c2, w.memory_factor),
        input,
        db,
        c2,
        build_s,
    })
}

/// The seeded basket stream, drawn from the items that can trigger a rule
/// of `store`. `same_root` keeps each basket inside one root's subtree
/// (the root weighted by its antecedent mass), so it lands on one shard.
pub struct Baskets {
    universe: Vec<ItemId>,
    by_root: Vec<Vec<ItemId>>,
    root_slot: BTreeMap<u32, usize>,
    rng: SplitMix64,
}

impl Baskets {
    /// `None` when the store holds no rule, hence nothing to ask.
    pub fn new(store: &RuleStore, seed: u64) -> Option<Baskets> {
        let universe = store.antecedent_items();
        if universe.is_empty() {
            return None;
        }
        let mut root_slot = BTreeMap::new();
        let mut by_root: Vec<Vec<ItemId>> = Vec::new();
        for &item in &universe {
            let root = store.taxonomy.root_of(item).raw();
            let slot = *root_slot.entry(root).or_insert_with(|| {
                by_root.push(Vec::new());
                by_root.len() - 1
            });
            by_root[slot].push(item);
        }
        Some(Baskets {
            universe,
            by_root,
            root_slot,
            // A stream of its own, so the sample and the baskets of one
            // seed are not the same numbers.
            rng: SplitMix64(seed ^ 0x6261_736b_6574_7321),
        })
    }

    pub fn next(&mut self, taxonomy: &Taxonomy, same_root: bool) -> Vec<ItemId> {
        let Baskets {
            universe,
            by_root,
            root_slot,
            rng,
        } = self;
        let pool: &[ItemId] = if same_root {
            let probe = universe[rng.below(universe.len())];
            &by_root[root_slot[&taxonomy.root_of(probe).raw()]]
        } else {
            universe
        };
        let mut basket = Vec::with_capacity(BASKET_LEN);
        while basket.len() < BASKET_LEN.min(pool.len()) {
            let item = pool[rng.below(pool.len())];
            if !basket.contains(&item) {
                basket.push(item);
            }
        }
        basket
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        // The smallest workload keeps the test quick.
        let w = WORKLOADS
            .iter()
            .min_by(|a, b| a.scale.total_cmp(&b.scale))
            .unwrap();
        let a = Input::generate(w, 7).unwrap();
        let b = Input::generate(w, 7).unwrap();
        let c = Input::generate(w, 8).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.transactions.len(), c.transactions.len());
    }

    #[test]
    fn memory_rule_puts_c2_between_one_node_and_all_nodes() {
        let c2 = 100_000;
        let total = c2 as u64 * candidate_entry_bytes(2);
        let m = memory_per_node(c2, 1.5);
        assert!(m < total && total < NODES as u64 * m);
        // factor 0.5 on two nodes: a quarter each, so four fragments.
        assert_eq!(total.div_ceil(memory_per_node(c2, 0.5)), 4);
    }

    #[test]
    fn digest_separates_lengths_from_contents() {
        let mut a = Digest::new();
        a.items(&[ItemId(1), ItemId(2)]);
        a.items(&[]);
        let mut b = Digest::new();
        b.items(&[ItemId(1)]);
        b.items(&[ItemId(2)]);
        assert_ne!(a.0, b.0);
    }
}
