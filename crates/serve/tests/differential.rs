//! Differential test of the scoring engine against an oracle that is
//! not the engine: the `engine` module doc executed literally — scan
//! every rule, test containment, sort, dedup consequents, suppress
//! generalizations, truncate. No index, no ranks, no shards.
//!
//! Run over seeded random hierarchies with rule sets a miner would not
//! emit (an item beside its own ancestor in one antecedent, antecedent
//! and consequent overlapping, many rules per consequent, tied scores)
//! and baskets with unknown and repeated items, at 1 and 3 shards; and
//! once over the mined store of `tests/determinism.rs`.

use gar_cluster::ClusterConfig;
use gar_datagen::{DatasetSpec, TransactionGenerator};
use gar_mining::parallel::mine_parallel;
use gar_mining::rules::{derive_rules, Rule};
use gar_mining::{Algorithm, MiningParams};
use gar_serve::{Catalog, Recommendation, RuleStore};
use gar_storage::PartitionedDatabase;
use gar_taxonomy::{Taxonomy, TaxonomyBuilder};
use gar_types::{ItemId, Itemset};

const TOP_KS: [usize; 5] = [0, 1, 3, 10, 1000];
const SHARDS: [usize; 2] = [1, 3];

/// `spec` is a proper item-wise specialization of `gen`.
fn specializes(tax: &Taxonomy, spec: &Itemset, gen: &Itemset) -> bool {
    let covers = |g: ItemId, s: ItemId| g == s || tax.is_ancestor(g, s);
    let (spec_items, gen_items) = (spec.items(), gen.items());
    spec.len() == gen.len()
        && spec != gen
        && gen_items
            .iter()
            .all(|&g| spec_items.iter().any(|&s| covers(g, s)))
        && spec_items
            .iter()
            .all(|&s| gen_items.iter().any(|&g| covers(g, s)))
}

fn oracle(store: &RuleStore, basket: &[ItemId], top_k: usize) -> Vec<Recommendation> {
    let tax = &store.taxonomy;
    let known: Vec<ItemId> = basket
        .iter()
        .copied()
        .filter(|it| it.raw() < tax.num_items())
        .collect();
    let extended = tax.extend_transaction(&known);
    let score = |r: &Rule| r.confidence * r.support;
    let mut matched: Vec<&Rule> = store
        .rules
        .iter()
        .filter(|r| r.antecedent.is_contained_in(&extended))
        .filter(|r| !r.consequent.is_contained_in(&extended))
        .collect();
    matched.sort_by(|a, b| {
        score(b)
            .partial_cmp(&score(a))
            .unwrap()
            .then_with(|| b.support_count.cmp(&a.support_count))
            .then_with(|| a.antecedent.cmp(&b.antecedent))
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
    let mut best: Vec<&Rule> = Vec::new();
    for r in matched {
        if !best.iter().any(|b| b.consequent == r.consequent) {
            best.push(r);
        }
    }
    best.iter()
        .filter(|gen| {
            !best.iter().any(|spec| {
                score(spec) >= score(gen) && specializes(tax, &spec.consequent, &gen.consequent)
            })
        })
        .take(top_k)
        .map(|r| Recommendation {
            consequent: r.consequent.clone(),
            support_count: r.support_count,
            confidence: r.confidence,
            score: score(r),
        })
        .collect()
}

/// Holds every basket against the oracle at every shard count and
/// `top_k`; returns how many non-empty answers were compared.
fn check(store: &RuleStore, baskets: &[Vec<ItemId>], what: &str) -> usize {
    let mut non_empty = 0;
    for shards in SHARDS {
        let catalog = Catalog::new(store.clone(), shards);
        for basket in baskets {
            for top_k in TOP_KS {
                let expected = oracle(store, basket, top_k);
                assert_eq!(
                    catalog.query(basket, top_k),
                    expected,
                    "{what}: shards={shards} top_k={top_k} basket={basket:?}"
                );
                non_empty += usize::from(!expected.is_empty());
            }
        }
    }
    non_empty
}

/// SplitMix64, the workspace's seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// 1..=max distinct items below `universe`, any mix of levels.
    fn itemset(&mut self, universe: u64, max: u64) -> Itemset {
        let len = 1 + self.below(max);
        Itemset::from_unsorted(
            (0..len)
                .map(|_| ItemId(self.below(universe) as u32))
                .collect(),
        )
    }
}

/// A random forest: each item past the first few hangs under a random
/// earlier item three times out of four, else it is a root.
fn random_taxonomy(rng: &mut Rng, n: u32) -> Taxonomy {
    let mut b = TaxonomyBuilder::new(n);
    for child in 3..n {
        if rng.below(4) != 0 {
            b.edge(child, rng.below(u64::from(child)) as u32).unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn random_stores_answer_like_the_literal_definition() {
    // GAR_PROPTEST_CASES widens the soak (nightly); 12 seeds otherwise.
    let seeds: u64 = std::env::var("GAR_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let mut non_empty = 0;
    for seed in 0..seeds {
        let mut rng = Rng(seed);
        let n = 12 + rng.below(28);
        let tax = random_taxonomy(&mut rng, n as u32);
        let num_transactions = 50;
        // Few distinct (support, confidence) pairs: tied scores are the
        // rule, not the exception. Small consequents over a small
        // universe repeat, and nothing keeps an antecedent clear of its
        // own ancestors or of the consequent.
        let rules: Vec<Rule> = (0..60 + rng.below(120))
            .map(|_| {
                let support_count = 1 + rng.below(4) * 5;
                Rule {
                    antecedent: rng.itemset(n, 3),
                    consequent: rng.itemset(n, 2),
                    support_count,
                    support: 0.0, // re-derived by RuleStore::new
                    confidence: [0.25, 0.5, 0.5, 1.0][rng.below(4) as usize],
                }
            })
            .collect();
        let store = RuleStore::new(rules, tax, num_transactions);
        let baskets: Vec<Vec<ItemId>> = (0..40)
            .map(|_| {
                // Items up to n + 5: some unknown; draws repeat.
                (0..rng.below(7))
                    .map(|_| ItemId(rng.below(n + 6) as u32))
                    .collect()
            })
            .collect();
        non_empty += check(&store, &baskets, &format!("seed {seed}"));
    }
    assert!(
        non_empty as u64 * 12 > 1000 * seeds,
        "fixture too sparse: {non_empty}"
    );
}

#[test]
fn the_mined_store_answers_like_the_literal_definition() {
    // The dataset and mining call of tests/determinism.rs.
    let spec = DatasetSpec {
        name: "serve-determinism".into(),
        num_transactions: 300,
        avg_transaction_size: 6.0,
        avg_pattern_size: 3.0,
        num_patterns: 40,
        num_items: 150,
        num_roots: 6,
        fanout: 4.0,
        seed: 11,
    };
    let mut g = TransactionGenerator::new(&spec).unwrap();
    let txns: Vec<Vec<ItemId>> = g.by_ref().collect();
    let tax = g.into_taxonomy();
    let baskets: Vec<Vec<ItemId>> = txns.iter().take(60).cloned().collect();
    let db = PartitionedDatabase::build_in_memory(2, txns.into_iter()).unwrap();
    let cluster = ClusterConfig::new(2, 1 << 30);
    let params = MiningParams::with_min_support(0.05);
    let report = mine_parallel(Algorithm::HHpgmFgd, &db, &tax, &params, &cluster).unwrap();
    let rules = derive_rules(&report.output, 0.5, Some(&tax));
    let store = RuleStore::new(rules, tax, report.output.num_transactions);
    assert!(check(&store, &baskets, "mined") > 100);
}
