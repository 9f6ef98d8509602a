//! Basket scoring: from a transaction-shaped query to top-k consequents.
//!
//! A rule *matches* a basket when its antecedent is contained in the
//! basket's extended transaction (the basket plus all ancestors — the
//! paper's `t'`), and its consequent is **not** already contained there
//! (a recommendation for something the basket already implies is
//! useless). Matches are ranked by `confidence × support`; of several
//! matches with the same consequent only the best survives (the query
//! asks for top-k *consequents*, not top-k rules); and a match whose
//! consequent merely *generalizes* another match's consequent (same
//! size, item-wise ancestor-or-equal) is dropped when the specialization
//! scores at least as high — the paper's interest measure applied to
//! answers: "⇒ outerwear" adds nothing over "⇒ hiking boots". The first
//! `top_k` survivors are the answer.
//!
//! How that is computed without touching rules that cannot match, and
//! without touching a [`Rule`] until an answer is built:
//!
//! * **Ranks.** [`Catalog::new`] keeps the store's rules in store order
//!   and sorts one 16-byte key per rule into the answer's total order
//!   (score desc, support desc, antecedent, consequent): the rule's
//!   score, its interned consequent id (equal exactly when two rules'
//!   consequents are) and its store position. A key's position in that
//!   order is the rule's *rank*; a [`Match`] is a rank, merging is
//!   ordering integers and reading keys, and no rule is ever copied.
//! * **Containment.** Each shard holds a [`RuleIndex`]: one prefix
//!   tree over its rules' antecedents, whose terminals are ranks and
//!   carry their rules' consequents as flat item runs. The walk marks
//!   the extended transaction and descends only into marked nodes, so
//!   it reaches exactly the rules whose antecedent is contained, and
//!   tests their consequents against the same marks.
//! * **Lazy filters.** The merge sorts the matched ranks and walks
//!   them one score-tie group at a time, deduplicating consequents by
//!   id and testing an entry only against entries that score at least
//!   as high, and stops at `top_k` survivors. A consequent's length and
//!   the hash of its distinct root set screen suppression pairs before
//!   the taxonomy is asked: covering never crosses a root, so a specialization has the
//!   same length and root set as what it specializes. Both filters sit
//!   at the merge, so the answer is identical for every shard count.
//!
//! Rules are sharded by the FxHash of their **antecedent's** sorted
//! distinct root-id key — the placement of the H-HPGM family applied
//! to the part of the rule a query has to satisfy. The root key is
//! invariant under item generalization, so a rule and all its ancestor
//! rules land on the same shard: the hierarchy locality the miner
//! exploits transfers to the serving tier unchanged. Placement by
//! antecedent roots is what makes **affinity routing** sound: a rule
//! matches a basket only when its antecedent is contained in the
//! basket's extended transaction, extension never adds a new root, so
//! every rule that can match a single-root basket has antecedent root
//! key `{root}` and lives on [`Catalog::route`]'s one shard. Fan-out
//! is needed only for multi-root baskets.

use crate::index::RuleIndex;
use crate::store::RuleStore;
use gar_mining::rules::Rule;
use gar_taxonomy::Taxonomy;
use gar_types::hash::{fx_hash_u32s, place};
use gar_types::{FxHashMap, ItemId, Itemset};
use std::cmp::Ordering;

/// One answer entry: a consequent worth recommending.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The recommended itemset.
    pub consequent: Itemset,
    /// Absolute support of the winning rule.
    pub support_count: u64,
    /// Confidence of the winning rule.
    pub confidence: f64,
    /// Ranking score: `confidence × support-fraction`.
    pub score: f64,
}

/// A matched rule (shard-local result): its rank in the catalog that
/// produced it, meaningful to that catalog's [`Catalog::merge`] only.
#[derive(Debug, Clone, Copy)]
pub struct Match(u32);

/// Fills `out` with the sorted distinct root ids of `items`. An item
/// outside the taxonomy stands for itself: it has no root, and no
/// taxonomy item can share its id.
fn root_key(items: &[ItemId], tax: &Taxonomy, out: &mut Vec<u32>) {
    out.clear();
    out.extend(items.iter().map(|&i| {
        if i.raw() < tax.num_items() {
            tax.root_of(i).raw()
        } else {
            i.raw()
        }
    }));
    out.sort_unstable();
    out.dedup();
}

/// The shard of an itemset: [`place`] of its sorted **distinct**
/// root-id key — H-HPGM's placement transplanted to serving. Rule
/// placement and basket routing both come here, and nothing else
/// decides a shard. Deduplication makes the key a set, so the
/// single-root key `{r}` of a basket lands where the antecedent of every
/// rule that basket can trigger does.
pub fn shard_of(items: &[ItemId], tax: &Taxonomy, num_shards: usize) -> usize {
    let mut roots = Vec::new();
    root_key(items, tax, &mut roots);
    place(fx_hash_u32s(roots.iter().copied()), num_shards)
}

/// Where a basket's shard work has to go, decided by
/// [`Catalog::route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// No known item: nothing can match, no shard needs to run.
    Empty,
    /// Every known item shares one root: only this shard can hold a
    /// matching rule (antecedent-root placement), so the query touches
    /// exactly one shard.
    Single(usize),
    /// The basket spans several roots: any shard may contribute.
    Broadcast,
}

fn score(rule: &Rule) -> f64 {
    rule.confidence * rule.support
}

/// The answer's order among rules of equal score: support desc, then
/// the rule key. The key is unique (stores are canonical), so ties
/// cannot reorder.
fn tie_order(a: &Rule, b: &Rule) -> Ordering {
    b.support_count
        .cmp(&a.support_count)
        .then_with(|| a.antecedent.cmp(&b.antecedent))
        .then_with(|| a.consequent.cmp(&b.consequent))
}

/// A rule as the merge sees it: everything but the answer's payload.
#[derive(Debug, Clone, Copy)]
struct RankKey {
    /// `score(rule)`.
    score: f64,
    /// The interned consequent.
    consequent: u32,
    /// The rule's position in the store.
    at: u32,
}

/// What suppression needs of a consequent before it asks the taxonomy:
/// its length and the FxHash of its distinct root set.
type Shape = (u32, u64);

/// A loaded, sharded, indexed rule set — the in-process query engine
/// the TCP server (and embedders) answer from.
#[derive(Debug)]
pub struct Catalog {
    taxonomy: Taxonomy,
    num_transactions: u64,
    /// Every rule, in store order.
    rules: Vec<Rule>,
    /// Per rank, the rule's key: the keys in answer order.
    ranks: Vec<RankKey>,
    /// Per interned consequent id, its [`Shape`].
    shapes: Vec<Shape>,
    /// Per shard, the prefix tree over its rules' antecedents (ids are
    /// ranks).
    shards: Vec<RuleIndex>,
}

impl Catalog {
    /// Ranks, shards and indexes `store` for serving. `num_shards` is
    /// clamped to at least 1.
    pub fn new(store: RuleStore, num_shards: usize) -> Catalog {
        let num_shards = num_shards.max(1);
        let RuleStore {
            taxonomy,
            num_transactions,
            rules,
        } = store;
        // One key per rule in store order: its score and its interned
        // consequent, each computed once.
        let mut interned: FxHashMap<&Itemset, u32> = FxHashMap::default();
        let mut shapes: Vec<Shape> = Vec::new();
        let mut roots: Vec<u32> = Vec::new();
        let mut ranks: Vec<RankKey> = (0u32..)
            .zip(&rules)
            .map(|(at, r)| {
                let fresh = shapes.len() as u32;
                let consequent = *interned.entry(&r.consequent).or_insert_with(|| {
                    root_key(r.consequent.items(), &taxonomy, &mut roots);
                    let hash = fx_hash_u32s(roots.iter().copied());
                    shapes.push((r.consequent.len() as u32, hash));
                    fresh
                });
                RankKey {
                    score: score(r),
                    consequent,
                    at,
                }
            })
            .collect();
        // Only a score tie opens the two rules.
        ranks.sort_unstable_by(|a, b| {
            let tie = || match (rules.get(a.at as usize), rules.get(b.at as usize)) {
                (Some(a), Some(b)) => tie_order(a, b),
                _ => Ordering::Equal,
            };
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then_with(tie)
        });
        let mut rank_of = vec![0u32; rules.len()];
        for (rank, key) in (0u32..).zip(&ranks) {
            if let Some(slot) = rank_of.get_mut(key.at as usize) {
                *slot = rank;
            }
        }
        // Placement walks the store in order, so each shard's entries
        // arrive in antecedent order and its tree builds without a sort.
        let mut placed: Vec<Vec<(u32, &Rule)>> = vec![Vec::new(); num_shards];
        for (rule, &rank) in rules.iter().zip(&rank_of) {
            // Placement by the *antecedent's* root key: the only part a
            // basket must contain for the rule to fire, so affinity
            // routing can prove single-root queries shard-local.
            root_key(rule.antecedent.items(), &taxonomy, &mut roots);
            let shard = place(fx_hash_u32s(roots.iter().copied()), num_shards);
            if let Some(shard) = placed.get_mut(shard) {
                shard.push((rank, rule));
            }
        }
        let shards = placed
            .into_iter()
            .map(|entries| RuleIndex::over(entries, &taxonomy))
            .collect();
        Catalog {
            taxonomy,
            num_transactions,
            rules,
            ranks,
            shapes,
            shards,
        }
    }

    /// The hierarchy queries are interpreted under.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total rules across shards.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Transactions behind the stored supports.
    pub fn num_transactions(&self) -> u64 {
        self.num_transactions
    }

    /// The extended transaction of a basket: items plus all ancestors,
    /// sorted and deduplicated. Items outside the taxonomy are dropped
    /// (a live query may mention products the store predates).
    pub fn extend_basket(&self, basket: &[ItemId]) -> Vec<ItemId> {
        let known: Vec<ItemId> = basket
            .iter()
            .copied()
            .filter(|it| it.raw() < self.taxonomy.num_items())
            .collect();
        self.taxonomy.extend_transaction(&known)
    }

    /// Decides which shards a basket has to visit. Extension only adds
    /// *ancestors*, which never change an item's root, so the root set
    /// of the extended transaction equals the root set of the known raw
    /// items — a rule can match only if its antecedent's root set is a
    /// subset of that set. With rules placed by their antecedent root
    /// key, a single-root basket's answer therefore lives entirely on
    /// `shard_of({root})`; only multi-root baskets need fan-out.
    pub fn route(&self, basket: &[ItemId]) -> Route {
        let mut root: Option<u32> = None;
        for &it in basket {
            if it.raw() >= self.taxonomy.num_items() {
                continue; // unknown item: dropped by extend_basket too
            }
            let r = self.taxonomy.root_of(it).raw();
            match root {
                None => root = Some(r),
                Some(seen) if seen == r => {}
                Some(_) => return Route::Broadcast,
            }
        }
        match root {
            None => Route::Empty,
            Some(r) => Route::Single(place(fx_hash_u32s([r]), self.shards.len())),
        }
    }

    /// The matches of one shard for a query, plus the number of index
    /// nodes the basket made it walk. `extended` must be
    /// [`Catalog::extend_basket`]'s output. An unknown shard matches
    /// nothing.
    pub fn scan_shard(&self, shard: usize, extended: &[ItemId]) -> (Vec<Match>, usize) {
        let mut out = Vec::new();
        let Some(index) = self.shards.get(shard) else {
            return (out, 0);
        };
        let walked = index.for_each_match(extended, |rank| out.push(Match(rank)));
        (out, walked)
    }

    /// [`Catalog::scan_shard`] without the walk count. The raw basket
    /// is not consulted: the index is driven by `extended` alone.
    pub fn shard_matches(
        &self,
        shard: usize,
        _basket: &[ItemId],
        extended: &[ItemId],
    ) -> Vec<Match> {
        self.scan_shard(shard, extended).0
    }

    /// Merges shard-local matches into the final top-k answer:
    /// deterministic total order, consequent dedup, ancestor
    /// suppression, truncation — in that order, so the result does not
    /// depend on shard count or arrival order. Matches this catalog did
    /// not produce are ignored.
    pub fn merge(&self, matches: Vec<Match>, top_k: usize) -> Vec<Recommendation> {
        let mut ranks: Vec<u32> = matches.into_iter().map(|m| m.0).collect();
        // Rank order *is* the total order.
        ranks.sort_unstable();
        let mut entries = ranks
            .iter()
            .filter_map(|&r| self.ranks.get(r as usize))
            .peekable();
        // `best` is the deduplicated prefix (the first, i.e. best, key
        // per consequent); `judged` of its entries have been through
        // suppression.
        let mut best: Vec<RankKey> = Vec::new();
        let mut judged = 0;
        let mut out = Vec::new();
        while out.len() < top_k {
            // Admit one whole score-tie group: after it, `best` holds
            // every entry scoring at least as high as the group — all
            // that may suppress one of its members.
            let mut group = entries.next();
            if group.is_none() {
                break;
            }
            while let Some(&key) = group {
                if !best.iter().any(|b| b.consequent == key.consequent) {
                    best.push(key);
                }
                group = entries.next_if(|next| next.score == key.score);
            }
            // Ancestor suppression: drop a match whose consequent is a
            // generalization of a better-or-equal match's consequent.
            for gen in best.iter().skip(judged) {
                if out.len() == top_k {
                    break;
                }
                if best.iter().any(|spec| self.suppresses(spec, gen)) {
                    continue;
                }
                if let Some(rule) = self.rules.get(gen.at as usize) {
                    out.push(Recommendation {
                        consequent: rule.consequent.clone(),
                        support_count: rule.support_count,
                        confidence: rule.confidence,
                        score: gen.score,
                    });
                }
            }
            judged = best.len();
        }
        out
    }

    /// True when `spec`'s consequent is a proper specialization of
    /// `gen`'s. Distinct ids and equal shapes are necessary, so only a
    /// pair that passes both opens the two rules.
    fn suppresses(&self, spec: &RankKey, gen: &RankKey) -> bool {
        let shape = |key: &RankKey| self.shapes.get(key.consequent as usize);
        spec.consequent != gen.consequent
            && shape(spec) == shape(gen)
            && match (
                self.rules.get(spec.at as usize),
                self.rules.get(gen.at as usize),
            ) {
                (Some(s), Some(g)) => self.specializes(&s.consequent, &g.consequent),
                _ => false,
            }
    }

    /// True when `spec` is a proper item-wise specialization of `gen`:
    /// same size, different sets, every `gen` item covered by an
    /// equal-or-descendant `spec` item and vice versa.
    fn specializes(&self, spec: &Itemset, gen: &Itemset) -> bool {
        if spec.len() != gen.len() || spec == gen {
            return false;
        }
        let covers = |g: ItemId, s: ItemId| g == s || self.taxonomy.is_ancestor(g, s);
        gen.items()
            .iter()
            .all(|&g| spec.items().iter().any(|&s| covers(g, s)))
            && spec
                .items()
                .iter()
                .all(|&s| gen.items().iter().any(|&g| covers(g, s)))
    }

    /// The full in-process query path: extend, match every shard,
    /// merge. This is what the TCP server parallelizes over its worker
    /// pool; answers are identical by construction.
    pub fn query(&self, basket: &[ItemId], top_k: usize) -> Vec<Recommendation> {
        let extended = self.extend_basket(basket);
        let mut all = Vec::new();
        for s in 0..self.shards.len() {
            all.extend(self.scan_shard(s, &extended).0);
        }
        self.merge(all, top_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{rule, sa95_taxonomy};
    use gar_types::iset;

    fn catalog(rules: Vec<Rule>, num_shards: usize) -> Catalog {
        Catalog::new(RuleStore::new(rules, sa95_taxonomy(), 6), num_shards)
    }

    /// The scan and merge as they were before consequents rode the
    /// index and the merge read keys: one rank-ordered rule table, a
    /// `is_contained_in` test per reached rule, a full sort of the
    /// matches and a suppression test on every pair.
    struct Reference<'a> {
        catalog: &'a Catalog,
        /// Every rule, in answer order: a rule's rank is its position.
        ranked: Vec<&'a Rule>,
        /// Per rank: the score and the interned consequent id.
        keys: Vec<(f64, u32)>,
    }

    impl<'a> Reference<'a> {
        fn new(catalog: &'a Catalog) -> Reference<'a> {
            let mut ranked: Vec<&Rule> = catalog.rules.iter().collect();
            ranked.sort_unstable_by(|a, b| {
                score(b)
                    .partial_cmp(&score(a))
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| tie_order(a, b))
            });
            let mut interned: FxHashMap<&Itemset, u32> = FxHashMap::default();
            let keys = ranked
                .iter()
                .map(|r| {
                    let fresh = interned.len() as u32;
                    (score(r), *interned.entry(&r.consequent).or_insert(fresh))
                })
                .collect();
            Reference {
                catalog,
                ranked,
                keys,
            }
        }

        fn scan_shard(&self, shard: usize, extended: &[ItemId]) -> Vec<u32> {
            let mut out = Vec::new();
            self.catalog.shards[shard].for_each_contained(extended, |rank| {
                if !self.ranked[rank as usize]
                    .consequent
                    .is_contained_in(extended)
                {
                    out.push(rank);
                }
            });
            out
        }

        fn merge(&self, mut ranks: Vec<u32>, top_k: usize) -> Vec<Recommendation> {
            ranks.sort_unstable();
            let mut entries = ranks
                .iter()
                .map(|&r| (r as usize, self.keys[r as usize].0, self.keys[r as usize].1))
                .peekable();
            let mut best: Vec<(&Rule, f64)> = Vec::new();
            let mut seen: Vec<u32> = Vec::new();
            let mut judged = 0;
            let mut out = Vec::new();
            while out.len() < top_k {
                let mut group = entries.next();
                if group.is_none() {
                    break;
                }
                while let Some((rank, score, id)) = group {
                    if !seen.contains(&id) {
                        seen.push(id);
                        best.push((self.ranked[rank], score));
                    }
                    group = entries.next_if(|next| next.1 == score);
                }
                for &(gen, score) in best.iter().skip(judged) {
                    if out.len() == top_k {
                        break;
                    }
                    let suppressed = best.iter().any(|(spec, _)| {
                        self.catalog.specializes(&spec.consequent, &gen.consequent)
                    });
                    if !suppressed {
                        out.push(Recommendation {
                            consequent: gen.consequent.clone(),
                            support_count: gen.support_count,
                            confidence: gen.confidence,
                            score,
                        });
                    }
                }
                judged = best.len();
            }
            out
        }
    }

    #[test]
    fn keys_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<RankKey>(), 16);
    }

    proptest::proptest! {
        #[test]
        fn scan_and_merge_answer_like_the_reference(
            forest in (6u32..30, 0u64..10_000),
            drawn in proptest::collection::vec(
                (proptest::collection::vec(0u32..40, 1..4), 0u32..3,
                 proptest::collection::vec(0u32..40, 1..3), 0u32..3, 1u64..5, 0usize..4), 1..240),
            baskets in proptest::collection::vec(proptest::collection::vec(0u32..34, 0..14), 1..12),
        ) {
            let (n, seed) = forest;
            // A random forest: each item past the first few hangs under
            // a random earlier item three times out of four.
            let mut state = seed;
            let mut next = move |bound: u32| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) % u64::from(bound)) as u32
            };
            let mut b = gar_taxonomy::TaxonomyBuilder::new(n);
            for child in 3..n {
                if next(4) != 0 {
                    b.edge(child, next(child)).unwrap();
                }
            }
            let tax = b.build().unwrap();
            let item = |x: u32| ItemId(x % n);
            let parents = |items: &[ItemId]| -> Vec<ItemId> {
                items.iter().filter_map(|&it| tax.parent(it)).collect()
            };
            // Few (support, confidence) pairs, so scores tie; items
            // beside their own parents; consequents that overlap the
            // antecedent or generalize one another.
            let rules: Vec<Rule> = drawn
                .into_iter()
                .map(|(a, a_kind, c, c_kind, support, confidence)| {
                    let mut a: Vec<ItemId> = a.into_iter().map(item).collect();
                    if a_kind == 0 {
                        a.extend(parents(&a));
                    }
                    let mut c: Vec<ItemId> = c.into_iter().map(item).collect();
                    match c_kind {
                        0 => c = parents(&c).into_iter().chain(c.iter().skip(1).copied()).collect(),
                        1 => c.extend(a.first()),
                        _ => {}
                    }
                    if c.is_empty() {
                        c.push(item(0));
                    }
                    Rule {
                        antecedent: Itemset::from_unsorted(a),
                        consequent: Itemset::from_unsorted(c),
                        support_count: support * 5,
                        support: 0.0,
                        confidence: [0.25, 0.5, 0.5, 1.0][confidence],
                    }
                })
                .collect();
            let store = RuleStore::new(rules, tax, 50);
            for shards in [1usize, 2, 3] {
                let cat = Catalog::new(store.clone(), shards);
                let reference = Reference::new(&cat);
                for raw in &baskets {
                    let basket: Vec<ItemId> = raw.iter().map(|&x| ItemId(x)).collect();
                    let extended = cat.extend_basket(&basket);
                    let mut all = Vec::new();
                    let mut expected = Vec::new();
                    for shard in 0..shards {
                        let mut got: Vec<u32> =
                            cat.scan_shard(shard, &extended).0.iter().map(|m| m.0).collect();
                        let mut want = reference.scan_shard(shard, &extended);
                        got.sort_unstable();
                        want.sort_unstable();
                        proptest::prop_assert_eq!(&got, &want);
                        all.extend(got.into_iter().map(Match));
                        expected.extend(want);
                    }
                    for top_k in [0, 1, 3, 10, 1000] {
                        proptest::prop_assert_eq!(
                            cat.merge(all.clone(), top_k),
                            reference.merge(expected.clone(), top_k)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ancestor_match_through_extension() {
        // [SA95]: "outerwear ⇒ hiking boots". A basket holding only
        // jackets(3) must trigger it via the ancestor outerwear(1).
        let cat = catalog(vec![rule(iset![1], iset![7], 2, 2.0 / 3.0)], 1);
        let recs = cat.query(&[ItemId(3)], 5);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].consequent, iset![7]);
        assert_eq!(recs[0].support_count, 2);
    }

    #[test]
    fn satisfied_consequent_is_not_recommended() {
        let cat = catalog(vec![rule(iset![1], iset![7], 2, 2.0 / 3.0)], 1);
        // The basket already holds boots(7): nothing to recommend.
        assert!(cat.query(&[ItemId(3), ItemId(7)], 5).is_empty());
        // Even holding the *ancestor* footwear(5) satisfies {7}? No —
        // extension only adds ancestors, so a held ancestor does not
        // imply the descendant. The rule still fires.
        assert_eq!(cat.query(&[ItemId(3), ItemId(5)], 5).len(), 1);
    }

    #[test]
    fn generalization_is_suppressed_when_specialization_scores_higher() {
        // Same antecedent, consequents boots(7) and its ancestor
        // footwear(5); the specific rule scores >= the general one, so
        // only "⇒ boots" survives.
        let cat = catalog(
            vec![
                rule(iset![1], iset![7], 2, 2.0 / 3.0),
                rule(iset![1], iset![5], 2, 2.0 / 3.0),
            ],
            1,
        );
        let recs = cat.query(&[ItemId(3)], 5);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].consequent, iset![7]);
    }

    #[test]
    fn generalization_survives_when_it_scores_strictly_higher() {
        // "⇒ footwear" with higher support than "⇒ boots": the general
        // rule carries real extra information, keep both.
        let cat = catalog(
            vec![
                rule(iset![1], iset![7], 2, 2.0 / 3.0),
                rule(iset![1], iset![5], 3, 1.0),
            ],
            1,
        );
        let recs = cat.query(&[ItemId(3)], 5);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].consequent, iset![5]);
        assert_eq!(recs[1].consequent, iset![7]);
    }

    #[test]
    fn consequents_sharing_an_item_outside_the_taxonomy_merge() {
        // Item 8 is past the 8-item [SA95] forest; it stands for itself.
        // At equal score {3,8} specializes {1,8}: jackets(3) sit under
        // outerwear(1), and 8 covers 8.
        for shards in [1, 2] {
            let cat = catalog(
                vec![
                    rule(iset![4], iset![1, 8], 2, 0.5),
                    rule(iset![4], iset![3, 8], 2, 0.5),
                ],
                shards,
            );
            let recs = cat.query(&[ItemId(4)], 5);
            let got: Vec<&Itemset> = recs.iter().map(|r| &r.consequent).collect();
            assert_eq!(got, [&iset![3, 8]], "shards={shards}");
        }
    }

    #[test]
    fn consequents_are_deduplicated_keeping_the_best_rule() {
        let cat = catalog(
            vec![
                rule(iset![1], iset![7], 2, 2.0 / 3.0),
                rule(iset![4], iset![7], 3, 1.0),
            ],
            1,
        );
        let recs = cat.query(&[ItemId(3), ItemId(4)], 5);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].confidence, 1.0);
        assert_eq!(recs[0].support_count, 3);
    }

    #[test]
    fn top_k_truncates_after_suppression() {
        let cat = catalog(
            vec![
                rule(iset![1], iset![6], 1, 0.4),
                rule(iset![1], iset![7], 2, 2.0 / 3.0),
                rule(iset![3], iset![2], 3, 0.9),
            ],
            1,
        );
        let recs = cat.query(&[ItemId(3)], 2);
        assert_eq!(recs.len(), 2);
        // Best two by score: {2} (0.9*0.5) then {7} (0.667*0.333).
        assert_eq!(recs[0].consequent, iset![2]);
        assert_eq!(recs[1].consequent, iset![7]);
    }

    #[test]
    fn answers_identical_across_shard_counts() {
        let rules = vec![
            rule(iset![1], iset![7], 2, 2.0 / 3.0),
            rule(iset![3], iset![2], 3, 0.9),
            rule(iset![7], iset![1], 2, 1.0),
            rule(iset![2], iset![6], 1, 0.4),
            rule(iset![4], iset![7], 1, 0.5),
        ];
        let baskets: Vec<Vec<ItemId>> = vec![
            vec![ItemId(3)],
            vec![ItemId(7)],
            vec![ItemId(2), ItemId(4)],
            vec![ItemId(3), ItemId(6)],
        ];
        let reference = catalog(rules.clone(), 1);
        for shards in [2, 3, 4, 7] {
            let cat = catalog(rules.clone(), shards);
            assert_eq!(cat.num_rules(), 5);
            for basket in &baskets {
                assert_eq!(
                    cat.query(basket, 10),
                    reference.query(basket, 10),
                    "shards={shards} basket={basket:?}"
                );
            }
        }
    }

    #[test]
    fn route_classifies_baskets_by_distinct_roots() {
        let cat = catalog(vec![rule(iset![1], iset![7], 2, 2.0 / 3.0)], 4);
        // jackets(3) + ski pants(4) + clothes(0): one root → Single.
        match cat.route(&[ItemId(3), ItemId(4), ItemId(0)]) {
            Route::Single(s) => assert!(s < 4),
            other => panic!("expected Single, got {other:?}"),
        }
        // A single-root basket routes to the shard of its root key —
        // where every rule with that antecedent root lives.
        let tax = sa95_taxonomy();
        assert_eq!(
            cat.route(&[ItemId(3)]),
            Route::Single(shard_of(&[ItemId(0)], &tax, 4))
        );
        // clothes(0) + boots(7): two roots → Broadcast.
        assert_eq!(cat.route(&[ItemId(0), ItemId(7)]), Route::Broadcast);
        // Unknown items are ignored; all-unknown means no shard at all.
        assert_eq!(cat.route(&[ItemId(900)]), Route::Empty);
        assert_eq!(cat.route(&[]), Route::Empty);
        match cat.route(&[ItemId(900), ItemId(6)]) {
            Route::Single(_) => {}
            other => panic!("expected Single, got {other:?}"),
        }
    }

    #[test]
    fn single_root_routing_agrees_with_full_fanout() {
        // Every rule a single-root basket can match must live on the
        // routed shard: scoring only that shard must equal fanning out
        // to all of them. Exercised over rules with cross-root
        // consequents and multi-root antecedents — the ones affinity
        // placement must keep out of the way.
        let rules = vec![
            rule(iset![1], iset![7], 2, 2.0 / 3.0), // clothes → footwear
            rule(iset![3], iset![2], 3, 0.9),       // clothes → clothes
            rule(iset![7], iset![1], 2, 1.0),       // footwear → clothes
            rule(iset![2], iset![6], 1, 0.4),
            rule(iset![4], iset![7], 1, 0.5),
            rule(iset![2, 6], iset![7], 1, 0.7), // multi-root antecedent
        ];
        for shards in [1usize, 2, 4] {
            let cat = catalog(rules.clone(), shards);
            for basket in [
                vec![ItemId(3)],
                vec![ItemId(7)],
                vec![ItemId(2), ItemId(3)],
                vec![ItemId(6), ItemId(7)],
            ] {
                let Route::Single(s) = cat.route(&basket) else {
                    panic!("single-root basket {basket:?} not routed Single");
                };
                let extended = cat.extend_basket(&basket);
                let routed = cat.merge(cat.shard_matches(s, &basket, &extended), 10);
                let mut all = Vec::new();
                for shard in 0..cat.num_shards() {
                    all.extend(cat.shard_matches(shard, &basket, &extended));
                }
                let fanout = cat.merge(all, 10);
                assert_eq!(routed, fanout, "shards={shards} basket={basket:?}");
            }
        }
    }

    #[test]
    fn sharding_is_root_hash_invariant_under_generalization() {
        let tax = sa95_taxonomy();
        for n in [1usize, 2, 4, 8] {
            // jackets(3) and its ancestor outerwear(1) share root
            // clothes(0): same shard, every shard count.
            assert_eq!(
                shard_of(&[ItemId(3)], &tax, n),
                shard_of(&[ItemId(1)], &tax, n)
            );
            assert_eq!(
                shard_of(&[ItemId(3), ItemId(7)], &tax, n),
                shard_of(&[ItemId(1), ItemId(5)], &tax, n)
            );
        }
    }

    #[test]
    fn unknown_basket_items_are_ignored() {
        let cat = catalog(vec![rule(iset![1], iset![7], 2, 2.0 / 3.0)], 2);
        assert_eq!(cat.query(&[ItemId(3), ItemId(500)], 5).len(), 1);
        assert!(cat.query(&[ItemId(500)], 5).is_empty());
    }
}
