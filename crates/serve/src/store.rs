//! The persisted rule store — `GRUL` codec.
//!
//! Format (little-endian): magic `GRUL`, `u32` version, the taxonomy as
//! the parent array of `gar_taxonomy::io` (the same codec as the `GTAX`
//! file, so `serve` needs no side-channel taxonomy), `u64` transaction
//! count, `u32` rule count, then per rule the antecedent and consequent
//! as length-prefixed `u32` item lists, the `u64` support count and the
//! `f64` confidence bit pattern. Sealed and written through
//! `gar_types::bytes` like every other persisted format, so a crash
//! mid-write never leaves a torn store.
//!
//! Rules are stored in the canonical `(antecedent, consequent)` order of
//! [`gar_mining::rules::canonicalize_rules`] and the decoder *enforces*
//! strict ascent, so a given rule set has exactly one on-disk byte
//! representation — same-seed stores are byte-identical no matter how
//! many nodes mined them. The encoder checks every rule against the same
//! invariants, so a store that saves is a store that loads. Key order is
//! the only order publish sorts into: [`gar_mining::rules::derive_rules`]
//! emits it, so [`RuleStore::new`] checks it in one pass, and the serving
//! catalog ranks by store position where the answer's order compares
//! keys. Presentation order (by confidence) is only a view for printing
//! ([`gar_mining::rules::top_rules`]).

use gar_mining::rules::{canonicalize_rules, Rule};
use gar_taxonomy::io::{decode_parents, encode_parents};
use gar_taxonomy::Taxonomy;
use gar_types::bytes::{self, seal, unseal, write_atomic, Cursor};
use gar_types::{Error, ItemId, Itemset, Result};
use std::path::Path;

const MAGIC: &[u8; 4] = b"GRUL";
const VERSION: u32 = 1;
const WHAT: &str = "rule store";

/// Guards against implausible lengths (so a corrupt length field fails
/// cleanly instead of attempting a huge allocation).
const MAX_RULES: usize = 1 << 26;
pub(crate) const MAX_ITEMSET_LEN: usize = 1 << 16;

/// A mined rule set bound to the taxonomy it was mined under, ready to
/// be served.
#[derive(Debug, Clone)]
pub struct RuleStore {
    /// The classification hierarchy the rules (and queries) live in.
    pub taxonomy: Taxonomy,
    /// Database size behind the supports (for re-deriving fractions).
    pub num_transactions: u64,
    /// Rules in canonical `(antecedent, consequent)` order, deduplicated.
    pub rules: Vec<Rule>,
}

impl RuleStore {
    /// Builds a store, canonicalizing (sorting + deduplicating) `rules`;
    /// on [`gar_mining::rules::derive_rules`] output, already canonical,
    /// that is one linear check. Support fractions are re-derived from
    /// `support_count` over `num_transactions` — the codec persists only
    /// the count, so this keeps the in-memory store identical to its
    /// reloaded image.
    pub fn new(mut rules: Vec<Rule>, taxonomy: Taxonomy, num_transactions: u64) -> RuleStore {
        canonicalize_rules(&mut rules);
        for r in &mut rules {
            r.support = r.support_count as f64 / num_transactions.max(1) as f64;
        }
        RuleStore {
            taxonomy,
            num_transactions,
            rules,
        }
    }

    /// Writes the store to `path` atomically (temp file + rename). A
    /// store [`RuleStore::load`] would refuse — possible once `rules` is
    /// edited after [`RuleStore::new`] — is an [`Error::InvalidConfig`],
    /// and nothing is written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        write_atomic(path.as_ref(), &encode(self)?, false)
    }

    /// Reads and validates the store at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<RuleStore> {
        decode(&bytes::read(path.as_ref(), WHAT)?)
    }

    /// The sorted, distinct items mentioned by any rule antecedent —
    /// the natural query universe for load generation.
    pub fn antecedent_items(&self) -> Vec<ItemId> {
        let mut out: Vec<ItemId> = self
            .rules
            .iter()
            .flat_map(|r| r.antecedent.items().iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

fn push_itemset(out: &mut Vec<u8>, set: &Itemset) {
    out.extend_from_slice(&(set.len() as u32).to_le_bytes());
    for &it in set.items() {
        out.extend_from_slice(&it.raw().to_le_bytes());
    }
}

/// The invariants of one stored rule: both itemsets non-empty, at most
/// [`MAX_ITEMSET_LEN`] items, strictly ascending and inside the
/// taxonomy; support within the database; confidence in `[0, 1]`; and
/// the key `(antecedent, consequent)` strictly after `prev`'s, so the
/// rules are in canonical order. One pass over the items, shared by
/// [`encode`] and [`decode`]: `save` never writes what `load` refuses.
fn check_rule(
    (antecedent, consequent): (&[ItemId], &[ItemId]),
    support_count: u64,
    confidence: f64,
    prev: Option<(&[ItemId], &[ItemId])>,
    num_items: u32,
    num_transactions: u64,
) -> std::result::Result<(), String> {
    for (what, items) in [("antecedent", antecedent), ("consequent", consequent)] {
        if items.is_empty() || items.len() > MAX_ITEMSET_LEN {
            return Err(format!("implausible {what} length {}", items.len()));
        }
        if let Some(it) = items.iter().find(|it| it.raw() >= num_items) {
            return Err(format!(
                "{what} item {} outside the taxonomy (< {num_items})",
                it.raw()
            ));
        }
        if !items.is_sorted_by(|a, b| a < b) {
            return Err(format!("{what} items are not ascending"));
        }
    }
    if support_count > num_transactions {
        return Err(format!(
            "rule support {support_count} exceeds the {num_transactions}-transaction database"
        ));
    }
    if !confidence.is_finite() || !(0.0..=1.0).contains(&confidence) {
        return Err(format!("rule confidence {confidence} outside [0, 1]"));
    }
    if prev.is_some_and(|prev| prev >= (antecedent, consequent)) {
        return Err("rules are not in canonical (antecedent, consequent) order".into());
    }
    Ok(())
}

/// Serializes a store (checksum included), checking every rule on the
/// way: a store that breaks an invariant is an
/// [`Error::InvalidConfig`].
pub(crate) fn encode(store: &RuleStore) -> Result<Vec<u8>> {
    let invalid = |msg: String| Error::InvalidConfig(format!("{WHAT}: {msg}"));
    if store.rules.len() > MAX_RULES {
        return Err(invalid(format!(
            "{} rules exceed {MAX_RULES}",
            store.rules.len()
        )));
    }
    let num_items = store.taxonomy.num_items();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    encode_parents(&store.taxonomy, &mut out);
    out.extend_from_slice(&store.num_transactions.to_le_bytes());
    out.extend_from_slice(&(store.rules.len() as u32).to_le_bytes());
    let mut prev = None;
    for rule in &store.rules {
        let key = (rule.antecedent.items(), rule.consequent.items());
        check_rule(
            key,
            rule.support_count,
            rule.confidence,
            prev,
            num_items,
            store.num_transactions,
        )
        .map_err(invalid)?;
        prev = Some(key);
        push_itemset(&mut out, &rule.antecedent);
        push_itemset(&mut out, &rule.consequent);
        out.extend_from_slice(&rule.support_count.to_le_bytes());
        out.extend_from_slice(&rule.confidence.to_bits().to_le_bytes());
    }
    Ok(seal(out))
}

/// A length-prefixed item list. The cursor checks the bytes are there
/// before anything is allocated; [`check_rule`] judges the items.
fn read_items(c: &mut Cursor<'_>) -> Result<Vec<ItemId>> {
    let len = c.u32()? as usize;
    Ok(c.u32s(len)?.map(ItemId).collect())
}

/// Decodes a store, verifying the checksum and every structural
/// invariant (including canonical rule order). All damage surfaces as
/// [`Error::Corrupt`].
pub(crate) fn decode(bytes: &[u8]) -> Result<RuleStore> {
    let mut c = Cursor::new(unseal(bytes, WHAT)?, WHAT, Error::Corrupt);
    c.header(MAGIC, VERSION)?;
    // Re-validates the forest invariants: a corrupt file must not smuggle
    // a cycle past the ancestor-path machinery.
    let taxonomy = decode_parents(&mut c)?;
    let num_items = taxonomy.num_items();

    let num_transactions = c.u64()?;
    let num_rules = c.u32()? as usize;
    if num_rules > MAX_RULES {
        return Err(Error::Corrupt("implausible rule count".into()));
    }
    let n = num_transactions.max(1) as f64;
    let mut rules: Vec<Rule> = Vec::with_capacity(num_rules.min(1 << 16));
    for _ in 0..num_rules {
        let antecedent = read_items(&mut c)?;
        let consequent = read_items(&mut c)?;
        let support_count = c.u64()?;
        let confidence = f64::from_bits(c.u64()?);
        check_rule(
            (&antecedent, &consequent),
            support_count,
            confidence,
            rules
                .last()
                .map(|r| (r.antecedent.items(), r.consequent.items())),
            num_items,
            num_transactions,
        )
        .map_err(Error::Corrupt)?;
        rules.push(Rule {
            antecedent: Itemset::from_sorted(antecedent),
            consequent: Itemset::from_sorted(consequent),
            support_count,
            support: support_count as f64 / n,
            confidence,
        });
    }
    c.finish()?;
    Ok(RuleStore {
        taxonomy,
        num_transactions,
        rules,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{rule, sa95_taxonomy};
    use gar_mining::rules::presentation_order;
    use gar_types::iset;

    fn sample() -> RuleStore {
        RuleStore::new(
            vec![
                rule(iset![1], iset![7], 2, 2.0 / 3.0),
                rule(iset![7], iset![1], 2, 1.0),
                rule(iset![3], iset![7], 1, 0.5),
            ],
            sa95_taxonomy(),
            6,
        )
    }

    #[test]
    fn round_trip() {
        let store = sample();
        let back = decode(&encode(&store).unwrap()).unwrap();
        assert_eq!(back.rules, store.rules);
        assert_eq!(back.num_transactions, 6);
        assert_eq!(back.taxonomy.num_items(), 8);
        for i in 0..8 {
            assert_eq!(
                back.taxonomy.parent(ItemId(i)),
                store.taxonomy.parent(ItemId(i))
            );
        }
    }

    #[test]
    fn new_canonicalizes_and_dedups() {
        let store = RuleStore::new(
            vec![
                rule(iset![7], iset![1], 2, 1.0),
                rule(iset![1], iset![7], 2, 2.0 / 3.0),
                rule(iset![7], iset![1], 2, 1.0),
            ],
            sa95_taxonomy(),
            6,
        );
        let keys: Vec<_> = store
            .rules
            .iter()
            .map(|r| (r.antecedent.clone(), r.consequent.clone()))
            .collect();
        assert_eq!(keys, vec![(iset![1], iset![7]), (iset![7], iset![1])]);
    }

    #[test]
    fn encoding_is_identical_regardless_of_input_order() {
        let a = sample();
        let b = RuleStore::new(
            {
                let mut r = a.rules.clone();
                r.reverse();
                r
            },
            sa95_taxonomy(),
            6,
        );
        assert_eq!(encode(&a).unwrap(), encode(&b).unwrap());
    }

    proptest::proptest! {
        #[test]
        fn store_bytes_do_not_depend_on_input_order(
            drawn in proptest::collection::vec(
                (proptest::collection::btree_set(0u32..8, 1..3),
                 proptest::collection::btree_set(0u32..8, 1..3), 1u64..7, 0usize..4), 1..60),
            weights in proptest::collection::vec(0u64..1_000, 90..91),
        ) {
            let itemset = |s: &std::collections::BTreeSet<u32>| -> Itemset {
                s.iter().map(|&x| ItemId(x)).collect()
            };
            let mut all: Vec<Rule> = drawn
                .iter()
                .map(|(a, c, sup, conf)| {
                    rule(itemset(a), itemset(c), *sup, [0.25, 0.5, 0.75, 1.0][*conf])
                })
                .collect();
            // Conflicting duplicates: the same key with other measures.
            let twins: Vec<Rule> = all
                .iter()
                .step_by(3)
                .map(|r| {
                    rule(r.antecedent.clone(), r.consequent.clone(), r.support_count % 6 + 1,
                         1.0 - r.confidence)
                })
                .collect();
            all.extend(twins);
            // What derivation hands over: canonical, so `new` only checks it.
            let mut canonical = all.clone();
            canonicalize_rules(&mut canonical);
            let mut by_key = all.clone();
            by_key.sort_by(|a, b| a.key().cmp(&b.key()));
            let mut presented = all.clone();
            presented.sort_by(presentation_order);
            let mut reversed = by_key.clone();
            reversed.reverse();
            let mut shuffled: Vec<(u64, Rule)> = weights.iter().copied().zip(all.clone()).collect();
            shuffled.sort_by_key(|(w, _)| *w);
            let shuffled: Vec<Rule> = shuffled.into_iter().map(|(_, r)| r).collect();
            let bytes = |rules: Vec<Rule>| encode(&RuleStore::new(rules, sa95_taxonomy(), 6)).unwrap();
            let want = bytes(canonical);
            for (name, rules) in [
                ("key order", by_key),
                ("presentation order", presented),
                ("reversed", reversed),
                ("shuffled", shuffled),
            ] {
                proptest::prop_assert!(bytes(rules) == want, "{} encodes differently", name);
            }
        }
    }

    #[test]
    fn every_truncation_is_a_clean_corrupt_error() {
        let bytes = encode(&sample()).unwrap();
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, Error::Corrupt(_)),
                "truncation at {len}: {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode(&sample()).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            let err = decode(&bad).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "flip at {i}: {err:?}");
        }
    }

    #[test]
    fn non_canonical_order_rejected() {
        // Hand-build a payload with descending rules: the decoder must
        // refuse it even though the checksum verifies.
        let mut store = sample();
        store.rules.reverse();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        encode_parents(&store.taxonomy, &mut out);
        out.extend_from_slice(&store.num_transactions.to_le_bytes());
        out.extend_from_slice(&(store.rules.len() as u32).to_le_bytes());
        for rule in &store.rules {
            push_itemset(&mut out, &rule.antecedent);
            push_itemset(&mut out, &rule.consequent);
            out.extend_from_slice(&rule.support_count.to_le_bytes());
            out.extend_from_slice(&rule.confidence.to_bits().to_le_bytes());
        }
        let err = decode(&seal(out)).unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("canonical")),
            "{err:?}"
        );
    }

    #[test]
    fn embedded_taxonomy_cycle_rejected() {
        // 0 -> 1 -> 0 would loop the ancestor walk; the decoder must
        // re-validate instead of trusting the file.
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&2u32.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes()); // parent(0) = 1
        out.extend_from_slice(&0u32.to_le_bytes()); // parent(1) = 0
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        let err = decode(&seal(out)).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn save_load_via_tmp_rename() {
        let dir = std::env::temp_dir().join(format!("gar-grul-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rules.grul");
        let store = sample();
        store.save(&path).unwrap();
        assert!(!path.with_extension("grul.tmp").exists());
        let back = RuleStore::load(&path).unwrap();
        assert_eq!(back.rules, store.rules);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Saves `store` and returns the error, checking nothing was written.
    fn refused(store: &RuleStore, name: &str) -> String {
        let path = std::env::temp_dir().join(format!("gar-grul-{}-{name}", std::process::id()));
        let err = store.save(&path).unwrap_err();
        assert!(!path.exists(), "{name}: a refused store was written");
        match err {
            Error::InvalidConfig(msg) => msg,
            other => panic!("{name}: expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn save_refuses_an_empty_antecedent() {
        let mut store = sample();
        store
            .rules
            .insert(0, rule(Itemset::from_sorted(Vec::new()), iset![7], 1, 0.5));
        let msg = refused(&store, "empty");
        assert!(msg.contains("implausible antecedent length 0"), "{msg}");
    }

    #[test]
    fn save_refuses_a_consequent_item_past_the_taxonomy() {
        let store = RuleStore::new(vec![rule(iset![1], iset![8], 2, 0.5)], sa95_taxonomy(), 6);
        let msg = refused(&store, "range");
        assert!(
            msg.contains("consequent item 8 outside the taxonomy"),
            "{msg}"
        );
    }

    #[test]
    fn save_refuses_support_above_the_database() {
        let store = RuleStore::new(vec![rule(iset![1], iset![7], 7, 0.5)], sa95_taxonomy(), 6);
        let msg = refused(&store, "support");
        assert!(msg.contains("support 7 exceeds the 6-transaction"), "{msg}");
    }

    #[test]
    fn save_refuses_rules_reordered_after_new() {
        let mut store = sample();
        store.rules.reverse();
        let msg = refused(&store, "order");
        assert!(msg.contains("canonical"), "{msg}");
    }

    #[test]
    fn antecedent_items_are_sorted_distinct() {
        let store = sample();
        assert_eq!(
            store.antecedent_items(),
            vec![ItemId(1), ItemId(3), ItemId(7)]
        );
    }
}
