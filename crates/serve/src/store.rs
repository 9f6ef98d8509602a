//! The persisted rule store — `GRUL` codec.
//!
//! Format (little-endian, style of `gar-mining`'s `GCKP` checkpoint):
//! magic `GRUL`, `u32` version, the taxonomy as a parent array (`u32`
//! item count, one `u32` per item, `u32::MAX` = root — mirroring the
//! `GTAX` file so `serve` needs no side-channel taxonomy), `u64`
//! transaction count, `u32` rule count, then per rule the antecedent and
//! consequent as length-prefixed `u32` item lists, the `u64` support
//! count and the `f64` confidence bit pattern. The whole payload is
//! sealed by a trailing FxHash **checksum**; writes go through a temp
//! file + rename so a crash mid-write never leaves a torn store.
//!
//! Rules are stored in the canonical `(antecedent, consequent)` order of
//! [`gar_mining::rules::canonicalize_rules`] and the decoder *enforces*
//! strict ascent, so a given rule set has exactly one on-disk byte
//! representation — same-seed stores are byte-identical no matter how
//! many nodes mined them.

use gar_mining::rules::{canonicalize_rules, Rule};
use gar_taxonomy::{Taxonomy, TaxonomyBuilder};
use gar_types::hash::checksum;
use gar_types::{Error, ItemId, Itemset, Result};
use std::path::Path;

const MAGIC: &[u8; 4] = b"GRUL";
const VERSION: u32 = 1;
const NO_PARENT: u32 = u32::MAX;

/// Decode guards against implausible lengths (so a corrupt length field
/// fails cleanly instead of attempting a huge allocation).
const MAX_ITEMS: usize = 1 << 26;
const MAX_RULES: usize = 1 << 26;
const MAX_ITEMSET_LEN: usize = 1 << 16;

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
    /// Builds a store, canonicalizing (sorting + deduplicating) `rules`.
    /// Support fractions are re-derived from `support_count` over
    /// `num_transactions` — the codec persists only the count, so this
    /// keeps the in-memory store identical to its reloaded image.
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

    /// Writes the store to `path` atomically (temp file + rename).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, encode(self))
            .map_err(|e| Error::io(format!("writing rule store {}", tmp.display()), e))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| Error::io(format!("publishing rule store {}", path.display()), e))
    }

    /// Reads and validates the store at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<RuleStore> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| Error::io(format!("reading rule store {}", path.display()), e))?;
        decode(&bytes)
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

/// Serializes a store (checksum included). The caller guarantees the
/// rules are already canonical — [`RuleStore::new`] enforces it.
pub(crate) fn encode(store: &RuleStore) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let tax = &store.taxonomy;
    out.extend_from_slice(&tax.num_items().to_le_bytes());
    for i in 0..tax.num_items() {
        let code = tax.parent(ItemId(i)).map_or(NO_PARENT, |p| p.raw());
        out.extend_from_slice(&code.to_le_bytes());
    }
    out.extend_from_slice(&store.num_transactions.to_le_bytes());
    out.extend_from_slice(&(store.rules.len() as u32).to_le_bytes());
    for rule in &store.rules {
        push_itemset(&mut out, &rule.antecedent);
        push_itemset(&mut out, &rule.consequent);
        out.extend_from_slice(&rule.support_count.to_le_bytes());
        out.extend_from_slice(&rule.confidence.to_bits().to_le_bytes());
    }
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Bounded cursor over the store body; every short read is a clean
/// [`Error::Corrupt`], never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(Error::Corrupt("rule store truncated".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        let bytes: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| Error::Corrupt("rule store u32 field malformed".into()))?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64> {
        let bytes: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| Error::Corrupt("rule store u64 field malformed".into()))?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// A length-prefixed itemset: non-empty, strictly increasing, every
    /// item below `num_items`.
    fn itemset(&mut self, num_items: u32, what: &str) -> Result<Itemset> {
        let len = self.u32()? as usize;
        if len == 0 || len > MAX_ITEMSET_LEN {
            return Err(Error::Corrupt(format!("implausible {what} length {len}")));
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            let raw = self.u32()?;
            if raw >= num_items {
                return Err(Error::Corrupt(format!(
                    "{what} item {raw} outside the taxonomy (< {num_items})"
                )));
            }
            items.push(ItemId(raw));
        }
        if items.iter().zip(items.iter().skip(1)).any(|(a, b)| a >= b) {
            return Err(Error::Corrupt(format!("{what} items are not ascending")));
        }
        Ok(Itemset::from_sorted(items))
    }
}

/// Decodes a store, verifying the checksum and every structural
/// invariant (including canonical rule order). All damage surfaces as
/// [`Error::Corrupt`].
pub(crate) fn decode(bytes: &[u8]) -> Result<RuleStore> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(Error::Corrupt("rule store too short".into()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let tail: [u8; 8] = tail
        .try_into()
        .map_err(|_| Error::Corrupt("rule store checksum tail malformed".into()))?;
    let stored = u64::from_le_bytes(tail);
    if checksum(body) != stored {
        return Err(Error::Corrupt("rule store checksum mismatch".into()));
    }
    let mut c = Cursor {
        bytes: body,
        pos: 0,
    };
    if c.take(4)? != MAGIC {
        return Err(Error::Corrupt("not a rule store (bad magic)".into()));
    }
    if c.u32()? != VERSION {
        return Err(Error::Corrupt("unsupported rule store version".into()));
    }
    let num_items = c.u32()?;
    if num_items as usize > MAX_ITEMS {
        return Err(Error::Corrupt("implausible taxonomy size".into()));
    }
    let mut builder = TaxonomyBuilder::new(num_items);
    for child in 0..num_items {
        let parent = c.u32()?;
        if parent != NO_PARENT {
            builder
                .add_edge(ItemId(child), ItemId(parent))
                .map_err(|e| Error::Corrupt(format!("embedded taxonomy invalid: {e}")))?;
        }
    }
    // Re-validate the forest invariants: a corrupt file must not smuggle
    // a cycle past the ancestor-path machinery.
    let taxonomy = builder
        .build()
        .map_err(|e| Error::Corrupt(format!("embedded taxonomy invalid: {e}")))?;

    let num_transactions = c.u64()?;
    let num_rules = c.u32()? as usize;
    if num_rules > MAX_RULES {
        return Err(Error::Corrupt("implausible rule count".into()));
    }
    let n = num_transactions.max(1) as f64;
    let mut rules: Vec<Rule> = Vec::with_capacity(num_rules.min(1 << 16));
    for _ in 0..num_rules {
        let antecedent = c.itemset(num_items, "antecedent")?;
        let consequent = c.itemset(num_items, "consequent")?;
        let support_count = c.u64()?;
        if support_count > num_transactions {
            return Err(Error::Corrupt(format!(
                "rule support {support_count} exceeds the {num_transactions}-transaction database"
            )));
        }
        let confidence = f64::from_bits(c.u64()?);
        if !confidence.is_finite() || !(0.0..=1.0).contains(&confidence) {
            return Err(Error::Corrupt(format!(
                "rule confidence {confidence} outside [0, 1]"
            )));
        }
        if let Some(prev) = rules.last() {
            let key = (&prev.antecedent, &prev.consequent);
            if key >= (&antecedent, &consequent) {
                return Err(Error::Corrupt(
                    "rules are not in canonical (antecedent, consequent) order".into(),
                ));
            }
        }
        rules.push(Rule {
            antecedent,
            consequent,
            support_count,
            support: support_count as f64 / n,
            confidence,
        });
    }
    if c.pos != body.len() {
        return Err(Error::Corrupt("rule store has trailing garbage".into()));
    }
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
        let back = decode(&encode(&store)).unwrap();
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
        assert_eq!(encode(&a), encode(&b));
    }

    #[test]
    fn every_truncation_is_a_clean_corrupt_error() {
        let bytes = encode(&sample());
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
        let bytes = encode(&sample());
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
        out.extend_from_slice(&store.taxonomy.num_items().to_le_bytes());
        for i in 0..store.taxonomy.num_items() {
            let code = store
                .taxonomy
                .parent(ItemId(i))
                .map_or(NO_PARENT, |p| p.raw());
            out.extend_from_slice(&code.to_le_bytes());
        }
        out.extend_from_slice(&store.num_transactions.to_le_bytes());
        out.extend_from_slice(&(store.rules.len() as u32).to_le_bytes());
        for rule in &store.rules {
            push_itemset(&mut out, &rule.antecedent);
            push_itemset(&mut out, &rule.consequent);
            out.extend_from_slice(&rule.support_count.to_le_bytes());
            out.extend_from_slice(&rule.confidence.to_bits().to_le_bytes());
        }
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        let err = decode(&out).unwrap_err();
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
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        let err = decode(&out).unwrap_err();
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

    #[test]
    fn antecedent_items_are_sorted_distinct() {
        let store = sample();
        assert_eq!(
            store.antecedent_items(),
            vec![ItemId(1), ItemId(3), ItemId(7)]
        );
    }
}
