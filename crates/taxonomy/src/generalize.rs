//! The one generalization lookup, [`Generalizations`]: duplicate
//! selection's ancestor candidates (§3.4) and the serving catalog's
//! suppression table.

use crate::Taxonomy;
use gar_types::{FxHashMap, ItemId};

/// The proper ancestors of `item`; none for an id past the taxonomy.
fn ancestors(tax: &Taxonomy, item: ItemId) -> &[ItemId] {
    if item.raw() < tax.num_items() {
        tax.ancestors(item)
    } else {
        &[]
    }
}

/// A set of ascending itemsets, the *members* (interned to ids 0, 1, …
/// in insertion order), that answers which members an itemset `spec`
/// properly specializes: the `L`-item members `gen != spec` whose every
/// item is an ancestor-or-self of a `spec` item, and which hold an
/// ancestor-or-self of every `spec` item.
///
/// [`Generalizations::of`] takes its candidates from one of two sources,
/// chosen by `P`, the product over `spec`'s items of `1 + |ancestors|`
/// (saturating). If `P` is at most the number of `L`-item members, an
/// odometer enumerates the *images* (one ancestor-or-self per item) and
/// looks up those with distinct items, then tests the *loose* `L`-item
/// members, which hold an item beside its own ancestor. Otherwise it
/// tests every `L`-item member. A test is binary search: every `gen` item
/// lies in `spec`'s ancestor-or-self closure, and every `spec` item has
/// an ancestor-or-self in `gen`. So the cost is at most `min(P, L-item
/// members)` lookups or tests plus the loose tests (candidate sets and
/// mined stores hold no loose member), O(L log L) each: a 65,536-item
/// `spec` never meets its images, and nothing recurses.
///
/// **Why this is exact.** An image with distinct items is in the
/// relation (a proper choice never gives `spec` back: depths only fall).
/// Conversely, let `gen` be in it and an antichain, and give each `spec`
/// item `s` an ancestor-or-self `g(s)` in `gen`. Each `gen` item `x` is
/// an ancestor-or-self of some `s`, so `x` and `g(s)` lie on `s`'s
/// ancestor chain and are comparable: the antichain makes them equal.
/// So `g` maps the `L` items of `spec` onto the `L` items of `gen`, and
/// `gen` is an image. The members that are not antichains are the loose
/// ones, and every one is tested.
#[derive(Debug)]
pub struct Generalizations<'a> {
    tax: &'a Taxonomy,
    members: Vec<&'a [ItemId]>,
    ids: FxHashMap<&'a [ItemId], u32>,
    /// Per length, the ids of its members and of its loose members.
    peers: FxHashMap<usize, (Vec<u32>, Vec<u32>)>,
    /// Reused by [`Generalizations::of`]: the odometer (item `d` takes
    /// itself at 0, else its `pick[d]`-th proper ancestor), the image,
    /// `spec`'s closure and the answer.
    scratch: (Vec<usize>, Vec<ItemId>, Vec<ItemId>, Vec<u32>),
}

impl<'a> Generalizations<'a> {
    /// No members yet, under `tax`.
    pub fn new(tax: &'a Taxonomy) -> Self {
        let (members, ids, peers, scratch) = Default::default();
        Generalizations {
            tax,
            members,
            ids,
            peers,
            scratch,
        }
    }

    /// Adds `items` unless it is a member already; returns its id.
    #[inline]
    pub fn insert(&mut self, items: &'a [ItemId]) -> u32 {
        let fresh = self.members.len() as u32;
        let id = *self.ids.entry(items).or_insert(fresh);
        if id == fresh {
            self.members.push(items);
            let (all, loose) = self.peers.entry(items.len()).or_default();
            all.push(id);
            let (tax, held) = (self.tax, |a: &ItemId| items.binary_search(a).is_ok());
            if items.iter().any(|&i| ancestors(tax, i).iter().any(held)) {
                loose.push(id);
            }
        }
        id
    }

    /// The members, by id.
    pub fn members(&self) -> &[&'a [ItemId]] {
        &self.members
    }

    /// The ids of the members the ascending `spec` properly specializes,
    /// ascending.
    pub fn of(&mut self, spec: &[ItemId]) -> &[u32] {
        let tax = self.tax;
        let (pick, image, closure, found) = &mut self.scratch;
        found.clear();
        let Some((all, loose)) = self.peers.get(&spec.len()) else {
            return found;
        };
        let images = spec.iter().fold(1usize, |p, &i| {
            p.saturating_mul(1 + ancestors(tax, i).len())
        });
        let tested = if images <= all.len() {
            pick.clear();
            pick.resize(spec.len(), 0);
            // Advance the lowest item with a choice left, resetting those
            // below it; the all-self start is `spec`, never emitted.
            let mut d = 0;
            while d < spec.len() {
                if pick[d] == ancestors(tax, spec[d]).len() {
                    pick[d] = 0;
                    d += 1;
                    continue;
                }
                pick[d] += 1;
                d = 0;
                image.clear();
                image.extend(pick.iter().zip(spec).map(|(&p, &i)| match p {
                    0 => i,
                    _ => ancestors(tax, i)[p - 1],
                }));
                image.sort_unstable();
                if image.windows(2).all(|w| w[0] != w[1]) {
                    found.extend(self.ids.get(image.as_slice()));
                }
            }
            loose
        } else {
            all
        };
        if !tested.is_empty() {
            closure.clear();
            for &i in spec {
                closure.push(i);
                closure.extend_from_slice(ancestors(tax, i));
            }
            closure.sort_unstable();
            closure.dedup();
            let held = |set: &[ItemId], i: &ItemId| set.binary_search(i).is_ok();
            let members = &self.members;
            found.extend(tested.iter().filter(|&&id| {
                let gen = members[id as usize];
                gen != spec
                    && gen.iter().all(|i| held(closure, i))
                    && spec
                        .iter()
                        .all(|&s| held(gen, &s) || ancestors(tax, s).iter().any(|a| held(gen, a)))
            }));
        }
        found.sort_unstable();
        found.dedup();
        found
    }
}

/// Inserts every itemset, with room made for them first.
impl<'a> Extend<&'a [ItemId]> for Generalizations<'a> {
    fn extend<I: IntoIterator<Item = &'a [ItemId]>>(&mut self, members: I) {
        let members = members.into_iter();
        self.ids.reserve(members.size_hint().0);
        self.members.reserve(members.size_hint().0);
        for items in members {
            self.insert(items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaxonomyBuilder;
    use proptest::prelude::*;

    fn set(items: &[u32]) -> Vec<ItemId> {
        let mut v: Vec<ItemId> = items.iter().map(|&x| ItemId(x)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The relation, pairwise and straight from its definition.
    fn specializes(tax: &Taxonomy, spec: &[ItemId], gen: &[ItemId]) -> bool {
        if spec.len() != gen.len() || spec == gen {
            return false;
        }
        let covers = |g: ItemId, s: ItemId| g == s || tax.is_ancestor(g, s);
        gen.iter().all(|&g| spec.iter().any(|&s| covers(g, s)))
            && spec.iter().all(|&s| gen.iter().any(|&g| covers(g, s)))
    }

    fn brute_force(tax: &Taxonomy, members: &[Vec<ItemId>], spec: &[ItemId]) -> Vec<u32> {
        (0u32..)
            .zip(members)
            .filter(|(_, gen)| specializes(tax, spec, gen))
            .map(|(id, _)| id)
            .collect()
    }

    /// Root 0; 1 and 4 under 0; 2 under 1; 3 under 2; 5 under 4.
    fn chain_forest() -> Taxonomy {
        let mut b = TaxonomyBuilder::new(6);
        for (c, p) in [(1, 0), (2, 1), (3, 2), (4, 0), (5, 4)] {
            b.edge(c, p).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn members_are_interned_in_insertion_order() {
        let tax = chain_forest();
        let (a, b) = (set(&[3, 5]), set(&[1]));
        let mut g = Generalizations::new(&tax);
        assert_eq!(g.insert(&a), 0);
        assert_eq!(g.insert(&b), 1);
        assert_eq!(g.insert(&a), 0);
        assert_eq!(g.members(), [&a[..], &b[..]]);
    }

    #[test]
    fn a_loose_member_is_found_though_no_image_is() {
        // {2, 4, 5} maps 4 and 5 only to themselves or to 0, so no image
        // is {0, 1, 2}; yet 0 covers 4 and 5, 2 covers 2, and 1 lies
        // above 2. {0, 1, 2} holds 1 beside its ancestor 0: it is loose.
        // Its P is 3 × 2 × 3 = 18, under the 20 triples of 0..6, so the
        // images answer and the loose members are tested after them.
        let tax = chain_forest();
        let members: Vec<Vec<ItemId>> = (0..6)
            .flat_map(|x| (x + 1..6).flat_map(move |y| (y + 1..6).map(move |z| set(&[x, y, z]))))
            .collect();
        let mut g = Generalizations::new(&tax);
        g.extend(members.iter().map(Vec::as_slice));
        let spec = set(&[2, 4, 5]);
        let want = brute_force(&tax, &members, &spec);
        let loose = members.iter().position(|m| m == &set(&[0, 1, 2])).unwrap() as u32;
        assert!(want.contains(&loose));
        assert_eq!(g.of(&spec), want);
    }

    #[test]
    fn images_and_the_peer_scan_agree() {
        // {3, 5}: P = 4 × 3 = 12 images. With the six pairs below there
        // are fewer peers, so it scans; with every pair of 0..6 it
        // enumerates. Either way the answer is the brute force's.
        let tax = chain_forest();
        let few: Vec<Vec<ItemId>> = [[2, 4], [1, 5], [0, 3], [3, 5], [2, 5], [1, 4]]
            .iter()
            .map(|p| set(p))
            .collect();
        let all: Vec<Vec<ItemId>> = (0..6)
            .flat_map(|x| (x + 1..6).map(move |y| set(&[x, y])))
            .collect();
        for members in [few, all] {
            let mut g = Generalizations::new(&tax);
            g.extend(members.iter().map(Vec::as_slice));
            let spec = set(&[3, 5]);
            let want = brute_force(&tax, &members, &spec);
            assert!(!want.is_empty());
            assert_eq!(g.of(&spec), want, "{} members", members.len());
        }
    }

    #[test]
    fn a_length_with_no_member_has_no_generalization() {
        let tax = chain_forest();
        let pair = set(&[1, 4]);
        let mut g = Generalizations::new(&tax);
        g.insert(&pair);
        assert!(g.of(&set(&[3])).is_empty());
        assert!(g.of(&set(&[2, 3, 5])).is_empty());
    }

    /// A random forest of `n` items: each item past the first three hangs
    /// under a random earlier item three times out of four.
    fn random_forest(n: u32, seed: u64) -> Taxonomy {
        let mut state = seed;
        let mut next = move |bound: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % u64::from(bound)) as u32
        };
        let mut b = TaxonomyBuilder::new(n);
        for child in 3..n {
            if next(4) != 0 {
                b.edge(child, next(child)).unwrap();
            }
        }
        b.build().unwrap()
    }

    proptest! {
        // Random forests, and members drawn over the items and three ids
        // past them: sets beside their generalizations (items lifted to
        // their parents), non-antichains (items beside their parents, or
        // the top of an item's ancestor chain), long sets, and — one time
        // in two — every pair, so that both the images and the peer scan
        // answer. Every member and a few non-members ask; the kernel
        // answers as the pairwise relation.
        #[test]
        fn the_kernel_is_the_pairwise_relation(
            forest in (4u32..30, 0u64..10_000),
            drawn in proptest::collection::vec(
                (proptest::collection::vec(0u32..40, 1..7), 0u32..3, 0u32..64), 1..40),
            every_pair in 0u32..2,
            asked in proptest::collection::vec(proptest::collection::vec(0u32..40, 1..5), 0..6),
        ) {
            let (n, seed) = forest;
            let tax = random_forest(n, seed);
            let item = |x: u32| ItemId(x % (n + 3));
            let sorted = |mut v: Vec<ItemId>| { v.sort_unstable(); v.dedup(); v };
            let parent = |it: ItemId| ancestors(&tax, it).first().copied();
            let mut members: Vec<Vec<ItemId>> = Vec::new();
            for (raw, kind, lift) in drawn {
                let items: Vec<ItemId> = raw.into_iter().map(item).collect();
                let lifted = items
                    .iter()
                    .enumerate()
                    .map(|(i, &it)| if lift >> i & 1 == 1 { parent(it).unwrap_or(it) } else { it })
                    .collect();
                members.push(sorted(items.clone()));
                members.push(sorted(lifted));
                if kind == 0 {
                    let parents = items.iter().filter_map(|&it| parent(it));
                    members.push(sorted(items.iter().copied().chain(parents).collect()));
                }
                // The items in the first one's tree, and the top of one's
                // ancestor chain, as long: loose, and often a
                // generalization that is no image.
                let root = |it: ItemId| ancestors(&tax, it).last().copied().unwrap_or(it);
                let kin = items.iter().filter(|&&it| root(it) == root(items[0]));
                let tree = sorted(kin.copied().collect());
                let chain: Vec<ItemId> = std::iter::once(tree[0])
                    .chain(ancestors(&tax, tree[0]).iter().copied())
                    .collect();
                members.push(sorted(chain[chain.len().saturating_sub(tree.len())..].to_vec()));
                members.push(tree);
            }
            if every_pair == 1 {
                let pair = |x: u32, y: u32| vec![ItemId(x), ItemId(y)];
                members.extend((0..n).flat_map(|x| (x + 1..n).map(move |y| pair(x, y))));
            }
            let mut g = Generalizations::new(&tax);
            g.extend(members.iter().map(Vec::as_slice));
            let distinct: Vec<Vec<ItemId>> = g.members().iter().map(|m| m.to_vec()).collect();
            let asked = asked.into_iter().map(|raw| sorted(raw.into_iter().map(item).collect()));
            for spec in distinct.clone().into_iter().chain(asked) {
                let want = brute_force(&tax, &distinct, &spec);
                prop_assert_eq!((&spec, g.of(&spec)), (&spec, &want[..]));
            }
        }
    }
}
