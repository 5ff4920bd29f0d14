//! The `TopDown` enumeration algorithm (§4.2, Algorithm 2).
//!
//! Requires a **feature-based** inductor. Starting from the full label set,
//! Algorithm 2 subdivides every known subset by each attribute in turn; the
//! resulting family `Z` contains every closed set, so calling φ once per
//! member enumerates the wrapper space. Theorem 3: exactly `k` calls when
//! distinct closed sets induce distinct wrappers. XPATH can exceed `k`:
//! subsets that differ only in a child number whose tag they do not share
//! induce one wrapper (`aw_eval::experiments::calls` reports both).
//!
//! The charm (§5) is that `subdivision` never materializes the feature
//! space — crucial for LR, whose feature space is as large as the page.
//!
//! # Partition once per attribute
//!
//! `subdivision(s, a)` groups the members of `s` that have attribute `a` by
//! their value, so it is `{s ∩ B | B a block of subdivision(L, a)}` minus
//! the empty sets (the [`FeatureBased`] contract). By induction over the
//! attributes, after `a_1..a_j` the family `Z` is `L` plus every nonempty
//! `L ∩ B_1 ∩ … ∩ B_m` that takes at most one block from each of those
//! attributes' partitions of `L`: subdividing that family by `a_{j+1}`
//! intersects each member with each block of `a_{j+1}`. Intersection is
//! commutative, so the order of the attributes does not matter; blocks of
//! one partition are disjoint, so a member meets a second block of a
//! partition it already took a block from in nothing, and a partition
//! applied a second time (by another attribute) adds nothing.
//!
//! This implementation therefore calls `subdivision(L, a)` once per
//! attribute, turns the blocks into bitsets over the label indices, skips a
//! partition it has already applied (LR's 128 attributes `L_1..L_64`,
//! `R_1..R_64` induce only a handful of distinct partitions), and keeps `Z`
//! as fixed-stride bitsets in one flat vector, sorted and deduplicated
//! after each partition in the order of the `BTreeSet<ItemSet>` Algorithm 2
//! builds. φ runs over `Z` in that order, so seeds, rules, tie-breaks and
//! `inductor_calls` are those of the textbook loop (kept as a test oracle
//! below).

use crate::space::{EnumerationResult, SpaceBuilder};
use aw_induct::{FeatureBased, ItemSet};
use std::cmp::Ordering;
use std::fmt::Debug;

/// Enumerates `W(L)` with Algorithm 2.
pub fn top_down<I>(inductor: &I, labels: &ItemSet<I::Item>) -> EnumerationResult<I::Item>
where
    I: FeatureBased,
    I::Item: Debug,
{
    let mut builder = SpaceBuilder::new();
    if labels.is_empty() {
        return builder.finish();
    }
    let items: Vec<I::Item> = labels.iter().copied().collect();
    for row in subset_family(inductor, labels, &items).rows() {
        let seed: ItemSet<I::Item> = ones(row).map(|i| items[i]).collect();
        builder.induce(inductor, &seed, |_| ());
    }
    builder.finish()
}

/// Algorithm 2's `Z` over the label indices of `items` (`labels` in order).
fn subset_family<I: FeatureBased>(
    inductor: &I,
    labels: &ItemSet<I::Item>,
    items: &[I::Item],
) -> SetFamily {
    let n = items.len();
    let stride = n.div_ceil(64);
    let mut z = SetFamily {
        stride,
        words: vec![0; stride],
    };
    for i in 0..n {
        z.words[i / 64] |= 1 << (i % 64);
    }

    // A partition's key: each label's block, numbered by first appearance
    // in label order (0 = the label lacks the attribute), so that equal
    // partitions have equal keys whatever order their blocks come in. The
    // keys of the partitions applied so far are stored back to back.
    let mut applied: Vec<usize> = Vec::new();
    let (mut raw, mut canon, mut blocks) = (vec![0usize; n], Vec::new(), Vec::new());
    let (mut order, mut sorted) = (Vec::new(), Vec::new());
    for attr in inductor.attributes(labels) {
        let groups = inductor.subdivision(labels, &attr);
        raw.fill(0);
        for (b, group) in groups.iter().enumerate() {
            for item in group {
                let i = items
                    .binary_search(item)
                    .expect("subdivision(L, a) partitions members of L");
                raw[i] = b + 1;
            }
        }
        canon.clear();
        canon.resize(groups.len() + 1, 0);
        let key_start = applied.len();
        let mut distinct = 0;
        for &b in &raw {
            if b != 0 && canon[b] == 0 {
                distinct += 1;
                canon[b] = distinct;
            }
            applied.push(canon[b]);
        }
        let (seen, key) = applied.split_at(key_start);
        if seen.chunks_exact(n).any(|k| k == key) {
            applied.truncate(key_start);
            continue;
        }

        blocks.clear();
        blocks.resize(distinct * stride, 0u64);
        for (i, &b) in key.iter().enumerate() {
            if b != 0 {
                blocks[(b - 1) * stride + i / 64] |= 1 << (i % 64);
            }
        }
        // Sets this partition creates are not split by it again: a block
        // meets another block of its own partition in nothing.
        for s in 0..z.len() {
            for block in blocks.chunks_exact(stride) {
                let start = z.words.len();
                z.words.extend_from_within(s * stride..(s + 1) * stride);
                for (w, &b) in z.words[start..].iter_mut().zip(block) {
                    *w &= b;
                }
                if z.words[start..].iter().all(|&w| w == 0) {
                    z.words.truncate(start);
                }
            }
        }
        z.sort_dedup(&mut order, &mut sorted);
    }
    z
}

/// The indices of the set bits of a bitset, ascending.
fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + bit
            })
        })
    })
}

/// Bitsets of `stride` words each, stored back to back in one vector.
struct SetFamily {
    stride: usize,
    words: Vec<u64>,
}

impl SetFamily {
    fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.words.chunks_exact(self.stride)
    }

    /// Sorts the rows as their label sets compare as `ItemSet`s and drops
    /// repeated rows; `order` and `sorted` are scratch space kept across
    /// calls.
    fn sort_dedup(&mut self, order: &mut Vec<usize>, sorted: &mut Vec<u64>) {
        order.clear();
        order.extend(0..self.len());
        order.sort_unstable_by(|&a, &b| itemset_cmp(self.row(a), self.row(b)));
        order.dedup_by(|a, b| self.row(*a) == self.row(*b));
        sorted.clear();
        for &r in order.iter() {
            sorted.extend_from_slice(self.row(r));
        }
        std::mem::swap(&mut self.words, sorted);
    }
}

/// Compares two bitsets as the sorted sequences of their members, which is
/// how `BTreeSet` orders sets: at the lowest differing member the set that
/// holds it is smaller, unless the other set has no larger member (then the
/// other is a prefix of it).
fn itemset_cmp(a: &[u64], b: &[u64]) -> Ordering {
    let Some(w) = (0..a.len()).find(|&w| a[w] != b[w]) else {
        return Ordering::Equal;
    };
    let bit = (a[w] ^ b[w]).trailing_zeros();
    let a_holds = (a[w] >> bit) & 1 == 1;
    let other = if a_holds { b } else { a };
    let other_continues = (other[w] >> bit) >> 1 != 0 || other[w + 1..].iter().any(|&x| x != 0);
    if a_holds == other_continues {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom_up::bottom_up;
    use crate::naive::naive;
    use aw_induct::table::{example1_inductor, example1_labels, Cell};
    use aw_induct::TableInductor;
    use std::collections::BTreeSet;

    /// Algorithm 2's `Z` as §4.2 writes it: every member of `Z` is
    /// subdivided by every attribute, in a set of sets.
    fn textbook_z<I: FeatureBased>(
        inductor: &I,
        labels: &ItemSet<I::Item>,
    ) -> Vec<ItemSet<I::Item>> {
        let mut z: BTreeSet<ItemSet<I::Item>> = BTreeSet::new();
        z.insert(labels.clone());
        for attr in inductor.attributes(labels) {
            // Snapshot: sets created by this attribute are only subdivided
            // by *later* attributes, exactly as in the nested loops.
            let snapshot: Vec<ItemSet<I::Item>> = z.iter().cloned().collect();
            for s in snapshot {
                for group in inductor.subdivision(&s, &attr) {
                    assert!(group.is_subset(&s));
                    if !group.is_empty() {
                        z.insert(group);
                    }
                }
            }
        }
        z.into_iter().collect()
    }

    /// The textbook Algorithm 2, the oracle [`top_down`] must equal.
    fn textbook_top_down<I>(inductor: &I, labels: &ItemSet<I::Item>) -> EnumerationResult<I::Item>
    where
        I: FeatureBased,
        I::Item: Debug,
    {
        let mut builder = SpaceBuilder::new();
        if !labels.is_empty() {
            for s in textbook_z(inductor, labels) {
                builder.induce(inductor, &s, |_| ());
            }
        }
        builder.finish()
    }

    /// Asserts that the partition-once `Z` and the whole enumeration equal
    /// the textbook loop's; returns `|Z|`.
    fn assert_matches_textbook<I>(inductor: &I, labels: &ItemSet<I::Item>) -> usize
    where
        I: FeatureBased,
        I::Item: Debug,
    {
        let got = top_down(inductor, labels);
        let want = textbook_top_down(inductor, labels);
        assert_eq!(got.wrappers, want.wrappers, "labels {labels:?}");
        assert_eq!(got.inductor_calls, want.inductor_calls, "labels {labels:?}");
        if labels.is_empty() {
            return 0;
        }
        let items: Vec<I::Item> = labels.iter().copied().collect();
        let family: Vec<ItemSet<I::Item>> = subset_family(inductor, labels, &items)
            .rows()
            .map(|row| ones(row).map(|i| items[i]).collect())
            .collect();
        assert_eq!(family, textbook_z(inductor, labels), "labels {labels:?}");
        family.len()
    }

    #[test]
    fn reproduces_section_4_2_trace() {
        // §4.2 traces TopDown on Example 1: Z ends with 8 subsets and the
        // 8 wrappers of Equation (2).
        let t = example1_inductor();
        let result = top_down(&t, &example1_labels());
        assert_eq!(result.len(), 8);
        assert_eq!(result.inductor_calls, 8, "Theorem 3: exactly k calls");
        assert_eq!(assert_matches_textbook(&t, &example1_labels()), 8);
    }

    #[test]
    fn agrees_with_naive_and_bottom_up() {
        let t = example1_inductor();
        let labels = example1_labels();
        let n = naive(&t, &labels).extraction_set();
        let b = bottom_up(&t, &labels).extraction_set();
        let d = top_down(&t, &labels).extraction_set();
        assert_eq!(n, d);
        assert_eq!(b, d);
    }

    #[test]
    fn fewer_calls_than_bottom_up() {
        let t = TableInductor::new(6, 6);
        let labels: ItemSet<Cell> = [
            Cell::new(1, 1),
            Cell::new(2, 1),
            Cell::new(3, 1),
            Cell::new(4, 2),
            Cell::new(5, 3),
            Cell::new(6, 1),
            Cell::new(2, 4),
        ]
        .into_iter()
        .collect();
        let bu = bottom_up(&t, &labels);
        let td = top_down(&t, &labels);
        assert_eq!(bu.extraction_set(), td.extraction_set());
        assert!(
            td.inductor_calls < bu.inductor_calls,
            "TopDown {} vs BottomUp {}",
            td.inductor_calls,
            bu.inductor_calls
        );
    }

    #[test]
    fn empty_labels() {
        let t = example1_inductor();
        let result = top_down(&t, &ItemSet::new());
        assert!(result.is_empty());
        assert_eq!(result.inductor_calls, 0);
    }

    #[test]
    fn single_label() {
        let t = example1_inductor();
        let labels: ItemSet<Cell> = [Cell::new(3, 3)].into_iter().collect();
        let result = top_down(&t, &labels);
        assert_eq!(result.len(), 1);
        assert_eq!(result.inductor_calls, 1);
    }

    #[test]
    fn itemset_order_of_bitsets_is_btreeset_order() {
        // Every pair of nonempty subsets of 0..7, and sets straddling a
        // word boundary.
        let sets: Vec<Vec<usize>> = (1u32..128)
            .map(|m| (0..7).filter(|i| (m >> i) & 1 == 1).collect())
            .chain([
                vec![3, 64],
                vec![3, 65],
                vec![3],
                vec![64],
                vec![63, 64, 127],
                vec![127],
            ])
            .collect();
        let bits = |s: &[usize]| {
            let mut row = vec![0u64; 2];
            for &i in s {
                row[i / 64] |= 1 << (i % 64);
            }
            row
        };
        for a in &sets {
            assert_eq!(ones(&bits(a)).collect::<Vec<_>>(), *a);
            for b in &sets {
                let want = a.iter().collect::<BTreeSet<_>>().cmp(&b.iter().collect());
                assert_eq!(itemset_cmp(&bits(a), &bits(b)), want, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn wide_label_sets_use_several_words() {
        // 150 labels: three words per set.
        let t = TableInductor::new(30, 5);
        let labels: ItemSet<Cell> = (1..=30)
            .flat_map(|r| (1..=5).map(move |c| Cell::new(r, c)))
            .collect();
        assert_eq!(labels.len(), 150);
        // L, 30 rows, 5 columns and the 150 cells.
        assert_eq!(assert_matches_textbook(&t, &labels), 1 + 30 + 5 + 150);
    }

    /// The table generator of `tests/theorems.rs`, exhaustively: up to 7
    /// labels scattered over every grid size it draws from.
    #[test]
    fn matches_textbook_on_every_table_theorem_input() {
        for rows in 2u16..6 {
            for cols in 2u16..6 {
                let t = TableInductor::new(rows, cols);
                for mask in 1u32..0x7f {
                    let labels: ItemSet<Cell> = (0..7)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| Cell::new(1 + (i * 3) % rows, 1 + (i * 5) % cols))
                        .collect();
                    assert_matches_textbook(&t, &labels);
                }
            }
        }
    }

    mod corpora {
        use super::assert_matches_textbook;
        use aw_annotate::{DictionaryAnnotator, MatchMode};
        use aw_induct::{DomTableInductor, LrInductor, NodeSet, Site, XPathInductor};
        use aw_sitegen::{
            generate_dealers, generate_disc, generate_products, DealersConfig, DiscConfig,
            ProductsConfig,
        };

        /// Checks every language on every labeled site; returns `|Z|`
        /// summed over them.
        fn check_all(sites: impl Iterator<Item = (Site, NodeSet)>) -> usize {
            let mut members = 0;
            for (site, labels) in sites {
                members += assert_matches_textbook(&XPathInductor::new(&site), &labels);
                members += assert_matches_textbook(&LrInductor::new(&site), &labels);
                members += assert_matches_textbook(&DomTableInductor::new(&site), &labels);
            }
            members
        }

        /// The noisy-label generator of `tests/theorems.rs`: dictionary
        /// hits on a two-page DEALERS site, evenly subsampled to `cap`.
        fn theorem_site(seed: u64, cap: usize) -> (Site, NodeSet) {
            let ds = generate_dealers(&DealersConfig {
                sites: 1,
                pages_per_site: 2,
                records_per_page: (2, 4),
                seed,
                ..DealersConfig::default()
            });
            let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
            let items: Vec<_> = annot.annotate(&ds.sites[0].site).into_iter().collect();
            let labels = if items.len() <= cap {
                items.into_iter().collect()
            } else {
                let stride = items.len() as f64 / cap as f64;
                (0..cap)
                    .map(|i| items[(i as f64 * stride) as usize])
                    .collect()
            };
            let site = ds.sites.into_iter().next().expect("one site").site;
            (site, labels)
        }

        #[test]
        fn matches_textbook_on_theorem_generator_sites() {
            let members = check_all((0..40).map(|seed| theorem_site(seed, 7)));
            assert!(members > 300, "{members}");
        }

        #[test]
        fn matches_textbook_on_dealers_disc_and_products() {
            let dealers = generate_dealers(&DealersConfig::small(8, 0x7D01));
            let annot = DictionaryAnnotator::new(dealers.dictionary.iter(), MatchMode::Contains);
            let dealers = dealers.sites.into_iter().map(|gs| {
                let labels = annot.annotate(&gs.site);
                (gs.site, labels)
            });
            let disc = generate_disc(&DiscConfig::small(3, 0x7D02));
            let annot = DictionaryAnnotator::new(disc.track_dictionary.iter(), MatchMode::Exact);
            let disc = disc.sites.into_iter().map(|gs| {
                let labels = annot.annotate(&gs.site);
                (gs.site, labels)
            });
            let products = generate_products(&ProductsConfig::small(3, 0x7D03));
            let annot = DictionaryAnnotator::new(products.dictionary.iter(), MatchMode::Contains);
            let products = products.sites.into_iter().map(|gs| {
                let labels = annot.annotate(&gs.site);
                (gs.site, labels)
            });
            let members = check_all(dealers.chain(disc).chain(products));
            assert!(members > 300, "{members}");
        }
    }
}
