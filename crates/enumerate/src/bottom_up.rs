//! The `BottomUp` enumeration algorithm (§4.1, Algorithm 1).
//!
//! Works with any **well-behaved blackbox** inductor. Starting from the
//! empty set, it expands candidate label subsets one element at a time,
//! but only keeps the *closure* `φ̆(s) = φ(s) ∩ L` of each expansion —
//! the step that collapses the exponential subset lattice onto the (small)
//! lattice of closed sets. Theorem 2: at most `k · |L|` inductor calls,
//! where `k = |W(L)|`.

use crate::space::{EnumerationResult, SpaceBuilder};
use aw_induct::{ItemSet, WrapperInductor};
use std::collections::BTreeSet;
use std::fmt::Debug;

/// Enumerates `W(L)` with Algorithm 1.
pub fn bottom_up<I>(inductor: &I, labels: &ItemSet<I::Item>) -> EnumerationResult<I::Item>
where
    I: WrapperInductor,
    I::Item: Debug,
{
    let mut builder = SpaceBuilder::new();
    if labels.is_empty() {
        return builder.finish();
    }

    // Z holds candidate closed subsets keyed by (size, set) so that
    // `pop_first` yields the smallest set (step 4 of Algorithm 1).
    let mut z: BTreeSet<(usize, ItemSet<I::Item>)> = BTreeSet::new();
    // Sets ever expanded; the paper proves re-insertion cannot happen, but
    // the guard also protects against inductors that are *not* perfectly
    // well-behaved (e.g. LR corner cases).
    let mut expanded: BTreeSet<ItemSet<I::Item>> = BTreeSet::new();

    z.insert((0, ItemSet::new()));
    while let Some((_, s)) = z.pop_first() {
        if !expanded.insert(s.clone()) {
            continue;
        }
        for &l in labels.iter() {
            if s.contains(&l) {
                continue;
            }
            let mut seed = s.clone();
            seed.insert(l);
            // Step 7: w = φ(s ∪ ℓ), recorded in the space builder; step 8:
            // snew = φ̆(s ∪ ℓ).
            let snew: ItemSet<I::Item> = builder.induce(inductor, &seed, |extraction| {
                labels
                    .iter()
                    .copied()
                    .filter(|x| extraction.contains(x))
                    .collect()
            });
            // Step 10–12: enqueue unless it is the full label set or known.
            if snew.len() < labels.len() && !expanded.contains(&snew) {
                z.insert((snew.len(), snew));
            }
        }
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive;
    use aw_induct::table::{example1_inductor, example1_labels, Cell};
    use aw_induct::TableInductor;

    #[test]
    fn reproduces_example_2() {
        // Example 2 traces BottomUp on Example 1 and ends with exactly the
        // 8 wrappers of Equation (2).
        let t = example1_inductor();
        let result = bottom_up(&t, &example1_labels());
        assert_eq!(result.len(), 8);
        let rules: BTreeSet<&str> = result.wrappers.iter().map(|w| w.rule.as_str()).collect();
        assert_eq!(
            rules,
            [
                "cell(1,1)",
                "cell(2,1)",
                "cell(4,1)",
                "cell(4,2)",
                "cell(5,3)",
                "C1",
                "R4",
                "T"
            ]
            .into_iter()
            .collect()
        );
    }

    #[test]
    fn theorem_1_matches_naive() {
        // Soundness + completeness vs. brute force.
        let t = example1_inductor();
        let labels = example1_labels();
        let by_naive = naive(&t, &labels).extraction_set();
        let by_bottom_up = bottom_up(&t, &labels).extraction_set();
        assert_eq!(by_naive, by_bottom_up);
    }

    #[test]
    fn theorem_2_call_bound() {
        // At most k · |L| calls.
        let t = example1_inductor();
        let labels = example1_labels();
        let result = bottom_up(&t, &labels);
        let k = result.len();
        assert!(
            result.inductor_calls <= k * labels.len(),
            "{} calls > k·|L| = {}",
            result.inductor_calls,
            k * labels.len()
        );
        // And exponentially fewer than naive for larger L (sanity).
        assert!(result.inductor_calls < 31);
    }

    #[test]
    fn empty_labels() {
        let t = example1_inductor();
        let result = bottom_up(&t, &ItemSet::new());
        assert!(result.is_empty());
        assert_eq!(result.inductor_calls, 0);
    }

    #[test]
    fn single_label() {
        let t = example1_inductor();
        let labels: ItemSet<Cell> = [Cell::new(2, 2)].into_iter().collect();
        let result = bottom_up(&t, &labels);
        assert_eq!(result.len(), 1);
        assert_eq!(result.inductor_calls, 1);
        assert_eq!(result.wrappers[0].rule, "cell(2,2)");
    }

    #[test]
    fn dense_labels_match_naive() {
        // 3×3 grid with 6 labels: cross-check against brute force.
        let t = TableInductor::new(3, 3);
        let labels: ItemSet<Cell> = [
            Cell::new(1, 1),
            Cell::new(1, 2),
            Cell::new(2, 1),
            Cell::new(2, 2),
            Cell::new(3, 3),
            Cell::new(3, 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            naive(&t, &labels).extraction_set(),
            bottom_up(&t, &labels).extraction_set()
        );
    }
}
