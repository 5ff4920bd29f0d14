//! Exhaustive enumeration: φ on every nonempty subset of `L`.
//!
//! The baseline of Figures 2(a) and 2(b). Exponential — 2^|L| − 1 inductor
//! calls — so [`naive`] refuses label sets beyond a caller-supplied cap and
//! [`naive_call_count`] reports the theoretical cost for plotting when the
//! run itself is infeasible ("the naive method is not plotted when it gets
//! too large").

use crate::space::{EnumerationResult, SpaceBuilder};
use aw_induct::{ItemSet, WrapperInductor};
use std::fmt::Debug;

/// Hard cap above which [`naive`] panics instead of running for hours.
pub const NAIVE_MAX_LABELS: usize = 24;

/// Enumerates `W(L)` by brute force over all nonempty subsets.
///
/// # Panics
/// Panics if `labels.len() > NAIVE_MAX_LABELS`.
pub fn naive<I>(inductor: &I, labels: &ItemSet<I::Item>) -> EnumerationResult<I::Item>
where
    I: WrapperInductor,
    I::Item: Debug,
{
    assert!(
        labels.len() <= NAIVE_MAX_LABELS,
        "naive enumeration over {} labels would need {} inductor calls",
        labels.len(),
        naive_call_count(labels.len())
    );
    let items: Vec<I::Item> = labels.iter().copied().collect();
    let mut builder = SpaceBuilder::new();
    for mask in 1u64..(1u64 << items.len()) {
        let subset: ItemSet<I::Item> = items
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &x)| x)
            .collect();
        builder.induce(inductor, &subset, |_| ());
    }
    builder.finish()
}

/// Number of φ calls naive enumeration needs for `n` labels (2^n − 1),
/// saturating at `u64::MAX`.
pub fn naive_call_count(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_induct::table::{example1_inductor, example1_labels};

    #[test]
    fn example1_has_eight_wrappers() {
        // §3: "the 32 subsets of L only result in 8 unique wrappers".
        let t = example1_inductor();
        let result = naive(&t, &example1_labels());
        assert_eq!(result.inductor_calls, 31); // nonempty subsets
        assert_eq!(result.len(), 8);
        let rules: Vec<&str> = result.wrappers.iter().map(|w| w.rule.as_str()).collect();
        for expected in [
            "cell(1,1)",
            "cell(2,1)",
            "cell(4,1)",
            "cell(4,2)",
            "cell(5,3)",
            "C1",
            "R4",
            "T",
        ] {
            assert!(rules.contains(&expected), "missing {expected}: {rules:?}");
        }
    }

    #[test]
    fn full_grid_labels_give_quadratic_space() {
        // §3: n² labels on an n×n table yield n² + 2n + 1 wrappers…
        // (cells + rows + columns + table). With every cell labeled,
        // singleton rows/columns coincide with cells only for 1×1.
        let n = 3;
        let t = aw_induct::TableInductor::new(n, n);
        let labels = t.universe();
        let result = naive(&t, &labels);
        assert_eq!(result.len(), (n * n + 2 * n + 1) as usize);
    }

    #[test]
    fn call_count_formula() {
        assert_eq!(naive_call_count(0), 0);
        assert_eq!(naive_call_count(5), 31);
        assert_eq!(naive_call_count(20), (1 << 20) - 1);
        assert_eq!(naive_call_count(64), u64::MAX);
        assert_eq!(naive_call_count(100), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "naive enumeration over 25 labels")]
    fn refuses_oversized_label_sets() {
        let t = aw_induct::TableInductor::new(5, 5);
        let labels = t.universe();
        let _ = naive(&t, &labels);
    }
}
