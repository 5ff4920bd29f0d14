//! Core abstractions: the blackbox [`WrapperInductor`] interface and the
//! [`FeatureBased`] refinement.
//!
//! §4 of the paper defines a wrapper inductor φ as a function from a label
//! set to a wrapper, and identifies wrappers with their *output* ("the
//! score of a wrapper only depends on its output", §6). We therefore expose
//! φ directly as `extract: labels → node set`; the concrete rule (an xpath
//! string, an `(l, r)` delimiter pair, …) is available through
//! [`WrapperInductor::rule`] for display and export.
//!
//! A **well-behaved** inductor (Definition 1) satisfies:
//!
//! 1. *Fidelity*: `L ⊆ φ(L)`;
//! 2. *Closure*: `ℓ ∈ φ(L) ⇒ φ(L) = φ(L ∪ {ℓ})`;
//! 3. *Monotonicity*: `L₁ ⊆ L₂ ⇒ φ(L₁) ⊆ φ(L₂)`.
//!
//! These are not encoded in the type system; [`check_well_behaved`] tests
//! them empirically and the workspace's property tests exercise them on
//! random inputs.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

/// A set of items (labels or extracted nodes). Ordered so that subsets can
/// be compared and hashed deterministically.
pub type ItemSet<T> = BTreeSet<T>;

/// A wrapper inductor φ over an item universe `Item`.
///
/// Implementations hold the page set they operate on; `extract` both learns
/// the rule from `labels` and applies it to every page, returning the full
/// extraction.
pub trait WrapperInductor {
    /// The universe of labels and extracted nodes. For DOM-based inductors
    /// this is [`aw_dom::PageNode`]; the didactic TABLE inductor uses grid
    /// cells.
    type Item: Copy + Ord + Hash + Debug;

    /// φ(L): learns a wrapper from `labels` and returns its extraction over
    /// the inductor's page set. Must return the empty set for empty input.
    fn extract(&self, labels: &ItemSet<Self::Item>) -> ItemSet<Self::Item>;

    /// Human-readable form of the rule learned from `labels`, in the
    /// inductor's native wrapper language.
    fn rule(&self, labels: &ItemSet<Self::Item>) -> String;

    /// [`Self::extract`] and [`Self::rule`] of the same labels. Inductors
    /// that must learn the rule to extract override it to learn once.
    fn extract_with_rule(&self, labels: &ItemSet<Self::Item>) -> (ItemSet<Self::Item>, String) {
        (self.extract(labels), self.rule(labels))
    }

    /// The candidate universe (all items a wrapper could extract). Used by
    /// scoring (the `A` set of §6) and by tests.
    fn universe(&self) -> ItemSet<Self::Item>;
}

/// An identifier for one attribute of a feature-based inductor (§4.2).
///
/// A feature is an `(attribute, value)` pair attached to an item; a
/// feature-based inductor is defined by
/// `φ(L) = {n | F(n) ⊇ ⋂_{ℓ∈L} F(ℓ)}`.
pub trait FeatureBased: WrapperInductor {
    /// Attribute identifier (e.g. `(position, tagname)` for XPATH, `L_k`
    /// for LR).
    type Attr: Clone + Ord + Debug;

    /// All attributes appearing in the features of any label in `labels`
    /// (the `attrs(L)` of Algorithm 2).
    fn attributes(&self, labels: &ItemSet<Self::Item>) -> Vec<Self::Attr>;

    /// `subdivision(s, a)`: partitions the items of `s` that *have*
    /// attribute `a` into groups with equal value. Items lacking `a` are
    /// simply not covered (§4.2).
    ///
    /// An item's value of `a` must not depend on the other members of `s`,
    /// so that `subdivision(s, a)` is `subdivision(L, a)` restricted to `s`
    /// for every `s ⊆ L`: `aw_enum::top_down` partitions the full label
    /// set once per attribute and relies on it.
    fn subdivision(&self, s: &ItemSet<Self::Item>, attr: &Self::Attr) -> Vec<ItemSet<Self::Item>>;
}

/// Violations found by [`check_well_behaved`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WellBehavedReport {
    /// Label sets violating fidelity (`L ⊄ φ(L)`).
    pub fidelity_violations: usize,
    /// Label sets violating closure.
    pub closure_violations: usize,
    /// Label-set pairs violating monotonicity.
    pub monotonicity_violations: usize,
    /// Number of subset checks performed.
    pub checks: usize,
}

impl WellBehavedReport {
    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.fidelity_violations == 0
            && self.closure_violations == 0
            && self.monotonicity_violations == 0
    }
}

/// Empirically checks Definition 1 on every nonempty subset of `labels`
/// (so keep `labels` small: ≤ ~12 items).
pub fn check_well_behaved<I: WrapperInductor>(
    inductor: &I,
    labels: &ItemSet<I::Item>,
) -> WellBehavedReport {
    let items: Vec<I::Item> = labels.iter().copied().collect();
    let n = items.len();
    assert!(n <= 16, "exhaustive well-behavedness check is exponential");
    let mut report = WellBehavedReport::default();

    let subsets: Vec<ItemSet<I::Item>> = (1u32..(1 << n))
        .map(|mask| {
            (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| items[i])
                .collect()
        })
        .collect();

    let outputs: Vec<ItemSet<I::Item>> = subsets.iter().map(|s| inductor.extract(s)).collect();

    for (s, out) in subsets.iter().zip(&outputs) {
        report.checks += 1;
        // Fidelity.
        if !s.is_subset(out) {
            report.fidelity_violations += 1;
        }
        // Closure: for every extracted ℓ (within the label universe or not),
        // adding it must not change the output. Checking all extracted nodes
        // is the strong form; Definition 1 only needs it for ℓ ∈ φ(L).
        for &l in out.iter() {
            let mut s2 = s.clone();
            if s2.insert(l) {
                let out2 = inductor.extract(&s2);
                if &out2 != out {
                    report.closure_violations += 1;
                    break;
                }
            }
        }
    }

    // Monotonicity over comparable pairs.
    for (i, s1) in subsets.iter().enumerate() {
        for (j, s2) in subsets.iter().enumerate() {
            if i != j && s1.is_subset(s2) && !outputs[i].is_subset(&outputs[j]) {
                report.monotonicity_violations += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially well-behaved inductor: identity (returns the labels).
    struct Identity;
    impl WrapperInductor for Identity {
        type Item = u32;
        fn extract(&self, labels: &ItemSet<u32>) -> ItemSet<u32> {
            labels.clone()
        }
        fn rule(&self, labels: &ItemSet<u32>) -> String {
            format!("{labels:?}")
        }
        fn universe(&self) -> ItemSet<u32> {
            (0..10).collect()
        }
    }

    /// A non-monotone inductor: returns the complement parity set.
    struct Bad;
    impl WrapperInductor for Bad {
        type Item = u32;
        fn extract(&self, labels: &ItemSet<u32>) -> ItemSet<u32> {
            // Violates fidelity for odd labels and monotonicity in general.
            labels.iter().map(|&x| x / 2).collect()
        }
        fn rule(&self, _: &ItemSet<u32>) -> String {
            "bad".into()
        }
        fn universe(&self) -> ItemSet<u32> {
            (0..10).collect()
        }
    }

    #[test]
    fn identity_is_well_behaved() {
        let labels: ItemSet<u32> = [1, 2, 3, 4].into_iter().collect();
        let report = check_well_behaved(&Identity, &labels);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.checks, 15);
    }

    #[test]
    fn bad_inductor_is_flagged() {
        let labels: ItemSet<u32> = [1, 3, 5].into_iter().collect();
        let report = check_well_behaved(&Bad, &labels);
        assert!(!report.is_clean());
        assert!(report.fidelity_violations > 0);
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn check_rejects_large_sets() {
        let labels: ItemSet<u32> = (0..20).collect();
        let _ = check_well_behaved(&Identity, &labels);
    }
}
