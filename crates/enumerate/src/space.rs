//! Common types for wrapper-space enumeration.
//!
//! §4: the wrapper space `W(L) = {φ(L₁) | L₁ ⊆ L}` is a set of *wrappers*,
//! and wrappers are identified by their output ("the score of a wrapper
//! only depends on its output", §6). [`EnumerationResult`] deduplicates by
//! extraction and remembers, for each distinct wrapper, the smallest label
//! subset that produced it plus the rule string.

use aw_induct::{ItemSet, WrapperInductor};
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt::Debug;

/// One distinct wrapper discovered during enumeration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnumeratedWrapper<T: Ord> {
    /// The (smallest seen) label subset that induces this wrapper.
    pub seed: ItemSet<T>,
    /// φ(seed): the wrapper's output over the site's pages.
    pub extraction: ItemSet<T>,
    /// The rule in the inductor's wrapper language (display form).
    pub rule: String,
}

/// The result of an enumeration run.
#[derive(Clone, Debug)]
pub struct EnumerationResult<T: Ord> {
    /// Distinct wrappers, in deterministic (extraction) order.
    pub wrappers: Vec<EnumeratedWrapper<T>>,
    /// How many times φ (the blackbox inductor) was invoked. This is the
    /// metric of Figures 2(a) and 2(b).
    pub inductor_calls: usize,
}

impl<T: Ord + Copy + Debug> EnumerationResult<T> {
    /// Number of distinct wrappers (the `k` of Theorems 2 and 3).
    pub fn len(&self) -> usize {
        self.wrappers.len()
    }

    /// True when no wrappers were enumerated (empty label set).
    pub fn is_empty(&self) -> bool {
        self.wrappers.is_empty()
    }

    /// The extractions only, as a set-of-sets (for equivalence checks).
    pub fn extraction_set(&self) -> ItemSet<ItemSet<T>> {
        self.wrappers.iter().map(|w| w.extraction.clone()).collect()
    }

    /// The candidate set as parsed xpaths, for shared-prefix batch
    /// evaluation: one `aw_xpath::BatchEvaluator` per site, applied to
    /// that site's pages (`aw_rank::score_xpath_spaces` takes the paths
    /// of many sites this way).
    ///
    /// Each entry pairs the wrapper's index in [`Self::wrappers`] with its
    /// rule parsed back from display form. Wrappers whose rules are not in
    /// the xpath fragment (LR/HLRT/TABLE languages) are skipped, so the
    /// result is empty for non-XPATH spaces.
    pub fn xpath_candidates(&self) -> Vec<(usize, aw_xpath::XPath)> {
        self.wrappers
            .iter()
            .enumerate()
            .filter_map(|(i, w)| aw_xpath::parse_xpath(&w.rule).ok().map(|xp| (i, xp)))
            .collect()
    }
}

/// Accumulates wrappers, deduplicating by extraction.
pub(crate) struct SpaceBuilder<T: Ord + Clone> {
    /// Each distinct extraction's smallest seed and its rule.
    by_extraction: BTreeMap<ItemSet<T>, (ItemSet<T>, String)>,
    calls: usize,
}

impl<T: Ord + Copy + Debug> SpaceBuilder<T> {
    pub(crate) fn new() -> Self {
        SpaceBuilder {
            by_extraction: BTreeMap::new(),
            calls: 0,
        }
    }

    /// Runs φ on `seed`, shows the extraction to `inspect`, and records
    /// the wrapper; returns what `inspect` returned.
    pub(crate) fn induce<I, R>(
        &mut self,
        inductor: &I,
        seed: &ItemSet<T>,
        inspect: impl FnOnce(&ItemSet<T>) -> R,
    ) -> R
    where
        I: WrapperInductor<Item = T>,
    {
        self.calls += 1;
        let (extraction, rule) = inductor.extract_with_rule(seed);
        let seen = inspect(&extraction);
        match self.by_extraction.entry(extraction) {
            Entry::Vacant(slot) => {
                slot.insert((seed.clone(), rule));
            }
            // Prefer the smallest (then lexicographically first) seed.
            Entry::Occupied(mut known) if seed.len() < known.get().0.len() => {
                known.insert((seed.clone(), rule));
            }
            Entry::Occupied(_) => {}
        }
        seen
    }

    pub(crate) fn finish(self) -> EnumerationResult<T> {
        EnumerationResult {
            wrappers: self
                .by_extraction
                .into_iter()
                .map(|(extraction, (seed, rule))| EnumeratedWrapper {
                    seed,
                    extraction,
                    rule,
                })
                .collect(),
            inductor_calls: self.calls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_induct::table::{example1_inductor, Cell};

    #[test]
    fn builder_dedups_by_extraction() {
        let t = example1_inductor();
        let mut b = SpaceBuilder::new();
        // Two different seeds inducing the same column wrapper.
        let s1: ItemSet<Cell> = [Cell::new(1, 1), Cell::new(2, 1)].into_iter().collect();
        let s2: ItemSet<Cell> = [Cell::new(1, 1), Cell::new(2, 1), Cell::new(4, 1)]
            .into_iter()
            .collect();
        b.induce(&t, &s1, |_| ());
        b.induce(&t, &s2, |_| ());
        let result = b.finish();
        assert_eq!(result.inductor_calls, 2);
        assert_eq!(result.len(), 1);
        assert_eq!(result.wrappers[0].seed, s1, "smallest seed kept");
        assert_eq!(result.wrappers[0].rule, "C1");
    }

    #[test]
    fn empty_result() {
        let r: EnumerationResult<Cell> = SpaceBuilder::new().finish();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.extraction_set().is_empty());
    }

    #[test]
    fn non_xpath_spaces_have_no_xpath_candidates() {
        // TABLE rules ("C1", "R2", ...) are not in the fragment.
        let t = example1_inductor();
        let labels = aw_induct::table::example1_labels();
        let space = crate::top_down(&t, &labels);
        assert!(!space.is_empty());
        assert!(space.xpath_candidates().is_empty());
    }

    #[test]
    fn xpath_candidates_replay_their_extractions_through_the_batch_engine() {
        use aw_dom::PageNode;
        use aw_induct::{Site, XPathInductor};

        let site = Site::from_html(&[
            "<div class='list'><tr><td><u>ALPHA</u><br>1 Elm</td></tr>\
             <tr><td><u>BETA</u><br>2 Oak</td></tr></div>",
            "<div class='list'><tr><td><u>GAMMA</u><br>3 Fir</td></tr></div>",
        ]);
        let ind = XPathInductor::new(&site);
        let labels: ItemSet<PageNode> = ["ALPHA", "BETA", "1 Elm"]
            .iter()
            .flat_map(|t| site.find_text(t))
            .collect();
        let space = crate::top_down(&ind, &labels);
        let candidates = space.xpath_candidates();
        assert_eq!(
            candidates.len(),
            space.len(),
            "every XPATH rule parses back"
        );

        // Evaluating the whole candidate set through the batch engine
        // reproduces each wrapper's enumerated extraction.
        let paths: Vec<aw_xpath::XPath> = candidates.iter().map(|(_, xp)| xp.clone()).collect();
        let batch = aw_xpath::BatchEvaluator::from_xpaths(paths.iter());
        let mut replayed: Vec<ItemSet<PageNode>> = vec![ItemSet::new(); paths.len()];
        for p in 0..site.page_count() as u32 {
            for (slot, nodes) in batch.evaluate(site.page(p)).into_iter().enumerate() {
                replayed[slot].extend(nodes.into_iter().map(|id| PageNode::new(p, id)));
            }
        }
        for ((wrapper_idx, xp), replay) in candidates.iter().zip(&replayed) {
            let wrapper = &space.wrappers[*wrapper_idx];
            assert_eq!(replay, &wrapper.extraction, "replay mismatch for {xp}");
        }
    }
}
