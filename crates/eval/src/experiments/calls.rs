//! Figures 2(a) and 2(b): number of inductor calls made by TopDown,
//! BottomUp and Naive enumeration, per website.

use crate::parallel::executor;
use aw_core::WrapperLanguage;
use aw_enum::{bottom_up, naive_call_count, top_down};
use aw_induct::{LrInductor, NodeSet, XPathInductor};
use aw_sitegen::GeneratedSite;
use serde::Serialize;

/// Per-site call counts.
#[derive(Clone, Debug, Serialize)]
pub struct CallsRow {
    /// Site id.
    pub site: usize,
    /// Number of (possibly subsampled) labels.
    pub labels: usize,
    /// TopDown calls (Theorem 3: exactly k when distinct closed sets
    /// induce distinct wrappers; XPATH can exceed k, because subsets that
    /// differ only in a child number without its tag share one wrapper).
    pub top_down: usize,
    /// BottomUp calls (Theorem 2: ≤ k·|L|).
    pub bottom_up: usize,
    /// Naive calls (2^|L| − 1, computed analytically).
    pub naive: u64,
    /// Wrapper-space size k.
    pub k: usize,
}

/// The full figure: one row per site, x-axis ordered by TopDown calls
/// (as in the paper's plots).
#[derive(Clone, Debug, Serialize)]
pub struct CallsResult {
    /// Wrapper language used.
    pub language: String,
    /// Rows sorted by ascending TopDown calls.
    pub rows: Vec<CallsRow>,
}

/// Cap on labels fed to enumeration (keeps BottomUp tractable on
/// label-rich sites; the paper's sites have comparable label counts).
pub const LABEL_CAP: usize = 24;

/// Runs the experiment for one wrapper language.
pub fn run<F>(sites: &[GeneratedSite], labels_of: F, language: WrapperLanguage) -> CallsResult
where
    F: Fn(&GeneratedSite) -> NodeSet + Sync,
{
    let mut rows: Vec<CallsRow> = executor()
        .map(sites, |gs| {
            let labels = cap_labels(labels_of(gs), LABEL_CAP);
            if labels.is_empty() {
                return None;
            }
            let (td, bu, k) = match language {
                WrapperLanguage::XPath => {
                    let ind = XPathInductor::new(&gs.site);
                    let td = top_down(&ind, &labels);
                    let bu = bottom_up(&ind, &labels);
                    (td.inductor_calls, bu.inductor_calls, td.len())
                }
                WrapperLanguage::Lr => {
                    let ind = LrInductor::new(&gs.site);
                    let td = top_down(&ind, &labels);
                    let bu = bottom_up(&ind, &labels);
                    (td.inductor_calls, bu.inductor_calls, td.len())
                }
                WrapperLanguage::Table => {
                    let ind = aw_induct::DomTableInductor::new(&gs.site);
                    let td = top_down(&ind, &labels);
                    let bu = bottom_up(&ind, &labels);
                    (td.inductor_calls, bu.inductor_calls, td.len())
                }
                WrapperLanguage::Hlrt => unimplemented!("HLRT has no feature-based form"),
            };
            Some(CallsRow {
                site: gs.id,
                labels: labels.len(),
                top_down: td,
                bottom_up: bu,
                naive: naive_call_count(labels.len()),
                k,
            })
        })
        .into_iter()
        .flatten()
        .collect();
    rows.sort_by_key(|r| r.top_down);
    CallsResult {
        language: language.name().to_string(),
        rows,
    }
}

/// Evenly subsamples a label set down to `cap` (shared with the timing
/// experiment so Figures 2(a–c) use identical inputs).
pub(crate) fn cap_labels_pub(labels: NodeSet, cap: usize) -> NodeSet {
    cap_labels(labels, cap)
}

fn cap_labels(labels: NodeSet, cap: usize) -> NodeSet {
    if labels.len() <= cap {
        return labels;
    }
    let items: Vec<_> = labels.into_iter().collect();
    let stride = items.len() as f64 / cap as f64;
    (0..cap)
        .map(|i| items[(i as f64 * stride) as usize])
        .collect()
}

impl std::fmt::Display for CallsResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "# of wrapper calls for {} (one row per website)",
            self.language
        )?;
        writeln!(
            f,
            "{:>6} {:>7} {:>9} {:>10} {:>14} {:>5}",
            "site", "|L|", "TopDown", "BottomUp", "Naive", "k"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} {:>7} {:>9} {:>10} {:>14} {:>5}",
                r.site, r.labels, r.top_down, r.bottom_up, r.naive, r.k
            )?;
        }
        let med = |v: Vec<f64>| aw_align::stats::median(&v);
        writeln!(
            f,
            "median: TopDown={:.0} BottomUp={:.0} Naive={:.0}",
            med(self.rows.iter().map(|r| r.top_down as f64).collect()),
            med(self.rows.iter().map(|r| r.bottom_up as f64).collect()),
            med(self.rows.iter().map(|r| r.naive as f64).collect()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_annotate::{DictionaryAnnotator, MatchMode};
    use aw_sitegen::{generate_dealers, DealersConfig};

    #[test]
    fn calls_ordered_naive_worst() {
        let ds = generate_dealers(&DealersConfig::small(6, 17));
        let annotator = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
        let result = run(
            &ds.sites,
            |s| annotator.annotate(&s.site),
            WrapperLanguage::XPath,
        );
        assert!(!result.rows.is_empty());
        for r in &result.rows {
            assert!(r.top_down as u64 <= r.naive, "TopDown ≤ Naive: {r:?}");
            // BottomUp's k·|L| bound only undercuts 2^|L| once |L| grows.
            if r.labels >= 7 {
                assert!(r.bottom_up as u64 <= r.naive, "BottomUp ≤ Naive: {r:?}");
            }
            assert!(r.top_down >= r.k, "at least k calls: {r:?}");
            assert!(r.bottom_up <= r.k * r.labels, "Theorem 2: {r:?}");
        }
        // Sorted by TopDown.
        let tds: Vec<usize> = result.rows.iter().map(|r| r.top_down).collect();
        let mut sorted = tds.clone();
        sorted.sort_unstable();
        assert_eq!(tds, sorted);
        // Display renders.
        assert!(result.to_string().contains("TopDown"));
    }

    #[test]
    fn lr_variant_runs() {
        let ds = generate_dealers(&DealersConfig::small(3, 23));
        let annotator = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
        let result = run(
            &ds.sites,
            |s| annotator.annotate(&s.site),
            WrapperLanguage::Lr,
        );
        assert_eq!(result.language, "LR");
        for r in &result.rows {
            assert!(r.k >= 1);
        }
    }

    /// Figures 2(a) and 2(b) at quick scale (`AW_SCALE=quick`: 24 DEALERS
    /// sites, seed 0xDEA1, dictionary labels), one
    /// `(site, |L|, TopDown, BottomUp, k)` row per labeled site in the
    /// figure's order. The full-scale totals are LR TopDown 5 162,
    /// BottomUp 39 469, k 5 143 and XPATH TopDown 3 026, BottomUp 22 015,
    /// k 2 849.
    const QUICK_LR: [(usize, usize, usize, usize, usize); 24] = [
        (2, 2, 3, 4, 3),
        (22, 2, 3, 4, 3),
        (1, 3, 4, 9, 4),
        (15, 3, 5, 10, 5),
        (19, 3, 5, 10, 5),
        (3, 4, 6, 17, 6),
        (13, 4, 6, 18, 6),
        (17, 4, 6, 17, 6),
        (6, 5, 7, 28, 7),
        (8, 4, 7, 19, 7),
        (18, 4, 7, 19, 7),
        (7, 5, 8, 28, 8),
        (20, 4, 8, 21, 8),
        (11, 6, 10, 39, 10),
        (12, 7, 10, 56, 10),
        (14, 6, 10, 42, 10),
        (21, 7, 10, 55, 10),
        (16, 6, 11, 44, 11),
        (23, 6, 11, 46, 11),
        (9, 6, 12, 54, 12),
        (10, 8, 13, 75, 13),
        (0, 7, 14, 70, 14),
        (4, 9, 14, 101, 14),
        (5, 9, 16, 111, 16),
    ];
    const QUICK_XPATH: [(usize, usize, usize, usize, usize); 24] = [
        (2, 2, 3, 4, 3),
        (15, 3, 3, 6, 3),
        (22, 2, 3, 4, 3),
        (1, 3, 4, 9, 4),
        (6, 5, 4, 15, 4),
        (8, 4, 5, 13, 5),
        (17, 4, 5, 16, 5),
        (16, 6, 6, 30, 6),
        (18, 4, 6, 15, 6),
        (19, 3, 6, 10, 5),
        (20, 4, 6, 13, 5),
        (0, 7, 7, 42, 7),
        (3, 4, 7, 19, 7),
        (7, 5, 7, 21, 6),
        (14, 6, 8, 31, 7),
        (21, 7, 8, 39, 8),
        (5, 9, 9, 64, 9),
        (11, 6, 9, 37, 8),
        (12, 7, 9, 49, 9),
        (13, 4, 9, 22, 9),
        (23, 6, 9, 37, 8),
        (10, 8, 10, 65, 10),
        (9, 6, 11, 36, 8),
        (4, 9, 17, 104, 14),
    ];

    #[test]
    fn quick_scale_call_counts_are_pinned() {
        let ds = generate_dealers(&DealersConfig::small(24, 0xDEA1));
        let annotator = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
        for (language, want) in [
            (WrapperLanguage::Lr, &QUICK_LR[..]),
            (WrapperLanguage::XPath, &QUICK_XPATH[..]),
        ] {
            let got: Vec<_> = run(&ds.sites, |s| annotator.annotate(&s.site), language)
                .rows
                .iter()
                .map(|r| (r.site, r.labels, r.top_down, r.bottom_up, r.k))
                .collect();
            assert_eq!(got, want, "{language:?}");
        }
    }

    #[test]
    fn label_capping() {
        let many: NodeSet = (0..100u32)
            .map(|i| aw_dom::PageNode::new(0, aw_dom::NodeId(i)))
            .collect();
        assert_eq!(cap_labels(many.clone(), 24).len(), 24);
        assert_eq!(cap_labels(many.clone(), 200), many);
    }
}
