//! The web-publication model — `P(X)` of §6 and §6.1.
//!
//! Two domain-independent features are computed on the record segments of
//! a candidate list `X`:
//!
//! 1. **Schema size** — the number of `#text` tokens in the longest common
//!    substring between pairs of segments (≈ attributes present in every
//!    record). Aggregated as the median over sampled pairs.
//! 2. **Alignment** — the maximum pairwise edit distance between segments
//!    (0 for a perfectly repeating list).
//!
//! Their value distributions are domain-specific and learned by kernel
//! density estimation from sample sites (§6.1); `P(X)` is the product of
//! the two feature probabilities.

use crate::segmentation::{Segments, TEXT_TOKEN};
use aw_align::{
    edit_distance, edit_distance_pinned, longest_common_substring, KernelDensity, Rows, NO_PIN,
};

/// Cap on the number of segments examined pairwise; larger segment lists
/// are down-sampled evenly (deterministically).
pub const MAX_SEGMENTS_FOR_PAIRS: usize = 24;

/// Sampled pairs `i < j` of at most [`MAX_SEGMENTS_FOR_PAIRS`] segments.
const MAX_PAIRS: usize = MAX_SEGMENTS_FOR_PAIRS * (MAX_SEGMENTS_FOR_PAIRS - 1) / 2;

/// The two feature values of one candidate list on one site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ListFeatures {
    /// Median over pairs of the text-node count of the pairwise longest
    /// common substring.
    pub schema_size: f64,
    /// Maximum pairwise edit distance.
    pub alignment: f64,
}

/// Computes the features of a segment list; `None` if fewer than two
/// segments exist (single-entity lists have no repeating structure to
/// measure — Appendix B.2).
pub fn list_features(segments: &Segments<'_>) -> Option<ListFeatures> {
    list_features_pinned(segments, 1)
}

/// As [`list_features`] but with the multi-type alignment constraint
/// (Appendix A): nodes of each type must align with each other.
/// `pin_indel_cost` is the penalty for dropping a typed node (use 1 for
/// single-type, where pins are all equal anyway).
///
/// The kernels run once per distinct ordered pair of segment contents,
/// not once per sampled pair: the sampled segments are first put into
/// classes of equal tokens (and equal pins, when a pin table is in
/// use), and every pair `i < j` then reads the memo of its
/// `(class(i), class(j))`. The key is ordered because the longest
/// common substring is the earliest maximal match in the first
/// segment, whose text tokens are the ones counted. The schema-size
/// median is read from the memo's `(value, multiplicity)` counts, the
/// same middle values a sort of every pair's value picks, so the
/// features equal the all-pairs computation bit for bit. Besides the
/// pin table a single-type list builds when `pin_indel_cost > 1`, only
/// the kernels' shared dynamic-programming rows are allocated.
pub fn list_features_pinned(
    segments: &Segments<'_>,
    pin_indel_cost: usize,
) -> Option<ListFeatures> {
    let n = segments.len();
    if n < 2 {
        return None;
    }
    // Single-type segments are pinned only at their boundary (type 0),
    // which the plain distance handles alike when dropping a pin costs
    // 1; the pinned kernel runs when that cost is higher or a segment
    // holds another type.
    let pins = (pin_indel_cost > 1 || segments.is_typed()).then(|| segments.pin_table());
    let pins_of = |s: usize| pins.as_ref().map(|pins| &pins[segments.range(s)]);
    let m = n.min(MAX_SEGMENTS_FOR_PAIRS);

    // Each sampled segment's class, and the first segment of each class.
    let mut class = [0usize; MAX_SEGMENTS_FOR_PAIRS];
    let mut reps = [0usize; MAX_SEGMENTS_FOR_PAIRS];
    let mut classes = 0;
    for (i, class) in class[..m].iter_mut().enumerate() {
        let s = sampled(n, i);
        let same = |&r: &usize| {
            segments.get(r).tokens == segments.get(s).tokens && pins_of(r) == pins_of(s)
        };
        *class = match reps[..classes].iter().position(same) {
            Some(c) => c,
            None => {
                reps[classes] = s;
                classes += 1;
                classes - 1
            }
        };
    }

    let single_type = |pins: &[u32]| pins.iter().all(|&p| p == NO_PIN || p == 0);
    let mut rows = Rows::default();
    // The text count of the longest common substring, and the edit
    // distance, of segments `a` and `b`.
    let mut kernels = |a: usize, b: usize| {
        kernel_pair();
        let (sa, sb) = (segments.get(a), segments.get(b));
        let range = longest_common_substring(sa.tokens, sb.tokens, &mut rows);
        let texts = sa.tokens[range]
            .iter()
            .filter(|&&t| t == TEXT_TOKEN)
            .count();
        let d = match (pins_of(a), pins_of(b)) {
            (Some(pa), Some(pb)) if pin_indel_cost > 1 || !single_type(pa) || !single_type(pb) => {
                edit_distance_pinned(sa.tokens, sb.tokens, pa, pb, pin_indel_cost, &mut rows)
            }
            _ => edit_distance(sa.tokens, sb.tokens, &mut rows),
        };
        (texts as u32, d)
    };

    // `slot[c][d]` is 1 + the memo index of class pair `(c, d)`, or 0;
    // a memo entry is `(LCS text count, pairs i < j of its classes)`.
    let mut slot = [[0u16; MAX_SEGMENTS_FOR_PAIRS]; MAX_SEGMENTS_FOR_PAIRS];
    let mut memo = [(0u32, 0u32); MAX_PAIRS];
    let mut entries = 0;
    let mut max_align = 0;
    for i in 0..m {
        for j in (i + 1)..m {
            let slot = &mut slot[class[i]][class[j]];
            if *slot == 0 {
                let (texts, d) = kernels(reps[class[i]], reps[class[j]]);
                max_align = max_align.max(d);
                memo[entries] = (texts, 0);
                entries += 1;
                *slot = entries as u16;
            }
            memo[usize::from(*slot) - 1].1 += 1;
        }
    }
    Some(ListFeatures {
        schema_size: median_of_counts(&mut memo[..entries], m * (m - 1) / 2),
        alignment: max_align as f64,
    })
}

/// The median of `total` values given as `(value, multiplicity)`
/// entries: the middle value, or the mean of the two middle values when
/// `total` is even, exactly as [`aw_align::stats::median`] computes it
/// over the expanded values.
fn median_of_counts(entries: &mut [(u32, u32)], total: usize) -> f64 {
    entries.sort_unstable_by_key(|&(value, _)| value);
    let at = |rank: usize| {
        let mut seen = 0;
        for &(value, count) in entries.iter() {
            seen += count as usize;
            if rank < seen {
                return f64::from(value);
            }
        }
        unreachable!("rank {rank} past {total} values")
    };
    if total % 2 == 1 {
        at(total / 2)
    } else {
        (at(total / 2 - 1) + at(total / 2)) / 2.0
    }
}

#[cfg(test)]
thread_local! {
    /// Segment pairs the kernels ran on, on this thread.
    static KERNEL_PAIRS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One kernel evaluation of a segment pair; counted in tests, free
/// otherwise.
#[inline(always)]
fn kernel_pair() {
    #[cfg(test)]
    KERNEL_PAIRS.with(|c| c.set(c.get() + 1));
}

/// Kernel pair evaluations made on this thread so far.
#[cfg(test)]
pub(crate) fn kernel_pairs() -> usize {
    KERNEL_PAIRS.with(std::cell::Cell::get)
}

/// The index of the `i`-th sampled segment of `n`: every segment when
/// there are at most [`MAX_SEGMENTS_FOR_PAIRS`], otherwise an even
/// (deterministic) stride so pairwise work stays bounded.
fn sampled(n: usize, i: usize) -> usize {
    if n <= MAX_SEGMENTS_FOR_PAIRS {
        return i;
    }
    let stride = n as f64 / MAX_SEGMENTS_FOR_PAIRS as f64;
    (i as f64 * stride) as usize
}

/// Which feature kernels participate in `P(X)` — an ablation hook for
/// the feature-level analysis (finer than the paper's NTW-X).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KernelOverride {
    /// Both features (the paper's model).
    #[default]
    None,
    /// Drop the schema-size kernel.
    IgnoreSchema,
    /// Drop the alignment kernel.
    IgnoreAlignment,
}

/// The learned publication model: KDE distributions of the two features.
#[derive(Clone, Debug)]
pub struct PublicationModel {
    /// Density of schema sizes observed on (gold) training lists.
    pub schema: KernelDensity,
    /// Density of alignment values observed on training lists.
    pub alignment: KernelDensity,
    /// Log-probability assigned when a candidate has no measurable
    /// features (fewer than two segments).
    pub featureless_log_prob: f64,
    /// Feature-kernel ablation (default: use both).
    pub kernel_override: KernelOverride,
}

impl PublicationModel {
    /// Learns the model from per-site gold features (§6.1: "we take a
    /// small sample of websites, look at the list of segments on each
    /// website and learn the distribution").
    pub fn learn(samples: &[ListFeatures]) -> Self {
        assert!(
            !samples.is_empty(),
            "publication model needs training features"
        );
        let schema: Vec<f64> = samples.iter().map(|f| f.schema_size).collect();
        let align: Vec<f64> = samples.iter().map(|f| f.alignment).collect();
        PublicationModel {
            schema: KernelDensity::fit(&schema),
            alignment: KernelDensity::fit(&align),
            featureless_log_prob: -40.0,
            kernel_override: KernelOverride::None,
        }
    }

    /// `log P(X)` for a candidate with the given features.
    pub fn log_prob(&self, features: Option<ListFeatures>) -> f64 {
        match features {
            Some(f) => {
                let schema = match self.kernel_override {
                    KernelOverride::IgnoreSchema => 0.0,
                    _ => self.schema.log_density(f.schema_size),
                };
                let align = match self.kernel_override {
                    KernelOverride::IgnoreAlignment => 0.0,
                    _ => self.alignment.log_density(f.alignment),
                };
                schema + align
            }
            None => self.featureless_log_prob,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segmentation::{segment_site, SiteTokens};
    use aw_induct::{NodeSet, Site};

    fn flat_site() -> Site {
        Site::from_html(&["<ul>\
             <li>addr1</li><li>NAME1</li><li>zip1</li><li>ph1</li>\
             <li>addr2</li><li>NAME2</li><li>zip2</li><li>ph2</li>\
             <li>addr3</li><li>NAME3</li><li>zip3</li><li>ph3</li>\
             </ul>"])
    }

    fn x_of(site: &Site, texts: &[&str]) -> NodeSet {
        texts.iter().flat_map(|t| site.find_text(t)).collect()
    }

    fn features(site: &Site, x: &NodeSet) -> Option<ListFeatures> {
        list_features(&segment_site(&SiteTokens::new(site), x))
    }

    #[test]
    fn good_list_features_match_section_3() {
        // X1 = names only: schema size 4 (name, addr, zip, phone per
        // record), perfect alignment.
        let site = flat_site();
        let f = features(&site, &x_of(&site, &["NAME1", "NAME2", "NAME3"])).unwrap();
        assert_eq!(f.schema_size, 4.0);
        assert_eq!(f.alignment, 0.0);
    }

    #[test]
    fn all_text_list_has_schema_size_one() {
        // X3 = every cell: each "record" is a single cell → schema size 1,
        // still perfectly aligned (§3).
        let site = flat_site();
        let all: NodeSet = site.text_nodes().iter().copied().collect();
        let f = features(&site, &all).unwrap();
        assert_eq!(f.schema_size, 1.0);
        assert_eq!(f.alignment, 0.0);
    }

    #[test]
    fn irregular_list_has_positive_alignment() {
        // X2-style: names and zips as boundaries → alternating gap sizes.
        let site = flat_site();
        let x = x_of(&site, &["NAME1", "zip1", "NAME2", "zip2", "NAME3", "zip3"]);
        let f = features(&site, &x).unwrap();
        assert!(f.alignment > 0.0, "{f:?}");
    }

    #[test]
    fn featureless_when_single_segment() {
        let site = flat_site();
        let tokens = SiteTokens::new(&site);
        let segs = segment_site(&tokens, &x_of(&site, &["NAME1", "NAME2"]));
        assert_eq!(segs.len(), 1);
        assert!(list_features(&segs).is_none());
    }

    #[test]
    fn model_prefers_gold_like_lists() {
        // Train on schema≈4 / align≈0; the good list must out-score both
        // the schema-1 list and an irregular list.
        let site = flat_site();
        let train = vec![
            ListFeatures {
                schema_size: 4.0,
                alignment: 0.0,
            },
            ListFeatures {
                schema_size: 4.0,
                alignment: 1.0,
            },
            ListFeatures {
                schema_size: 3.0,
                alignment: 0.0,
            },
        ];
        let model = PublicationModel::learn(&train);

        let good = features(&site, &x_of(&site, &["NAME1", "NAME2", "NAME3"])).unwrap();
        let all: NodeSet = site.text_nodes().iter().copied().collect();
        let schema1 = features(&site, &all).unwrap();
        let irregular = features(
            &site,
            &x_of(&site, &["NAME1", "zip1", "NAME2", "zip2", "NAME3", "zip3"]),
        )
        .unwrap();

        let g = model.log_prob(Some(good));
        let s1 = model.log_prob(Some(schema1));
        let irr = model.log_prob(Some(irregular));
        assert!(g > s1, "good {g} vs schema-1 {s1}");
        assert!(g > irr, "good {g} vs irregular {irr}");
        assert!(g > model.log_prob(None));
    }

    #[test]
    fn sampling_caps_pairwise_work() {
        // 500 identical one-item records: 499 segments, sampled to 24.
        let html = format!("<ul>{}</ul>", "<li>x</li>".repeat(500));
        let site = Site::from_html(&[html]);
        let all: NodeSet = site.text_nodes().iter().copied().collect();
        let tokens = SiteTokens::new(&site);
        let segs = segment_site(&tokens, &all);
        assert_eq!(segs.len(), 499);
        let before = kernel_pairs();
        let f = list_features(&segs).unwrap();
        // 276 sampled pairs, one class: the kernels run once.
        assert_eq!(kernel_pairs() - before, 1);
        assert_eq!(f.alignment, 0.0);
        assert_eq!(f.schema_size, 1.0);
        assert_eq!(sampled(499, MAX_SEGMENTS_FOR_PAIRS - 1), 478);
    }

    #[test]
    #[should_panic(expected = "training features")]
    fn empty_training_panics() {
        let _ = PublicationModel::learn(&[]);
    }
}
