//! Wrapper scoring: `score(w) = log P(L | X) + log P(X)` (Equation 1),
//! with the NTW-L / NTW-X ablation variants of §7.3.

use crate::annotation::AnnotatorModel;
use crate::publication::{list_features, ListFeatures, PublicationModel};
use crate::segmentation::{segment_site, SiteTokens};
use aw_induct::{NodeSet, Site};

/// Which ranking components are active (§7.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RankingMode {
    /// Full NTW: both components.
    Full,
    /// NTW-L: only the labeling-error term `P(L | X)`.
    AnnotationOnly,
    /// NTW-X: only the list-goodness term `P(X)`.
    PublicationOnly,
}

impl RankingMode {
    /// The display name used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            RankingMode::Full => "NTW",
            RankingMode::AnnotationOnly => "NTW-L",
            RankingMode::PublicationOnly => "NTW-X",
        }
    }
}

/// A complete single-type ranking model for one domain.
#[derive(Clone, Debug)]
pub struct RankingModel {
    /// The annotator's `(p, r)` characteristics.
    pub annotator: AnnotatorModel,
    /// The learned publication model.
    pub publication: PublicationModel,
    /// Active components.
    pub mode: RankingMode,
}

/// Score breakdown for one candidate wrapper (useful for debugging and for
/// the ablation figures).
#[derive(Clone, Copy, Debug)]
pub struct WrapperScore {
    /// `log P(L | X)` (up to the wrapper-invariant constant).
    pub annotation: f64,
    /// `log P(X)`.
    pub publication: f64,
    /// The list features, when measurable.
    pub features: Option<ListFeatures>,
    /// The combined score under the model's mode.
    pub total: f64,
}

impl RankingModel {
    /// Creates a full-mode model.
    pub fn new(annotator: AnnotatorModel, publication: PublicationModel) -> Self {
        RankingModel {
            annotator,
            publication,
            mode: RankingMode::Full,
        }
    }

    /// Returns a copy with a different mode.
    pub fn with_mode(&self, mode: RankingMode) -> Self {
        let mut m = self.clone();
        m.mode = mode;
        m
    }

    /// Scores extraction `x` against label set `labels` on `site`.
    ///
    /// Builds the site's token stream for this one call; to score many
    /// candidates of one site, build it once and use
    /// [`RankingModel::score_with`].
    pub fn score(&self, site: &Site, labels: &NodeSet, x: &NodeSet) -> WrapperScore {
        self.score_with(&SiteTokens::new(site), labels, x)
    }

    /// [`RankingModel::score`] over a prebuilt token stream of the site.
    pub fn score_with(&self, tokens: &SiteTokens, labels: &NodeSet, x: &NodeSet) -> WrapperScore {
        let hits = x.iter().filter(|n| labels.contains(n)).count();
        let unlabeled = x.len() - hits;
        let annotation = self.annotator.log_likelihood(hits, unlabeled);

        let (publication, features) = match self.mode {
            RankingMode::AnnotationOnly => (0.0, None),
            _ => {
                let features = list_features(&segment_site(tokens, x));
                (self.publication.log_prob(features), features)
            }
        };

        let total = match self.mode {
            RankingMode::Full => annotation + publication,
            RankingMode::AnnotationOnly => annotation,
            RankingMode::PublicationOnly => publication,
        };
        WrapperScore {
            annotation,
            publication,
            features,
            total,
        }
    }

    /// Scores every candidate and returns indices sorted best-first
    /// (deterministic tie-break on index order).
    pub fn rank<'a>(
        &self,
        site: &Site,
        labels: &NodeSet,
        candidates: impl IntoIterator<Item = &'a NodeSet>,
    ) -> Vec<(usize, WrapperScore)> {
        let tokens = SiteTokens::new(site);
        let mut scored: Vec<(usize, WrapperScore)> = candidates
            .into_iter()
            .enumerate()
            .map(|(i, x)| (i, self.score_with(&tokens, labels, x)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.total
                .partial_cmp(&a.1.total)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publication::PublicationModel;

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

    fn business_model() -> RankingModel {
        // Trained on business-like lists: ~4 fields per record, aligned.
        let publication = PublicationModel::learn(&[
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
            ListFeatures {
                schema_size: 5.0,
                alignment: 2.0,
            },
        ]);
        RankingModel::new(AnnotatorModel::new(0.9, 0.6), publication)
    }

    #[test]
    fn section_3_ranking_example() {
        // w1 = names only (2 of 3 labeled), w3 = all text nodes (covers
        // all labels). The full model must rank w1 on top even though it
        // misses a label — the schema-size prior kills w3.
        let site = flat_site();
        let labels = x_of(&site, &["NAME1", "NAME2", "zip3"]); // 1 wrong label
        let w1 = x_of(&site, &["NAME1", "NAME2", "NAME3"]);
        let w3: NodeSet = site.text_nodes().iter().copied().collect();
        let model = business_model();
        let candidates = [w1.clone(), w3.clone()];
        let ranked = model.rank(&site, &labels, candidates.iter());
        assert_eq!(ranked[0].0, 0, "w1 (names) must win: {ranked:?}");
        // The annotation term *alone* prefers w3 (it covers all labels
        // with modest over-extraction penalty at r=0.6… verify direction).
        let s1 = model.score(&site, &labels, &w1);
        let s3 = model.score(&site, &labels, &w3);
        assert!(s1.publication > s3.publication);
    }

    #[test]
    fn modes_use_their_component_only() {
        let site = flat_site();
        let labels = x_of(&site, &["NAME1", "NAME2"]);
        let x = x_of(&site, &["NAME1", "NAME2", "NAME3"]);
        let model = business_model();
        let full = model.score(&site, &labels, &x);
        let l_only = model
            .with_mode(RankingMode::AnnotationOnly)
            .score(&site, &labels, &x);
        let x_only = model
            .with_mode(RankingMode::PublicationOnly)
            .score(&site, &labels, &x);
        assert_eq!(l_only.total, full.annotation);
        assert_eq!(x_only.total, full.publication);
        assert!((full.total - (full.annotation + full.publication)).abs() < 1e-12);
    }

    #[test]
    fn empty_extraction_scores_poorly() {
        let site = flat_site();
        let labels = x_of(&site, &["NAME1", "NAME2"]);
        let empty = NodeSet::new();
        let names = x_of(&site, &["NAME1", "NAME2", "NAME3"]);
        let model = business_model();
        let ranked = model.rank(&site, &labels, [&empty, &names]);
        assert_eq!(ranked[0].0, 1);
    }

    #[test]
    fn mode_names() {
        assert_eq!(RankingMode::Full.name(), "NTW");
        assert_eq!(RankingMode::AnnotationOnly.name(), "NTW-L");
        assert_eq!(RankingMode::PublicationOnly.name(), "NTW-X");
    }

    #[test]
    fn rank_is_deterministic_on_ties() {
        let site = flat_site();
        let labels = x_of(&site, &["NAME1"]);
        let x = x_of(&site, &["NAME1"]);
        let model = business_model();
        let ranked = model.rank(&site, &labels, [&x, &x, &x]);
        let order: Vec<usize> = ranked.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
