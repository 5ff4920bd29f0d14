//! The evaluation harness: train/test protocol of §7.
//!
//! "For each domain, the probability distribution of the two features,
//! namely, schema size and alignment, and the p and r of the annotators
//! are learned from a sample of half the websites." We train on the
//! even-indexed half and evaluate on the odd-indexed half.

use crate::metrics::{macro_average, prf1, PrF1};
use crate::parallel::executor;
use aw_core::{Engine, NtwConfig, WrapperLanguage};
use aw_induct::NodeSet;
use aw_rank::{
    estimate_from_counts, list_features, segment_site, AnnotatorModel, ListFeatures,
    PublicationModel, RankingMode, RankingModel, SiteTokens,
};
use aw_sitegen::GeneratedSite;
use serde::Serialize;

/// The extraction method being evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Method {
    /// Run the inductor once on all (noisy) labels.
    Naive,
    /// The noise-tolerant framework, full ranking.
    Ntw,
    /// NTW with only the annotation term (§7.3).
    NtwL,
    /// NTW with only the publication term (§7.3).
    NtwX,
}

impl Method {
    /// Display name as used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Method::Naive => "NAIVE",
            Method::Ntw => "NTW",
            Method::NtwL => "NTW-L",
            Method::NtwX => "NTW-X",
        }
    }

    /// The ranking mode, for NTW variants.
    pub fn mode(self) -> Option<RankingMode> {
        match self {
            Method::Naive => None,
            Method::Ntw => Some(RankingMode::Full),
            Method::NtwL => Some(RankingMode::AnnotationOnly),
            Method::NtwX => Some(RankingMode::PublicationOnly),
        }
    }
}

/// Splits a dataset into (train, test) halves by site parity.
pub fn split_half(sites: &[GeneratedSite]) -> (Vec<&GeneratedSite>, Vec<&GeneratedSite>) {
    let train = sites.iter().step_by(2).collect();
    let test = sites.iter().skip(1).step_by(2).collect();
    (train, test)
}

/// Learns the ranking model from training sites: annotator `(p, r)` from
/// label/gold counts, publication distributions from gold-list features.
pub fn learn_model<F>(train: &[&GeneratedSite], labels_of: F) -> RankingModel
where
    F: Fn(&GeneratedSite) -> NodeSet,
{
    let (mut tp, mut fp, mut gold_n, mut non_gold_n) = (0usize, 0usize, 0usize, 0usize);
    let mut features: Vec<ListFeatures> = Vec::new();
    for site in train {
        let labels = labels_of(site);
        let gold = site.gold();
        gold_n += gold.len();
        non_gold_n += site.site.text_nodes().len() - gold.len();
        for l in &labels {
            if gold.contains(l) {
                tp += 1;
            } else {
                fp += 1;
            }
        }
        if let Some(f) = list_features(&segment_site(&SiteTokens::new(&site.site), gold)) {
            features.push(f);
        }
    }
    let annotator = estimate_from_counts(gold_n, non_gold_n, tp, fp);
    let publication = if features.is_empty() {
        PublicationModel::learn(&[ListFeatures {
            schema_size: 3.0,
            alignment: 0.0,
        }])
    } else {
        PublicationModel::learn(&features)
    };
    RankingModel::new(annotator, publication)
}

/// Learns only the annotator model (used by the multi-type harness for
/// the secondary type).
pub fn learn_annotator<F>(train: &[&GeneratedSite], ty: usize, labels_of: F) -> AnnotatorModel
where
    F: Fn(&GeneratedSite) -> NodeSet,
{
    let (mut tp, mut fp, mut gold_n, mut non_gold_n) = (0usize, 0usize, 0usize, 0usize);
    for site in train {
        let labels = labels_of(site);
        let gold = &site.gold_types[ty];
        gold_n += gold.len();
        non_gold_n += site.site.text_nodes().len() - gold.len();
        for l in &labels {
            if gold.contains(l) {
                tp += 1;
            } else {
                fp += 1;
            }
        }
    }
    estimate_from_counts(gold_n, non_gold_n, tp, fp)
}

/// Per-method evaluation outcome over a set of sites.
#[derive(Clone, Debug, Serialize)]
pub struct EvalOutcome {
    /// Which method produced this outcome.
    pub method: Method,
    /// Wrapper language.
    pub language: String,
    /// Per-site scores (test half, site order).
    pub per_site: Vec<PrF1>,
    /// Macro-averaged precision/recall/F1 — the figure bars.
    pub mean: PrF1,
}

/// Evaluates one method over the test sites.
///
/// One [`Engine`] is built per call (language + ranking mode baked in)
/// and shared across the site-parallel map; NAIVE rides the same engine
/// through [`Engine::naive`].
pub fn evaluate<F>(
    test: &[&GeneratedSite],
    labels_of: F,
    language: WrapperLanguage,
    method: Method,
    model: &RankingModel,
) -> EvalOutcome
where
    F: Fn(&GeneratedSite) -> NodeSet + Sync,
{
    // NAIVE never ranks, so the mode default is irrelevant for it.
    let config = NtwConfig {
        mode: method.mode().unwrap_or(RankingMode::Full),
        ..Default::default()
    };
    let engine = Engine::builder(model.clone())
        .language(language)
        .config(config)
        .build();
    let per_site = executor().map(test, |site| {
        let labels = labels_of(site);
        let extraction = match method {
            Method::Naive => engine
                .naive(&site.site, &labels)
                .map(|w| w.extraction)
                .unwrap_or_default(),
            _ => engine
                .learn(&site.site, &labels)
                .ok()
                .and_then(|ranked| ranked.best().map(|w| w.extraction.clone()))
                .unwrap_or_default(),
        };
        prf1(&extraction, site.gold())
    });
    EvalOutcome {
        method,
        language: language.name().to_string(),
        mean: macro_average(&per_site),
        per_site,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_annotate::{DictionaryAnnotator, MatchMode};
    use aw_sitegen::{generate_dealers, DealersConfig};

    #[test]
    fn split_is_disjoint_and_covering() {
        let ds = generate_dealers(&DealersConfig::small(7, 1));
        let (train, test) = split_half(&ds.sites);
        assert_eq!(train.len(), 4);
        assert_eq!(test.len(), 3);
        let ids: std::collections::HashSet<usize> =
            train.iter().chain(&test).map(|s| s.id).collect();
        assert_eq!(ids.len(), 7);
    }

    #[test]
    fn model_learning_recovers_annotator_params() {
        let ds = generate_dealers(&DealersConfig::small(30, 2));
        let annotator = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
        let (train, _) = split_half(&ds.sites);
        let model = learn_model(&train, |s| annotator.annotate(&s.site));
        assert!(
            (0.1..=0.45).contains(&model.annotator.r),
            "r = {}",
            model.annotator.r
        );
        assert!(model.annotator.p > 0.9, "p = {}", model.annotator.p);
        // Publication model learned real features.
        assert!(model.publication.schema.len() > 5);
    }

    #[test]
    fn ntw_beats_naive_on_dealers_sample() {
        let ds = generate_dealers(&DealersConfig::small(16, 3));
        let annotator = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
        let labels_of = |s: &GeneratedSite| annotator.annotate(&s.site);
        let (train, test) = split_half(&ds.sites);
        let model = learn_model(&train, labels_of);
        let ntw = evaluate(
            &test,
            labels_of,
            WrapperLanguage::XPath,
            Method::Ntw,
            &model,
        );
        let naive = evaluate(
            &test,
            labels_of,
            WrapperLanguage::XPath,
            Method::Naive,
            &model,
        );
        assert!(
            ntw.mean.f1 > naive.mean.f1,
            "NTW {:?} vs NAIVE {:?}",
            ntw.mean,
            naive.mean
        );
        assert!(ntw.mean.precision > naive.mean.precision);
    }

    #[test]
    fn method_metadata() {
        assert_eq!(Method::Naive.name(), "NAIVE");
        assert_eq!(Method::Ntw.mode(), Some(RankingMode::Full));
        assert_eq!(Method::Naive.mode(), None);
        assert_eq!(Method::NtwL.name(), "NTW-L");
        assert_eq!(Method::NtwX.mode(), Some(RankingMode::PublicationOnly));
    }
}
