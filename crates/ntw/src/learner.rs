//! The noise-tolerant wrapper learner — §3's generate-and-test loop.
//!
//! 1. **Generate**: enumerate the wrapper space of the noisy label set
//!    (`BottomUp`, `TopDown` or `Naive`, crate `aw-enum`).
//! 2. **Test**: score every candidate with
//!    `log P(L | X) + log P(X)` (crate `aw-rank`) and rank.
//!
//! The public entry point is [`crate::Engine`] (`engine.learn`,
//! `engine.naive`). The generic [`learn_with_feature_based`] remains the
//! extension point for custom feature-based inductors outside the four
//! built-in languages.

use crate::config::{Enumeration, NtwConfig, WrapperLanguage};
use aw_dom::PageNode;
use aw_enum::{bottom_up, naive, top_down, EnumerationResult};
use aw_induct::{
    DomTableInductor, FeatureBased, HlrtInductor, ItemSet, LrInductor, NodeSet, Site,
    WrapperInductor, XPathInductor,
};
use aw_rank::{RankingModel, SiteTokens, WrapperScore};

/// One ranked candidate wrapper.
#[derive(Clone, Debug)]
pub struct LearnedWrapper {
    /// The wrapper's full extraction over the site.
    pub extraction: NodeSet,
    /// The rule in the wrapper language (display form).
    pub rule: String,
    /// The label subset that induced it.
    pub seed: NodeSet,
    /// Score breakdown.
    pub score: WrapperScore,
}

/// The learner's output: candidates ranked best-first plus cost counters.
#[derive(Clone, Debug)]
pub struct NtwOutcome {
    /// Ranked wrappers (best first; deterministic tie-break).
    pub ranked: Vec<LearnedWrapper>,
    /// Inductor calls spent during enumeration (Figures 2a/2b metric).
    pub inductor_calls: usize,
    /// Distinct wrappers enumerated (`k`).
    pub wrapper_space_size: usize,
}

impl NtwOutcome {
    /// The winning wrapper, if any label produced one.
    pub fn best(&self) -> Option<&LearnedWrapper> {
        self.ranked.first()
    }
}

/// Enumerates the wrapper space for one of the built-in languages
/// (inductor choice + enumeration algorithm + label subsampling).
pub(crate) fn enumerate_language(
    site: &Site,
    language: WrapperLanguage,
    labels: &NodeSet,
    config: &NtwConfig,
) -> EnumerationResult<PageNode> {
    let seed_labels = subsample(labels, config.max_enumeration_labels);
    match language {
        WrapperLanguage::XPath => {
            enumerate_feature_based(&XPathInductor::new(site), &seed_labels, config)
        }
        WrapperLanguage::Lr => {
            enumerate_feature_based(&LrInductor::new(site), &seed_labels, config)
        }
        WrapperLanguage::Table => {
            enumerate_feature_based(&DomTableInductor::new(site), &seed_labels, config)
        }
        WrapperLanguage::Hlrt => enumerate_blackbox(&HlrtInductor::new(site), &seed_labels, config),
    }
}

fn enumerate_feature_based<I>(
    inductor: &I,
    seed_labels: &ItemSet<PageNode>,
    config: &NtwConfig,
) -> EnumerationResult<PageNode>
where
    I: FeatureBased<Item = PageNode>,
{
    match config.enumeration {
        Enumeration::TopDown => top_down(inductor, seed_labels),
        Enumeration::BottomUp => bottom_up(inductor, seed_labels),
        Enumeration::Naive => naive(inductor, seed_labels),
    }
}

fn enumerate_blackbox<I>(
    inductor: &I,
    seed_labels: &ItemSet<PageNode>,
    config: &NtwConfig,
) -> EnumerationResult<PageNode>
where
    I: WrapperInductor<Item = PageNode>,
{
    match config.enumeration {
        Enumeration::Naive => naive(inductor, seed_labels),
        _ => bottom_up(inductor, seed_labels),
    }
}

/// Learner over any feature-based inductor (supports all enumerations).
pub fn learn_with_feature_based<I>(
    inductor: &I,
    site: &Site,
    labels: &NodeSet,
    model: &RankingModel,
    config: &NtwConfig,
) -> NtwOutcome
where
    I: FeatureBased<Item = PageNode>,
{
    let seed_labels = subsample(labels, config.max_enumeration_labels);
    let space = enumerate_feature_based(inductor, &seed_labels, config);
    // The config's ranking mode is authoritative (lets one model serve all
    // three §7.3 variants).
    rank_space(space, site, labels, &model.with_mode(config.mode))
}

/// The NAIVE baseline of §7.2, behind [`crate::Engine::naive`]: run the
/// inductor directly on all labels.
pub(crate) fn naive_impl(
    site: &Site,
    language: WrapperLanguage,
    labels: &NodeSet,
) -> LearnedWrapper {
    let (extraction, rule) = match language {
        WrapperLanguage::XPath => XPathInductor::new(site).extract_with_rule(labels),
        WrapperLanguage::Lr => LrInductor::new(site).extract_with_rule(labels),
        WrapperLanguage::Hlrt => HlrtInductor::new(site).extract_with_rule(labels),
        WrapperLanguage::Table => DomTableInductor::new(site).extract_with_rule(labels),
    };
    LearnedWrapper {
        extraction,
        rule,
        seed: labels.clone(),
        score: WrapperScore {
            annotation: 0.0,
            publication: 0.0,
            features: None,
            total: 0.0,
        },
    }
}

/// Sorts ranked wrappers best-first with the framework's deterministic
/// tie-break (score, then smaller extraction, then rule string).
pub(crate) fn sort_ranked(ranked: &mut [LearnedWrapper]) {
    ranked.sort_by(|a, b| {
        b.score
            .total
            .partial_cmp(&a.score.total)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.extraction.len().cmp(&b.extraction.len()))
            .then_with(|| a.rule.cmp(&b.rule))
    });
}

pub(crate) fn rank_space(
    space: EnumerationResult<PageNode>,
    site: &Site,
    labels: &NodeSet,
    model: &RankingModel,
) -> NtwOutcome {
    let inductor_calls = space.inductor_calls;
    let wrapper_space_size = space.len();
    // One token stream for the whole space, dropped with this call.
    let tokens = SiteTokens::new(site);
    let mut ranked: Vec<LearnedWrapper> = space
        .wrappers
        .into_iter()
        .map(|w| {
            let score = model.score_with(&tokens, labels, &w.extraction);
            LearnedWrapper {
                extraction: w.extraction,
                rule: w.rule,
                seed: w.seed,
                score,
            }
        })
        .collect();
    sort_ranked(&mut ranked);
    NtwOutcome {
        ranked,
        inductor_calls,
        wrapper_space_size,
    }
}

/// Evenly subsamples an ordered label set down to `cap` elements.
pub(crate) fn subsample(labels: &NodeSet, cap: usize) -> ItemSet<PageNode> {
    if labels.len() <= cap {
        return labels.clone();
    }
    let items: Vec<PageNode> = labels.iter().copied().collect();
    let stride = items.len() as f64 / cap as f64;
    (0..cap)
        .map(|i| items[(i as f64 * stride) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use aw_rank::{AnnotatorModel, ListFeatures, PublicationModel, RankingMode};

    /// Runs the whole pipeline through the [`Engine`] and returns its
    /// plain outcome.
    fn learn(
        site: &Site,
        language: WrapperLanguage,
        labels: &NodeSet,
        model: &RankingModel,
        config: &NtwConfig,
    ) -> NtwOutcome {
        Engine::builder(model.clone())
            .language(language)
            .config(config.clone())
            .build()
            .learn(site, labels)
            .expect("nonempty labels")
            .outcome()
            .clone()
    }

    /// Dealer-style site: 3 pages, names in <u>, plus footer noise.
    fn dealer_site() -> Site {
        let page = |names: &[&str]| -> String {
            let mut s = String::from("<div class='list'>");
            for (i, n) in names.iter().enumerate() {
                s.push_str(&format!(
                    "<tr><td><u>{n}</u><br>{i} Elm St.<br>CITY, ST 3870{i}<br>555-010{i}</td></tr>"
                ));
            }
            s.push_str("</div><div class='footer'>contact us</div>");
            s
        };
        Site::from_html(&[
            page(&["ALPHA FURNITURE", "BETA HOME", "GAMMA DECOR"]),
            page(&["DELTA BEDS", "EPSILON SOFAS"]),
            page(&["ZETA LIGHTS", "ETA RUGS", "THETA DESKS"]),
        ])
    }

    fn gold(site: &Site) -> NodeSet {
        // All <u> children.
        site.text_nodes()
            .iter()
            .copied()
            .filter(|&n| {
                let (doc, id) = site.resolve(n);
                doc.parent(id).and_then(|p| doc.tag(p)) == Some("u")
            })
            .collect()
    }

    fn model() -> RankingModel {
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
        ]);
        RankingModel::new(AnnotatorModel::new(0.93, 0.5), publication)
    }

    /// Noisy labels: half the names plus one address (false positive).
    fn noisy_labels(site: &Site) -> NodeSet {
        let g: Vec<PageNode> = gold(site).into_iter().collect();
        let mut labels: NodeSet = g.iter().step_by(2).copied().collect();
        let fp = site.find_text("0 Elm St.");
        labels.extend(fp);
        labels
    }

    #[test]
    fn ntw_recovers_gold_wrapper_from_noise() {
        let site = dealer_site();
        let labels = noisy_labels(&site);
        let out = learn(
            &site,
            WrapperLanguage::XPath,
            &labels,
            &model(),
            &NtwConfig::default(),
        );
        let best = out.best().expect("candidates");
        assert_eq!(best.extraction, gold(&site), "best rule: {}", best.rule);
        assert!(out.wrapper_space_size >= 3);
    }

    #[test]
    fn naive_overgeneralizes_on_same_input() {
        let site = dealer_site();
        let labels = noisy_labels(&site);
        let naive = Engine::builder(model())
            .language(WrapperLanguage::XPath)
            .build()
            .naive(&site, &labels)
            .unwrap();
        // NAIVE must cover all labels (fidelity) and therefore spill past
        // the gold set.
        assert!(labels.is_subset(&naive.extraction));
        assert!(naive.extraction.len() > gold(&site).len());
    }

    #[test]
    fn bottom_up_and_top_down_agree_on_best() {
        let site = dealer_site();
        let labels = noisy_labels(&site);
        let m = model();
        let td = learn(
            &site,
            WrapperLanguage::XPath,
            &labels,
            &m,
            &NtwConfig::with_enumeration(Enumeration::TopDown),
        );
        let bu = learn(
            &site,
            WrapperLanguage::XPath,
            &labels,
            &m,
            &NtwConfig::with_enumeration(Enumeration::BottomUp),
        );
        assert_eq!(td.best().unwrap().extraction, bu.best().unwrap().extraction);
        assert!(td.inductor_calls <= bu.inductor_calls);
    }

    #[test]
    fn lr_learner_also_recovers() {
        let site = dealer_site();
        let labels = noisy_labels(&site);
        let out = learn(
            &site,
            WrapperLanguage::Lr,
            &labels,
            &model(),
            &NtwConfig::default(),
        );
        let best = out.best().expect("candidates");
        assert_eq!(best.extraction, gold(&site), "best rule: {}", best.rule);
    }

    #[test]
    fn hlrt_falls_back_to_bottom_up() {
        let site = dealer_site();
        let labels = noisy_labels(&site);
        let out = learn(
            &site,
            WrapperLanguage::Hlrt,
            &labels,
            &model(),
            &NtwConfig::default(),
        );
        assert!(out.best().is_some());
        assert!(out.inductor_calls > 0);
    }

    #[test]
    fn annotation_only_mode_differs_from_full() {
        // With a high-recall annotator model, NTW-L alone may pick the
        // over-general wrapper; at minimum the scores must differ.
        let site = dealer_site();
        let labels = noisy_labels(&site);
        let m = model();
        let full = learn(
            &site,
            WrapperLanguage::XPath,
            &labels,
            &m,
            &NtwConfig::default(),
        );
        let l_only = learn(
            &site,
            WrapperLanguage::XPath,
            &labels,
            &m.with_mode(RankingMode::AnnotationOnly),
            &NtwConfig::with_mode(RankingMode::AnnotationOnly),
        );
        let f = full.best().unwrap();
        let l = l_only.best().unwrap();
        assert!((f.score.total - l.score.total).abs() > 1e-9 || f.extraction == l.extraction);
    }

    #[test]
    fn subsample_caps_enumeration_labels() {
        let site = dealer_site();
        let labels = gold(&site); // 8 labels
        let cfg = NtwConfig {
            max_enumeration_labels: 3,
            ..Default::default()
        };
        let out = learn(&site, WrapperLanguage::XPath, &labels, &model(), &cfg);
        // Still finds the gold wrapper from 3 seeds.
        assert_eq!(out.best().unwrap().extraction, gold(&site));
    }
}
