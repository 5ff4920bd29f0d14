//! Rank what you deploy: every ranked wrapper is scored on exactly the
//! extraction its portable rule produces on the training site, in all four
//! languages, and corpus learning is per-site learning.

use autowrappers::prelude::*;
use aw_eval::learn_model;
use aw_rank::{score_xpath_spaces, SiteSpace, WrapperScore};
use aw_sitegen::{
    generate_dealers, generate_disc, generate_products, DealersConfig, DiscConfig, GeneratedSite,
    ProductsConfig,
};

/// One sitegen corpus with its dictionary annotator and a ranking model
/// learned from its gold lists.
struct Corpus {
    name: &'static str,
    sites: Vec<Site>,
    annotator: DictionaryAnnotator,
    model: RankingModel,
}

impl Corpus {
    fn new(name: &'static str, sites: Vec<GeneratedSite>, annotator: DictionaryAnnotator) -> Self {
        let refs: Vec<&GeneratedSite> = sites.iter().collect();
        let model = learn_model(&refs, |s| annotator.annotate(&s.site));
        Corpus {
            name,
            sites: sites.into_iter().map(|gs| gs.site).collect(),
            annotator,
            model,
        }
    }

    /// The sites the annotator labels, with their labels.
    fn labeled(&self) -> Vec<(&Site, NodeSet)> {
        self.sites
            .iter()
            .map(|site| (site, self.annotator.annotate(site)))
            .filter(|(_, labels)| !labels.is_empty())
            .collect()
    }
}

fn corpora() -> Vec<Corpus> {
    let dealers = generate_dealers(&DealersConfig::small(4, 2101));
    let disc = generate_disc(&DiscConfig::small(3, 2102));
    let products = generate_products(&ProductsConfig::small(3, 2103));
    vec![
        Corpus::new(
            "DEALERS",
            dealers.sites,
            DictionaryAnnotator::new(dealers.dictionary.iter(), MatchMode::Contains),
        ),
        Corpus::new(
            "DISC",
            disc.sites,
            DictionaryAnnotator::new(disc.track_dictionary.iter(), MatchMode::Exact),
        ),
        Corpus::new(
            "PRODUCTS",
            products.sites,
            DictionaryAnnotator::new(products.dictionary.iter(), MatchMode::Contains),
        ),
    ]
}

/// Every bit of a score, so "equal" means bit-identical.
fn bits(score: &WrapperScore) -> (u64, u64, u64, Option<(u64, u64)>) {
    (
        score.annotation.to_bits(),
        score.publication.to_bits(),
        score.total.to_bits(),
        score
            .features
            .map(|f| (f.schema_size.to_bits(), f.alignment.to_bits())),
    )
}

fn deployed(rule: &LearnedRule, site: &Site) -> NodeSet {
    (0..site.page_count() as u32)
        .flat_map(|p| {
            rule.apply(site.page(p))
                .into_iter()
                .map(move |id| PageNode::new(p, id))
        })
        .collect()
}

#[test]
fn every_ranked_wrapper_deploys_the_extraction_it_was_scored_on() {
    for corpus in corpora() {
        let model = &corpus.model;
        let labeled = corpus.labeled();
        assert!(!labeled.is_empty(), "{}: nothing labeled", corpus.name);
        for language in WrapperLanguage::ALL {
            let engine = Engine::builder(model.clone()).language(language).build();
            let mut wrappers = 0;
            for (s, (site, labels)) in labeled.iter().enumerate() {
                let Ok(ranked) = engine.learn(site, labels) else {
                    continue;
                };
                for w in ranked.iter() {
                    let rule = w.portable_rule();
                    assert_eq!(
                        deployed(&rule, site),
                        w.extraction,
                        "{} site {s} {language}: rule {}",
                        corpus.name,
                        w.rule
                    );
                    wrappers += 1;
                }
            }
            assert!(
                wrappers > 0,
                "{} {language}: no wrapper ranked",
                corpus.name
            );
        }
    }
}

/// The multi-site batch path `learn_sites` once took for XPATH, kept as
/// an oracle: every site's rendered candidates evaluated through
/// site-sharded tries, then scored. It must reproduce each enumerated
/// extraction exactly and each score bit for bit.
#[test]
fn sharded_batch_scoring_reproduces_enumerated_extractions_and_scores() {
    for corpus in corpora() {
        let model = &corpus.model;
        let labeled = corpus.labeled();
        let engine = Engine::builder(model.clone()).build();
        let spaces: Vec<WrapperSpace<'_>> = labeled
            .iter()
            .map(|(site, labels)| engine.enumerate(site, labels).unwrap())
            .collect();
        let candidates: Vec<Vec<(usize, XPath)>> = spaces
            .iter()
            .map(|space| space.clone().into_result().xpath_candidates())
            .collect();
        let paths: Vec<Vec<XPath>> = candidates
            .iter()
            .map(|c| c.iter().map(|(_, xp)| xp.clone()).collect())
            .collect();
        let site_spaces: Vec<SiteSpace<'_>> = labeled
            .iter()
            .zip(&paths)
            .map(|((site, labels), paths)| SiteSpace {
                site,
                labels,
                paths,
            })
            .collect();
        for (threads, cache) in [(1, false), (2, true)] {
            let scored = score_xpath_spaces(model, &site_spaces, &Executor::new(threads), cache);
            for (s, ((space, cands), site_scored)) in
                spaces.iter().zip(&candidates).zip(&scored).enumerate()
            {
                assert_eq!(cands.len(), space.len(), "every XPATH rule parses back");
                let (site, labels) = &labeled[s];
                for ((i, xp), (extraction, score)) in cands.iter().zip(site_scored) {
                    let w = &space.wrappers()[*i];
                    let ctx = format!("{} site {s} threads {threads}: {xp}", corpus.name);
                    assert_eq!(extraction, &w.extraction, "{ctx}");
                    let direct = model.score(site, labels, &w.extraction);
                    assert_eq!(bits(score), bits(&direct), "{ctx}");
                }
            }
        }
    }
}

#[test]
fn learn_sites_is_per_site_learn_at_every_thread_count() {
    for corpus in corpora() {
        let (model, sites) = (&corpus.model, &corpus.sites);
        for language in WrapperLanguage::ALL {
            let solo_engine = Engine::builder(model.clone())
                .language(language)
                .threads(1)
                .build();
            for threads in [1, 2, 8] {
                let engine = Engine::builder(model.clone())
                    .language(language)
                    .annotator(corpus.annotator.clone())
                    .threads(threads)
                    .build();
                let batch = engine.learn_sites(sites).unwrap();
                assert_eq!(batch.len(), sites.len());
                for (s, (site, ranked)) in sites.iter().zip(&batch).enumerate() {
                    let ctx = format!("{} site {s} {language} threads {threads}", corpus.name);
                    let labels = corpus.annotator.annotate(site);
                    let Ok(solo) = solo_engine.learn(site, &labels) else {
                        assert!(ranked.is_empty(), "{ctx}");
                        continue;
                    };
                    assert_eq!(ranked.len(), solo.len(), "{ctx}");
                    assert_eq!(ranked.inductor_calls(), solo.inductor_calls(), "{ctx}");
                    for (a, b) in ranked.iter().zip(solo.iter()) {
                        assert_eq!(a.rule, b.rule, "{ctx}");
                        assert_eq!(a.seed, b.seed, "{ctx}");
                        assert_eq!(a.extraction, b.extraction, "{ctx}");
                        assert_eq!(bits(&a.score), bits(&b.score), "{ctx}: {}", a.rule);
                    }
                }
            }
        }
    }
}
