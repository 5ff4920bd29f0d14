//! The unified pipeline API: one [`Engine`], four staged calls.
//!
//! The paper's pipeline — **annotate → enumerate → rank → extract**
//! (§3–§6) — used to be spread over free functions in five crates, each
//! caller re-threading the same `(model, language, config, pool)` tuple.
//! An `Engine` is built once from those ingredients and exposes the
//! stages as typed methods:
//!
//! ```text
//! EngineBuilder ──build()──▶ Engine
//!   engine.annotate(&site)            → NodeSet          (noisy labels)
//!   engine.enumerate(&site, &labels)  → WrapperSpace     (the W(L) of §4)
//!   engine.rank(space)                → RankedWrappers   (Equation 1, §6)
//!   ranked.best()?.compile()          → CompiledWrapper  (portable artifact)
//! ```
//!
//! `engine.learn` fuses enumerate + rank for the common case, and
//! [`Engine::learn_sites`] runs that same `learn` on every site of a
//! corpus, site-parallel through the engine's executor. Every language
//! ranks the extractions enumeration produced, and each of them is what
//! the wrapper's portable rule extracts when deployed, so there is no
//! second extraction pass.
//!
//! Every fallible stage returns `Result<_, AwError>` — no more
//! `Option`-or-panic at stage boundaries.

use crate::artifact::CompiledWrapper;
use crate::config::{NtwConfig, WrapperLanguage};
use crate::error::AwError;
use crate::learner::{enumerate_language, naive_impl, rank_space, LearnedWrapper, NtwOutcome};
use crate::rule::LearnedRule;
use aw_dom::PageNode;
use aw_enum::{EnumeratedWrapper, EnumerationResult};
use aw_induct::{NodeSet, Site};
use aw_pool::Executor;
use aw_rank::RankingModel;

/// A source of (noisy) labels: the *annotate* stage of the pipeline.
///
/// Implemented by `aw_annotate`'s dictionary and marker annotators and by
/// any `Fn(&Site) -> NodeSet` closure (use a closure to adapt annotators
/// that need extra inputs, like `SyntheticAnnotator`'s gold set).
pub trait Annotator: Send + Sync {
    /// Labels every page of the site.
    fn annotate(&self, site: &Site) -> NodeSet;
}

impl<F> Annotator for F
where
    F: Fn(&Site) -> NodeSet + Send + Sync,
{
    fn annotate(&self, site: &Site) -> NodeSet {
        self(site)
    }
}

impl Annotator for aw_annotate::DictionaryAnnotator {
    fn annotate(&self, site: &Site) -> NodeSet {
        aw_annotate::DictionaryAnnotator::annotate(self, site)
    }
}

impl Annotator for aw_annotate::MarkerAnnotator {
    fn annotate(&self, site: &Site) -> NodeSet {
        aw_annotate::MarkerAnnotator::annotate(self, site)
    }
}

/// Builds an [`Engine`]; every knob has a sensible default except the
/// ranking model.
pub struct EngineBuilder {
    model: RankingModel,
    language: WrapperLanguage,
    config: NtwConfig,
    executor: Option<Executor>,
    annotator: Option<Box<dyn Annotator>>,
}

impl EngineBuilder {
    /// Starts a builder from the ranking model (annotator `(p, r)` +
    /// publication prior — the domain knowledge of §6).
    pub fn new(model: RankingModel) -> EngineBuilder {
        EngineBuilder {
            model,
            language: WrapperLanguage::XPath,
            config: NtwConfig::default(),
            executor: None,
            annotator: None,
        }
    }

    /// The wrapper language to learn (default: XPATH).
    pub fn language(mut self, language: WrapperLanguage) -> Self {
        self.language = language;
        self
    }

    /// The full learner configuration (enumeration algorithm, ranking
    /// mode, label subsampling cap).
    pub fn config(mut self, config: NtwConfig) -> Self {
        self.config = config;
        self
    }

    /// The label source for [`Engine::annotate`] / [`Engine::learn_sites`].
    pub fn annotator(mut self, annotator: impl Annotator + 'static) -> Self {
        self.annotator = Some(Box::new(annotator));
        self
    }

    /// An explicit executor for parallel stages (default:
    /// [`Executor::global`], the process-wide work-stealing pool
    /// honouring `AW_THREADS`). Passing a dedicated executor isolates
    /// this engine's parallelism from the rest of the process.
    pub fn executor(mut self, executor: Executor) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Shorthand for [`EngineBuilder::executor`] with a dedicated pool
    /// of a fixed thread count.
    pub fn threads(self, threads: usize) -> Self {
        self.executor(Executor::new(threads))
    }

    /// Finishes the engine.
    pub fn build(self) -> Engine {
        Engine {
            model: self.model,
            language: self.language,
            config: self.config,
            executor: self.executor.unwrap_or_else(|| Executor::global().clone()),
            annotator: self.annotator,
        }
    }
}

/// The unified pipeline engine: annotate → enumerate → rank → compile.
///
/// Build once via [`Engine::builder`], share freely (`&Engine` is `Sync`);
/// all state is configuration, so one engine serves any number of sites
/// and threads.
pub struct Engine {
    model: RankingModel,
    language: WrapperLanguage,
    config: NtwConfig,
    executor: Executor,
    annotator: Option<Box<dyn Annotator>>,
}

impl Engine {
    /// Starts an [`EngineBuilder`] from a ranking model.
    pub fn builder(model: RankingModel) -> EngineBuilder {
        EngineBuilder::new(model)
    }

    /// The configured wrapper language.
    pub fn language(&self) -> WrapperLanguage {
        self.language
    }

    /// The learner configuration.
    pub fn config(&self) -> &NtwConfig {
        &self.config
    }

    /// The ranking model (without the config's mode applied).
    pub fn model(&self) -> &RankingModel {
        &self.model
    }

    /// The executor driving parallel stages.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Always `true`: the default of the compiled wrappers' cross-page
    /// template cache. Kept only because the `e2e_bench` learn job still
    /// reads it; learning itself runs no batch xpath stage.
    pub fn template_cache_enabled(&self) -> bool {
        true
    }

    /// **Stage 1 — annotate**: labels the site with the configured
    /// annotator.
    ///
    /// Errors with [`AwError::NoAnnotator`] when the engine was built
    /// without one, and [`AwError::NoLabels`] when the annotator fires on
    /// nothing (the pipeline cannot proceed from zero labels).
    pub fn annotate(&self, site: &Site) -> Result<NodeSet, AwError> {
        let annotator = self.annotator.as_deref().ok_or(AwError::NoAnnotator)?;
        let labels = annotator.annotate(site);
        if labels.is_empty() {
            return Err(AwError::NoLabels);
        }
        Ok(labels)
    }

    /// **Stage 2 — enumerate**: the wrapper space `W(L)` of the noisy
    /// labels (§4), using the configured enumeration algorithm.
    pub fn enumerate<'s>(
        &self,
        site: &'s Site,
        labels: &NodeSet,
    ) -> Result<WrapperSpace<'s>, AwError> {
        if labels.is_empty() {
            return Err(AwError::NoLabels);
        }
        let result = enumerate_language(site, self.language, labels, &self.config);
        if result.is_empty() {
            return Err(AwError::EmptyWrapperSpace);
        }
        Ok(WrapperSpace {
            site,
            language: self.language,
            labels: labels.clone(),
            result,
        })
    }

    /// **Stage 3 — rank**: scores every candidate with
    /// `log P(L | X) + log P(X)` (Equation 1) and sorts best-first.
    pub fn rank<'s>(&self, space: WrapperSpace<'s>) -> Result<RankedWrappers<'s>, AwError> {
        let WrapperSpace {
            site,
            language,
            labels,
            result,
        } = space;
        let outcome = rank_space(
            result,
            site,
            &labels,
            &self.model.with_mode(self.config.mode),
        );
        Ok(RankedWrappers {
            site,
            language,
            outcome,
        })
    }

    /// Enumerate + rank in one call — the §3 generate-and-test loop.
    pub fn learn<'s>(
        &self,
        site: &'s Site,
        labels: &NodeSet,
    ) -> Result<RankedWrappers<'s>, AwError> {
        let space = self.enumerate(site, labels)?;
        self.rank(space)
    }

    /// Annotates and learns every site of a corpus in one batch.
    ///
    /// Requires an annotator. Sites where the annotator fires on nothing
    /// yield an empty [`RankedWrappers`] (a corpus run must not abort on
    /// one barren site). See [`Engine::learn_sites_labeled`] for the
    /// execution strategy.
    pub fn learn_sites<'s>(&self, sites: &'s [Site]) -> Result<Vec<RankedWrappers<'s>>, AwError> {
        let annotator = self.annotator.as_deref().ok_or(AwError::NoAnnotator)?;
        let labels: Vec<NodeSet> = self.executor.map(sites, |site| annotator.annotate(site));
        let labeled: Vec<(&Site, &NodeSet)> = sites.iter().zip(&labels).collect();
        self.learn_sites_labeled(&labeled)
    }

    /// Learns every `(site, labels)` pair of a corpus in one batch.
    ///
    /// Each site is learned by [`Engine::learn`], site-parallel through
    /// the engine's executor, whatever the language. So `out[i]` equals
    /// `learn(labeled[i])`: the same rules, extractions and scores, in
    /// input order, at every thread count. Sites with empty labels (or an
    /// empty wrapper space) yield an empty [`RankedWrappers`].
    pub fn learn_sites_labeled<'s>(
        &self,
        labeled: &[(&'s Site, &NodeSet)],
    ) -> Result<Vec<RankedWrappers<'s>>, AwError> {
        Ok(self.executor.map(labeled, |&(site, labels)| {
            self.learn(site, labels)
                .unwrap_or_else(|_| self.empty_ranked(site))
        }))
    }

    /// The NAIVE baseline of §7.2: the inductor run once on all labels.
    pub fn naive(&self, site: &Site, labels: &NodeSet) -> Result<LearnedWrapper, AwError> {
        if labels.is_empty() {
            return Err(AwError::NoLabels);
        }
        Ok(naive_impl(site, self.language, labels))
    }

    fn empty_ranked<'s>(&self, site: &'s Site) -> RankedWrappers<'s> {
        RankedWrappers {
            site,
            language: self.language,
            outcome: NtwOutcome {
                ranked: Vec::new(),
                inductor_calls: 0,
                wrapper_space_size: 0,
            },
        }
    }
}

/// The enumerated wrapper space `W(L)` of one site — the typed handle
/// between the *enumerate* and *rank* stages.
#[derive(Clone, Debug)]
pub struct WrapperSpace<'s> {
    site: &'s Site,
    language: WrapperLanguage,
    labels: NodeSet,
    result: EnumerationResult<PageNode>,
}

impl<'s> WrapperSpace<'s> {
    /// The site the space was enumerated on.
    pub fn site(&self) -> &'s Site {
        self.site
    }

    /// The wrapper language.
    pub fn language(&self) -> WrapperLanguage {
        self.language
    }

    /// The labels the space was enumerated from (ranking scores against
    /// the full set, not the subsampled enumeration seed).
    pub fn labels(&self) -> &NodeSet {
        &self.labels
    }

    /// Number of distinct wrappers (the `k` of Theorems 2–3).
    pub fn len(&self) -> usize {
        self.result.len()
    }

    /// True when no wrappers were enumerated.
    pub fn is_empty(&self) -> bool {
        self.result.is_empty()
    }

    /// Inductor invocations spent (the Figure 2(a)/(b) metric).
    pub fn inductor_calls(&self) -> usize {
        self.result.inductor_calls
    }

    /// The distinct wrappers, in deterministic (extraction) order.
    pub fn wrappers(&self) -> &[EnumeratedWrapper<PageNode>] {
        &self.result.wrappers
    }

    /// The underlying enumeration result.
    pub fn into_result(self) -> EnumerationResult<PageNode> {
        self.result
    }
}

/// The ranked wrapper space of one site — the *rank* stage's output,
/// carrying enough context (site, language) for its wrappers
/// to compile into portable artifacts.
#[derive(Debug)]
pub struct RankedWrappers<'s> {
    site: &'s Site,
    language: WrapperLanguage,
    outcome: NtwOutcome,
}

impl<'s> RankedWrappers<'s> {
    /// The site the wrappers were learned on.
    pub fn site(&self) -> &'s Site {
        self.site
    }

    /// The wrapper language.
    pub fn language(&self) -> WrapperLanguage {
        self.language
    }

    /// The winning wrapper, if any label produced one.
    pub fn best(&self) -> Option<RankedWrapper<'_>> {
        self.get(0)
    }

    /// The `i`-th ranked wrapper (0 = best).
    pub fn get(&self, i: usize) -> Option<RankedWrapper<'_>> {
        self.outcome.ranked.get(i).map(|wrapper| RankedWrapper {
            site: self.site,
            language: self.language,
            wrapper,
        })
    }

    /// Iterates the ranked wrappers best-first.
    pub fn iter(&self) -> impl Iterator<Item = RankedWrapper<'_>> {
        (0..self.len()).filter_map(|i| self.get(i))
    }

    /// Number of ranked candidates.
    pub fn len(&self) -> usize {
        self.outcome.ranked.len()
    }

    /// True when no candidate was ranked (empty labels on a corpus run).
    pub fn is_empty(&self) -> bool {
        self.outcome.ranked.is_empty()
    }

    /// Inductor invocations spent during enumeration.
    pub fn inductor_calls(&self) -> usize {
        self.outcome.inductor_calls
    }

    /// Distinct wrappers enumerated (`k`).
    pub fn wrapper_space_size(&self) -> usize {
        self.outcome.wrapper_space_size
    }

    /// The plain [`NtwOutcome`] view of the ranking.
    pub fn outcome(&self) -> &NtwOutcome {
        &self.outcome
    }
}

/// One ranked wrapper with its learning context — derefs to
/// [`LearnedWrapper`] for the extraction/rule/score fields, and compiles
/// into a portable [`CompiledWrapper`].
#[derive(Clone, Copy, Debug)]
pub struct RankedWrapper<'a> {
    site: &'a Site,
    language: WrapperLanguage,
    wrapper: &'a LearnedWrapper,
}

impl RankedWrapper<'_> {
    /// **Stage 4 — compile**: learns the portable rule from this
    /// wrapper's seed and packages it as a serving artifact (compiled
    /// xpath trie, `to_json`/`from_json` for deployment).
    pub fn compile(&self) -> CompiledWrapper {
        CompiledWrapper::from_rule(self.portable_rule())
    }

    /// The portable rule, detached from the training site.
    pub fn portable_rule(&self) -> LearnedRule {
        LearnedRule::learn(self.site, self.language, &self.wrapper.seed)
    }
}

impl std::ops::Deref for RankedWrapper<'_> {
    type Target = LearnedWrapper;

    fn deref(&self) -> &LearnedWrapper {
        self.wrapper
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Enumeration;
    use aw_annotate::{DictionaryAnnotator, MatchMode};
    use aw_rank::{AnnotatorModel, ListFeatures, PublicationModel, RankingModel};

    fn dealer_site() -> Site {
        let page = |names: &[&str]| -> String {
            let mut s = String::from("<div class='list'>");
            for (i, n) in names.iter().enumerate() {
                s.push_str(&format!(
                    "<tr><td><u>{n}</u><br>{i} Elm St.<br>CITY, ST 3870{i}</td></tr>"
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
        RankingModel::new(
            AnnotatorModel::new(0.93, 0.5),
            PublicationModel::learn(&[
                ListFeatures {
                    schema_size: 3.0,
                    alignment: 0.0,
                },
                ListFeatures {
                    schema_size: 3.0,
                    alignment: 1.0,
                },
            ]),
        )
    }

    fn noisy_labels(site: &Site) -> NodeSet {
        let g: Vec<PageNode> = gold(site).into_iter().collect();
        let mut labels: NodeSet = g.iter().step_by(2).copied().collect();
        labels.extend(site.find_text("0 Elm St."));
        labels
    }

    #[test]
    fn staged_flow_matches_fused_learn() {
        let site = dealer_site();
        let labels = noisy_labels(&site);
        let engine = Engine::builder(model()).build();
        let space = engine.enumerate(&site, &labels).unwrap();
        assert!(space.len() >= 3);
        assert_eq!(space.language(), WrapperLanguage::XPath);
        let calls = space.inductor_calls();
        let staged = engine.rank(space).unwrap();
        let fused = engine.learn(&site, &labels).unwrap();
        assert_eq!(staged.inductor_calls(), calls);
        assert_eq!(
            staged.best().unwrap().extraction,
            fused.best().unwrap().extraction
        );
        assert_eq!(fused.best().unwrap().extraction, gold(&site));
    }

    #[test]
    fn empty_labels_error_instead_of_panicking() {
        let site = dealer_site();
        let engine = Engine::builder(model()).build();
        assert_eq!(
            engine.enumerate(&site, &NodeSet::new()).unwrap_err(),
            AwError::NoLabels
        );
        assert_eq!(
            engine.learn(&site, &NodeSet::new()).unwrap_err(),
            AwError::NoLabels
        );
        assert_eq!(
            engine.naive(&site, &NodeSet::new()).unwrap_err(),
            AwError::NoLabels
        );
        assert_eq!(engine.annotate(&site).unwrap_err(), AwError::NoAnnotator);
    }

    #[test]
    fn engine_annotate_uses_configured_annotator() {
        let site = dealer_site();
        let engine = Engine::builder(model())
            .annotator(DictionaryAnnotator::new(
                ["ALPHA FURNITURE", "THETA DESKS"],
                MatchMode::Exact,
            ))
            .build();
        let labels = engine.annotate(&site).unwrap();
        assert_eq!(labels.len(), 2);
        // A closure works as an annotator too.
        let by_closure = Engine::builder(model())
            .annotator(|s: &Site| s.find_text("BETA HOME").into_iter().collect::<NodeSet>())
            .build();
        assert_eq!(by_closure.annotate(&site).unwrap().len(), 1);
    }

    #[test]
    fn learn_sites_matches_per_site_learn() {
        let sites = [dealer_site(), dealer_site()];
        let labels: Vec<NodeSet> = sites.iter().map(noisy_labels).collect();
        let labeled: Vec<(&Site, &NodeSet)> = sites.iter().zip(&labels).collect();
        for threads in [1, 3] {
            let engine = Engine::builder(model()).threads(threads).build();
            let batch = engine.learn_sites_labeled(&labeled).unwrap();
            assert_eq!(batch.len(), 2);
            for ((site, site_labels), ranked) in labeled.iter().zip(&batch) {
                let solo = engine.learn(site, site_labels).unwrap();
                assert_eq!(ranked.len(), solo.len(), "threads {threads}");
                assert_eq!(
                    ranked.best().unwrap().extraction,
                    solo.best().unwrap().extraction,
                    "threads {threads}"
                );
                assert_eq!(ranked.inductor_calls(), solo.inductor_calls());
            }
        }
    }

    #[test]
    fn learn_sites_annotates_with_the_engine_annotator() {
        let sites = [dealer_site()];
        let engine = Engine::builder(model())
            .annotator(DictionaryAnnotator::new(
                ["ALPHA FURNITURE", "EPSILON SOFAS", "0 Elm St."],
                MatchMode::Exact,
            ))
            .build();
        let batch = engine.learn_sites(&sites).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].best().unwrap().extraction, gold(&sites[0]));
        // Without an annotator, the corpus call is a typed error.
        assert_eq!(
            Engine::builder(model())
                .build()
                .learn_sites(&sites)
                .unwrap_err(),
            AwError::NoAnnotator
        );
    }

    #[test]
    fn learn_sites_tolerates_barren_sites() {
        let sites = [dealer_site(), dealer_site()];
        let empty = NodeSet::new();
        let labels = noisy_labels(&sites[0]);
        let labeled: Vec<(&Site, &NodeSet)> = vec![(&sites[0], &empty), (&sites[1], &labels)];
        let engine = Engine::builder(model()).build();
        let batch = engine.learn_sites_labeled(&labeled).unwrap();
        assert!(batch[0].is_empty());
        assert!(batch[0].best().is_none());
        assert_eq!(batch[1].best().unwrap().extraction, gold(&sites[1]));
    }

    #[test]
    fn non_xpath_languages_learn_sites_too() {
        let sites = [dealer_site()];
        let labels: Vec<NodeSet> = sites.iter().map(noisy_labels).collect();
        let labeled: Vec<(&Site, &NodeSet)> = sites.iter().zip(&labels).collect();
        for language in [WrapperLanguage::Lr, WrapperLanguage::Hlrt] {
            let engine = Engine::builder(model()).language(language).build();
            let batch = engine.learn_sites_labeled(&labeled).unwrap();
            let solo = engine.learn(&sites[0], &labels[0]).unwrap();
            assert_eq!(
                batch[0].best().unwrap().extraction,
                solo.best().unwrap().extraction,
                "{language}"
            );
        }
    }

    #[test]
    fn table_language_learns_through_the_engine() {
        let page = |rows: &[(&str, &str)]| {
            let mut s = String::from("<h1>Stores</h1><table>");
            for (n, a) in rows {
                s.push_str(&format!("<tr><td>{n}</td><td>{a}</td></tr>"));
            }
            s + "</table>"
        };
        let site = Site::from_html(&[
            page(&[("ALPHA CO", "1 Elm"), ("BETA LLC", "2 Oak")]),
            page(&[("GAMMA INC", "3 Fir"), ("DELTA LTD", "4 Ash")]),
        ]);
        let mut labels = NodeSet::new();
        labels.extend(site.find_text("ALPHA CO"));
        labels.extend(site.find_text("DELTA LTD"));
        let engine = Engine::builder(model())
            .language(WrapperLanguage::Table)
            .config(NtwConfig::with_enumeration(Enumeration::TopDown))
            .build();
        let ranked = engine.learn(&site, &labels).unwrap();
        // The name column (two labels in different rows, same column).
        let names: NodeSet = ["ALPHA CO", "BETA LLC", "GAMMA INC", "DELTA LTD"]
            .iter()
            .flat_map(|t| site.find_text(t))
            .collect();
        let best = ranked.best().unwrap();
        assert_eq!(best.extraction, names, "rule {}", best.rule);
        assert_eq!(best.rule, "C1");
    }

    #[test]
    fn executor_knob_does_not_change_results() {
        let sites = [dealer_site(), dealer_site(), dealer_site()];
        let labels: Vec<NodeSet> = sites.iter().map(noisy_labels).collect();
        let labeled: Vec<(&Site, &NodeSet)> = sites.iter().zip(&labels).collect();
        let default_engine = Engine::builder(model()).build();
        assert!(default_engine.template_cache_enabled());
        let baseline = default_engine.learn_sites_labeled(&labeled).unwrap();
        for threads in [1, 3] {
            let engine = Engine::builder(model())
                .executor(Executor::new(threads))
                .build();
            assert_eq!(engine.executor().threads(), threads);
            let batch = engine.learn_sites_labeled(&labeled).unwrap();
            for (a, b) in baseline.iter().zip(&batch) {
                assert_eq!(a.len(), b.len(), "threads {threads}");
                for (wa, wb) in a.iter().zip(b.iter()) {
                    assert_eq!(wa.extraction, wb.extraction);
                    assert_eq!(wa.rule, wb.rule);
                    assert_eq!(wa.score.total.to_bits(), wb.score.total.to_bits());
                }
            }
        }
    }

    #[test]
    fn ranked_wrappers_iterate_best_first() {
        let site = dealer_site();
        let labels = noisy_labels(&site);
        let engine = Engine::builder(model()).build();
        let ranked = engine.learn(&site, &labels).unwrap();
        let totals: Vec<f64> = ranked.iter().map(|w| w.score.total).collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(ranked.iter().count(), ranked.len());
        assert_eq!(
            ranked.outcome().wrapper_space_size,
            ranked.wrapper_space_size()
        );
    }
}
