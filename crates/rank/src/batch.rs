//! Per-site batch scoring of xpath candidate sets.
//!
//! Ranking a wrapper space means computing each candidate's extraction
//! over every page of the site, then scoring it (Equation 1).
//! `aw_core::Engine` ranks the extractions enumeration already produced,
//! which for XPATH are exactly what the rendered xpaths select, so it
//! needs no second pass. [`score_xpath_spaces`] is that second pass made
//! cheap: it re-evaluates many sites' rendered candidates through one
//! prefix trie per site ([`BatchEvaluator`]), page-parallel and
//! template-cached, and scores them. It is kept as the reference that
//! deployed extractions are checked against.

use crate::scorer::{RankingModel, WrapperScore};
use crate::segmentation::SiteTokens;
use aw_dom::PageNode;
use aw_induct::{NodeSet, Site};
use aw_pool::Executor;
use aw_xpath::{BatchEvaluator, XPath};

/// One site's candidate space for multi-site scoring.
#[derive(Clone, Copy)]
pub struct SiteSpace<'a> {
    /// The site the space was enumerated on.
    pub site: &'a Site,
    /// The (noisy) labels the space is scored against.
    pub labels: &'a NodeSet,
    /// The candidate xpaths of the site's wrapper space.
    pub paths: &'a [XPath],
}

/// Scores many sites' candidate spaces in one page-parallel pass: one
/// [`BatchEvaluator`] per site for extraction (template-cached when
/// `cache` is on), each applied only to its own site's pages, then
/// Equation 1 per candidate (also through the executor) over one token
/// stream per site that all of the site's candidates share. `out[s]` is
/// aligned with `spaces[s].paths`: each entry is the candidate's union
/// over site `s`'s pages and [`RankingModel::score`] of it. Output is
/// deterministic at every thread count and nests inside site-parallel
/// loops on the same executor.
pub fn score_xpath_spaces(
    model: &RankingModel,
    spaces: &[SiteSpace<'_>],
    exec: &Executor,
    cache: bool,
) -> Vec<Vec<(NodeSet, WrapperScore)>> {
    let batches: Vec<BatchEvaluator> = spaces
        .iter()
        .map(|space| BatchEvaluator::from_xpaths(space.paths).with_cache(cache))
        .collect();
    // A site without candidates has nothing to evaluate on its pages.
    let pages: Vec<(usize, u32)> = spaces
        .iter()
        .enumerate()
        .filter(|(_, space)| !space.paths.is_empty())
        .flat_map(|(s, space)| (0..space.site.page_count() as u32).map(move |p| (s, p)))
        .collect();
    let per_page = exec.map(&pages, |&(s, p)| {
        batches[s].evaluate(spaces[s].site.page(p))
    });

    let mut extractions: Vec<Vec<NodeSet>> = spaces
        .iter()
        .map(|space| vec![NodeSet::new(); space.paths.len()])
        .collect();
    for (&(s, p), results) in pages.iter().zip(per_page) {
        for (x, nodes) in extractions[s].iter_mut().zip(results) {
            x.extend(nodes.into_iter().map(|id| PageNode::new(p, id)));
        }
    }

    // Score site-major through the executor as well (Equation 1 walks
    // every extracted node; for big spaces it rivals extraction cost).
    let tasks: Vec<(usize, NodeSet)> = extractions
        .into_iter()
        .enumerate()
        .flat_map(|(s, xs)| xs.into_iter().map(move |x| (s, x)))
        .collect();
    let tokens: Vec<SiteTokens> = exec.map(spaces, |space| SiteTokens::new(space.site));
    let scores = exec.map(&tasks, |(s, x)| {
        model.score_with(&tokens[*s], spaces[*s].labels, x)
    });

    let mut out: Vec<Vec<(NodeSet, WrapperScore)>> = spaces.iter().map(|_| Vec::new()).collect();
    for ((s, x), score) in tasks.into_iter().zip(scores) {
        out[s].push((x, score));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::AnnotatorModel;
    use crate::publication::{ListFeatures, PublicationModel};
    use aw_xpath::parse_xpath;

    fn dealer_site() -> Site {
        Site::from_html(&[
            "<div class='list'>\
               <tr><td><u>ALPHA FURNITURE</u><br>1 Elm St.<br>CITY, ST 38701</td></tr>\
               <tr><td><u>BETA HOME</u><br>2 Oak St.<br>TOWN, ST 38702</td></tr>\
             </div><div class='footer'>contact us</div>",
            "<div class='list'>\
               <tr><td><u>GAMMA DECOR</u><br>3 Fir St.<br>VILLE, ST 38703</td></tr>\
             </div><div class='footer'>contact us</div>",
        ])
    }

    fn model() -> RankingModel {
        RankingModel::new(
            AnnotatorModel::new(0.93, 0.5),
            PublicationModel::learn(&[
                ListFeatures {
                    schema_size: 4.0,
                    alignment: 0.0,
                },
                ListFeatures {
                    schema_size: 4.0,
                    alignment: 1.0,
                },
            ]),
        )
    }

    fn space() -> Vec<XPath> {
        [
            "//div[@class='list']/tr/td/u/text()",
            "//div[@class='list']/tr/td//text()",
            "//div//text()",
            "//text()",
        ]
        .iter()
        .map(|s| parse_xpath(s).unwrap())
        .collect()
    }

    fn dealer_labels(site: &Site) -> NodeSet {
        ["ALPHA FURNITURE", "BETA HOME", "GAMMA DECOR"]
            .iter()
            .flat_map(|t| site.find_text(t))
            .collect()
    }

    /// The reference interpreter's extraction of `path` over the site.
    fn reference(site: &Site, path: &XPath) -> NodeSet {
        (0..site.page_count() as u32)
            .flat_map(|p| {
                aw_xpath::reference::evaluate(path, site.page(p))
                    .into_iter()
                    .map(move |id| PageNode::new(p, id))
            })
            .collect()
    }

    /// Asserts `scored` is the reference extraction of every path and its
    /// bit-identical [`RankingModel::score`].
    fn assert_matches_reference(
        m: &RankingModel,
        space: &SiteSpace<'_>,
        scored: &[(NodeSet, WrapperScore)],
        ctx: &str,
    ) {
        assert_eq!(scored.len(), space.paths.len(), "{ctx}");
        for (path, (x, score)) in space.paths.iter().zip(scored) {
            let want = reference(space.site, path);
            assert_eq!(x, &want, "{ctx}: {path}");
            let direct = m.score(space.site, space.labels, &want);
            assert_eq!(
                score.total.to_bits(),
                direct.total.to_bits(),
                "{ctx}: {path}"
            );
            assert_eq!(score.annotation.to_bits(), direct.annotation.to_bits());
            assert_eq!(score.publication.to_bits(), direct.publication.to_bits());
        }
    }

    #[test]
    fn single_site_scoring_matches_reference_evaluation_and_direct_scorer() {
        let site = dealer_site();
        let paths = space();
        let labels = dealer_labels(&site);
        let m = model();
        let space = SiteSpace {
            site: &site,
            labels: &labels,
            paths: &paths,
        };
        let scored = score_xpath_spaces(&m, &[space], &Executor::new(1), false);
        assert_eq!(scored.len(), 1);
        assert_matches_reference(&m, &space, &scored[0], "single site");
    }

    #[test]
    fn empty_space_is_fine() {
        let site = dealer_site();
        let m = model();
        let exec = Executor::new(1);
        assert!(score_xpath_spaces(&m, &[], &exec, true).is_empty());
        let empty = SiteSpace {
            site: &site,
            labels: &NodeSet::new(),
            paths: &[],
        };
        let scored = score_xpath_spaces(&m, &[empty], &exec, true);
        assert_eq!(scored.len(), 1);
        assert!(scored[0].is_empty());
    }

    fn stores_site() -> Site {
        Site::from_html(&[
            "<table class='stores'><tr><td><b>OMEGA</b></td><td>9 Elm</td></tr>\
             <tr><td><b>SIGMA</b></td><td>7 Oak</td></tr></table>",
            "<table class='stores'><tr><td><b>KAPPA</b></td><td>4 Fir</td></tr></table>",
        ])
    }

    fn stores_space() -> Vec<XPath> {
        [
            "//table[@class='stores']/tr/td/b/text()",
            "//table[@class='stores']/tr/td[1]/b/text()",
            "//table//text()",
        ]
        .iter()
        .map(|s| aw_xpath::parse_xpath(s).unwrap())
        .collect()
    }

    #[test]
    fn multi_site_scoring_matches_reference_at_every_thread_count_and_cache_setting() {
        let a = dealer_site();
        let b = stores_site();
        let pa = space();
        let pb = stores_space();
        let labels_a = dealer_labels(&a);
        let labels_b: NodeSet = ["OMEGA", "SIGMA", "KAPPA"]
            .iter()
            .flat_map(|t| b.find_text(t))
            .collect();
        let m = model();
        let spaces = [
            SiteSpace {
                site: &a,
                labels: &labels_a,
                paths: &pa,
            },
            SiteSpace {
                site: &b,
                labels: &labels_b,
                paths: &pb,
            },
        ];
        for threads in [1, 2, 4] {
            for cache in [false, true] {
                let scored = score_xpath_spaces(&m, &spaces, &Executor::new(threads), cache);
                assert_eq!(scored.len(), 2);
                for (space, site_scored) in spaces.iter().zip(&scored) {
                    let ctx = format!("threads {threads}, cache {cache}");
                    assert_matches_reference(&m, space, site_scored, &ctx);
                }
            }
        }
    }
}
