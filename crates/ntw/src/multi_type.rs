//! Multi-type extraction — Appendix A.
//!
//! A multi-type wrapper extracts *records* (e.g. `(name, zipcode)`),
//! assembling them from the interleaved per-type extractions. The
//! noise-tolerant extension:
//!
//! * **Enumeration** runs per type (labels carry their type, §A.1);
//! * **Ranking** multiplies the per-type annotation terms (each an
//!   Eq. (4) instance) and computes `P(X)` on segments bounded by type-0
//!   nodes, with the constraint that same-type nodes align with each other
//!   (the pinned edit distance of `aw-align`);
//! * **Assembly** pairs each type-0 node with the following type-1 node;
//!   a page where interleaving fails produces no records — the failure
//!   mode that makes NAIVE collapse in Figure 3(a).

use crate::config::NtwConfig;
use crate::learner::subsample;
use aw_dom::PageNode;
use aw_enum::top_down;
use aw_induct::{NodeSet, Site, WrapperInductor, XPathInductor};
use aw_rank::{
    list_features_pinned, segment_site_typed, AnnotatorModel, PublicationModel, SiteTokens,
};

/// An assembled record: one node per type (type 1 may be missing when the
/// page interleaving tolerates it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// The type-0 node (e.g. the business name).
    pub primary: PageNode,
    /// The type-1 node (e.g. the zipcode line), when assembled.
    pub secondary: Option<PageNode>,
}

/// A scored multi-type candidate.
#[derive(Clone, Debug)]
pub struct MultiTypeWrapper {
    /// Extraction per type.
    pub extractions: Vec<NodeSet>,
    /// Display rules per type.
    pub rules: Vec<String>,
    /// Assembled records (empty on pages where assembly failed).
    pub records: Vec<Record>,
    /// Combined log score.
    pub score: f64,
}

/// The multi-type learner's output.
#[derive(Clone, Debug)]
pub struct MultiTypeOutcome {
    /// Candidates ranked best-first.
    pub ranked: Vec<MultiTypeWrapper>,
    /// Total inductor calls across both types' enumerations.
    pub inductor_calls: usize,
}

impl MultiTypeOutcome {
    /// The winning candidate.
    pub fn best(&self) -> Option<&MultiTypeWrapper> {
        self.ranked.first()
    }
}

/// The multi-type ranking model: one annotator per type plus the shared
/// publication model.
#[derive(Clone, Debug)]
pub struct MultiTypeModel {
    /// Per-type annotator characteristics.
    pub annotators: Vec<AnnotatorModel>,
    /// Publication model (learned on gold record segments).
    pub publication: PublicationModel,
    /// Indel penalty for typed nodes in the pinned alignment.
    pub pin_indel_cost: usize,
}

/// Learns a two-type xpath wrapper from per-type noisy labels.
pub fn learn_multi_type(
    site: &Site,
    labels: &[NodeSet; 2],
    model: &MultiTypeModel,
    config: &NtwConfig,
) -> MultiTypeOutcome {
    assert_eq!(model.annotators.len(), 2, "two annotators required");
    let inductor = XPathInductor::new(site);
    let mut calls = 0;
    // Per-type wrapper spaces (type info is simply separate label sets
    // fed to separate enumeration runs).
    let spaces: Vec<Vec<NodeSet>> = labels
        .iter()
        .map(|l| {
            let space = top_down(&inductor, &subsample(l, config.max_enumeration_labels));
            calls += space.inductor_calls;
            space.wrappers.into_iter().map(|w| w.extraction).collect()
        })
        .collect();
    let rules: Vec<Vec<String>> = spaces
        .iter()
        .map(|sp| sp.iter().map(|x| inductor.rule(x)).collect())
        .collect();

    // Score every pair over one token stream of the site.
    let tokens = SiteTokens::new(site);
    let mut ranked: Vec<MultiTypeWrapper> = Vec::new();
    for (i, x0) in spaces[0].iter().enumerate() {
        for (j, x1) in spaces[1].iter().enumerate() {
            let score = score_pair(&tokens, labels, [x0, x1], model);
            let records = assemble_records(site, x0, x1);
            ranked.push(MultiTypeWrapper {
                extractions: vec![x0.clone(), x1.clone()],
                rules: vec![rules[0][i].clone(), rules[1][j].clone()],
                records,
                score,
            });
        }
    }
    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.rules.cmp(&b.rules))
    });
    MultiTypeOutcome {
        ranked,
        inductor_calls: calls,
    }
}

fn score_pair(
    tokens: &SiteTokens,
    labels: &[NodeSet; 2],
    x: [&NodeSet; 2],
    model: &MultiTypeModel,
) -> f64 {
    // Annotation terms multiply (sum in log space).
    let mut total = 0.0;
    for t in 0..2 {
        let hits = x[t].iter().filter(|n| labels[t].contains(n)).count();
        let unlabeled = x[t].len() - hits;
        total += model.annotators[t].log_likelihood(hits, unlabeled);
    }
    // Publication term on typed segments with the alignment constraint.
    let segments = segment_site_typed(tokens, &x);
    let features = list_features_pinned(&segments, model.pin_indel_cost);
    total += model.publication.log_prob(features);
    total
}

/// Assembles records page by page: each type-0 node pairs with the unique
/// type-1 node before the next type-0 node. A page fails (contributes no
/// records) if any gap contains more than one type-1 node, or if the page
/// has type-1 nodes but no type-0 node at all — the multi-type wrapper
/// "produces empty results on a page if it cannot assemble records
/// successfully" (§A.2).
pub fn assemble_records(site: &Site, x0: &NodeSet, x1: &NodeSet) -> Vec<Record> {
    let mut out = Vec::new();
    for p in 0..site.page_count() as u32 {
        // Document-order stream of typed nodes on this page.
        let doc = site.page(p);
        let mut stream: Vec<(PageNode, u8)> = Vec::new();
        for id in doc.preorder_all() {
            let pn = PageNode::new(p, id);
            if x0.contains(&pn) {
                stream.push((pn, 0));
            } else if x1.contains(&pn) {
                stream.push((pn, 1));
            }
        }
        if stream.is_empty() {
            continue;
        }
        let mut page_records: Vec<Record> = Vec::new();
        let mut ok = true;
        let mut current: Option<Record> = None;
        for (node, ty) in stream {
            match ty {
                0 => {
                    if let Some(r) = current.take() {
                        page_records.push(r);
                    }
                    current = Some(Record {
                        primary: node,
                        secondary: None,
                    });
                }
                _ => match &mut current {
                    Some(r) if r.secondary.is_none() => r.secondary = Some(node),
                    // Second zip in the same gap, or zip before any name:
                    // interleaving failure.
                    _ => {
                        ok = false;
                        break;
                    }
                },
            }
        }
        if let Some(r) = current.take() {
            page_records.push(r);
        }
        if ok {
            out.extend(page_records);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NtwConfig;
    use aw_rank::ListFeatures;

    /// Two pages of (name, street, zip-line, phone) records; names in <b>,
    /// zip lines bare.
    fn site() -> Site {
        let rec = |n: &str, i: usize| {
            format!("<tr><td><b>{n}</b></td><td>{i} Oak</td><td>CITY, ST 9400{i}</td><td>555-{i}</td></tr>")
        };
        Site::from_html(&[
            format!(
                "<table>{}{}{}</table>",
                rec("ALPHA", 1),
                rec("BETA", 2),
                rec("GAMMA", 3)
            ),
            format!("<table>{}{}</table>", rec("DELTA", 4), rec("EPSILON", 5)),
        ])
    }

    fn gold(site: &Site) -> [NodeSet; 2] {
        let names: NodeSet = site
            .text_nodes()
            .iter()
            .copied()
            .filter(|&n| {
                let (doc, id) = site.resolve(n);
                doc.parent(id).and_then(|p| doc.tag(p)) == Some("b")
            })
            .collect();
        let zips: NodeSet = site
            .text_nodes()
            .iter()
            .copied()
            .filter(|&n| site.text_of(n).is_some_and(aw_annotate::contains_zipcode))
            .collect();
        [names, zips]
    }

    fn model() -> MultiTypeModel {
        MultiTypeModel {
            annotators: vec![
                AnnotatorModel::new(0.93, 0.5),
                AnnotatorModel::new(0.9, 0.8),
            ],
            publication: PublicationModel::learn(&[
                ListFeatures {
                    schema_size: 4.0,
                    alignment: 0.0,
                },
                ListFeatures {
                    schema_size: 4.0,
                    alignment: 1.0,
                },
            ]),
            pin_indel_cost: 3,
        }
    }

    #[test]
    fn recovers_both_types_from_noisy_labels() {
        let s = site();
        let [names, zips] = gold(&s);
        // Noisy: drop one name, add a street as fake name; zips clean.
        let mut noisy_names: NodeSet = names.iter().skip(1).copied().collect();
        noisy_names.extend(s.find_text("1 Oak"));
        let out = learn_multi_type(
            &s,
            &[noisy_names, zips.clone()],
            &model(),
            &NtwConfig::default(),
        );
        let best = out.best().expect("candidates");
        assert_eq!(best.extractions[0], names, "names: {:?}", best.rules);
        assert_eq!(best.extractions[1], zips, "zips: {:?}", best.rules);
        assert_eq!(best.records.len(), 5);
        assert!(best.records.iter().all(|r| r.secondary.is_some()));
        assert!(out.inductor_calls > 0);
    }

    #[test]
    fn assembly_pairs_in_document_order() {
        let s = site();
        let [names, zips] = gold(&s);
        let records = assemble_records(&s, &names, &zips);
        assert_eq!(records.len(), 5);
        for r in &records {
            let name = s.text_of(r.primary).unwrap();
            let zip = s.text_of(r.secondary.unwrap()).unwrap();
            // ALPHA pairs with 94001, BETA with 94002, …
            let idx = ["ALPHA", "BETA", "GAMMA", "DELTA", "EPSILON"]
                .iter()
                .position(|x| *x == name)
                .unwrap();
            assert!(zip.ends_with(&format!("{}", 94001 + idx)), "{name} ↔ {zip}");
        }
    }

    #[test]
    fn assembly_fails_on_bad_interleaving() {
        let s = site();
        let [names, zips] = gold(&s);
        // Use every text node as "zips": multiple per gap → pages fail.
        let all: NodeSet = s.text_nodes().iter().copied().collect();
        let records = assemble_records(&s, &names, &all);
        assert!(records.is_empty());
        // Zip-before-name also fails.
        let records2 = assemble_records(&s, &zips, &names);
        // Here type-0 = zips; names come BEFORE zips in each row, so the
        // first name precedes the first zip → failure on both pages.
        assert!(records2.is_empty());
    }

    #[test]
    fn missing_secondary_is_tolerated() {
        // One record has no zip line: assembly still succeeds with None.
        let s = Site::from_html(&["<tr><td><b>ALPHA</b></td><td>CITY, ST 94001</td></tr>\
             <tr><td><b>BETA</b></td></tr>"]);
        let [names, zips] = gold(&s);
        let records = assemble_records(&s, &names, &zips);
        assert_eq!(records.len(), 2);
        assert!(records[0].secondary.is_some());
        assert!(records[1].secondary.is_none());
    }
}
