//! Property tests tying the XPATH inductor's feature semantics to the
//! xpath engine: the rendered rule of any learned wrapper must evaluate
//! to the wrapper's own extraction, and parsing must round-trip Display.

use aw_annotate::{DictionaryAnnotator, MatchMode};
use aw_dom::PageNode;
use aw_induct::{NodeSet, WrapperInductor, XPathInductor};
use aw_sitegen::{generate_dealers, generate_disc, DealersConfig, DiscConfig};
use aw_xpath::{evaluate, parse_xpath, Axis, NodeTest, Predicate, Step, XPath};
use proptest::prelude::*;

fn eval_on_site(xp: &XPath, site: &aw_induct::Site) -> NodeSet {
    (0..site.page_count() as u32)
        .flat_map(|p| {
            evaluate(xp, site.page(p))
                .into_iter()
                .map(move |id| PageNode::new(p, id))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On dealer sites, for any subset of annotator labels, the rendered
    /// xpath evaluates to exactly the feature-based extraction, wildcard
    /// steps included.
    #[test]
    fn rendered_xpath_equals_extraction(seed in 0u64..300, mask in 1u32..255) {
        let ds = generate_dealers(&DealersConfig {
            sites: 1,
            pages_per_site: 2,
            seed,
            ..DealersConfig::default()
        });
        let site = &ds.sites[0].site;
        let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
        let all: Vec<PageNode> = annot.annotate(site).into_iter().collect();
        let labels: NodeSet = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 8)) != 0)
            .map(|(_, &n)| n)
            .collect();
        prop_assume!(!labels.is_empty());

        let ind = XPathInductor::new(site);
        let xp = ind.xpath(&labels);
        prop_assert_eq!(eval_on_site(&xp, site), ind.extract(&labels), "{}", xp);
    }

    /// Same property on DISC sites (different structures: ol/table lists,
    /// breadcrumbs, reviews).
    #[test]
    fn rendered_xpath_equals_extraction_disc(seed in 0u64..200) {
        let ds = generate_disc(&DiscConfig { sites: 1, albums_per_site: (2, 3), seed, ..DiscConfig::default() });
        let site = &ds.sites[0].site;
        let annot = DictionaryAnnotator::new(ds.track_dictionary.iter(), MatchMode::Exact);
        let labels = annot.annotate(site);
        prop_assume!(!labels.is_empty());

        let ind = XPathInductor::new(site);
        let xp = ind.xpath(&labels);
        prop_assert_eq!(eval_on_site(&xp, site), ind.extract(&labels), "{}", xp);
    }

    /// Random ASTs of the fragment round-trip through Display + parse.
    #[test]
    fn display_parse_round_trip(
        axes in prop::collection::vec(prop::bool::ANY, 1..5),
        tags in prop::collection::vec("[a-z][a-z0-9]{0,6}", 1..5),
        positions in prop::collection::vec(prop::option::of(1usize..9), 1..5),
        classes in prop::collection::vec(prop::option::of("[a-z]{1,8}"), 1..5),
        text_tail in prop::bool::ANY,
        text_pos in prop::option::of(1usize..5),
    ) {
        let n = axes.len().min(tags.len()).min(positions.len()).min(classes.len());
        let mut steps: Vec<Step> = (0..n)
            .map(|i| {
                let mut predicates = Vec::new();
                if let Some(k) = positions[i] {
                    predicates.push(Predicate::Position(k));
                }
                if let Some(c) = &classes[i] {
                    predicates.push(Predicate::Attr { name: "class".into(), value: c.clone() });
                }
                Step {
                    axis: if axes[i] { Axis::Descendant } else { Axis::Child },
                    test: NodeTest::Tag(tags[i].clone()),
                    predicates,
                }
            })
            .collect();
        if text_tail {
            let mut predicates = Vec::new();
            if let Some(k) = text_pos {
                predicates.push(Predicate::Position(k));
            }
            steps.push(Step { axis: Axis::Child, test: NodeTest::Text, predicates });
        }
        let xp = XPath::new(steps);
        let rendered = xp.to_string();
        let parsed = parse_xpath(&rendered).unwrap_or_else(|e| panic!("{rendered}: {e}"));
        prop_assert_eq!(parsed, xp, "{}", rendered);
    }

    /// Evaluation results are always deduplicated, in document order, and
    /// consist of nodes matching the final step's test.
    #[test]
    fn evaluation_invariants(seed in 0u64..200) {
        let ds = generate_dealers(&DealersConfig { sites: 1, pages_per_site: 1, seed, ..DealersConfig::default() });
        let doc = ds.sites[0].site.page(0);
        for rule in ["//td/text()", "//tr/td[1]", "//*", "//div//text()", "//li/text()[1]"] {
            let xp = parse_xpath(rule).unwrap();
            let out = evaluate(&xp, doc);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(&out, &sorted, "order/dedup for {}", rule);
            let text_rule = rule.contains("text()");
            for id in out {
                prop_assert_eq!(doc.is_text(id), text_rule, "node kind for {}", rule);
            }
        }
    }
}
