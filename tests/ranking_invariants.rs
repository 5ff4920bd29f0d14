//! Property tests on the ranking model (§6).

use aw_induct::{NodeSet, Site};
use aw_rank::{
    list_features, segment_site, AnnotatorModel, ListFeatures, PublicationModel, RankingModel,
    SiteTokens,
};
use aw_sitegen::{generate_dealers, DealersConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// §6: for any useful annotator (1 − p < r), Eq. (4) is maximized at
    /// X = L among X ⊆ L ⊆ X' chains: adding unlabeled nodes or removing
    /// labeled ones can only lower the annotation term.
    #[test]
    fn eq4_maximized_at_labels(
        p in 0.55f64..0.99,
        r in 0.1f64..0.95,
        hits in 0usize..50,
        extra in 1usize..50,
    ) {
        prop_assume!(1.0 - p < r);
        let m = AnnotatorModel::new(p, r);
        let exact = m.log_likelihood(hits, 0);
        prop_assert!(exact >= m.log_likelihood(hits.saturating_sub(1), 0));
        prop_assert!(exact > m.log_likelihood(hits, extra), "p={p} r={r}");
    }

    /// Adversarial annotators (1 − p > r) invert the preference, as §6
    /// observes ("equivalently, we can flip the output").
    #[test]
    fn eq4_adversarial_prefers_complement(
        p in 0.01f64..0.45,
        r in 0.01f64..0.4,
    ) {
        prop_assume!(1.0 - p > r + 0.05);
        let m = AnnotatorModel::new(p, r);
        prop_assert!(m.is_adversarial());
        // Extracting an unlabeled node *raises* the score.
        prop_assert!(m.log_likelihood(0, 1) > 0.0);
    }

    /// Segmentation invariants on generated sites: segments never cross
    /// pages, always start at a boundary text token, and their count is
    /// (boundary count − 1) summed per page.
    #[test]
    fn segmentation_counts(seed in 0u64..300) {
        let ds = generate_dealers(&DealersConfig { sites: 1, pages_per_site: 3, seed, ..DealersConfig::default() });
        let gs = &ds.sites[0];
        let tokens = SiteTokens::new(&gs.site);
        let segments = segment_site(&tokens, gs.gold());
        let expected: usize = (0..gs.site.page_count() as u32)
            .map(|p| gs.gold().iter().filter(|n| n.page == p).count().saturating_sub(1))
            .sum();
        prop_assert_eq!(segments.len(), expected);
        for seg in segments.iter() {
            prop_assert!(!seg.is_empty());
            prop_assert_eq!(seg.tokens[0], aw_rank::TEXT_TOKEN);
            prop_assert_eq!(seg.pin(0), Some(0));
        }
    }

    /// The gold list's features score at least as well as a corrupted
    /// list's under a model trained on gold features (the core ranking
    /// property the framework relies on).
    #[test]
    fn gold_list_outranks_corrupted(seed in 0u64..200) {
        let ds = generate_dealers(&DealersConfig { sites: 8, pages_per_site: 3, seed, ..DealersConfig::default() });
        // Train on the first 4 sites.
        let feats: Vec<ListFeatures> = ds.sites[..4]
            .iter()
            .filter_map(|s| list_features(&segment_site(&SiteTokens::new(&s.site), s.gold())))
            .collect();
        prop_assume!(feats.len() >= 2);
        let model = RankingModel::new(AnnotatorModel::new(0.95, 0.3), PublicationModel::learn(&feats));

        for gs in &ds.sites[4..] {
            let gold = gs.gold();
            prop_assume!(gold.len() >= 4);
            // Corrupted list: gold plus every text node of page 0 (an
            // over-generalized wrapper's output).
            let mut corrupted: NodeSet = gold.clone();
            corrupted.extend(
                gs.site.text_nodes().iter().copied().filter(|n| n.page == 0),
            );
            let labels = gold.clone(); // perfect labels for this check
            let g = model.score(&gs.site, &labels, gold);
            let c = model.score(&gs.site, &labels, &corrupted);
            prop_assert!(
                g.total > c.total,
                "site {}: gold {:?} vs corrupted {:?}",
                gs.id, g.total, c.total
            );
        }
    }

    /// Publication model densities are finite and positive for any
    /// feature value (log-space ranking must never see NaN/−∞).
    #[test]
    fn publication_log_probs_finite(
        schema in 0.0f64..60.0,
        align in 0.0f64..200.0,
    ) {
        let model = PublicationModel::learn(&[
            ListFeatures { schema_size: 4.0, alignment: 0.0 },
            ListFeatures { schema_size: 3.0, alignment: 2.0 },
        ]);
        let lp = model.log_prob(Some(ListFeatures { schema_size: schema, alignment: align }));
        prop_assert!(lp.is_finite());
        prop_assert!(model.log_prob(None).is_finite());
    }
}

#[test]
fn empty_site_segmentation() {
    let site = Site::from_html(&["<div></div>"]);
    assert!(segment_site(&SiteTokens::new(&site), &NodeSet::new()).is_empty());
}
