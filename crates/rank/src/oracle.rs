//! The string-token ranking path, the differential oracle of the symbol
//! path.
//!
//! Segmentation and features in their most literal form: every page's
//! pre-order stream built as `(NodeId, String)` pairs per candidate,
//! segments as owned `Vec<String>`s with `Option` pins, and generic
//! `T: Eq` alignment kernels with fresh rows per pair. The tests below
//! hold the shared `u32` stream, range segments and scratch-row kernels
//! to it bit for bit on every enumerated XPATH and LR candidate of
//! DEALERS, DISC and PRODUCTS, in single-type and typed (pinned)
//! segmentation.

use crate::publication::{ListFeatures, MAX_SEGMENTS_FOR_PAIRS};
use crate::scorer::{RankingMode, RankingModel, WrapperScore};
use aw_dom::{Document, NodeId, NodeKind, PageNode};
use aw_induct::{NodeSet, Site};

const TEXT: &str = "#text";

/// One record segment as owned strings.
struct Segment {
    tokens: Vec<String>,
    pins: Vec<Option<u32>>,
}

fn page_tokens(doc: &Document) -> Vec<(NodeId, String)> {
    doc.preorder_all()
        .filter_map(|id| match doc.kind(id) {
            NodeKind::Element => doc.tag(id).map(|tag| (id, tag.to_string())),
            NodeKind::Text => Some((id, TEXT.to_string())),
            _ => None,
        })
        .collect()
}

fn segment_site_typed(site: &Site, typed: &[NodeSet]) -> Vec<Segment> {
    let boundary = &typed[0];
    let mut segments = Vec::new();
    for p in 0..site.page_count() as u32 {
        let tokens = page_tokens(site.page(p));
        let marks: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, (id, _))| boundary.contains(&PageNode::new(p, *id)))
            .map(|(i, _)| i)
            .collect();
        for w in marks.windows(2) {
            let mut seg = Segment {
                tokens: Vec::new(),
                pins: Vec::new(),
            };
            for (id, tok) in &tokens[w[0]..w[1]] {
                let pn = PageNode::new(p, *id);
                let pin = typed.iter().position(|set| set.contains(&pn));
                seg.tokens.push(tok.clone());
                seg.pins.push(pin.map(|t| t as u32));
            }
            segments.push(seg);
        }
    }
    segments
}

fn longest_common_substring<T: Eq>(a: &[T], b: &[T]) -> std::ops::Range<usize> {
    if a.is_empty() || b.is_empty() {
        return 0..0;
    }
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    let mut best = 0;
    let mut best_end = 0;
    for (i, item) in a.iter().enumerate() {
        for (j, s) in b.iter().enumerate() {
            cur[j + 1] = if item == s { prev[j] + 1 } else { 0 };
            if cur[j + 1] > best {
                best = cur[j + 1];
                best_end = i + 1;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best_end - best..best_end
}

fn edit_distance<T: Eq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, x) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, y) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(x != y);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn edit_distance_pinned<T: Eq>(
    a: &[T],
    b: &[T],
    pa: &[Option<u32>],
    pb: &[Option<u32>],
    pin_indel_cost: usize,
) -> usize {
    const INF: usize = usize::MAX / 4;
    let indel = |pin: &Option<u32>| if pin.is_some() { pin_indel_cost } else { 1 };
    let mut prev: Vec<usize> = Vec::with_capacity(b.len() + 1);
    prev.push(0);
    for j in 0..b.len() {
        prev.push(prev[j] + indel(&pb[j]));
    }
    let mut cur = vec![0usize; b.len() + 1];
    for i in 0..a.len() {
        cur[0] = prev[0] + indel(&pa[i]);
        for j in 0..b.len() {
            let sub_cost = if pa[i] == pb[j] {
                usize::from(a[i] != b[j])
            } else {
                INF
            };
            let sub = prev[j].saturating_add(sub_cost);
            let del = prev[j + 1] + indel(&pa[i]);
            let ins = cur[j] + indel(&pb[j]);
            cur[j + 1] = sub.min(del).min(ins);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn list_features_pinned(segments: &[Segment], pin_indel_cost: usize) -> Option<ListFeatures> {
    if segments.len() < 2 {
        return None;
    }
    let sampled: Vec<&Segment> = if segments.len() <= MAX_SEGMENTS_FOR_PAIRS {
        segments.iter().collect()
    } else {
        let stride = segments.len() as f64 / MAX_SEGMENTS_FOR_PAIRS as f64;
        (0..MAX_SEGMENTS_FOR_PAIRS)
            .map(|i| &segments[(i as f64 * stride) as usize])
            .collect()
    };
    let all_same_pin = |seg: &Segment| seg.pins.iter().all(|p| p.is_none() || *p == Some(0));
    let mut schema_sizes: Vec<f64> = Vec::new();
    let mut max_align = 0.0f64;
    for i in 0..sampled.len() {
        for j in (i + 1)..sampled.len() {
            let (a, b) = (sampled[i], sampled[j]);
            let range = longest_common_substring(&a.tokens, &b.tokens);
            let texts = a.tokens[range].iter().filter(|t| *t == TEXT).count();
            schema_sizes.push(texts as f64);
            let d = if pin_indel_cost <= 1 && all_same_pin(a) && all_same_pin(b) {
                edit_distance(&a.tokens, &b.tokens)
            } else {
                edit_distance_pinned(&a.tokens, &b.tokens, &a.pins, &b.pins, pin_indel_cost)
            };
            max_align = max_align.max(d as f64);
        }
    }
    Some(ListFeatures {
        schema_size: aw_align::stats::median(&schema_sizes),
        alignment: max_align,
    })
}

/// [`RankingModel::score`] through the string path.
fn score(model: &RankingModel, site: &Site, labels: &NodeSet, x: &NodeSet) -> WrapperScore {
    let hits = x.iter().filter(|n| labels.contains(n)).count();
    let annotation = model.annotator.log_likelihood(hits, x.len() - hits);
    let (publication, features) = match model.mode {
        RankingMode::AnnotationOnly => (0.0, None),
        _ => {
            let features =
                list_features_pinned(&segment_site_typed(site, std::slice::from_ref(x)), 1);
            (model.publication.log_prob(features), features)
        }
    };
    let total = match model.mode {
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

mod tests {
    use super::*;
    use crate::annotation::AnnotatorModel;
    use crate::publication::{list_features_pinned as features_on_symbols, PublicationModel};
    use crate::segmentation::{segment_site, segment_site_typed as typed_on_symbols, SiteTokens};
    use aw_annotate::{DictionaryAnnotator, MatchMode};
    use aw_enum::top_down;
    use aw_induct::{FeatureBased, LrInductor, XPathInductor};
    use aw_sitegen::GeneratedSite;

    fn features_bits(f: Option<ListFeatures>) -> Option<(u64, u64)> {
        f.map(|f| (f.schema_size.to_bits(), f.alignment.to_bits()))
    }

    fn score_bits(s: &WrapperScore) -> (u64, u64, u64, Option<(u64, u64)>) {
        (
            s.annotation.to_bits(),
            s.publication.to_bits(),
            s.total.to_bits(),
            features_bits(s.features),
        )
    }

    fn model() -> RankingModel {
        RankingModel::new(
            AnnotatorModel::new(0.93, 0.4),
            PublicationModel::learn(&[
                ListFeatures {
                    schema_size: 4.0,
                    alignment: 0.0,
                },
                ListFeatures {
                    schema_size: 3.0,
                    alignment: 2.0,
                },
                ListFeatures {
                    schema_size: 6.0,
                    alignment: 1.0,
                },
            ]),
        )
    }

    /// Evenly subsamples labels to at most 32 (the learner's default
    /// enumeration cap), so every site's space stays small.
    fn seed_labels(labels: &NodeSet) -> NodeSet {
        let items: Vec<PageNode> = labels.iter().copied().collect();
        if items.len() <= 32 {
            return labels.clone();
        }
        let stride = items.len() as f64 / 32.0;
        (0..32)
            .map(|i| items[(i as f64 * stride) as usize])
            .collect()
    }

    fn space<I: FeatureBased<Item = PageNode>>(inductor: &I, labels: &NodeSet) -> Vec<NodeSet> {
        top_down(inductor, &seed_labels(labels))
            .wrappers
            .into_iter()
            .map(|w| w.extraction)
            .collect()
    }

    /// Checks every XPATH and LR candidate of every site, returning how
    /// many candidates and typed pairs were compared.
    fn check_corpus(name: &str, sites: &[GeneratedSite], dictionary: &[String]) -> (usize, usize) {
        let annotator = DictionaryAnnotator::new(dictionary.iter(), MatchMode::Contains);
        let models = [
            model(),
            model().with_mode(RankingMode::PublicationOnly),
            model().with_mode(RankingMode::AnnotationOnly),
        ];
        let (mut candidates, mut pairs) = (0, 0);
        for gs in sites {
            let site = &gs.site;
            let labels = annotator.annotate(site);
            if labels.is_empty() {
                continue;
            }
            let tokens = SiteTokens::new(site);
            let mut xs = space(&XPathInductor::new(site), &labels);
            xs.extend(space(&LrInductor::new(site), &labels));
            xs.push(gs.gold().clone());
            for (i, x) in xs.iter().enumerate() {
                let ctx = format!("{name} site {} candidate {i}", gs.id);
                for m in &models {
                    assert_eq!(
                        score_bits(&m.score_with(&tokens, &labels, x)),
                        score_bits(&score(m, site, &labels, x)),
                        "{ctx} ({})",
                        m.mode.name()
                    );
                }
                // Typed: the next candidate (or the site's second gold
                // type) as type 1, and single-type with a pin cost.
                let mut partners = vec![&xs[(i + 1) % xs.len()]];
                partners.extend(gs.gold_types.get(1));
                for cost in [1, 3] {
                    assert_eq!(
                        features_bits(features_on_symbols(&segment_site(&tokens, x), cost)),
                        features_bits(list_features_pinned(
                            &segment_site_typed(site, std::slice::from_ref(x)),
                            cost
                        )),
                        "{ctx} single-type, pin cost {cost}"
                    );
                    for x1 in &partners {
                        assert_eq!(
                            features_bits(features_on_symbols(
                                &typed_on_symbols(&tokens, &[x, x1]),
                                cost
                            )),
                            features_bits(list_features_pinned(
                                &segment_site_typed(site, &[x.clone(), (*x1).clone()]),
                                cost
                            )),
                            "{ctx} typed, pin cost {cost}"
                        );
                        pairs += 1;
                    }
                }
                candidates += 1;
            }
        }
        (candidates, pairs)
    }

    #[test]
    fn symbol_path_is_bit_identical_on_dealers() {
        let ds = aw_sitegen::generate_dealers(&aw_sitegen::DealersConfig::small(6, 0xD1FF));
        let (candidates, pairs) = check_corpus("DEALERS", &ds.sites, &ds.dictionary);
        println!("{candidates} candidates, {pairs} typed pairs");
        assert!(
            candidates >= 30 && pairs >= candidates,
            "{candidates} {pairs}"
        );
    }

    #[test]
    fn symbol_path_is_bit_identical_on_disc() {
        let ds = aw_sitegen::generate_disc(&aw_sitegen::DiscConfig::small(4, 0xD1FF));
        let (candidates, pairs) = check_corpus("DISC", &ds.sites, &ds.track_dictionary);
        println!("{candidates} candidates, {pairs} typed pairs");
        assert!(
            candidates >= 20 && pairs >= candidates,
            "{candidates} {pairs}"
        );
    }

    #[test]
    fn symbol_path_is_bit_identical_on_products() {
        let ds = aw_sitegen::generate_products(&aw_sitegen::ProductsConfig::small(4, 0xD1FF));
        let (candidates, pairs) = check_corpus("PRODUCTS", &ds.sites, &ds.dictionary);
        println!("{candidates} candidates, {pairs} typed pairs");
        assert!(
            candidates >= 20 && pairs >= candidates,
            "{candidates} {pairs}"
        );
    }

    #[test]
    fn long_segment_lists_sample_the_same_pairs() {
        // Far more than MAX_SEGMENTS_FOR_PAIRS records of varying shape:
        // the stride sampling must pick the same segments on both paths.
        let rows: String = (0..100)
            .map(|i| match i % 3 {
                0 => format!("<tr><td>n{i}</td><td>a</td></tr>"),
                1 => format!("<tr><td>n{i}</td></tr>"),
                _ => format!("<tr><td>n{i}</td><td><b>a</b></td><td>z</td></tr>"),
            })
            .collect();
        let site = Site::from_html(&[format!("<table>{rows}</table>")]);
        let tokens = SiteTokens::new(&site);
        let names: NodeSet = (0..100)
            .flat_map(|i| site.find_text(&format!("n{i}")))
            .collect();
        let all: NodeSet = site.text_nodes().iter().copied().collect();
        for x in [&names, &all] {
            let want = list_features_pinned(&segment_site_typed(&site, std::slice::from_ref(x)), 1);
            assert!(want.is_some());
            assert_eq!(
                features_bits(features_on_symbols(&segment_site(&tokens, x), 1)),
                features_bits(want)
            );
        }
    }

    #[test]
    fn kernels_run_once_per_distinct_pair_on_dealers() {
        // Every candidate's sampled pairs are mostly repeats of a few
        // distinct ordered pairs of record shapes; the kernels must run
        // on those alone.
        const MAX_KERNEL_PAIRS_PER_WRAPPER: f64 = 6.0;
        let ds = aw_sitegen::generate_dealers(&aw_sitegen::DealersConfig::small(6, 0xD1FF));
        let annotator = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
        let (mut scored, mut sampled, mut evaluated) = (0usize, 0usize, 0usize);
        for gs in &ds.sites {
            let site = &gs.site;
            let labels = annotator.annotate(site);
            if labels.is_empty() {
                continue;
            }
            let tokens = SiteTokens::new(site);
            let mut xs = space(&XPathInductor::new(site), &labels);
            xs.extend(space(&LrInductor::new(site), &labels));
            for x in &xs {
                let segments = segment_site(&tokens, x);
                let m = segments.len().min(MAX_SEGMENTS_FOR_PAIRS);
                let before = crate::publication::kernel_pairs();
                let _ = features_on_symbols(&segments, 1);
                evaluated += crate::publication::kernel_pairs() - before;
                sampled += m * m.saturating_sub(1) / 2;
                scored += 1;
            }
        }
        let per_wrapper = evaluated as f64 / scored as f64;
        println!(
            "{scored} wrappers: {per_wrapper:.2} kernel pairs per wrapper, {:.2} sampled",
            sampled as f64 / scored as f64
        );
        assert!(scored >= 30, "{scored}");
        assert!(
            per_wrapper <= MAX_KERNEL_PAIRS_PER_WRAPPER,
            "{per_wrapper:.2}"
        );
    }

    #[test]
    fn equal_tokens_with_different_pins_are_different_segments() {
        // Two records of equal tokens whose type-1 node sits in a
        // different cell: at pin cost 3 they do not align for free, so
        // they must not share a class on the symbol path.
        let site = Site::from_html(&["<ul><li>N1</li><li>a1</li><li>b1</li>\
             <li>N2</li><li>a2</li><li>b2</li><li>N3</li></ul>"]);
        let find =
            |texts: &[&str]| -> NodeSet { texts.iter().flat_map(|t| site.find_text(t)).collect() };
        let (names, typed) = (find(&["N1", "N2", "N3"]), find(&["a1", "b2"]));
        let tokens = SiteTokens::new(&site);
        let segments = typed_on_symbols(&tokens, &[&names, &typed]);
        assert_eq!(segments.len(), 2);
        assert_eq!(segments.get(0).tokens, segments.get(1).tokens);
        let want = list_features_pinned(&segment_site_typed(&site, &[names, typed]), 3);
        assert!(want.is_some_and(|f| f.alignment > 0.0), "{want:?}");
        assert_eq!(
            features_bits(features_on_symbols(&segments, 3)),
            features_bits(want)
        );
    }
}
