//! Criterion microbenchmarks for the ranking model (§6): the site token
//! stream, segmentation, feature computation (on one site's gold list
//! and on a 24-segment list of three record shapes), single-wrapper scoring,
//! and scoring a whole enumerated wrapper space of one site (XPATH and
//! LR) over one shared stream.

use aw_annotate::{DictionaryAnnotator, MatchMode};
use aw_core::{Engine, WrapperLanguage};
use aw_induct::{NodeSet, Site};
use aw_rank::{
    list_features, segment_site, AnnotatorModel, ListFeatures, PublicationModel, RankingModel,
    SiteTokens,
};
use aw_sitegen::{generate_dealers, DealersConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_rank(c: &mut Criterion) {
    let ds = generate_dealers(&DealersConfig::small(1, 0xAA));
    let gs = &ds.sites[0];
    let gold = gs.gold();
    let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
    let labels = annot.annotate(&gs.site);
    let model = RankingModel::new(
        AnnotatorModel::new(0.95, 0.24),
        PublicationModel::learn(&[
            ListFeatures {
                schema_size: 4.0,
                alignment: 0.0,
            },
            ListFeatures {
                schema_size: 3.0,
                alignment: 1.0,
            },
        ]),
    );

    let mut g = c.benchmark_group("rank");
    g.bench_function("site_tokens", |b| {
        b.iter(|| SiteTokens::new(black_box(&gs.site)))
    });
    let tokens = SiteTokens::new(&gs.site);
    g.bench_function("segment_site", |b| {
        b.iter(|| segment_site(black_box(&tokens), black_box(gold)).len())
    });
    let segments = segment_site(&tokens, gold);
    g.bench_function("list_features", |b| {
        b.iter(|| list_features(black_box(&segments)))
    });
    // A 24-segment list of three record shapes: the case Equation 1
    // meets on a real list, where most sampled pairs repeat a few
    // distinct ordered pairs of shapes.
    let rows: String = (0..25)
        .map(|i| match i % 3 {
            0 => format!("<tr><td>n{i}</td><td>a</td></tr>"),
            1 => format!("<tr><td>n{i}</td></tr>"),
            _ => format!("<tr><td>n{i}</td><td><b>a</b></td><td>z</td></tr>"),
        })
        .collect();
    let shapes = Site::from_html(&[format!("<table>{rows}</table>")]);
    let shape_tokens = SiteTokens::new(&shapes);
    let names: NodeSet = (0..25)
        .flat_map(|i| shapes.find_text(&format!("n{i}")))
        .collect();
    let shape_segments = segment_site(&shape_tokens, &names);
    assert_eq!(shape_segments.len(), 24);
    g.bench_function("list_features_24_segments_3_shapes", |b| {
        b.iter(|| list_features(black_box(&shape_segments)))
    });
    g.bench_function("score_wrapper", |b| {
        b.iter(|| model.score(black_box(&gs.site), black_box(&labels), black_box(gold)))
    });
    // Whole spaces: every enumerated candidate of one site, scored over
    // one stream (`RankingModel::rank` builds it once per call). The
    // site is the one with the largest space among eight
    // default-sized DEALERS sites.
    let big = generate_dealers(&DealersConfig {
        sites: 8,
        seed: 0xAA,
        ..DealersConfig::default()
    });
    for language in [WrapperLanguage::XPath, WrapperLanguage::Lr] {
        let engine = Engine::builder(model.clone()).language(language).build();
        let (site, labels, space) = big
            .sites
            .iter()
            .filter_map(|gs| {
                let labels = annot.annotate(&gs.site);
                let space: Vec<NodeSet> = engine
                    .enumerate(&gs.site, &labels)
                    .ok()?
                    .wrappers()
                    .iter()
                    .map(|w| w.extraction.clone())
                    .collect();
                Some((&gs.site, labels, space))
            })
            .max_by_key(|(_, _, space)| space.len())
            .expect("dictionary labels enumerate a space");
        let name = format!("score_space_{}_{}", language.name(), space.len());
        g.bench_function(&name, |b| {
            b.iter(|| model.rank(black_box(site), black_box(&labels), space.iter()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_rank);
criterion_main!(benches);
