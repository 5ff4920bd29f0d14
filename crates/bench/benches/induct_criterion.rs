//! Criterion microbenchmarks for the wrapper inductors (§5): learning +
//! extraction cost of XPATH and LR on a DEALERS site.

use aw_annotate::{DictionaryAnnotator, MatchMode};
use aw_induct::{LrInductor, NodeSet, WrapperInductor, XPathInductor};
use aw_sitegen::{generate_dealers, DealersConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_inductors(c: &mut Criterion) {
    let ds = generate_dealers(&DealersConfig::small(1, 0x1DD));
    let site = &ds.sites[0].site;
    let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
    let labels: NodeSet = annot.annotate(site);
    assert!(!labels.is_empty());

    let mut g = c.benchmark_group("induct");
    // Cold: the labels' features are computed inside the iteration; warm:
    // an inductor that already holds them.
    g.bench_function("xpath/cold_extract", |b| {
        b.iter(|| XPathInductor::new(black_box(site)).extract(black_box(&labels)))
    });
    let xp = XPathInductor::new(site);
    g.bench_function("xpath/extract", |b| {
        b.iter(|| xp.extract(black_box(&labels)))
    });
    let lr = LrInductor::new(site);
    g.bench_function("lr/extract", |b| b.iter(|| lr.extract(black_box(&labels))));
    g.finish();
}

criterion_group!(benches, bench_inductors);
criterion_main!(benches);
