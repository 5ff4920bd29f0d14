//! Criterion microbenchmarks for the enumeration algorithms (§4):
//! TopDown vs BottomUp vs Naive on the paper's Example 1 TABLE and on a
//! DEALERS site with the XPATH and LR inductors.

use aw_annotate::{DictionaryAnnotator, MatchMode};
use aw_enum::{bottom_up, naive, top_down};
use aw_induct::table::{example1_inductor, example1_labels};
use aw_induct::{LrInductor, NodeSet, XPathInductor};
use aw_sitegen::{generate_dealers, DealersConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_table(c: &mut Criterion) {
    let inductor = example1_inductor();
    let labels = example1_labels();
    let mut g = c.benchmark_group("enumerate/table_example1");
    g.bench_function("naive", |b| b.iter(|| naive(&inductor, black_box(&labels))));
    g.bench_function("bottom_up", |b| {
        b.iter(|| bottom_up(&inductor, black_box(&labels)))
    });
    g.bench_function("top_down", |b| {
        b.iter(|| top_down(&inductor, black_box(&labels)))
    });
    g.finish();
}

fn bench_xpath_site(c: &mut Criterion) {
    let ds = generate_dealers(&DealersConfig::small(1, 0xBE7C));
    let site = &ds.sites[0].site;
    let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
    let labels: NodeSet = annot.annotate(site);
    // The inductor is built inside the timed closure: it computes the
    // labels' features on demand and keeps them, so one shared across
    // iterations would hide that work, as `Engine::learn` pays it per job.
    let mut g = c.benchmark_group("enumerate/xpath_dealer_site");
    g.bench_function("bottom_up", |b| {
        b.iter(|| bottom_up(&XPathInductor::new(black_box(site)), black_box(&labels)))
    });
    g.bench_function("top_down", |b| {
        b.iter(|| top_down(&XPathInductor::new(black_box(site)), black_box(&labels)))
    });
    g.finish();
}

fn bench_lr_site(c: &mut Criterion) {
    let ds = generate_dealers(&DealersConfig::small(1, 0xBE7C));
    let site = &ds.sites[0].site;
    let annot = DictionaryAnnotator::new(ds.dictionary.iter(), MatchMode::Contains);
    let labels: NodeSet = annot.annotate(site);
    let inductor = LrInductor::new(site);
    let mut g = c.benchmark_group("enumerate/lr_dealer_site");
    g.bench_function("bottom_up", |b| {
        b.iter(|| bottom_up(&inductor, black_box(&labels)))
    });
    g.bench_function("top_down", |b| {
        b.iter(|| top_down(&inductor, black_box(&labels)))
    });
    g.finish();
}

criterion_group!(benches, bench_table, bench_xpath_site, bench_lr_site);
criterion_main!(benches);
