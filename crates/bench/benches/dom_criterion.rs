//! Criterion microbenchmarks for the DOM substrate: tokenize, parse,
//! index and serialize a realistic listing page.
//!
//! `parse_indexed` times the streaming parse→index of the serving
//! request path without freeing the documents (the bencher drops them
//! after the clock stops); `parse_indexed+drop` adds the free, which the
//! request path pays too; `parse+index` is the classic two-pass oracle.

use aw_sitegen::{generate_dealers, DealersConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_dom(c: &mut Criterion) {
    let ds = generate_dealers(&DealersConfig::small(1, 0xD0));
    let html = aw_dom::serialize(ds.sites[0].site.page(0));

    let mut g = c.benchmark_group("dom");
    g.throughput(Throughput::Bytes(html.len() as u64));
    g.bench_function("tokenize", |b| {
        b.iter(|| aw_dom::tokenizer::tokenize(black_box(&html)))
    });
    g.bench_function("parse", |b| b.iter(|| aw_dom::parse(black_box(&html))));
    g.bench_function("parse_indexed", |b| {
        b.iter_with_large_drop(|| aw_dom::parse_indexed(black_box(&html)))
    });
    g.bench_function("parse_indexed+drop", |b| {
        b.iter(|| aw_dom::parse_indexed(black_box(&html)))
    });
    g.bench_function("parse+index", |b| {
        b.iter(|| {
            let doc = aw_dom::parse(black_box(&html));
            doc.index().template_fingerprint();
            doc
        })
    });
    let doc = aw_dom::parse(&html);
    g.bench_function("serialize_with_spans", |b| {
        b.iter(|| aw_dom::serialize_with_spans(black_box(&doc)))
    });
    g.bench_function("preorder", |b| {
        b.iter(|| black_box(&doc).preorder_all().count())
    });
    g.finish();
}

criterion_group!(benches, bench_dom);
criterion_main!(benches);
