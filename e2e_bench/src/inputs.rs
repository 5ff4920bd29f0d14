//! Workload inputs, all derived from the run's `--seed`.
//!
//! Serving wrappers are induced from each site's *gold* labels, so a
//! change to ranking cannot change what the serve workloads receive.
//! Expected response bodies come from the reference XPath interpreter
//! over the classic parser — the repository's oracles — never from the
//! serving path being measured.

use crate::client::{post_extract, Wire};
use crate::stats::Digest;
use aw_core::{CompiledWrapper, LearnedRule, WrapperBundle, WrapperLanguage};
use aw_induct::{NodeSet, Site};
use aw_sitegen::{generate_dealers, DealersConfig, GeneratedSite};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::BTreeMap;

/// The generator seed for one input stream of a run (splitmix64 over
/// the run seed and a per-stream tag).
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a serve workload needs: the wrapper artifact it loads and the
/// request stream with the expected reply to each request.
pub struct ServeInputs {
    /// A v2 JSON bundle, or a v3 binary bundle when served lazily.
    pub artifact: Vec<u8>,
    pub wire: Wire,
    pub digest: Digest,
    /// Per site, its distinct page shapes (whole-page template
    /// fingerprints): the entries the site's template cache would need to
    /// replay every page verbatim.
    pub shapes_per_site: Vec<usize>,
}

/// Shape of one serve workload's inputs.
pub struct ServeShape {
    pub dealers: DealersConfig,
    /// Pages per request.
    pub pages_per_request: usize,
    /// `Some(n)`: a sequence of `n` single-page requests drawn with
    /// Zipf(1) site popularity. `None`: every request once, shuffled.
    pub zipf_requests: Option<usize>,
    /// Ship the wrappers as a v3 binary bundle instead of v2 JSON.
    pub binary: bool,
}

/// Renders the body the server must answer for `pages` of `site`, with
/// values from `aw_xpath::reference::evaluate` over `aw_dom::parse`.
pub fn expected_body(site: &str, rule: &LearnedRule, pages: &[&str]) -> String {
    let LearnedRule::XPath(xpath) = rule else {
        panic!("serve workloads use XPATH wrappers");
    };
    let values: Vec<Vec<String>> = pages
        .iter()
        .map(|html| {
            let doc = aw_dom::parse(html);
            aw_xpath::reference::evaluate(xpath, &doc)
                .into_iter()
                .filter_map(|id| doc.text(id).map(str::to_string))
                .collect()
        })
        .collect();
    let strings =
        |items: &[String]| Value::Array(items.iter().cloned().map(Value::String).collect());
    let body = Value::Object(vec![
        ("site".into(), Value::String(site.into())),
        (
            "language".into(),
            Value::String(rule.language().to_string()),
        ),
        ("rule".into(), Value::String(rule.to_string())),
        (
            "pages".into(),
            Value::Array(values.iter().map(|v| strings(v)).collect()),
        ),
        ("values".into(), strings(&values.concat())),
        (
            "errors".into(),
            Value::Array(vec![Value::Null; pages.len()]),
        ),
    ]);
    serde_json::to_string(&body).expect("expected body serializes")
}

fn request_body(site: &str, pages: &[&str]) -> String {
    let payload = match pages {
        [html] => ("html".to_string(), Value::String(html.to_string())),
        _ => (
            "pages".to_string(),
            Value::Array(pages.iter().map(|p| Value::String(p.to_string())).collect()),
        ),
    };
    serde_json::to_string(&Value::Object(vec![
        ("site".into(), Value::String(site.into())),
        payload,
    ]))
    .expect("request body serializes")
}

/// Sites generated at a time: the parsed pages of one chunk are
/// serialized and dropped before the next, which keeps the generator's
/// memory peak small.
const GEN_CHUNK: usize = 250;

pub fn serve_inputs(shape: &ServeShape) -> ServeInputs {
    let mut bundle = WrapperBundle::new();
    let mut keys = Vec::with_capacity(shape.dealers.sites);
    let mut rules = Vec::with_capacity(shape.dealers.sites);
    let mut html: Vec<Vec<String>> = Vec::with_capacity(shape.dealers.sites);
    let mut shapes_per_site = Vec::with_capacity(shape.dealers.sites);
    for (chunk, first) in (0..shape.dealers.sites).step_by(GEN_CHUNK).enumerate() {
        let ds = generate_dealers(&DealersConfig {
            sites: GEN_CHUNK.min(shape.dealers.sites - first),
            seed: derive_seed(shape.dealers.seed, chunk as u64),
            ..shape.dealers.clone()
        });
        for site in &ds.sites {
            let key = format!("site-{:04}", first + site.id);
            let rule = LearnedRule::learn(&site.site, WrapperLanguage::XPath, site.gold());
            bundle.insert(key.clone(), CompiledWrapper::from_rule(rule.clone()));
            keys.push(key);
            rules.push(rule);
            let pages: Vec<String> = site.site.pages().iter().map(aw_dom::serialize).collect();
            let shapes: std::collections::BTreeSet<u64> = pages
                .iter()
                .map(|page| aw_dom::parse_indexed(page).index().template_fingerprint())
                .collect();
            shapes_per_site.push(shapes.len());
            html.push(pages);
        }
    }
    let artifact = if shape.binary {
        bundle.to_binary()
    } else {
        bundle.to_json().into_bytes()
    };
    drop(bundle);

    // Distinct requests as (site index, first page); built once each.
    let mut rng = StdRng::seed_from_u64(derive_seed(shape.dealers.seed, u64::MAX));
    let per = shape.pages_per_request;
    let mut distinct: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut sequence_keys: Vec<(usize, usize)> = Vec::new();
    match shape.zipf_requests {
        Some(n) => {
            // Zipf(1): the k-th most popular site is drawn with weight
            // 1/k; popularity ranks are a seeded permutation of sites.
            let mut by_rank: Vec<usize> = (0..html.len()).collect();
            by_rank.shuffle(&mut rng);
            let mut cdf = Vec::with_capacity(by_rank.len());
            let mut total = 0.0;
            for k in 1..=by_rank.len() {
                total += 1.0 / k as f64;
                cdf.push(total);
            }
            for _ in 0..n {
                let u = rng.gen_range(0.0..total);
                let rank = cdf.partition_point(|&c| c <= u).min(by_rank.len() - 1);
                let site = by_rank[rank];
                let page = rng.gen_range(0..html[site].len() / per) * per;
                sequence_keys.push((site, page));
            }
        }
        None => {
            for (s, pages) in html.iter().enumerate() {
                for p in (0..pages.len() / per).map(|i| i * per) {
                    sequence_keys.push((s, p));
                }
            }
            sequence_keys.shuffle(&mut rng);
        }
    }
    let mut wire = Wire {
        requests: Vec::new(),
        expected: Vec::new(),
        pages: Vec::new(),
        sequence: Vec::with_capacity(sequence_keys.len()),
    };
    let mut digest = Digest::default();
    digest.add(&artifact);
    for key @ (s, p) in sequence_keys {
        let next = distinct.len();
        let index = *distinct.entry(key).or_insert(next);
        if index == next {
            let pages: Vec<&str> = html[s][p..p + per].iter().map(String::as_str).collect();
            let body = request_body(&keys[s], &pages);
            let expected = expected_body(&keys[s], &rules[s], &pages);
            digest.add(body.as_bytes());
            digest.add(expected.as_bytes());
            wire.requests.push(post_extract(&body));
            wire.expected.push(expected.into_bytes());
            wire.pages.push(per);
        }
        wire.sequence.push(index);
        digest.add(&(index as u64).to_le_bytes());
    }
    ServeInputs {
        artifact,
        wire,
        digest,
        shapes_per_site,
    }
}

/// What the learn workload needs: the training half (for the ranking
/// model), the sites to learn and their gold labels.
pub struct LearnInputs {
    pub train: Vec<GeneratedSite>,
    pub sites: Vec<Site>,
    pub gold: Vec<NodeSet>,
    pub dictionary: Vec<String>,
    pub pages_per_site: usize,
    pub digest: Digest,
}

pub fn learn_inputs(dealers: &DealersConfig) -> LearnInputs {
    let ds = generate_dealers(dealers);
    let mut digest = Digest::default();
    for name in &ds.dictionary {
        digest.add(name.as_bytes());
    }
    for site in &ds.sites {
        for page in site.site.pages() {
            digest.add(aw_dom::serialize(page).as_bytes());
        }
        for node in site.gold() {
            digest.add(&[node.page.to_le_bytes(), node.node.0.to_le_bytes()].concat());
        }
    }
    // The paper's protocol: the model learns from the even half, the
    // odd half is learned and scored.
    let (train, test): (Vec<GeneratedSite>, Vec<GeneratedSite>) =
        ds.sites.into_iter().partition(|site| site.id % 2 == 0);
    let gold = test.iter().map(|site| site.gold().clone()).collect();
    LearnInputs {
        train,
        sites: test.into_iter().map(|site| site.site).collect(),
        gold,
        dictionary: ds.dictionary,
        pages_per_site: dealers.pages_per_site,
        digest,
    }
}
