//! The v3 binary bundle + lazy registry invariants:
//!
//! * **Round trip** — v2 → pack → v3 → unpack → v2 is byte-identical
//!   for every rule language, on randomized bundles (seeded property
//!   test);
//! * **Corruption** — flipping *any single byte* of a v3 payload (or
//!   truncating it anywhere) yields a typed `AwError`, never a panic,
//!   and segment damage names the offending site key;
//! * **Residency** — the grace window reinstates an evicted wrapper's
//!   `Arc` (warmed template cache intact), and an eviction-under-load
//!   hammer sees no torn snapshot while the cap holds;
//! * **Equivalence** — a lazy service's responses are byte-identical
//!   to the fully-resident path for every language × thread count ×
//!   cache setting.

use autowrappers::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn training_site() -> Site {
    let page = |rows: &[(&str, &str)]| {
        let mut s = String::from("<table class='stores'>");
        for (n, a) in rows {
            s.push_str(&format!("<tr><td><b>{n}</b></td><td><u>{a}</u></td></tr>"));
        }
        s + "</table>"
    };
    Site::from_html(&[
        page(&[("ALPHA CO", "1 Elm"), ("BETA LLC", "2 Oak")]),
        page(&[("GAMMA INC", "3 Fir"), ("DELTA LTD", "4 Ash")]),
    ])
}

fn wrapper_for(language: WrapperLanguage) -> CompiledWrapper {
    let site = training_site();
    let mut seed = NodeSet::new();
    seed.extend(site.find_text("ALPHA CO"));
    seed.extend(site.find_text("DELTA LTD"));
    CompiledWrapper::from_rule(LearnedRule::learn(&site, language, &seed))
}

fn fresh_html(name: &str) -> String {
    format!("<table class='stores'><tr><td><b>{name}</b></td><td><u>9 Elm</u></td></tr></table>")
}

/// A bundle over the four languages under the given keys.
fn bundle_of(keys: &[&str]) -> WrapperBundle {
    let mut bundle = WrapperBundle::new();
    for (i, key) in keys.iter().enumerate() {
        bundle.insert(*key, wrapper_for(WrapperLanguage::ALL[i % 4]));
    }
    bundle
}

#[test]
fn pack_unpack_round_trip_is_byte_identical_on_random_bundles() {
    // Seeded property test: random key sets and language mixes, the
    // v2 → v3 → v2 round trip must reproduce the v2 JSON byte for byte
    // (and the v3 bytes must be deterministic).
    let mut rng = StdRng::seed_from_u64(0xB1D3);
    for round in 0..8 {
        let n_sites = rng.gen_range(0..=6usize);
        let mut bundle = WrapperBundle::new();
        for i in 0..n_sites {
            let language = WrapperLanguage::ALL[rng.gen_range(0..4usize)];
            let key = if rng.gen_bool(0.5) {
                format!("site-{i:03}")
            } else {
                format!("dealer {i} ünïcode/{language}")
            };
            bundle.insert(key, wrapper_for(language));
        }
        let v2 = bundle.to_json();
        let v3 = bundle.to_binary();
        let unpacked = WrapperBundle::from_binary(&v3).unwrap();
        assert_eq!(unpacked.to_json(), v2, "round {round}");
        assert_eq!(
            unpacked.to_binary(),
            v3,
            "round {round}: packing is deterministic"
        );
    }
}

#[test]
fn round_trip_preserves_extraction_for_all_four_languages() {
    let bundle = bundle_of(&["t", "u", "v", "w"]);
    let restored = WrapperBundle::from_binary(&bundle.to_binary()).unwrap();
    let page = parse(&fresh_html("OMEGA GROUP"));
    for language in WrapperLanguage::ALL {
        let key = bundle
            .iter()
            .find(|(_, w)| w.language() == language)
            .map(|(k, _)| k.to_string())
            .expect("all four languages present");
        assert_eq!(
            restored.get(&key).unwrap().extract(&page),
            bundle.get(&key).unwrap().extract(&page),
            "{language}"
        );
    }
}

#[test]
fn every_single_byte_flip_is_a_typed_error_never_a_panic() {
    // Full-coverage fuzz: the v3 layout checksums the index and every
    // segment and bounds-checks everything else, so a flip anywhere —
    // header, segments, index — must surface as Err from open or
    // load_all. A "successful" full load of damaged bytes would mean a
    // coverage hole.
    let bytes = bundle_of(&["alpha", "beta", "gamma"]).to_binary();
    for pos in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x01;
        let result = std::panic::catch_unwind(|| {
            BundleStore::from_bytes(corrupted).and_then(|store| store.load_all())
        });
        let outcome = result.unwrap_or_else(|_| panic!("byte {pos}: corruption panicked"));
        assert!(outcome.is_err(), "byte {pos}: flip went undetected");
    }
}

#[test]
fn truncation_anywhere_is_a_typed_error() {
    let bytes = bundle_of(&["alpha", "beta"]).to_binary();
    let total = bytes.len();
    for len in [0, 7, 8, 43, 44, total / 2, total - 1] {
        let result = std::panic::catch_unwind(|| {
            BundleStore::from_bytes(bytes[..len].to_vec()).and_then(|store| store.load_all())
        });
        let outcome = result.unwrap_or_else(|_| panic!("truncation to {len} panicked"));
        assert!(outcome.is_err(), "truncation to {len} went undetected");
    }
}

#[test]
fn segment_damage_names_the_offending_site_key() {
    let bundle = bundle_of(&["alpha", "beta", "gamma"]);
    let bytes = bundle.to_binary();
    // Find beta's segment by loading through a healthy store first.
    let healthy = BundleStore::from_bytes(bytes.clone()).unwrap();
    let beta_len = healthy
        .segments()
        .find(|(key, _)| *key == "beta")
        .map(|(_, len)| len)
        .unwrap();
    assert!(beta_len > 0);
    // Flip a byte inside beta's segment: alpha's segment starts at 44,
    // beta's right after it.
    let alpha_len = healthy.segments().next().unwrap().1 as usize;
    let mut corrupted = bytes;
    corrupted[44 + alpha_len + 2] ^= 0x40;
    // The index is intact, so the store still opens and the other
    // segments still load.
    let store = BundleStore::from_bytes(corrupted).unwrap();
    assert!(store.load("alpha").is_ok());
    assert!(store.load("gamma").is_ok());
    let err = store.load("beta").unwrap_err();
    assert_eq!(err.site(), Some("beta"), "{err}");
    assert!(err.to_string().contains("beta"), "{err}");
}

#[test]
fn grace_window_retains_warmed_template_caches_across_eviction() {
    // Only an xpath wrapper keeps a template cache, so "a" is the XPath
    // site whose warmed cache the grace window must retain.
    let mut bundle = bundle_of(&["b", "c"]);
    bundle.insert("a", wrapper_for(WrapperLanguage::XPath));
    let store = Arc::new(BundleStore::from_bytes(bundle.to_binary()).unwrap());
    let registry = Arc::new(WrapperRegistry::from_store(store, Some(2)));
    let service = ExtractionService::new(Arc::clone(&registry));
    // Warm site "a"'s template cache: first request bypasses, second
    // records a trace.
    for name in ["OMEGA", "SIGMA"] {
        service
            .handle(&ExtractRequest::single("a", fresh_html(name)))
            .unwrap();
    }
    let warmed = registry.get("a").unwrap();
    // Fault in "b" and "c": the cap (2) evicts "a" into the grace set.
    for site in ["b", "c"] {
        service
            .handle(&ExtractRequest::single(site, fresh_html("KAPPA")))
            .unwrap();
    }
    assert!(registry.get("a").is_none(), "a was evicted");
    // Re-request "a": the grace window must reinstate the same wrapper
    // (not re-deserialize a cold one) — proven by Arc identity and by
    // the template cache replaying on the very next request.
    let response = service
        .handle(&ExtractRequest::single("a", fresh_html("THETA")))
        .unwrap();
    assert_eq!(response.pages, vec![vec!["THETA".to_string()]]);
    let back = registry.get("a").unwrap();
    assert!(Arc::ptr_eq(&warmed, &back), "grace reinstated a cold copy");
    let (hits, _) = back.template_cache_stats().expect("cache on by default");
    assert!(hits >= 1, "the warmed cache must have replayed");
    let stats = registry.residency_stats();
    assert_eq!(stats.grace_hits, 1);
    assert_eq!(stats.faults, 3, "a,b,c faulted once each");
}

#[test]
fn eviction_under_load_never_serves_a_torn_snapshot() {
    // 6 sites behind a cap of 2: four hammer threads request all sites
    // round-robin, so every request races fault-ins and evictions.
    // Responses must equal the fully-resident oracle exactly, and the
    // cap must hold once the dust settles.
    let keys = ["s0", "s1", "s2", "s3", "s4", "s5"];
    let bundle = bundle_of(&keys);
    let page = fresh_html("OMEGA GROUP");
    // Oracle: each site's response from a fully-resident service.
    let resident = ExtractionService::new(Arc::new(WrapperRegistry::from_bundle(
        WrapperBundle::from_binary(&bundle.to_binary()).unwrap(),
    )));
    let expected: Vec<_> = keys
        .iter()
        .map(|site| {
            resident
                .handle(&ExtractRequest::single(*site, page.clone()))
                .unwrap()
        })
        .collect();

    let store = Arc::new(BundleStore::from_bytes(bundle.to_binary()).unwrap());
    let registry = Arc::new(WrapperRegistry::from_store(store, Some(2)));
    let service =
        Arc::new(ExtractionService::new(Arc::clone(&registry)).with_executor(Executor::new(4)));
    std::thread::scope(|scope| {
        for t in 0..4 {
            let service = Arc::clone(&service);
            let (page, expected) = (&page, &expected);
            scope.spawn(move || {
                for i in 0..50 {
                    let pick = (t * 17 + i * 5) % keys.len();
                    let got = service
                        .handle(&ExtractRequest::single(keys[pick], page.clone()))
                        .unwrap();
                    assert_eq!(got, expected[pick], "thread {t}, iter {i}");
                }
            });
        }
    });
    let stats = registry.residency_stats();
    assert!(stats.evictions > 0, "the cap must have been contended");
    assert!(
        stats.resident <= 2,
        "cap violated after the load: {stats:?}"
    );
    assert_eq!(registry.len(), stats.resident);
}

#[test]
fn lazy_responses_are_byte_identical_to_resident_for_every_configuration() {
    // The tentpole acceptance matrix: language × threads {1,2,8} ×
    // template-cache setting. The lazy service (cap 1, so every other
    // request crosses an eviction) must match the fully-resident
    // service response-for-response.
    let crawl = [
        fresh_html("OMEGA GROUP"),
        "<p>unrelated page</p>".to_string(),
        fresh_html("SIGMA BROS"),
        String::new(),
    ];
    for language in WrapperLanguage::ALL {
        let key = format!("site-{language}");
        let mut bundle = WrapperBundle::new();
        bundle.insert(key.clone(), wrapper_for(language));
        let bytes = bundle.to_binary();
        for cache in [true, false] {
            for threads in [1usize, 2, 8] {
                // Resident: load the same binary eagerly.
                let store = BundleStore::from_bytes(bytes.clone()).unwrap();
                let resident_registry = Arc::new(WrapperRegistry::new());
                resident_registry.insert(
                    key.clone(),
                    store
                        .load(&key)
                        .unwrap()
                        .unwrap()
                        .with_template_cache(cache),
                );
                let resident =
                    ExtractionService::new(resident_registry).with_executor(Executor::new(threads));
                // Lazy: fault in from the store on demand. The faulted
                // wrapper carries the artifact's default cache setting,
                // so align the resident one when cache is default-on;
                // with cache off, insert the off-cache wrapper into the
                // lazy registry up front (the store cannot know the
                // runtime setting — this pins that equivalence holds
                // whichever way the wrapper became resident).
                let lazy_registry = Arc::new(WrapperRegistry::from_store(
                    Arc::new(BundleStore::from_bytes(bytes.clone()).unwrap()),
                    Some(1),
                ));
                if !cache {
                    let store = BundleStore::from_bytes(bytes.clone()).unwrap();
                    lazy_registry.insert(
                        key.clone(),
                        store
                            .load(&key)
                            .unwrap()
                            .unwrap()
                            .with_template_cache(false),
                    );
                }
                let lazy =
                    ExtractionService::new(lazy_registry).with_executor(Executor::new(threads));
                // One multi-page request and the same crawl single-page.
                let multi = ExtractRequest {
                    site: key.clone(),
                    pages: crawl.to_vec(),
                };
                assert_eq!(
                    lazy.handle(&multi).unwrap(),
                    resident.handle(&multi).unwrap(),
                    "{language}, cache {cache}, threads {threads}"
                );
                for html in &crawl {
                    let single = ExtractRequest::single(key.clone(), html.clone());
                    assert_eq!(
                        lazy.handle(&single).unwrap(),
                        resident.handle(&single).unwrap(),
                        "{language}, cache {cache}, threads {threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn artifact_reader_round_trips_every_generation_through_one_entry_point() {
    let bundle = bundle_of(&["a", "b"]);
    let dir = std::env::temp_dir().join(format!("aw-bundle-binary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v2_path = dir.join("bundle.json");
    let v3_path = dir.join("bundle.awb");
    std::fs::write(&v2_path, bundle.to_json()).unwrap();
    std::fs::write(&v3_path, bundle.to_binary()).unwrap();
    // v2 opens resident, v3 opens lazy; both converge to the same JSON.
    let v2 = ArtifactReader::open(&v2_path).unwrap();
    assert!(matches!(v2, LoadedArtifact::Resident(_)));
    let v3 = ArtifactReader::open(&v3_path).unwrap();
    assert!(matches!(v3, LoadedArtifact::Lazy(_)));
    assert_eq!(v3.site_keys(), v2.site_keys());
    assert_eq!(
        v3.into_bundle().unwrap().to_json(),
        v2.into_bundle().unwrap().to_json()
    );
    std::fs::remove_dir_all(&dir).ok();
}
