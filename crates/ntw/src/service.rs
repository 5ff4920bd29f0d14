//! The serving side: a resident wrapper store and a concurrent
//! extraction service.
//!
//! The paper's economics are "learn offline, extract at web scale": a
//! wrapper is induced once per site and then applied to every page the
//! crawler brings in. Until this module the public surface stopped at
//! one-shot [`CompiledWrapper::extract_pages_with`] calls — there was no API
//! for holding *many* sites' wrappers resident and answering concurrent
//! extraction requests. Two types close that gap:
//!
//! * [`WrapperRegistry`] — a read-mostly map from site keys to serving
//!   wrappers. Readers take an atomic snapshot (`Arc` swap behind a
//!   brief `RwLock`), so a request in flight always sees one consistent
//!   generation: hot-swapping a [`WrapperBundle`] under load never
//!   serves a torn view. Wrappers untouched by an update keep their
//!   identity — and therefore their warmed template caches. At web
//!   scale the registry goes **lazy**: built over a v3
//!   [`crate::BundleStore`] ([`WrapperRegistry::from_store`]), it
//!   faults wrappers in per site on demand into a slot table indexed
//!   by the store's site ordinals, and bounds residency with CLOCK
//!   eviction. A fault or eviction costs the same at any cap, and
//!   responses stay byte-identical to the fully-resident path.
//! * [`ExtractionService`] — the request loop. [`ExtractionService::handle`]
//!   parses each request page once into a `DocIndex`, routes to the
//!   site's wrapper, and evaluates through it on the shared executor —
//!   for an xpath wrapper, through its **persistent per-site batch trie
//!   and cross-page [`aw_xpath::TemplateCache`]**. Structurally
//!   identical pages arriving in *separate requests* therefore hit
//!   template replay: the cache belongs to the resident wrapper, not
//!   to any single call.
//!
//! `aw-serve` fronts an `ExtractionService` with an HTTP/1.1 interface
//! (`awrap serve`); in-process consumers use it directly (see
//! `examples/serve_extract.rs`). Responses are byte-identical to direct
//! [`CompiledWrapper::extract_pages_with`] for every language, thread count
//! and cache setting — enforced by `tests/extraction_service.rs`.

use crate::artifact::{CompiledWrapper, WrapperBundle};
use crate::config::WrapperLanguage;
use crate::error::AwError;
use crate::health::{HealthThresholds, HealthTracker, PageView, SiteHealth};
use crate::latency::LatencyHistogram;
use crate::relearn::RelearnController;
use crate::store::BundleStore;
use aw_dom::Document;
use aw_pool::Executor;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

/// One immutable generation of a fully-resident registry's contents.
#[derive(Debug, Default)]
struct Snapshot {
    wrappers: BTreeMap<String, Arc<CompiledWrapper>>,
    generation: u64,
}

/// Where one store site's wrapper is. A lazy registry holds one slot
/// per site of its [`BundleStore`], indexed by the site's ordinal.
#[derive(Debug, Default)]
enum Slot {
    /// Not in memory: the next request faults it in from the store.
    #[default]
    Absent,
    /// Resident in CLOCK frame `frame`. `referenced` is the
    /// second-chance bit: every hit sets it, the passing hand clears it.
    Resident {
        wrapper: Arc<CompiledWrapper>,
        frame: usize,
        referenced: bool,
    },
    /// Evicted, but still held at grace-ring position `at`: the next
    /// request reinstates this same `Arc`, its warmed template cache
    /// intact.
    Graced {
        wrapper: Arc<CompiledWrapper>,
        at: usize,
    },
}

/// The contents of a lazy registry: the attached store, one [`Slot`]
/// per store site, the CLOCK frames and the grace ring over those
/// slots, and the pinned wrappers that inserts placed.
///
/// No operation here scales with the residency cap. A site resolves to
/// its ordinal by the store's binary search; a hit sets one bit; a
/// fault, grace reinstatement or eviction rewrites a fixed number of
/// slots, plus the CLOCK sweep, whose steps are paid for by the
/// reference bits they clear (amortized O(1) per admission).
#[derive(Debug)]
struct SlotTable {
    store: Arc<BundleStore>,
    /// Cap on wrappers faulted in from the store; `None` = unbounded.
    max_resident: Option<usize>,
    /// One slot per store site, indexed by ordinal.
    slots: Vec<Slot>,
    /// The CLOCK frames: ordinals of the resident store sites.
    frames: Vec<usize>,
    /// The CLOCK hand: the frame the next admission examines first.
    hand: usize,
    /// Ring of recently evicted ordinals. An entry is live while its
    /// slot is still `Graced` at that position; reinstated or removed
    /// sites leave stale entries the ring simply overwrites.
    grace: Vec<usize>,
    /// The grace-ring position the next eviction writes.
    grace_next: usize,
    /// Live grace-ring entries.
    graced: usize,
    /// Inserted wrappers by site key. Consulted before the store, so
    /// they override its copies, and never evicted.
    pinned: BTreeMap<String, Arc<CompiledWrapper>>,
    generation: u64,
    faults: u64,
    evictions: u64,
    grace_hits: u64,
}

impl SlotTable {
    fn new(store: Arc<BundleStore>, max_resident: Option<usize>) -> SlotTable {
        let mut slots = Vec::new();
        slots.resize_with(store.len(), Slot::default);
        SlotTable {
            store,
            max_resident: max_resident.map(|cap| cap.max(1)),
            slots,
            frames: Vec::new(),
            hand: 0,
            grace: Vec::new(),
            grace_next: 0,
            graced: 0,
            pinned: BTreeMap::new(),
            generation: 0,
            faults: 0,
            evictions: 0,
            grace_hits: 0,
        }
    }

    /// Grace ring size: a quarter of the residency cap, floor 2.
    fn grace_cap(&self) -> usize {
        self.max_resident.map_or(2, |cap| (cap / 4).max(2))
    }

    fn len(&self) -> usize {
        self.pinned.len() + self.frames.len()
    }

    /// The in-memory wrapper serving `site`, if any (not a reference).
    fn get(&self, site: &str) -> Option<Arc<CompiledWrapper>> {
        if let Some(wrapper) = self.pinned.get(site) {
            return Some(Arc::clone(wrapper));
        }
        match &self.slots[self.store.ordinal(site)?] {
            Slot::Resident { wrapper, .. } => Some(Arc::clone(wrapper)),
            _ => None,
        }
    }

    /// Pinned wrapper, resident hit, grace reinstatement or store fault,
    /// in that order.
    fn get_or_fault(&mut self, site: &str) -> Result<Option<Arc<CompiledWrapper>>, AwError> {
        if let Some(wrapper) = self.pinned.get(site) {
            return Ok(Some(Arc::clone(wrapper)));
        }
        let Some(ordinal) = self.store.ordinal(site) else {
            return Ok(None);
        };
        if let Slot::Resident {
            wrapper,
            referenced,
            ..
        } = &mut self.slots[ordinal]
        {
            *referenced = true;
            return Ok(Some(Arc::clone(wrapper)));
        }
        let wrapper = match std::mem::take(&mut self.slots[ordinal]) {
            Slot::Graced { wrapper, .. } => {
                self.graced -= 1;
                self.grace_hits += 1;
                wrapper
            }
            _ => {
                let wrapper = Arc::new(self.store.load_ordinal(ordinal)?);
                self.faults += 1;
                wrapper
            }
        };
        self.admit(ordinal, Arc::clone(&wrapper));
        Ok(Some(wrapper))
    }

    /// Makes `ordinal` resident, bumping the generation once. Every
    /// admission moves the CLOCK hand: below the cap by one frame,
    /// clearing that frame's reference bit; at the cap until it reaches
    /// a frame whose bit was already clear. That frame's site is evicted
    /// into the grace ring (one more bump) and the new site takes its
    /// place, just behind the hand. A site referenced since the hand
    /// last passed it so survives one sweep.
    fn admit(&mut self, ordinal: usize, wrapper: Arc<CompiledWrapper>) {
        self.generation += 1;
        let frame = if self
            .max_resident
            .is_some_and(|cap| self.frames.len() >= cap)
        {
            let victim = loop {
                let frame = self.hand;
                self.hand = (frame + 1) % self.frames.len();
                if !self.clear_reference(frame) {
                    break frame;
                }
            };
            self.park(self.frames[victim]);
            self.frames[victim] = ordinal;
            victim
        } else {
            if !self.frames.is_empty() {
                self.clear_reference(self.hand);
                self.hand = (self.hand + 1) % self.frames.len();
            }
            self.frames.push(ordinal);
            self.frames.len() - 1
        };
        self.slots[ordinal] = Slot::Resident {
            wrapper,
            frame,
            referenced: false,
        };
    }

    /// Clears the reference bit of the site in `frame`, returning
    /// whether it was set.
    fn clear_reference(&mut self, frame: usize) -> bool {
        match &mut self.slots[self.frames[frame]] {
            Slot::Resident { referenced, .. } => std::mem::take(referenced),
            _ => unreachable!("every CLOCK frame holds a resident slot"),
        }
    }

    /// Evicts resident `ordinal` into the grace ring (one generation
    /// bump), overwriting the ring's oldest position and dropping the
    /// wrapper that position still held, if its entry was live.
    fn park(&mut self, ordinal: usize) {
        let Slot::Resident { wrapper, .. } = std::mem::take(&mut self.slots[ordinal]) else {
            unreachable!("only resident sites are evicted");
        };
        self.generation += 1;
        self.evictions += 1;
        let at = self.grace_next;
        self.grace_next = (at + 1) % self.grace_cap();
        if at == self.grace.len() {
            self.grace.push(ordinal);
        } else {
            let oldest = std::mem::replace(&mut self.grace[at], ordinal);
            match std::mem::take(&mut self.slots[oldest]) {
                Slot::Graced { at: held, .. } if held == at => self.graced -= 1,
                other => self.slots[oldest] = other,
            }
        }
        self.slots[ordinal] = Slot::Graced { wrapper, at };
        self.graced += 1;
    }

    /// Drops the store copy of `site` from residency and from the grace
    /// ring, without a generation bump (the calling mutation bumps
    /// once). True when a resident copy was dropped.
    fn unload(&mut self, site: &str) -> bool {
        let Some(ordinal) = self.store.ordinal(site) else {
            return false;
        };
        match std::mem::take(&mut self.slots[ordinal]) {
            Slot::Resident { frame, .. } => {
                self.frames.swap_remove(frame);
                if let Some(&moved) = self.frames.get(frame) {
                    if let Slot::Resident { frame: at, .. } = &mut self.slots[moved] {
                        *at = frame;
                    }
                }
                if self.hand >= self.frames.len() {
                    self.hand = 0;
                }
                true
            }
            Slot::Graced { .. } => {
                self.graced -= 1;
                false
            }
            Slot::Absent => false,
        }
    }

    /// Pins `wrapper` for `site`, superseding any store copy.
    fn pin(&mut self, site: String, wrapper: Arc<CompiledWrapper>) -> u64 {
        self.unload(&site);
        self.pinned.insert(site, wrapper);
        self.generation += 1;
        self.generation
    }

    /// Unpins `site` and drops its store copy; true if either was held.
    fn remove(&mut self, site: &str) -> bool {
        let pinned = self.pinned.remove(site).is_some();
        let resident = self.unload(site);
        self.generation += 1;
        pinned || resident
    }

    /// Pinned and resident wrappers, in key order.
    fn entries(&self) -> Vec<(String, Arc<CompiledWrapper>)> {
        let resident = self
            .frames
            .iter()
            .map(|&ordinal| match &self.slots[ordinal] {
                Slot::Resident { wrapper, .. } => {
                    (self.store.key(ordinal).to_string(), Arc::clone(wrapper))
                }
                _ => unreachable!("every CLOCK frame holds a resident slot"),
            });
        let mut entries: Vec<_> = self
            .pinned
            .iter()
            .map(|(key, wrapper)| (key.clone(), Arc::clone(wrapper)))
            .chain(resident)
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    fn stats(&self) -> ResidencyStats {
        ResidencyStats {
            resident: self.len(),
            max_resident: self.max_resident,
            store_sites: Some(self.store.len()),
            faults: self.faults,
            evictions: self.evictions,
            grace_entries: self.graced,
            grace_hits: self.grace_hits,
            pinned: self.pinned.len(),
        }
    }
}

/// A point-in-time report of a lazy registry's residency state — the
/// payload behind the HTTP front end's `GET /wrappers` `"residency"`
/// object.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResidencyStats {
    /// Wrappers currently resident (= [`WrapperRegistry::len`]), pinned
    /// ones included.
    pub resident: usize,
    /// The residency cap, if one is set.
    pub max_resident: Option<usize>,
    /// Sites indexed by the attached [`BundleStore`], if one is.
    pub store_sites: Option<usize>,
    /// Segments faulted in from the store since attach.
    pub faults: u64,
    /// Wrappers evicted to enforce the cap.
    pub evictions: u64,
    /// Evicted wrappers currently in the grace window.
    pub grace_entries: usize,
    /// Faults answered by reinstating a grace-window wrapper (its
    /// warmed template cache intact).
    pub grace_hits: u64,
    /// Inserted wrappers, which the cap never evicts.
    pub pinned: usize,
}

/// A read-mostly, atomically swappable store of serving wrappers, keyed
/// by site.
///
/// A fully-resident registry ([`WrapperRegistry::from_bundle`],
/// [`WrapperRegistry::new`]) reads an `Arc` snapshot under a
/// briefly-held read lock; every mutation builds a fresh snapshot
/// (sharing the untouched wrappers' `Arc`s, so their template caches
/// survive) and swaps it in whole. A concurrent reader therefore
/// observes either the old generation or the new one, never a mixture.
///
/// ## Lazy mode: bounded residency over a [`BundleStore`]
///
/// A registry built with [`WrapperRegistry::from_store`] starts
/// *empty* and faults wrappers in one segment at a time as requests
/// name them ([`WrapperRegistry::get_or_fault`]). Its contents live in
/// a **slot table** indexed by each site's ordinal in the store's
/// sorted index, under one residency lock: a hit sets the slot's
/// reference bit, a fault fills one slot, an eviction clears one. A
/// residency cap bounds the faulted-in wrappers and picks victims by
/// **CLOCK** (second chance): a hand sweeps the resident slots,
/// sparing each site referenced since its last pass once. An evicted
/// wrapper passes through a small grace ring, so an immediate
/// re-request reinstates the same `Arc` with its warmed template cache.
/// None of this costs more with a larger cap. Each request still reads
/// one consistent wrapper per site, and responses are byte-identical to
/// the fully-resident path.
///
/// Writes to a lazy registry are never undone by the store:
/// [`WrapperRegistry::insert_shared`] **pins** its wrapper, which then
/// overrides the store's copy and is never evicted, and
/// [`WrapperRegistry::load_bundle`] **detaches** the store, making the
/// bundle the registry's whole content.
///
/// ## Generation contract
///
/// The generation counts mutation *attempts*, not effective changes:
/// every [`WrapperRegistry::load_bundle`] / insert / remove bumps it
/// once, including a remove of an absent key. In lazy mode, fault-ins
/// and evictions are mutations like any other — each bumps the
/// generation once.
#[derive(Debug, Default)]
pub struct WrapperRegistry {
    /// The contents while no store is attached.
    snapshot: RwLock<Arc<Snapshot>>,
    /// The contents while a store is attached. Mutators take this lock
    /// first, then the snapshot lock, always in that order.
    residency: Mutex<Option<SlotTable>>,
    /// Mirrors `residency.is_some()`, so that readers of a
    /// fully-resident registry never take the residency lock.
    lazy: AtomicBool,
}

impl WrapperRegistry {
    /// An empty registry (generation 0).
    pub fn new() -> WrapperRegistry {
        WrapperRegistry::default()
    }

    /// A registry pre-loaded with a bundle's wrappers (generation 1).
    pub fn from_bundle(bundle: WrapperBundle) -> WrapperRegistry {
        let registry = WrapperRegistry::new();
        registry.load_bundle(bundle);
        registry
    }

    /// A **lazy** registry over a v3 [`BundleStore`]: starts empty
    /// (generation 0) and faults wrappers in per site on
    /// [`WrapperRegistry::get_or_fault`], keeping at most
    /// `max_resident` faulted-in wrappers resident (`None` = unbounded;
    /// pinned inserts do not count).
    pub fn from_store(store: Arc<BundleStore>, max_resident: Option<usize>) -> WrapperRegistry {
        let registry = WrapperRegistry::new();
        *registry.residency() = Some(SlotTable::new(store, max_resident));
        registry.lazy.store(true, Ordering::Release);
        registry
    }

    fn residency(&self) -> MutexGuard<'_, Option<SlotTable>> {
        self.residency
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `op` on the slot table under the residency lock; `None`
    /// when no store is attached, so the caller reads the snapshot.
    fn lazily<R>(&self, op: impl FnOnce(&mut SlotTable) -> R) -> Option<R> {
        if !self.lazy.load(Ordering::Acquire) {
            return None;
        }
        self.residency().as_mut().map(op)
    }

    fn read(&self) -> Arc<Snapshot> {
        // Recover from poisoning instead of panicking: the slot only
        // ever holds a fully-built Arc (swapped in one assignment), so
        // a panic elsewhere cannot leave it inconsistent — and a
        // serving loop must not let one panicked request poison every
        // later one.
        Arc::clone(&self.snapshot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Builds the next snapshot from the current one and swaps it in.
    fn swap(
        &self,
        update: impl FnOnce(&Snapshot) -> BTreeMap<String, Arc<CompiledWrapper>>,
    ) -> u64 {
        let mut slot = self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let next = Snapshot {
            wrappers: update(&slot),
            generation: slot.generation + 1,
        };
        let generation = next.generation;
        *slot = Arc::new(next);
        generation
    }

    /// **Hot swap**: atomically replaces the registry's entire contents
    /// with the bundle's wrappers, returning the new generation.
    /// Requests already holding the previous snapshot finish against it;
    /// new requests see only the new one.
    ///
    /// On a lazy registry this **detaches** the store: the bundle
    /// becomes the registry's whole content, fully resident with no
    /// cap, and sites the bundle lacks no longer fault in. The
    /// residency counters restart with the detach.
    pub fn load_bundle(&self, bundle: WrapperBundle) -> u64 {
        let mut residency = self.residency();
        let wrappers = bundle
            .into_iter()
            .map(|(key, wrapper)| (key, Arc::new(wrapper)))
            .collect();
        let mut slot = self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let previous = residency
            .take()
            .map_or(slot.generation, |table| table.generation);
        let generation = previous + 1;
        *slot = Arc::new(Snapshot {
            wrappers,
            generation,
        });
        self.lazy.store(false, Ordering::Release);
        generation
    }

    /// Adds (or replaces) one site's wrapper, returning the new
    /// generation. Other sites' wrappers — and their warmed template
    /// caches — are untouched.
    pub fn insert(&self, site: impl Into<String>, wrapper: CompiledWrapper) -> u64 {
        self.insert_shared(site, Arc::new(wrapper))
    }

    /// [`WrapperRegistry::insert`] for a wrapper that is already shared.
    /// `CompiledWrapper` is deliberately not `Clone` (its caches are
    /// identity), so re-installing a previously displaced wrapper — the
    /// relearn loop's rollback path — goes through its retained `Arc`.
    ///
    /// Returns the generation of the snapshot that contains the insert.
    /// Like every mutator it bumps the generation exactly once — even
    /// when re-installing the `Arc` already serving `site` (the
    /// rollback no-op still swaps).
    ///
    /// On a lazy registry the wrapper is **pinned**: it serves `site` in
    /// place of the store's copy (or serves a site the store lacks),
    /// the cap never evicts it and it does not count against the cap.
    /// A relearned wrapper therefore never reverts to the store's
    /// original. [`WrapperRegistry::remove`] unpins.
    pub fn insert_shared(&self, site: impl Into<String>, wrapper: Arc<CompiledWrapper>) -> u64 {
        let site = site.into();
        let mut residency = self.residency();
        match residency.as_mut() {
            Some(table) => table.pin(site, wrapper),
            None => self.swap(move |current| {
                let mut next = current.wrappers.clone();
                next.insert(site, wrapper);
                next
            }),
        }
    }

    /// Removes one site's wrapper; `true` if it was present.
    ///
    /// Removing an **absent** key still bumps the generation: the
    /// generation counts mutation attempts, so a deployer polling for
    /// "generation ≥ G" needs no special case for no-op removes. On a
    /// lazy registry this unpins the site and drops its resident and
    /// graced copies — but the backing [`BundleStore`] is immutable, so
    /// a later [`WrapperRegistry::get_or_fault`] re-faults a pristine
    /// copy: `remove` evicts a site from residency, it does not
    /// unpublish it.
    pub fn remove(&self, site: &str) -> bool {
        let mut residency = self.residency();
        if let Some(table) = residency.as_mut() {
            return table.remove(site);
        }
        let mut removed = false;
        self.swap(|current| {
            let mut next = current.wrappers.clone();
            removed = next.remove(site).is_some();
            next
        });
        removed
    }

    /// The wrapper serving `site`, from the current snapshot. The `Arc`
    /// keeps serving consistently even if the registry is swapped while
    /// the request is in flight.
    ///
    /// Resident wrappers only: in lazy mode this never faults and does
    /// not count as a reference — use
    /// [`WrapperRegistry::get_or_fault`] on the request path.
    pub fn get(&self, site: &str) -> Option<Arc<CompiledWrapper>> {
        self.lazily(|table| table.get(site))
            .unwrap_or_else(|| self.read().wrappers.get(site).cloned())
    }

    /// The wrapper serving `site`, faulting it in from the attached
    /// [`BundleStore`] if it is not resident — the request-path lookup
    /// ([`ExtractionService::handle`] uses it).
    ///
    /// Resolution order: pinned inserts, resident slot (a hit: sets the
    /// reference bit, allocates nothing), grace ring (reinstates the
    /// evicted `Arc`, warmed template cache intact), then the store
    /// (deserializes one segment). `Ok(None)` when the site is nowhere;
    /// errors only for a damaged store segment. Without an attached
    /// store this is exactly [`WrapperRegistry::get`] and takes no lock
    /// beyond the snapshot read.
    pub fn get_or_fault(&self, site: &str) -> Result<Option<Arc<CompiledWrapper>>, AwError> {
        self.lazily(|table| table.get_or_fault(site))
            .unwrap_or_else(|| Ok(self.read().wrappers.get(site).cloned()))
    }

    /// A point-in-time residency report. Meaningful for lazy
    /// registries; a fully-resident one reports its size with no store
    /// and zero counters.
    pub fn residency_stats(&self) -> ResidencyStats {
        self.lazily(|table| table.stats())
            .unwrap_or_else(|| ResidencyStats {
                resident: self.read().wrappers.len(),
                ..ResidencyStats::default()
            })
    }

    /// The registered site keys, ascending.
    pub fn site_keys(&self) -> Vec<String> {
        self.entries().into_iter().map(|(key, _)| key).collect()
    }

    /// `(site key, wrapper)` pairs of the current snapshot, in key
    /// order — one consistent generation.
    pub fn entries(&self) -> Vec<(String, Arc<CompiledWrapper>)> {
        self.snapshot_entries().1
    }

    /// `(generation, site count)` from one snapshot read — the
    /// allocation-free pairing for liveness probes that only need a
    /// count (cf. [`WrapperRegistry::snapshot_entries`]).
    pub fn snapshot_stats(&self) -> (u64, usize) {
        self.lazily(|table| (table.generation, table.len()))
            .unwrap_or_else(|| {
                let snapshot = self.read();
                (snapshot.generation, snapshot.wrappers.len())
            })
    }

    /// The generation **and** its entries from one snapshot read —
    /// unlike separate [`WrapperRegistry::generation`] +
    /// [`WrapperRegistry::entries`] calls, the pairing cannot straddle
    /// a concurrent hot swap (a deployer polling for generation ≥ G
    /// must never see G paired with the pre-swap site list).
    pub fn snapshot_entries(&self) -> (u64, Vec<(String, Arc<CompiledWrapper>)>) {
        self.lazily(|table| (table.generation, table.entries()))
            .unwrap_or_else(|| {
                let snapshot = self.read();
                let entries = snapshot
                    .wrappers
                    .iter()
                    .map(|(k, w)| (k.clone(), Arc::clone(w)))
                    .collect();
                (snapshot.generation, entries)
            })
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.snapshot_stats().1
    }

    /// True when no wrapper is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mutation counter: 0 for a fresh registry, bumped by every
    /// [`WrapperRegistry::load_bundle`] / insert / remove.
    pub fn generation(&self) -> u64 {
        self.snapshot_stats().0
    }
}

/// A point-in-time report of the service's request-path parsing — the
/// payload behind the HTTP front end's `GET /wrappers` `"parse"` object.
///
/// `stream` counts pages that went through the one-pass
/// [`aw_dom::parse_indexed`] path; `fallback` counts pages parsed by the
/// classic parse-then-index oracle
/// ([`ExtractionService::with_stream_parse`]`(false)`). The two paths are
/// byte-identical in output, so the split is purely observability.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Pages parsed on the request path (parse failures included).
    pub pages: u64,
    /// Pages parsed by the streaming one-pass indexer.
    pub stream: u64,
    /// Pages parsed by the classic parse-then-index fallback.
    pub fallback: u64,
    /// Cumulative wall time spent parsing + indexing, in microseconds.
    pub micros: u64,
}

/// Lock-free accumulators behind [`ParseStats`]; relaxed ordering is
/// fine — the counters are monotonic telemetry, never synchronization.
#[derive(Debug, Default)]
struct ParseCounters {
    pages: AtomicU64,
    stream: AtomicU64,
    fallback: AtomicU64,
    micros: AtomicU64,
}

impl ParseCounters {
    fn observe(&self, streamed: bool, micros: u64) {
        self.pages.fetch_add(1, Ordering::Relaxed);
        if streamed {
            self.stream.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fallback.fetch_add(1, Ordering::Relaxed);
        }
        self.micros.fetch_add(micros, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ParseStats {
        ParseStats {
            pages: self.pages.load(Ordering::Relaxed),
            stream: self.stream.load(Ordering::Relaxed),
            fallback: self.fallback.load(Ordering::Relaxed),
            micros: self.micros.load(Ordering::Relaxed),
        }
    }
}

/// One extraction request: raw HTML pages of one registered site.
#[derive(Clone, Debug)]
pub struct ExtractRequest {
    /// The site key the pages belong to (routes to that site's wrapper).
    pub site: String,
    /// The pages to extract from, as raw HTML (one entry per page).
    pub pages: Vec<String>,
}

impl ExtractRequest {
    /// A request for one page.
    pub fn single(site: impl Into<String>, html: impl Into<String>) -> ExtractRequest {
        ExtractRequest {
            site: site.into(),
            pages: vec![html.into()],
        }
    }
}

/// What [`ExtractionService::handle`] extracted.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtractResponse {
    /// The site key the request routed to.
    pub site: String,
    /// The serving wrapper's language.
    pub language: WrapperLanguage,
    /// The serving wrapper's rule, in display form.
    pub rule: String,
    /// Extracted text values, one list per request page (aligned with
    /// [`ExtractRequest::pages`]).
    pub pages: Vec<Vec<String>>,
    /// Structured per-page errors, aligned with `pages`: `Some` when a
    /// request page failed to parse (it contributes an empty value list
    /// and counts toward the site's health window; the request as a
    /// whole still succeeds).
    pub errors: Vec<Option<String>>,
}

impl ExtractResponse {
    /// All extracted values, flattened across the request's pages.
    pub fn values(&self) -> impl Iterator<Item = &str> {
        self.pages.iter().flatten().map(String::as_str)
    }
}

/// The concurrent serving loop over a [`WrapperRegistry`].
///
/// `&ExtractionService` is `Sync`: any number of threads call
/// [`ExtractionService::handle`] simultaneously (the HTTP front end in
/// `aw-serve` does exactly that: its reactor thread feeds parsed
/// requests to a team of service worker threads). Responses
/// are deterministic — byte-identical to sequential evaluation at every
/// thread count and cache setting.
#[derive(Debug)]
pub struct ExtractionService {
    registry: Arc<WrapperRegistry>,
    executor: Executor,
    health: Arc<HealthTracker>,
    health_enabled: bool,
    relearn: Option<Arc<RelearnController>>,
    latency: LatencyHistogram,
    /// Route request pages through the one-pass streaming indexer
    /// (default) or the classic parse-then-index oracle.
    stream_parse: bool,
    parse_counters: ParseCounters,
}

impl ExtractionService {
    /// A service over `registry`, evaluating on [`Executor::global`],
    /// with health tracking on at default thresholds. Request pages go
    /// through the one-pass streaming parser
    /// ([`ExtractionService::with_stream_parse`] selects the classic
    /// oracle instead).
    pub fn new(registry: Arc<WrapperRegistry>) -> ExtractionService {
        ExtractionService {
            registry,
            executor: Executor::global().clone(),
            health: Arc::new(HealthTracker::default()),
            health_enabled: true,
            relearn: None,
            latency: LatencyHistogram::new(),
            stream_parse: true,
            parse_counters: ParseCounters::default(),
        }
    }

    /// Replaces the executor driving page parsing and evaluation.
    pub fn with_executor(mut self, executor: Executor) -> ExtractionService {
        self.executor = executor;
        self
    }

    /// Replaces the health tracker with one at the given thresholds.
    /// Call before [`crate::relearn::RelearnController::new`] — the
    /// controller captures the tracker in effect at construction.
    pub fn with_thresholds(mut self, thresholds: HealthThresholds) -> ExtractionService {
        self.health = Arc::new(HealthTracker::new(thresholds));
        self
    }

    /// Turns per-request health accounting on or off (on by default).
    /// With it off, requests skip the tracker entirely — the toggle the
    /// `service_health_ratio` benchmark flips.
    pub fn with_health_tracking(mut self, enabled: bool) -> ExtractionService {
        self.health_enabled = enabled;
        self
    }

    /// Attaches a relearn controller: sites that newly cross a
    /// degradation threshold are enqueued on it.
    pub fn with_relearn(mut self, relearn: Arc<RelearnController>) -> ExtractionService {
        self.relearn = Some(relearn);
        self
    }

    /// Selects the request-path parser: `true` (default) streams pages
    /// through [`aw_dom::parse_indexed`]; `false` falls back to the
    /// classic parse-then-index path. Responses are byte-identical
    /// either way — the toggle exists for differential testing and
    /// benchmarking, like `reference` vs compiled xpath engines.
    pub fn with_stream_parse(mut self, enabled: bool) -> ExtractionService {
        self.stream_parse = enabled;
        self
    }

    /// True when request pages go through the streaming one-pass parser.
    pub fn stream_parse_enabled(&self) -> bool {
        self.stream_parse
    }

    /// A snapshot of the request-path parse counters.
    pub fn parse_stats(&self) -> ParseStats {
        self.parse_counters.snapshot()
    }

    /// The registry requests route through (shared: hot-swap it from
    /// anywhere, in-flight requests stay consistent).
    pub fn registry(&self) -> &Arc<WrapperRegistry> {
        &self.registry
    }

    /// The executor driving parallel stages.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The health tracker fed by [`ExtractionService::handle`].
    pub fn health(&self) -> &Arc<HealthTracker> {
        &self.health
    }

    /// The service's request-latency histogram. The service itself does
    /// **not** record into it — whoever frames requests does (the HTTP
    /// front end records full per-request wall time; an in-process
    /// caller can record around [`ExtractionService::handle`]), so the
    /// numbers mean "what a caller waited", not just extraction time.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// The attached relearn controller, if any.
    pub fn relearn(&self) -> Option<&Arc<RelearnController>> {
        self.relearn.as_ref()
    }

    /// One site's health snapshot (`None` until it serves a request).
    pub fn site_health(&self, site: &str) -> Option<SiteHealth> {
        self.health.health(site)
    }

    /// Health snapshots of every site that has served a request.
    pub fn all_health(&self) -> Vec<SiteHealth> {
        self.health.all_health()
    }

    /// Serves one request: parse each page once (building its
    /// `DocIndex`), route to the site's wrapper — faulting it in from
    /// the registry's bundle store if the registry is lazy and the
    /// wrapper is not resident — evaluate through the wrapper on the
    /// service executor (an xpath wrapper through its persistent batch
    /// trie + template cache), and return the extracted text values per
    /// page.
    ///
    /// Errors with [`AwError::UnknownSite`] when no wrapper is
    /// registered for (or faultable to) the request's site key. A page that fails to
    /// *parse* does not fail the request: it yields an empty value list
    /// plus a structured entry in [`ExtractResponse::errors`], and
    /// counts toward the site's health window.
    pub fn handle(&self, request: &ExtractRequest) -> Result<ExtractResponse, AwError> {
        let wrapper = self
            .registry
            .get_or_fault(&request.site)?
            .ok_or_else(|| AwError::UnknownSite(request.site.clone()))?;
        // One parse + one DocIndex per page; page-parallel for multi-page
        // requests (nested maps join the shared worker team). The default
        // path is the one-pass streaming indexer; `with_stream_parse(false)`
        // falls back to the byte-identical parse-then-index oracle.
        // Parsing is infallible by design, but a serving loop must not
        // let one hostile page take down a whole batch — so each page is
        // unwind-guarded and gated on producing at least one node.
        let stream = self.stream_parse;
        let parsed: Vec<Result<Document, String>> = self.executor.map(&request.pages, |html| {
            let started = Instant::now();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if stream {
                    aw_dom::parse_indexed(html).into_document()
                } else {
                    let doc = aw_dom::parse(html);
                    doc.index();
                    doc
                }
            }))
            .map_err(|_| "page parser panicked".to_string())
            .and_then(|doc| {
                if doc.len() <= 1 {
                    Err("page produced no parseable content".to_string())
                } else {
                    Ok(doc)
                }
            });
            self.parse_counters
                .observe(stream, started.elapsed().as_micros() as u64);
            result
        });
        let errors: Vec<Option<String>> =
            parsed.iter().map(|r| r.as_ref().err().cloned()).collect();
        // Errored slots keep an (empty) placeholder document so page
        // alignment through the batch extractor is positional.
        let docs: Vec<Document> = parsed
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| aw_dom::parse("")))
            .collect();
        let pages: Vec<Vec<String>> = wrapper
            .extract_pages_with(&docs, &self.executor)
            .into_iter()
            .zip(&docs)
            .map(|(ids, doc)| {
                ids.into_iter()
                    .filter_map(|id| doc.text(id).map(str::to_string))
                    .collect()
            })
            .collect();
        if self.health_enabled {
            let observations =
                request
                    .pages
                    .iter()
                    .zip(&pages)
                    .zip(&errors)
                    .map(|((html, values), error)| PageView {
                        html,
                        values: values.len(),
                        chars: values.iter().map(String::len).sum(),
                        error: error.is_some(),
                    });
            let newly_degraded = self.health.observe_views(
                &request.site,
                observations,
                wrapper.template_cache_stats(),
            );
            if newly_degraded {
                if let Some(relearn) = &self.relearn {
                    relearn.enqueue(&request.site);
                }
            }
        }
        Ok(ExtractResponse {
            site: request.site.clone(),
            language: wrapper.language(),
            rule: wrapper.rule().to_string(),
            pages,
            errors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::LearnedRule;
    use aw_induct::{NodeSet, Site};

    fn training_site() -> Site {
        let page = |rows: &[(&str, &str)]| {
            let mut s = String::from("<table class='stores'>");
            for (n, a) in rows {
                s.push_str(&format!("<tr><td><b>{n}</b></td><td>{a}</td></tr>"));
            }
            s + "</table>"
        };
        Site::from_html(&[
            page(&[("ALPHA CO", "1 Elm"), ("BETA LLC", "2 Oak")]),
            page(&[("GAMMA INC", "3 Fir"), ("DELTA LTD", "4 Ash")]),
        ])
    }

    fn wrapper(language: WrapperLanguage) -> CompiledWrapper {
        let site = training_site();
        let mut labels = NodeSet::new();
        labels.extend(site.find_text("ALPHA CO"));
        labels.extend(site.find_text("DELTA LTD"));
        CompiledWrapper::from_rule(LearnedRule::learn(&site, language, &labels))
    }

    fn fresh_html(name: &str) -> String {
        format!("<table class='stores'><tr><td><b>{name}</b></td><td>9 Elm</td></tr></table>")
    }

    #[test]
    fn registry_snapshots_are_atomic_and_generation_counts() {
        let registry = WrapperRegistry::new();
        assert_eq!(registry.generation(), 0);
        assert!(registry.is_empty());
        registry.insert("a", wrapper(WrapperLanguage::XPath));
        assert_eq!(registry.generation(), 1);
        registry.insert("b", wrapper(WrapperLanguage::Lr));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.site_keys(), ["a", "b"]);
        assert!(registry.remove("a"));
        assert!(!registry.remove("a"));
        assert_eq!(registry.generation(), 4, "failed removes still swap");
        assert!(registry.get("a").is_none());
        assert!(registry.get("b").is_some());
    }

    fn store_of(languages: &[(&str, WrapperLanguage)]) -> Arc<BundleStore> {
        let mut bundle = WrapperBundle::new();
        for (key, language) in languages {
            bundle.insert(*key, wrapper(*language));
        }
        Arc::new(BundleStore::from_bytes(bundle.to_binary()).unwrap())
    }

    #[test]
    fn lazy_registry_faults_in_per_site_and_counts() {
        let store = store_of(&[
            ("a", WrapperLanguage::XPath),
            ("b", WrapperLanguage::Lr),
            ("c", WrapperLanguage::Hlrt),
        ]);
        let registry = WrapperRegistry::from_store(Arc::clone(&store), None);
        assert_eq!(registry.generation(), 0);
        assert!(registry.is_empty(), "lazy registries start empty");
        assert!(registry.get("a").is_none(), "get never faults");
        let a = registry.get_or_fault("a").unwrap().expect("store has a");
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.generation(), 1, "fault-in is one swap");
        // Second lookup is resident — the same Arc, no extra fault.
        let again = registry.get_or_fault("a").unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &again));
        assert!(registry.get_or_fault("missing").unwrap().is_none());
        let stats = registry.residency_stats();
        assert_eq!(stats.resident, 1);
        assert_eq!(stats.faults, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.store_sites, Some(3));
        assert_eq!(stats.max_resident, None);
    }

    #[test]
    fn lru_eviction_respects_cap_and_bumps_generation() {
        let store = store_of(&[
            ("a", WrapperLanguage::XPath),
            ("b", WrapperLanguage::Lr),
            ("c", WrapperLanguage::Hlrt),
        ]);
        let registry = WrapperRegistry::from_store(store, Some(2));
        registry.get_or_fault("a").unwrap().unwrap();
        registry.get_or_fault("b").unwrap().unwrap();
        // Re-touch "a" so "b" is the LRU victim.
        registry.get_or_fault("a").unwrap().unwrap();
        let before = registry.generation();
        registry.get_or_fault("c").unwrap().unwrap();
        // Fault-in + eviction: two snapshot swaps (pinned — LRU
        // eviction also bumps snapshots).
        assert_eq!(registry.generation(), before + 2);
        assert_eq!(registry.site_keys(), ["a", "c"], "b was LRU");
        let stats = registry.residency_stats();
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.faults, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.grace_entries, 1);
    }

    #[test]
    fn grace_window_reinstates_the_same_arc() {
        let store = store_of(&[
            ("a", WrapperLanguage::XPath),
            ("b", WrapperLanguage::Lr),
            ("c", WrapperLanguage::Hlrt),
        ]);
        let registry = WrapperRegistry::from_store(store, Some(2));
        let a = registry.get_or_fault("a").unwrap().unwrap();
        registry.get_or_fault("b").unwrap().unwrap();
        registry.get_or_fault("c").unwrap().unwrap(); // evicts "a"
        assert!(registry.get("a").is_none());
        let back = registry.get_or_fault("a").unwrap().unwrap();
        assert!(
            Arc::ptr_eq(&a, &back),
            "grace reinstates the evicted Arc, caches intact"
        );
        let stats = registry.residency_stats();
        assert_eq!(stats.grace_hits, 1);
        assert_eq!(stats.faults, 3, "a grace hit is not a store fault");
    }

    #[test]
    fn remove_in_lazy_mode_evicts_but_does_not_unpublish() {
        let store = store_of(&[("a", WrapperLanguage::XPath)]);
        let registry = WrapperRegistry::from_store(store, None);
        registry.get_or_fault("a").unwrap().unwrap();
        assert!(registry.remove("a"));
        assert!(registry.get("a").is_none());
        // The store is immutable: the site faults back in pristine.
        assert!(registry.get_or_fault("a").unwrap().is_some());
        assert_eq!(registry.residency_stats().faults, 2);
    }

    #[test]
    fn clock_gives_a_referenced_site_a_second_chance() {
        let store = store_of(&[
            ("a", WrapperLanguage::XPath),
            ("b", WrapperLanguage::XPath),
            ("c", WrapperLanguage::XPath),
            ("d", WrapperLanguage::XPath),
        ]);
        let registry = WrapperRegistry::from_store(store, Some(2));
        for site in ["a", "b", "a"] {
            registry.get_or_fault(site).unwrap().unwrap();
        }
        // The hand reaches "a" first, but its reference bit spares it
        // for one sweep: "b" goes instead.
        registry.get_or_fault("c").unwrap().unwrap();
        assert_eq!(registry.site_keys(), ["a", "c"]);
        // The sweep cleared that bit and "a" was not requested again,
        // so the next sweep takes it.
        registry.get_or_fault("d").unwrap().unwrap();
        assert_eq!(registry.site_keys(), ["c", "d"]);
        assert_eq!(registry.residency_stats().evictions, 2);
    }

    #[test]
    fn grace_ring_reinstates_the_same_arc_until_overwritten() {
        let keys = ["a", "b", "c", "d", "e"];
        let store = store_of(&keys.map(|key| (key, WrapperLanguage::XPath)));
        // Cap 2: the grace ring holds the last two evictions.
        let registry = WrapperRegistry::from_store(store, Some(2));
        let fault = |site: &str| registry.get_or_fault(site).unwrap().unwrap();
        let a = fault("a");
        let b = fault("b");
        fault("c"); // evicts "a"
        fault("d"); // evicts "b"
        assert_eq!(registry.residency_stats().grace_entries, 2);
        assert!(Arc::ptr_eq(&fault("a"), &a), "a graced wrapper returns");
        fault("e"); // evicts "d" into the ring position "b" held
        let stats = registry.residency_stats();
        assert_eq!((stats.grace_hits, stats.faults), (1, 5));
        assert_eq!(stats.grace_entries, 2, "\"c\" and \"d\"");
        let b_again = fault("b");
        assert!(!Arc::ptr_eq(&b_again, &b), "overwritten: faulted afresh");
        assert_eq!(registry.residency_stats().faults, 6);
    }

    #[test]
    fn inserts_into_a_lazy_registry_are_pinned() {
        let store = store_of(&[
            ("a", WrapperLanguage::XPath),
            ("b", WrapperLanguage::XPath),
            ("c", WrapperLanguage::XPath),
        ]);
        let registry = WrapperRegistry::from_store(store, Some(1));
        registry.get_or_fault("a").unwrap().unwrap();
        let relearned = Arc::new(wrapper(WrapperLanguage::Lr));
        registry.insert_shared("a", Arc::clone(&relearned));
        registry.insert("z", wrapper(WrapperLanguage::Hlrt));
        // Far more faults than the cap (1) and the grace ring (2) hold.
        for _ in 0..3 {
            for site in ["b", "c", "a", "z"] {
                registry.get_or_fault(site).unwrap().unwrap();
            }
        }
        let a = registry.get_or_fault("a").unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &relearned), "the store copy came back");
        let z = registry.get_or_fault("z").unwrap().expect("z was lost");
        assert_eq!(z.language(), WrapperLanguage::Hlrt);
        let stats = registry.residency_stats();
        assert_eq!(stats.pinned, 2);
        assert_eq!(stats.resident, 3, "two pinned plus one faulted in");
        assert_eq!(registry.site_keys().len(), 3);
        // `remove` unpins: the store copy faults back, and a key the
        // store lacks is gone.
        assert!(registry.remove("a"));
        let restored = registry.get_or_fault("a").unwrap().unwrap();
        assert_eq!(restored.language(), WrapperLanguage::XPath);
        assert!(registry.remove("z"));
        assert!(registry.get_or_fault("z").unwrap().is_none());
        assert_eq!(registry.residency_stats().pinned, 0);
    }

    #[test]
    fn load_bundle_detaches_a_lazy_store() {
        let store = store_of(&[("a", WrapperLanguage::XPath), ("b", WrapperLanguage::XPath)]);
        let registry = WrapperRegistry::from_store(store, Some(1));
        registry.get_or_fault("a").unwrap().unwrap();
        let before = registry.generation();
        let mut bundle = WrapperBundle::new();
        for (key, language) in [
            ("b", WrapperLanguage::Lr),
            ("c", WrapperLanguage::Hlrt),
            ("d", WrapperLanguage::Table),
        ] {
            bundle.insert(key, wrapper(language));
        }
        assert_eq!(registry.load_bundle(bundle), before + 1);
        assert_eq!(registry.generation(), before + 1);
        // The upload is the whole registry, past the old cap of 1.
        assert_eq!(registry.site_keys(), ["b", "c", "d"]);
        assert!(
            registry.get_or_fault("a").unwrap().is_none(),
            "store-only site"
        );
        let b = registry.get_or_fault("b").unwrap().unwrap();
        assert_eq!(
            b.language(),
            WrapperLanguage::Lr,
            "the upload's, not the store's"
        );
        registry.insert("e", wrapper(WrapperLanguage::XPath));
        assert_eq!(registry.len(), 4);
        let stats = registry.residency_stats();
        assert_eq!(stats.store_sites, None);
        assert_eq!(stats.max_resident, None);
        assert_eq!(stats.resident, 4);
    }

    /// An in-memory store of `sites` XPATH sites, `site-000000` on, all
    /// sharing one segment payload.
    fn wide_store(sites: usize) -> Arc<BundleStore> {
        let payload = wrapper(WrapperLanguage::XPath).to_json();
        let mut writer =
            crate::store::BundleBinaryWriter::new(std::io::Cursor::new(Vec::new())).unwrap();
        for i in 0..sites {
            writer
                .append_payload(&format!("site-{i:06}"), &payload)
                .unwrap();
        }
        Arc::new(BundleStore::from_bytes(writer.finish().unwrap().into_inner()).unwrap())
    }

    /// Best-of-3 µs per request of a stream in which every request
    /// faults a new site in and evicts one, on a registry filled to
    /// `cap` first (untimed).
    fn fault_evict_micros(store: &Arc<BundleStore>, keys: &[String], cap: usize) -> f64 {
        const FAULTS: usize = 100;
        (0..3)
            .map(|_| {
                let registry = WrapperRegistry::from_store(Arc::clone(store), Some(cap));
                for key in &keys[..cap] {
                    registry.get_or_fault(key).unwrap().unwrap();
                }
                let start = Instant::now();
                for key in &keys[cap..cap + FAULTS] {
                    registry.get_or_fault(key).unwrap().unwrap();
                }
                let micros = start.elapsed().as_secs_f64() * 1e6 / FAULTS as f64;
                assert_eq!(registry.residency_stats().evictions, FAULTS as u64);
                micros
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn fault_cost_does_not_grow_with_the_cap() {
        // Cloning the resident map per fault and per eviction, and
        // scanning it for the least-recently-used victim, made a
        // fault+evict cost ≈37 µs at cap 128 and ≈3.3 ms at cap 8192
        // in release builds (≈90×). The slot table's cost is flat.
        let store = wide_store(8_300);
        let keys: Vec<String> = store.site_keys().map(str::to_string).collect();
        let small = fault_evict_micros(&store, &keys, 128);
        let large = fault_evict_micros(&store, &keys, 8_192);
        assert!(
            large <= 4.0 * small,
            "fault+evict costs {large:.1} µs at cap 8192 vs {small:.1} µs at cap 128"
        );
    }

    #[test]
    fn get_or_fault_without_a_store_is_plain_get() {
        let registry = WrapperRegistry::new();
        registry.insert("a", wrapper(WrapperLanguage::XPath));
        assert!(registry.get_or_fault("a").unwrap().is_some());
        assert!(registry.get_or_fault("b").unwrap().is_none());
        let stats = registry.residency_stats();
        assert_eq!(stats.resident, 1);
        assert_eq!(stats.store_sites, None);
        assert_eq!(stats.faults, 0);
    }

    #[test]
    fn insert_shared_rollback_reinstall_still_bumps_generation_once() {
        let registry = WrapperRegistry::new();
        registry.insert("a", wrapper(WrapperLanguage::XPath));
        let displaced = registry.get("a").unwrap();
        registry.insert("a", wrapper(WrapperLanguage::Lr));
        assert_eq!(registry.generation(), 2);
        // Rollback path: re-installing the retained Arc is one swap.
        let generation = registry.insert_shared("a", Arc::clone(&displaced));
        assert_eq!(generation, 3);
        assert_eq!(registry.generation(), 3);
        assert!(Arc::ptr_eq(&registry.get("a").unwrap(), &displaced));
    }

    #[test]
    fn lazy_service_responses_match_resident_service() {
        let mut bundle = WrapperBundle::new();
        bundle.insert("x", wrapper(WrapperLanguage::XPath));
        bundle.insert("l", wrapper(WrapperLanguage::Lr));
        let bytes = bundle.to_binary();
        let resident = ExtractionService::new(Arc::new(WrapperRegistry::from_bundle(bundle)));
        let lazy = ExtractionService::new(Arc::new(WrapperRegistry::from_store(
            Arc::new(BundleStore::from_bytes(bytes).unwrap()),
            Some(1),
        )));
        for site in ["x", "l", "x", "l"] {
            let request = ExtractRequest::single(site, fresh_html("OMEGA GROUP"));
            assert_eq!(
                lazy.handle(&request).unwrap(),
                resident.handle(&request).unwrap(),
                "site {site}"
            );
        }
        let stats = lazy.registry().residency_stats();
        assert!(stats.resident <= 1, "cap respected: {stats:?}");
        assert!(stats.evictions >= 1);
    }

    #[test]
    fn snapshot_entries_pair_generation_with_its_contents() {
        let registry = WrapperRegistry::new();
        registry.insert("a", wrapper(WrapperLanguage::XPath));
        let (generation, entries) = registry.snapshot_entries();
        assert_eq!(generation, 1);
        assert_eq!(
            entries.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["a"]
        );
        assert_eq!(registry.entries().len(), 1);
    }

    #[test]
    fn load_bundle_replaces_wholesale() {
        let registry = WrapperRegistry::new();
        registry.insert("stale", wrapper(WrapperLanguage::XPath));
        let mut bundle = WrapperBundle::new();
        bundle.insert("fresh", wrapper(WrapperLanguage::Hlrt));
        registry.load_bundle(bundle);
        assert_eq!(registry.site_keys(), ["fresh"]);
    }

    #[test]
    fn insert_preserves_untouched_wrappers_and_their_caches() {
        let registry = WrapperRegistry::new();
        registry.insert("warm", wrapper(WrapperLanguage::XPath));
        let service = ExtractionService::new(Arc::new(registry));
        // Two structurally identical requests: bypass, record…
        for name in ["OMEGA", "SIGMA"] {
            service
                .handle(&ExtractRequest::single("warm", fresh_html(name)))
                .unwrap();
        }
        // …an unrelated insert must not reset the warm wrapper…
        service
            .registry()
            .insert("other", wrapper(WrapperLanguage::Lr));
        // …so the third request replays.
        service
            .handle(&ExtractRequest::single("warm", fresh_html("KAPPA")))
            .unwrap();
        let warm = service.registry().get("warm").unwrap();
        let (hits, _) = warm.template_cache_stats().expect("cache on by default");
        assert_eq!(hits, 1, "third same-template request must replay");
    }

    #[test]
    fn handle_routes_and_errors() {
        let registry = Arc::new(WrapperRegistry::new());
        registry.insert("dealers", wrapper(WrapperLanguage::XPath));
        let service = ExtractionService::new(Arc::clone(&registry));
        let ok = service
            .handle(&ExtractRequest::single(
                "dealers",
                fresh_html("OMEGA GROUP"),
            ))
            .unwrap();
        assert_eq!(ok.site, "dealers");
        assert_eq!(ok.language, WrapperLanguage::XPath);
        assert_eq!(ok.pages, vec![vec!["OMEGA GROUP".to_string()]]);
        assert_eq!(ok.values().collect::<Vec<_>>(), ["OMEGA GROUP"]);
        assert_eq!(
            service
                .handle(&ExtractRequest::single("nope", fresh_html("X")))
                .unwrap_err(),
            AwError::UnknownSite("nope".into())
        );
    }

    #[test]
    fn multi_page_requests_align_and_match_single_page_calls() {
        let registry = Arc::new(WrapperRegistry::new());
        registry.insert("dealers", wrapper(WrapperLanguage::XPath));
        for threads in [1, 4] {
            let service =
                ExtractionService::new(Arc::clone(&registry)).with_executor(Executor::new(threads));
            let request = ExtractRequest {
                site: "dealers".into(),
                pages: vec![
                    fresh_html("OMEGA"),
                    "<p>nothing</p>".into(),
                    fresh_html("SIGMA"),
                ],
            };
            let response = service.handle(&request).unwrap();
            assert_eq!(
                response.pages,
                vec![vec!["OMEGA".to_string()], vec![], vec!["SIGMA".to_string()]],
                "threads {threads}"
            );
            let singles: Vec<Vec<String>> = request
                .pages
                .iter()
                .map(|html| {
                    service
                        .handle(&ExtractRequest::single("dealers", html.clone()))
                        .unwrap()
                        .pages
                        .remove(0)
                })
                .collect();
            assert_eq!(response.pages, singles, "threads {threads}");
        }
    }

    #[test]
    fn stream_and_fallback_parse_paths_answer_identically() {
        let registry = Arc::new(WrapperRegistry::new());
        registry.insert("dealers", wrapper(WrapperLanguage::XPath));
        let streaming = ExtractionService::new(Arc::clone(&registry));
        let fallback = ExtractionService::new(Arc::clone(&registry)).with_stream_parse(false);
        assert!(streaming.stream_parse_enabled());
        assert!(!fallback.stream_parse_enabled());
        let request = ExtractRequest {
            site: "dealers".into(),
            pages: vec![
                fresh_html("OMEGA"),
                "<p>nothing</p>".into(),
                "   ".into(), // unparseable: empty document
            ],
        };
        let a = streaming.handle(&request).unwrap();
        let b = fallback.handle(&request).unwrap();
        assert_eq!(a, b, "parse paths must be byte-identical");
        let s = streaming.parse_stats();
        assert_eq!((s.pages, s.stream, s.fallback), (3, 3, 0));
        let f = fallback.parse_stats();
        assert_eq!((f.pages, f.stream, f.fallback), (3, 0, 3));
        assert_eq!(ParseStats::default().pages, 0);
    }
}
