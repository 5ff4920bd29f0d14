//! Shared-prefix batch evaluation of wrapper candidate sets.
//!
//! The wrapper space `W(L)` of §4 holds up to `2^k` structurally-similar
//! xpaths: most candidates share long step prefixes (they were induced
//! from overlapping label subsets of one site). Evaluating each candidate
//! from the document root repeats the shared prefix work once per
//! candidate; a [`BatchEvaluator`] instead arranges the compiled steps in
//! a prefix trie and walks it depth-first, so every distinct step prefix
//! is evaluated **once per document** and its intermediate context
//! node-set is reused by all candidates below it.
//!
//! The trie is **predicate-aware**: edges are keyed by the step's
//! `(axis, node test)` pair only, and steps differing just in their
//! `[k]` / `[@a='v']` predicates become *variants* of one trie node.
//! Enumerated spaces are full of such pairs (`u` vs `u[1]`, `text()` vs
//! `text()[2]`), so the expensive part — traversing children or probing
//! posting lists — runs once per node, and each variant fans out with an
//! integer-only predicate filter over the shared bare node-set.
//!
//! The evaluator is built once per candidate set and applied to any
//! number of pages — compile cost and trie construction amortize across
//! a whole site. For a multi-site candidate set, build one evaluator per
//! site and apply each only to its own site's pages: prefix sharing is
//! strongest within one site's space, and a wrapper learned on site *S*
//! only ever extracts from pages of *S*.
//!
//! ## Cross-page template replay
//!
//! Pages of one site are instances of one rendering script: dealer pages
//! differ in *text* and per-record *attribute values*, not in skeleton.
//! The evaluator therefore keeps a [`TemplateCache`] keyed by
//! [`aw_dom::DocIndex::template_fingerprint`]. The first page of a
//! template evaluates normally; the second *records* every trie node's
//! bare node-set and every variant's selection (in pre-order rank space,
//! which matching fingerprints make transferable); later pages *replay*
//! the recorded sets instead of traversing:
//!
//! * bare `(axis, test)` node-sets and `[k]` position selections are
//!   structure-determined, so they transfer verbatim (a rank is a
//!   `NodeId` index on every page, so they materialize as they are);
//! * `[@a='v']` selections are **re-filtered per page** (the fingerprint
//!   ignores attribute values) over the cached bare set — integer
//!   compares only — and the subtrie below stays on the replay path only
//!   while the re-filtered selection matches the recording, falling back
//!   to fresh traversal from that point otherwise.
//!
//! ## Frame/record factoring (partial replay)
//!
//! Whole-page fingerprints are all-or-nothing: two listing pages whose
//! record *counts* differ share no trace even when every record subtree
//! is skeleton-identical — which describes most real listings. When
//! [`aw_dom::DocIndex::record_layout`] detects a repeated-record run,
//! each recorded trace is therefore also **factored** into:
//!
//! * a *frame trace* — every set restricted to ranks outside the run, in
//!   *collapsed* coordinates (run ranks removed, later ranks shifted
//!   down), keyed by the layout's frame fingerprint; and
//! * *record traces* (donors) — each set restricted to one record's
//!   span, rebased to record-local ranks, keyed by the record's subtree
//!   fingerprint and recorded once per distinct fingerprint.
//!
//! A later page whose frame fingerprint matches (any record count)
//! replays by **stitching**: the frame part expands around this page's
//! run, each record whose fingerprint has a donor splices the donor in
//! at its span offset, and records without a donor (unseen variants,
//! drifted markup) evaluate *fresh for that span only* — cheap because
//! record subtrees are rank-contiguous, so the per-span work is a
//! clipped traversal (or a postings-range probe under a covering
//! descendant step). The first fresh instance of each new record
//! fingerprint is captured as a donor for future pages. Predicate
//! selections are pointwise (`[k]` positions and `[@a='v']` tests are
//! per-node properties), so they are always re-filtered over the
//! stitched bare set — correct by construction — and the recorded
//! selection is only used to decide whether the subtrie below keeps
//! stitching or falls back to fresh traversal; any gap in the recorded
//! data demotes just that subtrie the same way.
//!
//! Every set a partial replay assembles is exact for its page, so the
//! finished walk is **promoted**: its sets become the whole-page trace
//! for that page's exact fingerprint. A given roster shape (count +
//! record variants) pays the stitching walk once, and every later page
//! of that shape replays verbatim — on variable-length corpora the
//! steady state is the fast full-replay path, with stitching reserved
//! for first sights of new shapes.
//!
//! A lookup tries the whole-page key first and detects the page's record
//! layout only when that misses. An exact hit, the steady state of fixed
//! and variable-length streams alike, replays without ever computing
//! the layout: it pays for the whole-page fingerprint alone.
//!
//! Replay output — full, partial, and fallback — is byte-identical to
//! cache-off evaluation, enforced by `tests/xpath_differential.rs`
//! across engines and thread counts. [`TemplateCache::replay_stats`]
//! reports how pages and records split across these paths.

use crate::ast::{Axis, XPath};
use crate::compile::{CompiledPred, CompiledTest, CompiledXPath};
use crate::indexed::{
    apply_step_bare, apply_step_with, filter_resolved, materialize, postings_for, resolve_preds,
};
use aw_dom::{DocIndex, Document, NodeId, RecordLayout};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One predicate list under a trie node: candidates whose step here has
/// exactly these predicates, plus the subtrie that follows them.
#[derive(Debug)]
struct Variant {
    /// The step's predicates (often empty), in source order.
    predicates: Vec<CompiledPred>,
    /// Child trie nodes (indices into the arena).
    children: Vec<u32>,
    /// Indices of input paths that end at this variant.
    terminals: Vec<u32>,
    /// Dense evaluator-wide variant index (slot in a
    /// [`Trace::selected`]).
    gid: u32,
}

/// A trie node: one shared `(axis, test)` application plus its predicate
/// variants.
#[derive(Debug)]
struct TrieNode {
    /// Axis of the shared step.
    axis: Axis,
    /// Node test of the shared step.
    test: CompiledTest,
    /// Distinct predicate lists observed for this `(axis, test)` edge.
    variants: Vec<Variant>,
}

/// The per-template record of one page's evaluation, in pre-order rank
/// space (transferable between same-fingerprint pages).
#[derive(Debug)]
struct Trace {
    /// Bare `(axis, test)` node-set per trie node; `None` for nodes the
    /// recording never reached (their prefix selected nothing — which a
    /// matching skeleton reproduces).
    bare: Vec<Option<Arc<Vec<u32>>>>,
    /// Post-predicate selection per variant (indexed by `Variant::gid`).
    selected: Vec<Option<Arc<Vec<u32>>>>,
}

impl Trace {
    fn empty(nodes: usize, variants: usize) -> Trace {
        Trace {
            bare: vec![None; nodes],
            selected: vec![None; variants],
        }
    }
}

/// A [`Trace`] factored around one record run: the frame in collapsed
/// rank coordinates plus record-local donor traces per record
/// fingerprint (see the [module docs](self)).
#[derive(Debug)]
struct FactoredTrace {
    /// First rank of the record run on the recorded page; equal on every
    /// page sharing the frame fingerprint (the fingerprint pins it).
    run_start: u32,
    /// The recorded trace restricted to ranks outside the run, with
    /// ranks past the run shifted down by the recorded run length.
    frame: Trace,
    /// Record-local traces keyed by record subtree fingerprint. Grows as
    /// replays capture unseen record variants, bounded by
    /// [`MAX_DONOR_TRACES`].
    donors: Mutex<HashMap<u64, Arc<Trace>>>,
}

/// Per-fingerprint cache state.
#[derive(Debug)]
enum Entry {
    /// Seen once — recording starts on the next page of this template,
    /// so one-shot templates never pay the recording overhead.
    Pending,
    /// Recorded; later pages replay.
    Ready(Arc<Trace>),
}

/// Per-frame-fingerprint cache state.
#[derive(Debug)]
enum FrameEntry {
    /// A page with this frame was seen once; the next one records.
    Pending,
    /// Factored; later pages with this frame stitch a partial replay.
    Ready(Arc<FactoredTrace>),
}

/// What [`TemplateCache::lookup`] decided for a page.
enum Lookup {
    /// Evaluate normally (first sight of the template, or cache full).
    Bypass,
    /// Evaluate while recording a [`Trace`], then store it.
    Record,
    /// Replay the recorded trace.
    Replay(Arc<Trace>),
    /// Stitch a partial replay from a factored trace (the whole-page
    /// fingerprint missed, but the frame matched).
    PartialReplay(Arc<FactoredTrace>),
}

/// The cross-page result cache of one [`BatchEvaluator`].
///
/// Keyed by `(node count, template fingerprint)`; traces index this
/// evaluator's trie arena, so a cache is never shared between
/// evaluators. Interior-mutable and thread-safe: page-parallel
/// evaluation through `aw_pool::Executor` shares it freely (whichever
/// page records first, replays are byte-identical, so results never
/// depend on scheduling).
#[derive(Debug)]
pub struct TemplateCache {
    /// Maximum tracked templates; beyond it new fingerprints bypass (a
    /// serving process that meets unbounded distinct templates must not
    /// grow without limit). Frame fingerprints are bounded separately by
    /// the same figure.
    capacity: usize,
    state: Mutex<HashMap<(u32, u64), Entry>>,
    /// Factored traces keyed by frame fingerprint (the fingerprint
    /// already encodes the collapsed node count).
    frames: Mutex<HashMap<u64, FrameEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    frame_hits: AtomicU64,
    record_replays: AtomicU64,
    record_fallbacks: AtomicU64,
}

/// Replay-path counters of a [`TemplateCache`], split by how each page
/// (and, within partial replays, each record) was evaluated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Pages replayed verbatim from a whole-page trace.
    pub full_replays: u64,
    /// Pages whose whole-page fingerprint missed but whose frame
    /// matched: the frame replayed and records stitched per fingerprint.
    pub frame_replays: u64,
    /// Records stitched from a matching record trace across all frame
    /// replays.
    pub record_replays: u64,
    /// Records evaluated fresh within frame replays (no recorded trace
    /// for their fingerprint yet — unseen variants, drifted markup).
    pub record_fallbacks: u64,
    /// Pages that evaluated without any replay (first sights,
    /// recordings, cache-capacity bypasses).
    pub misses: u64,
}

impl std::ops::AddAssign for ReplayStats {
    fn add_assign(&mut self, rhs: ReplayStats) {
        self.full_replays += rhs.full_replays;
        self.frame_replays += rhs.frame_replays;
        self.record_replays += rhs.record_replays;
        self.record_fallbacks += rhs.record_fallbacks;
        self.misses += rhs.misses;
    }
}

impl TemplateCache {
    fn new(capacity: usize) -> TemplateCache {
        TemplateCache {
            capacity,
            state: Mutex::new(HashMap::new()),
            frames: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            frame_hits: AtomicU64::new(0),
            record_replays: AtomicU64::new(0),
            record_fallbacks: AtomicU64::new(0),
        }
    }

    /// The exact step of a lookup: the ready whole-page trace for `key`,
    /// counted as a full replay, or `None`. Needs only the whole-page
    /// key, so callers try it before computing the page's record layout
    /// and fall back to [`TemplateCache::lookup`] on `None`.
    fn lookup_exact(&self, key: (u32, u64)) -> Option<Arc<Trace>> {
        match self.state.lock().unwrap().get(&key) {
            Some(Entry::Ready(trace)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(trace))
            }
            _ => None,
        }
    }

    /// Decides the evaluation path for a page. An exact whole-page trace
    /// wins (verbatim replay); otherwise a ready factored frame stitches
    /// a partial replay; otherwise the second sight of either the page
    /// or its frame records, and first sights bypass. Re-checks the
    /// exact entry, so a trace stored since a missed
    /// [`TemplateCache::lookup_exact`] still replays (and counts once).
    fn lookup(&self, key: (u32, u64), frame_key: Option<u64>) -> Lookup {
        let mut state = self.state.lock().unwrap();
        if let Some(Entry::Ready(trace)) = state.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::Replay(Arc::clone(trace));
        }
        let exact_pending = matches!(state.get(&key), Some(Entry::Pending));
        let Some(frame_key) = frame_key else {
            // No record layout: the original exact-only protocol.
            self.misses.fetch_add(1, Ordering::Relaxed);
            if exact_pending {
                return Lookup::Record;
            }
            if state.len() < self.capacity {
                state.insert(key, Entry::Pending);
            }
            return Lookup::Bypass;
        };
        let mut frames = self.frames.lock().unwrap();
        if let Some(FrameEntry::Ready(factored)) = frames.get(&frame_key) {
            self.frame_hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::PartialReplay(Arc::clone(factored));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if exact_pending || matches!(frames.get(&frame_key), Some(FrameEntry::Pending)) {
            return Lookup::Record;
        }
        if state.len() < self.capacity {
            state.insert(key, Entry::Pending);
        }
        if frames.len() < self.capacity {
            frames.insert(frame_key, FrameEntry::Pending);
        }
        Lookup::Bypass
    }

    fn store(&self, key: (u32, u64), trace: Trace, factored: Option<(u64, FactoredTrace)>) {
        {
            let mut state = self.state.lock().unwrap();
            if state.len() < self.capacity || state.contains_key(&key) {
                state.insert(key, Entry::Ready(Arc::new(trace)));
            }
        }
        if let Some((frame_key, factored)) = factored {
            let mut frames = self.frames.lock().unwrap();
            match frames.get(&frame_key) {
                // Keep the first factoring — its donor map has been
                // accumulating record variants.
                Some(FrameEntry::Ready(_)) => {}
                Some(FrameEntry::Pending) => {
                    frames.insert(frame_key, FrameEntry::Ready(Arc::new(factored)));
                }
                None => {
                    if frames.len() < self.capacity {
                        frames.insert(frame_key, FrameEntry::Ready(Arc::new(factored)));
                    }
                }
            }
        }
    }

    /// Installs a partial replay's assembled trace as the exact entry
    /// for its whole-page fingerprint. Stitched bare sets and fresh
    /// selections are exact for the page that produced them, so the
    /// trace is indistinguishable from a recording — the next page with
    /// this fingerprint replays verbatim instead of re-stitching. A
    /// roster shape thus pays the stitching walk once. The first ready
    /// entry wins races (replays are byte-identical either way).
    fn promote(&self, key: (u32, u64), trace: Trace) {
        let mut state = self.state.lock().unwrap();
        match state.get(&key) {
            Some(Entry::Ready(_)) => {}
            Some(Entry::Pending) => {
                state.insert(key, Entry::Ready(Arc::new(trace)));
            }
            None => {
                if state.len() < self.capacity {
                    state.insert(key, Entry::Ready(Arc::new(trace)));
                }
            }
        }
    }

    /// `(replayed pages, other pages)` since construction; replayed
    /// counts full and partial (frame) replays together.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed) + self.frame_hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The replay-path breakdown behind [`TemplateCache::stats`].
    pub fn replay_stats(&self) -> ReplayStats {
        ReplayStats {
            full_replays: self.hits.load(Ordering::Relaxed),
            frame_replays: self.frame_hits.load(Ordering::Relaxed),
            record_replays: self.record_replays.load(Ordering::Relaxed),
            record_fallbacks: self.record_fallbacks.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Maximum distinct record traces retained per factored frame. Real
/// listings draw records from a handful of optional-field combinations,
/// so this caps pathological variety without touching the common case.
const MAX_DONOR_TRACES: usize = 64;

/// Drops `[run_start, run_end)` from a sorted rank vector and shifts
/// later ranks down by the run length — frame (collapsed) coordinates.
fn collapse(ranks: &[u32], run_start: u32, run_end: u32) -> Vec<u32> {
    let lo = ranks.partition_point(|&r| r < run_start);
    let hi = ranks.partition_point(|&r| r < run_end);
    let run_len = run_end - run_start;
    let mut out = Vec::with_capacity(lo + ranks.len() - hi);
    out.extend_from_slice(&ranks[..lo]);
    out.extend(ranks[hi..].iter().map(|&r| r - run_len));
    out
}

/// The `[start, end)` window of a sorted rank vector, rebased to local
/// (zero-origin) coordinates.
fn slice_rebased(ranks: &[u32], start: u32, end: u32) -> Vec<u32> {
    let lo = ranks.partition_point(|&r| r < start);
    let hi = ranks.partition_point(|&r| r < end);
    ranks[lo..hi].iter().map(|&r| r - start).collect()
}

/// Factors a freshly recorded trace around `layout`'s record run: frame
/// in collapsed coordinates, one donor per distinct record fingerprint
/// (the first instance wins) in record-local coordinates.
fn factor_trace(trace: &Trace, layout: &RecordLayout) -> FactoredTrace {
    let (rs, re) = (layout.run_start, layout.run_end);
    let restrict = |f: &dyn Fn(&[u32]) -> Vec<u32>, sets: &[Option<Arc<Vec<u32>>>]| {
        sets.iter()
            .map(|s| s.as_deref().map(|v| Arc::new(f(v))))
            .collect::<Vec<_>>()
    };
    let frame = Trace {
        bare: restrict(&|v| collapse(v, rs, re), &trace.bare),
        selected: restrict(&|v| collapse(v, rs, re), &trace.selected),
    };
    let mut donors: HashMap<u64, Arc<Trace>> = HashMap::new();
    for rec in &layout.records {
        donors.entry(rec.fingerprint).or_insert_with(|| {
            Arc::new(Trace {
                bare: restrict(&|v| slice_rebased(v, rec.start, rec.end), &trace.bare),
                selected: restrict(&|v| slice_rebased(v, rec.start, rec.end), &trace.selected),
            })
        });
    }
    FactoredTrace {
        run_start: rs,
        frame,
        donors: Mutex::new(donors),
    }
}

/// Default [`TemplateCache`] capacity (distinct templates tracked per
/// evaluator). One evaluator serves one site's candidate set, and real
/// sites render from a handful of scripts, so this is generous.
pub const DEFAULT_TEMPLATE_CAPACITY: usize = 64;

/// Evaluates a fixed set of xpaths against documents with shared-prefix
/// memoization.
#[derive(Debug)]
pub struct BatchEvaluator {
    paths: usize,
    /// Children/terminals of the empty prefix (the document root).
    root: Variant,
    /// Trie arena.
    nodes: Vec<TrieNode>,
    /// Total variant count (gid space of the traces).
    n_variants: u32,
    /// Cross-page template replay cache; `None` when disabled.
    cache: Option<TemplateCache>,
}

impl BatchEvaluator {
    /// Builds an evaluator from compiled paths, with the cross-page
    /// [`TemplateCache`] enabled (disable with
    /// [`BatchEvaluator::with_cache`]).
    pub fn new(paths: &[CompiledXPath]) -> BatchEvaluator {
        let mut root = Variant {
            predicates: Vec::new(),
            children: Vec::new(),
            terminals: Vec::new(),
            gid: 0, // the root variant has no step; its gid is never read
        };
        let mut n_variants: u32 = 0;
        let mut nodes: Vec<TrieNode> = Vec::new();
        for (i, path) in paths.iter().enumerate() {
            // `at` addresses the variant whose subtrie we extend next;
            // `None` is the root (empty prefix).
            let mut at: Option<(usize, usize)> = None;
            for step in &path.steps {
                let found = {
                    let children: &[u32] = match at {
                        None => &root.children,
                        Some((n, v)) => &nodes[n].variants[v].children,
                    };
                    children.iter().copied().find(|&c| {
                        let node = &nodes[c as usize];
                        node.axis == step.axis && node.test == step.test
                    })
                };
                let node_i = match found {
                    Some(c) => c as usize,
                    None => {
                        let c = nodes.len();
                        nodes.push(TrieNode {
                            axis: step.axis,
                            test: step.test,
                            variants: Vec::new(),
                        });
                        match at {
                            None => root.children.push(c as u32),
                            Some((n, v)) => nodes[n].variants[v].children.push(c as u32),
                        }
                        c
                    }
                };
                let var_i = match nodes[node_i]
                    .variants
                    .iter()
                    .position(|v| v.predicates == step.predicates)
                {
                    Some(v) => v,
                    None => {
                        nodes[node_i].variants.push(Variant {
                            predicates: step.predicates.clone(),
                            children: Vec::new(),
                            terminals: Vec::new(),
                            gid: n_variants,
                        });
                        n_variants += 1;
                        nodes[node_i].variants.len() - 1
                    }
                };
                at = Some((node_i, var_i));
            }
            match at {
                None => root.terminals.push(i as u32),
                Some((n, v)) => nodes[n].variants[v].terminals.push(i as u32),
            }
        }
        BatchEvaluator {
            paths: paths.len(),
            root,
            nodes,
            n_variants,
            cache: Some(TemplateCache::new(DEFAULT_TEMPLATE_CAPACITY)),
        }
    }

    /// Enables or disables the cross-page [`TemplateCache`] (enabled by
    /// default; disabling also discards any recorded traces).
    pub fn with_cache(mut self, enabled: bool) -> BatchEvaluator {
        self.set_cache(enabled);
        self
    }

    /// In-place form of [`BatchEvaluator::with_cache`].
    pub fn set_cache(&mut self, enabled: bool) {
        self.cache = enabled.then(|| TemplateCache::new(DEFAULT_TEMPLATE_CAPACITY));
    }

    /// The template cache, when enabled.
    pub fn template_cache(&self) -> Option<&TemplateCache> {
        self.cache.as_ref()
    }

    /// Convenience constructor compiling ASTs first.
    pub fn from_xpaths<'a, I: IntoIterator<Item = &'a XPath>>(paths: I) -> BatchEvaluator {
        let compiled: Vec<CompiledXPath> = paths.into_iter().map(CompiledXPath::compile).collect();
        BatchEvaluator::new(&compiled)
    }

    /// Number of input paths.
    pub fn len(&self) -> usize {
        self.paths
    }

    /// True when built from no paths.
    pub fn is_empty(&self) -> bool {
        self.paths == 0
    }

    /// Number of distinct `(prefix, axis, test)` applications — the
    /// traversal work the trie performs per document. Predicate-aware
    /// merging makes this lower than the number of distinct full steps.
    pub fn distinct_steps(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct `(prefix, full step)` pairs — what
    /// [`Self::distinct_steps`] counted before predicate variants shared
    /// their bare application. The gap to `distinct_steps` is the work
    /// predicate-aware merging saves.
    pub fn distinct_variants(&self) -> usize {
        self.nodes.iter().map(|n| n.variants.len()).sum()
    }

    /// Evaluates every path against `doc`.
    ///
    /// Returns one node list per input path, aligned with the order the
    /// paths were given in; each list is sorted in document order and
    /// deduplicated, byte-identical to what
    /// [`crate::reference::evaluate`] returns for that path alone —
    /// whether the page evaluated fresh, recorded a template trace, or
    /// replayed one (see the [module docs](self)).
    pub fn evaluate(&self, doc: &Document) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.paths];
        self.evaluate_into(doc, &mut out);
        out
    }

    fn evaluate_into(&self, doc: &Document, out: &mut [Vec<NodeId>]) {
        let idx = doc.index();
        if let Some(cache) = &self.cache {
            let key = (doc.len() as u32, idx.template_fingerprint());
            if let Some(trace) = cache.lookup_exact(key) {
                return self.evaluate_replay(doc, idx, &trace, out);
            }
            // Only a whole-page miss needs the record layout.
            let layout = idx.record_layout();
            match cache.lookup(key, layout.map(|l| l.frame_fingerprint)) {
                Lookup::Replay(trace) => return self.evaluate_replay(doc, idx, &trace, out),
                Lookup::PartialReplay(factored) => {
                    let layout = layout.expect("partial replay implies a record layout");
                    return self
                        .evaluate_partial_replay(doc, idx, key, layout, &factored, cache, out);
                }
                Lookup::Record => {
                    let trace = self.evaluate_recording(doc, idx, out);
                    let factored = layout.map(|l| (l.frame_fingerprint, factor_trace(&trace, l)));
                    cache.store(key, trace, factored);
                    return;
                }
                Lookup::Bypass => {}
            }
        }
        self.evaluate_plain(doc, idx, out)
    }

    /// The direct evaluation path (no trace involved).
    fn evaluate_plain(&self, doc: &Document, idx: DocIndex<'_>, out: &mut [Vec<NodeId>]) {
        let root_ctx: Vec<u32> = vec![doc.root().0];
        for &t in &self.root.terminals {
            out[t as usize] = materialize(&root_ctx);
        }

        // Depth-first over the trie, carrying the context node-set of the
        // prefix evaluated so far. Each (prefix → bare context) pair is
        // computed exactly once per document.
        let mut stack: Vec<(u32, Vec<u32>)> = Vec::with_capacity(self.root.children.len());
        for &c in &self.root.children {
            stack.push((c, root_ctx.clone()));
        }
        while let Some((node_i, ctx)) = stack.pop() {
            let node = &self.nodes[node_i as usize];
            // With a single predicate variant there is nothing to share:
            // use the fused path (predicates checked during collection,
            // no intermediate bare node-set) — otherwise a lone
            // `//div[@class=..]` would materialize every div first.
            let mut bare: Vec<u32> = if node.variants.len() == 1 {
                Vec::new()
            } else {
                let b = apply_step_bare(doc, idx, &ctx, node.axis, &node.test);
                if b.is_empty() {
                    // Empty context propagates to every candidate below;
                    // their results stay empty without further work.
                    continue;
                }
                b
            };
            let last = node.variants.len() - 1;
            for (vi, variant) in node.variants.iter().enumerate() {
                let selected: Vec<u32> = if node.variants.len() == 1 {
                    match resolve_preds(idx, &variant.predicates) {
                        Some(preds) => {
                            let mut out = Vec::new();
                            apply_step_with(
                                doc, idx, &ctx, node.axis, &node.test, &preds, &mut out,
                            );
                            out
                        }
                        // An attribute value absent from this document.
                        None => Vec::new(),
                    }
                } else if variant.predicates.is_empty() {
                    if vi == last {
                        std::mem::take(&mut bare)
                    } else {
                        bare.clone()
                    }
                } else {
                    match resolve_preds(idx, &variant.predicates) {
                        Some(preds) => filter_resolved(idx, &node.test, &preds, &bare),
                        // An attribute value absent from this document.
                        None => Vec::new(),
                    }
                };
                if selected.is_empty() {
                    continue;
                }
                for &t in &variant.terminals {
                    out[t as usize] = materialize(&selected);
                }
                if let Some((&last_child, rest)) = variant.children.split_last() {
                    for &c in rest {
                        stack.push((c, selected.clone()));
                    }
                    stack.push((last_child, selected));
                }
            }
        }
    }

    /// Evaluates while recording a [`Trace`]: every trie node's bare set
    /// and every variant's selection, as sharable `Arc`s in rank space.
    ///
    /// Unlike [`BatchEvaluator::evaluate_plain`], single-variant nodes
    /// give up their fused collect-and-filter path here — the bare set
    /// must exist to be recorded. That one-page cost is what replays
    /// amortize away.
    fn evaluate_recording(
        &self,
        doc: &Document,
        idx: DocIndex<'_>,
        out: &mut [Vec<NodeId>],
    ) -> Trace {
        let mut trace = Trace::empty(self.nodes.len(), self.n_variants as usize);
        let root_ctx: Arc<Vec<u32>> = Arc::new(vec![doc.root().0]);
        for &t in &self.root.terminals {
            out[t as usize] = materialize(&root_ctx);
        }
        let mut stack: Vec<(u32, Arc<Vec<u32>>)> = self
            .root
            .children
            .iter()
            .map(|&c| (c, Arc::clone(&root_ctx)))
            .collect();
        while let Some((node_i, ctx)) = stack.pop() {
            let node = &self.nodes[node_i as usize];
            let bare = Arc::new(apply_step_bare(doc, idx, &ctx, node.axis, &node.test));
            trace.bare[node_i as usize] = Some(Arc::clone(&bare));
            if bare.is_empty() {
                // Empty context propagates to every candidate below; the
                // unreached subtrie stays `None` in the trace, which a
                // matching skeleton reproduces on replay.
                continue;
            }
            for variant in &node.variants {
                let selected: Arc<Vec<u32>> = if variant.predicates.is_empty() {
                    Arc::clone(&bare)
                } else {
                    Arc::new(match resolve_preds(idx, &variant.predicates) {
                        Some(preds) => filter_resolved(idx, &node.test, &preds, &bare),
                        // An attribute value absent from this document.
                        None => Vec::new(),
                    })
                };
                trace.selected[variant.gid as usize] = Some(Arc::clone(&selected));
                if selected.is_empty() {
                    continue;
                }
                for &t in &variant.terminals {
                    out[t as usize] = materialize(&selected);
                }
                for &c in &variant.children {
                    stack.push((c, Arc::clone(&selected)));
                }
            }
        }
        trace
    }

    /// Evaluates by replaying a recorded [`Trace`] onto a page with the
    /// same template fingerprint.
    ///
    /// Matching fingerprints guarantee identical rank topology, so bare
    /// node-sets and position-predicate selections transfer verbatim
    /// (ranks are remapped to this page's `NodeId`s at
    /// materialization). Attribute predicates are re-filtered per page
    /// over the cached bare set; the subtrie below one keeps replaying
    /// only while the fresh selection equals the recorded one, and
    /// otherwise falls back to fresh traversal from that point.
    fn evaluate_replay(
        &self,
        doc: &Document,
        idx: DocIndex<'_>,
        trace: &Trace,
        out: &mut [Vec<NodeId>],
    ) {
        /// Context of a pending trie node during replay.
        enum Ctx {
            /// Context equals the recording's — consume the trace.
            Trusted,
            /// An attribute re-filter diverged upstream — traverse.
            Fresh(Arc<Vec<u32>>),
        }

        let root_ctx: Vec<u32> = vec![doc.root().0];
        for &t in &self.root.terminals {
            out[t as usize] = materialize(&root_ctx);
        }
        let mut stack: Vec<(u32, Ctx)> = self
            .root
            .children
            .iter()
            .map(|&c| (c, Ctx::Trusted))
            .collect();
        while let Some((node_i, ctx)) = stack.pop() {
            let node = &self.nodes[node_i as usize];
            match ctx {
                Ctx::Trusted => {
                    // `None` = the recording never reached this node; a
                    // matching skeleton cannot reach it either.
                    let Some(bare) = trace.bare[node_i as usize].as_ref() else {
                        continue;
                    };
                    if bare.is_empty() {
                        continue;
                    }
                    for variant in &node.variants {
                        let has_attr = variant
                            .predicates
                            .iter()
                            .any(|p| matches!(p, CompiledPred::Attr { .. }));
                        if !has_attr {
                            // Bare or position-only selections are
                            // structure-determined: transfer verbatim.
                            let Some(selected) = trace.selected[variant.gid as usize].as_ref()
                            else {
                                continue;
                            };
                            if selected.is_empty() {
                                continue;
                            }
                            for &t in &variant.terminals {
                                out[t as usize] = materialize(selected);
                            }
                            for &c in &variant.children {
                                stack.push((c, Ctx::Trusted));
                            }
                        } else {
                            // The fingerprint ignores attribute values:
                            // re-filter on this page (integer compares
                            // over the shared bare set).
                            let fresh: Vec<u32> = match resolve_preds(idx, &variant.predicates) {
                                Some(preds) => filter_resolved(idx, &node.test, &preds, bare),
                                None => Vec::new(),
                            };
                            let agrees = trace.selected[variant.gid as usize]
                                .as_deref()
                                .is_some_and(|recorded| *recorded == fresh);
                            if fresh.is_empty() {
                                continue;
                            }
                            for &t in &variant.terminals {
                                out[t as usize] = materialize(&fresh);
                            }
                            if agrees {
                                for &c in &variant.children {
                                    stack.push((c, Ctx::Trusted));
                                }
                            } else {
                                let shared = Arc::new(fresh);
                                for &c in &variant.children {
                                    stack.push((c, Ctx::Fresh(Arc::clone(&shared))));
                                }
                            }
                        }
                    }
                }
                Ctx::Fresh(ctx) => {
                    let bare = apply_step_bare(doc, idx, &ctx, node.axis, &node.test);
                    if bare.is_empty() {
                        continue;
                    }
                    for variant in &node.variants {
                        let selected: Vec<u32> = if variant.predicates.is_empty() {
                            bare.clone()
                        } else {
                            match resolve_preds(idx, &variant.predicates) {
                                Some(preds) => filter_resolved(idx, &node.test, &preds, &bare),
                                None => Vec::new(),
                            }
                        };
                        if selected.is_empty() {
                            continue;
                        }
                        for &t in &variant.terminals {
                            out[t as usize] = materialize(&selected);
                        }
                        let shared = Arc::new(selected);
                        for &c in &variant.children {
                            stack.push((c, Ctx::Fresh(Arc::clone(&shared))));
                        }
                    }
                }
            }
        }
    }

    /// Evaluates by stitching a [`FactoredTrace`] onto a page whose
    /// *frame* fingerprint matches the recording but whose record roster
    /// (count, order, variants) may differ — see the
    /// [module docs](self).
    ///
    /// The walk carries explicit context vectors. A context is *trusted*
    /// when it provably equals the stitched recorded selection of its
    /// parent variant (with fresh values on fallback record spans);
    /// trusted nodes assemble their bare set by stitching instead of
    /// traversing, untrusted (or gap-demoted) nodes evaluate exactly
    /// like the fresh path. Predicate selections are always re-filtered
    /// pointwise over the true bare set, so emitted results never depend
    /// on trust — trust only buys the cheaper bare-set path below.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_partial_replay(
        &self,
        doc: &Document,
        idx: DocIndex<'_>,
        key: (u32, u64),
        layout: &RecordLayout,
        factored: &FactoredTrace,
        cache: &TemplateCache,
        out: &mut [Vec<NodeId>],
    ) {
        debug_assert_eq!(
            layout.run_start, factored.run_start,
            "the frame fingerprint pins the run origin"
        );
        /// Context of a pending trie node during partial replay.
        enum PCtx {
            /// Equals the stitched recorded parent selection (fresh on
            /// fallback spans) — bare sets may stitch from the trace.
            Trusted(Arc<Vec<u32>>),
            /// Diverged or demoted upstream — traverse.
            Fresh(Arc<Vec<u32>>),
        }
        /// An unseen record variant being recorded for future replays.
        struct Capture {
            /// Index into `layout.records` of the instance captured.
            record: usize,
            fingerprint: u64,
            trace: Trace,
        }

        // Assign each record a donor (a recorded trace for its
        // fingerprint) or mark it for per-span fresh fallback; the first
        // fallback instance of each unseen fingerprint is captured
        // during the walk to seed future pages.
        let mut donors: Vec<Option<Arc<Trace>>> = Vec::with_capacity(layout.records.len());
        let mut captures: Vec<Capture> = Vec::new();
        {
            let map = factored.donors.lock().unwrap();
            let mut room = MAX_DONOR_TRACES.saturating_sub(map.len());
            for (i, rec) in layout.records.iter().enumerate() {
                let donor = map.get(&rec.fingerprint).cloned();
                if donor.is_none()
                    && room > 0
                    && !captures.iter().any(|c| c.fingerprint == rec.fingerprint)
                {
                    room -= 1;
                    captures.push(Capture {
                        record: i,
                        fingerprint: rec.fingerprint,
                        trace: Trace::empty(self.nodes.len(), self.n_variants as usize),
                    });
                }
                donors.push(donor);
            }
        }
        let replayed = donors.iter().filter(|d| d.is_some()).count() as u64;
        cache.record_replays.fetch_add(replayed, Ordering::Relaxed);
        cache
            .record_fallbacks
            .fetch_add(layout.records.len() as u64 - replayed, Ordering::Relaxed);

        // Every bare set and selection this walk produces is exact for
        // the page (stitching is exact, everything else is computed
        // fresh), so collecting them yields a trace indistinguishable
        // from a recording — promoted under the page's whole-page
        // fingerprint at the end, it turns every later page with this
        // roster shape into a verbatim replay.
        let mut promo = Trace::empty(self.nodes.len(), self.n_variants as usize);

        let root_ctx: Arc<Vec<u32>> = Arc::new(vec![doc.root().0]);
        for &t in &self.root.terminals {
            out[t as usize] = materialize(&root_ctx);
        }
        let mut stack: Vec<(u32, PCtx)> = self
            .root
            .children
            .iter()
            .map(|&c| (c, PCtx::Trusted(Arc::clone(&root_ctx))))
            .collect();
        while let Some((node_i, pctx)) = stack.pop() {
            let node = &self.nodes[node_i as usize];
            let stitched = match &pctx {
                PCtx::Trusted(ctx) => {
                    self.stitch_bare(doc, idx, layout, factored, node_i, node, ctx, &donors)
                }
                PCtx::Fresh(_) => None,
            };
            let (PCtx::Trusted(ctx) | PCtx::Fresh(ctx)) = &pctx;
            let Some(bare) = stitched else {
                // Fresh traversal: untrusted context, or a gap in the
                // frame/donor data demoted this subtrie.
                let bare = apply_step_bare(doc, idx, ctx, node.axis, &node.test);
                if bare.is_empty() {
                    continue;
                }
                let bare = Arc::new(bare);
                promo.bare[node_i as usize] = Some(Arc::clone(&bare));
                for variant in &node.variants {
                    let selected: Arc<Vec<u32>> = if variant.predicates.is_empty() {
                        Arc::clone(&bare)
                    } else {
                        Arc::new(match resolve_preds(idx, &variant.predicates) {
                            Some(preds) => filter_resolved(idx, &node.test, &preds, &bare),
                            None => Vec::new(),
                        })
                    };
                    if selected.is_empty() {
                        continue;
                    }
                    promo.selected[variant.gid as usize] = Some(Arc::clone(&selected));
                    for &t in &variant.terminals {
                        out[t as usize] = materialize(&selected);
                    }
                    for &c in &variant.children {
                        stack.push((c, PCtx::Fresh(Arc::clone(&selected))));
                    }
                }
                continue;
            };
            // Trusted node: `bare` is the true bare set (stitching is
            // exact). Capture each unseen record variant's slice.
            promo.bare[node_i as usize] = Some(Arc::clone(&bare));
            for cap in &mut captures {
                let rec = &layout.records[cap.record];
                cap.trace.bare[node_i as usize] =
                    Some(Arc::new(slice_rebased(&bare, rec.start, rec.end)));
            }
            if bare.is_empty() {
                continue;
            }
            for variant in &node.variants {
                if variant.predicates.is_empty() {
                    for cap in &mut captures {
                        cap.trace.selected[variant.gid as usize] =
                            cap.trace.bare[node_i as usize].clone();
                    }
                    promo.selected[variant.gid as usize] = Some(Arc::clone(&bare));
                    for &t in &variant.terminals {
                        out[t as usize] = materialize(&bare);
                    }
                    for &c in &variant.children {
                        stack.push((c, PCtx::Trusted(Arc::clone(&bare))));
                    }
                } else {
                    // Predicates are pointwise (positions and attribute
                    // tests are per-node properties), so filtering the
                    // true bare set is always correct; the recorded
                    // selection only decides whether the subtrie below
                    // keeps stitching.
                    let fresh: Vec<u32> = match resolve_preds(idx, &variant.predicates) {
                        Some(preds) => filter_resolved(idx, &node.test, &preds, &bare),
                        None => Vec::new(),
                    };
                    for cap in &mut captures {
                        let rec = &layout.records[cap.record];
                        cap.trace.selected[variant.gid as usize] =
                            Some(Arc::new(slice_rebased(&fresh, rec.start, rec.end)));
                    }
                    let agrees = selection_agrees(&fresh, factored, layout, &donors, variant.gid);
                    if fresh.is_empty() {
                        continue;
                    }
                    for &t in &variant.terminals {
                        out[t as usize] = materialize(&fresh);
                    }
                    let shared = Arc::new(fresh);
                    promo.selected[variant.gid as usize] = Some(Arc::clone(&shared));
                    for &c in &variant.children {
                        let ctx = Arc::clone(&shared);
                        stack.push((
                            c,
                            if agrees {
                                PCtx::Trusted(ctx)
                            } else {
                                PCtx::Fresh(ctx)
                            },
                        ));
                    }
                }
            }
        }

        // Publish captured record variants for future pages. Captures
        // whose nodes all demoted carry no data and are dropped; races
        // between concurrent pages keep whichever donor lands first
        // (results never depend on which — stitching is exact).
        let mut fresh_donors = captures
            .into_iter()
            .filter(|c| c.trace.bare.iter().any(Option::is_some))
            .peekable();
        if fresh_donors.peek().is_some() {
            let mut map = factored.donors.lock().unwrap();
            for cap in fresh_donors {
                if map.len() >= MAX_DONOR_TRACES {
                    break;
                }
                map.entry(cap.fingerprint)
                    .or_insert_with(|| Arc::new(cap.trace));
            }
        }
        cache.promote(key, promo);
    }

    /// Assembles the true bare node-set of a trusted trie node by
    /// stitching: expanded frame prefix, then per record either the
    /// donor slice rebased to the record's span or a fresh clipped
    /// evaluation of that span, then the expanded frame suffix. Returns
    /// `None` when the frame or any assigned donor lacks data for this
    /// node (the caller demotes the subtrie to fresh traversal).
    #[allow(clippy::too_many_arguments)]
    fn stitch_bare(
        &self,
        doc: &Document,
        idx: DocIndex<'_>,
        layout: &RecordLayout,
        factored: &FactoredTrace,
        node_i: u32,
        node: &TrieNode,
        ctx: &Arc<Vec<u32>>,
        donors: &[Option<Arc<Trace>>],
    ) -> Option<Arc<Vec<u32>>> {
        let frame = factored.frame.bare[node_i as usize].as_deref()?;
        for donor in donors.iter().flatten() {
            donor.bare[node_i as usize].as_ref()?;
        }
        let run_len = layout.run_len();
        let split = frame.partition_point(|&r| r < layout.run_start);
        let (prefix, suffix) = frame.split_at(split);
        // Does some context node above the run contain all of it? Frame
        // subtree ends never fall strictly inside the run, so this is
        // span-independent; it decides how descendant steps reach
        // fallback spans.
        let covering_ancestor = node.axis == Axis::Descendant
            && donors.iter().any(Option::is_none)
            && ctx[..ctx.partition_point(|&r| r < layout.run_start)]
                .iter()
                .any(|&c| idx.subtree(c).end >= layout.run_end);
        let mut out: Vec<u32> = Vec::with_capacity(frame.len());
        out.extend_from_slice(prefix);
        for (rec, donor) in layout.records.iter().zip(donors) {
            match donor {
                Some(d) => {
                    let slice = d.bare[node_i as usize].as_deref().expect("checked above");
                    out.extend(slice.iter().map(|&r| r + rec.start));
                }
                None => out.extend(fresh_span(
                    doc,
                    idx,
                    layout,
                    node,
                    ctx,
                    rec,
                    covering_ancestor,
                )),
            }
        }
        out.extend(suffix.iter().map(|&r| r + run_len));
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "stitch must be sorted");
        Some(Arc::new(out))
    }
}

/// Fresh evaluation of one trie step clipped to a single record span
/// (a fallback record during partial replay). Record subtrees are
/// rank-contiguous, so results inside the span can only come from
/// context inside it, from the run parent (child steps reach the record
/// root), or — for descendant steps — from an ancestor covering the run,
/// in which case the span's posting range answers directly.
fn fresh_span(
    doc: &Document,
    idx: DocIndex<'_>,
    layout: &RecordLayout,
    node: &TrieNode,
    ctx: &[u32],
    rec: &aw_dom::RecordSpan,
    covering_ancestor: bool,
) -> Vec<u32> {
    let lo = ctx.partition_point(|&r| r < rec.start);
    let hi = ctx.partition_point(|&r| r < rec.end);
    match node.axis {
        Axis::Descendant if covering_ancestor => {
            let postings = postings_for(idx, &node.test);
            let lo = postings.partition_point(|&r| r < rec.start);
            let hi = postings.partition_point(|&r| r < rec.end);
            postings[lo..hi].to_vec()
        }
        Axis::Descendant => apply_step_bare(doc, idx, &ctx[lo..hi], node.axis, &node.test),
        Axis::Child => {
            let mut cand: Vec<u32> = Vec::with_capacity(hi - lo + 1);
            if ctx.binary_search(&layout.parent).is_ok() {
                cand.push(layout.parent);
            }
            cand.extend_from_slice(&ctx[lo..hi]);
            let out = apply_step_bare(doc, idx, &cand, node.axis, &node.test);
            let lo = out.partition_point(|&r| r < rec.start);
            let hi = out.partition_point(|&r| r < rec.end);
            out[lo..hi].to_vec()
        }
    }
}

/// Streams the freshly filtered selection against the stitched recorded
/// one (frame prefix, donor slices, frame suffix), skipping fallback
/// spans where fresh values are authoritative. Equality means the
/// subtrie below may keep stitching; any gap or mismatch means it must
/// not.
fn selection_agrees(
    fresh: &[u32],
    factored: &FactoredTrace,
    layout: &RecordLayout,
    donors: &[Option<Arc<Trace>>],
    gid: u32,
) -> bool {
    let Some(frame) = factored.frame.selected[gid as usize].as_deref() else {
        return false;
    };
    let split = frame.partition_point(|&r| r < layout.run_start);
    let (prefix, suffix) = frame.split_at(split);
    let mut pos = 0usize;
    let eat = |expect: &[u32], base: u32, pos: &mut usize| -> bool {
        for &r in expect {
            if fresh.get(*pos) != Some(&(r + base)) {
                return false;
            }
            *pos += 1;
        }
        true
    };
    if !eat(prefix, 0, &mut pos) {
        return false;
    }
    for (rec, donor) in layout.records.iter().zip(donors) {
        match donor {
            Some(d) => {
                let Some(sel) = d.selected[gid as usize].as_deref() else {
                    return false;
                };
                if !eat(sel, rec.start, &mut pos) {
                    return false;
                }
            }
            // Fallback span: skip exactly the fresh values inside it.
            None => {
                while fresh
                    .get(pos)
                    .is_some_and(|&r| r >= rec.start && r < rec.end)
                {
                    pos += 1;
                }
            }
        }
    }
    eat(suffix, layout.run_len(), &mut pos) && pos == fresh.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xpath;
    use crate::reference;
    use aw_dom::parse;

    fn dealer_page() -> aw_dom::Document {
        parse(
            "<div class='dealerlinks'>\
               <tr><td><u>PORTER FURNITURE</u><br>201 HWY<br>NEW ALBANY, MS 38652</td></tr>\
               <tr><td><u>WOODLAND FURNITURE</u><br>123 Main St.<br>WOODLAND, MS 3977</td></tr>\
             </div><div class='footer'>contact us</div>",
        )
    }

    /// A wrapper-space-shaped candidate set: common prefix, diverging
    /// suffixes (what enumeration actually produces).
    fn candidate_set() -> Vec<XPath> {
        [
            "//div[@class='dealerlinks']/tr/td/u/text()",
            "//div[@class='dealerlinks']/tr/td/u[1]/text()[1]",
            "//div[@class='dealerlinks']/tr/td//text()",
            "//div[@class='dealerlinks']/tr/td/text()",
            "//div[@class='dealerlinks']/tr/td/text()[2]",
            "//div/tr/td/u/text()",
            "//div//text()",
            "//text()",
        ]
        .iter()
        .map(|s| parse_xpath(s).unwrap())
        .collect()
    }

    #[test]
    fn batch_matches_reference_per_path() {
        let doc = dealer_page();
        let paths = candidate_set();
        let batch = BatchEvaluator::from_xpaths(&paths);
        let results = batch.evaluate(&doc);
        assert_eq!(results.len(), paths.len());
        for (path, got) in paths.iter().zip(&results) {
            assert_eq!(got, &reference::evaluate(path, &doc), "mismatch for {path}");
        }
    }

    #[test]
    fn trie_shares_prefixes_and_merges_predicates() {
        let paths = candidate_set();
        let batch = BatchEvaluator::from_xpaths(&paths);
        let total_steps: usize = paths.iter().map(|p| p.steps.len()).sum();
        assert!(
            batch.distinct_steps() < total_steps,
            "no sharing: {} trie nodes for {} total steps",
            batch.distinct_steps(),
            total_steps
        );
        // The five rules sharing `//div[@class=..]/tr/td` contribute that
        // prefix once: 30 total steps collapse to 17 distinct full steps
        // (the predicate variants), and predicate-aware merging shares
        // the bare application of `//div`↔`//div[@class=..]`, `u`↔`u[1]`
        // and `text()`↔`text()[2]`, leaving 14 traversals.
        assert_eq!(batch.distinct_variants(), 17);
        assert_eq!(batch.distinct_steps(), 14);
    }

    #[test]
    fn predicate_variants_agree_with_reference() {
        // Steps identical up to predicates: all four share one `//td`
        // traversal, and each `td` variant context shares one `/text()`
        // traversal — 3 bare applications for 6 distinct full steps.
        let doc = dealer_page();
        let paths: Vec<XPath> = [
            "//td/text()",
            "//td[1]/text()",
            "//td/text()[2]",
            "//td[1]/text()[3]",
        ]
        .iter()
        .map(|s| parse_xpath(s).unwrap())
        .collect();
        let batch = BatchEvaluator::from_xpaths(&paths);
        assert_eq!(batch.distinct_steps(), 3);
        assert_eq!(batch.distinct_variants(), 6);
        for (path, got) in paths.iter().zip(batch.evaluate(&doc)) {
            assert_eq!(got, reference::evaluate(path, &doc), "mismatch for {path}");
        }
    }

    #[test]
    fn empty_set_and_empty_doc() {
        let batch = BatchEvaluator::new(&[]);
        assert!(batch.is_empty());
        assert!(batch.evaluate(&dealer_page()).is_empty());

        let paths = candidate_set();
        let batch = BatchEvaluator::from_xpaths(&paths);
        let results = batch.evaluate(&aw_dom::Document::default());
        assert_eq!(results.len(), paths.len());
        assert!(results.iter().all(Vec::is_empty));
    }

    #[test]
    fn duplicate_paths_each_get_results() {
        let xp = parse_xpath("//td/u/text()").unwrap();
        let batch = BatchEvaluator::from_xpaths(vec![&xp, &xp]);
        let doc = dealer_page();
        let results = batch.evaluate(&doc);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], reference::evaluate(&xp, &doc));
    }

    /// Pages rendered from one template: identical skeletons, different
    /// text and attribute values.
    fn template_pages() -> Vec<aw_dom::Document> {
        [
            "ALPHA;1 Elm;d1",
            "BETA;2 Oak;d2",
            "GAMMA;3 Fir;d3",
            "DELTA;4 Ash;d4",
        ]
        .iter()
        .map(|spec| {
            let mut parts = spec.split(';');
            let (name, street, href) = (
                parts.next().unwrap(),
                parts.next().unwrap(),
                parts.next().unwrap(),
            );
            parse(&format!(
                "<div class='dealerlinks'>\
                       <tr><td><a href='/d/{href}'><u>{name}</u></a><br>{street}</td></tr>\
                     </div><div class='footer'>contact us</div>",
            ))
        })
        .collect()
    }

    #[test]
    fn template_replay_is_byte_identical_to_reference() {
        let pages = template_pages();
        let fp = pages[0].index().template_fingerprint();
        for page in &pages {
            assert_eq!(
                page.index().template_fingerprint(),
                fp,
                "pages share one template"
            );
        }
        let paths = candidate_set();
        let batch = BatchEvaluator::from_xpaths(&paths);
        for (p, doc) in pages.iter().enumerate() {
            for (path, got) in paths.iter().zip(batch.evaluate(doc)) {
                assert_eq!(got, reference::evaluate(path, doc), "page {p}, path {path}");
            }
        }
        let (hits, misses) = batch.template_cache().unwrap().stats();
        assert_eq!(
            (hits, misses),
            (2, 2),
            "page 0 bypasses, page 1 records, pages 2-3 replay"
        );
    }

    #[test]
    fn replay_revalidates_attribute_selections_per_page() {
        // Same skeleton, but the listing container's class differs on the
        // last two pages — the fingerprint ignores attribute values, so
        // replay must re-filter and fall back below the divergence.
        let make = |class: &str, name: &str| {
            parse(&format!(
                "<div class='{class}'><tr><td><u>{name}</u><br>addr</td></tr></div>"
            ))
        };
        let pages = [
            make("list", "ALPHA"),
            make("list", "BETA"),
            make("other", "GAMMA"),
            make("other", "DELTA"),
        ];
        let paths: Vec<XPath> = [
            // Selects on the first two pages only.
            "//div[@class='list']/tr/td/u/text()",
            // Selects on the LAST two pages only: its subtrie is never
            // reached during recording, so replay must traverse fresh.
            "//div[@class='other']/tr/td/u/text()",
            // Attribute-free: replays verbatim everywhere.
            "//div/tr/td/u/text()",
            "//td/text()[1]",
        ]
        .iter()
        .map(|s| parse_xpath(s).unwrap())
        .collect();
        let batch = BatchEvaluator::from_xpaths(&paths);
        for (p, doc) in pages.iter().enumerate() {
            for (path, got) in paths.iter().zip(batch.evaluate(doc)) {
                assert_eq!(got, reference::evaluate(path, doc), "page {p}, path {path}");
            }
        }
        let (hits, _) = batch.template_cache().unwrap().stats();
        assert_eq!(hits, 2, "pages 2-3 replay (with re-validation)");
    }

    #[test]
    fn cache_disabled_matches_cache_enabled() {
        let pages = template_pages();
        let paths = candidate_set();
        let cached = BatchEvaluator::from_xpaths(&paths);
        let uncached = BatchEvaluator::from_xpaths(&paths).with_cache(false);
        assert!(uncached.template_cache().is_none());
        for doc in &pages {
            assert_eq!(cached.evaluate(doc), uncached.evaluate(doc));
        }
    }

    #[test]
    fn repeated_evaluation_of_one_document_replays() {
        let doc = dealer_page();
        let paths = candidate_set();
        let batch = BatchEvaluator::from_xpaths(&paths);
        let first = batch.evaluate(&doc);
        for _ in 0..3 {
            assert_eq!(batch.evaluate(&doc), first);
        }
        let (hits, misses) = batch.template_cache().unwrap().stats();
        assert_eq!((hits, misses), (2, 2));
    }

    /// A variable-length listing: chrome around a run of `tr` records.
    /// Each record is `(name, has_phone)` — `has_phone` toggles the
    /// optional second cell, giving the record a distinct subtree
    /// fingerprint.
    fn varlen_page(records: &[(&str, bool)]) -> aw_dom::Document {
        let mut rows = String::new();
        for (i, (name, phone)) in records.iter().enumerate() {
            rows.push_str(&format!("<tr><td><u>{name}</u><br>{i} Elm St</td>"));
            if *phone {
                rows.push_str(&format!("<td>555-00{i}</td>"));
            }
            rows.push_str("</tr>");
        }
        parse(&format!(
            "<div class='nav'><a href='/h'>home</a></div>\
             <div class='dealerlinks'>{rows}</div>\
             <div class='footer'>contact us</div>"
        ))
    }

    fn assert_all_match_reference(
        batch: &BatchEvaluator,
        paths: &[XPath],
        pages: &[aw_dom::Document],
    ) {
        for (p, doc) in pages.iter().enumerate() {
            for (path, got) in paths.iter().zip(batch.evaluate(doc)) {
                assert_eq!(got, reference::evaluate(path, doc), "page {p}, path {path}");
            }
        }
    }

    #[test]
    fn partial_replay_stitches_across_record_counts() {
        // Counts differ page to page, so whole-page fingerprints almost
        // never repeat — only the frame carries the replay.
        let pages: Vec<aw_dom::Document> = [2usize, 4, 3, 5, 4]
            .iter()
            .map(|&n| varlen_page(&vec![("DEALER", true); n]))
            .collect();
        let paths = candidate_set();
        let batch = BatchEvaluator::from_xpaths(&paths);
        assert_all_match_reference(&batch, &paths, &pages);
        let stats = batch.template_cache().unwrap().replay_stats();
        assert_eq!(
            stats.frame_replays, 2,
            "pages 2 (3 recs) and 3 (5 recs) stitch partial replays"
        );
        assert_eq!(
            stats.full_replays, 1,
            "page 4 repeats page 1's count and replays verbatim"
        );
        assert_eq!(stats.record_replays, 3 + 5, "every record had a donor");
        assert_eq!(stats.record_fallbacks, 0);
        assert_eq!(stats.misses, 2, "page 0 bypasses, page 1 records");
        assert_eq!(batch.template_cache().unwrap().stats(), (3, 2));
    }

    #[test]
    fn exact_hits_never_compute_the_record_layout() {
        // 3 records: bypass, record, exact replay; 4: frame replay
        // (promoted), then exact replay; a non-listing page misses.
        let counts = [3usize, 3, 3, 4, 4];
        let pages: Vec<aw_dom::Document> = counts
            .iter()
            .map(|&n| varlen_page(&vec![("DEALER", true); n]))
            .chain([parse("<div class='nav'>home</div><p>no dealers</p>")])
            .collect();
        let paths = candidate_set();
        let batch = BatchEvaluator::from_xpaths(&paths);
        assert_all_match_reference(&batch, &paths, &pages);
        let computed: Vec<bool> = pages
            .iter()
            .map(|p| p.index().record_layout_computed())
            .collect();
        assert_eq!(
            computed,
            [true, true, false, true, false, true],
            "only whole-page misses detect the record layout"
        );
        let stats = batch.template_cache().unwrap().replay_stats();
        assert_eq!(
            (stats.full_replays, stats.frame_replays, stats.misses),
            (2, 1, 3)
        );

        // Cache off: no lookup, so no layout either.
        let page = varlen_page(&[("DEALER", true); 3]);
        BatchEvaluator::from_xpaths(&paths)
            .with_cache(false)
            .evaluate(&page);
        assert!(!page.index().record_layout_computed());
    }

    #[test]
    fn partial_replay_falls_back_and_captures_record_variants() {
        let pages = [
            varlen_page(&[("A", true), ("B", true), ("C", true)]),
            varlen_page(&[("D", true), ("E", true), ("F", true)]),
            // A phone-less middle record: unseen fingerprint → fallback
            // span, captured as a donor.
            varlen_page(&[("G", true), ("H", false), ("I", true)]),
            // Both variants known now — no fallbacks left.
            varlen_page(&[("J", false), ("K", true), ("L", true)]),
        ];
        let paths = candidate_set();
        let batch = BatchEvaluator::from_xpaths(&paths);
        assert_all_match_reference(&batch, &paths, &pages);
        let stats = batch.template_cache().unwrap().replay_stats();
        assert_eq!(stats.frame_replays, 2);
        assert_eq!(
            (stats.record_replays, stats.record_fallbacks),
            (2 + 3, 1),
            "page 2 stitches 2 and falls back on 1; page 3 stitches all \
             3 thanks to the captured phone-less donor"
        );
    }

    #[test]
    fn partial_replay_revalidates_attribute_selections() {
        // The frame fingerprint ignores attribute *values*, so a page
        // whose container class changed still partial-replays — and the
        // attribute re-filter must steer its subtrie to fresh traversal.
        let make = |class: &str, n: usize| {
            let rows: String = (0..n)
                .map(|i| format!("<tr><td><u>NAME{i}</u><br>addr</td></tr>"))
                .collect();
            parse(&format!(
                "<div class='{class}'>{rows}</div><div class='f'>x</div>"
            ))
        };
        let pages = [
            make("list", 2),
            make("list", 3),
            make("other", 4),
            make("list", 5),
        ];
        let paths: Vec<XPath> = [
            "//div[@class='list']/tr/td/u/text()",
            "//div[@class='other']/tr/td/u/text()",
            "//div/tr/td/u/text()",
            "//td/text()[1]",
        ]
        .iter()
        .map(|s| parse_xpath(s).unwrap())
        .collect();
        let batch = BatchEvaluator::from_xpaths(&paths);
        assert_all_match_reference(&batch, &paths, &pages);
        let stats = batch.template_cache().unwrap().replay_stats();
        assert_eq!(stats.frame_replays, 2, "pages 2 and 3 stitch");
    }

    #[test]
    fn reusable_across_pages() {
        let paths = candidate_set();
        let batch = BatchEvaluator::from_xpaths(&paths);
        let page2 = parse(
            "<div class='dealerlinks'>\
               <tr><td><u>ACME CHAIRS</u><br>9 Low Rd<br>TUPELO, MS 38801</td></tr>\
             </div><div class='footer'>contact us</div>",
        );
        for doc in [dealer_page(), page2] {
            for (path, got) in paths.iter().zip(batch.evaluate(&doc)) {
                assert_eq!(got, reference::evaluate(path, &doc), "mismatch for {path}");
            }
        }
    }
}
