//! Extraction-health accounting: the detect half of the self-healing
//! serving loop.
//!
//! A wrapper that was correct at learn time silently rots when its site
//! drifts — requests keep succeeding at the HTTP layer while extraction
//! goes empty or wrong. [`HealthTracker`] watches the signals that make
//! such rot observable *without* gold labels:
//!
//! * **empty-extraction rate** over a sliding window of recent pages —
//!   the blunt instrument that catches template breaks;
//! * **value-shape drift** against a baseline learned from the site's
//!   own first healthy pages (values per page, characters per value) —
//!   catches wrappers that still match *something*, but the wrong thing;
//! * **template-cache replay-miss spikes** — structurally novel pages
//!   arriving faster than the cache can absorb them mean the site's
//!   template population changed (xpath wrappers only: TABLE, LR and
//!   HLRT wrappers keep no template cache and report no misses);
//! * **page errors** — unparseable request pages count against the
//!   window rather than failing the request.
//!
//! The tracker also retains a bounded ring of recent raw request pages
//! per site: the training corpus a [`crate::relearn::RelearnController`]
//! re-runs `Engine::learn` over when a site degrades. Every state
//! transition lands in a [`HealthEvent`] journal.
//!
//! All accounting is deterministic for a deterministic request stream:
//! counters derive from response values only, never from timing.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Mutex;

/// Tunable degradation thresholds (see field docs for defaults).
#[derive(Clone, Debug)]
pub struct HealthThresholds {
    /// Sliding window length, in pages (default 16).
    pub window: usize,
    /// Minimum pages observed before the window is judged (default 4).
    pub min_window: usize,
    /// Degrade when the window's empty-or-error page fraction exceeds
    /// this (default 0.5).
    pub max_empty_rate: f64,
    /// Degrade when the window's template-cache replay-miss fraction
    /// exceeds this (default 0.9; ≥ 1.0 disables the trigger — the
    /// signal still reports).
    pub max_miss_rate: f64,
    /// Degrade when the window's value shape drifts from the baseline
    /// by more than this relative amount (default 0.5).
    pub max_shape_drift: f64,
    /// Non-empty pages that learn the shape baseline (default 8).
    pub baseline_pages: usize,
    /// Capacity of the retained raw-page ring buffer (default 16).
    pub retain_pages: usize,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        HealthThresholds {
            window: 16,
            min_window: 4,
            max_empty_rate: 0.5,
            max_miss_rate: 0.9,
            max_shape_drift: 0.5,
            baseline_pages: 8,
            retain_pages: 16,
        }
    }
}

/// What one request page looked like to the service, health-wise.
#[derive(Clone, Debug)]
pub struct PageObservation {
    /// Raw HTML of the page (retained for relearning).
    pub html: String,
    /// Extracted value count (0 for errored pages).
    pub values: usize,
    /// Total extracted characters.
    pub chars: usize,
    /// The structured per-page error, if the page failed to parse.
    pub error: Option<String>,
}

impl PageObservation {
    fn view(&self) -> PageView<'_> {
        PageView {
            html: &self.html,
            values: self.values,
            chars: self.chars,
            error: self.error.is_some(),
        }
    }
}

/// A [`PageObservation`] borrowing its page: what the service knows
/// about a served page without a copy of its HTML. Only the pages the
/// retained ring keeps are copied, inside [`HealthTracker::observe`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct PageView<'a> {
    pub(crate) html: &'a str,
    pub(crate) values: usize,
    pub(crate) chars: usize,
    /// Whether the page failed to parse.
    pub(crate) error: bool,
}

impl PageView<'_> {
    fn is_empty(&self) -> bool {
        self.values == 0
    }
}

/// A point-in-time health snapshot of one site.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteHealth {
    /// The site key.
    pub site: String,
    /// Lifetime requests routed to the site.
    pub requests: u64,
    /// Lifetime pages served.
    pub pages: u64,
    /// Lifetime pages that failed to parse.
    pub error_pages: u64,
    /// Pages currently in the sliding window.
    pub window_pages: usize,
    /// Empty-or-error fraction of the window.
    pub empty_rate: f64,
    /// Template-cache replay-miss fraction of the window.
    pub replay_miss_rate: f64,
    /// Relative value-shape drift vs. the learned baseline (0.0 until a
    /// baseline exists).
    pub shape_drift: f64,
    /// Whether the site is currently past a degradation threshold.
    pub degraded: bool,
    /// Raw pages currently retained for relearning.
    pub retained_pages: usize,
}

/// One entry of the health event journal.
#[derive(Clone, Debug, PartialEq)]
pub enum HealthEvent {
    /// A site crossed a degradation threshold.
    Degraded {
        /// Site key.
        site: String,
        /// Which threshold, with the observed value.
        reason: String,
    },
    /// A degraded (or freshly swapped) site's window refilled healthy.
    Recovered {
        /// Site key.
        site: String,
    },
    /// A shadow relearn began.
    RelearnStarted {
        /// Site key.
        site: String,
        /// 1-based attempt counter since the last successful swap.
        attempt: u32,
    },
    /// The differential check passed and the new wrapper was swapped in.
    RelearnSwapped {
        /// Site key.
        site: String,
        /// Registry generation after the swap.
        generation: u64,
    },
    /// The differential check failed; the old wrapper keeps serving.
    RelearnRejected {
        /// Site key.
        site: String,
        /// Why the candidate lost.
        reason: String,
    },
    /// The relearn pass itself failed (no labels, no wrapper space, …).
    RelearnFailed {
        /// Site key.
        site: String,
        /// 1-based attempt counter.
        attempt: u32,
        /// The failure.
        error: String,
    },
    /// A swapped-out wrapper was rolled back in.
    RolledBack {
        /// Site key.
        site: String,
        /// Registry generation after the rollback.
        generation: u64,
    },
}

impl HealthEvent {
    /// The site the event concerns.
    pub fn site(&self) -> &str {
        match self {
            HealthEvent::Degraded { site, .. }
            | HealthEvent::Recovered { site }
            | HealthEvent::RelearnStarted { site, .. }
            | HealthEvent::RelearnSwapped { site, .. }
            | HealthEvent::RelearnRejected { site, .. }
            | HealthEvent::RelearnFailed { site, .. }
            | HealthEvent::RolledBack { site, .. } => site,
        }
    }
}

impl fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthEvent::Degraded { site, reason } => write!(f, "{site}: degraded ({reason})"),
            HealthEvent::Recovered { site } => write!(f, "{site}: recovered"),
            HealthEvent::RelearnStarted { site, attempt } => {
                write!(f, "{site}: relearn started (attempt {attempt})")
            }
            HealthEvent::RelearnSwapped { site, generation } => {
                write!(f, "{site}: relearn swapped in (generation {generation})")
            }
            HealthEvent::RelearnRejected { site, reason } => {
                write!(f, "{site}: relearn rejected ({reason})")
            }
            HealthEvent::RelearnFailed {
                site,
                attempt,
                error,
            } => write!(f, "{site}: relearn failed (attempt {attempt}: {error})"),
            HealthEvent::RolledBack { site, generation } => {
                write!(f, "{site}: rolled back (generation {generation})")
            }
        }
    }
}

/// Per-site sliding-window state.
#[derive(Debug, Default)]
struct SiteState {
    requests: u64,
    pages: u64,
    error_pages: u64,
    /// `(empty, values, chars, error)` per page, newest last.
    window: VecDeque<(bool, usize, usize, bool)>,
    /// `(miss delta, pages)` per request, newest last.
    miss_window: VecDeque<(u64, usize)>,
    /// `(mean values per non-empty page, mean chars per value)`.
    baseline: Option<(f64, f64)>,
    /// Non-empty page stats accumulating toward the baseline.
    baseline_acc: Vec<(usize, usize)>,
    /// Retained raw pages, `(html, was_empty)`, newest last.
    retained: VecDeque<(String, bool)>,
    /// Last cumulative `(hits, misses)` seen from the serving wrapper.
    last_cache: Option<(u64, u64)>,
    degraded: bool,
    /// Set after a swap/reset: the next healthy full window journals a
    /// `Recovered` event.
    recovering: bool,
}

impl SiteState {
    fn empty_rate(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let empty = self.window.iter().filter(|(e, ..)| *e).count();
        empty as f64 / self.window.len() as f64
    }

    fn miss_rate(&self) -> f64 {
        let pages: usize = self.miss_window.iter().map(|(_, p)| p).sum();
        if pages == 0 {
            return 0.0;
        }
        let misses: u64 = self.miss_window.iter().map(|(m, _)| m).sum();
        (misses as f64 / pages as f64).min(1.0)
    }

    fn shape_drift(&self) -> f64 {
        let Some((base_values, base_chars)) = self.baseline else {
            return 0.0;
        };
        let (pages, values, chars) = self
            .window
            .iter()
            .filter(|(e, ..)| !e)
            .fold((0usize, 0usize, 0usize), |(n, v, c), &(_, pv, pc, _)| {
                (n + 1, v + pv, c + pc)
            });
        if pages == 0 {
            return 0.0; // emptiness is the empty-rate signal's job
        }
        let mean_values = values as f64 / pages as f64;
        let mean_chars = if values == 0 {
            0.0
        } else {
            chars as f64 / values as f64
        };
        let rel = |now: f64, base: f64| {
            if base == 0.0 {
                0.0
            } else {
                (now - base).abs() / base
            }
        };
        rel(mean_values, base_values).max(rel(mean_chars, base_chars))
    }

    /// The crossed threshold, if any: the signal, its observed value
    /// and the threshold. Cheap, because a degraded site is judged on
    /// every request; [`Degradation::reason`] spells it out for the
    /// journal.
    fn degradation(&self, t: &HealthThresholds) -> Option<Degradation> {
        if self.window.len() < t.min_window {
            return None;
        }
        let empty = self.empty_rate();
        if empty > t.max_empty_rate {
            return Some(Degradation("empty rate", empty, t.max_empty_rate));
        }
        let miss = self.miss_rate();
        if miss > t.max_miss_rate {
            return Some(Degradation("replay miss rate", miss, t.max_miss_rate));
        }
        let drift = self.shape_drift();
        if drift > t.max_shape_drift {
            return Some(Degradation("shape drift", drift, t.max_shape_drift));
        }
        None
    }
}

/// A crossed health threshold: signal name, observed value, threshold.
struct Degradation(&'static str, f64, f64);

impl Degradation {
    fn reason(&self) -> String {
        let Degradation(signal, observed, threshold) = self;
        format!("{signal} {observed:.2} > {threshold:.2}")
    }
}

/// Per-site health accounting plus the health event journal.
///
/// Shared (`Arc`) between the [`crate::ExtractionService`] that feeds it
/// and the [`crate::relearn::RelearnController`] that consumes its
/// retained pages and writes relearn transitions into its journal.
#[derive(Debug)]
pub struct HealthTracker {
    thresholds: HealthThresholds,
    sites: Mutex<BTreeMap<String, SiteState>>,
    journal: Mutex<Vec<HealthEvent>>,
}

impl Default for HealthTracker {
    fn default() -> HealthTracker {
        HealthTracker::new(HealthThresholds::default())
    }
}

impl HealthTracker {
    /// A tracker with the given thresholds.
    pub fn new(thresholds: HealthThresholds) -> HealthTracker {
        HealthTracker {
            thresholds,
            sites: Mutex::new(BTreeMap::new()),
            journal: Mutex::new(Vec::new()),
        }
    }

    /// The configured thresholds.
    pub fn thresholds(&self) -> &HealthThresholds {
        &self.thresholds
    }

    /// Feeds one served request's page observations into the site's
    /// window, returning `true` when the site *newly* crossed a
    /// degradation threshold (the edge, not the level: the caller
    /// enqueues one relearn per degradation episode).
    pub fn observe(
        &self,
        site: &str,
        observations: &[PageObservation],
        cache_stats: Option<(u64, u64)>,
    ) -> bool {
        self.observe_views(
            site,
            observations.iter().map(PageObservation::view),
            cache_stats,
        )
    }

    /// [`HealthTracker::observe`] over borrowed pages (walked twice).
    pub(crate) fn observe_views<'p>(
        &self,
        site: &str,
        observations: impl Iterator<Item = PageView<'p>> + Clone,
        cache_stats: Option<(u64, u64)>,
    ) -> bool {
        let t = &self.thresholds;
        let mut sites = lock(&self.sites);
        // A known site (every request but its first) allocates no key.
        if !sites.contains_key(site) {
            sites.insert(site.to_string(), SiteState::default());
        }
        let state = sites.get_mut(site).expect("inserted above");
        let (pages, healthy) = observations
            .clone()
            .fold((0, 0), |(n, ok), p| (n + 1, ok + usize::from(!p.error)));
        state.requests += 1;
        state.pages += pages as u64;

        // Replay-miss delta attributed to this request. A smaller
        // cumulative counter means the serving wrapper was swapped (its
        // cache restarted) — treat the new value as the new base.
        let miss_delta = match (cache_stats, state.last_cache) {
            (Some((_, misses)), Some((_, last))) if misses >= last => misses - last,
            (Some((_, misses)), _) => misses,
            (None, _) => 0,
        };
        state.last_cache = cache_stats;
        state.miss_window.push_back((miss_delta, pages));
        while state.miss_window.len() > t.window {
            state.miss_window.pop_front();
        }

        // Only the newest `retain_pages` healthy pages of this request
        // can survive the ring, so older ones are never cloned into it.
        let mut unretained = healthy.saturating_sub(t.retain_pages);
        for page in observations {
            if page.error {
                state.error_pages += 1;
            }
            state
                .window
                .push_back((page.is_empty(), page.values, page.chars, page.error));
            while state.window.len() > t.window {
                state.window.pop_front();
            }
            // Parse failures are not useful relearn material; healthy
            // and drifted pages both are.
            if !page.error {
                if unretained > 0 {
                    unretained -= 1;
                } else {
                    // A full ring hands its oldest page's buffer to the
                    // newest when it fits closely: a site that keeps
                    // serving pages of one shape retains them without
                    // allocating, and no retained buffer keeps more than
                    // 1/8 spare (unbounded reuse grows every buffer to
                    // the largest page seen).
                    let evicted = if state.retained.len() >= t.retain_pages {
                        state.retained.pop_front().map(|(html, _)| html)
                    } else {
                        None
                    };
                    let len = page.html.len();
                    let html = match evicted
                        .filter(|html| (len..=len + len / 8).contains(&html.capacity()))
                    {
                        Some(mut html) => {
                            html.clear();
                            html.push_str(page.html);
                            html
                        }
                        None => page.html.to_string(),
                    };
                    state.retained.push_back((html, page.is_empty()));
                }
            }
            if !page.is_empty() && state.baseline.is_none() {
                state.baseline_acc.push((page.values, page.chars));
                if state.baseline_acc.len() >= t.baseline_pages {
                    let pages = state.baseline_acc.len() as f64;
                    let values: usize = state.baseline_acc.iter().map(|(v, _)| v).sum();
                    let chars: usize = state.baseline_acc.iter().map(|(_, c)| c).sum();
                    state.baseline = Some((
                        values as f64 / pages,
                        if values == 0 {
                            0.0
                        } else {
                            chars as f64 / values as f64
                        },
                    ));
                }
            }
        }

        let reason = state.degradation(t);
        match (&reason, state.degraded) {
            (Some(reason), false) => {
                state.degraded = true;
                state.recovering = false;
                let event = HealthEvent::Degraded {
                    site: site.to_string(),
                    reason: reason.reason(),
                };
                drop(sites);
                self.record(event);
                true
            }
            (None, _) => {
                let was_degraded = state.degraded;
                let recovering = state.recovering;
                state.degraded = false;
                if (was_degraded || recovering) && state.window.len() >= t.min_window {
                    state.recovering = false;
                    let event = HealthEvent::Recovered {
                        site: site.to_string(),
                    };
                    drop(sites);
                    self.record(event);
                }
                false
            }
            (Some(_), true) => false,
        }
    }

    /// The current health snapshot of one site (`None` when the site has
    /// served no request yet).
    pub fn health(&self, site: &str) -> Option<SiteHealth> {
        let sites = lock(&self.sites);
        sites.get(site).map(|s| snapshot(site, s))
    }

    /// Health snapshots of every observed site, in key order.
    pub fn all_health(&self) -> Vec<SiteHealth> {
        lock(&self.sites)
            .iter()
            .map(|(site, s)| snapshot(site, s))
            .collect()
    }

    /// The retained raw pages of a site, oldest first, each tagged with
    /// whether the serving wrapper extracted nothing from it.
    pub fn retained_pages(&self, site: &str) -> Vec<(String, bool)> {
        lock(&self.sites)
            .get(site)
            .map(|s| s.retained.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Resets a site's window, baseline and retained ring after a
    /// wrapper swap: the new wrapper learns a fresh baseline on its own
    /// template, and a subsequent healthy window journals `Recovered`.
    pub fn reset_site(&self, site: &str) {
        let mut sites = lock(&self.sites);
        if let Some(state) = sites.get_mut(site) {
            state.window.clear();
            state.miss_window.clear();

            state.baseline = None;
            state.baseline_acc.clear();
            state.retained.clear();
            state.last_cache = None;
            state.degraded = false;
            state.recovering = true;
        }
    }

    /// Appends an event to the journal.
    pub fn record(&self, event: HealthEvent) {
        lock(&self.journal).push(event);
    }

    /// The full journal, oldest first.
    pub fn journal(&self) -> Vec<HealthEvent> {
        lock(&self.journal).clone()
    }

    /// The journal entries concerning one site, oldest first.
    pub fn journal_for(&self, site: &str) -> Vec<HealthEvent> {
        lock(&self.journal)
            .iter()
            .filter(|e| e.site() == site)
            .cloned()
            .collect()
    }
}

fn snapshot(site: &str, s: &SiteState) -> SiteHealth {
    SiteHealth {
        site: site.to_string(),
        requests: s.requests,
        pages: s.pages,
        error_pages: s.error_pages,
        window_pages: s.window.len(),
        empty_rate: s.empty_rate(),
        replay_miss_rate: s.miss_rate(),
        shape_drift: s.shape_drift(),
        degraded: s.degraded,
        retained_pages: s.retained.len(),
    }
}

/// Poison-recovering lock: health accounting must never wedge the
/// serving loop because one request panicked mid-observation.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(values: usize, chars: usize) -> PageObservation {
        PageObservation {
            html: format!("<p>{}</p>", "x".repeat(chars.max(1))),
            values,
            chars,
            error: None,
        }
    }

    fn empty_page() -> PageObservation {
        page(0, 0)
    }

    fn thresholds() -> HealthThresholds {
        HealthThresholds {
            window: 8,
            min_window: 4,
            baseline_pages: 4,
            retain_pages: 8,
            ..HealthThresholds::default()
        }
    }

    #[test]
    fn healthy_stream_never_degrades() {
        let t = HealthTracker::new(thresholds());
        for _ in 0..20 {
            assert!(!t.observe("s", &[page(4, 40)], None));
        }
        let h = t.health("s").unwrap();
        assert_eq!(h.requests, 20);
        assert_eq!(h.pages, 20);
        assert!(!h.degraded);
        assert_eq!(h.empty_rate, 0.0);
        assert_eq!(h.shape_drift, 0.0);
        assert!(t.journal().is_empty());
    }

    #[test]
    fn empty_rate_crosses_threshold_once() {
        let t = HealthTracker::new(thresholds());
        for _ in 0..4 {
            t.observe("s", &[page(4, 40)], None);
        }
        // Window of 8: after 5 empty pages the rate is 5/8 > 0.5 — and
        // only the crossing request reports the edge.
        let mut edges = 0;
        for _ in 0..6 {
            if t.observe("s", &[empty_page()], None) {
                edges += 1;
            }
        }
        assert_eq!(edges, 1);
        let h = t.health("s").unwrap();
        assert!(h.degraded);
        assert!(h.empty_rate > 0.5, "{}", h.empty_rate);
        assert_eq!(t.journal().len(), 1);
        assert!(matches!(&t.journal()[0], HealthEvent::Degraded { site, .. } if site == "s"));
    }

    #[test]
    fn shape_drift_detected_against_learned_baseline() {
        let t = HealthTracker::new(thresholds());
        // Learn a 4-values-per-page baseline…
        for _ in 0..4 {
            t.observe("s", &[page(4, 40)], None);
        }
        // …then the wrapper starts matching a single wrong value.
        let mut degraded = false;
        for _ in 0..8 {
            degraded |= t.observe("s", &[page(1, 10)], None);
        }
        assert!(degraded);
        let h = t.health("s").unwrap();
        assert!(h.shape_drift > 0.5, "{}", h.shape_drift);
        assert_eq!(h.empty_rate, 0.0, "no page was empty");
    }

    #[test]
    fn miss_spike_detected_via_cache_deltas() {
        let t = HealthTracker::new(HealthThresholds {
            max_miss_rate: 0.6,
            ..thresholds()
        });
        // Warm: every page replays (no new misses).
        for i in 0..4u64 {
            assert!(!t.observe("s", &[page(3, 30)], Some((i, 1))));
        }
        // Every page a novel template: misses grow 1 per page.
        let mut degraded = false;
        for i in 0..8u64 {
            degraded |= t.observe("s", &[page(3, 30)], Some((4, 2 + i)));
        }
        assert!(degraded);
        assert!(t.health("s").unwrap().replay_miss_rate > 0.6);
    }

    #[test]
    fn page_errors_count_toward_window_and_lifetime() {
        let t = HealthTracker::new(thresholds());
        for _ in 0..5 {
            t.observe(
                "s",
                &[PageObservation {
                    html: String::new(),
                    values: 0,
                    chars: 0,
                    error: Some("no parseable content".into()),
                }],
                None,
            );
        }
        let h = t.health("s").unwrap();
        assert_eq!(h.error_pages, 5);
        assert!(h.degraded, "all-error windows degrade via empty rate");
        assert_eq!(h.retained_pages, 0, "error pages are not relearn material");
    }

    #[test]
    fn retained_ring_is_bounded_and_tags_empties() {
        let t = HealthTracker::new(thresholds());
        for i in 0..12 {
            t.observe(
                "s",
                &[PageObservation {
                    html: format!("<p>page {i}</p>"),
                    values: usize::from(i % 2 == 0),
                    chars: 5,
                    error: None,
                }],
                None,
            );
        }
        let retained = t.retained_pages("s");
        assert_eq!(retained.len(), 8, "ring capacity");
        assert_eq!(
            retained[0].0, "<p>page 4</p>",
            "oldest first, oldest evicted"
        );
        assert!(retained.iter().any(|(_, empty)| *empty));
    }

    #[test]
    fn retained_ring_matches_clone_every_page_model() {
        // The ring after each request must equal pushing every healthy
        // page and popping down to capacity, whatever the request size
        // relative to `retain_pages` (16 here) and wherever its error
        // pages fall.
        let t = HealthTracker::new(HealthThresholds::default());
        let cap = t.thresholds().retain_pages;
        assert_eq!(cap, 16);
        let mut model: VecDeque<(String, bool)> = VecDeque::new();
        let mut next = 0;
        for (round, &size) in [1, 16, 17, 32, 40, 17, 1, 40, 16].iter().enumerate() {
            let pages: Vec<PageObservation> = (0..size)
                .map(|i| {
                    next += 1;
                    PageObservation {
                        html: format!("<p>page {next}</p>"),
                        values: usize::from(next % 3 != 0),
                        chars: 5,
                        error: ((i + round) % 5 == 2).then(|| "parse error".to_string()),
                    }
                })
                .collect();
            for p in pages.iter().filter(|p| p.error.is_none()) {
                model.push_back((p.html.clone(), p.values == 0));
                while model.len() > cap {
                    model.pop_front();
                }
            }
            t.observe("s", &pages, None);
            assert_eq!(
                t.retained_pages("s"),
                model.iter().cloned().collect::<Vec<_>>(),
                "ring after a {size}-page request"
            );
        }
    }

    #[test]
    fn borrowed_views_leave_the_same_state_as_owned_observations() {
        // Two sites, request sizes on both sides of the ring capacity
        // (8 here), error pages, an all-empty round that degrades the
        // sites and rounds after it that recover them.
        let owned = HealthTracker::new(thresholds());
        let borrowed = HealthTracker::new(thresholds());
        let mut next = 0usize;
        for (round, &size) in [3, 8, 9, 20, 6, 1, 12, 5, 9].iter().enumerate() {
            for site in ["a", "b"] {
                let pages: Vec<PageObservation> = (0..size)
                    .map(|i| {
                        next += 1;
                        PageObservation {
                            html: format!("<p>{site} {next}</p>"),
                            values: if round == 4 { 0 } else { 1 + next % 3 },
                            chars: 4 + next % 5,
                            error: ((i + round) % 6 == 1).then(|| "parse error".to_string()),
                        }
                    })
                    .collect();
                let views = pages.iter().map(PageObservation::view);
                let stats = Some((round as u64 * 3, round as u64 * 2));
                assert_eq!(
                    owned.observe(site, &pages, stats),
                    borrowed.observe_views(site, views, stats),
                    "degradation edge of round {round} on {site}"
                );
            }
        }
        assert_eq!(owned.all_health(), borrowed.all_health());
        for site in ["a", "b"] {
            assert!(!owned.retained_pages(site).is_empty());
            assert_eq!(owned.retained_pages(site), borrowed.retained_pages(site));
        }
        let journal = owned.journal();
        assert!(
            journal
                .iter()
                .any(|e| matches!(e, HealthEvent::Degraded { .. })),
            "the stream must degrade: {journal:?}"
        );
        assert_eq!(journal, borrowed.journal());
    }

    #[test]
    fn reset_then_healthy_window_journals_recovery() {
        let t = HealthTracker::new(thresholds());
        for _ in 0..4 {
            t.observe("s", &[page(4, 40)], None);
        }
        for _ in 0..6 {
            t.observe("s", &[empty_page()], None);
        }
        assert!(t.health("s").unwrap().degraded);
        t.reset_site("s");
        let h = t.health("s").unwrap();
        assert!(!h.degraded);
        assert_eq!(h.window_pages, 0);
        assert_eq!(h.retained_pages, 0);
        for _ in 0..4 {
            t.observe("s", &[page(4, 40)], None);
        }
        let journal = t.journal();
        assert!(matches!(journal.last(), Some(HealthEvent::Recovered { site }) if site == "s"));
        assert_eq!(
            journal
                .iter()
                .filter(|e| matches!(e, HealthEvent::Recovered { .. }))
                .count(),
            1,
            "recovery is an edge, not a level"
        );
    }

    #[test]
    fn unknown_site_has_no_health() {
        let t = HealthTracker::new(HealthThresholds::default());
        assert!(t.health("nope").is_none());
        assert!(t.all_health().is_empty());
        assert!(t.retained_pages("nope").is_empty());
    }
}
