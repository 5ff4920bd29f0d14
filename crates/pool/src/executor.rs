//! The shared work-stealing executor.
//!
//! A pool that spawns a fresh team of scoped threads on every `map` call
//! is fine for one flat loop but wrong for the workspace's real shape:
//! the harness maps over *sites* while the xpath layer maps over each
//! site's *pages*. Nesting scoped pools oversubscribes the machine
//! (every outer worker spawns its own inner team), and the historical
//! workaround — parallelize only one level — leaves cores idle whenever
//! the two levels are unevenly sized.
//!
//! An [`Executor`] owns one persistent team of workers and lets *both*
//! levels feed it:
//!
//! * **Per-worker deques + stealing** — each worker owns a deque; a
//!   nested [`Executor::map`] issued from a worker pushes its task
//!   handles onto that worker's own deque (newest first, so the
//!   innermost batch drains first), and idle peers steal the oldest
//!   handles from the front. Calls from threads outside the pool go
//!   through a shared injector queue.
//! * **Chunked claiming** — a task handle is not one item but a ticket
//!   into a *batch*: whoever picks it up claims chunks of consecutive
//!   items from the batch's atomic cursor until the batch is drained
//!   (dynamic load balancing without spawning threads per call).
//! * **Cooperative blocking** — the thread that called `map` claims
//!   chunks of its own batch first, then *helps* with other queued work
//!   while the last stolen chunks finish elsewhere; a worker is never
//!   parked while any batch has runnable work.
//! * **Determinism** — results are written into a slot-per-item buffer,
//!   so output order is the input order for every thread count and every
//!   steal schedule; `Executor::new(1)` and `Executor::new(64)` return
//!   identical vectors.
//!
//! One executor is meant to be shared by a whole process
//! ([`Executor::global`]); the engine, the rank/xpath batch layers and
//! the experiment harness all route their parallelism through it, so
//! site-level and page-level work items interleave in one pool instead
//! of competing thread teams.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// How many chunks each thread gets on average; >1 so uneven per-item
/// costs rebalance, small enough that claiming stays cheap.
const CHUNKS_PER_THREAD: usize = 8;

/// An invalid thread-count setting (`AW_THREADS` or `--threads`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadsError {
    value: String,
}

impl std::fmt::Display for ThreadsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid thread count {:?}: expected a positive integer \
             (set AW_THREADS or --threads to 1 or more)",
            self.value
        )
    }
}

impl std::error::Error for ThreadsError {}

/// Parses a thread-count setting: a positive integer, or an error that
/// names the offending value (`"0"` and non-numeric strings are both
/// rejected — silently falling back to `auto` hid typos for too long).
pub fn parse_threads(value: &str) -> Result<usize, ThreadsError> {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(ThreadsError {
            value: value.to_string(),
        }),
    }
}

/// Reads the `AW_THREADS` environment variable: `Ok(None)` when unset,
/// `Ok(Some(n))` for a valid positive integer, and a [`ThreadsError`]
/// for anything else (0, negative, non-numeric, non-unicode).
pub fn env_threads() -> Result<Option<usize>, ThreadsError> {
    match std::env::var("AW_THREADS") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => Err(ThreadsError {
            value: v.to_string_lossy().into_owned(),
        }),
        Ok(v) => parse_threads(&v).map(Some),
    }
}

/// The machine's thread count when nothing overrides it.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

thread_local! {
    /// `(shared-state address, worker index)` when the current thread is
    /// an executor worker — how a nested `map` finds its own deque.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// A persistent work-stealing thread pool with order-preserving maps.
///
/// Cheap to clone (all clones share the same workers); the worker
/// threads exit when the last clone is dropped. See the [module
/// docs](self) for the execution model.
#[derive(Clone)]
pub struct Executor {
    inner: Arc<Inner>,
}

struct Inner {
    shared: Arc<Shared>,
    threads: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

struct Shared {
    /// Per-worker deques: the owner pushes and pops at the back (newest
    /// first), thieves steal the oldest handle from the front.
    deques: Vec<Mutex<VecDeque<Arc<Batch>>>>,
    /// Submissions from threads outside the pool.
    injector: Mutex<VecDeque<Arc<Batch>>>,
    /// Count of queued task handles; guards the parking decision.
    queued: Mutex<usize>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Executor {
    /// An executor with an explicit thread count (clamped to ≥ 1): the
    /// calling thread participates in every `map`, so `threads - 1`
    /// workers are spawned. `Executor::new(1)` spawns nothing and maps
    /// sequentially.
    pub fn new(threads: usize) -> Executor {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            deques: (1..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            queued: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("aw-exec-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor {
            inner: Arc::new(Inner {
                shared,
                threads,
                handles: Mutex::new(handles),
            }),
        }
    }

    /// An executor using all available cores, with `AW_THREADS`
    /// overriding the count.
    ///
    /// # Panics
    ///
    /// On an invalid `AW_THREADS` value — use [`Executor::try_auto`] to
    /// surface the error instead.
    pub fn auto() -> Executor {
        Executor::try_auto().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Executor::auto`], but an invalid `AW_THREADS` value is
    /// returned as a [`ThreadsError`] rather than panicking.
    pub fn try_auto() -> Result<Executor, ThreadsError> {
        Ok(Executor::new(
            env_threads()?.unwrap_or_else(default_threads),
        ))
    }

    /// The process-wide shared executor (built on first use, honouring
    /// `AW_THREADS`). This is the pool every layer should default to:
    /// routing nested parallelism through one executor is what prevents
    /// site-level and page-level loops from oversubscribing each other.
    ///
    /// # Panics
    ///
    /// On first use with an invalid `AW_THREADS` value (validate with
    /// [`env_threads`] first to report the error gracefully).
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(Executor::auto)
    }

    /// The configured thread count (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Applies `f` to every item, preserving input order in the output.
    ///
    /// The calling thread participates; idle workers steal chunks. Safe
    /// to call from inside another `map` on the same executor — the
    /// nested batch is queued on the calling worker's own deque and
    /// drained by the whole team, not by a fresh set of threads. A
    /// panicking `f` is re-raised on the caller after the batch drains.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let len = items.len();
        let shared = &self.inner.shared;
        let workers = shared.deques.len();
        if workers == 0 || len <= 1 {
            return items.iter().map(&f).collect();
        }
        let chunk = len.div_ceil(self.inner.threads * CHUNKS_PER_THREAD).max(1);
        let n_chunks = len.div_ceil(chunk);
        if n_chunks <= 1 {
            return items.iter().map(&f).collect();
        }

        let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
        // SAFETY CONTRACT: the batch erases `items`, `results` and `f`
        // to raw pointers so task handles can sit in 'static deques.
        // This function does not return (or unwind) until `pending`
        // reaches zero, i.e. until no thread will touch those pointers
        // again; stale handles left in the deques only ever observe the
        // exhausted chunk cursor.
        let batch = Arc::new(Batch {
            items: items.as_ptr().cast(),
            results: results.as_mut_ptr().cast(),
            f: (&raw const f).cast(),
            len,
            chunk,
            n_chunks,
            run: run_chunk::<T, R, F>,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(n_chunks),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
        });

        let me = current_worker(shared);
        // The caller claims chunks too, so peers only need handles for
        // what they could possibly steal.
        shared.push(me, workers.min(n_chunks - 1), &batch);

        // Claim chunks of this batch until its cursor drains...
        batch.work();
        // ...then help with whatever else is queued (other batches,
        // nested batches of this one) while stolen chunks finish; with
        // nothing left to help with, park until the last stolen chunk
        // completes (its runner never needs this thread — every chunk
        // still pending has already been claimed by a live runner).
        while batch.pending.load(Ordering::Acquire) > 0 {
            match shared.find_task(me) {
                Some(task) => task.work(),
                None => {
                    let mut guard = batch.done_lock.lock().unwrap();
                    while batch.pending.load(Ordering::Acquire) > 0 {
                        guard = batch.done.wait(guard).unwrap();
                    }
                }
            }
        }

        let payload = batch.panic.lock().unwrap().take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
        results
            .into_iter()
            .map(|r| r.expect("every chunk executed"))
            .collect()
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.inner.threads)
            .finish()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::auto()
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        {
            let _guard = self.shared.queued.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.wake.notify_all();
        }
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// `Some(index)` when the current thread is a worker of `shared`'s pool.
fn current_worker(shared: &Arc<Shared>) -> Option<usize> {
    WORKER
        .get()
        .and_then(|(addr, idx)| (addr == Arc::as_ptr(shared) as usize).then_some(idx))
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER.set(Some((Arc::as_ptr(&shared) as usize, index)));
    loop {
        if let Some(task) = shared.find_task(Some(index)) {
            task.work();
            continue;
        }
        let mut queued = shared.queued.lock().unwrap();
        while *queued == 0 {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            queued = shared.wake.wait(queued).unwrap();
        }
    }
}

impl Shared {
    /// Pops a task handle: own deque first (newest — the innermost
    /// nested batch), then the injector, then steal the oldest from a
    /// peer.
    fn find_task(&self, me: Option<usize>) -> Option<Arc<Batch>> {
        if let Some(i) = me {
            if let Some(t) = self.deques[i].lock().unwrap().pop_back() {
                self.note_popped();
                return Some(t);
            }
        }
        if let Some(t) = self.injector.lock().unwrap().pop_front() {
            self.note_popped();
            return Some(t);
        }
        let n = self.deques.len();
        let start = me.map_or(0, |i| i + 1);
        for k in 0..n {
            let j = (start + k) % n;
            if Some(j) == me {
                continue;
            }
            if let Some(t) = self.deques[j].lock().unwrap().pop_front() {
                self.note_popped();
                return Some(t);
            }
        }
        None
    }

    fn note_popped(&self) {
        let mut q = self.queued.lock().unwrap();
        *q = q.saturating_sub(1);
    }

    /// Queues `copies` handles to `task` — on the calling worker's own
    /// deque, or on the injector for outside threads — and wakes
    /// sleepers.
    fn push(&self, me: Option<usize>, copies: usize, task: &Arc<Batch>) {
        if copies == 0 {
            return;
        }
        {
            let mut dq = match me {
                Some(i) => self.deques[i].lock().unwrap(),
                None => self.injector.lock().unwrap(),
            };
            for _ in 0..copies {
                dq.push_back(Arc::clone(task));
            }
            // Count the handles while still holding the deque lock. If
            // the increment landed after the lock was released, a racing
            // pop could decrement first, `note_popped`'s saturation at
            // zero would swallow that decrement, and `queued` would
            // overstate forever — workers then spin on the phantom count
            // instead of parking (a livelock that can starve the mapping
            // thread outright on single-CPU hosts). The deque→queued
            // nesting matches `find_task`/`note_popped`.
            let mut q = self.queued.lock().unwrap();
            *q += copies;
        }
        if copies == 1 {
            self.wake.notify_one();
        } else {
            self.wake.notify_all();
        }
    }
}

/// One `map` call's type-erased execution state. A handle in a deque is
/// a *ticket* into the batch: [`Batch::work`] claims chunks from the
/// cursor until none remain, so extra handles are harmless (they observe
/// an exhausted cursor and return).
struct Batch {
    items: *const (),
    results: *mut (),
    f: *const (),
    len: usize,
    chunk: usize,
    n_chunks: usize,
    /// Monomorphized chunk runner restoring the erased types.
    run: unsafe fn(&Batch, usize),
    /// Chunk-claim cursor.
    next: AtomicUsize,
    /// Chunks not yet finished; `map` returns when this hits zero.
    pending: AtomicUsize,
    /// First panic payload out of `f`, re-raised on the mapping caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Parking spot for the mapping caller while the final stolen
    /// chunks run elsewhere (predicate: `pending` == 0).
    done_lock: Mutex<()>,
    done: Condvar,
}

// SAFETY: the raw pointers refer to the mapping caller's stack, which
// outlives all chunk executions (`map` blocks until `pending` == 0), and
// chunks write disjoint result slots. The pointee types are constrained
// `T: Sync`, `R: Send`, `F: Sync` by `Executor::map`.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and runs chunks until the cursor is exhausted.
    fn work(&self) {
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.n_chunks {
                return;
            }
            // SAFETY: `c` was claimed exactly once and is in range; the
            // batch's pointers are live because `pending` has not
            // reached zero yet (this chunk counts toward it).
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (self.run)(self, c) }));
            if let Err(p) = outcome {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
            if self.pending.fetch_sub(1, Ordering::Release) == 1 {
                // Last chunk done: wake the possibly-parked mapping
                // caller. Taking the lock orders this with its
                // check-then-wait, so the wakeup cannot be lost.
                let _guard = self.done_lock.lock().unwrap();
                self.done.notify_all();
            }
        }
    }
}

/// Runs chunk `c`: the `(T, R, F)` monomorphization restoring the types
/// erased in [`Batch`].
///
/// # Safety
///
/// Must only be called with the `Batch` built by `Executor::map` for
/// this same `(T, R, F)`, with `c < n_chunks` claimed exactly once.
unsafe fn run_chunk<T, R, F>(batch: &Batch, c: usize)
where
    F: Fn(&T) -> R,
{
    // SAFETY: pointers and length come from the live slice/buffer/closure
    // of the owning `map` call (see the safety contract there).
    unsafe {
        let items = std::slice::from_raw_parts(batch.items as *const T, batch.len);
        let results = batch.results as *mut Option<R>;
        let f = &*(batch.f as *const F);
        let lo = c * batch.chunk;
        let hi = (lo + batch.chunk).min(batch.len);
        for (i, item) in items[lo..hi].iter().enumerate() {
            *results.add(lo + i) = Some(f(item));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..5000).collect();
        let out = Executor::new(4).map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    /// Hammers the push/pop interleaving with many tiny maps. A stale
    /// `queued` count (handles popped before their increment landed —
    /// the decrement saturates at zero and the count overstates forever)
    /// leaves workers spinning instead of parking and can starve the
    /// mapping thread outright; the watchdog turns that wedge into a
    /// test failure instead of a hung suite.
    #[test]
    fn rapid_small_maps_never_wedge() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = Executor::new(3);
            for i in 0..20_000usize {
                let items: Vec<usize> = (0..7).collect();
                let out = pool.map(&items, |&x| x + i);
                assert_eq!(out[6], 6 + i);
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("executor wedged: rapid small maps did not complete");
    }

    #[test]
    fn identical_across_thread_counts() {
        let items: Vec<u64> = (0..997).collect(); // prime length: ragged chunks
        let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xA5).collect();
        for threads in [1, 2, 3, 5, 8] {
            let exec = Executor::new(threads);
            let out = exec.map(&items, |&x| x.wrapping_mul(x) ^ 0xA5);
            assert_eq!(out, expected, "thread count {threads}");
        }
    }

    #[test]
    fn nested_maps_run_on_the_same_team() {
        // Sites × pages through ONE executor: the nested call must not
        // deadlock, must not spawn a second team, and must stay
        // deterministic.
        let exec = Executor::new(4);
        let sites: Vec<u64> = (0..40).collect();
        let expected: Vec<u64> = sites
            .iter()
            .map(|&s| (0..37).map(|p| s * 1000 + p).sum())
            .collect();
        let got = exec.map(&sites, |&s| {
            let pages: Vec<u64> = (0..37).map(|p| s * 1000 + p).collect();
            exec.map(&pages, |&p| p).into_iter().sum::<u64>()
        });
        assert_eq!(got, expected);
    }

    #[test]
    fn deeply_nested_maps_terminate() {
        let exec = Executor::new(3);
        let outer: Vec<u64> = (0..6).collect();
        let got = exec.map(&outer, |&a| {
            let mid: Vec<u64> = (0..5).map(|b| a * 10 + b).collect();
            exec.map(&mid, |&m| {
                let inner: Vec<u64> = (0..4).map(|c| m * 10 + c).collect();
                exec.map(&inner, |&x| x + 1).into_iter().sum::<u64>()
            })
            .into_iter()
            .sum::<u64>()
        });
        let expected: Vec<u64> = outer
            .iter()
            .map(|&a| {
                (0..5)
                    .map(|b| (0..4).map(|c| (a * 10 + b) * 10 + c + 1).sum::<u64>())
                    .sum()
            })
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn uneven_task_sizes_stress() {
        let items: Vec<u64> = (0..600)
            .map(|i| if i % 97 == 0 { 40_000 } else { i % 13 })
            .collect();
        let work = |&n: &u64| -> u64 {
            let mut acc = 0u64;
            for k in 0..n {
                acc = acc.wrapping_add(k).rotate_left(1);
            }
            acc
        };
        let expected: Vec<u64> = items.iter().map(work).collect();
        for threads in [2, 4, 7] {
            assert_eq!(
                Executor::new(threads).map(&items, work),
                expected,
                "thread count {threads}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        let exec = Executor::new(4);
        let out: Vec<u32> = exec.map(&Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
        assert_eq!(exec.map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn thread_count_clamps_to_one() {
        let exec = Executor::new(0);
        assert_eq!(exec.threads(), 1);
        assert_eq!(exec.map(&[1, 2, 3], |&x: &i32| x), vec![1, 2, 3]);
    }

    #[test]
    fn executor_is_reusable_across_calls() {
        let exec = Executor::new(3);
        for round in 0..50u64 {
            let items: Vec<u64> = (0..64).collect();
            let out = exec.map(&items, |&x| x + round);
            assert_eq!(out, items.iter().map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn clones_share_workers_and_drop_cleanly() {
        let exec = Executor::new(4);
        let other = exec.clone();
        assert_eq!(other.threads(), 4);
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(exec.map(&items, |&x| x), other.map(&items, |&x| x),);
        drop(other);
        // Workers stay alive for the surviving clone.
        assert_eq!(exec.map(&[1u32, 2], |&x| x * 3), vec![3, 6]);
    }

    #[test]
    #[should_panic]
    fn propagates_panics() {
        let items: Vec<u32> = (0..64).collect();
        let _ = Executor::new(4).map(&items, |&x| {
            if x == 13 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn survives_a_propagated_panic() {
        let exec = Executor::new(4);
        let items: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.map(&items, |&x| {
                if x == 13 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(caught.is_err());
        // The team is intact and later maps are exact.
        assert_eq!(exec.map(&items, |&x| x), items);
    }

    #[test]
    fn parse_threads_validates() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 2 "), Ok(2));
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("-3").is_err());
        assert!(parse_threads("abc").is_err());
        assert!(parse_threads("").is_err());
        let msg = parse_threads("zero").unwrap_err().to_string();
        assert!(
            msg.contains("zero") && msg.contains("positive integer"),
            "{msg}"
        );
    }

    #[test]
    fn concurrent_external_maps_do_not_interfere() {
        let exec = Executor::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let exec = exec.clone();
                scope.spawn(move || {
                    let items: Vec<u64> = (0..300).collect();
                    let out = exec.map(&items, |&x| x * t);
                    assert_eq!(out, items.iter().map(|x| x * t).collect::<Vec<_>>());
                });
            }
        });
    }
}
