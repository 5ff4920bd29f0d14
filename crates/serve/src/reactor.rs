//! `aw-reactor`: the event-driven serving engine.
//!
//! One reactor thread multiplexes every connection over `poll(2)`
//! (declared directly against the platform C library — the build has no
//! crates.io access, and `std` already links libc), driving
//! per-connection state machines: read buffer → parse (`crate::proto`)
//! → route → write buffer. The protocol is HTTP/1.1 with **keep-alive
//! and pipelining**: a connection serves any number of requests,
//! responses always in request order.
//!
//! ## Executor handoff and the wake pipe
//!
//! Extraction is CPU work and [`crate::respond`] blocks on the shared
//! `aw_pool::Executor`, so the reactor never calls it inline (except
//! `GET /healthz`, see below). A parsed request becomes a job on a
//! **bounded dispatch queue** drained by a small team of service
//! workers; each worker routes the request (extraction still lands on
//! the shared executor) and pushes the finished response onto a
//! completion queue, then writes one byte into the reactor's **wake
//! pipe** (a non-blocking `UnixStream` pair) so the `poll` call returns
//! immediately and the response bytes are queued on the right
//! connection. At most one request per connection is in flight —
//! pipelined successors wait in the read buffer, which is what makes
//! in-order responses structural rather than scheduled.
//!
//! ## Backpressure and deadlines
//!
//! Two bounds, two behaviors:
//!
//! * **Inflight bound** (`Server::queue_depth`): a request that finds
//!   the dispatch queue full is answered `503` + `Retry-After: 1`
//!   immediately — shed, not queued. `GET /healthz` bypasses the queue
//!   entirely (it is one atomic snapshot read), so load balancers still
//!   get liveness answers from a saturated server.
//! * **Accept bound** (`Server::max_connections`): at the cap the
//!   listener drops out of the poll set; new connections wait in the
//!   kernel backlog instead of growing reactor state.
//!
//! Per-connection deadlines defend against slowloris clients: a
//! *started* request must finish arriving within
//! `Server::read_deadline` (firing it answers `408 Request Timeout` —
//! headers parsed or not, never a silent drop), and a connection
//! sitting idle between requests closes quietly after
//! `Server::idle_timeout`.
//!
//! Every served request records its wall time (request fully parsed →
//! response queued) into the service's
//! [`aw_core::LatencyHistogram`], surfaced as the `latency` object of
//! `GET /wrappers` and the bench report's `service.latency_*` fields.

use crate::proto::{encode_response, parse_head, HeadInfo, HeadParse, MAX_HEAD};
use crate::{respond, Request, Response};
use aw_core::ExtractionService;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// poll(2), dependency-free: `std` links the platform C library already,
// so the one symbol the reactor needs can be declared directly.

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

// Identical values across Linux and the BSDs (incl. macOS).
const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[cfg(target_os = "macos")]
type Nfds = std::ffi::c_uint;
#[cfg(not(target_os = "macos"))]
type Nfds = std::ffi::c_ulong;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Blocks until an fd is ready or `timeout` passes. Errors (EINTR
/// included) report as "nothing ready": the loop re-derives all state
/// from scratch each round, so a spurious empty wakeup is always safe.
fn poll_ready(fds: &mut [PollFd], timeout: Duration) -> bool {
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    n > 0
}

// ---------------------------------------------------------------------
// Dispatch: the bounded job queue between the reactor and its workers.

/// How long a connection being closed for a protocol error keeps
/// draining the client's in-flight upload (so the queued error response
/// is not clobbered by a TCP reset), at most.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Upper bound on one poll round's timeout — keeps the stop flag
/// observed promptly even if a wake byte is ever lost.
const MAX_POLL_TIMEOUT: Duration = Duration::from_millis(500);

struct Job {
    slot: usize,
    generation: u64,
    request: Request,
    started: Instant,
}

struct Completion {
    slot: usize,
    generation: u64,
    response: Response,
    started: Instant,
    /// The handler panicked: the response is a synthesized 500 and the
    /// connection closes after it (its state is no longer trusted).
    panicked: bool,
}

/// Shared reactor/worker state. `pub(crate)` so [`crate::ServerHandle`]
/// can hold it for shutdown wakeups.
pub(crate) struct Dispatch {
    queue: Mutex<VecDeque<Job>>,
    queue_depth: usize,
    ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    stop: Arc<AtomicBool>,
    /// Write half of the wake pipe (workers + shutdown). Non-blocking:
    /// a full pipe means wakeups are already pending, so a dropped
    /// byte is harmless.
    wake_tx: Mutex<UnixStream>,
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Dispatch {
    /// Queues a job unless the inflight bound is hit.
    fn try_enqueue(&self, job: Job) -> Result<(), ()> {
        {
            let mut queue = lock(&self.queue);
            if queue.len() >= self.queue_depth {
                return Err(());
            }
            queue.push_back(job);
        }
        self.ready.notify_one();
        Ok(())
    }

    /// Hands a finished response back and wakes the reactor.
    fn complete(&self, completion: Completion) {
        lock(&self.completions).push(completion);
        let _ = lock(&self.wake_tx).write(&[1]);
    }

    /// Wakes both the reactor (wake pipe) and any parked workers
    /// (condvar) so they observe the stop flag — the shutdown path.
    pub(crate) fn interrupt(&self) {
        self.ready.notify_all();
        let _ = lock(&self.wake_tx).write(&[1]);
    }
}

/// One service worker: drain the dispatch queue, route each request
/// (extraction runs on the shared executor inside `respond`), hand the
/// response back through the completion queue + wake pipe.
fn worker_loop(dispatch: Arc<Dispatch>, service: Arc<ExtractionService>) {
    loop {
        let job = {
            let mut queue = lock(&dispatch.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if dispatch.stop.load(Ordering::Relaxed) {
                    return;
                }
                queue = dispatch
                    .ready
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            respond(&service, &job.request)
        }));
        let (response, panicked) = match outcome {
            Ok(response) => (response, false),
            Err(_) => {
                eprintln!("aw-serve: request handler panicked; connection dropped");
                (Response::error(500, "request handler panicked"), true)
            }
        };
        dispatch.complete(Completion {
            slot: job.slot,
            generation: job.generation,
            response,
            started: job.started,
            panicked,
        });
    }
}

// ---------------------------------------------------------------------
// Per-connection state machine.

/// Why the state machine stopped consuming its read buffer.
enum ParsePhase {
    /// Waiting for (more of) a request.
    Reading,
    /// A request is dispatched; successors wait in the buffer.
    Inflight,
    /// A response with close semantics is queued; no more parsing.
    Closing,
}

struct Conn {
    stream: TcpStream,
    generation: u64,
    /// Bytes received but not yet consumed by a parsed request.
    buf: Vec<u8>,
    /// Resume point for the `\r\n\r\n` scan (avoids O(n²) rescans).
    scanned: usize,
    /// The current request's parsed head, while its body accumulates.
    head: Option<HeadInfo>,
    sent_continue: bool,
    /// When the first byte of the pending request arrived — arms the
    /// read deadline; `None` between requests (idle timeout instead).
    request_started: Option<Instant>,
    /// Set while a request is dispatched: whether its response may keep
    /// the connection alive.
    inflight_keep_alive: Option<bool>,
    /// Last time this connection finished a request (or was accepted).
    idle_since: Instant,
    out: Vec<u8>,
    out_pos: usize,
    close_after_flush: bool,
    /// Write side shut, discarding the client's tail so the error
    /// response survives instead of being clobbered by a TCP reset.
    draining: bool,
    drain_deadline: Instant,
    peer_closed: bool,
    /// Terminal: swept from the slab at the end of the poll round.
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64, now: Instant) -> Conn {
        Conn {
            stream,
            generation,
            buf: Vec::new(),
            scanned: 0,
            head: None,
            sent_continue: false,
            request_started: None,
            inflight_keep_alive: None,
            idle_since: now,
            out: Vec::new(),
            out_pos: 0,
            close_after_flush: false,
            draining: false,
            drain_deadline: now,
            peer_closed: false,
            closed: false,
        }
    }

    fn inflight(&self) -> bool {
        self.inflight_keep_alive.is_some()
    }

    /// The next moment this connection needs attention with no I/O at
    /// all; `None` while a response is being computed (the executor is
    /// bounded work, not client-controlled).
    fn deadline(&self, idle_timeout: Duration, read_deadline: Duration) -> Option<Instant> {
        if self.closed {
            return None;
        }
        if self.draining {
            return Some(self.drain_deadline);
        }
        if self.inflight() {
            return None;
        }
        match self.request_started {
            Some(started) => Some(started + read_deadline),
            None => Some(self.idle_since + idle_timeout),
        }
    }
}

// ---------------------------------------------------------------------
// The reactor proper.

/// Spawns the reactor thread and its service workers for a configured
/// [`crate::Server`] (the whole of `Server::start`).
pub(crate) fn start(server: crate::Server) -> std::io::Result<crate::ServerHandle> {
    let crate::Server {
        listener,
        service,
        workers,
        max_connections,
        queue_depth,
        idle_timeout,
        read_deadline,
    } = server;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let dispatch = Arc::new(Dispatch {
        queue: Mutex::new(VecDeque::new()),
        queue_depth,
        ready: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        stop: Arc::clone(&stop),
        wake_tx: Mutex::new(wake_tx),
    });

    let mut threads = Vec::with_capacity(workers + 1);
    let spawn_all = |threads: &mut Vec<std::thread::JoinHandle<()>>| -> std::io::Result<()> {
        {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let dispatch = Arc::clone(&dispatch);
            threads.push(
                std::thread::Builder::new()
                    .name("aw-reactor".into())
                    .spawn(move || {
                        Reactor {
                            listener,
                            service,
                            stop,
                            dispatch,
                            wake_rx,
                            max_connections,
                            idle_timeout,
                            read_deadline,
                            slab: Vec::new(),
                            next_generation: 0,
                        }
                        .run()
                    })?,
            );
        }
        for i in 0..workers {
            let service = Arc::clone(&service);
            let dispatch = Arc::clone(&dispatch);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("aw-serve-{i}"))
                    .spawn(move || worker_loop(dispatch, service))?,
            );
        }
        Ok(())
    };
    if let Err(e) = spawn_all(&mut threads) {
        // A partial team must not leak: stop and join whatever spawned.
        stop.store(true, Ordering::Relaxed);
        dispatch.interrupt();
        for handle in threads {
            let _ = handle.join();
        }
        return Err(e);
    }
    Ok(crate::ServerHandle {
        addr,
        stop,
        threads,
        dispatch,
    })
}

struct Reactor {
    listener: TcpListener,
    service: Arc<ExtractionService>,
    stop: Arc<AtomicBool>,
    dispatch: Arc<Dispatch>,
    wake_rx: UnixStream,
    max_connections: usize,
    idle_timeout: Duration,
    read_deadline: Duration,
    slab: Vec<Option<Conn>>,
    next_generation: u64,
}

impl Reactor {
    fn run(mut self) {
        while !self.stop.load(Ordering::Relaxed) {
            // Assemble this round's poll set. fds[0] is the wake pipe,
            // fds[1] the listener (present only under the accept cap);
            // the map ties remaining entries back to slab slots.
            let live = self.slab.iter().flatten().count();
            let accepting = live < self.max_connections;
            let mut fds: Vec<PollFd> = Vec::with_capacity(live + 2);
            let mut slots: Vec<usize> = Vec::with_capacity(live);
            fds.push(PollFd {
                fd: self.wake_rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            if accepting {
                fds.push(PollFd {
                    fd: self.listener.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
            }
            let mut next_deadline: Option<Instant> = None;
            for (slot, conn) in self.slab.iter().enumerate() {
                let Some(conn) = conn else { continue };
                if let Some(deadline) = conn.deadline(self.idle_timeout, self.read_deadline) {
                    next_deadline =
                        Some(next_deadline.map_or(deadline, |d: Instant| d.min(deadline)));
                }
                let mut events = 0i16;
                if conn.out_pos < conn.out.len() {
                    events |= POLLOUT;
                } else if conn.inflight() {
                    // Response being computed, nothing to write yet:
                    // leave the fd out of the set (pipelined bytes wait
                    // in the kernel buffer — itself backpressure).
                    continue;
                }
                if !conn.peer_closed && !conn.inflight() {
                    events |= POLLIN;
                }
                if events == 0 {
                    continue;
                }
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                slots.push(slot);
            }

            let now = Instant::now();
            let timeout = next_deadline
                .map(|deadline| deadline.saturating_duration_since(now))
                .map_or(MAX_POLL_TIMEOUT, |until| until.min(MAX_POLL_TIMEOUT));
            poll_ready(&mut fds, timeout);
            if self.stop.load(Ordering::Relaxed) {
                break;
            }

            // Wake pipe: drain it, then collect completions.
            if fds[0].revents != 0 {
                let mut sink = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }
            let completions = std::mem::take(&mut *lock(&self.dispatch.completions));
            for completion in completions {
                self.on_completion(completion);
            }

            // New connections.
            if accepting && fds[1].revents != 0 {
                self.accept_ready();
            }

            // Connection I/O.
            let first_conn = if accepting { 2 } else { 1 };
            for (i, fd) in fds.iter().enumerate().skip(first_conn) {
                let slot = slots[i - first_conn];
                if fd.revents == 0 {
                    continue;
                }
                if fd.revents & (POLLERR | POLLNVAL) != 0 {
                    self.close(slot);
                    continue;
                }
                if fd.revents & (POLLIN | POLLHUP) != 0 {
                    self.readable(slot);
                }
                if fd.revents & POLLOUT != 0 {
                    self.writable(slot);
                }
            }

            // Deadlines.
            let now = Instant::now();
            for slot in 0..self.slab.len() {
                let Some(conn) = &self.slab[slot] else {
                    continue;
                };
                let due = conn
                    .deadline(self.idle_timeout, self.read_deadline)
                    .is_some_and(|deadline| deadline <= now);
                if due {
                    self.deadline_fired(slot);
                }
            }

            // Sweep closed slots.
            for conn in &mut self.slab {
                if conn.as_ref().is_some_and(|c| c.closed) {
                    *conn = None;
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            if self.slab.iter().flatten().count() >= self.max_connections {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Each reply is written as one buffer, so Nagle only
                    // holds its tail back until the client's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    self.next_generation += 1;
                    let conn = Conn::new(stream, self.next_generation, Instant::now());
                    let slot = self.slab.iter().position(Option::is_none);
                    match slot {
                        Some(slot) => self.slab[slot] = Some(conn),
                        None => self.slab.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // Transient accept errors (EMFILE, resets): next round.
                Err(_) => return,
            }
        }
    }

    fn conn(&mut self, slot: usize) -> Option<&mut Conn> {
        self.slab.get_mut(slot).and_then(Option::as_mut)
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conn(slot) {
            conn.closed = true;
        }
    }

    /// Appends an encoded response (recording its latency) and decides
    /// the connection's fate; then tries to flush opportunistically.
    fn queue_response(
        &mut self,
        slot: usize,
        response: &Response,
        keep_alive: bool,
        retry_after: Option<u32>,
        started: Instant,
    ) {
        self.service.latency().record(started.elapsed());
        let Some(conn) = self.conn(slot) else { return };
        encode_response(response, keep_alive, retry_after, &mut conn.out);
        if !keep_alive {
            conn.close_after_flush = true;
        }
        conn.idle_since = Instant::now();
    }

    /// Runs the parse-route step over a connection's read buffer until
    /// it needs more bytes, dispatches a request, or decides to close
    /// (consecutive fully-buffered requests are consumed inside
    /// [`Reactor::step_after_response`]).
    fn process_buffer(&mut self, slot: usize) {
        let _ = self.parse_step(slot);
    }

    /// One parse attempt. Returns what the connection is now waiting
    /// on; loops happen via [`Reactor::step_after_response`].
    fn parse_step(&mut self, slot: usize) -> ParsePhase {
        let Some(conn) = self.conn(slot) else {
            return ParsePhase::Closing;
        };
        if conn.closed || conn.draining || conn.close_after_flush || conn.inflight() {
            return if conn.inflight() {
                ParsePhase::Inflight
            } else {
                ParsePhase::Closing
            };
        }
        if conn.head.is_none() {
            if conn.buf.is_empty() {
                conn.request_started = None;
                return ParsePhase::Reading;
            }
            if conn.request_started.is_none() {
                conn.request_started = Some(Instant::now());
            }
            match parse_head(&conn.buf, conn.scanned) {
                HeadParse::Incomplete { scanned } => {
                    conn.scanned = scanned;
                    return ParsePhase::Reading;
                }
                HeadParse::Error(status, message) => {
                    let started = Instant::now();
                    let response = Response::error(status, message);
                    self.queue_response(slot, &response, false, None, started);
                    return ParsePhase::Closing;
                }
                HeadParse::Ready(head) => {
                    conn.scanned = 0;
                    conn.head = Some(head);
                }
            }
        }
        let Some(conn) = self.conn(slot) else {
            return ParsePhase::Closing;
        };
        let head = conn.head.as_ref().expect("head parsed above");
        let total = head.head_len + head.content_length;
        if conn.buf.len() < total {
            if head.expects_continue && !conn.sent_continue {
                // The interim response curl waits on before uploading.
                conn.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                conn.sent_continue = true;
                self.writable(slot);
            }
            return ParsePhase::Reading;
        }

        // A complete request: take it off the buffer and route it.
        let head = conn.head.take().expect("head parsed above");
        let body = conn.buf[head.head_len..total].to_vec();
        conn.buf.drain(..total);
        conn.scanned = 0;
        conn.sent_continue = false;
        conn.request_started = None;
        let generation = conn.generation;
        let keep_alive = head.keep_alive;
        let started = Instant::now();
        let request = Request {
            method: head.method,
            path: head.path,
            body,
        };

        if request.method == "GET" && request.path == "/healthz" {
            // Answered inline on the reactor: one allocation-light
            // snapshot read, and it must work even when the dispatch
            // queue is saturated — overload may not blind the balancer.
            let response = respond(&self.service, &request);
            self.queue_response(slot, &response, keep_alive, None, started);
            return self.step_after_response(slot);
        }

        let job = Job {
            slot,
            generation,
            request,
            started,
        };
        if self.dispatch.try_enqueue(job).is_ok() {
            if let Some(conn) = self.conn(slot) {
                conn.inflight_keep_alive = Some(keep_alive);
            }
            ParsePhase::Inflight
        } else {
            // Inflight bound hit: shed with an explicit retry hint
            // instead of queuing without bound.
            let response = Response::error(503, "server overloaded, retry shortly");
            self.queue_response(slot, &response, keep_alive, Some(1), started);
            self.step_after_response(slot)
        }
    }

    /// After queueing a response: flush what fits, then continue with
    /// any pipelined successor already in the buffer.
    fn step_after_response(&mut self, slot: usize) -> ParsePhase {
        self.writable(slot);
        match self.conn(slot) {
            Some(conn) if !conn.closed && !conn.close_after_flush && !conn.draining => {
                self.parse_step(slot)
            }
            _ => ParsePhase::Closing,
        }
    }

    fn on_completion(&mut self, completion: Completion) {
        let Completion {
            slot,
            generation,
            response,
            started,
            panicked,
        } = completion;
        let Some(conn) = self.conn(slot) else { return };
        if conn.generation != generation || conn.closed {
            // The connection died while its request was in flight.
            return;
        }
        let keep_alive = conn.inflight_keep_alive.take().unwrap_or(false) && !panicked;
        let keep_alive = keep_alive && !conn.peer_closed;
        self.queue_response(slot, &response, keep_alive, None, started);
        let _ = self.step_after_response(slot);
    }

    fn readable(&mut self, slot: usize) {
        let mut chunk = [0u8; 16 * 1024];
        // Bounded rounds per event so one firehose connection cannot
        // starve the rest of the poll set.
        for _ in 0..8 {
            let Some(conn) = self.conn(slot) else { return };
            if conn.closed {
                return;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    self.peer_closed(slot);
                    return;
                }
                Ok(n) => {
                    if conn.draining {
                        continue; // discarding the refused tail
                    }
                    // Cap the buffered bytes: head cap while parsing
                    // headers (proto enforces it), plus never buffer
                    // more than one request + a head beyond it.
                    conn.buf.extend_from_slice(&chunk[..n]);
                    self.process_buffer(slot);
                    let Some(conn) = self.conn(slot) else { return };
                    if conn.inflight() && conn.buf.len() > MAX_HEAD {
                        // Pipelining flood while busy: stop reading
                        // (POLLIN is off while inflight anyway).
                        return;
                    }
                    if n < chunk.len() {
                        return; // likely drained the socket
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
    }

    /// The peer's write side closed. Mid-request that is a framing
    /// error answered `400`; idle it is just a closed connection.
    fn peer_closed(&mut self, slot: usize) {
        let Some(conn) = self.conn(slot) else { return };
        if conn.draining {
            conn.closed = true;
            return;
        }
        if conn.inflight() {
            // The response is still coming; it will fail to write and
            // close then. Nothing to parse anymore.
            return;
        }
        if conn.close_after_flush {
            // Already finishing; let the flush path close.
            return;
        }
        if conn.buf.is_empty() && conn.head.is_none() {
            // Clean close between requests.
            if conn.out_pos >= conn.out.len() {
                conn.closed = true;
            }
            return;
        }
        let message = if conn.head.is_some() {
            "connection closed mid-body"
        } else {
            "connection closed mid-request"
        };
        let started = Instant::now();
        let response = Response::error(400, message);
        self.queue_response(slot, &response, false, None, started);
        self.writable(slot);
    }

    fn writable(&mut self, slot: usize) {
        let Some(conn) = self.conn(slot) else { return };
        if conn.closed {
            return;
        }
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    conn.closed = true;
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.closed = true;
                    return;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        if conn.close_after_flush && !conn.draining {
            if conn.peer_closed {
                conn.closed = true;
                return;
            }
            // End our side, then discard the client's remaining upload
            // so the error response is read, not clobbered by a reset.
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.draining = true;
            conn.drain_deadline = Instant::now() + DRAIN_TIMEOUT;
        }
    }

    fn deadline_fired(&mut self, slot: usize) {
        let Some(conn) = self.conn(slot) else { return };
        if conn.draining {
            conn.closed = true;
            return;
        }
        if conn.request_started.is_some() {
            // A request is mid-arrival: 408, headers parsed or not —
            // an explicit timeout, never a silent drop (the slowloris
            // defense stays observable to the client).
            let started = Instant::now();
            let response = Response::error(408, "request read deadline exceeded");
            self.queue_response(slot, &response, false, None, started);
            self.writable(slot);
        } else {
            // Idle keep-alive connection: quiet close.
            conn.closed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    //! The reactor's byte-identity oracle. Every reply the reactor sends
    //! over a real socket must equal, byte for byte, what the socket-free
    //! layers compute in-process on an identically built service:
    //! `parse_head` → `respond` → `encode_response`, with a framing error
    //! becoming `Response::error`. The only tolerated divergence is the
    //! wall-clock part of `GET /wrappers` (`latency`, `parse.micros`),
    //! normalized through a JSON parse before comparison.

    use super::*;
    use crate::test_support::{framed, raw_roundtrip, service_in, wrapper_in, PAGE};
    use crate::Server;
    use aw_core::{WrapperBundle, WrapperLanguage};

    /// The request sequence the differential test replays: every
    /// endpoint, the error surfaces, and raw protocol violations. Order
    /// matters — requests mutate health counters and the registry, and
    /// the served and the in-process service must walk the same state
    /// trajectory.
    fn request_sequence() -> Vec<(&'static str, Vec<u8>)> {
        let extract_one = format!(r#"{{"site":"dealers","html":"{PAGE}"}}"#);
        let extract_many = format!(r#"{{"site":"dealers","pages":["{PAGE}","<p>none</p>",""]}}"#);
        let swap_bundle = {
            let mut bundle = WrapperBundle::new();
            bundle.insert("swapped", wrapper_in(WrapperLanguage::XPath));
            bundle.to_json()
        };
        vec![
            ("healthz", framed("GET", "/healthz", "")),
            ("extract one", framed("POST", "/extract", &extract_one)),
            ("extract many", framed("POST", "/extract", &extract_many)),
            ("site health", framed("GET", "/health/dealers", "")),
            ("all health", framed("GET", "/health", "")),
            ("wrappers", framed("GET", "/wrappers", "")),
            (
                "unknown site",
                framed("POST", "/extract", r#"{"site":"zz","html":"x"}"#),
            ),
            ("unknown path", framed("GET", "/nope", "")),
            ("bad method", framed("DELETE", "/extract", "")),
            ("bad body", framed("POST", "/extract", "garbage")),
            ("hot swap", framed("POST", "/wrappers", &swap_bundle)),
            ("post-swap extract", framed("POST", "/extract", &extract_one)),
            ("post-swap wrappers", framed("GET", "/wrappers", "")),
            ("malformed line", b"BOGUS\r\n\r\n".to_vec()),
            (
                "chunked refused",
                b"POST /extract HTTP/1.1\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
                    .to_vec(),
            ),
            (
                "oversized declared body",
                b"POST /wrappers HTTP/1.1\r\nContent-Length: 104857600\r\nConnection: close\r\n\r\nxxxx"
                    .to_vec(),
            ),
        ]
    }

    /// The reply `raw` (one whole `Connection: close` request, or a
    /// framing violation) must get, computed without a socket.
    fn expected_reply(service: &ExtractionService, raw: &[u8]) -> Vec<u8> {
        let response = match parse_head(raw, 0) {
            HeadParse::Ready(head) => {
                let body = raw[head.head_len..head.head_len + head.content_length].to_vec();
                let request = Request {
                    method: head.method,
                    path: head.path,
                    body,
                };
                respond(service, &request)
            }
            HeadParse::Error(status, message) => Response::error(status, message),
            HeadParse::Incomplete { .. } => panic!("sequence requests are complete"),
        };
        let mut bytes = Vec::new();
        encode_response(&response, false, None, &mut bytes);
        bytes
    }

    /// Strips the timing-dependent `latency` object (and the wall-clock
    /// `parse.micros` counter) out of a `/wrappers` reply so the
    /// remaining bytes admit exact comparison.
    fn normalize_wrappers(reply: &[u8]) -> String {
        let text = String::from_utf8(reply.to_vec()).expect("wrappers reply is UTF-8");
        let (head, body) = text.split_once("\r\n\r\n").expect("framed reply");
        let mut v = serde_json::from_str(body).expect("wrappers body is JSON");
        if let serde::Value::Object(entries) = &mut v {
            let position = entries
                .iter()
                .position(|(key, _)| key == "latency")
                .unwrap_or_else(|| panic!("wrappers reply lost its latency object: {body}"));
            entries.remove(position);
            let parse = entries
                .iter_mut()
                .find(|(key, _)| key == "parse")
                .unwrap_or_else(|| panic!("wrappers reply lost its parse object: {body}"));
            if let serde::Value::Object(fields) = &mut parse.1 {
                let micros = fields
                    .iter_mut()
                    .find(|(key, _)| key == "micros")
                    .unwrap_or_else(|| panic!("parse object lost its micros field: {body}"));
                micros.1 = serde::Value::Number(0.0);
            }
        }
        // The Content-Length header covers the unnormalized body; drop it.
        let head: Vec<&str> = head
            .split("\r\n")
            .filter(|line| !line.to_ascii_lowercase().starts_with("content-length"))
            .collect();
        format!(
            "{}\n{}",
            head.join("\n"),
            serde_json::to_string(&v).unwrap()
        )
    }

    #[test]
    fn reactor_is_byte_identical_to_the_in_process_framing_oracle() {
        for language in WrapperLanguage::ALL {
            for workers in [1usize, 3] {
                let reactor = Server::bind(service_in(language), "127.0.0.1:0")
                    .expect("bind reactor")
                    .workers(workers)
                    .start()
                    .expect("start reactor");
                let oracle = service_in(language);
                for (label, request) in request_sequence() {
                    let served = raw_roundtrip(&reactor.addr(), &request);
                    let expected = expected_reply(&oracle, &request);
                    if label.contains("wrappers") && request.starts_with(b"GET") {
                        assert_eq!(
                            normalize_wrappers(&served),
                            normalize_wrappers(&expected),
                            "{language:?}/{workers} workers: {label} diverged"
                        );
                    } else {
                        assert_eq!(
                            String::from_utf8_lossy(&served),
                            String::from_utf8_lossy(&expected),
                            "{language:?}/{workers} workers: {label} diverged"
                        );
                    }
                }
                reactor.shutdown();
            }
        }
    }
}
