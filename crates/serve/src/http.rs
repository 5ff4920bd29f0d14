//! The socket layer's configuration: [`Server`] binds a listener and
//! collects the reactor's knobs, [`ServerHandle`] stops and joins the
//! running threads.
//!
//! The one engine behind them is the event-driven reactor
//! (`crate::reactor`): one `poll(2)` thread multiplexing every
//! connection with keep-alive, pipelining and backpressure, framing
//! requests and responses through `crate::proto`.

use aw_core::ExtractionService;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default wall-clock cap on one request's read phase: a *trickling*
/// client (one byte every few seconds) is cut off with a 408 instead of
/// pinning a reactor slot indefinitely.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);
/// Default keep-alive idle timeout: a connection with no request in
/// progress is closed after this long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Default cap on simultaneously open connections (accept backpressure:
/// at the cap the listener is simply not polled, so new connections wait
/// in the kernel backlog instead of growing our state).
const MAX_CONNECTIONS: usize = 1024;
/// Default bound on dispatched-but-unanswered requests (inflight
/// backpressure: past it the reactor answers 503 + `Retry-After`
/// immediately instead of queuing without bound).
const QUEUE_DEPTH: usize = 256;

/// A configured-but-not-yet-running HTTP front end over an
/// [`ExtractionService`].
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) service: Arc<ExtractionService>,
    pub(crate) workers: usize,
    pub(crate) max_connections: usize,
    pub(crate) queue_depth: usize,
    pub(crate) idle_timeout: Duration,
    pub(crate) read_deadline: Duration,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port). The
    /// default worker count matches the service executor's thread count.
    pub fn bind(service: Arc<ExtractionService>, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let workers = service.executor().threads();
        Ok(Server {
            listener,
            service,
            workers,
            max_connections: MAX_CONNECTIONS,
            queue_depth: QUEUE_DEPTH,
            idle_timeout: IDLE_TIMEOUT,
            read_deadline: REQUEST_DEADLINE,
        })
    }

    /// Sets the worker count (clamped to ≥ 1): the service threads
    /// draining the reactor's dispatch queue. Extraction inside a
    /// request still runs on the shared executor, whatever this count
    /// is.
    pub fn workers(mut self, workers: usize) -> Server {
        self.workers = workers.max(1);
        self
    }

    /// Caps simultaneously open connections (≥ 1). At the cap the
    /// listener is not polled: new connections queue in the kernel
    /// accept backlog until a slot frees, instead of growing per-server
    /// state without bound.
    pub fn max_connections(mut self, max_connections: usize) -> Server {
        self.max_connections = max_connections.max(1);
        self
    }

    /// Bounds dispatched-but-unanswered requests. Past the bound,
    /// requests are answered `503` + `Retry-After: 1` immediately
    /// (`GET /healthz` bypasses the queue and still answers). `0` is
    /// allowed — it sheds every dispatched request, which is how the
    /// backpressure tests drive the path deterministically.
    pub fn queue_depth(mut self, queue_depth: usize) -> Server {
        self.queue_depth = queue_depth;
        self
    }

    /// Keep-alive idle timeout: a connection with no request in
    /// progress closes quietly after this long.
    pub fn idle_timeout(mut self, idle_timeout: Duration) -> Server {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Wall-clock cap on one request's read phase, headers and body
    /// together. When it fires mid-request the client gets `408 Request
    /// Timeout`, not a silent drop.
    pub fn read_deadline(mut self, read_deadline: Duration) -> Server {
        self.read_deadline = read_deadline;
        self
    }

    /// The bound address — read the actual port here after binding `:0`.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawns the reactor thread and its service workers and returns
    /// the running server's handle.
    pub fn start(self) -> std::io::Result<ServerHandle> {
        crate::reactor::start(self)
    }
}

/// A running server: hold it to keep serving, [`ServerHandle::shutdown`]
/// to stop.
pub struct ServerHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) threads: Vec<JoinHandle<()>>,
    /// Lets shutdown wake the poll loop and the parked service workers.
    pub(crate) dispatch: Arc<crate::reactor::Dispatch>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals every thread to stop and waits for them to finish their
    /// in-flight work.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.dispatch.interrupt();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }

    /// Blocks until the serving threads exit (they only exit on
    /// shutdown, so this is "serve forever" for a CLI process).
    pub fn join(mut self) {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}
