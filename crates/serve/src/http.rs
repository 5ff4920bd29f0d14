//! The socket layer: server configuration plus the legacy blocking
//! HTTP/1.1 loop.
//!
//! [`Server`] fronts two interchangeable engines over one
//! [`ExtractionService`]:
//!
//! * the **event-driven reactor** (default, `crate::reactor`): one
//!   `poll(2)` thread multiplexing every connection with keep-alive,
//!   pipelining and backpressure;
//! * the **blocking loop** (below, [`Server::blocking`]): a fixed team
//!   of connection-per-worker threads, one request per connection,
//!   `Connection: close` — kept as the differential oracle the reactor
//!   is byte-compared against over real sockets.
//!
//! Both engines frame requests and responses through `crate::proto`,
//! so identical requests produce identical wire bytes.

use crate::proto::{encode_response, parse_head, HeadParse, MAX_BODY};
use crate::{respond, Request, Response};
use aw_core::ExtractionService;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-read/-write socket timeout in the blocking loop: a fully
/// stalled client errors out of the next I/O call.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Default wall-clock cap on one request's read phase (both engines): a
/// *trickling* client (one byte every few seconds keeps each read under
/// [`IO_TIMEOUT`]) is cut off with a 408 instead of pinning a worker or
/// a reactor slot indefinitely.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);
/// Default keep-alive idle timeout (reactor): a connection with no
/// request in progress is closed after this long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Default cap on simultaneously open reactor connections (accept
/// backpressure: at the cap the listener is simply not polled, so new
/// connections wait in the kernel backlog instead of growing our state).
const MAX_CONNECTIONS: usize = 1024;
/// Default bound on dispatched-but-unanswered requests (inflight
/// backpressure: past it the reactor answers 503 + `Retry-After`
/// immediately instead of queuing without bound).
const QUEUE_DEPTH: usize = 256;
/// Accept-poll interval while idle (the listener is non-blocking so
/// blocking-mode workers can observe shutdown).
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// A configured-but-not-yet-running HTTP front end over an
/// [`ExtractionService`].
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) service: Arc<ExtractionService>,
    pub(crate) workers: usize,
    pub(crate) blocking: bool,
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
            blocking: cfg!(not(unix)),
            max_connections: MAX_CONNECTIONS,
            queue_depth: QUEUE_DEPTH,
            idle_timeout: IDLE_TIMEOUT,
            read_deadline: REQUEST_DEADLINE,
        })
    }

    /// Sets the worker count (clamped to ≥ 1). Reactor mode: the
    /// service threads draining the dispatch queue. Blocking mode: the
    /// connection workers, each owning one connection at a time. Either
    /// way, extraction inside a request still runs on the shared
    /// executor, whatever this count is.
    pub fn workers(mut self, workers: usize) -> Server {
        self.workers = workers.max(1);
        self
    }

    /// Selects the legacy blocking connection-per-worker loop instead
    /// of the event-driven reactor (`awrap serve --blocking`) — the
    /// differential oracle: same router, same framing code, so
    /// responses are byte-identical; only concurrency and connection
    /// reuse differ. Non-Unix builds always use the blocking loop (the
    /// reactor needs `poll(2)`).
    pub fn blocking(mut self, blocking: bool) -> Server {
        self.blocking = blocking || cfg!(not(unix));
        self
    }

    /// Caps simultaneously open reactor connections (≥ 1). At the cap
    /// the listener is not polled: new connections queue in the kernel
    /// accept backlog until a slot frees, instead of growing per-server
    /// state without bound.
    pub fn max_connections(mut self, max_connections: usize) -> Server {
        self.max_connections = max_connections.max(1);
        self
    }

    /// Bounds dispatched-but-unanswered requests in reactor mode. Past
    /// the bound, requests are answered `503` + `Retry-After: 1`
    /// immediately (`GET /healthz` bypasses the queue and still
    /// answers). `0` is allowed — it sheds every dispatched request,
    /// which is how the backpressure tests drive the path
    /// deterministically.
    pub fn queue_depth(mut self, queue_depth: usize) -> Server {
        self.queue_depth = queue_depth;
        self
    }

    /// Reactor keep-alive idle timeout: a connection with no request in
    /// progress closes quietly after this long.
    pub fn idle_timeout(mut self, idle_timeout: Duration) -> Server {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Wall-clock cap on one request's read phase (both engines). When
    /// it fires mid-request the client gets `408 Request Timeout`, not
    /// a silent drop.
    pub fn read_deadline(mut self, read_deadline: Duration) -> Server {
        self.read_deadline = read_deadline;
        self
    }

    /// The bound address — read the actual port here after binding `:0`.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawns the serving threads and returns the running server's
    /// handle: the reactor plus its service workers by default, the
    /// blocking connection-worker team under [`Server::blocking`].
    pub fn start(self) -> std::io::Result<ServerHandle> {
        #[cfg(unix)]
        if !self.blocking {
            return crate::reactor::start(self);
        }
        self.start_blocking()
    }

    fn start_blocking(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let read_deadline = self.read_deadline;
        let mut threads = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let spawned = self.listener.try_clone().and_then(|listener| {
                let service = Arc::clone(&self.service);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("aw-serve-{i}"))
                    .spawn(move || worker_loop(listener, service, stop, read_deadline))
            });
            match spawned {
                Ok(handle) => threads.push(handle),
                Err(e) => {
                    // A partial team must not leak: stop and join the
                    // workers already running (each holds a cloned
                    // listener that would otherwise keep the port bound
                    // and keep serving with no handle to stop them).
                    stop.store(true, Ordering::Relaxed);
                    for handle in threads {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(ServerHandle {
            addr,
            stop,
            threads,
            #[cfg(unix)]
            dispatch: None,
        })
    }
}

/// A running server: hold it to keep serving, [`ServerHandle::shutdown`]
/// to stop.
pub struct ServerHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) threads: Vec<JoinHandle<()>>,
    /// Reactor mode only: lets shutdown wake the poll loop and the
    /// parked service workers.
    #[cfg(unix)]
    pub(crate) dispatch: Option<Arc<crate::reactor::Dispatch>>,
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
        #[cfg(unix)]
        if let Some(dispatch) = &self.dispatch {
            dispatch.interrupt();
        }
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

/// One blocking worker's accept loop: poll the shared non-blocking
/// listener, serve each accepted connection to completion.
fn worker_loop(
    listener: TcpListener,
    service: Arc<ExtractionService>,
    stop: Arc<AtomicBool>,
    read_deadline: Duration,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One request per connection; failures (bad framing,
                // disconnects) drop the connection, never the worker —
                // and neither does a panic inside request handling (an
                // evaluation bug must cost one connection, not silently
                // retire an accept loop until the server goes deaf).
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = serve_connection(stream, &service, read_deadline);
                }));
                if result.is_err() {
                    eprintln!("aw-serve: request handler panicked; connection dropped");
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            // Transient accept errors (EMFILE, resets): back off briefly.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    service: &ExtractionService,
    read_deadline: Duration,
) -> std::io::Result<()> {
    // The listener is non-blocking for shutdown polling; on platforms
    // where accepted sockets inherit that flag (macOS/BSD, Windows —
    // not Linux) the stream must be reset to blocking or every read
    // would fail with WouldBlock before the timeouts even apply.
    stream.set_nonblocking(false)?;
    // The response goes out in one write; Nagle would only delay it.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let deadline = Instant::now() + read_deadline;
    let (response, body_maybe_unread) = match read_request(&mut stream, deadline) {
        Ok(request) => {
            let started = Instant::now();
            let response = respond(service, &request);
            // Full-request wall time, same clock points as the reactor:
            // request fully read → response ready to write.
            service.latency().record(started.elapsed());
            (response, false)
        }
        Err(HttpError::Status(status, message)) => (Response::error(status, message), true),
        Err(HttpError::Io(e)) => return Err(e),
    };
    let mut bytes = Vec::new();
    encode_response(&response, false, None, &mut bytes);
    stream.write_all(&bytes)?;
    stream.flush()?;
    if body_maybe_unread {
        // The client may still be uploading the body we refused (413,
        // bad framing). Closing with unread data would send a TCP RST
        // that can discard the queued error response on the client
        // side; signal end-of-response and drain what's in flight so
        // the client actually reads its error.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        drain(&mut stream, deadline);
    }
    Ok(())
}

/// Reads and discards the client's remaining upload (bounded by a byte
/// cap, the socket read timeout and the request deadline) so the error
/// response is not clobbered by a reset.
fn drain(stream: &mut TcpStream, deadline: Instant) {
    let mut chunk = [0u8; 4096];
    let mut budget = MAX_BODY;
    while budget > 0 && Instant::now() < deadline {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// A framing-level failure: either an HTTP error to report to the
/// client, or an I/O error that ends the connection silently.
enum HttpError {
    Status(u16, String),
    Io(std::io::Error),
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

fn bad(status: u16, message: impl Into<String>) -> HttpError {
    HttpError::Status(status, message.into())
}

/// Reads and parses one request through the shared head parser.
/// `deadline` caps the whole read phase in wall-clock time — per-read
/// timeouts alone would let a trickling client (one byte per few
/// seconds) hold the worker indefinitely; firing it is a 408, never a
/// silent drop.
fn read_request(stream: &mut TcpStream, deadline: Instant) -> Result<Request, HttpError> {
    let overdue = || bad(408, "request read deadline exceeded");
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let mut search_from = 0usize;
    // Read until the header block parses (or is rejected).
    let head = loop {
        match parse_head(&buf, search_from) {
            HeadParse::Ready(head) => break head,
            HeadParse::Error(status, message) => return Err(HttpError::Status(status, message)),
            HeadParse::Incomplete { scanned } => {
                search_from = scanned;
                if Instant::now() >= deadline {
                    return Err(overdue());
                }
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(bad(400, "connection closed mid-request"));
                }
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    };

    // The body: whatever followed the head in the buffer, plus the rest.
    let mut body = buf[head.head_len..].to_vec();
    // curl sends `Expect: 100-continue` for bodies over 1 KB and waits
    // up to a second for the interim response before transmitting — a
    // silent per-request stall unless we answer it.
    if head.expects_continue && body.len() < head.content_length {
        stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        stream.flush()?;
    }
    while body.len() < head.content_length {
        if Instant::now() >= deadline {
            return Err(overdue());
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad(400, "connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(head.content_length);
    // The body stays raw bytes: `POST /wrappers` accepts v3 binary
    // bundles, and the JSON endpoints validate UTF-8 in the router.
    Ok(Request {
        method: head.method,
        path: head.path,
        body,
    })
}
