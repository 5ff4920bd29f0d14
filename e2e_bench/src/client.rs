//! The load generator: one thread, two keep-alive loopback connections,
//! nonblocking sockets multiplexed with `ppoll(2)`.
//!
//! * **Closed loop** — each connection sends its next request when the
//!   previous reply arrives, so a slower server receives less load.
//! * **Open loop** — requests are due on a fixed schedule whatever the
//!   server does; they are queued round-robin on the two connections
//!   (HTTP/1.1 pipelining) and each latency runs from the request's *due*
//!   time, so a stall also charges the requests that queued behind it.
//!
//! Every reply is checked byte-for-byte against the expected body.

use crate::stats::Sample;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

const POLLIN: std::ffi::c_short = 0x001;
const POLLOUT: std::ffi::c_short = 0x004;

/// `IPPROTO_TCP` / `TCP_QUICKACK` on Linux.
const IPPROTO_TCP: std::ffi::c_int = 6;
const TCP_QUICKACK: std::ffi::c_int = 12;

extern "C" {
    fn setsockopt(
        fd: std::ffi::c_int,
        level: std::ffi::c_int,
        name: std::ffi::c_int,
        value: *const std::ffi::c_void,
        len: u32,
    ) -> std::ffi::c_int;
    fn setpriority(
        which: std::ffi::c_int,
        who: std::ffi::c_uint,
        prio: std::ffi::c_int,
    ) -> std::ffi::c_int;
    fn gettid() -> std::ffi::c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
}

/// Blocks until a descriptor is ready or `timeout` passes (nanosecond
/// resolution, unlike `poll`). Errors, EINTR included, read as "nothing
/// ready": the caller re-derives its state every round.
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as std::ffi::c_long,
        tv_nsec: timeout.subsec_nanos() as std::ffi::c_long,
    };
    // SAFETY: `fds` is a valid, exclusively borrowed slice of `#[repr(C)]`
    // pollfd records and its length is passed alongside; `ts` outlives the
    // call; a null sigmask asks ppoll to leave the signal mask alone.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// Acknowledges received data at once instead of after the delayed-ACK
/// timer. The server does not set `TCP_NODELAY`, so with delayed client
/// ACKs an open-loop reply can sit in the server's send queue until the
/// client's next request carries the ACK: latency then tracks the send
/// schedule and flips between modes from run to run. The flag does not
/// stick, so it is set again after every read.
fn quickack(stream: &TcpStream) {
    let one: std::ffi::c_int = 1;
    // SAFETY: a valid socket descriptor, a pointer to a live c_int and
    // its exact size; setsockopt only reads the value.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&raw const one).cast(),
            std::mem::size_of::<std::ffi::c_int>() as u32,
        );
    }
}

/// Nice value of the generator thread: the server's four threads share
/// the host's two cores with it, and a generator that waits for a core
/// sends late and no longer offers the scheduled load.
const GENERATOR_NICE: std::ffi::c_int = -10;

/// Raises the calling thread's scheduling priority to [`GENERATOR_NICE`];
/// call it after the server under test started, so that its threads do
/// not inherit the priority. Returns the nice value now in effect, or the
/// error when the process may not raise it (no `CAP_SYS_NICE`).
pub fn raise_priority() -> String {
    const PRIO_PROCESS: std::ffi::c_int = 0;
    // SAFETY: plain system calls on the calling thread's id (Linux
    // applies PRIO_PROCESS to the one thread named); no memory is shared.
    let status = unsafe { setpriority(PRIO_PROCESS, gettid() as std::ffi::c_uint, GENERATOR_NICE) };
    if status == 0 {
        GENERATOR_NICE.to_string()
    } else {
        format!("0 ({})", std::io::Error::last_os_error())
    }
}

/// The requests of a workload, ready to send.
pub struct Wire {
    /// Full HTTP request bytes per distinct request.
    pub requests: Vec<Vec<u8>>,
    /// The expected response body per distinct request.
    pub expected: Vec<Vec<u8>>,
    /// Pages carried per distinct request.
    pub pages: Vec<usize>,
    /// One pass of the workload: indices into the vectors above.
    pub sequence: Vec<usize>,
}

impl Wire {
    /// The JSON body of distinct request `i`: its bytes after the head.
    pub fn body(&self, i: usize) -> &str {
        let request = &self.requests[i];
        let head = request
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("a framed request");
        std::str::from_utf8(&request[head + 4..]).expect("request bodies are JSON text")
    }
}

pub enum Load {
    Closed,
    Open { rate_per_s: f64 },
}

#[derive(Debug, Default)]
pub struct PhaseResult {
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    /// Replies to requests sent inside the window. Open loop: placed at
    /// the request's due time, latency from due time to reply. Closed
    /// loop: placed at the reply (only replies inside the window count).
    pub samples: Vec<Sample>,
    /// How late the generator queued each request, ms (open loop only).
    pub late_ms: Vec<f64>,
    /// Requests sent but unanswered when the schedule ended.
    pub backlog: usize,
    /// Request bytes sent and reply bytes received.
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// First mismatch, for the report.
    pub first_error: Option<String>,
}

impl PhaseResult {
    /// Adds another slice of the same phase to these totals: counts add
    /// up, the backlog is the largest, samples and lateness are dropped
    /// (the caller keeps what it needs of them per slice).
    pub fn absorb(&mut self, slice: PhaseResult) {
        self.sent += slice.sent;
        self.succeeded += slice.succeeded;
        self.failed += slice.failed;
        self.backlog = self.backlog.max(slice.backlog);
        self.bytes_sent += slice.bytes_sent;
        self.bytes_received += slice.bytes_received;
        if self.first_error.is_none() {
            self.first_error = slice.first_error;
        }
    }
}

struct InFlight {
    request: usize,
    due: Instant,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    inflight: VecDeque<InFlight>,
    broken: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::with_capacity(1 << 16),
            inflight: VecDeque::new(),
            broken: false,
        })
    }

    fn flush(&mut self) {
        while self.out_pos < self.out.len() && !self.broken {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => self.broken = true,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.broken = true,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    fn fill(&mut self) {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.broken = true;
                    return;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    quickack(&self.stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.broken = true;
                    return;
                }
            }
        }
    }
}

/// One parsed reply off the front of a buffer: `(status, body range,
/// total length)`, or `None` while incomplete.
pub fn parse_reply(buf: &[u8]) -> Result<Option<(u16, std::ops::Range<usize>, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 reply head")?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| format!("no Content-Length in {head:?}"))?;
    let start = head_end + 4;
    if buf.len() < start + length {
        return Ok(None);
    }
    Ok(Some((status, start..start + length, start + length)))
}

/// How long to wait for the last replies after a phase's schedule ends
/// before counting them as timed out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The load generator's two keep-alive connections, kept open across
/// phases. A connection that breaks, or whose replies time out, stays
/// broken: every request later queued on it fails.
pub struct Client {
    conns: Vec<Conn>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let conns = (0..2)
            .map(|_| Conn::open(addr))
            .collect::<std::io::Result<_>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Client { conns })
    }

    /// Runs one phase for `window` (or until `limit` requests were sent),
    /// taking requests from the workload's sequence at `*cursor` onwards
    /// (cycling) and advancing it. Returns once every reply arrived or
    /// timed out.
    pub fn run(
        &mut self,
        wire: &Wire,
        load: Load,
        window: Duration,
        limit: Option<u64>,
        cursor: &mut usize,
    ) -> PhaseResult {
        let conns = &mut self.conns;
        let mut r = PhaseResult::default();
        let start = Instant::now();
        let end = start + window;
        let open_rate = match load {
            Load::Open { rate_per_s } => Some(rate_per_s),
            Load::Closed => None,
        };
        let mut scheduled = 0u64;
        let mut next_conn = 0usize;
        let mut enqueue = |conn: &mut Conn, due: Instant, r: &mut PhaseResult| {
            let request = wire.sequence[*cursor % wire.sequence.len()];
            *cursor += 1;
            r.sent += 1;
            r.bytes_sent += wire.requests[request].len() as u64;
            if conn.broken {
                r.failed += 1;
                r.first_error
                    .get_or_insert_with(|| "request queued on a broken connection".into());
                return;
            }
            conn.out.extend_from_slice(&wire.requests[request]);
            conn.inflight.push_back(InFlight { request, due });
        };
        let mut schedule_done = false;
        loop {
            let now = Instant::now();
            // A closed loop has nothing left to send once every connection broke.
            let stalled = open_rate.is_none() && conns.iter().all(|c| c.broken);
            if !schedule_done && (now >= end || limit.is_some_and(|n| r.sent >= n) || stalled) {
                schedule_done = true;
                r.backlog = conns.iter().map(|c| c.inflight.len()).sum();
            }
            if !schedule_done {
                match open_rate {
                    Some(rate) => loop {
                        let due = start + Duration::from_secs_f64(scheduled as f64 / rate);
                        if due > now || due >= end {
                            break;
                        }
                        let n = conns.len();
                        r.late_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
                        enqueue(&mut conns[next_conn], due, &mut r);
                        next_conn = (next_conn + 1) % n;
                        scheduled += 1;
                    },
                    None => {
                        for conn in conns.iter_mut() {
                            if conn.inflight.is_empty()
                                && !conn.broken
                                && limit.is_none_or(|n| r.sent < n)
                            {
                                enqueue(conn, now, &mut r);
                            }
                        }
                    }
                }
            }
            for conn in conns.iter_mut() {
                conn.flush();
                conn.fill();
                let mut consumed = 0;
                while let Some(front) = conn.inflight.front() {
                    let (status, body, len) = match parse_reply(&conn.inbuf[consumed..]) {
                        Ok(Some(reply)) => reply,
                        Ok(None) => break,
                        Err(e) => {
                            r.first_error.get_or_insert(e);
                            conn.broken = true;
                            break;
                        }
                    };
                    let done = Instant::now();
                    let body = &conn.inbuf[consumed + body.start..consumed + body.end];
                    r.bytes_received += len as u64;
                    if status == 200 && body == wire.expected[front.request].as_slice() {
                        r.succeeded += 1;
                        let latency_ms = done.duration_since(front.due).as_secs_f64() * 1e3;
                        let pages = wire.pages[front.request] as u64;
                        if open_rate.is_some() {
                            let at_s = front.due.duration_since(start).as_secs_f64();
                            r.samples.push(Sample {
                                at_s,
                                pages,
                                latency_ms,
                            });
                        } else if !schedule_done {
                            let at_s = done.duration_since(start).as_secs_f64();
                            r.samples.push(Sample {
                                at_s,
                                pages,
                                latency_ms,
                            });
                        }
                    } else {
                        r.failed += 1;
                        r.first_error.get_or_insert_with(|| {
                            format!(
                                "request {}: status {status}, body {} bytes, expected {} bytes",
                                front.request,
                                body.len(),
                                wire.expected[front.request].len()
                            )
                        });
                    }
                    consumed += len;
                    conn.inflight.pop_front();
                }
                conn.inbuf.drain(..consumed);
                if conn.broken && !conn.inflight.is_empty() {
                    r.failed += conn.inflight.len() as u64;
                    r.first_error
                        .get_or_insert_with(|| "connection closed with requests in flight".into());
                    conn.inflight.clear();
                }
            }
            let outstanding: usize = conns.iter().map(|c| c.inflight.len()).sum();
            let now = Instant::now();
            if schedule_done && (outstanding == 0 || now >= end + DRAIN_TIMEOUT) {
                if outstanding > 0 {
                    r.failed += outstanding as u64;
                    r.first_error
                        .get_or_insert_with(|| "reply timed out".into());
                    // A late reply would be taken for the next phase's.
                    for conn in conns.iter_mut().filter(|c| !c.inflight.is_empty()) {
                        conn.broken = true;
                        conn.inflight.clear();
                    }
                }
                break;
            }
            let idle = conns.iter().any(|c| c.inflight.is_empty() && !c.broken);
            if open_rate.is_none() && !schedule_done && idle {
                continue;
            }
            // Sleep until a socket is ready, or until the next request is due.
            let mut timeout = Duration::from_millis(50);
            if !schedule_done {
                timeout = timeout.min(end.saturating_duration_since(now));
                if let Some(rate) = open_rate {
                    let due = start + Duration::from_secs_f64(scheduled as f64 / rate);
                    timeout = timeout.min(due.saturating_duration_since(now));
                }
            }
            let mut fds: Vec<PollFd> = conns
                .iter()
                .map(|c| PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                    revents: 0,
                })
                .collect();
            if !timeout.is_zero() {
                wait(&mut fds, timeout);
            }
        }
        r
    }
}

/// Sends `GET /healthz` on a fresh blocking connection and waits for a
/// 200: the server is ready when this returns `Ok`.
pub fn healthz(addr: SocketAddr) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((status, _, _)) = parse_reply(&buf)? {
            return match status {
                200 => Ok(()),
                other => Err(format!("healthz answered {other}")),
            };
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("healthz: connection closed".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("healthz: {e}")),
        }
    }
}

/// Frames an extraction request body as HTTP/1.1 wire bytes.
pub fn post_extract(body: &str) -> Vec<u8> {
    format!(
        "POST /extract HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_only_when_complete() {
        let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody";
        assert_eq!(parse_reply(&reply[..20]).unwrap(), None);
        assert_eq!(parse_reply(&reply[..reply.len() - 1]).unwrap(), None);
        let (status, body, len) = parse_reply(reply).unwrap().unwrap();
        assert_eq!(
            (status, &reply[body], len),
            (200, &b"body"[..], reply.len())
        );
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}
