//! Socket-level tests of the event-driven reactor: keep-alive and
//! pipelining, deadlines, backpressure and hostile bodies over real
//! sockets. The reactor's byte-identity differential test lives in the
//! crate (`src/reactor.rs`), next to the framing code it compares
//! against.

mod support;

use aw_core::{ExtractionService, WrapperLanguage};
use aw_serve::{Server, ServerHandle};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use support::{framed, raw_roundtrip, service_in, PAGE};

fn start_reactor(service: Arc<ExtractionService>) -> ServerHandle {
    Server::bind(service, "127.0.0.1:0")
        .expect("bind")
        .workers(2)
        .start()
        .expect("start")
}

/// Splits a byte stream of HTTP responses into individual framed
/// responses using each one's Content-Length.
fn split_responses(stream: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(stream);
    let mut rest = text.as_ref();
    let mut responses = Vec::new();
    while let Some((head, after)) = rest.split_once("\r\n\r\n") {
        let length: usize = head
            .split("\r\n")
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .expect("response declares Content-Length")
            .parse()
            .expect("parsable Content-Length");
        responses.push(format!("{head}\r\n\r\n{}", &after[..length]));
        rest = &after[length..];
    }
    assert!(
        rest.is_empty(),
        "trailing bytes after last response: {rest:?}"
    );
    responses
}

#[test]
fn keep_alive_pipelining_answers_in_order_and_close_is_honored() {
    let server = start_reactor(service_in(WrapperLanguage::XPath));
    let page_one = "<table class='stores'><tr><td><b>PAGE ONE</b></td><td>1 Elm</td></tr></table>";
    let page_two = "<table class='stores'><tr><td><b>PAGE TWO</b></td><td>2 Oak</td></tr></table>";
    let first = format!(r#"{{"site":"dealers","html":"{page_one}"}}"#);
    let second = format!(r#"{{"site":"dealers","html":"{page_two}"}}"#);
    // Both requests in one write: the second waits in the read buffer
    // while the first is in flight, and `Connection: close` on the
    // second ends the stream so EOF frames the whole exchange.
    let mut pipelined = format!(
        "POST /extract HTTP/1.1\r\nContent-Length: {}\r\n\r\n{first}",
        first.len()
    )
    .into_bytes();
    pipelined.extend_from_slice(
        format!(
            "POST /extract HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{second}",
            second.len()
        )
        .as_bytes(),
    );
    let replies = split_responses(&raw_roundtrip(&server.addr(), &pipelined));
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[0].contains("PAGE ONE"), "{}", replies[0]);
    assert!(
        replies[0].contains("Connection: keep-alive"),
        "{}",
        replies[0]
    );
    assert!(replies[1].contains("PAGE TWO"), "{}", replies[1]);
    assert!(replies[1].contains("Connection: close"), "{}", replies[1]);
    server.shutdown();
}

#[test]
fn malformed_second_request_closes_cleanly_without_corrupting_the_first() {
    let server = start_reactor(service_in(WrapperLanguage::XPath));
    // A valid keep-alive request pipelined with garbage: the first
    // response must arrive intact, then a 400 that closes the stream.
    let mut pipelined = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n".to_vec();
    pipelined.extend_from_slice(b"GARBAGE\r\n\r\n");
    let replies = split_responses(&raw_roundtrip(&server.addr(), &pipelined));
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[0].starts_with("HTTP/1.1 200"), "{}", replies[0]);
    assert!(replies[0].contains("\"status\":\"ok\""), "{}", replies[0]);
    assert!(
        replies[0].contains("Connection: keep-alive"),
        "{}",
        replies[0]
    );
    assert!(replies[1].starts_with("HTTP/1.1 400"), "{}", replies[1]);
    assert!(
        replies[1].contains("malformed request line"),
        "{}",
        replies[1]
    );
    assert!(replies[1].contains("Connection: close"), "{}", replies[1]);
    server.shutdown();
}

#[test]
fn read_deadline_fires_as_408_not_a_silent_drop() {
    let server = Server::bind(service_in(WrapperLanguage::XPath), "127.0.0.1:0")
        .expect("bind")
        .workers(1)
        .read_deadline(Duration::from_millis(200))
        .start()
        .expect("start");

    // Headers parsed, body stalls: the deadline must answer 408.
    let mut stalled_body = TcpStream::connect(server.addr()).expect("connect");
    stalled_body
        .write_all(b"POST /extract HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"site\":")
        .expect("send partial request");
    let mut reply = String::new();
    stalled_body.read_to_string(&mut reply).expect("read 408");
    assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");
    assert!(reply.contains("read deadline exceeded"), "{reply}");

    // Head itself stalls (headers NOT parsed yet): still 408.
    let mut stalled_head = TcpStream::connect(server.addr()).expect("connect");
    stalled_head
        .write_all(b"GET /healthz HTT")
        .expect("send partial head");
    let mut reply = String::new();
    stalled_head.read_to_string(&mut reply).expect("read 408");
    assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_quietly() {
    let server = Server::bind(service_in(WrapperLanguage::XPath), "127.0.0.1:0")
        .expect("bind")
        .workers(1)
        .idle_timeout(Duration::from_millis(150))
        .start()
        .expect("start");
    // No request at all: the reactor closes the connection with no
    // bytes — an idle reap is not a protocol error.
    let mut idle = TcpStream::connect(server.addr()).expect("connect");
    let mut reply = Vec::new();
    idle.read_to_end(&mut reply).expect("read EOF");
    assert!(reply.is_empty(), "idle close must be silent: {reply:?}");
    server.shutdown();
}

#[test]
fn overload_sheds_503_with_retry_after_while_healthz_still_answers() {
    // queue_depth(0) makes every dispatched request overflow, which is
    // the deterministic way to drive the shed path.
    let server = Server::bind(service_in(WrapperLanguage::XPath), "127.0.0.1:0")
        .expect("bind")
        .workers(1)
        .queue_depth(0)
        .start()
        .expect("start");
    // One keep-alive connection: the shed 503 must not kill it, and a
    // healthz on the same stream must still answer 200 (it bypasses
    // the dispatch queue on the reactor thread).
    let extract = format!(r#"{{"site":"dealers","html":"{PAGE}"}}"#);
    let mut pipelined = format!(
        "POST /extract HTTP/1.1\r\nContent-Length: {}\r\n\r\n{extract}",
        extract.len()
    )
    .into_bytes();
    pipelined.extend_from_slice(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    let replies = split_responses(&raw_roundtrip(&server.addr(), &pipelined));
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[0].starts_with("HTTP/1.1 503"), "{}", replies[0]);
    assert!(replies[0].contains("Retry-After: 1"), "{}", replies[0]);
    assert!(replies[0].contains("overloaded"), "{}", replies[0]);
    assert!(replies[1].starts_with("HTTP/1.1 200"), "{}", replies[1]);
    assert!(replies[1].contains("\"status\":\"ok\""), "{}", replies[1]);
    server.shutdown();
}

#[test]
fn a_megabyte_of_brackets_is_400_and_the_server_keeps_serving() {
    // Before the JSON nesting cap, this body overflowed a service
    // worker's stack and aborted the whole process.
    let server = start_reactor(service_in(WrapperLanguage::XPath));
    let reply = raw_roundtrip(
        &server.addr(),
        &framed("POST", "/extract", &"[".repeat(1 << 20)),
    );
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("nesting deeper than"), "{reply}");
    let healthz = raw_roundtrip(&server.addr(), &framed("GET", "/healthz", ""));
    assert!(healthz.starts_with(b"HTTP/1.1 200"));
    let extract = format!(r#"{{"site":"dealers","html":"{PAGE}"}}"#);
    let reply = raw_roundtrip(&server.addr(), &framed("POST", "/extract", &extract));
    assert!(String::from_utf8_lossy(&reply).contains("OMEGA GROUP"));
    server.shutdown();
}

#[test]
fn accept_backpressure_parks_excess_connections_in_the_backlog() {
    let server = Server::bind(service_in(WrapperLanguage::XPath), "127.0.0.1:0")
        .expect("bind")
        .workers(1)
        .max_connections(1)
        .start()
        .expect("start");
    // First connection occupies the only slot.
    let holder = TcpStream::connect(server.addr()).expect("connect holder");
    // Second connects fine (kernel backlog) but gets no service.
    let mut parked = TcpStream::connect(server.addr()).expect("connect parked");
    parked
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("send");
    parked
        .set_read_timeout(Some(Duration::from_millis(300)))
        .expect("timeout");
    let mut probe = [0u8; 1];
    let starved = matches!(
        parked.read(&mut probe),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
    );
    assert!(starved, "parked connection was served despite the cap");
    // Freeing the slot lets the parked connection through.
    drop(holder);
    parked
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reply = Vec::new();
    reply.push(probe[0]);
    reply.clear();
    parked.read_to_end(&mut reply).expect("read after release");
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    server.shutdown();
}

#[test]
fn wrappers_reports_sane_latency_percentiles() {
    let service = service_in(WrapperLanguage::XPath);
    let server = start_reactor(Arc::clone(&service));
    let extract = format!(r#"{{"site":"dealers","html":"{PAGE}"}}"#);
    for _ in 0..5 {
        let reply = raw_roundtrip(&server.addr(), &framed("POST", "/extract", &extract));
        assert!(
            String::from_utf8_lossy(&reply).contains("OMEGA"),
            "extract failed"
        );
    }
    let reply = raw_roundtrip(&server.addr(), &framed("GET", "/wrappers", ""));
    let text = String::from_utf8_lossy(&reply);
    let body = text.split_once("\r\n\r\n").expect("framed").1;
    let v: serde::Value = serde_json::from_str(body).expect("JSON");
    let latency = v.get("latency").expect("latency object");
    let field = |name: &str| {
        latency
            .get(name)
            .and_then(serde::Value::as_f64)
            .unwrap_or_else(|| panic!("missing latency.{name}: {body}"))
    };
    assert!(field("count") >= 5.0, "{body}");
    let (p50, p90, p99, max) = (
        field("p50_us"),
        field("p90_us"),
        field("p99_us"),
        field("max_us"),
    );
    assert!(p50 <= p90 && p90 <= p99 && p99 <= max, "{body}");
    assert!(max > 0.0, "{body}");
    // The histogram is the service's: the in-process snapshot agrees
    // (the `/wrappers` request itself records *after* building its own
    // body, so the live count may be one ahead).
    assert!(service.latency().snapshot().count as f64 >= field("count"));
    server.shutdown();
}
