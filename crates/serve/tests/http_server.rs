//! End-to-end test of the HTTP front end over real sockets: a raw
//! `TcpStream` client (the workspace builds without an HTTP client
//! library, which is also why the server is hand-rolled) drives the
//! reactor through every endpoint, concurrent connections, and graceful
//! shutdown.

use aw_core::{
    CompiledWrapper, ExtractionService, LearnedRule, WrapperBundle, WrapperLanguage,
    WrapperRegistry,
};
use aw_induct::{NodeSet, Site};
use aw_pool::Executor;
use aw_serve::Server;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn dealer_wrapper() -> CompiledWrapper {
    let site = Site::from_html(&[
        "<table class='stores'><tr><td><b>ALPHA CO</b></td><td>1 Elm</td></tr>\
         <tr><td><b>BETA LLC</b></td><td>2 Oak</td></tr></table>",
        "<table class='stores'><tr><td><b>GAMMA INC</b></td><td>3 Fir</td></tr>\
         <tr><td><b>DELTA LTD</b></td><td>4 Ash</td></tr></table>",
    ]);
    let mut labels = NodeSet::new();
    labels.extend(site.find_text("ALPHA CO"));
    labels.extend(site.find_text("DELTA LTD"));
    CompiledWrapper::from_rule(LearnedRule::learn(&site, WrapperLanguage::XPath, &labels))
}

/// Sends one request and returns `(status, body)`. Asks for
/// `Connection: close` so reading to EOF frames the response (the
/// reactor would otherwise hold the connection open for keep-alive).
fn roundtrip(addr: &std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("receive");
    let status: u16 = reply
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable reply: {reply:?}"));
    let payload = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

#[test]
fn http_server_serves_all_endpoints_concurrently_and_shuts_down() {
    let registry = Arc::new(WrapperRegistry::new());
    registry.insert("dealers", dealer_wrapper());
    let service =
        Arc::new(ExtractionService::new(Arc::clone(&registry)).with_executor(Executor::new(2)));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind ephemeral port")
        .workers(3);
    let addr = server.local_addr().expect("bound address");
    let handle = server.start().expect("start workers");

    // Liveness.
    let (status, body) = roundtrip(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // Extraction from a fresh page of the learned script.
    let page = "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr></table>";
    let (status, body) = roundtrip(
        &addr,
        "POST",
        "/extract",
        &format!(r#"{{"site":"dealers","html":"{page}"}}"#),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("OMEGA GROUP"), "{body}");

    // Concurrent clients: all see consistent, correct answers.
    let answers: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || {
                    let page = format!(
                        "<table class='stores'><tr><td><b>CLIENT {i}</b></td>\
                         <td>{i} Oak</td></tr></table>"
                    );
                    roundtrip(
                        &addr,
                        "POST",
                        "/extract",
                        &format!(r#"{{"site":"dealers","html":"{page}"}}"#),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (status, body)) in answers.iter().enumerate() {
        assert_eq!(*status, 200, "client {i}: {body}");
        assert!(body.contains(&format!("CLIENT {i}")), "client {i}: {body}");
    }

    // Error surfaces: unknown site, unknown path, bad method, bad body.
    let (status, _) = roundtrip(&addr, "POST", "/extract", r#"{"site":"x","html":""}"#);
    assert_eq!(status, 404);
    assert_eq!(roundtrip(&addr, "GET", "/nope", "").0, 404);
    assert_eq!(roundtrip(&addr, "DELETE", "/extract", "").0, 405);
    assert_eq!(roundtrip(&addr, "POST", "/extract", "garbage").0, 400);

    // Hot swap over the wire, then verify the new registry serves.
    let mut bundle = WrapperBundle::new();
    bundle.insert("swapped", dealer_wrapper());
    let (status, body) = roundtrip(&addr, "POST", "/wrappers", &bundle.to_json());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"loaded\":1"), "{body}");
    let (status, body) = roundtrip(&addr, "GET", "/wrappers", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"site\":\"swapped\""), "{body}");
    let (status, _) = roundtrip(
        &addr,
        "POST",
        "/extract",
        &format!(r#"{{"site":"dealers","html":"{page}"}}"#),
    );
    assert_eq!(status, 404, "old site must be gone after the hot swap");

    // An oversized declared body is refused with a readable 413 even
    // though the client never finished uploading (the server drains
    // instead of slamming the connection with a reset).
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                b"POST /wrappers HTTP/1.1\r\nHost: test\r\nContent-Length: 104857600\r\n\r\n",
            )
            .expect("send oversized head");
        stream.write_all(&[b'x'; 4096]).expect("start body");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("read 413");
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
        assert!(reply.contains("too large"), "{reply}");
    }

    handle.shutdown();
    // The port is released: a fresh bind on the same address succeeds.
    std::net::TcpListener::bind(addr).expect("port released after shutdown");
}
