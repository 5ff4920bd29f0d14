//! Socket-test fixtures shared by the reactor's in-crate differential
//! test (`src/reactor.rs`, through a `#[path]` module) and the
//! integration tests under `tests/`: one learned dealer wrapper, a
//! service over it, and a raw `TcpStream` client.

use aw_core::{CompiledWrapper, ExtractionService, LearnedRule, WrapperLanguage, WrapperRegistry};
use aw_induct::{NodeSet, Site};
use aw_pool::Executor;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// A fresh page of the script [`wrapper_in`] learns from.
pub const PAGE: &str =
    "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr></table>";

/// A dealer-name wrapper in `language`, learned from two labels.
pub fn wrapper_in(language: WrapperLanguage) -> CompiledWrapper {
    let site = Site::from_html(&[
        "<table class='stores'><tr><td><b>ALPHA CO</b></td><td>1 Elm</td></tr>\
         <tr><td><b>BETA LLC</b></td><td>2 Oak</td></tr></table>",
        "<table class='stores'><tr><td><b>GAMMA INC</b></td><td>3 Fir</td></tr>\
         <tr><td><b>DELTA LTD</b></td><td>4 Ash</td></tr></table>",
    ]);
    let mut labels = NodeSet::new();
    labels.extend(site.find_text("ALPHA CO"));
    labels.extend(site.find_text("DELTA LTD"));
    CompiledWrapper::from_rule(LearnedRule::learn(&site, language, &labels))
}

/// A service serving [`wrapper_in`]`(language)` under the key `dealers`.
/// Two calls build identical services, state trajectories included.
pub fn service_in(language: WrapperLanguage) -> Arc<ExtractionService> {
    let registry = Arc::new(WrapperRegistry::new());
    registry.insert("dealers", wrapper_in(language));
    Arc::new(ExtractionService::new(registry).with_executor(Executor::new(2)))
}

/// Sends raw bytes on a fresh connection and reads the raw reply to
/// EOF.
pub fn raw_roundtrip(addr: &SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("receive");
    reply
}

/// Frames one `Connection: close` request.
pub fn framed(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}
