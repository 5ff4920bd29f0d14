//! HTTP/1.1 framing, pure of any socket: one head parser and one
//! response encoder.
//!
//! The reactor frames every request through [`parse_head`] and every
//! reply through [`encode_response`], so its wire behavior (error
//! strings, header order, reason phrases) is fixed here. The reactor's
//! differential test replays requests over real sockets and compares
//! each reply with the bytes these functions compute in-process.

use crate::Response;

/// Largest accepted header block (request line + headers).
pub(crate) const MAX_HEAD: usize = 64 * 1024;
/// Largest accepted body (a bundle or a batch of pages).
const MAX_BODY: usize = 64 * 1024 * 1024;

/// Everything the socket layer needs from a parsed header block.
#[derive(Clone, Debug)]
pub(crate) struct HeadInfo {
    /// Bytes the head occupies in the buffer, `\r\n\r\n` included.
    pub head_len: usize,
    /// The request method, as received.
    pub method: String,
    /// The request path, query string stripped.
    pub path: String,
    /// Declared body length (0 when absent).
    pub content_length: usize,
    /// The client sent `Expect: 100-continue` and is waiting for the
    /// interim response before uploading the body.
    pub expects_continue: bool,
    /// Whether the connection may serve another request after this one
    /// (HTTP/1.1 default yes, `Connection: close` / HTTP/1.0 no).
    pub keep_alive: bool,
}

/// Outcome of trying to parse a header block off the front of `buf`.
pub(crate) enum HeadParse {
    /// No `\r\n\r\n` yet — read more. Carries the position scanning can
    /// resume from (the terminator may straddle a read boundary).
    Incomplete { scanned: usize },
    /// A complete, well-formed head.
    Ready(HeadInfo),
    /// A protocol error: report `(status, message)` and close.
    Error(u16, String),
}

/// Finds the end of the header block (`\r\n\r\n`) at or after
/// `search_from`, so incremental callers do not rescan settled bytes.
fn find_head_end(buf: &[u8], search_from: usize) -> Option<usize> {
    let start = search_from.min(buf.len());
    buf[start..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|pos| start + pos)
}

/// Parses one request head from the front of `buf`. Pure: no I/O, no
/// state — the reactor loops it over each connection's read buffer.
pub(crate) fn parse_head(buf: &[u8], search_from: usize) -> HeadParse {
    let Some(head_end) = find_head_end(buf, search_from) else {
        if buf.len() > MAX_HEAD {
            return HeadParse::Error(400, "header block too large".into());
        }
        // Resume three bytes back: a terminator can straddle reads.
        return HeadParse::Incomplete {
            scanned: buf.len().saturating_sub(3),
        };
    };
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return HeadParse::Error(400, "request head is not UTF-8".into());
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = (
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    );
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return HeadParse::Error(400, format!("malformed request line {request_line:?}"));
    }
    let mut content_length = 0usize;
    let mut expects_continue = false;
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            let Ok(parsed) = value.trim().parse() else {
                return HeadParse::Error(400, format!("bad Content-Length {:?}", value.trim()));
            };
            content_length = parsed;
        } else if name.eq_ignore_ascii_case("expect")
            && value.trim().eq_ignore_ascii_case("100-continue")
        {
            expects_continue = true;
        } else if name.eq_ignore_ascii_case("transfer-encoding")
            && !value.trim().eq_ignore_ascii_case("identity")
        {
            // Bodies are framed by Content-Length only; silently
            // treating a chunked request as body-less would misroute it.
            return HeadParse::Error(
                501,
                "transfer codings are not supported; send Content-Length".into(),
            );
        } else if name.eq_ignore_ascii_case("connection") {
            // Token list; `close` wins, `keep-alive` opts a 1.0 client in.
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") && version == "HTTP/1.0" {
                    keep_alive = true;
                }
            }
        }
    }
    if content_length > MAX_BODY {
        return HeadParse::Error(413, "request body too large".into());
    }
    // Strip any query string: the protocol routes on the path alone.
    let path = target.split('?').next().unwrap_or(target).to_string();
    HeadParse::Ready(HeadInfo {
        head_len: head_end + 4,
        method: method.to_string(),
        path,
        content_length,
        expects_continue,
        keep_alive,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Appends a routed [`Response`]'s wire bytes to `out` (the
/// connection's write buffer, so the body is copied once).
/// `retry_after_secs` adds the overload hint header (the backpressure
/// 503). Identical `(response, keep_alive, retry_after_secs)` inputs
/// give identical bytes.
pub(crate) fn encode_response(
    response: &Response,
    keep_alive: bool,
    retry_after_secs: Option<u32>,
    out: &mut Vec<u8>,
) {
    use std::io::Write;
    let connection = if keep_alive { "keep-alive" } else { "close" };
    out.reserve(128 + response.body.len());
    // Writing into a Vec cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        response.status,
        reason(response.status),
        response.body.len(),
    );
    if let Some(secs) = retry_after_secs {
        let _ = write!(out, "Retry-After: {secs}\r\n");
    }
    let _ = write!(out, "Connection: {connection}\r\n\r\n");
    out.extend_from_slice(response.body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection_resumes_mid_terminator() {
        let full = b"GET / HTTP/1.1\r\n\r\nrest";
        assert_eq!(find_head_end(full, 0), Some(14));
        // Scanning may resume inside the terminator without missing it.
        assert_eq!(find_head_end(full, 13), Some(14));
        assert_eq!(find_head_end(b"partial\r\n", 0), None);
    }

    #[test]
    fn parse_head_framing_and_keep_alive() {
        let buf = b"POST /extract?x=1 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let HeadParse::Ready(head) = parse_head(buf, 0) else {
            panic!("expected a parsed head");
        };
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/extract");
        assert_eq!(head.content_length, 5);
        assert_eq!(head.head_len, buf.len() - 5);
        assert!(head.keep_alive, "HTTP/1.1 defaults to keep-alive");

        let close = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let HeadParse::Ready(head) = parse_head(close, 0) else {
            panic!("expected a parsed head");
        };
        assert!(!head.keep_alive);

        let v10 = b"GET / HTTP/1.0\r\n\r\n";
        let HeadParse::Ready(head) = parse_head(v10, 0) else {
            panic!("expected a parsed head");
        };
        assert!(!head.keep_alive, "HTTP/1.0 defaults to close");

        let v10_ka = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let HeadParse::Ready(head) = parse_head(v10_ka, 0) else {
            panic!("expected a parsed head");
        };
        assert!(head.keep_alive, "HTTP/1.0 opts in via the header");
    }

    #[test]
    fn parse_head_rejections() {
        assert!(matches!(
            parse_head(b"BOGUS\r\n\r\n", 0),
            HeadParse::Error(400, _)
        ));
        assert!(matches!(
            parse_head(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 0),
            HeadParse::Error(501, _)
        ));
        assert!(matches!(
            parse_head(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 0),
            HeadParse::Error(400, _)
        ));
        let oversized = vec![b'x'; MAX_HEAD + 1];
        assert!(matches!(
            parse_head(&oversized, 0),
            HeadParse::Error(400, _)
        ));
    }

    #[test]
    fn encode_response_framing() {
        let response = Response {
            status: 503,
            body: r#"{"error":"overloaded"}"#.into(),
        };
        let mut bytes = b"queued".to_vec();
        encode_response(&response, true, Some(1), &mut bytes);
        let text = String::from_utf8(bytes).unwrap();
        let text = text
            .strip_prefix("queued")
            .expect("appends after queued bytes");
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(
            text.ends_with("\r\n\r\n{\"error\":\"overloaded\"}"),
            "{text}"
        );
    }
}
