//! The HTTP/1.1 frontend, served from the shared connection reactor.
//!
//! The seed implementation dedicated one blocking thread to every
//! connection; this version keeps the exact same [`Handler`] API but
//! multiplexes all connections over one `safeweb-reactor` event loop:
//!
//! * reads are buffered and parsed incrementally by
//!   [`crate::message::RequestParser`] — a request head split across TCP
//!   segments holds buffer state, not a thread;
//! * each complete request is dispatched to the reactor's bounded worker
//!   pool through the connection's FIFO, so pipelined responses keep
//!   wire order;
//! * responses are queued on the connection's bounded outbox and flushed
//!   by nonblocking writes.
//!
//! Thread count is `shards + workers` regardless of connection count;
//! [`HttpServer::bind_sharded`] spreads the event-loop work over several
//! reactor shards when one epoll thread saturates a core.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use safeweb_reactor::{ConnHandle, Protocol, Reactor, ReactorConfig};

use crate::message::{Method, ParseError, Request, RequestParser, Response};

pub use crate::message::{MAX_BODY, MAX_HEAD};

/// Requests served per connection before it is closed.
const MAX_KEEPALIVE_REQUESTS: usize = 1000;
/// Idle connections are reaped after this long (the seed's per-read
/// timeout, carried over as an idle timeout).
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Pipelined requests in flight per connection before reads pause.
const MAX_PIPELINED: usize = 32;

/// The application callback type.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// A running HTTP server; dropping it stops the reactor, the workers and
/// every connection.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    reactor: Reactor,
}

impl HttpServer {
    /// Binds to `addr` (port 0 for ephemeral) and serves `handler` from
    /// the reactor's worker pool.
    ///
    /// # Errors
    ///
    /// Propagates bind and reactor setup errors.
    pub fn bind(addr: &str, handler: Handler) -> io::Result<HttpServer> {
        HttpServer::bind_sharded(addr, 1, handler)
    }

    /// Like [`HttpServer::bind`], but runs `shards` reactor event-loop
    /// threads (clamped to ≥ 1): shard 0 accepts and round-robins
    /// connections across the shards, so parsing and socket I/O scale
    /// past one core while the worker pool stays shared.
    ///
    /// # Errors
    ///
    /// Propagates bind and reactor setup errors.
    pub fn bind_sharded(addr: &str, shards: usize, handler: Handler) -> io::Result<HttpServer> {
        let config = ReactorConfig {
            name: "safeweb-http".to_string(),
            idle_timeout: Some(IDLE_TIMEOUT),
            shards,
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind(addr, config, move || {
            Box::new(HttpConn::new(Arc::clone(&handler)))
        })?;
        Ok(HttpServer {
            addr: reactor.addr(),
            reactor,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently held by the reactor.
    pub fn active_connections(&self) -> usize {
        self.reactor.active_connections()
    }

    /// Outbound bytes queued across every connection (aggregate outbox
    /// depth); see [`Reactor::queued_bytes`].
    pub fn queued_bytes(&self) -> usize {
        self.reactor.queued_bytes()
    }

    /// Wires the underlying reactor's connection telemetry into
    /// `registry` under `prefix`; see [`Reactor::attach_metrics`].
    pub fn attach_metrics(&self, registry: &safeweb_obs::MetricsRegistry, prefix: &str) {
        self.reactor.attach_metrics(registry, prefix);
    }

    /// Stops the server: no new connections, existing ones closed,
    /// in-flight handlers drained. Idempotent.
    pub fn shutdown(&mut self) {
        self.reactor.shutdown();
    }
}

/// Per-connection HTTP state machine (runs on the reactor thread).
struct HttpConn {
    handler: Handler,
    parser: RequestParser,
    served: usize,
    /// No further input is interpreted (parse error sent, EOF seen, or
    /// keep-alive budget exhausted).
    dead: bool,
}

impl HttpConn {
    fn new(handler: Handler) -> HttpConn {
        HttpConn {
            handler,
            parser: RequestParser::new(),
            served: 0,
            dead: false,
        }
    }
}

impl Protocol for HttpConn {
    fn on_bytes(&mut self, data: &[u8], conn: &ConnHandle) {
        if self.dead {
            return;
        }
        self.parser.feed(data);
        loop {
            match self.parser.next_request() {
                Ok(Some(request)) => {
                    self.served += 1;
                    let close = request
                        .headers()
                        .get("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                        || self.served >= MAX_KEEPALIVE_REQUESTS;
                    let head_only = request.method() == Method::Head;
                    let handler = Arc::clone(&self.handler);
                    let io = conn.clone();
                    conn.dispatch(move || {
                        let response = handler(request);
                        let _ = io.send(encode_response(&response, close, head_only));
                        if close {
                            io.close_after_flush();
                        } else if io.pending_jobs() <= MAX_PIPELINED / 2 {
                            // Cheap no-op unless reads were paused below.
                            io.resume_reads();
                        }
                    });
                    if close {
                        self.dead = true;
                        return;
                    }
                    if conn.pending_jobs() >= MAX_PIPELINED {
                        conn.pause_reads();
                    }
                }
                Ok(None) => return,
                Err(error) => {
                    self.dead = true;
                    let response = match error {
                        ParseError::TooLarge => Response::new(413),
                        ParseError::Bad(msg) => Response::new(400).with_body(msg),
                    };
                    let io = conn.clone();
                    // Through the FIFO, so it follows any in-flight
                    // responses for earlier pipelined requests.
                    conn.dispatch(move || {
                        let _ = io.send(encode_response(&response, true, false));
                        io.close_after_flush();
                    });
                    return;
                }
            }
        }
    }

    fn on_eof(&mut self, conn: &ConnHandle) {
        self.dead = true;
        let io = conn.clone();
        // FIFO again: responses for requests already dispatched still go
        // out before the connection closes.
        conn.dispatch(move || io.close_after_flush());
    }
}

/// Serialises a response, always emitting `content-length` and a
/// `connection` header; a HEAD response carries the would-be body's
/// length but no body bytes.
fn encode_response(response: &Response, close: bool, head_only: bool) -> Vec<u8> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", response.status(), response.reason());
    for (k, v) in response.headers().iter() {
        if k == "content-length" || k == "connection" {
            continue;
        }
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n", response.body().len()));
    head.push_str(if close {
        "connection: close\r\n"
    } else {
        "connection: keep-alive\r\n"
    });
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    if !head_only {
        bytes.extend_from_slice(response.body());
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn echo_server() -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(|req: Request| {
                let body = format!(
                    "{} {} q={} b={}",
                    req.method(),
                    req.path(),
                    req.query("x").unwrap_or("-"),
                    String::from_utf8_lossy(req.body()),
                );
                Response::text(body)
            }),
        )
        .unwrap()
    }

    #[test]
    fn serves_get_and_post() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let resp = client::get(&addr, "/hello?x=1").unwrap();
        assert_eq!(resp.status(), 200);
        assert_eq!(resp.body_str(), Some("GET /hello q=1 b="));

        let resp = client::send(
            &addr,
            Request::new(Method::Post, "/submit").with_body("payload"),
        )
        .unwrap();
        assert_eq!(resp.body_str(), Some("POST /submit q=- b=payload"));
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let mut conn = client::Connection::open(&addr).unwrap();
        for i in 0..5 {
            let resp = conn
                .send(Request::new(Method::Get, &format!("/r{i}")))
                .unwrap();
            assert_eq!(resp.status(), 200);
            assert!(resp.body_str().unwrap().contains(&format!("/r{i}")));
        }
    }

    /// How many complete HTTP responses `bytes` starts with.
    fn complete_responses(mut bytes: &[u8]) -> usize {
        let mut count = 0;
        while let Some(head_len) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&bytes[..head_len]).to_ascii_lowercase();
            let body_len: usize = head
                .lines()
                .find_map(|line| line.strip_prefix("content-length:"))
                .map_or(0, |v| v.trim().parse().expect("numeric content-length"));
            let total = head_len + 4 + body_len;
            if bytes.len() < total {
                break;
            }
            bytes = &bytes[total..];
            count += 1;
        }
        count
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Ten requests in one write; responses must come back in order,
        // each from a separate worker job.
        let mut wire = Vec::new();
        for i in 0..10 {
            wire.extend_from_slice(format!("GET /p{i} HTTP/1.1\r\n\r\n").as_bytes());
        }
        s.write_all(&wire).unwrap();
        // Read until ten complete responses (head plus `content-length`
        // body bytes) are in, however the bytes are split across reads.
        let mut got = Vec::new();
        while complete_responses(&got) < 10 {
            let mut buf = [0u8; 4096];
            let n = s.read(&mut buf).unwrap();
            assert!(n > 0, "connection closed after {} bytes", got.len());
            got.extend_from_slice(&buf[..n]);
        }
        let text = String::from_utf8_lossy(&got);
        let positions: Vec<usize> = (0..10)
            .map(|i| text.find(&format!("GET /p{i} ")).expect("response present"))
            .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(
            positions, sorted,
            "pipelined responses out of order: {text}"
        );
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    }

    #[test]
    fn oversized_body_gets_413() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(
            format!(
                "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .as_bytes(),
        )
        .unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 413"), "{buf}");
    }

    #[test]
    fn head_omits_body() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let resp = client::send(&addr, Request::new(Method::Head, "/x")).unwrap();
        assert_eq!(resp.status(), 200);
        assert!(resp.body().is_empty());
        // content-length still describes the would-be body.
        assert_ne!(resp.headers().get("content-length"), Some("0"));
    }

    #[test]
    fn connection_close_is_honoured() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let resp = client::send(
            &addr,
            Request::new(Method::Get, "/bye").with_header("connection", "close"),
        )
        .unwrap();
        assert_eq!(resp.status(), 200);
        assert_eq!(resp.headers().get("connection"), Some("close"));
    }
}
