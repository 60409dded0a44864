//! The HTTP edge: everything that happens to a connection before a
//! route handler runs, shared by the server and the mesh gateway.
//!
//! Threading model (all scoped — the edge owns no detached threads):
//!
//! * the caller's thread runs a blocking accept loop — no poll sleep on
//!   any request's critical path; [`Handle::shutdown`] unblocks it with
//!   one throwaway loopback connection;
//! * `http_threads` pool threads pull accepted sockets off an mpsc
//!   channel; each connection is one request (`Connection: close`).
//!
//! Per connection, in order: read timeout and `TCP_NODELAY`, then
//! [`read_request`] (413 over the size caps, 400 malformed, 408 on a
//! read timeout, silence when the peer closed early), then tenant
//! authentication, then [`route`] (404, or 405 with `Allow`), and only
//! then the caller's handler — under `catch_unwind`, so a panicking
//! handler costs its own request, never a pool thread: a unary route
//! answers 500, a stream that already started is closed without its
//! terminator and the client sees truncation.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::Serialize;
use xplain_runtime::TenantRegistry;

use crate::http::{read_request, start_chunked, write_chunk, HttpError, Request, Response};
use crate::router::{route, Route, RouteError};

/// A bound listener plus its connection pool settings.
pub struct Edge {
    listener: TcpListener,
    handle: Handle,
    http_threads: usize,
    read_timeout: Duration,
}

/// Remote control for a running [`Edge`] (cloneable, thread-safe).
#[derive(Clone)]
pub struct Handle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl Handle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request graceful shutdown (idempotent): flag it and poke the
    /// accept loop awake. The poke is only load-bearing when the
    /// listener is idle — with connections in the backlog `accept`
    /// returns on its own and the loop sees the flag. A couple of
    /// retries cover transient connect failures; past that, the next
    /// real connection ends the loop.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for timeout_ms in [200, 1000] {
            if TcpStream::connect_timeout(&self.addr, Duration::from_millis(timeout_ms)).is_ok() {
                break;
            }
        }
    }

    /// `POST /v1/shutdown`: request shutdown, answer `{"shutting_down":true}`.
    pub fn shutdown_reply(&self) -> Response {
        #[derive(Serialize)]
        struct ShutdownBody {
            shutting_down: bool,
        }
        self.shutdown();
        Response::json(
            200,
            serde_json::to_string(&ShutdownBody {
                shutting_down: true,
            })
            .expect("body serializes"),
        )
    }
}

/// The client side of one exchange, as a handler sees it: write-only,
/// and it remembers whether a response has begun — which decides how a
/// handler panic is answered.
pub struct Conn {
    stream: TcpStream,
    started: bool,
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.started |= !buf.is_empty();
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl Edge {
    /// Bind the listening socket (fails fast on bad addresses — before
    /// any threads exist).
    pub fn bind(addr: &str, http_threads: usize, read_timeout: Duration) -> io::Result<Edge> {
        let listener = TcpListener::bind(addr)?;
        let handle = Handle {
            addr: listener.local_addr()?,
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        Ok(Edge {
            listener,
            handle,
            http_threads,
            read_timeout,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.handle.addr
    }

    pub fn handle(&self) -> Handle {
        self.handle.clone()
    }

    /// Serve until shutdown is requested. Each authenticated, routed
    /// request goes to `handler` with the caller's tenant id (`None` when
    /// anonymous). Once the accept loop stops, `drain` runs before the
    /// pool is joined — it must end whatever keeps handlers busy (the
    /// server cancels its queue there, which ends live event streams).
    pub fn serve<H>(&self, tenants: &TenantRegistry, handler: H, drain: impl FnOnce())
    where
        H: Fn(&mut Conn, &Request, Route, Option<&str>) + Sync,
    {
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Mutex::new(conn_rx);
        std::thread::scope(|scope| {
            for _ in 0..self.http_threads.max(1) {
                scope.spawn(|| loop {
                    let next = conn_rx
                        .lock()
                        .expect("connection channel")
                        .recv_timeout(Duration::from_millis(100));
                    match next {
                        Ok(stream) => self.exchange(stream, tenants, &handler),
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                });
            }
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.handle.shutdown.load(Ordering::Relaxed) {
                            break; // likely the shutdown poke itself
                        }
                        let _ = conn_tx.send(stream);
                    }
                    Err(_) => {
                        if self.handle.shutdown.load(Ordering::Relaxed) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            drop(conn_tx);
            drain();
        });
    }

    /// One connection, one request.
    fn exchange<H>(&self, stream: TcpStream, tenants: &TenantRegistry, handler: &H)
    where
        H: Fn(&mut Conn, &Request, Route, Option<&str>),
    {
        let _ = stream.set_read_timeout(Some(self.read_timeout));
        let _ = stream.set_nodelay(true);
        let mut conn = Conn {
            stream,
            started: false,
        };
        let refusal = match read_request(&mut conn.stream) {
            Err(HttpError::Closed) => return,
            Err(HttpError::TooLarge) => Response::error(413, "request exceeds size caps"),
            Err(HttpError::BadRequest(m)) => Response::error(400, &m),
            Err(HttpError::Io(_)) => Response::error(408, "timed out reading request"),
            Ok(request) => match authenticate(tenants, &request) {
                Err(refusal) => refusal,
                Ok(tenant) => match route(&request.method, &request.path) {
                    Err(RouteError::NotFound) => Response::error(404, "no such resource"),
                    Err(RouteError::MethodNotAllowed { allowed }) => {
                        Response::error(405, "method not allowed").with_header("Allow", allowed)
                    }
                    Ok(route) => {
                        let ran = catch_unwind(AssertUnwindSafe(|| {
                            handler(&mut conn, &request, route, tenant.as_deref())
                        }));
                        if ran.is_ok() || conn.started {
                            return; // a started stream closes unterminated
                        }
                        Response::error(500, "internal error while handling the request")
                    }
                },
            },
        };
        let _ = refusal.write_to(&mut conn);
    }
}

/// Resolve the caller's tenant identity, or the response that refuses
/// the request.
///
/// Open mode: every request is the anonymous tenant (`Ok(None)`), headers
/// ignored. Enforcing mode:
///
/// * `Authorization: Bearer <key>` — authenticated against the registry's
///   FNV-hashed key table: malformed is 401, an unknown key 403, on every
///   route.
/// * `X-Xplain-Tenant: <id>` — trusted forwarding from a mesh gateway
///   that already authenticated the bearer (shards sit on a private
///   network behind it; see DESIGN.md §12's trust model). Unknown ids
///   are 403.
/// * Neither header → `Ok(None)`. Routes that *attribute* work then
///   answer [`require_tenant`]'s 401; read and ops routes stay open so
///   liveness probes, mesh heartbeats, and work stealing keep working.
fn authenticate(tenants: &TenantRegistry, request: &Request) -> Result<Option<String>, Response> {
    if !tenants.enforcing() {
        return Ok(None);
    }
    if let Some(value) = request.header("authorization") {
        let key = match value.split_once(' ') {
            Some((scheme, rest)) if scheme.eq_ignore_ascii_case("bearer") => rest.trim(),
            _ => {
                return Err(Response::error(
                    401,
                    "malformed Authorization header (expected 'Bearer <api-key>')",
                ))
            }
        };
        return match tenants.authenticate(key) {
            Some(tenant) => Ok(Some(tenant.id.clone())),
            None => Err(Response::error(403, "unknown API key")),
        };
    }
    if let Some(id) = request.header("x-xplain-tenant") {
        return match tenants.lookup(id) {
            Some(tenant) => Ok(Some(tenant.id.clone())),
            None => Err(Response::error(403, &format!("unknown tenant id '{id}'"))),
        };
    }
    Ok(None)
}

/// The 401 a route that attributes work (submit, tune) answers to an
/// anonymous caller of an enforcing edge.
pub fn require_tenant(tenants: &TenantRegistry, tenant: Option<&str>) -> Result<(), Response> {
    if tenants.enforcing() && tenant.is_none() {
        return Err(Response::error(
            401,
            "missing API key (send 'Authorization: Bearer <api-key>')",
        ));
    }
    Ok(())
}

/// Begin a `200` chunked NDJSON stream.
pub fn start_ndjson(conn: &mut impl Write) -> io::Result<()> {
    start_chunked(conn, 200, "application/x-ndjson")
}

/// Send one NDJSON line — the line and its `\n` — as one chunk.
pub fn write_ndjson_line(conn: &mut impl Write, line: &str) -> io::Result<()> {
    let mut payload = Vec::with_capacity(line.len() + 1);
    payload.extend_from_slice(line.as_bytes());
    payload.push(b'\n');
    write_chunk(conn, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// Send one raw request, read the whole answer.
    fn exchange_raw(addr: SocketAddr, raw: &str) -> String {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c.write_all(raw.as_bytes()).unwrap();
        let mut wire = String::new();
        c.read_to_string(&mut wire).unwrap();
        wire
    }

    #[test]
    fn a_panicking_handler_costs_its_request_not_the_pool_thread() {
        // One pool thread: if a panic killed it, the follow-up requests
        // would never be answered.
        let edge = Edge::bind("127.0.0.1:0", 1, Duration::from_secs(10)).unwrap();
        let handle = edge.handle();
        let server = std::thread::spawn(move || {
            let handler = |conn: &mut Conn, _: &Request, route: Route, _: Option<&str>| match route
            {
                Route::JobStatus(id) if id == "boom" => panic!("unary handler fault"),
                Route::JobEvents(_) => {
                    start_ndjson(conn).unwrap();
                    write_ndjson_line(conn, "{}").unwrap();
                    panic!("stream handler fault");
                }
                _ => Response::json(200, "{}".into()).write_to(conn).unwrap(),
            };
            edge.serve(&TenantRegistry::open(), handler, || {});
        });

        let wire = exchange_raw(handle.addr(), "GET /v1/jobs/boom HTTP/1.1\r\n\r\n");
        assert!(
            wire.starts_with("HTTP/1.1 500 Internal Server Error\r\n"),
            "{wire}"
        );
        assert!(wire.ends_with(r#"{"error":"internal error while handling the request"}"#));
        assert!(
            exchange_raw(handle.addr(), "GET /v1/domains HTTP/1.1\r\n\r\n")
                .starts_with("HTTP/1.1 200 OK\r\n")
        );

        // After the stream began, the status line is gone: the client
        // gets the line that was sent and no chunked terminator.
        let wire = exchange_raw(handle.addr(), "GET /v1/jobs/x/events HTTP/1.1\r\n\r\n");
        assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"), "{wire}");
        assert!(wire.ends_with("3\r\n{}\n\r\n"), "{wire:?}");
        assert!(
            exchange_raw(handle.addr(), "GET /v1/domains HTTP/1.1\r\n\r\n")
                .starts_with("HTTP/1.1 200 OK\r\n")
        );

        handle.shutdown();
        server.join().unwrap();
    }
}
