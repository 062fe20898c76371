//! The HTTP server: a threaded accept loop in the style of
//! `marauder-net`'s TCP server, one serving thread per connection,
//! every thread holding its own [`PlaneReader`] so request handling
//! never touches a lock the ingest thread cares about.
//!
//! Robustness posture: every way a client can misbehave maps to a
//! typed outcome, never a panic and never a stuck worker. Malformed
//! heads draw the [`HttpError`] 4xx; heads that stall mid-request
//! (slow-loris) draw `408` when the head deadline passes; connections
//! beyond the admission cap draw `503` and close; disconnects at any
//! point just end the thread. The routing function itself is pure over
//! `(request, snapshot)` — all I/O and all clocks stay in the
//! connection loop, so the determinism contract ("no wall clock in
//! response bodies outside the `nondeterministic` key") holds by
//! construction.

use crate::http::{parse_request, HttpError, Parsed, Request, Response};
use crate::plane::{PlaneReader, SnapshotPlane};
use crate::state::{BBox, TrackerSnapshot};
use crate::ServeError;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll granularity for socket reads and the accept loop.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Cap on distinct targets the per-epoch response cache will hold.
/// Past it, responses are computed but not cached, so a client
/// spraying unique targets cannot balloon server memory.
const MAX_CACHED_RESPONSES: usize = 512;

/// Per-connection read buffer cap: one maximal head plus one maximal
/// pipeline burst behind it. Beyond this the client is not pipelining,
/// it is ballooning — the head-size error applies.
const MAX_CONN_BUFFER: usize = 2 * crate::http::MAX_HEAD_BYTES;

/// Server knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// How long a request head may take from its first byte to its
    /// terminator before the connection draws `408` (slow-loris cap).
    pub head_timeout: Duration,
    /// How long an idle keep-alive connection is held open waiting
    /// for its next request before being closed (no response owed).
    pub keep_alive_timeout: Duration,
    /// Concurrent-connection admission cap; connections beyond it are
    /// answered `503` and closed without parsing.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            head_timeout: Duration::from_secs(5),
            keep_alive_timeout: Duration::from_secs(5),
            max_connections: 256,
        }
    }
}

/// A running server: its bound address and the means to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for the accept loop to exit, then waits
    /// (briefly) for in-flight connections to drain. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        // Connection threads observe the flag within one poll interval;
        // give them a bounded grace period rather than joining each.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.active.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and starts serving snapshots from `plane` on a
/// background accept loop.
///
/// # Errors
///
/// [`ServeError::Io`] when the address cannot be bound.
pub fn start(
    addr: &str,
    plane: Arc<SnapshotPlane<TrackerSnapshot>>,
    config: ServeConfig,
) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(addr).map_err(|e| ServeError::io("bind listener", e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| ServeError::io("resolve bound address", e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::io("set listener non-blocking", e))?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let cache = Arc::new(Mutex::new(ResponseCache::new()));
    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let active = Arc::clone(&active);
        std::thread::spawn(move || accept_loop(listener, plane, config, shutdown, active, cache))
    };
    Ok(ServerHandle {
        addr,
        shutdown,
        active,
        accept_thread: Some(accept_thread),
    })
}

/// Accepts until shutdown; spawns one serving thread per admitted
/// connection, rejects over-cap connections with `503`.
fn accept_loop(
    listener: TcpListener,
    plane: Arc<SnapshotPlane<TrackerSnapshot>>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    cache: Arc<Mutex<ResponseCache>>,
) {
    let reg = marauder_obs::global();
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                reg.counter_add("serve.conns.accepted", 1);
                if active.load(Ordering::Relaxed) >= config.max_connections {
                    reg.counter_add("serve.conns.rejected_busy", 1);
                    let mut busy = Response::text(503, "server at connection capacity\n");
                    busy.keep_alive = false;
                    let _ = stream.try_clone().and_then(|mut s| {
                        s.write_all(&busy.render())?;
                        s.shutdown(std::net::Shutdown::Both)
                    });
                    continue;
                }
                active.fetch_add(1, Ordering::Relaxed);
                let reader = plane.reader();
                let config = config.clone();
                let shutdown = Arc::clone(&shutdown);
                let active = Arc::clone(&active);
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    serve_connection(stream, reader, &config, &shutdown, &cache);
                    active.fetch_sub(1, Ordering::Relaxed);
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => {
                reg.counter_add("serve.conns.accept_errors", 1);
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

/// One connection's lifetime: read, parse, route, respond, repeat
/// while keep-alive holds and deadlines are met.
fn serve_connection(
    stream: TcpStream,
    mut reader: PlaneReader<TrackerSnapshot>,
    config: &ServeConfig,
    shutdown: &AtomicBool,
    cache: &Mutex<ResponseCache>,
) {
    let reg = marauder_obs::global();
    let mut stream = stream;
    if stream
        .set_read_timeout(Some(POLL_INTERVAL))
        .and_then(|()| stream.set_nodelay(true))
        .is_err()
    {
        reg.counter_add("serve.conns.setup_errors", 1);
        return;
    }

    let mut buf: Vec<u8> = Vec::new();
    // `head_started` is the instant the *current* request's first byte
    // arrived; `idle_since` paces the keep-alive wait between requests.
    let mut head_started: Option<Instant> = None;
    let mut idle_since = Instant::now();

    'conn: loop {
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        // Drain every complete pipelined request already buffered.
        loop {
            match parse_request(&buf) {
                Ok(Parsed::Complete { request, consumed }) => {
                    buf.drain(..consumed);
                    head_started = None;
                    idle_since = Instant::now();
                    let keep_alive = respond(&mut stream, &request, &mut reader, cache);
                    if !keep_alive {
                        break 'conn;
                    }
                }
                Ok(Parsed::Incomplete) => break,
                Err(err) => {
                    reject(&mut stream, &err);
                    break 'conn;
                }
            }
        }
        // Enforce deadlines on the partial head (or the idle wait).
        if buf.is_empty() {
            if idle_since.elapsed() > config.keep_alive_timeout {
                break; // Idle keep-alive expiry: close, nothing owed.
            }
        } else {
            let started = *head_started.get_or_insert_with(Instant::now);
            if started.elapsed() > config.head_timeout {
                reg.counter_add("serve.reject.head_timeout", 1);
                let mut timeout = Response::text(408, "request head timed out\n");
                timeout.keep_alive = false;
                let _ = stream.write_all(&timeout.render());
                break;
            }
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                if !buf.is_empty() {
                    reg.counter_add("serve.conns.mid_request_disconnects", 1);
                }
                break;
            }
            Ok(n) => {
                if head_started.is_none() {
                    head_started = Some(Instant::now());
                }
                buf.extend_from_slice(&chunk[..n]);
                if buf.len() > MAX_CONN_BUFFER {
                    reject(
                        &mut stream,
                        &HttpError::HeadTooLarge {
                            limit: crate::http::MAX_HEAD_BYTES,
                        },
                    );
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {
                reg.counter_add("serve.conns.read_errors", 1);
                break;
            }
        }
    }
}

/// Rendered responses for the snapshot-pure endpoints, valid for
/// exactly one snapshot epoch. [`route`] is a pure function of
/// `(request, snapshot)`, so a body computed for a target is reusable
/// verbatim by every connection until the next publish; the heavy
/// renders (GeoJSON tiles, track exports) then cost once per snapshot
/// instead of once per request. `/metrics` reads the live registry and
/// is never cached; a publish invalidates the whole map at once.
struct ResponseCache {
    epoch: u64,
    entries: HashMap<String, Response>,
}

impl ResponseCache {
    fn new() -> Self {
        ResponseCache {
            epoch: 0,
            entries: HashMap::new(),
        }
    }
}

/// Whether responses for `path` are pure in the snapshot (and thus
/// cacheable per epoch).
fn cacheable(path: &str) -> bool {
    path == "/tiles" || path == "/snapshot" || path.starts_with("/track/")
}

/// [`route`] behind the per-epoch cache. A miss computes under the
/// cache lock, so a herd of readers asking for the same heavy target
/// renders it exactly once. Note the lock is reader-plane only — the
/// ingest thread never takes it.
fn route_cached(
    request: &Request,
    snapshot: &TrackerSnapshot,
    epoch: u64,
    cache: &Mutex<ResponseCache>,
) -> Response {
    if !cacheable(&request.path) {
        return route(request, snapshot);
    }
    let reg = marauder_obs::global();
    let key = match &request.query {
        Some(q) => format!("{}?{q}", request.path),
        None => request.path.clone(),
    };
    let mut cache = cache.lock().unwrap_or_else(|p| p.into_inner());
    if cache.epoch != epoch {
        cache.entries.clear();
        cache.epoch = epoch;
    }
    if let Some(hit) = cache.entries.get(&key) {
        reg.counter_add("serve.cache.hits", 1);
        return hit.clone();
    }
    reg.counter_add("serve.cache.misses", 1);
    let computed = route(request, snapshot);
    if cache.entries.len() < MAX_CACHED_RESPONSES {
        cache.entries.insert(key, computed.clone());
    }
    computed
}

/// Routes one parsed request against the freshest snapshot and writes
/// the response. Returns whether the connection stays open.
fn respond(
    stream: &mut TcpStream,
    request: &Request,
    reader: &mut PlaneReader<TrackerSnapshot>,
    cache: &Mutex<ResponseCache>,
) -> bool {
    let reg = marauder_obs::global();
    reg.counter_add("serve.requests", 1);
    let _span = marauder_obs::span("serve.request");
    let (snapshot, epoch) = reader.current_with_epoch();
    let mut response = route_cached(request, snapshot, epoch, cache);
    response.keep_alive = response.keep_alive && request.keep_alive;
    let wire = response.render();
    let class = match response.status {
        200..=299 => "serve.responses.2xx",
        400..=499 => "serve.responses.4xx",
        _ => "serve.responses.5xx",
    };
    reg.counter_add(class, 1);
    reg.counter_add("serve.bytes_out", wire.len() as u64);
    match stream.write_all(&wire) {
        Ok(()) => response.keep_alive,
        Err(_) => {
            reg.counter_add("serve.conns.write_errors", 1);
            false
        }
    }
}

/// Answers a typed parse error with its 4xx/5xx and accounts for it
/// under `serve.reject.<kind>`. The connection always closes after —
/// the read stream can no longer be trusted to be request-aligned.
fn reject(stream: &mut TcpStream, err: &HttpError) {
    let reg = marauder_obs::global();
    reg.counter_add("serve.requests", 1);
    reg.counter_add("serve.responses.4xx", 1);
    // Registries are append-only maps keyed by name, so the dynamic
    // key set here is bounded by HttpError's variant count.
    reg.counter_add(&format!("serve.reject.{}", err.kind()), 1);
    let mut response = Response::text(err.status(), format!("{err}\n"));
    response.keep_alive = false;
    let wire = response.render();
    reg.counter_add("serve.bytes_out", wire.len() as u64);
    let _ = stream.write_all(&wire);
}

/// The routing table: a pure function of `(request, snapshot)`.
/// No clock, no I/O, no shared mutable state — everything
/// time-dependent lives in the connection loop, and everything
/// nondeterministic in a body is inside the obs registry's
/// `nondeterministic` section.
pub fn route(request: &Request, snapshot: &TrackerSnapshot) -> Response {
    match request.path.as_str() {
        "/" => Response::text(
            200,
            "marauder serve\n\
             endpoints: /healthz /metrics /snapshot /track/<mac> /tiles?bbox=x0,y0,x1,y1\n",
        ),
        "/healthz" => Response::text(200, "ok\n"),
        "/metrics" => Response::ok("application/json", marauder_obs::global().to_json()),
        "/snapshot" => {
            if snapshot.engine_doc.is_empty() {
                Response::text(404, "no engine snapshot published yet\n")
            } else {
                Response::ok("application/octet-stream", snapshot.engine_doc.as_slice())
            }
        }
        "/tiles" => match request.query_param("bbox") {
            None => Response::text(400, "missing required query parameter bbox\n"),
            Some(raw) => match BBox::parse(raw) {
                Ok(bbox) => Response::ok("application/geo+json", snapshot.tiles_geojson(&bbox)),
                Err(reason) => Response::text(400, format!("bad bbox: {reason}\n")),
            },
        },
        path => match path.strip_prefix("/track/") {
            Some(mac_str) => match marauder_wifi::mac::MacAddr::from_str(mac_str) {
                Ok(mac) => {
                    let rendered = match request.query_param("format") {
                        Some("json") => snapshot
                            .track_json(&mac)
                            .map(|body| Response::ok("application/json", body)),
                        Some("csv") | None => snapshot
                            .track_csv(&mac)
                            .map(|body| Response::ok("text/csv; charset=utf-8", body)),
                        Some(other) => {
                            return Response::text(
                                400,
                                format!("unknown format {other:?} (csv or json)\n"),
                            )
                        }
                    };
                    rendered.unwrap_or_else(|| Response::text(404, format!("no track for {mac}\n")))
                }
                Err(e) => Response::text(400, format!("bad mac: {e}\n")),
            },
            None => Response::text(404, format!("no such endpoint: {path}\n")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn get(path_and_query: &str) -> Request {
        let wire = format!("GET {path_and_query} HTTP/1.1\r\n\r\n");
        match parse_request(wire.as_bytes()) {
            Ok(Parsed::Complete { request, .. }) => request,
            other => panic!("bad test request: {other:?}"),
        }
    }

    #[test]
    fn routes_cover_the_surface() {
        let mut snapshot = TrackerSnapshot::empty();
        assert_eq!(route(&get("/healthz"), &snapshot).status, 200);
        assert_eq!(route(&get("/"), &snapshot).status, 200);
        assert_eq!(route(&get("/metrics"), &snapshot).status, 200);
        assert_eq!(route(&get("/nope"), &snapshot).status, 404);
        // Empty state: no engine snapshot, no tracks.
        assert_eq!(route(&get("/snapshot"), &snapshot).status, 404);
        assert_eq!(
            route(&get("/track/00:00:00:00:00:01"), &snapshot).status,
            404
        );
        snapshot.engine_doc = Arc::new(b"doc".to_vec());
        let served = route(&get("/snapshot"), &snapshot);
        assert_eq!(served.status, 200);
        assert_eq!(served.content_type, "application/octet-stream");
        assert_eq!(served.body, b"doc");
        // Tiles on empty state still renders a (featureless) document.
        let tiles = route(&get("/tiles?bbox=0,0,10,10"), &snapshot);
        assert_eq!(tiles.status, 200);
        assert_eq!(tiles.content_type, "application/geo+json");
    }

    #[test]
    fn bad_parameters_draw_400_not_404() {
        let snapshot = TrackerSnapshot::empty();
        assert_eq!(route(&get("/tiles"), &snapshot).status, 400);
        assert_eq!(route(&get("/tiles?bbox=zz"), &snapshot).status, 400);
        assert_eq!(route(&get("/track/not-a-mac"), &snapshot).status, 400);
        assert_eq!(
            route(&get("/track/00:00:00:00:00:01?format=xml"), &snapshot).status,
            400
        );
    }

    #[test]
    fn response_cache_serves_per_epoch_and_invalidates_on_publish() {
        let cache = Mutex::new(ResponseCache::new());
        let req = get("/snapshot");
        let mut snap_a = TrackerSnapshot::empty();
        snap_a.engine_doc = Arc::new(b"A".to_vec());
        let body_a = route_cached(&req, &snap_a, 1, &cache).body;

        // Same epoch, different snapshot object: the cache answers, so
        // the body must still be A's — this is what proves the hit.
        let mut snap_b = TrackerSnapshot::empty();
        snap_b.engine_doc = Arc::new(b"B".to_vec());
        assert_eq!(route_cached(&req, &snap_b, 1, &cache).body, body_a);

        // Epoch moved: the stale entry is invalidated wholesale.
        let body_b = route_cached(&req, &snap_b, 2, &cache).body;
        assert_ne!(body_b, body_a);

        // Registry-backed and trivial endpoints bypass the cache.
        assert!(!cacheable("/metrics"));
        assert!(!cacheable("/healthz"));
        assert!(cacheable("/track/aa:bb:cc:dd:ee:ff"));
        assert!(cacheable("/tiles"));
    }

    #[test]
    fn metrics_body_keeps_clock_values_quarantined() {
        let snapshot = TrackerSnapshot::empty();
        let body = String::from_utf8(route(&get("/metrics"), &snapshot).body).unwrap();
        // The deterministic section of the obs export must hold even
        // when served over HTTP: wall-clock-derived values appear only
        // under the "nondeterministic" key.
        let deterministic = match body.find("\"nondeterministic\"") {
            Some(at) => &body[..at],
            None => &body,
        };
        assert!(
            !deterministic.contains("duration") && !deterministic.contains("elapsed"),
            "clock values leaked into the deterministic metrics section"
        );
    }
}
