//! A zero-dependency blocking HTTP/1.1 telemetry server.
//!
//! Serves the observability surface of a running engine over plain std
//! networking (`TcpListener`, no crates.io), one short-lived connection at
//! a time — scrape traffic is a Prometheus poll every few seconds plus the
//! occasional operator curl, so a single blocking thread is the simplest
//! thing that is obviously correct. Endpoints:
//!
//! | Path            | Content | Body |
//! |-----------------|---------|------|
//! | `/metrics`      | `text/plain; version=0.0.4` | Prometheus text, byte-identical to [`prometheus_text`] of the scrape-time snapshot |
//! | `/healthz`      | `application/json` | `{"status", "checks"}`; HTTP 503 when any check fails |
//! | `/debug/traces` | `application/json` | the trace ring, span trees included |
//! | `/debug/slow`   | `application/json` | only the slow-flagged traces |
//!
//! Anything else is 404; non-GET methods are 405. Requests are parsed only
//! as far as the request line — headers are read and discarded.
//!
//! The server never touches engine internals directly: it is configured
//! with a registry handle, an optional [`TraceRing`] clone, and closures
//! for health checks and pre-scrape refresh (e.g. updating a staleness
//! gauge). That keeps `hris-obs` dependency-free and
//! lets any binary — engine, ingest worker, test — expose telemetry.

use crate::export::{prometheus_text, MetricsSnapshot};
use crate::registry::MetricsRegistry;
use crate::ring::TraceRing;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Outcome of one health check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// The checked subsystem is live.
    Ok,
    /// The checked subsystem is unhealthy, with a reason.
    Unhealthy(String),
}

type CheckFn = Box<dyn Fn() -> Health + Send + Sync>;
type HookFn = Box<dyn Fn() + Send + Sync>;
type SnapshotFn = Box<dyn Fn() -> MetricsSnapshot + Send + Sync>;
type DebugFn = Box<dyn Fn(&str) -> Option<String> + Send + Sync>;

/// Everything a telemetry server serves: built once, then handed to
/// [`ServeState::serve`].
pub struct ServeState {
    registry: Arc<MetricsRegistry>,
    traces: Option<TraceRing>,
    checks: Vec<(String, CheckFn)>,
    pre_scrape: Vec<HookFn>,
    snapshot: Option<SnapshotFn>,
    debug: Vec<(String, DebugFn)>,
}

impl ServeState {
    /// A server state exposing this registry (and nothing else yet).
    #[must_use]
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        ServeState {
            registry,
            traces: None,
            checks: Vec::new(),
            pre_scrape: Vec::new(),
            snapshot: None,
            debug: Vec::new(),
        }
    }

    /// Exposes a trace ring on `/debug/traces` and `/debug/slow` (pass a
    /// clone — the ring shares storage).
    #[must_use]
    pub fn with_traces(mut self, ring: TraceRing) -> Self {
        self.traces = Some(ring);
        self
    }

    /// Adds a named health check; `/healthz` reports 503 when any check
    /// returns [`Health::Unhealthy`].
    #[must_use]
    pub fn health_check(
        mut self,
        name: &str,
        check: impl Fn() -> Health + Send + Sync + 'static,
    ) -> Self {
        self.checks.push((name.to_string(), Box::new(check)));
        self
    }

    /// Adds a hook run before every `/metrics` and `/healthz`
    /// response — the place to refresh scrape-time gauges such as
    /// `hris_snapshot_age_seconds`.
    #[must_use]
    pub fn pre_scrape(mut self, hook: impl Fn() + Send + Sync + 'static) -> Self {
        self.pre_scrape.push(Box::new(hook));
        self
    }

    /// Replaces the snapshot behind `/metrics` with a caller-provided
    /// one — e.g. a sharded router's federated snapshot
    /// merging every shard's registry under a `shard` label — instead of
    /// the constructor registry's own.
    #[must_use]
    pub fn snapshot_provider(
        mut self,
        provider: impl Fn() -> MetricsSnapshot + Send + Sync + 'static,
    ) -> Self {
        self.snapshot = Some(Box::new(provider));
        self
    }

    /// Mounts a JSON debug handler under a path prefix (e.g.
    /// `/debug/explain`). The handler receives the remainder of the
    /// request path with any leading `/` removed — `""` for the bare
    /// prefix, `"42"` for `/debug/explain/42` — and returns the JSON body,
    /// or `None` for a 404. Built-in paths win over prefixes; prefixes are
    /// tried in registration order.
    #[must_use]
    pub fn debug_handler(
        mut self,
        prefix: &str,
        handler: impl Fn(&str) -> Option<String> + Send + Sync + 'static,
    ) -> Self {
        self.debug.push((prefix.to_string(), Box::new(handler)));
        self
    }

    /// Binds `addr` (e.g. `"127.0.0.1:9100"`; port 0 picks a free port)
    /// and starts the serving thread. The returned handle stops the server
    /// when shut down or dropped.
    pub fn serve(self, addr: impl ToSocketAddrs) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("hris-telemetry".to_string())
            .spawn(move || {
                while !stop_thread.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => self.handle_connection(stream),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    fn handle_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let Some((method, path)) = read_request_line(&mut stream) else {
            return;
        };
        let (status, content_type, body) = if method != "GET" {
            (
                405,
                "application/json",
                "{\"error\":\"method not allowed\"}".to_string(),
            )
        } else {
            self.respond(path.split('?').next().unwrap_or(&path))
        };
        let reason = match status {
            200 => "OK",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        };
        let _ = write!(
            stream,
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let _ = stream.write_all(body.as_bytes());
        let _ = stream.flush();
    }

    /// Routes one GET; returns `(status, content type, body)`.
    fn respond(&self, path: &str) -> (u16, &'static str, String) {
        match path {
            "/metrics" => {
                self.run_pre_scrape();
                let body = prometheus_text(&self.scrape_snapshot());
                (200, "text/plain; version=0.0.4; charset=utf-8", body)
            }
            "/healthz" => {
                self.run_pre_scrape();
                let mut healthy = true;
                let mut checks = String::new();
                for (i, (name, check)) in self.checks.iter().enumerate() {
                    if i > 0 {
                        checks.push(',');
                    }
                    let verdict = match check() {
                        Health::Ok => "\"ok\"".to_string(),
                        Health::Unhealthy(reason) => {
                            healthy = false;
                            format!("\"{}\"", crate::export::escape_json(&reason))
                        }
                    };
                    checks.push_str(&format!(
                        "\"{}\":{verdict}",
                        crate::export::escape_json(name)
                    ));
                }
                let status = if healthy { "ok" } else { "unhealthy" };
                let body = format!("{{\"status\":\"{status}\",\"checks\":{{{checks}}}}}");
                (if healthy { 200 } else { 503 }, "application/json", body)
            }
            "/debug/traces" => (200, "application/json", self.traces_json(false)),
            "/debug/slow" => (200, "application/json", self.traces_json(true)),
            other => {
                for (prefix, handler) in &self.debug {
                    let Some(rest) = other.strip_prefix(prefix.as_str()) else {
                        continue;
                    };
                    if !rest.is_empty() && !rest.starts_with('/') {
                        continue; // /debug/explainer must not match /debug/explain
                    }
                    if let Some(body) = handler(rest.strip_prefix('/').unwrap_or(rest)) {
                        return (200, "application/json", body);
                    }
                }
                (
                    404,
                    "application/json",
                    "{\"error\":\"not found\"}".to_string(),
                )
            }
        }
    }

    fn run_pre_scrape(&self) {
        for hook in &self.pre_scrape {
            hook();
        }
    }

    /// The scrape-time snapshot: the provider's when one is configured,
    /// otherwise the constructor registry's.
    fn scrape_snapshot(&self) -> MetricsSnapshot {
        match &self.snapshot {
            Some(provider) => provider(),
            None => self.registry.snapshot(),
        }
    }

    fn traces_json(&self, slow_only: bool) -> String {
        let Some(ring) = &self.traces else {
            return "{\"dropped\":0,\"traces\":[]}".to_string();
        };
        let traces = ring
            .snapshot()
            .iter()
            .filter(|r| !slow_only || r.slow)
            .map(crate::trace::TraceRecord::to_json)
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"dropped\":{},\"traces\":[{traces}]}}", ring.dropped())
    }
}

/// Reads up to the end of the request headers and returns the request
/// line's `(method, path)`. `None` on malformed or timed-out input.
fn read_request_line(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    Some((method, path))
}

/// A running telemetry server. Dropping it (or calling
/// [`MetricsServer::shutdown`]) stops the serving thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the serving thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One blocking GET against a local server; returns (status, body).
    pub(crate) fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn demo_registry() -> Arc<MetricsRegistry> {
        let r = MetricsRegistry::new();
        r.counter("req_total", "Requests.").add(3);
        r.gauge("depth", "Depth.").set(-2);
        Arc::new(r)
    }

    #[test]
    fn metrics_endpoint_matches_prometheus_text() {
        let registry = demo_registry();
        let server = ServeState::new(Arc::clone(&registry))
            .serve("127.0.0.1:0")
            .expect("bind");
        let (status, body) = http_get(server.addr(), "/metrics");
        assert_eq!(status, 200);
        assert_eq!(body, prometheus_text(&registry.snapshot()));
        server.shutdown();
    }

    #[test]
    fn healthz_reports_and_flips() {
        let healthy = Arc::new(AtomicBool::new(true));
        let flag = Arc::clone(&healthy);
        let server = ServeState::new(demo_registry())
            .health_check("engine", || Health::Ok)
            .health_check("ingest", move || {
                if flag.load(Ordering::Relaxed) {
                    Health::Ok
                } else {
                    Health::Unhealthy("snapshot too old".to_string())
                }
            })
            .serve("127.0.0.1:0")
            .expect("bind");
        let (status, body) = http_get(server.addr(), "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
        healthy.store(false, Ordering::Relaxed);
        let (status, body) = http_get(server.addr(), "/healthz");
        assert_eq!(status, 503);
        assert!(body.contains("\"status\":\"unhealthy\""));
        assert!(body.contains("snapshot too old"));
    }

    #[test]
    fn debug_traces_and_slow_filter() {
        use crate::ring::TraceRing;
        use crate::trace::TraceRecord;
        let ring = TraceRing::new(8);
        let _ = ring.push(TraceRecord {
            query_id: 1,
            ..TraceRecord::default()
        });
        let _ = ring.push(TraceRecord {
            query_id: 2,
            slow: true,
            ..TraceRecord::default()
        });
        let server = ServeState::new(demo_registry())
            .with_traces(ring.clone())
            .serve("127.0.0.1:0")
            .expect("bind");
        let (_, all) = http_get(server.addr(), "/debug/traces");
        assert!(all.contains("\"query_id\":1") && all.contains("\"query_id\":2"));
        let (_, slow) = http_get(server.addr(), "/debug/slow");
        assert!(!slow.contains("\"query_id\":1") && slow.contains("\"query_id\":2"));
    }

    #[test]
    fn unknown_path_404_and_post_405() {
        let server = ServeState::new(demo_registry())
            .serve("127.0.0.1:0")
            .expect("bind");
        let (status, _) = http_get(server.addr(), "/nope");
        assert_eq!(status, 404);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 405"));
    }

    #[test]
    fn snapshot_provider_overrides_metrics() {
        let federated = MetricsRegistry::new();
        federated
            .counter("shard_req_total", "Per-shard requests.")
            .add(9);
        let snap = federated.snapshot().with_labels(&[("shard", "3")]);
        let server = ServeState::new(demo_registry())
            .snapshot_provider(move || snap.clone())
            .serve("127.0.0.1:0")
            .expect("bind");
        let (_, body) = http_get(server.addr(), "/metrics");
        assert!(body.contains("shard_req_total{shard=\"3\"} 9"));
        assert!(
            !body.contains("req_total 3"),
            "constructor registry replaced"
        );
    }

    #[test]
    fn debug_handlers_route_by_prefix() {
        let server = ServeState::new(demo_registry())
            .debug_handler("/debug/shards", |rest| {
                rest.is_empty().then(|| "{\"shards\":2}".to_string())
            })
            .debug_handler("/debug/explain", |id| {
                (id == "42").then(|| "{\"trace_id\":42}".to_string())
            })
            .serve("127.0.0.1:0")
            .expect("bind");
        let (status, body) = http_get(server.addr(), "/debug/shards");
        assert_eq!((status, body.as_str()), (200, "{\"shards\":2}"));
        let (status, body) = http_get(server.addr(), "/debug/explain/42");
        assert_eq!((status, body.as_str()), (200, "{\"trace_id\":42}"));
        let (status, _) = http_get(server.addr(), "/debug/explain/7");
        assert_eq!(status, 404, "handler None is a 404");
        let (status, _) = http_get(server.addr(), "/debug/explainer");
        assert_eq!(status, 404, "prefix must end at a path boundary");
        let (status, _) = http_get(server.addr(), "/debug/traces");
        assert_eq!(status, 200, "built-in paths still served");
    }

    /// The request line is untrusted bytes: whatever arrives, the serving
    /// thread answers or closes the connection and keeps serving. Every
    /// head is written and then half-closed, so the server sees end of
    /// input instead of waiting out its 2 s read timeout.
    #[test]
    fn malformed_request_heads_never_wedge_the_server() {
        use proptest::prelude::*;
        use std::net::Shutdown;
        use std::time::Instant;

        let server = ServeState::new(demo_registry())
            .serve("127.0.0.1:0")
            .expect("bind");
        let addr = server.addr();
        proptest::test_runner::run(
            ProptestConfig::with_cases(224),
            file!(),
            "malformed_request_heads_never_wedge_the_server",
            |rng| {
                let seed = (0u64..u64::MAX).generate(rng);
                // Every byte of the head derives from `seed` (an LCG), so
                // the seed in a failure message replays the case.
                let mut state = seed;
                let mut random = |max: u64| {
                    let mut next = || {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        state >> 33
                    };
                    let len = next() % max;
                    (0..len).map(|_| next() as u8).collect::<Vec<u8>>()
                };
                let head: Vec<u8> = match seed % 8 {
                    0 => random(96), // NULs and invalid UTF-8 included
                    1 => Vec::new(),
                    2 => b"GET".to_vec(),
                    3 => b"GET ".to_vec(),
                    4 => [b"GET /".as_slice(), &[b'a'; 10_000]].concat(),
                    5 => b"\r\n".repeat(1 + (seed % 3) as usize),
                    6 => b"GET /metrics HTTP/1.1\r\nHost: t".to_vec(),
                    _ => [b"GET /".as_slice(), &random(64), b" HTTP/1.1\r\n\r\n"].concat(),
                };
                let started = Instant::now();
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .expect("timeout");
                // The server may answer and close before a long head is
                // fully written; a failed write is a closed connection.
                let _ = stream.write_all(&head);
                let _ = stream.shutdown(Shutdown::Write);
                // A reset is a close; a connection left open runs into the
                // client timeout and fails the elapsed-time check below.
                let mut response = Vec::new();
                let _ = stream.read_to_end(&mut response);
                prop_assert!(
                    response.is_empty() || response.starts_with(b"HTTP/1.1 "),
                    "seed {seed}: garbled response {:?}",
                    String::from_utf8_lossy(&response)
                );
                prop_assert!(
                    started.elapsed() < Duration::from_millis(1500),
                    "seed {seed}: left open, or closed only by the read timeout"
                );
                Ok(())
            },
        );
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
        let (status, _) = http_get(addr, "/varz");
        assert_eq!(status, 404, "the JSON metrics endpoint is gone");
        server.shutdown();
    }

    #[test]
    fn pre_scrape_hook_runs_before_metrics() {
        let registry = demo_registry();
        let gauge = registry.gauge("age_seconds", "Age.");
        let server = ServeState::new(Arc::clone(&registry))
            .pre_scrape(move || gauge.set(42))
            .serve("127.0.0.1:0")
            .expect("bind");
        let (_, body) = http_get(server.addr(), "/metrics");
        assert!(body.contains("age_seconds 42"));
    }
}
