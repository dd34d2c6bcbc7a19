//! End-to-end test of [`EngineHandle::serve_metrics`]: a live ingest
//! thread publishing epochs, a handle serving queries, and the telemetry
//! endpoints scraped over real TCP.
//!
//! Pins the three serving contracts:
//! * `/metrics` is byte-identical to [`hris_obs::export::prometheus_text`]
//!   over the same registry;
//! * `/healthz` flips to 503 when the served snapshot outlives
//!   `ObsOptions::staleness_bound_s`, and recovers on the next publish;
//! * `/debug/traces` serves every record with its span tree and
//!   `/debug/slow` filters to slow traces only; the JSON metrics endpoint
//!   of earlier versions is gone (404);
//! * `/debug/explain/<trace_id>` serves one query's record from the
//!   handle's ring, route explanations included.

use hris::{EngineConfig, EngineHandle, HrisParams};
use hris_obs::{export, MetricsRegistry};
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_traj::{ArchiveWriter, GpsPoint, TrajId, Trajectory, TrajectoryArchive};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn net() -> Arc<RoadNetwork> {
    Arc::new(generator::generate(&NetworkConfig::small(5)))
}

fn query(x0: f64) -> Trajectory {
    Trajectory::new(
        TrajId(0),
        (0..4)
            .map(|k| {
                GpsPoint::new(
                    hris_geo::Point::new(x0 + k as f64 * 400.0, 120.0),
                    k as f64 * 120.0,
                )
            })
            .collect(),
    )
}

/// Minimal HTTP/1.1 GET over a plain socket: status code + body.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn serve_metrics_requires_observability() {
    let handle = Arc::new(EngineHandle::new(
        net(),
        TrajectoryArchive::empty(),
        HrisParams::default(),
    ));
    let err = handle.serve_metrics("127.0.0.1:0").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

#[test]
fn live_handle_serves_telemetry_and_tracks_staleness() {
    let net = net();
    let registry = Arc::new(MetricsRegistry::new());
    let mut writer = ArchiveWriter::new(TrajectoryArchive::empty());
    writer.observe(&registry);
    let cfg = EngineConfig::builder()
        .observability(true)
        .span_sampling(1)
        .staleness_bound_s(0.5)
        .build()
        .unwrap();
    let handle = Arc::new(EngineHandle::live_with_registry(
        Arc::clone(&net),
        writer.reader(),
        HrisParams::default(),
        cfg,
        Arc::clone(&registry),
    ));
    let server = handle.serve_metrics("127.0.0.1:0").expect("bind server");
    let addr = server.addr();

    // Serve some traffic so every metric family has real values.
    let _ = handle.infer_batch_detailed(&[query(0.0), query(300.0)], 2);

    // Publish a fresh epoch *now* so the snapshot age is far below the
    // 0.5 s staleness bound when we scrape.
    writer.append(query(0.0));
    writer.publish();
    let (code, body) = http_get(addr, "/healthz");
    assert_eq!(code, 200, "fresh snapshot must be healthy: {body}");
    assert!(body.contains("\"snapshot_freshness\":\"ok\""), "{body}");

    // /metrics is byte-identical to the library exporter over the same
    // registry (the scrape's pre-hook wrote the watchdog gauge first, so
    // our snapshot sees the same value).
    let (code, scraped) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    assert_eq!(scraped, export::prometheus_text(&registry.snapshot()));
    assert!(scraped.contains("hris_snapshot_age_seconds"), "{scraped}");
    assert!(scraped.contains("hris_engine_queries_total 2"));
    assert!(scraped.contains("hris_ingest_appended_total 1"));

    // Let the snapshot outlive the bound without a publish: unhealthy.
    std::thread::sleep(Duration::from_millis(700));
    let (code, body) = http_get(addr, "/healthz");
    assert_eq!(code, 503, "stale snapshot must be unhealthy: {body}");
    assert!(body.contains("snapshot is"), "{body}");

    // The ingest thread catches up — health recovers with the new epoch.
    writer.append(query(600.0));
    writer.publish();
    let (code, _) = http_get(addr, "/healthz");
    assert_eq!(code, 200, "publish must restore freshness");

    // Metrics are exported once, as Prometheus text.
    let (code, _) = http_get(addr, "/varz");
    assert_eq!(code, 404);

    // Every record carries its tree (1-in-1 sampling adds pair detail).
    let (code, traces) = http_get(addr, "/debug/traces");
    assert_eq!(code, 200);
    assert!(traces.contains("\"root_span\":"), "{traces}");
    assert!(traces.contains("\"name\":\"query\""), "{traces}");

    // Nothing here was slow (default threshold 1s), so /debug/slow is empty.
    let (code, slow) = http_get(addr, "/debug/slow");
    assert_eq!(code, 200);
    assert!(slow.contains("\"traces\":[]"), "{slow}");

    server.shutdown();
}

#[test]
fn handle_serves_a_record_from_debug_explain() {
    let cfg = EngineConfig::builder().observability(true).build().unwrap();
    let handle = Arc::new(EngineHandle::with_config(
        net(),
        TrajectoryArchive::empty(),
        HrisParams::default(),
        cfg,
    ));
    let server = handle.serve_metrics("127.0.0.1:0").expect("bind server");
    let result = handle.infer_query(&query(0.0), 2);
    let rec = handle
        .observability()
        .expect("observability on")
        .traces()
        .pop()
        .expect("the query is recorded");
    assert_eq!(rec.explanations.len(), result.globals.len());

    let (code, body) = http_get(server.addr(), &format!("/debug/explain/{}", rec.trace_id));
    assert_eq!(code, 200, "{body}");
    assert_eq!(body, rec.to_json());
    let v: serde_json::Value = serde_json::from_str(&body).expect("record is JSON");
    assert_eq!(v.get("outcome").and_then(|o| o.as_str()), Some("served"));
    let (code, _) = http_get(
        server.addr(),
        &format!("/debug/explain/{}", rec.trace_id + 1),
    );
    assert_eq!(code, 404, "an id the ring does not hold is a 404");
    server.shutdown();
}
