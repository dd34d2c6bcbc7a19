//! Live telemetry serving: an owned [`EngineHandle`] follows a streaming
//! archive while its zero-dependency HTTP server exposes `/metrics`,
//! `/healthz`, `/debug/traces`, `/debug/slow` and `/debug/explain/<id>` —
//! then the example scrapes its own endpoints so the run is self-contained
//! and self-terminating. A final sharded section runs one cross-shard query
//! and prints its stitched span tree plus its record, route explanations
//! included, served from the router's `/debug/explain/<id>`.
//!
//! ```text
//! cargo run --release --example telemetry_server
//! ```
//!
//! While it runs (or with the sleep at the end stretched out), point a real
//! scraper at it:
//!
//! ```text
//! curl http://127.0.0.1:<port>/metrics
//! curl http://127.0.0.1:<port>/healthz
//! curl http://127.0.0.1:<port>/debug/traces
//! ```

use hris::prelude::*;
use hris::MetricsRegistry;
use hris_geo::Point;
use hris_roadnet::{generator, NetworkConfig};
use hris_router::{ShardPlan, ShardedEngine};
use hris_traj::{
    resample_to_interval, simulator, GpsPoint, SimConfig, Simulator, TrajId, Trajectory,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// A plain-socket GET, so the example needs no HTTP client either.
fn curl(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: example\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

/// Scrapes `/debug/traces` and prints the newest record's span tree, the
/// way an operator reads where one query's time went. Returns the record's
/// trace id.
fn print_newest_tree(addr: std::net::SocketAddr) -> u64 {
    let raw = curl(addr, "/debug/traces");
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    let doc: serde_json::Value = serde_json::from_str(body).expect("/debug/traces is JSON");
    let rec = doc["traces"]
        .as_array()
        .and_then(|traces| traces.last())
        .expect("the ring holds at least one record");
    let spans = rec["spans"].as_array().expect("every record has a tree");
    let trace_id = rec["trace_id"].as_u64().expect("trace id");
    println!(
        "/debug/traces → trace {trace_id}, query {}: {:.2} ms in {} spans",
        rec["query_id"],
        rec["total_s"].as_f64().unwrap_or(0.0) * 1e3,
        spans.len()
    );
    let mut stack = vec![(rec["root_span"].as_u64().expect("root span"), 0usize)];
    while let Some((id, depth)) = stack.pop() {
        let span = spans
            .iter()
            .find(|s| s["id"].as_u64() == Some(id))
            .expect("span in tree");
        let attrs = span
            .get("attrs")
            .and_then(serde_json::Value::as_obj)
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "  {:indent$}{} ({:.2} ms) {attrs}",
            "",
            span["name"].as_str().unwrap_or_default(),
            span["duration_s"].as_f64().unwrap_or(0.0) * 1e3,
            indent = depth * 2
        );
        // The stack pops last-first; push in reverse to keep start order.
        for kid in spans.iter().rev() {
            if kid["parent"].as_u64() == Some(id) {
                stack.push((kid["id"].as_u64().expect("span id"), depth + 1));
            }
        }
    }
    trace_id
}

fn main() {
    // 1. City, simulated fleet, and a day-one archive.
    let net = Arc::new(generator::generate(&NetworkConfig::default()));
    let mut sim = Simulator::new(
        &net,
        SimConfig {
            num_trips: 900,
            num_od_patterns: 30,
            min_trip_dist_m: 3_000.0,
            seed: 11,
            ..SimConfig::default()
        },
    );
    let (archive, _truth) = sim.generate_archive();
    let mut trips = archive.trajectories().to_vec();
    let stream = trips.split_off(300);

    // 2. One shared registry: the ingest writer and the engine handle both
    //    record into it, so a single /metrics scrape covers the pipeline.
    let registry = Arc::new(MetricsRegistry::new());
    let mut writer = ArchiveWriter::new(TrajectoryArchive::new(trips));
    writer.observe(&registry);
    let cfg = EngineConfig::builder()
        .observability(true)
        .span_sampling(4) // 1-in-4 trees add per-pair detail
        .staleness_bound_s(30.0)
        .build()
        .expect("valid config");
    let handle = Arc::new(EngineHandle::live_with_registry(
        Arc::clone(&net),
        writer.reader(),
        HrisParams::default(),
        cfg,
        Arc::clone(&registry),
    ));

    // 3. Start the telemetry server on an ephemeral port.
    let server = handle.serve_metrics("127.0.0.1:0").expect("bind server");
    println!("telemetry server listening on http://{}", server.addr());

    // 4. Traffic: a query thread hammers the handle while this thread
    //    streams the rest of the fleet into the archive, epoch by epoch.
    let (_, _, route) = sim
        .od_with_dist(4_000.0, 6_000.0)
        .expect("found a suitable trip");
    let dense = simulator::drive_route(&net, &route, 0.0, 20.0, 0.8).expect("route drivable");
    let query = resample_to_interval(&Trajectory::new(TrajId(0), dense), 180.0);
    let querier = {
        let handle = Arc::clone(&handle);
        let query = query.clone();
        std::thread::spawn(move || {
            for _ in 0..6 {
                let _ = handle.infer_batch_detailed(&[query.clone(), query.clone()], 2);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    };
    for chunk in stream.chunks(200) {
        writer.append_batch(chunk.to_vec());
        let snap = writer.publish();
        println!(
            "published epoch {}: {} trips ({:.3}s old)",
            snap.epoch(),
            snap.num_trajectories(),
            snap.age_seconds()
        );
    }
    querier.join().expect("query thread");

    // 5. Scrape our own endpoints, exactly as an operator would.
    let health = curl(server.addr(), "/healthz");
    println!("\n/healthz → {}", health.lines().next().unwrap_or_default());
    let metrics = curl(server.addr(), "/metrics");
    for line in metrics.lines().filter(|l| {
        l.starts_with("hris_engine_queries_total")
            || l.starts_with("hris_snapshot_age_seconds")
            || l.starts_with("hris_archive_epoch")
            || l.starts_with("hris_engine_slo_")
    }) {
        println!("/metrics → {line}");
    }
    // Every record carries its phase tree; here is the newest one, and
    // the same record with its route explanations.
    let newest = print_newest_tree(server.addr());
    let raw = curl(server.addr(), &format!("/debug/explain/{newest}"));
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    let rec: serde_json::Value = serde_json::from_str(body).expect("/debug/explain is JSON");
    println!(
        "/debug/explain/{newest} → outcome {}, {} routes explained",
        rec["outcome"],
        rec["explanations"].as_array().map_or(0, Vec::len)
    );

    // 6. Clean shutdown: the server thread joins before main exits.
    server.shutdown();
    println!("telemetry server stopped");

    // 7. Sharded deployment: one cross-shard query, one record with its
    //    stitched span tree — fetched end-to-end through the router's own
    //    debug endpoints.
    let params = HrisParams::default();
    let plan = ShardPlan::grid(&net, 2, 1, params.phi_m + 900.0);
    let seam_x = plan.core(0).max.x;
    let sharded = Arc::new(ShardedEngine::build(
        Arc::clone(&net),
        &archive,
        params,
        EngineConfig::builder()
            .observability(true) // one record per query into the router's ring
            .build()
            .expect("valid config"),
        plan,
    ));
    let router_srv = sharded
        .serve_metrics("127.0.0.1:0")
        .expect("bind router server");
    println!("\nrouter telemetry on http://{}", router_srv.addr());

    // A query straddling the shard seam, so routing scatters it across
    // both shards and the gather splices the halves back together.
    let y = net.bbox().center().y;
    let seam_query = Trajectory::new(
        TrajId(7_000),
        [-1_400.0, -700.0, 700.0, 1_400.0]
            .iter()
            .enumerate()
            .map(|(i, dx)| {
                GpsPoint::new(
                    Point::new(seam_x + dx, y + i as f64 * 40.0),
                    i as f64 * 120.0,
                )
            })
            .collect(),
    );
    let (result, route) = sharded.infer_query_traced(&seam_query, 2);
    println!(
        "query {:?} via shards {:?} → {} routes",
        route.kind,
        route.pair_shards,
        result.globals.len()
    );

    // The stitched span tree: one root, every touched shard's local
    // inference, then the router-side gather and splice.
    let trace_id = print_newest_tree(router_srv.addr());

    // The query's record, exactly as an operator would read it.
    let shards = curl(router_srv.addr(), "/debug/shards");
    println!(
        "\n/debug/shards → {}",
        shards.lines().last().unwrap_or_default()
    );
    let explain = curl(router_srv.addr(), &format!("/debug/explain/{trace_id}"));
    println!(
        "/debug/explain/{trace_id} → {}",
        explain.lines().last().unwrap_or_default()
    );

    router_srv.shutdown();
    println!("router telemetry server stopped");
}
