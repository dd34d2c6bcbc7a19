//! Distributed tracing integration suite: a cross-shard scatter-gather
//! query against a **live** router [`MetricsServer`] must yield exactly one
//! record whose stitched span tree — routing → per-shard local inference →
//! gather → splice — is assembled under one trace id, and the router must
//! serve that record, route explanations included, from
//! `/debug/explain/<trace_id>`.
//!
//! The span tree is checked both in-process (through the router's trace
//! ring) and over real TCP (`/debug/traces`), alongside the new
//! `/debug/shards` topology endpoint and the per-shard health checks.

use hris::{EngineConfig, HrisParams, QueryOutcome};
use hris_geo::Point;
use hris_obs::{QueryRecord, Span};
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_router::{RouteKind, ShardHealth, ShardPlan, ShardedEngine};
use hris_traj::{GpsPoint, SimConfig, Simulator, TrajId, Trajectory, TrajectoryArchive};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn net() -> Arc<RoadNetwork> {
    Arc::new(generator::generate(&NetworkConfig {
        blocks_x: 20,
        blocks_y: 20,
        block_m: 300.0,
        seed: 19,
        ..NetworkConfig::default()
    }))
}

fn sim_archive(net: &RoadNetwork, trips: usize, seed: u64) -> TrajectoryArchive {
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: trips,
            num_od_patterns: 7,
            min_trip_dist_m: 400.0,
            seed,
            ..SimConfig::default()
        },
    );
    sim.generate_archive().0
}

/// A 4-point walk straddling `seam_x` left-to-right: with margin φ + 900 m
/// and `step` ≤ 900 m every pair is partition-respecting, so the query
/// scatters across both shards of a 2×1 grid.
fn seam_query(seam_x: f64, y: f64, step: f64) -> Trajectory {
    let xs = [
        seam_x - 2.0 * step,
        seam_x - step,
        seam_x + step,
        seam_x + 2.0 * step,
    ];
    Trajectory::new(
        TrajId(8_000_000),
        xs.iter()
            .enumerate()
            .map(|(i, &x)| GpsPoint::new(Point::new(x, y + i as f64 * 40.0), i as f64 * 120.0))
            .collect(),
    )
}

/// A short walk well inside shard `s`'s core, far from every seam, so the
/// router must delegate it whole.
fn core_query(engine: &ShardedEngine, s: usize) -> Trajectory {
    let c = engine.plan().core(s).center();
    Trajectory::new(
        TrajId(7_000_000 + s as u32),
        (0..4)
            .map(|i| {
                GpsPoint::new(
                    Point::new(c.x - 300.0 + i as f64 * 150.0, c.y + i as f64 * 80.0),
                    i as f64 * 90.0,
                )
            })
            .collect(),
    )
}

fn traced_engine(net: &Arc<RoadNetwork>, archive: &TrajectoryArchive) -> Arc<ShardedEngine> {
    let params = HrisParams::default();
    let plan = ShardPlan::grid(net, 2, 1, params.phi_m + 900.0);
    let cfg = EngineConfig::builder()
        .observability(true)
        .build()
        .expect("static engine configuration");
    Arc::new(ShardedEngine::build(
        Arc::clone(net),
        archive,
        params,
        cfg,
        plan,
    ))
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

/// Structural validation of a stitched cross-shard tree: exactly one root
/// named `query`, every parent resolvable, the pipeline stages present and
/// parented where the stitch puts them.
fn assert_stitched(rec: &QueryRecord, expect_shards: usize) {
    let spans = &rec.spans;
    assert!(!spans.is_empty(), "traced query must capture spans");
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    assert_eq!(roots[0].name, "query");
    assert_eq!(roots[0].id, rec.root_span, "record points at the root");
    let root_id = roots[0].id;

    let find_ids = |name: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.id)
            .collect()
    };
    // Every parent resolves inside the tree.
    for s in spans {
        assert!(
            s.parent == 0 || spans.iter().any(|p| p.id == s.parent),
            "span {} ({}) has unresolvable parent {}",
            s.id,
            s.name,
            s.parent
        );
    }
    // Stage spans, parented under the root.
    for stage in ["routing", "gather", "splice"] {
        let ids = find_ids(stage);
        assert_eq!(ids.len(), 1, "exactly one {stage} span");
        let s = spans.iter().find(|s| s.id == ids[0]).unwrap();
        assert_eq!(s.parent, root_id, "{stage} hangs off the root");
    }
    let shard_ids = find_ids("shard");
    assert_eq!(
        shard_ids.len(),
        expect_shards,
        "one shard span per touched shard"
    );
    for id in &shard_ids {
        let s = spans.iter().find(|s| s.id == *id).unwrap();
        assert_eq!(s.parent, root_id, "shard spans hang off the root");
    }
    // The stitch itself: the shards' own phase spans landed under the
    // router's shard spans.
    let phase_spans: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "candidates" || s.name == "local")
        .collect();
    assert!(
        !phase_spans.is_empty(),
        "shard-side phase spans must ride along in the stitched tree"
    );
    for s in &phase_spans {
        assert!(
            shard_ids.contains(&s.parent),
            "phase span {} must be parented under a shard span",
            s.name
        );
    }
    // One shared clock origin: span offsets are sane and ordered.
    for s in spans {
        assert!(s.start_s >= 0.0 && s.duration_s >= 0.0);
    }
}

#[test]
fn scatter_query_stitches_one_span_tree_served_by_the_live_router() {
    let net = net();
    let archive = sim_archive(&net, 90, 12);
    let engine = traced_engine(&net, &archive);
    let seam_x = engine.plan().core(0).max.x;
    let q = seam_query(seam_x, net.bbox().center().y, 700.0);

    let (result, route) = engine.infer_query_traced(&q, 2);
    assert_eq!(route.kind, RouteKind::Scatter, "seam query must scatter");
    assert!(matches!(result.outcome, QueryOutcome::Ok));
    let touched: std::collections::HashSet<usize> = route.pair_shards.iter().copied().collect();
    assert_eq!(touched.len(), 2, "workload must touch both shards");

    // Exactly one record in the ring, structurally stitched.
    let ring = engine.trace_ring().expect("tracing is on");
    let recs = ring.snapshot();
    assert_eq!(recs.len(), 1, "one query, one stitched trace record");
    let rec = &recs[0];
    assert!(rec.trace_id > 0, "traced query minted a trace id");
    assert_eq!(rec.points, 4);
    assert_eq!(rec.pairs, 3);
    assert_eq!(rec.routes, result.globals.len());
    assert_stitched(rec, 2);
    assert_ne!(rec.query_id, 0);
    assert_eq!(engine.find_record(rec.trace_id).as_ref(), Some(rec));
    // The router ranked the routes, so its record explains them, and its
    // events say which shard served each pair.
    assert_eq!(rec.outcome, "served");
    assert_eq!(rec.explanations.len(), result.globals.len());
    for (expl, global) in rec.explanations.iter().zip(&result.globals) {
        assert_eq!(expl.log_score.to_bits(), global.log_score.to_bits());
        assert_eq!(expl.segments, global.route.len());
    }
    assert_eq!(rec.local_routes_per_pair.len(), 3);
    for (i, s) in route.pair_shards.iter().enumerate() {
        let event = format!("scatter: pair {i} served by shard {s}");
        assert!(rec.events.contains(&event), "{event} in {:?}", rec.events);
    }
    // Phase fields come from the router's own spans: shard batches, gather
    // and splice ran; candidate lookup is inside the shard spans.
    assert!(rec.local_s > 0.0 && rec.global_s > 0.0, "{rec:?}");
    assert_eq!(rec.candidates_s, 0.0);
    assert!(rec.local_s + rec.refine_s + rec.global_s <= rec.total_s);
    assert!(!rec.slow, "default 1 s threshold");

    // The same tree over real TCP, plus the shard topology endpoint and
    // the record under the same trace id.
    let server = engine.serve_metrics("127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let (code, traces) = http_get(addr, "/debug/traces");
    assert_eq!(code, 200);
    assert!(traces.contains(&format!("\"trace_id\":{}", rec.trace_id)));
    assert!(traces.contains("\"name\":\"splice\""));
    assert!(traces.contains("\"name\":\"gather\""));

    let (code, shards) = http_get(addr, "/debug/shards");
    assert_eq!(code, 200);
    let v: serde_json::Value = serde_json::from_str(&shards).expect("valid shard json");
    let arr = v.as_array().expect("array of shards");
    assert_eq!(arr.len(), 2);
    for (s, entry) in arr.iter().enumerate() {
        assert_eq!(entry.get("shard").and_then(|v| v.as_u64()), Some(s as u64));
        assert_eq!(
            entry.get("health").and_then(|v| v.as_str()),
            Some("healthy")
        );
        assert_eq!(entry.get("servable").and_then(|v| v.as_bool()), Some(true));
    }

    let (code, explain) = http_get(addr, &format!("/debug/explain/{}", rec.trace_id));
    assert_eq!(code, 200, "scatter record served from the router ring");
    assert_eq!(explain, rec.to_json());
    let a: serde_json::Value = serde_json::from_str(&explain).expect("valid record json");
    assert_eq!(
        a.get("trace_id").and_then(|v| v.as_u64()),
        Some(rec.trace_id)
    );
    assert_eq!(a.get("outcome").and_then(|v| v.as_str()), Some("served"));
    assert_eq!(a.get("pairs").and_then(|v| v.as_u64()), Some(3));
    assert!(
        !a.get("explanations")
            .and_then(|v| v.as_array())
            .expect("explanations array")
            .is_empty(),
        "served record explains its routes"
    );
    assert!(
        explain.contains("scatter: pair"),
        "record events carry the pair→shard assignment"
    );

    let (code, _) = http_get(addr, "/debug/explain/999999999");
    assert_eq!(code, 404, "unknown trace id is a 404");
    let (code, _) = http_get(addr, "/debug/explain/not-a-number");
    assert_eq!(code, 404, "garbage trace id is a 404");

    server.shutdown();
}

#[test]
fn delegated_query_audit_is_findable_under_the_router_trace_id() {
    let net = net();
    let archive = sim_archive(&net, 90, 12);
    let engine = traced_engine(&net, &archive);
    let q = core_query(&engine, 1);

    let (result, route) = engine.infer_query_traced(&q, 2);
    assert_eq!(route.kind, RouteKind::Single(1), "in-core query delegates");
    assert!(matches!(result.outcome, QueryOutcome::Ok));

    let rec = engine
        .trace_ring()
        .expect("tracing is on")
        .snapshot()
        .pop()
        .expect("delegated query still records a trace");
    // The router's record is found first: routing spans and the outcome,
    // timed by the router's `shard` span.
    let found = engine.find_record(rec.trace_id).expect("router record");
    assert_eq!(found, rec);
    assert_eq!(rec.outcome, "served");
    assert!(rec.events.is_empty());
    assert!(rec.explanations.is_empty(), "the router ranked nothing");
    assert!(rec.local_s > 0.0 && rec.local_s <= rec.total_s);
    assert_eq!((rec.global_s, rec.refine_s), (0.0, 0.0));
    // The delegated shard served under the router's trace id, so its own
    // record — timings and route explanations — is found on the shard.
    let shard_rec = engine
        .shard(1)
        .observability()
        .expect("shards are observed")
        .trace_ring()
        .find(rec.trace_id)
        .expect("shard-side record under the router trace id");
    assert_eq!(shard_rec.outcome, "served");
    assert_eq!(shard_rec.explanations.len(), result.globals.len());
    for (expl, global) in shard_rec.explanations.iter().zip(&result.globals) {
        assert_eq!(expl.log_score.to_bits(), global.log_score.to_bits());
    }
    assert_eq!(shard_rec.candidates_per_point.len(), q.points.len());
    assert!(engine
        .shard(0)
        .observability()
        .expect("shards are observed")
        .trace_ring()
        .find(rec.trace_id)
        .is_none());
}

#[test]
fn tiny_slow_threshold_flags_routed_queries_slow() {
    let net = net();
    let archive = sim_archive(&net, 60, 12);
    let params = HrisParams::default();
    let plan = ShardPlan::grid(&net, 2, 1, params.phi_m + 900.0);
    let cfg = EngineConfig::builder()
        .observability(true)
        .slow_query_threshold_s(1e-9)
        .build()
        .expect("static engine configuration");
    let engine = ShardedEngine::build(Arc::clone(&net), &archive, params, cfg, plan);
    let q = core_query(&engine, 0);
    let _ = engine.infer_query_traced(&q, 2);
    let rec = engine.trace_ring().expect("tracing is on").snapshot().pop();
    assert!(rec.expect("routed query recorded").slow);
}

#[test]
fn unhealthy_shard_reroute_becomes_span_events() {
    let net = net();
    let archive = sim_archive(&net, 60, 12);
    let engine = traced_engine(&net, &archive);
    engine.set_shard_health(0, ShardHealth::Unhealthy);

    let q = core_query(&engine, 0);
    let (result, route) = engine.infer_query_traced(&q, 2);
    assert!(matches!(route.kind, RouteKind::Single(1)));
    assert!(matches!(result.outcome, QueryOutcome::Degraded { .. }));

    let rec = engine
        .trace_ring()
        .expect("tracing is on")
        .snapshot()
        .pop()
        .expect("rerouted query records a trace");
    let names: Vec<&str> = rec.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(
        names.contains(&"shard_unhealthy"),
        "health flip is an event"
    );
    assert!(names.contains(&"reroute"), "reroute is an event");
    assert!(names.contains(&"degraded"), "demotion is an event");

    // The topology endpoint reports the quarantined shard.
    let server = engine.serve_metrics("127.0.0.1:0").expect("bind");
    let (code, shards) = http_get(server.addr(), "/debug/shards");
    assert_eq!(code, 200);
    let v: serde_json::Value = serde_json::from_str(&shards).expect("valid shard json");
    let shard0 = &v.as_array().expect("array of shards")[0];
    assert_eq!(
        shard0.get("health").and_then(|v| v.as_str()),
        Some("unhealthy")
    );
    assert_eq!(
        shard0.get("servable").and_then(|v| v.as_bool()),
        Some(false)
    );
    // And the federated health check flips.
    let (code, body) = http_get(server.addr(), "/healthz");
    assert_eq!(code, 503, "unhealthy shard fails the health check");
    assert!(body.contains("shard_0"));
    server.shutdown();
}

#[test]
fn tracing_and_explain_leave_router_outputs_byte_identical() {
    let net = net();
    let archive = sim_archive(&net, 90, 12);
    let params = HrisParams::default();
    let plan = |n: &Arc<RoadNetwork>| ShardPlan::grid(n, 2, 1, params.phi_m + 900.0);
    let plain = ShardedEngine::build(
        Arc::clone(&net),
        &archive,
        params.clone(),
        EngineConfig::default(),
        plan(&net),
    );
    let traced = traced_engine(&net, &archive);

    let seam_x = traced.plan().core(0).max.x;
    let y = net.bbox().center().y;
    let mut workload = vec![
        seam_query(seam_x, y, 700.0),
        seam_query(seam_x, y + 500.0, 500.0),
        core_query(&traced, 0),
        core_query(&traced, 1),
    ];
    // A dirty-but-repairable query takes the degradation chain on both.
    let mut dirty = core_query(&traced, 0);
    dirty.points[1].pos = Point::new(f64::NAN, 0.0);
    workload.push(dirty);

    for (qi, q) in workload.iter().enumerate() {
        let (want, want_route) = plain.infer_query_traced(q, 3);
        let (got, got_route) = traced.infer_query_traced(q, 3);
        assert_eq!(got_route.kind, want_route.kind, "query {qi}: dispatch");
        assert_eq!(
            got_route.pair_shards, want_route.pair_shards,
            "query {qi}: pair routing"
        );
        assert_eq!(got.outcome, want.outcome, "query {qi}: outcome");
        assert_eq!(got.globals.len(), want.globals.len(), "query {qi}: top-K");
        for (i, (ga, gb)) in got.globals.iter().zip(&want.globals).enumerate() {
            assert_eq!(ga.route, gb.route, "query {qi}: route {i}");
            assert_eq!(
                ga.log_score.to_bits(),
                gb.log_score.to_bits(),
                "query {qi}: score bits {i}"
            );
        }
    }
}

#[test]
fn shed_and_rejected_queries_audit_without_routes() {
    let net = net();
    let engine = {
        let params = HrisParams::default();
        let plan = ShardPlan::grid(&net, 2, 1, params.phi_m + 900.0);
        let cfg = EngineConfig::builder()
            .observability(true)
            .admission(1, 0)
            .build()
            .expect("static engine configuration");
        Arc::new(ShardedEngine::build(
            Arc::clone(&net),
            &TrajectoryArchive::empty(),
            params,
            cfg,
            plan,
        ))
    };

    // An empty query is rejected at the router screen.
    let empty = Trajectory::new(TrajId(1), Vec::new());
    let (r, _) = engine.infer_query_traced(&empty, 2);
    assert!(matches!(r.outcome, QueryOutcome::Rejected { .. }));
    let ring = engine.trace_ring().expect("tracing is on");
    let rejected = ring.snapshot().pop().expect("rejection recorded");
    assert_eq!(rejected.outcome, "rejected");
    assert_eq!(rejected.events, ["rejected: EmptyQuery"]);
    assert!(rejected.explanations.is_empty());
    assert_ne!(rejected.query_id, 0);
    assert_eq!(
        engine.find_record(rejected.trace_id).as_ref(),
        Some(&rejected)
    );

    // A query shed at the gate is recorded as shed.
    let gate = engine.admission_gate().expect("gate configured");
    let permit = match gate.admit() {
        hris_obs::Admission::Admitted(p) => p,
        hris_obs::Admission::Shed => panic!("idle gate must admit"),
    };
    let q = core_query(&engine, 0);
    let (r, _) = engine.infer_query_traced(&q, 2);
    assert!(matches!(r.outcome, QueryOutcome::Rejected { .. }));
    drop(permit);
    let shed = ring.snapshot().pop().expect("shed recorded");
    assert_eq!(shed.outcome, "shed", "shed queries are recorded");
    assert!(shed.explanations.is_empty() && shed.spans.is_empty());
    assert_ne!(shed.trace_id, rejected.trace_id);
}
