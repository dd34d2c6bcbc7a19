//! The explain layer is an observer, not a participant: with tracing and
//! explain enabled, the engine's answers must be **byte-identical** — same
//! routes, same score bits, same outcomes — to the default disabled
//! configuration, and the audit documents must describe exactly what was
//! returned (ranks in order, score components matching the routes).

use hris::scoring::FEATURE_NAMES;
use hris::{EngineConfig, Hris, HrisParams, QueryEngine, QueryResult};
use hris_geo::Point;
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_traj::{GpsPoint, SimConfig, Simulator, TrajId, Trajectory, TrajectoryArchive};

fn net() -> RoadNetwork {
    generator::generate(&NetworkConfig::small(5))
}

fn archive(net: &RoadNetwork) -> TrajectoryArchive {
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: 80,
            num_od_patterns: 6,
            min_trip_dist_m: 400.0,
            seed: 11,
            ..SimConfig::default()
        },
    );
    sim.generate_archive().0
}

fn queries() -> Vec<Trajectory> {
    (0..5)
        .map(|qi| {
            Trajectory::new(
                TrajId(100 + qi),
                (0..4)
                    .map(|i| {
                        GpsPoint::new(
                            Point::new(
                                250.0 + qi as f64 * 280.0 + i as f64 * 380.0,
                                140.0 + i as f64 * 70.0,
                            ),
                            i as f64 * 120.0,
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

fn assert_identical(a: &QueryResult, b: &QueryResult, ctx: &str) {
    assert_eq!(a.outcome, b.outcome, "{ctx}: outcome");
    assert_eq!(a.globals.len(), b.globals.len(), "{ctx}: top-K length");
    for (i, (ga, gb)) in a.globals.iter().zip(&b.globals).enumerate() {
        assert_eq!(ga.route, gb.route, "{ctx}: route {i}");
        assert_eq!(
            ga.log_score.to_bits(),
            gb.log_score.to_bits(),
            "{ctx}: score bits {i}"
        );
        assert_eq!(ga.local_indices, gb.local_indices, "{ctx}: assignment {i}");
    }
}

#[test]
fn explain_and_tracing_leave_outputs_byte_identical() {
    let net = net();
    let archive = archive(&net);
    let hris = Hris::new(&net, archive, HrisParams::default());

    let plain = QueryEngine::with_config(&hris, EngineConfig::default());
    let explained = QueryEngine::with_config(
        &hris,
        EngineConfig::builder()
            .observability(true)
            .explain(32)
            .build()
            .expect("static engine configuration"),
    );

    for (qi, q) in queries().iter().enumerate() {
        let want = plain.infer_query(q, 3);
        let got = explained.infer_query(q, 3);
        assert_identical(&got, &want, &format!("query {qi}"));
    }
    // Every served query audited, under a fresh trace id each.
    let audits = explained.audit_ring().expect("explain is on").snapshot();
    assert_eq!(audits.len(), queries().len());
    let mut ids: Vec<u64> = audits.iter().map(|a| a.trace_id).collect();
    ids.dedup();
    assert_eq!(ids.len(), audits.len(), "one distinct trace id per audit");
    // With tracing on too, the trace record and the audit of one query
    // carry the same query id — never 0, the audit's "no trace record".
    let traces = explained.observability().expect("obs is on").trace_ring();
    for audit in &audits {
        let rec = traces
            .find(audit.trace_id)
            .expect("audited query traced too");
        assert_ne!(rec.query_id, 0, "trace {}", audit.trace_id);
        assert_eq!(audit.query_id, rec.query_id, "trace {}", audit.trace_id);
    }
}

#[test]
fn audit_documents_describe_the_returned_routes() {
    let net = net();
    let archive = archive(&net);
    let hris = Hris::new(&net, archive, HrisParams::default());
    let engine = QueryEngine::with_config(
        &hris,
        EngineConfig::builder()
            .explain(8)
            .explain_top_k(2)
            .build()
            .expect("static engine configuration"),
    );

    let q = &queries()[0];
    let result = engine.infer_query(q, 3);
    assert!(!result.globals.is_empty(), "workload query must serve");
    let audit = engine
        .audit_ring()
        .expect("explain is on")
        .snapshot()
        .pop()
        .expect("served query audited");

    let v: serde_json::Value = serde_json::from_str(&audit.json).expect("valid audit json");
    assert_eq!(v.get("outcome").and_then(|o| o.as_str()), Some("served"));
    assert_eq!(
        v.get("points").and_then(|p| p.as_u64()),
        Some(q.points.len() as u64)
    );
    let routes = v
        .get("routes")
        .and_then(|r| r.as_array())
        .expect("routes array");
    // Capped at explain_top_k = 2, ranks in order, scores matching the
    // returned routes bit-for-bit (JSON roundtrips f64 exactly via the
    // shortest-roundtrip formatter).
    assert_eq!(routes.len(), result.globals.len().min(2));
    for (rank, (route, global)) in routes.iter().zip(&result.globals).enumerate() {
        assert_eq!(
            route.get("rank").and_then(|r| r.as_u64()),
            Some(rank as u64)
        );
        let score = route
            .get("log_score")
            .and_then(|s| s.as_f64())
            .expect("numeric log_score");
        assert_eq!(score.to_bits(), global.log_score.to_bits());
        assert_eq!(
            route.get("segments").and_then(|s| s.as_u64()),
            Some(global.route.len() as u64)
        );
        // The feature vector is the route's own: every feature named, in
        // order, and its `log_score` component is the returned score.
        let features = route.get("features").expect("feature object");
        let names: Vec<&str> = features
            .as_obj()
            .expect("feature object")
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(names, FEATURE_NAMES);
        let feature_score = features
            .get("log_score")
            .and_then(|s| s.as_f64())
            .expect("numeric log_score feature");
        assert_eq!(feature_score.to_bits(), global.log_score.to_bits());
    }
}
