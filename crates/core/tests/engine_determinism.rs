//! The engine's core invariant: scheduling and instrumentation never change
//! any inferred route or score. Every execution mode must return results
//! byte-identical to the plain sequential [`Hris`] pipeline.

use hris::{EngineConfig, GlobalRoute, Hris, HrisParams, QueryEngine};
use hris_roadnet::{generator, NetworkConfig};
use hris_traj::{resample_to_interval, SimConfig, Simulator, TrajId, Trajectory};

/// A seeded scenario with enough archive data that queries exercise both the
/// reference-driven path and the shortest-path fallback.
fn scenario() -> (hris_roadnet::RoadNetwork, Hris<'static>, Vec<Trajectory>) {
    // Leak the network so `Hris<'static>` can borrow it; fine in a test.
    let net: &'static _ = Box::leak(Box::new(generator::generate(&NetworkConfig::small(8))));
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: 250,
            num_od_patterns: 10,
            min_trip_dist_m: 800.0,
            seed: 13,
            ..SimConfig::default()
        },
    );
    let (archive, routes) = sim.generate_archive();
    let mut queries = Vec::new();
    for (i, r) in routes.iter().step_by(routes.len() / 4).take(4).enumerate() {
        let pts = hris_traj::simulator::drive_route(net, r, 0.0, 20.0, 0.8).unwrap();
        queries.push(resample_to_interval(
            &Trajectory::new(TrajId(i as u32), pts),
            240.0,
        ));
    }
    // Duplicate a query so the batch revisits identical positions.
    let dup = queries[0].clone();
    queries.push(dup);
    let hris = Hris::new(net, archive, HrisParams::default());
    (net.clone(), hris, queries)
}

fn assert_same(kind: &str, a: &[GlobalRoute], b: &[GlobalRoute]) {
    assert_eq!(a.len(), b.len(), "{kind}: route count differs");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.route, y.route, "{kind}: route {i} differs");
        assert!(
            x.log_score == y.log_score,
            "{kind}: score {i} differs ({} vs {})",
            x.log_score,
            y.log_score,
        );
        assert_eq!(
            x.local_indices, y.local_indices,
            "{kind}: assignment {i} differs"
        );
    }
}

#[test]
fn all_execution_modes_match_sequential_hris() {
    let (_net, hris, queries) = scenario();
    let k = 3;
    // The dense archive above rarely needs the shortest-path fallback; an
    // empty archive routes *every* pair through it.
    let net2: &'static _ = Box::leak(Box::new(generator::generate(&NetworkConfig::small(5))));
    let empty = Hris::new(
        net2,
        hris_traj::TrajectoryArchive::empty(),
        HrisParams::default(),
    );

    for (scene, hris) in [("dense", &hris), ("empty archive", &empty)] {
        let baseline: Vec<Vec<GlobalRoute>> = queries
            .iter()
            .map(|q| hris.infer_routes_detailed(q, k).0)
            .collect();
        let observed = EngineConfig::builder().observability(true);
        let configs = [
            ("sequential", EngineConfig::sequential()),
            ("pair-parallel", EngineConfig::default()),
            // Full instrumentation and tracing must not move a byte either,
            ("observed", observed.clone().build().unwrap()),
            // nor span capture at 1-in-1 (every query carries a live span
            // tree), the heaviest instrumentation the engine has.
            ("spanned", observed.span_sampling(1).build().unwrap()),
        ];
        for (name, cfg) in configs {
            let engine = QueryEngine::with_config(hris, cfg);
            for (i, (q, want)) in queries.iter().zip(&baseline).enumerate() {
                let kind = format!("{scene}, {name} engine, query {i}");
                assert_same(&kind, &engine.infer_query(q, k).globals, want);
            }
            // Batch fan-out, twice: the second pass runs against an oracle
            // the first one warmed, and must still match.
            for pass in 0..2 {
                let got = engine.infer_batch_detailed(&queries, k);
                assert_eq!(got.len(), baseline.len());
                for (i, (g, want)) in got.iter().zip(&baseline).enumerate() {
                    let kind = format!("{scene}, {name} engine, batch pass {pass} query {i}");
                    assert_same(&kind, &g.globals, want);
                }
            }
            if name == "spanned" {
                let obs = engine.observability().unwrap();
                assert!(
                    obs.traces().iter().all(|t| !t.spans.is_empty()),
                    "1-in-1 sampling must attach a span tree to every trace"
                );
            }
        }
    }

    let oracle2 = net2.sp_oracle();
    assert!(
        oracle2.hits() + oracle2.misses() > 0,
        "empty archive must exercise the SP fallback, got {}/{}",
        oracle2.hits(),
        oracle2.misses()
    );
}

#[test]
fn detailed_outputs_match_across_modes() {
    let (_net, hris, queries) = scenario();
    let k = 2;
    let engine = QueryEngine::new(&hris);
    for q in &queries {
        let (g_hris, s_hris) = hris.infer_routes_detailed(q, k);
        let got = engine.infer_query(q, k);
        assert_same("detailed", &got.globals, &g_hris);
        assert_eq!(s_hris.len(), got.stats.len());
    }
}
