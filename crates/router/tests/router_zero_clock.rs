//! The router's zero-overhead-when-disabled contract, enforced at the
//! clock: with the default configuration (observability off, explain off)
//! a routed query — delegated or scatter-gathered — performs **zero**
//! counted-clock reads end to end. No trace id is minted, no collector is
//! created, and the shard engines run the uninstrumented fast path.
//!
//! Dedicated test binary: the read counter is process-global, so no test
//! here may construct an instrumented engine.

use hris::{EngineConfig, HrisParams, QueryOutcome};
use hris_geo::Point;
use hris_obs::clock;
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_router::{RouteKind, ShardPlan, ShardedEngine};
use hris_traj::{GpsPoint, SimConfig, Simulator, TrajId, Trajectory, TrajectoryArchive};
use std::sync::Arc;

fn net() -> Arc<RoadNetwork> {
    Arc::new(generator::generate(&NetworkConfig {
        blocks_x: 20,
        blocks_y: 20,
        block_m: 300.0,
        seed: 19,
        ..NetworkConfig::default()
    }))
}

fn sim_archive(net: &RoadNetwork) -> TrajectoryArchive {
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: 60,
            num_od_patterns: 7,
            min_trip_dist_m: 400.0,
            seed: 12,
            ..SimConfig::default()
        },
    );
    sim.generate_archive().0
}

#[test]
fn disabled_router_reads_the_clock_zero_times() {
    let net = net();
    let archive = sim_archive(&net);
    let params = HrisParams::default();
    let plan = ShardPlan::grid(&net, 2, 1, params.phi_m + 900.0);
    let seam_x = plan.core(0).max.x;
    let engine = ShardedEngine::build(
        Arc::clone(&net),
        &archive,
        params,
        EngineConfig::default(),
        plan,
    );
    assert!(
        engine.trace_ring().is_none(),
        "default config traces nothing"
    );

    // One delegated in-core query and one seam query that scatters across
    // both shards — the full routing surface.
    let c = engine.plan().core(1).center();
    let delegated = Trajectory::new(
        TrajId(1),
        (0..4)
            .map(|i| {
                GpsPoint::new(
                    Point::new(c.x - 300.0 + i as f64 * 150.0, c.y + i as f64 * 80.0),
                    i as f64 * 90.0,
                )
            })
            .collect(),
    );
    let y = net.bbox().center().y;
    let scatter = Trajectory::new(
        TrajId(2),
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

    let before = clock::reads();
    let (r, t) = engine.infer_query_traced(&delegated, 2);
    assert!(matches!(t.kind, RouteKind::Single(_)));
    assert!(!matches!(r.outcome, QueryOutcome::Rejected { .. }));
    let (r, t) = engine.infer_query_traced(&scatter, 2);
    assert_eq!(t.kind, RouteKind::Scatter);
    assert!(!matches!(r.outcome, QueryOutcome::Rejected { .. }));
    // A rejected query exercises the screen's early exit too.
    let (_, t) = engine.infer_query_traced(&Trajectory::new(TrajId(3), Vec::new()), 2);
    assert_eq!(t.kind, RouteKind::Rejected);
    assert_eq!(
        clock::reads() - before,
        0,
        "a disabled router must never read the clock"
    );
}
