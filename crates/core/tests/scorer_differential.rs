//! Differential guarantees of the `RouteScorer` seam.
//!
//! - The engine, plain and observed, must rank exactly as the plain
//!   [`Hris`] pipeline, byte for byte.
//! - Feature extraction must be finite, deterministic, and invariant under
//!   power-of-two coordinate scaling where claimed.

use hris::local::{LocalInferenceResult, LocalStats, RefEdgeIndex};
use hris::reference::{RefKind, RefTrajectory, ReferenceSet};
use hris::{
    extract_features, EngineConfig, GlobalRoute, Hris, HrisParams, PaperScorer, PopularityModel,
    QueryEngine, RouteScorer, ScoringCtx,
};
use hris_geo::Point;
use hris_roadnet::{generator, NetworkConfig, RoadClass, RoadNetwork, Route, SegmentId};
use hris_traj::{resample_to_interval, SimConfig, Simulator, TrajId, Trajectory};
use proptest::prelude::*;

// ---------------------------------------------------------------- fixtures

/// Seeded simulator scenario: network, pipeline, low-rate queries.
fn scenario() -> (&'static RoadNetwork, Hris<'static>, Vec<Trajectory>) {
    let net: &'static _ = Box::leak(Box::new(generator::generate(&NetworkConfig::small(8))));
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: 250,
            num_od_patterns: 10,
            min_trip_dist_m: 800.0,
            seed: 29,
            ..SimConfig::default()
        },
    );
    let (archive, routes) = sim.generate_archive();
    let mut queries = Vec::new();
    for (i, r) in routes.iter().step_by(routes.len() / 5).take(5).enumerate() {
        let pts = hris_traj::simulator::drive_route(net, r, 0.0, 20.0, 0.8).unwrap();
        queries.push(resample_to_interval(
            &Trajectory::new(TrajId(i as u32), pts),
            240.0,
        ));
    }
    let hris = Hris::new(net, archive, HrisParams::default());
    (net, hris, queries)
}

fn assert_scored_bitwise(kind: &str, a: &[GlobalRoute], b: &[GlobalRoute]) {
    assert_eq!(a.len(), b.len(), "{kind}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.route, y.route, "{kind}: route {i}");
        assert_eq!(
            x.log_score.to_bits(),
            y.log_score.to_bits(),
            "{kind}: score bits {i}"
        );
        assert_eq!(x.local_indices, y.local_indices, "{kind}: assignment {i}");
    }
}

// ------------------------------------------------------------------ tests

/// The engine's one scoring call site ranks exactly as the plain
/// sequential pipeline — across its fast path and its instrumented path.
#[test]
fn engine_ranks_as_the_paper_pipeline() {
    let (_net, hris, queries) = scenario();
    let k = 4;
    let plain = QueryEngine::with_config(&hris, EngineConfig::default());
    let observed = QueryEngine::with_config(
        &hris,
        EngineConfig::builder().observability(true).build().unwrap(),
    );
    for q in &queries {
        let want = hris.infer_routes_detailed(q, k).0;
        assert_scored_bitwise("plain", &plain.infer_query(q, k).globals, &want);
        assert_scored_bitwise("observed", &observed.infer_query(q, k).globals, &want);
    }
}

// ----------------------------------------------- feature-invariant tests

/// Universe of synthetic local-inference results (mirrors the K-GRI
/// proptest universe: single-segment routes, random coverage and sources).
fn locals_strategy() -> impl Strategy<Value = Vec<LocalInferenceResult>> {
    let pair = prop::collection::vec(
        (
            0u32..40,
            prop::collection::vec(0usize..6, 0..5),
            prop::collection::vec(0u32..10, 1..3),
        ),
        1..5,
    );
    prop::collection::vec(pair, 1..5).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|routes| {
                let mut pairs_list: Vec<(SegmentId, usize)> = Vec::new();
                let mut refs: Vec<RefTrajectory> = Vec::new();
                let mut route_list = Vec::new();
                for (seg, cover, sources) in routes {
                    let seg = SegmentId(seg);
                    for &r in &cover {
                        while refs.len() <= r {
                            refs.push(RefTrajectory {
                                kind: RefKind::Simple,
                                sources: sources.iter().map(|&s| TrajId(s)).collect(),
                                points: vec![hris_traj::GpsPoint::new(Point::ORIGIN, 0.0)],
                            });
                        }
                        pairs_list.push((seg, r));
                    }
                    route_list.push(Route::new(vec![seg]));
                }
                LocalInferenceResult {
                    routes: route_list,
                    edge_index: RefEdgeIndex::from_pairs(pairs_list),
                    refs: ReferenceSet { refs },
                    stats: LocalStats::default(),
                }
            })
            .collect()
    })
}

fn small_net() -> RoadNetwork {
    generator::generate(&NetworkConfig {
        blocks_x: 4,
        blocks_y: 4,
        removal_frac: 0.0,
        oneway_frac: 0.0,
        jitter_frac: 0.0,
        curve_frac: 0.0,
        ..NetworkConfig::small(3)
    })
}

/// A manual zigzag corridor: `steps` unit moves (±x / ±y alternating by
/// `turns` mask), every coordinate multiplied by `scale`. Returns the net
/// and one local-inference result whose single route walks the corridor.
fn zigzag(
    steps: &[(f64, f64)],
    cover: &[usize],
    scale: f64,
) -> (RoadNetwork, LocalInferenceResult) {
    let mut b = RoadNetwork::builder();
    let mut x = 1_000.0;
    let mut y = 1_000.0;
    let mut prev = b.add_node(Point::new(x * scale, y * scale));
    let mut segs = Vec::new();
    for &(dx, dy) in steps {
        x += dx;
        y += dy;
        let next = b.add_node(Point::new(x * scale, y * scale));
        segs.push(b.add_straight_segment(prev, next, 13.9, RoadClass::Residential));
        prev = next;
    }
    let net = b.build();
    let route = Route::new(segs);
    let mut pairs_list = Vec::new();
    let mut refs = Vec::new();
    for &r in cover {
        while refs.len() <= r {
            refs.push(RefTrajectory {
                kind: RefKind::Simple,
                sources: vec![TrajId(refs.len() as u32)],
                points: vec![hris_traj::GpsPoint::new(Point::ORIGIN, 0.0)],
            });
        }
        for &s in route.segments() {
            pairs_list.push((s, r));
        }
    }
    let local = LocalInferenceResult {
        routes: vec![route],
        edge_index: RefEdgeIndex::from_pairs(pairs_list),
        refs: ReferenceSet { refs },
        stats: LocalStats::default(),
    };
    (net, local)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every feature of every top-K candidate is finite on arbitrary
    /// synthetic universes, and extraction is bitwise deterministic across
    /// repeated calls.
    #[test]
    fn features_are_finite_and_deterministic(locals in locals_strategy(), k in 1usize..6) {
        let net = small_net();
        let scorer = PaperScorer::new(0.05, PopularityModel::ScaleFree);
        let sctx = ScoringCtx::new(&net, &locals, k);
        for g in scorer.top_k(&sctx) {
            let f1 = extract_features(&sctx, &g, 0.05, PopularityModel::ScaleFree);
            let f2 = extract_features(&sctx, &g, 0.05, PopularityModel::ScaleFree);
            for (name, v) in hris::scoring::FEATURE_NAMES.iter().zip(f1.to_array()) {
                prop_assert!(v.is_finite(), "{name} = {v} not finite");
            }
            let bits1: Vec<u64> = f1.to_array().iter().map(|v| v.to_bits()).collect();
            let bits2: Vec<u64> = f2.to_array().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bits1, bits2, "extraction must be deterministic");
        }
    }

    /// Scaling every coordinate by a power of two moves no feature bit:
    /// turn counting is dot/cross-based (no trig), support and popularity
    /// are counts, and the residual/ratio features divide two quantities
    /// that scale by exactly the same power of two.
    #[test]
    fn features_are_invariant_under_power_of_two_scaling(
        dirs in prop::collection::vec((0usize..4, 60.0..400.0f64), 2..9),
        cover in prop::collection::vec(0usize..5, 0..4),
        exp in 1u32..4,
    ) {
        let steps: Vec<(f64, f64)> = dirs
            .iter()
            .map(|&(d, m)| match d {
                0 => (m, 0.0),
                1 => (0.0, m),
                2 => (m, m),
                _ => (m, -m),
            })
            .collect();
        let scale = f64::from(2u32.pow(exp));
        let (net1, local1) = zigzag(&steps, &cover, 1.0);
        let (net2, local2) = zigzag(&steps, &cover, scale);
        let scorer = PaperScorer::new(0.05, PopularityModel::ScaleFree);

        let locals1 = [local1];
        let locals2 = [local2];
        let sctx1 = ScoringCtx::new(&net1, &locals1, 1);
        let sctx2 = ScoringCtx::new(&net2, &locals2, 1);
        let g1 = scorer.top_k(&sctx1);
        let g2 = scorer.top_k(&sctx2);
        prop_assert_eq!(g1.len(), 1);
        prop_assert_eq!(g2.len(), 1);

        let f1 = extract_features(&sctx1, &g1[0], 0.05, PopularityModel::ScaleFree);
        let f2 = extract_features(&sctx2, &g2[0], 0.05, PopularityModel::ScaleFree);
        for ((name, a), b) in hris::scoring::FEATURE_NAMES
            .iter()
            .zip(f1.to_array())
            .zip(f2.to_array())
        {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} drifted under ×{} scaling: {} vs {}",
                name, scale, a, b
            );
        }
    }
}
