//! Property-based tests for the map-matching machinery and all three
//! baseline matchers on randomly simulated trips.

use hris_geo::Point;
use hris_mapmatch::{
    candidates_for, network_dist, IncrementalMatcher, IvmmMatcher, MapMatcher, MatchParams,
    StMatcher,
};
use hris_roadnet::{generator, CostModel, NetworkConfig, NodeId, RoadNetwork};
use hris_traj::{resample_to_interval, simulator, TrajId, Trajectory};
use proptest::prelude::*;

fn test_net(seed: u64) -> RoadNetwork {
    generator::generate(&NetworkConfig {
        blocks_x: 5,
        blocks_y: 5,
        block_m: 200.0,
        ..NetworkConfig::small(seed)
    })
}

/// A noise-free trip along a shortest path between two pseudo-random nodes.
fn trip(net: &RoadNetwork, s: u32, t: u32, interval: f64) -> Option<Trajectory> {
    let n = net.num_nodes() as u32;
    let path = hris_roadnet::shortest::shortest_path(
        net,
        NodeId(s % n),
        NodeId(t % n),
        CostModel::Distance,
    )?;
    if path.segments.is_empty() {
        return None;
    }
    let pts = simulator::drive_route(net, &path.route(), 0.0, interval, 0.8)?;
    Some(Trajectory::new(TrajId(0), pts))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn candidates_are_sorted_and_within_radius(
        seed in 0u64..10,
        x in 0.0..1000.0f64,
        y in 0.0..1000.0f64,
    ) {
        let net = test_net(seed);
        let traj = Trajectory::new(
            TrajId(0),
            vec![hris_traj::GpsPoint::new(Point::new(x, y), 0.0)],
        );
        let params = MatchParams::default();
        let cands = candidates_for(&net, &traj, &params).unwrap();
        let cs = &cands[0].cands;
        prop_assert!(!cs.is_empty());
        prop_assert!(cs.len() <= params.max_candidates);
        for w in cs.windows(2) {
            prop_assert!(w[0].dist <= w[1].dist);
        }
        if cs.len() > 1 {
            // More than one candidate implies all within the radius.
            for c in cs {
                prop_assert!(c.dist <= params.candidate_radius + 1e-9);
            }
        }
    }

    #[test]
    fn network_dist_dominates_euclid(seed in 0u64..8, i in 0usize..50, j in 0usize..50) {
        let net = test_net(seed);
        let segs = net.segments();
        let a_seg = &segs[i % segs.len()];
        let b_seg = &segs[j % segs.len()];
        let mk = |seg: &hris_roadnet::Segment, frac: f64| {
            let off = seg.length * frac;
            hris_roadnet::network::CandidateEdge {
                segment: seg.id,
                dist: 0.0,
                closest: seg.geometry.point_at(off),
                offset: off,
            }
        };
        let a = mk(a_seg, 0.3);
        let b = mk(b_seg, 0.7);
        let nd = network_dist(&net, &a, &b);
        if nd.is_finite() {
            prop_assert!(nd + 1e-6 >= a.closest.dist(b.closest),
                "driving {nd} < straight {}", a.closest.dist(b.closest));
        }
    }

    #[test]
    fn all_matchers_produce_connected_full_matches(
        seed in 0u64..6,
        s in 0u32..100,
        t in 0u32..100,
        interval in 20.0..400.0f64,
    ) {
        let net = test_net(seed);
        prop_assume!(s % net.num_nodes() as u32 != t % net.num_nodes() as u32);
        let Some(dense) = trip(&net, s, t, 15.0) else {
            return Ok(());
        };
        prop_assume!(dense.len() >= 2);
        let traj = resample_to_interval(&dense, interval);
        let matchers: Vec<Box<dyn MapMatcher>> = vec![
            Box::new(IncrementalMatcher::default()),
            Box::new(StMatcher::default()),
            Box::new(IvmmMatcher::default()),
        ];
        for m in &matchers {
            let res = m.match_trajectory(&net, &traj).expect("matched");
            prop_assert_eq!(res.matched.len(), traj.len(), "{}", m.name());
            prop_assert!(res.route.is_connected(&net), "{}", m.name());
            prop_assert!(!res.route.is_empty(), "{}", m.name());
        }
    }

    #[test]
    fn clean_dense_traces_match_well(seed in 0u64..6, s in 0u32..60, t in 60u32..120) {
        let net = test_net(seed);
        let Some(traj) = trip(&net, s, t, 20.0) else {
            return Ok(());
        };
        prop_assume!(traj.len() >= 5);
        let truth = hris_roadnet::shortest::shortest_path(
            &net,
            NodeId(s % net.num_nodes() as u32),
            NodeId(t % net.num_nodes() as u32),
            CostModel::Distance,
        )
        .unwrap()
        .route();
        // ST-Matching must track a clean dense trace closely.
        let res = StMatcher::default().match_trajectory(&net, &traj).unwrap();
        let cov = res.route.common_length(&truth, &net) / truth.length(&net).max(1.0);
        prop_assert!(cov > 0.75, "ST-Matching: coverage {cov}");
    }
}
