//! Failure-injection and edge-case tests: the system must degrade
//! gracefully, never panic, on hostile inputs.

use hris::{EngineConfig, EngineHandle, Hris, HrisParams, QueryEngine, QueryOutcome, QueryResult};
use hris_eval::metrics::accuracy_al;
use hris_geo::{BBox, Point};
use hris_mapmatch::{IncrementalMatcher, IvmmMatcher, MapMatcher, StMatcher};
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_router::{RouteKind, ShardPlan, ShardedEngine};
use hris_traj::{
    add_gps_noise, fault_corpus, resample_to_interval, sanitize_points, GpsPoint, SanitizeLimits,
    SimConfig, Simulator, TrajId, Trajectory, TrajectoryArchive,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn net() -> RoadNetwork {
    generator::generate(&NetworkConfig::small(31))
}

fn tiny_archive(net: &RoadNetwork) -> TrajectoryArchive {
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: 60,
            num_od_patterns: 8,
            min_trip_dist_m: 500.0,
            seed: 2,
            ..SimConfig::default()
        },
    );
    sim.generate_archive().0
}

fn simple_query(net: &RoadNetwork) -> Trajectory {
    let bbox = net.bbox();
    let a = bbox.min.lerp(bbox.max, 0.2);
    let b = bbox.min.lerp(bbox.max, 0.8);
    Trajectory::new(
        TrajId(0),
        vec![
            GpsPoint::new(a, 0.0),
            GpsPoint::new(a.midpoint(b), 200.0),
            GpsPoint::new(b, 400.0),
        ],
    )
}

#[test]
fn empty_archive_never_panics() {
    let net = net();
    let hris = Hris::new(&net, TrajectoryArchive::empty(), HrisParams::default());
    let q = simple_query(&net);
    let routes = hris.infer_routes(&q, 3);
    assert!(!routes.is_empty(), "shortest-path fallback still answers");
    for r in &routes {
        assert!(r.route.is_connected(&net));
    }
}

#[test]
fn off_map_query_falls_back_to_nearest_roads() {
    let net = net();
    let archive = tiny_archive(&net);
    let hris = Hris::new(&net, archive, HrisParams::default());
    let far = net.bbox().max + Point::new(50_000.0, 50_000.0);
    let q = Trajectory::new(
        TrajId(0),
        vec![
            GpsPoint::new(far, 0.0),
            GpsPoint::new(far + Point::new(1_000.0, 0.0), 600.0),
        ],
    );
    // Must not panic; the answer maps to the nearest network edge.
    let top = hris.infer_top1(&q);
    assert!(top.is_some());
}

#[test]
fn extreme_gps_noise_degrades_gracefully() {
    let net = net();
    let archive = tiny_archive(&net);
    let hris = Hris::new(&net, archive, HrisParams::default());
    let clean = simple_query(&net);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let noisy = add_gps_noise(&clean, 400.0, &mut rng);
    let top = hris.infer_top1(&noisy).expect("still answers");
    assert!(top.route.is_connected(&net));
}

#[test]
fn all_matchers_handle_two_point_queries() {
    let net = net();
    let q = Trajectory::new(
        TrajId(0),
        vec![
            GpsPoint::new(net.node(hris_roadnet::NodeId(0)), 0.0),
            GpsPoint::new(
                net.node(hris_roadnet::NodeId((net.num_nodes() - 1) as u32)),
                900.0,
            ),
        ],
    );
    let matchers: Vec<Box<dyn MapMatcher>> = vec![
        Box::new(IvmmMatcher::default()),
        Box::new(StMatcher::default()),
        Box::new(IncrementalMatcher::default()),
    ];
    for m in &matchers {
        let res = m.match_trajectory(&net, &q).expect("matched");
        assert_eq!(res.matched.len(), 2, "{}", m.name());
        assert!(res.route.is_connected(&net), "{}", m.name());
    }
}

#[test]
fn zero_and_one_point_queries() {
    let net = net();
    let archive = tiny_archive(&net);
    let hris = Hris::new(&net, archive, HrisParams::default());
    let empty = Trajectory::new(TrajId(0), vec![]);
    assert!(hris.infer_routes(&empty, 5).is_empty());
    let single = Trajectory::new(TrajId(0), vec![GpsPoint::new(net.bbox().center(), 0.0)]);
    let routes = hris.infer_routes(&single, 5);
    assert_eq!(routes.len(), 1);
    assert_eq!(routes[0].route.len(), 1);
}

#[test]
fn archive_with_single_short_trajectory() {
    let net = net();
    let lonely = Trajectory::new(
        TrajId(0),
        vec![
            GpsPoint::new(net.bbox().center(), 0.0),
            GpsPoint::new(net.bbox().center() + Point::new(120.0, 0.0), 30.0),
        ],
    );
    let hris = Hris::new(
        &net,
        TrajectoryArchive::new(vec![lonely]),
        HrisParams::default(),
    );
    let q = simple_query(&net);
    assert!(hris.infer_top1(&q).is_some());
}

#[test]
fn identical_points_in_query() {
    let net = net();
    let archive = tiny_archive(&net);
    let hris = Hris::new(&net, archive, HrisParams::default());
    let p = net.bbox().center();
    // Stationary query: same position, advancing time.
    let q = Trajectory::new(
        TrajId(0),
        vec![
            GpsPoint::new(p, 0.0),
            GpsPoint::new(p, 180.0),
            GpsPoint::new(p, 360.0),
        ],
    );
    let top = hris.infer_top1(&q).expect("answers");
    assert!((0.0..=1.0).contains(&accuracy_al(&top.route, &top.route, &net)));
}

#[test]
fn degenerate_hris_params_do_not_panic() {
    let net = net();
    let archive = tiny_archive(&net);
    let q = simple_query(&net);
    // Hostile parameter corners.
    let corner_cases = vec![
        HrisParams {
            phi_m: 1.0, // no references will be found
            ..HrisParams::default()
        },
        HrisParams {
            k1: 1,
            k2: 1,
            k3: 1,
            max_local_routes: 1,
            ..HrisParams::default()
        },
        HrisParams {
            lambda: 1, // empty λ-neighborhoods
            ..HrisParams::default()
        },
        HrisParams {
            beta: 1.0, // NNI admits almost nothing
            alpha_m: 0.0,
            ..HrisParams::default()
        },
        HrisParams {
            max_detour_ratio: 1.0,
            tgi_popularity_weight: 0.0, // paper-literal weighting
            ..HrisParams::default()
        },
    ];
    for params in corner_cases {
        let hris = Hris::new(&net, archive.clone(), params);
        let _ = hris.infer_routes(&q, 3); // may be empty, must not panic
    }
}

/// Same top-K: same routes, same score bits.
fn assert_same_routes(got: &QueryResult, want: &QueryResult, ctx: &str) {
    assert_eq!(got.globals.len(), want.globals.len(), "{ctx}: top-K length");
    for (i, (g, w)) in got.globals.iter().zip(&want.globals).enumerate() {
        assert_eq!(g.route, w.route, "{ctx}: route {i}");
        assert_eq!(
            g.log_score.to_bits(),
            w.log_score.to_bits(),
            "{ctx}: score bits of route {i}"
        );
    }
}

/// One pair pipeline serves clean and repaired queries alike: over the
/// 100-case fault corpus, a dirty query that repairs without any pair
/// falling back must answer exactly like its hand-sanitized copy — same
/// routes, same score bits — on a single engine and behind a 2×2 router.
#[test]
fn repaired_queries_match_their_sanitized_copies() {
    let net = Arc::new(net());
    let mut sim = Simulator::new(
        &net,
        SimConfig {
            num_trips: 250,
            num_od_patterns: 10,
            min_trip_dist_m: 800.0,
            seed: 13,
            ..SimConfig::default()
        },
    );
    let (archive, routes) = sim.generate_archive();
    let clean: Vec<Trajectory> = routes
        .iter()
        .step_by(routes.len() / 4)
        .take(4)
        .enumerate()
        .map(|(i, r)| {
            let pts = hris_traj::simulator::drive_route(&net, r, 0.0, 20.0, 0.8).unwrap();
            resample_to_interval(&Trajectory::new(TrajId(i as u32), pts), 240.0)
        })
        .collect();

    let params = HrisParams::default();
    let hris = Hris::new(&net, archive.clone(), params.clone());
    let engine = QueryEngine::new(&hris);
    let sharded = ShardedEngine::build(
        Arc::clone(&net),
        &archive,
        params.clone(),
        EngineConfig::default(),
        ShardPlan::grid(&net, 2, 2, params.phi_m),
    );
    type Front<'a> = (&'a str, &'a dyn Fn(&Trajectory) -> QueryResult);
    let fronts: [Front<'_>; 2] = [
        ("QueryEngine", &|q| engine.infer_query(q, 3)),
        ("2x2 ShardedEngine", &|q| sharded.infer_query(q, 3)),
    ];

    let mut repaired = 0;
    for (case, (kind, dirty)) in fault_corpus(42, &clean, 100).iter().enumerate() {
        let mut pts = dirty.points.clone();
        sanitize_points(&mut pts, &SanitizeLimits::default());
        let sanitized = Trajectory::new(dirty.id, pts);
        for (front, infer) in fronts {
            let got = infer(dirty);
            if !matches!(got.outcome, QueryOutcome::Repaired { .. }) {
                continue; // served as given, rejected, or some pair fell back
            }
            repaired += 1;
            let want = infer(&sanitized);
            let ctx = format!("{front}, case {case} ({})", kind.name());
            assert_eq!(
                want.outcome,
                QueryOutcome::Ok,
                "{ctx}: sanitized copy is clean"
            );
            assert_same_routes(&got, &want, &ctx);
        }
    }
    assert!(
        repaired >= 20,
        "corpus must exercise the repair path: {repaired}"
    );
}

/// One validation ladder behind every front: a dirty query that crosses a
/// shard seam runs the same repair and degradation chain on the scatter
/// path as on a single engine — same routes, same score bits and the same
/// [`QueryOutcome`], `Degraded { pairs_fell_back }` included. Checked over
/// the 100-case fault corpus on a 2×2 grid over a dense archive (where only
/// queries whose every pair fits a shard region are provably identical) and
/// on a 2×1 grid over an empty archive (every pair takes the shortest-path
/// fallback, so every dirty query degrades).
#[test]
fn sharded_dirty_queries_match_the_single_engine() {
    let net = Arc::new(generator::generate(&NetworkConfig {
        blocks_x: 20,
        blocks_y: 20,
        block_m: 300.0,
        seed: 19,
        ..NetworkConfig::default()
    }));
    let params = HrisParams::default();
    let mut sim = Simulator::new(
        &net,
        SimConfig {
            num_trips: 120,
            num_od_patterns: 7,
            min_trip_dist_m: 400.0,
            seed: 12,
            ..SimConfig::default()
        },
    );
    let dense = sim.generate_archive().0;

    // Seven-point walkers straight across the grid seams (both run through
    // the network centre): three along x, two along y.
    let c = net.bbox().center();
    let walker = |id: u32, along_x: bool, offset: f64, step: f64| {
        let pts = (0..7)
            .map(|i| {
                let d = (i as f64 - 3.0) * step + 0.4 * step;
                let p = if along_x {
                    Point::new(c.x + d, c.y + offset)
                } else {
                    Point::new(c.x + offset, c.y + d)
                };
                GpsPoint::new(p, i as f64 * 120.0)
            })
            .collect();
        Trajectory::new(TrajId(id), pts)
    };
    let clean = [
        walker(0, true, -1_200.0, 500.0),
        walker(1, false, 900.0, 450.0),
        walker(2, true, 700.0, 550.0),
        walker(3, false, -1_500.0, 400.0),
        walker(4, true, 1_600.0, 480.0),
    ];
    let mut corpus = fault_corpus(42, &clean, 100);
    // The minimal divergence: five seam-crossing points, one of them NaN.
    let mut nan = walker(100, true, 0.0, 500.0).points;
    nan.truncate(5);
    nan[1].pos.y = f64::NAN;
    corpus.push((
        hris_traj::FaultKind::NanValue,
        Trajectory::from_unchecked(TrajId(100), nan),
    ));

    let setups = [
        ("dense 2x2", dense, (2, 2), params.phi_m + 900.0),
        ("empty 2x1", TrajectoryArchive::empty(), (2, 1), 600.0),
    ];
    for (label, archive, (nx, ny), margin_m) in setups {
        let exact_only = archive.num_trajectories() > 0;
        let single = EngineHandle::new(Arc::clone(&net), archive.clone(), params.clone());
        let sharded = ShardedEngine::build(
            Arc::clone(&net),
            &archive,
            params.clone(),
            EngineConfig::default(),
            ShardPlan::grid(&net, nx, ny, margin_m),
        );
        let (mut compared, mut degraded) = (0, 0);
        for (case, (kind, dirty)) in corpus.iter().enumerate() {
            let want = single.infer_query(dirty, 3);
            if !matches!(
                want.outcome,
                QueryOutcome::Repaired { .. } | QueryOutcome::Degraded { .. }
            ) {
                continue; // served as given, or rejected
            }
            let (got, trace) = sharded.infer_query_traced(dirty, 3);
            if trace.kind != RouteKind::Scatter {
                continue;
            }
            let mut pts = dirty.points.clone();
            sanitize_points(&mut pts, &SanitizeLimits::default());
            let fits_a_region = pts.windows(2).all(|w| {
                let pair = BBox::covering([w[0].pos, w[1].pos]).inflated(params.phi_m);
                sharded.plan().home_shard(&pair).is_some()
            });
            if exact_only && !fits_a_region {
                continue; // wild pair: deterministic, not provably identical
            }
            compared += 1;
            degraded += usize::from(matches!(want.outcome, QueryOutcome::Degraded { .. }));
            let ctx = format!("{label}, case {case} ({})", kind.name());
            assert_same_routes(&got, &want, &ctx);
            assert_eq!(got.outcome, want.outcome, "{ctx}: outcome");
        }
        assert!(
            compared >= 15 && degraded >= 1,
            "{label}: corpus must exercise dirty scatters ({compared} compared, {degraded} degraded)"
        );
    }
}
