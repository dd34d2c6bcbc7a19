//! End-to-end integration tests: city generation → fleet simulation →
//! preprocessing → route inference → accuracy evaluation, spanning every
//! crate in the workspace.

use hris::{Hris, HrisParams, LocalAlgorithm};
use hris_eval::metrics::accuracy_al;
use hris_eval::scenario::{Scenario, ScenarioConfig};
use hris_mapmatch::{IncrementalMatcher, IvmmMatcher, MapMatcher, StMatcher};
use hris_roadnet::NetworkConfig;
use hris_traj::{resample_to_interval, TrajectoryArchive};

/// One shared scenario, built once per test binary (it is deterministic).
fn scenario() -> &'static Scenario {
    static SCENARIO: std::sync::OnceLock<Scenario> = std::sync::OnceLock::new();
    SCENARIO.get_or_init(build_scenario)
}

fn build_scenario() -> Scenario {
    let mut cfg = ScenarioConfig::quick(404);
    cfg.net = NetworkConfig {
        blocks_x: 20,
        blocks_y: 20,
        block_m: 300.0,
        arterial_every: 5,
        seed: 9,
        ..NetworkConfig::default()
    };
    cfg.sim.num_trips = 900;
    cfg.sim.num_od_patterns = 30;
    cfg.sim.min_trip_dist_m = 3_000.0;
    cfg.num_queries = 5;
    cfg.query_len_m = (3_500.0, 6_000.0);
    Scenario::build(cfg)
}

#[test]
fn hris_beats_chance_at_low_sampling_rate() {
    let s = scenario();
    let hris = Hris::new(&s.net, s.archive.clone(), HrisParams::default());
    let mut total = 0.0;
    for q in &s.queries {
        let query = resample_to_interval(&q.dense, 360.0); // 6-minute fixes
        let top = hris.infer_top1(&query).expect("inference succeeds");
        assert!(top.route.is_connected(&s.net), "inferred route connects");
        total += accuracy_al(&q.truth, &top.route, &s.net);
    }
    let mean = total / s.queries.len() as f64;
    assert!(mean > 0.4, "mean A_L at 6-min sampling was {mean}");
}

#[test]
fn all_matchers_run_end_to_end() {
    let s = scenario();
    let hris = Hris::new(&s.net, s.archive.clone(), HrisParams::default());
    let hm = hris::HrisMatcher { hris: &hris };
    let ivmm = IvmmMatcher::default();
    let st = StMatcher::default();
    let inc = IncrementalMatcher::default();
    let matchers: Vec<&dyn MapMatcher> = vec![&hm, &ivmm, &st, &inc];
    let query = resample_to_interval(&s.queries[0].dense, 240.0);
    for m in matchers {
        let res = m
            .match_trajectory(&s.net, &query)
            .unwrap_or_else(|| panic!("{} failed", m.name()));
        assert!(
            !res.route.is_empty(),
            "{} returned an empty route",
            m.name()
        );
        assert!(
            res.route.is_connected(&s.net),
            "{} returned a disconnected route",
            m.name()
        );
        let acc = accuracy_al(&s.queries[0].truth, &res.route, &s.net);
        assert!((0.0..=1.0).contains(&acc));
    }
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let s1 = build_scenario();
    let s2 = build_scenario();
    let h1 = Hris::new(&s1.net, s1.archive.clone(), HrisParams::default());
    let h2 = Hris::new(&s2.net, s2.archive.clone(), HrisParams::default());
    for (qa, qb) in s1.queries.iter().zip(s2.queries.iter()) {
        let query_a = resample_to_interval(&qa.dense, 300.0);
        let query_b = resample_to_interval(&qb.dense, 300.0);
        let ra = h1.infer_routes(&query_a, 3);
        let rb = h2.infer_routes(&query_b, 3);
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert_eq!(x.route, y.route);
            assert!((x.log_score - y.log_score).abs() < 1e-9);
        }
    }
}

#[test]
fn forced_local_algorithms_both_work() {
    let s = scenario();
    let query = resample_to_interval(&s.queries[1].dense, 300.0);
    for algo in [LocalAlgorithm::Tgi, LocalAlgorithm::Nni] {
        let params = HrisParams {
            local_algorithm: algo,
            ..HrisParams::default()
        };
        let hris = Hris::new(&s.net, s.archive.clone(), params);
        let top = hris.infer_top1(&query).expect("inference succeeds");
        assert!(top.route.is_connected(&s.net));
        assert!(top.route.length(&s.net) > 1_000.0);
    }
}

#[test]
fn archive_persistence_roundtrips_through_inference() {
    let s = scenario();
    // Serialise the archive, reload it, and verify inference is unchanged.
    let blob = s.archive.to_bytes();
    let restored = TrajectoryArchive::from_bytes(blob).expect("valid blob");
    let query = resample_to_interval(&s.queries[2].dense, 300.0);
    let h1 = Hris::new(&s.net, s.archive.clone(), HrisParams::default());
    let h2 = Hris::new(&s.net, restored, HrisParams::default());
    let r1 = h1.infer_top1(&query).unwrap();
    let r2 = h2.infer_top1(&query).unwrap();
    assert_eq!(r1.route, r2.route);
}

#[test]
fn top_k_global_routes_ranked_and_loop_free() {
    let s = scenario();
    let hris = Hris::new(&s.net, s.archive.clone(), HrisParams::default());
    let query = resample_to_interval(&s.queries[3].dense, 300.0);
    let routes = hris.infer_routes(&query, 6);
    assert!(!routes.is_empty());
    for w in routes.windows(2) {
        assert!(w[0].log_score >= w[1].log_score);
    }
    for r in &routes {
        // Loop-free: excising loops must be a no-op.
        assert_eq!(r.route.without_loops(&s.net), r.route);
    }
}

/// NNI's point cloud is a set of positions. On real reference sets — where
/// one archive observation arrives through its simple reference and again
/// through every spliced reference built from the same trip — removing the
/// repeats by hand changes neither the routes nor the number of searches,
/// so no successor list can have spent two of its k₂ slots on one position.
#[test]
fn nni_ignores_repeated_observations() {
    let s = scenario();
    let params = HrisParams {
        local_algorithm: LocalAlgorithm::Nni,
        ..HrisParams::default()
    };
    let hris = Hris::new(&s.net, s.archive.clone(), params.clone());
    let (mut points, mut repeats, mut searches) = (0, 0, 0);
    for q in &s.queries {
        let query = resample_to_interval(&q.dense, 300.0);
        let locals = hris.local_inference(&query);
        for (pair, local) in query.points.windows(2).zip(&locals) {
            let qi = s.net.candidate_edges(pair[0].pos, params.candidate_eps_m);
            let qj = s.net.candidate_edges(pair[1].pos, params.candidate_eps_m);
            let mut seen = std::collections::HashSet::new();
            let mut distinct = local.refs.clone();
            for r in &mut distinct.refs {
                r.points
                    .retain(|p| seen.insert((p.pos.x.to_bits(), p.pos.y.to_bits())));
            }
            points += local.refs.num_points();
            repeats += local.refs.num_points() - distinct.num_points();
            let (raw_routes, raw_stats) =
                hris::local::nni::nni(&s.net, &local.refs, &qi, &qj, &params);
            let (routes, stats) = hris::local::nni::nni(&s.net, &distinct, &qi, &qj, &params);
            assert_eq!(raw_routes, routes);
            assert_eq!(raw_stats.knn_searches, stats.knn_searches);
            searches += stats.knn_searches;
        }
    }
    assert!(searches > 0, "NNI never searched");
    assert!(
        repeats * 5 > points,
        "scenario too clean to test anything: {repeats} repeats in {points} reference points"
    );
}

/// The projection memo's nearest slot answers what `nearest_segment` does,
/// for every distinct reference position of the scenario: asked before the
/// point's ε-candidates are memoised (not stored), right after (filled) and
/// again (read back) — including the many points whose nearest is a bitwise
/// tie between a two-way street's directed twins, where the search's own
/// order picks the direction.
#[test]
fn memoised_nearest_segment_matches_search() {
    let s = scenario();
    let eps = HrisParams::default().candidate_eps_m;
    let mut seen = std::collections::HashSet::new();
    // [asked before projecting, asked after, twin tie before, twin tie after]
    let mut cases = [0usize; 4];
    for (i, p) in s
        .archive
        .trajectories()
        .iter()
        .flat_map(|t| &t.points)
        .filter(|p| seen.insert((p.pos.x.to_bits(), p.pos.y.to_bits())))
        .enumerate()
    {
        let want = s.net.nearest_segment(p.pos).map(|c| c.segment);
        let before = i % 2 == 0;
        if before {
            assert_eq!(s.net.nearest_segment_cached(p.pos, eps), want);
        }
        s.net.candidate_segments_cached(p.pos, eps, |_| ());
        assert_eq!(s.net.nearest_segment_cached(p.pos, eps), want);
        assert_eq!(s.net.nearest_segment_cached(p.pos, eps), want);

        let cands = s.net.candidate_edges(p.pos, eps);
        let twins_tie = cands.iter().enumerate().any(|(k, a)| {
            cands[k + 1..].iter().any(|b| {
                let (sa, sb) = (s.net.segment(a.segment), s.net.segment(b.segment));
                a.dist.to_bits() == b.dist.to_bits() && sa.from == sb.to && sa.to == sb.from
            })
        });
        let col = usize::from(!before);
        cases[col] += 1;
        cases[2 + col] += usize::from(twins_tie);
    }
    assert!(
        cases.iter().all(|&n| n >= 5),
        "every case must occur: {cases:?}"
    );
}
