//! The end-to-end HRIS pipeline (Figure 2 of the paper).
//!
//! Offline, [`Hris::preprocess`] turns raw GPS logs into an archive:
//! stay-point detection → trip partition → R-tree indexing (map matching of
//! archive points is implicit — all downstream consumers work through
//! candidate edges, which subsumes point-level matching and is robust to
//! archive noise).
//!
//! Online, [`Hris::infer_routes`] processes a query in the paper's three
//! phases — reference search per consecutive point pair, local route
//! inference (TGI/NNI/hybrid), and K-GRI global inference — and returns the
//! top-K scored routes. When a pair yields no references or no local routes
//! (data sparseness), a network shortest path between the pair's candidate
//! edges is inserted as the fallback local route, so the system degrades
//! gracefully instead of failing the whole query.

use crate::global::GlobalRoute;
use crate::local::{infer_local_routes, LocalInferenceResult, LocalStats, RefEdgeIndex};
use crate::params::{HrisParams, LocalAlgorithm};
use crate::reference::{search_references, ReferenceSet};
use crate::scoring::{PaperScorer, RouteScorer, ScoringCtx};
use hris_mapmatch::{MapMatcher, MatchResult};
use hris_roadnet::network::CandidateEdge;
use hris_roadnet::{CostModel, RoadNetwork, Route};
use hris_traj::{partition_trips, GpsPoint, StayPointConfig, Trajectory, TrajectoryArchive};

/// A route suggested by HRIS with its (log) score.
#[derive(Debug, Clone)]
pub struct ScoredRoute {
    /// The suggested physical route.
    pub route: Route,
    /// `ln s(R)` — comparable across routes of the same query only.
    pub log_score: f64,
}

/// The History-based Route Inference System.
///
/// `Hris` is the algorithmic pipeline over borrowed data. All of its
/// inference methods funnel into the canonical
/// [`Hris::infer_routes_detailed`]; [`Hris::infer_routes`] and
/// [`Hris::infer_top1`] are thin projections of its output, so new code that
/// needs anything beyond the plain top-K list should call the detailed
/// entrypoint directly. For serving (caching, validation, observability, live
/// archives) wrap it in a [`QueryEngine`](crate::engine::QueryEngine) or use
/// the owned [`EngineHandle`](crate::handle::EngineHandle), whose canonical
/// entrypoint is `infer_query`.
pub struct Hris<'a> {
    net: &'a RoadNetwork,
    archive: TrajectoryArchive,
    params: HrisParams,
}

impl<'a> Hris<'a> {
    /// Builds the system over an already-preprocessed archive.
    #[must_use]
    pub fn new(net: &'a RoadNetwork, archive: TrajectoryArchive, params: HrisParams) -> Self {
        Hris {
            net,
            archive,
            params,
        }
    }

    /// Full offline preprocessing from raw GPS logs: stay-point detection,
    /// trip partition and indexing (Section II-B.1).
    #[must_use]
    pub fn preprocess(
        net: &'a RoadNetwork,
        raw_logs: &[Trajectory],
        stay_cfg: &StayPointConfig,
        params: HrisParams,
    ) -> Self {
        let trips: Vec<Trajectory> = raw_logs
            .iter()
            .flat_map(|log| partition_trips(log, stay_cfg))
            .collect();
        Hris::new(net, TrajectoryArchive::new(trips), params)
    }

    /// The underlying road network.
    #[must_use]
    pub fn network(&self) -> &RoadNetwork {
        self.net
    }

    /// The historical archive.
    #[must_use]
    pub fn archive(&self) -> &TrajectoryArchive {
        &self.archive
    }

    /// The active parameters.
    #[must_use]
    pub fn params(&self) -> &HrisParams {
        &self.params
    }

    /// Infers the top-`k` routes of `query` (the problem statement).
    ///
    /// Thin wrapper over the canonical [`Hris::infer_routes_detailed`] that
    /// drops the per-pair statistics.
    #[must_use]
    pub fn infer_routes(&self, query: &Trajectory, k: usize) -> Vec<ScoredRoute> {
        self.infer_routes_detailed(query, k)
            .0
            .into_iter()
            .map(|g| ScoredRoute {
                route: g.route,
                log_score: g.log_score,
            })
            .collect()
    }

    /// The most likely single route — the map-matching application.
    ///
    /// Thin wrapper over the canonical [`Hris::infer_routes_detailed`] with
    /// `k = 1`.
    #[must_use]
    pub fn infer_top1(&self, query: &Trajectory) -> Option<ScoredRoute> {
        self.infer_routes(query, 1).into_iter().next()
    }

    /// Full inference with per-pair instrumentation — the **canonical**
    /// inference path every other `Hris` entrypoint wraps.
    #[must_use]
    pub fn infer_routes_detailed(
        &self,
        query: &Trajectory,
        k: usize,
    ) -> (Vec<GlobalRoute>, Vec<LocalStats>) {
        let locals = self.local_inference(query);
        let stats = locals.iter().map(|l| l.stats.clone()).collect();
        let globals =
            PaperScorer::from_params(&self.params).top_k(&ScoringCtx::new(self.net, &locals, k));
        (globals, stats)
    }

    /// Runs phases 1–2 for every consecutive pair of the query, including
    /// the shortest-path fallback for pairs that local inference could not
    /// cover.
    ///
    /// Candidate edges are computed once per query *point* and shared by the
    /// two pairs adjoining each interior point (an interior point is `q_j`
    /// of one pair and `q_i` of the next).
    #[must_use]
    pub fn local_inference(&self, query: &Trajectory) -> Vec<LocalInferenceResult> {
        match degenerate_local(self.net, query) {
            DegenerateQuery::Empty => return Vec::new(),
            DegenerateQuery::Single(result) => return vec![result],
            DegenerateQuery::No => {}
        }
        let cands: Vec<Vec<CandidateEdge>> = query
            .points
            .iter()
            .map(|p| self.query_candidates(p.pos))
            .collect();
        (0..query.len() - 1)
            .map(|i| {
                infer_pair(
                    self.net,
                    &self.archive,
                    &self.params,
                    query.points[i],
                    query.points[i + 1],
                    &cands[i],
                    &cands[i + 1],
                    false,
                )
                .0
            })
            .collect()
    }

    /// Candidate edges of a query point, with nearest-segment fallback.
    pub(crate) fn query_candidates(&self, p: hris_geo::Point) -> Vec<CandidateEdge> {
        query_candidates(self.net, &self.params, p)
    }
}

/// Candidate edges of a query point, with nearest-segment fallback.
pub(crate) fn query_candidates(
    net: &RoadNetwork,
    params: &HrisParams,
    p: hris_geo::Point,
) -> Vec<CandidateEdge> {
    let mut c = net.candidate_edges(p, params.candidate_eps_m);
    if c.is_empty() {
        if let Some(nearest) = net.nearest_segment(p) {
            c.push(nearest);
        }
    }
    c.truncate(params.max_query_candidates.max(1));
    c
}

/// Outcome of the sub-two-point query check shared by `Hris` and the engine.
pub(crate) enum DegenerateQuery {
    /// No points (or a single point off the network): nothing to infer.
    Empty,
    /// A single point mapped to its nearest segment.
    Single(LocalInferenceResult),
    /// Two or more points: run the real pipeline.
    No,
}

/// Handles queries with fewer than two points.
pub(crate) fn degenerate_local(net: &RoadNetwork, query: &Trajectory) -> DegenerateQuery {
    match query.len() {
        0 => DegenerateQuery::Empty,
        1 => match net.nearest_segment(query.points[0].pos) {
            Some(c) => DegenerateQuery::Single(fallback_result(Route::new(vec![c.segment]))),
            None => DegenerateQuery::Empty,
        },
        _ => DegenerateQuery::No,
    }
}

/// Phases 1–2 for one consecutive query-point pair: reference search, local
/// route inference and the data-sparseness shortest-path fallback. Returns
/// the result plus whether any step beyond the configured local algorithm
/// was needed to produce a route.
///
/// `algorithm_fallback` adds the degradation chain the engine runs for
/// repaired queries: when the configured algorithm yields nothing, retry
/// with TGI forced, then NNI forced, before the shortest path. `Hris` and
/// valid engine queries pass `false`, so their outputs cannot move a byte.
///
/// This is the unit of work the [`engine::QueryEngine`](crate::engine)
/// parallelises: it only reads shared state, so pairs can run in any order —
/// or concurrently — without changing any result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn infer_pair(
    net: &RoadNetwork,
    archive: &TrajectoryArchive,
    params: &HrisParams,
    qi: GpsPoint,
    qj: GpsPoint,
    qi_cands: &[CandidateEdge],
    qj_cands: &[CandidateEdge],
    algorithm_fallback: bool,
) -> (LocalInferenceResult, bool) {
    let dt = (qj.t - qi.t).max(1.0);
    let ref_cfg = crate::reference::RefSearchConfig {
        phi: params.phi_m,
        splice_eps: params.splice_eps_m,
        splice_when_simple_below: params.splice_when_simple_below,
        max_refs: params.max_refs_per_pair,
        temporal: params.temporal_tolerance_s.map(|tol| (qi.t, tol)),
    };
    let refs = search_references(archive, qi.pos, qj.pos, dt, net.max_speed(), &ref_cfg);
    let usable = !refs.is_empty() && !qi_cands.is_empty() && !qj_cands.is_empty();

    let mut result = if usable {
        infer_local_routes(net, refs, qi_cands, qj_cands, params)
    } else {
        LocalInferenceResult {
            routes: Vec::new(),
            edge_index: RefEdgeIndex::default(),
            refs,
            stats: LocalStats::default(),
        }
    };

    let mut fell_back = false;
    if result.routes.is_empty() && usable && algorithm_fallback {
        for alg in [LocalAlgorithm::Tgi, LocalAlgorithm::Nni] {
            let forced = HrisParams {
                local_algorithm: alg,
                ..params.clone()
            };
            let retry = infer_local_routes(net, result.refs.clone(), qi_cands, qj_cands, &forced);
            if !retry.routes.is_empty() {
                result = retry;
                fell_back = true;
                break;
            }
        }
    }

    if result.routes.is_empty() {
        // Data sparseness fallback: shortest path between the best
        // candidate edges.
        if let (Some(a), Some(b)) = (qi_cands.first(), qj_cands.first()) {
            let sp = net
                .sp_oracle()
                .route_between(a.segment, b.segment, CostModel::Distance);
            if let Some(r) = sp {
                result.routes.push(r);
                fell_back = true;
            }
        }
    }
    (result, fell_back)
}

fn fallback_result(route: Route) -> LocalInferenceResult {
    LocalInferenceResult {
        routes: vec![route],
        edge_index: RefEdgeIndex::default(),
        refs: ReferenceSet::default(),
        stats: LocalStats::default(),
    }
}

/// Adapter giving HRIS the same [`MapMatcher`] interface as the baselines:
/// the matched route is the top-1 inferred global route (the paper's
/// evaluation protocol, Section IV-C: "we use the top-1 global route to
/// compute the accuracy of our approach").
pub struct HrisMatcher<'a> {
    /// The wrapped system.
    pub hris: &'a Hris<'a>,
}

impl MapMatcher for HrisMatcher<'_> {
    fn match_trajectory(&self, net: &RoadNetwork, traj: &Trajectory) -> Option<MatchResult> {
        let top = self.hris.infer_top1(traj)?;
        // Per-point matched candidates: the nearest candidate edge of each
        // point (HRIS is a route-level inference, not a point matcher).
        let matched = traj
            .points
            .iter()
            .filter_map(|p| net.nearest_segment(p.pos))
            .collect();
        Some(MatchResult {
            matched,
            route: top.route,
        })
    }

    fn name(&self) -> &'static str {
        "HRIS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hris_geo::Point;
    use hris_roadnet::{generator, NetworkConfig};
    use hris_traj::{resample_to_interval, SimConfig, Simulator, TrajId};

    fn setup() -> (RoadNetwork, TrajectoryArchive, Vec<Route>) {
        let net = generator::generate(&NetworkConfig::small(8));
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
        (net, archive, routes)
    }

    #[test]
    fn end_to_end_inference_on_popular_route() {
        // Paper-like scale: a 6 km city, 600 trips, multi-kilometre query.
        // (The tiny `setup()` town is too saturated for meaningful
        // inference: with φ = 500 m every trip references every pair.)
        let net = generator::generate(&NetworkConfig::default());
        let mut sim = Simulator::new(
            &net,
            SimConfig {
                num_trips: 600,
                num_od_patterns: 10,
                min_trip_dist_m: 3000.0,
                seed: 13,
                ..SimConfig::default()
            },
        );
        let (archive, routes) = sim.generate_archive();
        // Query: the most common route in the archive, resampled sparsely.
        let mut counts: std::collections::HashMap<&Route, usize> = std::collections::HashMap::new();
        for r in &routes {
            *counts.entry(r).or_default() += 1;
        }
        let (popular, _) = counts.into_iter().max_by_key(|&(_, c)| c).unwrap();
        let pts = hris_traj::simulator::drive_route(&net, popular, 0.0, 20.0, 0.8).unwrap();
        let dense = Trajectory::new(TrajId(0), pts);
        let query = resample_to_interval(&dense, 180.0);

        let hris = Hris::new(&net, archive, HrisParams::default());
        let top = hris.infer_top1(&query).expect("route inferred");
        assert!(top.route.is_connected(&net));
        let cov = top.route.common_length(popular, &net) / popular.length(&net);
        assert!(
            cov > 0.5,
            "top-1 should mostly track the true route, got {cov}"
        );
    }

    #[test]
    fn top_k_routes_are_sorted_and_distinct() {
        let (net, archive, routes) = setup();
        let pts = hris_traj::simulator::drive_route(&net, &routes[0], 0.0, 20.0, 0.8).unwrap();
        let query = resample_to_interval(&Trajectory::new(TrajId(0), pts), 240.0);
        let hris = Hris::new(&net, archive, HrisParams::default());
        let top = hris.infer_routes(&query, 5);
        assert!(!top.is_empty());
        for w in top.windows(2) {
            assert!(w[0].log_score >= w[1].log_score);
        }
        for i in 0..top.len() {
            for j in (i + 1)..top.len() {
                assert_ne!(top[i].route, top[j].route, "routes must be distinct");
            }
        }
    }

    #[test]
    fn empty_and_singleton_queries() {
        let (net, archive, _) = setup();
        let hris = Hris::new(&net, archive, HrisParams::default());
        let empty = Trajectory::new(TrajId(0), vec![]);
        assert!(hris.infer_routes(&empty, 3).is_empty());

        let single = Trajectory::new(
            TrajId(0),
            vec![hris_traj::GpsPoint::new(Point::new(100.0, 100.0), 0.0)],
        );
        let routes = hris.infer_routes(&single, 3);
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].route.len(), 1);
    }

    #[test]
    fn empty_archive_falls_back_to_shortest_paths() {
        let net = generator::generate(&NetworkConfig::small(8));
        let hris = Hris::new(&net, TrajectoryArchive::empty(), HrisParams::default());
        let query = Trajectory::new(
            TrajId(0),
            vec![
                hris_traj::GpsPoint::new(Point::new(0.0, 0.0), 0.0),
                hris_traj::GpsPoint::new(Point::new(700.0, 0.0), 180.0),
                hris_traj::GpsPoint::new(Point::new(1400.0, 200.0), 360.0),
            ],
        );
        let top = hris.infer_top1(&query).expect("fallback still answers");
        assert!(top.route.is_connected(&net));
        assert!(top.route.length(&net) > 0.0);
    }

    #[test]
    fn preprocess_partitions_raw_logs() {
        let net = generator::generate(&NetworkConfig::small(8));
        // One raw log with a big temporal gap → two trips.
        let mut pts = Vec::new();
        for k in 0..5 {
            pts.push(hris_traj::GpsPoint::new(
                Point::new(k as f64 * 100.0, 0.0),
                k as f64 * 30.0,
            ));
        }
        for k in 0..5 {
            pts.push(hris_traj::GpsPoint::new(
                Point::new(k as f64 * 100.0, 500.0),
                10_000.0 + k as f64 * 30.0,
            ));
        }
        let raw = Trajectory::new(TrajId(0), pts);
        let hris = Hris::preprocess(
            &net,
            &[raw],
            &StayPointConfig::default(),
            HrisParams::default(),
        );
        assert_eq!(hris.archive().num_trajectories(), 2);
    }

    #[test]
    fn matcher_adapter_names_and_matches() {
        let (net, archive, routes) = setup();
        let hris = Hris::new(&net, archive, HrisParams::default());
        let matcher = HrisMatcher { hris: &hris };
        assert_eq!(matcher.name(), "HRIS");
        let pts = hris_traj::simulator::drive_route(&net, &routes[0], 0.0, 20.0, 0.8).unwrap();
        let query = resample_to_interval(&Trajectory::new(TrajId(0), pts), 300.0);
        let m = matcher.match_trajectory(&net, &query).unwrap();
        assert_eq!(m.matched.len(), query.len());
        assert!(!m.route.is_empty());
    }
}
