//! Global route inference (Section III-C): scoring and the K-GRI dynamic
//! program (Algorithm 3).
//!
//! A global route `R = R₁ ⋄ R₂ ⋄ … ⋄ Rₙ` scores
//! `s(R) = Π f(Rᵢ) · Π g(Rᵢ, Rᵢ₊₁)` where
//!
//! - `f(R) = |⋃_{r∈R} C_i(r)| · Σ_{r∈R} −x(r)·log x(r)` (Equation 1):
//!   reference support scaled by the *entropy* of the per-segment reference
//!   distribution — a route with uniformly sustained traffic beats one with
//!   a single busy intersection (Figure 6);
//! - `g(R_a, R_b) = exp(J(C_i(R_a), C_{i+1}(R_b)) − 1)` (Equation 2): the
//!   Jaccard overlap of the *underlying historical trajectories* on the two
//!   local routes — shared through-traffic means they chain confidently.
//!
//! All arithmetic happens in log space to avoid underflow across long
//! queries. K-GRI exploits the downward-closure property — every prefix of
//! a top-K global route is itself top-K among routes ending at the same
//! local route — for an `O(K·n·m²)` DP; the exhaustive `O(mⁿ)` enumeration
//! ([`RouteScorer::top_k_brute_force`](crate::scoring::RouteScorer)) is the
//! oracle used for Figure 14b and as a test oracle. Both are reached through
//! [`PaperScorer`](crate::scoring::PaperScorer).

use crate::local::LocalInferenceResult;
use crate::params::PopularityModel;
use hris_roadnet::{CostModel, RoadNetwork, Route};
use hris_traj::TrajId;
use std::collections::HashSet;

/// A scored global route.
#[derive(Debug, Clone)]
pub struct GlobalRoute {
    /// Which local route was chosen for each query pair.
    pub local_indices: Vec<usize>,
    /// The physical route (local routes concatenated and bridged).
    pub route: Route,
    /// `ln s(R)`.
    pub log_score: f64,
}

/// Underlying historical trajectory ids travelling on `route` — the
/// `C_i(R)` sets that the transition confidence intersects across pairs.
#[must_use]
pub fn route_traj_ids(route: &Route, local: &LocalInferenceResult) -> HashSet<TrajId> {
    let mut out = HashSet::new();
    for ref_idx in local.edge_index.refs_on_route(route) {
        out.extend(local.refs.refs[ref_idx].sources.iter().copied());
    }
    out
}

/// `ln g(R_a, R_b)` = Jaccard(ids_a, ids_b) − 1 (Equation 2 in log space).
///
/// Ranges over `[−1, 0]`: identical sets give 0 (`g = 1`), disjoint sets
/// give −1 (`g = 1/e`). Two empty sets count as disjoint.
#[must_use]
pub fn log_transition_confidence(ids_a: &HashSet<TrajId>, ids_b: &HashSet<TrajId>) -> f64 {
    let inter = ids_a.intersection(ids_b).count();
    let union = ids_a.union(ids_b).count();
    let jaccard = if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    };
    jaccard - 1.0
}

/// Sorted, deduplicated trajectory ids on `route` — same contents as
/// [`route_traj_ids`], laid out for the merge-walk Jaccard in the DP inner
/// loop (no hashing per transition). Shared with the feature extractor in
/// [`crate::scoring`].
pub(crate) fn route_traj_ids_sorted(route: &Route, local: &LocalInferenceResult) -> Vec<TrajId> {
    let mut out: Vec<TrajId> = Vec::new();
    for ref_idx in local.edge_index.refs_on_route(route) {
        out.extend(local.refs.refs[ref_idx].sources.iter().copied());
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// [`log_transition_confidence`] over sorted deduplicated id slices.
///
/// Computes the same intersection/union counts via a linear merge walk, so
/// the resulting Jaccard (and hence the score) is bit-identical to the
/// hash-set version.
pub(crate) fn log_transition_confidence_sorted(a: &[TrajId], b: &[TrajId]) -> f64 {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    let jaccard = if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    };
    jaccard - 1.0
}

/// Precomputed per-pair scoring ingredients.
struct PairScores {
    /// `ln f` per local route of the pair.
    log_f: Vec<f64>,
    /// Sorted trajectory-id lists per local route of the pair.
    ids: Vec<Vec<TrajId>>,
}

fn precompute(
    locals: &[LocalInferenceResult],
    entropy_floor: f64,
    model: PopularityModel,
) -> Vec<PairScores> {
    locals
        .iter()
        .map(|l| PairScores {
            log_f: l
                .routes
                .iter()
                .map(|r| {
                    crate::local::route_popularity_with(r, &l.edge_index, entropy_floor, model)
                        .max(1e-9)
                        .ln()
                })
                .collect(),
            ids: l
                .routes
                .iter()
                .map(|r| route_traj_ids_sorted(r, l))
                .collect(),
        })
        .collect()
}

/// Top-K Global Route Inference (Algorithm 3), the dynamic program behind
/// [`crate::scoring::PaperScorer`].
///
/// `locals` must have at least one local route per pair; pairs with no
/// routes make the result empty (the pipeline inserts shortest-path
/// fallbacks before calling this).
pub(crate) fn k_gri_impl(
    net: &RoadNetwork,
    locals: &[LocalInferenceResult],
    k: usize,
    entropy_floor: f64,
    model: PopularityModel,
) -> Vec<GlobalRoute> {
    if k == 0 || locals.is_empty() || locals.iter().any(|l| l.routes.is_empty()) {
        return Vec::new();
    }
    let scores = precompute(locals, entropy_floor, model);

    // M[j] — top-K partial assignments ending at local route j of pair i.
    type Partial = (f64, Vec<usize>); // (log score, chosen indices)
    let mut m: Vec<Vec<Partial>> = scores[0]
        .log_f
        .iter()
        .enumerate()
        .map(|(j, &f)| vec![(f, vec![j])])
        .collect();

    for i in 1..locals.len() {
        let mut next: Vec<Vec<Partial>> = vec![Vec::new(); scores[i].log_f.len()];
        for (j, slot) in next.iter_mut().enumerate() {
            let mut cands: Vec<Partial> = Vec::new();
            for (jp, prevs) in m.iter().enumerate() {
                let g = log_transition_confidence_sorted(&scores[i - 1].ids[jp], &scores[i].ids[j]);
                for (s, path) in prevs {
                    let mut np = path.clone();
                    np.push(j);
                    cands.push((s + g + scores[i].log_f[j], np));
                }
            }
            cands.sort_by(|a, b| b.0.total_cmp(&a.0));
            cands.truncate(k);
            *slot = cands;
        }
        m = next;
    }

    // Gather the global top-K across all final slots.
    let mut all: Vec<Partial> = m.into_iter().flatten().collect();
    all.sort_by(|a, b| b.0.total_cmp(&a.0));
    all.truncate(k);
    all.into_iter()
        .map(|(log_score, local_indices)| GlobalRoute {
            route: stitch(net, locals, &local_indices),
            local_indices,
            log_score,
        })
        .collect()
}

/// Brute-force oracle behind [`crate::scoring::PaperScorer`]: enumerates
/// all `Π |ℛ_i|` combinations. Exponential — used for Figure 14b and to
/// validate K-GRI in tests.
pub(crate) fn brute_force_top_k_impl(
    net: &RoadNetwork,
    locals: &[LocalInferenceResult],
    k: usize,
    entropy_floor: f64,
    model: PopularityModel,
) -> Vec<GlobalRoute> {
    if k == 0 || locals.is_empty() || locals.iter().any(|l| l.routes.is_empty()) {
        return Vec::new();
    }
    let scores = precompute(locals, entropy_floor, model);
    let mut best: Vec<(f64, Vec<usize>)> = Vec::new();
    let mut current = vec![0usize; locals.len()];
    enumerate(&scores, 0, 0.0, &mut current, &mut best, k);
    best.sort_by(|a, b| b.0.total_cmp(&a.0));
    best.truncate(k);
    best.into_iter()
        .map(|(log_score, local_indices)| GlobalRoute {
            route: stitch(net, locals, &local_indices),
            local_indices,
            log_score,
        })
        .collect()
}

fn enumerate(
    scores: &[PairScores],
    i: usize,
    acc: f64,
    current: &mut Vec<usize>,
    best: &mut Vec<(f64, Vec<usize>)>,
    k: usize,
) {
    if i == scores.len() {
        best.push((acc, current.clone()));
        if best.len() > 4 * k {
            best.sort_by(|a, b| b.0.total_cmp(&a.0));
            best.truncate(k);
        }
        return;
    }
    for j in 0..scores[i].log_f.len() {
        let mut s = acc + scores[i].log_f[j];
        if i > 0 {
            s += log_transition_confidence_sorted(
                &scores[i - 1].ids[current[i - 1]],
                &scores[i].ids[j],
            );
        }
        current[i] = j;
        enumerate(scores, i + 1, s, current, best, k);
    }
}

/// Concatenates the chosen local routes into one physical route, bridging
/// inter-pair gaps with network shortest paths (the paper: "we can always
/// use shortest path to bridge this gap").
fn stitch(net: &RoadNetwork, locals: &[LocalInferenceResult], indices: &[usize]) -> Route {
    let mut out = Route::empty();
    for (i, &j) in indices.iter().enumerate() {
        let part = &locals[i].routes[j];
        if out.is_empty() {
            out = part.clone();
            continue;
        }
        let prev_last = *out.segments().last().expect("non-empty");
        let next_first = *part.segments().first().expect("local routes non-empty");
        if prev_last == next_first {
            out = out.concat(part);
        } else {
            match net
                .sp_oracle()
                .route_between(prev_last, next_first, CostModel::Distance)
            {
                Some(bridge) => {
                    out = out.concat(&bridge);
                    out = out.concat(part);
                }
                None => out = out.concat(part),
            }
        }
    }
    // Bridging mismatched junction candidates can introduce backtracking;
    // excise the loops so the global route's length stays honest.
    out.without_loops(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::{route_popularity, LocalStats, RefEdgeIndex};
    use crate::reference::{RefKind, RefTrajectory, ReferenceSet};
    use crate::scoring::{PaperScorer, RouteScorer, ScoringCtx};
    use hris_geo::Point;
    use hris_roadnet::{generator, NetworkConfig, SegmentId};
    use hris_traj::GpsPoint;

    const SCORER: PaperScorer = PaperScorer {
        entropy_floor: 0.05,
        model: PopularityModel::ScaleFree,
    };

    fn k_gri(net: &RoadNetwork, locals: &[LocalInferenceResult], k: usize) -> Vec<GlobalRoute> {
        SCORER.top_k(&ScoringCtx::new(net, locals, k))
    }

    fn net() -> RoadNetwork {
        generator::generate(&NetworkConfig {
            jitter_frac: 0.0,
            curve_frac: 0.0,
            removal_frac: 0.0,
            oneway_frac: 0.0,
            ..NetworkConfig::small(5)
        })
    }

    /// Builds a synthetic LocalInferenceResult with hand-wired coverage.
    fn synth_local(
        net: &RoadNetwork,
        routes: Vec<Route>,
        coverage: &[(SegmentId, &[usize])],
        sources: &[&[u32]],
    ) -> LocalInferenceResult {
        let edge_index = RefEdgeIndex::from_pairs(
            coverage
                .iter()
                .flat_map(|(seg, refs)| refs.iter().map(move |&r| (*seg, r))),
        );
        let refs = ReferenceSet {
            refs: sources
                .iter()
                .map(|srcs| RefTrajectory {
                    kind: RefKind::Simple,
                    sources: srcs.iter().map(|&s| TrajId(s)).collect(),
                    points: vec![GpsPoint::new(Point::ORIGIN, 0.0)],
                })
                .collect(),
        };
        let _ = net;
        LocalInferenceResult {
            routes,
            edge_index,
            refs,
            stats: LocalStats::default(),
        }
    }

    /// Two consecutive pairs on a straight corridor with controllable
    /// popularity.
    fn corridor_locals(net: &RoadNetwork) -> Vec<LocalInferenceResult> {
        // Find a chain of 4 connected segments that never backtracks
        // (loop excision would collapse an out-and-back chain).
        let forward = |prev: SegmentId, net: &RoadNetwork| {
            net.next_segments(prev)
                .iter()
                .copied()
                .find(|&s| net.segment(s).to != net.segment(prev).from)
                .unwrap()
        };
        let s0 = net
            .segments()
            .iter()
            .find(|s| !net.next_segments(s.id).is_empty())
            .unwrap()
            .id;
        let s1 = forward(s0, net);
        let s2 = forward(s1, net);
        let s3 = forward(s2, net);
        // Pair 1 routes: [s0, s1] (popular, refs 0&1) and [s0] (ref 0 only).
        let l1 = synth_local(
            net,
            vec![Route::new(vec![s0, s1]), Route::new(vec![s0])],
            &[(s0, &[0, 1]), (s1, &[0, 1])],
            &[&[10], &[11]],
        );
        // Pair 2 routes: [s2, s3] covered by the same trajectories.
        let l2 = synth_local(
            net,
            vec![Route::new(vec![s2, s3]), Route::new(vec![s3])],
            &[(s2, &[0, 1]), (s3, &[0])],
            &[&[10], &[11]],
        );
        vec![l1, l2]
    }

    #[test]
    fn popularity_prefers_staying_on_covered_corridor() {
        let net = net();
        let forward = |prev: SegmentId| {
            net.next_segments(prev)
                .iter()
                .copied()
                .find(|&s| net.segment(s).to != net.segment(prev).from)
                .unwrap()
        };
        let s0 = net.segments()[0].id;
        let s1 = forward(s0);
        let s2 = forward(s1);
        // s0 and s1 carry two references each; s2 carries none.
        let local = synth_local(
            &net,
            vec![Route::new(vec![s0, s1]), Route::new(vec![s1, s2])],
            &[(s0, &[0, 1]), (s1, &[0, 1])],
            &[&[10], &[11]],
        );
        let on_corridor = route_popularity(&local.routes[0], &local.edge_index, 0.05);
        let strays = route_popularity(&local.routes[1], &local.edge_index, 0.05);
        assert!(
            on_corridor > strays,
            "{on_corridor} vs {strays}: uncovered segments must drag the score"
        );
    }

    #[test]
    fn popularity_zero_without_references() {
        let net = net();
        let locals = corridor_locals(&net);
        let uncovered = Route::new(vec![net.segments().last().unwrap().id]);
        assert_eq!(
            route_popularity(&uncovered, &locals[0].edge_index, 0.05),
            0.0
        );
    }

    #[test]
    fn entropy_prefers_uniform_distribution() {
        let net = net();
        let s0 = net.segments()[0].id;
        let s1 = net.next_segments(s0)[0];
        // Uniform: both segments covered by both refs.
        let uniform = synth_local(
            &net,
            vec![Route::new(vec![s0, s1])],
            &[(s0, &[0, 1]), (s1, &[0, 1])],
            &[&[1], &[2]],
        );
        // Bursty: all coverage heaped on one segment.
        let bursty = synth_local(
            &net,
            vec![Route::new(vec![s0, s1])],
            &[(s0, &[0, 1])],
            &[&[1], &[2]],
        );
        let fu = route_popularity(&uniform.routes[0], &uniform.edge_index, 0.0);
        let fb = route_popularity(&bursty.routes[0], &bursty.edge_index, 0.0);
        assert!(fu > fb, "uniform {fu} must beat bursty {fb}");
    }

    #[test]
    fn transition_confidence_bounds() {
        let a: HashSet<TrajId> = [TrajId(1), TrajId(2)].into_iter().collect();
        let b: HashSet<TrajId> = [TrajId(1), TrajId(2)].into_iter().collect();
        let c: HashSet<TrajId> = [TrajId(9)].into_iter().collect();
        assert_eq!(log_transition_confidence(&a, &b), 0.0); // g = 1
        assert_eq!(log_transition_confidence(&a, &c), -1.0); // g = 1/e
        let empty = HashSet::new();
        assert_eq!(log_transition_confidence(&empty, &empty), -1.0);
        let half = log_transition_confidence(&a, &[TrajId(1)].into_iter().collect());
        assert!(half > -1.0 && half < 0.0);
    }

    #[test]
    fn sorted_transition_matches_hashset_version() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[1, 2, 3], &[2, 3, 4]),
            (&[1, 2], &[1, 2]),
            (&[1], &[9]),
            (&[], &[]),
            (&[5], &[]),
            (&[1, 3, 5, 7], &[2, 3, 5, 9]),
        ];
        for (a, b) in cases {
            let sa: HashSet<TrajId> = a.iter().map(|&x| TrajId(x)).collect();
            let sb: HashSet<TrajId> = b.iter().map(|&x| TrajId(x)).collect();
            let va: Vec<TrajId> = a.iter().map(|&x| TrajId(x)).collect();
            let vb: Vec<TrajId> = b.iter().map(|&x| TrajId(x)).collect();
            let h = log_transition_confidence(&sa, &sb);
            let s = log_transition_confidence_sorted(&va, &vb);
            assert_eq!(h.to_bits(), s.to_bits(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn kgri_matches_brute_force() {
        let net = net();
        let locals = corridor_locals(&net);
        for k in 1..=4 {
            let dp = k_gri(&net, &locals, k);
            let bf = SCORER.top_k_brute_force(&ScoringCtx::new(&net, &locals, k));
            assert_eq!(dp.len(), bf.len(), "k={k}");
            for (d, b) in dp.iter().zip(bf.iter()) {
                assert!(
                    (d.log_score - b.log_score).abs() < 1e-9,
                    "k={k}: {} vs {}",
                    d.log_score,
                    b.log_score
                );
            }
            // Scores non-increasing.
            for w in dp.windows(2) {
                assert!(w[0].log_score >= w[1].log_score);
            }
        }
    }

    #[test]
    fn kgri_k_bounds_output() {
        let net = net();
        let locals = corridor_locals(&net);
        assert!(k_gri(&net, &locals, 0).is_empty());
        let one = k_gri(&net, &locals, 1);
        assert_eq!(one.len(), 1);
        // 2 pairs × 2 routes = 4 combinations max.
        let many = k_gri(&net, &locals, 100);
        assert_eq!(many.len(), 4);
    }

    #[test]
    fn kgri_empty_pair_yields_empty() {
        let net = net();
        let mut locals = corridor_locals(&net);
        locals[1].routes.clear();
        assert!(k_gri(&net, &locals, 3).is_empty());
    }

    #[test]
    fn stitched_route_is_connected() {
        let net = net();
        let locals = corridor_locals(&net);
        let top = k_gri(&net, &locals, 1);
        assert_eq!(top.len(), 1);
        assert!(top[0].route.is_connected(&net));
        assert!(top[0].route.len() >= 2);
    }

    #[test]
    fn top1_picks_most_popular_chain() {
        let net = net();
        let locals = corridor_locals(&net);
        let top = k_gri(&net, &locals, 1);
        // Pair 1's popular route is index 0 (two refs, sustained).
        assert_eq!(top[0].local_indices[0], 0);
    }
}
