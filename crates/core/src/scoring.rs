//! Route scoring behind the [`RouteScorer`] API.
//!
//! The paper scores global routes with hand-set popularity and
//! transition-confidence functions ([`crate::global`]). This module puts
//! that scoring behind one seam so callers — the engine, the sharded
//! router's seam splice, the eval harness — all rank routes the same way:
//! [`PaperScorer`] is the K-GRI dynamic program and its brute-force oracle;
//! it *is* the paper.
//!
//! [`extract_features`] describes one ranked route — its shape, how well
//! the historical archive supports it, and how far it strays from the
//! shortest path ([`RouteFeatures`]). It never changes a ranking; a
//! query's record reports the vector beside each route's score
//! ([`explain`](crate::audit::explain)).

use crate::global::{
    brute_force_top_k_impl, k_gri_impl, log_transition_confidence_sorted, route_traj_ids_sorted,
    GlobalRoute,
};
use crate::local::LocalInferenceResult;
use crate::params::{HrisParams, PopularityModel};
use hris_roadnet::{CostModel, RoadNetwork};

/// Borrowed inputs of one global-inference scoring pass: the network, the
/// per-pair local inference results, and how many global routes to return.
#[derive(Clone, Copy)]
pub struct ScoringCtx<'a> {
    /// The road network (shared by every shard in a sharded deployment, so
    /// network-derived features agree across the seam splice).
    pub net: &'a RoadNetwork,
    /// One local-inference result per consecutive query-point pair.
    pub locals: &'a [LocalInferenceResult],
    /// How many global routes to return.
    pub k: usize,
}

impl<'a> ScoringCtx<'a> {
    /// Bundles the inputs of one scoring pass.
    #[must_use]
    pub fn new(net: &'a RoadNetwork, locals: &'a [LocalInferenceResult], k: usize) -> Self {
        ScoringCtx { net, locals, k }
    }
}

/// Global route scoring: turn per-pair local routes into ranked global
/// routes. Implementations must be deterministic — same context, same
/// output, bit for bit — because the engine's determinism and
/// shard-equivalence suites compare results across execution modes and
/// shard counts.
pub trait RouteScorer {
    /// Top-K global routes via the efficient path (the K-GRI dynamic
    /// program for the paper scorer).
    fn top_k(&self, ctx: &ScoringCtx<'_>) -> Vec<GlobalRoute>;

    /// Top-K via exhaustive enumeration — the `O(mⁿ)` oracle used for
    /// Figure 14b and as a test oracle. Must rank identically to
    /// [`RouteScorer::top_k`].
    fn top_k_brute_force(&self, ctx: &ScoringCtx<'_>) -> Vec<GlobalRoute>;
}

/// The paper's scoring, exactly: popularity `f` (Equation 1) and
/// transition confidence `g` (Equation 2) threaded by the K-GRI dynamic
/// program (Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperScorer {
    /// Entropy floor keeping single-segment routes rankable (see
    /// [`crate::local::route_popularity`]).
    pub entropy_floor: f64,
    /// Which form of Equation 1 scores local-route popularity.
    pub model: PopularityModel,
}

impl PaperScorer {
    /// A paper scorer with explicit knobs.
    #[must_use]
    pub fn new(entropy_floor: f64, model: PopularityModel) -> Self {
        PaperScorer {
            entropy_floor,
            model,
        }
    }

    /// The scorer the given parameter set implies.
    #[must_use]
    pub fn from_params(params: &HrisParams) -> Self {
        PaperScorer {
            entropy_floor: params.entropy_floor,
            model: params.popularity_model,
        }
    }
}

impl RouteScorer for PaperScorer {
    fn top_k(&self, ctx: &ScoringCtx<'_>) -> Vec<GlobalRoute> {
        k_gri_impl(ctx.net, ctx.locals, ctx.k, self.entropy_floor, self.model)
    }

    fn top_k_brute_force(&self, ctx: &ScoringCtx<'_>) -> Vec<GlobalRoute> {
        brute_force_top_k_impl(ctx.net, ctx.locals, ctx.k, self.entropy_floor, self.model)
    }
}

/// Number of features in a [`RouteFeatures`] vector.
pub const NUM_FEATURES: usize = 8;

/// Feature names, in [`RouteFeatures::to_array`] order.
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "turn_count",
    "mean_pair_popularity",
    "min_pair_popularity",
    "transition_sum",
    "travel_time_residual",
    "length_ratio",
    "support_density",
    "log_score",
];

/// Per-route features: the score components behind a ranked route plus
/// its shape. All values are finite for any input (guards below replace
/// degenerate divisions), and extraction is a pure sequential function of
/// the context — deterministic regardless of thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteFeatures {
    /// Sharp direction changes (> 45°) between consecutive segments of the
    /// stitched route. Invariant under uniform coordinate scaling.
    pub turn_count: f64,
    /// Mean popularity `f(Rᵢ)` across the chosen local routes.
    pub mean_pair_popularity: f64,
    /// Minimum popularity across the chosen local routes — one unsupported
    /// pair should be able to sink a candidate.
    pub min_pair_popularity: f64,
    /// `Σ ln g(Rᵢ, Rᵢ₊₁)` over consecutive chosen pairs (0 for a
    /// single-pair query); in `[−(n−1), 0]`.
    pub transition_sum: f64,
    /// `(route travel time − shortest-path travel time) / shortest-path
    /// travel time` between the route's first and last segment via the
    /// `SpOracle`; 0 when no shortest path exists.
    pub travel_time_residual: f64,
    /// Route length over the shortest-path distance between its first and
    /// last segment; 1 when no shortest path exists.
    pub length_ratio: f64,
    /// Distinct historical trajectories supporting the route
    /// (`C_i(R)` union across pairs) per route segment.
    pub support_density: f64,
    /// The paper's own `ln s(R)`.
    pub log_score: f64,
}

impl RouteFeatures {
    /// The features as a fixed-size array, [`FEATURE_NAMES`] order.
    #[must_use]
    pub fn to_array(&self) -> [f64; NUM_FEATURES] {
        [
            self.turn_count,
            self.mean_pair_popularity,
            self.min_pair_popularity,
            self.transition_sum,
            self.travel_time_residual,
            self.length_ratio,
            self.support_density,
            self.log_score,
        ]
    }
}

/// `0.0` for non-finite values — a reported feature is always a number.
fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Extracts the features of one candidate global route.
///
/// `entropy_floor` and `model` must match the scorer that produced the
/// candidate, so the popularity features line up with the DP's own `f`.
#[must_use]
pub fn extract_features(
    ctx: &ScoringCtx<'_>,
    candidate: &GlobalRoute,
    entropy_floor: f64,
    model: PopularityModel,
) -> RouteFeatures {
    let net = ctx.net;

    // Popularity of each chosen local route, exactly as `precompute` sees
    // it (before the ln/floor used by the DP).
    let mut pop_sum = 0.0;
    let mut pop_min = f64::INFINITY;
    let mut n_pairs = 0usize;
    for (i, &j) in candidate.local_indices.iter().enumerate() {
        let Some(local) = ctx.locals.get(i) else {
            break;
        };
        let Some(route) = local.routes.get(j) else {
            continue;
        };
        let f = crate::local::route_popularity_with(route, &local.edge_index, entropy_floor, model);
        pop_sum += f;
        pop_min = pop_min.min(f);
        n_pairs += 1;
    }
    let mean_pop = if n_pairs == 0 {
        0.0
    } else {
        pop_sum / n_pairs as f64
    };
    let min_pop = if n_pairs == 0 { 0.0 } else { pop_min };

    // Transition-confidence sum and archive support across chosen pairs.
    let ids: Vec<Vec<_>> = candidate
        .local_indices
        .iter()
        .enumerate()
        .filter_map(|(i, &j)| {
            let local = ctx.locals.get(i)?;
            let route = local.routes.get(j)?;
            Some(route_traj_ids_sorted(route, local))
        })
        .collect();
    let transition_sum: f64 = ids
        .windows(2)
        .map(|w| log_transition_confidence_sorted(&w[0], &w[1]))
        .sum();
    let mut support: Vec<_> = ids.into_iter().flatten().collect();
    support.sort_unstable();
    support.dedup();
    let support_density = if candidate.route.is_empty() {
        0.0
    } else {
        support.len() as f64 / candidate.route.len() as f64
    };

    // Sharp turns along the stitched route: consecutive segment heading
    // vectors at an angle above 45°, detected with dot/cross products only
    // (no trigonometry — exact under power-of-two coordinate scaling).
    let mut turn_count = 0.0;
    let segs = candidate.route.segments();
    for w in segs.windows(2) {
        let (a, b) = (net.segment(w[0]), net.segment(w[1]));
        let (pa, qa) = (net.node(a.from), net.node(a.to));
        let (pb, qb) = (net.node(b.from), net.node(b.to));
        let (ux, uy) = (qa.x - pa.x, qa.y - pa.y);
        let (vx, vy) = (qb.x - pb.x, qb.y - pb.y);
        if (ux == 0.0 && uy == 0.0) || (vx == 0.0 && vy == 0.0) {
            continue;
        }
        let dot = ux * vx + uy * vy;
        let cross = ux * vy - uy * vx;
        // angle > 45° ⇔ cos < √2/2 ⇔ |cross| > dot (or dot ≤ 0).
        if dot <= 0.0 || cross.abs() > dot {
            turn_count += 1.0;
        }
    }

    // Shortest-path residuals between the route's own endpoints.
    let mut travel_time_residual = 0.0;
    let mut length_ratio = 1.0;
    if let (Some(&first), Some(&last)) = (segs.first(), segs.last()) {
        if first != last {
            let oracle = net.sp_oracle();
            if let Some(sp_t) = oracle.route_cost_between(first, last, CostModel::Time) {
                if sp_t > 0.0 {
                    travel_time_residual =
                        finite_or_zero((candidate.route.travel_time(net) - sp_t) / sp_t);
                }
            }
            if let Some(sp_d) = oracle.route_cost_between(first, last, CostModel::Distance) {
                if sp_d > 0.0 {
                    let r = candidate.route.length(net) / sp_d;
                    length_ratio = if r.is_finite() { r } else { 1.0 };
                }
            }
        }
    }

    RouteFeatures {
        turn_count,
        mean_pair_popularity: finite_or_zero(mean_pop),
        min_pair_popularity: finite_or_zero(min_pop),
        transition_sum: finite_or_zero(transition_sum),
        travel_time_residual,
        length_ratio,
        support_density: finite_or_zero(support_density),
        log_score: finite_or_zero(candidate.log_score),
    }
}
