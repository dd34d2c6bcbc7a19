//! Nearest-Neighbor based Inference — Algorithm 2 of the paper.
//!
//! Starting from `q_i`, repeatedly transfer to up to `k₂` constrained
//! nearest reference points until `q_{i+1}` is reached. A candidate next
//! point `p` (seen from current point `c`) is admissible when:
//!
//! 1. it does not move away from the destination by more than the remaining
//!    tolerance `α` — `d(p, q_{i+1}) − α > d(c, q_{i+1})` rejects it
//!    (line 9); whenever we do move away, the deviation is deducted from
//!    `α` (line 20), so runs that keep heading backwards die out;
//! 2. it does not force a detour: `(d(c, p) + d(p, q_{i+1})) / d(c, q_{i+1})
//!    > β` rejects it (line 11).
//!
//! If `q_{i+1}` itself is admissible, it preempts all other candidates
//! (lines 13–16).
//!
//! **Sharing common substructures** (Figure 5): expanding a point means one
//! constrained-kNN search. With sharing enabled, expansions are memoised in
//! a *transit graph* so every point is searched at most once; without it,
//! every recursion-tree visit pays the search again (the paper's Figure 13b
//! ablation). Either way the set of enumerated `q_i → q_{i+1}` paths is the
//! same; each path's point trace is map-matched into a physical route.
//!
//! **Transit graph first, enumeration second.** An expansion is a pure
//! function of the point (see `Cloud::expand`), so whether `q_{i+1}` can
//! be reached at all is a property of the transit graph, not of the order
//! paths are enumerated in. With sharing on, `TransitGraph::reaches_terminal`
//! therefore grows the graph from `q_i` until the destination first shows up
//! among a point's successors, and the loopless-path enumeration runs only
//! when it did. In sparse history most pairs end in a small closed cluster
//! around `q_i`, and enumerating every loopless path of such a cluster
//! spends the whole step budget to return nothing.

use crate::local::LocalStats;
use crate::params::HrisParams;
use crate::reference::ReferenceSet;
use hris_geo::Point;
use hris_mapmatch::{reconstruct_route, BridgeMemo};
use hris_roadnet::network::CandidateEdge;
use hris_roadnet::{FxHashSet, RoadNetwork, Route, SegmentId};

/// The point cloud of one query pair: the *set* of observed reference
/// positions, then the terminal `q_{i+1}`, in flat arrays that one linear
/// scan per expansion searches. Node ids are dense: cloud indices, plus one
/// pseudo-node past the end for `q_i`.
///
/// A set, because one archive observation enters a pair's references once
/// through its simple reference and once more through every spliced
/// reference built from the same trip. A copy adds nothing Algorithm 2 can
/// walk to, yet it would take one of the `k₂` successor slots of every point
/// near it. A scan rather than an index, because a cloud of a few hundred
/// points serves a couple of dozen searches and is dropped: building a
/// spatial index over it costs more than those searches save.
struct Cloud {
    /// The distinct reference positions in first-seen order, then the
    /// terminal. The terminal is never merged with a reference point that
    /// coincides with it: it is the one node that ends a walk.
    points: Vec<Point>,
    /// `d(p, q_{i+1})` per cloud point: every admissibility test needs it,
    /// so one sweep precomputes what each expansion would re-derive.
    d_to_qj: Vec<f64>,
    qi: Point,
    qj: Point,
    d_qi_qj: f64,
}

impl Cloud {
    fn new(ref_points: impl IntoIterator<Item = Point>, qi: Point, qj: Point) -> Self {
        let mut seen: FxHashSet<(u64, u64)> = FxHashSet::default();
        let mut points: Vec<Point> = ref_points
            .into_iter()
            .filter(|p| seen.insert((p.x.to_bits(), p.y.to_bits())))
            .collect();
        points.push(qj);
        let d_to_qj = points.iter().map(|p| p.dist(qj)).collect();
        Cloud {
            points,
            d_to_qj,
            qi,
            qj,
            d_qi_qj: qi.dist(qj),
        }
    }

    /// Node id of the terminal `q_{i+1}`.
    fn terminal_id(&self) -> usize {
        self.points.len() - 1
    }

    /// Node id of the start pseudo-node `q_i`.
    fn start_id(&self) -> usize {
        self.points.len()
    }

    fn pos(&self, node: usize) -> Point {
        if node == self.start_id() {
            self.qi
        } else {
            self.points[node]
        }
    }

    /// Expansion: the constrained kNN of `node`, one search — the `k₂`
    /// nearest admissible points in ascending (distance, cloud index) order,
    /// or the terminal alone when it is one of them.
    ///
    /// α is *telescoped*: the remaining tolerance at a node depends only on
    /// how much closer/further the node is than q_i, which makes expansions
    /// node-local — a pure function of `node` — and therefore shareable
    /// across branches (the transit graph requires branch-independent
    /// expansions, and the reachability pre-pass relies on it too).
    ///
    /// Positions are distinct, so (distance, index) is the whole order: the
    /// index only separates points that are exactly equally far, and a
    /// best-first search over any spatial index of this cloud names the same
    /// successors (the test module keeps one to compare against).
    fn expand(&self, node: usize, params: &HrisParams, searches: &mut usize) -> Vec<usize> {
        *searches += 1;
        let from = self.pos(node);
        let terminal_id = self.terminal_id();
        let d_c = from.dist(self.qj);
        let alpha_left = (params.alpha_m - (d_c - self.d_qi_qj).max(0.0)).max(0.0);
        let k2 = params.k2.max(1);
        let mut nearest: Vec<(f64, usize)> = Vec::with_capacity(k2.min(self.points.len()));
        // Squared distance of the k₂-th nearest once there are k₂.
        let mut bound_sq = f64::INFINITY;
        for (id, (&p, &d_p)) in self.points.iter().zip(&self.d_to_qj).enumerate() {
            // Line 9: tolerated backward movement.
            if d_p - alpha_left > d_c {
                continue;
            }
            // Exact: `sqrt` is monotone, so a point whose squared distance
            // is no smaller than the k₂-th nearest's is no nearer either,
            // and coming later in the scan it loses the tie on index.
            let d_sq = p.dist_sq(from);
            if d_sq >= bound_sq {
                continue;
            }
            let d = d_sq.sqrt(); // `Point::dist`, bit for bit
            if d < 1e-9 {
                continue; // the point itself
            }
            // Line 11: detour ratio.
            if d_c > 1e-9 && (d + d_p) / d_c > params.beta {
                continue;
            }
            let at = nearest.partition_point(|&(nearer, _)| nearer <= d);
            if at == k2 {
                continue;
            }
            nearest.truncate(k2 - 1);
            nearest.insert(at, (d, id));
            if let Some(&(_, kth)) = nearest.get(k2 - 1) {
                bound_sq = self.points[kth].dist_sq(from);
            }
        }
        // Lines 13–16: destination reached — it preempts everything.
        if nearest.iter().any(|&(_, id)| id == terminal_id) {
            return vec![terminal_id];
        }
        nearest.into_iter().map(|(_, id)| id).collect()
    }
}

/// The transit graph of Figure 5: memoised expansions, so every node is
/// searched at most once. Node ids are dense, so the memo is a flat
/// successor arena — spans into one shared vector — instead of a hash map
/// of cloned `Vec`s. The start pseudo-node has a slot like any other.
struct TransitGraph {
    spans: Vec<Option<(u32, u32)>>,
    flat: Vec<usize>,
}

impl TransitGraph {
    fn new(cloud: &Cloud) -> Self {
        TransitGraph {
            spans: vec![None; cloud.start_id() + 1],
            flat: Vec::new(),
        }
    }

    /// The successors of `node`, expanding it on first use.
    fn successors(
        &mut self,
        cloud: &Cloud,
        node: usize,
        params: &HrisParams,
        searches: &mut usize,
    ) -> &[usize] {
        let (lo, hi) = match self.spans[node] {
            Some(span) => span,
            None => {
                let s = cloud.expand(node, params, searches);
                let lo = self.flat.len() as u32;
                self.flat.extend_from_slice(&s);
                let span = (lo, self.flat.len() as u32);
                self.spans[node] = Some(span);
                span
            }
        };
        &self.flat[lo as usize..hi as usize]
    }

    /// Grows the graph from `q_i` until some node lists the terminal among
    /// its successors (`true`), or until everything reachable has been
    /// expanded without that happening (`false`).
    ///
    /// The walk is the path enumeration's own depth-first order with
    /// revisits pruned. The enumeration re-enters an expanded node only to
    /// walk paths through points that an earlier, completed subtree already
    /// expanded, so it first-expands nodes in exactly this sequence, and
    /// stopping at the first sight of the terminal expands a prefix of what
    /// the enumeration expands before it records its first path: `searches`
    /// ends where it always did whenever a path is found. An unreachable
    /// terminal costs one search per reachable node plus one for `q_i`.
    fn reaches_terminal(
        &mut self,
        cloud: &Cloud,
        params: &HrisParams,
        searches: &mut usize,
    ) -> bool {
        let terminal_id = cloud.terminal_id();
        let mut stack = vec![cloud.start_id()];
        while let Some(node) = stack.pop() {
            if self.spans[node].is_some() {
                continue;
            }
            let succs = self.successors(cloud, node, params, searches);
            if succs.contains(&terminal_id) {
                return true;
            }
            stack.extend_from_slice(succs);
        }
        false
    }
}

/// Enumerates the loopless `q_i → q_{i+1}` point traces (each without its
/// endpoints), depth-first, up to `nni_max_paths` of them.
///
/// The walk's partial traces share their prefixes, so they live in one
/// parent-pointer arena: a stack entry is an arena index, the loopless test
/// walks up the parent chain, and a trace is materialised only once found.
fn enumerate_paths(cloud: &Cloud, params: &HrisParams, stats: &mut LocalStats) -> Vec<Vec<usize>> {
    let terminal_id = cloud.terminal_id();
    let start = cloud.start_id();
    let mut graph = TransitGraph::new(cloud);
    // Exact, not a heuristic: expansions are pure, so a terminal the transit
    // graph cannot reach is one no enumeration order would have found, and
    // the graph the pre-pass leaves behind holds the very successor lists
    // the loop below would have built lazily. Without sharing there is no
    // transit graph to ask (Figure 13b's no-sharing series pays per visit).
    if params.nni_share_substructures
        && !graph.reaches_terminal(cloud, params, &mut stats.knn_searches)
    {
        stats.nni_unreachable = true;
        return Vec::new();
    }

    // `(node, parent entry)`; the root entry is `q_i`, its own parent.
    let mut arena: Vec<(usize, usize)> = vec![(start, 0)];
    let mut paths: Vec<Vec<usize>> = Vec::new();
    let mut stack: Vec<usize> = vec![0];
    // Bounded work: a reachable terminal can still sit behind more loopless
    // paths than are worth walking.
    let mut expansions_budget = 2_000usize.max(cloud.points.len() * 4);

    while let Some(entry) = stack.pop() {
        if paths.len() >= params.nni_max_paths.max(1) || expansions_budget == 0 {
            break;
        }
        let node = arena[entry].0;
        let fresh: Vec<usize>;
        let succs: &[usize] = if params.nni_share_substructures {
            graph.successors(cloud, node, params, &mut stats.knn_searches)
        } else {
            fresh = cloud.expand(node, params, &mut stats.knn_searches);
            &fresh
        };
        expansions_budget -= 1;
        for &next in succs {
            if next == terminal_id {
                let mut path: Vec<usize> = trace(&arena, entry).collect();
                path.reverse();
                paths.push(path);
            } else if !trace(&arena, entry).any(|n| n == next) {
                stack.push(arena.len());
                arena.push((next, entry));
            }
        }
    }
    paths
}

/// The nodes of arena entry `e`'s trace, last first, the root `q_i` excluded.
fn trace(arena: &[(usize, usize)], mut e: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::from_fn(move || {
        (e != 0).then(|| {
            let (node, parent) = arena[e];
            e = parent;
            node
        })
    })
}

/// Runs NNI for one query pair. Returns candidate local routes and stats.
#[must_use]
pub fn nni(
    net: &RoadNetwork,
    refs: &ReferenceSet,
    qi_cands: &[CandidateEdge],
    qj_cands: &[CandidateEdge],
    params: &HrisParams,
) -> (Vec<Route>, LocalStats) {
    let mut stats = LocalStats {
        algorithm: "NNI",
        ..LocalStats::default()
    };
    let (Some(qi), Some(qj)) = (
        qi_cands.first().map(|c| c.closest),
        qj_cands.first().map(|c| c.closest),
    ) else {
        return (Vec::new(), stats);
    };

    let cloud = Cloud::new(
        refs.refs
            .iter()
            .flat_map(|r| r.points.iter().map(|p| p.pos)),
        qi,
        qj,
    );
    let paths = enumerate_paths(&cloud, params, &mut stats);
    if paths.is_empty() {
        return (Vec::new(), stats);
    }
    let terminal_id = cloud.terminal_id();

    // Build physical routes from each dense trace. The trace points are
    // genuine on-road GPS observations spaced a couple hundred metres
    // apart, so nearest-segment matching with shortest-path bridging
    // ("the map-matching techniques, whose accuracy is higher as there are
    // more intermediate points", Section III-B.2) recovers the route at a
    // fraction of a full probabilistic matcher's cost.
    //
    // Both steps are pure functions, and the traces of a pair revisit the
    // same points and joints constantly, so each is paid once: a reference
    // point's nearest segment once across pairs (in its projection-memo
    // entry, which the index build of this pair's routes, or of an earlier
    // pair, fills), the terminal's and `q_i`'s once per pair, and each
    // bridge once per pair.
    let mut routes = Vec::new();
    let mut seen_matched: FxHashSet<Vec<SegmentId>> = FxHashSet::default();
    let mut bridges = BridgeMemo::default();
    let qi_match = net.nearest_segment(qi).map(|c| c.segment);
    let mut nearest_memo: Vec<Option<Option<SegmentId>>> = vec![None; cloud.points.len()];
    let mut matched: Vec<SegmentId> = Vec::new();
    for path in &paths {
        matched.clear();
        matched.extend(qi_match);
        for &id in path.iter().chain(std::iter::once(&terminal_id)) {
            let nearest = *nearest_memo[id].get_or_insert_with(|| {
                let p = cloud.points[id];
                if id == terminal_id {
                    net.nearest_segment(p).map(|c| c.segment)
                } else {
                    net.nearest_segment_cached(p, params.candidate_eps_m)
                }
            });
            if let Some(s) = nearest {
                if matched.last() != Some(&s) {
                    matched.push(s);
                }
            }
        }
        // Distinct traces can collapse to the same matched-edge sequence;
        // reconstruct each sequence only once.
        if matched.is_empty() || seen_matched.contains(&matched) {
            continue;
        }
        routes.push(reconstruct_route(net, &matched, &mut bridges));
        seen_matched.insert(matched.clone());
    }
    (routes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{RefKind, RefTrajectory};
    use hris_geo::BBox;
    use hris_roadnet::{generator, NetworkConfig};
    use hris_rtree::{RTree, Spatial};
    use hris_traj::{GpsPoint, TrajId};

    fn net() -> RoadNetwork {
        generator::generate(&NetworkConfig {
            jitter_frac: 0.0,
            curve_frac: 0.0,
            removal_frac: 0.0,
            oneway_frac: 0.0,
            ..NetworkConfig::small(4)
        })
    }

    fn corridor_refs(net: &RoadNetwork, count: u32, x_to: f64) -> ReferenceSet {
        let refs = (0..count)
            .map(|id| {
                // Staggered by id, so no two references share a position.
                let phase = 0.5 + 0.3 * f64::from(id) / f64::from(count);
                let points = (0..10)
                    .map(|k| {
                        let x = x_to * (k as f64 + phase) / 10.0;
                        let snapped = net.nearest_segment(Point::new(x, 0.0)).unwrap().closest;
                        GpsPoint::new(snapped, k as f64 * 25.0)
                    })
                    .collect();
                RefTrajectory {
                    kind: RefKind::Simple,
                    sources: vec![TrajId(id)],
                    points,
                }
            })
            .collect();
        ReferenceSet { refs }
    }

    fn run(net: &RoadNetwork, params: &HrisParams) -> (Vec<Route>, LocalStats) {
        let refs = corridor_refs(net, 3, 800.0);
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(800.0, 0.0), 80.0);
        nni(net, &refs, &qi, &qj, params)
    }

    #[test]
    fn finds_route_along_corridor() {
        let net = net();
        let (routes, stats) = run(&net, &HrisParams::default());
        assert!(!routes.is_empty(), "NNI should reach the destination");
        assert!(stats.knn_searches > 0);
        for r in &routes {
            assert!(r.is_connected(&net));
        }
    }

    #[test]
    fn sharing_reduces_knn_searches() {
        let net = net();
        let shared = run(
            &net,
            &HrisParams {
                nni_share_substructures: true,
                ..HrisParams::default()
            },
        )
        .1;
        let plain = run(
            &net,
            &HrisParams {
                nni_share_substructures: false,
                ..HrisParams::default()
            },
        )
        .1;
        assert!(
            shared.knn_searches <= plain.knn_searches,
            "sharing must not increase searches ({} vs {})",
            shared.knn_searches,
            plain.knn_searches
        );
    }

    #[test]
    fn no_references_yields_no_routes() {
        let net = net();
        let refs = ReferenceSet::default();
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(5000.0, 5000.0), 80.0);
        let (routes, _) = nni(&net, &refs, &qi, &qj, &HrisParams::default());
        // Only the terminal is in the cloud; it is too far for β from q_i.
        assert!(routes.is_empty());
    }

    #[test]
    fn adjacent_points_connect_directly() {
        let net = net();
        // q_i and q_j one block apart with no references: the terminal
        // itself is an admissible nearest neighbour → direct route.
        let refs = ReferenceSet::default();
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(200.0, 0.0), 80.0);
        let (routes, _) = nni(&net, &refs, &qi, &qj, &HrisParams::default());
        assert!(!routes.is_empty());
    }

    #[test]
    fn empty_candidates_handled() {
        let net = net();
        let refs = corridor_refs(&net, 2, 500.0);
        let (routes, _) = nni(&net, &refs, &[], &[], &HrisParams::default());
        assert!(routes.is_empty());
    }

    #[test]
    fn beta_one_forbids_detours() {
        let net = net();
        // β = 1.0 admits only points exactly on the straight line; the grid
        // corridor deviates, so expect far fewer (possibly zero) routes.
        let strict = run(
            &net,
            &HrisParams {
                beta: 1.0001,
                ..HrisParams::default()
            },
        )
        .0;
        let loose = run(
            &net,
            &HrisParams {
                beta: 2.0,
                ..HrisParams::default()
            },
        )
        .0;
        assert!(loose.len() >= strict.len());
    }

    #[test]
    fn paths_are_capped() {
        let net = net();
        let (routes, _) = run(
            &net,
            &HrisParams {
                nni_max_paths: 2,
                ..HrisParams::default()
            },
        );
        assert!(routes.len() <= 2);
    }

    /// The enumeration as it was before the reachability pre-pass — the
    /// clone-per-push loop kept verbatim (expansions lazy, start node
    /// searched outside the memo) as the reference the differential test
    /// compares against. Also returns the step budget left over.
    fn enumerate_paths_reference(
        cloud: &Cloud,
        params: &HrisParams,
        stats: &mut LocalStats,
    ) -> (Vec<Vec<usize>>, usize) {
        let terminal_id = cloud.terminal_id();
        let expand = |node: usize, searches: &mut usize| cloud.expand(node, params, searches);
        let mut memo_spans: Vec<Option<(u32, u32)>> = vec![None; cloud.points.len()];
        let mut memo_flat: Vec<usize> = Vec::new();
        let mut paths: Vec<Vec<usize>> = Vec::new();
        // Start pseudo-node: usize::MAX denotes q_i.
        let start = usize::MAX;
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(start, Vec::new())];
        let mut expansions_budget = 2_000usize.max(cloud.points.len() * 4);

        while let Some((node, path)) = stack.pop() {
            if paths.len() >= params.nni_max_paths.max(1) || expansions_budget == 0 {
                break;
            }
            let fresh: Vec<usize>;
            let succs: &[usize] = if params.nni_share_substructures && node != start {
                let (lo, hi) = match memo_spans[node] {
                    Some(span) => span,
                    None => {
                        let s = expand(node, &mut stats.knn_searches);
                        let lo = memo_flat.len() as u32;
                        memo_flat.extend_from_slice(&s);
                        let span = (lo, memo_flat.len() as u32);
                        memo_spans[node] = Some(span);
                        span
                    }
                };
                &memo_flat[lo as usize..hi as usize]
            } else {
                let node = if node == start {
                    cloud.start_id()
                } else {
                    node
                };
                fresh = expand(node, &mut stats.knn_searches);
                &fresh
            };
            expansions_budget -= 1;
            for &next in succs {
                if next == terminal_id {
                    paths.push(path.clone());
                    continue;
                }
                if path.contains(&next) {
                    continue; // loopless traces
                }
                let mut np = path.clone();
                np.push(next);
                stack.push((next, np));
            }
        }
        (paths, expansions_budget)
    }

    /// A random cloud between `q_i = (0, 0)` and `q_{i+1} = (2000, 0)`, and
    /// the NNI knobs to walk it with, steered (by `seed % 4`) towards one of
    /// the four regimes the enumeration can end in.
    fn random_case(seed: u64) -> (Cloud, HrisParams) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let (qi, qj) = (Point::new(0.0, 0.0), Point::new(2_000.0, 0.0));
        let mut points = Vec::new();
        let mut blob = |cx: f64, r: f64, n: usize, rng: &mut rand_chacha::ChaCha8Rng| {
            for _ in 0..n {
                points.push(Point::new(cx + rng.gen_range(-r..r), rng.gen_range(-r..r)));
            }
        };
        let (k2, nni_max_paths, alpha_m) = match seed % 4 {
            // Two tight clusters, each larger than k₂: every point's nearest
            // admissible neighbours are its own cluster-mates.
            0 => {
                let n = rng.gen_range(6..12);
                blob(0.0, 20.0, n, &mut rng);
                blob(2_000.0, 20.0, n, &mut rng);
                (rng.gen_range(2..5), 16, 500.0)
            }
            // A thin chain: few loopless paths, all of them walked.
            1 => {
                let n = rng.gen_range(4..10);
                for i in 0..n {
                    let x = 2_000.0 * (i as f64 + 0.5) / n as f64;
                    blob(x, 30.0, 1, &mut rng);
                }
                (rng.gen_range(1..3), 100_000, 500.0)
            }
            // A dense corridor walked (almost) forward-only, so it does not
            // close on itself: far more loopless paths than either bound;
            // the path cap binds first when it is small, the step budget
            // when it is out of reach.
            r => {
                let n = rng.gen_range(40..80);
                for _ in 0..n {
                    let x = rng.gen_range(0.0..2_000.0);
                    blob(x, 150.0, 1, &mut rng);
                }
                let cap = if r == 2 {
                    rng.gen_range(1..17)
                } else {
                    100_000
                };
                (4, cap, rng.gen_range(0.0..100.0))
            }
        };
        let params = HrisParams {
            k2,
            nni_max_paths,
            alpha_m,
            ..HrisParams::default()
        };
        (Cloud::new(points, qi, qj), params)
    }

    /// Differential test of the reachability pre-pass: over random clouds
    /// the new enumeration returns the reference's paths, in its order, in
    /// every regime — and each regime must actually occur.
    #[test]
    fn enumeration_matches_reference_in_all_regimes() {
        use proptest::prelude::*;
        // [unreachable, reachable within budget, path cap hit, budget exhausted]
        let mut regimes = [0usize; 4];
        proptest::test_runner::run(
            ProptestConfig::with_cases(96),
            file!(),
            "enumeration_matches_reference_in_all_regimes",
            |rng| {
                let seed = (0u64..u64::MAX).generate(rng);
                let (cloud, params) = random_case(seed);
                let mut new_stats = LocalStats::default();
                let new = enumerate_paths(&cloud, &params, &mut new_stats);
                let mut ref_stats = LocalStats::default();
                let (reference, budget_left) =
                    enumerate_paths_reference(&cloud, &params, &mut ref_stats);
                prop_assert_eq!(&new, &reference, "seed {seed}");

                let regime = if new_stats.nni_unreachable {
                    // The reference walked the same closed set (all of it,
                    // unless its budget ran out first).
                    prop_assert!(new.is_empty(), "seed {seed}");
                    prop_assert!(new_stats.knn_searches <= cloud.points.len(), "seed {seed}");
                    if budget_left > 0 {
                        prop_assert_eq!(
                            new_stats.knn_searches,
                            ref_stats.knn_searches,
                            "seed {seed}"
                        );
                    }
                    0
                } else if new.len() >= params.nni_max_paths {
                    2
                } else if budget_left == 0 {
                    3
                } else {
                    prop_assert!(!new.is_empty(), "seed {seed}: reachable, fully walked");
                    1
                };
                if !new.is_empty() {
                    // The pre-pass is a prefix of the enumeration's own
                    // expansions: a found path costs what it always did.
                    prop_assert_eq!(
                        new_stats.knn_searches,
                        ref_stats.knn_searches,
                        "seed {seed}"
                    );
                }
                regimes[regime] += 1;

                // Without sharing there is no pre-pass: same loop, same cost.
                let plain = HrisParams {
                    nni_share_substructures: false,
                    ..params
                };
                let mut new_stats = LocalStats::default();
                let new = enumerate_paths(&cloud, &plain, &mut new_stats);
                let mut ref_stats = LocalStats::default();
                let (reference, _) = enumerate_paths_reference(&cloud, &plain, &mut ref_stats);
                prop_assert_eq!(&new, &reference, "seed {seed}, no sharing");
                prop_assert_eq!(
                    new_stats.knn_searches,
                    ref_stats.knn_searches,
                    "seed {seed}, no sharing"
                );
                prop_assert!(!new_stats.nni_unreachable, "seed {seed}, no sharing");
                Ok(())
            },
        );
        assert!(
            regimes.iter().all(|&n| n >= 5),
            "every regime must be exercised: {regimes:?}"
        );
    }

    /// Two disjoint reference clusters, one around each endpoint, each
    /// larger than `k₂`: the walk from `q_i` never leaves the first one.
    #[test]
    fn disjoint_clusters_are_proved_unreachable() {
        let net = net();
        let cluster = |cx: f64, id: u32| RefTrajectory {
            kind: RefKind::Simple,
            sources: vec![TrajId(id)],
            points: (0..6)
                .map(|k| GpsPoint::new(Point::new(cx + 7.0 * k as f64, 3.0), k as f64 * 5.0))
                .collect(),
        };
        let refs = ReferenceSet {
            refs: vec![cluster(0.0, 0), cluster(800.0, 1)],
        };
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(800.0, 0.0), 80.0);
        let (routes, stats) = nni(&net, &refs, &qi, &qj, &HrisParams::default());
        assert!(routes.is_empty());
        assert!(stats.nni_unreachable);
        let cloud_points = 12 + 1;
        assert!(stats.knn_searches <= cloud_points + 1);
        // Exactly the first cluster and q_i were searched.
        assert_eq!(stats.knn_searches, 6 + 1);
    }

    /// A cloud point as the retained R-tree search indexes it.
    #[derive(Debug, Clone, Copy)]
    struct NniPoint {
        pos: Point,
        id: usize,
    }

    impl Spatial for NniPoint {
        fn bbox(&self) -> BBox {
            BBox::from_point(self.pos)
        }
    }

    fn reference_tree(cloud: &Cloud) -> RTree<NniPoint> {
        RTree::bulk_load(
            cloud
                .points
                .iter()
                .enumerate()
                .map(|(id, &pos)| NniPoint { pos, id })
                .collect(),
        )
    }

    /// The expansion as it was before the linear scan — best-first
    /// `nearest_iter` over an R-tree of the (de-duplicated) cloud, the loop
    /// body kept verbatim — as the reference the differential test compares
    /// `Cloud::expand` against.
    fn expand_reference(
        cloud: &Cloud,
        tree: &RTree<NniPoint>,
        node: usize,
        params: &HrisParams,
    ) -> Vec<usize> {
        let from = cloud.pos(node);
        let terminal_id = cloud.terminal_id();
        let d_c = from.dist(cloud.qj);
        let alpha_left = (params.alpha_m - (d_c - cloud.d_qi_qj).max(0.0)).max(0.0);
        let mut nn = Vec::new();
        for n in tree.nearest_iter(from, |p, q| p.pos.dist(q)) {
            if nn.len() >= params.k2.max(1) {
                break;
            }
            let p = n.item;
            if p.pos.dist(from) < 1e-9 {
                continue; // the point itself (or a duplicate observation)
            }
            let d_p = cloud.d_to_qj[p.id];
            // Line 9: tolerated backward movement.
            if d_p - alpha_left > d_c {
                continue;
            }
            // Line 11: detour ratio.
            if d_c > 1e-9 && (from.dist(p.pos) + d_p) / d_c > params.beta {
                continue;
            }
            if p.id == terminal_id {
                // Lines 13–16: destination reached — it preempts everything.
                return vec![terminal_id];
            }
            nn.push(p.id);
        }
        nn
    }

    /// What one expansion looked at, for the regime counts: the admissible
    /// points of `node` nearest first, and whether line 11 was reached with
    /// the node sitting on `q_{i+1}` (and therefore skipped).
    fn admissible(cloud: &Cloud, node: usize, params: &HrisParams) -> (Vec<usize>, bool, f64) {
        let from = cloud.pos(node);
        let d_c = from.dist(cloud.qj);
        let alpha_left = (params.alpha_m - (d_c - cloud.d_qi_qj).max(0.0)).max(0.0);
        let mut line_11_skipped = false;
        let mut adm: Vec<(f64, usize)> = Vec::new();
        for (id, &p) in cloud.points.iter().enumerate() {
            let d = p.dist(from);
            let d_p = cloud.d_to_qj[id];
            if d < 1e-9 || d_p - alpha_left > d_c {
                continue;
            }
            line_11_skipped |= d_c <= 1e-9;
            if d_c > 1e-9 && (d + d_p) / d_c > params.beta {
                continue;
            }
            adm.push((d, id));
        }
        adm.sort_by(|a, b| a.0.total_cmp(&b.0));
        let ids = adm.into_iter().map(|(_, id)| id).collect();
        (ids, line_11_skipped, alpha_left)
    }

    /// A random raw cloud between `q_i` and `q_{i+1}` — up to 600 points, up
    /// to 70 % of them bit-for-bit repeats of an earlier one — with NNI knobs
    /// drawn from the grid the scan must agree with the R-tree on. Returns
    /// the cloud, the knobs and the raw point count.
    fn random_raw_cloud(seed: u64) -> (Cloud, HrisParams, usize) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let qj = Point::new(2_000.0, 0.0);
        // One cloud in eight starts on top of its destination.
        let qi = if rng.gen_range(0..8) == 0 {
            Point::new(qj.x + rng.gen_range(-5e-10..5e-10), qj.y)
        } else {
            Point::new(0.0, 0.0)
        };
        let max_n = [8usize, 40, 150, 600][rng.gen_range(0..4usize)];
        let n = rng.gen_range(1..=max_n);
        let repeat_frac = [0.0, 0.2, 0.55, 0.7][rng.gen_range(0..4usize)];
        let mut raw: Vec<Point> = Vec::with_capacity(n);
        for _ in 0..n {
            let p = if !raw.is_empty() && rng.gen_bool(repeat_frac) {
                raw[rng.gen_range(0..raw.len())]
            } else if rng.gen_bool(0.3) {
                // A cluster around the destination.
                Point::new(
                    qj.x + rng.gen_range(-200.0..200.0),
                    rng.gen_range(-200.0..200.0),
                )
            } else {
                Point::new(rng.gen_range(-300.0..2_300.0), rng.gen_range(-400.0..400.0))
            };
            raw.push(p);
        }
        let params = HrisParams {
            k2: [1, 2, 4, 8][rng.gen_range(0..4usize)],
            alpha_m: [0.0, 150.0, 500.0][rng.gen_range(0..3usize)],
            beta: [1.0, 1.5, 3.0][rng.gen_range(0..3usize)],
            ..HrisParams::default()
        };
        (Cloud::new(raw, qi, qj), params, n)
    }

    /// Differential test of the linear scan: for every node of every random
    /// cloud — the `q_i` pseudo-node and the terminal included — it names
    /// the successors the R-tree search names, in its order, and never two
    /// equal positions; and each regime an expansion can be in must occur.
    #[test]
    fn scan_matches_rtree_search_in_all_regimes() {
        use proptest::prelude::*;
        const REGIMES: [&str; 7] = [
            "terminal pre-empts",
            "terminal admissible but beyond the k2 nearest",
            "fewer than k2 admissible",
            "none admissible",
            "alpha_left == 0",
            "node on q_{i+1}, line 11 skipped",
            "cloud shrank by more than half",
        ];
        let mut hits = [0usize; 7];
        proptest::test_runner::run(
            ProptestConfig::with_cases(128),
            file!(),
            "scan_matches_rtree_search_in_all_regimes",
            |rng| {
                let seed = (0u64..u64::MAX).generate(rng);
                let (cloud, params, raw_len) = random_raw_cloud(seed);
                let tree = reference_tree(&cloud);
                let terminal_id = cloud.terminal_id();
                let k2 = params.k2;
                hits[6] += usize::from((cloud.points.len() - 1) * 2 < raw_len);
                for node in 0..=cloud.start_id() {
                    let got = cloud.expand(node, &params, &mut 0);
                    let want = expand_reference(&cloud, &tree, node, &params);
                    prop_assert_eq!(&got, &want, "seed {seed}, node {node}");
                    for (i, &a) in got.iter().enumerate() {
                        prop_assert!(
                            got[..i].iter().all(|&b| cloud.points[a] != cloud.points[b]),
                            "seed {seed}, node {node}: {got:?} repeats a position"
                        );
                    }

                    let (adm, line_11_skipped, alpha_left) = admissible(&cloud, node, &params);
                    let terminal_rank = adm.iter().position(|&id| id == terminal_id);
                    hits[0] += usize::from(terminal_rank.is_some_and(|r| r < k2));
                    hits[1] += usize::from(terminal_rank.is_some_and(|r| r >= k2));
                    hits[2] += usize::from(!adm.is_empty() && adm.len() < k2);
                    hits[3] += usize::from(adm.is_empty());
                    hits[4] += usize::from(alpha_left == 0.0);
                    hits[5] += usize::from(line_11_skipped);
                }
                Ok(())
            },
        );
        for (name, n) in REGIMES.iter().zip(hits) {
            assert!(n >= 5, "regime `{name}` hit {n} times: {hits:?}");
        }
    }

    /// The tie rule the R-tree never had: at equal distance the lower cloud
    /// index comes first, whichever side of the axis it lies on — and the
    /// terminal, being last, loses every tie.
    #[test]
    fn equal_distances_break_by_cloud_index() {
        let (qi, qj) = (Point::new(0.0, 0.0), Point::new(1_000.0, 0.0));
        let (up, down) = (Point::new(100.0, 50.0), Point::new(100.0, -50.0));
        let k = |k2| HrisParams {
            k2,
            beta: 3.0,
            ..HrisParams::default()
        };
        for pair in [[up, down], [down, up]] {
            let cloud = Cloud::new(pair, qi, qj);
            assert_eq!(pair[0].dist(qi).to_bits(), pair[1].dist(qi).to_bits());
            assert_eq!(cloud.expand(cloud.start_id(), &k(1), &mut 0), [0]);
            assert_eq!(cloud.expand(cloud.start_id(), &k(2), &mut 0), [0, 1]);
        }
        // As far from q_i as q_{i+1} is, and admissible (α = 500, β = 3).
        let cloud = Cloud::new([Point::new(0.0, 1_000.0)], qi, qj);
        assert_eq!(cloud.expand(cloud.start_id(), &k(1), &mut 0), [0]);
        assert_eq!(
            cloud.expand(cloud.start_id(), &k(2), &mut 0),
            [cloud.terminal_id()]
        );
    }

    /// The cloud is a set of positions: copies of a reference change neither
    /// the routes nor the number of searches.
    #[test]
    fn repeated_references_change_nothing() {
        let net = net();
        let once = corridor_refs(&net, 3, 800.0);
        let five_times = ReferenceSet {
            refs: (0..5).flat_map(|_| once.refs.clone()).collect(),
        };
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(800.0, 0.0), 80.0);
        for k2 in [1, 2, 4, 8] {
            let params = HrisParams {
                k2,
                ..HrisParams::default()
            };
            let (routes_1, stats_1) = nni(&net, &once, &qi, &qj, &params);
            let (routes_5, stats_5) = nni(&net, &five_times, &qi, &qj, &params);
            assert_eq!(routes_1, routes_5, "k2 = {k2}");
            assert_eq!(stats_1.knn_searches, stats_5.knn_searches, "k2 = {k2}");
            assert_eq!(
                stats_1.nni_unreachable, stats_5.nni_unreachable,
                "k2 = {k2}"
            );
        }
    }

    /// First occurrences are kept in order, and the terminal is appended
    /// even when a reference point sits on `q_{i+1}` bit for bit.
    #[test]
    fn cloud_keeps_first_occurrences_and_its_terminal() {
        let (qi, qj) = (Point::new(0.0, 0.0), Point::new(500.0, 0.0));
        let (a, b) = (Point::new(100.0, 10.0), Point::new(300.0, -10.0));
        let cloud = Cloud::new([a, qj, b, a, qj, b, a], qi, qj);
        assert_eq!(cloud.points, [a, qj, b, qj]);
        assert_eq!(cloud.terminal_id(), 3);
        assert_eq!(cloud.d_to_qj, [a.dist(qj), 0.0, b.dist(qj), 0.0]);
        // From `b` the copy of q_{i+1} and the terminal are equally near;
        // with room for both the terminal pre-empts.
        assert_eq!(cloud.expand(2, &HrisParams::default(), &mut 0), [3]);
    }
}
