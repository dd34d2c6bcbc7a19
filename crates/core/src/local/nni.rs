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

use crate::local::{CandidateSoA, LocalStats};
use crate::params::HrisParams;
use crate::reference::ReferenceSet;
use hris_geo::{BBox, Point};
use hris_mapmatch::reconstruct_route;
use hris_roadnet::network::CandidateEdge;
use hris_roadnet::{FxHashSet, RoadNetwork, Route};
use hris_rtree::{RTree, Spatial};

/// A reference point in the NNI point cloud.
#[derive(Debug, Clone, Copy)]
struct NniPoint {
    pos: Point,
    /// Index into the flat point list (the terminal gets the last index).
    id: usize,
}

impl Spatial for NniPoint {
    fn bbox(&self) -> BBox {
        BBox::from_point(self.pos)
    }
}

/// The point cloud of one query pair: every reference point, then the
/// terminal `q_{i+1}`, indexed for constrained-kNN expansion. Node ids are
/// dense: cloud indices, plus one pseudo-node past the end for `q_i`.
struct Cloud {
    /// All reference points, then the terminal.
    points: Vec<Point>,
    tree: RTree<NniPoint>,
    /// `d(p, q_{i+1})` per cloud point — the batch distance kernel: every
    /// admissibility test needs it, so one linear SoA sweep precomputes what
    /// each expansion touching `p` would otherwise re-derive.
    d_to_qj: Vec<f64>,
    qi: Point,
    qj: Point,
    d_qi_qj: f64,
}

impl Cloud {
    fn new(ref_points: impl IntoIterator<Item = Point>, qi: Point, qj: Point) -> Self {
        let mut points: Vec<Point> = ref_points.into_iter().collect();
        points.push(qj);
        let tree = RTree::bulk_load(
            points
                .iter()
                .enumerate()
                .map(|(id, &pos)| NniPoint { pos, id })
                .collect(),
        );
        let d_to_qj = CandidateSoA::from_points(points.iter().copied()).dists_to(qj);
        Cloud {
            points,
            tree,
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

    /// Expansion: the constrained kNN of `node`, one search.
    ///
    /// α is *telescoped*: the remaining tolerance at a node depends only on
    /// how much closer/further the node is than q_i, which makes expansions
    /// node-local — a pure function of `node` — and therefore shareable
    /// across branches (the transit graph requires branch-independent
    /// expansions, and the reachability pre-pass relies on it too).
    fn expand(&self, node: usize, params: &HrisParams, searches: &mut usize) -> Vec<usize> {
        *searches += 1;
        let from = self.pos(node);
        let terminal_id = self.terminal_id();
        let d_c = from.dist(self.qj);
        let alpha_left = (params.alpha_m - (d_c - self.d_qi_qj).max(0.0)).max(0.0);
        let mut nn = Vec::new();
        for n in self.tree.nearest_iter(from, |p, q| p.pos.dist(q)) {
            if nn.len() >= params.k2.max(1) {
                break;
            }
            let p = n.item;
            if p.pos.dist(from) < 1e-9 {
                continue; // the point itself (or a duplicate observation)
            }
            let d_p = self.d_to_qj[p.id];
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

    let mut paths: Vec<Vec<usize>> = Vec::new();
    let mut stack: Vec<(usize, Vec<usize>)> = vec![(start, Vec::new())];
    // Bounded work: a reachable terminal can still sit behind more loopless
    // paths than are worth walking.
    let mut expansions_budget = 2_000usize.max(cloud.points.len() * 4);

    while let Some((node, path)) = stack.pop() {
        if paths.len() >= params.nni_max_paths.max(1) || expansions_budget == 0 {
            break;
        }
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
    paths
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
    // apart, so nearest-candidate matching with shortest-path bridging
    // ("the map-matching techniques, whose accuracy is higher as there are
    // more intermediate points", Section III-B.2) recovers the route at a
    // fraction of a full probabilistic matcher's cost.
    let mut routes = Vec::new();
    let mut seen_matched: FxHashSet<Vec<hris_roadnet::SegmentId>> = FxHashSet::default();
    // Nearest-segment matching is a pure function of the (fixed) cloud
    // point, and distinct traces revisit the same points constantly —
    // memoise per cloud id, and match the shared endpoints exactly once.
    let qi_match = net.nearest_segment(qi);
    let mut nearest_memo: Vec<Option<Option<CandidateEdge>>> = vec![None; cloud.points.len()];
    for path in &paths {
        let mut matched: Vec<CandidateEdge> = Vec::with_capacity(path.len() + 2);
        if let Some(c) = qi_match {
            matched.push(c);
        }
        for &id in path.iter().chain(std::iter::once(&terminal_id)) {
            let c = *nearest_memo[id].get_or_insert_with(|| net.nearest_segment(cloud.points[id]));
            if let Some(c) = c {
                if matched.last().map(|m| m.segment) != Some(c.segment) {
                    matched.push(c);
                }
            }
        }
        if matched.is_empty() {
            continue;
        }
        // Distinct traces can collapse to the same matched-edge sequence;
        // reconstruct each sequence only once.
        if !seen_matched.insert(matched.iter().map(|m| m.segment).collect()) {
            continue;
        }
        routes.push(reconstruct_route(net, &matched));
    }
    (routes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{RefKind, RefTrajectory};
    use hris_roadnet::{generator, NetworkConfig};
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
                let points = (0..10)
                    .map(|k| {
                        let x = x_to * (k as f64 + 0.5) / 10.0;
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
}
