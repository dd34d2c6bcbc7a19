//! Shared machinery: candidate preparation, emission probabilities,
//! network distances between candidates, and route reconstruction.

use crate::MatchResult;
use hris_roadnet::network::CandidateEdge;
use hris_roadnet::{CostModel, FxHashMap, RoadNetwork, Route, SegmentId};
use hris_traj::{GpsPoint, Trajectory};

/// Parameters shared by all matchers.
#[derive(Debug, Clone, Copy)]
pub struct MatchParams {
    /// Candidate search radius `ε` (Definition 5), metres.
    pub candidate_radius: f64,
    /// Keep at most this many candidates per point (nearest first).
    pub max_candidates: usize,
    /// GPS noise standard deviation for the emission model, metres.
    pub gps_sigma: f64,
}

impl Default for MatchParams {
    fn default() -> Self {
        MatchParams {
            candidate_radius: 60.0,
            max_candidates: 5,
            gps_sigma: 20.0,
        }
    }
}

/// Candidates of one GPS point.
#[derive(Debug, Clone)]
pub struct PointCandidates {
    /// The observed point.
    pub point: GpsPoint,
    /// Candidate edges, nearest first; never empty (falls back to the
    /// globally nearest segment when nothing is within the radius).
    pub cands: Vec<CandidateEdge>,
}

/// Prepares candidates for every point of `traj`.
///
/// Points with no segment within `params.candidate_radius` fall back to the
/// network-wide nearest segment (standard practice; dropping points would
/// silently shorten the matched route). Returns `None` for an empty network
/// or an empty trajectory.
#[must_use]
pub fn candidates_for(
    net: &RoadNetwork,
    traj: &Trajectory,
    params: &MatchParams,
) -> Option<Vec<PointCandidates>> {
    if traj.is_empty() || net.num_segments() == 0 {
        return None;
    }
    let mut out = Vec::with_capacity(traj.len());
    for p in &traj.points {
        let mut cands = net.candidate_edges(p.pos, params.candidate_radius);
        if cands.is_empty() {
            cands = vec![net.nearest_segment(p.pos)?];
        }
        cands.truncate(params.max_candidates.max(1));
        out.push(PointCandidates { point: *p, cands });
    }
    Some(out)
}

/// Gaussian emission probability of observing a point `dist` metres from
/// its true road position.
#[inline]
#[must_use]
pub fn emission_prob(dist: f64, sigma: f64) -> f64 {
    let z = dist / sigma;
    (-0.5 * z * z).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt())
}

/// Network (driving) distance from candidate `a` to candidate `b`, metres.
///
/// Accounts for the along-segment offsets of both projections. Returns
/// `f64::INFINITY` when `b` is unreachable from `a`.
#[must_use]
pub fn network_dist(net: &RoadNetwork, a: &CandidateEdge, b: &CandidateEdge) -> f64 {
    if a.segment == b.segment && b.offset >= a.offset {
        return b.offset - a.offset;
    }
    let seg_a = net.segment(a.segment);
    let oracle = net.sp_oracle();
    let tree = oracle.spt(seg_a.to, CostModel::Distance);
    let bridge = oracle.tree_dist(&tree, net.segment(b.segment).from);
    seg_a.length - a.offset + bridge + b.offset
}

/// Pairwise network distances between consecutive points' candidates.
///
/// `dists[i][a][b]` is the driving distance from candidate `a` of point `i`
/// to candidate `b` of point `i + 1`.
#[derive(Debug, Clone)]
pub struct TransitionTable {
    /// One matrix per consecutive point pair.
    pub dists: Vec<Vec<Vec<f64>>>,
}

/// Builds the transition table from one cached shortest-path tree per
/// candidate, bit-equal to one bounded Dijkstra each (DESIGN §5h): a bridge
/// counts within four times the straight-line gap plus a couple of
/// kilometres — generous enough for real detours while keeping them local.
#[must_use]
pub fn build_transitions(net: &RoadNetwork, cands: &[PointCandidates]) -> TransitionTable {
    let oracle = net.sp_oracle();
    let mut dists = Vec::with_capacity(cands.len().saturating_sub(1));
    for w in cands.windows(2) {
        let (cur, next) = (&w[0], &w[1]);
        let gap = cur.point.pos.dist(next.point.pos);
        let bound = gap * 4.0 + 2_000.0;
        let mut matrix = vec![vec![f64::INFINITY; next.cands.len()]; cur.cands.len()];
        for (ai, a) in cur.cands.iter().enumerate() {
            let seg_a = net.segment(a.segment);
            // Same-segment forward shortcut.
            for (bi, b) in next.cands.iter().enumerate() {
                if a.segment == b.segment && b.offset >= a.offset {
                    matrix[ai][bi] = b.offset - a.offset;
                }
            }
            // One tree from the segment head covers every target.
            let remaining = seg_a.length - a.offset;
            let tree = oracle.spt(seg_a.to, CostModel::Distance);
            for (bi, b) in next.cands.iter().enumerate() {
                let c = oracle.tree_dist(&tree, net.segment(b.segment).from);
                if c <= bound {
                    let d = remaining + c + b.offset;
                    if d < matrix[ai][bi] {
                        matrix[ai][bi] = d;
                    }
                }
            }
        }
        dists.push(matrix);
    }
    TransitionTable { dists }
}

/// The bridges [`reconstruct_route`] has searched, keyed by joint: for each
/// `(prev, next)` pair of consecutive matched segments, the segments that
/// follow `prev` on the route — the shortest path's rest through `next`, or
/// `next` alone when no path exists. A bridge is a pure function of the
/// joint, so one memo serves any number of sequences; the traces of one NNI
/// pair repeat their joints many times over. Nothing is evicted: a memo
/// lives as long as the sequences it bridges.
#[derive(Debug, Default)]
pub struct BridgeMemo {
    /// Joint → `tails[lo..hi]`.
    joints: FxHashMap<(SegmentId, SegmentId), (u32, u32)>,
    tails: Vec<SegmentId>,
}

impl BridgeMemo {
    /// What follows `prev` on a route bridged to `next` (`prev != next`).
    fn tail(&mut self, net: &RoadNetwork, prev: SegmentId, next: SegmentId) -> &[SegmentId] {
        let (lo, hi) = *self.joints.entry((prev, next)).or_insert_with(|| {
            let lo = self.tails.len() as u32;
            match net
                .sp_oracle()
                .route_between_uncached(prev, next, CostModel::Distance)
            {
                // `bridge` starts with `prev`.
                Some(bridge) => self.tails.extend_from_slice(&bridge.segments()[1..]),
                None => self.tails.push(next),
            }
            (lo, self.tails.len() as u32)
        });
        &self.tails[lo as usize..hi as usize]
    }
}

/// Reconstructs a connected route through a sequence of matched segments.
///
/// Consecutive matches on the same segment are merged; otherwise the gap is
/// bridged with a network shortest path, looked up in `bridges` first.
/// Unreachable joints fall back to simply appending the next segment (the
/// accuracy metric then penalises the discontinuity, as it should).
#[must_use]
pub fn reconstruct_route(
    net: &RoadNetwork,
    matched: &[SegmentId],
    bridges: &mut BridgeMemo,
) -> Route {
    // Byte-identical to `shortest::route_between_segments` (the oracle's
    // contract) without two network-sized arrays per bridge.
    let mut route: Vec<SegmentId> = Vec::new();
    for &next in matched {
        match route.last() {
            None => route.push(next),
            Some(&prev) if prev == next => {}
            Some(&prev) => route.extend_from_slice(bridges.tail(net, prev, next)),
        }
    }
    dedup_cycles(route)
}

/// Drops a segment that repeats the one just before it, keeping the first.
/// It removes nothing else: `… a b a …` backtracking stays.
fn dedup_cycles(mut route: Vec<SegmentId>) -> Route {
    route.dedup();
    Route::new(route)
}

/// Packages matched candidates into a [`MatchResult`].
#[must_use]
pub fn finish(net: &RoadNetwork, matched: Vec<CandidateEdge>) -> MatchResult {
    let segs: Vec<SegmentId> = matched.iter().map(|m| m.segment).collect();
    let route = reconstruct_route(net, &segs, &mut BridgeMemo::default());
    MatchResult { matched, route }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hris_geo::Point;
    use hris_roadnet::{generator, NetworkConfig, NodeId, RoadClass, SegmentId};
    use hris_traj::TrajId;

    fn net() -> RoadNetwork {
        generator::generate(&NetworkConfig {
            jitter_frac: 0.0,
            curve_frac: 0.0,
            removal_frac: 0.0,
            oneway_frac: 0.0,
            ..NetworkConfig::small(1)
        })
    }

    #[test]
    fn candidates_within_radius_sorted() {
        let net = net();
        let node = net.node(NodeId(0));
        let traj = Trajectory::new(
            TrajId(0),
            vec![GpsPoint::new(Point::new(node.x + 10.0, node.y + 5.0), 0.0)],
        );
        let cands = candidates_for(&net, &traj, &MatchParams::default()).unwrap();
        assert_eq!(cands.len(), 1);
        assert!(!cands[0].cands.is_empty());
        for w in cands[0].cands.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        assert!(cands[0].cands.len() <= MatchParams::default().max_candidates);
    }

    #[test]
    fn far_point_falls_back_to_nearest() {
        let net = net();
        let bbox = net.bbox();
        let far = Point::new(bbox.max.x + 10_000.0, bbox.max.y + 10_000.0);
        let traj = Trajectory::new(TrajId(0), vec![GpsPoint::new(far, 0.0)]);
        let cands = candidates_for(&net, &traj, &MatchParams::default()).unwrap();
        assert_eq!(
            cands[0].cands.len(),
            1,
            "fallback keeps exactly the nearest"
        );
    }

    #[test]
    fn empty_inputs_return_none() {
        let net = net();
        let empty = Trajectory::new(TrajId(0), vec![]);
        assert!(candidates_for(&net, &empty, &MatchParams::default()).is_none());
    }

    #[test]
    fn emission_prob_decreases_with_distance() {
        let p0 = emission_prob(0.0, 20.0);
        let p20 = emission_prob(20.0, 20.0);
        let p60 = emission_prob(60.0, 20.0);
        assert!(p0 > p20 && p20 > p60);
        assert!(p60 > 0.0);
    }

    #[test]
    fn network_dist_same_segment_forward() {
        let net = net();
        let seg = &net.segments()[0];
        let a = CandidateEdge {
            segment: seg.id,
            dist: 0.0,
            closest: seg.geometry.point_at(10.0),
            offset: 10.0,
        };
        let b = CandidateEdge {
            segment: seg.id,
            dist: 0.0,
            closest: seg.geometry.point_at(50.0),
            offset: 50.0,
        };
        assert!((network_dist(&net, &a, &b) - 40.0).abs() < 1e-9);
        // Backwards on the same directed segment requires going around.
        assert!(network_dist(&net, &b, &a) > 40.0);
    }

    #[test]
    fn transition_table_agrees_with_network_dist() {
        let net = net();
        // Two points ~one block apart on the grid.
        let a = net.node(NodeId(0));
        let b = net.node(NodeId(1));
        let traj = Trajectory::new(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(a.x + 5.0, a.y + 5.0), 0.0),
                GpsPoint::new(Point::new(b.x + 5.0, b.y + 5.0), 60.0),
            ],
        );
        let cands = candidates_for(&net, &traj, &MatchParams::default()).unwrap();
        let table = build_transitions(&net, &cands);
        assert_eq!(table.dists.len(), 1);
        for (ai, a) in cands[0].cands.iter().enumerate() {
            for (bi, b) in cands[1].cands.iter().enumerate() {
                let direct = network_dist(&net, a, b);
                let tabled = table.dists[0][ai][bi];
                if direct.is_finite() && tabled.is_finite() {
                    assert!(
                        (direct - tabled).abs() < 1e-6,
                        "ai={ai} bi={bi}: {direct} vs {tabled}"
                    );
                }
            }
        }
    }

    #[test]
    fn reconstruct_route_bridges_gaps() {
        let net = net();
        // Take two segments a couple of hops apart, reconstruct.
        let r = net.segments()[0].id;
        let mid = net.next_segments(r)[0];
        let s = net.next_segments(mid)[0];
        let route = reconstruct_route(&net, &[r, s], &mut BridgeMemo::default());
        assert!(route.is_connected(&net));
        assert_eq!(route.segments().first(), Some(&r));
        assert_eq!(route.segments().last(), Some(&s));
    }

    #[test]
    fn reconstruct_route_merges_same_segment() {
        let net = net();
        let r = net.segments()[0].id;
        let route = reconstruct_route(&net, &[r, r, r], &mut BridgeMemo::default());
        assert_eq!(route.segments(), &[r]);
    }

    /// `reconstruct_route` as it stood before the oracle: every bridge an
    /// allocate-per-call Dijkstra, nothing remembered.
    fn reconstruct_route_classic(net: &RoadNetwork, matched: &[SegmentId]) -> Route {
        use hris_roadnet::shortest::route_between_segments;
        let mut route = Route::empty();
        for &m in matched {
            let last = route.segments().last().copied();
            match last {
                None => route.push(m),
                Some(prev) if prev == m => {}
                Some(prev) => match route_between_segments(net, prev, m, CostModel::Distance) {
                    Some(bridge) => {
                        for &s in &bridge.segments()[1..] {
                            route.push(s);
                        }
                    }
                    None => route.push(m),
                },
            }
        }
        dedup_cycles(route.segments().to_vec())
    }

    /// `build_transitions` as it stood before the oracle: one bounded
    /// Dijkstra per candidate.
    fn build_transitions_classic(net: &RoadNetwork, cands: &[PointCandidates]) -> TransitionTable {
        use hris_roadnet::shortest::shortest_costs_within;
        let mut dists = Vec::new();
        for w in cands.windows(2) {
            let (cur, next) = (&w[0], &w[1]);
            let bound = cur.point.pos.dist(next.point.pos) * 4.0 + 2_000.0;
            let mut matrix = vec![vec![f64::INFINITY; next.cands.len()]; cur.cands.len()];
            for (ai, a) in cur.cands.iter().enumerate() {
                let seg_a = net.segment(a.segment);
                for (bi, b) in next.cands.iter().enumerate() {
                    if a.segment == b.segment && b.offset >= a.offset {
                        matrix[ai][bi] = b.offset - a.offset;
                    }
                }
                let remaining = seg_a.length - a.offset;
                let costs = shortest_costs_within(net, seg_a.to, CostModel::Distance, bound);
                for (bi, b) in next.cands.iter().enumerate() {
                    let seg_b_from = net.segment(b.segment).from;
                    if let Some(&(_, c)) = costs.iter().find(|&&(n, _)| n == seg_b_from) {
                        matrix[ai][bi] = matrix[ai][bi].min(remaining + c + b.offset);
                    }
                }
            }
            dists.push(matrix);
        }
        TransitionTable { dists }
    }

    /// Reading transitions off the oracle's trees reproduces the bounded
    /// searches' table bit for bit on random candidate sequences, including
    /// unreachable targets, bridges just past (and just inside) the bound
    /// and same-segment shortcuts.
    #[test]
    fn transitions_match_bounded_dijkstra() {
        use hris_roadnet::shortest::shortest_path;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        let net = net_with_island();
        let m = net.num_segments();
        // [unreachable, just past the bound, just inside it, same-segment shortcut]
        let mut regimes = [0usize; 4];
        proptest::test_runner::run(
            ProptestConfig::with_cases(64),
            file!(),
            "transitions_match_bounded_dijkstra",
            |rng| {
                let seed = (0u64..u64::MAX).generate(rng);
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let bridge = |a: &CandidateEdge, b: &CandidateEdge| {
                    let (from, to) = (net.segment(a.segment).to, net.segment(b.segment).from);
                    shortest_path(&net, from, to, CostModel::Distance)
                        .map_or(f64::INFINITY, |p| p.cost)
                };
                let mut points: Vec<PointCandidates> = Vec::new();
                for i in 0..rng.gen_range(2..=6) {
                    let prev = points.last().map(|p| &p.cands);
                    let cands: Vec<CandidateEdge> = (0..rng.gen_range(1..=5))
                        .map(|_| {
                            let seg = match (rng.gen_range(0..6), prev) {
                                (0, Some(prev)) => prev[rng.gen_range(0..prev.len())].segment,
                                (1, _) => SegmentId((m - 1 - rng.gen_range(0..2usize)) as u32),
                                _ => SegmentId(rng.gen_range(0..m) as u32),
                            };
                            let offset = rng.gen_range(0.0..=net.segment(seg).length);
                            CandidateEdge {
                                segment: seg,
                                dist: 0.0,
                                closest: net.segment(seg).geometry.point_at(offset),
                                offset,
                            }
                        })
                        .collect();
                    // Mostly, the gap puts the bound a hair from the longest
                    // finite bridge.
                    let mut gap: f64 = rng.gen_range(0.0..300.0);
                    if let (Some(prev), true) = (prev, rng.gen_bool(0.8)) {
                        let longest = prev
                            .iter()
                            .flat_map(|a| cands.iter().map(|b| bridge(a, b)))
                            .filter(|c| c.is_finite())
                            .fold(0.0, f64::max);
                        if longest > 2_000.0 {
                            let nudge = [-1e-3, -1e-9, 0.0, 1e-9][rng.gen_range(0..4usize)];
                            gap = (longest - 2_000.0) / 4.0 + nudge;
                        }
                    }
                    let x = points.last().map_or(0.0, |p| p.point.pos.x) + gap.max(0.0);
                    let point = GpsPoint::new(Point::new(x, 0.0), i as f64 * 60.0);
                    points.push(PointCandidates { point, cands });
                }
                let got = build_transitions(&net, &points);
                let want = build_transitions_classic(&net, &points);
                for (i, (g, w)) in got.dists.iter().zip(&want.dists).enumerate() {
                    let bound = points[i].point.pos.dist(points[i + 1].point.pos) * 4.0 + 2_000.0;
                    for (ai, a) in points[i].cands.iter().enumerate() {
                        for (bi, b) in points[i + 1].cands.iter().enumerate() {
                            prop_assert_eq!(
                                g[ai][bi].to_bits(),
                                w[ai][bi].to_bits(),
                                "seed {} pair {} cands {}->{}",
                                seed,
                                i,
                                ai,
                                bi
                            );
                            let c = bridge(a, b);
                            regimes[0] += usize::from(c.is_infinite());
                            regimes[1] += usize::from(c > bound && c - bound < 0.01);
                            regimes[2] += usize::from(c <= bound && bound - c < 0.01);
                            regimes[3] +=
                                usize::from(a.segment == b.segment && b.offset >= a.offset);
                        }
                    }
                }
                prop_assert_eq!(got.dists.len(), want.dists.len());
                Ok(())
            },
        );
        assert!(
            regimes.iter().all(|&n| n >= 5),
            "every regime must be exercised: {regimes:?}"
        );
    }

    /// A one-way-heavy generated network plus a disconnected two-way street
    /// no route reaches or leaves.
    fn net_with_island() -> RoadNetwork {
        let base = generator::generate(&NetworkConfig {
            oneway_frac: 0.4,
            ..NetworkConfig::small(3)
        });
        let mut b = RoadNetwork::builder();
        let nodes: Vec<NodeId> = base.nodes().iter().map(|&p| b.add_node(p)).collect();
        for s in base.segments() {
            b.add_straight_segment(
                nodes[s.from.index()],
                nodes[s.to.index()],
                s.speed_limit,
                RoadClass::Residential,
            );
        }
        let far = base.bbox().max;
        let x = b.add_node(Point::new(far.x + 5_000.0, far.y));
        let y = b.add_node(Point::new(far.x + 5_200.0, far.y));
        b.add_straight_segment(x, y, 10.0, RoadClass::Residential);
        b.add_straight_segment(y, x, 10.0, RoadClass::Residential);
        b.build()
    }

    /// Bridging through the oracle, with one memo shared by every sequence
    /// of a case, reconstructs the classic route on random matched
    /// sequences: joints with no path, matches that stay on (or come back
    /// to) a segment, `a b a` zigzags, and joints an earlier sequence — or
    /// an earlier joint of the same one — already bridged.
    #[test]
    fn reconstruct_route_matches_classic_bridging() {
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        let net = net_with_island();
        let m = net.num_segments();
        const REGIMES: [&str; 5] = [
            "unreachable joint",
            "same segment twice in a row",
            "segment revisited",
            "a b a zigzag",
            "joint bridged before",
        ];
        let mut regimes = [0usize; 5];
        proptest::test_runner::run(
            ProptestConfig::with_cases(64),
            file!(),
            "reconstruct_route_matches_classic_bridging",
            |rng| {
                let seed = (0u64..u64::MAX).generate(rng);
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let mut bridges = BridgeMemo::default();
                let mut bridged: std::collections::HashSet<(usize, usize)> = Default::default();
                let mut sequences: Vec<Vec<usize>> = Vec::new();
                for _ in 0..rng.gen_range(1..=4) {
                    let mut segs: Vec<usize> = Vec::new();
                    let len = rng.gen_range(1..=12);
                    while segs.len() < len {
                        match rng.gen_range(0..12) {
                            0 if !segs.is_empty() => segs.push(segs[segs.len() - 1]),
                            1 if !segs.is_empty() => segs.push(segs[rng.gen_range(0..segs.len())]),
                            2 => segs.push(m - 1 - rng.gen_range(0..2usize)), // the island
                            3 if segs.len() >= 2 => segs.push(segs[segs.len() - 2]),
                            // A stretch of an earlier sequence: its joints again.
                            4 | 5 if !sequences.is_empty() => {
                                let earlier = &sequences[rng.gen_range(0..sequences.len())];
                                let lo = rng.gen_range(0..earlier.len());
                                let hi = rng.gen_range(lo..earlier.len()) + 1;
                                segs.extend_from_slice(&earlier[lo..hi]);
                            }
                            _ => segs.push(rng.gen_range(0..m)),
                        }
                    }
                    let ids: Vec<SegmentId> = segs.iter().map(|&s| SegmentId(s as u32)).collect();
                    let got = reconstruct_route(&net, &ids, &mut bridges);
                    prop_assert_eq!(&got, &reconstruct_route_classic(&net, &ids), "seed {seed}");

                    regimes[0] += usize::from(!got.is_connected(&net));
                    regimes[1] += usize::from(segs.windows(2).any(|w| w[0] == w[1]));
                    let revisited = |(i, s): (usize, &usize)| i >= 2 && segs[..i - 1].contains(s);
                    regimes[2] += usize::from(segs.iter().enumerate().any(revisited));
                    regimes[3] +=
                        usize::from(segs.windows(3).any(|w| w[0] == w[2] && w[0] != w[1]));
                    let mut again = false;
                    for w in segs.windows(2).filter(|w| w[0] != w[1]) {
                        again |= !bridged.insert((w[0], w[1]));
                    }
                    regimes[4] += usize::from(again);
                    sequences.push(segs);
                }
                Ok(())
            },
        );
        for (name, n) in REGIMES.iter().zip(regimes) {
            assert!(n >= 5, "regime `{name}` hit {n} times: {regimes:?}");
        }
    }
}
