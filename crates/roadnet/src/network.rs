//! The road network: directed segments with shape, length and speed limits.

use crate::digraph::DiGraph;
use crate::fxhash::FxHashMap;
use crate::generator::RoadClass;
use crate::ids::{NodeId, SegmentId};
use crate::oracle::SpOracle;
use crate::shortest::CostModel;
use hris_geo::{BBox, Point, Polyline};
use hris_rtree::{RTree, Spatial};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

/// A directed road segment (Definition 2 of the paper).
#[derive(Debug, Clone)]
pub struct Segment {
    /// This segment's id.
    pub id: SegmentId,
    /// Start vertex (`r.s`).
    pub from: NodeId,
    /// End vertex (`r.e`).
    pub to: NodeId,
    /// Polyline shape from `from` to `to`.
    pub geometry: Polyline,
    /// Arc length of the geometry, metres (`r.length`).
    pub length: f64,
    /// Maximum allowed speed, metres/second (`r.speed`).
    pub speed_limit: f64,
    /// Functional class of the road.
    pub class: RoadClass,
}

impl Segment {
    /// Free-flow traversal time in seconds.
    #[inline]
    #[must_use]
    pub fn travel_time(&self) -> f64 {
        self.length / self.speed_limit
    }
}

/// A candidate edge for a GPS point (Definition 5): a segment within the
/// matching radius, with projection details.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEdge {
    /// The nearby segment.
    pub segment: SegmentId,
    /// Distance from the query point to the segment, metres.
    pub dist: f64,
    /// Closest point on the segment.
    pub closest: Point,
    /// Arc-length offset of `closest` from the segment start, metres.
    pub offset: f64,
}

/// Internal R-tree payload: segment bounding box + id.
#[derive(Debug, Clone)]
struct SegEntry {
    bbox: BBox,
    id: SegmentId,
}

impl Spatial for SegEntry {
    fn bbox(&self) -> BBox {
        self.bbox
    }
}

/// Bound on memoised λ-neighborhood entries before a wholesale flush.
const LAMBDA_CACHE_CAP: usize = 1 << 17;
/// Bound on memoised candidate-segment projections before a wholesale flush.
const CAND_CACHE_CAP: usize = 1 << 16;

/// Lazily built acceleration state derived from the (immutable) network.
///
/// Every entry memoises the exact output of a pure function of the network
/// — the shortest-path oracle, λ-neighborhood hop searches, candidate-edge
/// projections — so reads through the caches are byte-identical to the
/// uncached computations and need no invalidation for the network's
/// lifetime. Cloning a network starts with fresh, empty caches; persistence
/// stores only ground truth (nodes + segments), never derived state.
struct NetCaches {
    oracle: OnceLock<Arc<SpOracle>>,
    /// `(segment, λ)` → λ-neighborhood with hop counts and chain distances.
    lambda: Mutex<FxHashMap<(u32, u32), Arc<LambdaSoA>>>,
    /// `(x bits, y bits, eps bits)` → candidate segments of that query circle.
    cands: Mutex<CandCache>,
}

/// Query-circle key (x bits, y bits, eps bits) → its candidate segments.
type CandCache = FxHashMap<(u64, u64, u64), Arc<[SegmentId]>>;

/// A λ-neighborhood in structure-of-arrays layout: the traverse-graph
/// construction scans `segs` for interned hits and touches `hops`/`dists`
/// only on a hit, so the common miss path reads 4 bytes per entry instead
/// of a 24-byte tuple.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LambdaSoA {
    /// Neighborhood segments, in BFS discovery order.
    pub segs: Vec<SegmentId>,
    /// Hop count per segment (parallel to `segs`).
    pub hops: Vec<u32>,
    /// Best chain distance per segment (parallel to `segs`).
    pub dists: Vec<f64>,
}

impl LambdaSoA {
    fn from_tuples(tuples: &[(SegmentId, usize, f64)]) -> Self {
        LambdaSoA {
            segs: tuples.iter().map(|t| t.0).collect(),
            hops: tuples.iter().map(|t| t.1 as u32).collect(),
            dists: tuples.iter().map(|t| t.2).collect(),
        }
    }

    /// Number of neighborhood segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// `true` when the neighborhood is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }
}

impl NetCaches {
    fn new() -> Self {
        NetCaches {
            oracle: OnceLock::new(),
            lambda: Mutex::new(FxHashMap::default()),
            cands: Mutex::new(FxHashMap::default()),
        }
    }
}

impl Clone for NetCaches {
    /// A cloned network re-derives its own caches (cheap, lazy, and avoids
    /// sharing lock contention across clones).
    fn clone(&self) -> Self {
        NetCaches::new()
    }
}

impl std::fmt::Debug for NetCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetCaches")
            .field("oracle_built", &self.oracle.get().is_some())
            .field(
                "lambda_entries",
                &self.lambda.lock().map(|m| m.len()).unwrap_or(0),
            )
            .field(
                "cand_entries",
                &self.cands.lock().map(|m| m.len()).unwrap_or(0),
            )
            .finish()
    }
}

/// The directed road network (Definition 3): vertices, segments, adjacency
/// and a spatial index over segment geometry.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    nodes: Vec<Point>,
    segments: Vec<Segment>,
    /// Segments leaving each node.
    out_segs: Vec<Vec<SegmentId>>,
    seg_index: RTree<SegEntry>,
    max_speed: f64,
    hot: NetCaches,
}

/// Incremental constructor for [`RoadNetwork`].
#[derive(Debug, Default)]
pub struct RoadNetworkBuilder {
    nodes: Vec<Point>,
    segments: Vec<Segment>,
}

impl RoadNetworkBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vertex at `p`, returning its id.
    pub fn add_node(&mut self, p: Point) -> NodeId {
        self.nodes.push(p);
        NodeId((self.nodes.len() - 1) as u32)
    }

    /// Position of an already-added node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Point {
        self.nodes[id.index()]
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Adds a directed segment with an explicit polyline shape.
    ///
    /// # Panics
    /// Panics if the shape does not start/end at the given nodes (within
    /// 1 m), if the speed is non-positive, or if node ids are out of range.
    pub fn add_segment(
        &mut self,
        from: NodeId,
        to: NodeId,
        shape: Polyline,
        speed_limit: f64,
        class: RoadClass,
    ) -> SegmentId {
        assert!(from.index() < self.nodes.len(), "from node out of range");
        assert!(to.index() < self.nodes.len(), "to node out of range");
        assert!(speed_limit > 0.0, "speed limit must be positive");
        assert!(
            shape.start().dist(self.nodes[from.index()]) < 1.0,
            "shape must start at the from-node"
        );
        assert!(
            shape.end().dist(self.nodes[to.index()]) < 1.0,
            "shape must end at the to-node"
        );
        let id = SegmentId(self.segments.len() as u32);
        let length = shape.length();
        self.segments.push(Segment {
            id,
            from,
            to,
            geometry: shape,
            length,
            speed_limit,
            class,
        });
        id
    }

    /// Adds a straight directed segment between two nodes.
    pub fn add_straight_segment(
        &mut self,
        from: NodeId,
        to: NodeId,
        speed_limit: f64,
        class: RoadClass,
    ) -> SegmentId {
        let shape = Polyline::straight(self.nodes[from.index()], self.nodes[to.index()]);
        self.add_segment(from, to, shape, speed_limit, class)
    }

    /// Adds a two-way road as a pair of opposite directed segments sharing
    /// the (reversed) shape. Returns `(forward, backward)`.
    pub fn add_two_way(
        &mut self,
        a: NodeId,
        b: NodeId,
        shape: Polyline,
        speed_limit: f64,
        class: RoadClass,
    ) -> (SegmentId, SegmentId) {
        let back_shape = shape.reversed();
        let f = self.add_segment(a, b, shape, speed_limit, class);
        let r = self.add_segment(b, a, back_shape, speed_limit, class);
        (f, r)
    }

    /// Finalises the network: builds adjacency lists and the spatial index.
    #[must_use]
    pub fn build(self) -> RoadNetwork {
        let n = self.nodes.len();
        let mut out_segs = vec![Vec::new(); n];
        let mut max_speed = 0.0f64;
        let mut entries = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            out_segs[seg.from.index()].push(seg.id);
            max_speed = max_speed.max(seg.speed_limit);
            entries.push(SegEntry {
                bbox: seg.geometry.bbox(),
                id: seg.id,
            });
        }
        RoadNetwork {
            nodes: self.nodes,
            segments: self.segments,
            out_segs,
            seg_index: RTree::bulk_load(entries),
            max_speed,
            hot: NetCaches::new(),
        }
    }
}

impl RoadNetwork {
    /// Starts building a network.
    #[must_use]
    pub fn builder() -> RoadNetworkBuilder {
        RoadNetworkBuilder::new()
    }

    /// Number of vertices.
    #[inline]
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed segments.
    #[inline]
    #[must_use]
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Position of a vertex.
    #[inline]
    #[must_use]
    pub fn node(&self, id: NodeId) -> Point {
        self.nodes[id.index()]
    }

    /// All vertex positions, indexed by [`NodeId`].
    #[inline]
    #[must_use]
    pub fn nodes(&self) -> &[Point] {
        &self.nodes
    }

    /// A segment by id.
    #[inline]
    #[must_use]
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.index()]
    }

    /// All segments, indexed by [`SegmentId`].
    #[inline]
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Segments leaving `node`.
    #[inline]
    #[must_use]
    pub fn out_segments(&self, node: NodeId) -> &[SegmentId] {
        &self.out_segs[node.index()]
    }

    /// Segments an object can move onto after traversing `seg`
    /// (those starting at `seg.to`).
    #[inline]
    #[must_use]
    pub fn next_segments(&self, seg: SegmentId) -> &[SegmentId] {
        self.out_segments(self.segment(seg).to)
    }

    /// Maximum speed limit over the whole network (`V_max` of Definition 6).
    #[inline]
    #[must_use]
    pub fn max_speed(&self) -> f64 {
        self.max_speed
    }

    /// Bounding box of the whole network.
    #[must_use]
    pub fn bbox(&self) -> BBox {
        BBox::covering(self.nodes.iter().copied())
    }

    /// Candidate edges of `p` within radius `eps` (Definition 5), sorted by
    /// increasing distance.
    #[must_use]
    pub fn candidate_edges(&self, p: Point, eps: f64) -> Vec<CandidateEdge> {
        let mut out: Vec<CandidateEdge> = self
            .seg_index
            .query_circle(p, eps, |e, q| {
                self.segments[e.id.index()].geometry.dist_to_point(q)
            })
            .into_iter()
            .map(|e| {
                let proj = self.segments[e.id.index()].geometry.project(p);
                CandidateEdge {
                    segment: e.id,
                    dist: proj.dist,
                    closest: proj.point,
                    offset: proj.offset,
                }
            })
            .collect();
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        out
    }

    /// The nearest segment to `p`, with projection details (`None` only for
    /// an empty network).
    #[must_use]
    pub fn nearest_segment(&self, p: Point) -> Option<CandidateEdge> {
        let n = self
            .seg_index
            .nearest(p, 1, |e, q| {
                self.segments[e.id.index()].geometry.dist_to_point(q)
            })
            .into_iter()
            .next()?;
        let proj = self.segments[n.item.id.index()].geometry.project(p);
        Some(CandidateEdge {
            segment: n.item.id,
            dist: proj.dist,
            closest: proj.point,
            offset: proj.offset,
        })
    }

    /// λ-neighborhood hop search over segments (Definition 8).
    ///
    /// Returns `(segment, h)` pairs for every segment with `0 < h(r, s) < λ`,
    /// where `h` counts the transitions needed to move from `r` to `s`
    /// respecting segment directions. `r` itself (`h = 0`) is excluded.
    #[must_use]
    pub fn lambda_neighborhood(&self, r: SegmentId, lambda: usize) -> Vec<(SegmentId, usize)> {
        let mut out = Vec::new();
        if lambda <= 1 {
            return out;
        }
        let mut visited = vec![false; self.segments.len()];
        visited[r.index()] = true;
        let mut queue: VecDeque<(SegmentId, usize)> = VecDeque::new();
        queue.push_back((r, 0));
        while let Some((cur, h)) = queue.pop_front() {
            if h + 1 >= lambda {
                continue;
            }
            for &next in self.next_segments(cur) {
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    out.push((next, h + 1));
                    queue.push_back((next, h + 1));
                }
            }
        }
        out
    }

    /// λ-neighborhood of `seg` with per-target hop count and accumulated
    /// driving distance along the shortest-hop chain (excludes `seg`
    /// itself). Targets appear in first-visit BFS order; a shorter chain
    /// discovered later improves the recorded distance in place without
    /// reordering or updating the hop count — the exact contract the
    /// traverse-graph construction depends on.
    #[must_use]
    pub fn lambda_neighborhood_with_dist(
        &self,
        seg: SegmentId,
        lambda: usize,
    ) -> Vec<(SegmentId, usize, f64)> {
        let mut out: Vec<(SegmentId, usize, f64)> = Vec::new();
        if lambda <= 1 {
            return out;
        }
        let m = self.segments.len();
        let mut best = vec![f64::INFINITY; m];
        let mut pos = vec![u32::MAX; m];
        best[seg.index()] = 0.0;
        let mut queue: VecDeque<(SegmentId, usize, f64)> = VecDeque::new();
        queue.push_back((seg, 0, 0.0));
        while let Some((cur, h, d)) = queue.pop_front() {
            if h + 1 >= lambda {
                continue;
            }
            for &next in self.next_segments(cur) {
                let ni = next.index();
                let nd = d + self.segments[ni].length;
                if nd < best[ni] {
                    let first_visit = best[ni].is_infinite();
                    best[ni] = nd;
                    if first_visit {
                        pos[ni] = out.len() as u32;
                        out.push((next, h + 1, nd));
                        queue.push_back((next, h + 1, nd));
                    } else {
                        out[pos[ni] as usize].2 = nd;
                    }
                }
            }
        }
        out
    }

    // -------------------------------------------------- hot-path memoisation

    /// The lazily built shortest-path oracle over this network.
    ///
    /// Built once on first use (preprocessing cost is reported by
    /// [`SpOracle::preprocessing_seconds`]) and shared by every caller;
    /// answers are byte-identical to the `shortest` module's queries.
    #[must_use]
    pub fn sp_oracle(&self) -> &Arc<SpOracle> {
        self.hot
            .oracle
            .get_or_init(|| Arc::new(SpOracle::build(self)))
    }

    /// The oracle, if it has been built already (never triggers the
    /// preprocessing pass — for metrics surfaces that only want to report).
    #[must_use]
    pub fn sp_oracle_if_built(&self) -> Option<&Arc<SpOracle>> {
        self.hot.oracle.get()
    }

    /// Memoised [`RoadNetwork::lambda_neighborhood_with_dist`] in
    /// structure-of-arrays layout.
    ///
    /// The traverse-graph construction issues this query once per traverse
    /// node per candidate pair; the answer only depends on the immutable
    /// network, so it is computed once per `(segment, λ)` and shared.
    #[must_use]
    pub fn lambda_neighborhood_soa(&self, seg: SegmentId, lambda: usize) -> Arc<LambdaSoA> {
        let key = (seg.0, lambda as u32);
        if let Some(hit) = self.hot.lambda.lock().expect("lambda cache").get(&key) {
            return Arc::clone(hit);
        }
        let fresh = Arc::new(LambdaSoA::from_tuples(
            &self.lambda_neighborhood_with_dist(seg, lambda),
        ));
        let mut map = self.hot.lambda.lock().expect("lambda cache");
        if map.len() >= LAMBDA_CACHE_CAP {
            map.clear();
        }
        map.insert(key, Arc::clone(&fresh));
        fresh
    }

    /// Memoised segment ids of [`RoadNetwork::candidate_edges`], in its
    /// order, keyed by the exact query bit patterns. Reference points are
    /// re-projected for every candidate pair touching them; the projection
    /// is a pure function of the network, so repeated queries cost one map
    /// lookup. Only the segment ids are kept: that is all the edge index
    /// reads (4 bytes per candidate instead of a whole [`CandidateEdge`]).
    #[must_use]
    pub fn candidate_segments_cached(&self, p: Point, eps: f64) -> Arc<[SegmentId]> {
        let key = (p.x.to_bits(), p.y.to_bits(), eps.to_bits());
        if let Some(hit) = self.hot.cands.lock().expect("cand cache").get(&key) {
            return Arc::clone(hit);
        }
        let fresh: Arc<[SegmentId]> = self
            .candidate_edges(p, eps)
            .iter()
            .map(|c| c.segment)
            .collect();
        let mut map = self.hot.cands.lock().expect("cand cache");
        if map.len() >= CAND_CACHE_CAP {
            map.clear();
        }
        map.insert(key, Arc::clone(&fresh));
        fresh
    }

    /// Converts the node-level graph into a [`DiGraph`] under a cost model.
    ///
    /// Node `u` of the digraph corresponds to `NodeId(u as u32)`.
    #[must_use]
    pub fn to_digraph(&self, model: CostModel) -> DiGraph {
        let mut g = DiGraph::with_nodes(self.nodes.len());
        for seg in &self.segments {
            g.add_edge(seg.from.index(), seg.to.index(), model.cost(seg));
        }
        g
    }

    /// `true` if every vertex can reach every other vertex.
    #[must_use]
    pub fn is_strongly_connected(&self) -> bool {
        self.to_digraph(CostModel::Distance).is_strongly_connected()
    }

    /// The cheapest segment from `u` to `v` under `model`, if one exists.
    #[must_use]
    pub fn cheapest_segment_between(
        &self,
        u: NodeId,
        v: NodeId,
        model: CostModel,
    ) -> Option<SegmentId> {
        self.out_segs[u.index()]
            .iter()
            .copied()
            .filter(|&s| self.segment(s).to == v)
            .min_by(|&a, &b| {
                model
                    .cost(self.segment(a))
                    .total_cmp(&model.cost(self.segment(b)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2×2 block grid: 9 nodes, two-way streets, 100 m blocks.
    pub(crate) fn tiny_grid() -> RoadNetwork {
        let mut b = RoadNetwork::builder();
        let mut ids = Vec::new();
        for j in 0..3 {
            for i in 0..3 {
                ids.push(b.add_node(Point::new(i as f64 * 100.0, j as f64 * 100.0)));
            }
        }
        let at = |i: usize, j: usize| ids[j * 3 + i];
        for j in 0..3 {
            for i in 0..3 {
                if i + 1 < 3 {
                    let shape = Polyline::straight(b.node(at(i, j)), b.node(at(i + 1, j)));
                    b.add_two_way(at(i, j), at(i + 1, j), shape, 15.0, RoadClass::Residential);
                }
                if j + 1 < 3 {
                    let shape = Polyline::straight(b.node(at(i, j)), b.node(at(i, j + 1)));
                    b.add_two_way(at(i, j), at(i, j + 1), shape, 15.0, RoadClass::Residential);
                }
            }
        }
        b.build()
    }

    #[test]
    fn builder_constructs_grid() {
        let net = tiny_grid();
        assert_eq!(net.num_nodes(), 9);
        // 12 undirected streets → 24 directed segments.
        assert_eq!(net.num_segments(), 24);
        assert!(net.is_strongly_connected());
        assert_eq!(net.max_speed(), 15.0);
    }

    #[test]
    fn adjacency_is_consistent() {
        let net = tiny_grid();
        for seg in net.segments() {
            assert!(net.out_segments(seg.from).contains(&seg.id));
        }
        // Corner node has out-degree 2.
        assert_eq!(net.out_segments(NodeId(0)).len(), 2);
    }

    #[test]
    fn candidate_edges_within_radius() {
        let net = tiny_grid();
        // Point 10 m above the middle of the bottom-left street.
        let p = Point::new(50.0, 10.0);
        let cands = net.candidate_edges(p, 15.0);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.dist <= 15.0);
        }
        // Sorted ascending.
        for w in cands.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        // Tight radius excludes everything.
        assert!(net.candidate_edges(Point::new(50.0, 50.0), 5.0).is_empty());
    }

    #[test]
    fn nearest_segment_projects() {
        let net = tiny_grid();
        let c = net.nearest_segment(Point::new(50.0, 3.0)).unwrap();
        assert!((c.dist - 3.0).abs() < 1e-9);
        assert_eq!(c.closest, Point::new(50.0, 0.0));
    }

    /// Minimum hop count from segment `r` to segment `s` by plain BFS over
    /// `next_segments`: the pairwise oracle `lambda_neighborhood` is checked
    /// against.
    fn segment_hops(net: &RoadNetwork, r: SegmentId, s: SegmentId) -> Option<usize> {
        let mut hops = vec![usize::MAX; net.num_segments()];
        hops[r.index()] = 0;
        let mut queue = std::collections::VecDeque::from([r]);
        while let Some(cur) = queue.pop_front() {
            if cur == s {
                return Some(hops[cur.index()]);
            }
            for &next in net.next_segments(cur) {
                if hops[next.index()] == usize::MAX {
                    hops[next.index()] = hops[cur.index()] + 1;
                    queue.push_back(next);
                }
            }
        }
        None
    }

    #[test]
    fn lambda_neighborhood_respects_depth() {
        let net = tiny_grid();
        let r = net.out_segments(NodeId(0))[0];
        let n1 = net.lambda_neighborhood(r, 1);
        assert!(
            n1.is_empty(),
            "λ = 1 allows no hops (h < 1 means h = 0 only)"
        );
        let n2 = net.lambda_neighborhood(r, 2);
        assert!(!n2.is_empty());
        for &(_, h) in &n2 {
            assert_eq!(h, 1);
        }
        let n4 = net.lambda_neighborhood(r, 4);
        assert!(n4.len() > n2.len());
        for &(s, h) in &n4 {
            assert_eq!(segment_hops(&net, r, s), Some(h), "BFS hop agrees");
        }
    }

    #[test]
    fn to_digraph_mirrors_topology() {
        let net = tiny_grid();
        let g = net.to_digraph(CostModel::Distance);
        assert_eq!(g.num_nodes(), net.num_nodes());
        assert_eq!(g.num_edges(), net.num_segments());
        // Distance between opposite corners = 400 m on the grid.
        let p = g.shortest_path(0, 8).unwrap();
        assert!((p.cost - 400.0).abs() < 1e-9);
    }

    #[test]
    fn cheapest_segment_between_picks_minimum() {
        let mut b = RoadNetwork::builder();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        // Two parallel segments with different speeds.
        b.add_straight_segment(a, c, 10.0, RoadClass::Residential);
        let fast = b.add_straight_segment(a, c, 25.0, RoadClass::Highway);
        let net = b.build();
        assert_eq!(
            net.cheapest_segment_between(a, c, CostModel::Time),
            Some(fast)
        );
        assert_eq!(net.cheapest_segment_between(c, a, CostModel::Time), None);
    }

    #[test]
    fn cached_accessors_match_uncached() {
        let net = tiny_grid();
        let p = Point::new(50.0, 10.0);
        let want: Vec<SegmentId> = net
            .candidate_edges(p, 15.0)
            .iter()
            .map(|c| c.segment)
            .collect();
        assert!(!want.is_empty());
        // First read misses, second hits the memo: both are the uncached
        // projection's segment ids, in order.
        assert_eq!(*net.candidate_segments_cached(p, 15.0), *want);
        assert_eq!(*net.candidate_segments_cached(p, 15.0), *want);
        let seg = net.out_segments(NodeId(0))[0];
        let soa = LambdaSoA::from_tuples(&net.lambda_neighborhood_with_dist(seg, 4));
        assert_eq!(*net.lambda_neighborhood_soa(seg, 4), soa);
        assert_eq!(*net.lambda_neighborhood_soa(seg, 4), soa);
        // Hop-only view agrees with the hop-only search.
        let hops: Vec<(SegmentId, usize)> = net
            .lambda_neighborhood_with_dist(seg, 4)
            .into_iter()
            .map(|(s, h, _)| (s, h))
            .collect();
        assert_eq!(hops, net.lambda_neighborhood(seg, 4));
        // Cloning starts from fresh caches and a lazily rebuilt oracle.
        assert!(net.sp_oracle_if_built().is_none());
        let _ = net.sp_oracle();
        assert!(net.sp_oracle_if_built().is_some());
        let cloned = net.clone();
        assert!(cloned.sp_oracle_if_built().is_none());
    }

    #[test]
    #[should_panic(expected = "speed limit")]
    fn zero_speed_rejected() {
        let mut b = RoadNetwork::builder();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_straight_segment(a, c, 0.0, RoadClass::Residential);
    }
}
