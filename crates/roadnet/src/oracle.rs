//! Precomputed shortest-path oracle for candidate-pair probes.
//!
//! Local inference issues millions of segment-to-segment route probes
//! against the same immutable road network: null-hypothesis routes between
//! candidate pairs, traverse-graph path projection, global stitching and
//! the map-matching baselines' transition tables. Running an independent
//! Dijkstra per probe re-allocates network-sized arrays and re-discovers
//! the same shortest-path trees over and over.
//!
//! [`SpOracle`] replaces that with three layers of precomputation:
//!
//! 1. **CSR adjacency** — the node graph flattened into
//!    offset/head/segment/cost arrays (one cost lane per [`CostModel`]),
//!    preserving `out_segments` order exactly so relaxation order — and
//!    therefore every tie-break — matches the reference searches of
//!    [`shortest`](crate::shortest) byte for byte.
//! 2. **SCC condensation reachability** — Tarjan components plus a
//!    component-level reachability bitmatrix, so *negative* probes (the
//!    expensive ones: Dijkstra floods the whole component before giving up)
//!    are answered in O(1) without touching a heap.
//! 3. **Shortest-path-tree cache** — full one-to-all Dijkstra trees
//!    ([`SptTree`]) memoised per `(source node, cost model)` in sharded
//!    maps. A tree keeps one `u32` per node — the predecessor segment — and
//!    a probe whose tree is cached costs a predecessor walk; every probe
//!    sharing a source amortises one tree build. With positive edge costs,
//!    a full run's predecessor assignments for nodes settled at or before
//!    the target are identical to the early-terminated run's, so
//!    reconstructed routes are byte-identical to
//!    [`shortest_path`](crate::shortest::shortest_path)'s.
//!
//! Every search runs one relaxation loop on the crate's one epoch-stamped
//! [`DijkstraScratch`] (dist/stamp/predecessor arrays, a reusable heap and
//! a path stack), pooled inside the oracle, so steady-state probes perform
//! **zero heap allocation** — a property locked in by the `alloc_probe`
//! regression test.

use crate::digraph::{tarjan_scc, DijkstraScratch, HeapItem};
use crate::fxhash::FxHashMap;
use crate::ids::{NodeId, SegmentId};
use crate::network::{CostModel, RoadNetwork};
use crate::route::Route;
use std::sync::{Arc, Mutex};

/// Past this many strongly-connected components the O(C²/64) reachability
/// bitmatrix is skipped (probes fall through to a tree lookup instead).
const MAX_REACH_COMPONENTS: usize = 4096;

/// Number of independently locked cache shards.
const SPT_SHARDS: usize = 16;

/// Default bound on cached shortest-path trees (across all shards).
const DEFAULT_SPT_CAPACITY: usize = 4096;

/// A shortest path between two vertices.
#[derive(Debug, Clone, PartialEq)]
pub struct PathResult {
    /// Total cost under the requested [`CostModel`].
    pub cost: f64,
    /// Visited vertices, source first.
    pub nodes: Vec<NodeId>,
    /// Traversed segments (`nodes.len() - 1` of them).
    pub segments: Vec<SegmentId>,
}

impl PathResult {
    /// The path as a [`Route`].
    #[must_use]
    pub fn route(&self) -> Route {
        Route::new(self.segments.clone())
    }
}

/// The road network's node graph in compressed-sparse-row form.
///
/// Edge order within a node is exactly `RoadNetwork::out_segments` order;
/// per-edge costs are precomputed for both cost models so the inner Dijkstra
/// loop reads three flat arrays and never touches a `Segment`.
struct CsrAdjacency {
    /// `offsets[u]..offsets[u + 1]` indexes `u`'s out-edges.
    offsets: Vec<u32>,
    /// Target node of each edge.
    heads: Vec<u32>,
    /// Segment realising each edge.
    edge_segs: Vec<u32>,
    /// Per-edge cost, one lane per [`CostModel`] (`Distance` = 0, `Time` = 1).
    edge_cost: [Vec<f64>; 2],
    /// Per-segment start node (for route reconstruction).
    seg_from: Vec<u32>,
    /// Per-segment end node.
    seg_to: Vec<u32>,
    /// Per-segment cost, one lane per [`CostModel`].
    seg_cost: [Vec<f64>; 2],
}

#[inline]
fn lane(model: CostModel) -> usize {
    match model {
        CostModel::Distance => 0,
        CostModel::Time => 1,
    }
}

impl CsrAdjacency {
    /// Flattens `net`'s adjacency, preserving `out_segments` order.
    fn build(net: &RoadNetwork) -> Self {
        let n = net.num_nodes();
        let m = net.num_segments();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut heads = Vec::with_capacity(m);
        let mut edge_segs = Vec::with_capacity(m);
        let mut cost_d = Vec::with_capacity(m);
        let mut cost_t = Vec::with_capacity(m);
        offsets.push(0);
        for u in 0..n {
            for &sid in net.out_segments(NodeId(u as u32)) {
                let seg = net.segment(sid);
                heads.push(seg.to.0);
                edge_segs.push(sid.0);
                cost_d.push(CostModel::Distance.cost(seg));
                cost_t.push(CostModel::Time.cost(seg));
            }
            offsets.push(heads.len() as u32);
        }
        let mut seg_from = Vec::with_capacity(m);
        let mut seg_to = Vec::with_capacity(m);
        let mut seg_cost_d = Vec::with_capacity(m);
        let mut seg_cost_t = Vec::with_capacity(m);
        for seg in net.segments() {
            seg_from.push(seg.from.0);
            seg_to.push(seg.to.0);
            seg_cost_d.push(CostModel::Distance.cost(seg));
            seg_cost_t.push(CostModel::Time.cost(seg));
        }
        CsrAdjacency {
            offsets,
            heads,
            edge_segs,
            edge_cost: [cost_d, cost_t],
            seg_from,
            seg_to,
            seg_cost: [seg_cost_d, seg_cost_t],
        }
    }

    /// Number of nodes.
    #[inline]
    fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (= directed segments).
    #[inline]
    fn num_edges(&self) -> usize {
        self.heads.len()
    }

    /// Start node of a segment.
    #[inline]
    fn segment_from(&self, s: SegmentId) -> NodeId {
        NodeId(self.seg_from[s.index()])
    }

    /// End node of a segment.
    #[inline]
    fn segment_to(&self, s: SegmentId) -> NodeId {
        NodeId(self.seg_to[s.index()])
    }

    /// Traversal cost of a segment under `model`.
    #[inline]
    fn segment_cost(&self, s: SegmentId, model: CostModel) -> f64 {
        self.seg_cost[lane(model)][s.index()]
    }
}

/// A full one-to-all shortest-path tree from one source node.
///
/// `prev_seg[v]` is the segment that finally relaxed `v` (`u32::MAX` for the
/// source and unreachable nodes). Because every edge cost is positive, the
/// assignments for any node settled at or before a target equal those the
/// early-terminated point query would have produced, so walking `prev_seg`
/// reconstructs byte-identical routes. Distances are not stored: they are
/// a function of the predecessors ([`SpOracle::tree_dist`]).
pub struct SptTree {
    source: NodeId,
    model: CostModel,
    prev_seg: Box<[u32]>,
}

/// Component-level reachability bitmatrix over the SCC condensation.
struct ReachMatrix {
    words: usize,
    bits: Vec<u64>,
}

impl ReachMatrix {
    #[inline]
    fn reachable(&self, cu: usize, cv: usize) -> bool {
        (self.bits[cu * self.words + cv / 64] >> (cv % 64)) & 1 == 1
    }
}

type SptShard = Mutex<FxHashMap<(u32, u8), Arc<SptTree>>>;

/// Precomputed shortest-path oracle over one immutable [`RoadNetwork`].
///
/// See the [module docs](self) for the layering. The oracle is pure with
/// respect to the network: every answer equals what the corresponding
/// [`shortest`](crate::shortest) query would return, so cached and uncached probes may be
/// mixed freely. Hit/miss accounting: a probe answered from precomputed
/// state (reachability matrix or cached tree) counts as a **hit**; a probe
/// that had to run Dijkstra counts as a **miss**.
pub struct SpOracle {
    csr: CsrAdjacency,
    /// Tarjan component of each node (reverse-topological indices).
    comp: Vec<u32>,
    num_components: usize,
    reach: Option<ReachMatrix>,
    shards: Vec<SptShard>,
    per_shard_capacity: usize,
    scratch_pool: Mutex<Vec<DijkstraScratch>>,
    lookups: hris_obs::PairedCounter,
    preprocessing_seconds: f64,
}

impl std::fmt::Debug for SpOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpOracle")
            .field("nodes", &self.csr.num_nodes())
            .field("edges", &self.csr.num_edges())
            .field("components", &self.num_components)
            .field("has_reach_matrix", &self.reach.is_some())
            .field("cached_trees", &self.cached_trees())
            .field("preprocessing_seconds", &self.preprocessing_seconds)
            .finish()
    }
}

impl SpOracle {
    /// Preprocesses `net` with the default tree-cache capacity.
    #[must_use]
    pub fn build(net: &RoadNetwork) -> Self {
        Self::with_capacity(net, DEFAULT_SPT_CAPACITY)
    }

    /// Preprocesses `net`, bounding the tree cache to roughly `capacity`
    /// trees (split across shards; zero is bumped to one per shard).
    #[must_use]
    pub fn with_capacity(net: &RoadNetwork, capacity: usize) -> Self {
        let t0 = std::time::Instant::now();
        let csr = CsrAdjacency::build(net);
        // Tarjan over the node graph; component ids are in reverse
        // topological order of the condensation, so every cross-component
        // edge u→v has comp[v] < comp[u].
        let (comp, num_components) = tarjan_scc(&csr.offsets, &csr.heads);
        let reach = (num_components <= MAX_REACH_COMPONENTS).then(|| {
            let words = num_components.div_ceil(64).max(1);
            let mut bits = vec![0u64; num_components * words];
            // Ascending component order is topological for incoming unions:
            // all edges out of component c land in components < c, whose
            // rows are already complete.
            for c in 0..num_components {
                bits[c * words + c / 64] |= 1 << (c % 64);
            }
            for u in 0..csr.num_nodes() {
                let cu = comp[u] as usize;
                let (lo, hi) = (csr.offsets[u] as usize, csr.offsets[u + 1] as usize);
                for e in lo..hi {
                    let cv = comp[csr.heads[e] as usize] as usize;
                    if cu != cv {
                        debug_assert!(cv < cu, "tarjan ids are reverse-topological");
                        for w in 0..words {
                            let row = bits[cv * words + w];
                            bits[cu * words + w] |= row;
                        }
                    }
                }
            }
            ReachMatrix { words, bits }
        });
        let per_shard_capacity = capacity.div_ceil(SPT_SHARDS).max(1);
        SpOracle {
            csr,
            comp,
            num_components,
            reach,
            shards: (0..SPT_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            per_shard_capacity,
            scratch_pool: Mutex::new(Vec::new()),
            lookups: hris_obs::PairedCounter::new(),
            preprocessing_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Wall-clock seconds the preprocessing pass (CSR + SCC + reachability)
    /// took — exported as the `hris_sp_oracle_preprocessing_seconds` gauge.
    #[inline]
    #[must_use]
    pub fn preprocessing_seconds(&self) -> f64 {
        self.preprocessing_seconds
    }

    /// `true` when `v` is reachable from `u`.
    ///
    /// O(1) via the condensation bitmatrix when available; conservatively
    /// `true` (forcing a tree lookup) on networks with more components than
    /// `MAX_REACH_COMPONENTS`.
    #[inline]
    #[must_use]
    pub fn reachable(&self, u: NodeId, v: NodeId) -> bool {
        match &self.reach {
            Some(m) => m.reachable(self.comp[u.index()] as usize, self.comp[v.index()] as usize),
            None => true,
        }
    }

    /// Shared hit/miss pair — clone to register on a metrics registry as
    /// `hris_sp_oracle_{hits,misses}_total`.
    #[must_use]
    pub fn lookup_counters(&self) -> hris_obs::PairedCounter {
        self.lookups.clone()
    }

    /// Probes answered from precomputed state so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.lookups.hits()
    }

    /// Probes that had to run Dijkstra so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.lookups.misses()
    }

    /// Number of shortest-path trees currently cached.
    #[must_use]
    pub fn cached_trees(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("spt shard").len())
            .sum()
    }

    #[inline]
    fn shard(&self, source: NodeId) -> &SptShard {
        &self.shards[source.index() % SPT_SHARDS]
    }

    /// The one-to-all shortest-path tree from `source`, cached.
    #[must_use]
    pub fn spt(&self, source: NodeId, model: CostModel) -> Arc<SptTree> {
        let key = (source.0, lane(model) as u8);
        {
            let mut shard = self.shard(source).lock().expect("spt shard");
            if let Some(t) = shard.get(&key) {
                self.lookups.hit();
                return Arc::clone(t);
            }
            // Bound memory: flush the shard wholesale when full. Flushing
            // only costs recomputation; answers are unaffected.
            if shard.len() >= self.per_shard_capacity {
                shard.clear();
            }
        }
        self.lookups.miss();
        let tree = Arc::new(self.compute_spt(source, model));
        self.shard(source)
            .lock()
            .expect("spt shard")
            .insert(key, Arc::clone(&tree));
        tree
    }

    fn with_scratch<R>(&self, f: impl FnOnce(&mut DijkstraScratch) -> R) -> R {
        let n = self.csr.num_nodes();
        let mut scratch = self
            .scratch_pool
            .lock()
            .expect("scratch pool")
            .pop()
            .unwrap_or_else(|| {
                // A simple path has fewer segments than the graph has nodes,
                // so the path stack never grows.
                let mut s = DijkstraScratch::for_nodes(n);
                s.path.reserve(n);
                s
            });
        let out = f(&mut scratch);
        self.scratch_pool
            .lock()
            .expect("scratch pool")
            .push(scratch);
        out
    }

    /// The one relaxation loop of every oracle search: Dijkstra from
    /// `source` under `model` into `scr`, popping in the crate's
    /// `(cost, node)` heap order and stopping once `target` (if any) is
    /// settled.
    fn search(
        &self,
        scr: &mut DijkstraScratch,
        source: NodeId,
        target: Option<NodeId>,
        model: CostModel,
    ) {
        let costs = &self.csr.edge_cost[lane(model)];
        let stop = target.map_or(usize::MAX, NodeId::index);
        scr.begin(self.csr.num_nodes());
        scr.relax(source.index(), 0.0, u32::MAX);
        scr.heap.push(HeapItem {
            cost: 0.0,
            node: source.index(),
        });
        while let Some(HeapItem { cost, node }) = scr.heap.pop() {
            if cost > scr.dist(node) {
                continue;
            }
            if node == stop {
                break;
            }
            let (lo, hi) = (
                self.csr.offsets[node] as usize,
                self.csr.offsets[node + 1] as usize,
            );
            let heads = &self.csr.heads[lo..hi];
            let segs = &self.csr.edge_segs[lo..hi];
            for ((&head, &edge_cost), &seg) in heads.iter().zip(&costs[lo..hi]).zip(segs) {
                let v = head as usize;
                let nd = cost + edge_cost;
                if nd < scr.dist(v) {
                    scr.relax(v, nd, seg);
                    scr.heap.push(HeapItem { cost: nd, node: v });
                }
            }
        }
    }

    fn compute_spt(&self, source: NodeId, model: CostModel) -> SptTree {
        let mut prev_seg = vec![u32::MAX; self.csr.num_nodes()].into_boxed_slice();
        if source.index() < prev_seg.len() {
            self.with_scratch(|scr| {
                self.search(scr, source, None, model);
                for (v, p) in prev_seg.iter_mut().enumerate() {
                    *p = scr.prev(v);
                }
            });
        }
        SptTree {
            source,
            model,
            prev_seg,
        }
    }

    /// Cost from `tree`'s source to `v` (∞ when unreachable): the
    /// source-first left fold of the segment costs along the tree path,
    /// which is bit-equal to the Dijkstra label the tree was built with
    /// (each label is its settled parent's final label plus one edge cost,
    /// and `0.0 + c` is `c`). The path is staged on pooled scratch, so a
    /// steady-state call does not allocate.
    #[must_use]
    pub fn tree_dist(&self, tree: &SptTree, v: NodeId) -> f64 {
        if v != tree.source && tree.prev_seg[v.index()] == u32::MAX {
            return f64::INFINITY;
        }
        let costs = &self.csr.seg_cost[lane(tree.model)];
        self.with_scratch(|scr| {
            scr.path.clear();
            let mut cur = v;
            while cur != tree.source {
                let sid = tree.prev_seg[cur.index()];
                scr.path.push(sid);
                cur = self.csr.segment_from(SegmentId(sid));
            }
            scr.path
                .iter()
                .rev()
                .fold(0.0, |d, &sid| d + costs[sid as usize])
        })
    }

    /// Point-to-point Dijkstra against caller-owned scratch, byte-identical
    /// to [`shortest_path`](crate::shortest::shortest_path) (same relaxation
    /// and heap order, same early termination, same reconstruction) but with
    /// zero transient allocation beyond the returned path. It goes past the
    /// tree cache: nothing is cached, no hit or miss is counted.
    #[must_use]
    pub fn point_to_point(
        &self,
        source: NodeId,
        target: NodeId,
        model: CostModel,
        scratch: &mut DijkstraScratch,
    ) -> Option<PathResult> {
        let n = self.csr.num_nodes();
        if source.index() >= n || target.index() >= n {
            return None;
        }
        if source == target {
            return Some(PathResult {
                cost: 0.0,
                nodes: vec![source],
                segments: Vec::new(),
            });
        }
        self.search(scratch, source, Some(target), model);
        let total = scratch.dist(target.index());
        if !total.is_finite() {
            return None;
        }
        let mut segments = Vec::new();
        let mut nodes = vec![target];
        let mut cur = target;
        while cur != source {
            let sid = scratch.prev(cur.index());
            debug_assert_ne!(sid, u32::MAX, "finite dist implies predecessor");
            segments.push(SegmentId(sid));
            cur = self.csr.segment_from(SegmentId(sid));
            nodes.push(cur);
        }
        nodes.reverse();
        segments.reverse();
        Some(PathResult {
            cost: total,
            nodes,
            segments,
        })
    }

    /// Shortest route that fully traverses `r`, then the network, then `s` —
    /// byte-identical to
    /// [`route_between_segments`](crate::shortest::route_between_segments),
    /// answered from the reachability matrix (negatives) or a cached tree
    /// when possible.
    #[must_use]
    pub fn route_between(&self, r: SegmentId, s: SegmentId, model: CostModel) -> Option<Route> {
        if r == s {
            return Some(Route::new(vec![r]));
        }
        let src = self.csr.segment_to(r);
        let dst = self.csr.segment_from(s);
        if !self.reachable(src, dst) {
            // O(1) negative; precomputed state answered it, count the hit.
            self.lookups.hit();
            return None;
        }
        let spt = self.spt(src, model);
        self.walk_route(&spt, r, s, src, dst)
    }

    /// [`SpOracle::route_between`] for sources that rarely recur (bridging
    /// the matched edges of one trace): the same route from an
    /// early-terminated search on pooled scratch. It goes past the tree
    /// cache — nothing is cached, no hit or miss is counted.
    #[must_use]
    pub fn route_between_uncached(
        &self,
        r: SegmentId,
        s: SegmentId,
        model: CostModel,
    ) -> Option<Route> {
        if r == s {
            return Some(Route::new(vec![r]));
        }
        let (src, dst) = (self.csr.segment_to(r), self.csr.segment_from(s));
        if !self.reachable(src, dst) {
            return None;
        }
        let bridge = self.with_scratch(|scr| self.point_to_point(src, dst, model, scr))?;
        Some(Route::new([&[r], &bridge.segments[..], &[s]].concat()))
    }

    /// Reconstructs the `r → … → s` route by walking `spt`'s predecessor
    /// segments back from `dst`.
    fn walk_route(
        &self,
        spt: &SptTree,
        r: SegmentId,
        s: SegmentId,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Route> {
        if dst != src && spt.prev_seg[dst.index()] == u32::MAX {
            return None;
        }
        let mut segs = vec![r];
        let mut cur = dst;
        while cur != src {
            let sid = spt.prev_seg[cur.index()];
            debug_assert_ne!(sid, u32::MAX, "a tree path ends at its source");
            segs.push(SegmentId(sid));
            cur = self.csr.segment_from(SegmentId(sid));
        }
        segs[1..].reverse();
        segs.push(s);
        Some(Route::new(segs))
    }

    /// Total cost of [`SpOracle::route_between`]'s route without building
    /// it: the steady-state candidate-pair probe. With the tree cached this
    /// is a predecessor walk and performs **zero heap allocation** (pinned
    /// by the `alloc_probe` test).
    #[must_use]
    pub fn route_cost_between(&self, r: SegmentId, s: SegmentId, model: CostModel) -> Option<f64> {
        if r == s {
            return Some(self.csr.segment_cost(r, model));
        }
        let src = self.csr.segment_to(r);
        let dst = self.csr.segment_from(s);
        if !self.reachable(src, dst) {
            self.lookups.hit();
            return None;
        }
        let bridge = self.tree_dist(&self.spt(src, model), dst);
        if !bridge.is_finite() {
            return None;
        }
        Some(self.csr.segment_cost(r, model) + bridge + self.csr.segment_cost(s, model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, NetworkConfig, RoadClass};
    use crate::shortest::{route_between_segments, shortest_costs_from, shortest_path};
    use hris_geo::{Point, Polyline};

    fn grid() -> RoadNetwork {
        let mut b = RoadNetwork::builder();
        let mut ids = Vec::new();
        for j in 0..4 {
            for i in 0..4 {
                ids.push(b.add_node(Point::new(i as f64 * 100.0, j as f64 * 100.0)));
            }
        }
        let at = |i: usize, j: usize| ids[j * 4 + i];
        for j in 0..4 {
            for i in 0..4 {
                if i + 1 < 4 {
                    let shape = Polyline::straight(b.node(at(i, j)), b.node(at(i + 1, j)));
                    b.add_two_way(at(i, j), at(i + 1, j), shape, 10.0, RoadClass::Residential);
                }
                if j + 1 < 4 {
                    let shape = Polyline::straight(b.node(at(i, j)), b.node(at(i, j + 1)));
                    b.add_two_way(at(i, j), at(i, j + 1), shape, 10.0, RoadClass::Residential);
                }
            }
        }
        b.build()
    }

    #[test]
    fn csr_mirrors_adjacency_order() {
        let net = grid();
        let csr = CsrAdjacency::build(&net);
        assert_eq!(csr.num_nodes(), net.num_nodes());
        assert_eq!(csr.num_edges(), net.num_segments());
        for u in 0..net.num_nodes() {
            let (lo, hi) = (csr.offsets[u] as usize, csr.offsets[u + 1] as usize);
            let segs: Vec<SegmentId> = csr.edge_segs[lo..hi]
                .iter()
                .map(|&s| SegmentId(s))
                .collect();
            assert_eq!(segs, net.out_segments(NodeId(u as u32)), "node {u}");
        }
    }

    #[test]
    fn route_between_matches_classic_everywhere() {
        for net in [grid(), generate(&NetworkConfig::small(7))] {
            let oracle = SpOracle::build(&net);
            let m = net.num_segments() as u32;
            for k in 0..200u32 {
                let r = SegmentId(k * 37 % m);
                let s = SegmentId((k * 101 + 13) % m);
                for model in [CostModel::Distance, CostModel::Time] {
                    let classic = route_between_segments(&net, r, s, model);
                    let fast = oracle.route_between(r, s, model);
                    assert_eq!(fast, classic, "{r:?}->{s:?} {model:?}");
                    let uncached = oracle.route_between_uncached(r, s, model);
                    assert_eq!(uncached, classic, "{r:?}->{s:?} {model:?} uncached");
                    if let Some(route) = &classic {
                        let cost: f64 = route
                            .segments()
                            .iter()
                            .map(|&x| model.cost(net.segment(x)))
                            .sum();
                        let probed = oracle.route_cost_between(r, s, model).unwrap();
                        assert!((cost - probed).abs() < 1e-9, "{r:?}->{s:?}");
                    } else {
                        assert!(oracle.route_cost_between(r, s, model).is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn point_to_point_matches_shortest_path() {
        let net = generate(&NetworkConfig::small(23));
        let oracle = SpOracle::build(&net);
        let mut scratch = DijkstraScratch::default();
        let n = net.num_nodes() as u32;
        for k in 0..150u32 {
            let s = NodeId(k * 17 % n);
            let t = NodeId((k * 53 + 11) % n);
            for model in [CostModel::Distance, CostModel::Time] {
                let classic = shortest_path(&net, s, t, model);
                let fast = oracle.point_to_point(s, t, model, &mut scratch);
                assert_eq!(fast, classic, "{s:?}->{t:?} {model:?}");
            }
        }
    }

    /// On an unjittered, uncurved grid every block has the same length, so
    /// equal-cost shortest paths are everywhere and only the heap order
    /// picks between them: the oracle must pick as the reference does.
    #[test]
    fn tied_grid_routes_match_reference() {
        let net = generate(&NetworkConfig {
            jitter_frac: 0.0,
            curve_frac: 0.0,
            ..NetworkConfig::small(11)
        });
        let oracle = SpOracle::build(&net);
        let mut scratch = DijkstraScratch::default();
        let n = net.num_nodes() as u32;
        let mut tied = 0;
        for s in (0..n).step_by(7).map(NodeId) {
            // Nodes with two or more in-segments on a shortest path.
            let dist = shortest_costs_from(&net, s, CostModel::Distance);
            let mut preds = vec![0usize; net.num_nodes()];
            for seg in net.segments() {
                let to = dist[seg.to.index()];
                if to.is_finite() && dist[seg.from.index()] + seg.length == to {
                    preds[seg.to.index()] += 1;
                }
            }
            tied += preds.iter().filter(|&&p| p >= 2).count();
            for t in (0..n).map(NodeId) {
                for model in [CostModel::Distance, CostModel::Time] {
                    let want = shortest_path(&net, s, t, model);
                    let got = oracle.point_to_point(s, t, model, &mut scratch);
                    assert_eq!(got, want, "{s:?}->{t:?} {model:?}");
                }
            }
        }
        assert!(
            tied > 100,
            "only {tied} tied predecessors: the grid is not tie-heavy"
        );
        let m = net.num_segments() as u32;
        for k in 0..400u32 {
            let (r, s) = (SegmentId(k * 37 % m), SegmentId((k * 101 + 13) % m));
            let want = route_between_segments(&net, r, s, CostModel::Distance);
            assert_eq!(oracle.route_between(r, s, CostModel::Distance), want);
        }
    }

    #[test]
    fn unreachable_answered_without_dijkstra() {
        let mut b = RoadNetwork::builder();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        let d = b.add_node(Point::new(500.0, 0.0));
        let e = b.add_node(Point::new(600.0, 0.0));
        b.add_straight_segment(a, c, 10.0, RoadClass::Residential);
        b.add_straight_segment(d, e, 10.0, RoadClass::Residential);
        let net = b.build();
        let oracle = SpOracle::build(&net);
        let r = net.out_segments(a)[0];
        let s = net.out_segments(d)[0];
        assert!(!oracle.reachable(c, d));
        assert!(oracle.route_between(r, s, CostModel::Distance).is_none());
        // Negative answered by the reachability matrix: a hit, no tree built.
        assert_eq!((oracle.hits(), oracle.misses()), (1, 0));
        assert_eq!(oracle.cached_trees(), 0);
        assert!(oracle
            .route_between_uncached(r, s, CostModel::Distance)
            .is_none());
    }

    #[test]
    fn tree_cache_hits_and_is_bounded() {
        let net = grid();
        let oracle = SpOracle::with_capacity(&net, SPT_SHARDS); // 1 tree/shard
        let r = net.out_segments(NodeId(0))[0];
        let s = net
            .segments()
            .iter()
            .find(|s| s.to == NodeId(15))
            .unwrap()
            .id;
        let first = oracle.route_between(r, s, CostModel::Distance);
        assert!(first.is_some());
        assert_eq!(oracle.misses(), 1);
        let again = oracle.route_between(r, s, CostModel::Distance);
        assert_eq!(again, first);
        assert!(oracle.hits() >= 1, "second probe reuses the cached tree");
        // Flood with distinct sources; the cache must stay bounded.
        let m = net.num_segments() as u32;
        for a in 0..m {
            for b in 0..m {
                let _ = oracle.route_cost_between(SegmentId(a), SegmentId(b), CostModel::Distance);
            }
        }
        let trees = oracle.cached_trees();
        assert!(trees <= SPT_SHARDS);
        // An uncached probe leaves no tree behind and no count.
        let lookups = (oracle.hits(), oracle.misses());
        let uncached = oracle.route_between_uncached(r, s, CostModel::Distance);
        assert_eq!(uncached, first);
        assert_eq!(oracle.cached_trees(), trees);
        assert_eq!((oracle.hits(), oracle.misses()), lookups);
    }

    #[test]
    fn cached_tree_payload_is_one_u32_per_node() {
        let net = generate(&NetworkConfig::small(7));
        let oracle = SpOracle::build(&net);
        let tree = oracle.spt(NodeId(0), CostModel::Time);
        // Exhaustive pattern: a field added to the tree fails to compile
        // here, so the footprint below is the whole heap payload.
        let SptTree {
            source: _,
            model: _,
            prev_seg,
        } = &*tree;
        assert_eq!(
            std::mem::size_of_val(&**prev_seg),
            net.num_nodes() * std::mem::size_of::<u32>()
        );
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        // One scratch reused across many queries must agree with a fresh
        // scratch per query (epoch stamping makes stale labels unreadable).
        let net = generate(&NetworkConfig::small(5));
        let oracle = SpOracle::build(&net);
        let mut reused = DijkstraScratch::default();
        let n = net.num_nodes() as u32;
        for k in 0..60u32 {
            let s = NodeId(k * 29 % n);
            let t = NodeId((k * 7 + 3) % n);
            let mut fresh = DijkstraScratch::default();
            let a = oracle.point_to_point(s, t, CostModel::Distance, &mut reused);
            let b = oracle.point_to_point(s, t, CostModel::Distance, &mut fresh);
            assert_eq!(a, b, "{s:?}->{t:?}");
        }
    }

    #[test]
    fn preprocessing_metadata_sane() {
        let net = grid();
        let oracle = SpOracle::build(&net);
        assert!(oracle.preprocessing_seconds() >= 0.0);
        assert_eq!(
            oracle.num_components, 1,
            "two-way grid is strongly connected"
        );
        assert!(format!("{oracle:?}").contains("SpOracle"));
    }
}
