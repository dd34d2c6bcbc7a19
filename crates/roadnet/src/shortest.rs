//! Shortest paths over the road network, with segment recovery.
//!
//! Used everywhere: projecting traverse-graph paths back to physical routes
//! (Algorithm 1, line 14), bridging candidate-edge gaps in global route
//! inference (Section III-C), the ST-Matching/IVMM transition probabilities,
//! and the simulator's route choice.

use crate::digraph::GraphPath;
use crate::ids::{NodeId, SegmentId};
use crate::network::{RoadNetwork, Segment};
use crate::route::Route;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which quantity a shortest-path search minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CostModel {
    /// Minimise travelled distance (metres).
    #[default]
    Distance,
    /// Minimise free-flow travel time (seconds).
    Time,
}

impl CostModel {
    /// Cost of traversing one segment under this model.
    #[inline]
    #[must_use]
    pub fn cost(self, seg: &Segment) -> f64 {
        match self {
            CostModel::Distance => seg.length,
            CostModel::Time => seg.travel_time(),
        }
    }
}

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

#[derive(PartialEq)]
struct HeapItem {
    cost: f64,
    node: usize,
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other.cost.total_cmp(&self.cost)
    }
}

/// Dijkstra from `source` to `target` over the road network, tracking the
/// segment used to reach each node so the route can be reconstructed.
#[must_use]
pub fn shortest_path(
    net: &RoadNetwork,
    source: NodeId,
    target: NodeId,
    model: CostModel,
) -> Option<PathResult> {
    let n = net.num_nodes();
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
    let mut dist = vec![f64::INFINITY; n];
    let mut prev_seg: Vec<Option<SegmentId>> = vec![None; n];
    dist[source.index()] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapItem {
        cost: 0.0,
        node: source.index(),
    });
    while let Some(HeapItem { cost, node }) = heap.pop() {
        if cost > dist[node] {
            continue;
        }
        if node == target.index() {
            break;
        }
        for &sid in net.out_segments(NodeId(node as u32)) {
            let seg = net.segment(sid);
            let v = seg.to.index();
            let nd = cost + model.cost(seg);
            if nd < dist[v] {
                dist[v] = nd;
                prev_seg[v] = Some(sid);
                heap.push(HeapItem { cost: nd, node: v });
            }
        }
    }
    if !dist[target.index()].is_finite() {
        return None;
    }
    // Reconstruct.
    let mut segments = Vec::new();
    let mut nodes = vec![target];
    let mut cur = target;
    while cur != source {
        let sid = prev_seg[cur.index()].expect("finite dist implies predecessor");
        segments.push(sid);
        cur = net.segment(sid).from;
        nodes.push(cur);
    }
    nodes.reverse();
    segments.reverse();
    Some(PathResult {
        cost: dist[target.index()],
        nodes,
        segments,
    })
}

/// A* shortest path with an admissible geometric heuristic.
///
/// For [`CostModel::Distance`] the heuristic is the straight-line distance
/// to the target; for [`CostModel::Time`] it is that distance divided by
/// the network's maximum speed. Both never overestimate, so A* returns the
/// same cost as [`shortest_path`] while expanding (often far) fewer nodes —
/// the workhorse for point-to-point queries on large networks.
#[must_use]
pub fn astar_path(
    net: &RoadNetwork,
    source: NodeId,
    target: NodeId,
    model: CostModel,
) -> Option<PathResult> {
    let n = net.num_nodes();
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
    let goal = net.node(target);
    let h = |node: usize| -> f64 {
        let d = net.node(NodeId(node as u32)).dist(goal);
        match model {
            CostModel::Distance => d,
            CostModel::Time => d / net.max_speed(),
        }
    };
    let mut g = vec![f64::INFINITY; n];
    let mut prev_seg: Vec<Option<SegmentId>> = vec![None; n];
    let mut closed = vec![false; n];
    g[source.index()] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapItem {
        cost: h(source.index()),
        node: source.index(),
    });
    while let Some(HeapItem { node, .. }) = heap.pop() {
        if closed[node] {
            continue;
        }
        closed[node] = true;
        if node == target.index() {
            break;
        }
        for &sid in net.out_segments(NodeId(node as u32)) {
            let seg = net.segment(sid);
            let v = seg.to.index();
            let ng = g[node] + model.cost(seg);
            if ng < g[v] {
                g[v] = ng;
                prev_seg[v] = Some(sid);
                heap.push(HeapItem {
                    cost: ng + h(v),
                    node: v,
                });
            }
        }
    }
    if !g[target.index()].is_finite() {
        return None;
    }
    let mut segments = Vec::new();
    let mut nodes = vec![target];
    let mut cur = target;
    while cur != source {
        let sid = prev_seg[cur.index()].expect("finite cost implies predecessor");
        segments.push(sid);
        cur = net.segment(sid).from;
        nodes.push(cur);
    }
    nodes.reverse();
    segments.reverse();
    Some(PathResult {
        cost: g[target.index()],
        nodes,
        segments,
    })
}

/// One-to-many Dijkstra: costs from `source` to every vertex (∞ when
/// unreachable). Cheaper than repeated point queries for the ST-Matching
/// transition matrix.
#[must_use]
pub fn shortest_costs_from(net: &RoadNetwork, source: NodeId, model: CostModel) -> Vec<f64> {
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    if source.index() >= n {
        return dist;
    }
    dist[source.index()] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapItem {
        cost: 0.0,
        node: source.index(),
    });
    while let Some(HeapItem { cost, node }) = heap.pop() {
        if cost > dist[node] {
            continue;
        }
        for &sid in net.out_segments(NodeId(node as u32)) {
            let seg = net.segment(sid);
            let v = seg.to.index();
            let nd = cost + model.cost(seg);
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(HeapItem { cost: nd, node: v });
            }
        }
    }
    dist
}

/// Bounded one-to-many Dijkstra: stops expanding past `max_cost`.
#[must_use]
pub fn shortest_costs_within(
    net: &RoadNetwork,
    source: NodeId,
    model: CostModel,
    max_cost: f64,
) -> Vec<(NodeId, f64)> {
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut out = Vec::new();
    if source.index() >= n {
        return out;
    }
    dist[source.index()] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapItem {
        cost: 0.0,
        node: source.index(),
    });
    while let Some(HeapItem { cost, node }) = heap.pop() {
        if cost > dist[node] {
            continue;
        }
        out.push((NodeId(node as u32), cost));
        for &sid in net.out_segments(NodeId(node as u32)) {
            let seg = net.segment(sid);
            let v = seg.to.index();
            let nd = cost + model.cost(seg);
            if nd < dist[v] && nd <= max_cost {
                dist[v] = nd;
                heap.push(HeapItem { cost: nd, node: v });
            }
        }
    }
    out
}

/// Shortest *route* that starts by fully traversing `r`, ends by fully
/// traversing `s`, and connects them via the road network.
///
/// This is how traverse-graph paths and local-route joints are projected
/// back onto physical roads. Returns `None` when `s` is unreachable
/// from `r`. When `r == s` the route is just `[r]`.
#[must_use]
pub fn route_between_segments(
    net: &RoadNetwork,
    r: SegmentId,
    s: SegmentId,
    model: CostModel,
) -> Option<Route> {
    if r == s {
        return Some(Route::new(vec![r]));
    }
    let bridge = shortest_path(net, net.segment(r).to, net.segment(s).from, model)?;
    let mut segs = Vec::with_capacity(bridge.segments.len() + 2);
    segs.push(r);
    segs.extend_from_slice(&bridge.segments);
    segs.push(s);
    Some(Route::new(segs))
}

/// Up to `k` shortest simple node paths between two vertices, each mapped
/// back to a [`Route`] via the cheapest segment per hop.
///
/// This drives the simulator's skewed route choice.
#[must_use]
pub fn k_shortest_routes(
    net: &RoadNetwork,
    source: NodeId,
    target: NodeId,
    k: usize,
    model: CostModel,
) -> Vec<(Route, f64)> {
    let g = net.to_digraph(model);
    g.k_shortest_paths(source.index(), target.index(), k)
        .into_iter()
        .filter_map(|GraphPath { nodes, cost }| {
            let mut segs = Vec::with_capacity(nodes.len().saturating_sub(1));
            for w in nodes.windows(2) {
                segs.push(net.cheapest_segment_between(
                    NodeId(w[0] as u32),
                    NodeId(w[1] as u32),
                    model,
                )?);
            }
            Some((Route::new(segs), cost))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::RoadClass;
    use hris_geo::{Point, Polyline};

    /// 3×3 grid with two-way 100 m streets.
    fn grid() -> RoadNetwork {
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
                    b.add_two_way(at(i, j), at(i + 1, j), shape, 10.0, RoadClass::Residential);
                }
                if j + 1 < 3 {
                    let shape = Polyline::straight(b.node(at(i, j)), b.node(at(i, j + 1)));
                    b.add_two_way(at(i, j), at(i, j + 1), shape, 10.0, RoadClass::Residential);
                }
            }
        }
        b.build()
    }

    #[test]
    fn shortest_path_grid_corners() {
        let net = grid();
        let p = shortest_path(&net, NodeId(0), NodeId(8), CostModel::Distance).unwrap();
        assert!((p.cost - 400.0).abs() < 1e-9);
        assert_eq!(p.segments.len(), 4);
        assert_eq!(p.nodes.first(), Some(&NodeId(0)));
        assert_eq!(p.nodes.last(), Some(&NodeId(8)));
        // Segment chain connects.
        assert!(p.route().is_connected(&net));
    }

    #[test]
    fn shortest_path_self() {
        let net = grid();
        let p = shortest_path(&net, NodeId(4), NodeId(4), CostModel::Time).unwrap();
        assert_eq!(p.cost, 0.0);
        assert!(p.segments.is_empty());
    }

    #[test]
    fn costs_from_all_reachable() {
        let net = grid();
        let d = shortest_costs_from(&net, NodeId(0), CostModel::Distance);
        assert!(d.iter().all(|c| c.is_finite()));
        assert!((d[8] - 400.0).abs() < 1e-9);
        assert_eq!(d[0], 0.0);
    }

    #[test]
    fn costs_within_bound() {
        let net = grid();
        let within = shortest_costs_within(&net, NodeId(0), CostModel::Distance, 150.0);
        // Node 0 itself + 2 direct neighbours at 100 m.
        assert_eq!(within.len(), 3);
        for &(_, c) in &within {
            assert!(c <= 150.0);
        }
    }

    #[test]
    fn route_between_adjacent_segments() {
        let net = grid();
        let r = net.out_segments(NodeId(0))[0];
        let s = net.next_segments(r)[0];
        let route = route_between_segments(&net, r, s, CostModel::Distance).unwrap();
        assert_eq!(route.segments().len(), 2);
        assert!(route.is_connected(&net));
        // Identity case.
        let same = route_between_segments(&net, r, r, CostModel::Distance).unwrap();
        assert_eq!(same.segments(), &[r]);
    }

    #[test]
    fn route_between_far_segments_is_connected() {
        let net = grid();
        let r = net.out_segments(NodeId(0))[0];
        let s = net
            .segments()
            .iter()
            .find(|s| s.to == NodeId(8))
            .unwrap()
            .id;
        let route = route_between_segments(&net, r, s, CostModel::Distance).unwrap();
        assert!(route.is_connected(&net));
        assert_eq!(route.segments().first(), Some(&r));
        assert_eq!(route.segments().last(), Some(&s));
    }

    #[test]
    fn k_shortest_routes_distinct_and_sorted() {
        let net = grid();
        let routes = k_shortest_routes(&net, NodeId(0), NodeId(8), 4, CostModel::Distance);
        assert!(routes.len() >= 2, "grid has many corner-to-corner paths");
        for w in routes.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        for (r, _) in &routes {
            assert!(r.is_connected(&net));
            assert_eq!(r.start_node(&net), Some(NodeId(0)));
            assert_eq!(net.segment(*r.segments().last().unwrap()).to, NodeId(8));
        }
        // All distinct.
        for i in 0..routes.len() {
            for j in (i + 1)..routes.len() {
                assert_ne!(routes[i].0, routes[j].0);
            }
        }
    }

    #[test]
    fn astar_matches_dijkstra_on_grid() {
        let net = grid();
        for (s, t) in [(0u32, 8u32), (4, 2), (6, 1), (3, 3)] {
            for model in [CostModel::Distance, CostModel::Time] {
                let d = shortest_path(&net, NodeId(s), NodeId(t), model).unwrap();
                let a = astar_path(&net, NodeId(s), NodeId(t), model).unwrap();
                assert!(
                    (d.cost - a.cost).abs() < 1e-9,
                    "{s}->{t}: dijkstra {} vs astar {}",
                    d.cost,
                    a.cost
                );
                assert!(a.route().is_connected(&net));
                assert_eq!(a.nodes.first(), Some(&NodeId(s)));
                assert_eq!(a.nodes.last(), Some(&NodeId(t)));
            }
        }
    }

    #[test]
    fn astar_on_generated_city() {
        let net = crate::generator::generate(&crate::NetworkConfig::small(19));
        let n = net.num_nodes() as u32;
        for k in 0..6 {
            let s = NodeId(k * 7 % n);
            let t = NodeId((k * 13 + 5) % n);
            let d = shortest_path(&net, s, t, CostModel::Distance).unwrap();
            let a = astar_path(&net, s, t, CostModel::Distance).unwrap();
            assert!((d.cost - a.cost).abs() < 1e-6, "{s}->{t}");
        }
    }

    #[test]
    fn disconnected_target_returns_none() {
        let mut b = RoadNetwork::builder();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        let d = b.add_node(Point::new(500.0, 0.0));
        b.add_straight_segment(a, c, 10.0, RoadClass::Residential);
        let _ = d; // isolated node
        let net = b.build();
        assert!(shortest_path(&net, a, d, CostModel::Distance).is_none());
    }
}
