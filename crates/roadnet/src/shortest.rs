//! Shortest paths over the road network, with segment recovery: the
//! reference; no production caller.
//!
//! Every production search runs on [`SpOracle`](crate::SpOracle) (road
//! network) or [`CsrView`](crate::CsrView) (traverse graph). These
//! textbook adjacency-list searches are what the differential suites
//! compare the oracle against, so they share only the cost model and the
//! crate's `(cost, node)` heap order with it.

use crate::digraph::HeapItem;
use crate::ids::{NodeId, SegmentId};
use crate::network::{CostModel, RoadNetwork};
use crate::oracle::PathResult;
use crate::route::Route;
use std::collections::BinaryHeap;

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

/// One-to-many Dijkstra: costs from `source` to every vertex (∞ when
/// unreachable).
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

/// Bounded one-to-many Dijkstra: stops expanding past `max_cost`. Each
/// reached node appears once, with its final label, in settling order.
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
/// The reference for [`SpOracle::route_between`](crate::SpOracle::route_between).
/// Returns `None` when `s` is unreachable from `r`. When `r == s` the route
/// is just `[r]`.
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
