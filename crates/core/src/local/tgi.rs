//! Traverse-Graph based Inference — Algorithm 1 of the paper.
//!
//! Nodes of the *traverse graph* are the road segments covered by some
//! reference (plus the query points' candidate edges, which serve as KSP
//! endpoints). A directed link `r → s` exists when `s` lies in `r`'s
//! λ-neighborhood (reachable in fewer than λ segment transitions,
//! Definition 8), weighted by the driving distance accumulated along the
//! hop path.
//!
//! Two subroutines make the algorithm practical:
//! - **Graph augmentation**: when the traverse graph is not strongly
//!   connected (sparse references, small λ), the closest node pairs across
//!   components are linked in both directions until it is — the `k = 1`
//!   connectivity-augmentation special case the paper reduces to a spanning
//!   construction.
//! - **Graph reduction**: a link `u → w` is transitively redundant when some
//!   intermediate `v` satisfies `h(u, w) = h(u, v) + h(v, w)`; removing
//!   redundant links keeps Yen's K-shortest-path search fast (Figure 11b).

use crate::local::{LocalStats, RefEdgeIndex};
use crate::params::HrisParams;
use hris_geo::Point;
use hris_roadnet::network::CandidateEdge;
use hris_roadnet::{
    tarjan_scc, CostModel, CsrView, DijkstraScratch, RoadNetwork, Route, SegmentId,
};

/// Runs TGI for one query pair. Returns candidate local routes and stats.
#[must_use]
pub fn tgi(
    net: &RoadNetwork,
    edge_index: &RefEdgeIndex,
    qi_cands: &[CandidateEdge],
    qj_cands: &[CandidateEdge],
    params: &HrisParams,
) -> (Vec<Route>, LocalStats) {
    let mut stats = LocalStats {
        algorithm: "TGI",
        ..LocalStats::default()
    };

    // --- node set: traverse edges + query candidate edges ----------------
    // Interned through the network's pooled segment table: a node's slot
    // holds its index, and the λ scan below probes the table's occupancy
    // bits for every neighborhood entry, which stay inside a few cache lines
    // where a u32 per segment would miss to L2 on nearly every lookup. The
    // table is cleared in time proportional to the nodes, not the network.
    let gamma = params.tgi_popularity_weight.max(0.0);
    let mut segs: Vec<SegmentId> = Vec::new();
    let mut edges = EdgeList::default();
    let (qi_nodes, qj_nodes) = net.with_segment_slots(|node_of| {
        let mut intern = |seg: SegmentId| -> usize {
            if !node_of.contains(seg.index()) {
                *node_of.slot(seg.index()) = segs.len() as u32;
                segs.push(seg);
            }
            node_of.get(seg.index()) as usize
        };
        for &seg in edge_index.traverse_edges() {
            intern(seg);
        }
        let mut endpoints = |cands: &[CandidateEdge]| -> Vec<usize> {
            let take = cands.iter().take(params.max_query_candidates);
            take.map(|c| intern(c.segment)).collect()
        };
        let (qi_nodes, qj_nodes) = (endpoints(qi_cands), endpoints(qj_cands));

        // --- links: λ-neighborhood hop search -----------------------------
        // Flat link list sorted by (u, v). Each λ-neighborhood lists a
        // target segment at most once, so every (u, v) pair is produced at
        // most once and the list needs no dedup — only a per-source sort by
        // target (the outer loop already emits sources in ascending order).
        // The weight is the driving distance along the hop path, discounted
        // by the coverage of the target segment (γ = `tgi_popularity_weight`;
        // 0 restores pure distance).
        for (u, &seg_u) in segs.iter().enumerate() {
            // The λ-neighborhood only depends on the immutable network, so
            // the hop search is answered by the network-level memo shared
            // across pairs and queries.
            let start = edges.links.len();
            let soa = net.lambda_neighborhood_soa(seg_u, params.lambda);
            for (k, &seg_v) in soa.segs.iter().enumerate() {
                let i = seg_v.index();
                if node_of.contains(i) {
                    let weight = soa.dists[k]
                        * (1.0 + gamma / (1.0 + edge_index.covering_count(seg_v) as f64));
                    edges.links.push(Link {
                        u: u as u32,
                        v: node_of.get(i),
                        hops: soa.hops[k] as usize,
                        weight,
                    });
                }
            }
            edges.links[start..].sort_unstable_by_key(|l| l.v);
        }
        (qi_nodes, qj_nodes)
    });
    stats.traverse_nodes = segs.len();
    if segs.is_empty() {
        return (Vec::new(), stats);
    }
    stats.traverse_edges_initial = edges.links.len();

    // --- augmentation: force strong connectivity --------------------------
    // Centroids go into a flat structure-of-arrays once (the arc-length
    // walk per segment geometry is the expensive part); the O(n²)
    // closest-pair scan then reads contiguous coordinates. Comparisons keep
    // the exact `Point::dist` values the per-comparison closure produced,
    // so tie-breaks are unchanged. Built lazily: the common strongly
    // connected case never needs them.
    let mut centroids: Option<CentroidSoA> = None;
    loop {
        let targets: Vec<u32> = edges.links.iter().map(|l| l.v).collect();
        let (comp, num_comps) = tarjan_scc(&edges.starts(segs.len()), &targets);
        if num_comps <= 1 {
            break;
        }
        let cents = centroids.get_or_insert_with(|| CentroidSoA::build(net, &segs));
        // Closest pair of nodes in different components.
        let mut best: Option<(usize, usize, f64)> = None;
        for u in 0..segs.len() {
            for v in (u + 1)..segs.len() {
                if comp[u] == comp[v] {
                    continue;
                }
                let d = cents.dist(u, v);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((u, v, d));
                }
            }
        }
        let Some((u, v, d)) = best else { break };
        // Two links, one per direction (paper's augmentation step). Large
        // hop count keeps them out of the reduction rule; the weight takes
        // the maximum (zero-coverage) popularity discount so augmentation
        // shortcuts never outcompete genuinely covered chains.
        let w = d * (1.0 + gamma);
        edges.insert_if_absent(u as u32, v as u32, usize::MAX / 4, w);
        edges.insert_if_absent(v as u32, u as u32, usize::MAX / 4, w);
        stats.augmentation_links += 2;
    }

    // --- reduction: drop transitively redundant links ---------------------
    if params.tgi_use_reduction {
        // A link is removed iff *some* intermediate decomposes it — the
        // removal set does not depend on scan order, so walking the sorted
        // list gives the same survivors as the old hash-map iteration.
        // Out-neighborhoods are contiguous runs of the sorted list; one
        // offsets pass makes every run lookup O(1).
        let starts = edges.starts(segs.len());
        let run = |u: u32| starts[u as usize] as usize..starts[u as usize + 1] as usize;
        // In-links `(source, hops)` grouped by target via counting sort;
        // within each target the sources come out ascending because the
        // link list itself is sorted by source. A link u → w decomposes
        // through v iff v appears in both u's out-run and w's in-run, so
        // the existence test is a merge walk over two sorted runs instead
        // of a binary search per out-neighbor.
        let mut in_starts = vec![0u32; segs.len() + 1];
        for l in &edges.links {
            in_starts[l.v as usize + 1] += 1;
        }
        for i in 0..segs.len() {
            in_starts[i + 1] += in_starts[i];
        }
        let mut cursor = in_starts.clone();
        let mut in_links: Vec<(u32, u32)> = vec![(0, 0); edges.links.len()];
        for l in &edges.links {
            let c = &mut cursor[l.v as usize];
            in_links[*c as usize] = (l.u, l.hops as u32);
            *c += 1;
        }
        let in_run = |w: u32| in_starts[w as usize] as usize..in_starts[w as usize + 1] as usize;
        let mut keep = vec![true; edges.links.len()];
        for (idx, l) in edges.links.iter().enumerate() {
            let (u, w, h_uw) = (l.u, l.v, l.hops);
            // A link of hop distance 1 can never decompose into two links
            // of hop distance ≥ 1 each — skip the bulk of the graph cheaply.
            if h_uw < 2 {
                continue;
            }
            let outs = &edges.links[run(u)];
            let ins = &in_links[in_run(w)];
            let (mut a, mut b) = (0usize, 0usize);
            while a < outs.len() && b < ins.len() {
                match outs[a].v.cmp(&ins[b].0) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        let v = outs[a].v;
                        let h_uv = outs[a].hops;
                        if v != w
                            && v != u
                            && h_uv < h_uw
                            && h_uv.saturating_add(ins[b].1 as usize) == h_uw
                        {
                            keep[idx] = false;
                            break;
                        }
                        a += 1;
                        b += 1;
                    }
                }
            }
        }
        let mut idx = 0;
        edges.links.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }
    stats.traverse_edges_final = edges.links.len();

    // --- K shortest paths between every endpoint pair ---------------------
    // One view + scratch serves every endpoint pair's Yen run; the links are
    // sorted by (u, v), so that is each node's edge order.
    let csr = CsrView::new(segs.len(), edges.links.iter().map(|l| (l.u, l.v, l.weight)));
    let mut scratch = DijkstraScratch::for_nodes(segs.len());
    let mut routes = Vec::new();
    for &src in &qi_nodes {
        for &dst in &qj_nodes {
            for path in csr.k_shortest_paths_with(&mut scratch, src, dst, params.k1) {
                if let Some(route) = project_path(net, &segs, &path.nodes) {
                    routes.push(route);
                }
            }
        }
    }
    (routes, stats)
}

/// Traverse-node centroids in structure-of-arrays layout: the arc-length
/// midpoint walk per geometry happens once per node, and the closest-pair
/// scan reads two flat coordinate arrays.
struct CentroidSoA {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl CentroidSoA {
    fn build(net: &RoadNetwork, segs: &[SegmentId]) -> Self {
        let mut xs = Vec::with_capacity(segs.len());
        let mut ys = Vec::with_capacity(segs.len());
        for &seg in segs {
            let g = &net.segment(seg).geometry;
            let c = g.point_at(g.length() / 2.0);
            xs.push(c.x);
            ys.push(c.y);
        }
        CentroidSoA { xs, ys }
    }

    /// `Point::dist` of two centroids — same operations, same rounding,
    /// same tie behaviour as computing the points on the fly.
    #[inline]
    fn dist(&self, u: usize, v: usize) -> f64 {
        Point::new(self.xs[u], self.ys[u]).dist(Point::new(self.xs[v], self.ys[v]))
    }
}

/// One traverse-graph link `u → v` with its hop distance and weight.
struct Link {
    u: u32,
    v: u32,
    hops: usize,
    weight: f64,
}

/// Traverse-graph links kept sorted by `(u, v)` — out-neighborhoods are
/// contiguous runs, membership is a binary search, and the list is already
/// a CSR.
#[derive(Default)]
struct EdgeList {
    links: Vec<Link>,
}

impl EdgeList {
    /// Inserts `u → v` unless the link already exists (augmentation step).
    fn insert_if_absent(&mut self, u: u32, v: u32, hops: usize, weight: f64) {
        if let Err(pos) = self.links.binary_search_by(|l| (l.u, l.v).cmp(&(u, v))) {
            self.links.insert(pos, Link { u, v, hops, weight });
        }
    }

    /// CSR offsets over `n` nodes: `starts[u]..starts[u + 1]` indexes
    /// `u`'s out-links.
    fn starts(&self, n: usize) -> Vec<u32> {
        let mut starts = vec![0u32; n + 1];
        for l in &self.links {
            starts[l.u as usize + 1] += 1;
        }
        for u in 0..n {
            starts[u + 1] += starts[u];
        }
        starts
    }
}

/// Projects a traverse-graph path (sequence of segments) to a physical
/// route by bridging consecutive segments with network shortest paths
/// (Algorithm 1, line 14).
fn project_path(net: &RoadNetwork, segs: &[SegmentId], nodes: &[usize]) -> Option<Route> {
    let mut route = Route::new(vec![segs[*nodes.first()?]]);
    for w in nodes.windows(2) {
        let prev = *route.segments().last().expect("non-empty");
        let next = segs[w[1]];
        if prev == next {
            continue;
        }
        let bridge = net
            .sp_oracle()
            .route_between(prev, next, CostModel::Distance)?;
        for &s in &bridge.segments()[1..] {
            route.push(s);
        }
    }
    Some(route)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{RefKind, RefTrajectory, ReferenceSet};
    use hris_geo::Point;
    use hris_roadnet::{generator, NetworkConfig};
    use hris_traj::{GpsPoint, TrajId};

    fn net() -> RoadNetwork {
        generator::generate(&NetworkConfig {
            jitter_frac: 0.0,
            curve_frac: 0.0,
            removal_frac: 0.0,
            oneway_frac: 0.0,
            ..NetworkConfig::small(2)
        })
    }

    /// References along the y = 0 corridor from x=0 to x=1000.
    fn corridor_refs(net: &RoadNetwork, count: u32) -> ReferenceSet {
        let refs = (0..count)
            .map(|id| {
                let points = (0..12)
                    .map(|k| {
                        let x = 1000.0 * k as f64 / 11.0;
                        let snapped = net.nearest_segment(Point::new(x, 0.0)).unwrap().closest;
                        GpsPoint::new(snapped, k as f64 * 20.0)
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
        let refs = corridor_refs(net, 3);
        let idx = RefEdgeIndex::build(net, &refs, params.candidate_eps_m);
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(1000.0, 0.0), 80.0);
        assert!(!qi.is_empty() && !qj.is_empty());
        tgi(net, &idx, &qi, &qj, params)
    }

    #[test]
    fn produces_connected_routes_along_corridor() {
        let net = net();
        let (routes, stats) = run(&net, &HrisParams::default());
        assert!(!routes.is_empty());
        assert!(stats.traverse_nodes > 0);
        for r in &routes {
            assert!(r.is_connected(&net));
        }
        // The best route should track the corridor: its polyline must stay
        // near y = 0 at the midpoint.
        let best = &routes[0];
        let pl = best.polyline(&net).unwrap();
        let mid = pl.point_at(pl.length() / 2.0);
        assert!(mid.y.abs() < 450.0, "mid {mid}");
    }

    #[test]
    fn reduction_removes_edges() {
        let net = net();
        let with = run(
            &net,
            &HrisParams {
                tgi_use_reduction: true,
                lambda: 5,
                ..HrisParams::default()
            },
        )
        .1;
        let without = run(
            &net,
            &HrisParams {
                tgi_use_reduction: false,
                lambda: 5,
                ..HrisParams::default()
            },
        )
        .1;
        assert_eq!(with.traverse_edges_initial, without.traverse_edges_initial);
        assert!(with.traverse_edges_final < with.traverse_edges_initial);
        assert_eq!(without.traverse_edges_final, without.traverse_edges_initial);
    }

    #[test]
    fn reduction_preserves_routes_existence() {
        let net = net();
        let (with, _) = run(&net, &HrisParams::default());
        let (without, _) = run(
            &net,
            &HrisParams {
                tgi_use_reduction: false,
                ..HrisParams::default()
            },
        );
        assert!(!with.is_empty());
        assert!(!without.is_empty());
    }

    #[test]
    fn no_references_yields_empty() {
        let net = net();
        let idx = RefEdgeIndex::default();
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(1000.0, 0.0), 80.0);
        let (routes, stats) = tgi(&net, &idx, &qi, &qj, &HrisParams::default());
        // Only the query candidates are in the graph; augmentation links
        // them, so a route may still emerge — but with zero references the
        // caller (pipeline) falls back before calling TGI. Here we only
        // assert it does not panic and stats are consistent.
        assert!(stats.traverse_nodes >= 1);
        for r in &routes {
            assert!(r.is_connected(&net));
        }
    }

    #[test]
    fn lambda_neighborhood_dist_monotone_in_lambda() {
        let net = net();
        let seg = net.segments()[10].id;
        let n2 = net.lambda_neighborhood_with_dist(seg, 2);
        let n4 = net.lambda_neighborhood_with_dist(seg, 4);
        assert!(n4.len() > n2.len());
        for (s, h, d) in &n2 {
            assert!(*h == 1);
            assert!(*d > 0.0);
            assert!(n4.iter().any(|(s4, _, _)| s4 == s));
        }
    }

    #[test]
    fn augmentation_links_disconnected_components() {
        let net = net();
        // Two far-apart references with tiny λ produce a disconnected
        // traverse graph → augmentation must kick in.
        let mk = |x0: f64, id: u32| {
            let points = (0..4)
                .map(|k| {
                    let snapped = net
                        .nearest_segment(Point::new(x0 + k as f64 * 30.0, 0.0))
                        .unwrap()
                        .closest;
                    GpsPoint::new(snapped, k as f64 * 10.0)
                })
                .collect();
            RefTrajectory {
                kind: RefKind::Simple,
                sources: vec![TrajId(id)],
                points,
            }
        };
        let refs = ReferenceSet {
            refs: vec![mk(0.0, 0), mk(1200.0, 1)],
        };
        let params = HrisParams {
            lambda: 2,
            ..HrisParams::default()
        };
        let idx = RefEdgeIndex::build(&net, &refs, params.candidate_eps_m);
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(1300.0, 0.0), 80.0);
        let (_, stats) = tgi(&net, &idx, &qi, &qj, &params);
        assert!(stats.augmentation_links > 0);
    }
}
