//! Property-based tests for graph algorithms and the network generator.

use hris_roadnet::{
    generator, CostModel, CsrView, DijkstraScratch, NetworkConfig, NodeId, RoadNetwork, SegmentId,
};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// Random digraph over `n` nodes as an edge list, without self-loops.
fn digraph_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (2u32..12).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n, 0.1..100.0f64), 0..60).prop_map(move |edges| {
            let edges = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
            (n as usize, edges)
        })
    })
}

fn csr(n: usize, edges: &[(u32, u32, f64)]) -> CsrView {
    CsrView::new(n, edges.iter().copied())
}

/// Cost of a node sequence, cheapest parallel edge per hop (∞ for a
/// missing hop), folded source first.
fn path_cost(edges: &[(u32, u32, f64)], nodes: &[usize]) -> f64 {
    nodes.windows(2).fold(0.0, |cost, w| {
        let hop = edges
            .iter()
            .filter(|&&(u, v, _)| (u as usize, v as usize) == (w[0], w[1]))
            .map(|&(_, _, c)| c)
            .fold(f64::INFINITY, f64::min);
        cost + hop
    })
}

/// The nodes reachable from `source`, by breadth-first search.
fn reachable_from(n: usize, edges: &[(u32, u32, f64)], source: usize) -> Vec<bool> {
    let mut seen = vec![false; n];
    seen[source] = true;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for &(a, b, _) in edges {
            if a as usize == u && !seen[b as usize] {
                seen[b as usize] = true;
                queue.push_back(b as usize);
            }
        }
    }
    seen
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ksp_first_path_is_dijkstra((n, edges) in digraph_strategy(), k in 1usize..6) {
        let g = csr(n, &edges);
        let (s, t) = (0, n - 1);
        let paths = g.k_shortest_paths_with(&mut DijkstraScratch::default(), s, t, k);
        let mut scratch = DijkstraScratch::default();
        match g.shortest_path_avoiding_with(&mut scratch, s, t, &[], &[]) {
            None => prop_assert!(paths.is_empty()),
            Some(best) => {
                prop_assert!(!paths.is_empty());
                prop_assert!((paths[0].cost - best.cost).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ksp_sorted_simple_distinct((n, edges) in digraph_strategy(), k in 1usize..8) {
        let g = csr(n, &edges);
        let paths = g.k_shortest_paths_with(&mut DijkstraScratch::default(), 0, n - 1, k);
        prop_assert!(paths.len() <= k);
        for w in paths.windows(2) {
            prop_assert!(w[0].cost <= w[1].cost + 1e-9);
        }
        let mut seen_paths = HashSet::new();
        for p in &paths {
            // Simple (loopless).
            let mut seen = HashSet::new();
            for &nd in &p.nodes {
                prop_assert!(seen.insert(nd));
            }
            // Distinct.
            prop_assert!(seen_paths.insert(p.nodes.clone()));
            // Cost is consistent with the edges.
            prop_assert!((path_cost(&edges, &p.nodes) - p.cost).abs() < 1e-6);
            // Endpoints correct.
            prop_assert_eq!(*p.nodes.first().unwrap(), 0);
            prop_assert_eq!(*p.nodes.last().unwrap(), n - 1);
        }
    }

    #[test]
    fn scc_is_an_equivalence_over_mutual_reachability((n, edges) in digraph_strategy()) {
        let (comp, count) = csr(n, &edges).components();
        prop_assert_eq!(count, comp.iter().collect::<HashSet<_>>().len());
        // Mutual reachability oracle via BFS.
        let reach: Vec<Vec<bool>> = (0..n).map(|s| reachable_from(n, &edges, s)).collect();
        for u in 0..n {
            for v in 0..n {
                let mutual = reach[u][v] && reach[v][u];
                prop_assert_eq!(comp[u] == comp[v], mutual, "u={} v={}", u, v);
            }
        }
    }

    #[test]
    fn generated_networks_strongly_connected(seed in 0u64..40, removal in 0.0..0.3f64, oneway in 0.0..0.3f64) {
        let cfg = NetworkConfig {
            blocks_x: 5,
            blocks_y: 5,
            block_m: 150.0,
            removal_frac: removal,
            oneway_frac: oneway,
            seed,
            ..NetworkConfig::small(seed)
        };
        let net = generator::generate(&cfg);
        prop_assert!(net.is_strongly_connected());
        // Every shortest path between random nodes exists and is connected.
        let a = NodeId((seed % net.num_nodes() as u64) as u32);
        let b = NodeId(((seed * 7 + 3) % net.num_nodes() as u64) as u32);
        let p = hris_roadnet::shortest::shortest_path(&net, a, b, CostModel::Distance);
        prop_assert!(p.is_some());
        let p = p.unwrap();
        prop_assert!(p.route().is_connected(&net));
    }

    #[test]
    fn without_loops_is_idempotent_and_node_simple(
        seed in 0u64..20,
        walk in prop::collection::vec(0usize..4, 1..40),
    ) {
        let net = generator::generate(&NetworkConfig {
            blocks_x: 4,
            blocks_y: 4,
            removal_frac: 0.0,
            oneway_frac: 0.0,
            ..NetworkConfig::small(seed)
        });
        // Build a random connected walk (may backtrack and loop freely).
        let mut segs = vec![net.segments()[seed as usize % net.num_segments()].id];
        for &choice in &walk {
            let nexts = net.next_segments(*segs.last().unwrap());
            if nexts.is_empty() {
                break;
            }
            segs.push(nexts[choice % nexts.len()]);
        }
        let route = hris_roadnet::Route::new(segs);
        prop_assert!(route.is_connected(&net));
        let clean = route.without_loops(&net);
        // Idempotent.
        prop_assert_eq!(clean.without_loops(&net), clean.clone());
        // Still connected, never longer.
        prop_assert!(clean.is_connected(&net));
        prop_assert!(clean.length(&net) <= route.length(&net) + 1e-9);
        // Node-simple: no vertex visited twice.
        if !clean.is_empty() {
            let mut nodes = vec![net.segment(clean.segments()[0]).from];
            for &s in clean.segments() {
                nodes.push(net.segment(s).to);
            }
            let unique: std::collections::HashSet<_> = nodes.iter().collect();
            prop_assert_eq!(unique.len(), nodes.len(), "visited {:?}", nodes);
        }
        // Start vertex preserved — unless the whole walk collapsed into one
        // loop, in which case the clean route is legitimately empty.
        if !clean.is_empty() {
            prop_assert_eq!(clean.start_node(&net), route.start_node(&net));
        }
    }

    #[test]
    fn lambda_neighborhood_matches_pairwise_hops(seed in 0u64..20, lambda in 2usize..5) {
        let net = generator::generate(&NetworkConfig {
            blocks_x: 4,
            blocks_y: 4,
            ..NetworkConfig::small(seed)
        });
        let r = net.segments()[seed as usize % net.num_segments()].id;
        for (s, h) in net.lambda_neighborhood(r, lambda) {
            prop_assert!(h < lambda);
            prop_assert_eq!(segment_hops(&net, r, s), Some(h));
        }
    }
}
