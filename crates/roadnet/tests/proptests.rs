//! Property-based tests for graph algorithms and the network generator.

use hris_roadnet::digraph::DiGraph;
use hris_roadnet::{generator, CostModel, NetworkConfig, NodeId, RoadNetwork, SegmentId};
use proptest::prelude::*;
use std::collections::HashSet;

/// Random digraph as an edge list over `n` nodes.
fn digraph_strategy() -> impl Strategy<Value = DiGraph> {
    (2usize..12).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n, 0.1..100.0f64), 0..60).prop_map(move |edges| {
            let mut g = DiGraph::with_nodes(n);
            for (u, v, w) in edges {
                if u != v {
                    g.add_edge(u, v, w);
                }
            }
            g
        })
    })
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
    fn ksp_first_path_is_dijkstra(g in digraph_strategy(), k in 1usize..6) {
        let n = g.num_nodes();
        let (s, t) = (0, n - 1);
        let paths = g.k_shortest_paths(s, t, k);
        match g.shortest_path(s, t) {
            None => prop_assert!(paths.is_empty()),
            Some(best) => {
                prop_assert!(!paths.is_empty());
                prop_assert!((paths[0].cost - best.cost).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ksp_sorted_simple_distinct(g in digraph_strategy(), k in 1usize..8) {
        let n = g.num_nodes();
        let paths = g.k_shortest_paths(0, n - 1, k);
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
            prop_assert!((g.path_cost(&p.nodes) - p.cost).abs() < 1e-6);
            // Endpoints correct.
            prop_assert_eq!(*p.nodes.first().unwrap(), 0);
            prop_assert_eq!(*p.nodes.last().unwrap(), n - 1);
        }
    }

    #[test]
    fn scc_is_an_equivalence_over_mutual_reachability(g in digraph_strategy()) {
        let comp = g.tarjan_scc();
        let n = g.num_nodes();
        // Mutual reachability oracle via Dijkstra.
        let reach: Vec<Vec<bool>> = (0..n)
            .map(|s| g.dijkstra(s).0.iter().map(|d| d.is_finite()).collect())
            .collect();
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
    fn astar_equals_dijkstra(seed in 0u64..30, s in 0u32..36, t in 0u32..36) {
        let net = generator::generate(&NetworkConfig {
            blocks_x: 5,
            blocks_y: 5,
            ..NetworkConfig::small(seed)
        });
        let n = net.num_nodes() as u32;
        let (s, t) = (NodeId(s % n), NodeId(t % n));
        for model in [CostModel::Distance, CostModel::Time] {
            let d = hris_roadnet::shortest::shortest_path(&net, s, t, model);
            let a = hris_roadnet::shortest::astar_path(&net, s, t, model);
            match (d, a) {
                (Some(d), Some(a)) => prop_assert!((d.cost - a.cost).abs() < 1e-6),
                (None, None) => {}
                _ => prop_assert!(false, "reachability disagreement"),
            }
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
