//! Weighted digraphs in CSR form and the path algorithms HRIS runs on them.
//!
//! Both the physical road graph and the *conceptual* traverse graph of the
//! TGI algorithm (Definition 9) are digraphs; this module supplies the shared
//! machinery: [`CsrView`] with Dijkstra and Yen's K-shortest **simple**
//! paths, Tarjan's strongly-connected components over any forward CSR
//! ([`tarjan_scc`], used by the graph-augmentation subroutine of
//! Algorithm 1 and by the shortest-path oracle), and the one heap order and
//! the one scratch every Dijkstra in the crate shares.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A weighted digraph over nodes `0..n` in compressed-sparse-row form.
///
/// Yen's algorithm runs dozens of spur Dijkstras against one unchanging
/// graph; scanning three contiguous arrays beats chasing a `Vec` per node.
/// Each node's out-edges keep the order they were given in, so relaxation
/// order — and hence heap tie behaviour — follows the input order.
///
/// The view also carries the reversed adjacency (in-edges per node), which
/// Yen's spur pruning walks once per call to bound every node's cost to the
/// target.
#[derive(Debug, Clone)]
pub struct CsrView {
    /// `starts[u]..starts[u + 1]` indexes `targets`/`weights` for node `u`.
    starts: Vec<u32>,
    /// Edge target nodes.
    targets: Vec<u32>,
    /// Edge weights, parallel to `targets`.
    weights: Vec<f64>,
    /// `rev_starts[v]..rev_starts[v + 1]` indexes `rev_sources`/`rev_weights`
    /// for the edges into node `v`.
    rev_starts: Vec<u32>,
    /// In-edge source nodes.
    rev_sources: Vec<u32>,
    /// In-edge weights, parallel to `rev_sources`.
    rev_weights: Vec<f64>,
}

/// Relative slack of Yen's spur prune: a spur is skipped only when its
/// lower bound exceeds the cutoff by more than this fraction, which absorbs
/// the rounding of summing the same weights in a different order.
const PRUNE_SLACK: f64 = 1e-9;

/// Stable counting sort of `(key, value, weight)` triples by `key`: CSR
/// offsets over `0..n`, then the values and weights grouped by key, each
/// group in input order. O(n + edges).
///
/// # Panics
/// Panics when a key or value is not below `n`, or a weight is negative or
/// non-finite (Dijkstra's precondition).
fn group_by_key(
    n: usize,
    edges: impl Iterator<Item = (u32, u32, f64)> + Clone,
) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
    let mut starts = vec![0u32; n + 1];
    for (u, v, w) in edges.clone() {
        assert!(
            (u as usize) < n && (v as usize) < n,
            "endpoint out of range"
        );
        assert!(
            w >= 0.0 && w.is_finite(),
            "edge weight must be finite and non-negative, got {w}"
        );
        starts[u as usize + 1] += 1;
    }
    for u in 0..n {
        starts[u + 1] += starts[u];
    }
    let mut next = starts[..n].to_vec();
    let mut values = vec![0u32; starts[n] as usize];
    let mut weights = vec![0.0; starts[n] as usize];
    for (u, v, w) in edges {
        let slot = &mut next[u as usize];
        values[*slot as usize] = v;
        weights[*slot as usize] = w;
        *slot += 1;
    }
    (starts, values, weights)
}

impl CsrView {
    /// Builds the view over `n` nodes from `(u, v, weight)` edges in any
    /// order: a stable counting sort by source, so each node's out-edges
    /// keep their input order. O(V + E).
    ///
    /// # Panics
    /// Panics when an endpoint is out of range or a weight is negative or
    /// non-finite.
    #[must_use]
    pub fn new(n: usize, edges: impl Iterator<Item = (u32, u32, f64)> + Clone) -> Self {
        let (starts, targets, weights) = group_by_key(n, edges);
        // In-edges grouped by target; within a target, by source.
        let (s, t, w) = (&starts, &targets, &weights);
        let reversed = (0..n)
            .flat_map(|u| (s[u] as usize..s[u + 1] as usize).map(move |e| (t[e], u as u32, w[e])));
        let (rev_starts, rev_sources, rev_weights) = group_by_key(n, reversed);
        CsrView {
            starts,
            targets,
            weights,
            rev_starts,
            rev_sources,
            rev_weights,
        }
    }

    /// Number of nodes in the view.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.starts.len() - 1
    }

    /// Each node's strongly-connected component and the number of
    /// components ([`tarjan_scc`] over the view).
    #[must_use]
    pub fn components(&self) -> (Vec<u32>, usize) {
        tarjan_scc(&self.starts, &self.targets)
    }

    /// `true` if every node can reach every other (vacuously true when
    /// empty or single-node).
    #[must_use]
    pub fn is_strongly_connected(&self) -> bool {
        self.components().1 <= 1
    }

    /// Cost of hop `u → v`: the cheapest parallel edge, scanned in edge
    /// order; `f64::INFINITY` when no such edge exists.
    #[inline]
    fn hop_cost(&self, u: usize, v: usize) -> f64 {
        let mut best = f64::INFINITY;
        for e in self.starts[u] as usize..self.starts[u + 1] as usize {
            if self.targets[e] as usize == v && self.weights[e].total_cmp(&best) == Ordering::Less {
                best = self.weights[e];
            }
        }
        best
    }

    /// Dijkstra from `source` to `target` avoiding `banned_nodes_list` and
    /// `banned_edges` (`(u, v)` pairs banning every parallel edge between
    /// them), reusing caller-owned scratch: the spur-path primitive of Yen's
    /// algorithm.
    #[must_use]
    pub fn shortest_path_avoiding_with(
        &self,
        scratch: &mut DijkstraScratch,
        source: usize,
        target: usize,
        banned_nodes_list: &[usize],
        banned_edges: &[(usize, usize)],
    ) -> Option<GraphPath> {
        let n = self.num_nodes();
        if source >= n || target >= n {
            return None;
        }
        scratch.begin(n);
        for &b in banned_nodes_list {
            if b < n {
                scratch.ban(b);
            }
        }
        if scratch.banned(source) || scratch.banned(target) {
            return None;
        }
        scratch.relax(source, 0.0, u32::MAX);
        scratch.heap.push(HeapItem {
            cost: 0.0,
            node: source,
        });
        while let Some(HeapItem { cost, node }) = scratch.heap.pop() {
            if cost > scratch.dist(node) {
                continue;
            }
            if node == target {
                break;
            }
            for e in self.starts[node] as usize..self.starts[node + 1] as usize {
                let v = self.targets[e] as usize;
                let nd = cost + self.weights[e];
                // Target-bound prune: with non-negative weights, a label
                // strictly beyond the target's current one can never sit on
                // the path reconstructed below (equal labels may, through
                // zero-weight hops, so they pass). Output-identical to the
                // unpruned search.
                if nd > scratch.dist(target) {
                    continue;
                }
                if scratch.banned(v) || banned_edges.contains(&(node, v)) {
                    continue;
                }
                if nd < scratch.dist(v) {
                    scratch.relax(v, nd, node as u32);
                    scratch.heap.push(HeapItem { cost: nd, node: v });
                }
            }
        }
        if !scratch.dist(target).is_finite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut cur = target;
        while cur != source {
            cur = scratch.prev(cur) as usize;
            nodes.push(cur);
        }
        nodes.reverse();
        Some(GraphPath {
            nodes,
            cost: scratch.dist(target),
        })
    }

    /// Yen's algorithm over the view, reusing caller-owned scratch: up to
    /// `k` shortest **simple** (loopless) paths from `source` to `target`,
    /// in non-decreasing cost order. Callers running Yen for many endpoint
    /// pairs of one graph should build the view and scratch once.
    ///
    /// Spur searches that provably cannot reach the top `k` are skipped:
    /// one reverse Dijkstra from `target` gives `h[v]`, a lower bound on
    /// every `v → target` cost, and a spur whose root cost plus cheapest
    /// admissible first hop `w(s, v) + h[v]` exceeds `T`, the cost of the
    /// `needed`-th cheapest candidate (by more than `PRUNE_SLACK`), is never
    /// run. The output equals the unpruned algorithm's, ties included
    /// (DESIGN §5h has the argument). `T` never rises, so a path costlier
    /// than `T` is never extracted; a skipped spur could only add such a
    /// candidate. Candidates also ban edges in later spurs and suppress
    /// duplicates, but a costlier-than-`T` candidate only bans edges every
    /// path through which costs more than `T` too. So the two runs' spurs
    /// differ only by edges off every cheaper path, and the `(cost, node)`
    /// heap order makes a spur return the same path whatever those edges
    /// add to the heap. Extraction takes the first of the cheapest from a
    /// cost-sorted list, where the entries up to `T` stand in the same
    /// order in both runs.
    #[must_use]
    pub fn k_shortest_paths_with(
        &self,
        scratch: &mut DijkstraScratch,
        source: usize,
        target: usize,
        k: usize,
    ) -> Vec<GraphPath> {
        if k == 0 {
            return Vec::new();
        }
        let Some(first) = self.shortest_path_avoiding_with(scratch, source, target, &[], &[])
        else {
            return Vec::new();
        };
        if source == target || k == 1 {
            return vec![first];
        }
        // Borrowed out of the scratch for the call so the spur searches can
        // take `scratch` mutably; capacity survives across calls.
        let mut to_target = std::mem::take(&mut scratch.to_target);
        let mut banned_edges = std::mem::take(&mut scratch.banned_edges);
        self.reverse_dists(scratch, target, &mut to_target);

        let mut accepted: Vec<GraphPath> = vec![first];
        // Candidates sorted by cost, equal costs in insertion order, so the
        // extracted one is the first of the cheapest whatever was skipped.
        let mut candidates: Vec<GraphPath> = Vec::new();

        while accepted.len() < k {
            let needed = k - accepted.len();
            let last = &accepted[accepted.len() - 1];
            // Running prefix cost: extended hop by hop with the same
            // left-to-right additions a path-cost fold would perform, so
            // every spur sees bit-identical root costs.
            let mut root_cost = 0.0;
            for i in 0..last.nodes.len() - 1 {
                let spur_node = last.nodes[i];
                let root = &last.nodes[..=i];

                // Ban edges leaving the spur node that previous accepted paths
                // with the same root already use.
                banned_edges.clear();
                for p in accepted.iter().chain(candidates.iter()) {
                    if p.nodes.len() > i && p.nodes[..=i] == *root {
                        banned_edges.push((p.nodes[i], p.nodes[i + 1]));
                    }
                }
                // Ban root nodes except the spur node (loopless requirement).
                let banned_nodes = &root[..i];

                // Cheapest admissible first hop plus its bound to the target.
                let mut hop_bound = f64::INFINITY;
                for e in self.starts[spur_node] as usize..self.starts[spur_node + 1] as usize {
                    let v = self.targets[e] as usize;
                    if !root.contains(&v) && !banned_edges.contains(&(spur_node, v)) {
                        hop_bound = hop_bound.min(self.weights[e] + to_target[v]);
                    }
                }
                let bound = root_cost + hop_bound;
                // Cost of the `needed`-th cheapest candidate (∞ while there
                // are fewer): nothing costlier is extracted before the end.
                let cutoff = candidates.get(needed - 1).map_or(f64::INFINITY, |c| c.cost);
                if bound <= cutoff * (1.0 + PRUNE_SLACK) {
                    if let Some(spur) = self.shortest_path_avoiding_with(
                        scratch,
                        spur_node,
                        target,
                        banned_nodes,
                        &banned_edges,
                    ) {
                        let mut nodes = root.to_vec();
                        nodes.extend_from_slice(&spur.nodes[1..]);
                        let total = GraphPath {
                            cost: root_cost + spur.cost,
                            nodes,
                        };
                        debug_assert!(
                            bound <= total.cost * (1.0 + PRUNE_SLACK),
                            "spur bound {bound} above the path it bounds ({})",
                            total.cost
                        );
                        if !candidates.iter().any(|c| c.nodes == total.nodes)
                            && !accepted.iter().any(|a| a.nodes == total.nodes)
                        {
                            let at = candidates.partition_point(|c| {
                                c.cost.total_cmp(&total.cost) != Ordering::Greater
                            });
                            candidates.insert(at, total);
                        }
                    }
                }

                // Extend the prefix by hop (nodes[i], nodes[i+1]) — the
                // cheapest parallel edge.
                root_cost += self.hop_cost(last.nodes[i], last.nodes[i + 1]);
            }
            if candidates.is_empty() {
                break;
            }
            accepted.push(candidates.remove(0));
        }
        scratch.to_target = to_target;
        scratch.banned_edges = banned_edges;
        accepted
    }

    /// Fills `dist[v]` with the cost of the cheapest `v → target` path (∞
    /// when none): one Dijkstra from `target` over the reversed edges.
    fn reverse_dists(&self, scratch: &mut DijkstraScratch, target: usize, dist: &mut Vec<f64>) {
        dist.clear();
        dist.resize(self.num_nodes(), f64::INFINITY);
        dist[target] = 0.0;
        scratch.heap.clear();
        scratch.heap.push(HeapItem {
            cost: 0.0,
            node: target,
        });
        while let Some(HeapItem { cost, node }) = scratch.heap.pop() {
            if cost > dist[node] {
                continue;
            }
            for e in self.rev_starts[node] as usize..self.rev_starts[node + 1] as usize {
                let u = self.rev_sources[e] as usize;
                let nd = cost + self.rev_weights[e];
                if nd < dist[u] {
                    dist[u] = nd;
                    scratch.heap.push(HeapItem { cost: nd, node: u });
                }
            }
        }
    }
}

/// Tarjan's strongly-connected components (iterative) of the forward CSR
/// `starts`/`targets`: `starts[u]..starts[u + 1]` indexes `u`'s targets.
///
/// Returns each node's component and the number of components. Component
/// indices are in reverse topological order of the condensation: every
/// cross-component edge `u → v` has `comp[v] < comp[u]`.
#[must_use]
pub fn tarjan_scc(starts: &[u32], targets: &[u32]) -> (Vec<u32>, usize) {
    let n = starts.len() - 1;
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![u32::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut comp_count = 0usize;
    // Explicit DFS stack: (node, next edge to scan).
    let mut dfs: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        dfs.push((start, starts[start] as usize));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (u, ref mut edge)) = dfs.last_mut() {
            if *edge < starts[u + 1] as usize {
                let v = targets[*edge] as usize;
                *edge += 1;
                if index[v] == usize::MAX {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    dfs.push((v, starts[v] as usize));
                } else if on_stack[v] {
                    low[u] = low[u].min(index[v]);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    low[parent] = low[parent].min(low[u]);
                }
                if low[u] == index[u] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp[w] = comp_count as u32;
                        if w == u {
                            break;
                        }
                    }
                    comp_count += 1;
                }
            }
        }
    }
    (comp, comp_count)
}

/// A path through a [`CsrView`]: node sequence plus total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphPath {
    /// Visited nodes, source first.
    pub nodes: Vec<usize>,
    /// Sum of edge weights along the path.
    pub cost: f64,
}

/// A Dijkstra heap entry: the one heap order of every search in the crate.
#[derive(Debug, PartialEq)]
pub(crate) struct HeapItem {
    pub(crate) cost: f64,
    pub(crate) node: usize,
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
/// Min-heap order on `(cost, node)`: equal costs pop the lower node first,
/// so the pop order never depends on the heap's internal layout.
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Reusable, epoch-stamped Dijkstra working state: the one scratch of every
/// search in the crate.
///
/// `dist`/`prev` entries (and bans) are only valid where their stamp equals
/// the current epoch, so starting a run is one counter increment instead of
/// an O(V) fill, and a run on recycled buffers is indistinguishable from one
/// on fresh allocations (pinned by `scratch_reuse_matches_fresh` below and
/// by the oracle's differential suite). `prev` holds a node for
/// [`CsrView`] and a segment for the shortest-path oracle.
///
/// Yen's algorithm performs one spur Dijkstra per (accepted path, spur
/// node) pair — dozens per call — so its per-call buffers live here too, as
/// does the oracle's tree-path stack.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    prev: Vec<u32>,
    stamp: Vec<u32>,
    banned_stamp: Vec<u32>,
    epoch: u32,
    pub(crate) heap: BinaryHeap<HeapItem>,
    /// Yen's per-call bound on every node's cost to the target.
    to_target: Vec<f64>,
    /// Yen's per-spur banned edges.
    banned_edges: Vec<(usize, usize)>,
    /// The oracle's tree path, target first.
    pub(crate) path: Vec<u32>,
}

impl DijkstraScratch {
    /// Scratch pre-sized for `n` nodes; growing lazily, any size works for
    /// any graph.
    #[must_use]
    pub fn for_nodes(n: usize) -> Self {
        let mut s = DijkstraScratch::default();
        s.grow(n);
        s
    }

    fn grow(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, u32::MAX);
            self.stamp.resize(n, 0);
            self.banned_stamp.resize(n, 0);
        }
    }

    /// Starts a new run over `n` nodes: clears the heap and invalidates
    /// every stamped entry by bumping the epoch (wraparound refills the
    /// stamp arrays).
    pub(crate) fn begin(&mut self, n: usize) {
        self.grow(n);
        self.heap.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.banned_stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Distance label of `v` in the current run (∞ when untouched).
    #[inline]
    pub(crate) fn dist(&self, v: usize) -> f64 {
        if self.stamp[v] == self.epoch {
            self.dist[v]
        } else {
            f64::INFINITY
        }
    }

    /// Predecessor of `v` in the current run (`u32::MAX` = none).
    #[inline]
    pub(crate) fn prev(&self, v: usize) -> u32 {
        if self.stamp[v] == self.epoch {
            self.prev[v]
        } else {
            u32::MAX
        }
    }

    #[inline]
    pub(crate) fn relax(&mut self, v: usize, d: f64, via: u32) {
        self.dist[v] = d;
        self.prev[v] = via;
        self.stamp[v] = self.epoch;
    }

    #[inline]
    fn ban(&mut self, v: usize) {
        self.banned_stamp[v] = self.epoch;
    }

    #[inline]
    fn banned(&self, v: usize) -> bool {
        self.banned_stamp[v] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(u32, u32, f64)]) -> CsrView {
        CsrView::new(n, edges.iter().copied())
    }

    fn shortest(g: &CsrView, source: usize, target: usize) -> Option<GraphPath> {
        g.shortest_path_avoiding_with(&mut DijkstraScratch::default(), source, target, &[], &[])
    }

    fn ksp(g: &CsrView, source: usize, target: usize, k: usize) -> Vec<GraphPath> {
        g.k_shortest_paths_with(&mut DijkstraScratch::default(), source, target, k)
    }

    /// Diamond: 0→1→3, 0→2→3 with asymmetric weights, plus a direct 0→3.
    fn diamond() -> CsrView {
        graph(
            4,
            &[
                (0, 1, 1.0),
                (1, 3, 1.0),
                (0, 2, 2.0),
                (2, 3, 2.0),
                (0, 3, 5.0),
            ],
        )
    }

    #[test]
    fn csr_groups_by_source_in_input_order() {
        let g = graph(3, &[(2, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0), (0, 1, 4.0)]);
        assert_eq!(g.starts, [0, 2, 2, 4]);
        assert_eq!(g.targets, [2, 1, 0, 1]);
        assert_eq!(g.weights, [2.0, 4.0, 1.0, 3.0]);
        // In-edges per target, sources ascending.
        assert_eq!(g.rev_starts, [0, 1, 3, 4]);
        assert_eq!(g.rev_sources, [2, 0, 2, 0]);
        assert_eq!(g.rev_weights, [1.0, 4.0, 3.0, 2.0]);
    }

    #[test]
    fn scratch_reuse_matches_fresh() {
        // One scratch reused across runs — with bans, unreachable targets
        // and wraparound-adjacent epochs — must equal fresh allocation.
        let g = diamond();
        let mut reused = DijkstraScratch::for_nodes(g.num_nodes());
        type Case = (usize, usize, Vec<usize>, Vec<(usize, usize)>);
        let cases: Vec<Case> = vec![
            (0, 3, vec![], vec![]),
            (0, 3, vec![1], vec![]),
            (0, 3, vec![], vec![(0, 1)]),
            (0, 3, vec![1, 2], vec![(0, 3)]),
            (3, 0, vec![], vec![]),
            (2, 2, vec![], vec![]),
        ];
        for _round in 0..3 {
            for (s, t, bn, be) in &cases {
                let got = g.shortest_path_avoiding_with(&mut reused, *s, *t, bn, be);
                let mut fresh = DijkstraScratch::default();
                let want = g.shortest_path_avoiding_with(&mut fresh, *s, *t, bn, be);
                assert_eq!(got, want, "{s}->{t} banned {bn:?}/{be:?}");
            }
        }
    }

    #[test]
    fn dijkstra_finds_shortest() {
        let p = shortest(&diamond(), 0, 3).unwrap();
        assert_eq!(p.nodes, vec![0, 1, 3]);
        assert!((p.cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dijkstra_unreachable() {
        let g = graph(3, &[(0, 1, 1.0)]);
        assert!(shortest(&g, 0, 2).is_none());
        // Reverse direction has no edge either.
        assert!(shortest(&g, 1, 0).is_none());
    }

    #[test]
    fn dijkstra_source_equals_target() {
        let p = shortest(&diamond(), 2, 2).unwrap();
        assert_eq!(p.nodes, vec![2]);
        assert_eq!(p.cost, 0.0);
    }

    #[test]
    fn ksp_orders_three_paths() {
        let ps = ksp(&diamond(), 0, 3, 5);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].nodes, vec![0, 1, 3]);
        assert_eq!(ps[1].nodes, vec![0, 2, 3]);
        assert_eq!(ps[2].nodes, vec![0, 3]);
        assert!(ps[0].cost <= ps[1].cost && ps[1].cost <= ps[2].cost);
    }

    #[test]
    fn ksp_paths_are_simple() {
        // Graph with a tempting cycle 1→2→1.
        let g = graph(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 1, 0.1), (2, 3, 1.0)]);
        for p in &ksp(&g, 0, 3, 10) {
            let mut seen = std::collections::HashSet::new();
            for &nd in &p.nodes {
                assert!(seen.insert(nd), "path revisits node {nd}: {:?}", p.nodes);
            }
        }
    }

    #[test]
    fn ksp_k_zero_and_disconnected() {
        assert!(ksp(&diamond(), 0, 3, 0).is_empty());
        assert!(ksp(&graph(3, &[]), 0, 1, 3).is_empty());
    }

    /// The spur loop without the prune: every spur search runs. Extraction
    /// takes the first of the cheapest, as the pruned loop's sorted list
    /// does, so on any input the pruned [`CsrView::k_shortest_paths_with`]
    /// must return exactly this.
    ///
    /// Also reports whether the call reached the case the prune's exactness
    /// argument must cover: the first spur the prune skips yields a
    /// candidate here, and that candidate alone bans an edge in a later
    /// spur, so the pruned run spurs there with one banned edge fewer.
    fn unpruned_yen(
        csr: &CsrView,
        scratch: &mut DijkstraScratch,
        source: usize,
        target: usize,
        k: usize,
    ) -> (Vec<GraphPath>, bool) {
        if k == 0 {
            return (Vec::new(), false);
        }
        let Some(first) = csr.shortest_path_avoiding_with(scratch, source, target, &[], &[]) else {
            return (Vec::new(), false);
        };
        if source == target {
            return (vec![first], false);
        }
        let mut to_target = Vec::new();
        csr.reverse_dists(scratch, target, &mut to_target);
        // Until the first skip both runs are in the same state, so the
        // prune's decision can be replayed here exactly.
        let (mut skip_seen, mut skipped, mut coupled) = (false, None::<Vec<usize>>, false);
        let mut accepted = vec![first];
        let mut candidates: Vec<GraphPath> = Vec::new();
        while accepted.len() < k {
            let needed = k - accepted.len();
            let last = &accepted[accepted.len() - 1];
            let mut root_cost = 0.0;
            for i in 0..last.nodes.len() - 1 {
                let spur_node = last.nodes[i];
                let root = &last.nodes[..=i];
                let mut banned_edges = Vec::new();
                for p in accepted.iter().chain(candidates.iter()) {
                    if p.nodes.len() > i && p.nodes[..=i] == *root {
                        banned_edges.push((p.nodes[i], p.nodes[i + 1]));
                    }
                }
                if let Some(c) = skipped
                    .as_deref()
                    .filter(|c| c.len() > i + 1 && c[..=i] == *root)
                {
                    let edge = (c[i], c[i + 1]);
                    coupled |= banned_edges.iter().filter(|&&e| e == edge).count() == 1;
                }
                let mut skip = false;
                if !skip_seen {
                    let mut costs: Vec<f64> = candidates.iter().map(|c| c.cost).collect();
                    costs.sort_by(f64::total_cmp);
                    let cutoff = costs.get(needed - 1).copied().unwrap_or(f64::INFINITY);
                    let mut hop_bound = f64::INFINITY;
                    for e in csr.starts[spur_node] as usize..csr.starts[spur_node + 1] as usize {
                        let v = csr.targets[e] as usize;
                        if !root.contains(&v) && !banned_edges.contains(&(spur_node, v)) {
                            hop_bound = hop_bound.min(csr.weights[e] + to_target[v]);
                        }
                    }
                    skip = root_cost + hop_bound > cutoff * (1.0 + PRUNE_SLACK);
                    skip_seen = skip;
                }
                if let Some(spur) = csr.shortest_path_avoiding_with(
                    scratch,
                    spur_node,
                    target,
                    &root[..i],
                    &banned_edges,
                ) {
                    let mut nodes = root.to_vec();
                    nodes.extend_from_slice(&spur.nodes[1..]);
                    let total = GraphPath {
                        cost: root_cost + spur.cost,
                        nodes,
                    };
                    if !candidates.iter().any(|c| c.nodes == total.nodes)
                        && !accepted.iter().any(|a| a.nodes == total.nodes)
                    {
                        if skip {
                            skipped = Some(total.nodes.clone());
                        }
                        candidates.push(total);
                    }
                }
                root_cost += csr.hop_cost(last.nodes[i], last.nodes[i + 1]);
            }
            if candidates.is_empty() {
                break;
            }
            let best = candidates
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
                .map(|(i, _)| i)
                .expect("non-empty");
            accepted.push(candidates.remove(best));
        }
        (accepted, coupled)
    }

    /// Pruned Yen against [`unpruned_yen`] on `graphs` random digraphs of
    /// 2–10 nodes (self-loops, parallel edges and unreachable targets
    /// included), four Yen calls each: tie-heavy weights in {1, 2, 3}, but
    /// one in `real_every` with real weights; k runs 1..=8. Returns the
    /// spur searches the prune skipped and the calls [`unpruned_yen`]
    /// reports as coupled.
    fn pruned_yen_sweep(seed: u64, graphs: usize, real_every: usize) -> (usize, usize) {
        let mut state = seed;
        let mut next = move || {
            // xorshift64*: deterministic, dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11
        };
        let mut pruned = DijkstraScratch::default();
        let mut reference = DijkstraScratch::default();
        let mut coupled = 0;
        for case in 0..graphs {
            let n = 2 + (next() % 9) as usize;
            let num_edges = next() as usize % (n * n * 3 / 2 + 1);
            let mut edges = Vec::with_capacity(num_edges);
            for _ in 0..num_edges {
                let (u, v) = ((next() % n as u64) as u32, (next() % n as u64) as u32);
                let w = if case % real_every == 0 {
                    (next() % 1_000_000) as f64 / 1e5
                } else {
                    (1 + next() % 3) as f64
                };
                edges.push((u, v, w));
            }
            let csr = graph(n, &edges);
            for _ in 0..4 {
                let (s, t) = ((next() % n as u64) as usize, (next() % n as u64) as usize);
                let k = 1 + (next() % 8) as usize;
                let got = csr.k_shortest_paths_with(&mut pruned, s, t, k);
                let (want, c) = unpruned_yen(&csr, &mut reference, s, t, k);
                assert_eq!(got, want, "case {case}: {s}->{t} k={k} on {edges:?}");
                coupled += usize::from(c);
            }
        }
        // Every forward Dijkstra bumps the epoch once (the reverse one does
        // not), so the epochs differ by the number of spurs skipped.
        let skipped = reference.epoch.wrapping_sub(pruned.epoch) as usize;
        (skipped, coupled)
    }

    #[test]
    fn pruned_yen_matches_unpruned_reference() {
        let (skipped, coupled) = pruned_yen_sweep(0x9E37_79B9_7F4A_7C15, 4_000, 2);
        assert!(skipped > 0, "the spur prune never fired");
        assert!(
            coupled > 0,
            "no skipped spur's candidate ever banned an edge"
        );
    }

    /// The release-mode sweep: 1.2 M Yen calls, 1.05 M of them tie-heavy.
    /// `cargo test -p hris-roadnet --release --lib -- --ignored pruned_yen`
    #[test]
    #[ignore = "release-mode sweep, ~12 s"]
    fn pruned_yen_matches_unpruned_reference_at_scale() {
        let (skipped, coupled) = pruned_yen_sweep(0xD1B5_4A32_D192_ED03, 300_000, 8);
        assert!(skipped > 0, "the spur prune never fired");
        assert!(
            coupled > 0,
            "no skipped spur's candidate ever banned an edge"
        );
    }

    #[test]
    fn scc_detects_components() {
        // Two 2-cycles joined by a one-way edge.
        let mut edges = vec![
            (0, 1, 1.0),
            (1, 0, 1.0),
            (2, 3, 1.0),
            (3, 2, 1.0),
            (1, 2, 1.0),
        ];
        let g = graph(4, &edges);
        let (comp, count) = g.components();
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        // Reverse topological: the edge 1 → 2 runs to a lower component.
        assert!(comp[2] < comp[1]);
        assert!(!g.is_strongly_connected());
        // Close the loop.
        edges.push((3, 0, 1.0));
        assert!(graph(4, &edges).is_strongly_connected());
    }

    #[test]
    fn scc_handles_self_loops_and_isolated() {
        let (comp, count) = graph(3, &[(0, 0, 1.0)]).components();
        assert_eq!(comp.len(), 3);
        // All three nodes are their own components.
        assert_eq!(count, 3);
        assert_ne!(comp[0], comp[1]);
        assert_ne!(comp[1], comp[2]);
        assert!(graph(0, &[]).is_strongly_connected());
        assert!(graph(1, &[]).is_strongly_connected());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let _ = graph(2, &[(0, 1, -1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn endpoint_out_of_range_rejected() {
        let _ = graph(2, &[(0, 2, 1.0)]);
    }

    #[test]
    fn path_cost_uses_cheapest_parallel() {
        let g = graph(2, &[(0, 1, 5.0), (0, 1, 3.0)]);
        assert_eq!(g.hop_cost(0, 1), 3.0);
        assert_eq!(g.hop_cost(1, 0), f64::INFINITY);
    }
}
