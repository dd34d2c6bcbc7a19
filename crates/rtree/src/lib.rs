//! A from-scratch R-tree used as the spatial index of the HRIS system.
//!
//! The paper's preprocessing component indexes the millions of archived GPS
//! points with an R-tree so that reference-trajectory search can issue
//! `φ`-radius range queries around query points (Section II-B.1). The same
//! structure indexes road-segment bounding boxes for candidate-edge lookup
//! (Definition 5).
//!
//! Features:
//! - **STR bulk loading** (Sort-Tile-Recursive) for building an index over a
//!   static archive in `O(n log n)` with near-perfect space utilisation.
//! - **Range queries** by rectangle and by circle (with caller-refined exact
//!   distances for non-point geometry).
//! - **Incremental best-first kNN** that yields items in non-decreasing
//!   distance order, supporting the constrained-kNN walks of the NNI
//!   algorithm without fixing `k` up front.
//!
//! Nodes live in a flat arena (`Vec<Node>`) rather than boxed pointers: this
//! keeps traversals cache-friendly and sidesteps lifetime gymnastics.

#![warn(missing_docs)]

mod knn;
mod node;

pub use knn::Neighbor;

use hris_geo::{BBox, Point};
use node::{Entry, Node};

/// Anything with an axis-aligned bounding box can be indexed.
pub trait Spatial {
    /// The item's bounding box in the local planar frame.
    fn bbox(&self) -> BBox;
}

impl Spatial for Point {
    fn bbox(&self) -> BBox {
        BBox::from_point(*self)
    }
}

impl Spatial for BBox {
    fn bbox(&self) -> BBox {
        *self
    }
}

impl<T: Spatial> Spatial for (T, usize) {
    fn bbox(&self) -> BBox {
        self.0.bbox()
    }
}

/// Maximum number of entries per node.
pub(crate) const MAX_ENTRIES: usize = 16;

/// An R-tree over items of type `T`.
///
/// ```
/// use hris_geo::Point;
/// use hris_rtree::RTree;
///
/// let pts: Vec<Point> = (0..100).map(|i| Point::new(i as f64, (i * 7 % 13) as f64)).collect();
/// let tree = RTree::bulk_load(pts);
/// let hits = tree.query_circle(Point::new(50.0, 5.0), 3.0, |p, q| p.dist(q));
/// assert!(!hits.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RTree<T: Spatial> {
    items: Vec<T>,
    nodes: Vec<Node>,
    root: usize,
}

impl<T: Spatial> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Spatial> RTree<T> {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        let root = Node::leaf();
        RTree {
            items: Vec::new(),
            nodes: vec![root],
            root: 0,
        }
    }

    /// Builds a tree over `items` with Sort-Tile-Recursive packing.
    #[must_use]
    pub fn bulk_load(items: Vec<T>) -> Self {
        if items.is_empty() {
            return Self::new();
        }
        let mut tree = RTree {
            items,
            nodes: Vec::new(),
            root: 0,
        };
        tree.str_pack();
        tree
    }

    /// Number of indexed items.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if no items are indexed.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Borrow of all indexed items, in the order given to [`RTree::bulk_load`].
    #[inline]
    #[must_use]
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Bounding box of everything in the tree (empty box when empty).
    #[must_use]
    pub fn bbox(&self) -> BBox {
        self.nodes[self.root].bbox
    }

    pub(crate) fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    pub(crate) fn root_id(&self) -> usize {
        self.root
    }

    pub(crate) fn item(&self, i: usize) -> &T {
        &self.items[i]
    }

    // ---------------------------------------------------------------- build

    /// Sort-Tile-Recursive packing of `self.items` into the empty node
    /// arena.
    fn str_pack(&mut self) {
        let n = self.items.len();
        // Leaf level: order item indices by STR tiling.
        let mut order: Vec<usize> = (0..n).collect();
        let centers: Vec<Point> = self.items.iter().map(|it| it.bbox().center()).collect();
        order.sort_by(|&a, &b| {
            centers[a]
                .x
                .total_cmp(&centers[b].x)
                .then(centers[a].y.total_cmp(&centers[b].y))
        });
        let leaf_count = n.div_ceil(MAX_ENTRIES);
        let slice_count = (leaf_count as f64).sqrt().ceil() as usize;
        let slice_size = n.div_ceil(slice_count);
        for slice in order.chunks_mut(slice_size.max(1)) {
            slice.sort_by(|&a, &b| {
                centers[a]
                    .y
                    .total_cmp(&centers[b].y)
                    .then(centers[a].x.total_cmp(&centers[b].x))
            });
        }
        // Pack leaves.
        let mut level: Vec<usize> = Vec::with_capacity(leaf_count);
        for chunk in order.chunks(MAX_ENTRIES) {
            let mut node = Node::leaf();
            for &idx in chunk {
                node.bbox.expand(&self.items[idx].bbox());
                node.entries.push(Entry::Item(idx));
            }
            level.push(self.push_node(node));
        }
        // Pack internal levels until a single root remains.
        while level.len() > 1 {
            let mut next: Vec<usize> = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            // Re-tile this level by child bbox centres for good grouping.
            level.sort_by(|&a, &b| {
                let ca = self.nodes[a].bbox.center();
                let cb = self.nodes[b].bbox.center();
                ca.x.total_cmp(&cb.x).then(ca.y.total_cmp(&cb.y))
            });
            let groups = level.len().div_ceil(MAX_ENTRIES);
            let slices = (groups as f64).sqrt().ceil() as usize;
            let ssize = level.len().div_ceil(slices.max(1)).max(1);
            for slice in level.chunks_mut(ssize) {
                slice.sort_by(|&a, &b| {
                    let ca = self.nodes[a].bbox.center();
                    let cb = self.nodes[b].bbox.center();
                    ca.y.total_cmp(&cb.y).then(ca.x.total_cmp(&cb.x))
                });
            }
            for chunk in level.chunks(MAX_ENTRIES) {
                let mut node = Node::internal();
                for &child in chunk {
                    node.bbox.expand(&self.nodes[child].bbox);
                    node.entries.push(Entry::Node(child));
                }
                next.push(self.push_node(node));
            }
            level = next;
        }
        self.root = level[0];
    }

    fn push_node(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    // -------------------------------------------------------------- queries

    /// Collects references to every item whose bounding box intersects `rect`.
    #[must_use]
    pub fn query_rect(&self, rect: &BBox) -> Vec<&T> {
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if !node.bbox.intersects(rect) {
                continue;
            }
            for e in &node.entries {
                match *e {
                    Entry::Item(i) => {
                        if self.items[i].bbox().intersects(rect) {
                            out.push(&self.items[i]);
                        }
                    }
                    Entry::Node(c) => stack.push(c),
                }
            }
        }
        out
    }

    /// Items within `radius` of `center` under an exact distance function.
    ///
    /// `dist` receives the item and the query centre and must return the true
    /// point-to-item distance (which may be smaller than the bbox distance
    /// for extended geometry like road polylines).
    #[must_use]
    pub fn query_circle<F: Fn(&T, Point) -> f64>(
        &self,
        center: Point,
        radius: f64,
        dist: F,
    ) -> Vec<&T> {
        let mut out = Vec::new();
        if self.is_empty() || radius < 0.0 {
            return out;
        }
        let r_sq = radius * radius;
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if node.bbox.min_dist_sq(center) > r_sq {
                continue;
            }
            for e in &node.entries {
                match *e {
                    Entry::Item(i) => {
                        if self.items[i].bbox().min_dist_sq(center) <= r_sq
                            && dist(&self.items[i], center) <= radius
                        {
                            out.push(&self.items[i]);
                        }
                    }
                    Entry::Node(c) => stack.push(c),
                }
            }
        }
        out
    }

    /// The `k` nearest items to `p` under `dist`, in non-decreasing order.
    #[must_use]
    pub fn nearest<F: Fn(&T, Point) -> f64>(
        &self,
        p: Point,
        k: usize,
        dist: F,
    ) -> Vec<Neighbor<'_, T>> {
        self.nearest_iter(p, dist).take(k).collect()
    }

    /// Incremental best-first nearest-neighbour iterator.
    ///
    /// Yields every indexed item exactly once, ordered by `dist(item, p)`.
    /// Correctness requires `dist(item, p) >= item.bbox().min_dist(p)` —
    /// trivially true for points, and true for any geometry contained in its
    /// own bounding box.
    pub fn nearest_iter<F: Fn(&T, Point) -> f64>(
        &self,
        p: Point,
        dist: F,
    ) -> knn::NearestIter<'_, T, F> {
        knn::NearestIter::new(self, p, dist)
    }

    // ----------------------------------------------------------- invariants

    /// Exhaustively checks structural invariants; for tests.
    ///
    /// # Panics
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        let mut seen = vec![false; self.items.len()];
        let mut leaf_depths = Vec::new();
        self.check_node(self.root, 0, &mut seen, &mut leaf_depths);
        assert!(
            seen.iter().all(|&s| s),
            "every item must be reachable from the root"
        );
        if let Some(&d) = leaf_depths.first() {
            assert!(
                leaf_depths.iter().all(|&x| x == d),
                "all leaves must sit at the same depth (balanced tree)"
            );
        }
    }

    fn check_node(&self, n: usize, depth: usize, seen: &mut [bool], leaf_depths: &mut Vec<usize>) {
        let node = &self.nodes[n];
        assert!(
            node.entries.len() <= MAX_ENTRIES,
            "node {n} overflows: {} entries",
            node.entries.len()
        );
        if node.is_leaf {
            leaf_depths.push(depth);
        }
        let mut bbox = BBox::empty();
        for e in &node.entries {
            match *e {
                Entry::Item(i) => {
                    assert!(node.is_leaf, "items only live in leaves");
                    assert!(!seen[i], "item {i} indexed twice");
                    seen[i] = true;
                    bbox.expand(&self.items[i].bbox());
                }
                Entry::Node(c) => {
                    assert!(!node.is_leaf, "child nodes only live in internal nodes");
                    bbox.expand(&self.nodes[c].bbox);
                    self.check_node(c, depth + 1, seen, leaf_depths);
                }
            }
        }
        if !node.entries.is_empty() {
            assert!(
                node.bbox.contains(&bbox),
                "node bbox must cover its entries (node {n})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i % 31) as f64 * 10.0, (i / 31) as f64 * 10.0))
            .collect()
    }

    #[test]
    fn empty_tree_queries() {
        let tree: RTree<Point> = RTree::new();
        assert!(tree.is_empty());
        assert!(tree
            .query_rect(&BBox::new(Point::new(0.0, 0.0), Point::new(9.0, 9.0)))
            .is_empty());
        assert!(tree
            .query_circle(Point::ORIGIN, 100.0, |p, q| p.dist(q))
            .is_empty());
        assert!(tree.nearest(Point::ORIGIN, 3, |p, q| p.dist(q)).is_empty());
        tree.check_invariants();
    }

    #[test]
    fn bulk_load_indexes_everything() {
        let pts = grid_points(500);
        let tree = RTree::bulk_load(pts.clone());
        assert_eq!(tree.len(), 500);
        tree.check_invariants();
        // Whole-extent rect returns everything.
        let all = tree.query_rect(&tree.bbox());
        assert_eq!(all.len(), 500);
    }

    #[test]
    fn rect_query_matches_linear_scan() {
        let pts = grid_points(400);
        let tree = RTree::bulk_load(pts.clone());
        let rect = BBox::new(Point::new(35.0, 15.0), Point::new(95.0, 75.0));
        let mut got: Vec<Point> = tree.query_rect(&rect).into_iter().copied().collect();
        let mut want: Vec<Point> = pts
            .into_iter()
            .filter(|p| rect.contains_point(*p))
            .collect();
        let key = |p: &Point| (p.x as i64, p.y as i64);
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want);
    }

    #[test]
    fn circle_query_matches_linear_scan() {
        let pts = grid_points(400);
        let tree = RTree::bulk_load(pts.clone());
        let c = Point::new(77.0, 33.0);
        let r = 42.0;
        let mut got: Vec<Point> = tree
            .query_circle(c, r, |p, q| p.dist(q))
            .into_iter()
            .copied()
            .collect();
        let mut want: Vec<Point> = pts.into_iter().filter(|p| p.dist(c) <= r).collect();
        let key = |p: &Point| (p.x as i64, p.y as i64);
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want);
    }

    #[test]
    fn knn_orders_by_distance() {
        let pts = grid_points(200);
        let tree = RTree::bulk_load(pts.clone());
        let q = Point::new(51.0, 18.0);
        let nn = tree.nearest(q, 10, |p, c| p.dist(c));
        assert_eq!(nn.len(), 10);
        for w in nn.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        // Against the oracle.
        let mut dists: Vec<f64> = pts.iter().map(|p| p.dist(q)).collect();
        dists.sort_by(f64::total_cmp);
        for (i, n) in nn.iter().enumerate() {
            assert!((n.dist - dists[i]).abs() < 1e-9, "k={i}");
        }
    }

    #[test]
    fn knn_iterator_is_exhaustive() {
        let pts = grid_points(150);
        let tree = RTree::bulk_load(pts);
        let items: Vec<_> = tree
            .nearest_iter(Point::new(0.0, 0.0), |p, c| p.dist(c))
            .collect();
        assert_eq!(items.len(), 150);
    }

    #[test]
    fn negative_radius_is_empty() {
        let tree = RTree::bulk_load(grid_points(10));
        assert!(tree
            .query_circle(Point::ORIGIN, -1.0, |p, q| p.dist(q))
            .is_empty());
    }

    #[test]
    fn single_item_tree() {
        let tree = RTree::bulk_load(vec![Point::new(5.0, 5.0)]);
        assert_eq!(tree.len(), 1);
        let nn = tree.nearest(Point::ORIGIN, 5, |p, c| p.dist(c));
        assert_eq!(nn.len(), 1);
        assert!((nn[0].dist - 50.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn duplicate_points_all_indexed() {
        let pts = vec![Point::new(1.0, 1.0); 40];
        let tree = RTree::bulk_load(pts);
        let hits = tree.query_circle(Point::new(1.0, 1.0), 0.1, |p, q| p.dist(q));
        assert_eq!(hits.len(), 40);
    }
}
