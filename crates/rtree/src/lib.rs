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
//! - **Dynamic insertion** with Guttman's quadratic split, so archives can
//!   grow incrementally.
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
/// Minimum fill after a split (Guttman's 40 % rule).
pub(crate) const MIN_ENTRIES: usize = 6;

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
    height: usize,
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
            height: 1,
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
            height: 1,
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

    /// Height of the tree (1 for a single leaf).
    #[inline]
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Borrow of all indexed items, in insertion order.
    #[inline]
    #[must_use]
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Mutable borrow of all indexed items, in insertion order.
    ///
    /// The index is **not** updated by mutations, so callers must not
    /// change any item's bounding box — only non-spatial payload fields
    /// (provenance ids, timestamps, tags). The archive's incremental
    /// maintenance path uses this to remap trajectory ids in place after a
    /// batch eviction instead of re-bulk-loading the tree.
    #[inline]
    pub fn items_mut(&mut self) -> &mut [T] {
        &mut self.items
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

    /// Sort-Tile-Recursive packing of `self.items` into a fresh node arena.
    fn str_pack(&mut self) {
        self.nodes.clear();
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
        self.height = 1;
        // Pack internal levels until a single root remains.
        while level.len() > 1 {
            let mut next: Vec<usize> = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            // Re-tile this level by child bbox centres for good grouping.
            let mut lvl = level.clone();
            lvl.sort_by(|&a, &b| {
                let ca = self.nodes[a].bbox.center();
                let cb = self.nodes[b].bbox.center();
                ca.x.total_cmp(&cb.x).then(ca.y.total_cmp(&cb.y))
            });
            let groups = lvl.len().div_ceil(MAX_ENTRIES);
            let slices = (groups as f64).sqrt().ceil() as usize;
            let ssize = lvl.len().div_ceil(slices.max(1)).max(1);
            for slice in lvl.chunks_mut(ssize) {
                slice.sort_by(|&a, &b| {
                    let ca = self.nodes[a].bbox.center();
                    let cb = self.nodes[b].bbox.center();
                    ca.y.total_cmp(&cb.y).then(ca.x.total_cmp(&cb.x))
                });
            }
            for chunk in lvl.chunks(MAX_ENTRIES) {
                let mut node = Node::internal();
                for &child in chunk {
                    node.bbox.expand(&self.nodes[child].bbox);
                    node.entries.push(Entry::Node(child));
                }
                next.push(self.push_node(node));
            }
            level = next;
            self.height += 1;
        }
        self.root = level[0];
    }

    fn push_node(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    // --------------------------------------------------------------- insert

    /// Inserts one item, splitting nodes as needed.
    pub fn insert(&mut self, item: T) {
        let item_bbox = item.bbox();
        let item_idx = self.items.len();
        self.items.push(item);

        // Descend to the best leaf, remembering the path.
        let mut path = Vec::with_capacity(self.height);
        let mut cur = self.root;
        loop {
            path.push(cur);
            if self.nodes[cur].is_leaf {
                break;
            }
            let next = self.choose_subtree(cur, &item_bbox);
            cur = next;
        }
        self.nodes[cur].entries.push(Entry::Item(item_idx));
        self.nodes[cur].bbox.expand(&item_bbox);

        // Walk back up: fix bboxes and split overflowing nodes.
        let mut split: Option<usize> = if self.nodes[cur].entries.len() > MAX_ENTRIES {
            Some(self.quadratic_split(cur))
        } else {
            None
        };
        for i in (0..path.len().saturating_sub(1)).rev() {
            let parent = path[i];
            self.nodes[parent].bbox.expand(&item_bbox);
            if let Some(new_node) = split.take() {
                let nb = self.nodes[new_node].bbox;
                self.nodes[parent].entries.push(Entry::Node(new_node));
                self.nodes[parent].bbox.expand(&nb);
                if self.nodes[parent].entries.len() > MAX_ENTRIES {
                    split = Some(self.quadratic_split(parent));
                }
            }
        }
        if let Some(new_node) = split {
            // Root was split: grow the tree.
            let mut new_root = Node::internal();
            new_root.bbox = self.nodes[self.root].bbox.union(&self.nodes[new_node].bbox);
            new_root.entries.push(Entry::Node(self.root));
            new_root.entries.push(Entry::Node(new_node));
            self.root = self.push_node(new_root);
            self.height += 1;
        }
    }

    /// Least-enlargement child choice (ties by smaller area).
    fn choose_subtree(&self, node: usize, bbox: &BBox) -> usize {
        let mut best = usize::MAX;
        let mut best_enlarge = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for e in &self.nodes[node].entries {
            let Entry::Node(child) = *e else {
                unreachable!("internal nodes hold node entries")
            };
            let cb = self.nodes[child].bbox;
            let area = cb.area_m2();
            let enlarge = cb.union(bbox).area_m2() - area;
            if enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area) {
                best = child;
                best_enlarge = enlarge;
                best_area = area;
            }
        }
        best
    }

    /// Splits `node` in place, returning the index of its new sibling.
    fn quadratic_split(&mut self, node: usize) -> usize {
        let entries = std::mem::take(&mut self.nodes[node].entries);
        let is_leaf = self.nodes[node].is_leaf;
        let boxes: Vec<BBox> = entries.iter().map(|e| self.entry_bbox(e)).collect();

        // Pick the pair of seeds wasting the most area together.
        let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
        for i in 0..boxes.len() {
            for j in (i + 1)..boxes.len() {
                let waste =
                    boxes[i].union(&boxes[j]).area_m2() - boxes[i].area_m2() - boxes[j].area_m2();
                if waste > worst {
                    worst = waste;
                    s1 = i;
                    s2 = j;
                }
            }
        }

        let mut g1: Vec<usize> = vec![s1];
        let mut g2: Vec<usize> = vec![s2];
        let mut b1 = boxes[s1];
        let mut b2 = boxes[s2];
        let mut rest: Vec<usize> = (0..entries.len()).filter(|&i| i != s1 && i != s2).collect();

        while !rest.is_empty() {
            if g1.len() + rest.len() == MIN_ENTRIES {
                // Must dump everything into g1 to satisfy the minimum.
                for i in rest.drain(..) {
                    b1.expand(&boxes[i]);
                    g1.push(i);
                }
                break;
            }
            if g2.len() + rest.len() == MIN_ENTRIES {
                for i in rest.drain(..) {
                    b2.expand(&boxes[i]);
                    g2.push(i);
                }
                break;
            }
            // Pick the entry with the strongest preference for one group.
            let mut best_pos = 0;
            let mut best_diff = f64::NEG_INFINITY;
            for (pos, &i) in rest.iter().enumerate() {
                let d1 = b1.union(&boxes[i]).area_m2() - b1.area_m2();
                let d2 = b2.union(&boxes[i]).area_m2() - b2.area_m2();
                let diff = (d1 - d2).abs();
                if diff > best_diff {
                    best_diff = diff;
                    best_pos = pos;
                }
            }
            let i = rest.swap_remove(best_pos);
            let d1 = b1.union(&boxes[i]).area_m2() - b1.area_m2();
            let d2 = b2.union(&boxes[i]).area_m2() - b2.area_m2();
            if d1 < d2 || (d1 == d2 && g1.len() <= g2.len()) {
                b1.expand(&boxes[i]);
                g1.push(i);
            } else {
                b2.expand(&boxes[i]);
                g2.push(i);
            }
        }

        let mut sibling = if is_leaf {
            Node::leaf()
        } else {
            Node::internal()
        };
        sibling.bbox = b2;
        sibling.entries = g2.into_iter().map(|i| entries[i].clone()).collect();
        self.nodes[node].bbox = b1;
        self.nodes[node].entries = g1.into_iter().map(|i| entries[i].clone()).collect();
        self.push_node(sibling)
    }

    fn entry_bbox(&self, e: &Entry) -> BBox {
        match *e {
            Entry::Item(i) => self.items[i].bbox(),
            Entry::Node(n) => self.nodes[n].bbox,
        }
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

    // --------------------------------------------------------------- remove

    /// Removes every item whose bounding box intersects `region` and for
    /// which `pred` returns `true`. Returns the removed items.
    ///
    /// Classic R-tree deletion with tree condensing: leaves that underflow
    /// below the minimum fill are dissolved and their surviving entries
    /// re-inserted. Item indices held by [`Neighbor::index`] from *before*
    /// the call are invalidated.
    pub fn remove_where<F: FnMut(&T) -> bool>(&mut self, region: &BBox, mut pred: F) -> Vec<T> {
        if self.is_empty() {
            return Vec::new();
        }
        // Collect matching item indices.
        let mut doomed: Vec<usize> = Vec::new();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if !node.bbox.intersects(region) {
                continue;
            }
            for e in &node.entries {
                match *e {
                    Entry::Item(i) => {
                        if self.items[i].bbox().intersects(region) && pred(&self.items[i]) {
                            doomed.push(i);
                        }
                    }
                    Entry::Node(c) => stack.push(c),
                }
            }
        }
        if doomed.is_empty() {
            return Vec::new();
        }
        doomed.sort_unstable();

        // Extract survivors and removed items; rebuild is O(n log n), which
        // for batch deletions beats per-item condensing and — unlike
        // pointer surgery — keeps every structural invariant trivially true.
        let mut removed = Vec::with_capacity(doomed.len());
        let mut survivors = Vec::with_capacity(self.items.len() - doomed.len());
        let mut d = 0usize;
        for (i, item) in std::mem::take(&mut self.items).into_iter().enumerate() {
            if d < doomed.len() && doomed[d] == i {
                removed.push(item);
                d += 1;
            } else {
                survivors.push(item);
            }
        }
        *self = RTree::bulk_load(survivors);
        removed
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
    fn insert_indexes_everything() {
        let mut tree = RTree::new();
        for p in grid_points(300) {
            tree.insert(p);
        }
        assert_eq!(tree.len(), 300);
        tree.check_invariants();
        assert!(tree.height() > 1, "300 points must split the root leaf");
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
    fn mixed_bulk_and_insert() {
        let mut tree = RTree::bulk_load(grid_points(100));
        for p in grid_points(100) {
            tree.insert(Point::new(p.x + 3.0, p.y + 3.0));
        }
        assert_eq!(tree.len(), 200);
        tree.check_invariants();
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
    fn remove_where_extracts_matching_items() {
        let mut tree = RTree::bulk_load(grid_points(300));
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 40.0));
        let before = tree.len();
        let removed = tree.remove_where(&region, |_| true);
        assert!(!removed.is_empty());
        assert_eq!(tree.len() + removed.len(), before);
        tree.check_invariants();
        // Nothing inside the region remains.
        assert!(tree.query_rect(&region).is_empty());
        // Every removed point was actually inside.
        for p in &removed {
            assert!(region.contains_point(*p));
        }
    }

    #[test]
    fn remove_where_respects_predicate() {
        let mut tree = RTree::bulk_load(grid_points(100));
        let all = tree.bbox();
        let removed = tree.remove_where(&all, |p| p.x < 50.0);
        assert!(removed.iter().all(|p| p.x < 50.0));
        assert!(tree.items().iter().all(|p| p.x >= 50.0));
        tree.check_invariants();
        // Queries still work after removal.
        let hits = tree.query_circle(Point::new(100.0, 10.0), 30.0, |p, q| p.dist(q));
        assert!(hits.iter().all(|p| p.x >= 50.0));
    }

    #[test]
    fn remove_where_no_match_is_noop() {
        let mut tree = RTree::bulk_load(grid_points(50));
        let before = tree.len();
        let removed = tree.remove_where(
            &BBox::new(Point::new(9_000.0, 9_000.0), Point::new(9_100.0, 9_100.0)),
            |_| true,
        );
        assert!(removed.is_empty());
        assert_eq!(tree.len(), before);
    }

    #[test]
    fn remove_everything_leaves_empty_tree() {
        let mut tree = RTree::bulk_load(grid_points(64));
        let all = tree.bbox();
        let removed = tree.remove_where(&all, |_| true);
        assert_eq!(removed.len(), 64);
        assert!(tree.is_empty());
        tree.check_invariants();
        // Insert still works afterwards.
        tree.insert(Point::new(1.0, 1.0));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn items_mut_allows_payload_edits_without_breaking_queries() {
        // Tag each point with an index, mutate the tags in place, and check
        // the tree still answers spatially (bboxes untouched).
        let tagged: Vec<(Point, usize)> = grid_points(120).into_iter().map(|p| (p, 0)).collect();
        let mut tree = RTree::bulk_load(tagged);
        for (i, item) in tree.items_mut().iter_mut().enumerate() {
            item.1 = i + 1000;
        }
        tree.check_invariants();
        let hits = tree.query_circle(Point::new(0.0, 0.0), 15.0, |it, q| it.0.dist(q));
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|it| it.1 >= 1000));
    }

    #[test]
    fn duplicate_points_all_indexed() {
        let pts = vec![Point::new(1.0, 1.0); 40];
        let tree = RTree::bulk_load(pts);
        let hits = tree.query_circle(Point::new(1.0, 1.0), 0.1, |p, q| p.dist(q));
        assert_eq!(hits.len(), 40);
    }
}
