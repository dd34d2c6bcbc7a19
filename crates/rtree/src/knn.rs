//! Incremental best-first nearest-neighbour search.
//!
//! Classic Hjaltason–Samet algorithm: a min-heap mixes tree nodes (keyed by
//! the `MINDIST` of their bounding box) and concrete items (keyed by their
//! exact distance). Because a node's key lower-bounds every item below it, an
//! item popped from the heap is guaranteed to be the closest unreported one.

use crate::node::Entry;
use crate::{RTree, Spatial};
use hris_geo::Point;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An item yielded by nearest-neighbour search together with its distance.
#[derive(Debug)]
pub struct Neighbor<'a, T> {
    /// The indexed item.
    pub item: &'a T,
    /// Index of the item in [`RTree::items`] order. A tree is never edited
    /// after [`RTree::bulk_load`], so the index is stable for its lifetime.
    pub index: usize,
    /// Exact distance from the query point, metres.
    pub dist: f64,
}

enum HeapEntry {
    Node(usize),
    Item(usize),
}

struct Keyed {
    dist: f64,
    entry: HeapEntry,
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for Keyed {}
impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the minimum distance.
        other.dist.total_cmp(&self.dist)
    }
}

/// Iterator over items of an [`RTree`] in non-decreasing distance order.
pub struct NearestIter<'a, T: Spatial, F: Fn(&T, Point) -> f64> {
    tree: &'a RTree<T>,
    query: Point,
    dist: F,
    heap: BinaryHeap<Keyed>,
}

impl<'a, T: Spatial, F: Fn(&T, Point) -> f64> NearestIter<'a, T, F> {
    pub(crate) fn new(tree: &'a RTree<T>, query: Point, dist: F) -> Self {
        let mut heap = BinaryHeap::new();
        if !tree.is_empty() {
            heap.push(Keyed {
                dist: tree.node(tree.root_id()).bbox.min_dist(query),
                entry: HeapEntry::Node(tree.root_id()),
            });
        }
        NearestIter {
            tree,
            query,
            dist,
            heap,
        }
    }
}

impl<'a, T: Spatial, F: Fn(&T, Point) -> f64> Iterator for NearestIter<'a, T, F> {
    type Item = Neighbor<'a, T>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(Keyed { dist, entry }) = self.heap.pop() {
            match entry {
                HeapEntry::Item(i) => {
                    return Some(Neighbor {
                        item: self.tree.item(i),
                        index: i,
                        dist,
                    });
                }
                HeapEntry::Node(n) => {
                    let node = self.tree.node(n);
                    for e in &node.entries {
                        match *e {
                            Entry::Item(i) => self.heap.push(Keyed {
                                dist: (self.dist)(self.tree.item(i), self.query),
                                entry: HeapEntry::Item(i),
                            }),
                            Entry::Node(c) => self.heap.push(Keyed {
                                dist: self.tree.node(c).bbox.min_dist(self.query),
                                entry: HeapEntry::Node(c),
                            }),
                        }
                    }
                }
            }
        }
        None
    }
}
