//! Property-based tests: the R-tree must agree with linear-scan oracles.

use hris_geo::{BBox, Point};
use hris_rtree::RTree;
use proptest::prelude::*;

fn point() -> impl Strategy<Value = Point> {
    (-10_000.0..10_000.0f64, -10_000.0..10_000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn sorted_key(p: &Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bulk_load_invariants(pts in prop::collection::vec(point(), 0..600)) {
        let tree = RTree::bulk_load(pts.clone());
        tree.check_invariants();
        prop_assert_eq!(tree.len(), pts.len());
    }

    #[test]
    fn rect_query_equals_scan(
        pts in prop::collection::vec(point(), 0..400),
        a in point(),
        b in point(),
    ) {
        let tree = RTree::bulk_load(pts.clone());
        let rect = BBox::new(a, b);
        let mut got: Vec<Point> = tree.query_rect(&rect).into_iter().copied().collect();
        let mut want: Vec<Point> = pts.into_iter().filter(|p| rect.contains_point(*p)).collect();
        got.sort_by_key(sorted_key);
        want.sort_by_key(sorted_key);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn circle_query_equals_scan(
        pts in prop::collection::vec(point(), 0..400),
        c in point(),
        r in 0.0..5_000.0f64,
    ) {
        let tree = RTree::bulk_load(pts.clone());
        let mut got: Vec<Point> = tree
            .query_circle(c, r, |p, q| p.dist(q))
            .into_iter()
            .copied()
            .collect();
        let mut want: Vec<Point> = pts.into_iter().filter(|p| p.dist(c) <= r).collect();
        got.sort_by_key(sorted_key);
        want.sort_by_key(sorted_key);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn knn_equals_scan(
        pts in prop::collection::vec(point(), 1..300),
        q in point(),
        k in 1usize..20,
    ) {
        let tree = RTree::bulk_load(pts.clone());
        let nn = tree.nearest(q, k, |p, c| p.dist(c));
        let mut dists: Vec<f64> = pts.iter().map(|p| p.dist(q)).collect();
        dists.sort_by(f64::total_cmp);
        let expect = k.min(pts.len());
        prop_assert_eq!(nn.len(), expect);
        for (i, n) in nn.iter().enumerate() {
            prop_assert!((n.dist - dists[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn nearest_iter_sorted_and_complete(
        pts in prop::collection::vec(point(), 0..300),
        q in point(),
    ) {
        let tree = RTree::bulk_load(pts.clone());
        let all: Vec<f64> = tree.nearest_iter(q, |p, c| p.dist(c)).map(|n| n.dist).collect();
        prop_assert_eq!(all.len(), pts.len());
        for w in all.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn incremental_knn_distance_sequence_equals_bruteforce(
        pts in prop::collection::vec(point(), 1..250),
        q in point(),
    ) {
        // Differential: the incremental best-first iterator against a
        // brute-force sort of every point's distance. Ties may order
        // differently between the two, so the *distance sequences* must be
        // equal element-wise — a stronger check than sortedness alone.
        let tree = RTree::bulk_load(pts.clone());
        let inc: Vec<f64> = tree.nearest_iter(q, |p, c| p.dist(c)).map(|n| n.dist).collect();
        let mut brute: Vec<f64> = pts.iter().map(|p| p.dist(q)).collect();
        brute.sort_by(f64::total_cmp);
        prop_assert_eq!(inc.len(), brute.len());
        for (i, (a, b)) in inc.iter().zip(&brute).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "rank {i}: incremental {a} vs brute {b}");
        }
        // And every k-prefix of nearest() agrees with the iterator.
        for k in [1, 2, pts.len() / 2, pts.len()] {
            let nn = tree.nearest(q, k, |p, c| p.dist(c));
            prop_assert_eq!(nn.len(), k.min(pts.len()));
            for (n, want) in nn.iter().zip(&inc) {
                prop_assert!((n.dist - want).abs() < 1e-12);
            }
        }
    }
}
