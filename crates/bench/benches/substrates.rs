//! Micro-benchmarks of the substrate data structures: R-tree build/query,
//! road-network shortest paths, Yen's KSP, archive range queries.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hris_geo::Point;
use hris_roadnet::{generator, CostModel, DijkstraScratch, NetworkConfig, NodeId};
use hris_rtree::RTree;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)))
        .collect()
}

fn bench_rtree(c: &mut Criterion) {
    let mut g = c.benchmark_group("rtree");
    for n in [1_000usize, 10_000, 100_000] {
        let pts = random_points(n, 1);
        g.bench_with_input(BenchmarkId::new("bulk_load", n), &pts, |b, pts| {
            b.iter(|| RTree::bulk_load(black_box(pts.clone())));
        });
        let tree = RTree::bulk_load(pts);
        g.bench_with_input(BenchmarkId::new("circle_500m", n), &tree, |b, tree| {
            b.iter(|| {
                tree.query_circle(black_box(Point::new(5_000.0, 5_000.0)), 500.0, |p, q| {
                    p.dist(q)
                })
            });
        });
        g.bench_with_input(BenchmarkId::new("knn_10", n), &tree, |b, tree| {
            b.iter(|| {
                tree.nearest(black_box(Point::new(5_000.0, 5_000.0)), 10, |p, q| {
                    p.dist(q)
                })
            });
        });
    }
    g.finish();
}

fn bench_roadnet(c: &mut Criterion) {
    let net = generator::generate(&NetworkConfig {
        blocks_x: 32,
        blocks_y: 32,
        ..NetworkConfig::default()
    });
    let n = net.num_nodes() as u32;
    let mut g = c.benchmark_group("roadnet");
    g.bench_function("dijkstra_cross_city", |b| {
        let oracle = net.sp_oracle();
        let mut scratch = DijkstraScratch::default();
        b.iter(|| {
            oracle.point_to_point(
                black_box(NodeId(0)),
                NodeId(n - 1),
                CostModel::Distance,
                &mut scratch,
            )
        });
    });
    g.bench_function("yen_k4_cross_city", |b| {
        b.iter(|| black_box(&net).k_shortest_routes(NodeId(0), NodeId(n - 1), 4, CostModel::Time));
    });
    g.bench_function("candidate_edges_60m", |b| {
        b.iter(|| net.candidate_edges(black_box(Point::new(4_000.0, 4_000.0)), 60.0));
    });
    g.bench_function("lambda_neighborhood_4", |b| {
        let seg = net.segments()[net.num_segments() / 2].id;
        b.iter(|| net.lambda_neighborhood(black_box(seg), 4));
    });
    g.finish();
}

fn bench_archive(c: &mut Criterion) {
    let s = hris_bench::bench_scenario();
    let mut g = c.benchmark_group("archive");
    let center = s.net.bbox().center();
    g.bench_function("points_within_500m", |b| {
        b.iter(|| s.archive.points_within(black_box(center), 500.0));
    });
    g.bench_function("binary_roundtrip", |b| {
        b.iter(|| {
            let blob = s.archive.to_bytes();
            hris_traj::TrajectoryArchive::from_bytes(black_box(blob)).unwrap()
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_rtree, bench_roadnet, bench_archive
}
criterion_main!(benches);
