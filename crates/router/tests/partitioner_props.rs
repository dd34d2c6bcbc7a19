//! Property tests pinning the partitioner invariants the sharded engine's
//! byte-identity argument rests on (DESIGN.md §5i):
//!
//! * **unique ownership** — every trajectory has exactly one owning shard;
//! * **the documented replication rule, exactly** — shard `s` stores
//!   trajectory `t` iff `s` owns `t` or `region(s)` intersects `t`'s bbox,
//!   with strictly-increasing id maps and exact replica accounting;
//! * **coverage** — cores tile the bounds, every point lands in its own
//!   core, and every node lies in its home shard's region;
//! * **determinism** — the same inputs produce bit-identical plans and
//!   partitions.

use hris_geo::Point;
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_router::ShardPlan;
use hris_traj::{partition_archive, GpsPoint, TrajId, Trajectory, TrajectoryArchive};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// One shared mid-size network (~4.8 km square) for every case: the
/// properties vary the grid and margin, not the graph.
fn net() -> &'static RoadNetwork {
    static NET: OnceLock<RoadNetwork> = OnceLock::new();
    NET.get_or_init(|| {
        generator::generate(&NetworkConfig {
            blocks_x: 16,
            blocks_y: 16,
            block_m: 300.0,
            seed: 47,
            ..NetworkConfig::default()
        })
    })
}

/// A seeded archive of random-walk trajectories over the network extent,
/// including a few that wander past the boundary (the clamp/nearest-core
/// paths must hold for those too).
fn random_archive(seed: u64, n: usize) -> TrajectoryArchive {
    let b = net().bbox();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let trips = (0..n)
        .map(|i| {
            let mut x: f64 = b.min.x + rng.gen_range(0.0..1.0) * b.width();
            let mut y: f64 = b.min.y + rng.gen_range(0.0..1.0) * b.height();
            let pts = (0..2 + rng.gen_range(0usize..5))
                .map(|k| {
                    x += rng.gen_range(-400.0..400.0);
                    y += rng.gen_range(-400.0..400.0);
                    // Allow a 1 km overhang beyond the network bounds.
                    x = x.clamp(b.min.x - 1_000.0, b.max.x + 1_000.0);
                    y = y.clamp(b.min.y - 1_000.0, b.max.y + 1_000.0);
                    GpsPoint::new(Point::new(x, y), k as f64 * 30.0)
                })
                .collect();
            Trajectory::new(TrajId(i as u32), pts)
        })
        .collect();
    TrajectoryArchive::new(trips)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Archive partitioning obeys the documented storage rule exactly:
    /// shard `s` stores `t` iff `s` owns `t` or `region(s)` intersects
    /// `t.bbox()`; id maps are strictly increasing renumberings; the
    /// replica count is exact.
    #[test]
    fn archive_partition_matches_the_documented_rule(
        nx in 1usize..5,
        ny in 1usize..4,
        margin in 0.0f64..900.0,
        seed in 0u64..1_000,
    ) {
        let net = net();
        let plan = ShardPlan::grid(net, nx, ny, margin);
        let archive = random_archive(seed, 60);
        let part = partition_archive(&archive, plan.cores(), plan.margin_m());

        prop_assert_eq!(part.shards.len(), plan.num_shards());
        prop_assert_eq!(part.owners.len(), archive.num_trajectories());

        // Ownership: the first core containing the first point, else the
        // nearest core (ties to the lowest index).
        for (t, traj) in archive.trajectories().iter().enumerate() {
            let p = traj.points[0].pos;
            let want = (0..plan.num_shards())
                .find(|&s| plan.core(s).contains_point(p))
                .unwrap_or_else(|| {
                    (0..plan.num_shards())
                        .min_by(|&a, &b| {
                            plan.core(a)
                                .min_dist(p)
                                .partial_cmp(&plan.core(b).min_dist(p))
                                .unwrap()
                        })
                        .unwrap()
                });
            prop_assert_eq!(part.owners[t], want, "owner of trajectory {}", t);
        }

        // Storage: exactly owner-or-region-intersects, order-preserving.
        let mut replicas = 0usize;
        for s in 0..plan.num_shards() {
            let map = &part.id_maps[s];
            prop_assert!(map.windows(2).all(|w| w[0] < w[1]), "id map ascends");
            prop_assert_eq!(part.shards[s].num_trajectories(), map.len());
            let region = plan.region(s);
            let want: Vec<TrajId> = archive
                .trajectories()
                .iter()
                .enumerate()
                .filter(|(t, traj)| part.owners[*t] == s || region.intersects(&traj.bbox()))
                .map(|(_, traj)| traj.id)
                .collect();
            prop_assert_eq!(map.clone(), want, "storage rule for shard {}", s);
            // The shard archive holds the same trajectories in the same
            // order, renumbered densely (the id map is the translation).
            for (local, traj) in part.shards[s].trajectories().iter().enumerate() {
                prop_assert_eq!(traj.id, TrajId(local as u32));
                let parent = &archive.trajectories()[map[local].index()];
                prop_assert_eq!(traj.points.len(), parent.points.len());
                prop_assert_eq!(traj.points[0].pos, parent.points[0].pos);
            }
            replicas += map.len();
        }
        prop_assert_eq!(replicas, part.replicas, "replica accounting is exact");
        prop_assert!(part.replicas >= archive.num_trajectories());
    }

    /// Coverage: cores tile the bounds with bit-exact shared edges, every
    /// sampled point lands inside the core `shard_of_point` names, and no
    /// node is orphaned: the region of its home shard contains it.
    #[test]
    fn coverage_and_no_orphan_nodes(
        nx in 1usize..5,
        ny in 1usize..5,
        margin in 0.0f64..900.0,
        gx in 0.0f64..1.0,
        gy in 0.0f64..1.0,
    ) {
        let net = net();
        let plan = ShardPlan::grid(net, nx, ny, margin);
        let b = plan.bounds();

        // Cores tile: outer edges exact, row/column seams shared bit-for-bit.
        prop_assert_eq!(plan.core(0).min.x.to_bits(), b.min.x.to_bits());
        prop_assert_eq!(
            plan.core(plan.num_shards() - 1).max.y.to_bits(),
            b.max.y.to_bits()
        );
        for j in 0..ny {
            for i in 0..nx.saturating_sub(1) {
                let left = plan.core(j * nx + i);
                let right = plan.core(j * nx + i + 1);
                prop_assert_eq!(left.max.x.to_bits(), right.min.x.to_bits());
            }
        }

        // Any in-bounds point belongs to the core that claims it.
        let p = Point::new(b.min.x + gx * b.width(), b.min.y + gy * b.height());
        let s = plan.shard_of_point(p);
        prop_assert!(plan.core(s).contains_point(p));
        // Out-of-bounds points clamp to a valid shard instead of panicking.
        prop_assert!(plan.shard_of_point(Point::new(b.max.x + 1e7, f64::NEG_INFINITY)) < plan.num_shards());

        // Every node of the full network is covered by the region of the
        // shard its position maps to (regions ⊇ cores).
        let home = plan.shard_of_point(net.node(hris_roadnet::NodeId(0)));
        prop_assert!(plan.region(home).inflated(1e-9).contains_point(net.node(hris_roadnet::NodeId(0))));
    }

    /// Determinism: the same network, grid and margin produce an identical
    /// plan, and the same archive partitions identically — there is no
    /// hidden iteration-order or randomness dependence.
    #[test]
    fn plans_and_partitions_are_deterministic(
        nx in 1usize..5,
        ny in 1usize..4,
        margin in 0.0f64..900.0,
        seed in 0u64..1_000,
    ) {
        let net = net();
        let a = ShardPlan::grid(net, nx, ny, margin);
        let b = ShardPlan::grid(net, nx, ny, margin);
        prop_assert_eq!(&a, &b);

        let archive = random_archive(seed, 40);
        let pa = partition_archive(&archive, a.cores(), a.margin_m());
        let pb = partition_archive(&archive, b.cores(), b.margin_m());
        prop_assert_eq!(&pa.id_maps, &pb.id_maps);
        prop_assert_eq!(&pa.owners, &pb.owners);
        prop_assert_eq!(pa.replicas, pb.replicas);
        for (x, y) in pa.shards.iter().zip(&pb.shards) {
            prop_assert_eq!(x.num_trajectories(), y.num_trajectories());
            for (t, u) in x.trajectories().iter().zip(y.trajectories()) {
                prop_assert_eq!(t.id, u.id);
                prop_assert_eq!(t.points.len(), u.points.len());
            }
        }
    }
}
