//! Grid shard plans: a deterministic spatial partition of the road network.
//!
//! A [`ShardPlan`] cuts the network's bounding box into an `nx × ny` grid of
//! **core** cells, one shard per cell, and derives from each core a
//! **region** — the core inflated by the replication margin. Cores tile the
//! plane (every point maps to exactly one shard via
//! [`ShardPlan::shard_of_point`]); regions overlap on purpose: a shard can
//! answer a query exactly like the global engine whenever the query's
//! φ-inflated bounding box lies inside the shard's region, because the
//! shard's archive replicates every trajectory that touches the region (see
//! [`hris_traj::partition_archive`]).
//!
//! Construction is pure arithmetic over the network — no randomness, no
//! iteration-order dependence — so two plans built from the same network and
//! grid shape are identical. The partitioner proptests pin this.

use hris_geo::{BBox, Point};
use hris_roadnet::RoadNetwork;

/// A deterministic `nx × ny` grid partition of a road network's extent.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    bounds: BBox,
    nx: usize,
    ny: usize,
    margin_m: f64,
    cores: Vec<BBox>,
}

impl ShardPlan {
    /// Builds the `nx × ny` grid plan over `net.bbox()` with replication
    /// margin `margin_m` (metres). Shard `s` covers grid cell
    /// `(s % nx, s / nx)` — x-major, bottom row first.
    ///
    /// The margin should be at least the φ (reference-search radius) the
    /// engine will run with: then any query entirely inside one core cell is
    /// answerable by that single shard, byte-identically to the global
    /// engine. Smaller margins stay *correct* (the router falls back to
    /// scatter-gather more often) but route fewer queries to one shard.
    ///
    /// # Panics
    /// Panics if `nx` or `ny` is zero, the margin is negative/non-finite,
    /// or the network has no spatial extent.
    #[must_use]
    pub fn grid(net: &RoadNetwork, nx: usize, ny: usize, margin_m: f64) -> ShardPlan {
        assert!(nx >= 1 && ny >= 1, "grid must have at least one cell");
        assert!(
            margin_m.is_finite() && margin_m >= 0.0,
            "replication margin must be a non-negative finite number of metres"
        );
        let bounds = net.bbox();
        assert!(
            !bounds.is_empty(),
            "cannot shard a network with an empty bounding box"
        );

        let mut cores = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                cores.push(BBox::new(
                    Point::new(cell_edge(bounds.min.x, bounds.max.x, i, nx), {
                        cell_edge(bounds.min.y, bounds.max.y, j, ny)
                    }),
                    Point::new(
                        cell_edge(bounds.min.x, bounds.max.x, i + 1, nx),
                        cell_edge(bounds.min.y, bounds.max.y, j + 1, ny),
                    ),
                ));
            }
        }

        ShardPlan {
            bounds,
            nx,
            ny,
            margin_m,
            cores,
        }
    }

    /// Number of shards (`nx * ny`).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.cores.len()
    }

    /// The replication margin in metres.
    #[must_use]
    pub fn margin_m(&self) -> f64 {
        self.margin_m
    }

    /// The partitioned extent (the network bounding box at plan time).
    #[must_use]
    pub fn bounds(&self) -> BBox {
        self.bounds
    }

    /// Shard `s`'s core cell. Cores tile [`ShardPlan::bounds`] exactly.
    #[must_use]
    pub fn core(&self, s: usize) -> BBox {
        self.cores[s]
    }

    /// All core cells, in shard order.
    #[must_use]
    pub fn cores(&self) -> &[BBox] {
        &self.cores
    }

    /// Shard `s`'s replication region: the core inflated by the margin.
    /// Regions overlap; a shard holds every trajectory and segment touching
    /// its region.
    #[must_use]
    pub fn region(&self, s: usize) -> BBox {
        self.cores[s].inflated(self.margin_m)
    }

    /// The unique shard whose core cell covers `p`. Points outside the
    /// partitioned bounds clamp to the nearest cell, so the mapping is
    /// total. Points exactly on an interior cell edge belong to the
    /// higher-indexed cell (half-open cells), except on the outer boundary.
    #[must_use]
    pub fn shard_of_point(&self, p: Point) -> usize {
        let ix = cell_index(p.x, self.bounds.min.x, self.bounds.max.x, self.nx);
        let iy = cell_index(p.y, self.bounds.min.y, self.bounds.max.y, self.ny);
        iy * self.nx + ix
    }

    /// The first shard (lowest index) whose **region** contains `b`, if
    /// any. This is the router's single-shard test: pass the query bbox
    /// already inflated by φ and the winning shard answers byte-identically
    /// to the global engine.
    #[must_use]
    pub fn home_shard(&self, b: &BBox) -> Option<usize> {
        (0..self.num_shards()).find(|&s| self.region(s).contains(b))
    }
}

/// Edge `i` of `n` equal cells spanning `[lo, hi]`. `cell_edge(.., 0, n) ==
/// lo` and `cell_edge(.., n, n) == hi` exactly, so cores tile the bounds
/// with no gaps from rounding.
fn cell_edge(lo: f64, hi: f64, i: usize, n: usize) -> f64 {
    if i == 0 {
        lo
    } else if i == n {
        hi
    } else {
        lo + (hi - lo) * (i as f64 / n as f64)
    }
}

/// Cell index of coordinate `v` on the `[lo, hi]` axis split into `n`
/// half-open cells, clamped into `0..n`. Non-finite coordinates (possible
/// only when validation is disabled) clamp to cell 0.
fn cell_index(v: f64, lo: f64, hi: f64, n: usize) -> usize {
    let w = (hi - lo) / n as f64;
    if !v.is_finite() || w <= 0.0 {
        return 0;
    }
    let raw = ((v - lo) / w).floor();
    if raw.is_nan() || raw < 0.0 {
        0
    } else {
        (raw as usize).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hris_roadnet::{generator, NetworkConfig};

    fn net() -> RoadNetwork {
        generator::generate(&NetworkConfig::small(6))
    }

    #[test]
    fn cores_tile_the_bounds_exactly() {
        let net = net();
        let plan = ShardPlan::grid(&net, 3, 2, 250.0);
        assert_eq!(plan.num_shards(), 6);
        let b = plan.bounds();
        // Outer edges are exact, adjacent cells share an edge bit-for-bit.
        assert_eq!(plan.core(0).min.x.to_bits(), b.min.x.to_bits());
        assert_eq!(plan.core(5).max.y.to_bits(), b.max.y.to_bits());
        for j in 0..2 {
            for i in 0..2 {
                let left = plan.core(j * 3 + i);
                let right = plan.core(j * 3 + i + 1);
                assert_eq!(left.max.x.to_bits(), right.min.x.to_bits());
            }
        }
    }

    #[test]
    fn every_point_maps_into_its_core() {
        let net = net();
        let plan = ShardPlan::grid(&net, 4, 4, 100.0);
        let b = plan.bounds();
        for (gx, gy) in [(0.1, 0.2), (0.5, 0.5), (0.73, 0.11), (0.99, 0.99)] {
            let p = Point::new(b.min.x + gx * b.width(), b.min.y + gy * b.height());
            let s = plan.shard_of_point(p);
            assert!(plan.core(s).contains_point(p), "core {s} must cover {p:?}");
        }
        // Outside points clamp to an edge cell rather than panicking.
        let far = Point::new(b.max.x + 1e6, b.min.y - 1e6);
        assert!(plan.shard_of_point(far) < plan.num_shards());
    }

    #[test]
    fn home_shard_requires_region_containment() {
        let net = net();
        let plan = ShardPlan::grid(&net, 2, 1, 300.0);
        let deep = plan.core(0).center();
        let qb = BBox::from_point(deep).inflated(200.0);
        assert_eq!(plan.home_shard(&qb), Some(0));
        // A box spanning the whole extent fits no single region.
        assert_eq!(plan.home_shard(&plan.bounds().inflated(400.0)), None);
    }

    #[test]
    fn construction_is_deterministic() {
        let net = net();
        let a = ShardPlan::grid(&net, 3, 3, 500.0);
        let b = ShardPlan::grid(&net, 3, 3, 500.0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_panic() {
        let _ = ShardPlan::grid(&net(), 0, 2, 10.0);
    }
}
