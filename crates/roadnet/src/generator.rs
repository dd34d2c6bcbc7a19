//! Synthetic urban road-network generator.
//!
//! Stands in for the paper's Beijing road network (106,579 nodes / 141,380
//! segments). The generator produces a perturbed grid city with:
//!
//! - configurable extent (blocks × block size),
//! - **arterial** rows/columns at a configurable period with higher speed
//!   limits (so route choice has genuinely faster, longer options — the
//!   precondition for Observation 1's skewed travel patterns),
//! - random street **removals** (breaking the perfect grid into irregular
//!   super-blocks) with strong-connectivity always preserved,
//! - random **one-way** conversions of residential streets,
//! - node-position jitter and curved street shapes, so geometry is not
//!   axis-aligned and map-matching faces realistic ambiguity.
//!
//! Generation is fully deterministic for a given [`NetworkConfig::seed`].

use crate::digraph::CsrView;
use crate::ids::NodeId;
use crate::network::{RoadNetwork, RoadNetworkBuilder};
use hris_geo::{Point, Polyline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Functional class of a road, determining its speed limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Local street, 30 km/h.
    Residential,
    /// Arterial road, 60 km/h.
    Arterial,
    /// Urban expressway, 90 km/h.
    Highway,
}

impl RoadClass {
    /// Speed limit in metres per second.
    #[must_use]
    pub fn speed_limit(self) -> f64 {
        match self {
            RoadClass::Residential => 30.0 / 3.6,
            RoadClass::Arterial => 60.0 / 3.6,
            RoadClass::Highway => 90.0 / 3.6,
        }
    }
}

/// Parameters of the synthetic city.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Number of blocks along x.
    pub blocks_x: usize,
    /// Number of blocks along y.
    pub blocks_y: usize,
    /// Nominal block edge length in metres.
    pub block_m: f64,
    /// Node-position jitter as a fraction of `block_m` (0 to ~0.4).
    pub jitter_frac: f64,
    /// Every `arterial_every`-th row/column becomes an arterial (0 disables).
    pub arterial_every: usize,
    /// Fraction of residential streets the generator tries to remove.
    pub removal_frac: f64,
    /// Fraction of surviving residential streets converted to one-way.
    pub oneway_frac: f64,
    /// Street-midpoint perpendicular offset as a fraction of street length.
    pub curve_frac: f64,
    /// PRNG seed; equal seeds give identical networks.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            blocks_x: 24,
            blocks_y: 24,
            block_m: 250.0,
            jitter_frac: 0.15,
            arterial_every: 6,
            removal_frac: 0.12,
            oneway_frac: 0.15,
            curve_frac: 0.06,
            seed: 42,
        }
    }
}

impl NetworkConfig {
    /// A small city for unit tests (fast to generate, still irregular).
    #[must_use]
    pub fn small(seed: u64) -> Self {
        NetworkConfig {
            blocks_x: 8,
            blocks_y: 8,
            block_m: 200.0,
            arterial_every: 4,
            seed,
            ..Default::default()
        }
    }

    /// A large city for the paper-scale experiments (~40 km × 40 km when
    /// combined with the default block size — enough for 30 km queries).
    #[must_use]
    pub fn large(seed: u64) -> Self {
        NetworkConfig {
            blocks_x: 64,
            blocks_y: 64,
            block_m: 400.0,
            arterial_every: 8,
            seed,
            ..Default::default()
        }
    }
}

/// One undirected street between two grid nodes, before materialisation.
#[derive(Debug, Clone)]
struct Street {
    a: usize,
    b: usize,
    class: RoadClass,
    oneway: bool,
}

/// Generates a road network from `config`.
///
/// The result is guaranteed strongly connected: removals and one-way
/// conversions that would break strong connectivity are rolled back.
#[must_use]
pub fn generate(config: &NetworkConfig) -> RoadNetwork {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let nx = config.blocks_x + 1;
    let ny = config.blocks_y + 1;

    // --- nodes: jittered grid -------------------------------------------
    let mut positions = Vec::with_capacity(nx * ny);
    let jitter = config.block_m * config.jitter_frac;
    for j in 0..ny {
        for i in 0..nx {
            let dx = if jitter > 0.0 {
                rng.gen_range(-jitter..jitter)
            } else {
                0.0
            };
            let dy = if jitter > 0.0 {
                rng.gen_range(-jitter..jitter)
            } else {
                0.0
            };
            positions.push(Point::new(
                i as f64 * config.block_m + dx,
                j as f64 * config.block_m + dy,
            ));
        }
    }
    let at = |i: usize, j: usize| j * nx + i;

    // --- streets: grid edges with classes --------------------------------
    let is_arterial_line =
        |idx: usize| config.arterial_every > 0 && idx.is_multiple_of(config.arterial_every);
    let mut streets: Vec<Street> = Vec::new();
    for j in 0..ny {
        for i in 0..nx {
            if i + 1 < nx {
                let class = if is_arterial_line(j) {
                    RoadClass::Arterial
                } else {
                    RoadClass::Residential
                };
                streets.push(Street {
                    a: at(i, j),
                    b: at(i + 1, j),
                    class,
                    oneway: false,
                });
            }
            if j + 1 < ny {
                let class = if is_arterial_line(i) {
                    RoadClass::Arterial
                } else {
                    RoadClass::Residential
                };
                streets.push(Street {
                    a: at(i, j),
                    b: at(i, j + 1),
                    class,
                    oneway: false,
                });
            }
        }
    }
    // Ring highway on the outer boundary when arterials are enabled
    // (upgrades boundary arterials), echoing Beijing's ring roads.
    if config.arterial_every > 0 {
        for s in &mut streets {
            let (ai, aj) = (s.a % nx, s.a / nx);
            let (bi, bj) = (s.b % nx, s.b / nx);
            let on_boundary = |i: usize, j: usize| i == 0 || j == 0 || i == nx - 1 || j == ny - 1;
            if on_boundary(ai, aj) && on_boundary(bi, bj) {
                s.class = RoadClass::Highway;
            }
        }
    }

    // --- removals: residential only, strong connectivity preserved -------
    let removable: Vec<usize> = (0..streets.len())
        .filter(|&i| streets[i].class == RoadClass::Residential)
        .collect();
    let target_removals = (removable.len() as f64 * config.removal_frac) as usize;
    let mut alive = vec![true; streets.len()];
    let mut order = removable;
    shuffle(&mut order, &mut rng);
    let mut removed = 0usize;
    // Batched removal with rollback keeps generation O(batches · E).
    let batch = 24usize;
    let mut k = 0;
    while removed < target_removals && k < order.len() {
        let end = (k + batch).min(order.len());
        let chunk: Vec<usize> = order[k..end]
            .iter()
            .copied()
            .take(target_removals - removed)
            .collect();
        for &i in &chunk {
            alive[i] = false;
        }
        if strongly_connected(&streets, &alive, nx * ny) {
            removed += chunk.len();
        } else {
            // Retry the batch one by one.
            for &i in &chunk {
                alive[i] = true;
            }
            for &i in &chunk {
                if removed >= target_removals {
                    break;
                }
                alive[i] = false;
                if strongly_connected(&streets, &alive, nx * ny) {
                    removed += 1;
                } else {
                    alive[i] = true;
                }
            }
        }
        k = end;
    }

    // --- one-way conversions: residential only, connectivity preserved ---
    let mut oneway_candidates: Vec<usize> = (0..streets.len())
        .filter(|&i| alive[i] && streets[i].class == RoadClass::Residential)
        .collect();
    shuffle(&mut oneway_candidates, &mut rng);
    let target_oneway = (oneway_candidates.len() as f64 * config.oneway_frac) as usize;
    let mut converted = 0usize;
    for &i in &oneway_candidates {
        if converted >= target_oneway {
            break;
        }
        if rng.gen_bool(0.5) {
            let s = &mut streets[i];
            std::mem::swap(&mut s.a, &mut s.b);
        }
        streets[i].oneway = true;
        if strongly_connected(&streets, &alive, nx * ny) {
            converted += 1;
        } else {
            streets[i].oneway = false;
        }
    }

    // --- materialise ------------------------------------------------------
    let mut b = RoadNetworkBuilder::new();
    let node_ids: Vec<NodeId> = positions.iter().map(|&p| b.add_node(p)).collect();
    for (i, s) in streets.iter().enumerate() {
        if !alive[i] {
            continue;
        }
        let pa = positions[s.a];
        let pb = positions[s.b];
        let shape = curved_shape(pa, pb, config.curve_frac, &mut rng);
        let speed = s.class.speed_limit();
        if s.oneway {
            b.add_segment(node_ids[s.a], node_ids[s.b], shape, speed, s.class);
        } else {
            b.add_two_way(node_ids[s.a], node_ids[s.b], shape, speed, s.class);
        }
    }
    let net = b.build();
    debug_assert!(net.is_strongly_connected());
    net
}

/// Gentle curve: straight line with a perpendicular midpoint offset.
fn curved_shape(a: Point, b: Point, curve_frac: f64, rng: &mut StdRng) -> Polyline {
    if curve_frac <= 0.0 {
        return Polyline::straight(a, b);
    }
    let mid = a.midpoint(b);
    let dir = b - a;
    let Some(unit) = dir.normalized() else {
        return Polyline::straight(a, b);
    };
    let normal = Point::new(-unit.y, unit.x);
    let len = dir.norm();
    let off = rng.gen_range(-1.0..1.0) * curve_frac * len;
    Polyline::new(vec![a, mid + normal * off, b])
}

/// Strong connectivity of the street multigraph restricted to `alive` streets.
fn strongly_connected(streets: &[Street], alive: &[bool], num_nodes: usize) -> bool {
    let mut edges = Vec::with_capacity(streets.len() * 2);
    for (s, _) in streets.iter().zip(alive).filter(|(_, &on)| on) {
        edges.push((s.a as u32, s.b as u32, 1.0));
        if !s.oneway {
            edges.push((s.b as u32, s.a as u32, 1.0));
        }
    }
    CsrView::new(num_nodes, edges.iter().copied()).is_strongly_connected()
}

/// Fisher–Yates shuffle (avoids pulling in `rand`'s slice extension traits).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_network_is_strongly_connected() {
        let net = generate(&NetworkConfig::small(7));
        assert!(net.is_strongly_connected());
        assert!(net.num_nodes() > 0);
        assert!(net.num_segments() > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&NetworkConfig::small(123));
        let b = generate(&NetworkConfig::small(123));
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_segments(), b.num_segments());
        for (sa, sb) in a.segments().iter().zip(b.segments().iter()) {
            assert_eq!(sa.from, sb.from);
            assert_eq!(sa.to, sb.to);
            assert!((sa.length - sb.length).abs() < 1e-9);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&NetworkConfig::small(1));
        let b = generate(&NetworkConfig::small(2));
        // Either topology or geometry must differ.
        let same_count = a.num_segments() == b.num_segments();
        let geom_same = same_count
            && a.segments()
                .iter()
                .zip(b.segments().iter())
                .all(|(x, y)| (x.length - y.length).abs() < 1e-9);
        assert!(!geom_same, "different seeds should change the network");
    }

    #[test]
    fn has_multiple_road_classes() {
        let net = generate(&NetworkConfig::small(5));
        let mut classes: Vec<RoadClass> = net.segments().iter().map(|s| s.class).collect();
        classes.dedup();
        let has = |c: RoadClass| net.segments().iter().any(|s| s.class == c);
        assert!(has(RoadClass::Residential));
        assert!(has(RoadClass::Arterial));
        assert!(has(RoadClass::Highway));
    }

    #[test]
    fn removals_thin_the_grid() {
        let full = generate(&NetworkConfig {
            removal_frac: 0.0,
            oneway_frac: 0.0,
            seed: 9,
            ..NetworkConfig::small(9)
        });
        let thinned = generate(&NetworkConfig {
            removal_frac: 0.25,
            oneway_frac: 0.0,
            seed: 9,
            ..NetworkConfig::small(9)
        });
        assert!(thinned.num_segments() < full.num_segments());
        assert!(thinned.is_strongly_connected());
    }

    #[test]
    fn oneway_creates_asymmetry() {
        let net = generate(&NetworkConfig {
            oneway_frac: 0.3,
            seed: 11,
            ..NetworkConfig::small(11)
        });
        // Count directed segments without a reverse twin.
        let mut asym = 0;
        for seg in net.segments() {
            let has_twin = net
                .out_segments(seg.to)
                .iter()
                .any(|&s| net.segment(s).to == seg.from);
            if !has_twin {
                asym += 1;
            }
        }
        assert!(
            asym > 0,
            "one-way conversion should create asymmetric pairs"
        );
        assert!(net.is_strongly_connected());
    }

    #[test]
    fn speed_limits_match_class() {
        let net = generate(&NetworkConfig::small(3));
        for seg in net.segments() {
            assert!((seg.speed_limit - seg.class.speed_limit()).abs() < 1e-9);
        }
        assert!((RoadClass::Highway.speed_limit() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn extent_covers_configured_area() {
        let cfg = NetworkConfig::small(17);
        let net = generate(&cfg);
        let bbox = net.bbox();
        // Jitter can push slightly beyond nominal extent; allow one block.
        assert!(bbox.width() >= (cfg.blocks_x - 1) as f64 * cfg.block_m);
        assert!(bbox.height() >= (cfg.blocks_y - 1) as f64 * cfg.block_m);
    }
}
