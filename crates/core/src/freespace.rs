//! Network-free route inference — the paper's second future-work item:
//! "extend our solution to deal with the case where the road network is
//! not available".
//!
//! Without a road graph there are no road segments, candidate edges,
//! traverse graphs or K-shortest paths. What remains is the heart of the
//! method: *historical reference points still say where objects travel*.
//! For each query pair we run the NNI-style constrained nearest-neighbour
//! walk (Algorithm 2's geometry is network-free already — α/β constraints
//! are pure point geometry) over the reference point cloud, pick the walk
//! best supported by distinct historical trajectories, and emit the traces
//! chained across pairs as one free-space [`Polyline`].
//!
//! Output quality is evaluated with a curve metric
//! ([`hris_geo::mean_deviation`]) rather than the segment-based `A_L` —
//! see the `freespace` experiment.

use crate::reference::{search_references, RefSearchConfig};
use hris_geo::{BBox, Point, Polyline};
use hris_rtree::{RTree, Spatial};
use hris_traj::{Trajectory, TrajectoryArchive};
use std::collections::HashMap;

/// Parameters of network-free inference.
#[derive(Debug, Clone)]
pub struct FreespaceParams {
    /// Reference search radius `φ`, metres.
    pub phi_m: f64,
    /// Splicing threshold `e`, metres.
    pub splice_eps_m: f64,
    /// Constrained-kNN fan-out per step (the `k₂` analogue).
    pub k: usize,
    /// Away-from-destination tolerance `α`, metres.
    pub alpha_m: f64,
    /// Detour-ratio tolerance `β`.
    pub beta: f64,
    /// Maximum enumerated walks per pair.
    pub max_paths: usize,
    /// A walk arriving within this distance of `q_{i+1}` counts as having
    /// reached the destination (the exact terminal point is rarely among
    /// the k nearest neighbours inside a dense cloud).
    pub arrival_radius_m: f64,
    /// Minimum step length of the walk, metres. The paper's reference
    /// points are minutes apart; our archives mix in high-rate trips whose
    /// points are tens of metres apart, and stepping through those one by
    /// one makes the recursion combinatorially explode. Skipping
    /// nearer-than-`min_step_m` candidates restores the paper's regime.
    pub min_step_m: f64,
    /// Assumed maximum travel speed (no network to supply `V_max`), m/s.
    pub v_max: f64,
}

impl Default for FreespaceParams {
    fn default() -> Self {
        FreespaceParams {
            phi_m: 500.0,
            splice_eps_m: 150.0,
            k: 4,
            alpha_m: 500.0,
            beta: 2.0,
            max_paths: 16,
            arrival_radius_m: 150.0,
            min_step_m: 120.0,
            v_max: 25.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CloudPoint {
    pos: Point,
    /// Reference index within the pair's reference set; `usize::MAX` marks
    /// the terminal.
    ref_idx: usize,
    id: usize,
}

impl Spatial for CloudPoint {
    fn bbox(&self) -> BBox {
        BBox::from_point(self.pos)
    }
}

/// Infers a free-space polyline route for `query` using only the archive.
///
/// Returns `None` for queries with fewer than 2 points. Pairs whose walks
/// fail fall back to the straight connector, so the result always spans the
/// whole query.
#[must_use]
pub fn infer_polyline(
    archive: &TrajectoryArchive,
    query: &Trajectory,
    params: &FreespaceParams,
) -> Option<Polyline> {
    if query.len() < 2 {
        return None;
    }
    let mut vertices: Vec<Point> = vec![query.points[0].pos];
    for w in query.points.windows(2) {
        let (qi, qj) = (w[0], w[1]);
        let dt = (qj.t - qi.t).max(1.0);
        let cfg = RefSearchConfig::new(params.phi_m, params.splice_eps_m);
        let refs = search_references(archive, qi.pos, qj.pos, dt, params.v_max, &cfg);
        let trace = best_walk(&refs, qi.pos, qj.pos, params);
        vertices.extend(trace);
        vertices.push(qj.pos);
    }
    // Collapse exact duplicates produced by empty traces.
    vertices.dedup_by(|a, b| a.dist(*b) < 1e-9);
    if vertices.len() < 2 {
        vertices.push(query.points.last()?.pos + Point::new(1e-6, 0.0));
    }
    Some(Polyline::new(vertices))
}

/// The constrained-kNN walk of Algorithm 2 in free space; returns the
/// intermediate trace points of the *best-supported* walk (may be empty,
/// meaning "go straight").
fn best_walk(
    refs: &crate::reference::ReferenceSet,
    qi: Point,
    qj: Point,
    params: &FreespaceParams,
) -> Vec<Point> {
    // Point cloud with provenance.
    let mut cloud: Vec<CloudPoint> = Vec::new();
    for (ri, r) in refs.refs.iter().enumerate() {
        for p in &r.points {
            cloud.push(CloudPoint {
                pos: p.pos,
                ref_idx: ri,
                id: cloud.len(),
            });
        }
    }
    let terminal = cloud.len();
    cloud.push(CloudPoint {
        pos: qj,
        ref_idx: usize::MAX,
        id: terminal,
    });
    let tree = RTree::bulk_load(cloud.clone());
    let d_qi_qj = qi.dist(qj);

    let expand = |from: Point| -> Vec<usize> {
        let d_c = from.dist(qj);
        let alpha_left = (params.alpha_m - (d_c - d_qi_qj).max(0.0)).max(0.0);
        let mut nn = Vec::new();
        for n in tree.nearest_iter(from, |p, q| p.pos.dist(q)) {
            if nn.len() >= params.k.max(1) {
                break;
            }
            let p = n.item;
            if p.id != terminal && p.pos.dist(from) < params.min_step_m {
                continue;
            }
            let d_p = p.pos.dist(qj);
            if d_p - alpha_left > d_c {
                continue;
            }
            if d_c > 1e-9 && (from.dist(p.pos) + d_p) / d_c > params.beta {
                continue;
            }
            if p.id == terminal {
                return vec![terminal];
            }
            nn.push(p.id);
        }
        // Destination-greedy ordering: explore the successor closest to
        // q_{i+1} first (the stack pops from the back, so sort descending).
        nn.sort_by(|&a, &b| cloud[b].pos.dist(qj).total_cmp(&cloud[a].pos.dist(qj)));
        nn
    };

    // DFS with memoised expansions (substructure sharing).
    let mut memo: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut paths: Vec<Vec<usize>> = Vec::new();
    let start = usize::MAX;
    let mut stack: Vec<(usize, Vec<usize>)> = vec![(start, Vec::new())];
    let mut budget = 2_000usize.max(cloud.len() * 4);
    while let Some((node, path)) = stack.pop() {
        if paths.len() >= params.max_paths.max(1) || budget == 0 {
            break;
        }
        budget -= 1;
        let pos = if node == start { qi } else { cloud[node].pos };
        // Arrival check: close enough to the destination ends the walk.
        if node != start && pos.dist(qj) <= params.arrival_radius_m {
            paths.push(path);
            continue;
        }
        let succs = if node != start {
            memo.entry(node).or_insert_with(|| expand(pos)).clone()
        } else {
            expand(pos)
        };
        for &next in &succs {
            if next == terminal {
                paths.push(path.clone());
                continue;
            }
            if path.contains(&next) {
                continue;
            }
            let mut np = path.clone();
            np.push(next);
            stack.push((next, np));
        }
    }

    // Pick the walk supported by the most distinct references (Observation
    // 2: complementary trajectories reinforcing one route); ties favour the
    // shorter trace.
    paths
        .into_iter()
        .max_by(|a, b| {
            let support = |p: &Vec<usize>| {
                let mut set = std::collections::HashSet::new();
                for &id in p {
                    set.insert(cloud[id].ref_idx);
                }
                set.len()
            };
            support(a).cmp(&support(b)).then(b.len().cmp(&a.len()))
        })
        .map(|p| p.into_iter().map(|id| cloud[id].pos).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hris_traj::{GpsPoint, TrajId};

    /// Archive of trajectories following an L-shaped corridor
    /// (0,0)→(1000,0)→(1000,1000), sampled sparsely at alternating phases.
    fn corridor_archive() -> TrajectoryArchive {
        let mut trips = Vec::new();
        for k in 0..8 {
            let offset = k as f64 * 37.0 % 250.0;
            let mut pts = Vec::new();
            let mut t = 0.0;
            // Along x.
            let mut d = offset;
            while d < 1000.0 {
                pts.push(GpsPoint::new(Point::new(d, (k % 3) as f64 * 8.0), t));
                t += 30.0;
                d += 250.0;
            }
            // Along y.
            let mut d = d - 1000.0;
            while d < 1000.0 {
                pts.push(GpsPoint::new(
                    Point::new(1000.0 - (k % 2) as f64 * 8.0, d),
                    t,
                ));
                t += 30.0;
                d += 250.0;
            }
            trips.push(Trajectory::new(TrajId(0), pts));
        }
        TrajectoryArchive::new(trips)
    }

    fn sparse_query() -> Trajectory {
        // Only the corners are observed, 5 minutes apart.
        Trajectory::new(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(0.0, 0.0), 0.0),
                GpsPoint::new(Point::new(1000.0, 1000.0), 300.0),
            ],
        )
    }

    #[test]
    fn recovers_l_shape_from_history() {
        let archive = corridor_archive();
        let q = sparse_query();
        let inferred = infer_polyline(&archive, &q, &FreespaceParams::default()).unwrap();
        // The straight-line guess misses the corner by ~700 m; history
        // should pull the curve toward it.
        let corner = Point::new(1000.0, 0.0);
        let straight = Polyline::straight(q.points[0].pos, q.points[1].pos);
        assert!(straight.dist_to_point(corner) > 600.0);
        assert!(
            inferred.dist_to_point(corner) < 300.0,
            "corner missed by {:.0} m",
            inferred.dist_to_point(corner)
        );
        // Better overall deviation against the true corridor.
        let truth = Polyline::new(vec![
            Point::new(0.0, 0.0),
            corner,
            Point::new(1000.0, 1000.0),
        ]);
        let dev_inferred = hris_geo::mean_deviation(&truth, &inferred, 100);
        let dev_straight = hris_geo::mean_deviation(&truth, &straight, 100);
        assert!(
            dev_inferred < dev_straight * 0.7,
            "inferred {dev_inferred:.0} vs straight {dev_straight:.0}"
        );
    }

    #[test]
    fn empty_archive_degrades_to_straight_line() {
        let q = sparse_query();
        let inferred =
            infer_polyline(&TrajectoryArchive::empty(), &q, &FreespaceParams::default()).unwrap();
        // Only the two query points remain.
        assert_eq!(inferred.vertices().len(), 2);
    }

    #[test]
    fn degenerate_queries() {
        let archive = corridor_archive();
        let empty = Trajectory::new(TrajId(0), vec![]);
        assert!(infer_polyline(&archive, &empty, &FreespaceParams::default()).is_none());
        let single = Trajectory::new(TrajId(0), vec![GpsPoint::new(Point::new(1.0, 1.0), 0.0)]);
        assert!(infer_polyline(&archive, &single, &FreespaceParams::default()).is_none());
    }

    #[test]
    fn multi_pair_query_spans_all_points() {
        let archive = corridor_archive();
        let q = Trajectory::new(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(0.0, 0.0), 0.0),
                GpsPoint::new(Point::new(1000.0, 30.0), 150.0),
                GpsPoint::new(Point::new(1000.0, 1000.0), 300.0),
            ],
        );
        let inferred = infer_polyline(&archive, &q, &FreespaceParams::default()).unwrap();
        assert!(inferred.start().dist(q.points[0].pos) < 1e-6);
        assert!(inferred.end().dist(q.points[2].pos) < 1e-6);
        // Intermediate fix lies on the inferred curve.
        assert!(inferred.dist_to_point(q.points[1].pos) < 1e-6);
    }
}
