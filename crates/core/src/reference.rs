//! Reference-trajectory search (Section III-A, Definitions 6 and 7).
//!
//! For a consecutive query point pair `⟨q_i, q_{i+1}⟩`:
//!
//! - A **simple reference** is a historical trajectory whose nearest points
//!   to `q_i` and `q_{i+1}` both fall within radius `φ`, and whose
//!   in-between sub-trajectory is *speed-feasible*: every point `p` obeys
//!   `d(p, q_i) + d(p, q_{i+1}) ≤ Δt · V_max` (the query object could have
//!   detoured through `p` in the available time).
//! - A **spliced reference** stitches a trajectory coming from `q_i` with a
//!   different one heading into `q_{i+1}`, joined at a *splicing pair* of
//!   points at most `e` apart, and must satisfy the same conditions.
//!
//! Search uses two `φ`-range queries on the archive's R-tree, a merge join
//! by trajectory id for simple references, and a uniform-grid spatial join
//! for splicing pairs.

use hris_geo::Point;
use hris_roadnet::SparseSlots;
use hris_traj::{ArchivePoint, GpsPoint, TrajId, TrajectoryArchive};

/// How a reference was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefKind {
    /// Natively existing in the archive (Definition 6).
    Simple,
    /// Stitched from two trajectories (Definition 7).
    Spliced,
}

/// One reference trajectory for a query pair.
#[derive(Debug, Clone)]
pub struct RefTrajectory {
    /// Simple or spliced.
    pub kind: RefKind,
    /// The underlying historical trajectory id(s): one for simple
    /// references, two for spliced. Used by the transition-confidence
    /// function, which intersects reference sets *across* query pairs.
    pub sources: Vec<TrajId>,
    /// The reference's points between (approximately) `q_i` and `q_{i+1}`,
    /// in travel order.
    pub points: Vec<GpsPoint>,
}

/// All references of one query pair `⟨q_i, q_{i+1}⟩` (the paper's `C_i`).
#[derive(Debug, Clone, Default)]
pub struct ReferenceSet {
    /// The references; index in this vector is the reference's identity
    /// within the pair.
    pub refs: Vec<RefTrajectory>,
}

impl ReferenceSet {
    /// Number of references.
    #[must_use]
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// `true` when no reference was found.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Total number of reference points (the paper's `P_i`).
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.refs.iter().map(|r| r.points.len()).sum()
    }

    /// Reference-point density in points per km² over the minimum bounding
    /// box of `P_i` (the hybrid switch's `ρ`). Returns `f64::INFINITY` for a
    /// degenerate (zero-area) box with points present, 0 when empty.
    #[must_use]
    pub fn density_per_km2(&self) -> f64 {
        let n = self.num_points();
        if n == 0 {
            return 0.0;
        }
        let bbox = hris_geo::BBox::covering(
            self.refs
                .iter()
                .flat_map(|r| r.points.iter().map(|p| p.pos)),
        );
        let km2 = hris_geo::area_km2(&bbox);
        if km2 <= f64::EPSILON {
            f64::INFINITY
        } else {
            n as f64 / km2
        }
    }
}

/// Knobs of the reference search.
#[derive(Debug, Clone, Copy)]
pub struct RefSearchConfig {
    /// Search radius `φ`, metres.
    pub phi: f64,
    /// Splicing distance threshold `e`, metres (0 disables splicing).
    pub splice_eps: f64,
    /// Splicing only runs when fewer simple references than this were found
    /// — the paper introduces spliced references for "an area with sparse
    /// historical data"; cross-joining half-trajectories in dense areas
    /// adds thousands of near-duplicate references for no information gain.
    pub splice_when_simple_below: usize,
    /// Keep at most this many references per pair, preferring the ones
    /// whose nearest points sit closest to `q_i`/`q_{i+1}` (the paper's
    /// Figure 9 observation: beyond a point, extra references are
    /// "irrelevant trajectories which are less useful").
    pub max_refs: usize,
    /// Time-of-day filter `(query_tod_s, tolerance_s)`: only references
    /// observed within `tolerance_s` (circular, over a 24 h day) of the
    /// query's time-of-day qualify. `None` disables it. Implements the
    /// paper's future-work extension "incorporate more information into the
    /// route inference system, such as the time" — rush-hour queries should
    /// be explained by rush-hour traffic.
    pub temporal: Option<(f64, f64)>,
}

impl RefSearchConfig {
    /// Configuration with radius `phi` and splice threshold `splice_eps`,
    /// default gating/caps.
    #[must_use]
    pub fn new(phi: f64, splice_eps: f64) -> Self {
        RefSearchConfig {
            phi,
            splice_eps,
            splice_when_simple_below: 64,
            max_refs: 512,
            temporal: None,
        }
    }
}

/// Circular time-of-day distance in seconds over a 24 h period.
#[must_use]
pub fn tod_distance_s(a: f64, b: f64) -> f64 {
    const DAY: f64 = 86_400.0;
    let d = (a.rem_euclid(DAY) - b.rem_euclid(DAY)).abs();
    d.min(DAY - d)
}

/// Searches the references of one query pair.
///
/// * `dt` — the time available to travel the pair (`q_{i+1}.t − q_i.t`), s.
/// * `v_max` — the network's maximum speed (`V_max`), m/s.
#[must_use]
pub fn search_references(
    archive: &TrajectoryArchive,
    qi: Point,
    qj: Point,
    dt: f64,
    v_max: f64,
    cfg: &RefSearchConfig,
) -> ReferenceSet {
    let phi = cfg.phi;
    let splice_eps = cfg.splice_eps;
    let budget = dt * v_max;
    // Range queries at both endpoints.
    let near_i = archive.points_within(qi, phi);
    let near_j = archive.points_within(qj, phi);

    // Per-trajectory nearest hit to each endpoint, sorted by id (see
    // `nearest_rows`), on the archive's pooled trip table.
    let (rows_i, rows_j) = archive.with_trip_slots(|slots| {
        (
            nearest_rows(slots, &near_i, qi),
            nearest_rows(slots, &near_j, qj),
        )
    });

    // Trajectories present on both sides (merge walk, ascending-id order),
    // carrying their nearest indices.
    let mut both: Vec<(TrajId, usize, usize)> = Vec::new();
    {
        let (mut a, mut b) = (0usize, 0usize);
        while a < rows_i.len() && b < rows_j.len() {
            match rows_i[a].0.cmp(&rows_j[b].0) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    both.push((rows_i[a].0, rows_i[a].1, rows_j[b].1));
                    a += 1;
                    b += 1;
                }
            }
        }
    }

    let mut refs = Vec::new();
    // Relevance key for the per-pair cap: how close the reference's
    // endpoints come to the query points.
    let mut relevance: Vec<f64> = Vec::new();
    // Ids that qualified as simple references; ascending (pushed while
    // walking `both` in order), so membership is a binary search.
    let mut simple_ids: Vec<TrajId> = Vec::new();

    // --- simple references: merge join on trajectory id ------------------
    for &(id, m, n) in &both {
        let traj = archive.trajectory(id);
        let (pm, pn) = (&traj.points[m], &traj.points[n]);
        // Conditions 1–2: global nearest points within φ (guaranteed by the
        // range query; kept as a guard).
        if pm.pos.dist(qi) > phi || pn.pos.dist(qj) > phi {
            continue;
        }
        // The reference must travel in the query's direction.
        if n < m {
            continue;
        }
        // Optional temporal extension: the reference must be observed at a
        // compatible time of day.
        if let Some((tod, tol)) = cfg.temporal {
            if tod_distance_s(pm.t, tod) > tol {
                continue;
            }
        }
        // Condition 3: speed feasibility of every in-between point.
        let sub = &traj.points[m..=n];
        if speed_feasible(sub, qi, qj, budget) {
            simple_ids.push(id);
            relevance.push(pm.pos.dist(qi) + pn.pos.dist(qj));
            refs.push(RefTrajectory {
                kind: RefKind::Simple,
                sources: vec![id],
                points: sub.to_vec(),
            });
        }
    }

    // --- spliced references (sparse areas only) ---------------------------
    if splice_eps > 0.0 && refs.len() < cfg.splice_when_simple_below {
        // Side A: trajectories near q_i that did not qualify as simple.
        // For each, the tail from its nearest point to q_i onwards.
        let mut side_a: Vec<(TrajId, usize, usize)> = Vec::new(); // (id, nn_idx, last_usable)
        for &(id, m) in &rows_i {
            if simple_ids.binary_search(&id).is_ok() {
                continue;
            }
            let traj = archive.trajectory(id);
            if traj.points[m].pos.dist(qi) > phi {
                continue;
            }
            side_a.push((id, m, traj.len() - 1));
        }
        // Side B: trajectories near q_{i+1}, prefix up to the nearest point.
        let mut side_b: Vec<(TrajId, usize, usize)> = Vec::new(); // (id, first_usable, nn_idx)
        for &(id, n) in &rows_j {
            if simple_ids.binary_search(&id).is_ok() {
                continue;
            }
            let traj = archive.trajectory(id);
            if traj.points[n].pos.dist(qj) > phi {
                continue;
            }
            side_b.push((id, 0, n));
        }

        let pos = |id: TrajId, k: usize| archive.trajectory(id).points[k].pos;
        let joined = splice_pairs(&side_a, &side_b, pos, (qi, qj, budget), splice_eps);
        for (ai, bi, ka, kb) in joined {
            let (id_a, nn_a, _) = side_a[ai];
            let (id_b, _, nn_b) = side_b[bi];
            if kb > nn_b {
                continue;
            }
            let ta = archive.trajectory(id_a);
            let tb = archive.trajectory(id_b);
            let mut points: Vec<GpsPoint> = ta.points[nn_a..=ka].to_vec();
            points.extend_from_slice(&tb.points[kb..=nn_b]);
            // Re-check Definition 6's conditions on the stitched result.
            if points.len() < 2 {
                continue;
            }
            if !speed_feasible(&points, qi, qj, budget) {
                continue;
            }
            if let Some((tod, tol)) = cfg.temporal {
                if tod_distance_s(points[0].t, tod) > tol {
                    continue;
                }
            }
            relevance.push(points[0].pos.dist(qi) + points.last().expect("len>=2").pos.dist(qj));
            refs.push(RefTrajectory {
                kind: RefKind::Spliced,
                sources: vec![id_a, id_b],
                points,
            });
        }
    }

    // --- per-pair cap: keep the most relevant references -----------------
    if refs.len() > cfg.max_refs {
        let mut order: Vec<usize> = (0..refs.len()).collect();
        order.sort_by(|&a, &b| relevance[a].total_cmp(&relevance[b]));
        order.truncate(cfg.max_refs);
        order.sort_unstable(); // preserve original relative order
        let mut kept = Vec::with_capacity(cfg.max_refs);
        for i in order {
            kept.push(refs[i].clone());
        }
        refs = kept;
    }

    ReferenceSet { refs }
}

/// Each trajectory's nearest hit to `q`, as `(trip, point index)` rows in
/// ascending trip id. A trajectory's globally nearest point to the endpoint
/// is no farther than any of its φ-hits, hence itself a φ-hit — so the
/// argmin over the hits (ties to the smallest index, as
/// `Trajectory::nearest_point` breaks them) IS the global nearest point,
/// without scanning whole trajectories. Trip ids are dense archive indices,
/// so the argmin runs over a trip-indexed table, no hashing, and costs the
/// trips hit, not the archive.
fn nearest_rows(
    slots: &mut SparseSlots<(f64, u32)>,
    hits: &[&ArchivePoint],
    q: Point,
) -> Vec<(TrajId, usize)> {
    for p in hits {
        let slot = slots.slot(p.traj.index());
        let d2 = p.pos.dist_sq(q);
        if d2 < slot.0 || (d2 == slot.0 && p.point_idx < slot.1) {
            *slot = (d2, p.point_idx);
        }
    }
    slots.sort_touched();
    // A hit whose distance is NaN never fills its slot.
    let rows = slots.touched().iter().filter_map(|&t| {
        let (_, k) = slots.get(t as usize);
        (k != u32::MAX).then_some((TrajId(t), k as usize))
    });
    let rows = rows.collect();
    slots.clear();
    rows
}

/// The splicing pairs of Definition 7: for every `(T_a, T_b)` of the two
/// sides — each a `(trip, lo, hi)` run of point indices, `pos` reading a
/// point — with a different trip and some pair of run points inside the
/// speed-feasible ellipse `(q_i, q_{i+1}, budget)` at most `splice_eps`
/// apart, the pair minimising `d(p_a, q_i) + d(p_b, q_{i+1})` (the first one
/// met on ties), as `(a, b, k_a, k_b)` in ascending `(a, b)` order.
///
/// Side B's feasible points are bucketed by `splice_eps` cell in one flat
/// array, sorted by cell with each cell keeping its insertion order, and
/// found through the sorted distinct cells and cell columns; each side-A
/// trip keeps its best pair per side-B trip in a row over side B that is
/// reset by its touched list. No hashing, and every buffer is sized by the
/// two sides.
fn splice_pairs(
    side_a: &[(TrajId, usize, usize)],
    side_b: &[(TrajId, usize, usize)],
    pos: impl Fn(TrajId, usize) -> Point,
    (qi, qj, budget): (Point, Point, f64),
    splice_eps: f64,
) -> Vec<(usize, usize, usize, usize)> {
    // Only points inside the speed-feasible ellipse can appear in a valid
    // spliced reference.
    let mut grid: Vec<GridEntry> = Vec::new();
    for (b, &(id, first, nn)) in side_b.iter().enumerate() {
        for k in first..=nn {
            let p = pos(id, k);
            let d_qj = p.dist(qj);
            let outside = p.dist(qi) + d_qj > budget;
            if !outside {
                let cell = cell(p, splice_eps);
                grid.push(GridEntry {
                    cell,
                    b,
                    k,
                    p,
                    d_qj,
                });
            }
        }
    }
    // Entries are pushed in (b, k) order, so this is the stable sort by
    // cell, without a merge buffer.
    grid.sort_unstable_by_key(|e| (e.cell, e.b, e.k));
    let mut cells: Vec<(i64, i64)> = Vec::new();
    let mut starts: Vec<usize> = Vec::new();
    for (i, &GridEntry { cell: c, .. }) in grid.iter().enumerate() {
        if cells.last() != Some(&c) {
            cells.push(c);
            starts.push(i);
        }
    }
    starts.push(grid.len());
    // The distinct cell columns, each with its run of `cells`. Cells sort by
    // (x, y), so an A point's neighbourhood is at most three adjacent
    // columns, in each the cells (x, y − 1 ..= y + 1) are one run, and
    // their entries one run of `grid`, met in the order the nine per-cell
    // probes of a hash grid would meet them.
    let mut xs: Vec<i64> = Vec::new();
    let mut x_starts: Vec<usize> = Vec::new();
    for (i, &(x, _)) in cells.iter().enumerate() {
        if xs.last() != Some(&x) {
            xs.push(x);
            x_starts.push(i);
        }
    }
    x_starts.push(cells.len());
    // Per side-B trip: (best value, k_a, k_b); touched ⇔ some pair was met.
    let mut best: SparseSlots<(f64, usize, usize)> = SparseSlots::new((f64::INFINITY, 0, 0));
    best.cover(side_b.len());
    let mut out = Vec::new();
    for (ai, &(id_a, nn_a, last)) in side_a.iter().enumerate() {
        for ka in nn_a..=last {
            let pa = pos(id_a, ka);
            let d_qi = pa.dist(qi);
            if d_qi + pa.dist(qj) > budget {
                continue;
            }
            let (x, y) = cell(pa, splice_eps);
            let first = xs.partition_point(|&cx| cx < x - 1);
            for xi in (first..xs.len()).take_while(|&xi| xs[xi] <= x + 1) {
                let column = &cells[x_starts[xi]..x_starts[xi + 1]];
                let lo = x_starts[xi] + column.partition_point(|c| c.1 < y - 1);
                let hi = x_starts[xi] + column.partition_point(|c| c.1 <= y + 1);
                for e in &grid[starts[lo]..starts[hi]] {
                    if side_b[e.b].0 == id_a || pa.dist(e.p) > splice_eps {
                        continue;
                    }
                    let val = d_qi + e.d_qj;
                    let entry = best.slot(e.b);
                    if val < entry.0 {
                        *entry = (val, ka, e.k);
                    }
                }
            }
        }
        best.sort_touched();
        out.extend(best.touched().iter().map(|&bi| {
            let (_, ka, kb) = best.get(bi as usize);
            (ai, bi as usize, ka, kb)
        }));
        best.clear();
    }
    out
}

/// A side-B point of the splice join: its cell, side-B trip `b`, point
/// index `k`, position and `d(p, q_{i+1})` — the join reads B points from
/// here, not from the archive.
struct GridEntry {
    cell: (i64, i64),
    b: usize,
    k: usize,
    p: Point,
    d_qj: f64,
}

/// Condition 3 of Definition 6 over a point run.
fn speed_feasible(points: &[GpsPoint], qi: Point, qj: Point, budget: f64) -> bool {
    points
        .iter()
        .all(|p| p.pos.dist(qi) + p.pos.dist(qj) <= budget)
}

fn cell(p: Point, size: f64) -> (i64, i64) {
    ((p.x / size).floor() as i64, (p.y / size).floor() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hris_traj::Trajectory;

    /// Archive with trajectories along the x-axis corridor.
    fn archive() -> TrajectoryArchive {
        let line = |y: f64, xs: &[f64], t0: f64| {
            Trajectory::new(
                TrajId(0),
                xs.iter()
                    .enumerate()
                    .map(|(k, &x)| GpsPoint::new(Point::new(x, y), t0 + k as f64 * 30.0))
                    .collect(),
            )
        };
        TrajectoryArchive::new(vec![
            // T0: full corridor pass, close to the axis → simple reference.
            line(20.0, &[0.0, 500.0, 1000.0, 1500.0, 2000.0], 0.0),
            // T1: only the first half (near q_i, not q_j).
            line(-30.0, &[0.0, 400.0, 900.0], 100.0),
            // T2: only the second half (near q_j, not q_i).
            line(40.0, &[1100.0, 1600.0, 2000.0], 200.0),
            // T3: far away parallel corridor.
            line(5_000.0, &[0.0, 1000.0, 2000.0], 0.0),
            // T4: passes both endpoints but detours wildly in between.
            Trajectory::new(
                TrajId(0),
                vec![
                    GpsPoint::new(Point::new(0.0, 0.0), 0.0),
                    GpsPoint::new(Point::new(1000.0, 9_000.0), 60.0),
                    GpsPoint::new(Point::new(2000.0, 0.0), 120.0),
                ],
            ),
        ])
    }

    const QI: Point = Point::new(0.0, 0.0);
    const QJ: Point = Point::new(2000.0, 0.0);

    #[test]
    fn finds_simple_reference() {
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            180.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 0.0)
            },
        );
        assert_eq!(refs.len(), 1);
        assert_eq!(refs.refs[0].kind, RefKind::Simple);
        assert_eq!(refs.refs[0].sources, vec![TrajId(0)]);
        assert_eq!(refs.refs[0].points.len(), 5);
    }

    #[test]
    fn speed_infeasible_reference_rejected() {
        // T4 passes both endpoints, but its middle point violates
        // condition 3 for any realistic budget.
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            180.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 0.0)
            },
        );
        assert!(refs.refs.iter().all(|r| r.sources != vec![TrajId(4)]));
        // With an enormous time budget T4 becomes feasible.
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            10_000.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 0.0)
            },
        );
        assert!(refs.refs.iter().any(|r| r.sources == vec![TrajId(4)]));
    }

    #[test]
    fn faraway_trajectory_ignored() {
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            7200.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 300.0)
            },
        );
        for r in &refs.refs {
            assert!(!r.sources.contains(&TrajId(3)));
        }
    }

    #[test]
    fn splices_half_trajectories() {
        // T1 ends near x = 900, T2 starts near x = 1100: they splice with
        // e ≥ ~213 m (dy = 70).
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            300.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 250.0)
            },
        );
        let spliced: Vec<_> = refs
            .refs
            .iter()
            .filter(|r| r.kind == RefKind::Spliced)
            .collect();
        assert_eq!(spliced.len(), 1);
        assert_eq!(spliced[0].sources, vec![TrajId(1), TrajId(2)]);
        // Points run from near q_i to near q_j in order.
        let pts = &spliced[0].points;
        assert!(pts.first().unwrap().pos.dist(QI) <= 100.0);
        assert!(pts.last().unwrap().pos.dist(QJ) <= 100.0);
    }

    #[test]
    fn splice_disabled_with_zero_eps() {
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            300.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 0.0)
            },
        );
        assert!(refs.refs.iter().all(|r| r.kind == RefKind::Simple));
    }

    #[test]
    fn too_small_splice_eps_finds_nothing() {
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            300.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 50.0)
            },
        );
        assert!(refs.refs.iter().all(|r| r.kind == RefKind::Simple));
    }

    #[test]
    fn empty_archive_yields_empty_set() {
        let refs = search_references(
            &TrajectoryArchive::empty(),
            QI,
            QJ,
            180.0,
            25.0,
            &RefSearchConfig::new(500.0, 150.0),
        );
        assert!(refs.is_empty());
        assert_eq!(refs.density_per_km2(), 0.0);
    }

    #[test]
    fn direction_matters() {
        // A trajectory travelling q_j → q_i must not count.
        let rev = Trajectory::new(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(2000.0, 10.0), 0.0),
                GpsPoint::new(Point::new(1000.0, 10.0), 60.0),
                GpsPoint::new(Point::new(0.0, 10.0), 120.0),
            ],
        );
        let a = TrajectoryArchive::new(vec![rev]);
        let refs = search_references(
            &a,
            QI,
            QJ,
            180.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 0.0)
            },
        );
        assert!(refs.is_empty());
    }

    #[test]
    fn density_computation() {
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            180.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 0.0)
            },
        );
        // 5 points over a 2000 × ~0 m box → degenerate in y but positive in
        // practice thanks to GPS spread... here y is constant (20), so the
        // MBB is a line → infinite density.
        assert!(refs.density_per_km2().is_infinite());
    }

    /// The splice join as it stood before the flat grid — per-cell `Vec`s
    /// in a hash map, best pairs in a second hash map, drained and sorted —
    /// kept verbatim (bar the `pos` reader) as the flat join's reference.
    fn splice_pairs_hashed(
        side_a: &[(TrajId, usize, usize)],
        side_b: &[(TrajId, usize, usize)],
        pos: impl Fn(TrajId, usize) -> Point,
        (qi, qj, budget): (Point, Point, f64),
        splice_eps: f64,
    ) -> Vec<(usize, usize, usize, usize)> {
        use hris_roadnet::FxHashMap;
        // Grid join: bucket side-B candidate points by `splice_eps` cells.
        let mut grid: FxHashMap<(i64, i64), Vec<(usize, usize)>> = FxHashMap::default(); // cell -> (b_pos, pt_idx)
        for (bi, &(id, first, nn)) in side_b.iter().enumerate() {
            for k in first..=nn {
                let p = pos(id, k);
                // Only points inside the speed-feasible ellipse can appear
                // in a valid spliced reference.
                if p.dist(qi) + p.dist(qj) > budget {
                    continue;
                }
                grid.entry(cell(p, splice_eps)).or_default().push((bi, k));
            }
        }

        // For each (T_a, T_b) pair keep the best splicing pair.
        let mut best_pairs: FxHashMap<(usize, usize), (f64, usize, usize)> = FxHashMap::default();
        for (ai, &(id_a, nn_a, last)) in side_a.iter().enumerate() {
            for ka in nn_a..=last {
                let pa = pos(id_a, ka);
                if pa.dist(qi) + pa.dist(qj) > budget {
                    continue;
                }
                let c = cell(pa, splice_eps);
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        let Some(hits) = grid.get(&(c.0 + dx, c.1 + dy)) else {
                            continue;
                        };
                        for &(bi, kb) in hits {
                            let id_b = side_b[bi].0;
                            if id_b == id_a {
                                continue;
                            }
                            let pb = pos(id_b, kb);
                            if pa.dist(pb) > splice_eps {
                                continue;
                            }
                            // Paper: among multiple splicing pairs of the
                            // same (T_a, T_b), keep the one minimising
                            // d(p_a, q_i) + d(p_b, q_{i+1}).
                            let key = (ai, bi);
                            let val = pa.dist(qi) + pb.dist(qj);
                            let entry = best_pairs.entry(key).or_insert((f64::INFINITY, 0, 0));
                            if val < entry.0 {
                                *entry = (val, ka, kb);
                            }
                        }
                    }
                }
            }
        }

        // Drain in (ai, bi) order so the spliced refs come out in a
        // deterministic order regardless of hash-map internals.
        let mut ordered: Vec<_> = best_pairs.into_iter().collect();
        ordered.sort_unstable_by_key(|&(key, _)| key);
        ordered
            .into_iter()
            .map(|((ai, bi), (_, ka, kb))| (ai, bi, ka, kb))
            .collect()
    }

    /// The per-trajectory argmin as it stood before the pooled table — one
    /// `num_trajs`-slot array per call, scanned whole — kept verbatim.
    fn nearest_rows_flat(
        num_trajs: usize,
        hits: &[&ArchivePoint],
        q: Point,
    ) -> Vec<(TrajId, usize)> {
        let mut slots: Vec<(f64, u32)> = vec![(f64::INFINITY, u32::MAX); num_trajs];
        for p in hits {
            let slot = &mut slots[p.traj.index()];
            let d2 = p.pos.dist_sq(q);
            if d2 < slot.0 || (d2 == slot.0 && p.point_idx < slot.1) {
                *slot = (d2, p.point_idx);
            }
        }
        let mut rows: Vec<(TrajId, usize)> = Vec::new();
        for (t, slot) in slots.iter_mut().enumerate() {
            if slot.1 != u32::MAX {
                rows.push((TrajId(t as u32), slot.1 as usize));
                *slot = (f64::INFINITY, u32::MAX);
            }
        }
        rows
    }

    /// A random splice-join input on a 10 m lattice (so distances tie):
    /// trips as point runs, two sides that may name the same trip, a
    /// lattice ellipse that leaves some points outside, and a trip far from
    /// everything so some cells stay empty.
    #[allow(clippy::type_complexity)]
    fn random_sides(
        seed: u64,
    ) -> (
        Vec<Vec<Point>>,
        Vec<(TrajId, usize, usize)>,
        Vec<(TrajId, usize, usize)>,
        (Point, Point, f64),
        f64,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let lattice = |rng: &mut rand_chacha::ChaCha8Rng, span: i32| {
            Point::new(
                f64::from(rng.gen_range(0..span)) * 10.0,
                f64::from(rng.gen_range(0..span)) * 10.0,
            )
        };
        let span = rng.gen_range(4..30);
        let mut trips: Vec<Vec<Point>> = (0..rng.gen_range(1..10))
            .map(|_| {
                (0..rng.gen_range(1..12))
                    .map(|_| lattice(&mut rng, span))
                    .collect()
            })
            .collect();
        trips.push(vec![
            Point::new(90_000.0, 90_000.0),
            Point::new(90_010.0, 90_000.0),
        ]);
        let side = |rng: &mut rand_chacha::ChaCha8Rng| {
            let mut out = Vec::new();
            for (t, pts) in trips.iter().enumerate() {
                if rng.gen_bool(0.6) {
                    let lo = rng.gen_range(0..pts.len());
                    let hi = rng.gen_range(lo..pts.len());
                    out.push((TrajId(t as u32), lo, hi));
                }
            }
            out
        };
        let (side_a, side_b) = (side(&mut rng), side(&mut rng));
        let qi = lattice(&mut rng, span);
        let qj = lattice(&mut rng, span);
        let budget = qi.dist(qj) + f64::from(rng.gen_range(0..span)) * 10.0;
        let eps = [10.0, 25.0, 50.0, 120.0][rng.gen_range(0..4usize)];
        (trips, side_a, side_b, (qi, qj, budget), eps)
    }

    /// The flat splice join names the hash-map join's pairs, winners and
    /// order exactly — including equal-distance ties (the first pair met
    /// wins), candidates from the same trip on both sides (skipped) and A
    /// points whose cells hold no B point — and each of those occurs.
    #[test]
    fn flat_splice_join_matches_hash_map_join() {
        // [tied winners, same-trip candidates, A points with empty cells]
        let mut regimes = [0usize; 3];
        for seed in 0..600u64 {
            let (trips, side_a, side_b, ellipse, eps) = random_sides(seed);
            let pos = |id: TrajId, k: usize| trips[id.index()][k];
            let want = splice_pairs_hashed(&side_a, &side_b, pos, ellipse, eps);
            let got = splice_pairs(&side_a, &side_b, pos, ellipse, eps);
            assert_eq!(got, want, "seed {seed}");

            let (qi, qj, budget) = ellipse;
            let inside = |p: Point| p.dist(qi) + p.dist(qj) <= budget;
            let points = |side: &[(TrajId, usize, usize)]| -> Vec<(TrajId, Point)> {
                side.iter()
                    .flat_map(|&(id, lo, hi)| (lo..=hi).map(move |k| (id, pos(id, k))))
                    .filter(|&(_, p)| inside(p))
                    .collect()
            };
            let (pa, pb) = (points(&side_a), points(&side_b));
            for &(ai, bi, _, _) in &want {
                let (id_a, id_b) = (side_a[ai].0, side_b[bi].0);
                let vals: Vec<f64> = pa
                    .iter()
                    .filter(|(id, _)| *id == id_a)
                    .flat_map(|&(_, a)| {
                        pb.iter()
                            .filter(move |(id, b)| *id == id_b && a.dist(*b) <= eps)
                            .map(move |&(_, b)| a.dist(qi) + b.dist(qj))
                    })
                    .collect();
                let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
                regimes[0] += usize::from(vals.iter().filter(|&&v| v == min).count() > 1);
            }
            regimes[1] += usize::from(
                pa.iter()
                    .any(|&(ia, a)| pb.iter().any(|&(ib, b)| ia == ib && a.dist(b) <= eps)),
            );
            regimes[2] += pa
                .iter()
                .filter(|&&(_, a)| {
                    let (ca, cb) = (cell(a, eps), |b: Point| cell(b, eps));
                    pb.iter().all(|&(_, b)| {
                        let c = cb(b);
                        (c.0 - ca.0).abs() > 1 || (c.1 - ca.1).abs() > 1
                    })
                })
                .count()
                .min(1);
        }
        assert!(
            regimes.iter().all(|&n| n >= 20),
            "every regime must occur: {regimes:?}"
        );
    }

    /// The argmin over the pooled trip table — reused across archives of
    /// different sizes — names the flat argmin's rows: nearest hit per trip,
    /// ties to the smallest point index, a NaN-only trip absent, ascending
    /// trip ids.
    #[test]
    fn pooled_argmin_matches_flat_argmin() {
        use rand::{Rng, SeedableRng};
        let mut slots = SparseSlots::new((f64::INFINITY, u32::MAX));
        for seed in 0..400u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let num_trajs = [1usize, 7, 64, 65, 1_000][(seed % 5) as usize];
            let hits: Vec<ArchivePoint> = (0..rng.gen_range(0..60))
                .map(|_| {
                    let pos = if rng.gen_bool(0.05) {
                        Point::new(f64::NAN, 0.0)
                    } else {
                        Point::new(
                            f64::from(rng.gen_range(-3..4)) * 10.0,
                            f64::from(rng.gen_range(-3..4)) * 10.0,
                        )
                    };
                    ArchivePoint {
                        pos,
                        t: 0.0,
                        traj: TrajId(rng.gen_range(0..num_trajs.min(12)) as u32),
                        point_idx: rng.gen_range(0..8),
                    }
                })
                .collect();
            let hits: Vec<&ArchivePoint> = hits.iter().collect();
            let q = Point::new(0.0, 0.0);
            slots.cover(num_trajs);
            let got = nearest_rows(&mut slots, &hits, q);
            assert_eq!(got, nearest_rows_flat(num_trajs, &hits, q), "seed {seed}");
            assert!(slots.touched().is_empty(), "seed {seed}: table left dirty");
        }
    }
}
