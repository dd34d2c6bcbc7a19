//! Taxi-fleet simulator: generates a historical archive with the two
//! statistical properties the paper's inference relies on.
//!
//! - **Observation 1 (skewed travel patterns).** Travel demand concentrates
//!   on a pool of recurring origin–destination *patterns*; within each
//!   pattern, drivers choose among the K cheapest routes with Zipf-like
//!   weights, so one or two routes dominate.
//! - **Observation 2 (complementary samples).** Each trip samples its route
//!   at an independent phase and interval, so points of different trips
//!   interleave along popular roads.
//!
//! The simulator also reproduces the paper's *data quality* caveat: a
//! configurable fraction of trips report at low rate (minutes between
//! fixes), the rest at high rate (tens of seconds).
//!
//! Everything is deterministic given [`SimConfig::seed`].

use crate::archive::TrajectoryArchive;
use crate::resample::gaussian_pair;
use crate::types::{GpsPoint, TrajId, Trajectory};
use hris_geo::Point;
use hris_roadnet::{CostModel, DijkstraScratch, NodeId, RoadNetwork, Route};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of the fleet simulation.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Total number of trips to generate.
    pub num_trips: usize,
    /// Size of the recurring OD-pattern pool.
    pub num_od_patterns: usize,
    /// Fraction of trips drawn from the pattern pool (the rest pick uniform
    /// random ODs for background coverage).
    pub pattern_trip_frac: f64,
    /// Candidate routes per OD pattern (the K of the route-choice model).
    pub route_choice_k: usize,
    /// Zipf exponent of route choice; larger = more skew (Observation 1).
    pub route_skew: f64,
    /// Minimum network distance between O and D, metres.
    pub min_trip_dist_m: f64,
    /// High-rate sampling interval range, seconds.
    pub high_interval_s: (f64, f64),
    /// Low-rate sampling interval range, seconds.
    pub low_interval_s: (f64, f64),
    /// Fraction of trips reporting at low rate (paper: >60 %).
    pub low_rate_frac: f64,
    /// Isotropic GPS noise sigma, metres.
    pub gps_noise_m: f64,
    /// Drivers travel at `U(lo, hi) ×` the segment speed limit.
    pub speed_factor: (f64, f64),
    /// Trips depart uniformly within this horizon, seconds.
    pub horizon_s: f64,
    /// When `true`, travel demand is *diurnal*: each OD pattern gets a peak
    /// time-of-day and its trips depart near that peak (±2 h Gaussian).
    /// This is the workload for the time-aware route inference extension
    /// (the paper's future work: "incorporate more information … such as
    /// the time").
    pub diurnal_peaks: bool,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_trips: 2000,
            num_od_patterns: 60,
            pattern_trip_frac: 0.75,
            route_choice_k: 4,
            route_skew: 1.4,
            min_trip_dist_m: 2000.0,
            high_interval_s: (15.0, 45.0),
            low_interval_s: (120.0, 480.0),
            low_rate_frac: 0.6,
            gps_noise_m: 15.0,
            speed_factor: (0.55, 0.95),
            horizon_s: 86_400.0 * 3.0,
            diurnal_peaks: false,
            seed: 7,
        }
    }
}

/// One simulated trip: the observed trajectory plus its exact ground-truth
/// route (something the real Beijing dataset can only approximate by
/// map-matching the high-rate logs).
#[derive(Debug, Clone)]
pub struct TripRecord {
    /// The (noisy, sampled) GPS trajectory.
    pub trajectory: Trajectory,
    /// The exact route the simulated driver travelled.
    pub route: Route,
    /// Departure time, seconds.
    pub depart_t: f64,
}

/// One recurring OD pattern with its candidate routes.
#[derive(Debug, Clone)]
struct OdPattern {
    routes: Vec<Route>,
}

/// The fleet simulator: the network, the OD-pattern pool and search state.
pub struct Simulator<'a> {
    net: &'a RoadNetwork,
    cfg: SimConfig,
    rng: ChaCha8Rng,
    patterns: Vec<OdPattern>,
    /// Point-to-point search state (random ODs bypass the oracle's trees).
    scratch: DijkstraScratch,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator; builds the OD-pattern pool eagerly.
    #[must_use]
    pub fn new(net: &'a RoadNetwork, cfg: SimConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut patterns = Vec::with_capacity(cfg.num_od_patterns);
        let mut guard = 0;
        while patterns.len() < cfg.num_od_patterns && guard < cfg.num_od_patterns * 50 {
            guard += 1;
            let (a, b) = match random_od(net, cfg.min_trip_dist_m, &mut rng) {
                Some(od) => od,
                None => break,
            };
            let routes: Vec<Route> = net
                .k_shortest_routes(a, b, cfg.route_choice_k, CostModel::Time)
                .into_iter()
                .map(|(r, _)| r)
                .collect();
            if !routes.is_empty() {
                patterns.push(OdPattern { routes });
            }
        }
        Simulator {
            net,
            cfg,
            rng,
            patterns,
            scratch: DijkstraScratch::default(),
        }
    }

    /// The simulator's configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Generates `cfg.num_trips` trips.
    #[must_use]
    pub fn generate_trips(&mut self) -> Vec<TripRecord> {
        self.generate_trips_n(self.cfg.num_trips)
    }

    /// Generates exactly `n` further trips (the RNG continues, so repeated
    /// calls extend the same simulated world).
    #[must_use]
    pub fn generate_trips_n(&mut self, n: usize) -> Vec<TripRecord> {
        let mut out = Vec::with_capacity(n);
        let mut failures = 0usize;
        while out.len() < n && failures < 1000 {
            match self.generate_one() {
                Some(trip) => out.push(trip),
                None => failures += 1,
            }
        }
        out
    }

    /// Generates trips and packages them (with ground truth) into an
    /// archive. Returns `(archive, routes)` where `routes[i]` is the true
    /// route of archive trajectory `TrajId(i)`.
    #[must_use]
    pub fn generate_archive(&mut self) -> (TrajectoryArchive, Vec<Route>) {
        let trips = self.generate_trips();
        let routes: Vec<Route> = trips.iter().map(|t| t.route.clone()).collect();
        let trajs: Vec<Trajectory> = trips.into_iter().map(|t| t.trajectory).collect();
        (TrajectoryArchive::new(trajs), routes)
    }

    fn generate_one(&mut self) -> Option<TripRecord> {
        let mut pattern_idx: Option<usize> = None;
        let route = if !self.patterns.is_empty()
            && self
                .rng
                .gen_bool(self.cfg.pattern_trip_frac.clamp(0.0, 1.0))
        {
            // Demand skew across patterns AND route skew within a pattern.
            let p = zipf_sample(self.patterns.len(), 1.0, &mut self.rng);
            pattern_idx = Some(p);
            let pat = &self.patterns[p];
            let r = zipf_sample(pat.routes.len(), self.cfg.route_skew, &mut self.rng);
            pat.routes[r].clone()
        } else {
            let (a, b) = random_od(self.net, self.cfg.min_trip_dist_m, &mut self.rng)?;
            self.fastest_route(a, b)?
        };
        let depart_t = match (self.cfg.diurnal_peaks, pattern_idx) {
            (true, Some(p)) => {
                // Peak hour spread evenly over the day per pattern.
                let peak = 86_400.0 * p as f64 / self.patterns.len().max(1) as f64;
                let (g, _) = gaussian_pair(&mut self.rng, 7_200.0);
                let day = self
                    .rng
                    .gen_range(0..(self.cfg.horizon_s / 86_400.0).max(1.0) as u64);
                (day as f64 * 86_400.0 + (peak + g).rem_euclid(86_400.0))
                    .min(self.cfg.horizon_s - 1.0)
            }
            _ => self.rng.gen_range(0.0..self.cfg.horizon_s),
        };
        let interval = if self.rng.gen_bool(self.cfg.low_rate_frac.clamp(0.0, 1.0)) {
            sample_range(self.cfg.low_interval_s, &mut self.rng)
        } else {
            sample_range(self.cfg.high_interval_s, &mut self.rng)
        };
        let trajectory = self.drive(&route, depart_t, interval)?;
        Some(TripRecord {
            trajectory,
            route,
            depart_t,
        })
    }

    /// Drives `route` departing at `depart_t`, emitting a (noisy) GPS fix
    /// every `interval_s` seconds plus the final arrival fix.
    ///
    /// Returns `None` for degenerate routes (no geometry).
    #[must_use]
    pub fn drive(&mut self, route: &Route, depart_t: f64, interval_s: f64) -> Option<Trajectory> {
        let speed_factor = sample_range(self.cfg.speed_factor, &mut self.rng);
        let clean = drive_route(self.net, route, depart_t, interval_s, speed_factor)?;
        let mut points = clean;
        if self.cfg.gps_noise_m > 0.0 {
            for p in &mut points {
                let (dx, dy) = gaussian_pair(&mut self.rng, self.cfg.gps_noise_m);
                p.pos = Point::new(p.pos.x + dx, p.pos.y + dy);
            }
        }
        Some(Trajectory::new(TrajId(0), points))
    }

    /// A random OD pair whose network distance is at least `min_dist` and at
    /// most `max_dist` metres — used to build length-controlled query trips.
    #[must_use]
    pub fn od_with_dist(
        &mut self,
        min_dist: f64,
        max_dist: f64,
    ) -> Option<(NodeId, NodeId, Route)> {
        for _ in 0..400 {
            let (a, b) = random_od(self.net, min_dist, &mut self.rng)?;
            if let Some(route) = self.fastest_route(a, b) {
                let len = route.length(self.net);
                if len >= min_dist && len <= max_dist {
                    return Some((a, b, route));
                }
            }
        }
        None
    }

    /// The minimum-time route from `a` to `b`, if `b` is reachable.
    fn fastest_route(&mut self, a: NodeId, b: NodeId) -> Option<Route> {
        let oracle = self.net.sp_oracle();
        let path = oracle.point_to_point(a, b, CostModel::Time, &mut self.scratch);
        path.map(|p| p.route())
    }

    /// Exposes the internal RNG for auxiliary sampling in the eval harness.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }
}

/// Simulates motion along `route` at `speed_factor ×` each segment's limit,
/// sampling every `interval_s` (plus the final point). Noise-free.
#[must_use]
pub fn drive_route(
    net: &RoadNetwork,
    route: &Route,
    depart_t: f64,
    interval_s: f64,
    speed_factor: f64,
) -> Option<Vec<GpsPoint>> {
    if route.is_empty() || interval_s <= 0.0 || speed_factor <= 0.0 {
        return None;
    }
    let mut points = Vec::new();
    let mut t = depart_t;
    let mut next_sample = depart_t;
    for &sid in route.segments() {
        let seg = net.segment(sid);
        let speed = seg.speed_limit * speed_factor;
        let seg_duration = seg.length / speed;
        // Emit every sample falling within this segment's traversal window.
        while next_sample <= t + seg_duration {
            let offset = (next_sample - t) * speed;
            points.push(GpsPoint::new(seg.geometry.point_at(offset), next_sample));
            next_sample += interval_s;
        }
        t += seg_duration;
    }
    // Arrival fix (skip if the last periodic sample already landed there).
    let arrive = GpsPoint::new(net.segment(*route.segments().last()?).geometry.end(), t);
    if points.last().map(|p| (p.t - arrive.t).abs() > 1e-9) != Some(false) {
        points.push(arrive);
    }
    Some(points)
}

/// Uniform random OD pair with straight-line distance ≥ `min_dist * 0.7`
/// (cheap pre-filter; the caller verifies network distance when it matters).
fn random_od(net: &RoadNetwork, min_dist: f64, rng: &mut ChaCha8Rng) -> Option<(NodeId, NodeId)> {
    let n = net.num_nodes();
    if n < 2 {
        return None;
    }
    for _ in 0..200 {
        let a = NodeId(rng.gen_range(0..n) as u32);
        let b = NodeId(rng.gen_range(0..n) as u32);
        if a != b && net.node(a).dist(net.node(b)) >= min_dist * 0.7 {
            return Some((a, b));
        }
    }
    None
}

/// Samples an index in `0..n` with Zipf weights `1/(i+1)^s`.
fn zipf_sample(n: usize, s: f64, rng: &mut ChaCha8Rng) -> usize {
    debug_assert!(n > 0);
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    n - 1
}

fn sample_range(range: (f64, f64), rng: &mut ChaCha8Rng) -> f64 {
    if range.1 <= range.0 {
        range.0
    } else {
        rng.gen_range(range.0..range.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hris_roadnet::{generator, NetworkConfig};

    fn net() -> RoadNetwork {
        generator::generate(&NetworkConfig::small(21))
    }

    fn small_cfg() -> SimConfig {
        SimConfig {
            num_trips: 40,
            num_od_patterns: 6,
            min_trip_dist_m: 400.0,
            horizon_s: 3600.0,
            seed: 5,
            ..SimConfig::default()
        }
    }

    #[test]
    fn trips_have_valid_ground_truth() {
        let net = net();
        let mut sim = Simulator::new(&net, small_cfg());
        let trips = sim.generate_trips();
        assert_eq!(trips.len(), 40);
        for trip in &trips {
            assert!(trip.route.is_connected(&net), "ground truth connects");
            assert!(trip.trajectory.len() >= 2, "at least departure + arrival");
            // Time-ordered by construction (Trajectory::new asserts).
            assert!(trip.trajectory.points[0].t >= trip.depart_t - 1e-9);
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let net = net();
        let a = Simulator::new(&net, small_cfg()).generate_trips();
        let b = Simulator::new(&net, small_cfg()).generate_trips();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.trajectory.points, y.trajectory.points);
            assert_eq!(x.route, y.route);
        }
    }

    #[test]
    fn drive_route_samples_on_the_route() {
        let net = net();
        let mut sim = Simulator::new(
            &net,
            SimConfig {
                gps_noise_m: 0.0,
                ..small_cfg()
            },
        );
        let (_, _, route) = sim.od_with_dist(500.0, 5000.0).unwrap();
        let pts = drive_route(&net, &route, 0.0, 30.0, 0.8).unwrap();
        let pl = route.polyline(&net).unwrap();
        for p in &pts {
            assert!(
                pl.dist_to_point(p.pos) < 1.0,
                "noise-free samples lie on the route"
            );
        }
        // Samples are spaced by the interval (except the arrival fix).
        for w in pts.windows(2).take(pts.len().saturating_sub(2)) {
            assert!((w[1].t - w[0].t - 30.0).abs() < 1e-9);
        }
        // First sample at departure, last at arrival end.
        assert_eq!(pts[0].t, 0.0);
        assert!(pts.last().unwrap().pos.dist(pl.end()) < 1e-6);
    }

    #[test]
    fn route_popularity_is_skewed() {
        let net = net();
        let cfg = SimConfig {
            num_trips: 300,
            num_od_patterns: 3,
            pattern_trip_frac: 1.0,
            route_skew: 1.6,
            ..small_cfg()
        };
        let mut sim = Simulator::new(&net, cfg);
        let trips = sim.generate_trips();
        // Count trips per distinct route.
        let mut counts: std::collections::HashMap<&Route, usize> = Default::default();
        for t in &trips {
            *counts.entry(&t.route).or_default() += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // The most popular route should dominate: at least 2x the median.
        let top = freqs[0];
        let median = freqs[freqs.len() / 2];
        assert!(
            top >= median * 2,
            "expected skewed popularity, got top={top} median={median}"
        );
    }

    #[test]
    fn sampling_rate_mixture() {
        let net = net();
        let cfg = SimConfig {
            num_trips: 120,
            low_rate_frac: 0.5,
            min_trip_dist_m: 800.0,
            ..small_cfg()
        };
        let mut sim = Simulator::new(&net, cfg);
        let trips = sim.generate_trips();
        let low = trips
            .iter()
            .filter(|t| t.trajectory.len() >= 3 && t.trajectory.mean_interval() > 60.0)
            .count();
        let high = trips
            .iter()
            .filter(|t| t.trajectory.len() >= 3 && t.trajectory.mean_interval() <= 60.0)
            .count();
        assert!(low > 0, "some low-rate trips");
        assert!(high > 0, "some high-rate trips");
    }

    #[test]
    fn archive_matches_routes() {
        let net = net();
        let mut sim = Simulator::new(&net, small_cfg());
        let (archive, routes) = sim.generate_archive();
        assert_eq!(archive.num_trajectories(), routes.len());
        assert!(archive.num_points() > archive.num_trajectories());
    }

    #[test]
    fn zipf_prefers_small_indices() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[zipf_sample(4, 1.5, &mut rng)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[3]);
        assert!(counts[3] > 0);
    }

    #[test]
    fn drive_route_degenerate_inputs() {
        let net = net();
        assert!(drive_route(&net, &Route::empty(), 0.0, 30.0, 0.8).is_none());
        let r = Route::new(vec![net.segments()[0].id]);
        assert!(drive_route(&net, &r, 0.0, -1.0, 0.8).is_none());
        assert!(drive_route(&net, &r, 0.0, 30.0, 0.0).is_none());
    }
}
