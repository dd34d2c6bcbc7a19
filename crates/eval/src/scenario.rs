//! Scenario builder: synthetic city + taxi archive + query workload.
//!
//! Queries follow the paper's protocol (Section IV-B): each query starts
//! from a *high-sampling-rate* trajectory (20 s native interval, like
//! GeoLife) whose true route is known, and is re-sampled down to the
//! experiment's interval at evaluation time. The query's route is drawn
//! from the same travel-demand distribution as the archive (people drive
//! the same city), but the query's own GPS points are **not** part of the
//! archive.

use hris_roadnet::{generator, NetworkConfig, RoadNetwork, Route};
use hris_traj::simulator::drive_route;
use hris_traj::{SimConfig, Simulator, TrajId, Trajectory, TrajectoryArchive};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One evaluation case: a dense trajectory and its exact route.
#[derive(Debug, Clone)]
pub struct QueryCase {
    /// High-rate (≈20 s) noisy trajectory, to be resampled per experiment.
    pub dense: Trajectory,
    /// Exact ground-truth route.
    pub truth: Route,
}

/// Scenario parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// City generator settings.
    pub net: NetworkConfig,
    /// Fleet simulation settings (archive size, skew, noise, …).
    pub sim: SimConfig,
    /// Number of evaluation queries.
    pub num_queries: usize,
    /// Acceptable ground-truth route length band for queries, metres.
    pub query_len_m: (f64, f64),
    /// Native sampling interval of the dense query trajectories, seconds.
    pub query_interval_s: f64,
    /// GPS noise applied to query points, metres.
    pub query_noise_m: f64,
    /// Seed for query generation (independent of the archive seed).
    pub seed: u64,
}

impl ScenarioConfig {
    /// A laptop-fast scenario for tests and the default experiment mode:
    /// a ~14 km city with 10–14 km queries, long enough that even a 15 min
    /// sampling interval leaves ≥ 3 points per query.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        ScenarioConfig {
            net: NetworkConfig {
                blocks_x: 48,
                blocks_y: 48,
                block_m: 300.0,
                arterial_every: 6,
                seed: seed ^ 0x51,
                ..NetworkConfig::default()
            },
            sim: SimConfig {
                num_trips: 2500,
                num_od_patterns: 70,
                min_trip_dist_m: 6_000.0,
                route_skew: 2.2,
                pattern_trip_frac: 0.85,
                seed: seed ^ 0xA5A5,
                ..SimConfig::default()
            },
            num_queries: 12,
            query_len_m: (9_000.0, 14_000.0),
            query_interval_s: 20.0,
            query_noise_m: 15.0,
            seed,
        }
    }

    /// The paper-scale scenario: ~25 km city, thousands of trips, queries
    /// around 20 km (Table II's default `L`).
    #[must_use]
    pub fn full(seed: u64) -> Self {
        ScenarioConfig {
            net: NetworkConfig::large(seed ^ 0x17), // 64×64 blocks, 400 m
            sim: SimConfig {
                num_trips: 6000,
                num_od_patterns: 150,
                min_trip_dist_m: 8_000.0,
                route_skew: 2.2,
                pattern_trip_frac: 0.85,
                seed: seed ^ 0xBEEF,
                ..SimConfig::default()
            },
            num_queries: 30,
            query_len_m: (15_000.0, 25_000.0),
            query_interval_s: 20.0,
            query_noise_m: 15.0,
            seed,
        }
    }
}

/// A fully materialised experimental world.
pub struct Scenario {
    /// The synthetic city.
    pub net: RoadNetwork,
    /// The historical archive the system mines.
    pub archive: TrajectoryArchive,
    /// Ground-truth route of each archive trajectory (diagnostics only —
    /// HRIS never sees these).
    pub archive_truth: Vec<Route>,
    /// The evaluation queries.
    pub queries: Vec<QueryCase>,
    /// The configuration that produced this scenario.
    pub config: ScenarioConfig,
}

impl Scenario {
    /// Builds the scenario deterministically from its configuration.
    #[must_use]
    pub fn build(config: ScenarioConfig) -> Self {
        let net = generator::generate(&config.net);
        let mut sim = Simulator::new(&net, config.sim.clone());
        let (archive, archive_truth) = sim.generate_archive();

        // Queries: sample routes from the same demand model by running the
        // simulator further (its RNG continues past the archive trips), then
        // re-drive each route densely.
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9));
        let mut queries = Vec::with_capacity(config.num_queries);
        let mut guard = 0usize;
        while queries.len() < config.num_queries && guard < config.num_queries * 200 {
            guard += 1;
            let Some(trip) = sim.generate_trips_n(1).into_iter().next() else {
                break;
            };
            let len = trip.route.length(&net);
            if len < config.query_len_m.0 || len > config.query_len_m.1 {
                continue;
            }
            let speed_factor = rng.gen_range(0.6..0.9);
            let Some(points) = drive_route(
                &net,
                &trip.route,
                trip.depart_t,
                config.query_interval_s,
                speed_factor,
            ) else {
                continue;
            };
            let dense = Trajectory::new(TrajId(queries.len() as u32), points);
            let noisy = hris_traj::add_gps_noise(&dense, config.query_noise_m, sim.rng());
            queries.push(QueryCase {
                dense: noisy,
                truth: trip.route,
            });
        }
        Scenario {
            net,
            archive,
            archive_truth,
            queries,
            config,
        }
    }

    /// A thinned copy of the archive keeping roughly `frac` of the trips
    /// (deterministic). Drives the reference-density sweep (Figure 10).
    #[must_use]
    pub fn thinned_archive(&self, frac: f64) -> TrajectoryArchive {
        let keep_every = (1.0 / frac.clamp(0.001, 1.0)).round().max(1.0) as usize;
        let trips: Vec<Trajectory> = self
            .archive
            .trajectories()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % keep_every == 0)
            .map(|(_, t)| t.clone())
            .collect();
        TrajectoryArchive::new(trips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build() -> Scenario {
        let mut cfg = ScenarioConfig::quick(3);
        cfg.sim.num_trips = 300;
        cfg.num_queries = 4;
        Scenario::build(cfg)
    }

    /// One build shared by every test of this module that only reads it.
    fn scenario() -> &'static Scenario {
        static SHARED: std::sync::OnceLock<Scenario> = std::sync::OnceLock::new();
        SHARED.get_or_init(build)
    }

    #[test]
    fn builds_requested_sizes() {
        let s = scenario();
        assert_eq!(s.archive.num_trajectories(), 300);
        assert_eq!(s.queries.len(), 4);
        assert_eq!(s.archive_truth.len(), 300);
    }

    #[test]
    fn queries_respect_length_band() {
        let s = scenario();
        for q in &s.queries {
            let len = q.truth.length(&s.net);
            assert!(len >= s.config.query_len_m.0 && len <= s.config.query_len_m.1);
            assert!(q.truth.is_connected(&s.net));
            // Dense sampling: ~query_interval_s cadence.
            assert!(q.dense.len() >= 10);
            assert!(q.dense.mean_interval() <= s.config.query_interval_s + 1.0);
        }
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = build();
        let b = build();
        assert_eq!(a.queries.len(), b.queries.len());
        for (x, y) in a.queries.iter().zip(b.queries.iter()) {
            assert_eq!(x.truth, y.truth);
            assert_eq!(x.dense.points, y.dense.points);
        }
    }

    #[test]
    fn thinned_archive_shrinks() {
        let s = scenario();
        let half = s.thinned_archive(0.5);
        assert!(half.num_trajectories() < s.archive.num_trajectories());
        assert!(half.num_trajectories() >= s.archive.num_trajectories() / 3);
        let full = s.thinned_archive(1.0);
        assert_eq!(full.num_trajectories(), s.archive.num_trajectories());
    }
}
