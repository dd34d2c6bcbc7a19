//! Workload definitions and the seeded input generator.
//!
//! The *world* — city, OD-pattern pool and historical archive — is the
//! benchmark's fixed data set ([`WORLD_SEED`]), like the one city a
//! deployment serves, and so are the warm-up queries of set-up. The `--seed`
//! draws the *traffic* on it: the timed queries and the trips the ingest
//! writer appends.
//! Two runs with different seeds therefore time statistically equal work on
//! different inputs, which is what lets runs on different seeds be compared
//! at the bounds of `BENCHMARK.json`; the same seed reproduces the inputs bit
//! for bit.
//!
//! How much work a run does is fixed by the workload, not by the clock: a
//! run executes [`WorkloadSpec::rounds_for`] rounds of [`WorkloadSpec::round`]
//! queries however long that takes, so the answers, their checksum, the
//! accuracy and the latency population of a seed do not depend on how fast
//! the host or the program is.
//!
//! The facades under test receive only the generated inputs, never a seed.

use hris_eval::scenario::ScenarioConfig;
use hris_roadnet::{generator, RoadNetwork, Route};
use hris_traj::simulator::drive_route;
use hris_traj::{add_gps_noise, resample_to_interval, Simulator, TrajId, Trajectory};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seed of the fixed world (city + archive); also the default `--seed`.
pub const WORLD_SEED: u64 = 77;

/// Fewest rounds a timed run is ever sized to.
pub const MIN_ROUNDS: usize = 9;

/// The `run_seconds` of `BENCHMARK.json`: the length of run the per-workload
/// round counts below were sized for on the reference container.
pub const REFERENCE_SECONDS: f64 = 15.0;

/// Rounds' worth of queries the warm-up pass of set-up answers.
pub const WARMUP_ROUNDS: usize = 1;

/// Which serving front a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Facade {
    /// `QueryEngine` over a borrowed `Hris`, `EngineConfig::sequential()`.
    Engine,
    /// `EngineHandle::with_config`, `front::serving_config()`.
    Handle,
    /// `ShardedEngine::build` over a 2×2 grid plan, observability off.
    Sharded,
    /// `EngineHandle::live` beside an `ArchiveWriter`, observability on.
    Live,
}

/// One workload: which inputs, through which front.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name used by `--workload`, `BENCHMARK.json` and later issues.
    pub name: &'static str,
    /// Query sampling interval, seconds.
    pub interval_s: f64,
    /// Top-K asked of every query.
    pub k: usize,
    /// Archive thinning: keep one trip in this many (1 = dense).
    pub keep_every: usize,
    /// Serving front.
    pub facade: Facade,
    /// Queries per round.
    pub round: usize,
    /// Rounds of a [`REFERENCE_SECONDS`] run.
    pub rounds: usize,
    /// A calibration sample is taken before every this many queries: about
    /// every 130 ms of query work, 5 % on top of it.
    pub calib_every: usize,
}

impl WorkloadSpec {
    /// Rounds of a run sized for `seconds`: the reference count scaled once,
    /// never fewer than [`MIN_ROUNDS`]. The clock plays no further part.
    #[must_use]
    pub fn rounds_for(&self, seconds: f64) -> usize {
        let scaled = (self.rounds as f64 * seconds / REFERENCE_SECONDS).round() as usize;
        scaled.max(MIN_ROUNDS)
    }

    /// Most threads runnable at once while this workload is served: every
    /// front answers on the caller's thread, and `ingest_live` adds its
    /// writer thread.
    #[must_use]
    pub fn max_threads(&self) -> usize {
        match self.facade {
            Facade::Engine | Facade::Handle | Facade::Sharded => 1,
            Facade::Live => 2,
        }
    }
}

/// The four workloads, in reporting order.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "dense_3min",
        interval_s: 180.0,
        k: 2,
        keep_every: 1,
        facade: Facade::Engine,
        round: 125,
        rounds: 13,
        calib_every: 16,
    },
    WorkloadSpec {
        name: "sparse_9min",
        interval_s: 540.0,
        k: 2,
        keep_every: 10,
        facade: Facade::Handle,
        round: 500,
        rounds: 25,
        calib_every: 100,
    },
    WorkloadSpec {
        name: "sharded_1min",
        interval_s: 60.0,
        k: 5,
        keep_every: 1,
        facade: Facade::Sharded,
        round: 125,
        rounds: 10,
        calib_every: 12,
    },
    WorkloadSpec {
        name: "ingest_live",
        interval_s: 180.0,
        k: 2,
        keep_every: 1,
        facade: Facade::Live,
        round: 125,
        rounds: 11,
        calib_every: 16,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Ingest schedule of `ingest_live`: one chunk of this many trips …
pub const INGEST_TRIPS_PER_CHUNK: usize = 10;
/// … is due every this many milliseconds …
pub const INGEST_PERIOD_MS: u64 = 100;
/// … for as long as the reader has queries left. The chunk pool holds this
/// many times the chunks a run of the sized length consumes; a run that
/// empties it is incorrect.
pub const INGEST_POOL_MARGIN: f64 = 3.0;

/// How large a run is. `Full` is what the benchmark times; `Smoke`, sized
/// for half a second, is the ≈ 1 % variant `cargo test` exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// A tenth of the archive, a tenth of the round size.
    Smoke,
}

/// One query: the resampled trajectory handed to the facade, and the exact
/// route it was driven on (never shown to the facade).
#[derive(Debug, Clone)]
pub struct Query {
    /// Low-sampling-rate trajectory.
    pub traj: Trajectory,
    /// Ground-truth route.
    pub truth: Route,
}

/// Everything a workload run consumes.
pub struct Inputs {
    /// The city.
    pub net: RoadNetwork,
    /// The historical trips the archive is indexed from (already thinned).
    pub trips: Vec<Trajectory>,
    /// Warm-up queries, the same for every seed; never reused in a timed
    /// or traced pass.
    pub warmup: Vec<Query>,
    /// The distinct timed queries: [`WorkloadSpec::rounds_for`] whole rounds.
    pub queries: Vec<Query>,
    /// `ingest_live` only: the pool of trips the writer appends, one `Vec`
    /// per chunk.
    pub chunks: Vec<Vec<Trajectory>>,
    /// Queries per round at this scale.
    pub round: usize,
}

/// Generates the inputs of `spec` for a run of `rounds` rounds, from `seed`.
#[must_use]
pub fn generate(spec: &WorkloadSpec, seed: u64, rounds: usize, scale: Scale) -> Inputs {
    let mut cfg = ScenarioConfig::quick(WORLD_SEED);
    let round = match scale {
        Scale::Full => spec.round,
        Scale::Smoke => {
            cfg.sim.num_trips /= 10;
            (spec.round / 10).max(5)
        }
    };
    let net = generator::generate(&cfg.net);
    let mut sim = Simulator::new(&net, cfg.sim.clone());
    let (archive, _) = sim.generate_archive();
    let trips: Vec<Trajectory> = archive
        .trajectories()
        .iter()
        .step_by(spec.keep_every)
        .cloned()
        .collect();
    drop(archive);

    // The warm-up queries belong to set-up and so to the world: the same for
    // every seed, or `setup_s` would vary with the draw. They come from the
    // world's own stream, which no `--seed` restarts, so no timed query can
    // repeat one.
    let n_warm = round * WARMUP_ROUNDS;
    let warmup = draw_queries(&net, &mut sim, &cfg, spec.interval_s, 0, n_warm);
    // From here on the simulator keeps its world (network, OD patterns) but
    // draws from the run's own seed.
    *sim.rng() = ChaCha8Rng::seed_from_u64(seed);
    let queries = draw_queries(
        &net,
        &mut sim,
        &cfg,
        spec.interval_s,
        n_warm,
        round * rounds,
    );
    let chunks = if spec.facade == Facade::Live {
        let sized_s = rounds as f64 / spec.rounds as f64 * REFERENCE_SECONDS;
        let due = sized_s * 1000.0 / INGEST_PERIOD_MS as f64;
        let n = (due * INGEST_POOL_MARGIN).ceil() as usize;
        (0..n)
            .map(|_| {
                sim.generate_trips_n(INGEST_TRIPS_PER_CHUNK)
                    .into_iter()
                    .map(|t| t.trajectory)
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    Inputs {
        net,
        trips,
        warmup,
        queries,
        chunks,
        round,
    }
}

/// Draws `n` distinct queries the way the evaluation scenario does: a trip
/// from the demand model inside the length band, re-driven at the native
/// 20 s rate, GPS noise added, then resampled down to `interval_s`.
fn draw_queries(
    net: &RoadNetwork,
    sim: &mut Simulator<'_>,
    cfg: &ScenarioConfig,
    interval_s: f64,
    first_id: usize,
    n: usize,
) -> Vec<Query> {
    let mut out = Vec::with_capacity(n);
    let mut guard = 0usize;
    while out.len() < n {
        guard += 1;
        assert!(guard < n * 200 + 1000, "query generator starved");
        let Some(trip) = sim.generate_trips_n(1).into_iter().next() else {
            continue;
        };
        let len = trip.route.length(net);
        if len < cfg.query_len_m.0 || len > cfg.query_len_m.1 {
            continue;
        }
        let speed_factor = sim.rng().gen_range(0.6..0.9);
        let Some(points) = drive_route(
            net,
            &trip.route,
            trip.depart_t,
            cfg.query_interval_s,
            speed_factor,
        ) else {
            continue;
        };
        let dense = Trajectory::new(TrajId((first_id + out.len()) as u32), points);
        let noisy = add_gps_noise(&dense, cfg.query_noise_m, sim.rng());
        out.push(Query {
            traj: resample_to_interval(&noisy, interval_s),
            truth: trip.route,
        });
    }
    out
}

/// 64-bit FNV-1a, the benchmark's one hash: seeds, query-set and answer
/// checksums.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes.
#[must_use]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checksum of a query set: every coordinate and timestamp, bit for bit.
#[must_use]
pub fn query_set_checksum(queries: &[Query]) -> u64 {
    let mut h = fnv1a(b"queries");
    for q in queries {
        for p in &q.traj.points {
            h = fnv1a_extend(h, &p.pos.x.to_bits().to_le_bytes());
            h = fnv1a_extend(h, &p.pos.y.to_bits().to_le_bytes());
            h = fnv1a_extend(h, &p.t.to_bits().to_le_bytes());
        }
    }
    h
}
