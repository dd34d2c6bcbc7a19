//! Set-up: from generated inputs to a warmed serving front.
//!
//! Set-up is what an operator pays before the first query is answered:
//! snapshot decode (where used), archive indexing, shard partition, facade
//! construction, shortest-path-oracle preprocessing and one warm-up pass
//! over queries that are never used again. Input generation is not part of
//! it. Every call starts from a cold clone of the road network, so set-up
//! can be repeated inside one process and timed each time.
//!
//! Every front schedules a query's pairs on the calling thread
//! (`ExecMode::Sequential`); the fronts that the issue runs on
//! `EngineConfig::default()` keep everything else of it (shortest-path
//! cache, candidate memo). The `rayon` this repository links spawns OS
//! threads on every fan-out, which on a host of two shared cores times the
//! scheduler, and work on other threads is invisible to the thread clock the
//! gated timings are read from (`crate::host`).

use crate::host::{off_thread_share, process_cpu, thread_cpu, HostMeter, Lap};
use crate::workload::{Facade, Inputs, WorkloadSpec};
use hris::prelude::*;
use hris_obs::MetricsRegistry;
use hris_roadnet::RoadNetwork;
use hris_router::{ShardPlan, ShardedEngine};
use hris_traj::{encode_snapshot, ColumnarSnapshot, Trajectory};
use std::sync::Arc;
use std::time::Instant;

/// Replication margin of the 2×2 shard plan, metres.
pub const SHARD_MARGIN_M: f64 = 2500.0;

/// Where set-up time went, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetUp {
    /// `ingest_live`: HRISSNAP blob → archive (includes its index build).
    pub decode_s: f64,
    /// Facade construction (for the router: plan + partition + shards).
    pub build_s: f64,
    /// Shortest-path-oracle preprocessing, as the oracle reports it.
    pub preprocess_s: f64,
    /// The warm-up pass.
    pub cold_pass_s: f64,
    /// All of the above on the thread CPU clock, at reference speed (each
    /// stretch between two calibration samples ÷ the host's slow-down around
    /// it): the gated `setup_s`.
    pub total_s: f64,
    /// All of the above, wall clock.
    pub wall_s: f64,
    /// Share of the process's CPU time during set-up spent off the calling
    /// thread, where `total_s` does not see it.
    pub off_thread: f64,
    /// Bytes of the HRISSNAP blob (`ingest_live`; else 0).
    pub blob_bytes: usize,
    /// Points in the indexed archive.
    pub archive_points: usize,
}

/// A warmed serving front.
pub enum Front<'h> {
    /// Borrowed engine over a `Hris`.
    Engine(QueryEngine<'h>),
    /// Owned handle (fixed or live).
    Handle(EngineHandle),
    /// Sharded router.
    Sharded(ShardedEngine),
}

impl Front<'_> {
    /// The canonical single-query entrypoint of whichever front this is.
    #[must_use]
    pub fn infer(&self, query: &Trajectory, k: usize) -> QueryResult {
        match self {
            Front::Engine(e) => e.infer_query(query, k),
            Front::Handle(h) => h.infer_query(query, k),
            Front::Sharded(s) => s.infer_query(query, k),
        }
    }

    /// Cache counters of the front (summed over shards for the router).
    #[must_use]
    pub fn cache_stats(&self) -> EngineCacheStats {
        match self {
            Front::Engine(e) => e.cache_stats(),
            Front::Handle(h) => h.cache_stats(),
            Front::Sharded(s) => (0..s.num_shards()).map(|i| s.shard(i).cache_stats()).fold(
                EngineCacheStats::default(),
                |a, b| EngineCacheStats {
                    sp_hits: a.sp_hits + b.sp_hits,
                    sp_misses: a.sp_misses + b.sp_misses,
                    candidate_hits: a.candidate_hits + b.candidate_hits,
                    candidate_misses: a.candidate_misses + b.candidate_misses,
                },
            ),
        }
    }
}

/// The engine configuration of the handle and the shards: the default one
/// (shortest-path cache, candidate memo) with a query's pairs on the calling
/// thread.
#[must_use]
pub fn serving_config() -> EngineConfig {
    EngineConfig::builder()
        .mode(ExecMode::Sequential)
        .build()
        .expect("default configuration, sequential, is valid")
}

/// The engine configuration of the live front: [`serving_config`] plus
/// observability (metrics, trace ring, 1-in-16 span sampling).
#[must_use]
pub fn live_config() -> EngineConfig {
    EngineConfig::builder()
        .mode(ExecMode::Sequential)
        .observability(true)
        .build()
        .expect("default configuration with observability is valid")
}

/// What the body of [`with_front`] gets to work with.
pub struct Served<'a, 'h> {
    /// The warmed front.
    pub front: &'a Front<'h>,
    /// The cold-cloned network the front serves on.
    pub net: &'a Arc<RoadNetwork>,
    /// `ingest_live`: the write side of the live archive.
    pub writer: Option<&'a mut ArchiveWriter>,
    /// Where set-up time went.
    pub setup: SetUp,
    /// The process's calibrator, for the timed sections of the body.
    pub meter: &'a mut HostMeter,
}

/// Sets `spec`'s front up over `inp`, warms it, and runs `body` on it.
pub fn with_front<R>(
    spec: &WorkloadSpec,
    inp: &Inputs,
    meter: &mut HostMeter,
    body: impl FnOnce(Served<'_, '_>) -> R,
) -> R {
    // Not set-up: obtaining a cold copy of the inputs.
    let net = Arc::new(inp.net.clone());
    let trips = inp.trips.clone();
    let blob = (spec.facade == Facade::Live)
        .then(|| encode_snapshot(&TrajectoryArchive::new(trips.clone()), 0));
    let params = HrisParams::default();
    let mut setup = SetUp::default();

    // A calibration sample before set-up, one before every
    // `calib_every`-th warm-up query and one after the last: each stretch
    // between two samples is timed on its own and brought to reference
    // speed by the samples around it.
    let first = meter.sample();
    let (p0, t0) = (process_cpu(), thread_cpu());
    let mut lap = Lap::start();
    let mut stretches = Vec::new();
    let archive = match &blob {
        Some(blob) => {
            setup.blob_bytes = blob.len();
            let t = Instant::now();
            let archive = ColumnarSnapshot::open(blob.clone())
                .and_then(|s| s.decode_archive())
                .expect("a freshly encoded snapshot decodes");
            setup.decode_s = t.elapsed().as_secs_f64();
            archive
        }
        None => TrajectoryArchive::new(trips),
    };
    setup.archive_points = archive.num_points();

    let t_build = Instant::now();
    let hris;
    let mut writer = None;
    let front = match spec.facade {
        Facade::Engine => {
            hris = Hris::new(&net, archive, params);
            Front::Engine(QueryEngine::with_config(&hris, EngineConfig::sequential()))
        }
        Facade::Handle => Front::Handle(EngineHandle::with_config(
            Arc::clone(&net),
            archive,
            params,
            serving_config(),
        )),
        Facade::Sharded => {
            let plan = ShardPlan::grid(&net, 2, 2, SHARD_MARGIN_M);
            Front::Sharded(ShardedEngine::build(
                Arc::clone(&net),
                &archive,
                params,
                serving_config(),
                plan,
            ))
        }
        Facade::Live => {
            let registry = Arc::new(MetricsRegistry::new());
            let opts = IngestOptions {
                retain_max_trajectories: Some(archive.num_trajectories()),
                ..IngestOptions::default()
            };
            let mut w = ArchiveWriter::with_options(archive, opts);
            w.observe(&registry);
            let handle = EngineHandle::live_with_registry(
                Arc::clone(&net),
                w.reader(),
                params,
                live_config(),
                registry,
            );
            writer = Some(w);
            Front::Handle(handle)
        }
    };
    setup.build_s = t_build.elapsed().as_secs_f64();
    setup.preprocess_s = net.sp_oracle().preprocessing_seconds();

    for (i, q) in inp.warmup.iter().enumerate() {
        if i.is_multiple_of(spec.calib_every) {
            stretches.push(lap.end());
            meter.sample();
            lap = Lap::start();
        }
        std::hint::black_box(front.infer(&q.traj, spec.k));
    }
    stretches.push(lap.end());
    setup.off_thread = off_thread_share(process_cpu() - p0, thread_cpu() - t0);
    let last = meter.sample();
    setup.wall_s = stretches.iter().map(|&(_, wall)| wall).sum();
    setup.cold_pass_s = setup.wall_s - stretches[0].1;
    setup.total_s = stretches
        .iter()
        .enumerate()
        .map(|(i, &(cpu, _))| cpu / meter.local_slowdown(first + i, first, last))
        .sum();

    body(Served {
        front: &front,
        net: &net,
        writer: writer.as_mut(),
        setup,
        meter,
    })
}
