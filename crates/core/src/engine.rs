//! Parallel batch query engine.
//!
//! [`Hris`] answers one query on one thread. The [`QueryEngine`] wraps a
//! `Hris` and serves the same three-phase pipeline as a throughput-oriented
//! front end:
//!
//! * **Pair parallelism** — phases 1–2 of a query (reference search + local
//!   inference per consecutive point pair) are independent per pair; the
//!   engine fans them out on the thread pool and hands the results to K-GRI
//!   in query order.
//! * **Batch fan-out** — [`QueryEngine::infer_batch`] spreads whole queries
//!   across the pool (each query's pairs then run sequentially, so the pool
//!   is never oversubscribed by nested fan-out).
//! * **One shortest-path cache** — the engine keeps no cache of its own:
//!   the data-sparseness fallback is the same
//!   [`SpOracle::route_between`](hris_roadnet::SpOracle) call `Hris` makes,
//!   so every pair of every query shares the network's oracle.
//! * **Observability** — with [`ObsOptions::enabled`](crate::ObsOptions)
//!   the engine records per-phase wall time, queue depth, worker occupancy
//!   and one [`QueryRecord`] per query (trace ring on) on an [`hris_obs`]
//!   registry ([`EngineObs`]). One span guard per phase is the only
//!   stopwatch: the phase histograms, the record's `*_s` fields and its
//!   span tree are the same measurement, and every record carries its
//!   phase tree (sampled queries add per-pair detail) and an explanation
//!   of each returned route. Disabled (the default) the hot path performs
//!   no clock reads and no atomic updates.
//!
//! The load-bearing invariant: **scheduling and instrumentation never
//! change any result.** Pair workers only read shared state, so sequential,
//! pair-parallel and batch execution return byte-identical routes and
//! scores, with or without metrics enabled.
//! `tests/engine_determinism.rs` and `tests/engine_observability.rs` pin
//! this down.

use crate::audit::explain;
use crate::global::GlobalRoute;
use crate::local::{LocalInferenceResult, LocalStats};
use crate::params::{EngineConfig, ExecMode, HrisParams, ObsOptions};
use crate::pipeline::{
    degenerate_local, infer_pair, query_candidates, DegenerateQuery, Hris, ScoredRoute,
};
use crate::scoring::{PaperScorer, RouteScorer, ScoringCtx};
use hris_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, QueryRecord, SpanCollector,
    SpanGuard, SpanParent, SpanSampler, TraceRing, DEFAULT_TIME_BOUNDS,
};
use hris_roadnet::network::CandidateEdge;
use hris_roadnet::RoadNetwork;
use hris_traj::{sanitize_points, PointRepairs, SanitizeLimits, Trajectory, TrajectoryArchive};
use rayon::prelude::*;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why the engine refused to answer a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The query had no observations at all.
    EmptyQuery,
    /// Sanitization removed every observation (all points were garbage).
    NoUsablePoints,
    /// Sharded serving only: every shard holding the query's data is
    /// unhealthy (corrupt archive or stale snapshot), and no healthy shard
    /// can stand in.
    ShardUnavailable,
    /// Admission control shed the query: every execution slot and the
    /// whole waiting room were occupied. The caller should back off and
    /// retry — the 429 of this API.
    Overloaded,
}

/// Per-query disposition of the engine's validation/degradation layer.
///
/// The ladder, from best to worst:
/// * [`QueryOutcome::Ok`] — the input satisfied the engine's contract and
///   took the normal pipeline unchanged (byte-identical to plain
///   [`Hris`]).
/// * [`QueryOutcome::Repaired`] — the input violated the contract but
///   sanitization fixed it (dropped garbage points, re-sorted timestamps,
///   removed duplicate records); the repaired query then answered normally.
/// * [`QueryOutcome::Degraded`] — repaired as above, *and* at least one
///   point pair needed the degradation chain (forced TGI → forced NNI →
///   shortest path) to produce a route. The answer is a best effort.
/// * [`QueryOutcome::Rejected`] — nothing usable remained; the result is
///   empty and [`RejectReason`] says why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryOutcome {
    /// Valid input, normal pipeline.
    Ok,
    /// Input repaired, then answered through the normal pipeline.
    Repaired {
        /// What sanitization did.
        repairs: PointRepairs,
    },
    /// Input repaired and answered only via the fallback chain.
    Degraded {
        /// What sanitization did.
        repairs: PointRepairs,
        /// Point pairs that needed a fallback beyond the primary algorithm.
        pairs_fell_back: usize,
    },
    /// No answer; the result is empty.
    Rejected {
        /// Why the query could not be answered.
        reason: RejectReason,
    },
}

impl QueryOutcome {
    /// The outcome of a query that was served: [`QueryOutcome::Ok`] for a
    /// clean one (`repairs` is `None`), otherwise
    /// [`QueryOutcome::Repaired`], or [`QueryOutcome::Degraded`] when any
    /// pair fell back. The one mapping every front reports through.
    #[must_use]
    pub fn served(repairs: Option<PointRepairs>, pairs_fell_back: usize) -> Self {
        match repairs {
            None => QueryOutcome::Ok,
            Some(repairs) if pairs_fell_back > 0 => QueryOutcome::Degraded {
                repairs,
                pairs_fell_back,
            },
            Some(repairs) => QueryOutcome::Repaired { repairs },
        }
    }

    /// Stable lower-case label (metrics, reports).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            QueryOutcome::Ok => "ok",
            QueryOutcome::Repaired { .. } => "repaired",
            QueryOutcome::Degraded { .. } => "degraded",
            QueryOutcome::Rejected { .. } => "rejected",
        }
    }

    /// `true` for [`QueryOutcome::Ok`].
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, QueryOutcome::Ok)
    }
}

/// One query's answer plus its [`QueryOutcome`].
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Top-K global routes (empty when rejected or nothing was inferable).
    pub globals: Vec<GlobalRoute>,
    /// Per-pair local statistics.
    pub stats: Vec<LocalStats>,
    /// How the validation/degradation layer handled the query.
    pub outcome: QueryOutcome,
}

impl QueryResult {
    /// The empty answer of a query that was refused.
    #[must_use]
    pub fn rejected(reason: RejectReason) -> Self {
        QueryResult {
            globals: Vec::new(),
            stats: Vec::new(),
            outcome: QueryOutcome::Rejected { reason },
        }
    }
}

/// A query that passed [`screen`]: the points to serve and what it took to
/// get them.
#[derive(Debug)]
pub struct Screened<'q> {
    /// The query as the pipeline serves it: borrowed when clean, the
    /// sanitized copy when repaired.
    pub served: Cow<'q, Trajectory>,
    /// What sanitization did; `None` for a clean query served as given.
    pub repairs: Option<PointRepairs>,
}

/// The validation screen every serving front puts in front of the one
/// pipeline — not a switch, and the only place a query is sanitized.
///
/// The input contract: finite coordinates and timestamps, magnitudes within
/// [`SanitizeLimits::default`], timestamps non-decreasing. Duplicate
/// timestamps and large (but in-range) jumps are *valid* — they are data,
/// not corruption. A query that satisfies the contract (the overwhelming
/// majority) is served as given, byte-identical to plain [`Hris`] — pinned
/// by `tests/engine_robustness.rs`. A dirty query is repaired (garbage
/// points dropped, timestamps re-sorted, duplicate records removed) and
/// served with the degradation chain armed.
///
/// # Errors
/// [`RejectReason::EmptyQuery`] for a query without observations (an empty
/// question, as opposed to an empty answer) and
/// [`RejectReason::NoUsablePoints`] when sanitization leaves nothing.
pub fn screen(query: &Trajectory) -> Result<Screened<'_>, RejectReason> {
    if query.is_empty() {
        return Err(RejectReason::EmptyQuery);
    }
    let lim = SanitizeLimits::default();
    let valid = query.validate().is_ok()
        && query.points.iter().all(|p| {
            p.pos.x.abs() <= lim.max_abs_coord_m
                && p.pos.y.abs() <= lim.max_abs_coord_m
                && p.t.abs() <= lim.max_abs_time_s
        });
    if valid {
        return Ok(Screened {
            served: Cow::Borrowed(query),
            repairs: None,
        });
    }
    let mut pts = query.points.clone();
    let repairs = sanitize_points(&mut pts, &lim);
    if pts.is_empty() {
        return Err(RejectReason::NoUsablePoints);
    }
    // Sanitization guarantees finite, ordered points, so the validating
    // constructor cannot panic here.
    Ok(Screened {
        served: Cow::Owned(Trajectory::new(query.id, pts)),
        repairs: Some(repairs),
    })
}

/// Shortest-path cache counters as the engine's callers see them.
///
/// The engine keeps no cache of its own: `sp_hits`/`sp_misses` are one
/// consistent reading of the served network's
/// [`SpOracle::lookup_counters`](hris_roadnet::SpOracle::lookup_counters)
/// (the one shortest-path cache, shared by everything on that network, so
/// the numbers include probes made by local inference and by other engines
/// on the same network). The candidate fields are kept for source
/// compatibility with the benchmark and always read 0 — the per-position
/// candidate memo they counted no longer exists.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCacheStats {
    /// Oracle probes answered from precomputed state.
    pub sp_hits: u64,
    /// Oracle probes that ran Dijkstra.
    pub sp_misses: u64,
    /// Always 0 (the candidate memo was removed).
    pub candidate_hits: u64,
    /// Always 0 (the candidate memo was removed).
    pub candidate_misses: u64,
}

/// Phases 1–2 of one query plus the numbers the instrumentation wants.
#[derive(Default)]
pub(crate) struct LocalRun {
    pub(crate) locals: Vec<LocalInferenceResult>,
    /// Pairs that needed a step beyond the configured local algorithm.
    pub(crate) pairs_fell_back: usize,
    /// Candidate edges summed over all query points.
    candidates_total: usize,
    /// Candidate edges per query point; filled only when the trace ring is
    /// on (its sole reader is the query's record).
    candidates_per_point: Vec<usize>,
    /// Wall seconds of the `candidates` span (0 when off or not run).
    candidates_s: f64,
    /// Wall seconds of the `local` span (0 when off or not run).
    local_s: f64,
}

/// The engine's live instrumentation: metric handles on a shared
/// [`MetricsRegistry`] plus the ring of per-query records.
///
/// All metric names are prefixed `hris_engine_` and form a stable contract
/// (see DESIGN.md §5d for the catalog). The registry may be shared with
/// other components — handles are registered get-or-create.
pub struct EngineObs {
    registry: Arc<MetricsRegistry>,
    queries: Counter,
    batches: Counter,
    slow_queries: Counter,
    traces_dropped: Counter,
    repaired: Counter,
    degraded: Counter,
    rejected: Counter,
    points_dropped: Counter,
    phase_candidates: Histogram,
    phase_local: Histogram,
    phase_global: Histogram,
    phase_refine: Histogram,
    query_seconds: Histogram,
    batch_seconds: Histogram,
    queue_depth: Gauge,
    workers_busy: Gauge,
    slo_good: Counter,
    slo_breach: Counter,
    shed: Counter,
    traces: TraceRing,
    next_query_id: AtomicU64,
    slow_threshold_s: f64,
    span_sampler: SpanSampler,
}

impl EngineObs {
    fn new(registry: Arc<MetricsRegistry>, opts: &ObsOptions) -> Self {
        let phase = |name: &str| {
            registry.histogram_with_labels(
                "hris_engine_phase_seconds",
                "Wall seconds per pipeline phase, per query.",
                &DEFAULT_TIME_BOUNDS,
                &[("phase", name)],
            )
        };
        EngineObs {
            queries: registry.counter("hris_engine_queries_total", "Queries served."),
            batches: registry.counter("hris_engine_batches_total", "Batches served."),
            slow_queries: registry.counter(
                "hris_engine_slow_queries_total",
                "Queries slower than the configured slow-query threshold.",
            ),
            traces_dropped: registry.counter(
                "hris_engine_traces_dropped_total",
                "Trace records evicted from the ring buffer.",
            ),
            repaired: registry.counter(
                "hris_engine_repaired_total",
                "Queries whose input needed sanitization before answering.",
            ),
            degraded: registry.counter(
                "hris_engine_degraded_total",
                "Repaired queries that also needed the degradation chain.",
            ),
            rejected: registry.counter(
                "hris_engine_rejected_total",
                "Queries rejected because no usable input remained.",
            ),
            points_dropped: registry.counter(
                "hris_engine_points_dropped_total",
                "Query points discarded by input sanitization.",
            ),
            phase_candidates: phase("candidates"),
            phase_local: phase("local"),
            phase_global: phase("global"),
            phase_refine: phase("refine"),
            query_seconds: registry.histogram(
                "hris_engine_query_seconds",
                "End-to-end wall seconds per query.",
                &DEFAULT_TIME_BOUNDS,
            ),
            batch_seconds: registry.histogram(
                "hris_engine_batch_seconds",
                "Wall seconds per infer_batch call.",
                &DEFAULT_TIME_BOUNDS,
            ),
            queue_depth: registry.gauge(
                "hris_engine_queue_depth",
                "Queries of the current batch not yet picked up by a worker.",
            ),
            workers_busy: registry.gauge(
                "hris_engine_workers_busy",
                "Workers currently inside a query.",
            ),
            slo_good: registry.counter(
                "hris_engine_slo_good_total",
                "Queries answered within the slow-query SLO threshold.",
            ),
            slo_breach: registry.counter(
                "hris_engine_slo_breach_total",
                "Queries breaching the slow-query SLO threshold (burn counter).",
            ),
            shed: registry.counter(
                "hris_engine_shed_total",
                "Queries shed by admission control (waiting room full).",
            ),
            traces: TraceRing::new(opts.trace_capacity),
            next_query_id: AtomicU64::new(1),
            slow_threshold_s: opts.slow_query_threshold_s,
            span_sampler: SpanSampler::new(opts.span_sample_every),
            registry,
        }
    }

    /// The registry all engine metrics live on.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Convenience for `registry().snapshot()`.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The retained per-query records, oldest first.
    #[must_use]
    pub fn traces(&self) -> Vec<QueryRecord> {
        self.traces.snapshot()
    }

    /// How many records the ring has evicted so far.
    #[must_use]
    pub fn dropped_traces(&self) -> u64 {
        self.traces.dropped()
    }

    /// A handle onto the live record ring (clones share storage), for
    /// serving `/debug/traces` and `/debug/explain/<trace_id>` without
    /// copying on registration.
    #[must_use]
    pub fn trace_ring(&self) -> TraceRing {
        self.traces.clone()
    }

    fn tracing(&self) -> bool {
        self.traces.capacity() > 0
    }

    /// Whether this traced query's tree should carry per-`pair` detail —
    /// the one part of a tree whose cost grows with the query. False
    /// whenever sampling is disabled (`span_sample_every == 0`).
    fn sample_pairs(&self) -> bool {
        self.span_sampler.sample()
    }

    /// Counts one finished query — clean, repaired, degraded or rejected
    /// alike: outcome counters, phase histograms and the SLO bucket. Every
    /// duration is the `finish()` of the like-named span guard, so
    /// histogram, record field and span agree bit for bit. Returns whether
    /// the query was slow.
    fn count_query(
        &self,
        run: &LocalRun,
        global_s: f64,
        refine_s: f64,
        total_s: f64,
        result: &QueryResult,
    ) -> bool {
        self.queries.inc();
        match &result.outcome {
            QueryOutcome::Ok => {}
            QueryOutcome::Repaired { repairs } => {
                self.repaired.inc();
                self.points_dropped.add(repairs.points_dropped() as u64);
            }
            QueryOutcome::Degraded { repairs, .. } => {
                self.repaired.inc();
                self.degraded.inc();
                self.points_dropped.add(repairs.points_dropped() as u64);
            }
            QueryOutcome::Rejected { .. } => self.rejected.inc(),
        }
        self.phase_candidates.observe(run.candidates_s);
        self.phase_local.observe(run.local_s);
        self.phase_global.observe(global_s);
        self.phase_refine.observe(refine_s);
        self.query_seconds.observe(total_s);
        let slow = total_s > self.slow_threshold_s;
        if slow {
            self.slow_queries.inc();
            self.slo_breach.inc();
        } else {
            self.slo_good.inc();
        }
        slow
    }

    /// Stamps the next query id onto `rec` and keeps it in the ring.
    fn push_record(&self, mut rec: QueryRecord) {
        rec.query_id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        if self.traces.push(rec) {
            self.traces_dropped.inc();
        }
    }

    /// Records an admission-control shed. A shed query is a served-badly
    /// query, not an invisible one: it counts as a query, a rejection,
    /// an SLO breach (burn), and a shed. The SLO partition stays exact —
    /// every counted query lands in exactly one of `slo_good_total` /
    /// `slo_breach_total`. With the trace ring on, its record (outcome
    /// `"shed"`, no timings) is kept under `trace_id`.
    pub(crate) fn record_shed(&self, trace_id: u64, points: usize) -> QueryResult {
        self.queries.inc();
        self.rejected.inc();
        self.slo_breach.inc();
        self.shed.inc();
        let result = QueryResult::rejected(RejectReason::Overloaded);
        if self.tracing() {
            let mut rec = QueryRecord {
                trace_id,
                points,
                pairs: points.saturating_sub(1),
                ..QueryRecord::default()
            };
            explain(&mut rec, &result, None);
            self.push_record(rec);
        }
        result
    }
}

/// The immutable data one query is answered against: road network,
/// archive and parameters. `Copy`, so pair workers capture it by value.
///
/// The borrowed [`QueryEngine`] builds one from its [`Hris`]; the owned
/// [`EngineHandle`](crate::handle::EngineHandle) builds one per query from
/// whichever [`ArchiveSnapshot`](hris_traj::ArchiveSnapshot) epoch it is on.
#[derive(Clone, Copy)]
pub(crate) struct EngineCtx<'e> {
    pub(crate) net: &'e RoadNetwork,
    pub(crate) archive: &'e TrajectoryArchive,
    pub(crate) params: &'e HrisParams,
}

/// The engine's configuration and instrumentation state, shared by the
/// borrowed [`QueryEngine`] and the owned
/// [`EngineHandle`](crate::handle::EngineHandle) front ends.
///
/// Every inference method takes an [`EngineCtx`] naming the data to serve
/// against instead of borrowing it at construction, which is what lets the
/// handle re-point at a new archive epoch without rebuilding anything.
pub(crate) struct EngineCore {
    cfg: EngineConfig,
    obs: Option<EngineObs>,
}

/// [`EngineCacheStats`] of the network an engine serves: a view of its
/// oracle's counters (all zero while the oracle is still unbuilt).
pub(crate) fn cache_stats(net: &RoadNetwork) -> EngineCacheStats {
    let (sp_hits, sp_misses) = net
        .sp_oracle_if_built()
        .map_or((0, 0), |oracle| oracle.lookup_counters().get());
    EngineCacheStats {
        sp_hits,
        sp_misses,
        candidate_hits: 0,
        candidate_misses: 0,
    }
}

impl EngineCore {
    pub(crate) fn build(cfg: EngineConfig, registry: Option<Arc<MetricsRegistry>>) -> Self {
        let obs = registry.map(|r| EngineObs::new(r, &cfg.obs));
        EngineCore { cfg, obs }
    }

    pub(crate) fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Registers the network-level shortest-path oracle on the engine's
    /// registry: `hris_sp_oracle_{hits,misses}_total` (probes answered from
    /// precomputed state vs. probes that ran Dijkstra) and the one-off
    /// preprocessing cost as `hris_sp_oracle_preprocessing_micros`. No-op
    /// when observability is off — the oracle then stays lazily built.
    pub(crate) fn register_oracle_metrics(&self, net: &RoadNetwork) {
        let Some(obs) = &self.obs else { return };
        let oracle = net.sp_oracle();
        let _ = obs.registry().register_paired(
            "hris_sp_oracle",
            "Shortest-path oracle probes (hit = answered from precomputed state).",
            oracle.lookup_counters(),
        );
        obs.registry()
            .gauge(
                "hris_sp_oracle_preprocessing_micros",
                "One-off CSR/SCC/reachability preprocessing cost of the shortest-path oracle.",
            )
            .set((oracle.preprocessing_seconds() * 1e6) as i64);
    }

    pub(crate) fn observability(&self) -> Option<&EngineObs> {
        self.obs.as_ref()
    }

    /// The instrumentation, when the trace ring is on: the one switch of
    /// per-query records and of the identity they carry.
    fn traced(&self) -> Option<&EngineObs> {
        self.obs.as_ref().filter(|o| o.tracing())
    }

    /// Mints a process-unique trace id when the trace ring is on; 0 (the
    /// "untraced" id) otherwise, so the disabled path performs not even
    /// the atomic increment.
    pub(crate) fn mint_trace_id(&self) -> u64 {
        if self.traced().is_some() {
            hris_obs::next_trace_id()
        } else {
            0
        }
    }

    /// [`QueryEngine::infer_batch_detailed`] with the data named explicitly.
    pub(crate) fn infer_batch_detailed(
        &self,
        ctx: EngineCtx<'_>,
        queries: &[Trajectory],
        k: usize,
    ) -> Vec<QueryResult> {
        let batch = match &self.obs {
            Some(obs) => {
                obs.batches.inc();
                obs.queue_depth.set(queries.len() as i64);
                SpanGuard::timed()
            }
            None => SpanGuard::off(),
        };
        let run_one = |q: &Trajectory, mode: ExecMode| {
            if let Some(obs) = &self.obs {
                obs.queue_depth.dec();
                obs.workers_busy.inc();
            }
            let out = self.infer_query_mode(ctx, q, k, mode);
            if let Some(obs) = &self.obs {
                obs.workers_busy.dec();
            }
            out
        };
        let result = if self.cfg.batch_parallel && queries.len() > 1 {
            // One level of fan-out only: queries go to the pool, each
            // query's pairs run sequentially inside their worker.
            queries
                .par_iter()
                .map(|q| run_one(q, ExecMode::Sequential))
                .collect()
        } else {
            queries.iter().map(|q| run_one(q, self.cfg.mode)).collect()
        };
        let batch_s = batch.finish();
        if let Some(obs) = &self.obs {
            obs.batch_seconds.observe(batch_s);
        }
        result
    }

    pub(crate) fn infer_query_mode(
        &self,
        ctx: EngineCtx<'_>,
        query: &Trajectory,
        k: usize,
        mode: ExecMode,
    ) -> QueryResult {
        let trace_id = self.mint_trace_id();
        self.infer_query_traced(ctx, query, k, mode, trace_id)
    }

    /// [`screen`] in front of the one pipeline, under a caller-minted trace
    /// id — the delegation seam of distributed tracing: a sharded router
    /// mints one id at its routing decision and threads it here, so the
    /// shard's record joins the router's stitched tree. Clean, repaired
    /// and rejected queries are timed, recorded and explained by the same
    /// code.
    ///
    /// One [`SpanGuard`] per phase is the only stopwatch. Observability off
    /// makes every guard *off* (this path then reads no clock), on with the
    /// ring off *timed*, on with the ring on *recording* — at the same ten
    /// clock reads either way. The root opens before the screen, so
    /// `total_s` includes validation.
    pub(crate) fn infer_query_traced(
        &self,
        ctx: EngineCtx<'_>,
        query: &Trajectory,
        k: usize,
        mode: ExecMode,
        trace_id: u64,
    ) -> QueryResult {
        let obs = self.obs.as_ref();
        let traced = self.traced();
        let collector = traced.map(|_| SpanCollector::new());
        let mut root = match (obs, &collector) {
            (None, _) => SpanGuard::off(),
            (Some(_), None) => SpanGuard::timed(),
            (Some(_), Some(c)) => c.root("query"),
        };
        // `screened` is the validation verdict: `Ok(None)` clean,
        // `Ok(Some(repairs))` repaired (`served` is then the sanitized copy
        // and pairs run the degradation chain), `Err(reason)` rejected (no
        // inference runs; the empty answer is still recorded).
        let (served, screened) = match screen(query) {
            Ok(s) => (s.served, Ok(s.repairs)),
            Err(reason) => (Cow::Borrowed(query), Err(reason)),
        };
        let served: &Trajectory = &served;
        root.attr("points", served.len());
        root.attr("pairs", served.len().saturating_sub(1));
        let phases = root.as_parent();

        let mut run = match screened {
            Ok(repairs) => {
                let pair_detail = traced.is_some_and(EngineObs::sample_pairs);
                self.local_inference_run(ctx, served, mode, repairs.is_some(), phases, pair_detail)
            }
            Err(_) => LocalRun::default(),
        };

        let scorer = PaperScorer::from_params(ctx.params);
        let sctx = ScoringCtx::new(ctx.net, &run.locals, k);
        let mut global = phases.child("global");
        let globals = scorer.top_k(&sctx);
        global.attr("routes", globals.len());
        let global_s = global.finish();

        let refine = phases.child("refine");
        let result = QueryResult {
            globals,
            stats: run.locals.iter().map(|l| l.stats.clone()).collect(),
            outcome: match screened {
                Ok(repairs) => QueryOutcome::served(repairs, run.pairs_fell_back),
                Err(reason) => QueryOutcome::Rejected { reason },
            },
        };
        // Explaining the answer is result assembly too: done here, its cost
        // is billed to `refine` and the phases still sum to the query.
        let explained = collector.as_ref().map(|_| {
            let mut rec = QueryRecord {
                trace_id,
                points: served.len(),
                pairs: served.len().saturating_sub(1),
                candidates_per_point: std::mem::take(&mut run.candidates_per_point),
                ..QueryRecord::default()
            };
            explain(&mut rec, &result, Some((&sctx, &scorer)));
            rec
        });
        let refine_s = refine.finish();

        let root_span = root.id();
        let total_s = root.finish();
        let Some(obs) = obs else { return result };
        let slow = obs.count_query(&run, global_s, refine_s, total_s, &result);
        if let (Some(rec), Some(collector)) = (explained, collector) {
            obs.push_record(QueryRecord {
                candidates: run.candidates_total,
                routes: result.globals.len(),
                top_log_score: result.globals.first().map(|g| g.log_score),
                candidates_s: run.candidates_s,
                local_s: run.local_s,
                global_s,
                refine_s,
                total_s,
                slow,
                root_span,
                spans: collector.into_spans(),
                ..rec
            });
        }
        result
    }

    /// Phases 1–2 under `parent`: one `candidates` and one `local` span in
    /// the parent's state (an *off* parent reads no clock), `pair` children
    /// under `local` when `pair_detail` asks for them and, for `repaired`
    /// queries, the per-pair degradation chain armed (see [`infer_pair`]).
    pub(crate) fn local_inference_run(
        &self,
        ctx: EngineCtx<'_>,
        query: &Trajectory,
        mode: ExecMode,
        repaired: bool,
        parent: SpanParent<'_>,
        pair_detail: bool,
    ) -> LocalRun {
        let net = ctx.net;
        match degenerate_local(net, query) {
            DegenerateQuery::Empty => return LocalRun::default(),
            DegenerateQuery::Single(result) => {
                return LocalRun {
                    locals: vec![result],
                    ..LocalRun::default()
                }
            }
            DegenerateQuery::No => {}
        }
        // Candidates once per point (shared by the two adjoining pairs).
        let mut cand_guard = parent.child("candidates");
        let cands: Vec<Vec<CandidateEdge>> = query
            .points
            .iter()
            .map(|p| query_candidates(net, ctx.params, p.pos))
            .collect();
        let candidates_total = cands.iter().map(Vec::len).sum();
        cand_guard.attr("edges", candidates_total);
        let candidates_s = cand_guard.finish();

        let local_guard = parent.child("local");
        let pairs = if pair_detail {
            local_guard.as_parent()
        } else {
            SpanParent::off()
        };
        let pair_indices: Vec<usize> = (0..query.len() - 1).collect();
        let work = |i: usize| {
            // Per-pair child spans capture the local TGI/NNI inference for
            // each consecutive point pair; the guard's drop records it.
            let mut pair_guard = pairs.child("pair");
            pair_guard.attr("index", i);
            infer_pair(
                net,
                ctx.archive,
                ctx.params,
                query.points[i],
                query.points[i + 1],
                &cands[i],
                &cands[i + 1],
                repaired,
            )
        };
        let results: Vec<(LocalInferenceResult, bool)> =
            match effective_mode(mode, pair_indices.len()) {
                ExecMode::Sequential => pair_indices.into_iter().map(work).collect(),
                ExecMode::PairParallel => pair_indices.par_iter().map(|&i| work(i)).collect(),
            };
        let local_s = local_guard.finish();
        LocalRun {
            pairs_fell_back: results.iter().filter(|(_, fb)| *fb).count(),
            locals: results.into_iter().map(|(l, _)| l).collect(),
            candidates_total,
            candidates_per_point: if self.traced().is_some() {
                cands.iter().map(Vec::len).collect()
            } else {
                Vec::new()
            },
            candidates_s,
            local_s,
        }
    }
}

/// Pair count below which [`ExecMode::PairParallel`] runs a query's pairs
/// sequentially on the calling thread: the pool's fork/join overhead
/// exceeds the work of a handful of pairs (measured on 2 threads: 1.35×
/// for pair-parallel at 14.8 pairs/query, 0.98× on 3-pair queries).
const PAIR_PARALLEL_MIN_PAIRS: usize = 8;

/// The scheduling mode actually used for a query with `pairs` point pairs:
/// [`ExecMode::PairParallel`] degrades to sequential below
/// [`PAIR_PARALLEL_MIN_PAIRS`]. Scheduling never changes results, so this
/// is a pure throughput decision made from the input size.
fn effective_mode(mode: ExecMode, pairs: usize) -> ExecMode {
    match mode {
        ExecMode::PairParallel if pairs < PAIR_PARALLEL_MIN_PAIRS => ExecMode::Sequential,
        m => m,
    }
}

/// Throughput-oriented front end over a borrowed [`Hris`] instance.
///
/// Cheap to construct; holds only configuration and instrumentation state. All
/// methods take `&self` and the engine is `Sync`, so one engine may serve
/// many threads. Because it borrows its `Hris` (and through it the road
/// network) for its whole lifetime, a `QueryEngine` cannot outlive its data
/// or follow a live archive — for owned, `'static` serving (async runtimes,
/// spawned threads, live ingestion) use
/// [`EngineHandle`](crate::handle::EngineHandle) instead.
///
/// [`QueryEngine::infer_query`] is the single-query path and
/// [`QueryEngine::infer_batch_detailed`] the batch path;
/// [`QueryEngine::infer_batch`] keeps only the latter's scored routes.
pub struct QueryEngine<'a> {
    hris: &'a Hris<'a>,
    core: EngineCore,
}

impl<'a> QueryEngine<'a> {
    /// Engine with the default configuration (pair-parallel,
    /// instrumentation off).
    #[must_use]
    pub fn new(hris: &'a Hris<'a>) -> Self {
        QueryEngine::with_config(hris, EngineConfig::default())
    }

    /// Engine with an explicit configuration. When `cfg.obs.enabled`, the
    /// engine instruments itself onto a fresh private registry (reachable
    /// through [`QueryEngine::observability`]).
    #[must_use]
    pub fn with_config(hris: &'a Hris<'a>, cfg: EngineConfig) -> Self {
        let registry = cfg.obs.enabled.then(|| Arc::new(MetricsRegistry::new()));
        let core = EngineCore::build(cfg, registry);
        core.register_oracle_metrics(hris.network());
        QueryEngine { hris, core }
    }

    /// Engine instrumented onto a caller-owned registry (e.g. one shared
    /// with other components or scraped by an exporter). Implies
    /// `cfg.obs.enabled`.
    #[must_use]
    pub fn with_registry(
        hris: &'a Hris<'a>,
        mut cfg: EngineConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        cfg.obs.enabled = true;
        let core = EngineCore::build(cfg, Some(registry));
        core.register_oracle_metrics(hris.network());
        QueryEngine { hris, core }
    }

    fn ctx(&self) -> EngineCtx<'_> {
        EngineCtx {
            net: self.hris.network(),
            archive: self.hris.archive(),
            params: self.hris.params(),
        }
    }

    /// The wrapped system.
    #[must_use]
    pub fn hris(&self) -> &Hris<'a> {
        self.hris
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        self.core.config()
    }

    /// The engine's instrumentation, when enabled.
    #[must_use]
    pub fn observability(&self) -> Option<&EngineObs> {
        self.core.observability()
    }

    /// The served network's shortest-path oracle counters — see
    /// [`EngineCacheStats`].
    #[must_use]
    pub fn cache_stats(&self) -> EngineCacheStats {
        cache_stats(self.hris.network())
    }

    /// One query through [`screen`]: answer plus its [`QueryOutcome`].
    /// Never panics on malformed input.
    #[must_use]
    pub fn infer_query(&self, query: &Trajectory, k: usize) -> QueryResult {
        self.core
            .infer_query_mode(self.ctx(), query, k, self.config().mode)
    }

    /// Every query of a batch through the validation screen and — when
    /// `batch_parallel` is set — spread across the pool.
    #[must_use]
    pub fn infer_batch_detailed(&self, queries: &[Trajectory], k: usize) -> Vec<QueryResult> {
        self.core.infer_batch_detailed(self.ctx(), queries, k)
    }

    /// Top-`k` routes for every query of a batch. Thin wrapper over
    /// [`QueryEngine::infer_batch_detailed`] that keeps only the scored
    /// routes.
    #[must_use]
    pub fn infer_batch(&self, queries: &[Trajectory], k: usize) -> Vec<Vec<ScoredRoute>> {
        self.infer_batch_detailed(queries, k)
            .into_iter()
            .map(|r| {
                r.globals
                    .into_iter()
                    .map(|g| ScoredRoute {
                        route: g.route,
                        log_score: g.log_score,
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HrisParams;
    use hris_roadnet::{generator, NetworkConfig};
    use hris_traj::{TrajId, TrajectoryArchive};

    fn sparse_setup() -> (hris_roadnet::RoadNetwork, Vec<Trajectory>) {
        // Empty archive → every pair takes the shortest-path fallback.
        let net = generator::generate(&NetworkConfig::small(5));
        let mk = |id: u32, x0: f64| {
            Trajectory::new(
                TrajId(id),
                (0..4)
                    .map(|k| {
                        hris_traj::GpsPoint::new(
                            hris_geo::Point::new(x0 + k as f64 * 400.0, 120.0),
                            k as f64 * 120.0,
                        )
                    })
                    .collect(),
            )
        };
        let queries = vec![mk(0, 0.0), mk(1, 0.0), mk(2, 200.0)];
        (net, queries)
    }

    #[test]
    fn pair_parallel_threshold_degrades_to_sequential() {
        assert_eq!(
            effective_mode(ExecMode::PairParallel, PAIR_PARALLEL_MIN_PAIRS - 1),
            ExecMode::Sequential
        );
        assert_eq!(
            effective_mode(ExecMode::PairParallel, PAIR_PARALLEL_MIN_PAIRS),
            ExecMode::PairParallel
        );
        // An explicit sequential request is never upgraded.
        assert_eq!(
            effective_mode(ExecMode::Sequential, 100),
            ExecMode::Sequential
        );
        // Queries on either side of the threshold answer byte-identically
        // under both modes (scheduling is forbidden from changing results).
        let (net, _) = sparse_setup();
        let hris = Hris::new(&net, TrajectoryArchive::empty(), HrisParams::default());
        let sequential = QueryEngine::with_config(&hris, EngineConfig::sequential());
        let parallel = QueryEngine::new(&hris);
        assert_eq!(parallel.config().mode, ExecMode::PairParallel);
        for points in [4, PAIR_PARALLEL_MIN_PAIRS + 2] {
            let q = Trajectory::new(
                TrajId(0),
                (0..points)
                    .map(|k| {
                        hris_traj::GpsPoint::new(
                            hris_geo::Point::new(k as f64 * 150.0, 120.0),
                            k as f64 * 60.0,
                        )
                    })
                    .collect(),
            );
            let a = sequential.infer_query(&q, 3).globals;
            let b = parallel.infer_query(&q, 3).globals;
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.route, y.route);
                assert_eq!(x.log_score.to_bits(), y.log_score.to_bits());
            }
        }
    }

    #[test]
    fn screen_borrows_clean_repairs_dirty_and_rejects_unusable() {
        let (_, queries) = sparse_setup();
        let clean = screen(&queries[0]).expect("clean query passes");
        assert!(matches!(clean.served, Cow::Borrowed(_)));
        assert_eq!(clean.repairs, None);

        let mut pts = queries[0].points.clone();
        pts[1].pos.x = f64::NAN;
        pts.swap(2, 3);
        let dirty = Trajectory::from_unchecked(TrajId(7), pts);
        let repaired = screen(&dirty).expect("two garbage-free points remain");
        assert_eq!(repaired.served.len(), 3);
        assert!(repaired.served.validate().is_ok());
        let repairs = repaired.repairs.expect("repairs reported");
        assert_eq!(repairs.dropped_non_finite, 1);
        assert!(repairs.sorted);

        let empty = Trajectory::new(TrajId(0), vec![]);
        assert_eq!(screen(&empty).unwrap_err(), RejectReason::EmptyQuery);
        let mut garbage = queries[0].points.clone();
        garbage.iter_mut().for_each(|p| p.t = f64::INFINITY);
        let garbage = Trajectory::from_unchecked(TrajId(0), garbage);
        assert_eq!(screen(&garbage).unwrap_err(), RejectReason::NoUsablePoints);
    }

    #[test]
    fn degenerate_queries_match_hris() {
        let (net, _) = sparse_setup();
        let hris = Hris::new(&net, TrajectoryArchive::empty(), HrisParams::default());
        let engine = QueryEngine::new(&hris);

        let empty = Trajectory::new(TrajId(0), vec![]);
        assert!(engine.infer_query(&empty, 3).globals.is_empty());

        let single = Trajectory::new(
            TrajId(0),
            vec![hris_traj::GpsPoint::new(
                hris_geo::Point::new(80.0, 90.0),
                0.0,
            )],
        );
        let ours = engine.infer_query(&single, 3).globals;
        let theirs = hris.infer_routes(&single, 3);
        assert_eq!(ours.len(), theirs.len());
        assert_eq!(ours[0].route, theirs[0].route);
    }

    #[test]
    fn observability_off_by_default_and_on_when_asked() {
        let (net, queries) = sparse_setup();
        let hris = Hris::new(&net, TrajectoryArchive::empty(), HrisParams::default());
        let plain = QueryEngine::new(&hris);
        assert!(plain.observability().is_none());

        let observed = QueryEngine::with_config(
            &hris,
            EngineConfig::builder().observability(true).build().unwrap(),
        );
        let _ = observed.infer_batch(&queries, 2);
        let obs = observed.observability().expect("instrumentation on");
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("hris_engine_queries_total"),
            Some(queries.len() as u64)
        );
        assert_eq!(snap.counter("hris_engine_batches_total"), Some(1));
        assert_eq!(obs.traces().len(), queries.len());
    }
}
