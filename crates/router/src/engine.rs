//! The sharded serving front: routes queries to per-shard engines and
//! scatter-gathers across shard seams.
//!
//! # Correctness model
//!
//! The HRIS pipeline touches the historical archive **only** through
//! φ-radius range queries around query points (reference search), and
//! reference search is stable under order-preserving archive subsetting.
//! So the router preserves the global engine's answers bit-for-bit in two
//! regimes:
//!
//! * **Single-shard** — the query's φ-inflated bounding box fits inside one
//!   shard's replication region. That shard's archive holds every
//!   trajectory any of the query's range queries can hit (the partitioner's
//!   replication rule), so the whole query is delegated verbatim and the
//!   answer — routes, scores, statistics, outcome — is byte-identical to a
//!   global engine over the unpartitioned archive.
//! * **Cross-shard, partition-respecting pairs** — every *pair* of
//!   consecutive query points has a φ-inflated bounding box inside some
//!   region. The router splits the query into maximal same-shard runs,
//!   collects each shard's phase-1/2 local inferences (pinning one snapshot
//!   per shard), remaps shard-local trajectory ids back to global ids, and
//!   runs the phase-3 K-GRI dynamic program itself over the concatenated
//!   locals. Each per-pair local result equals the global engine's (same
//!   range-query hits, same deterministic reference search), and the id
//!   remap makes the cross-pair transition-confidence intersections equal
//!   too, so the composed top-K is again byte-identical.
//!
//! A query with a *wild pair* (one whose φ-box fits no region — possible
//! only when the replication margin is smaller than φ) is still answered
//! deterministically: the pair is assigned to the shard owning its
//! midpoint, and the answer is best-effort rather than provably identical.
//!
//! # Faults
//!
//! Shards can be marked [`ShardHealth::Unhealthy`] (quarantined load,
//! corrupt archive) and live shards are additionally auto-checked against
//! the staleness bound. Work routed at an unhealthy shard is reassigned to
//! the nearest healthy shard and the outcome is demoted to
//! [`QueryOutcome::Degraded`] — degraded answers are *labelled*, never
//! silent. With no healthy shard left the query is rejected with
//! [`RejectReason::ShardUnavailable`]. The router never panics on a faulty
//! shard.

use crate::plan::ShardPlan;
use hris::audit::explain;
use hris::engine::{screen, Screened};
use hris::{
    EngineConfig, EngineHandle, EngineObs, HrisParams, LocalInferenceResult, PaperScorer,
    QueryOutcome, QueryResult, RejectReason, RouteScorer, ScoringCtx,
};
use hris_geo::BBox;
use hris_obs::{
    next_trace_id, Admission, AdmissionGate, AttrValue, Counter, Health, MetricsRegistry,
    MetricsServer, MetricsSnapshot, QueryRecord, ServeState, SpanCollector, SpanGuard, SpanParent,
    TraceRing,
};
use hris_roadnet::RoadNetwork;
use hris_traj::{
    partition_archive, ArchiveSnapshot, PointRepairs, SnapshotReader, TrajId, Trajectory,
    TrajectoryArchive,
};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Router-side health of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Quarantined: the shard's data cannot be trusted (corrupt archive,
    /// failed load). Its work is rerouted and outcomes are demoted.
    Unhealthy,
}

/// How the router dispatched one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// Rejected before touching any shard.
    Rejected,
    /// Whole query delegated to the contained shard.
    Single(usize),
    /// Split into per-pair runs across several shards.
    Scatter,
}

/// Introspection record of one routed query (test pinning, debugging).
#[derive(Debug, Clone)]
pub struct RouteTrace {
    /// Dispatch shape.
    pub kind: RouteKind,
    /// Scatter only: the shard that served each consecutive-point pair,
    /// after health rerouting. Empty for single-shard and rejected queries.
    pub pair_shards: Vec<usize>,
    /// Scatter only: seam positions — each entry `i` means pairs `i` and
    /// `i + 1` ran on different shards, i.e. the gather splices at query
    /// point `i + 1`.
    pub splice_points: Vec<usize>,
    /// `(shard, epoch)` actually served, in first-touch order. One entry
    /// per touched shard: a query observes exactly one whole epoch per
    /// shard (snapshot isolation).
    pub epochs: Vec<(usize, u64)>,
    /// Pairs served away from their routed shard because it was unhealthy.
    pub rerouted_pairs: usize,
}

impl RouteTrace {
    fn rejected() -> RouteTrace {
        RouteTrace {
            kind: RouteKind::Rejected,
            pair_shards: Vec::new(),
            splice_points: Vec::new(),
            epochs: Vec::new(),
            rerouted_pairs: 0,
        }
    }
}

/// Router-side counters, all on the router's own registry.
struct RouterMetrics {
    queries: Counter,
    single: Counter,
    scatter: Counter,
    splices: Counter,
    rerouted: Counter,
    rejected: Counter,
    shed: Counter,
    /// Per shard, labelled `shard="<i>"`: queries (or sub-queries) served.
    shard_queries: Vec<Counter>,
    /// Per shard, labelled `shard="<i>"`: point pairs served.
    shard_pairs: Vec<Counter>,
}

impl RouterMetrics {
    fn new(reg: &MetricsRegistry, num_shards: usize) -> RouterMetrics {
        let mk = |name: &str, help: &str| {
            (0..num_shards)
                .map(|s| reg.counter_with_labels(name, help, &[("shard", &s.to_string())]))
                .collect()
        };
        RouterMetrics {
            queries: reg.counter("hris_router_queries_total", "Queries routed."),
            single: reg.counter(
                "hris_router_single_shard_total",
                "Queries delegated whole to one shard.",
            ),
            scatter: reg.counter(
                "hris_router_scatter_total",
                "Queries split across shard seams.",
            ),
            splices: reg.counter(
                "hris_router_splices_total",
                "Shard seams crossed by scattered queries.",
            ),
            rerouted: reg.counter(
                "hris_router_rerouted_pairs_total",
                "Pairs served away from an unhealthy shard.",
            ),
            rejected: reg.counter(
                "hris_router_rejected_total",
                "Queries rejected by the router (validation or no healthy shard).",
            ),
            // Same name as the engine-level counter: in the federated
            // snapshot the shard copies carry a `shard` label and this one
            // does not, so they sum cleanly.
            shed: reg.counter(
                "hris_engine_shed_total",
                "Queries shed by admission control (waiting room full).",
            ),
            shard_queries: mk(
                "hris_router_shard_queries_total",
                "Queries or sub-queries served by this shard.",
            ),
            shard_pairs: mk(
                "hris_router_shard_pairs_total",
                "Point pairs served by this shard.",
            ),
        }
    }
}

/// An N-shard HRIS engine behind a scatter-gather router.
///
/// Construction partitions the archive over a [`ShardPlan`] (boundary
/// replication included) and builds one [`EngineHandle`] per shard, each
/// with its own snapshot lifecycle and metrics registry. All
/// shards share one `Arc<RoadNetwork>`: the network-level quantities the
/// pipeline uses (speed bound, shortest-path oracle, candidate lookup) are
/// global and pure, so sharing them is both correct and cheap.
pub struct ShardedEngine {
    net: Arc<RoadNetwork>,
    params: HrisParams,
    cfg: EngineConfig,
    plan: ShardPlan,
    shards: Vec<EngineHandle>,
    /// Fixed mode: shard-local → parent archive ids. Live mode: `None`,
    /// ids are namespaced per shard instead (see [`ShardedEngine::live`]).
    id_maps: Option<Vec<Vec<TrajId>>>,
    replication_factor: f64,
    health: Vec<AtomicU8>,
    shard_registries: Vec<Arc<MetricsRegistry>>,
    router_registry: Arc<MetricsRegistry>,
    m: RouterMetrics,
    /// Router-level admission gate (`cfg.admission`); sheds before any
    /// shard is touched. The per-shard handles carry their own gates for
    /// direct shard access, but the router's scatter path pins shards
    /// below their `infer_query` entrypoints, so this gate is the
    /// admission point for routed traffic.
    gate: Option<AdmissionGate>,
    /// The router's one record ring (`cfg.obs.enabled` with a nonzero
    /// `trace_capacity`): one stitched record per routed query. `None` is
    /// the zero-overhead gate: no record, no collector, no clock reads,
    /// not even a trace-id increment.
    traces: Option<TraceRing>,
    /// Router-assigned query sequence, from 1 (0 is "no record").
    next_query_id: AtomicU64,
}

impl ShardedEngine {
    /// Partitions `archive` over `plan` and builds the per-shard engines.
    ///
    /// Every shard gets `params` and `cfg` verbatim. With
    /// `cfg.obs.enabled` the shards instrument themselves onto per-shard
    /// registries that [`ShardedEngine::metrics_snapshot`] federates under
    /// a `shard` label; with it disabled the shards run the uninstrumented
    /// fast path — zero clock reads per query, test-enforced — and the
    /// federated snapshot carries the router's own series only. The plan's
    /// margin should be ≥ `params.phi_m` for single-shard routing to apply
    /// to every in-core query; see [`ShardPlan::grid`].
    #[must_use]
    pub fn build(
        net: Arc<RoadNetwork>,
        archive: &TrajectoryArchive,
        params: HrisParams,
        cfg: EngineConfig,
        plan: ShardPlan,
    ) -> ShardedEngine {
        let part = partition_archive(archive, plan.cores(), plan.margin_m());
        let replication_factor = part.replication_factor();
        let mut shards = Vec::with_capacity(plan.num_shards());
        let mut shard_registries = Vec::with_capacity(plan.num_shards());
        for shard_archive in part.shards {
            let reg = Arc::new(MetricsRegistry::new());
            let snap = Arc::new(ArchiveSnapshot::new(0, shard_archive));
            shards.push(if cfg.obs.enabled {
                EngineHandle::from_snapshot_with_registry(
                    Arc::clone(&net),
                    snap,
                    params.clone(),
                    cfg.clone(),
                    Arc::clone(&reg),
                )
            } else {
                EngineHandle::from_snapshot(Arc::clone(&net), snap, params.clone(), cfg.clone())
            });
            shard_registries.push(reg);
        }
        Self::assemble(
            net,
            params,
            cfg,
            plan,
            shards,
            Some(part.id_maps),
            replication_factor,
            shard_registries,
        )
    }

    /// A sharded engine over live per-shard ingestion: `readers[s]` is the
    /// published-snapshot reader of shard `s`'s
    /// [`ArchiveWriter`](hris_traj::ArchiveWriter). Each query pins at most
    /// one epoch per touched shard.
    ///
    /// Live shards have no parent archive, so cross-seam ids are namespaced,
    /// not translated: shard `s`'s trip `i` reports as `s · 2²⁴ + i`, so
    /// shards get 8 id bits (< 256 shards) and trips 24 (< 2²⁴ per shard; a
    /// larger trip id aliases). Seam confidence thus sees disjoint reference
    /// sets across shards; feed partition-respecting workloads (or accept
    /// the deterministic best-effort seam) when running live.
    ///
    /// # Panics
    /// Panics unless `readers.len() == plan.num_shards()`, or with 256 or
    /// more shards.
    #[must_use]
    pub fn live(
        net: Arc<RoadNetwork>,
        readers: Vec<SnapshotReader>,
        params: HrisParams,
        cfg: EngineConfig,
        plan: ShardPlan,
    ) -> ShardedEngine {
        assert_eq!(
            readers.len(),
            plan.num_shards(),
            "one snapshot reader per shard"
        );
        assert!(plan.num_shards() < (1 << 8), "id namespace: < 256 shards");
        let mut shards = Vec::with_capacity(plan.num_shards());
        let mut shard_registries = Vec::with_capacity(plan.num_shards());
        for reader in readers {
            let reg = Arc::new(MetricsRegistry::new());
            shards.push(if cfg.obs.enabled {
                EngineHandle::live_with_registry(
                    Arc::clone(&net),
                    reader,
                    params.clone(),
                    cfg.clone(),
                    Arc::clone(&reg),
                )
            } else {
                EngineHandle::live(Arc::clone(&net), reader, params.clone(), cfg.clone())
            });
            shard_registries.push(reg);
        }
        Self::assemble(net, params, cfg, plan, shards, None, 1.0, shard_registries)
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        net: Arc<RoadNetwork>,
        params: HrisParams,
        cfg: EngineConfig,
        plan: ShardPlan,
        shards: Vec<EngineHandle>,
        id_maps: Option<Vec<Vec<TrajId>>>,
        replication_factor: f64,
        shard_registries: Vec<Arc<MetricsRegistry>>,
    ) -> ShardedEngine {
        let router_registry = Arc::new(MetricsRegistry::new());
        let m = RouterMetrics::new(&router_registry, plan.num_shards());
        let health = (0..plan.num_shards()).map(|_| AtomicU8::new(0)).collect();
        let gate = cfg
            .admission
            .enabled
            .then(|| AdmissionGate::new(cfg.admission.max_inflight, cfg.admission.max_queued));
        let traces = (cfg.obs.enabled && cfg.obs.trace_capacity > 0)
            .then(|| TraceRing::new(cfg.obs.trace_capacity));
        ShardedEngine {
            net,
            params,
            cfg,
            plan,
            shards,
            id_maps,
            replication_factor,
            health,
            shard_registries,
            router_registry,
            m,
            gate,
            traces,
            next_query_id: AtomicU64::new(1),
        }
    }

    /// The router's admission gate, when admission control is enabled.
    #[must_use]
    pub fn admission_gate(&self) -> Option<&AdmissionGate> {
        self.gate.as_ref()
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard plan.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Shard `s`'s engine handle (inspection, direct shard queries).
    #[must_use]
    pub fn shard(&self, s: usize) -> &EngineHandle {
        &self.shards[s]
    }

    /// Stored-copies-per-trajectory ratio of the partition (1.0 in live
    /// mode, where shards ingest independently).
    #[must_use]
    pub fn replication_factor(&self) -> f64 {
        self.replication_factor
    }

    /// Marks shard `s` (administratively) healthy or unhealthy.
    pub fn set_shard_health(&self, s: usize, health: ShardHealth) {
        self.health[s].store(
            match health {
                ShardHealth::Healthy => 0,
                ShardHealth::Unhealthy => 1,
            },
            Ordering::Release,
        );
    }

    /// The administrative health mark of shard `s` (does not include the
    /// automatic staleness check of [`ShardedEngine::shard_is_servable`]).
    #[must_use]
    pub fn shard_health(&self, s: usize) -> ShardHealth {
        if self.health[s].load(Ordering::Acquire) == 0 {
            ShardHealth::Healthy
        } else {
            ShardHealth::Unhealthy
        }
    }

    /// Whether the router would currently hand work to shard `s`: marked
    /// healthy, and — for live shards — the published snapshot is within
    /// the staleness bound (`cfg.obs.staleness_bound_s`). Fixed snapshots
    /// are pinned deliberately and never auto-stale.
    #[must_use]
    pub fn shard_is_servable(&self, s: usize) -> bool {
        self.shard_health(s) == ShardHealth::Healthy
            && (!self.shards[s].is_live()
                || self.shards[s].snapshot_age_seconds() <= self.cfg.obs.staleness_bound_s)
    }

    /// Federated metrics: the router's own series plus every shard's
    /// engine series, each stamped with its `shard` label. Deterministic
    /// ordering (export sorts by name, then labels).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::merged(
            std::iter::once(self.router_registry.snapshot()).chain(
                self.shard_registries
                    .iter()
                    .enumerate()
                    .map(|(s, reg)| reg.snapshot().with_labels(&[("shard", &s.to_string())])),
            ),
        )
    }

    /// The router's record ring, when tracing is enabled
    /// (`cfg.obs.enabled` with a nonzero `trace_capacity`). The returned
    /// handle shares storage with the router's ring.
    #[must_use]
    pub fn trace_ring(&self) -> Option<TraceRing> {
        self.traces.clone()
    }

    /// The record of one trace id, searching the router's ring first and
    /// then every shard's. A delegated query has a record in both: the
    /// router's holds the routing spans and events, the serving shard's
    /// (under the router's trace id) the phase timings and route
    /// explanations.
    #[must_use]
    pub fn find_record(&self, trace_id: u64) -> Option<QueryRecord> {
        let shard_rings = self
            .shards
            .iter()
            .map(|s| s.observability().map(EngineObs::trace_ring));
        std::iter::once(self.traces.clone())
            .chain(shard_rings)
            .flatten()
            .find_map(|ring| ring.find(trace_id))
    }

    /// Per-shard status as one JSON array: id, administrative health,
    /// whether the router would currently hand it work, source kind and
    /// the epoch it last served.
    #[must_use]
    pub fn shards_json(&self) -> String {
        let shards = (0..self.num_shards())
            .map(|s| {
                let health = match self.shard_health(s) {
                    ShardHealth::Healthy => "healthy",
                    ShardHealth::Unhealthy => "unhealthy",
                };
                json!({
                    "shard": s,
                    "health": health,
                    "servable": self.shard_is_servable(s),
                    "live": self.shards[s].is_live(),
                    "epoch": self.shards[s].epoch(),
                })
            })
            .collect();
        Value::Arr(shards).render_compact()
    }

    /// Starts the router-level telemetry server on `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// `/metrics` serves the **federated** snapshot
    /// ([`ShardedEngine::metrics_snapshot`]: router series plus every
    /// shard's, `shard`-labelled). `/debug/shards` reports per-shard
    /// health/servability/epoch. With tracing enabled, `/debug/traces`
    /// serves the router's records (stitched cross-shard span trees
    /// included) and `/debug/explain/<trace_id>` one query's record, from
    /// the router's ring or any shard's ([`ShardedEngine::find_record`]).
    /// Every shard also contributes
    /// a named health check to `/healthz` (unhealthy when not servable).
    ///
    /// # Errors
    /// Whatever binding the listener returns.
    pub fn serve_metrics(
        self: &Arc<Self>,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<MetricsServer> {
        let on_snapshot = Arc::clone(self);
        let mut state = ServeState::new(Arc::clone(&self.router_registry))
            .snapshot_provider(move || on_snapshot.metrics_snapshot());
        if let Some(ring) = &self.traces {
            state = state.with_traces(ring.clone());
        }
        let on_shards = Arc::clone(self);
        state = state.debug_handler("/debug/shards", move |rest| {
            rest.is_empty().then(|| on_shards.shards_json())
        });
        let on_explain = Arc::clone(self);
        state = state.debug_handler("/debug/explain", move |rest| {
            let trace_id: u64 = rest.parse().ok()?;
            on_explain.find_record(trace_id).map(|rec| rec.to_json())
        });
        for s in 0..self.num_shards() {
            let on_health = Arc::clone(self);
            state = state.health_check(&format!("shard_{s}"), move || {
                if on_health.shard_is_servable(s) {
                    Health::Ok
                } else {
                    Health::Unhealthy(format!("shard {s} is not servable"))
                }
            });
        }
        state.serve(addr)
    }

    /// Routes and answers one query. **Canonical entrypoint** — same
    /// contract as [`EngineHandle::infer_query`], byte-identical to it for
    /// partition-respecting queries (see the module docs).
    #[must_use]
    pub fn infer_query(&self, query: &Trajectory, k: usize) -> QueryResult {
        self.infer_query_traced(query, k).0
    }

    /// [`ShardedEngine::infer_query`] plus the [`RouteTrace`] describing
    /// how the query was dispatched (which shards, which epochs, which
    /// splice points).
    ///
    /// With tracing enabled (`cfg.obs.enabled` and a nonzero
    /// `trace_capacity`) the query additionally writes one
    /// [`QueryRecord`] into the router's ring: a **stitched span tree** —
    /// routing → per-shard local inference → gather → splice, with health
    /// flips, reroutes and degraded/rejected outcomes as span events — plus
    /// the outcome, events and, for a scattered query, an explanation of
    /// each returned route. Every stage records into the one collector of
    /// the query, so the spans are one tree by construction (pinned by
    /// `router_trace_props::check_complete`). Recording never changes an
    /// answer, and with the ring off this path performs zero clock reads
    /// (test-enforced).
    #[must_use]
    pub fn infer_query_traced(&self, query: &Trajectory, k: usize) -> (QueryResult, RouteTrace) {
        self.m.queries.inc();
        // The record, and the identity it carries, exist only when the
        // ring is on; the disabled path skips even the atomic increments.
        let mut rec = self.traces.as_ref().map(|_| QueryRecord {
            trace_id: next_trace_id(),
            query_id: self.next_query_id.fetch_add(1, Ordering::Relaxed),
            points: query.points.len(),
            pairs: query.points.len().saturating_sub(1),
            ..QueryRecord::default()
        });

        // Stage 0 — admission. Shedding here costs a mutex lock and
        // nothing else: no validation, no shard is touched.
        let _permit = match self.gate.as_ref().map(AdmissionGate::admit) {
            Some(Admission::Shed) => {
                self.m.rejected.inc();
                self.m.shed.inc();
                let result = QueryResult::rejected(RejectReason::Overloaded);
                if let (Some(ring), Some(mut rec)) = (&self.traces, rec) {
                    explain(&mut rec, &result, None);
                    let _ = ring.push(rec);
                }
                return (result, RouteTrace::rejected());
            }
            Some(Admission::Admitted(p)) => Some(p),
            None => None,
        };

        // One collector per traced query: every stage — routing, shard
        // batches, gather, splice — records into it, so the whole stitched
        // tree shares one clock origin and needs no cross-shard alignment.
        let collector = rec.as_ref().map(|_| SpanCollector::new());
        let root = collector
            .as_ref()
            .map_or_else(SpanGuard::off, |c| c.root("query"));
        let root_span = root.id();

        let (result, route) = self.dispatch(query, k, rec.as_mut(), root.as_parent());

        let total_s = root.finish();
        if let (Some(ring), Some(mut rec), Some(c)) = (&self.traces, rec, collector) {
            rec.routes = result.globals.len();
            rec.top_log_score = result.globals.first().map(|g| g.log_score);
            rec.total_s = total_s;
            rec.slow = total_s > self.cfg.obs.slow_query_threshold_s;
            rec.root_span = root_span;
            rec.spans = c.into_spans();
            let _ = ring.push(rec);
        }
        (result, route)
    }

    /// Screen + spatial dispatch, inside the `routing` span of a traced
    /// query. `root` is the query's root span (off when untraced), `rec`
    /// its record (`None` when untraced).
    fn dispatch(
        &self,
        query: &Trajectory,
        k: usize,
        mut rec: Option<&mut QueryRecord>,
        root: SpanParent<'_>,
    ) -> (QueryResult, RouteTrace) {
        // Stage 1 — the engine's own screen, so routing sees the points the
        // shard engines will serve and rejects exactly when they would.
        let mut routing = root.child("routing");
        let screened = match screen(query) {
            Ok(s) => s,
            Err(reason) => return self.reject(reason, rec, routing.as_parent()),
        };

        // Stage 2 — spatial dispatch on the (possibly repaired) points.
        let pts = &screened.served.points;
        if let Some(rec) = rec.as_deref_mut() {
            rec.points = pts.len();
            rec.pairs = pts.len().saturating_sub(1);
        }
        let single_home = if pts.len() <= 1 {
            // A ≤1-point query has no pairs: any shard answers it from the
            // network alone.
            Some(pts.first().map_or(0, |p| self.plan.shard_of_point(p.pos)))
        } else {
            let qb = BBox::covering(pts.iter().map(|p| p.pos)).inflated(self.params.phi_m);
            self.plan.home_shard(&qb)
        };
        routing.attr("points", pts.len());
        routing.attr(
            "kind",
            if single_home.is_some() {
                "single"
            } else {
                "scatter"
            },
        );
        drop(routing);

        match single_home {
            Some(s) => self.run_single(query, k, s, rec, root),
            None => self.run_scatter(&screened, k, rec, root),
        }
    }

    /// A router-side rejection (the screen refused the query, or no
    /// servable shard remains): counted, marked as a `rejected` event under
    /// the given span, recorded, and answered empty.
    fn reject(
        &self,
        reason: RejectReason,
        rec: Option<&mut QueryRecord>,
        under: SpanParent<'_>,
    ) -> (QueryResult, RouteTrace) {
        self.m.rejected.inc();
        if under.is_recording() {
            under.event(
                "rejected",
                &[("reason", AttrValue::Text(format!("{reason:?}")))],
            );
        }
        let result = QueryResult::rejected(reason);
        if let Some(rec) = rec {
            explain(rec, &result, None);
        }
        (result, RouteTrace::rejected())
    }

    /// Whole-query delegation to shard `s` — byte-identical path. If `s`
    /// is not servable the query moves whole to the nearest servable shard
    /// and the outcome is demoted to `Degraded`.
    ///
    /// The delegated shard serves under the router's trace id
    /// ([`EngineHandle::infer_query_with_trace`]), so its own record —
    /// phase timings and route explanations — joins the router's.
    fn run_single(
        &self,
        query: &Trajectory,
        k: usize,
        s: usize,
        rec: Option<&mut QueryRecord>,
        root: SpanParent<'_>,
    ) -> (QueryResult, RouteTrace) {
        let n_pairs = query.points.len().saturating_sub(1);
        let (target, rerouted) = if self.shard_is_servable(s) {
            (s, 0)
        } else {
            root.event("shard_unhealthy", &[("shard", AttrValue::Int(s as i64))]);
            let Some(t) = self.nearest_servable(BBox::covering(query.points.iter().map(|p| p.pos)))
            else {
                return self.reject(RejectReason::ShardUnavailable, rec, root);
            };
            root.event(
                "reroute",
                &[
                    ("from", AttrValue::Int(s as i64)),
                    ("to", AttrValue::Int(t as i64)),
                ],
            );
            (t, n_pairs.max(1))
        };

        self.m.single.inc();
        self.m.shard_queries[target].inc();
        self.m.shard_pairs[target].add(n_pairs as u64);
        // The shard engine runs the same screen on the original query, so
        // repairs/outcomes match the global engine.
        let mut shard_guard = root.child("shard");
        shard_guard.attr("shard", target);
        shard_guard.attr("pairs", n_pairs);
        let trace_id = rec.as_ref().map_or(0, |r| r.trace_id);
        let mut result = self.shards[target].infer_query_with_trace(query, k, trace_id);
        let shard_s = shard_guard.finish();
        if rerouted > 0 {
            self.m.rerouted.add(rerouted as u64);
            result.outcome = demote_to_degraded(result.outcome, rerouted);
            root.event(
                "degraded",
                &[("pairs_fell_back", AttrValue::Int(rerouted as i64))],
            );
        }
        if let Some(rec) = rec {
            rec.local_s = shard_s;
            explain(rec, &result, None);
        }
        let trace = RouteTrace {
            kind: RouteKind::Single(target),
            pair_shards: Vec::new(),
            splice_points: Vec::new(),
            epochs: vec![(target, self.shards[target].epoch())],
            rerouted_pairs: rerouted,
        };
        (result, trace)
    }

    /// Scatter-gather: assign each pair to a shard, run maximal same-shard
    /// runs as sub-queries (one pinned epoch per shard), remap trajectory
    /// ids to the global namespace, and run K-GRI over the gathered locals.
    ///
    /// On a traced query, each touched shard's pinned batch records its
    /// phase spans under a router-side `shard` span, and the router-side
    /// K-GRI splice gets its own span — together with `routing` and
    /// `gather` they form the stitched tree.
    fn run_scatter(
        &self,
        screened: &Screened<'_>,
        k: usize,
        rec: Option<&mut QueryRecord>,
        root: SpanParent<'_>,
    ) -> (QueryResult, RouteTrace) {
        let q: &Trajectory = &screened.served;
        let phi = self.params.phi_m;
        let n_pairs = q.points.len() - 1;

        // Pair → shard. Pairs whose φ-box fits a region go there (lowest
        // index); wild pairs go to the shard owning their midpoint.
        let mut pair_shards: Vec<usize> = (0..n_pairs)
            .map(|i| {
                let pb = BBox::covering([q.points[i].pos, q.points[i + 1].pos]).inflated(phi);
                self.plan
                    .home_shard(&pb)
                    .unwrap_or_else(|| self.plan.shard_of_point(pb.center()))
            })
            .collect();

        // Health rerouting.
        let mut rerouted = 0usize;
        for (i, s) in pair_shards.iter_mut().enumerate() {
            if !self.shard_is_servable(*s) {
                let pb = BBox::covering([q.points[i].pos, q.points[i + 1].pos]);
                let Some(t) = self.nearest_servable(pb) else {
                    return self.reject(RejectReason::ShardUnavailable, rec, root);
                };
                root.event(
                    "reroute",
                    &[
                        ("pair", AttrValue::Int(i as i64)),
                        ("from", AttrValue::Int(*s as i64)),
                        ("to", AttrValue::Int(t as i64)),
                    ],
                );
                *s = t;
                rerouted += 1;
            }
        }
        self.m.scatter.inc();
        if rerouted > 0 {
            self.m.rerouted.add(rerouted as u64);
        }

        // Maximal same-shard runs: (shard, first pair, last pair).
        let mut runs: Vec<(usize, usize, usize)> = Vec::new();
        for (i, &s) in pair_shards.iter().enumerate() {
            match runs.last_mut() {
                Some((rs, _, hi)) if *rs == s && *hi + 1 == i => *hi = i,
                _ => runs.push((s, i, i)),
            }
        }
        let splice_points: Vec<usize> = runs.iter().skip(1).map(|&(_, lo, _)| lo - 1).collect();
        self.m.splices.add(splice_points.len() as u64);

        // Execute one pinned batch per distinct shard (first-touch order),
        // so a query observes exactly one whole epoch per shard even when
        // its runs revisit a shard.
        let mut shard_runs: Vec<(usize, Vec<usize>)> = Vec::new();
        for (ri, &(s, _, _)) in runs.iter().enumerate() {
            match shard_runs.iter_mut().find(|(rs, _)| *rs == s) {
                Some((_, idxs)) => idxs.push(ri),
                None => shard_runs.push((s, vec![ri])),
            }
        }
        let mut run_locals: Vec<Vec<LocalInferenceResult>> =
            (0..runs.len()).map(|_| Vec::new()).collect();
        let mut epochs = Vec::with_capacity(shard_runs.len());
        let mut pairs_fell_back = 0;
        let mut shards_s = 0.0;
        for (s, run_idxs) in &shard_runs {
            let subs: Vec<Trajectory> = run_idxs
                .iter()
                .map(|&ri| {
                    let (_, lo, hi) = runs[ri];
                    Trajectory::new(q.id, q.points[lo..=hi + 1].to_vec())
                })
                .collect();
            self.m.shard_queries[*s].inc();
            self.m.shard_pairs[*s].add(subs.iter().map(|t| t.points.len() as u64 - 1).sum());
            // The shard's candidates/local/pair spans land in the router's
            // collector, parented under this shard span — the stitch.
            let mut shard_guard = root.child("shard");
            shard_guard.attr("shard", *s);
            shard_guard.attr("sub_queries", subs.len());
            // The scatter seam: `repaired` arms the shard's degradation
            // chain exactly as a single engine would, and the fell-back
            // count comes back for the outcome.
            let (locals, fell_back, epoch) = self.shards[*s].local_inference_pinned_batch_traced(
                &subs,
                screened.repairs.is_some(),
                shard_guard.as_parent(),
            );
            pairs_fell_back += fell_back;
            shard_guard.attr("epoch", epoch as i64);
            shards_s += shard_guard.finish();
            epochs.push((*s, epoch));
            for (&ri, mut locals) in run_idxs.iter().zip(locals) {
                self.remap_sources(*s, &mut locals);
                run_locals[ri] = locals;
            }
        }

        // Gather: concatenate locals in pair order, then phase 3 exactly as
        // the engine runs it.
        let gather_guard = root.child("gather");
        let locals: Vec<LocalInferenceResult> = run_locals.into_iter().flatten().collect();
        debug_assert_eq!(locals.len(), n_pairs, "one local inference per pair");
        let stats = locals.iter().map(|l| l.stats.clone()).collect();
        let gather_s = gather_guard.finish();
        // The seam splice scores with the `HrisParams` the shard engines
        // hold, so a sharded deployment can never diverge from a single
        // engine under the same configuration.
        let scorer = PaperScorer::from_params(&self.params);
        let sctx = ScoringCtx::new(&self.net, &locals, k);
        let splice_guard = root.child("splice");
        let globals = scorer.top_k(&sctx);
        let splice_s = splice_guard.finish();
        let mut outcome = QueryOutcome::served(screened.repairs, pairs_fell_back);
        if rerouted > 0 {
            outcome = demote_to_degraded(outcome, rerouted);
            root.event(
                "degraded",
                &[("pairs_fell_back", AttrValue::Int(rerouted as i64))],
            );
        }
        let result = QueryResult {
            globals,
            stats,
            outcome,
        };

        // The shards only ran phases 1–2, so the explanation of a
        // scattered query is the router's to write.
        if let Some(rec) = rec {
            rec.local_s = shards_s;
            rec.refine_s = gather_s;
            rec.global_s = splice_s;
            explain(rec, &result, Some((&sctx, &scorer)));
            for (i, s) in pair_shards.iter().enumerate() {
                rec.events
                    .push(format!("scatter: pair {i} served by shard {s}"));
            }
            if rerouted > 0 {
                rec.events.push(format!(
                    "reroute: {rerouted} pairs served away from unhealthy shards"
                ));
            }
        }

        (
            result,
            RouteTrace {
                kind: RouteKind::Scatter,
                pair_shards,
                splice_points,
                epochs,
                rerouted_pairs: rerouted,
            },
        )
    }

    /// Shard-local → global trajectory ids, in place, on every reference's
    /// source list (the only place shard-local ids escape a shard — K-GRI's
    /// transition confidence intersects them across pairs).
    fn remap_sources(&self, s: usize, locals: &mut [LocalInferenceResult]) {
        for local in locals {
            for r in &mut local.refs.refs {
                for id in &mut r.sources {
                    *id = match &self.id_maps {
                        Some(maps) => maps[s][id.index()],
                        None => TrajId((s as u32) << 24 | (id.0 & 0x00FF_FFFF)),
                    };
                }
            }
        }
    }

    /// The servable shard whose region is nearest to `b`'s center (ties to
    /// the lowest index); `None` when every shard is down.
    fn nearest_servable(&self, b: BBox) -> Option<usize> {
        let c = b.center();
        (0..self.num_shards())
            .filter(|&s| self.shard_is_servable(s))
            .min_by(|&a, &bi| {
                self.plan
                    .region(a)
                    .min_dist(c)
                    .partial_cmp(&self.plan.region(bi).min_dist(c))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }
}

/// Demotes a delegated shard outcome to `Degraded`, preserving whatever
/// repairs the shard reported. A rejection stays a rejection.
fn demote_to_degraded(outcome: QueryOutcome, rerouted: usize) -> QueryOutcome {
    match outcome {
        QueryOutcome::Ok => QueryOutcome::Degraded {
            repairs: PointRepairs::default(),
            pairs_fell_back: rerouted,
        },
        QueryOutcome::Repaired { repairs } => QueryOutcome::Degraded {
            repairs,
            pairs_fell_back: rerouted,
        },
        QueryOutcome::Degraded {
            repairs,
            pairs_fell_back,
        } => QueryOutcome::Degraded {
            repairs,
            pairs_fell_back: pairs_fell_back.max(rerouted),
        },
        rejected @ QueryOutcome::Rejected { .. } => rejected,
    }
}
