//! Owned, lifetime-free serving handle over epoch-versioned archives.
//!
//! [`Hris`](crate::Hris)/[`QueryEngine`](crate::QueryEngine) borrow their
//! road network (and, transitively, their archive) for their whole
//! lifetime, which is the right shape for experiments but the wrong one for
//! a service: a borrowed engine cannot be moved into a spawned thread, an
//! async task, or a shard map, and it can never follow a live archive. The
//! [`EngineHandle`] here is the owned counterpart — `Arc<RoadNetwork>` plus
//! an archive *source* (a pinned [`ArchiveSnapshot`] or a live
//! [`SnapshotReader`]) — so it is `Send + Sync + 'static` and clone-free to
//! share behind an `Arc`.
//!
//! # Epochs
//!
//! A handle on a live source re-reads the published snapshot at each query
//! (one `RwLock` read + `Arc` clone) and serves the query against it; the
//! engine holds no archive-derived state, so adopting a new epoch costs
//! nothing else. Queries already in flight keep the `Arc` of the snapshot
//! they started with — ingestion never changes an answer mid-query, and a
//! batch is answered entirely against the single epoch it started on.

use crate::audit::QueryAudit;
use crate::engine::{
    cache_stats, EngineCacheStats, EngineCore, EngineCtx, EngineObs, QueryResult, RejectReason,
};
use crate::local::LocalInferenceResult;
use crate::params::{EngineConfig, HrisParams};
use hris_obs::{
    Admission, AdmissionGate, AuditRing, Health, MetricsRegistry, MetricsServer, ServeState,
    SpanParent,
};
use hris_roadnet::RoadNetwork;
use hris_traj::{ArchiveSnapshot, SnapshotReader, TrajectoryArchive};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a handle gets its archive from.
enum ArchiveSource {
    /// One pinned epoch; the handle never changes data underneath you.
    Fixed(Arc<ArchiveSnapshot>),
    /// Follow an [`ArchiveWriter`](hris_traj::ArchiveWriter)'s published
    /// epochs.
    Live(SnapshotReader),
}

/// An owned HRIS serving handle: `Send + Sync + 'static`.
///
/// Construction takes `Arc<RoadNetwork>` plus either a plain archive
/// (pinned as a one-off snapshot), an existing [`ArchiveSnapshot`], or a
/// [`SnapshotReader`] to serve live ingestion. All query methods take
/// `&self`; wrap the handle in an `Arc` to share it across threads or
/// tasks.
///
/// As on [`QueryEngine`](crate::QueryEngine): [`EngineHandle::infer_query`]
/// is the single-query path and [`EngineHandle::infer_batch_detailed`] the
/// batch path.
pub struct EngineHandle {
    net: Arc<RoadNetwork>,
    params: HrisParams,
    source: ArchiveSource,
    core: EngineCore,
    /// Epoch of the snapshot last handed to a query.
    served_epoch: AtomicU64,
    /// Bounded admission gate; `None` when `cfg.admission` is disabled
    /// (the zero-cost default: queries never touch a lock they don't
    /// need).
    gate: Option<AdmissionGate>,
}

impl EngineHandle {
    /// Handle over a fixed archive with the default configuration. The
    /// archive is pinned as epoch 0 of a standalone snapshot.
    #[must_use]
    pub fn new(net: Arc<RoadNetwork>, archive: TrajectoryArchive, params: HrisParams) -> Self {
        EngineHandle::with_config(net, archive, params, EngineConfig::default())
    }

    /// [`EngineHandle::new`] with an explicit configuration.
    #[must_use]
    pub fn with_config(
        net: Arc<RoadNetwork>,
        archive: TrajectoryArchive,
        params: HrisParams,
        cfg: EngineConfig,
    ) -> Self {
        Self::from_snapshot(net, Arc::new(ArchiveSnapshot::new(0, archive)), params, cfg)
    }

    /// Handle pinned to one already-published snapshot. Useful to freeze an
    /// epoch for reproducible evaluation while ingestion continues
    /// elsewhere.
    #[must_use]
    pub fn from_snapshot(
        net: Arc<RoadNetwork>,
        snapshot: Arc<ArchiveSnapshot>,
        params: HrisParams,
        cfg: EngineConfig,
    ) -> Self {
        let epoch = snapshot.epoch();
        Self::build(
            net,
            params,
            ArchiveSource::Fixed(snapshot),
            cfg,
            None,
            epoch,
        )
    }

    /// Handle following a live [`SnapshotReader`]: each query is served
    /// against the latest published epoch.
    #[must_use]
    pub fn live(
        net: Arc<RoadNetwork>,
        reader: SnapshotReader,
        params: HrisParams,
        cfg: EngineConfig,
    ) -> Self {
        let epoch = reader.epoch();
        Self::build(net, params, ArchiveSource::Live(reader), cfg, None, epoch)
    }

    /// [`EngineHandle::from_snapshot`] instrumented onto a caller-owned
    /// registry (implies `cfg.obs.enabled`). This is the construction shape
    /// of a shard engine behind a router: each shard pins (or follows) its
    /// own archive and owns its own registry, and the router federates the
    /// per-shard registries under a `shard` label (see
    /// [`MetricsSnapshot::with_labels`](hris_obs::MetricsSnapshot)).
    #[must_use]
    pub fn from_snapshot_with_registry(
        net: Arc<RoadNetwork>,
        snapshot: Arc<ArchiveSnapshot>,
        params: HrisParams,
        mut cfg: EngineConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        cfg.obs.enabled = true;
        let epoch = snapshot.epoch();
        Self::build(
            net,
            params,
            ArchiveSource::Fixed(snapshot),
            cfg,
            Some(registry),
            epoch,
        )
    }

    /// [`EngineHandle::live`] instrumented onto a caller-owned registry
    /// (implies `cfg.obs.enabled`), so engine and ingest metrics can share
    /// one exporter.
    #[must_use]
    pub fn live_with_registry(
        net: Arc<RoadNetwork>,
        reader: SnapshotReader,
        params: HrisParams,
        mut cfg: EngineConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        cfg.obs.enabled = true;
        let epoch = reader.epoch();
        Self::build(
            net,
            params,
            ArchiveSource::Live(reader),
            cfg,
            Some(registry),
            epoch,
        )
    }

    fn build(
        net: Arc<RoadNetwork>,
        params: HrisParams,
        source: ArchiveSource,
        cfg: EngineConfig,
        registry: Option<Arc<MetricsRegistry>>,
        epoch: u64,
    ) -> Self {
        let registry =
            registry.or_else(|| cfg.obs.enabled.then(|| Arc::new(MetricsRegistry::new())));
        let gate = cfg
            .admission
            .enabled
            .then(|| AdmissionGate::new(cfg.admission.max_inflight, cfg.admission.max_queued));
        let core = EngineCore::build(cfg, registry);
        core.register_oracle_metrics(&net);
        EngineHandle {
            net,
            params,
            source,
            core,
            served_epoch: AtomicU64::new(epoch),
            gate,
        }
    }

    /// The snapshot the next query would be served against. On a live
    /// source this re-reads the slot and records its epoch as served, like
    /// a query would.
    #[must_use]
    pub fn current_snapshot(&self) -> Arc<ArchiveSnapshot> {
        match &self.source {
            ArchiveSource::Fixed(snap) => Arc::clone(snap),
            ArchiveSource::Live(reader) => {
                let snap = reader.latest();
                self.served_epoch.store(snap.epoch(), Ordering::Release);
                snap
            }
        }
    }

    /// The epoch the handle last served (or would serve next, after a
    /// [`EngineHandle::current_snapshot`] call).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.served_epoch.load(Ordering::Acquire)
    }

    /// The shared road network.
    #[must_use]
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    /// The active parameters.
    #[must_use]
    pub fn params(&self) -> &HrisParams {
        &self.params
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        self.core.config()
    }

    /// The handle's instrumentation, when enabled.
    #[must_use]
    pub fn observability(&self) -> Option<&EngineObs> {
        self.core.observability()
    }

    /// The explain/audit ring, when [`ExplainOptions`](crate::params::ExplainOptions)
    /// enabled it. The returned handle shares storage with the engine's
    /// ring, so a router can pull shard-side audits by trace id.
    #[must_use]
    pub fn audit_ring(&self) -> Option<AuditRing> {
        self.core.audits().cloned()
    }

    /// The served network's shortest-path oracle counters — see
    /// [`EngineCacheStats`].
    #[must_use]
    pub fn cache_stats(&self) -> EngineCacheStats {
        cache_stats(&self.net)
    }

    /// The handle's admission gate, when admission control is enabled.
    /// Exposes live queue-depth/shed numbers to harnesses.
    #[must_use]
    pub fn admission_gate(&self) -> Option<&AdmissionGate> {
        self.gate.as_ref()
    }

    /// Audits and counts one admission shed, and builds the empty result it
    /// returns.
    fn shed(&self, points: usize, trace_id: u64) -> QueryResult {
        if let Some(ring) = self.core.audits() {
            let _ = ring.push(QueryAudit::shed(trace_id, points).into_record());
        }
        if let Some(obs) = self.core.observability() {
            obs.record_shed();
        }
        QueryResult::rejected(RejectReason::Overloaded)
    }

    /// One query through the validation screen against the current epoch:
    /// answer plus its [`QueryOutcome`](crate::QueryOutcome).
    ///
    /// With admission control enabled the query first passes the gate:
    /// it may wait in the bounded waiting room, and when that is full
    /// too it is shed immediately with
    /// [`RejectReason::Overloaded`](crate::RejectReason).
    #[must_use]
    pub fn infer_query(&self, query: &hris_traj::Trajectory, k: usize) -> QueryResult {
        self.infer_query_with_trace(query, k, self.core.mint_trace_id())
    }

    /// [`EngineHandle::infer_query`] under a caller-minted trace id — the
    /// delegation seam of distributed tracing. A sharded router mints one
    /// trace id at its routing decision and threads it here so the shard's
    /// [`TraceRecord`](hris_obs::TraceRecord) and [`QueryAudit`]
    /// carry the router's identity instead of minting their own; the router
    /// then stitches them into one tree. Passing `trace_id = 0` records the
    /// query as untraced.
    ///
    /// An admission shed still records a `"shed"` audit under the given id.
    #[must_use]
    pub fn infer_query_with_trace(
        &self,
        query: &hris_traj::Trajectory,
        k: usize,
        trace_id: u64,
    ) -> QueryResult {
        let _permit = match self.gate.as_ref().map(AdmissionGate::admit) {
            Some(Admission::Shed) => return self.shed(query.len(), trace_id),
            Some(Admission::Admitted(p)) => Some(p),
            None => None,
        };
        let snap = self.current_snapshot();
        self.core
            .infer_query_traced(self.ctx(&snap), query, k, self.config().mode, trace_id)
    }

    /// Every query of a batch against **one** epoch: the snapshot is read
    /// once at batch start, so a batch's answers are mutually consistent
    /// even while ingestion publishes mid-batch.
    ///
    /// With admission control enabled the whole batch takes **one**
    /// permit — a batch is admitted or shed as a unit, never half-shed
    /// (a shed returns one `Rejected{Overloaded}` result per query).
    #[must_use]
    pub fn infer_batch_detailed(
        &self,
        queries: &[hris_traj::Trajectory],
        k: usize,
    ) -> Vec<QueryResult> {
        let _permit = match self.gate.as_ref().map(AdmissionGate::admit) {
            Some(Admission::Shed) => {
                return queries
                    .iter()
                    .map(|q| self.shed(q.len(), self.core.mint_trace_id()))
                    .collect();
            }
            Some(Admission::Admitted(p)) => Some(p),
            None => None,
        };
        let snap = self.current_snapshot();
        self.core.infer_batch_detailed(self.ctx(&snap), queries, k)
    }

    /// Phases 1–2 of several sub-queries against **one** pinned snapshot —
    /// the scatter seam of a sharded router. The router calls this once per
    /// touched shard, so every sub-query of one routed query observes the
    /// same epoch even when its pair assignment revisits the shard (A–B–A)
    /// while ingestion publishes concurrently; the returned epoch is the
    /// proof of that snapshot isolation.
    ///
    /// `repaired` says the routed query came out of the screen repaired, so
    /// its pairs run with the degradation chain armed exactly as on a
    /// single engine; the second return value is how many pairs fell back,
    /// for the router to fold into the [`QueryOutcome`](crate::QueryOutcome).
    ///
    /// Under a recording `spans` parent (the router's per-shard span),
    /// each sub-query's `"candidates"` and `"local"` phase spans (plus
    /// per-pair children) land in the router's collector, so one
    /// cross-shard query stitches into a single tree with one clock
    /// origin. [`SpanParent::off`] reads no clock.
    #[must_use]
    pub fn local_inference_pinned_batch_traced(
        &self,
        queries: &[hris_traj::Trajectory],
        repaired: bool,
        spans: SpanParent<'_>,
    ) -> (Vec<Vec<LocalInferenceResult>>, usize, u64) {
        let snap = self.current_snapshot();
        let mut pairs_fell_back = 0;
        let locals = queries
            .iter()
            .map(|q| {
                let run = self.core.local_inference_run(
                    self.ctx(&snap),
                    q,
                    self.config().mode,
                    repaired,
                    spans,
                    true,
                );
                pairs_fell_back += run.pairs_fell_back;
                run.locals
            })
            .collect();
        (locals, pairs_fell_back, snap.epoch())
    }

    /// Whether this handle follows a live [`SnapshotReader`] (`true`) or is
    /// pinned to a fixed snapshot (`false`). Staleness watchdogs only make
    /// sense for live sources — a fixed snapshot ages by construction.
    #[must_use]
    pub fn is_live(&self) -> bool {
        matches!(self.source, ArchiveSource::Live(_))
    }

    /// Seconds since the snapshot the next query would serve against was
    /// published. On a live source this tracks publisher health; on a fixed
    /// source it grows monotonically since the pin.
    #[must_use]
    pub fn snapshot_age_seconds(&self) -> f64 {
        self.current_snapshot().age_seconds()
    }

    /// Starts the zero-dependency telemetry server for this handle on
    /// `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// The server exposes `/metrics` (Prometheus text), `/healthz` (flips
    /// unhealthy when [`EngineHandle::snapshot_age_seconds`] exceeds
    /// [`ObsOptions::staleness_bound_s`](crate::ObsOptions)) and
    /// `/debug/traces` + `/debug/slow`. Each `/metrics` scrape refreshes the
    /// `hris_snapshot_age_seconds` watchdog gauge first.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when observability is disabled on this handle;
    /// otherwise whatever binding the listener returns.
    pub fn serve_metrics(
        self: &Arc<Self>,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<MetricsServer> {
        let Some(obs) = self.core.observability() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "observability is disabled; enable it (EngineConfig::builder().observability(true)) \
                 or construct the handle with live_with_registry before serving telemetry",
            ));
        };
        let registry = Arc::clone(obs.registry());
        let bound = self.config().obs.staleness_bound_s;
        let age_gauge = registry.gauge(
            "hris_snapshot_age_seconds",
            "Seconds since the served archive snapshot was published (staleness watchdog).",
        );
        let on_scrape = Arc::clone(self);
        let on_health = Arc::clone(self);
        let mut state = ServeState::new(Arc::clone(&registry))
            .with_traces(obs.trace_ring())
            .pre_scrape(move || {
                // The gauge is integral; health checks below use the exact
                // float so sub-second staleness bounds stay testable.
                age_gauge.set(on_scrape.snapshot_age_seconds().round() as i64);
            })
            .health_check("snapshot_freshness", move || {
                let age = on_health.snapshot_age_seconds();
                if age <= bound {
                    Health::Ok
                } else {
                    Health::Unhealthy(format!(
                        "snapshot is {age:.1}s old (staleness bound {bound}s)"
                    ))
                }
            });
        if let Some(gate) = &self.gate {
            let inflight_gauge = registry.gauge(
                "hris_admission_inflight",
                "Queries currently holding an admission execution slot.",
            );
            let queued_gauge = registry.gauge(
                "hris_admission_queued",
                "Queries currently waiting for an admission slot (bounded).",
            );
            let watermark_gauge = registry.gauge(
                "hris_admission_queued_high_watermark",
                "Highest waiting-room occupancy observed since startup.",
            );
            let on_gate_scrape = gate.clone();
            let on_gate_health = gate.clone();
            state = state
                .pre_scrape(move || {
                    inflight_gauge.set(on_gate_scrape.inflight() as i64);
                    queued_gauge.set(on_gate_scrape.queued() as i64);
                    watermark_gauge.set(on_gate_scrape.queued_high_watermark() as i64);
                })
                .health_check("admission_pressure", move || {
                    if on_gate_health.saturated() {
                        Health::Unhealthy(format!(
                            "admission waiting room saturated ({} inflight, {} queued)",
                            on_gate_health.inflight(),
                            on_gate_health.queued()
                        ))
                    } else {
                        Health::Ok
                    }
                });
        }
        state.serve(addr)
    }

    fn ctx<'e>(&'e self, snap: &'e ArchiveSnapshot) -> EngineCtx<'e> {
        EngineCtx {
            net: &self.net,
            archive: snap.archive(),
            params: &self.params,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hris_roadnet::{generator, NetworkConfig};
    use hris_traj::{ArchiveWriter, GpsPoint, TrajId, Trajectory};

    fn net() -> Arc<RoadNetwork> {
        Arc::new(generator::generate(&NetworkConfig::small(5)))
    }

    fn query(x0: f64) -> Trajectory {
        Trajectory::new(
            TrajId(0),
            (0..4)
                .map(|k| {
                    GpsPoint::new(
                        hris_geo::Point::new(x0 + k as f64 * 400.0, 120.0),
                        k as f64 * 120.0,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn handle_is_send_sync_static() {
        fn assert_owned<T: Send + Sync + 'static>() {}
        assert_owned::<EngineHandle>();
        assert_owned::<Arc<EngineHandle>>();
    }

    #[test]
    fn handle_matches_borrowed_engine() {
        let net = net();
        let hris = crate::Hris::new(
            &net,
            TrajectoryArchive::empty(),
            crate::HrisParams::default(),
        );
        let engine = crate::QueryEngine::new(&hris);
        let handle = EngineHandle::new(
            Arc::clone(&net),
            TrajectoryArchive::empty(),
            crate::HrisParams::default(),
        );
        let q = query(0.0);
        let borrowed = engine.infer_query(&q, 2);
        let owned = handle.infer_query(&q, 2);
        assert_eq!(borrowed.globals.len(), owned.globals.len());
        for (a, b) in borrowed.globals.iter().zip(&owned.globals) {
            assert_eq!(a.route, b.route);
            assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
        }
        assert_eq!(borrowed.outcome, owned.outcome);
    }

    #[test]
    fn scatter_seam_reports_fallbacks_and_epoch() {
        // Empty archive: every pair takes the shortest-path fallback, and
        // the seam hands that count out whether or not the chain is armed.
        let handle = EngineHandle::new(
            net(),
            TrajectoryArchive::empty(),
            crate::HrisParams::default(),
        );
        let subs = [query(0.0), query(200.0)];
        let whole = handle.infer_query(&subs[0], 2);
        for repaired in [false, true] {
            let (locals, fell_back, epoch) =
                handle.local_inference_pinned_batch_traced(&subs, repaired, SpanParent::off());
            assert_eq!(epoch, 0);
            assert_eq!(fell_back, 6, "three pairs per sub-query");
            assert_eq!(locals.len(), 2);
            assert_eq!(locals[0].len(), whole.stats.len());
        }
    }

    #[test]
    fn handle_can_move_into_a_thread() {
        let handle = Arc::new(EngineHandle::new(
            net(),
            TrajectoryArchive::empty(),
            crate::HrisParams::default(),
        ));
        let h = Arc::clone(&handle);
        let out = std::thread::spawn(move || h.infer_query(&query(0.0), 1))
            .join()
            .expect("worker thread");
        assert_eq!(
            out.globals.len(),
            handle.infer_query(&query(0.0), 1).globals.len()
        );
    }

    #[test]
    fn live_handle_follows_epochs() {
        let net = net();
        let mut writer = ArchiveWriter::new(TrajectoryArchive::empty());
        let handle = EngineHandle::live(
            Arc::clone(&net),
            writer.reader(),
            crate::HrisParams::default(),
            EngineConfig::default(),
        );
        assert_eq!(handle.epoch(), 0);
        let before = handle.infer_query(&query(0.0), 1).globals;

        writer.append(query(0.0)).unwrap();
        writer.publish();
        let _ = handle.infer_query(&query(0.0), 1);
        assert_eq!(handle.epoch(), 1);
        assert_eq!(handle.current_snapshot().num_trajectories(), 1);
        assert!(!before.is_empty());
    }

    #[test]
    fn fixed_handle_ignores_later_publishes() {
        let net = net();
        let mut writer = ArchiveWriter::new(TrajectoryArchive::empty());
        let frozen = writer.snapshot();
        let handle = EngineHandle::from_snapshot(
            Arc::clone(&net),
            frozen,
            crate::HrisParams::default(),
            EngineConfig::default(),
        );
        writer.append(query(0.0)).unwrap();
        writer.publish();
        let _ = handle.infer_query(&query(0.0), 1);
        assert_eq!(handle.epoch(), 0);
        assert_eq!(handle.current_snapshot().num_trajectories(), 0);
    }
}
