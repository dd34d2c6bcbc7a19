//! HRIS parameters (Table II of the paper).

/// Which local-inference algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalAlgorithm {
    /// Traverse-graph based inference (Algorithm 1).
    Tgi,
    /// Nearest-neighbor based inference (Algorithm 2).
    Nni,
    /// Density-switched hybrid (Section III-B.3).
    #[default]
    Hybrid,
}

/// Which algorithm the hybrid picks below the density threshold `τ`.
///
/// The paper's prose says "if the density is lower than τ, TGI is selected",
/// but its own Figure 10 shows NNI *winning* at low density and TGI at high
/// density, and the surrounding discussion ("the performance of TGI and NNI
/// switch when ρ is about 200/km², therefore we can set τ = 200/km² so the
/// hybrid always adopts the better approach") only makes sense with the
/// Figure-10 polarity. We default to Figure 10 and expose both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HybridPolarity {
    /// Low density → NNI, high density → TGI (consistent with Figure 10).
    #[default]
    Fig10,
    /// Low density → TGI, high density → NNI (the prose reading).
    PaperText,
}

/// Which form of Equation 1 scores local-route popularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PopularityModel {
    /// Scale-free variant: mean per-segment support × entropy evenness
    /// (deviation D1 in EXPERIMENTS.md; robust when candidate routes of a
    /// pair differ in length).
    #[default]
    ScaleFree,
    /// The paper's literal Equation 1: `|⋃_r C_i(r)| · Σ −x(r)·log x(r)`.
    /// Exposed for the ablation experiment; biased toward longer routes
    /// when candidates differ in length.
    PaperLiteral,
}

/// All tunables of HRIS, with Table II defaults.
#[derive(Debug, Clone)]
pub struct HrisParams {
    /// Reference search radius `φ`, metres (Table II: 500 m).
    pub phi_m: f64,
    /// Splicing distance threshold `e` for spliced references, metres.
    pub splice_eps_m: f64,
    /// Spliced references are only constructed when fewer simple references
    /// than this were found (the paper motivates splicing for sparse areas).
    pub splice_when_simple_below: usize,
    /// Per-pair cap on references, keeping the ones closest to the query
    /// points (Figure 9's "irrelevant trajectories" observation).
    pub max_refs_per_pair: usize,
    /// Candidate-edge radius `ε` (Definition 5), metres.
    pub candidate_eps_m: f64,
    /// Maximum candidate edges per query point used as KSP endpoints.
    pub max_query_candidates: usize,
    /// Hybrid density threshold `τ`, reference points per km²
    /// (Table II: 200/km²).
    pub tau_per_km2: f64,
    /// Which way the hybrid switches at `τ`.
    pub hybrid_polarity: HybridPolarity,
    /// Which local algorithm to run (Hybrid reproduces the paper's system).
    pub local_algorithm: LocalAlgorithm,
    /// λ-neighborhood radius in hops (Table II: 4).
    pub lambda: usize,
    /// `k₁` — K of the K-shortest-path search in TGI (Table II: 5).
    pub k1: usize,
    /// Popularity discount `γ` of traverse-graph link weights:
    /// `w(u→v) = chain_dist · (1 + γ / (1 + |C_i(v)|))`.
    ///
    /// The paper leaves the traverse-graph weights unspecified ("top-K
    /// shortest paths on this traverse graph") and relies on sparse Beijing
    /// coverage to make the graph selective. At our denser simulated scale
    /// a pure-distance weight collapses TGI into plain shortest paths, so
    /// the discount realises the paper's stated intuition — "heavily
    /// traversed but longer" beats "shortest but untravelled" — directly in
    /// the weight. Set to 0.0 for the paper-literal distance weighting.
    pub tgi_popularity_weight: f64,
    /// Whether TGI applies transitive graph reduction (Figure 11b ablation).
    pub tgi_use_reduction: bool,
    /// `k₂` — constrained-kNN fan-out in NNI (Table II: 4).
    pub k2: usize,
    /// `α` — NNI's away-from-destination tolerance, metres (Table II: 500 m).
    pub alpha_m: f64,
    /// `β` — NNI's detour-ratio tolerance (Table II: 1.5).
    pub beta: f64,
    /// Whether NNI shares common substructures via the transit graph
    /// (Figure 13b ablation).
    pub nni_share_substructures: bool,
    /// Cap on enumerated NNI transit-graph paths per pair.
    pub nni_max_paths: usize,
    /// Cap on local routes kept per pair (bounds the K-GRI DP width).
    pub max_local_routes: usize,
    /// Plausibility bound on local routes: a candidate longer than
    /// `max_detour_ratio ×` the shortest network path between the pair's
    /// candidate edges is discarded.
    ///
    /// Equation 1's popularity grows with segment count (entropy over more
    /// terms), so without this bound the scoring systematically prefers the
    /// longest wandering candidate. The paper's Beijing setting masks the
    /// bias because its candidate routes are all near-direct; our denser
    /// enumeration surfaces it, hence the explicit bound (see DESIGN.md).
    pub max_detour_ratio: f64,
    /// `k₃` — K of the global top-K route inference (Table II default used
    /// in the accuracy experiments; the paper computes accuracy on top-1).
    pub k3: usize,
    /// Small additive entropy floor so single-segment local routes do not
    /// zero out the multiplicative global score (see `local::route_popularity`).
    pub entropy_floor: f64,
    /// Which popularity formula scores local routes (ablation knob).
    pub popularity_model: PopularityModel,
    /// Time-of-day tolerance for reference search, seconds (`None`
    /// disables). The paper's future-work extension: references observed at
    /// an incompatible time of day are ignored, so diurnal travel patterns
    /// (morning vs evening flows) inform the inference.
    pub temporal_tolerance_s: Option<f64>,
}

impl Default for HrisParams {
    fn default() -> Self {
        HrisParams {
            phi_m: 500.0,
            splice_eps_m: 150.0,
            splice_when_simple_below: 64,
            max_refs_per_pair: 512,
            candidate_eps_m: 60.0,
            max_query_candidates: 3,
            tau_per_km2: 200.0,
            hybrid_polarity: HybridPolarity::default(),
            local_algorithm: LocalAlgorithm::default(),
            lambda: 4,
            k1: 5,
            tgi_popularity_weight: 1.0,
            tgi_use_reduction: true,
            k2: 4,
            alpha_m: 500.0,
            beta: 1.5,
            nni_share_substructures: true,
            nni_max_paths: 16,
            max_local_routes: 12,
            max_detour_ratio: 1.6,
            k3: 2,
            entropy_floor: 0.05,
            popularity_model: PopularityModel::default(),
            temporal_tolerance_s: None,
        }
    }
}

/// How a [`QueryEngine`](crate::engine::QueryEngine) schedules the per-pair
/// work of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Pairs run one after another on the calling thread.
    Sequential,
    /// Pairs of one query run concurrently on the thread pool (K-GRI still
    /// consumes them in query order).
    #[default]
    PairParallel,
}

/// Observability knobs of the [`QueryEngine`](crate::engine::QueryEngine).
///
/// Disabled (the default), the engine performs **zero** clock reads and zero
/// metric updates on the hot path; enabled, it records per-phase wall times,
/// queue/worker gauges and outcome counters on a
/// [`MetricsRegistry`](hris_obs::MetricsRegistry), plus a ring of
/// per-query records (timings, span tree, route explanations). Like the
/// rest of [`EngineConfig`], none of these options may change any inferred
/// route — they only spend a little time on visibility.
#[derive(Debug, Clone)]
pub struct ObsOptions {
    /// Master switch for engine instrumentation.
    pub enabled: bool,
    /// How many per-query [`QueryRecord`](hris_obs::QueryRecord)s the
    /// engine retains (oldest dropped first); `0` disables the records —
    /// and with them tracing and route explanations — while keeping the
    /// aggregate metrics.
    pub trace_capacity: usize,
    /// Queries slower than this wall time (seconds) are flagged `slow` in
    /// their trace and counted on `hris_engine_slow_queries_total`.
    pub slow_query_threshold_s: f64,
    /// Per-pair span sampling period. Every traced query records its
    /// phase tree (`query` → `candidates`, `local`, `global`, `refine`) at
    /// no extra clock read — those guards are the phase timers; one query
    /// in `span_sample_every` additionally records a `pair` span per
    /// consecutive point pair under `local` (two clock reads per pair).
    /// `0` never records per-pair detail.
    pub span_sample_every: u64,
    /// `/healthz` staleness bound: a live engine whose newest archive
    /// snapshot is older than this many seconds reports its ingest check
    /// unhealthy (and `hris_snapshot_age_seconds` shows the age).
    pub staleness_bound_s: f64,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            enabled: false,
            trace_capacity: 256,
            slow_query_threshold_s: 1.0,
            span_sample_every: 16,
            staleness_bound_s: 300.0,
        }
    }
}

/// Admission-control policy for the owned serving fronts
/// ([`EngineHandle`](crate::handle::EngineHandle) and the sharded router).
///
/// Off by default: the engine then behaves exactly as before this option
/// existed — every request runs, none shed. Enabled, at most
/// `max_inflight` queries execute concurrently, up to `max_queued` more
/// wait in a bounded waiting room, and anything beyond that is shed
/// immediately with `Rejected{Overloaded}` (counted in
/// `hris_engine_shed_total` and the SLO burn counters). Batches are
/// admitted as a unit — one permit per `infer_batch` call — so a batch
/// is never half-shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionOptions {
    /// Master switch; off means unbounded (pre-admission behaviour).
    pub enabled: bool,
    /// Concurrent requests allowed to execute. Must be ≥ 1 when enabled
    /// (validated at build time).
    pub max_inflight: usize,
    /// Requests allowed to wait for an execution slot; `0` sheds as soon
    /// as all slots are busy.
    pub max_queued: usize,
}

impl Default for AdmissionOptions {
    fn default() -> Self {
        AdmissionOptions {
            enabled: false,
            max_inflight: 64,
            max_queued: 256,
        }
    }
}

/// Tuning knobs of the [`QueryEngine`](crate::engine::QueryEngine); separate
/// from [`HrisParams`] because none of them may change any inferred route —
/// they only trade memory and threads for throughput and visibility. The
/// dirty-input screen ([`screen`](crate::engine::screen)) is not among
/// them: it is always on.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Per-query pair scheduling.
    pub mode: ExecMode,
    /// Fan `infer_batch` out across queries on the thread pool.
    pub batch_parallel: bool,
    /// Runtime observability (off by default; zero overhead when off).
    pub obs: ObsOptions,
    /// Admission control / load shedding (off by default; zero cost and
    /// zero behaviour change when off).
    pub admission: AdmissionOptions,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: ExecMode::default(),
            batch_parallel: true,
            obs: ObsOptions::default(),
            admission: AdmissionOptions::default(),
        }
    }
}

impl EngineConfig {
    /// A configuration that mirrors `Hris` exactly: one thread, no fan-out.
    /// Useful as the baseline in determinism and throughput comparisons.
    #[must_use]
    pub fn sequential() -> Self {
        EngineConfig {
            mode: ExecMode::Sequential,
            batch_parallel: false,
            ..EngineConfig::default()
        }
    }

    /// A builder over the default configuration, with validation at
    /// [`EngineConfigBuilder::build`]. This is the preferred way to
    /// construct a non-default configuration.
    #[must_use]
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }
}

/// Why [`EngineConfigBuilder::build`] refused a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The slow-query threshold must be a positive, finite number of
    /// seconds; the offending value is carried along.
    NonPositiveSlowQueryThreshold(f64),
    /// The ingest staleness bound must be a positive, finite number of
    /// seconds; the offending value is carried along.
    NonPositiveStalenessBound(f64),
    /// Admission control was enabled with `max_inflight == 0` — a gate
    /// nobody can enter would shed every request.
    ZeroAdmissionSlots,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositiveSlowQueryThreshold(v) => write!(
                f,
                "slow_query_threshold_s must be positive and finite, got {v}"
            ),
            ConfigError::NonPositiveStalenessBound(v) => {
                write!(f, "staleness_bound_s must be positive and finite, got {v}")
            }
            ConfigError::ZeroAdmissionSlots => {
                f.write_str("admission control needs max_inflight >= 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`EngineConfig`], created by
/// [`EngineConfig::builder`]. Starts from the default configuration;
/// every setter is chainable and [`EngineConfigBuilder::build`] rejects
/// nonsensical combinations instead of silently misbehaving at runtime.
///
/// ```
/// use hris::params::EngineConfig;
///
/// let cfg = EngineConfig::builder()
///     .observability(true)
///     .slow_query_threshold_s(0.5)
///     .build()
///     .expect("valid configuration");
/// assert!(cfg.obs.enabled);
///
/// assert!(EngineConfig::builder().slow_query_threshold_s(0.0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Per-query pair scheduling.
    #[must_use]
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Enables/disables batch fan-out across the thread pool.
    #[must_use]
    pub fn batch_parallel(mut self, on: bool) -> Self {
        self.cfg.batch_parallel = on;
        self
    }

    /// Master switch for engine instrumentation.
    #[must_use]
    pub fn observability(mut self, on: bool) -> Self {
        self.cfg.obs.enabled = on;
        self
    }

    /// How many per-query records to retain (`0` keeps aggregate metrics
    /// but disables the records).
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.cfg.obs.trace_capacity = capacity;
        self
    }

    /// Wall-time threshold (seconds) above which a query is flagged slow.
    /// Must be positive and finite; validated at build time.
    #[must_use]
    pub fn slow_query_threshold_s(mut self, seconds: f64) -> Self {
        self.cfg.obs.slow_query_threshold_s = seconds;
        self
    }

    /// Per-pair span sampling period: one traced query in `every` adds a
    /// `pair` span per point pair to its phase tree (`0`: never; the phase
    /// tree itself is on every trace).
    #[must_use]
    pub fn span_sampling(mut self, every: u64) -> Self {
        self.cfg.obs.span_sample_every = every;
        self
    }

    /// `/healthz` ingest staleness bound in seconds. Must be positive and
    /// finite; validated at build time.
    #[must_use]
    pub fn staleness_bound_s(mut self, seconds: f64) -> Self {
        self.cfg.obs.staleness_bound_s = seconds;
        self
    }

    /// Enables admission control with the given execution-slot and
    /// waiting-room bounds. `max_inflight` must be ≥ 1 (validated at
    /// build time); `max_queued` of 0 sheds the moment all slots are
    /// busy.
    #[must_use]
    pub fn admission(mut self, max_inflight: usize, max_queued: usize) -> Self {
        self.cfg.admission = AdmissionOptions {
            enabled: true,
            max_inflight,
            max_queued,
        };
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// The [`ConfigError`] naming the first option that failed validation,
    /// e.g. [`ConfigError::NonPositiveSlowQueryThreshold`] when the
    /// slow-query threshold is zero, negative, or non-finite.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        let threshold = self.cfg.obs.slow_query_threshold_s;
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(ConfigError::NonPositiveSlowQueryThreshold(threshold));
        }
        let staleness = self.cfg.obs.staleness_bound_s;
        if !(staleness.is_finite() && staleness > 0.0) {
            return Err(ConfigError::NonPositiveStalenessBound(staleness));
        }
        if self.cfg.admission.enabled && self.cfg.admission.max_inflight == 0 {
            return Err(ConfigError::ZeroAdmissionSlots);
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let p = HrisParams::default();
        assert_eq!(p.phi_m, 500.0);
        assert_eq!(p.tau_per_km2, 200.0);
        assert_eq!(p.lambda, 4);
        assert_eq!(p.k1, 5);
        assert_eq!(p.k2, 4);
        assert_eq!(p.alpha_m, 500.0);
        assert_eq!(p.beta, 1.5);
    }

    #[test]
    fn builder_accepts_valid_configurations() {
        let cfg = EngineConfig::builder()
            .mode(ExecMode::Sequential)
            .batch_parallel(false)
            .observability(true)
            .trace_capacity(16)
            .slow_query_threshold_s(0.25)
            .span_sampling(4)
            .staleness_bound_s(30.0)
            .build()
            .expect("valid configuration");
        assert_eq!(cfg.mode, ExecMode::Sequential);
        assert!(!cfg.batch_parallel);
        assert!(cfg.obs.enabled);
        assert_eq!(cfg.obs.trace_capacity, 16);
        assert_eq!(cfg.obs.slow_query_threshold_s, 0.25);
        assert_eq!(cfg.obs.span_sample_every, 4);
        assert_eq!(cfg.obs.staleness_bound_s, 30.0);
        // The untouched builder yields exactly the default configuration.
        let built = EngineConfig::builder().build().unwrap();
        assert_eq!(
            format!("{built:?}"),
            format!("{:?}", EngineConfig::default())
        );
    }

    #[test]
    fn builder_rejects_bad_slow_query_threshold() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = EngineConfig::builder()
                .slow_query_threshold_s(bad)
                .build()
                .expect_err("threshold must be rejected");
            assert!(matches!(err, ConfigError::NonPositiveSlowQueryThreshold(_)));
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn builder_rejects_bad_staleness_bound() {
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let err = EngineConfig::builder()
                .staleness_bound_s(bad)
                .build()
                .expect_err("staleness bound must be rejected");
            assert!(matches!(err, ConfigError::NonPositiveStalenessBound(_)));
            assert!(!err.to_string().is_empty());
        }
        // Span sampling accepts any period, 0 meaning "live capture off".
        let cfg = EngineConfig::builder().span_sampling(0).build().unwrap();
        assert_eq!(cfg.obs.span_sample_every, 0);
    }
}
