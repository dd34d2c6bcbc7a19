//! **HRIS** — the History-based Route Inference System of
//! *"Reducing Uncertainty of Low-Sampling-Rate Trajectories"* (ICDE 2012).
//!
//! Given a low-sampling-rate query trajectory, HRIS infers its K most likely
//! routes by mining travel patterns from an archive of historical
//! trajectories, in three phases (Section III of the paper):
//!
//! 1. **Reference-trajectory search** ([`reference`](mod@reference)): for every consecutive
//!    query point pair, find the historical trajectories — natively existing
//!    (*simple*) or stitched from two overlapping ones (*spliced*) — that
//!    hint at how objects travel between those points.
//! 2. **Local route inference** ([`local`]): infer candidate routes per pair
//!    with the traverse-graph approach (TGI, Algorithm 1), the
//!    nearest-neighbor approach (NNI, Algorithm 2), or the density-switched
//!    hybrid.
//! 3. **Global route inference** ([`global`]): score local routes by
//!    popularity and transition confidence, and thread the top-K global
//!    routes with the K-GRI dynamic program (Algorithm 3).
//!
//! The end-to-end pipeline lives in [`pipeline::Hris`]; it also implements
//! the `MapMatcher` trait so it can be compared head-to-head against the
//! baselines (the paper's evaluation methodology).
//!
//! ```
//! use hris::{Hris, HrisParams};
//! use hris_roadnet::{generator, NetworkConfig};
//! use hris_traj::{SimConfig, Simulator};
//!
//! let net = generator::generate(&NetworkConfig::small(1));
//! let mut sim = Simulator::new(&net, SimConfig { num_trips: 50, ..SimConfig::default() });
//! let (archive, _truth) = sim.generate_archive();
//! let hris = Hris::new(&net, archive, HrisParams::default());
//! // `hris.infer_routes(&query, k)` returns the top-k scored routes.
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod engine;
pub mod freespace;
pub mod global;
pub mod handle;
pub mod local;
pub mod params;
pub mod pipeline;
pub mod reference;
pub mod scoring;

pub use audit::{QueryAudit, RouteExplanation};
pub use engine::{
    EngineCacheStats, EngineObs, QueryEngine, QueryOutcome, QueryResult, RejectReason,
};
pub use freespace::{infer_polyline, FreespaceParams};
pub use global::GlobalRoute;
pub use handle::EngineHandle;
pub use local::{LocalInferenceResult, LocalRoute};
pub use params::{
    AdmissionOptions, ConfigError, EngineConfig, EngineConfigBuilder, ExecMode, ExplainOptions,
    HrisParams, HybridPolarity, LocalAlgorithm, ObsOptions, PopularityModel,
};
pub use pipeline::{Hris, HrisMatcher, ScoredRoute};
pub use reference::{search_references, RefKind, RefTrajectory, ReferenceSet};
pub use scoring::{extract_features, PaperScorer, RouteFeatures, RouteScorer, ScoringCtx};

// The telemetry-server surface of `EngineHandle::serve_metrics`, re-exported
// so consumers need not name hris-obs directly.
pub use hris_obs::{AuditRecord, AuditRing, Health, MetricsRegistry, MetricsServer, ServeState};

/// Everything a typical consumer needs, in one `use`.
///
/// ```
/// use hris::prelude::*;
/// ```
///
/// Re-exports the serving surface (owned [`EngineHandle`], borrowed
/// [`Hris`]/[`QueryEngine`]), the result types ([`QueryResult`],
/// [`QueryOutcome`], [`ScoredRoute`], [`GlobalRoute`]), the configuration
/// types ([`HrisParams`], [`EngineConfig`] and its builder) and the live
/// ingestion types from [`hris_traj`] ([`ArchiveSnapshot`],
/// [`ArchiveWriter`] and friends).
///
/// [`ArchiveSnapshot`]: hris_traj::ArchiveSnapshot
/// [`ArchiveWriter`]: hris_traj::ArchiveWriter
pub mod prelude {
    pub use crate::engine::{
        EngineCacheStats, EngineObs, QueryEngine, QueryOutcome, QueryResult, RejectReason,
    };
    pub use crate::global::GlobalRoute;
    pub use crate::handle::EngineHandle;
    pub use crate::params::{
        ConfigError, EngineConfig, EngineConfigBuilder, ExecMode, HrisParams, ObsOptions,
    };
    pub use crate::pipeline::{Hris, HrisMatcher, ScoredRoute};
    pub use crate::scoring::{PaperScorer, RouteScorer, ScoringCtx};
    pub use hris_traj::{
        ArchiveSnapshot, ArchiveWriter, IngestOptions, IngestQueue, IngestReport, SnapshotReader,
        TrajectoryArchive,
    };
}
