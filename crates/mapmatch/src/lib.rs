//! Map-matching algorithms: the three baselines the paper compares against,
//! plus the shared candidate/transition machinery they (and HRIS itself)
//! build on.
//!
//! - [`IncrementalMatcher`] — the geometric/topological incremental matcher
//!   of Greenfeld (2002): match each point given only the previous match.
//! - [`StMatcher`] — ST-Matching (Lou et al., ACM GIS 2009): a candidate
//!   graph scored by spatial (observation × transmission) and temporal
//!   analysis, solved by dynamic programming.
//! - [`IvmmMatcher`] — IVMM (Yuan et al., MDM 2010): ST-Matching's static
//!   scores re-weighted by inter-point mutual influence, with an interactive
//!   voting round per point.
//!
//! All matchers implement [`MapMatcher`] and produce a [`MatchResult`]
//! (matched candidate per point + a connected [`Route`]).

#![warn(missing_docs)]

pub mod candidates;
pub mod incremental;
pub mod ivmm;
pub mod stmatching;

pub use candidates::{
    build_transitions, candidates_for, emission_prob, network_dist, reconstruct_route, MatchParams,
    PointCandidates, TransitionTable,
};
pub use incremental::IncrementalMatcher;
pub use ivmm::IvmmMatcher;
pub use stmatching::StMatcher;

use hris_roadnet::network::CandidateEdge;
use hris_roadnet::{RoadNetwork, Route};
use hris_traj::Trajectory;

/// Output of a map-matching run.
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// The matched candidate edge for each input point that had candidates.
    pub matched: Vec<CandidateEdge>,
    /// The reconstructed connected route through the matched edges.
    pub route: Route,
}

/// Common interface of all map-matching algorithms.
pub trait MapMatcher {
    /// Matches `traj` onto `net`.
    ///
    /// Returns `None` when no point of the trajectory has any candidate edge
    /// (e.g. an empty network or a trajectory entirely off the map).
    fn match_trajectory(&self, net: &RoadNetwork, traj: &Trajectory) -> Option<MatchResult>;

    /// Human-readable algorithm name (for experiment tables).
    fn name(&self) -> &'static str;
}
