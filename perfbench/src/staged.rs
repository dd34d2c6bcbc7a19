//! The pipeline, re-executed stage by stage through the crates' public
//! functions with a span around each call — the outside-in view of where a
//! query's time goes. Nothing inside the program is edited; the staged
//! answer must equal the facade's bit for bit, or the trace would describe
//! a different program.

use crate::alloc;
use crate::spans::{Recorder, SpanId, NO_PARENT};
use hris::local::{infer_local_routes, LocalStats, RefEdgeIndex};
use hris::reference::{search_references, RefSearchConfig};
use hris::{
    GlobalRoute, HrisParams, LocalInferenceResult, PaperScorer, RefKind, RouteScorer, ScoringCtx,
};
use hris_roadnet::network::CandidateEdge;
use hris_roadnet::{CostModel, RoadNetwork};
use hris_traj::{Trajectory, TrajectoryArchive};

/// Span names; each is the layer (module) the call lands in.
pub mod layer {
    /// Root span of one staged query.
    pub const QUERY: &str = "query";
    /// `RoadNetwork::candidate_edges` (+ nearest-segment fallback).
    pub const CANDIDATES: &str = "roadnet.candidates";
    /// `hris::reference::search_references`.
    pub const REFERENCE: &str = "core.reference";
    /// `hris::local::infer_local_routes` that ran TGI.
    pub const TGI: &str = "core.local.tgi";
    /// `hris::local::infer_local_routes` that ran NNI.
    pub const NNI: &str = "core.local.nni";
    /// `SpOracle::route_between` for pairs local inference left empty.
    pub const ORACLE: &str = "roadnet.oracle";
    /// `PaperScorer::top_k` (K-GRI).
    pub const GLOBAL: &str = "core.global";
}

/// Work counts taken at the layer boundaries (times and allocation counts
/// live in the spans).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Queries staged.
    pub queries: u64,
    /// Query points looked up.
    pub points: u64,
    /// Candidate edges returned (after truncation).
    pub candidate_edges: u64,
    /// Consecutive-point pairs.
    pub pairs: u64,
    /// References found.
    pub refs: u64,
    /// … of which spliced.
    pub spliced_refs: u64,
    /// Pairs with no reference at all.
    pub empty_pairs: u64,
    /// Pairs that ran TGI / NNI.
    pub tgi_pairs: u64,
    /// See above.
    pub nni_pairs: u64,
    /// Traverse-graph nodes (TGI).
    pub traverse_nodes: u64,
    /// Traverse-graph links before / after reduction (TGI).
    pub edges_initial: u64,
    /// See above.
    pub edges_final: u64,
    /// Constrained-kNN searches (NNI).
    pub knn_searches: u64,
    /// Pairs whose only route is the shortest-path fallback.
    pub fallback_pairs: u64,
    /// Local routes handed to K-GRI.
    pub local_routes: u64,
}

/// The staged executor: a recorder plus the boundary counts.
pub struct Staged<'a> {
    net: &'a RoadNetwork,
    archive: &'a TrajectoryArchive,
    params: HrisParams,
    /// Spans recorded so far.
    pub rec: Recorder,
    /// Boundary counts so far.
    pub counts: Counts,
}

impl<'a> Staged<'a> {
    /// A staged executor over `net` and `archive` with default parameters
    /// (the same every front is built with).
    #[must_use]
    pub fn new(net: &'a RoadNetwork, archive: &'a TrajectoryArchive, rec: Recorder) -> Self {
        Staged {
            net,
            archive,
            params: HrisParams::default(),
            rec,
            counts: Counts::default(),
        }
    }

    fn candidates(&mut self, root: SpanId, qid: u32, p: hris_geo::Point) -> Vec<CandidateEdge> {
        let span = self.rec.open(layer::CANDIDATES, root, qid);
        let mut c = self.net.candidate_edges(p, self.params.candidate_eps_m);
        if c.is_empty() {
            c.extend(self.net.nearest_segment(p));
        }
        c.truncate(self.params.max_query_candidates.max(1));
        self.rec.close(span);
        self.counts.points += 1;
        self.counts.candidate_edges += c.len() as u64;
        c
    }

    /// Runs one query stage by stage and returns its top-`k` routes.
    /// Queries need at least two points (the generator guarantees three).
    pub fn query(&mut self, query: &Trajectory, k: usize, qid: u32) -> Vec<GlobalRoute> {
        assert!(query.len() >= 2, "staged pass takes multi-point queries");
        alloc::counting(true);
        let root = self.rec.open(layer::QUERY, NO_PARENT, qid);
        let cands: Vec<Vec<CandidateEdge>> = query
            .points
            .iter()
            .map(|p| self.candidates(root, qid, p.pos))
            .collect();

        let mut locals = Vec::with_capacity(query.len() - 1);
        for i in 0..query.len() - 1 {
            let (qi, qj) = (query.points[i], query.points[i + 1]);
            let (ci, cj) = (&cands[i], &cands[i + 1]);
            self.counts.pairs += 1;

            let span = self.rec.open(layer::REFERENCE, root, qid);
            let cfg = RefSearchConfig {
                phi: self.params.phi_m,
                splice_eps: self.params.splice_eps_m,
                splice_when_simple_below: self.params.splice_when_simple_below,
                max_refs: self.params.max_refs_per_pair,
                temporal: self.params.temporal_tolerance_s.map(|tol| (qi.t, tol)),
            };
            let dt = (qj.t - qi.t).max(1.0);
            let refs =
                search_references(self.archive, qi.pos, qj.pos, dt, self.net.max_speed(), &cfg);
            self.rec.close(span);
            self.counts.refs += refs.len() as u64;
            self.counts.spliced_refs += refs
                .refs
                .iter()
                .filter(|r| r.kind == RefKind::Spliced)
                .count() as u64;
            self.counts.empty_pairs += u64::from(refs.is_empty());

            let mut local = if refs.is_empty() || ci.is_empty() || cj.is_empty() {
                LocalInferenceResult {
                    routes: Vec::new(),
                    edge_index: RefEdgeIndex::default(),
                    refs,
                    stats: LocalStats::default(),
                }
            } else {
                let span = self.rec.open(layer::TGI, root, qid);
                let local = infer_local_routes(self.net, refs, ci, cj, &self.params);
                self.rec.close(span);
                let s = &local.stats;
                if s.algorithm == "TGI" {
                    self.counts.tgi_pairs += 1;
                    self.counts.traverse_nodes += s.traverse_nodes as u64;
                    self.counts.edges_initial += s.traverse_edges_initial as u64;
                    self.counts.edges_final += s.traverse_edges_final as u64;
                } else {
                    self.rec.rename(span, layer::NNI);
                    self.counts.nni_pairs += 1;
                    self.counts.knn_searches += s.knn_searches as u64;
                }
                local
            };

            if local.routes.is_empty() {
                if let (Some(a), Some(b)) = (ci.first(), cj.first()) {
                    let span = self.rec.open(layer::ORACLE, root, qid);
                    let sp = self.net.sp_oracle().route_between(
                        a.segment,
                        b.segment,
                        CostModel::Distance,
                    );
                    self.rec.close(span);
                    local.routes.extend(sp);
                    self.counts.fallback_pairs += 1;
                }
            }
            self.counts.local_routes += local.routes.len() as u64;
            locals.push(local);
        }

        let span = self.rec.open(layer::GLOBAL, root, qid);
        let globals =
            PaperScorer::from_params(&self.params).top_k(&ScoringCtx::new(self.net, &locals, k));
        self.rec.close(span);
        self.rec.close(root);
        alloc::counting(false);
        self.counts.queries += 1;
        globals
    }
}
