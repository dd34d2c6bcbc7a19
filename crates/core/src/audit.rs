//! The explain/audit document schema: *why* a query returned what it did.
//!
//! Aggregate metrics say how the engine is doing; a [`QueryAudit`] says what
//! one specific query saw — how many candidate edges each point matched, how
//! many local routes each pair produced, the top-K global routes with the
//! paper's own score and the route's feature vector, and any
//! fallback/repair/shed events along the way. Audits are opt-in
//! ([`ExplainOptions`](crate::params::ExplainOptions)), rendered once to
//! JSON, and retained in an engine- or router-owned
//! [`AuditRing`](hris_obs::AuditRing) keyed by trace id, where
//! `/debug/explain/<trace_id>` and `experiments --audit-out` find them.
//!
//! The schema lives here (not in `hris-obs`) because it is defined by the
//! paper's pipeline: score components are Equation 1/2 quantities and the
//! feature vector is [`FEATURE_NAMES`] order.

use crate::engine::{QueryOutcome, QueryResult};
use crate::global::GlobalRoute;
use crate::scoring::{extract_features, PaperScorer, RouteFeatures, ScoringCtx, FEATURE_NAMES};
use hris_obs::AuditRecord;

/// JSON string escaping for event text (feature names are static and safe).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A finite f64 as a JSON number, non-finite as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `[f64]` zipped with [`FEATURE_NAMES`] as one JSON object.
fn feature_object(values: &[f64]) -> String {
    let body = FEATURE_NAMES
        .iter()
        .zip(values)
        .map(|(name, &v)| format!("\"{name}\":{}", json_f64(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
}

/// One returned route, explained: the paper's score, the route's shape, and
/// its feature vector (the score components behind the rank).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteExplanation {
    /// Position in the returned list (0 = top-1).
    pub rank: usize,
    /// The paper's `ln s(R)` (Equations 1 and 2 through K-GRI).
    pub log_score: f64,
    /// Road segments on the stitched route.
    pub segments: usize,
    /// Route length in metres.
    pub length_m: f64,
    /// Which local route was chosen for each query pair.
    pub local_indices: Vec<usize>,
    /// The route's feature vector ([`FEATURE_NAMES`] order).
    pub features: RouteFeatures,
}

impl RouteExplanation {
    /// Explains one candidate, extracting its features with the popularity
    /// knobs `scorer` ranked it with, so the components line up with the
    /// DP's own `f`.
    fn explain(
        ctx: &ScoringCtx<'_>,
        candidate: &GlobalRoute,
        rank: usize,
        scorer: &PaperScorer,
    ) -> Self {
        RouteExplanation {
            rank,
            log_score: candidate.log_score,
            segments: candidate.route.len(),
            length_m: candidate.route.length(ctx.net),
            local_indices: candidate.local_indices.clone(),
            features: extract_features(ctx, candidate, scorer.entropy_floor, scorer.model),
        }
    }

    /// This explanation as one JSON object (compact, stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let indices = self
            .local_indices
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"rank\":{},\"log_score\":{},\"segments\":{},\"length_m\":{},",
                "\"local_indices\":[{}],\"features\":{}}}"
            ),
            self.rank,
            json_f64(self.log_score),
            self.segments,
            json_f64(self.length_m),
            indices,
            feature_object(&self.features.to_array()),
        )
    }
}

/// The audit document of one query: identity, per-stage counts, the
/// explained top-K routes, and every noteworthy event on the way.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryAudit {
    /// The trace id tying this audit to its span tree and trace record.
    pub trace_id: u64,
    /// Engine- or router-assigned sequence number.
    pub query_id: u64,
    /// Query points.
    pub points: usize,
    /// Consecutive point pairs inferred.
    pub pairs: usize,
    /// How the query ended: `"served"`, `"degraded"`, `"rejected"` or
    /// `"shed"` (details in `events`).
    pub outcome: String,
    /// Candidate edges matched per query point, in point order.
    pub candidates_per_point: Vec<usize>,
    /// Local routes produced per pair, in pair order.
    pub local_routes_per_pair: Vec<usize>,
    /// The explained routes, best first (capped at
    /// [`ExplainOptions::top_k_routes`](crate::params::ExplainOptions)).
    pub routes: Vec<RouteExplanation>,
    /// Fallback / repair / reroute / shed events, in order of occurrence.
    pub events: Vec<String>,
}

impl QueryAudit {
    /// The audit of one answered (or refused) query: identity, `points` as
    /// the pipeline saw them (post-repair), the outcome label, the
    /// repair / degradation / rejection events the outcome implies and, when
    /// NNI proved any pair's destination unreachable, the one `nni:` line
    /// saying how many. The scoring half is [`QueryAudit::explain_routes`]'s.
    #[must_use]
    pub fn of_result(trace_id: u64, query_id: u64, points: usize, result: &QueryResult) -> Self {
        let mut audit = QueryAudit::routeless(trace_id, query_id, points, result.outcome.label());
        let repair_event = |repairs: hris_traj::PointRepairs| {
            format!(
                "repair: sanitization dropped {} of {} points",
                repairs.points_dropped(),
                points + repairs.points_dropped()
            )
        };
        match result.outcome {
            QueryOutcome::Ok => audit.outcome = "served".to_string(),
            QueryOutcome::Repaired { repairs } => audit.push_event(repair_event(repairs)),
            QueryOutcome::Degraded {
                repairs,
                pairs_fell_back,
            } => {
                // A router demoting a clean query for a reroute repaired
                // nothing.
                if repairs.any() {
                    audit.push_event(repair_event(repairs));
                }
                audit.push_event(format!("degraded: {pairs_fell_back} pairs fell back"));
            }
            QueryOutcome::Rejected { reason } => audit.push_event(format!("rejected: {reason:?}")),
        }
        let unreachable = result.stats.iter().filter(|s| s.nni_unreachable).count();
        if unreachable > 0 {
            audit.push_event(format!(
                "nni: destination unreachable in {unreachable} of {} pairs \
                 (shortest-path candidates only)",
                result.stats.len()
            ));
        }
        audit
    }

    /// The audit of an admission-control shed: no inference ran, so the
    /// document is identity plus the shed event.
    #[must_use]
    pub fn shed(trace_id: u64, points: usize) -> Self {
        let mut audit = QueryAudit::routeless(trace_id, 0, points, "shed");
        audit.push_event("admission: waiting room full, query shed");
        audit
    }

    /// Identity, point/pair counts and outcome label; no routes.
    fn routeless(trace_id: u64, query_id: u64, points: usize, outcome: &str) -> Self {
        QueryAudit {
            trace_id,
            query_id,
            points,
            pairs: points.saturating_sub(1),
            outcome: outcome.to_string(),
            ..QueryAudit::default()
        }
    }

    /// Appends one event line.
    pub fn push_event(&mut self, event: impl Into<String>) {
        self.events.push(event.into());
    }

    /// Fills the scoring half of the audit — the one explain path shared by
    /// the engine and the sharded router: the per-pair local route counts
    /// `ctx` carries and an explanation of the first `top_k` returned
    /// routes (paper score and feature vector), as ranked by `scorer`.
    pub fn explain_routes(
        &mut self,
        ctx: &ScoringCtx<'_>,
        globals: &[GlobalRoute],
        top_k: usize,
        scorer: &PaperScorer,
    ) {
        self.local_routes_per_pair = ctx.locals.iter().map(|l| l.routes.len()).collect();
        self.routes = globals
            .iter()
            .take(top_k)
            .enumerate()
            .map(|(rank, g)| RouteExplanation::explain(ctx, g, rank, scorer))
            .collect();
    }

    /// This audit as one JSON object (compact, stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let counts = |v: &[usize]| {
            v.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        let routes = self
            .routes
            .iter()
            .map(RouteExplanation::to_json)
            .collect::<Vec<_>>()
            .join(",");
        let events = self
            .events
            .iter()
            .map(|e| format!("\"{}\"", escape(e)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"trace_id\":{},\"query_id\":{},\"points\":{},\"pairs\":{},",
                "\"outcome\":\"{}\",\"candidates_per_point\":[{}],",
                "\"local_routes_per_pair\":[{}],",
                "\"routes\":[{}],\"events\":[{}]}}"
            ),
            self.trace_id,
            self.query_id,
            self.points,
            self.pairs,
            escape(&self.outcome),
            counts(&self.candidates_per_point),
            counts(&self.local_routes_per_pair),
            routes,
            events,
        )
    }

    /// Renders this audit into the ring's record form.
    #[must_use]
    pub fn into_record(self) -> AuditRecord {
        AuditRecord {
            trace_id: self.trace_id,
            query_id: self.query_id,
            json: self.to_json(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_json_shape_and_escaping() {
        let mut audit = QueryAudit::routeless(7, 3, 4, "served");
        audit.candidates_per_point = vec![2, 3, 1, 2];
        audit.local_routes_per_pair = vec![5, 4, 6];
        audit.push_event("repair: pair 1 fell back to \"shortest path\"");
        let j = audit.clone().into_record();
        assert_eq!(j.trace_id, 7);
        assert_eq!(j.query_id, 3);
        assert!(j.json.starts_with("{\"trace_id\":7,\"query_id\":3,"));
        assert!(j.json.contains("\"candidates_per_point\":[2,3,1,2]"));
        assert!(j.json.contains("\"local_routes_per_pair\":[5,4,6]"));
        assert!(j.json.contains("fell back to \\\"shortest path\\\""));
        assert!(j.json.contains("\"routes\":[]"));
        assert!(serde_json::from_str::<serde_json::Value>(&j.json).is_ok());
        assert!(j.json.contains("\"outcome\":\"served\""));
    }

    #[test]
    fn constructors_label_the_outcome_and_its_events() {
        use crate::engine::RejectReason;
        use hris_traj::PointRepairs;
        let repairs = PointRepairs {
            dropped_non_finite: 1,
            ..PointRepairs::default()
        };
        let of = |outcome| {
            let result = QueryResult {
                outcome,
                ..QueryResult::rejected(RejectReason::EmptyQuery)
            };
            QueryAudit::of_result(9, 1, 4, &result)
        };
        let ok = of(QueryOutcome::Ok);
        assert_eq!((ok.outcome.as_str(), ok.pairs), ("served", 3));
        assert!(ok.events.is_empty());
        let repaired = of(QueryOutcome::served(Some(repairs), 0));
        assert_eq!(repaired.outcome, "repaired");
        assert_eq!(
            repaired.events,
            ["repair: sanitization dropped 1 of 5 points"]
        );
        let degraded = of(QueryOutcome::served(Some(repairs), 2));
        assert_eq!(degraded.outcome, "degraded");
        assert_eq!(degraded.events.len(), 2);
        assert_eq!(degraded.events[1], "degraded: 2 pairs fell back");
        // A reroute demotes a clean query without repairing anything.
        let rerouted = of(QueryOutcome::Degraded {
            repairs: PointRepairs::default(),
            pairs_fell_back: 1,
        });
        assert_eq!(rerouted.events, ["degraded: 1 pairs fell back"]);
        let rejected =
            QueryAudit::of_result(9, 0, 0, &QueryResult::rejected(RejectReason::EmptyQuery));
        assert_eq!(rejected.outcome, "rejected");
        assert!(rejected.routes.is_empty());
        assert_eq!(rejected.events, ["rejected: EmptyQuery"]);
        // Pairs whose NNI transit graph could not reach q_{i+1} get one line.
        let unreachable = crate::local::LocalStats {
            nni_unreachable: true,
            ..Default::default()
        };
        let result = QueryResult {
            outcome: QueryOutcome::Ok,
            stats: vec![unreachable.clone(), Default::default(), unreachable],
            ..QueryResult::rejected(RejectReason::EmptyQuery)
        };
        assert_eq!(
            QueryAudit::of_result(9, 1, 4, &result).events,
            ["nni: destination unreachable in 2 of 3 pairs (shortest-path candidates only)"]
        );
        let shed = QueryAudit::shed(9, 3);
        assert_eq!((shed.outcome.as_str(), shed.pairs), ("shed", 2));
        assert_eq!(shed.events.len(), 1);
    }

    #[test]
    fn route_explanation_renders_score_and_features() {
        let expl = RouteExplanation {
            rank: 0,
            log_score: -2.5,
            segments: 9,
            length_m: 1234.5,
            local_indices: vec![0, 2],
            features: RouteFeatures {
                turn_count: 1.0,
                mean_pair_popularity: 3.0,
                min_pair_popularity: 2.0,
                transition_sum: -0.5,
                travel_time_residual: 0.1,
                length_ratio: 1.2,
                support_density: 0.4,
                log_score: -2.5,
            },
        };
        let j = expl.to_json();
        assert_eq!(
            j,
            concat!(
                "{\"rank\":0,\"log_score\":-2.5,\"segments\":9,\"length_m\":1234.5,",
                "\"local_indices\":[0,2],\"features\":{\"turn_count\":1,",
                "\"mean_pair_popularity\":3,\"min_pair_popularity\":2,",
                "\"transition_sum\":-0.5,\"travel_time_residual\":0.1,",
                "\"length_ratio\":1.2,\"support_density\":0.4,\"log_score\":-2.5}}"
            )
        );
        assert!(serde_json::from_str::<serde_json::Value>(&j).is_ok());
    }
}
