//! The per-query record (kept in a [`TraceRing`](crate::TraceRing)).

use crate::span::Span;
use serde_json::{json, Value};

/// One returned route, explained: the engine's score, the route's shape,
/// and the feature values behind the rank.
///
/// `hris-obs` never learns what a road or a feature is: the engine hands
/// the features over as `(name, value)` pairs in its own order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteExplanation {
    /// Position in the returned list (0 = top-1).
    pub rank: usize,
    /// The route's log-score, as returned.
    pub log_score: f64,
    /// Road segments on the route.
    pub segments: usize,
    /// Route length in metres.
    pub length_m: f64,
    /// Which local route was chosen for each query pair.
    pub local_indices: Vec<usize>,
    /// Feature values, `(name, value)`, in the engine's feature order.
    pub features: Vec<(&'static str, f64)>,
}

impl RouteExplanation {
    /// This explanation as one JSON object (stable key order).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let features = self
            .features
            .iter()
            .map(|&(name, v)| (name.to_string(), Value::from(v)))
            .collect();
        json!({
            "rank": self.rank,
            "log_score": self.log_score,
            "segments": self.segments,
            "length_m": self.length_m,
            "local_indices": self.local_indices,
            "features": Value::Obj(features),
        })
    }
}

/// Everything worth knowing about one served query, in one record: where
/// its wall time went, how much work each phase did, how it ended, and why
/// each returned route won.
///
/// Phase names follow the engine's decomposition of the paper's pipeline:
/// `candidates` (candidate-edge lookup per query point), `local` (reference
/// search + local route inference per consecutive pair), `global` (K-GRI
/// scoring), `refine` (result assembly). The record is rendered to JSON
/// only when it is read ([`QueryRecord::to_json`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryRecord {
    /// Process-unique trace id tying this record to its distributed span
    /// tree (0 = untraced).
    pub trace_id: u64,
    /// Engine- or router-assigned sequence number (monotonic per front).
    pub query_id: u64,
    /// Query points.
    pub points: usize,
    /// Consecutive point pairs inferred (`points - 1` for real queries).
    pub pairs: usize,
    /// Total candidate edges across all query points (0 on a sharded
    /// router's record, like `candidates_s`).
    pub candidates: usize,
    /// Global routes returned.
    pub routes: usize,
    /// Log-score of the top-1 route, when any route was returned.
    pub top_log_score: Option<f64>,
    /// Wall seconds spent in candidate lookup. Always 0 on a sharded
    /// router's record: its shards look candidates up inside the router's
    /// `shard` spans, which `local_s` totals.
    pub candidates_s: f64,
    /// Wall seconds spent in per-pair local inference. On a router's
    /// record, the total of its `shard` spans: phases 1–2 of a scattered
    /// query, the whole shard call of a delegated one.
    pub local_s: f64,
    /// Wall seconds spent in K-GRI global scoring. On a router's record,
    /// its `splice` span; 0 for a delegated query (scored on its shard).
    pub global_s: f64,
    /// Wall seconds spent assembling results. On a router's record, its
    /// `gather` span; 0 for a delegated query.
    pub refine_s: f64,
    /// Wall seconds for the whole query (≥ the four phases' sum).
    pub total_s: f64,
    /// True when `total_s` exceeded the front's slow-query threshold.
    pub slow: bool,
    /// How the query ended: `"served"`, `"repaired"`, `"degraded"`,
    /// `"rejected"` or `"shed"` (details in `events`).
    pub outcome: &'static str,
    /// Candidate edges matched per query point, in point order (empty on
    /// a sharded router's record).
    pub candidates_per_point: Vec<usize>,
    /// Local routes produced per pair, in pair order.
    pub local_routes_per_pair: Vec<usize>,
    /// One explanation per returned route, best first (empty where the
    /// recording front did not rank the routes: a shed, or a sharded
    /// router's record of a query it delegated whole).
    pub explanations: Vec<RouteExplanation>,
    /// Repair / fallback / reroute / shed events, in order of occurrence.
    pub events: Vec<String>,
    /// Root id of the span tree in `spans` (0 when no tree was captured).
    pub root_span: u64,
    /// The query's span tree, sorted by `(start_s, id)`.
    pub spans: Vec<Span>,
}

impl QueryRecord {
    /// This record as one JSON object (stable key order).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let explanations = self.explanations.iter().map(RouteExplanation::to_value);
        let spans = self.spans.iter().map(Span::to_value);
        json!({
            "trace_id": self.trace_id,
            "query_id": self.query_id,
            "points": self.points,
            "pairs": self.pairs,
            "candidates": self.candidates,
            "routes": self.routes,
            "top_log_score": self.top_log_score,
            "candidates_s": self.candidates_s,
            "local_s": self.local_s,
            "global_s": self.global_s,
            "refine_s": self.refine_s,
            "total_s": self.total_s,
            "slow": self.slow,
            "outcome": self.outcome,
            "candidates_per_point": self.candidates_per_point,
            "local_routes_per_pair": self.local_routes_per_pair,
            "explanations": Value::Arr(explanations.collect()),
            "events": self.events,
            "root_span": self.root_span,
            "spans": Value::Arr(spans.collect()),
        })
    }

    /// [`QueryRecord::to_value`] as compact JSON text.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().render_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let r = QueryRecord {
            query_id: 7,
            points: 5,
            pairs: 4,
            top_log_score: Some(-1.5),
            total_s: 0.25,
            slow: true,
            outcome: "served",
            candidates_per_point: vec![2, 3],
            events: vec!["repair: \"quoted\"".to_string()],
            ..QueryRecord::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"query_id\":7"));
        assert!(j.contains("\"top_log_score\":-1.5"));
        assert!(j.contains("\"slow\":true"));
        assert!(j.contains("\"outcome\":\"served\""));
        assert!(j.contains("\"candidates_per_point\":[2,3]"));
        assert!(j.contains("\"events\":[\"repair: \\\"quoted\\\"\"]"));
        let none = QueryRecord::default().to_json();
        assert!(none.contains("\"top_log_score\":null"));
        assert!(none.contains("\"explanations\":[]"));
        assert!(none.contains("\"root_span\":0"));
        assert!(none.contains("\"spans\":[]"));
    }

    #[test]
    fn spans_ride_along_in_json() {
        let r = QueryRecord {
            query_id: 1,
            root_span: 10,
            spans: vec![crate::span::Span {
                id: 10,
                parent: 0,
                name: "query".to_string(),
                start_s: 0.0,
                duration_s: 0.5,
                attrs: Vec::new(),
            }],
            ..QueryRecord::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"root_span\":10"));
        assert!(j.contains("\"spans\":[{\"id\":10,"));
    }

    #[test]
    fn explanations_render_named_features_in_order() {
        let expl = RouteExplanation {
            rank: 0,
            log_score: -2.5,
            segments: 9,
            length_m: 1234.5,
            local_indices: vec![0, 2],
            features: vec![("turn_count", 1.0), ("length_ratio", f64::NAN)],
        };
        assert_eq!(
            expl.to_value().to_string(),
            concat!(
                "{\"rank\":0,\"log_score\":-2.5,\"segments\":9,\"length_m\":1234.5,",
                "\"local_indices\":[0,2],\"features\":{\"turn_count\":1,\"length_ratio\":null}}"
            )
        );
    }
}
