//! Per-query trace records (kept in a [`TraceRing`](crate::TraceRing)).

use crate::span::Span;

/// Everything worth knowing about one served query: where its wall time
/// went and how much work each phase did.
///
/// Phase names follow the engine's decomposition of the paper's pipeline:
/// `candidates` (candidate-edge lookup per query point), `local` (reference
/// search + local route inference per consecutive pair), `global` (K-GRI
/// scoring), `refine` (result assembly / instrumentation collection).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecord {
    /// Process-unique trace id tying this record to its distributed span
    /// tree and audit record (0 = untraced / pre-tracing record).
    pub trace_id: u64,
    /// Engine-assigned sequence number (monotonic per engine).
    pub query_id: u64,
    /// Query points.
    pub points: usize,
    /// Consecutive point pairs inferred (`points - 1` for real queries).
    pub pairs: usize,
    /// Total candidate edges across all query points.
    pub candidates: usize,
    /// Global routes returned.
    pub routes: usize,
    /// Log-score of the top-1 route, when any route was returned.
    pub top_log_score: Option<f64>,
    /// Wall seconds spent in candidate lookup.
    pub candidates_s: f64,
    /// Wall seconds spent in per-pair local inference.
    pub local_s: f64,
    /// Wall seconds spent in K-GRI global scoring.
    pub global_s: f64,
    /// Wall seconds spent assembling results.
    pub refine_s: f64,
    /// Wall seconds for the whole query (≥ the four phases' sum).
    pub total_s: f64,
    /// True when `total_s` exceeded the engine's slow-query threshold.
    pub slow: bool,
    /// Root id of the span tree in `spans` (0 when no tree was captured).
    pub root_span: u64,
    /// The query's span tree, sorted by `(start_s, id)`; empty when the
    /// query was not sampled and not slow.
    pub spans: Vec<Span>,
}

impl TraceRecord {
    /// This record as one JSON object (compact, stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let score = match self.top_log_score {
            Some(s) if s.is_finite() => crate::export::fmt_f64(s),
            _ => "null".to_string(),
        };
        let spans = self
            .spans
            .iter()
            .map(Span::to_json)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"trace_id\":{},\"query_id\":{},\"points\":{},\"pairs\":{},\"candidates\":{},",
                "\"routes\":{},\"top_log_score\":{},",
                "\"candidates_s\":{},\"local_s\":{},\"global_s\":{},\"refine_s\":{},",
                "\"total_s\":{},\"slow\":{},",
                "\"root_span\":{},\"spans\":[{}]}}"
            ),
            self.trace_id,
            self.query_id,
            self.points,
            self.pairs,
            self.candidates,
            self.routes,
            score,
            crate::export::fmt_f64(self.candidates_s),
            crate::export::fmt_f64(self.local_s),
            crate::export::fmt_f64(self.global_s),
            crate::export::fmt_f64(self.refine_s),
            crate::export::fmt_f64(self.total_s),
            self.slow,
            self.root_span,
            spans,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let r = TraceRecord {
            query_id: 7,
            points: 5,
            pairs: 4,
            top_log_score: Some(-1.5),
            total_s: 0.25,
            slow: true,
            ..TraceRecord::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"query_id\":7"));
        assert!(j.contains("\"top_log_score\":-1.5"));
        assert!(j.contains("\"slow\":true"));
        let none = TraceRecord::default().to_json();
        assert!(none.contains("\"top_log_score\":null"));
        assert!(none.contains("\"root_span\":0"));
        assert!(none.contains("\"spans\":[]"));
    }

    #[test]
    fn spans_ride_along_in_json() {
        let r = TraceRecord {
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
            ..TraceRecord::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"root_span\":10"));
        assert!(j.contains("\"spans\":[{\"id\":10,"));
    }
}
