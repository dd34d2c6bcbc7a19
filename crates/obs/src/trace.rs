//! Per-query trace records and their bounded ring buffer.

use crate::span::Span;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

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

/// A bounded ring of the most recent [`TraceRecord`]s: pushing past the
/// capacity drops the oldest record and counts it.
///
/// Cloning shares the underlying storage (the ring is an `Arc` inside), so
/// the engine that writes records and a telemetry server that reads them
/// can hold handles to the same ring.
#[derive(Debug, Clone)]
pub struct TraceRing {
    capacity: usize,
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    buf: VecDeque<TraceRecord>,
    dropped: u64,
}

impl TraceRing {
    /// A ring keeping at most `capacity` records (0 keeps none: every push
    /// is counted as dropped, which lets callers leave tracing "on" with a
    /// zero-retention budget).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity,
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    /// Two handles push into the same storage iff they are clones of one
    /// ring.
    #[must_use]
    pub fn same_storage(&self, other: &TraceRing) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a record; returns `true` when an old record (or, at zero
    /// capacity, this record) was dropped to make room.
    pub fn push(&self, rec: TraceRecord) -> bool {
        let mut inner = self.inner.lock().expect("trace ring");
        if self.capacity == 0 {
            inner.dropped += 1;
            return true;
        }
        let evict = inner.buf.len() == self.capacity;
        if evict {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(rec);
        evict
    }

    /// Copies out the retained records, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.inner
            .lock()
            .expect("trace ring")
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// The most recent retained record carrying this trace id, if any.
    #[must_use]
    pub fn find(&self, trace_id: u64) -> Option<TraceRecord> {
        self.inner
            .lock()
            .expect("trace ring")
            .buf
            .iter()
            .rev()
            .find(|r| r.trace_id == trace_id)
            .cloned()
    }

    /// Removes and returns the retained records, oldest first.
    #[must_use]
    pub fn drain(&self) -> Vec<TraceRecord> {
        self.inner
            .lock()
            .expect("trace ring")
            .buf
            .drain(..)
            .collect()
    }

    /// How many records have been dropped since construction.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace ring").dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> TraceRecord {
        TraceRecord {
            query_id: id,
            ..TraceRecord::default()
        }
    }

    #[test]
    fn keeps_most_recent_and_counts_drops() {
        let ring = TraceRing::new(2);
        assert!(!ring.push(rec(1)));
        assert!(!ring.push(rec(2)));
        assert!(ring.push(rec(3)));
        let ids: Vec<u64> = ring.snapshot().iter().map(|r| r.query_id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let ring = TraceRing::new(0);
        assert!(ring.push(rec(1)));
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn drain_empties_but_keeps_drop_count() {
        let ring = TraceRing::new(4);
        let _ = ring.push(rec(1));
        let _ = ring.push(rec(2));
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.dropped(), 0);
    }

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

    #[test]
    fn clones_share_the_ring() {
        let ring = TraceRing::new(4);
        let other = ring.clone();
        let _ = other.push(rec(1));
        assert_eq!(ring.snapshot().len(), 1);
        assert!(ring.same_storage(&other));
        assert!(!ring.same_storage(&TraceRing::new(4)));
    }
}
