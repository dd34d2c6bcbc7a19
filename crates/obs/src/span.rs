//! Hierarchical spans: per-query causal trees with wall-clock extents.
//!
//! A [`Span`] is one named interval of work with a parent link, so a query's
//! phases (candidates → local inference per pair → global K-GRI → refine)
//! form a tree rooted at the query span. Spans are collected per query into
//! a [`SpanCollector`] and shipped inside the query's
//! [`QueryRecord`](crate::QueryRecord), which keeps the hot path free of any
//! global span storage: the only cross-query state is the id allocator, one
//! relaxed `fetch_add` per span.
//!
//! A [`SpanGuard`] is also the *only* stopwatch of an instrumented code
//! path: [`SpanGuard::finish`] returns the measured seconds, so a phase
//! histogram, the record's `*_s` field and the span tree all read one
//! measurement. Whoever opens a guard picks one of three states: *off*
//! ([`SpanGuard::off`]: no clock read, nothing recorded), *timed*
//! ([`SpanGuard::timed`]: two clock reads, nothing recorded) or *recording*
//! ([`SpanCollector::root`]: the same two reads, and a [`Span`] lands in
//! the collector). Children are opened through a [`SpanParent`] — a `Copy`
//! handle carrying the state — so code below the root never asks which
//! state it is in. Only per-pair detail, the one part of a tree whose cost
//! grows with the query, is still **sampled** ([`SpanSampler`], 1-in-N).

use serde_json::{json, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process-wide span id allocator. Ids start at 1; 0 means "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique span id (never 0).
fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Process-wide trace id allocator. Ids start at 1; 0 means "untraced".
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique trace id (never 0). One relaxed
/// `fetch_add`, no clock reads — minting a trace id is as cheap as minting
/// a span id, and the single shared counter makes collisions across
/// concurrent batches impossible by construction (pinned by the router's
/// trace-propagation proptests).
#[must_use]
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// One attribute value on a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Integer payload (counts, sizes).
    Int(i64),
    /// Float payload (scores, seconds).
    Float(f64),
    /// Text payload (modes, outcomes).
    Text(String),
}

impl From<&AttrValue> for Value {
    fn from(v: &AttrValue) -> Self {
        match v {
            AttrValue::Int(v) => Value::from(*v),
            AttrValue::Float(v) => Value::from(*v),
            AttrValue::Text(s) => Value::from(s),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Text(v.to_string())
    }
}

/// One finished span: a named wall-clock interval inside a query, with a
/// parent link (0 = root) and optional key-value attributes.
///
/// `start_s` is the offset from the owning collector's origin (the moment
/// the query's root span opened), so a whole tree is self-contained and
/// needs no absolute timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Process-unique id (never 0).
    pub id: u64,
    /// Parent span id, or 0 for the tree root.
    pub parent: u64,
    /// Phase name (`query`, `candidates`, `local`, `pair`, `global`,
    /// `refine`, …).
    pub name: String,
    /// Start offset in seconds from the collector origin.
    pub start_s: f64,
    /// Wall-clock extent in seconds.
    pub duration_s: f64,
    /// Key-value attributes, in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
}

impl Span {
    /// This span as one JSON object (stable key order; `attrs` only when
    /// there are any).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut obj = json!({
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        });
        if !self.attrs.is_empty() {
            let attrs = self.attrs.iter().map(|(k, v)| (k.clone(), Value::from(v)));
            if let Value::Obj(members) = &mut obj {
                members.push(("attrs".to_string(), Value::Obj(attrs.collect())));
            }
        }
        obj
    }
}

/// Collects the spans of one query into a tree.
///
/// The collector is `Sync`: concurrent pair workers can open child guards
/// against the same collector (each finished span takes the internal mutex
/// once, on close). Dropping the collector drops its spans — the engine
/// moves them into the query's `QueryRecord` via [`SpanCollector::into_spans`].
#[derive(Debug)]
pub struct SpanCollector {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanCollector {
    /// An empty collector; its origin (the zero of every `start_s`) is
    /// pinned to the moment of construction. One clock read.
    #[must_use]
    #[allow(clippy::new_without_default)] // construction reads the clock
    pub fn new() -> Self {
        SpanCollector {
            origin: crate::clock::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens the root span (parent 0). The root starts at the collector's
    /// origin — the reading [`SpanCollector::new`] already took — so
    /// opening it reads no clock and its `start_s` is exactly 0.
    pub fn root(&self, name: &str) -> SpanGuard<'_> {
        self.open(name, 0, self.origin)
    }

    fn open(&self, name: &str, parent: u64, start: Instant) -> SpanGuard<'_> {
        let span = Span {
            id: next_span_id(),
            parent,
            name: name.to_string(),
            start_s: start.duration_since(self.origin).as_secs_f64(),
            duration_s: 0.0,
            attrs: Vec::new(),
        };
        SpanGuard {
            start: Some(start),
            span: Some((self, span)),
        }
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span collector").push(span);
    }

    /// Consumes the collector, returning its spans sorted by
    /// `(start_s, id)` — parents precede their children, concurrent
    /// siblings tie-break on allocation order.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span collector");
        spans.sort_by(|a, b| {
            a.start_s
                .total_cmp(&b.start_s)
                .then_with(|| a.id.cmp(&b.id))
        });
        spans
    }
}

/// Where a child span hangs: a `Copy` handle taken from an open guard
/// ([`SpanGuard::as_parent`]) and threaded through the stages below it.
/// It carries the guard's state, so [`SpanParent::child`] and
/// [`SpanParent::event`] are no-ops (no clock read, no id, no allocation)
/// under an *off* parent and stopwatch-only under a *timed* one.
#[derive(Debug, Clone, Copy)]
pub struct SpanParent<'c> {
    timed: bool,
    /// Recording: the collector and the parent span id.
    under: Option<(&'c SpanCollector, u64)>,
}

impl<'c> SpanParent<'c> {
    /// The parent under which nothing is measured or recorded.
    #[must_use]
    pub fn off() -> Self {
        SpanParent {
            timed: false,
            under: None,
        }
    }

    /// True when children of this parent land in a collector.
    #[must_use]
    pub fn is_recording(self) -> bool {
        self.under.is_some()
    }

    /// Opens a child span in this parent's state.
    pub fn child(self, name: &str) -> SpanGuard<'c> {
        match self.under {
            Some((c, parent)) => c.open(name, parent, crate::clock::now()),
            None if self.timed => SpanGuard::timed(),
            None => SpanGuard::off(),
        }
    }

    /// Records a zero-duration marker span — a **span event** — under this
    /// parent: shard health flips, reroutes, degraded/rejected outcomes.
    /// One clock read (the event's position on the trace timeline) when
    /// recording, nothing otherwise.
    pub fn event(self, name: &str, attrs: &[(&str, AttrValue)]) {
        let Some((c, parent)) = self.under else {
            return;
        };
        let mut marker = c.open(name, parent, crate::clock::now());
        for (key, value) in attrs {
            marker.attr(key, value.clone());
        }
        // A marker has no extent: its drop records it without a clock read.
        marker.start = None;
    }
}

/// An open span and the stopwatch of the work under it (see the module
/// docs for the three states). A *recording* guard records itself into its
/// collector when finished or dropped, RAII-style.
#[must_use = "a dropped-immediately guard measures nothing"]
#[derive(Debug)]
pub struct SpanGuard<'c> {
    /// `None` when off (or a marker).
    start: Option<Instant>,
    /// Recording: the collector and the span so far (`duration_s` unset).
    span: Option<(&'c SpanCollector, Span)>,
}

impl<'c> SpanGuard<'c> {
    /// A guard that measures and records nothing: zero clock reads, and
    /// [`SpanGuard::finish`] returns 0.
    pub fn off() -> Self {
        SpanGuard {
            start: None,
            span: None,
        }
    }

    /// A stopwatch: one clock read now, one on [`SpanGuard::finish`],
    /// nothing recorded and nothing allocated.
    pub fn timed() -> Self {
        SpanGuard {
            start: Some(crate::clock::now()),
            span: None,
        }
    }

    /// This span's id, or 0 when the guard is not recording.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.span.as_ref().map_or(0, |(_, span)| span.id)
    }

    /// The handle children of this span are opened through.
    #[must_use]
    pub fn as_parent(&self) -> SpanParent<'c> {
        SpanParent {
            timed: self.start.is_some(),
            under: self.span.as_ref().map(|(c, span)| (*c, span.id)),
        }
    }

    /// Attaches a key-value attribute (converted only when recording).
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        if let Some((_, span)) = &mut self.span {
            span.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Closes the span now and returns its duration in seconds (0 for an
    /// *off* guard) — the one measurement histograms, records and the span
    /// tree all share.
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let duration_s = self.start.take().map_or(0.0, |start| {
            crate::clock::now().duration_since(start).as_secs_f64()
        });
        if let Some((collector, mut span)) = self.span.take() {
            span.duration_s = duration_s;
            collector.record(span);
        }
        duration_s
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        // Only a recording guard still owes anybody its span.
        if self.span.is_some() {
            let _ = self.close();
        }
    }
}

/// Deterministic 1-in-N admission: query `k` is sampled iff `k % every == 0`
/// (with `every == 0` disabling sampling entirely). One relaxed `fetch_add`
/// per decision; no clock reads.
#[derive(Debug)]
pub struct SpanSampler {
    every: u64,
    counter: AtomicU64,
}

impl SpanSampler {
    /// A sampler admitting one query in `every` (0 admits none).
    #[must_use]
    pub fn new(every: u64) -> Self {
        SpanSampler {
            every,
            counter: AtomicU64::new(0),
        }
    }

    /// Draws the next admission decision.
    #[must_use]
    pub fn sample(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_span_id();
        let b = next_span_id();
        assert!(a != 0 && b != 0 && a != b);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(a != 0 && b != 0 && a != b);
    }

    #[test]
    fn events_are_zero_duration_marker_spans() {
        let c = SpanCollector::new();
        let root = c.root("query");
        let root_id = root.id();
        root.as_parent()
            .event("reroute", &[("from", AttrValue::Int(2))]);
        let _ = root.finish();
        let spans = c.into_spans();
        let event = spans
            .iter()
            .find(|s| s.name == "reroute")
            .expect("event recorded");
        assert_eq!(event.parent, root_id);
        assert_eq!(event.duration_s, 0.0);
        assert_eq!(event.attrs[0].0, "from");
    }

    #[test]
    fn guard_tree_records_parent_links_and_ordering() {
        let c = SpanCollector::new();
        let root = c.root("query");
        let root_id = root.id();
        {
            let mut child = root.as_parent().child("local");
            child.attr("pairs", 4usize);
            let grand = child.as_parent().child("pair");
            let _ = grand.finish();
            let _ = child.finish();
        }
        let total_s = root.finish();
        let spans = c.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "query");
        assert_eq!(spans[0].parent, 0);
        // The root starts at the collector's origin, and `finish` returned
        // the very duration the span carries.
        assert_eq!(spans[0].start_s, 0.0);
        assert_eq!(spans[0].duration_s.to_bits(), total_s.to_bits());
        assert_eq!(spans[1].name, "local");
        assert_eq!(spans[1].parent, root_id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(
            spans[1].attrs,
            vec![("pairs".to_string(), AttrValue::Int(4))]
        );
        // Children start at or after their parent and fit inside it
        // (same-clock reads, so exact inequalities hold).
        assert!(spans[1].start_s >= spans[0].start_s);
        assert!(spans[1].duration_s <= spans[0].duration_s);
    }

    #[test]
    fn dropping_a_guard_records_it() {
        let c = SpanCollector::new();
        {
            let _root = c.root("query");
        }
        assert_eq!(c.into_spans().len(), 1);
    }

    #[test]
    fn off_and_timed_guards_record_nothing() {
        for mut guard in [SpanGuard::off(), SpanGuard::timed()] {
            assert_eq!(guard.id(), 0);
            guard.attr("ignored", "text");
            let parent = guard.as_parent();
            assert!(!parent.is_recording());
            parent.event("ignored", &[]);
            let child = parent.child("child");
            assert_eq!(child.id(), 0);
            assert!(child.finish() >= 0.0);
            assert!(guard.finish() >= 0.0);
        }
        assert_eq!(SpanGuard::off().finish(), 0.0);
        assert!(!SpanParent::off().is_recording());
    }

    #[test]
    fn sampler_admits_one_in_n() {
        let s = SpanSampler::new(4);
        let admitted: Vec<bool> = (0..8).map(|_| s.sample()).collect();
        assert_eq!(
            admitted,
            vec![true, false, false, false, true, false, false, false]
        );
        let off = SpanSampler::new(0);
        assert!((0..10).all(|_| !off.sample()));
    }

    #[test]
    fn span_json_shape() {
        let s = Span {
            id: 3,
            parent: 1,
            name: "local".to_string(),
            start_s: 0.5,
            duration_s: 0.25,
            attrs: vec![
                ("pairs".to_string(), AttrValue::Int(4)),
                ("mode".to_string(), AttrValue::Text("tgi".to_string())),
            ],
        };
        assert_eq!(
            s.to_value().to_string(),
            "{\"id\":3,\"parent\":1,\"name\":\"local\",\"start_s\":0.5,\
             \"duration_s\":0.25,\"attrs\":{\"pairs\":4,\"mode\":\"tgi\"}}"
        );
        let bare = Span {
            id: 1,
            parent: 0,
            name: "query".to_string(),
            start_s: 0.0,
            duration_s: 1.0,
            attrs: Vec::new(),
        };
        assert!(!bare.to_value().to_string().contains("attrs"));
    }
}
