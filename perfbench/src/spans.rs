//! In-memory span recorder for the traced pass.
//!
//! The benchmark opens a span around each call it makes into a layer —
//! from its own files, outside the program — and keeps them in memory until
//! the pass ends. A layer's *self time* is its span minus the part covered
//! by its child spans.

use serde_json::{json, Value};
use std::time::Instant;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = u32;

/// Parent marker of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.reference`.
    pub name: &'static str,
    /// Span that caused this one, or [`NO_PARENT`].
    pub parent: SpanId,
    /// Identifier shared by all spans of one request.
    pub query: u32,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Allocation calls made while the span was open.
    pub allocs: u64,
}

impl Span {
    /// Wall time of the span, nanoseconds.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one clock origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("pass shorter than 584 years")
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, query: u32) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            query,
            start_ns: now,
            end_ns: now,
            allocs: crate::alloc::allocs(),
        });
        id
    }

    /// Closes a span and returns its wall time in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let allocs = crate::alloc::allocs();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.allocs = allocs - span.allocs;
        span.wall_ns()
    }

    /// Renames a span once the callee has said what it did (local
    /// inference reports TGI or NNI only in its result).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Records a root span whose times were measured elsewhere (the live
    /// loop times both of its threads itself); no allocation count.
    pub fn record(&mut self, name: &'static str, query: u32, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            parent: NO_PARENT,
            query,
            start_ns,
            end_ns,
            allocs: 0,
        });
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its wall minus its direct children's.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::wall_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.wall_ns());
            }
        }
        own
    }

    /// The spans as a JSON array (the body of `trace_<workload>.json`).
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let parent = (s.parent != NO_PARENT).then_some(s.parent);
                    json!({
                        "id": id,
                        "parent": parent,
                        "query": s.query,
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "allocs": s.allocs,
                    })
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.open("query", NO_PARENT, 0);
        let child = rec.open("core.reference", root, 0);
        rec.close(child);
        rec.close(root);
        rec.spans[root as usize].end_ns = rec.spans[root as usize].start_ns + 100;
        rec.spans[child as usize].start_ns = rec.spans[root as usize].start_ns + 10;
        rec.spans[child as usize].end_ns = rec.spans[root as usize].start_ns + 70;
        rec.record("traj.ingest.publish", 7, 5, 25);
        assert_eq!(rec.self_ns(), vec![40, 60, 20]);
        let doc = rec.to_json();
        assert_eq!(doc[1]["parent"], 0);
        assert!(doc[2]["parent"].is_null());
        assert_eq!(doc[2]["query"], 7);
    }
}
