//! Stitching distributed spans into one validated trace.
//!
//! The sharded router threads one [`SpanCollector`](crate::SpanCollector)
//! through every stage of a
//! cross-shard query — routing, each shard's pinned local inference, the
//! gather, the splice, the rerank — so all spans share one clock origin.
//! What remains before serving the tree is *validation*: prove the spans
//! really form one tree (exactly one root, every parent resolvable) and
//! stamp them into a [`TraceRecord`]. That is the [`TraceAssembler`]'s job;
//! the router's propagation proptests drive it over arbitrary scatter
//! patterns, and a malformed tree is a loud [`AssembleError`] instead of a
//! silently wrong `/debug/traces` entry.

use crate::span::Span;
use crate::trace::TraceRecord;
use std::collections::HashSet;

/// Why a span set could not be assembled into one stitched trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleError {
    /// No span had parent 0 — there is nothing to root the tree at.
    NoRoot,
    /// More than one span had parent 0; the count is attached.
    MultipleRoots(usize),
    /// A span referenced a parent id that is not in the set.
    DanglingParent {
        /// The offending span's id.
        span: u64,
        /// The parent id it referenced.
        parent: u64,
    },
}

impl std::fmt::Display for AssembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssembleError::NoRoot => write!(f, "span set has no root (parent 0) span"),
            AssembleError::MultipleRoots(n) => {
                write!(f, "span set has {n} roots; a stitched trace has exactly 1")
            }
            AssembleError::DanglingParent { span, parent } => {
                write!(f, "span {span} references missing parent {parent}")
            }
        }
    }
}

impl std::error::Error for AssembleError {}

/// Assembles the spans of one distributed query into a validated, stitched
/// [`TraceRecord`].
///
/// Collect spans from every stage with [`TraceAssembler::add_spans`], then
/// [`TraceAssembler::finish`] validates the tree shape, sorts the spans by
/// `(start_s, id)` and stamps trace id + root span onto the record the
/// caller provides (with its counts and timings already filled in).
#[derive(Debug)]
pub struct TraceAssembler {
    trace_id: u64,
    spans: Vec<Span>,
}

impl TraceAssembler {
    /// An empty assembler for the given trace.
    #[must_use]
    pub fn new(trace_id: u64) -> Self {
        TraceAssembler {
            trace_id,
            spans: Vec::new(),
        }
    }

    /// The trace id this assembler stitches for.
    #[must_use]
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Adds one stage's finished spans (e.g. a collector's
    /// [`into_spans`](crate::SpanCollector::into_spans) output).
    pub fn add_spans(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Spans gathered so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no span has been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Validates the gathered spans as exactly one tree and returns `rec`
    /// with `trace_id`, `root_span` and the sorted `spans` stamped in.
    ///
    /// # Errors
    /// [`AssembleError`] when the spans have no root, several roots, or a
    /// dangling parent link.
    pub fn finish(self, mut rec: TraceRecord) -> Result<TraceRecord, AssembleError> {
        let ids: HashSet<u64> = self.spans.iter().map(|s| s.id).collect();
        let mut root = 0u64;
        let mut roots = 0usize;
        for s in &self.spans {
            if s.parent == 0 {
                root = s.id;
                roots += 1;
            } else if !ids.contains(&s.parent) {
                return Err(AssembleError::DanglingParent {
                    span: s.id,
                    parent: s.parent,
                });
            }
        }
        match roots {
            0 => return Err(AssembleError::NoRoot),
            1 => {}
            n => return Err(AssembleError::MultipleRoots(n)),
        }
        let mut spans = self.spans;
        spans.sort_by(|a, b| {
            a.start_s
                .total_cmp(&b.start_s)
                .then_with(|| a.id.cmp(&b.id))
        });
        rec.trace_id = self.trace_id;
        rec.root_span = root;
        rec.spans = spans;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanCollector;

    fn span(id: u64, parent: u64, start_s: f64) -> Span {
        Span {
            id,
            parent,
            name: "s".to_string(),
            start_s,
            duration_s: 0.0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn assembles_one_tree_and_stamps_the_record() {
        let mut asm = TraceAssembler::new(42);
        asm.add_spans(vec![span(10, 0, 0.0)]);
        asm.add_spans(vec![span(12, 11, 0.3), span(11, 10, 0.1)]);
        assert_eq!(asm.len(), 3);
        let rec = asm.finish(TraceRecord::default()).expect("valid tree");
        assert_eq!(rec.trace_id, 42);
        assert_eq!(rec.root_span, 10);
        let ids: Vec<u64> = rec.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![10, 11, 12], "sorted by (start_s, id)");
    }

    #[test]
    fn rejects_rootless_multi_root_and_dangling_sets() {
        let asm = TraceAssembler::new(1);
        assert!(asm.is_empty());
        assert_eq!(
            asm.finish(TraceRecord::default()),
            Err(AssembleError::NoRoot)
        );

        let mut asm = TraceAssembler::new(1);
        asm.add_spans(vec![span(1, 0, 0.0), span(2, 0, 0.1)]);
        assert_eq!(
            asm.finish(TraceRecord::default()),
            Err(AssembleError::MultipleRoots(2))
        );

        let mut asm = TraceAssembler::new(1);
        asm.add_spans(vec![span(1, 0, 0.0), span(3, 99, 0.1)]);
        assert_eq!(
            asm.finish(TraceRecord::default()),
            Err(AssembleError::DanglingParent {
                span: 3,
                parent: 99
            })
        );
    }

    #[test]
    fn stitches_spans_from_a_real_collector() {
        let c = SpanCollector::new();
        let root = c.root("query");
        let root_id = root.id();
        let child = c.child(root_id, "shard");
        let _ = child.finish();
        let _ = root.finish();
        let mut asm = TraceAssembler::new(7);
        asm.add_spans(c.into_spans());
        let rec = asm.finish(TraceRecord::default()).expect("valid");
        assert_eq!(rec.root_span, root_id);
        assert_eq!(rec.spans.len(), 2);
    }
}
