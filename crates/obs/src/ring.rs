//! The bounded per-query record ring behind `/debug/traces` and
//! `/debug/explain/<trace_id>`, and the audit record it stores.

use crate::trace::TraceRecord;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One query's audit document: the trace/query identity plus the
/// pre-rendered JSON explain record.
///
/// "Why did this route win?" is unanswerable from aggregate metrics, and
/// re-running the query only works if the archive has not moved. An engine
/// or router with explain enabled therefore records one structured JSON
/// document per query, keyed by the query's trace id. The document is kept
/// as an opaque pre-rendered string: `hris-obs` stays engine-agnostic (it
/// never learns what a route or a feature is), and serving
/// `/debug/explain/<trace_id>` is a lookup plus a write, no serialization
/// on the read path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// The trace id the document belongs to (key of `/debug/explain/<id>`).
    pub trace_id: u64,
    /// Engine- or router-assigned sequence number.
    pub query_id: u64,
    /// The structured explain document, already rendered as one JSON
    /// object (see `hris::QueryAudit` for the schema).
    pub json: String,
}

/// A bounded ring of the most recent per-query records, keyed by trace id:
/// pushing past the capacity drops the oldest record and counts it.
///
/// Cloning shares the underlying storage (the ring is an `Arc` inside), so
/// the engine that writes records and a telemetry server that reads them
/// can hold handles to the same ring.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    capacity: usize,
    trace_id: fn(&T) -> u64,
    inner: Arc<Mutex<Inner<T>>>,
}

/// The ring of [`TraceRecord`]s.
pub type TraceRing = Ring<TraceRecord>;
/// The ring of [`AuditRecord`]s.
pub type AuditRing = Ring<AuditRecord>;

#[derive(Debug)]
struct Inner<T> {
    buf: VecDeque<T>,
    dropped: u64,
}

impl Ring<TraceRecord> {
    /// A ring keeping at most `capacity` records (0 keeps none: every push
    /// is counted as dropped, which lets callers leave tracing "on" with a
    /// zero-retention budget).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Ring::keyed(capacity, |r| r.trace_id)
    }
}

impl Ring<AuditRecord> {
    /// A ring keeping at most `capacity` records (0 keeps none: every push
    /// is counted as dropped).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Ring::keyed(capacity, |r| r.trace_id)
    }
}

impl<T: Clone> Ring<T> {
    fn keyed(capacity: usize, trace_id: fn(&T) -> u64) -> Self {
        Ring {
            capacity,
            trace_id,
            inner: Arc::new(Mutex::new(Inner {
                buf: VecDeque::new(),
                dropped: 0,
            })),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a record; returns `true` when an old record (or, at zero
    /// capacity, this record) was dropped to make room.
    pub fn push(&self, rec: T) -> bool {
        let mut inner = self.inner.lock().expect("record ring");
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

    /// The most recent retained record carrying this trace id, if any.
    #[must_use]
    pub fn find(&self, trace_id: u64) -> Option<T> {
        let inner = self.inner.lock().expect("record ring");
        let found = inner
            .buf
            .iter()
            .rev()
            .find(|r| (self.trace_id)(r) == trace_id);
        found.cloned()
    }

    /// Copies out the retained records, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<T> {
        let inner = self.inner.lock().expect("record ring");
        inner.buf.iter().cloned().collect()
    }

    /// Removes and returns the retained records, oldest first.
    #[must_use]
    pub fn drain(&self) -> Vec<T> {
        self.inner
            .lock()
            .expect("record ring")
            .buf
            .drain(..)
            .collect()
    }

    /// How many records have been dropped since construction.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("record ring").dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace_id: u64) -> AuditRecord {
        AuditRecord {
            trace_id,
            query_id: trace_id,
            json: format!("{{\"trace_id\":{trace_id}}}"),
        }
    }

    #[test]
    fn bounded_eviction_and_lookup() {
        let ring = AuditRing::new(2);
        assert!(!ring.push(rec(1)));
        assert!(!ring.push(rec(2)));
        assert!(ring.push(rec(3)));
        assert_eq!(ring.dropped(), 1);
        assert!(ring.find(1).is_none(), "oldest evicted");
        assert_eq!(ring.find(3).expect("kept").json, "{\"trace_id\":3}");
        let ids: Vec<u64> = ring.snapshot().iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn find_returns_most_recent_for_duplicate_ids() {
        let ring = AuditRing::new(4);
        let _ = ring.push(rec(5));
        let _ = ring.push(AuditRecord {
            trace_id: 5,
            query_id: 99,
            json: "{}".to_string(),
        });
        assert_eq!(ring.find(5).expect("found").query_id, 99);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let ring = AuditRing::new(0);
        assert!(ring.push(rec(1)));
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn clones_share_the_ring() {
        let ring = AuditRing::new(3);
        let other = ring.clone();
        let _ = other.push(rec(2));
        assert_eq!(ring.snapshot().len(), 1);
    }

    #[test]
    fn drain_empties_but_keeps_drop_count() {
        let ring = AuditRing::new(4);
        let _ = ring.push(rec(1));
        let _ = ring.push(rec(2));
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn trace_ring_finds_by_trace_id() {
        let ring = TraceRing::new(2);
        let _ = ring.push(TraceRecord {
            trace_id: 9,
            query_id: 4,
            ..TraceRecord::default()
        });
        assert_eq!(ring.find(9).expect("kept").query_id, 4);
        assert!(ring.find(4).is_none(), "keyed by trace id, not query id");
    }
}
