//! The bounded per-query record ring behind `/debug/traces` and
//! `/debug/explain/<trace_id>`.

use crate::trace::QueryRecord;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A bounded ring of the most recent [`QueryRecord`]s, looked up by trace
/// id: pushing past the capacity drops the oldest record and counts it.
///
/// Cloning shares the underlying storage (the ring is an `Arc` inside), so
/// the engine that writes records and a telemetry server that reads them
/// can hold handles to the same ring.
#[derive(Debug, Clone)]
pub struct TraceRing {
    capacity: usize,
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug)]
struct Inner {
    buf: VecDeque<QueryRecord>,
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
    pub fn push(&self, rec: QueryRecord) -> bool {
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
    pub fn find(&self, trace_id: u64) -> Option<QueryRecord> {
        let inner = self.inner.lock().expect("record ring");
        let found = inner.buf.iter().rev().find(|r| r.trace_id == trace_id);
        found.cloned()
    }

    /// Copies out the retained records, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<QueryRecord> {
        let inner = self.inner.lock().expect("record ring");
        inner.buf.iter().cloned().collect()
    }

    /// Removes and returns the retained records, oldest first.
    #[must_use]
    pub fn drain(&self) -> Vec<QueryRecord> {
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

    fn rec(trace_id: u64) -> QueryRecord {
        QueryRecord {
            trace_id,
            query_id: trace_id,
            ..QueryRecord::default()
        }
    }

    #[test]
    fn bounded_eviction_and_lookup() {
        let ring = TraceRing::new(2);
        assert!(!ring.push(rec(1)));
        assert!(!ring.push(rec(2)));
        assert!(ring.push(rec(3)));
        assert_eq!(ring.dropped(), 1);
        assert!(ring.find(1).is_none(), "oldest evicted");
        assert_eq!(ring.find(3).expect("kept").query_id, 3);
        let ids: Vec<u64> = ring.snapshot().iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn find_returns_most_recent_for_duplicate_ids() {
        let ring = TraceRing::new(4);
        let _ = ring.push(rec(5));
        let _ = ring.push(QueryRecord {
            query_id: 99,
            ..rec(5)
        });
        assert_eq!(ring.find(5).expect("found").query_id, 99);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let ring = TraceRing::new(0);
        assert!(ring.push(rec(1)));
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn clones_share_the_ring() {
        let ring = TraceRing::new(3);
        let other = ring.clone();
        let _ = other.push(rec(2));
        assert_eq!(ring.snapshot().len(), 1);
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
    fn trace_ring_finds_by_trace_id() {
        let ring = TraceRing::new(2);
        let _ = ring.push(QueryRecord {
            trace_id: 9,
            query_id: 4,
            ..QueryRecord::default()
        });
        assert_eq!(ring.find(9).expect("kept").query_id, 4);
        assert!(ring.find(4).is_none(), "keyed by trace id, not query id");
    }
}
