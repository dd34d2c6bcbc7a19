//! Bounded admission gate for load shedding.
//!
//! The PR-5 serving stack accepts every request and queues unboundedly:
//! under sustained overload, latency grows without limit and memory with
//! it. [`AdmissionGate`] is the backpressure primitive that fixes this —
//! a counting gate with two bounds:
//!
//! * **`max_inflight`** — how many requests may execute concurrently.
//! * **`max_queued`** — how many may *wait* for an execution slot (the
//!   waiting room). When the waiting room is full too, [`admit`] returns
//!   [`Admission::Shed`] immediately — the caller turns that into a
//!   `Rejected{Overloaded}` outcome (HTTP 429 moral equivalent) instead
//!   of stalling.
//!
//! The gate is deliberately metrics-agnostic: it tracks its own inflight
//! and queued counts, a shed counter, and a queued high-watermark, and the
//! owning engine exports those through whatever registry it carries. This
//! keeps the primitive dependency-free and testable in isolation.
//!
//! [`admit`]: AdmissionGate::admit

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Outcome of asking the gate for entry.
#[derive(Debug)]
pub enum Admission {
    /// Request may run; drop the permit when done.
    Admitted(AdmissionPermit),
    /// Both the execution slots and the waiting room are full — shed the
    /// request immediately.
    Shed,
}

#[derive(Debug)]
struct GateState {
    inflight: usize,
    queued: usize,
}

#[derive(Debug)]
struct GateInner {
    state: Mutex<GateState>,
    freed: Condvar,
    max_inflight: usize,
    max_queued: usize,
    shed_total: AtomicU64,
    queued_high_watermark: AtomicU64,
}

/// Bounded concurrency gate with a finite waiting room and immediate shed
/// on saturation. Cloning shares the gate.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    inner: Arc<GateInner>,
}

/// RAII permit for one admitted request; releases its execution slot on
/// drop and wakes one waiter.
#[derive(Debug)]
pub struct AdmissionPermit {
    inner: Arc<GateInner>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock().expect("admission gate");
        st.inflight -= 1;
        drop(st);
        self.inner.freed.notify_one();
    }
}

impl AdmissionGate {
    /// Creates a gate with `max_inflight` execution slots and a waiting
    /// room of `max_queued` (0 means shed as soon as all slots are busy).
    ///
    /// # Panics
    /// If `max_inflight` is 0 — a gate nobody can enter is a config bug,
    /// rejected upstream by `EngineConfigBuilder`.
    #[must_use]
    pub fn new(max_inflight: usize, max_queued: usize) -> Self {
        assert!(max_inflight > 0, "admission gate needs at least one slot");
        AdmissionGate {
            inner: Arc::new(GateInner {
                state: Mutex::new(GateState {
                    inflight: 0,
                    queued: 0,
                }),
                freed: Condvar::new(),
                max_inflight,
                max_queued,
                shed_total: AtomicU64::new(0),
                queued_high_watermark: AtomicU64::new(0),
            }),
        }
    }

    /// Asks for entry. Returns immediately with a permit when an
    /// execution slot is free; blocks in the waiting room when slots are
    /// busy but the room has space; returns [`Admission::Shed`] without
    /// blocking when both are full.
    #[must_use]
    pub fn admit(&self) -> Admission {
        let g = &self.inner;
        let mut st = g.state.lock().expect("admission gate");
        if st.inflight < g.max_inflight {
            st.inflight += 1;
            return Admission::Admitted(self.permit());
        }
        if st.queued >= g.max_queued {
            g.shed_total.fetch_add(1, Ordering::Relaxed);
            return Admission::Shed;
        }
        st.queued += 1;
        g.queued_high_watermark
            .fetch_max(st.queued as u64, Ordering::Relaxed);
        while st.inflight >= g.max_inflight {
            st = g.freed.wait(st).expect("admission gate");
        }
        st.queued -= 1;
        st.inflight += 1;
        Admission::Admitted(self.permit())
    }

    fn permit(&self) -> AdmissionPermit {
        AdmissionPermit {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Requests currently holding execution slots.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inner.state.lock().expect("admission gate").inflight
    }

    /// Requests currently blocked in the waiting room.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.inner.state.lock().expect("admission gate").queued
    }

    /// Total requests shed since construction.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.inner.shed_total.load(Ordering::Relaxed)
    }

    /// Highest waiting-room occupancy ever observed — by construction
    /// never exceeds [`max_queued`](Self::max_queued), which is exactly
    /// the "bounded queue depth" assertion the soak harness makes.
    #[must_use]
    pub fn queued_high_watermark(&self) -> u64 {
        self.inner.queued_high_watermark.load(Ordering::Relaxed)
    }

    /// Configured execution-slot count.
    #[must_use]
    pub fn max_inflight(&self) -> usize {
        self.inner.max_inflight
    }

    /// Configured waiting-room size.
    #[must_use]
    pub fn max_queued(&self) -> usize {
        self.inner.max_queued
    }

    /// `true` while the waiting room is at capacity — the saturation
    /// signal behind the `admission_pressure` health check (503 under
    /// overload, back to 200 once the backlog drains).
    #[must_use]
    pub fn saturated(&self) -> bool {
        let st = self.inner.state.lock().expect("admission gate");
        st.inflight >= self.inner.max_inflight && st.queued >= self.inner.max_queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn admits_up_to_max_inflight() {
        let gate = AdmissionGate::new(2, 0);
        let a = gate.admit();
        let b = gate.admit();
        assert!(matches!(a, Admission::Admitted(_)));
        assert!(matches!(b, Admission::Admitted(_)));
        assert_eq!(gate.inflight(), 2);
        // Third request: no slots, no waiting room → shed.
        assert!(matches!(gate.admit(), Admission::Shed));
        assert_eq!(gate.shed_total(), 1);
        drop(a);
        assert_eq!(gate.inflight(), 1);
        assert!(matches!(gate.admit(), Admission::Admitted(_)));
        drop(b);
    }

    #[test]
    fn waiting_room_blocks_then_admits() {
        let gate = AdmissionGate::new(1, 1);
        let first = match gate.admit() {
            Admission::Admitted(p) => p,
            Admission::Shed => panic!("first must be admitted"),
        };
        let (tx, rx) = mpsc::channel();
        let g2 = gate.clone();
        let waiter = thread::spawn(move || {
            let a = g2.admit(); // parks in the waiting room
            tx.send(()).unwrap();
            drop(a);
        });
        // Give the waiter time to park, then confirm it is queued, not shed.
        thread::sleep(Duration::from_millis(50));
        assert_eq!(gate.queued(), 1);
        assert_eq!(gate.queued_high_watermark(), 1);
        assert!(gate.saturated());
        assert!(
            matches!(gate.admit(), Admission::Shed),
            "room full: next request sheds"
        );
        assert!(rx.try_recv().is_err(), "waiter still parked");
        drop(first);
        rx.recv_timeout(Duration::from_secs(5))
            .expect("waiter admitted after slot freed");
        waiter.join().unwrap();
        assert_eq!(gate.inflight(), 0);
        assert_eq!(gate.queued(), 0);
        assert_eq!(gate.shed_total(), 1);
    }

    #[test]
    fn counters_drain_to_zero_after_load() {
        let gate = AdmissionGate::new(4, 8);
        let mut handles = Vec::new();
        for _ in 0..16 {
            let g = gate.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    match g.admit() {
                        Admission::Admitted(p) => {
                            std::hint::black_box(&p);
                            drop(p);
                        }
                        Admission::Shed => {}
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(gate.inflight(), 0);
        assert_eq!(gate.queued(), 0);
        assert!(gate.queued_high_watermark() <= 8);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_is_a_bug() {
        let _ = AdmissionGate::new(0, 4);
    }
}
