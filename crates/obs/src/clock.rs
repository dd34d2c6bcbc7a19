//! Counted monotonic clock — the enforcement point of the zero-clock-read
//! guarantee.
//!
//! Every wall-clock read taken by the observability layer (its span
//! guards) and by the engine's instrumented code paths goes through
//! [`now`], which bumps a process-global counter before delegating to
//! [`Instant::now`]. The disabled-path contract — *an engine with
//! observability off performs zero clock reads per query* —
//! then stops being a doc comment and becomes a testable number: a dedicated
//! test binary records [`reads`] before and after a workload and asserts the
//! delta is zero (`crates/core/tests/zero_clock.rs`,
//! `crates/router/tests/router_zero_clock.rs`).
//!
//! The counter is scoped to clock reads *routed through this module*; code
//! outside the instrumentation seam (the telemetry server's poll loop, the
//! oracle's one-off preprocessing stopwatch) deliberately keeps plain
//! `Instant::now` so background threads cannot pollute the guarantee.
//!
//! Overhead: one relaxed `fetch_add` per clock read, only ever on paths
//! that were about to pay for a syscall-backed clock read anyway.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static READS: AtomicU64 = AtomicU64::new(0);

/// A monotonic clock read, counted. Drop-in replacement for
/// [`Instant::now`] on every instrumented code path.
#[must_use]
pub fn now() -> Instant {
    READS.fetch_add(1, Ordering::Relaxed);
    Instant::now()
}

/// Total clock reads taken through [`now`] since process start.
///
/// Tests take the difference around a workload; the absolute value also
/// counts reads from other threads of the process, so zero-clock assertions
/// belong in their own test binary.
#[must_use]
pub fn reads() -> u64 {
    READS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_counts_and_advances() {
        let before = reads();
        let a = now();
        let b = now();
        assert!(b >= a);
        assert!(reads() >= before + 2);
    }
}
