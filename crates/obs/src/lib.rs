//! **hris-obs** — std-only observability for the HRIS serving stack (its
//! one dependency is the vendored JSON writer, itself pure std).
//!
//! The pipeline's three online phases (local inference → global inference →
//! refinement) are only tunable when their runtime cost is visible, so this
//! crate provides the smallest toolkit that makes the hot path introspectable
//! without perturbing it:
//!
//! * [`MetricsRegistry`] — a thread-safe registry of named metrics backed by
//!   plain atomics: monotonic [`Counter`]s, [`Gauge`]s, fixed-bucket
//!   [`Histogram`]s, and [`PairedCounter`]s (a hit/miss pair packed into one
//!   atomic word so a snapshot of the pair is always mutually consistent).
//! * [`QueryRecord`] / [`TraceRing`] — one opt-in record per query (phase
//!   durations, candidate counts, outcome and events, one
//!   [`RouteExplanation`] per returned route, and the query's span tree)
//!   kept in a bounded ring buffer with a slow-query flag. The record is
//!   the one source of a query's timings: its `*_s` fields are the
//!   durations of the like-named spans. It is rendered to JSON only when
//!   read, and `hris-obs` still knows nothing of roads: route features
//!   arrive as `(name, value)` pairs.
//! * [`MetricsSnapshot`] — a point-in-time copy of the registry that renders
//!   to Prometheus text exposition format.
//! * [`Span`] / [`SpanCollector`] / [`SpanGuard`] — per-query span trees
//!   (phase hierarchy with wall-clock extents and attrs) shipped inside
//!   [`QueryRecord`]s. A guard is also the stopwatch of the phase it spans
//!   (*off* / *timed* / *recording*, see [`SpanGuard`]); children hang off a
//!   `Copy` [`SpanParent`] handle.
//! * [`serve`] — a std-only blocking HTTP server exposing
//!   `/metrics`, `/healthz` and `/debug/traces` + `/debug/slow`,
//!   plus mountable prefix handlers for debug endpoints
//!   (`/debug/shards`, `/debug/explain/<trace_id>`).
//! * [`next_trace_id`] — distributed-trace propagation: a router mints a
//!   process-unique trace id at its routing decision and threads it, with
//!   its [`SpanParent`], through delegation and scatter batches, so every
//!   stage records into the one collector of the query.
//! * [`clock`] — the counted monotonic clock every instrumented code path
//!   reads through, making the zero-clock-read disabled-path contract
//!   test-enforceable.
//!
//! # Consistency model
//!
//! Every metric is updated with `Ordering::Relaxed` atomics: each individual
//! counter, gauge, bucket and sum is exact, but a snapshot taken while
//! writers are active may observe *different* metrics at slightly different
//! instants. The two exceptions are deliberate:
//!
//! * a [`PairedCounter`] packs its hit and miss counts into one `AtomicU64`
//!   (32 bits each), so the `(hits, misses)` tuple read by
//!   [`PairedCounter::get`] always corresponds to one single program state —
//!   `hits + misses` is exactly the number of lookups issued before the
//!   load;
//! * a [`Histogram`] snapshot reads `count` last, so `count` is always ≥ the
//!   sum of the bucket counts read before it (never the reverse).
//!
//! Snapshots of a *quiescent* registry (no concurrent writers) are exact.
//!
//! # Overhead
//!
//! Disabled instrumentation must cost nothing: every consumer in this
//! workspace gates metric updates on an `Option` that is `None` by default,
//! so the disabled path executes zero atomic operations and zero clock
//! reads. Enabled, the per-query cost is a handful of relaxed atomic
//! read-modify-writes and ten clock reads — one [`SpanGuard`] around the
//! query and one per phase, whether or not the trace ring keeps the tree;
//! only sampled per-pair detail adds two per pair. See DESIGN.md §5d for
//! the budget and the test that pins it.

#![warn(missing_docs)]

pub mod admission;
pub mod clock;
pub mod export;
mod histogram;
mod registry;
mod ring;
pub mod serve;
mod span;
mod trace;

pub use admission::{Admission, AdmissionGate, AdmissionPermit};
pub use export::MetricsSnapshot;
pub use histogram::{Histogram, HistogramSnapshot, DEFAULT_TIME_BOUNDS, FINE_TIME_BOUNDS};
pub use registry::{Counter, Gauge, MetricsRegistry, PairedCounter, SnapshotEntry, SnapshotValue};
pub use ring::TraceRing;
pub use serve::{Health, MetricsServer, ServeState};
pub use span::{next_trace_id, AttrValue, Span, SpanCollector, SpanGuard, SpanParent, SpanSampler};
pub use trace::{QueryRecord, RouteExplanation};
