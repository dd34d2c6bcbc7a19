//! Replay-driven load generation and the sustained soak harness.
//!
//! ROADMAP item 2's serving half: prove the engine *survives* heavy
//! traffic, not just serves it. Three pieces:
//!
//! * [`run_replay`] — an open-loop load generator. Arrival times are
//!   precomputed (`t_i = i / qps`) and a worker pool much larger than the
//!   admission gate's capacity fires them on schedule, so — unlike a
//!   closed loop — arrivals do **not** slow down when the engine does.
//!   That is what makes overload reachable at all: a closed loop
//!   self-throttles and can never demonstrate shedding.
//! * [`run_soak`] — warm → overload → recover against a live
//!   [`EngineHandle`] with its real telemetry server: asserts nonzero
//!   shed accounting under overload, a bounded waiting room (the
//!   high-watermark never exceeds the configured depth), `/healthz`
//!   flipping 503 under pressure and back to 200 once the backlog
//!   drains, and bounded resident-memory growth.
//! * [`resident_memory_bytes`] — `/proc/self/statm` resident set, the
//!   number the memory-growth assertion is based on (Linux only; `None`
//!   elsewhere).
//!
//! The harness exercises the same entrypoints production traffic would:
//! [`EngineHandle::infer_query`] behind the admission gate, and the HTTP
//! endpoints from `EngineHandle::serve_metrics`.

use hris::{EngineHandle, QueryOutcome, RejectReason};
use hris_traj::Trajectory;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one open-loop replay run.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Offered load, queries per second (arrival schedule `t_i = i / qps`).
    pub offered_qps: f64,
    /// How long to keep offering load, seconds.
    pub duration_s: f64,
    /// Worker threads firing arrivals. Must exceed the admission gate's
    /// `max_inflight + max_queued` for the run to reach the shed path;
    /// the soak harness sizes this automatically.
    pub workers: usize,
    /// Top-K requested per query.
    pub k: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            offered_qps: 50.0,
            duration_s: 2.0,
            workers: 8,
            k: 2,
        }
    }
}

/// Outcome tallies and latency summary of one replay run.
///
/// `ok + repaired + degraded + rejected == offered` (every arrival gets
/// exactly one outcome); `shed <= rejected` (a shed is one kind of
/// rejection).
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Arrivals fired.
    pub offered: usize,
    /// Queries answered `Ok`.
    pub ok: usize,
    /// Queries answered after input repair.
    pub repaired: usize,
    /// Queries answered through the degradation chain.
    pub degraded: usize,
    /// Queries rejected (all reasons, sheds included).
    pub rejected: usize,
    /// Queries shed by admission control (`Rejected{Overloaded}`).
    pub shed: usize,
    /// Wall time of the run, seconds.
    pub wall_s: f64,
    /// Completed arrivals per wall second.
    pub achieved_qps: f64,
    /// Mean per-query wall milliseconds (admitted and shed alike).
    pub mean_latency_ms: f64,
    /// Slowest single query, milliseconds.
    pub max_latency_ms: f64,
}

/// Drives `fire` with open-loop arrivals at `cfg.offered_qps` for
/// `cfg.duration_s`, cycling through `queries`. Returns the outcome
/// tallies. Generic over the serving front so the same generator drives
/// an [`EngineHandle`], a sharded router, or a stub in tests.
pub fn run_replay<F>(queries: &[Trajectory], cfg: &ReplayConfig, fire: F) -> ReplayReport
where
    F: Fn(&Trajectory) -> QueryOutcome + Send + Sync,
{
    assert!(!queries.is_empty(), "replay needs at least one query");
    assert!(cfg.offered_qps > 0.0, "replay needs a positive rate");
    let total = (cfg.offered_qps * cfg.duration_s).ceil() as usize;
    let interval = Duration::from_secs_f64(1.0 / cfg.offered_qps);
    let next = AtomicUsize::new(0);
    let start = Instant::now();

    struct Tally {
        ok: usize,
        repaired: usize,
        degraded: usize,
        rejected: usize,
        shed: usize,
        lat_sum_ms: f64,
        lat_max_ms: f64,
    }
    let tally = std::sync::Mutex::new(Tally {
        ok: 0,
        repaired: 0,
        degraded: 0,
        rejected: 0,
        shed: 0,
        lat_sum_ms: 0.0,
        lat_max_ms: 0.0,
    });

    std::thread::scope(|s| {
        for _ in 0..cfg.workers.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    return;
                }
                // Open-loop: fire at the scheduled instant, not when the
                // previous query finished.
                let due = interval * i as u32;
                let now = start.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t0 = Instant::now();
                let outcome = fire(&queries[i % queries.len()]);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let mut t = tally.lock().expect("replay tally");
                t.lat_sum_ms += ms;
                t.lat_max_ms = t.lat_max_ms.max(ms);
                match outcome {
                    QueryOutcome::Ok => t.ok += 1,
                    QueryOutcome::Repaired { .. } => t.repaired += 1,
                    QueryOutcome::Degraded { .. } => t.degraded += 1,
                    QueryOutcome::Rejected { reason } => {
                        t.rejected += 1;
                        if reason == RejectReason::Overloaded {
                            t.shed += 1;
                        }
                    }
                }
            });
        }
    });

    let wall_s = start.elapsed().as_secs_f64();
    let t = tally.into_inner().expect("replay tally");
    ReplayReport {
        offered: total,
        ok: t.ok,
        repaired: t.repaired,
        degraded: t.degraded,
        rejected: t.rejected,
        shed: t.shed,
        wall_s,
        achieved_qps: total as f64 / wall_s,
        mean_latency_ms: if total == 0 {
            0.0
        } else {
            t.lat_sum_ms / total as f64
        },
        max_latency_ms: t.lat_max_ms,
    }
}

/// Resident set size of this process in bytes, from `/proc/self/statm`.
/// `None` on platforms without procfs.
#[must_use]
pub fn resident_memory_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

/// Minimal HTTP/1.1 GET against a local endpoint; returns
/// `(status, body)`. The soak harness polls the engine's real `/healthz`
/// with this instead of peeking at internal state.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    let mut buf = String::new();
    stream.read_to_string(&mut buf)?;
    let status = buf
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = buf
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Configuration of the warm → overload → recover soak.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Offered load during the warm phase, qps.
    pub warm_qps: f64,
    /// Warm-phase length, seconds.
    pub warm_s: f64,
    /// Offered load during the overload burst, qps. Should be far above
    /// the engine's capacity so the waiting room saturates.
    pub overload_qps: f64,
    /// Overload-burst length, seconds.
    pub overload_s: f64,
    /// How long to wait for `/healthz` to recover after the burst.
    pub recover_timeout_s: f64,
    /// Top-K per query.
    pub k: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            warm_qps: 20.0,
            warm_s: 1.0,
            overload_qps: 400.0,
            overload_s: 2.0,
            recover_timeout_s: 10.0,
            k: 2,
        }
    }
}

/// What the soak observed. See [`run_soak`] for the pass criteria.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Warm-phase replay tallies.
    pub warm: ReplayReport,
    /// Overload-phase replay tallies.
    pub overload: ReplayReport,
    /// Gate shed counter after the run.
    pub shed_total: u64,
    /// Highest waiting-room occupancy observed (bounded by construction).
    pub queued_high_watermark: u64,
    /// The configured waiting-room bound, for the report's own record.
    pub max_queued: u64,
    /// `true` if `/healthz` returned 503 at least once during overload.
    pub saw_unhealthy_under_overload: bool,
    /// Seconds from end of burst until `/healthz` returned 200 again.
    pub recovery_s: Option<f64>,
    /// Resident bytes before the warm phase (`None` off-Linux).
    pub resident_before: Option<u64>,
    /// Resident bytes after recovery.
    pub resident_after: Option<u64>,
}

/// Runs the full soak against `handle`, which must have observability
/// **and** admission control enabled (the harness serves its telemetry
/// over HTTP and drives the gate to saturation).
///
/// Phases: a warm replay at `warm_qps`, an overload burst at
/// `overload_qps` with a worker pool sized past the gate's total
/// capacity (polling `/healthz` throughout, expecting to catch a 503),
/// then a recovery wait polling `/healthz` until it reports 200 again.
///
/// # Panics
/// If the handle has no admission gate or telemetry cannot be served —
/// both are harness misconfiguration, not load behaviour.
pub fn run_soak(
    handle: &Arc<EngineHandle>,
    queries: &[Trajectory],
    cfg: &SoakConfig,
) -> SoakReport {
    let gate = handle
        .admission_gate()
        .expect("soak requires admission control enabled")
        .clone();
    let server = handle
        .serve_metrics("127.0.0.1:0")
        .expect("soak requires observability enabled");
    let addr = server.addr();

    let resident_before = resident_memory_bytes();

    // Phase 1 — warm.
    let warm = run_replay(
        queries,
        &ReplayConfig {
            offered_qps: cfg.warm_qps,
            duration_s: cfg.warm_s,
            workers: gate.max_inflight().max(2),
            k: cfg.k,
        },
        |q| handle.infer_query(q, cfg.k).outcome,
    );

    // Phase 2 — overload, with a health poller racing the burst.
    let overload_workers = gate.max_inflight() + gate.max_queued() + 8;
    let stop_polling = std::sync::atomic::AtomicBool::new(false);
    let mut saw_unhealthy = false;
    let mut overload = ReplayReport::default();
    std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut saw = false;
            while !stop_polling.load(Ordering::Relaxed) {
                if let Ok((status, _)) = http_get(addr, "/healthz") {
                    saw |= status == 503;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            saw
        });
        overload = run_replay(
            queries,
            &ReplayConfig {
                offered_qps: cfg.overload_qps,
                duration_s: cfg.overload_s,
                workers: overload_workers,
                k: cfg.k,
            },
            |q| handle.infer_query(q, cfg.k).outcome,
        );
        stop_polling.store(true, Ordering::Relaxed);
        saw_unhealthy = poller.join().expect("health poller");
    });

    // Phase 3 — recovery: no load; poll until /healthz says 200.
    let t0 = Instant::now();
    let deadline = Duration::from_secs_f64(cfg.recover_timeout_s);
    let mut recovery_s = None;
    while t0.elapsed() < deadline {
        if let Ok((status, _)) = http_get(addr, "/healthz") {
            if status == 200 {
                recovery_s = Some(t0.elapsed().as_secs_f64());
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let resident_after = resident_memory_bytes();
    SoakReport {
        warm,
        overload,
        shed_total: gate.shed_total(),
        queued_high_watermark: gate.queued_high_watermark(),
        max_queued: gate.max_queued() as u64,
        saw_unhealthy_under_overload: saw_unhealthy,
        recovery_s,
        resident_before,
        resident_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn dummy_query() -> Trajectory {
        use hris_geo::Point;
        use hris_traj::{GpsPoint, TrajId};
        Trajectory::new(
            TrajId(0),
            (0..3)
                .map(|i| GpsPoint::new(Point::new(f64::from(i) * 100.0, 0.0), f64::from(i) * 30.0))
                .collect(),
        )
    }

    #[test]
    fn replay_offers_the_scheduled_load() {
        let fired = AtomicUsize::new(0);
        let queries = vec![dummy_query()];
        let report = run_replay(
            &queries,
            &ReplayConfig {
                offered_qps: 200.0,
                duration_s: 0.25,
                workers: 4,
                k: 1,
            },
            |_| {
                fired.fetch_add(1, Ordering::Relaxed);
                QueryOutcome::Ok
            },
        );
        assert_eq!(report.offered, 50);
        assert_eq!(fired.load(Ordering::Relaxed), 50);
        assert_eq!(report.ok, 50);
        assert_eq!(report.shed, 0);
        // Open-loop: the run takes at least the scheduled duration.
        assert!(report.wall_s >= 0.2, "wall {}", report.wall_s);
    }

    #[test]
    fn replay_partitions_outcomes() {
        let n = AtomicUsize::new(0);
        let queries = vec![dummy_query()];
        let report = run_replay(
            &queries,
            &ReplayConfig {
                offered_qps: 1000.0,
                duration_s: 0.1,
                workers: 4,
                k: 1,
            },
            |_| {
                // Every third query sheds, the rest answer.
                if n.fetch_add(1, Ordering::Relaxed).is_multiple_of(3) {
                    QueryOutcome::Rejected {
                        reason: RejectReason::Overloaded,
                    }
                } else {
                    QueryOutcome::Ok
                }
            },
        );
        assert_eq!(
            report.ok + report.repaired + report.degraded + report.rejected,
            report.offered
        );
        assert_eq!(report.shed, report.rejected);
        let shed_rate = report.shed as f64 / report.offered as f64;
        assert!(shed_rate > 0.2 && shed_rate < 0.5);
    }

    #[test]
    fn resident_memory_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = resident_memory_bytes().expect("procfs available");
            assert!(rss > 0);
        }
    }
}
