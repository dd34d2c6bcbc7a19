//! Load-shed behaviour of [`EngineHandle`] admission control: a full
//! waiting room turns into `Rejected { Overloaded }` (never a queue that
//! grows without bound), shed queries land in the SLO burn partition
//! exactly once, the `hris_admission_*` gauges drain back to zero after
//! the burst, and `/healthz` degrades to 503 while the gate is saturated
//! and recovers on its own.

use hris::{EngineConfig, EngineHandle, HrisParams, QueryOutcome, RejectReason};
use hris_obs::{Admission, MetricsRegistry};
use hris_roadnet::{generator, NetworkConfig, RoadNetwork};
use hris_traj::{ArchiveSnapshot, GpsPoint, TrajId, Trajectory, TrajectoryArchive};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn net() -> Arc<RoadNetwork> {
    Arc::new(generator::generate(&NetworkConfig::small(5)))
}

fn query(x0: f64) -> Trajectory {
    Trajectory::new(
        TrajId(0),
        (0..4)
            .map(|k| {
                GpsPoint::new(
                    hris_geo::Point::new(x0 + k as f64 * 400.0, 120.0),
                    k as f64 * 120.0,
                )
            })
            .collect(),
    )
}

fn handle_with_gate(
    max_inflight: usize,
    max_queued: usize,
) -> (Arc<EngineHandle>, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = EngineConfig::builder()
        .observability(true)
        .admission(max_inflight, max_queued)
        .build()
        .unwrap();
    let handle = Arc::new(EngineHandle::from_snapshot_with_registry(
        net(),
        Arc::new(ArchiveSnapshot::new(0, TrajectoryArchive::empty())),
        HrisParams::default(),
        cfg,
        Arc::clone(&registry),
    ));
    (handle, registry)
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn full_waiting_room_sheds_with_overloaded() {
    let (handle, registry) = handle_with_gate(1, 0);
    let gate = handle.admission_gate().expect("gate configured");

    // Occupy the only execution slot out-of-band; with a zero-size waiting
    // room the next query must shed immediately rather than block.
    let permit = match gate.admit() {
        Admission::Admitted(p) => p,
        Admission::Shed => panic!("idle gate must admit"),
    };
    let shed = handle.infer_query(&query(0.0), 2);
    assert!(
        matches!(
            shed.outcome,
            QueryOutcome::Rejected {
                reason: RejectReason::Overloaded
            }
        ),
        "expected Overloaded rejection, got {:?}",
        shed.outcome
    );
    assert!(shed.globals.is_empty());

    let snap = registry.snapshot();
    assert_eq!(snap.counter("hris_engine_shed_total"), Some(1));
    assert_eq!(snap.counter("hris_engine_rejected_total"), Some(1));

    // Slot freed: the same query is admitted and runs to completion.
    drop(permit);
    let ok = handle.infer_query(&query(0.0), 2);
    assert!(
        !matches!(
            ok.outcome,
            QueryOutcome::Rejected {
                reason: RejectReason::Overloaded
            }
        ),
        "query after permit release must not shed, got {:?}",
        ok.outcome
    );
    assert_eq!(
        registry.snapshot().counter("hris_engine_shed_total"),
        Some(1)
    );
}

#[test]
fn shed_queries_partition_into_slo_burn_exactly() {
    let (handle, registry) = handle_with_gate(1, 0);
    let gate = handle.admission_gate().unwrap();

    // A mix of served and shed traffic.
    for i in 0..3 {
        let _ = handle.infer_query(&query(i as f64 * 50.0), 2);
    }
    let permit = match gate.admit() {
        Admission::Admitted(p) => p,
        Admission::Shed => panic!("idle gate must admit"),
    };
    for _ in 0..4 {
        let _ = handle.infer_query(&query(0.0), 2);
    }
    drop(permit);

    let snap = registry.snapshot();
    let queries = snap.counter("hris_engine_queries_total").unwrap();
    let good = snap.counter("hris_engine_slo_good_total").unwrap();
    let breach = snap.counter("hris_engine_slo_breach_total").unwrap();
    let shed = snap.counter("hris_engine_shed_total").unwrap();
    assert_eq!(queries, 7);
    assert_eq!(shed, 4);
    // Every counted query lands in exactly one SLO bucket; sheds burn.
    assert_eq!(good + breach, queries, "SLO partition must be exact");
    assert!(breach >= shed, "every shed query must count as SLO burn");
}

#[test]
fn shed_batch_rejects_and_counts_every_query() {
    let (handle, registry) = handle_with_gate(1, 0);
    let gate = handle.admission_gate().unwrap();
    let permit = match gate.admit() {
        Admission::Admitted(p) => p,
        Admission::Shed => panic!("idle gate must admit"),
    };
    let queries: Vec<Trajectory> = (0..3).map(|i| query(i as f64 * 40.0)).collect();
    let results = handle.infer_batch_detailed(&queries, 2);
    drop(permit);
    assert_eq!(results.len(), 3);
    for r in &results {
        assert!(matches!(
            r.outcome,
            QueryOutcome::Rejected {
                reason: RejectReason::Overloaded
            }
        ));
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("hris_engine_shed_total"), Some(3));
    assert_eq!(snap.counter("hris_engine_queries_total"), Some(3));
}

#[test]
fn admission_gauges_report_pressure_and_drain_to_zero() {
    let (handle, _registry) = handle_with_gate(1, 2);
    let gate = handle.admission_gate().unwrap();
    let server = handle.serve_metrics("127.0.0.1:0").expect("serve");
    let addr = server.addr();

    // Idle: gauges scrape as zero and /healthz is green.
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("hris_admission_inflight 0"), "{body}");
    assert!(body.contains("hris_admission_queued 0"), "{body}");
    assert!(body.contains("hris_engine_shed_total 0"), "{body}");
    assert_eq!(http_get(addr, "/healthz").0, 200);

    // Saturate: slot taken + waiting room filled by parked threads.
    let permit = match gate.admit() {
        Admission::Admitted(p) => p,
        Admission::Shed => panic!("idle gate must admit"),
    };
    let mut waiters = Vec::new();
    for _ in 0..2 {
        let h = Arc::clone(&handle);
        waiters.push(std::thread::spawn(move || h.infer_query(&query(0.0), 2)));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while gate.queued() < 2 {
        assert!(Instant::now() < deadline, "waiters never queued");
        std::thread::sleep(Duration::from_millis(5));
    }

    let (_, body) = http_get(addr, "/metrics");
    assert!(body.contains("hris_admission_inflight 1"), "{body}");
    assert!(body.contains("hris_admission_queued 2"), "{body}");
    assert!(
        body.contains("hris_admission_queued_high_watermark 2"),
        "{body}"
    );
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 503, "saturated gate must degrade /healthz: {body}");
    assert!(body.contains("admission_pressure"), "{body}");

    // One more query on a saturated gate sheds rather than queueing.
    let shed = handle.infer_query(&query(0.0), 2);
    assert!(matches!(
        shed.outcome,
        QueryOutcome::Rejected {
            reason: RejectReason::Overloaded
        }
    ));

    // Release and drain: waiters finish un-shed, gauges return to zero,
    // health recovers without intervention.
    drop(permit);
    for w in waiters {
        let r = w.join().unwrap();
        assert!(!matches!(
            r.outcome,
            QueryOutcome::Rejected {
                reason: RejectReason::Overloaded
            }
        ));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, body) = http_get(addr, "/metrics");
        if body.contains("hris_admission_inflight 0") && body.contains("hris_admission_queued 0") {
            break;
        }
        assert!(Instant::now() < deadline, "gauges never drained: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(http_get(addr, "/healthz").0, 200);
    assert!(gate.queued_high_watermark() >= 2);

    server.shutdown();
}

#[test]
fn config_rejects_zero_inflight_and_default_is_off() {
    let err = EngineConfig::builder().admission(0, 8).build().unwrap_err();
    assert!(err.to_string().contains("max_inflight"));

    let cfg = EngineConfig::default();
    assert!(!cfg.admission.enabled);
    let handle = EngineHandle::with_config(
        net(),
        TrajectoryArchive::empty(),
        HrisParams::default(),
        EngineConfig::builder().observability(true).build().unwrap(),
    );
    assert!(handle.admission_gate().is_none());
}
