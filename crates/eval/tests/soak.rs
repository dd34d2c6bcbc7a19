//! Soak harness integration tests: the warm → overload → recover cycle
//! against a real engine with admission control and live telemetry.
//!
//! The quick smoke runs in a few seconds and is part of the default test
//! suite. The sustained sixty-second soak backs the CI `capacity` job and
//! the README capacity-planning numbers; run it explicitly with:
//!
//! ```text
//! cargo test -p hris-eval --test soak -- --ignored
//! ```

use hris::{EngineConfig, EngineHandle, HrisParams};
use hris_eval::{run_soak, Scenario, ScenarioConfig, SoakConfig, SoakReport};
use hris_obs::MetricsRegistry;
use hris_traj::{resample_to_interval, Trajectory};
use std::sync::Arc;

/// Engine + sparse replay queries on the quick scenario, with a
/// deliberately tiny gate so the overload phase saturates quickly.
fn soak_rig(max_inflight: usize, max_queued: usize) -> (Arc<EngineHandle>, Vec<Trajectory>) {
    let scenario = Scenario::build(ScenarioConfig::quick(23));
    let queries: Vec<Trajectory> = scenario
        .queries
        .iter()
        .map(|qc| resample_to_interval(&qc.dense, 240.0))
        .collect();
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = EngineConfig::builder()
        .observability(true)
        .admission(max_inflight, max_queued)
        .build()
        .unwrap();
    let handle = Arc::new(EngineHandle::from_snapshot_with_registry(
        Arc::new(scenario.net),
        Arc::new(hris_traj::ArchiveSnapshot::new(0, scenario.archive)),
        HrisParams::default(),
        cfg,
        registry,
    ));
    (handle, queries)
}

fn assert_soak_invariants(report: &SoakReport) {
    // Outcome partition: every offered arrival got exactly one outcome.
    for (label, phase) in [("warm", &report.warm), ("overload", &report.overload)] {
        assert_eq!(
            phase.ok + phase.repaired + phase.degraded + phase.rejected,
            phase.offered,
            "{label}: outcome partition must be exact"
        );
        assert!(phase.shed <= phase.rejected, "{label}: sheds are rejects");
    }
    // The waiting room is bounded by construction; the watermark proves
    // the bound held under pressure rather than merely being configured.
    assert!(
        report.queued_high_watermark <= report.max_queued,
        "waiting room exceeded its bound: {} > {}",
        report.queued_high_watermark,
        report.max_queued
    );
    // Shed accounting is consistent between the replay tallies (what
    // callers saw) and the gate counter (what the engine recorded).
    assert!(
        report.shed_total >= report.overload.shed as u64,
        "gate counter lost sheds: {} < {}",
        report.shed_total,
        report.overload.shed
    );
}

#[test]
fn soak_smoke_sheds_under_overload_and_recovers() {
    let (handle, queries) = soak_rig(1, 4);
    let report = run_soak(
        &handle,
        &queries,
        &SoakConfig {
            warm_qps: 10.0,
            warm_s: 0.5,
            overload_qps: 500.0,
            overload_s: 1.5,
            recover_timeout_s: 10.0,
            k: 2,
        },
    );
    assert_soak_invariants(&report);
    assert!(
        report.overload.shed > 0,
        "a 500 qps burst against a 1-slot gate must shed: {report:?}"
    );
    assert!(
        report.warm.shed == 0,
        "warm phase must not shed: {report:?}"
    );
    assert!(
        report.recovery_s.is_some(),
        "/healthz never recovered after the burst: {report:?}"
    );
}

/// The sustained soak behind the CI `capacity` job: ≥60 s of open-loop
/// replay, bounded resident-memory growth, health degradation observed
/// under overload and full recovery afterwards.
#[test]
#[ignore = "sustained 60s soak; run via: cargo test -p hris-eval --test soak -- --ignored"]
fn soak_sixty_seconds_sustained() {
    let (handle, queries) = soak_rig(2, 8);
    let report = run_soak(
        &handle,
        &queries,
        &SoakConfig {
            warm_qps: 20.0,
            warm_s: 10.0,
            overload_qps: 600.0,
            overload_s: 50.0,
            recover_timeout_s: 30.0,
            k: 2,
        },
    );
    assert_soak_invariants(&report);
    assert!(
        report.warm.wall_s + report.overload.wall_s >= 60.0,
        "soak must sustain at least 60s of offered load: {report:?}"
    );
    assert!(report.overload.shed > 0, "sustained burst must shed");
    assert!(
        report.saw_unhealthy_under_overload,
        "/healthz never reported pressure during a 50s saturating burst"
    );
    assert!(
        report.recovery_s.is_some(),
        "/healthz never recovered: {report:?}"
    );
    // Bounded memory growth: a leak proportional to ~30k queries would
    // blow well past this; steady-state serving must not accumulate.
    if let (Some(before), Some(after)) = (report.resident_before, report.resident_after) {
        let growth = after.saturating_sub(before);
        assert!(
            growth < 256 * 1024 * 1024,
            "resident set grew {growth} bytes over the soak"
        );
    }
}
