//! S3 — golden snapshot of the Prometheus text export.
//!
//! The workload below is fully scripted (no clocks, no randomness), so the
//! export is byte-deterministic. The golden file pins the exposition
//! format itself — family headers, label ordering, cumulative buckets,
//! paired counter expansion, float spellings — so any accidental format
//! drift shows up as a one-line diff here rather than as a broken scrape
//! downstream.
//!
//! To regenerate after an *intentional* format change:
//! `BLESS=1 cargo test -p hris-obs --test golden_prometheus` and commit the
//! rewritten `golden_prometheus.txt`.

use hris_obs::{MetricsRegistry, PairedCounter};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_prometheus.txt");

/// The engine's metric families, driven with fixed values.
fn scripted_registry() -> MetricsRegistry {
    let r = MetricsRegistry::new();

    r.counter("hris_engine_queries_total", "Queries served.")
        .add(7);
    r.counter("hris_engine_batches_total", "Batches served.")
        .add(2);
    r.counter(
        "hris_engine_slow_queries_total",
        "Queries slower than the configured slow-query threshold.",
    )
    .add(1);

    // Robustness counters: engine repair/degradation ladder plus the
    // tolerant loader's quarantine accounting.
    r.counter(
        "hris_engine_repaired_total",
        "Queries whose input needed sanitization before answering.",
    )
    .add(3);
    r.counter(
        "hris_engine_degraded_total",
        "Repaired queries that also needed the degradation chain.",
    )
    .add(1);
    r.counter(
        "hris_engine_rejected_total",
        "Queries rejected because no usable input remained.",
    )
    .add(2);
    r.counter(
        "hris_engine_points_dropped_total",
        "Query points discarded by input sanitization.",
    )
    .add(4);
    r.counter(
        "hris_records_quarantined_total",
        "Archive trajectories dropped entirely by tolerant loading.",
    )
    .add(2);
    r.counter(
        "hris_points_quarantined_total",
        "Archive points dropped by tolerant-loading repair rules.",
    )
    .add(9);

    let g = r.gauge(
        "hris_engine_queue_depth",
        "Queries of the current batch not yet picked up by a worker.",
    );
    g.set(3);
    g.add(-3);
    r.gauge(
        "hris_engine_workers_busy",
        "Workers currently inside a query.",
    )
    .set(0);

    let bounds = [0.001, 0.01, 0.1, 1.0];
    for (phase, obs) in [
        ("candidates", vec![0.0005, 0.002]),
        ("local", vec![0.02, 0.05, 0.2]),
        ("global", vec![0.004]),
        ("refine", vec![0.0001]),
    ] {
        let h = r.histogram_with_labels(
            "hris_engine_phase_seconds",
            "Wall seconds per pipeline phase, per query.",
            &bounds,
            &[("phase", phase)],
        );
        for v in obs {
            h.observe(v);
        }
    }
    let q = r.histogram(
        "hris_engine_query_seconds",
        "End-to-end wall seconds per query.",
        &bounds,
    );
    q.observe(0.03);
    q.observe(0.3);
    q.observe(3.0);

    let sp = r.register_paired(
        "hris_sp_oracle",
        "Shortest-path oracle probes (hit = answered from precomputed state).",
        PairedCounter::new(),
    );
    for _ in 0..5 {
        sp.hit();
    }
    sp.miss();
    r
}

#[test]
fn prometheus_export_matches_golden() {
    let got = scripted_registry().snapshot().to_prometheus();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with BLESS=1 to generate it");
    assert!(
        got == want,
        "Prometheus export drifted from golden.\n--- got ---\n{got}\n--- want ---\n{want}"
    );
}

#[test]
fn scripted_workload_is_deterministic() {
    // The golden test is only meaningful if two runs of the script agree.
    let a = scripted_registry().snapshot();
    let b = scripted_registry().snapshot();
    assert_eq!(a.to_prometheus(), b.to_prometheus());
}
