//! Dirty-data robustness pass: a seeded fault corpus through the tolerant
//! archive loader and the degraded-mode [`QueryEngine`], with all
//! quarantine/repair/degradation accounting on one shared metrics registry.
//!
//! The pass is deterministic for a fixed seed — the corpus, the load report
//! and every [`QueryOutcome`] replay identically — so its numbers can be
//! asserted in tests and diffed across runs.

use crate::scenario::Scenario;
use hris::prelude::*;
use hris_obs::{MetricsRegistry, MetricsSnapshot};
use hris_traj::{
    encode_trips, fault_corpus, resample_to_interval, FaultInjector, LoadReport,
    TolerantLoadOptions, Trajectory, TrajectoryArchive,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Outcome of one robustness pass: per-outcome and per-fault-kind counts,
/// the archive quarantine report, and the registry snapshot carrying the
/// `hris_engine_*_total` / `hris_*_quarantined_total` counters.
#[derive(Debug, Clone)]
pub struct RobustnessReport {
    /// Corrupted queries pushed through the engine.
    pub cases: usize,
    /// [`QueryOutcome::label`](hris::QueryOutcome::label) → count over the whole corpus.
    pub outcome_counts: BTreeMap<&'static str, usize>,
    /// Fault kind name → ([`QueryOutcome::label`](hris::QueryOutcome::label) → count).
    pub by_fault: BTreeMap<&'static str, BTreeMap<&'static str, usize>>,
    /// Quarantine accounting of the corrupted-archive load.
    pub load_report: LoadReport,
    /// Registry state after the pass (engine + loader counters).
    pub snapshot: MetricsSnapshot,
}

impl RobustnessReport {
    /// Count for one outcome label ("ok", "repaired", "degraded",
    /// "rejected"); 0 when the label never occurred.
    #[must_use]
    pub fn count(&self, label: &str) -> usize {
        self.outcome_counts.get(label).copied().unwrap_or(0)
    }

    /// Human-readable end-of-pass summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Robustness — fault corpus ==");
        let _ = writeln!(
            out,
            "   cases {}   ok {}   repaired {}   degraded {}   rejected {}",
            self.cases,
            self.count("ok"),
            self.count("repaired"),
            self.count("degraded"),
            self.count("rejected"),
        );
        for (kind, counts) in &self.by_fault {
            let cells: Vec<String> = counts.iter().map(|(l, n)| format!("{l} {n}")).collect();
            let _ = writeln!(out, "   {kind:>24}: {}", cells.join("  "));
        }
        let _ = writeln!(
            out,
            "   archive: loaded {} quarantined {} points quarantined {} teleports removed {}",
            self.load_report.trajectories_loaded,
            self.load_report.trajectories_quarantined,
            self.load_report.points_quarantined,
            self.load_report.teleports_removed,
        );
        out
    }

    /// The report as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let counts_obj = |m: &BTreeMap<&'static str, usize>| {
            let cells: Vec<String> = m.iter().map(|(l, n)| format!("\"{l}\":{n}")).collect();
            format!("{{{}}}", cells.join(","))
        };
        let by_fault: Vec<String> = self
            .by_fault
            .iter()
            .map(|(k, m)| format!("\"{k}\":{}", counts_obj(m)))
            .collect();
        format!(
            "{{\"cases\":{},\"outcomes\":{},\"by_fault\":{{{}}},\"load_report\":{},\"registry\":{}}}",
            self.cases,
            counts_obj(&self.outcome_counts),
            by_fault.join(","),
            self.load_report.to_json(),
            crate::runner::snapshot_json(&self.snapshot),
        )
    }
}

/// Runs the robustness pass: corrupts the scenario's query workload with
/// every fault kind, loads a truncated corrupted archive through the
/// tolerant loader, then answers the whole corpus with a degraded-mode
/// engine — loader and engine counting on the same registry.
#[must_use]
pub fn evaluate_robustness(
    scenario: &Scenario,
    params: &HrisParams,
    seed: u64,
    cases: usize,
) -> RobustnessReport {
    // Base trips: the scenario's own resampled queries — realistic on-map
    // inputs for the injector to corrupt.
    let base: Vec<Trajectory> = scenario
        .queries
        .iter()
        .map(|q| resample_to_interval(&q.dense, 180.0))
        .collect();
    let corpus = fault_corpus(seed, &base, cases);
    let registry = Arc::new(MetricsRegistry::new());

    // Archive leg: serialize the corrupted trips, truncate the blob, load it
    // tolerantly, and put the quarantine accounting on the shared registry.
    let corrupted: Vec<Trajectory> = corpus.iter().map(|(_, t)| t.clone()).collect();
    let blob = encode_trips(&corrupted);
    let cut = FaultInjector::new(seed ^ 0x9e37_79b9).truncate_blob(&blob);
    let (_salvaged, load_report) =
        TrajectoryArchive::from_bytes_tolerant(cut, &TolerantLoadOptions::default());
    load_report.record_on(&registry);

    // Query leg: the full corpus through the degraded-mode engine.
    let hris = Hris::new(&scenario.net, scenario.archive.clone(), params.clone());
    let engine = QueryEngine::with_registry(&hris, EngineConfig::default(), Arc::clone(&registry));
    let results = engine.infer_batch_detailed(&corrupted, params.k3.max(1));

    let mut outcome_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut by_fault: BTreeMap<&'static str, BTreeMap<&'static str, usize>> = BTreeMap::new();
    for ((kind, _), r) in corpus.iter().zip(&results) {
        let label = r.outcome.label();
        *outcome_counts.entry(label).or_insert(0) += 1;
        *by_fault
            .entry(kind.name())
            .or_default()
            .entry(label)
            .or_insert(0) += 1;
    }
    RobustnessReport {
        cases: results.len(),
        outcome_counts,
        by_fault,
        load_report,
        snapshot: registry.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use hris_traj::FaultKind;

    /// One build shared by every test of this module (each only reads it).
    fn scenario() -> &'static Scenario {
        static SHARED: std::sync::OnceLock<Scenario> = std::sync::OnceLock::new();
        SHARED.get_or_init(|| {
            let mut cfg = ScenarioConfig::quick(19);
            cfg.sim.num_trips = 150;
            cfg.num_queries = 3;
            Scenario::build(cfg)
        })
    }

    #[test]
    fn robustness_pass_accounts_every_case() {
        let s = scenario();
        let report = evaluate_robustness(s, &HrisParams::default(), 7, 24);
        assert_eq!(report.cases, 24);
        assert_eq!(report.outcome_counts.values().sum::<usize>(), 24);
        // 24 cases cycle all 8 fault kinds 3× each.
        assert_eq!(report.by_fault.len(), FaultKind::ALL.len());
        for counts in report.by_fault.values() {
            assert_eq!(counts.values().sum::<usize>(), 3);
        }
        // Injected empties must be rejected; injected NaNs never pass clean.
        assert!(report.count("rejected") >= 3, "{:?}", report.outcome_counts);
        assert!(
            report.count("repaired") + report.count("degraded") > 0,
            "{:?}",
            report.outcome_counts
        );
    }

    #[test]
    fn robustness_counters_land_on_the_shared_registry() {
        let s = scenario();
        let report = evaluate_robustness(s, &HrisParams::default(), 7, 24);
        let snap = &report.snapshot;
        assert_eq!(snap.counter("hris_engine_queries_total"), Some(24));
        assert!(snap.counter("hris_engine_rejected_total").unwrap_or(0) >= 3);
        assert!(snap.counter("hris_engine_repaired_total").is_some());
        assert!(snap.counter("hris_engine_degraded_total").is_some());
        assert!(snap.counter("hris_records_quarantined_total").is_some());
        // The same counters appear in the Prometheus text exposition.
        let prom = snap.to_prometheus();
        assert!(prom.contains("hris_engine_degraded_total"));
        assert!(prom.contains("hris_records_quarantined_total"));
    }

    #[test]
    fn robustness_pass_is_deterministic_and_json_parses() {
        let s = scenario();
        let a = evaluate_robustness(s, &HrisParams::default(), 7, 16);
        let b = evaluate_robustness(s, &HrisParams::default(), 7, 16);
        assert_eq!(a.outcome_counts, b.outcome_counts);
        assert_eq!(a.by_fault, b.by_fault);
        assert_eq!(a.load_report, b.load_report);
        let parsed: serde_json::Value =
            serde_json::from_str(&a.to_json()).expect("robustness JSON parses");
        assert_eq!(parsed["cases"].as_i64(), Some(16));
        assert!(parsed["registry"].get("metrics").is_some());
        assert!(a.summary().contains("fault corpus"));
    }
}
