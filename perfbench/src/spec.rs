//! The metric registry: `BENCHMARK.json` at the repository root is the one
//! place that names workloads, metrics, units and bounds. It is compiled in,
//! so the binaries print, check and compare exactly what the file declares.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name (`qps`, `core.local.tgi.share`, …).
    pub name: String,
    /// Unit printed beside every value.
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen before
    /// it is a regression; `None` for per-layer metrics (not gated).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics reported by every workload (`--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (`--trace 1`).
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures for.
    pub run_seconds: u64,
}

/// Metrics reported outside `BENCHMARK.json`, which can only gate what
/// every workload reports and what is never zero: the two end-to-end
/// metrics that exist on `ingest_live` only, `failed_frac` (any increase is
/// a regression), and — informational, never gated — `gen_s`, what the host
/// did to the run (`host_slowdown`, `off_thread_frac`) and the wall-clock
/// readings beside the gated ones. `bench-diff` applies the bounds where
/// both files have the row.
#[must_use]
pub fn extras() -> Vec<MetricSpec> {
    [
        ("publish_p50_ms", "ms", Some(0.25)),
        ("ingest_lag_p90_ms", "ms", Some(0.25)),
        ("failed_frac", "ratio", Some(0.0)),
        ("gen_s", "s", None),
        ("host_slowdown", "ratio", None),
        ("off_thread_frac", "ratio", None),
        ("wall_setup_s", "s", None),
        ("wall_qps", "1/s", None),
        ("wall_latency_p50_ms", "ms", None),
        ("wall_latency_p99_ms", "ms", None),
    ]
    .into_iter()
    .map(|(name, unit, bound)| MetricSpec {
        name: name.to_string(),
        unit: unit.to_string(),
        higher_is_better: false,
        bound,
    })
    .collect()
}

/// Metrics `bench-diff` gates on an absolute difference instead of a share
/// of the baseline. `BENCHMARK.json` can only state shares, and a share wide
/// enough for the seed-to-seed spread of `accuracy_al` (3 %) would let a
/// route-quality loss of a whole point through; two `results.json` of the
/// same seeds compare the same queries, so 0.005 absolute applies there.
#[must_use]
pub fn absolute_bound(name: &str) -> Option<f64> {
    (name == "accuracy_al").then_some(0.005)
}

impl BenchSpec {
    /// The compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    /// Panics when the file does not have the expected shape — a build-time
    /// mistake, not a run-time condition.
    #[must_use]
    pub fn load() -> BenchSpec {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Value> {
            doc[key]
                .as_array()
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is a list"))
                .clone()
        };
        let text = |v: &Value, key: &str| -> String {
            v[key]
                .as_str()
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is a string"))
                .to_string()
        };
        let metric = |v: &Value| MetricSpec {
            name: text(v, "name"),
            unit: text(v, "unit"),
            higher_is_better: text(v, "better") == "higher",
            bound: v["bound"].as_f64(),
        };
        BenchSpec {
            workloads: list("workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: list("end_to_end").iter().map(metric).collect(),
            per_layer: list("per_layer").iter().map(metric).collect(),
            run_seconds: doc["run_seconds"].as_u64().expect("run_seconds"),
        }
    }

    /// Looks up any metric — end-to-end, per-layer or one of the [`extras`].
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .cloned()
            .or_else(|| extras().into_iter().find(|m| m.name == name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{MIN_ROUNDS, REFERENCE_SECONDS, WORKLOADS};

    #[test]
    fn workloads_in_the_file_are_the_workloads_in_the_code() {
        let spec = BenchSpec::load();
        let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let coded: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, coded);
        assert!(spec.workloads.iter().all(|(_, why)| !why.is_empty()));
    }

    #[test]
    fn round_counts_are_those_of_a_run_seconds_run_and_scale_once() {
        let spec = BenchSpec::load();
        assert_eq!(spec.run_seconds as f64, REFERENCE_SECONDS);
        for w in &WORKLOADS {
            assert!(w.rounds >= MIN_ROUNDS, "{}", w.name);
            assert!(w.rounds * w.round >= 1000, "{}: latency samples", w.name);
            assert_eq!(w.rounds_for(REFERENCE_SECONDS), w.rounds);
            assert_eq!(w.rounds_for(2.0 * REFERENCE_SECONDS), 2 * w.rounds);
            assert_eq!(w.rounds_for(0.1), MIN_ROUNDS);
        }
    }

    #[test]
    fn every_end_to_end_metric_is_bounded_and_setup_is_loosest() {
        let spec = BenchSpec::load();
        let setup = spec.metric("setup_s").expect("setup_s declared");
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
            assert!(b <= setup.bound.unwrap(), "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
