//! Evaluation runners: matcher/HRIS accuracy and running time over a
//! scenario's query workload.
//!
//! HRIS evaluations go through the [`QueryEngine`]: queries are resampled up
//! front, inferred as one batch (sharing the network's shortest-path oracle
//! across the whole workload), and `mean_time_s` is the
//! batch wall time divided by the query count — per-query cost as a batch
//! consumer actually pays it. Baseline matchers fan out across queries with
//! the same thread pool.

use crate::metrics::accuracy_al;
use crate::scenario::Scenario;
use hris::prelude::*;
use hris_mapmatch::MapMatcher;
use hris_obs::{MetricsSnapshot, QueryRecord, SnapshotValue};
use hris_traj::{resample_to_interval, Trajectory, TrajectoryArchive};
use rayon::prelude::*;
use serde_json::{json, Value};
use std::fmt::Write as _;
use std::time::Instant;

/// The engine's four pipeline phases, in execution order.
pub const PHASES: [&str; 4] = ["candidates", "local", "global", "refine"];

/// Aggregated outcome of one evaluation sweep cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOutcome {
    /// Mean `A_L` accuracy over queries.
    pub mean_accuracy: f64,
    /// Mean per-query wall time, seconds.
    pub mean_time_s: f64,
    /// Number of evaluated queries.
    pub queries: usize,
    /// Mean reference-point density observed by local inference (ρ, per
    /// km²); 0 for baseline matchers.
    pub mean_density: f64,
    /// Mean constrained-kNN searches per query (NNI instrumentation).
    pub mean_knn_searches: f64,
    /// Share of all inferred pairs whose NNI transit graph could not reach
    /// `q_{i+1}` (such pairs are answered by shortest-path candidates alone).
    pub nni_unreachable_frac: f64,
}

/// Evaluates a baseline map matcher at the given sampling interval.
#[must_use]
pub fn evaluate_matcher<M: MapMatcher + Sync>(
    scenario: &Scenario,
    matcher: &M,
    interval_s: f64,
) -> EvalOutcome {
    let results: Vec<(f64, f64, f64, f64)> = scenario
        .queries
        .par_iter()
        .map(|q| {
            let query = resample_to_interval(&q.dense, interval_s);
            let t0 = Instant::now();
            let matched = matcher.match_trajectory(&scenario.net, &query);
            let dt = t0.elapsed().as_secs_f64();
            let acc = matched
                .map(|m| accuracy_al(&q.truth, &m.route, &scenario.net))
                .unwrap_or(0.0);
            (acc, dt, 0.0, 0.0)
        })
        .collect();
    aggregate(&results)
}

/// What one engine batch over the scenario's workload produced.
struct BatchRun {
    /// Per-query results, in query order.
    results: Vec<QueryResult>,
    /// Wall seconds of the whole batch, measured outside the engine.
    wall_s: f64,
    /// The engine's instrumentation, when `cfg` enabled it.
    report: Option<ObsReport>,
}

/// The body every HRIS runner shares: the scenario's workload resampled to
/// `interval_s` and inferred as one top-`k` batch on a [`QueryEngine`]
/// configured by `cfg`.
fn run_batch(
    scenario: &Scenario,
    params: &HrisParams,
    interval_s: f64,
    archive: &TrajectoryArchive,
    cfg: EngineConfig,
    k: usize,
) -> BatchRun {
    let hris = Hris::new(&scenario.net, archive.clone(), params.clone());
    let engine = QueryEngine::with_config(&hris, cfg);
    let queries: Vec<Trajectory> = scenario
        .queries
        .iter()
        .map(|q| resample_to_interval(&q.dense, interval_s))
        .collect();
    let t0 = Instant::now();
    let results = engine.infer_batch_detailed(&queries, k.max(1));
    let wall_s = t0.elapsed().as_secs_f64();
    BatchRun {
        results,
        wall_s,
        report: engine.observability().map(|obs| ObsReport {
            snapshot: obs.snapshot(),
            traces: obs.traces(),
            traces_dropped: obs.dropped_traces(),
            wall_s,
        }),
    }
}

/// Top-1 accuracy, density and kNN instrumentation of a batch's results.
fn score_top1(scenario: &Scenario, run: &BatchRun) -> EvalOutcome {
    let per_query_s = run.wall_s / run.results.len().max(1) as f64;
    let results: Vec<(f64, f64, f64, f64)> = run
        .results
        .iter()
        .zip(&scenario.queries)
        .map(|(r, q)| {
            let acc = r
                .globals
                .first()
                .map(|g| accuracy_al(&q.truth, &g.route, &scenario.net))
                .unwrap_or(0.0);
            let density = mean(r.stats.iter().map(|s| s.density).filter(|d| d.is_finite()));
            let knn = r.stats.iter().map(|s| s.knn_searches).sum::<usize>() as f64;
            (acc, per_query_s, density, knn)
        })
        .collect();
    let pairs = run.results.iter().flat_map(|r| &r.stats);
    EvalOutcome {
        nni_unreachable_frac: mean(pairs.map(|s| f64::from(u8::from(s.nni_unreachable)))),
        ..aggregate(&results)
    }
}

/// Evaluates HRIS (top-1 accuracy, Section IV-C protocol) at the given
/// sampling interval under `params`, optionally over a thinned archive.
#[must_use]
pub fn evaluate_hris(
    scenario: &Scenario,
    params: &HrisParams,
    interval_s: f64,
    archive_override: Option<&TrajectoryArchive>,
) -> EvalOutcome {
    let archive = archive_override.unwrap_or(&scenario.archive);
    let cfg = EngineConfig::default();
    score_top1(
        scenario,
        &run_batch(scenario, params, interval_s, archive, cfg, params.k3),
    )
}

/// Observability artifacts of one instrumented evaluation run: the final
/// registry snapshot, the retained per-query traces, and the measured batch
/// wall time the phase sums should account for.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Registry state at the end of the run.
    pub snapshot: MetricsSnapshot,
    /// Per-query traces, oldest first (ring-bounded).
    pub traces: Vec<QueryRecord>,
    /// Traces evicted from the ring during the run.
    pub traces_dropped: u64,
    /// Wall seconds of the whole batch, measured outside the engine.
    pub wall_s: f64,
}

impl ObsReport {
    /// Summed wall seconds recorded for one pipeline phase (see [`PHASES`]).
    #[must_use]
    pub fn phase_sum(&self, phase: &str) -> f64 {
        self.snapshot
            .histogram_sum("hris_engine_phase_seconds", &[("phase", phase)])
            .unwrap_or(0.0)
    }

    /// `(phase, summed seconds)` for all four phases, in execution order.
    #[must_use]
    pub fn phase_sums(&self) -> Vec<(&'static str, f64)> {
        PHASES.iter().map(|p| (*p, self.phase_sum(p))).collect()
    }

    /// Human-readable end-of-run summary: phase budget against wall time,
    /// shortest-path oracle hit rate, slow queries and trace-ring pressure.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Observability — phase budget ==");
        let mut phase_total = 0.0;
        for (phase, s) in self.phase_sums() {
            phase_total += s;
            let pct = if self.wall_s > 0.0 {
                100.0 * s / self.wall_s
            } else {
                0.0
            };
            let _ = writeln!(out, "{phase:>12} {s:>12.4}s {pct:>6.1}%");
        }
        let _ = writeln!(
            out,
            "{:>12} {:>12.4}s {:>6.1}%  (wall {:.4}s)",
            "phases",
            phase_total,
            if self.wall_s > 0.0 {
                100.0 * phase_total / self.wall_s
            } else {
                0.0
            },
            self.wall_s
        );
        let hits = self
            .snapshot
            .counter("hris_sp_oracle_hits_total")
            .unwrap_or(0);
        let total = hits
            + self
                .snapshot
                .counter("hris_sp_oracle_misses_total")
                .unwrap_or(0);
        let _ = if total == 0 {
            writeln!(out, "   sp oracle hits {hits}/{total}")
        } else {
            let pct = 100.0 * hits as f64 / total as f64;
            writeln!(out, "   sp oracle hits {hits}/{total} ({pct:.1}%)")
        };
        let _ = writeln!(
            out,
            "   queries {}   slow {}   traces kept {} dropped {}",
            self.snapshot
                .counter("hris_engine_queries_total")
                .unwrap_or(0),
            self.snapshot
                .counter("hris_engine_slow_queries_total")
                .unwrap_or(0),
            self.traces.len(),
            self.traces_dropped
        );
        let _ = writeln!(
            out,
            "   slo good {} breach {}   span trees on {}/{} traces",
            self.snapshot
                .counter("hris_engine_slo_good_total")
                .unwrap_or(0),
            self.snapshot
                .counter("hris_engine_slo_breach_total")
                .unwrap_or(0),
            self.traces.iter().filter(|t| !t.spans.is_empty()).count(),
            self.traces.len()
        );
        out
    }

    /// The whole report as one JSON document:
    /// `{"wall_s": ..., "registry": {"metrics": [...]}, "traces": [...]}`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        json!({
            "wall_s": self.wall_s,
            "traces_dropped": self.traces_dropped,
            "registry": snapshot_value(&self.snapshot),
            "traces": Value::Arr(self.traces.iter().map(QueryRecord::to_value).collect()),
        })
    }
}

/// A registry snapshot as the `registry` object of the report files:
/// `{"metrics": [{"name", "labels", "type", ...value fields}]}`, histograms
/// with their bounds and *non-cumulative* bucket counts plus the `+Inf`
/// overflow count. (The serving surface exports Prometheus text only; this
/// is the offline document `experiments --metrics-out` writes.)
pub(crate) fn snapshot_value(snapshot: &MetricsSnapshot) -> Value {
    let metrics = snapshot
        .entries
        .iter()
        .map(|e| {
            let labels = Value::Obj(
                e.labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(v)))
                    .collect(),
            );
            match &e.value {
                SnapshotValue::Counter(v) => {
                    json!({"name": e.name, "labels": labels, "type": "counter", "value": *v})
                }
                SnapshotValue::Gauge(v) => {
                    json!({"name": e.name, "labels": labels, "type": "gauge", "value": *v})
                }
                SnapshotValue::Histogram(h) => {
                    let buckets = h
                        .bounds
                        .iter()
                        .zip(&h.counts)
                        .map(|(le, count)| json!({"le": *le, "count": *count}))
                        .collect();
                    json!({
                        "name": e.name,
                        "labels": labels,
                        "type": "histogram",
                        "buckets": Value::Arr(buckets),
                        "inf_count": h.counts[h.bounds.len()],
                        "sum": h.sum,
                        "count": h.count,
                    })
                }
            }
        })
        .collect();
    json!({"metrics": Value::Arr(metrics)})
}

/// [`evaluate_hris`] with engine instrumentation: runs the same workload on
/// an observed engine and returns the usual outcome plus an [`ObsReport`].
///
/// The instrumented engine runs queries sequentially (`batch_parallel` off,
/// [`ExecMode::Sequential`]) so the per-phase wall times sum to the batch
/// wall time on any host — the report is an attribution profile, not a
/// throughput benchmark. Results are byte-identical either way.
#[must_use]
pub fn evaluate_hris_observed(
    scenario: &Scenario,
    params: &HrisParams,
    interval_s: f64,
    archive_override: Option<&TrajectoryArchive>,
) -> (EvalOutcome, ObsReport) {
    let archive = archive_override.unwrap_or(&scenario.archive);
    let cfg = EngineConfig::builder()
        .mode(ExecMode::Sequential)
        .batch_parallel(false)
        .observability(true)
        .build()
        .expect("static engine configuration");
    let mut run = run_batch(scenario, params, interval_s, archive, cfg, params.k3);
    let report = run.report.take().expect("instrumented engine");
    (score_top1(scenario, &run), report)
}

/// Per-query top-k accuracies for Figure 14a: returns `(avg, max)` accuracy
/// over each query's top-`k` routes, averaged across queries.
#[must_use]
pub fn evaluate_hris_topk(
    scenario: &Scenario,
    params: &HrisParams,
    interval_s: f64,
    k: usize,
) -> (f64, f64) {
    let cfg = EngineConfig::default();
    let run = run_batch(scenario, params, interval_s, &scenario.archive, cfg, k);
    let results: Vec<(f64, f64)> = run
        .results
        .iter()
        .zip(&scenario.queries)
        .map(|(r, q)| {
            if r.globals.is_empty() {
                return (0.0, 0.0);
            }
            let accs: Vec<f64> = r
                .globals
                .iter()
                .map(|g| accuracy_al(&q.truth, &g.route, &scenario.net))
                .collect();
            let avg = mean(accs.iter().copied());
            let max = accs.iter().copied().fold(0.0, f64::max);
            (avg, max)
        })
        .collect();
    let avg = mean(results.iter().map(|r| r.0));
    let max = mean(results.iter().map(|r| r.1));
    (avg, max)
}

fn aggregate(results: &[(f64, f64, f64, f64)]) -> EvalOutcome {
    EvalOutcome {
        mean_accuracy: mean(results.iter().map(|r| r.0)),
        mean_time_s: mean(results.iter().map(|r| r.1)),
        queries: results.len(),
        mean_density: mean(results.iter().map(|r| r.2).filter(|d| *d > 0.0)),
        mean_knn_searches: mean(results.iter().map(|r| r.3)),
        nni_unreachable_frac: 0.0,
    }
}

fn mean<I: Iterator<Item = f64>>(iter: I) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for v in iter {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use hris_mapmatch::StMatcher;

    /// One build shared by every test of this module (each only reads it).
    fn scenario() -> &'static Scenario {
        static SHARED: std::sync::OnceLock<Scenario> = std::sync::OnceLock::new();
        SHARED.get_or_init(|| {
            let mut cfg = ScenarioConfig::quick(11);
            cfg.sim.num_trips = 250;
            cfg.num_queries = 3;
            Scenario::build(cfg)
        })
    }

    /// The `registry` object of the report files parses back, with an
    /// independent parser, to exactly the registry state.
    #[test]
    fn snapshot_json_round_trips() {
        let r = hris_obs::MetricsRegistry::new();
        r.counter("c_total", "C.").add(7);
        r.gauge("g", "G.").set(-3);
        let h = r.histogram_with_labels("h_seconds", "H.", &[0.0, 10.0], &[("phase", "x")]);
        for v in [-1.0, 2.5, 2.5, 99.0] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let parsed = serde_json::from_str(&snapshot_value(&snap).to_string()).expect("valid JSON");
        let metrics = parsed["metrics"].as_array().expect("metrics array");
        let find = |name: &str| {
            metrics
                .iter()
                .find(|m| m["name"].as_str() == Some(name))
                .unwrap_or_else(|| panic!("metric `{name}` missing"))
        };
        assert_eq!(find("c_total")["value"].as_u64(), Some(7));
        assert_eq!(find("g")["value"].as_i64(), Some(-3));
        let hj = find("h_seconds");
        assert_eq!(hj["type"].as_str(), Some("histogram"));
        assert_eq!(hj["labels"]["phase"].as_str(), Some("x"));
        let buckets = hj["buckets"].as_array().expect("buckets");
        let counts: Vec<_> = buckets.iter().map(|b| b["count"].as_u64()).collect();
        assert_eq!(counts, [Some(1), Some(2)]);
        assert_eq!(buckets[1]["le"].as_f64(), Some(10.0));
        assert_eq!(hj["inf_count"].as_u64(), Some(1));
        assert_eq!(hj["sum"].as_f64(), Some(103.0));
        assert_eq!(hj["count"].as_u64(), Some(4));
    }

    #[test]
    fn matcher_evaluation_produces_sane_numbers() {
        let s = scenario();
        let out = evaluate_matcher(s, &StMatcher::default(), 60.0);
        assert_eq!(out.queries, 3);
        assert!((0.0..=1.0).contains(&out.mean_accuracy));
        assert!(out.mean_time_s >= 0.0);
        // A 60 s interval on clean-ish data should match most of the route.
        assert!(out.mean_accuracy > 0.3, "got {}", out.mean_accuracy);
    }

    #[test]
    fn hris_evaluation_produces_sane_numbers() {
        let s = scenario();
        let out = evaluate_hris(s, &HrisParams::default(), 180.0, None);
        assert_eq!(out.queries, 3);
        assert!((0.0..=1.0).contains(&out.mean_accuracy));
        assert!(out.mean_accuracy > 0.3, "got {}", out.mean_accuracy);
    }

    #[test]
    fn topk_max_at_least_avg() {
        let s = scenario();
        let (avg, max) = evaluate_hris_topk(s, &HrisParams::default(), 180.0, 3);
        assert!(max >= avg - 1e-9);
        assert!((0.0..=1.0).contains(&max));
    }

    #[test]
    fn observed_evaluation_matches_plain_and_accounts_wall_time() {
        let s = scenario();
        let params = HrisParams::default();
        let plain = evaluate_hris(s, &params, 180.0, None);
        let (out, report) = evaluate_hris_observed(s, &params, 180.0, None);
        // Instrumentation must not move accuracy at all.
        assert!(
            (out.mean_accuracy - plain.mean_accuracy).abs() < 1e-12,
            "observed accuracy {} vs plain {}",
            out.mean_accuracy,
            plain.mean_accuracy
        );
        assert_eq!(report.traces.len(), 3);
        assert_eq!(
            report.snapshot.counter("hris_engine_queries_total"),
            Some(3)
        );
        // Sequential run: the four phases account for (nearly) all the wall.
        let phase_total: f64 = report.phase_sums().iter().map(|(_, s)| s).sum();
        assert!(
            phase_total <= report.wall_s * 1.001,
            "phases {phase_total} exceed wall {}",
            report.wall_s
        );
        assert!(
            phase_total >= report.wall_s * 0.9,
            "phases {phase_total} account for <90% of wall {}",
            report.wall_s
        );
        // The JSON report is machine-readable.
        let parsed =
            serde_json::from_str(&report.to_value().to_string()).expect("ObsReport JSON parses");
        assert!(parsed["wall_s"].as_f64().unwrap() > 0.0);
        assert_eq!(parsed["traces"].as_array().unwrap().len(), 3);
        assert!(report.summary().contains("phase budget"));
    }

    #[test]
    fn thinned_archive_evaluation_runs() {
        let s = scenario();
        let thin = s.thinned_archive(0.3);
        let out = evaluate_hris(s, &HrisParams::default(), 180.0, Some(&thin));
        assert_eq!(out.queries, 3);
    }

    #[test]
    fn engine_evaluation_matches_plain_hris() {
        // The runner's switch to the batch engine must not move accuracy at
        // all — same routes, same scores, same A_L.
        let s = scenario();
        let params = HrisParams::default();
        let hris = Hris::new(&s.net, s.archive.clone(), params.clone());
        let out = evaluate_hris(s, &params, 180.0, None);
        let direct: Vec<f64> = s
            .queries
            .iter()
            .map(|q| {
                let query = resample_to_interval(&q.dense, 180.0);
                hris.infer_routes(&query, params.k3.max(1))
                    .first()
                    .map(|r| accuracy_al(&q.truth, &r.route, &s.net))
                    .unwrap_or(0.0)
            })
            .collect();
        let want = mean(direct.into_iter());
        assert!(
            (out.mean_accuracy - want).abs() < 1e-12,
            "engine path changed accuracy: {} vs {}",
            out.mean_accuracy,
            want
        );
    }
}
