//! `bench-diff A.json B.json` — compares two `results.json` files with the
//! bounds the benchmark fixed, one row per (workload, metric).
//!
//! With `worse` = how much worse B's median is than A's, a row is a
//! *regression* when `worse` exceeds both the metric's bound and the larger
//! spread recorded in the two files, *unresolved* when it exceeds the bound
//! but not that spread (the runs cannot tell the two apart), and *ok*
//! otherwise. A workload or gated metric that A has and B lacks is *missing*.
//! Per-layer rows are printed for reading and never gated.
//! Exits 1 on a regression, a higher `failed_frac` or a missing row, 2 on
//! bad input.

use hris_perfbench::spec::{absolute_bound, extras, BenchSpec, MetricSpec};
use serde_json::Value;
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc["workloads"].as_array().is_none() {
        return Err(format!("{path}: not a results.json (no `workloads` list)"));
    }
    Ok(doc)
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc["workloads"]
        .as_array()?
        .iter()
        .find(|w| w["name"].as_str() == Some(name))
}

fn metric<'a>(workload: &'a Value, section: &str, name: &str) -> Option<&'a Value> {
    workload[section]
        .as_array()?
        .iter()
        .find(|m| m["name"].as_str() == Some(name))
}

/// How much worse `b` is than `a`, in the metric's unit (negative = better).
fn worse_by(m: &MetricSpec, a: f64, b: f64) -> f64 {
    if m.higher_is_better {
        a - b
    } else {
        b - a
    }
}

/// `delta` as a share of the baseline `a`.
fn share_of(delta: f64, a: f64) -> f64 {
    if a != 0.0 {
        delta / a.abs()
    } else if delta > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// What a gated row says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    /// Within the bound, but single runs: no spread to judge the bound by.
    OkNoSpread,
    /// Beyond the bound, within the recorded spread.
    Unresolved,
    Regression,
}

/// `worse`, `bound` and `spread` in the same unit (shares of the baseline,
/// or the metric's own unit for an absolute bound).
fn verdict(worse: f64, bound: f64, spread: Option<f64>) -> Verdict {
    if worse > bound.max(spread.unwrap_or(0.0)) {
        Verdict::Regression
    } else if worse > bound {
        Verdict::Unresolved
    } else if spread.is_none() {
        Verdict::OkNoSpread
    } else {
        Verdict::Ok
    }
}

fn pct(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| format!("{:+.2}%", v * 100.0))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a_path, b_path] = args.as_slice() else {
        eprintln!("usage: bench-diff A.json B.json");
        return ExitCode::from(2);
    };
    let (a_doc, b_doc) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-diff: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = BenchSpec::load();
    let gated: Vec<MetricSpec> = spec
        .end_to_end
        .iter()
        .cloned()
        .chain(extras().into_iter().filter(|m| m.bound.is_some()))
        .collect();

    let (mut regressions, mut unresolved, mut missing) = (0usize, 0usize, 0usize);
    println!(
        "{:<14} {:<42} {:>14} {:>14} {:>9} {:>10} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    for (name, _) in &spec.workloads {
        let Some(wa) = workload(&a_doc, name) else {
            continue; // nothing to hold B to
        };
        let Some(wb) = workload(&b_doc, name) else {
            missing += 1;
            println!("{name:<14} MISSING in B");
            continue;
        };
        for m in &gated {
            let Some(ra) = metric(wa, "end_to_end", &m.name) else {
                continue; // not reported on this workload (ingest-only rows)
            };
            let values = metric(wb, "end_to_end", &m.name)
                .and_then(|rb| Some((ra["value"].as_f64()?, rb["value"].as_f64()?, rb)));
            let Some((a, b, rb)) = values else {
                missing += 1;
                println!("{name:<14} {:<42} MISSING in B", m.name);
                continue;
            };
            let delta = worse_by(m, a, b);
            let spread = [ra, rb]
                .iter()
                .filter_map(|r| r["spread"].as_f64())
                .reduce(f64::max);
            let (v, bound_text) = if m.name == "failed_frac" {
                let v = if b > a {
                    Verdict::Regression
                } else {
                    Verdict::Ok
                };
                (v, "any".to_string())
            } else if let Some(abs) = absolute_bound(&m.name) {
                // The recorded spread is a share of the median.
                let v = verdict(delta, abs, spread.map(|s| s * a.abs()));
                (v, format!("{abs} abs"))
            } else {
                let bound = m.bound.expect("gated metrics carry a bound");
                (verdict(share_of(delta, a), bound, spread), pct(Some(bound)))
            };
            let text = match v {
                Verdict::Ok => "ok",
                Verdict::OkNoSpread => "ok (no spread recorded: single runs)",
                Verdict::Unresolved => {
                    unresolved += 1;
                    "unresolved (beyond the bound, within the spread)"
                }
                Verdict::Regression => {
                    regressions += 1;
                    "REGRESSION"
                }
            };
            println!(
                "{:<14} {:<42} {:>14.6} {:>14.6} {:>9} {:>10} {:>8}  {text}",
                name,
                m.name,
                a,
                b,
                pct(Some(share_of(delta, a))),
                bound_text,
                pct(spread),
            );
        }
        let same = wa["answers_fnv"] == wb["answers_fnv"] && wa["seeds"] == wb["seeds"];
        println!(
            "{:<14} {:<42} {}",
            name,
            "answers_fnv",
            if same {
                "identical"
            } else if wa["seeds"] != wb["seeds"] {
                "not comparable (different seeds)"
            } else {
                "DIFFERENT (answers changed; ingest_live records none)"
            }
        );
        for m in &spec.per_layer {
            let (Some(ra), Some(rb)) = (
                metric(wa, "per_layer", &m.name),
                metric(wb, "per_layer", &m.name),
            ) else {
                continue;
            };
            let (Some(a), Some(b)) = (ra["value"].as_f64(), rb["value"].as_f64()) else {
                continue;
            };
            if a == 0.0 && b == 0.0 {
                continue; // layer idle on this workload
            }
            println!(
                "{:<14} {:<42} {:>14.6} {:>14.6} {:>9}",
                name,
                m.name,
                a,
                b,
                pct(Some(share_of(worse_by(m, a, b), a))),
            );
        }
    }
    println!("{regressions} regression(s), {unresolved} unresolved, {missing} missing in B");
    if regressions + missing > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_loss_beyond_bound_and_spread_is_a_regression_whatever_the_spread() {
        // A third of the throughput gone, spreads of 30 % against a 25 %
        // bound: the spread must not hide it.
        assert_eq!(verdict(0.6667, 0.25, Some(0.30)), Verdict::Regression);
        assert_eq!(verdict(0.6667, 0.25, Some(0.05)), Verdict::Regression);
        assert_eq!(verdict(0.6667, 0.25, None), Verdict::Regression);
    }

    #[test]
    fn unresolved_only_between_bound_and_spread() {
        assert_eq!(verdict(0.28, 0.25, Some(0.30)), Verdict::Unresolved);
        assert_eq!(verdict(0.31, 0.25, Some(0.30)), Verdict::Regression);
        assert_eq!(verdict(0.20, 0.25, Some(0.30)), Verdict::Ok);
        assert_eq!(verdict(-0.40, 0.25, Some(0.30)), Verdict::Ok);
        assert_eq!(verdict(0.20, 0.25, None), Verdict::OkNoSpread);
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let m = |higher| MetricSpec {
            name: "m".to_string(),
            unit: "u".to_string(),
            higher_is_better: higher,
            bound: Some(0.1),
        };
        assert_eq!(worse_by(&m(true), 100.0, 80.0), 20.0);
        assert_eq!(worse_by(&m(false), 100.0, 80.0), -20.0);
        assert_eq!(share_of(20.0, 100.0), 0.2);
        assert_eq!(share_of(1.0, 0.0), f64::INFINITY);
        assert_eq!(share_of(0.0, 0.0), 0.0);
    }
}
