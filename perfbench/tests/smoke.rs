//! Determinism of the input generator, and the whole command end to end at
//! smoke scale: every declared metric is printed and recorded, the contract
//! line has the shape the driver parses, and `bench-diff` gates on it.

use hris_perfbench::spec::BenchSpec;
use hris_perfbench::workload::{generate, query_set_checksum, Scale, MIN_ROUNDS, WORKLOADS};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

#[test]
fn same_seed_same_queries_other_seed_other_queries() {
    for spec in &WORKLOADS {
        let sum =
            |seed| query_set_checksum(&generate(spec, seed, MIN_ROUNDS, Scale::Smoke).queries);
        assert_eq!(sum(5), sum(5), "{}: same seed must repeat", spec.name);
        assert_ne!(sum(5), sum(6), "{}: another seed must differ", spec.name);
        // Set-up answers the same warm-up queries whatever the seed.
        let warm =
            |seed| query_set_checksum(&generate(spec, seed, MIN_ROUNDS, Scale::Smoke).warmup);
        assert_eq!(
            warm(5),
            warm(6),
            "{}: warm-up is part of the world",
            spec.name
        );
    }
}

#[test]
fn smoke_run_reports_every_metric_and_bench_diff_gates_on_it() {
    let spec = BenchSpec::load();
    let out = scratch("smoke");
    let run = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["run", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("bench runs");
    assert!(
        run.status.success(),
        "bench run --smoke failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    let results = out.join("results.json");
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(&results).expect("results.json written"))
            .expect("results.json parses");
    for key in ["nproc", "threads_used", "seed", "rustc", "commit"] {
        assert!(!doc[key].is_null(), "results.json records `{key}`");
    }
    assert_eq!(doc["correct"], true);
    let workloads = doc["workloads"].as_array().expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for w in workloads {
        let name = w["name"].as_str().expect("workload name");
        assert_eq!(w["failed"], 0, "{name}: no operation may fail");
        for (section, declared) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            let rows = w[section].as_array().expect("metric rows");
            for m in declared {
                let row = rows
                    .iter()
                    .find(|r| r["name"] == m.name.as_str())
                    .unwrap_or_else(|| panic!("{name}: `{}` recorded", m.name));
                assert_eq!(row["unit"], m.unit.as_str());
                assert!(row["value"].as_f64().is_some());
                assert!(
                    stdout.contains(&m.name),
                    "{name}: `{}` printed by name",
                    m.name
                );
            }
        }
        assert!(
            out.join(format!("trace_{name}.json")).is_file(),
            "{name}: trace file written"
        );
    }

    // The layers separate even at smoke scale where they are fed at all.
    let layer = |workload: &str, metric: &str| -> f64 {
        workloads
            .iter()
            .find(|w| w["name"] == workload)
            .and_then(|w| w["per_layer"].as_array())
            .and_then(|rows| rows.iter().find(|r| r["name"] == metric))
            .and_then(|r| r["value"].as_f64())
            .expect("layer metric")
    };
    assert!(layer("sharded_1min", "router.scatter_frac") > 0.0);
    assert_eq!(layer("sharded_1min", "router.identity_mismatches"), 0.0);
    assert!(layer("ingest_live", "traj.ingest.epochs") > 0.0);
    assert_eq!(layer("dense_3min", "router.scatter_frac"), 0.0);

    // A file agrees with itself; halve one throughput and it no longer does.
    let diff = |a: &Path, b: &Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
            .args([a, b])
            .output()
            .expect("bench-diff runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    assert_eq!(diff(&results, &results).0, Some(0));
    let text = std::fs::read_to_string(&results).unwrap();
    let qps = workloads[0]["end_to_end"]
        .as_array()
        .and_then(|rows| rows.iter().find(|r| r["name"] == "qps"))
        .and_then(|r| r["value"].as_f64())
        .expect("qps");
    let needle = format!("\"value\": {qps}");
    assert!(text.contains(&needle));
    let variant = |file: &str, text: &str, factor: f64| {
        let path = out.join(file);
        let scaled = format!("\"value\": {}", qps * factor);
        std::fs::write(&path, text.replacen(&needle, &scaled, 1)).unwrap();
        path
    };
    let (code, table) = diff(&results, &variant("half.json", &text, 0.5));
    assert_eq!(code, Some(1));
    assert!(table.contains("REGRESSION"));

    // Recorded spreads above the bound (0.30 against 0.25) must not hide a
    // loss of two thirds; they do make a loss of 28 % unresolved.
    let noisy = text.replace("\"spread\": null", "\"spread\": 0.3");
    assert_ne!(noisy, text, "single runs record a null spread");
    let base = variant("noisy.json", &noisy, 1.0);
    let (code, table) = diff(&base, &variant("noisy_third.json", &noisy, 1.0 / 3.0));
    assert_eq!(code, Some(1), "{table}");
    assert!(table.contains("REGRESSION"));
    let (code, table) = diff(&base, &variant("noisy_72.json", &noisy, 0.72));
    assert_eq!(code, Some(0), "{table}");
    assert!(table.contains("unresolved") && !table.contains("REGRESSION"));

    // A row that A has and B lacks is not a clean comparison.
    let partial = out.join("partial.json");
    std::fs::write(
        &partial,
        text.replacen("\"name\": \"qps\"", "\"name\": \"gone\"", 1),
    )
    .unwrap();
    let (code, table) = diff(&results, &partial);
    assert_eq!(code, Some(1), "{table}");
    assert!(table.contains("MISSING in B"));
}

#[test]
fn contract_line_is_last_and_has_exactly_the_declared_metrics() {
    let spec = BenchSpec::load();
    let out = scratch("contract");
    for (trace, declared) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
        let run = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(["run", "--smoke", "--workload", "sparse_9min", "--seed", "3"])
            .args(["--seconds", "0.3", "--trace", trace, "--out"])
            .arg(&out)
            .output()
            .expect("bench runs");
        assert!(run.status.success());
        let stdout = String::from_utf8_lossy(&run.stdout);
        let last = stdout.lines().last().expect("output");
        let line: Value = serde_json::from_str(last).expect("last line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line["correct"], true);
        assert!(line["attempted"].as_u64().unwrap() >= 1);
        assert_eq!(line["failed"], 0);
        let metrics = line["metrics"].as_obj().expect("metrics object");
        assert_eq!(metrics.len(), declared.len());
        for m in declared {
            let got = &line["metrics"][m.name.as_str()];
            assert_eq!(got["unit"], m.unit.as_str(), "{}", m.name);
            assert!(got["value"].as_f64().is_some(), "{}", m.name);
        }
    }
}
