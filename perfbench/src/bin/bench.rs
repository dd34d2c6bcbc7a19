//! `bench` — the HRIS benchmark's one command.
//!
//! ```text
//! bench run [--seed N] [--workload NAME] [--seconds S] [--repeat R]
//!           [--out DIR] [--smoke]          # every metric → results.json
//! bench run --workload NAME --seed N --seconds S --trace 0|1
//!                                          # one pass, contract line last
//! bench profile NAME [ROUNDS]              # set-up + timed loop only, for perf
//! bench --list                             # workloads and why they exist
//! ```
//!
//! `--seconds` sizes a run, it does not stop one: each workload has a fixed
//! number of rounds for a `run_seconds` run, scaled once by
//! `--seconds / run_seconds` (never below 9), and every round is executed.

use hris_perfbench::alloc::CountingAlloc;
use hris_perfbench::front::with_front;
use hris_perfbench::host::HostMeter;
use hris_perfbench::report::DETAIL_PREFIX;
use hris_perfbench::spec::BenchSpec;
use hris_perfbench::stats::{iqr_share, median, quartiles};
use hris_perfbench::workload::{self, Scale, WORLD_SEED};
use hris_perfbench::{e2e, layers, timed};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: bench run [--seed N] [--workload NAME] [--seconds S] [--repeat R] \
[--out DIR] [--smoke] [--trace 0|1] | bench profile NAME [ROUNDS] | bench --list";

/// Seconds a `--smoke` pass is sized for unless told otherwise.
const SMOKE_SECONDS: f64 = 0.5;

/// Parsed command line.
struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: Option<f64>,
    repeat: usize,
    out: PathBuf,
    smoke: bool,
    trace: Option<bool>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: WORLD_SEED,
        workload: None,
        seconds: None,
        repeat: 1,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        smoke: false,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workload" => a.workload = Some(value()?.clone()),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                a.seconds = Some(s);
            }
            "--repeat" => {
                a.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if a.repeat == 0 || a.repeat > 100 {
                    return Err("--repeat must be in 1..=100".to_string());
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--smoke" => a.smoke = true,
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some(w) = &a.workload {
        if workload::find(w).is_none() {
            return Err(format!("unknown workload `{w}` (see bench --list)"));
        }
    }
    if a.trace.is_some() && a.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(a)
}

impl Args {
    fn seconds(&self, spec: &BenchSpec) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            spec.run_seconds as f64
        })
    }
}

/// One pass over one workload, in this process.
fn single_pass(a: &Args, spec: &BenchSpec, traced: bool) -> ExitCode {
    let w = workload::find(a.workload.as_deref().expect("checked by parse")).expect("checked");
    let scale = if a.smoke { Scale::Smoke } else { Scale::Full };
    let report = if traced {
        let declared: Vec<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
        layers::run(w, a.seed, a.seconds(spec), scale, &declared, &a.out)
    } else {
        e2e::run(w, a.seed, a.seconds(spec), scale)
    };
    report.assert_declared(spec);
    report.print(spec);
    println!("{DETAIL_PREFIX}{}", report.detail().render_compact());
    println!("{}", report.contract_line(spec));
    ExitCode::SUCCESS
}

/// `bench profile NAME [ROUNDS]`: the inputs of the default seed, set-up once
/// and the timed loop, nothing else — so `perf record` sees exactly what the
/// end-to-end numbers are made of.
fn profile(args: &[String]) -> ExitCode {
    let usage = || {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("usage: bench profile <{}> [rounds]", names.join("|"));
        ExitCode::from(2)
    };
    let Some(w) = args.first().and_then(|n| workload::find(n)) else {
        return usage();
    };
    let rounds = match args.get(1).map(|r| r.parse::<usize>()) {
        None => w.rounds,
        Some(Ok(r)) if (1..=10_000).contains(&r) => r,
        Some(_) => return usage(),
    };
    let inp = workload::generate(w, WORLD_SEED, rounds, Scale::Full);
    let mut meter = HostMeter::new();
    let run = with_front(w, &inp, &mut meter, |mut served| {
        timed::run(w, &mut served, &inp)
    });
    println!(
        "{}: {} queries in {:.2} s, p50 {:.3} ms on the wall clock",
        w.name,
        run.answered,
        run.run_s,
        median(&run.wall_latencies_ms)
    );
    ExitCode::SUCCESS
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one child pass and returns its detail record.
fn child_pass(
    a: &Args,
    spec: &BenchSpec,
    workload: &str,
    seed: u64,
    traced: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds(spec).to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {}: {}\n{}",
            u8::from(traced),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(d) => detail = Some(d.to_string()),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let detail = detail.ok_or_else(|| format!("{workload}: child printed no detail line"))?;
    serde_json::from_str(&detail).map_err(|e| format!("{workload}: detail line: {e}"))
}

/// Median, quartiles and spread of one metric over the repeats.
fn summarise(name: &str, unit: &str, values: &[f64], samples: &[f64]) -> Value {
    let q = quartiles(values);
    json!({
        "name": name,
        "unit": unit,
        "value": median(values),
        "q1": q.map(|q| q[0]),
        "q3": q.map(|q| q[2]),
        "spread": iqr_share(values),
        "runs": values.len(),
        "samples": median(samples),
        "values": values.to_vec(),
    })
}

/// Groups `rows`/`extra` of several detail records by metric name.
fn merge_rows(spec: &BenchSpec, details: &[Value], keys: &[&str]) -> Vec<Value> {
    let mut names: Vec<String> = Vec::new();
    let mut cols: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    for d in details {
        for key in keys {
            for r in d[*key].as_array().map_or(&[][..], Vec::as_slice) {
                let name = r["name"].as_str().unwrap_or_default();
                let i = names.iter().position(|n| n == name).unwrap_or_else(|| {
                    names.push(name.to_string());
                    cols.push((Vec::new(), Vec::new()));
                    names.len() - 1
                });
                cols[i].0.push(r["value"].as_f64().unwrap_or(f64::NAN));
                cols[i].1.push(r["samples"].as_f64().unwrap_or(0.0));
            }
        }
    }
    names
        .iter()
        .zip(&cols)
        .map(|(n, (v, s))| {
            let unit = spec.metric(n).map_or_else(String::new, |m| m.unit);
            summarise(n, &unit, v, s)
        })
        .collect()
}

/// Every workload, one process per pass; aggregates into `results.json`.
fn orchestrate(a: &Args, spec: &BenchSpec) -> ExitCode {
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => workload::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut workloads = Vec::new();
    let mut all_correct = true;
    // What the engines fan out over: the pool of the `rayon` they link.
    let pool = rayon::current_num_threads();
    let mut threads_used = 0;
    for name in names {
        let mut untraced = Vec::new();
        for i in 0..a.repeat as u64 {
            match child_pass(a, spec, name, a.seed + i, false) {
                Ok(d) => untraced.push(d),
                Err(e) => {
                    eprintln!("bench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let traced = match child_pass(a, spec, name, a.seed, true) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("bench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let sum = |key: &str| -> i64 { untraced.iter().filter_map(|d| d[key].as_i64()).sum() };
        let correct = untraced
            .iter()
            .chain([&traced])
            .all(|d| d["correct"].as_bool() == Some(true));
        all_correct &= correct;
        let notes: Vec<Value> = untraced
            .iter()
            .chain([&traced])
            .flat_map(|d| d["notes"].as_array().cloned().unwrap_or_default())
            .collect();
        let threads = workload::find(name).expect("known").max_threads();
        threads_used = threads_used.max(threads);
        workloads.push(json!({
            "name": name,
            "threads": threads,
            "why": spec.workloads.iter().find(|(n, _)| n == name).map(|(_, w)| w.clone()),
            "correct": correct,
            "attempted": sum("attempted"),
            "failed": sum("failed"),
            "seeds": untraced.iter().map(|d| d["seed"].clone()).collect::<Vec<_>>(),
            "queries_fnv": untraced.iter().map(|d| d["queries_fnv"].clone()).collect::<Vec<_>>(),
            "answers_fnv": untraced.iter().map(|d| d["answers_fnv"].clone()).collect::<Vec<_>>(),
            "end_to_end": merge_rows(spec, &untraced, &["rows", "extra"]),
            "per_layer": merge_rows(spec, std::slice::from_ref(&traced), &["rows"]),
            "notes": notes,
        }));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = json!({
        "benchmark": "hris-perfbench",
        "seed": a.seed,
        "seconds": a.seconds(spec),
        "repeat": a.repeat,
        "smoke": a.smoke,
        "nproc": nproc,
        "engine_pool_threads": pool,
        "threads_used": threads_used,
        "rustc": tool_version("rustc", &["--version"]),
        "commit": tool_version(
            "git",
            &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
        ),
        "correct": all_correct,
        "workloads": workloads,
    });
    let path = a.out.join("results.json");
    if let Err(e) = write_file(&path, &doc.render_pretty()) {
        eprintln!("bench: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench: a check failed; see the notes in results.json");
        ExitCode::FAILURE
    }
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn main() -> ExitCode {
    let spec = BenchSpec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            for (name, why) in &spec.workloads {
                println!("{name:<14} {why}");
            }
            ExitCode::SUCCESS
        }
        Some("profile") => profile(&args[1..]),
        Some("run") => match parse(&args[1..]) {
            Ok(a) => match a.trace {
                Some(traced) => single_pass(&a, &spec, traced),
                None => orchestrate(&a, &spec),
            },
            Err(e) => {
                eprintln!("bench: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
