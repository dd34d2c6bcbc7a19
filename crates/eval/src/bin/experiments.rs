//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [FIGURE ...] [--full] [--seed N] [--out DIR] [--metrics-out FILE]
//!
//! FIGURE: table2 fig8a fig8b fig9a fig9b fig10a fig10b fig11a fig11b
//!         fig12a fig12b fig13a fig13b fig14a fig14b ablation temporal
//!         freespace all   (default: all)
//! --full : paper-scale scenario (~25 km city, thousands of trips);
//!          default is the laptop-quick scenario.
//! --out  : also write each figure's CSV into DIR.
//! --metrics-out : run an instrumented pass of the base workload, print the
//!          phase/cache summary, and write the full metrics + record JSON
//!          (registry snapshot and per-query QueryRecords, each with its
//!          span tree and an explanation of every returned route) to FILE.
//! ```
//!
//! Run with `cargo run --release -p hris-eval --bin experiments -- all`.

use hris_eval::experiments as ex;
use hris_eval::scenario::{Scenario, ScenarioConfig};
use hris_eval::table::Table;
use std::collections::BTreeSet;

struct Args {
    figures: BTreeSet<String>,
    full: bool,
    seed: u64,
    out: Option<String>,
    metrics_out: Option<String>,
}

/// Every FIGURE name the runner knows, `all` included — the one list the
/// parser validates against.
const FIGURES: [&str; 19] = [
    "table2",
    "fig8a",
    "fig8b",
    "fig9a",
    "fig9b",
    "fig10a",
    "fig10b",
    "fig11a",
    "fig11b",
    "fig12a",
    "fig12b",
    "fig13a",
    "fig13b",
    "fig14a",
    "fig14b",
    "ablation",
    "temporal",
    "freespace",
    "all",
];

/// Parses the command line (program name already skipped). An argument that
/// is neither an option nor a known FIGURE is an error: it would otherwise
/// select nothing and the run would print nothing and succeed.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut figures = BTreeSet::new();
    let mut full = false;
    let mut seed = 42u64;
    let mut out = None;
    let mut metrics_out = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => full = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--out" => out = Some(it.next().expect("--out needs a directory")),
            "--metrics-out" => {
                metrics_out = Some(it.next().expect("--metrics-out needs a file path"));
            }
            figure if FIGURES.contains(&figure) => {
                figures.insert(figure.to_string());
            }
            unknown => {
                return Err(format!(
                    "unknown FIGURE or option '{unknown}'; FIGURE is one of: {}",
                    FIGURES.join(" ")
                ));
            }
        }
    }
    if figures.is_empty() {
        figures.insert("all".to_string());
    }
    Ok(Args {
        figures,
        full,
        seed,
        out,
        metrics_out,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let want = |name: &str| args.figures.contains("all") || args.figures.contains(name);

    let mut outputs: Vec<Table> = Vec::new();

    if want("table2") {
        println!("{}", ex::table2());
    }

    // Base scenario: queries around the default length.
    let needs_base = [
        "fig8a",
        "fig9a",
        "fig9b",
        "fig10a",
        "fig10b",
        "fig11a",
        "fig11b",
        "fig12a",
        "fig12b",
        "fig13a",
        "fig13b",
        "fig14a",
        "fig14b",
        "ablation",
        "freespace",
    ]
    .iter()
    .any(|f| want(f))
        || args.metrics_out.is_some();

    let base: Option<Scenario> = if needs_base {
        let cfg = if args.full {
            ScenarioConfig::full(args.seed)
        } else {
            ScenarioConfig::quick(args.seed)
        };
        eprintln!(
            "building base scenario (full={}, seed={}) ...",
            args.full, args.seed
        );
        let s = Scenario::build(cfg);
        eprintln!(
            "  net: {} nodes / {} segments; archive: {} trips / {} points; {} queries",
            s.net.num_nodes(),
            s.net.num_segments(),
            s.archive.num_trajectories(),
            s.archive.num_points(),
            s.queries.len()
        );
        Some(s)
    } else {
        None
    };

    if let Some(s) = &base {
        if want("fig8a") {
            run(&mut outputs, || ex::fig8a(s));
        }
        if want("fig9a") || want("fig9b") {
            let (a, b) = ex::fig9(s);
            report(&mut outputs, a);
            report(&mut outputs, b);
        }
        if want("fig10a") || want("fig10b") {
            let (a, b) = ex::fig10(s);
            report(&mut outputs, a);
            report(&mut outputs, b);
        }
        if want("fig11a") || want("fig11b") {
            let (a, b) = ex::fig11(s);
            report(&mut outputs, a);
            report(&mut outputs, b);
        }
        if want("fig12a") || want("fig12b") {
            let (a, b) = ex::fig12(s);
            report(&mut outputs, a);
            report(&mut outputs, b);
        }
        if want("fig13a") || want("fig13b") {
            let (a, b) = ex::fig13(s);
            report(&mut outputs, a);
            report(&mut outputs, b);
        }
        if want("fig14a") {
            run(&mut outputs, || ex::fig14a(s));
        }
        if want("fig14b") {
            run(&mut outputs, || ex::fig14b(s));
        }
        if want("ablation") {
            run(&mut outputs, || ex::ablation(s));
        }
        if want("freespace") {
            run(&mut outputs, || ex::freespace(s));
        }
    }

    // The temporal extension needs a diurnal-demand scenario.
    if want("temporal") {
        let mut cfg = if args.full {
            ScenarioConfig::full(args.seed ^ 2)
        } else {
            ScenarioConfig::quick(args.seed ^ 2)
        };
        cfg.sim.diurnal_peaks = true;
        eprintln!("building diurnal scenario for the temporal extension ...");
        let s = Scenario::build(cfg);
        run(&mut outputs, || ex::temporal(&s));
    }

    // Figure 8b needs a wide query-length spread.
    if want("fig8b") {
        let (mut cfg, buckets): (ScenarioConfig, Vec<f64>) = if args.full {
            let mut c = ScenarioConfig::full(args.seed ^ 1);
            c.query_len_m = (8_000.0, 32_000.0);
            c.num_queries = 50;
            (c, vec![10.0, 15.0, 20.0, 25.0, 30.0])
        } else {
            let mut c = ScenarioConfig::quick(args.seed ^ 1);
            c.query_len_m = (2_000.0, 8_000.0);
            c.num_queries = 30;
            (c, vec![2.5, 3.5, 4.5, 5.5, 6.5])
        };
        cfg.sim.min_trip_dist_m = cfg.query_len_m.0 * 0.6;
        eprintln!("building wide-length scenario for fig8b ...");
        let s = Scenario::build(cfg);
        eprintln!("  {} queries", s.queries.len());
        run(&mut outputs, || ex::fig8b(&s, &buckets));
    }

    // Instrumented pass: same base workload, observed engine, sequential so
    // phase times attribute the wall time exactly.
    if let Some(path) = &args.metrics_out {
        let s = base
            .as_ref()
            .expect("metrics pass builds the base scenario");
        let interval_s = 180.0;
        eprintln!("running instrumented pass (interval {interval_s}s) ...");
        let (outcome, report) =
            hris_eval::evaluate_hris_observed(s, &hris::HrisParams::default(), interval_s, None);
        println!("{}", report.summary());
        println!(
            "   accuracy {:.4}   mean query time {:.4}s",
            outcome.mean_accuracy, outcome.mean_time_s
        );
        eprintln!("running robustness pass (100-case fault corpus) ...");
        let rob = hris_eval::evaluate_robustness(s, &hris::HrisParams::default(), args.seed, 100);
        println!("{}", rob.summary());
        // The observed pass's keys plus the robustness block.
        let mut doc = report.to_value();
        if let serde_json::Value::Obj(members) = &mut doc {
            members.push(("robustness".to_string(), rob.to_value()));
        }
        std::fs::write(path, doc.render_compact()).expect("write metrics json");
        eprintln!("wrote {path}");
    }

    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).expect("create output dir");
        for t in &outputs {
            let path = format!("{dir}/{}.csv", csv_name(&t.id));
            std::fs::write(&path, t.to_csv()).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
}

/// File stem for a table id: lower-cased, every run of characters outside
/// `[a-z0-9_]` collapsed to one `_`, so the name is valid on every
/// filesystem ("Extension: freespace" → `extension_freespace`).
fn csv_name(id: &str) -> String {
    let mut name = String::with_capacity(id.len());
    for c in id.chars().flat_map(char::to_lowercase) {
        let c = if c.is_ascii_lowercase() || c.is_ascii_digit() {
            c
        } else {
            '_'
        };
        if !(c == '_' && name.ends_with('_')) {
            name.push(c);
        }
    }
    name
}

fn run<F: FnOnce() -> Table>(outputs: &mut Vec<Table>, f: F) {
    let t = f();
    report(outputs, t);
}

fn report(outputs: &mut Vec<Table>, t: Table) {
    println!("{t}");
    outputs.push(t);
}

#[cfg(test)]
mod tests {
    use super::{csv_name, parse_args, FIGURES};

    fn parse(args: &[&str]) -> Result<super::Args, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn known_figures_and_options_parse() {
        let args = parse(&["fig13a", "--seed", "7", "fig13b", "--out", "dir"]).unwrap();
        assert_eq!(
            args.figures.iter().collect::<Vec<_>>(),
            ["fig13a", "fig13b"]
        );
        assert_eq!((args.seed, args.out.as_deref()), (7, Some("dir")));
        assert!(parse(&[]).unwrap().figures.contains("all"));
        for figure in FIGURES {
            assert!(parse(&[figure]).is_ok(), "{figure}");
        }
    }

    #[test]
    fn unknown_figures_are_rejected_with_the_list() {
        for typo in ["fig13B", "fig15", "--ful"] {
            let err = parse(&["fig8a", typo]).err().expect(typo);
            assert!(err.contains(typo) && err.contains("fig14b"), "{err}");
        }
    }

    #[test]
    fn csv_names_are_portable() {
        assert_eq!(csv_name("Figure 8a"), "figure_8a");
        assert_eq!(csv_name("Ablation"), "ablation");
        assert_eq!(csv_name("Extension: freespace"), "extension_freespace");
        assert_eq!(csv_name("a/b\\c:d  e__f"), "a_b_c_d_e_f");
        assert_eq!(csv_name("Größe 1"), "gr_e_1");
    }
}
