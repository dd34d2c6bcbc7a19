//! What one process reports: named metrics with units and sample counts,
//! the contract line the driver parses, and the detail record the `run`
//! orchestrator aggregates into `results.json`.

use crate::spec::BenchSpec;
use serde_json::{json, Value};

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Name as declared in `BENCHMARK.json` (or an informational extra).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// Builds a [`Row`].
#[must_use]
pub fn row(name: &str, value: f64, samples: usize) -> Row {
    Row {
        name: name.to_string(),
        value,
        samples,
    }
}

/// The outcome of one pass (`--trace 0` or `--trace 1`) over one workload.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Traffic seed.
    pub seed: u64,
    /// `true` for the traced (per-layer) pass.
    pub traced: bool,
    /// Operations attempted: timed queries, ingest chunks, verify
    /// comparisons.
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Every check held (no failed operation, invariants intact).
    pub correct: bool,
    /// The declared metrics of this pass — exactly the `end_to_end` list
    /// (untraced) or the `per_layer` list (traced).
    pub rows: Vec<Row>,
    /// Rows outside the contract: ingest-only end-to-end metrics,
    /// `failed_frac`, `gen_s`.
    pub extra: Vec<Row>,
    /// Why `correct` is false, or anything else worth a line.
    pub notes: Vec<String>,
    /// FNV-1a of the timed query set.
    pub queries_fnv: u64,
    /// FNV-1a of the first rounds' answers (0 where not deterministic).
    pub answers_fnv: u64,
}

impl RunReport {
    /// Checks that `rows` are exactly the metrics `BENCHMARK.json` declares
    /// for this pass, in any order.
    ///
    /// # Panics
    /// Panics on a mismatch: the benchmark and its declaration drifted.
    pub fn assert_declared(&self, spec: &BenchSpec) {
        let declared = if self.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let mut want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
        let mut got: Vec<&str> = self.rows.iter().map(|r| r.name.as_str()).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "reported metrics differ from BENCHMARK.json");
    }

    /// Prints every metric by name with its unit and sample count.
    pub fn print(&self, spec: &BenchSpec) {
        for r in self.rows.iter().chain(&self.extra) {
            let unit = spec.metric(&r.name).expect("known metric").unit;
            println!(
                "{:<14} {:<42} {:>14.6} {:<6} (n={})",
                self.workload, r.name, r.value, unit, r.samples
            );
        }
        for n in &self.notes {
            println!("{:<14} note: {n}", self.workload);
        }
    }

    /// The one-line JSON object the driver reads from the last line of
    /// standard output.
    #[must_use]
    pub fn contract_line(&self, spec: &BenchSpec) -> String {
        let metrics: Vec<(String, Value)> = self
            .rows
            .iter()
            .map(|r| {
                let unit = spec.metric(&r.name).expect("declared metric").unit;
                (r.name.clone(), json!({"value": r.value, "unit": unit}))
            })
            .collect();
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Obj(metrics),
        })
        .render_compact()
    }

    /// Everything, for the orchestrator.
    #[must_use]
    pub fn detail(&self) -> Value {
        let rows = |rows: &[Row]| {
            Value::Arr(
                rows.iter()
                    .map(
                        |r| json!({"name": r.name.clone(), "value": r.value, "samples": r.samples}),
                    )
                    .collect(),
            )
        };
        json!({
            "workload": self.workload.clone(),
            "seed": self.seed,
            "traced": self.traced,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.correct,
            "rows": rows(&self.rows),
            "extra": rows(&self.extra),
            "notes": self.notes.clone(),
            "queries_fnv": format!("{:016x}", self.queries_fnv),
            "answers_fnv": format!("{:016x}", self.answers_fnv),
        })
    }
}

/// Marker that starts the detail line on a child's standard output.
pub const DETAIL_PREFIX: &str = "detail ";
