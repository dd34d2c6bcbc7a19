//! The untraced pass of one workload: generate → set up (several times) →
//! timed run → verify → end-to-end metrics.

use crate::front::{serving_config, with_front, Served, SetUp, SHARD_MARGIN_M};
use crate::host::{HostMeter, MAX_OFF_THREAD};
use crate::report::{row, Row, RunReport};
use crate::stats::{median, median_round_qps, percentile};
use crate::timed::{self, same_answer, TimedRun};
use crate::workload::{generate, query_set_checksum, Facade, Inputs, Query, Scale, WorkloadSpec};
use hris::prelude::*;
use hris_geo::BBox;
use hris_roadnet::RoadNetwork;
use hris_router::ShardPlan;
use std::sync::Arc;
use std::time::Instant;

/// How many times a full-scale run sets up; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What the verify step found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Answers compared against the reference.
    pub compared: usize,
    /// Comparisons (or invariants) that failed.
    pub failed: usize,
    /// One line per kind of failure.
    pub notes: Vec<String>,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.compared += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// `true` when every consecutive pair of `q` has its φ-inflated box inside
/// one shard region — the regime in which the router promises the single
/// engine's answer bit for bit.
#[must_use]
pub fn partition_respecting(plan: &ShardPlan, q: &Query, phi_m: f64) -> bool {
    q.traj.points.windows(2).all(|w| {
        plan.home_shard(&BBox::covering([w[0].pos, w[1].pos]).inflated(phi_m))
            .is_some()
    })
}

/// Static workloads: the first round's answers must equal the naive
/// `Hris::infer_routes_detailed` — the executable spec — bit for bit.
fn verify_static(
    spec: &WorkloadSpec,
    net: &Arc<RoadNetwork>,
    inp: &Inputs,
    run: &TimedRun,
) -> Verdict {
    let mut v = Verdict::default();
    let params = HrisParams::default();
    let phi = params.phi_m;
    let naive = Hris::new(net, TrajectoryArchive::new(inp.trips.clone()), params);
    let plan = (spec.facade == Facade::Sharded).then(|| ShardPlan::grid(net, 2, 2, SHARD_MARGIN_M));
    for (i, (q, got)) in inp.queries.iter().zip(&run.first_round).enumerate() {
        if plan
            .as_ref()
            .is_some_and(|p| !partition_respecting(p, q, phi))
        {
            continue; // best-effort seam: the router does not promise identity
        }
        let (want, _) = naive.infer_routes_detailed(&q.traj, spec.k);
        v.check(same_answer(got, &want), || {
            format!("query {i}: answer differs from Hris::infer_routes_detailed")
        });
    }
    v
}

/// `ingest_live`: answers depend on the epoch a query pins, so the check is
/// on the end state — the final epoch holds exactly the retained trips,
/// nothing was quarantined, and the live handle answers the first round on
/// it exactly like a cold `EngineHandle::new` over the same trips.
fn verify_live(
    spec: &WorkloadSpec,
    served: &Served<'_, '_>,
    inp: &Inputs,
    run: &TimedRun,
) -> Verdict {
    let mut v = Verdict::default();
    let writer = served.writer.as_deref().expect("live front has a writer");
    let snap = writer.snapshot();
    let rep = writer.report();
    v.check(snap.archive().num_trajectories() == inp.trips.len(), || {
        format!(
            "final epoch holds {} trips, expected {}",
            snap.archive().num_trajectories(),
            inp.trips.len()
        )
    });
    v.check(rep.trajectories_quarantined == 0, || {
        format!("{} trips quarantined", rep.trajectories_quarantined)
    });
    v.check(rep.epochs_published == run.chunks.len(), || {
        format!(
            "{} epochs published for {} chunks",
            rep.epochs_published,
            run.chunks.len()
        )
    });
    v.check(!run.chunks_ran_dry, || {
        format!(
            "the writer used up all {} chunks before the reader was done",
            inp.chunks.len()
        )
    });
    let cold = EngineHandle::with_config(
        Arc::clone(served.net),
        TrajectoryArchive::new(snap.archive().trajectories().to_vec()),
        HrisParams::default(),
        serving_config(),
    );
    for (i, q) in inp.queries.iter().take(inp.round).enumerate() {
        let live = served.front.infer(&q.traj, spec.k);
        let want = cold.infer_query(&q.traj, spec.k);
        v.check(same_answer(&live.globals, &want.globals), || {
            format!("query {i}: live answer on the final epoch differs from a cold handle")
        });
    }
    v
}

/// A percentile row; an unresolved tail (too few samples beyond it) is
/// noted and, at full scale, makes the run incorrect: the workload is
/// mis-sized for the metric it promises.
fn pct_row(name: &str, xs: &[f64], p: f64, unresolved: &mut Vec<String>) -> Row {
    let pc = percentile(xs, p).expect("at least one sample");
    if !pc.resolved() {
        unresolved.push(format!(
            "{name}: only {} samples beyond the percentile",
            pc.beyond
        ));
    }
    row(name, pc.value, xs.len())
}

/// Runs the untraced pass of `spec`, sized for `seconds`.
#[must_use]
pub fn run(spec: &WorkloadSpec, seed: u64, seconds: f64, scale: Scale) -> RunReport {
    let t_gen = Instant::now();
    let inp = generate(spec, seed, spec.rounds_for(seconds), scale);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let full = scale == Scale::Full;

    let mut meter = HostMeter::new();
    let reps = if full { SETUP_REPS } else { 1 };
    let mut setups: Vec<SetUp> = (1..reps)
        .map(|_| with_front(spec, &inp, &mut meter, |served| served.setup))
        .collect();
    let (run, rss_mb, verdict) = with_front(spec, &inp, &mut meter, |mut served| {
        setups.push(served.setup);
        let run = timed::run(spec, &mut served, &inp);
        // Before verification builds a second archive.
        let rss_mb = timed::peak_rss_mb();
        let verdict = if spec.facade == Facade::Live {
            verify_live(spec, &served, &inp, &run)
        } else {
            verify_static(spec, served.net, &inp, &run)
        };
        (run, rss_mb, verdict)
    });

    let mut notes = verdict.notes;
    notes.truncate(5);
    let ingest_failed: usize = run
        .chunks
        .iter()
        .map(|c| c.quarantined + usize::from(!c.published))
        .sum();
    let attempted = run.answered + run.chunks.len() + verdict.compared;
    let failed = run.bad_answers + ingest_failed + verdict.failed;
    if run.bad_answers > 0 {
        notes.push(format!("{} answers not Ok or empty", run.bad_answers));
    }
    // The thread clock sees only the serving (and writer) thread: work the
    // program moved elsewhere would be missing from every gated timing.
    let off_thread = setups
        .iter()
        .map(|s| s.off_thread)
        .fold(run.off_thread, f64::max);
    let on_thread = off_thread <= MAX_OFF_THREAD;
    if !on_thread {
        notes.push(format!(
            "{:.1} % of the CPU time was spent on threads the thread clock does not see",
            off_thread * 100.0
        ));
    }

    let live = spec.facade == Facade::Live;
    let (qps, wall_qps, qps_samples) = if live {
        let busy_s = run.latencies_ms.iter().sum::<f64>() / 1e3;
        let answered = run.answered as f64;
        (answered / busy_s, answered / run.run_s, run.answered)
    } else {
        (
            median_round_qps(inp.round, &run.round_s),
            median_round_qps(inp.round, &run.wall_round_s),
            run.round_s.len(),
        )
    };
    let setup_of = |f: fn(&SetUp) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let lat = &run.latencies_ms;
    let wall = &run.wall_latencies_ms;
    let mut unresolved = Vec::new();
    let rows = vec![
        row("setup_s", setup_of(|s| s.total_s), setups.len()),
        row("qps", qps, qps_samples),
        pct_row("latency_p50_ms", lat, 50.0, &mut unresolved),
        pct_row("latency_p95_ms", lat, 95.0, &mut unresolved),
        pct_row("latency_p99_ms", lat, 99.0, &mut unresolved),
        row(
            "accuracy_al",
            run.accuracy_sum / run.answered.max(1) as f64,
            run.answered,
        ),
        row("peak_rss_mb", rss_mb, 1),
    ];
    let mut extra = vec![
        row(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            attempted,
        ),
        row("gen_s", gen_s, 1),
        row("host_slowdown", run.slowdown, 1),
        row("off_thread_frac", off_thread, 1),
        row("wall_setup_s", setup_of(|s| s.wall_s), setups.len()),
        row("wall_qps", wall_qps, qps_samples),
        pct_row("wall_latency_p50_ms", wall, 50.0, &mut unresolved),
        pct_row("wall_latency_p99_ms", wall, 99.0, &mut unresolved),
    ];
    if live {
        let lag_ms: Vec<f64> = run
            .chunks
            .iter()
            .map(|c| (c.end - c.due).as_secs_f64() * 1e3)
            .collect();
        extra.push(pct_row(
            "publish_p50_ms",
            &run.publish_ms,
            50.0,
            &mut unresolved,
        ));
        extra.push(pct_row("ingest_lag_p90_ms", &lag_ms, 90.0, &mut unresolved));
    }
    let sized = unresolved.is_empty() || !full;
    notes.append(&mut unresolved);
    RunReport {
        workload: spec.name.to_string(),
        seed,
        traced: false,
        attempted,
        failed,
        correct: failed == 0 && sized && on_thread,
        rows,
        extra,
        notes,
        queries_fnv: query_set_checksum(&inp.queries),
        answers_fnv: run.answers_fnv,
    }
}
