//! The untraced timed run: what a caller of the system would see.
//!
//! Query traffic is a closed loop with one client — callers wait for each
//! reply before sending the next — over a fixed set of distinct queries,
//! each asked once. Static workloads time it in equal rounds; on
//! `ingest_live` the ingest writer, an open loop on a fixed schedule, has a
//! chunk due every period for as long as the reader has queries left.
//!
//! Each query is timed twice: on the wall clock, and on the serving thread's
//! CPU clock with a calibration sample before every
//! [`WorkloadSpec::calib_every`]-th query. The gated latencies are the
//! second, divided by the host's slow-down around the query
//! ([`crate::host`]): milliseconds at reference speed.

use crate::front::{Front, Served};
use crate::host::{off_thread_share, process_cpu, thread_cpu, HostMeter};
use crate::workload::{fnv1a, fnv1a_extend, Inputs, Query, WorkloadSpec, INGEST_PERIOD_MS};
use hris::prelude::*;
use hris_eval::metrics::accuracy_al;
use hris_roadnet::RoadNetwork;
use hris_traj::Trajectory;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One ingest chunk as the writer thread saw it; times are since run start.
#[derive(Debug, Clone, Copy)]
pub struct ChunkRec {
    /// When the chunk was due.
    pub due: Duration,
    /// When the writer began appending it.
    pub start: Duration,
    /// When `append_batch` returned.
    pub appended: Duration,
    /// When `publish` returned.
    pub end: Duration,
    /// CPU time of the writer thread from `start` to `end`.
    pub cpu: Duration,
    /// Trips of the chunk that were quarantined on append.
    pub quarantined: usize,
    /// Whether `publish` produced a new epoch.
    pub published: bool,
}

/// What the timed run measured.
#[derive(Debug, Default)]
pub struct TimedRun {
    /// Each round's sum of `latencies_ms`, seconds (static workloads).
    pub round_s: Vec<f64>,
    /// Each round's sum of `wall_latencies_ms`, seconds (static workloads).
    pub wall_round_s: Vec<f64>,
    /// Per-query time on the serving thread's CPU clock at reference speed,
    /// milliseconds, pooled over the run.
    pub latencies_ms: Vec<f64>,
    /// Per-query wall time, milliseconds, pooled over the run.
    pub wall_latencies_ms: Vec<f64>,
    /// Per-chunk `append_batch` + `publish` on the writer thread's CPU
    /// clock at reference speed, milliseconds (`ingest_live`).
    pub publish_ms: Vec<f64>,
    /// The host's slow-down over the run (median calibration sample ÷
    /// reference).
    pub slowdown: f64,
    /// Share of the process's CPU time during the run that neither the
    /// serving nor the writer thread consumed.
    pub off_thread: f64,
    /// `(start, end)` of every query since run start (`ingest_live`).
    pub query_spans: Vec<(Duration, Duration)>,
    /// Wall time of the whole timed region, seconds.
    pub run_s: f64,
    /// Sum of top-1 `A_L` over the answered queries.
    pub accuracy_sum: f64,
    /// Queries answered.
    pub answered: usize,
    /// Answers that were not `Ok` or carried no route.
    pub bad_answers: usize,
    /// FNV-1a over route and score bits of every answer (static workloads;
    /// 0 for `ingest_live`, whose answers depend on which epoch a query
    /// pins).
    pub answers_fnv: u64,
    /// First round's answers, kept for the verify step.
    pub first_round: Vec<Vec<GlobalRoute>>,
    /// Ingest chunks (`ingest_live`).
    pub chunks: Vec<ChunkRec>,
    /// The writer ran out of chunks before the reader ran out of queries
    /// (`ingest_live`): the tail of the run had no writes beside it.
    pub chunks_ran_dry: bool,
}

/// Folds one answer into a running FNV-1a checksum.
#[must_use]
pub fn answer_fnv(mut h: u64, globals: &[GlobalRoute]) -> u64 {
    h = fnv1a_extend(h, &(globals.len() as u64).to_le_bytes());
    for g in globals {
        for seg in g.route.segments() {
            h = fnv1a_extend(h, &seg.0.to_le_bytes());
        }
        h = fnv1a_extend(h, &g.log_score.to_bits().to_le_bytes());
    }
    h
}

/// Bit-identical comparison of two answers: same routes, same score bits.
#[must_use]
pub fn same_answer(a: &[GlobalRoute], b: &[GlobalRoute]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.route == y.route && x.log_score.to_bits() == y.log_score.to_bits())
}

/// Books one answer: outcome, accuracy against the ground truth.
fn book(run: &mut TimedRun, net: &RoadNetwork, q: &Query, res: &QueryResult) {
    run.answered += 1;
    match res.globals.first() {
        Some(top) if res.outcome.is_ok() => {
            run.accuracy_sum += accuracy_al(&q.truth, &top.route, net);
        }
        _ => run.bad_answers += 1,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Thread-clock times of consecutive queries, a calibration sample before
/// every `every`-th and one after the last (samples `first..=last`), to
/// milliseconds at reference speed.
fn at_reference_speed(
    meter: &HostMeter,
    first: usize,
    last: usize,
    every: usize,
    cpu_ms: &[f64],
) -> Vec<f64> {
    cpu_ms
        .chunks(every)
        .enumerate()
        .flat_map(|(b, block)| {
            let slowdown = meter.local_slowdown(first + b, first, last);
            block.iter().map(move |ms| ms / slowdown)
        })
        .collect()
}

fn round_sums_s(per_query_ms: &[f64], round: usize) -> Vec<f64> {
    per_query_ms
        .chunks_exact(round)
        .map(|r| r.iter().sum::<f64>() / 1e3)
        .collect()
}

/// Closed loop over every round of `inp.queries`.
pub fn closed_loop(
    front: &Front<'_>,
    net: &RoadNetwork,
    inp: &Inputs,
    spec: &WorkloadSpec,
    meter: &mut HostMeter,
) -> TimedRun {
    let (k, every) = (spec.k, spec.calib_every);
    let mut run = TimedRun {
        answers_fnv: fnv1a(b"answers"),
        ..TimedRun::default()
    };
    let mut answers: Vec<QueryResult> = Vec::with_capacity(inp.round);
    let mut cpu_ms = Vec::with_capacity(inp.queries.len());
    let first = meter.len();
    let (start, p0, t0) = (Instant::now(), process_cpu(), thread_cpu());
    for (r, round) in inp.queries.chunks_exact(inp.round).enumerate() {
        answers.clear();
        for (j, q) in round.iter().enumerate() {
            if (r * inp.round + j).is_multiple_of(every) {
                meter.sample();
            }
            let (c, w) = (thread_cpu(), Instant::now());
            let res = front.infer(&q.traj, k);
            cpu_ms.push(ms(thread_cpu() - c));
            run.wall_latencies_ms.push(ms(w.elapsed()));
            answers.push(res);
        }
        // Between rounds, outside every timer: book the answers.
        for (q, res) in round.iter().zip(&answers) {
            book(&mut run, net, q, res);
            run.answers_fnv = answer_fnv(run.answers_fnv, &res.globals);
        }
        if r == 0 {
            run.first_round = answers.drain(..).map(|a| a.globals).collect();
        }
    }
    let last = meter.sample();
    run.off_thread = off_thread_share(process_cpu() - p0, thread_cpu() - t0);
    run.run_s = start.elapsed().as_secs_f64();
    run.slowdown = meter.slowdown(first, last + 1);
    run.latencies_ms = at_reference_speed(meter, first, last, every, &cpu_ms);
    run.round_s = round_sums_s(&run.latencies_ms, inp.round);
    run.wall_round_s = round_sums_s(&run.wall_latencies_ms, inp.round);
    run
}

/// `ingest_live`: this thread answers each of `queries` once, back to back,
/// while the writer thread appends and publishes one chunk of `chunks` every
/// [`INGEST_PERIOD_MS`] (open loop, timed from when each chunk was due) until
/// the reader is done.
pub fn live_loop(
    front: &Front<'_>,
    writer: &mut ArchiveWriter,
    net: &RoadNetwork,
    queries: &[Query],
    chunks: &[Vec<Trajectory>],
    spec: &WorkloadSpec,
    meter: &mut HostMeter,
) -> TimedRun {
    let (k, every) = (spec.k, spec.calib_every);
    let mut run = TimedRun::default();
    let mut pending: Vec<Vec<Trajectory>> = chunks.to_vec();
    pending.reverse();
    let reader_done = AtomicBool::new(false);
    let mut answers: Vec<QueryResult> = Vec::with_capacity(queries.len());
    let mut cpu_ms = Vec::with_capacity(queries.len());
    let first = meter.len();
    let (start, p0, cpu0) = (Instant::now(), process_cpu(), thread_cpu());
    let mut writer_cpu = Duration::ZERO;
    std::thread::scope(|scope| {
        let reader_done = &reader_done;
        let ingest = scope.spawn(move || {
            let mut recs = Vec::new();
            let mut i = 0u32;
            let dry = loop {
                let due = Duration::from_millis(INGEST_PERIOD_MS) * i;
                i += 1;
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                if reader_done.load(Ordering::Acquire) {
                    break false;
                }
                let Some(chunk) = pending.pop() else {
                    break true;
                };
                let n = chunk.len();
                let epoch = writer.epoch();
                let (c0, t0) = (thread_cpu(), start.elapsed());
                let kept = writer.append_batch(chunk);
                let t1 = start.elapsed();
                let snap = writer.publish();
                let (cpu, t2) = (thread_cpu() - c0, start.elapsed());
                recs.push(ChunkRec {
                    due,
                    start: t0,
                    appended: t1,
                    end: t2,
                    cpu,
                    quarantined: n - kept,
                    published: snap.epoch() > epoch,
                });
            };
            (recs, dry, thread_cpu())
        });
        for (i, q) in queries.iter().enumerate() {
            if i.is_multiple_of(every) {
                meter.sample();
            }
            let (c, t0) = (thread_cpu(), start.elapsed());
            let res = front.infer(&q.traj, k);
            cpu_ms.push(ms(thread_cpu() - c));
            let t1 = start.elapsed();
            run.query_spans.push((t0, t1));
            run.wall_latencies_ms.push(ms(t1 - t0));
            answers.push(res);
        }
        run.run_s = start.elapsed().as_secs_f64();
        reader_done.store(true, Ordering::Release);
        (run.chunks, run.chunks_ran_dry, writer_cpu) =
            ingest.join().expect("ingest thread panicked");
    });
    let last = meter.sample();
    let accounted = (thread_cpu() - cpu0) + writer_cpu;
    run.off_thread = off_thread_share(process_cpu() - p0, accounted);
    run.slowdown = meter.slowdown(first, last + 1);
    run.latencies_ms = at_reference_speed(meter, first, last, every, &cpu_ms);
    // A chunk ran at the speed of the block of queries it ended in.
    run.publish_ms = run
        .chunks
        .iter()
        .map(|c| {
            let end = start + c.end;
            let block = (first..last)
                .rev()
                .find(|&i| meter.get(i).at <= end)
                .unwrap_or(first);
            ms(c.cpu) / meter.local_slowdown(block, first, last)
        })
        .collect();
    for (q, res) in queries.iter().zip(&answers) {
        book(&mut run, net, q, res);
    }
    run
}

/// Runs the timed pass of `spec` on a warmed front.
pub fn run(spec: &WorkloadSpec, served: &mut Served<'_, '_>, inp: &Inputs) -> TimedRun {
    let (front, net) = (served.front, served.net);
    let meter = &mut *served.meter;
    match served.writer.as_deref_mut() {
        Some(writer) => live_loop(front, writer, net, &inp.queries, &inp.chunks, spec, meter),
        None => closed_loop(front, net, inp, spec, meter),
    }
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
