//! The traced pass of one workload: the per-layer cost table.
//!
//! A fixed number of whole rounds from the front of the query set are
//! answered once by the workload's front (untraced wall) and once by the
//! staged pipeline (spans), in alternating order so neither always runs on
//! the other's warm memos.
//! Layers a workload never enters report 0. Probes that are not part of the
//! query path (range queries on captured points, batch fan-out,
//! observability on/off, snapshot decode, admission permits) run after it.

use crate::e2e::partition_respecting;
use crate::front::{live_config, serving_config, with_front, Front, SetUp};
use crate::host::HostMeter;
use crate::report::{row, Row, RunReport};
use crate::spans::Recorder;
use crate::staged::{layer, Counts, Staged};
use crate::stats::{median, percentile};
use crate::timed::{live_loop, same_answer, TimedRun};
use crate::workload::{generate, query_set_checksum, Facade, Query, Scale, WorkloadSpec};
use hris::prelude::*;
use hris_obs::AdmissionGate;
use hris_roadnet::RoadNetwork;
use hris_router::{RouteKind, ShardedEngine};
use hris_traj::Trajectory;
use serde_json::json;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span names of the live pass (`ingest_live`).
mod live_span {
    pub const APPEND: &str = "traj.ingest.append_batch";
    pub const PUBLISH: &str = "traj.ingest.publish";
    pub const INFER: &str = "core.engine.infer_query";
}

/// Queries of the batch fan-out and observability probes.
const PROBE_QUERIES: usize = 500;

/// The interleaved pass traces one round in this many of the timed run's
/// (every traced query is answered two or three times) …
const TRACED_ROUNDS_DIV: usize = 3;
/// … and never fewer than this many.
const MIN_TRACED_ROUNDS: usize = 2;

/// Below this share of the staged wall inside stage spans, the table does
/// not describe the program and the pass is incorrect.
const MIN_COVERAGE: f64 = 0.90;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn per(a: u64, b: u64) -> f64 {
    ratio(a as f64, b as f64)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Rows of every declared per-layer metric, in declared order, zero unless
/// set.
struct Table(Vec<Row>);

impl Table {
    fn new(names: &[String]) -> Self {
        Table(names.iter().map(|n| row(n, 0.0, 0)).collect())
    }

    fn get(&self, name: &str) -> &Row {
        self.0
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not declared in BENCHMARK.json"))
    }

    /// Sets `(name, value, samples)` rows.
    fn set(&mut self, rows: &[(&str, f64, u64)]) {
        for &(name, value, samples) in rows {
            let i = self.0.iter().position(|r| r.name == name);
            let i = i.unwrap_or_else(|| panic!("`{name}` is not declared in BENCHMARK.json"));
            self.0[i].value = value;
            self.0[i].samples = samples as usize;
        }
    }
}

/// Self time, calls and allocation calls of one span name.
#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    ns: u64,
    calls: u64,
    allocs: u64,
}

impl Agg {
    /// Sums the spans called `name`; `own` is `rec.self_ns()`.
    fn of(rec: &Recorder, own: &[u64], name: &str) -> Agg {
        let mut a = Agg::default();
        for (s, &own) in rec.spans().iter().zip(own) {
            if s.name == name {
                a.ns += own;
                a.calls += 1;
                a.allocs += s.allocs;
            }
        }
        a
    }

    fn us_per(self, n: u64) -> f64 {
        ratio(self.ns as f64 / 1e3, n as f64)
    }
}

/// What the interleaved front/staged pass measured beyond the spans.
#[derive(Default)]
struct Interleaved {
    traced: usize,
    front_ns: u64,
    staged_mismatches: usize,
    // Router only.
    single_ns: u64,
    scatter: u64,
    shards_touched: u64,
    splices: u64,
    identity_mismatches: usize,
}

/// Runs every query of `pool` through front and staged pipeline
/// alternately. With `single`, every query is also answered by that one
/// handle — the router's baseline.
fn interleave(
    spec: &WorkloadSpec,
    front: &Front<'_>,
    staged: &mut Staged<'_>,
    single: Option<&EngineHandle>,
    pool: &[Query],
) -> Interleaved {
    let mut out = Interleaved::default();
    let phi = HrisParams::default().phi_m;
    for (i, q) in pool.iter().enumerate() {
        out.traced += 1;
        let qid = u32::try_from(i).expect("fewer than 2^32 traced queries");
        let staged_first = (i % 2 == 1).then(|| staged.query(&q.traj, spec.k, qid));
        let t = Instant::now();
        let answer = match front {
            Front::Sharded(s) => {
                let (res, route) = s.infer_query_traced(&q.traj, spec.k);
                out.front_ns += t.elapsed().as_nanos() as u64;
                out.scatter += u64::from(route.kind == RouteKind::Scatter);
                out.shards_touched += route.epochs.len() as u64;
                out.splices += route.splice_points.len() as u64;
                res
            }
            _ => {
                let res = front.infer(&q.traj, spec.k);
                out.front_ns += t.elapsed().as_nanos() as u64;
                res
            }
        };
        let staged_answer = staged_first.unwrap_or_else(|| staged.query(&q.traj, spec.k, qid));
        // Outside that regime the router answers best-effort, by design.
        let respecting = match front {
            Front::Sharded(s) => partition_respecting(s.plan(), q, phi),
            _ => true,
        };
        if respecting && !same_answer(&answer.globals, &staged_answer) {
            out.staged_mismatches += 1;
        }
        if let Some(single) = single {
            let t = Instant::now();
            let want = single.infer_query(&q.traj, spec.k);
            out.single_ns += t.elapsed().as_nanos() as u64;
            if respecting && !same_answer(&answer.globals, &want.globals) {
                out.identity_mismatches += 1;
            }
        }
    }
    out
}

/// `traj.ingest.*` from a live pass, whose timings also become spans
/// (`offset` = when the pass began on the recorder's clock).
fn ingest_rows(
    t: &mut Table,
    rec: &mut Recorder,
    run: &TimedRun,
    offset: Duration,
    trips: usize,
    writer: &ArchiveWriter,
) {
    let ns = |d: Duration| (offset + d).as_nanos() as u64;
    for (i, c) in run.chunks.iter().enumerate() {
        rec.record(live_span::APPEND, i as u32, ns(c.start), ns(c.appended));
        rec.record(live_span::PUBLISH, i as u32, ns(c.appended), ns(c.end));
    }
    for (i, &(a, b)) in run.query_spans.iter().enumerate() {
        rec.record(live_span::INFER, i as u32, ns(a), ns(b));
    }
    let ms = |f: fn(&crate::timed::ChunkRec) -> Duration| -> Vec<f64> {
        run.chunks.iter().map(|c| secs(f(c)) * 1e3).collect()
    };
    let append_ms: f64 = ms(|c| c.appended - c.start).iter().sum();
    let publish_ms = ms(|c| c.end - c.appended);
    let lag_ms = ms(|c| c.end - c.due);
    let pct = |xs: &[f64], p| percentile(xs, p).map_or(0.0, |x| x.value);
    let n = run.chunks.len() as u64;
    let rep = writer.report();
    t.set(&[
        (
            "traj.ingest.append_us_per_trip",
            ratio(append_ms * 1e3, trips as f64),
            trips as u64,
        ),
        ("traj.ingest.publish_ms_p50", pct(&publish_ms, 50.0), n),
        ("traj.ingest.publish_ms_p95", pct(&publish_ms, 95.0), n),
        ("traj.ingest.lag_ms_p90", pct(&lag_ms, 90.0), n),
        ("traj.ingest.epochs", rep.epochs_published as f64, 1),
        (
            "traj.ingest.evicted_trips",
            rep.trajectories_evicted as f64,
            1,
        ),
    ]);
}

/// The query-path layers, from the staged spans and boundary counts.
fn stage_rows(t: &mut Table, rec: &Recorder, c: &Counts, front_ns: u64) {
    let own = rec.self_ns();
    let root = Agg::of(rec, &own, layer::QUERY);
    let root_wall: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.name == layer::QUERY)
        .map(|s| s.wall_ns())
        .sum();
    let stages_ns = root_wall - root.ns;
    let share = |a: Agg| ratio(a.ns as f64, root_wall as f64);
    let (q, pairs) = (c.queries, c.pairs);

    let cand = Agg::of(rec, &own, layer::CANDIDATES);
    let refs = Agg::of(rec, &own, layer::REFERENCE);
    let tgi = Agg::of(rec, &own, layer::TGI);
    let nni = Agg::of(rec, &own, layer::NNI);
    let orc = Agg::of(rec, &own, layer::ORACLE);
    let glob = Agg::of(rec, &own, layer::GLOBAL);
    let kept = per(c.edges_final, c.edges_initial).min(1.0);
    let reduced = if c.edges_initial == 0 {
        0.0
    } else {
        1.0 - kept
    };
    let front = front_ns as f64;
    t.set(&[
        (
            "roadnet.candidates.us_per_point",
            cand.us_per(c.points),
            c.points,
        ),
        (
            "roadnet.candidates.edges_per_point",
            per(c.candidate_edges, c.points),
            c.points,
        ),
        (
            "roadnet.candidates.allocs_per_point",
            per(cand.allocs, c.points),
            c.points,
        ),
        ("roadnet.candidates.share", share(cand), q),
        ("core.reference.us_per_pair", refs.us_per(pairs), pairs),
        ("core.reference.refs_per_pair", per(c.refs, pairs), pairs),
        (
            "core.reference.spliced_frac",
            per(c.spliced_refs, c.refs),
            c.refs,
        ),
        (
            "core.reference.empty_frac",
            per(c.empty_pairs, pairs),
            pairs,
        ),
        (
            "core.reference.allocs_per_pair",
            per(refs.allocs, pairs),
            pairs,
        ),
        ("core.reference.share", share(refs), q),
        (
            "core.local.tgi.us_per_pair",
            tgi.us_per(c.tgi_pairs),
            c.tgi_pairs,
        ),
        ("core.local.tgi.pairs_frac", per(c.tgi_pairs, pairs), pairs),
        (
            "core.local.tgi.traverse_nodes_per_pair",
            per(c.traverse_nodes, c.tgi_pairs),
            c.tgi_pairs,
        ),
        ("core.local.tgi.reduced_edge_frac", reduced, c.edges_initial),
        (
            "core.local.tgi.allocs_per_pair",
            per(tgi.allocs, c.tgi_pairs),
            c.tgi_pairs,
        ),
        ("core.local.tgi.share", share(tgi), q),
        (
            "core.local.nni.us_per_pair",
            nni.us_per(c.nni_pairs),
            c.nni_pairs,
        ),
        ("core.local.nni.pairs_frac", per(c.nni_pairs, pairs), pairs),
        (
            "core.local.nni.knn_searches_per_pair",
            per(c.knn_searches, c.nni_pairs),
            c.nni_pairs,
        ),
        (
            "core.local.nni.allocs_per_pair",
            per(nni.allocs, c.nni_pairs),
            c.nni_pairs,
        ),
        ("core.local.nni.share", share(nni), q),
        (
            "core.local.fallback_frac",
            per(c.fallback_pairs, pairs),
            pairs,
        ),
        (
            "core.local.routes_per_pair",
            per(c.local_routes, pairs),
            pairs,
        ),
        (
            "roadnet.oracle.fallback_us_per_call",
            orc.us_per(orc.calls),
            orc.calls,
        ),
        ("core.global.us_per_query", glob.us_per(q), q),
        ("core.global.us_per_pair", glob.us_per(pairs), pairs),
        ("core.global.allocs_per_query", per(glob.allocs, q), q),
        ("core.global.share", share(glob), q),
        (
            "trace.coverage",
            ratio(stages_ns as f64, root_wall as f64),
            q,
        ),
        (
            "trace.overhead_frac",
            ratio(root_wall as f64 - front, front),
            q,
        ),
        (
            "core.engine.overhead_frac",
            ratio(front - stages_ns as f64, front),
            q,
        ),
    ]);
}

/// `router.*`, from the interleaved pass over a sharded front.
fn router_rows(t: &mut Table, s: &ShardedEngine, il: &Interleaved, setup: &SetUp) {
    let n = il.traced as u64;
    let single = il.single_ns as f64;
    t.set(&[
        (
            "router.overhead_frac",
            ratio(il.front_ns as f64 - single, single),
            n,
        ),
        ("router.scatter_frac", per(il.scatter, n), n),
        ("router.shards_per_query", per(il.shards_touched, n), n),
        ("router.splices_per_query", per(il.splices, n), n),
        ("router.replication_factor", s.replication_factor(), 1),
        ("router.build_s", setup.build_s, 1),
        (
            "router.identity_mismatches",
            il.identity_mismatches as f64,
            n,
        ),
    ]);
}

/// `core.engine.batch_*`: `infer_batch` with the default configuration
/// against the sequential one, each on a fresh engine. Thread scaling,
/// recorded as it is: informational, not gated.
fn batch_rows(t: &mut Table, hris: &Hris<'_>, probe: &[Trajectory], k: usize) {
    let wall = |cfg: EngineConfig| {
        let engine = QueryEngine::with_config(hris, cfg);
        let t0 = Instant::now();
        black_box(engine.infer_batch(probe, k));
        secs(t0.elapsed())
    };
    let seq = wall(EngineConfig::sequential());
    let par = wall(EngineConfig::default());
    let threads = rayon::current_num_threads();
    t.set(&[
        (
            "core.engine.batch_speedup",
            ratio(seq, par),
            probe.len() as u64,
        ),
        ("core.engine.batch_threads", threads as f64, 1),
    ]);
}

/// `traj.snapshot.*` and `obs.*`: what only the live front pays for.
fn live_rows(
    t: &mut Table,
    on: &EngineHandle,
    writer: &ArchiveWriter,
    net: &Arc<RoadNetwork>,
    setup: &SetUp,
    probe: &[Trajectory],
    k: usize,
) {
    // Same queries, same live source, observability on vs. off; each handle
    // sees each query once, in alternating order.
    let mut off_cfg = live_config();
    off_cfg.obs.enabled = false;
    let off = EngineHandle::live(
        Arc::clone(net),
        writer.reader(),
        HrisParams::default(),
        off_cfg,
    );
    let time = |h: &EngineHandle, q: &Trajectory| {
        let t0 = Instant::now();
        black_box(h.infer_query(q, k));
        t0.elapsed().as_nanos() as f64
    };
    let (mut on_ns, mut off_ns) = (0.0, 0.0);
    for (i, q) in probe.iter().enumerate() {
        if i % 2 == 0 {
            on_ns += time(on, q);
            off_ns += time(&off, q);
        } else {
            off_ns += time(&off, q);
            on_ns += time(on, q);
        }
    }
    let obs = on.observability().expect("live front has observability on");
    let renders: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            black_box(obs.snapshot().to_prometheus());
            secs(t0.elapsed()) * 1e6
        })
        .collect();
    let gate = AdmissionGate::new(64, 256);
    let permits = 200_000u64;
    let t0 = Instant::now();
    for _ in 0..permits {
        black_box(gate.admit());
    }
    let permit_ns = t0.elapsed().as_nanos() as f64;
    let blob = setup.blob_bytes as f64;
    t.set(&[
        ("traj.snapshot.decode_s", setup.decode_s, 1),
        (
            "traj.snapshot.decode_mb_per_s",
            ratio(blob / 1e6, setup.decode_s),
            1,
        ),
        (
            "traj.snapshot.bytes_per_point",
            ratio(blob, setup.archive_points as f64),
            setup.archive_points as u64,
        ),
        (
            "obs.overhead_frac",
            ratio(on_ns - off_ns, off_ns),
            probe.len() as u64,
        ),
        ("obs.render_us", median(&renders), renders.len() as u64),
        ("obs.traces_dropped", obs.dropped_traces() as f64, 1),
        (
            "obs.admission_ns_per_permit",
            ratio(permit_ns, permits as f64),
            permits,
        ),
    ]);
}

/// Runs the traced pass of `spec`, sized for `seconds`; writes
/// `trace_<workload>.json` to `out`.
#[must_use]
pub fn run(
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    scale: Scale,
    declared: &[String],
    out: &Path,
) -> RunReport {
    let inp = generate(spec, seed, spec.rounds_for(seconds), scale);
    // Three disjoint slices of the query set: the live pass (`ingest_live`
    // only) and the interleaved pass from the front, the probes from the
    // far end.
    let traced = (inp.queries.len() / inp.round / TRACED_ROUNDS_DIV).max(MIN_TRACED_ROUNDS);
    let n_live = if spec.facade == Facade::Live {
        traced * inp.round
    } else {
        0
    };
    let n_probe = PROBE_QUERIES.min(inp.queries.len() / 4);
    let (live_pool, rest) = inp.queries.split_at(n_live);
    let (pool, rest) = rest.split_at(traced * inp.round);
    let probe: Vec<Trajectory> = rest[rest.len() - n_probe..]
        .iter()
        .map(|q| q.traj.clone())
        .collect();
    let params = HrisParams::default();
    let mut t = Table::new(declared);
    let origin = Instant::now();

    let mut meter = HostMeter::new();
    let (rec, il) = with_front(spec, &inp, &mut meter, |mut served| {
        let setup = served.setup;
        let net = Arc::clone(served.net);
        let mut rec = Recorder::new(origin);

        // ingest_live: a shorter live pass first, timed on both threads.
        if let Some(writer) = served.writer.as_deref_mut() {
            let offset = origin.elapsed();
            let (front, meter) = (served.front, &mut *served.meter);
            let run = live_loop(front, writer, &net, live_pool, &inp.chunks, spec, meter);
            let trips = inp.chunks[..run.chunks.len()].iter().map(Vec::len).sum();
            ingest_rows(&mut t, &mut rec, &run, offset, trips, writer);
        }

        // The archive the staged pipeline reads: what the front serves now.
        let archive = match served.writer.as_deref() {
            Some(w) => w.snapshot().archive().clone(),
            None => TrajectoryArchive::new(inp.trips.clone()),
        };
        let single = matches!(served.front, Front::Sharded(_)).then(|| {
            let cfg = serving_config();
            EngineHandle::with_config(Arc::clone(&net), archive.clone(), params.clone(), cfg)
        });
        let oracle = net.sp_oracle();
        let (h0, m0) = (oracle.hits(), oracle.misses());
        let mut staged = Staged::new(&net, &archive, rec);
        let il = interleave(spec, served.front, &mut staged, single.as_ref(), pool);
        let lookups = (oracle.hits() - h0) + (oracle.misses() - m0);
        let hit_frac = per(oracle.hits() - h0, lookups);
        let (rec, counts) = (staged.rec, staged.counts);
        stage_rows(&mut t, &rec, &counts, il.front_ns);

        let cs = served.front.cache_stats();
        let cand_lookups = cs.candidate_hits + cs.candidate_misses;
        let sp_lookups = cs.sp_hits + cs.sp_misses;
        t.set(&[
            ("roadnet.oracle.preprocess_s", setup.preprocess_s, 1),
            (
                "roadnet.oracle.cached_trees",
                oracle.cached_trees() as f64,
                1,
            ),
            ("roadnet.oracle.hit_frac", hit_frac, lookups),
            (
                "core.engine.cold_pass_s",
                setup.cold_pass_s,
                inp.warmup.len() as u64,
            ),
            (
                "core.engine.candidate_memo_hit_frac",
                per(cs.candidate_hits, cand_lookups),
                cand_lookups,
            ),
            (
                "core.engine.sp_cache_hit_frac",
                per(cs.sp_hits, sp_lookups),
                sp_lookups,
            ),
        ]);

        // --- probes outside the query path --------------------------------
        let t_range = Instant::now();
        let (mut hits, mut calls) = (0u64, 0u64);
        for p in pool.iter().flat_map(|q| &q.traj.points) {
            hits += black_box(archive.points_within(p.pos, params.phi_m)).len() as u64;
            calls += 1;
        }
        let range_us = secs(t_range.elapsed()) * 1e6;
        let t_index = Instant::now();
        black_box(TrajectoryArchive::new(archive.trajectories().to_vec()));
        t.set(&[
            (
                "traj.archive.range_us_per_call",
                ratio(range_us, calls as f64),
                calls,
            ),
            ("traj.archive.range_hits_per_call", per(hits, calls), calls),
            ("traj.archive.index_build_s", secs(t_index.elapsed()), 1),
        ]);
        match (served.front, served.writer.as_deref()) {
            (Front::Engine(engine), _) => batch_rows(&mut t, engine.hris(), &probe, spec.k),
            (Front::Sharded(s), _) => router_rows(&mut t, s, &il, &setup),
            (Front::Handle(on), Some(w)) => live_rows(&mut t, on, w, &net, &setup, &probe, spec.k),
            (Front::Handle(_), None) => {}
        }
        (rec, il)
    });

    let mut notes = Vec::new();
    if il.staged_mismatches > 0 {
        notes.push(format!(
            "{} staged answers differ from the front's: the trace measures a different program",
            il.staged_mismatches
        ));
    }
    if il.identity_mismatches > 0 {
        notes.push(format!(
            "{} partition-respecting queries differ from the single engine",
            il.identity_mismatches
        ));
    }
    let coverage = t.get("trace.coverage").value;
    if coverage < MIN_COVERAGE {
        notes.push(format!("trace.coverage {coverage:.3} < {MIN_COVERAGE}"));
    }
    let trace_doc = json!({
        "workload": spec.name,
        "seed": seed,
        "clock": "nanoseconds since the start of the traced pass",
        "spans": rec.to_json(),
    });
    let path = out.join(format!("trace_{}.json", spec.name));
    if let Err(e) = std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(&path, trace_doc.render_compact()))
    {
        notes.push(format!("could not write {}: {e}", path.display()));
    }

    let failed = il.staged_mismatches + il.identity_mismatches;
    let sharded = spec.facade == Facade::Sharded;
    RunReport {
        workload: spec.name.to_string(),
        seed,
        traced: true,
        attempted: il.traced * if sharded { 2 } else { 1 },
        failed,
        correct: failed == 0 && coverage >= MIN_COVERAGE,
        rows: t.0,
        extra: Vec::new(),
        notes,
        queries_fnv: query_set_checksum(&inp.queries),
        answers_fnv: 0,
    }
}
