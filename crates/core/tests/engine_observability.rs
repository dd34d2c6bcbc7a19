//! Integration tests of the engine's observability layer: metric/record
//! accounting must be exact where the workload is deterministic (counts)
//! and internally consistent where it is not (wall times), and the one
//! per-query record is an observer, not a participant — answers stay
//! byte-identical with the ring on, and each record explains exactly the
//! routes that were returned.

use hris::scoring::FEATURE_NAMES;
use hris::{
    EngineConfig, EngineHandle, ExecMode, Hris, HrisParams, ObsOptions, QueryEngine, QueryResult,
};
use hris_geo::Point;
use hris_obs::{Admission, MetricsRegistry};
use hris_roadnet::{generator, NetworkConfig};
use hris_traj::{resample_to_interval, GpsPoint, SimConfig, Simulator, TrajId, Trajectory};
use std::sync::Arc;

fn scenario() -> (Hris<'static>, Vec<Trajectory>) {
    let net: &'static _ = Box::leak(Box::new(generator::generate(&NetworkConfig::small(21))));
    let mut sim = Simulator::new(
        net,
        SimConfig {
            num_trips: 200,
            num_od_patterns: 8,
            min_trip_dist_m: 800.0,
            seed: 7,
            ..SimConfig::default()
        },
    );
    let (archive, routes) = sim.generate_archive();
    let mut queries = Vec::new();
    for (i, r) in routes.iter().step_by(routes.len() / 3).take(3).enumerate() {
        let pts = hris_traj::simulator::drive_route(net, r, 0.0, 20.0, 0.8).unwrap();
        queries.push(resample_to_interval(
            &Trajectory::new(TrajId(i as u32), pts),
            240.0,
        ));
    }
    (Hris::new(net, archive, HrisParams::default()), queries)
}

/// One query per outcome the screen can produce, in order: clean,
/// repaired, degraded, rejected (no usable point), rejected (empty).
fn mixed_outcome_corpus(hris: &Hris<'_>, base: &Trajectory) -> [Trajectory; 5] {
    // Out-of-order timestamps: repaired by re-sorting.
    let mut scrambled = base.points.clone();
    let n = scrambled.len();
    scrambled.swap(1, n - 2);
    // A poisoned point (repair) in front of a corner-to-corner hop one
    // second long: no archived trip makes it, so the pair falls back.
    let bbox = hris.network().bbox();
    let hop = vec![
        GpsPoint::new(Point::new(f64::NAN, 0.0), 0.0),
        GpsPoint::new(bbox.min, 1.0),
        GpsPoint::new(bbox.max, 2.0),
    ];
    let garbage = vec![GpsPoint::new(Point::new(f64::NAN, 0.0), 0.0)];
    [
        base.clone(),
        Trajectory::from_unchecked(TrajId(90), scrambled),
        Trajectory::from_unchecked(TrajId(91), hop),
        Trajectory::from_unchecked(TrajId(92), garbage),
        Trajectory::new(TrajId(93), vec![]),
    ]
}

#[test]
fn query_and_batch_counters_are_exact() {
    let (hris, queries) = scenario();
    let engine = QueryEngine::with_config(
        &hris,
        EngineConfig::builder().observability(true).build().unwrap(),
    );
    let _ = engine.infer_batch(&queries, 2);
    let _ = engine.infer_batch(&queries, 2);
    let _ = engine.infer_query(&queries[0], 2);

    let snap = engine.observability().unwrap().snapshot();
    let served = (2 * queries.len() + 1) as u64;
    assert_eq!(snap.counter("hris_engine_queries_total"), Some(served));
    assert_eq!(snap.counter("hris_engine_batches_total"), Some(2));
    // Phase histograms saw every query exactly once each.
    for phase in ["candidates", "local", "global", "refine"] {
        let h = snap
            .histogram("hris_engine_phase_seconds", &[("phase", phase)])
            .unwrap_or_else(|| panic!("phase histogram `{phase}` missing"));
        assert_eq!(h.count, served, "phase `{phase}` count");
    }
    let q = snap.histogram("hris_engine_query_seconds", &[]).unwrap();
    assert_eq!(q.count, served);
    // Gauges are back to idle after the batches drained.
    assert_eq!(snap.gauge("hris_engine_queue_depth"), Some(0));
    assert_eq!(snap.gauge("hris_engine_workers_busy"), Some(0));
}

#[test]
fn sp_oracle_metrics_are_registered_and_live() {
    let (hris, queries) = scenario();
    let engine = QueryEngine::with_config(
        &hris,
        EngineConfig::builder().observability(true).build().unwrap(),
    );
    // Registered at engine construction, before any query runs.
    let snap = engine.observability().unwrap().snapshot();
    assert_eq!(snap.counter("hris_sp_oracle_hits_total"), Some(0));
    assert_eq!(snap.counter("hris_sp_oracle_misses_total"), Some(0));
    let micros = snap
        .gauge("hris_sp_oracle_preprocessing_micros")
        .expect("preprocessing gauge registered");
    assert!(micros >= 0);

    // The registered pair is live: oracle traffic moves the exported
    // counters without re-registration.
    let _ = engine.infer_batch(&queries, 2);
    let oracle = hris.network().sp_oracle();
    let snap = engine.observability().unwrap().snapshot();
    assert_eq!(
        snap.counter("hris_sp_oracle_hits_total"),
        Some(oracle.hits())
    );
    assert_eq!(
        snap.counter("hris_sp_oracle_misses_total"),
        Some(oracle.misses())
    );
}

#[test]
fn traces_account_for_every_query() {
    let (hris, queries) = scenario();
    let engine = QueryEngine::with_config(
        &hris,
        EngineConfig::builder().observability(true).build().unwrap(),
    );
    let _ = engine.infer_batch(&queries, 2);

    let obs = engine.observability().unwrap();
    let traces = obs.traces();
    assert_eq!(traces.len(), queries.len());
    for (t, q) in traces.iter().zip(&queries) {
        assert_eq!(t.points, q.len());
        assert_eq!(t.pairs, q.len().saturating_sub(1));
        assert!(t.total_s >= 0.0);
        // Phase times never exceed the query total.
        let phases = t.candidates_s + t.local_s + t.global_s + t.refine_s;
        assert!(
            phases <= t.total_s * 1.001,
            "phases {phases} > total {}",
            t.total_s
        );
        // At least one candidate edge per query point.
        assert!(t.candidates >= q.len());
    }
    // Query ids are the engine's own monotonic sequence.
    let ids: Vec<u64> = traces.iter().map(|t| t.query_id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate query ids: {ids:?}");

    // `cache_stats` is a view of the one shortest-path cache, the
    // network's oracle, and the registry exports the same pair.
    let stats = engine.cache_stats();
    let oracle = hris.network().sp_oracle();
    assert_eq!(
        (stats.sp_hits, stats.sp_misses),
        (oracle.hits(), oracle.misses())
    );
    assert_eq!((stats.candidate_hits, stats.candidate_misses), (0, 0));
    let snap = obs.snapshot();
    assert_eq!(
        snap.counter("hris_sp_oracle_hits_total"),
        Some(stats.sp_hits)
    );
}

#[test]
fn slow_query_threshold_flags_and_counts() {
    let (hris, queries) = scenario();
    // A zero threshold makes every real query "slow".
    let cfg = EngineConfig {
        obs: ObsOptions {
            enabled: true,
            slow_query_threshold_s: 0.0,
            ..ObsOptions::default()
        },
        ..EngineConfig::default()
    };
    let engine = QueryEngine::with_config(&hris, cfg);
    let _ = engine.infer_batch(&queries, 2);
    let obs = engine.observability().unwrap();
    assert!(obs.traces().iter().all(|t| t.slow));
    assert_eq!(
        obs.snapshot().counter("hris_engine_slow_queries_total"),
        Some(queries.len() as u64)
    );
}

#[test]
fn trace_ring_evicts_oldest_and_counts_drops() {
    let (hris, queries) = scenario();
    let cfg = EngineConfig {
        obs: ObsOptions {
            enabled: true,
            trace_capacity: 2,
            ..ObsOptions::default()
        },
        mode: ExecMode::Sequential,
        batch_parallel: false,
        ..EngineConfig::default()
    };
    let engine = QueryEngine::with_config(&hris, cfg);
    let _ = engine.infer_batch(&queries, 2); // 3 queries into a 2-slot ring
    let obs = engine.observability().unwrap();
    let traces = obs.traces();
    assert_eq!(traces.len(), 2);
    assert_eq!(obs.dropped_traces(), 1);
    // Sequential batch → the two *newest* queries survive.
    // (Query ids start at 1.)
    assert_eq!(traces[0].query_id, 2);
    assert_eq!(traces[1].query_id, 3);
    assert_eq!(
        obs.snapshot().counter("hris_engine_traces_dropped_total"),
        Some(1)
    );
    // Draining empties the ring but keeps the metrics.
    assert_eq!(obs.trace_ring().drain().len(), 2);
    assert!(obs.traces().is_empty());
    assert_eq!(
        obs.snapshot().counter("hris_engine_queries_total"),
        Some(queries.len() as u64)
    );
}

#[test]
fn zero_trace_capacity_keeps_aggregates_only() {
    let (hris, queries) = scenario();
    let cfg = EngineConfig {
        obs: ObsOptions {
            enabled: true,
            trace_capacity: 0,
            ..ObsOptions::default()
        },
        ..EngineConfig::default()
    };
    let engine = QueryEngine::with_config(&hris, cfg);
    let _ = engine.infer_batch(&queries, 2);
    let obs = engine.observability().unwrap();
    assert!(obs.traces().is_empty());
    assert_eq!(
        obs.snapshot().counter("hris_engine_queries_total"),
        Some(queries.len() as u64)
    );
}

#[test]
fn sampled_queries_carry_complete_span_trees() {
    let (hris, queries) = scenario();
    // A vanishing threshold marks every query slow; 1-in-1 sampling gives
    // every tree its per-pair detail.
    let cfg = EngineConfig::builder()
        .observability(true)
        .span_sampling(1)
        .slow_query_threshold_s(1e-12)
        .build()
        .unwrap();
    let engine = QueryEngine::with_config(&hris, cfg);
    let _ = engine.infer_batch(&queries, 2);

    let obs = engine.observability().unwrap();
    let traces = obs.traces();
    assert_eq!(traces.len(), queries.len());
    for t in &traces {
        assert!(t.slow);
        assert_ne!(t.root_span, 0, "sampled trace must name its root span");
        let root = t
            .spans
            .iter()
            .find(|s| s.id == t.root_span)
            .expect("root span present in tree");
        assert_eq!(root.name, "query");
        assert_eq!(root.parent, 0);
        // Every span's parent resolves within the same tree.
        let ids: std::collections::HashSet<u64> = t.spans.iter().map(|s| s.id).collect();
        for s in &t.spans {
            assert!(
                s.parent == 0 || ids.contains(&s.parent),
                "span `{}` has dangling parent {}",
                s.name,
                s.parent
            );
        }
        // The four pipeline phases hang off the root and account for at
        // least 90% of the query span's wall time.
        let mut phase_total = 0.0;
        for phase in ["candidates", "local", "global", "refine"] {
            let s = t
                .spans
                .iter()
                .find(|s| s.name == phase && s.parent == t.root_span)
                .unwrap_or_else(|| panic!("phase span `{phase}` missing"));
            phase_total += s.duration_s;
        }
        assert!(
            phase_total >= 0.90 * root.duration_s,
            "phase spans cover {phase_total}s of a {}s query",
            root.duration_s
        );
        // Per-pair children live under the `local` phase.
        let local_id = t
            .spans
            .iter()
            .find(|s| s.name == "local")
            .map(|s| s.id)
            .unwrap();
        let pair_spans = t.spans.iter().filter(|s| s.parent == local_id).count();
        assert_eq!(pair_spans, t.pairs, "one pair span per consecutive pair");
    }
}

/// The record is its tree: whatever the outcome and whatever the sampling
/// period, a traced query carries the phase spans it ran, and the record's
/// `*_s` fields are those spans' durations — one measurement, bit for bit.
/// Sampling only decides whether `local` carries per-pair children.
#[test]
fn every_trace_carries_its_phase_tree() {
    let (hris, queries) = scenario();
    let corpus = mixed_outcome_corpus(&hris, &queries[0]);
    for sample_every in [0, 1] {
        let engine = QueryEngine::with_config(
            &hris,
            EngineConfig::builder()
                .observability(true)
                .span_sampling(sample_every)
                .slow_query_threshold_s(1e-12)
                .build()
                .unwrap(),
        );
        let labels: Vec<&str> = corpus
            .iter()
            .map(|q| engine.infer_query(q, 2).outcome.label())
            .collect();
        assert_eq!(
            labels,
            ["ok", "repaired", "degraded", "rejected", "rejected"]
        );
        let obs = engine.observability().unwrap();
        let traces = obs.traces();
        assert_eq!(traces.len(), corpus.len());
        for (t, label) in traces.iter().zip(&labels) {
            let ctx = format!("{label} query at span_sampling({sample_every})");
            let roots: Vec<_> = t.spans.iter().filter(|s| s.parent == 0).collect();
            assert_eq!(roots.len(), 1, "{ctx}: exactly one root");
            let root = roots[0];
            assert_eq!(root.name, "query", "{ctx}");
            assert_eq!(root.id, t.root_span, "{ctx}");
            assert_eq!(root.duration_s.to_bits(), t.total_s.to_bits(), "{ctx}");
            for s in &t.spans {
                assert!(
                    s.parent == 0 || t.spans.iter().any(|p| p.id == s.parent),
                    "{ctx}: span `{}` has dangling parent {}",
                    s.name,
                    s.parent
                );
                assert!(
                    s.attrs.iter().all(|(k, _)| k != "synthetic"),
                    "{ctx}: span `{}` is not a measured one",
                    s.name
                );
            }
            // The phases that ran, in pipeline order (spans are sorted by
            // start), each with the record's duration; a phase that did not
            // run is absent from the tree and 0.0 in the record.
            let phases: Vec<_> = t.spans.iter().filter(|s| s.parent == root.id).collect();
            let names: Vec<&str> = phases.iter().map(|s| s.name.as_str()).collect();
            if *label == "rejected" {
                assert_eq!(names, ["global", "refine"], "{ctx}");
                assert_eq!((t.candidates_s, t.local_s), (0.0, 0.0), "{ctx}");
            } else {
                assert_eq!(names, ["candidates", "local", "global", "refine"], "{ctx}");
            }
            for phase in &phases {
                let recorded = match phase.name.as_str() {
                    "candidates" => t.candidates_s,
                    "local" => t.local_s,
                    "global" => t.global_s,
                    _ => t.refine_s,
                };
                assert_eq!(
                    phase.duration_s.to_bits(),
                    recorded.to_bits(),
                    "{ctx}: `{}`",
                    phase.name
                );
            }
            // Per-pair detail is what sampling governs.
            let pair_spans: Vec<_> = t.spans.iter().filter(|s| s.name == "pair").collect();
            let want_pairs = if sample_every == 1 { t.pairs } else { 0 };
            assert_eq!(pair_spans.len(), want_pairs, "{ctx}");
            let local = phases.iter().find(|s| s.name == "local");
            assert!(
                pair_spans
                    .iter()
                    .all(|p| Some(p.parent) == local.map(|l| l.id)),
                "{ctx}: pair spans hang under `local`"
            );
            assert_eq!(
                t.spans.len(),
                1 + phases.len() + want_pairs,
                "{ctx}: nothing else"
            );
            assert!(t.slow, "{ctx}: flagged by the threshold");
        }
        assert_eq!(
            obs.snapshot().counter("hris_engine_slow_queries_total"),
            Some(corpus.len() as u64)
        );
    }
}

#[test]
fn slo_burn_counters_partition_the_queries() {
    let (hris, queries) = scenario();
    // An unreachable threshold: every query lands on the good side.
    let engine = QueryEngine::with_config(
        &hris,
        EngineConfig::builder()
            .observability(true)
            .slow_query_threshold_s(1e9)
            .build()
            .unwrap(),
    );
    let _ = engine.infer_batch(&queries, 2);
    let snap = engine.observability().unwrap().snapshot();
    let n = queries.len() as u64;
    assert_eq!(snap.counter("hris_engine_slo_good_total"), Some(n));
    assert_eq!(snap.counter("hris_engine_slo_breach_total"), Some(0));

    // And the inverse: a vanishing threshold burns the whole budget.
    let engine = QueryEngine::with_config(
        &hris,
        EngineConfig::builder()
            .observability(true)
            .slow_query_threshold_s(1e-12)
            .build()
            .unwrap(),
    );
    let _ = engine.infer_batch(&queries, 2);
    let snap = engine.observability().unwrap().snapshot();
    assert_eq!(snap.counter("hris_engine_slo_good_total"), Some(0));
    assert_eq!(snap.counter("hris_engine_slo_breach_total"), Some(n));
}

/// Every counted query lands in exactly one SLO bucket, whatever its
/// outcome: clean, repaired and degraded answers and validation rejections
/// by their measured latency, an admission shed as a breach.
#[test]
fn slo_buckets_partition_a_mixed_outcome_corpus() {
    let (hris, queries) = scenario();
    let handle = EngineHandle::with_config(
        Arc::new(hris.network().clone()),
        hris.archive().clone(),
        HrisParams::default(),
        EngineConfig::builder()
            .observability(true)
            .admission(1, 0)
            .build()
            .unwrap(),
    );
    let base = &queries[0];
    let corpus = mixed_outcome_corpus(&hris, base);
    let mut labels: Vec<&str> = corpus
        .iter()
        .map(|q| handle.infer_query(q, 2).outcome.label())
        .collect();
    // Occupy the only slot: with no waiting room the next query is shed.
    let gate = handle.admission_gate().expect("gate configured");
    let Admission::Admitted(permit) = gate.admit() else {
        panic!("idle gate must admit")
    };
    labels.push(handle.infer_query(base, 2).outcome.label());
    drop(permit);
    assert_eq!(
        labels,
        ["ok", "repaired", "degraded", "rejected", "rejected", "rejected"]
    );

    let obs = handle.observability().unwrap();
    let snap = obs.snapshot();
    let counter = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    let served = labels.len() as u64;
    assert_eq!(counter("hris_engine_queries_total"), served);
    assert_eq!(
        counter("hris_engine_slo_good_total") + counter("hris_engine_slo_breach_total"),
        served,
        "every counted query lands in exactly one SLO bucket"
    );
    assert_eq!(counter("hris_engine_shed_total"), 1);
    // Everything but the shed ran the timed pipeline: one latency sample
    // each. Every query, the shed included, left one record.
    let q = snap.histogram("hris_engine_query_seconds", &[]).unwrap();
    assert_eq!(q.count, served - 1);
    let outcomes: Vec<&str> = obs.traces().iter().map(|r| r.outcome).collect();
    assert_eq!(
        outcomes,
        ["served", "repaired", "degraded", "rejected", "rejected", "shed"]
    );
}

#[test]
fn shared_registry_collects_engine_metrics() {
    let (hris, queries) = scenario();
    let registry = Arc::new(MetricsRegistry::new());
    // A caller-owned metric lives alongside the engine's.
    let own = registry.counter("my_harness_runs_total", "Harness runs.");
    own.inc();
    let engine = QueryEngine::with_registry(&hris, EngineConfig::default(), registry.clone());
    assert!(engine.config().obs.enabled, "with_registry implies obs");
    let _ = engine.infer_batch(&queries, 2);

    let snap = registry.snapshot();
    assert_eq!(snap.counter("my_harness_runs_total"), Some(1));
    assert_eq!(
        snap.counter("hris_engine_queries_total"),
        Some(queries.len() as u64)
    );
    // The exported text carries both families.
    let text = snap.to_prometheus();
    assert!(text.contains("my_harness_runs_total 1"));
    assert!(text.contains("# TYPE hris_engine_phase_seconds histogram"));
}

fn assert_identical(a: &QueryResult, b: &QueryResult, ctx: &str) {
    assert_eq!(a.outcome, b.outcome, "{ctx}: outcome");
    assert_eq!(a.globals.len(), b.globals.len(), "{ctx}: top-K length");
    for (i, (ga, gb)) in a.globals.iter().zip(&b.globals).enumerate() {
        assert_eq!(ga.route, gb.route, "{ctx}: route {i}");
        assert_eq!(
            ga.log_score.to_bits(),
            gb.log_score.to_bits(),
            "{ctx}: score bits {i}"
        );
        assert_eq!(ga.local_indices, gb.local_indices, "{ctx}: assignment {i}");
    }
}

#[test]
fn records_leave_outputs_byte_identical() {
    let (hris, queries) = scenario();
    let plain = QueryEngine::with_config(&hris, EngineConfig::default());
    let recorded = QueryEngine::with_config(
        &hris,
        EngineConfig::builder()
            .observability(true)
            .span_sampling(1)
            .build()
            .expect("static engine configuration"),
    );
    let mut workload = queries.clone();
    workload.extend(mixed_outcome_corpus(&hris, &queries[0]));
    for (qi, q) in workload.iter().enumerate() {
        let want = plain.infer_query(q, 3);
        let got = recorded.infer_query(q, 3);
        assert_identical(&got, &want, &format!("query {qi}"));
    }
    // Every query recorded, under a fresh trace id and query id each.
    let recs = recorded.observability().expect("obs is on").traces();
    assert_eq!(recs.len(), workload.len());
    let mut ids: Vec<u64> = recs.iter().map(|r| r.trace_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), recs.len(), "one distinct trace id per record");
    assert!(recs.iter().all(|r| r.trace_id != 0 && r.query_id != 0));
}

#[test]
fn records_explain_the_returned_routes() {
    let (hris, queries) = scenario();
    let engine = QueryEngine::with_config(
        &hris,
        EngineConfig::builder()
            .observability(true)
            .build()
            .expect("static engine configuration"),
    );
    let q = &queries[0];
    let result = engine.infer_query(q, 3);
    assert!(
        result.globals.len() > 1,
        "workload query must serve k routes"
    );
    let rec = engine
        .observability()
        .expect("obs is on")
        .traces()
        .pop()
        .expect("served query recorded");
    assert_eq!(rec.outcome, "served");
    assert_eq!(rec.points, q.points.len());
    assert_eq!(rec.candidates_per_point.len(), q.points.len());
    assert_eq!(
        rec.candidates_per_point.iter().sum::<usize>(),
        rec.candidates
    );
    assert_eq!(rec.local_routes_per_pair.len(), q.points.len() - 1);

    // Every returned route explained: ranks in order, scores matching the
    // returned routes bit for bit — in the record and through its JSON
    // (the shortest-roundtrip formatter keeps f64s exact).
    let v: serde_json::Value = serde_json::from_str(&rec.to_json()).expect("valid record json");
    let routes = v
        .get("explanations")
        .and_then(|r| r.as_array())
        .expect("explanations array");
    assert_eq!(rec.explanations.len(), result.globals.len());
    assert_eq!(routes.len(), result.globals.len());
    for (rank, ((expl, route), global)) in rec
        .explanations
        .iter()
        .zip(routes)
        .zip(&result.globals)
        .enumerate()
    {
        assert_eq!(expl.rank, rank);
        assert_eq!(expl.log_score.to_bits(), global.log_score.to_bits());
        assert_eq!(expl.segments, global.route.len());
        assert_eq!(expl.local_indices, global.local_indices);
        assert_eq!(
            route.get("rank").and_then(|r| r.as_u64()),
            Some(rank as u64)
        );
        let score = route
            .get("log_score")
            .and_then(|s| s.as_f64())
            .expect("numeric log_score");
        assert_eq!(score.to_bits(), global.log_score.to_bits());
        // The feature vector is the route's own: every feature named, in
        // order, and its `log_score` component is the returned score.
        let features = route.get("features").expect("feature object");
        let names: Vec<&str> = features
            .as_obj()
            .expect("feature object")
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(names, FEATURE_NAMES);
        let feature_score = features
            .get("log_score")
            .and_then(|s| s.as_f64())
            .expect("numeric log_score feature");
        assert_eq!(feature_score.to_bits(), global.log_score.to_bits());
    }
}
