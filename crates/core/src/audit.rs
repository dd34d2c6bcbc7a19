//! *Why* a query returned what it did: the explaining half of its
//! [`QueryRecord`].
//!
//! Aggregate metrics say how the engine is doing; a query's record says
//! what that one query saw — how many candidate edges each point matched,
//! how many local routes each pair produced, every returned route with the
//! paper's own score and its feature values, and any repair / fallback /
//! shed events along the way. [`explain`] fills that half from the
//! query's [`QueryResult`] and the [`ScoringCtx`] its routes were ranked
//! in; the engine and the sharded router both call it, and the record
//! lands in the front's one trace ring, where `/debug/traces` and
//! `/debug/explain/<trace_id>` read it.
//!
//! The explaining lives here (not in `hris-obs`) because it is defined by
//! the paper's pipeline: the score is Equations 1/2 through K-GRI and the
//! features are [`FEATURE_NAMES`] order.

use crate::engine::{QueryOutcome, QueryResult, RejectReason};
use crate::scoring::{extract_features, PaperScorer, ScoringCtx, FEATURE_NAMES};
use hris_obs::{QueryRecord, RouteExplanation};
use hris_traj::PointRepairs;

/// Fills `rec`'s outcome label and events from `result`, and — when
/// `scoring` names the context the routes were ranked in — its per-pair
/// local route counts and one explanation per returned route (score,
/// shape and feature values, extracted with the popularity knobs the
/// scorer ranked with, so the features line up with the DP's own `f`).
///
/// `scoring` is `None` where the recording front did not rank the routes
/// itself: an admission shed, a router-side rejection, or a query the
/// router delegated whole (its shard's record explains the routes).
/// `rec.points` must be the point count the pipeline served (after
/// repair): the repair event reports drops against it.
pub fn explain(
    rec: &mut QueryRecord,
    result: &QueryResult,
    scoring: Option<(&ScoringCtx<'_>, &PaperScorer)>,
) {
    let points = rec.points;
    let repair_event = |repairs: PointRepairs| {
        format!(
            "repair: sanitization dropped {} of {} points",
            repairs.points_dropped(),
            points + repairs.points_dropped()
        )
    };
    rec.outcome = match result.outcome {
        QueryOutcome::Ok => "served",
        QueryOutcome::Repaired { repairs } => {
            rec.events.push(repair_event(repairs));
            "repaired"
        }
        QueryOutcome::Degraded {
            repairs,
            pairs_fell_back,
        } => {
            // A router demoting a clean query for a reroute repaired
            // nothing.
            if repairs.any() {
                rec.events.push(repair_event(repairs));
            }
            rec.events
                .push(format!("degraded: {pairs_fell_back} pairs fell back"));
            "degraded"
        }
        QueryOutcome::Rejected {
            reason: RejectReason::Overloaded,
        } => {
            rec.events
                .push("admission: waiting room full, query shed".to_string());
            "shed"
        }
        QueryOutcome::Rejected { reason } => {
            rec.events.push(format!("rejected: {reason:?}"));
            "rejected"
        }
    };
    let unreachable = result.stats.iter().filter(|s| s.nni_unreachable).count();
    if unreachable > 0 {
        rec.events.push(format!(
            "nni: destination unreachable in {unreachable} of {} pairs \
             (shortest-path candidates only)",
            result.stats.len()
        ));
    }
    let Some((ctx, scorer)) = scoring else { return };
    rec.local_routes_per_pair = ctx.locals.iter().map(|l| l.routes.len()).collect();
    rec.explanations = result
        .globals
        .iter()
        .enumerate()
        .map(|(rank, g)| {
            let features = extract_features(ctx, g, scorer.entropy_floor, scorer.model);
            RouteExplanation {
                rank,
                log_score: g.log_score,
                segments: g.route.len(),
                length_m: g.route.length(ctx.net),
                local_indices: g.local_indices.clone(),
                features: FEATURE_NAMES.into_iter().zip(features.to_array()).collect(),
            }
        })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(points: usize, result: &QueryResult) -> QueryRecord {
        let mut rec = QueryRecord {
            points,
            ..QueryRecord::default()
        };
        explain(&mut rec, result, None);
        rec
    }

    #[test]
    fn audit_json_shape_and_escaping() {
        let result = QueryResult::rejected(RejectReason::EmptyQuery);
        let mut rec = record(0, &result);
        rec.trace_id = 7;
        rec.query_id = 3;
        rec.candidates_per_point = vec![2, 3, 1, 2];
        rec.local_routes_per_pair = vec![5, 4, 6];
        rec.events
            .push("repair: pair 1 fell back to \"shortest path\"".to_string());
        let j = rec.to_json();
        assert!(j.starts_with("{\"trace_id\":7,\"query_id\":3,"));
        assert!(j.contains("\"candidates_per_point\":[2,3,1,2]"));
        assert!(j.contains("\"local_routes_per_pair\":[5,4,6]"));
        assert!(j.contains("fell back to \\\"shortest path\\\""));
        assert!(j.contains("\"explanations\":[]"));
        assert!(j.contains("\"outcome\":\"rejected\""));
        assert!(serde_json::from_str(&j).is_ok());
    }

    #[test]
    fn constructors_label_the_outcome_and_its_events() {
        let repairs = PointRepairs {
            dropped_non_finite: 1,
            ..PointRepairs::default()
        };
        let of = |outcome| {
            let result = QueryResult {
                outcome,
                ..QueryResult::rejected(RejectReason::EmptyQuery)
            };
            record(4, &result)
        };
        let ok = of(QueryOutcome::Ok);
        assert_eq!(ok.outcome, "served");
        assert!(ok.events.is_empty());
        let repaired = of(QueryOutcome::served(Some(repairs), 0));
        assert_eq!(repaired.outcome, "repaired");
        assert_eq!(
            repaired.events,
            ["repair: sanitization dropped 1 of 5 points"]
        );
        let degraded = of(QueryOutcome::served(Some(repairs), 2));
        assert_eq!(degraded.outcome, "degraded");
        assert_eq!(degraded.events.len(), 2);
        assert_eq!(degraded.events[1], "degraded: 2 pairs fell back");
        // A reroute demotes a clean query without repairing anything.
        let rerouted = of(QueryOutcome::Degraded {
            repairs: PointRepairs::default(),
            pairs_fell_back: 1,
        });
        assert_eq!(rerouted.events, ["degraded: 1 pairs fell back"]);
        let rejected = record(0, &QueryResult::rejected(RejectReason::EmptyQuery));
        assert_eq!(rejected.outcome, "rejected");
        assert!(rejected.explanations.is_empty());
        assert_eq!(rejected.events, ["rejected: EmptyQuery"]);
        // Pairs whose NNI transit graph could not reach q_{i+1} get one line.
        let unreachable = crate::local::LocalStats {
            nni_unreachable: true,
            ..Default::default()
        };
        let result = QueryResult {
            outcome: QueryOutcome::Ok,
            stats: vec![unreachable.clone(), Default::default(), unreachable],
            ..QueryResult::rejected(RejectReason::EmptyQuery)
        };
        assert_eq!(
            record(4, &result).events,
            ["nni: destination unreachable in 2 of 3 pairs (shortest-path candidates only)"]
        );
        // An admission shed is the one rejection with its own label.
        let shed = record(3, &QueryResult::rejected(RejectReason::Overloaded));
        assert_eq!(shed.outcome, "shed");
        assert_eq!(shed.events, ["admission: waiting room full, query shed"]);
    }

    #[test]
    fn route_explanation_renders_score_and_features() {
        use crate::pipeline::{degenerate_local, DegenerateQuery};
        use crate::scoring::RouteScorer;
        use hris_geo::Point;
        use hris_roadnet::{generator, NetworkConfig};
        use hris_traj::{GpsPoint, TrajId, Trajectory};

        // A one-point query: one local route, scored by the real scorer.
        let net = generator::generate(&NetworkConfig::small(5));
        let q = Trajectory::new(TrajId(0), vec![GpsPoint::new(Point::new(80.0, 90.0), 0.0)]);
        let DegenerateQuery::Single(local) = degenerate_local(&net, &q) else {
            panic!("a point on the network maps to its nearest segment");
        };
        let locals = vec![local];
        let ctx = ScoringCtx::new(&net, &locals, 3);
        let scorer = PaperScorer::from_params(&crate::HrisParams::default());
        let result = QueryResult {
            globals: scorer.top_k(&ctx),
            outcome: QueryOutcome::Ok,
            ..QueryResult::rejected(RejectReason::EmptyQuery)
        };
        let mut rec = QueryRecord {
            points: 1,
            ..QueryRecord::default()
        };
        explain(&mut rec, &result, Some((&ctx, &scorer)));
        assert_eq!(rec.local_routes_per_pair, [1]);
        let [expl] = rec.explanations.as_slice() else {
            panic!("one route, one explanation: {:?}", rec.explanations);
        };
        let global = &result.globals[0];
        assert_eq!((expl.rank, expl.segments), (0, global.route.len()));
        assert_eq!(expl.log_score.to_bits(), global.log_score.to_bits());
        assert_eq!(expl.local_indices, global.local_indices);
        let names: Vec<&str> = expl.features.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, FEATURE_NAMES);
        let j = expl.to_value().to_string();
        assert!(j.starts_with("{\"rank\":0,\"log_score\":"));
        assert!(j.contains("\"features\":{\"turn_count\":"));
        assert!(serde_json::from_str(&j).is_ok());
    }
}
