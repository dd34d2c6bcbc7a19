//! Golden snapshot of the per-query record's JSON.
//!
//! The record below is built by hand, so its rendering is
//! byte-deterministic. It exercises every corner of the JSON text format:
//! span attributes of all three kinds, strings that need escaping,
//! non-finite floats (rendered as `null`), and `u64` ids above `i64::MAX`
//! (rendered exactly). A second line pins the empty default record.
//!
//! To regenerate after an *intentional* format change:
//! `BLESS=1 cargo test -p hris-obs --test golden_record` and commit the
//! rewritten `golden_record.json`.

use hris_obs::{AttrValue, QueryRecord, RouteExplanation, Span};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_record.json");

/// A fixed record with a three-span tree and two explained routes.
fn record() -> QueryRecord {
    let root = u64::MAX - 3;
    let local = u64::MAX - 2;
    QueryRecord {
        trace_id: u64::MAX - 6,
        query_id: 42,
        points: 4,
        pairs: 3,
        candidates: 11,
        routes: 2,
        top_log_score: Some(-3.25),
        candidates_s: 0.000_125,
        local_s: 0.0625,
        global_s: f64::NAN,
        refine_s: 1e-7,
        total_s: 0.1,
        slow: true,
        outcome: "repaired",
        candidates_per_point: vec![3, 2, 4, 2],
        local_routes_per_pair: vec![1, 2, 0],
        explanations: vec![
            RouteExplanation {
                rank: 0,
                log_score: -3.25,
                segments: 17,
                length_m: 2345.5,
                local_indices: vec![0, 1, 0],
                features: vec![
                    ("turn_count", 4.0),
                    ("length_ratio", 1.0625),
                    ("popularity", f64::INFINITY),
                ],
            },
            RouteExplanation {
                rank: 1,
                log_score: -7.0,
                segments: 19,
                length_m: 2610.0,
                local_indices: vec![0, 0, 0],
                features: Vec::new(),
            },
        ],
        events: vec![
            "repair: \"dup\" point\tdropped \\ at\nline 2\u{1}".to_string(),
            "degraded: 1 pairs fell back (caf\u{e9})".to_string(),
        ],
        root_span: root,
        spans: vec![
            Span {
                id: root,
                parent: 0,
                name: "query".to_string(),
                start_s: 0.0,
                duration_s: 0.1,
                attrs: vec![
                    ("k".to_string(), AttrValue::Int(2)),
                    (
                        "mode".to_string(),
                        AttrValue::Text("seq \"a\\b\"".to_string()),
                    ),
                    ("score".to_string(), AttrValue::Float(-0.5)),
                ],
            },
            Span {
                id: local,
                parent: root,
                name: "local".to_string(),
                start_s: 0.0003,
                duration_s: 0.0625,
                attrs: vec![
                    ("nan".to_string(), AttrValue::Float(f64::NAN)),
                    ("neg".to_string(), AttrValue::Int(-7)),
                    ("big".to_string(), AttrValue::Float(1e21)),
                ],
            },
            Span {
                id: 9_007_199_254_740_993,
                parent: local,
                name: "pair\u{7}".to_string(),
                start_s: 0.001,
                duration_s: 2.5e-5,
                attrs: Vec::new(),
            },
        ],
    }
}

fn rendered() -> String {
    format!(
        "{}\n{}\n",
        record().to_json(),
        QueryRecord::default().to_json()
    )
}

#[test]
fn record_json_matches_golden() {
    let got = rendered();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with BLESS=1 to generate it");
    assert!(
        got == want,
        "QueryRecord JSON drifted from golden.\n--- got ---\n{got}\n--- want ---\n{want}"
    );
}
