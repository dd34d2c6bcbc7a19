//! Every pair's scores under the index its local inference returns equal
//! the scores under the full `RefEdgeIndex::build`, bit for bit.
//!
//! NNI pairs return an index restricted to their routes' segments (and to
//! the shortest-path fallback a pair without routes carries); TGI pairs
//! return the full one. Either way, every reader sweeps route segments
//! only, so popularity under both models and `refs_on_route` must not move
//! for any route a pair can end up carrying. The default run checks a
//! sample of the quick scenario; the ignored run checks every pair of it at
//! three seeds:
//!
//! ```text
//! cargo test --release --test pair_index_differential -- --ignored
//! ```

use hris::local::{route_popularity_with, RefEdgeIndex};
use hris::{Hris, HrisParams, LocalAlgorithm, PopularityModel};
use hris_eval::scenario::{Scenario, ScenarioConfig};
use hris_traj::resample_to_interval;

/// Pairs and routes checked, and how many pairs returned an index smaller
/// than the full one.
#[derive(Default, Debug)]
struct Checked {
    pairs: usize,
    routes: usize,
    restricted: usize,
}

fn check(s: &Scenario, seed: u64, queries: usize, intervals: &[f64]) -> Checked {
    let mut checked = Checked::default();
    for alg in [LocalAlgorithm::Hybrid, LocalAlgorithm::Nni] {
        let params = HrisParams {
            local_algorithm: alg,
            ..HrisParams::default()
        };
        let eps = params.candidate_eps_m;
        let hris = Hris::new(&s.net, s.archive.clone(), params);
        for (qi, q) in s.queries.iter().take(queries).enumerate() {
            for &interval in intervals {
                let query = resample_to_interval(&q.dense, interval);
                for (pi, local) in hris.local_inference(&query).iter().enumerate() {
                    let ctx = format!("seed {seed} {alg:?} query {qi} at {interval} s, pair {pi}");
                    let full = RefEdgeIndex::build(&s.net, &local.refs, eps);
                    for (ri, route) in local.routes.iter().enumerate() {
                        assert_eq!(
                            local.edge_index.refs_on_route(route),
                            full.refs_on_route(route),
                            "{ctx} route {ri}"
                        );
                        for model in [PopularityModel::ScaleFree, PopularityModel::PaperLiteral] {
                            let got = route_popularity_with(route, &local.edge_index, 0.05, model);
                            let want = route_popularity_with(route, &full, 0.05, model);
                            assert_eq!(got.to_bits(), want.to_bits(), "{ctx} route {ri} {model:?}");
                        }
                    }
                    checked.pairs += 1;
                    checked.routes += local.routes.len();
                    checked.restricted += usize::from(
                        local.edge_index.traverse_edges().len() < full.traverse_edges().len(),
                    );
                }
            }
        }
    }
    checked
}

#[test]
fn sampled_pairs_score_alike_under_both_indexes() {
    let seed = 77;
    let s = Scenario::build(ScenarioConfig::quick(seed));
    let checked = check(&s, seed, 3, &[180.0, 540.0]);
    assert!(
        checked.restricted >= 20 && checked.routes >= 50,
        "the sample must exercise restricted indexes: {checked:?}"
    );
}

#[test]
#[ignore = "every pair of the quick scenario at three seeds; run in release"]
fn every_pair_scores_alike_under_both_indexes() {
    for seed in [77, 2718, 42] {
        let s = Scenario::build(ScenarioConfig::quick(seed));
        let n = s.queries.len();
        let checked = check(&s, seed, n, &[60.0, 180.0, 300.0, 540.0, 900.0]);
        println!("seed {seed}: {checked:?}");
        assert!(checked.restricted > 0, "seed {seed}: {checked:?}");
    }
}
