//! Global route inference (Section III-C): scoring and the K-GRI dynamic
//! program (Algorithm 3).
//!
//! A global route `R = R₁ ⋄ R₂ ⋄ … ⋄ Rₙ` scores
//! `s(R) = Π f(Rᵢ) · Π g(Rᵢ, Rᵢ₊₁)` where
//!
//! - `f(R) = |⋃_{r∈R} C_i(r)| · Σ_{r∈R} −x(r)·log x(r)` (Equation 1):
//!   reference support scaled by the *entropy* of the per-segment reference
//!   distribution — a route with uniformly sustained traffic beats one with
//!   a single busy intersection (Figure 6);
//! - `g(R_a, R_b) = exp(J(C_i(R_a), C_{i+1}(R_b)) − 1)` (Equation 2): the
//!   Jaccard overlap of the *underlying historical trajectories* on the two
//!   local routes — shared through-traffic means they chain confidently.
//!
//! All arithmetic happens in log space to avoid underflow across long
//! queries. K-GRI exploits the downward-closure property — every prefix of
//! a top-K global route is itself top-K among routes ending at the same
//! local route — for an `O(K·n·m²)` DP; the exhaustive `O(mⁿ)` enumeration
//! ([`RouteScorer::top_k_brute_force`](crate::scoring::RouteScorer)) is the
//! oracle used for Figure 14b and as a test oracle. Both are reached through
//! [`PaperScorer`](crate::scoring::PaperScorer), and both read one
//! [`QueryScores`]: DP == brute force checks the DP, not the `f` and `g`
//! kernels, which the test modules here and in [`crate::local`] pin to the
//! bit against the literal equations and the previous DP.

use crate::local::{LocalInferenceResult, RouteCoverage};
use crate::params::PopularityModel;
use hris_roadnet::{CostModel, FxHashMap, RoadNetwork, Route};
use hris_traj::TrajId;

/// A scored global route.
#[derive(Debug, Clone)]
pub struct GlobalRoute {
    /// Which local route was chosen for each query pair.
    pub local_indices: Vec<usize>,
    /// The physical route (local routes concatenated and bridged).
    pub route: Route,
    /// `ln s(R)`.
    pub log_score: f64,
}

/// Sorted, deduplicated ids of the historical trajectories travelling on
/// `route` — the `C_i(R)` set of Equation 2, for the feature extractor in
/// [`crate::scoring`] (K-GRI itself intersects bitsets, see [`QueryScores`]).
pub(crate) fn route_traj_ids_sorted(route: &Route, local: &LocalInferenceResult) -> Vec<TrajId> {
    let mut out: Vec<TrajId> = Vec::new();
    for ref_idx in local.edge_index.refs_on_route(route) {
        out.extend(local.refs.refs[ref_idx].sources.iter().copied());
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// `ln g(R_a, R_b)` = Jaccard(a, b) − 1 (Equation 2 in log space) over
/// sorted deduplicated id slices.
///
/// Ranges over `[−1, 0]`: identical sets give 0 (`g = 1`), disjoint sets
/// give −1 (`g = 1/e`). Two empty sets count as disjoint.
pub(crate) fn log_transition_confidence_sorted(a: &[TrajId], b: &[TrajId]) -> f64 {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    log_g_of(inter, a.len() + b.len() - inter)
}

/// `J − 1` from `|A ∩ B|` and `|A ∪ B|` — whichever representation counted
/// them, the quotient is the same `f64`. `0/0` counts as disjoint.
fn log_g_of(inter: usize, union: usize) -> f64 {
    let jaccard = if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    };
    jaccard - 1.0
}

/// Precomputed scoring ingredients of one query, shared by the DP and the
/// brute-force oracle.
struct QueryScores {
    /// `u64` words per trajectory-id set.
    words: usize,
    /// One entry per query pair.
    pairs: Vec<PairScores>,
}

/// Per-pair part of [`QueryScores`].
struct PairScores {
    /// `ln f` per local route of the pair.
    log_f: Vec<f64>,
    /// `C_i(R)` per local route, `words` words each: a bitset over the
    /// query's dense trajectory-id index.
    ids: Vec<u64>,
    /// `|C_i(R)|` per local route.
    card: Vec<usize>,
}

impl QueryScores {
    /// One coverage sweep per local route yields both `ln f` and the
    /// route's trajectory-id set.
    ///
    /// The ids are re-indexed densely — numbered as the `sources` of the
    /// query's references first mention them — so a set is a few words and
    /// Equation 2 an AND-popcount. Any numbering shared by adjacent pairs
    /// preserves every intersection and cardinality, hence the scores.
    fn new(locals: &[LocalInferenceResult], entropy_floor: f64, model: PopularityModel) -> Self {
        let mut index: FxHashMap<TrajId, usize> = FxHashMap::default();
        // Dense ids of the sources of the query's g-th reference (pairs in
        // order, references in order): `dense[offsets[g]..offsets[g + 1]]`.
        let (mut dense, mut offsets) = (Vec::new(), vec![0]);
        for r in locals.iter().flat_map(|l| &l.refs.refs) {
            for &id in &r.sources {
                let next = index.len();
                dense.push(*index.entry(id).or_insert(next));
            }
            offsets.push(dense.len());
        }
        let words = index.len().div_ceil(64);

        let mut cov = RouteCoverage::default();
        let mut first_ref = 0;
        let pairs = locals
            .iter()
            .map(|l| {
                let offsets = &offsets[first_ref..=first_ref + l.refs.refs.len()];
                first_ref += l.refs.refs.len();
                let m = l.routes.len();
                let mut pair = PairScores {
                    log_f: Vec::with_capacity(m),
                    ids: vec![0; m * words],
                    card: Vec::with_capacity(m),
                };
                for (j, route) in l.routes.iter().enumerate() {
                    cov.sweep(&l.edge_index, route, true);
                    let f = cov.popularity(entropy_floor, model);
                    pair.log_f.push(f.max(1e-9).ln());
                    let set = &mut pair.ids[j * words..(j + 1) * words];
                    for r in cov.refs() {
                        for &d in &dense[offsets[r]..offsets[r + 1]] {
                            set[d / 64] |= 1 << (d % 64);
                        }
                    }
                    pair.card
                        .push(set.iter().map(|w| w.count_ones() as usize).sum());
                }
                pair
            })
            .collect();
        QueryScores { words, pairs }
    }

    /// `ln g` (Equation 2) from local route `jp` of pair `i − 1` to local
    /// route `j` of pair `i`: Jaccard of their trajectory-id sets, minus 1.
    fn log_g(&self, i: usize, jp: usize, j: usize) -> f64 {
        let (a, b, w) = (&self.pairs[i - 1], &self.pairs[i], self.words);
        let inter: usize = a.ids[jp * w..(jp + 1) * w]
            .iter()
            .zip(&b.ids[j * w..(j + 1) * w])
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum();
        log_g_of(inter, a.card[jp] + b.card[j] - inter)
    }
}

/// One entry of Algorithm 3's table `M`: a partial assignment ending at
/// local route `route` of some pair, extending the cell `prev` of the pair
/// before it.
struct Cell {
    score: f64,
    route: usize,
    /// Index into the cell table; unused at pair 0.
    prev: usize,
}

/// Top-K Global Route Inference (Algorithm 3), the dynamic program behind
/// [`crate::scoring::PaperScorer`].
///
/// `locals` must have at least one local route per pair; pairs with no
/// routes make the result empty (the pipeline inserts shortest-path
/// fallbacks before calling this).
///
/// A cell keeps a back-pointer instead of its index path, and only the K
/// winners are walked back: `O(K·n·m²)` candidates of constant size.
/// Candidates are generated `j′`-major then by rank, the final gather is
/// `j`-major then by rank, and both sorts are stable — the order a DP over
/// whole index paths produces, so equal scores break the same way.
pub(crate) fn k_gri_impl(
    net: &RoadNetwork,
    locals: &[LocalInferenceResult],
    k: usize,
    entropy_floor: f64,
    model: PopularityModel,
) -> Vec<GlobalRoute> {
    if k == 0 || locals.is_empty() || locals.iter().any(|l| l.routes.is_empty()) {
        return Vec::new();
    }
    let scores = QueryScores::new(locals, entropy_floor, model);

    // The cells of every pair so far, best first within a slot;
    // `slots[j]..slots[j + 1]` are those ending at route j of the latest pair.
    let first = &scores.pairs[0].log_f;
    let mut cells: Vec<Cell> = first
        .iter()
        .enumerate()
        .map(|(route, &score)| Cell {
            score,
            route,
            prev: usize::MAX,
        })
        .collect();
    let mut slots: Vec<usize> = (0..=first.len()).collect();
    let mut next_slots: Vec<usize> = Vec::new();
    let mut cands: Vec<(f64, usize)> = Vec::new(); // (log score, previous cell)

    for i in 1..locals.len() {
        next_slots.clear();
        for (j, &f) in scores.pairs[i].log_f.iter().enumerate() {
            next_slots.push(cells.len());
            cands.clear();
            for (jp, prevs) in slots.windows(2).enumerate() {
                let g = scores.log_g(i, jp, j);
                cands.extend((prevs[0]..prevs[1]).map(|c| (cells[c].score + g + f, c)));
            }
            cands.sort_by(|a, b| b.0.total_cmp(&a.0));
            cells.extend(cands.iter().take(k).map(|&(score, prev)| Cell {
                score,
                route: j,
                prev,
            }));
        }
        next_slots.push(cells.len());
        std::mem::swap(&mut slots, &mut next_slots);
    }

    // Gather the global top-K across the last pair's slots.
    let mut all: Vec<usize> = (slots[0]..cells.len()).collect();
    all.sort_by(|&a, &b| cells[b].score.total_cmp(&cells[a].score));
    all.truncate(k);
    all.into_iter()
        .map(|last| {
            let mut local_indices = vec![0; locals.len()];
            let mut c = last;
            for slot in local_indices.iter_mut().rev() {
                *slot = cells[c].route;
                c = cells[c].prev;
            }
            GlobalRoute {
                route: stitch(net, locals, &local_indices),
                local_indices,
                log_score: cells[last].score,
            }
        })
        .collect()
}

/// Brute-force oracle behind [`crate::scoring::PaperScorer`]: enumerates
/// all `Π |ℛ_i|` combinations. Exponential — used for Figure 14b and to
/// validate K-GRI in tests.
pub(crate) fn brute_force_top_k_impl(
    net: &RoadNetwork,
    locals: &[LocalInferenceResult],
    k: usize,
    entropy_floor: f64,
    model: PopularityModel,
) -> Vec<GlobalRoute> {
    if k == 0 || locals.is_empty() || locals.iter().any(|l| l.routes.is_empty()) {
        return Vec::new();
    }
    let scores = QueryScores::new(locals, entropy_floor, model);
    let mut best: Vec<(f64, Vec<usize>)> = Vec::new();
    let mut current = vec![0usize; locals.len()];
    enumerate(&scores, 0, 0.0, &mut current, &mut best, k);
    best.sort_by(|a, b| b.0.total_cmp(&a.0));
    best.truncate(k);
    best.into_iter()
        .map(|(log_score, local_indices)| GlobalRoute {
            route: stitch(net, locals, &local_indices),
            local_indices,
            log_score,
        })
        .collect()
}

fn enumerate(
    scores: &QueryScores,
    i: usize,
    acc: f64,
    current: &mut Vec<usize>,
    best: &mut Vec<(f64, Vec<usize>)>,
    k: usize,
) {
    if i == scores.pairs.len() {
        best.push((acc, current.clone()));
        if best.len() > 4 * k {
            best.sort_by(|a, b| b.0.total_cmp(&a.0));
            best.truncate(k);
        }
        return;
    }
    for j in 0..scores.pairs[i].log_f.len() {
        let mut s = acc + scores.pairs[i].log_f[j];
        if i > 0 {
            s += scores.log_g(i, current[i - 1], j);
        }
        current[i] = j;
        enumerate(scores, i + 1, s, current, best, k);
    }
}

/// Concatenates the chosen local routes into one physical route, bridging
/// inter-pair gaps with network shortest paths (the paper: "we can always
/// use shortest path to bridge this gap").
fn stitch(net: &RoadNetwork, locals: &[LocalInferenceResult], indices: &[usize]) -> Route {
    let mut out = Route::empty();
    for (i, &j) in indices.iter().enumerate() {
        let part = &locals[i].routes[j];
        if out.is_empty() {
            out = part.clone();
            continue;
        }
        let prev_last = *out.segments().last().expect("non-empty");
        let next_first = *part.segments().first().expect("local routes non-empty");
        if prev_last == next_first {
            out = out.concat(part);
        } else {
            match net
                .sp_oracle()
                .route_between(prev_last, next_first, CostModel::Distance)
            {
                Some(bridge) => {
                    out = out.concat(&bridge);
                    out = out.concat(part);
                }
                None => out = out.concat(part),
            }
        }
    }
    // Bridging mismatched junction candidates can introduce backtracking;
    // excise the loops so the global route's length stays honest.
    out.without_loops(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::{reference, route_popularity, LocalStats, RefEdgeIndex};
    use crate::reference::{RefKind, RefTrajectory, ReferenceSet};
    use crate::scoring::{PaperScorer, RouteScorer, ScoringCtx};
    use hris_geo::Point;
    use hris_roadnet::{generator, NetworkConfig, SegmentId};
    use hris_traj::GpsPoint;
    use std::collections::HashSet;

    const SCORER: PaperScorer = PaperScorer {
        entropy_floor: 0.05,
        model: PopularityModel::ScaleFree,
    };

    fn k_gri(net: &RoadNetwork, locals: &[LocalInferenceResult], k: usize) -> Vec<GlobalRoute> {
        SCORER.top_k(&ScoringCtx::new(net, locals, k))
    }

    fn net() -> RoadNetwork {
        generator::generate(&NetworkConfig {
            jitter_frac: 0.0,
            curve_frac: 0.0,
            removal_frac: 0.0,
            oneway_frac: 0.0,
            ..NetworkConfig::small(5)
        })
    }

    /// Builds a synthetic LocalInferenceResult with hand-wired coverage.
    fn synth_local(
        net: &RoadNetwork,
        routes: Vec<Route>,
        coverage: &[(SegmentId, &[usize])],
        sources: &[&[u32]],
    ) -> LocalInferenceResult {
        let _ = net;
        let pairs = coverage
            .iter()
            .flat_map(|(seg, refs)| refs.iter().map(move |&r| (*seg, r)));
        synth_local_from(routes, pairs, sources)
    }

    /// [`synth_local`] from raw `(segment, reference)` coverage pairs and
    /// any shape of per-reference source ids.
    fn synth_local_from<S: AsRef<[u32]>>(
        routes: Vec<Route>,
        coverage: impl IntoIterator<Item = (SegmentId, usize)>,
        sources: &[S],
    ) -> LocalInferenceResult {
        let refs = ReferenceSet {
            refs: sources
                .iter()
                .map(|srcs| RefTrajectory {
                    kind: RefKind::Simple,
                    sources: srcs.as_ref().iter().map(|&s| TrajId(s)).collect(),
                    points: vec![GpsPoint::new(Point::ORIGIN, 0.0)],
                })
                .collect(),
        };
        LocalInferenceResult {
            routes,
            edge_index: RefEdgeIndex::from_pairs(coverage),
            refs,
            stats: LocalStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // References: Equation 2 read literally, and Algorithm 3 as it stood
    // before back-pointers and bitsets. Nothing below calls the kernel
    // under test — popularity and `C_i(R)` come from
    // `crate::local::reference`.

    /// Underlying historical trajectory ids travelling on `route` — the
    /// `C_i(R)` sets that the transition confidence intersects across pairs.
    fn route_traj_ids(route: &Route, local: &LocalInferenceResult) -> HashSet<TrajId> {
        let mut out = HashSet::new();
        for ref_idx in reference::refs_on_route(&local.edge_index, route) {
            out.extend(local.refs.refs[ref_idx].sources.iter().copied());
        }
        out
    }

    /// `ln g(R_a, R_b)` = Jaccard(ids_a, ids_b) − 1 (Equation 2 in log space).
    fn log_transition_confidence(ids_a: &HashSet<TrajId>, ids_b: &HashSet<TrajId>) -> f64 {
        let inter = ids_a.intersection(ids_b).count();
        let union = ids_a.union(ids_b).count();
        let jaccard = if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        };
        jaccard - 1.0
    }

    /// Per-pair ingredients of the reference DP.
    struct PairScoresReference {
        /// `ln f` per local route of the pair.
        log_f: Vec<f64>,
        /// Sorted trajectory-id lists per local route of the pair.
        ids: Vec<Vec<TrajId>>,
    }

    fn precompute_reference(
        locals: &[LocalInferenceResult],
        entropy_floor: f64,
        model: PopularityModel,
    ) -> Vec<PairScoresReference> {
        locals
            .iter()
            .map(|l| PairScoresReference {
                log_f: l
                    .routes
                    .iter()
                    .map(|r| {
                        reference::route_popularity_with(r, &l.edge_index, entropy_floor, model)
                            .max(1e-9)
                            .ln()
                    })
                    .collect(),
                ids: l
                    .routes
                    .iter()
                    .map(|r| {
                        let mut out: Vec<TrajId> = route_traj_ids(r, l).into_iter().collect();
                        out.sort_unstable();
                        out
                    })
                    .collect(),
            })
            .collect()
    }

    /// The DP the back-pointer kernel replaced: every candidate clones its
    /// whole index path, every transition merge-walks two sorted id lists.
    fn k_gri_reference(
        net: &RoadNetwork,
        locals: &[LocalInferenceResult],
        k: usize,
        entropy_floor: f64,
        model: PopularityModel,
    ) -> Vec<GlobalRoute> {
        if k == 0 || locals.is_empty() || locals.iter().any(|l| l.routes.is_empty()) {
            return Vec::new();
        }
        let scores = precompute_reference(locals, entropy_floor, model);

        // M[j] — top-K partial assignments ending at local route j of pair i.
        type Partial = (f64, Vec<usize>); // (log score, chosen indices)
        let mut m: Vec<Vec<Partial>> = scores[0]
            .log_f
            .iter()
            .enumerate()
            .map(|(j, &f)| vec![(f, vec![j])])
            .collect();

        for i in 1..locals.len() {
            let mut next: Vec<Vec<Partial>> = vec![Vec::new(); scores[i].log_f.len()];
            for (j, slot) in next.iter_mut().enumerate() {
                let mut cands: Vec<Partial> = Vec::new();
                for (jp, prevs) in m.iter().enumerate() {
                    let g =
                        log_transition_confidence_sorted(&scores[i - 1].ids[jp], &scores[i].ids[j]);
                    for (s, path) in prevs {
                        let mut np = path.clone();
                        np.push(j);
                        cands.push((s + g + scores[i].log_f[j], np));
                    }
                }
                cands.sort_by(|a, b| b.0.total_cmp(&a.0));
                cands.truncate(k);
                *slot = cands;
            }
            m = next;
        }

        // Gather the global top-K across all final slots.
        let mut all: Vec<Partial> = m.into_iter().flatten().collect();
        all.sort_by(|a, b| b.0.total_cmp(&a.0));
        all.truncate(k);
        all.into_iter()
            .map(|(log_score, local_indices)| GlobalRoute {
                route: stitch(net, locals, &local_indices),
                local_indices,
                log_score,
            })
            .collect()
    }

    /// A random query of `n ∈ 1..=16` pairs with `m ∈ 1..=12` local routes
    /// each (short walks on `net`) under random coverage, and a `K`.
    /// Reference sources are 1–3 ids, repeats allowed, from a pool small
    /// enough that references and pairs share them; a route may repeat an
    /// earlier route of its pair (equal `ln f`, equal `g`: exact ties);
    /// `seed % 8` steers towards a single pair, a single-route pair, and a
    /// query no reference covers.
    fn random_query(net: &RoadNetwork, seed: u64) -> (Vec<LocalInferenceResult>, usize) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let steer = seed % 8;
        let n = if steer == 0 { 1 } else { rng.gen_range(1..=16) };
        let k = [1, 2, 5, 64][rng.gen_range(0..4usize)];
        let id_pool = rng.gen_range(1..=10u32);
        let locals = (0..n)
            .map(|_| {
                let m = if steer == 1 || rng.gen_bool(0.1) {
                    1
                } else {
                    rng.gen_range(1..=12)
                };
                let mut routes: Vec<Route> = Vec::new();
                for _ in 0..m {
                    if !routes.is_empty() && rng.gen_bool(0.2) {
                        routes.push(routes[rng.gen_range(0..routes.len())].clone());
                        continue;
                    }
                    let mut seg = net.segments()[rng.gen_range(0..net.num_segments())].id;
                    let mut segs = vec![seg];
                    for _ in 0..rng.gen_range(0..3) {
                        let next = net.next_segments(seg);
                        if next.is_empty() {
                            break;
                        }
                        seg = next[rng.gen_range(0..next.len())];
                        segs.push(seg);
                    }
                    routes.push(Route::new(segs));
                }
                let sources: Vec<Vec<u32>> = (0..rng.gen_range(0..=6))
                    .map(|_| {
                        (0..rng.gen_range(1..=3))
                            .map(|_| rng.gen_range(0..id_pool))
                            .collect()
                    })
                    .collect();
                let p = if steer == 2 {
                    0.0
                } else {
                    rng.gen_range(0.0..0.8)
                };
                let mut coverage = Vec::new();
                for seg in routes.iter().flat_map(|r| r.segments()) {
                    for r in 0..sources.len() {
                        if rng.gen_bool(p) {
                            coverage.push((*seg, r));
                        }
                    }
                }
                synth_local_from(routes, coverage, &sources)
            })
            .collect();
        (locals, k)
    }

    /// Differential test of the back-pointer / bitset kernel: the same
    /// routes as the reference DP, in the same order, to the bit — in every
    /// regime that can break such a rewrite, each of which must occur.
    #[test]
    fn kgri_matches_reference_dp_in_all_regimes() {
        use proptest::prelude::*;
        const REGIMES: [&str; 8] = [
            "exact score ties",
            "every route uncovered",
            "both id sets empty",
            "K above the number of assignments",
            "single pair",
            "pair with a single route",
            "reference with several sources",
            "source shared by several references",
        ];
        let net = net();
        let mut hits = [0usize; REGIMES.len()];
        proptest::test_runner::run(
            ProptestConfig::with_cases(160),
            file!(),
            "kgri_matches_reference_dp_in_all_regimes",
            |rng| {
                let seed = (0u64..u64::MAX).generate(rng);
                let (locals, k) = random_query(&net, seed);
                let (floor, model) = match seed % 3 {
                    0 => (0.05, PopularityModel::ScaleFree),
                    1 => (0.0, PopularityModel::ScaleFree),
                    _ => (0.05, PopularityModel::PaperLiteral),
                };
                let got = k_gri_impl(&net, &locals, k, floor, model);
                let want = k_gri_reference(&net, &locals, k, floor, model);
                prop_assert_eq!(got.len(), want.len(), "seed {seed}");
                for (rank, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(&g.local_indices, &w.local_indices, "seed {seed} #{rank}");
                    prop_assert_eq!(&g.route, &w.route, "seed {seed} #{rank}");
                    prop_assert_eq!(
                        g.log_score.to_bits(),
                        w.log_score.to_bits(),
                        "seed {seed} #{rank}"
                    );
                }

                // References travelling on some local route, per pair, and
                // each local route's id set.
                let on_routes: Vec<Vec<&RefTrajectory>> = locals
                    .iter()
                    .map(|l| {
                        let mut on: Vec<usize> = l
                            .routes
                            .iter()
                            .flat_map(|r| reference::refs_on_route(&l.edge_index, r))
                            .collect();
                        on.sort_unstable();
                        on.dedup();
                        on.into_iter().map(|r| &l.refs.refs[r]).collect()
                    })
                    .collect();
                let no_ids: Vec<bool> = locals
                    .iter()
                    .map(|l| l.routes.iter().any(|r| route_traj_ids(r, l).is_empty()))
                    .collect();
                let regime = [
                    want.windows(2)
                        .any(|w| w[0].log_score.to_bits() == w[1].log_score.to_bits()),
                    on_routes.iter().all(Vec::is_empty),
                    no_ids.windows(2).any(|w| w[0] && w[1]),
                    want.len() < k,
                    locals.len() == 1,
                    locals.iter().any(|l| l.routes.len() == 1),
                    on_routes.iter().flatten().any(|r| r.sources.len() > 1),
                    on_routes.iter().any(|refs| {
                        refs.iter().enumerate().any(|(a, ra)| {
                            refs[..a]
                                .iter()
                                .any(|rb| ra.sources.iter().any(|s| rb.sources.contains(s)))
                        })
                    }),
                ];
                for (hit, &seen) in hits.iter_mut().zip(&regime) {
                    *hit += usize::from(seen);
                }
                Ok(())
            },
        );
        for (name, &n) in REGIMES.iter().zip(&hits) {
            assert!(n >= 5, "regime `{name}` hit {n} times: {hits:?}");
        }
    }

    /// The bitset Jaccard is Equation 2 on `HashSet<TrajId>` to the bit, and
    /// `ln f` the reference popularity's — what DP == brute force cannot see
    /// now that both read one [`QueryScores`].
    #[test]
    fn query_scores_match_literal_equations() {
        use proptest::prelude::*;
        let net = net();
        // Jaccard regimes: [both empty, one empty, equal non-empty,
        // partial overlap, disjoint non-empty]
        let mut hits = [0usize; 5];
        proptest::test_runner::run(
            ProptestConfig::with_cases(96),
            file!(),
            "query_scores_match_literal_equations",
            |rng| {
                let seed = (0u64..u64::MAX).generate(rng);
                let (locals, _) = random_query(&net, seed);
                let model = if seed % 2 == 0 {
                    PopularityModel::ScaleFree
                } else {
                    PopularityModel::PaperLiteral
                };
                let scores = QueryScores::new(&locals, 0.05, model);
                let ids: Vec<Vec<HashSet<TrajId>>> = locals
                    .iter()
                    .map(|l| l.routes.iter().map(|r| route_traj_ids(r, l)).collect())
                    .collect();
                for (i, l) in locals.iter().enumerate() {
                    for (j, r) in l.routes.iter().enumerate() {
                        let f = reference::route_popularity_with(r, &l.edge_index, 0.05, model);
                        prop_assert_eq!(
                            scores.pairs[i].log_f[j].to_bits(),
                            f.max(1e-9).ln().to_bits(),
                            "seed {seed} pair {i} route {j}"
                        );
                        prop_assert_eq!(scores.pairs[i].card[j], ids[i][j].len(), "seed {seed}");
                        if i == 0 {
                            continue;
                        }
                        for (jp, a) in ids[i - 1].iter().enumerate() {
                            let b = &ids[i][j];
                            let literal = log_transition_confidence(a, b);
                            prop_assert_eq!(
                                scores.log_g(i, jp, j).to_bits(),
                                literal.to_bits(),
                                "seed {seed} pair {i}: {jp} -> {j}"
                            );
                            let regime = match (a.is_empty(), b.is_empty()) {
                                (true, true) => 0,
                                (true, false) | (false, true) => 1,
                                _ if a == b => 2,
                                _ if a.is_disjoint(b) => 4,
                                _ => 3,
                            };
                            hits[regime] += 1;
                        }
                    }
                }
                Ok(())
            },
        );
        assert!(
            hits.iter().all(|&n| n >= 5),
            "every regime must occur: {hits:?}"
        );
    }

    /// Two consecutive pairs on a straight corridor with controllable
    /// popularity.
    fn corridor_locals(net: &RoadNetwork) -> Vec<LocalInferenceResult> {
        // Find a chain of 4 connected segments that never backtracks
        // (loop excision would collapse an out-and-back chain).
        let forward = |prev: SegmentId, net: &RoadNetwork| {
            net.next_segments(prev)
                .iter()
                .copied()
                .find(|&s| net.segment(s).to != net.segment(prev).from)
                .unwrap()
        };
        let s0 = net
            .segments()
            .iter()
            .find(|s| !net.next_segments(s.id).is_empty())
            .unwrap()
            .id;
        let s1 = forward(s0, net);
        let s2 = forward(s1, net);
        let s3 = forward(s2, net);
        // Pair 1 routes: [s0, s1] (popular, refs 0&1) and [s0] (ref 0 only).
        let l1 = synth_local(
            net,
            vec![Route::new(vec![s0, s1]), Route::new(vec![s0])],
            &[(s0, &[0, 1]), (s1, &[0, 1])],
            &[&[10], &[11]],
        );
        // Pair 2 routes: [s2, s3] covered by the same trajectories.
        let l2 = synth_local(
            net,
            vec![Route::new(vec![s2, s3]), Route::new(vec![s3])],
            &[(s2, &[0, 1]), (s3, &[0])],
            &[&[10], &[11]],
        );
        vec![l1, l2]
    }

    #[test]
    fn popularity_prefers_staying_on_covered_corridor() {
        let net = net();
        let forward = |prev: SegmentId| {
            net.next_segments(prev)
                .iter()
                .copied()
                .find(|&s| net.segment(s).to != net.segment(prev).from)
                .unwrap()
        };
        let s0 = net.segments()[0].id;
        let s1 = forward(s0);
        let s2 = forward(s1);
        // s0 and s1 carry two references each; s2 carries none.
        let local = synth_local(
            &net,
            vec![Route::new(vec![s0, s1]), Route::new(vec![s1, s2])],
            &[(s0, &[0, 1]), (s1, &[0, 1])],
            &[&[10], &[11]],
        );
        let on_corridor = route_popularity(&local.routes[0], &local.edge_index, 0.05);
        let strays = route_popularity(&local.routes[1], &local.edge_index, 0.05);
        assert!(
            on_corridor > strays,
            "{on_corridor} vs {strays}: uncovered segments must drag the score"
        );
    }

    #[test]
    fn popularity_zero_without_references() {
        let net = net();
        let locals = corridor_locals(&net);
        let uncovered = Route::new(vec![net.segments().last().unwrap().id]);
        assert_eq!(
            route_popularity(&uncovered, &locals[0].edge_index, 0.05),
            0.0
        );
    }

    #[test]
    fn entropy_prefers_uniform_distribution() {
        let net = net();
        let s0 = net.segments()[0].id;
        let s1 = net.next_segments(s0)[0];
        // Uniform: both segments covered by both refs.
        let uniform = synth_local(
            &net,
            vec![Route::new(vec![s0, s1])],
            &[(s0, &[0, 1]), (s1, &[0, 1])],
            &[&[1], &[2]],
        );
        // Bursty: all coverage heaped on one segment.
        let bursty = synth_local(
            &net,
            vec![Route::new(vec![s0, s1])],
            &[(s0, &[0, 1])],
            &[&[1], &[2]],
        );
        let fu = route_popularity(&uniform.routes[0], &uniform.edge_index, 0.0);
        let fb = route_popularity(&bursty.routes[0], &bursty.edge_index, 0.0);
        assert!(fu > fb, "uniform {fu} must beat bursty {fb}");
    }

    #[test]
    fn transition_confidence_bounds() {
        let a: HashSet<TrajId> = [TrajId(1), TrajId(2)].into_iter().collect();
        let b: HashSet<TrajId> = [TrajId(1), TrajId(2)].into_iter().collect();
        let c: HashSet<TrajId> = [TrajId(9)].into_iter().collect();
        assert_eq!(log_transition_confidence(&a, &b), 0.0); // g = 1
        assert_eq!(log_transition_confidence(&a, &c), -1.0); // g = 1/e
        let empty = HashSet::new();
        assert_eq!(log_transition_confidence(&empty, &empty), -1.0);
        let half = log_transition_confidence(&a, &[TrajId(1)].into_iter().collect());
        assert!(half > -1.0 && half < 0.0);
    }

    #[test]
    fn sorted_transition_matches_hashset_version() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[1, 2, 3], &[2, 3, 4]),
            (&[1, 2], &[1, 2]),
            (&[1], &[9]),
            (&[], &[]),
            (&[5], &[]),
            (&[1, 3, 5, 7], &[2, 3, 5, 9]),
        ];
        for (a, b) in cases {
            let sa: HashSet<TrajId> = a.iter().map(|&x| TrajId(x)).collect();
            let sb: HashSet<TrajId> = b.iter().map(|&x| TrajId(x)).collect();
            let va: Vec<TrajId> = a.iter().map(|&x| TrajId(x)).collect();
            let vb: Vec<TrajId> = b.iter().map(|&x| TrajId(x)).collect();
            let h = log_transition_confidence(&sa, &sb);
            let s = log_transition_confidence_sorted(&va, &vb);
            assert_eq!(h.to_bits(), s.to_bits(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn kgri_matches_brute_force() {
        let net = net();
        let locals = corridor_locals(&net);
        for k in 1..=4 {
            let dp = k_gri(&net, &locals, k);
            let bf = SCORER.top_k_brute_force(&ScoringCtx::new(&net, &locals, k));
            assert_eq!(dp.len(), bf.len(), "k={k}");
            for (d, b) in dp.iter().zip(bf.iter()) {
                assert!(
                    (d.log_score - b.log_score).abs() < 1e-9,
                    "k={k}: {} vs {}",
                    d.log_score,
                    b.log_score
                );
            }
            // Scores non-increasing.
            for w in dp.windows(2) {
                assert!(w[0].log_score >= w[1].log_score);
            }
        }
    }

    #[test]
    fn kgri_k_bounds_output() {
        let net = net();
        let locals = corridor_locals(&net);
        assert!(k_gri(&net, &locals, 0).is_empty());
        let one = k_gri(&net, &locals, 1);
        assert_eq!(one.len(), 1);
        // 2 pairs × 2 routes = 4 combinations max.
        let many = k_gri(&net, &locals, 100);
        assert_eq!(many.len(), 4);
    }

    #[test]
    fn kgri_empty_pair_yields_empty() {
        let net = net();
        let mut locals = corridor_locals(&net);
        locals[1].routes.clear();
        assert!(k_gri(&net, &locals, 3).is_empty());
    }

    #[test]
    fn stitched_route_is_connected() {
        let net = net();
        let locals = corridor_locals(&net);
        let top = k_gri(&net, &locals, 1);
        assert_eq!(top.len(), 1);
        assert!(top[0].route.is_connected(&net));
        assert!(top[0].route.len() >= 2);
    }

    #[test]
    fn top1_picks_most_popular_chain() {
        let net = net();
        let locals = corridor_locals(&net);
        let top = k_gri(&net, &locals, 1);
        // Pair 1's popular route is index 0 (two refs, sustained).
        assert_eq!(top[0].local_indices[0], 0);
    }
}
