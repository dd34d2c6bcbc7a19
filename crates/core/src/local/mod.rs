//! Local route inference (Section III-B): given the references `C_i` of a
//! query pair, infer the candidate local routes `ℛ_i`.
//!
//! Two algorithms — [`tgi`](crate::local::tgi::tgi) (traverse graph,
//! Algorithm 1) and [`nni`](crate::local::nni::nni) (constrained nearest
//! neighbours, Algorithm 2) — plus the density-switched hybrid
//! ([`infer_local_routes`]).

pub mod nni;
pub mod tgi;

use crate::params::{HrisParams, HybridPolarity, LocalAlgorithm, PopularityModel};
use crate::reference::ReferenceSet;
use hris_geo::BBox;
use hris_roadnet::network::CandidateEdge;
use hris_roadnet::{FxHashSet, RoadNetwork, Route, SegmentId, SparseSlots};

/// Per-pair instrumentation (drives the ablation figures 11b–13b).
#[derive(Debug, Clone, Default)]
pub struct LocalStats {
    /// Which algorithm actually ran ("TGI" / "NNI").
    pub algorithm: &'static str,
    /// Constrained-kNN searches performed (NNI; Figure 5's cost measure).
    pub knn_searches: usize,
    /// `true` iff NNI ran and proved `q_{i+1}` unreachable in the transit
    /// graph: the pair's candidates are the shortest paths alone.
    pub nni_unreachable: bool,
    /// Traverse-graph node count (TGI).
    pub traverse_nodes: usize,
    /// Traverse-graph links before reduction (TGI).
    pub traverse_edges_initial: usize,
    /// Traverse-graph links after reduction (TGI; equal to initial when
    /// reduction is disabled).
    pub traverse_edges_final: usize,
    /// Links added by the strong-connectivity augmentation (TGI).
    pub augmentation_links: usize,
    /// Reference-point density ρ (points/km²) the hybrid switch saw.
    pub density: f64,
}

/// A local route with no scoring attached (scoring happens globally).
pub type LocalRoute = Route;

/// The outcome of local inference for one query pair.
#[derive(Debug, Clone)]
pub struct LocalInferenceResult {
    /// Candidate local routes `ℛ_i` (deduplicated).
    pub routes: Vec<LocalRoute>,
    /// Which references travel on which road segment (for scoring). After
    /// TGI it covers every traverse edge; after NNI only the segments of
    /// `routes` (every reader sweeps route segments only), so `refs_on`
    /// reads empty elsewhere.
    pub edge_index: RefEdgeIndex,
    /// The reference set this inference consumed.
    pub refs: ReferenceSet,
    /// Instrumentation.
    pub stats: LocalStats,
}

/// Maps road segments to the references traversing them.
///
/// A reference *travels by* segment `r` when `r` is a candidate edge of one
/// of its points (Definition 9). This index is built once per pair and
/// drives both the traverse graph and the popularity function — in full
/// for TGI, whose traverse graph reads every covered segment, and over the
/// pair's final routes only for NNI, whose readers sweep nothing else.
///
/// Stored in compressed-sparse-row form — sorted segment keys with one flat,
/// sorted run of covering-reference indices per segment — instead of a
/// `HashMap<SegmentId, HashSet<usize>>`: the popularity kernel probes it per
/// route segment inside a sort comparator, so lookups must be cache-friendly
/// and hash-free, and iteration order is deterministic by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefEdgeIndex {
    /// Sorted distinct covered segments (the traverse-edge set `TE`).
    segs: Vec<SegmentId>,
    /// `offsets[i]..offsets[i + 1]` indexes `refs` for `segs[i]`.
    offsets: Vec<u32>,
    /// Sorted covering-reference indices, grouped per segment.
    refs: Vec<u32>,
    /// Exclusive upper bound on reference indices (sizes union bitsets).
    num_refs: usize,
}

impl RefEdgeIndex {
    /// Builds the index by looking up the candidate segments of every
    /// reference point within `eps` metres (through the network's
    /// projection memo — reference points recur across pairs).
    #[must_use]
    pub fn build(net: &RoadNetwork, refs: &ReferenceSet, eps: f64) -> Self {
        net.with_segment_slots(|slots| Self::from_memo(slots, net, refs, eps, None))
    }

    /// The index restricted to the segments of `routes`: `refs_on(r)` is
    /// [`RefEdgeIndex::build`]'s for every segment `r` of those routes and
    /// empty elsewhere, so every sweep over one of them reads the same
    /// slices, bit for bit.
    ///
    /// A reference point is looked up only when the union of the routes'
    /// segment bounding boxes lies within `eps` of it. That is exact: the
    /// network's R-tree admits a segment only when its bounding box passes
    /// the same `min_dist_sq ≤ eps²` test, and a point's squared distance to
    /// a covering box is never larger than to a box inside it, in floating
    /// point too (the differences, maxima and squares involved are all
    /// monotone).
    pub(crate) fn build_for_routes<'r>(
        net: &RoadNetwork,
        refs: &ReferenceSet,
        eps: f64,
        routes: impl IntoIterator<Item = &'r Route>,
    ) -> Self {
        net.with_segment_slots(|slots| {
            let mut within = BBox::empty();
            for &seg in routes.into_iter().flat_map(Route::segments) {
                if !slots.contains(seg.index()) {
                    slots.slot(seg.index());
                    within.expand(&net.segment(seg).geometry.bbox());
                }
            }
            Self::from_memo(slots, net, refs, eps, Some(&within))
        })
    }

    /// Collects the `(segment, reference)` coverage pairs of every reference
    /// point from the projection memo — all of them, or, when `within` is
    /// given, those of the segments touched in `slots` (skipping points
    /// farther than `eps` from `within`) — and lays them out in CSR form.
    fn from_memo(
        slots: &mut SparseSlots<u32>,
        net: &RoadNetwork,
        refs: &ReferenceSet,
        eps: f64,
        within: Option<&BBox>,
    ) -> Self {
        let eps_sq = eps * eps;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (ri, r) in refs.refs.iter().enumerate() {
            let ri = u32::try_from(ri).expect("reference index fits u32");
            for p in &r.points {
                match within {
                    None => net.candidate_segments_cached(p.pos, eps, |segs| {
                        pairs.extend(segs.iter().map(|seg| (seg.0, ri)));
                    }),
                    Some(bbox) if bbox.min_dist_sq(p.pos) <= eps_sq => {
                        net.candidate_segments_cached(p.pos, eps, |segs| {
                            let listed = segs.iter().filter(|seg| slots.contains(seg.index()));
                            pairs.extend(listed.map(|seg| (seg.0, ri)));
                        });
                    }
                    Some(_) => {}
                }
            }
        }
        Self::from_coverage(slots, &pairs)
    }

    /// CSR over coverage `pairs` emitted in ascending reference order, by a
    /// counting sort over the touched segments of `slots` only (all vacant
    /// on entry; a touched segment no pair names gets no row). The scatter
    /// is stable, so every per-segment run comes out sorted — the `(seg,
    /// ref)` order [`RefEdgeIndex::from_pairs`] produces, without a
    /// comparison sort.
    fn from_coverage(slots: &mut SparseSlots<u32>, pairs: &[(u32, u32)]) -> Self {
        for &(seg, _) in pairs {
            *slots.slot(seg as usize) += 1;
        }
        slots.sort_touched();
        // Counts become run starts, then (after the scatter) run ends.
        let mut end = 0u32;
        slots.for_each_touched(|slot| {
            let count = *slot;
            *slot = end;
            end += count;
        });
        let mut scattered: Vec<u32> = vec![0; pairs.len()];
        for &(seg, ri) in pairs {
            let cursor = slots.slot(seg as usize);
            scattered[*cursor as usize] = ri;
            *cursor += 1;
        }
        let mut segs: Vec<SegmentId> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut out_refs: Vec<u32> = Vec::new();
        let mut num_refs = 0usize;
        let mut lo = 0usize;
        for &seg in slots.touched() {
            let hi = slots.get(seg as usize) as usize;
            if hi > lo {
                segs.push(SegmentId(seg));
                offsets.push(out_refs.len() as u32);
                let start = out_refs.len();
                for &r in &scattered[lo..hi] {
                    if out_refs.len() > start && out_refs[out_refs.len() - 1] == r {
                        continue;
                    }
                    out_refs.push(r);
                    num_refs = num_refs.max(r as usize + 1);
                }
            }
            lo = hi;
        }
        if !segs.is_empty() {
            offsets.push(out_refs.len() as u32);
        }
        RefEdgeIndex {
            segs,
            offsets,
            refs: out_refs,
            num_refs,
        }
    }

    /// Builds the index from raw `(segment, reference index)` coverage
    /// pairs (duplicates welcome) — the synthetic-coverage entry point for
    /// tests and ablations.
    #[must_use]
    pub fn from_pairs(pairs: impl IntoIterator<Item = (SegmentId, usize)>) -> Self {
        // Each pair packs into one u64 key — `(segment, ref)` tuple order
        // and `(segment << 32) | ref` numeric order coincide, and sorting
        // plain u64s is markedly cheaper than sorting tuples.
        let mut keys: Vec<u64> = pairs
            .into_iter()
            .map(|(s, r)| {
                (u64::from(s.0) << 32)
                    | u64::from(u32::try_from(r).expect("reference index fits u32"))
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut segs: Vec<SegmentId> = Vec::new();
        let mut offsets = Vec::new();
        let mut refs = Vec::with_capacity(keys.len());
        let mut num_refs = 0usize;
        for key in keys {
            let (seg, r) = (SegmentId((key >> 32) as u32), key as u32);
            if segs.last() != Some(&seg) {
                segs.push(seg);
                offsets.push(refs.len() as u32);
            }
            refs.push(r);
            num_refs = num_refs.max(r as usize + 1);
        }
        offsets.push(refs.len() as u32);
        if segs.is_empty() {
            offsets.clear();
        }
        RefEdgeIndex {
            segs,
            offsets,
            refs,
            num_refs,
        }
    }

    /// References covering segment `r` (`C_i(r)` as a sorted slice of
    /// indices into `ReferenceSet::refs`), empty when none.
    #[must_use]
    pub fn refs_on(&self, seg: SegmentId) -> &[u32] {
        match self.segs.binary_search(&seg) {
            Ok(i) => &self.refs[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Number of references covering segment `r` (`|C_i(r)|`).
    #[must_use]
    pub fn covering_count(&self, seg: SegmentId) -> usize {
        self.refs_on(seg).len()
    }

    /// Union of references covering any segment of `route` (`C_i(R)`),
    /// as sorted distinct indices.
    #[must_use]
    pub fn refs_on_route(&self, route: &Route) -> Vec<usize> {
        let mut cov = RouteCoverage::default();
        cov.sweep(self, route, true);
        cov.refs().collect()
    }

    /// All traversed segments (the traverse-edge set `TE`), sorted.
    #[must_use]
    pub fn traverse_edges(&self) -> &[SegmentId] {
        &self.segs
    }

    /// `true` when no segment is covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }
}

/// What one pass over a route's segments learns about its coverage: the
/// input of the popularity kernel and of K-GRI's trajectory-id sets
/// ([`crate::global`]). A sweep overwrites the previous route's state, so
/// one value serves every route of a pair without reallocating.
#[derive(Debug, Default)]
pub(crate) struct RouteCoverage {
    /// `|C_i(r)|` of every covered segment, in route order (a segment the
    /// route repeats counts each time).
    counts: Vec<usize>,
    /// `C_i(R)` as a bitset over reference indices; empty unless the sweep
    /// was asked for it.
    union: Vec<u64>,
    /// `|R|`, segments of the swept route.
    route_len: usize,
}

impl RouteCoverage {
    /// Sweeps `route` once. `with_union` also collects `C_i(R)` — needed
    /// by [`Self::refs`] and by `PaperLiteral` popularity; `ScaleFree`
    /// only asks whether any reference covers the route at all, which the
    /// counts already answer.
    pub(crate) fn sweep(&mut self, idx: &RefEdgeIndex, route: &Route, with_union: bool) {
        self.route_len = route.len();
        self.counts.clear();
        self.union.clear();
        if with_union {
            self.union.resize(idx.num_refs.div_ceil(64), 0);
        }
        for seg in route.segments() {
            let refs = idx.refs_on(*seg);
            if refs.is_empty() {
                continue;
            }
            self.counts.push(refs.len());
            if with_union {
                for &r in refs {
                    self.union[r as usize / 64] |= 1 << (r % 64);
                }
            }
        }
    }

    /// The swept `C_i(R)` as ascending reference indices.
    pub(crate) fn refs(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.union.len() * 64).filter(|r| self.union[r / 64] >> (r % 64) & 1 == 1)
    }

    /// Sweeps `route` for what `model` needs and returns its `f(R)`.
    fn popularity_of(
        &mut self,
        route: &Route,
        idx: &RefEdgeIndex,
        entropy_floor: f64,
        model: PopularityModel,
    ) -> f64 {
        self.sweep(idx, route, model == PopularityModel::PaperLiteral);
        self.popularity(entropy_floor, model)
    }

    /// `f(R)` of the swept route — see [`route_popularity`]. `PaperLiteral`
    /// needs a sweep `with_union`.
    pub(crate) fn popularity(&self, entropy_floor: f64, model: PopularityModel) -> f64 {
        // No covered segment ⇔ `C_i(R)` is empty.
        let total: usize = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut entropy = 0.0;
        for &c in &self.counts {
            let x = c as f64 / total as f64;
            entropy -= x * x.ln();
        }
        match model {
            PopularityModel::PaperLiteral => {
                // Equation 1 verbatim (floor still applied so single-segment
                // routes stay rankable in the multiplicative global score).
                let union: u32 = self.union.iter().map(|w| w.count_ones()).sum();
                f64::from(union) * (entropy + entropy_floor)
            }
            PopularityModel::ScaleFree => {
                let evenness = if self.counts.len() < 2 {
                    1.0
                } else {
                    entropy / (self.counts.len() as f64).ln()
                };
                let support = total as f64 / self.route_len as f64;
                support * (evenness + entropy_floor)
            }
        }
    }
}

/// Local-route popularity `f(R)` — Equation 1 with a normalised entropy.
///
/// The paper's raw entropy `Σ −x(r)·log x(r)` grows like `ln m` with the
/// number of covered segments `m`, so comparing routes of different lengths
/// systematically favours the longest one (harmless in the paper, where all
/// candidates of a pair are near-direct; decisive at our denser enumeration
/// scale — see DESIGN.md). We therefore use the *evenness* `entropy / ln m`
/// (∈ [0, 1], the paper's "uniformness of the distribution" reading, made
/// scale-free):
///
/// `f(R) = support(R) · (evenness + floor)`, where `support` is the mean
/// per-segment reference count `Σ_r |C_i(r)| / |R|` — again the scale-free
/// counterpart of the paper's `|⋃_r C_i(r)|`, which (like the raw entropy)
/// grows monotonically as segments are appended.
///
/// Reference support still dominates; evenness still prefers sustained
/// coverage over a single busy intersection (Figure 6); segments that no
/// reference travels drag the mean down, so routes straying off the
/// historical corridors lose; the floor keeps single-segment routes
/// (evenness defined as 1) and fully-concentrated distributions rankable.
///
/// This is the scoring kernel shared by route selection here and by the
/// global score in [`crate::global`].
#[must_use]
pub fn route_popularity(route: &Route, idx: &RefEdgeIndex, entropy_floor: f64) -> f64 {
    route_popularity_with(route, idx, entropy_floor, PopularityModel::ScaleFree)
}

/// [`route_popularity`] with an explicit [`PopularityModel`] — the ablation
/// entry point (`PaperLiteral` evaluates Equation 1 verbatim).
///
/// [`PopularityModel`]: crate::params::PopularityModel
#[must_use]
pub fn route_popularity_with(
    route: &Route,
    idx: &RefEdgeIndex,
    entropy_floor: f64,
    model: crate::params::PopularityModel,
) -> f64 {
    RouteCoverage::default().popularity_of(route, idx, entropy_floor, model)
}

/// Runs local inference for one pair, dispatching per
/// [`HrisParams::local_algorithm`] (the hybrid uses the reference-point
/// density and `τ`, Section III-B.3).
#[must_use]
pub fn infer_local_routes(
    net: &RoadNetwork,
    refs: ReferenceSet,
    qi_cands: &[CandidateEdge],
    qj_cands: &[CandidateEdge],
    params: &HrisParams,
) -> LocalInferenceResult {
    let density = refs.density_per_km2();

    let use_tgi = match params.local_algorithm {
        LocalAlgorithm::Tgi => true,
        LocalAlgorithm::Nni => false,
        LocalAlgorithm::Hybrid => match params.hybrid_polarity {
            // Figure 10: TGI overtakes NNI once density exceeds τ.
            HybridPolarity::Fig10 => density >= params.tau_per_km2,
            HybridPolarity::PaperText => density < params.tau_per_km2,
        },
    };

    // TGI's traverse graph reads every covered segment. NNI reads none
    // until its routes are final, so its index covers those alone (below).
    let tgi_index = use_tgi.then(|| RefEdgeIndex::build(net, &refs, params.candidate_eps_m));
    let (mut routes, mut stats) = match &tgi_index {
        Some(idx) => tgi::tgi(net, idx, qi_cands, qj_cands, params),
        None => nni::nni(net, &refs, qi_cands, qj_cands, params),
    };
    stats.density = density;

    // The plain shortest-path routes between the endpoint candidates are
    // always candidates too — the "null hypothesis" the history must beat.
    // They also anchor the detour-plausibility bound.
    let oracle = net.sp_oracle();
    let mut sp_len = f64::INFINITY;
    for a in qi_cands.iter().take(2) {
        for b in qj_cands.iter().take(2) {
            if let Some(sp) =
                oracle.route_between(a.segment, b.segment, hris_roadnet::CostModel::Distance)
            {
                sp_len = sp_len.min(sp.length(net));
                routes.push(sp);
            }
        }
    }

    // Deduplicate (after loop excision — graph projection can bridge via
    // backtracking), then keep the `max_local_routes` most *popular*
    // candidates — K-GRI ranks by popularity anyway, so the cap must not
    // discard the routes the history supports best.
    let routes = routes.into_iter().map(|r| r.without_loops(net)).collect();
    let mut routes = dedup_routes(routes, net, usize::MAX);
    // Plausibility bound: drop candidates detouring far beyond the shortest
    // network path between the pair's candidate edges.
    if sp_len.is_finite() {
        let bound = sp_len * params.max_detour_ratio.max(1.0);
        routes.retain(|r| r.length(net) <= bound);
    }
    // The pipeline's sparseness fallback, the shortest path between the
    // first candidates, needs no coverage here: it lands only on a pair
    // left with no routes, and the shortest of the paths pushed above is
    // within the detour bound, so such a pair had none of them — the
    // fallback's among them.
    let edge_index = tgi_index.unwrap_or_else(|| {
        RefEdgeIndex::build_for_routes(net, &refs, params.candidate_eps_m, &routes)
    });
    // Precompute each route's popularity once: the previous in-comparator
    // evaluation recomputed the full scoring kernel O(n log n) times and
    // dominated the per-pair profile. The stable sort over identical key
    // values yields exactly the order the comparator-driven sort produced.
    let mut cov = RouteCoverage::default();
    let mut keyed: Vec<(f64, Route)> = routes
        .into_iter()
        .map(|r| {
            let f = cov.popularity_of(
                &r,
                &edge_index,
                params.entropy_floor,
                params.popularity_model,
            );
            (f, r)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut routes: Vec<Route> = keyed.into_iter().map(|(_, r)| r).collect();
    routes.truncate(params.max_local_routes.max(1));

    LocalInferenceResult {
        routes,
        edge_index,
        refs,
        stats,
    }
}

/// Deduplicates routes and keeps connected ones, capping the count.
#[must_use]
pub fn dedup_routes(routes: Vec<Route>, net: &RoadNetwork, cap: usize) -> Vec<Route> {
    let mut seen: FxHashSet<Vec<SegmentId>> = FxHashSet::default();
    let mut out = Vec::new();
    for r in routes {
        if r.is_empty() || !r.is_connected(net) {
            continue;
        }
        if seen.insert(r.segments().to_vec()) {
            out.push(r);
            if out.len() >= cap.max(1) {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{RefKind, RefTrajectory};
    use hris_geo::Point;
    use hris_roadnet::{generator, NetworkConfig};
    use hris_traj::{GpsPoint, TrajId};

    fn net() -> RoadNetwork {
        generator::generate(&NetworkConfig {
            jitter_frac: 0.0,
            curve_frac: 0.0,
            removal_frac: 0.0,
            oneway_frac: 0.0,
            ..NetworkConfig::small(1)
        })
    }

    /// A reference walking from x=a to x=b, zig-zagging between two rows so
    /// the point cloud has a two-dimensional bounding box (finite density).
    fn make_ref(net: &RoadNetwork, a: f64, b: f64, id: u32) -> RefTrajectory {
        let n = 8;
        let points = (0..n)
            .map(|k| {
                let x = a + (b - a) * k as f64 / (n - 1) as f64;
                let y = if k % 2 == 0 { 0.0 } else { 200.0 };
                // Place points on the nearest road to keep candidates rich.
                let snapped = net.nearest_segment(Point::new(x, y)).unwrap().closest;
                GpsPoint::new(snapped, k as f64 * 30.0)
            })
            .collect();
        RefTrajectory {
            kind: RefKind::Simple,
            sources: vec![TrajId(id)],
            points,
        }
    }

    #[test]
    fn edge_index_links_refs_to_segments() {
        let net = net();
        let refs = ReferenceSet {
            refs: vec![make_ref(&net, 0.0, 800.0, 0), make_ref(&net, 0.0, 800.0, 1)],
        };
        let idx = RefEdgeIndex::build(&net, &refs, 40.0);
        assert!(!idx.is_empty());
        // Segments near the corridor should carry both references.
        let covered_by_both = idx
            .traverse_edges()
            .iter()
            .filter(|&&s| idx.covering_count(s) == 2)
            .count();
        assert!(covered_by_both > 0);
        // Union over any covered route equals {0, 1} somewhere.
        assert!(!idx.traverse_edges().is_empty());
        // CSR build matches the raw-pairs constructor and the uncached
        // candidate lookup.
        let mut pairs = Vec::new();
        for (ri, r) in refs.refs.iter().enumerate() {
            for p in &r.points {
                for cand in net.candidate_edges(p.pos, 40.0) {
                    pairs.push((cand.segment, ri));
                }
            }
        }
        assert_eq!(idx, RefEdgeIndex::from_pairs(pairs));
    }

    #[test]
    fn dedup_removes_duplicates_and_disconnected() {
        let net = net();
        let r = net.segments()[0].id;
        let s = net.next_segments(r)[0];
        let good = Route::new(vec![r, s]);
        let dup = Route::new(vec![r, s]);
        // A disconnected route: two random segments that don't touch.
        let far = net
            .segments()
            .iter()
            .find(|x| x.from != net.segment(r).to && x.id != r)
            .unwrap()
            .id;
        let bad = Route::new(vec![r, far]);
        let out = dedup_routes(vec![good.clone(), dup, bad, Route::empty()], &net, 10);
        assert_eq!(out, vec![good]);
    }

    #[test]
    fn dedup_caps_count() {
        let net = net();
        let routes: Vec<Route> = net
            .segments()
            .iter()
            .take(30)
            .map(|s| Route::new(vec![s.id]))
            .collect();
        assert_eq!(dedup_routes(routes, &net, 5).len(), 5);
    }

    #[test]
    fn hybrid_dispatch_uses_density() {
        let net = net();
        // Dense reference cloud → Fig10 polarity picks TGI.
        let refs = ReferenceSet {
            refs: (0..30).map(|i| make_ref(&net, 0.0, 600.0, i)).collect(),
        };
        let qi = net.candidate_edges(Point::new(0.0, 0.0), 80.0);
        let qj = net.candidate_edges(Point::new(600.0, 0.0), 80.0);
        let params = HrisParams {
            tau_per_km2: 1.0, // anything is "dense"
            ..HrisParams::default()
        };
        let res = infer_local_routes(&net, refs.clone(), &qi, &qj, &params);
        assert_eq!(res.stats.algorithm, "TGI");

        let params = HrisParams {
            tau_per_km2: f64::INFINITY, // nothing is dense
            ..HrisParams::default()
        };
        let res = infer_local_routes(&net, refs, &qi, &qj, &params);
        assert_eq!(res.stats.algorithm, "NNI");
    }

    /// A random reference set over `net`: references as jittered walks
    /// between random spots (some points off every road), sometimes
    /// repeating a point of the previous reference, as a spliced reference
    /// repeats its source trips' points.
    fn random_refs(net: &RoadNetwork, seed: u64) -> ReferenceSet {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let bbox = net.bbox();
        let spot = |rng: &mut rand_chacha::ChaCha8Rng| {
            Point::new(
                rng.gen_range(bbox.min.x - 100.0..bbox.max.x + 100.0),
                rng.gen_range(bbox.min.y - 100.0..bbox.max.y + 100.0),
            )
        };
        let (from, to) = (spot(&mut rng), spot(&mut rng));
        let mut refs: Vec<RefTrajectory> = Vec::new();
        for id in 0..rng.gen_range(1..7u32) {
            let n = rng.gen_range(1..25);
            let mut points: Vec<GpsPoint> = (0..n)
                .map(|k| {
                    let f = k as f64 / n as f64;
                    let x = from.x + (to.x - from.x) * f + rng.gen_range(-60.0..60.0);
                    let y = from.y + (to.y - from.y) * f + rng.gen_range(-60.0..60.0);
                    GpsPoint::new(Point::new(x, y), k as f64 * 30.0)
                })
                .collect();
            if let Some(prev) = refs.last() {
                if rng.gen_bool(0.5) {
                    points.extend_from_slice(&prev.points[..prev.points.len() / 2]);
                }
            }
            refs.push(RefTrajectory {
                kind: RefKind::Simple,
                sources: vec![TrajId(id)],
                points,
            });
        }
        ReferenceSet { refs }
    }

    /// Networks of three sizes, each with its own segment-table pool.
    fn sized_nets() -> [RoadNetwork; 3] {
        let grid = |blocks: usize, seed: u64| {
            generator::generate(&NetworkConfig {
                blocks_x: blocks,
                blocks_y: blocks,
                ..NetworkConfig::small(seed)
            })
        };
        [grid(3, 2), net(), grid(16, 3)]
    }

    /// The build on the pooled segment table — reused pair after pair,
    /// interleaved across networks of different sizes — equals the
    /// full-scan build on fresh counters.
    #[test]
    fn pooled_build_matches_full_scan_build_across_networks() {
        let nets = sized_nets();
        for seed in 0..90u64 {
            let net = &nets[(seed % 3) as usize];
            let refs = random_refs(net, seed);
            let eps = [20.0, 40.0, 80.0][(seed / 3 % 3) as usize];
            let got = RefEdgeIndex::build(net, &refs, eps);
            assert_eq!(
                got,
                reference::build_full_scan(net, &refs, eps),
                "seed {seed}"
            );
        }
    }

    /// The route-restricted index reads like the full one on every segment
    /// of its routes — `refs_on`, `refs_on_route` and both popularity
    /// models, bit for bit — and reads empty elsewhere; some reference
    /// points fall to the bounding-box prune and some pass it.
    #[test]
    fn route_restricted_index_reads_like_full_index() {
        use rand::{Rng, SeedableRng};
        let nets = sized_nets();
        let (mut pruned, mut looked_up) = (0usize, 0usize);
        for seed in 0..90u64 {
            let net = &nets[(seed % 3) as usize];
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let refs = random_refs(net, seed);
            let eps = 40.0;
            let m = net.num_segments() as u32;
            let routes: Vec<Route> = (0..rng.gen_range(0..4))
                .filter_map(|_| {
                    let (a, b) = (
                        SegmentId(rng.gen_range(0..m)),
                        SegmentId(rng.gen_range(0..m)),
                    );
                    net.sp_oracle()
                        .route_between(a, b, hris_roadnet::CostModel::Distance)
                })
                .collect();
            let full = RefEdgeIndex::build(net, &refs, eps);
            let restricted = RefEdgeIndex::build_for_routes(net, &refs, eps, &routes);
            let on_route: FxHashSet<SegmentId> = routes
                .iter()
                .flat_map(|r| r.segments().iter().copied())
                .collect();
            for s in net.segments() {
                let want: &[u32] = if on_route.contains(&s.id) {
                    full.refs_on(s.id)
                } else {
                    &[]
                };
                assert_eq!(
                    restricted.refs_on(s.id),
                    want,
                    "seed {seed} segment {:?}",
                    s.id
                );
            }
            for route in &routes {
                assert_eq!(
                    restricted.refs_on_route(route),
                    full.refs_on_route(route),
                    "seed {seed}"
                );
                for model in [PopularityModel::ScaleFree, PopularityModel::PaperLiteral] {
                    let got = route_popularity_with(route, &restricted, 0.05, model);
                    let want = route_popularity_with(route, &full, 0.05, model);
                    assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} {model:?}");
                }
            }
            let mut within = BBox::empty();
            for &s in &on_route {
                within.expand(&net.segment(s).geometry.bbox());
            }
            for p in refs.refs.iter().flat_map(|r| &r.points) {
                if within.min_dist_sq(p.pos) > eps * eps {
                    pruned += 1;
                } else {
                    looked_up += 1;
                }
            }
        }
        assert!(
            pruned >= 50 && looked_up >= 50,
            "both sides of the prune must occur: {pruned} pruned, {looked_up} looked up"
        );
    }

    /// TGI on the network's pooled segment table, reused pair after pair,
    /// infers what it infers on a fresh clone of the network (fresh caches,
    /// empty pool), on networks of three sizes.
    #[test]
    fn tgi_on_pooled_tables_matches_a_fresh_network() {
        let nets = sized_nets();
        let params = HrisParams::default();
        for seed in 0..36u64 {
            let net = &nets[(seed % 3) as usize];
            let refs = random_refs(net, seed);
            let ends = |r: &RefTrajectory| (r.points[0].pos, r.points[r.points.len() - 1].pos);
            let (qi, qj) = ends(&refs.refs[0]);
            let qi = net.candidate_edges(qi, 120.0);
            let qj = net.candidate_edges(qj, 120.0);
            let fresh = net.clone();
            let idx = RefEdgeIndex::build(net, &refs, params.candidate_eps_m);
            let (got, got_stats) = tgi::tgi(net, &idx, &qi, &qj, &params);
            let (want, want_stats) = tgi::tgi(&fresh, &idx, &qi, &qj, &params);
            assert_eq!(got, want, "seed {seed}");
            let counts = |s: &LocalStats| {
                (
                    s.traverse_nodes,
                    s.traverse_edges_initial,
                    s.traverse_edges_final,
                    s.augmentation_links,
                )
            };
            assert_eq!(counts(&got_stats), counts(&want_stats), "seed {seed}");
        }
    }

    /// Random coverage of a random route (segments 0..12, so repeats are
    /// common), steered by `seed % 4` towards: nothing on the route
    /// covered, exactly one covered segment, free coverage, free coverage
    /// plus one reference on every segment.
    fn random_coverage(seed: u64) -> (Route, RefEdgeIndex) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut segs: Vec<SegmentId> = (0..rng.gen_range(1..=10))
            .map(|_| SegmentId(rng.gen_range(0..12)))
            .collect();
        // Reference indices reach past one bitset word in a third of cases.
        let n_refs = [1usize, 3, 8, 70][rng.gen_range(0..4usize)];
        let mut pairs: Vec<(SegmentId, usize)> = Vec::new();
        // Off-route coverage, so the index is never trivially empty.
        for _ in 0..rng.gen_range(0..6) {
            pairs.push((SegmentId(rng.gen_range(100..110)), rng.gen_range(0..n_refs)));
        }
        match seed % 4 {
            0 => {}
            1 => {
                segs.sort_unstable();
                segs.dedup();
                let only = segs[rng.gen_range(0..segs.len())];
                for _ in 0..rng.gen_range(1..=4) {
                    pairs.push((only, rng.gen_range(0..n_refs)));
                }
            }
            mode => {
                let p = rng.gen_range(0.05..0.9);
                for &s in &segs {
                    for r in 0..n_refs {
                        if rng.gen_bool(p) {
                            pairs.push((s, r));
                        }
                    }
                    if mode == 3 {
                        pairs.push((s, n_refs - 1));
                    }
                }
            }
        }
        (Route::new(segs), RefEdgeIndex::from_pairs(pairs))
    }

    /// The single sweep evaluates Equation 1 to the bit the two-union
    /// kernel did, for both models, in every coverage regime — and each
    /// regime must actually occur.
    #[test]
    fn single_sweep_popularity_matches_reference_in_all_regimes() {
        use proptest::prelude::*;
        // [nothing covered, one covered segment, a covered segment repeated
        //  inside the route, a reference on every segment]
        let mut regimes = [0usize; 4];
        proptest::test_runner::run(
            ProptestConfig::with_cases(256),
            file!(),
            "single_sweep_popularity_matches_reference_in_all_regimes",
            |rng| {
                let seed = (0u64..u64::MAX).generate(rng);
                let floor = [0.0, 0.05, (0.0..1.0f64).generate(rng)][(seed % 3) as usize];
                let (route, idx) = random_coverage(seed);
                let union = reference::refs_on_route(&idx, &route);
                prop_assert_eq!(&idx.refs_on_route(&route), &union, "seed {seed}");
                for model in [PopularityModel::ScaleFree, PopularityModel::PaperLiteral] {
                    let new = route_popularity_with(&route, &idx, floor, model);
                    let old = reference::route_popularity_with(&route, &idx, floor, model);
                    prop_assert_eq!(new.to_bits(), old.to_bits(), "seed {seed} {model:?}");
                }

                let segs = route.segments();
                let covered = segs.iter().filter(|&&s| idx.covering_count(s) > 0);
                match covered.clone().count() {
                    0 => regimes[0] += 1,
                    1 => regimes[1] += 1,
                    _ => {}
                }
                let repeated = |s: &SegmentId| segs.iter().filter(|&t| t == s).count() > 1;
                regimes[2] += usize::from(covered.clone().any(repeated));
                let everywhere =
                    |&r: &usize| segs.iter().all(|&s| idx.refs_on(s).contains(&(r as u32)));
                regimes[3] += usize::from(union.iter().any(everywhere));
                Ok(())
            },
        );
        assert!(
            regimes.iter().all(|&n| n >= 5),
            "every regime must be exercised: {regimes:?}"
        );
    }
}

/// The index build and the popularity kernel as they stood before their
/// rewrites — the build over the whole segment universe, the kernel with
/// two walks over the route and the union materialised — kept verbatim as
/// the references of the equivalence tests here and of `global`'s
/// reference DP.
#[cfg(test)]
pub(crate) mod reference {
    use super::{RefEdgeIndex, Route};
    use hris_roadnet::{RoadNetwork, SegmentId};

    /// `RefEdgeIndex::build` as it stood before the pooled segment table —
    /// a counting sort over `num_segments + 1` fresh counters, cloned for
    /// the scatter and scanned whole — kept verbatim.
    pub(crate) fn build_full_scan(
        net: &RoadNetwork,
        refs: &crate::reference::ReferenceSet,
        eps: f64,
    ) -> RefEdgeIndex {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (ri, r) in refs.refs.iter().enumerate() {
            let ri = u32::try_from(ri).expect("reference index fits u32");
            for p in &r.points {
                net.candidate_segments_cached(p.pos, eps, |segs| {
                    pairs.extend(segs.iter().map(|seg| (seg.0, ri)));
                });
            }
        }
        // Counting sort over the (small, dense) segment universe. The outer
        // loop above emits reference indices in ascending order, so a stable
        // scatter leaves every per-segment bucket sorted — same `(seg, ref)`
        // order `from_pairs` produces, without the comparison sort.
        let n = net.num_segments();
        let mut counts = vec![0u32; n + 1];
        for &(seg, _) in &pairs {
            counts[seg as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut slots: Vec<u32> = vec![0; pairs.len()];
        let mut cursor = counts.clone();
        for &(seg, ri) in &pairs {
            let c = &mut cursor[seg as usize];
            slots[*c as usize] = ri;
            *c += 1;
        }
        let mut segs: Vec<SegmentId> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut out_refs: Vec<u32> = Vec::new();
        let mut num_refs = 0usize;
        for seg in 0..n {
            let (lo, hi) = (counts[seg] as usize, counts[seg + 1] as usize);
            if lo == hi {
                continue;
            }
            segs.push(SegmentId(seg as u32));
            offsets.push(out_refs.len() as u32);
            let start = out_refs.len();
            for &r in &slots[lo..hi] {
                if out_refs.len() > start && out_refs[out_refs.len() - 1] == r {
                    continue;
                }
                out_refs.push(r);
                num_refs = num_refs.max(r as usize + 1);
            }
        }
        if !segs.is_empty() {
            offsets.push(out_refs.len() as u32);
        }
        RefEdgeIndex {
            segs,
            offsets,
            refs: out_refs,
            num_refs,
        }
    }

    pub(crate) fn refs_on_route(idx: &RefEdgeIndex, route: &Route) -> Vec<usize> {
        let mut words = vec![0u64; idx.num_refs.div_ceil(64)];
        for seg in route.segments() {
            for &r in idx.refs_on(*seg) {
                words[r as usize / 64] |= 1 << (r % 64);
            }
        }
        let mut out = Vec::new();
        for (w, &bits) in words.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(w * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }

    pub(crate) fn route_popularity_with(
        route: &Route,
        idx: &RefEdgeIndex,
        entropy_floor: f64,
        model: crate::params::PopularityModel,
    ) -> f64 {
        let union = refs_on_route(idx, route);
        if union.is_empty() {
            return 0.0;
        }
        let covered: Vec<usize> = route
            .segments()
            .iter()
            .map(|s| idx.covering_count(*s))
            .filter(|&c| c > 0)
            .collect();
        let total: usize = covered.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut entropy = 0.0;
        for &c in &covered {
            let x = c as f64 / total as f64;
            entropy -= x * x.ln();
        }
        match model {
            crate::params::PopularityModel::PaperLiteral => {
                // Equation 1 verbatim (floor still applied so single-segment
                // routes stay rankable in the multiplicative global score).
                union.len() as f64 * (entropy + entropy_floor)
            }
            crate::params::PopularityModel::ScaleFree => {
                let evenness = if covered.len() < 2 {
                    1.0
                } else {
                    entropy / (covered.len() as f64).ln()
                };
                let support = total as f64 / route.len() as f64;
                support * (evenness + entropy_floor)
            }
        }
    }
}
