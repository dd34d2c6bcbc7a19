//! Routes: connected sequences of road segments (Definition 4).

use crate::ids::{NodeId, SegmentId};
use crate::network::RoadNetwork;
use hris_geo::Polyline;

/// A route `R : r₁ → r₂ → … → rₙ` where consecutive segments connect
/// head-to-tail (`r_{k+1}.s = r_k.e`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Route {
    segments: Vec<SegmentId>,
}

impl Route {
    /// A route over the given segments.
    ///
    /// Connectivity is *not* checked here (it needs the network); call
    /// [`Route::is_connected`] to verify.
    #[must_use]
    pub fn new(segments: Vec<SegmentId>) -> Self {
        Route { segments }
    }

    /// The empty route.
    #[must_use]
    pub fn empty() -> Self {
        Route {
            segments: Vec::new(),
        }
    }

    /// Segment ids in travel order.
    #[inline]
    #[must_use]
    pub fn segments(&self) -> &[SegmentId] {
        &self.segments
    }

    /// Number of segments.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// `true` for the empty route.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Start vertex (`R.s = r₁.s`); `None` for the empty route.
    #[must_use]
    pub fn start_node(&self, net: &RoadNetwork) -> Option<NodeId> {
        self.segments.first().map(|&s| net.segment(s).from)
    }

    /// Total length in metres.
    #[must_use]
    pub fn length(&self, net: &RoadNetwork) -> f64 {
        self.segments.iter().map(|&s| net.segment(s).length).sum()
    }

    /// Free-flow travel time in seconds.
    #[must_use]
    pub fn travel_time(&self, net: &RoadNetwork) -> f64 {
        self.segments
            .iter()
            .map(|&s| net.segment(s).travel_time())
            .sum()
    }

    /// `true` if every consecutive pair connects head-to-tail.
    /// The empty route and single-segment routes are trivially connected.
    #[must_use]
    pub fn is_connected(&self, net: &RoadNetwork) -> bool {
        self.segments
            .windows(2)
            .all(|w| net.segment(w[0]).to == net.segment(w[1]).from)
    }

    /// Concatenates with `other` (`R₁ ⋄ R₂` in the paper's notation),
    /// dropping a duplicated joint segment if `other` starts with the same
    /// segment `self` ends with.
    #[must_use]
    pub fn concat(&self, other: &Route) -> Route {
        let mut segments = self.segments.clone();
        let skip_first = match (segments.last(), other.segments.first()) {
            (Some(&a), Some(&b)) => a == b,
            _ => false,
        };
        segments.extend_from_slice(&other.segments[usize::from(skip_first)..]);
        Route { segments }
    }

    /// Appends one segment.
    pub fn push(&mut self, seg: SegmentId) {
        self.segments.push(seg);
    }

    /// Removes loops: whenever the route revisits a vertex, the segments
    /// between the two visits are excised. Connectivity is preserved (the
    /// route re-enters exactly where it left). Bridging mismatched local
    /// routes at query points can create such backtracking (Section III-C's
    /// "use shortest path to bridge this gap"); excising it keeps inferred
    /// routes from ballooning past the ground truth.
    #[must_use]
    pub fn without_loops(&self, net: &RoadNetwork) -> Route {
        if self.segments.len() < 2 {
            return self.clone();
        }
        let mut out: Vec<SegmentId> = Vec::with_capacity(self.segments.len());
        // Position in `out` *after* which each node occurs (out[..pos] ends
        // at that node). The start node occurs at position 0.
        let mut seen: std::collections::HashMap<NodeId, usize> = std::collections::HashMap::new();
        let start = net.segment(self.segments[0]).from;
        seen.insert(start, 0);
        for &sid in &self.segments {
            let end = net.segment(sid).to;
            out.push(sid);
            if let Some(&pos) = seen.get(&end) {
                // Loop: cut everything after `pos`, then forget the nodes
                // introduced by the excised stretch.
                out.truncate(pos);
                seen.retain(|_, &mut p| p <= pos);
            } else {
                seen.insert(end, out.len());
            }
        }
        Route { segments: out }
    }

    /// Renders the route as a single polyline; `None` for the empty route.
    #[must_use]
    pub fn polyline(&self, net: &RoadNetwork) -> Option<Polyline> {
        Polyline::concat(self.segments.iter().map(|&s| &net.segment(s).geometry))
    }

    /// Length of the longest common run of road segments with `other`,
    /// in metres. This is the `LCR` numerator of the paper's accuracy
    /// metric `A_L` when applied to contiguous runs; see `hris-eval` for the
    /// full metric.
    #[must_use]
    pub fn common_length(&self, other: &Route, net: &RoadNetwork) -> f64 {
        use std::collections::HashSet;
        let theirs: HashSet<SegmentId> = other.segments.iter().copied().collect();
        self.segments
            .iter()
            .filter(|s| theirs.contains(s))
            .map(|&s| net.segment(s).length)
            .sum()
    }
}

impl FromIterator<SegmentId> for Route {
    fn from_iter<I: IntoIterator<Item = SegmentId>>(iter: I) -> Self {
        Route {
            segments: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::RoadClass;
    use hris_geo::Point;

    /// Straight corridor 0→1→2→3, 100 m per segment, plus reverse edges.
    fn corridor() -> (RoadNetwork, Vec<SegmentId>) {
        let mut b = RoadNetwork::builder();
        let nodes: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(Point::new(i as f64 * 100.0, 0.0)))
            .collect();
        let mut fwd = Vec::new();
        for w in nodes.windows(2) {
            let shape = Polyline::straight(b.node(w[0]), b.node(w[1]));
            let (f, _) = b.add_two_way(w[0], w[1], shape, 10.0, RoadClass::Residential);
            fwd.push(f);
        }
        (b.build(), fwd)
    }

    #[test]
    fn route_basics() {
        let (net, fwd) = corridor();
        let r = Route::new(fwd.clone());
        assert_eq!(r.len(), 3);
        assert!(r.is_connected(&net));
        assert!((r.length(&net) - 300.0).abs() < 1e-9);
        assert!((r.travel_time(&net) - 30.0).abs() < 1e-9);
        assert_eq!(r.start_node(&net), Some(NodeId(0)));
    }

    #[test]
    fn empty_route() {
        let (net, _) = corridor();
        let r = Route::empty();
        assert!(r.is_empty());
        assert!(r.is_connected(&net));
        assert_eq!(r.length(&net), 0.0);
        assert!(r.start_node(&net).is_none());
        assert!(r.polyline(&net).is_none());
    }

    #[test]
    fn disconnected_route_detected() {
        let (net, fwd) = corridor();
        // Skip the middle segment.
        let r = Route::new(vec![fwd[0], fwd[2]]);
        assert!(!r.is_connected(&net));
    }

    #[test]
    fn concat_dedups_joint() {
        let (net, fwd) = corridor();
        let a = Route::new(vec![fwd[0], fwd[1]]);
        let b = Route::new(vec![fwd[1], fwd[2]]);
        let c = a.concat(&b);
        assert_eq!(c.segments(), &[fwd[0], fwd[1], fwd[2]]);
        assert!(c.is_connected(&net));
        // Without overlap, plain append.
        let d = Route::new(vec![fwd[0]]).concat(&Route::new(vec![fwd[1]]));
        assert_eq!(d.segments(), &[fwd[0], fwd[1]]);
    }

    #[test]
    fn polyline_covers_route() {
        let (net, fwd) = corridor();
        let r = Route::new(fwd);
        let pl = r.polyline(&net).unwrap();
        assert!((pl.length() - 300.0).abs() < 1e-9);
        assert_eq!(pl.start(), Point::new(0.0, 0.0));
        assert_eq!(pl.end(), Point::new(300.0, 0.0));
    }

    #[test]
    fn common_length_overlap() {
        let (net, fwd) = corridor();
        let a = Route::new(vec![fwd[0], fwd[1]]);
        let b = Route::new(vec![fwd[1], fwd[2]]);
        assert!((a.common_length(&b, &net) - 100.0).abs() < 1e-9);
        assert!((a.common_length(&a, &net) - 200.0).abs() < 1e-9);
        assert_eq!(a.common_length(&Route::empty(), &net), 0.0);
    }

    #[test]
    fn without_loops_cuts_backtracking() {
        let (net, fwd) = corridor();
        // Find the reverse twin of fwd[1].
        let rev1 = net
            .segments()
            .iter()
            .find(|s| s.from == net.segment(fwd[1]).to && s.to == net.segment(fwd[1]).from)
            .unwrap()
            .id;
        // 0→1→2, backtrack 2→1, then 1→2→3: the excursion collapses.
        let r = Route::new(vec![fwd[0], fwd[1], rev1, fwd[1], fwd[2]]);
        assert!(r.is_connected(&net));
        let clean = r.without_loops(&net);
        assert_eq!(clean.segments(), &[fwd[0], fwd[1], fwd[2]]);
        assert!(clean.is_connected(&net));
    }

    #[test]
    fn without_loops_keeps_simple_routes() {
        let (net, fwd) = corridor();
        let r = Route::new(fwd.clone());
        assert_eq!(r.without_loops(&net), r);
        assert_eq!(Route::empty().without_loops(&net), Route::empty());
        let single = Route::new(vec![fwd[0]]);
        assert_eq!(single.without_loops(&net), single);
    }
}
