//! Road-network substrate for the HRIS system.
//!
//! Provides:
//! - [`RoadNetwork`] — the directed road graph of Definitions 2–4 of the
//!   paper: segments with polyline shape, length and speed constraints,
//!   candidate-edge lookup (Definition 5) backed by an R-tree over segment
//!   bounding boxes, and segment-level hop search for λ-neighborhoods
//!   (Definition 8).
//! - [`Route`] — a connected sequence of road segments (Definition 4).
//! - [`CsrView`] — a weighted digraph in CSR form with Dijkstra, Yen's
//!   K-shortest simple paths and Tarjan SCC, sharing one heap order and one
//!   [`DijkstraScratch`] with every other search in the crate; used by the
//!   traverse-graph construction in the core crate and the simulator's
//!   route choice.
//! - [`SpOracle`] — the road network's shortest-path oracle (CSR adjacency,
//!   SCC reachability, cached shortest-path trees) that every production
//!   road-network search runs on; [`shortest`] keeps the textbook searches
//!   it is checked against.
//! - [`SparseSlots`] / [`SlotPool`] — pooled per-call tables over
//!   segment or trip ids that reset in time proportional to the ids a call
//!   touched.
//! - [`generator`] — a synthetic urban network generator standing in for the
//!   paper's Beijing road network (see DESIGN.md, substitutions table).

#![warn(missing_docs)]

pub mod digraph;
pub mod fxhash;
pub mod generator;
pub mod ids;
pub mod network;
pub mod oracle;
pub mod route;
pub mod scratch;
pub mod shortest;

pub use digraph::{tarjan_scc, CsrView, DijkstraScratch};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use generator::{NetworkConfig, RoadClass};
pub use ids::{NodeId, SegmentId};
pub use network::{CostModel, LambdaSoA, RoadNetwork, Segment};
pub use oracle::{PathResult, SpOracle, SptTree};
pub use route::Route;
pub use scratch::{SlotPool, SparseSlots};
