//! Road-network substrate for the HRIS system.
//!
//! Provides:
//! - [`RoadNetwork`] — the directed road graph of Definitions 2–4 of the
//!   paper: segments with polyline shape, length and speed constraints,
//!   candidate-edge lookup (Definition 5) backed by an R-tree over segment
//!   bounding boxes, and segment-level hop search for λ-neighborhoods
//!   (Definition 8).
//! - [`Route`] — a connected sequence of road segments (Definition 4).
//! - [`DiGraph`] — a generic weighted digraph with Dijkstra, Yen's K-shortest
//!   simple paths, and Tarjan SCC; used both here and by the traverse-graph
//!   construction in the core crate.
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
pub mod shortest;

pub use digraph::{CsrView, DiGraph, DijkstraScratch};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use generator::{NetworkConfig, RoadClass};
pub use ids::{NodeId, SegmentId};
pub use network::{LambdaSoA, RoadNetwork, Segment};
pub use oracle::{CsrAdjacency, ScratchBuffers, SpOracle, SptTree};
pub use route::Route;
pub use shortest::{CostModel, PathResult};
