//! The HRIS benchmark: four workloads, end-to-end metrics and an
//! outside-in per-layer cost table. See `README.md` in this directory.

#![warn(missing_docs)]

pub mod alloc;
pub mod e2e;
pub mod front;
pub mod host;
pub mod layers;
pub mod report;
pub mod spans;
pub mod spec;
pub mod staged;
pub mod stats;
pub mod timed;
pub mod workload;
