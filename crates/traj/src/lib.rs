//! Trajectory substrate: GPS points, trajectories, the historical archive,
//! preprocessing (stay-point detection, trip partition, resampling) and the
//! taxi-fleet simulator that generates paper-scale synthetic data.
//!
//! The paper's system ingests raw taxi GPS logs, partitions them into trips
//! at stay points, map-matches the points, and indexes everything in an
//! R-tree (Section II-B.1). This crate implements that whole data layer,
//! plus the simulator that substitutes for the 33,000-taxi Beijing dataset
//! (see the substitutions table in DESIGN.md).

#![warn(missing_docs)]

pub mod archive;
pub mod faults;
pub mod geojson;
pub mod ingest;
pub mod partition;
pub mod resample;
pub mod simulator;
pub mod snapshot;
pub mod staypoint;
pub mod types;

pub use archive::{encode_trips, ArchivePoint, LoadReport, TolerantLoadOptions, TrajectoryArchive};
pub use faults::{fault_corpus, FaultInjector, FaultKind};
pub use ingest::{ArchiveSnapshot, ArchiveWriter, IngestOptions, IngestReport, SnapshotReader};
pub use partition::{partition_archive, ArchivePartition};
pub use resample::{add_gps_noise, resample_to_interval};
pub use simulator::{SimConfig, Simulator, TripRecord};
pub use snapshot::{
    encode_snapshot, ColumnarSnapshot, SnapshotError, SnapshotHeader, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use staypoint::{detect_stay_points, partition_trips, StayPoint, StayPointConfig};
pub use types::{
    sanitize_points, GpsPoint, PointRepairs, SanitizeLimits, TrajId, Trajectory, TrajectoryError,
};
