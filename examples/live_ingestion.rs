//! Live ingestion: serve route-inference queries from an owned
//! [`EngineHandle`] while new taxi traces stream into the archive through an
//! [`ArchiveWriter`], epoch by epoch — each epoch is indexed off the query
//! path, so queries never wait for it.
//!
//! ```text
//! cargo run --release --example live_ingestion
//! ```

use hris::prelude::*;
use hris_roadnet::{generator, NetworkConfig};
use hris_traj::{resample_to_interval, simulator, SimConfig, Simulator, TrajId, Trajectory};
use std::sync::Arc;

fn main() {
    // 1. A city and a day-one archive: only the first 400 simulated trips
    //    have arrived so far.
    let net = Arc::new(generator::generate(&NetworkConfig::default()));
    let mut sim = Simulator::new(
        &net,
        SimConfig {
            num_trips: 1200,
            num_od_patterns: 40,
            min_trip_dist_m: 3_000.0,
            seed: 7,
            ..SimConfig::default()
        },
    );
    let (archive, _truth) = sim.generate_archive();
    let mut trips = archive.trajectories().to_vec();
    let stream = trips.split_off(400);

    // 2. A writer owns the growing set of trips; the engine handle follows its
    //    published snapshots. The handle is Send + Sync + 'static — share
    //    it behind an Arc with as many query threads as you like.
    let mut writer = ArchiveWriter::new(TrajectoryArchive::new(trips));
    let handle = Arc::new(EngineHandle::live(
        Arc::clone(&net),
        writer.reader(),
        HrisParams::default(),
        EngineConfig::default(),
    ));

    // 3. A query that will repeat as the archive grows.
    let (_, _, route) = sim
        .od_with_dist(4_000.0, 6_000.0)
        .expect("found a suitable trip");
    let dense = simulator::drive_route(&net, &route, 0.0, 20.0, 0.8).expect("route drivable");
    let query = resample_to_interval(&Trajectory::new(TrajId(0), dense), 180.0);

    // 4. Interleave: queries on one thread, ingestion on this one. Each
    //    publish makes a new immutable epoch; queries in flight keep the
    //    epoch they started on.
    let answers = {
        let handle = Arc::clone(&handle);
        let query = query.clone();
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            for _ in 0..8 {
                let r = handle.infer_query(&query, 1);
                seen.push((handle.epoch(), r.globals.len()));
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            seen
        })
    };
    for chunk in stream.chunks(100) {
        writer.append_batch(chunk.to_vec());
        let snap = writer.publish();
        println!(
            "published epoch {}: {} trips, {} points",
            snap.epoch(),
            snap.num_trajectories(),
            snap.num_points()
        );
    }
    for (epoch, k) in answers.join().expect("query thread") {
        println!("query answered against epoch {epoch}: {k} route(s)");
    }

    // 5. The writer's report is the ingestion audit trail.
    let report = writer.report();
    println!(
        "ingested {} trips / {} points across {} epochs ({} quarantined)",
        report.trajectories_appended,
        report.points_appended,
        report.epochs_published,
        report.trajectories_quarantined
    );
}
