//! Allocation-size probe: a query pair's kernels allocate what the pair
//! needs, not buffers sized by the network or the archive.
//!
//! A counting `#[global_allocator]` adds up the bytes each thread asks for.
//! On a `NetworkConfig::large` city with an archive of thousands of trips,
//! a warm `RefEdgeIndex::build` and `tgi` must each allocate fewer bytes
//! than one `u32` per road segment, and a warm `search_references` fewer
//! than one `(f64, u32)` slot per trip — the per-pair tables they used to
//! allocate and clear.
//!
//! One `#[test]` only, reading the probing thread's own counter, so the
//! harness's threads cannot add to it.

use hris::local::{tgi::tgi, RefEdgeIndex};
use hris::reference::{search_references, RefSearchConfig};
use hris::HrisParams;
use hris_geo::Point;
use hris_roadnet::{generator, CostModel, NetworkConfig};
use hris_traj::simulator::drive_route;
use hris_traj::{GpsPoint, TrajId, Trajectory, TrajectoryArchive};
use std::alloc::{GlobalAlloc, Layout, System};

struct CountingAlloc;

thread_local! {
    // `const`-initialised so reading it never itself allocates; `try_with`
    // keeps allocator calls during TLS teardown safe.
    static THREAD_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

fn thread_bytes() -> u64 {
    THREAD_BYTES.with(std::cell::Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes `f` allocates on this thread, and its result.
fn bytes_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = thread_bytes();
    let out = f();
    (thread_bytes() - before, out)
}

#[test]
fn warm_pair_kernels_allocate_less_than_one_universe_sized_buffer() {
    let net = generator::generate(&NetworkConfig::large(5));
    let params = HrisParams::default();
    let bbox = net.bbox();

    // The pair's corridor: eight trips driven along one ~3 km route.
    let route = net
        .sp_oracle()
        .route_between(
            net.nearest_segment(Point::new(bbox.min.x + 2_000.0, bbox.min.y + 2_000.0))
                .expect("segment")
                .segment,
            net.nearest_segment(Point::new(bbox.min.x + 2_600.0, bbox.min.y + 2_300.0))
                .expect("segment")
                .segment,
            CostModel::Distance,
        )
        .expect("the generated city is strongly connected");
    let mut trips: Vec<Trajectory> = (0..4)
        .map(|k| {
            let speed = 0.6 + 0.04 * f64::from(k);
            let points = drive_route(&net, &route, 0.0, 30.0, speed).expect("drivable");
            Trajectory::new(TrajId(0), points)
        })
        .collect();
    // Thousands of short trips far from it, so the archive is large.
    for k in 0..4_000u32 {
        let x = bbox.max.x - 8_000.0 + f64::from(k % 80) * 90.0;
        let y = bbox.max.y - 8_000.0 + f64::from(k / 80) * 150.0;
        trips.push(Trajectory::new(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(x, y), 0.0),
                GpsPoint::new(Point::new(x + 40.0, y), 30.0),
            ],
        ));
    }
    let archive = TrajectoryArchive::new(trips);
    let corridor = &archive.trajectory(TrajId(0)).points;
    let (qi, qj) = (corridor[0], corridor[corridor.len() - 1]);
    let dt = qj.t - qi.t;
    let cfg = RefSearchConfig::new(params.phi_m, params.splice_eps_m);
    let qi_cands = net.candidate_edges(qi.pos, params.candidate_eps_m);
    let qj_cands = net.candidate_edges(qj.pos, params.candidate_eps_m);

    let search = || search_references(&archive, qi.pos, qj.pos, dt, net.max_speed(), &cfg);
    let refs = search();
    let (search_bytes, again) = bytes_of(search);
    assert_eq!(again.len(), refs.len());
    assert!(
        refs.len() >= 4,
        "the corridor trips must be references: {}",
        refs.len()
    );

    let build = || RefEdgeIndex::build(&net, &refs, params.candidate_eps_m);
    let idx = build();
    let (build_bytes, again) = bytes_of(build);
    assert_eq!(again, idx);
    assert!(!idx.is_empty());

    // One endpoint pair and one path keep Yen's own path buffers — pair
    // work, growing with k₁ and the endpoint candidates — well below the
    // bound; a table with a slot per segment would still exceed it alone.
    let one_path = HrisParams {
        k1: 1,
        max_query_candidates: 1,
        ..params.clone()
    };
    let infer = || tgi(&net, &idx, &qi_cands, &qj_cands, &one_path);
    let (routes, _) = infer();
    let (tgi_bytes, (again, _)) = bytes_of(infer);
    assert_eq!(again, routes);
    assert!(!routes.is_empty());

    let per_segment = (net.num_segments() * std::mem::size_of::<u32>()) as u64;
    let per_trip = (archive.num_trajectories() * std::mem::size_of::<(f64, u32)>()) as u64;
    println!(
        "search_references {search_bytes} B (trip table {per_trip} B), build {build_bytes} B, \
         tgi {tgi_bytes} B (segment table {per_segment} B)"
    );
    assert!(
        search_bytes < per_trip,
        "search_references allocated {search_bytes} B, a trip-sized table is {per_trip} B"
    );
    assert!(
        build_bytes < per_segment,
        "RefEdgeIndex::build allocated {build_bytes} B, a segment-sized table is {per_segment} B"
    );
    assert!(
        tgi_bytes < per_segment,
        "tgi allocated {tgi_bytes} B, a segment-sized table is {per_segment} B"
    );
}
