//! Telling the program's speed from the host's.
//!
//! The benchmark runs on a few cores of a shared host. Two things there move
//! a wall-clock time by 20–50 % while the program does exactly the same
//! work: the scheduler takes the thread off its core whenever something else
//! is runnable, and neighbours on the same socket slow every memory access
//! for seconds to minutes at a time. Neither is the program's doing, and a
//! bound of 25 % cannot tell either from a regression. So the gated timings
//! are taken differently:
//!
//! * every timed section reads the **CPU clock of the thread that does the
//!   work** ([`thread_cpu`]), which stands still while the thread is off its
//!   core. Query work therefore has to stay on the calling thread, and
//!   [`off_thread_share`] is how a run proves that it did;
//! * a fixed piece of work of the benchmark's own — the [`Calibrator`]:
//!   allocator churn, a hash map, Dijkstra on a grid, the instruction mix of
//!   the program but none of its code — is timed on the same clock every
//!   hundred milliseconds or so of query work. A section's time is divided
//!   by how much slower than [`REFERENCE_MS`] the calibration samples around
//!   it ran ([`HostMeter::slowdown`]), which turns it into *milliseconds at
//!   reference speed*.
//!
//! On identical work the two together bring the spread between runs from
//! 8–16 % down to 1–4 % (README, "Steadiness"). Wall-clock values are still
//! reported beside the gated ones, as `wall_*` rows, with `host_slowdown`.

use crate::stats::median;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux's per-thread CPU clock (64-bit `timespec`)");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` of the layout 64-bit Linux
    // declares (two 64-bit fields), and both ids name clocks every Linux
    // process has; the call writes `ts` and touches nothing else.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the calling thread has consumed; stands still while the thread
/// is not on a core. Take differences around a section.
#[must_use]
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of the process have consumed.
#[must_use]
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Share of the process's CPU time that the accounted threads did **not**
/// consume. The thread clock sees only its own thread, so a timed section
/// is valid only while this stays below [`MAX_OFF_THREAD`].
#[must_use]
pub fn off_thread_share(process: Duration, accounted: Duration) -> f64 {
    if process.is_zero() {
        return 0.0;
    }
    process.saturating_sub(accounted).as_secs_f64() / process.as_secs_f64()
}

/// Largest [`off_thread_share`] a run may show and still be correct: the
/// program moved query work to threads the thread clock does not see, and
/// the benchmark must be changed before its numbers mean anything.
pub const MAX_OFF_THREAD: f64 = 0.03;

/// About what one calibration sample costs on the reference container,
/// milliseconds of thread CPU time (4.5 on its best day, 10 on its worst).
/// Only ratios to it matter; it fixes the unit of the normalised metrics.
pub const REFERENCE_MS: f64 = 5.2;

/// Side of the calibrator's grid graph (49 × 49 = the city's 2401 nodes).
const GRID_SIDE: usize = 49;
/// Keys of the calibrator's hash map: a few megabytes, like the archive.
const HASH_KEYS: u64 = 1 << 18;
const HASH_OPS: usize = 20_000;
const CHURN_ALLOCS: usize = 10_000;
const DIJKSTRA_RUNS: usize = 8;

/// The benchmark's own fixed work: as sensitive to the host's memory system
/// as the program (allocation churn, hashing, heap-driven graph search over
/// a city-sized graph), and untouched by any change to the program.
pub struct Calibrator {
    adj: Vec<Vec<(u32, u32)>>,
    map: HashMap<u64, u64>,
    rng: u64,
    source: usize,
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state
}

impl Calibrator {
    /// Builds the graph and fills the hash map to its steady size.
    #[must_use]
    pub fn new() -> Self {
        let n = GRID_SIDE * GRID_SIDE;
        let mut adj = vec![Vec::new(); n];
        let mut rng = 99u64;
        let mut link = |adj: &mut Vec<Vec<(u32, u32)>>, a: usize, b: usize| {
            let cost = 100 + ((lcg(&mut rng) >> 40) % 400) as u32;
            adj[a].push((b as u32, cost));
            adj[b].push((a as u32, cost));
        };
        for y in 0..GRID_SIDE {
            for x in 0..GRID_SIDE {
                let i = y * GRID_SIDE + x;
                if x + 1 < GRID_SIDE {
                    link(&mut adj, i, i + 1);
                }
                if y + 1 < GRID_SIDE {
                    link(&mut adj, i, i + GRID_SIDE);
                }
            }
        }
        let mut c = Calibrator {
            adj,
            map: HashMap::new(),
            rng: 7,
            source: 0,
        };
        for _ in 0..100 {
            c.hash();
        }
        c
    }

    /// Look-ups, inserts and removals at random keys.
    fn hash(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..HASH_OPS {
            let key = (lcg(&mut self.rng) >> 40) % HASH_KEYS;
            match self.map.get(&key) {
                Some(v) => {
                    acc = acc.wrapping_add(*v);
                    if acc & 3 == 0 {
                        self.map.remove(&key);
                    }
                }
                None => {
                    self.map.insert(key, acc);
                }
            }
        }
        acc
    }

    /// Short-lived vectors of mixed sizes, a third of them freed out of order.
    fn churn(&mut self) -> usize {
        let mut keep: Vec<Vec<u32>> = Vec::new();
        let mut acc = 0usize;
        for i in 0..CHURN_ALLOCS {
            let r = lcg(&mut self.rng);
            let len = 4 + ((r >> 50) & 255) as usize;
            let v: Vec<u32> = (0..len as u32).collect();
            acc += v[len / 2] as usize;
            keep.push(v);
            if i % 3 == 0 {
                let j = (r >> 20) as usize % keep.len();
                keep.swap_remove(j);
            }
        }
        acc + keep.len()
    }

    /// One-to-all shortest paths from the next source.
    fn dijkstra(&mut self) -> u32 {
        self.source = (self.source + 997) % self.adj.len();
        let mut dist = vec![u32::MAX; self.adj.len()];
        let mut heap = BinaryHeap::new();
        dist[self.source] = 0;
        heap.push(Reverse((0u32, self.source as u32)));
        let mut acc = 0u32;
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            acc = acc.wrapping_add(d);
            for &(v, cost) in &self.adj[u as usize] {
                let nd = d + cost;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        acc
    }

    /// Runs the fixed work once; returns its thread CPU time, milliseconds.
    pub fn sample(&mut self) -> f64 {
        let c0 = thread_cpu();
        black_box(self.churn());
        black_box(self.hash());
        for _ in 0..DIJKSTRA_RUNS {
            black_box(self.dijkstra());
        }
        (thread_cpu() - c0).as_secs_f64() * 1e3
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

/// One calibration sample: when it ended, and what the fixed work cost.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock instant the sample ended.
    pub at: Instant,
    /// Thread CPU time of the fixed work, milliseconds.
    pub ms: f64,
}

/// The calibrator and every sample it has taken in this process.
pub struct HostMeter {
    calib: Calibrator,
    samples: Vec<Sample>,
}

impl HostMeter {
    /// A meter with a warmed calibrator and no samples.
    #[must_use]
    pub fn new() -> Self {
        let mut calib = Calibrator::new();
        for _ in 0..3 {
            calib.sample();
        }
        HostMeter {
            calib,
            samples: Vec::new(),
        }
    }

    /// Takes a sample on the calling thread; returns its index.
    pub fn sample(&mut self) -> usize {
        let ms = self.calib.sample();
        self.samples.push(Sample {
            at: Instant::now(),
            ms,
        });
        self.samples.len() - 1
    }

    /// Samples taken so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` before the first sample.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> Sample {
        self.samples[i]
    }

    /// How much slower than the reference the host ran over samples
    /// `lo..hi`: their median ÷ [`REFERENCE_MS`] (1 = reference speed).
    ///
    /// # Panics
    /// Panics on an empty range.
    #[must_use]
    pub fn slowdown(&self, lo: usize, hi: usize) -> f64 {
        let ms: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.ms).collect();
        assert!(!ms.is_empty(), "no calibration sample in {lo}..{hi}");
        median(&ms) / REFERENCE_MS
    }

    /// Slow-down of the work done between samples `i` and `i + 1` of a
    /// section whose samples are `first..=last`: the median of those two and
    /// their neighbours on either side, so one disturbed sample cannot move
    /// it and a change of the host's speed is followed within two samples.
    #[must_use]
    pub fn local_slowdown(&self, i: usize, first: usize, last: usize) -> f64 {
        let lo = i.saturating_sub(1).max(first);
        let hi = (i + 2).min(last);
        self.slowdown(lo, hi + 1)
    }
}

impl Default for HostMeter {
    fn default() -> Self {
        Self::new()
    }
}

/// Times one stretch of work on the calling thread, on both clocks.
pub struct Lap {
    cpu: Duration,
    wall: Instant,
}

impl Lap {
    /// Starts timing.
    #[must_use]
    pub fn start() -> Self {
        Lap {
            cpu: thread_cpu(),
            wall: Instant::now(),
        }
    }

    /// `(thread CPU, wall)` seconds since [`Lap::start`].
    #[must_use]
    pub fn end(&self) -> (f64, f64) {
        (
            (thread_cpu() - self.cpu).as_secs_f64(),
            self.wall.elapsed().as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_advances_with_work_and_not_with_sleep() {
        let c0 = thread_cpu();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu() - c0;
        assert!(slept < Duration::from_millis(10), "{slept:?}");
        let c0 = thread_cpu();
        let mut calib = Calibrator::new();
        let ms = calib.sample();
        assert!(ms > 0.0);
        assert!((thread_cpu() - c0).as_secs_f64() * 1e3 >= ms);
    }

    #[test]
    fn off_thread_share_sees_work_on_another_thread() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        std::thread::spawn(|| black_box(Calibrator::new().sample()))
            .join()
            .expect("worker");
        let share = off_thread_share(process_cpu() - p0, thread_cpu() - t0);
        assert!(share > 0.5, "{share}");
        assert_eq!(off_thread_share(Duration::ZERO, Duration::ZERO), 0.0);
    }

    #[test]
    fn local_slowdown_is_a_clamped_median_of_neighbours() {
        let mut m = HostMeter {
            calib: Calibrator::new(),
            samples: Vec::new(),
        };
        for ms in [1.0, 2.0, 3.0, 40.0, 5.0, 6.0] {
            m.samples.push(Sample {
                at: Instant::now(),
                ms: ms * REFERENCE_MS,
            });
        }
        // Samples 1..=4 → median of {2, 3, 40, 5} = 4.
        assert!((m.local_slowdown(2, 0, 5) - 4.0).abs() < 1e-9);
        // Clamped to the section 2..=5 at its front: {3, 40, 5}.
        assert!((m.local_slowdown(2, 2, 5) - 5.0).abs() < 1e-9);
        // … and at its end: block 4 sees {40, 5, 6}.
        assert!((m.local_slowdown(4, 0, 5) - 6.0).abs() < 1e-9);
        assert!((m.slowdown(0, 3) - 2.0).abs() < 1e-9);
    }
}
