//! Per-call tables over a dense id universe (segments, trips), pooled so a
//! call pays for the ids it touches, not for the universe.
//!
//! A query pair touches a few hundred of the network's segments and a few
//! dozen of the archive's trips. A table indexed by id answers "have I seen
//! this id, and what did I store for it" without hashing, but allocating and
//! clearing one per call costs the universe. [`SparseSlots`] keeps the table
//! between calls and resets only what the call touched; [`SlotPool`]
//! hands one table to each concurrent caller, the way the shortest-path
//! oracle pools its [`DijkstraScratch`](crate::DijkstraScratch). A pool, not
//! a `thread_local!`: the vendored `rayon` spawns fresh threads per fan-out,
//! so a thread-local table would be rebuilt on every batch.

use std::sync::Mutex;

/// One slot per id of a dense universe, each at the table's vacant value
/// except those set since the last [`SparseSlots::clear`], which are
/// recorded in a touched list. Reading back what was set and resetting it
/// both cost the ids touched.
#[derive(Debug)]
pub struct SparseSlots<V> {
    vacant: V,
    slots: Vec<V>,
    /// One bit per id, set iff the id was touched since the last clear. A
    /// membership probe then reads one bit where the slot array would
    /// spread the same probes over many cache lines.
    occupied: Vec<u64>,
    /// Ids touched since the last clear, in first-touch order.
    touched: Vec<u32>,
}

impl<V: Copy> SparseSlots<V> {
    /// An empty table whose untouched slots read `vacant`; it covers no id
    /// until [`SparseSlots::cover`] grows it.
    #[must_use]
    pub fn new(vacant: V) -> Self {
        SparseSlots {
            vacant,
            slots: Vec::new(),
            occupied: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Grows the table to cover ids `0..n`; it never shrinks, so one table
    /// serves universes of any size.
    pub fn cover(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, self.vacant);
            self.occupied.resize(n.div_ceil(64), 0);
        }
    }

    /// Whether `id` was touched since the last clear.
    #[inline]
    #[must_use]
    pub fn contains(&self, id: usize) -> bool {
        self.occupied[id >> 6] >> (id & 63) & 1 == 1
    }

    /// The value stored for `id` (the vacant value if untouched).
    #[inline]
    #[must_use]
    pub fn get(&self, id: usize) -> V {
        self.slots[id]
    }

    /// The slot of `id`, recorded as touched on first access since the last
    /// clear (it then holds the vacant value).
    #[inline]
    pub fn slot(&mut self, id: usize) -> &mut V {
        let (word, bit) = (&mut self.occupied[id >> 6], 1u64 << (id & 63));
        if *word & bit == 0 {
            *word |= bit;
            self.touched
                .push(u32::try_from(id).expect("slot id fits u32"));
        }
        &mut self.slots[id]
    }

    /// The touched ids, in first-touch order unless
    /// [`SparseSlots::sort_touched`] ordered them.
    #[inline]
    #[must_use]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Calls `f` on the slot of every touched id, in touched-list order.
    pub fn for_each_touched(&mut self, mut f: impl FnMut(&mut V)) {
        for &id in &self.touched {
            f(&mut self.slots[id as usize]);
        }
    }

    /// Puts the touched list in ascending id order.
    pub fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }

    /// Resets every touched slot to vacant, in time proportional to the
    /// ids touched.
    pub fn clear(&mut self) {
        for &id in &self.touched {
            let id = id as usize;
            self.slots[id] = self.vacant;
            self.occupied[id >> 6] = 0;
        }
        self.touched.clear();
    }
}

/// Tables lent one per concurrent caller: [`SlotPool::with`] lends a
/// cleared table (making one when none is free) and clears and takes it
/// back afterwards. Cloning gives an empty pool.
pub struct SlotPool<V>(Mutex<Vec<SparseSlots<V>>>);

impl<V> std::fmt::Debug for SlotPool<V> {
    /// The number of idle tables, not their universe-sized contents.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let idle = self.0.lock().map(|pool| pool.len()).unwrap_or(0);
        f.debug_struct("SlotPool").field("idle", &idle).finish()
    }
}

impl<V> Default for SlotPool<V> {
    fn default() -> Self {
        SlotPool(Mutex::new(Vec::new()))
    }
}

impl<V> Clone for SlotPool<V> {
    fn clone(&self) -> Self {
        SlotPool::default()
    }
}

impl<V: Copy> SlotPool<V> {
    /// Runs `f` on a pooled table covering ids `0..n` with no id touched
    /// (vacant slots read `vacant`). A table whose `f` panics is dropped,
    /// never returned half-used.
    pub fn with<R>(&self, n: usize, vacant: V, f: impl FnOnce(&mut SparseSlots<V>) -> R) -> R {
        let pooled = self.0.lock().expect("slot pool").pop();
        let mut slots = pooled.unwrap_or_else(|| SparseSlots::new(vacant));
        slots.cover(n);
        let out = f(&mut slots);
        slots.clear();
        self.0.lock().expect("slot pool").push(slots);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// What a fresh `vec![vacant; n]` sees after the same writes.
    fn fresh(n: usize, writes: &[(usize, u32)]) -> (Vec<u32>, Vec<u32>) {
        let mut slots = vec![u32::MAX; n];
        let mut touched = Vec::new();
        for &(id, v) in writes {
            if !touched.contains(&(id as u32)) {
                touched.push(id as u32);
            }
            slots[id] = v;
        }
        (slots, touched)
    }

    /// One table reused across universes of different sizes reads exactly
    /// what a fresh table per universe reads, touched order included.
    #[test]
    fn reuse_across_universes_matches_fresh() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let pool: SlotPool<u32> = SlotPool::default();
        for round in 0..200 {
            let n = [1usize, 63, 64, 65, 700, 5_000][round % 6];
            let writes: Vec<(usize, u32)> = (0..rng.gen_range(0..40))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..1_000)))
                .collect();
            let (want, want_touched) = fresh(n, &writes);
            pool.with(n, u32::MAX, |slots| {
                assert!(slots.touched().is_empty(), "round {round}: dirty table");
                for &(id, v) in &writes {
                    *slots.slot(id) = v;
                }
                assert_eq!(slots.touched(), &want_touched[..], "round {round}");
                for (id, &value) in want.iter().enumerate() {
                    assert_eq!(slots.get(id), value, "round {round} id {id}");
                    assert_eq!(
                        slots.contains(id),
                        want_touched.contains(&(id as u32)),
                        "round {round} id {id}"
                    );
                }
                slots.sort_touched();
                assert!(slots.touched().windows(2).all(|w| w[0] < w[1]));
            });
        }
    }

    #[test]
    fn panicking_borrower_does_not_return_its_table() {
        let pool: SlotPool<u32> = SlotPool::default();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with(8, 0, |slots| {
                *slots.slot(3) = 7;
                panic!("borrower fails");
            })
        }));
        assert!(caught.is_err());
        pool.with(8, 0, |slots| {
            assert!(slots.touched().is_empty());
            assert_eq!(slots.get(3), 0);
        });
    }
}
