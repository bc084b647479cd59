//! Parallel primitives for the state-space engine.
//!
//! The usual choice here would be `rayon`, but the toolchain vendors its
//! own thin layer over `std::thread::scope` instead: the engine needs
//! exactly two shapes — an ordered parallel map over a slice, and a
//! sharded concurrent interning index — and owning them keeps the
//! determinism contract (results identical to sequential execution,
//! bit-for-bit) explicit and auditable.
//!
//! Design rules that make determinism cheap:
//!
//! * [`par_map`] returns results **in input order** regardless of which
//!   worker computed them, so callers can treat it as a drop-in for
//!   `iter().map().collect()`.
//! * [`ShardedIndex`] hands out *provisional* ids from an atomic counter;
//!   their numeric values depend on scheduling, so callers that need
//!   canonical numbering renumber during their sequential merge phase
//!   (see `multival-pa`'s explorer).
//!
//! The crate also owns the workspace's deterministic building blocks that
//! every layer shares: the [`fx`] hasher and the [`rng`] splitmix64 stream.

pub mod fx;
pub mod rng;

pub use rng::{mix64, SplitMix64};

use fx::FxBuildHasher;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker-count knob shared by every parallel entry point.
///
/// `Workers(1)` (the default) means strictly sequential execution on the
/// calling thread — no pool, no synchronisation, no overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workers(usize);

impl Default for Workers {
    fn default() -> Self {
        Workers(1)
    }
}

impl Workers {
    /// Exactly `n` workers (clamped to at least 1).
    pub fn new(n: usize) -> Self {
        Workers(n.max(1))
    }

    /// Strictly sequential execution.
    pub fn sequential() -> Self {
        Workers(1)
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        Workers(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0
    }

    /// True when no parallelism is requested.
    pub fn is_sequential(self) -> bool {
        self.0 == 1
    }
}

/// Below this many items a parallel map falls back to sequential: thread
/// spawn + join costs more than the work it would distribute.
const PAR_THRESHOLD: usize = 256;

/// Maps `f` over `items`, in parallel when `workers > 1`, returning
/// results in input order.
///
/// Work is distributed by atomic chunk-stealing so uneven per-item costs
/// (e.g. states with very different successor fan-out) balance across
/// workers. `f` must be `Sync` (it is shared, not cloned).
pub fn par_map<T, U, F>(workers: Workers, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_min(workers, PAR_THRESHOLD, items, f)
}

/// Per-grab wall-time target for the adaptive stride: long enough that the
/// cursor `fetch_add` and the timing call are noise, short enough that a
/// straggler's final grab cannot dominate the tail.
const TARGET_GRAB: Duration = Duration::from_micros(200);

/// [`par_map`] with a caller-chosen sequential-fallback threshold.
///
/// The default threshold is tuned for fine-grained per-state work; callers
/// whose items are orders of magnitude coarser (e.g. whole Monte-Carlo
/// trajectories) pass a smaller `min_parallel` so that even modest batches
/// are distributed. The ordered-results determinism contract is unchanged.
///
/// Scheduling is adaptive to per-item cost: every worker starts with a
/// small probe stride and doubles it after each grab that completes faster
/// than `TARGET_GRAB` (200 µs) (halving after grabs 8× over target), capped so at
/// least two grabs per worker remain for load balancing. Cheap items
/// therefore converge to coarse chunks (amortizing the shared cursor),
/// expensive items stay fine-grained (balancing stragglers) — with zero
/// effect on the output, which is written to per-index slots.
///
/// When the *effective* worker count is 1 — sequential request, tiny
/// input, or a single-core machine — the map runs inline on the calling
/// thread with no spawn and no atomics. Spawning a lone scoped thread
/// costs tens of microseconds per call, which is exactly the overhead that
/// made BFS levels slower at `t4` than `t1` on one-core hosts.
pub fn par_map_min<T, U, F>(workers: Workers, min_parallel: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    // Results are scheduling-independent, so oversubscribing the hardware
    // cannot change them — it only adds context-switch overhead. Cap the
    // actual thread count at the machine's parallelism.
    let hw = std::thread::available_parallelism().map_or(usize::MAX, |p| p.get());
    let nworkers = workers.get().min(n).min(hw);
    if nworkers <= 1 || n < min_parallel.max(2) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Probe stride: fine-grained items keep the historical floor of 32,
    // coarse items (small `min_parallel`) may be grabbed one at a time.
    let initial_chunk = (min_parallel / 8).clamp(1, 32);
    // Growth cap: leave every worker at least ~2 grabs for balancing.
    let stride_cap = (n / (nworkers * 2)).max(initial_chunk);
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots = SendSlices(out.as_mut_ptr());

    std::thread::scope(|scope| {
        for _ in 0..nworkers {
            let cursor = &cursor;
            let f = &f;
            let slots = &slots;
            scope.spawn(move || {
                let mut stride = initial_chunk;
                loop {
                    let start = cursor.fetch_add(stride, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + stride).min(n);
                    let t0 = Instant::now();
                    for (i, item) in items.iter().enumerate().take(end).skip(start) {
                        // SAFETY: each index is visited by exactly one worker
                        // (disjoint chunks from the atomic cursor), so no slot
                        // is written twice or concurrently.
                        unsafe { slots.write(i, f(i, item)) };
                    }
                    let dt = t0.elapsed();
                    if dt < TARGET_GRAB && stride < stride_cap {
                        stride = stride.saturating_mul(2).min(stride_cap);
                    } else if dt > TARGET_GRAB * 8 && stride > 1 {
                        stride /= 2;
                    }
                }
            });
        }
    });

    out.into_iter().map(|slot| slot.expect("slot filled")).collect()
}

/// Shared mutable access to the result slots of [`par_map`], restricted
/// to the disjoint-index discipline documented there.
struct SendSlices<U>(*mut Option<U>);

// SAFETY: workers write disjoint indices and the owning Vec outlives the
// scope; the raw pointer itself is plain data.
unsafe impl<U: Send> Sync for SendSlices<U> {}
unsafe impl<U: Send> Send for SendSlices<U> {}

impl<U> SendSlices<U> {
    /// # Safety
    /// `i` must be in bounds and visited by exactly one thread.
    unsafe fn write(&self, i: usize, value: U) {
        unsafe { *self.0.add(i) = Some(value) };
    }
}

/// Number of mutex-striped shards in a [`ShardedIndex`]. A power of two
/// well above typical worker counts keeps contention negligible.
const SHARDS: usize = 64;

/// A concurrent `key -> u32 id` interning map, striped over a fixed number
/// of mutex-guarded shards selected by key hash.
///
/// Ids come from a single atomic counter, so they are dense but their
/// order depends on scheduling. Callers needing canonical numbering must
/// renumber sequentially afterwards; `get_or_insert` reports whether the
/// key was new to make that cheap.
///
/// Keys are hashed **once** per operation: the full hash picks the shard
/// and is stored alongside the key, so the inner map only re-mixes the
/// cached 8 bytes instead of re-walking a potentially deep key (state
/// terms are trees). Hashing uses the deterministic [`fx`] scheme — state
/// keys are never attacker-controlled, and Fx is several times cheaper
/// than SipHash on the deep tree keys this index interns.
pub struct ShardedIndex<K> {
    shards: Vec<Mutex<HashMap<PreHashed<K>, u32>>>,
    hasher: FxBuildHasher,
    next: AtomicU32,
}

/// A key bundled with its precomputed full hash.
struct PreHashed<K> {
    hash: u64,
    key: K,
}

impl<K> Hash for PreHashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl<K: Eq> PartialEq for PreHashed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for PreHashed<K> {}

impl<K: Hash + Eq> Default for ShardedIndex<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq> ShardedIndex<K> {
    /// An empty index.
    pub fn new() -> Self {
        ShardedIndex {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hasher: FxBuildHasher::default(),
            next: AtomicU32::new(0),
        }
    }

    /// An empty index whose id counter starts at `first_id`, for growing
    /// an already-numbered set (e.g. BFS levels over existing states).
    pub fn starting_at(first_id: u32) -> Self {
        let idx = Self::new();
        idx.next.store(first_id, Ordering::Relaxed);
        idx
    }

    fn full_hash(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Returns the id for `key`, allocating a fresh one if absent; the
    /// flag is `true` when this call inserted the key.
    pub fn get_or_insert(&self, key: K) -> (u32, bool) {
        let hash = self.full_hash(&key);
        let entry = PreHashed { hash, key };
        let mut map = self.shards[hash as usize % SHARDS].lock().expect("shard poisoned");
        match map.get(&entry) {
            Some(&id) => (id, false),
            None => {
                let id = self.next.fetch_add(1, Ordering::Relaxed);
                map.insert(entry, id);
                (id, true)
            }
        }
    }

    /// Looks up `key` without inserting.
    pub fn get(&self, key: &K) -> Option<u32>
    where
        K: Clone,
    {
        let hash = self.full_hash(key);
        let entry = PreHashed { hash, key: key.clone() };
        self.shards[hash as usize % SHARDS].lock().expect("shard poisoned").get(&entry).copied()
    }

    /// The next id that would be assigned — i.e. the size of the whole
    /// numbering space, counting any `starting_at` offset.
    pub fn next_id(&self) -> u32 {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let seq = par_map(Workers::sequential(), &items, |i, &x| x * 3 + i as u64);
        let par = par_map(Workers::new(4), &items, |i, &x| x * 3 + i as u64);
        assert_eq!(seq, par);
        assert_eq!(par[17], 17 * 3 + 17);
    }

    #[test]
    fn par_map_small_input_uses_sequential_path() {
        let items = [1, 2, 3];
        let out = par_map(Workers::new(8), &items, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn par_map_min_distributes_small_batches() {
        let items: Vec<u32> = (0..48).collect();
        let seq =
            par_map_min(Workers::sequential(), 2, &items, |i, &x| u64::from(x) * 7 + i as u64);
        let par = par_map_min(Workers::new(4), 2, &items, |i, &x| u64::from(x) * 7 + i as u64);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_handles_uneven_work() {
        let items: Vec<u32> = (0..2_000).collect();
        let out = par_map(Workers::new(3), &items, |_, &x| {
            // Skewed cost: later items spin longer.
            let mut acc = 0u64;
            for k in 0..(x as u64 % 97) {
                acc = acc.wrapping_add(k * k);
            }
            (x as u64, acc)
        });
        assert_eq!(out.len(), items.len());
        assert!(out.iter().enumerate().all(|(i, &(x, _))| x == i as u64));
    }

    #[test]
    fn par_map_min_parallel_matches_sequential() {
        let items: Vec<u64> = (0..5_000).collect();
        let seq = par_map_min(Workers::sequential(), 2, &items, |i, &x| x + i as u64);
        let par = par_map_min(Workers::new(4), 2, &items, |i, &x| x + i as u64);
        assert_eq!(seq, par);
    }

    #[test]
    fn sharded_index_ids_dense_and_stable() {
        let idx: ShardedIndex<u64> = ShardedIndex::new();
        let (a, new_a) = idx.get_or_insert(10);
        let (b, new_b) = idx.get_or_insert(20);
        let (a2, new_a2) = idx.get_or_insert(10);
        assert!(new_a && new_b && !new_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(idx.next_id(), 2);
        assert_eq!(idx.get(&20), Some(b));
        assert_eq!(idx.get(&30), None);
    }

    #[test]
    fn sharded_index_concurrent_inserts_no_duplicates() {
        let idx: ShardedIndex<u32> = ShardedIndex::starting_at(5);
        std::thread::scope(|scope| {
            for w in 0..8 {
                let idx = &idx;
                scope.spawn(move || {
                    for k in 0..1_000u32 {
                        // Heavy overlap between workers.
                        idx.get_or_insert((k + w) % 1_200);
                    }
                });
            }
        });
        let mut ids = HashSet::new();
        for k in 0..1_200u32 {
            if let Some(id) = idx.get(&k) {
                assert!(id >= 5, "counter starts at 5");
                assert!(ids.insert(id), "id {id} assigned twice");
            }
        }
        assert_eq!(ids.len() + 5, idx.next_id() as usize);
    }
}
