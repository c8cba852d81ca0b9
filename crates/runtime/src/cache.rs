//! Sharded, shareable launch-plan cache.
//!
//! PR 2's plan cache was a private `HashMap` inside one `MgpuRuntime` —
//! fine for a single app, wrong for a serving fleet where dozens of
//! tenant runtimes capture the *same* plans for the same kernels. The
//! keys are already content-addressed (kernel × geometry × scalars ×
//! tracker signatures, with buffer ids namespace-stripped to their local
//! indices), so identical workloads from different tenants produce
//! identical keys; this cache makes the storage shareable:
//!
//! * **Sharded** by an FNV-1a hash of the kernel name, so concurrent
//!   tenants replaying different kernels never contend on one lock, and
//!   every plan of one kernel lives in one shard (a kernel's working set
//!   is scanned together during eviction and persistence).
//! * **Shared** via `Arc`: [`crate::MgpuRuntime::set_plan_cache`] points
//!   any number of runtimes at one cache. Each entry remembers the
//!   namespace that captured it, so a hit from a *different* namespace is
//!   observable as a cross-tenant hit
//!   ([`mekong_gpusim::OpCounters::plan_shared_hits`]).
//! * **Bounded**: a capacity (plans, not bytes; `0` = unbounded) with
//!   exact global LRU eviction — tenant churn must not leak memory. The
//!   recency clock is a single atomic tick bumped on every touch.

use crate::plan::{LaunchPlan, PlanKey};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of shards. A power of two so the hash folds evenly; small
/// enough that the exact-LRU eviction scan stays trivial.
pub const PLAN_CACHE_SHARDS: usize = 8;

/// FNV-1a over the kernel name — the shard selector. Deliberately *not*
/// the full `PlanKey` hash: all plans of one kernel share a shard.
fn shard_of(kernel: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in kernel.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % PLAN_CACHE_SHARDS
}

struct Entry {
    plan: Arc<LaunchPlan>,
    /// Namespace of the runtime that captured (or loaded) this plan.
    namespace: u32,
    /// Recency tick of the last touch (insert or hit).
    last_used: u64,
    /// Installed from a snapshot (true) vs captured live (false).
    loaded: bool,
    /// Lookup hits since the entry was installed or captured.
    hits: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<PlanKey, Entry>,
}

/// Lock one shard, recovering a poisoned lock: every mutation under it
/// is a single insert or removal, so a tenant that panicked while
/// holding it cannot wedge the shared cache.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The sharded LRU plan cache. All methods take `&self` (interior
/// mutability) so the cache can be shared behind an `Arc` without an
/// outer lock.
pub struct ShardedPlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Maximum number of cached plans; `0` = unbounded.
    capacity: AtomicUsize,
    /// Monotonic recency clock: every touch takes its own tick, so no
    /// two entries ever share a `last_used`.
    tick: AtomicU64,
    /// Total cached plans, kept beside the shards so the capacity check
    /// takes no lock.
    len: AtomicUsize,
}

impl ShardedPlanCache {
    /// An empty cache holding at most `capacity` plans (`0` = unbounded).
    pub fn new(capacity: usize) -> ShardedPlanCache {
        ShardedPlanCache {
            shards: (0..PLAN_CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            capacity: AtomicUsize::new(capacity),
            tick: AtomicU64::new(0),
            len: AtomicUsize::new(0),
        }
    }

    fn bump(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up a plan; a hit refreshes its LRU position. Returns the plan
    /// and the namespace that captured it (so callers can tell a
    /// cross-tenant hit from their own).
    pub fn get(&self, key: &PlanKey) -> Option<(Arc<LaunchPlan>, u32)> {
        let mut shard = lock(&self.shards[shard_of(&key.kernel)]);
        let tick = self.bump();
        shard.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.hits += 1;
            (e.plan.clone(), e.namespace)
        })
    }

    /// Insert a freshly captured plan under `namespace`. Returns how many
    /// plans the capacity bound evicted to make room (0 when unbounded or
    /// not yet full).
    pub fn insert(&self, key: PlanKey, plan: Arc<LaunchPlan>, namespace: u32) -> u64 {
        self.install(key, plan, namespace, false);
        self.enforce_capacity()
    }

    /// Put one entry in as most-recently-used, replacing any entry under
    /// the same key.
    fn install(&self, key: PlanKey, plan: Arc<LaunchPlan>, namespace: u32, loaded: bool) {
        let entry = Entry {
            plan,
            namespace,
            last_used: self.bump(),
            loaded,
            hits: 0,
        };
        let mut shard = lock(&self.shards[shard_of(&key.kernel)]);
        if shard.map.insert(key, entry).is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evict least-recently-used entries until the capacity holds.
    /// Exact global LRU: scan every shard for the minimum recency tick —
    /// by reference, no key is cloned — then take the entry carrying it
    /// out of its shard, under that shard's lock. Caches are small
    /// (thousands of plans at most) and eviction only runs past the
    /// bound.
    fn enforce_capacity(&self) -> u64 {
        let cap = self.capacity.load(Ordering::Relaxed);
        if cap == 0 {
            return 0;
        }
        let mut evicted = 0u64;
        while self.len() > cap {
            let oldest = self
                .shards
                .iter()
                .enumerate()
                .filter_map(|(i, shard)| {
                    let shard = lock(shard);
                    let tick = shard.map.values().map(|e| e.last_used).min()?;
                    Some((tick, i))
                })
                .min();
            let Some((tick, i)) = oldest else { break };
            let mut shard = lock(&self.shards[i]);
            let taken = shard.map.extract_if(|_, e| e.last_used == tick).next();
            if taken.is_none() {
                break; // touched or raced away since the scan
            }
            self.len.fetch_sub(1, Ordering::Relaxed);
            evicted += 1;
        }
        evicted
    }

    /// Total cached plans across all shards.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = lock(shard);
            self.len.fetch_sub(shard.map.len(), Ordering::Relaxed);
            shard.map.clear();
        }
    }

    /// Change the capacity bound (`0` = unbounded) and immediately
    /// enforce it. Returns the evictions that took.
    pub fn set_capacity(&self, capacity: usize) -> u64 {
        self.capacity.store(capacity, Ordering::Relaxed);
        self.enforce_capacity()
    }

    /// The current capacity bound (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Every entry as `(key, plan, namespace)` — the persistence
    /// snapshot's raw material.
    pub fn export(&self) -> Vec<(PlanKey, Arc<LaunchPlan>, u32)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            for (k, e) in &shard.map {
                out.push((k.clone(), e.plan.clone(), e.namespace));
            }
        }
        out
    }

    /// [`ShardedPlanCache::export`] minus the dead weight: every entry
    /// captured live in this process survives, but an entry *loaded*
    /// from a snapshot survives only if it was hit at least once since
    /// loading. Snapshotting through this method is the cache's
    /// generational compaction — plans nobody replayed any more would
    /// otherwise ride every snapshot/restore cycle forever.
    pub fn export_live(&self) -> Vec<(PlanKey, Arc<LaunchPlan>, u32)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            for (k, e) in &shard.map {
                if !e.loaded || e.hits > 0 {
                    out.push((k.clone(), e.plan.clone(), e.namespace));
                }
            }
        }
        out
    }

    /// Number of loaded-but-never-hit entries a compacting snapshot
    /// would drop right now.
    pub fn compactable(&self) -> usize {
        self.len() - self.export_live().len()
    }

    /// Install entries (from a snapshot) as most-recently-used, then
    /// enforce the capacity bound. Existing entries with the same key are
    /// replaced. Imported entries are marked *loaded* with zero hits:
    /// they must prove their worth before the next compacting snapshot
    /// carries them forward (see [`ShardedPlanCache::export_live`]).
    pub fn import(&self, entries: Vec<(PlanKey, Arc<LaunchPlan>, u32)>) -> u64 {
        for (key, plan, namespace) in entries {
            self.install(key, plan, namespace, true);
        }
        self.enforce_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_kernel::Dim3;

    fn key(kernel: &str, n: i64) -> PlanKey {
        PlanKey {
            kernel: kernel.into(),
            strategy: 0,
            grid: Dim3::new1(1),
            block: Dim3::new1(1),
            bounds: [n].into(),
            args: Vec::new(),
        }
    }

    fn plan() -> Arc<LaunchPlan> {
        Arc::new(LaunchPlan::default())
    }

    #[test]
    fn get_returns_capturing_namespace() {
        let c = ShardedPlanCache::new(0);
        assert_eq!(c.insert(key("k", 0), plan(), 7), 0);
        let (_, ns) = c.get(&key("k", 0)).unwrap();
        assert_eq!(ns, 7);
        assert!(c.get(&key("k", 1)).is_none());
    }

    #[test]
    fn lru_evicts_oldest_across_shards() {
        let c = ShardedPlanCache::new(2);
        // Different kernel names land in different shards; eviction must
        // still find the global oldest.
        c.insert(key("a", 0), plan(), 0);
        c.insert(key("b", 0), plan(), 0);
        // Touch "a" so "b" is the LRU entry.
        assert!(c.get(&key("a", 0)).is_some());
        let evicted = c.insert(key("c", 0), plan(), 0);
        assert_eq!(evicted, 1);
        assert_eq!(c.len(), 2);
        assert!(c.get(&key("a", 0)).is_some());
        assert!(c.get(&key("b", 0)).is_none(), "LRU entry must be gone");
        assert!(c.get(&key("c", 0)).is_some());
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let c = ShardedPlanCache::new(0);
        for i in 0..100 {
            assert_eq!(c.insert(key("k", i), plan(), 0), 0);
        }
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let c = ShardedPlanCache::new(0);
        for i in 0..10 {
            c.insert(key("k", i), plan(), 0);
        }
        assert_eq!(c.set_capacity(3), 7);
        assert_eq!(c.len(), 3);
        // The three most recently inserted survive.
        for i in 7..10 {
            assert!(c.get(&key("k", i)).is_some());
        }
    }

    #[test]
    fn export_live_drops_only_unhit_loaded_entries() {
        let c = ShardedPlanCache::new(0);
        c.insert(key("captured", 0), plan(), 1);
        c.import(vec![
            (key("hit", 0), plan(), 2),
            (key("cold", 0), plan(), 2),
        ]);
        // One loaded entry proves its worth, the other never replays.
        assert!(c.get(&key("hit", 0)).is_some());
        assert_eq!(c.compactable(), 1);
        let live = c.export_live();
        let kernels: Vec<&str> = live.iter().map(|(k, _, _)| &*k.kernel).collect();
        assert!(kernels.contains(&"captured"));
        assert!(kernels.contains(&"hit"));
        assert!(!kernels.contains(&"cold"), "{kernels:?}");
        // The full export still sees everything.
        assert_eq!(c.export().len(), 3);
        // A live capture is kept even with zero hits.
        assert_eq!(live.len(), 2);
    }

    #[test]
    fn export_import_round_trips() {
        let c = ShardedPlanCache::new(0);
        c.insert(key("a", 1), plan(), 1);
        c.insert(key("b", 2), plan(), 2);
        let entries = c.export();
        assert_eq!(entries.len(), 2);
        let c2 = ShardedPlanCache::new(0);
        c2.import(entries);
        assert_eq!(c2.len(), 2);
        assert_eq!(c2.get(&key("a", 1)).unwrap().1, 1);
        assert_eq!(c2.get(&key("b", 2)).unwrap().1, 2);
    }
}
