//! Shareable launch-plan cache.
//!
//! PR 2's plan cache was a private `HashMap` inside one `MgpuRuntime` —
//! fine for a single app, wrong for a serving fleet where dozens of
//! tenant runtimes capture the *same* plans for the same kernels. The
//! keys are already content-addressed (kernel × geometry × scalars ×
//! tracker signatures, with buffer ids namespace-stripped to their local
//! indices), so identical workloads from different tenants produce
//! identical keys; this cache makes the storage shareable:
//!
//! * **Shared** via `Rc<RefCell<_>>`: [`crate::MgpuRuntime::set_plan_cache`]
//!   points any number of runtimes at one cache. Runtimes are
//!   single-threaded (a fleet drains its tenants round-robin on one
//!   thread), so the cache takes `&mut self` and holds no lock. Each
//!   entry remembers the namespace that captured it, so a hit from a
//!   *different* namespace is observable as a cross-tenant hit
//!   ([`mekong_gpusim::OpCounters::plan_shared_hits`]).
//! * **Bounded**: a capacity (plans, not bytes; `0` = unbounded) with
//!   exact LRU eviction — tenant churn must not leak memory. Entries sit
//!   in a dense slab threaded by an intrusive recency list, so a touch
//!   moves one slot to the front and an eviction drops the back one:
//!   both O(1), neither allocates. A churning workload that evicts on
//!   nearly every capture pays no scan for it.

use crate::plan::{LaunchPlan, PlanKey};
use std::collections::HashMap;
use std::sync::Arc;

/// The end of the recency list.
const NIL: usize = usize::MAX;

struct Slot {
    /// Shared with the index, which needs the key to drop an evicted
    /// slot and to re-point a moved one.
    key: Arc<PlanKey>,
    plan: Arc<LaunchPlan>,
    /// Namespace of the runtime that captured (or loaded) this plan.
    namespace: u32,
    /// Installed from a snapshot (true) vs captured live (false).
    loaded: bool,
    /// Lookup hits since the entry was installed or captured.
    hits: u64,
    /// Neighbours in the recency list: `prev` is more recently used.
    prev: usize,
    next: usize,
}

/// The LRU plan cache.
pub struct PlanCache {
    /// Key → slot index.
    index: HashMap<Arc<PlanKey>, usize>,
    /// Every cached entry, densely packed: an eviction moves the last
    /// slot into the hole.
    slots: Vec<Slot>,
    /// Most and least recently used slots (`NIL` when empty).
    head: usize,
    tail: usize,
    /// Maximum number of cached plans; `0` = unbounded.
    capacity: usize,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (`0` = unbounded).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            index: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Look up a plan; a hit refreshes its LRU position. Returns the plan
    /// and the namespace that captured it (so callers can tell a
    /// cross-tenant hit from their own).
    pub fn get(&mut self, key: &PlanKey) -> Option<(Arc<LaunchPlan>, u32)> {
        let i = *self.index.get(key)?;
        self.touch(i);
        let s = &mut self.slots[i];
        s.hits += 1;
        Some((s.plan.clone(), s.namespace))
    }

    /// Insert a freshly captured plan under `namespace`. Returns how many
    /// plans the capacity bound evicted to make room (0 when unbounded or
    /// not yet full).
    pub fn insert(&mut self, key: PlanKey, plan: Arc<LaunchPlan>, namespace: u32) -> u64 {
        self.install(key, plan, namespace, false);
        self.enforce_capacity()
    }

    /// Put one entry in as most-recently-used, replacing any entry under
    /// the same key.
    fn install(&mut self, key: PlanKey, plan: Arc<LaunchPlan>, namespace: u32, loaded: bool) {
        if let Some(&i) = self.index.get(&key) {
            let s = &mut self.slots[i];
            (s.plan, s.namespace, s.loaded, s.hits) = (plan, namespace, loaded, 0);
            self.touch(i);
            return;
        }
        let key = Arc::new(key);
        let i = self.slots.len();
        self.index.insert(Arc::clone(&key), i);
        self.slots.push(Slot {
            key,
            plan,
            namespace,
            loaded,
            hits: 0,
            prev: NIL,
            next: NIL,
        });
        self.push_front(i);
    }

    /// Make slot `i` the most recently used.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        let head = self.head;
        (self.slots[i].prev, self.slots[i].next) = (NIL, head);
        match head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Evict least-recently-used entries until the capacity holds.
    fn enforce_capacity(&mut self) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut evicted = 0u64;
        while self.slots.len() > self.capacity {
            self.remove(self.tail);
            evicted += 1;
        }
        evicted
    }

    /// Drop slot `i`, moving the last slot into its place.
    fn remove(&mut self, i: usize) {
        self.unlink(i);
        let gone = self.slots.swap_remove(i);
        self.index.remove(&*gone.key);
        if i < self.slots.len() {
            let Slot { prev, next, .. } = self.slots[i];
            match prev {
                NIL => self.head = i,
                p => self.slots[p].next = i,
            }
            match next {
                NIL => self.tail = i,
                n => self.slots[n].prev = i,
            }
            *self
                .index
                .get_mut(&*self.slots[i].key)
                .expect("every slot is indexed") = i;
        }
    }

    /// Total cached plans.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drop every cached plan.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        (self.head, self.tail) = (NIL, NIL);
    }

    /// Change the capacity bound (`0` = unbounded) and immediately
    /// enforce it. Returns the evictions that took.
    pub(crate) fn set_capacity(&mut self, capacity: usize) -> u64 {
        self.capacity = capacity;
        self.enforce_capacity()
    }

    /// Every entry worth persisting, as `(key, plan, namespace)` — the
    /// snapshot's raw material. Every entry captured live in this
    /// process survives, but an entry *loaded* from a snapshot survives
    /// only if it was hit at least once since loading. Snapshotting
    /// through this method is the cache's generational compaction —
    /// plans nobody replayed any more would otherwise ride every
    /// snapshot/restore cycle forever.
    pub fn export_live(&self) -> Vec<(PlanKey, Arc<LaunchPlan>, u32)> {
        self.slots
            .iter()
            .filter(|s| !s.loaded || s.hits > 0)
            .map(|s| ((*s.key).clone(), s.plan.clone(), s.namespace))
            .collect()
    }

    /// Install entries (from a snapshot) as most-recently-used, in
    /// order, then enforce the capacity bound. Existing entries with the
    /// same key are replaced. Imported entries are marked *loaded* with
    /// zero hits: they must prove their worth before the next compacting
    /// snapshot carries them forward (see [`PlanCache::export_live`]).
    pub(crate) fn import(&mut self, entries: Vec<(PlanKey, Arc<LaunchPlan>, u32)>) -> u64 {
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
    use proptest::prelude::*;

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
        let mut c = PlanCache::new(0);
        assert_eq!(c.insert(key("k", 0), plan(), 7), 0);
        let (_, ns) = c.get(&key("k", 0)).unwrap();
        assert_eq!(ns, 7);
        assert!(c.get(&key("k", 1)).is_none());
    }

    #[test]
    fn lru_evicts_oldest_across_kernels() {
        let mut c = PlanCache::new(2);
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
        let mut c = PlanCache::new(0);
        for i in 0..100 {
            assert_eq!(c.insert(key("k", i), plan(), 0), 0);
        }
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let mut c = PlanCache::new(0);
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
        let mut c = PlanCache::new(0);
        c.insert(key("captured", 0), plan(), 1);
        c.import(vec![
            (key("hit", 0), plan(), 2),
            (key("cold", 0), plan(), 2),
        ]);
        // One loaded entry proves its worth, the other never replays.
        assert!(c.get(&key("hit", 0)).is_some());
        let live = c.export_live();
        let kernels: Vec<&str> = live.iter().map(|(k, _, _)| &*k.kernel).collect();
        assert!(kernels.contains(&"captured"));
        assert!(kernels.contains(&"hit"));
        assert!(!kernels.contains(&"cold"), "{kernels:?}");
        // A live capture is kept even with zero hits.
        assert_eq!(live.len(), 2);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn export_import_round_trips() {
        let mut c = PlanCache::new(0);
        c.insert(key("a", 1), plan(), 1);
        c.insert(key("b", 2), plan(), 2);
        let entries = c.export_live();
        assert_eq!(entries.len(), 2);
        let mut c2 = PlanCache::new(0);
        c2.import(entries);
        assert_eq!(c2.len(), 2);
        assert_eq!(c2.get(&key("a", 1)).unwrap().1, 1);
        assert_eq!(c2.get(&key("b", 2)).unwrap().1, 2);
    }

    /// The semantics the cache must keep: a list of entries, each with a
    /// unique last-touch tick from one monotonic clock, evicting the
    /// minimum tick while over capacity.
    #[derive(Default)]
    struct Oracle {
        entries: Vec<OracleEntry>,
        capacity: usize,
        tick: u64,
    }

    struct OracleEntry {
        key: PlanKey,
        plan: Arc<LaunchPlan>,
        namespace: u32,
        last_used: u64,
        loaded: bool,
        hits: u64,
    }

    impl Oracle {
        fn bump(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        fn get(&mut self, key: &PlanKey) -> Option<(Arc<LaunchPlan>, u32)> {
            let tick = self.bump();
            let e = self.entries.iter_mut().find(|e| e.key == *key)?;
            e.last_used = tick;
            e.hits += 1;
            Some((e.plan.clone(), e.namespace))
        }

        fn install(&mut self, key: PlanKey, plan: Arc<LaunchPlan>, namespace: u32, loaded: bool) {
            self.entries.retain(|e| e.key != key);
            let last_used = self.bump();
            self.entries.push(OracleEntry {
                key,
                plan,
                namespace,
                last_used,
                loaded,
                hits: 0,
            });
        }

        fn enforce(&mut self) -> u64 {
            let mut evicted = 0;
            while self.capacity > 0 && self.entries.len() > self.capacity {
                let oldest = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].last_used)
                    .unwrap();
                self.entries.remove(oldest);
                evicted += 1;
            }
            evicted
        }

        fn live_keys(&self) -> Vec<PlanKey> {
            let mut keys: Vec<PlanKey> = self
                .entries
                .iter()
                .filter(|e| !e.loaded || e.hits > 0)
                .map(|e| e.key.clone())
                .collect();
            keys.sort_by_key(|k| (k.kernel.clone(), k.bounds.to_vec()));
            keys
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u8),
        Insert(u8, u32),
        Import(Vec<(u8, u32)>),
        Clear,
        SetCapacity(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        // `prop_oneof!` picks uniformly: gets and inserts are listed
        // twice to dominate.
        prop_oneof![
            (0u8..12).prop_map(Op::Get),
            (0u8..12).prop_map(Op::Get),
            (0u8..12, 0u32..3).prop_map(|(k, ns)| Op::Insert(k, ns)),
            (0u8..12, 0u32..3).prop_map(|(k, ns)| Op::Insert(k, ns)),
            proptest::collection::vec((0u8..12, 0u32..3), 0..5).prop_map(Op::Import),
            Just(Op::Clear),
            (0usize..6).prop_map(Op::SetCapacity),
        ]
    }

    /// Keys over three kernel names, so entries of different kernels
    /// interleave in recency.
    fn nth_key(k: u8) -> PlanKey {
        key(["a", "b", "c"][usize::from(k % 3)], i64::from(k))
    }

    proptest! {
        #[test]
        fn matches_min_tick_oracle(
            capacity in 0usize..6,
            ops in proptest::collection::vec(op(), 1..80),
        ) {
            let mut cache = PlanCache::new(capacity);
            let mut oracle = Oracle { capacity, ..Oracle::default() };
            for op in ops {
                let (evicted, want) = match op {
                    Op::Get(k) => {
                        let got = cache.get(&nth_key(k));
                        let want = oracle.get(&nth_key(k));
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some((p, ns)), Some((q, nt))) = (got, want) {
                            prop_assert!(Arc::ptr_eq(&p, &q), "hit returned another plan");
                            prop_assert_eq!(ns, nt);
                        }
                        (0, 0)
                    }
                    Op::Insert(k, ns) => {
                        let p = plan();
                        oracle.install(nth_key(k), p.clone(), ns, false);
                        (cache.insert(nth_key(k), p, ns), oracle.enforce())
                    }
                    Op::Import(entries) => {
                        let entries: Vec<_> = entries
                            .into_iter()
                            .map(|(k, ns)| (nth_key(k), plan(), ns))
                            .collect();
                        for (k, p, ns) in &entries {
                            oracle.install(k.clone(), p.clone(), *ns, true);
                        }
                        (cache.import(entries), oracle.enforce())
                    }
                    Op::Clear => {
                        cache.clear();
                        oracle.entries.clear();
                        (0, 0)
                    }
                    Op::SetCapacity(c) => {
                        oracle.capacity = c;
                        (cache.set_capacity(c), oracle.enforce())
                    }
                };
                prop_assert_eq!(evicted, want);
                prop_assert_eq!(cache.len(), oracle.entries.len());
                let mut live: Vec<PlanKey> =
                    cache.export_live().into_iter().map(|(k, _, _)| k).collect();
                live.sort_by_key(|k| (k.kernel.clone(), k.bounds.to_vec()));
                prop_assert_eq!(live, oracle.live_keys());
            }
        }
    }
}
