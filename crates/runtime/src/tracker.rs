//! The buffer tracker: a sorted list of non-overlapping segments, each
//! carrying an MSI-style *validity set* — which devices hold a usable
//! copy of the bytes — alongside the owner of the freshest copy
//! (paper §8.1, extended with replica tracking).
//!
//! "The segment list is based on a B-Tree map using the start of each
//! segment as the key and the 'owner' of the most recent version as the
//! value."
//!
//! The paper's tracker records only the freshest owner, so a read-sync
//! copy leaves no trace and the same remote bytes are re-fetched on
//! every launch. Here each segment carries a [`Validity`]: the freshest
//! [`Owner`] plus a [`DeviceSet`] of devices holding an identical copy.
//! Reads *add* the destination to the holder set ([`Tracker::add_holder`]);
//! writes and H2D uploads *invalidate* every other copy
//! ([`Tracker::update`]). Steady-state reads of host-uploaded read-only
//! arrays then cost nothing after the first launch: every reader is
//! already a valid holder.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// start → segment; segments tile `[0, len)`.
type Segments = BTreeMap<u64, Seg>;

/// Who holds the freshest copy of a byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// Never written since allocation (reads see zeros / undefined, like
    /// fresh `cudaMalloc` memory).
    Uninit,
    /// The host buffer (after host-side writes; not used by kernels).
    Host,
    /// Device-local instance `i`.
    Device(usize),
}

impl Owner {
    /// The device index, if the freshest copy lives on a device.
    pub fn device(self) -> Option<usize> {
        match self {
            Owner::Device(d) => Some(d),
            _ => None,
        }
    }
}

/// A set of device indices, packed as a 64-bit mask.
///
/// The runtime never simulates more than a handful of devices, so one
/// machine word per segment keeps the validity set `Copy` and the
/// B-Tree value small.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DeviceSet(u64);

impl DeviceSet {
    /// The empty set.
    pub const EMPTY: DeviceSet = DeviceSet(0);

    /// Maximum representable device index + 1.
    pub const CAPACITY: usize = 64;

    /// The singleton `{d}`.
    pub fn single(d: usize) -> DeviceSet {
        assert!(
            d < Self::CAPACITY,
            "device index {d} out of DeviceSet range"
        );
        DeviceSet(1u64 << d)
    }

    /// Is `d` in the set?
    pub fn contains(self, d: usize) -> bool {
        d < Self::CAPACITY && self.0 & (1u64 << d) != 0
    }

    /// Add `d` to the set.
    pub fn insert(&mut self, d: usize) {
        assert!(
            d < Self::CAPACITY,
            "device index {d} out of DeviceSet range"
        );
        self.0 |= 1u64 << d;
    }

    /// Remove `d` from the set (no-op if absent).
    pub fn remove(&mut self, d: usize) {
        if d < Self::CAPACITY {
            self.0 &= !(1u64 << d);
        }
    }

    /// True if no device holds a copy.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of devices in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The raw bit mask (bit `d` set ⇔ device `d` is a holder). Stable
    /// encoding used by structural signatures and by the tuner's cost
    /// model, which cannot depend on this crate.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Rebuild from a raw mask produced by [`DeviceSet::bits`].
    pub fn from_bits(bits: u64) -> DeviceSet {
        DeviceSet(bits)
    }

    /// Iterate the member device indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let bits = self.0;
        (0..Self::CAPACITY).filter(move |&d| bits & (1u64 << d) != 0)
    }
}

impl std::fmt::Debug for DeviceSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, d) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "}}")
    }
}

/// Per-segment coherence state: the freshest copy's owner plus every
/// device holding an identical replica.
///
/// Invariants (checked by [`Tracker::check_invariants`]):
/// * `freshest == Owner::Device(d)` ⇒ `holders.contains(d)`;
/// * `freshest == Owner::Uninit` ⇒ `holders` is empty.
///
/// `freshest == Owner::Host` with non-empty `holders` is the replica
/// steady state for host-uploaded read-only data: the host wrote the
/// bytes last, and one or more devices fetched copies since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity {
    /// Owner of the most recently written copy.
    pub freshest: Owner,
    /// Devices holding a valid (identical) copy.
    pub holders: DeviceSet,
}

impl Validity {
    /// The state of never-written bytes.
    pub fn uninit() -> Validity {
        Validity {
            freshest: Owner::Uninit,
            holders: DeviceSet::EMPTY,
        }
    }

    /// The state right after `owner` wrote the bytes: every other copy
    /// is invalidated, so the writer (if a device) is the sole holder.
    pub fn written(owner: Owner) -> Validity {
        let holders = match owner {
            Owner::Device(d) => DeviceSet::single(d),
            _ => DeviceSet::EMPTY,
        };
        Validity {
            freshest: owner,
            holders,
        }
    }

    /// Does `device` hold a valid copy of these bytes?
    pub fn valid_on(self, device: usize) -> bool {
        self.holders.contains(device)
    }
}

/// Metadata-work accounting returned by [`Tracker::update`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Pre-update segments the written range overlapped (what a `query`
    /// over the same range would have visited) — the tracker-maintenance
    /// work the runtime charges as host time.
    pub touched: usize,
    /// Replica copies evicted by the write: for each overlapped segment,
    /// the holder devices other than the writer itself. Feeds the
    /// `replica_invalidations` observability counter.
    pub invalidated: usize,
}

/// One segment as the tree stores it: its end and its [`Validity`] with
/// the owner folded into a byte, 24 bytes where `(u64, Validity)` takes
/// 32. Every replayed plan keeps segment lists ([`TrackerState`]), so
/// the entry size is what a plan's post-state costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seg {
    end: u64,
    holders: DeviceSet,
    /// A device index below [`DeviceSet::CAPACITY`] (a device-fresh
    /// segment's writer is always a holder), or one of the two codes.
    freshest: u8,
}

impl Seg {
    const HOST: u8 = DeviceSet::CAPACITY as u8;
    const UNINIT: u8 = Seg::HOST + 1;

    fn new(end: u64, v: Validity) -> Seg {
        let freshest = match v.freshest {
            Owner::Device(d) => {
                debug_assert!(v.holders.contains(d));
                d as u8
            }
            Owner::Host => Seg::HOST,
            Owner::Uninit => Seg::UNINIT,
        };
        Seg {
            end,
            holders: v.holders,
            freshest,
        }
    }

    fn validity(self) -> Validity {
        let freshest = match self.freshest {
            Seg::HOST => Owner::Host,
            Seg::UNINIT => Owner::Uninit,
            d => Owner::Device(d as usize),
        };
        Validity {
            freshest,
            holders: self.holders,
        }
    }

    /// Same validity, other end.
    fn until(self, end: u64) -> Seg {
        Seg { end, ..self }
    }

    fn same_validity(self, other: Seg) -> bool {
        (self.holders, self.freshest) == (other.holders, other.freshest)
    }
}

/// A tracker's segment list pinned together with its signature: what
/// [`Tracker::share`] hands out and [`Tracker::install`] puts back. The
/// segments sit behind an `Arc`, so holding or installing a state costs
/// a pointer, whatever the segment count — a replayed launch plan keeps
/// the state its tracker ops lead to and installs it on every later
/// replay instead of re-applying the ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackerState {
    len: u64,
    segments: Arc<Segments>,
    signature: u64,
}

impl TrackerState {
    /// The [`Tracker::signature`] of the pinned segment list.
    pub fn signature(&self) -> u64 {
        self.signature
    }
}

/// Non-overlapping, fully covering segment list over `[0, len)`.
pub struct Tracker {
    len: u64,
    /// Shared with clones and with every [`TrackerState`] taken from
    /// this tracker; the mutating paths go through `Arc::make_mut`,
    /// which copies only while somebody else still holds the list.
    segments: Arc<Segments>,
    /// Mutation counter: bumped by every [`Tracker::update`] that covers
    /// at least one byte and by every [`Tracker::add_holder`] that
    /// changes at least one segment. Lets callers detect "nothing
    /// changed since I last looked" without walking the segment list.
    epoch: u64,
    /// Memoized `(epoch, structural hash)` pair backing
    /// [`Tracker::signature`]; interior mutability so read-only consumers
    /// (the launch-plan cache key) can fill it.
    sig_memo: Mutex<Option<(u64, u64)>>,
}

impl Clone for Tracker {
    fn clone(&self) -> Tracker {
        Tracker {
            len: self.len,
            segments: self.segments.clone(),
            epoch: self.epoch,
            sig_memo: Mutex::new(*self.sig_memo.lock()),
        }
    }
}

impl std::fmt::Debug for Tracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracker")
            .field("len", &self.len)
            .field("segments", &self.segments)
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl Tracker {
    /// A tracker covering `len` bytes, all [`Owner::Uninit`].
    pub fn new(len: u64) -> Tracker {
        let mut segments = BTreeMap::new();
        if len > 0 {
            segments.insert(0, Seg::new(len, Validity::uninit()));
        }
        Tracker {
            len,
            segments: Arc::new(segments),
            epoch: 0,
            sig_memo: Mutex::new(None),
        }
    }

    /// Mutation epoch: increases on every effective mutation (a write
    /// update covering ≥ 1 byte, or a holder addition that changed at
    /// least one segment).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Structural hash of the segment list (FNV-1a over `(start, end,
    /// freshest, holders)` tuples plus the length). Two trackers with
    /// identical segment lists hash equal regardless of the update
    /// history that produced them, so steady-state iterative workloads
    /// (ping-pong stencils) reach a periodic fixed point of signatures.
    /// Holder sets are part of the hash: a replayed plan must never
    /// serve a copy the validity state says is redundant, or skip one
    /// it says is needed. Memoized per [`Tracker::epoch`]: the hot
    /// launch path pays one hash-map-sized walk only after an actual
    /// mutation.
    pub fn signature(&self) -> u64 {
        let mut memo = self.sig_memo.lock();
        if let Some((epoch, hash)) = *memo {
            if epoch == self.epoch {
                return hash;
            }
        }
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        };
        mix(self.len);
        for (&s, seg) in self.segments.iter() {
            let v = seg.validity();
            mix(s);
            mix(seg.end);
            mix(match v.freshest {
                Owner::Uninit => u64::MAX,
                Owner::Host => u64::MAX - 1,
                Owner::Device(d) => d as u64,
            });
            mix(v.holders.bits());
        }
        *memo = Some((self.epoch, h));
        h
    }

    /// Tracked length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the tracker covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments (fragmentation metric; §8.1 discusses why
    /// regular kernels keep this at one segment per partition).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Record that `owner` wrote `[start, end)`: the writer becomes the
    /// freshest copy and every other holder is invalidated.
    ///
    /// Returns [`UpdateStats`]: the pre-update segments touched (charged
    /// as host-side tracker-maintenance time) and the replica copies the
    /// write evicted.
    pub fn update(&mut self, start: u64, end: u64, owner: Owner) -> UpdateStats {
        let end = end.min(self.len);
        if start >= end {
            return UpdateStats::default();
        }
        self.epoch += 1;
        let mut stats = UpdateStats::default();
        let writer = owner.device();
        self.query(start, end, &mut |_, _, v| {
            stats.touched += 1;
            let mut others = v.holders;
            if let Some(d) = writer {
                others.remove(d);
            }
            stats.invalidated += others.len();
        });
        self.set_range(start, end, Validity::written(owner));
        stats
    }

    /// Record that `device` fetched a valid copy of the freshest bytes
    /// in `[start, end)` (a read-sync replica fetch): `device` joins the
    /// holder set, and the freshest owner is unchanged.
    ///
    /// [`Owner::Uninit`] segments are skipped — a bridged-gap copy over
    /// never-written bytes carries no meaning, and marking it would
    /// fragment the tracker. Returns the number of bytes newly made
    /// valid on `device`; `0` means nothing changed, in which case the
    /// epoch is *not* bumped (steady-state signature stability depends
    /// on repeat reads being structural no-ops).
    pub fn add_holder(&mut self, start: u64, end: u64, device: usize) -> u64 {
        let end = end.min(self.len);
        if start >= end {
            return 0;
        }
        let mut changes: Vec<(u64, u64, Validity)> = Vec::new();
        self.query(start, end, &mut |s, e, v| {
            if v.freshest != Owner::Uninit && !v.holders.contains(device) {
                let mut nv = v;
                nv.holders.insert(device);
                changes.push((s, e, nv));
            }
        });
        if changes.is_empty() {
            return 0;
        }
        self.epoch += 1;
        let mut bytes = 0;
        for (s, e, nv) in changes {
            bytes += e - s;
            self.set_range(s, e, nv);
        }
        bytes
    }

    /// Replace the validity of `[start, end)` with `v`, splitting the
    /// boundary segments and re-merging neighbours. Callers own the
    /// epoch bump and any clipping.
    fn set_range(&mut self, start: u64, end: u64, v: Validity) {
        let new = Seg::new(end, v);
        // A range lying inside one segment of the same validity — the
        // steady-state rewrite of a partition's own rows — changes
        // nothing: leave the (possibly shared) list alone.
        if let Some((_, &o)) = self.segments.range(..=start).next_back() {
            if end <= o.end && o.same_validity(new) {
                return;
            }
        }
        let segments = Arc::make_mut(&mut self.segments);
        // Split the segment containing `start` if it begins earlier.
        if let Some((&s, &o)) = segments.range(..=start).next_back() {
            if s < start && start < o.end {
                segments.insert(s, o.until(start));
                segments.insert(start, o);
            }
        }
        // Split the segment containing `end` if it extends past it.
        if let Some((&s, &o)) = segments.range(..end).next_back() {
            if s < end && end < o.end {
                segments.insert(s, o.until(end));
                segments.insert(end, o);
            }
        }
        // Remove all segments now fully inside [start, end).
        let inside: Vec<u64> = segments.range(start..end).map(|(&s, _)| s).collect();
        for s in inside {
            segments.remove(&s);
        }
        segments.insert(start, new);
        // Merge with neighbors of identical validity.
        Self::merge_around(segments, start);
    }

    fn merge_around(segments: &mut Segments, start: u64) {
        let seg = segments[&start];
        // Merge right.
        if let Some((&rs, &r)) = segments.range(seg.end..).next() {
            if rs == seg.end && r.same_validity(seg) {
                segments.remove(&rs);
                segments.insert(start, r);
            }
        }
        // Merge left.
        let seg = segments[&start];
        if let Some((&ls, &l)) = segments.range(..start).next_back() {
            if l.end == start && l.same_validity(seg) {
                segments.remove(&start);
                segments.insert(ls, seg);
            }
        }
    }

    /// The current segment list and its signature, shared rather than
    /// copied. The tracker keeps working on the same list until its next
    /// mutation, which then copies it once.
    ///
    /// A shared list lives as long as whoever keeps the state, so a list
    /// nobody else holds yet is first rebuilt in order: B-tree nodes
    /// grown by in-place splits sit about half full, nodes built from a
    /// sorted run are full.
    pub fn share(&mut self) -> TrackerState {
        if let Some(segments) = Arc::get_mut(&mut self.segments) {
            *segments = std::mem::take(segments).into_iter().collect();
        }
        TrackerState {
            len: self.len,
            segments: Arc::clone(&self.segments),
            signature: self.signature(),
        }
    }

    /// Replace the segment list by a state taken from a tracker of the
    /// same length: one pointer swap and a signature memo, independent
    /// of the segment count. Counts as one mutation.
    pub fn install(&mut self, state: &TrackerState) {
        assert_eq!(state.len, self.len, "installed state has another length");
        self.segments = Arc::clone(&state.segments);
        self.epoch += 1;
        *self.sig_memo.get_mut() = Some((self.epoch, state.signature));
    }

    /// Visit the segments overlapping `[start, end)`, clipped to it.
    pub fn query(&self, start: u64, end: u64, f: &mut dyn FnMut(u64, u64, Validity)) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        // First candidate: the segment starting at or before `start`.
        let first = self
            .segments
            .range(..=start)
            .next_back()
            .map(|(&s, _)| s)
            .unwrap_or(start);
        for (&s, seg) in self.segments.range(first..end) {
            let cs = s.max(start);
            let ce = seg.end.min(end);
            if cs < ce {
                f(cs, ce, seg.validity());
            }
        }
    }

    /// Visit the segments overlapping a *set* of ranges, after merging
    /// overlapping and adjacent input ranges.
    ///
    /// Access patterns from 2-D/3-D enumerators arrive as one range per
    /// row; in row-major layout neighbouring rows are byte-adjacent, so
    /// merging first means one tracker walk (and one emitted segment per
    /// validity run) instead of one per row. Overlapping halo ranges are
    /// deduplicated for free. The tracker tiles `[0, len)` with maximal
    /// segments, so segments inside one merged range never need a second
    /// merge pass.
    ///
    /// Returns `(merged_range_count, emitted_segment_count)`.
    pub fn query_coalesced(
        &self,
        ranges: &[(u64, u64)],
        f: &mut dyn FnMut(u64, u64, Validity),
    ) -> (usize, usize) {
        let mut sorted: Vec<(u64, u64)> = ranges
            .iter()
            .map(|&(s, e)| (s, e.min(self.len)))
            .filter(|&(s, e)| s < e)
            .collect();
        sorted.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
        for (s, e) in sorted {
            match merged.last_mut() {
                // `s <= last.1` merges adjacent ranges too, not just
                // overlapping ones — that is where the win comes from.
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        let mut emitted = 0;
        for &(s, e) in &merged {
            self.query(s, e, &mut |cs, ce, v| {
                emitted += 1;
                f(cs, ce, v);
            });
        }
        (merged.len(), emitted)
    }

    /// Collected segments over a range (convenience for tests).
    pub fn segments_in(&self, start: u64, end: u64) -> Vec<(u64, u64, Validity)> {
        let mut out = Vec::new();
        self.query(start, end, &mut |s, e, v| out.push((s, e, v)));
        out
    }

    /// Check internal invariants (used by tests and debug assertions):
    /// segments tile `[0, len)` without gaps or overlaps, no two
    /// adjacent segments share a validity, a device-fresh segment's
    /// writer is always a holder, and uninit segments have no holders.
    pub fn check_invariants(&self) -> bool {
        if self.len == 0 {
            return self.segments.is_empty();
        }
        let mut expect = 0u64;
        let mut prev: Option<Validity> = None;
        for (&s, seg) in self.segments.iter() {
            let (e, v) = (seg.end, seg.validity());
            if s != expect || e <= s {
                return false;
            }
            if prev == Some(v) {
                return false; // unmerged neighbors
            }
            match v.freshest {
                Owner::Device(d) if !v.holders.contains(d) => return false,
                Owner::Uninit if !v.holders.is_empty() => return false,
                _ => {}
            }
            expect = e;
            prev = Some(v);
        }
        expect == self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shorthand: the validity right after `o` wrote the bytes.
    fn w(o: Owner) -> Validity {
        Validity::written(o)
    }

    #[test]
    fn fresh_tracker_is_one_uninit_segment() {
        let t = Tracker::new(100);
        assert_eq!(t.segment_count(), 1);
        assert_eq!(t.segments_in(0, 100), vec![(0, 100, Validity::uninit())]);
        assert!(t.check_invariants());
    }

    #[test]
    fn update_splits_and_merges() {
        let mut t = Tracker::new(100);
        t.update(10, 20, Owner::Device(0));
        assert!(t.check_invariants());
        assert_eq!(
            t.segments_in(0, 100),
            vec![
                (0, 10, Validity::uninit()),
                (10, 20, w(Owner::Device(0))),
                (20, 100, Validity::uninit()),
            ]
        );
        // Adjacent same-validity updates merge.
        t.update(20, 30, Owner::Device(0));
        assert!(t.check_invariants());
        assert_eq!(t.segments_in(5, 35).len(), 3);
        assert_eq!(t.segments_in(10, 30), vec![(10, 30, w(Owner::Device(0)))]);
    }

    #[test]
    fn overwrite_replaces_owners() {
        let mut t = Tracker::new(64);
        t.update(0, 32, Owner::Device(0));
        t.update(32, 64, Owner::Device(1));
        t.update(16, 48, Owner::Device(2));
        assert!(t.check_invariants());
        assert_eq!(
            t.segments_in(0, 64),
            vec![
                (0, 16, w(Owner::Device(0))),
                (16, 48, w(Owner::Device(2))),
                (48, 64, w(Owner::Device(1))),
            ]
        );
    }

    #[test]
    fn full_overwrite_collapses_to_one_segment() {
        let mut t = Tracker::new(64);
        for i in 0..8 {
            t.update(i * 8, (i + 1) * 8, Owner::Device(i as usize % 3));
        }
        t.update(0, 64, Owner::Device(7));
        assert!(t.check_invariants());
        assert_eq!(t.segment_count(), 1);
    }

    #[test]
    fn query_clips_to_range() {
        let mut t = Tracker::new(100);
        t.update(0, 50, Owner::Device(0));
        t.update(50, 100, Owner::Device(1));
        assert_eq!(
            t.segments_in(40, 60),
            vec![(40, 50, w(Owner::Device(0))), (50, 60, w(Owner::Device(1)))]
        );
    }

    #[test]
    fn update_beyond_len_is_clipped() {
        let mut t = Tracker::new(10);
        t.update(5, 100, Owner::Device(0));
        assert!(t.check_invariants());
        assert_eq!(
            t.segments_in(0, 10),
            vec![(0, 5, Validity::uninit()), (5, 10, w(Owner::Device(0)))]
        );
    }

    #[test]
    fn empty_ranges_are_noops() {
        let mut t = Tracker::new(10);
        t.update(5, 5, Owner::Device(0));
        t.update(7, 3, Owner::Device(0));
        assert_eq!(t.segment_count(), 1);
        assert!(t.segments_in(3, 3).is_empty());
    }

    #[test]
    fn update_reports_touched_segment_count() {
        let mut t = Tracker::new(100);
        // Fresh tracker: one Uninit segment touched.
        assert_eq!(t.update(10, 20, Owner::Device(0)).touched, 1);
        // [0,10) Uninit | [10,20) D0 | [20,100) Uninit.
        // Overwriting [5, 25) touches all three.
        assert_eq!(t.update(5, 25, Owner::Device(1)).touched, 3);
        // Rewriting exactly the same range touches only its own segment.
        assert_eq!(t.update(5, 25, Owner::Device(1)).touched, 1);
        // Clipped/empty ranges touch nothing.
        assert_eq!(t.update(200, 300, Owner::Device(0)).touched, 0);
        assert_eq!(t.update(7, 7, Owner::Device(0)).touched, 0);
        assert!(t.check_invariants());
    }

    #[test]
    fn query_coalesced_merges_adjacent_and_overlapping_ranges() {
        let mut t = Tracker::new(100);
        t.update(0, 50, Owner::Device(0));
        t.update(50, 100, Owner::Device(1));
        // Four adjacent "rows" + one overlapping halo → one merged range.
        let ranges = [(30, 40), (40, 50), (50, 60), (60, 70), (35, 55)];
        let mut got = Vec::new();
        let (n_ranges, n_segments) = t.query_coalesced(&ranges, &mut |s, e, v| got.push((s, e, v)));
        assert_eq!(n_ranges, 1);
        assert_eq!(n_segments, 2);
        assert_eq!(
            got,
            vec![(30, 50, w(Owner::Device(0))), (50, 70, w(Owner::Device(1)))]
        );
        // Disjoint ranges stay separate and keep sorted order.
        let mut got = Vec::new();
        let (n_ranges, n_segments) =
            t.query_coalesced(&[(80, 90), (0, 10)], &mut |s, e, v| got.push((s, e, v)));
        assert_eq!((n_ranges, n_segments), (2, 2));
        assert_eq!(
            got,
            vec![(0, 10, w(Owner::Device(0))), (80, 90, w(Owner::Device(1)))]
        );
    }

    #[test]
    fn epoch_counts_effective_updates_only() {
        let mut t = Tracker::new(100);
        assert_eq!(t.epoch(), 0);
        t.update(0, 10, Owner::Device(0));
        assert_eq!(t.epoch(), 1);
        // Clipped-empty and reversed ranges do not bump the epoch.
        t.update(200, 300, Owner::Device(1));
        t.update(7, 3, Owner::Device(1));
        assert_eq!(t.epoch(), 1);
        // A structurally no-op rewrite still counts as a mutation (the
        // signature memo recomputes and lands on the same hash).
        let sig = t.signature();
        t.update(0, 10, Owner::Device(0));
        assert_eq!(t.epoch(), 2);
        assert_eq!(t.signature(), sig);
    }

    #[test]
    fn signature_is_structural_not_historical() {
        // Two different update histories, same final segment list.
        let mut a = Tracker::new(64);
        a.update(0, 32, Owner::Device(0));
        a.update(32, 64, Owner::Device(1));
        let mut b = Tracker::new(64);
        b.update(0, 64, Owner::Device(7));
        b.update(32, 64, Owner::Device(1));
        b.update(0, 32, Owner::Device(0));
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.epoch(), b.epoch());
        // Changing the segment list changes the signature.
        let before = a.signature();
        a.update(10, 20, Owner::Device(2));
        assert_ne!(a.signature(), before);
        // Different lengths hash apart even when both are fully Uninit.
        assert_ne!(Tracker::new(10).signature(), Tracker::new(20).signature());
    }

    #[test]
    fn signature_memo_survives_clone() {
        let mut t = Tracker::new(100);
        t.update(0, 50, Owner::Device(1));
        let sig = t.signature();
        let c = t.clone();
        assert_eq!(c.signature(), sig);
        assert_eq!(c.epoch(), t.epoch());
    }

    #[test]
    fn single_writer_pattern_stays_one_segment_per_device() {
        // The §8.1 observation: contiguous per-partition writes produce
        // one segment per partition.
        let mut t = Tracker::new(1600);
        for g in 0..16u64 {
            t.update(g * 100, (g + 1) * 100, Owner::Device(g as usize));
        }
        assert!(t.check_invariants());
        assert_eq!(t.segment_count(), 16);
        // Iterative relaunch with identical pattern: still 16.
        for g in 0..16u64 {
            t.update(g * 100, (g + 1) * 100, Owner::Device(g as usize));
        }
        assert_eq!(t.segment_count(), 16);
    }

    #[test]
    fn add_holder_replicates_without_moving_ownership() {
        let mut t = Tracker::new(100);
        t.update(0, 100, Owner::Device(0));
        assert_eq!(t.add_holder(20, 60, 1), 40);
        assert!(t.check_invariants());
        let mut d0_plus_1 = w(Owner::Device(0));
        d0_plus_1.holders.insert(1);
        assert_eq!(
            t.segments_in(0, 100),
            vec![
                (0, 20, w(Owner::Device(0))),
                (20, 60, d0_plus_1),
                (60, 100, w(Owner::Device(0))),
            ]
        );
        // The freshest owner is unchanged everywhere.
        for (_, _, v) in t.segments_in(0, 100) {
            assert_eq!(v.freshest, Owner::Device(0));
        }
    }

    #[test]
    fn add_holder_skips_uninit_bytes() {
        let mut t = Tracker::new(100);
        t.update(40, 60, Owner::Device(0));
        // The copy bridged an Uninit gap: only the written bytes are
        // marked, the Uninit neighbourhood stays pristine (and the
        // tracker does not fragment).
        assert_eq!(t.add_holder(0, 100, 1), 20);
        assert!(t.check_invariants());
        assert_eq!(t.segment_count(), 3);
        assert_eq!(t.segments_in(0, 40), vec![(0, 40, Validity::uninit())]);
        assert_eq!(t.segments_in(60, 100), vec![(60, 100, Validity::uninit())]);
        // Fully-Uninit tracker: nothing to hold, no epoch bump.
        let mut u = Tracker::new(50);
        let epoch = u.epoch();
        assert_eq!(u.add_holder(0, 50, 2), 0);
        assert_eq!(u.epoch(), epoch);
    }

    #[test]
    fn repeat_add_holder_is_a_structural_noop() {
        let mut t = Tracker::new(100);
        t.update(0, 100, Owner::Host);
        assert_eq!(t.add_holder(0, 100, 3), 100);
        let epoch = t.epoch();
        let sig = t.signature();
        // Steady state: the reader already holds the bytes — no epoch
        // bump, so plan-cache signatures stay stable across launches.
        assert_eq!(t.add_holder(0, 100, 3), 0);
        assert_eq!(t.epoch(), epoch);
        assert_eq!(t.signature(), sig);
        assert!(t.check_invariants());
    }

    #[test]
    fn writes_invalidate_other_holders() {
        let mut t = Tracker::new(100);
        t.update(0, 100, Owner::Device(0));
        t.add_holder(0, 100, 1);
        t.add_holder(0, 100, 2);
        // D1 writes the middle: D0 and D2 copies there are evicted.
        let stats = t.update(25, 75, Owner::Device(1));
        assert_eq!(stats.touched, 1);
        assert_eq!(stats.invalidated, 2);
        assert!(t.check_invariants());
        assert_eq!(t.segments_in(25, 75), vec![(25, 75, w(Owner::Device(1)))]);
        // The flanks still carry the replica set.
        let flank = t.segments_in(0, 25)[0].2;
        assert_eq!(flank.freshest, Owner::Device(0));
        assert!(
            flank.holders.contains(0) && flank.holders.contains(1) && flank.holders.contains(2)
        );
        // A host upload evicts every device copy.
        let stats = t.update(0, 100, Owner::Host);
        assert_eq!(stats.invalidated, 3 + 1 + 3); // flanks hold {0,1,2}, middle holds {1}
        assert_eq!(t.segments_in(0, 100), vec![(0, 100, w(Owner::Host))]);
    }

    #[test]
    fn signature_tracks_holder_changes() {
        let mut t = Tracker::new(64);
        t.update(0, 64, Owner::Device(0));
        let before = t.signature();
        t.add_holder(0, 64, 1);
        let with_replica = t.signature();
        assert_ne!(before, with_replica, "holder sets must be part of the hash");
        // Invalidation restores the original structure and hash.
        t.update(0, 64, Owner::Device(0));
        assert_eq!(t.signature(), before);
    }

    #[test]
    fn merges_require_equal_holder_sets() {
        let mut t = Tracker::new(100);
        t.update(0, 100, Owner::Device(0));
        t.add_holder(0, 50, 1);
        // Same freshest owner on both sides, different holder sets: the
        // boundary must survive.
        assert_eq!(t.segment_count(), 2);
        // Equalizing the holder sets re-merges into one segment.
        t.add_holder(50, 100, 1);
        assert_eq!(t.segment_count(), 1);
        assert!(t.check_invariants());
    }

    #[test]
    fn device_set_basics() {
        let mut s = DeviceSet::EMPTY;
        assert!(s.is_empty());
        s.insert(3);
        s.insert(0);
        s.insert(3);
        assert_eq!(s.len(), 2);
        assert!(s.contains(0) && s.contains(3) && !s.contains(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3]);
        s.remove(0);
        assert_eq!(s, DeviceSet::single(3));
        assert_eq!(DeviceSet::from_bits(s.bits()), s);
        assert_eq!(format!("{:?}", s), "{3}");
    }
}
