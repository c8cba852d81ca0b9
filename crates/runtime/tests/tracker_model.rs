//! Property-based verification of the segment tracker against a naive
//! byte-level reference model: after any sequence of writes and replica
//! additions, queries over any range must report exactly the per-byte
//! validity state (freshest owner *and* holder set) the naive model
//! holds, and the structural invariants must survive. Segment merging is
//! exercised implicitly — every property compares the (merged) segment
//! view against the unmerged per-byte oracle, so a merge that changed
//! the byte-level view would fail immediately.

use mekong_runtime::{DeviceSet, Owner, Tracker, Validity};
use proptest::prelude::*;

const LEN: u64 = 256;
const N_DEV: usize = 4;

/// One tracker mutation: a write (host or device) or a replica addition.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64, u64, Owner),
    AddHolder(u64, u64, usize),
}

fn arb_owner() -> impl Strategy<Value = Owner> {
    prop_oneof![Just(Owner::Host), (0usize..N_DEV).prop_map(Owner::Device)]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..LEN, 0u64..=LEN + 16, arb_owner()).prop_map(|(s, e, o)| Op::Write(s, e, o)),
        (0u64..LEN, 0u64..=LEN + 16, 0usize..N_DEV).prop_map(|(s, e, d)| Op::AddHolder(s, e, d)),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 1..40)
}

/// Apply one op to the tracker and to the naive per-byte model.
fn apply(t: &mut Tracker, naive: &mut [Validity], op: Op) {
    match op {
        Op::Write(start, end, owner) => {
            t.update(start, end, owner);
            let end = end.min(LEN);
            if start < end {
                for slot in &mut naive[start as usize..end as usize] {
                    *slot = Validity::written(owner);
                }
            }
        }
        Op::AddHolder(start, end, d) => {
            t.add_holder(start, end, d);
            let end = end.min(LEN);
            if start < end {
                for slot in &mut naive[start as usize..end as usize] {
                    if slot.freshest != Owner::Uninit {
                        slot.holders.insert(d);
                    }
                }
            }
        }
    }
}

/// Expand a tracker query into a per-byte validity vector.
fn bytes_of(t: &Tracker) -> Vec<Validity> {
    let mut out = vec![Validity::uninit(); LEN as usize];
    t.query(0, LEN, &mut |s, e, v| {
        for slot in &mut out[s as usize..e as usize] {
            *slot = v;
        }
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tracker validity equals the naive model after arbitrary writes and
    /// replica additions, and the freshest device is always a holder.
    #[test]
    fn matches_naive_byte_model(ops in arb_ops()) {
        let mut t = Tracker::new(LEN);
        let mut naive = vec![Validity::uninit(); LEN as usize];
        for op in ops {
            apply(&mut t, &mut naive, op);
            prop_assert!(t.check_invariants(), "invariants broken after {op:?}");
        }
        let got = bytes_of(&t);
        prop_assert_eq!(&got, &naive);
        for (i, v) in got.iter().enumerate() {
            if let Owner::Device(d) = v.freshest {
                prop_assert!(v.holders.contains(d),
                    "byte {}: freshest device {} not among holders {:?}", i, d, v.holders);
            }
            if v.freshest == Owner::Uninit {
                prop_assert!(v.holders.is_empty(),
                    "byte {}: uninit bytes cannot have holders", i);
            }
        }
    }

    /// Partial queries report exactly the clipped intersection.
    #[test]
    fn partial_queries_clip(ops in arb_ops(), qs in 0u64..LEN, qlen in 0u64..LEN) {
        let mut t = Tracker::new(LEN);
        let mut naive = vec![Validity::uninit(); LEN as usize];
        for op in ops {
            apply(&mut t, &mut naive, op);
        }
        let qe = (qs + qlen).min(LEN);
        let mut segs: Vec<(u64, u64, Validity)> = Vec::new();
        t.query(qs, qe, &mut |s, e, v| segs.push((s, e, v)));
        let mut covered = 0u64;
        let mut cursor = qs;
        for (s, e, v) in segs {
            prop_assert!(s >= qs && e <= qe && s < e, "segment [{s},{e}) escapes [{qs},{qe})");
            prop_assert_eq!(s, cursor, "gap in query tiling");
            cursor = e;
            covered += e - s;
            for i in s..e {
                prop_assert_eq!(naive[i as usize], v, "byte {} validity mismatch", i);
            }
        }
        if qs < qe {
            prop_assert_eq!(covered, qe - qs, "query must tile the range");
        }
    }

    /// `query_coalesced` over arbitrary (overlapping, adjacent, unsorted)
    /// ranges visits exactly the bytes of the ranges' union, with the
    /// naive model's validity, in sorted disjoint maximal segments.
    #[test]
    fn coalesced_queries_match_union_of_ranges(
        ops in arb_ops(),
        ranges in proptest::collection::vec((0u64..LEN, 0u64..=LEN + 16), 0..12),
    ) {
        let mut t = Tracker::new(LEN);
        let mut naive = vec![Validity::uninit(); LEN as usize];
        for op in ops {
            apply(&mut t, &mut naive, op);
        }
        let range_list: Vec<(u64, u64)> = ranges.clone();
        let mut in_union = vec![false; LEN as usize];
        for &(s, e) in &range_list {
            let e = e.min(LEN);
            if s < e {
                for slot in &mut in_union[s as usize..e as usize] {
                    *slot = true;
                }
            }
        }
        let mut segs: Vec<(u64, u64, Validity)> = Vec::new();
        let (n_merged, n_emitted) =
            t.query_coalesced(&range_list, &mut |s, e, v| segs.push((s, e, v)));
        prop_assert_eq!(n_emitted, segs.len());
        prop_assert!(n_merged <= range_list.len(), "merging cannot add ranges");
        // Visited bytes = union, with correct validity; segments sorted,
        // disjoint, non-empty.
        let mut visited = vec![false; LEN as usize];
        let mut prev_end = 0u64;
        for &(s, e, v) in &segs {
            prop_assert!(s < e && e <= LEN, "bad segment [{s},{e})");
            prop_assert!(s >= prev_end, "segments out of order or overlapping");
            prev_end = e;
            for i in s..e {
                prop_assert!(!visited[i as usize], "byte {} visited twice", i);
                visited[i as usize] = true;
                prop_assert_eq!(naive[i as usize], v, "byte {} validity mismatch", i);
            }
        }
        prop_assert_eq!(visited, in_union);
    }

    /// Segment count never exceeds the number of distinct validity runs —
    /// merging collapses equal neighbours and never merges unequal ones.
    #[test]
    fn segments_are_maximal_runs(ops in arb_ops()) {
        let mut t = Tracker::new(LEN);
        let mut naive = vec![Validity::uninit(); LEN as usize];
        for op in ops {
            apply(&mut t, &mut naive, op);
        }
        let view = bytes_of(&t);
        let runs = 1 + view.windows(2).filter(|w| w[0] != w[1]).count();
        prop_assert_eq!(t.segment_count(), runs, "unmerged or split segments");
    }

    /// Structural hashing: trackers with equal segment lists hash equal,
    /// regardless of the update history that produced them. The witness
    /// tracker is rebuilt by replaying the *final* validity runs of the
    /// original — writes first, then replica additions — a different
    /// (usually much shorter) history.
    #[test]
    fn equal_segment_lists_hash_equal(ops in arb_ops()) {
        let mut t = Tracker::new(LEN);
        let mut naive = vec![Validity::uninit(); LEN as usize];
        for op in ops {
            apply(&mut t, &mut naive, op);
        }
        let view = bytes_of(&t);
        let mut rebuilt = Tracker::new(LEN);
        let mut run_start = 0usize;
        for i in 1..=view.len() {
            if i == view.len() || view[i] != view[run_start] {
                let v = view[run_start];
                if v.freshest != Owner::Uninit {
                    rebuilt.update(run_start as u64, i as u64, v.freshest);
                    let writer = DeviceSet::from_bits(match v.freshest {
                        Owner::Device(d) => 1u64 << d,
                        _ => 0,
                    });
                    for d in v.holders.iter() {
                        if !writer.contains(d) {
                            rebuilt.add_holder(run_start as u64, i as u64, d);
                        }
                    }
                }
                run_start = i;
            }
        }
        prop_assert_eq!(bytes_of(&rebuilt), view, "rebuild mismatch");
        prop_assert_eq!(t.signature(), rebuilt.signature(),
            "same segments, different hash");
    }

    /// Any mutation that changes the segment list changes the hash (the
    /// plan cache's correctness hinges on this: a stale signature would
    /// replay a plan against a different coherence state). Mutations that
    /// leave the list unchanged — including repeated replica additions —
    /// must leave the hash unchanged.
    #[test]
    fn ops_changing_segments_change_hash(ops in arb_ops(), extra in arb_op()) {
        let mut t = Tracker::new(LEN);
        let mut naive = vec![Validity::uninit(); LEN as usize];
        for op in ops {
            apply(&mut t, &mut naive, op);
        }
        let before_bytes = bytes_of(&t);
        let before_sig = t.signature();
        apply(&mut t, &mut naive, extra);
        prop_assert!(t.check_invariants());
        if bytes_of(&t) == before_bytes {
            prop_assert_eq!(t.signature(), before_sig,
                "no-op mutation changed the hash");
        } else {
            prop_assert!(t.signature() != before_sig, "segment change kept the hash");
        }
    }

    /// Segment lists are shared, never aliased: a clone and a taken
    /// [`TrackerState`] share the tracker's list, and whatever the
    /// tracker does next — including the steady-state rewrite of a range
    /// with the validity it already has — changes neither.
    #[test]
    fn mutation_never_reaches_a_sharing_clone(ops in arb_ops(), later in arb_ops()) {
        let mut t = Tracker::new(LEN);
        let mut naive = vec![Validity::uninit(); LEN as usize];
        for op in ops {
            apply(&mut t, &mut naive, op);
        }
        let clone = t.clone();
        let state = t.share();
        let (frozen, frozen_sig) = (bytes_of(&t), t.signature());
        prop_assert_eq!(state.signature(), frozen_sig);
        for op in later {
            apply(&mut t, &mut naive, op);
            prop_assert_eq!(&bytes_of(&clone), &frozen, "clone changed under {op:?}");
        }
        prop_assert_eq!(&bytes_of(&t), &naive);
        prop_assert_eq!(clone.signature(), frozen_sig);
        // Installing the state over whatever the tracker became brings
        // back exactly the shared list.
        t.install(&state);
        prop_assert_eq!(&bytes_of(&t), &frozen);
        prop_assert!(t.check_invariants());
    }

    /// An installed state carries its signature as a memo; it must be
    /// the hash a tracker computes from scratch over the same segments,
    /// and mutating on from an installed state must track the naive
    /// model like any other tracker.
    #[test]
    fn installed_signature_equals_recomputation(
        ops in arb_ops(),
        detour in arb_ops(),
        later in arb_ops(),
    ) {
        let mut source = Tracker::new(LEN);
        let mut naive = vec![Validity::uninit(); LEN as usize];
        for op in ops {
            apply(&mut source, &mut naive, op);
        }
        let state = source.share();
        // The installing tracker arrives from somewhere else.
        let mut t = Tracker::new(LEN);
        let mut elsewhere = vec![Validity::uninit(); LEN as usize];
        for op in detour {
            apply(&mut t, &mut elsewhere, op);
        }
        let epoch = t.epoch();
        t.install(&state);
        prop_assert!(t.epoch() > epoch, "an install is a mutation");
        prop_assert_eq!(&bytes_of(&t), &naive);
        // From scratch: the same segments written into a fresh tracker,
        // whose signature nothing has memoised yet.
        let mut fresh = Tracker::new(LEN);
        for (s, e, v) in t.segments_in(0, LEN) {
            if v.freshest != Owner::Uninit {
                fresh.update(s, e, v.freshest);
                for d in v.holders.iter() {
                    fresh.add_holder(s, e, d);
                }
            }
        }
        prop_assert_eq!(t.signature(), fresh.signature());
        for op in later {
            apply(&mut t, &mut naive, op);
            prop_assert!(t.check_invariants(), "invariants broken after {op:?}");
        }
        prop_assert_eq!(&bytes_of(&t), &naive);
        prop_assert_eq!(&bytes_of(&source), &bytes_of(&fresh), "the source moved");
    }
}
