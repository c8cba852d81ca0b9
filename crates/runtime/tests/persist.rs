//! Property tests for the plan-cache snapshot format: arbitrary
//! `(PlanKey, LaunchPlan)` pairs — strided copies, float scalar bit
//! patterns, tracker-signature fields — survive a JSON round trip
//! losslessly, and a version-mismatched snapshot is rejected cleanly
//! without half-loading the cache.

use std::sync::Arc;

use mekong_gpusim::{DevBuf, SimArg};
use mekong_kernel::{Dim3, Value};
use mekong_runtime::persist::round_trip_entry;
use mekong_runtime::{
    load_snapshot_json, snapshot_to_json, ArgKey, LaunchPlan, PlanCache, PlanCopy, PlanKey,
    PlanLaunch, PlanUpdate, VBufId, SNAPSHOT_VERSION,
};
use proptest::prelude::*;

fn dim3_strategy() -> impl Strategy<Value = Dim3> {
    (1u32..64, 1u32..64, 1u32..4).prop_map(|(x, y, z)| Dim3 { x, y, z })
}

fn value_strategy() -> impl Strategy<Value = Value> {
    // Finite floats only (built from integer grids): NaN bit patterns
    // round-trip, but NaN != NaN would fail the equality assertion for
    // the wrong reason.
    prop_oneof![
        (i64::MIN..i64::MAX).prop_map(Value::I64),
        (-(1i64 << 40)..(1i64 << 40)).prop_map(|x| Value::F32(x as f32 * 1.25e-3)),
        (i64::MIN..i64::MAX).prop_map(|x| Value::F64(x as f64 * 1.25e-7)),
    ]
}

fn arg_key_strategy() -> impl Strategy<Value = ArgKey> {
    prop_oneof![
        (0u8..3, 0u64..u64::MAX).prop_map(|(tag, bits)| ArgKey::Scalar(tag, bits)),
        (0usize..64, 0u64..u64::MAX).prop_map(|(i, sig)| ArgKey::Buf {
            id: VBufId::with_namespace(0, i),
            sig,
        }),
    ]
}

fn plan_key_strategy() -> impl Strategy<Value = PlanKey> {
    (
        (0u8..26, 0u32..10_000).prop_map(|(a, n)| format!("k{}_{n}", (b'a' + a) as char)),
        0u32..u32::MAX,
        dim3_strategy(),
        dim3_strategy(),
        proptest::collection::vec(i64::MIN..i64::MAX, 0..12),
        proptest::collection::vec(arg_key_strategy(), 0..8),
    )
        .prop_map(|(kernel, strategy, grid, block, bounds, args)| PlanKey {
            kernel: kernel.into(),
            strategy,
            grid,
            block,
            bounds: bounds.into(),
            args,
        })
}

fn copy_strategy() -> impl Strategy<Value = PlanCopy> {
    (
        0usize..64,
        0usize..8,
        0usize..8,
        0u32..u32::MAX,
        0u32..u32::MAX,
        // Contiguous (one run, stride unused) and strided row-block
        // copies, whose runs sit `gap` bytes apart — a stride below the
        // run length is rejected at load.
        prop_oneof![
            Just((None, 1u64)),
            (0u64..1 << 20, 2u64..64).prop_map(|(g, n)| (Some(g), n))
        ],
    )
        .prop_map(|(vb, dst_gpu, src_dev, start, len, (gap, count))| {
            let run = len as u64 + 1;
            PlanCopy {
                vb: VBufId::with_namespace(0, vb),
                dst_gpu,
                src_dev,
                start: start as u64,
                end: start as u64 + run,
                stride: gap.map_or(0, |g| run + g),
                count,
            }
        })
}

fn sim_arg_strategy() -> impl Strategy<Value = SimArg> {
    prop_oneof![
        value_strategy().prop_map(SimArg::Scalar),
        (0usize..8, 0usize..64, 1usize..1 << 24).prop_map(|(device, handle, len)| {
            SimArg::Buf(DevBuf {
                device,
                handle,
                len,
            })
        }),
    ]
}

fn launch_strategy() -> impl Strategy<Value = PlanLaunch> {
    (
        0usize..8,
        proptest::collection::vec(sim_arg_strategy(), 0..8),
        dim3_strategy(),
        0u64..u64::MAX,
    )
        .prop_map(|(gpu, sim_args, grid, traffic)| PlanLaunch {
            gpu,
            sim_args,
            grid,
            traffic,
        })
}

fn update_strategy() -> impl Strategy<Value = PlanUpdate> {
    (0usize..64, 0usize..8, 0u32..u32::MAX, 0u32..u32::MAX).prop_map(|(vb, gpu, start, len)| {
        PlanUpdate {
            vb: VBufId::with_namespace(0, vb),
            gpu,
            start: start as u64,
            end: start as u64 + len as u64 + 1,
        }
    })
}

fn plan_strategy() -> impl Strategy<Value = LaunchPlan> {
    (
        proptest::collection::vec(copy_strategy(), 0..8),
        proptest::collection::vec(launch_strategy(), 0..6),
        proptest::collection::vec(update_strategy(), 0..8),
        proptest::collection::vec(0usize..64, 0..6),
        proptest::collection::vec(0usize..64, 0..6),
        (0u64..u64::MAX, 0u64..u64::MAX),
        (0u64..u64::MAX, 0u64..u64::MAX),
    )
        .prop_map(
            |(
                copies,
                launches,
                updates,
                reads,
                writes,
                (replica_hits, replica_saved_bytes),
                (mayread_fetch_bytes, mayread_overfetch_bytes),
            )| {
                LaunchPlan {
                    copies,
                    launches,
                    updates,
                    read_bufs: reads
                        .into_iter()
                        .map(|i| VBufId::with_namespace(0, i))
                        .collect(),
                    write_bufs: writes
                        .into_iter()
                        .map(|i| VBufId::with_namespace(0, i))
                        .collect(),
                    replica_hits,
                    replica_saved_bytes,
                    mayread_fetch_bytes,
                    mayread_overfetch_bytes,
                    post: Default::default(),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn entries_round_trip_losslessly(
        key in plan_key_strategy(),
        plan in plan_strategy(),
    ) {
        let (key2, plan2) = round_trip_entry(&key, &plan).expect("round trip");
        prop_assert_eq!(key, key2);
        prop_assert_eq!(plan, plan2);
    }

    #[test]
    fn cache_snapshots_round_trip_and_stay_deterministic(
        entries in proptest::collection::vec(
            (plan_key_strategy(), plan_strategy(), 0u32..4), 0..6),
    ) {
        let mut cache = PlanCache::new(0);
        for (key, plan, ns) in &entries {
            cache.insert(key.clone(), Arc::new(plan.clone()), *ns);
        }
        let json = snapshot_to_json(&cache);

        let mut restored = PlanCache::new(0);
        let loaded = load_snapshot_json(&mut restored, &json).expect("load");
        prop_assert_eq!(loaded, cache.len());
        // Loaded entries must prove their worth: before any hit, a
        // compacting snapshot of the restored cache drops all of them.
        prop_assert_eq!(restored.export_live().len(), 0);
        // Replay every entry once; re-rendering then reproduces the
        // snapshot byte for byte, regardless of insertion order.
        for (key, _, _) in &entries {
            prop_assert!(restored.get(key).is_some());
        }
        prop_assert_eq!(restored.export_live().len(), restored.len());
        prop_assert_eq!(snapshot_to_json(&restored), json);
    }

    #[test]
    fn version_bump_rejects_without_half_loading(
        key in plan_key_strategy(),
        plan in plan_strategy(),
    ) {
        let mut cache = PlanCache::new(0);
        cache.insert(key, Arc::new(plan), 0);
        let good = snapshot_to_json(&cache);
        let bumped = good.replacen(
            &format!("\"version\": {SNAPSHOT_VERSION}"),
            &format!("\"version\": {}", SNAPSHOT_VERSION + 1),
            1,
        );
        prop_assert!(bumped != good, "snapshot must carry its version");

        let mut target = PlanCache::new(0);
        prop_assert!(load_snapshot_json(&mut target, &bumped).is_err());
        prop_assert_eq!(target.len(), 0, "rejected snapshot must not half-load");
        // The genuine snapshot still loads afterwards.
        prop_assert_eq!(load_snapshot_json(&mut target, &good).expect("load"), 1);
    }
}
