//! Plan-cache persistence: versioned JSON snapshots of captured launch
//! plans, so a restarted server warm-starts with zero capture cost.
//!
//! Plans are fully content-addressed and — since replay re-resolves
//! buffer arguments against the live runtime — contain no
//! process-specific state that matters: `DevBuf` handles inside captured
//! `sim_args` are placeholders overwritten at replay, buffer ids are
//! namespace-stripped local indices, and everything else (copy lists,
//! tracker updates, traffic estimates) is a deterministic function of
//! the workload. A snapshot taken after a fleet run therefore replays
//! bit-identically in a fresh process running the same workload: the
//! second process reports **zero plan captures**.
//!
//! The format is a versioned JSON document:
//!
//! ```json
//! { "version": 1, "entries": [ { "key": {…}, "namespace": 1, "plan": {…} } ] }
//! ```
//!
//! Loading is all-or-nothing: the whole document is parsed and converted
//! into runtime types *before* the cache is touched, and a version
//! mismatch (or any malformed entry) rejects cleanly with
//! [`crate::RuntimeError::Snapshot`] — a half-loaded cache can never
//! exist. The vendored serde stub cannot derive tuple structs
//! ([`VBufId`]) or non-`Eq` types ([`Value`]), so the snapshot uses
//! mirror types with named fields; floats round-trip through their bit
//! patterns (same convention as [`ArgKey::scalar`]).

use crate::cache::ShardedPlanCache;
use crate::plan::{ArgKey, LaunchPlan, PlanCopy, PlanKey, PlanLaunch, PlanUpdate};
use crate::vbuf::VBufId;
use crate::{Result, RuntimeError};
use mekong_gpusim::machine::SimArg;
use mekong_gpusim::DevBuf;
use mekong_kernel::{Dim3, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Current snapshot format version. Bump on any incompatible change to
/// the mirror types below; old snapshots are then rejected (and
/// re-captured), never misread.
pub const SNAPSHOT_VERSION: u32 = 2;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SnapshotFile {
    version: u32,
    entries: Vec<EntrySnap>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct EntrySnap {
    key: KeySnap,
    namespace: u32,
    plan: PlanSnap,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct KeySnap {
    kernel: String,
    strategy: u32,
    grid: Dim3,
    block: Dim3,
    bounds: Vec<i64>,
    args: Vec<ArgSnap>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum ArgSnap {
    Scalar { tag: u8, bits: u64 },
    Buf { id: usize, sig: u64 },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PlanSnap {
    copies: Vec<CopySnap>,
    launches: Vec<LaunchSnap>,
    updates: Vec<UpdateSnap>,
    read_bufs: Vec<usize>,
    write_bufs: Vec<usize>,
    replica_hits: u64,
    replica_saved_bytes: u64,
    mayread_fetch_bytes: u64,
    mayread_overfetch_bytes: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CopySnap {
    vb: usize,
    dst_gpu: usize,
    src_dev: usize,
    start: u64,
    end: u64,
    stride: u64,
    count: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LaunchSnap {
    gpu: usize,
    sim_args: Vec<SimArgSnap>,
    grid: Dim3,
    traffic: u64,
}

/// Captured launch arguments. Scalars keep the `(type tag, bit pattern)`
/// convention of [`ArgKey::scalar`]; buffer placeholders keep the
/// captured instance's coordinates (replay overwrites buffer positions
/// anyway, but a faithful round-trip keeps the proptests honest).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum SimArgSnap {
    Scalar {
        tag: u8,
        bits: u64,
    },
    Buf {
        device: usize,
        handle: usize,
        len: usize,
    },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct UpdateSnap {
    vb: usize,
    gpu: usize,
    start: u64,
    end: u64,
}

fn value_to_bits(v: &Value) -> (u8, u64) {
    match v {
        Value::I64(x) => (0, *x as u64),
        Value::F32(x) => (1, x.to_bits() as u64),
        Value::F64(x) => (2, x.to_bits()),
    }
}

fn value_from_bits(tag: u8, bits: u64) -> Result<Value> {
    match tag {
        0 => Ok(Value::I64(bits as i64)),
        1 => Ok(Value::F32(f32::from_bits(bits as u32))),
        2 => Ok(Value::F64(f64::from_bits(bits))),
        t => Err(RuntimeError::Snapshot(format!("unknown scalar tag {t}"))),
    }
}

fn snap_key(k: &PlanKey) -> KeySnap {
    KeySnap {
        kernel: k.kernel.to_string(),
        strategy: k.strategy,
        grid: k.grid,
        block: k.block,
        bounds: k.bounds.to_vec(),
        args: k
            .args
            .iter()
            .map(|a| match a {
                ArgKey::Scalar(tag, bits) => ArgSnap::Scalar {
                    tag: *tag,
                    bits: *bits,
                },
                ArgKey::Buf { id, sig } => ArgSnap::Buf {
                    id: id.0,
                    sig: *sig,
                },
            })
            .collect(),
    }
}

fn unsnap_key(k: &KeySnap) -> PlanKey {
    PlanKey {
        kernel: k.kernel.as_str().into(),
        strategy: k.strategy,
        grid: k.grid,
        block: k.block,
        bounds: k.bounds.as_slice().into(),
        args: k
            .args
            .iter()
            .map(|a| match a {
                ArgSnap::Scalar { tag, bits } => ArgKey::Scalar(*tag, *bits),
                ArgSnap::Buf { id, sig } => ArgKey::Buf {
                    id: VBufId(*id),
                    sig: *sig,
                },
            })
            .collect(),
    }
}

fn snap_plan(p: &LaunchPlan) -> PlanSnap {
    PlanSnap {
        copies: p
            .copies
            .iter()
            .map(|c| CopySnap {
                vb: c.vb.0,
                dst_gpu: c.dst_gpu,
                src_dev: c.src_dev,
                start: c.start,
                end: c.end,
                stride: c.stride,
                count: c.count,
            })
            .collect(),
        launches: p
            .launches
            .iter()
            .map(|l| LaunchSnap {
                gpu: l.gpu,
                sim_args: l
                    .sim_args
                    .iter()
                    .map(|a| match a {
                        SimArg::Scalar(v) => {
                            let (tag, bits) = value_to_bits(v);
                            SimArgSnap::Scalar { tag, bits }
                        }
                        SimArg::Buf(b) => SimArgSnap::Buf {
                            device: b.device,
                            handle: b.handle,
                            len: b.len,
                        },
                    })
                    .collect(),
                grid: l.grid,
                traffic: l.traffic,
            })
            .collect(),
        updates: p
            .updates
            .iter()
            .map(|u| UpdateSnap {
                vb: u.vb.0,
                gpu: u.gpu,
                start: u.start,
                end: u.end,
            })
            .collect(),
        read_bufs: p.read_bufs.iter().map(|b| b.0).collect(),
        write_bufs: p.write_bufs.iter().map(|b| b.0).collect(),
        replica_hits: p.replica_hits,
        replica_saved_bytes: p.replica_saved_bytes,
        mayread_fetch_bytes: p.mayread_fetch_bytes,
        mayread_overfetch_bytes: p.mayread_overfetch_bytes,
    }
}

fn unsnap_plan(p: &PlanSnap) -> Result<LaunchPlan> {
    let mut launches = Vec::with_capacity(p.launches.len());
    for l in &p.launches {
        let mut sim_args = Vec::with_capacity(l.sim_args.len());
        for a in &l.sim_args {
            sim_args.push(match a {
                SimArgSnap::Scalar { tag, bits } => SimArg::Scalar(value_from_bits(*tag, *bits)?),
                SimArgSnap::Buf {
                    device,
                    handle,
                    len,
                } => SimArg::Buf(DevBuf {
                    device: *device,
                    handle: *handle,
                    len: *len,
                }),
            });
        }
        launches.push(PlanLaunch {
            gpu: l.gpu,
            sim_args,
            grid: l.grid,
            traffic: l.traffic,
        });
    }
    // Copy shapes reach offset arithmetic at replay: admit only what
    // capture can produce — at least one run, `start <= end`, and runs
    // of one transaction that do not overlap.
    let mut copies = Vec::with_capacity(p.copies.len());
    for c in &p.copies {
        let run = c.end.checked_sub(c.start);
        if c.count == 0 || run.is_none() || (c.count > 1 && Some(c.stride) < run) {
            return Err(RuntimeError::Snapshot(format!(
                "malformed copy: [{}, {}) × {} at stride {}",
                c.start, c.end, c.count, c.stride
            )));
        }
        copies.push(PlanCopy {
            vb: VBufId(c.vb),
            dst_gpu: c.dst_gpu,
            src_dev: c.src_dev,
            start: c.start,
            end: c.end,
            stride: c.stride,
            count: c.count,
        });
    }
    Ok(LaunchPlan {
        copies,
        launches,
        updates: p
            .updates
            .iter()
            .map(|u| PlanUpdate {
                vb: VBufId(u.vb),
                gpu: u.gpu,
                start: u.start,
                end: u.end,
            })
            .collect(),
        read_bufs: p.read_bufs.iter().map(|&b| VBufId(b)).collect(),
        write_bufs: p.write_bufs.iter().map(|&b| VBufId(b)).collect(),
        replica_hits: p.replica_hits,
        replica_saved_bytes: p.replica_saved_bytes,
        mayread_fetch_bytes: p.mayread_fetch_bytes,
        mayread_overfetch_bytes: p.mayread_overfetch_bytes,
        // Derived on first replay, never persisted.
        post: Default::default(),
    })
}

/// Serialize one `(key, plan)` pair and parse it back — the round-trip
/// primitive the persistence proptests drive directly.
pub fn round_trip_entry(key: &PlanKey, plan: &LaunchPlan) -> Result<(PlanKey, LaunchPlan)> {
    let snap = EntrySnap {
        key: snap_key(key),
        namespace: 0,
        plan: snap_plan(plan),
    };
    let json = serde_json::to_string_pretty(&snap)
        .map_err(|e| RuntimeError::Snapshot(format!("render: {e}")))?;
    let parsed: EntrySnap = serde_json::from_str(&json)
        .map_err(|e| RuntimeError::Snapshot(format!("round trip: {e}")))?;
    Ok((unsnap_key(&parsed.key), unsnap_plan(&parsed.plan)?))
}

/// Render the cache into a versioned JSON snapshot. Entries are sorted
/// by their rendered form so the document is deterministic regardless
/// of hash-map iteration order — two snapshots of the same cache state
/// are byte-identical.
///
/// The snapshot **compacts**: entries that were themselves loaded from
/// a snapshot and never hit since are dropped
/// ([`ShardedPlanCache::export_live`]), so stale plans age out across
/// snapshot/restore generations instead of accreting forever. Entries
/// captured live are always persisted.
pub fn snapshot_to_json(cache: &ShardedPlanCache) -> String {
    let mut entries: Vec<EntrySnap> = cache
        .export_live()
        .into_iter()
        .map(|(key, plan, namespace)| EntrySnap {
            key: snap_key(&key),
            namespace,
            plan: snap_plan(&plan),
        })
        .collect();
    let mut rendered: Vec<(String, EntrySnap)> = entries
        .drain(..)
        .map(|e| {
            let json = serde_json::to_string_pretty(&e).expect("snapshot entry serializes");
            (json, e)
        })
        .collect();
    rendered.sort_by(|a, b| a.0.cmp(&b.0));
    let file = SnapshotFile {
        version: SNAPSHOT_VERSION,
        entries: rendered.into_iter().map(|(_, e)| e).collect(),
    };
    serde_json::to_string_pretty(&file).expect("snapshot serializes")
}

/// Parse a snapshot and install its plans into `cache` as
/// most-recently-used. All-or-nothing: a version mismatch or malformed
/// entry returns [`RuntimeError::Snapshot`] without touching the cache.
/// Returns the number of plans loaded.
pub fn load_snapshot_json(cache: &ShardedPlanCache, json: &str) -> Result<usize> {
    let file: SnapshotFile = serde_json::from_str(json)
        .map_err(|e| RuntimeError::Snapshot(format!("malformed snapshot: {e}")))?;
    if file.version != SNAPSHOT_VERSION {
        return Err(RuntimeError::Snapshot(format!(
            "snapshot version {} does not match supported version {}",
            file.version, SNAPSHOT_VERSION
        )));
    }
    // Convert *everything* before touching the cache.
    let mut staged = Vec::with_capacity(file.entries.len());
    for e in &file.entries {
        staged.push((
            unsnap_key(&e.key),
            Arc::new(unsnap_plan(&e.plan)?),
            e.namespace,
        ));
    }
    let n = staged.len();
    cache.import(staged);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_snapshot_round_trips() {
        let c = ShardedPlanCache::new(0);
        let json = snapshot_to_json(&c);
        let c2 = ShardedPlanCache::new(0);
        assert_eq!(load_snapshot_json(&c2, &json).unwrap(), 0);
        assert!(c2.is_empty());
    }

    #[test]
    fn version_mismatch_rejected_without_loading() {
        let c = ShardedPlanCache::new(0);
        let json = snapshot_to_json(&c).replace(
            &format!("\"version\": {SNAPSHOT_VERSION}"),
            "\"version\": 999",
        );
        let c2 = ShardedPlanCache::new(0);
        c2.insert(
            PlanKey {
                kernel: "keep".into(),
                strategy: 0,
                grid: Dim3::new1(1),
                block: Dim3::new1(1),
                bounds: [].into(),
                args: vec![],
            },
            Arc::new(LaunchPlan::default()),
            0,
        );
        let err = load_snapshot_json(&c2, &json).unwrap_err();
        assert!(matches!(err, RuntimeError::Snapshot(_)), "{err:?}");
        assert_eq!(c2.len(), 1, "cache untouched on rejection");
    }

    #[test]
    fn snapshot_compacts_unhit_loaded_entries_and_round_trips() {
        let mk = |name: &str| PlanKey {
            kernel: name.into(),
            strategy: 0,
            grid: Dim3::new1(1),
            block: Dim3::new1(1),
            bounds: [].into(),
            args: vec![],
        };
        // Generation 1: two plans captured live; both persist.
        let g1 = ShardedPlanCache::new(0);
        g1.insert(mk("used"), Arc::new(LaunchPlan::default()), 1);
        g1.insert(mk("stale"), Arc::new(LaunchPlan::default()), 1);
        let snap1 = snapshot_to_json(&g1);

        // Generation 2: warm-start, but only "used" replays.
        let g2 = ShardedPlanCache::new(0);
        assert_eq!(load_snapshot_json(&g2, &snap1).unwrap(), 2);
        assert!(g2.get(&mk("used")).is_some());
        let snap2 = snapshot_to_json(&g2);

        // Generation 3 carries the hit entry and sheds the stale one —
        // and the compacted snapshot loads cleanly.
        let g3 = ShardedPlanCache::new(0);
        assert_eq!(load_snapshot_json(&g3, &snap2).unwrap(), 1);
        assert!(g3.get(&mk("used")).is_some());
        assert!(g3.get(&mk("stale")).is_none());

        // An all-hit warm start round-trips byte-identically: nothing
        // to compact means the snapshot is reproduced exactly.
        let g4 = ShardedPlanCache::new(0);
        load_snapshot_json(&g4, &snap2).unwrap();
        assert!(g4.get(&mk("used")).is_some());
        assert_eq!(snapshot_to_json(&g4), snap2);
    }

    #[test]
    fn garbage_rejected() {
        let c = ShardedPlanCache::new(0);
        assert!(load_snapshot_json(&c, "not json").is_err());
        assert!(load_snapshot_json(&c, "{\"version\": 1}").is_err());
        // Well-formed JSON whose copy shapes no capture can produce:
        // reversed bounds, no runs, overlapping runs.
        let key = PlanKey {
            kernel: "k".into(),
            strategy: 0,
            grid: Dim3::new1(1),
            block: Dim3::new1(1),
            bounds: [].into(),
            args: vec![],
        };
        let copy = |start, end, stride, count| PlanCopy {
            vb: VBufId(0),
            dst_gpu: 1,
            src_dev: 0,
            start,
            end,
            stride,
            count,
        };
        let load = |copy: PlanCopy| {
            let src = ShardedPlanCache::new(0);
            let plan = LaunchPlan {
                copies: vec![copy],
                ..LaunchPlan::default()
            };
            src.insert(key.clone(), Arc::new(plan), 0);
            load_snapshot_json(&c, &snapshot_to_json(&src))
        };
        for bad in [copy(8, 4, 4, 1), copy(0, 4, 4, 0), copy(0, 8, 4, 2)] {
            let err = load(bad).unwrap_err();
            assert!(matches!(err, RuntimeError::Snapshot(_)), "{bad:?}: {err:?}");
        }
        assert!(c.is_empty(), "rejections leave the cache untouched");
        // The boundary shapes stay loadable: a single run ignores its
        // stride, and back-to-back runs (stride == run) are legal.
        assert_eq!(load(copy(0, 8, 0, 1)).unwrap(), 1);
        assert_eq!(load(copy(0, 8, 8, 2)).unwrap(), 1);
    }
}
