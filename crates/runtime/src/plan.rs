//! Launch-plan capture & replay: CUDA-Graphs-style caching of the §5
//! launch sequence.
//!
//! The paper's workloads are iterative — Hotspot issues 1500 launches
//! with identical geometry (§9) — and the Figure 4 rewrite expands every
//! launch into synchronize-reads → launch-partitions → update-trackers.
//! After warm-up, ping-pong trackers reach a periodic fixed point: the
//! tracker state at launch *k* is structurally identical to the state at
//! launch *k − 2*, so the entire command sequence the rewrite derives
//! from it is identical too. The runtime therefore captures that
//! sequence once and replays it on subsequent launches.
//!
//! The cache is **content-addressed**: the key embeds a structural
//! signature of every argument buffer's tracker ([`crate::Tracker::signature`]).
//! There is no explicit invalidation — any tracker mutation (a kernel
//! write update, a `memcpy_h2d` re-distribution) changes the signature
//! and the next launch simply misses and re-captures.

use crate::tracker::TrackerState;
use crate::vbuf::VBufId;
use mekong_gpusim::SimArg;
use mekong_kernel::{Dim3, Value};
use std::sync::{Arc, OnceLock};

/// One launch argument reduced to its cache-key form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArgKey {
    /// Scalar value as a `(type tag, bit pattern)` pair. Floats key by
    /// their bit pattern (`Value` itself is not `Eq`); the tag keeps
    /// `I64(1)` and `F32` with the same bits from colliding.
    Scalar(u8, u64),
    /// Buffer identity plus the structural signature of its tracker at
    /// launch time. `VBufId`s are never reused, so `id` pins the exact
    /// allocation and `sig` pins its coherence state.
    Buf { id: VBufId, sig: u64 },
}

impl ArgKey {
    /// Key form of a scalar launch argument.
    pub fn scalar(v: Value) -> ArgKey {
        match v {
            Value::I64(x) => ArgKey::Scalar(0, x as u64),
            Value::F32(x) => ArgKey::Scalar(1, x.to_bits() as u64),
            Value::F64(x) => ArgKey::Scalar(2, x.to_bits()),
        }
    }
}

/// Cache key of one captured launch: everything the §5 rewrite's command
/// sequence is a deterministic function of.
///
/// Kernels are keyed by *name* (same convention as the simulator's
/// roofline memo): two distinct kernels sharing a name would alias. The
/// split axis is included so a recompiled kernel whose partitioning
/// strategy changed cannot replay a stale plan, and the concrete
/// partition bounds pin the autotuner's decision: when online refinement
/// switches strategies, the next launch misses and re-captures instead
/// of replaying a plan built for the old grid slicing.
///
/// `kernel` and `bounds` are shared with the launch site that resolved
/// them (see [`crate::launch`]): the runtime refills one key per launch
/// — two pointer copies and the `args` — and only a miss's insert
/// clones it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    pub kernel: Arc<str>,
    /// The launch's partitioning strategy
    /// ([`mekong_tuner::PartitionStrategy::encode`]): axes, device
    /// factors, and the weighted/tiled bits. Distinguishes a 2-D
    /// rectangular tiling from any 1-D slab split even when their
    /// flattened bounds coincide.
    pub strategy: u32,
    pub grid: Dim3,
    pub block: Dim3,
    /// Flattened `lo`/`hi` bounds of every partition the launch runs.
    pub bounds: Arc<[i64]>,
    pub args: Vec<ArgKey>,
}

/// One captured D2D transaction: pull `count` runs of `end - start`
/// bytes of `vb`'s instance on `src_dev` into the instance on
/// `dst_gpu`, the first at `start` and each subsequent one `stride`
/// bytes later (same offsets both sides). `count == 1` is a plain
/// contiguous copy; `count > 1` is a `cudaMemcpy2D`-style strided DMA —
/// the column-halo shape of a rectangular tiling — replayed as **one**
/// link transaction ([`mekong_gpusim::Backend::copy_d2d`] with
/// [`mekong_gpusim::CopyRuns`] of `count` runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCopy {
    pub vb: VBufId,
    pub dst_gpu: usize,
    pub src_dev: usize,
    pub start: u64,
    pub end: u64,
    /// Distance between run starts; `end - start` for a single run.
    pub stride: u64,
    /// Number of runs (≥ 1).
    pub count: u64,
}

/// One captured partition launch. The kernel body is *not* stored — the
/// caller passes the same [`crate::CompiledKernel`] at replay — only the
/// fully resolved argument vector (device-local buffer instances plus
/// the six partition-bound scalars) and the roofline traffic estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanLaunch {
    pub gpu: usize,
    pub sim_args: Vec<SimArg>,
    /// The partition's launch grid (not the global grid).
    pub grid: Dim3,
    pub traffic: u64,
}

/// One captured tracker write-update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanUpdate {
    pub vb: VBufId,
    pub gpu: usize,
    pub start: u64,
    pub end: u64,
}

/// Hashes what varies between the keys that meet in one cache shard —
/// the strategy encoding, the geometry and the per-launch `args`. The
/// kernel name already picked the shard, and `bounds` follow from
/// strategy and grid (a hundred words at sixteen devices); both are
/// still compared by `Eq`, so leaving them out costs a longer probe at
/// worst, never a false hit.
impl std::hash::Hash for PlanKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.strategy.hash(state);
        self.grid.hash(state);
        self.block.hash(state);
        self.args.hash(state);
    }
}

/// Where a plan's tracker ops lead from the state its key pins, for one
/// buffer they touch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PostBuffer {
    /// Namespace-local buffer id, as in the plan's ops.
    pub vb: VBufId,
    /// The buffer's tracker after the plan's holder additions and
    /// write-updates.
    pub tracker: TrackerState,
    /// Peer-copy bytes the plan's copies deliver into the buffer.
    pub d2d_in_bytes: u64,
    /// Does a write-update of the plan target the buffer?
    pub written: bool,
}

/// The tracker effect of one plan as a transition between two pinned
/// states. The key pins every argument buffer's pre-state signature, and
/// the holder additions of `copies` and the writes of `updates` are
/// deterministic functions of it, so the first replay records where they
/// lead and every later replay installs that — a pointer swap per
/// buffer, independent of segment count (see
/// `MgpuRuntime::replay_plan`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PostState {
    /// [`crate::RuntimeConfig::replica_coherence`] of the recording
    /// replay: holder additions only happen under it, so a runtime
    /// configured the other way applies the ops instead.
    pub replica_coherence: bool,
    pub buffers: Vec<PostBuffer>,
    /// Replica copies the plan's write-updates evict.
    pub replica_invalidations: u64,
}

/// A plan's lazily recorded post-state: where its tracker ops lead from
/// the state its key pins. Filled on first *replay*, not at capture: a
/// plan that is never replayed (a drifting scalar mints one per launch)
/// never pays for a post-state. Derived data — it compares equal to any
/// other memo and is not persisted.
#[derive(Debug, Clone, Default)]
pub struct PostStateMemo(pub(crate) OnceLock<PostState>);

impl PartialEq for PostStateMemo {
    fn eq(&self, _: &PostStateMemo) -> bool {
        true
    }
}

/// The complete captured command sequence of one partitioned launch,
/// in issue order: copies (synchronize-reads), launches, tracker
/// updates. Replay applies them directly and charges a single flat
/// `host_per_replay` cost instead of the per-range/per-segment pattern
/// costs the capture paid.
///
/// The validity-set state the plan was captured against is pinned by the
/// key's tracker signatures (holder sets are hashed), so a replayed plan
/// never serves a copy the replica state makes redundant, nor skips one
/// it makes necessary. Replay re-derives holder additions from `copies`
/// and re-notes the replica observability stats below.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaunchPlan {
    pub copies: Vec<PlanCopy>,
    pub launches: Vec<PlanLaunch>,
    pub updates: Vec<PlanUpdate>,
    /// Virtual buffers the kernel reads — the launch-ahead pipeline's
    /// event edges gate each partition launch on the halo copies into
    /// these buffers (see [`crate::pipeline`]).
    pub read_bufs: Vec<VBufId>,
    /// Virtual buffers the kernel writes; a pipelined launch waits for
    /// in-flight readers of these (write-after-read edges).
    pub write_bufs: Vec<VBufId>,
    /// Read-sync segment runs a local replica served at capture time
    /// (re-noted into `OpCounters::replica_hits` on every replay, since
    /// replays skip the planning walk that detects them).
    pub replica_hits: u64,
    /// Peer-transfer bytes those replica hits avoided re-fetching.
    pub replica_saved_bytes: u64,
    /// Bytes the capture enumerated from bounded may-read boxes
    /// (interval-footprint reads), re-noted on every replay.
    pub mayread_fetch_bytes: u64,
    /// The portion of those bytes beyond the whole-grid (single-device)
    /// box of the same launch.
    pub mayread_overfetch_bytes: u64,
    /// Where `copies` and `updates` take the trackers, once a replay has
    /// recorded it.
    pub post: PostStateMemo,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_keys_distinguish_types_and_values() {
        assert_ne!(
            ArgKey::scalar(Value::I64(1)),
            ArgKey::scalar(Value::F64(1.0))
        );
        assert_ne!(
            ArgKey::scalar(Value::F32(1.0)),
            ArgKey::scalar(Value::F64(1.0))
        );
        assert_ne!(ArgKey::scalar(Value::I64(1)), ArgKey::scalar(Value::I64(2)));
        assert_eq!(
            ArgKey::scalar(Value::F32(0.125)),
            ArgKey::scalar(Value::F32(0.125))
        );
        // Negative zero and zero differ bitwise — a conservative miss,
        // never a false hit.
        assert_ne!(
            ArgKey::scalar(Value::F32(0.0)),
            ArgKey::scalar(Value::F32(-0.0))
        );
    }
}
