//! The partitioned kernel-launch sequence (paper §5, Figure 4):
//!
//! 1. partition the execution grid for the available GPUs,
//! 2. synchronize all buffers that are read from,
//! 3. launch each partition of the kernel on its device,
//! 4. update the buffer trackers for all writes.
//!
//! Every launch is a [`LaunchPlan`] of that sequence run by one executor,
//! `MgpuRuntime::run_plan`; the entry points only build the plan. A
//! plan-cache hit replays a captured plan, a miss or an uncaptured launch
//! walks the trackers into a fresh one, and the single-device fallback
//! and the instrumented launch plan whole-buffer syncs.

use crate::compiled::CompiledKernel;
use crate::plan::{ArgKey, LaunchPlan, PlanCopy, PlanLaunch, PlanUpdate, PostBuffer, PostState};
use crate::tracker::{Owner, Tracker, Validity};
use crate::vbuf::{MgpuRuntime, VBufId, VirtualBuffer};
use crate::{Result, RuntimeError};
use mekong_analysis::{ArgModel, SplitAxis};
use mekong_check::AxisMask;
use mekong_enumgen::AccessEnumerator;
use mekong_gpusim::{sample_kernel_profile, CopyRuns, ObservedWriteSets, SimArg, SimTime, TimeCat};
use mekong_kernel::{Dim3, Extent, Kernel, KernelArg, Value};
use mekong_partition::{partition_grid, Partition};
use mekong_tuner::{
    rank_candidates, strided_groups, Candidate, OwnedSegment, Ownership, PartitionStrategy,
    ReadModel, TunerInput, WriteModel,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// An argument of a rewritten kernel launch.
#[derive(Debug, Clone, Copy)]
pub enum LaunchArg {
    Scalar(Value),
    Buf(VBufId),
}

/// A tracker-walk accumulator that turns remote-fresh segments into a
/// minimal list of D2D copies (§8.3's transfer-coalescing pass, extended
/// with replica awareness).
///
/// With a non-zero `max_gap`, a segment from the same source device
/// extends the previous planned copy when every byte in between is
/// [`Owner::Uninit`] — undefined content may be overwritten freely — and
/// the gap is small enough that re-copying it is cheaper than paying a
/// second transfer latency. Fragmented trackers (e.g. from instrumented
/// strided writes) collapse from one copy per element run into one copy
/// per device this way.
///
/// With `replica` set, the destination's own validity is consulted:
/// segments the destination already holds are *skipped* (the replica
/// serves the read — counted as a hit when the freshest copy is remote),
/// and the source of each needed copy is picked among all valid holders,
/// preferring the previous copy's source (coalescing) and then the
/// nearest link ([`mekong_gpusim::MachineSpec::link_hops`]). Without it,
/// only the freshest owner is eligible, as in the paper.
struct TransferPlan {
    gpu: usize,
    max_gap: u64,
    replica: bool,
    copies: Vec<(usize, u64, u64)>,
    /// End of the last visited segment; a jump means the walk moved to a
    /// disjoint query range, which must not be bridged.
    cursor: u64,
    /// True while every byte since the last planned copy's end is known
    /// to be Uninit and contiguous with it.
    bridge: bool,
    /// Remote-fresh segment runs a local replica served (no copy needed).
    replica_hits: u64,
    /// Bytes those skips saved versus single-owner tracking.
    saved_bytes: u64,
}

impl TransferPlan {
    fn new(gpu: usize, max_gap: u64, replica: bool) -> TransferPlan {
        TransferPlan {
            gpu,
            max_gap,
            replica,
            copies: Vec::new(),
            cursor: 0,
            bridge: false,
            replica_hits: 0,
            saved_bytes: 0,
        }
    }

    /// A plan onto `gpu` under `rt`'s configuration. Coalescing bridges
    /// gaps up to the break-even size: bytes whose copy time equals one
    /// link latency.
    fn onto(rt: &MgpuRuntime, gpu: usize) -> TransferPlan {
        let link = &rt.machine.spec().link;
        let max_gap = if rt.config.coalesce_transfers {
            (link.latency * link.bandwidth) as u64
        } else {
            0
        };
        TransferPlan::new(gpu, max_gap, rt.config.replica_coherence)
    }

    fn visit(&mut self, s: u64, e: u64, v: Validity) {
        if s != self.cursor {
            self.bridge = false;
        }
        self.cursor = e;
        let d = match v.freshest {
            Owner::Device(d) => d,
            // Undefined bytes: a bridged copy may overwrite them.
            Owner::Uninit => return,
            // Host-fresh bytes a device replica serves need no copy; with
            // no local replica they must survive untouched either way.
            Owner::Host => {
                self.bridge = false;
                return;
            }
        };
        if self.replica && v.holders.contains(self.gpu) {
            // The destination already holds these bytes. Single-owner
            // tracking would have re-fetched them whenever the freshest
            // copy is remote — count that saved transfer.
            if d != self.gpu {
                self.replica_hits += 1;
                self.saved_bytes += e - s;
            }
            self.bridge = false;
            return;
        }
        if d == self.gpu {
            // Local bytes must survive: stop bridging.
            self.bridge = false;
            return;
        }
        // A copy is needed. Among the valid holders (the freshest owner
        // is always one), prefer extending the previous planned copy,
        // then the nearest link, then the lowest index — a deterministic
        // function of tracker state, so captured plans stay replayable.
        let src = if self.replica {
            match self.copies.last() {
                Some(&(ld, _, le))
                    if self.bridge && s - le <= self.max_gap && v.holders.contains(ld) =>
                {
                    ld
                }
                _ => v
                    .holders
                    .iter()
                    .filter(|&h| h != self.gpu)
                    .min_by_key(|&h| (mekong_gpusim::MachineSpec::link_hops(h, self.gpu), h))
                    .unwrap_or(d),
            }
        } else {
            d
        };
        match self.copies.last_mut() {
            Some((ld, _, le)) if *ld == src && self.bridge && s - *le <= self.max_gap => {
                *le = e;
            }
            _ => self.copies.push((src, s, e)),
        }
        self.bridge = true;
    }
}

/// Total length in bytes of a set of possibly-overlapping ranges.
fn merged_len(ranges: &[(u64, u64)]) -> u64 {
    let mut sorted = ranges.to_vec();
    sorted.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Find a pair of *different* devices whose observed write ranges
/// overlap, if any (`claims` holds `(device, start, end)` triples and is
/// sorted by start as a side effect). Returns the two devices.
///
/// A single running max-end is not enough once a device may contribute
/// nested ranges: after sorting, `(A,0,100), (A,10,20), (B,50,60)` has
/// no *adjacent* conflicting pair. Instead keep the furthest-reaching
/// end seen so far plus the furthest end among claims of any *other*
/// device: for a claim of device `g`, an overlap with an earlier claim
/// of another device exists iff `start < max{end of earlier claims not
/// from g}` — which is the leader's end when the leader is another
/// device, else the runner-up's.
fn cross_device_overlap(claims: &mut [(usize, u64, u64)]) -> Option<(usize, usize)> {
    claims.sort_by_key(|&(_, s, _)| s);
    // Furthest-reaching earlier claim (end, device)…
    let mut max_end = 0u64;
    let mut max_dev = usize::MAX;
    // …and the furthest among earlier claims of devices != max_dev.
    let mut other_end = 0u64;
    let mut other_dev = usize::MAX;
    for &(g, s, e) in claims.iter() {
        if s >= e {
            continue; // empty claims cover nothing
        }
        if max_dev != usize::MAX {
            if g == max_dev {
                if s < other_end {
                    return Some((other_dev, g));
                }
            } else if s < max_end {
                return Some((max_dev, g));
            }
        }
        if max_dev == usize::MAX || g == max_dev {
            max_dev = g;
            max_end = max_end.max(e);
        } else if e > max_end {
            other_end = max_end;
            other_dev = max_dev;
            max_end = e;
            max_dev = g;
        } else if e > other_end {
            other_end = e;
            other_dev = g;
        }
    }
    None
}

/// Materialize one captured partition launch's argument vector for a
/// runtime, into `out`: captured scalars (including the trailing six
/// partition-bound scalars) pass through verbatim, while buffer
/// positions are re-resolved from the live `args` to the runtime's own
/// device instances. Within one runtime the result is identical to the
/// captured vector; across tenants — or across processes, after a
/// snapshot reload — it is the step that makes plans portable.
fn resolve_sim_args(
    buffers: &[VirtualBuffer],
    l: &PlanLaunch,
    args: &[LaunchArg],
    out: &mut Vec<SimArg>,
) {
    out.clear();
    out.extend_from_slice(&l.sim_args);
    for (i, a) in args.iter().enumerate() {
        if let LaunchArg::Buf(b) = a {
            out[i] = SimArg::Buf(buffers[b.index()].instances[l.gpu]);
        }
    }
}

/// What a peer copy leaves on its destination buffer: the bytes the
/// buffer received are metered and, under replica coherence, the
/// destination becomes a valid holder of each copied run (Uninit bridge
/// gaps are skipped inside).
fn land_copy(buffers: &mut [VirtualBuffer], c: &PlanCopy, replica_coherence: bool) {
    let len = c.end - c.start;
    let vb = &mut buffers[c.vb.index()];
    vb.d2d_in_bytes += len * c.count;
    if replica_coherence {
        for r in 0..c.count {
            let s = c.start + r * c.stride;
            vb.tracker.add_holder(s, s + len, c.dst_gpu);
        }
    }
}

/// Apply tracker write-updates: each range becomes fresh on its device
/// and replicas elsewhere are invalidated. Returns the tracker segments
/// the updates touched and the replica copies they evicted.
fn apply_updates(buffers: &mut [VirtualBuffer], updates: &[PlanUpdate]) -> (usize, u64) {
    let (mut touched, mut invalidated) = (0usize, 0u64);
    for u in updates {
        let vb = &mut buffers[u.vb.index()];
        vb.kernel_written = true;
        let stats = vb.tracker.update(u.start, u.end, Owner::Device(u.gpu));
        touched += stats.touched;
        invalidated += stats.invalidated as u64;
        debug_assert!(vb.tracker.check_invariants());
    }
    (touched, invalidated)
}

/// The static partition-safety verdict of a launch site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// At most one non-empty partition: nothing to prove.
    Unsplit,
    /// Every split axis carries a write-disjointness proof.
    Proven,
    /// This split axis carries none: the launch is refused.
    Unproven(SplitAxis),
}

/// Everything a launch derives from `(kernel, grid, block, TuneKey
/// scalars)` alone, resolved once per site: the partitioning decision in
/// its three forms (strategy encoding, partitions, flattened bounds),
/// the safety-gate verdict and whether the tuner measures the site. A
/// launch that finds its site computes none of them again; what varies
/// from launch to launch — scalar bits, tracker signatures — goes into
/// the plan key's `args`.
///
/// A float scalar is 0 in the `TuneKey`, so a drifting float mints no
/// site. Sites are dropped by whatever changes a decision: `set_config`,
/// `force_strategy`/`clear_forced_strategy`, `set_plan_cache`, and a
/// tuner switch (that site only).
#[derive(Debug)]
pub(crate) struct LaunchSite {
    /// The kernel facts the decision rests on; kernels are keyed by
    /// name, and another kernel under the same name re-resolves.
    partitioning: SplitAxis,
    safe_axes: AxisMask,
    /// [`PartitionStrategy::encode`] of the strategy in force — the
    /// compiler's fixed even split when no tuner/forced strategy is
    /// active. The full encoding (axes, factors, weighted/tiled bits):
    /// a 2-D tiling and a 1-D slab can never alias in the plan key,
    /// even if they happened to produce the same bounds list.
    strategy: u32,
    parts: Vec<Partition>,
    /// Plan-key prefix, shared with every key of the site.
    kernel: Arc<str>,
    bounds: Arc<[i64]>,
    gate: Gate,
    /// Feed the launch's peer-traffic delta to the tuner's online
    /// refinement — but not while a forced override is active: those
    /// launches run a strategy the tuner did not choose, and mixing
    /// their bytes into its measurement windows would corrupt the
    /// averages.
    measure: bool,
}

/// Resolved launch sites a runtime keeps before it starts over.
const MAX_SITES: usize = 1024;

/// What walking the trackers cost while a plan was built, in the groups
/// the walk charges it — the pattern work a replay of the same plan pays
/// one flat `host_per_replay` for. Only the plan is ever cached.
#[derive(Debug, Default)]
struct Walk {
    /// Per read-sync group, in copy order: its host charge and the end of
    /// its copies in `plan.copies`.
    syncs: Vec<(SimTime, usize)>,
    /// Ends of the write-update groups in `plan.updates`. Each group is
    /// charged `per_range` per update plus `per_segment` per tracker
    /// segment it touched.
    updates: Vec<usize>,
    per_range: SimTime,
    per_segment: SimTime,
    /// Figure 4's barrier between the copies and the launches. γ on a
    /// performance machine resolves nothing and goes without.
    barrier: bool,
}

/// How [`MgpuRuntime::run_plan`] pays for a plan's pattern work.
#[derive(Clone, Copy)]
enum Pay<'a> {
    /// A plan-cache hit: one flat `host_per_replay`, and the trackers
    /// advance through the plan's post-state memo.
    Replay,
    /// The walk that built the plan, charged group by group: each
    /// read-sync group right before its copies (host time gates copy
    /// starts), each update group after the launches. It never fills the
    /// plan's post-state memo, so a plan nobody replays costs no memory.
    Walk(&'a Walk),
}

/// How [`MgpuRuntime::run_plan`] runs a plan's partition launches.
#[derive(Clone, Copy)]
enum Exec<'a> {
    /// Timed launches of this kernel: `ck.partitioned`, or `ck.original`
    /// for an unpartitioned launch.
    Launch(&'a Kernel),
    /// Write-recording launches of `ck.partitioned`: the observed write
    /// sets become the walk's update groups ([`observed_updates`]).
    Record(&'a CompiledKernel),
}

impl MgpuRuntime {
    /// The kernel-launch replacement: run `ck` over `grid × block` across
    /// all devices (Figure 4). Errors if the kernel failed the §4 checks.
    ///
    /// With [`crate::RuntimeConfig::capture_plans`] on, the plan a miss
    /// walks is captured into the plan cache and replayed directly on a
    /// hit (see [`crate::plan`]). A hit is: find the site, fill the plan
    /// key in place, one cache probe, then the replay.
    pub fn launch(
        &mut self,
        ck: &CompiledKernel,
        grid: Dim3,
        block: Dim3,
        args: &[LaunchArg],
    ) -> Result<()> {
        if !ck.is_partitionable() {
            return Err(RuntimeError::NotPartitionable(format!(
                "{}: {:?}",
                ck.model.kernel_name, ck.model.verdict
            )));
        }
        // The site key doubles as the tuner's key and is refilled in
        // place; the per-launch argument checks run on every launch.
        let key = &mut self.site_key;
        if key.kernel != ck.model.kernel_name {
            key.kernel.clone_from(&ck.model.kernel_name);
        }
        key.grid = grid;
        key.block = block;
        validate_args(&self.buffers, self.namespace, ck, args, &mut key.scalars)?;
        let site = match self.sites.get(&self.site_key) {
            Some(site)
                if site.partitioning == ck.model.partitioning && site.safe_axes == ck.safe_axes =>
            {
                Arc::clone(site)
            }
            _ => self.resolve_site(ck, grid, block, args)?,
        };
        // Partition-safety gate: a launch that actually splits the grid
        // must run along axes the static checker proved write-disjoint
        // (mekong-check). Refusals are counted.
        match site.gate {
            Gate::Unsplit => {}
            Gate::Proven => self.machine.counters_mut().checked_safe += 1,
            Gate::Unproven(axis) => {
                self.machine.counters_mut().checked_rejected += 1;
                return Err(RuntimeError::NotPartitionable(format!(
                    "{}: split along axis {} has no static write-disjointness proof \
                     (proven axes {})",
                    ck.model.kernel_name, axis, ck.safe_axes
                )));
            }
        }
        let d2d_before = site.measure.then(|| self.machine.counters().d2d_bytes);
        let capture = self.config.capture_plans && self.resolve_dependencies;
        let hit = if capture {
            // The content-addressed cache key of this launch: the site's
            // prefix plus, per argument, scalar bits or `(id, tracker
            // signature)`. Any tracker mutation since capture changes a
            // signature and turns the lookup into a miss — no explicit
            // invalidation exists.
            let key = &mut self.plan_key;
            if !Arc::ptr_eq(&key.kernel, &site.kernel) {
                key.kernel = Arc::clone(&site.kernel);
            }
            if !Arc::ptr_eq(&key.bounds, &site.bounds) {
                key.bounds = Arc::clone(&site.bounds);
            }
            key.strategy = site.strategy;
            key.grid = grid;
            key.block = block;
            key.args.clear();
            key.args.extend(args.iter().map(|a| match a {
                LaunchArg::Scalar(v) => ArgKey::scalar(*v),
                // Namespace-stripped: identical workloads in different
                // tenant namespaces must produce identical keys, so
                // tenants can hit each other's captured plans.
                LaunchArg::Buf(b) => ArgKey::Buf {
                    id: b.local(),
                    sig: self.buffers[b.index()].tracker.signature(),
                },
            }));
            self.plan_cache.borrow_mut().get(&self.plan_key)
        } else {
            None
        };
        let partitioned = Exec::Launch(&ck.partitioned);
        match hit {
            Some((plan, captured_by)) => {
                let c = self.machine.counters_mut();
                c.plan_hits += 1;
                if captured_by != self.namespace {
                    // Another tenant (or a loaded snapshot) captured this
                    // plan — the cross-tenant sharing the serving layer
                    // exists for.
                    c.plan_shared_hits += 1;
                }
                self.run_plan(&plan, partitioned, block, args, Pay::Replay)?;
            }
            None => {
                // A miss or an uncaptured launch walks trackers and
                // observes device clocks directly: drain the launch-ahead
                // window first.
                self.pipeline_flush();
                if self.resolve_dependencies {
                    self.machine.counters_mut().plan_misses += 1;
                }
                let (plan, walk) = self.plan_walk(ck, grid, block, args, &site.parts);
                self.run_plan(&plan, partitioned, block, args, Pay::Walk(&walk))?;
                if capture {
                    let evicted = self.plan_cache.borrow_mut().insert(
                        self.plan_key.clone(),
                        Arc::new(plan),
                        self.namespace,
                    );
                    self.machine.counters_mut().plan_evictions += evicted;
                }
            }
        }
        if let Some(before) = d2d_before {
            let moved = self.machine.counters().d2d_bytes - before;
            let outcome = self.tuner.record(&self.site_key, moved);
            if let Some(avg) = outcome.window_avg {
                self.machine.counters_mut().tuner_measured_bytes = avg;
            }
            if outcome.switched {
                // The next launch resolves the site afresh and
                // re-captures under the new bounds; the counters reflect
                // the refreshed decision.
                self.sites.remove(&self.site_key);
                if let Some(e) = self.tuner.entry(&self.site_key) {
                    let c = self.machine.counters_mut();
                    c.strategy_chosen = e.strategy().encode();
                    c.tuner_predict_bytes = e.predicted().transfer_bytes;
                }
            }
        }
        Ok(())
    }

    /// Resolve the launch site under `self.site_key` (already filled and
    /// validated for this launch) and remember it.
    fn resolve_site(
        &mut self,
        ck: &CompiledKernel,
        grid: Dim3,
        block: Dim3,
        args: &[LaunchArg],
    ) -> Result<Arc<LaunchSite>> {
        let strategy = self.strategy_for(ck, grid, block, args)?;
        let parts = match &strategy {
            Some(s) => s.partitions(grid),
            None => partition_grid(grid, self.n_devices(), ck.model.partitioning),
        };
        // For a rectangular tiling, *every* split axis needs its own
        // proof.
        let gate = if parts.iter().filter(|p| !p.is_empty()).count() > 1 {
            let axes = strategy
                .as_ref()
                .map(|s| s.split_axes())
                .unwrap_or_else(|| vec![ck.model.partitioning]);
            match axes.iter().find(|a| !ck.safe_axes.allows(**a)) {
                Some(axis) => Gate::Unproven(*axis),
                None => Gate::Proven,
            }
        } else {
            Gate::Unsplit
        };
        let site = Arc::new(LaunchSite {
            partitioning: ck.model.partitioning,
            safe_axes: ck.safe_axes,
            strategy: strategy.as_ref().map(|s| s.encode()).unwrap_or_else(|| {
                PartitionStrategy::even(ck.model.partitioning, self.n_devices()).encode()
            }),
            kernel: ck.model.kernel_name.as_str().into(),
            bounds: parts
                .iter()
                .flat_map(|p| p.lo.iter().chain(p.hi.iter()).copied())
                .collect(),
            parts,
            gate,
            measure: self.config.autotune && !self.forced.contains_key(&ck.model.kernel_name),
        });
        // A site is a cache entry, and an integer scalar that counts
        // launches mints one per launch: bound the table like the plan
        // cache it fronts. Dropping sites only costs re-resolving them.
        if self.sites.len() >= MAX_SITES {
            self.sites.clear();
        }
        self.sites.insert(self.site_key.clone(), Arc::clone(&site));
        Ok(site)
    }

    /// Resolve the partitioning strategy of the site under
    /// `self.site_key`: a forced override first, then (with
    /// [`crate::RuntimeConfig::autotune`] on) the autotuner's cached or
    /// freshly ranked decision, else `None` — the compiler's fixed even
    /// split.
    fn strategy_for(
        &mut self,
        ck: &CompiledKernel,
        grid: Dim3,
        block: Dim3,
        args: &[LaunchArg],
    ) -> Result<Option<PartitionStrategy>> {
        if let Some(s) = self.forced.get(&ck.model.kernel_name) {
            return Ok(Some(s.clone()));
        }
        if !self.config.autotune {
            return Ok(None);
        }
        if let Some(s) = self.tuner.strategy(&self.site_key) {
            return Ok(Some(s.clone()));
        }
        let candidates = self.rank_strategies(ck, grid, block, args, &self.site_key.scalars)?;
        let (bandwidth, latency) = {
            let link = &self.machine.spec().link;
            (link.bandwidth, link.latency)
        };
        let entry = self
            .tuner
            .decide(self.site_key.clone(), candidates, bandwidth, latency);
        let chosen = entry.strategy().clone();
        let c = self.machine.counters_mut();
        c.strategy_chosen = chosen.encode();
        c.tuner_predict_bytes = entry.predicted().transfer_bytes;
        Ok(Some(chosen))
    }

    /// Build the cost model's view of this launch site and rank every
    /// candidate strategy (cheapest predicted time first).
    fn rank_strategies(
        &self,
        ck: &CompiledKernel,
        grid: Dim3,
        block: Dim3,
        args: &[LaunchArg],
        scalars: &[i64],
    ) -> Result<Vec<Candidate>> {
        // Per-thread cost profile: counting mode never dereferences
        // arrays, so placeholder handles suffice.
        let kargs: Vec<KernelArg> = ck
            .model
            .args
            .iter()
            .zip(args)
            .map(|(m, a)| match (m, a) {
                (ArgModel::Scalar { .. }, LaunchArg::Scalar(v)) => KernelArg::Scalar(*v),
                _ => KernelArg::Array(0),
            })
            .collect();
        let profile = sample_kernel_profile(&ck.original, &kargs, grid, block)?;
        let shape_of = |idx: usize| match &ck.model.args[idx] {
            ArgModel::Array { elem, extents, .. } => Some((*elem, extents)),
            ArgModel::Scalar { .. } => None,
        };
        let mut writes = Vec::new();
        let mut write_shapes = Vec::new();
        for (arg_idx, wenum) in &ck.enums.writes {
            let vb = match args[*arg_idx] {
                LaunchArg::Buf(b) => b,
                _ => unreachable!("validated"),
            };
            writes.push(WriteModel {
                enumerator: wenum,
                elem_size: self.buffers[vb.index()].elem_size as u64,
            });
            write_shapes.push(shape_of(*arg_idx));
        }
        let mut reads = Vec::new();
        for (arg_idx, renum) in &ck.enums.reads {
            let vb = match args[*arg_idx] {
                LaunchArg::Buf(b) => b,
                _ => unreachable!("validated"),
            };
            let vbuf = &self.buffers[vb.index()];
            let shape = shape_of(*arg_idx);
            // Steady-state ownership. An array this launch also writes is
            // trivially redistributed along the candidate's own
            // partitioning (in-place update). A *kernel-written* array
            // read next to a same-shaped write arg is the partner of a
            // ping-pong chain: the previous launch laid it out along the
            // same partitioning. Anything else — notably read-only,
            // host-uploaded arrays — keeps whatever layout its tracker
            // holds, and since reads never move ownership the runtime
            // refetches those remote bytes on every launch; the model
            // must keep charging for them.
            let self_write = ck
                .enums
                .writes
                .iter()
                .position(|(w_idx, _)| w_idx == arg_idx)
                .or_else(|| {
                    if vbuf.kernel_written {
                        write_shapes.iter().position(|w| w.is_some() && *w == shape)
                    } else {
                        None
                    }
                });
            let ownership = match self_write {
                Some(w) => Ownership::SelfWrites(w),
                // With replica coherence every read leaves a valid copy on
                // the reading device, so an array that *cannot* be a
                // ping-pong partner — no same-shaped write arg exists —
                // pays peer traffic only on its first touch: zero in
                // steady state. Same-shaped arrays may be written by the
                // alternate launch of this chain (invalidating replicas
                // every iteration), so they keep concrete tracker
                // segments; their holder masks still zero out whatever
                // truly is replicated.
                None if self.config.replica_coherence
                    && !write_shapes.iter().any(|w| w.is_some() && *w == shape) =>
                {
                    Ownership::Replicated
                }
                None => {
                    let mut segs = Vec::new();
                    vbuf.tracker
                        .query(0, vbuf.len as u64, &mut |s, e, v: Validity| {
                            segs.push(OwnedSegment {
                                start: s,
                                end: e,
                                device: v.freshest.device(),
                                holders: v.holders.bits(),
                            });
                        });
                    Ownership::Segments(segs)
                }
            };
            reads.push(ReadModel {
                enumerator: renum,
                elem_size: vbuf.elem_size as u64,
                ownership,
            });
        }
        let input = TunerInput {
            spec: self.machine.spec(),
            grid,
            block,
            scalar_names: &ck.enums.scalar_names,
            scalars,
            reads,
            writes,
            profile,
            // Under plan capture, steady-state launches replay the
            // pattern walk for a flat fee — price candidates the way
            // they will actually run.
            pattern_amortized: self.config.capture_plans,
        };
        // Candidates along axes without a disjointness proof are never
        // enumerated — the tuner cannot pick an unsound strategy, and a
        // rectangular tiling needs proofs on *both* of its axes.
        Ok(rank_candidates(&input, ck.safe_axes))
    }

    /// Rank the tuner's candidate strategies for a launch site without
    /// recording a decision — the per-candidate prediction table of the
    /// A7 ablation.
    pub fn tuner_candidates(
        &self,
        ck: &CompiledKernel,
        grid: Dim3,
        block: Dim3,
        args: &[LaunchArg],
    ) -> Result<Vec<Candidate>> {
        let mut scalars = Vec::new();
        validate_args(&self.buffers, self.namespace, ck, args, &mut scalars)?;
        self.rank_strategies(ck, grid, block, args, &scalars)
    }

    /// The machine-level argument vector of a launch on `gpu`: scalars
    /// verbatim, buffers as their instances on `gpu`, followed — for a
    /// partition of the rewritten kernel's launch over `grid` — by the
    /// six scalars of [`Partition::clone_args`].
    fn sim_args(
        &self,
        args: &[LaunchArg],
        gpu: usize,
        part: Option<(&Partition, Dim3)>,
    ) -> Vec<SimArg> {
        let mut sim_args = Vec::with_capacity(args.len() + 6);
        sim_args.extend(args.iter().map(|a| match a {
            LaunchArg::Scalar(v) => SimArg::Scalar(*v),
            LaunchArg::Buf(b) => SimArg::Buf(self.buffers[b.index()].instances[gpu]),
        }));
        if let Some((p, grid)) = part {
            sim_args.extend(p.clone_args(grid).map(|m| SimArg::Scalar(Value::I64(m))));
        }
        sim_args
    }

    /// The tracker effect of `plan`, op by op: every copy lands
    /// ([`land_copy`]), then every write-update commits
    /// ([`apply_updates`]) — in the captured order. This is the one
    /// definition of what a replay does to the trackers; the returned
    /// [`PostState`] says where it led, for later replays to install.
    fn apply_tracker_ops(&mut self, plan: &LaunchPlan) -> PostState {
        let replica_coherence = self.config.replica_coherence;
        let mut touched: Vec<VBufId> = plan
            .copies
            .iter()
            .map(|c| c.vb)
            .chain(plan.updates.iter().map(|u| u.vb))
            .collect();
        touched.sort_unstable_by_key(|b| b.index());
        touched.dedup();
        let received: Vec<u64> = touched
            .iter()
            .map(|b| self.buffers[b.index()].d2d_in_bytes)
            .collect();
        for c in &plan.copies {
            land_copy(&mut self.buffers, c, replica_coherence);
        }
        let (_, replica_invalidations) = apply_updates(&mut self.buffers, &plan.updates);
        let buffers = touched
            .iter()
            .zip(received)
            .map(|(&vb, before)| {
                let buf = &mut self.buffers[vb.index()];
                PostBuffer {
                    vb,
                    tracker: buf.tracker.share(),
                    d2d_in_bytes: buf.d2d_in_bytes - before,
                    written: plan.updates.iter().any(|u| u.vb == vb),
                }
            })
            .collect();
        PostState {
            replica_coherence,
            buffers,
            replica_invalidations,
        }
    }

    /// Advance the trackers by `plan`'s effect. The first replay applies
    /// the ops ([`MgpuRuntime::apply_tracker_ops`]) and records where
    /// they led; every later one installs that state — a pointer swap
    /// and a signature memo per touched buffer, whatever its segment
    /// count. Debug builds check each install against the ops applied to
    /// the same pre-state.
    fn advance_trackers(&mut self, plan: &LaunchPlan) {
        let recorded = plan
            .post
            .0
            .get()
            .filter(|post| post.replica_coherence == self.config.replica_coherence);
        let invalidated = match recorded {
            Some(post) => {
                if cfg!(debug_assertions) {
                    let pre: Vec<_> = post
                        .buffers
                        .iter()
                        .map(|b| {
                            let buf = &self.buffers[b.vb.index()];
                            (buf.tracker.clone(), buf.d2d_in_bytes, buf.kernel_written)
                        })
                        .collect();
                    let applied = self.apply_tracker_ops(plan);
                    assert_eq!(&applied, post, "installed post-state differs from the ops");
                    for (b, (tracker, received, written)) in post.buffers.iter().zip(pre) {
                        let buf = &mut self.buffers[b.vb.index()];
                        buf.tracker = tracker;
                        buf.d2d_in_bytes = received;
                        buf.kernel_written = written;
                    }
                }
                for b in &post.buffers {
                    let buf = &mut self.buffers[b.vb.index()];
                    buf.tracker.install(&b.tracker);
                    buf.d2d_in_bytes += b.d2d_in_bytes;
                    buf.kernel_written |= b.written;
                }
                post.replica_invalidations
            }
            None => {
                let post = self.apply_tracker_ops(plan);
                let invalidated = post.replica_invalidations;
                // Losing the race to another tenant's first replay of a
                // shared plan is fine: both recorded the same state.
                let _ = plan.post.0.set(post);
                invalidated
            }
        };
        self.machine.counters_mut().replica_invalidations += invalidated;
    }

    /// The one launch body: run `plan` in the Figure 4 order — copies,
    /// then the barrier or the launch-ahead window, then the partition
    /// launches of `exec`, then the tracker step. A plan-cache hit runs
    /// here with [`Pay::Replay`], every plan a launch builds with the
    /// [`Walk`] that built it.
    ///
    /// Only a replay joins the launch-ahead window
    /// ([`crate::RuntimeConfig::launch_ahead`] > 0, see
    /// [`crate::pipeline`]): its copies then go to the copy-engine clocks
    /// behind event edges and each launch waits only on *its* incoming
    /// data. Counters, tracker updates and host charges are identical
    /// either way — only the device-clock schedule differs. The clock
    /// arithmetic runs op by op in plan order, so a replay computes every
    /// simulated time its walk computed.
    ///
    /// Buffer references inside the plan are namespace-local ids; the
    /// live `args` re-resolve them against *this* runtime's instances
    /// (see [`resolve_sim_args`]), so a plan captured by another tenant
    /// — or loaded from a snapshot taken in another process — replays
    /// correctly here.
    fn run_plan(
        &mut self,
        plan: &LaunchPlan,
        exec: Exec<'_>,
        block: Dim3,
        args: &[LaunchArg],
        pay: Pay<'_>,
    ) -> Result<()> {
        // What the planning walk observed of replica-served reads and
        // bounded may-read boxes, noted on every run: a replay skips it.
        let c = self.machine.counters_mut();
        c.replica_hits += plan.replica_hits;
        c.refetch_bytes_saved += plan.replica_saved_bytes;
        c.mayread_fetch_bytes += plan.mayread_fetch_bytes;
        c.mayread_overfetch_bytes += plan.mayread_overfetch_bytes;
        let replay = [(self.machine.spec().host_per_replay, plan.copies.len())];
        let (syncs, barrier) = match pay {
            Pay::Replay => (&replay[..], true),
            Pay::Walk(walk) => (&walk.syncs[..], walk.barrier),
        };
        // A walk observes device clocks directly; only a replay joins
        // the window.
        let pipelined = matches!(pay, Pay::Replay) && self.config.launch_ahead > 0;

        // ---- (2) synchronize read buffers --------------------------------
        let mut first = 0;
        for &(cost, end) in syncs {
            self.machine.charge_host(cost, TimeCat::Pattern);
            for c in &plan.copies[first..end] {
                let deps = pipelined.then(|| self.pipeline.copy_edges(c));
                let vb = &self.buffers[c.vb.index()];
                let done = self.machine.copy_d2d(
                    vb.instances[c.src_dev],
                    vb.instances[c.dst_gpu],
                    copy_runs(c)?,
                    deps.as_ref().map(|d| &d[..]),
                )?;
                if pipelined {
                    self.pipeline.note_copy(c, done);
                }
            }
            first = end;
        }
        if barrier && !pipelined {
            // Figure 4, line 8: all_devs_synchronize().
            self.machine.sync_all();
        }

        // ---- (3) launch the partitions ------------------------------------
        let mut launched: SimTime = 0.0;
        let mut observed = Vec::new();
        let scratch = &mut self.launch_scratch;
        scratch.deps.clear();
        for l in &plan.launches {
            if pipelined {
                self.pipeline.launch_edges(plan, l.gpu, &mut scratch.deps);
            }
            resolve_sim_args(&self.buffers, l, args, &mut scratch.sim_args);
            match exec {
                Exec::Launch(kernel) => {
                    let end = self.machine.launch(
                        l.gpu,
                        kernel,
                        &scratch.sim_args,
                        l.grid,
                        block,
                        Some(l.traffic),
                        &scratch.deps,
                    )?;
                    if pipelined {
                        self.pipeline.note_launch(plan, l.gpu, end);
                        launched = launched.max(end);
                    }
                }
                Exec::Record(ck) => observed.push((
                    l.gpu,
                    self.machine.launch_recording(
                        l.gpu,
                        &ck.partitioned,
                        &scratch.sim_args,
                        l.grid,
                        block,
                    )?,
                )),
            }
        }

        // ---- (4) update trackers (at submit, concurrent to the kernels) ---
        match pay {
            Pay::Replay => self.advance_trackers(plan),
            Pay::Walk(walk) => {
                let recorded;
                let (updates, ends) = match exec {
                    Exec::Record(ck) => {
                        recorded = observed_updates(ck, &self.buffers, args, &observed)?;
                        (&recorded.0[..], &recorded.1[..])
                    }
                    Exec::Launch(_) => (&plan.updates[..], &walk.updates[..]),
                };
                for c in &plan.copies {
                    land_copy(&mut self.buffers, c, self.config.replica_coherence);
                }
                let mut first = 0;
                for &end in ends {
                    let group = &updates[first..end];
                    let (touched, invalidated) = apply_updates(&mut self.buffers, group);
                    self.machine.counters_mut().replica_invalidations += invalidated;
                    // Segment maintenance costs what the update actually
                    // walked, same accounting as the read path's query —
                    // not one flat segment per range.
                    let cost =
                        walk.per_range * group.len() as f64 + walk.per_segment * touched as f64;
                    self.machine.charge_host(cost, TimeCat::Pattern);
                    first = end;
                }
            }
        }
        if pipelined {
            let depth = self.config.launch_ahead as usize;
            for t in self.pipeline.push(plan, launched, depth) {
                self.machine.join_host(t);
            }
        }
        Ok(())
    }

    /// Plan a partitioned launch by walking its trackers (§5): the
    /// read-sync copies of every `(gpu, read-argument)` pair, the
    /// partition launches and the write-updates, with the [`Walk`] that
    /// charges them. Mutates nothing, so every pair is planned against
    /// the state before any copy lands. A miss caches the plan, an
    /// uncaptured launch drops it after its run. γ on a performance
    /// machine resolves nothing: its plan holds only the launches.
    fn plan_walk(
        &self,
        ck: &CompiledKernel,
        grid: Dim3,
        block: Dim3,
        args: &[LaunchArg],
        parts: &[Partition],
    ) -> (LaunchPlan, Walk) {
        let spec = self.machine.spec();
        let scalars = &self.site_key.scalars;
        let names = &ck.enums.scalar_names;
        let mut plan = LaunchPlan::default();
        let mut walk = Walk {
            per_range: spec.host_per_range,
            per_segment: spec.host_per_segment,
            barrier: self.resolve_dependencies,
            ..Walk::default()
        };
        let buf = |arg_idx: usize| match args[arg_idx] {
            LaunchArg::Buf(b) => b,
            _ => unreachable!("validated"),
        };
        let live = || parts.iter().enumerate().filter(|(_, p)| !p.is_empty());
        // The byte ranges `renum` enumerates over `part` of buffer `vb`.
        let byte_ranges = |renum: &AccessEnumerator, part: &Partition, vb: VBufId| {
            let elem = self.buffers[vb.index()].elem_size as u64;
            let mut ranges: Vec<(u64, u64)> = Vec::new();
            renum.for_each_range(part, block, grid, names, scalars, &mut |r| {
                ranges.push((r.start * elem, r.end * elem));
            });
            ranges
        };
        // Whole-buffer read/write sets for the launch-ahead pipeline's
        // event edges (deduplicated; an argument bound to two parameters
        // appears once). Buffer ids are namespace-stripped (local
        // indices) so the plan is portable across tenants and processes;
        // runs index buffers by `.index()`, which agrees.
        for (bufs, enums) in [
            (&mut plan.read_bufs, &ck.enums.reads),
            (&mut plan.write_bufs, &ck.enums.writes),
        ] {
            for (arg_idx, _) in enums {
                let b = buf(*arg_idx).local();
                if !bufs.contains(&b) {
                    bufs.push(b);
                }
            }
        }

        // ---- (2) synchronize read buffers (§8.3) --------------------------
        if self.resolve_dependencies {
            let mut mayread_fetch = 0u64;
            for (gpu, part) in live() {
                for (arg_idx, renum) in &ck.enums.reads {
                    let vb = buf(*arg_idx);
                    let tracker = &self.buffers[vb.index()].tracker;
                    let ranges = byte_ranges(renum, part, vb);
                    // Inexact enumerators are interval boxes from the
                    // abstract interpreter: everything they enumerate is
                    // may-read over-fetch territory, so meter it.
                    if !renum.is_exact() {
                        mayread_fetch += merged_len(&ranges);
                    }
                    let mut tp = TransferPlan::onto(self, gpu);
                    let n_segments = if self.config.coalesce_transfers {
                        // Merge adjacent/overlapping read ranges (e.g.
                        // consecutive rows of a 2-D halo) so each validity
                        // run costs one segment — and one D2D copy —
                        // instead of one per row.
                        tracker
                            .query_coalesced(&ranges, &mut |s, e, v| tp.visit(s, e, v))
                            .1
                    } else {
                        let mut emitted = 0usize;
                        for &(s, e) in &ranges {
                            tracker.query(s, e, &mut |s, e, v| {
                                emitted += 1;
                                tp.visit(s, e, v);
                            });
                        }
                        emitted
                    };
                    plan.replica_hits += tp.replica_hits;
                    plan.replica_saved_bytes += tp.saved_bytes;
                    // Group consecutive same-source copies into strided
                    // transactions (the column-halo shape of a rectangular
                    // tiling): equal-length runs at a constant stride move
                    // as one cudaMemcpy2D-style DMA, matching the cost
                    // model's transaction pricing. 1-D slab halos are
                    // single runs and pass through unchanged.
                    for same_source in tp.copies.chunk_by(|a, b| a.0 == b.0) {
                        let segs: Vec<(u64, u64)> =
                            same_source.iter().map(|&(_, s, e)| (s, e)).collect();
                        plan.copies
                            .extend(strided_groups(&segs).into_iter().map(|g| PlanCopy {
                                vb: vb.local(),
                                dst_gpu: gpu,
                                src_dev: same_source[0].0,
                                start: g.start,
                                end: g.start + g.run,
                                stride: g.stride,
                                count: g.count,
                            }));
                    }
                    let cost = spec.host_per_range * ranges.len() as f64
                        + spec.host_per_segment * n_segments as f64;
                    walk.syncs.push((cost, plan.copies.len()));
                }
            }
            if mayread_fetch > 0 {
                // Over-fetch = what the partitions fetch for their boxes
                // beyond the single-device footprint of the same launch
                // (the whole-grid box). With one partition the two sums
                // coincide and the over-fetch is zero by construction.
                let whole = Partition::whole(grid);
                let baseline: u64 = ck
                    .enums
                    .reads
                    .iter()
                    .filter(|(_, renum)| !renum.is_exact())
                    .map(|(arg_idx, renum)| merged_len(&byte_ranges(renum, &whole, buf(*arg_idx))))
                    .sum();
                plan.mayread_fetch_bytes = mayread_fetch;
                plan.mayread_overfetch_bytes = mayread_fetch.saturating_sub(baseline);
            }
        }

        // ---- (3) launch the partitions ------------------------------------
        for (gpu, part) in live() {
            plan.launches.push(PlanLaunch {
                gpu,
                sim_args: self.sim_args(args, gpu, Some((part, grid))),
                grid: part.launch_grid(),
                traffic: ck.footprint_bytes(part, block, grid, scalars),
            });
        }

        // ---- (4) update trackers: one group per (gpu, write-arg) pair ----
        if self.resolve_dependencies {
            for (gpu, part) in live() {
                for (arg_idx, wenum) in &ck.enums.writes {
                    let vb = buf(*arg_idx);
                    let elem = self.buffers[vb.index()].elem_size as u64;
                    wenum.for_each_range(part, block, grid, names, scalars, &mut |r| {
                        plan.updates.push(PlanUpdate {
                            vb: vb.local(),
                            gpu,
                            start: r.start * elem,
                            end: r.end * elem,
                        });
                    });
                    walk.updates.push(plan.updates.len());
                }
            }
        }
        (plan, walk)
    }

    /// Plan pulling every argument buffer whole onto each of `gpus`, in
    /// argument order and device by device: the read syncs of a launch
    /// whose read sets are unknown (instrumented) or unsplit (the
    /// fallback). A full-range query emits maximal same-owner segments
    /// already; the transfer plan additionally bridges same-source copies
    /// across small Uninit gaps, which collapses fragmented trackers.
    ///
    /// Unlike the partitioned walk, each sync is planned against the
    /// holders the previous syncs of the same launch add — a buffer
    /// pulled onto device 1 may come from the copy just planned onto
    /// device 0 — so the planner keeps its own copy of each tracker.
    fn plan_whole_syncs(&self, args: &[LaunchArg], gpus: Range<usize>) -> (LaunchPlan, Walk) {
        let mut plan = LaunchPlan::default();
        let mut walk = Walk {
            barrier: true,
            ..Walk::default()
        };
        let mut trackers: HashMap<VBufId, Tracker> = HashMap::new();
        for &a in args {
            let LaunchArg::Buf(b) = a else { continue };
            let tracker = trackers
                .entry(b)
                .or_insert_with(|| self.buffers[b.index()].tracker.clone());
            for gpu in gpus.clone() {
                let mut tp = TransferPlan::onto(self, gpu);
                let mut n_segments = 0u64;
                tracker.query(0, tracker.len(), &mut |s, e, v| {
                    n_segments += 1;
                    tp.visit(s, e, v);
                });
                plan.replica_hits += tp.replica_hits;
                plan.replica_saved_bytes += tp.saved_bytes;
                for (src_dev, start, end) in tp.copies {
                    if tp.replica {
                        tracker.add_holder(start, end, gpu);
                    }
                    plan.copies.push(PlanCopy {
                        vb: b.local(),
                        dst_gpu: gpu,
                        src_dev,
                        start,
                        end,
                        stride: end - start,
                        count: 1,
                    });
                }
                let cost = self.machine.spec().host_per_segment * n_segments as f64;
                walk.syncs.push((cost, plan.copies.len()));
            }
        }
        (plan, walk)
    }

    /// Single-device fallback path for kernels that failed the §4 checks
    /// (and the overhead baseline of §9.2): synchronize every argument
    /// buffer *fully* onto `device`, run the original kernel there, then
    /// claim the written buffers for `device`.
    pub fn launch_unpartitioned(
        &mut self,
        ck: &CompiledKernel,
        grid: Dim3,
        block: Dim3,
        args: &[LaunchArg],
        device: usize,
    ) -> Result<()> {
        let mut scalars = Vec::new();
        validate_args(&self.buffers, self.namespace, ck, args, &mut scalars)?;
        if device >= self.n_devices() {
            return Err(RuntimeError::BadArgument(format!(
                "device {device} does not exist: the machine has {}",
                self.n_devices()
            )));
        }
        // A walk observes device clocks directly.
        self.pipeline_flush();
        let (mut plan, mut walk) = self.plan_whole_syncs(args, device..device + 1);
        plan.launches.push(PlanLaunch {
            gpu: device,
            sim_args: self.sim_args(args, device, None),
            grid,
            traffic: ck.footprint_bytes(&Partition::whole(grid), block, grid, &scalars),
        });
        // Claim written buffers, free of charge: after the full sync,
        // `device` holds the freshest copy of everything it did not
        // overwrite, so a full claim is sound.
        for (arg_model, arg) in ck.model.args.iter().zip(args) {
            if let (true, LaunchArg::Buf(b)) = (arg_model.is_written_array(), arg) {
                plan.updates.push(PlanUpdate {
                    vb: b.local(),
                    gpu: device,
                    start: 0,
                    end: self.buffers[b.index()].len as u64,
                });
            }
        }
        walk.updates.push(plan.updates.len());
        self.run_plan(
            &plan,
            Exec::Launch(&ck.original),
            block,
            args,
            Pay::Walk(&walk),
        )
    }

    /// Multi-device launch for kernels whose **write patterns cannot be
    /// modeled statically** — the instrumentation path the paper's
    /// conclusion proposes (§11: "using instrumentation to collect write
    /// patterns"). Functional machines only.
    ///
    /// Reads are over-approximated to whole buffers (always legal); the
    /// partitions execute with write recording, and the observed write
    /// sets drive the tracker updates. If two partitions wrote the same
    /// element the kernel has a cross-partition WAW hazard and the launch
    /// fails *after the fact* — the caller should re-run unpartitioned.
    pub fn launch_instrumented(
        &mut self,
        ck: &CompiledKernel,
        grid: Dim3,
        block: Dim3,
        args: &[LaunchArg],
    ) -> Result<()> {
        validate_args(&self.buffers, self.namespace, ck, args, &mut Vec::new())?;
        if !self.machine.is_functional() {
            return Err(RuntimeError::Unsupported(
                "instrumented launches need a functional machine",
            ));
        }
        // A walk observes device clocks directly.
        self.pipeline_flush();
        let n = self.n_devices();
        let (mut plan, mut walk) = self.plan_whole_syncs(args, 0..n);
        let parts = partition_grid(grid, n, ck.model.partitioning);
        for (gpu, part) in parts.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
            plan.launches.push(PlanLaunch {
                gpu,
                sim_args: self.sim_args(args, gpu, Some((part, grid))),
                grid: part.launch_grid(),
                // A recording launch prices no traffic hint.
                traffic: 0,
            });
        }
        // Every observed range is charged as one tracker range and one
        // segment.
        let spec = self.machine.spec();
        walk.per_range = spec.host_per_range + spec.host_per_segment;
        self.run_plan(&plan, Exec::Record(ck), block, args, Pay::Walk(&walk))
    }
}

/// The write-updates a recording run observed: one group per buffer
/// argument, in argument order, of every device's written ranges —
/// unless two devices wrote the same bytes, a cross-partition WAW hazard
/// the launch can only report after the fact.
fn observed_updates(
    ck: &CompiledKernel,
    buffers: &[VirtualBuffer],
    args: &[LaunchArg],
    observed: &[(usize, ObservedWriteSets)],
) -> Result<(Vec<PlanUpdate>, Vec<usize>)> {
    let (mut updates, mut groups) = (Vec::new(), Vec::new());
    let mut claims: Vec<(usize, u64, u64)> = Vec::new();
    for (idx, a) in args.iter().enumerate() {
        let LaunchArg::Buf(b) = *a else { continue };
        let vb = &buffers[b.index()];
        let elem = vb.elem_size as u64;
        claims.clear();
        for (gpu, obs) in observed {
            if let Some(ranges) = obs.get(&vb.instances[*gpu].handle) {
                claims.extend(ranges.iter().map(|&(s, e)| (*gpu, s * elem, e * elem)));
            }
        }
        if let Some((g0, g1)) = cross_device_overlap(&mut claims) {
            return Err(RuntimeError::NotPartitionable(format!(
                "instrumentation observed a cross-partition write collision \
                 on argument {} (devices {g0} and {g1})",
                ck.model.args[idx].name()
            )));
        }
        updates.extend(claims.iter().map(|&(gpu, start, end)| PlanUpdate {
            vb: b.local(),
            gpu,
            start,
            end,
        }));
        groups.push(updates.len());
    }
    Ok((updates, groups))
}

/// The runs of one planned copy in machine form. Offsets and lengths may
/// come verbatim from a plan snapshot, so every conversion is checked.
fn copy_runs(c: &PlanCopy) -> Result<CopyRuns> {
    let len = c.end.checked_sub(c.start).ok_or(RuntimeError::Overflow {
        what: "copy length",
        value: c.end,
    })?;
    Ok(CopyRuns::strided(
        crate::to_usize(c.start, "copy offset")?,
        crate::to_usize(len, "copy length")?,
        crate::to_usize(c.stride, "copy stride")?,
        crate::to_usize(c.count, "copy count")?,
    ))
}

/// Validate launch arguments against the model — arity, kinds, buffer
/// liveness and namespace, extent × element size — and collect the
/// scalar values (as i64, floats as 0) in scalar-parameter order into
/// `scalars`, for the enumerators (§6.2: "the scalar arguments are simply
/// copied into an array from the kernel launch they belong to").
fn validate_args(
    buffers: &[VirtualBuffer],
    namespace: u32,
    ck: &CompiledKernel,
    args: &[LaunchArg],
    scalars: &mut Vec<i64>,
) -> Result<()> {
    if args.len() != ck.model.args.len() {
        return Err(RuntimeError::BadArgument(format!(
            "expected {} arguments, got {}",
            ck.model.args.len(),
            args.len()
        )));
    }
    scalars.clear();
    for (model_arg, arg) in ck.model.args.iter().zip(args) {
        match (model_arg, arg) {
            (ArgModel::Scalar { .. }, LaunchArg::Scalar(v)) => {
                scalars.push(v.as_i64().unwrap_or(0));
            }
            (ArgModel::Array { .. }, LaunchArg::Buf(_)) => {}
            (m, a) => {
                return Err(RuntimeError::BadArgument(format!(
                    "argument {:?} does not match parameter {}",
                    a,
                    m.name()
                )))
            }
        }
    }
    // Check array sizes against extents.
    for (model_arg, arg) in ck.model.args.iter().zip(args) {
        if let (ArgModel::Array { elem, extents, .. }, LaunchArg::Buf(b)) = (model_arg, arg) {
            // Liveness *and* namespace check: a handle minted by
            // another tenant's runtime must not reach this one's
            // buffer table, even if its local index is in range.
            crate::vbuf::check_live(buffers, namespace, *b)?;
            let bad_extent = || {
                RuntimeError::BadArgument(format!(
                    "extents of array {} are negative, overflow or name no scalar",
                    model_arg.name()
                ))
            };
            let mut expected = elem.size_bytes();
            for e in extents {
                let extent = match e {
                    Extent::Const(c) => Some(*c),
                    Extent::Param(p) => ck
                        .model
                        .scalar_params
                        .iter()
                        .position(|n| n == p)
                        .map(|idx| scalars[idx]),
                };
                expected = extent
                    .and_then(|v| usize::try_from(v).ok())
                    .and_then(|v| expected.checked_mul(v))
                    .ok_or_else(bad_extent)?;
            }
            let got = buffers[b.index()].len;
            if expected != got {
                return Err(RuntimeError::SizeMismatch { expected, got });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vbuf::RuntimeConfig;
    use mekong_gpusim::{Machine, MachineSpec, SimError};
    use mekong_kernel::builder::*;
    use mekong_kernel::{Kernel, KernelError};
    use mekong_tuner::TuneKey;

    fn runtime(n: usize) -> MgpuRuntime {
        MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(n), true))
    }

    fn f32s(bytes: &[u8]) -> Vec<f32> {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    fn scale_kernel() -> Kernel {
        Kernel {
            name: "scale".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[ext("n")]),
                array_f32("b", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("b", vec![v("i")], load("a", vec![v("i")]) * f(3.0)),
            ],
        }
    }

    #[test]
    fn partitioned_scale_matches_expected() {
        let ck = CompiledKernel::compile(&scale_kernel()).unwrap();
        let mut rt = runtime(4);
        let n = 1000usize;
        let a = rt.malloc(n * 4, 4).unwrap();
        let b = rt.malloc(n * 4, 4).unwrap();
        let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        rt.memcpy_h2d(a, &data).unwrap();
        rt.launch(
            &ck,
            Dim3::new1(8), // 8 blocks x 128 = 1024 threads
            Dim3::new1(128),
            &[
                LaunchArg::Scalar(Value::I64(n as i64)),
                LaunchArg::Buf(a),
                LaunchArg::Buf(b),
            ],
        )
        .unwrap();
        rt.synchronize();
        let mut out = vec![0u8; n * 4];
        rt.memcpy_d2h(b, &mut out).unwrap();
        for (i, v) in f32s(&out).iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f32, "element {i}");
        }
        assert!(rt.elapsed() > 0.0);
    }

    /// A 2-D kernel writing a 1-D array by column: every block row
    /// writes the same elements, so only the x axis carries a
    /// write-disjointness proof.
    fn colwrite_kernel() -> Kernel {
        Kernel {
            name: "colwrite".into(),
            params: vec![scalar("n"), array_f32("out", &[ext("n")])],
            body: vec![
                let_("x", global_x()),
                let_("y", global_y()),
                guard_return(v("x").ge(v("n")).or(v("y").ge(v("n")))),
                store("out", vec![v("x")], f(1.0)),
            ],
        }
    }

    #[test]
    fn launch_gate_refuses_unproven_forced_axis() {
        use mekong_analysis::SplitAxis;
        let ck = CompiledKernel::compile(&colwrite_kernel()).unwrap();
        assert!(ck.is_partitionable(), "verdict: {:?}", ck.model.verdict);
        assert!(ck.safe_axes.allows(SplitAxis::X));
        assert!(!ck.safe_axes.allows(SplitAxis::Y));
        let mut rt = runtime(2);
        let n = 16usize;
        let out = rt.malloc(n * 4, 4).unwrap();
        let args = [LaunchArg::Scalar(Value::I64(n as i64)), LaunchArg::Buf(out)];
        let (grid, block) = (Dim3::new2(4, 4), Dim3::new2(4, 4));
        // The suggested (proven) x split launches and is counted safe.
        rt.launch(&ck, grid, block, &args).unwrap();
        assert_eq!(rt.machine().counters().checked_safe, 1);
        assert_eq!(rt.machine().counters().checked_rejected, 0);
        // Forcing the unproven y split is refused, and the refusal counted.
        rt.force_strategy("colwrite", PartitionStrategy::even(SplitAxis::Y, 2));
        let err = rt.launch(&ck, grid, block, &args).unwrap_err();
        assert!(
            matches!(err, RuntimeError::NotPartitionable(_)),
            "unexpected error: {err:?}"
        );
        assert_eq!(rt.machine().counters().checked_rejected, 1);
        assert_eq!(rt.machine().counters().checked_safe, 1);
    }

    /// A kernel race-free on x but not y blocks every tiling involving
    /// y — in the masked enumeration (no tiled candidate is ranked) and
    /// at the launch gate (a forced tiling is refused) — while plain x
    /// splits stay enumerable.
    #[test]
    fn tilings_blocked_without_proofs_on_both_axes() {
        let ck = CompiledKernel::compile(&colwrite_kernel()).unwrap();
        assert!(ck.safe_axes.allows(SplitAxis::X));
        assert!(!ck.safe_axes.allows(SplitAxis::Y));
        // Enumeration side: the checker mask reaches the tuner.
        let strategies = mekong_tuner::enumerate_strategies(
            &MachineSpec::kepler_system(4),
            Dim3::new2(4, 4),
            mekong_gpusim::ThreadProfile::default(),
            ck.safe_axes,
        );
        assert!(strategies
            .iter()
            .any(|s| s.axis == SplitAxis::X && s.n_parts() > 1));
        assert!(strategies.iter().all(|s| !s.is_tiled()));
        // Ranking side: the runtime's own candidate table agrees.
        let mut rt = runtime(4);
        let n = 16usize;
        let out = rt.malloc(n * 4, 4).unwrap();
        let args = [LaunchArg::Scalar(Value::I64(n as i64)), LaunchArg::Buf(out)];
        let (grid, block) = (Dim3::new2(4, 4), Dim3::new2(4, 4));
        let cands = rt.tuner_candidates(&ck, grid, block, &args).unwrap();
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|c| !c.strategy.is_tiled()));
        // Gate side: forcing an x×y tiling is refused outright — x alone
        // is proven, but the tiling also splits y.
        rt.force_strategy(
            "colwrite",
            PartitionStrategy::tiled(SplitAxis::X, 2, SplitAxis::Y, 2),
        );
        let err = rt.launch(&ck, grid, block, &args).unwrap_err();
        assert!(
            matches!(err, RuntimeError::NotPartitionable(_)),
            "unexpected error: {err:?}"
        );
        assert_eq!(rt.machine().counters().checked_rejected, 1);
    }

    /// A 2-D 5-point stencil over an `n`×`n` array, write-disjoint on
    /// both grid axes (each thread writes its own element).
    fn stencil2d_kernel() -> Kernel {
        Kernel {
            name: "stencil2d".into(),
            params: vec![
                scalar("n"),
                array_f32("src", &[ext("n"), ext("n")]),
                array_f32("dst", &[ext("n"), ext("n")]),
            ],
            body: vec![
                let_("x", global_x()),
                let_("y", global_y()),
                guard_return(v("x").ge(v("n")).or(v("y").ge(v("n")))),
                if_(
                    v("x")
                        .eq_(i(0))
                        .or(v("x").eq_(v("n") - i(1)))
                        .or(v("y").eq_(i(0)))
                        .or(v("y").eq_(v("n") - i(1))),
                    vec![store(
                        "dst",
                        vec![v("y"), v("x")],
                        load("src", vec![v("y"), v("x")]),
                    )],
                    vec![store(
                        "dst",
                        vec![v("y"), v("x")],
                        (load("src", vec![v("y"), v("x") - i(1)])
                            + load("src", vec![v("y"), v("x") + i(1)])
                            + load("src", vec![v("y") - i(1), v("x")])
                            + load("src", vec![v("y") + i(1), v("x")]))
                            / f(4.0),
                    )],
                ),
            ],
        }
    }

    /// A forced 2×2 rectangular tiling runs functionally: four devices
    /// compute byte-identical results to one, and the column halos of
    /// each tile move as strided transactions instead of one copy per
    /// row.
    #[test]
    fn forced_rect_tiling_matches_unpartitioned() {
        let ck = CompiledKernel::compile(&stencil2d_kernel()).unwrap();
        assert!(ck.safe_axes.allows(SplitAxis::X) && ck.safe_axes.allows(SplitAxis::Y));
        let n = 16usize;
        let data: Vec<u8> = (0..n * n)
            .flat_map(|i| ((i as f32).sin()).to_le_bytes())
            .collect();
        let (grid, block) = (Dim3::new2(4, 4), Dim3::new2(4, 4));
        let iters = 4usize;
        let run = |rt: &mut MgpuRuntime| -> Vec<u8> {
            let a = rt.malloc(n * n * 4, 4).unwrap();
            let b = rt.malloc(n * n * 4, 4).unwrap();
            rt.memcpy_h2d(a, &data).unwrap();
            let bufs = [a, b];
            for it in 0..iters {
                rt.launch(
                    &ck,
                    grid,
                    block,
                    &[
                        LaunchArg::Scalar(Value::I64(n as i64)),
                        LaunchArg::Buf(bufs[it % 2]),
                        LaunchArg::Buf(bufs[(it + 1) % 2]),
                    ],
                )
                .unwrap();
            }
            rt.synchronize();
            let mut out = vec![0u8; n * n * 4];
            rt.memcpy_d2h(bufs[iters % 2], &mut out).unwrap();
            out
        };
        let mut rt1 = runtime(1);
        let expected = run(&mut rt1);
        let mut rt4 = runtime(4);
        rt4.force_strategy(
            "stencil2d",
            PartitionStrategy::tiled(SplitAxis::Y, 2, SplitAxis::X, 2),
        );
        let got = run(&mut rt4);
        assert_eq!(got, expected, "2×2 tiling diverged from single-device run");
        let c = rt4.machine().counters();
        assert!(c.d2d_bytes > 0, "halo exchange must actually move bytes");
        // Each tile's column face batches into one strided DMA: per
        // halo-paying iteration, 4 tiles × (column face + row face +
        // corner) = 12 transactions. Row-by-row column halos would be
        // 8 copies per face — the counter blowing past this bound means
        // the strided grouping regressed.
        assert!(
            c.d2d_copies <= 12 * (iters as u64 - 1),
            "column halos must batch into strided transactions, got {} copies",
            c.d2d_copies
        );
    }

    fn stencil_kernel() -> Kernel {
        Kernel {
            name: "stencil".into(),
            params: vec![
                scalar("n"),
                array_f32("input", &[ext("n")]),
                array_f32("output", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                if_(
                    v("i").eq_(i(0)).or(v("i").eq_(v("n") - i(1))),
                    vec![store("output", vec![v("i")], load("input", vec![v("i")]))],
                    vec![store(
                        "output",
                        vec![v("i")],
                        (load("input", vec![v("i") - i(1)])
                            + load("input", vec![v("i")])
                            + load("input", vec![v("i") + i(1)]))
                            / f(3.0),
                    )],
                ),
            ],
        }
    }

    /// CPU reference for [`stencil_kernel`].
    fn stencil_reference(init: &[f32], iters: usize) -> Vec<f32> {
        let n = init.len();
        let mut cur = init.to_vec();
        for _ in 0..iters {
            let mut next = cur.clone();
            for i in 1..n - 1 {
                next[i] = (cur[i - 1] + cur[i] + cur[i + 1]) / 3.0;
            }
            cur = next;
        }
        cur
    }

    /// Iterative 1-D stencil: the real coherence test. Each iteration
    /// reads the halo written by neighboring devices in the previous one.
    #[test]
    fn iterative_stencil_stays_coherent_across_devices() {
        let ck = CompiledKernel::compile(&stencil_kernel()).unwrap();
        assert!(ck.is_partitionable(), "verdict: {:?}", ck.model.verdict);

        let n = 512usize;
        let iters = 6;
        let grid = Dim3::new1(4);
        let block = Dim3::new1(128);
        let init: Vec<f32> = (0..n).map(|i| ((i * 37) % 101) as f32).collect();
        let init_bytes: Vec<u8> = init.iter().flat_map(|v| v.to_le_bytes()).collect();
        let cur = stencil_reference(&init, iters);

        // Multi-device run with ping-pong buffers.
        let mut rt = runtime(4);
        let a = rt.malloc(n * 4, 4).unwrap();
        let b = rt.malloc(n * 4, 4).unwrap();
        rt.memcpy_h2d(a, &init_bytes).unwrap();
        rt.memcpy_h2d(b, &init_bytes).unwrap();
        let (mut src, mut dst) = (a, b);
        for _ in 0..iters {
            rt.launch(
                &ck,
                grid,
                block,
                &[
                    LaunchArg::Scalar(Value::I64(n as i64)),
                    LaunchArg::Buf(src),
                    LaunchArg::Buf(dst),
                ],
            )
            .unwrap();
            std::mem::swap(&mut src, &mut dst);
        }
        rt.synchronize();
        let mut out = vec![0u8; n * 4];
        rt.memcpy_d2h(src, &mut out).unwrap();
        let got = f32s(&out);
        for i in 0..n {
            assert!(
                (got[i] - cur[i]).abs() < 1e-4,
                "element {i}: {} vs {}",
                got[i],
                cur[i]
            );
        }
        // Iterations 2..6 re-enumerate the exact parameter vectors of
        // iterations 0/1 — the enumerator range memo must be hitting.
        let (hits, misses) = ck.enums.range_cache_stats();
        assert!(hits > 0, "range memo never hit (misses: {misses})");
    }

    /// §11 extension: a data-dependent scatter becomes multi-GPU runnable
    /// through instrumented write collection, as long as partitions write
    /// disjoint elements.
    #[test]
    fn instrumented_launch_runs_unmodelable_scatter() {
        // out[perm[i]] = a[i] where perm maps each partition's indices
        // into its own range (i -> i^1 within pairs stays partition-local
        // for even partition boundaries). Here: perm[i] = i ^ 1 via
        // arithmetic: i + 1 - 2*(i % 2).
        let scatter = Kernel {
            name: "scatter".into(),
            params: vec![
                scalar("n"),
                array_f32("idx", &[ext("n")]),
                array_f32("a", &[ext("n")]),
                array_f32("out", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store(
                    "out",
                    vec![to_i64(load("idx", vec![v("i")]))],
                    load("a", vec![v("i")]),
                ),
            ],
        };
        let ck = CompiledKernel::compile(&scatter).unwrap();
        assert!(!ck.is_partitionable(), "scatter must fail static checks");

        let n = 256usize;
        let mut rt = runtime(4);
        let idx = rt.malloc(n * 4, 4).unwrap();
        let a = rt.malloc(n * 4, 4).unwrap();
        let out = rt.malloc(n * 4, 4).unwrap();
        // Pairwise swap permutation.
        let perm: Vec<usize> = (0..n).map(|i| i ^ 1).collect();
        let idx_host: Vec<u8> = perm
            .iter()
            .flat_map(|&p| (p as f32).to_le_bytes())
            .collect();
        let a_host: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        rt.memcpy_h2d(idx, &idx_host).unwrap();
        rt.memcpy_h2d(a, &a_host).unwrap();
        let args = [
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Buf(idx),
            LaunchArg::Buf(a),
            LaunchArg::Buf(out),
        ];
        let grid = Dim3::new1(4);
        let block = Dim3::new1(64);
        // Static path refuses...
        assert!(rt.launch(&ck, grid, block, &args).is_err());
        // ...instrumented path succeeds and is correct.
        rt.launch_instrumented(&ck, grid, block, &args).unwrap();
        rt.synchronize();
        let mut host = vec![0u8; n * 4];
        rt.memcpy_d2h(out, &mut host).unwrap();
        let got = f32s(&host);
        for i in 0..n {
            assert_eq!(got[perm[i]], i as f32, "element {i}");
        }
    }

    #[test]
    fn instrumented_launch_detects_cross_partition_collisions() {
        // Every thread writes element 0: partitions collide; the
        // instrumentation must detect it after the fact.
        let bad = Kernel {
            name: "collide".into(),
            params: vec![
                scalar("n"),
                array_f32("idx", &[ext("n")]),
                array_f32("out", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("out", vec![to_i64(load("idx", vec![v("i")]))], f(1.0)),
            ],
        };
        let ck = CompiledKernel::compile(&bad).unwrap();
        let n = 128usize;
        let mut rt = runtime(4);
        let idx = rt.malloc(n * 4, 4).unwrap();
        let out = rt.malloc(n * 4, 4).unwrap();
        rt.memcpy_h2d(idx, &vec![0u8; n * 4]).unwrap(); // all zeros
        let args = [
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Buf(idx),
            LaunchArg::Buf(out),
        ];
        let err = rt
            .launch_instrumented(&ck, Dim3::new1(4), Dim3::new1(32), &args)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::NotPartitionable(_)), "{err}");
    }

    #[test]
    fn unpartitionable_kernel_is_rejected_then_fallback_works() {
        let bad = Kernel {
            name: "allzero".into(),
            params: vec![scalar("n"), array_f32("out", &[ext("n")])],
            body: vec![store("out", vec![i(0)], f(1.0))],
        };
        let ck = CompiledKernel::compile(&bad).unwrap();
        let mut rt = runtime(2);
        let n = 64usize;
        let out = rt.malloc(n * 4, 4).unwrap();
        let err = rt
            .launch(
                &ck,
                Dim3::new1(1),
                Dim3::new1(64),
                &[LaunchArg::Scalar(Value::I64(n as i64)), LaunchArg::Buf(out)],
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::NotPartitionable(_)));
        // The single-device fallback executes it correctly.
        rt.launch_unpartitioned(
            &ck,
            Dim3::new1(1),
            Dim3::new1(64),
            &[LaunchArg::Scalar(Value::I64(n as i64)), LaunchArg::Buf(out)],
            0,
        )
        .unwrap();
        rt.synchronize();
        let mut host = vec![0u8; n * 4];
        rt.memcpy_d2h(out, &mut host).unwrap();
        assert_eq!(f32s(&host)[0], 1.0);
    }

    #[test]
    fn argument_validation_catches_mismatches() {
        let ck = CompiledKernel::compile(&scale_kernel()).unwrap();
        let mut rt = runtime(2);
        let a = rt.malloc(100 * 4, 4).unwrap();
        let b = rt.malloc(100 * 4, 4).unwrap();
        // Wrong count.
        assert!(rt
            .launch(&ck, Dim3::new1(1), Dim3::new1(32), &[LaunchArg::Buf(a)])
            .is_err());
        // Scalar where array expected.
        assert!(rt
            .launch(
                &ck,
                Dim3::new1(1),
                Dim3::new1(32),
                &[
                    LaunchArg::Scalar(Value::I64(100)),
                    LaunchArg::Scalar(Value::I64(1)),
                    LaunchArg::Buf(b),
                ],
            )
            .is_err());
        // Buffer sized for n=100 but launched with n=200.
        assert!(matches!(
            rt.launch(
                &ck,
                Dim3::new1(1),
                Dim3::new1(32),
                &[
                    LaunchArg::Scalar(Value::I64(200)),
                    LaunchArg::Buf(a),
                    LaunchArg::Buf(b),
                ],
            ),
            Err(RuntimeError::SizeMismatch { .. })
        ));
        // A negative or overflowing extent is a typed error, not a
        // debug panic or a release wrap-around.
        for n in [-1, i64::MAX] {
            assert!(matches!(
                rt.launch(
                    &ck,
                    Dim3::new1(1),
                    Dim3::new1(32),
                    &[
                        LaunchArg::Scalar(Value::I64(n)),
                        LaunchArg::Buf(a),
                        LaunchArg::Buf(b),
                    ],
                ),
                Err(RuntimeError::BadArgument(_))
            ));
        }
    }

    #[test]
    fn beta_and_gamma_reduce_elapsed_time() {
        let ck = CompiledKernel::compile(&scale_kernel()).unwrap();
        let n = 1 << 16;
        let run = |cfg: RuntimeConfig| -> f64 {
            let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(4), false));
            rt.set_config(cfg);
            let a = rt.malloc(n * 4, 4).unwrap();
            let b = rt.malloc(n * 4, 4).unwrap();
            let data = vec![0u8; n * 4];
            rt.memcpy_h2d(a, &data).unwrap();
            for _ in 0..10 {
                rt.launch(
                    &ck,
                    Dim3::new1((n / 256) as u32),
                    Dim3::new1(256),
                    &[
                        LaunchArg::Scalar(Value::I64(n as i64)),
                        LaunchArg::Buf(a),
                        LaunchArg::Buf(b),
                    ],
                )
                .unwrap();
            }
            rt.synchronize();
            rt.elapsed()
        };
        let alpha = run(RuntimeConfig::alpha());
        let beta = run(RuntimeConfig::beta());
        let gamma = run(RuntimeConfig::gamma());
        assert!(alpha >= beta, "alpha {alpha} >= beta {beta}");
        assert!(beta >= gamma, "beta {beta} >= gamma {gamma}");
        assert!(gamma > 0.0);
    }

    #[test]
    fn transfer_plan_bridges_uninit_gaps_only() {
        use crate::tracker::Tracker;
        let mut t = Tracker::new(100);
        t.update(0, 10, Owner::Device(1));
        t.update(20, 30, Owner::Device(1));
        t.update(30, 40, Owner::Device(0));
        t.update(40, 50, Owner::Device(1));
        let walk = |plan: &mut TransferPlan| {
            t.query(0, 100, &mut |s, e, o| plan.visit(s, e, o));
        };
        // Generous gap budget: [0,10) and [20,30) bridge across the
        // Uninit hole, but never across the locally-owned [30,40).
        let mut plan = TransferPlan::new(0, 100, true);
        walk(&mut plan);
        assert_eq!(plan.copies, vec![(1, 0, 30), (1, 40, 50)]);
        // Gap budget smaller than the hole: no bridging.
        let mut plan = TransferPlan::new(0, 5, true);
        walk(&mut plan);
        assert_eq!(plan.copies, vec![(1, 0, 10), (1, 20, 30), (1, 40, 50)]);
        // From device 1's perspective only [30,40) is remote.
        let mut plan = TransferPlan::new(1, 100, true);
        walk(&mut plan);
        assert_eq!(plan.copies, vec![(0, 30, 40)]);
    }

    /// Replica-aware planning: segments the destination already holds are
    /// skipped (and counted as hits when the freshest copy is remote),
    /// and needed copies pull from the nearest valid holder rather than
    /// necessarily the freshest owner.
    #[test]
    fn transfer_plan_prefers_local_replica_and_nearest_holder() {
        use crate::tracker::Tracker;
        let mut t = Tracker::new(100);
        t.update(0, 40, Owner::Device(2));
        t.update(40, 80, Owner::Device(3));
        // Device 0 replicated the first half; devices 1 and 3 hold the
        // second half alongside its owner.
        t.add_holder(0, 40, 0);
        t.add_holder(40, 80, 1);
        let mut plan = TransferPlan::new(0, 0, true);
        t.query(0, 100, &mut |s, e, v| plan.visit(s, e, v));
        // [0,40) is served by device 0's replica — one hit, 40 bytes
        // saved. [40,80) needs a copy; holders {1,3} rank by link_hops
        // from 0: device 1 is the board partner (hops 1) and wins over
        // the freshest owner 3 (hops 2).
        assert_eq!(plan.replica_hits, 1);
        assert_eq!(plan.saved_bytes, 40);
        assert_eq!(plan.copies, vec![(1, 40, 80)]);
        // Replica mode off: the freshest owners are the only sources and
        // device 0's replica of [0,40) is invisible.
        let mut legacy = TransferPlan::new(0, 0, false);
        t.query(0, 100, &mut |s, e, v| legacy.visit(s, e, v));
        assert_eq!(legacy.replica_hits, 0);
        assert_eq!(legacy.copies, vec![(2, 0, 40), (3, 40, 80)]);
    }

    /// The headline effect of replica-aware coherence: a host-uploaded
    /// array a kernel only ever *reads* is fetched across the peer link
    /// exactly once per device. Single-owner tracking re-fetched the
    /// remote part of every read set on every launch.
    #[test]
    fn replicas_eliminate_steady_state_refetch_for_read_only_arrays() {
        let ck = CompiledKernel::compile(&stencil_kernel()).unwrap();
        let n = 512usize;
        // 4 blocks over 3 devices: partition boundaries (block-granular)
        // misalign with the linear 3-way H2D distribution, so every
        // device reads bytes another device received from the host.
        let grid = Dim3::new1(4);
        let block = Dim3::new1(128);
        let iters = 5;
        let run = |replica: bool| -> (Vec<u64>, u64, u64) {
            let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(3), false));
            rt.set_config(RuntimeConfig {
                replica_coherence: replica,
                ..RuntimeConfig::alpha()
            });
            let a = rt.malloc(n * 4, 4).unwrap();
            let b = rt.malloc(n * 4, 4).unwrap();
            rt.memcpy_h2d_sim(a).unwrap();
            let args = [
                LaunchArg::Scalar(Value::I64(n as i64)),
                LaunchArg::Buf(a),
                LaunchArg::Buf(b),
            ];
            let mut into_a = Vec::new();
            for _ in 0..iters {
                rt.launch(&ck, grid, block, &args).unwrap();
                into_a.push(rt.d2d_bytes_into(a));
            }
            let c = rt.machine().counters();
            (into_a, c.replica_hits, c.refetch_bytes_saved)
        };
        let (with, hits, saved) = run(true);
        let (without, legacy_hits, legacy_saved) = run(false);
        assert!(with[0] > 0, "first launch must distribute the halo reads");
        assert_eq!(
            with[iters - 1],
            with[0],
            "replicas must freeze remote refetch after the first launch: {with:?}"
        );
        assert!(hits > 0, "steady-state reads must be replica-served");
        assert!(saved > 0);
        assert_eq!(legacy_hits, 0, "no replicas without the config flag");
        assert_eq!(legacy_saved, 0);
        for w in without.windows(2) {
            assert!(
                w[1] - w[0] == without[0],
                "single-owner tracking re-fetches the same bytes every launch: {without:?}"
            );
        }
        assert_eq!(with[0], without[0], "first-launch traffic is identical");
    }

    /// Fragmented-tracker coalescing end to end: instrumented strided
    /// writes leave `out` as alternating Device/Uninit single-element
    /// segments; pulling it onto one device then needs one bridged copy
    /// per source instead of one per element.
    #[test]
    fn coalescing_collapses_fragmented_tracker_transfers() {
        let scatter = Kernel {
            name: "stride_scatter".into(),
            params: vec![
                scalar("n"),
                array_f32("idx", &[ext("n")]),
                array_f32("a", &[ext("n")]),
                array_f32("out", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n") / i(2))),
                store(
                    "out",
                    vec![to_i64(load("idx", vec![v("i")]))],
                    load("a", vec![v("i")]),
                ),
            ],
        };
        let ck = CompiledKernel::compile(&scatter).unwrap();
        let reader = CompiledKernel::compile(&scale_kernel()).unwrap();
        let n = 2048usize;
        let run = |coalesce: bool| -> (u64, f64) {
            let mut rt = runtime(4);
            rt.set_config(RuntimeConfig {
                coalesce_transfers: coalesce,
                ..RuntimeConfig::alpha()
            });
            let idx = rt.malloc(n * 4, 4).unwrap();
            let a = rt.malloc(n * 4, 4).unwrap();
            let out = rt.malloc(n * 4, 4).unwrap();
            let idx_host: Vec<u8> = (0..n)
                .flat_map(|i| ((2 * i) as f32).to_le_bytes())
                .collect();
            rt.memcpy_h2d(idx, &idx_host).unwrap();
            rt.memcpy_h2d(a, &vec![0u8; n * 4]).unwrap();
            rt.launch_instrumented(
                &ck,
                Dim3::new1(8),
                Dim3::new1(128),
                &[
                    LaunchArg::Scalar(Value::I64(n as i64)),
                    LaunchArg::Buf(idx),
                    LaunchArg::Buf(a),
                    LaunchArg::Buf(out),
                ],
            )
            .unwrap();
            assert!(rt.segment_count(out) > n / 2, "tracker must be fragmented");
            let res = rt.malloc(n * 4, 4).unwrap();
            let before = rt.machine().counters().d2d_copies;
            let t0 = rt.elapsed();
            rt.launch_unpartitioned(
                &reader,
                Dim3::new1(8),
                Dim3::new1(256),
                &[
                    LaunchArg::Scalar(Value::I64(n as i64)),
                    LaunchArg::Buf(out),
                    LaunchArg::Buf(res),
                ],
                0,
            )
            .unwrap();
            rt.synchronize();
            (
                rt.machine().counters().d2d_copies - before,
                rt.elapsed() - t0,
            )
        };
        let (copies_plain, time_plain) = run(false);
        let (copies_coalesced, time_coalesced) = run(true);
        // 3 remote devices hold ~n/8 single-element segments each.
        assert!(
            copies_plain > 500,
            "expected fragmentation, got {copies_plain}"
        );
        assert_eq!(copies_coalesced, 3, "one bridged copy per remote device");
        assert!(
            time_coalesced < time_plain,
            "saved latencies must show up: {time_coalesced} vs {time_plain}"
        );
    }

    /// Regression for the `windows(2)` collision check: a long range
    /// from device A followed by a short same-device range hid a later
    /// overlap with device B.
    #[test]
    fn cross_device_overlap_sees_past_adjacent_pairs() {
        // The exact pathological shape: (A,0,100), (A,10,20), (B,50,60).
        let mut claims = vec![(0usize, 0u64, 100u64), (0, 10, 20), (1, 50, 60)];
        assert_eq!(cross_device_overlap(&mut claims), Some((0, 1)));
        // Runner-up end matters too: the leader may be the same device
        // as the claim under test.
        let mut claims = vec![
            (0usize, 0u64, 300u64),
            (1, 350, 500),
            (1, 360, 370),
            (0, 400, 410),
        ];
        assert_eq!(cross_device_overlap(&mut claims), Some((1, 0)));
        // Same-device overlap is not a cross-partition hazard.
        let mut claims = vec![(0usize, 0u64, 100u64), (0, 10, 20), (1, 100, 160)];
        assert_eq!(cross_device_overlap(&mut claims), None);
        // Disjoint per-device bands (the normal partitioned shape).
        let mut claims = vec![(0usize, 0u64, 50u64), (1, 50, 100), (2, 100, 150)];
        assert_eq!(cross_device_overlap(&mut claims), None);
        // Touching endpoints do not overlap; empty claims never do.
        let mut claims = vec![(0usize, 0u64, 50u64), (1, 50, 50), (1, 30, 30)];
        assert_eq!(cross_device_overlap(&mut claims), None);
    }

    /// End-to-end: an instrumented scatter where device 1's writes land
    /// strictly *inside* device 0's long claimed run (a partial overlap,
    /// not the everyone-writes-element-0 shape of the test above) is
    /// rejected as a cross-partition collision.
    #[test]
    fn instrumented_launch_detects_nested_range_collision() {
        let scatter = Kernel {
            name: "nested_scatter".into(),
            params: vec![
                scalar("n"),
                array_f32("idx", &[ext("n")]),
                array_f32("out", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("out", vec![to_i64(load("idx", vec![v("i")]))], f(1.0)),
            ],
        };
        let ck = CompiledKernel::compile(&scatter).unwrap();
        let n = 128usize;
        let mut rt = runtime(2);
        let idx = rt.malloc(n * 4, 4).unwrap();
        let out = rt.malloc(n * 4, 4).unwrap();
        // Device 0 runs threads 0..64 and writes elements 0..64 (one
        // long run). Device 1 runs threads 64..128 and writes 32..48
        // via (i-64)/4 + 32 — strictly inside device 0's run.
        let perm: Vec<usize> = (0..n)
            .map(|i| if i < 64 { i } else { (i - 64) / 4 + 32 })
            .collect();
        let idx_host: Vec<u8> = perm
            .iter()
            .flat_map(|&p| (p as f32).to_le_bytes())
            .collect();
        rt.memcpy_h2d(idx, &idx_host).unwrap();
        let err = rt
            .launch_instrumented(
                &ck,
                Dim3::new1(2),
                Dim3::new1(64),
                &[
                    LaunchArg::Scalar(Value::I64(n as i64)),
                    LaunchArg::Buf(idx),
                    LaunchArg::Buf(out),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::NotPartitionable(_)), "{err}");
    }

    /// Capture/replay on the ping-pong stencil: after the trackers reach
    /// their periodic fixed point (two keys per phase), every further
    /// launch replays. Simulated transfer bytes and launch counts must
    /// be identical with capture on and off; host pattern time and
    /// elapsed time must strictly drop.
    #[test]
    fn plan_cache_replays_steady_state_launches() {
        let ck = CompiledKernel::compile(&stencil_kernel()).unwrap();
        let n = 512usize;
        let iters = 10;
        let run = |capture: bool| {
            let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(3), false));
            rt.set_config(RuntimeConfig {
                capture_plans: capture,
                ..RuntimeConfig::beta()
            });
            let a = rt.malloc(n * 4, 4).unwrap();
            let b = rt.malloc(n * 4, 4).unwrap();
            rt.memcpy_h2d_sim(a).unwrap();
            rt.memcpy_h2d_sim(b).unwrap();
            let (mut src, mut dst) = (a, b);
            for _ in 0..iters {
                rt.launch(
                    &ck,
                    Dim3::new1(4),
                    Dim3::new1(128),
                    &[
                        LaunchArg::Scalar(Value::I64(n as i64)),
                        LaunchArg::Buf(src),
                        LaunchArg::Buf(dst),
                    ],
                )
                .unwrap();
                std::mem::swap(&mut src, &mut dst);
            }
            rt.synchronize();
            (
                rt.elapsed(),
                rt.machine().breakdown(),
                rt.machine().counters(),
            )
        };
        let (t_off, bd_off, c_off) = run(false);
        let (t_on, bd_on, c_on) = run(true);
        // Phases: (a→b, b fresh), (b→a, a fresh), (a→b, steady),
        // (b→a, steady) — 4 misses, then hits only.
        assert_eq!(c_on.plan_misses, 4, "{c_on:?}");
        assert_eq!(c_on.plan_hits as usize, iters - 4, "{c_on:?}");
        assert_eq!(c_off.plan_hits, 0);
        // Identical simulated work.
        assert_eq!(c_on.launches, c_off.launches);
        assert_eq!(c_on.d2d_copies, c_off.d2d_copies);
        assert_eq!(c_on.d2d_bytes, c_off.d2d_bytes);
        // Replay must be strictly cheaper on the host.
        assert!(
            bd_on.pattern < bd_off.pattern,
            "pattern {} !< {}",
            bd_on.pattern,
            bd_off.pattern
        );
        // Elapsed never regresses (the device-side critical path may hide
        // the host savings entirely — here the kernels dominate).
        assert!(t_on <= t_off, "elapsed {t_on} > {t_off}");
        assert_eq!(bd_on.app, bd_off.app);
    }

    /// The cache key embeds tracker signatures, so dirtying a read
    /// buffer with an H2D between iterations changes the key and forces
    /// a re-capture — content-addressed invalidation, no epochs to wire.
    #[test]
    fn plan_cache_invalidates_when_h2d_dirties_read_buffer() {
        let ck = CompiledKernel::compile(&stencil_kernel()).unwrap();
        let n = 512usize;
        // 3 devices: the linear H2D layout (171/171/170 elements) differs
        // from the write-partition layout (256/128/128), so the memcpy
        // really changes the tracker structure.
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(3), false));
        rt.set_config(RuntimeConfig::beta());
        let a = rt.malloc(n * 4, 4).unwrap();
        let b = rt.malloc(n * 4, 4).unwrap();
        rt.memcpy_h2d_sim(a).unwrap();
        rt.memcpy_h2d_sim(b).unwrap();
        let launch = |rt: &mut MgpuRuntime, src: VBufId, dst: VBufId| {
            rt.launch(
                &ck,
                Dim3::new1(4),
                Dim3::new1(128),
                &[
                    LaunchArg::Scalar(Value::I64(n as i64)),
                    LaunchArg::Buf(src),
                    LaunchArg::Buf(dst),
                ],
            )
            .unwrap();
        };
        let (mut src, mut dst) = (a, b);
        for _ in 0..10 {
            launch(&mut rt, src, dst);
            std::mem::swap(&mut src, &mut dst);
        }
        let before = rt.machine().counters();
        assert!(before.plan_hits > 0);
        // Dirty the buffer the next launch reads.
        rt.memcpy_h2d_sim(src).unwrap();
        launch(&mut rt, src, dst);
        let after = rt.machine().counters();
        assert_eq!(
            after.plan_misses,
            before.plan_misses + 1,
            "H2D must force a re-capture"
        );
        assert_eq!(after.plan_hits, before.plan_hits);
    }

    /// Functional equivalence: with capture on, the replayed copies and
    /// launches must produce byte-identical results to the uncached
    /// sequence (and to the CPU reference).
    #[test]
    fn capture_replay_preserves_functional_results() {
        let ck = CompiledKernel::compile(&stencil_kernel()).unwrap();
        let n = 384usize;
        let iters = 9;
        let init: Vec<f32> = (0..n).map(|i| ((i * 53) % 89) as f32).collect();
        let init_bytes: Vec<u8> = init.iter().flat_map(|v| v.to_le_bytes()).collect();
        let run = |capture: bool| -> Vec<u8> {
            let mut rt = runtime(4);
            rt.set_config(RuntimeConfig {
                capture_plans: capture,
                ..RuntimeConfig::alpha()
            });
            let a = rt.malloc(n * 4, 4).unwrap();
            let b = rt.malloc(n * 4, 4).unwrap();
            rt.memcpy_h2d(a, &init_bytes).unwrap();
            rt.memcpy_h2d(b, &init_bytes).unwrap();
            let (mut src, mut dst) = (a, b);
            for _ in 0..iters {
                rt.launch(
                    &ck,
                    Dim3::new1(6),
                    Dim3::new1(64),
                    &[
                        LaunchArg::Scalar(Value::I64(n as i64)),
                        LaunchArg::Buf(src),
                        LaunchArg::Buf(dst),
                    ],
                )
                .unwrap();
                std::mem::swap(&mut src, &mut dst);
            }
            rt.synchronize();
            if capture {
                let c = rt.machine().counters();
                assert!(c.plan_hits > 0, "expected replays, got {c:?}");
            }
            let mut out = vec![0u8; n * 4];
            rt.memcpy_d2h(src, &mut out).unwrap();
            out
        };
        let plain = run(false);
        let replayed = run(true);
        assert_eq!(plain, replayed, "replay diverged from the full path");
        let want = stencil_reference(&init, iters);
        let got = f32s(&replayed);
        for i in 0..n {
            assert!((got[i] - want[i]).abs() < 1e-4, "element {i}");
        }
    }

    #[test]
    fn set_config_flushes_captured_plans() {
        let ck = CompiledKernel::compile(&scale_kernel()).unwrap();
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(2), false));
        rt.set_config(RuntimeConfig::beta());
        let n = 1024usize;
        let a = rt.malloc(n * 4, 4).unwrap();
        let b = rt.malloc(n * 4, 4).unwrap();
        rt.memcpy_h2d_sim(a).unwrap();
        let args = [
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Buf(a),
            LaunchArg::Buf(b),
        ];
        for _ in 0..3 {
            rt.launch(&ck, Dim3::new1(8), Dim3::new1(128), &args)
                .unwrap();
        }
        assert!(!rt.plan_cache.borrow().is_empty());
        assert!(rt.machine().counters().plan_hits > 0);
        rt.set_config(RuntimeConfig::alpha());
        assert_eq!(
            rt.plan_cache.borrow().len(),
            0,
            "config change must flush plans"
        );
    }

    /// `plan_cache_capacity` bounds the cache with LRU eviction: the
    /// stencil ping-pong alternates between 2 steady-state plans, so a
    /// capacity of 1 keeps evicting the plan about to be replayed and
    /// every launch misses, while the counters record each eviction.
    /// Unbounded (0) and generous capacities never evict.
    #[test]
    fn plan_cache_capacity_evicts_lru_and_counts() {
        let ck = CompiledKernel::compile(&stencil_kernel()).unwrap();
        let n = 512usize;
        let iters = 10;
        let run = |capacity: usize| {
            let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(3), false));
            rt.set_config(RuntimeConfig {
                plan_cache_capacity: capacity,
                ..RuntimeConfig::beta()
            });
            let a = rt.malloc(n * 4, 4).unwrap();
            let b = rt.malloc(n * 4, 4).unwrap();
            rt.memcpy_h2d_sim(a).unwrap();
            rt.memcpy_h2d_sim(b).unwrap();
            let (mut src, mut dst) = (a, b);
            for _ in 0..iters {
                rt.launch(
                    &ck,
                    Dim3::new1(4),
                    Dim3::new1(128),
                    &[
                        LaunchArg::Scalar(Value::I64(n as i64)),
                        LaunchArg::Buf(src),
                        LaunchArg::Buf(dst),
                    ],
                )
                .unwrap();
                std::mem::swap(&mut src, &mut dst);
            }
            rt.synchronize();
            let len = rt.plan_cache.borrow().len();
            (rt.machine().counters(), len)
        };
        let (tight, len_tight) = run(1);
        assert!(len_tight <= 1, "cache exceeded its capacity: {len_tight}");
        assert!(tight.plan_evictions > 0, "{tight:?}");
        assert_eq!(tight.plan_hits, 0, "thrashing cache cannot hit: {tight:?}");
        assert_eq!(tight.plan_misses as usize, iters);

        let (unbounded, _) = run(0);
        assert_eq!(unbounded.plan_evictions, 0, "{unbounded:?}");
        let (generous, len_generous) = run(1024);
        assert_eq!(generous.plan_evictions, 0, "{generous:?}");
        assert_eq!(len_generous, 4, "steady state holds 4 plans");
        assert_eq!(generous.plan_hits, unbounded.plan_hits);
    }

    /// Autotuned launches must stay functionally identical to the fixed
    /// heuristic: same stencil, same reference results — only the grid
    /// slicing is chosen by the cost model.
    #[test]
    fn autotuned_stencil_stays_coherent_and_records_a_choice() {
        let ck = CompiledKernel::compile(&stencil_kernel()).unwrap();
        let n = 512usize;
        let iters = 8;
        let init: Vec<f32> = (0..n).map(|i| ((i * 13) % 97) as f32).collect();
        let init_bytes: Vec<u8> = init.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut rt = runtime(4);
        rt.set_config(RuntimeConfig::tuned());
        let a = rt.malloc(n * 4, 4).unwrap();
        let b = rt.malloc(n * 4, 4).unwrap();
        rt.memcpy_h2d(a, &init_bytes).unwrap();
        rt.memcpy_h2d(b, &init_bytes).unwrap();
        let (mut src, mut dst) = (a, b);
        for _ in 0..iters {
            rt.launch(
                &ck,
                Dim3::new1(4),
                Dim3::new1(128),
                &[
                    LaunchArg::Scalar(Value::I64(n as i64)),
                    LaunchArg::Buf(src),
                    LaunchArg::Buf(dst),
                ],
            )
            .unwrap();
            std::mem::swap(&mut src, &mut dst);
        }
        rt.synchronize();
        let mut out = vec![0u8; n * 4];
        rt.memcpy_d2h(src, &mut out).unwrap();
        let want = stencil_reference(&init, iters);
        let got = f32s(&out);
        for i in 0..n {
            assert!((got[i] - want[i]).abs() < 1e-4, "element {i}");
        }
        // A decision was recorded and surfaced through the counters…
        let c = rt.machine().counters();
        assert_ne!(c.strategy_chosen, 0, "no tuner decision in {c:?}");
        // …and the report shows one entry per ping-pong phase direction
        // (same kernel+geometry+scalars: exactly one key).
        let report = rt.tuner_report();
        assert_eq!(report.len(), 1, "{report:?}");
        assert_eq!(report[0].kernel, "stencil");
        assert!(report[0].launches >= iters as u64 - 1);
        // The counters round-trip the decision (a 512-element stencil is
        // overhead-bound, so the tuner may legitimately keep one device —
        // the *choice* is the model's to make, coherence is ours).
        assert_eq!(
            mekong_tuner::decode_strategy(c.strategy_chosen).as_deref(),
            Some(report[0].strategy.as_str())
        );
    }

    /// A forced strategy bypasses both the heuristic and the tuner; the
    /// written buffer's tracker shows exactly that many slices.
    #[test]
    fn forced_strategy_pins_the_partitioning() {
        let ck = CompiledKernel::compile(&scale_kernel()).unwrap();
        let mut rt = runtime(4);
        rt.force_strategy("scale", PartitionStrategy::even(SplitAxis::X, 2));
        let n = 1024usize;
        let a = rt.malloc(n * 4, 4).unwrap();
        let b = rt.malloc(n * 4, 4).unwrap();
        rt.memcpy_h2d(a, &vec![0u8; n * 4]).unwrap();
        let args = [
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Buf(a),
            LaunchArg::Buf(b),
        ];
        rt.launch(&ck, Dim3::new1(8), Dim3::new1(128), &args)
            .unwrap();
        // Only 2 of 4 devices wrote: two tracker segments.
        assert_eq!(rt.segment_count(b), 2);
        rt.clear_forced_strategy("scale");
        rt.launch(&ck, Dim3::new1(8), Dim3::new1(128), &args)
            .unwrap();
        assert_eq!(rt.segment_count(b), 4, "heuristic restored after clear");
    }

    /// Measured traffic flows back into the tuner: after a completed
    /// window the report carries measured bytes, and for the stencil the
    /// static prediction must be close to what actually moved.
    #[test]
    fn autotune_measurement_window_reports_bytes() {
        let ck = CompiledKernel::compile(&stencil_kernel()).unwrap();
        // Large enough that splitting beats one device despite the
        // host-staged link's per-copy latency.
        let n = 1usize << 22;
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(4), false));
        rt.set_config(RuntimeConfig::tuned());
        let a = rt.malloc(n * 4, 4).unwrap();
        let b = rt.malloc(n * 4, 4).unwrap();
        rt.memcpy_h2d_sim(a).unwrap();
        rt.memcpy_h2d_sim(b).unwrap();
        let (mut src, mut dst) = (a, b);
        for _ in 0..12 {
            rt.launch(
                &ck,
                Dim3::new1((n / 256) as u32),
                Dim3::new1(256),
                &[
                    LaunchArg::Scalar(Value::I64(n as i64)),
                    LaunchArg::Buf(src),
                    LaunchArg::Buf(dst),
                ],
            )
            .unwrap();
            std::mem::swap(&mut src, &mut dst);
        }
        let report = rt.tuner_report();
        assert_eq!(report.len(), 1);
        let r = &report[0];
        assert!(
            !r.strategy.ends_with(":1"),
            "a 4M-element stencil must be split: {r:?}"
        );
        let measured = r.measured_bytes.expect("window must have completed");
        assert_eq!(rt.machine().counters().tuner_measured_bytes, measured);
        // Steady state: each interior partition pulls a 1-element halo
        // from each neighbour. Prediction and measurement agree within
        // the refinement tolerance (no switch recorded).
        assert_eq!(r.switches, 0, "{r:?}");
        assert!(measured > 0, "halo exchange must be visible");
        let (p, m) = (r.predicted_bytes as f64, measured as f64);
        assert!(
            (p - m).abs() <= 0.10 * m.max(1.0),
            "prediction {p} vs measured {m}"
        );
    }

    #[test]
    fn tracker_reflects_partition_writes() {
        let ck = CompiledKernel::compile(&scale_kernel()).unwrap();
        let mut rt = runtime(4);
        let n = 1024usize;
        let a = rt.malloc(n * 4, 4).unwrap();
        let b = rt.malloc(n * 4, 4).unwrap();
        rt.memcpy_h2d(a, &vec![0u8; n * 4]).unwrap();
        rt.launch(
            &ck,
            Dim3::new1(8),
            Dim3::new1(128),
            &[
                LaunchArg::Scalar(Value::I64(n as i64)),
                LaunchArg::Buf(a),
                LaunchArg::Buf(b),
            ],
        )
        .unwrap();
        // 1:1 write pattern -> exactly one segment per device (§8.1).
        assert_eq!(rt.segment_count(b), 4);
    }

    /// Regression guard for the replica-awareness of whole-buffer syncs
    /// (suspected to predate replica coherence; they do not — they run
    /// through the same replica-aware [`TransferPlan`] as the read-sync
    /// path). Held segments must be skipped and counted as hits, not
    /// re-copied from `freshest`.
    #[test]
    fn sync_whole_buffer_serves_held_segments_from_replicas() {
        let mut rt = runtime(2);
        let n = 100usize;
        let b = rt.malloc(n * 4, 4).unwrap();
        let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        rt.memcpy_h2d(b, &data).unwrap();
        // Linear split: device 0 owns [0,200), device 1 [200,400).
        // Replicate device 1's half onto device 0 and record the holder.
        let (i0, i1) = (
            rt.buffers[b.index()].instances[0],
            rt.buffers[b.index()].instances[1],
        );
        rt.machine
            .copy_d2d(i1, i0, CopyRuns::contiguous(200, 200, 200), None)
            .unwrap();
        rt.machine.sync_all();
        rt.buffers[b.index()].tracker.add_holder(200, 400, 0);
        // Device 0 already holds everything: a full sync must move no
        // bytes and count the remote-fresh half as a replica hit.
        let (plan, walk) = rt.plan_whole_syncs(&[LaunchArg::Buf(b)], 0..1);
        assert!(
            plan.copies.is_empty(),
            "held segments must not be re-copied"
        );
        assert_eq!((plan.replica_hits, plan.replica_saved_bytes), (1, 200));
        assert_eq!(walk.syncs.len(), 1, "the walk still pays for the query");
        // And with replica coherence off, the same sync re-fetches.
        rt.set_config(RuntimeConfig {
            replica_coherence: false,
            ..RuntimeConfig::default()
        });
        let (plan, _) = rt.plan_whole_syncs(&[LaunchArg::Buf(b)], 0..1);
        assert_eq!(plan.copies.len(), 1);
        assert_eq!(plan.replica_hits, 0);
    }

    /// Whole-buffer syncs are planned against the holders the previous
    /// syncs of the same launch add, the way they would land one by one.
    /// Device 1 pulls the third from its board partner 0, which just
    /// received it, instead of from device 2; device 2 then pulls the
    /// first two thirds as one copy from device 0; and a second binding
    /// of the same buffer finds everything held.
    #[test]
    fn whole_buffer_syncs_see_the_holders_of_earlier_syncs() {
        let mut rt = runtime(3);
        let b = rt.malloc(48, 4).unwrap();
        rt.memcpy_h2d(b, &[0u8; 48]).unwrap();
        let before = rt.tracker(b).signature();
        let (plan, walk) = rt.plan_whole_syncs(&[LaunchArg::Buf(b)], 0..3);
        let copies: Vec<_> = plan
            .copies
            .iter()
            .map(|c| (c.src_dev, c.dst_gpu, c.start, c.end))
            .collect();
        assert_eq!(
            copies,
            [
                (1, 0, 16, 32),
                (2, 0, 32, 48),
                (0, 1, 0, 16),
                (0, 1, 32, 48),
                (0, 2, 0, 32)
            ]
        );
        assert_eq!(walk.syncs.len(), 3);
        assert_eq!(
            rt.tracker(b).signature(),
            before,
            "planning mutates nothing"
        );
        let (plan, _) = rt.plan_whole_syncs(&[LaunchArg::Buf(b), LaunchArg::Buf(b)], 0..3);
        assert_eq!(plan.copies.len(), 5, "the second binding copies nothing");
        assert_eq!(plan.replica_hits, 6, "two remote-fresh thirds per device");
    }

    /// A fallback launch onto a device the machine does not have is a
    /// typed error raised before any flush, copy or charge — for fresh
    /// buffers and for uploaded ones, which would need copies.
    #[test]
    fn fallback_onto_a_missing_device_is_refused_untouched() {
        let ck = CompiledKernel::compile(&scale_kernel()).unwrap();
        let mut rt = runtime(2);
        let n = 64usize;
        let a = rt.malloc(n * 4, 4).unwrap();
        let b = rt.malloc(n * 4, 4).unwrap();
        let args = [
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Buf(a),
            LaunchArg::Buf(b),
        ];
        let state = |rt: &MgpuRuntime| {
            (
                rt.elapsed().to_bits(),
                rt.machine().counters(),
                [a, b].map(|x| rt.tracker(x).segments_in(0, (n * 4) as u64)),
            )
        };
        for upload in [false, true] {
            if upload {
                rt.memcpy_h2d(a, &vec![0u8; n * 4]).unwrap();
            }
            let before = state(&rt);
            let err = rt
                .launch_unpartitioned(&ck, Dim3::new1(1), Dim3::new1(64), &args, 2)
                .unwrap_err();
            assert!(matches!(err, RuntimeError::BadArgument(_)), "{err}");
            assert_eq!(state(&rt), before, "uploaded: {upload}");
        }
    }

    /// A functional kernel that fails is a typed error of the launch
    /// that ran it: the download still works and `synchronize`
    /// afterwards has nothing left to raise.
    #[test]
    fn functional_kernel_failure_is_an_error_of_its_launch() {
        let oob = Kernel {
            name: "oob".into(),
            params: vec![scalar("n"), array_f32("y", &[ext("n")])],
            body: vec![store("y", vec![i(1 << 20)], f(1.0))],
        };
        let ck = CompiledKernel::compile(&oob).unwrap();
        let mut rt = runtime(2);
        let n = 64usize;
        let y = rt.malloc(n * 4, 4).unwrap();
        rt.memcpy_h2d(y, &vec![7u8; n * 4]).unwrap();
        let args = [LaunchArg::Scalar(Value::I64(n as i64)), LaunchArg::Buf(y)];
        let err = rt
            .launch_unpartitioned(&ck, Dim3::new1(1), Dim3::new1(1), &args, 0)
            .unwrap_err();
        assert!(
            matches!(
                &err,
                RuntimeError::Sim(SimError::Kernel(KernelError::OutOfBounds { array, .. }))
                    if array == "y"
            ),
            "{err}"
        );
        let mut out = vec![0u8; n * 4];
        rt.memcpy_d2h(y, &mut out).unwrap();
        assert_eq!(out, vec![7u8; n * 4], "the failed grid landed no byte");
        rt.synchronize();
    }

    /// Forced-strategy launches must not feed the autotuner's measurement
    /// windows (they run a strategy the tuner did not choose), and
    /// forcing/clearing resets any half-filled window.
    #[test]
    fn forced_launches_do_not_pollute_tuner_windows() {
        let ck = CompiledKernel::compile(&scale_kernel()).unwrap();
        let mut rt = runtime(2);
        rt.set_config(RuntimeConfig::tuned());
        let n = 1024usize;
        let a = rt.malloc(n * 4, 4).unwrap();
        let b = rt.malloc(n * 4, 4).unwrap();
        rt.memcpy_h2d(a, &vec![0u8; n * 4]).unwrap();
        let args = [
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Buf(a),
            LaunchArg::Buf(b),
        ];
        let (grid, block) = (Dim3::new1(8), Dim3::new1(128));
        // One tuned launch creates the entry (and burns the settle).
        rt.launch(&ck, grid, block, &args).unwrap();
        let key = TuneKey {
            kernel: "scale".into(),
            grid,
            block,
            scalars: vec![n as i64],
        };
        let launches_before = rt.tuner().entry(&key).unwrap().launches;
        // Pin a strategy and launch enough times to complete a window if
        // these were recorded.
        use mekong_analysis::SplitAxis;
        rt.force_strategy("scale", PartitionStrategy::even(SplitAxis::X, 2));
        for _ in 0..6 {
            rt.launch(&ck, grid, block, &args).unwrap();
        }
        let e = rt.tuner().entry(&key).unwrap();
        assert_eq!(
            e.launches, launches_before,
            "forced launches must not be recorded against the tuner entry"
        );
        assert_eq!(e.measured_bytes(), None, "no window may complete");
        // Lifting the override resumes clean recording.
        rt.clear_forced_strategy("scale");
        for _ in 0..6 {
            rt.launch(&ck, grid, block, &args).unwrap();
        }
        assert!(rt.tuner().entry(&key).unwrap().launches > launches_before);
    }

    /// The launch-ahead pipeline hides halo-exchange latency behind
    /// compute: steady-state replays of a ping-pong stencil finish
    /// faster with a window than fully synchronous, with identical
    /// counters and plan hit rates.
    #[test]
    fn launch_ahead_overlaps_replayed_halo_exchange() {
        let ck = CompiledKernel::compile(&stencil_kernel()).unwrap();
        let n = 1 << 20;
        let iters = 12;
        let grid = Dim3::new1((n as u32) / 256);
        let block = Dim3::new1(256);
        let run = |ahead: u32| {
            let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(4), false));
            rt.set_config(RuntimeConfig {
                capture_plans: true,
                launch_ahead: ahead,
                ..RuntimeConfig::default()
            });
            let a = rt.malloc(n * 4, 4).unwrap();
            let b = rt.malloc(n * 4, 4).unwrap();
            rt.memcpy_h2d_sim(a).unwrap();
            rt.memcpy_h2d_sim(b).unwrap();
            rt.machine_mut().reset_clock();
            let (mut src, mut dst) = (a, b);
            for _ in 0..iters {
                rt.launch(
                    &ck,
                    grid,
                    block,
                    &[
                        LaunchArg::Scalar(Value::I64(n as i64)),
                        LaunchArg::Buf(src),
                        LaunchArg::Buf(dst),
                    ],
                )
                .unwrap();
                std::mem::swap(&mut src, &mut dst);
            }
            rt.synchronize();
            (rt.elapsed(), rt.machine().counters())
        };
        let (t_sync, c_sync) = run(0);
        let (t_pipe, c_pipe) = run(2);
        assert_eq!(c_sync, c_pipe, "pipelining must not change any counter");
        assert!(
            t_pipe < t_sync,
            "launch-ahead must hide transfer latency: {t_pipe} vs {t_sync}"
        );
    }

    /// A D2H gather of a buffer nothing in flight writes must not drain
    /// the launch-ahead window: the spectator's bytes come back exactly
    /// as uploaded and the in-flight depth is preserved, while
    /// gathering the ping-pong buffer itself still forces the
    /// conservative full flush.
    #[test]
    fn cold_buffer_gather_keeps_the_window_in_flight() {
        let ck = CompiledKernel::compile(&stencil_kernel()).unwrap();
        let mut rt = runtime(4);
        rt.set_config(RuntimeConfig {
            capture_plans: true,
            launch_ahead: 2,
            ..RuntimeConfig::default()
        });
        let n = 4096usize;
        let grid = Dim3::new1((n as u32) / 256);
        let block = Dim3::new1(256);
        let a = rt.malloc(n * 4, 4).unwrap();
        let b = rt.malloc(n * 4, 4).unwrap();
        let spectator = rt.malloc(n * 4, 4).unwrap();
        let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let marker: Vec<u8> = (0..n)
            .flat_map(|i| (0.5 * i as f32).to_le_bytes())
            .collect();
        rt.memcpy_h2d(a, &data).unwrap();
        rt.memcpy_h2d(b, &data).unwrap();
        rt.memcpy_h2d(spectator, &marker).unwrap();
        let (mut src, mut dst) = (a, b);
        for _ in 0..8 {
            rt.launch(
                &ck,
                grid,
                block,
                &[
                    LaunchArg::Scalar(Value::I64(n as i64)),
                    LaunchArg::Buf(src),
                    LaunchArg::Buf(dst),
                ],
            )
            .unwrap();
            std::mem::swap(&mut src, &mut dst);
        }
        let depth = rt.pipeline.depth();
        assert!(depth > 0, "steady-state replays must be in flight");
        let mut out = vec![0u8; n * 4];
        rt.memcpy_d2h(spectator, &mut out).unwrap();
        assert_eq!(out, marker, "cold gather must be byte-identical");
        assert_eq!(
            rt.pipeline.depth(),
            depth,
            "cold gather must not drain the window"
        );
        // Both ping-pong buffers have in-flight writers: gathering one
        // takes the conservative flush and empties the window.
        rt.memcpy_d2h(src, &mut out).unwrap();
        assert_eq!(rt.pipeline.depth(), 0, "hot gather must flush");
    }

    /// `y[i] = alpha * x[i]` with a float `alpha`.
    fn axpy_kernel() -> Kernel {
        Kernel {
            name: "axpy".into(),
            params: vec![
                scalar("n"),
                scalar_f32("alpha"),
                array_f32("x", &[ext("n")]),
                array_f32("y", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("y", vec![v("i")], v("alpha") * load("x", vec![v("i")])),
            ],
        }
    }

    /// A launch site is keyed like a tuner decision and lives exactly as
    /// long as the decisions it caches: a drifting float scalar mints
    /// plans, not sites; `set_config` and `set_plan_cache` drop every
    /// site; and a kernel of the same name with other safety facts is
    /// resolved afresh rather than handed the first one's verdict.
    #[test]
    fn sites_are_per_tune_key_and_follow_decision_changes() {
        let ck = CompiledKernel::compile(&axpy_kernel()).unwrap();
        let mut rt = runtime(4);
        rt.set_config(RuntimeConfig {
            capture_plans: true,
            ..RuntimeConfig::default()
        });
        let n = 1024usize;
        let x = rt.malloc(n * 4, 4).unwrap();
        let y = rt.malloc(n * 4, 4).unwrap();
        rt.memcpy_h2d(x, &vec![0u8; n * 4]).unwrap();
        let launch = |rt: &mut MgpuRuntime, ck: &CompiledKernel, alpha: f32| {
            rt.launch(
                ck,
                Dim3::new1(8),
                Dim3::new1(128),
                &[
                    LaunchArg::Scalar(Value::I64(n as i64)),
                    LaunchArg::Scalar(Value::F32(alpha)),
                    LaunchArg::Buf(x),
                    LaunchArg::Buf(y),
                ],
            )
        };
        for step in 0..6 {
            launch(&mut rt, &ck, 1.0 + step as f32).unwrap();
        }
        assert_eq!(rt.sites.len(), 1, "a float scalar is 0 in the site key");
        let c = rt.machine().counters();
        // Every alpha is a plan key of its own.
        assert_eq!((c.plan_hits, c.plan_misses), (0, 6));
        launch(&mut rt, &ck, 6.0).unwrap();
        assert_eq!(rt.machine().counters().plan_hits, 1, "same bits, same plan");

        rt.set_plan_cache(std::rc::Rc::new(std::cell::RefCell::new(
            crate::PlanCache::new(0),
        )));
        assert!(rt.sites.is_empty(), "set_plan_cache drops sites");
        launch(&mut rt, &ck, 6.0).unwrap();
        assert_eq!(rt.sites.len(), 1);
        rt.set_config(RuntimeConfig {
            capture_plans: true,
            ..RuntimeConfig::default()
        });
        assert!(rt.sites.is_empty(), "set_config drops sites");
        launch(&mut rt, &ck, 6.0).unwrap();

        // Same name, no proven axis: the cached `Proven` must not apply.
        let mut unproven = ck.clone();
        unproven.safe_axes = mekong_check::AxisMask::none();
        let rejected = rt.machine().counters().checked_rejected;
        assert!(matches!(
            launch(&mut rt, &unproven, 6.0),
            Err(RuntimeError::NotPartitionable(_))
        ));
        assert_eq!(rt.machine().counters().checked_rejected, rejected + 1);
        launch(&mut rt, &ck, 6.0).unwrap();
    }
}
