//! Virtual buffers and the CUDA-replacement runtime object.

use crate::cache::ShardedPlanCache;
use crate::launch::LaunchSite;
use crate::plan::PlanKey;
use crate::tracker::{Owner, Tracker, Validity};
use crate::{Result, RuntimeError};
use mekong_gpusim::{Backend, DevBuf, SimArg, SimTime, TimeCat};
use mekong_kernel::Dim3;
use mekong_tuner::{Autotuner, PartitionStrategy, TuneKey};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to a virtual buffer — the value the rewritten application holds
/// where the original held a device pointer.
///
/// The raw id packs a 32-bit **namespace** (high bits) over a 32-bit
/// buffer index (low bits). A standalone runtime lives in namespace 0,
/// where handle and index coincide — `VBufId(3)` is buffer 3, exactly as
/// before. A multi-tenant server gives every tenant runtime its own
/// namespace ([`MgpuRuntime::set_namespace`]); handles then carry their
/// tenant's prefix and a foreign handle fails the liveness check instead
/// of silently aliasing another tenant's tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VBufId(pub usize);

impl VBufId {
    /// Assemble a handle from a namespace and a buffer index.
    pub fn with_namespace(ns: u32, index: usize) -> VBufId {
        debug_assert!(index <= u32::MAX as usize, "buffer index exceeds 32 bits");
        VBufId((((ns as u64) << 32) | index as u64) as usize)
    }

    /// The namespace prefix (0 for standalone runtimes).
    pub fn namespace(self) -> u32 {
        ((self.0 as u64) >> 32) as u32
    }

    /// The namespace-local buffer index — the position in the owning
    /// runtime's buffer table.
    pub fn index(self) -> usize {
        ((self.0 as u64) & 0xffff_ffff) as usize
    }

    /// The namespace-stripped form of this handle. Captured plans store
    /// local ids so a plan is portable across tenants: identical
    /// workloads in different namespaces produce identical keys and
    /// command lists.
    pub(crate) fn local(self) -> VBufId {
        VBufId(self.index())
    }
}

/// A virtual buffer: one instance per device + the coherence tracker
/// (paper §8.1).
pub(crate) struct VirtualBuffer {
    pub len: usize,
    pub elem_size: usize,
    pub instances: Vec<DevBuf>,
    pub tracker: Tracker,
    pub freed: bool,
    /// Provenance for the tuner's cost model: `true` once a kernel
    /// launch has written any part of the buffer, reset by H2D (the
    /// whole buffer is then host data again). A kernel-written buffer
    /// read by a kernel writing an identically shaped array is treated
    /// as the ping-pong partner of that array (steady-state
    /// `SelfWrites` ownership); a host-provenance buffer keeps its
    /// tracker layout — the runtime refetches its remote bytes every
    /// launch, and the model must charge for that.
    pub kernel_written: bool,
    /// Total peer-copy bytes this buffer *received* over its lifetime
    /// (read-sync and whole-buffer sync copies into any instance).
    /// Observability for the A8 replica ablation: a host-uploaded
    /// read-only array's incoming bytes stop growing once every reader
    /// is a valid holder.
    pub d2d_in_bytes: u64,
}

/// α/β/γ measurement configuration (paper §9.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Count transfer time (α, β: off).
    pub transfer_timing: bool,
    /// Count dependency-resolution / tracker time (α, β on; γ: off).
    pub pattern_timing: bool,
    /// Merge adjacent/overlapping access ranges before querying the
    /// tracker during buffer synchronization, so one D2D copy moves what
    /// would otherwise be several per-row copies. On in every measurement
    /// configuration; off exists for the ablation benchmark.
    pub coalesce_transfers: bool,
    /// Capture & replay launch plans (CUDA-Graphs-style, see
    /// [`crate::plan`]): when a launch's key — kernel, geometry, scalar
    /// values, buffer ids and tracker signatures — matches a previously
    /// captured launch, replay its command sequence directly and charge
    /// the flat `host_per_replay` cost instead of walking trackers. Off
    /// in α (which measures the full overhead), on in β/γ.
    pub capture_plans: bool,
    /// Consult the partitioning autotuner ([`mekong_tuner`]) instead of
    /// the compiler's fixed split: at the first launch of each
    /// (kernel, geometry, scalars) combination, enumerate candidate
    /// strategies, rank them with the static cost model, and cache the
    /// decision. Measured transfer traffic feeds back for online
    /// refinement. Off by default — the paper's fixed heuristic.
    pub autotune: bool,
    /// Replica-aware coherence (MSI-style validity sets, see
    /// [`crate::tracker`]): read-sync copies record the destination as a
    /// valid holder, later reads served by a local replica skip the
    /// transfer, and gathers/syncs pick the cheapest-link source among
    /// all holders. On in every measurement configuration; off restores
    /// the paper's single-owner behaviour (every launch re-fetches
    /// remote read bytes) for the A8 ablation.
    pub replica_coherence: bool,
    /// Depth of the launch-ahead pipeline window (see
    /// [`crate::pipeline`]): how many replayed launches may be in flight
    /// before the host blocks on the oldest. `0` restores the fully
    /// synchronous Figure 4 behaviour (every replay barriers between its
    /// sync and launch phases). Only plan-cache *hits* pipeline; misses,
    /// uncaptured launches and H2D/D2H always flush the window first.
    pub launch_ahead: u32,
    /// Maximum number of captured launch plans the plan cache holds
    /// before least-recently-used eviction kicks in (`0` = unbounded).
    /// The default is generous — a single app's working set is a handful
    /// of plans per kernel — but bounded, so tenant churn in a serving
    /// fleet cannot leak memory. Evictions are counted in
    /// [`mekong_gpusim::OpCounters::plan_evictions`].
    pub plan_cache_capacity: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            transfer_timing: true,
            pattern_timing: true,
            coalesce_transfers: true,
            capture_plans: false,
            autotune: false,
            replica_coherence: true,
            launch_ahead: 2,
            plan_cache_capacity: 1024,
        }
    }
}

impl RuntimeConfig {
    /// Regular execution.
    pub fn alpha() -> Self {
        Self::default()
    }

    /// Disabled transfers, dependency resolution still performed.
    pub fn beta() -> Self {
        RuntimeConfig {
            transfer_timing: false,
            capture_plans: true,
            ..Self::default()
        }
    }

    /// Disabled dependency resolution (which also disables transfers).
    pub fn gamma() -> Self {
        RuntimeConfig {
            transfer_timing: false,
            pattern_timing: false,
            capture_plans: true,
            ..Self::default()
        }
    }

    /// Full measurement (α) plus the cost-model autotuner and plan
    /// capture — the "tuned" configuration of the A7 ablation.
    pub fn tuned() -> Self {
        RuntimeConfig {
            autotune: true,
            capture_plans: true,
            ..Self::default()
        }
    }
}

/// One autotuner decision in reportable form (see
/// [`MgpuRuntime::tuner_report`]).
#[derive(Debug, Clone, Serialize)]
pub struct TunerReport {
    pub kernel: String,
    pub grid: Dim3,
    pub block: Dim3,
    /// [`PartitionStrategy::describe`] of the current choice.
    pub strategy: String,
    /// Static prediction: peer-transfer bytes per steady-state launch.
    pub predicted_bytes: u64,
    /// Measured window average, once one completed.
    pub measured_bytes: Option<u64>,
    /// Launches recorded against this decision.
    pub launches: u64,
    /// Online-refinement strategy switches.
    pub switches: u32,
}

/// Buffers a plan replay refills per partition launch instead of
/// allocating: the launch's event edges, the functional readers it must
/// wait on, and its machine-level argument vector.
#[derive(Debug, Default)]
pub(crate) struct ReplayScratch {
    pub deps: Vec<SimTime>,
    pub waits: Vec<(usize, u64)>,
    pub sim_args: Vec<SimArg>,
}

/// The multi-GPU runtime: owns the machine and all virtual buffers, and
/// provides the CUDA Runtime API replacements (§8.4).
pub struct MgpuRuntime {
    /// The executor behind the runtime: the simulated machine (GPUs,
    /// host sockets or both) or a [`Backend`] wrapped around it. Every
    /// copy and launch — eager and pipelined — dispatches through the
    /// trait; trackers, validity sets and plan capture/replay above this
    /// line are backend-agnostic.
    pub(crate) machine: Box<dyn Backend>,
    pub(crate) buffers: Vec<VirtualBuffer>,
    pub(crate) config: RuntimeConfig,
    /// When γ disables dependency resolution, transfers are skipped
    /// entirely (they depend on resolution), like the paper's γ run.
    pub(crate) resolve_dependencies: bool,
    /// Captured launch plans, keyed by the content-addressed
    /// [`crate::PlanKey`] (see [`crate::plan`]). Sharded and behind an
    /// `Arc` so a serving fleet can point many tenant runtimes at one
    /// cache ([`MgpuRuntime::set_plan_cache`]); a standalone runtime
    /// simply owns the only handle.
    pub(crate) plan_cache: Arc<ShardedPlanCache>,
    /// Namespace prefix stamped into every [`VBufId`] this runtime hands
    /// out (0 = standalone). See [`VBufId::namespace`].
    pub(crate) namespace: u32,
    /// Partitioning autotuner state: one decision per
    /// (kernel, geometry, scalars), fed back with measured traffic.
    pub(crate) tuner: Autotuner,
    /// Per-kernel strategy overrides (benchmarks pin a candidate to
    /// measure it); these bypass both the heuristic and the tuner.
    pub(crate) forced: HashMap<String, PartitionStrategy>,
    /// Launch-ahead window state (see [`crate::pipeline`]): in-flight
    /// replayed launches and their event-edge dependency times.
    pub(crate) pipeline: crate::pipeline::Pipeline,
    /// Resolved launch sites (see [`LaunchSite`]), keyed like the
    /// tuner's decisions. Dropped by whatever changes a decision.
    pub(crate) sites: HashMap<TuneKey, Arc<LaunchSite>>,
    /// The current launch's site key — also its tuner key — refilled in
    /// place per launch.
    pub(crate) site_key: TuneKey,
    /// The current launch's plan-cache key, refilled in place per launch
    /// and cloned only into a miss's insert.
    pub(crate) plan_key: PlanKey,
    /// Per-launch buffers of a replay, reused across hits.
    pub(crate) replay_scratch: ReplayScratch,
}

/// Is `b` a live buffer of the runtime that owns `buffers` under
/// `namespace`?
pub(crate) fn check_live(buffers: &[VirtualBuffer], namespace: u32, b: VBufId) -> Result<()> {
    // A handle from another namespace is *someone else's* buffer —
    // its index may well be in range here, which is exactly the
    // cross-tenant aliasing this check exists to refuse.
    if b.namespace() != namespace {
        return Err(RuntimeError::BadArgument(format!(
            "buffer {b:?} belongs to namespace {}, not {namespace}",
            b.namespace(),
        )));
    }
    match buffers.get(b.index()) {
        Some(vb) if !vb.freed => Ok(()),
        Some(_) => Err(RuntimeError::BadArgument(format!(
            "use of freed buffer {b:?}"
        ))),
        None => Err(RuntimeError::BadArgument(format!("unknown buffer {b:?}"))),
    }
}

impl MgpuRuntime {
    /// Wrap a machine-level executor — [`mekong_gpusim::Machine`], whose
    /// device slots are simulated GPUs, host CPU sockets or a mix.
    pub fn new(machine: impl Backend + 'static) -> MgpuRuntime {
        MgpuRuntime::from_boxed(Box::new(machine))
    }

    /// [`MgpuRuntime::new`] for an already-boxed backend — lets callers
    /// pick the executor at runtime (e.g. the cross-backend
    /// differential tests).
    pub fn from_boxed(machine: Box<dyn Backend>) -> MgpuRuntime {
        let empty = Dim3::new1(0);
        MgpuRuntime {
            pipeline: crate::pipeline::Pipeline::new(machine.n_devices()),
            machine,
            buffers: Vec::new(),
            config: RuntimeConfig::default(),
            resolve_dependencies: true,
            plan_cache: Arc::new(ShardedPlanCache::new(
                RuntimeConfig::default().plan_cache_capacity,
            )),
            namespace: 0,
            tuner: Autotuner::new(),
            forced: HashMap::new(),
            sites: HashMap::new(),
            site_key: TuneKey {
                kernel: String::new(),
                grid: empty,
                block: empty,
                scalars: Vec::new(),
            },
            plan_key: PlanKey {
                kernel: "".into(),
                strategy: 0,
                grid: empty,
                block: empty,
                bounds: [].into(),
                args: Vec::new(),
            },
            replay_scratch: ReplayScratch::default(),
        }
    }

    /// Apply a measurement configuration.
    pub fn set_config(&mut self, cfg: RuntimeConfig) {
        self.pipeline_flush();
        self.config = cfg;
        self.machine.set_transfer_timing(cfg.transfer_timing);
        self.machine.set_pattern_timing(cfg.pattern_timing);
        // γ semantics: with pattern work disabled, transfers cannot be
        // computed either. Functional machines keep resolving so results
        // stay correct; performance machines skip the work entirely.
        self.resolve_dependencies = cfg.pattern_timing || self.machine.is_functional();
        // Plans captured under another configuration must not replay:
        // the keys deliberately exclude config flags, so flush instead.
        // (Serving fleets share one config across tenants and attach the
        // shared cache *after* configuring, so this only ever clears the
        // runtime's private cache.)
        self.plan_cache.clear();
        self.plan_cache.set_capacity(cfg.plan_cache_capacity);
        self.sites.clear();
    }

    /// Launch-plan cache size (captured plans currently held).
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// A handle to the plan cache — share it with another runtime via
    /// [`MgpuRuntime::set_plan_cache`], or snapshot it with
    /// [`crate::persist::snapshot_to_json`].
    pub fn plan_cache_handle(&self) -> Arc<ShardedPlanCache> {
        self.plan_cache.clone()
    }

    /// Attach a (possibly shared) plan cache. Plan keys strip the buffer
    /// namespace, so tenants with identical workloads hit each other's
    /// captured plans; replay re-resolves buffer arguments against this
    /// runtime's own instances. Call *after* [`MgpuRuntime::set_config`]
    /// — configuring clears the attached cache.
    pub fn set_plan_cache(&mut self, cache: Arc<ShardedPlanCache>) {
        self.pipeline_flush();
        self.plan_cache = cache;
        self.sites.clear();
    }

    /// Assign this runtime's virtual-buffer namespace. Every handle
    /// minted by [`MgpuRuntime::malloc`] carries the prefix, and handles
    /// from any other namespace are rejected by the liveness check —
    /// tenants cannot alias each other's trackers. Only callable before
    /// the first allocation: existing handles must not be re-interpreted.
    pub fn set_namespace(&mut self, ns: u32) -> Result<()> {
        if !self.buffers.is_empty() {
            return Err(RuntimeError::BadArgument(format!(
                "cannot change namespace to {ns} after {} allocations",
                self.buffers.len()
            )));
        }
        self.namespace = ns;
        Ok(())
    }

    /// This runtime's virtual-buffer namespace (0 = standalone).
    pub fn namespace(&self) -> u32 {
        self.namespace
    }

    /// Pin the partitioning strategy of one kernel, bypassing both the
    /// compiler heuristic and the autotuner (the A7 ablation measures
    /// every candidate this way). Flushes captured plans — they encode
    /// the old partition bounds — and resets the autotuner's measurement
    /// windows for this kernel: a half-filled window must not average
    /// bytes from two different strategies.
    pub fn force_strategy(&mut self, kernel: &str, strategy: PartitionStrategy) {
        self.pipeline_flush();
        self.forced.insert(kernel.to_string(), strategy);
        self.plan_cache.clear();
        self.sites.clear();
        self.tuner.reset_windows(kernel);
    }

    /// Remove a [`MgpuRuntime::force_strategy`] override. Like
    /// [`MgpuRuntime::force_strategy`], this is a strategy change:
    /// captured plans flush and the kernel's tuner windows reset.
    pub fn clear_forced_strategy(&mut self, kernel: &str) {
        self.pipeline_flush();
        self.forced.remove(kernel);
        self.plan_cache.clear();
        self.sites.clear();
        self.tuner.reset_windows(kernel);
    }

    /// The autotuner state (decisions, measurements, switches).
    pub fn tuner(&self) -> &Autotuner {
        &self.tuner
    }

    /// Every autotuner decision in reportable form, sorted by kernel
    /// name for deterministic output.
    pub fn tuner_report(&self) -> Vec<TunerReport> {
        let mut out: Vec<TunerReport> = self
            .tuner
            .entries()
            .map(|(k, e)| TunerReport {
                kernel: k.kernel.clone(),
                grid: k.grid,
                block: k.block,
                strategy: e.strategy().describe(),
                predicted_bytes: e.predicted().transfer_bytes,
                measured_bytes: e.measured_bytes(),
                launches: e.launches,
                switches: e.switches,
            })
            .collect();
        out.sort_by(|a, b| a.kernel.cmp(&b.kernel));
        out
    }

    /// The wrapped backend.
    pub fn machine(&self) -> &dyn Backend {
        &*self.machine
    }

    /// Mutable access to the backend (benchmarks reset clocks etc.).
    /// Flushes the launch-ahead window first: direct machine access must
    /// not observe clocks mid-window.
    pub fn machine_mut(&mut self) -> &mut dyn Backend {
        self.pipeline_flush();
        &mut *self.machine
    }

    /// Real device count.
    pub fn n_devices(&self) -> usize {
        self.machine.n_devices()
    }

    /// The `cudaGetDeviceCount` replacement: always 1 — the application
    /// continues to believe it programs a single GPU (§8.4).
    pub fn visible_device_count(&self) -> usize {
        1
    }

    /// `cudaMalloc` replacement: allocate one instance per device and a
    /// tracker (§8.1).
    pub fn malloc(&mut self, bytes: usize, elem_size: usize) -> Result<VBufId> {
        assert!(elem_size > 0 && bytes.is_multiple_of(elem_size));
        let mut instances = Vec::with_capacity(self.n_devices());
        for d in 0..self.n_devices() {
            instances.push(self.machine.alloc(d, bytes)?);
        }
        self.buffers.push(VirtualBuffer {
            len: bytes,
            elem_size,
            instances,
            tracker: Tracker::new(bytes as u64),
            freed: false,
            kernel_written: false,
            d2d_in_bytes: 0,
        });
        self.pipeline.grow(self.buffers.len());
        Ok(VBufId::with_namespace(
            self.namespace,
            self.buffers.len() - 1,
        ))
    }

    /// `cudaFree` replacement. The simulator does not reclaim device
    /// memory (allocation is virtual in performance mode anyway); freeing
    /// marks the handle so later use is caught as an error.
    pub fn free(&mut self, b: VBufId) -> Result<()> {
        if b.namespace() != self.namespace {
            return Err(RuntimeError::BadArgument(format!(
                "buffer {b:?} belongs to namespace {}, not {}",
                b.namespace(),
                self.namespace
            )));
        }
        let vb = self
            .buffers
            .get_mut(b.index())
            .ok_or(RuntimeError::BadArgument(format!("unknown buffer {b:?}")))?;
        if vb.freed {
            return Err(RuntimeError::BadArgument(format!(
                "double free of buffer {b:?}"
            )));
        }
        vb.freed = true;
        Ok(())
    }

    pub(crate) fn check_live(&self, b: VBufId) -> Result<()> {
        check_live(&self.buffers, self.namespace, b)
    }

    /// `cudaMemcpy(…, HostToDevice)` replacement: a 1:n movement. The
    /// host data is distributed in the predefined **linear pattern**
    /// across all devices (§8.2); mismatches against later kernels' read
    /// patterns are corrected by buffer synchronization before launch.
    pub fn memcpy_h2d(&mut self, dst: VBufId, src: &[u8]) -> Result<()> {
        self.h2d(dst, Some(src), false)
    }

    /// Performance-mode H2D: same linear distribution, tracker updates and
    /// timing as [`MgpuRuntime::memcpy_h2d`], but without host payload
    /// (paper-scale buffers need not exist in host memory).
    pub fn memcpy_h2d_sim(&mut self, dst: VBufId) -> Result<()> {
        self.h2d(dst, None, false)
    }

    /// `cudaMemcpyAsync(…, HostToDevice)` replacement. Our H2D already
    /// issues per-device copies back-to-back; the async variant simply
    /// does not join the host clock to the last device — callers must
    /// synchronize before reusing the host buffer, exactly like CUDA.
    pub fn memcpy_h2d_async(&mut self, dst: VBufId, src: &[u8]) -> Result<()> {
        self.h2d(dst, Some(src), true)
    }

    /// The linear H2D distribution behind the three `memcpy_h2d*` entry
    /// points; `payload` is `None` in performance mode.
    fn h2d(&mut self, dst: VBufId, payload: Option<&[u8]>, async_: bool) -> Result<()> {
        self.check_live(dst)?;
        self.pipeline_flush();
        let n = self.n_devices();
        let vb = &mut self.buffers[dst.index()];
        let got = payload.map_or(vb.len, <[u8]>::len);
        if got != vb.len {
            return Err(RuntimeError::SizeMismatch {
                expected: vb.len,
                got,
            });
        }
        let elem = vb.elem_size;
        let total_elems = vb.len / elem;
        let base = total_elems / n;
        let rem = total_elems % n;
        let seg_cost = self.machine.spec().host_per_segment;
        let mut start_elem = 0usize;
        for d in 0..n {
            let len_elems = base + usize::from(d < rem);
            let (s, e) = (start_elem * elem, (start_elem + len_elems) * elem);
            start_elem += len_elems;
            if s == e {
                continue;
            }
            let inst = vb.instances[d];
            match payload {
                Some(src) => self.machine.copy_h2d(&src[s..e], inst, s, async_)?,
                None => self.machine.copy_h2d_timed(inst, s, e - s, async_)?,
            }
            let stats = vb.tracker.update(s as u64, e as u64, Owner::Device(d));
            self.machine.counters_mut().replica_invalidations += stats.invalidated as u64;
            self.machine.charge_host(seg_cost, TimeCat::Pattern);
        }
        vb.kernel_written = false;
        debug_assert!(vb.tracker.check_invariants());
        Ok(())
    }

    /// `cudaMemcpy(…, DeviceToHost)` replacement: an n:1 gather driven by
    /// the tracker (§8.2).
    pub fn memcpy_d2h(&mut self, src: VBufId, dst: &mut [u8]) -> Result<()> {
        self.d2h(src, Some(dst))
    }

    /// Performance-mode D2H: tracker-driven gather without a host
    /// destination.
    pub fn memcpy_d2h_sim(&mut self, src: VBufId) -> Result<()> {
        self.d2h(src, None)
    }

    /// The tracker-driven gather behind both `memcpy_d2h*` entry points;
    /// `out` is `None` in performance mode.
    fn d2h(&mut self, src: VBufId, mut out: Option<&mut [u8]>) -> Result<()> {
        self.check_live(src)?;
        let vb = &self.buffers[src.index()];
        let got = out.as_ref().map_or(vb.len, |dst| dst.len());
        if got != vb.len {
            return Err(RuntimeError::SizeMismatch {
                expected: vb.len,
                got,
            });
        }
        // A gather of a buffer no in-flight launch or halo copy still
        // writes need not drain the launch-ahead window: trackers
        // advance at submit (so the gather plan is current) and the
        // simulator drains deferred byte effects on every D2H read.
        // Only a *hot* buffer forces the conservative full flush.
        if self.pipeline.writes_in_flight(src) {
            self.pipeline_flush();
        }
        let vb = &self.buffers[src.index()];
        let plan = Self::d2h_gather_plan(vb, self.config.replica_coherence);
        let seg_cost = self.machine.spec().host_per_segment * plan.len() as f64;
        self.machine.charge_host(seg_cost, TimeCat::Pattern);
        for (d, s, e) in plan {
            let inst = vb.instances[d];
            let s_us = crate::to_usize(s, "gather offset")?;
            let e_us = crate::to_usize(e, "gather end")?;
            match &mut out {
                Some(dst) => self
                    .machine
                    .copy_d2h(inst, s_us, &mut dst[s_us..e_us], false)?,
                None => self
                    .machine
                    .copy_d2h_timed(inst, s_us, e_us - s_us, false)?,
            }
        }
        Ok(())
    }

    /// Tracker-driven D2H gather plan: one `(device, start, end)` copy
    /// per emitted run. With replica coherence on, the source of each
    /// segment is picked among its *valid holders*, preferring the
    /// device of the previous run so adjacent segments with different
    /// freshest owners but a shared holder collapse into one copy (and
    /// one `host_per_segment` charge); without it, the freshest owner is
    /// the only choice, as in the paper.
    fn d2h_gather_plan(vb: &VirtualBuffer, replica: bool) -> Vec<(usize, u64, u64)> {
        let mut plan: Vec<(usize, u64, u64)> = Vec::new();
        vb.tracker
            .query(0, vb.len as u64, &mut |s, e, v: Validity| {
                let Owner::Device(freshest) = v.freshest else {
                    // Host-fresh and Uninit bytes need no device gather.
                    return;
                };
                let src = match plan.last() {
                    Some(&(pd, _, pe)) if replica && pe == s && v.holders.contains(pd) => pd,
                    _ => freshest,
                };
                match plan.last_mut() {
                    Some(last) if last.0 == src && last.2 == s => last.2 = e,
                    _ => plan.push((src, s, e)),
                }
            });
        plan
    }

    /// `cudaMemcpy(…, DeviceToDevice)` replacement: unsupported, as in
    /// the paper (§8.2).
    pub fn memcpy_d2d(&mut self, _src: VBufId, _dst: VBufId) -> Result<()> {
        Err(RuntimeError::Unsupported(
            "device-to-device memcpy (paper §8.2)",
        ))
    }

    /// `cudaDeviceSynchronize` replacement: synchronizes **all** devices
    /// (§8.4).
    pub fn synchronize(&mut self) {
        self.pipeline_flush();
        self.machine.sync_all();
    }

    /// Tracker segment count of a buffer (fragmentation metric).
    pub fn segment_count(&self, b: VBufId) -> usize {
        self.tracker(b).segment_count()
    }

    /// A buffer's coherence tracker, read-only — segment list and
    /// signature for tests that compare runtimes step by step.
    pub fn tracker(&self, b: VBufId) -> &Tracker {
        &self.buffers[b.index()].tracker
    }

    /// Has a kernel launch written the buffer since its last upload?
    /// (The provenance bit the tuner's cost model reads.)
    pub fn kernel_written(&self, b: VBufId) -> bool {
        self.buffers[b.index()].kernel_written
    }

    /// Total peer-copy bytes ever received by a buffer's device
    /// instances (read-sync and whole-buffer sync copies). The A8
    /// replica ablation samples this per launch: for a host-uploaded
    /// read-only array it stops growing after the first launch once
    /// replica coherence marks every reader a valid holder.
    pub fn d2d_bytes_into(&self, b: VBufId) -> u64 {
        self.buffers[b.index()].d2d_in_bytes
    }

    /// Byte length of a buffer.
    pub fn buffer_len(&self, b: VBufId) -> usize {
        self.buffers[b.index()].len
    }

    /// Elapsed simulated time on the host clock.
    pub fn elapsed(&self) -> f64 {
        self.machine.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_gpusim::{CopyRuns, Machine, MachineSpec};

    fn runtime(n: usize) -> MgpuRuntime {
        MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(n), true))
    }

    #[test]
    fn h2d_distributes_linearly_and_d2h_gathers() {
        let mut rt = runtime(4);
        let n = 100usize; // elements
        let b = rt.malloc(n * 4, 4).unwrap();
        let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        rt.memcpy_h2d(b, &data).unwrap();
        // 4 devices, 100 elements -> 25 each; tracker has 4 segments.
        assert_eq!(rt.segment_count(b), 4);
        let mut out = vec![0u8; n * 4];
        rt.memcpy_d2h(b, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn uneven_distribution_covers_everything() {
        let mut rt = runtime(3);
        let n = 10usize;
        let b = rt.malloc(n * 8, 8).unwrap();
        let data: Vec<u8> = (0..n as u64).flat_map(|i| i.to_le_bytes()).collect();
        rt.memcpy_h2d(b, &data).unwrap();
        let mut out = vec![0u8; n * 8];
        rt.memcpy_d2h(b, &mut out).unwrap();
        assert_eq!(out, data);
        // 4 + 3 + 3 elements.
        assert_eq!(rt.segment_count(b), 3);
    }

    /// D2H gathering consults replica holders: adjacent segments with
    /// different freshest owners but a shared holder collapse into one
    /// copy from that holder — and the gathered bytes are still correct,
    /// because a holder's instance is identical to the freshest copy.
    #[test]
    fn d2h_gather_coalesces_through_replica_holders() {
        let mut rt = runtime(2);
        let n = 100usize;
        let b = rt.malloc(n * 4, 4).unwrap();
        let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        rt.memcpy_h2d(b, &data).unwrap();
        // Linear split: device 0 received [0,200), device 1 [200,400).
        // Replicate device 1's half onto device 0 (a real copy on the
        // functional machine, then the tracker records the holder).
        let (i0, i1) = (
            rt.buffers[b.index()].instances[0],
            rt.buffers[b.index()].instances[1],
        );
        rt.machine
            .copy_d2d(i1, i0, CopyRuns::contiguous(200, 200, 200), None)
            .unwrap();
        rt.machine.sync_all();
        rt.buffers[b.index()].tracker.add_holder(200, 400, 0);
        // Replica-aware gather: one copy, sourced entirely from device 0.
        let plan = MgpuRuntime::d2h_gather_plan(&rt.buffers[b.index()], true);
        assert_eq!(plan, vec![(0, 0, 400)]);
        // Legacy gather: one copy per freshest owner.
        let legacy = MgpuRuntime::d2h_gather_plan(&rt.buffers[b.index()], false);
        assert_eq!(legacy, vec![(0, 0, 200), (1, 200, 400)]);
        let mut out = vec![0u8; n * 4];
        rt.memcpy_d2h(b, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn size_mismatch_is_reported() {
        let mut rt = runtime(2);
        let b = rt.malloc(64, 4).unwrap();
        assert!(matches!(
            rt.memcpy_h2d(b, &[0u8; 32]),
            Err(RuntimeError::SizeMismatch { .. })
        ));
        let mut small = vec![0u8; 32];
        assert!(matches!(
            rt.memcpy_d2h(b, &mut small),
            Err(RuntimeError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn d2d_memcpy_unsupported() {
        let mut rt = runtime(2);
        let a = rt.malloc(64, 4).unwrap();
        let b = rt.malloc(64, 4).unwrap();
        assert!(matches!(
            rt.memcpy_d2d(a, b),
            Err(RuntimeError::Unsupported(_))
        ));
    }

    #[test]
    fn visible_device_count_is_one() {
        let rt = runtime(8);
        assert_eq!(rt.visible_device_count(), 1);
        assert_eq!(rt.n_devices(), 8);
    }

    #[test]
    fn free_blocks_reuse_and_double_free() {
        let mut rt = runtime(2);
        let b = rt.malloc(64, 4).unwrap();
        rt.free(b).unwrap();
        assert!(matches!(rt.free(b), Err(RuntimeError::BadArgument(_))));
        assert!(matches!(
            rt.memcpy_h2d(b, &[0u8; 64]),
            Err(RuntimeError::BadArgument(_))
        ));
        let mut out = vec![0u8; 64];
        assert!(matches!(
            rt.memcpy_d2h(b, &mut out),
            Err(RuntimeError::BadArgument(_))
        ));
    }

    #[test]
    fn sim_memcpys_reject_freed_and_unknown_buffers() {
        // Regression: the performance-mode copies used to skip the
        // liveness check and indexed `buffers` directly, so a freed
        // handle silently revived and an unknown one panicked.
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(2), false));
        let b = rt.malloc(64, 4).unwrap();
        rt.free(b).unwrap();
        assert!(matches!(
            rt.memcpy_h2d_sim(b),
            Err(RuntimeError::BadArgument(_))
        ));
        assert!(matches!(
            rt.memcpy_d2h_sim(b),
            Err(RuntimeError::BadArgument(_))
        ));
        let bogus = VBufId(99);
        assert!(matches!(
            rt.memcpy_h2d_sim(bogus),
            Err(RuntimeError::BadArgument(_))
        ));
        assert!(matches!(
            rt.memcpy_d2h_sim(bogus),
            Err(RuntimeError::BadArgument(_))
        ));
    }

    #[test]
    fn async_h2d_moves_data_without_blocking_host() {
        let mut rt = runtime(2);
        let n = 64usize;
        let b = rt.malloc(n * 4, 4).unwrap();
        let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        rt.memcpy_h2d_async(b, &data).unwrap();
        let host_before_sync = rt.elapsed();
        rt.synchronize();
        assert!(rt.elapsed() > host_before_sync, "sync must join the copies");
        let mut out = vec![0u8; n * 4];
        rt.memcpy_d2h(b, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn gamma_disables_resolution_only_in_perf_mode() {
        let mut rt = runtime(2);
        rt.set_config(RuntimeConfig::gamma());
        assert!(
            rt.resolve_dependencies,
            "functional machines keep resolving"
        );
        let mut rt2 = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(2), false));
        rt2.set_config(RuntimeConfig::gamma());
        assert!(!rt2.resolve_dependencies);
    }
}
