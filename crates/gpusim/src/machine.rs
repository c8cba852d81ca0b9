//! The simulated multi-GPU machine: device memories + clocks.

use crate::backend::{Backend, ObservedWriteSets};
use crate::shadow::{run_program, BufStore};
use crate::spec::MachineSpec;
use crate::stream::{apply_op, DeviceStream, StreamOp};
use crate::{Result, SimError};
use mekong_kernel::interp::{ExecMode, KernelArg};
use mekong_kernel::{Dim3, ExecStats, Kernel, Program, Value};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// Simulated time, in seconds.
pub type SimTime = f64;

/// What a charged time interval was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeCat {
    /// Kernel execution (and launch overhead) — present in the
    /// single-device baseline too.
    Application,
    /// Inter-device / host-device data movement.
    Transfer,
    /// Host-side metadata work: enumerator runs, tracker queries and
    /// updates ("Patterns" in Figure 7).
    Pattern,
}

/// Accumulated simulated time per category (informational; the Figure 7
/// breakdown is *measured* via α/β/γ configurations like the paper does).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    pub app: SimTime,
    pub transfer: SimTime,
    pub pattern: SimTime,
}

/// A buffer living on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevBuf {
    pub device: usize,
    pub handle: usize,
    pub len: usize,
}

/// The byte runs one peer copy moves: `count` runs of `len` bytes, the
/// first at `src_offset` / `dst_offset` and each subsequent one `stride`
/// bytes later on both endpoints. One run is a plain contiguous copy;
/// several are the column-halo shape of a 2-D grid tiling, modeled as
/// **one** DMA transaction (a `cudaMemcpy2D`-style descriptor): one link
/// latency plus the aggregate bytes, and one `d2d_copies` tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyRuns {
    pub src_offset: usize,
    pub dst_offset: usize,
    /// Bytes per run.
    pub len: usize,
    /// Distance between run starts; not consulted for a single run.
    pub stride: usize,
    pub count: usize,
}

impl CopyRuns {
    /// One run of `len` bytes.
    pub fn contiguous(src_offset: usize, dst_offset: usize, len: usize) -> CopyRuns {
        CopyRuns {
            src_offset,
            dst_offset,
            len,
            stride: len,
            count: 1,
        }
    }

    /// `count` runs of `len` bytes, `stride` apart, at the *same*
    /// offsets on both endpoints.
    pub fn strided(offset: usize, len: usize, stride: usize, count: usize) -> CopyRuns {
        CopyRuns {
            src_offset: offset,
            dst_offset: offset,
            len,
            stride,
            count,
        }
    }

    /// Validate the shape against both endpoints; returns the payload
    /// bytes. Every sum and product is checked: offsets and lengths may
    /// come verbatim from a plan snapshot.
    fn check(&self, src: &DevBuf, dst: &DevBuf) -> Result<usize> {
        let bad_stride = || SimError::BadStride {
            run: self.len,
            stride: self.stride,
        };
        let span = match self.count {
            0 => return Ok(0),
            1 => self.len,
            _ if self.len == 0 => return Ok(0),
            _ if self.stride < self.len => return Err(bad_stride()),
            n => (n - 1)
                .checked_mul(self.stride)
                .and_then(|s| s.checked_add(self.len))
                .ok_or_else(bad_stride)?,
        };
        Machine::check_range(src, self.src_offset, span)?;
        Machine::check_range(dst, self.dst_offset, span)?;
        self.len.checked_mul(self.count).ok_or_else(bad_stride)
    }
}

enum DeviceMem {
    /// Functional mode: real bytes. The lock lets stream workers of
    /// different devices read each other's stores during a flush; the
    /// host side always uses `get_mut` (no contention outside flushes).
    Real(RwLock<BufStore>),
    /// Performance mode: sizes only.
    Virtual(Vec<usize>),
}

struct Device {
    mem: DeviceMem,
    busy_until: SimTime,
    /// Copy-engine (DMA) clock: pipelined peer copies advance this
    /// instead of `busy_until`, so a halo exchange can stream while the
    /// SMs compute. Non-pipelined ops ignore it; syncs join it.
    copy_busy_until: SimTime,
}

impl Device {
    /// The clock a peer copy occupies on this endpoint.
    fn copy_clock(&mut self, pipelined: bool) -> &mut SimTime {
        if pipelined {
            &mut self.copy_busy_until
        } else {
            &mut self.busy_until
        }
    }
}

/// Operation counters (inspected by tests and the benchmark harness).
/// The machine ticks the launch and copy fields itself; the rest is
/// reported by the runtime through [`Backend::counters_mut`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    pub launches: u64,
    pub h2d_copies: u64,
    pub d2h_copies: u64,
    pub d2d_copies: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub d2d_bytes: u64,
    /// Launch-plan cache hits (runtime capture/replay; see mekong-runtime).
    pub plan_hits: u64,
    /// Launch-plan cache misses: launches that walked trackers and
    /// captured a fresh plan (or ran with capture disabled).
    pub plan_misses: u64,
    /// Plan-cache hits on a plan captured by a *different* namespace —
    /// another tenant of a shared cache, or a loaded snapshot from a
    /// previous process (multi-tenant serving, see mekong-serve). A
    /// subset of `plan_hits`.
    pub plan_shared_hits: u64,
    /// Captured plans evicted by the plan cache's LRU capacity bound
    /// (`RuntimeConfig::plan_cache_capacity` in mekong-runtime).
    pub plan_evictions: u64,
    /// The most recent autotuner decision, encoded as
    /// `(axis + 1) | parts << 8 | weighted << 16` for 1-D splits, with
    /// 2-D rectangular tilings additionally carrying
    /// `(axis2 + 1) << 17 | parts2 << 19` (0 = no decision yet; axes
    /// are zyx indices, so 1/2/3 means Z/Y/X). The runtime's tuner
    /// reports decisions here; `mekong-tuner` decodes them back into a
    /// human-readable strategy string.
    pub strategy_chosen: u32,
    /// Predicted steady-state transfer bytes *per launch* of the most
    /// recent autotuner decision.
    pub tuner_predict_bytes: u64,
    /// Measured transfer bytes per launch (averaged over the tuner's
    /// observation window) for the most recently refined decision;
    /// 0 until a window completes.
    pub tuner_measured_bytes: u64,
    /// Partitioned launches whose split axis carried a static
    /// write-disjointness proof (see mekong-check).
    pub checked_safe: u64,
    /// Partitioned launches refused because a split axis had no proof.
    pub checked_rejected: u64,
    /// Read-sync segment runs served by a *local replica* of remote-fresh
    /// bytes (replica-aware coherence, see mekong-runtime): under
    /// single-owner tracking each would have been a D2D copy.
    pub replica_hits: u64,
    /// Replica copies evicted by writes and H2D uploads (per overlapped
    /// segment, the holder devices other than the writer).
    pub replica_invalidations: u64,
    /// Peer-transfer bytes the replica hits avoided re-fetching.
    pub refetch_bytes_saved: u64,
    /// Bytes fetched to satisfy *bounded may-read* footprints: interval
    /// boxes the abstract interpreter emitted for non-affine reads
    /// (see mekong-analysis). Counts the enumerated box bytes per
    /// partitioned launch.
    pub mayread_fetch_bytes: u64,
    /// Over-fetch of those boxes: bytes fetched beyond what a
    /// single-device run of the same launch would touch (the whole-grid
    /// box). 0 when running unpartitioned.
    pub mayread_overfetch_bytes: u64,
}

/// A kernel launch argument at the machine level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimArg {
    Scalar(Value),
    Buf(DevBuf),
}

/// The simulated machine. Its ops are the [`Backend`] implementation
/// below — bring the trait into scope to drive a `Machine` directly.
pub struct Machine {
    spec: MachineSpec,
    functional: bool,
    devices: Vec<Device>,
    host_now: SimTime,
    breakdown: TimeBreakdown,
    counters: OpCounters,
    /// β configuration: transfers execute (functionally) but cost no time.
    transfer_timing: bool,
    /// γ configuration: pattern charges cost no time.
    pattern_timing: bool,
    /// The host staging engine: when `link.host_staged`, peer copies
    /// serialize on this shared resource.
    link_busy_until: SimTime,
    /// Memoized roofline kernel times. The estimate depends only on the
    /// kernel, the launch geometry and the scalar arguments — iterative
    /// workloads relaunch identical configurations thousands of times.
    /// Buckets by [`KernelTimeView::hash`]; within a bucket keys compare
    /// field by field, so a launch probes through a borrowed view and
    /// only an insert builds the owned key.
    kernel_time_cache: std::collections::HashMap<u64, Vec<(KernelTimeKey, SimTime)>>,
    /// Streamed execution: functional byte effects are queued per device
    /// and drained concurrently at sync points (see [`crate::stream`]).
    /// Off = the serial engine (apply effects on the host thread at
    /// submission). Timing and counters are identical either way.
    streamed: bool,
    /// One command stream per device.
    streams: Vec<DeviceStream>,
    /// First error raised by a stream worker; surfaced at the next
    /// [`Backend::try_sync_all`] (or panics in [`Backend::sync_all`]).
    stream_error: Mutex<Option<SimError>>,
}

/// Cache key for the roofline estimate.
#[derive(Debug)]
struct KernelTimeKey {
    kernel: String,
    /// 0 on homogeneous machines (every device prices identically, so
    /// partitions share memo entries); the device index when overrides
    /// make the roofline device-dependent.
    device: usize,
    grid: Dim3,
    block: Dim3,
    scalars: Vec<i64>,
    traffic: Option<u64>,
}

/// A launch's [`KernelTimeKey`] before anything is copied: the kernel
/// name borrowed, the scalars read out of the argument vector.
struct KernelTimeView<'a> {
    kernel: &'a str,
    device: usize,
    grid: Dim3,
    block: Dim3,
    args: &'a [SimArg],
    traffic: Option<u64>,
}

impl KernelTimeView<'_> {
    fn scalars(&self) -> impl Iterator<Item = i64> + '_ {
        self.args.iter().filter_map(|a| match a {
            SimArg::Scalar(v) => Some(v.as_f64() as i64),
            SimArg::Buf(_) => None,
        })
    }

    /// Bucket selector: FNV-1a, a word per step (the convention of the
    /// runtime's tracker signatures). Sixteen partition launches per
    /// replay probe the memo, each over some twenty words; a colliding
    /// pair only shares a bucket, [`KernelTimeView::matches`] decides.
    ///
    /// Out of line on purpose: inlined into `launch` it moved the
    /// kernel interpreter's loop onto addresses that cost
    /// `functional-exec` 8 % (EXPERIMENTS.md "Host clock — the hit path").
    #[inline(never)]
    fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        self.kernel.bytes().for_each(|b| mix(b as u64));
        mix(self.device as u64);
        for d in [self.grid, self.block] {
            mix(d.x as u64);
            mix(d.y as u64);
            mix(d.z as u64);
        }
        mix(self.traffic.unwrap_or(u64::MAX));
        self.scalars().for_each(|s| mix(s as u64));
        h
    }

    fn matches(&self, key: &KernelTimeKey) -> bool {
        self.kernel == key.kernel
            && (self.device, self.grid, self.block, self.traffic)
                == (key.device, key.grid, key.block, key.traffic)
            && self.scalars().eq(key.scalars.iter().copied())
    }

    fn to_key(&self) -> KernelTimeKey {
        KernelTimeKey {
            kernel: self.kernel.to_string(),
            device: self.device,
            grid: self.grid,
            block: self.block,
            scalars: self.scalars().collect(),
            traffic: self.traffic,
        }
    }
}

impl Machine {
    /// Create a machine. `functional = true` materializes device memory
    /// and executes kernels on real data; `false` is performance mode
    /// (metadata and timing only).
    pub fn new(spec: MachineSpec, functional: bool) -> Machine {
        let devices = (0..spec.n_devices)
            .map(|_| Device {
                mem: if functional {
                    DeviceMem::Real(RwLock::new(BufStore::new()))
                } else {
                    DeviceMem::Virtual(Vec::new())
                },
                busy_until: 0.0,
                copy_busy_until: 0.0,
            })
            .collect();
        let streams = (0..spec.n_devices).map(|_| DeviceStream::new()).collect();
        Machine {
            spec,
            functional,
            devices,
            host_now: 0.0,
            breakdown: TimeBreakdown::default(),
            counters: OpCounters::default(),
            transfer_timing: true,
            pattern_timing: true,
            link_busy_until: 0.0,
            kernel_time_cache: std::collections::HashMap::new(),
            streamed: true,
            streams,
            stream_error: Mutex::new(None),
        }
    }

    /// True when this launch/copy should defer its byte effect.
    fn defer_effects(&self) -> bool {
        self.functional && self.streamed
    }

    /// Drain every device's command stream, one worker thread per busy
    /// device. Byte effects are applied in submission order per device;
    /// peer copies wait on their source event (see [`crate::stream`]).
    /// No-op when nothing is pending. Takes `&self`: submission requires
    /// `&mut self`, so no op can be submitted while a flush runs.
    pub fn flush_streams(&self) {
        if !self.functional || self.streams.iter().all(|s| s.is_idle()) {
            return;
        }
        let stores: Vec<&RwLock<BufStore>> = self
            .devices
            .iter()
            .map(|dev| match &dev.mem {
                DeviceMem::Real(store) => store,
                DeviceMem::Virtual(_) => unreachable!("functional machine has real stores"),
            })
            .collect();
        std::thread::scope(|scope| {
            let busy = self
                .streams
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.is_idle());
            let workers: Vec<_> = busy
                .map(|(d, stream)| {
                    let stores = &stores;
                    scope.spawn(move || loop {
                        let op = stream.queue.lock().pop_front();
                        let Some(op) = op else { break };
                        if let Err(e) = apply_op(op, d, stores, &self.streams) {
                            self.stream_error.lock().get_or_insert(e);
                        }
                        // Completion is signalled even after an error so
                        // dependent peers never deadlock.
                        stream.signal_completion();
                    })
                })
                .collect();
            // Join the threads themselves: the scope only waits for their
            // closures, and a worker that has not exited yet still holds
            // its allocator arena, so flushes in quick succession would
            // each start on fresh ones.
            for worker in workers {
                worker.join().expect("stream worker panicked");
            }
        });
    }

    fn check_device(&self, d: usize) -> Result<()> {
        if d < self.devices.len() {
            Ok(())
        } else {
            Err(SimError::NoSuchDevice {
                device: d,
                n_devices: self.devices.len(),
            })
        }
    }

    fn device(&mut self, d: usize) -> Result<&mut Device> {
        self.check_device(d)?;
        Ok(&mut self.devices[d])
    }

    fn check_range(buf: &DevBuf, offset: usize, len: usize) -> Result<()> {
        match offset.checked_add(len) {
            Some(end) if end <= buf.len => Ok(()),
            _ => Err(SimError::CopyOutOfRange {
                buffer_len: buf.len,
                offset,
                len,
            }),
        }
    }

    /// The clock and counter half of a host↔device copy of `len` bytes
    /// on device `d` (already validated), in either direction.
    fn charge_host_copy(&mut self, d: usize, len: usize, async_: bool) {
        let t = if self.transfer_timing {
            // Class-aware: a HostCpu device "uploads" with a memcpy
            // (host_copy constants), a GPU crosses PCIe. Identical to the
            // pre-class expression on pure-GPU machines.
            let (lat, bw) = self.spec.host_link_params(d);
            lat + len as f64 / bw
        } else {
            0.0
        };
        let dev = &mut self.devices[d];
        let start = self.host_now.max(dev.busy_until);
        dev.busy_until = start + t;
        self.breakdown.transfer += t;
        if !async_ {
            self.host_now = start + t;
        }
    }

    /// Host → device copy of `len` bytes; `payload` is `None` for the
    /// timing-only variant.
    fn h2d(
        &mut self,
        payload: Option<&[u8]>,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
        async_: bool,
    ) -> Result<()> {
        Self::check_range(&dst, dst_offset, len)?;
        self.check_device(dst.device)?;
        self.counters.h2d_copies += 1;
        self.counters.h2d_bytes += len as u64;
        if let Some(src) = payload {
            if self.defer_effects() {
                // Snapshot the payload now (the host buffer is reusable
                // on return, like a pinned staging copy); land it at
                // flush time.
                self.streams[dst.device].push(StreamOp::WriteBytes {
                    handle: dst.handle,
                    offset: dst_offset,
                    data: src.to_vec(),
                });
            } else if let DeviceMem::Real(store) = &mut self.devices[dst.device].mem {
                store.get_mut().bytes_mut(dst.handle)[dst_offset..dst_offset + len]
                    .copy_from_slice(src);
            }
        }
        self.charge_host_copy(dst.device, len, async_);
        Ok(())
    }

    /// Device → host copy of `len` bytes; `out` is `None` for the
    /// timing-only variant.
    fn d2h(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        len: usize,
        out: Option<&mut [u8]>,
        async_: bool,
    ) -> Result<()> {
        Self::check_range(&src, src_offset, len)?;
        self.check_device(src.device)?;
        self.counters.d2h_copies += 1;
        self.counters.d2h_bytes += len as u64;
        if let Some(dst) = out {
            // A D2H read observes device bytes: drain pending effects
            // first.
            self.flush_streams();
            if let DeviceMem::Real(store) = &mut self.devices[src.device].mem {
                dst.copy_from_slice(&store.get_mut().bytes(src.handle)[src_offset..][..len]);
            }
        }
        self.charge_host_copy(src.device, len, async_);
        Ok(())
    }

    /// Functional half of a peer copy: queue it on the destination stream
    /// (with the source-event token) or move the bytes serially.
    fn move_bytes_d2d(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
    ) {
        if !self.functional || len == 0 {
            return;
        }
        if self.defer_effects() {
            // Event token: everything submitted to the source stream
            // so far must land before this copy reads (§8.3 ordering).
            let src_event = self.streams[src.device].submitted;
            self.streams[dst.device].push(StreamOp::CopyD2D {
                src_device: src.device,
                src_event,
                src_handle: src.handle,
                src_offset,
                dst_handle: dst.handle,
                dst_offset,
                len,
            });
        } else {
            let data: Vec<u8> = match &self.devices[src.device].mem {
                DeviceMem::Real(store) => {
                    store.read().bytes(src.handle)[src_offset..src_offset + len].to_vec()
                }
                DeviceMem::Virtual(_) => Vec::new(),
            };
            if let DeviceMem::Real(store) = &mut self.devices[dst.device].mem {
                store.get_mut().bytes_mut(dst.handle)[dst_offset..dst_offset + len]
                    .copy_from_slice(&data);
            }
        }
    }

    /// Validate the device index of a launch and every buffer
    /// argument's residency on it.
    fn check_args(&self, d: usize, args: &[SimArg]) -> Result<()> {
        self.check_device(d)?;
        match args.iter().find_map(|a| match a {
            SimArg::Buf(b) if b.device != d => Some(b.handle),
            _ => None,
        }) {
            Some(handle) => Err(SimError::BadBuffer { device: d, handle }),
            None => Ok(()),
        }
    }

    /// Machine-level launch arguments ([`Machine::check_args`]-checked)
    /// as interpreter arguments.
    fn kernel_args(args: &[SimArg]) -> Vec<KernelArg> {
        args.iter()
            .map(|a| match a {
                SimArg::Scalar(v) => KernelArg::Scalar(*v),
                SimArg::Buf(b) => KernelArg::Array(b.handle),
            })
            .collect()
    }

    /// Roofline kernel-time estimate from sampled per-thread statistics,
    /// priced with device `d`'s spec.
    fn kernel_time(
        &self,
        d: usize,
        program: &Program,
        args: &[KernelArg],
        grid_dim: Dim3,
        block_dim: Dim3,
        traffic: Option<u64>,
    ) -> Result<SimTime> {
        let total_threads = grid_dim.count() * block_dim.count();
        if total_threads == 0 {
            return Ok(0.0);
        }
        let profile = sample_program_profile(program, args, grid_dim, block_dim)?;
        let flops = profile.flops_per_thread * total_threads as f64;
        let intops = profile.intops_per_thread * total_threads as f64;
        // Memory traffic: the polyhedral footprint when provided (models
        // on-chip reuse), else the no-reuse per-thread total.
        let bytes = match traffic {
            Some(t) => t as f64,
            None => profile.bytes_per_thread * total_threads as f64,
        };
        let spec = self.spec.device_spec(d);
        let t = (flops / spec.flops)
            .max(intops / spec.int_ops)
            .max(bytes / spec.mem_bw);
        Ok(t)
    }
}

impl Backend for Machine {
    fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    fn is_functional(&self) -> bool {
        self.functional
    }

    fn is_streamed(&self) -> bool {
        self.streamed
    }

    /// Switch between streamed (default) and serial execution of the
    /// functional byte effects. Pending ops are flushed first, so the
    /// switch is safe at any point. Performance-mode machines have no
    /// byte effects; the flag is irrelevant there.
    fn set_streamed(&mut self, on: bool) {
        self.flush_streams();
        self.streamed = on;
    }

    /// Disable/enable transfer timing (the paper's β measurement: "execution
    /// with disabled transfers, but dependency resolution and tracker
    /// updates are performed").
    fn set_transfer_timing(&mut self, on: bool) {
        self.transfer_timing = on;
    }

    /// Disable/enable pattern timing (γ: "disabled dependency resolution
    /// and tracker updates").
    fn set_pattern_timing(&mut self, on: bool) {
        self.pattern_timing = on;
    }

    fn now(&self) -> SimTime {
        self.host_now
    }

    fn breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    fn counters(&self) -> OpCounters {
        self.counters
    }

    fn counters_mut(&mut self) -> &mut OpCounters {
        &mut self.counters
    }

    fn reset_clock(&mut self) {
        self.host_now = 0.0;
        self.breakdown = TimeBreakdown::default();
        self.counters = OpCounters::default();
        self.link_busy_until = 0.0;
        for d in &mut self.devices {
            d.busy_until = 0.0;
            d.copy_busy_until = 0.0;
        }
    }

    fn alloc(&mut self, d: usize, bytes: usize) -> Result<DevBuf> {
        let dev = self.device(d)?;
        let handle = match &mut dev.mem {
            DeviceMem::Real(store) => store.get_mut().alloc(bytes),
            DeviceMem::Virtual(sizes) => {
                sizes.push(bytes);
                sizes.len() - 1
            }
        };
        Ok(DevBuf {
            device: d,
            handle,
            len: bytes,
        })
    }

    fn charge_host(&mut self, seconds: SimTime, cat: TimeCat) {
        let seconds = match cat {
            TimeCat::Pattern if !self.pattern_timing => 0.0,
            TimeCat::Transfer if !self.transfer_timing => 0.0,
            _ => seconds,
        };
        self.host_now += seconds;
        match cat {
            TimeCat::Application => self.breakdown.app += seconds,
            TimeCat::Transfer => self.breakdown.transfer += seconds,
            TimeCat::Pattern => self.breakdown.pattern += seconds,
        }
    }

    fn copy_h2d(&mut self, src: &[u8], dst: DevBuf, dst_offset: usize, async_: bool) -> Result<()> {
        self.h2d(Some(src), dst, dst_offset, src.len(), async_)
    }

    fn copy_d2h(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        dst: &mut [u8],
        async_: bool,
    ) -> Result<()> {
        self.d2h(src, src_offset, dst.len(), Some(dst), async_)
    }

    /// For performance-mode harnesses where no host payload exists.
    fn copy_h2d_timed(
        &mut self,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
        async_: bool,
    ) -> Result<()> {
        self.h2d(None, dst, dst_offset, len, async_)
    }

    fn copy_d2h_timed(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        len: usize,
        async_: bool,
    ) -> Result<()> {
        self.d2h(src, src_offset, len, None, async_)
    }

    /// On a host-staged interconnect the bytes cross PCIe twice. The
    /// runtime's buffer sync issues these in bulk (paper §8.3); with
    /// `deps` they stream on the copy engines while the SMs compute, and
    /// the returned completion time threads into the caller's later
    /// event edges.
    ///
    /// A single run always counts as a transaction, even of zero bytes;
    /// no runs, or several empty ones, move nothing, tick nothing and
    /// return the current host time.
    fn copy_d2d(
        &mut self,
        src: DevBuf,
        dst: DevBuf,
        runs: CopyRuns,
        deps: Option<&[SimTime]>,
    ) -> Result<SimTime> {
        let bytes = runs.check(&src, &dst)?;
        self.check_device(src.device)?;
        self.check_device(dst.device)?;
        if bytes == 0 && runs.count != 1 {
            return Ok(self.host_now);
        }
        self.counters.d2d_copies += 1;
        self.counters.d2d_bytes += bytes as u64;
        // Class-aware pair pricing: GPU↔GPU uses the interconnect (and
        // its staging engine), CPU↔CPU a memcpy, mixed one PCIe hop.
        let (lat, bw, staged) = self.spec.pair_copy_params(src.device, dst.device);
        let t = if self.transfer_timing {
            lat + bytes as f64 / bw
        } else {
            0.0
        };
        for i in 0..runs.count {
            let shift = i * runs.stride;
            self.move_bytes_d2d(
                src,
                runs.src_offset + shift,
                dst,
                runs.dst_offset + shift,
                runs.len,
            );
        }
        // Clock: engages both endpoints — their compute clocks, or their
        // copy engines behind the caller's event edges — and, on a
        // host-staged system, the shared staging engine: peer copies then
        // serialize globally.
        let pipelined = deps.is_some();
        let mut start = self
            .host_now
            .max(*self.devices[src.device].copy_clock(pipelined))
            .max(*self.devices[dst.device].copy_clock(pipelined));
        for &edge in deps.unwrap_or_default() {
            start = start.max(edge);
        }
        if staged {
            start = start.max(self.link_busy_until);
        }
        let end = start + t;
        *self.devices[src.device].copy_clock(pipelined) = end;
        *self.devices[dst.device].copy_clock(pipelined) = end;
        if staged {
            self.link_busy_until = end;
        }
        self.breakdown.transfer += t;
        Ok(end)
    }

    /// Functional machines execute the grid (rayon-parallel over blocks);
    /// all machines charge the roofline time model, calibrated by sampling
    /// threads in counting mode.
    ///
    /// `traffic` is the number of unique bytes the launch touches — for
    /// partitioned kernels the **polyhedral footprint** of the partition
    /// (sum of the read/write enumerator ranges). It models on-chip
    /// reuse: per-thread byte counts treat every load as a DRAM access,
    /// wildly overestimating traffic for broadcast patterns (N-Body) and
    /// tiled reuse (Matmul). Without a hint the sampled per-thread bytes
    /// are used (no-reuse worst case).
    fn launch(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
        traffic: Option<u64>,
        deps: &[SimTime],
    ) -> Result<SimTime> {
        self.counters.launches += 1;
        self.check_args(d, args)?;
        // Cost model: sample threads (memoized per geometry + scalars).
        let key = KernelTimeView {
            kernel: &kernel.name,
            device: if self.spec.is_homogeneous() { 0 } else { d },
            grid: grid_dim,
            block: block_dim,
            args,
            traffic,
        };
        let hash = key.hash();
        let cached = self
            .kernel_time_cache
            .get(&hash)
            .and_then(|bucket| bucket.iter().find(|(k, _)| key.matches(k)))
            .map(|&(_, t)| t);
        // Lower once per launch, and only for a launch that runs the
        // kernel: for its byte effects or to price a cache miss. A
        // timing-only launch whose time is cached never touches it, nor
        // builds its interpreter arguments.
        let lowered = (self.functional || cached.is_none())
            .then(|| Program::lower(kernel).map(|p| (Arc::new(p), Self::kernel_args(args))))
            .transpose()?;
        let t_kernel = match cached {
            Some(t) => t,
            None => {
                let (program, kargs) = lowered.as_ref().expect("a cache miss lowers the kernel");
                let t = self.kernel_time(d, program, kargs, grid_dim, block_dim, traffic)?;
                self.kernel_time_cache
                    .entry(hash)
                    .or_default()
                    .push((key.to_key(), t));
                t
            }
        };
        // Host dispatch cost (sequential, like a real cudaLaunchKernel).
        self.charge_host(self.spec.host_per_launch, TimeCat::Application);
        // Functional execution: streamed machines defer it to the flush
        // (partitions on different devices then run concurrently); serial
        // machines run it here on the host thread.
        if let (Some((program, kargs)), true) = (lowered, self.functional) {
            if self.defer_effects() {
                self.streams[d].push(StreamOp::Kernel {
                    program,
                    args: kargs,
                    grid: grid_dim,
                    block: block_dim,
                });
            } else if let DeviceMem::Real(store) = &mut self.devices[d].mem {
                let store = store.get_mut();
                run_program(&program, &kargs, grid_dim, block_dim, store, false)?;
            }
        }
        let overhead = self.spec.device_spec(d).launch_overhead;
        let dev = &mut self.devices[d];
        let mut start = self.host_now.max(dev.busy_until);
        for &dep in deps {
            start = start.max(dep);
        }
        let t = overhead + t_kernel;
        dev.busy_until = start + t;
        self.breakdown.app += t;
        Ok(start + t)
    }

    /// The paper's §11 instrumentation path for statically unmodelable
    /// write patterns: element ranges per buffer handle, merged. The
    /// recorded launch is charged an instrumentation penalty on top of
    /// the roofline time (the paper's related work reports "significant
    /// runtime overhead" for this technique, cf. VAST).
    fn launch_recording(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
    ) -> Result<ObservedWriteSets> {
        const INSTRUMENTATION_FACTOR: f64 = 2.0;
        if !self.functional {
            return Err(SimError::BadBuffer {
                device: d,
                handle: usize::MAX,
            });
        }
        self.counters.launches += 1;
        self.check_args(d, args)?;
        let kargs = Self::kernel_args(args);
        let program = Program::lower(kernel)?;
        let t_kernel = self.kernel_time(d, &program, &kargs, grid_dim, block_dim, None)?;
        self.charge_host(self.spec.host_per_launch, TimeCat::Application);
        // Recording needs the final bytes and runs synchronously.
        self.flush_streams();
        let dev = &mut self.devices[d];
        let DeviceMem::Real(store) = &mut dev.mem else {
            unreachable!("checked functional above")
        };
        let (_, observed, _) = run_program(
            &program,
            &kargs,
            grid_dim,
            block_dim,
            store.get_mut(),
            false,
        )?;
        let start = self.host_now.max(dev.busy_until);
        let t = self.spec.device_spec(d).launch_overhead + t_kernel * INSTRUMENTATION_FACTOR;
        dev.busy_until = start + t;
        self.breakdown.app += t;
        Ok(observed)
    }

    /// cudaStreamSynchronize-like. All streams are flushed: a peer copy
    /// on `d` may depend on another device's stream, so a partial drain
    /// could not make progress.
    fn sync_device(&mut self, d: usize) -> Result<()> {
        self.flush_streams();
        let dev = self.device(d)?;
        let busy = dev.busy_until.max(dev.copy_busy_until);
        self.host_now = self.host_now.max(busy);
        Ok(())
    }

    /// cudaDeviceSynchronize over every device — the runtime's
    /// replacement semantics, §8.4 — surfacing deferred stream-worker
    /// errors (e.g. a kernel interpretation failure inside a queued
    /// launch).
    fn try_sync_all(&mut self) -> Result<()> {
        self.flush_streams();
        for dev in &self.devices {
            self.host_now = self.host_now.max(dev.busy_until).max(dev.copy_busy_until);
        }
        match self.stream_error.get_mut().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The launch-ahead pipeline uses this to model the host blocking on
    /// an in-flight launch when the window is full or flushed.
    fn join_host(&mut self, t: SimTime) {
        self.host_now = self.host_now.max(t);
    }

    /// The number of ops submitted so far. A peer passing this to
    /// [`Backend::stream_wait_cross`] waits for everything submitted to
    /// `d` up to this point.
    fn stream_mark(&self, d: usize) -> u64 {
        self.streams[d].submitted
    }

    /// Device `waiter`'s stream stalls until device `source`'s stream
    /// has completed `event` ops. Only meaningful on streamed functional
    /// machines; a no-op otherwise. Deadlock-free as long as `event`
    /// refers to ops submitted strictly before this call (host
    /// submission is a total order).
    fn stream_wait_cross(&mut self, waiter: usize, source: usize, event: u64) {
        if !self.defer_effects() || waiter == source {
            return;
        }
        self.streams[waiter].push(StreamOp::WaitEvent {
            device: source,
            event,
        });
    }

    fn debug_read(&self, buf: DevBuf) -> Option<Vec<u8>> {
        self.flush_streams();
        match &self.devices[buf.device].mem {
            DeviceMem::Real(store) => Some(store.read().bytes(buf.handle).to_vec()),
            DeviceMem::Virtual(_) => None,
        }
    }

    fn debug_write(&mut self, buf: DevBuf, data: &[u8]) {
        self.flush_streams();
        if let DeviceMem::Real(store) = &mut self.devices[buf.device].mem {
            store.get_mut().bytes_mut(buf.handle)[..data.len()].copy_from_slice(data);
        }
    }
}

/// Average per-thread operation counts of one kernel launch, measured by
/// sampling representative threads in counting mode.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadProfile {
    pub flops_per_thread: f64,
    pub intops_per_thread: f64,
    /// No-reuse per-thread DRAM bytes (every load/store counted).
    pub bytes_per_thread: f64,
}

/// Sample a kernel's per-thread cost profile: execute a few
/// representative threads (first/middle/last blocks × threads) in
/// counting mode and average the counters. Counting mode never
/// dereferences array arguments, so placeholder handles
/// (`KernelArg::Array(0)`) are fine — this is how the partitioning
/// autotuner profiles a kernel without a machine.
pub fn sample_kernel_profile(
    kernel: &Kernel,
    args: &[KernelArg],
    grid_dim: Dim3,
    block_dim: Dim3,
) -> Result<ThreadProfile> {
    sample_program_profile(&Program::lower(kernel)?, args, grid_dim, block_dim)
}

/// [`sample_kernel_profile`] of a kernel that is already lowered.
fn sample_program_profile(
    program: &Program,
    args: &[KernelArg],
    grid_dim: Dim3,
    block_dim: Dim3,
) -> Result<ThreadProfile> {
    let blocks = sample_indices(grid_dim);
    let threads = sample_indices(block_dim);
    let n_samples = (blocks.len() * threads.len()) as u64;
    if n_samples == 0 {
        return Ok(ThreadProfile::default());
    }
    let mut probe = BufStore::new();
    let launch = program.bind(args, grid_dim, block_dim, ExecMode::CountOnly)?;
    let mut frame = launch.frame();
    let mut agg = ExecStats::default();
    for &b in &blocks {
        for &t in &threads {
            agg.add(&frame.run_thread(b, t, &mut probe)?);
        }
    }
    Ok(ThreadProfile {
        flops_per_thread: agg.flops as f64 / n_samples as f64,
        intops_per_thread: agg.int_ops as f64 / n_samples as f64,
        bytes_per_thread: agg.bytes_total() as f64 / n_samples as f64,
    })
}

/// Up to 3 sample coordinates per axis: first, middle, last.
fn sample_indices(extent: Dim3) -> Vec<Dim3> {
    fn picks(n: u32) -> Vec<u32> {
        match n {
            0 => vec![],
            1 => vec![0],
            2 => vec![0, 1],
            _ => vec![0, n / 2, n - 1],
        }
    }
    let mut out = Vec::new();
    for z in picks(extent.z) {
        for y in picks(extent.y) {
            for x in picks(extent.x) {
                out.push(Dim3::new3(x, y, z));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MachineSpec;
    use mekong_kernel::builder::*;
    use mekong_kernel::Kernel;

    fn saxpy() -> Kernel {
        Kernel {
            name: "saxpy".into(),
            params: vec![
                scalar("n"),
                array_f32("x", &[ext("n")]),
                array_f32("y", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store(
                    "y",
                    vec![v("i")],
                    load("x", vec![v("i")]) * f(2.0) + load("y", vec![v("i")]),
                ),
            ],
        }
    }

    #[test]
    fn functional_roundtrip_h2d_kernel_d2h() {
        // Same ops, same bytes, whether the slots are GPUs or host sockets.
        for spec in [MachineSpec::kepler_system(2), MachineSpec::cpu_system(2)] {
            roundtrip_on(Machine::new(spec, true));
        }
    }

    fn roundtrip_on(mut m: Machine) {
        let n = 1024usize;
        let x = m.alloc(0, n * 4).unwrap();
        let y = m.alloc(0, n * 4).unwrap();
        let host_x: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        m.copy_h2d(&host_x, x, 0, false).unwrap();
        m.copy_h2d(&vec![0u8; n * 4], y, 0, false).unwrap();
        m.launch(
            0,
            &saxpy(),
            &[
                SimArg::Scalar(Value::I64(n as i64)),
                SimArg::Buf(x),
                SimArg::Buf(y),
            ],
            Dim3::new1(8),
            Dim3::new1(128),
            None,
            &[],
        )
        .unwrap();
        m.sync_all();
        let mut out = vec![0u8; n * 4];
        m.copy_d2h(y, 0, &mut out, false).unwrap();
        let vals: Vec<f32> = out
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
        assert!(m.now() > 0.0);
        let c = m.counters();
        assert_eq!(c.launches, 1);
        assert_eq!(c.h2d_copies, 2);
        assert_eq!(c.d2h_copies, 1);
    }

    #[test]
    fn launches_on_different_devices_overlap() {
        let mut m = Machine::new(MachineSpec::kepler_system(4), false);
        let n = 1 << 22;
        let bufs: Vec<_> = (0..4)
            .map(|d| (m.alloc(d, n * 4).unwrap(), m.alloc(d, n * 4).unwrap()))
            .collect();
        let k = saxpy();
        let grid = Dim3::new1((n / 256) as u32);
        let block = Dim3::new1(256);
        // One device alone:
        m.launch(
            0,
            &k,
            &[
                SimArg::Scalar(Value::I64(n as i64)),
                SimArg::Buf(bufs[0].0),
                SimArg::Buf(bufs[0].1),
            ],
            grid,
            block,
            None,
            &[],
        )
        .unwrap();
        m.sync_all();
        let t1 = m.now();
        // Four devices concurrently, quarter the grid each:
        m.reset_clock();
        let qgrid = Dim3::new1((n / 256 / 4) as u32);
        for (d, b) in bufs.iter().enumerate() {
            m.launch(
                d,
                &k,
                &[
                    SimArg::Scalar(Value::I64(n as i64)),
                    SimArg::Buf(b.0),
                    SimArg::Buf(b.1),
                ],
                qgrid,
                block,
                None,
                &[],
            )
            .unwrap();
        }
        m.sync_all();
        let t4 = m.now();
        assert!(t4 < t1, "4-way split {t4} should beat single {t1}");
        assert!(t4 > t1 / 8.0, "overheads keep it under 8x");
    }

    #[test]
    fn host_staged_peer_copies_serialize_globally() {
        // Two copies on disjoint device pairs: with host staging they
        // serialize on the staging engine; without, they overlap.
        let run = |staged: bool| -> f64 {
            let mut spec = MachineSpec::kepler_system(4);
            spec.link.host_staged = staged;
            let mut m = Machine::new(spec, false);
            let a = m.alloc(0, 1 << 24).unwrap();
            let b = m.alloc(1, 1 << 24).unwrap();
            let c = m.alloc(2, 1 << 24).unwrap();
            let d = m.alloc(3, 1 << 24).unwrap();
            m.copy_d2d(a, b, CopyRuns::contiguous(0, 0, 1 << 24), None)
                .unwrap();
            m.copy_d2d(c, d, CopyRuns::contiguous(0, 0, 1 << 24), None)
                .unwrap();
            m.sync_all();
            m.now()
        };
        let serialized = run(true);
        let overlapped = run(false);
        assert!(
            serialized > 1.8 * overlapped,
            "serialized {serialized} vs overlapped {overlapped}"
        );
    }

    #[test]
    fn strided_copy_is_one_transaction() {
        // Functional correctness: only the strided runs move.
        let mut m = Machine::new(MachineSpec::kepler_system(2), true);
        let a = m.alloc(0, 64).unwrap();
        let b = m.alloc(1, 64).unwrap();
        m.copy_h2d(&[7u8; 64], a, 0, false).unwrap();
        m.copy_h2d(&[0u8; 64], b, 0, false).unwrap();
        // 3 runs of 4 bytes, 16 apart, starting at offset 4.
        m.copy_d2d(a, b, CopyRuns::strided(4, 4, 16, 3), None)
            .unwrap();
        let mut out = [0u8; 64];
        m.copy_d2h(b, 0, &mut out, false).unwrap();
        for (i, &v) in out.iter().enumerate() {
            let in_run = (4..40).contains(&i) && (i - 4) % 16 < 4;
            assert_eq!(v, if in_run { 7 } else { 0 }, "byte {i}");
        }
        assert_eq!(m.counters().d2d_copies, 1);
        assert_eq!(m.counters().d2d_bytes, 12);

        // Timing: one latency for the whole lattice of runs, vs one
        // per run for the plain copies.
        let time_of = |strided: bool| -> f64 {
            let mut m = Machine::new(MachineSpec::kepler_system(2), false);
            let a = m.alloc(0, 1 << 20).unwrap();
            let b = m.alloc(1, 1 << 20).unwrap();
            if strided {
                m.copy_d2d(a, b, CopyRuns::strided(0, 64, 4096, 128), None)
                    .unwrap();
            } else {
                for i in 0..128 {
                    m.copy_d2d(a, b, CopyRuns::contiguous(i * 4096, i * 4096, 64), None)
                        .unwrap();
                }
            }
            m.sync_all();
            m.now()
        };
        let lat = MachineSpec::kepler_system(2).link.latency;
        assert!(time_of(false) - time_of(true) > 120.0 * lat);
        // Degenerate shapes are rejected or no-ops.
        let mut m = Machine::new(MachineSpec::kepler_system(2), true);
        let a = m.alloc(0, 64).unwrap();
        let b = m.alloc(1, 64).unwrap();
        assert!(m
            .copy_d2d(a, b, CopyRuns::strided(0, 8, 4, 2), None)
            .is_err()); // stride < run
        m.copy_d2d(a, b, CopyRuns::strided(0, 4, 16, 0), None)
            .unwrap(); // count 0: no-op
        assert_eq!(m.counters().d2d_copies, 0);
    }

    #[test]
    fn beta_config_zeroes_transfer_time() {
        let mut m = Machine::new(MachineSpec::kepler_system(2), false);
        m.set_transfer_timing(false);
        let a = m.alloc(0, 1 << 20).unwrap();
        let b = m.alloc(1, 1 << 20).unwrap();
        m.copy_d2d(a, b, CopyRuns::contiguous(0, 0, 1 << 20), None)
            .unwrap();
        m.copy_h2d(&vec![0u8; 1024], a, 0, false).unwrap();
        m.sync_all();
        assert_eq!(m.now(), 0.0);
        // The data still "moves" — counters record it.
        assert_eq!(m.counters().d2d_copies, 1);
    }

    #[test]
    fn gamma_config_zeroes_pattern_time() {
        let mut m = Machine::new(MachineSpec::kepler_system(1), false);
        m.charge_host(1.0, TimeCat::Pattern);
        assert_eq!(m.now(), 1.0);
        m.reset_clock();
        m.set_pattern_timing(false);
        m.charge_host(1.0, TimeCat::Pattern);
        assert_eq!(m.now(), 0.0);
    }

    #[test]
    fn copy_bounds_are_checked() {
        let mut m = Machine::new(MachineSpec::kepler_system(1), true);
        let a = m.alloc(0, 16).unwrap();
        let err = m.copy_h2d(&[0u8; 32], a, 0, false).unwrap_err();
        assert!(matches!(err, SimError::CopyOutOfRange { .. }));
        let err = m
            .launch(
                0,
                &saxpy(),
                &[
                    SimArg::Scalar(Value::I64(1)),
                    SimArg::Buf(DevBuf {
                        device: 1,
                        handle: 0,
                        len: 4,
                    }),
                    SimArg::Buf(a),
                ],
                Dim3::new1(1),
                Dim3::new1(1),
                None,
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, SimError::BadBuffer { .. }));
    }

    #[test]
    fn mem_bound_kernel_time_tracks_bytes() {
        // saxpy moves 12 bytes/thread; time ≈ threads*12/mem_bw.
        let m = Machine::new(MachineSpec::kepler_system(1), false);
        let k = saxpy();
        let n: u64 = 1 << 24;
        let grid = Dim3::new1((n / 256) as u32);
        let block = Dim3::new1(256);
        let args = [
            KernelArg::Scalar(Value::I64(n as i64)),
            KernelArg::Array(0),
            KernelArg::Array(1),
        ];
        let t = m
            .kernel_time(0, &Program::lower(&k).unwrap(), &args, grid, block, None)
            .unwrap();
        let expect = (n as f64) * 12.0 / m.spec().device.mem_bw;
        assert!((t / expect - 1.0).abs() < 0.2, "t={t}, expect={expect}");
    }

    #[test]
    fn debug_read_none_in_perf_mode() {
        let mut m = Machine::new(MachineSpec::kepler_system(1), false);
        let a = m.alloc(0, 64).unwrap();
        assert!(m.debug_read(a).is_none());
    }

    /// Run saxpy across `n_dev` devices followed by a ring of peer
    /// copies, then gather everything; returns (bytes per device, clock,
    /// counters).
    fn ring_workload(streamed: bool) -> (Vec<Vec<u8>>, SimTime, OpCounters) {
        let n_dev = 4;
        let n = 256usize;
        let mut m = Machine::new(MachineSpec::kepler_system(n_dev), true);
        m.set_streamed(streamed);
        let k = saxpy();
        let bufs: Vec<_> = (0..n_dev)
            .map(|d| (m.alloc(d, n * 4).unwrap(), m.alloc(d, n * 4).unwrap()))
            .collect();
        for (d, (x, y)) in bufs.iter().enumerate() {
            let host: Vec<u8> = (0..n)
                .flat_map(|i| ((d * n + i) as f32).to_le_bytes())
                .collect();
            m.copy_h2d(&host, *x, 0, true).unwrap();
            m.copy_h2d(&vec![0u8; n * 4], *y, 0, true).unwrap();
            m.launch(
                d,
                &k,
                &[
                    SimArg::Scalar(Value::I64(n as i64)),
                    SimArg::Buf(*x),
                    SimArg::Buf(*y),
                ],
                Dim3::new1(2),
                Dim3::new1(128),
                None,
                &[],
            )
            .unwrap();
        }
        // Ring: each device's second half becomes its neighbor's first
        // half — every copy depends on the source device's kernel.
        for d in 0..n_dev {
            let next = (d + 1) % n_dev;
            m.copy_d2d(
                bufs[d].1,
                bufs[next].1,
                CopyRuns::contiguous(n * 2, 0, n * 2),
                None,
            )
            .unwrap();
        }
        m.sync_all();
        let out = bufs
            .iter()
            .map(|(_, y)| m.debug_read(*y).unwrap())
            .collect();
        (out, m.now(), m.counters())
    }

    #[test]
    fn streamed_and_serial_execution_agree() {
        let (serial_mem, serial_t, serial_c) = ring_workload(false);
        let (streamed_mem, streamed_t, streamed_c) = ring_workload(true);
        // Byte-for-byte identical memory, identical simulated clock and
        // counters: streams change wall-clock scheduling only.
        assert_eq!(serial_mem, streamed_mem);
        assert_eq!(serial_t, streamed_t);
        assert_eq!(serial_c, streamed_c);
        // Sanity: the ring actually moved kernel output around.
        let vals: Vec<f32> = streamed_mem[1][..8]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        // Device 1's first half came from device 0's second half:
        // y[i] = 2*x[i] with x[i] = i, second half starts at i = 128.
        assert_eq!(vals[0], 2.0 * 128.0);
    }

    #[test]
    fn peer_copy_waits_for_source_kernel_event() {
        // Submit kernel on device 0 and immediately a D2D to device 1;
        // under streams the copy's worker must block on device 0's event
        // or it would read zeros.
        let n = 512usize;
        let mut m = Machine::new(MachineSpec::kepler_system(2), true);
        assert!(m.is_streamed(), "streams are on by default");
        let x = m.alloc(0, n * 4).unwrap();
        let y = m.alloc(0, n * 4).unwrap();
        let z = m.alloc(1, n * 4).unwrap();
        let host: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        m.copy_h2d(&host, x, 0, true).unwrap();
        m.copy_h2d(&vec![0u8; n * 4], y, 0, true).unwrap();
        m.launch(
            0,
            &saxpy(),
            &[
                SimArg::Scalar(Value::I64(n as i64)),
                SimArg::Buf(x),
                SimArg::Buf(y),
            ],
            Dim3::new1(4),
            Dim3::new1(128),
            None,
            &[],
        )
        .unwrap();
        m.copy_d2d(y, z, CopyRuns::contiguous(0, 0, n * 4), None)
            .unwrap();
        m.sync_all();
        let out = m.debug_read(z).unwrap();
        for (i, c) in out.chunks_exact(4).enumerate() {
            let v = f32::from_le_bytes(c.try_into().unwrap());
            assert_eq!(v, 2.0 * i as f32, "element {i}");
        }
    }

    #[test]
    fn deferred_kernel_error_surfaces_at_sync() {
        // An out-of-bounds store only fails when the deferred kernel op
        // actually runs; try_sync_all must hand the error back.
        let bad = Kernel {
            name: "oob".into(),
            params: vec![scalar("n"), array_f32("y", &[ext("n")])],
            body: vec![store("y", vec![i(1 << 20)], f(1.0))],
        };
        let mut m = Machine::new(MachineSpec::kepler_system(1), true);
        let y = m.alloc(0, 64).unwrap();
        m.launch(
            0,
            &bad,
            &[SimArg::Scalar(Value::I64(16)), SimArg::Buf(y)],
            Dim3::new1(1),
            Dim3::new1(1),
            None,
            &[],
        )
        .unwrap();
        let err = m.try_sync_all().unwrap_err();
        assert!(matches!(err, SimError::Kernel(_)), "{err}");
        // The error is consumed: the machine is usable again.
        m.try_sync_all().unwrap();
    }

    #[test]
    fn set_streamed_false_falls_back_to_serial() {
        let mut m = Machine::new(MachineSpec::kepler_system(2), true);
        m.set_streamed(false);
        let a = m.alloc(0, 16).unwrap();
        m.copy_h2d(&[7u8; 16], a, 0, false).unwrap();
        // Serial engine applies effects at submission: visible without
        // any sync (debug_read flushes, but there is nothing queued).
        assert_eq!(m.debug_read(a).unwrap(), vec![7u8; 16]);
    }

    #[test]
    fn pipelined_copy_overlaps_compute_clock() {
        // A pipelined peer copy runs on the copy engines: it must not
        // push either endpoint's compute clock, and a subsequent launch
        // gated only on the compute clock starts as if no copy happened.
        let mut m = Machine::new(MachineSpec::kepler_system(2), false);
        let n = 1 << 20;
        let a0 = m.alloc(0, n * 4).unwrap();
        let a1 = m.alloc(1, n * 4).unwrap();
        let y0 = m.alloc(0, n * 4).unwrap();
        let k = saxpy();
        let grid = Dim3::new1((n / 256) as u32);
        let block = Dim3::new1(256);
        let args = [
            SimArg::Scalar(Value::I64(n as i64)),
            SimArg::Buf(a0),
            SimArg::Buf(y0),
        ];
        // Baseline: two launches back to back.
        m.launch(0, &k, &args, grid, block, None, &[]).unwrap();
        m.launch(0, &k, &args, grid, block, None, &[]).unwrap();
        m.sync_all();
        let t_serial_launches = m.now();
        // Same two launches with a large peer copy pipelined between
        // them: the copy overlaps, so the compute-critical path is
        // unchanged and sync time is the max of the two engines.
        m.reset_clock();
        m.launch(0, &k, &args, grid, block, None, &[]).unwrap();
        let copy_end = m
            .copy_d2d(a0, a1, CopyRuns::contiguous(0, 0, n * 4), Some(&[]))
            .unwrap();
        m.launch(0, &k, &args, grid, block, None, &[]).unwrap();
        m.sync_all();
        let t_pipe = m.now();
        assert!(copy_end > 0.0);
        assert!(
            t_pipe <= t_serial_launches.max(copy_end) + 1e-12,
            "pipelined copy must overlap: {t_pipe} vs launches {t_serial_launches} copy {copy_end}"
        );
        // The eager copy path serializes on the device clock instead.
        m.reset_clock();
        m.launch(0, &k, &args, grid, block, None, &[]).unwrap();
        m.copy_d2d(a0, a1, CopyRuns::contiguous(0, 0, n * 4), None)
            .unwrap();
        m.launch(0, &k, &args, grid, block, None, &[]).unwrap();
        m.sync_all();
        let t_eager = m.now();
        assert!(
            t_pipe < t_eager,
            "overlap should beat serialization: {t_pipe} vs {t_eager}"
        );
    }

    #[test]
    fn pipelined_launch_waits_for_dep_edges() {
        let mut m = Machine::new(MachineSpec::kepler_system(1), false);
        let n = 4096usize;
        let x = m.alloc(0, n * 4).unwrap();
        let y = m.alloc(0, n * 4).unwrap();
        let k = saxpy();
        let args = [
            SimArg::Scalar(Value::I64(n as i64)),
            SimArg::Buf(x),
            SimArg::Buf(y),
        ];
        let dep = 5.0; // far in the simulated future
        let end = m
            .launch(0, &k, &args, Dim3::new1(16), Dim3::new1(256), None, &[dep])
            .unwrap();
        assert!(end > dep, "launch must start after its event edge");
        m.sync_all();
        assert!(m.now() >= end);
    }

    #[test]
    fn cross_stream_wait_orders_writer_after_inflight_reader() {
        // Device 1 snapshots x from device 0 (peer copy), then device 0
        // overwrites x. Without the cross-stream wait the overwrite could
        // race the snapshot during the flush; with it, device 0's kernel
        // stalls until the copy completed, so device 1 always sees the
        // pre-overwrite bytes.
        for _ in 0..64 {
            let mut m = Machine::new(MachineSpec::kepler_system(2), true);
            let n = 1024usize;
            let x0 = m.alloc(0, n * 4).unwrap();
            let y0 = m.alloc(0, n * 4).unwrap();
            let x1 = m.alloc(1, n * 4).unwrap();
            let host: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
            m.copy_h2d(&host, x0, 0, false).unwrap();
            m.copy_h2d(&vec![0u8; n * 4], y0, 0, false).unwrap();
            // Reader: snapshot x0 into device 1.
            m.copy_d2d(x0, x1, CopyRuns::contiguous(0, 0, n * 4), None)
                .unwrap();
            let token = m.stream_mark(1);
            // Writer: saxpy writes y0 but ALSO overwrite x0 afterwards to
            // model an in-place producer (swap roles: y=2x+y writes y; we
            // overwrite x0 via h2d-deferred write below the wait).
            m.stream_wait_cross(0, 1, token);
            m.copy_h2d(&vec![0xFFu8; n * 4], x0, 0, true).unwrap();
            m.sync_all();
            let got = m.debug_read(x1).unwrap();
            assert_eq!(got, host, "reader must observe pre-overwrite bytes");
        }
    }

    #[test]
    fn launch_on_missing_device_is_an_error() {
        // No buffer argument names a device, so only the index check can
        // catch a launch on slot `n`.
        let mut m = Machine::new(MachineSpec::kepler_system(2), true);
        let noop = Kernel {
            name: "noop".into(),
            params: vec![scalar("n")],
            body: vec![],
        };
        let args = [SimArg::Scalar(Value::I64(1))];
        let (g, b) = (Dim3::new1(1), Dim3::new1(1));
        let missing = SimError::NoSuchDevice {
            device: 2,
            n_devices: 2,
        };
        let err = m.launch(2, &noop, &args, g, b, None, &[]).unwrap_err();
        assert_eq!(err, missing);
        let err = m.launch_recording(2, &noop, &args, g, b).unwrap_err();
        assert_eq!(err, missing);
        m.launch(1, &noop, &args, g, b, None, &[]).unwrap();
    }

    /// Run `runs` from device 0 to device 1 of a fresh functional
    /// machine whose source holds 0..64; returns (completion, synced
    /// host clock, counters, destination bytes).
    fn peer_copy(
        runs: CopyRuns,
        deps: Option<&[SimTime]>,
    ) -> (SimTime, SimTime, OpCounters, Vec<u8>) {
        let mut m = Machine::new(MachineSpec::kepler_system(2), true);
        let a = m.alloc(0, 64).unwrap();
        let b = m.alloc(1, 64).unwrap();
        m.debug_write(a, &(0..64).collect::<Vec<u8>>());
        let end = m.copy_d2d(a, b, runs, deps).unwrap();
        m.sync_all();
        (end, m.now(), m.counters(), m.debug_read(b).unwrap())
    }

    #[test]
    fn single_strided_run_equals_contiguous_copy() {
        // One run is one run however it is spelled — on the compute
        // clocks and on the copy engines behind an event edge.
        for deps in [None, Some(&[1.0e-3][..])] {
            let plain = peer_copy(CopyRuns::contiguous(8, 8, 16), deps);
            // The stride of a single run is never consulted.
            for stride in [16, 4096, 0] {
                assert_eq!(peer_copy(CopyRuns::strided(8, 16, stride, 1), deps), plain);
            }
            let (end, now, c, bytes) = plain;
            assert!(end > 0.0 && now == end);
            assert_eq!((c.d2d_copies, c.d2d_bytes), (1, 16));
            assert_eq!(bytes[8..24], (8..24).collect::<Vec<u8>>()[..]);
            assert!(bytes[..8].iter().chain(&bytes[24..]).all(|&v| v == 0));
        }
    }

    #[test]
    fn zero_length_copies_tick_only_as_a_single_run() {
        for deps in [None, Some(&[1.0e-3][..])] {
            // One empty run is still a transaction: latency and a tick.
            let (end, _, c, _) = peer_copy(CopyRuns::contiguous(0, 0, 0), deps);
            assert!(end > 0.0);
            assert_eq!((c.d2d_copies, c.d2d_bytes), (1, 0));
            // No runs, or several empty ones: nothing happens, and the
            // completion time is the (unmoved) host clock.
            for runs in [
                CopyRuns::strided(0, 4, 16, 0),
                CopyRuns::strided(0, 0, 16, 3),
            ] {
                let (end, now, c, _) = peer_copy(runs, deps);
                assert_eq!((end, now), (0.0, 0.0));
                assert_eq!(c.d2d_copies, 0);
            }
        }
    }

    #[test]
    fn copy_shapes_use_checked_arithmetic() {
        // Offsets, strides and counts can arrive verbatim from a plan
        // snapshot: sums and products must fail, not wrap or panic.
        let mut m = Machine::new(MachineSpec::kepler_system(2), false);
        let a = m.alloc(0, 64).unwrap();
        let b = m.alloc(1, 64).unwrap();
        let huge = usize::MAX - 1;
        let err = m
            .copy_d2d(a, b, CopyRuns::contiguous(huge, 0, 8), None)
            .unwrap_err();
        assert!(matches!(err, SimError::CopyOutOfRange { .. }), "{err}");
        let err = m.copy_h2d_timed(a, huge, 8, false).unwrap_err();
        assert!(matches!(err, SimError::CopyOutOfRange { .. }), "{err}");
        for runs in [
            CopyRuns::strided(0, 4, huge, 3),
            CopyRuns::strided(0, 4, 8, huge),
        ] {
            let err = m.copy_d2d(a, b, runs, Some(&[])).unwrap_err();
            assert!(matches!(err, SimError::BadStride { .. }), "{err}");
        }
        assert_eq!(m.counters(), OpCounters::default());
    }

    #[test]
    fn host_socket_copies_cost_memcpys_and_skip_the_staging_engine() {
        // Every transfer class of a pure-host machine is one memcpy at
        // the host_copy constants — far cheaper than the same bytes over
        // the simulated PCIe link.
        let len = 64 << 20;
        let spec = MachineSpec::cpu_system(4);
        assert!(spec.link.host_staged, "the unused link stays Kepler's");
        let memcpy = spec.host_copy_lat() + len as f64 / spec.host_copy_bw();
        let mut cpu = Machine::new(spec, false);
        let bufs: Vec<_> = (0..4).map(|d| cpu.alloc(d, len).unwrap()).collect();
        cpu.copy_h2d_timed(bufs[0], 0, len, false).unwrap();
        assert!((cpu.now() - memcpy).abs() < 1e-12);
        cpu.copy_d2h_timed(bufs[0], 0, len, false).unwrap();
        assert!((cpu.now() - 2.0 * memcpy).abs() < 1e-12);
        let mut gpu = Machine::new(MachineSpec::kepler_system(1), false);
        let g = gpu.alloc(0, len).unwrap();
        gpu.copy_h2d_timed(g, 0, len, false).unwrap();
        assert!(memcpy < gpu.now(), "{memcpy} !< {}", gpu.now());
        // Peer copies on disjoint socket pairs overlap: no shared
        // staging engine serialises them, eager or pipelined.
        for deps in [None, Some(&[][..])] {
            cpu.reset_clock();
            let runs = CopyRuns::contiguous(0, 0, len);
            let e01 = cpu.copy_d2d(bufs[0], bufs[1], runs, deps).unwrap();
            let e23 = cpu.copy_d2d(bufs[2], bufs[3], runs, deps).unwrap();
            assert!((e01 - memcpy).abs() < 1e-12);
            assert_eq!(e01, e23);
        }
    }

    #[test]
    fn peer_memcpy_moves_bytes_between_sockets() {
        let mut m = Machine::new(MachineSpec::cpu_system(2), true);
        let a = m.alloc(0, 64).unwrap();
        let b = m.alloc(1, 64).unwrap();
        m.debug_write(a, &[7u8; 64]);
        m.copy_d2d(a, b, CopyRuns::contiguous(16, 16, 32), None)
            .unwrap();
        let out = m.debug_read(b).unwrap();
        assert_eq!(&out[16..48], &[7u8; 32]);
        assert_eq!(&out[..16], &[0u8; 16]);
        assert_eq!(m.counters().d2d_copies, 1);
        assert_eq!(m.counters().d2d_bytes, 32);
    }
}
