//! The machine-level executor abstraction.
//!
//! `Backend` is the op surface the partitioning runtime drives:
//! allocation, host↔device copies, **one** peer copy
//! ([`Backend::copy_d2d`]), **one** timed launch ([`Backend::launch`])
//! plus its write-recording variant, stream events, per-device clocks
//! and the shared operation counters. Everything the runtime does above
//! this line — trackers, validity sets, plan capture/replay, the tuner —
//! is backend-agnostic: a "device" is any unit that owns memory and
//! executes a grid range.
//!
//! There is one implementation, [`crate::Machine`]: its device slots are
//! simulated GPUs, host CPU sockets, or both
//! ([`crate::spec::MachineSpec::kepler_system`] / `cpu_system` /
//! `hybrid_system`), and every copy is priced by its endpoints' classes.
//! The trait exists so the runtime holds a `Box<dyn Backend>` and a test
//! can substitute a wrapper (fault injection, tracing) around the one
//! machine.

use crate::machine::{CopyRuns, DevBuf, OpCounters, SimArg, SimTime, TimeBreakdown, TimeCat};
use crate::spec::MachineSpec;
use crate::{Machine, Result};
use mekong_kernel::{Dim3, Kernel};
use std::collections::HashMap;

/// Element ranges observed per buffer handle by a recording launch.
pub type ObservedWriteSets = HashMap<usize, Vec<(u64, u64)>>;

/// A machine-level executor: device memories, copies, launches, clocks.
///
/// Object-safe — the runtime holds a `Box<dyn Backend>` and dispatches
/// every copy and launch through it, eager and pipelined alike.
pub trait Backend {
    /// The machine specification (devices, links, host-cost constants).
    fn spec(&self) -> &MachineSpec;
    /// Number of devices.
    fn n_devices(&self) -> usize {
        self.spec().n_devices
    }
    /// Does this backend materialize bytes (vs. timing-only)?
    fn is_functional(&self) -> bool;

    /// Streamed (deferred-effect) execution of the functional byte
    /// effects.
    fn is_streamed(&self) -> bool;
    /// Enable/disable streamed execution.
    fn set_streamed(&mut self, on: bool);
    /// β configuration: charge (or zero) transfer time.
    fn set_transfer_timing(&mut self, on: bool);
    /// γ configuration: charge (or zero) pattern time.
    fn set_pattern_timing(&mut self, on: bool);

    /// Current host clock.
    fn now(&self) -> SimTime;
    /// Informational time breakdown.
    fn breakdown(&self) -> TimeBreakdown;
    /// Operation counters.
    fn counters(&self) -> OpCounters;
    /// The counters, for the runtime to report what only it can see
    /// (plan-cache hits, tuner decisions, replica statistics — see the
    /// [`OpCounters`] fields).
    fn counters_mut(&mut self) -> &mut OpCounters;
    /// Reset clocks, breakdown and counters (memory contents stay).
    fn reset_clock(&mut self);

    /// Allocate `bytes` on device `d`.
    fn alloc(&mut self, d: usize, bytes: usize) -> Result<DevBuf>;
    /// Charge host-side work (advances the host clock; devices keep
    /// running).
    fn charge_host(&mut self, seconds: SimTime, cat: TimeCat);

    /// Host → device copy. Synchronous unless `async_`.
    fn copy_h2d(&mut self, src: &[u8], dst: DevBuf, dst_offset: usize, async_: bool) -> Result<()>;
    /// Device → host copy. Synchronous unless `async_`.
    fn copy_d2h(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        dst: &mut [u8],
        async_: bool,
    ) -> Result<()>;
    /// Host → device copy without host data (timing + counters only).
    fn copy_h2d_timed(
        &mut self,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
        async_: bool,
    ) -> Result<()>;
    /// Device → host copy without a host destination (timing + counters).
    fn copy_d2h_timed(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        len: usize,
        async_: bool,
    ) -> Result<()>;

    /// Peer copy of `runs` from `src` to `dst` as **one** link
    /// transaction (asynchronous; returns the completion time).
    ///
    /// `deps: None` is the Figure 4 copy: charged to the endpoints'
    /// compute clocks. `Some(edges)` is the launch-ahead copy: charged
    /// to their copy-engine clocks, and it cannot start before any of
    /// the event `edges`. Both serialise on the staging engine when the
    /// pair is host-staged.
    fn copy_d2d(
        &mut self,
        src: DevBuf,
        dst: DevBuf,
        runs: CopyRuns,
        deps: Option<&[SimTime]>,
    ) -> Result<SimTime>;

    /// Launch a kernel asynchronously on device `d`; returns the
    /// completion time. `traffic` is the launch's memory-traffic
    /// estimate for the roofline's bandwidth term (the partition's
    /// polyhedral footprint; `None` = sampled per-thread bytes), and the
    /// kernel additionally waits for the `deps` event edges.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
        traffic: Option<u64>,
        deps: &[SimTime],
    ) -> Result<SimTime>;
    /// Launch recording the observed write set per buffer (functional
    /// backends only; instrumentation-penalized).
    fn launch_recording(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
    ) -> Result<ObservedWriteSets>;

    /// Block host until device `d` is idle.
    fn sync_device(&mut self, d: usize) -> Result<()>;
    /// Block host until all devices are idle; panics on deferred errors.
    fn sync_all(&mut self) {
        self.try_sync_all()
            .expect("deferred stream error at sync_all");
    }
    /// [`Backend::sync_all`] surfacing deferred stream errors.
    fn try_sync_all(&mut self) -> Result<()>;
    /// Advance the host clock to `t` (no-op when already past).
    fn join_host(&mut self, t: SimTime);

    /// Current event token of device `d`'s stream.
    fn stream_mark(&self, d: usize) -> u64;
    /// Queue a cross-stream event wait.
    fn stream_wait_cross(&mut self, waiter: usize, source: usize, event: u64);

    /// Read back a whole device buffer (functional backends only; test
    /// helper that bypasses the clock).
    fn debug_read(&self, buf: DevBuf) -> Option<Vec<u8>>;
    /// Write a whole device buffer directly (functional test helper).
    fn debug_write(&mut self, buf: DevBuf, data: &[u8]);
}

/// The host CPU as a machine of its own. Not an executor: host sockets
/// are `HostCpu`-class device slots of the one [`Machine`], which runs
/// their grid ranges on the same block-isolated interpreter and prices
/// every transfer between them as a host memcpy.
pub struct CpuBackend;

impl CpuBackend {
    /// A machine of `n_sockets` 16-core host sockets
    /// ([`MachineSpec::cpu_system`]).
    pub fn system(n_sockets: usize, functional: bool) -> Machine {
        Machine::new(MachineSpec::cpu_system(n_sockets), functional)
    }
}
