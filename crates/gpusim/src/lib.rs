//! # mekong-gpusim — a multi-GPU machine simulator
//!
//! The hardware substitute for the paper's 8×K80 (16 logical GPUs)
//! testbed. It provides:
//!
//! * **Per-device memories** — kernels on different devices only see their
//!   device's buffers, so coherence bugs in the runtime become functional
//!   failures, not just timing artifacts.
//! * **Functional kernel execution** — the lowered kernel executor from
//!   `mekong-kernel`, fanned out over blocks on scoped threads. Cross-block
//!   isolation is enforced with shadow write-buffers: every block reads
//!   the pre-launch state and its own writes, exactly the coherence that
//!   CUDA guarantees between thread blocks (§2.1). Every byte effect —
//!   an H2D payload, a peer copy, a kernel grid — lands on the host
//!   thread when its op is submitted, in program order, so a failing
//!   kernel is an error of the launch that ran it.
//! * **A calibrated timing model** — simulated clocks per device plus a
//!   host clock. Kernels cost a roofline time
//!   `max(flops/F, bytes/B, intops/I)` measured by sampling threads in
//!   counting mode; transfers cost `latency + bytes/bandwidth` on the
//!   PCIe link; host-side metadata work is charged explicitly by the
//!   runtime. Asynchronous semantics follow CUDA on the simulated
//!   clocks: launches and async copies return immediately,
//!   `synchronize` joins the clocks.
//!
//! Absolute times are *model* times; the reproduction targets the shape
//! of the paper's results (who wins, where scaling saturates), not the
//! testbed's absolute numbers.

pub mod backend;
pub mod machine;
pub mod shadow;
pub mod spec;

pub use backend::{Backend, CpuBackend, ObservedWriteSets};
pub use machine::{
    sample_kernel_profile, CopyRuns, DevBuf, Machine, OpCounters, SimArg, SimTime, ThreadProfile,
    TimeBreakdown, TimeCat,
};
pub use spec::{DeviceClass, DeviceSpec, LinkSpec, MachineSpec};

/// Errors from the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Kernel interpretation failed.
    Kernel(mekong_kernel::KernelError),
    /// A buffer handle was used on the wrong device or after free.
    BadBuffer { device: usize, handle: usize },
    /// Copy range exceeds buffer size.
    CopyOutOfRange {
        buffer_len: usize,
        offset: usize,
        len: usize,
    },
    /// Device index out of range.
    NoSuchDevice { device: usize, n_devices: usize },
    /// A strided copy whose runs would overlap (stride smaller than
    /// the run length).
    BadStride { run: usize, stride: usize },
}

impl From<mekong_kernel::KernelError> for SimError {
    fn from(e: mekong_kernel::KernelError) -> Self {
        SimError::Kernel(e)
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Kernel(e) => write!(f, "kernel error: {e}"),
            SimError::BadBuffer { device, handle } => {
                write!(f, "bad buffer handle {handle} on device {device}")
            }
            SimError::CopyOutOfRange {
                buffer_len,
                offset,
                len,
            } => write!(
                f,
                "copy [{offset}, {}) exceeds buffer of {buffer_len} bytes",
                offset.saturating_add(*len)
            ),
            SimError::NoSuchDevice { device, n_devices } => {
                write!(f, "device {device} out of range ({n_devices} devices)")
            }
            SimError::BadStride { run, stride } => {
                write!(f, "strided copy: stride {stride} smaller than run {run}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, SimError>;
