//! # mekong-runtime — the multi-GPU runtime library (paper §8)
//!
//! The static runtime every partitioned application links against:
//!
//! * [`Tracker`] — the per-buffer segment list mapping byte ranges to
//!   their coherence state (§8.1), extended from the paper's single-owner
//!   scheme to a compact validity set per segment: the device (or host)
//!   holding the most recently written copy *plus* the set of devices
//!   holding valid replicas. Backed by a B-tree keyed on segment start.
//! * virtual buffers — one device-local instance per device plus a
//!   tracker, replacing the single CUDA allocation (§8.1).
//! * [`MgpuRuntime`] — the CUDA Runtime API replacement (§8.4):
//!   `mgpu_malloc`, `mgpu_memcpy_*` (1:n scatter, n:1 gather, §8.2),
//!   `mgpu_synchronize`, and the partitioned kernel launch sequence of
//!   Figure 4: synchronize read buffers → launch partitions → update
//!   trackers.
//!
//! The α/β/γ measurement configurations of §9.2 are exposed through
//! [`RuntimeConfig`]: β disables transfer *timing* (data still moves so
//! functional checks keep passing), γ additionally disables
//! dependency-resolution timing.
//!
//! Iterative applications relaunch identical configurations thousands of
//! times; the [`plan`] module caches the whole rewritten launch sequence
//! (CUDA-Graphs-style capture & replay) keyed by the structural state of
//! every argument buffer's tracker. See [`RuntimeConfig::capture_plans`].

pub mod cache;
pub mod compiled;
pub mod launch;
pub mod persist;
pub mod pipeline;
pub mod plan;
pub mod tracker;
pub mod vbuf;

pub use cache::ShardedPlanCache;
pub use compiled::CompiledKernel;
pub use launch::LaunchArg;
pub use mekong_tuner::{decode_strategy, Autotuner, Candidate, PartitionStrategy};
pub use persist::{load_snapshot_json, snapshot_to_json, SNAPSHOT_VERSION};
pub use plan::{ArgKey, LaunchPlan, PlanCopy, PlanKey, PlanLaunch, PlanUpdate, PostStateMemo};
pub use tracker::{DeviceSet, Owner, Tracker, TrackerState, UpdateStats, Validity};
pub use vbuf::{MgpuRuntime, RuntimeConfig, TunerReport, VBufId};

/// Errors from the runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// Device-to-device user memcpy (unsupported, §8.2).
    Unsupported(&'static str),
    /// Host buffer length does not match the virtual buffer.
    SizeMismatch { expected: usize, got: usize },
    /// Argument mismatch at launch.
    BadArgument(String),
    /// The kernel was not cleared for partitioning (§4 checks).
    NotPartitionable(String),
    /// A 64-bit byte offset or length does not fit the host's `usize`
    /// (copy/gather paths refuse to truncate on 32-bit hosts).
    Overflow { value: u64, what: &'static str },
    /// Simulator failure.
    Sim(mekong_gpusim::SimError),
    /// Polyhedral failure.
    Poly(mekong_poly::PolyError),
    /// A plan-cache snapshot could not be loaded (version mismatch or
    /// malformed document). The cache is untouched when this is raised.
    Snapshot(String),
}

impl From<mekong_gpusim::SimError> for RuntimeError {
    fn from(e: mekong_gpusim::SimError) -> Self {
        RuntimeError::Sim(e)
    }
}

impl From<mekong_poly::PolyError> for RuntimeError {
    fn from(e: mekong_poly::PolyError) -> Self {
        RuntimeError::Poly(e)
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Unsupported(w) => write!(f, "unsupported operation: {w}"),
            RuntimeError::SizeMismatch { expected, got } => {
                write!(f, "buffer size mismatch: expected {expected}, got {got}")
            }
            RuntimeError::BadArgument(m) => write!(f, "bad launch argument: {m}"),
            RuntimeError::NotPartitionable(m) => write!(f, "kernel not partitionable: {m}"),
            RuntimeError::Overflow { value, what } => {
                write!(f, "{what} {value} does not fit this host's usize")
            }
            RuntimeError::Sim(e) => write!(f, "simulator: {e}"),
            RuntimeError::Poly(e) => write!(f, "polyhedral: {e}"),
            RuntimeError::Snapshot(m) => write!(f, "plan snapshot: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Checked `u64 → usize` narrowing for copy/gather byte offsets and
/// lengths. Tracker coordinates are 64-bit; host slices are `usize`-
/// indexed. On 64-bit hosts this never fails, but on a 32-bit host a
/// silent `as usize` would truncate and copy the wrong bytes — surface
/// a [`RuntimeError::Overflow`] instead.
pub(crate) fn to_usize(value: u64, what: &'static str) -> Result<usize> {
    usize::try_from(value).map_err(|_| RuntimeError::Overflow { value, what })
}

#[cfg(test)]
mod error_tests {
    use super::*;

    #[test]
    fn to_usize_accepts_values_that_fit() {
        assert_eq!(to_usize(0, "offset").unwrap(), 0);
        assert_eq!(to_usize(123_456, "offset").unwrap(), 123_456);
    }

    #[test]
    #[cfg(target_pointer_width = "32")]
    fn to_usize_rejects_oversized_values() {
        let err = to_usize(u64::from(u32::MAX) + 1, "copy length").unwrap_err();
        assert!(matches!(err, RuntimeError::Overflow { .. }));
    }

    #[test]
    fn overflow_error_names_the_field() {
        let e = RuntimeError::Overflow {
            value: 42,
            what: "copy offset",
        };
        assert_eq!(
            e.to_string(),
            "copy offset 42 does not fit this host's usize"
        );
    }
}
