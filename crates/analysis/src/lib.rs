//! # mekong-analysis — polyhedral memory access analysis (paper §4)
//!
//! Builds the *application model* of a kernel: for every array argument, a
//! polyhedral map from thread-grid coordinates to the array elements the
//! kernel reads and writes.
//!
//! ## Dimension convention
//!
//! Access maps have six input dimensions, in the paper's `z, y, x` tuple
//! order:
//!
//! ```text
//! [ boz, boy, box, biz, biy, bix ]      (blockOff, then blockIdx)
//! ```
//!
//! `blockOff.w = blockIdx.w · blockDim.w` encapsulates the non-affine
//! product in the global-thread-position expression (paper eq. 5–7).
//! During extraction three more dimensions `[tiz, tiy, tix]` exist for
//! `threadIdx`; they are constrained by `0 ≤ threadIdx < blockDim` and
//! projected out (§4.1), leaving maps `Z^6 → Z^d`.
//!
//! Parameters, in order: `[bdz, bdy, bdx, gdz, gdy, gdx]` (block and grid
//! extents) followed by the kernel's scalar parameters.
//!
//! ## Soundness rules (matching §4)
//!
//! * Read maps may be over-approximated ("may" reads).
//! * Write maps must be **exact** and **block-injective**, otherwise the
//!   kernel is rejected for partitioning. We check injectivity at thread
//!   *block* granularity — the property partition correctness actually
//!   needs, since partitions split at block boundaries (the paper states
//!   the stronger per-thread form).

pub mod annotate;
pub mod extract;
pub mod injective;
pub mod interval;
pub mod model;
pub mod space;
pub mod strategy;

pub use annotate::{apply_annotations, scan_annotations, value_ranges, Annotation, AnnotationKind};
pub use extract::{analyze_kernel, analyze_kernel_boxed, analyze_kernel_with, ValueRanges};
pub use injective::is_block_injective;
pub use interval::{widen, AbsVal};
pub use model::{AccessKind, AppModel, ArgModel, ArrayAccess, KernelModel, ModelError, Verdict};
pub use space::{AnalysisSpace, BD_OFF, GD_OFF, N_FIXED_PARAMS, N_GRID_DIMS, N_MAP_IN};
pub use strategy::{suggest_split, SplitAxis};

/// Errors produced by the analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The underlying polyhedral library failed.
    Poly(mekong_poly::PolyError),
    /// The kernel IR is malformed.
    Kernel(mekong_kernel::KernelError),
}

impl From<mekong_poly::PolyError> for AnalysisError {
    fn from(e: mekong_poly::PolyError) -> Self {
        AnalysisError::Poly(e)
    }
}

impl From<mekong_kernel::KernelError> for AnalysisError {
    fn from(e: mekong_kernel::KernelError) -> Self {
        AnalysisError::Kernel(e)
    }
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Poly(e) => write!(f, "polyhedral error: {e}"),
            AnalysisError::Kernel(e) => write!(f, "kernel error: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, AnalysisError>;
