//! # mekong-kernel — mini-CUDA kernel IR and thread-grid executor
//!
//! The toolchain's device-side program representation: a small, typed IR
//! for data-parallel kernels in the CUDA execution model (paper §2.1).
//! It stands in for the LLVM IR that gpucc would produce — rich enough to
//! express the paper's benchmark kernels (Hotspot, N-Body, Matmul) and the
//! whole class of "regular access pattern" kernels the paper targets,
//! small enough to analyze precisely.
//!
//! Pieces:
//!
//! * [`ir`] — kernels, statements, expressions, parameters,
//! * [`builder`] — an ergonomic DSL with operator overloading for
//!   constructing IR in Rust (used by tests and the workload crate),
//! * [`lower`] — the one name-resolution walk: a kernel becomes a
//!   [`Program`] of frame slots and argument indices (and that walk is
//!   what [`Kernel::validate`] means),
//! * [`interp`] — runs a lowered program's threads on one reused frame,
//!   with instruction/byte counting (functional execution *and* the cost
//!   model's measurement device),
//! * [`exec`] — block/grid execution drivers over a [`MemAccess`] memory
//!   interface: lower once per call, then run,
//! * [`pretty`] — renders IR back to CUDA-like source.
//!
//! The grid follows CUDA's hierarchy: a 3-D grid of 3-D thread blocks,
//! addressed by `blockIdx`/`threadIdx` with extents `gridDim`/`blockDim`.

pub mod builder;
pub mod exec;
pub mod interp;
pub mod ir;
pub mod lower;
pub mod pretty;
pub mod types;

pub use exec::{execute_block, execute_grid};
pub use interp::{ExecMode, ExecStats, Frame, KernelArg, Launch, MemAccess, VecMem};
pub use ir::{Axis, BinOp, Expr, Extent, GridVar, Kernel, KernelParam, Stmt, UnOp};
pub use lower::Program;
pub use types::{Dim3, ScalarTy, Value};

/// Errors raised by IR construction, validation or interpretation.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// Reference to an unknown local variable or parameter.
    UnknownVar(String),
    /// Reference to an unknown array parameter.
    UnknownArray(String),
    /// An operation was applied to incompatible value types.
    TypeMismatch { context: String },
    /// Array access outside its extents (functional mode only).
    OutOfBounds {
        array: String,
        index: Vec<i64>,
        extents: Vec<i64>,
    },
    /// Integer division by zero.
    DivByZero,
    /// A `for` loop exceeded the interpreter's iteration budget.
    IterationBudget { var: String },
    /// Kernel argument count/type mismatch at launch.
    BadArguments { expected: usize, got: usize },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::UnknownVar(v) => write!(f, "unknown variable {v:?}"),
            KernelError::UnknownArray(a) => write!(f, "unknown array {a:?}"),
            KernelError::TypeMismatch { context } => write!(f, "type mismatch in {context}"),
            KernelError::OutOfBounds {
                array,
                index,
                extents,
            } => write!(
                f,
                "array {array:?} index {index:?} out of bounds {extents:?}"
            ),
            KernelError::DivByZero => write!(f, "integer division by zero"),
            KernelError::IterationBudget { var } => {
                write!(f, "loop over {var:?} exceeded the iteration budget")
            }
            KernelError::BadArguments { expected, got } => {
                write!(f, "kernel launch with {got} arguments, expected {expected}")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// Result alias for kernel operations.
pub type Result<T> = std::result::Result<T, KernelError>;
