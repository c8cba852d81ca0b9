//! # mekong-core — the Mekong toolchain driver
//!
//! The public facade of the reproduction: everything a user needs to turn
//! a single-GPU mini-CUDA program into a multi-GPU application and run it
//! on the simulated machine.
//!
//! ```
//! use mekong_core::prelude::*;
//!
//! let src = r#"
//! __global__ void scale(int n, float a[n], float b[n]) {
//!     int i = blockIdx.x * blockDim.x + threadIdx.x;
//!     if (i >= n) return;
//!     b[i] = a[i] * 2.0f;
//! }
//! "#;
//! // Compile (analysis → rewrite → partition/codegen):
//! let program = compile_source(src).unwrap();
//! assert!(program.kernel("scale").unwrap().is_partitionable());
//!
//! // Run on a simulated 4-GPU machine, functionally:
//! let machine = Machine::new(MachineSpec::kepler_system(4), true);
//! let mut rt = MgpuRuntime::new(machine);
//! let n = 1000usize;
//! let a = rt.malloc(n * 4, 4).unwrap();
//! let b = rt.malloc(n * 4, 4).unwrap();
//! let ones: Vec<u8> = std::iter::repeat(1.0f32.to_le_bytes()).take(n).flatten().collect();
//! rt.memcpy_h2d(a, &ones).unwrap();
//! rt.launch(
//!     program.kernel("scale").unwrap(),
//!     Dim3::new1(8), Dim3::new1(128),
//!     &[LaunchArg::Scalar(Value::I64(n as i64)), LaunchArg::Buf(a), LaunchArg::Buf(b)],
//! ).unwrap();
//! rt.synchronize();
//! let mut out = vec![0u8; n * 4];
//! rt.memcpy_d2h(b, &mut out).unwrap();
//! assert_eq!(f32::from_le_bytes(out[..4].try_into().unwrap()), 2.0);
//! ```

pub mod pipeline;
pub mod reference;

pub use pipeline::{compile_source, CompileStats, CompiledProgram};
pub use reference::SingleGpuRunner;

/// Everything commonly needed, re-exported.
pub mod prelude {
    pub use crate::pipeline::{compile_source, CompileStats, CompiledProgram};
    pub use crate::reference::SingleGpuRunner;
    pub use mekong_analysis::{analyze_kernel, AppModel, KernelModel, SplitAxis, Verdict};
    pub use mekong_enumgen::{AccessEnumerator, KernelEnumerators};
    pub use mekong_frontend::parse_program;
    pub use mekong_gpusim::{DeviceClass, Machine, MachineSpec, SimArg, TimeCat};
    pub use mekong_kernel::builder;
    pub use mekong_kernel::{Dim3, Kernel, ScalarTy, Value};
    pub use mekong_partition::{partition_grid, partition_kernel, Partition};
    pub use mekong_rewriter::rewrite_host;
    pub use mekong_runtime::{CompiledKernel, LaunchArg, MgpuRuntime, RuntimeConfig, VBufId};
}

/// Toolchain errors (aggregation of the stage errors).
#[derive(Debug)]
pub enum MekongError {
    Parse(mekong_frontend::ParseError),
    /// A parsed kernel that does not lower, e.g. one that uses
    /// `__syncthreads()` ([`mekong_kernel::Unsupported::SyncThreads`]).
    Kernel {
        kernel: String,
        error: mekong_kernel::KernelError,
    },
    Runtime(mekong_runtime::RuntimeError),
    Analysis(mekong_analysis::AnalysisError),
}

impl From<mekong_frontend::ParseError> for MekongError {
    fn from(e: mekong_frontend::ParseError) -> Self {
        MekongError::Parse(e)
    }
}

impl From<mekong_runtime::RuntimeError> for MekongError {
    fn from(e: mekong_runtime::RuntimeError) -> Self {
        MekongError::Runtime(e)
    }
}

impl From<mekong_analysis::AnalysisError> for MekongError {
    fn from(e: mekong_analysis::AnalysisError) -> Self {
        MekongError::Analysis(e)
    }
}

impl std::fmt::Display for MekongError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MekongError::Parse(e) => write!(f, "parse: {e}"),
            MekongError::Kernel { kernel, error } => write!(f, "kernel {kernel}: {error}"),
            MekongError::Runtime(e) => write!(f, "runtime: {e}"),
            MekongError::Analysis(e) => write!(f, "analysis: {e}"),
        }
    }
}

impl std::error::Error for MekongError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, MekongError>;
