//! # mekong-serve — multi-tenant serving over the Mekong runtime
//!
//! A partitioning runtime that amortizes its dependency-resolution cost
//! through plan capture ([`mekong_runtime::plan`]) gets dramatically
//! cheaper when the *same* plans serve many clients. This crate builds
//! that serving layer:
//!
//! 1. **Async submission** — each tenant registers a mini-CUDA program
//!    and gets a [`TenantId`]; H2D uploads, launches and D2H read-backs
//!    ([`Ticket`]) queue into a per-tenant FIFO instead of executing
//!    inline. Tenant runtimes are namespace-isolated: every
//!    [`mekong_core::prelude::VBufId`] carries the tenant's namespace,
//!    and a runtime rejects handles minted by another tenant.
//! 2. **Fleet placement** — at registration the fleet ranks the tuner's
//!    partitioning candidates for the tenant's probe launch on the full
//!    machine ([`mekong_tuner::preferred_devices`]) and grants a device
//!    subset of the size the cheapest candidate wants, carved from the
//!    least-loaded physical devices ([`mekong_gpusim::MachineSpec::subset`]).
//! 3. **Shared persistent plan cache** — every tenant runtime points at
//!    one [`mekong_runtime::PlanCache`] through an `Rc<RefCell<_>>`;
//!    captured plans are keyed and stored namespace-free, so identical
//!    workloads from different tenants replay each other's plans
//!    ([`mekong_gpusim::OpCounters::plan_shared_hits`]). The cache
//!    snapshots to versioned JSON and restores in a fresh process for a
//!    zero-capture warm start ([`FleetServer::snapshot_plans`] /
//!    [`FleetServer::load_plans`]).
//!
//! The executor ([`FleetServer::drain`]) is a deterministic round-robin
//! over the tenant FIFOs on the calling thread — tenants interleave,
//! they never run concurrently, so the shared cache needs no lock;
//! [`FleetServer::step`] exposes single-op granularity so tests can
//! drive arbitrary interleavings and check tenants are isolated
//! byte-for-byte.

pub mod fleet;
pub mod tenant;

pub use fleet::{FleetConfig, FleetServer, Probe, ProbeArg};
pub use tenant::{TenantId, TenantStats, Ticket};

/// Serving-layer errors.
#[derive(Debug)]
pub enum ServeError {
    /// The tenant's source failed to compile.
    Compile(String),
    /// A launch names a kernel the tenant's program does not define.
    UnknownKernel(String),
    /// No tenant with that id.
    BadTenant(usize),
    /// A tenant op failed in the runtime (bad handle, size mismatch,
    /// snapshot rejection, ...).
    Runtime(mekong_runtime::RuntimeError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Compile(m) => write!(f, "tenant program: {m}"),
            ServeError::UnknownKernel(k) => write!(f, "unknown kernel {k:?}"),
            ServeError::BadTenant(i) => write!(f, "no tenant {i}"),
            ServeError::Runtime(e) => write!(f, "runtime: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<mekong_runtime::RuntimeError> for ServeError {
    fn from(e: mekong_runtime::RuntimeError) -> Self {
        ServeError::Runtime(e)
    }
}

pub type Result<T> = std::result::Result<T, ServeError>;
