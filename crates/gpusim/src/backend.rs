//! Compatibility names for the frozen `benchmark/` package.
//!
//! The runtime drives [`Machine`] directly; there is no executor trait.
//! `benchmark/` still spells `Box<dyn Backend>`, `CpuBackend::system`
//! and `MgpuRuntime::from_boxed`, and may not change until its next
//! re-baseline (ROADMAP item 2), so this module keeps exactly those
//! names. It goes away with that re-baseline.

use crate::spec::MachineSpec;
use crate::Machine;

/// A boxed machine, unboxed again by `MgpuRuntime::from_boxed`.
/// [`Machine`] is the only implementor.
pub trait Backend {
    /// The machine inside the box.
    fn into_machine(self: Box<Self>) -> Machine;
}

impl Backend for Machine {
    fn into_machine(self: Box<Self>) -> Machine {
        *self
    }
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
