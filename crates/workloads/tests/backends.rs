//! Cross-class differential tests: every workload, run through the
//! identical runtime op sequence, must produce *byte-identical* output
//! on a machine of sim-GPU slots, of host-CPU-socket slots, and of both
//! mixed — every device class executes kernels through the same
//! block-parallel interpreter, so any byte of divergence is a bug in
//! the partitioning or the copy schedule, not numerics. The CPU
//! reference stays the semantic anchor via each workload's `verify`
//! tolerance.

use mekong_gpusim::{Machine, MachineSpec};
use mekong_workloads::{benchmarks, extra_benchmarks, Benchmark};
use proptest::prelude::*;

fn all_workloads() -> Vec<Box<dyn Benchmark>> {
    let mut v = benchmarks();
    v.extend(extra_benchmarks());
    v
}

fn bytes_on(b: &dyn Benchmark, spec: MachineSpec) -> Vec<u8> {
    b.verify_output(Box::new(Machine::new(spec, true)))
}

/// The three machines under test for a `(gpus, cpus)` shape.
fn gpu_bytes(b: &dyn Benchmark, gpus: usize) -> Vec<u8> {
    bytes_on(b, MachineSpec::kepler_system(gpus))
}

fn cpu_bytes(b: &dyn Benchmark, sockets: usize) -> Vec<u8> {
    bytes_on(b, MachineSpec::cpu_system(sockets))
}

fn mixed_bytes(b: &dyn Benchmark, gpus: usize, cpus: usize) -> Vec<u8> {
    bytes_on(b, MachineSpec::hybrid_system(gpus, cpus))
}

/// The acceptance shape: all six workloads byte-identical on
/// CPU-sockets-only, sim-GPU-only and mixed 1 CPU + 2 GPUs.
#[test]
fn all_workloads_agree_across_backends() {
    for b in all_workloads() {
        let gpu = gpu_bytes(b.as_ref(), 3);
        let cpu = cpu_bytes(b.as_ref(), 3);
        let mixed = mixed_bytes(b.as_ref(), 2, 1);
        assert_eq!(gpu, cpu, "{}: host sockets diverged from sim-GPU", b.name());
        assert_eq!(gpu, mixed, "{}: mixed machine diverged", b.name());
        // And the shared bytes match the CPU reference (workload-specific
        // tolerance via verify).
        assert!(b.verify(3), "{}: reference check failed", b.name());
    }
}

proptest! {
    // Each case runs one workload on three machines; keep the case count
    // small so the suite stays fast while still varying the shapes.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Differential fuzz over device shapes: the partition lattice (and
    /// hence copy schedule) changes with every shape, the bytes must not.
    #[test]
    fn backend_outputs_are_byte_identical(
        which in 0usize..6,
        gpus in 1usize..=4,
        cpus in 1usize..=2,
    ) {
        let workloads = all_workloads();
        let b = workloads[which].as_ref();
        let gpu = gpu_bytes(b, gpus);
        prop_assert_eq!(
            &gpu,
            &cpu_bytes(b, gpus),
            "{}: cpu_system({}) diverged", b.name(), gpus
        );
        prop_assert_eq!(
            &gpu,
            &mixed_bytes(b, gpus, cpus),
            "{}: hybrid({}, {}) diverged", b.name(), gpus, cpus
        );
    }
}
