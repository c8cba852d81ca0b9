//! # mekong-workloads — the paper's benchmark applications (§9, Table 1)
//!
//! | Benchmark | Small  | Medium  | Large   | Iterations |
//! |-----------|--------|---------|---------|------------|
//! | Hotspot   | 8,192  | 16,384  | 36,864  | 1,500      |
//! | N-Body    | 65,536 | 131,072 | 327,680 | 96         |
//! | Matmul    | 8,192  | 16,384  | 30,656  | N/A        |
//!
//! Each workload says once, in its module, what it is:
//!
//! * its **mini-CUDA source** (compiled by the full pipeline),
//! * a **CPU reference implementation** for functional verification,
//! * its **description** ([`Benchmark::describe`] → [`App`]): buffers
//!   with seeded inputs, the launches of one iteration, the ping-pong
//!   swap and the output buffers.
//!
//! Everything that runs a workload interprets that description: the
//! **single-GPU reference run** (the "NVCC binary" baseline,
//! [`App::reference_time`]) and the **multi-GPU run** through the Mekong
//! runtime on any machine and α/β/γ configuration ([`App::prepare`]),
//! from which the [`Benchmark`] trait provides `mgpu_run`,
//! `verify_output` and `verify`.
//!
//! Performance runs use paper-scale problem sizes on the performance-mode
//! simulator (metadata + timing, no payload); functional verification
//! runs scaled-down sizes with real data and compares against the CPU
//! reference.

pub mod app;
pub mod blur;
pub mod harness;
pub mod histogram;
pub mod hotspot;
pub mod matmul;
pub mod nbody;
pub mod spmv;

pub use app::{App, Prepared};
pub use blur::Blur;
pub use harness::{Benchmark, RunOutcome, SizeClass};
pub use histogram::Histogram;
pub use hotspot::Hotspot;
pub use matmul::Matmul;
pub use nbody::NBody;
pub use spmv::Spmv;

/// The paper's three benchmarks, in Table 1 order.
pub fn benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![Box::new(Hotspot), Box::new(NBody), Box::new(Matmul)]
}

/// Additional workloads beyond the paper's evaluation (toolchain
/// generality; not part of the Table 1 figures). Histogram and SpMV are
/// *irregular*: their read footprints are data-dependent and rely on the
/// interval abstract interpreter's bounded may-read boxes.
pub fn extra_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![Box::new(Blur), Box::new(Histogram), Box::new(Spmv)]
}

/// The GPU counts evaluated in Figure 6.
pub const GPU_COUNTS: [usize; 9] = [1, 2, 4, 6, 8, 10, 12, 14, 16];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_configurations() {
        let bs = benchmarks();
        assert_eq!(bs.len(), 3);
        assert_eq!(bs[0].name(), "Hotspot");
        assert_eq!(bs[0].sizes(), [8_192, 16_384, 36_864]);
        assert_eq!(bs[0].iterations(), 1_500);
        assert_eq!(bs[1].name(), "N-Body");
        assert_eq!(bs[1].sizes(), [65_536, 131_072, 327_680]);
        assert_eq!(bs[1].iterations(), 96);
        assert_eq!(bs[2].name(), "Matmul");
        assert_eq!(bs[2].sizes(), [8_192, 16_384, 30_656]);
        assert_eq!(bs[2].iterations(), 1);
    }

    #[test]
    fn all_workloads_compile_and_are_partitionable() {
        for b in benchmarks() {
            let program = mekong_core::compile_source(b.source()).unwrap();
            for k in &program.kernels {
                assert!(
                    k.is_partitionable(),
                    "{} kernel {} rejected: {:?}",
                    b.name(),
                    k.original.name,
                    k.model.verdict
                );
            }
        }
    }

    #[test]
    fn all_workloads_verify_on_various_gpu_counts() {
        for b in benchmarks().iter().chain(&extra_benchmarks()) {
            for gpus in [1, 2, 3, 4, 5] {
                assert!(b.verify(gpus), "{} failed with {gpus} GPUs", b.name());
            }
        }
    }
}
