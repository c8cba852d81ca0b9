//! Ablation A4: interconnect sensitivity.
//!
//! The paper's §1 motivates automatic partitioning with the expectation
//! that GPU systems become NUMA ("multi-chip modules, hierarchical
//! memory systems"). This ablation reruns the medium-size benchmarks on
//! the same device silicon behind two interconnects:
//!
//! * **PCIe tree** (the paper's testbed): host-staged peer copies that
//!   serialize on one staging engine, 15 GB/s effective,
//! * **NVLink-class**: direct peer links, pairwise-overlapping transfers,
//!   40 GB/s per link.
//!
//! If the scaling limits of Figure 6 are the interconnect (not the
//! partitioning approach), the NVLink rows should push the saturation
//! points out — which is exactly what happens.

use crate::harness::{BenchArgs, GateResult};
use mekong_gpusim::MachineSpec;
use mekong_runtime::RuntimeConfig;
use mekong_workloads::benchmarks;

pub fn run(args: &BenchArgs) -> GateResult {
    println!("Ablation A4: PCIe-tree vs NVLink-class interconnect (medium problems).");
    println!(
        "(speedups over the same single-GPU reference; iteration scale {:.3})",
        args.iter_scale
    );
    for b in benchmarks() {
        let n = b.sizes()[1];
        let iters = args.iters_for(b.as_ref());
        let t_ref = b.reference_time(n, iters);
        println!("\n== {} (n = {n}) ==", b.name());
        println!(
            "{:>12} {}",
            "GPUs",
            args.gpus
                .iter()
                .map(|g| format!("{g:>7}"))
                .collect::<String>()
        );
        for (label, mk) in [
            (
                "PCIe tree",
                MachineSpec::kepler_system as fn(usize) -> MachineSpec,
            ),
            (
                "NVLink",
                MachineSpec::nvlink_system as fn(usize) -> MachineSpec,
            ),
        ] {
            let mut line = format!("{label:>12}");
            for &g in &args.gpus {
                let t = b
                    .mgpu_run_spec(mk(g), n, iters, RuntimeConfig::alpha())
                    .elapsed;
                line.push_str(&format!("{:>7.2}", t_ref / t));
            }
            println!("{line}");
        }
    }
    println!("\nSame silicon, same toolchain — only the interconnect changes. The gap");
    println!("quantifies how much of Figure 6's saturation is the PCIe-era fabric.");
    Ok(())
}
