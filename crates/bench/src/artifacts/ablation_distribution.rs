//! Ablation A1: cost of the default linear H2D distribution (§8.2)
//! against an oracle with free redistribution.
//!
//! Matmul's B operand is read column-wise by every row partition but is
//! distributed linearly, so the runtime redistributes it before the
//! kernel (§9.1: "This mismatched data distribution is corrected by the
//! runtime before the kernel starts"). The β configuration (transfers
//! cost nothing) is exactly the free-redistribution oracle, so α−β
//! isolates what the distribution mismatch costs.

use crate::harness::{BenchArgs, GateResult};
use mekong_runtime::RuntimeConfig;
use mekong_workloads::{Benchmark, Matmul};

pub fn run(args: &BenchArgs) -> GateResult {
    println!("Ablation A1: Matmul — default linear distribution vs free-redistribution oracle.");
    println!();
    println!(
        "{:>5} {:>12} {:>12} {:>14} {:>18}",
        "GPUs", "alpha [s]", "oracle [s]", "redistribution", "share of runtime"
    );
    let n = Matmul.sizes()[1]; // medium
    for &g in &args.gpus {
        if g < 2 {
            continue;
        }
        let alpha = Matmul.mgpu_run(n, 1, g, RuntimeConfig::alpha()).elapsed;
        let beta = Matmul.mgpu_run(n, 1, g, RuntimeConfig::beta()).elapsed;
        println!(
            "{:>5} {:>12.4} {:>12.4} {:>13.4}s {:>17.1}%",
            g,
            alpha,
            beta,
            alpha - beta,
            100.0 * (alpha - beta) / alpha
        );
    }
    println!();
    println!("The redistribution share grows with the device count and is what caps");
    println!("Matmul's scalability (paper: max 6.3x at 14 GPUs).");
    Ok(())
}
