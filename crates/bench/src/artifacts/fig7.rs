//! Figure 7: breakdown of the execution time of transformed applications
//! ("medium" problems), measured exactly as the paper does (§9.2):
//!
//! * α: regular execution,
//! * β: disabled transfers, dependency resolution still performed,
//! * γ: disabled dependency resolution (which also disables transfers),
//!
//! giving `T_app = γ/α`, `T_transfers = (α−β)/α`, `T_patterns = (β−γ)/α`.

use crate::harness::{alpha_beta_gamma, BenchArgs, GateResult};
use mekong_workloads::benchmarks;

pub fn run(args: &BenchArgs) -> GateResult {
    println!("Figure 7: Breakdown of the execution time of transformed applications.");
    println!(
        "(medium problem size; iteration scale {:.3})",
        args.iter_scale
    );
    println!();
    for b in benchmarks() {
        let n = b.sizes()[1]; // medium
        let iters = args.iters_for(b.as_ref());
        println!("== {} (n = {n}, {iters} iterations) ==", b.name());
        println!(
            "{:>5} {:>12} {:>12} {:>12} {:>12}",
            "GPUs", "alpha [s]", "Application", "Transfers", "Patterns"
        );
        for &g in &args.gpus {
            if g < 2 {
                continue;
            }
            let [alpha, beta, gamma] = alpha_beta_gamma(b.as_ref(), n, iters, g);
            let t_app = gamma / alpha;
            let t_transfers = (alpha - beta) / alpha;
            let t_patterns = (beta - gamma) / alpha;
            println!(
                "{:>5} {:>12.4} {:>11.1}% {:>11.1}% {:>11.2}%",
                g,
                alpha,
                100.0 * t_app,
                100.0 * t_transfers,
                100.0 * t_patterns
            );
        }
        println!();
    }
    println!("Paper: overhead grows with GPU count; transfers dominate it; non-transfer");
    println!("overheads (Patterns) stay below 6.8% across all measurements.");
    Ok(())
}
