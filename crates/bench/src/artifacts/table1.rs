//! Table 1: configurations of the benchmark applications.

use crate::harness::{BenchArgs, GateResult};
use mekong_workloads::benchmarks;

pub fn run(_args: &BenchArgs) -> GateResult {
    println!("Table 1: Configurations of the benchmark applications.");
    println!();
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>11}",
        "Benchmark", "Small", "Medium", "Large", "Iterations"
    );
    for b in benchmarks() {
        let s = b.sizes();
        let iters = if b.iterations() > 1 {
            format!("{}", b.iterations())
        } else {
            "N/A".to_string()
        };
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>11}",
            b.name(),
            s[0],
            s[1],
            s[2],
            iters
        );
    }
    Ok(())
}
