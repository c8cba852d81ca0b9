//! §9.2: "The lower bound of these overheads can be measured by executing
//! the partitioned application on a single GPU: across all single-GPU
//! experiments, the slow-down has a median of 2.1%, with a 25th and 75th
//! percentile of 0.13% and 3.1%."

use crate::harness::{median, percentile, BenchArgs, GateResult};
use mekong_runtime::RuntimeConfig;
use mekong_workloads::{benchmarks, SizeClass};

pub fn run(args: &BenchArgs) -> GateResult {
    println!("Single-GPU overhead: partitioned binary on one GPU vs reference binary.");
    println!("(iteration scale {:.3})", args.iter_scale);
    println!();
    println!(
        "{:<10} {:>10} {:>14} {:>14} {:>10}",
        "Benchmark", "size", "t_ref [s]", "t_part [s]", "slowdown"
    );
    let mut slowdowns = Vec::new();
    for b in benchmarks() {
        let iters = args.iters_for(b.as_ref());
        for class in SizeClass::ALL {
            let n = b.sizes()[class.index()];
            let t_ref = b.reference_time(n, iters);
            let t_part = b.mgpu_run(n, iters, 1, RuntimeConfig::alpha()).elapsed;
            let slow = t_part / t_ref - 1.0;
            slowdowns.push(slow);
            println!(
                "{:<10} {:>10} {:>14.4} {:>14.4} {:>9.2}%",
                b.name(),
                n,
                t_ref,
                t_part,
                100.0 * slow
            );
        }
    }
    slowdowns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!();
    println!(
        "p25 = {:.2}%, median = {:.2}%, p75 = {:.2}%",
        100.0 * percentile(&slowdowns, 25.0),
        100.0 * median(&slowdowns),
        100.0 * percentile(&slowdowns, 75.0)
    );
    println!("Paper: p25 = 0.13%, median = 2.1%, p75 = 3.1%.");
    Ok(())
}
