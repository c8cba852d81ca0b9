//! Figure 8: overhead of the runtime system — the non-transfer overhead
//! `T_patterns = (β−γ)/α` as a fraction of total runtime, over **all**
//! benchmarks and problem sizes, summarized per GPU count (the paper
//! shows a box plot; we print the quartiles).

use crate::harness::{alpha_beta_gamma, median, percentile, BenchArgs, GateResult};
use mekong_workloads::{benchmarks, SizeClass};

pub fn run(args: &BenchArgs) -> GateResult {
    println!("Figure 8: Overhead of the runtime system (non-transfer overhead fraction).");
    println!(
        "(all benchmarks x sizes; iteration scale {:.3})",
        args.iter_scale
    );
    println!();
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "GPUs", "min", "p25", "median", "p75", "max"
    );
    let mut all: Vec<f64> = Vec::new();
    for &g in &args.gpus {
        let mut fractions = Vec::new();
        for b in benchmarks() {
            let iters = args.iters_for(b.as_ref());
            for class in SizeClass::ALL {
                let n = b.sizes()[class.index()];
                let [alpha, beta, gamma] = alpha_beta_gamma(b.as_ref(), n, iters, g);
                fractions.push(((beta - gamma) / alpha).max(0.0));
            }
        }
        fractions.sort_by(|a, b| a.partial_cmp(b).unwrap());
        all.extend(&fractions);
        println!(
            "{:>5} {:>8.3}% {:>8.3}% {:>8.3}% {:>8.3}% {:>8.3}%",
            g,
            100.0 * fractions[0],
            100.0 * percentile(&fractions, 25.0),
            100.0 * median(&fractions),
            100.0 * percentile(&fractions, 75.0),
            100.0 * fractions[fractions.len() - 1],
        );
    }
    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!();
    println!(
        "Overall: p25 = {:.3}%, median = {:.3}%, p75 = {:.3}%",
        100.0 * percentile(&all, 25.0),
        100.0 * median(&all),
        100.0 * percentile(&all, 75.0)
    );
    println!("Paper: p25 = 0.001%, median = 0.51%, p75 = 3.5%.");
    Ok(())
}
