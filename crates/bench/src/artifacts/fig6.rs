//! Figure 6: speedup of the benchmarks for up to 16 GPUs, three problem
//! sizes each, relative to the single-GPU reference binary.

use crate::harness::{row, BenchArgs, GateResult};
use mekong_workloads::{benchmarks, SizeClass};

pub fn run(args: &BenchArgs) -> GateResult {
    println!("Figure 6: Speedup of the benchmarks for up to 16 GPUs.");
    println!(
        "(iteration scale {:.3}; speedup = t_reference / t_partitioned)",
        args.iter_scale
    );
    for b in benchmarks() {
        let iters = args.iters_for(b.as_ref());
        println!("\n== {} ({} iterations) ==", b.name(), iters);
        let mut header = vec!["GPUs".to_string()];
        header.extend(args.gpus.iter().map(|g| g.to_string()));
        println!("{}", row(&header, 8));
        for class in SizeClass::ALL {
            let n = b.sizes()[class.index()];
            let t_ref = b.reference_time(n, iters);
            let mut cells = vec![format!("{} {}", class.name(), n)];
            let mut peak = (0usize, 0.0f64);
            for &g in &args.gpus {
                let t = b
                    .mgpu_run(n, iters, g, mekong_runtime::RuntimeConfig::alpha())
                    .elapsed;
                let s = t_ref / t;
                if s > peak.1 {
                    peak = (g, s);
                }
                cells.push(format!("{s:.2}"));
            }
            println!(
                "{}   <- peak {:.2}x @ {} GPUs",
                row(&cells, 8),
                peak.1,
                peak.0
            );
        }
    }
    println!(
        "\nPaper reference points: Hotspot ~7.1x @ 14, N-Body ~12.4x @ 16, Matmul ~6.3x @ 14."
    );
    Ok(())
}
