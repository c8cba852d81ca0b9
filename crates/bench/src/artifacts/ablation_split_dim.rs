//! Ablation A3: partitioning-axis choice (§4's "suggested partitioning
//! strategy").
//!
//! Hotspot writes rows; splitting the grid's Y axis yields contiguous
//! per-partition write sets (one tracker segment each), while splitting X
//! fragments every buffer into per-row strips — more ranges, more
//! segments, more transfers. This ablation forces both and compares.

use crate::harness::{prepare, BenchArgs, GateResult};
use mekong_analysis::SplitAxis;
use mekong_core::prelude::*;
use mekong_workloads::Hotspot;

fn run_split(split: SplitAxis, n: usize, iters: usize, gpus: usize) -> (f64, u64, u64) {
    let spec = MachineSpec::kepler_system(gpus);
    let mut p = prepare(&Hotspot, n, spec, false, RuntimeConfig::default());
    p.sites[0].ck.model.partitioning = split;
    p.steps(iters);
    p.rt.synchronize();
    let segs = p.rt.segment_count(p.buffer(0)) as u64;
    (p.rt.elapsed(), p.rt.machine().counters().d2d_copies, segs)
}

pub fn run(_args: &BenchArgs) -> GateResult {
    println!("Ablation A3: Hotspot partitioned along the suggested axis (Y) vs forced X.");
    println!("(n = 2048, 30 iterations)");
    println!();
    println!(
        "{:>5} {:>14} {:>14} {:>12} {:>12} {:>10} {:>10}",
        "GPUs", "Y-split [s]", "X-split [s]", "Y copies", "X copies", "Y segs", "X segs"
    );
    for gpus in [2usize, 4, 8] {
        let (ty, cy, sy) = run_split(SplitAxis::Y, 2048, 30, gpus);
        let (tx, cx, sx) = run_split(SplitAxis::X, 2048, 30, gpus);
        println!(
            "{:>5} {:>14.4} {:>14.4} {:>12} {:>12} {:>10} {:>10}",
            gpus, ty, tx, cy, cx, sy, sx
        );
    }
    println!();
    println!("Splitting the row axis keeps one write segment per partition (paper §8.1);");
    println!("splitting X fragments the buffers and multiplies transfers and tracker work.");
    Ok(())
}
