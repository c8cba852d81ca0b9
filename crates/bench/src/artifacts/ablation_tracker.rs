//! Ablation A2: tracker fragmentation vs synchronization cost (§8.1).
//!
//! Two measurements:
//!
//! 1. Steady-state tracker segment counts of the Hotspot temperature
//!    buffer per device count — the paper's claim: regular 1:1 kernels
//!    produce exactly one segment per partition.
//! 2. A synthetic scaling study of the tracker data structure itself:
//!    wall-clock cost of `update` + `query` at increasing fragmentation.

use crate::harness::{BenchArgs, GateResult};
use mekong_runtime::{Owner, Tracker};
use std::time::Instant;

pub fn run(_args: &BenchArgs) -> GateResult {
    println!("Ablation A2a: Hotspot tracker fragmentation at steady state.");
    println!();
    println!("{:>5} {:>22}", "GPUs", "segments (temp buffer)");
    for gpus in [1usize, 2, 4, 8, 16] {
        // Reproduce the tracker state analytically the way the runtime
        // produces it: linear H2D then per-partition row writes.
        let n = 4096u64;
        let mut t = Tracker::new(n * n * 4);
        // initial linear distribution
        let chunk = n * n * 4 / gpus as u64;
        for g in 0..gpus as u64 {
            t.update(g * chunk, (g + 1) * chunk, Owner::Device(g as usize));
        }
        // a few iterations of contiguous per-partition writes
        let rows_per = n / gpus as u64;
        for _ in 0..5 {
            for g in 0..gpus as u64 {
                let s = g * rows_per * n * 4;
                let e = if g as usize == gpus - 1 {
                    n * n * 4
                } else {
                    (g + 1) * rows_per * n * 4
                };
                t.update(s, e, Owner::Device(g as usize));
            }
        }
        gate!(
            "tracker-invariants",
            t.check_invariants(),
            "{gpus} GPUs: segments out of order or overlapping"
        );
        println!("{:>5} {:>22}", gpus, t.segment_count());
    }

    println!();
    println!("Ablation A2b: tracker operation cost vs fragmentation (wall clock).");
    println!();
    println!(
        "{:>10} {:>14} {:>14}",
        "segments", "update [ns]", "query [ns]"
    );
    for frag in [1usize, 16, 256, 4096, 65536] {
        let len = 1u64 << 26;
        let mut t = Tracker::new(len);
        let piece = len / frag as u64;
        for i in 0..frag as u64 {
            t.update(i * piece, (i + 1) * piece, Owner::Device((i % 7) as usize));
        }
        let reps = 20_000;
        // update cost: overwrite a random-ish small window
        let t0 = Instant::now();
        let mut x = 12345u64;
        for _ in 0..reps {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = x % (len - 1024);
            t.update(s, s + 1024, Owner::Device((x % 5) as usize));
        }
        let upd = t0.elapsed().as_nanos() as f64 / reps as f64;
        // query cost
        let t0 = Instant::now();
        let mut sink = 0u64;
        for _ in 0..reps {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = x % (len - 4096);
            t.query(s, s + 4096, &mut |a, b, _| sink += b - a);
        }
        let qry = t0.elapsed().as_nanos() as f64 / reps as f64;
        std::hint::black_box(sink);
        println!("{:>10} {:>14.0} {:>14.0}", frag, upd, qry);
    }
    println!();
    println!("B-tree-backed segments keep both operations effectively O(log segments)");
    println!("(paper §8.1), so regular kernels see constant per-launch tracker cost.");
    Ok(())
}
