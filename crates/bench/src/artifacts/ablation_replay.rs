//! Ablation A6: launch-plan capture & replay.
//!
//! **Part A** runs the 100-iteration ping-pong Hotspot stencil on a
//! functional 4-GPU machine with `capture_plans` on and off. Replay is a
//! pure host-side shortcut: both runs must produce byte-identical output
//! (checked against the CPU reference as well) and identical simulated
//! kernel/transfer work, while the capturing run hits the plan cache on
//! ≥ 90% of launches — ping-pong trackers reach a periodic fixed point
//! after warm-up, so only the first occurrence of each (buffer order,
//! tracker signature) key walks the trackers.
//!
//! **Part B** repeats the comparison in performance mode and measures
//! what replay buys: simulated host (Pattern) time per launch drops —
//! the flat `host_per_replay` charge replaces the per-range/per-segment
//! pattern cost — and the measured wall-clock of the bench loop drops
//! with it, because a hit skips the tracker walks, enumerator queries
//! and transfer planning entirely. The wall-clock pair is printed and
//! gated but not recorded: `benchmark/`'s `runtime.launch_hit_us` /
//! `launch_miss_us` own the host clock.
//!
//! Emits `BENCH_replay.json` (simulated clock and counts only).

use crate::harness::{prepare, write_report, BenchArgs, GateResult};
use mekong_core::prelude::*;
use mekong_workloads::{Benchmark, Hotspot, RunOutcome};
use serde::Serialize;
use std::time::Instant;

fn config(capture: bool) -> RuntimeConfig {
    RuntimeConfig {
        capture_plans: capture,
        ..RuntimeConfig::beta()
    }
}

/// One functional 4-GPU run: output bytes + outcome.
fn run_functional(capture: bool, n: usize, iters: usize) -> (Vec<u8>, RunOutcome) {
    let spec = MachineSpec::kepler_system(4);
    let mut p = prepare(&Hotspot, n, spec, true, config(capture));
    let output = p.run(iters).concat();
    (output, RunOutcome::from_runtime(&p.rt))
}

#[derive(Serialize)]
struct FunctionalReport {
    n: usize,
    iters: usize,
    hit_rate: f64,
    plan_hits: u64,
    plan_misses: u64,
    launches: u64,
    d2d_copies: u64,
    d2d_bytes: u64,
}

#[derive(Serialize)]
struct PerfReport {
    n: usize,
    iters: usize,
    hit_rate_on: f64,
    pattern_per_launch_on: f64,
    pattern_per_launch_off: f64,
    sim_elapsed_on: f64,
    sim_elapsed_off: f64,
}

#[derive(Serialize)]
struct Report {
    functional: FunctionalReport,
    perf: PerfReport,
}

/// Best-of-`reps` wall-clock (ms) and the outcome of one perf-mode run.
fn run_perf(capture: bool, n: usize, iters: usize, reps: usize) -> (f64, RunOutcome) {
    let mut best_ms = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = Hotspot.mgpu_run(n, iters, 4, config(capture));
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        outcome = Some(out);
    }
    (best_ms, outcome.expect("reps > 0"))
}

pub fn run(args: &BenchArgs) -> GateResult {
    // Part A: functional equivalence + hit rate, 100-iteration ping-pong.
    let n_func = 256usize;
    let iters_func = 100usize;
    println!("Ablation A6a: capture/replay equivalence (hotspot {n_func}x{n_func}, {iters_func} iters, 4 functional GPUs)");
    println!();
    let (out_on, on) = run_functional(true, n_func, iters_func);
    let (out_off, off) = run_functional(false, n_func, iters_func);
    let want = Hotspot.reference_output(n_func, iters_func);
    gate!(
        "a6a.outputs-identical",
        out_on == out_off,
        "replay must not change results"
    );
    gate!(
        "a6a.matches-cpu-reference",
        Hotspot.check().accepts(&out_on, &want),
        "replayed run diverges from the CPU reference"
    );
    let rate = on.plan_hit_rate();
    let (on, off) = (on.counters, off.counters);
    gate_eq!(
        "a6a.same-work",
        (on.launches, on.d2d_copies, on.d2d_bytes),
        (off.launches, off.d2d_copies, off.d2d_bytes),
        "replay must issue the same launches and transfers"
    );
    gate_eq!(
        "a6a.capture-off-never-hits",
        off.plan_hits,
        0,
        "capture off cannot hit"
    );
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>12}",
        "capture_plans", "hits", "misses", "d2d", "d2d bytes"
    );
    for (label, c) in [("on", &on), ("off", &off)] {
        println!(
            "{:>14} {:>10} {:>10} {:>10} {:>12}",
            label, c.plan_hits, c.plan_misses, c.d2d_copies, c.d2d_bytes
        );
    }
    println!();
    println!(
        "identical outputs (and == CPU reference); hit rate {:.1}%",
        rate * 100.0
    );
    gate!(
        "a6a.steady-state-hit-rate",
        rate >= 0.90,
        "ping-pong steady state must hit ≥ 90%: {rate}"
    );

    // Part B: what replay buys, in simulated Pattern time and wall-clock.
    let n_perf = 2048usize;
    let iters_perf = ((300.0 * args.iter_scale.max(0.02)) as usize).max(20);
    let reps = 3;
    println!();
    println!("Ablation A6b: per-launch overhead (hotspot {n_perf}x{n_perf}, {iters_perf} iters, 4 perf GPUs, best of {reps})");
    println!();
    let (wall_on, out_on) = run_perf(true, n_perf, iters_perf, reps);
    let (wall_off, out_off) = run_perf(false, n_perf, iters_perf, reps);
    let ppl_on = out_on.breakdown.pattern / out_on.counters.launches as f64;
    let ppl_off = out_off.breakdown.pattern / out_off.counters.launches as f64;
    println!(
        "{:>14} {:>12} {:>18} {:>12}",
        "capture_plans", "wall [ms]", "pattern/launch [s]", "hit rate"
    );
    for (label, wall, ppl, out) in [
        ("on", wall_on, ppl_on, &out_on),
        ("off", wall_off, ppl_off, &out_off),
    ] {
        println!(
            "{:>14} {:>12.1} {:>18.3e} {:>11.1}%",
            label,
            wall,
            ppl,
            out.plan_hit_rate() * 100.0
        );
    }
    gate_eq!(
        "a6b.same-work",
        (out_on.counters.launches, out_on.counters.d2d_bytes),
        (out_off.counters.launches, out_off.counters.d2d_bytes),
        "replay must issue the same launches and transfer bytes"
    );
    gate!(
        "a6b.pattern-time-drops",
        ppl_on < ppl_off,
        "replay must charge strictly less Pattern time per launch: {ppl_on} vs {ppl_off}"
    );
    gate!(
        "a6b.wall-clock-drops",
        wall_on < wall_off,
        "replay must lower the measured wall-clock: {wall_on}ms vs {wall_off}ms"
    );
    println!();
    println!(
        "replay cuts simulated host overhead x{:.3} per launch and wall-clock x{:.3}.",
        ppl_on / ppl_off,
        wall_on / wall_off
    );

    let report = Report {
        functional: FunctionalReport {
            n: n_func,
            iters: iters_func,
            hit_rate: rate,
            plan_hits: on.plan_hits,
            plan_misses: on.plan_misses,
            launches: on.launches,
            d2d_copies: on.d2d_copies,
            d2d_bytes: on.d2d_bytes,
        },
        perf: PerfReport {
            n: n_perf,
            iters: iters_perf,
            hit_rate_on: out_on.plan_hit_rate(),
            pattern_per_launch_on: ppl_on,
            pattern_per_launch_off: ppl_off,
            sim_elapsed_on: out_on.elapsed,
            sim_elapsed_off: out_off.elapsed,
        },
    };
    write_report(args, "replay", &report)
}
