//! Ablation A9: launch-ahead pipelined scheduling.
//!
//! The Figure 4 replay path is fully synchronous: every iteration pays
//! `halo exchange + compute` because a global barrier sits between the
//! read-sync and launch phases. With `RuntimeConfig::launch_ahead > 0`,
//! captured-plan replays instead record per-device command segments with
//! event edges (see `mekong_runtime::pipeline`), so iteration *i+1*'s
//! halo exchange drains on the copy engines while iteration *i*'s
//! compute still occupies the SM clocks — steady state approaches
//! `max(halo, compute)` per iteration instead of their sum.
//!
//! **Part A (correctness)** runs the ping-pong Hotspot stencil and the
//! separable Blur pipeline on *functional* machines at
//! `launch_ahead ∈ {0, 2, 4}` and asserts byte-identical outputs and
//! identical plan-cache behaviour — pipelining must be invisible to
//! everything but the device clocks. This is the CI gate: `--quick`
//! runs fail loudly on any divergence.
//!
//! **Part B (performance)** repeats both workloads on perf machines at
//! 2 and 4 GPUs and compares simulated wall-clock for
//! `launch_ahead = 2` vs `0`. The sizes put halo time and compute time
//! in the same regime, where overlap pays most; the acceptance bar is a
//! ≥ 15% reduction on at least one ping-pong stencil at 4 GPUs, with
//! every counter (transfers, launches, plan hits) unchanged.
//!
//! Emits `BENCH_pipeline.json`.

use crate::harness::{capturing, prepare, write_report, BenchArgs, GateResult};
use mekong_core::prelude::*;
use mekong_workloads::{Benchmark, Blur, Hotspot, RunOutcome};
use serde::Serialize;

/// One run of a workload at a given launch-ahead depth. On functional
/// machines `output` holds the gathered result bytes; on perf machines
/// it is empty and only the clocks and counters are meaningful.
struct PipeRun {
    /// Simulated seconds of the iteration loop alone (no uploads, no
    /// read-back).
    elapsed: f64,
    outcome: RunOutcome,
    output: Vec<u8>,
}

/// Ping-pong Hotspot (the canonical halo-exchange loop) or separable
/// Blur (the column pass re-syncs halos of `tmp` every iteration).
fn run_at(
    b: &dyn Benchmark,
    ahead: u32,
    gpus: usize,
    n: usize,
    iters: usize,
    functional: bool,
) -> PipeRun {
    let cfg = RuntimeConfig {
        launch_ahead: ahead,
        ..capturing(RuntimeConfig::default())
    };
    let spec = MachineSpec::kepler_system(gpus);
    let mut p = prepare(b, n, spec, functional, cfg);
    // Time only the iteration loop, not the uploads.
    p.rt.machine_mut().reset_clock();
    p.steps(iters);
    p.rt.synchronize();
    let elapsed = p.rt.elapsed();
    let output = if functional {
        p.read_outputs().concat()
    } else {
        Vec::new()
    };
    PipeRun {
        elapsed,
        outcome: RunOutcome::from_runtime(&p.rt),
        output,
    }
}

#[derive(Serialize)]
struct CorrectnessReport {
    workload: &'static str,
    gpus: usize,
    n: usize,
    iters: usize,
    identical_outputs: bool,
    plan_hits: u64,
    plan_misses: u64,
}

#[derive(Serialize)]
struct PerfReport {
    workload: &'static str,
    gpus: usize,
    n: usize,
    iters: usize,
    elapsed_sync_ms: f64,
    elapsed_pipelined_ms: f64,
    reduction_pct: f64,
    hit_rate: f64,
}

#[derive(Serialize)]
struct Report {
    correctness: Vec<CorrectnessReport>,
    perf: Vec<PerfReport>,
}

/// Functional differential at `launch_ahead ∈ {0, 2, 4}`: identical
/// bytes, identical plan-cache behaviour.
fn check_correctness(
    workload: &'static str,
    b: &dyn Benchmark,
    gpus: usize,
    n: usize,
    iters: usize,
) -> GateResult<CorrectnessReport> {
    let base = run_at(b, 0, gpus, n, iters, true);
    let base_counters = base.outcome.counters;
    for ahead in [2u32, 4] {
        let r = run_at(b, ahead, gpus, n, iters, true);
        gate!(
            "a9a.outputs-identical",
            base.output == r.output,
            "{workload}: launch_ahead={ahead} diverged from synchronous output"
        );
        gate_eq!(
            "a9a.counters-identical",
            base_counters,
            r.outcome.counters,
            "{workload}: launch_ahead={ahead} changed machine counters or plan-cache behaviour"
        );
    }
    println!("{workload:>10} {gpus:>5} {n:>6} {iters:>6}   outputs byte-identical at ahead 0/2/4");
    Ok(CorrectnessReport {
        workload,
        gpus,
        n,
        iters,
        identical_outputs: true,
        plan_hits: base_counters.plan_hits,
        plan_misses: base_counters.plan_misses,
    })
}

/// Perf differential at `launch_ahead = 2` vs `0`: identical counters,
/// reduced simulated wall-clock.
fn check_perf(
    workload: &'static str,
    b: &dyn Benchmark,
    gpus: usize,
    n: usize,
    iters: usize,
) -> GateResult<PerfReport> {
    let sync = run_at(b, 0, gpus, n, iters, false);
    let pipe = run_at(b, 2, gpus, n, iters, false);
    gate_eq!(
        "a9b.counters-identical",
        sync.outcome.counters,
        pipe.outcome.counters,
        "{workload}@{gpus}: pipelining must not change any counter"
    );
    let reduction = 100.0 * (1.0 - pipe.elapsed / sync.elapsed);
    println!(
        "{workload:>10} {gpus:>5} {n:>6} {iters:>6} {:>12.3} {:>12.3} {reduction:>9.1}%",
        sync.elapsed * 1e3,
        pipe.elapsed * 1e3,
    );
    Ok(PerfReport {
        workload,
        gpus,
        n,
        iters,
        elapsed_sync_ms: sync.elapsed * 1e3,
        elapsed_pipelined_ms: pipe.elapsed * 1e3,
        reduction_pct: reduction,
        hit_rate: pipe.outcome.plan_hit_rate(),
    })
}

pub fn run(args: &BenchArgs) -> GateResult {
    let (fn_iters, perf_iters) = args.pick((24, 48), (8, 12));
    let perf_n = args.pick(2048, 1024);

    println!("Ablation A9: launch-ahead pipelined scheduling");
    println!();
    println!("Part A: functional differential (launch_ahead 0 vs 2 vs 4)");
    println!("{:>10} {:>5} {:>6} {:>6}", "workload", "gpus", "n", "iters");
    let correctness = vec![
        check_correctness("hotspot", &Hotspot, 4, 260, fn_iters)?,
        check_correctness("blur", &Blur, 3, 200, fn_iters)?,
        check_correctness("hotspot", &Hotspot, 2, 260, fn_iters)?,
    ];

    println!();
    println!("Part B: simulated wall-clock, launch_ahead 2 vs 0 (perf machines)");
    println!(
        "{:>10} {:>5} {:>6} {:>6} {:>12} {:>12} {:>10}",
        "workload", "gpus", "n", "iters", "sync [ms]", "pipe [ms]", "saved"
    );
    let mut perf = Vec::new();
    for gpus in [2usize, 4] {
        perf.push(check_perf("hotspot", &Hotspot, gpus, perf_n, perf_iters)?);
        perf.push(check_perf("blur", &Blur, gpus, perf_n, perf_iters)?);
    }

    let best = perf
        .iter()
        .filter(|p| p.gpus == 4)
        .map(|p| p.reduction_pct)
        .fold(f64::NEG_INFINITY, f64::max);
    gate!(
        "a9b.overlap-cuts-15pct",
        best >= 15.0,
        "launch-ahead must cut ≥15% wall-clock on a ping-pong stencil at 4 GPUs, best was {best:.1}%"
    );
    for p in &perf {
        gate!(
            "a9b.replay-dominates",
            p.hit_rate > 0.5,
            "{}@{}: replay must dominate for the overlap to matter",
            p.workload,
            p.gpus
        );
    }

    println!();
    println!(
        "pipelining is invisible to outputs and counters; halo exchange overlaps compute \
         for a {best:.1}% wall-clock cut at 4 GPUs."
    );

    write_report(args, "pipeline", &Report { correctness, perf })
}
