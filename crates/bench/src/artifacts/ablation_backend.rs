//! Ablation A13: backend comparison — tuned mixed CPU+GPU shares vs
//! GPU-only vs CPU-only execution.
//!
//! The one machine's device slots are sim-GPUs, host CPU sockets, or
//! both, so the same runtime drives all three shapes. This ablation
//! answers three questions for hotspot and nbody:
//!
//! 1. **Functional equivalence** — the bytes produced on a pure sim-GPU
//!    machine, on host sockets alone, and on a mixed CPU+GPU machine
//!    must be identical (every class runs the block-parallel
//!    interpreter, so divergence is a partitioning or copy bug).
//! 2. **Heterogeneous shares** — on the mixed machine the autotuner
//!    must notice the class imbalance. For nbody (compute-bound, and
//!    every partition re-reads all positions, so the transfer bill is
//!    layout-invariant) it must pick *weighted* shares sized by the
//!    per-class rooflines. For hotspot the h2d upload already lands in
//!    even slabs and the stencil reads are layout-local, so the even
//!    split's near-zero redistribution beats the weighted split's
//!    one-time reshuffle in the greedy first-launch ranking — the
//!    chosen shares are recorded either way.
//! 3. **Placement sanity** — CPU-only nbody is slower than GPU-only
//!    (host sockets trail Kepler dies ~8x in flops), quantifying why
//!    mixed placement gives the CPU only a sliver of the grid. For
//!    transfer-dominated sizes of hotspot the CPU-only machine can
//!    *win*: host↔host halo memcpys skip the PCIe hop entirely, which
//!    is exactly what the host-memory cost model is about — the ratio
//!    is reported, not asserted.
//!
//! Emits `BENCH_backend.json`.

use crate::harness::{prepare, write_report, BenchArgs, Case, GateResult};
use mekong_core::prelude::*;
use mekong_workloads::{Benchmark, Hotspot, NBody, RunOutcome};
use serde::Serialize;

struct Bench {
    case: Case,
    /// Must the tuner pick weighted shares on the mixed machine?
    /// (Only where the transfer bill is layout-invariant; see the
    /// module docs.)
    expect_weighted: bool,
    /// Must CPU-only lose to GPU-only? (Only for compute-bound
    /// kernels; transfer-bound ones may win on host memcpys.)
    expect_cpu_slower: bool,
}

const BENCHES: &[Bench] = &[
    Bench {
        case: Case {
            name: "hotspot",
            workload: &Hotspot,
            n: (2048, 512),
            warmup: 3,
            measure: (12, 4),
        },
        expect_weighted: false,
        expect_cpu_slower: false,
    },
    Bench {
        case: Case {
            name: "nbody",
            workload: &NBody,
            n: (65_536, 8_192),
            warmup: 2,
            measure: (8, 3),
        },
        expect_weighted: true,
        expect_cpu_slower: true,
    },
];

#[derive(Serialize)]
struct ExecRow {
    executor: String,
    elapsed: f64,
    strategy: Option<String>,
    /// Per-device grid-share fractions of the chosen strategy.
    chosen_shares: Vec<f64>,
    predict_bytes_per_launch: u64,
    measured_bytes_per_launch: u64,
    prediction_error: f64,
}

#[derive(Serialize)]
struct WorkloadReport {
    name: String,
    n: usize,
    iters: usize,
    byte_identical: bool,
    executors: Vec<ExecRow>,
    mixed_strategy: String,
    cpu_vs_gpu_slowdown: f64,
}

#[derive(Serialize)]
struct Report {
    gpus: usize,
    cpu_sockets: usize,
    workloads: Vec<WorkloadReport>,
}

/// Prediction error of the tuner's chosen strategy: |predicted −
/// measured| steady-state peer-transfer bytes, relative to measured.
fn prediction_error(o: &RunOutcome) -> f64 {
    (o.tuner_predict_bytes as f64 - o.tuner_measured_bytes as f64).abs()
        / (o.tuner_measured_bytes as f64).max(1.0)
}

/// A tuned performance run of `iters` iterations on `spec`, returning
/// the outcome plus the chosen strategy's share vector normalized to
/// fractions (even splits report `1/k` each; weighted splits the
/// proportional weights).
fn run_tuned(
    b: &dyn Benchmark,
    n: usize,
    spec: MachineSpec,
    iters: usize,
) -> (RunOutcome, Vec<f64>) {
    let mut p = prepare(b, n, spec, false, RuntimeConfig::tuned());
    p.steps(iters);
    p.rt.synchronize();
    let shares =
        p.rt.tuner()
            .entries()
            .next()
            .map(|(_, e)| {
                let s = &e.strategy().shares;
                let total: f64 = s.iter().sum();
                s.iter().map(|w| w / total).collect()
            })
            .unwrap_or_default();
    (RunOutcome::from_runtime(&p.rt), shares)
}

fn row(executor: &str, o: &RunOutcome, shares: &[f64]) -> ExecRow {
    let err = prediction_error(o);
    let share_str = shares
        .iter()
        .map(|s| format!("{s:.2}"))
        .collect::<Vec<_>>()
        .join("/");
    println!(
        "{:>12} {:>12.3} {:>9} {:>16} {:>15} {:>15} {:>8.1}%",
        executor,
        o.elapsed * 1e3,
        o.strategy_chosen.as_deref().unwrap_or("-"),
        share_str,
        o.tuner_predict_bytes,
        o.tuner_measured_bytes,
        err * 100.0
    );
    ExecRow {
        executor: executor.to_string(),
        elapsed: o.elapsed,
        strategy: o.strategy_chosen.clone(),
        chosen_shares: shares.to_vec(),
        predict_bytes_per_launch: o.tuner_predict_bytes,
        measured_bytes_per_launch: o.tuner_measured_bytes,
        prediction_error: err,
    }
}

pub fn run(args: &BenchArgs) -> GateResult {
    let (gpus, cpus) = (2usize, 1usize);

    println!("Ablation A13: Backend trait — GPU-only vs CPU-only vs mixed CPU+GPU");
    let mut workloads = Vec::new();
    for Bench {
        case: bench,
        expect_weighted,
        expect_cpu_slower,
    } in BENCHES
    {
        let n = args.pick(bench.n.0, bench.n.1);
        let iters = bench.warmup + args.pick(bench.measure.0, bench.measure.1);

        // Functional equivalence across backends (small fixed-size
        // instances in functional mode, independent of `n`).
        let w = bench.workload;
        let [gpu_out, cpu_out, mixed_out] = [
            MachineSpec::kepler_system(gpus + cpus),
            MachineSpec::cpu_system(gpus + cpus),
            MachineSpec::hybrid_system(gpus, cpus),
        ]
        .map(|spec| w.verify_output(Box::new(Machine::new(spec, true))));
        let byte_identical = gpu_out == cpu_out && gpu_out == mixed_out;
        gate!(
            "a13.backends-byte-identical",
            byte_identical,
            "{}: backends disagree on output bytes",
            bench.name
        );

        // Tuned performance runs on the three executors.
        println!();
        println!("{} (n = {n}, {iters} iterations, tuned)", bench.name);
        println!(
            "{:>12} {:>12} {:>9} {:>16} {:>15} {:>15} {:>9}",
            "executor",
            "elapsed [ms]",
            "strategy",
            "shares",
            "predict [B/l]",
            "measured [B/l]",
            "pred err"
        );
        let (gpu, gpu_shares) = run_tuned(w, n, MachineSpec::kepler_system(gpus), iters);
        let (cpu, cpu_shares) = run_tuned(w, n, MachineSpec::cpu_system(2), iters);
        let (mixed, mixed_shares) = run_tuned(w, n, MachineSpec::hybrid_system(gpus, cpus), iters);

        let rows = vec![
            row(&format!("gpu:{gpus}"), &gpu, &gpu_shares),
            row("cpu:2", &cpu, &cpu_shares),
            row(&format!("gpu:{gpus}+cpu:{cpus}"), &mixed, &mixed_shares),
        ];

        // Every executor must have consulted the tuner and recorded a
        // choice — the per-class pricing ran, whatever it picked.
        for (o, who) in [(&gpu, "gpu"), (&cpu, "cpu"), (&mixed, "mixed")] {
            gate!(
                "a13.tuner-consulted",
                o.strategy_chosen.is_some(),
                "{}: no tuner decision recorded on the {who} executor",
                bench.name
            );
        }
        let mixed_strategy = mixed.strategy_chosen.clone().unwrap_or_default();
        if *expect_weighted {
            gate!(
                "a13.mixed-picks-weighted",
                mixed_strategy.ends_with(":w"),
                "{}: expected weighted shares on the mixed machine, got {mixed_strategy:?}",
                bench.name
            );
            // The host socket (last device) gets a real but strictly
            // smallest sliver of the grid.
            let cpu_share = mixed_shares.last().copied().unwrap_or(0.0);
            gate!(
                "a13.cpu-share-smallest",
                cpu_share > 0.0 && mixed_shares[..gpus].iter().all(|&g| g > cpu_share),
                "{}: CPU share must be the smallest non-zero share: {mixed_shares:?}",
                bench.name
            );
            // Layout-invariant transfers also mean the decision-time
            // prediction must track the measured steady state.
            gate!(
                "a13.mixed-prediction-within-10pct",
                prediction_error(&mixed) <= 0.10,
                "{}: mixed prediction off by {:.0}%",
                bench.name,
                prediction_error(&mixed) * 100.0
            );
        }
        let slowdown = cpu.elapsed / gpu.elapsed;
        gate!(
            "a13.cpu-only-slower",
            !expect_cpu_slower || slowdown > 1.0,
            "{}: CPU-only should be slower than GPU-only ({} vs {})",
            bench.name,
            cpu.elapsed,
            gpu.elapsed
        );
        println!(
            "mixed strategy {mixed_strategy}, CPU-only/GPU-only elapsed ratio {slowdown:.2}x, \
             outputs byte-identical"
        );

        workloads.push(WorkloadReport {
            name: bench.name.to_string(),
            n,
            iters,
            byte_identical,
            executors: rows,
            mixed_strategy,
            cpu_vs_gpu_slowdown: slowdown,
        });
    }

    let report = Report {
        gpus,
        cpu_sockets: 2,
        workloads,
    };
    write_report(args, "backend", &report)
}
