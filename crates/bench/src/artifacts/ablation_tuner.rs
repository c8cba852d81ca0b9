//! Ablation A7: the cost-model-driven partitioning autotuner.
//!
//! **Part A** validates the static cost model candidate by candidate:
//! for each workload every enumerated strategy is *forced* in turn and
//! the steady-state measured peer-transfer bytes per iteration (after a
//! warm-up that absorbs the initial redistribution) are compared against
//! the model's prediction. The chosen (cheapest-predicted) strategy must
//! land within 10 % of the measurement on every workload. Non-chosen
//! candidates are reported too — e.g. forced X splits refetch read-only
//! arrays every launch, which the steady-state ownership model knowingly
//! underestimates; the table quantifies that gap.
//!
//! **Part B** runs each workload end-to-end with the autotuner on
//! ([`RuntimeConfig::tuned`]) against a fixed even X split, the "always
//! split the innermost dimension" strategy a naive runtime hardcodes.
//! Tuned must never lose, and must win by > 5 % on at least one
//! workload.
//!
//! **Part C** demonstrates weighted shares: on a heterogeneous 2-GPU
//! machine (device 1 at half rate) the tuner shifts work toward the
//! faster device instead of splitting evenly.
//!
//! Emits `BENCH_tuner.json`.

use crate::harness::{
    capturing, force_all, prepare, run_iters, write_report, BenchArgs, Case, GateResult,
};
use mekong_core::prelude::*;
use mekong_gpusim::DeviceSpec;
use mekong_runtime::PartitionStrategy;
use mekong_workloads::{Blur, Hotspot, Matmul, NBody};
use serde::Serialize;

const BENCHES: &[Case] = &[
    Case {
        name: "blur",
        workload: &Blur,
        n: (2048, 512),
        warmup: 3,
        measure: (12, 4),
    },
    Case {
        name: "hotspot",
        workload: &Hotspot,
        n: (2048, 1024),
        warmup: 3,
        measure: (12, 4),
    },
    Case {
        name: "matmul",
        workload: &Matmul,
        n: (1024, 256),
        warmup: 0,
        measure: (1, 1),
    },
    Case {
        name: "nbody",
        workload: &NBody,
        n: (65_536, 8_192),
        warmup: 2,
        measure: (8, 3),
    },
];

#[derive(Serialize)]
struct CandidateRow {
    strategy: String,
    predicted_bytes_per_iter: u64,
    measured_bytes_per_iter: u64,
    predicted_time: f64,
}

#[derive(Serialize)]
struct WorkloadReport {
    name: String,
    n: usize,
    measured_iters: usize,
    candidates: Vec<CandidateRow>,
    chosen: String,
    prediction_error: f64,
    tuned_strategies: Vec<String>,
    tuned_elapsed: f64,
    fixed_x_elapsed: f64,
    improvement: f64,
}

#[derive(Serialize)]
struct HetReport {
    machine: String,
    n: usize,
    strategy: String,
    weighted_elapsed: f64,
    even_elapsed: f64,
    improvement: f64,
}

#[derive(Serialize)]
struct Report {
    gpus: usize,
    workloads: Vec<WorkloadReport>,
    heterogeneous: HetReport,
}

pub fn run(args: &BenchArgs) -> GateResult {
    let gpus = 4usize;
    let spec = || MachineSpec::kepler_system(gpus);
    let cfg_fixed = capturing(RuntimeConfig::alpha());

    println!("Ablation A7: cost-model-driven partitioning autotuner ({gpus} perf GPUs)");
    let mut workloads = Vec::new();
    let mut best_improvement = 0.0f64;
    for bench in BENCHES {
        let n = args.pick(bench.n.0, bench.n.1);
        let measure = args.pick(bench.measure.0, bench.measure.1);
        let make = |cfg| prepare(bench.workload, n, spec(), false, cfg);

        // Model predictions per candidate (summed over launch sites for
        // multi-kernel pipelines), queried after the same warm-up the
        // measurement runs get: ping-pong arrays then carry the
        // kernel-written provenance that selects steady-state
        // `SelfWrites` ownership, while read-only uploads keep their
        // tracker layout — exactly the state the decision is about.
        let mut p = make(cfg_fixed);
        p.steps(bench.warmup);
        p.rt.synchronize();
        let mut per_strategy: Vec<(PartitionStrategy, u64, f64)> = Vec::new();
        for site in &p.sites {
            let cands =
                p.rt.tuner_candidates(&site.ck, site.grid, site.block, &site.args)
                    .expect("candidate enumeration");
            for c in cands {
                match per_strategy.iter_mut().find(|(s, _, _)| *s == c.strategy) {
                    Some(e) => {
                        e.1 += c.predict.transfer_bytes;
                        e.2 += c.predict.total_time();
                    }
                    None => per_strategy.push((
                        c.strategy,
                        c.predict.transfer_bytes,
                        c.predict.total_time(),
                    )),
                }
            }
        }
        drop(p);

        // Part A: force each candidate, measure steady-state traffic.
        println!();
        println!("{} (n = {n}, {measure} measured iterations)", bench.name);
        println!(
            "{:>10} {:>18} {:>18} {:>14}",
            "strategy", "predicted [B/it]", "measured [B/it]", "pred time [ms]"
        );
        let mut rows = Vec::new();
        for (strategy, pred_bytes, pred_time) in &per_strategy {
            let mut p = make(cfg_fixed);
            force_all(&mut p, strategy);
            let (_, _, measured) = run_iters(p, bench.warmup, measure);
            println!(
                "{:>10} {:>18} {:>18} {:>14.3}",
                strategy.describe(),
                pred_bytes,
                measured,
                pred_time * 1e3
            );
            rows.push(CandidateRow {
                strategy: strategy.describe(),
                predicted_bytes_per_iter: *pred_bytes,
                measured_bytes_per_iter: measured,
                predicted_time: *pred_time,
            });
        }
        let chosen = rows
            .iter()
            .min_by(|a, b| a.predicted_time.total_cmp(&b.predicted_time))
            .expect("at least one candidate");
        let (pred, meas) = (
            chosen.predicted_bytes_per_iter,
            chosen.measured_bytes_per_iter,
        );
        let chosen = chosen.strategy.clone();
        let err = (pred as f64 - meas as f64).abs() / (meas as f64).max(1.0);
        println!("chosen {chosen}: prediction off by {:.1}%", err * 100.0);
        gate!(
            "a7a.chosen-prediction-within-10pct",
            err <= 0.10,
            "{}: chosen strategy {chosen} predicted {pred} B/it but measured {meas} B/it",
            bench.name
        );

        // Part B: autotuned end-to-end vs the fixed even X split.
        let iters = bench.warmup + measure;
        let (tuned_out, tuned_strategies, _) = run_iters(make(RuntimeConfig::tuned()), 0, iters);
        let mut fixed = make(cfg_fixed);
        force_all(&mut fixed, &PartitionStrategy::even(SplitAxis::X, gpus));
        let (fixed_out, _, _) = run_iters(fixed, 0, iters);
        let improvement = 1.0 - tuned_out.elapsed / fixed_out.elapsed;
        best_improvement = best_improvement.max(improvement);
        println!(
            "tuned {:?} {:.3} ms vs fixed x:{gpus} {:.3} ms ({:+.1}%)",
            tuned_strategies,
            tuned_out.elapsed * 1e3,
            fixed_out.elapsed * 1e3,
            improvement * 100.0
        );
        gate!(
            "a7b.tuned-never-loses",
            tuned_out.elapsed <= fixed_out.elapsed * 1.0001,
            "{}: tuned run slower than the fixed X split: {} vs {}",
            bench.name,
            tuned_out.elapsed,
            fixed_out.elapsed
        );

        workloads.push(WorkloadReport {
            name: bench.name.to_string(),
            n,
            measured_iters: measure,
            candidates: rows,
            chosen,
            prediction_error: err,
            tuned_strategies,
            tuned_elapsed: tuned_out.elapsed,
            fixed_x_elapsed: fixed_out.elapsed,
            improvement,
        });
    }
    gate!(
        "a7b.tuned-wins-somewhere",
        best_improvement > 0.05,
        "tuning must beat the fixed X split by > 5% somewhere: best {:.1}%",
        best_improvement * 100.0
    );

    // Part C: heterogeneous machine — the tuner shifts work toward the
    // faster device via proportional shares.
    let base = MachineSpec::kepler_system(2);
    let slow = DeviceSpec {
        flops: base.device.flops / 2.0,
        int_ops: base.device.int_ops / 2.0,
        mem_bw: base.device.mem_bw / 2.0,
        ..base.device.clone()
    };
    let het = base.with_device_override(1, slow);
    // N-Body: every partition reads all positions, so the transfer bill is
    // the same for every share split and the compute-balanced weighted
    // split wins outright — the cleanest heterogeneity demonstration.
    let n_het = args.pick(65536, 8192);
    let iters_het = args.pick(16, 8);
    let make = |cfg| prepare(&NBody, n_het, het.clone(), false, cfg);
    let (tuned_out, tuned_strategies, _) = run_iters(make(RuntimeConfig::tuned()), 0, iters_het);
    let mut even = make(cfg_fixed);
    force_all(&mut even, &PartitionStrategy::even(SplitAxis::X, 2));
    let (even_out, _, _) = run_iters(even, 0, iters_het);
    let het_strategy = tuned_strategies.first().cloned().unwrap_or_default();
    let het_improvement = 1.0 - tuned_out.elapsed / even_out.elapsed;
    println!();
    println!(
        "heterogeneous 2-GPU (device 1 half rate), nbody n = {n_het}: tuned {} \
         {:.3} ms vs even x:2 {:.3} ms ({:+.1}%)",
        het_strategy,
        tuned_out.elapsed * 1e3,
        even_out.elapsed * 1e3,
        het_improvement * 100.0
    );
    gate!(
        "a7c.weighted-split-chosen",
        het_strategy.ends_with(":w"),
        "expected a weighted split on the heterogeneous machine, got {het_strategy}"
    );
    gate!(
        "a7c.weighted-never-loses",
        tuned_out.elapsed <= even_out.elapsed * 1.0001,
        "weighted split must not lose to the even split: {} vs {}",
        tuned_out.elapsed,
        even_out.elapsed
    );

    let report = Report {
        gpus,
        workloads,
        heterogeneous: HetReport {
            machine: "2x Kepler, device 1 at half rate".to_string(),
            n: n_het,
            strategy: het_strategy,
            weighted_elapsed: tuned_out.elapsed,
            even_elapsed: even_out.elapsed,
            improvement: het_improvement,
        },
    };
    write_report(args, "tuner", &report)
}
