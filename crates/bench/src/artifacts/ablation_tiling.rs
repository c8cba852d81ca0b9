//! Ablation A10: 2-D rectangular grid tilings vs 1-D slab splits.
//!
//! A slab split pays halo traffic proportional to the *full* grid edge
//! on every internal interface; a rectangular X×Y tiling pays the tile
//! *perimeter*, which is smaller — but its column faces are strided, so
//! the win only materializes on fabrics whose per-transaction latency
//! is low enough that perimeter bytes dominate transaction count. On
//! the paper's host-staged PCIe tree (15 µs per staged copy) slabs stay
//! optimal and A7 shows the tuner keeping them; this ablation runs the
//! same workloads on a hypothetical switched fabric (direct peer links,
//! 25 GB/s, 50 ns setup) where the perimeter term wins.
//!
//! **Part A** evaluates every candidate strategy *self-consistently*:
//! each candidate is forced, warmed into its steady state (so the
//! one-time redistribution is not billed to the per-iteration cost),
//! then the cost model is queried from exactly that tracker state and
//! the next iterations are measured. This is the fixed point the
//! autotuner's drift-retuning converges to. Asserted on hotspot:
//!
//! * the cheapest-predicted candidate is a 2-D tiling;
//! * its measured per-iteration D2D bytes are strictly below the best
//!   1-D slab's;
//! * its prediction lands within ±15 % of the measured bytes.
//!
//! Blur rides along unasserted: its row/col kernels each have a
//! halo-free 1-D axis, so slabs remain competitive and the table simply
//! records how close the tilings come.
//!
//! **Part B** replays the chosen tiling on a functional machine: a 2×2
//! device lattice must produce byte-identical results to a single
//! device across a multi-iteration ping-pong run.
//!
//! Emits `BENCH_tiling.json`.

use crate::harness::{
    capturing, force_all, measure, prepare, write_report, BenchArgs, Case, GateResult,
};
use mekong_core::prelude::*;
use mekong_gpusim::LinkSpec;
use mekong_runtime::PartitionStrategy;
use mekong_workloads::{Blur, Hotspot};
use serde::Serialize;

/// Direct-peer switched fabric: same device silicon as the Kepler
/// testbed, but links that make strided column halos cheap.
fn switched_fabric(n: usize) -> MachineSpec {
    let mut spec = MachineSpec::kepler_system(n);
    spec.link = LinkSpec {
        bandwidth: 25.0e9,
        latency: 0.05e-6,
        host_staged: false,
    };
    spec
}

const BENCHES: &[Case] = &[
    Case {
        name: "hotspot",
        workload: &Hotspot,
        n: (2048, 512),
        warmup: 4,
        measure: (12, 4),
    },
    Case {
        name: "blur",
        workload: &Blur,
        n: (2048, 512),
        warmup: 4,
        measure: (12, 4),
    },
];

#[derive(Serialize)]
struct CandidateRow {
    strategy: String,
    tiled: bool,
    predicted_bytes_per_iter: u64,
    measured_bytes_per_iter: u64,
    predicted_time: f64,
    elapsed_per_iter: f64,
}

#[derive(Serialize)]
struct WorkloadReport {
    name: String,
    n: usize,
    measured_iters: usize,
    candidates: Vec<CandidateRow>,
    chosen: String,
    chosen_is_tiled: bool,
    best_slab: String,
    tiled_vs_slab_bytes: f64,
    prediction_error: f64,
}

#[derive(Serialize)]
struct FunctionalReport {
    n: usize,
    iters: usize,
    strategy: String,
    identical: bool,
}

#[derive(Serialize)]
struct Report {
    gpus: usize,
    fabric_bandwidth: f64,
    fabric_latency: f64,
    fabric_host_staged: bool,
    workloads: Vec<WorkloadReport>,
    functional: FunctionalReport,
}

/// Force `strategy` on every kernel of a fresh instance, warm it into
/// steady state, query the cost model *from that state*, then measure.
/// Returns `(predicted bytes/iter, predicted time, measured bytes/iter,
/// elapsed secs/iter)`.
fn evaluate(
    bench: &Case,
    spec: &MachineSpec,
    cfg: RuntimeConfig,
    n: usize,
    iters: usize,
    strategy: &PartitionStrategy,
) -> (u64, f64, u64, f64) {
    let mut p = prepare(bench.workload, n, spec.clone(), false, cfg);
    force_all(&mut p, strategy);
    p.steps(bench.warmup);
    p.rt.synchronize();
    let (mut pred_bytes, mut pred_time) = (0u64, 0.0f64);
    for site in &p.sites {
        let cands =
            p.rt.tuner_candidates(&site.ck, site.grid, site.block, &site.args)
                .expect("candidate enumeration");
        let own = cands
            .iter()
            .find(|c| c.strategy == *strategy)
            .expect("forced strategy is an enumerated candidate");
        pred_bytes += own.predict.transfer_bytes;
        pred_time += own.predict.total_time();
    }
    let (moved, per_iter) = measure(&mut p, iters);
    (pred_bytes, pred_time, moved, per_iter)
}

/// Functional differential: hotspot on a 2×2 device lattice under the
/// chosen tiling must be byte-identical to a single device.
fn functional_differential(n: usize, iters: usize, strategy: &PartitionStrategy) -> bool {
    let run = |devices: usize, force: Option<&PartitionStrategy>| -> Vec<u8> {
        let cfg = capturing(RuntimeConfig::default());
        let mut p = prepare(&Hotspot, n, switched_fabric(devices), true, cfg);
        if let Some(s) = force {
            force_all(&mut p, s);
        }
        p.run(iters).concat()
    };
    run(1, None) == run(4, Some(strategy))
}

pub fn run(args: &BenchArgs) -> GateResult {
    let gpus = 4usize;
    let spec = switched_fabric(gpus);
    let cfg = capturing(RuntimeConfig::alpha());

    println!(
        "Ablation A10: rectangular tilings vs slabs ({gpus} perf GPUs, switched fabric \
         {:.0} GB/s, {:.0} ns, direct)",
        spec.link.bandwidth / 1e9,
        spec.link.latency * 1e9
    );

    let mut workloads = Vec::new();
    let mut hotspot_tiled: Option<PartitionStrategy> = None;
    for bench in BENCHES {
        let n = args.pick(bench.n.0, bench.n.1);
        let iters = args.pick(bench.measure.0, bench.measure.1);

        // The candidate set does not depend on tracker state — grab it
        // from a fresh instance.
        let fresh = prepare(bench.workload, n, spec.clone(), false, cfg);
        let site = &fresh.sites[0];
        let strategies: Vec<PartitionStrategy> = fresh
            .rt
            .tuner_candidates(&site.ck, site.grid, site.block, &site.args)
            .expect("candidate enumeration")
            .into_iter()
            .map(|c| c.strategy)
            .collect();
        drop(fresh);

        println!();
        println!("{} (n = {n}, {iters} measured iterations)", bench.name);
        println!(
            "{:>10} {:>18} {:>18} {:>14} {:>14}",
            "strategy", "predicted [B/it]", "measured [B/it]", "pred time [ms]", "meas time [ms]"
        );
        let mut rows = Vec::new();
        for strategy in &strategies {
            let (pb, pt, mb, mt) = evaluate(bench, &spec, cfg, n, iters, strategy);
            println!(
                "{:>10} {:>18} {:>18} {:>14.4} {:>14.4}",
                strategy.describe(),
                pb,
                mb,
                pt * 1e3,
                mt * 1e3
            );
            rows.push(CandidateRow {
                strategy: strategy.describe(),
                tiled: strategy.is_tiled(),
                predicted_bytes_per_iter: pb,
                measured_bytes_per_iter: mb,
                predicted_time: pt,
                elapsed_per_iter: mt,
            });
        }

        let chosen_idx = (0..rows.len())
            .min_by(|&a, &b| rows[a].predicted_time.total_cmp(&rows[b].predicted_time))
            .expect("at least one candidate");
        let slab = rows
            .iter()
            .filter(|r| !r.tiled)
            .min_by(|a, b| a.predicted_time.total_cmp(&b.predicted_time))
            .expect("slabs are always enumerated");
        let chosen = &rows[chosen_idx];
        let err = (chosen.predicted_bytes_per_iter as f64 - chosen.measured_bytes_per_iter as f64)
            .abs()
            / (chosen.measured_bytes_per_iter as f64).max(1.0);
        let bytes_ratio =
            chosen.measured_bytes_per_iter as f64 / (slab.measured_bytes_per_iter as f64).max(1.0);
        println!(
            "chosen {} (best slab {}): {:.0}% of the slab's halo bytes, prediction off by {:.1}%",
            chosen.strategy,
            slab.strategy,
            bytes_ratio * 100.0,
            err * 100.0
        );

        if bench.name == "hotspot" {
            gate!(
                "a10a.hotspot-picks-tiling",
                chosen.tiled,
                "hotspot on the switched fabric must choose a 2-D tiling, got {}",
                chosen.strategy
            );
            gate!(
                "a10a.tiling-moves-fewer-bytes",
                chosen.measured_bytes_per_iter < slab.measured_bytes_per_iter,
                "tiling must move fewer halo bytes than the best slab: {} vs {}",
                chosen.measured_bytes_per_iter,
                slab.measured_bytes_per_iter
            );
            gate!(
                "a10a.perimeter-prediction-within-15pct",
                err <= 0.15,
                "perimeter prediction out of the ±15% band: predicted {} measured {}",
                chosen.predicted_bytes_per_iter,
                chosen.measured_bytes_per_iter
            );
            hotspot_tiled = Some(strategies[chosen_idx].clone());
        }

        workloads.push(WorkloadReport {
            name: bench.name.to_string(),
            n,
            measured_iters: iters,
            chosen: chosen.strategy.clone(),
            chosen_is_tiled: chosen.tiled,
            best_slab: slab.strategy.clone(),
            tiled_vs_slab_bytes: bytes_ratio,
            prediction_error: err,
            candidates: rows,
        });
    }

    // Part B: byte-identical functional replay under the chosen tiling.
    let tiled = hotspot_tiled.expect("hotspot ran");
    let n_fn = args.pick(384, 192);
    let iters_fn = args.pick(10, 6);
    let identical = functional_differential(n_fn, iters_fn, &tiled);
    println!();
    println!(
        "functional hotspot n = {n_fn}, {iters_fn} iters, 2x2 lattice {}: byte-identical = \
         {identical}",
        tiled.describe()
    );
    gate!(
        "a10b.lattice-byte-identical",
        identical,
        "2-D tiling must be byte-identical to the single-device run"
    );

    let report = Report {
        gpus,
        fabric_bandwidth: spec.link.bandwidth,
        fabric_latency: spec.link.latency,
        fabric_host_staged: spec.link.host_staged,
        workloads,
        functional: FunctionalReport {
            n: n_fn,
            iters: iters_fn,
            strategy: tiled.describe(),
            identical,
        },
    };
    write_report(args, "tiling", &report)
}
