//! # mekong-bench — regenerating the paper's tables and figures
//!
//! One driver, `mekong-bench <artifact|all|list> [--quick]
//! [--iter-scale X] [--gpus a,b]`: every table, figure and ablation is
//! a module under [`artifacts`] entered in [`REGISTRY`] (`mekong-bench
//! list` prints it). Workloads come from their one description in
//! `mekong-workloads`; an artifact's acceptance checks are named gates,
//! and a failed gate makes the exit code 1. `--quick` scales iteration
//! counts down for a smoke run and writes any BENCH file under
//! `target/bench/` instead of over the committed baseline.

#[macro_use]
mod harness;
mod artifacts;

use artifacts::*;
use harness::{BenchArgs, GateResult};

/// One reproducible artifact of the evaluation.
struct Artifact {
    name: &'static str,
    /// What it reproduces: the paper's table/figure/section or the
    /// ablation number of DESIGN.md §5.
    paper: &'static str,
    run: fn(&BenchArgs) -> GateResult,
}

#[rustfmt::skip]
const REGISTRY: &[Artifact] = &[
    Artifact { name: "table1", paper: "Table 1 — benchmark configurations", run: table1::run },
    Artifact { name: "fig6", paper: "Figure 6 — speedup vs #GPUs", run: fig6::run },
    Artifact { name: "fig7", paper: "Figure 7 — execution time breakdown", run: fig7::run },
    Artifact { name: "fig8", paper: "Figure 8 — non-transfer overhead box plot", run: fig8::run },
    Artifact { name: "single_gpu_overhead", paper: "§9.2 — single-GPU slowdown statistics", run: single_gpu_overhead::run },
    Artifact { name: "compile_time", paper: "§3 — compile-time increase", run: compile_time::run },
    Artifact { name: "ablation_distribution", paper: "A1 — default vs free redistribution", run: ablation_distribution::run },
    Artifact { name: "ablation_tracker", paper: "A2 — tracker fragmentation vs sync cost", run: ablation_tracker::run },
    Artifact { name: "ablation_split_dim", paper: "A3 — partition axis choice", run: ablation_split_dim::run },
    Artifact { name: "ablation_interconnect", paper: "A4 — PCIe-tree vs NVLink-class fabric", run: ablation_interconnect::run },
    Artifact { name: "ablation_streams", paper: "A5 — transfer coalescing", run: ablation_streams::run },
    Artifact { name: "ablation_replay", paper: "A6 — launch-plan capture & replay (BENCH_replay.json)", run: ablation_replay::run },
    Artifact { name: "ablation_tuner", paper: "A7 — cost-model-driven autotuner (BENCH_tuner.json)", run: ablation_tuner::run },
    Artifact { name: "ablation_replica", paper: "A8 — replica-aware coherence (BENCH_replica.json)", run: ablation_replica::run },
    Artifact { name: "ablation_pipeline", paper: "A9 — launch-ahead pipelined scheduling (BENCH_pipeline.json)", run: ablation_pipeline::run },
    Artifact { name: "ablation_tiling", paper: "A10 — 2-D grid tilings vs 1-D slabs (BENCH_tiling.json)", run: ablation_tiling::run },
    Artifact { name: "ablation_serve", paper: "A11 — multi-tenant serving runtime (BENCH_serve.json)", run: ablation_serve::run },
    Artifact { name: "ablation_interval", paper: "A12 — interval boxes on irregular kernels (BENCH_interval.json)", run: ablation_interval::run },
    Artifact { name: "ablation_backend", paper: "A13 — GPU-only vs CPU-only vs mixed (BENCH_backend.json)", run: ablation_backend::run },
    Artifact { name: "dump_models", paper: "§4 — application models for mekong-check [out_dir]", run: dump_models::run },
];

const USAGE: &str =
    "usage: mekong-bench <artifact|all|list> [--quick] [--iter-scale X] [--gpus a,b]";

/// Run one artifact; a failed gate is reported on stderr.
fn run(artifact: &Artifact, args: &BenchArgs) -> bool {
    match (artifact.run)(args) {
        Ok(()) => true,
        Err(f) => {
            eprintln!("GATE FAILED {}/{}: {}", artifact.name, f.gate, f.detail);
            false
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<&str> = REGISTRY
        .iter()
        .map(|a| a.name)
        .chain(["all", "list"])
        .collect();
    let (name, args) = BenchArgs::parse(&argv, &known).unwrap_or_else(|msg| {
        eprintln!("mekong-bench: {msg}");
        eprintln!("{USAGE}");
        eprintln!("`mekong-bench list` names the artifacts");
        std::process::exit(2);
    });
    let ok = match name.as_str() {
        "list" => {
            for a in REGISTRY {
                println!("{:<22} {}", a.name, a.paper);
            }
            true
        }
        // Every artifact runs, whatever failed before it.
        "all" => {
            let failed = REGISTRY.iter().filter(|a| {
                println!("==> {}", a.name);
                !run(a, &args)
            });
            failed.count() == 0
        }
        _ => {
            let artifact = REGISTRY.iter().find(|a| a.name == name);
            run(artifact.expect("the parser accepted the name"), &args)
        }
    };
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_complete() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 20);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "duplicate artifact name");
        assert!(!names.contains(&"all") && !names.contains(&"list"));
    }
}
