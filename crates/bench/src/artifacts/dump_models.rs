//! Dump the §4 application-model records of every workload to disk so
//! `mekong-check` can verify them offline — the CI partition-safety gate
//! runs `mekong-check --json` over these files.
//!
//! Usage: `mekong-bench dump_models [out_dir]` (default `target/models`).

use crate::harness::{BenchArgs, GateResult};
use mekong_workloads::{benchmarks, extra_benchmarks};
use std::path::PathBuf;

pub fn run(args: &BenchArgs) -> GateResult {
    let default_dir = || PathBuf::from("target/models");
    let out_dir = args.out_dir.clone().unwrap_or_else(default_dir);
    let mut written = std::fs::create_dir_all(&out_dir);
    for b in benchmarks().iter().chain(extra_benchmarks().iter()) {
        let prog = mekong_core::compile_source(b.source());
        gate!(
            "workload-compiles",
            prog.is_ok(),
            "{}: {:?}",
            b.name(),
            prog.as_ref().err()
        );
        let path = out_dir.join(format!("{}.model.json", b.name()));
        written = written.and_then(|()| std::fs::write(&path, &prog.unwrap().model_json));
        println!("{}", path.display());
    }
    gate!(
        "models-written",
        written.is_ok(),
        "{}: {}",
        out_dir.display(),
        written.unwrap_err()
    );
    Ok(())
}
