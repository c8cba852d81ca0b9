//! The driver's command line, through the built binary.

use std::process::{Command, Output};

fn mekong_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mekong-bench"))
        .args(args)
        .output()
        .expect("mekong-bench runs")
}

#[test]
fn list_prints_all_twenty_artifacts() {
    let out = mekong_bench(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let names: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        names,
        [
            "table1",
            "fig6",
            "fig7",
            "fig8",
            "single_gpu_overhead",
            "compile_time",
            "ablation_distribution",
            "ablation_tracker",
            "ablation_split_dim",
            "ablation_interconnect",
            "ablation_streams",
            "ablation_replay",
            "ablation_tuner",
            "ablation_replica",
            "ablation_pipeline",
            "ablation_tiling",
            "ablation_serve",
            "ablation_interval",
            "ablation_backend",
            "dump_models",
        ]
    );
}

#[test]
fn usage_errors_exit_2_with_usage_on_stderr() {
    for args in [
        &[][..],
        &["ablation_tunr", "--quick"],
        &["table1", "--qiuck"],
        &["table1", "--gpus"],
    ] {
        let out = mekong_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not start running");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage: mekong-bench"), "{args:?}: {stderr}");
    }
}

#[test]
fn an_artifact_runs_through_the_driver() {
    let out = mekong_bench(&["table1", "--quick"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("Table 1: Configurations of the benchmark applications."));
    assert!(stdout.contains("Hotspot"));
}
