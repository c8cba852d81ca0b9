//! "Diagnostics and witnesses unchanged" as a test: the checker's report
//! over the six workload models against `tests/golden/check_reports.json`,
//! which is the CI partition-safety gate's `check.json` (`mekong-bench
//! dump-models` piped through `mekong-check --json`) with the directories
//! stripped from the file names. CI `cmp`s the gate's real output against
//! the same file.

use mekong_analysis::AppModel;
use mekong_check::{check_app, CheckReport, SCHEMA_VERSION};
use mekong_workloads::{benchmarks, extra_benchmarks};
use serde::Serialize;

/// The `--json` document of `mekong-check`.
#[derive(Serialize)]
struct JsonOutput {
    schema_version: u32,
    files: Vec<FileReport>,
}

#[derive(Serialize)]
struct FileReport {
    file: String,
    report: CheckReport,
}

#[test]
fn workload_check_reports_match_the_golden_file() {
    let all = benchmarks();
    let extra = extra_benchmarks();
    // The gate's shell glob sorts the model files by name.
    let mut workloads: Vec<_> = all.iter().chain(extra.iter()).collect();
    workloads.sort_by_key(|b| b.name());
    let files = workloads
        .iter()
        .map(|b| {
            let exported = mekong_core::compile_source(b.source()).unwrap().model_json;
            let model = AppModel::from_json(&exported).unwrap();
            FileReport {
                file: format!("{}.model.json", b.name()),
                report: check_app(&model).unwrap(),
            }
        })
        .collect();
    let doc = JsonOutput {
        schema_version: SCHEMA_VERSION,
        files,
    };
    let got = serde_json::to_string_pretty(&doc).unwrap() + "\n";
    let golden = include_str!("../../../tests/golden/check_reports.json");
    let first_difference = got.lines().zip(golden.lines()).position(|(a, b)| a != b);
    assert!(
        got == golden,
        "check reports differ from tests/golden/check_reports.json, first at line {:?}",
        first_difference.map(|l| l + 1)
    );
}
