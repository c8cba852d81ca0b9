//! `mekong-check` — lint saved application models for partition
//! safety.
//!
//! ```text
//! mekong-check [--json] MODEL.json...
//! ```
//!
//! Each input file is an `AppModel` as exported by the compiler
//! (`mekongc`'s `<stem>.model.json`, `mekong-bench dump-models`); a file
//! whose records do not validate is refused. The process exits non-zero
//! if any kernel carries an `Error`-severity diagnostic — the CI
//! soundness gate.

use mekong_analysis::AppModel;
use mekong_check::{check_app, CheckReport, Severity, SCHEMA_VERSION};
use serde::Serialize;
use std::process::ExitCode;

/// One `--json` output entry: the report of a single input file.
#[derive(Serialize)]
struct FileReport {
    file: String,
    report: CheckReport,
}

/// The whole `--json` document: a schema marker plus per-file reports.
#[derive(Serialize)]
struct JsonOutput {
    schema_version: u32,
    files: Vec<FileReport>,
}

const USAGE: &str = "usage: mekong-check [--json] [--deny-warnings] MODEL.json...

Statically verifies partition safety of saved kernel models:
cross-partition write races (with concrete witness points), inexact or
may write maps, out-of-bounds access images, dead array arguments,
bounded may-read boxes and enumerator-coverage gaps.

  --json            emit machine-readable diagnostics instead of text
  --deny-warnings   also exit non-zero on Warning-severity diagnostics
  --help            show this message

Exits 0 when no Error-severity diagnostic was found (no Warning either
under --deny-warnings), 1 otherwise.
";

fn main() -> ExitCode {
    let mut json = false;
    let mut deny_warnings = false;
    let mut files: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("mekong-check: unknown flag `{arg}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    let mut json_out: Vec<FileReport> = Vec::new();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mekong-check: {file}: {e}");
                failed = true;
                continue;
            }
        };
        let app = match AppModel::from_json(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("mekong-check: {file}: malformed model: {e}");
                failed = true;
                continue;
            }
        };
        let report = match check_app(&app) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mekong-check: {file}: {e}");
                failed = true;
                continue;
            }
        };
        failed |= report.has_errors() || (deny_warnings && report.has_warnings());
        if json {
            json_out.push(FileReport {
                file: file.clone(),
                report,
            });
        } else {
            print_human(file, &report);
        }
    }
    if json {
        let doc = JsonOutput {
            schema_version: SCHEMA_VERSION,
            files: json_out,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("serialization cannot fail")
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_human(file: &str, report: &mekong_check::CheckReport) {
    println!("{file}:");
    for kc in &report.kernels {
        let axes = ["z", "y", "x"];
        let proven: Vec<&str> = (0..3)
            .filter(|&i| kc.proven_axes[i])
            .map(|i| axes[i])
            .collect();
        println!(
            "  kernel {} (suggested axis {}): proven axes {{{}}}",
            kc.kernel,
            kc.suggested,
            proven.join(",")
        );
        if kc.diagnostics.is_empty() {
            println!("    clean");
        }
        for d in &kc.diagnostics {
            for line in d.to_string().lines() {
                println!("    {line}");
            }
        }
    }
    let errors = report.error_count();
    let warnings = report
        .kernels
        .iter()
        .flat_map(|k| k.diagnostics.iter())
        .filter(|d| d.severity == Severity::Warning)
        .count();
    println!("  {errors} error(s), {warnings} warning(s)");
}
