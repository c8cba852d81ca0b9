//! `--repeat`: the determinism check behind `repeat.sh`. Every workload
//! runs twice on the same build, untraced and traced, each run in its own
//! process; the check fails unless every *exact* per-layer metric is
//! bit-identical between the two runs and every end-to-end metric agrees
//! within its bound. Both sets are printed side by side. A shortened run
//! (`--rounds`, `--quick`) has too few rounds for its host-clock metrics
//! to mean much: those are printed and not gated.

use crate::metrics::{END_TO_END, PER_LAYER};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

#[derive(Deserialize)]
struct Metric {
    value: f64,
}

#[derive(Deserialize)]
struct RunResult {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// Run one workload in a child process and parse its result line.
fn run(workload: &str, trace: bool, rest: &[String]) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(rest)
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let r: RunResult =
        serde_json::from_str(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !out.status.success() || !r.correct {
        return Err(format!("{workload}: {} failed operations", r.failed));
    }
    Ok(r)
}

/// `rest`: this process's arguments other than `--repeat` (seed, seconds,
/// rounds), handed to every child.
pub fn check(rest: &[String]) -> ExitCode {
    let gate_host = !rest.iter().any(|a| a == "--rounds" || a == "--quick");
    let mut bad = 0usize;
    for workload in crate::workloads::NAMES {
        println!("== {workload}");
        for trace in [false, true] {
            let (a, b) = match (run(workload, trace, rest), run(workload, trace, rest)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    println!("  FAILED  {e}");
                    bad += 1;
                    continue;
                }
            };
            // (name, Some(bound) for host-clock agreement | None for exact)
            let rows: Vec<(&str, Option<f64>)> = if trace {
                PER_LAYER
                    .iter()
                    .filter(|m| m.2)
                    .map(|m| (m.0, None))
                    .collect()
            } else {
                END_TO_END.iter().map(|m| (m.0, Some(m.2))).collect()
            };
            for (name, bound) in rows {
                let (Some(x), Some(y)) = (a.metrics.get(name), b.metrics.get(name)) else {
                    println!("  MISSING {name}");
                    bad += 1;
                    continue;
                };
                let (x, y) = (x.value, y.value);
                let (ok, rule) = match bound {
                    Some(_) if !gate_host => (true, "shortened run: not gated".to_string()),
                    Some(bound) => (
                        (x - y).abs() <= bound * x.min(y),
                        format!("within {:.0} %", bound * 100.0),
                    ),
                    None => (x.to_bits() == y.to_bits(), "exact".to_string()),
                };
                bad += usize::from(!ok);
                // Exact metrics that read 0 in both runs are not exercised
                // by this workload; leave them out of the listing.
                if !ok || bound.is_some() || x != 0.0 {
                    println!(
                        "  {}  {name:<32} {x:>22} {y:>22}  ({rule})",
                        if ok { "ok    " } else { "DIFFER" }
                    );
                }
            }
        }
    }
    if bad > 0 {
        println!("{bad} metrics differ between two runs of the same build");
        ExitCode::FAILURE
    } else {
        println!(
            "every exact metric is bit-identical{}",
            if gate_host {
                " and every host-clock metric within its bound"
            } else {
                ""
            }
        );
        ExitCode::SUCCESS
    }
}
