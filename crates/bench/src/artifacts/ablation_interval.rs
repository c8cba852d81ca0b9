//! Ablation A12: interval abstract interpretation for non-affine
//! kernels.
//!
//! The polyhedral domain alone cannot model data-dependent reads —
//! histogram's `val[k]` with `k ∈ [off[b], off[b+1])` and SpMV's
//! gather `x[cols[r][j]]` — so without the interval interpreter those
//! workloads would be unpartitionable (or priced as whole-array reads).
//! With `@mekong … range` annotations the interpreter derives **bounded
//! may-read boxes**, and the runtime fetches the box instead of exact
//! ranges.
//!
//! Three claims, all load-bearing for §4 soundness:
//!
//! * **Correctness.** Histogram and SpMV partitioned across 2 and 4
//!   functional devices produce output byte-identical to the 1-device
//!   run (and to the CPU reference) — over-approximated reads never
//!   change results.
//! * **Bounded over-fetch.** `mayread_overfetch_bytes` (box bytes
//!   beyond the single-device baseline) is zero on 1 device by
//!   construction, strictly positive on multi-device runs (the seam
//!   halos), and a small fraction of `mayread_fetch_bytes` — the box is
//!   banded, not the whole array.
//! * **Writes stay exact.** A scatter kernel whose *write* index is
//!   data-dependent — even with a range annotation bounding it — is
//!   rejected at every layer: analysis verdict, `mekong-check` error
//!   diagnostic, and the runtime launch gate.
//!
//! Emits `BENCH_interval.json`.

use crate::harness::{capturing, prepare, write_report, BenchArgs, GateResult};
use mekong_check::{check_kernel, codes, Severity};
use mekong_core::prelude::*;
use mekong_gpusim::OpCounters;
use mekong_workloads::{Benchmark, Histogram, Spmv};
use serde::Serialize;

#[derive(Serialize)]
struct GpuPoint {
    gpus: usize,
    mayread_fetch_bytes: u64,
    mayread_overfetch_bytes: u64,
    /// Over-fetch as a fraction of the box fetch.
    overfetch_ratio: f64,
}

#[derive(Serialize)]
struct SectionReport {
    n: usize,
    iters: usize,
    byte_identical: bool,
    matches_cpu_reference: bool,
    points: Vec<GpuPoint>,
}

#[derive(Serialize)]
struct Report {
    histogram: SectionReport,
    spmv: SectionReport,
    inexact_write_rejected: bool,
}

/// Run one irregular workload on 1, 2 and 4 functional devices —
/// `iters` identical launches each, so captured plans replay and re-note
/// the may-read counters — and check the A12 claims.
fn section(name: &str, b: &dyn Benchmark, n: usize, iters: usize) -> GateResult<SectionReport> {
    let runs: Vec<(usize, Vec<u8>, OpCounters)> = [1usize, 2, 4]
        .iter()
        .map(|&gpus| {
            let spec = MachineSpec::kepler_system(gpus);
            let mut p = prepare(b, n, spec, true, capturing(RuntimeConfig::beta()));
            let output = p.run(iters).concat();
            (gpus, output, p.rt.machine().counters())
        })
        .collect();
    let (_, base_output, base) = &runs[0];
    gate!(
        "a12.matches-cpu-reference",
        *base_output == b.reference_output(n, iters),
        "{name}: 1-device run must match the CPU reference"
    );
    gate_eq!(
        "a12.one-device-no-overfetch",
        base.mayread_overfetch_bytes,
        0,
        "{name}: one device fetches exactly the whole-grid box"
    );
    let mut points = Vec::new();
    for (gpus, output, c) in &runs {
        gate!(
            "a12.byte-identical",
            output == base_output,
            "{name}: {gpus}-device output must be byte-identical to 1 device"
        );
        gate!(
            "a12.boxes-fetched",
            c.mayread_fetch_bytes > 0,
            "{name}: boxed reads must be fetched through the may-read path"
        );
        if *gpus > 1 {
            gate!(
                "a12.seams-overfetch",
                c.mayread_overfetch_bytes > 0,
                "{name}: partition seams must over-fetch on {gpus} devices"
            );
            gate!(
                "a12.overfetch-bounded",
                c.mayread_overfetch_bytes * 4 < c.mayread_fetch_bytes,
                "{name}: over-fetch must stay bounded: {} of {}",
                c.mayread_overfetch_bytes,
                c.mayread_fetch_bytes
            );
        }
        let ratio = c.mayread_overfetch_bytes as f64 / c.mayread_fetch_bytes as f64;
        println!(
            "{:>10} {:>6} {:>16} {:>16} {:>9.2}%",
            name,
            gpus,
            c.mayread_fetch_bytes,
            c.mayread_overfetch_bytes,
            ratio * 100.0,
        );
        points.push(GpuPoint {
            gpus: *gpus,
            mayread_fetch_bytes: c.mayread_fetch_bytes,
            mayread_overfetch_bytes: c.mayread_overfetch_bytes,
            overfetch_ratio: ratio,
        });
    }
    Ok(SectionReport {
        n,
        iters,
        byte_identical: true,
        matches_cpu_reference: true,
        points,
    })
}

/// A data-dependent *write* must be rejected even when annotated: range
/// annotations widen reads soundly, but §4 requires writes exact.
fn check_scatter_rejected() -> GateResult<bool> {
    const SCATTER: &str = r#"
// @mekong scatter range idx : $0 - 1 .. $0 + 1
__global__ void scatter(int n, int idx[n], float out[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    int j = idx[i];
    out[j] = 1.0f;
}

int main() {
    scatter<<<grid, block>>>(n, idx, out);
    return 0;
}
"#;
    let program = compile_source(SCATTER).expect("scatter compiles (analysis may still reject)");
    let ck = program.kernel("scatter").unwrap();
    gate!(
        "a12.scatter-rejected-by-analysis",
        !ck.is_partitionable(),
        "scatter verdict must reject: {:?}",
        ck.model.verdict
    );
    let kc = check_kernel(&ck.model).expect("check runs");
    gate!(
        "a12.scatter-rejected-by-check",
        kc.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.code == codes::INEXACT_WRITE),
        "mekong-check must flag the inexact write: {:?}",
        kc.diagnostics
    );
    // And the runtime launch gate refuses it on a multi-device machine.
    let n = 64usize;
    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(2), true));
    let idx = rt.malloc(n * 8, 8).unwrap();
    let out = rt.malloc(n * 4, 4).unwrap();
    let idx_h: Vec<u8> = (0..n as i64).flat_map(|v| v.to_le_bytes()).collect();
    rt.memcpy_h2d(idx, &idx_h).unwrap();
    let res = rt.launch(
        ck,
        Dim3::new1(n as u32 / 8),
        Dim3::new1(8),
        &[
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Buf(idx),
            LaunchArg::Buf(out),
        ],
    );
    gate!(
        "a12.scatter-rejected-at-launch",
        res.is_err(),
        "launch gate must refuse the inexact write"
    );
    Ok(true)
}

pub fn run(args: &BenchArgs) -> GateResult {
    let (hist_nbins, spmv_n, iters) = args.pick((16_384, 65_536, 10), (2_048, 8_192, 3));

    println!("Ablation A12: interval abstract interpretation (bounded may-read boxes)");
    println!();
    println!(
        "{:>10} {:>6} {:>16} {:>16} {:>10}",
        "workload", "gpus", "fetch [B]", "over-fetch [B]", "over%"
    );

    let histogram = section("histogram", &Histogram, hist_nbins, iters)?;
    let spmv = section("spmv", &Spmv, spmv_n, iters)?;

    let inexact_write_rejected = check_scatter_rejected()?;
    println!();
    println!(
        "irregular workloads partition byte-identically with bounded over-fetch; \
         annotated *writes* remain rejected at analysis, check, and launch."
    );

    let report = Report {
        histogram,
        spmv,
        inexact_write_rejected,
    };
    write_report(args, "interval", &report)
}
