//! The compilation pipeline (paper §3, Figure 2).
//!
//! ```text
//! pass 1:    parse  →  polyhedral analysis  →  application model
//! rewriter:  host code source-to-source transformation
//! pass 2:    partition kernels  →  polyhedral codegen (enumerators)
//!            →  link runtime
//! ```
//!
//! The paper runs gpucc twice and hands the model from the first run to
//! the second through a file, so its second pass repeats the front end —
//! it reports a resulting 1.9×–2.2× compile-time increase. We have no
//! gpucc to re-invoke: pass 2 takes the parsed program and the
//! [`AppModel`] pass 1 just built, in memory. The JSON form of the model
//! ([`CompiledProgram::model_json`]) is still produced, as an *export*:
//! it is what `mekongc` and `mekong-bench dump-models` write and what
//! `mekong-check` reads, not what the compiler reads back.
//! [`CompileStats`] keeps the paper's stage accounting so the harness can
//! set our ratio against theirs.

use crate::{MekongError, Result};
use mekong_analysis::{analyze_kernel_with, AppModel, ValueRanges};
use mekong_frontend::{parse_program, ParseError};
use mekong_rewriter::{rewrite_host, LaunchSite};
use mekong_runtime::CompiledKernel;
use std::time::{Duration, Instant};

/// Wall-clock timings of the pipeline stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileStats {
    /// Pass 1: parse + analysis + model export.
    pub pass1: Duration,
    /// Source-to-source rewriting.
    pub rewrite: Duration,
    /// Pass 2: partitioning + enumerator generation.
    pub pass2: Duration,
    /// A plain single-pass compile of the same source (parse + validate),
    /// the "NVCC-equivalent" baseline for the compile-time ratio.
    pub single_pass_baseline: Duration,
}

impl CompileStats {
    /// Total toolchain time.
    pub fn total(&self) -> Duration {
        self.pass1 + self.rewrite + self.pass2
    }

    /// Compile-time increase over the single-pass baseline (§3 reports
    /// 1.9×–2.2× for the paper's toolchain).
    pub fn overhead_ratio(&self) -> f64 {
        self.total().as_secs_f64() / self.single_pass_baseline.as_secs_f64().max(1e-12)
    }
}

/// A fully compiled multi-GPU program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The application model pass 1 built and pass 2 consumed.
    pub model: AppModel,
    /// The exported form of the model (what the tools write to disk).
    pub model_json: String,
    /// Per-kernel artifacts for the runtime.
    pub kernels: Vec<CompiledKernel>,
    /// The rewritten host source.
    pub rewritten_host: String,
    /// Launch sites the rewriter expanded.
    pub launch_sites: Vec<LaunchSite>,
    /// Stage timings.
    pub stats: CompileStats,
}

impl CompiledProgram {
    /// Find a compiled kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&CompiledKernel> {
        self.kernels.iter().find(|k| k.original.name == name)
    }
}

/// Run the full pipeline on a mini-CUDA translation unit.
pub fn compile_source(src: &str) -> Result<CompiledProgram> {
    let parse_error = |message: String| MekongError::Parse(ParseError { line: 0, message });

    // Baseline: what a plain compiler does (parse + validate).
    let t0 = Instant::now();
    for k in &parse_program(src)?.kernels {
        k.validate().map_err(|error| MekongError::Kernel {
            kernel: k.name.clone(),
            error,
        })?;
    }
    let single_pass_baseline = t0.elapsed();

    // ---- pass 1: front end, analysis, model export ---------------------
    let t1 = Instant::now();
    let prog = parse_program(src)?;
    // Programmer annotations (§11) adjust models the analysis could not
    // establish on its own.
    let annotations = mekong_analysis::scan_annotations(src).map_err(parse_error)?;
    // Value-range annotations feed the interval abstract interpreter
    // *during* analysis (bounding indirect loads); map annotations
    // replace finished access maps afterwards.
    let ranges = mekong_analysis::value_ranges(&annotations).map_err(parse_error)?;
    let empty = ValueRanges::new();
    let mut model = AppModel::default();
    for k in &prog.kernels {
        let mut km = analyze_kernel_with(k, ranges.get(&k.name).unwrap_or(&empty))?;
        mekong_analysis::apply_annotations(&mut km, &annotations)?;
        model.kernels.push(km);
    }
    // "the application model is saved to disk" (§4): serialize.
    let model_json = model.to_json();
    let pass1 = t1.elapsed();

    // ---- rewriter ------------------------------------------------------
    let t2 = Instant::now();
    let rewritten = rewrite_host(&prog.host_source)?;
    let rewrite = t2.elapsed();

    // ---- pass 2: partition, generate enumerators -----------------------
    let t3 = Instant::now();
    // Pass 1 pushed one record per kernel, in program order (including
    // any annotation adjustments).
    let kernels = prog
        .kernels
        .iter()
        .zip(&model.kernels)
        .map(|(k, km)| CompiledKernel::from_model(k, km.clone()))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let pass2 = t3.elapsed();

    Ok(CompiledProgram {
        model,
        model_json,
        kernels,
        rewritten_host: rewritten.source,
        launch_sites: rewritten.launches,
        stats: CompileStats {
            pass1,
            rewrite,
            pass2,
            single_pass_baseline,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
__global__ void vadd(int n, float a[n], float b[n], float c[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    c[i] = a[i] + b[i];
}

int main() {
    float *a, *b, *c;
    cudaMalloc(&a, n * sizeof(float));
    vadd<<<(n + 255) / 256, 256>>>(n, a, b, c);
    cudaDeviceSynchronize();
    return 0;
}
"#;

    #[test]
    fn pipeline_produces_all_artifacts() {
        let p = compile_source(SRC).unwrap();
        assert_eq!(p.kernels.len(), 1);
        assert!(p.kernel("vadd").unwrap().is_partitionable());
        assert!(p.model_json.contains("\"vadd\""));
        assert_eq!(p.model.kernels.len(), 1);
        assert!(p.rewritten_host.contains("mekongMalloc"));
        assert!(p.rewritten_host.contains("mekongLaunchPartition"));
        assert_eq!(p.launch_sites.len(), 1);
    }

    /// The export reads back as exactly the model both passes shared.
    #[test]
    fn model_roundtrips_between_passes() {
        let p = compile_source(SRC).unwrap();
        assert!(p.model.kernel("vadd").unwrap().verdict.is_partitionable());
        assert_eq!(AppModel::from_json(&p.model_json).unwrap(), p.model);
        assert_eq!(p.kernel("vadd").unwrap().model, p.model.kernels[0]);
    }

    #[test]
    fn compile_time_overhead_exceeds_baseline() {
        let p = compile_source(SRC).unwrap();
        // Front end + analysis + codegen: must cost more than one plain
        // parse. (The paper: 1.9×–2.2×; ours is higher since the baseline
        // does no code generation at all.)
        assert!(p.stats.overhead_ratio() > 1.0);
        assert!(p.stats.total() >= p.stats.pass1);
    }

    #[test]
    fn multi_kernel_program() {
        let src = r#"
__global__ void k1(int n, float a[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    a[i] = 1.0f;
}
__global__ void k2(int n, float a[n], float b[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    b[i] = a[i] * 2.0f;
}
"#;
        let p = compile_source(src).unwrap();
        assert_eq!(p.kernels.len(), 2);
        assert!(p.kernel("k1").unwrap().is_partitionable());
        assert!(p.kernel("k2").unwrap().is_partitionable());
    }
}
