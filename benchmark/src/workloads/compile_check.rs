//! `compile-check`: every round pushes all six workload sources through
//! `mekong_core::compile_source` and `mekong_check::check_app`. The front
//! half — frontend, analysis (incl. interval), poly, enumgen build,
//! rewriter, check — does all the work; runtime, gpusim and the kernel
//! interpreter do none.

use super::Workload;
use crate::apps::{Prog, Rng};
use crate::cells::{Ctx, Tally};
use crate::metrics::Layers;
use crate::trace::{Kind, Tracer};
use mekong_analysis::{AppModel, ArgModel, ValueRanges, N_MAP_IN};
use mekong_check::{codes, CheckReport, Severity};
use mekong_core::CompiledProgram;
use mekong_enumgen::KernelEnumerators;
use serde::Deserialize;
use std::time::Instant;

#[derive(Deserialize)]
struct ExpectedKernel {
    name: String,
    partitionable: bool,
    split_axis: String,
}

#[derive(Deserialize)]
struct ExpectedProgram {
    name: String,
    kernels: Vec<ExpectedKernel>,
    errors: u64,
    bounded_may_read: bool,
}

#[derive(Deserialize)]
struct Expected {
    programs: Vec<ExpectedProgram>,
}

pub struct CompileCheck {
    /// The six programs in seeded order, each with its expected verdict.
    programs: Vec<(Prog, ExpectedProgram)>,
    /// Exact counts of the last round (identical every round).
    kernels: u64,
    model_json_bytes: u64,
    launch_sites: u64,
    errors: u64,
    warnings: u64,
    /// Per-round sums of `CompileStats`, microseconds.
    pass1_us: Vec<f64>,
    pass2_us: Vec<f64>,
    /// Per traced round: staged-replay total vs `compile_source` total.
    staged_vs_compile: Vec<f64>,
}

pub fn setup(seed: u64, ctx: &mut Ctx) -> CompileCheck {
    let expected: Expected = serde_json::from_str(include_str!("../../expected/verdicts.json"))
        .expect("expected/verdicts.json parses");
    let mut programs: Vec<(Prog, ExpectedProgram)> = expected
        .programs
        .into_iter()
        .map(|e| {
            let prog = *Prog::ALL
                .iter()
                .find(|p| p.name() == e.name)
                .expect("verdicts.json names the six programs");
            (prog, e)
        })
        .collect();
    assert_eq!(programs.len(), Prog::ALL.len());
    // The program order comes from the seed (Fisher–Yates).
    let mut rng = Rng::new(seed);
    for i in (1..programs.len()).rev() {
        programs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut w = CompileCheck {
        programs,
        kernels: 0,
        model_json_bytes: 0,
        launch_sites: 0,
        errors: 0,
        warnings: 0,
        pass1_us: Vec::new(),
        pass2_us: Vec::new(),
        staged_vs_compile: Vec::new(),
    };
    // One untimed warm-up round: first-touch page faults and lazy
    // initialisation belong to set-up, and its verdicts are checked too.
    w.round(ctx);
    w.pass1_us.clear();
    w.pass2_us.clear();
    w
}

/// Does the compiled program and its check report match the expected
/// file?
fn verdict_ok(e: &ExpectedProgram, p: &CompiledProgram, r: &CheckReport) -> bool {
    let kernels_ok = p.kernels.len() == e.kernels.len()
        && e.kernels.iter().all(|ek| {
            p.kernel(&ek.name).is_some_and(|ck| {
                ck.is_partitionable() == ek.partitionable
                    && format!("{:?}", ck.model.partitioning) == ek.split_axis
            })
        });
    let diags = || r.kernels.iter().flat_map(|k| k.diagnostics.iter());
    let may_read = diags().any(|d| d.code == codes::BOUNDED_MAY_READ);
    let errors = diags().filter(|d| d.severity == Severity::Error).count() as u64;
    kernels_ok && errors == e.errors && may_read == e.bounded_may_read
}

impl Workload for CompileCheck {
    fn round(&mut self, ctx: &mut Ctx) -> u64 {
        let mut timed_ns = 0u64;
        let (mut kernels, mut json, mut sites, mut errors, mut warnings) = (0, 0, 0, 0, 0);
        let (mut pass1, mut pass2) = (0.0, 0.0);
        let mut compile_ns = 0u64;
        // The round's six results stay alive until the round ends, like a
        // build that keeps its artifacts: peak memory is then their sum,
        // whatever order the seed put the programs in.
        let mut results = Vec::with_capacity(self.programs.len());
        for (prog, _) in &self.programs {
            let t = Instant::now();
            ctx.tr.begin(Kind::Timed);
            ctx.tr.begin(Kind::CompileSource);
            let compiled = mekong_core::compile_source(prog.source());
            ctx.tr.end();
            compile_ns += t.elapsed().as_nanos() as u64;
            let checked = compiled.as_ref().ok().map(|p| {
                ctx.tr.begin(Kind::CheckApp);
                let r = mekong_check::check_app(&p.model);
                ctx.tr.end();
                r
            });
            ctx.tr.end();
            timed_ns += t.elapsed().as_nanos() as u64;
            results.push((compiled, checked));
        }
        // One operation per program: it compiled, it checked, and the
        // verdict is the hand-written one.
        for ((prog, expected), (compiled, checked)) in self.programs.iter().zip(&results) {
            let ok = match (compiled, checked) {
                (Ok(p), Some(Ok(r))) => {
                    kernels += p.kernels.len() as u64;
                    json += p.model_json.len() as u64;
                    sites += p.launch_sites.len() as u64;
                    errors += r.error_count() as u64;
                    warnings += r.warning_count() as u64;
                    pass1 += p.stats.pass1.as_nanos() as f64 / 1e3;
                    pass2 += p.stats.pass2.as_nanos() as f64 / 1e3;
                    verdict_ok(expected, p, r)
                }
                _ => false,
            };
            ctx.ops
                .record(ok, || format!("{}: compile/check/verdict", prog.name()));
        }
        drop(results);
        (self.kernels, self.model_json_bytes, self.launch_sites) = (kernels, json, sites);
        (self.errors, self.warnings) = (errors, warnings);
        self.pass1_us.push(pass1);
        self.pass2_us.push(pass2);
        if ctx.tr.on {
            ctx.tr.begin(Kind::Staged);
            let staged_ns: u64 = self
                .programs
                .iter()
                .map(|(prog, _)| staged_replay(prog.source(), ctx))
                .sum();
            ctx.tr.end();
            self.staged_vs_compile
                .push(100.0 * (staged_ns as f64 - compile_ns as f64) / compile_ns as f64);
        }
        timed_ns
    }

    fn cumulative(&self) -> Tally {
        Tally::default()
    }

    fn probe(&mut self, tr: &Tracer, l: &mut Layers) {
        l.set("core.compile_us", tr.us_per_round(Kind::CompileSource));
        l.set("core.pass1_us", crate::metrics::median(&self.pass1_us));
        l.set("core.pass2_us", crate::metrics::median(&self.pass2_us));
        l.set("frontend.parse_us", tr.us_per_round(Kind::Parse));
        l.set("frontend.kernels", self.kernels as f64);
        l.set("analysis.analyze_us", tr.us_per_round(Kind::Analyze));
        l.set("analysis.annotate_us", tr.us_per_round(Kind::Annotate));
        l.set(
            "analysis.model_roundtrip_us",
            tr.us_per_round(Kind::ToJson) + tr.us_per_round(Kind::FromJson),
        );
        l.set("analysis.model_json_bytes", self.model_json_bytes as f64);
        l.set("poly.project_us", tr.us_per_round(Kind::Project));
        l.set("poly.injective_us", tr.us_per_round(Kind::Injective));
        l.set("enumgen.build_us", tr.us_per_round(Kind::EnumBuild));
        l.set("partition.kernel_us", tr.us_per_round(Kind::PartKernel));
        l.set("rewriter.rewrite_us", tr.us_per_round(Kind::Rewrite));
        l.set("rewriter.launch_sites", self.launch_sites as f64);
        l.set("check.app_us", tr.us_per_round(Kind::CheckApp));
        l.set("check.safe_axes_us", tr.us_per_round(Kind::SafeAxes));
        l.set("check.errors", self.errors as f64);
        l.set("check.warnings", self.warnings as f64);
        l.set(
            "driver.staged_vs_compile_pct",
            crate::metrics::median(&self.staged_vs_compile),
        );
    }
}

/// Drive the stages of `compile_source` from outside, in pipeline order
/// (baseline parse; pass 1; rewriter; pass 2), each call under its own
/// span — the layers nest inside `compile_source`, so its single span
/// cannot tell them apart. The poly calls at the end time the two
/// operations analysis, check and enumgen lean on, on this program's
/// own write maps. Failures here are not operations: the same source
/// already went through `compile_source` in the timed section. Returns
/// the nanoseconds of the pipeline stages (without the poly calls), to
/// set against `compile_source` itself.
fn staged_replay(src: &str, ctx: &mut Ctx) -> u64 {
    let t = Instant::now();
    let tr = &mut ctx.tr;
    macro_rules! span {
        ($kind:expr, $e:expr) => {{
            tr.begin($kind);
            let v = $e;
            tr.end();
            v
        }};
    }
    // Baseline: what a plain compiler does.
    let Ok(prog) = span!(Kind::Parse, mekong_frontend::parse_program(src)) else {
        return 0;
    };
    for k in &prog.kernels {
        let _ = k.validate();
    }
    // Pass 1: parse, annotations, analysis, model to "disk".
    let Ok(prog) = span!(Kind::Parse, mekong_frontend::parse_program(src)) else {
        return 0;
    };
    let Ok((annotations, ranges)) = span!(
        Kind::Annotate,
        mekong_analysis::scan_annotations(src).and_then(|a| {
            let r = mekong_analysis::value_ranges(&a)?;
            Ok((a, r))
        })
    ) else {
        return 0;
    };
    let empty = ValueRanges::new();
    let mut model = AppModel::default();
    for k in &prog.kernels {
        let Ok(mut km) = span!(
            Kind::Analyze,
            mekong_analysis::analyze_kernel_with(k, ranges.get(&k.name).unwrap_or(&empty))
        ) else {
            return 0;
        };
        if span!(
            Kind::Annotate,
            mekong_analysis::apply_annotations(&mut km, &annotations)
        )
        .is_err()
        {
            return 0;
        }
        model.kernels.push(km);
    }
    let json = span!(Kind::ToJson, model.to_json());
    // Rewriter.
    let Ok(prog) = span!(Kind::Parse, mekong_frontend::parse_program(src)) else {
        return 0;
    };
    let _ = span!(
        Kind::Rewrite,
        mekong_rewriter::rewrite_host(&prog.host_source)
    );
    // Pass 2: parse again, read the model, build the per-kernel artifacts
    // (the three calls of `CompiledKernel::from_model`).
    let Ok(prog) = span!(Kind::Parse, mekong_frontend::parse_program(src)) else {
        return 0;
    };
    let Ok(model) = span!(Kind::FromJson, AppModel::from_json(&json)) else {
        return 0;
    };
    for k in &prog.kernels {
        let Some(km) = model.kernel(&k.name) else {
            return 0;
        };
        let _ = span!(Kind::EnumBuild, KernelEnumerators::build(km));
        let _ = span!(Kind::SafeAxes, mekong_check::safe_axes(km));
        let _ = span!(Kind::PartKernel, mekong_partition::partition_kernel(k));
    }
    let pipeline_ns = t.elapsed().as_nanos() as u64;
    // Poly on the write maps: the image (project out the six block
    // inputs) and thread-level injectivity.
    for km in &model.kernels {
        let context = mekong_enumgen::analysis_space_of(km).param_context();
        for arg in &km.args {
            if let ArgModel::Array { write: Some(w), .. } = arg {
                let _ = span!(
                    Kind::Project,
                    w.map.relation().project_out_dims(0..N_MAP_IN)
                );
                let _ = span!(Kind::Injective, w.map.is_injective(&context));
            }
        }
    }
    pipeline_ns
}
