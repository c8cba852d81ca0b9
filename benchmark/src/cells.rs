//! A *cell* is one (kernel program × machine × config × size) entry of a
//! workload's fixed list, plus the helpers every launch workload shares:
//! traced calls into `MgpuRuntime`, the functional twin that checks a
//! perf-mode cell's outputs, and the exact-count tally.
//!
//! An application run is always `start` (malloc, upload) → `iterate` ×
//! n → `finish` (synchronize, download); with a payload it moves real
//! bytes, without one it uses the perf-mode `_sim` copies.

use crate::apps::{App, Instance, Payload, Rng};
use crate::trace::{Kind, Tracer};
use mekong_core::CompiledProgram;
use mekong_gpusim::{Backend, CpuBackend, Machine, MachineSpec, OpCounters};
use mekong_runtime::{CompiledKernel, MgpuRuntime, RuntimeConfig, RuntimeError};

/// What every set-up, round and helper works against: the span recorder
/// (off outside traced rounds) and the operation count.
pub struct Ctx {
    pub tr: Tracer,
    pub ops: Ops,
}

impl Ctx {
    pub fn new() -> Ctx {
        Ctx {
            tr: Tracer::new(),
            ops: Ops::default(),
        }
    }
}

/// The machines the workloads run on.
#[derive(Debug, Clone, Copy)]
pub enum Mach {
    /// `MachineSpec::kepler_system(n)`.
    Kepler(usize),
    /// `MachineSpec::hybrid_system(gpus, cpus)`.
    Hybrid(usize, usize),
    /// `CpuBackend::system(sockets, _)`.
    Cpu(usize),
}

impl Mach {
    pub fn backend(self, functional: bool) -> Box<dyn Backend> {
        match self {
            Mach::Kepler(n) => Box::new(Machine::new(MachineSpec::kepler_system(n), functional)),
            Mach::Hybrid(g, c) => {
                Box::new(Machine::new(MachineSpec::hybrid_system(g, c), functional))
            }
            Mach::Cpu(n) => Box::new(CpuBackend::system(n, functional)),
        }
    }

    pub fn n_devices(self) -> usize {
        match self {
            Mach::Kepler(n) | Mach::Cpu(n) => n,
            Mach::Hybrid(g, c) => g + c,
        }
    }

    pub fn label(self) -> String {
        match self {
            Mach::Kepler(n) => format!("gpu:{n}"),
            Mach::Hybrid(g, c) => format!("gpu:{g}+cpu:{c}"),
            Mach::Cpu(n) => format!("cpu:{n}"),
        }
    }
}

/// One entry of a workload's cell list.
pub struct Cell {
    pub app: App,
    pub mach: Mach,
    pub cfg: RuntimeConfig,
    /// Iterations of the application per round (or per batch).
    pub iters: usize,
}

impl Cell {
    pub fn new(app: App, mach: Mach, cfg: RuntimeConfig, iters: usize) -> Cell {
        Cell {
            app,
            mach,
            cfg,
            iters,
        }
    }

    pub fn label(&self) -> String {
        format!(
            "{} n={} @{}",
            self.app.prog.name(),
            self.app.n,
            self.mach.label()
        )
    }

    /// A fresh runtime on this cell's machine under its configuration.
    pub fn runtime(&self, functional: bool) -> MgpuRuntime {
        let mut rt = MgpuRuntime::from_boxed(self.mach.backend(functional));
        rt.set_config(self.cfg);
        rt
    }
}

/// Attempted and failed operations of the whole run. An operation is one
/// call the workload makes into the system (a compile, a check, a launch,
/// a copy) or one verification of what came back (an output against its
/// reference, a counter invariant, a verdict against the expected file).
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report on stderr.
    pub failures: Vec<String>,
}

impl Ops {
    /// Record one operation; `what` is only rendered on failure.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Record a fallible call; returns its value if it succeeded.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        r: Result<T, E>,
        what: impl FnOnce() -> String,
    ) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.record(false, || format!("{}: {e}", what()));
                None
            }
        }
    }
}

/// `MgpuRuntime::launch` of step `step` under a span, classified after it
/// returns by which plan counter advanced: a hit, a miss, or — when this
/// runtime had not launched the step before — a first launch.
pub fn launch(
    rt: &mut MgpuRuntime,
    ck: &CompiledKernel,
    app: &App,
    inst: &Instance,
    step: usize,
    first: &mut bool,
    tr: &mut Tracer,
) -> Result<(), RuntimeError> {
    if !tr.on {
        *first = false;
        return rt.launch(ck, app.grid(), app.block(), inst.args(step));
    }
    let hits_before = rt.machine().counters().plan_hits;
    tr.begin(Kind::LaunchMiss);
    let r = rt.launch(ck, app.grid(), app.block(), inst.args(step));
    tr.end_with(|_| {
        if rt.machine().counters().plan_hits > hits_before {
            Kind::LaunchHit
        } else if *first {
            Kind::LaunchFirst
        } else {
            Kind::LaunchMiss
        }
    });
    *first = false;
    r
}

/// One iteration of the application: every step's launch, then the
/// ping-pong exchange. Each launch is one operation.
pub fn iterate(
    rt: &mut MgpuRuntime,
    kernels: &[&CompiledKernel],
    app: &App,
    inst: &mut Instance,
    first: &mut [bool],
    ctx: &mut Ctx,
) {
    for (s, ck) in kernels.iter().enumerate() {
        let r = launch(rt, ck, app, inst, s, &mut first[s], &mut ctx.tr);
        ctx.ops
            .call(r, || format!("launch {}", ck.model.kernel_name));
    }
    inst.advance();
}

/// `malloc` every buffer and upload the inputs — the payload's bytes, or
/// the perf-mode `_sim` upload when there is none. `None` (with the
/// failure recorded) if allocation fails.
pub fn start(
    rt: &mut MgpuRuntime,
    app: &App,
    payload: Option<&Payload>,
    ctx: &mut Ctx,
) -> Option<Instance> {
    ctx.tr.begin(Kind::Malloc);
    let inst = app.malloc(rt);
    ctx.tr.end();
    let inst = ctx.ops.call(inst, || "malloc".into())?;
    for slot in app.uploads() {
        ctx.tr.begin(Kind::H2d);
        let r = match payload {
            Some(p) => rt.memcpy_h2d(
                inst.slot(slot),
                p.uploads[slot].as_ref().expect("uploaded slots have bytes"),
            ),
            None => rt.memcpy_h2d_sim(inst.slot(slot)),
        };
        ctx.tr.end();
        ctx.ops.call(r, || "memcpy_h2d".into());
    }
    Some(inst)
}

/// Synchronize and download the result — into `out`, or the perf-mode
/// `_sim` download when there is no host buffer.
pub fn finish(
    rt: &mut MgpuRuntime,
    app: &App,
    inst: &Instance,
    out: Option<&mut [u8]>,
    ctx: &mut Ctx,
) {
    ctx.tr.begin(Kind::Sync);
    rt.synchronize();
    ctx.tr.end();
    ctx.tr.begin(Kind::D2h);
    let result = inst.slot(app.result_slot());
    let r = match out {
        Some(out) => rt.memcpy_d2h(result, out),
        None => rt.memcpy_d2h_sim(result),
    };
    ctx.tr.end();
    ctx.ops.call(r, || "memcpy_d2h".into());
}

/// Run `app` functionally for `iters` iterations with real payloads and
/// return the result buffer's bytes.
pub fn run_functional(
    rt: &mut MgpuRuntime,
    program: &CompiledProgram,
    app: &App,
    payload: &Payload,
    iters: usize,
    ctx: &mut Ctx,
) -> Vec<u8> {
    let kernels = app.kernels(program);
    let mut out = vec![0u8; app.buf_bytes(app.result_slot())];
    if let Some(mut inst) = start(rt, app, Some(payload), ctx) {
        let mut first = vec![true; kernels.len()];
        for _ in 0..iters {
            iterate(rt, &kernels, app, &mut inst, &mut first, ctx);
        }
        finish(rt, app, &inst, Some(&mut out), ctx);
    }
    out
}

/// Fresh per-kernel artifacts of an application through the pass-2 call
/// `CompiledKernel::from_model`: new enumerators with empty range memos
/// (clones of `program`'s kernels would share its memos; a whole
/// `compile_source` would mostly re-read model JSON).
pub fn fresh_kernels(
    app: &App,
    program: &CompiledProgram,
) -> Result<Vec<CompiledKernel>, RuntimeError> {
    app.kernels(program)
        .iter()
        .map(|ck| CompiledKernel::from_model(&ck.original, ck.model.clone()))
        .collect()
}

/// Compile a cell's program and check the cell's *functional twin*: the
/// same program on the same machine spec and configuration, at the
/// workload's verify size with seeded payloads, compared with the CPU
/// reference. Perf-mode runs move no bytes, so this is what ties their
/// timing to a correct execution. Two operations: the compile, the twin.
pub fn compile_checked(cell: &Cell, rng: &mut Rng, ctx: &mut Ctx) -> Option<CompiledProgram> {
    const TWIN_ITERS: usize = 2;
    let program = ctx
        .ops
        .call(mekong_core::compile_source(cell.app.prog.source()), || {
            format!("compile {}", cell.app.prog.name())
        })?;
    let app = App::new(cell.app.prog, verify_size(&cell.app));
    let payload = app.payload(rng, TWIN_ITERS);
    let mut rt = cell.runtime(true);
    let out = run_functional(&mut rt, &program, &app, &payload, TWIN_ITERS, ctx);
    ctx.ops.record(payload.matches(&out), || {
        format!("functional twin of {}", cell.label())
    });
    Some(program)
}

/// The scaled-down size of a workload's functional verification (the
/// sizes `mekong-workloads` verifies at, nbody trimmed to keep set-up
/// short).
fn verify_size(app: &App) -> usize {
    use crate::apps::Prog::*;
    match app.prog {
        Hotspot => 96,
        NBody => 128,
        Matmul => 64,
        Blur => 64,
        Histogram => 512,
        Spmv => 1024,
    }
}

/// Exact quantities of a window of execution: simulated seconds and the
/// operation counters (as `f64`, exact below 2^53, so that per-round
/// averages over the census window stay in one type). Everything here
/// must repeat bit for bit between runs of one commit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub sim_s: f64,
    pub sim_app_s: f64,
    pub sim_transfer_s: f64,
    pub sim_pattern_s: f64,
    pub launches: f64,
    pub h2d_copies: f64,
    pub d2h_copies: f64,
    pub d2d_copies: f64,
    pub h2d_bytes: f64,
    pub d2h_bytes: f64,
    pub d2d_bytes: f64,
    pub plan_hits: f64,
    pub plan_misses: f64,
    pub plan_evictions: f64,
    pub replica_hits: f64,
    pub refetch_bytes_saved: f64,
    pub mayread_overfetch_bytes: f64,
}

impl Tally {
    /// The cumulative state of one runtime.
    pub fn of(rt: &MgpuRuntime) -> Tally {
        let c: OpCounters = rt.machine().counters();
        let b = rt.machine().breakdown();
        Tally {
            sim_s: rt.elapsed(),
            sim_app_s: b.app,
            sim_transfer_s: b.transfer,
            sim_pattern_s: b.pattern,
            launches: c.launches as f64,
            h2d_copies: c.h2d_copies as f64,
            d2h_copies: c.d2h_copies as f64,
            d2d_copies: c.d2d_copies as f64,
            h2d_bytes: c.h2d_bytes as f64,
            d2h_bytes: c.d2h_bytes as f64,
            d2d_bytes: c.d2d_bytes as f64,
            plan_hits: c.plan_hits as f64,
            plan_misses: c.plan_misses as f64,
            plan_evictions: c.plan_evictions as f64,
            replica_hits: c.replica_hits as f64,
            refetch_bytes_saved: c.refetch_bytes_saved as f64,
            mayread_overfetch_bytes: c.mayread_overfetch_bytes as f64,
        }
    }

    fn zip(self, o: Tally, f: impl Fn(f64, f64) -> f64) -> Tally {
        Tally {
            sim_s: f(self.sim_s, o.sim_s),
            sim_app_s: f(self.sim_app_s, o.sim_app_s),
            sim_transfer_s: f(self.sim_transfer_s, o.sim_transfer_s),
            sim_pattern_s: f(self.sim_pattern_s, o.sim_pattern_s),
            launches: f(self.launches, o.launches),
            h2d_copies: f(self.h2d_copies, o.h2d_copies),
            d2h_copies: f(self.d2h_copies, o.d2h_copies),
            d2d_copies: f(self.d2d_copies, o.d2d_copies),
            h2d_bytes: f(self.h2d_bytes, o.h2d_bytes),
            d2h_bytes: f(self.d2h_bytes, o.d2h_bytes),
            d2d_bytes: f(self.d2d_bytes, o.d2d_bytes),
            plan_hits: f(self.plan_hits, o.plan_hits),
            plan_misses: f(self.plan_misses, o.plan_misses),
            plan_evictions: f(self.plan_evictions, o.plan_evictions),
            replica_hits: f(self.replica_hits, o.replica_hits),
            refetch_bytes_saved: f(self.refetch_bytes_saved, o.refetch_bytes_saved),
            mayread_overfetch_bytes: f(self.mayread_overfetch_bytes, o.mayread_overfetch_bytes),
        }
    }

    pub fn plus(self, o: Tally) -> Tally {
        self.zip(o, |a, b| a + b)
    }

    pub fn minus(self, o: Tally) -> Tally {
        self.zip(o, |a, b| a - b)
    }

    /// The average over `rounds` rounds.
    pub fn per_round(self, rounds: usize) -> Tally {
        self.zip(self, |a, _| a / rounds as f64)
    }

    /// Simulated operations: launches plus copies of every direction.
    pub fn sim_ops(&self) -> f64 {
        self.launches + self.h2d_copies + self.d2h_copies + self.d2d_copies
    }
}

/// A perf-mode cell whose runtime lives across rounds (`replay-steady`,
/// `plan-churn`): compiled, checked by its functional twin, uploaded and
/// warmed in set-up.
pub struct Live {
    pub cell: Cell,
    pub program: CompiledProgram,
    pub rt: MgpuRuntime,
    pub inst: Instance,
    /// Per step: has this runtime not launched it yet?
    pub first: Vec<bool>,
    /// Simulated seconds of `cell.iters` iterations on the single-GPU
    /// reference.
    pub ref_sim_s: f64,
}

impl Live {
    /// Compile, check the twin, upload and run `warmup` iterations.
    /// `None` (with the failure recorded) if the cell cannot be set up.
    pub fn warm(cell: Cell, warmup: usize, rng: &mut Rng, ctx: &mut Ctx) -> Option<Live> {
        let program = compile_checked(&cell, rng, ctx)?;
        let ref_sim_s = cell.app.reference_sim_s(&program, cell.iters);
        let mut rt = cell.runtime(false);
        let mut inst = start(&mut rt, &cell.app, None, ctx)?;
        let kernels = cell.app.kernels(&program);
        let mut first = vec![true; kernels.len()];
        for _ in 0..warmup {
            iterate(&mut rt, &kernels, &cell.app, &mut inst, &mut first, ctx);
        }
        rt.synchronize();
        Some(Live {
            cell,
            program,
            rt,
            inst,
            first,
            ref_sim_s,
        })
    }
}

/// How far the tuner's byte predictions were from what it then measured,
/// summed over decisions with a completed measurement window. Reported
/// as total absolute error over total measured bytes: a per-decision
/// ratio explodes on decisions that measure a handful of bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct TunerError {
    pub abs_err_bytes: u64,
    pub measured_bytes: u64,
    pub switches: u64,
}

impl TunerError {
    pub fn of(rt: &MgpuRuntime) -> TunerError {
        let mut e = TunerError::default();
        for r in rt.tuner_report() {
            e.switches += r.switches as u64;
            if let Some(measured) = r.measured_bytes {
                e.abs_err_bytes += r.predicted_bytes.abs_diff(measured);
                e.measured_bytes += measured;
            }
        }
        e
    }

    pub fn plus(self, o: TunerError) -> TunerError {
        TunerError {
            abs_err_bytes: self.abs_err_bytes + o.abs_err_bytes,
            measured_bytes: self.measured_bytes + o.measured_bytes,
            switches: self.switches + o.switches,
        }
    }

    pub fn pct(&self) -> f64 {
        100.0 * self.abs_err_bytes as f64 / self.measured_bytes.max(1) as f64
    }
}
