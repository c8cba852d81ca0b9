//! `functional-exec`: functional mode with seeded real payloads; every
//! output is compared with the workload's CPU reference every round. The
//! tree-walking interpreter in `crates/kernel` does nearly all the work,
//! with real D2D/H2D bytes moving underneath; regular (hotspot),
//! loop-heavy (matmul, nbody) and irregular (spmv, histogram) kernels use
//! it differently, so an interpreter change that helps one shape and
//! costs another shows.

use super::Workload;
use crate::apps::{App, Payload, Prog, Rng};
use crate::cells::{run_functional, Cell, Ctx, Mach, Tally};
use crate::metrics::{time_us, Layers};
use crate::probes;
use crate::trace::{Kind, Tracer};
use mekong_core::CompiledProgram;
use mekong_runtime::RuntimeConfig;
use std::time::Instant;

fn cells() -> Vec<Cell> {
    let alpha = RuntimeConfig::alpha();
    let cell = |prog, n, mach, iters| Cell::new(App::new(prog, n), mach, alpha, iters);
    vec![
        cell(Prog::Hotspot, 96, Mach::Kepler(2), 2),
        cell(Prog::Matmul, 48, Mach::Cpu(2), 1),
        cell(Prog::NBody, 96, Mach::Hybrid(1, 1), 2),
        cell(Prog::Spmv, 2048, Mach::Kepler(2), 1),
        cell(Prog::Histogram, 1024, Mach::Kepler(2), 1),
    ]
}

struct Prepared {
    cell: Cell,
    program: CompiledProgram,
    payload: Payload,
    /// Exact tally of the first execution; every later one must equal it.
    first: Option<Tally>,
}

pub struct FunctionalExec {
    cells: Vec<Prepared>,
    cum: Tally,
    seed: u64,
    cpu_reference_us: f64,
    verify_fail: u64,
}

pub fn setup(seed: u64, ctx: &mut Ctx) -> FunctionalExec {
    let mut rng = Rng::new(seed);
    let mut cpu_reference_us = 0.0;
    let cells = cells()
        .into_iter()
        .filter_map(|cell| {
            let program = ctx
                .ops
                .call(mekong_core::compile_source(cell.app.prog.source()), || {
                    format!("compile {}", cell.app.prog.name())
                })?;
            // Input generation is cheap next to the reference; both are
            // set-up, and the sum is reported as the reference's cost.
            let (payload, us) = time_us(|| cell.app.payload(&mut rng, cell.iters));
            cpu_reference_us += us;
            Some(Prepared {
                cell,
                program,
                payload,
                first: None,
            })
        })
        .collect();
    let mut w = FunctionalExec {
        cells,
        cum: Tally::default(),
        seed,
        cpu_reference_us,
        verify_fail: 0,
    };
    // One untimed warm-up round; it also fixes the per-cell tallies every
    // timed round is compared with.
    w.round(ctx);
    w.cum = Tally::default();
    w
}

impl Workload for FunctionalExec {
    fn round(&mut self, ctx: &mut Ctx) -> u64 {
        let mut timed_ns = 0u64;
        for p in &mut self.cells {
            let mut rt = p.cell.runtime(true);
            let t = Instant::now();
            ctx.tr.begin(Kind::Timed);
            let out = run_functional(
                &mut rt,
                &p.program,
                &p.cell.app,
                &p.payload,
                p.cell.iters,
                ctx,
            );
            ctx.tr.end();
            timed_ns += t.elapsed().as_nanos() as u64;

            let ok = p.payload.matches(&out);
            self.verify_fail += u64::from(!ok);
            ctx.ops.record(ok, || {
                format!("{}: output differs from the CPU reference", p.cell.label())
            });
            let tally = Tally::of(&rt);
            let same = *p.first.get_or_insert(tally) == tally;
            ctx.ops.record(same, || {
                format!(
                    "{}: simulated time or counters differ between rounds",
                    p.cell.label()
                )
            });
            self.cum = self.cum.plus(tally);
        }
        timed_ns
    }

    fn cumulative(&self) -> Tally {
        self.cum
    }

    fn probe(&mut self, _tr: &Tracer, layers: &mut Layers) {
        let sites: Vec<probes::Site> = self.cells.iter().map(|p| (&p.cell, &p.program)).collect();
        let i = probes::interp(&sites, self.seed);
        layers.set("kernel.interp_ns_per_thread", i.ns_per_thread);
        layers.set("kernel.threads", i.threads as f64);
        layers.set("kernel.flops", i.flops as f64);
        layers.set("kernel.bytes", i.bytes as f64);
        layers.set("workloads.verify_fail", self.verify_fail as f64);
        layers.set("workloads.cpu_reference_us", self.cpu_reference_us);
    }
}
