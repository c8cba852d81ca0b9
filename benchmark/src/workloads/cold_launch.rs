//! `cold-launch`: the first-launch path. Every cell gets *fresh*
//! `CompiledKernel`s (so the enumerator range memos start empty) and a
//! fresh perf-mode runtime under `RuntimeConfig::tuned()`, both built
//! outside the timed span; the timed span is malloc → upload → the first
//! eight iterations → synchronize → D2H. That path is tuner ranking, cold
//! enumerator evaluation, count-only profiling and plan capture — the
//! replay hit path barely shows.

use super::Workload;
use crate::apps::{App, Prog, Rng};
use crate::cells::{
    compile_checked, finish, fresh_kernels, iterate, start, Cell, Ctx, Mach, Tally, TunerError,
};
use crate::metrics::Layers;
use crate::probes;
use crate::trace::{Kind, Tracer};
use mekong_core::CompiledProgram;
use mekong_runtime::{CompiledKernel, RuntimeConfig};
use std::time::Instant;

/// Iterations of each application in a cold launch.
const ITERS: usize = 8;

/// Problem sizes are the issue's cells scaled down so that a round stays
/// near 100 ms on two cores; the cell list itself is the issue's.
fn cells() -> Vec<Cell> {
    let tuned = RuntimeConfig::tuned();
    let cell = |prog, n, mach, iters| Cell::new(App::new(prog, n), mach, tuned, iters);
    vec![
        cell(Prog::Hotspot, 256, Mach::Kepler(4), ITERS),
        cell(Prog::Hotspot, 256, Mach::Hybrid(2, 1), ITERS),
        cell(Prog::Blur, 128, Mach::Kepler(8), ITERS),
        cell(Prog::Matmul, 512, Mach::Kepler(4), 1),
        cell(Prog::NBody, 1024, Mach::Hybrid(2, 1), ITERS),
        cell(Prog::Spmv, 8192, Mach::Kepler(4), ITERS),
        cell(Prog::Histogram, 65_536, Mach::Kepler(4), ITERS),
    ]
}

pub struct ColdLaunch {
    /// Each cell with its program, compiled once in set-up; rounds
    /// rebuild the per-kernel artifacts from its model.
    cells: Vec<(Cell, CompiledProgram)>,
    cum: Tally,
    /// Per cell, the exact tally of its first cold launch; every later
    /// one must equal it.
    first: Vec<Option<Tally>>,
    ref_sim_s: f64,
    /// From the most recent round (identical every round).
    memo_hits: u64,
    memo_misses: u64,
    tuner: TunerError,
    segments: u64,
}

pub fn setup(seed: u64, ctx: &mut Ctx) -> ColdLaunch {
    let mut rng = Rng::new(seed);
    let mut ref_sim_s = 0.0;
    let mut cells = Vec::new();
    for cell in self::cells() {
        let Some(program) = compile_checked(&cell, &mut rng, ctx) else {
            continue;
        };
        ref_sim_s += cell.app.reference_sim_s(&program, cell.iters);
        cells.push((cell, program));
    }
    let mut w = ColdLaunch {
        first: vec![None; cells.len()],
        cells,
        cum: Tally::default(),
        ref_sim_s,
        memo_hits: 0,
        memo_misses: 0,
        tuner: TunerError::default(),
        segments: 0,
    };
    // One untimed warm-up round; it also fixes the per-cell tallies every
    // timed round is compared with.
    w.round(ctx);
    w.cum = Tally::default();
    w
}

impl Workload for ColdLaunch {
    fn round(&mut self, ctx: &mut Ctx) -> u64 {
        let mut timed_ns = 0u64;
        let (mut hits, mut misses, mut segments) = (0, 0, 0);
        let mut tuner = TunerError::default();
        for (i, (cell, program)) in self.cells.iter().enumerate() {
            let app = &cell.app;
            // Untimed: fresh runtime, fresh kernel artifacts (empty range
            // memos).
            let fresh = fresh_kernels(app, program);
            let Some(fresh) = ctx
                .ops
                .call(fresh, || format!("pass 2 of {}", app.prog.name()))
            else {
                continue;
            };
            let kernels: Vec<&CompiledKernel> = fresh.iter().collect();
            let mut rt = cell.runtime(false);
            let mut first = vec![true; kernels.len()];

            let t = Instant::now();
            ctx.tr.begin(Kind::Timed);
            if let Some(mut inst) = start(&mut rt, app, None, ctx) {
                for _ in 0..cell.iters {
                    iterate(&mut rt, &kernels, app, &mut inst, &mut first, ctx);
                }
                finish(&mut rt, app, &inst, None, ctx);
                segments += app.segment_count(&rt, &inst);
            }
            ctx.tr.end();
            timed_ns += t.elapsed().as_nanos() as u64;

            // Untimed: exact tallies and counter invariants.
            let tally = Tally::of(&rt);
            let launches = (cell.iters * app.steps()) as f64;
            ctx.ops.record(
                tally.plan_hits + tally.plan_misses == launches && tally.launches >= launches,
                || {
                    format!(
                        "{}: {} hits + {} misses over {launches} launches, {} device launches",
                        cell.label(),
                        tally.plan_hits,
                        tally.plan_misses,
                        tally.launches
                    )
                },
            );
            let same = *self.first[i].get_or_insert(tally) == tally;
            ctx.ops.record(same, || {
                format!(
                    "{}: simulated time or counters differ between rounds",
                    cell.label()
                )
            });
            self.cum = self.cum.plus(tally);
            for ck in &kernels {
                let (h, m) = ck.range_cache_stats();
                hits += h;
                misses += m;
            }
            tuner = tuner.plus(TunerError::of(&rt));
        }
        (self.memo_hits, self.memo_misses) = (hits, misses);
        (self.segments, self.tuner) = (segments, tuner);
        timed_ns
    }

    fn cumulative(&self) -> Tally {
        self.cum
    }

    fn probe(&mut self, _tr: &Tracer, l: &mut Layers) {
        let sites: Vec<probes::Site> = self.cells.iter().map(|(c, p)| (c, p)).collect();
        let rank = probes::tuner_rank(&sites);
        l.set("tuner.rank_cold_us", rank.cold_us);
        l.set("tuner.rank_warm_us", rank.warm_us);
        l.set("tuner.candidates", rank.candidates as f64);
        l.set("tuner.predict_err_pct", self.tuner.pct());
        l.set("tuner.switches", self.tuner.switches as f64);
        let (cold, warm) = probes::enum_ranges(&sites);
        l.set("enumgen.range_cold_us", cold);
        l.set("enumgen.range_warm_us", warm);
        l.set(
            "enumgen.memo_hit_ratio",
            self.memo_hits as f64 / (self.memo_hits + self.memo_misses).max(1) as f64,
        );
        l.set("partition.grid_us", probes::partition_grid_us(&sites));
        l.set("kernel.count_only_us", probes::count_only_us(&sites));
        l.set("runtime.tracker_segments", self.segments as f64);
        l.set("gpusim.ref_sim_s", self.ref_sim_s);
    }
}
