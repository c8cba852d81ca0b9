//! `plan-churn`: the launch loop used the other way. A float scalar
//! argument changes on every launch (a time-stepping `dt`), so every
//! launch misses the plan cache, captures, inserts and — past
//! `plan_cache_capacity` 1024 — evicts; every sixteenth launch downloads
//! the result and re-uploads the read-only input (pipeline flush, tracker
//! invalidate and re-validate). Writes beside reads for the plan cache
//! and the trackers: a change that makes hits cheaper by making capture,
//! keys or plans heavier is caught here.

use super::Workload;
use crate::apps::{App, Prog, Rng};
use crate::cells::{iterate, Cell, Ctx, Live, Mach, Tally, TunerError};
use crate::metrics::Layers;
use crate::probes;
use crate::trace::{Kind, Tracer};
use mekong_runtime::RuntimeConfig;
use std::time::Instant;

const WARMUP: usize = 8;
/// Every this many launches: D2H of the result, H2D of the input.
const COPY_EVERY: usize = 16;

fn cells() -> Vec<Cell> {
    let capture = RuntimeConfig {
        capture_plans: true,
        ..RuntimeConfig::alpha()
    };
    let cell = |n, mach, cfg, iters| Cell::new(App::new(Prog::Hotspot, n), mach, cfg, iters);
    vec![
        cell(2048, Mach::Kepler(4), capture, 1792),
        cell(2048, Mach::Kepler(16), capture, 896),
        // Under `tuned()` the launch also consults the tuner.
        cell(512, Mach::Kepler(4), RuntimeConfig::tuned(), 144),
    ]
}

pub struct PlanChurn {
    live: Vec<Live>,
    /// Bit pattern of the next `dt`: consecutive f32 values upwards from
    /// a seeded start, so no value ever repeats and no launch can hit.
    next_dt: u32,
    census: Census,
}

/// Exact quantities read from live state when the census closed.
#[derive(Default)]
struct Census {
    tuner: TunerError,
    segments: u64,
    memo_hits: u64,
    memo_misses: u64,
}

pub fn setup(seed: u64, ctx: &mut Ctx) -> PlanChurn {
    let mut rng = Rng::new(seed);
    let live = cells()
        .into_iter()
        .filter_map(|c| Live::warm(c, WARMUP, &mut rng, ctx))
        .collect();
    PlanChurn {
        live,
        next_dt: (mekong_workloads::hotspot::CAP.to_bits() & !0xfff) + 1 + rng.below(1024) as u32,
        census: Census::default(),
    }
}

impl Workload for PlanChurn {
    fn round(&mut self, ctx: &mut Ctx) -> u64 {
        let mut timed_ns = 0u64;
        for l in &mut self.live {
            let app = &l.cell.app;
            let kernels = app.kernels(&l.program);
            let input = app
                .read_only_input()
                .expect("hotspot has a read-only input");
            let before = Tally::of(&l.rt);
            let t = Instant::now();
            ctx.tr.begin(Kind::Timed);
            for i in 0..l.cell.iters {
                app.set_dt(&mut l.inst, f32::from_bits(self.next_dt));
                self.next_dt += 1;
                iterate(&mut l.rt, &kernels, app, &mut l.inst, &mut l.first, ctx);
                if (i + 1) % COPY_EVERY == 0 {
                    ctx.tr.begin(Kind::D2h);
                    let r = l.rt.memcpy_d2h_sim(l.inst.slot(app.result_slot()));
                    ctx.tr.end();
                    ctx.ops.call(r, || "memcpy_d2h_sim".into());
                    ctx.tr.begin(Kind::H2d);
                    let r = l.rt.memcpy_h2d_sim(l.inst.slot(input));
                    ctx.tr.end();
                    ctx.ops.call(r, || "memcpy_h2d_sim".into());
                }
            }
            ctx.tr.begin(Kind::Sync);
            l.rt.synchronize();
            ctx.tr.end();
            ctx.tr.end();
            timed_ns += t.elapsed().as_nanos() as u64;

            // Misses only: no launch of the round may find its plan.
            let d = Tally::of(&l.rt).minus(before);
            let launches = (l.cell.iters * app.steps()) as f64;
            ctx.ops.record(
                d.plan_misses == launches && d.plan_hits == 0.0 && d.launches >= launches,
                || {
                    format!(
                        "{}: {} misses, {} hits over {launches} launches",
                        l.cell.label(),
                        d.plan_misses,
                        d.plan_hits
                    )
                },
            );
        }
        timed_ns
    }

    fn cumulative(&self) -> Tally {
        self.live
            .iter()
            .fold(Tally::default(), |t, l| t.plus(Tally::of(&l.rt)))
    }

    fn census(&mut self) {
        let mut c = Census::default();
        for l in &self.live {
            for ck in &l.program.kernels {
                let (h, m) = ck.range_cache_stats();
                c.memo_hits += h;
                c.memo_misses += m;
            }
            c.tuner = c.tuner.plus(TunerError::of(&l.rt));
            c.segments += l.cell.app.segment_count(&l.rt, &l.inst);
        }
        self.census = c;
    }

    fn probe(&mut self, _tr: &Tracer, layers: &mut Layers) {
        let sites: Vec<probes::Site> = self.live.iter().map(|l| (&l.cell, &l.program)).collect();
        let tuned: Vec<probes::Site> = sites
            .iter()
            .copied()
            .filter(|(c, _)| c.cfg.autotune)
            .collect();
        let rank = probes::tuner_rank(&tuned);
        layers.set("tuner.rank_cold_us", rank.cold_us);
        layers.set("tuner.rank_warm_us", rank.warm_us);
        layers.set("tuner.candidates", rank.candidates as f64);
        let (cold, warm) = probes::enum_ranges(&sites);
        layers.set("enumgen.range_cold_us", cold);
        layers.set("enumgen.range_warm_us", warm);
        let c = &self.census;
        layers.set(
            "enumgen.memo_hit_ratio",
            c.memo_hits as f64 / (c.memo_hits + c.memo_misses).max(1) as f64,
        );
        layers.set("partition.grid_us", probes::partition_grid_us(&sites));
        layers.set("tuner.predict_err_pct", c.tuner.pct());
        layers.set("tuner.switches", c.tuner.switches as f64);
        layers.set("runtime.tracker_segments", c.segments as f64);
        let (query, update) = probes::tracker(c.segments as usize / self.live.len().max(1));
        layers.set("runtime.tracker_query_us", query);
        layers.set("runtime.tracker_update_us", update);
        layers.set(
            "gpusim.ref_sim_s",
            self.live.iter().map(|l| l.ref_sim_s).sum(),
        );
    }
}
