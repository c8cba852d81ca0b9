//! `replay-steady`: the steady-state hit path. Runtimes are compiled,
//! uploaded and warmed in set-up; every round issues a fixed batch of
//! ping-pong launches per cell — all plan-cache hits, the launch-ahead
//! window full — and one final synchronize. Key hashing, tracker
//! signatures, plan replay, the pipeline DAG and gpusim timing are all
//! that runs; compile, tuner and interpreter are idle. Its `sim_s` is the
//! paper's headline clock.

use super::Workload;
use crate::apps::{App, Prog, Rng};
use crate::cells::{iterate, Cell, Ctx, Live, Mach, Tally, TunerError};
use crate::metrics::Layers;
use crate::probes;
use crate::trace::{Kind, Tracer};
use mekong_runtime::RuntimeConfig;
use std::time::Instant;

/// Iterations before the first timed round: past the ping-pong phases
/// and the tuner's settle launch and first measurement window.
const WARMUP: usize = 32;

/// The issue's cells and sizes (perf mode allocates nothing, so the
/// sizes cost set-up time only); `iters` is the batch per round.
fn cells() -> Vec<Cell> {
    let tuned = RuntimeConfig::tuned();
    let cell = |prog, n, mach, iters| Cell::new(App::new(prog, n), mach, tuned, iters);
    vec![
        cell(Prog::Hotspot, 4096, Mach::Kepler(4), 4800),
        cell(Prog::Hotspot, 2048, Mach::Kepler(16), 1200),
        cell(Prog::Blur, 2048, Mach::Kepler(4), 2),
        cell(Prog::NBody, 65_536, Mach::Hybrid(2, 1), 4800),
        cell(Prog::Hotspot, 2048, Mach::Hybrid(2, 1), 4800),
    ]
}

pub struct ReplaySteady {
    live: Vec<Live>,
    /// Tuner error and tracker segments when the census closed.
    census: (TunerError, u64),
}

pub fn setup(seed: u64, ctx: &mut Ctx) -> ReplaySteady {
    let mut rng = Rng::new(seed);
    ReplaySteady {
        live: cells()
            .into_iter()
            .filter_map(|c| Live::warm(c, WARMUP, &mut rng, ctx))
            .collect(),
        census: (TunerError::default(), 0),
    }
}

impl Workload for ReplaySteady {
    fn round(&mut self, ctx: &mut Ctx) -> u64 {
        let mut timed_ns = 0u64;
        for l in &mut self.live {
            let kernels = l.cell.app.kernels(&l.program);
            let before = Tally::of(&l.rt);
            let t = Instant::now();
            ctx.tr.begin(Kind::Timed);
            for _ in 0..l.cell.iters {
                iterate(
                    &mut l.rt,
                    &kernels,
                    &l.cell.app,
                    &mut l.inst,
                    &mut l.first,
                    ctx,
                );
            }
            ctx.tr.begin(Kind::Sync);
            l.rt.synchronize();
            ctx.tr.end();
            ctx.tr.end();
            timed_ns += t.elapsed().as_nanos() as u64;

            // Hits only: every launch of the batch replays a plan.
            let d = Tally::of(&l.rt).minus(before);
            let launches = (l.cell.iters * l.cell.app.steps()) as f64;
            ctx.ops.record(
                d.plan_hits == launches && d.plan_misses == 0.0 && d.launches >= launches,
                || {
                    format!(
                        "{}: {} hits, {} misses over {launches} launches",
                        l.cell.label(),
                        d.plan_hits,
                        d.plan_misses
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
        self.census = self
            .live
            .iter()
            .fold((TunerError::default(), 0), |(t, s), l| {
                (
                    t.plus(TunerError::of(&l.rt)),
                    s + l.cell.app.segment_count(&l.rt, &l.inst),
                )
            });
    }

    fn probe(&mut self, _tr: &Tracer, layers: &mut Layers) {
        let (tuner, segments) = self.census;
        let regret = self
            .live
            .iter()
            .map(|l| probes::regret_pct((&l.cell, &l.program), WARMUP))
            .fold(0.0, f64::max);
        layers.set("tuner.predict_err_pct", tuner.pct());
        layers.set("tuner.switches", tuner.switches as f64);
        layers.set("tuner.regret_pct", regret);
        layers.set("runtime.tracker_segments", segments as f64);
        let (query, update) = probes::tracker(segments as usize / self.live.len().max(1));
        layers.set("runtime.tracker_query_us", query);
        layers.set("runtime.tracker_update_us", update);
        layers.set(
            "gpusim.ref_sim_s",
            self.live.iter().map(|l| l.ref_sim_s).sum(),
        );
    }
}
