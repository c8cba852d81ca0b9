//! The five workloads. Each is built by a `setup` function (everything
//! before the first timed round: inputs from the seed, compiles,
//! warm-up, CPU references, functional twins) and then runs identical
//! rounds.

pub mod cold_launch;
pub mod compile_check;
pub mod functional_exec;
pub mod plan_churn;
pub mod replay_steady;

use crate::cells::{Ctx, Tally};
use crate::metrics::Layers;
use crate::trace::Tracer;

pub trait Workload {
    /// One round of the fixed cell list; returns the timed nanoseconds
    /// (untimed preparation and checking between timed sections is not
    /// part of the round's time).
    fn round(&mut self, ctx: &mut Ctx) -> u64;

    /// Simulated time and operation counters accumulated by all rounds
    /// so far (all zero for a workload that simulates nothing).
    fn cumulative(&self) -> Tally;

    /// Called once, when the census window (the first rounds, whose
    /// simulated time and counters make up the exact metrics) closes:
    /// record any exact quantity read from live state, which later rounds
    /// would move.
    fn census(&mut self) {}

    /// Traced run only, after the rounds: time the layer calls that nest
    /// inside `compile_source` and `launch` on this workload's cells,
    /// and read the layer counts.
    fn probe(&mut self, tr: &Tracer, layers: &mut Layers);
}

pub const NAMES: [&str; 5] = [
    "compile-check",
    "cold-launch",
    "replay-steady",
    "plan-churn",
    "functional-exec",
];

/// Build workload `name` from `seed`. Checks made during set-up are
/// recorded in `ctx.ops`.
pub fn setup(name: &str, seed: u64, ctx: &mut Ctx) -> Option<Box<dyn Workload>> {
    Some(match name {
        "compile-check" => Box::new(compile_check::setup(seed, ctx)),
        "cold-launch" => Box::new(cold_launch::setup(seed, ctx)),
        "replay-steady" => Box::new(replay_steady::setup(seed, ctx)),
        "plan-churn" => Box::new(plan_churn::setup(seed, ctx)),
        "functional-exec" => Box::new(functional_exec::setup(seed, ctx)),
        _ => return None,
    })
}
