//! Ablation A8: replica-aware coherence.
//!
//! `memcpy_h2d` distributes host data linearly across devices, and the
//! paper's single-owner tracker keeps those bytes owned by wherever the
//! upload put them: every partition whose read set crosses an upload
//! slice (or a halo) re-fetches the same remote bytes on *every* launch,
//! because reads never change ownership. Replica-aware coherence
//! (validity sets, `RuntimeConfig::replica_coherence`) records read-sync
//! destinations as valid holders, so a host-uploaded read-only array is
//! fetched once and then served locally forever.
//!
//! **Part A** runs the ping-pong Hotspot stencil on 4 functional GPUs
//! and samples the per-launch D2D bytes flowing *into* the read-only
//! `power` array: with replicas the refetch must drop to zero after the
//! first launch, without them it recurs identically every launch. Both
//! runs must produce byte-identical temperature output.
//!
//! **Part B** repeats the experiment with a non-ping-pong Blur pipeline
//! (`img → tmp → out`, `img` never written) on 3 GPUs, where the 3-way
//! linear upload of `img` misaligns with the block-granular row
//! partitions — steady-state refetch again must vanish with replicas.
//!
//! Both parts run with plan capture on, and the plan-cache hit rate with
//! replicas enabled must stay at the A6 (`ablation_replay`) level:
//! holder sets are part of the tracker signature, so ping-pong launches
//! still reach a periodic fixed point.
//!
//! Emits `BENCH_replica.json`.

use crate::harness::{capturing, write_report, BenchArgs, GateResult};
use mekong_core::prelude::*;
use mekong_workloads::app::{App, Arg, Buffer};
use mekong_workloads::{Benchmark, Blur, Hotspot, RunOutcome};
use serde::Serialize;

/// One functional run with per-launch transfer sampling on one buffer.
struct ReplicaRun {
    output: Vec<u8>,
    /// D2D bytes copied into the sampled read-only buffer, per iteration.
    refetch_per_iter: Vec<u64>,
    outcome: RunOutcome,
}

/// `app` on `gpus` functional GPUs with replica coherence on or off,
/// sampling the refetch into buffer `sampled` after every iteration.
fn run_sampled(app: App, gpus: usize, replica: bool, sampled: usize, iters: usize) -> ReplicaRun {
    let cfg = RuntimeConfig {
        replica_coherence: replica,
        ..capturing(RuntimeConfig::beta())
    };
    let machine = Machine::new(MachineSpec::kepler_system(gpus), true);
    let mut p = app.prepare(machine, cfg);
    let sampled = p.buffer(sampled);
    let mut refetch = Vec::with_capacity(iters);
    let mut last = p.rt.d2d_bytes_into(sampled);
    for _ in 0..iters {
        p.step();
        let now = p.rt.d2d_bytes_into(sampled);
        refetch.push(now - last);
        last = now;
    }
    ReplicaRun {
        output: p.read_outputs().concat(),
        refetch_per_iter: refetch,
        outcome: RunOutcome::from_runtime(&p.rt),
    }
}

/// Blur as a non-ping-pong pipeline `img → tmp → out`: `img` is
/// uploaded once, read by every row pass, never written.
fn blur_pipeline(n: usize) -> App {
    let mut app = Blur.describe(n);
    app.buffers.push(Buffer::f32_output(n * n));
    app.launches[1].args[2] = Arg::Buf(2);
    app.outputs = vec![2];
    app
}

#[derive(Serialize)]
struct SectionReport {
    n: usize,
    iters: usize,
    gpus: usize,
    first_launch_refetch_on: u64,
    steady_refetch_on: u64,
    steady_refetch_off: u64,
    replica_hits: u64,
    refetch_bytes_saved: u64,
    replica_invalidations: u64,
    hit_rate_on: f64,
    hit_rate_off: f64,
}

#[derive(Serialize)]
struct Report {
    hotspot: SectionReport,
    blur: SectionReport,
}

/// Run one workload with replicas on and off, check the A8 claims and
/// build its report section.
fn section(
    name: &'static str,
    app: fn(usize) -> App,
    gpus: usize,
    n: usize,
    sampled: usize,
    iters: usize,
) -> GateResult<SectionReport> {
    let on = run_sampled(app(n), gpus, true, sampled, iters);
    let off = run_sampled(app(n), gpus, false, sampled, iters);
    gate!(
        "a8.outputs-identical",
        on.output == off.output,
        "{name}: replica coherence must not change results"
    );
    gate!(
        "a8.first-launch-fetches",
        on.refetch_per_iter[0] > 0,
        "{name}: the first launch must fetch the misaligned upload slices"
    );
    let steady_on: u64 = on.refetch_per_iter[1..].iter().sum();
    gate_eq!(
        "a8.steady-refetch-zero",
        steady_on,
        0,
        "{name}: replicas must eliminate steady-state refetch, got {:?}",
        &on.refetch_per_iter[1..]
    );
    let off0 = off.refetch_per_iter[0];
    gate!(
        "a8.single-owner-refetches",
        off0 > 0 && off.refetch_per_iter.iter().all(|&d| d == off0),
        "{name}: single-owner refetch must recur identically every launch: {:?}",
        off.refetch_per_iter
    );
    let on_first = on.refetch_per_iter[0];
    let (on, off) = (on.outcome, off.outcome);
    gate!(
        "a8.replica-hits-counted",
        on.replica_hits > 0 && on.refetch_bytes_saved > 0,
        "{name}: replica hits must be counted"
    );
    gate_eq!(
        "a8.off-never-hits",
        (off.replica_hits, off.refetch_bytes_saved),
        (0, 0),
        "{name}: off cannot hit"
    );
    let (hr_on, hr_off) = (on.plan_hit_rate(), off.plan_hit_rate());
    // Holder sets are hashed into the tracker signature, so the launch
    // states must still reach a periodic fixed point: only the warm-up
    // launches miss, independent of the iteration count. At full scale
    // that is the A6 ≥ 90% hit-rate bar; `--quick` truncates the run so
    // the constant warm-up is checked directly.
    gate!(
        "a8.plan-cache-converges",
        on.counters.plan_misses <= 6,
        "{name}: replicas must not break plan-cache convergence: {} misses",
        on.counters.plan_misses
    );
    gate!(
        "a8.hit-rate-at-a6-level",
        on.counters.plan_hits + on.counters.plan_misses < 50 || hr_on >= 0.90,
        "{name}: hit rate with replicas must stay at the A6 level: {hr_on}"
    );
    println!(
        "{:>10} {:>6} {:>12} {:>14} {:>14} {:>10} {:>9.1}% {:>9.1}%",
        name,
        gpus,
        on_first,
        steady_on / (iters as u64 - 1).max(1),
        off0,
        on.replica_hits,
        hr_on * 100.0,
        hr_off * 100.0,
    );
    Ok(SectionReport {
        n,
        iters,
        gpus,
        first_launch_refetch_on: on_first,
        steady_refetch_on: steady_on,
        steady_refetch_off: off0,
        replica_hits: on.replica_hits,
        refetch_bytes_saved: on.refetch_bytes_saved,
        replica_invalidations: on.replica_invalidations,
        hit_rate_on: hr_on,
        hit_rate_off: hr_off,
    })
}

pub fn run(args: &BenchArgs) -> GateResult {
    let (hs_iters, bl_iters) = args.pick((100, 30), (20, 5));
    // Both side lengths make the element-linear upload slices misalign
    // with the block-granular row partitions (4- and 3-way): without the
    // misalignment the pointwise `power`/`img` reads would be partition-
    // local from the start and there would be nothing to re-fetch.
    let (hs_n, bl_n) = (260usize, 200usize);

    println!("Ablation A8: replica-aware coherence (per-launch refetch into the read-only array)");
    println!();
    println!(
        "{:>10} {:>6} {:>12} {:>14} {:>14} {:>10} {:>10} {:>10}",
        "workload",
        "gpus",
        "launch1 [B]",
        "steady on [B]",
        "steady off [B]",
        "hits",
        "hit% on",
        "hit% off"
    );

    // Sampled: hotspot's `power` (buffer 2), the pipeline's `img` (0).
    let hotspot = section("hotspot", |n| Hotspot.describe(n), 4, hs_n, 2, hs_iters)?;
    let blur = section("blur", blur_pipeline, 3, bl_n, 0, bl_iters)?;

    println!();
    println!(
        "host-uploaded read-only arrays are fetched once and then served from replicas; \
         identical outputs on both workloads."
    );

    write_report(args, "replica", &Report { hotspot, blur })
}
