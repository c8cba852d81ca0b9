//! Layer probes of the traced run: timings of public functions that run
//! *inside* `MgpuRuntime::launch` (tuner ranking, enumerator evaluation,
//! grid partitioning, count-only profiling, tracker walks, the
//! interpreter), taken on a workload's own cells after its rounds. Spans
//! around `launch` cannot separate them; spans inside the crates are a
//! later issue.
//!
//! Every timing is the median of [`REPEATS`] fresh repetitions; every
//! probe of a cell list returns the sum over the cells.

use crate::apps::{Instance, Rng};
use crate::cells::{fresh_kernels, iterate, start, Cell, Ctx};
use crate::metrics::{median, time_us};
use mekong_core::CompiledProgram;
use mekong_gpusim::sample_kernel_profile;
use mekong_kernel::{execute_grid, ExecMode, ExecStats, VecMem};
use mekong_partition::partition_grid;
use mekong_runtime::{Candidate, CompiledKernel, MgpuRuntime, Owner, Tracker};

const REPEATS: usize = 5;

/// A cell with the program its workload compiled in set-up.
pub type Site<'a> = (&'a Cell, &'a CompiledProgram);

/// Kernels of a site with empty range memos.
fn cold_kernels((cell, program): Site) -> Vec<CompiledKernel> {
    fresh_kernels(&cell.app, program).expect("set-up already built these kernels")
}

/// A fresh runtime with the cell's buffers allocated and uploaded
/// (perf mode), as at the start of a cold launch.
fn uploaded(cell: &Cell) -> (MgpuRuntime, Instance) {
    let mut rt = cell.runtime(false);
    let inst = start(&mut rt, &cell.app, None, &mut Ctx::new()).expect("probe malloc");
    (rt, inst)
}

pub struct TunerRank {
    pub cold_us: f64,
    pub warm_us: f64,
    pub candidates: u64,
}

/// First and second `MgpuRuntime::tuner_candidates` of every step on
/// fresh kernels and a fresh runtime: the first evaluates every
/// enumerator cold and profiles the kernel, the second finds the range
/// memo warm.
pub fn tuner_rank(sites: &[Site]) -> TunerRank {
    let mut out = TunerRank {
        cold_us: 0.0,
        warm_us: 0.0,
        candidates: 0,
    };
    for &(cell, program) in sites {
        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        let mut n = 0;
        for _ in 0..REPEATS {
            let kernels = cold_kernels((cell, program));
            let (rt, inst) = uploaded(cell);
            let (mut c, mut w) = (0.0, 0.0);
            n = 0;
            for (s, ck) in kernels.iter().enumerate() {
                let rank = || {
                    rt.tuner_candidates(ck, cell.app.grid(), cell.app.block(), inst.args(s))
                        .expect("probe ranking")
                };
                let (cands, us) = time_us(rank);
                c += us;
                w += time_us(rank).1;
                n += cands.len() as u64;
            }
            cold.push(c);
            warm.push(w);
        }
        out.cold_us += median(&cold);
        out.warm_us += median(&warm);
        out.candidates += n;
    }
    out
}

/// First vs repeated `AccessEnumerator::for_each_range` of every read
/// and write enumerator over the compiler's even split, on fresh
/// kernels (empty range memo): `(cold_us, warm_us)`.
pub fn enum_ranges(sites: &[Site]) -> (f64, f64) {
    let (mut cold_sum, mut warm_sum) = (0.0, 0.0);
    for &(cell, program) in sites {
        let devices = cell.mach.n_devices();
        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        for _ in 0..REPEATS {
            let kernels = cold_kernels((cell, program));
            let (mut c, mut w) = (0.0, 0.0);
            for (s, ck) in kernels.iter().enumerate() {
                let scalars = cell.app.scalars(s);
                let parts = partition_grid(cell.app.grid(), devices, ck.model.partitioning);
                let walk = || {
                    let mut elems = 0u64;
                    for (_, e) in ck.enums.reads.iter().chain(&ck.enums.writes) {
                        for p in &parts {
                            e.for_each_range(
                                p,
                                cell.app.block(),
                                cell.app.grid(),
                                &ck.enums.scalar_names,
                                &scalars,
                                &mut |r| elems += r.len(),
                            );
                        }
                    }
                    elems
                };
                c += time_us(walk).1;
                w += time_us(walk).1;
            }
            cold.push(c);
            warm.push(w);
        }
        cold_sum += median(&cold);
        warm_sum += median(&warm);
    }
    (cold_sum, warm_sum)
}

/// `partition_grid` for the compiler's even split plus
/// `PartitionStrategy::partitions` of every ranked candidate, per step.
pub fn partition_grid_us(sites: &[Site]) -> f64 {
    let mut sum = 0.0;
    for &(cell, program) in sites {
        let (rt, inst) = uploaded(cell);
        let devices = rt.n_devices();
        for (s, ck) in cell.app.kernels(program).iter().enumerate() {
            let cands: Vec<Candidate> = rt
                .tuner_candidates(ck, cell.app.grid(), cell.app.block(), inst.args(s))
                .expect("probe ranking");
            let samples: Vec<f64> = (0..REPEATS)
                .map(|_| {
                    time_us(|| {
                        let mut parts =
                            partition_grid(cell.app.grid(), devices, ck.model.partitioning).len();
                        for c in &cands {
                            parts += c.strategy.partitions(cell.app.grid()).len();
                        }
                        parts
                    })
                    .1
                })
                .collect();
            sum += median(&samples);
        }
    }
    sum
}

/// `sample_kernel_profile` (count-only interpretation of sampled
/// threads) of every step — the first thing a ranking does.
pub fn count_only_us(sites: &[Site]) -> f64 {
    let mut sum = 0.0;
    for &(cell, program) in sites {
        for (s, ck) in cell.app.kernels(program).iter().enumerate() {
            let kargs = cell.app.kernel_args(s, |_| 0);
            let samples: Vec<f64> = (0..REPEATS)
                .map(|_| {
                    time_us(|| {
                        sample_kernel_profile(
                            &ck.original,
                            &kargs,
                            cell.app.grid(),
                            cell.app.block(),
                        )
                        .expect("probe profile")
                    })
                    .1
                })
                .collect();
            sum += median(&samples);
        }
    }
    sum
}

pub struct Interp {
    pub ns_per_thread: f64,
    pub threads: u64,
    pub flops: u64,
    pub bytes: u64,
}

/// `execute_grid(.., ExecMode::Functional)` of every step of every
/// cell's application on a plain `VecMem` holding the seeded payload:
/// the tree-walking interpreter alone, without shadow memory, rayon or
/// the runtime around it. One iteration is timed per application and
/// counted `cell.iters` times, so `ns_per_thread × threads` is the
/// interpreter's share of one round.
pub fn interp(sites: &[Site], seed: u64) -> Interp {
    let mut total = ExecStats::default();
    let (mut ns, mut threads) = (0.0, 0u64);
    for &(cell, program) in sites {
        let (app, iters) = (&cell.app, cell.iters as u64);
        let payload = app.payload(&mut Rng::new(seed), 0);
        let samples: Vec<f64> = (0..REPEATS)
            .map(|rep| {
                let mut mem = VecMem::new();
                let handles: Vec<usize> = payload
                    .uploads
                    .iter()
                    .enumerate()
                    .map(|(slot, up)| {
                        let h = mem.alloc(app.buf_bytes(slot));
                        if let Some(bytes) = up {
                            mem.bytes_mut(h).copy_from_slice(bytes);
                        }
                        h
                    })
                    .collect();
                let mut us = 0.0;
                for (s, ck) in app.kernels(program).iter().enumerate() {
                    let kargs = app.kernel_args(s, |slot| handles[slot]);
                    let (stats, t) = time_us(|| {
                        execute_grid(
                            &ck.original,
                            &kargs,
                            app.grid(),
                            app.block(),
                            &mut mem,
                            ExecMode::Functional,
                        )
                        .expect("probe interpretation")
                    });
                    us += t;
                    if rep == 0 {
                        for _ in 0..iters {
                            total.add(&stats);
                        }
                    }
                }
                us
            })
            .collect();
        ns += median(&samples) * 1e3 * iters as f64;
        threads += app.threads_per_iter() * iters;
    }
    Interp {
        ns_per_thread: ns / threads.max(1) as f64,
        threads,
        flops: total.flops,
        bytes: total.bytes_total(),
    }
}

/// `Tracker::query` of a 4 KiB window and `Tracker::update` of one, on a
/// standalone 64 MiB tracker cut into `segments` segments owned round
/// robin — the fragmentation a cell reached, without the runtime around
/// it. Microseconds per call: `(query, update)`.
pub fn tracker(segments: usize) -> (f64, f64) {
    const LEN: u64 = 1 << 26;
    const CALLS: u64 = 2000;
    let segments = segments.max(1) as u64;
    let piece = LEN / segments;
    let make = || {
        let mut t = Tracker::new(LEN);
        for i in 0..segments {
            t.update(i * piece, (i + 1) * piece, Owner::Device((i % 7) as usize));
        }
        t
    };
    let t = make();
    let windows: Vec<u64> = {
        let mut rng = Rng::new(segments);
        (0..CALLS).map(|_| rng.below(LEN - 4096)).collect()
    };
    let query: Vec<f64> = (0..REPEATS)
        .map(|_| {
            time_us(|| {
                let mut acc = 0u64;
                for &s in &windows {
                    t.query(s, s + 4096, &mut |a, b, _| acc += b - a);
                }
                acc
            })
            .1 / CALLS as f64
        })
        .collect();
    let update: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut t = make();
            time_us(|| {
                for &s in &windows {
                    t.update(s, s + 4096, Owner::Device(3));
                }
                t.segment_count()
            })
            .1 / CALLS as f64
        })
        .collect();
    (median(&query), median(&update))
}

/// Tuner regret of one cell on the simulated clock: run the application
/// under the tuner's own choice and under each of the top ≤ 8 ranked
/// candidates forced, and compare steady-state simulated time (32
/// iterations after `warmup`, the workload's own warm-up, so the tuner's
/// online refinement has settled): `(chosen − best) / best`, in percent.
/// Exact — a deterministic simulation — and 0 when the tuner's pick is
/// the best one enumerated.
pub fn regret_pct((cell, program): Site, warmup: usize) -> f64 {
    const MEASURED: usize = 32;
    let kernels = cell.app.kernels(program);
    let steady = |force: Option<&Candidate>| -> Option<f64> {
        let (mut rt, mut inst) = uploaded(cell);
        if let Some(c) = force {
            for ck in &kernels {
                rt.force_strategy(&ck.model.kernel_name, c.strategy.clone());
            }
        }
        let mut ctx = Ctx::new();
        let mut first = vec![true; kernels.len()];
        let mut start = 0.0;
        for i in 0..warmup + MEASURED {
            if i == warmup {
                rt.synchronize();
                start = rt.elapsed();
            }
            iterate(
                &mut rt, &kernels, &cell.app, &mut inst, &mut first, &mut ctx,
            );
        }
        rt.synchronize();
        // A candidate another step's kernel has no safety proof for is
        // refused at launch; it is not a candidate for this application.
        (ctx.ops.failed == 0).then(|| rt.elapsed() - start)
    };
    let chosen = steady(None).expect("the tuner's own choice launches");
    let (rt, inst) = uploaded(cell);
    let cands = rt
        .tuner_candidates(kernels[0], cell.app.grid(), cell.app.block(), inst.args(0))
        .expect("probe ranking");
    let best = cands
        .iter()
        .take(8)
        .filter_map(|c| steady(Some(c)))
        .fold(chosen, f64::min);
    100.0 * (chosen - best) / best
}
