//! Criterion micro-benchmarks for the toolchain's hot components:
//! polyhedral operations, tracker operations, enumerator evaluation,
//! kernel analysis and the full compile pipeline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mekong_core::prelude::*;
use mekong_poly::{Enumerator, Map, Polyhedron, Set};
use mekong_runtime::{Owner, Tracker};
use std::hint::black_box;

fn bench_poly_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("poly");
    let s1 = Set::parse("[n] -> { [y, x] : 0 <= y and y < n and y <= x and x < n }").unwrap();
    let s2 = Set::parse("[n] -> { [y, x] : 0 <= y and y < n and 0 <= x and x <= y }").unwrap();
    g.bench_function("intersect", |b| {
        b.iter(|| black_box(s1.intersect(&s2).unwrap()))
    });
    g.bench_function("project_out_dim", |b| {
        b.iter(|| black_box(s1.project_out_dims(1..2).unwrap()))
    });
    let m = Map::parse(
        "[n] -> { [i] -> [a] : i - 1 <= a and a <= i + 1 and 0 <= i and i < n and 0 <= a and a < n }",
    )
    .unwrap();
    let ctx = Polyhedron::universe(0, 1);
    g.bench_function("injectivity_check", |b| {
        b.iter(|| black_box(m.is_injective(&ctx).unwrap()))
    });
    g.bench_function("enumerator_build", |b| {
        b.iter(|| black_box(Enumerator::build(&s1).unwrap()))
    });
    let e = Enumerator::build(&s1).unwrap();
    g.bench_function("enumerator_scan_n100", |b| {
        b.iter(|| {
            let mut count = 0u64;
            e.for_each_row(&[100], &mut |_, lo, hi| count += (hi - lo + 1) as u64);
            black_box(count)
        })
    });
    g.finish();
}

fn bench_tracker(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracker");
    for segs in [16u64, 1024, 65536] {
        let len = 1u64 << 26;
        let piece = len / segs;
        let make = || {
            let mut t = Tracker::new(len);
            for i in 0..segs {
                t.update(i * piece, (i + 1) * piece, Owner::Device((i % 7) as usize));
            }
            t
        };
        let t = make();
        g.bench_function(format!("query_{segs}_segments"), |b| {
            let mut x = 9u64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let s = x % (len - 4096);
                let mut acc = 0u64;
                t.query(s, s + 4096, &mut |a, b, _| acc += b - a);
                black_box(acc)
            })
        });
        g.bench_function(format!("update_{segs}_segments"), |b| {
            b.iter_batched(
                make,
                |mut t| {
                    t.update(len / 3, len / 3 + 4096, Owner::Device(3));
                    black_box(t.segment_count())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("analysis");
    g.sample_size(20);
    for b in mekong_workloads::benchmarks() {
        let src = b.source();
        let program = compile_source(src).unwrap();
        let kernel = program.kernels[0].original.clone();
        g.bench_function(format!("analyze_{}", b.name()), |bch| {
            bch.iter(|| black_box(analyze_kernel(&kernel).unwrap()))
        });
        g.bench_function(format!("compile_pipeline_{}", b.name()), |bch| {
            bch.iter(|| black_box(compile_source(src).unwrap()))
        });
    }
    g.finish();
}

fn bench_enumerator_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("enumerators");
    let program = compile_source(mekong_workloads::hotspot::SOURCE).unwrap();
    let ck = program.kernel("hotspot").unwrap();
    let n = 4096usize;
    let (grid, block) = mekong_workloads::hotspot::geometry(n);
    let parts = partition_grid(grid, 8, ck.model.partitioning);
    let names = ck.enums.scalar_names.clone();
    let scalars = [n as i64, 0];
    let rd = ck.enums.reads[0].1.clone();
    g.bench_function("hotspot_read_ranges_cold", |b| {
        b.iter_batched(
            || rd.clone(),
            |e| {
                let mut acc = 0u64;
                e.for_each_range(&parts[3], block, grid, &names, &scalars, &mut |r| {
                    acc += r.len()
                });
                black_box(acc)
            },
            BatchSize::SmallInput,
        )
    });
    // Warm cache (the iterative-application fast path).
    let mut acc = 0u64;
    rd.for_each_range(&parts[3], block, grid, &names, &scalars, &mut |r| {
        acc += r.len()
    });
    black_box(acc);
    g.bench_function("hotspot_read_ranges_cached", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            rd.for_each_range(&parts[3], block, grid, &names, &scalars, &mut |r| {
                acc += r.len()
            });
            black_box(acc)
        })
    });
    g.finish();
}

/// The launch hot path in performance mode: one steady-state ping-pong
/// Hotspot launch per iteration, with the plan cache on (replay: hash
/// the trackers, enqueue the captured sequence) and off (full tracker
/// walk + transfer planning every time). The gap between the two is the
/// wall-clock win A6 measures end-to-end.
fn bench_launch_replay(c: &mut Criterion) {
    use mekong_gpusim::Machine;
    use mekong_workloads::{Benchmark, Hotspot};
    let mut g = c.benchmark_group("launch");
    for (label, capture) in [("replay_on", true), ("replay_off", false)] {
        let cfg = RuntimeConfig {
            capture_plans: capture,
            ..RuntimeConfig::beta()
        };
        let machine = Machine::new(MachineSpec::kepler_system(4), false);
        let mut p = Hotspot.describe(2048).prepare(Box::new(machine), cfg);
        // Warm up past the two ping-pong phases so `replay_on` measures
        // pure hits.
        p.steps(4);
        g.bench_function(format!("hotspot_steady_state_{label}"), |bch| {
            bch.iter(|| {
                p.step();
                black_box(p.buffer(0))
            })
        });
    }
    g.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    use mekong_kernel::{
        execute_grid, interp::KernelArg, Dim3 as KDim3, ExecMode, Value as KValue, VecMem,
    };
    let mut g = c.benchmark_group("interpreter");
    let program = compile_source(mekong_workloads::matmul::SOURCE).unwrap();
    let k = program.kernel("matmul").unwrap().original.clone();
    let n = 64usize;
    g.bench_function("matmul64_functional_grid", |b| {
        b.iter_batched(
            || {
                let mut mem = VecMem::new();
                let a = mem.alloc(n * n * 4);
                let bb = mem.alloc(n * n * 4);
                let cc = mem.alloc(n * n * 4);
                (mem, a, bb, cc)
            },
            |(mut mem, a, bb, cc)| {
                let args = [
                    KernelArg::Scalar(KValue::I64(n as i64)),
                    KernelArg::Array(a),
                    KernelArg::Array(bb),
                    KernelArg::Array(cc),
                ];
                execute_grid(
                    &k,
                    &args,
                    KDim3::new2(4, 4),
                    KDim3::new2(16, 16),
                    &mut mem,
                    ExecMode::Functional,
                )
                .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_poly_ops,
    bench_tracker,
    bench_analysis,
    bench_enumerator_runtime,
    bench_launch_replay,
    bench_interpreter
);
criterion_main!(benches);
