//! End-to-end identity of kernel execution: every kernel of all six
//! workloads — the original over its whole grid and the partition-aware
//! clone over every partition of two- and three-way splits along each
//! axis, which covers what the `functional-exec` cells launch — runs on
//! the lowered executor to the same bytes and the same `ExecStats` as on
//! the tree-walking interpreter it replaced ([`oracle`]), seeded payloads
//! in memory. In counting mode the comparison is made where the
//! simulator looks: at `sample_kernel_profile`'s sample threads, whose
//! average it must also report.

#[path = "../../kernel/tests/oracle/mod.rs"]
mod oracle;

use mekong_core::prelude::*;
use mekong_gpusim::sample_kernel_profile;
use mekong_kernel::{execute_grid, ExecMode, ExecStats, Kernel, KernelArg, Program, VecMem};
use mekong_workloads::app::{App, Arg};
use mekong_workloads::{benchmarks, extra_benchmarks};

/// The workload's buffers in a plain memory, seeded inputs uploaded.
fn seeded_memory(app: &App) -> VecMem {
    let mut mem = VecMem::new();
    for b in &app.buffers {
        let id = mem.alloc(b.bytes);
        if let Some(input) = &b.input {
            mem.bytes_mut(id).copy_from_slice(&input());
        }
    }
    mem
}

/// Run `kernel` on both executors from the same memory; the bytes and
/// the result must agree. Returns the memory afterwards.
fn assert_same_execution(
    what: &str,
    kernel: &Kernel,
    args: &[KernelArg],
    grid: Dim3,
    block: Dim3,
    mem: &VecMem,
    n_buffers: usize,
) -> (VecMem, ExecStats) {
    let (mut lowered, mut walked) = (mem.clone(), mem.clone());
    let got = execute_grid(
        kernel,
        args,
        grid,
        block,
        &mut lowered,
        ExecMode::Functional,
    );
    let want = oracle::execute_grid(kernel, args, grid, block, &mut walked, ExecMode::Functional);
    assert_eq!(got, want, "{what}: result");
    for id in 0..n_buffers {
        assert!(
            lowered.bytes(id) == walked.bytes(id),
            "{what}: bytes of buffer {id}"
        );
    }
    (lowered, got.expect("workload kernels execute"))
}

/// First, middle and last coordinate per axis, as the simulator samples.
fn sample_points(extent: Dim3) -> Vec<Dim3> {
    let picks = |n: u32| match n {
        0 => vec![],
        1 => vec![0],
        2 => vec![0, 1],
        _ => vec![0, n / 2, n - 1],
    };
    let mut out = Vec::new();
    for z in picks(extent.z) {
        for y in picks(extent.y) {
            for x in picks(extent.x) {
                out.push(Dim3::new3(x, y, z));
            }
        }
    }
    out
}

/// Counting mode at the sample threads: per-thread counters equal the
/// oracle's, and the profile is their average.
fn assert_same_counts(what: &str, kernel: &Kernel, args: &[KernelArg], grid: Dim3, block: Dim3) {
    let program = Program::lower(kernel).unwrap();
    let launch = program
        .bind(args, grid, block, ExecMode::CountOnly)
        .unwrap();
    let mut frame = launch.frame();
    let mut untouched = VecMem::new();
    let mut total = ExecStats::default();
    let mut samples = 0u64;
    for &block_idx in &sample_points(grid) {
        for &thread_idx in &sample_points(block) {
            let ctx = oracle::ThreadCtx {
                block_idx,
                thread_idx,
                block_dim: block,
                grid_dim: grid,
            };
            let want =
                oracle::execute_thread(kernel, args, ctx, &mut untouched, ExecMode::CountOnly);
            let got = frame.run_thread(block_idx, thread_idx, &mut untouched);
            assert_eq!(got, want, "{what}: block {block_idx} thread {thread_idx}");
            total.add(&got.unwrap());
            samples += 1;
        }
    }
    let profile = sample_kernel_profile(kernel, args, grid, block).unwrap();
    let per_thread = |count: u64| count as f64 / samples as f64;
    assert_eq!(profile.flops_per_thread, per_thread(total.flops), "{what}");
    assert_eq!(
        profile.intops_per_thread,
        per_thread(total.int_ops),
        "{what}"
    );
    assert_eq!(
        profile.bytes_per_thread,
        per_thread(total.bytes_total()),
        "{what}"
    );
}

#[test]
fn every_workload_kernel_runs_to_the_oracles_bytes_and_counters() {
    let mut launches = 0usize;
    for b in benchmarks().iter().chain(&extra_benchmarks()) {
        let app = b.describe(b.check().n);
        let program = compile_source(app.source).unwrap();
        let mut mem = seeded_memory(&app);
        // Two iterations, so ping-pong kernels also run on computed data.
        let mut slots: Vec<usize> = (0..app.buffers.len()).collect();
        for iter in 0..2 {
            for l in &app.launches {
                let ck = program.kernel(l.kernel).unwrap();
                let args: Vec<KernelArg> = l
                    .args
                    .iter()
                    .map(|a| match *a {
                        Arg::Scalar(v) => KernelArg::Scalar(v),
                        Arg::Buf(i) => KernelArg::Array(slots[i]),
                    })
                    .collect();
                let what = format!("{} {} iteration {iter}", b.name(), l.kernel);
                let n = app.buffers.len();
                let (after, whole) =
                    assert_same_execution(&what, &ck.original, &args, l.grid, l.block, &mem, n);
                assert_same_counts(&what, &ck.original, &args, l.grid, l.block);
                launches += 1;

                for axis in [SplitAxis::X, SplitAxis::Y, SplitAxis::Z] {
                    for parts in [2, 3] {
                        let mut split = mem.clone();
                        let mut stats = ExecStats::default();
                        for part in partition_grid(l.grid, parts, axis) {
                            if part.is_empty() {
                                continue;
                            }
                            let bounds = part.lo.iter().chain(&part.hi);
                            let mut pargs = args.clone();
                            pargs.extend(bounds.map(|&b| KernelArg::Scalar(Value::I64(b))));
                            let what =
                                format!("{what}, {axis:?}:{parts} {:?}..{:?}", part.lo, part.hi);
                            let grid = part.launch_grid();
                            let (next, s) = assert_same_execution(
                                &what,
                                &ck.partitioned,
                                &pargs,
                                grid,
                                l.block,
                                &split,
                                n,
                            );
                            assert_same_counts(&what, &ck.partitioned, &pargs, grid, l.block);
                            split = next;
                            stats.add(&s);
                            launches += 1;
                        }
                        // The partitions together do the whole grid's
                        // loads and stores.
                        assert_eq!((stats.loads, stats.stores), (whole.loads, whole.stores));
                    }
                }
                mem = after;
            }
            if let Some((i, j)) = app.swap {
                slots.swap(i, j);
            }
        }
    }
    assert!(launches > 100, "only {launches} launches compared");
}
