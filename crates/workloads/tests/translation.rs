//! Translation validation of the §7 clone: for every workload kernel
//! and the `gridDim` kernels, every partition of every strategy the
//! checker proves at 1..4 devices (slabs, weighted slabs and 2-D
//! tilings), the original kernel run over the partition's blocks of the
//! whole grid and `partition_kernel`'s clone run over
//! `Partition::launch_grid()` with `clone_args` make, thread by thread,
//! the same global-memory accesses: the same (array, element offset,
//! load or store) sequence for each global thread id.

use mekong_core::prelude::*;
use mekong_gpusim::ThreadProfile;
use mekong_kernel::{ExecMode, KernelArg, MemAccess, Program, VecMem};
use mekong_tuner::enumerate_strategies;
use mekong_workloads::app::Arg;
use mekong_workloads::{benchmarks, extra_benchmarks};
use std::cell::RefCell;

/// The `last`, `mir` and `corner` kernels of the equivalence tests.
const GRIDDIM_KERNELS: &str = include_str!("../../../tests/fixtures/griddim.cu");

/// One global-memory access: array handle, element offset, store?
type Access = (usize, usize, bool);

/// Memory that records every access on its way to the real bytes, so
/// data-dependent control flow takes its real path.
struct Recording {
    mem: VecMem,
    log: RefCell<Vec<Access>>,
}

impl Recording {
    fn new(mem: VecMem) -> Recording {
        Recording {
            mem,
            log: RefCell::new(Vec::new()),
        }
    }
}

impl MemAccess for Recording {
    fn load(&self, array: usize, offset: usize, ty: ScalarTy) -> Value {
        self.log.borrow_mut().push((array, offset, false));
        self.mem.load(array, offset, ty)
    }

    fn store(&mut self, array: usize, offset: usize, value: Value) {
        self.log.get_mut().push((array, offset, true));
        self.mem.store(array, offset, value);
    }
}

/// One launch to validate: a compiled kernel, its geometry, its
/// arguments and the memory its buffers start from.
struct Case<'a> {
    what: String,
    ck: &'a CompiledKernel,
    grid: Dim3,
    block: Dim3,
    args: Vec<KernelArg>,
    mem: VecMem,
}

/// Every block index of `extent`, `z` outermost, `x` fastest.
fn blocks(extent: Dim3) -> impl Iterator<Item = Dim3> {
    (0..extent.z).flat_map(move |z| {
        (0..extent.y).flat_map(move |y| (0..extent.x).map(move |x| Dim3::new3(x, y, z)))
    })
}

/// The partitions of every strategy the checker proves for `case` on
/// four devices, deduplicated; the weighted ones come from a machine of
/// two GPUs and two host sockets.
fn proven_partitions(case: &Case) -> Vec<Partition> {
    let mut parts: Vec<Partition> = Vec::new();
    for spec in [
        MachineSpec::kepler_system(4),
        MachineSpec::hybrid_system(2, 2),
    ] {
        let profile = ThreadProfile {
            flops_per_thread: 1.0,
            intops_per_thread: 1.0,
            bytes_per_thread: 8.0,
        };
        for strategy in enumerate_strategies(&spec, case.grid, profile, case.ck.safe_axes) {
            for part in strategy.partitions(case.grid) {
                if !parts.contains(&part) {
                    parts.push(part);
                }
            }
        }
    }
    parts
}

/// Run the original over `part`'s blocks of the whole grid and the
/// clone over `part.launch_grid()`, one thread of each at a time from
/// the same starting memory, and compare each thread's accesses.
/// Returns the number of threads compared.
fn validate(case: &Case, part: &Partition) -> usize {
    let original = Program::lower(&case.ck.original).unwrap();
    let clone = Program::lower(&case.ck.partitioned).unwrap();
    let mut clone_args = case.args.clone();
    clone_args.extend(
        part.clone_args(case.grid)
            .map(|v| KernelArg::Scalar(Value::I64(v))),
    );
    let launch_grid = part.launch_grid();
    let whole = original
        .bind(&case.args, case.grid, case.block, ExecMode::Functional)
        .unwrap();
    let cut = clone
        .bind(&clone_args, launch_grid, case.block, ExecMode::Functional)
        .unwrap();
    let (mut whole_frame, mut cut_frame) = (whole.frame(), cut.frame());
    let mut whole_mem = Recording::new(case.mem.clone());
    let mut cut_mem = Recording::new(case.mem.clone());
    let lo = Dim3::from_zyx(part.lo);
    let mut threads = 0;
    for local in blocks(launch_grid) {
        let global = Dim3::new3(lo.x + local.x, lo.y + local.y, lo.z + local.z);
        for thread in blocks(case.block) {
            whole_frame
                .run_thread(global, thread, &mut whole_mem)
                .unwrap_or_else(|e| panic!("{}: original: {e}", case.what));
            cut_frame
                .run_thread(local, thread, &mut cut_mem)
                .unwrap_or_else(|e| panic!("{}: clone: {e}", case.what));
            let (want, got) = (whole_mem.log.get_mut(), cut_mem.log.get_mut());
            assert_eq!(
                got, want,
                "{}: partition {:?}..{:?}, block {global}, thread {thread}",
                case.what, part.lo, part.hi
            );
            want.clear();
            got.clear();
            threads += 1;
        }
    }
    threads
}

#[test]
fn the_clone_makes_the_originals_accesses_on_every_proven_partition() {
    let mut programs = Vec::new();
    let mut apps = Vec::new();
    for b in benchmarks().iter().chain(&extra_benchmarks()) {
        let app = b.describe(b.check().n);
        programs.push(compile_source(app.source).unwrap());
        apps.push((b.name(), app));
    }
    let griddim = compile_source(GRIDDIM_KERNELS).unwrap();

    let mut cases = Vec::new();
    for ((name, app), program) in apps.iter().zip(&programs) {
        let mut mem = VecMem::new();
        for b in &app.buffers {
            let id = mem.alloc(b.bytes);
            if let Some(input) = &b.input {
                mem.bytes_mut(id).copy_from_slice(&input());
            }
        }
        for l in &app.launches {
            let args = l
                .args
                .iter()
                .map(|a| match *a {
                    Arg::Scalar(v) => KernelArg::Scalar(v),
                    Arg::Buf(i) => KernelArg::Array(i),
                })
                .collect();
            cases.push(Case {
                what: format!("{name} {}", l.kernel),
                ck: program.kernel(l.kernel).unwrap(),
                grid: l.grid,
                block: l.block,
                args,
                mem: mem.clone(),
            });
        }
    }
    // 1-D kernels on 8 blocks of 8 threads, `corner` on 4×4 blocks of
    // 4×4, over n = 64 and n = 16 elements per row.
    for (kernel, n, grid, block) in [
        ("last", 64, Dim3::new1(8), Dim3::new1(8)),
        ("mir", 64, Dim3::new1(8), Dim3::new1(8)),
        ("corner", 16, Dim3::new2(4, 4), Dim3::new2(4, 4)),
    ] {
        let elems = if kernel == "corner" { n * n } else { n };
        let mut mem = VecMem::new();
        let init: Vec<Value> = (0..elems).map(|i| Value::F32(i as f32)).collect();
        let a = mem.alloc_from(&init);
        let b = mem.alloc(elems * 4);
        cases.push(Case {
            what: kernel.to_string(),
            ck: griddim.kernel(kernel).unwrap(),
            grid,
            block,
            args: vec![
                KernelArg::Scalar(Value::I64(n as i64)),
                KernelArg::Array(a),
                KernelArg::Array(b),
            ],
            mem,
        });
    }

    let mut tilings = 0;
    for case in &cases {
        let parts = proven_partitions(case);
        assert!(!parts.is_empty(), "{}", case.what);
        for part in &parts {
            let split_axes = (0..3)
                .filter(|&d| (part.lo[d], part.hi[d]) != (0, case.grid.zyx()[d]))
                .count();
            tilings += usize::from(split_axes == 2);
            assert!(validate(case, part) > 0, "{}: empty partition", case.what);
        }
    }
    assert!(tilings > 0, "no 2-D tiling was validated");
}
