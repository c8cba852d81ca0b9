//! A plan hit allocates nothing.
//!
//! The hit path runs on resolved state — the launch site, one plan key
//! refilled in place, dense event slots, reused scratch, tracker
//! post-states installed by pointer — so once a ping-pong loop is warm,
//! a launch that hits the plan cache must not reach the allocator at
//! all. A counting `#[global_allocator]` holds it to that: 1 000 launches
//! after 32 warm-up iterations advance `plan_hits` by 1 000 and the
//! allocation count by 0, at 4 and at 16 devices, with and without the
//! tuner, and under a forced 2-D tiling.
//!
//! Debug builds check every installed post-state against the tracker ops
//! it stands for, which clones trackers; there the test runs a tenth of
//! the launches, still demands that each one hits, and leaves the zero
//! to release (how CI runs it).

use mekong_analysis::SplitAxis;
use mekong_gpusim::{Machine, MachineSpec};
use mekong_kernel::builder::*;
use mekong_kernel::{Dim3, Kernel, Value};
use mekong_runtime::{CompiledKernel, LaunchArg, MgpuRuntime, PartitionStrategy, RuntimeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls made by this thread. Per thread, so tests running
    /// side by side do not count each other; const-initialised and
    /// without a destructor, so touching it never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local count.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const N: usize = 128;
const WARMUP: usize = 32;
const LAUNCHES: u64 = if cfg!(debug_assertions) { 100 } else { 1000 };

fn stencil_kernel() -> Kernel {
    let (x, y, n) = (|| v("x"), || v("y"), || v("n"));
    Kernel {
        name: "stencil2d".into(),
        params: vec![
            scalar("n"),
            array_f32("src", &[ext("n"), ext("n")]),
            array_f32("dst", &[ext("n"), ext("n")]),
        ],
        body: vec![
            let_("x", global_x()),
            let_("y", global_y()),
            guard_return(x().ge(n()).or(y().ge(n()))),
            if_(
                x().eq_(i(0))
                    .or(x().eq_(n() - i(1)))
                    .or(y().eq_(i(0)))
                    .or(y().eq_(n() - i(1))),
                vec![store("dst", vec![y(), x()], load("src", vec![y(), x()]))],
                vec![store(
                    "dst",
                    vec![y(), x()],
                    (load("src", vec![y(), x() - i(1)])
                        + load("src", vec![y(), x() + i(1)])
                        + load("src", vec![y() - i(1), x()])
                        + load("src", vec![y() + i(1), x()]))
                        / f(4.0),
                )],
            ),
        ],
    }
}

/// Warm a perf-mode ping-pong stencil up, then count what `LAUNCHES`
/// further launches cost.
fn steady_hits_allocate_nothing(
    n_devices: usize,
    config: RuntimeConfig,
    forced: Option<PartitionStrategy>,
) {
    let ck = CompiledKernel::compile(&stencil_kernel()).unwrap();
    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(n_devices), false));
    rt.set_config(config);
    if let Some(strategy) = forced {
        rt.force_strategy(&ck.model.kernel_name, strategy);
    }
    let mut bufs = [
        rt.malloc(N * N * 4, 4).unwrap(),
        rt.malloc(N * N * 4, 4).unwrap(),
    ];
    rt.memcpy_h2d_sim(bufs[0]).unwrap();
    rt.memcpy_h2d_sim(bufs[1]).unwrap();
    let (grid, block) = (Dim3::new2((N / 8) as u32, (N / 8) as u32), Dim3::new2(8, 8));
    let mut iterate = |rt: &mut MgpuRuntime| {
        let args = [
            LaunchArg::Scalar(Value::I64(N as i64)),
            LaunchArg::Buf(bufs[0]),
            LaunchArg::Buf(bufs[1]),
        ];
        rt.launch(&ck, grid, block, &args).unwrap();
        bufs.swap(0, 1);
    };
    for _ in 0..WARMUP {
        iterate(&mut rt);
    }
    let hits_before = rt.machine().counters().plan_hits;
    let allocations_before = ALLOCATIONS.with(Cell::get);
    for _ in 0..LAUNCHES {
        iterate(&mut rt);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - allocations_before;
    let hits = rt.machine().counters().plan_hits - hits_before;
    assert_eq!(hits, LAUNCHES, "every steady launch replays a plan");
    if cfg!(debug_assertions) {
        eprintln!("debug build: {allocations} allocations, all in the install check");
    } else {
        assert_eq!(allocations, 0, "a plan hit reached the allocator");
    }
}

#[test]
fn tuned_at_4_devices() {
    steady_hits_allocate_nothing(4, RuntimeConfig::tuned(), None);
}

#[test]
fn tuned_at_16_devices() {
    steady_hits_allocate_nothing(16, RuntimeConfig::tuned(), None);
}

fn captured_alpha() -> RuntimeConfig {
    RuntimeConfig {
        capture_plans: true,
        ..RuntimeConfig::alpha()
    }
}

#[test]
fn captured_alpha_at_4_devices() {
    steady_hits_allocate_nothing(4, captured_alpha(), None);
}

#[test]
fn captured_alpha_at_16_devices() {
    steady_hits_allocate_nothing(16, captured_alpha(), None);
}

#[test]
fn forced_2d_tiling() {
    let tiling = PartitionStrategy::tiled(SplitAxis::Y, 2, SplitAxis::X, 2);
    steady_hits_allocate_nothing(4, RuntimeConfig::tuned(), Some(tiling));
}
