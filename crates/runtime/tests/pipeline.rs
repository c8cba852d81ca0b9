//! Differential verification of launch-ahead pipelined scheduling
//! (see `mekong_runtime::pipeline`) against the shadow-memory oracle.
//!
//! Two properties anchor correctness:
//!
//! * ping-pong stencil runs at `launch_ahead ∈ {0, 2, 4}` produce
//!   **byte-identical** outputs, all matching a host-side reference;
//! * random interleavings of D2H reads, H2D uploads and cold-cache
//!   (uncaptured) launches at arbitrary points inside a launch-ahead
//!   window — every pipeline-flush boundary — preserve exact agreement
//!   with the synchronous runtime *and* the host oracle at every
//!   observation point, not just at the end.
//!
//! A third pins plan replay to the walk it stands for: the same steps
//! through `capture_plans: true` (two tenants sharing one plan cache) and
//! `capture_plans: false`, compared after **every** step — trackers,
//! per-buffer provenance and the counters a replay re-notes. The
//! capture-off path is the oracle for the post-state a replayed plan
//! installs instead of re-applying its tracker ops. Single-device
//! fallback launches land between the replays, while the window is full.

use mekong_analysis::SplitAxis;
use mekong_gpusim::{Machine, MachineSpec};
use mekong_kernel::builder::*;
use mekong_kernel::{Dim3, Kernel, Value};
use mekong_runtime::{
    CompiledKernel, LaunchArg, MgpuRuntime, PartitionStrategy, PlanCache, RuntimeConfig, VBufId,
    Validity,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

const N: usize = 256;
const N_DEV: usize = 4;

fn stencil_kernel() -> Kernel {
    Kernel {
        name: "stencil".into(),
        params: vec![
            scalar("n"),
            array_f32("input", &[ext("n")]),
            array_f32("output", &[ext("n")]),
        ],
        body: vec![
            let_("i", global_x()),
            guard_return(v("i").ge(v("n"))),
            if_(
                v("i").eq_(i(0)).or(v("i").eq_(v("n") - i(1))),
                vec![store("output", vec![v("i")], load("input", vec![v("i")]))],
                vec![store(
                    "output",
                    vec![v("i")],
                    (load("input", vec![v("i") - i(1)])
                        + load("input", vec![v("i")])
                        + load("input", vec![v("i") + i(1)]))
                        / f(3.0),
                )],
            ),
        ],
    }
}

fn scale_kernel() -> Kernel {
    Kernel {
        name: "scale".into(),
        params: vec![
            scalar("n"),
            array_f32("a", &[ext("n")]),
            array_f32("b", &[ext("n")]),
        ],
        body: vec![
            let_("i", global_x()),
            guard_return(v("i").ge(v("n"))),
            store("b", vec![v("i")], load("a", vec![v("i")]) * f(3.0)),
        ],
    }
}

fn stencil_step(cur: &[f32]) -> Vec<f32> {
    let n = cur.len();
    let mut next = cur.to_vec();
    for i in 1..n - 1 {
        next[i] = (cur[i - 1] + cur[i] + cur[i + 1]) / 3.0;
    }
    next
}

fn bytes_of(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn data_from_seed(seed: u32) -> Vec<f32> {
    (0..N)
        .map(|i| ((i as u32).wrapping_mul(37).wrapping_add(seed * 101) % 251) as f32)
        .collect()
}

/// One step of the interleaved workload. `Stencil` replays from the plan
/// cache after warm-up (the pipelined path); the others all cross a
/// pipeline-flush boundary.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Captured ping-pong stencil launch (pipelines on a cache hit).
    Stencil,
    /// Scale src into dst without swapping. Its first occurrence per
    /// tracker state is a cold cache miss — an uncaptured launch inside
    /// the window.
    Scale,
    /// Gather src to the host and compare against oracle + baseline.
    ReadBack,
    /// Re-upload fresh host data into src (tracker redistribution).
    Upload(u32),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    // Repeated arms stand in for weights: bias toward the pipelined
    // stencil so windows actually build up between flush events.
    let step = prop_oneof![
        Just(Step::Stencil),
        Just(Step::Stencil),
        Just(Step::Stencil),
        Just(Step::Stencil),
        Just(Step::Scale),
        Just(Step::ReadBack),
        (0u32..8).prop_map(Step::Upload),
    ];
    proptest::collection::vec(step, 1..24)
}

struct Run {
    rt: MgpuRuntime,
    stencil: CompiledKernel,
    scale: CompiledKernel,
    src: mekong_runtime::VBufId,
    dst: mekong_runtime::VBufId,
}

impl Run {
    fn new(launch_ahead: u32, init: &[f32]) -> Run {
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(N_DEV), true));
        rt.set_config(RuntimeConfig {
            capture_plans: true,
            launch_ahead,
            ..RuntimeConfig::default()
        });
        let src = rt.malloc(N * 4, 4).unwrap();
        let dst = rt.malloc(N * 4, 4).unwrap();
        rt.memcpy_h2d(src, &bytes_of(init)).unwrap();
        rt.memcpy_h2d(dst, &bytes_of(init)).unwrap();
        Run {
            rt,
            stencil: CompiledKernel::compile(&stencil_kernel()).unwrap(),
            scale: CompiledKernel::compile(&scale_kernel()).unwrap(),
            src,
            dst,
        }
    }

    fn launch(&mut self, ck: usize) {
        let k = if ck == 0 { &self.stencil } else { &self.scale };
        self.rt
            .launch(
                k,
                Dim3::new1((N / 64) as u32),
                Dim3::new1(64),
                &[
                    LaunchArg::Scalar(Value::I64(N as i64)),
                    LaunchArg::Buf(self.src),
                    LaunchArg::Buf(self.dst),
                ],
            )
            .unwrap();
    }

    fn read_src(&mut self) -> Vec<u8> {
        let mut out = vec![0u8; N * 4];
        self.rt.memcpy_d2h(self.src, &mut out).unwrap();
        out
    }
}

/// Drive one step on a runtime and the host oracle in lock-step.
fn apply(run: &mut Run, oracle: (&mut Vec<f32>, &mut Vec<f32>), step: Step) -> Option<Vec<u8>> {
    let (src_h, dst_h) = oracle;
    match step {
        Step::Stencil => {
            run.launch(0);
            std::mem::swap(&mut run.src, &mut run.dst);
            *dst_h = stencil_step(src_h);
            std::mem::swap(src_h, dst_h);
            None
        }
        Step::Scale => {
            run.launch(1);
            *dst_h = src_h.iter().map(|x| x * 3.0).collect();
            None
        }
        Step::ReadBack => Some(run.read_src()),
        Step::Upload(seed) => {
            let data = data_from_seed(seed);
            run.rt.memcpy_h2d(run.src, &bytes_of(&data)).unwrap();
            *src_h = data;
            None
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tier-1 differential: `launch_ahead ∈ {0, 2}` (plus 4 for depth
    /// coverage) on a pure ping-pong stencil — byte-identical outputs,
    /// all equal to the shadow oracle.
    #[test]
    fn ping_pong_outputs_identical_across_launch_ahead(
        iters in 1usize..10,
        seed in 0u32..16,
    ) {
        let init = data_from_seed(seed);
        let mut reference = init.clone();
        for _ in 0..iters {
            reference = stencil_step(&reference);
        }
        let mut outs = Vec::new();
        for ahead in [0u32, 2, 4] {
            let mut run = Run::new(ahead, &init);
            for _ in 0..iters {
                run.launch(0);
                std::mem::swap(&mut run.src, &mut run.dst);
            }
            outs.push(run.read_src());
        }
        prop_assert_eq!(&outs[0], &outs[1], "launch_ahead 2 diverged from 0");
        prop_assert_eq!(&outs[0], &outs[2], "launch_ahead 4 diverged from 0");
        prop_assert_eq!(&outs[0], &bytes_of(&reference), "diverged from oracle");
    }

    /// Flush boundaries: D2H reads, H2D uploads and cold-cache launches
    /// interleaved at random points in the window. Every observation
    /// must agree across `launch_ahead ∈ {0, 2, 4}` and with the oracle.
    #[test]
    fn random_flush_boundaries_preserve_exact_agreement(
        steps in arb_steps(),
        seed in 0u32..8,
    ) {
        let init = data_from_seed(seed);
        let mut runs: Vec<Run> = [0u32, 2, 4]
            .iter()
            .map(|&a| Run::new(a, &init))
            .collect();
        let mut oracles: Vec<(Vec<f32>, Vec<f32>)> = (0..runs.len())
            .map(|_| (init.clone(), init.clone()))
            .collect();
        for &step in &steps {
            let mut seen: Option<Vec<u8>> = None;
            for (run, (src_h, dst_h)) in runs.iter_mut().zip(oracles.iter_mut()) {
                let got = apply(run, (src_h, dst_h), step);
                if let Some(bytes) = got {
                    prop_assert_eq!(
                        &bytes,
                        &bytes_of(src_h),
                        "readback diverged from oracle at {:?}",
                        step
                    );
                    match &seen {
                        None => seen = Some(bytes),
                        Some(prev) => prop_assert_eq!(prev, &bytes, "runtimes diverged"),
                    }
                }
            }
        }
        // Final gather always agrees, whatever the interleaving did.
        let finals: Vec<Vec<u8>> = runs.iter_mut().map(|r| r.read_src()).collect();
        prop_assert_eq!(&finals[0], &finals[1]);
        prop_assert_eq!(&finals[0], &finals[2]);
        prop_assert_eq!(&finals[0], &bytes_of(&oracles[0].0));
    }
}

// ---- replay against the walk, step by step ------------------------------

/// The 2-D problems are `W × W` floats on a 4 × 4 grid of 8 × 8 blocks.
const W: usize = 32;

fn stencil2d_kernel() -> Kernel {
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

fn scale2d_kernel() -> Kernel {
    Kernel {
        name: "scale2d".into(),
        params: vec![
            scalar("n"),
            array_f32("a", &[ext("n"), ext("n")]),
            array_f32("b", &[ext("n"), ext("n")]),
        ],
        body: vec![
            let_("x", global_x()),
            let_("y", global_y()),
            guard_return(v("x").ge(v("n")).or(v("y").ge(v("n")))),
            store(
                "b",
                vec![v("y"), v("x")],
                load("a", vec![v("y"), v("x")]) * f(3.0),
            ),
        ],
    }
}

/// Both kernels, compiled once for all cases.
fn walk_kernels() -> &'static [CompiledKernel; 2] {
    static KERNELS: OnceLock<[CompiledKernel; 2]> = OnceLock::new();
    KERNELS.get_or_init(|| {
        [
            CompiledKernel::compile(&stencil2d_kernel()).unwrap(),
            CompiledKernel::compile(&scale2d_kernel()).unwrap(),
        ]
    })
}

fn image_from_seed(seed: u32) -> Vec<u8> {
    let vals: Vec<f32> = (0..W * W)
        .map(|i| ((i as u32).wrapping_mul(37).wrapping_add(seed * 101) % 251) as f32)
        .collect();
    bytes_of(&vals)
}

/// One step of the capture-on/capture-off walk.
#[derive(Debug, Clone, Copy)]
enum Walk {
    /// Ping-pong stencil launch: replays once its tracker state recurs.
    Stencil,
    /// Scale src into dst without swapping.
    Scale,
    /// Gather src to the host (a flush boundary when src is hot).
    ReadBack,
    /// Re-upload fresh host data into src (tracker redistribution).
    Upload(u32),
    /// Force both kernels onto a `y:2×x:2` tiling (drops plans and sites).
    Tile,
    /// Back to the compiler's split.
    Untile,
    /// Scale src into dst on one device (`launch_unpartitioned` on
    /// device `% N_DEV`): a fallback launch between replays, landing in a
    /// full launch-ahead window.
    Fallback(usize),
}

fn arb_walk() -> impl Strategy<Value = Vec<Walk>> {
    let step = prop_oneof![
        Just(Walk::Stencil),
        Just(Walk::Stencil),
        Just(Walk::Stencil),
        Just(Walk::Stencil),
        Just(Walk::Scale),
        Just(Walk::ReadBack),
        (0u32..8).prop_map(Walk::Upload),
        Just(Walk::Tile),
        Just(Walk::Untile),
        (0usize..8).prop_map(Walk::Fallback),
    ];
    proptest::collection::vec(step, 1..32)
}

/// One buffer as the comparison sees it.
#[derive(Debug, PartialEq)]
struct ObservedBuffer {
    segments: Vec<(u64, u64, Validity)>,
    signature: u64,
    d2d_in_bytes: u64,
    kernel_written: bool,
}

/// Everything a replay must leave exactly as the walk does.
#[derive(Debug, PartialEq)]
struct Observed {
    /// In allocation order.
    buffers: Vec<ObservedBuffer>,
    /// `d2d_copies`, `d2d_bytes`, `launches`, `replica_hits`,
    /// `refetch_bytes_saved`, `replica_invalidations`, `checked_safe`.
    counters: [u64; 7],
}

struct Tenant {
    rt: MgpuRuntime,
    bufs: [VBufId; 2],
    /// Index into `bufs` of the current ping-pong source.
    src: usize,
}

impl Tenant {
    fn new(
        capture_plans: bool,
        namespace: u32,
        cache: Option<&Rc<RefCell<PlanCache>>>,
        init: &[u8],
    ) -> Tenant {
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(N_DEV), true));
        rt.set_namespace(namespace).unwrap();
        rt.set_config(RuntimeConfig {
            capture_plans,
            ..RuntimeConfig::default()
        });
        if let Some(cache) = cache {
            rt.set_plan_cache(Rc::clone(cache));
        }
        let bufs = [
            rt.malloc(W * W * 4, 4).unwrap(),
            rt.malloc(W * W * 4, 4).unwrap(),
        ];
        rt.memcpy_h2d(bufs[0], init).unwrap();
        rt.memcpy_h2d(bufs[1], init).unwrap();
        Tenant { rt, bufs, src: 0 }
    }

    /// Apply one step; a read-back returns the gathered bytes.
    fn step(&mut self, kernels: &[CompiledKernel; 2], step: Walk) -> Option<Vec<u8>> {
        let (src, dst) = (self.bufs[self.src], self.bufs[1 - self.src]);
        let (grid, block) = (Dim3::new2((W / 8) as u32, (W / 8) as u32), Dim3::new2(8, 8));
        let args = [
            LaunchArg::Scalar(Value::I64(W as i64)),
            LaunchArg::Buf(src),
            LaunchArg::Buf(dst),
        ];
        let launch = |rt: &mut MgpuRuntime, ck: &CompiledKernel| {
            rt.launch(ck, grid, block, &args).unwrap();
        };
        match step {
            Walk::Stencil => {
                launch(&mut self.rt, &kernels[0]);
                self.src = 1 - self.src;
            }
            Walk::Scale => launch(&mut self.rt, &kernels[1]),
            Walk::ReadBack => {
                let mut out = vec![0u8; W * W * 4];
                self.rt.memcpy_d2h(src, &mut out).unwrap();
                return Some(out);
            }
            Walk::Upload(seed) => self.rt.memcpy_h2d(src, &image_from_seed(seed)).unwrap(),
            Walk::Tile => {
                for ck in kernels {
                    self.rt.force_strategy(
                        &ck.model.kernel_name,
                        PartitionStrategy::tiled(SplitAxis::Y, 2, SplitAxis::X, 2),
                    );
                }
            }
            Walk::Untile => {
                for ck in kernels {
                    self.rt.clear_forced_strategy(&ck.model.kernel_name);
                }
            }
            Walk::Fallback(device) => self
                .rt
                .launch_unpartitioned(&kernels[1], grid, block, &args, device % N_DEV)
                .unwrap(),
        }
        None
    }

    fn observe(&self) -> Observed {
        let c = self.rt.machine().counters();
        Observed {
            buffers: self
                .bufs
                .iter()
                .map(|&b| {
                    let t = self.rt.tracker(b);
                    ObservedBuffer {
                        segments: t.segments_in(0, t.len()),
                        signature: t.signature(),
                        d2d_in_bytes: self.rt.d2d_bytes_into(b),
                        kernel_written: self.rt.kernel_written(b),
                    }
                })
                .collect(),
            counters: [
                c.d2d_copies,
                c.d2d_bytes,
                c.launches,
                c.replica_hits,
                c.refetch_bytes_saved,
                c.replica_invalidations,
                c.checked_safe,
            ],
        }
    }
}

/// `PROPTEST_CASES` when set (CI runs 1024 in release), else few enough
/// for a debug build, where every install is also checked against the
/// ops it stands for.
fn walk_cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(walk_cases())]

    /// The same steps through `capture_plans: false` — every launch
    /// walks its trackers — and through two capture-on tenants sharing
    /// one plan cache under their own namespaces, so each replays plans
    /// (and installs post-states) the other captured. After every step
    /// all three agree on each buffer's segment list, signature, peer
    /// bytes received and kernel provenance, and on the counters a
    /// replay re-notes; every read-back, and the final one, agrees byte
    /// for byte.
    #[test]
    fn replay_matches_the_walk_after_every_step(
        steps in arb_walk(),
        seed in 0u32..8,
    ) {
        let kernels = walk_kernels();
        let init = image_from_seed(seed);
        let shared = Rc::new(RefCell::new(PlanCache::new(0)));
        let mut walk = Tenant::new(false, 0, None, &init);
        let mut tenants = [
            Tenant::new(true, 1, Some(&shared), &init),
            Tenant::new(true, 2, Some(&shared), &init),
        ];
        for &step in steps.iter().chain([Walk::ReadBack].iter()) {
            let want_bytes = walk.step(kernels, step);
            let want = walk.observe();
            for t in &mut tenants {
                let got_bytes = t.step(kernels, step);
                prop_assert_eq!(&got_bytes, &want_bytes, "read-back diverged at {:?}", step);
                prop_assert_eq!(&t.observe(), &want, "state diverged after {:?}", step);
            }
        }
        // Not vacuous: whatever the first tenant captures, the second
        // replays from the shared cache one step later.
        if steps.iter().any(|s| matches!(s, Walk::Stencil | Walk::Scale)) {
            prop_assert!(tenants[1].rt.machine().counters().plan_shared_hits > 0);
        }
    }
}
