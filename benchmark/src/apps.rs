//! The six applications as data: buffers, launch steps and ping-pong
//! pairs, plus seeded payloads and the comparison against each
//! workload's hand-written CPU reference.
//!
//! `mekong-workloads` bundles compile, upload and launch loop into one
//! call per workload; the benchmark needs them apart (compile in set-up,
//! launches in the timed span), so the launch sequences are restated here
//! from the same sources, geometries and constants.

use mekong_core::CompiledProgram;
use mekong_gpusim::SimArg;
use mekong_kernel::interp::KernelArg;
use mekong_kernel::{Dim3, Value};
use mekong_partition::Partition;
use mekong_runtime::{CompiledKernel, LaunchArg, MgpuRuntime, RuntimeError, VBufId};
use mekong_workloads::{blur, histogram, hotspot, matmul, nbody, spmv};

/// The six workload programs, in the order of `expected/verdicts.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prog {
    Hotspot,
    NBody,
    Matmul,
    Blur,
    Histogram,
    Spmv,
}

impl Prog {
    pub const ALL: [Prog; 6] = [
        Prog::Hotspot,
        Prog::NBody,
        Prog::Matmul,
        Prog::Blur,
        Prog::Histogram,
        Prog::Spmv,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Prog::Hotspot => "hotspot",
            Prog::NBody => "nbody",
            Prog::Matmul => "matmul",
            Prog::Blur => "blur",
            Prog::Histogram => "histogram",
            Prog::Spmv => "spmv",
        }
    }

    pub fn source(self) -> &'static str {
        match self {
            Prog::Hotspot => hotspot::SOURCE,
            Prog::NBody => nbody::SOURCE,
            Prog::Matmul => matmul::SOURCE,
            Prog::Blur => blur::SOURCE,
            Prog::Histogram => histogram::SOURCE,
            Prog::Spmv => spmv::SOURCE,
        }
    }
}

/// One virtual buffer of an application.
struct Buf {
    bytes: usize,
    elem: usize,
    /// Uploaded from the host before the first launch.
    upload: bool,
}

/// One launch argument; `B` indexes the instance's buffer slots.
#[derive(Clone, Copy)]
enum Arg {
    I(i64),
    F(f32),
    /// The time-step-like float scalar `plan-churn` drifts.
    Dt(f32),
    B(usize),
}

/// One kernel launch of an iteration.
struct Step {
    kernel: &'static str,
    args: Vec<Arg>,
}

/// An application at one problem size.
pub struct App {
    pub prog: Prog,
    pub n: usize,
    grid: Dim3,
    block: Dim3,
    bufs: Vec<Buf>,
    steps: Vec<Step>,
    /// Buffer slots exchanged after every iteration (ping-pong).
    swap: Option<(usize, usize)>,
    /// Slot holding the result after an iteration (read after the swap).
    result: usize,
}

/// The buffers of one application on one runtime. The launch arguments
/// of both ping-pong phases are built once, so the timed loops allocate
/// nothing per launch.
pub struct Instance {
    bufs: Vec<VBufId>,
    swap: Option<(usize, usize)>,
    /// 1 after an odd number of iterations of a ping-pong application.
    phase: usize,
    /// `args[phase][step]`.
    args: [Vec<Vec<LaunchArg>>; 2],
}

impl App {
    pub fn new(prog: Prog, n: usize) -> App {
        let f4 = |bytes, upload| Buf {
            bytes,
            elem: 4,
            upload,
        };
        let i8 = |bytes| Buf {
            bytes,
            elem: 8,
            upload: true,
        };
        let ni = Arg::I(n as i64);
        match prog {
            Prog::Hotspot => {
                let (grid, block) = hotspot::geometry(n);
                App {
                    prog,
                    n,
                    grid,
                    block,
                    // temp_in, temp_out, power: all three uploaded, as in
                    // `Hotspot::mgpu_run_spec`.
                    bufs: vec![
                        f4(n * n * 4, true),
                        f4(n * n * 4, true),
                        f4(n * n * 4, true),
                    ],
                    steps: vec![Step {
                        kernel: "hotspot",
                        args: vec![ni, Arg::Dt(hotspot::CAP), Arg::B(0), Arg::B(2), Arg::B(1)],
                    }],
                    swap: Some((0, 1)),
                    result: 0,
                }
            }
            Prog::NBody => {
                let (grid, block) = nbody::geometry(n);
                App {
                    prog,
                    n,
                    grid,
                    block,
                    // posm, out, vel.
                    bufs: vec![f4(n * 16, true), f4(n * 16, false), f4(n * 16, true)],
                    steps: vec![Step {
                        kernel: "nbody",
                        args: vec![
                            ni,
                            Arg::Dt(nbody::DT),
                            Arg::F(nbody::EPS),
                            Arg::B(0),
                            Arg::B(2),
                            Arg::B(1),
                        ],
                    }],
                    swap: Some((0, 1)),
                    result: 0,
                }
            }
            Prog::Matmul => {
                let (grid, block) = matmul::geometry(n);
                App {
                    prog,
                    n,
                    grid,
                    block,
                    bufs: vec![
                        f4(n * n * 4, true),
                        f4(n * n * 4, true),
                        f4(n * n * 4, false),
                    ],
                    steps: vec![Step {
                        kernel: "matmul",
                        args: vec![ni, Arg::B(0), Arg::B(1), Arg::B(2)],
                    }],
                    swap: None,
                    result: 2,
                }
            }
            Prog::Blur => {
                let (grid, block) = blur::geometry(n);
                App {
                    prog,
                    n,
                    grid,
                    block,
                    bufs: vec![f4(n * n * 4, true), f4(n * n * 4, false)],
                    steps: vec![
                        Step {
                            kernel: "blur_row",
                            args: vec![ni, Arg::B(0), Arg::B(1)],
                        },
                        Step {
                            kernel: "blur_col",
                            args: vec![ni, Arg::B(1), Arg::B(0)],
                        },
                    ],
                    swap: None,
                    result: 0,
                }
            }
            Prog::Histogram => {
                // `n` is the bucket count.
                let (grid, block) = histogram::geometry(n);
                let vals = histogram::val_len(n);
                App {
                    prog,
                    n,
                    grid,
                    block,
                    bufs: vec![i8((n + 1) * 8), f4(vals * 4, true), f4(n * 4, false)],
                    steps: vec![Step {
                        kernel: "histogram",
                        args: vec![
                            ni,
                            Arg::I(n as i64 + 1),
                            Arg::I(vals as i64),
                            Arg::B(0),
                            Arg::B(1),
                            Arg::B(2),
                        ],
                    }],
                    swap: None,
                    result: 2,
                }
            }
            Prog::Spmv => {
                let (grid, block) = spmv::geometry(n);
                App {
                    prog,
                    n,
                    grid,
                    block,
                    bufs: vec![
                        i8(n * spmv::M * 8),
                        f4(n * spmv::M * 4, true),
                        f4(n * 4, true),
                        f4(n * 4, false),
                    ],
                    steps: vec![Step {
                        kernel: "spmv",
                        args: vec![
                            ni,
                            Arg::I(spmv::M as i64),
                            Arg::I(spmv::W),
                            Arg::B(0),
                            Arg::B(1),
                            Arg::B(2),
                            Arg::B(3),
                        ],
                    }],
                    swap: None,
                    result: 3,
                }
            }
        }
    }

    pub fn grid(&self) -> Dim3 {
        self.grid
    }

    pub fn block(&self) -> Dim3 {
        self.block
    }

    /// Kernel launches per iteration.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Threads one iteration launches (all steps, guard-failing threads
    /// included).
    pub fn threads_per_iter(&self) -> u64 {
        self.grid.count() * self.block.count() * self.steps.len() as u64
    }

    /// The compiled kernels of the steps, in step order.
    pub fn kernels<'p>(&self, program: &'p CompiledProgram) -> Vec<&'p CompiledKernel> {
        self.steps
            .iter()
            .map(|s| {
                program
                    .kernel(s.kernel)
                    .expect("step kernel is in its program")
            })
            .collect()
    }

    /// Buffer slots that are uploaded before the first launch.
    pub fn uploads(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.bufs.len()).filter(|&i| self.bufs[i].upload)
    }

    /// A read-only uploaded input (never a ping-pong partner), if the
    /// application has one — the buffer `plan-churn` re-uploads.
    pub fn read_only_input(&self) -> Option<usize> {
        self.uploads()
            .find(|&i| self.swap.is_none_or(|(a, b)| i != a && i != b))
    }

    pub fn buf_bytes(&self, slot: usize) -> usize {
        self.bufs[slot].bytes
    }

    /// Tracker segments over all buffers of an instance.
    pub fn segment_count(&self, rt: &MgpuRuntime, inst: &Instance) -> u64 {
        inst.bufs.iter().map(|&b| rt.segment_count(b) as u64).sum()
    }

    /// `mgpu_malloc` every buffer.
    pub fn malloc(&self, rt: &mut MgpuRuntime) -> Result<Instance, RuntimeError> {
        let bufs: Vec<VBufId> = self
            .bufs
            .iter()
            .map(|b| rt.malloc(b.bytes, b.elem))
            .collect::<Result<_, _>>()?;
        let args_of = |slots: &[VBufId]| -> Vec<Vec<LaunchArg>> {
            self.steps
                .iter()
                .map(|s| {
                    s.args
                        .iter()
                        .map(|a| match *a {
                            Arg::I(v) => LaunchArg::Scalar(Value::I64(v)),
                            Arg::F(v) | Arg::Dt(v) => LaunchArg::Scalar(Value::F32(v)),
                            Arg::B(i) => LaunchArg::Buf(slots[i]),
                        })
                        .collect()
                })
                .collect()
        };
        let mut swapped = bufs.clone();
        if let Some((a, b)) = self.swap {
            swapped.swap(a, b);
        }
        let args = [args_of(&bufs), args_of(&swapped)];
        Ok(Instance {
            bufs,
            swap: self.swap,
            phase: 0,
            args,
        })
    }

    /// Replace the drifting float scalar of every step (both phases).
    pub fn set_dt(&self, inst: &mut Instance, dt: f32) {
        for phase in &mut inst.args {
            for (step, args) in self.steps.iter().zip(phase.iter_mut()) {
                for (a, slot) in step.args.iter().zip(args.iter_mut()) {
                    if matches!(a, Arg::Dt(_)) {
                        *slot = LaunchArg::Scalar(Value::F32(dt));
                    }
                }
            }
        }
    }

    /// The scalar arguments of step `s` as 64-bit integers, the way the
    /// runtime hands them to enumerators (floats read 0).
    pub fn scalars(&self, s: usize) -> Vec<i64> {
        self.steps[s]
            .args
            .iter()
            .filter_map(|a| match a {
                Arg::I(v) => Some(*v),
                Arg::F(_) | Arg::Dt(_) => Some(0),
                Arg::B(_) => None,
            })
            .collect()
    }

    /// Interpreter-level arguments of step `s`; `buf` maps a buffer slot
    /// to its `MemAccess` handle.
    pub fn kernel_args(&self, s: usize, buf: impl Fn(usize) -> usize) -> Vec<KernelArg> {
        self.steps[s]
            .args
            .iter()
            .map(|a| match *a {
                Arg::I(v) => KernelArg::Scalar(Value::I64(v)),
                Arg::F(v) | Arg::Dt(v) => KernelArg::Scalar(Value::F32(v)),
                Arg::B(i) => KernelArg::Array(buf(i)),
            })
            .collect()
    }

    /// Simulated seconds of the single-GPU reference (the "NVCC binary"
    /// of §9): the original kernels on one Kepler device with the
    /// whole-grid polyhedral footprint as traffic, uploads and the final
    /// D2H included — the same recipe as `Benchmark::reference_time`.
    pub fn reference_sim_s(&self, program: &CompiledProgram, iters: usize) -> f64 {
        let kernels = self.kernels(program);
        let whole = Partition::whole(self.grid);
        let mut r = mekong_core::SingleGpuRunner::performance();
        let mut slots: Vec<_> = self.bufs.iter().map(|b| r.malloc(b.bytes)).collect();
        for i in self.uploads() {
            r.machine_mut()
                .copy_h2d_timed(slots[i], 0, self.bufs[i].bytes, false)
                .expect("reference upload");
        }
        for _ in 0..iters {
            for (s, ck) in kernels.iter().enumerate() {
                let traffic = ck.footprint_bytes(&whole, self.block, self.grid, &self.scalars(s));
                let args: Vec<SimArg> = self.steps[s]
                    .args
                    .iter()
                    .map(|a| match *a {
                        Arg::I(v) => SimArg::Scalar(Value::I64(v)),
                        Arg::F(v) | Arg::Dt(v) => SimArg::Scalar(Value::F32(v)),
                        Arg::B(i) => SimArg::Buf(slots[i]),
                    })
                    .collect();
                r.launch_with_traffic(&ck.original, &args, self.grid, self.block, traffic);
            }
            if let Some((a, b)) = self.swap {
                slots.swap(a, b);
            }
        }
        r.synchronize();
        r.machine_mut()
            .copy_d2h_timed(slots[self.result], 0, self.bufs[self.result].bytes, false)
            .expect("reference download");
        r.elapsed()
    }
}

impl Instance {
    /// The buffer currently in slot `i` (ping-pong permutation applied).
    pub fn slot(&self, i: usize) -> VBufId {
        match self.swap {
            Some((a, b)) if self.phase == 1 && i == a => self.bufs[b],
            Some((a, b)) if self.phase == 1 && i == b => self.bufs[a],
            _ => self.bufs[i],
        }
    }

    /// Launch arguments of step `s` in the current phase.
    pub fn args(&self, s: usize) -> &[LaunchArg] {
        &self.args[self.phase][s]
    }

    /// Exchange the ping-pong pair after an iteration.
    pub fn advance(&mut self) {
        if self.swap.is_some() {
            self.phase ^= 1;
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness. Payloads, the
/// churn scalar sequence and the program order all derive from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)` on a 1/1024 lattice, so sums stay well
    /// inside f32 precision.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * (self.below(1024) as f32 / 1024.0)
    }
}

fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn i64_bytes(v: &[i64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Seeded host payloads of one application plus the CPU reference
/// output for `iters` iterations.
pub struct Payload {
    /// Bytes per buffer slot; `None` for buffers that are not uploaded.
    pub uploads: Vec<Option<Vec<u8>>>,
    /// Expected result buffer contents.
    pub expected: Vec<f32>,
    /// Relative tolerance of the comparison (0 = bit-exact).
    pub tolerance: f32,
}

impl App {
    /// Generate inputs from `rng` and run the workload's CPU reference.
    /// Irregular inputs honour the `@mekong … range` annotations of their
    /// sources (banded columns, bounded bucket offsets) — those are
    /// promises about the data, and breaking them is outside the paper's
    /// contract, not a workload.
    pub fn payload(&self, rng: &mut Rng, iters: usize) -> Payload {
        let n = self.n;
        match self.prog {
            Prog::Hotspot => {
                let temp: Vec<f32> = (0..n * n).map(|_| rng.f32_in(0.0, 16.0)).collect();
                let power: Vec<f32> = (0..n * n).map(|_| rng.f32_in(0.0, 1.0)).collect();
                let expected = hotspot::cpu_reference(n, &temp, &power, iters);
                let tb = f32_bytes(&temp);
                Payload {
                    uploads: vec![Some(tb.clone()), Some(tb), Some(f32_bytes(&power))],
                    expected,
                    tolerance: 1e-3,
                }
            }
            Prog::NBody => {
                let mut posm: Vec<f32> = (0..n * 4)
                    .map(|i| {
                        if i % 4 == 3 {
                            rng.f32_in(1.0, 2.0)
                        } else {
                            rng.f32_in(-2.0, 2.0)
                        }
                    })
                    .collect();
                let mut vel = vec![0.0f32; n * 4];
                let uploads = vec![Some(f32_bytes(&posm)), None, Some(f32_bytes(&vel))];
                nbody::cpu_reference(n, &mut posm, &mut vel, iters);
                Payload {
                    uploads,
                    expected: posm,
                    tolerance: 1e-2,
                }
            }
            Prog::Matmul => {
                let a: Vec<f32> = (0..n * n).map(|_| rng.f32_in(-3.0, 3.0)).collect();
                let b: Vec<f32> = (0..n * n).map(|_| rng.f32_in(-2.0, 2.0)).collect();
                Payload {
                    uploads: vec![Some(f32_bytes(&a)), Some(f32_bytes(&b)), None],
                    expected: matmul::cpu_reference(n, &a, &b),
                    tolerance: 1e-3,
                }
            }
            Prog::Blur => {
                let img: Vec<f32> = (0..n * n).map(|_| rng.f32_in(0.0, 255.0)).collect();
                Payload {
                    uploads: vec![Some(f32_bytes(&img)), None],
                    expected: blur::cpu_reference(n, &img, iters),
                    tolerance: 1e-3,
                }
            }
            Prog::Histogram => {
                let cap = histogram::CAP as u64;
                let off: Vec<i64> = (0..=n as u64)
                    .map(|i| (cap * i + rng.below(cap + 1)) as i64)
                    .collect();
                let val: Vec<f32> = (0..histogram::val_len(n))
                    .map(|_| rng.below(101) as f32)
                    .collect();
                Payload {
                    uploads: vec![Some(i64_bytes(&off)), Some(f32_bytes(&val)), None],
                    expected: histogram::cpu_reference(n, &off, &val),
                    tolerance: 0.0,
                }
            }
            Prog::Spmv => {
                let band = 2 * spmv::W as u64 + 1;
                let mut cols = Vec::with_capacity(n * spmv::M);
                for r in 0..n as i64 {
                    for _ in 0..spmv::M {
                        let c = r - spmv::W + rng.below(band) as i64;
                        cols.push(c.clamp(0, n as i64 - 1));
                    }
                }
                let vals: Vec<f32> = (0..n * spmv::M)
                    .map(|_| rng.below(63) as f32 * 0.125)
                    .collect();
                let x: Vec<f32> = (0..n).map(|_| rng.below(97) as f32 * 0.25).collect();
                Payload {
                    uploads: vec![
                        Some(i64_bytes(&cols)),
                        Some(f32_bytes(&vals)),
                        Some(f32_bytes(&x)),
                        None,
                    ],
                    expected: spmv::cpu_reference(n, &cols, &vals, &x),
                    tolerance: 0.0,
                }
            }
        }
    }

    pub fn result_slot(&self) -> usize {
        self.result
    }
}

impl Payload {
    /// Does `out` (little-endian f32 bytes) match the CPU reference?
    pub fn matches(&self, out: &[u8]) -> bool {
        out.len() == self.expected.len() * 4
            && out
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .zip(&self.expected)
                .all(|(g, w)| (g - w).abs() <= self.tolerance * w.abs().max(1.0))
    }
}
