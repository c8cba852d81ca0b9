//! A workload said once, as data — and the two interpreters that run it.
//!
//! An [`App`] lists what a workload *is* at one problem size: its
//! mini-CUDA source, its buffers (size, element width, seeded host
//! contents), the launches of one iteration, the ping-pong swap between
//! iterations and the buffers read back at the end. Nothing else in the
//! repo spells a workload's launch loop: [`App::reference_time`] drives
//! the description on the single-GPU baseline, [`App::prepare`] on the
//! Mekong runtime (any machine, any configuration), and the bench
//! driver's serving ablation feeds the same description to a
//! `FleetServer`.

use mekong_core::prelude::*;
use mekong_gpusim::DevBuf;

/// Generator of a buffer's seeded host contents (little-endian bytes).
/// Lazy, because performance-mode runs at paper scale never materialise
/// payloads.
pub type Input = Box<dyn Fn() -> Vec<u8>>;

/// One device buffer of a workload.
pub struct Buffer {
    pub bytes: usize,
    pub elem_size: usize,
    /// Host contents uploaded before the first iteration; `None` for
    /// buffers only kernels write.
    pub input: Option<Input>,
}

impl Buffer {
    /// `len` `f32` elements uploaded from `gen`.
    pub(crate) fn f32_input(len: usize, gen: impl Fn() -> Vec<f32> + 'static) -> Buffer {
        Buffer {
            bytes: len * 4,
            elem_size: 4,
            input: Some(Box::new(move || f32_bytes(&gen()))),
        }
    }

    /// `len` `i64` elements uploaded from `gen`.
    pub(crate) fn i64_input(len: usize, gen: impl Fn() -> Vec<i64> + 'static) -> Buffer {
        Buffer {
            bytes: len * 8,
            elem_size: 8,
            input: Some(Box::new(move || {
                gen().iter().flat_map(|v| v.to_le_bytes()).collect()
            })),
        }
    }

    /// `len` `f32` elements that are never uploaded.
    pub fn f32_output(len: usize) -> Buffer {
        Buffer {
            bytes: len * 4,
            elem_size: 4,
            input: None,
        }
    }
}

/// One kernel argument: a scalar value or an index into [`App::buffers`].
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    Scalar(Value),
    Buf(usize),
}

impl Arg {
    /// An integer scalar (sizes, extents).
    pub fn int(v: usize) -> Arg {
        Arg::Scalar(Value::I64(v as i64))
    }
}

/// One kernel launch of an iteration.
pub struct Launch {
    pub kernel: &'static str,
    pub grid: Dim3,
    pub block: Dim3,
    pub args: Vec<Arg>,
}

impl Launch {
    /// The runtime arguments with buffer indices resolved through
    /// `slots`.
    pub fn launch_args(&self, slots: &[VBufId]) -> Vec<LaunchArg> {
        self.args
            .iter()
            .map(|a| match *a {
                Arg::Scalar(v) => LaunchArg::Scalar(v),
                Arg::Buf(i) => LaunchArg::Buf(slots[i]),
            })
            .collect()
    }

    /// The integer scalars in parameter order, floats as 0 — the array
    /// the enumerators take (§6.2), as `MgpuRuntime::launch` derives it.
    pub fn scalars(&self) -> Vec<i64> {
        self.args
            .iter()
            .filter_map(|a| match a {
                Arg::Scalar(v) => Some(v.as_i64().unwrap_or(0)),
                Arg::Buf(_) => None,
            })
            .collect()
    }
}

/// The scaled-down functional check of a workload: problem size,
/// iteration count and the relative tolerance against the CPU reference
/// (`0.0` = the bytes must be equal). Fixed per workload, whatever size
/// the surrounding [`App`] describes.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    pub n: usize,
    pub iters: usize,
    pub rel_tol: f32,
}

impl Check {
    /// Do the output bytes `got` match the reference bytes `want` (both
    /// little-endian `f32`s) within the tolerance?
    pub fn accepts(&self, got: &[u8], want: &[u8]) -> bool {
        if self.rel_tol == 0.0 {
            return got == want;
        }
        got.len() == want.len()
            && f32_values(got)
                .iter()
                .zip(&f32_values(want))
                .all(|(g, w)| (g - w).abs() <= self.rel_tol * w.abs().max(1.0))
    }
}

/// A workload at one problem size.
pub struct App {
    pub source: &'static str,
    /// Allocated (and, where seeded, uploaded) in this order.
    pub buffers: Vec<Buffer>,
    /// The launches of one iteration, in order.
    pub launches: Vec<Launch>,
    /// Buffer indices whose roles are exchanged after every iteration.
    pub swap: Option<(usize, usize)>,
    /// Buffer indices read back after the last iteration (resolved
    /// through the swaps, so a ping-pong output names the *source* side).
    pub outputs: Vec<usize>,
    pub check: Check,
}

impl App {
    /// Single-GPU reference run (original kernels, no runtime) in
    /// performance mode, with the whole-grid polyhedral footprint as the
    /// traffic estimate. Returns simulated seconds.
    pub fn reference_time(&self, iters: usize) -> f64 {
        let program = compile_source(self.source).expect("workload compiles");
        let sites: Vec<(&CompiledKernel, u64)> = self
            .launches
            .iter()
            .map(|l| {
                let ck = program.kernel(l.kernel).expect("kernel is in the source");
                let whole = Partition::whole(l.grid);
                (
                    ck,
                    ck.footprint_bytes(&whole, l.block, l.grid, &l.scalars()),
                )
            })
            .collect();
        let mut r = SingleGpuRunner::performance();
        let mut slots: Vec<DevBuf> = self.buffers.iter().map(|b| r.malloc(b.bytes)).collect();
        for (b, &buf) in self.buffers.iter().zip(&slots) {
            if b.input.is_some() {
                r.machine_mut()
                    .copy_h2d_timed(buf, 0, buf.len, false)
                    .expect("upload within bounds");
            }
        }
        for _ in 0..iters {
            for (l, &(ck, traffic)) in self.launches.iter().zip(&sites) {
                let args: Vec<SimArg> = l
                    .args
                    .iter()
                    .map(|a| match *a {
                        Arg::Scalar(v) => SimArg::Scalar(v),
                        Arg::Buf(i) => SimArg::Buf(slots[i]),
                    })
                    .collect();
                r.launch_with_traffic(&ck.original, &args, l.grid, l.block, traffic);
            }
            if let Some((i, j)) = self.swap {
                slots.swap(i, j);
            }
        }
        r.synchronize();
        for &o in &self.outputs {
            r.machine_mut()
                .copy_d2h_timed(slots[o], 0, slots[o].len, false)
                .expect("read-back within bounds");
        }
        r.elapsed()
    }

    /// Build the workload on the Mekong runtime over `machine`: compile,
    /// configure, allocate and upload. A functional machine gets the
    /// seeded payloads, a performance machine timing-only uploads.
    pub fn prepare(self, machine: Machine, cfg: RuntimeConfig) -> Prepared {
        let program = compile_source(self.source).expect("workload compiles");
        let functional = machine.is_functional();
        let mut rt = MgpuRuntime::new(machine);
        rt.set_config(cfg);
        let slots: Vec<VBufId> = self
            .buffers
            .iter()
            .map(|b| rt.malloc(b.bytes, b.elem_size).expect("buffer allocates"))
            .collect();
        for (b, &id) in self.buffers.iter().zip(&slots) {
            let Some(input) = &b.input else { continue };
            let uploaded = if functional {
                rt.memcpy_h2d(id, &input())
            } else {
                rt.memcpy_h2d_sim(id)
            };
            uploaded.expect("upload succeeds");
        }
        let sites = self
            .launches
            .iter()
            .map(|l| Site {
                ck: program
                    .kernel(l.kernel)
                    .expect("kernel is in the source")
                    .clone(),
                grid: l.grid,
                block: l.block,
                args: l.launch_args(&slots),
            })
            .collect();
        Prepared {
            rt,
            sites,
            app: self,
            slots,
        }
    }
}

/// One launch site of a prepared workload, as the tuner sees it.
pub struct Site {
    /// An own copy: an ablation may edit the model before stepping.
    pub ck: CompiledKernel,
    pub grid: Dim3,
    pub block: Dim3,
    /// The arguments of the first iteration.
    pub args: Vec<LaunchArg>,
}

/// A workload built on a runtime: buffers uploaded, ready to step.
pub struct Prepared {
    pub rt: MgpuRuntime,
    /// One per entry of the launch list.
    pub sites: Vec<Site>,
    app: App,
    slots: Vec<VBufId>,
}

impl Prepared {
    /// The runtime buffer currently bound to buffer index `i`.
    pub fn buffer(&self, i: usize) -> VBufId {
        self.slots[i]
    }

    /// `n` iterations.
    pub fn steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// One iteration: the launch list, then the ping-pong swap.
    pub fn step(&mut self) {
        for (l, site) in self.app.launches.iter().zip(&self.sites) {
            self.rt
                .launch(&site.ck, l.grid, l.block, &l.launch_args(&self.slots))
                .unwrap_or_else(|e| panic!("{} launch: {e}", l.kernel));
        }
        if let Some((i, j)) = self.app.swap {
            self.slots.swap(i, j);
        }
    }

    /// Synchronize and read the output buffers back: their bytes on a
    /// functional machine, timed transfers (and empty vectors) on a
    /// performance machine.
    pub fn read_outputs(&mut self) -> Vec<Vec<u8>> {
        self.rt.synchronize();
        let functional = self.rt.machine().is_functional();
        self.app
            .outputs
            .iter()
            .map(|&o| {
                let id = self.slots[o];
                let mut out = Vec::new();
                let read = if functional {
                    out.resize(self.rt.buffer_len(id), 0);
                    self.rt.memcpy_d2h(id, &mut out)
                } else {
                    self.rt.memcpy_d2h_sim(id)
                };
                read.expect("read-back succeeds");
                out
            })
            .collect()
    }

    /// `iters` iterations, then [`Prepared::read_outputs`].
    pub fn run(&mut self, iters: usize) -> Vec<Vec<u8>> {
        self.steps(iters);
        self.read_outputs()
    }
}

/// Little-endian bytes of an `f32` slice.
pub(crate) fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// The `f32`s of a little-endian byte buffer.
fn f32_values(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}
