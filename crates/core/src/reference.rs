//! The single-GPU reference path — the "NVCC binary" baseline of §9.
//!
//! Runs the *original* (untransformed) kernel on a one-device machine
//! with plain allocations and copies: no virtual buffers, no tracker, no
//! enumerators. Speedups in Figure 6 are measured against this.

use mekong_gpusim::{Backend, DevBuf, Machine, MachineSpec, SimArg};
use mekong_kernel::{Dim3, Kernel, Value};

/// A minimal single-device runner.
pub struct SingleGpuRunner {
    machine: Machine,
}

impl SingleGpuRunner {
    /// A functional (data-materializing) single-GPU machine.
    pub fn functional() -> SingleGpuRunner {
        SingleGpuRunner {
            machine: Machine::new(MachineSpec::kepler_single(), true),
        }
    }

    /// A performance-mode single-GPU machine (timing only).
    pub fn performance() -> SingleGpuRunner {
        SingleGpuRunner {
            machine: Machine::new(MachineSpec::kepler_single(), false),
        }
    }

    /// The underlying machine, through the same op surface
    /// `MgpuRuntime::machine` hands out.
    pub fn machine(&self) -> &dyn Backend {
        &self.machine
    }

    /// Mutable access (timing-only copies, clock resets etc.).
    pub fn machine_mut(&mut self) -> &mut dyn Backend {
        &mut self.machine
    }

    /// `cudaMalloc`.
    pub fn malloc(&mut self, bytes: usize) -> DevBuf {
        self.machine.alloc(0, bytes).expect("device 0 exists")
    }

    /// `cudaMemcpy(HostToDevice)`.
    pub fn h2d(&mut self, dst: DevBuf, data: &[u8]) {
        self.machine
            .copy_h2d(data, dst, 0, false)
            .expect("h2d within bounds");
    }

    /// `cudaMemcpy(DeviceToHost)`.
    pub fn d2h(&mut self, src: DevBuf, out: &mut [u8]) {
        self.machine
            .copy_d2h(src, 0, out, false)
            .expect("d2h within bounds");
    }

    /// Launch the kernel over the full grid on device 0.
    pub fn launch(&mut self, kernel: &Kernel, args: &[SimArg], grid: Dim3, block: Dim3) {
        self.machine
            .launch(0, kernel, args, grid, block, None, &[])
            .expect("reference launch");
    }

    /// Launch with an explicit memory-traffic estimate (the whole-grid
    /// polyhedral footprint) so baseline and partitioned runs share the
    /// same roofline assumptions.
    pub fn launch_with_traffic(
        &mut self,
        kernel: &Kernel,
        args: &[SimArg],
        grid: Dim3,
        block: Dim3,
        traffic: u64,
    ) {
        self.machine
            .launch(0, kernel, args, grid, block, Some(traffic), &[])
            .expect("reference launch");
    }

    /// `cudaDeviceSynchronize`.
    pub fn synchronize(&mut self) {
        self.machine.sync_all();
    }

    /// Elapsed simulated time.
    pub fn elapsed(&self) -> f64 {
        self.machine.now()
    }

    /// Scalar argument helper.
    pub fn scalar(v: i64) -> SimArg {
        SimArg::Scalar(Value::I64(v))
    }

    /// Buffer argument helper.
    pub fn buf(b: DevBuf) -> SimArg {
        SimArg::Buf(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_kernel::builder::*;
    use mekong_kernel::Kernel;

    #[test]
    fn reference_run_computes_and_times() {
        let k = Kernel {
            name: "twice".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[ext("n")]),
                array_f32("b", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("b", vec![v("i")], load("a", vec![v("i")]) * f(2.0)),
            ],
        };
        let n = 256usize;
        let mut r = SingleGpuRunner::functional();
        let a = r.malloc(n * 4);
        let b = r.malloc(n * 4);
        let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        r.h2d(a, &data);
        r.launch(
            &k,
            &[
                SingleGpuRunner::scalar(n as i64),
                SingleGpuRunner::buf(a),
                SingleGpuRunner::buf(b),
            ],
            Dim3::new1(2),
            Dim3::new1(128),
        );
        r.synchronize();
        let mut out = vec![0u8; n * 4];
        r.d2h(b, &mut out);
        let v: Vec<f32> = out
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(v[100], 200.0);
        assert!(r.elapsed() > 0.0);
    }
}
