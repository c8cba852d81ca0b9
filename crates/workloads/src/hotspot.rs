//! Hotspot: a 5-point stencil on a quadratic grid (Rodinia-style thermal
//! simulation, §9.1). Iterative with ping-pong temperature buffers and a
//! fixed (Dirichlet) boundary; computation per thread is constant and low,
//! so the benchmark is sensitive to distribution overheads.

use crate::app::{f32_bytes, App, Arg, Buffer, Check, Launch};
use crate::harness::Benchmark;
use mekong_core::prelude::*;

/// The Hotspot benchmark.
pub struct Hotspot;

/// Mini-CUDA source of the hotspot application.
pub const SOURCE: &str = r#"
__global__ void hotspot(int n, float cap, float temp[n][n], float power[n][n], float out[n][n]) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    if (x >= n || y >= n) return;
    float c = temp[y][x];
    float l = x > 0 ? temp[y][x - 1] : c;
    float r = x < n - 1 ? temp[y][x + 1] : c;
    float u = y > 0 ? temp[y - 1][x] : c;
    float d = y < n - 1 ? temp[y + 1][x] : c;
    float delta = cap * (power[y][x] + (l + r - 2.0f * c) + (u + d - 2.0f * c));
    out[y][x] = c + delta;
}

int main() {
    /* host skeleton (rewritten by the toolchain; execution drives the
       runtime directly from Rust) */
    hotspot<<<grid, block>>>(n, cap, temp_in, power, temp_out);
    return 0;
}
"#;

/// Thermal update coefficient used in all runs.
pub const CAP: f32 = 0.125;

/// Launch geometry for a side length `n`: 32×4 thread blocks.
pub fn geometry(n: usize) -> (Dim3, Dim3) {
    let block = Dim3::new2(32, 4);
    let grid = Dim3::new2((n as u32).div_ceil(block.x), (n as u32).div_ceil(block.y));
    (grid, block)
}

/// CPU reference: `iters` Jacobi steps with clamped (replicated) boundary
/// neighbors, matching the kernel.
pub fn cpu_reference(n: usize, temp: &[f32], power: &[f32], iters: usize) -> Vec<f32> {
    let mut cur = temp.to_vec();
    let mut next = temp.to_vec();
    for _ in 0..iters {
        for y in 0..n {
            for x in 0..n {
                let c = cur[y * n + x];
                let l = if x > 0 { cur[y * n + x - 1] } else { c };
                let r = if x < n - 1 { cur[y * n + x + 1] } else { c };
                let u = if y > 0 { cur[(y - 1) * n + x] } else { c };
                let d = if y < n - 1 { cur[(y + 1) * n + x] } else { c };
                let delta = CAP * (power[y * n + x] + (l + r - 2.0 * c) + (u + d - 2.0 * c));
                next[y * n + x] = c + delta;
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Seeded initial temperatures of an `n`×`n` grid.
pub fn temperature(n: usize) -> Vec<f32> {
    (0..n * n).map(|i| ((i * 31) % 173) as f32 * 0.1).collect()
}

/// Seeded power dissipation of an `n`×`n` grid.
pub fn power(n: usize) -> Vec<f32> {
    (0..n * n).map(|i| ((i * 17) % 97) as f32 * 0.01).collect()
}

impl Benchmark for Hotspot {
    fn name(&self) -> &'static str {
        "Hotspot"
    }

    fn sizes(&self) -> [usize; 3] {
        [8_192, 16_384, 36_864]
    }

    fn iterations(&self) -> usize {
        1_500
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn describe(&self, n: usize) -> App {
        let (grid, block) = geometry(n);
        App {
            source: SOURCE,
            // 0/1: the ping-pong temperature pair (both sides seeded, as
            // the Rodinia driver does); 2: power, read-only.
            buffers: vec![
                Buffer::f32_input(n * n, move || temperature(n)),
                Buffer::f32_input(n * n, move || temperature(n)),
                Buffer::f32_input(n * n, move || power(n)),
            ],
            launches: vec![Launch {
                kernel: "hotspot",
                grid,
                block,
                args: vec![
                    Arg::int(n),
                    Arg::Scalar(Value::F32(CAP)),
                    Arg::Buf(0),
                    Arg::Buf(2),
                    Arg::Buf(1),
                ],
            }],
            swap: Some((0, 1)),
            outputs: vec![0],
            check: Check {
                n: 96,
                iters: 7,
                rel_tol: 1e-3,
            },
        }
    }

    fn reference_output(&self, n: usize, iters: usize) -> Vec<u8> {
        f32_bytes(&cpu_reference(n, &temperature(n), &power(n), iters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_runtime::RuntimeConfig;

    #[test]
    fn hotspot_model_splits_rows() {
        let program = mekong_core::compile_source(SOURCE).unwrap();
        let ck = program.kernel("hotspot").unwrap();
        assert!(ck.is_partitionable(), "{:?}", ck.model.verdict);
        assert_eq!(ck.model.partitioning, SplitAxis::Y);
    }

    #[test]
    fn hotspot_multi_gpu_is_faster_than_one() {
        let t1 = Hotspot
            .mgpu_run(2048, 20, 1, RuntimeConfig::alpha())
            .elapsed;
        let t4 = Hotspot
            .mgpu_run(2048, 20, 4, RuntimeConfig::alpha())
            .elapsed;
        assert!(t4 < t1, "4 GPUs {t4} should beat 1 GPU {t1}");
    }

    #[test]
    fn hotspot_halo_transfers_scale_with_gpus() {
        let c4 = Hotspot
            .mgpu_run(2048, 10, 4, RuntimeConfig::alpha())
            .counters;
        let c8 = Hotspot
            .mgpu_run(2048, 10, 8, RuntimeConfig::alpha())
            .counters;
        // More boundaries, more halo copies.
        assert!(c8.d2d_copies > c4.d2d_copies);
        // Halo volume per iteration is proportional to boundary count.
        assert!(c8.d2d_bytes > c4.d2d_bytes);
    }
}
