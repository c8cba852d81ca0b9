//! Separable Gaussian blur — a beyond-the-paper workload demonstrating
//! toolchain generality: a two-kernel pipeline whose passes have
//! *orthogonal* halo patterns.
//!
//! * the **row pass** reads an x-window around each cell: with the
//!   suggested Y split its reads stay entirely partition-local (zero
//!   cross-device traffic after the initial distribution);
//! * the **column pass** reads a y-window: every iteration needs a halo
//!   exchange exactly like Hotspot.
//!
//! The contrast makes the pipeline a good test of the per-kernel access
//! models: the same buffer is synchronized very differently depending on
//! which kernel reads it next.

use crate::app::{f32_bytes, App, Arg, Buffer, Check, Launch};
use crate::harness::Benchmark;
use mekong_core::prelude::*;

/// The blur benchmark (extra, not part of the paper's Table 1).
pub struct Blur;

/// 5-tap separable Gaussian, clamped borders.
pub const SOURCE: &str = r#"
__global__ void blur_row(int n, float inp[n][n], float out[n][n]) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    if (x >= n || y >= n) return;
    float c = inp[y][x];
    float m1 = x > 0 ? inp[y][x - 1] : c;
    float m2 = x > 1 ? inp[y][x - 2] : m1;
    float p1 = x < n - 1 ? inp[y][x + 1] : c;
    float p2 = x < n - 2 ? inp[y][x + 2] : p1;
    out[y][x] = 0.0625f * m2 + 0.25f * m1 + 0.375f * c + 0.25f * p1 + 0.0625f * p2;
}

__global__ void blur_col(int n, float inp[n][n], float out[n][n]) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    if (x >= n || y >= n) return;
    float c = inp[y][x];
    float m1 = y > 0 ? inp[y - 1][x] : c;
    float m2 = y > 1 ? inp[y - 2][x] : m1;
    float p1 = y < n - 1 ? inp[y + 1][x] : c;
    float p2 = y < n - 2 ? inp[y + 2][x] : p1;
    out[y][x] = 0.0625f * m2 + 0.25f * m1 + 0.375f * c + 0.25f * p1 + 0.0625f * p2;
}

int main() {
    blur_row<<<grid, block>>>(n, img, tmp);
    blur_col<<<grid, block>>>(n, tmp, img2);
    return 0;
}
"#;

/// Launch geometry: 32×4 thread blocks.
pub fn geometry(n: usize) -> (Dim3, Dim3) {
    let block = Dim3::new2(32, 4);
    let grid = Dim3::new2((n as u32).div_ceil(block.x), (n as u32).div_ceil(block.y));
    (grid, block)
}

const W: [f32; 5] = [0.0625, 0.25, 0.375, 0.25, 0.0625];

/// CPU reference: `iters` row+column pass pairs with clamped borders.
pub fn cpu_reference(n: usize, img: &[f32], iters: usize) -> Vec<f32> {
    let clamp = |v: i64| -> usize { v.clamp(0, n as i64 - 1) as usize };
    // Replicate the kernel's cascading clamp (m2 falls back to m1 etc.).
    let tap = |buf: &[f32], y: usize, x: usize, horizontal: bool| -> f32 {
        let at = |dy: i64, dx: i64| buf[clamp(y as i64 + dy) * n + clamp(x as i64 + dx)];
        let (m2, m1, c, p1, p2) = if horizontal {
            (
                if x > 1 {
                    at(0, -2)
                } else if x > 0 {
                    at(0, -1)
                } else {
                    at(0, 0)
                },
                if x > 0 { at(0, -1) } else { at(0, 0) },
                at(0, 0),
                if x < n - 1 { at(0, 1) } else { at(0, 0) },
                if x < n - 2 {
                    at(0, 2)
                } else if x < n - 1 {
                    at(0, 1)
                } else {
                    at(0, 0)
                },
            )
        } else {
            (
                if y > 1 {
                    at(-2, 0)
                } else if y > 0 {
                    at(-1, 0)
                } else {
                    at(0, 0)
                },
                if y > 0 { at(-1, 0) } else { at(0, 0) },
                at(0, 0),
                if y < n - 1 { at(1, 0) } else { at(0, 0) },
                if y < n - 2 {
                    at(2, 0)
                } else if y < n - 1 {
                    at(1, 0)
                } else {
                    at(0, 0)
                },
            )
        };
        W[0] * m2 + W[1] * m1 + W[2] * c + W[3] * p1 + W[4] * p2
    };
    let mut cur = img.to_vec();
    let mut tmp = vec![0.0f32; n * n];
    for _ in 0..iters {
        for y in 0..n {
            for x in 0..n {
                tmp[y * n + x] = tap(&cur, y, x, true);
            }
        }
        for y in 0..n {
            for x in 0..n {
                cur[y * n + x] = tap(&tmp, y, x, false);
            }
        }
    }
    cur
}

/// Seeded input image of side `n`.
pub fn image(n: usize) -> Vec<f32> {
    (0..n * n).map(|i| ((i * 41) % 211) as f32).collect()
}

impl Benchmark for Blur {
    fn name(&self) -> &'static str {
        "Blur"
    }

    fn sizes(&self) -> [usize; 3] {
        [8_192, 16_384, 32_768]
    }

    fn iterations(&self) -> usize {
        100
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn describe(&self, n: usize) -> App {
        let (grid, block) = geometry(n);
        let pass = |kernel, from, to| Launch {
            kernel,
            grid,
            block,
            args: vec![Arg::int(n), Arg::Buf(from), Arg::Buf(to)],
        };
        App {
            source: SOURCE,
            // 0: the image, blurred in place through 1: the row-pass
            // intermediate.
            buffers: vec![
                Buffer::f32_input(n * n, move || image(n)),
                Buffer::f32_output(n * n),
            ],
            launches: vec![pass("blur_row", 0, 1), pass("blur_col", 1, 0)],
            swap: None,
            outputs: vec![0],
            check: Check {
                n: 64,
                iters: 3,
                rel_tol: 1e-2,
            },
        }
    }

    fn reference_output(&self, n: usize, iters: usize) -> Vec<u8> {
        f32_bytes(&cpu_reference(n, &image(n), iters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_gpusim::Machine;
    use mekong_runtime::RuntimeConfig;

    #[test]
    fn both_passes_are_partitionable_and_split_rows() {
        let program = mekong_core::compile_source(SOURCE).unwrap();
        for name in ["blur_row", "blur_col"] {
            let ck = program.kernel(name).unwrap();
            assert!(ck.is_partitionable(), "{name}: {:?}", ck.model.verdict);
            assert_eq!(ck.model.partitioning, SplitAxis::Y, "{name}");
        }
    }

    #[test]
    fn row_pass_needs_no_halo_but_col_pass_does() {
        // Three iterations on 4 GPUs with the column pass replaced by a
        // second row pass, against the full pipeline.
        let mut rows_only = Blur.describe(2048);
        rows_only.launches[1].kernel = "blur_row";
        let machine = Machine::new(MachineSpec::kepler_system(4), false);
        let mut p = rows_only.prepare(machine, RuntimeConfig::default());
        p.steps(3);
        p.rt.synchronize();
        // Row-pass reads are partition-local under a Y split: zero halo.
        assert_eq!(
            p.rt.machine().counters().d2d_copies,
            0,
            "row pass should need no cross-device transfers"
        );
        // The full pipeline (with column passes) does exchange halos.
        let o = Blur.mgpu_run(2048, 3, 4, RuntimeConfig::alpha());
        assert!(o.counters.d2d_copies > 0, "column pass must exchange halos");
    }
}
