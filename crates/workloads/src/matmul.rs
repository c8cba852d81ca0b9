//! Matmul: dense square matrix product (§9.1). A single launch; the
//! second operand is read column-wise by every row-partition but arrives
//! linearly distributed (the default H2D pattern, §8.2) — the runtime
//! corrects the mismatch before the kernel starts, and that initial
//! redistribution limits scalability.

use crate::app::{f32_bytes, App, Arg, Buffer, Check, Launch};
use crate::harness::Benchmark;
use mekong_core::prelude::*;

/// The Matmul benchmark.
pub struct Matmul;

/// Mini-CUDA source: `C = A × B`, one output element per thread, blocked
/// 16×16 (the "basic tiled implementation" of §9.1 without shared-memory
/// staging, which our dialect does not model).
pub const SOURCE: &str = r#"
__global__ void matmul(int n, float A[n][n], float B[n][n], float C[n][n]) {
    int col = blockIdx.x * blockDim.x + threadIdx.x;
    int row = blockIdx.y * blockDim.y + threadIdx.y;
    if (row >= n || col >= n) return;
    float acc = 0.0f;
    for (int k = 0; k < n; k++) {
        acc += A[row][k] * B[k][col];
    }
    C[row][col] = acc;
}

int main() {
    matmul<<<grid, block>>>(n, A, B, C);
    return 0;
}
"#;

/// Launch geometry: 16×16 thread blocks.
pub fn geometry(n: usize) -> (Dim3, Dim3) {
    let block = Dim3::new2(16, 16);
    let grid = Dim3::new2((n as u32).div_ceil(block.x), (n as u32).div_ceil(block.y));
    (grid, block)
}

/// CPU reference.
pub fn cpu_reference(n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; n * n];
    for row in 0..n {
        for k in 0..n {
            let av = a[row * n + k];
            for col in 0..n {
                c[row * n + col] += av * b[k * n + col];
            }
        }
    }
    c
}

/// Seeded left and right operands of side `n`.
pub fn operands(n: usize) -> (Vec<f32>, Vec<f32>) {
    (
        (0..n * n).map(|i| ((i * 13) % 7) as f32 - 3.0).collect(),
        (0..n * n).map(|i| ((i * 11) % 5) as f32 - 2.0).collect(),
    )
}

impl Benchmark for Matmul {
    fn name(&self) -> &'static str {
        "Matmul"
    }

    fn sizes(&self) -> [usize; 3] {
        [8_192, 16_384, 30_656]
    }

    fn iterations(&self) -> usize {
        1
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn describe(&self, n: usize) -> App {
        let (grid, block) = geometry(n);
        App {
            source: SOURCE,
            buffers: vec![
                Buffer::f32_input(n * n, move || operands(n).0),
                Buffer::f32_input(n * n, move || operands(n).1),
                Buffer::f32_output(n * n),
            ],
            launches: vec![Launch {
                kernel: "matmul",
                grid,
                block,
                args: vec![Arg::int(n), Arg::Buf(0), Arg::Buf(1), Arg::Buf(2)],
            }],
            swap: None,
            outputs: vec![2],
            check: Check {
                n: 64,
                iters: 1,
                rel_tol: 1e-3,
            },
        }
    }

    fn reference_output(&self, n: usize, _iters: usize) -> Vec<u8> {
        let (a, b) = operands(n);
        f32_bytes(&cpu_reference(n, &a, &b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_runtime::RuntimeConfig;

    #[test]
    fn matmul_model_splits_rows() {
        let program = mekong_core::compile_source(SOURCE).unwrap();
        let ck = program.kernel("matmul").unwrap();
        assert!(ck.is_partitionable(), "{:?}", ck.model.verdict);
        assert_eq!(ck.model.partitioning, SplitAxis::Y);
    }

    #[test]
    fn matmul_redistribution_shows_in_counters() {
        // The column-wise read of B against the linear distribution causes
        // substantial device-to-device traffic before the kernel runs.
        let o = Matmul.mgpu_run(2048, 1, 4, RuntimeConfig::alpha());
        let total_b = (2048usize * 2048 * 4) as u64;
        // Each of the 4 GPUs needs the 3/4 of B it does not own.
        assert!(
            o.counters.d2d_bytes >= 3 * total_b / 2,
            "expected heavy redistribution, got {} bytes",
            o.counters.d2d_bytes
        );
    }
}
