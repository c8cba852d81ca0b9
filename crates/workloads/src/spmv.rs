//! Banded ELLPACK sparse matrix–vector product — an *irregular*
//! workload (extra, beyond the paper's Table 1) with an **indirect
//! gather**: `x[cols[r][j]]` reads the dense vector through a column
//! index loaded from memory.
//!
//! The polyhedral domain sees `x[c]` with `c` data-dependent and would
//! give up (an unbounded may-read rejects nothing but prices the whole
//! array). The `@mekong … range` annotation promises the matrix is
//! *banded* — `cols[r][j] ∈ [r − w, r + w]` — so the interval abstract
//! interpreter derives a bounded may-read box for `x`: row `r` gathers
//! at most the `2w + 1` band around `r`. Partitioning rows then needs
//! only a `w`-deep halo of `x` per device, exactly like a stencil, and
//! the runtime's `mayread_overfetch_bytes` counter reports how much of
//! the fetched band the gather left untouched.

use crate::app::{f32_bytes, App, Arg, Buffer, Check, Launch};
use crate::harness::Benchmark;
use mekong_core::prelude::*;

/// The SpMV benchmark (extra, not part of the paper's Table 1).
pub struct Spmv;

/// Non-zeros per row (ELL width).
pub const M: usize = 16;
/// Band half-width promised by the range annotation.
pub const W: i64 = 32;

/// ELL SpMV with a banded-column promise on the gather index.
pub const SOURCE: &str = r#"
// @mekong spmv range cols : $0 - w .. $0 + w
__global__ void spmv(int n, int m, int w, int cols[n][m], float vals[n][m], float x[n], float y[n]) {
    int r = blockIdx.x * blockDim.x + threadIdx.x;
    if (r >= n) return;
    float acc = 0.0f;
    for (int j = 0; j < m; j++) {
        int c = cols[r][j];
        acc = acc + vals[r][j] * x[c];
    }
    y[r] = acc;
}

int main() {
    spmv<<<grid, block>>>(n, m, w, cols, vals, x, y);
    return 0;
}
"#;

/// Launch geometry: one thread per row, 256-thread blocks.
pub fn geometry(n: usize) -> (Dim3, Dim3) {
    let block = Dim3::new1(256);
    let grid = Dim3::new1((n as u32).div_ceil(block.x));
    (grid, block)
}

/// Deterministic banded column indices: `cols[r][j] ∈ [r − W, r + W]`
/// (clamped into `[0, n)`), honouring the annotation for every row.
pub fn columns(n: usize) -> Vec<i64> {
    let mut cols = Vec::with_capacity(n * M);
    for r in 0..n as i64 {
        for j in 0..M as i64 {
            let c = r - W + (r * 3 + j * 7) % (2 * W + 1);
            cols.push(c.clamp(0, n as i64 - 1));
        }
    }
    cols
}

/// Deterministic matrix values.
pub fn matrix_values(n: usize) -> Vec<f32> {
    (0..n * M).map(|i| ((i * 17) % 63) as f32 * 0.125).collect()
}

/// Deterministic input vector.
pub fn vector(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 29) % 97) as f32 * 0.25).collect()
}

/// CPU reference: row dot-products in kernel summation order.
pub fn cpu_reference(n: usize, cols: &[i64], vals: &[f32], x: &[f32]) -> Vec<f32> {
    (0..n)
        .map(|r| {
            (0..M)
                .map(|j| vals[r * M + j] * x[cols[r * M + j] as usize])
                .sum::<f32>()
        })
        .collect()
}

impl Benchmark for Spmv {
    fn name(&self) -> &'static str {
        "SpMV"
    }

    fn sizes(&self) -> [usize; 3] {
        [262_144, 1_048_576, 4_194_304]
    }

    fn iterations(&self) -> usize {
        200
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn describe(&self, n: usize) -> App {
        let (grid, block) = geometry(n);
        App {
            source: SOURCE,
            buffers: vec![
                Buffer::i64_input(n * M, move || columns(n)),
                Buffer::f32_input(n * M, move || matrix_values(n)),
                Buffer::f32_input(n, move || vector(n)),
                Buffer::f32_output(n),
            ],
            launches: vec![Launch {
                kernel: "spmv",
                grid,
                block,
                args: vec![
                    Arg::int(n),
                    Arg::int(M),
                    Arg::Scalar(Value::I64(W)),
                    Arg::Buf(0),
                    Arg::Buf(1),
                    Arg::Buf(2),
                    Arg::Buf(3),
                ],
            }],
            swap: None,
            outputs: vec![3],
            check: Check {
                n: 1024,
                iters: 1,
                rel_tol: 0.0,
            },
        }
    }

    fn reference_output(&self, n: usize, _iters: usize) -> Vec<u8> {
        f32_bytes(&cpu_reference(
            n,
            &columns(n),
            &matrix_values(n),
            &vector(n),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_is_partitionable_with_a_boxed_gather() {
        let program = mekong_core::compile_source(SOURCE).unwrap();
        let ck = program.kernel("spmv").unwrap();
        assert!(ck.is_partitionable(), "{:?}", ck.model.verdict);
        assert_eq!(ck.model.partitioning, SplitAxis::X);
        // The gathered vector is an interval box; matrix and output stay
        // exact affine.
        let Some(mekong_analysis::ArgModel::Array {
            read: Some(acc), ..
        }) = ck.model.arg("x")
        else {
            panic!("x must carry a read access");
        };
        assert!(acc.interval, "x read must be an interval box");
        assert!(!acc.exact);
        for name in ["cols", "vals", "y"] {
            let Some(mekong_analysis::ArgModel::Array { read, write, .. }) = ck.model.arg(name)
            else {
                panic!("{name} must be an array");
            };
            let acc = read.as_ref().or(write.as_ref()).unwrap();
            assert!(acc.exact, "{name} must stay exact");
        }
    }

    #[test]
    fn mayread_counters_price_the_band_fetches() {
        use mekong_runtime::RuntimeConfig;
        let o1 = Spmv.mgpu_run(16_384, 2, 1, RuntimeConfig::alpha());
        assert!(o1.mayread_fetch_bytes > 0, "band reads must be counted");
        assert_eq!(o1.mayread_overfetch_bytes, 0);
        // Multi-device: each row partition fetches its `x` band plus a
        // `W`-deep halo on each side — bounded over-fetch at the seams.
        let o4 = Spmv.mgpu_run(16_384, 2, 4, RuntimeConfig::alpha());
        assert!(o4.mayread_fetch_bytes > 0);
        assert!(o4.mayread_overfetch_bytes > 0, "band halos must register");
        assert!(
            o4.mayread_overfetch_bytes * 10 < o4.mayread_fetch_bytes,
            "over-fetch must stay a small fraction of the box fetch: {} of {}",
            o4.mayread_overfetch_bytes,
            o4.mayread_fetch_bytes
        );
    }

    #[test]
    fn columns_respect_the_annotated_band() {
        let n = 4096;
        let cols = columns(n);
        for r in 0..n as i64 {
            for j in 0..M {
                let c = cols[r as usize * M + j];
                assert!(c >= r - W && c <= r + W, "row {r} col {c} outside band");
                assert!(c >= 0 && c < n as i64);
            }
        }
    }
}
