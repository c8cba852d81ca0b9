//! Bucketed histogram — an *irregular* workload (extra, beyond the
//! paper's Table 1) whose read pattern is data-dependent: each bucket
//! sums a `[off[b], off[b+1])` slice of the value array, and the slice
//! bounds live in memory.
//!
//! The polyhedral analysis alone cannot model `val[k]` with
//! `k ∈ [off[b], off[b+1])` — the loop bounds are loads. The interval
//! abstract interpreter (see `mekong-analysis::interval`) turns the
//! `@mekong … range` annotation on `off` into a **bounded may-read
//! box**: bucket `b` reads at most `val[64·b .. 64·b + 128)`. The box
//! is banded in `b`, so partitioning the bucket axis still yields
//! partition-local reads plus a bounded halo — the runtime fetches the
//! box, the kernel reads a subset, and the `mayread_overfetch_bytes`
//! counter prices the difference.

use crate::app::{f32_bytes, App, Arg, Buffer, Check, Launch};
use crate::harness::Benchmark;
use mekong_core::prelude::*;

/// The histogram benchmark (extra, not part of the paper's Table 1).
pub struct Histogram;

/// Average (and annotated maximum) values per bucket. Offsets are
/// `off[i] = CAP·i + jitter_i` with `jitter ∈ [0, CAP]`, so
/// `off[i] ∈ [CAP·i, CAP·(i+1)]` — exactly the annotated range.
pub const CAP: usize = 64;

/// Bucketed sum with data-dependent slice bounds. The range annotation
/// bounds the *values* stored in `off`, which bounds the loop and with
/// it the `val` footprint.
pub const SOURCE: &str = r#"
// @mekong histogram range off : $0 * 64 .. $0 * 64 + 64
__global__ void histogram(int nbins, int npp, int n, int off[npp], float val[n], float hist[nbins]) {
    int b = blockIdx.x * blockDim.x + threadIdx.x;
    if (b >= nbins) return;
    float acc = 0.0f;
    for (int k = off[b]; k < off[b + 1]; k++) {
        acc = acc + val[k];
    }
    hist[b] = acc;
}

int main() {
    histogram<<<grid, block>>>(nbins, npp, n, off, val, hist);
    return 0;
}
"#;

/// Launch geometry: one thread per bucket, 256-thread blocks.
pub fn geometry(nbins: usize) -> (Dim3, Dim3) {
    let block = Dim3::new1(256);
    let grid = Dim3::new1((nbins as u32).div_ceil(block.x));
    (grid, block)
}

/// Deterministic bucket offsets: `off[i] = CAP·i + jitter_i`,
/// non-decreasing and inside the annotated `[CAP·i, CAP·(i+1)]` range.
pub fn offsets(nbins: usize) -> Vec<i64> {
    (0..=nbins)
        .map(|i| (CAP * i + (i * i * 37 + i * 11) % (CAP + 1)) as i64)
        .collect()
}

/// Value-array length covering the largest possible offset.
pub fn val_len(nbins: usize) -> usize {
    CAP * (nbins + 1)
}

/// Deterministic values.
pub fn values(nbins: usize) -> Vec<f32> {
    (0..val_len(nbins))
        .map(|i| ((i * 13) % 101) as f32)
        .collect()
}

/// CPU reference: per-bucket slice sums.
pub fn cpu_reference(nbins: usize, off: &[i64], val: &[f32]) -> Vec<f32> {
    (0..nbins)
        .map(|b| (off[b]..off[b + 1]).map(|k| val[k as usize]).sum::<f32>())
        .collect()
}

impl Benchmark for Histogram {
    fn name(&self) -> &'static str {
        "Histogram"
    }

    fn sizes(&self) -> [usize; 3] {
        // Bucket counts; the value array is CAP× larger.
        [65_536, 262_144, 1_048_576]
    }

    fn iterations(&self) -> usize {
        200
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn describe(&self, nbins: usize) -> App {
        let (grid, block) = geometry(nbins);
        App {
            source: SOURCE,
            buffers: vec![
                Buffer::i64_input(nbins + 1, move || offsets(nbins)),
                Buffer::f32_input(val_len(nbins), move || values(nbins)),
                Buffer::f32_output(nbins),
            ],
            launches: vec![Launch {
                kernel: "histogram",
                grid,
                block,
                args: vec![
                    Arg::int(nbins),
                    Arg::int(nbins + 1),
                    Arg::int(val_len(nbins)),
                    Arg::Buf(0),
                    Arg::Buf(1),
                    Arg::Buf(2),
                ],
            }],
            swap: None,
            outputs: vec![2],
            check: Check {
                n: 512,
                iters: 1,
                rel_tol: 0.0,
            },
        }
    }

    fn reference_output(&self, nbins: usize, _iters: usize) -> Vec<u8> {
        f32_bytes(&cpu_reference(nbins, &offsets(nbins), &values(nbins)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_is_partitionable_with_a_boxed_read() {
        let program = mekong_core::compile_source(SOURCE).unwrap();
        let ck = program.kernel("histogram").unwrap();
        assert!(ck.is_partitionable(), "{:?}", ck.model.verdict);
        assert_eq!(ck.model.partitioning, SplitAxis::X);
        // `val` is read through data-dependent loop bounds: a bounded
        // interval box, not an exact affine map.
        let Some(mekong_analysis::ArgModel::Array {
            read: Some(acc), ..
        }) = ck.model.arg("val")
        else {
            panic!("val must carry a read access");
        };
        assert!(acc.interval, "val read must be an interval box");
        assert!(!acc.exact);
        // `off` and `hist` stay exact affine.
        for name in ["off", "hist"] {
            let Some(mekong_analysis::ArgModel::Array { read, write, .. }) = ck.model.arg(name)
            else {
                panic!("{name} must be an array");
            };
            let acc = read.as_ref().or(write.as_ref()).unwrap();
            assert!(acc.exact, "{name} must stay exact");
        }
    }

    #[test]
    fn mayread_counters_price_the_box_fetches() {
        use mekong_runtime::RuntimeConfig;
        // One device: the box fetch equals the whole-grid box, so the
        // over-fetch beyond it is zero by construction.
        let o1 = Histogram.mgpu_run(4096, 2, 1, RuntimeConfig::alpha());
        assert!(o1.mayread_fetch_bytes > 0, "box reads must be counted");
        assert_eq!(o1.mayread_overfetch_bytes, 0);
        // Four devices: per-partition boxes overlap at the bucket seams,
        // so the summed fetch exceeds the single-device baseline — but
        // only by the bounded seam halos.
        let o4 = Histogram.mgpu_run(4096, 2, 4, RuntimeConfig::alpha());
        assert!(o4.mayread_fetch_bytes > 0);
        assert!(o4.mayread_overfetch_bytes > 0, "seam halos must register");
        assert!(
            o4.mayread_overfetch_bytes * 10 < o4.mayread_fetch_bytes,
            "over-fetch must stay a small fraction of the box fetch: {} of {}",
            o4.mayread_overfetch_bytes,
            o4.mayread_fetch_bytes
        );
    }

    #[test]
    fn offsets_respect_the_annotated_range() {
        let nbins = 1024;
        let off = offsets(nbins);
        for (i, &o) in off.iter().enumerate() {
            assert!((CAP * i) as i64 <= o && o <= (CAP * (i + 1)) as i64);
        }
        assert!(off.windows(2).all(|w| w[0] <= w[1]), "monotone offsets");
        assert!(*off.last().unwrap() <= val_len(nbins) as i64);
    }
}
