//! Differential validation of the interval abstract interpreter against
//! the gpusim shadow-memory oracle.
//!
//! Two soundness properties, both one-directional:
//!
//! * **Dynamic ⊆ static (irregular kernels).** For the histogram and
//!   SpMV workloads — whose `val`/`x` footprints are data-dependent and
//!   modeled as bounded may-read *boxes* from `@mekong … range`
//!   annotations — every element any thread of a partition actually
//!   loads must land inside the partition's statically enumerated
//!   ranges. The runtime fetches exactly those ranges before launching,
//!   so a violation here would mean a partition reading stale memory.
//! * **Exact ⊆ boxed (affine kernels).** Re-analyzing the paper's
//!   affine workloads with every read index forced through the interval
//!   domain must never produce a *tighter* footprint than the exact
//!   polyhedral analysis: the box of an affine expression `e` is
//!   `[e, e]`, so the boxed footprint contains the affine one.
//!
//! Tightness (how little the boxes over-approximate) is intentionally
//! not asserted — it is reported, not promised, via the
//! `bounded-may-read` diagnostic and the `mayread_overfetch_bytes`
//! counter.

use mekong_analysis::{analyze_kernel, analyze_kernel_boxed};
use mekong_core::prelude::*;
use mekong_gpusim::shadow::{run_grid_recording_rw, BufStore};
use mekong_kernel::KernelArg;
use mekong_workloads::{blur, histogram, spmv};
use proptest::prelude::*;

/// Is every observed element range covered by one of the (sorted,
/// merged) statically enumerated ranges?
fn contained(observed: &[(u64, u64)], statics: &[mekong_enumgen::ElemRange]) -> bool {
    observed
        .iter()
        .all(|&(s, e)| statics.iter().any(|r| r.start <= s && e <= r.end))
}

/// Run the partition-aware clone over an `parts`-way x-split, recording
/// per-partition observed reads, and assert each read argument's
/// dynamic footprint sits inside its static enumeration for that
/// partition. `handles[i]` is the `BufStore` handle bound to kernel
/// argument `i` (scalar slots unused).
fn assert_reads_inside_static_boxes(
    ck: &CompiledKernel,
    scalars: &[i64],
    handles: &[Option<usize>],
    mem: &mut BufStore,
    grid: Dim3,
    block: Dim3,
    parts: usize,
) -> std::result::Result<(), TestCaseError> {
    let mut any_boxed_read = false;
    for part in partition_grid(grid, parts, SplitAxis::X) {
        if part.is_empty() {
            continue;
        }
        let mut args: Vec<KernelArg> = Vec::new();
        for (i, s) in scalars.iter().enumerate() {
            prop_assert!(handles[i].is_none(), "scalar slot {i} holds a buffer");
            args.push(KernelArg::Scalar(Value::I64(*s)));
        }
        for h in handles.iter().skip(scalars.len()) {
            args.push(KernelArg::Array(h.expect("array slot without a buffer")));
        }
        args.extend(
            part.clone_args(grid)
                .map(|b| KernelArg::Scalar(Value::I64(b))),
        );
        let (_, _, reads) =
            run_grid_recording_rw(&ck.partitioned, &args, part.launch_grid(), block, mem, true)
                .expect("oracle execution");

        for (arg_idx, renum) in &ck.enums.reads {
            let statics = renum.ranges_merged(&part, block, grid, &ck.enums.scalar_names, scalars);
            let handle = handles[*arg_idx].expect("read enumerator on a scalar");
            let observed = reads.get(&handle).cloned().unwrap_or_default();
            if !renum.is_exact() && !observed.is_empty() {
                any_boxed_read = true;
            }
            prop_assert!(
                contained(&observed, &statics),
                "{}: arg {arg_idx} dynamic reads escape the static box \
                 (partition {:?}..{:?} of {parts}): observed {:?}, static {:?}",
                ck.original.name,
                part.lo,
                part.hi,
                observed,
                statics,
            );
        }
    }
    prop_assert!(
        any_boxed_read,
        "{}: differential run never exercised a boxed read",
        ck.original.name
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Histogram: randomized bucket offsets (any jitter within the
    /// annotated `[64·b, 64·(b+1)]` range) never read `val` outside the
    /// static may-read box of their partition.
    #[test]
    fn histogram_dynamic_reads_stay_inside_static_boxes(
        nbins in 4usize..48,
        bx in 2u32..9,
        parts in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let program = mekong_core::compile_source(histogram::SOURCE).unwrap();
        let ck = program.kernel("histogram").unwrap();
        let block = Dim3::new1(bx);
        let grid = Dim3::new1((nbins as u32).div_ceil(bx));

        // Offsets with proptest-driven jitter, still inside the range
        // the annotation promises (and monotone, so every loop runs).
        let cap = histogram::CAP;
        let mut state = seed | 1;
        let mut jitter = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % (cap + 1)
        };
        let off: Vec<i64> = (0..=nbins).map(|i| (cap * i + jitter()) as i64).collect();
        let n_val = histogram::val_len(nbins);

        let mut mem = BufStore::new();
        let off_h = mem.alloc((nbins + 1) * 8);
        let val_h = mem.alloc(n_val * 4);
        let hist_h = mem.alloc(nbins * 4);
        let off_bytes: Vec<u8> = off.iter().flat_map(|v| v.to_le_bytes()).collect();
        mem.bytes_mut(off_h).copy_from_slice(&off_bytes);

        let scalars = [nbins as i64, nbins as i64 + 1, n_val as i64];
        let handles = [None, None, None, Some(off_h), Some(val_h), Some(hist_h)];
        assert_reads_inside_static_boxes(ck, &scalars, &handles, &mut mem, grid, block, parts)?;
    }

    /// SpMV: randomized banded column indices (any pattern within the
    /// annotated `[r − w, r + w]` band) never gather `x` outside the
    /// static may-read box of their partition.
    #[test]
    fn spmv_dynamic_gathers_stay_inside_static_boxes(
        n in 8usize..64,
        m in 1usize..6,
        w in 0i64..6,
        bx in 2u32..9,
        parts in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let program = mekong_core::compile_source(spmv::SOURCE).unwrap();
        let ck = program.kernel("spmv").unwrap();
        let block = Dim3::new1(bx);
        let grid = Dim3::new1((n as u32).div_ceil(bx));

        let mut state = seed | 1;
        let mut rand = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let mut cols = Vec::with_capacity(n * m);
        for r in 0..n as i64 {
            for _ in 0..m {
                cols.push((r - w + rand().rem_euclid(2 * w + 1)).clamp(0, n as i64 - 1));
            }
        }

        let mut mem = BufStore::new();
        let cols_h = mem.alloc(n * m * 8);
        let vals_h = mem.alloc(n * m * 4);
        let x_h = mem.alloc(n * 4);
        let y_h = mem.alloc(n * 4);
        let cols_bytes: Vec<u8> = cols.iter().flat_map(|v| v.to_le_bytes()).collect();
        mem.bytes_mut(cols_h).copy_from_slice(&cols_bytes);

        let scalars = [n as i64, m as i64, w];
        let handles = [
            None, None, None,
            Some(cols_h), Some(vals_h), Some(x_h), Some(y_h),
        ];
        assert_reads_inside_static_boxes(ck, &scalars, &handles, &mut mem, grid, block, parts)?;
    }

    /// On purely affine kernels (all four existing workloads), footprints
    /// from the interval domain are never *tighter* than the exact
    /// polyhedral ones: for every read argument and random geometry, the
    /// exact enumeration is contained in the boxed enumeration.
    #[test]
    fn interval_boxes_contain_affine_footprints_on_affine_workloads(
        gx in 1u32..6,
        gy in 1u32..4,
        bx in 1u32..6,
        by in 1u32..4,
        n in 4i64..48,
    ) {
        let sources = [
            mekong_workloads::hotspot::SOURCE,
            mekong_workloads::nbody::SOURCE,
            mekong_workloads::matmul::SOURCE,
            blur::SOURCE,
        ];
        let grid = Dim3::new2(gx, gy);
        let block = Dim3::new2(bx, by);
        let whole = Partition::whole(grid);
        for src in sources {
            let prog = parse_program(src).unwrap();
            for kernel in &prog.kernels {
                let exact_model = analyze_kernel(kernel).unwrap();
                let boxed_model = analyze_kernel_boxed(kernel).unwrap();
                // Every scalar parameter gets the same sample value; the
                // workload kernels use them as extents/sizes only.
                let scalars = vec![n; exact_model.scalar_params.len()];
                let exact_enums = KernelEnumerators::build(&exact_model).unwrap();
                let boxed_enums = KernelEnumerators::build(&boxed_model).unwrap();
                for ((idx_e, re), (idx_b, rb)) in
                    exact_enums.reads.iter().zip(&boxed_enums.reads)
                {
                    prop_assert_eq!(idx_e, idx_b, "{}: read arg order", kernel.name);
                    let exact =
                        re.ranges_merged(&whole, block, grid, &exact_enums.scalar_names, &scalars);
                    let boxed_ =
                        rb.ranges_merged(&whole, block, grid, &boxed_enums.scalar_names, &scalars);
                    for r in exact.iter() {
                        prop_assert!(
                            boxed_.iter().any(|b| b.start <= r.start && r.end <= b.end),
                            "{} arg {idx_e}: boxed footprint tighter than affine \
                             (grid {gx}x{gy}, block {bx}x{by}, n={n}): \
                             exact {:?} not inside boxed {:?}",
                            kernel.name,
                            exact,
                            boxed_,
                        );
                    }
                }
            }
        }
    }
}
