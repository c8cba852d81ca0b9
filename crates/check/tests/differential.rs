//! Differential validation of the static checker against the gpusim
//! shadow-memory oracle: for randomized grid/block geometries and a
//! family of kernels (disjoint, racy, column-collapsing, 2-D tiled,
//! off-by-one OOB), execute a two-way partitioned launch and compare the
//! observed write logs against the static verdicts.
//!
//! The property is *soundness*, one direction only:
//!
//! * if the checker proved write-disjointness along an axis, the dynamic
//!   oracle must never observe two partitions writing the same element;
//! * if the checker issued no out-of-bounds / inexactness diagnostic for
//!   a written array, every observed write must land inside the declared
//!   extent.
//!
//! The converse (checker conservatism) is intentionally not asserted —
//! an `Unproven` verdict on a dynamically clean run is allowed.

use mekong_analysis::{analyze_kernel, SplitAxis};
use mekong_check::{check_kernel, codes, KernelCheck, Severity};
use mekong_gpusim::shadow::{run_grid_recording, BufStore};
use mekong_kernel::builder::*;
use mekong_kernel::{Dim3, Kernel, KernelArg, KernelError, Value};
use mekong_partition::{partition_grid, partition_kernel};
use proptest::prelude::*;

/// One kernel shape of the differential family. `dims` is the extent
/// rank of the written array (`out[n]` or `out[n][n]`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// `out[i] = 1` — disjoint along x.
    Identity,
    /// `out[i] = 1; out[i+1] = 2` — cross-block race along x.
    Spill,
    /// 2-D grid writing `out[y]` — race along x, disjoint along y.
    Column,
    /// 2-D grid writing `out[y][x]` — disjoint along x and y.
    Tile2d,
    /// `if (i > n) return; out[i] = 1` — off-by-one static OOB.
    Overshoot,
}

impl Shape {
    fn kernel(self) -> Kernel {
        match self {
            Shape::Identity => Kernel {
                name: "identity".into(),
                params: vec![scalar("n"), array_f32("out", &[ext("n")])],
                body: vec![
                    let_("i", global_x()),
                    guard_return(v("i").ge(v("n"))),
                    store("out", vec![v("i")], f(1.0)),
                ],
            },
            Shape::Spill => Kernel {
                name: "spill".into(),
                params: vec![scalar("n"), array_f32("out", &[ext("n")])],
                body: vec![
                    let_("i", global_x()),
                    guard_return(v("i").ge(v("n") - i(1))),
                    store("out", vec![v("i")], f(1.0)),
                    store("out", vec![v("i") + i(1)], f(2.0)),
                ],
            },
            Shape::Column => Kernel {
                name: "column".into(),
                params: vec![scalar("n"), array_f32("out", &[ext("n")])],
                body: vec![
                    let_("x", global_x()),
                    let_("y", global_y()),
                    guard_return(v("x").ge(v("n")).or(v("y").ge(v("n")))),
                    store("out", vec![v("y")], f(1.0)),
                ],
            },
            Shape::Tile2d => Kernel {
                name: "tile2d".into(),
                params: vec![scalar("n"), array_f32("out", &[ext("n"), ext("n")])],
                body: vec![
                    let_("x", global_x()),
                    let_("y", global_y()),
                    guard_return(v("x").ge(v("n")).or(v("y").ge(v("n")))),
                    store("out", vec![v("y"), v("x")], f(1.0)),
                ],
            },
            Shape::Overshoot => Kernel {
                name: "overshoot".into(),
                params: vec![scalar("n"), array_f32("out", &[ext("n")])],
                body: vec![
                    let_("i", global_x()),
                    guard_return(v("i").gt(v("n"))),
                    store("out", vec![v("i")], f(1.0)),
                ],
            },
        }
    }

    /// Number of elements the declared extent covers for scalar `n`.
    fn extent_elems(self, n: i64) -> u64 {
        match self {
            Shape::Tile2d => (n * n) as u64,
            _ => n as u64,
        }
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Identity),
        Just(Shape::Spill),
        Just(Shape::Column),
        Just(Shape::Tile2d),
        Just(Shape::Overshoot),
    ]
}

/// Dynamic-oracle result for one two-way partitioned launch.
struct OracleRun {
    /// Per-partition merged element write ranges on the `out` buffer.
    logs: Vec<Vec<(u64, u64)>>,
    /// Did any partition attempt a write past the declared extent?
    /// (The interpreter bounds-checks stores, so a dynamic OOB surfaces
    /// as a [`KernelError::OutOfBounds`] rather than a stray write.)
    oob: bool,
}

/// Run the partitioned clone over a two-way split along `axis`,
/// recording each partition's observed element writes on the `out`
/// buffer.
fn partitioned_write_logs(
    kernel: &Kernel,
    n: i64,
    grid: Dim3,
    block: Dim3,
    axis: SplitAxis,
    alloc_elems: u64,
) -> OracleRun {
    let pk = partition_kernel(kernel);
    let mut mem = BufStore::new();
    let out = mem.alloc(alloc_elems as usize * 4);
    let mut run = OracleRun {
        logs: Vec::new(),
        oob: false,
    };
    for part in partition_grid(grid, 2, axis) {
        if part.is_empty() {
            continue;
        }
        let mut args = vec![KernelArg::Scalar(Value::I64(n)), KernelArg::Array(out)];
        args.extend(
            part.clone_args(grid)
                .map(|b| KernelArg::Scalar(Value::I64(b))),
        );
        match run_grid_recording(&pk, &args, part.launch_grid(), block, &mut mem) {
            Ok((_, observed)) => run
                .logs
                .push(observed.get(&out).cloned().unwrap_or_default()),
            Err(KernelError::OutOfBounds { .. }) => run.oob = true,
            Err(e) => panic!("oracle execution failed: {e:?}"),
        }
    }
    run
}

/// Do any two of the per-partition merged range lists intersect?
fn logs_overlap(logs: &[Vec<(u64, u64)>]) -> bool {
    for (i, a) in logs.iter().enumerate() {
        for b in logs.iter().skip(i + 1) {
            for &(s1, e1) in a {
                for &(s2, e2) in b {
                    if s1 < e2 && s2 < e1 {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Does the checker report an error-severity diagnostic that voids the
/// in-bounds claim for the written array (OOB, inexact, or may-write)?
fn oob_claim_voided(kc: &KernelCheck) -> bool {
    kc.diagnostics.iter().any(|d| {
        d.severity == Severity::Error
            && (d.code == codes::WRITE_OOB
                || d.code == codes::INEXACT_WRITE
                || d.code == codes::MAY_WRITE)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Static safety verdicts are sound against the dynamic oracle.
    #[test]
    fn checker_verdicts_sound_vs_shadow_oracle(
        shape in arb_shape(),
        gx in 1u32..6,
        gy in 1u32..4,
        bx in 1u32..6,
        by in 1u32..4,
        n_seed in 1i64..48,
    ) {
        let kernel = shape.kernel();
        let grid = Dim3::new2(gx, gy);
        let block = Dim3::new2(bx, by);
        // Keep n within the thread count so most launches do real work,
        // but allow under- and over-provisioned grids.
        let n = n_seed.min((gx * bx * gy * by) as i64 + 2).max(1);
        let model = analyze_kernel(&kernel).unwrap();
        let kc = check_kernel(&model).unwrap();

        let alloc = shape.extent_elems(n) + 64;

        for axis in [SplitAxis::X, SplitAxis::Y] {
            let run = partitioned_write_logs(&kernel, n, grid, block, axis, alloc);

            // Soundness: a proven axis never shows a dynamic race.
            if kc.proven_axes[axis.zyx_index()] {
                prop_assert!(
                    !logs_overlap(&run.logs),
                    "{shape:?}: checker proved axis {axis} disjoint but oracle observed a race \
                     (grid {gx}x{gy}, block {bx}x{by}, n={n}): {:?}",
                    run.logs,
                );
            }

            // Soundness: no OOB-class diagnostic means the oracle never
            // attempts a store past the declared extent.
            if !oob_claim_voided(&kc) {
                prop_assert!(
                    !run.oob,
                    "{shape:?}: no OOB diagnostic but oracle hit an out-of-bounds store \
                     (grid {gx}x{gy}, block {bx}x{by}, n={n})",
                );
                let extent = shape.extent_elems(n);
                for log in &run.logs {
                    for &(_, end) in log {
                        prop_assert!(
                            end <= extent,
                            "{shape:?}: no OOB diagnostic but oracle saw write up to {end} \
                             past extent {extent} (n={n})",
                        );
                    }
                }
            }
        }
    }

    /// Replica-aware coherence soundness: a partitioned run through the
    /// multi-GPU runtime — where read synchronization may *skip* copies
    /// the destination already holds, pull halos from nearest replica
    /// holders instead of the freshest owner, and gather D2H output
    /// through holders — must stay byte-identical to the gpusim
    /// shadow-memory oracle executing the original kernel, after every
    /// iteration. A holder serving stale bytes anywhere would diverge.
    #[test]
    fn replica_served_reads_match_shadow_memory(
        gpus in 2usize..5,
        gx in 2u32..7,
        bx in 2u32..6,
        n_seed in 4i64..200,
        iters in 1usize..5,
    ) {
        use mekong_gpusim::shadow::run_grid_parallel;
        use mekong_gpusim::{Machine, MachineSpec};
        use mekong_runtime::{CompiledKernel, LaunchArg, MgpuRuntime};

        // Ping-pong stencil scaled by a read-only coefficient array: `c`
        // becomes fully replicated after the first launch (the replica
        // fast path), while in/out writes invalidate replicas each
        // iteration (the eviction path).
        let kernel = Kernel {
            name: "coeff_stencil".into(),
            params: vec![
                scalar("n"),
                array_f32("c", &[ext("n")]),
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
                        load("c", vec![v("i")])
                            * (load("input", vec![v("i") - i(1)])
                                + load("input", vec![v("i")])
                                + load("input", vec![v("i") + i(1)])),
                    )],
                ),
            ],
        };
        let n = n_seed.min((gx * bx) as i64);
        let grid = Dim3::new1(gx);
        let block = Dim3::new1(bx);
        let ck = CompiledKernel::compile(&kernel).unwrap();
        prop_assert!(ck.is_partitionable(), "verdict: {:?}", ck.model.verdict);

        let c_host: Vec<u8> = (0..n)
            .flat_map(|j| (((j % 5) as f32) * 0.25 + 0.5).to_le_bytes())
            .collect();
        let a_host: Vec<u8> = (0..n)
            .flat_map(|j| (((j * 37) % 101) as f32).to_le_bytes())
            .collect();

        // Partitioned run on a functional machine; the default runtime
        // config has replica coherence on.
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
        let c = rt.malloc(n as usize * 4, 4).unwrap();
        let a = rt.malloc(n as usize * 4, 4).unwrap();
        let b = rt.malloc(n as usize * 4, 4).unwrap();
        rt.memcpy_h2d(c, &c_host).unwrap();
        rt.memcpy_h2d(a, &a_host).unwrap();
        rt.memcpy_h2d(b, &a_host).unwrap();

        // Shadow oracle: the original, unpartitioned kernel.
        let mut mem = BufStore::new();
        let sc = mem.alloc(n as usize * 4);
        let sa = mem.alloc(n as usize * 4);
        let sb = mem.alloc(n as usize * 4);
        mem.bytes_mut(sc).copy_from_slice(&c_host);
        mem.bytes_mut(sa).copy_from_slice(&a_host);
        mem.bytes_mut(sb).copy_from_slice(&a_host);

        let (mut src, mut dst) = (a, b);
        let (mut ssrc, mut sdst) = (sa, sb);
        for iter in 0..iters {
            rt.launch(
                &ck,
                grid,
                block,
                &[
                    LaunchArg::Scalar(Value::I64(n)),
                    LaunchArg::Buf(c),
                    LaunchArg::Buf(src),
                    LaunchArg::Buf(dst),
                ],
            )
            .unwrap();
            run_grid_parallel(
                &kernel,
                &[
                    KernelArg::Scalar(Value::I64(n)),
                    KernelArg::Array(sc),
                    KernelArg::Array(ssrc),
                    KernelArg::Array(sdst),
                ],
                grid,
                block,
                &mut mem,
            )
            .unwrap();
            rt.synchronize();
            let mut got = vec![0u8; n as usize * 4];
            rt.memcpy_d2h(dst, &mut got).unwrap();
            prop_assert_eq!(
                &got[..],
                mem.bytes(sdst),
                "iteration {} diverged from shadow memory \
                 (gpus {}, grid {}, block {}, n {})",
                iter, gpus, gx, bx, n
            );
            std::mem::swap(&mut src, &mut dst);
            std::mem::swap(&mut ssrc, &mut sdst);
        }
    }

    /// The racy shape actually races dynamically whenever a split crosses
    /// the spill boundary — and the checker never calls it safe.
    #[test]
    fn racy_shape_never_certified(gx in 2u32..6, bx in 1u32..6) {
        let kernel = Shape::Spill.kernel();
        let grid = Dim3::new1(gx);
        let block = Dim3::new1(bx);
        let n = (gx * bx) as i64; // exact fit: the spill crosses the split seam
        let model = analyze_kernel(&kernel).unwrap();
        let kc = check_kernel(&model).unwrap();
        prop_assert!(!kc.proven_axes[SplitAxis::X.zyx_index()]);

        let run = partitioned_write_logs(&kernel, n, grid, block, SplitAxis::X, n as u64 + 64);
        // The race only materializes when both partitions actually write
        // (the seam block may be fully guarded off for small n).
        if run.logs.len() == 2 && run.logs.iter().all(|l| !l.is_empty()) {
            prop_assert!(
                logs_overlap(&run.logs),
                "two-way split of the spill kernel must overlap at the seam \
                 (grid {gx}, block {bx}): {:?}",
                run.logs,
            );
        }
    }
}
