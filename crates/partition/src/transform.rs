//! The kernel-side partitioning transform (paper §7).

use mekong_kernel::builder::scalar;
use mekong_kernel::{Axis, Expr, GridVar, Kernel};

/// Names of the six appended partition parameters, in declaration order:
/// the partition's lower block indices, then the whole launch grid's
/// extents, each `z, y, x` ([`crate::Partition::clone_args`]).
pub const PART_PARAMS: [&str; 6] = [
    "__part_min_z",
    "__part_min_y",
    "__part_min_x",
    "__grid_z",
    "__grid_y",
    "__grid_x",
];

fn min_param(a: Axis) -> &'static str {
    PART_PARAMS[a.zyx_index()]
}

fn grid_param(a: Axis) -> &'static str {
    PART_PARAMS[3 + a.zyx_index()]
}

/// Clone a kernel into its partitioned form:
///
/// 1. append the six partition parameters,
/// 2. rewrite `blockIdx.w → __part_min_w + blockIdx.w` (eq. 8),
/// 3. rewrite `gridDim.w → __grid_w`, the whole grid's extent (eq. 9
///    binds the partition's `max_w` instead; see the crate docs).
///
/// The caller must launch the clone with `grid = max − min` (eq. 10) and
/// pass [`crate::Partition::clone_args`] as the trailing scalar arguments.
pub fn partition_kernel(kernel: &Kernel) -> Kernel {
    let mut params = kernel.params.clone();
    for name in PART_PARAMS {
        params.push(scalar(name));
    }
    let body = kernel
        .body
        .iter()
        .map(|s| {
            s.rewrite_exprs(&|e| match e {
                Expr::Grid(GridVar::BlockIdx(a)) => Expr::bin(
                    mekong_kernel::BinOp::Add,
                    Expr::Var(min_param(a).to_string()),
                    Expr::Grid(GridVar::BlockIdx(a)),
                ),
                Expr::Grid(GridVar::GridDim(a)) => Expr::Var(grid_param(a).to_string()),
                other => other,
            })
        })
        .collect();
    Kernel {
        name: format!("{}__part", kernel.name),
        params,
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{partition_grid, Partition};
    use mekong_analysis::SplitAxis;
    use mekong_kernel::builder::*;
    use mekong_kernel::{execute_grid, Dim3, ExecMode, Kernel, KernelArg, ScalarTy, Value, VecMem};

    fn vadd() -> Kernel {
        Kernel {
            name: "vadd".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[ext("n")]),
                array_f32("b", &[ext("n")]),
                array_f32("c", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store(
                    "c",
                    vec![v("i")],
                    load("a", vec![v("i")]) + load("b", vec![v("i")]),
                ),
            ],
        }
    }

    fn part_args(p: &Partition, grid: Dim3) -> Vec<KernelArg> {
        p.clone_args(grid)
            .map(|v| KernelArg::Scalar(Value::I64(v)))
            .to_vec()
    }

    #[test]
    fn clone_has_partition_params_and_no_griddim() {
        let pk = partition_kernel(&vadd());
        assert_eq!(pk.name, "vadd__part");
        assert_eq!(pk.params.len(), 4 + 6);
        pk.validate().unwrap();
        // gridDim must be gone; blockIdx must appear offset.
        let mut saw_griddim = false;
        for s in &pk.body {
            s.visit(&mut |_| {}, &mut |e| {
                if matches!(e, Expr::Grid(GridVar::GridDim(_))) {
                    saw_griddim = true;
                }
            });
        }
        assert!(!saw_griddim);
    }

    #[test]
    fn partitions_reproduce_full_run() {
        let k = vadd();
        let pk = partition_kernel(&k);
        let n = 1000usize;
        let block = Dim3::new1(32);
        let grid = Dim3::new1(32); // 1024 threads cover 1000

        let mk_mem = || {
            let mut mem = VecMem::new();
            let a = mem.alloc_from(&(0..n).map(|i| Value::F32(i as f32)).collect::<Vec<_>>());
            let b = mem.alloc_from(
                &(0..n)
                    .map(|i| Value::F32(2.0 * i as f32))
                    .collect::<Vec<_>>(),
            );
            let c = mem.alloc(n * 4);
            (mem, a, b, c)
        };

        // Reference: plain kernel over the whole grid.
        let (mut ref_mem, a, b, c) = mk_mem();
        let args = [
            KernelArg::Scalar(Value::I64(n as i64)),
            KernelArg::Array(a),
            KernelArg::Array(b),
            KernelArg::Array(c),
        ];
        execute_grid(&k, &args, grid, block, &mut ref_mem, ExecMode::Functional).unwrap();
        let want = ref_mem.read_all(c, ScalarTy::F32);

        // Partitioned: 4 partitions along x, all on one shared memory.
        let (mut mem, a, b, c) = mk_mem();
        for p in partition_grid(grid, 4, SplitAxis::X) {
            if p.is_empty() {
                continue;
            }
            let mut args: Vec<KernelArg> = vec![
                KernelArg::Scalar(Value::I64(n as i64)),
                KernelArg::Array(a),
                KernelArg::Array(b),
                KernelArg::Array(c),
            ];
            args.extend(part_args(&p, grid));
            execute_grid(
                &pk,
                &args,
                p.launch_grid(),
                block,
                &mut mem,
                ExecMode::Functional,
            )
            .unwrap();
        }
        let got = mem.read_all(c, ScalarTy::F32);
        assert_eq!(got, want);
    }

    #[test]
    fn each_partition_writes_disjoint_slices() {
        let k = vadd();
        let pk = partition_kernel(&k);
        let n = 256usize;
        let block = Dim3::new1(32);
        let grid = Dim3::new1(8);
        let parts = partition_grid(grid, 2, SplitAxis::X);

        // Run only partition 1; elements < 128 must stay zero.
        let mut mem = VecMem::new();
        let a = mem.alloc_from(&vec![Value::F32(1.0); n]);
        let b = mem.alloc_from(&vec![Value::F32(1.0); n]);
        let c = mem.alloc(n * 4);
        let mut args: Vec<KernelArg> = vec![
            KernelArg::Scalar(Value::I64(n as i64)),
            KernelArg::Array(a),
            KernelArg::Array(b),
            KernelArg::Array(c),
        ];
        args.extend(part_args(&parts[1], grid));
        execute_grid(
            &pk,
            &args,
            parts[1].launch_grid(),
            block,
            &mut mem,
            ExecMode::Functional,
        )
        .unwrap();
        let out = mem.read_all(c, ScalarTy::F32);
        for (i, val) in out.iter().enumerate() {
            if i < 128 {
                assert_eq!(*val, Value::F32(0.0), "element {i} touched");
            } else {
                assert_eq!(*val, Value::F32(2.0), "element {i} missing");
            }
        }
    }

    #[test]
    fn griddim_reads_the_whole_grid() {
        // The clone's gridDim.w is the whole launch grid in every
        // partition (eq. 9 would bind partition.max_w). Record the value
        // each block observes.
        let k = Kernel {
            name: "observe".into(),
            params: vec![scalar("n"), array_f32("out", &[ext("n")])],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("out", vec![v("i")], to_f32(gdim(Axis::X))),
            ],
        };
        let pk = partition_kernel(&k);
        let n = 32usize;
        let block = Dim3::new1(8);
        let grid = Dim3::new1(4);
        let parts = partition_grid(grid, 2, SplitAxis::X); // [0,2) and [2,4)

        let mut mem = VecMem::new();
        let out = mem.alloc(n * 4);
        for p in &parts {
            let mut args: Vec<KernelArg> = vec![
                KernelArg::Scalar(Value::I64(n as i64)),
                KernelArg::Array(out),
            ];
            args.extend(part_args(p, grid));
            execute_grid(
                &pk,
                &args,
                p.launch_grid(),
                block,
                &mut mem,
                ExecMode::Functional,
            )
            .unwrap();
        }
        let vals = mem.read_all(out, ScalarTy::F32);
        // Partitions [0,2) and [2,4) both see the grid's 4 blocks.
        assert!(vals.iter().all(|v| *v == Value::F32(4.0)), "{vals:?}");
    }
}
