//! Block- and grid-level execution drivers.
//!
//! These run a kernel over (part of) its launch grid against a
//! [`MemAccess`] memory: lower it once, bind the launch once, then every
//! thread runs on one reused [`crate::interp::Frame`]. Device-level
//! parallel execution and timing live in `mekong-gpusim`; these drivers
//! are the sequential building blocks (and what the tests use directly).

use crate::interp::{ExecMode, ExecStats, KernelArg, MemAccess};
use crate::ir::Kernel;
use crate::lower::Program;
use crate::types::Dim3;
use crate::Result;

/// Execute every thread of one block (sequentially, `z`-outermost).
pub fn execute_block<M: MemAccess + ?Sized>(
    kernel: &Kernel,
    args: &[KernelArg],
    block_idx: Dim3,
    block_dim: Dim3,
    grid_dim: Dim3,
    mem: &mut M,
    mode: ExecMode,
) -> Result<ExecStats> {
    Program::lower(kernel)?
        .bind(args, grid_dim, block_dim, mode)?
        .frame()
        .run_block(block_idx, mem)
}

/// Execute the whole grid sequentially. Returns aggregate statistics.
pub fn execute_grid<M: MemAccess + ?Sized>(
    kernel: &Kernel,
    args: &[KernelArg],
    grid_dim: Dim3,
    block_dim: Dim3,
    mem: &mut M,
    mode: ExecMode,
) -> Result<ExecStats> {
    let program = Program::lower(kernel)?;
    let launch = program.bind(args, grid_dim, block_dim, mode)?;
    let mut frame = launch.frame();
    let mut stats = ExecStats::default();
    for bz in 0..grid_dim.z {
        for by in 0..grid_dim.y {
            for bx in 0..grid_dim.x {
                stats.add(&frame.run_block(Dim3::new3(bx, by, bz), mem)?);
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::interp::{KernelArg, VecMem};
    use crate::ir::Kernel;
    use crate::types::{ScalarTy, Value};

    fn saxpy() -> Kernel {
        Kernel {
            name: "saxpy".into(),
            params: vec![
                scalar("n"),
                scalar_f32("alpha"),
                array_f32("x", &[ext("n")]),
                array_f32("y", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store(
                    "y",
                    vec![v("i")],
                    v("alpha") * load("x", vec![v("i")]) + load("y", vec![v("i")]),
                ),
            ],
        }
    }

    #[test]
    fn full_grid_saxpy() {
        let k = saxpy();
        let n = 100usize;
        let mut mem = VecMem::new();
        let x = mem.alloc_from(&(0..n).map(|i| Value::F32(i as f32)).collect::<Vec<_>>());
        let y = mem.alloc_from(&(0..n).map(|_| Value::F32(1.0)).collect::<Vec<_>>());
        let args = [
            KernelArg::Scalar(Value::I64(n as i64)),
            KernelArg::Scalar(Value::F32(2.0)),
            KernelArg::Array(x),
            KernelArg::Array(y),
        ];
        // 100 elements, blockDim 32 -> 4 blocks (128 threads, 28 guarded).
        let stats = execute_grid(
            &k,
            &args,
            Dim3::new1(4),
            Dim3::new1(32),
            &mut mem,
            ExecMode::Functional,
        )
        .unwrap();
        let out = mem.read_all(y, ScalarTy::F32);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Value::F32(2.0 * i as f32 + 1.0));
        }
        assert_eq!(stats.stores, 100);
    }

    #[test]
    fn grid_2d_indexing() {
        // out[y][x] = y * 10 + x
        let k = Kernel {
            name: "coords".into(),
            params: vec![
                scalar("h"),
                scalar("w"),
                array_f32("out", &[ext("h"), ext("w")]),
            ],
            body: vec![
                let_("gx", global_x()),
                let_("gy", global_y()),
                guard_return(v("gx").ge(v("w")).or(v("gy").ge(v("h")))),
                store(
                    "out",
                    vec![v("gy"), v("gx")],
                    to_f32(v("gy") * i(10) + v("gx")),
                ),
            ],
        };
        let (h, w) = (6u32, 8u32);
        let mut mem = VecMem::new();
        let out = mem.alloc((h * w) as usize * 4);
        let args = [
            KernelArg::Scalar(Value::I64(h as i64)),
            KernelArg::Scalar(Value::I64(w as i64)),
            KernelArg::Array(out),
        ];
        execute_grid(
            &k,
            &args,
            Dim3::new2(2, 2), // 2x2 blocks of 4x4 threads -> 8x8 covers 6x8
            Dim3::new2(4, 4),
            &mut mem,
            ExecMode::Functional,
        )
        .unwrap();
        let vals = mem.read_all(out, ScalarTy::F32);
        for y in 0..h as usize {
            for x in 0..w as usize {
                assert_eq!(vals[y * w as usize + x], Value::F32((y * 10 + x) as f32));
            }
        }
    }

    #[test]
    fn stats_scale_with_grid() {
        let k = saxpy();
        let mut mem = VecMem::new();
        let args = [
            KernelArg::Scalar(Value::I64(1 << 20)),
            KernelArg::Scalar(Value::F32(2.0)),
            KernelArg::Array(0),
            KernelArg::Array(1),
        ];
        let one = execute_block(
            &k,
            &args,
            Dim3::new1(0),
            Dim3::new1(64),
            Dim3::new1(1024),
            &mut mem,
            ExecMode::CountOnly,
        )
        .unwrap();
        let two = execute_grid(
            &k,
            &args,
            Dim3::new1(2),
            Dim3::new1(64),
            &mut mem,
            ExecMode::CountOnly,
        )
        .unwrap();
        assert_eq!(two.loads, 2 * one.loads);
        assert_eq!(two.flops, 2 * one.flops);
    }
}
