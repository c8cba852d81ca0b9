//! The tree-walking interpreter, kept as the executor's oracle.
//!
//! This is the per-thread interpreter `crates/kernel` shipped before
//! kernels were lowered: it finds every variable by name and re-derives
//! every extent on every access. It is slow and obviously right, written
//! against the crate's public IR only, and the differential tests
//! (`tests/differential.rs` here, `exec_identity.rs` in
//! `crates/workloads`, which includes this file by `#[path]`) hold the
//! lowered executor to its bytes, its `ExecStats` and its error values
//! in both modes.
//!
//! It is the old code with the semantics this repository settled on:
//! integer edge cases wrap or are typed errors (never panics), and an
//! array extent names a scalar *parameter* (a local of the same name
//! does not shadow it).

#![allow(dead_code)]

use mekong_kernel::{
    Axis, BinOp, Dim3, ExecMode, ExecStats, Expr, Extent, GridVar, Kernel, KernelArg, KernelError,
    KernelParam, MemAccess, Result, ScalarTy, Stmt, UnOp, Value,
};

/// The position of one thread in the launch grid.
#[derive(Debug, Clone, Copy)]
pub struct ThreadCtx {
    pub block_idx: Dim3,
    pub thread_idx: Dim3,
    pub block_dim: Dim3,
    pub grid_dim: Dim3,
}

impl ThreadCtx {
    fn grid_value(&self, g: GridVar) -> i64 {
        fn comp(d: Dim3, a: Axis) -> i64 {
            match a {
                Axis::X => d.x as i64,
                Axis::Y => d.y as i64,
                Axis::Z => d.z as i64,
            }
        }
        match g {
            GridVar::ThreadIdx(a) => comp(self.thread_idx, a),
            GridVar::BlockIdx(a) => comp(self.block_idx, a),
            GridVar::BlockDim(a) => comp(self.block_dim, a),
            GridVar::GridDim(a) => comp(self.grid_dim, a),
        }
    }
}

/// `cur = base + (cur - base) * factor` per counter — loop-trip
/// extrapolation in counting mode.
fn scale_since(cur: &mut ExecStats, base: &ExecStats, factor: f64) {
    fn scale(cur: &mut u64, base: u64, f: f64) {
        *cur = base + ((*cur - base) as f64 * f).round() as u64;
    }
    scale(&mut cur.int_ops, base.int_ops, factor);
    scale(&mut cur.flops, base.flops, factor);
    scale(&mut cur.loads, base.loads, factor);
    scale(&mut cur.stores, base.stores, factor);
    scale(&mut cur.bytes_loaded, base.bytes_loaded, factor);
    scale(&mut cur.bytes_stored, base.bytes_stored, factor);
    scale(&mut cur.branches, base.branches, factor);
}

enum Flow {
    Normal,
    Return,
}

/// Iteration safety budget per single loop execution.
const LOOP_BUDGET: i64 = 1 << 32;

/// The per-thread interpreter.
pub struct Interp<'a, M: MemAccess + ?Sized> {
    kernel: &'a Kernel,
    args: &'a [KernelArg],
    ctx: ThreadCtx,
    mem: &'a mut M,
    mode: ExecMode,
    stats: ExecStats,
    locals: Vec<(String, Value)>,
}

impl<'a, M: MemAccess + ?Sized> Interp<'a, M> {
    /// Create an interpreter for one thread.
    pub fn new(
        kernel: &'a Kernel,
        args: &'a [KernelArg],
        ctx: ThreadCtx,
        mem: &'a mut M,
        mode: ExecMode,
    ) -> Result<Self> {
        if args.len() != kernel.params.len() {
            return Err(KernelError::BadArguments {
                expected: kernel.params.len(),
                got: args.len(),
            });
        }
        Ok(Interp {
            kernel,
            args,
            ctx,
            mem,
            mode,
            stats: ExecStats::default(),
            locals: Vec::with_capacity(8),
        })
    }

    /// Run the thread to completion; returns its operation counters.
    pub fn run(mut self) -> Result<ExecStats> {
        let body = &self.kernel.body;
        self.exec_block(body)?;
        Ok(self.stats)
    }

    fn lookup(&self, name: &str) -> Result<Value> {
        // Innermost binding wins.
        if let Some((_, v)) = self.locals.iter().rev().find(|(n, _)| n == name) {
            return Ok(*v);
        }
        // Scalar parameter?
        if let Some(idx) = self.kernel.param_index(name) {
            if let KernelArg::Scalar(v) = self.args[idx] {
                return Ok(v);
            }
        }
        Err(KernelError::UnknownVar(name.to_string()))
    }

    /// The value of the scalar *parameter* `name`, as an extent.
    fn scalar_i64(&self, name: &str) -> Result<i64> {
        let arg = self.kernel.param_index(name).map(|i| self.args[i]);
        let Some(KernelArg::Scalar(v)) = arg else {
            return Err(KernelError::UnknownVar(name.to_string()));
        };
        v.as_i64().ok_or_else(|| KernelError::TypeMismatch {
            context: format!("parameter {name} used as integer extent"),
        })
    }

    /// Resolve an array access: returns (buffer handle, element type,
    /// linear offset), bounds-checked in functional mode.
    fn resolve_access(
        &mut self,
        array: &str,
        indices: &[Expr],
    ) -> Result<(usize, ScalarTy, usize)> {
        let pidx = self
            .kernel
            .param_index(array)
            .ok_or_else(|| KernelError::UnknownArray(array.to_string()))?;
        let (elem, extents) = match &self.kernel.params[pidx] {
            KernelParam::Array { elem, extents, .. } => (*elem, extents.clone()),
            _ => return Err(KernelError::UnknownArray(array.to_string())),
        };
        let handle = match self.args[pidx] {
            KernelArg::Array(h) => h,
            _ => {
                return Err(KernelError::TypeMismatch {
                    context: format!("scalar passed for array parameter {array}"),
                })
            }
        };
        let mut idx_vals = Vec::with_capacity(indices.len());
        for e in indices {
            let val = self.eval(e)?;
            idx_vals.push(val.as_i64().ok_or_else(|| KernelError::TypeMismatch {
                context: format!("non-integer index into {array}"),
            })?);
        }
        let mut ext_vals = Vec::with_capacity(extents.len());
        for ext in &extents {
            ext_vals.push(match ext {
                Extent::Const(c) => *c,
                Extent::Param(p) => self.scalar_i64(p)?,
            });
        }
        if self.mode == ExecMode::Functional {
            for (&iv, &ev) in idx_vals.iter().zip(&ext_vals) {
                if iv < 0 || iv >= ev {
                    return Err(KernelError::OutOfBounds {
                        array: array.to_string(),
                        index: idx_vals.clone(),
                        extents: ext_vals.clone(),
                    });
                }
            }
        }
        // Row-major linearization.
        let mut linear: i64 = 0;
        for (iv, ev) in idx_vals.iter().zip(&ext_vals) {
            linear = linear.wrapping_mul(*ev).wrapping_add(*iv);
        }
        Ok((handle, elem, linear.max(0) as usize))
    }

    fn eval(&mut self, e: &Expr) -> Result<Value> {
        match e {
            Expr::Int(v) => Ok(Value::I64(*v)),
            Expr::Float(v) => Ok(Value::F32(*v as f32)),
            Expr::Var(name) => self.lookup(name),
            Expr::Grid(g) => Ok(Value::I64(self.ctx.grid_value(*g))),
            Expr::Load { array, indices } => {
                let (handle, elem, off) = self.resolve_access(array, indices)?;
                self.stats.loads += 1;
                self.stats.bytes_loaded += elem.size_bytes() as u64;
                match self.mode {
                    ExecMode::Functional => Ok(self.mem.load(handle, off, elem)),
                    ExecMode::CountOnly => {
                        // Deterministic synthetic value derived from the
                        // offset so data-dependent code stays stable.
                        Ok(match elem {
                            ScalarTy::I64 => Value::I64((off % 7) as i64 + 1),
                            ScalarTy::F32 => Value::F32(1.0 + (off % 7) as f32 * 0.125),
                            ScalarTy::F64 => Value::F64(1.0 + (off % 7) as f64 * 0.125),
                        })
                    }
                }
            }
            Expr::Unary(op, a) => {
                let av = self.eval(a)?;
                self.apply_unary(*op, av)
            }
            Expr::Binary(op, a, b) => {
                let av = self.eval(a)?;
                // Short-circuit logical operators.
                if *op == BinOp::And && !av.is_truthy() {
                    self.stats.int_ops += 1;
                    return Ok(Value::I64(0));
                }
                if *op == BinOp::Or && av.is_truthy() {
                    self.stats.int_ops += 1;
                    return Ok(Value::I64(1));
                }
                let bv = self.eval(b)?;
                self.apply_binary(*op, av, bv)
            }
            Expr::Cast(ty, a) => {
                let av = self.eval(a)?;
                Ok(av.cast(*ty))
            }
            Expr::Select(c, a, b) => {
                let cv = self.eval(c)?;
                self.stats.branches += 1;
                if cv.is_truthy() {
                    self.eval(a)
                } else {
                    self.eval(b)
                }
            }
        }
    }

    fn apply_unary(&mut self, op: UnOp, a: Value) -> Result<Value> {
        match op {
            UnOp::Neg => {
                self.count_arith(a.ty(), 1);
                Ok(match a {
                    Value::I64(v) => Value::I64(v.wrapping_neg()),
                    Value::F32(v) => Value::F32(-v),
                    Value::F64(v) => Value::F64(-v),
                })
            }
            UnOp::Not => {
                self.stats.int_ops += 1;
                Ok(Value::I64(if a.is_truthy() { 0 } else { 1 }))
            }
            UnOp::Sqrt | UnOp::Exp | UnOp::Log => {
                // Transcendentals cost several FLOP-equivalents.
                self.stats.flops += 8;
                let x = a.as_f64();
                let r = match op {
                    UnOp::Sqrt => x.sqrt(),
                    UnOp::Exp => x.exp(),
                    UnOp::Log => x.ln(),
                    _ => unreachable!(),
                };
                Ok(match a.ty() {
                    ScalarTy::F64 => Value::F64(r),
                    _ => Value::F32(r as f32),
                })
            }
            UnOp::Abs => {
                self.count_arith(a.ty(), 1);
                Ok(match a {
                    Value::I64(v) => Value::I64(v.wrapping_abs()),
                    Value::F32(v) => Value::F32(v.abs()),
                    Value::F64(v) => Value::F64(v.abs()),
                })
            }
        }
    }

    fn count_arith(&mut self, ty: ScalarTy, n: u64) {
        if ty.is_float() {
            self.stats.flops += n;
        } else {
            self.stats.int_ops += n;
        }
    }

    fn apply_binary(&mut self, op: BinOp, a: Value, b: Value) -> Result<Value> {
        use ScalarTy::*;
        // Numeric promotion: f64 > f32 > i64.
        let ty = match (a.ty(), b.ty()) {
            (F64, _) | (_, F64) => F64,
            (F32, _) | (_, F32) => F32,
            _ => I64,
        };
        if op.is_comparison() {
            self.count_arith(ty, 1);
            let r = match ty {
                I64 => {
                    let (x, y) = (a.as_i64().unwrap(), b.as_i64().unwrap());
                    match op {
                        BinOp::Lt => x < y,
                        BinOp::Le => x <= y,
                        BinOp::Gt => x > y,
                        BinOp::Ge => x >= y,
                        BinOp::EqEq => x == y,
                        BinOp::Ne => x != y,
                        _ => unreachable!(),
                    }
                }
                _ => {
                    let (x, y) = (a.as_f64(), b.as_f64());
                    match op {
                        BinOp::Lt => x < y,
                        BinOp::Le => x <= y,
                        BinOp::Gt => x > y,
                        BinOp::Ge => x >= y,
                        BinOp::EqEq => x == y,
                        BinOp::Ne => x != y,
                        _ => unreachable!(),
                    }
                }
            };
            return Ok(Value::I64(r as i64));
        }
        match op {
            BinOp::And => {
                self.stats.int_ops += 1;
                return Ok(Value::I64((a.is_truthy() && b.is_truthy()) as i64));
            }
            BinOp::Or => {
                self.stats.int_ops += 1;
                return Ok(Value::I64((a.is_truthy() || b.is_truthy()) as i64));
            }
            _ => {}
        }
        self.count_arith(ty, if op == BinOp::Div { 4 } else { 1 });
        let out = match ty {
            I64 => {
                let (x, y) = (a.as_i64().unwrap(), b.as_i64().unwrap());
                Value::I64(match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            return Err(KernelError::DivByZero);
                        }
                        x.wrapping_div(y)
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            return Err(KernelError::DivByZero);
                        }
                        x.wrapping_rem(y)
                    }
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    _ => unreachable!(),
                })
            }
            F32 => {
                let (x, y) = (a.as_f64() as f32, b.as_f64() as f32);
                Value::F32(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Rem => x % y,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    _ => unreachable!(),
                })
            }
            F64 => {
                let (x, y) = (a.as_f64(), b.as_f64());
                Value::F64(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Rem => x % y,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    _ => unreachable!(),
                })
            }
        };
        Ok(out)
    }

    fn exec_block(&mut self, body: &[Stmt]) -> Result<Flow> {
        let depth = self.locals.len();
        for s in body {
            match self.exec_stmt(s)? {
                Flow::Return => {
                    self.locals.truncate(depth);
                    return Ok(Flow::Return);
                }
                Flow::Normal => {}
            }
        }
        self.locals.truncate(depth);
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<Flow> {
        match s {
            Stmt::Let { var, value } => {
                let v = self.eval(value)?;
                self.locals.push((var.clone(), v));
                Ok(Flow::Normal)
            }
            Stmt::Assign { var, value } => {
                let v = self.eval(value)?;
                if let Some(slot) = self.locals.iter_mut().rev().find(|(n, _)| n == var) {
                    slot.1 = v;
                    Ok(Flow::Normal)
                } else {
                    Err(KernelError::UnknownVar(var.clone()))
                }
            }
            Stmt::Store {
                array,
                indices,
                value,
            } => {
                let val = self.eval(value)?;
                let (handle, elem, off) = self.resolve_access(array, indices)?;
                let val = val.cast(elem);
                self.stats.stores += 1;
                self.stats.bytes_stored += elem.size_bytes() as u64;
                if self.mode == ExecMode::Functional {
                    self.mem.store(handle, off, val);
                }
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_, else_ } => {
                let c = self.eval(cond)?;
                self.stats.branches += 1;
                if c.is_truthy() {
                    self.exec_block(then_)
                } else {
                    self.exec_block(else_)
                }
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo_v = self
                    .eval(lo)?
                    .as_i64()
                    .ok_or_else(|| KernelError::TypeMismatch {
                        context: format!("loop bound of {var}"),
                    })?;
                let hi_v = self
                    .eval(hi)?
                    .as_i64()
                    .ok_or_else(|| KernelError::TypeMismatch {
                        context: format!("loop bound of {var}"),
                    })?;
                // A span that does not fit an i64 is over any budget.
                let span = if hi_v > lo_v {
                    hi_v.checked_sub(lo_v)
                } else {
                    Some(0)
                };
                let trip = match span {
                    Some(span) => span / step + (span % step != 0) as i64,
                    None => i64::MAX,
                };
                if trip > LOOP_BUDGET {
                    return Err(KernelError::IterationBudget { var: var.clone() });
                }
                // Counting mode extrapolates long loops from a sample of
                // iterations: the per-iteration cost of regular kernels is
                // uniform, and the roofline model only needs totals.
                const SAMPLE_THRESHOLD: i64 = 64;
                const SAMPLE_ITERS: i64 = 16;
                let sampled = self.mode == ExecMode::CountOnly && trip > SAMPLE_THRESHOLD;
                let run_iters = if sampled { SAMPLE_ITERS } else { trip };
                let base = self.stats;
                self.locals.push((var.clone(), Value::I64(lo_v)));
                let slot = self.locals.len() - 1;
                let mut i = lo_v;
                let mut done = 0i64;
                while done < run_iters {
                    self.locals[slot].1 = Value::I64(i);
                    match self.exec_block(body)? {
                        Flow::Return => {
                            self.locals.truncate(slot);
                            return Ok(Flow::Return);
                        }
                        Flow::Normal => {}
                    }
                    i = i.wrapping_add(*step);
                    done += 1;
                    self.stats.int_ops += 1;
                }
                if sampled {
                    scale_since(&mut self.stats, &base, trip as f64 / run_iters as f64);
                }
                self.locals.truncate(slot);
                Ok(Flow::Normal)
            }
            Stmt::Return => Ok(Flow::Return),
            Stmt::SyncThreads => Ok(Flow::Normal),
        }
    }
}

/// Execute one thread.
pub fn execute_thread<M: MemAccess + ?Sized>(
    kernel: &Kernel,
    args: &[KernelArg],
    ctx: ThreadCtx,
    mem: &mut M,
    mode: ExecMode,
) -> Result<ExecStats> {
    Interp::new(kernel, args, ctx, mem, mode)?.run()
}

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
    let mut stats = ExecStats::default();
    for tz in 0..block_dim.z {
        for ty in 0..block_dim.y {
            for tx in 0..block_dim.x {
                let ctx = ThreadCtx {
                    block_idx,
                    thread_idx: Dim3::new3(tx, ty, tz),
                    block_dim,
                    grid_dim,
                };
                stats.add(&execute_thread(kernel, args, ctx, mem, mode)?);
            }
        }
    }
    Ok(stats)
}

/// Execute the whole grid sequentially.
pub fn execute_grid<M: MemAccess + ?Sized>(
    kernel: &Kernel,
    args: &[KernelArg],
    grid_dim: Dim3,
    block_dim: Dim3,
    mem: &mut M,
    mode: ExecMode,
) -> Result<ExecStats> {
    let mut stats = ExecStats::default();
    for bz in 0..grid_dim.z {
        for by in 0..grid_dim.y {
            for bx in 0..grid_dim.x {
                let block = Dim3::new3(bx, by, bz);
                stats.add(&execute_block(
                    kernel, args, block, block_dim, grid_dim, mem, mode,
                )?);
            }
        }
    }
    Ok(stats)
}
