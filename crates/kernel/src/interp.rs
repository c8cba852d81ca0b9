//! Execution of a lowered kernel.
//!
//! A [`Program`] (names resolved once, [`crate::lower`]) is bound to one
//! launch — [`Program::bind`] checks the argument count and turns array
//! extents into integers — and a [`Frame`] then runs threads over it:
//! grid coordinates and locals live in frame slots, allocated once per
//! frame and reused by every thread. The per-thread success path
//! compares no strings and allocates nothing.
//!
//! Execution serves two purposes, as two modes of the same program:
//!
//! 1. **Functional execution** — runs real data through the kernel for
//!    bit-exact correctness checks of the partitioning pipeline.
//! 2. **Cost measurement** — counts executed operations, loads and stores
//!    per thread; the simulator samples threads in this mode to calibrate
//!    its timing model ([`ExecMode::CountOnly`]).
//!
//! Values are dynamically typed: a local may change type on assignment
//! and numeric promotion (`f64 > f32 > i64`) follows run-time tags. The
//! tree-walking interpreter this replaced lives on as the test oracle
//! (`tests/oracle`), and the differential tests hold the two to the same
//! bytes, counters and error values.

use crate::lower::{Access, ExtentSlot, Node, Op, Operands, Program, GRID_SLOTS};
use crate::types::{Dim3, ScalarTy, Value};
use crate::{KernelError, Result};

/// Memory interface the executor reads/writes through. `array` is the
/// buffer handle from the corresponding [`KernelArg::Array`]; `offset` is a
/// linear element index (row-major).
pub trait MemAccess {
    fn load(&self, array: usize, offset: usize, ty: ScalarTy) -> Value;
    fn store(&mut self, array: usize, offset: usize, value: Value);
}

/// Simple heap-backed memory: one byte vector per buffer handle.
#[derive(Debug, Default, Clone)]
pub struct VecMem {
    buffers: Vec<Vec<u8>>,
}

impl VecMem {
    /// Fresh, empty memory.
    pub fn new() -> VecMem {
        VecMem::default()
    }

    /// Allocate a zero-initialized buffer of `bytes` bytes; returns its
    /// handle.
    pub fn alloc(&mut self, bytes: usize) -> usize {
        self.buffers.push(vec![0u8; bytes]);
        self.buffers.len() - 1
    }

    /// Allocate and fill from typed values.
    pub fn alloc_from(&mut self, values: &[Value]) -> usize {
        let id = self.alloc(values.iter().map(|v| v.ty().size_bytes()).sum());
        let mut off = 0;
        for v in values {
            let sz = v.ty().size_bytes();
            v.to_le_bytes(&mut self.buffers[id][off..off + sz]);
            off += sz;
        }
        id
    }

    /// Raw bytes of a buffer.
    pub fn bytes(&self, id: usize) -> &[u8] {
        &self.buffers[id]
    }

    /// Mutable raw bytes of a buffer.
    pub fn bytes_mut(&mut self, id: usize) -> &mut [u8] {
        &mut self.buffers[id]
    }

    /// Read the whole buffer as a typed vector.
    pub fn read_all(&self, id: usize, ty: ScalarTy) -> Vec<Value> {
        let sz = ty.size_bytes();
        self.buffers[id]
            .chunks_exact(sz)
            .map(|c| Value::from_le_bytes(ty, c))
            .collect()
    }
}

impl MemAccess for VecMem {
    #[inline]
    fn load(&self, array: usize, offset: usize, ty: ScalarTy) -> Value {
        let sz = ty.size_bytes();
        let start = offset * sz;
        Value::from_le_bytes(ty, &self.buffers[array][start..start + sz])
    }

    #[inline]
    fn store(&mut self, array: usize, offset: usize, value: Value) {
        let sz = value.ty().size_bytes();
        let start = offset * sz;
        value.to_le_bytes(&mut self.buffers[array][start..start + sz]);
    }
}

/// A kernel launch argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelArg {
    /// Scalar by value.
    Scalar(Value),
    /// Array by buffer handle (meaningful to the [`MemAccess`]).
    Array(usize),
}

/// Execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Real loads/stores with bounds checking.
    Functional,
    /// Count operations only: loads return a synthetic value, stores are
    /// dropped, bounds are not checked. Used for cost-model sampling.
    CountOnly,
}

/// Operation counters accumulated while interpreting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Integer ALU operations.
    pub int_ops: u64,
    /// Floating-point operations (transcendental ops count more, see
    /// [`UnOp`] handling).
    pub flops: u64,
    /// Number of array loads.
    pub loads: u64,
    /// Number of array stores.
    pub stores: u64,
    /// Bytes read from arrays.
    pub bytes_loaded: u64,
    /// Bytes written to arrays.
    pub bytes_stored: u64,
    /// Conditional branches executed.
    pub branches: u64,
}

impl ExecStats {
    /// `self = base + (self - base) * factor` — scale the counters
    /// accumulated since `base` (loop-trip extrapolation in counting
    /// mode).
    fn scale_since(&mut self, base: &ExecStats, factor: f64) {
        fn scale(cur: &mut u64, base: u64, f: f64) {
            *cur = base + ((*cur - base) as f64 * f).round() as u64;
        }
        scale(&mut self.int_ops, base.int_ops, factor);
        scale(&mut self.flops, base.flops, factor);
        scale(&mut self.loads, base.loads, factor);
        scale(&mut self.stores, base.stores, factor);
        scale(&mut self.bytes_loaded, base.bytes_loaded, factor);
        scale(&mut self.bytes_stored, base.bytes_stored, factor);
        scale(&mut self.branches, base.branches, factor);
    }

    /// Accumulate another thread's counters.
    pub fn add(&mut self, other: &ExecStats) {
        self.int_ops += other.int_ops;
        self.flops += other.flops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.bytes_loaded += other.bytes_loaded;
        self.bytes_stored += other.bytes_stored;
        self.branches += other.branches;
    }

    /// Total bytes moved.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_loaded + self.bytes_stored
    }
}

/// Iteration safety budget per single loop execution.
const LOOP_BUDGET: i64 = 1 << 32;

/// Counting mode extrapolates a loop of more than `SAMPLE_THRESHOLD`
/// iterations from its first `SAMPLE_ITERS`: the per-iteration cost of
/// regular kernels is uniform, and the roofline model only needs totals.
const SAMPLE_THRESHOLD: i64 = 64;
const SAMPLE_ITERS: i64 = 16;

/// Iterations of `for (i = lo; i < hi; i += step)` with `step > 0`;
/// `None` when the span `hi - lo` does not fit an `i64`.
fn trip_count(lo: i64, hi: i64, step: i64) -> Option<i64> {
    if hi <= lo {
        return Some(0);
    }
    let span = hi.checked_sub(lo)?;
    Some(span / step + (span % step != 0) as i64)
}

/// The value a counting-mode load yields: derived from the offset, so
/// data-dependent code stays deterministic without touching memory.
fn synthetic_load(elem: ScalarTy, offset: usize) -> Value {
    match elem {
        ScalarTy::I64 => Value::I64((offset % 7) as i64 + 1),
        ScalarTy::F32 => Value::F32(1.0 + (offset % 7) as f32 * 0.125),
        ScalarTy::F64 => Value::F64(1.0 + (offset % 7) as f64 * 0.125),
    }
}

/// Whether an array parameter's argument and extents bound. A mismatch
/// fails the threads that reach an access to that array, not the launch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Binding {
    Ok,
    /// A scalar was passed for the array.
    NotAnArray,
    /// An extent's argument is not an integer scalar.
    BadExtent,
}

struct BoundArray {
    handle: usize,
    elem: ScalarTy,
    /// This array's extents are `Launch::extents[ext..ext + rank]`.
    ext: usize,
    rank: usize,
    binding: Binding,
}

/// A [`Program`] bound to one launch: arguments, extents as integers,
/// geometry and mode. Shared by the frames that run its blocks.
pub struct Launch<'a> {
    program: &'a Program,
    args: &'a [KernelArg],
    /// The scalar arguments by argument index; `None` where the argument
    /// is an array.
    scalars: Vec<Option<Val>>,
    arrays: Vec<BoundArray>,
    extents: Vec<i64>,
    block_dim: Dim3,
    grid_dim: Dim3,
    mode: ExecMode,
}

impl Program {
    /// The value of one extent under `args`.
    fn extent_value(&self, extent: ExtentSlot, args: &[KernelArg]) -> Result<i64> {
        match extent {
            ExtentSlot::Const(c) => Ok(c),
            ExtentSlot::Arg(i) => match args[i] {
                KernelArg::Scalar(Value::I64(v)) => Ok(v),
                KernelArg::Scalar(_) => Err(KernelError::TypeMismatch {
                    context: format!("parameter {} used as integer extent", self.param_names[i]),
                }),
                KernelArg::Array(_) => Err(KernelError::UnknownVar(self.param_names[i].clone())),
            },
        }
    }

    /// Bind the program to one launch. Fails on a wrong argument count.
    pub fn bind<'a>(
        &'a self,
        args: &'a [KernelArg],
        grid_dim: Dim3,
        block_dim: Dim3,
        mode: ExecMode,
    ) -> Result<Launch<'a>> {
        if args.len() != self.param_names.len() {
            return Err(KernelError::BadArguments {
                expected: self.param_names.len(),
                got: args.len(),
            });
        }
        let mut extents = Vec::new();
        let arrays = self
            .arrays
            .iter()
            .map(|a| {
                let ext = extents.len();
                let mut binding = Binding::Ok;
                for &e in &a.extents {
                    extents.push(self.extent_value(e, args).unwrap_or_else(|_| {
                        binding = Binding::BadExtent;
                        0
                    }));
                }
                let handle = match args[a.arg] {
                    KernelArg::Array(h) => h,
                    KernelArg::Scalar(_) => {
                        binding = Binding::NotAnArray;
                        0
                    }
                };
                BoundArray {
                    handle,
                    elem: a.elem,
                    ext,
                    rank: a.extents.len(),
                    binding,
                }
            })
            .collect();
        let scalars = args
            .iter()
            .map(|a| match a {
                KernelArg::Scalar(v) => Some(Val::from(*v)),
                KernelArg::Array(_) => None,
            })
            .collect();
        Ok(Launch {
            program: self,
            args,
            scalars,
            arrays,
            extents,
            block_dim,
            grid_dim,
            mode,
        })
    }
}

impl Launch<'_> {
    /// A frame to run this launch's threads on. Allocates the local
    /// slots; running threads allocates nothing.
    pub fn frame(&self) -> Frame<'_> {
        let mut frame = Frame {
            launch: self,
            slots: vec![Val::int(0); self.program.frame_slots],
            stats: ExecStats::default(),
            error: None,
        };
        frame.set_coords(6, self.block_dim);
        frame.set_coords(9, self.grid_dim);
        frame
    }

    /// Why array `a` did not bind.
    #[cold]
    fn binding_error(&self, a: usize) -> KernelError {
        let slot = &self.program.arrays[a];
        if self.arrays[a].binding == Binding::NotAnArray {
            return KernelError::TypeMismatch {
                context: format!(
                    "scalar passed for array parameter {}",
                    self.program.param_names[slot.arg]
                ),
            };
        }
        let first_bad = slot
            .extents
            .iter()
            .find_map(|&e| self.program.extent_value(e, self.args).err());
        first_bad.expect("an array bound as BadExtent has a failing extent")
    }
}

enum Flow {
    Normal,
    Return,
}

/// A step failed; the error is in [`Frame::error`]. Zero-sized, so a
/// step's result travels in registers.
struct Trap;

type Step<T> = std::result::Result<T, Trap>;

/// A [`Value`] as a type tag and 64 payload bits — two words the
/// evaluator passes in registers, where the enum goes through memory.
#[derive(Clone, Copy)]
struct Val {
    ty: ScalarTy,
    bits: u64,
}

impl Val {
    fn int(v: i64) -> Val {
        Val {
            ty: ScalarTy::I64,
            bits: v as u64,
        }
    }

    fn f32(v: f32) -> Val {
        Val {
            ty: ScalarTy::F32,
            bits: v.to_bits() as u64,
        }
    }

    fn f64(v: f64) -> Val {
        Val {
            ty: ScalarTy::F64,
            bits: v.to_bits(),
        }
    }

    fn is_int(self) -> bool {
        self.ty == ScalarTy::I64
    }

    fn as_f64(self) -> f64 {
        Value::from(self).as_f64()
    }

    fn is_truthy(self) -> bool {
        Value::from(self).is_truthy()
    }
}

impl From<Value> for Val {
    fn from(v: Value) -> Val {
        match v {
            Value::I64(x) => Val::int(x),
            Value::F32(x) => Val::f32(x),
            Value::F64(x) => Val::f64(x),
        }
    }
}

impl From<Val> for Value {
    fn from(v: Val) -> Value {
        match v.ty {
            ScalarTy::I64 => Value::I64(v.bits as i64),
            ScalarTy::F32 => Value::F32(f32::from_bits(v.bits as u32)),
            ScalarTy::F64 => Value::F64(f64::from_bits(v.bits)),
        }
    }
}

/// The mutable state threads of one launch run on: coordinates, local
/// slots and the running thread's counters. One frame
/// serves any number of threads, one after the other.
pub struct Frame<'l> {
    launch: &'l Launch<'l>,
    /// First `threadIdx`, `blockIdx`, `blockDim`, `gridDim` as `x, y, z`
    /// each ([`crate::lower::grid_slot`]), then the locals.
    slots: Vec<Val>,
    stats: ExecStats,
    /// Why the running thread trapped.
    error: Option<KernelError>,
}

impl<'l> Frame<'l> {
    /// Run one thread to completion; returns its operation counters.
    pub fn run_thread<M: MemAccess + ?Sized>(
        &mut self,
        block_idx: Dim3,
        thread_idx: Dim3,
        mem: &mut M,
    ) -> Result<ExecStats> {
        self.set_coords(0, thread_idx);
        self.set_coords(3, block_idx);
        self.stats = ExecStats::default();
        let launch = self.launch;
        match self.block(&launch.program.body, mem) {
            Ok(_) => Ok(self.stats),
            Err(Trap) => Err(self.error.take().expect("a trap records its error")),
        }
    }

    /// Run every thread of one block (sequentially, `z`-outermost).
    ///
    /// Thread blocks are the atomic unit of the CUDA execution model
    /// (paper §2.1); running a block's threads sequentially is a legal
    /// schedule for the kernels in scope (no inter-thread communication
    /// below block scope).
    pub fn run_block<M: MemAccess + ?Sized>(
        &mut self,
        block_idx: Dim3,
        mem: &mut M,
    ) -> Result<ExecStats> {
        let dim = self.launch.block_dim;
        let mut stats = ExecStats::default();
        for tz in 0..dim.z {
            for ty in 0..dim.y {
                for tx in 0..dim.x {
                    stats.add(&self.run_thread(block_idx, Dim3::new3(tx, ty, tz), mem)?);
                }
            }
        }
        Ok(stats)
    }

    fn set_coords(&mut self, at: usize, d: Dim3) {
        debug_assert!(at + 3 <= GRID_SLOTS);
        for (slot, c) in self.slots[at..at + 3].iter_mut().zip([d.x, d.y, d.z]) {
            *slot = Val::int(c as i64);
        }
    }

    #[cold]
    fn trap(&mut self, e: KernelError) -> Trap {
        self.error = Some(e);
        Trap
    }

    fn functional(&self) -> bool {
        self.launch.mode == ExecMode::Functional
    }

    fn array_name(&self, a: usize) -> &'l str {
        let program = self.launch.program;
        &program.param_names[program.arrays[a].arg]
    }

    fn block<M: MemAccess + ?Sized>(&mut self, ops: &'l [Op], mem: &mut M) -> Step<Flow> {
        for op in ops {
            match op {
                Op::Set { slot, value } => {
                    self.slots[*slot as usize] = self.eval(value, mem)?;
                }
                Op::Store { access, value } => {
                    // Value before indices, as the source reads.
                    let value = self.eval(value, mem)?;
                    let (handle, elem, offset) = self.resolve(access, mem)?;
                    self.stats.stores += 1;
                    self.stats.bytes_stored += elem.size_bytes() as u64;
                    if self.functional() {
                        mem.store(handle, offset, Value::from(value).cast(elem));
                    }
                }
                Op::If { cond, then_, else_ } => {
                    let cond = self.eval(cond, mem)?;
                    self.stats.branches += 1;
                    let arm = if cond.is_truthy() { then_ } else { else_ };
                    if let Flow::Return = self.block(arm, mem)? {
                        return Ok(Flow::Return);
                    }
                }
                Op::For {
                    slot,
                    lo,
                    hi,
                    step,
                    var,
                    body,
                } => {
                    let lo = self.loop_bound(lo, var, mem)?;
                    let hi = self.loop_bound(hi, var, mem)?;
                    let Some(trip) = trip_count(lo, hi, *step).filter(|&t| t <= LOOP_BUDGET) else {
                        return Err(self.trap(KernelError::IterationBudget {
                            var: var.to_string(),
                        }));
                    };
                    let sampled = !self.functional() && trip > SAMPLE_THRESHOLD;
                    let run_iters = if sampled { SAMPLE_ITERS } else { trip };
                    let base = self.stats;
                    let mut i = lo;
                    for _ in 0..run_iters {
                        self.slots[*slot as usize] = Val::int(i);
                        if let Flow::Return = self.block(body, mem)? {
                            return Ok(Flow::Return);
                        }
                        i = i.wrapping_add(*step);
                        self.stats.int_ops += 1;
                    }
                    if sampled {
                        self.stats
                            .scale_since(&base, trip as f64 / run_iters as f64);
                    }
                }
                Op::Return => return Ok(Flow::Return),
            }
        }
        Ok(Flow::Normal)
    }

    fn loop_bound<M: MemAccess + ?Sized>(&mut self, e: &'l Node, var: &str, mem: &M) -> Step<i64> {
        let v = self.eval(e, mem)?;
        if v.ty != ScalarTy::I64 {
            return Err(self.trap(KernelError::TypeMismatch {
                context: format!("loop bound of {var}"),
            }));
        }
        Ok(v.bits as i64)
    }

    /// Resolve an array access: (buffer handle, element type, linear
    /// offset), bounds-checked in functional mode.
    #[inline(always)]
    fn resolve<M: MemAccess + ?Sized>(
        &mut self,
        access: &'l Access,
        mem: &M,
    ) -> Step<(usize, ScalarTy, usize)> {
        let launch = self.launch;
        let a = access.array as usize;
        let array = &launch.arrays[a];
        if array.binding == Binding::NotAnArray {
            return Err(self.trap(launch.binding_error(a)));
        }
        let extents = &launch.extents[array.ext..array.ext + array.rank];
        // Row-major linearization, as the indices arrive.
        let mut linear: i64 = 0;
        let mut inside = true;
        for (e, &ev) in access.indices.iter().zip(extents) {
            let iv = self.eval(e, mem)?;
            if !iv.is_int() {
                return Err(self.trap(KernelError::TypeMismatch {
                    context: format!("non-integer index into {}", self.array_name(a)),
                }));
            }
            let iv = iv.bits as i64;
            inside &= 0 <= iv && iv < ev;
            linear = linear.wrapping_mul(ev).wrapping_add(iv);
        }
        if array.binding == Binding::BadExtent {
            return Err(self.trap(launch.binding_error(a)));
        }
        if !inside && self.functional() {
            return Err(self.out_of_bounds(access, extents, mem));
        }
        Ok((array.handle, array.elem, linear.max(0) as usize))
    }

    /// The error for an access that left its array. The success path keeps
    /// no index vector, so this evaluates the indices once more: they are
    /// pure, and just evaluated to integers.
    #[cold]
    fn out_of_bounds<M: MemAccess + ?Sized>(
        &mut self,
        access: &'l Access,
        extents: &[i64],
        mem: &M,
    ) -> Trap {
        let index = access.indices.iter().map(|e| match self.eval(e, mem) {
            Ok(iv) => iv.bits as i64,
            Err(Trap) => unreachable!("the index was evaluated a moment ago"),
        });
        let e = KernelError::OutOfBounds {
            index: index.collect(),
            array: self.array_name(access.array as usize).to_string(),
            extents: extents.to_vec(),
        };
        self.trap(e)
    }

    /// Leaves are read in place; only an operator or a load costs a call.
    #[inline(always)]
    fn eval<M: MemAccess + ?Sized>(&mut self, e: &'l Node, mem: &M) -> Step<Val> {
        if let Node::Slot(slot) = e {
            Ok(self.slots[*slot as usize])
        } else if let Node::Const(v) = e {
            Ok(Val::from(*v))
        } else if let Node::Param(arg) = e {
            match self.launch.scalars[*arg as usize] {
                Some(v) => Ok(v),
                None => Err(self.array_for_scalar(*arg as usize)),
            }
        } else {
            self.eval_node(e, mem)
        }
    }

    /// An array was passed for the scalar parameter at `arg`.
    #[cold]
    fn array_for_scalar(&mut self, arg: usize) -> Trap {
        let name = self.launch.program.param_names[arg].clone();
        self.trap(KernelError::UnknownVar(name))
    }

    #[inline(always)]
    fn eval_pair<M: MemAccess + ?Sized>(&mut self, ab: &'l Operands, mem: &M) -> Step<(Val, Val)> {
        let a = self.eval(&ab[0], mem)?;
        Ok((a, self.eval(&ab[1], mem)?))
    }

    /// The operands of a division: integers must not divide by zero.
    #[inline(always)]
    fn dividend_and_divisor<M: MemAccess + ?Sized>(
        &mut self,
        ab: &'l Operands,
        mem: &M,
    ) -> Step<(Val, Val)> {
        let (a, b) = self.eval_pair(ab, mem)?;
        if a.is_int() && b.is_int() && b.bits == 0 {
            return Err(self.trap(KernelError::DivByZero));
        }
        Ok((a, b))
    }

    fn eval_node<M: MemAccess + ?Sized>(&mut self, e: &'l Node, mem: &M) -> Step<Val> {
        /// `$int` between integers, else `$float` at the promoted type.
        macro_rules! arith {
            ($ab:expr, $cost:expr, $int:expr, $float:expr) => {{
                let (a, b) = self.eval_pair($ab, mem)?;
                self.arith(a, b, $cost, $int, $float, $float)
            }};
        }
        macro_rules! compare {
            ($ab:expr, $op:tt) => {{
                let (a, b) = self.eval_pair($ab, mem)?;
                self.compare(a, b, |x, y| x $op y, |x, y| x $op y)
            }};
        }
        Ok(match e {
            Node::Const(_) | Node::Slot(_) | Node::Param(_) => {
                unreachable!("leaves are read by `eval`")
            }
            Node::Load(access) => {
                let (handle, elem, offset) = self.resolve(access, mem)?;
                self.stats.loads += 1;
                self.stats.bytes_loaded += elem.size_bytes() as u64;
                Val::from(if self.functional() {
                    mem.load(handle, offset, elem)
                } else {
                    synthetic_load(elem, offset)
                })
            }
            Node::Neg(a) => self.sign(a, mem, i64::wrapping_neg, |x| -x, |x| -x)?,
            Node::Abs(a) => self.sign(a, mem, i64::wrapping_abs, f32::abs, f64::abs)?,
            Node::Not(a) => {
                let a = self.eval(a, mem)?;
                self.stats.int_ops += 1;
                Val::int(!a.is_truthy() as i64)
            }
            Node::Sqrt(a) => self.transcendental(a, mem, f64::sqrt)?,
            Node::Exp(a) => self.transcendental(a, mem, f64::exp)?,
            Node::Log(a) => self.transcendental(a, mem, f64::ln)?,
            Node::Add(ab) => arith!(ab, 1, i64::wrapping_add, |x, y| x + y),
            Node::Sub(ab) => arith!(ab, 1, i64::wrapping_sub, |x, y| x - y),
            Node::Mul(ab) => arith!(ab, 1, i64::wrapping_mul, |x, y| x * y),
            Node::Div(ab) => {
                let (a, b) = self.dividend_and_divisor(ab, mem)?;
                self.arith(a, b, 4, i64::wrapping_div, |x, y| x / y, |x, y| x / y)
            }
            Node::Rem(ab) => {
                let (a, b) = self.dividend_and_divisor(ab, mem)?;
                self.arith(a, b, 1, i64::wrapping_rem, |x, y| x % y, |x, y| x % y)
            }
            Node::Min(ab) => {
                let (a, b) = self.eval_pair(ab, mem)?;
                self.arith(a, b, 1, i64::min, f32::min, f64::min)
            }
            Node::Max(ab) => {
                let (a, b) = self.eval_pair(ab, mem)?;
                self.arith(a, b, 1, i64::max, f32::max, f64::max)
            }
            Node::Lt(ab) => compare!(ab, <),
            Node::Le(ab) => compare!(ab, <=),
            Node::Gt(ab) => compare!(ab, >),
            Node::Ge(ab) => compare!(ab, >=),
            Node::EqEq(ab) => compare!(ab, ==),
            Node::Ne(ab) => compare!(ab, !=),
            // Short-circuit: one integer op whichever way it goes.
            Node::And(ab) => {
                let a = self.eval(&ab[0], mem)?.is_truthy();
                let both = a && self.eval(&ab[1], mem)?.is_truthy();
                self.stats.int_ops += 1;
                Val::int(both as i64)
            }
            Node::Or(ab) => {
                let a = self.eval(&ab[0], mem)?.is_truthy();
                let either = a || self.eval(&ab[1], mem)?.is_truthy();
                self.stats.int_ops += 1;
                Val::int(either as i64)
            }
            Node::Cast(ty, a) => Val::from(Value::from(self.eval(a, mem)?).cast(*ty)),
            Node::Select(cab) => {
                let c = self.eval(&cab[0], mem)?;
                self.stats.branches += 1;
                self.eval(&cab[if c.is_truthy() { 1 } else { 2 }], mem)?
            }
        })
    }

    /// `-x`, `abs(x)`: one operation at the operand's own type.
    fn sign<M: MemAccess + ?Sized>(
        &mut self,
        a: &'l Node,
        mem: &M,
        int: fn(i64) -> i64,
        single: fn(f32) -> f32,
        double: fn(f64) -> f64,
    ) -> Step<Val> {
        Ok(match self.eval(a, mem)?.into() {
            Value::I64(v) => {
                self.stats.int_ops += 1;
                Val::int(int(v))
            }
            Value::F32(v) => {
                self.stats.flops += 1;
                Val::f32(single(v))
            }
            Value::F64(v) => {
                self.stats.flops += 1;
                Val::f64(double(v))
            }
        })
    }

    /// `sqrt`, `exp`, `log`: several FLOP-equivalents each, computed in
    /// `f64` and narrowed unless the operand was an `f64`.
    fn transcendental<M: MemAccess + ?Sized>(
        &mut self,
        a: &'l Node,
        mem: &M,
        f: fn(f64) -> f64,
    ) -> Step<Val> {
        let a = self.eval(a, mem)?;
        self.stats.flops += 8;
        let r = f(a.as_f64());
        Ok(match a.ty {
            ScalarTy::F64 => Val::f64(r),
            _ => Val::f32(r as f32),
        })
    }

    /// One arithmetic operator at the promoted type of its operands
    /// (`f64 > f32 > i64`, by their run-time tags): floats meet in `f64`
    /// and narrow back for an `f32` result.
    #[inline(always)]
    fn arith(
        &mut self,
        a: Val,
        b: Val,
        cost: u64,
        int: impl Fn(i64, i64) -> i64,
        single: impl Fn(f32, f32) -> f32,
        double: impl Fn(f64, f64) -> f64,
    ) -> Val {
        if a.is_int() && b.is_int() {
            self.stats.int_ops += cost;
            return Val::int(int(a.bits as i64, b.bits as i64));
        }
        self.stats.flops += cost;
        let (x, y) = (a.as_f64(), b.as_f64());
        if a.ty == ScalarTy::F64 || b.ty == ScalarTy::F64 {
            Val::f64(double(x, y))
        } else {
            Val::f32(single(x as f32, y as f32))
        }
    }

    /// One comparison: between integers, or in `f64` whatever the
    /// promoted float type.
    #[inline(always)]
    fn compare(
        &mut self,
        a: Val,
        b: Val,
        int: impl Fn(i64, i64) -> bool,
        float: impl Fn(f64, f64) -> bool,
    ) -> Val {
        let holds = if a.is_int() && b.is_int() {
            self.stats.int_ops += 1;
            int(a.bits as i64, b.bits as i64)
        } else {
            self.stats.flops += 1;
            float(a.as_f64(), b.as_f64())
        };
        Val::int(holds as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::ir::Kernel;

    /// Run thread `thread` of block `block` in a 1-D launch of `gdim`
    /// blocks of `bdim` threads.
    fn run_1d(
        k: &Kernel,
        args: &[KernelArg],
        (block, thread, bdim, gdim): (u32, u32, u32, u32),
        mem: &mut VecMem,
        mode: ExecMode,
    ) -> Result<ExecStats> {
        Program::lower(k)?
            .bind(args, Dim3::new1(gdim), Dim3::new1(bdim), mode)?
            .frame()
            .run_thread(Dim3::new1(block), Dim3::new1(thread), mem)
    }

    fn vadd_kernel() -> Kernel {
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

    #[test]
    fn vadd_thread_computes() {
        let k = vadd_kernel();
        let mut mem = VecMem::new();
        let a = mem.alloc_from(&(0..8).map(|i| Value::F32(i as f32)).collect::<Vec<_>>());
        let b = mem.alloc_from(
            &(0..8)
                .map(|i| Value::F32(10.0 * i as f32))
                .collect::<Vec<_>>(),
        );
        let c = mem.alloc(8 * 4);
        let args = [
            KernelArg::Scalar(Value::I64(8)),
            KernelArg::Array(a),
            KernelArg::Array(b),
            KernelArg::Array(c),
        ];
        // thread 3 of block 0 (blockDim 8)
        let stats = run_1d(&k, &args, (0, 3, 8, 1), &mut mem, ExecMode::Functional).unwrap();
        assert_eq!(mem.load(c, 3, ScalarTy::F32), Value::F32(33.0));
        assert_eq!(stats.loads, 2);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.bytes_loaded, 8);
    }

    #[test]
    fn guard_suppresses_out_of_range_threads() {
        let k = vadd_kernel();
        let mut mem = VecMem::new();
        let a = mem.alloc(4 * 4);
        let b = mem.alloc(4 * 4);
        let c = mem.alloc(4 * 4);
        let args = [
            KernelArg::Scalar(Value::I64(4)),
            KernelArg::Array(a),
            KernelArg::Array(b),
            KernelArg::Array(c),
        ];
        // thread 6 of block 0 with blockDim 8 and n = 4: must return early.
        let stats = run_1d(&k, &args, (0, 6, 8, 1), &mut mem, ExecMode::Functional).unwrap();
        assert_eq!(stats.stores, 0);
        assert_eq!(stats.loads, 0);
    }

    #[test]
    fn out_of_bounds_detected_functionally() {
        // No guard: thread 6 with n=4 goes out of bounds.
        let mut k = vadd_kernel();
        k.body.remove(1); // drop the guard
        let mut mem = VecMem::new();
        let a = mem.alloc(4 * 4);
        let b = mem.alloc(4 * 4);
        let c = mem.alloc(4 * 4);
        let args = [
            KernelArg::Scalar(Value::I64(4)),
            KernelArg::Array(a),
            KernelArg::Array(b),
            KernelArg::Array(c),
        ];
        let err = run_1d(&k, &args, (0, 6, 8, 1), &mut mem, ExecMode::Functional).unwrap_err();
        assert!(matches!(err, KernelError::OutOfBounds { .. }));
    }

    #[test]
    fn count_only_mode_skips_memory() {
        let k = vadd_kernel();
        let mut mem = VecMem::new(); // no buffers at all
        let args = [
            KernelArg::Scalar(Value::I64(100)),
            KernelArg::Array(0),
            KernelArg::Array(1),
            KernelArg::Array(2),
        ];
        let stats = run_1d(&k, &args, (2, 1, 8, 16), &mut mem, ExecMode::CountOnly).unwrap();
        assert_eq!(stats.loads, 2);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.flops, 1); // one f32 add
    }

    #[test]
    fn for_loop_accumulates() {
        // sum = Σ a[j], j in [0, n)
        let k = Kernel {
            name: "sum_row".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[ext("n")]),
                array_f32("out", &[ext_c(1)]),
            ],
            body: vec![
                let_("acc", f(0.0)),
                for_(
                    "j",
                    i(0),
                    v("n"),
                    vec![assign("acc", v("acc") + load("a", vec![v("j")]))],
                ),
                store("out", vec![i(0)], v("acc")),
            ],
        };
        let mut mem = VecMem::new();
        let a = mem.alloc_from(&(1..=5).map(|i| Value::F32(i as f32)).collect::<Vec<_>>());
        let out = mem.alloc(4);
        let args = [
            KernelArg::Scalar(Value::I64(5)),
            KernelArg::Array(a),
            KernelArg::Array(out),
        ];
        run_1d(&k, &args, (0, 0, 1, 1), &mut mem, ExecMode::Functional).unwrap();
        assert_eq!(mem.load(out, 0, ScalarTy::F32), Value::F32(15.0));
    }

    #[test]
    fn multidim_arrays_linearize_row_major() {
        // b[y][x] = a[x][y] (transpose of a 2x3)
        let k = Kernel {
            name: "transpose".into(),
            params: vec![
                array_f32("a", &[ext_c(2), ext_c(3)]),
                array_f32("b", &[ext_c(3), ext_c(2)]),
            ],
            body: vec![for_(
                "y",
                i(0),
                i(3),
                vec![for_(
                    "x",
                    i(0),
                    i(2),
                    vec![store(
                        "b",
                        vec![v("y"), v("x")],
                        load("a", vec![v("x"), v("y")]),
                    )],
                )],
            )],
        };
        let mut mem = VecMem::new();
        let a = mem.alloc_from(&(0..6).map(|i| Value::F32(i as f32)).collect::<Vec<_>>()); // a = [[0,1,2],[3,4,5]]
        let b = mem.alloc(6 * 4);
        let args = [KernelArg::Array(a), KernelArg::Array(b)];
        run_1d(&k, &args, (0, 0, 1, 1), &mut mem, ExecMode::Functional).unwrap();
        let got = mem.read_all(b, ScalarTy::F32);
        let want: Vec<Value> = [0.0f32, 3.0, 1.0, 4.0, 2.0, 5.0]
            .iter()
            .map(|&v| Value::F32(v))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn division_by_zero_reported() {
        let k = Kernel {
            name: "div".into(),
            params: vec![scalar("n")],
            body: vec![let_("q", i(1) / v("n"))],
        };
        let mut mem = VecMem::new();
        let args = [KernelArg::Scalar(Value::I64(0))];
        let err = run_1d(&k, &args, (0, 0, 1, 1), &mut mem, ExecMode::Functional).unwrap_err();
        assert_eq!(err, KernelError::DivByZero);
    }

    #[test]
    fn short_circuit_logic() {
        // i < n && a[i] > 0 must not touch a[] when i >= n.
        let k = Kernel {
            name: "sc".into(),
            params: vec![scalar("n"), array_f32("a", &[ext("n")])],
            body: vec![
                let_("i", i(100)),
                let_(
                    "c",
                    v("i").lt(v("n")).and(load("a", vec![v("i")]).gt(f(0.0))),
                ),
            ],
        };
        let mut mem = VecMem::new();
        let a = mem.alloc(4 * 4);
        let args = [KernelArg::Scalar(Value::I64(4)), KernelArg::Array(a)];
        let stats = run_1d(&k, &args, (0, 0, 1, 1), &mut mem, ExecMode::Functional).unwrap();
        assert_eq!(stats.loads, 0);
    }
}
