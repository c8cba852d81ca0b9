//! Lowering: the one name-resolution walk over a [`Kernel`].
//!
//! [`Program::lower`] turns the string-keyed IR into a tree the executor
//! ([`crate::interp`]) can run without looking anything up: every grid
//! intrinsic is one of the coordinate slots at the front of the frame,
//! every local the slot after them at its scope depth (the IR's scoping
//! is a stack, so two live bindings never share a depth), every scalar
//! parameter an argument index, every array an entry of
//! the program's array table with its extents as constants or argument
//! indices. Whatever cannot be resolved is an error here, which makes
//! lowering the definition of a well-formed kernel: [`Kernel::validate`]
//! is "lower and drop".
//!
//! Values stay dynamically typed (a local may change type on assignment
//! and scalar arguments carry their own tags), so the lowered tree keeps
//! the IR's operators and leaves promotion to run time.

use crate::ir::{BinOp, Expr, Extent, GridVar, Kernel, KernelParam, Stmt, UnOp};
use crate::types::{ScalarTy, Value};
use crate::{KernelError, Result, Unsupported};

/// A lowered kernel: resolved once, run by every thread of a launch.
#[derive(Debug)]
pub struct Program {
    /// Parameter names by argument index, for error messages only.
    pub(crate) param_names: Vec<String>,
    /// The array parameters, in parameter order.
    pub(crate) arrays: Vec<ArraySlot>,
    pub(crate) body: Box<[Op]>,
    /// Frame slots a thread needs: the grid coordinates, then the deepest
    /// nesting of live locals.
    pub(crate) frame_slots: usize,
}

/// One array parameter.
#[derive(Debug)]
pub(crate) struct ArraySlot {
    /// Argument index (also indexes [`Program::param_names`]).
    pub arg: usize,
    pub elem: ScalarTy,
    /// Outermost dimension first.
    pub extents: Vec<ExtentSlot>,
}

/// One array dimension: a constant, or the scalar argument at an index.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ExtentSlot {
    Const(i64),
    Arg(usize),
}

/// Frame slots that hold the thread's coordinates ([`grid_slot`]);
/// locals follow.
pub(crate) const GRID_SLOTS: usize = 12;

/// A resolved expression. Every operator is a kind of its own, so the
/// executor's one jump per node lands on code for exactly that operator.
#[derive(Debug)]
pub(crate) enum Node {
    Const(Value),
    /// Frame slot: a grid coordinate or a local.
    Slot(u32),
    /// Scalar argument index.
    Param(u32),
    Load(Access),
    Neg(Box<Node>),
    Not(Box<Node>),
    Sqrt(Box<Node>),
    Abs(Box<Node>),
    Exp(Box<Node>),
    Log(Box<Node>),
    Add(Operands),
    Sub(Operands),
    Mul(Operands),
    Div(Operands),
    Rem(Operands),
    Min(Operands),
    Max(Operands),
    Lt(Operands),
    Le(Operands),
    Gt(Operands),
    Ge(Operands),
    EqEq(Operands),
    Ne(Operands),
    And(Operands),
    Or(Operands),
    Cast(ScalarTy, Box<Node>),
    /// Condition, then, else.
    Select(Box<[Node; 3]>),
}

/// Left and right operand.
pub(crate) type Operands = Box<[Node; 2]>;

/// A resolved array access.
#[derive(Debug)]
pub(crate) struct Access {
    /// Index into [`Program::arrays`].
    pub array: u32,
    pub indices: Box<[Node]>,
}

/// A resolved statement. `Let` and `Assign` are both a slot write;
/// `SyncThreads` never lowers ([`crate::Unsupported::SyncThreads`]).
#[derive(Debug)]
pub(crate) enum Op {
    Set {
        slot: u32,
        value: Node,
    },
    Store {
        access: Access,
        value: Node,
    },
    If {
        cond: Node,
        then_: Box<[Op]>,
        else_: Box<[Op]>,
    },
    For {
        slot: u32,
        lo: Node,
        hi: Node,
        step: i64,
        /// The loop variable's name, for error messages only.
        var: Box<str>,
        body: Box<[Op]>,
    },
    Return,
}

/// Frame slot of a grid intrinsic: `threadIdx`, `blockIdx`, `blockDim`,
/// `gridDim`, each as `x, y, z`.
pub(crate) fn grid_slot(g: GridVar) -> u32 {
    let (base, axis) = match g {
        GridVar::ThreadIdx(a) => (0, a),
        GridVar::BlockIdx(a) => (3, a),
        GridVar::BlockDim(a) => (6, a),
        GridVar::GridDim(a) => (9, a),
    };
    base + axis.xyz_index() as u32
}

impl Program {
    /// Resolve every name in `kernel`. Fails on an unknown variable or
    /// array, an access whose rank differs from its array's, a
    /// non-positive loop step, an assignment to anything but a local
    /// (scalar parameters are launch constants: extents name them and
    /// the analysis relies on it), an extent naming no scalar
    /// parameter, and a `__syncthreads()`, which block-sequential
    /// execution cannot honour ([`Unsupported::SyncThreads`]).
    pub fn lower(kernel: &Kernel) -> Result<Program> {
        let mut arrays = Vec::new();
        for (arg, p) in kernel.params.iter().enumerate() {
            let KernelParam::Array { elem, extents, .. } = p else {
                continue;
            };
            let extents = extents
                .iter()
                .map(|e| match e {
                    Extent::Const(c) => Ok(ExtentSlot::Const(*c)),
                    Extent::Param(p) => match scalar_param(kernel, p) {
                        Some(i) => Ok(ExtentSlot::Arg(i)),
                        None => Err(KernelError::UnknownVar(p.clone())),
                    },
                })
                .collect::<Result<_>>()?;
            arrays.push(ArraySlot {
                arg,
                elem: *elem,
                extents,
            });
        }
        let mut lowerer = Lowerer {
            kernel,
            arrays: &arrays,
            scope: Vec::new(),
            frame_slots: GRID_SLOTS,
        };
        let body = lowerer.block(&kernel.body)?;
        let frame_slots = lowerer.frame_slots;
        Ok(Program {
            param_names: kernel.params.iter().map(|p| p.name().to_string()).collect(),
            arrays,
            body,
            frame_slots,
        })
    }
}

/// Argument index of the scalar parameter called `name` (the first
/// parameter of that name decides, as everywhere else).
fn scalar_param(kernel: &Kernel, name: &str) -> Option<usize> {
    let i = kernel.param_index(name)?;
    (!kernel.params[i].is_array()).then_some(i)
}

struct Lowerer<'k> {
    kernel: &'k Kernel,
    arrays: &'k [ArraySlot],
    /// Live locals, innermost last; a local's slot is its position,
    /// after the grid slots.
    scope: Vec<&'k str>,
    frame_slots: usize,
}

impl<'k> Lowerer<'k> {
    fn bind(&mut self, var: &'k str) -> u32 {
        self.scope.push(var);
        self.frame_slots = self.frame_slots.max(GRID_SLOTS + self.scope.len());
        (GRID_SLOTS + self.scope.len() - 1) as u32
    }

    fn local(&self, name: &str) -> Option<u32> {
        let depth = self.scope.iter().rposition(|n| *n == name)?;
        Some((GRID_SLOTS + depth) as u32)
    }

    fn block(&mut self, body: &'k [Stmt]) -> Result<Box<[Op]>> {
        let depth = self.scope.len();
        let mut ops = Vec::with_capacity(body.len());
        for s in body {
            match s {
                Stmt::Let { var, value } => {
                    // The initialiser sees the enclosing binding of `var`.
                    let value = self.expr(value)?;
                    let slot = self.bind(var);
                    ops.push(Op::Set { slot, value });
                }
                Stmt::Assign { var, value } => {
                    let slot = self
                        .local(var)
                        .ok_or_else(|| KernelError::UnknownVar(var.clone()))?;
                    let value = self.expr(value)?;
                    ops.push(Op::Set { slot, value });
                }
                Stmt::Store {
                    array,
                    indices,
                    value,
                } => {
                    let access = self.access(array, indices)?;
                    let value = self.expr(value)?;
                    ops.push(Op::Store { access, value });
                }
                Stmt::If { cond, then_, else_ } => ops.push(Op::If {
                    cond: self.expr(cond)?,
                    then_: self.block(then_)?,
                    else_: self.block(else_)?,
                }),
                Stmt::For {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    if *step <= 0 {
                        return Err(KernelError::TypeMismatch {
                            context: format!("loop step {step} must be positive"),
                        });
                    }
                    let lo = self.expr(lo)?;
                    let hi = self.expr(hi)?;
                    let slot = self.bind(var);
                    let body = self.block(body)?;
                    self.scope.pop();
                    ops.push(Op::For {
                        slot,
                        lo,
                        hi,
                        step: *step,
                        var: var.as_str().into(),
                        body,
                    });
                }
                Stmt::Return => ops.push(Op::Return),
                Stmt::SyncThreads => {
                    return Err(KernelError::Unsupported(Unsupported::SyncThreads))
                }
            }
        }
        self.scope.truncate(depth);
        Ok(ops.into())
    }

    fn access(&mut self, array: &str, indices: &'k [Expr]) -> Result<Access> {
        let unknown = || KernelError::UnknownArray(array.to_string());
        let arg = self.kernel.param_index(array).ok_or_else(unknown)?;
        let slot = self
            .arrays
            .iter()
            .position(|a| a.arg == arg)
            .ok_or_else(unknown)?;
        let rank = self.arrays[slot].extents.len();
        if rank != indices.len() {
            return Err(KernelError::TypeMismatch {
                context: format!(
                    "array {array:?} has rank {rank} but was indexed with {} indices",
                    indices.len()
                ),
            });
        }
        let indices = indices
            .iter()
            .map(|i| self.expr(i))
            .collect::<Result<_>>()?;
        Ok(Access {
            array: slot as u32,
            indices,
        })
    }

    fn expr(&mut self, e: &'k Expr) -> Result<Node> {
        Ok(match e {
            Expr::Int(v) => Node::Const(Value::I64(*v)),
            Expr::Float(v) => Node::Const(Value::F32(*v as f32)),
            Expr::Var(name) => match self.local(name) {
                Some(slot) => Node::Slot(slot),
                None => match scalar_param(self.kernel, name) {
                    Some(arg) => Node::Param(arg as u32),
                    None => return Err(KernelError::UnknownVar(name.clone())),
                },
            },
            Expr::Grid(g) => Node::Slot(grid_slot(*g)),
            Expr::Load { array, indices } => Node::Load(self.access(array, indices)?),
            Expr::Unary(op, a) => {
                let a = Box::new(self.expr(a)?);
                match op {
                    UnOp::Neg => Node::Neg(a),
                    UnOp::Not => Node::Not(a),
                    UnOp::Sqrt => Node::Sqrt(a),
                    UnOp::Abs => Node::Abs(a),
                    UnOp::Exp => Node::Exp(a),
                    UnOp::Log => Node::Log(a),
                }
            }
            Expr::Binary(op, a, b) => {
                let ab = Box::new([self.expr(a)?, self.expr(b)?]);
                match op {
                    BinOp::Add => Node::Add(ab),
                    BinOp::Sub => Node::Sub(ab),
                    BinOp::Mul => Node::Mul(ab),
                    BinOp::Div => Node::Div(ab),
                    BinOp::Rem => Node::Rem(ab),
                    BinOp::Min => Node::Min(ab),
                    BinOp::Max => Node::Max(ab),
                    BinOp::Lt => Node::Lt(ab),
                    BinOp::Le => Node::Le(ab),
                    BinOp::Gt => Node::Gt(ab),
                    BinOp::Ge => Node::Ge(ab),
                    BinOp::EqEq => Node::EqEq(ab),
                    BinOp::Ne => Node::Ne(ab),
                    BinOp::And => Node::And(ab),
                    BinOp::Or => Node::Or(ab),
                }
            }
            Expr::Cast(ty, a) => Node::Cast(*ty, Box::new(self.expr(a)?)),
            Expr::Select(c, a, b) => {
                Node::Select(Box::new([self.expr(c)?, self.expr(a)?, self.expr(b)?]))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    fn kernel(params: Vec<KernelParam>, body: Vec<Stmt>) -> Kernel {
        Kernel {
            name: "k".into(),
            params,
            body,
        }
    }

    #[test]
    fn locals_take_their_scope_depth_as_slot() {
        // for j { let t } ; let u — `t` and `u` never live together.
        let k = kernel(
            vec![],
            vec![
                let_("a", i(0)),
                for_("j", i(0), i(4), vec![let_("t", v("j")), let_("t", v("t"))]),
                let_("u", v("a")),
            ],
        );
        let p = Program::lower(&k).unwrap();
        assert_eq!(p.frame_slots, GRID_SLOTS + 4); // a, j, t, t
        let Op::Set { slot, .. } = &p.body[2] else {
            panic!("expected a slot write")
        };
        assert_eq!(*slot as usize, GRID_SLOTS + 1); // `u` reuses the loop variable's slot
    }

    #[test]
    fn assignment_to_a_scalar_parameter_is_rejected() {
        // Used to pass `validate` and then fail every thread.
        let k = kernel(vec![scalar("n")], vec![assign("n", v("n") + i(1))]);
        assert_eq!(
            Program::lower(&k).unwrap_err(),
            KernelError::UnknownVar("n".into())
        );
        assert_eq!(k.validate(), Err(KernelError::UnknownVar("n".into())));
    }

    #[test]
    fn extent_naming_no_scalar_parameter_is_rejected() {
        let ghost = kernel(vec![array_f32("a", &[ext("ghost")])], vec![]);
        assert_eq!(
            ghost.validate(),
            Err(KernelError::UnknownVar("ghost".into()))
        );
        let array = kernel(
            vec![array_f32("b", &[ext_c(2)]), array_f32("a", &[ext("b")])],
            vec![],
        );
        assert_eq!(array.validate(), Err(KernelError::UnknownVar("b".into())));
    }

    #[test]
    fn non_positive_step_is_rejected() {
        let k = kernel(vec![], vec![for_step("j", i(0), i(4), 0, vec![])]);
        assert!(matches!(
            k.validate(),
            Err(KernelError::TypeMismatch { .. })
        ));
    }
}
