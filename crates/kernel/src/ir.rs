//! The kernel intermediate representation.

use crate::types::ScalarTy;
use crate::Result;
use serde::{Deserialize, Serialize};

/// CUDA grid intrinsics, per component. The `w` component is one of the
/// three grid dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GridVar {
    ThreadIdx(Axis),
    BlockIdx(Axis),
    BlockDim(Axis),
    GridDim(Axis),
}

/// A grid axis; `X` is the fastest-varying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Axis {
    X,
    Y,
    Z,
}

impl Axis {
    /// All axes in `x, y, z` order.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    /// Index in `x, y, z` order (CUDA component order).
    pub fn xyz_index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }

    /// Index in `z, y, x` order (the paper's tuple order).
    pub fn zyx_index(self) -> usize {
        match self {
            Axis::Z => 0,
            Axis::Y => 1,
            Axis::X => 2,
        }
    }

    /// Lowercase letter.
    pub fn letter(self) -> char {
        match self {
            Axis::X => 'x',
            Axis::Y => 'y',
            Axis::Z => 'z',
        }
    }
}

impl std::fmt::Display for GridVar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridVar::ThreadIdx(a) => write!(f, "threadIdx.{}", a.letter()),
            GridVar::BlockIdx(a) => write!(f, "blockIdx.{}", a.letter()),
            GridVar::BlockDim(a) => write!(f, "blockDim.{}", a.letter()),
            GridVar::GridDim(a) => write!(f, "gridDim.{}", a.letter()),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
    And,
    Or,
}

impl BinOp {
    /// Does this operator yield a boolean (0/1 integer)?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::EqEq | BinOp::Ne
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    Neg,
    Not,
    Sqrt,
    Abs,
    Exp,
    Log,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal (carried as f64; narrowed on use).
    Float(f64),
    /// Local variable or scalar parameter reference.
    Var(String),
    /// CUDA grid intrinsic.
    Grid(GridVar),
    /// Array element load: `array[indices...]`, outermost index first.
    Load {
        array: String,
        indices: Vec<Expr>,
    },
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// C-style cast.
    Cast(ScalarTy, Box<Expr>),
    /// Ternary `cond ? a : b`.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience: binary op boxing.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    /// Convenience: unary op boxing.
    pub fn un(op: UnOp, a: Expr) -> Expr {
        Expr::Unary(op, Box::new(a))
    }

    /// Walk the expression tree, visiting every node.
    pub fn visit(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Load { indices, .. } => {
                for i in indices {
                    i.visit(f);
                }
            }
            Expr::Unary(_, a) => a.visit(f),
            Expr::Binary(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Cast(_, a) => a.visit(f),
            Expr::Select(c, a, b) => {
                c.visit(f);
                a.visit(f);
                b.visit(f);
            }
            _ => {}
        }
    }

    /// Rewrite the tree bottom-up with `f` applied to every node.
    pub fn rewrite(&self, f: &dyn Fn(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Load { array, indices } => Expr::Load {
                array: array.clone(),
                indices: indices.iter().map(|i| i.rewrite(f)).collect(),
            },
            Expr::Unary(op, a) => Expr::un(*op, a.rewrite(f)),
            Expr::Binary(op, a, b) => Expr::bin(*op, a.rewrite(f), b.rewrite(f)),
            Expr::Cast(ty, a) => Expr::Cast(*ty, Box::new(a.rewrite(f))),
            Expr::Select(c, a, b) => Expr::Select(
                Box::new(c.rewrite(f)),
                Box::new(a.rewrite(f)),
                Box::new(b.rewrite(f)),
            ),
            other => other.clone(),
        };
        f(rebuilt)
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// Declare-and-initialize a local variable.
    Let { var: String, value: Expr },
    /// Assign to an existing local variable.
    Assign { var: String, value: Expr },
    /// `array[indices...] = value`.
    Store {
        array: String,
        indices: Vec<Expr>,
        value: Expr,
    },
    /// `if (cond) { then_ } else { else_ }`.
    If {
        cond: Expr,
        then_: Vec<Stmt>,
        else_: Vec<Stmt>,
    },
    /// `for (var = lo; var < hi; var += step)` — half-open, positive step.
    For {
        var: String,
        lo: Expr,
        hi: Expr,
        step: i64,
        body: Vec<Stmt>,
    },
    /// Early exit from the kernel (the `if (i >= n) return;` guard idiom).
    Return,
    /// `__syncthreads()` — parsed so source can round-trip, refused by
    /// lowering ([`crate::Unsupported::SyncThreads`]).
    SyncThreads,
}

impl Stmt {
    /// Visit every statement (pre-order) and every expression it contains.
    pub fn visit(&self, on_stmt: &mut dyn FnMut(&Stmt), on_expr: &mut dyn FnMut(&Expr)) {
        on_stmt(self);
        match self {
            Stmt::Let { value, .. } | Stmt::Assign { value, .. } => value.visit(on_expr),
            Stmt::Store { indices, value, .. } => {
                for i in indices {
                    i.visit(on_expr);
                }
                value.visit(on_expr);
            }
            Stmt::If { cond, then_, else_ } => {
                cond.visit(on_expr);
                for s in then_ {
                    s.visit(on_stmt, on_expr);
                }
                for s in else_ {
                    s.visit(on_stmt, on_expr);
                }
            }
            Stmt::For { lo, hi, body, .. } => {
                lo.visit(on_expr);
                hi.visit(on_expr);
                for s in body {
                    s.visit(on_stmt, on_expr);
                }
            }
            Stmt::Return | Stmt::SyncThreads => {}
        }
    }

    /// Rewrite every expression in this statement tree.
    pub fn rewrite_exprs(&self, f: &dyn Fn(Expr) -> Expr) -> Stmt {
        match self {
            Stmt::Let { var, value } => Stmt::Let {
                var: var.clone(),
                value: value.rewrite(f),
            },
            Stmt::Assign { var, value } => Stmt::Assign {
                var: var.clone(),
                value: value.rewrite(f),
            },
            Stmt::Store {
                array,
                indices,
                value,
            } => Stmt::Store {
                array: array.clone(),
                indices: indices.iter().map(|i| i.rewrite(f)).collect(),
                value: value.rewrite(f),
            },
            Stmt::If { cond, then_, else_ } => Stmt::If {
                cond: cond.rewrite(f),
                then_: then_.iter().map(|s| s.rewrite_exprs(f)).collect(),
                else_: else_.iter().map(|s| s.rewrite_exprs(f)).collect(),
            },
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => Stmt::For {
                var: var.clone(),
                lo: lo.rewrite(f),
                hi: hi.rewrite(f),
                step: *step,
                body: body.iter().map(|s| s.rewrite_exprs(f)).collect(),
            },
            Stmt::Return => Stmt::Return,
            Stmt::SyncThreads => Stmt::SyncThreads,
        }
    }
}

/// Size of one array dimension, known at kernel-analysis time as either a
/// constant or a scalar kernel parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Extent {
    Const(i64),
    Param(String),
}

impl std::fmt::Display for Extent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Extent::Const(c) => write!(f, "{c}"),
            Extent::Param(p) => write!(f, "{p}"),
        }
    }
}

/// A kernel parameter: a scalar or an array with typed element and
/// (symbolically) sized dimensions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KernelParam {
    Scalar {
        name: String,
        ty: ScalarTy,
    },
    Array {
        name: String,
        elem: ScalarTy,
        /// Outermost dimension first; row-major storage (paper §6.1).
        extents: Vec<Extent>,
    },
}

impl KernelParam {
    /// Parameter name.
    pub fn name(&self) -> &str {
        match self {
            KernelParam::Scalar { name, .. } | KernelParam::Array { name, .. } => name,
        }
    }

    /// Is this an array parameter?
    pub fn is_array(&self) -> bool {
        matches!(self, KernelParam::Array { .. })
    }
}

/// A device kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    pub name: String,
    pub params: Vec<KernelParam>,
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Find a parameter by name.
    pub fn param(&self, name: &str) -> Option<&KernelParam> {
        self.params.iter().find(|p| p.name() == name)
    }

    /// Position of a parameter.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name() == name)
    }

    /// Names of the scalar parameters, in order.
    pub fn scalar_params(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter_map(|p| match p {
                KernelParam::Scalar { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Structural validation: every referenced variable is a scalar
    /// parameter, a local `Let`/`For` binding, or a grid intrinsic; every
    /// array access has the right rank; only locals are assigned; every
    /// symbolic extent names a scalar parameter. A kernel is valid
    /// exactly when it lowers ([`crate::lower::Program::lower`]).
    pub fn validate(&self) -> Result<()> {
        crate::lower::Program::lower(self).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::KernelError;

    #[test]
    fn validate_accepts_wellformed() {
        let k = Kernel {
            name: "copy".into(),
            params: vec![
                KernelParam::Scalar {
                    name: "n".into(),
                    ty: ScalarTy::I64,
                },
                KernelParam::Array {
                    name: "a".into(),
                    elem: ScalarTy::F32,
                    extents: vec![Extent::Param("n".into())],
                },
                KernelParam::Array {
                    name: "b".into(),
                    elem: ScalarTy::F32,
                    extents: vec![Extent::Param("n".into())],
                },
            ],
            body: vec![
                let_("i", global_x()),
                if_(
                    v("i").lt(v("n")),
                    vec![store("b", vec![v("i")], load("a", vec![v("i")]))],
                    vec![],
                ),
            ],
        };
        k.validate().unwrap();
    }

    #[test]
    fn validate_rejects_unknown_var() {
        let k = Kernel {
            name: "bad".into(),
            params: vec![],
            body: vec![let_("i", v("ghost"))],
        };
        assert_eq!(k.validate(), Err(KernelError::UnknownVar("ghost".into())));
    }

    #[test]
    fn validate_rejects_rank_mismatch() {
        let k = Kernel {
            name: "bad".into(),
            params: vec![KernelParam::Array {
                name: "a".into(),
                elem: ScalarTy::F32,
                extents: vec![Extent::Const(8), Extent::Const(8)],
            }],
            body: vec![store("a", vec![Expr::Int(0)], Expr::Float(0.0))],
        };
        assert!(matches!(
            k.validate(),
            Err(KernelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn validate_scopes_loop_vars() {
        let k = Kernel {
            name: "loops".into(),
            params: vec![],
            body: vec![
                for_("j", Expr::Int(0), Expr::Int(4), vec![let_("t", v("j"))]),
                // `j` is out of scope here:
                let_("u", v("j")),
            ],
        };
        assert_eq!(k.validate(), Err(KernelError::UnknownVar("j".into())));
    }

    #[test]
    fn expr_rewrite_replaces_intrinsics() {
        let e = global_x();
        let rewritten = e.rewrite(&|node| match node {
            Expr::Grid(GridVar::BlockIdx(Axis::X)) => Expr::Int(7),
            other => other,
        });
        let mut found = false;
        rewritten.visit(&mut |n| {
            if matches!(n, Expr::Grid(GridVar::BlockIdx(_))) {
                found = true;
            }
        });
        assert!(!found, "blockIdx should have been replaced");
    }
}
