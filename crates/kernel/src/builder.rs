//! An ergonomic DSL for constructing kernel IR in Rust.
//!
//! Expressions support operator overloading (`a + b * c`), comparisons via
//! methods (`a.lt(b)`), and helpers mirror the CUDA idioms
//! (`global_x()` = `threadIdx.x + blockIdx.x * blockDim.x`).
//!
//! ```
//! use mekong_kernel::builder::*;
//! use mekong_kernel::{Kernel, KernelParam, ScalarTy, Extent};
//!
//! // vector add: c[i] = a[i] + b[i]
//! let k = Kernel {
//!     name: "vadd".into(),
//!     params: vec![
//!         scalar("n"),
//!         array_f32("a", &[Extent::Param("n".into())]),
//!         array_f32("b", &[Extent::Param("n".into())]),
//!         array_f32("c", &[Extent::Param("n".into())]),
//!     ],
//!     body: vec![
//!         let_("i", global_x()),
//!         if_(v("i").lt(v("n")), vec![
//!             store("c", vec![v("i")], load("a", vec![v("i")]) + load("b", vec![v("i")])),
//!         ], vec![]),
//!     ],
//! };
//! k.validate().unwrap();
//! ```

use crate::ir::{Axis, BinOp, Expr, Extent, GridVar, KernelParam, Stmt, UnOp};
use crate::types::ScalarTy;

/// Integer literal.
pub fn i(value: i64) -> Expr {
    Expr::Int(value)
}

/// Float literal.
pub fn f(value: f64) -> Expr {
    Expr::Float(value)
}

/// Variable reference.
pub fn v(name: &str) -> Expr {
    Expr::Var(name.to_string())
}

/// `threadIdx.{x,y,z}`.
pub fn tid(a: Axis) -> Expr {
    Expr::Grid(GridVar::ThreadIdx(a))
}

/// `blockIdx.{x,y,z}`.
pub fn bid(a: Axis) -> Expr {
    Expr::Grid(GridVar::BlockIdx(a))
}

/// `blockDim.{x,y,z}`.
pub fn bdim(a: Axis) -> Expr {
    Expr::Grid(GridVar::BlockDim(a))
}

/// `gridDim.{x,y,z}`.
pub fn gdim(a: Axis) -> Expr {
    Expr::Grid(GridVar::GridDim(a))
}

/// The canonical global thread position along an axis:
/// `threadIdx.w + blockIdx.w * blockDim.w` (paper eq. 5).
pub fn global(a: Axis) -> Expr {
    tid(a) + bid(a) * bdim(a)
}

/// `global(Axis::X)`.
pub fn global_x() -> Expr {
    global(Axis::X)
}

/// `global(Axis::Y)`.
pub fn global_y() -> Expr {
    global(Axis::Y)
}

/// Array load `array[indices...]`.
pub fn load(array: &str, indices: Vec<Expr>) -> Expr {
    Expr::Load {
        array: array.to_string(),
        indices,
    }
}

/// `sqrt(e)`.
pub fn sqrt(e: Expr) -> Expr {
    Expr::un(UnOp::Sqrt, e)
}

/// `min(a, b)`.
pub fn min(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Min, a, b)
}

/// `max(a, b)`.
pub fn max(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Max, a, b)
}

/// Cast to `float`.
pub fn to_f32(e: Expr) -> Expr {
    Expr::Cast(ScalarTy::F32, Box::new(e))
}

/// Cast to `int`.
pub fn to_i64(e: Expr) -> Expr {
    Expr::Cast(ScalarTy::I64, Box::new(e))
}

/// Ternary select `cond ? a : b`.
pub fn select(cond: Expr, a: Expr, b: Expr) -> Expr {
    Expr::Select(Box::new(cond), Box::new(a), Box::new(b))
}

/// `let var = value;`
pub fn let_(var: &str, value: Expr) -> Stmt {
    Stmt::Let {
        var: var.to_string(),
        value,
    }
}

/// `var = value;`
pub fn assign(var: &str, value: Expr) -> Stmt {
    Stmt::Assign {
        var: var.to_string(),
        value,
    }
}

/// `array[indices...] = value;`
pub fn store(array: &str, indices: Vec<Expr>, value: Expr) -> Stmt {
    Stmt::Store {
        array: array.to_string(),
        indices,
        value,
    }
}

/// `if (cond) { then_ } else { else_ }`
pub fn if_(cond: Expr, then_: Vec<Stmt>, else_: Vec<Stmt>) -> Stmt {
    Stmt::If { cond, then_, else_ }
}

/// Guard idiom: `if (cond) return;`
pub fn guard_return(cond: Expr) -> Stmt {
    Stmt::If {
        cond,
        then_: vec![Stmt::Return],
        else_: vec![],
    }
}

/// `for (var = lo; var < hi; var++) { body }`
pub fn for_(var: &str, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        var: var.to_string(),
        lo,
        hi,
        step: 1,
        body,
    }
}

/// `for` with a custom positive step.
pub fn for_step(var: &str, lo: Expr, hi: Expr, step: i64, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        var: var.to_string(),
        lo,
        hi,
        step,
        body,
    }
}

/// Scalar `int` parameter.
pub fn scalar(name: &str) -> KernelParam {
    KernelParam::Scalar {
        name: name.to_string(),
        ty: ScalarTy::I64,
    }
}

/// Scalar `float` parameter.
pub fn scalar_f32(name: &str) -> KernelParam {
    KernelParam::Scalar {
        name: name.to_string(),
        ty: ScalarTy::F32,
    }
}

/// `float` array parameter with the given extents (outermost first).
pub fn array_f32(name: &str, extents: &[Extent]) -> KernelParam {
    KernelParam::Array {
        name: name.to_string(),
        elem: ScalarTy::F32,
        extents: extents.to_vec(),
    }
}

/// Extent referencing a scalar parameter.
pub fn ext(name: &str) -> Extent {
    Extent::Param(name.to_string())
}

/// Constant extent.
pub fn ext_c(n: i64) -> Extent {
    Extent::Const(n)
}

// ---- comparison / logic methods ----------------------------------------

impl Expr {
    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Lt, self, other)
    }
    /// `self <= other`
    pub fn le(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Le, self, other)
    }
    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Gt, self, other)
    }
    /// `self >= other`
    pub fn ge(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Ge, self, other)
    }
    /// `self == other`
    pub fn eq_(self, other: Expr) -> Expr {
        Expr::bin(BinOp::EqEq, self, other)
    }
    /// `self && other`
    pub fn and(self, other: Expr) -> Expr {
        Expr::bin(BinOp::And, self, other)
    }
    /// `self || other`
    pub fn or(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Or, self, other)
    }
}

// ---- operator overloading ------------------------------------------------

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }
}

impl std::ops::Rem for Expr {
    type Output = Expr;
    fn rem(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Rem, self, rhs)
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::un(UnOp::Neg, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_build_trees() {
        let e = v("a") + v("b") * i(2);
        match e {
            Expr::Binary(BinOp::Add, _, rhs) => match *rhs {
                Expr::Binary(BinOp::Mul, _, _) => {}
                other => panic!("expected Mul, got {other:?}"),
            },
            other => panic!("expected Add, got {other:?}"),
        }
    }

    #[test]
    fn global_is_canonical_form() {
        // threadIdx.x + blockIdx.x * blockDim.x
        let e = global_x();
        let mut saw_tid = false;
        let mut saw_mul = false;
        e.visit(&mut |n| match n {
            Expr::Grid(GridVar::ThreadIdx(Axis::X)) => saw_tid = true,
            Expr::Binary(BinOp::Mul, _, _) => saw_mul = true,
            _ => {}
        });
        assert!(saw_tid && saw_mul);
    }

    #[test]
    fn guard_return_shape() {
        match guard_return(v("i").ge(v("n"))) {
            Stmt::If { then_, else_, .. } => {
                assert_eq!(then_, vec![Stmt::Return]);
                assert!(else_.is_empty());
            }
            other => panic!("expected If, got {other:?}"),
        }
    }
}
