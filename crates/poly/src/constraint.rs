//! Equality and inequality constraints.

use crate::expr::{gcd_u64, LinExpr};
use serde::{Deserialize, Serialize};

/// Kind of a [`Constraint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConstraintKind {
    /// `expr == 0`
    Eq,
    /// `expr >= 0`
    GeZero,
}

/// A single affine constraint `expr == 0` or `expr >= 0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Constraint {
    pub kind: ConstraintKind,
    pub expr: LinExpr,
}

/// Outcome of normalizing a constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Normalized {
    /// The constraint is trivially satisfied (e.g. `3 >= 0`).
    True,
    /// The constraint is unsatisfiable (e.g. `-1 >= 0` or `2x + 1 == 0`
    /// after gcd analysis).
    False,
    /// A canonical constraint.
    Constraint(Constraint),
}

/// What [`canonicalize`] made of a row.
pub(crate) enum Canon {
    True,
    False,
    /// The row is canonical now.
    Kept,
}

/// Canonicalise `coeffs · x + konst (kind) 0` in place — the one row
/// normalisation behind [`Constraint::canonical`] and the FM matrix: divide
/// by the gcd of the coefficients (found by a scan that stops at the first
/// unit), tighten an inequality's constant (`g·e + k >= 0` ⇔
/// `e + floor(k/g) >= 0`), and give an equality a positive first nonzero
/// coefficient.
pub(crate) fn canonicalize(kind: ConstraintKind, coeffs: &mut [i64], konst: &mut i64) -> Canon {
    let mut g = 0u64;
    for &c in coeffs.iter() {
        g = gcd_u64(g, c.unsigned_abs());
        if g == 1 {
            break;
        }
    }
    let k = *konst;
    if g == 0 {
        let sat = match kind {
            ConstraintKind::Eq => k == 0,
            ConstraintKind::GeZero => k >= 0,
        };
        return if sat { Canon::True } else { Canon::False };
    }
    let g = g as i64;
    if g != 1 {
        *konst = match kind {
            ConstraintKind::Eq if k % g != 0 => return Canon::False,
            ConstraintKind::Eq => k / g,
            ConstraintKind::GeZero => k.div_euclid(g),
        };
        for c in coeffs.iter_mut() {
            *c /= g;
        }
    }
    if kind == ConstraintKind::Eq && coeffs.iter().find(|&&c| c != 0).is_some_and(|&c| c < 0) {
        for c in coeffs.iter_mut() {
            *c = -*c;
        }
        *konst = -*konst;
    }
    Canon::Kept
}

impl Constraint {
    /// `expr == 0`.
    pub fn eq(expr: LinExpr) -> Self {
        Constraint {
            kind: ConstraintKind::Eq,
            expr,
        }
    }

    /// `expr >= 0`.
    pub fn ge0(expr: LinExpr) -> Self {
        Constraint {
            kind: ConstraintKind::GeZero,
            expr,
        }
    }

    /// `lhs >= rhs` as `lhs - rhs >= 0`.
    pub fn ge(lhs: &LinExpr, rhs: &LinExpr) -> crate::Result<Self> {
        Ok(Constraint::ge0(lhs.sub(rhs)?))
    }

    /// `lhs <= rhs` as `rhs - lhs >= 0`.
    pub fn le(lhs: &LinExpr, rhs: &LinExpr) -> crate::Result<Self> {
        Ok(Constraint::ge0(rhs.sub(lhs)?))
    }

    /// `lhs < rhs` as `rhs - lhs - 1 >= 0` (integer strictness).
    pub fn lt(lhs: &LinExpr, rhs: &LinExpr) -> crate::Result<Self> {
        let mut e = rhs.sub(lhs)?;
        e.konst = crate::expr::term(e.konst as i128 - 1)?;
        Ok(Constraint::ge0(e))
    }

    /// Does `values` (dims then params) satisfy this constraint?
    pub fn holds(&self, values: &[i64]) -> bool {
        let v = self.expr.eval(values);
        match self.kind {
            ConstraintKind::Eq => v == 0,
            ConstraintKind::GeZero => v >= 0,
        }
    }

    /// Canonical form for deduplication: divided by the gcd of the
    /// coefficients, the constant of an inequality tightened (exact over
    /// the integers), an equality's first nonzero coefficient positive;
    /// or trivially true/false.
    ///
    /// For an equality `g·e + k == 0` with `g = gcd(coeffs)`: if `g` does
    /// not divide `k` the constraint (and hence the polyhedron) has no
    /// integer solutions.
    pub fn canonical(mut self) -> Normalized {
        match canonicalize(self.kind, &mut self.expr.coeffs, &mut self.expr.konst) {
            Canon::True => Normalized::True,
            Canon::False => Normalized::False,
            Canon::Kept => Normalized::Constraint(self),
        }
    }

    /// Render with names.
    pub(crate) fn display_with<'a>(&'a self, names: &'a [String]) -> DisplayConstraint<'a> {
        DisplayConstraint { c: self, names }
    }
}

/// Helper rendering `expr >= 0` / `expr == 0` with variable names.
pub(crate) struct DisplayConstraint<'a> {
    c: &'a Constraint,
    names: &'a [String],
}

impl std::fmt::Display for DisplayConstraint<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = match self.c.kind {
            ConstraintKind::Eq => "=",
            ConstraintKind::GeZero => ">=",
        };
        write!(f, "{} {op} 0", self.c.expr.display_with(self.names))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(coeffs: Vec<i64>, k: i64) -> LinExpr {
        LinExpr { coeffs, konst: k }
    }

    #[test]
    fn trivial_constraints() {
        assert_eq!(
            Constraint::ge0(e(vec![0, 0], 3)).canonical(),
            Normalized::True
        );
        assert_eq!(
            Constraint::ge0(e(vec![0, 0], -1)).canonical(),
            Normalized::False
        );
        assert_eq!(Constraint::eq(e(vec![0], 0)).canonical(), Normalized::True);
        assert_eq!(Constraint::eq(e(vec![0], 7)).canonical(), Normalized::False);
    }

    #[test]
    fn gcd_infeasible_equality() {
        // 2x + 1 == 0 has no integer solution.
        assert_eq!(Constraint::eq(e(vec![2], 1)).canonical(), Normalized::False);
        // 2x + 4 == 0 -> x + 2 == 0.
        match Constraint::eq(e(vec![2], 4)).canonical() {
            Normalized::Constraint(c) => {
                assert_eq!(c.expr.coeffs, vec![1]);
                assert_eq!(c.expr.konst, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn integer_tightening() {
        // 2x - 3 >= 0  <=>  x >= 3/2  <=>  x >= 2  <=>  x - 2 >= 0
        match Constraint::ge0(e(vec![2], -3)).canonical() {
            Normalized::Constraint(c) => {
                assert_eq!(c.expr.coeffs, vec![1]);
                assert_eq!(c.expr.konst, -2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn strict_lt_builder() {
        // x < n  ->  n - x - 1 >= 0
        let x = LinExpr::var(2, 0);
        let n = LinExpr::var(2, 1);
        let c = Constraint::lt(&x, &n).unwrap();
        assert!(c.holds(&[4, 5]));
        assert!(!c.holds(&[5, 5]));
    }

    #[test]
    fn canonical_sign() {
        // -x + 1 == 0 canonicalizes to x - 1 == 0
        match Constraint::eq(e(vec![-1], 1)).canonical() {
            Normalized::Constraint(c) => {
                assert_eq!(c.expr.coeffs, vec![1]);
                assert_eq!(c.expr.konst, -1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
