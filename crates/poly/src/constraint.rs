//! Equality and inequality constraints.

use crate::expr::LinExpr;
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
        e.konst = e.konst.checked_sub(1).ok_or(crate::PolyError::Overflow)?;
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

    /// Normalize: divide by the gcd of the coefficients, tighten the
    /// constant for inequalities (exact over the integers), and detect
    /// trivially true/false constraints.
    ///
    /// For an equality `g·e + k == 0` with `g = gcd(coeffs)`: if `g` does
    /// not divide `k` the constraint (and hence the polyhedron) has no
    /// integer solutions.
    pub fn normalize(&self) -> Normalized {
        let g = self.expr.coeff_content();
        if g == 0 {
            // Constant constraint.
            let k = self.expr.konst;
            let sat = match self.kind {
                ConstraintKind::Eq => k == 0,
                ConstraintKind::GeZero => k >= 0,
            };
            return if sat {
                Normalized::True
            } else {
                Normalized::False
            };
        }
        if g == 1 {
            return Normalized::Constraint(self.clone());
        }
        let k = self.expr.konst;
        match self.kind {
            ConstraintKind::Eq => {
                if k % g != 0 {
                    return Normalized::False;
                }
                let mut e = self.expr.clone();
                for c in &mut e.coeffs {
                    *c /= g;
                }
                e.konst = k / g;
                Normalized::Constraint(Constraint::eq(e))
            }
            ConstraintKind::GeZero => {
                // g·e' + k >= 0  <=>  e' >= ceil(-k/g)  <=>  e' + floor(k/g) >= 0
                let mut e = self.expr.clone();
                for c in &mut e.coeffs {
                    *c /= g;
                }
                e.konst = k.div_euclid(g);
                Normalized::Constraint(Constraint::ge0(e))
            }
        }
    }

    /// Canonical form for deduplication: normalized and, for equalities,
    /// sign-canonical (first nonzero coefficient positive).
    pub fn canonical(&self) -> Normalized {
        match self.normalize() {
            Normalized::Constraint(mut c) => {
                if c.kind == ConstraintKind::Eq {
                    let lead = c
                        .expr
                        .coeffs
                        .iter()
                        .copied()
                        .find(|&x| x != 0)
                        .unwrap_or(c.expr.konst);
                    if lead < 0 {
                        c.expr = c.expr.neg();
                    }
                }
                Normalized::Constraint(c)
            }
            other => other,
        }
    }

    /// Render with names.
    pub fn display_with<'a>(&'a self, names: &'a [String]) -> DisplayConstraint<'a> {
        DisplayConstraint { c: self, names }
    }
}

/// Helper rendering `expr >= 0` / `expr == 0` with variable names.
pub struct DisplayConstraint<'a> {
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
            Constraint::ge0(e(vec![0, 0], 3)).normalize(),
            Normalized::True
        );
        assert_eq!(
            Constraint::ge0(e(vec![0, 0], -1)).normalize(),
            Normalized::False
        );
        assert_eq!(Constraint::eq(e(vec![0], 0)).normalize(), Normalized::True);
        assert_eq!(Constraint::eq(e(vec![0], 7)).normalize(), Normalized::False);
    }

    #[test]
    fn gcd_infeasible_equality() {
        // 2x + 1 == 0 has no integer solution.
        assert_eq!(Constraint::eq(e(vec![2], 1)).normalize(), Normalized::False);
        // 2x + 4 == 0 -> x + 2 == 0.
        match Constraint::eq(e(vec![2], 4)).normalize() {
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
        match Constraint::ge0(e(vec![2], -3)).normalize() {
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
