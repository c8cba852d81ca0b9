//! Affine (linear + constant) integer expressions.

use crate::{PolyError, Result};
use serde::{Deserialize, Serialize};

/// An affine expression `c0*v0 + c1*v1 + ... + k` over the dimensions and
/// parameters of a space (dimensions first, parameters after).
///
/// Coefficients are `i64`; all combining arithmetic goes through `i128`
/// and reports overflow instead of wrapping. Its results stay within
/// `±i64::MAX` — `i64::MIN` counts as overflow too — so negating them
/// never overflows.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinExpr {
    /// One coefficient per dimension, then one per parameter.
    pub coeffs: Vec<i64>,
    /// The constant term.
    pub konst: i64,
}

impl LinExpr {
    /// The zero expression of the given width.
    pub fn zero(width: usize) -> Self {
        LinExpr {
            coeffs: vec![0; width],
            konst: 0,
        }
    }

    /// A constant expression.
    pub fn constant(width: usize, k: i64) -> Self {
        LinExpr {
            coeffs: vec![0; width],
            konst: k,
        }
    }

    /// The expression `1 * v_index`.
    pub fn var(width: usize, index: usize) -> Self {
        assert!(index < width, "variable index {index} out of width {width}");
        let mut coeffs = vec![0; width];
        coeffs[index] = 1;
        LinExpr { coeffs, konst: 0 }
    }

    /// Total width (dims + params) this expression ranges over.
    pub fn width(&self) -> usize {
        self.coeffs.len()
    }

    /// Coefficient of variable `i`.
    pub fn coeff(&self, i: usize) -> i64 {
        self.coeffs[i]
    }

    /// Set the coefficient of variable `i` (builder style).
    pub(crate) fn with_coeff(mut self, i: usize, c: i64) -> Self {
        self.coeffs[i] = c;
        self
    }

    /// Set the constant term (builder style).
    pub fn with_konst(mut self, k: i64) -> Self {
        self.konst = k;
        self
    }

    /// True if all coefficients are zero.
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Pointwise sum. Errors on width mismatch or overflow.
    pub fn add(&self, other: &LinExpr) -> Result<LinExpr> {
        self.combine(other, 1, 1)
    }

    /// Pointwise difference `self - other`.
    pub fn sub(&self, other: &LinExpr) -> Result<LinExpr> {
        self.combine(other, 1, -1)
    }

    /// `a*self + b*other` with overflow checking.
    pub fn combine(&self, other: &LinExpr, a: i64, b: i64) -> Result<LinExpr> {
        if self.width() != other.width() {
            return Err(PolyError::SpaceMismatch {
                expected: (self.width(), 0),
                got: (other.width(), 0),
            });
        }
        let comb = |x: i64, y: i64| term((a as i128) * (x as i128) + (b as i128) * (y as i128));
        let coeffs = self
            .coeffs
            .iter()
            .zip(&other.coeffs)
            .map(|(&x, &y)| comb(x, y))
            .collect::<Result<Vec<_>>>()?;
        Ok(LinExpr {
            coeffs,
            konst: comb(self.konst, other.konst)?,
        })
    }

    /// Multiply by a scalar.
    pub fn scale(&self, s: i64) -> Result<LinExpr> {
        let mul = |x: i64| term((x as i128) * (s as i128));
        Ok(LinExpr {
            coeffs: self.coeffs.iter().map(|&c| mul(c)).collect::<Result<_>>()?,
            konst: mul(self.konst)?,
        })
    }

    /// Negation.
    pub fn neg(&self) -> LinExpr {
        LinExpr {
            coeffs: self.coeffs.iter().map(|&c| -c).collect(),
            konst: -self.konst,
        }
    }

    /// Evaluate at a full assignment `values` of length `width()`
    /// (dimensions first, then parameters). Uses `i128` internally.
    pub fn eval(&self, values: &[i64]) -> i128 {
        debug_assert_eq!(values.len(), self.width());
        let mut acc = self.konst as i128;
        for (c, v) in self.coeffs.iter().zip(values) {
            acc += (*c as i128) * (*v as i128);
        }
        acc
    }

    /// Substitute variable `i` with expression `repl` (whose coefficient on
    /// `i` must be zero), i.e. `self[v_i := repl]`.
    pub fn substitute(&self, i: usize, repl: &LinExpr) -> Result<LinExpr> {
        debug_assert_eq!(repl.coeffs[i], 0, "replacement must not mention v{i}");
        let c = self.coeffs[i];
        if c == 0 {
            return Ok(self.clone());
        }
        let mut without = self.clone();
        without.coeffs[i] = 0;
        without.combine(&repl.scale(c)?, 1, 1)
    }

    /// Insert `count` fresh zero-coefficient variables at position `at`.
    pub fn insert_vars(&self, at: usize, count: usize) -> LinExpr {
        let mut coeffs = Vec::with_capacity(self.coeffs.len() + count);
        coeffs.extend_from_slice(&self.coeffs[..at]);
        coeffs.extend(std::iter::repeat_n(0, count));
        coeffs.extend_from_slice(&self.coeffs[at..]);
        LinExpr {
            coeffs,
            konst: self.konst,
        }
    }

    /// Remove variable `at` (its coefficient must be zero).
    pub fn remove_var(&self, at: usize) -> LinExpr {
        debug_assert_eq!(self.coeffs[at], 0, "cannot drop live variable v{at}");
        let mut coeffs = self.coeffs.clone();
        coeffs.remove(at);
        LinExpr {
            coeffs,
            konst: self.konst,
        }
    }

    /// gcd of all coefficients and the constant (0 if identically zero).
    pub fn content(&self) -> i64 {
        let mut g = self.konst.unsigned_abs();
        for &c in &self.coeffs {
            g = gcd_u64(g, c.unsigned_abs());
        }
        g as i64
    }

    /// Render with the given names (dims then params).
    pub(crate) fn display_with<'a>(&'a self, names: &'a [String]) -> DisplayLinExpr<'a> {
        DisplayLinExpr { expr: self, names }
    }
}

/// `v` as a term of an expression: overflow outside `±i64::MAX`.
pub(crate) fn term(v: i128) -> Result<i64> {
    match i64::try_from(v) {
        Ok(t) if t != i64::MIN => Ok(t),
        _ => Err(PolyError::Overflow),
    }
}

/// gcd on u64, `gcd(0, x) = x`.
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Floor division `a / b` for `b > 0`.
pub fn fdiv(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

/// Ceiling division `a / b` for `b > 0`.
pub fn cdiv(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    -((-a).div_euclid(b))
}

/// Helper for rendering a [`LinExpr`] with variable names.
pub(crate) struct DisplayLinExpr<'a> {
    expr: &'a LinExpr,
    names: &'a [String],
}

impl std::fmt::Display for DisplayLinExpr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (i, &c) in self.expr.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let name = self.names.get(i).map(|s| s.as_str()).unwrap_or("?");
            if first {
                match c {
                    1 => write!(f, "{name}")?,
                    -1 => write!(f, "-{name}")?,
                    _ => write!(f, "{c}{name}")?,
                }
                first = false;
            } else if c > 0 {
                if c == 1 {
                    write!(f, " + {name}")?;
                } else {
                    write!(f, " + {c}{name}")?;
                }
            } else if c == -1 {
                write!(f, " - {name}")?;
            } else {
                write!(f, " - {}{name}", -c)?;
            }
        }
        let k = self.expr.konst;
        if first {
            write!(f, "{k}")?;
        } else if k > 0 {
            write!(f, " + {k}")?;
        } else if k < 0 {
            write!(f, " - {}", -k)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arith() {
        let a = LinExpr::var(3, 0).with_konst(2); // v0 + 2
        let b = LinExpr::var(3, 1).with_coeff(2, 3); // v1 + 3*v2
        let s = a.add(&b).unwrap();
        assert_eq!(s.coeffs, vec![1, 1, 3]);
        assert_eq!(s.konst, 2);
        assert_eq!(s.eval(&[1, 1, 1]), 7);
        let d = s.sub(&b).unwrap();
        assert_eq!(d, a);
    }

    #[test]
    fn substitute_var() {
        // e = 2*v0 + v1; v0 := v1 + 1  =>  3*v1 + 2
        let e = LinExpr::zero(2).with_coeff(0, 2).with_coeff(1, 1);
        let repl = LinExpr::var(2, 1).with_konst(1);
        let r = e.substitute(0, &repl).unwrap();
        assert_eq!(r.coeffs, vec![0, 3]);
        assert_eq!(r.konst, 2);
    }

    #[test]
    fn overflow_detected() {
        let a = LinExpr::constant(1, i64::MAX);
        assert_eq!(a.add(&a), Err(PolyError::Overflow));
        assert_eq!(a.scale(2), Err(PolyError::Overflow));
        // i64::MIN has no negation, so no result may be i64::MIN.
        let b = LinExpr::constant(1, -i64::MAX);
        assert_eq!(b.sub(&LinExpr::constant(1, 1)), Err(PolyError::Overflow));
        assert_eq!(b.scale(-1).unwrap().konst, i64::MAX);
    }

    #[test]
    fn division_helpers() {
        assert_eq!(fdiv(7, 2), 3);
        assert_eq!(fdiv(-7, 2), -4);
        assert_eq!(cdiv(7, 2), 4);
        assert_eq!(cdiv(-7, 2), -3);
        assert_eq!(gcd_u64(12, 18), 6);
        assert_eq!(gcd_u64(0, 5), 5);
    }

    #[test]
    fn insert_and_remove_vars() {
        let e = LinExpr {
            coeffs: vec![1, 2],
            konst: 5,
        };
        let wide = e.insert_vars(1, 2);
        assert_eq!(wide.coeffs, vec![1, 0, 0, 2]);
        let back = wide.remove_var(1).remove_var(1);
        assert_eq!(back, e);
    }

    #[test]
    fn display() {
        let names: Vec<String> = ["y", "x", "n"].iter().map(|s| s.to_string()).collect();
        let e = LinExpr {
            coeffs: vec![1, -2, 0],
            konst: -3,
        };
        assert_eq!(e.display_with(&names).to_string(), "y - 2x - 3");
        let z = LinExpr::zero(3);
        assert_eq!(z.display_with(&names).to_string(), "0");
    }

    #[test]
    fn content_gcds() {
        let e = LinExpr {
            coeffs: vec![4, 6],
            konst: 10,
        };
        assert_eq!(e.content(), 2);
        let f = LinExpr {
            coeffs: vec![4, 6],
            konst: 3,
        };
        assert_eq!(f.content(), 1);
    }
}
