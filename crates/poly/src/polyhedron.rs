//! Convex Z-polyhedra: conjunctions of affine constraints.

use crate::constraint::{Constraint, ConstraintKind, Normalized};
use crate::expr::LinExpr;
use crate::fm;
use crate::{PolyError, Result};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::ControlFlow;

/// A single convex Z-polyhedron over `n_dims` set dimensions and
/// `n_params` parameters: the integer points satisfying every constraint.
///
/// Constraints are kept normalized and deduplicated. A polyhedron that was
/// *syntactically* detected to be empty (a normalization produced `False`)
/// carries the `empty` marker; semantic emptiness is decided by
/// [`Polyhedron::is_empty_concrete`] / [`Polyhedron::is_empty_symbolic`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Polyhedron {
    n_dims: usize,
    n_params: usize,
    constraints: Vec<Constraint>,
    empty: bool,
}

impl Polyhedron {
    /// The universe polyhedron (no constraints).
    pub fn universe(n_dims: usize, n_params: usize) -> Self {
        Polyhedron {
            n_dims,
            n_params,
            constraints: Vec::new(),
            empty: false,
        }
    }

    /// An explicitly empty polyhedron.
    pub fn empty(n_dims: usize, n_params: usize) -> Self {
        Polyhedron {
            n_dims,
            n_params,
            constraints: Vec::new(),
            empty: true,
        }
    }

    /// Number of set dimensions.
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Coefficient width (dims + params).
    pub fn width(&self) -> usize {
        self.n_dims + self.n_params
    }

    /// The constraint list (normalized, deduplicated).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Was this polyhedron syntactically detected to be empty?
    pub fn is_marked_empty(&self) -> bool {
        self.empty
    }

    /// Add a constraint, normalizing it. Returns `self` for chaining.
    pub fn add_constraint(&mut self, c: Constraint) -> &mut Self {
        debug_assert_eq!(c.expr.width(), self.width(), "constraint width mismatch");
        if self.empty {
            return self;
        }
        match c.canonical() {
            Normalized::True => {}
            Normalized::False => {
                self.constraints.clear();
                self.empty = true;
            }
            Normalized::Constraint(c) => {
                if !self.constraints.contains(&c) {
                    self.constraints.push(c);
                }
            }
        }
        self
    }

    /// Builder-style [`Polyhedron::add_constraint`].
    pub(crate) fn with_constraint(mut self, c: Constraint) -> Self {
        self.add_constraint(c);
        self
    }

    /// Conjunction of two polyhedra over the same space.
    pub fn intersect(&self, other: &Polyhedron) -> Result<Polyhedron> {
        if self.n_dims != other.n_dims || self.n_params != other.n_params {
            return Err(PolyError::SpaceMismatch {
                expected: (self.n_dims, self.n_params),
                got: (other.n_dims, other.n_params),
            });
        }
        let mut out = self.clone();
        if other.empty {
            return Ok(Polyhedron::empty(self.n_dims, self.n_params));
        }
        for c in &other.constraints {
            out.add_constraint(c.clone());
        }
        Ok(out)
    }

    /// Does the integer point `dims` (with parameter values `params`)
    /// belong to this polyhedron?
    pub fn contains(&self, dims: &[i64], params: &[i64]) -> bool {
        if self.empty {
            return false;
        }
        debug_assert_eq!(dims.len(), self.n_dims);
        debug_assert_eq!(params.len(), self.n_params);
        let mut values = Vec::with_capacity(self.width());
        values.extend_from_slice(dims);
        values.extend_from_slice(params);
        self.constraints.iter().all(|c| c.holds(&values))
    }

    /// Substitute concrete parameter values, yielding a parameter-free
    /// polyhedron over the same dimensions.
    pub fn bind_params(&self, params: &[i64]) -> Result<Polyhedron> {
        assert_eq!(params.len(), self.n_params);
        let mut out = Polyhedron::universe(self.n_dims, 0);
        out.empty = self.empty;
        for c in &self.constraints {
            let mut konst = c.expr.konst as i128;
            for (i, &p) in params.iter().enumerate() {
                konst += (c.expr.coeffs[self.n_dims + i] as i128) * (p as i128);
            }
            let konst = i64::try_from(konst).map_err(|_| PolyError::Overflow)?;
            let expr = LinExpr {
                coeffs: c.expr.coeffs[..self.n_dims].to_vec(),
                konst,
            };
            out.add_constraint(Constraint { kind: c.kind, expr });
        }
        Ok(out)
    }

    /// Eliminate a contiguous range of dimensions by Fourier–Motzkin,
    /// highest index first, on one matrix; the result is converted back to
    /// constraints once. Returns the projected polyhedron and whether the
    /// projection is exact over the integers.
    pub fn project_out_dims(&self, range: std::ops::Range<usize>) -> Result<(Polyhedron, bool)> {
        if range.is_empty() {
            return Ok((self.clone(), true));
        }
        if range.end > self.n_dims {
            return Err(PolyError::DimOutOfRange {
                index: range.end - 1,
                n_dims: self.n_dims,
            });
        }
        let n_dims = self.n_dims - range.len();
        if self.empty {
            return Ok((Polyhedron::empty(n_dims, self.n_params), true));
        }
        let mut m = fm::Matrix::from_constraints(self.width(), &self.constraints);
        let mut exact = true;
        for d in range.clone().rev() {
            exact &= m.eliminate(d)?;
        }
        let out = Polyhedron {
            n_dims,
            n_params: self.n_params,
            constraints: m.to_constraints(range),
            empty: m.is_empty(),
        };
        Ok((out, exact))
    }

    /// Insert `count` fresh unconstrained dimensions at position `at`.
    pub(crate) fn insert_dims(&self, at: usize, count: usize) -> Polyhedron {
        assert!(at <= self.n_dims);
        Polyhedron {
            n_dims: self.n_dims + count,
            n_params: self.n_params,
            constraints: self
                .constraints
                .iter()
                .map(|c| Constraint {
                    kind: c.kind,
                    expr: c.expr.insert_vars(at, count),
                })
                .collect(),
            empty: self.empty,
        }
    }

    /// Fix dimension `dim` to the integer `value`: adds the equality
    /// `dim == value`.
    pub fn fix_dim(&self, dim: usize, value: i64) -> Result<Polyhedron> {
        let e = LinExpr::var(self.width(), dim).sub(&LinExpr::constant(self.width(), value))?;
        Ok(self.clone().with_constraint(Constraint::eq(e)))
    }

    /// Rational + gcd emptiness test with all parameters bound to concrete
    /// values. Decides emptiness exactly for the constraint systems the
    /// toolchain produces (unit coefficients); conservatively says
    /// "non-empty" when FM loses integer exactness.
    pub fn is_empty_concrete(&self, params: &[i64]) -> Result<bool> {
        let bound = self.bind_params(params)?;
        Ok(bound.empty
            || fm::Matrix::from_constraints(bound.width(), &bound.constraints).eliminate_all()?)
    }

    /// Emptiness test treating parameters as universally quantified over the
    /// given `context` (constraints on parameters only, expressed as a
    /// polyhedron with zero dims). Returns `true` only if the polyhedron is
    /// provably empty for **every** parameter assignment satisfying the
    /// context. The conservative direction: "don't know" → `false`.
    pub fn is_empty_symbolic(&self, context: &Polyhedron) -> Result<bool> {
        assert_eq!(context.n_dims, 0);
        assert_eq!(context.n_params, self.n_params);
        if self.empty {
            return Ok(true);
        }
        let width = self.width();
        let mut m = fm::Matrix::from_constraints(width, &self.constraints);
        // Lift the context's param-only constraints into our space.
        for c in &context.constraints {
            m.add(c.kind, |row| {
                row[self.n_dims..width].copy_from_slice(&c.expr.coeffs);
                row[width] = c.expr.konst;
            });
        }
        // Treat params as ordinary variables and eliminate everything. If
        // the combined system is rationally infeasible, the set is empty for
        // every parameter choice in the context.
        m.eliminate_all()
    }

    /// Lower and upper bounds of dimension `dim` in terms of dimensions
    /// `< dim` and the parameters. All dimensions `> dim` must already be
    /// eliminated (i.e. `dim == n_dims - 1`).
    ///
    /// Each bound is `(expr, divisor)`:
    /// * lower bound: `dim >= ceil(expr / divisor)`
    /// * upper bound: `dim <= floor(expr / divisor)`
    pub fn bounds_of_last_dim(&self) -> DimBounds {
        assert!(self.n_dims >= 1);
        let rows = self
            .constraints
            .iter()
            .map(|c| (c.kind, &c.expr.coeffs[..], c.expr.konst));
        DimBounds::of(self.n_dims - 1, rows)
    }

    /// Visit the integer points for concrete `params` in lexicographic
    /// order until `f` breaks, and return what it broke with. The loop
    /// nest is derived once (one Fourier–Motzkin projection per
    /// dimension), so a visit that breaks at the first point costs one
    /// descent. A dimension without bounds is [`PolyError::Unbounded`] if
    /// the scan gets to it.
    pub fn try_for_each_point<B>(
        &self,
        params: &[i64],
        f: &mut dyn FnMut(&[i64]) -> ControlFlow<B>,
    ) -> Result<Option<B>> {
        // Without parameters, binding would only copy the constraints.
        let bound = match self.n_params {
            0 if params.is_empty() => Cow::Borrowed(self),
            _ => Cow::Owned(self.bind_params(params)?),
        };
        let flow = if bound.empty {
            ControlFlow::Continue(())
        } else if self.n_dims == 0 {
            f(&[])
        } else {
            crate::codegen::scan_points(&bound, f)?
        };
        Ok(flow.break_value())
    }

    /// Visit every integer point for concrete `params`.
    pub fn for_each_point(&self, params: &[i64], f: &mut dyn FnMut(&[i64])) -> Result<()> {
        let visit_all = &mut |pt: &[i64]| {
            f(pt);
            ControlFlow::<()>::Continue(())
        };
        self.try_for_each_point(params, visit_all).map(|_| ())
    }

    /// The lexicographically first integer point for concrete `params`.
    pub fn first_point(&self, params: &[i64]) -> Result<Option<Vec<i64>>> {
        self.try_for_each_point(params, &mut |pt| ControlFlow::Break(pt.to_vec()))
    }

    /// Count integer points for concrete `params` (test helper).
    pub fn count_points(&self, params: &[i64]) -> u64 {
        let mut n = 0u64;
        self.for_each_point(params, &mut |_| n += 1)
            .expect("count_points requires a bounded polyhedron");
        n
    }

    /// Render using the given variable names (dims then params).
    pub(crate) fn display_with<'a>(&'a self, names: &'a [String]) -> DisplayPolyhedron<'a> {
        DisplayPolyhedron { p: self, names }
    }
}

/// Symbolic bounds of one dimension: `max(ceil(l/d))  <=  x  <=  min(floor(u/d))`.
#[derive(Debug, Clone)]
pub struct DimBounds {
    /// Lower bounds `(expr, divisor)` meaning `x >= ceil(expr / divisor)`.
    pub lower: Vec<(LinExpr, i64)>,
    /// Upper bounds `(expr, divisor)` meaning `x <= floor(expr / divisor)`.
    pub upper: Vec<(LinExpr, i64)>,
}

impl DimBounds {
    /// The bounds that `rows` (`(kind, coefficients, constant)` over the
    /// full width) put on column `dim`, in row order.
    pub(crate) fn of<'a>(
        dim: usize,
        rows: impl Iterator<Item = (ConstraintKind, &'a [i64], i64)>,
    ) -> DimBounds {
        let (mut lower, mut upper) = (Vec::new(), Vec::new());
        for (kind, coeffs, konst) in rows.filter(|(_, coeffs, _)| coeffs[dim] != 0) {
            // a·x + rest >= 0: x >= ceil(-rest / a) if a > 0, else
            // x <= floor(rest / -a); an equality is both at once.
            let a = coeffs[dim];
            let mut rest = LinExpr {
                coeffs: coeffs.to_vec(),
                konst,
            };
            rest.coeffs[dim] = 0;
            let bound = if a > 0 { (rest.neg(), a) } else { (rest, -a) };
            match kind {
                ConstraintKind::Eq => {
                    lower.push(bound.clone());
                    upper.push(bound);
                }
                ConstraintKind::GeZero if a > 0 => lower.push(bound),
                ConstraintKind::GeZero => upper.push(bound),
            }
        }
        DimBounds { lower, upper }
    }
}

/// Helper rendering a polyhedron in isl-like notation.
pub(crate) struct DisplayPolyhedron<'a> {
    p: &'a Polyhedron,
    names: &'a [String],
}

impl std::fmt::Display for DisplayPolyhedron<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.p.is_marked_empty() {
            return write!(f, "false");
        }
        if self.p.constraints().is_empty() {
            return write!(f, "true");
        }
        let mut first = true;
        for c in self.p.constraints() {
            if !first {
                write!(f, " and ")?;
            }
            write!(f, "{}", c.display_with(self.names))?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::expr::LinExpr;

    /// { [y, x] : 0 <= y <= x and 0 <= x <= 4 } — S1 from Figure 1.
    fn s1() -> Polyhedron {
        let w = 2;
        let y = LinExpr::var(w, 0);
        let x = LinExpr::var(w, 1);
        Polyhedron::universe(2, 0)
            .with_constraint(Constraint::ge0(y.clone()))
            .with_constraint(Constraint::ge(&x, &y).unwrap())
            .with_constraint(Constraint::ge0(x.clone()))
            .with_constraint(Constraint::le(&x, &LinExpr::constant(w, 4)).unwrap())
    }

    #[test]
    fn s1_has_15_points() {
        assert_eq!(s1().count_points(&[]), 15);
    }

    #[test]
    fn contains_matches_enumeration() {
        let p = s1();
        let mut pts = Vec::new();
        p.for_each_point(&[], &mut |pt| pts.push(pt.to_vec()))
            .unwrap();
        for y in -1..6 {
            for x in -1..6 {
                let inside = p.contains(&[y, x], &[]);
                assert_eq!(inside, pts.contains(&vec![y, x]), "point ({y},{x})");
            }
        }
    }

    #[test]
    fn projection_of_triangle() {
        // Projecting S1 onto x gives 0 <= x <= 4 (5 points).
        let p = s1();
        // Eliminate y (dim 0).
        let (proj, exact) = p.project_out_dims(0..1).unwrap();
        assert!(exact);
        assert_eq!(proj.n_dims(), 1);
        assert_eq!(proj.count_points(&[]), 5);
    }

    #[test]
    fn empty_by_contradiction() {
        let w = 1;
        let x = LinExpr::var(w, 0);
        let p = Polyhedron::universe(1, 0)
            .with_constraint(Constraint::ge(&x, &LinExpr::constant(w, 3)).unwrap())
            .with_constraint(Constraint::le(&x, &LinExpr::constant(w, 2)).unwrap());
        assert!(p.is_empty_concrete(&[]).unwrap());
        assert_eq!(p.count_points(&[]), 0);
    }

    #[test]
    fn empty_by_gcd() {
        // 2x == 1 has no integer solutions; detected at add_constraint time.
        let e = LinExpr {
            coeffs: vec![2],
            konst: -1,
        };
        let p = Polyhedron::universe(1, 0).with_constraint(Constraint::eq(e));
        assert!(p.is_marked_empty());
    }

    #[test]
    fn parametric_interval() {
        // { [x] : 0 <= x < n }, n = 7 -> 7 points.
        let w = 2; // 1 dim + 1 param
        let x = LinExpr::var(w, 0);
        let n = LinExpr::var(w, 1);
        let p = Polyhedron::universe(1, 1)
            .with_constraint(Constraint::ge0(x.clone()))
            .with_constraint(Constraint::lt(&x, &n).unwrap());
        assert_eq!(p.count_points(&[7]), 7);
        assert_eq!(p.count_points(&[0]), 0);
        assert!(p.is_empty_concrete(&[0]).unwrap());
        assert!(!p.is_empty_concrete(&[1]).unwrap());
    }

    #[test]
    fn symbolic_emptiness_with_context() {
        // { [x] : 0 <= x < n and x >= n } is empty for all n.
        let w = 2;
        let x = LinExpr::var(w, 0);
        let n = LinExpr::var(w, 1);
        let p = Polyhedron::universe(1, 1)
            .with_constraint(Constraint::ge0(x.clone()))
            .with_constraint(Constraint::lt(&x, &n).unwrap())
            .with_constraint(Constraint::ge(&x, &n).unwrap());
        let ctx = Polyhedron::universe(0, 1);
        assert!(p.is_empty_symbolic(&ctx).unwrap());

        // { [x] : 0 <= x < n } is NOT empty for n >= 1.
        let q = Polyhedron::universe(1, 1)
            .with_constraint(Constraint::ge0(x.clone()))
            .with_constraint(Constraint::lt(&x, &n).unwrap());
        let ctx1 = {
            let nn = LinExpr::var(1, 0); // param-only space: width 1
            Polyhedron::universe(0, 1)
                .with_constraint(Constraint::ge(&nn, &LinExpr::constant(1, 1)).unwrap())
        };
        assert!(!q.is_empty_symbolic(&ctx1).unwrap());
    }

    #[test]
    fn bounds_of_last_dim_triangle() {
        // For S1 with dims [y, x]: bounds of x given y are
        // max(y, 0) <= x <= 4, all with divisor 1.
        let b = s1().bounds_of_last_dim();
        let at_y2 = |bs: &[(LinExpr, i64)]| -> Vec<(i128, i64)> {
            bs.iter().map(|(e, d)| (e.eval(&[2, 0]), *d)).collect()
        };
        assert_eq!(at_y2(&b.lower), [(2, 1), (0, 1)]);
        assert_eq!(at_y2(&b.upper), [(4, 1)]);
    }

    #[test]
    fn fix_dim_slices() {
        let p = s1().fix_dim(1, 3).unwrap(); // x = 3 -> y in 0..=3
        assert_eq!(p.count_points(&[]), 4);
    }

    #[test]
    fn insert_dims_keeps_semantics() {
        let p = s1().insert_dims(1, 1); // [y, z, x] with z free
        assert_eq!(p.n_dims(), 3);
        assert!(p.contains(&[1, 99, 2], &[]));
        assert!(!p.contains(&[3, 0, 2], &[]));
    }
}
