//! Integer maps (relations) `Z^n_in → Z^n_out`.

use crate::constraint::Constraint;
use crate::expr::LinExpr;
use crate::polyhedron::Polyhedron;
use crate::set::Set;
use crate::space::Space;
use crate::{PolyError, Result};
use serde::{Deserialize, Serialize};

/// An integer relation between an input space and an output space,
/// represented as a [`Set`] over the concatenated dimensions
/// `[in_0, .., in_{n-1}, out_0, .., out_{d-1}]`.
///
/// This mirrors how the paper models memory accesses: a map from thread
/// grid coordinates (`Z^6`: blockOff and blockIdx per grid dimension) to
/// array element coordinates (`Z^d`), §4.1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Map {
    n_in: usize,
    rel: Set,
}

impl Map {
    /// Build from a relation set whose first `n_in` dimensions are inputs.
    pub fn from_relation(n_in: usize, rel: Set) -> Self {
        assert!(n_in <= rel.n_dims());
        Map { n_in, rel }
    }

    /// The empty map.
    pub fn empty(in_space: &Space, out_space: &Space) -> Self {
        let space = in_space.product(out_space);
        Map {
            n_in: in_space.n_dims(),
            rel: Set::empty(space),
        }
    }

    /// Parse isl-like notation, e.g.
    /// `"[n] -> { [i] -> [a, b] : a = i and 0 <= b and b < n }"`.
    pub fn parse(text: &str) -> Result<Map> {
        crate::parse::parse_map(text)
    }

    /// Number of input dimensions.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of output dimensions.
    pub fn n_out(&self) -> usize {
        self.rel.n_dims() - self.n_in
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.rel.n_params()
    }

    /// The underlying relation set over `[in ++ out]` dimensions.
    pub fn relation(&self) -> &Set {
        &self.rel
    }

    /// Is the map exact (no over-approximation recorded)?
    pub fn is_exact(&self) -> bool {
        self.rel.is_exact()
    }

    /// Mark as over-approximate (used when "may" accesses are folded in).
    pub fn set_inexact(&mut self) {
        self.rel.set_inexact();
    }

    /// Union of two maps over the same spaces.
    pub fn union(&self, other: &Map) -> Result<Map> {
        if self.n_in != other.n_in {
            return Err(PolyError::SpaceMismatch {
                expected: (self.n_in, 0),
                got: (other.n_in, 0),
            });
        }
        Ok(Map {
            n_in: self.n_in,
            rel: self.rel.union(&other.rel)?,
        })
    }

    /// The domain: all inputs related to at least one output.
    pub fn domain(&self) -> Result<Set> {
        self.rel.project_out_dims(self.n_in..self.rel.n_dims())
    }

    /// The range (image of the whole domain).
    pub fn range(&self) -> Result<Set> {
        self.rel.project_out_dims(0..self.n_in)
    }

    /// Restrict the domain to `dom` (a set over the input space).
    pub(crate) fn intersect_domain(&self, dom: &Set) -> Result<Map> {
        if dom.n_dims() != self.n_in || dom.n_params() != self.n_params() {
            return Err(PolyError::SpaceMismatch {
                expected: (self.n_in, self.n_params()),
                got: (dom.n_dims(), dom.n_params()),
            });
        }
        // Embed dom into the relation space by appending the out dims.
        let out_names: Vec<&str> = self.rel.space().dim_names()[self.n_in..]
            .iter()
            .map(|s| s.as_str())
            .collect();
        let lifted = dom.insert_dims(self.n_in, &out_names);
        Ok(Map {
            n_in: self.n_in,
            rel: self.rel.intersect(&lifted)?,
        })
    }

    /// The image of `set` under this map.
    pub fn image(&self, set: &Set) -> Result<Set> {
        let restricted = self.intersect_domain(set)?;
        restricted.range()
    }

    /// Injectivity check: no two distinct inputs map to a common output.
    ///
    /// Builds, for every pair of convex pieces `(A, B)` of the relation and
    /// every input dimension `k` and direction, the system
    ///
    /// ```text
    /// A(t, y)  ∧  B(t', y)  ∧  t_k < t'_k   (resp. >)
    /// ```
    ///
    /// over dims `[t, t', y]`, and checks that each is empty for all
    /// parameters satisfying `context` (param-only polyhedron). Returns
    /// `true` only when injectivity is *proved*; the conservative direction
    /// for write maps (paper §4: non-injective write maps prohibit
    /// partitioning).
    pub fn is_injective(&self, context: &Polyhedron) -> Result<bool> {
        let n = self.n_in;
        assert_eq!(context.n_dims(), 0);
        assert_eq!(context.n_params(), self.n_params());

        let cwidth = 2 * n + self.n_out() + self.n_params();
        for a in self.rel.pieces() {
            for b in self.rel.pieces() {
                let base = self.pair_system(a, b);
                if base.is_marked_empty() {
                    continue;
                }
                // t != t' as a disjunction over dims and directions.
                for k in 0..n {
                    for &less in &[true, false] {
                        let tk = LinExpr::var(cwidth, k);
                        let tk2 = LinExpr::var(cwidth, n + k);
                        let cons = if less {
                            Constraint::lt(&tk, &tk2)?
                        } else {
                            Constraint::lt(&tk2, &tk)?
                        };
                        let sys = base.clone().with_constraint(cons);
                        if !sys.is_empty_symbolic(context)? {
                            return Ok(false);
                        }
                    }
                }
            }
        }
        Ok(true)
    }

    /// The two-copy system of pieces `a` and `b` of this relation, the
    /// base of every proof that two distinct inputs never share an output:
    /// `a` over `(t, y)` and `b` over `(t', y)` in the space
    /// `[t (n_in), t' (n_in), y (n_out), params]`, constraints added in
    /// order, `a`'s first. Callers add their own `t ≠ t'` condition.
    pub fn pair_system(&self, a: &Polyhedron, b: &Polyhedron) -> Polyhedron {
        let n = self.n_in;
        let width = 2 * n + self.n_out() + self.n_params();
        let mut sys = Polyhedron::universe(2 * n + self.n_out(), self.n_params());
        for (piece, off) in [(a, 0), (b, n)] {
            for c in piece.constraints() {
                let src = &c.expr.coeffs;
                debug_assert_eq!(src.len() + n, width);
                let mut coeffs = vec![0i64; width];
                coeffs[off..off + n].copy_from_slice(&src[..n]);
                // Outputs and parameters follow both input copies.
                coeffs[2 * n..].copy_from_slice(&src[n..]);
                sys.add_constraint(Constraint {
                    kind: c.kind,
                    expr: LinExpr {
                        coeffs,
                        konst: c.expr.konst,
                    },
                });
            }
        }
        sys
    }

    /// Apply to a single concrete input: collect the outputs (test helper).
    pub fn apply_point(&self, input: &[i64], params: &[i64]) -> Result<Vec<Vec<i64>>> {
        assert_eq!(input.len(), self.n_in);
        let mut fixed = self.rel.clone();
        for (i, &v) in input.iter().enumerate() {
            fixed = fixed.fix_dim(i, v)?;
        }
        let outs = fixed.project_out_dims(0..self.n_in)?;
        Ok(outs.points_sorted(params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_translation() {
        // Figure 1 of the paper: S2 = M(S1) with M translating by (1, 3).
        let s1 = Set::parse("{ [y, x] : 0 <= y and y <= x and 0 <= x and x <= 4 }").unwrap();
        let m = Map::parse("{ [y, x] -> [y1, x1] : y1 = y + 1 and x1 = x + 3 }").unwrap();
        let s2 = m.image(&s1).unwrap();
        // S2 = { [y, x] : 1 <= y <= x - 2 and 3 <= x <= 7 } (eq. 3)
        let expected =
            Set::parse("{ [y, x] : 1 <= y and y <= x - 2 and 3 <= x and x <= 7 }").unwrap();
        assert_eq!(s2.points_sorted(&[]), expected.points_sorted(&[]));
    }

    #[test]
    fn domain_and_range() {
        let m = Map::parse("[n] -> { [i] -> [j] : j = i + 1 and 0 <= i and i < n }").unwrap();
        let dom = m.domain().unwrap();
        let rng = m.range().unwrap();
        assert_eq!(dom.count_points(&[5]), 5);
        assert_eq!(rng.points_sorted(&[3]), vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn apply_point_stencil_reads() {
        // 1D 3-point stencil: i -> {i-1, i, i+1}
        let m = Map::parse("{ [i] -> [a] : i - 1 <= a and a <= i + 1 }").unwrap();
        let outs = m.apply_point(&[5], &[]).unwrap();
        assert_eq!(outs, vec![vec![4], vec![5], vec![6]]);
    }

    #[test]
    fn injective_identity_map() {
        let m = Map::parse("[n] -> { [i] -> [a] : a = i and 0 <= i and i < n }").unwrap();
        let ctx = Polyhedron::universe(0, 1);
        assert!(m.is_injective(&ctx).unwrap());
    }

    #[test]
    fn non_injective_constant_map() {
        // Everything writes element 0: not injective (for n >= 2).
        let m = Map::parse("[n] -> { [i] -> [a] : a = 0 and 0 <= i and i < n }").unwrap();
        let ctx = Polyhedron::universe(0, 1);
        assert!(!m.is_injective(&ctx).unwrap());
    }

    #[test]
    fn non_injective_stencil_reads() {
        // The 3-point read stencil maps distinct i to shared elements.
        let m =
            Map::parse("[n] -> { [i] -> [a] : i - 1 <= a and a <= i + 1 and 0 <= i and i < n }")
                .unwrap();
        let ctx = Polyhedron::universe(0, 1);
        assert!(!m.is_injective(&ctx).unwrap());
    }

    #[test]
    fn injective_strided_map() {
        // i -> 2i is injective even with non-unit coefficient.
        let m = Map::parse("[n] -> { [i] -> [a] : a = 2i and 0 <= i and i < n }").unwrap();
        let ctx = Polyhedron::universe(0, 1);
        assert!(m.is_injective(&ctx).unwrap());
    }

    #[test]
    fn constrain_inputs_to_box() {
        // Identity over i, restricted to the "partition" [p0, p1) given
        // by parameters, as the paper bounds a map to one partition (§6).
        let m = Map::parse("[p0, p1] -> { [i] -> [a] : a = i }").unwrap();
        let part = Set::parse("[p0, p1] -> { [i] : p0 <= i and i < p1 }").unwrap();
        let img = m.intersect_domain(&part).unwrap().range().unwrap();
        assert_eq!(
            img.points_sorted(&[10, 13]),
            vec![vec![10], vec![11], vec![12]]
        );
    }

    #[test]
    fn intersect_domain_restricts_image() {
        let m = Map::parse("{ [i] -> [a] : a = i }").unwrap();
        let dom = Set::parse("{ [i] : 2 <= i and i <= 4 }").unwrap();
        let img = m.image(&dom).unwrap();
        assert_eq!(img.count_points(&[]), 3);
    }
}
