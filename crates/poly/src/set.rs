//! Unions of convex Z-polyhedra over a common space.

use crate::polyhedron::Polyhedron;
use crate::space::Space;
use crate::{PolyError, Result};
use serde::{Deserialize, Serialize};

/// A (possibly non-convex) integer set: the union of convex
/// [`Polyhedron`] pieces over a shared [`Space`].
///
/// The `exact` flag records whether any operation along the way had to
/// over-approximate (Fourier–Motzkin with non-unit coefficients). An
/// inexact set is a *superset* of the true result — fine for read sets,
/// rejected for write sets (paper §4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Set {
    space: Space,
    pieces: Vec<Polyhedron>,
    exact: bool,
}

impl Set {
    /// The empty set.
    pub fn empty(space: Space) -> Self {
        Set {
            space,
            pieces: Vec::new(),
            exact: true,
        }
    }

    /// The universe set.
    pub fn universe(space: Space) -> Self {
        let p = Polyhedron::universe(space.n_dims(), space.n_params());
        Set {
            space,
            pieces: vec![p],
            exact: true,
        }
    }

    /// A set with a single convex piece.
    pub fn from_polyhedron(space: Space, piece: Polyhedron) -> Self {
        assert_eq!(piece.n_dims(), space.n_dims());
        assert_eq!(piece.n_params(), space.n_params());
        let pieces = if piece.is_marked_empty() {
            Vec::new()
        } else {
            vec![piece]
        };
        Set {
            space,
            pieces,
            exact: true,
        }
    }

    /// Build from several convex pieces.
    pub fn from_pieces(space: Space, pieces: Vec<Polyhedron>) -> Self {
        let pieces: Vec<Polyhedron> = pieces
            .into_iter()
            .filter(|p| !p.is_marked_empty())
            .inspect(|p| {
                assert_eq!(p.n_dims(), space.n_dims());
                assert_eq!(p.n_params(), space.n_params());
            })
            .collect();
        Set {
            space,
            pieces,
            exact: true,
        }
    }

    /// Parse isl-like notation, e.g.
    /// `"[n] -> { [y, x] : 0 <= y and y < n or x = 0 }"`.
    pub fn parse(text: &str) -> Result<Set> {
        crate::parse::parse_set(text)
    }

    /// The space this set lives in.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The convex pieces of the union.
    pub fn pieces(&self) -> &[Polyhedron] {
        &self.pieces
    }

    /// Number of set dimensions.
    pub fn n_dims(&self) -> usize {
        self.space.n_dims()
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.space.n_params()
    }

    /// Is every operation that produced this set integer-exact?
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Mark the set as over-approximate.
    pub fn set_inexact(&mut self) {
        self.exact = false;
    }

    fn check_space(&self, other: &Set) -> Result<()> {
        if !self.space.compatible(&other.space) {
            return Err(PolyError::SpaceMismatch {
                expected: (self.n_dims(), self.n_params()),
                got: (other.n_dims(), other.n_params()),
            });
        }
        Ok(())
    }

    /// Set union (piece concatenation).
    pub fn union(&self, other: &Set) -> Result<Set> {
        self.check_space(other)?;
        let mut pieces = self.pieces.clone();
        pieces.extend(other.pieces.iter().cloned());
        Ok(Set {
            space: self.space.clone(),
            pieces,
            exact: self.exact && other.exact,
        })
    }

    /// Set intersection (pairwise piece intersection).
    pub fn intersect(&self, other: &Set) -> Result<Set> {
        self.check_space(other)?;
        let mut pieces = Vec::new();
        for a in &self.pieces {
            for b in &other.pieces {
                let p = a.intersect(b)?;
                if !p.is_marked_empty() {
                    pieces.push(p);
                }
            }
        }
        Ok(Set {
            space: self.space.clone(),
            pieces,
            exact: self.exact && other.exact,
        })
    }

    /// Project out the dimensions in `range`, renaming the space
    /// accordingly. Exactness degrades if FM loses integer precision.
    pub fn project_out_dims(&self, range: std::ops::Range<usize>) -> Result<Set> {
        let mut pieces = Vec::new();
        let mut exact = self.exact;
        for p in &self.pieces {
            let (q, e) = p.project_out_dims(range.clone())?;
            exact &= e;
            if !q.is_marked_empty() {
                pieces.push(q);
            }
        }
        let mut dims = self.space.dim_names().to_vec();
        dims.drain(range);
        Ok(Set {
            space: Space::from_names(dims, self.space.param_names().to_vec()),
            pieces,
            exact,
        })
    }

    /// Insert fresh unconstrained dimensions named `names` at `at`.
    pub(crate) fn insert_dims(&self, at: usize, names: &[&str]) -> Set {
        let mut dims = self.space.dim_names().to_vec();
        for (i, n) in names.iter().enumerate() {
            dims.insert(at + i, n.to_string());
        }
        Set {
            space: Space::from_names(dims, self.space.param_names().to_vec()),
            pieces: self
                .pieces
                .iter()
                .map(|p| p.insert_dims(at, names.len()))
                .collect(),
            exact: self.exact,
        }
    }

    /// Fix dimension `dim` to `value` in every piece.
    pub fn fix_dim(&self, dim: usize, value: i64) -> Result<Set> {
        let mut pieces = Vec::new();
        for p in &self.pieces {
            let q = p.fix_dim(dim, value)?;
            if !q.is_marked_empty() {
                pieces.push(q);
            }
        }
        Ok(Set {
            space: self.space.clone(),
            pieces,
            exact: self.exact,
        })
    }

    /// Membership test for a concrete point and parameter values.
    pub fn contains(&self, dims: &[i64], params: &[i64]) -> bool {
        self.pieces.iter().any(|p| p.contains(dims, params))
    }

    /// Emptiness for concrete parameter values.
    pub fn is_empty_concrete(&self, params: &[i64]) -> Result<bool> {
        for p in &self.pieces {
            if !p.is_empty_concrete(params)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Provable emptiness for all parameters satisfying `context`
    /// (a polyhedron with zero set dimensions). Conservative: `false`
    /// means "could not prove empty".
    pub fn is_empty_symbolic(&self, context: &Polyhedron) -> Result<bool> {
        for p in &self.pieces {
            if !p.is_empty_symbolic(context)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Enumerate the distinct integer points of the union for concrete
    /// `params` (test helper — deduplicates across pieces).
    pub fn for_each_point(&self, params: &[i64], f: &mut dyn FnMut(&[i64])) -> Result<()> {
        let mut seen = std::collections::HashSet::new();
        for p in &self.pieces {
            p.for_each_point(params, &mut |pt| {
                if seen.insert(pt.to_vec()) {
                    f(pt);
                }
            })?;
        }
        Ok(())
    }

    /// Count distinct integer points (test helper).
    pub fn count_points(&self, params: &[i64]) -> u64 {
        let mut n = 0;
        self.for_each_point(params, &mut |_| n += 1)
            .expect("count_points requires a bounded set");
        n
    }

    /// All distinct points, sorted (test helper).
    pub fn points_sorted(&self, params: &[i64]) -> Vec<Vec<i64>> {
        let mut pts = Vec::new();
        self.for_each_point(params, &mut |p| pts.push(p.to_vec()))
            .expect("points_sorted requires a bounded set");
        pts.sort();
        pts
    }

    /// Names for rendering (dims then params).
    pub(crate) fn all_names(&self) -> Vec<String> {
        let mut v = self.space.dim_names().to_vec();
        v.extend(self.space.param_names().iter().cloned());
        v
    }
}

impl std::fmt::Display for Set {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = self.all_names();
        if !self.space.param_names().is_empty() {
            write!(f, "[{}] -> ", self.space.param_names().join(", "))?;
        }
        write!(f, "{{ [{}] : ", self.space.dim_names().join(", "))?;
        if self.pieces.is_empty() {
            write!(f, "false")?;
        } else {
            for (i, p) in self.pieces.iter().enumerate() {
                if i > 0 {
                    write!(f, " or ")?;
                }
                if self.pieces.len() > 1 {
                    write!(f, "({})", p.display_with(&names))?;
                } else {
                    write!(f, "{}", p.display_with(&names))?;
                }
            }
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_intersection_counts() {
        let a = Set::parse("{ [x] : 0 <= x and x <= 9 }").unwrap();
        let b = Set::parse("{ [x] : 5 <= x and x <= 14 }").unwrap();
        let u = a.union(&b).unwrap();
        let i = a.intersect(&b).unwrap();
        assert_eq!(a.count_points(&[]), 10);
        assert_eq!(b.count_points(&[]), 10);
        assert_eq!(u.count_points(&[]), 15);
        assert_eq!(i.count_points(&[]), 5);
    }

    #[test]
    fn union_deduplicates_points() {
        let a = Set::parse("{ [x] : 0 <= x and x <= 4 }").unwrap();
        let u = a.union(&a).unwrap();
        assert_eq!(u.count_points(&[]), 5);
    }

    #[test]
    fn projection_drops_dim_names() {
        let s = Set::parse("{ [y, x] : 0 <= y and y <= 3 and 0 <= x and x <= y }").unwrap();
        let proj = s.project_out_dims(1..2).unwrap();
        assert_eq!(proj.n_dims(), 1);
        assert_eq!(proj.space().dim_names(), &["y".to_string()]);
        assert_eq!(proj.count_points(&[]), 4);
        assert!(proj.is_exact());
    }

    #[test]
    fn parametric_membership() {
        let s = Set::parse("[n] -> { [x] : 0 <= x and x < n }").unwrap();
        assert!(s.contains(&[3], &[10]));
        assert!(!s.contains(&[3], &[3]));
        assert!(s.is_empty_concrete(&[0]).unwrap());
    }

    #[test]
    fn fix_dim_restricts() {
        let s = Set::parse("{ [y, x] : 0 <= y and y <= 2 and 0 <= x and x <= 2 }").unwrap();
        let row = s.fix_dim(0, 1).unwrap();
        assert_eq!(row.count_points(&[]), 3);
    }

    #[test]
    fn display_roundtrip_shape() {
        let s = Set::parse("[n] -> { [x] : 0 <= x and x < n }").unwrap();
        let text = s.to_string();
        let again = Set::parse(&text).unwrap();
        assert_eq!(again.count_points(&[6]), s.count_points(&[6]));
    }

    /// Is every point of `a` in `b`?
    fn is_subset(a: &Set, b: &Set) -> bool {
        let mut ok = true;
        a.for_each_point(&[], &mut |p| ok &= b.contains(p, &[]))
            .unwrap();
        ok
    }

    #[test]
    fn subset_check() {
        let small = Set::parse("{ [x] : 1 <= x and x <= 3 }").unwrap();
        let big = Set::parse("{ [x] : 0 <= x and x <= 9 }").unwrap();
        assert!(is_subset(&small, &big));
        assert!(!is_subset(&big, &small));
    }
}
