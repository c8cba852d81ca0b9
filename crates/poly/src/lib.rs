//! # mekong-poly — an integer set library for polyhedral compilation
//!
//! A from-scratch replacement for the subset of [isl] that the Mekong
//! toolchain needs (see the paper, §2.4 and §6): projection, emptiness,
//! injectivity and row scans, plus the set operations that build their
//! inputs. Nothing else of isl's surface is here — no subtraction,
//! coalescing, composition or reversal — because nothing in the
//! toolchain calls it. It provides:
//!
//! * [`LinExpr`] — affine expressions over named dimensions and parameters,
//! * [`Constraint`] — equalities and inequalities in Presburger-style form,
//! * [`Polyhedron`] — a single convex Z-polyhedron (conjunction of
//!   constraints),
//! * [`Set`] — a union of convex Z-polyhedra over a common [`Space`],
//! * [`Map`] — an integer relation `Z^n → Z^d`, stored as a set over the
//!   concatenated input/output space,
//! * Fourier–Motzkin elimination ([`fm`]) with integer tightening and
//!   exactness tracking,
//! * emptiness and injectivity tests,
//! * an isl-style **code generator** ([`codegen`]) that turns a set into an
//!   AST of loops, guards and closed-form affine expressions which scans the
//!   set row by row — the "enumerator" of the paper's §6.
//!
//! ## Exactness
//!
//! Fourier–Motzkin elimination over the rationals may over-approximate the
//! integer projection. Every operation that can lose integer precision
//! records this in the result's [`Set::is_exact`] flag. The toolchain uses
//! this the same way the paper does: read sets may be over-approximated,
//! write sets must be exact (§4).
//!
//! ## Example
//!
//! The sets from Figure 1 of the paper:
//!
//! ```
//! use mekong_poly::{Set, Map};
//! // S1 = { [y, x] : 0 <= y <= x and 0 <= x <= 4 }
//! let s1 = Set::parse("{ [y, x] : 0 <= y and y <= x and 0 <= x and x <= 4 }").unwrap();
//! // M = { [y, x] -> [y + 1, x + 3] }
//! let m = Map::parse("{ [y, x] -> [y1, x1] : y1 = y + 1 and x1 = x + 3 }").unwrap();
//! let s2 = m.image(&s1).unwrap();
//! assert_eq!(s1.count_points(&[]), 15);
//! assert_eq!(s2.count_points(&[]), 15);
//! let u = s1.union(&s2).unwrap();
//! // |S1 ∪ S2| = |S1| + |S2| - |S1 ∩ S2|
//! assert_eq!(u.count_points(&[]), s1.count_points(&[]) + s2.count_points(&[])
//!     - s1.intersect(&s2).unwrap().count_points(&[]));
//! ```
//!
//! [isl]: https://libisl.sourceforge.io/

pub mod codegen;
pub mod constraint;
pub mod expr;
pub mod fm;
pub mod map;
pub mod parse;
pub mod polyhedron;
pub mod set;
pub mod space;

pub use codegen::{AstExpr, Enumerator, LoopSpec, PieceNest, RowRange, RowRun};
pub use constraint::{Constraint, ConstraintKind};
pub use expr::LinExpr;
pub use map::Map;
pub use polyhedron::Polyhedron;
pub use set::Set;
pub use space::Space;

/// Errors produced by polyhedral operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolyError {
    /// Two operands live in incompatible spaces.
    SpaceMismatch {
        expected: (usize, usize),
        got: (usize, usize),
    },
    /// Integer overflow while combining constraints.
    Overflow,
    /// Parse error with message.
    Parse(String),
    /// A dimension index was out of range.
    DimOutOfRange { index: usize, n_dims: usize },
    /// A set dimension has no finite lower or upper bound, so the set
    /// cannot be scanned by generated code.
    Unbounded { dim: usize },
}

impl std::fmt::Display for PolyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolyError::SpaceMismatch { expected, got } => write!(
                f,
                "space mismatch: expected {}d/{}p, got {}d/{}p",
                expected.0, expected.1, got.0, got.1
            ),
            PolyError::Overflow => write!(f, "integer overflow in constraint arithmetic"),
            PolyError::Parse(m) => write!(f, "parse error: {m}"),
            PolyError::DimOutOfRange { index, n_dims } => {
                write!(f, "dimension {index} out of range (set has {n_dims} dims)")
            }
            PolyError::Unbounded { dim } => {
                write!(
                    f,
                    "set dimension {dim} is unbounded; cannot generate a scan"
                )
            }
        }
    }
}

impl std::error::Error for PolyError {}

/// Result alias for fallible polyhedral operations.
pub type Result<T> = std::result::Result<T, PolyError>;
