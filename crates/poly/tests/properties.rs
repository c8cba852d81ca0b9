//! Property-based tests for the polyhedral library.
//!
//! Strategy: generate random bounded convex polyhedra (a bounding box plus
//! random affine cuts) and check the algebraic laws that the toolchain
//! relies on — soundness of projection, exactness of enumeration,
//! consistency of union/intersection, and membership coherence — and,
//! for the enumerator, identity of the specialised scan with the
//! row-by-row interpreter it replaced ([`oracle`]) — and, for the point
//! scan built on the same nest, identity with the per-node-projection scan
//! it replaced ([`point_oracle`]) — and, for Fourier–Motzkin elimination,
//! identity of the flat matrix engine with the per-constraint elimination
//! it replaced ([`fm_oracle`]) — and, for the enumerator build, identity
//! of the loop nests derived on one matrix with the per-level projections
//! they replaced ([`nest_oracle`]).

#[path = "oracle/fm.rs"]
mod fm_oracle;
#[path = "oracle/nest.rs"]
mod nest_oracle;
mod oracle;
#[path = "oracle/points.rs"]
mod point_oracle;

use mekong_poly::{
    fm, Constraint, ConstraintKind, Enumerator, LinExpr, PolyError, Polyhedron, Set, Space,
};
use proptest::prelude::*;

const BOX: i64 = 6;

/// A random affine constraint over `n` dims with small coefficients.
fn arb_cut(n: usize) -> impl Strategy<Value = Constraint> {
    (
        proptest::collection::vec(-2i64..=2, n),
        -(2 * BOX)..=(2 * BOX),
    )
        .prop_map(move |(coeffs, k)| Constraint::ge0(LinExpr { coeffs, konst: k }))
}

/// A random bounded convex polyhedron: `0 <= d_i <= BOX` plus up to 3 cuts.
fn arb_poly(n: usize) -> impl Strategy<Value = Polyhedron> {
    proptest::collection::vec(arb_cut(n), 0..=3).prop_map(move |cuts| {
        let mut p = Polyhedron::universe(n, 0);
        for d in 0..n {
            let v = LinExpr::var(n, d);
            p.add_constraint(Constraint::ge0(v.clone()));
            p.add_constraint(Constraint::le(&v, &LinExpr::constant(n, BOX)).unwrap());
        }
        for c in cuts {
            p.add_constraint(c);
        }
        p
    })
}

fn arb_set(n: usize) -> impl Strategy<Value = Set> {
    proptest::collection::vec(arb_poly(n), 1..=2)
        .prop_map(move |pieces| Set::from_pieces(Space::anonymous(n, 0), pieces))
}

fn points(s: &Set) -> Vec<Vec<i64>> {
    s.points_sorted(&[])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Projection must contain the projection of every point (soundness).
    #[test]
    fn projection_is_sound(p in arb_poly(3)) {
        let space = Space::anonymous(3, 0);
        let s = Set::from_polyhedron(space, p);
        let proj = s.project_out_dims(2..3).unwrap();
        let mut ok = true;
        s.for_each_point(&[], &mut |pt| {
            if !proj.contains(&pt[..2], &[]) {
                ok = false;
            }
        }).unwrap();
        prop_assert!(ok, "projection lost a point");
    }

    /// When the projection reports exactness, it contains exactly the
    /// projected points.
    #[test]
    fn exact_projection_is_tight(p in arb_poly(2)) {
        let space = Space::anonymous(2, 0);
        let s = Set::from_polyhedron(space, p);
        let proj = s.project_out_dims(1..2).unwrap();
        if proj.is_exact() {
            let mut shadow: Vec<i64> = Vec::new();
            s.for_each_point(&[], &mut |pt| shadow.push(pt[0])).unwrap();
            shadow.sort();
            shadow.dedup();
            let got: Vec<i64> = proj.points_sorted(&[]).into_iter().map(|p| p[0]).collect();
            prop_assert_eq!(got, shadow);
        }
    }

    /// Union contains both operands; intersection is contained in both.
    #[test]
    fn union_intersection_lattice(a in arb_set(2), b in arb_set(2)) {
        let u = a.union(&b).unwrap();
        let i = a.intersect(&b).unwrap();
        for pt in points(&a) {
            prop_assert!(u.contains(&pt, &[]));
        }
        for pt in points(&b) {
            prop_assert!(u.contains(&pt, &[]));
        }
        for pt in points(&i) {
            prop_assert!(a.contains(&pt, &[]) && b.contains(&pt, &[]));
        }
        // inclusion-exclusion on counts
        prop_assert_eq!(
            u.count_points(&[]) + i.count_points(&[]),
            a.count_points(&[]) + b.count_points(&[])
        );
    }

    /// The enumerator emits exactly the points of the set.
    #[test]
    fn enumerator_matches_bruteforce(s in arb_set(2)) {
        let e = Enumerator::build(&s).unwrap();
        let mut got = Vec::new();
        for r in e.rows_merged(&[]) {
            for x in r.lo..=r.hi {
                let mut pt = r.prefix.clone();
                pt.push(x);
                got.push(pt);
            }
        }
        got.sort();
        got.dedup();
        prop_assert_eq!(got, points(&s));
    }

    /// Enumerator row ranges never overlap after merging (per prefix).
    #[test]
    fn merged_rows_are_disjoint(s in arb_set(2)) {
        let e = Enumerator::build(&s).unwrap();
        let rows = e.rows_merged(&[]);
        for w in rows.windows(2) {
            if w[0].prefix == w[1].prefix {
                prop_assert!(w[0].hi + 1 < w[1].lo, "rows {:?} and {:?} touch", w[0], w[1]);
            }
        }
    }

    /// `contains` agrees with enumeration over the bounding box.
    #[test]
    fn contains_agrees_with_enumeration(p in arb_poly(2)) {
        let space = Space::anonymous(2, 0);
        let s = Set::from_polyhedron(space, p);
        let pts = points(&s);
        for d0 in -1..=BOX + 1 {
            for d1 in -1..=BOX + 1 {
                let inside = s.contains(&[d0, d1], &[]);
                prop_assert_eq!(inside, pts.contains(&vec![d0, d1]));
            }
        }
    }

    /// Emptiness check agrees with point enumeration.
    #[test]
    fn emptiness_agrees(p in arb_poly(3)) {
        let empty = p.is_empty_concrete(&[]).unwrap();
        let n = {
            let mut n = 0u64;
            p.for_each_point(&[], &mut |_| n += 1).unwrap();
            n
        };
        if empty {
            prop_assert_eq!(n, 0, "claimed empty but has points");
        }
        // `!empty` may be conservative only when FM was inexact; with
        // coefficients in [-2, 2] a false "non-empty" can occur, so we only
        // check the sound direction above.
    }

    /// fix_dim slices the set like point filtering does.
    #[test]
    fn fix_dim_is_slice(s in arb_set(2), v in 0..=BOX) {
        let sliced = s.fix_dim(0, v).unwrap();
        let expected: Vec<Vec<i64>> = points(&s)
            .into_iter()
            .filter(|p| p[0] == v)
            .collect();
        prop_assert_eq!(points(&sliced), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Translating a set by (a, b) preserves its cardinality (Figure 1).
    #[test]
    fn translation_preserves_count(s in arb_set(2), a in -3i64..=3, b in -3i64..=3) {
        let m = mekong_poly::Map::parse(&format!(
            "{{ [y, x] -> [y1, x1] : y1 = y + {a} and x1 = x + {b} }}"
        )).unwrap();
        // Rename: our arb_set uses anonymous names, parse uses y/x; shapes
        // are compatible (names are documentation only).
        let img = m.image(&s).unwrap();
        prop_assert_eq!(img.count_points(&[]), s.count_points(&[]));
    }
}

const N_PARAMS: usize = 2;

/// A random constraint over `n` dims and [`N_PARAMS`] parameters with
/// coefficients in `[-3, 3]` (so bounds get non-unit divisors): one in
/// five is an equality, one in four mentions no dimension at all and
/// becomes a parameter-only guard.
fn arb_param_cut(n: usize) -> impl Strategy<Value = Constraint> {
    (
        proptest::collection::vec(-3i64..=3, n + N_PARAMS),
        -(2 * BOX)..=(2 * BOX),
        0u8..20,
    )
        .prop_map(move |(mut coeffs, konst, shape)| {
            if shape % 4 == 0 {
                coeffs[..n].fill(0);
            }
            let expr = LinExpr { coeffs, konst };
            if shape >= 16 {
                Constraint::eq(expr)
            } else {
                Constraint::ge0(expr)
            }
        })
}

/// A parametric piece: `0 <= d_i <= BOX` plus up to four
/// [`arb_param_cut`]s. Unless `boxed`, one piece in three has one side of
/// one dimension's box left out, so that dimension is bounded only if a
/// cut happens to bound it.
fn arb_param_piece(n: usize, boxed: bool) -> impl Strategy<Value = Polyhedron> {
    let cuts = proptest::collection::vec(arb_param_cut(n), 0..=4);
    (cuts, 0..6 * n).prop_map(move |(cuts, side)| {
        // Side 2d is the lower bound of dimension d, side 2d + 1 the upper.
        let left_out = |s| !boxed && s == side;
        let w = n + N_PARAMS;
        let mut p = Polyhedron::universe(n, N_PARAMS);
        for d in 0..n {
            let v = LinExpr::var(w, d);
            if !left_out(2 * d) {
                p.add_constraint(Constraint::ge0(v.clone()));
            }
            if !left_out(2 * d + 1) {
                p.add_constraint(Constraint::le(&v, &LinExpr::constant(w, BOX)).unwrap());
            }
        }
        for c in cuts {
            p.add_constraint(c);
        }
        p
    })
}

/// A union of up to three boxed parametric pieces.
fn arb_param_set(n: usize) -> impl Strategy<Value = Set> {
    proptest::collection::vec(arb_param_piece(n, true), 1..=3)
        .prop_map(move |pieces| Set::from_pieces(Space::anonymous(n, N_PARAMS), pieces))
}

type Rows = Vec<(Vec<i64>, i64, i64)>;

/// The rows of the specialised scan and of the oracle, in emission order.
fn scan_rows(e: &Enumerator, params: &[i64]) -> (Rows, Rows) {
    let (mut new, mut old) = (Rows::new(), Rows::new());
    e.for_each_row(params, &mut |prefix, lo, hi| {
        new.push((prefix.to_vec(), lo, hi))
    });
    oracle::for_each_row(e, params, &mut |prefix, lo, hi| {
        old.push((prefix.to_vec(), lo, hi))
    });
    (new, old)
}

proptest! {
    /// The specialised scan emits exactly the oracle's rows, in its order:
    /// pieces killed by a parameter-only guard, empty loops, equality
    /// guards and non-unit divisors included.
    #[test]
    fn specialised_scan_matches_interpreter(
        s in prop_oneof![arb_param_set(1), arb_param_set(2), arb_param_set(3)],
        params in proptest::collection::vec(-4i64..=8, N_PARAMS),
    ) {
        let e = Enumerator::build(&s).unwrap();
        let (new, old) = scan_rows(&e, &params);
        prop_assert_eq!(new, old);
    }
}

type Points = Result<Vec<Vec<i64>>, PolyError>;

/// The points of the generated-nest scan and of the oracle, in visiting
/// order, or the error either stopped with.
fn scan_points(p: &Polyhedron, params: &[i64]) -> (Points, Points) {
    let (mut new, mut old) = (Vec::new(), Vec::new());
    let new_end = p.for_each_point(params, &mut |pt| new.push(pt.to_vec()));
    let old_end = point_oracle::for_each_point(p, params, &mut |pt| old.push(pt.to_vec()));
    (new_end.map(|()| new), old_end.map(|()| old))
}

proptest! {
    /// The point scan on the nest derived once visits exactly the oracle's
    /// points, in its order — equalities, non-unit divisors, parameter-only
    /// guards and empty loops included — and the first point is the first
    /// of the full scan. One piece in three has a side of its box left out:
    /// an unbounded dimension is the oracle's error if the scan gets to it
    /// and no error if an empty loop around it keeps the scan away.
    #[test]
    fn point_scan_matches_per_node_projection(
        p in prop_oneof![
            arb_param_piece(1, false),
            arb_param_piece(2, false),
            arb_param_piece(3, false),
            arb_param_piece(4, false),
        ],
        params in proptest::collection::vec(-4i64..=8, N_PARAMS),
    ) {
        let (new, old) = scan_points(&p, &params);
        prop_assert_eq!(&new, &old);
        let first = p.first_point(&params);
        prop_assert_eq!(first, new.map(|pts| pts.into_iter().next()));
    }
}

proptest! {
    /// The nests derived on one matrix are the oracle's, field for field:
    /// loops, guards and row bounds, the impossible loops of a piece found
    /// empty, and the `Unbounded` error of a piece with a side left open.
    #[test]
    fn nest_matches_per_level_projection(
        pieces in prop_oneof![
            proptest::collection::vec(arb_param_piece(1, false), 1..=3),
            proptest::collection::vec(arb_param_piece(2, false), 1..=3),
            proptest::collection::vec(arb_param_piece(3, false), 1..=3),
            proptest::collection::vec(arb_param_piece(4, false), 1..=3),
        ],
    ) {
        let n = pieces[0].n_dims();
        let s = Set::from_pieces(Space::anonymous(n, N_PARAMS), pieces);
        let new = Enumerator::build(&s).map(|e| e.pieces().to_vec());
        prop_assert_eq!(new, nest_oracle::build(&s));
    }
}

/// Coefficients and a parameter around 2^40: every guard and bound is a
/// sum of products near 2^80, which only `i128` accumulation gets right
/// (the low 64 bits of `A·p` are negative as an `i64`).
#[test]
fn specialised_scan_keeps_i128_accumulation() {
    const A: i64 = (1 << 40) + 1;
    const B: i64 = 1 << 40;
    let p: i64 = (1 << 40) + (1 << 23);
    assert!(((A as i128 * p as i128) as i64) < 0);
    // [p] -> { [y, x] : 0 <= y <= 2 and A·p + B·y >= 1
    //                   and y <= x and A·x <= B·p + y + 3A }
    let ge0 = |y, x, p, konst| {
        Constraint::ge0(LinExpr {
            coeffs: vec![y, x, p],
            konst,
        })
    };
    let mut piece = Polyhedron::universe(2, 1);
    for c in [
        ge0(1, 0, 0, 0),
        ge0(-1, 0, 0, 2),
        ge0(B, 0, A, -1),
        ge0(-1, 1, 0, 0),
        ge0(1, -A, B, 3 * A),
    ] {
        piece.add_constraint(c);
    }
    let e = Enumerator::build(&Set::from_polyhedron(Space::anonymous(2, 1), piece)).unwrap();
    let (new, old) = scan_rows(&e, &[p]);
    let expected: Rows = (0..=2i64)
        .map(|y| {
            let hi = (B as i128 * p as i128 + y as i128 + 3 * A as i128).div_euclid(A as i128);
            (vec![y], y, hi as i64)
        })
        .collect();
    assert_eq!(new, expected);
    assert_eq!(old, expected);
}

/// A literal near ±2⁶²: one more combination with it overflows.
fn arb_fm_huge() -> impl Strategy<Value = i64> {
    (-4i64..=4, proptest::bool::ANY).prop_map(|(jitter, negative)| {
        let huge = (1i64 << 62) + jitter;
        if negative {
            -huge
        } else {
            huge
        }
    })
}

/// A coefficient of a random FM system: small (unit, non-unit or zero)
/// but for one in 150, [`arb_fm_huge`].
fn arb_fm_coeff() -> impl Strategy<Value = i64> {
    (0u16..150, -3i64..=3, arb_fm_huge())
        .prop_map(|(pick, small, huge)| if pick == 0 { huge } else { small })
}

const FM_MAX_WIDTH: usize = 24;

/// The most bounds one step of a random elimination chain may pair.
const FM_CHAIN_PAIRS: usize = 16;

/// A raw (unnormalised) constraint of a random FM system, as one to four
/// `(column, coefficient)` terms (columns taken modulo the width), a
/// constant and a kind: one in six an equality, one in a hundred with an
/// [`arb_fm_huge`] constant. Sparse, as access-map constraints are, so
/// that eliminating every column stays affordable.
type FmRow = (Vec<(usize, i64)>, i64, bool);

fn arb_fm_row() -> impl Strategy<Value = FmRow> {
    (
        proptest::collection::vec((0..FM_MAX_WIDTH, arb_fm_coeff()), 1..=4),
        -6i64..=12,
        arb_fm_huge(),
        0u8..100,
    )
        .prop_map(|(terms, small, huge, shape)| {
            let konst = if shape == 1 { huge } else { small };
            (terms, konst, shape % 6 == 0)
        })
}

/// `row` as a constraint of width `w` (a constant one if `w` is 0).
fn fm_constraint((terms, konst, is_eq): &FmRow, w: usize) -> Constraint {
    let mut coeffs = vec![0; w];
    for &(col, c) in terms.iter().filter(|_| w > 0) {
        coeffs[col % w] = c;
    }
    let expr = LinExpr {
        coeffs,
        konst: *konst,
    };
    if *is_eq {
        Constraint::eq(expr)
    } else {
        Constraint::ge0(expr)
    }
}

/// A random system: width 1–24, up to 30 raw constraints, and how many of
/// its columns (at most three) are parameters.
fn arb_fm_system() -> impl Strategy<Value = (usize, Vec<Constraint>, usize)> {
    (
        1..=FM_MAX_WIDTH,
        proptest::collection::vec(arb_fm_row(), 0..=30),
        0usize..=3,
    )
        .prop_map(|(w, rows, np)| {
            let cs = rows.iter().map(|r| fm_constraint(r, w)).collect();
            (w, cs, np.min(w))
        })
}

/// `cs`, over the columns `cols` of a system `w` wide, at full width: the
/// other columns zero, as the flat matrix leaves eliminated columns.
fn widen(cs: &[Constraint], cols: &[usize], w: usize) -> Vec<Constraint> {
    let widen_one = |c: &Constraint| {
        let mut coeffs = vec![0; w];
        for (&col, &a) in cols.iter().zip(&c.expr.coeffs) {
            coeffs[col] = a;
        }
        let expr = LinExpr {
            coeffs,
            konst: c.expr.konst,
        };
        Constraint { kind: c.kind, expr }
    };
    cs.iter().map(widen_one).collect()
}

proptest! {
    /// The flat matrix eliminates every column exactly as the oracle does:
    /// the same constraints in the same order, the same exactness and
    /// emptiness flags, the same `Overflow`. So does every prefix of a
    /// chain of eliminations on one matrix in a random column order: its
    /// steps after the first start from canonical rows, irredundant after
    /// pairing bounds and possibly redundant after a substitution.
    /// Projections of a dimension range and both emptiness tests agree as
    /// well.
    #[test]
    fn flat_fm_matches_oracle(
        system in arb_fm_system(),
        order in proptest::collection::vec(0..FM_MAX_WIDTH, 0..=FM_MAX_WIDTH),
        range in (0..FM_MAX_WIDTH, 0..FM_MAX_WIDTH),
        params in proptest::collection::vec(-4i64..=8, 3),
        ctx in proptest::collection::vec(arb_fm_row(), 0..=3),
    ) {
        let (w, cs, np) = system;
        for var in 0..w {
            let mut cols: Vec<usize> = (0..w).collect();
            cols.remove(var);
            let old = fm_oracle::eliminate(&cs, w, var, false);
            prop_assert_eq!(
                fm::eliminate(&cs, w, &[var]),
                old.map(|(out, exact, empty)| (widen(&out, &cols, w), exact, empty)),
                "eliminating column {}", var
            );
        }

        // The chain eliminates each column the first time `order` names it
        // (modulo the width), and stops before a step that would pair more
        // than `FM_CHAIN_PAIRS` bounds: a random order can blow a system up
        // step after step. The oracle's chain keeps one narrower system per
        // step; `cols` maps its columns back to the original ones.
        let mut chain = Vec::new();
        for c in order.into_iter().map(|c| c % w) {
            if !chain.contains(&c) {
                chain.push(c);
            }
        }
        let mut cols: Vec<usize> = (0..w).collect();
        let (mut old, mut exact, mut empty) = (cs.clone(), true, false);
        for (step, &var) in chain.iter().enumerate() {
            let at = cols.iter().position(|&c| c == var).unwrap();
            let bounds = |lower: bool| {
                let on_side = |c: &&Constraint| {
                    let a = c.expr.coeffs[at];
                    c.kind == ConstraintKind::GeZero && a != 0 && (a > 0) == lower
                };
                old.iter().filter(on_side).count()
            };
            if bounds(true) * bounds(false) > FM_CHAIN_PAIRS {
                break;
            }
            let new = fm::eliminate(&cs, w, &chain[..=step]);
            let next = match fm_oracle::eliminate(&old, cols.len(), at, empty) {
                Ok(next) => next,
                Err(e) => {
                    prop_assert_eq!(new, Err(e), "chain {:?}", &chain[..=step]);
                    break;
                }
            };
            cols.remove(at);
            (old, exact, empty) = (next.0, exact && next.1, next.2);
            prop_assert_eq!(
                new,
                Ok((widen(&old, &cols, w), exact, empty)),
                "chain {:?}", &chain[..=step]
            );
        }

        let n = w - np;
        let mut p = Polyhedron::universe(n, np);
        for c in &cs {
            p.add_constraint(c.clone());
        }
        let (a, b) = (range.0 % (n + 1), range.1 % (n + 1));
        let range = a.min(b)..a.max(b);
        prop_assert_eq!(
            p.project_out_dims(range.clone()),
            fm_oracle::project_out_dims(&p, range)
        );

        let params = &params[..np];
        prop_assert_eq!(
            p.is_empty_concrete(params),
            fm_oracle::is_empty_concrete(&p, params)
        );
        let mut context = Polyhedron::universe(0, np);
        for r in &ctx {
            context.add_constraint(fm_constraint(r, np));
        }
        prop_assert_eq!(
            p.is_empty_symbolic(&context),
            fm_oracle::is_empty_symbolic(&p, &context)
        );
    }
}
