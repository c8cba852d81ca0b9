//! Fourier–Motzkin variable elimination with integer-exactness tracking.
//!
//! Eliminating a variable `v` from a conjunction of affine constraints:
//!
//! 1. If an **equality** mentions `v` with coefficient ±1, solve for `v`
//!    and substitute — exact over the integers.
//! 2. If an equality mentions `v` with coefficient `c`, `|c| > 1`, use it
//!    to cancel `v` from every other constraint. This is exact over the
//!    rationals; integer exactness requires a divisibility argument we do
//!    not track, so the result is flagged approximate. (Toolchain access
//!    maps have unit coefficients, so this path is cold.)
//! 3. Otherwise pair every lower bound `a·v + l >= 0` (`a > 0`) with every
//!    upper bound `-b·v + u >= 0` (`b > 0`) to produce `b·l + a·u >= 0`.
//!    The combination is exact over the integers when `a == 1 || b == 1`
//!    (the *real shadow* equals the *dark shadow*, cf. Pugh's Omega test).
//!
//! Results are normalized; trivially false results mark the system empty.

use crate::constraint::{Constraint, ConstraintKind, Normalized};
use crate::Result;

/// Eliminate the variable with coefficient index `var` from `constraints`
/// (each of width `width`). Returns the new constraints (width − 1, the
/// `var` column removed), whether the projection is integer-exact, and
/// whether the system was detected to be empty.
pub fn eliminate(
    constraints: &[Constraint],
    width: usize,
    var: usize,
    already_empty: bool,
) -> Result<(Vec<Constraint>, bool, bool)> {
    if already_empty {
        return Ok((Vec::new(), true, true));
    }
    debug_assert!(var < width);

    // Step 1/2: substitution through an equality.
    if let Some(pos) = constraints
        .iter()
        .position(|c| c.kind == ConstraintKind::Eq && c.expr.coeffs[var].abs() == 1)
    {
        let eq = &constraints[pos];
        let c = eq.expr.coeffs[var];
        // c*v + rest == 0  =>  v == -rest/c; with c = ±1: v = -c*rest.
        let mut rest = eq.expr.clone();
        rest.coeffs[var] = 0;
        let repl = rest.scale(-c)?;
        let mut out = Vec::with_capacity(constraints.len() - 1);
        let mut empty = false;
        for (i, other) in constraints.iter().enumerate() {
            if i == pos {
                continue;
            }
            let e = other.expr.substitute(var, &repl)?;
            push_normalized(
                &mut out,
                Constraint {
                    kind: other.kind,
                    expr: e.remove_var(var),
                },
                &mut empty,
            );
            if empty {
                return Ok((Vec::new(), true, true));
            }
        }
        return Ok((out, true, empty));
    }

    // Non-unit equality: rational cancellation (approximate).
    if let Some(pos) = constraints
        .iter()
        .position(|c| c.kind == ConstraintKind::Eq && c.expr.coeffs[var] != 0)
    {
        let eq = &constraints[pos];
        let c = eq.expr.coeffs[var];
        let mut out = Vec::with_capacity(constraints.len() - 1);
        let mut empty = false;
        for (i, other) in constraints.iter().enumerate() {
            if i == pos {
                continue;
            }
            let d = other.expr.coeffs[var];
            let combined = if d == 0 {
                other.expr.clone()
            } else {
                // |c|*other - sign(c)*d*eq cancels v.
                other.expr.combine(&eq.expr, c.abs(), -(c.signum() * d))?
            };
            debug_assert_eq!(combined.coeffs[var], 0);
            push_normalized(
                &mut out,
                Constraint {
                    kind: other.kind,
                    expr: combined.remove_var(var),
                },
                &mut empty,
            );
            if empty {
                return Ok((Vec::new(), false, true));
            }
        }
        return Ok((out, false, empty));
    }

    // Step 3: inequality combination.
    let mut lowers = Vec::new(); // a*v + l >= 0, a > 0
    let mut uppers = Vec::new(); // -b*v + u >= 0, b > 0
    let mut rest = Vec::new();
    for c in constraints {
        let a = c.expr.coeffs[var];
        if a == 0 {
            rest.push(c.clone());
        } else if a > 0 {
            lowers.push(c.clone());
        } else {
            uppers.push(c.clone());
        }
    }

    let mut exact = true;
    let mut empty = false;
    let mut out: Vec<Constraint> = Vec::with_capacity(rest.len() + lowers.len() * uppers.len());
    for c in rest {
        push_normalized(
            &mut out,
            Constraint {
                kind: c.kind,
                expr: c.expr.remove_var(var),
            },
            &mut empty,
        );
        if empty {
            return Ok((Vec::new(), true, true));
        }
    }
    for lo in &lowers {
        let a = lo.expr.coeffs[var];
        for up in &uppers {
            let b = -up.expr.coeffs[var];
            debug_assert!(a > 0 && b > 0);
            if a != 1 && b != 1 {
                exact = false;
            }
            // b*(a v + l) + a*(-b v + u) = b*l + a*u >= 0
            let combined = lo.expr.combine(&up.expr, b, a)?;
            debug_assert_eq!(combined.coeffs[var], 0);
            push_normalized(
                &mut out,
                Constraint::ge0(combined.remove_var(var)),
                &mut empty,
            );
            if empty {
                return Ok((Vec::new(), exact, true));
            }
        }
    }
    drop_redundant(&mut out);
    Ok((out, exact, empty))
}

/// Normalize and insert a constraint, updating the empty flag and skipping
/// duplicates / trivially true constraints.
fn push_normalized(out: &mut Vec<Constraint>, c: Constraint, empty: &mut bool) {
    match c.canonical() {
        Normalized::True => {}
        Normalized::False => *empty = true,
        Normalized::Constraint(c) => {
            if !out.contains(&c) {
                out.push(c);
            }
        }
    }
}

/// Remove inequalities that are strictly implied by another with identical
/// coefficients: of `e + k1 >= 0` and `e + k2 >= 0`, only the smaller `k`
/// matters.
fn drop_redundant(constraints: &mut Vec<Constraint>) {
    let mut keep = vec![true; constraints.len()];
    for i in 0..constraints.len() {
        if !keep[i] || constraints[i].kind != ConstraintKind::GeZero {
            continue;
        }
        for j in 0..constraints.len() {
            if i == j || !keep[j] || constraints[j].kind != ConstraintKind::GeZero {
                continue;
            }
            if constraints[i].expr.coeffs == constraints[j].expr.coeffs
                && constraints[i].expr.konst <= constraints[j].expr.konst
            {
                keep[j] = false;
            }
        }
    }
    let mut it = keep.iter();
    constraints.retain(|_| *it.next().unwrap());
}

/// Pick the variable whose elimination produces the fewest combined
/// constraints (classic FM heuristic): minimize `lowers * uppers`.
pub(crate) fn cheapest_var(constraints: &[Constraint], width: usize) -> usize {
    let mut best = 0usize;
    let mut best_cost = usize::MAX;
    for v in 0..width {
        let mut lo = 0usize;
        let mut hi = 0usize;
        let mut in_eq = false;
        for c in constraints {
            let a = c.expr.coeffs[v];
            if a == 0 {
                continue;
            }
            if c.kind == ConstraintKind::Eq {
                in_eq = true;
                break;
            }
            if a > 0 {
                lo += 1;
            } else {
                hi += 1;
            }
        }
        let cost = if in_eq { 0 } else { lo * hi };
        if cost < best_cost {
            best_cost = cost;
            best = v;
            if cost == 0 {
                break;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;

    fn ge(coeffs: Vec<i64>, k: i64) -> Constraint {
        Constraint::ge0(LinExpr { coeffs, konst: k })
    }
    fn eq(coeffs: Vec<i64>, k: i64) -> Constraint {
        Constraint::eq(LinExpr { coeffs, konst: k })
    }

    #[test]
    fn eliminate_with_unit_equality_is_exact() {
        // v0 == v1 + 2 and 0 <= v0 <= 5  --eliminate v0-->  -2 <= v1 <= 3
        let cs = vec![eq(vec![1, -1], -2), ge(vec![1, 0], 0), ge(vec![-1, 0], 5)];
        let (out, exact, empty) = eliminate(&cs, 2, 0, false).unwrap();
        assert!(exact);
        assert!(!empty);
        // v1 + 2 >= 0 and 3 - v1 >= 0
        assert!(out
            .iter()
            .any(|c| c.expr.coeffs == vec![1] && c.expr.konst == 2));
        assert!(out
            .iter()
            .any(|c| c.expr.coeffs == vec![-1] && c.expr.konst == 3));
    }

    #[test]
    fn eliminate_pairs_bounds() {
        // x >= y and x <= 4 --eliminate x--> y <= 4
        let cs = vec![ge(vec![1, -1], 0), ge(vec![-1, 0], 4)];
        let (out, exact, empty) = eliminate(&cs, 2, 0, false).unwrap();
        assert!(exact);
        assert!(!empty);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].expr.coeffs, vec![-1]);
        assert_eq!(out[0].expr.konst, 4);
    }

    #[test]
    fn detects_empty_after_elimination() {
        // x >= 5 and x <= 2 --eliminate x--> -3 >= 0: empty.
        let cs = vec![ge(vec![1], -5), ge(vec![-1], 2)];
        let (_, _, empty) = eliminate(&cs, 1, 0, false).unwrap();
        assert!(empty);
    }

    #[test]
    fn non_unit_coefficients_flag_inexact() {
        // 2x <= 7 and 3x >= 2: both coefficients non-unit.
        let cs = vec![ge(vec![-2], 7), ge(vec![3], -2)];
        let (_, exact, empty) = eliminate(&cs, 1, 0, false).unwrap();
        assert!(!exact);
        assert!(!empty);
    }

    #[test]
    fn unit_coefficient_on_one_side_stays_exact() {
        // x >= 0 (unit) and 2x <= n (non-unit): exact since one side is unit.
        let cs = vec![ge(vec![1, 0], 0), ge(vec![-2, 1], 0)];
        let (out, exact, _) = eliminate(&cs, 2, 0, false).unwrap();
        assert!(exact);
        // n >= 0 remains.
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn redundant_bounds_dropped() {
        let mut cs = vec![ge(vec![1], -2), ge(vec![1], -5), ge(vec![1], 0)];
        drop_redundant(&mut cs);
        // x - 5 >= 0 implies the others.
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].expr.konst, -5);
    }

    #[test]
    fn cheapest_var_prefers_equalities() {
        let cs = vec![eq(vec![0, 1], 0), ge(vec![1, 0], 0), ge(vec![-1, 0], 5)];
        assert_eq!(cheapest_var(&cs, 2), 1);
    }
}
