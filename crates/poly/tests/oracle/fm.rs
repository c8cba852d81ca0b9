//! Fourier–Motzkin elimination as it ran before the flat matrix, kept as
//! the differential oracle: every step clones constraints into a fresh
//! `Vec<Constraint>`, normalises each through its own copy of the old
//! `Constraint::normalize`/`canonical`, dedupes with `Vec::contains`, and
//! the projection and emptiness loops re-add every result to a new
//! polyhedron. The flat engine must agree with it bit for bit: the same
//! constraints in the same order, the same exactness and emptiness flags,
//! the same errors.

use mekong_poly::constraint::Normalized;
use mekong_poly::{Constraint, ConstraintKind, LinExpr, Polyhedron, Result};

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
    match canonical(&c) {
        Normalized::True => {}
        Normalized::False => *empty = true,
        Normalized::Constraint(c) => {
            if !out.contains(&c) {
                out.push(c);
            }
        }
    }
}

/// The old `Constraint::normalize`: divide by the gcd of the coefficients,
/// tighten the constant for inequalities, detect trivially true/false
/// constraints.
fn normalize(c: &Constraint) -> Normalized {
    let g = c
        .expr
        .coeffs
        .iter()
        .fold(0u64, |g, &x| gcd(g, x.unsigned_abs())) as i64;
    if g == 0 {
        let k = c.expr.konst;
        let sat = match c.kind {
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
        return Normalized::Constraint(c.clone());
    }
    let k = c.expr.konst;
    let mut e = c.expr.clone();
    for x in &mut e.coeffs {
        *x /= g;
    }
    match c.kind {
        ConstraintKind::Eq => {
            if k % g != 0 {
                return Normalized::False;
            }
            e.konst = k / g;
            Normalized::Constraint(Constraint::eq(e))
        }
        ConstraintKind::GeZero => {
            e.konst = k.div_euclid(g);
            Normalized::Constraint(Constraint::ge0(e))
        }
    }
}

/// The old `Constraint::canonical`: normalized and, for equalities,
/// sign-canonical (first nonzero coefficient positive).
fn canonical(c: &Constraint) -> Normalized {
    match normalize(c) {
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

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
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
fn cheapest_var(constraints: &[Constraint], width: usize) -> usize {
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

/// The old `Polyhedron::project_out_dims`: one `eliminate` per dimension,
/// highest first, each result re-added to a fresh polyhedron.
pub fn project_out_dims(
    p: &Polyhedron,
    range: std::ops::Range<usize>,
) -> Result<(Polyhedron, bool)> {
    let mut p = p.clone();
    let mut exact = true;
    for d in range.rev() {
        if d >= p.n_dims() {
            return Err(mekong_poly::PolyError::DimOutOfRange {
                index: d,
                n_dims: p.n_dims(),
            });
        }
        let (constraints, e, empty) =
            eliminate(p.constraints(), p.width(), d, p.is_marked_empty())?;
        let mut q = if empty {
            Polyhedron::empty(p.n_dims() - 1, p.n_params())
        } else {
            Polyhedron::universe(p.n_dims() - 1, p.n_params())
        };
        for c in constraints {
            q.add_constraint(c);
        }
        p = q;
        exact &= e;
    }
    Ok((p, exact))
}

/// The old emptiness loop: eliminate the cheapest variable until none is
/// left or a contradiction appears.
fn is_empty_all_vars(p: &Polyhedron) -> Result<bool> {
    if p.is_marked_empty() {
        return Ok(true);
    }
    let mut constraints = p.constraints().to_vec();
    let mut width = p.width();
    while width > 0 {
        let var = cheapest_var(&constraints, width);
        let (next, _exact, empty) = eliminate(&constraints, width, var, false)?;
        if empty {
            return Ok(true);
        }
        constraints = next;
        width -= 1;
    }
    Ok(false)
}

/// The old `Polyhedron::is_empty_concrete`.
pub fn is_empty_concrete(p: &Polyhedron, params: &[i64]) -> Result<bool> {
    is_empty_all_vars(&p.bind_params(params)?)
}

/// The old `Polyhedron::is_empty_symbolic`: the context's constraints are
/// added to a clone, then everything is eliminated.
pub fn is_empty_symbolic(p: &Polyhedron, context: &Polyhedron) -> Result<bool> {
    if p.is_marked_empty() {
        return Ok(true);
    }
    let mut q = p.clone();
    for c in context.constraints() {
        let mut coeffs = vec![0i64; p.width()];
        coeffs[p.n_dims()..].copy_from_slice(&c.expr.coeffs);
        q.add_constraint(Constraint {
            kind: c.kind,
            expr: LinExpr {
                coeffs,
                konst: c.expr.konst,
            },
        });
    }
    is_empty_all_vars(&q)
}
