//! `Enumerator::build` as it ran before the loop nest was derived on one
//! FM matrix, kept as the differential oracle: every loop level projects
//! the previous level's polyhedron by one more dimension (constraints →
//! matrix → constraints each time), reads the bounds of its last
//! dimension, and widens them back to the full `[dims ++ params]` width.

use mekong_poly::{AstExpr, LinExpr, LoopSpec, PieceNest, PolyError, Polyhedron, Result, Set};

/// The per-piece nests of `set`, or the first piece's `Unbounded` error.
pub fn build(set: &Set) -> Result<Vec<PieceNest>> {
    let n = set.n_dims();
    let mut pieces = Vec::new();
    for p in set.pieces() {
        let nest = build_piece(p, n)?;
        if let Some(&dim) = open_dims(&nest).last() {
            return Err(PolyError::Unbounded { dim });
        }
        pieces.push(nest);
    }
    Ok(pieces)
}

fn build_piece(p: &Polyhedron, n: usize) -> Result<PieceNest> {
    let inner = p.bounds_of_last_dim();
    let guards = p
        .constraints()
        .iter()
        .filter(|c| c.expr.coeffs[n - 1] == 0)
        .cloned()
        .collect();
    let mut loops = Vec::new();
    let mut proj = p.clone();
    for k in (0..n - 1).rev() {
        proj = proj.project_out_dims(k + 1..k + 2)?.0;
        if proj.is_marked_empty() {
            loops.push(LoopSpec {
                dim: k,
                lb: AstExpr::Const(1),
                ub: AstExpr::Const(0),
            });
            continue;
        }
        let b = proj.bounds_of_last_dim();
        let widen = |bs: &[(LinExpr, i64)]| -> Vec<(LinExpr, i64)> {
            bs.iter()
                .map(|(e, d)| (e.insert_vars(k + 1, n - (k + 1)), *d))
                .collect()
        };
        loops.push(LoopSpec {
            dim: k,
            lb: bounds_to_expr(&widen(&b.lower), true),
            ub: bounds_to_expr(&widen(&b.upper), false),
        });
    }
    loops.reverse();
    Ok(PieceNest {
        loops,
        guards,
        row_lb: bounds_to_expr(&inner.lower, true),
        row_ub: bounds_to_expr(&inner.upper, false),
    })
}

/// The dimensions without a lower or an upper bound, outermost first.
fn open_dims(nest: &PieceNest) -> Vec<usize> {
    let open = |e: &AstExpr| matches!(e, AstExpr::Max(es) | AstExpr::Min(es) if es.is_empty());
    let loops = nest.loops.iter().map(|l| (&l.lb, &l.ub));
    loops
        .chain([(&nest.row_lb, &nest.row_ub)])
        .enumerate()
        .filter(|(_, (lb, ub))| open(lb) || open(ub))
        .map(|(dim, _)| dim)
        .collect()
}

fn bounds_to_expr(bounds: &[(LinExpr, i64)], lower: bool) -> AstExpr {
    let mut parts: Vec<AstExpr> = bounds
        .iter()
        .map(|(e, d)| AstExpr::Div {
            expr: e.clone(),
            divisor: *d,
            ceil: lower,
        })
        .collect();
    if parts.len() == 1 {
        parts.pop().unwrap()
    } else if lower {
        AstExpr::Max(parts)
    } else {
        AstExpr::Min(parts)
    }
}
