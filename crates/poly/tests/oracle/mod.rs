//! The row-by-row interpreter `Enumerator::for_each_row` used before the
//! scan was specialised per parameter vector, kept as the differential
//! oracle: every loop runs to its end, every guard is re-checked at every
//! row as a full-width dot product, every bound goes through
//! `AstExpr::eval`. Shared with `crates/workloads/tests/range_identity.rs`.

use mekong_poly::{Enumerator, PieceNest};

/// Invoke `f(prefix, lo, hi)` once per row range, piece by piece.
pub fn for_each_row(e: &Enumerator, params: &[i64], f: &mut dyn FnMut(&[i64], i64, i64)) {
    assert_eq!(params.len(), e.n_params(), "parameter count mismatch");
    // values = [dims..., params...]; dims filled during the scan.
    let mut values = vec![0i64; e.n_dims() + e.n_params()];
    values[e.n_dims()..].copy_from_slice(params);
    for piece in e.pieces() {
        scan_piece(piece, e.n_dims(), &mut values, 0, f);
    }
}

fn scan_piece(
    piece: &PieceNest,
    n_dims: usize,
    values: &mut Vec<i64>,
    level: usize,
    f: &mut dyn FnMut(&[i64], i64, i64),
) {
    if level == piece.loops.len() {
        for g in &piece.guards {
            if !g.holds(values) {
                return;
            }
        }
        let lo = piece.row_lb.eval(values);
        let hi = piece.row_ub.eval(values);
        if lo <= hi {
            f(&values[..n_dims - 1], lo, hi);
        }
        return;
    }
    let l = &piece.loops[level];
    let lb = l.lb.eval(values);
    let ub = l.ub.eval(values);
    for v in lb..=ub {
        values[l.dim] = v;
        scan_piece(piece, n_dims, values, level + 1, f);
    }
}
