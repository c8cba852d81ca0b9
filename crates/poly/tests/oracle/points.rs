//! The point scan `Polyhedron::for_each_point` used before its loop nest
//! was derived once, kept as the differential oracle: at **every node** of
//! the scan it clones the polyhedron, fixes the prefix and re-runs
//! Fourier–Motzkin over all deeper dimensions to bound the next one.

use mekong_poly::expr::{cdiv, fdiv};
use mekong_poly::polyhedron::DimBounds;
use mekong_poly::{PolyError, Polyhedron};

/// Invoke `f` for every integer point of `p` under `params`, in
/// lexicographic order. A dimension without a lower or an upper bound is
/// an error when the scan first gets to it.
pub fn for_each_point(
    p: &Polyhedron,
    params: &[i64],
    f: &mut dyn FnMut(&[i64]),
) -> Result<(), PolyError> {
    let bound = p.bind_params(params)?;
    if bound.is_marked_empty() {
        return Ok(());
    }
    let mut point = vec![0i64; p.n_dims()];
    scan_rec(&bound, 0, &mut point, f)
}

fn scan_rec(
    bound: &Polyhedron,
    depth: usize,
    point: &mut Vec<i64>,
    f: &mut dyn FnMut(&[i64]),
) -> Result<(), PolyError> {
    if depth == bound.n_dims() {
        f(point);
        return Ok(());
    }
    // Project away dims > depth, then bound dim `depth` given the fixed
    // prefix.
    let mut p = bound.clone();
    for (i, &v) in point[..depth].iter().enumerate() {
        p = p.fix_dim(i, v)?;
    }
    let (proj, _) = p.project_out_dims(depth + 1..bound.n_dims())?;
    if proj.is_marked_empty() {
        return Ok(());
    }
    let b = proj.bounds_of_last_dim();
    let Some((lo, hi)) = concrete_range(&b, &point[..depth]) else {
        return Err(PolyError::Unbounded { dim: depth });
    };
    for v in lo..=hi {
        point[depth] = v;
        scan_rec(bound, depth + 1, point, f)?;
    }
    Ok(())
}

/// The `[lo, hi]` the bounds of a dimension evaluate to given the values
/// of the dimensions before it (empty if `lo > hi`); `None` if a side is
/// unbounded.
fn concrete_range(b: &DimBounds, prefix: &[i64]) -> Option<(i64, i64)> {
    if b.lower.is_empty() || b.upper.is_empty() {
        return None;
    }
    let mut values = prefix.to_vec();
    values.push(0); // placeholder for the bounded dim itself
    let mut lo = i64::MIN;
    for (e, d) in &b.lower {
        let v = cdiv(e.eval(&values), *d as i128);
        lo = lo.max(i64::try_from(v).ok()?);
    }
    let mut hi = i64::MAX;
    for (e, d) in &b.upper {
        let v = fdiv(e.eval(&values), *d as i128);
        hi = hi.min(i64::try_from(v).ok()?);
    }
    Some((lo, hi))
}
