//! Cross-partition race detection with concrete witness extraction.
//!
//! The symbolic side reuses [`mekong_analysis::is_block_injective`]: for a
//! split axis `s`, two blocks in different partitions differ along `s`,
//! so the write images of two partitions are disjoint iff the pair
//! system
//!
//! ```text
//! A(bo, bi, y) ∧ B(bo', bi', y) ∧ bo'_s ≥ bo_s + bd_s ∧ bi'_s ≥ bi_s + 1
//! ```
//!
//! is empty for all parameters with `blockDim, gridDim ≥ 1` (emptiness
//! via Fourier–Motzkin projection in `mekong_poly`). When the proof
//! fails, this module *concretizes* the same system
//! ([`mekong_analysis::split_pair_system`]) — binding small
//! block/grid dims and scalar values, adding the now-affine coupling
//! `blockOff = blockDim · blockIdx` and box constraints — and enumerates
//! it for an actual `(block_a, block_b, element)` witness point.

use crate::diag::Witness;
use crate::Result;
use mekong_analysis::{
    is_block_injective, split_pair_system, AnalysisSpace, SplitAxis, GD_OFF, N_MAP_IN,
};
use mekong_kernel::Extent;
use mekong_partition::Partition;
use mekong_poly::{Constraint, LinExpr, Map, Polyhedron};

/// Outcome of the per-axis disjointness analysis for one write map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxisProof {
    /// Partition write images are provably pairwise disjoint.
    Disjoint,
    /// A concrete cross-partition write–write overlap exists.
    Racy(Witness),
    /// Disjointness could not be proven, but no concrete overlap was
    /// found under the trial parameter bindings (projection inexactness
    /// or large-parameter-only races). Treated as unsafe.
    Unproven,
}

/// Prove or refute write-disjointness of `map` across partitions along
/// `axis`. Conservative: anything short of a proof is not `Disjoint`.
pub fn check_axis(
    map: &Map,
    extents: &[Extent],
    space: &AnalysisSpace,
    axis: SplitAxis,
) -> Result<AxisProof> {
    if is_block_injective(map, space, axis)? {
        return Ok(AxisProof::Disjoint);
    }
    Ok(match find_race_witness(map, extents, space, axis)? {
        Some(w) => AxisProof::Racy(w),
        None => AxisProof::Unproven,
    })
}

/// Search for a concrete cross-partition write–write overlap along
/// `axis`: two blocks separated along the split axis writing the same
/// element, under one of the small trial parameter bindings.
pub fn find_race_witness(
    map: &Map,
    extents: &[Extent],
    space: &AnalysisSpace,
    axis: SplitAxis,
) -> Result<Option<Witness>> {
    let d = map.n_out();
    for a in map.relation().pieces() {
        for b in map.relation().pieces() {
            let sys = split_pair_system(map, a, b, axis)?;
            if sys.is_marked_empty() {
                continue;
            }
            for params in trial_params(space) {
                if let Some(pt) = bounded_point(&sys, 2, &params, extents, space)? {
                    return Ok(Some(witness_from_point(&pt, &params, space, 2, d)));
                }
            }
        }
    }
    Ok(None)
}

/// Small concrete parameter bindings tried during witness search: cubic
/// block/grid dims from a short ladder, scalar kernel arguments set to a
/// few values around the covered index range.
pub(crate) fn trial_params(space: &AnalysisSpace) -> Vec<Vec<i64>> {
    let n_scalars = space.scalar_names.len();
    let mut out: Vec<Vec<i64>> = Vec::new();
    for &(bd, gd) in &[(1i64, 2i64), (2, 2), (1, 3), (2, 3)] {
        for sv in [bd * gd, 2 * bd * gd, 4, 7] {
            let mut p = vec![bd, bd, bd, gd, gd, gd];
            p.extend(std::iter::repeat_n(sv, n_scalars));
            if !out.contains(&p) {
                out.push(p);
            }
            if n_scalars == 0 {
                break; // scalar values are irrelevant
            }
        }
    }
    out
}

/// Bind `params` in a system over `copies` input copies and the outputs,
/// and make it finite: per copy the coupling `blockOff = blockDim ·
/// blockIdx` (affine now that `blockDim` is a number) and blockIdx inside
/// `blocks`, and the inclusive range `outputs[j]` for output `j`. `None` if
/// that leaves it visibly empty.
pub(crate) fn concretize(
    sys: &Polyhedron,
    copies: usize,
    params: &[i64],
    blocks: &Partition,
    outputs: &[(i64, i64)],
) -> Result<Option<Polyhedron>> {
    let mut p = sys.bind_params(params)?;
    let w = p.n_dims();
    let clamp = |p: &mut Polyhedron, dim: usize, lo: i64, hi: i64| -> Result<()> {
        let x = LinExpr::var(w, dim);
        p.add_constraint(Constraint::ge(&x, &LinExpr::constant(w, lo))?);
        p.add_constraint(Constraint::le(&x, &LinExpr::constant(w, hi))?);
        Ok(())
    };
    for copy in 0..copies {
        let off = copy * N_MAP_IN;
        for (k, &block_dim) in params[..3].iter().enumerate() {
            let mut e = LinExpr::constant(w, 0);
            e.coeffs[off + k] = 1;
            e.coeffs[off + 3 + k] = -block_dim;
            p.add_constraint(Constraint::eq(e));
            clamp(&mut p, off + 3 + k, blocks.lo[k], blocks.hi[k] - 1)?;
        }
    }
    for (j, &(lo, hi)) in outputs.iter().enumerate() {
        clamp(&mut p, copies * N_MAP_IN + j, lo, hi)?;
    }
    Ok((!p.is_marked_empty()).then_some(p))
}

/// Every block of the grid that `params` launches.
pub(crate) fn whole_grid(params: &[i64]) -> Partition {
    Partition {
        lo: [0; 3],
        hi: [params[GD_OFF], params[GD_OFF + 1], params[GD_OFF + 2]],
    }
}

/// The first integer point of `sys` under `params`, over the whole trial
/// grid and a generous box around the declared extents (it includes
/// one-off OOB points on both sides).
pub(crate) fn bounded_point(
    sys: &Polyhedron,
    copies: usize,
    params: &[i64],
    extents: &[Extent],
    space: &AnalysisSpace,
) -> Result<Option<Vec<i64>>> {
    let outputs: Vec<(i64, i64)> = extents
        .iter()
        .map(|ext| {
            let e = extent_value(ext, space, params).clamp(1, 64);
            (-(e + 1), 2 * e + 1)
        })
        .collect();
    match concretize(sys, copies, params, &whole_grid(params), &outputs)? {
        Some(p) => Ok(p.first_point(&[])?),
        None => Ok(None),
    }
}

/// Concrete value of an extent under a full parameter binding.
pub(crate) fn extent_value(ext: &Extent, space: &AnalysisSpace, params: &[i64]) -> i64 {
    match ext {
        Extent::Const(c) => *c,
        Extent::Param(name) => space
            .scalar_param_index(name)
            .map(|i| params[i])
            .unwrap_or(8),
    }
}

/// Assemble a [`Witness`] from an enumerated point of a `copies`-copy
/// system, `[t(6)·copies, y(d)]`.
pub(crate) fn witness_from_point(
    pt: &[i64],
    params: &[i64],
    space: &AnalysisSpace,
    copies: usize,
    d: usize,
) -> Witness {
    let block = |copy: usize| {
        let off = copy * N_MAP_IN + 3;
        [pt[off], pt[off + 1], pt[off + 2]]
    };
    let y0 = copies * N_MAP_IN;
    Witness {
        params: space
            .param_names()
            .into_iter()
            .zip(params.iter().copied())
            .collect(),
        block_a: block(0),
        block_b: (copies > 1).then(|| block(1)),
        element: pt[y0..y0 + d].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_kernel::builder::*;
    use mekong_kernel::Kernel;

    fn space1() -> AnalysisSpace {
        AnalysisSpace::for_kernel(&Kernel {
            name: "k".into(),
            params: vec![scalar("n")],
            body: vec![],
        })
    }

    fn ext_n() -> Vec<Extent> {
        vec![Extent::Param("n".into())]
    }

    #[test]
    fn identity_write_is_disjoint_along_x() {
        let m = Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [e] : \
               box <= e and e < box + bdx and 0 <= e and e < n and \
               boz >= 0 and boy >= 0 and box >= 0 and \
               0 <= biz and biz < gdz and 0 <= biy and biy < gdy and 0 <= bix and bix < gdx }",
        )
        .unwrap();
        let p = check_axis(&m, &ext_n(), &space1(), SplitAxis::X).unwrap();
        assert_eq!(p, AxisProof::Disjoint);
    }

    #[test]
    fn overlapping_write_yields_witness() {
        // Each block writes [box, box + bdx + 1): spills one element into
        // the next block's range.
        let m = Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [e] : \
               box <= e and e < box + bdx + 1 and 0 <= e and e < n and \
               box >= 0 and 0 <= bix and bix < gdx }",
        )
        .unwrap();
        match check_axis(&m, &ext_n(), &space1(), SplitAxis::X).unwrap() {
            AxisProof::Racy(w) => {
                // The two blocks differ along x and share the element.
                assert!(w.block_b.is_some());
                assert!(w.block_b.unwrap()[2] > w.block_a[2]);
                assert_eq!(w.element.len(), 1);
            }
            other => panic!("expected a race witness, got {other:?}"),
        }
    }

    #[test]
    fn constant_write_yields_witness_at_zero() {
        let m = Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [e] : e = 0 and \
               box >= 0 and 0 <= bix and bix < gdx }",
        )
        .unwrap();
        match check_axis(&m, &ext_n(), &space1(), SplitAxis::X).unwrap() {
            AxisProof::Racy(w) => assert_eq!(w.element, vec![0]),
            other => panic!("expected a race witness, got {other:?}"),
        }
    }

    #[test]
    fn column_write_racy_along_y_safe_along_x() {
        let m = Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [c] : \
               box <= c and c < box + bdx and boy >= 0 and box >= 0 and \
               0 <= biy and biy < gdy and 0 <= bix and bix < gdx }",
        )
        .unwrap();
        assert!(matches!(
            check_axis(&m, &ext_n(), &space1(), SplitAxis::Y).unwrap(),
            AxisProof::Racy(_)
        ));
        assert_eq!(
            check_axis(&m, &ext_n(), &space1(), SplitAxis::X).unwrap(),
            AxisProof::Disjoint
        );
    }

    #[test]
    fn tile_write_disjoint_along_both() {
        let m = Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [r, c] : \
               boy <= r and r < boy + bdy and box <= c and c < box + bdx and \
               boy >= 0 and box >= 0 and \
               0 <= biy and biy < gdy and 0 <= bix and bix < gdx }",
        )
        .unwrap();
        let exts = vec![Extent::Param("n".into()), Extent::Param("n".into())];
        assert_eq!(
            check_axis(&m, &exts, &space1(), SplitAxis::Y).unwrap(),
            AxisProof::Disjoint
        );
        assert_eq!(
            check_axis(&m, &exts, &space1(), SplitAxis::X).unwrap(),
            AxisProof::Disjoint
        );
    }
}
