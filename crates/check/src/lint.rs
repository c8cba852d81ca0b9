//! Model linter checks that are not race detection: static
//! out-of-bounds escapes and enumerator-coverage gaps.

use crate::diag::Witness;
use crate::race::{
    bounded_point, concretize, extent_value, trial_params, whole_grid, witness_from_point,
};
use crate::Result;
use mekong_analysis::{AnalysisSpace, SplitAxis, N_MAP_IN};
use mekong_enumgen::AccessEnumerator;
use mekong_kernel::{Dim3, Extent};
use mekong_partition::partition_grid;
use mekong_poly::{Constraint, LinExpr, Map};
use std::ops::ControlFlow;

/// A proven (or unexcluded) escape of an access image past the declared
/// extents.
#[derive(Debug, Clone)]
pub struct OobFinding {
    /// Which output dimension escapes.
    pub dim: usize,
    /// `true` for an underflow (`y < 0`), `false` for `y ≥ extent`.
    pub low_side: bool,
    /// Concrete offending point, when one exists under the trial
    /// parameter bindings.
    pub witness: Option<Witness>,
}

/// Check whether the access image provably stays inside `extents`.
///
/// For each output dimension the negation (`y_j < 0`, resp.
/// `y_j ≥ E_j`) is intersected with every piece of the map and proven
/// empty under the launch context (`blockDim, gridDim ≥ 1`, extents
/// ≥ 1). A system that cannot be proven empty is reported; a concrete
/// witness is attached when the trial bindings expose one.
pub fn oob_finding(
    map: &Map,
    extents: &[Extent],
    space: &AnalysisSpace,
) -> Result<Option<OobFinding>> {
    let d = map.n_out();
    let np = map.n_params();
    assert_eq!(extents.len(), d);
    let mut ctx = space.param_context();
    let one = LinExpr::constant(np, 1);
    for ext in extents {
        if let Extent::Param(name) = ext {
            if let Some(i) = space.scalar_param_index(name) {
                ctx.add_constraint(Constraint::ge(&LinExpr::var(np, i), &one)?);
            }
        }
    }
    for (j, ext) in extents.iter().enumerate() {
        for low_side in [true, false] {
            for piece in map.relation().pieces() {
                let mut sys = piece.clone();
                let w = sys.n_dims() + np;
                let y = LinExpr::var(w, N_MAP_IN + j);
                let violation = if low_side {
                    Constraint::lt(&y, &LinExpr::constant(w, 0))?
                } else {
                    let e = match ext {
                        Extent::Const(k) => LinExpr::constant(w, *k),
                        Extent::Param(name) => {
                            let Some(i) = space.scalar_param_index(name) else {
                                continue;
                            };
                            LinExpr::var(w, sys.n_dims() + i)
                        }
                    };
                    Constraint::ge(&y, &e)?
                };
                sys.add_constraint(violation);
                if sys.is_marked_empty() || sys.is_empty_symbolic(&ctx)? {
                    continue;
                }
                let mut witness = None;
                for params in trial_params(space) {
                    if let Some(pt) = bounded_point(&sys, 1, &params, extents, space)? {
                        witness = Some(witness_from_point(&pt, &params, space, 1, d));
                        break;
                    }
                }
                return Ok(Some(OobFinding {
                    dim: j,
                    low_side,
                    witness,
                }));
            }
        }
    }
    Ok(None)
}

/// The concrete shape of a bounded may-read footprint at one sampled
/// parameter binding: the enclosing box, how many elements inside it
/// the map actually touches, and the binding itself.
#[derive(Debug, Clone)]
pub struct MayReadBox {
    /// Per-dimension inclusive bounds `[lo, hi]` of the whole-grid
    /// footprint, outermost dimension first.
    pub bounds: Vec<(i64, i64)>,
    /// Box volume in elements: `Π (hi − lo + 1)`.
    pub volume: u64,
    /// Distinct elements inside the box the map actually touches.
    pub touched: u64,
    /// The sampled parameter binding `(name, value)`.
    pub params: Vec<(String, i64)>,
}

impl MayReadBox {
    /// Tightness of the box: touched / volume, in (0, 1]. 1.0 means the
    /// box is exact; small values mean heavy over-fetch.
    pub(crate) fn tightness(&self) -> f64 {
        self.touched as f64 / (self.volume as f64).max(1.0)
    }
}

/// Concretize an interval (boxed) read map at a small sample binding
/// (`blockDim = (1,1,4)`, `gridDim = (1,1,4)`, scalars = 32) and
/// measure its whole-grid footprint box and tightness.
///
/// Returns `None` when the footprint is empty at the sample binding or
/// the declared extents make enumeration unreasonably large.
pub fn may_read_box(
    map: &Map,
    extents: &[Extent],
    space: &AnalysisSpace,
) -> Result<Option<MayReadBox>> {
    let d = map.n_out();
    let mut params: Vec<i64> = vec![1, 1, 4, 1, 1, 4];
    params.extend(std::iter::repeat_n(32i64, space.scalar_names.len()));
    let exts: Vec<i64> = extents
        .iter()
        .map(|e| extent_value(e, space, &params).max(1))
        .collect();
    if exts.iter().product::<i64>() > 1 << 20 {
        return Ok(None);
    }
    let in_bounds: Vec<(i64, i64)> = exts.iter().map(|&e| (0, e - 1)).collect();
    let mut seen: std::collections::HashSet<Vec<i64>> = std::collections::HashSet::new();
    for piece in map.relation().pieces() {
        // blockIdx across the whole sampled grid.
        if let Some(p) = concretize(piece, 1, &params, &whole_grid(&params), &in_bounds)? {
            p.for_each_point(&[], &mut |pt| {
                seen.insert(pt[N_MAP_IN..N_MAP_IN + d].to_vec());
            })?;
        }
    }
    if seen.is_empty() {
        return Ok(None);
    }
    let mut bounds = vec![(i64::MAX, i64::MIN); d];
    for el in &seen {
        for (j, &v) in el.iter().enumerate() {
            bounds[j].0 = bounds[j].0.min(v);
            bounds[j].1 = bounds[j].1.max(v);
        }
    }
    let volume: u64 = bounds
        .iter()
        .map(|&(lo, hi)| (hi - lo + 1) as u64)
        .product();
    Ok(Some(MayReadBox {
        bounds,
        volume,
        touched: seen.len() as u64,
        params: space
            .param_names()
            .into_iter()
            .zip(params.iter().copied())
            .collect(),
    }))
}

/// An element of the true access image that the compiled enumerator's
/// row ranges miss.
#[derive(Debug, Clone)]
pub struct CoverageGap {
    /// The missed element (row-major index vector).
    pub element: Vec<i64>,
    /// Its linearized element offset.
    pub linear: u64,
    /// Index of the partition whose enumeration missed it.
    pub partition: usize,
}

/// Cross-validate the compiled [`AccessEnumerator`] against the true
/// access image on a small concrete geometry (2×2 grid of 2×2 blocks,
/// scalars = 4, two partitions along `axis`).
///
/// The enumerator drives buffer coherence at run time, so *every*
/// in-bounds element a partition touches must land inside its merged
/// row ranges; the first missing element is returned. (The enumerator
/// may legally over-approximate — only under-coverage is a finding.)
pub fn coverage_gap(
    map: &Map,
    extents: &[Extent],
    space: &AnalysisSpace,
    axis: SplitAxis,
    scalar_names: &[String],
) -> Result<Option<CoverageGap>> {
    let en = AccessEnumerator::build(map, extents)?;
    let d = map.n_out();
    let block = Dim3::new3(2, 2, 1);
    let grid = Dim3::new3(2, 2, 1);
    let scalars = vec![4i64; scalar_names.len()];
    let mut params: Vec<i64> = Vec::new();
    params.extend_from_slice(&block.zyx());
    params.extend_from_slice(&grid.zyx());
    params.extend_from_slice(&scalars);
    let exts: Vec<i64> = extents
        .iter()
        .map(|e| extent_value(e, space, &params).max(1))
        .collect();
    let in_bounds: Vec<(i64, i64)> = exts.iter().map(|&e| (0, e - 1)).collect();
    for (pi, part) in partition_grid(grid, 2, axis).iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        let covered = en.ranges_merged(part, block, grid, scalar_names, &scalars);
        for piece in map.relation().pieces() {
            // blockIdx inside this partition.
            let Some(p) = concretize(piece, 1, &params, part, &in_bounds)? else {
                continue;
            };
            let gap = p.try_for_each_point(&[], &mut |pt| {
                let y = &pt[N_MAP_IN..N_MAP_IN + d];
                let mut lin = 0i64;
                for (i, &v) in y.iter().enumerate() {
                    lin = lin * exts[i] + v;
                }
                let lin = lin as u64;
                if covered.iter().any(|r| r.start <= lin && lin < r.end) {
                    return ControlFlow::Continue(());
                }
                ControlFlow::Break(CoverageGap {
                    element: y.to_vec(),
                    linear: lin,
                    partition: pi,
                })
            })?;
            if gap.is_some() {
                return Ok(gap);
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_kernel::builder::*;
    use mekong_kernel::Kernel;
    use mekong_poly::Map;

    fn space1() -> AnalysisSpace {
        AnalysisSpace::for_kernel(&Kernel {
            name: "k".into(),
            params: vec![scalar("n")],
            body: vec![],
        })
    }

    #[test]
    fn guarded_identity_is_in_bounds() {
        let m = Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [e] : \
               box <= e and e < box + bdx and 0 <= e and e < n and \
               box >= 0 and 0 <= bix and bix < gdx }",
        )
        .unwrap();
        let exts = vec![Extent::Param("n".into())];
        assert!(oob_finding(&m, &exts, &space1()).unwrap().is_none());
    }

    #[test]
    fn unguarded_overshoot_is_flagged_with_witness() {
        // Writes e in [box, box + bdx) with e <= n: index n escapes.
        let m = Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [e] : \
               box <= e and e < box + bdx and 0 <= e and e <= n and \
               box >= 0 and 0 <= bix and bix < gdx }",
        )
        .unwrap();
        let exts = vec![Extent::Param("n".into())];
        let f = oob_finding(&m, &exts, &space1()).unwrap().expect("oob");
        assert_eq!(f.dim, 0);
        assert!(!f.low_side);
        let w = f.witness.expect("concrete witness");
        // The witness element equals the bound value of n.
        let n = w.params.iter().find(|(k, _)| k == "n").unwrap().1;
        assert_eq!(w.element, vec![n]);
    }

    #[test]
    fn identity_enumerator_has_no_coverage_gap() {
        let m = Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [e] : \
               box <= e and e < box + bdx and 0 <= e and e < n and \
               box >= 0 and 0 <= bix and bix < gdx }",
        )
        .unwrap();
        let exts = vec![Extent::Param("n".into())];
        let names = vec!["n".to_string()];
        let gap = coverage_gap(&m, &exts, &space1(), SplitAxis::X, &names).unwrap();
        assert!(gap.is_none(), "unexpected gap: {gap:?}");
    }
}
