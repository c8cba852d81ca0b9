//! Cross-partition injectivity of write maps.
//!
//! Partition correctness requires that no two thread blocks **in
//! different partitions** write the same array element (partitions split
//! at block boundaries, §7; unordered cross-device writes would race,
//! §4). Blocks within one partition run on one device and behave exactly
//! as in the single-GPU original, so intra-partition aliasing is not our
//! transformation's concern.
//!
//! Partitions are half-open block ranges along the suggested *split
//! axis*; two blocks in different partitions therefore differ along that
//! axis. The check enumerates, for every ordered pair of convex pieces
//! `(A, B)` of the write relation, the system
//!
//! ```text
//! A(bo, bi, y) ∧ B(bo', bi', y) ∧ bo'_s ≥ bo_s + bd_s ∧ bi'_s ≥ bi_s + 1
//! ```
//!
//! (`s` = split axis; the other axes are unconstrained) and proves it
//! empty for all parameters with `blockDim ≥ 1`, `gridDim ≥ 1`. The
//! encoding `bo'_s ≥ bo_s + bd_s` soundly injects the non-affine coupling
//! `blockOff = blockIdx · blockDim`: consecutive block offsets differ by
//! exactly `blockDim`.

use crate::space::{AnalysisSpace, N_MAP_IN};
use crate::strategy::SplitAxis;
use crate::Result;
use mekong_poly::{Constraint, LinExpr, Map, Polyhedron};

/// Check that the write map is injective across partitions along
/// `split`. Conservative: `false` when emptiness cannot be proved.
pub fn is_block_injective(map: &Map, space: &AnalysisSpace, split: SplitAxis) -> Result<bool> {
    let context = space.param_context();
    for a in map.relation().pieces() {
        for b in map.relation().pieces() {
            let sys = split_pair_system(map, a, b, split)?;
            if !sys.is_marked_empty() && !sys.is_empty_symbolic(&context)? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// The system above for write pieces `a` and `b`: their pair system
/// ([`Map::pair_system`], `A` over `(bo, bi, y)` and `B` over
/// `(bo', bi', y)`) with the primed block strictly after the unprimed one
/// along `split`. The mirrored case is covered because `(a, b)` ranges
/// over ordered pairs.
pub fn split_pair_system(
    map: &Map,
    a: &Polyhedron,
    b: &Polyhedron,
    split: SplitAxis,
) -> Result<Polyhedron> {
    assert_eq!(map.n_in(), N_MAP_IN);
    let dims = 2 * N_MAP_IN + map.n_out();
    let width = dims + map.n_params();
    let s = split.zyx_index();
    let mut sys = map.pair_system(a, b);
    let bo = LinExpr::var(width, s);
    let bi = LinExpr::var(width, 3 + s);
    let bo2 = LinExpr::var(width, N_MAP_IN + s);
    let bi2 = LinExpr::var(width, N_MAP_IN + 3 + s);
    let bd = LinExpr::var(width, dims + s);
    sys.add_constraint(Constraint::ge(&bo2, &bo.add(&bd)?)?);
    sys.add_constraint(Constraint::ge(&bi2, &bi.with_konst(1))?);
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_kernel::builder::*;
    use mekong_kernel::Kernel;

    fn space1() -> AnalysisSpace {
        // one scalar param "n"
        AnalysisSpace::for_kernel(&Kernel {
            name: "k".into(),
            params: vec![scalar("n")],
            body: vec![],
        })
    }

    /// `e = box + t, 0 <= t < bdx` — the canonical 1:1 write pattern after
    /// threadIdx elimination. Params: [bdz bdy bdx gdz gdy gdx n].
    fn identity_write() -> Map {
        Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [e] : \
               box <= e and e < box + bdx and 0 <= e and e < n and \
               boz >= 0 and boy >= 0 and box >= 0 and \
               0 <= biz and biz < gdz and 0 <= biy and biy < gdy and 0 <= bix and bix < gdx }",
        )
        .unwrap()
    }

    #[test]
    fn identity_write_is_injective_along_x() {
        let m = identity_write();
        assert!(is_block_injective(&m, &space1(), SplitAxis::X).unwrap());
    }

    #[test]
    fn overlapping_write_is_not() {
        // Each block writes [box, box + bdx + 1): spills one element into
        // the next block's range.
        let m = Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [e] : \
               box <= e and e < box + bdx + 1 and 0 <= e and e < n and \
               box >= 0 and 0 <= bix and bix < gdx }",
        )
        .unwrap();
        assert!(!is_block_injective(&m, &space1(), SplitAxis::X).unwrap());
    }

    #[test]
    fn constant_write_is_not() {
        let m = Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [e] : e = 0 and \
               box >= 0 and 0 <= bix and bix < gdx }",
        )
        .unwrap();
        assert!(!is_block_injective(&m, &space1(), SplitAxis::X).unwrap());
    }

    #[test]
    fn two_dim_tile_write_is_injective_along_y() {
        // e0 tied to the y block, e1 to the x block.
        let m = Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [r, c] : \
               boy <= r and r < boy + bdy and box <= c and c < box + bdx and \
               boy >= 0 and box >= 0 and \
               0 <= biy and biy < gdy and 0 <= bix and bix < gdx }",
        )
        .unwrap();
        assert!(is_block_injective(&m, &space1(), SplitAxis::Y).unwrap());
        assert!(is_block_injective(&m, &space1(), SplitAxis::X).unwrap());
    }

    #[test]
    fn column_write_not_injective_along_y() {
        // Every block row writes the whole column range of row 0..n:
        // output independent of y position -> y split aliases.
        let m = Map::parse(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [c] : \
               box <= c and c < box + bdx and boy >= 0 and box >= 0 and \
               0 <= biy and biy < gdy and 0 <= bix and bix < gdx }",
        )
        .unwrap();
        assert!(!is_block_injective(&m, &space1(), SplitAxis::Y).unwrap());
        // ...but along x it is injective.
        assert!(is_block_injective(&m, &space1(), SplitAxis::X).unwrap());
    }
}
