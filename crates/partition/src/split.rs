//! Grid partitioning strategies.

use mekong_analysis::SplitAxis;
use mekong_kernel::Dim3;
use serde::{Deserialize, Serialize};

/// A half-open box of thread-block indices, in the paper's `[z, y, x]`
/// tuple order: block `b` belongs iff `lo[d] <= b[d] < hi[d]` for all `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// Inclusive lower block indices `[z, y, x]`.
    pub lo: [i64; 3],
    /// Exclusive upper block indices `[z, y, x]`.
    pub hi: [i64; 3],
}

impl Partition {
    /// The whole grid as one partition.
    pub fn whole(grid_dim: Dim3) -> Partition {
        Partition {
            lo: [0, 0, 0],
            hi: grid_dim.zyx(),
        }
    }

    /// Number of blocks inside.
    pub fn block_count(&self) -> u64 {
        (0..3)
            .map(|d| (self.hi[d] - self.lo[d]).max(0) as u64)
            .product()
    }

    /// Is the partition empty?
    pub fn is_empty(&self) -> bool {
        self.block_count() == 0
    }

    /// The launch grid extent of the partitioned kernel (eq. 10):
    /// `max − min` per axis.
    pub fn launch_grid(&self) -> Dim3 {
        Dim3::from_zyx([
            (self.hi[0] - self.lo[0]).max(0),
            (self.hi[1] - self.lo[1]).max(0),
            (self.hi[2] - self.lo[2]).max(0),
        ])
    }

    /// The six trailing scalars a launch of this partition passes to the
    /// §7 clone ([`crate::PART_PARAMS`]): the lower block indices, then
    /// the extents of the whole launch `grid`, each `[z, y, x]`.
    pub fn clone_args(&self, grid: Dim3) -> [i64; 6] {
        let g = grid.zyx();
        [self.lo[0], self.lo[1], self.lo[2], g[0], g[1], g[2]]
    }

    /// Block-offset bounds `[lo, hi)` per axis (zyx), given the block
    /// dims: `blockOff = blockIdx · blockDim` (paper eq. 6).
    pub fn block_off_bounds(&self, block_dim: Dim3) -> ([i64; 3], [i64; 3]) {
        let bd = block_dim.zyx();
        let lo = [self.lo[0] * bd[0], self.lo[1] * bd[1], self.lo[2] * bd[2]];
        let hi = [self.hi[0] * bd[0], self.hi[1] * bd[1], self.hi[2] * bd[2]];
        (lo, hi)
    }

    /// Does the partition contain the block `[z, y, x]`?
    pub fn contains(&self, zyx: [i64; 3]) -> bool {
        (0..3).all(|d| self.lo[d] <= zyx[d] && zyx[d] < self.hi[d])
    }
}

/// Allocate `extent` blocks to `shares.len()` partitions proportionally
/// to the (non-negative, not-all-zero) share weights.
///
/// Each partition gets `floor(extent · wᵢ / Σw)` blocks; the leftover
/// blocks — at most one per partition — are spread one each across the
/// *leading* partitions with a non-zero share, never dumped on the last
/// one. The lengths sum to `extent` exactly.
pub fn allocate_blocks(extent: i64, shares: &[f64]) -> Vec<i64> {
    assert!(!shares.is_empty(), "need at least one share");
    assert!(
        shares.iter().all(|&w| w >= 0.0 && w.is_finite()),
        "shares must be finite and non-negative"
    );
    let total: f64 = shares.iter().sum();
    assert!(total > 0.0, "shares must not all be zero");
    let mut lens: Vec<i64> = shares
        .iter()
        .map(|&w| ((extent as f64) * w / total).floor() as i64)
        .collect();
    let mut leftover = extent - lens.iter().sum::<i64>();
    debug_assert!(leftover >= 0);
    // Floors undershoot by < 1 block per partition, so one pass over the
    // leading non-zero-share partitions absorbs everything.
    let mut i = 0;
    while leftover > 0 {
        if shares[i % shares.len()] > 0.0 {
            lens[i % shares.len()] += 1;
            leftover -= 1;
        }
        i += 1;
    }
    lens
}

/// Split a grid into contiguous partitions along `axis` with block counts
/// proportional to `shares` (see [`allocate_blocks`]). Empty partitions —
/// a zero share, or more shares than blocks — are **dropped**: the result
/// holds only non-empty partitions, ascending along the split axis.
///
/// This is the general form of [`partition_grid`]; uneven shares let the
/// tuner give a faster device a larger slice of the grid.
pub fn partition_grid_weighted(grid_dim: Dim3, axis: SplitAxis, shares: &[f64]) -> Vec<Partition> {
    let whole = Partition::whole(grid_dim);
    let d = axis.zyx_index();
    let lens = allocate_blocks(whole.hi[d], shares);
    let mut out = Vec::with_capacity(lens.len());
    let mut start = 0i64;
    for len in lens {
        if len > 0 {
            let mut p = whole;
            p.lo[d] = start;
            p.hi[d] = start + len;
            out.push(p);
        }
        start += len;
    }
    debug_assert_eq!(start, whole.hi[d]);
    out
}

/// Split a grid into `n` contiguous partitions along `axis`, balanced to
/// within one block (equal shares; leftover blocks go to the leading
/// partitions). Partitions beyond the block count come out empty
/// (callers skip them); order is ascending along the split axis.
///
/// Kept as the fixed-arity strategy (one partition per device, even
/// split); [`partition_grid_weighted`] is the share-vector general form.
pub fn partition_grid(grid_dim: Dim3, n: usize, axis: SplitAxis) -> Vec<Partition> {
    assert!(n >= 1);
    let whole = Partition::whole(grid_dim);
    let d = axis.zyx_index();
    let lens = allocate_blocks(whole.hi[d], &vec![1.0; n]);
    let mut out = Vec::with_capacity(n);
    let mut start = 0i64;
    for len in lens {
        let mut p = whole;
        p.lo[d] = start;
        p.hi[d] = start + len;
        out.push(p);
        start += len;
    }
    out
}

/// Cut a grid into a `Pa × Pb` lattice of disjoint rectangular tiles:
/// `shares_a` slices along `axis_a`, each then sliced along `axis_b`
/// by `shares_b`. Per axis the remainder blocks are spread one each
/// over the leading slices (exactly as in [`allocate_blocks`]); empty
/// tiles are dropped.
///
/// Tile order is row-major over `(axis_a, axis_b)` slice indices —
/// tile `(ia, ib)` lands at output index `ia·Pb + ib` (before empties
/// are dropped), so devices that share an `axis_a` slice are
/// consecutive. With `shares_b == [1.0]` the lattice degenerates to
/// [`partition_grid_weighted`] along `axis_a`.
pub fn partition_grid_rect(
    grid_dim: Dim3,
    axis_a: SplitAxis,
    shares_a: &[f64],
    axis_b: SplitAxis,
    shares_b: &[f64],
) -> Vec<Partition> {
    assert_ne!(axis_a, axis_b, "tiling axes must differ");
    let whole = Partition::whole(grid_dim);
    let da = axis_a.zyx_index();
    let db = axis_b.zyx_index();
    let lens_a = allocate_blocks(whole.hi[da], shares_a);
    let lens_b = allocate_blocks(whole.hi[db], shares_b);
    let mut out = Vec::with_capacity(lens_a.len() * lens_b.len());
    let mut start_a = 0i64;
    for la in &lens_a {
        let mut start_b = 0i64;
        for lb in &lens_b {
            if *la > 0 && *lb > 0 {
                let mut p = whole;
                p.lo[da] = start_a;
                p.hi[da] = start_a + la;
                p.lo[db] = start_b;
                p.hi[db] = start_b + lb;
                out.push(p);
            }
            start_b += lb;
        }
        debug_assert_eq!(start_b, whole.hi[db]);
        start_a += la;
    }
    debug_assert_eq!(start_a, whole.hi[da]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_cover_grid_without_overlap() {
        let g = Dim3::new2(100, 7); // gd = (x=100, y=7)
        for n in [1, 2, 3, 5, 16] {
            let parts = partition_grid(g, n, SplitAxis::X);
            assert_eq!(parts.len(), n);
            let total: u64 = parts.iter().map(|p| p.block_count()).sum();
            assert_eq!(total, g.count());
            // contiguity and order
            for w in parts.windows(2) {
                assert_eq!(w[0].hi[2], w[1].lo[2]);
            }
            // balance within 1
            let counts: Vec<u64> = parts.iter().map(|p| p.block_count()).collect();
            let min = counts.iter().min().unwrap();
            let max = counts.iter().max().unwrap();
            assert!(max - min <= 7); // one x-block = 7 y-blocks here
        }
    }

    #[test]
    fn split_y_partitions_rows() {
        let g = Dim3::new2(4, 10);
        let parts = partition_grid(g, 3, SplitAxis::Y);
        assert_eq!(parts[0].lo, [0, 0, 0]);
        assert_eq!(parts[0].hi, [1, 4, 4]);
        assert_eq!(parts[1].lo, [0, 4, 0]);
        assert_eq!(parts[2].hi, [1, 10, 4]);
    }

    #[test]
    fn more_parts_than_blocks_yields_empty_tails() {
        let g = Dim3::new1(3);
        let parts = partition_grid(g, 5, SplitAxis::X);
        let nonempty: Vec<_> = parts.iter().filter(|p| !p.is_empty()).collect();
        assert_eq!(nonempty.len(), 3);
        let total: u64 = parts.iter().map(|p| p.block_count()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn allocate_spreads_remainder_over_leading_partitions() {
        // 10 blocks over 4 equal shares: 3,3,2,2 — leftover on the
        // leading partitions, not dumped on the last.
        assert_eq!(allocate_blocks(10, &[1.0; 4]), vec![3, 3, 2, 2]);
        assert_eq!(allocate_blocks(7, &[1.0; 3]), vec![3, 2, 2]);
        // Exact division leaves nothing to spread.
        assert_eq!(allocate_blocks(8, &[1.0; 4]), vec![2, 2, 2, 2]);
    }

    #[test]
    fn allocate_respects_proportional_shares() {
        // 2:1 shares over 9 blocks: 6 and 3.
        assert_eq!(allocate_blocks(9, &[2.0, 1.0]), vec![6, 3]);
        // Zero shares get zero blocks, leftovers skip them.
        assert_eq!(allocate_blocks(5, &[1.0, 0.0, 1.0]), vec![3, 0, 2]);
        // Sum is exact even with awkward ratios.
        for extent in [1i64, 3, 17, 100] {
            let lens = allocate_blocks(extent, &[0.3, 0.21, 0.49]);
            assert_eq!(lens.iter().sum::<i64>(), extent);
            assert!(lens.iter().all(|&l| l >= 0));
        }
    }

    #[test]
    fn weighted_split_covers_grid_and_drops_empties() {
        let g = Dim3::new2(8, 100);
        let parts = partition_grid_weighted(g, SplitAxis::Y, &[3.0, 1.0]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].hi[1] - parts[0].lo[1], 75);
        assert_eq!(parts[1].hi[1] - parts[1].lo[1], 25);
        assert_eq!(
            parts.iter().map(|p| p.block_count()).sum::<u64>(),
            g.count()
        );
        // More shares than blocks: empties are dropped, coverage stays.
        let small = Dim3::new1(3);
        let parts = partition_grid_weighted(small, SplitAxis::X, &[1.0; 5]);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| !p.is_empty()));
        assert_eq!(parts.iter().map(|p| p.block_count()).sum::<u64>(), 3);
        // A zero share in the middle is dropped without a gap.
        let parts = partition_grid_weighted(Dim3::new1(6), SplitAxis::X, &[1.0, 0.0, 1.0]);
        assert_eq!(parts.len(), 2);
        for w in parts.windows(2) {
            assert_eq!(w[0].hi[2], w[1].lo[2]);
        }
    }

    #[test]
    fn even_split_matches_weighted_equal_shares() {
        let g = Dim3::new2(64, 37);
        for n in [1usize, 2, 3, 5, 8] {
            let even = partition_grid(g, n, SplitAxis::Y);
            let weighted = partition_grid_weighted(g, SplitAxis::Y, &vec![1.0; n]);
            let nonempty: Vec<_> = even.into_iter().filter(|p| !p.is_empty()).collect();
            assert_eq!(nonempty, weighted);
        }
    }

    #[test]
    fn launch_grid_matches_eq_10() {
        let p = Partition {
            lo: [0, 2, 5],
            hi: [1, 6, 9],
        };
        assert_eq!(p.launch_grid(), Dim3::new3(4, 4, 1));
    }

    #[test]
    fn block_off_bounds_scale_by_block_dim() {
        let p = Partition {
            lo: [0, 1, 2],
            hi: [1, 3, 4],
        };
        let (lo, hi) = p.block_off_bounds(Dim3::new3(32, 8, 1));
        assert_eq!(lo, [0, 8, 64]);
        assert_eq!(hi, [1, 24, 128]);
    }

    #[test]
    fn contains_respects_half_open_bounds() {
        let p = Partition {
            lo: [0, 0, 4],
            hi: [1, 2, 8],
        };
        assert!(p.contains([0, 0, 4]));
        assert!(p.contains([0, 1, 7]));
        assert!(!p.contains([0, 0, 8]));
        assert!(!p.contains([1, 0, 4]));
    }
}
