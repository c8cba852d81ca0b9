//! Partitioning strategies: which axis (or axis product) to split, into
//! how many pieces, and with what share of the grid per piece.

use mekong_analysis::SplitAxis;
use mekong_kernel::Dim3;
use mekong_partition::{partition_grid_rect, partition_grid_weighted, Partition};
use serde::{Deserialize, Serialize};

/// One point of the tuner's search space: split `axis` into
/// `shares.len()` contiguous slices with block counts proportional to
/// the share weights, and — for rectangular tilings — split each slice
/// again along `axis2` by `shares2`, giving a `shares.len() ×
/// shares2.len()` lattice of tiles. Tile `(i, j)` runs on device
/// `i · shares2.len() + j` (row-major over the first axis).
///
/// `shares == [1.0; n]` with no second axis is the paper's even slab
/// split; uneven shares give a faster device a proportionally larger
/// slice of the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionStrategy {
    pub axis: SplitAxis,
    pub shares: Vec<f64>,
    /// Second split axis of a rectangular tiling; `None` for the 1-D
    /// slab strategies.
    #[serde(default)]
    pub axis2: Option<SplitAxis>,
    /// Per-slice shares along `axis2`; empty iff `axis2` is `None`.
    #[serde(default)]
    pub shares2: Vec<f64>,
}

impl PartitionStrategy {
    /// The even split of the grid over `n` devices (the fixed strategy
    /// the paper's runtime hardcodes).
    pub fn even(axis: SplitAxis, n: usize) -> PartitionStrategy {
        assert!(n >= 1);
        PartitionStrategy {
            axis,
            shares: vec![1.0; n],
            axis2: None,
            shares2: Vec::new(),
        }
    }

    /// A proportionally weighted split.
    pub fn weighted(axis: SplitAxis, shares: Vec<f64>) -> PartitionStrategy {
        assert!(!shares.is_empty());
        PartitionStrategy {
            axis,
            shares,
            axis2: None,
            shares2: Vec::new(),
        }
    }

    /// An even `na × nb` rectangular tiling over `na * nb` devices.
    pub fn tiled(axis_a: SplitAxis, na: usize, axis_b: SplitAxis, nb: usize) -> PartitionStrategy {
        assert!(na >= 1 && nb >= 1);
        assert_ne!(axis_a, axis_b, "tiling axes must differ");
        PartitionStrategy {
            axis: axis_a,
            shares: vec![1.0; na],
            axis2: Some(axis_b),
            shares2: vec![1.0; nb],
        }
    }

    /// A rectangular tiling with weighted per-axis shares: `shares_a`
    /// slices along `axis_a` sized proportionally to their weights,
    /// each cut along `axis_b` by `shares_b`. [`PartitionStrategy::tiled`]
    /// is the equal-share special case; uneven shares let a lattice of
    /// mixed-speed devices take proportionally sized tiles.
    pub(crate) fn tiled_weighted(
        axis_a: SplitAxis,
        shares_a: Vec<f64>,
        axis_b: SplitAxis,
        shares_b: Vec<f64>,
    ) -> PartitionStrategy {
        assert!(!shares_a.is_empty() && !shares_b.is_empty());
        assert_ne!(axis_a, axis_b, "tiling axes must differ");
        PartitionStrategy {
            axis: axis_a,
            shares: shares_a,
            axis2: Some(axis_b),
            shares2: shares_b,
        }
    }

    /// Is this a 2-D rectangular tiling (as opposed to a 1-D slab split)?
    pub fn is_tiled(&self) -> bool {
        self.axis2.is_some()
    }

    /// Every axis the strategy actually cuts, first axis first. The
    /// launch-time safety gate must prove race freedom on *each* of
    /// these.
    pub fn split_axes(&self) -> Vec<SplitAxis> {
        let mut axes = vec![self.axis];
        axes.extend(self.axis2);
        axes
    }

    /// Number of partitions (devices used): the product of the per-axis
    /// factors.
    pub fn n_parts(&self) -> usize {
        self.shares.len() * self.shares2.len().max(1)
    }

    /// Do the shares differ from an even split (on either axis)?
    pub(crate) fn is_weighted(&self) -> bool {
        let uneven = |shares: &[f64]| {
            let first = shares[0];
            shares
                .iter()
                .any(|&s| (s - first).abs() > 1e-9 * first.abs().max(1.0))
        };
        uneven(&self.shares) || (!self.shares2.is_empty() && uneven(&self.shares2))
    }

    /// The concrete partitions for a grid (empty slices dropped; see
    /// [`partition_grid_weighted`] / [`partition_grid_rect`]).
    pub fn partitions(&self, grid_dim: Dim3) -> Vec<Partition> {
        match self.axis2 {
            Some(axis2) => {
                partition_grid_rect(grid_dim, self.axis, &self.shares, axis2, &self.shares2)
            }
            None => partition_grid_weighted(grid_dim, self.axis, &self.shares),
        }
    }

    /// Pack the strategy's shape into a `u32` for `OpCounters`:
    ///
    /// ```text
    /// bits  0..8   first axis as zyx index + 1   (z=1, y=2, x=3)
    /// bits  8..16  first-axis factor (n_parts for 1-D splits)
    /// bit   16     weighted shares on any axis
    /// bits 17..19  second axis + 1, or 0 for 1-D splits
    /// bits 19..27  second-axis factor (0 for 1-D splits)
    /// ```
    ///
    /// 1-D strategies keep their historical `(zyx_axis + 1) |
    /// n_parts << 8 | weighted << 16` encoding (bits 17+ zero), so old
    /// summaries stay decodable. Zero means "no tuner decision
    /// recorded".
    pub fn encode(&self) -> u32 {
        let axis = (self.axis.zyx_index() as u32) + 1; // z=1, y=2, x=3
        let parts = (self.shares.len() as u32).min(0xff) << 8;
        let weighted = u32::from(self.is_weighted()) << 16;
        let (axis2, parts2) = match self.axis2 {
            Some(a2) => (
                ((a2.zyx_index() as u32) + 1) << 17,
                (self.shares2.len() as u32).min(0xff) << 19,
            ),
            None => (0, 0),
        };
        axis | parts | weighted | axis2 | parts2
    }

    /// Human-readable shape, e.g. `"y:4"` (even 4-way y split),
    /// `"x:2:w"` (weighted 2-way x split) or `"y:2×x:2"` (2×2 tiling).
    pub fn describe(&self) -> String {
        let axis_char = |a: SplitAxis| match a {
            SplitAxis::Z => 'z',
            SplitAxis::Y => 'y',
            SplitAxis::X => 'x',
        };
        let mut s = format!("{}:{}", axis_char(self.axis), self.shares.len());
        if let Some(a2) = self.axis2 {
            s.push_str(&format!("×{}:{}", axis_char(a2), self.shares2.len()));
        }
        if self.is_weighted() {
            s.push_str(":w");
        }
        s
    }
}

/// Decode a [`PartitionStrategy::encode`] value back to the
/// [`PartitionStrategy::describe`] string. `0` (no decision) gives
/// `None`.
pub fn decode_strategy(code: u32) -> Option<String> {
    if code == 0 {
        return None;
    }
    let axis_char = |c: u32| match c {
        1 => 'z',
        2 => 'y',
        3 => 'x',
        _ => '?',
    };
    let axis = axis_char(code & 0xff);
    let parts = (code >> 8) & 0xff;
    let weighted = (code >> 16) & 1 == 1;
    let mut s = format!("{axis}:{parts}");
    let axis2 = (code >> 17) & 0x3;
    if axis2 != 0 {
        let parts2 = (code >> 19) & 0xff;
        s.push_str(&format!("×{}:{parts2}", axis_char(axis2)));
    }
    if weighted {
        s.push_str(":w");
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_roundtrips_through_decode() {
        for (strategy, text) in [
            (PartitionStrategy::even(SplitAxis::X, 1), "x:1"),
            (PartitionStrategy::even(SplitAxis::Y, 4), "y:4"),
            (
                PartitionStrategy::weighted(SplitAxis::Z, vec![2.0, 1.0]),
                "z:2:w",
            ),
            (
                PartitionStrategy::tiled(SplitAxis::Y, 2, SplitAxis::X, 2),
                "y:2×x:2",
            ),
            (
                PartitionStrategy::tiled(SplitAxis::X, 4, SplitAxis::Z, 2),
                "x:4×z:2",
            ),
            (
                PartitionStrategy {
                    axis: SplitAxis::Y,
                    shares: vec![2.0, 1.0],
                    axis2: Some(SplitAxis::X),
                    shares2: vec![1.0, 1.0],
                },
                "y:2×x:2:w",
            ),
        ] {
            assert_eq!(strategy.describe(), text);
            assert_eq!(decode_strategy(strategy.encode()).as_deref(), Some(text));
        }
        assert_eq!(decode_strategy(0), None);
    }

    #[test]
    fn tiled_encodings_do_not_collide_with_1d() {
        // Every tiled encoding has bits 17+ set; every 1-D encoding has
        // them clear — the spaces are disjoint by construction.
        let tiled = PartitionStrategy::tiled(SplitAxis::Y, 2, SplitAxis::X, 2);
        assert!(tiled.encode() >> 17 != 0);
        for axis in [SplitAxis::Z, SplitAxis::Y, SplitAxis::X] {
            for n in 1..=8 {
                let s = PartitionStrategy::even(axis, n);
                assert_eq!(s.encode() >> 17, 0);
                assert_ne!(s.encode(), tiled.encode());
            }
        }
        // The 1-D bits of a tiling still decode to its first axis.
        assert_eq!(tiled.encode() & 0xff, 2); // y
        assert_eq!((tiled.encode() >> 8) & 0xff, 2); // 2 slices
    }

    #[test]
    fn equal_shares_are_not_weighted() {
        assert!(!PartitionStrategy::even(SplitAxis::Y, 8).is_weighted());
        assert!(PartitionStrategy::weighted(SplitAxis::Y, vec![1.0, 1.0 + 1e-3]).is_weighted());
        assert!(!PartitionStrategy::tiled(SplitAxis::Y, 2, SplitAxis::X, 3).is_weighted());
    }

    #[test]
    fn tiled_weighted_shares_size_the_lattice() {
        let s = PartitionStrategy::tiled_weighted(
            SplitAxis::Y,
            vec![3.0, 1.0],
            SplitAxis::X,
            vec![1.0, 1.0],
        );
        assert!(s.is_tiled() && s.is_weighted());
        assert_eq!(s.n_parts(), 4);
        assert_eq!(s.describe(), "y:2×x:2:w");
        assert_eq!(decode_strategy(s.encode()).as_deref(), Some("y:2×x:2:w"));
        let parts = s.partitions(Dim3::new2(8, 16));
        assert_eq!(parts.len(), 4);
        // 3:1 y shares over 16 rows: the top row of tiles gets 12.
        assert_eq!(parts[0].hi[1] - parts[0].lo[1], 12);
        assert_eq!(parts[2].hi[1] - parts[2].lo[1], 4);
        // Equal x shares cut each row in half.
        assert_eq!(parts[0].hi[2] - parts[0].lo[2], 4);
    }

    #[test]
    fn partitions_follow_shares() {
        let s = PartitionStrategy::weighted(SplitAxis::Y, vec![3.0, 1.0]);
        let parts = s.partitions(Dim3::new2(8, 16));
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].hi[1] - parts[0].lo[1], 12);
        assert_eq!(parts[1].hi[1] - parts[1].lo[1], 4);
    }

    #[test]
    fn tiled_partitions_form_a_lattice() {
        let s = PartitionStrategy::tiled(SplitAxis::Y, 2, SplitAxis::X, 2);
        assert_eq!(s.n_parts(), 4);
        assert_eq!(s.split_axes(), vec![SplitAxis::Y, SplitAxis::X]);
        let parts = s.partitions(Dim3::new2(8, 6));
        assert_eq!(parts.len(), 4);
        // Row-major over (y, x): device 1 shares device 0's y slice.
        assert_eq!(parts[0].lo, [0, 0, 0]);
        assert_eq!(parts[0].hi, [1, 3, 4]);
        assert_eq!(parts[1].lo, [0, 0, 4]);
        assert_eq!(parts[2].lo, [0, 3, 0]);
        let total: u64 = parts.iter().map(|p| p.block_count()).sum();
        assert_eq!(total, 48);
    }
}
