//! # mekong-partition — kernel partitioning (paper §7)
//!
//! A thread-grid *partition* is a 3-tuple of half-open block-index
//! intervals `((min_z, max_z), (min_y, max_y), (min_x, max_x))`. Kernels
//! are transformed so a clone executes only the blocks inside its
//! partition:
//!
//! ```text
//! blockIdx.w  →  partition.min_w + blockIdx.w        (eq. 8)
//! gridDim.w   →  grid_w  (the whole launch grid; eq. 9 says max_w)
//! gridConf.w  =  partition.max_w − partition.min_w   (eq. 10)
//! ```
//!
//! The transform clones the kernel, appends six scalar parameters — the
//! partition's lower bounds and the whole grid's extents
//! ([`Partition::clone_args`]) — and applies the two substitution
//! rules. The launch side (runtime) must size the grid per eq. 10.
//! `gridDim` keeps meaning the whole grid, as it does in the §4 access
//! model, the checker and the enumerators; eq. 9's `max_w` would make
//! every partition's last block look like the grid's last block.

pub mod split;
pub mod transform;

pub use split::{
    allocate_blocks, partition_grid, partition_grid_rect, partition_grid_weighted, Partition,
};
pub use transform::{partition_kernel, PART_PARAMS};
