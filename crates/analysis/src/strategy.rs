//! Partitioning-strategy suggestion (the "suggested partitioning
//! strategy" stored per kernel record, paper §4).
//!
//! Heuristic: pick the grid axis whose variation moves the written image
//! along the *outermost* array dimension. Splitting that axis yields
//! partitions whose write sets are contiguous row blocks — a single
//! tracker segment per partition in the common case (paper §8.1).

use crate::model::ArgModel;
use crate::space::N_MAP_IN;
use serde::{Deserialize, Serialize};

/// Grid axis to split the thread grid along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitAxis {
    X,
    Y,
    Z,
}

impl SplitAxis {
    /// Index in the paper's `[z, y, x]` tuple order.
    pub fn zyx_index(self) -> usize {
        match self {
            SplitAxis::Z => 0,
            SplitAxis::Y => 1,
            SplitAxis::X => 2,
        }
    }
}

impl std::fmt::Display for SplitAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitAxis::X => write!(f, "x"),
            SplitAxis::Y => write!(f, "y"),
            SplitAxis::Z => write!(f, "z"),
        }
    }
}

/// Suggest the grid axis to split, from the write maps of the kernel's
/// array arguments.
pub fn suggest_split(args: &[ArgModel]) -> SplitAxis {
    // Score per axis (z, y, x): which grid axis co-occurs with output
    // dimension 0 (the outermost, slowest-varying array dim) in the write
    // map constraints?
    let mut scores = [0usize; 3];
    for a in args {
        if let ArgModel::Array {
            write: Some(acc), ..
        } = a
        {
            let rel = acc.map.relation();
            let out0 = N_MAP_IN; // first output dim
            for piece in rel.pieces() {
                for c in piece.constraints() {
                    if c.expr.coeffs.get(out0).copied().unwrap_or(0) == 0 {
                        continue;
                    }
                    // Input dims: bo (0..3) and bi (3..6), in z,y,x order.
                    for (axis, score) in scores.iter_mut().enumerate() {
                        if c.expr.coeffs[axis] != 0 || c.expr.coeffs[3 + axis] != 0 {
                            *score += 1;
                        }
                    }
                }
            }
        }
    }
    // Highest score wins; ties break toward X (the innermost grid axis,
    // always present in 1-D launches).
    let best = scores
        .iter()
        .enumerate()
        .max_by_key(|&(i, s)| (*s, i)) // i: prefer x (=2) on ties
        .map(|(i, _)| i)
        .unwrap_or(2);
    match best {
        0 => SplitAxis::Z,
        1 => SplitAxis::Y,
        _ => SplitAxis::X,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ArrayAccess;
    use mekong_kernel::{Extent, ScalarTy};
    use mekong_poly::Map;

    fn arg_with_write(map_text: &str) -> ArgModel {
        ArgModel::Array {
            name: "out".into(),
            elem: ScalarTy::F32,
            extents: vec![Extent::Param("n".into()), Extent::Param("n".into())],
            read: None,
            write: Some(ArrayAccess {
                map: Map::parse(map_text).unwrap(),
                exact: true,
                may: false,
                interval: false,
            }),
        }
    }

    #[test]
    fn row_writes_suggest_y_split() {
        // r (outermost) coupled to boy -> split the y axis.
        let a = arg_with_write(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [r, c] : \
               boy <= r and r < boy + bdy and box <= c and c < box + bdx }",
        );
        assert_eq!(suggest_split(&[a]), SplitAxis::Y);
    }

    #[test]
    fn flat_writes_suggest_x_split() {
        let a = arg_with_write(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             { [boz, boy, box, biz, biy, bix] -> [e] : \
               box <= e and e < box + bdx }",
        );
        assert_eq!(suggest_split(&[a]), SplitAxis::X);
    }

    #[test]
    fn no_writes_default_to_x() {
        assert_eq!(suggest_split(&[]), SplitAxis::X);
    }
}
