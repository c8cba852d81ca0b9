//! Dimension/parameter layout of the analysis space.

use mekong_kernel::{Axis, Kernel, KernelParam};
use mekong_poly::{Constraint, LinExpr, Polyhedron};

/// Number of map input dimensions after threadIdx projection: `[boz, boy,
/// box, biz, biy, bix]`.
pub const N_MAP_IN: usize = 6;

/// Number of grid dimensions during extraction (bo, bi, ti).
pub const N_GRID_DIMS: usize = 9;

/// Offset of the blockDim parameters in the parameter list.
pub const BD_OFF: usize = 0;

/// Offset of the gridDim parameters in the parameter list.
pub const GD_OFF: usize = 3;

/// Number of fixed (non-scalar) parameters: `bdz bdy bdx gdz gdy gdx`.
pub const N_FIXED_PARAMS: usize = 6;

/// Bookkeeping for the space access maps are extracted in.
///
/// During extraction the dimensions are
/// `[boz boy box | biz biy bix | tiz tiy tix | loop dims…]` and the
/// parameters `[bdz bdy bdx gdz gdy gdx | scalar kernel params…]`.
#[derive(Debug, Clone)]
pub struct AnalysisSpace {
    /// Scalar kernel parameter names, in kernel parameter order.
    pub scalar_names: Vec<String>,
}

impl AnalysisSpace {
    /// Build the space for a kernel.
    pub fn for_kernel(kernel: &Kernel) -> AnalysisSpace {
        AnalysisSpace {
            scalar_names: kernel
                .params
                .iter()
                .filter_map(|p| match p {
                    KernelParam::Scalar { name, .. } => Some(name.clone()),
                    _ => None,
                })
                .collect(),
        }
    }

    /// Number of parameters (fixed + scalars).
    pub fn n_params(&self) -> usize {
        N_FIXED_PARAMS + self.scalar_names.len()
    }

    /// Parameter index of a scalar kernel parameter.
    pub fn scalar_param_index(&self, name: &str) -> Option<usize> {
        self.scalar_names
            .iter()
            .position(|n| n == name)
            .map(|i| N_FIXED_PARAMS + i)
    }

    /// Dim index of `blockOff.w` in the extraction space.
    pub(crate) fn bo_dim(&self, axis: Axis) -> usize {
        axis.zyx_index()
    }

    /// Dim index of `blockIdx.w`.
    pub(crate) fn bi_dim(&self, axis: Axis) -> usize {
        3 + axis.zyx_index()
    }

    /// Dim index of `threadIdx.w`.
    pub(crate) fn ti_dim(&self, axis: Axis) -> usize {
        6 + axis.zyx_index()
    }

    /// Parameter index of `blockDim.w`.
    pub(crate) fn bd_param(&self, axis: Axis) -> usize {
        BD_OFF + axis.zyx_index()
    }

    /// Parameter index of `gridDim.w`.
    pub(crate) fn gd_param(&self, axis: Axis) -> usize {
        GD_OFF + axis.zyx_index()
    }

    /// A `LinExpr` for one variable, given the current total dim count
    /// (grid dims + live loop dims). Parameters sit after all dims.
    pub fn var(&self, n_dims: usize, dim: usize) -> LinExpr {
        LinExpr::var(n_dims + self.n_params(), dim)
    }

    /// A `LinExpr` for a parameter.
    pub fn param(&self, n_dims: usize, param: usize) -> LinExpr {
        LinExpr::var(n_dims + self.n_params(), n_dims + param)
    }

    /// Base domain constraints of the extraction space (width for
    /// `n_dims` dims): `0 ≤ bi < gd`, `0 ≤ ti < bd`, `bo ≥ 0`.
    pub(crate) fn base_domain(&self, n_dims: usize) -> Vec<Constraint> {
        let mut cs = Vec::new();
        for axis in Axis::ALL {
            let bo = self.var(n_dims, self.bo_dim(axis));
            let bi = self.var(n_dims, self.bi_dim(axis));
            let ti = self.var(n_dims, self.ti_dim(axis));
            let bd = self.param(n_dims, self.bd_param(axis));
            let gd = self.param(n_dims, self.gd_param(axis));
            cs.push(Constraint::ge0(bo));
            cs.push(Constraint::ge0(bi.clone()));
            cs.push(Constraint::lt(&bi, &gd).unwrap());
            cs.push(Constraint::ge0(ti.clone()));
            cs.push(Constraint::lt(&ti, &bd).unwrap());
        }
        cs
    }

    /// The parameter context used for symbolic checks: all block/grid
    /// extents at least 1 (a launch always has ≥1 block and thread).
    pub fn param_context(&self) -> Polyhedron {
        let np = self.n_params();
        let mut ctx = Polyhedron::universe(0, np);
        let one = LinExpr::constant(np, 1);
        for i in 0..N_FIXED_PARAMS {
            let p = LinExpr::var(np, i);
            ctx.add_constraint(Constraint::ge(&p, &one).unwrap());
        }
        ctx
    }

    /// Human-readable names of the map input dims (paper order).
    pub(crate) fn map_in_names() -> [&'static str; N_MAP_IN] {
        ["boz", "boy", "box", "biz", "biy", "bix"]
    }

    /// Human-readable parameter names.
    pub fn param_names(&self) -> Vec<String> {
        let mut names: Vec<String> = ["bdz", "bdy", "bdx", "gdz", "gdy", "gdx"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        names.extend(self.scalar_names.iter().cloned());
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_kernel::builder::*;
    use mekong_kernel::{Extent, Kernel};

    fn k() -> Kernel {
        Kernel {
            name: "t".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[Extent::Param("n".into())]),
                scalar("m"),
            ],
            body: vec![],
        }
    }

    #[test]
    fn layout_indices() {
        let s = AnalysisSpace::for_kernel(&k());
        assert_eq!(s.scalar_names, vec!["n".to_string(), "m".to_string()]);
        assert_eq!(s.n_params(), 8);
        assert_eq!(s.scalar_param_index("n"), Some(6));
        assert_eq!(s.scalar_param_index("m"), Some(7));
        assert_eq!(s.bo_dim(Axis::X), 2);
        assert_eq!(s.bi_dim(Axis::Z), 3);
        assert_eq!(s.ti_dim(Axis::X), 8);
        assert_eq!(s.bd_param(Axis::X), 2);
        assert_eq!(s.gd_param(Axis::Z), 3);
    }

    #[test]
    fn base_domain_has_bounds() {
        let s = AnalysisSpace::for_kernel(&k());
        let cs = s.base_domain(N_GRID_DIMS);
        // 5 constraints per axis.
        assert_eq!(cs.len(), 15);
    }

    #[test]
    fn param_context_is_positive() {
        let s = AnalysisSpace::for_kernel(&k());
        let ctx = s.param_context();
        // All fixed params >= 1: 6 constraints.
        assert_eq!(ctx.constraints().len(), 6);
    }
}
