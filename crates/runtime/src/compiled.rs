//! The per-kernel artifact the compile pipeline produces: model +
//! partitioned clone + compiled enumerators.

use crate::{Result, RuntimeError};
use mekong_analysis::{analyze_kernel, KernelModel};
use mekong_check::AxisMask;
use mekong_enumgen::KernelEnumerators;
use mekong_kernel::Kernel;
use mekong_partition::partition_kernel;

/// Everything the runtime needs to run one kernel on multiple devices:
/// the §4 application model, the §7 partitioned clone, and the §6
/// enumerators.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The unmodified kernel (single-device fallback path).
    pub original: Kernel,
    /// The partition-aware clone (six extra scalar parameters).
    pub partitioned: Kernel,
    /// The application-model record.
    pub model: KernelModel,
    /// Compiled read/write enumerators per array argument.
    pub enums: KernelEnumerators,
    /// Split axes with a static write-disjointness proof (mekong-check).
    /// The launch path refuses — or, with enforcement off, warns and
    /// counts — partitionings along a cleared axis, and the autotuner
    /// never enumerates candidates along one.
    pub safe_axes: AxisMask,
}

impl CompiledKernel {
    /// Run the device-side pipeline for one kernel: polyhedral analysis,
    /// partition transform, enumerator generation.
    ///
    /// Succeeds even for kernels that fail the §4 soundness checks — the
    /// verdict lives in `model.verdict`, and the runtime refuses
    /// multi-device launches for those (single-device execution remains
    /// available).
    pub fn compile(kernel: &Kernel) -> Result<CompiledKernel> {
        let model = analyze_kernel(kernel)
            .map_err(|e| RuntimeError::BadArgument(format!("analysis failed: {e}")))?;
        Self::from_model(kernel, model)
    }

    /// Build the artifacts from an existing model record — the pass-2
    /// path, where the model is the one pass 1 built (possibly adjusted
    /// by programmer annotations, §11) or one read back from its export.
    pub fn from_model(kernel: &Kernel, model: KernelModel) -> Result<CompiledKernel> {
        debug_assert_eq!(model.kernel_name, kernel.name);
        let enums = KernelEnumerators::build(&model)?;
        let safe_axes = mekong_check::safe_axes(&model).map_err(|e| {
            RuntimeError::BadArgument(format!("partition-safety check failed: {e}"))
        })?;
        Ok(CompiledKernel {
            original: kernel.clone(),
            partitioned: partition_kernel(kernel),
            model,
            enums,
            safe_axes,
        })
    }

    /// Is multi-device execution allowed for this kernel?
    pub fn is_partitionable(&self) -> bool {
        self.model.verdict.is_partitionable()
    }

    /// Cumulative `(hits, misses)` of the enumerator range memo across
    /// all read/write enumerators of this kernel. Every
    /// [`footprint_bytes`](Self::footprint_bytes) call and every
    /// cache-missing launch queries the memo; iterative workloads should
    /// show hits ≫ misses.
    pub fn range_cache_stats(&self) -> (u64, u64) {
        self.enums.range_cache_stats()
    }

    /// The polyhedral memory footprint of one partition, in bytes: the
    /// unique array elements the partition reads or writes, per the access
    /// maps. Used as the bandwidth term of the simulator's roofline (a
    /// perfect-reuse traffic estimate).
    pub fn footprint_bytes(
        &self,
        part: &mekong_partition::Partition,
        block: mekong_kernel::Dim3,
        grid: mekong_kernel::Dim3,
        scalars: &[i64],
    ) -> u64 {
        let mut total = 0u64;
        let names = &self.enums.scalar_names;
        let elem_size = |idx: usize| -> u64 {
            match &self.model.args[idx] {
                mekong_analysis::ArgModel::Array { elem, .. } => elem.size_bytes() as u64,
                _ => 0,
            }
        };
        for (idx, e) in self.enums.reads.iter().chain(self.enums.writes.iter()) {
            let es = elem_size(*idx);
            e.for_each_range(part, block, grid, names, scalars, &mut |r| {
                total += r.len() * es;
            });
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_kernel::builder::*;

    #[test]
    fn compile_produces_all_artifacts() {
        let k = Kernel {
            name: "scale".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[ext("n")]),
                array_f32("b", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("b", vec![v("i")], load("a", vec![v("i")]) * f(3.0)),
            ],
        };
        let ck = CompiledKernel::compile(&k).unwrap();
        assert!(ck.is_partitionable());
        // The identity write is proven disjoint along its suggested axis.
        assert!(ck.safe_axes.allows(ck.model.partitioning));
        assert_eq!(ck.partitioned.params.len(), k.params.len() + 6);
        assert!(ck.enums.read_of(1).is_some());
        assert!(ck.enums.write_of(2).is_some());
        assert!(ck.enums.write_of(1).is_none());
    }

    #[test]
    fn footprint_queries_feed_the_range_memo() {
        use mekong_kernel::Dim3;
        use mekong_partition::Partition;
        let k = Kernel {
            name: "scale".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[ext("n")]),
                array_f32("b", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("b", vec![v("i")], load("a", vec![v("i")]) * f(3.0)),
            ],
        };
        let ck = CompiledKernel::compile(&k).unwrap();
        let (grid, block) = (Dim3::new1(4), Dim3::new1(64));
        let part = Partition::whole(grid);
        let f1 = ck.footprint_bytes(&part, block, grid, &[256]);
        let (h0, m0) = ck.range_cache_stats();
        assert_eq!(h0, 0, "first walk cannot hit");
        assert!(m0 > 0, "first walk must populate the memo");
        let f2 = ck.footprint_bytes(&part, block, grid, &[256]);
        assert_eq!(f1, f2);
        let (h1, m1) = ck.range_cache_stats();
        assert_eq!(m1, m0, "second identical walk must not miss");
        assert!(h1 > 0, "second identical walk must hit");
    }

    #[test]
    fn unpartitionable_kernel_still_compiles() {
        let k = Kernel {
            name: "allzero".into(),
            params: vec![scalar("n"), array_f32("out", &[ext("n")])],
            body: vec![store("out", vec![i(0)], f(1.0))],
        };
        let ck = CompiledKernel::compile(&k).unwrap();
        assert!(!ck.is_partitionable());
        assert_eq!(ck.safe_axes, AxisMask::none());
    }
}
