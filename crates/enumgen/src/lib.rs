//! # mekong-enumgen — polyhedral communication code generation (paper §6)
//!
//! Turns the access maps of the application model into **enumerator
//! functions**: callables that, given a grid partition and the kernel's
//! scalar arguments, report the accessed array elements as *row ranges*
//! (first/last element per array row, §6.1) and as linearized element
//! ranges the runtime feeds into the buffer tracker.
//!
//! ## Parameter interface (paper §6.2)
//!
//! The generated function takes the partition (a 6-dimensional box spanned
//! by `blockOff` and `blockIdx` bounds) and the scalar arguments, all as
//! 64-bit integers, and reports each element range through a callback —
//! no dynamic allocation on the hot path.
//!
//! Internally the partition bounds become **12 extra parameters** appended
//! to the map's parameter list (`bo_lo[3], bo_hi[3], bi_lo[3], bi_hi[3]`),
//! the map's six inputs are constrained into that box, the inputs are
//! projected out, and the resulting image set is compiled into a
//! [`mekong_poly::Enumerator`].

use mekong_analysis::{AnalysisSpace, ArgModel, KernelModel, N_MAP_IN};
use mekong_kernel::{Dim3, Extent};
use mekong_partition::Partition;
use mekong_poly::{Constraint, Enumerator, LinExpr, Map, PolyError, Set, Space};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of partition-box parameters appended to the map parameters.
pub(crate) const N_PART_PARAMS: usize = 12;

/// A compiled enumerator for one (kernel, argument, read|write) triple.
#[derive(Debug, Clone)]
pub struct AccessEnumerator {
    enumerator: Enumerator,
    /// Array extents (outermost first) for linearization.
    extents: Vec<Extent>,
    /// Number of original map parameters (fixed + scalars).
    n_orig_params: usize,
    exact: bool,
    /// Memoized merged ranges per concrete parameter vector. Iterative
    /// applications (Hotspot: 1500 launches with identical geometry)
    /// re-enumerate the same sets every launch; the *model* cost is still
    /// charged per launch, but the simulator need not redo the scan.
    cache: RangeCache,
}

/// Merged-range memo, keyed by the concrete parameter vector. Shared by
/// all clones of an enumerator (the runtime clones `KernelEnumerators`
/// into each compiled kernel).
type RangeCache = Arc<RangeCacheInner>;

/// Backing store of the range memo plus hit/miss counters, so the memo's
/// effectiveness is observable (asserted in the iterative-stencil test and
/// reported by the ablation benches).
#[derive(Debug, Default)]
struct RangeCacheInner {
    map: Mutex<HashMap<Vec<i64>, Arc<[ElemRange]>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RangeCacheInner {
    /// The memo, recovering a poisoned lock: a lookup or insert is one
    /// step, so a panicking holder cannot leave it half-updated.
    fn memo(&self) -> MutexGuard<'_, HashMap<Vec<i64>, Arc<[ElemRange]>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One linearized element range `[start, end)` (in elements, not bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElemRange {
    pub start: u64,
    pub end: u64,
}

impl ElemRange {
    /// Number of elements covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Is the range empty?
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

impl AccessEnumerator {
    /// Compile the enumerator for an access map.
    ///
    /// `map` is the model's `Z^6 → Z^d` access map with parameters
    /// `[bd(3), gd(3), scalars...]`; `extents` are the array's dimension
    /// sizes.
    pub fn build(map: &Map, extents: &[Extent]) -> Result<AccessEnumerator, PolyError> {
        assert_eq!(map.n_in(), N_MAP_IN);
        let d = map.n_out();
        assert_eq!(extents.len(), d);
        let n_orig_params = map.n_params();

        // Append the 12 partition parameters; existing constraints keep
        // their meaning (coefficients extend with zeros).
        let rel = map.relation();
        let mut param_names: Vec<String> = rel.space().param_names().to_vec();
        for pfx in ["bo_lo", "bo_hi", "bi_lo", "bi_hi"] {
            for ax in ["z", "y", "x"] {
                param_names.push(format!("__{pfx}_{ax}"));
            }
        }
        let n_dims = N_MAP_IN + d;
        let width = n_dims + n_orig_params + N_PART_PARAMS;

        let widen = |p: &mekong_poly::Polyhedron| {
            let mut out = mekong_poly::Polyhedron::universe(n_dims, n_orig_params + N_PART_PARAMS);
            for c in p.constraints() {
                let mut coeffs = vec![0i64; width];
                coeffs[..n_dims + n_orig_params].copy_from_slice(&c.expr.coeffs);
                out.add_constraint(Constraint {
                    kind: c.kind,
                    expr: LinExpr {
                        coeffs,
                        konst: c.expr.konst,
                    },
                });
            }
            out
        };

        // Partition box constraints on the six inputs: paper §6 — "the
        // partition is described as a 6-dimensional box spanned between two
        // tuples of blockOff and blockId".
        let part_param = |group: usize, axis: usize| -> LinExpr {
            LinExpr::var(width, n_dims + n_orig_params + group * 3 + axis)
        };
        let mut pieces = Vec::with_capacity(rel.pieces().len());
        for p in rel.pieces() {
            let mut q = widen(p);
            for axis in 0..3 {
                // blockOff dims 0..3. The offsets of the partition's blocks
                // are { bi·bd : bi_lo ≤ bi < bi_hi }; the tightest affine
                // superset is bo_lo ≤ bo ≤ bo_hi − bd (the offset of the
                // partition's *last* block). Using bo < bo_hi instead would
                // admit non-multiple interior offsets and over-approximate
                // the image by up to one block row (the affine residue of
                // the non-affine coupling blockOff = blockIdx·blockDim,
                // §4.1).
                let bo = LinExpr::var(width, axis);
                let bd = LinExpr::var(width, n_dims + axis);
                q.add_constraint(Constraint::ge(&bo, &part_param(0, axis)).unwrap());
                let last_off = part_param(1, axis).sub(&bd).unwrap();
                q.add_constraint(Constraint::le(&bo, &last_off).unwrap());
                // blockIdx dims 3..6
                let bi = LinExpr::var(width, 3 + axis);
                q.add_constraint(Constraint::ge(&bi, &part_param(2, axis)).unwrap());
                q.add_constraint(Constraint::lt(&bi, &part_param(3, axis)).unwrap());
            }
            pieces.push(q);
        }
        // Clip outputs to the array bounds: reads may over-approximate
        // beyond the array (e.g. clamped-boundary stencils expressed with
        // selects); accesses outside the allocation are UB in the original
        // program, so intersecting is always sound. §6's "dimension sizes
        // of all arrays" serve exactly this purpose.
        for q in &mut pieces {
            for (j, ext) in extents.iter().enumerate() {
                let out_v = LinExpr::var(width, N_MAP_IN + j);
                let hi = match ext {
                    Extent::Const(c) => LinExpr::constant(width, *c),
                    Extent::Param(name) => {
                        let idx = param_names
                            .iter()
                            .position(|n| n == name)
                            .expect("extent parameter must be a map parameter");
                        LinExpr::var(width, n_dims + idx)
                    }
                };
                q.add_constraint(Constraint::ge0(out_v.clone()));
                q.add_constraint(Constraint::lt(&out_v, &hi).unwrap());
            }
        }
        let space = Space::from_names(rel.space().dim_names().to_vec(), param_names);
        let boxed = Set::from_pieces(space, pieces);
        let mut image = boxed.project_out_dims(0..N_MAP_IN)?;
        if !map.is_exact() {
            image.set_inexact();
        }
        let exact = image.is_exact() && map.is_exact();
        let enumerator = Enumerator::build(&image)?;
        Ok(AccessEnumerator {
            enumerator,
            extents: extents.to_vec(),
            n_orig_params,
            exact,
            cache: Arc::new(RangeCacheInner::default()),
        })
    }

    /// Whether the enumerated set is exact (write maps require this).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// The compiled scan program of the image set.
    pub fn enumerator(&self) -> &Enumerator {
        &self.enumerator
    }

    /// Assemble the enumerator's full parameter vector: `[bd, gd, scalars |
    /// bo_lo, bo_hi, bi_lo, bi_hi]`.
    pub fn params_vec(
        &self,
        partition: &Partition,
        block_dim: Dim3,
        grid_dim: Dim3,
        scalars: &[i64],
    ) -> Vec<i64> {
        let mut params = Vec::with_capacity(self.n_orig_params + N_PART_PARAMS);
        params.extend_from_slice(&block_dim.zyx());
        params.extend_from_slice(&grid_dim.zyx());
        params.extend_from_slice(scalars);
        assert_eq!(
            params.len(),
            self.n_orig_params,
            "scalar argument count mismatch"
        );
        let (bo_lo, bo_hi) = partition.block_off_bounds(block_dim);
        params.extend_from_slice(&bo_lo);
        params.extend_from_slice(&bo_hi);
        params.extend_from_slice(&partition.lo);
        params.extend_from_slice(&partition.hi);
        params
    }

    /// Concrete array extents from scalar argument values.
    pub fn concrete_extents(&self, scalar_names: &[String], scalars: &[i64]) -> Vec<i64> {
        self.extents
            .iter()
            .map(|e| match e {
                Extent::Const(c) => *c,
                Extent::Param(name) => {
                    let idx = scalar_names
                        .iter()
                        .position(|n| n == name)
                        .expect("extent parameter not found among kernel scalars");
                    scalars[idx]
                }
            })
            .collect()
    }

    /// Enumerate the accessed elements of one partition as **linearized
    /// element ranges**, sorted, disjoint and non-adjacent, one callback
    /// per range.
    ///
    /// `scalars` are the kernel's scalar arguments as 64-bit integers in
    /// declaration order; `scalar_names` names them (for extent lookup).
    #[allow(clippy::too_many_arguments)]
    pub fn for_each_range(
        &self,
        partition: &Partition,
        block_dim: Dim3,
        grid_dim: Dim3,
        scalar_names: &[String],
        scalars: &[i64],
        f: &mut dyn FnMut(ElemRange),
    ) {
        self.ranges_merged(partition, block_dim, grid_dim, scalar_names, scalars)
            .iter()
            .for_each(|r| f(*r));
    }

    /// `(hits, misses)` of this enumerator's range memo, accumulated over
    /// every clone sharing the cache.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        (
            self.cache.hits.load(Ordering::Relaxed),
            self.cache.misses.load(Ordering::Relaxed),
        )
    }

    /// The ranges [`AccessEnumerator::for_each_range`] reports, as the
    /// memo's own shared slice: a repeated call with the same geometry
    /// and scalars scans and allocates nothing.
    pub fn ranges_merged(
        &self,
        partition: &Partition,
        block_dim: Dim3,
        grid_dim: Dim3,
        scalar_names: &[String],
        scalars: &[i64],
    ) -> Arc<[ElemRange]> {
        let params = self.params_vec(partition, block_dim, grid_dim, scalars);
        if let Some(cached) = self.cache.memo().get(&params).cloned() {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        let exts = self.concrete_extents(scalar_names, scalars);
        let merged: Arc<[ElemRange]> = self.scan_ranges(&params, &exts).into();
        self.cache.memo().insert(params, merged.clone());
        merged
    }

    /// Scan the image for `params` and linearize it row-major over the
    /// concrete extents `exts`: sorted, overlapping and adjacent ranges
    /// fused, clamped to the array's element count.
    fn scan_ranges(&self, params: &[i64], exts: &[i64]) -> Vec<ElemRange> {
        let (outer, row_len) = exts.split_at(exts.len() - 1);
        let row_len = row_len[0] as i128;
        // Hostile extents must not wrap into a plausible range: all
        // linearization is done in `i128` and clamped to the element count.
        let total = exts
            .iter()
            .try_fold(1i128, |n, &e| n.checked_mul(e.max(0) as i128))
            .map_or(u64::MAX, |n| u64::try_from(n).unwrap_or(u64::MAX));
        let clamp = |v: i128| v.clamp(0, total as i128) as u64;
        let mut ranges: Vec<ElemRange> = Vec::new();
        let mut push = |start: i128, end: i128| {
            let (start, end) = (clamp(start), clamp(end));
            if start < end {
                ranges.push(ElemRange { start, end });
            }
        };
        self.enumerator.for_each_run(params, &mut |run| {
            debug_assert_eq!(run.prefix.len(), outer.len());
            // Row-major: the prefix fixes the row, rows of a run are
            // consecutive.
            let row = run.prefix.iter().zip(outer).fold(0i128, |row, (&p, &ext)| {
                row.saturating_mul(ext as i128).saturating_add(p as i128)
            });
            let elem = |i: i128, x: i128| {
                row.saturating_add(i)
                    .saturating_mul(row_len)
                    .saturating_add(x)
            };
            // Clamp defensively against over-approximated rows outside the
            // array (read sets may over-approximate).
            let lo = (run.lo as i128).max(0).min(row_len);
            let hi = (run.hi as i128).max(-1).min(row_len - 1);
            if lo > hi {
                return;
            }
            let count = run.count as i128;
            if lo == 0 && hi == row_len - 1 {
                // Full rows: the whole run is one contiguous range.
                push(elem(0, 0), elem(count, 0));
            } else {
                for i in 0..count {
                    push(elem(i, lo), elem(i, hi + 1));
                }
            }
        });
        // Sort + merge across pieces: overlapping halo pieces fuse, and a
        // union of single-column pieces (e.g. `posm[j][0..3]` recorded as
        // four maps) fuses into whole rows only after sorting.
        ranges.sort_by_key(|r| r.start);
        ranges.dedup_by(|r, last| {
            let fuse = r.start <= last.end;
            if fuse {
                last.end = last.end.max(r.end);
            }
            fuse
        });
        ranges
    }

    /// Render the generated scan program (for inspection/tests).
    pub fn to_pseudo_c(&self) -> String {
        let d = self.extents.len();
        let dims: Vec<String> = (0..d).map(|j| format!("e{j}")).collect();
        let params: Vec<String> = (0..self.n_orig_params + N_PART_PARAMS)
            .map(|j| format!("p{j}"))
            .collect();
        self.enumerator.to_pseudo_c(&dims, &params)
    }
}

/// All enumerators of one kernel, ready for the runtime: per array
/// argument index, the read and write enumerators (paper §6.2 naming:
/// `<kernel>_<argpos>_<read|write>`).
#[derive(Debug, Clone, Default)]
pub struct KernelEnumerators {
    /// `(arg index, read enumerator)` pairs.
    pub reads: Vec<(usize, AccessEnumerator)>,
    /// `(arg index, write enumerator)` pairs.
    pub writes: Vec<(usize, AccessEnumerator)>,
    /// Scalar parameter names (extent resolution).
    pub scalar_names: Vec<String>,
}

impl KernelEnumerators {
    /// Compile every access map of a kernel model.
    pub fn build(model: &KernelModel) -> Result<KernelEnumerators, PolyError> {
        let mut out = KernelEnumerators {
            scalar_names: model.scalar_params.clone(),
            ..Default::default()
        };
        for (idx, arg) in model.args.iter().enumerate() {
            if let ArgModel::Array {
                extents,
                read,
                write,
                ..
            } = arg
            {
                if let Some(acc) = read {
                    out.reads
                        .push((idx, AccessEnumerator::build(&acc.map, extents)?));
                }
                if let Some(acc) = write {
                    out.writes
                        .push((idx, AccessEnumerator::build(&acc.map, extents)?));
                }
            }
        }
        Ok(out)
    }

    /// Read enumerator of argument `idx`, if the kernel reads it.
    pub fn read_of(&self, idx: usize) -> Option<&AccessEnumerator> {
        self.reads.iter().find(|(i, _)| *i == idx).map(|(_, e)| e)
    }

    /// Write enumerator of argument `idx`, if the kernel writes it.
    pub fn write_of(&self, idx: usize) -> Option<&AccessEnumerator> {
        self.writes.iter().find(|(i, _)| *i == idx).map(|(_, e)| e)
    }

    /// Aggregate `(hits, misses)` of the range memos across every read and
    /// write enumerator of this kernel.
    pub fn range_cache_stats(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for (_, e) in self.reads.iter().chain(self.writes.iter()) {
            let (h, m) = e.cache_stats();
            hits += h;
            misses += m;
        }
        (hits, misses)
    }
}

/// Convenience: the analysis space of a kernel (so runtime code can build
/// parameter vectors without depending on the analysis internals).
pub fn analysis_space_of(model: &KernelModel) -> AnalysisSpace {
    AnalysisSpace {
        scalar_names: model.scalar_params.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_analysis::analyze_kernel;
    use mekong_kernel::builder::*;
    use mekong_kernel::Kernel;
    use mekong_partition::partition_grid;

    fn vadd_model() -> KernelModel {
        let k = Kernel {
            name: "vadd".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[ext("n")]),
                array_f32("c", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("c", vec![v("i")], load("a", vec![v("i")]) * f(2.0)),
            ],
        };
        analyze_kernel(&k).unwrap()
    }

    #[test]
    fn vadd_partition_ranges_are_contiguous() {
        let model = vadd_model();
        let ens = KernelEnumerators::build(&model).unwrap();
        let wr = ens.write_of(2).unwrap();
        assert!(wr.is_exact());
        let block = Dim3::new1(32);
        let grid = Dim3::new1(8); // 256 threads
        let n = 200i64;
        let parts = partition_grid(grid, 2, model.partitioning.into_axis_for_tests());
        let names = vec!["n".to_string()];
        let r0 = wr.ranges_merged(&parts[0], block, grid, &names, &[n]);
        let r1 = wr.ranges_merged(&parts[1], block, grid, &names, &[n]);
        assert_eq!(*r0, [ElemRange { start: 0, end: 128 }]);
        assert_eq!(
            *r1,
            [ElemRange {
                start: 128,
                end: 200
            }]
        ); // clipped at n
    }

    #[test]
    fn stencil_read_ranges_include_halo() {
        let k = Kernel {
            name: "stencil".into(),
            params: vec![
                scalar("n"),
                array_f32("input", &[ext("n")]),
                array_f32("output", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").lt(i(1)).or(v("i").ge(v("n") - i(1)))),
                store(
                    "output",
                    vec![v("i")],
                    load("input", vec![v("i") - i(1)]) + load("input", vec![v("i") + i(1)]),
                ),
            ],
        };
        let model = analyze_kernel(&k).unwrap();
        let ens = KernelEnumerators::build(&model).unwrap();
        let rd = ens.read_of(1).unwrap();
        let block = Dim3::new1(8);
        let grid = Dim3::new1(4); // 32 threads over n=32
        let names = vec!["n".to_string()];
        let parts = partition_grid(grid, 2, mekong_analysis::SplitAxis::X);
        // Partition 1 covers threads 16..32, writes 16..31; reads 15..32.
        let r1 = rd.ranges_merged(&parts[1], block, grid, &names, &[32]);
        assert_eq!(*r1, [ElemRange { start: 15, end: 32 }]);
        // Partition 0: threads 0..16, writers 1..16, reads 0..17.
        let r0 = rd.ranges_merged(&parts[0], block, grid, &names, &[32]);
        assert_eq!(*r0, [ElemRange { start: 0, end: 17 }]);
    }

    fn matmul_model() -> KernelModel {
        let k = Kernel {
            name: "matmul".into(),
            params: vec![
                scalar("n"),
                array_f32("A", &[ext("n"), ext("n")]),
                array_f32("B", &[ext("n"), ext("n")]),
                array_f32("C", &[ext("n"), ext("n")]),
            ],
            body: vec![
                let_("r", global_y()),
                let_("c", global_x()),
                guard_return(v("r").ge(v("n")).or(v("c").ge(v("n")))),
                let_("acc", f(0.0)),
                for_(
                    "kk",
                    i(0),
                    v("n"),
                    vec![assign(
                        "acc",
                        v("acc")
                            + load("A", vec![v("r"), v("kk")]) * load("B", vec![v("kk"), v("c")]),
                    )],
                ),
                store("C", vec![v("r"), v("c")], v("acc")),
            ],
        };
        let model = analyze_kernel(&k).unwrap();
        assert!(model.verdict.is_partitionable());
        model
    }

    #[test]
    fn matmul_b_column_reads_span_rows() {
        let ens = KernelEnumerators::build(&matmul_model()).unwrap();
        let names = vec!["n".to_string()];
        let n = 16i64;
        let block = Dim3::new2(4, 4);
        let grid = Dim3::new2(4, 4);
        let parts = partition_grid(grid, 2, mekong_analysis::SplitAxis::Y);
        // Partition 0: rows 0..8.
        // B is read column-wise: every row, all columns (the full array,
        // since the partition spans all x blocks).
        let b_rd = ens.read_of(2).unwrap();
        let rb = b_rd.ranges_merged(&parts[0], block, grid, &names, &[n]);
        let total: u64 = rb.iter().map(|r| r.len()).sum();
        assert_eq!(total, (n * n) as u64);
        // C writes: rows 0..8 contiguous.
        let c_wr = ens.write_of(3).unwrap();
        let rc = c_wr.ranges_merged(&parts[0], block, grid, &names, &[n]);
        assert_eq!(
            *rc,
            [ElemRange {
                start: 0,
                end: (8 * n) as u64
            }]
        );
        // A reads: rows 0..8 contiguous as well.
        let a_rd = ens.read_of(1).unwrap();
        let ra = a_rd.ranges_merged(&parts[0], block, grid, &names, &[n]);
        assert_eq!(
            *ra,
            [ElemRange {
                start: 0,
                end: (8 * n) as u64
            }]
        );
    }

    /// An `n`×`n` array with `n = 2^33` has 2^66 elements: rows past 2^31
    /// linearize beyond `u64`. They must clamp away, not wrap around to
    /// small offsets that look like a footprint.
    #[test]
    fn hostile_extents_clamp_instead_of_wrapping() {
        let ens = KernelEnumerators::build(&matmul_model()).unwrap();
        let names = vec!["n".to_string()];
        let n = 1i64 << 33;
        let block = Dim3::new2(4, 4);
        let grid = Dim3::new2(1 << 31, 1 << 31);
        let parts = partition_grid(grid, 2, mekong_analysis::SplitAxis::Y);
        let c_wr = ens.write_of(3).unwrap();
        // Rows 0..2^32: elements 0..2^65, cut at the last representable.
        let r0 = c_wr.ranges_merged(&parts[0], block, grid, &names, &[n]);
        assert_eq!(
            *r0,
            [ElemRange {
                start: 0,
                end: u64::MAX
            }]
        );
        // Rows 2^32..2^33 start at element 2^65: nothing representable.
        let r1 = c_wr.ranges_merged(&parts[1], block, grid, &names, &[n]);
        assert!(r1.is_empty(), "wrapped into {r1:?}");
    }

    #[test]
    fn empty_partition_enumerates_nothing() {
        let model = vadd_model();
        let ens = KernelEnumerators::build(&model).unwrap();
        let wr = ens.write_of(2).unwrap();
        let block = Dim3::new1(32);
        let grid = Dim3::new1(8);
        let names = vec!["n".to_string()];
        let empty = Partition {
            lo: [0, 0, 4],
            hi: [1, 1, 4],
        };
        let r = wr.ranges_merged(&empty, block, grid, &names, &[200]);
        assert!(r.is_empty());
    }

    #[test]
    fn pseudo_c_is_renderable() {
        let model = vadd_model();
        let ens = KernelEnumerators::build(&model).unwrap();
        let wr = ens.write_of(2).unwrap();
        let c = wr.to_pseudo_c();
        assert!(c.contains("emit_row"));
    }

    // Small helper so tests read naturally.
    trait IntoAxis {
        fn into_axis_for_tests(self) -> mekong_analysis::SplitAxis;
    }
    impl IntoAxis for mekong_analysis::SplitAxis {
        fn into_axis_for_tests(self) -> mekong_analysis::SplitAxis {
            self
        }
    }
}
