//! Parallel functional execution of a kernel over its grid with
//! CUDA-faithful cross-block isolation.
//!
//! Every thread block runs against a *shadow memory*: loads read the
//! pre-launch device memory overlaid with the block's own prior writes
//! (read-your-writes within the block); writes go to a private overlay.
//! After all blocks finish, overlays are applied to the device memory.
//! This is exactly the visibility CUDA guarantees between thread blocks —
//! "reliable communication is only possible within a thread block" (§2.1)
//! — made deterministic.

use mekong_kernel::interp::{ExecMode, KernelArg};
use mekong_kernel::{Dim3, ExecStats, Kernel, MemAccess, Program, ScalarTy, Value};
use std::collections::HashMap;

/// Byte-addressable multi-buffer memory (device memory).
#[derive(Debug, Default)]
pub struct BufStore {
    buffers: Vec<Vec<u8>>,
}

impl BufStore {
    pub fn new() -> BufStore {
        BufStore::default()
    }

    /// Allocate `bytes` zeroed bytes; returns a handle.
    pub fn alloc(&mut self, bytes: usize) -> usize {
        self.buffers.push(vec![0u8; bytes]);
        self.buffers.len() - 1
    }

    pub fn bytes(&self, handle: usize) -> &[u8] {
        &self.buffers[handle]
    }

    pub fn bytes_mut(&mut self, handle: usize) -> &mut [u8] {
        &mut self.buffers[handle]
    }
}

impl MemAccess for BufStore {
    #[inline]
    fn load(&self, array: usize, offset: usize, ty: ScalarTy) -> Value {
        let sz = ty.size_bytes();
        let start = offset * sz;
        Value::from_le_bytes(ty, &self.buffers[array][start..start + sz])
    }

    fn store(&mut self, array: usize, offset: usize, value: Value) {
        let sz = value.ty().size_bytes();
        let start = offset * sz;
        value.to_le_bytes(&mut self.buffers[array][start..start + sz]);
    }
}

/// One block's writes: per written array, the value at each offset.
/// Blocks store to few arrays, so the arrays are a scanned list.
type Overlay = Vec<(usize, HashMap<usize, Value>)>;

/// A block-private overlay over an immutable base memory.
struct ShadowMem<'a> {
    base: &'a BufStore,
    writes: Overlay,
    /// When set, every load is logged `(array, offset)` — the oracle
    /// side of the may-read differential tests. `MemAccess::load` takes
    /// `&self`, hence the cell; blocks never share a `ShadowMem`.
    reads: Option<std::cell::RefCell<Vec<(usize, usize)>>>,
}

impl MemAccess for ShadowMem<'_> {
    fn load(&self, array: usize, offset: usize, ty: ScalarTy) -> Value {
        if let Some(log) = &self.reads {
            log.borrow_mut().push((array, offset));
        }
        // Only an array this block has stored to pays for a lookup.
        let written = self.writes.iter().find(|(a, _)| *a == array);
        match written.and_then(|(_, at)| at.get(&offset)) {
            Some(v) => *v,
            None => self.base.load(array, offset, ty),
        }
    }

    fn store(&mut self, array: usize, offset: usize, value: Value) {
        let at = match self.writes.iter().position(|(a, _)| *a == array) {
            Some(at) => at,
            None => {
                self.writes.push((array, HashMap::new()));
                self.writes.len() - 1
            }
        };
        self.writes[at].1.insert(offset, value);
    }
}

/// Execute the whole grid functionally, blocks in parallel, and apply the
/// write overlays. Returns aggregate execution statistics.
pub fn run_grid_parallel(
    kernel: &Kernel,
    args: &[KernelArg],
    grid_dim: Dim3,
    block_dim: Dim3,
    mem: &mut BufStore,
) -> mekong_kernel::Result<ExecStats> {
    run_grid_recording(kernel, args, grid_dim, block_dim, mem).map(|(s, _)| s)
}

/// Like [`run_grid_parallel`], but additionally returns the **observed
/// write set**: for every buffer, the sorted, merged element ranges the
/// launch actually wrote. This is the instrumentation path the paper's
/// conclusion proposes for kernels whose write patterns cannot be modeled
/// statically (§11: "using instrumentation to collect write patterns").
/// Observed written byte ranges, keyed by buffer argument index.
pub type ObservedWrites = HashMap<usize, Vec<(u64, u64)>>;

/// Observed read element ranges, keyed by buffer argument index — the
/// dynamic ground truth that every static may-read box must contain.
pub type ObservedReads = HashMap<usize, Vec<(u64, u64)>>;

/// One block's functional result plus its shadow access logs.
type BlockRecording = mekong_kernel::Result<(ExecStats, Overlay, Vec<(usize, usize)>)>;

pub fn run_grid_recording(
    kernel: &Kernel,
    args: &[KernelArg],
    grid_dim: Dim3,
    block_dim: Dim3,
    mem: &mut BufStore,
) -> mekong_kernel::Result<(ExecStats, ObservedWrites)> {
    run_grid_recording_rw(kernel, args, grid_dim, block_dim, mem, false).map(|(s, w, _)| (s, w))
}

/// Like [`run_grid_recording`], but when `record_reads` is set it also
/// returns the **observed read set**: for every buffer, the sorted,
/// merged element ranges any thread loaded. This is the shadow-memory
/// oracle the interval abstract interpreter is differentially tested
/// against — every dynamic read must land inside the static may-read
/// box.
pub fn run_grid_recording_rw(
    kernel: &Kernel,
    args: &[KernelArg],
    grid_dim: Dim3,
    block_dim: Dim3,
    mem: &mut BufStore,
    record_reads: bool,
) -> mekong_kernel::Result<(ExecStats, ObservedWrites, ObservedReads)> {
    let program = Program::lower(kernel)?;
    run_program(&program, args, grid_dim, block_dim, mem, record_reads)
}

/// [`run_grid_recording_rw`] of a kernel that is already lowered: the
/// launch is bound once, every block runs on a frame of its own.
pub(crate) fn run_program(
    program: &Program,
    args: &[KernelArg],
    grid_dim: Dim3,
    block_dim: Dim3,
    mem: &mut BufStore,
    record_reads: bool,
) -> mekong_kernel::Result<(ExecStats, ObservedWrites, ObservedReads)> {
    let launch = program.bind(args, grid_dim, block_dim, ExecMode::Functional)?;
    let blocks: Vec<Dim3> = (0..grid_dim.z)
        .flat_map(|z| {
            (0..grid_dim.y).flat_map(move |y| (0..grid_dim.x).map(move |x| Dim3::new3(x, y, z)))
        })
        .collect();

    let run = |&block_idx: &Dim3| -> BlockRecording {
        let mut shadow = ShadowMem {
            base: mem,
            writes: Overlay::new(),
            reads: record_reads.then(|| std::cell::RefCell::new(Vec::new())),
        };
        let stats = launch.frame().run_block(block_idx, &mut shadow)?;
        let reads = shadow.reads.map(|c| c.into_inner()).unwrap_or_default();
        Ok((stats, shadow.writes, reads))
    };
    // Blocks are isolated, so they fan out over scoped threads, one
    // contiguous chunk each, and their recordings come back in block
    // order. One worker runs them inline.
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(blocks.len())
        .min(16);
    let results: Vec<BlockRecording> = if workers <= 1 {
        blocks.iter().map(run).collect()
    } else {
        std::thread::scope(|scope| {
            let chunks: Vec<_> = blocks
                .chunks(blocks.len().div_ceil(workers))
                .map(|chunk| scope.spawn(|| chunk.iter().map(run).collect::<Vec<_>>()))
                .collect();
            chunks
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    };

    let mut total = ExecStats::default();
    let mut observed: ObservedWrites = HashMap::new();
    let mut observed_reads: ObservedReads = HashMap::new();
    for r in results {
        let (stats, writes, reads) = r?;
        total.add(&stats);
        for (array, at) in writes {
            let ranges = observed.entry(array).or_default();
            for (offset, v) in at {
                ranges.push((offset as u64, offset as u64 + 1));
                mem.store(array, offset, v);
            }
        }
        for (array, offset) in reads {
            observed_reads
                .entry(array)
                .or_default()
                .push((offset as u64, offset as u64 + 1));
        }
    }
    // Merge per-buffer ranges.
    for ranges in observed.values_mut().chain(observed_reads.values_mut()) {
        ranges.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
        for &(s, e) in ranges.iter() {
            if let Some(last) = merged.last_mut() {
                if s <= last.1 {
                    last.1 = last.1.max(e);
                    continue;
                }
            }
            merged.push((s, e));
        }
        *ranges = merged;
    }
    Ok((total, observed, observed_reads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_kernel::builder::*;
    use mekong_kernel::{ExecMode, Kernel};

    fn fill_f32(mem: &mut BufStore, handle: usize, vals: &[f32]) {
        for (i, v) in vals.iter().enumerate() {
            mem.store(handle, i, Value::F32(*v));
        }
    }

    fn read_f32(mem: &BufStore, handle: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| match mem.load(handle, i, ScalarTy::F32) {
                Value::F32(v) => v,
                _ => unreachable!(),
            })
            .collect()
    }

    /// In-place-looking stencil with separate in/out buffers: blocks must
    /// see the pre-launch input even while others write output.
    #[test]
    fn parallel_blocks_match_sequential() {
        let k = Kernel {
            name: "blur".into(),
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
                    (load("input", vec![v("i") - i(1)])
                        + load("input", vec![v("i")])
                        + load("input", vec![v("i") + i(1)]))
                        / f(3.0),
                ),
            ],
        };
        let n = 4096usize;
        let grid = Dim3::new1(32);
        let block = Dim3::new1(128);
        let input: Vec<f32> = (0..n).map(|i| (i % 97) as f32).collect();

        // Sequential reference.
        let mut seq = BufStore::new();
        let a = seq.alloc(n * 4);
        let b = seq.alloc(n * 4);
        fill_f32(&mut seq, a, &input);
        let args = [
            KernelArg::Scalar(Value::I64(n as i64)),
            KernelArg::Array(a),
            KernelArg::Array(b),
        ];
        mekong_kernel::execute_grid(&k, &args, grid, block, &mut seq, ExecMode::Functional)
            .unwrap();
        let want = read_f32(&seq, b, n);

        // Parallel shadow execution.
        let mut par = BufStore::new();
        let a2 = par.alloc(n * 4);
        let b2 = par.alloc(n * 4);
        fill_f32(&mut par, a2, &input);
        let args2 = [
            KernelArg::Scalar(Value::I64(n as i64)),
            KernelArg::Array(a2),
            KernelArg::Array(b2),
        ];
        let stats = run_grid_parallel(&k, &args2, grid, block, &mut par).unwrap();
        let got = read_f32(&par, b2, n);
        assert_eq!(got, want);
        assert_eq!(stats.stores, (n - 2) as u64);
    }

    #[test]
    fn read_your_writes_within_block() {
        // Each thread writes then reads back its own element.
        let k = Kernel {
            name: "rw".into(),
            params: vec![scalar("n"), array_f32("buf", &[ext("n")])],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store("buf", vec![v("i")], f(7.0)),
                store("buf", vec![v("i")], load("buf", vec![v("i")]) + f(1.0)),
            ],
        };
        let n = 256usize;
        let mut mem = BufStore::new();
        let b = mem.alloc(n * 4);
        let args = [KernelArg::Scalar(Value::I64(n as i64)), KernelArg::Array(b)];
        run_grid_parallel(&k, &args, Dim3::new1(4), Dim3::new1(64), &mut mem).unwrap();
        assert!(read_f32(&mem, b, n).iter().all(|&v| v == 8.0));
    }

    #[test]
    fn blocks_do_not_see_each_others_writes() {
        // Each thread reads the slot written by a thread one whole block
        // earlier (blockDim = 64, so i-64 always lives in another block) —
        // it must observe the pre-launch value (0), not the concurrent
        // write, no matter how blocks are scheduled.
        let k = Kernel {
            name: "peek".into(),
            params: vec![
                scalar("n"),
                array_f32("a", &[ext("n")]),
                array_f32("seen", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                if_(
                    v("i").ge(i(64)),
                    vec![store("seen", vec![v("i")], load("a", vec![v("i") - i(64)]))],
                    vec![],
                ),
                store("a", vec![v("i")], f(5.0)),
            ],
        };
        let n = 512usize;
        let mut mem = BufStore::new();
        let a = mem.alloc(n * 4);
        let seen = mem.alloc(n * 4);
        let args = [
            KernelArg::Scalar(Value::I64(n as i64)),
            KernelArg::Array(a),
            KernelArg::Array(seen),
        ];
        run_grid_parallel(&k, &args, Dim3::new1(8), Dim3::new1(64), &mut mem).unwrap();
        // All "seen" values are the pre-launch zeros: deterministic
        // regardless of block scheduling.
        assert!(read_f32(&mem, seen, n).iter().all(|&v| v == 0.0));
        assert!(read_f32(&mem, a, n).iter().all(|&v| v == 5.0));
    }
}
