//! Cross-crate integration tests: the whole toolchain from mini-CUDA
//! source through analysis, rewriting, partitioning, enumerators, runtime
//! and simulator.

use mekong_core::prelude::*;

fn f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// A multi-kernel application: init, then iterate a blur, then scale —
/// exercising model records for several kernels, buffer reuse across
/// kernels, and coherence between kernels with different access shapes.
const MULTI_KERNEL: &str = r#"
__global__ void init(int n, float a[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    a[i] = (float)(i % 17);
}

__global__ void blur(int n, float a[n], float b[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    float c = a[i];
    float l = i > 0 ? a[i - 1] : c;
    float r = i < n - 1 ? a[i + 1] : c;
    b[i] = (l + c + r) / 3.0f;
}

__global__ void scale(int n, float alpha, float b[n], float c[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    c[i] = alpha * b[i];
}
"#;

fn run_multi_kernel(gpus: usize, n: usize, blur_iters: usize) -> Vec<f32> {
    let program = compile_source(MULTI_KERNEL).unwrap();
    for k in &program.kernels {
        assert!(
            k.is_partitionable(),
            "kernel {} rejected: {:?}",
            k.original.name,
            k.model.verdict
        );
    }
    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
    let grid = Dim3::new1((n as u32).div_ceil(64));
    let block = Dim3::new1(64);
    let a = rt.malloc(n * 4, 4).unwrap();
    let b = rt.malloc(n * 4, 4).unwrap();
    let c = rt.malloc(n * 4, 4).unwrap();
    let n_arg = LaunchArg::Scalar(Value::I64(n as i64));
    rt.launch(
        program.kernel("init").unwrap(),
        grid,
        block,
        &[n_arg, LaunchArg::Buf(a)],
    )
    .unwrap();
    let (mut src, mut dst) = (a, b);
    for _ in 0..blur_iters {
        rt.launch(
            program.kernel("blur").unwrap(),
            grid,
            block,
            &[n_arg, LaunchArg::Buf(src), LaunchArg::Buf(dst)],
        )
        .unwrap();
        std::mem::swap(&mut src, &mut dst);
    }
    rt.launch(
        program.kernel("scale").unwrap(),
        grid,
        block,
        &[
            n_arg,
            LaunchArg::Scalar(Value::F32(10.0)),
            LaunchArg::Buf(src),
            LaunchArg::Buf(c),
        ],
    )
    .unwrap();
    rt.synchronize();
    let mut out = vec![0u8; n * 4];
    rt.memcpy_d2h(c, &mut out).unwrap();
    f32s(&out)
}

#[test]
fn multi_kernel_app_is_device_count_invariant() {
    let n = 1000;
    let iters = 5;
    let reference = run_multi_kernel(1, n, iters);
    for gpus in [2, 3, 4, 7, 8] {
        let got = run_multi_kernel(gpus, n, iters);
        assert_eq!(got, reference, "mismatch with {gpus} GPUs");
    }
}

#[test]
fn rewritten_source_contains_figure4_for_each_launch() {
    let src = r#"
__global__ void k(int n, float a[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    a[i] = 1.0f;
}
int main() {
    k<<<g1, b1>>>(n, a);
    k<<<g2, b2>>>(n, a);
    return 0;
}
"#;
    let program = compile_source(src).unwrap();
    assert_eq!(program.launch_sites.len(), 2);
    assert_eq!(
        program
            .rewritten_host
            .matches("mekongSyncReadBuffers")
            .count(),
        2
    );
    assert_eq!(
        program
            .rewritten_host
            .matches("mekongUpdateTrackers")
            .count(),
        2
    );
}

#[test]
fn model_json_is_the_pass_boundary() {
    let program = compile_source(MULTI_KERNEL).unwrap();
    // The exported JSON fully reconstructs the model pass 2 consumed.
    let back = AppModel::from_json(&program.model_json).unwrap();
    assert_eq!(back, program.model);
    assert_eq!(back.kernels.len(), 3);
    for k in &back.kernels {
        assert!(k.verdict.is_partitionable());
    }
    // Enumerators can be rebuilt from the deserialized model.
    for k in &back.kernels {
        let _ = KernelEnumerators::build(k).unwrap();
    }
}

#[test]
fn gpu_count_is_hidden_from_the_application() {
    // §8.4: cudaGetDeviceCount is replaced by a function that returns 1.
    let rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(16), false));
    assert_eq!(rt.visible_device_count(), 1);
    assert_eq!(rt.n_devices(), 16);
}

#[test]
fn partitioned_and_reference_agree_on_2d_kernel() {
    // Column-sum kernel: each x-thread sums a column; checks 2-D arrays
    // with loops and X-axis splits end-to-end.
    let src = r#"
__global__ void colsum(int n, float m[n][n], float s[n]) {
    int col = blockIdx.x * blockDim.x + threadIdx.x;
    if (col >= n) return;
    float acc = 0.0f;
    for (int r = 0; r < n; r++) {
        acc += m[r][col];
    }
    s[col] = acc;
}
"#;
    let program = compile_source(src).unwrap();
    let ck = program.kernel("colsum").unwrap();
    assert!(ck.is_partitionable(), "{:?}", ck.model.verdict);
    let n = 96usize;
    let m_host: Vec<f32> = (0..n * n).map(|i| ((i * 7) % 23) as f32).collect();
    let mut want = vec![0.0f32; n];
    for col in 0..n {
        want[col] = (0..n).map(|r| m_host[r * n + col]).sum();
    }
    for gpus in [1, 4] {
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
        let m = rt.malloc(n * n * 4, 4).unwrap();
        let s = rt.malloc(n * 4, 4).unwrap();
        let mb: Vec<u8> = m_host.iter().flat_map(|v| v.to_le_bytes()).collect();
        rt.memcpy_h2d(m, &mb).unwrap();
        rt.launch(
            ck,
            Dim3::new1((n as u32).div_ceil(32)),
            Dim3::new1(32),
            &[
                LaunchArg::Scalar(Value::I64(n as i64)),
                LaunchArg::Buf(m),
                LaunchArg::Buf(s),
            ],
        )
        .unwrap();
        rt.synchronize();
        let mut out = vec![0u8; n * 4];
        rt.memcpy_d2h(s, &mut out).unwrap();
        assert_eq!(f32s(&out), want, "colsum mismatch on {gpus} GPUs");
    }
}

#[test]
fn unsupported_patterns_fall_back_cleanly() {
    // Indirect write: analysis flags it, multi-GPU launch refuses, the
    // single-device fallback still executes it.
    let src = r#"
__global__ void scatter(int n, float idx[n], float out[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    out[(int)(idx[i])] = 1.0f;
}
"#;
    let program = compile_source(src).unwrap();
    let ck = program.kernel("scatter").unwrap();
    assert!(!ck.is_partitionable());
    let n = 64usize;
    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(4), true));
    let idx = rt.malloc(n * 4, 4).unwrap();
    let out = rt.malloc(n * 4, 4).unwrap();
    let idx_host: Vec<u8> = (0..n)
        .flat_map(|i| (((i * 3) % n) as f32).to_le_bytes())
        .collect();
    rt.memcpy_h2d(idx, &idx_host).unwrap();
    let args = [
        LaunchArg::Scalar(Value::I64(n as i64)),
        LaunchArg::Buf(idx),
        LaunchArg::Buf(out),
    ];
    let grid = Dim3::new1(1);
    let block = Dim3::new1(64);
    assert!(rt.launch(ck, grid, block, &args).is_err());
    rt.launch_unpartitioned(ck, grid, block, &args, 0).unwrap();
    rt.synchronize();
    let mut host = vec![0u8; n * 4];
    rt.memcpy_d2h(out, &mut host).unwrap();
    // (i*3) mod 64 hits every slot gcd(3,64)=1 -> all ones.
    assert!(f32s(&host).iter().all(|&v| v == 1.0));
}

#[test]
fn alternating_split_axes_stay_coherent() {
    // Transpose twice: the transpose kernel writes B[col][row], so its
    // write map couples the outermost array dim to the grid's X axis and
    // the analysis splits X; a row-scaled kernel in between splits Y.
    // Consecutive kernels with different split axes force nearly all data
    // to cross partitions between launches — the hardest coherence case.
    let src = r#"
__global__ void transpose(int n, float a[n][n], float b[n][n]) {
    int col = blockIdx.x * blockDim.x + threadIdx.x;
    int row = blockIdx.y * blockDim.y + threadIdx.y;
    if (row >= n || col >= n) return;
    b[col][row] = a[row][col];
}

__global__ void rowscale(int n, float a[n][n], float b[n][n]) {
    int col = blockIdx.x * blockDim.x + threadIdx.x;
    int row = blockIdx.y * blockDim.y + threadIdx.y;
    if (row >= n || col >= n) return;
    b[row][col] = a[row][col] * 2.0f;
}
"#;
    let program = compile_source(src).unwrap();
    let tp = program.kernel("transpose").unwrap();
    let rs = program.kernel("rowscale").unwrap();
    assert!(tp.is_partitionable(), "{:?}", tp.model.verdict);
    assert!(rs.is_partitionable(), "{:?}", rs.model.verdict);
    assert_eq!(tp.model.partitioning, SplitAxis::X);
    assert_eq!(rs.model.partitioning, SplitAxis::Y);

    let n = 64usize;
    let a_host: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
    let run = |gpus: usize| -> Vec<f32> {
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
        let grid = Dim3::new2((n as u32).div_ceil(8), (n as u32).div_ceil(8));
        let block = Dim3::new2(8, 8);
        let a = rt.malloc(n * n * 4, 4).unwrap();
        let b = rt.malloc(n * n * 4, 4).unwrap();
        let c = rt.malloc(n * n * 4, 4).unwrap();
        let d = rt.malloc(n * n * 4, 4).unwrap();
        let bytes: Vec<u8> = a_host.iter().flat_map(|v| v.to_le_bytes()).collect();
        rt.memcpy_h2d(a, &bytes).unwrap();
        let n_arg = LaunchArg::Scalar(Value::I64(n as i64));
        // transpose -> rowscale -> transpose: result = 2 * A.
        rt.launch(
            tp,
            grid,
            block,
            &[n_arg, LaunchArg::Buf(a), LaunchArg::Buf(b)],
        )
        .unwrap();
        rt.launch(
            rs,
            grid,
            block,
            &[n_arg, LaunchArg::Buf(b), LaunchArg::Buf(c)],
        )
        .unwrap();
        rt.launch(
            tp,
            grid,
            block,
            &[n_arg, LaunchArg::Buf(c), LaunchArg::Buf(d)],
        )
        .unwrap();
        rt.synchronize();
        let mut out = vec![0u8; n * n * 4];
        rt.memcpy_d2h(d, &mut out).unwrap();
        f32s(&out)
    };
    let want: Vec<f32> = a_host.iter().map(|v| 2.0 * v).collect();
    for gpus in [1, 2, 4, 6] {
        assert_eq!(run(gpus), want, "mismatch with {gpus} GPUs");
    }
}

#[test]
fn source_annotations_rescue_scatter_end_to_end() {
    // §11 extension: the programmer declares the write pattern of an
    // indirect store the analysis cannot model; the kernel then runs
    // partitioned and produces the single-device result. The permutation
    // here is the identity shifted within blocks (i ^ 1), which the
    // declared map over-approximates to the 1:1 block range — accurate at
    // block granularity.
    let src = r#"
// @mekong scatter write out : [bdz, bdy, bdx, gdz, gdy, gdx, n] ->
//   { [boz, boy, box, biz, biy, bix] -> [e] :
//     box <= e and e < box + bdx and 0 <= e and e < n }
__global__ void scatter(int n, float idx[n], float a[n], float out[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    out[(int)(idx[i])] = a[i];
}
"#;
    let program = compile_source(src).unwrap();
    let ck = program.kernel("scatter").unwrap();
    assert!(
        ck.is_partitionable(),
        "annotation should rescue the kernel: {:?}",
        ck.model.verdict
    );

    let n = 256usize;
    let perm: Vec<usize> = (0..n).map(|i| i ^ 1).collect();
    let run = |gpus: usize| -> Vec<f32> {
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
        let idx = rt.malloc(n * 4, 4).unwrap();
        let a = rt.malloc(n * 4, 4).unwrap();
        let out = rt.malloc(n * 4, 4).unwrap();
        let idx_host: Vec<u8> = perm
            .iter()
            .flat_map(|&p| (p as f32).to_le_bytes())
            .collect();
        let a_host: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        rt.memcpy_h2d(idx, &idx_host).unwrap();
        rt.memcpy_h2d(a, &a_host).unwrap();
        rt.launch(
            ck,
            Dim3::new1(4),
            Dim3::new1(64),
            &[
                LaunchArg::Scalar(Value::I64(n as i64)),
                LaunchArg::Buf(idx),
                LaunchArg::Buf(a),
                LaunchArg::Buf(out),
            ],
        )
        .unwrap();
        rt.synchronize();
        let mut host = vec![0u8; n * 4];
        rt.memcpy_d2h(out, &mut host).unwrap();
        f32s(&host)
    };
    let single = run(1);
    for gpus in [2, 4] {
        assert_eq!(run(gpus), single, "mismatch with {gpus} GPUs");
    }
    for i in 0..n {
        assert_eq!(single[perm[i]], i as f32);
    }
}

#[test]
fn three_dimensional_kernel_partitions_correctly() {
    // A 3-D volume update with a z-halo: exercises the z components of
    // the grid dimensions, the zyx tuple ordering, and (depending on the
    // suggested axis) 3-D partition boxes.
    let src = r#"
__global__ void relax3d(int n, float a[n][n][n], float b[n][n][n]) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    int z = blockIdx.z * blockDim.z + threadIdx.z;
    if (x >= n || y >= n || z >= n) return;
    float c = a[z][y][x];
    float zl = z > 0 ? a[z - 1][y][x] : c;
    float zh = z < n - 1 ? a[z + 1][y][x] : c;
    b[z][y][x] = 0.5f * c + 0.25f * zl + 0.25f * zh;
}
"#;
    let program = compile_source(src).unwrap();
    let ck = program.kernel("relax3d").unwrap();
    assert!(ck.is_partitionable(), "{:?}", ck.model.verdict);
    assert_eq!(ck.model.partitioning, SplitAxis::Z);

    let n = 24usize;
    let init: Vec<f32> = (0..n * n * n).map(|i| ((i * 31) % 101) as f32).collect();
    // CPU reference, one step.
    let mut want = init.clone();
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let at = |zz: usize| init[(zz * n + y) * n + x];
                let c = at(z);
                let zl = if z > 0 { at(z - 1) } else { c };
                let zh = if z < n - 1 { at(z + 1) } else { c };
                want[(z * n + y) * n + x] = 0.5 * c + 0.25 * zl + 0.25 * zh;
            }
        }
    }
    let run = |gpus: usize| -> Vec<f32> {
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
        let bytes = n * n * n * 4;
        let a = rt.malloc(bytes, 4).unwrap();
        let b = rt.malloc(bytes, 4).unwrap();
        let init_b: Vec<u8> = init.iter().flat_map(|v| v.to_le_bytes()).collect();
        rt.memcpy_h2d(a, &init_b).unwrap();
        let block = Dim3::new3(8, 4, 2);
        let grid = Dim3::new3(
            (n as u32).div_ceil(8),
            (n as u32).div_ceil(4),
            (n as u32).div_ceil(2),
        );
        rt.launch(
            ck,
            grid,
            block,
            &[
                LaunchArg::Scalar(Value::I64(n as i64)),
                LaunchArg::Buf(a),
                LaunchArg::Buf(b),
            ],
        )
        .unwrap();
        rt.synchronize();
        let mut out = vec![0u8; bytes];
        rt.memcpy_d2h(b, &mut out).unwrap();
        f32s(&out)
    };
    for gpus in [1, 3, 4] {
        let got = run(gpus);
        for i in 0..got.len() {
            assert!(
                (got[i] - want[i]).abs() < 1e-4,
                "voxel {i} with {gpus} GPUs: {} vs {}",
                got[i],
                want[i]
            );
        }
    }
}

#[test]
fn compile_stats_are_populated() {
    let program = compile_source(MULTI_KERNEL).unwrap();
    assert!(program.stats.pass1.as_nanos() > 0);
    assert!(program.stats.pass2.as_nanos() > 0);
    assert!(program.stats.total() > program.stats.pass1);
}

/// Threads that talk through global memory across `__syncthreads()`
/// need block-synchronous execution, which the executor does not have:
/// the toolchain refuses the kernel instead of computing
/// `[0,0,0,0,0,0,0,4]` where CUDA gives `[1,2,3,0,5,6,7,4]`.
#[test]
fn syncthreads_is_refused_not_dropped() {
    let shift = r#"
__global__ void shift(int n, float a[n], float b[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    a[i] = i;
    __syncthreads();
    b[i] = a[blockIdx.x * blockDim.x + (threadIdx.x + 1) % blockDim.x];
}
"#;
    match compile_source(shift) {
        Err(mekong_core::MekongError::Kernel { kernel, error }) => {
            assert_eq!(kernel, "shift");
            assert_eq!(
                error,
                mekong_kernel::KernelError::Unsupported(mekong_kernel::Unsupported::SyncThreads)
            );
        }
        other => panic!("expected the barrier to be refused, got {:?}", other.err()),
    }
    // Without the barrier the same kernel compiles: the barrier is what
    // is refused.
    assert!(compile_source(&shift.replace("__syncthreads();", "")).is_ok());
}

/// `k(int n, float a[n], float b[n])` with `body` after the global index.
fn extreme_kernel(body: &str) -> String {
    format!(
        "__global__ void k(int n, float a[n], float b[n]) {{\n    \
         int i = blockIdx.x * blockDim.x + threadIdx.x;\n    {body}\n}}\n"
    )
}

/// An index whose constraint overflows i64 degrades like a non-affine
/// one: a read becomes a may-read box clipped to the array, a write is
/// unmodeled and keeps the kernel on one device. Never a panic.
#[test]
fn extreme_index_literals_degrade_instead_of_panicking() {
    let read = compile_source(&extreme_kernel("b[i] = a[i - 9223372036854775807 - 1];")).unwrap();
    assert!(read.kernel("k").unwrap().is_partitionable());
    let write = compile_source(&extreme_kernel("b[i - 9223372036854775807 - 1] = a[i];")).unwrap();
    assert!(!write.kernel("k").unwrap().is_partitionable());
}

/// A condition whose constraint overflows i64 is not affinely
/// representable: the guarded write is approximate, so the kernel stays
/// on one device.
#[test]
fn extreme_condition_literal_is_approximate() {
    let src = extreme_kernel("if (i < -9223372036854775807 - 1) { b[i] = a[i]; }");
    let program = compile_source(&src).unwrap();
    assert!(!program.kernel("k").unwrap().is_partitionable());
}
