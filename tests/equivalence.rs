//! Property-based end-to-end test: for randomly generated affine kernels
//! from the supported family, the partitioned multi-GPU execution is
//! bit-identical to the single-device execution — the paper's core
//! correctness claim.

use mekong_core::prelude::*;
use mekong_runtime::PartitionStrategy;
use proptest::prelude::*;

/// A randomly parameterized 1-D kernel: reads a window `[i-left, i+right]`
/// (clamped via selects), optional second input, writes `out[i]`.
#[derive(Debug, Clone)]
struct StencilSpec {
    left: i64,
    right: i64,
    scale: f64,
    use_second: bool,
    n: usize,
    gpus: usize,
    block: u32,
}

fn arb_spec() -> impl Strategy<Value = StencilSpec> {
    (
        0i64..=3,
        0i64..=3,
        1u32..=4,
        proptest::bool::ANY,
        64usize..=500,
        2usize..=6,
        (3u32..=7),
    )
        .prop_map(
            |(left, right, scale, use_second, n, gpus, block_pow)| StencilSpec {
                left,
                right,
                scale: scale as f64,
                use_second,
                n,
                gpus,
                block: 1 << block_pow, // 8..=128
            },
        )
}

fn source_for(spec: &StencilSpec) -> String {
    let l = spec.left;
    let r = spec.right;
    let s = spec.scale;
    let second_param = if spec.use_second { ", float w[n]" } else { "" };
    let second_term = if spec.use_second { " + w[i]" } else { "" };
    format!(
        r#"
__global__ void gen(int n, float a[n]{second_param}, float out[n]) {{
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    float lo = i >= {l} ? a[i - {l}] : a[i];
    float hi = i < n - {r} ? a[i + {r}] : a[i];
    out[i] = {s:.1}f * (lo + hi){second_term};
}}
"#
    )
}

fn run(spec: &StencilSpec, gpus: usize) -> Vec<u8> {
    let src = source_for(spec);
    let program = compile_source(&src).unwrap();
    let ck = program.kernel("gen").unwrap();
    assert!(
        ck.is_partitionable(),
        "generated kernel rejected: {:?}\n{src}",
        ck.model.verdict
    );
    let n = spec.n;
    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
    let grid = Dim3::new1((n as u32).div_ceil(spec.block));
    let block = Dim3::new1(spec.block);
    let a = rt.malloc(n * 4, 4).unwrap();
    let a_host: Vec<u8> = (0..n)
        .flat_map(|i| (((i * 37 + 11) % 101) as f32 * 0.25).to_le_bytes())
        .collect();
    rt.memcpy_h2d(a, &a_host).unwrap();
    let out = rt.malloc(n * 4, 4).unwrap();
    let mut args = vec![LaunchArg::Scalar(Value::I64(n as i64)), LaunchArg::Buf(a)];
    if spec.use_second {
        let w = rt.malloc(n * 4, 4).unwrap();
        let w_host: Vec<u8> = (0..n)
            .flat_map(|i| (((i * 13) % 29) as f32).to_le_bytes())
            .collect();
        rt.memcpy_h2d(w, &w_host).unwrap();
        args.push(LaunchArg::Buf(w));
    }
    args.push(LaunchArg::Buf(out));
    rt.launch(ck, grid, block, &args).unwrap();
    rt.synchronize();
    let mut bytes = vec![0u8; n * 4];
    rt.memcpy_d2h(out, &mut bytes).unwrap();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multi-GPU result == single-GPU result, bit for bit.
    #[test]
    fn partitioned_execution_is_bit_identical(spec in arb_spec()) {
        let single = run(&spec, 1);
        let multi = run(&spec, spec.gpus);
        prop_assert_eq!(single, multi);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Iterated ping-pong stays coherent across devices for random
    /// iteration counts and device counts.
    #[test]
    fn iterated_pingpong_is_device_count_invariant(
        n in 100usize..400,
        gpus in 2usize..6,
        iters in 1usize..6,
    ) {
        let src = r#"
__global__ void step(int n, float a[n], float b[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    float c = a[i];
    float l = i > 0 ? a[i - 1] : c;
    float r = i < n - 1 ? a[i + 1] : c;
    b[i] = 0.25f * l + 0.5f * c + 0.25f * r;
}
"#;
        let program = compile_source(src).unwrap();
        let ck = program.kernel("step").unwrap();
        let run_iters = |gpus: usize| -> Vec<u8> {
            let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
            let grid = Dim3::new1((n as u32).div_ceil(32));
            let block = Dim3::new1(32);
            let a = rt.malloc(n * 4, 4).unwrap();
            let b = rt.malloc(n * 4, 4).unwrap();
            let init: Vec<u8> = (0..n)
                .flat_map(|i| ((i % 13) as f32).to_le_bytes())
                .collect();
            rt.memcpy_h2d(a, &init).unwrap();
            rt.memcpy_h2d(b, &init).unwrap();
            let (mut s, mut d) = (a, b);
            for _ in 0..iters {
                rt.launch(ck, grid, block, &[
                    LaunchArg::Scalar(Value::I64(n as i64)),
                    LaunchArg::Buf(s),
                    LaunchArg::Buf(d),
                ]).unwrap();
                std::mem::swap(&mut s, &mut d);
            }
            rt.synchronize();
            let mut out = vec![0u8; n * 4];
            rt.memcpy_d2h(s, &mut out).unwrap();
            out
        };
        prop_assert_eq!(run_iters(1), run_iters(gpus));
    }
}

/// `gridDim` in the partitioned clone means the whole grid, as it does
/// in the access model: a kernel that singles out the grid's last block,
/// and one that reads mirrored through `gridDim`, produce the
/// single-device bytes on every device count, captured or not.
#[test]
fn griddim_kernels_match_one_device() {
    let src = r#"
__global__ void last(int n, float a[n], float b[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    b[i] = a[i];
    if (blockIdx.x == gridDim.x - 1) b[i] = 100.0f;
}

__global__ void mir(int n, float a[n], float b[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    b[i] = a[gridDim.x - 1 - blockIdx.x] + 1.0f;
}
"#;
    let program = compile_source(src).unwrap();
    let n = 64;
    let run = |kernel: &str, gpus: usize, capture_plans: bool| -> Vec<u8> {
        let ck = program.kernel(kernel).unwrap();
        assert!(ck.is_partitionable(), "{kernel}: {:?}", ck.model.verdict);
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
        rt.set_config(RuntimeConfig {
            capture_plans,
            ..RuntimeConfig::default()
        });
        let a = rt.malloc(n * 4, 4).unwrap();
        let b = rt.malloc(n * 4, 4).unwrap();
        let init: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        rt.memcpy_h2d(a, &init).unwrap();
        let args = [
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Buf(a),
            LaunchArg::Buf(b),
        ];
        for _ in 0..2 {
            rt.launch(ck, Dim3::new1(8), Dim3::new1(8), &args).unwrap();
        }
        rt.synchronize();
        let mut out = vec![0u8; n * 4];
        rt.memcpy_d2h(b, &mut out).unwrap();
        out
    };
    for kernel in ["last", "mir"] {
        let single = run(kernel, 1, false);
        for gpus in 1..=5 {
            for capture_plans in [false, true] {
                assert_eq!(
                    run(kernel, gpus, capture_plans),
                    single,
                    "{kernel} on {gpus} GPUs (capture {capture_plans})"
                );
            }
        }
    }
}

/// The 2-D form of the `gridDim` idioms on a y:2×x:2 tiling, where
/// every partition is bounded on both axes.
#[test]
fn griddim_kernel_matches_one_device_on_a_tiling() {
    let src = r#"
__global__ void corner(int n, float a[n][n], float b[n][n]) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    if (x >= n) return;
    if (y >= n) return;
    b[y][x] = a[gridDim.y - 1 - blockIdx.y][gridDim.x - 1 - blockIdx.x] + 1.0f;
    if (blockIdx.y == gridDim.y - 1) b[y][x] = 100.0f;
    if (blockIdx.x == gridDim.x - 1) b[y][x] = 200.0f;
}
"#;
    let program = compile_source(src).unwrap();
    let ck = program.kernel("corner").unwrap();
    assert!(ck.is_partitionable(), "{:?}", ck.model.verdict);
    let n = 16;
    let run = |gpus: usize, tiled: bool| -> Vec<u8> {
        let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
        if tiled {
            rt.force_strategy(
                "corner",
                PartitionStrategy::tiled(SplitAxis::Y, 2, SplitAxis::X, 2),
            );
        }
        let a = rt.malloc(n * n * 4, 4).unwrap();
        let b = rt.malloc(n * n * 4, 4).unwrap();
        let init: Vec<u8> = (0..n * n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        rt.memcpy_h2d(a, &init).unwrap();
        let args = [
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Buf(a),
            LaunchArg::Buf(b),
        ];
        for _ in 0..2 {
            rt.launch(ck, Dim3::new2(4, 4), Dim3::new2(4, 4), &args)
                .unwrap();
        }
        rt.synchronize();
        let mut out = vec![0u8; n * n * 4];
        rt.memcpy_d2h(b, &mut out).unwrap();
        out
    };
    let single = run(1, false);
    assert_eq!(run(4, true), single, "y:2×x:2 tiling");
    for gpus in 2..=5 {
        assert_eq!(run(gpus, false), single, "{gpus} GPUs");
    }
}
