//! Quickstart: compile a single-GPU mini-CUDA program and run it on a
//! simulated 4-GPU machine — no user intervention, as the paper promises.
//!
//! ```text
//! cargo run -p mekong-core --example quickstart
//! ```

use mekong_core::prelude::*;

const SOURCE: &str = r#"
__global__ void saxpy(int n, float alpha, float x[n], float y[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    y[i] = alpha * x[i] + y[i];
}

int main() {
    float *x, *y;
    cudaMalloc(&x, n * sizeof(float));
    cudaMalloc(&y, n * sizeof(float));
    cudaMemcpy(x, h_x, n * sizeof(float), cudaMemcpyHostToDevice);
    cudaMemcpy(y, h_y, n * sizeof(float), cudaMemcpyHostToDevice);
    saxpy<<<(n + 255) / 256, 256>>>(n, 2.0f, x, y);
    cudaMemcpy(h_y, y, n * sizeof(float), cudaMemcpyDeviceToHost);
    return 0;
}
"#;

fn main() {
    // 1. The pipeline: analysis -> rewrite -> partition/codegen.
    let program = compile_source(SOURCE).expect("pipeline");
    let ck = program.kernel("saxpy").expect("kernel record");
    println!("kernel `saxpy`:");
    println!("  verdict:        {:?}", ck.model.verdict);
    println!("  split axis:     {}", ck.model.partitioning);
    println!("  launch sites rewritten: {}", program.launch_sites.len());
    println!();
    println!("--- rewritten host code (excerpt) ---");
    for line in program
        .rewritten_host
        .lines()
        .filter(|l| l.contains("mekong"))
        .take(8)
    {
        println!("{line}");
    }
    println!();

    // 2. Run it on a simulated 4-GPU machine, functionally.
    let gpus = 4;
    let machine = Machine::new(MachineSpec::kepler_system(gpus), true);
    let mut rt = MgpuRuntime::new(machine);
    let n = 10_000usize;
    let x = rt.malloc(n * 4, 4).unwrap();
    let y = rt.malloc(n * 4, 4).unwrap();
    let h_x: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
    let h_y: Vec<u8> = (0..n).flat_map(|_| 1.0f32.to_le_bytes()).collect();
    rt.memcpy_h2d(x, &h_x).unwrap();
    rt.memcpy_h2d(y, &h_y).unwrap();
    rt.launch(
        ck,
        Dim3::new1((n as u32).div_ceil(256)),
        Dim3::new1(256),
        &[
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Scalar(Value::F32(2.0)),
            LaunchArg::Buf(x),
            LaunchArg::Buf(y),
        ],
    )
    .unwrap();
    rt.synchronize();
    let mut out = vec![0u8; n * 4];
    rt.memcpy_d2h(y, &mut out).unwrap();
    let v9999 = f32::from_le_bytes(out[4 * 9999..].try_into().unwrap());
    println!("ran saxpy over {n} elements on {gpus} simulated GPUs");
    println!("  y[9999] = {v9999} (expected {})", 2.0 * 9999.0 + 1.0);
    println!("  simulated time: {:.3} ms", rt.elapsed() * 1e3);
    assert_eq!(v9999, 2.0 * 9999.0 + 1.0);
    println!("OK");
}
