//! N-Body: direct gravitational simulation (§9.1). Every body interacts
//! with every other body each step — computation grows quadratically with
//! the problem size while the data (positions broadcast each step) grows
//! only linearly, giving the best scaling of the three benchmarks.

use crate::app::{f32_bytes, App, Arg, Buffer, Check, Launch};
use crate::harness::Benchmark;
use mekong_core::prelude::*;

/// The N-Body benchmark.
pub struct NBody;

/// Mini-CUDA source: positions+mass in `posm[n][4]`, velocities in
/// `vel[n][4]` (updated in place), new positions into `out[n][4]`.
pub const SOURCE: &str = r#"
__global__ void nbody(int n, float dt, float eps,
                      float posm[n][4], float vel[n][4], float out[n][4]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    float px = posm[i][0];
    float py = posm[i][1];
    float pz = posm[i][2];
    float ax = 0.0f;
    float ay = 0.0f;
    float az = 0.0f;
    for (int j = 0; j < n; j++) {
        float dx = posm[j][0] - px;
        float dy = posm[j][1] - py;
        float dz = posm[j][2] - pz;
        float distSqr = dx * dx + dy * dy + dz * dz + eps;
        float invDist = rsqrtf(distSqr);
        float invDist3 = invDist * invDist * invDist;
        float s = posm[j][3] * invDist3;
        ax = ax + dx * s;
        ay = ay + dy * s;
        az = az + dz * s;
    }
    float vx = vel[i][0] + dt * ax;
    float vy = vel[i][1] + dt * ay;
    float vz = vel[i][2] + dt * az;
    vel[i][0] = vx;
    vel[i][1] = vy;
    vel[i][2] = vz;
    vel[i][3] = vel[i][3];
    out[i][0] = px + dt * vx;
    out[i][1] = py + dt * vy;
    out[i][2] = pz + dt * vz;
    out[i][3] = posm[i][3];
}

int main() {
    nbody<<<grid, block>>>(n, dt, eps, posm, vel, out);
    return 0;
}
"#;

/// Integration step and softening used in all runs.
pub const DT: f32 = 0.01;
pub const EPS: f32 = 0.0625;

/// Launch geometry: 256-thread blocks.
pub fn geometry(n: usize) -> (Dim3, Dim3) {
    let block = Dim3::new1(256);
    let grid = Dim3::new1((n as u32).div_ceil(block.x));
    (grid, block)
}

/// CPU reference: `steps` leapfrog-ish steps over `posm` (xyzm) and `vel`.
pub fn cpu_reference(n: usize, posm: &mut Vec<f32>, vel: &mut [f32], steps: usize) {
    for _ in 0..steps {
        let mut out = posm.clone();
        for i in 0..n {
            let (px, py, pz) = (posm[i * 4], posm[i * 4 + 1], posm[i * 4 + 2]);
            let (mut ax, mut ay, mut az) = (0.0f32, 0.0f32, 0.0f32);
            for j in 0..n {
                let dx = posm[j * 4] - px;
                let dy = posm[j * 4 + 1] - py;
                let dz = posm[j * 4 + 2] - pz;
                let dist_sqr = dx * dx + dy * dy + dz * dz + EPS;
                let inv = 1.0 / dist_sqr.sqrt();
                let inv3 = inv * inv * inv;
                let s = posm[j * 4 + 3] * inv3;
                ax += dx * s;
                ay += dy * s;
                az += dz * s;
            }
            let vx = vel[i * 4] + DT * ax;
            let vy = vel[i * 4 + 1] + DT * ay;
            let vz = vel[i * 4 + 2] + DT * az;
            vel[i * 4] = vx;
            vel[i * 4 + 1] = vy;
            vel[i * 4 + 2] = vz;
            out[i * 4] = px + DT * vx;
            out[i * 4 + 1] = py + DT * vy;
            out[i * 4 + 2] = pz + DT * vz;
        }
        *posm = out;
    }
}

/// Seeded positions and masses (`xyzm` per body).
pub fn bodies(n: usize) -> Vec<f32> {
    (0..n * 4)
        .map(|i| {
            if i % 4 == 3 {
                1.0 + (i % 7) as f32 * 0.1 // mass
            } else {
                ((i * 29) % 83) as f32 * 0.05 - 2.0
            }
        })
        .collect()
}

impl Benchmark for NBody {
    fn name(&self) -> &'static str {
        "N-Body"
    }

    fn sizes(&self) -> [usize; 3] {
        [65_536, 131_072, 327_680]
    }

    fn iterations(&self) -> usize {
        96
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn describe(&self, n: usize) -> App {
        let (grid, block) = geometry(n);
        App {
            source: SOURCE,
            // 0/1: the ping-pong position pair (only the source side is
            // seeded); 2: velocities, updated in place, starting at rest.
            buffers: vec![
                Buffer::f32_input(n * 4, move || bodies(n)),
                Buffer::f32_output(n * 4),
                Buffer::f32_input(n * 4, move || vec![0.0; n * 4]),
            ],
            launches: vec![Launch {
                kernel: "nbody",
                grid,
                block,
                args: vec![
                    Arg::int(n),
                    Arg::Scalar(Value::F32(DT)),
                    Arg::Scalar(Value::F32(EPS)),
                    Arg::Buf(0),
                    Arg::Buf(2),
                    Arg::Buf(1),
                ],
            }],
            swap: Some((0, 1)),
            outputs: vec![0],
            check: Check {
                n: 192,
                iters: 3,
                rel_tol: 1e-2,
            },
        }
    }

    fn reference_output(&self, n: usize, iters: usize) -> Vec<u8> {
        let mut posm = bodies(n);
        cpu_reference(n, &mut posm, &mut vec![0.0; n * 4], iters);
        f32_bytes(&posm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_runtime::RuntimeConfig;

    #[test]
    fn nbody_model_is_partitionable_along_x() {
        let program = mekong_core::compile_source(SOURCE).unwrap();
        let ck = program.kernel("nbody").unwrap();
        assert!(ck.is_partitionable(), "{:?}", ck.model.verdict);
        assert_eq!(ck.model.partitioning, SplitAxis::X);
    }

    #[test]
    fn nbody_scales_well() {
        // Reduced problem (n = 32768, 4 steps) so the test stays fast; at
        // much smaller scales per-iteration transfer latencies dominate.
        // Paper-scale behavior is exercised by the fig6 benchmark binary.
        let t1 = NBody.mgpu_run(32768, 4, 1, RuntimeConfig::alpha()).elapsed;
        let t8 = NBody.mgpu_run(32768, 4, 8, RuntimeConfig::alpha()).elapsed;
        let speedup = t1 / t8;
        assert!(speedup > 4.0, "8-GPU speedup only {speedup:.2}");
    }
}
