//! The simulated clock of the fallback launches, pinned to the bit.
//!
//! No BENCH file reads the timing of `launch_unpartitioned` or
//! `launch_instrumented`, and the γ launch that resolves nothing — no
//! copies, no tracker updates, no Figure 4 barrier — is otherwise held
//! only to sign asserts. These sequences pin all three: the host clock
//! and the three `TimeBreakdown` categories as `f64` bit patterns, and
//! every `OpCounters` field. The constants were recorded before the
//! launch paths became plan builders around one executor; any change to
//! how those paths order their copies, barriers, launches or pattern
//! charges moves a bit here.

use mekong_gpusim::{Machine, MachineSpec, OpCounters};
use mekong_kernel::builder::*;
use mekong_kernel::{Dim3, Kernel, Value};
use mekong_runtime::{CompiledKernel, LaunchArg, MgpuRuntime, RuntimeConfig};

/// A runtime's clocks and counters at the end of a sequence.
#[derive(Debug, PartialEq)]
struct Clock {
    /// `elapsed()`, `app`, `transfer`, `pattern` as bit patterns.
    bits: [u64; 4],
    counters: OpCounters,
}

fn clock(rt: &MgpuRuntime) -> Clock {
    let b = rt.machine().breakdown();
    Clock {
        bits: [
            rt.elapsed().to_bits(),
            b.app.to_bits(),
            b.transfer.to_bits(),
            b.pattern.to_bits(),
        ],
        counters: rt.machine().counters(),
    }
}

fn scale_kernel() -> Kernel {
    Kernel {
        name: "scale".into(),
        params: vec![
            scalar("n"),
            array_f32("x", &[ext("n")]),
            array_f32("y", &[ext("n")]),
        ],
        body: vec![
            let_("i", global_x()),
            guard_return(v("i").ge(v("n"))),
            store("y", vec![v("i")], load("x", vec![v("i")]) * f(3.0)),
        ],
    }
}

/// Ablation A5b: an instrumented strided scatter leaves `out` as
/// thousands of single-element segments, then an unpartitioned launch
/// gathers it onto device 0.
fn fragmented_gather(coalesce: bool) -> Clock {
    let scatter = Kernel {
        name: "stride_scatter".into(),
        params: vec![
            scalar("n"),
            array_f32("idx", &[ext("n")]),
            array_f32("a", &[ext("n")]),
            array_f32("out", &[ext("n")]),
        ],
        body: vec![
            let_("i", global_x()),
            guard_return(v("i").ge(v("n") / i(2))),
            store(
                "out",
                vec![to_i64(load("idx", vec![v("i")]))],
                load("a", vec![v("i")]),
            ),
        ],
    };
    let ck = CompiledKernel::compile(&scatter).unwrap();
    let rk = CompiledKernel::compile(&scale_kernel()).unwrap();
    let n = 8192usize;
    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(4), true));
    rt.set_config(RuntimeConfig {
        coalesce_transfers: coalesce,
        ..RuntimeConfig::alpha()
    });
    let idx = rt.malloc(n * 4, 4).unwrap();
    let a = rt.malloc(n * 4, 4).unwrap();
    let out = rt.malloc(n * 4, 4).unwrap();
    let idx_host: Vec<u8> = (0..n)
        .flat_map(|i| ((2 * i) as f32).to_le_bytes())
        .collect();
    rt.memcpy_h2d(idx, &idx_host).unwrap();
    rt.memcpy_h2d(a, &vec![0u8; n * 4]).unwrap();
    let scalar_n = LaunchArg::Scalar(Value::I64(n as i64));
    rt.launch_instrumented(
        &ck,
        Dim3::new1((n / 2 / 128) as u32),
        Dim3::new1(128),
        &[
            scalar_n,
            LaunchArg::Buf(idx),
            LaunchArg::Buf(a),
            LaunchArg::Buf(out),
        ],
    )
    .unwrap();
    let res = rt.malloc(n * 4, 4).unwrap();
    rt.launch_unpartitioned(
        &rk,
        Dim3::new1((n / 256) as u32),
        Dim3::new1(256),
        &[scalar_n, LaunchArg::Buf(out), LaunchArg::Buf(res)],
        0,
    )
    .unwrap();
    rt.synchronize();
    clock(&rt)
}

/// γ on a performance machine: two partitioned launches that resolve
/// nothing — and so pass no Figure 4 barrier — then an unpartitioned one
/// onto device 1, which still pulls every argument buffer whole and
/// barriers.
fn gamma_then_fallback() -> Clock {
    let ck = CompiledKernel::compile(&scale_kernel()).unwrap();
    let n = 1usize << 16;
    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(4), false));
    rt.set_config(RuntimeConfig::gamma());
    let x = rt.malloc(n * 4, 4).unwrap();
    let y = rt.malloc(n * 4, 4).unwrap();
    rt.memcpy_h2d_sim(x).unwrap();
    let (grid, block) = (Dim3::new1((n / 256) as u32), Dim3::new1(256));
    let args = [
        LaunchArg::Scalar(Value::I64(n as i64)),
        LaunchArg::Buf(x),
        LaunchArg::Buf(y),
    ];
    rt.launch(&ck, grid, block, &args).unwrap();
    rt.launch(&ck, grid, block, &args).unwrap();
    rt.launch_unpartitioned(&ck, grid, block, &args, 1).unwrap();
    rt.synchronize();
    clock(&rt)
}

#[test]
fn fallback_launch_clocks_are_pinned() {
    assert_eq!(
        fragmented_gather(false),
        Clock {
            bits: [
                4587652037648226137,
                4544080005735771275,
                4586850631380357382,
                4573038187272483792,
            ],
            counters: OpCounters {
                launches: 5,
                h2d_copies: 8,
                d2d_copies: 3088,
                h2d_bytes: 65536,
                d2d_bytes: 208896,
                ..OpCounters::default()
            },
        },
        "A5b, per-segment transfers"
    );
    assert_eq!(
        fragmented_gather(true),
        Clock {
            bits: [
                4573505957139516950,
                4544080005735771275,
                4555750581130360671,
                4573038187272483792,
            ],
            counters: OpCounters {
                launches: 5,
                h2d_copies: 8,
                d2d_copies: 19,
                h2d_bytes: 65536,
                d2d_bytes: 221172,
                ..OpCounters::default()
            },
        },
        "A5b, coalesced transfers"
    );
    assert_eq!(
        gamma_then_fallback(),
        Clock {
            bits: [4543201645569957522, 4548080988157148345, 0, 0],
            counters: OpCounters {
                launches: 9,
                h2d_copies: 4,
                d2d_copies: 3,
                h2d_bytes: 262144,
                d2d_bytes: 196608,
                checked_safe: 2,
                ..OpCounters::default()
            },
        },
        "γ, then a fallback launch"
    );
}
