//! Ablation A5: transfer coalescing.
//!
//! **Part A** runs the separable blur pipeline on a functional 4-GPU
//! machine (§5, Figure 4) with and without coalescing (read ranges
//! merged before the tracker query, same-source transfers bridging
//! small Uninit gaps). Both produce identical output bytes; blur's
//! trackers are regular — one maximal segment per halo — so coalescing
//! is neutral here.
//!
//! **Part B** shows where coalescing pays: an instrumented strided
//! scatter leaves its output tracker as thousands of single-element
//! Device/Uninit segments; gathering that buffer onto one device then
//! costs one transfer latency per *element* without coalescing, and one
//! per *source device* with it.

use crate::harness::{BenchArgs, GateResult};
use mekong_core::prelude::*;
use mekong_gpusim::OpCounters;
use mekong_kernel::builder::*;
use mekong_kernel::Kernel;
use mekong_workloads::{Benchmark, Blur};
use std::time::Instant;

struct Run {
    label: &'static str,
    wall_ms: f64,
    elapsed: f64,
    counters: OpCounters,
    output: Vec<u8>,
}

fn run_blur(label: &'static str, coalesce: bool) -> Run {
    let machine = Machine::new(MachineSpec::kepler_system(4), true);
    let cfg = RuntimeConfig {
        coalesce_transfers: coalesce,
        ..RuntimeConfig::alpha()
    };
    let mut p = Blur.describe(512).prepare(machine, cfg);
    let t0 = Instant::now();
    let output = p.run(3).concat();
    Run {
        label,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        elapsed: p.rt.elapsed(),
        counters: p.rt.machine().counters(),
        output,
    }
}

/// Strided scatter + whole-buffer gather: (d2d copies, sync seconds) of
/// the gather phase.
fn run_fragmented(coalesce: bool) -> GateResult<(u64, f64)> {
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
    let reader = Kernel {
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
    };
    let ck = CompiledKernel::compile(&scatter).unwrap();
    let rk = CompiledKernel::compile(&reader).unwrap();
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
    rt.launch_instrumented(
        &ck,
        Dim3::new1((n / 2 / 128) as u32),
        Dim3::new1(128),
        &[
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Buf(idx),
            LaunchArg::Buf(a),
            LaunchArg::Buf(out),
        ],
    )
    .expect("instrumented scatter");
    let fragments = rt.segment_count(out);
    let res = rt.malloc(n * 4, 4).unwrap();
    let before = rt.machine().counters().d2d_copies;
    let t0 = rt.elapsed();
    rt.launch_unpartitioned(
        &rk,
        Dim3::new1((n / 256) as u32),
        Dim3::new1(256),
        &[
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Buf(out),
            LaunchArg::Buf(res),
        ],
        0,
    )
    .expect("gather launch");
    rt.synchronize();
    gate!(
        "a5b.tracker-fragmented",
        fragments > n / 2,
        "tracker must be fragmented: {fragments}"
    );
    Ok((
        rt.machine().counters().d2d_copies - before,
        rt.elapsed() - t0,
    ))
}

pub fn run(_args: &BenchArgs) -> GateResult {
    println!("Ablation A5a: transfer coalescing (blur 512x512, 3 iters, 4 functional GPUs)");
    println!();
    let runs = [run_blur("uncoalesced", false), run_blur("coalesced", true)];
    println!(
        "{:>20} {:>12} {:>14} {:>10} {:>10}",
        "transfers", "wall [ms]", "sim [ms]", "d2d", "launches"
    );
    for r in &runs {
        println!(
            "{:>20} {:>12.1} {:>14.3} {:>10} {:>10}",
            r.label,
            r.wall_ms,
            r.elapsed * 1e3,
            r.counters.d2d_copies,
            r.counters.launches
        );
    }
    let [plain, coalesced] = &runs;
    gate!(
        "a5a.coalescing-keeps-output",
        plain.output == coalesced.output,
        "coalescing must not change results"
    );
    gate!(
        "a5a.coalescing-not-slower",
        coalesced.elapsed <= plain.elapsed,
        "coalescing can only remove latency terms: {} vs {}",
        coalesced.elapsed,
        plain.elapsed
    );
    println!();
    println!("blur's halos are already maximal segments: coalescing is neutral.");
    println!();
    println!("Ablation A5b: fragmented-tracker gather (strided scatter, n=8192, 4 GPUs)");
    println!();
    let (copies_plain, time_plain) = run_fragmented(false)?;
    let (copies_coalesced, time_coalesced) = run_fragmented(true)?;
    println!(
        "{:>20} {:>12} {:>14}",
        "transfers", "d2d copies", "sync [ms]"
    );
    println!(
        "{:>20} {:>12} {:>14.3}",
        "per-segment",
        copies_plain,
        time_plain * 1e3
    );
    println!(
        "{:>20} {:>12} {:>14.3}",
        "coalesced",
        copies_coalesced,
        time_coalesced * 1e3
    );
    gate!(
        "a5b.coalescing-cuts-copies",
        copies_coalesced < copies_plain,
        "coalescing must reduce the copy count: {copies_plain} -> {copies_coalesced}"
    );
    gate!(
        "a5b.coalescing-not-slower",
        time_coalesced <= time_plain,
        "fewer latencies cannot be slower: {time_plain} -> {time_coalesced}"
    );
    println!();
    println!(
        "coalescing bridges same-source copies across Uninit gaps: {} copies -> {},",
        copies_plain, copies_coalesced
    );
    println!(
        "sync time x{:.4} (one link latency per device instead of per element).",
        time_coalesced / time_plain
    );
    Ok(())
}
