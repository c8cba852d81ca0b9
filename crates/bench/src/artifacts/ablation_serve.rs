//! Ablation A11: the multi-tenant serving runtime.
//!
//! Three pairs of tenants — hotspot, blur, n-body, identical geometry
//! within each pair but different input data — run interleaved through
//! one [`mekong_serve::FleetServer`] on 4 functional devices, with the
//! tuned runtime configuration (autotuner, plan capture, replica
//! coherence, launch-ahead) and the shared sharded plan cache. Checked:
//!
//! 1. **Cross-tenant sharing** — the second tenant of each pair replays
//!    plans its partner captured (`plan_shared_hits > 0` fleet-wide);
//!    plan keys are data-independent, so differing inputs still share.
//! 2. **Isolation** — every tenant's read-backs are byte-identical to
//!    the same workload run alone on an idle fleet (sequential
//!    baseline).
//! 3. **Warm start** — the shared cache is snapshotted to JSON, loaded
//!    into a fresh server, and the whole tenant mix re-runs with *zero*
//!    plan captures (`plan_misses == 0`) and identical outputs — the
//!    CI determinism gate.
//!
//! Emits `BENCH_serve.json`.

use crate::harness::{write_report, BenchArgs, GateResult};
use mekong_core::prelude::*;
use mekong_serve::{FleetConfig, FleetServer, Probe, ProbeArg, TenantId, Ticket};
use mekong_workloads::app::{App, Arg, Input};
use mekong_workloads::{Benchmark, Blur, Hotspot, NBody};
use serde::Serialize;

/// One tenant: a workload description with this tenant's own input data.
struct Tenant {
    name: String,
    workload: &'static str,
    app: App,
    iters: usize,
}

fn pattern(len: usize, seed: u32, modulus: u32, scale: f32) -> Option<Input> {
    Some(Box::new(move || {
        (0..len)
            .flat_map(|i| {
                (((i as u32).wrapping_mul(31).wrapping_add(seed) % modulus) as f32 * scale)
                    .to_le_bytes()
            })
            .collect()
    }))
}

/// The workload descriptions with per-tenant seeded inputs: partners
/// of a pair differ in data only.
fn tenant(workload: &'static str, suffix: char, n: usize, iters: usize, seed: u32) -> Tenant {
    let app = match workload {
        "hotspot" => {
            let mut app = Hotspot.describe(n);
            app.buffers[0].input = pattern(n * n, seed, 173, 0.1);
            app.buffers[1].input = pattern(n * n, seed, 173, 0.1);
            app.buffers[2].input = pattern(n * n, seed ^ 5, 97, 0.01);
            app
        }
        "blur" => {
            // Both the image and the intermediate are uploaded.
            let mut app = Blur.describe(n);
            app.buffers[0].input = pattern(n * n, seed, 211, 0.05);
            app.buffers[1].input = pattern(n * n, seed, 211, 0.05);
            app
        }
        "nbody" => {
            // Moving bodies; positions and velocities are both read back.
            let mut app = NBody.describe(n);
            app.buffers[0].input = pattern(n * 4, seed, 157, 0.01);
            app.buffers[2].input = pattern(n * 4, seed ^ 9, 113, 0.001);
            app.outputs = vec![0, 2];
            app
        }
        other => unreachable!("no tenant workload {other}"),
    };
    Tenant {
        name: format!("{workload}-{suffix}"),
        workload,
        app,
        iters,
    }
}

/// The `FleetServer` interpreter of a description: register the tenant
/// (probing with its first launch) and queue its whole run; returns the
/// read-back tickets of the output buffers.
fn submit(server: &mut FleetServer, t: &Tenant) -> (TenantId, Vec<Ticket>) {
    let app = &t.app;
    let first = &app.launches[0];
    let probe = Probe {
        kernel: first.kernel.into(),
        grid: first.grid,
        block: first.block,
        args: first
            .args
            .iter()
            .map(|a| match *a {
                Arg::Scalar(v) => ProbeArg::Scalar(v),
                Arg::Buf(i) => ProbeArg::Buf {
                    bytes: app.buffers[i].bytes,
                    elem_size: app.buffers[i].elem_size,
                },
            })
            .collect(),
    };
    let id = server
        .register_tenant(&t.name, app.source, &probe)
        .expect("register tenant");
    let mut slots: Vec<VBufId> = app
        .buffers
        .iter()
        .map(|b| server.malloc(id, b.bytes, b.elem_size).unwrap())
        .collect();
    for (b, &buf) in app.buffers.iter().zip(&slots) {
        if let Some(input) = &b.input {
            server.submit_h2d(id, buf, input()).unwrap();
        }
    }
    for _ in 0..t.iters {
        for l in &app.launches {
            server
                .submit_launch(id, l.kernel, l.grid, l.block, l.launch_args(&slots))
                .unwrap();
        }
        if let Some((i, j)) = app.swap {
            slots.swap(i, j);
        }
    }
    server.submit_sync(id).unwrap();
    let tickets = app
        .outputs
        .iter()
        .map(|&o| server.submit_d2h(id, slots[o]).unwrap())
        .collect();
    (id, tickets)
}

/// Run the tenant mix through one server; returns per-tenant outputs
/// and the server for stats/snapshot inspection.
fn run_fleet(
    mix: &[Tenant],
    snapshot: Option<&str>,
) -> GateResult<(FleetServer, Vec<Vec<Vec<u8>>>)> {
    let mut server = FleetServer::new(FleetConfig::functional_fleet(4));
    if let Some(json) = snapshot {
        let loaded = server.load_plans(json).expect("snapshot loads");
        gate!(
            "a11.snapshot-non-empty",
            loaded > 0,
            "warm start requires a non-empty snapshot"
        );
    }
    let placed: Vec<(TenantId, Vec<Ticket>)> = mix.iter().map(|t| submit(&mut server, t)).collect();
    server.drain().expect("drain");
    let outputs = placed
        .iter()
        .map(|(t, tickets)| {
            tickets
                .iter()
                .map(|&k| server.take_output(*t, k).unwrap().expect("executed"))
                .collect()
        })
        .collect();
    Ok((server, outputs))
}

#[derive(Serialize)]
struct TenantReport {
    name: String,
    workload: &'static str,
    devices: Vec<usize>,
    wall_time_s: f64,
    plan_hits: u64,
    plan_misses: u64,
    plan_shared_hits: u64,
    plan_evictions: u64,
    bytes_h2d: u64,
    bytes_d2h: u64,
}

#[derive(Serialize)]
struct Report {
    gpus: usize,
    tenants: Vec<TenantReport>,
    fleet_shared_hits: u64,
    plan_cache_entries: usize,
    snapshot_bytes: usize,
    sequential_outputs_identical: bool,
    warm_start_plan_misses: u64,
    warm_start_outputs_identical: bool,
}

pub fn run(args: &BenchArgs) -> GateResult {
    let (hs, bl, nb) = args.pick(
        ((256, 24), (256, 12), (512, 4)),
        ((128usize, 6usize), (128usize, 4usize), (256usize, 2usize)),
    );
    // Pairs: identical geometry within a pair, different input seeds —
    // plan keys are data-independent, so partners share plans.
    let mix = [
        tenant("hotspot", 'a', hs.0, hs.1, 1),
        tenant("hotspot", 'b', hs.0, hs.1, 2),
        tenant("blur", 'a', bl.0, bl.1, 3),
        tenant("blur", 'b', bl.0, bl.1, 4),
        tenant("nbody", 'a', nb.0, nb.1, 5),
        tenant("nbody", 'b', nb.0, nb.1, 6),
    ];

    println!("Ablation A11: multi-tenant serving (4 functional GPUs, shared sharded plan cache)");
    println!();

    // (1) Interleaved fleet run.
    let (server, fleet_outputs) = run_fleet(&mix, None)?;
    let stats = server.fleet_stats();
    let fleet_shared: u64 = stats.iter().map(|s| s.plan_shared_hits).sum();
    gate!(
        "a11.cross-tenant-sharing",
        fleet_shared > 0,
        "tenant pairs must replay each other's plans"
    );

    println!(
        "{:>10} {:>9} {:>12} {:>8} {:>8} {:>8} {:>12}",
        "tenant", "workload", "devices", "hits", "misses", "shared", "elapsed [ms]"
    );
    let tenants: Vec<TenantReport> = mix
        .iter()
        .zip(&stats)
        .map(|(t, s)| {
            println!(
                "{:>10} {:>9} {:>12} {:>8} {:>8} {:>8} {:>12.3}",
                t.name,
                t.workload,
                format!("{:?}", s.devices),
                s.plan_hits,
                s.plan_misses,
                s.plan_shared_hits,
                s.wall_time * 1e3,
            );
            TenantReport {
                name: t.name.clone(),
                workload: t.workload,
                devices: s.devices.clone(),
                wall_time_s: s.wall_time,
                plan_hits: s.plan_hits,
                plan_misses: s.plan_misses,
                plan_shared_hits: s.plan_shared_hits,
                plan_evictions: s.plan_evictions,
                bytes_h2d: s.bytes_h2d,
                bytes_d2h: s.bytes_d2h,
            }
        })
        .collect();

    // (2) Sequential baselines: each tenant alone must agree byte for
    // byte with its interleaved outputs.
    for (t, interleaved) in mix.iter().zip(&fleet_outputs) {
        let (_, solo) = run_fleet(std::slice::from_ref(t), None)?;
        gate!(
            "a11.isolation",
            solo[0] == *interleaved,
            "{}: interleaved serving diverged from the solo run",
            t.name
        );
    }
    println!();
    println!(
        "sequential baselines: all {} tenants byte-identical",
        mix.len()
    );

    // (3) Warm start: snapshot, fresh server, zero captures.
    let snapshot = server.snapshot_plans();
    let (warm_server, warm_outputs) = run_fleet(&mix, Some(&snapshot))?;
    let warm_misses: u64 = warm_server
        .fleet_stats()
        .iter()
        .map(|s| s.plan_misses)
        .sum();
    gate_eq!(
        "a11.warm-start-zero-captures",
        warm_misses,
        0,
        "warm-started server must replay every launch from the snapshot"
    );
    gate!(
        "a11.warm-start-identical",
        warm_outputs == fleet_outputs,
        "warm start must reproduce the cold run byte for byte"
    );
    println!(
        "warm start: {} plans loaded ({} KiB snapshot), 0 captures, identical outputs",
        server.plan_cache().borrow().len(),
        snapshot.len() / 1024,
    );

    let report = Report {
        gpus: 4,
        tenants,
        fleet_shared_hits: fleet_shared,
        plan_cache_entries: server.plan_cache().borrow().len(),
        snapshot_bytes: snapshot.len(),
        sequential_outputs_identical: true,
        warm_start_plan_misses: warm_misses,
        warm_start_outputs_identical: true,
    };
    write_report(args, "serve", &report)
}
