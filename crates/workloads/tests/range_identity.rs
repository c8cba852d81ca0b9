//! End-to-end identity of the enumerator scan: for every workload, every
//! strategy the tuner would rank on three machines and every partition of
//! it, `AccessEnumerator::ranges_merged` (specialise, scan runs, linearize
//! in `i128`) equals what the row-by-row interpreter plus the per-row
//! linearize / pending-merge / sort / merge it used to feed computes.
//! These ranges are what every simulated byte count derives from.

#[path = "../../poly/tests/oracle/mod.rs"]
mod oracle;

use mekong_core::prelude::*;
use mekong_enumgen::ElemRange;
use mekong_gpusim::sample_kernel_profile;
use mekong_kernel::KernelArg;
use mekong_tuner::{enumerate_strategies, AxisMask, PartitionStrategy};
use mekong_workloads::app::Arg;
use mekong_workloads::{benchmarks, extra_benchmarks, hotspot};

/// The reference: oracle rows, each linearized row-major in `i64`, fused
/// with the previous one where they touch, then sorted and merged.
fn oracle_ranges(e: &AccessEnumerator, params: &[i64], exts: &[i64]) -> Vec<ElemRange> {
    let d = exts.len();
    let mut collected: Vec<ElemRange> = Vec::new();
    let mut pending: Option<ElemRange> = None;
    oracle::for_each_row(e.enumerator(), params, &mut |prefix, lo, hi| {
        let mut base: i64 = 0;
        for (i, &p) in prefix.iter().enumerate() {
            base = base * exts[i] + p;
        }
        let row_len = exts[d - 1];
        let lo = lo.max(0).min(row_len);
        let hi = hi.max(-1).min(row_len - 1);
        if lo > hi {
            return;
        }
        let start = (base * row_len + lo) as u64;
        let end = (base * row_len + hi + 1) as u64;
        match &mut pending {
            Some(p) if start <= p.end && end >= p.start => {
                p.start = p.start.min(start);
                p.end = p.end.max(end);
            }
            Some(p) => {
                collected.push(*p);
                *p = ElemRange { start, end };
            }
            None => pending = Some(ElemRange { start, end }),
        }
    });
    collected.extend(pending);
    collected.sort_by_key(|r| r.start);
    let mut merged: Vec<ElemRange> = Vec::with_capacity(collected.len());
    for r in collected {
        match merged.last_mut() {
            Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
            _ => merged.push(r),
        }
    }
    merged
}

#[test]
fn ranges_equal_the_interpreter_on_every_workload_strategy_and_partition() {
    let machines = [
        MachineSpec::kepler_system(4),
        MachineSpec::kepler_system(8),
        MachineSpec::hybrid_system(2, 1),
    ];
    let mut compared = 0usize;
    for b in benchmarks().iter().chain(&extra_benchmarks()) {
        // Four times the functional-check size, so that most candidates
        // have no empty partition.
        let app = b.describe(4 * b.check().n);
        let program = compile_source(app.source).unwrap();
        for l in &app.launches {
            let ck = program.kernel(l.kernel).unwrap();
            let scalars = l.scalars();
            let kargs: Vec<KernelArg> = l
                .args
                .iter()
                .map(|a| match *a {
                    Arg::Scalar(v) => KernelArg::Scalar(v),
                    Arg::Buf(_) => KernelArg::Array(0),
                })
                .collect();
            let profile = sample_kernel_profile(&ck.original, &kargs, l.grid, l.block).unwrap();
            // Strategies of different machines share most partitions.
            let mut parts: Vec<Partition> = Vec::new();
            for spec in &machines {
                for strategy in enumerate_strategies(spec, l.grid, profile, AxisMask::all()) {
                    for part in strategy.partitions(l.grid) {
                        if !parts.contains(&part) {
                            parts.push(part);
                        }
                    }
                }
            }
            for (idx, e) in ck.enums.reads.iter().chain(&ck.enums.writes) {
                let exts = e.concrete_extents(&ck.enums.scalar_names, &scalars);
                for part in &parts {
                    let params = e.params_vec(part, l.block, l.grid, &scalars);
                    let got =
                        e.ranges_merged(part, l.block, l.grid, &ck.enums.scalar_names, &scalars);
                    assert_eq!(
                        *got,
                        *oracle_ranges(e, &params, &exts),
                        "{} {} arg {idx}, partition {:?}..{:?}",
                        b.name(),
                        l.kernel,
                        part.lo,
                        part.hi
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 500, "only {compared} footprints compared");
}

/// The cost claim without a clock: a `y:4` slab of hotspot reaches the
/// linearizer as at most one closed-form run per piece, however many
/// rows the slab has.
#[test]
fn hotspot_slab_footprint_is_one_run_per_piece() {
    let n = 1024usize;
    let (grid, block) = hotspot::geometry(n);
    let program = compile_source(hotspot::SOURCE).unwrap();
    let ck = program.kernel("hotspot").unwrap();
    let scalars = [n as i64, 0];
    for part in PartitionStrategy::even(SplitAxis::Y, 4).partitions(grid) {
        for (idx, e) in ck.enums.reads.iter().chain(&ck.enums.writes) {
            let params = e.params_vec(&part, block, grid, &scalars);
            let (mut runs, mut rows) = (0usize, 0u64);
            e.enumerator().for_each_run(&params, &mut |run| {
                runs += 1;
                rows = rows.max(run.count);
            });
            assert!(
                (1..=e.enumerator().pieces().len()).contains(&runs),
                "arg {idx}: {runs} runs"
            );
            assert!(rows >= n as u64 / 4 - 1, "arg {idx}: longest run {rows}");
        }
    }
}
