//! Property-based verification of the tuner's cost model.
//!
//! Two obligations from the subsystem spec:
//!
//! 1. **Optimality of the choice**: under a pure-bytes objective (all
//!    other cost terms zeroed), the top-ranked candidate's predicted
//!    transfer volume is ≤ every other candidate's.
//! 2. **Exactness of the prediction**: for random 1-D halo kernels on
//!    small grids, the interval arithmetic in `evaluate` must agree with
//!    a brute-force per-element oracle that materializes the read set
//!    and ownership of every partition as byte sets.

use mekong_analysis::SplitAxis;
use mekong_enumgen::AccessEnumerator;
use mekong_gpusim::{MachineSpec, ThreadProfile};
use mekong_kernel::{Dim3, Extent};
use mekong_poly::Map;
use mekong_tuner::{
    evaluate, rank_candidates, AxisMask, Ownership, PartitionStrategy, ReadModel, TunerInput,
    WriteModel,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// 1-D enumerator covering `[blockOff.x - lo, blockOff.x + bdx + hi)`
/// per block, clipped to an `n`-element array.
fn enum_1d(lo_halo: i64, hi_halo: i64) -> AccessEnumerator {
    let text = format!(
        "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
         {{ [boz, boy, box, biz, biy, bix] -> [e] : \
            box - {lo_halo} <= e and e < box + bdx + {hi_halo} }}"
    );
    AccessEnumerator::build(&Map::parse(&text).unwrap(), &[Extent::Param("n".into())]).unwrap()
}

/// The oracle's view of a partition's accessed elements: every element
/// each block touches, computed per block without interval tricks.
fn oracle_elems(
    part: &mekong_partition::Partition,
    block_x: i64,
    n: i64,
    lo_halo: i64,
    hi_halo: i64,
) -> HashSet<i64> {
    let mut out = HashSet::new();
    for b in part.lo[2]..part.hi[2] {
        let off = b * block_x;
        for e in (off - lo_halo)..(off + block_x + hi_halo) {
            if e >= 0 && e < n {
                out.insert(e);
            }
        }
    }
    out
}

/// Brute-force remote transfer bytes for `strategy`: elements partition
/// `p` reads that some *other* partition owns.
#[allow(clippy::too_many_arguments)]
fn oracle_transfer_bytes(
    strategy: &PartitionStrategy,
    grid: Dim3,
    block: Dim3,
    n: i64,
    elem_size: u64,
    read_halo: (i64, i64),
    ownership_by_writes: bool,
    n_devices: usize,
) -> u64 {
    let parts = strategy.partitions(grid);
    let bx = block.x as i64;
    // Owner of each element.
    let mut owner: Vec<Option<usize>> = vec![None; n as usize];
    if ownership_by_writes {
        for (p, part) in parts.iter().enumerate() {
            for e in oracle_elems(part, bx, n, 0, 0) {
                owner[e as usize] = Some(p);
            }
        }
    } else {
        // Linear distribution over all devices of the machine.
        let total = n as u64;
        let base = total / n_devices as u64;
        let rem = total % n_devices as u64;
        let mut off = 0u64;
        for d in 0..n_devices as u64 {
            let len = base + u64::from(d < rem);
            for e in off..off + len {
                owner[e as usize] = Some(d as usize);
            }
            off += len;
        }
    }
    let mut bytes = 0u64;
    for (p, part) in parts.iter().enumerate() {
        for e in oracle_elems(part, bx, n, read_halo.0, read_halo.1) {
            match owner[e as usize] {
                Some(o) if o != p => bytes += elem_size,
                _ => {}
            }
        }
    }
    bytes
}

/// A machine whose ranking objective degenerates to transfer bytes:
/// free launches, free host work, zero link latency, unit bandwidth.
fn bytes_only_machine(n_devices: usize) -> MachineSpec {
    let mut spec = MachineSpec::kepler_system(n_devices);
    spec.device.launch_overhead = 0.0;
    spec.link.latency = 0.0;
    spec.link.bandwidth = 1.0;
    spec.host_per_range = 0.0;
    spec.host_per_segment = 0.0;
    spec.host_per_launch = 0.0;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `evaluate` equals the per-element oracle for every enumerated
    /// candidate, under both ownership flavours.
    #[test]
    fn prediction_matches_brute_force_oracle(
        n_blocks in 2i64..9,
        block_x in 1i64..9,
        lo_halo in 0i64..5,
        hi_halo in 0i64..5,
        n_devices in 2usize..5,
        by_writes in proptest::bool::ANY,
    ) {
        let n = n_blocks * block_x;
        let grid = Dim3::new1(n_blocks as u32);
        let block = Dim3::new1(block_x as u32);
        let spec = bytes_only_machine(n_devices);
        let write = enum_1d(0, 0);
        let read = enum_1d(lo_halo, hi_halo);
        let scalar_names = vec!["n".to_string()];
        let elem_size = 4u64;
        let ownership = if by_writes {
            Ownership::SelfWrites(0)
        } else {
            Ownership::linear(n as u64, elem_size, n_devices)
        };
        let input = TunerInput {
            spec: &spec,
            grid,
            block,
            scalar_names: &scalar_names,
            scalars: &[n],
            reads: vec![ReadModel { enumerator: &read, elem_size, ownership }],
            writes: vec![WriteModel { enumerator: &write, elem_size }],
            profile: ThreadProfile::default(),
            pattern_amortized: false,
        };
        for k in 1..=n_devices {
            let strategy = PartitionStrategy::even(SplitAxis::X, k);
            let predicted = evaluate(&input, &strategy).transfer_bytes;
            let expected = oracle_transfer_bytes(
                &strategy, grid, block, n, elem_size,
                (lo_halo, hi_halo), by_writes, n_devices,
            );
            prop_assert_eq!(
                predicted, expected,
                "strategy {} on n={} bdx={} halo=({},{}) by_writes={}",
                strategy.describe(), n, block_x, lo_halo, hi_halo, by_writes
            );
        }
    }

    /// With a bytes-only objective, the top-ranked candidate moves no
    /// more data than any other candidate.
    #[test]
    fn chosen_candidate_minimizes_predicted_transfer(
        n_blocks in 2i64..13,
        block_x in 1i64..9,
        lo_halo in 0i64..5,
        hi_halo in 0i64..5,
        n_devices in 2usize..6,
        by_writes in proptest::bool::ANY,
    ) {
        let n = n_blocks * block_x;
        let grid = Dim3::new1(n_blocks as u32);
        let block = Dim3::new1(block_x as u32);
        let spec = bytes_only_machine(n_devices);
        let write = enum_1d(0, 0);
        let read = enum_1d(lo_halo, hi_halo);
        let scalar_names = vec!["n".to_string()];
        let ownership = if by_writes {
            Ownership::SelfWrites(0)
        } else {
            Ownership::linear(n as u64, 4, n_devices)
        };
        let input = TunerInput {
            spec: &spec,
            grid,
            block,
            scalar_names: &scalar_names,
            scalars: &[n],
            reads: vec![ReadModel { enumerator: &read, elem_size: 4, ownership }],
            writes: vec![WriteModel { enumerator: &write, elem_size: 4 }],
            profile: ThreadProfile::default(),
            pattern_amortized: false,
        };
        let ranked = rank_candidates(&input, AxisMask::all());
        prop_assert!(!ranked.is_empty());
        let best = ranked[0].predict.transfer_bytes;
        for c in &ranked[1..] {
            prop_assert!(
                best <= c.predict.transfer_bytes,
                "chosen {} moves {} bytes but {} moves {}",
                ranked[0].strategy.describe(), best,
                c.strategy.describe(), c.predict.transfer_bytes
            );
        }
    }
}
