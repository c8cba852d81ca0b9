//! The static cost model and candidate enumeration.
//!
//! For a candidate strategy the model predicts, per launch:
//!
//! ```text
//! time = max_p [ overhead(d_p) + roofline(threads_p, profile, d_p) ]   (compute)
//!      + transfer(remote read bytes, copies)                           (transfer)
//!      + host_per_launch·k + host_per_range·ranges + host_per_segment·copies
//! ```
//!
//! The transfer term is the exact polyhedral footprint arithmetic of the
//! paper's runtime, evaluated symbolically: partition `p`'s read ranges
//! (from the access enumerators) minus the byte intervals partition `p`
//! already owns. For 2-D rectangular tilings this is the tile's halo
//! *perimeter*: each contiguous face arrives as one bulk copy and each
//! column face as one strided transaction ([`strided_groups`]), priced
//! per source link with hop-weighted setup latency. Ownership comes in
//! two flavours:
//!
//! * [`Ownership::SelfWrites`] — steady state for arrays the kernel
//!   itself (re)writes: partition `p` owns exactly what it writes, so
//!   remote bytes are reads that land in *another* partition's write
//!   footprint. This models iterated stencils/ping-pong chains where the
//!   previous launch distributed the array along the same partitioning.
//! * [`Ownership::Segments`] — concrete `(start, end, device, holders)`
//!   byte intervals from the runtime's segment tracker, for arrays the
//!   kernel only reads (their layout is whatever history left behind).
//!   Bytes the reading device already *holds* a valid replica of are
//!   free: the runtime's replica-aware read synchronization skips them.
//! * [`Ownership::Replicated`] — steady state for read-only arrays under
//!   replica coherence: after the first launch every reading device keeps
//!   a valid copy of what it read, so repeated launches move nothing.
//!
//! Bytes owned by no device (host or uninitialized) cost nothing here:
//! the simulator charges those flows to H2D, not the peer interconnect,
//! and they are identical across candidates.

use crate::strategy::PartitionStrategy;
use mekong_analysis::SplitAxis;
use mekong_check::AxisMask;
use mekong_enumgen::{AccessEnumerator, ElemRange};
use mekong_gpusim::{DeviceSpec, MachineSpec, ThreadProfile};
use mekong_kernel::Dim3;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A byte interval owned by `device` (`None` = host/uninitialized: reads
/// of it are not peer traffic). `holders` is the raw bitmask of devices
/// additionally holding a valid replica (bit `d` = device `d`, mirroring
/// the runtime tracker's validity set): a read by any holder is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnedSegment {
    pub start: u64,
    pub end: u64,
    pub device: Option<usize>,
    pub holders: u64,
}

/// Where the bytes of a read array live when the kernel launches.
#[derive(Debug, Clone)]
pub enum Ownership {
    /// Partition `p` owns the bytes written by write model `w` (index
    /// into [`TunerInput::writes`]) on partition `p`.
    SelfWrites(usize),
    /// Concrete ownership intervals (sorted, non-overlapping), e.g. from
    /// the runtime's tracker.
    Segments(Vec<OwnedSegment>),
    /// Replica-coherent steady state: every reading device retains a
    /// valid copy after the first launch, so repeated launches incur no
    /// peer traffic for this array. Warm-up transfers are a one-off the
    /// per-launch model deliberately ignores (the tuner's measurement
    /// window skips the settle launches for the same reason).
    Replicated,
}

impl Ownership {
    /// The linear host-to-device distribution the runtime's `memcpy_h2d`
    /// produces: elements split evenly over `n` devices, remainder on
    /// the leading devices. This is what a freshly uploaded buffer's
    /// tracker holds.
    pub fn linear(total_elems: u64, elem_size: u64, n_devices: usize) -> Ownership {
        let n = n_devices as u64;
        let base = total_elems / n;
        let rem = total_elems % n;
        let mut segs = Vec::with_capacity(n_devices);
        let mut off = 0u64;
        for d in 0..n {
            let len = base + u64::from(d < rem);
            if len > 0 {
                segs.push(OwnedSegment {
                    start: off * elem_size,
                    end: (off + len) * elem_size,
                    device: Some(d as usize),
                    holders: 1u64 << d.min(63),
                });
            }
            off += len;
        }
        Ownership::Segments(segs)
    }
}

/// A read array as the cost model sees it.
pub struct ReadModel<'a> {
    pub enumerator: &'a AccessEnumerator,
    pub elem_size: u64,
    pub ownership: Ownership,
}

/// A written array as the cost model sees it.
pub struct WriteModel<'a> {
    pub enumerator: &'a AccessEnumerator,
    pub elem_size: u64,
}

/// Everything [`evaluate`] needs about one kernel launch site.
pub struct TunerInput<'a> {
    pub spec: &'a MachineSpec,
    pub grid: Dim3,
    pub block: Dim3,
    pub scalar_names: &'a [String],
    pub scalars: &'a [i64],
    pub reads: Vec<ReadModel<'a>>,
    pub writes: Vec<WriteModel<'a>>,
    /// Per-thread instruction/traffic counts sampled in counting mode.
    pub profile: ThreadProfile,
    /// Steady-state launches replay captured plans (the runtime's
    /// `capture_plans`): the per-range/per-segment pattern walk happens
    /// once at capture, and every later launch pays only
    /// `host_per_replay`. When set, the pattern term prices the replay
    /// instead of the walk — otherwise range-heavy candidates (column
    /// halos, rectangular tiles) are charged a per-iteration host cost
    /// the runtime never incurs.
    pub pattern_amortized: bool,
}

/// Predicted per-launch cost of one candidate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Peer-transfer volume: read bytes owned by another device.
    pub transfer_bytes: u64,
    /// Number of distinct peer copies those bytes arrive in.
    pub n_copies: u64,
    /// Enumerated element ranges (reads + writes over all partitions) —
    /// the driver of the host-side "Patterns" overhead.
    pub n_ranges: u64,
    /// Slowest partition's roofline kernel time + launch overhead, s.
    pub compute_time: f64,
    /// Peer-transfer time (serialized when the link is host-staged), s.
    pub transfer_time: f64,
    /// Host-side orchestration time (launch + range + segment costs), s.
    pub pattern_time: f64,
}

impl CostEstimate {
    /// The scalar objective candidates are ranked by.
    pub fn total_time(&self) -> f64 {
        self.compute_time + self.transfer_time + self.pattern_time
    }
}

/// One enumerated strategy with its predicted cost.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub strategy: PartitionStrategy,
    pub predict: CostEstimate,
}

/// Roofline time of `threads` threads of `profile` on device `spec`.
fn roofline(threads: f64, profile: ThreadProfile, spec: &DeviceSpec) -> f64 {
    let t_flop = threads * profile.flops_per_thread / spec.flops;
    let t_int = threads * profile.intops_per_thread / spec.int_ops;
    let t_mem = threads * profile.bytes_per_thread / spec.mem_bw;
    t_flop.max(t_int).max(t_mem)
}

/// Per-thread time on a device — the basis of proportional shares.
pub fn thread_time(profile: ThreadProfile, spec: &DeviceSpec) -> f64 {
    roofline(1.0, profile, spec)
}

/// One partition's footprint on an array: the enumerator's sorted,
/// merged element ranges (the range memo's own slice) and the element
/// size that turns them into byte intervals.
struct Footprint {
    ranges: Arc<[ElemRange]>,
    elem_size: u64,
}

impl Footprint {
    fn of(
        enumerator: &AccessEnumerator,
        elem_size: u64,
        part: &mekong_partition::Partition,
        input: &TunerInput<'_>,
    ) -> Footprint {
        Footprint {
            ranges: enumerator.ranges_merged(
                part,
                input.block,
                input.grid,
                input.scalar_names,
                input.scalars,
            ),
            elem_size,
        }
    }

    /// The sorted, non-overlapping byte intervals.
    fn bytes(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges
            .iter()
            .map(|r| (r.start * self.elem_size, r.end * self.elem_size))
    }
}

/// Intersect two sorted, non-overlapping interval sequences; returns the
/// total overlap bytes and the maximal (coalesced) overlap intervals.
/// Adjacent pieces merge, as the runtime's transfer coalescer would
/// merge them.
fn intersect(
    a: impl Iterator<Item = (u64, u64)>,
    b: impl Iterator<Item = (u64, u64)>,
) -> (u64, Vec<(u64, u64)>) {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    let mut bytes = 0u64;
    let mut pieces: Vec<(u64, u64)> = Vec::new();
    while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
        let lo = x.0.max(y.0);
        let hi = x.1.min(y.1);
        if lo < hi {
            bytes += hi - lo;
            match pieces.last_mut() {
                Some(last) if last.1 == lo => last.1 = hi,
                _ => pieces.push((lo, hi)),
            }
        }
        if x.1 <= y.1 {
            a.next();
        } else {
            b.next();
        }
    }
    (bytes, pieces)
}

/// A maximal arithmetic progression of equally-sized, equally-spaced
/// byte runs — the column-halo shape of a rectangular tiling. The
/// runtime moves each group as **one** strided DMA transaction
/// (`cudaMemcpy2D`-style; see [`mekong_gpusim::CopyRuns`]), so the
/// cost model prices one link latency per group, not per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedGroup {
    pub start: u64,
    /// Bytes per run.
    pub run: u64,
    /// Distance between run starts; `== run` for a single-run group.
    pub stride: u64,
    pub count: u64,
}

/// Greedily group sorted, disjoint, non-adjacent byte segments into
/// maximal [`StridedGroup`]s. Used by both the cost model (to count
/// transactions) and the runtime's transfer coalescer (to issue them),
/// so predictions track what actually happens on the link.
pub fn strided_groups(segs: &[(u64, u64)]) -> Vec<StridedGroup> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < segs.len() {
        let (start, end) = segs[i];
        let run = end - start;
        let mut stride = run;
        let mut count = 1u64;
        for &(s2, e2) in &segs[i + 1..] {
            if e2 - s2 != run {
                break;
            }
            let prev_start = start + (count - 1) * stride;
            let gap = s2 - prev_start;
            if count == 1 {
                stride = gap;
            } else if gap != stride {
                break;
            }
            if stride < run {
                break;
            }
            count += 1;
        }
        if count == 1 {
            stride = run;
        }
        out.push(StridedGroup {
            start,
            run,
            stride,
            count,
        });
        i += count as usize;
    }
    out
}

/// Predict the per-launch cost of `strategy` on `input`.
pub fn evaluate(input: &TunerInput<'_>, strategy: &PartitionStrategy) -> CostEstimate {
    let parts = strategy.partitions(input.grid);
    let k = parts.len();
    let spec = input.spec;

    // Write footprints per (write model, partition), needed both for
    // SelfWrites ownership and the range count.
    let writes_by_part: Vec<Vec<Footprint>> = input
        .writes
        .iter()
        .map(|w| {
            parts
                .iter()
                .map(|p| Footprint::of(w.enumerator, w.elem_size, p, input))
                .collect()
        })
        .collect();

    let mut est = CostEstimate::default();
    for per_part in &writes_by_part {
        for written in per_part {
            est.n_ranges += written.ranges.len() as u64;
        }
    }

    // Remote read bytes per destination device (partition p runs on
    // device p). Copies are counted as strided *transactions* — the
    // per-tile halo perimeter arrives as one bulk copy per contiguous
    // face plus one strided copy per column face — and each
    // transaction's setup latency is weighted by the source→dest link
    // hop count.
    let mut incoming_bytes = vec![0u64; k];
    let mut incoming_copies = vec![0u64; k];
    let mut incoming_lat_units = vec![0.0f64; k];
    // Mixed-class machines price each source→dest pair by its device
    // classes (GPU↔GPU over the link, CPU↔CPU as a memcpy, mixed as one
    // PCIe hop), accumulated in seconds per destination. Pure-GPU
    // machines skip this and keep the exact legacy expressions below.
    let hybrid = spec.has_host_cpu();
    let mut incoming_direct_time = vec![0.0f64; k];
    let mut incoming_staged_time = vec![0.0f64; k];
    let mut note = |p: usize, q: usize, bytes: u64, pieces: &[(u64, u64)]| {
        let txns = strided_groups(pieces).len() as u64;
        incoming_bytes[p] += bytes;
        incoming_copies[p] += txns;
        incoming_lat_units[p] += txns as f64 * f64::from(MachineSpec::link_hops(q, p));
        if hybrid {
            let (lat, bw, staged) = spec.pair_copy_params(q, p);
            use mekong_gpusim::DeviceClass::SimGpu;
            // Hop-weight the setup latency only on the GPU interconnect;
            // host memcpys and single PCIe crossings have no hop tree.
            let hops = if spec.device_class(q) == SimGpu && spec.device_class(p) == SimGpu {
                f64::from(MachineSpec::link_hops(q, p))
            } else {
                1.0
            };
            let t = txns as f64 * lat * hops + bytes as f64 / bw;
            if staged {
                incoming_staged_time[p] += t;
            } else {
                incoming_direct_time[p] += t;
            }
        }
    };
    for read in &input.reads {
        // Owned intervals per device, built once per read; which of them
        // partition p already holds as a replica is decided per p below.
        let owned_by: Vec<Vec<&OwnedSegment>> = match &read.ownership {
            Ownership::Segments(segs) => {
                let mut per = vec![Vec::new(); spec.n_devices];
                for s in segs {
                    if let Some(d) = s.device.filter(|&d| d < spec.n_devices && s.start < s.end) {
                        per[d].push(s);
                    }
                }
                per
            }
            _ => Vec::new(),
        };
        for (p, part) in parts.iter().enumerate() {
            let reads = Footprint::of(read.enumerator, read.elem_size, part, input);
            est.n_ranges += reads.ranges.len() as u64;
            match &read.ownership {
                Ownership::SelfWrites(w) => {
                    for (q, owned) in writes_by_part[*w].iter().enumerate() {
                        if q == p {
                            continue;
                        }
                        let (bytes, pieces) = intersect(reads.bytes(), owned.bytes());
                        note(p, q, bytes, &pieces);
                    }
                }
                Ownership::Segments(_) => {
                    // Intervals remote *to p*: owned by another device and
                    // not already held by p as a valid replica.
                    let held = |s: &OwnedSegment| p < 64 && (s.holders >> p) & 1 == 1;
                    for (owner, owned) in owned_by.iter().enumerate() {
                        if owner == p || owned.iter().all(|s| held(s)) {
                            continue;
                        }
                        let remote = owned.iter().filter(|s| !held(s)).map(|s| (s.start, s.end));
                        let (bytes, pieces) = intersect(reads.bytes(), remote);
                        note(p, owner, bytes, &pieces);
                    }
                }
                // Every reading device already holds what it reads.
                Ownership::Replicated => {}
            }
        }
    }
    est.transfer_bytes = incoming_bytes.iter().sum();
    est.n_copies = incoming_copies.iter().sum();

    // Compute: slowest partition under the per-device roofline.
    for (p, part) in parts.iter().enumerate() {
        let dspec = spec.device_spec(p);
        let threads = (part.block_count() * input.block.count()) as f64;
        let t = dspec.launch_overhead + roofline(threads, input.profile, dspec);
        est.compute_time = est.compute_time.max(t);
    }

    // Transfer: host-staged links serialize all peer copies; direct
    // links overlap pairwise, so the slowest destination bounds. Setup
    // latency is hop-weighted per transaction (a board-crossing copy
    // traverses two links).
    let per_dest = |d: usize| {
        incoming_lat_units[d] * spec.link.latency + incoming_bytes[d] as f64 / spec.link.bandwidth
    };
    est.transfer_time = if hybrid {
        // Staged (GPU↔GPU on a PCIe tree) copies serialize on the
        // staging engine; everything else — memcpys, single PCIe
        // crossings, direct links — overlaps, so the slowest
        // destination bounds.
        let staged: f64 = incoming_staged_time.iter().sum();
        let direct = incoming_direct_time.iter().cloned().fold(0.0, f64::max);
        staged + direct
    } else if spec.link.host_staged {
        (0..k).map(per_dest).sum()
    } else {
        (0..k).map(per_dest).fold(0.0, f64::max)
    };

    // Host-side pattern costs, mirroring what the runtime charges per
    // partitioned launch. Under plan capture the walk is paid once and
    // steady-state launches replay it for a flat fee.
    est.pattern_time = if input.pattern_amortized {
        spec.host_per_replay
    } else {
        k as f64 * spec.host_per_launch
            + est.n_ranges as f64 * spec.host_per_range
            + est.n_copies as f64 * spec.host_per_segment
    };
    est
}

/// Throughput-proportional share weights for the first `k` devices:
/// `w_d ∝ 1 / thread_time(d)`. Equal when the machine is homogeneous or
/// the profile is empty.
pub fn proportional_shares(spec: &MachineSpec, profile: ThreadProfile, k: usize) -> Vec<f64> {
    let times: Vec<f64> = (0..k)
        .map(|d| thread_time(profile, spec.device_spec(d)))
        .collect();
    if times.iter().any(|&t| t <= 0.0) {
        return vec![1.0; k];
    }
    let total: f64 = times.iter().map(|t| 1.0 / t).sum();
    times.iter().map(|t| (1.0 / t) / total).collect()
}

/// Enumerate the candidate strategies for a machine and grid: every axis
/// with more than one block × every device count × even and (on
/// heterogeneous machines) proportional shares. The single-device
/// candidate appears once — axis is meaningless for one slice.
pub fn enumerate_strategies(
    spec: &MachineSpec,
    grid: Dim3,
    profile: ThreadProfile,
) -> Vec<PartitionStrategy> {
    enumerate_strategies_masked(spec, grid, profile, AxisMask::all())
}

/// [`enumerate_strategies`] restricted to split axes the static checker
/// proved write-disjoint: a strategy along a rejected axis is never even
/// a candidate, and a rectangular tiling is enumerable only when *both*
/// of its axes are proven. The single-device strategy survives any mask
/// — one slice runs unpartitioned, so its axis is meaningless.
pub fn enumerate_strategies_masked(
    spec: &MachineSpec,
    grid: Dim3,
    profile: ThreadProfile,
    allowed: AxisMask,
) -> Vec<PartitionStrategy> {
    enumerate_strategies_opts(spec, grid, profile, allowed, true)
}

/// [`enumerate_strategies_masked`] with the 2-D tiling candidates made
/// optional (`tilings = false` reproduces the 1-D slab-only search
/// space; the runtime exposes this as a config knob for ablations).
pub fn enumerate_strategies_opts(
    spec: &MachineSpec,
    grid: Dim3,
    profile: ThreadProfile,
    allowed: AxisMask,
    tilings: bool,
) -> Vec<PartitionStrategy> {
    let gz = grid.zyx();
    let mut axes: Vec<SplitAxis> = [SplitAxis::Z, SplitAxis::Y, SplitAxis::X]
        .into_iter()
        .filter(|a| gz[a.zyx_index()] > 1)
        .collect();
    if axes.is_empty() {
        axes.push(SplitAxis::X);
    }
    let mut out = Vec::new();
    out.push(PartitionStrategy::even(axes[0], 1));
    axes.retain(|a| allowed.allows(*a));
    for &axis in &axes {
        for k in 2..=spec.n_devices {
            out.push(PartitionStrategy::even(axis, k));
            if !spec.is_homogeneous() {
                let shares = proportional_shares(spec, profile, k);
                let prop = PartitionStrategy::weighted(axis, shares);
                if prop.is_weighted() {
                    out.push(prop);
                }
            }
        }
    }
    if tilings {
        // Rectangular tilings: every ordered pair of distinct proven
        // axes (order fixes which axis varies fastest in the device
        // layout) × every factorization ka·kb ≤ n_devices with both
        // factors ≥ 2 (a factor of 1 degenerates to a slab split, which
        // the 1-D loop already enumerated). Bounded by
        // |axes|² · d(n_devices) — single digits for real machines.
        for &a in &axes {
            for &b in &axes {
                if a == b {
                    continue;
                }
                for ka in 2..=spec.n_devices / 2 {
                    for kb in 2..=spec.n_devices / ka {
                        out.push(PartitionStrategy::tiled(a, ka, b, kb));
                        if !spec.is_homogeneous() {
                            // Weighted lattice: tile (i, j) runs on
                            // device i·kb + j, so the per-axis shares
                            // are the marginals of the per-device
                            // proportional weights over the lattice.
                            let w = proportional_shares(spec, profile, ka * kb);
                            let shares_a: Vec<f64> = (0..ka)
                                .map(|i| w[i * kb..(i + 1) * kb].iter().sum())
                                .collect();
                            let shares_b: Vec<f64> = (0..kb)
                                .map(|j| (0..ka).map(|i| w[i * kb + j]).sum())
                                .collect();
                            let prop = PartitionStrategy::tiled_weighted(a, shares_a, b, shares_b);
                            if prop.is_weighted() {
                                out.push(prop);
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Evaluate every enumerated strategy and rank by predicted time
/// (deterministic tie-breaks: fewer transfer bytes, fewer copies, then
/// encoding order).
pub fn rank_candidates(input: &TunerInput<'_>) -> Vec<Candidate> {
    rank_candidates_masked(input, AxisMask::all())
}

/// [`rank_candidates`] over the checker-restricted candidate set: only
/// strategies along axes in `allowed` (plus the single-device fallback)
/// are evaluated and ranked.
pub fn rank_candidates_masked(input: &TunerInput<'_>, allowed: AxisMask) -> Vec<Candidate> {
    rank_candidates_opts(input, allowed, true)
}

/// [`rank_candidates_masked`] with the 2-D tiling candidates made
/// optional (see [`enumerate_strategies_opts`]).
pub fn rank_candidates_opts(
    input: &TunerInput<'_>,
    allowed: AxisMask,
    tilings: bool,
) -> Vec<Candidate> {
    let mut out: Vec<Candidate> =
        enumerate_strategies_opts(input.spec, input.grid, input.profile, allowed, tilings)
            .into_iter()
            .map(|strategy| Candidate {
                predict: evaluate(input, &strategy),
                strategy,
            })
            .collect();
    out.sort_by(|a, b| {
        a.predict
            .total_time()
            .total_cmp(&b.predict.total_time())
            .then(a.predict.transfer_bytes.cmp(&b.predict.transfer_bytes))
            .then(a.predict.n_copies.cmp(&b.predict.n_copies))
            .then(a.strategy.encode().cmp(&b.strategy.encode()))
    });
    out
}

/// Cheapest ranked candidate that fits on at most `max_devices` devices.
///
/// A fleet scheduler carving a device subset out of a larger machine
/// ranks candidates on the full-fleet spec (so relative link/device
/// costs are honest) and then asks for the best strategy it can still
/// place. Returns `None` when `max_devices == 0` or no candidate fits.
pub fn best_candidate_within(cands: &[Candidate], max_devices: usize) -> Option<&Candidate> {
    cands
        .iter()
        .find(|c| c.strategy.n_parts() <= max_devices && c.strategy.n_parts() >= 1)
}

/// Device count a tenant's kernel is worth, per the ranked candidate
/// list: the `n_parts` of the cheapest candidate fitting within
/// `max_devices` (1 when nothing fits — the single-device fallback is
/// always enumerable).
pub fn preferred_devices(cands: &[Candidate], max_devices: usize) -> usize {
    best_candidate_within(cands, max_devices)
        .map(|c| c.strategy.n_parts())
        .unwrap_or(1)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mekong_gpusim::LinkSpec;
    use mekong_kernel::Extent;
    use mekong_poly::Map;

    /// A 1-D access enumerator over an `n`-element array covering
    /// `[blockOff.x - lo_halo, blockOff.x + blockDim.x + hi_halo)` per
    /// block (clipped to the array).
    fn enum_1d(lo_halo: i64, hi_halo: i64) -> AccessEnumerator {
        let text = format!(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             {{ [boz, boy, box, biz, biy, bix] -> [e] : \
                box - {lo_halo} <= e and e < box + bdx + {hi_halo} }}"
        );
        AccessEnumerator::build(&Map::parse(&text).unwrap(), &[Extent::Param("n".into())]).unwrap()
    }

    fn names() -> Vec<String> {
        vec!["n".into()]
    }

    #[test]
    fn self_writes_halo_costs_exactly_the_halo() {
        let spec = MachineSpec::kepler_system(2);
        let write = enum_1d(0, 0);
        let read = enum_1d(2, 2);
        let scalar_names = names();
        let input = TunerInput {
            spec: &spec,
            grid: Dim3::new1(8),
            block: Dim3::new1(8),
            scalar_names: &scalar_names,
            scalars: &[64],
            reads: vec![ReadModel {
                enumerator: &read,
                elem_size: 4,
                ownership: Ownership::SelfWrites(0),
            }],
            writes: vec![WriteModel {
                enumerator: &write,
                elem_size: 4,
            }],
            profile: ThreadProfile::default(),
            pattern_amortized: false,
        };
        let est = evaluate(&input, &PartitionStrategy::even(SplitAxis::X, 2));
        // Each of the two partitions reads a 2-element halo owned by the
        // other: 4 elements × 4 bytes, one copy per direction.
        assert_eq!(est.transfer_bytes, 16);
        assert_eq!(est.n_copies, 2);
        // One device keeps everything: no transfers at all.
        let est1 = evaluate(&input, &PartitionStrategy::even(SplitAxis::X, 1));
        assert_eq!(est1.transfer_bytes, 0);
        assert_eq!(est1.n_copies, 0);
    }

    #[test]
    fn segment_ownership_counts_only_remote_bytes() {
        let spec = MachineSpec::kepler_system(2);
        let read = enum_1d(0, 0);
        let scalar_names = names();
        // 64 elements × 4 B, linearly distributed: device 0 owns bytes
        // [0, 128), device 1 owns [128, 256). An even X split reads the
        // same halves, so nothing is remote.
        let input = TunerInput {
            spec: &spec,
            grid: Dim3::new1(8),
            block: Dim3::new1(8),
            scalar_names: &scalar_names,
            scalars: &[64],
            reads: vec![ReadModel {
                enumerator: &read,
                elem_size: 4,
                ownership: Ownership::linear(64, 4, 2),
            }],
            writes: vec![],
            profile: ThreadProfile::default(),
            pattern_amortized: false,
        };
        let est = evaluate(&input, &PartitionStrategy::even(SplitAxis::X, 2));
        assert_eq!(est.transfer_bytes, 0);
        // Flip ownership: everything lives on device 1, so partition 0
        // must fetch its whole half.
        let input_flipped = TunerInput {
            reads: vec![ReadModel {
                enumerator: &read,
                elem_size: 4,
                ownership: Ownership::Segments(vec![OwnedSegment {
                    start: 0,
                    end: 256,
                    device: Some(1),
                    holders: 1 << 1,
                }]),
            }],
            ..input
        };
        let est = evaluate(&input_flipped, &PartitionStrategy::even(SplitAxis::X, 2));
        assert_eq!(est.transfer_bytes, 128);
        assert_eq!(est.n_copies, 1);
        // Partition 0 holding a replica of the remote-owned bytes makes
        // them free; Replicated ownership makes the whole array free.
        let input_held = TunerInput {
            reads: vec![ReadModel {
                enumerator: &read,
                elem_size: 4,
                ownership: Ownership::Segments(vec![OwnedSegment {
                    start: 0,
                    end: 256,
                    device: Some(1),
                    holders: (1 << 1) | 1,
                }]),
            }],
            ..input_flipped
        };
        let est = evaluate(&input_held, &PartitionStrategy::even(SplitAxis::X, 2));
        assert_eq!(est.transfer_bytes, 0);
        assert_eq!(est.n_copies, 0);
        let input_replicated = TunerInput {
            reads: vec![ReadModel {
                enumerator: &read,
                elem_size: 4,
                ownership: Ownership::Replicated,
            }],
            ..input_held
        };
        let est = evaluate(&input_replicated, &PartitionStrategy::even(SplitAxis::X, 2));
        assert_eq!(est.transfer_bytes, 0);
        assert_eq!(est.n_copies, 0);
    }

    #[test]
    fn heterogeneous_machines_prefer_weighted_shares() {
        let base = MachineSpec::kepler_system(2);
        let slow = DeviceSpec {
            flops: base.device.flops / 2.0,
            int_ops: base.device.int_ops / 2.0,
            mem_bw: base.device.mem_bw / 2.0,
            ..base.device.clone()
        };
        let spec = base.with_device_override(1, slow);
        // A compute-heavy, transfer-free kernel: identity read+write.
        let write = enum_1d(0, 0);
        let read = enum_1d(0, 0);
        let scalar_names = names();
        let input = TunerInput {
            spec: &spec,
            grid: Dim3::new1(1024),
            block: Dim3::new1(256),
            scalar_names: &scalar_names,
            scalars: &[1024 * 256],
            reads: vec![ReadModel {
                enumerator: &read,
                elem_size: 4,
                ownership: Ownership::SelfWrites(0),
            }],
            writes: vec![WriteModel {
                enumerator: &write,
                elem_size: 4,
            }],
            profile: ThreadProfile {
                flops_per_thread: 5e4,
                intops_per_thread: 10.0,
                bytes_per_thread: 8.0,
            },
            pattern_amortized: false,
        };
        let shares = proportional_shares(&spec, input.profile, 2);
        assert!(
            shares[0] > shares[1],
            "fast device must get more: {shares:?}"
        );
        let ranked = rank_candidates(&input);
        let best = &ranked[0];
        assert_eq!(best.strategy.n_parts(), 2);
        assert!(
            best.strategy.is_weighted(),
            "expected the weighted split to win, got {} (ranking: {:?})",
            best.strategy.describe(),
            ranked
                .iter()
                .map(|c| (c.strategy.describe(), c.predict.total_time()))
                .collect::<Vec<_>>()
        );
        // And it must beat the even split by construction of the spec.
        let even = ranked
            .iter()
            .find(|c| c.strategy.n_parts() == 2 && !c.strategy.is_weighted())
            .unwrap();
        assert!(best.predict.total_time() < even.predict.total_time());
    }

    #[test]
    fn mixed_class_machines_enumerate_and_rank_cpu_gpu_shares() {
        // 2 Kepler dies + 1 host socket: candidates spanning all three
        // devices place a partition on the CPU, and the proportional
        // weights must size that partition by the host roofline.
        let spec = MachineSpec::hybrid_system(2, 1);
        assert!(spec.has_host_cpu() && !spec.is_homogeneous());
        let write = enum_1d(0, 0);
        let read = enum_1d(0, 0);
        let scalar_names = names();
        let input = TunerInput {
            spec: &spec,
            grid: Dim3::new1(1024),
            block: Dim3::new1(256),
            scalar_names: &scalar_names,
            scalars: &[1024 * 256],
            reads: vec![ReadModel {
                enumerator: &read,
                elem_size: 4,
                ownership: Ownership::SelfWrites(0),
            }],
            writes: vec![WriteModel {
                enumerator: &write,
                elem_size: 4,
            }],
            profile: ThreadProfile {
                flops_per_thread: 5e4,
                intops_per_thread: 10.0,
                bytes_per_thread: 8.0,
            },
            pattern_amortized: false,
        };
        // The CPU socket (device 2) is far slower than a K80 die on this
        // flop-bound profile, so its share must be the smallest.
        let shares = proportional_shares(&spec, input.profile, 3);
        assert!(shares[2] < shares[0] && shares[2] < shares[1], "{shares:?}");
        assert!(shares[2] > 0.0);
        // A weighted 3-part candidate — a genuinely mixed CPU+GPU share
        // vector — is enumerated...
        let cands = enumerate_strategies(&spec, input.grid, input.profile);
        assert!(
            cands.iter().any(|s| s.n_parts() == 3 && s.is_weighted()),
            "no mixed-class weighted candidate in {:?}",
            cands.iter().map(|s| s.describe()).collect::<Vec<_>>()
        );
        // ...and ranked with a finite prediction; among the 3-part
        // candidates the weighted shares beat the even split (the even
        // split stalls every launch on the slow socket).
        let ranked = rank_candidates(&input);
        let weighted3 = ranked
            .iter()
            .find(|c| c.strategy.n_parts() == 3 && c.strategy.is_weighted())
            .expect("mixed-class candidate must be ranked");
        assert!(weighted3.predict.total_time().is_finite());
        let even3 = ranked
            .iter()
            .find(|c| c.strategy.n_parts() == 3 && !c.strategy.is_weighted())
            .unwrap();
        assert!(weighted3.predict.total_time() < even3.predict.total_time());
    }

    #[test]
    fn enumeration_skips_degenerate_axes() {
        let spec = MachineSpec::kepler_system(4);
        let strategies = enumerate_strategies(&spec, Dim3::new1(32), ThreadProfile::default());
        // 1-D grid: only x splits, one k=1 candidate.
        assert!(strategies.iter().all(|s| s.axis == SplitAxis::X));
        assert_eq!(strategies.len(), 4); // k = 1, 2, 3, 4
        let strategies = enumerate_strategies(&spec, Dim3::new2(32, 32), ThreadProfile::default());
        // 2-D: y and x slabs (k = 2..4 each), the single k=1, plus the
        // two 2×2 rectangular tilings (y×x and x×y orders).
        assert_eq!(strategies.len(), 1 + 2 * 3 + 2);
        assert_eq!(strategies.iter().filter(|s| s.is_tiled()).count(), 2);
        // Tilings never exceed the device count and need both factors ≥ 2.
        for s in strategies.iter().filter(|s| s.is_tiled()) {
            assert_eq!(s.n_parts(), 4);
            assert!(s.shares.len() >= 2 && s.shares2.len() >= 2);
        }
        // Slab-only mode reproduces the legacy search space.
        let slabs = enumerate_strategies_opts(
            &spec,
            Dim3::new2(32, 32),
            ThreadProfile::default(),
            AxisMask::all(),
            false,
        );
        assert_eq!(slabs.len(), 1 + 2 * 3);
        assert!(slabs.iter().all(|s| !s.is_tiled()));
    }

    #[test]
    fn checker_mask_filters_candidate_axes() {
        let spec = MachineSpec::kepler_system(4);
        let grid = Dim3::new2(32, 32);
        // Only x proven safe: no y-axis strategy may be enumerated.
        let mask = AxisMask {
            zyx: [false, false, true],
        };
        let strategies = enumerate_strategies_masked(&spec, grid, ThreadProfile::default(), mask);
        assert!(strategies
            .iter()
            .all(|s| s.n_parts() == 1 || s.axis == SplitAxis::X));
        // A tiling needs *both* axes proven, so the x-only mask also
        // suppresses every rectangular candidate.
        assert!(strategies.iter().all(|s| !s.is_tiled()));
        assert_eq!(strategies.len(), 1 + 3); // k=1 plus x × k=2..4
                                             // Nothing proven: only the single-device fallback remains.
        let strategies =
            enumerate_strategies_masked(&spec, grid, ThreadProfile::default(), AxisMask::none());
        assert_eq!(strategies.len(), 1);
        assert_eq!(strategies[0].n_parts(), 1);
        // The unrestricted mask reproduces the legacy enumeration.
        let all =
            enumerate_strategies_masked(&spec, grid, ThreadProfile::default(), AxisMask::all());
        assert_eq!(
            all,
            enumerate_strategies(&spec, grid, ThreadProfile::default())
        );
    }

    #[test]
    fn tilings_need_both_axes_proven() {
        let spec = MachineSpec::kepler_system(4);
        let grid = Dim3::new3(8, 8, 8);
        // y and x proven, z not: exactly the y×x and x×y tilings remain,
        // and neither involves z.
        let mask = AxisMask {
            zyx: [false, true, true],
        };
        let strategies = enumerate_strategies_masked(&spec, grid, ThreadProfile::default(), mask);
        let tiled: Vec<_> = strategies.iter().filter(|s| s.is_tiled()).collect();
        assert_eq!(tiled.len(), 2);
        for s in &tiled {
            assert!(s.split_axes().iter().all(|a| *a != SplitAxis::Z));
        }
    }

    #[test]
    fn strided_groups_coalesce_arithmetic_runs() {
        // A column halo: equal runs at a constant stride → one group.
        let segs: Vec<(u64, u64)> = (0..32)
            .map(|r| (128 + r * 256, 128 + r * 256 + 4))
            .collect();
        let g = strided_groups(&segs);
        assert_eq!(
            g,
            vec![StridedGroup {
                start: 128,
                run: 4,
                stride: 256,
                count: 32
            }]
        );
        // A single contiguous face is one degenerate group.
        let g = strided_groups(&[(0, 128)]);
        assert_eq!(g.len(), 1);
        assert_eq!((g[0].run, g[0].stride, g[0].count), (128, 128, 1));
        // A run-length change breaks the progression.
        let g = strided_groups(&[(0, 4), (256, 260), (512, 520), (1024, 1032)]);
        assert_eq!(g.len(), 2);
        assert_eq!((g[0].run, g[0].stride, g[0].count), (4, 256, 2));
        assert_eq!(
            (g[1].start, g[1].run, g[1].stride, g[1].count),
            (512, 8, 512, 2)
        );
        assert!(strided_groups(&[]).is_empty());
    }

    #[test]
    fn mayread_boxes_drive_halo_pricing() {
        use mekong_analysis::{analyze_kernel_with, ValueRanges};
        use mekong_enumgen::KernelEnumerators;
        use mekong_kernel::builder::*;
        use mekong_kernel::Kernel;

        // y[i] = x[cols[i]] with `range cols : $0 - w .. $0 + w`: the
        // read of x is a bounded may-read box from the interval abstract
        // interpreter, not an affine map — yet its enumerated volume
        // flows through the same transfer pricing, so the cost model
        // charges exactly the w-deep band halo at each partition seam.
        let kernel = Kernel {
            name: "banded_gather".into(),
            params: vec![
                scalar("n"),
                scalar("w"),
                array_f32("cols", &[ext("n")]),
                array_f32("x", &[ext("n")]),
                array_f32("y", &[ext("n")]),
            ],
            body: vec![
                let_("i", global_x()),
                guard_return(v("i").ge(v("n"))),
                store(
                    "y",
                    vec![v("i")],
                    load("x", vec![to_i64(load("cols", vec![v("i")]))]),
                ),
            ],
        };
        let mut ranges = ValueRanges::new();
        ranges.insert("cols".into(), (v("$0") - v("w"), v("$0") + v("w")));
        let model = analyze_kernel_with(&kernel, &ranges).unwrap();
        let enums = KernelEnumerators::build(&model).unwrap();
        let x_read = &enums.reads.iter().find(|(i, _)| *i == 3).unwrap().1;
        assert!(!x_read.is_exact(), "the gather read must be a box");
        let y_write = &enums.writes.iter().find(|(i, _)| *i == 4).unwrap().1;

        let spec = MachineSpec::kepler_system(2);
        let price = |w: i64| {
            let scalars = [64i64, w];
            let input = TunerInput {
                spec: &spec,
                grid: Dim3::new1(8),
                block: Dim3::new1(8),
                scalar_names: &enums.scalar_names,
                scalars: &scalars,
                reads: vec![ReadModel {
                    enumerator: x_read,
                    elem_size: 4,
                    ownership: Ownership::SelfWrites(0),
                }],
                writes: vec![WriteModel {
                    enumerator: y_write,
                    elem_size: 4,
                }],
                profile: ThreadProfile::default(),
                pattern_amortized: false,
            };
            evaluate(&input, &PartitionStrategy::even(SplitAxis::X, 2)).transfer_bytes
        };
        // Two-way split of 64 elements: each partition's box reaches `w`
        // elements into the other half — 2 seam directions × w × 4 B —
        // so the priced halo scales with the annotated band volume.
        assert_eq!(price(0), 0);
        assert_eq!(price(2), 2 * 2 * 4);
        assert_eq!(price(8), 2 * 8 * 4);
    }

    /// A 2-D access enumerator over an `n`×`n` row-major array covering
    /// the block's tile plus a `halo`-wide border in both dimensions
    /// (clipped to the array).
    fn enum_2d(halo: i64) -> AccessEnumerator {
        let text = format!(
            "[bdz, bdy, bdx, gdz, gdy, gdx, n] -> \
             {{ [boz, boy, box, biz, biy, bix] -> [r, c] : \
                boy - {halo} <= r and r < boy + bdy + {halo} and \
                box - {halo} <= c and c < box + bdx + {halo} }}"
        );
        AccessEnumerator::build(
            &Map::parse(&text).unwrap(),
            &[Extent::Param("n".into()), Extent::Param("n".into())],
        )
        .unwrap()
    }

    /// A 4-device 5-point-stencil input over a 64×64 array (8×8 blocks
    /// of 8×8 threads).
    fn stencil_2d_input<'a>(
        spec: &'a MachineSpec,
        read: &'a AccessEnumerator,
        write: &'a AccessEnumerator,
        scalar_names: &'a [String],
    ) -> TunerInput<'a> {
        TunerInput {
            spec,
            grid: Dim3::new2(8, 8),
            block: Dim3::new2(8, 8),
            scalar_names,
            scalars: &[64],
            reads: vec![ReadModel {
                enumerator: read,
                elem_size: 4,
                ownership: Ownership::SelfWrites(0),
            }],
            writes: vec![WriteModel {
                enumerator: write,
                elem_size: 4,
            }],
            profile: ThreadProfile::default(),
            pattern_amortized: false,
        }
    }

    #[test]
    fn rect_tiles_price_the_perimeter() {
        let spec = MachineSpec::kepler_system(4);
        let write = enum_2d(0);
        let read = enum_2d(1);
        let scalar_names = names();
        let input = stencil_2d_input(&spec, &read, &write, &scalar_names);
        // y:4 slabs of 16 rows: interior slabs fetch two remote rows,
        // edge slabs one — 6 rows of 64×4 B, one bulk copy each.
        let slab = evaluate(&input, &PartitionStrategy::even(SplitAxis::Y, 4));
        assert_eq!(slab.transfer_bytes, 6 * 64 * 4);
        assert_eq!(slab.n_copies, 6);
        // 2×2 tiling of 32×32 tiles: each tile fetches one 32-element
        // row face (1 bulk copy), one 32-element column face (1 strided
        // transaction), and one corner element (1 copy) — 65 elements,
        // 3 transactions per tile.
        let tiled = evaluate(
            &input,
            &PartitionStrategy::tiled(SplitAxis::Y, 2, SplitAxis::X, 2),
        );
        assert_eq!(tiled.transfer_bytes, 4 * 65 * 4);
        assert_eq!(tiled.n_copies, 4 * 3);
        // Less traffic than the best slab, despite more transactions:
        // the perimeter shrinks from 6n to ~4n+4 elements.
        assert!(tiled.transfer_bytes < slab.transfer_bytes);
    }

    #[test]
    fn tilings_win_on_low_latency_fabrics() {
        // A switched direct fabric: cheap per-transaction setup, modest
        // bandwidth — the regime where the smaller 2-D perimeter beats
        // the slab split's fewer-but-fatter copies.
        let mut spec = MachineSpec::kepler_system(4);
        spec.link = LinkSpec {
            bandwidth: 20.0e9,
            latency: 1.0e-9,
            host_staged: false,
        };
        let write = enum_2d(0);
        let read = enum_2d(1);
        let scalar_names = names();
        let mut input = stencil_2d_input(&spec, &read, &write, &scalar_names);
        // Plan capture amortizes the pattern walk (otherwise the tile's
        // per-row ranges are charged a host cost the runtime never pays
        // in steady state) and memory traffic makes all four devices
        // worth using.
        input.pattern_amortized = true;
        input.profile = ThreadProfile {
            flops_per_thread: 0.0,
            intops_per_thread: 0.0,
            bytes_per_thread: 12.0,
        };
        let ranked = rank_candidates(&input);
        let best = &ranked[0];
        assert!(
            best.strategy.is_tiled() && best.strategy.n_parts() == 4,
            "expected a 2-D tiling to win, got {} (ranking: {:?})",
            best.strategy.describe(),
            ranked
                .iter()
                .map(|c| (c.strategy.describe(), c.predict.total_time()))
                .collect::<Vec<_>>()
        );
        // The y×x and x×y orders cost the same on a square grid; the
        // encoding-order tie-break picks x-first deterministically.
        assert_eq!(best.strategy.describe(), "x:2×y:2");
        // With tilings disabled the same input falls back to a slab.
        let slab_only = rank_candidates_opts(&input, AxisMask::all(), false);
        assert!(!slab_only[0].strategy.is_tiled());
        assert!(slab_only[0].predict.total_time() >= best.predict.total_time());
    }
}
