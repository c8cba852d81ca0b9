//! # mekong-tuner — cost-model-driven partitioning autotuner
//!
//! The paper's compiler picks one partitioning per kernel with a purely
//! syntactic heuristic (split the grid axis coupled to the outermost
//! written array dimension, one even slice per device). That is the
//! right *axis* most of the time, but it answers none of the quantitative
//! questions: how many devices are worth using, whether a slower device
//! should get a smaller slice, and what the decision costs in inter-device
//! traffic. This crate replaces the hardcoded choice with a searched one:
//!
//! 1. **Candidate enumeration** ([`enumerate_strategies`]) — every grid
//!    axis with more than one block × every device count `1..=n` × even
//!    and throughput-proportional shares (the latter only on
//!    heterogeneous machines, where it differs from even), then the 2-D
//!    rectangular tilings; only axes the static checker proved
//!    write-disjoint ([`AxisMask`]) are split.
//! 2. **Static cost model** ([`evaluate`]) — per candidate, the predicted
//!    inter-device transfer volume is computed *exactly* from the
//!    polyhedral access maps: each partition's read footprint is
//!    intersected with the byte intervals owned by *other* partitions.
//!    A roofline compute term from sampled instruction counts
//!    ([`mekong_gpusim::ThreadProfile`]) and the host-side pattern costs
//!    complete the per-launch time estimate, so the model can trade
//!    transfer volume against parallel speedup (matmul wants all devices
//!    despite broadcasting `B`; a tiny kernel wants one).
//! 3. **Online refinement** ([`Autotuner`]) — the runtime feeds measured
//!    per-launch transfer bytes back in; when reality diverges from the
//!    prediction beyond a tolerance, candidates are re-ranked with the
//!    measurement as the authoritative transfer term and the argmin may
//!    switch. Measurements are per-candidate and the candidate set is
//!    finite, so refinement terminates instead of oscillating.
//!
//! The crate is runtime-agnostic: it sees access enumerators, a machine
//! spec, and ownership intervals, and returns ranked
//! [`Candidate`]s. `mekong-runtime` wires it to the virtual-buffer
//! tracker and the launch path.

pub mod autotune;
pub mod cost;
pub mod strategy;

pub use autotune::{Autotuner, RecordOutcome, TuneEntry, TuneKey};
pub use cost::{
    best_candidate_within, enumerate_strategies, evaluate, preferred_devices, proportional_shares,
    rank_candidates, strided_groups, thread_time, Candidate, CostEstimate, OwnedSegment, Ownership,
    ReadModel, StridedGroup, TunerInput, WriteModel,
};
pub use mekong_check::AxisMask;
pub use strategy::{decode_strategy, PartitionStrategy};
