//! Shared benchmark harness types.

use crate::app::{App, Check};
use mekong_gpusim::{Machine, MachineSpec, OpCounters, TimeBreakdown};
use mekong_runtime::{decode_strategy, MgpuRuntime, RuntimeConfig};

/// Problem-size class (Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeClass {
    Small,
    Medium,
    Large,
}

impl SizeClass {
    /// All classes, in Table 1 order.
    pub const ALL: [SizeClass; 3] = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];

    /// Index into a `sizes()` array.
    pub fn index(self) -> usize {
        match self {
            SizeClass::Small => 0,
            SizeClass::Medium => 1,
            SizeClass::Large => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SizeClass::Small => "Small",
            SizeClass::Medium => "Medium",
            SizeClass::Large => "Large",
        }
    }
}

/// Outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Simulated wall-clock (host clock after final synchronize).
    pub elapsed: f64,
    /// Informational per-category time attribution.
    pub breakdown: TimeBreakdown,
    /// Operation counters.
    pub counters: OpCounters,
    /// Partitioning strategy the autotuner chose (e.g. `"y:4"`), if one
    /// was consulted during the run.
    pub strategy_chosen: Option<String>,
    /// The tuner's predicted steady-state peer-transfer bytes per launch.
    pub tuner_predict_bytes: u64,
    /// The measured window-average peer-transfer bytes per launch.
    pub tuner_measured_bytes: u64,
    /// Read-sync segment runs served by a local replica (replica-aware
    /// coherence) instead of a D2D re-fetch.
    pub replica_hits: u64,
    /// Replica copies evicted by writes and H2D uploads.
    pub replica_invalidations: u64,
    /// Peer-transfer bytes the replica hits avoided re-fetching.
    pub refetch_bytes_saved: u64,
    /// Plan-cache hits served by a plan another namespace captured
    /// (cross-tenant sharing / warm start, see mekong-serve).
    pub plan_shared_hits: u64,
    /// Captured plans evicted by the plan cache's LRU capacity bound.
    pub plan_evictions: u64,
    /// Bytes fetched for bounded may-read boxes (interval footprints of
    /// non-affine reads, see mekong-analysis).
    pub mayread_fetch_bytes: u64,
    /// The portion of those bytes beyond the single-device footprint of
    /// the same launches — the price of the interval over-approximation.
    pub mayread_overfetch_bytes: u64,
}

impl RunOutcome {
    /// Snapshot a finished runtime, including the tuner observability
    /// counters.
    pub fn from_runtime(rt: &MgpuRuntime) -> RunOutcome {
        let counters = rt.machine().counters();
        RunOutcome {
            elapsed: rt.elapsed(),
            breakdown: rt.machine().breakdown(),
            counters,
            strategy_chosen: decode_strategy(counters.strategy_chosen),
            tuner_predict_bytes: counters.tuner_predict_bytes,
            tuner_measured_bytes: counters.tuner_measured_bytes,
            replica_hits: counters.replica_hits,
            replica_invalidations: counters.replica_invalidations,
            refetch_bytes_saved: counters.refetch_bytes_saved,
            plan_shared_hits: counters.plan_shared_hits,
            plan_evictions: counters.plan_evictions,
            mayread_fetch_bytes: counters.mayread_fetch_bytes,
            mayread_overfetch_bytes: counters.mayread_overfetch_bytes,
        }
    }

    /// Launch-plan cache hit rate of the run: `hits / (hits + misses)`,
    /// or 0.0 when no partitioned launch resolved dependencies. With
    /// `capture_plans` off every resolving launch counts as a miss, so
    /// the rate is directly comparable across configurations.
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.counters.plan_hits + self.counters.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.counters.plan_hits as f64 / total as f64
        }
    }
}

/// A benchmark application: its Table 1 row, its description and its CPU
/// reference. Every way of running it is provided on top of those.
pub trait Benchmark {
    /// Display name (Table 1).
    fn name(&self) -> &'static str;

    /// Problem sizes `[small, medium, large]` (Table 1).
    fn sizes(&self) -> [usize; 3];

    /// Iteration count (Table 1; 1 for non-iterative).
    fn iterations(&self) -> usize;

    /// The mini-CUDA source of the application.
    fn source(&self) -> &'static str;

    /// The workload at problem size `n`, as data (see [`App`]).
    fn describe(&self, n: usize) -> App;

    /// CPU-reference output bytes (little-endian) of `iters` iterations
    /// at size `n`, on the description's seeded inputs.
    fn reference_output(&self, n: usize, iters: usize) -> Vec<u8>;

    /// The workload's functional check (the same at every described size).
    fn check(&self) -> Check {
        self.describe(self.sizes()[0]).check
    }

    /// Single-GPU reference run (original kernel, no runtime) at `size`,
    /// in performance mode. Returns simulated seconds.
    fn reference_time(&self, size: usize, iterations: usize) -> f64 {
        self.describe(size).reference_time(iterations)
    }

    /// Multi-GPU run on an arbitrary machine specification (performance
    /// mode) with the given α/β/γ configuration.
    fn mgpu_run_spec(
        &self,
        spec: MachineSpec,
        size: usize,
        iterations: usize,
        cfg: RuntimeConfig,
    ) -> RunOutcome {
        let mut p = self.describe(size).prepare(Machine::new(spec, false), cfg);
        p.run(iterations);
        RunOutcome::from_runtime(&p.rt)
    }

    /// Multi-GPU run through the Mekong runtime at `size` on `gpus`
    /// Kepler-class devices, in performance mode.
    fn mgpu_run(
        &self,
        size: usize,
        iterations: usize,
        gpus: usize,
        cfg: RuntimeConfig,
    ) -> RunOutcome {
        self.mgpu_run_spec(MachineSpec::kepler_system(gpus), size, iterations, cfg)
    }

    /// Functional verification run on an arbitrary machine at the
    /// scaled-down check size (fixed seeded inputs):
    /// runs the workload through the Mekong runtime and returns the raw
    /// little-endian output bytes. Every device class interprets kernels
    /// through the same block-parallel interpreter, so the bytes must
    /// be identical across sim-GPU, host-CPU and mixed machines — the
    /// cross-device-class differential tests assert exactly that.
    fn verify_output(&self, machine: Machine) -> Vec<u8> {
        let check = self.check();
        self.describe(check.n)
            .prepare(machine, RuntimeConfig::default())
            .run(check.iters)
            .concat()
    }

    /// Functional verification at the check size on `gpus` devices: the
    /// multi-GPU result must match the CPU reference within the
    /// workload's tolerance (exact bytes where it is 0).
    fn verify(&self, gpus: usize) -> bool {
        let check = self.check();
        let out = self.verify_output(Machine::new(MachineSpec::kepler_system(gpus), true));
        check.accepts(&out, &self.reference_output(check.n, check.iters))
    }
}
