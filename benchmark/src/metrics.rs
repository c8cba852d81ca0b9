//! The metric tables — the same names, units and order as
//! `BENCHMARK.json` — and small statistics.

/// End-to-end metrics of the untraced run: `(name, unit, bound)`. All
/// are host-clock and lower-is-better; the bound is the share by which a
/// later change may worsen the metric before it counts as a regression.
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("setup_s", "s", 0.25),
    ("round_ms_p50", "ms", 0.15),
    ("round_ms_p90", "ms", 0.25),
    ("peak_rss_mb", "MiB", 0.10),
];

/// Per-layer metrics of the traced run: `(name, unit, exact)`. A metric
/// a workload does not exercise reads 0 there. *Exact* metrics —
/// simulated time, counts, and ratios of counts — must repeat bit for
/// bit between runs of one commit on one seed (`repeat.sh` checks it).
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("sim_s", "sim_s", true),
    ("core.compile_us", "us", false),
    ("core.pass1_us", "us", false),
    ("core.pass2_us", "us", false),
    ("frontend.parse_us", "us", false),
    ("frontend.kernels", "count", true),
    ("analysis.analyze_us", "us", false),
    ("analysis.annotate_us", "us", false),
    ("analysis.model_roundtrip_us", "us", false),
    ("analysis.model_json_bytes", "count", true),
    ("poly.project_us", "us", false),
    ("poly.injective_us", "us", false),
    ("enumgen.build_us", "us", false),
    ("enumgen.range_cold_us", "us", false),
    ("enumgen.range_warm_us", "us", false),
    ("enumgen.memo_hit_ratio", "ratio", true),
    ("partition.grid_us", "us", false),
    ("partition.kernel_us", "us", false),
    ("rewriter.rewrite_us", "us", false),
    ("rewriter.launch_sites", "count", true),
    ("check.app_us", "us", false),
    ("check.safe_axes_us", "us", false),
    ("check.errors", "count", true),
    ("check.warnings", "count", true),
    ("tuner.rank_cold_us", "us", false),
    ("tuner.rank_warm_us", "us", false),
    ("tuner.candidates", "count", true),
    ("tuner.predict_err_pct", "%", true),
    ("tuner.switches", "count", true),
    ("tuner.regret_pct", "%", true),
    ("runtime.launch_hit_us", "us", false),
    ("runtime.launch_miss_us", "us", false),
    ("runtime.launch_first_us", "us", false),
    ("runtime.plan_hit_ratio", "ratio", true),
    ("runtime.plan_evictions", "count", true),
    ("runtime.tracker_segments", "count", true),
    ("runtime.h2d_us", "us", false),
    ("runtime.d2h_us", "us", false),
    ("runtime.sync_us", "us", false),
    ("runtime.malloc_us", "us", false),
    ("runtime.tracker_query_us", "us", false),
    ("runtime.tracker_update_us", "us", false),
    ("gpusim.sim_app_s", "sim_s", true),
    ("gpusim.sim_transfer_s", "sim_s", true),
    ("gpusim.sim_pattern_s", "sim_s", true),
    ("gpusim.launches", "count", true),
    ("gpusim.d2d_copies", "count", true),
    ("gpusim.d2d_bytes", "count", true),
    ("gpusim.h2d_bytes", "count", true),
    ("gpusim.d2h_bytes", "count", true),
    ("gpusim.replica_hits", "count", true),
    ("gpusim.refetch_bytes_saved", "count", true),
    ("gpusim.mayread_overfetch_bytes", "count", true),
    ("gpusim.ref_sim_s", "sim_s", true),
    ("gpusim.host_us_per_sim_op", "us", false),
    ("kernel.interp_ns_per_thread", "ns", false),
    ("kernel.count_only_us", "us", false),
    ("kernel.threads", "count", true),
    ("kernel.flops", "count", true),
    ("kernel.bytes", "count", true),
    ("workloads.verify_fail", "count", true),
    ("workloads.cpu_reference_us", "us", false),
    ("driver.staged_vs_compile_pct", "%", false),
    ("driver.trace_overhead_pct", "%", false),
    ("driver.unattributed_pct", "%", false),
    ("driver.rounds", "count", false),
    ("driver.nproc_round_ms", "ms", false),
];

/// The per-layer values of one traced run, in table order.
pub struct Layers {
    values: Vec<f64>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    fn index(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer metric table"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values[Self::index(name)] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        PER_LAYER
            .iter()
            .zip(&self.values)
            .map(|(&(n, u, _), &v)| (n, u, v))
    }
}

/// Nearest-rank percentile of a sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = (p / 100.0 * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of an unsorted, non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Microseconds a closure takes.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_nanos() as f64 / 1e3)
}
