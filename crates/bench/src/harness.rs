//! What every artifact shares: the command line, named gates, the one
//! BENCH-file writer, and the run-and-measure helpers over a prepared
//! workload.

use mekong_core::prelude::*;
use mekong_runtime::PartitionStrategy;
use mekong_workloads::{Benchmark, Prepared, RunOutcome};
use serde::{Serialize, Value as Json};
use std::path::PathBuf;

/// A named acceptance check of an artifact that did not hold.
#[derive(Debug)]
pub(crate) struct GateFailure {
    pub gate: &'static str,
    pub detail: String,
}

pub type GateResult<T = ()> = Result<T, GateFailure>;

/// `gate!("name", condition, "detail {}", ..)`: leave the artifact with
/// a [`GateFailure`] unless the condition holds.
macro_rules! gate {
    ($name:literal, $cond:expr, $($detail:tt)+) => {
        if $cond {
        } else {
            return Err($crate::harness::GateFailure {
                gate: $name,
                detail: format!($($detail)+),
            });
        }
    };
}

/// [`gate!`] on equality, reporting both sides.
macro_rules! gate_eq {
    ($name:literal, $left:expr, $right:expr, $($detail:tt)+) => {
        match (&$left, &$right) {
            (left, right) => gate!(
                $name,
                left == right,
                "{}: {:?} != {:?}",
                format!($($detail)+),
                left,
                right
            ),
        }
    };
}

/// The parsed command line after the artifact name.
#[derive(Debug, PartialEq)]
pub struct BenchArgs {
    pub quick: bool,
    pub iter_scale: f64,
    pub gpus: Vec<usize>,
    /// `dump_models`' output directory.
    pub out_dir: Option<PathBuf>,
}

impl BenchArgs {
    /// Parse `<artifact> [--quick] [--iter-scale X] [--gpus a,b]` (plus
    /// `dump_models`' optional output directory). `known` lists the
    /// accepted artifact names. Errors are usage messages.
    pub fn parse(argv: &[String], known: &[&str]) -> Result<(String, BenchArgs), String> {
        let mut it = argv.iter();
        // `dump-models` and `dump_models` name the same artifact.
        let artifact = it.next().ok_or("missing artifact")?.replace('-', "_");
        if !known.contains(&artifact.as_str()) {
            return Err(format!("unknown artifact `{artifact}`"));
        }
        let mut args = BenchArgs {
            quick: false,
            iter_scale: 1.0,
            gpus: mekong_workloads::GPU_COUNTS.to_vec(),
            out_dir: None,
        };
        let mut iter_scale = None;
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or(format!("{a} takes a value"));
            match a.as_str() {
                "--quick" => args.quick = true,
                "--iter-scale" => {
                    let v = value()?;
                    iter_scale = Some(
                        v.parse()
                            .map_err(|_| format!("--iter-scale takes a number, got `{v}`"))?,
                    );
                }
                "--gpus" => {
                    let v = value()?;
                    args.gpus = v
                        .split(',')
                        .map(|s| s.parse().ok().filter(|&g: &usize| g > 0))
                        .collect::<Option<_>>()
                        .ok_or(format!("--gpus takes a comma list of counts, got `{v}`"))?;
                }
                dir if artifact == "dump_models"
                    && !dir.starts_with('-')
                    && args.out_dir.is_none() =>
                {
                    args.out_dir = Some(dir.into())
                }
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        args.iter_scale = iter_scale.unwrap_or(if args.quick { 0.02 } else { 1.0 });
        Ok((artifact, args))
    }

    /// Iteration count for a benchmark, scaled (minimum 1). Table 1's
    /// non-iterative entry has nothing to scale: always its one launch.
    pub(crate) fn iters_for(&self, b: &dyn Benchmark) -> usize {
        if b.iterations() == 1 {
            return 1;
        }
        ((b.iterations() as f64 * self.iter_scale).round() as usize).max(1)
    }

    /// `full`, or `quick` under `--quick`.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// A report with the run's `quick` flag as its first key.
struct Tagged<'a, T>(bool, &'a T);

impl<T: Serialize> Serialize for Tagged<'_, T> {
    fn to_value(&self) -> Json {
        let mut v = self.1.to_value();
        if let Json::Map(entries) = &mut v {
            entries.insert(0, ("quick".to_string(), Json::Bool(self.0)));
        }
        v
    }
}

/// Write `report` as `BENCH_<name>.json`: full runs into the working
/// directory (the committed baselines live in the repo root), `--quick`
/// smoke runs under `target/bench/` so they never overwrite one.
pub(crate) fn write_report<T: Serialize>(args: &BenchArgs, name: &str, report: &T) -> GateResult {
    let dir = PathBuf::from(args.pick("", "target/bench"));
    let path = dir.join(format!("BENCH_{name}.json"));
    let json =
        serde_json::to_string_pretty(&Tagged(args.quick, report)).expect("report serializes");
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json));
    gate!(
        "report-written",
        written.is_ok(),
        "{}: {}",
        path.display(),
        written.unwrap_err()
    );
    println!();
    println!("wrote {}", path.display());
    Ok(())
}

/// Percentile of a sorted slice (nearest-rank).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = (p / 100.0 * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median convenience.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Format a row of fixed-width cells.
pub fn row(cells: &[String], width: usize) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>width$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One workload of a steady-state ablation: sizes and iteration counts
/// are `(full, --quick)` pairs.
pub struct Case {
    pub name: &'static str,
    pub workload: &'static dyn Benchmark,
    pub n: (usize, usize),
    /// Iterations that absorb the initial redistribution.
    pub warmup: usize,
    /// Iterations of the measurement window.
    pub measure: (usize, usize),
}

/// `base` with plan capture on — the configuration most ablations run.
pub fn capturing(base: RuntimeConfig) -> RuntimeConfig {
    RuntimeConfig {
        capture_plans: true,
        ..base
    }
}

/// `b` at size `n` on a fresh machine of `spec`.
pub fn prepare(
    b: &dyn Benchmark,
    n: usize,
    spec: MachineSpec,
    functional: bool,
    cfg: RuntimeConfig,
) -> Prepared {
    b.describe(n).prepare(Machine::new(spec, functional), cfg)
}

/// Pin `strategy` on every kernel of the workload, bypassing heuristic
/// and tuner.
pub(crate) fn force_all(p: &mut Prepared, strategy: &PartitionStrategy) {
    for site in &p.sites {
        p.rt.force_strategy(&site.ck.original.name, strategy.clone());
    }
}

/// The paper's §9.2 measurement triple on `gpus` Kepler devices:
/// simulated seconds under α, β and γ.
pub(crate) fn alpha_beta_gamma(b: &dyn Benchmark, n: usize, iters: usize, gpus: usize) -> [f64; 3] {
    [
        RuntimeConfig::alpha(),
        RuntimeConfig::beta(),
        RuntimeConfig::gamma(),
    ]
    .map(|cfg| b.mgpu_run(n, iters, gpus, cfg).elapsed)
}

/// Run `iters` iterations and synchronize; returns the peer-transfer
/// bytes and the simulated seconds they took, per iteration.
pub fn measure(p: &mut Prepared, iters: usize) -> (u64, f64) {
    let bytes0 = p.rt.machine().counters().d2d_bytes;
    let t0 = p.rt.elapsed();
    p.steps(iters);
    p.rt.synchronize();
    let per = iters.max(1);
    (
        (p.rt.machine().counters().d2d_bytes - bytes0) / per as u64,
        (p.rt.elapsed() - t0) / per as f64,
    )
}

/// `warmup` unmeasured iterations, then [`measure`] over `iters` more.
/// Returns the run's outcome, the strategies the tuner reports and the
/// measured peer-transfer bytes per iteration.
pub fn run_iters(mut p: Prepared, warmup: usize, iters: usize) -> (RunOutcome, Vec<String>, u64) {
    p.steps(warmup);
    let (moved, _) = measure(&mut p, iters);
    let strategies =
        p.rt.tuner_report()
            .iter()
            .map(|r| r.strategy.clone())
            .collect();
    (RunOutcome::from_runtime(&p.rt), strategies, moved)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["fig6", "dump_models", "all", "list"];

    fn parse(words: &[&str]) -> Result<(String, BenchArgs), String> {
        let argv: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        BenchArgs::parse(&argv, KNOWN)
    }

    #[test]
    fn percentiles() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
    }

    #[test]
    fn row_formats_fixed_width() {
        let r = row(&["a".into(), "bb".into()], 4);
        assert_eq!(r, "   a   bb");
    }

    #[test]
    fn parser_reads_every_flag() {
        let (artifact, args) = parse(&["fig6"]).unwrap();
        assert_eq!(artifact, "fig6");
        assert!(!args.quick);
        assert_eq!(args.iter_scale, 1.0);
        assert_eq!(args.gpus, mekong_workloads::GPU_COUNTS);

        let (_, args) = parse(&["fig6", "--quick", "--gpus", "1,4"]).unwrap();
        assert!(args.quick);
        assert_eq!(args.iter_scale, 0.02, "--quick scales iterations down");
        assert_eq!(args.gpus, [1, 4]);

        // An explicit scale wins over --quick, whatever the order.
        let (_, args) = parse(&["fig6", "--iter-scale", "0.5", "--quick"]).unwrap();
        assert_eq!(args.iter_scale, 0.5);

        let (artifact, args) = parse(&["dump-models", "out/models"]).unwrap();
        assert_eq!(artifact, "dump_models");
        assert_eq!(args.out_dir, Some("out/models".into()));
    }

    #[test]
    fn parser_rejects_what_it_does_not_know() {
        for bad in [
            &[][..],
            &["fig9"],
            &["fig6", "--qiuck"],
            &["fig6", "--gpus"],
            &["fig6", "--gpus", "1,x"],
            &["fig6", "--gpus", "0"],
            &["fig6", "--iter-scale"],
            &["fig6", "--iter-scale", "fast"],
            &["fig6", "out/models"],
            &["dump_models", "a", "b"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be a usage error");
        }
    }

    #[test]
    fn quick_reports_carry_the_flag_first() {
        #[derive(Serialize)]
        struct R {
            gpus: usize,
        }
        let json = serde_json::to_string(&Tagged(true, &R { gpus: 4 })).unwrap();
        assert_eq!(json, r#"{"quick":true,"gpus":4}"#);
    }
}
