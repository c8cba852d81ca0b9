//! The repository's benchmark driver: five workloads from compile to
//! replay, on two clocks (host wall-clock and simulated time), with a
//! per-layer traced run. See `README.md` beside this package.
//!
//! ```text
//! mekong-perfbench --workload <name|all> [--seed N] [--seconds S]
//!                  [--trace 0|1] [--rounds N | --quick]
//! mekong-perfbench --repeat [--seed N] [--seconds S] [--rounds N | --quick]
//! ```
//!
//! One process runs one workload (so `peak_rss_mb` is per workload);
//! `--workload all` starts one child process per workload in turn. The
//! driver is a closed loop with a single client thread. The process pins
//! itself to one CPU for the timed rounds (`pin.rs` says why), so the
//! program's rayon pool runs inline there; the traced run ends with a few
//! rounds on all CPUs. The last line of standard output is the result as
//! one JSON object.

mod apps;
mod cells;
mod metrics;
mod pin;
mod probes;
mod repeat;
mod trace;
mod workloads;

use cells::{Ctx, Tally};
use metrics::{median, percentile, Layers, END_TO_END};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Kind, Tracer};
use workloads::Workload;

/// The seed used when none is given (the conference's opening day);
/// `BENCHMARK.json` has no key for it, so the README records it.
const DEFAULT_SEED: u64 = 20200817;
/// A run is a fixed number of rounds: this many for the measuring time
/// `BENCHMARK.json` asks for, and in proportion for another `--seconds`.
/// The count is settled before the first round; nothing in the measuring
/// loop looks at the clock.
const DEFAULT_ROUNDS: usize = 100;
const DEFAULT_SECONDS: f64 = 12.0;
/// Rounds whose simulated time and counters make up the exact metrics,
/// so that those do not depend on how long the run is.
const CENSUS_ROUNDS: usize = 32;
/// Rounds of a `--quick` smoke run.
const QUICK_ROUNDS: usize = 6;
/// Rounds the traced run adds on all CPUs for `driver.nproc_round_ms`.
const NPROC_ROUNDS: usize = 5;
/// Set-up is run this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The round count, when given instead of a measuring time.
    rounds: Option<usize>,
}

impl Args {
    /// Rounds this run measures.
    fn rounds(&self) -> usize {
        self.rounds.unwrap_or_else(|| {
            let r = DEFAULT_ROUNDS as f64 * self.seconds / DEFAULT_SECONDS;
            (r.round() as usize).max(1)
        })
    }
}

fn usage() -> String {
    format!(
        "usage: mekong-perfbench --workload <{}|all> [--seed N] [--seconds S] \
         [--trace 0|1] [--rounds N | --quick]\n       mekong-perfbench --repeat [--seed N] \
         [--seconds S] [--rounds N | --quick]",
        workloads::NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        rounds: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} takes {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--rounds" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?;
                if n == 0 {
                    return Err("--rounds must be at least 1".into());
                }
                args.rounds = Some(n);
            }
            "--quick" => args.rounds = Some(QUICK_ROUNDS),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = argv.iter().position(|a| a == "--repeat") {
        let mut rest = argv;
        rest.remove(at);
        return repeat::check(&rest);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    run_one(&args)
}

/// One child process per workload, in turn, with this process's other
/// arguments; their output passes through.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let rest: Vec<String> = {
        let mut v: Vec<String> = std::env::args().skip(1).collect();
        let at = v
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload all was parsed");
        v.drain(at..at + 2);
        v
    };
    let mut failed = false;
    for name in workloads::NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(&rest)
            .status()
            .expect("start workload process");
        failed |= !status.success();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// What the rounds produced.
struct Measured {
    /// Milliseconds per round, in order; untraced and traced rounds apart.
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    /// Exact quantities per round, averaged over the census window.
    per_round: Tally,
    census_rounds: usize,
}

fn measure(w: &mut dyn Workload, ctx: &mut Ctx, args: &Args) -> Measured {
    let rounds = args.rounds();
    let census_rounds = rounds.min(CENSUS_ROUNDS);
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let before = w.cumulative();
    let mut per_round = Tally::default();
    for done in 0..rounds {
        // In a traced run every second round records spans, so both
        // halves see the same cache states and drift, and their medians
        // give the tracing overhead.
        ctx.tr.on = args.trace && done % 2 == 1;
        let ns = w.round(ctx);
        ctx.tr.round_end();
        let ms = ns as f64 / 1e6;
        if ctx.tr.on {
            traced_ms.push(ms);
        } else {
            untraced_ms.push(ms);
        }
        if done + 1 == census_rounds {
            per_round = w.cumulative().minus(before).per_round(census_rounds);
            w.census();
        }
    }
    ctx.tr.on = false;
    Measured {
        untraced_ms,
        traced_ms,
        per_round,
        census_rounds,
    }
}

fn run_one(args: &Args) -> ExitCode {
    let pinned = pin::to_current_cpu();
    let mut ctx = Ctx::new();
    let mut setup_s = Vec::new();
    let mut setup = |ctx: &mut Ctx| {
        let t = Instant::now();
        let w = workloads::setup(&args.workload, args.seed, ctx);
        setup_s.push(t.elapsed().as_secs_f64());
        w.expect("workload name was validated")
    };
    let mut w = setup(&mut ctx);
    let m = measure(w.as_mut(), &mut ctx, args);
    // Read here, after one set-up and the rounds on a fresh heap: what
    // follows (repeated set-ups, probes) is the benchmark's own doing.
    let rss_mb = peak_rss_mb();

    let mut sorted_ms = m.untraced_ms.clone();
    sorted_ms.sort_by(f64::total_cmp);
    let n = sorted_ms.len();
    println!(
        "workload {}  seed {}  rounds {} ({} untraced, {} traced)  on one CPU",
        args.workload,
        args.seed,
        n + m.traced_ms.len(),
        n,
        m.traced_ms.len(),
    );
    println!(
        "  sim_s        {:>14.9} sim_s  (exact; per round over the first {} rounds)",
        m.per_round.sim_s, m.census_rounds
    );

    let mut out: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let mut layers = Layers::new();
        w.probe(&ctx.tr, &mut layers);
        fill_common_layers(&mut layers, &ctx.tr, &m);
        // Last, because it moves live state the probes read: the same
        // round with the rayon pool at the machine's parallelism.
        pinned.release();
        let nproc_ms: Vec<f64> = (0..NPROC_ROUNDS)
            .map(|_| w.round(&mut ctx) as f64 / 1e6)
            .collect();
        layers.set("driver.nproc_round_ms", median(&nproc_ms));
        write_chrome_trace(&ctx.tr, &args.workload);
        print_layer_table(&ctx.tr);
        out.extend(layers.iter());
    } else {
        // `setup_s` is the median of several set-ups; the later ones
        // build the same workload again and are only timed.
        drop(w);
        for _ in 1..SETUP_REPEATS {
            drop(setup(&mut ctx));
        }
        let (p50, p90) = (percentile(&sorted_ms, 50.0), percentile(&sorted_ms, 90.0));
        let values = [median(&setup_s), p50, p90, rss_mb];
        out.extend(
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u, _), v)| (n, u, v)),
        );
        println!(
            "  (p50 and p90 of {n} rounds, {} samples beyond the p90; set-up median of \
             {SETUP_REPEATS})",
            sorted_ms.iter().filter(|&&ms| ms > p90).count(),
        );
    }
    for (name, unit, value) in &out {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!(
        "  fail_share   {:>14.6} ratio  ({} failed of {} attempted)",
        ctx.ops.failed as f64 / ctx.ops.attempted.max(1) as f64,
        ctx.ops.failed,
        ctx.ops.attempted
    );
    for f in &ctx.ops.failures {
        eprintln!("failed: {f}");
    }

    let metrics_json: Vec<String> = out
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = ctx.ops.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.ops.attempted,
        ctx.ops.failed,
        metrics_json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer metrics every launch workload derives the same way:
/// from the spans of the traced rounds and the census tally.
fn fill_common_layers(l: &mut Layers, tr: &Tracer, m: &Measured) {
    let t = &m.per_round;
    l.set("sim_s", t.sim_s);
    l.set("runtime.launch_hit_us", tr.us_per_call(Kind::LaunchHit));
    l.set("runtime.launch_miss_us", tr.us_per_call(Kind::LaunchMiss));
    l.set("runtime.launch_first_us", tr.us_per_call(Kind::LaunchFirst));
    l.set(
        "runtime.plan_hit_ratio",
        t.plan_hits / (t.plan_hits + t.plan_misses).max(f64::MIN_POSITIVE),
    );
    l.set("runtime.plan_evictions", t.plan_evictions);
    l.set("runtime.h2d_us", tr.us_per_call(Kind::H2d));
    l.set("runtime.d2h_us", tr.us_per_call(Kind::D2h));
    l.set("runtime.sync_us", tr.us_per_call(Kind::Sync));
    l.set("runtime.malloc_us", tr.us_per_call(Kind::Malloc));
    l.set("gpusim.sim_app_s", t.sim_app_s);
    l.set("gpusim.sim_transfer_s", t.sim_transfer_s);
    l.set("gpusim.sim_pattern_s", t.sim_pattern_s);
    l.set("gpusim.launches", t.launches);
    l.set("gpusim.d2d_copies", t.d2d_copies);
    l.set("gpusim.d2d_bytes", t.d2d_bytes);
    l.set("gpusim.h2d_bytes", t.h2d_bytes);
    l.set("gpusim.d2h_bytes", t.d2h_bytes);
    l.set("gpusim.replica_hits", t.replica_hits);
    l.set("gpusim.refetch_bytes_saved", t.refetch_bytes_saved);
    l.set("gpusim.mayread_overfetch_bytes", t.mayread_overfetch_bytes);
    let untraced_p50 = median(&m.untraced_ms);
    if t.sim_ops() > 0.0 {
        l.set(
            "gpusim.host_us_per_sim_op",
            untraced_p50 * 1e3 / t.sim_ops(),
        );
    }
    if !m.traced_ms.is_empty() {
        let traced_p50 = median(&m.traced_ms);
        l.set(
            "driver.trace_overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        );
    }
    l.set("driver.unattributed_pct", tr.unattributed_pct());
    l.set(
        "driver.rounds",
        (m.untraced_ms.len() + m.traced_ms.len()) as f64,
    );
}

/// Write the kept spans beside the package (`out/` is git-ignored). The
/// file is a by-product: failing to write it is reported, not fatal.
fn write_chrome_trace(tr: &Tracer, workload: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.chrome_json(workload)))
    {
        Ok(()) => println!("  chrome trace {}", path.display()),
        Err(e) => eprintln!("chrome trace not written to {}: {e}", path.display()),
    }
}

/// Layer-by-layer self time of the traced rounds.
fn print_layer_table(tr: &Tracer) {
    for (staged, title) in [(false, "timed rounds"), (true, "staged replay")] {
        let rows = tr.self_ns(staged);
        let total: u64 = rows.iter().map(|r| r.1).sum();
        if total == 0 {
            continue;
        }
        println!(
            "  self time by layer.call, {title}, per traced round ({} rounds):",
            tr.rounds.len()
        );
        for (kind, ns) in rows {
            println!(
                "    {:<30} {:>12.3} ms  {:>5.1} %",
                kind.name(),
                ns as f64 / 1e6 / tr.rounds.len() as f64,
                100.0 * ns as f64 / total as f64
            );
        }
    }
}
