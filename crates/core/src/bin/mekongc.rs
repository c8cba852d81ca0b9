//! `mekongc` — the toolchain driver as a command-line compiler.
//!
//! ```text
//! mekongc <input.cu> [--out-dir DIR] [--gpus N] [--run] [--verbose]
//! ```
//!
//! Mirrors the paper's Figure 2 pipeline on a file: runs the pipeline,
//! exports the application model (`<stem>.model.json`) and the rewritten
//! host source (`<stem>.mgpu.cu`) next to the input (or into `--out-dir`),
//! and prints a per-kernel report. With `--run`, kernels that take only
//! `(int n, arrays…)` are smoke-executed on a simulated machine.

use mekong_analysis::ArgModel;
use mekong_core::prelude::*;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    input: PathBuf,
    out_dir: Option<PathBuf>,
    gpus: usize,
    run: bool,
    verbose: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut input = None;
    let mut out_dir = None;
    let mut gpus = 4usize;
    let mut run = false;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out-dir" => {
                out_dir = Some(PathBuf::from(args.next().ok_or("--out-dir needs a value")?))
            }
            "--gpus" => {
                gpus = args
                    .next()
                    .ok_or("--gpus needs a value")?
                    .parse()
                    .map_err(|e| format!("--gpus: {e}"))?;
                if gpus == 0 {
                    return Err("--gpus must be at least 1".into());
                }
            }
            "--run" => run = true,
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => {
                return Err(
                    "usage: mekongc <input.cu> [--out-dir DIR] [--gpus N] [--run] [-v]".to_string(),
                )
            }
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(PathBuf::from(other))
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Cli {
        input: input.ok_or("missing input file (try --help)")?,
        out_dir,
        gpus,
        run,
        verbose,
    })
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(m) => {
            eprintln!("{m}");
            return ExitCode::FAILURE;
        }
    };
    let src = match std::fs::read_to_string(&cli.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mekongc: cannot read {}: {e}", cli.input.display());
            return ExitCode::FAILURE;
        }
    };
    let program = match compile_source(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mekongc: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Output artifacts.
    let stem = cli
        .input
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "out".into());
    let dir = cli.out_dir.clone().unwrap_or_else(|| {
        cli.input
            .parent()
            .unwrap_or(std::path::Path::new("."))
            .into()
    });
    let model_path = dir.join(format!("{stem}.model.json"));
    let host_path = dir.join(format!("{stem}.mgpu.cu"));
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&model_path, &program.model_json))
        .and_then(|_| std::fs::write(&host_path, &program.rewritten_host))
    {
        eprintln!("mekongc: cannot write outputs: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "mekongc: {} kernel(s), {} launch site(s) rewritten",
        program.kernels.len(),
        program.launch_sites.len()
    );
    println!("  model: {}", model_path.display());
    println!("  host:  {}", host_path.display());
    println!(
        "  pipeline: pass1 {:.1?}  rewrite {:.1?}  pass2 {:.1?}  ({:.2}x over one pass)",
        program.stats.pass1,
        program.stats.rewrite,
        program.stats.pass2,
        program.stats.total().as_secs_f64() / program.stats.pass2.as_secs_f64().max(1e-9),
    );
    println!();
    let mut all_ok = true;
    for ck in &program.kernels {
        let verdict = if ck.is_partitionable() {
            "partitionable".to_string()
        } else {
            all_ok = false;
            format!("single-device only ({:?})", ck.model.verdict)
        };
        println!(
            "kernel {:<20} split axis {}  {}",
            ck.original.name, ck.model.partitioning, verdict
        );
        if cli.verbose {
            for arg in &ck.model.args {
                if let ArgModel::Array {
                    name, read, write, ..
                } = arg
                {
                    let dir = match (read.is_some(), write.is_some()) {
                        (true, true) => "read+write",
                        (true, false) => "read",
                        (false, true) => "write",
                        (false, false) => "unused",
                    };
                    println!("    array {name:<12} {dir}");
                    if let Some(r) = read {
                        println!("      read  {}", r.map.relation());
                    }
                    if let Some(w) = write {
                        println!("      write {}", w.map.relation());
                    }
                }
            }
        }
    }

    if cli.run {
        println!();
        for ck in &program.kernels {
            if !ck.is_partitionable() {
                continue;
            }
            match smoke_run(ck, cli.gpus) {
                Ok(Some(t)) => println!(
                    "smoke-ran {} on {} simulated GPUs: {:.3} ms",
                    ck.original.name,
                    cli.gpus,
                    t * 1e3
                ),
                Ok(None) => println!(
                    "skipped {} (signature not (int n, arrays…))",
                    ck.original.name
                ),
                Err(e) => {
                    eprintln!("smoke run of {} failed: {e}", ck.original.name);
                    all_ok = false;
                }
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Execute a kernel of the shape `(int n, float A[n]…, …)` on a small
/// functional machine, just to prove the artifact runs.
fn smoke_run(
    ck: &mekong_runtime::CompiledKernel,
    gpus: usize,
) -> Result<Option<f64>, Box<dyn std::error::Error>> {
    // Signature check: leading int scalar named anything, all other
    // params arrays whose extents only use that scalar.
    let n: i64 = 1024;
    let mut args: Vec<LaunchArg> = Vec::new();
    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
    let mut first_scalar = true;
    for arg in &ck.model.args {
        match arg {
            ArgModel::Scalar { ty, .. } => {
                if first_scalar {
                    args.push(LaunchArg::Scalar(Value::I64(n)));
                    first_scalar = false;
                } else {
                    args.push(LaunchArg::Scalar(match ty {
                        mekong_kernel::ScalarTy::I64 => Value::I64(1),
                        mekong_kernel::ScalarTy::F32 => Value::F32(1.0),
                        mekong_kernel::ScalarTy::F64 => Value::F64(1.0),
                    }));
                }
            }
            ArgModel::Array { elem, extents, .. } => {
                let mut elems: i64 = 1;
                for e in extents {
                    elems *= match e {
                        mekong_kernel::Extent::Const(c) => *c,
                        mekong_kernel::Extent::Param(_) => n,
                    };
                }
                let bytes = elems as usize * elem.size_bytes();
                let b = rt.malloc(bytes, elem.size_bytes())?;
                rt.memcpy_h2d(b, &vec![0u8; bytes])?;
                args.push(LaunchArg::Buf(b));
            }
        }
    }
    if first_scalar {
        return Ok(None); // no size scalar to drive a launch
    }
    let block = Dim3::new1(128);
    let grid = Dim3::new1((n as u32).div_ceil(128));
    rt.launch(ck, grid, block, &args)?;
    rt.synchronize();
    Ok(Some(rt.elapsed()))
}
