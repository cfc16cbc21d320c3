//! The repository benchmark: one command per named workload.
//!
//! ```text
//! perfbench --workload <gpt_dp|gpt_zshard|serve_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. The line
//! before it stamps the machine and configuration. A traced run also
//! writes its spans to `perfbench/out/`. The exit code is 1 when an
//! output check fails and 2 on a usage error.

mod report;
mod serve;
mod spans;
mod stats;
mod train;

use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use axonn_tensor::{gemm_into_stats, MatMode, Matrix};

use report::Outcome;

const USAGE: &str =
    "usage: perfbench --workload <gpt_dp|gpt_zshard|serve_open> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Median Gflop/s of a 256³ NN GEMM on this thread: the reference rate
/// against which a workload's GEMM time splits into flops and overhead.
pub fn peak_gflops() -> f64 {
    static PEAK: OnceLock<f64> = OnceLock::new();
    *PEAK.get_or_init(|| {
        let n = 256;
        let a = Matrix::random(n, n, 1.0, 3);
        let b = Matrix::random(n, n, 1.0, 5);
        let mut c = Matrix::zeros(n, n);
        let samples: Vec<f64> = (0..7)
            .map(|_| {
                let t0 = Instant::now();
                gemm_into_stats(MatMode::NN, &a, &b, &mut c);
                std::hint::black_box(&c);
                2.0 * (n * n * n) as f64 / t0.elapsed().as_secs_f64() * 1e-9
            })
            .collect();
        stats::median(&samples)
    })
}

fn simd_active() -> bool {
    let a = Matrix::random(32, 32, 1.0, 17);
    let b = Matrix::random(32, 32, 1.0, 19);
    let mut c = Matrix::zeros(32, 32);
    gemm_into_stats(MatMode::NN, &a, &b, &mut c).simd
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// One JSON line with the machine, configuration, checks and notes.
fn stamp(args: &Args, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                json_str(c.name),
                c.passed,
                json_str(&c.detail)
            )
        })
        .collect();
    let notes: Vec<String> = out.notes.iter().map(|n| json_str(n)).collect();
    format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"simd_active\": {}, \"axonn_threads\": {}, \"axonn_metrics\": {}, \"axonn_coll_algo\": {}, \"git_sha\": {}, \"params\": {}}}, \"checks\": [{}], \"notes\": [{}]}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        simd_active(),
        json_str(&env("AXONN_THREADS")),
        json_str(&env("AXONN_METRICS")),
        json_str(&env("AXONN_COLL_ALGO")),
        json_str(&git_sha()),
        json_str(&out.params),
        checks.join(", "),
        notes.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One kernel thread per rank, and for the serving thread: set before
    // the first world starts (worlds apply `AXONN_THREADS` themselves;
    // serving runs no world, so the pool is sized here too).
    std::env::set_var("AXONN_THREADS", "1");
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("the kernel pool accepts a fixed size");

    let run = || -> Option<Outcome> {
        Some(match args.workload.as_str() {
            "gpt_dp" => train::run(&train::gpt_dp(), args.seed, args.seconds, args.trace),
            "gpt_zshard" => train::run(&train::gpt_zshard(), args.seed, args.seconds, args.trace),
            "serve_open" => serve::run(&serve::serve_open(), args.seed, args.seconds, args.trace),
            _ => return None,
        })
    };
    let out = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(Some(out)) => out,
        Ok(None) => {
            eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
            return ExitCode::from(2);
        }
        Err(_) => {
            eprintln!("perfbench: workload {} panicked", args.workload);
            return ExitCode::from(1);
        }
    };
    let mut out = out;
    if args.trace {
        let spans = out.spans.take();
        let count = spans.as_ref().map_or(0, |s| s.len());
        out.layer("bench.spans", count as f64, "count");
        if let Some(spans) = spans {
            let path = std::path::PathBuf::from(format!(
                "perfbench/out/{}-seed{}.spans.jsonl",
                args.workload, args.seed
            ));
            if let Err(e) = spans.write_jsonl(&path, &stamp(&args, &out)) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
    }
    println!("{}", stamp(&args, &out));
    for c in out.checks.iter().filter(|c| !c.passed) {
        eprintln!("perfbench: check {} failed: {}", c.name, c.detail);
    }
    println!("{}", out.result_json(args.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
