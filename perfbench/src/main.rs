//! qrank's benchmark: three workloads, end-to-end metrics with tracing
//! off, per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload pipeline|refresh|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is nonzero when an
//! output check failed or the arguments are wrong.

mod check;
mod inputs;
mod loadgen;
mod pipeline;
mod refresh;
mod result;
mod rng;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use result::{result_line, Measured, END_TO_END, PER_LAYER};
use trace::Spans;

/// Worker threads every layer may use: a fixed workload input, never
/// read from the host. At 2 threads `select_solver` picks colored
/// Gauss–Seidel for graphs of 100k nodes and more.
pub const THREADS: usize = 2;

/// Share of the traced wall time the benchmark's spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// One invocation's settings.
#[derive(Debug)]
pub struct Run {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
    /// Scratch directory inside the working directory.
    pub work: PathBuf,
}

fn parse_args() -> Result<(String, Run), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("bad --seconds")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work = PathBuf::from(".bench_build")
        .join("perfbench-work")
        .join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        Run {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            work,
        },
    ))
}

/// Close a traced run: check span coverage, print the overhead, and write
/// the spans and the program's `qrank_obs` snapshot to a trace file.
pub fn finish_trace(
    r: &Run,
    workload: &str,
    spans: &Spans,
    coverage: f64,
    overhead_ms: f64,
    m: &mut Measured,
) {
    println!(
        "trace: spans cover {:.2}% of the traced wall time; tracing overhead {overhead_ms:.1} ms (traced minus untraced wall)",
        coverage * 100.0
    );
    m.attempted += 1;
    if coverage < MIN_COVERAGE {
        eprintln!("span coverage {coverage:.3} is below {MIN_COVERAGE}");
        m.failed += 1;
    }
    let dir = PathBuf::from(".bench_build").join("perfbench-traces");
    let path = dir.join(format!("{workload}-seed{}.json", r.seed));
    let body = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"spans\":{},\"qrank_obs\":{}}}\n",
        r.seed,
        spans.to_json(),
        qrank_obs::global().snapshot().to_json()
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("trace: spans written to {}", path.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    qrank_obs::set_enabled(false);
    qrank_rank::set_thread_budget(THREADS);
    println!(
        "inputs: workload={workload} seed={} seconds={} trace={} threads={THREADS} host_cpus={} qrank_obs={}",
        run.seed,
        run.seconds,
        u8::from(run.trace),
        sys::host_cpus(),
        if run.trace { "on in the traced phase only" } else { "off" }
    );
    let mut m = match workload.as_str() {
        "pipeline" => pipeline::run(&run),
        "refresh" => refresh::run(&run),
        "serve" => serve::run(&run),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (pipeline, refresh, serve)");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&run.work);
    m.set("peak_rss_mb", sys::peak_rss_mb().unwrap_or(0.0));
    m.correct &= m.failed == 0;
    let line = if run.trace {
        result_line(&m, PER_LAYER, true)
    } else {
        result_line(&m, END_TO_END, false)
    };
    match line {
        Ok(line) => {
            println!("{line}");
            if m.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} operations failed their checks",
                    m.failed, m.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
