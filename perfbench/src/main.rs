//! The repository benchmark: one seeded workload per invocation.
//!
//! ```text
//! perfbench --workload <classify-mix|local-sim|proc-sim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (`perfbench/run.py` builds everything
//! first). With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics, timed by
//! wrapping calls into each crate's public functions in `lcl_obs` spans,
//! and the span tree is written as a Chrome trace under `.bench_out/`.
//! Scratch files live under `.bench_tmp/` and are removed on exit.

mod classify_mix;
mod local_sim;
mod proc_sim;
mod report;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lcl_obs::export::{chrome_trace, ExportMode};
use lcl_obs::Trace;

use report::{fsync_calibration, ms, result_line, Outcome};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Per-run scratch directory (relative to the checkout root, so
    /// Unix socket paths stay short).
    pub scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let usage = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    let workload: String = workload.ok_or(usage)?;
    let seed = seed.ok_or(usage)?;
    Ok(Args {
        scratch: Path::new(".bench_tmp").join(format!("{workload}-{}", std::process::id())),
        workload,
        seed,
        seconds: seconds.ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: create {}: {e}", args.scratch.display());
        return ExitCode::FAILURE;
    }
    // The process-sharded supervisor binds its socket under the
    // temporary directory; keep it inside the checkout.
    std::env::set_var("TMPDIR", &args.scratch);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fsync = fsync_calibration(&args.scratch);
    let run = match args.workload.as_str() {
        "classify-mix" => classify_mix::run(&args),
        "local-sim" => local_sim::run(&args),
        "proc-sim" => proc_sim::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    let (mut outcome, trace): (Outcome, Trace) = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "host: nproc={nproc} fsync_ms={:.4} workload={} seed={} seconds={} trace={}",
        ms(fsync),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let metrics = if args.trace {
        let layers = &mut outcome.per_layer;
        for m in &outcome.end_to_end.0 {
            layers.push(format!("traced.{}", m.name), m.value, m.unit);
        }
        layers.0.append(&mut outcome.figures.0);
        layers.push("mem.peak_rss_mb", outcome.peak_rss_mb, "MiB");
        layers.count("host.nproc", nproc as u64);
        layers.push("host.fsync_ms", ms(fsync), "ms");
        let out = Path::new(".bench_out");
        let path = out.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(out)
            .and_then(|()| std::fs::write(&path, chrome_trace(&trace, None, ExportMode::Wall)));
        match written {
            Ok(()) => println!("trace: {} ({} spans)", path.display(), trace.span_count()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        &outcome.per_layer
    } else {
        let figures: Vec<String> = outcome
            .figures
            .0
            .iter()
            .map(|m| format!("{}={:.4} {}", m.name, m.value, m.unit))
            .collect();
        println!("figures: {}", figures.join(" "));
        &outcome.end_to_end
    };
    let correct = outcome.checks_passed && outcome.failed == 0;
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, metrics)
    );
    ExitCode::SUCCESS
}
