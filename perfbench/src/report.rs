//! What every workload hands back, the statistics it is summarised
//! with, and the host record printed beside each result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use lcl_obs::{Span, Trace};

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics, built by the workloads.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.push(name, value as f64, "count");
    }
}

/// The result of one workload run.
pub struct Outcome {
    /// Jobs started (requests, simulator runs, process-sharded runs).
    pub attempted: u64,
    /// Jobs that returned an error, were refused, timed out or failed
    /// their output check.
    pub failed: u64,
    /// Run-wide checks beyond the per-job ones (cross-checks against
    /// the committed baselines, final service counters).
    pub checks_passed: bool,
    /// Measured with tracing off: the end-to-end metrics.
    pub end_to_end: Metrics,
    /// Measured with tracing on: the per-layer metrics.
    pub per_layer: Metrics,
    /// Unbounded end-to-end figures (`load_figures`).
    pub figures: Metrics,
    /// Median per-job peak resident set of the process doing the work,
    /// in MiB.
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics every workload reports: the CPU time of its
/// set-up (median over several), the share of jobs that succeeded, and
/// the CPU time of its job (a median over many jobs).
///
/// They are CPU times, not wall times, because the host is shared:
/// other tenants take the CPU away (the kernel accounts that as steal
/// and leaves it out of a process's CPU time) for stretches of seconds
/// to minutes, which moved wall-time medians by a quarter or more
/// between runs of the same code. The wall times are still reported,
/// unbounded, by `load_figures`.
pub fn end_to_end(
    setup_cpu: &[Duration],
    attempted: u64,
    failed: u64,
    job_cpu: Duration,
) -> Metrics {
    let mut m = Metrics::default();
    m.push("setup_s", median(setup_cpu).as_secs_f64(), "s");
    m.push(
        "success_ratio",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "fraction",
    );
    m.push("job_cpu_ms", ms(job_cpu), "ms");
    m
}

/// Wall-time figures, which follow host load too closely to carry a
/// bound: the median set-up, the median of the workload's job
/// latencies, their p90 and p99 where at least ten samples lie beyond
/// them, and the work per second. An untraced run prints them beside
/// its result; a traced run reports them as per-layer metrics.
pub fn load_figures(setup: &[Duration], latencies: &[Duration], throughput_per_s: f64) -> Metrics {
    let mut m = Metrics::default();
    m.push("e2e.setup_wall_s", median(setup).as_secs_f64(), "s");
    m.push("e2e.latency_p50_ms", ms(median(latencies)), "ms");
    for p in [90, 99] {
        if latencies.len() * (100 - p) >= 1_000 {
            let name = format!("e2e.latency_p{p}_ms");
            m.push(name, ms(percentile(latencies, p)), "ms");
        }
    }
    m.push("e2e.throughput_per_s", throughput_per_s, "1/s");
    m
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The median; the mean of the two middle values for an even count.
pub fn median(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    match sorted.len() {
        0 => Duration::ZERO,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2,
    }
}

/// The nearest-rank `p`-th percentile.
pub fn percentile(samples: &[Duration], p: usize) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (sorted.len() * p).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Times named calls. Every call's wall time is kept as a sample under
/// its name; when tracing is on, each call is also recorded as an
/// `lcl_obs` span, nested under the call that encloses it.
pub struct Recorder {
    stack: Option<Vec<Span>>,
    samples: BTreeMap<String, Vec<Duration>>,
}

impl Recorder {
    pub fn new(root: &str, traced: bool) -> Self {
        Self {
            stack: traced.then(|| vec![Span::start(root)]),
            samples: BTreeMap::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.stack.is_some()
    }

    /// Runs `f` as the call `name`, returning its result.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if let Some(stack) = &mut self.stack {
            stack.push(Span::start(name));
        }
        let t0 = Instant::now();
        let out = f(self);
        let wall = t0.elapsed();
        if let Some(stack) = &mut self.stack {
            let done = stack.pop().expect("why: pushed above").finish();
            stack
                .last_mut()
                .expect("why: the root span is never popped")
                .record(done);
        }
        self.samples.entry(name.to_string()).or_default().push(wall);
        out
    }

    /// Runs `f` as the call `name`, like `time`, and also keeps the CPU
    /// time it took (this process's, plus that of the children it
    /// reaped) as a sample under `cpu.<name>`.
    pub fn time_cpu<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let cpu0 = self_cpu() + children_cpu();
        let out = self.time(name, f);
        let cpu = self_cpu() + children_cpu() - cpu0;
        self.samples
            .entry(format!("cpu.{name}"))
            .or_default()
            .push(cpu);
        out
    }

    /// The samples of every call named `name`, in call order.
    pub fn samples(&self, name: &str) -> &[Duration] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> Duration {
        median(self.samples(name))
    }

    /// Attaches another recorder's calls (from a worker thread) under
    /// the innermost open span.
    pub fn absorb(&mut self, other: Recorder) {
        if let (Some(stack), Some(mut theirs)) = (&mut self.stack, other.stack) {
            let root = theirs.pop().expect("why: the root span is never popped");
            stack
                .last_mut()
                .expect("why: the root span is never popped")
                .record(root.finish());
        }
        for (name, mut samples) in other.samples {
            self.samples.entry(name).or_default().append(&mut samples);
        }
    }

    /// The recorded span tree (a bare root when tracing was off).
    pub fn finish(self, root: &str) -> Trace {
        let root = match self.stack.and_then(|mut s| s.pop()) {
            Some(span) => span,
            None => Span::start(root),
        };
        Trace::new(root.finish())
    }
}

// The C layouts of 64-bit Linux, where `time_t`, `suseconds_t` and
// `long` are 64 bits wide.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: the two times, then 14 `long` counters.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU time of this process, all its threads, so far.
pub fn self_cpu() -> Duration {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time of every child process reaped so far (user + system).
pub fn children_cpu() -> Duration {
    const RUSAGE_CHILDREN: i32 = -1;
    let zero = || Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut usage = Rusage {
        utime: zero(),
        stime: zero(),
        counters: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let time = |t: &Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1_000);
    time(&usage.utime) + time(&usage.stime)
}

/// CPU time (user + system) of the live process `pid` so far, from
/// `/proc/<pid>/stat`, whose clock ticks are 10 ms on Linux (`USER_HZ`
/// = 100); `None` once it is gone.
pub fn process_cpu(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split(' ').skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 10))
}

/// `VmHWM` (peak resident set) of process `pid` in MiB, or 0 when the
/// kernel does not expose it.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Restarts this process's `VmHWM` from its current resident set, so
/// the next `peak_rss_mb("self")` reads the peak of what ran since.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The median of per-job peaks (0 for none).
pub fn median_mb(mut peaks: Vec<f64>) -> f64 {
    peaks.sort_by(f64::total_cmp);
    peaks.get(peaks.len() / 2).copied().unwrap_or(0.0)
}

/// Median wall time of a durable 4 KiB write (write, `sync_all`) in
/// `dir`: the host's fsync cost, which bounds every store write.
pub fn fsync_calibration(dir: &Path) -> Duration {
    let path = dir.join("fsync-calibration.bin");
    let block = [0x5au8; 4096];
    let samples: Vec<Duration> = (0..16)
        .map(|_| {
            let t0 = Instant::now();
            let mut f = std::fs::File::create(&path).expect("why: the scratch dir is writable");
            f.write_all(&block)
                .expect("why: the scratch dir is writable");
            f.sync_all().expect("why: the scratch dir is writable");
            t0.elapsed()
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    median(&samples)
}

/// The one-line JSON result the benchmark ends its output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
