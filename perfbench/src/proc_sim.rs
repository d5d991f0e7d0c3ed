//! `proc-sim`: `run_proc_sharded` of `GuardedFlood { k: 2 }` on the
//! 2¹⁷-node path, with jobs alternating between 1 and 2 `shard-worker`
//! processes (at most the host's core count).
//!
//! Each worker rebuilds the whole graph and receives all n ids as text
//! in its `init` line, so the init codec and graph generation weigh
//! against a ~ms spawn. The tower and store code do not run. Eight
//! workers would mostly measure the 2-core scheduler, so w8 runs only in
//! the traced run, for its counts and the cross-check against the
//! committed process-shard baseline (a path's cut counts do not depend
//! on n). The path is sized so that a job takes a fifth of a second or
//! less, so a run holds dozens of jobs of each worker count and their
//! medians settle (see `report::end_to_end`).

use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lcl::{uniform_input, OutLabel};
use lcl_faults::{FaultPlan, RunOptions};
use lcl_graph::Graph;
use lcl_local::{simulate_sync_with, SyncRun};
use lcl_obs::{Counter, Trace};
use lcl_procshard::wire::{decode_labels, encode_labels, read_line, InitCmd};
use lcl_procshard::{run_proc_sharded, AlgSpec, GraphSpec, InputSpec, ProcJob, ProcOptions};
use lcl_rng::SmallRng;
use lcl_service::parse_flat_object;
use lcl_shard::simulate_sharded_with;

use crate::report::{
    end_to_end, load_figures, median_mb, ms, peak_rss_mb, reset_peak_rss, Metrics, Outcome,
    Recorder,
};
use crate::Args;

const NODES: usize = 1 << 17;
const K: u32 = 2;
const MAX_ROUNDS: u32 = 8;
/// Set-ups timed for `setup_s`; the last one serves the run.
const SETUPS: usize = 3;
const RUNNER_THREADS: usize = 2;
/// Worker counts the reference covers; jobs alternate between them.
const WORKERS: [usize; 2] = [1, 2];
/// `BENCH_procshard.json`'s 8-worker counts: supersteps, halo messages,
/// halo bytes (a path's cut counts do not depend on n).
const PROCSHARD_BASELINE: [u64; 3] = [16, 28, 224];
/// Repetitions of each codec call and of the bare spawn.
const REPS: usize = 3;

fn flood_job(ids: &[u64]) -> ProcJob {
    ProcJob {
        graph: GraphSpec::Path { n: NODES },
        alg: AlgSpec::GuardedFlood { k: K },
        input: InputSpec::Uniform,
        ids: ids.to_vec(),
        n_announced: None,
        max_rounds: MAX_ROUNDS,
    }
}

/// Supersteps, halo messages and halo bytes of a sharded run's trace.
fn cut_counts(trace: &Trace) -> [u64; 3] {
    [
        trace.total(Counter::Supersteps),
        trace.total(Counter::HaloMessages),
        trace.total(Counter::HaloBytes),
    ]
}

/// The reference the process-sharded runs must reproduce: the
/// unsharded output and the in-process sharded counts per worker count.
struct Reference {
    graph: Graph,
    local: SyncRun,
    counts: Vec<(usize, [u64; 3])>,
}

fn set_up(ids: &[u64], rec: &mut Recorder) -> Reference {
    let graph = rec.time("graph.gen.path", |_| GraphSpec::Path { n: NODES }.build());
    let input = uniform_input(&graph);
    let flood = lcl_procshard::GuardedFlood { k: K };
    let local = simulate_sync_with(
        &flood,
        &graph,
        &input,
        ids,
        None,
        MAX_ROUNDS,
        RunOptions::new(),
    );
    let counts = WORKERS
        .iter()
        .map(|&w| (w, in_process_counts(&graph, ids, w)))
        .collect();
    Reference {
        graph,
        local: local.outcome.outcome,
        counts,
    }
}

fn in_process_counts(graph: &Graph, ids: &[u64], shards: usize) -> [u64; 3] {
    let run = simulate_sharded_with(
        &lcl_procshard::GuardedFlood { k: K },
        graph,
        &uniform_input(graph),
        ids,
        None,
        MAX_ROUNDS,
        RUNNER_THREADS,
        RunOptions::new().sharded(shards),
    );
    cut_counts(&run.trace)
}

pub fn run(args: &Args) -> Result<(Outcome, Trace), String> {
    let mut rec = Recorder::new("proc-sim", args.trace);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let alternating = [1, nproc.min(2)];
    // Ids in [2^31, 2^32) all print with 10 digits, so the init line has
    // the same length for every seed.
    let mask = SmallRng::seed_from_u64(args.seed).next_u64() as u32 | 1 << 31;
    let ids: Vec<u64> = (0..NODES as u64).map(|i| i ^ u64::from(mask)).collect();
    let mut reference = None;
    for _ in 0..SETUPS {
        drop(reference.take());
        reference = Some(rec.time_cpu("setup", |rec| set_up(&ids, rec)));
    }
    let reference = reference.expect("why: SETUPS > 0");
    let job = flood_job(&ids);
    let want = |w: usize| reference.counts.iter().find(|c| c.0 == w).map(|c| c.1);

    let (mut attempted, mut failed, mut checks_passed) = (0u64, 0u64, true);
    let mut node_rounds = 0u64;
    let mut job_wall = Duration::ZERO;
    let mut cycles = Vec::new();
    let mut peaks = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while cycles.is_empty() || Instant::now() < deadline {
        let mut cycle = Duration::ZERO;
        reset_peak_rss();
        for w in alternating {
            attempted += 1;
            let t0 = Instant::now();
            let run = rec.time_cpu(&format!("procshard.run.w{w}"), |_| {
                run_proc_sharded(&job, RunOptions::new().sharded(w), &ProcOptions::default())
            });
            cycle += t0.elapsed();
            match run {
                Ok(run) => {
                    node_rounds += NODES as u64 * u64::from(run.outcome.outcome.rounds);
                    let ok = run.outcome.faults.is_empty()
                        && run.outcome.outcome == reference.local
                        && Some(cut_counts(&run.trace)) == want(w);
                    failed += u64::from(!ok);
                }
                Err(e) => {
                    eprintln!("proc-sim: w{w}: {e}");
                    failed += 1;
                }
            }
        }
        job_wall += cycle;
        cycles.push(cycle);
        peaks.push(peak_rss_mb("self"));
    }
    println!(
        "proc-sim: {} cycles of w{:?} in {:.2} s of job time",
        cycles.len(),
        alternating,
        job_wall.as_secs_f64()
    );
    // A w1 run plus a w2 run, each at its median CPU time (supervisor
    // and workers).
    let job_cpu = alternating
        .iter()
        .map(|w| rec.median(&format!("cpu.procshard.run.w{w}")))
        .sum();
    let e2e = end_to_end(rec.samples("cpu.setup"), attempted, failed, job_cpu);
    let figures = load_figures(
        rec.samples("setup"),
        &cycles,
        node_rounds as f64 / job_wall.as_secs_f64(),
    );
    let mut layers = Metrics::default();
    if args.trace {
        checks_passed &= traced_layers(&job, &reference, &args.scratch, &mut rec, &mut layers)?;
    }
    Ok((
        Outcome {
            attempted,
            failed,
            checks_passed,
            end_to_end: e2e,
            per_layer: layers,
            figures,
            peak_rss_mb: median_mb(peaks),
        },
        rec.finish("proc-sim"),
    ))
}

/// The traced run's extra calls: the 8-worker run, the init and label
/// codecs on full-size inputs, and bare worker spawns. Returns whether
/// the 8-worker run reproduced the in-process and committed counts.
fn traced_layers(
    job: &ProcJob,
    reference: &Reference,
    scratch: &std::path::Path,
    rec: &mut Recorder,
    layers: &mut Metrics,
) -> Result<bool, String> {
    let w8 = rec
        .time("procshard.run.w8", |_| {
            run_proc_sharded(job, RunOptions::new().sharded(8), &ProcOptions::default())
        })
        .map_err(|e| format!("w8: {e}"))?;
    let w8_counts = cut_counts(&w8.trace);
    let mut ok = w8.outcome.faults.is_empty()
        && w8.outcome.outcome == reference.local
        && w8_counts == PROCSHARD_BASELINE
        && w8_counts == in_process_counts(&reference.graph, &job.ids, 8);
    if !ok {
        eprintln!("proc-sim: w8 counts {w8_counts:?}, baseline {PROCSHARD_BASELINE:?}");
    }

    let init = |shards: usize, shard: usize| InitCmd {
        graph: job.graph.clone(),
        alg: job.alg.clone(),
        input: job.input.clone(),
        ids: job.ids.clone(),
        n: NODES,
        shards,
        shard,
        plan_text: FaultPlan::new(0).to_text(),
        hang_at: None,
    };
    let cmd = init(1, 0);
    let mut line = String::new();
    for _ in 0..REPS {
        line = rec.time("procshard.wire.init_encode", |_| cmd.encode());
    }
    for _ in 0..REPS {
        let decoded = rec.time("procshard.wire.init_decode", |_| {
            parse_flat_object(&line)
                .map_err(|e| e.to_string())
                .and_then(|fields| InitCmd::parse(&fields))
        })?;
        ok &= decoded == cmd;
    }
    layers.push("procshard.wire.init_bytes", line.len() as f64, "bytes");
    drop(line);
    let mut counts = reference.counts.clone();
    counts.push((8, w8_counts));
    for (w, counts) in counts {
        let total: usize = (0..w).map(|s| init(w, s).encode().len()).sum();
        layers.push(
            format!("procshard.init_bytes_total.w{w}"),
            total as f64,
            "bytes",
        );
        layers.count(format!("procshard.supersteps.w{w}"), counts[0]);
        layers.count(format!("procshard.halo_messages.w{w}"), counts[1]);
        layers.push(
            format!("procshard.halo_bytes.w{w}"),
            counts[2] as f64,
            "bytes",
        );
    }

    let g = &reference.graph;
    let out = &reference.local.output;
    let labels: Vec<Vec<OutLabel>> = g
        .nodes()
        .map(|v| g.half_edges_of(v).map(|h| out.get(h)).collect())
        .collect();
    let mut text = String::new();
    for _ in 0..REPS {
        text = rec.time("procshard.wire.labels_encode", |_| encode_labels(&labels));
    }
    for _ in 0..REPS {
        let decoded = rec.time("procshard.wire.labels_decode", |_| decode_labels(&text))?;
        ok &= decoded == labels;
    }
    layers.push("procshard.wire.labels_bytes", text.len() as f64, "bytes");

    let spawn = spawn_times(scratch, rec)?;
    for (name, call) in [
        ("procshard.run_ms.w1", "procshard.run.w1"),
        ("procshard.run_ms.w2", "procshard.run.w2"),
        ("procshard.run_ms.w8", "procshard.run.w8"),
        ("graph.gen_ms.path", "graph.gen.path"),
        (
            "procshard.wire.init_encode_ms",
            "procshard.wire.init_encode",
        ),
        (
            "procshard.wire.init_decode_ms",
            "procshard.wire.init_decode",
        ),
        (
            "procshard.wire.labels_encode_ms",
            "procshard.wire.labels_encode",
        ),
        (
            "procshard.wire.labels_decode_ms",
            "procshard.wire.labels_decode",
        ),
    ] {
        layers.push(name, ms(rec.median(call)), "ms");
    }
    layers.push("procshard.spawn_ms", ms(spawn), "ms");
    Ok(ok)
}

/// How long a bare worker may take to connect and say hello.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(10);

/// Median wall time to spawn a `shard-worker`, accept its connection,
/// read its `hello` and reap it after hanging up.
fn spawn_times(scratch: &std::path::Path, rec: &mut Recorder) -> Result<Duration, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.with_file_name("shard-worker");
    let socket = scratch.join("spawn.sock");
    let listener = UnixListener::bind(&socket).map_err(|e| e.to_string())?;
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    for _ in 0..REPS {
        rec.time("procshard.spawn", |_| {
            let mut child = Command::new(&bin)
                .arg("--socket")
                .arg(&socket)
                .arg("--shard")
                .arg("0")
                .stdin(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let hello = accept_within(&listener, &mut child).and_then(|stream| {
                stream
                    .set_read_timeout(Some(SPAWN_TIMEOUT))
                    .map_err(|e| e.to_string())?;
                read_line(&mut BufReader::new(stream)).map_err(|e| e.to_string())
            });
            // Hanging up ends the worker cleanly; one that never said
            // hello is killed so the wait below returns.
            if !matches!(hello, Ok(Some(_))) {
                let _ = child.kill();
            }
            let status = child.wait().map_err(|e| e.to_string())?;
            match hello {
                Ok(Some(_)) if status.success() => Ok(()),
                other => Err(format!("bare spawn: {other:?}, worker {status}")),
            }
        })?;
    }
    Ok(rec.median("procshard.spawn"))
}

/// Accepts the connection of `child`, failing if it exits first or
/// takes longer than `SPAWN_TIMEOUT`.
fn accept_within(listener: &UnixListener, child: &mut Child) -> Result<UnixStream, String> {
    let t0 = Instant::now();
    loop {
        match listener.accept() {
            Ok((stream, _)) => return Ok(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("worker exited before connecting: {status}"));
                }
                if t0.elapsed() > SPAWN_TIMEOUT {
                    return Err("worker did not connect within 10 s".into());
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}
