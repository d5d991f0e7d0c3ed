//! `local-sim`: LOCAL rounds of three instances, each run by the
//! unsharded executor (`simulate_sync_with`) and by the in-process
//! sharded one (`simulate_sharded_with`, 8 shards on 2 runner threads),
//! cycling through the six jobs until the time is up.
//!
//! * `path-flood`: `GuardedFlood { k: 2 }` on the 2¹⁷-node path, with
//!   ids made the way the committed shard baseline makes them.
//! * `caterpillar-e1`: the anti-matching(3) E1 algorithm synthesized by
//!   `tree_speedup`, on `caterpillar(2^15, 1)`.
//! * `tree-e1`: the same algorithm on a seeded `random_tree(2^15, 3)`.
//!
//! Nearly all time is in the executor loops, and in graph generation
//! during set-up; a path cuts 7 edges between 8 contiguous shards, a
//! random tree many, which varies what sharding costs. No service, store
//! or process code runs.
//!
//! The instances are sized so that every run is a short job (tens of
//! ms), so a run holds about a hundred of each kind and the per-kind
//! medians settle (see `report::end_to_end`). The committed baseline's
//! 10⁶-node path flood runs once per run after the timed loop, untimed,
//! for the cross-check of its counts.

use std::time::{Duration, Instant};

use lcl::{uniform_input, HalfEdgeLabeling, InLabel};
use lcl_core::{tree_speedup, SpeedupOptions, SpeedupOutcome};
use lcl_faults::RunOptions;
use lcl_graph::{gen, Graph};
use lcl_local::{simulate_sync_with, SyncAlgorithm, SyncRun};
use lcl_obs::{Counter, RunReport, Trace};
use lcl_problems::anti_matching;
use lcl_procshard::GuardedFlood;
use lcl_rng::SmallRng;
use lcl_shard::simulate_sharded_with;

use crate::report::{
    end_to_end, load_figures, median_mb, ms, peak_rss_mb, reset_peak_rss, Metrics, Outcome,
    Recorder,
};
use crate::Args;

const PATH_NODES: usize = 1 << 17;
const CATERPILLAR_SPINE: usize = 1 << 15;
/// Nodes of the committed shard baseline's path.
const BASELINE_PATH_NODES: usize = 1_000_000;
const TREE_NODES: usize = 1 << 15;
const SHARDS: usize = 8;
const RUNNER_THREADS: usize = 2;
/// Set-ups timed for `setup_s`; the last one serves the run.
const SETUPS: usize = 3;
const FLOOD: GuardedFlood = GuardedFlood { k: 2 };
const MAX_ROUNDS: u32 = 10;
/// `BENCH_shard.json`'s counts for `path-flood` at 8 shards: messages,
/// supersteps, halo messages, halo bytes.
const SHARD_BASELINE: [u64; 4] = [3_999_996, 16, 28, 224];

struct Instance {
    name: &'static str,
    graph: Graph,
    input: HalfEdgeLabeling<InLabel>,
    ids: Vec<u64>,
    /// Whether the E1 algorithm runs here (otherwise the flood).
    e1: bool,
}

/// Distinct ids `1..=n` in seeded order.
fn shuffled_ids(n: usize, rng: &mut SmallRng) -> Vec<u64> {
    let mut ids: Vec<u64> = (1..=n as u64).collect();
    for i in (1..n).rev() {
        ids.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    ids
}

fn set_up(seed: u64, rec: &mut Recorder) -> (Vec<Instance>, SpeedupOutcome) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let path = rec.time("graph.gen.path-flood", |_| gen::path(PATH_NODES));
    let caterpillar = rec.time("graph.gen.caterpillar-e1", |_| {
        gen::caterpillar(CATERPILLAR_SPINE, 1)
    });
    let tree = rec.time("graph.gen.tree-e1", |_| {
        gen::random_tree(TREE_NODES, 3, rng.next_u64())
    });
    let speedup = rec.time("core.tree_speedup", |_| {
        tree_speedup(&anti_matching(3), SpeedupOptions::default())
    });
    let path_ids = baseline_ids(PATH_NODES);
    let caterpillar_ids = shuffled_ids(caterpillar.node_count(), &mut rng);
    let tree_ids = shuffled_ids(TREE_NODES, &mut rng);
    let instances = vec![
        Instance {
            name: "path-flood",
            input: uniform_input(&path),
            graph: path,
            ids: path_ids,
            e1: false,
        },
        Instance {
            name: "caterpillar-e1",
            input: uniform_input(&caterpillar),
            graph: caterpillar,
            ids: caterpillar_ids,
            e1: true,
        },
        Instance {
            name: "tree-e1",
            input: uniform_input(&tree),
            graph: tree,
            ids: tree_ids,
            e1: true,
        },
    ];
    (instances, speedup)
}

/// The ids of the committed shard baseline's path flood.
fn baseline_ids(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| i ^ 0x5a5a_5a5a).collect()
}

type Report = RunReport<lcl_faults::Degraded<SyncRun>>;

/// One instance through both executors; returns the two reports.
fn run_pair<A>(alg: &A, inst: &Instance, rec: &mut Recorder) -> (Report, Report)
where
    A: SyncAlgorithm + Sync,
    A::State: Send,
    A::Msg: Send,
{
    let local = rec.time_cpu(&format!("local.run.{}", inst.name), |_| {
        simulate_sync_with(
            alg,
            &inst.graph,
            &inst.input,
            &inst.ids,
            None,
            MAX_ROUNDS,
            RunOptions::new(),
        )
    });
    let sharded = rec.time_cpu(&format!("shard.run.{}", inst.name), |_| {
        simulate_sharded_with(
            alg,
            &inst.graph,
            &inst.input,
            &inst.ids,
            None,
            MAX_ROUNDS,
            RUNNER_THREADS,
            RunOptions::new().sharded(SHARDS),
        )
    });
    (local, sharded)
}

/// The deterministic counts of one instance's pair of runs.
fn counts(local: &Report, sharded: &Report) -> [u64; 5] {
    [
        u64::from(local.outcome.outcome.rounds),
        local.trace.total(Counter::Messages),
        sharded.trace.total(Counter::Supersteps),
        sharded.trace.total(Counter::HaloMessages),
        sharded.trace.total(Counter::HaloBytes),
    ]
}

pub fn run(args: &Args) -> Result<(Outcome, Trace), String> {
    let mut rec = Recorder::new("local-sim", args.trace);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        state = Some(rec.time_cpu("setup", |rec| set_up(args.seed, rec)));
    }
    let (instances, speedup) = state.expect("why: SETUPS > 0");
    let SpeedupOutcome::ConstantRound { .. } = &speedup else {
        return Err(format!("anti-matching(3) did not speed up: {speedup:?}"));
    };
    let e1 = speedup.algorithm();
    let problem = anti_matching(3);

    // Per instance: the first unsharded output (every later run must
    // reproduce it bit for bit) and the first run's counts.
    let mut reference: Vec<Option<(SyncRun, [u64; 5])>> = instances.iter().map(|_| None).collect();
    let (mut attempted, mut failed, mut checks_passed) = (0u64, 0u64, true);
    let mut node_rounds = 0u64;
    let mut job_wall = Duration::ZERO;
    let mut cycles = Vec::new();
    let mut peaks = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while cycles.is_empty() || Instant::now() < deadline {
        reset_peak_rss();
        let cycle = rec.time("cycle", |rec| {
            let mut cycle = Duration::ZERO;
            for (inst, slot) in instances.iter().zip(&mut reference) {
                let t0 = Instant::now();
                let (local, sharded) = rec.time(inst.name, |rec| {
                    if inst.e1 {
                        run_pair(&e1, inst, rec)
                    } else {
                        run_pair(&FLOOD, inst, rec)
                    }
                });
                cycle += t0.elapsed();
                attempted += 2;
                let n = inst.graph.node_count() as u64;
                node_rounds += n * u64::from(local.outcome.outcome.rounds)
                    + n * u64::from(sharded.outcome.outcome.rounds);
                // Output checks, off the timed path.
                let got = counts(&local, &sharded);
                let first = slot.is_none();
                let (want_run, want_counts) =
                    slot.get_or_insert_with(|| (local.outcome.outcome.clone(), got));
                let local_ok =
                    local.outcome.faults.is_empty() && local.outcome.outcome == *want_run;
                let sharded_ok =
                    sharded.outcome.faults.is_empty() && sharded.outcome.outcome == *want_run;
                failed += u64::from(!local_ok) + u64::from(!sharded_ok);
                if got != *want_counts || sharded.trace.total(Counter::Messages) != got[1] {
                    eprintln!(
                        "local-sim: {} counts moved: {got:?} vs {want_counts:?}",
                        inst.name
                    );
                    checks_passed = false;
                }
                if first {
                    checks_passed &= first_run_checks(inst, &problem, &local, rec);
                }
            }
            cycle
        });
        job_wall += cycle;
        cycles.push(cycle);
        peaks.push(peak_rss_mb("self"));
    }
    println!(
        "local-sim: {} cycles of {} jobs in {:.2} s of job time",
        cycles.len(),
        2 * instances.len(),
        job_wall.as_secs_f64()
    );
    checks_passed &= rec.time("baseline", baseline_check);
    // A cycle at the median CPU time of each of its runs.
    let job_cpu = instances
        .iter()
        .flat_map(|inst| ["local.run", "shard.run"].map(|e| format!("cpu.{e}.{}", inst.name)))
        .map(|call| rec.median(&call))
        .sum();
    let e2e = end_to_end(rec.samples("cpu.setup"), attempted, failed, job_cpu);
    let figures = load_figures(
        rec.samples("setup"),
        &cycles,
        node_rounds as f64 / job_wall.as_secs_f64(),
    );
    let mut layers = Metrics::default();
    if args.trace {
        for (inst, slot) in instances.iter().zip(&reference) {
            let name = inst.name;
            let local_ms = ms(rec.median(&format!("local.run.{name}")));
            let shard_ms = ms(rec.median(&format!("shard.run.{name}")));
            layers.push(
                format!("graph.gen_ms.{name}"),
                ms(rec.median(&format!("graph.gen.{name}"))),
                "ms",
            );
            layers.push(format!("local.run_ms.{name}"), local_ms, "ms");
            layers.push(format!("shard.run_ms.{name}"), shard_ms, "ms");
            layers.push(
                format!("shard.slowdown.{name}"),
                shard_ms / local_ms,
                "ratio",
            );
            let c = slot.as_ref().map_or([0; 5], |s| s.1);
            for (key, value) in [
                "local.rounds",
                "local.messages",
                "shard.supersteps",
                "shard.halo_messages",
            ]
            .iter()
            .zip(c)
            {
                layers.count(format!("{key}.{name}"), value);
            }
            layers.push(format!("shard.halo_bytes.{name}"), c[4] as f64, "bytes");
            if inst.e1 {
                layers.push(
                    format!("lcl.verify_ms.{name}"),
                    ms(rec.median(&format!("lcl.verify.{name}"))),
                    "ms",
                );
            }
        }
        layers.push(
            "core.tree_speedup_ms",
            ms(rec.median("core.tree_speedup")),
            "ms",
        );
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
        rec.finish("local-sim"),
    ))
}

/// Checks made once per instance, on its first pair of runs: E1 outputs
/// solve anti-matching(3) and the flood sends exactly `2|E|` messages
/// per round.
fn first_run_checks(
    inst: &Instance,
    problem: &lcl::LclProblem,
    local: &Report,
    rec: &mut Recorder,
) -> bool {
    let out = &local.outcome.outcome;
    if inst.e1 {
        let violations = rec.time(&format!("lcl.verify.{}", inst.name), |_| {
            lcl::verify(problem, &inst.graph, &inst.input, &out.output)
        });
        if !violations.is_empty() {
            eprintln!(
                "local-sim: {} has {} violations",
                inst.name,
                violations.len()
            );
            return false;
        }
        return true;
    }
    flood_messages_ok(&inst.graph, local)
}

fn flood_messages_ok(graph: &Graph, local: &Report) -> bool {
    let expected = 2 * graph.edge_count() as u64 * u64::from(local.outcome.outcome.rounds);
    let messages = local.trace.total(Counter::Messages);
    if messages != expected {
        eprintln!("local-sim: flood sent {messages} messages, not 2|E|·rounds = {expected}");
    }
    messages == expected
}

/// The committed shard baseline's scenario, untimed: the 10⁶-node path
/// flood, unsharded and on 8 shards, must agree bit for bit, send
/// `2|E|` messages per round and reproduce the baseline's counts.
fn baseline_check(rec: &mut Recorder) -> bool {
    let graph = gen::path(BASELINE_PATH_NODES);
    let inst = Instance {
        name: "baseline-path-flood",
        input: uniform_input(&graph),
        ids: baseline_ids(BASELINE_PATH_NODES),
        graph,
        e1: false,
    };
    let (local, sharded) = run_pair(&FLOOD, &inst, rec);
    let got = [
        sharded.trace.total(Counter::Messages),
        sharded.trace.total(Counter::Supersteps),
        sharded.trace.total(Counter::HaloMessages),
        sharded.trace.total(Counter::HaloBytes),
    ];
    if got != SHARD_BASELINE {
        eprintln!("local-sim: baseline path-flood counts {got:?}, committed {SHARD_BASELINE:?}");
    }
    let agree = local.outcome.faults.is_empty()
        && sharded.outcome.faults.is_empty()
        && sharded.outcome.outcome == local.outcome.outcome;
    if !agree {
        eprintln!("local-sim: baseline path-flood sharded output differs from unsharded");
    }
    got == SHARD_BASELINE && agree && flood_messages_ok(&inst.graph, &local)
}
