//! Substrate equivalence across the process boundary: a clean
//! proc-sharded run — real child processes, line-JSON over Unix
//! sockets — must be bit-identical to the in-process sharded executor
//! and to the unsharded executor on the golden catalog, for every
//! shard count. Moving a shard into its own address space changes
//! *where* a run executes, never *what* it computes.

use lcl_core::{tree_speedup, SpeedupOptions};
use lcl_faults::RunOptions;
use lcl_graph::Graph;
use lcl_local::{simulate_sync_with, SyncAlgorithm};
use lcl_obs::Counter;
use lcl_problems::anti_matching;
use lcl_procshard::{
    run_proc_sharded, AlgSpec, GraphSpec, GuardedFlood, InputSpec, ProcJob, ProcOptions,
};
use lcl_shard::simulate_sharded_with;

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

fn ids_for(g: &Graph, seed: u64) -> Vec<u64> {
    (0..g.node_count() as u64)
        .map(|i| i * 31 + seed * 7 + 1)
        .collect()
}

fn golden_specs() -> Vec<(&'static str, GraphSpec)> {
    vec![
        ("path", GraphSpec::Path { n: 33 }),
        (
            "tree",
            GraphSpec::RandomTree {
                n: 64,
                max_degree: 3,
                seed: 5,
            },
        ),
        ("caterpillar", GraphSpec::Caterpillar { spine: 6, legs: 1 }),
        ("star", GraphSpec::Star { leaves: 3 }),
    ]
}

fn proc_options() -> ProcOptions {
    ProcOptions {
        worker_bin: Some(env!("CARGO_BIN_EXE_shard-worker").into()),
        ..ProcOptions::default()
    }
}

/// Runs one (algorithm spec, local algorithm) pair over the golden
/// catalog at every shard count and asserts the three-way identity:
/// unsharded == in-process sharded == proc-sharded.
fn assert_equivalence<A>(alg_spec: AlgSpec, alg: &A)
where
    A: SyncAlgorithm + Sync,
    A::State: Send,
    A::Msg: Send,
{
    let proc = proc_options();
    for (name, spec) in golden_specs() {
        let g = spec.build();
        let input = lcl::uniform_input(&g);
        let ids = ids_for(&g, 3);
        let baseline = simulate_sync_with(alg, &g, &input, &ids, None, 10, RunOptions::new());
        assert!(baseline.outcome.faults.is_empty(), "{name}: clean baseline");
        let job = ProcJob {
            graph: spec,
            alg: alg_spec.clone(),
            input: InputSpec::Uniform,
            ids: ids.clone(),
            n_announced: None,
            max_rounds: 10,
        };
        for shards in SHARD_COUNTS {
            let inproc = simulate_sharded_with(
                alg,
                &g,
                &input,
                &ids,
                None,
                10,
                2,
                RunOptions::new().sharded(shards),
            );
            assert_eq!(inproc.outcome, baseline.outcome, "{name}: shards={shards}");
            let run = run_proc_sharded(&job, RunOptions::new().sharded(shards), &proc)
                .unwrap_or_else(|e| panic!("{name}: shards={shards}: {e}"));
            assert_eq!(
                run.outcome, baseline.outcome,
                "{name}: proc shards={shards}"
            );
            for counter in [Counter::Rounds, Counter::Messages] {
                assert_eq!(
                    run.trace.total(counter),
                    baseline.trace.total(counter),
                    "{name}: proc shards={shards}: {counter:?}"
                );
            }
            for counter in [
                Counter::Supersteps,
                Counter::HaloMessages,
                Counter::HaloBytes,
            ] {
                assert_eq!(
                    run.trace.total(counter),
                    inproc.trace.total(counter),
                    "{name}: proc shards={shards}: {counter:?}"
                );
            }
            assert_eq!(run.trace.total(Counter::ShardCrashes), 0);
            assert_eq!(run.trace.total(Counter::Retries), 0, "{name}: no respawns");
        }
    }
}

/// The guarded flood (`Msg = u64`) across the process boundary.
#[test]
fn guarded_flood_matches_both_in_process_substrates() {
    assert_equivalence(AlgSpec::GuardedFlood { k: 3 }, &GuardedFlood { k: 3 });
}

/// The synthesized constant-round E1 pipeline (`Msg = (u64, u32)`):
/// the worker process reruns `tree_speedup` from the problem name and
/// must land on the identical lifted algorithm.
#[test]
fn lifted_e1_matches_both_in_process_substrates() {
    let outcome = tree_speedup(&anti_matching(3), SpeedupOptions::default());
    assert_equivalence(AlgSpec::AntiMatchingE1 { delta: 3 }, &outcome.algorithm());
}

/// Shard-scoped init under an adversarial id permutation: each worker
/// receives only its owned range of the *permuted* ids, and the run
/// still equals both in-process substrates on a 1000-node path.
#[test]
fn owned_id_slices_survive_an_id_permutation() {
    let spec = GraphSpec::Path { n: 1000 };
    let g = spec.build();
    let input = lcl::uniform_input(&g);
    let ids = ids_for(&g, 9);
    let plan = lcl_faults::FaultPlan::new(17).with_permuted_ids();
    let flood = GuardedFlood { k: 3 };
    let baseline = simulate_sync_with(
        &flood,
        &g,
        &input,
        &ids,
        None,
        10,
        RunOptions::new().faults(&plan),
    );
    assert!(baseline.outcome.faults.is_empty(), "clean baseline");
    let unpermuted = simulate_sync_with(&flood, &g, &input, &ids, None, 10, RunOptions::new());
    assert_ne!(
        unpermuted.outcome.outcome, baseline.outcome.outcome,
        "the permutation changes which nodes win"
    );
    let job = ProcJob {
        graph: spec,
        alg: AlgSpec::GuardedFlood { k: 3 },
        input: InputSpec::Uniform,
        ids: ids.clone(),
        n_announced: None,
        max_rounds: 10,
    };
    for shards in [1, 2, 8] {
        let opts = || RunOptions::new().faults(&plan).sharded(shards);
        let inproc = simulate_sharded_with(&flood, &g, &input, &ids, None, 10, 2, opts());
        let run = run_proc_sharded(&job, opts(), &proc_options())
            .unwrap_or_else(|e| panic!("shards={shards}: {e}"));
        assert_eq!(run.outcome, baseline.outcome, "proc shards={shards}");
        assert_eq!(
            inproc.outcome, baseline.outcome,
            "in-process shards={shards}"
        );
    }
}

/// A missing worker binary is a typed error, not a hang.
#[test]
fn missing_worker_binary_is_a_typed_error() {
    let job = ProcJob {
        graph: GraphSpec::Path { n: 4 },
        alg: AlgSpec::GuardedFlood { k: 1 },
        input: InputSpec::Uniform,
        ids: vec![1, 2, 3, 4],
        n_announced: None,
        max_rounds: 4,
    };
    let proc = ProcOptions {
        worker_bin: Some("/nonexistent/shard-worker".into()),
        ..ProcOptions::default()
    };
    match run_proc_sharded(&job, RunOptions::new(), &proc) {
        Err(lcl_procshard::ProcError::WorkerBinMissing { tried }) => {
            assert_eq!(tried, vec!["/nonexistent/shard-worker".to_string()]);
        }
        other => panic!("expected WorkerBinMissing, got {other:?}"),
    }
}
