//! The sharded synchronous executor.
//!
//! LOCAL rounds run as bulk-synchronous supersteps over a [`ShardMap`]
//! partition: every shard computes its nodes' sends, exchanges boundary
//! ("halo") message batches with its neighbor shards over
//! `std::sync::mpsc` channels, and delivers inboxes — with a barrier
//! (a `std::thread::scope` join) between the phases, so a superstep's
//! halos are always fully enqueued before any shard starts delivering.
//!
//! Each shard is a [`ShardKernel`]; this module is its in-process
//! driver: it carries [`ShardKernel::compute`]'s outgoing batches to
//! the destination shards' channels and drains each shard's channel
//! into the inbox [`ShardKernel::deliver`] reads.
//!
//! # Bit-identity with the single-image executor
//!
//! The kernel's per-node semantics are an exact mirror of
//! `lcl_local`'s degrading executor (crash-stops before sends, beacons
//! from dead nodes, skip-on-incomplete-inbox, panic isolation per node
//! invocation), and all per-shard fault records are buffered per phase
//! and merged in shard order — which, because shards own contiguous
//! ascending ranges, reconstructs exactly the global node order the
//! unsharded executor would have produced. A sharded run of a plan
//! without whole-shard losses is therefore *equal* — outcome, fault
//! list, round/message counts, and event-log cost model — to the
//! unsharded run, for every shard count and every runner thread count.
//!
//! # Whole-shard loss
//!
//! [`Fault::ShardCrash`] kills a shard at the start of a superstep: the
//! work of that superstep is lost, including the halo batches it would
//! have sent. Crash-planned shards checkpoint at the start of every
//! superstep ([`ShardSnapshot`] round-trip plus an in-memory image), so
//! the rebuild — in the same compute phase — restores the
//! superstep-start state, replays the lost compute, and re-exchanges
//! halos with shards that crashed alongside it. Healthy shards have
//! already consumed their retained copies of nothing — they never
//! received the dead shard's batch — so their frontier nodes record a
//! `"halo-loss"` fault and skip the round, exactly like a node whose
//! neighbor died mute. Everything else in a healthy shard, and
//! everything in the rebuilt shard, proceeds bit-identically to a
//! crash-free run; containment of the damage to healthy-shard
//! frontiers is what `crate::recovery` exploits.
//!
//! [`Fault::ShardCrash`]: lcl_faults::Fault::ShardCrash
//! [`ShardSnapshot`]: crate::ShardSnapshot

use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver, Sender};

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{isolate, Degraded, FaultPlan, NodeFault, RunOptions};
use lcl_graph::{Graph, ShardMap};
use lcl_local::{IdAssignment, SyncAlgorithm, SyncRun};
use lcl_obs::{Counter, Event, RunReport, Span, Trace};

use crate::kernel::{HaloInbox, ShardKernel};

/// One shard's boundary messages to one neighbor shard for one
/// superstep, as [`ShardKernel::compute`] assembled them.
struct HaloBatch<M> {
    from: usize,
    superstep: u32,
    payload: Vec<Option<M>>,
}

/// One shard's kernel plus its mpsc plumbing, stepped by at most one
/// runner thread per phase.
struct Runner<A: SyncAlgorithm> {
    kernel: ShardKernel<A>,
    rx: Receiver<HaloBatch<A::Msg>>,
    txs: BTreeMap<usize, Sender<HaloBatch<A::Msg>>>,
    /// Permanently gone: an unplanned panic escaped a shard step (or
    /// the shard's budget breached) and no rebuild is possible.
    lost: bool,
}

impl<A: SyncAlgorithm> Runner<A> {
    /// Superstep prologue; a budget breach loses the shard for good.
    fn begin(&mut self, alg: &A, round: u32) {
        if let Err(breach) = self.kernel.begin_round(alg, round) {
            self.lost = true;
            self.kernel.condemn(round, "budget", &breach.to_string());
        }
    }

    /// The send side of a superstep, with the batches put on the
    /// destination shards' channels.
    fn compute_and_send(&mut self, alg: &A, graph: &Graph, round: u32, crashed_now: &[bool]) {
        let from = self.kernel.id();
        for (dst, payload) in self.kernel.compute(alg, graph, round, crashed_now) {
            let batch = HaloBatch {
                from,
                superstep: round,
                payload,
            };
            if self.txs[&dst].send(batch).is_err() {
                // A receiver can only be gone if its runner was dropped,
                // which never happens mid-run; treat as mute.
            }
        }
    }

    /// Delivery from this superstep's queued batches.
    fn drain_and_deliver(&mut self, alg: &A, graph: &Graph, round: u32, crashed_now: &[bool]) {
        let mut inbox: HaloInbox<A::Msg> = BTreeMap::new();
        while let Ok(batch) = self.rx.try_recv() {
            if batch.superstep == round {
                inbox.insert(batch.from, batch.payload);
            }
        }
        self.kernel.deliver(alg, graph, round, crashed_now, &inbox);
    }

    /// Discards any queued batches of a permanently lost shard so its
    /// channel does not grow for the rest of the run.
    fn drain_discard(&mut self) {
        while self.rx.try_recv().is_ok() {}
    }
}

/// Steps one shard through one phase with whole-shard panic isolation:
/// an escaped panic (impossible from algorithm code, which is isolated
/// per node — this guards the executor machinery itself) marks the
/// shard permanently lost instead of poisoning the run.
fn step_one<A, F>(r: &mut Runner<A>, round: u32, f: &F)
where
    A: SyncAlgorithm,
    F: Fn(&mut Runner<A>),
{
    if r.lost {
        r.drain_discard();
        return;
    }
    if let Err(payload) = isolate(|| f(r)) {
        r.lost = true;
        r.kernel.condemn(round, "shard-loss", &payload);
    }
}

/// Runs `f` over every shard on up to `threads` runner threads, with
/// shards partitioned into contiguous blocks. The call is a barrier:
/// every shard has finished the phase when it returns, which is what
/// makes the mpsc halo exchange superstep-atomic.
fn for_each_shard<A, F>(runners: &mut [Runner<A>], threads: usize, round: u32, f: F)
where
    A: SyncAlgorithm + Sync,
    A::State: Send,
    A::Msg: Send,
    F: Fn(&mut Runner<A>) + Sync,
{
    let m = runners.len();
    let t = threads.clamp(1, m.max(1));
    if t <= 1 {
        for r in runners.iter_mut() {
            step_one(r, round, &f);
        }
        return;
    }
    let chunk = m.div_ceil(t);
    let f = &f;
    std::thread::scope(|scope| {
        for slice in runners.chunks_mut(chunk) {
            scope.spawn(move || {
                for r in slice {
                    step_one(r, round, f);
                }
            });
        }
    });
}

/// Runs a [`SyncAlgorithm`] under [`RunOptions`] on a sharded
/// substrate with `threads` runner threads.
///
/// When `opts` requests no sharding ([`RunOptions::shard_count`] is
/// `None`) the call delegates to `lcl_local::simulate_sync_with`
/// unchanged. Otherwise the graph is partitioned by a [`ShardMap`]
/// into the requested number of shards (clamped to the node count) and
/// executed as boundary-exchange supersteps; see the module docs for
/// the fault model. The outcome for plans without whole-shard losses
/// is equal to the unsharded executor's for every shard and thread
/// count; the trace additionally carries the shard counters
/// (`shards`, `supersteps`, `halo-messages`, `halo-bytes`,
/// `shard-crashes`, `shard-rebuilds`, `checkpoints`, `retries`).
#[allow(clippy::too_many_arguments)]
pub fn simulate_sharded_with<A>(
    alg: &A,
    graph: &Graph,
    input: &HalfEdgeLabeling<InLabel>,
    ids: &[u64],
    n_announced: Option<usize>,
    max_rounds: u32,
    threads: usize,
    opts: RunOptions<'_>,
) -> RunReport<Degraded<SyncRun>>
where
    A: SyncAlgorithm + Sync,
    A::State: Send,
    A::Msg: Send,
{
    let Some(requested_shards) = opts.shard_count() else {
        return lcl_local::simulate_sync_with(
            alg,
            graph,
            input,
            ids,
            n_announced,
            max_rounds,
            opts,
        );
    };
    assert_eq!(ids.len(), graph.node_count(), "ids cover the graph");
    let empty_plan;
    let plan: &FaultPlan = match opts.fault_plan() {
        Some(plan) => plan,
        None => {
            empty_plan = FaultPlan::new(0);
            &empty_plan
        }
    };
    let log = opts.event_log();
    let budget = opts.run_budget();
    let effective = budget.max_rounds.map_or(max_rounds, |cap| {
        max_rounds.min(u32::try_from(cap).unwrap_or(u32::MAX))
    });
    let owned;
    let ids: &[u64] = match plan.permutation(graph.node_count()) {
        Some(perm) => {
            owned = IdAssignment::from_vec(ids.to_vec())
                .permuted(&perm)
                .iter()
                .collect::<Vec<u64>>();
            &owned
        }
        None => ids,
    };
    let n = n_announced.unwrap_or_else(|| graph.node_count());
    let map = ShardMap::new(graph.node_count(), requested_shards);
    let m = map.num_shards();
    let mut span = Span::start(format!("shard/sync/{}", alg.name()));

    let (txs_all, rxs): (Vec<_>, Vec<_>) = (0..m).map(|_| mpsc::channel()).unzip();
    let mut runners: Vec<Runner<A>> = rxs
        .into_iter()
        .enumerate()
        .map(|(s, rx)| {
            let kernel = ShardKernel::new(s, &map, graph, plan, &budget);
            let txs = kernel.peers().map(|d| (d, txs_all[d].clone())).collect();
            Runner {
                kernel,
                rx,
                txs,
                lost: false,
            }
        })
        .collect();
    drop(txs_all);

    let mut faults: Vec<NodeFault> = Vec::new();
    let mut messages = 0u64;
    let mut rounds = 0u32;
    // Appends one phase buffer of every shard, in shard order.
    let drain = |runners: &mut [Runner<A>],
                 faults: &mut Vec<NodeFault>,
                 buf: fn(&mut ShardKernel<A>) -> &mut Vec<NodeFault>| {
        for r in runners {
            faults.append(buf(&mut r.kernel));
        }
    };

    for_each_shard(&mut runners, threads, 0, |r| {
        let range = map.range(r.kernel.id());
        r.kernel.init_nodes(alg, graph, input, &ids[range], n);
    });
    drain(&mut runners, &mut faults, |k| &mut k.f_init);
    drain(&mut runners, &mut faults, |k| &mut k.f_recv);

    loop {
        for_each_shard(&mut runners, threads, rounds, |r| r.begin(alg, rounds));
        if runners.iter().all(|r| r.lost || r.kernel.all_done) {
            break;
        }
        if rounds >= effective {
            for_each_shard(&mut runners, threads, rounds, |r| {
                r.kernel.no_halt(alg, effective, rounds);
            });
            break;
        }
        if let Some(log) = log {
            log.record(Event::RoundStart {
                round: u64::from(rounds),
            });
        }
        let crashed_now: Vec<bool> = runners
            .iter()
            .map(|r| !r.lost && r.kernel.domain().crashes_at(rounds))
            .collect();
        let crashed = crashed_now.as_slice();
        for_each_shard(&mut runners, threads, rounds, |r| {
            r.compute_and_send(alg, graph, rounds, crashed);
        });
        let round_messages: u64 = runners
            .iter()
            .map(|r| if r.lost { 0 } else { r.kernel.round_messages })
            .sum();
        messages += round_messages;
        drain(&mut runners, &mut faults, |k| &mut k.f_crash);
        drain(&mut runners, &mut faults, |k| &mut k.f_send);
        for_each_shard(&mut runners, threads, rounds, |r| {
            r.drain_and_deliver(alg, graph, rounds, crashed);
        });
        drain(&mut runners, &mut faults, |k| &mut k.f_recv);
        if let Some(log) = log {
            log.record(Event::RoundEnd {
                round: u64::from(rounds),
                messages: round_messages,
            });
        }
        rounds += 1;
    }
    // Residual buffers: no-halt faults, and condemnations recorded by a
    // phase that broke out of the loop.
    drain(&mut runners, &mut faults, |k| &mut k.f_crash);
    drain(&mut runners, &mut faults, |k| &mut k.f_send);
    drain(&mut runners, &mut faults, |k| &mut k.f_recv);

    for_each_shard(&mut runners, threads, rounds, |r| {
        r.kernel.output_nodes(alg, graph, rounds);
    });
    drain(&mut runners, &mut faults, |k| &mut k.f_out);
    drain(&mut runners, &mut faults, |k| &mut k.f_recv);

    let mut outputs: Vec<Vec<Vec<OutLabel>>> = runners
        .iter_mut()
        .map(|r| std::mem::take(&mut r.kernel.outputs))
        .collect();
    let output = HalfEdgeLabeling::from_node_fn(graph, |v| {
        let s = map.shard_of(v);
        let local = v.index() - map.range(s).start;
        let degree = graph.degree(v) as usize;
        let labels = std::mem::take(&mut outputs[s][local]);
        if labels.len() == degree {
            labels
        } else {
            // A shard lost during the output phase never filled its
            // labels; placeholder like any other dead node.
            vec![OutLabel(0); degree]
        }
    });

    if let Some(log) = log {
        for r in &runners {
            for event in r.kernel.domain().events().events() {
                log.record(event);
            }
        }
    }

    let lost_shards = runners.iter().filter(|r| r.lost).count() as u64;
    let total = |count: fn(&ShardKernel<A>) -> u64| -> u64 {
        runners.iter().map(|r| count(&r.kernel)).sum()
    };
    span.set(Counter::Nodes, graph.node_count() as u64);
    span.set(Counter::Edges, graph.edge_count() as u64);
    span.set(Counter::Rounds, u64::from(rounds));
    span.set(Counter::Messages, messages);
    span.set(Counter::Faults, faults.len() as u64);
    span.set(Counter::Shards, m as u64);
    span.set(Counter::Supersteps, total(|k| k.supersteps));
    span.set(Counter::HaloMessages, total(|k| k.halo_messages));
    span.set(Counter::HaloBytes, total(|k| k.halo_bytes));
    span.set(Counter::ShardCrashes, total(|k| k.crashes) + lost_shards);
    span.set(Counter::ShardRebuilds, total(|k| k.rebuilds));
    span.set(Counter::Checkpoints, total(|k| k.checkpoints));
    span.set(Counter::Retries, total(|k| k.rebuilds));
    let degraded = Degraded {
        outcome: SyncRun { output, rounds },
        faults,
    };
    RunReport::new(degraded, Trace::new(span.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GuardedFlood;
    use lcl_faults::Fault;
    use lcl_graph::{gen, NodeId};
    use lcl_obs::EventLog;

    fn ids(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 31 % 97 + 1).collect()
    }

    #[test]
    fn clean_sharded_runs_match_the_unsharded_executor() {
        let g = gen::random_tree(40, 3, 11);
        let ids = ids(40);
        let input = lcl::uniform_input(&g);
        let alg = GuardedFlood { k: 3 };
        let baseline =
            lcl_local::simulate_sync_with(&alg, &g, &input, &ids, None, 10, RunOptions::new());
        for shards in [1usize, 4, 16] {
            for threads in [1usize, 2, 8] {
                let run = simulate_sharded_with(
                    &alg,
                    &g,
                    &input,
                    &ids,
                    None,
                    10,
                    threads,
                    RunOptions::new().sharded(shards),
                );
                assert_eq!(
                    run.outcome, baseline.outcome,
                    "shards={shards} threads={threads}"
                );
                assert_eq!(run.trace.total(Counter::Shards), shards.min(40) as u64);
                assert_eq!(run.trace.total(Counter::ShardCrashes), 0);
            }
        }
    }

    #[test]
    fn node_fault_plans_degrade_identically_to_the_unsharded_executor() {
        let g = gen::path(20);
        let ids = ids(20);
        let input = lcl::uniform_input(&g);
        let alg = GuardedFlood { k: 2 };
        let plan = FaultPlan::new(5)
            .with(Fault::Crash { node: 3, round: 1 })
            .with(Fault::PanicNode { node: 11 })
            .with(Fault::Crash { node: 17, round: 0 });
        let baseline = lcl_local::simulate_sync_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            RunOptions::new().faults(&plan),
        );
        assert!(baseline.outcome.is_degraded());
        for shards in [1usize, 3, 7] {
            let run = simulate_sharded_with(
                &alg,
                &g,
                &input,
                &ids,
                None,
                10,
                2,
                RunOptions::new().faults(&plan).sharded(shards),
            );
            assert_eq!(run.outcome, baseline.outcome, "shards={shards}");
        }
    }

    #[test]
    fn whole_shard_loss_is_rebuilt_and_contained_to_the_frontier() {
        let g = gen::path(12);
        let ids = ids(12);
        let input = lcl::uniform_input(&g);
        let alg = GuardedFlood { k: 1 };
        let clean = simulate_sharded_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            1,
            RunOptions::new().sharded(3),
        );
        assert!(clean.outcome.faults.is_empty());
        // Shard 1 owns 4..8; it dies at superstep 0 and is rebuilt.
        let plan = FaultPlan::new(0).with(Fault::ShardCrash {
            shard: 1,
            superstep: 0,
        });
        let log = EventLog::new(256);
        let run = simulate_sharded_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            2,
            RunOptions::new().faults(&plan).sharded(3).events(&log),
        );
        assert_eq!(run.trace.total(Counter::ShardCrashes), 1);
        assert_eq!(run.trace.total(Counter::ShardRebuilds), 1);
        assert!(run.trace.total(Counter::Checkpoints) >= 1);
        let faults = &run.outcome.faults;
        assert!(
            faults
                .iter()
                .any(|f| f.payload.contains("shard 1 lost whole")),
            "{faults:?}"
        );
        // Halo loss hits exactly the healthy frontier nodes 3 and 8.
        let halo_nodes: Vec<u64> = faults
            .iter()
            .filter(|f| f.payload.contains("halo from crashed shard 1"))
            .map(|f| f.node)
            .collect();
        assert_eq!(halo_nodes, vec![3, 8]);
        // The rebuilt shard's own labels match the clean run exactly;
        // damage is confined to the healthy frontier.
        let clean_out = &clean.outcome.outcome.output;
        let crashed_out = &run.outcome.outcome.output;
        for i in 0..12u32 {
            let v = NodeId(i);
            let same = g
                .half_edges_of(v)
                .all(|h| clean_out.get(h) == crashed_out.get(h));
            if (4..8).contains(&i) {
                assert!(same, "rebuilt shard node {i} must match the clean run");
            } else if i != 3 && i != 8 {
                assert!(same, "healthy interior node {i} must match the clean run");
            }
        }
        // The per-shard streams carry checkpoint + retry + shard-step
        // events, folded into the caller's log.
        let kinds: Vec<&'static str> = log.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"checkpoint"));
        assert!(kinds.contains(&"retry"));
        assert!(kinds.contains(&"shard-step"));
    }

    #[test]
    fn single_shard_crash_rebuild_is_lossless() {
        let g = gen::path(9);
        let ids = ids(9);
        let input = lcl::uniform_input(&g);
        let alg = GuardedFlood { k: 2 };
        let clean = simulate_sharded_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            1,
            RunOptions::new().sharded(1),
        );
        let plan = FaultPlan::new(0).with(Fault::ShardCrash {
            shard: 0,
            superstep: 1,
        });
        let run = simulate_sharded_with(
            &alg,
            &g,
            &input,
            &ids,
            None,
            10,
            1,
            RunOptions::new().faults(&plan).sharded(1),
        );
        // With no other shard to lose halos toward, the rebuild makes
        // the crash output-transparent; only the fault record remains.
        assert_eq!(run.outcome.outcome, clean.outcome.outcome);
        assert_eq!(run.outcome.faults.len(), 1);
        assert_eq!(
            run.outcome.faults[0].payload,
            "shard 0 lost whole at superstep 1"
        );
        assert_eq!(run.trace.total(Counter::ShardRebuilds), 1);
    }

    #[test]
    fn unsharded_options_delegate_to_the_local_executor() {
        let g = gen::path(6);
        let ids = ids(6);
        let input = lcl::uniform_input(&g);
        let alg = GuardedFlood { k: 1 };
        let run = simulate_sharded_with(&alg, &g, &input, &ids, None, 10, 4, RunOptions::new());
        let direct =
            lcl_local::simulate_sync_with(&alg, &g, &input, &ids, None, 10, RunOptions::new());
        assert_eq!(run.outcome, direct.outcome);
        assert_eq!(run.trace.fingerprint(), direct.trace.fingerprint());
    }
}
