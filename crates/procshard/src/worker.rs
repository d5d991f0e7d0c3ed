//! The shard worker: one OS process owning one shard of a run.
//!
//! A worker is the socket driver of [`ShardKernel`], the per-shard
//! state and phase methods the in-process executor also steps. It
//! rebuilds its shard of the computation from an [`InitCmd`] — graph,
//! input, ids, and fault plan all come from the deterministic spec —
//! and then maps each supervisor command onto a kernel phase: `begin`
//! to [`ShardKernel::begin_round`], `compute` to
//! [`ShardKernel::compute`] (whose outgoing batches go into the reply),
//! `deliver` to [`ShardKernel::deliver`] (fed the command's batches),
//! `finish` to [`ShardKernel::no_halt`] and `output` to
//! [`ShardKernel::output_nodes`]. Socket input is checked before it
//! reaches the kernel: a crashed-flag string must name every shard and
//! mark this one only where its plan does, a `deliver` must follow the
//! `compute` of its superstep, and each halo batch must come from a
//! peer with the route's length, so malformed input is an `Err`, never
//! a panic. Faults are shipped in
//! each reply exactly once, so the supervisor's shard-order merge
//! reconstructs the same global fault order as the in-process executor
//! — which is what makes a clean one-shard proc run bit-identical to
//! `sharded(1)` and the unsharded executor.
//!
//! The worker has no deadline logic and no notion of its own death:
//! its budget is unlimited, and `Fault::ShardKill` is filtered out of
//! the carved domain plan, so a kill arrives only as a real `SIGKILL`
//! from the supervisor. An escaped panic kills the process, which the
//! supervisor observes as worker death. Replay rehydration works
//! because everything here is deterministic — a respawned worker fed
//! the same command history lands in the same state, byte for byte.

use std::io::{BufRead, Write};

use lcl_core::{tree_speedup, SpeedupOptions};
use lcl_faults::{Budget, FaultPlan, NodeFault};
use lcl_graph::ShardMap;
use lcl_local::SyncAlgorithm;
use lcl_problems::anti_matching;
use lcl_service::protocol::Scalar;
use lcl_shard::{GuardedFlood, ShardKernel};

use crate::spec::AlgSpec;
use crate::wire::{
    self, decode_batches, decode_flags, encode_batches, encode_events, encode_faults,
    encode_labels, open_line, push_bool_field, push_num_field, push_text_field, read_fields,
    want_int, want_str, want_text, write_line, InitCmd, WireMsg,
};

/// Drains a fault buffer into its wire form.
fn take_faults(buf: &mut Vec<NodeFault>) -> String {
    encode_faults(&std::mem::take(buf))
}

/// Serves one shard over an established connection, starting from the
/// already-parsed `init` command. Returns when the supervisor sends
/// `output` (clean shutdown) or closes the socket (the worker is being
/// discarded); `Err` carries a protocol violation the binary reports
/// on stderr before dying nonzero.
pub fn serve_shard(
    cmd: &InitCmd,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> Result<(), String> {
    match cmd.alg {
        AlgSpec::GuardedFlood { k } => run_shard(&GuardedFlood { k }, cmd, reader, writer),
        AlgSpec::AntiMatchingE1 { delta } => {
            let outcome = tree_speedup(&anti_matching(delta), SpeedupOptions::default());
            run_shard(&outcome.algorithm(), cmd, reader, writer)
        }
    }
}

/// The generic serve loop for a concrete algorithm.
fn run_shard<A>(
    alg: &A,
    cmd: &InitCmd,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> Result<(), String>
where
    A: SyncAlgorithm,
    A::Msg: WireMsg,
{
    let graph = cmd.graph.build();
    let map = ShardMap::new(graph.node_count(), cmd.shards);
    if cmd.shards != map.num_shards() || cmd.shard >= map.num_shards() {
        return Err(format!(
            "init addresses shard {} of {} on a {}-node graph",
            cmd.shard,
            cmd.shards,
            graph.node_count()
        ));
    }
    let owned = map.range(cmd.shard).len();
    if cmd.ids.len() != owned {
        return Err(format!(
            "init shipped {} ids for shard {} owning {owned} nodes",
            cmd.ids.len(),
            cmd.shard
        ));
    }
    let input = cmd.input.build(&graph);
    let plan = FaultPlan::parse(&cmd.plan_text).map_err(|e| format!("init plan: {e}"))?;
    // The worker's budget axis is the supervisor's concern (deadlines
    // and `max_rounds` are enforced from outside), so the carved
    // domain is unlimited here.
    let mut r: ShardKernel<A> =
        ShardKernel::new(cmd.shard, &map, &graph, &plan, &Budget::unlimited());
    r.init_nodes(alg, &graph, &input, &cmd.ids, cmd.n);
    // Crashed-shard flags, one per shard of the partition.
    let crashed_flags = |fields: &[(String, Scalar)]| -> Result<Vec<bool>, String> {
        let flags = decode_flags(&want_str(fields, "crashed")?)?;
        if flags.len() != cmd.shards {
            return Err(format!(
                "crashed flags name {} shards of {}",
                flags.len(),
                cmd.shards
            ));
        }
        Ok(flags)
    };
    // The superstep whose `compute` awaits its `deliver`: delivery
    // reads the outboxes that compute filled.
    let mut computed: Option<u32> = None;

    let mut ready = open_line("ready");
    push_text_field(&mut ready, "alg_name", alg.name());
    push_text_field(&mut ready, "f_init", &take_faults(&mut r.f_init));
    push_text_field(&mut ready, "f_recv", &take_faults(&mut r.f_recv));
    ready.push('}');
    write_line(writer, &ready).map_err(|e| e.to_string())?;

    loop {
        let fields: Vec<(String, Scalar)> = match read_fields(reader) {
            Ok(fields) => fields,
            // EOF: the supervisor dropped us (run over, or we are a
            // stale pre-kill connection). Exit cleanly either way.
            Err(e) if e == "peer closed the connection" => return Ok(()),
            Err(e) => return Err(e),
        };
        let op = want_str(&fields, "op")?;
        match op.as_str() {
            "begin" => {
                let round: u32 = want_int(&fields, "round")?;
                r.begin_round(alg, round).map_err(|e| e.to_string())?;
                let mut reply = open_line("begun");
                push_bool_field(&mut reply, "all_done", r.all_done);
                reply.push('}');
                write_line(writer, &reply).map_err(|e| e.to_string())?;
            }
            "compute" => {
                let round: u32 = want_int(&fields, "round")?;
                if cmd.hang_at == Some(round) {
                    // Test hook: this worker is scheduled to wedge here.
                    // A respawned replica replays into the same sleep,
                    // which is what drives the respawn-storm test.
                    loop {
                        std::thread::sleep(std::time::Duration::from_secs(3600));
                    }
                }
                let crashed = crashed_flags(&fields)?;
                if crashed[cmd.shard] != r.domain().crashes_at(round) {
                    // Only a planned crash has a checkpoint to rebuild from.
                    return Err(format!(
                        "crashed flags disagree with shard {}'s plan at superstep {round}",
                        cmd.shard
                    ));
                }
                let halos = r.compute(alg, &graph, round, &crashed);
                computed = Some(round);
                let mut reply = open_line("computed");
                push_num_field(&mut reply, "round_messages", r.round_messages);
                push_text_field(&mut reply, "halos", &encode_batches(&halos));
                push_text_field(&mut reply, "f_crash", &take_faults(&mut r.f_crash));
                push_text_field(&mut reply, "f_send", &take_faults(&mut r.f_send));
                push_num_field(&mut reply, "crashes", r.crashes);
                push_num_field(&mut reply, "rebuilds", r.rebuilds);
                push_num_field(&mut reply, "checkpoints", r.checkpoints);
                reply.push('}');
                write_line(writer, &reply).map_err(|e| e.to_string())?;
            }
            "deliver" => {
                let round: u32 = want_int(&fields, "round")?;
                if computed.take() != Some(round) {
                    return Err(format!(
                        "deliver for superstep {round} follows no compute of it"
                    ));
                }
                let crashed = crashed_flags(&fields)?;
                let batches = decode_batches::<A::Msg>(want_text(&fields, "halos")?)?;
                let inbox = wire::batches_to_inbox(batches);
                r.check_inbox(&inbox)?;
                r.deliver(alg, &graph, round, &crashed, &inbox);
                let mut reply = open_line("stepped");
                push_text_field(&mut reply, "f_recv", &take_faults(&mut r.f_recv));
                push_text_field(&mut reply, "snapshot", &r.snapshot_meta(round).to_json());
                push_num_field(&mut reply, "supersteps", r.supersteps);
                push_num_field(&mut reply, "halo_messages", r.halo_messages);
                push_num_field(&mut reply, "halo_bytes", r.halo_bytes);
                reply.push('}');
                write_line(writer, &reply).map_err(|e| e.to_string())?;
            }
            "finish" => {
                let round: u32 = want_int(&fields, "round")?;
                let effective: u32 = want_int(&fields, "effective")?;
                r.no_halt(alg, effective, round);
                let mut reply = open_line("finished");
                push_text_field(&mut reply, "f_recv", &take_faults(&mut r.f_recv));
                reply.push('}');
                write_line(writer, &reply).map_err(|e| e.to_string())?;
            }
            "output" => {
                let rounds: u32 = want_int(&fields, "rounds")?;
                r.output_nodes(alg, &graph, rounds);
                let mut reply = open_line("outputs");
                push_text_field(&mut reply, "labels", &encode_labels(&r.outputs));
                push_text_field(&mut reply, "f_out", &take_faults(&mut r.f_out));
                push_text_field(&mut reply, "f_recv", &take_faults(&mut r.f_recv));
                push_text_field(
                    &mut reply,
                    "events",
                    &encode_events(&r.domain().events().events()),
                );
                reply.push('}');
                write_line(writer, &reply).map_err(|e| e.to_string())?;
                return Ok(());
            }
            other => return Err(format!("unknown command op {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl::OutLabel;
    use lcl_graph::NodeId;
    use lcl_service::protocol::parse_flat_object;
    use std::io::BufReader;

    fn pipe_run(commands: &[String], cmd: &InitCmd) -> Vec<Vec<(String, Scalar)>> {
        let script = commands.join("\n") + "\n";
        let mut reader = BufReader::new(script.as_bytes());
        let mut out: Vec<u8> = Vec::new();
        serve_shard(cmd, &mut reader, &mut out).expect("why: a scripted clean run serves cleanly");
        String::from_utf8(out)
            .expect("why: replies are JSON text")
            .lines()
            .map(|l| parse_flat_object(l).expect("why: every reply is a flat object"))
            .collect()
    }

    /// A single-shard worker stepped over an in-memory pipe produces
    /// the same labels as the in-process executor.
    #[test]
    fn scripted_single_shard_run_matches_the_local_executor() {
        let graph = crate::spec::GraphSpec::Path { n: 5 };
        let ids = vec![3u64, 9, 1, 7, 5];
        let cmd = InitCmd {
            graph: graph.clone(),
            alg: AlgSpec::GuardedFlood { k: 4 },
            input: crate::spec::InputSpec::Uniform,
            ids: ids.clone(),
            n: 5,
            shards: 1,
            shard: 0,
            plan_text: FaultPlan::new(0).to_text(),
            hang_at: None,
        };
        let mut commands = Vec::new();
        for round in 0..4u32 {
            commands.push(format!("{{\"op\":\"begin\",\"round\":{round}}}"));
            commands.push(format!(
                "{{\"op\":\"compute\",\"round\":{round},\"crashed\":\"0\"}}"
            ));
            commands.push(format!(
                "{{\"op\":\"deliver\",\"round\":{round},\"crashed\":\"0\",\"halos\":\"\"}}"
            ));
        }
        commands.push("{\"op\":\"begin\",\"round\":4}".to_string());
        commands.push("{\"op\":\"output\",\"rounds\":4}".to_string());
        let replies = pipe_run(&commands, &cmd);
        assert_eq!(want_str(&replies[0], "op").unwrap(), "ready");
        assert_eq!(want_str(&replies[0], "alg_name").unwrap(), "guarded-flood");
        // Reply 13 is the final `begun` with all_done=true.
        assert!(crate::wire::want_bool(&replies[13], "all_done").unwrap());
        let outputs = replies.last().expect("why: the script ends with output");
        assert_eq!(want_str(outputs, "op").unwrap(), "outputs");
        let labels = crate::wire::decode_labels(&want_str(outputs, "labels").unwrap()).unwrap();
        let g = graph.build();
        let input = lcl::uniform_input(&g);
        let run = lcl_local::simulate_sync_with(
            &GuardedFlood { k: 4 },
            &g,
            &input,
            &ids,
            None,
            10,
            lcl_faults::RunOptions::new(),
        );
        let expect: Vec<Vec<OutLabel>> = (0..5u32)
            .map(|i| {
                g.half_edges_of(NodeId(i))
                    .map(|h| run.outcome.outcome.output.get(h))
                    .collect()
            })
            .collect();
        assert_eq!(labels, expect);
    }

    fn path_init(ids: usize, shards: usize, shard: usize) -> InitCmd {
        InitCmd {
            graph: crate::spec::GraphSpec::Path { n: 1000 },
            alg: AlgSpec::GuardedFlood { k: 2 },
            input: crate::spec::InputSpec::Uniform,
            ids: (0..ids as u64).collect(),
            n: 1000,
            shards,
            shard,
            plan_text: FaultPlan::new(0).to_text(),
            hang_at: None,
        }
    }

    fn serve_script(cmd: &InitCmd, script: &str) -> std::thread::Result<Result<(), String>> {
        std::panic::catch_unwind(|| {
            serve_shard(cmd, &mut BufReader::new(script.as_bytes()), &mut Vec::new())
        })
    }

    /// A worker holds only its owned range's ids; any other count (the
    /// whole graph's included), or a shard the partition does not have,
    /// is an `Err` before any node runs, never a panic.
    #[test]
    fn a_worker_sent_the_wrong_ids_errs_without_panicking() {
        for (ids, shards, shard) in [
            (1000, 2, 0),
            (499, 2, 1),
            (501, 2, 1),
            (0, 1, 0),
            (500, 2, 2),
        ] {
            let outcome = serve_script(&path_init(ids, shards, shard), "");
            assert!(
                matches!(outcome, Ok(Err(_))),
                "{ids} ids for shard {shard} of {shards}: {outcome:?}"
            );
        }
        // 2000 shards clamp to 1000 on a 1000-node path.
        assert!(matches!(
            serve_script(&path_init(1, 2000, 0), ""),
            Ok(Err(_))
        ));
        for (ids, shards, shard) in [(500, 2, 1), (1000, 1, 0), (125, 8, 7)] {
            let outcome = serve_script(&path_init(ids, shards, shard), "");
            assert!(matches!(outcome, Ok(Ok(()))), "{outcome:?}");
        }
    }

    #[test]
    fn out_of_range_rounds_are_typed_errors() {
        let cmd = path_init(1000, 1, 0);
        for script in [
            "{\"op\":\"compute\",\"round\":4294967296,\"crashed\":\"0\"}\n",
            "{\"op\":\"finish\",\"round\":0,\"effective\":4294967296}\n",
            "{\"op\":\"output\",\"rounds\":4294967297}\n",
        ] {
            let outcome = serve_script(&cmd, script);
            match outcome {
                Ok(Err(e)) => assert!(e.contains("is out of range for u32"), "{e}"),
                other => panic!("{script}: {other:?}"),
            }
        }
    }

    /// Socket input the kernel cannot step — a crashed flag string
    /// that does not name every shard or marks an unplanned crash, a
    /// halo batch from a non-peer or of the wrong length, a deliver
    /// without its compute — is a typed `Err`, not a panic.
    #[test]
    fn malformed_flags_and_halo_batches_are_typed_errors() {
        let cmd = path_init(500, 2, 1);
        let compute = |crashed: &str| {
            format!("{{\"op\":\"compute\",\"round\":0,\"crashed\":\"{crashed}\"}}\n")
        };
        let deliver = |crashed: &str, halos: &str| {
            format!(
                "{{\"op\":\"deliver\",\"round\":0,\"crashed\":\"{crashed}\",\"halos\":\"{halos}\"}}\n"
            )
        };
        for (script, want) in [
            (compute(""), "crashed flags name 0 shards of 2"),
            (compute("000"), "crashed flags name 3 shards of 2"),
            (
                compute("00") + &deliver("0", "0>1"),
                "crashed flags name 1 shards of 2",
            ),
            (
                compute("00") + &deliver("00", "0>"),
                "halo batch from shard 0 has 0 entries; shard 1 expects 1",
            ),
            (
                compute("00") + &deliver("00", "0>1,2"),
                "halo batch from shard 0 has 2 entries; shard 1 expects 1",
            ),
            (
                compute("00") + &deliver("00", "1>1"),
                "halo batch from shard 1, which is not a peer of shard 1",
            ),
            (
                compute("01"),
                "crashed flags disagree with shard 1's plan at superstep 0",
            ),
            (
                deliver("00", "0>7"),
                "deliver for superstep 0 follows no compute of it",
            ),
            (
                compute("00") + &deliver("00", "0>7") + &deliver("00", "0>7"),
                "deliver for superstep 0 follows no compute of it",
            ),
        ] {
            match serve_script(&cmd, &script) {
                Ok(Err(e)) => assert_eq!(e, want, "{script}"),
                other => panic!("{script}: {other:?}"),
            }
        }
        // The well-formed version of the same exchange serves cleanly.
        let script = compute("00") + &deliver("00", "0>7");
        assert!(matches!(serve_script(&cmd, &script), Ok(Ok(()))));
    }
}
