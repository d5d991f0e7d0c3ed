//! The per-shard superstep kernel.
//!
//! A [`ShardKernel`] is one shard's execution state plus the phase
//! methods that step it: every per-node fault rule of the sharded
//! substrate (crash-stops before sends, beacons from dead nodes,
//! injected panics, wrong-arity degradation, skip-on-incomplete-inbox,
//! halo loss, whole-shard rebuild) is defined here once. Two drivers
//! step kernels through the same phases:
//!
//! - the in-process executor ([`crate::simulate_sharded_with`]), which
//!   moves halo batches over `std::sync::mpsc` channels between thread
//!   barriers;
//! - the shard-worker process (`lcl_procshard::worker`), which reads
//!   and writes them as wire lines on a Unix socket.
//!
//! Transport is plain data: [`ShardKernel::compute`] returns the
//! outgoing batches as `(destination shard, payload)` pairs and
//! [`ShardKernel::deliver`] takes the inbound ones keyed by source
//! shard. A payload lists the sender's messages in the receiver's
//! `(node, port)` scan order; a `None` entry is a port whose source
//! node was mute (dead without a beacon).
//!
//! Faults are buffered per phase (`f_init`, `f_crash`, `f_send`,
//! `f_recv`, `f_out`) and mirrored into the shard's private event
//! stream. A driver drains the buffers in shard order after each
//! barrier, which reconstructs the global node order of the unsharded
//! executor because shards own contiguous ascending ranges.

use std::collections::{BTreeMap, HashMap};

use lcl::{HalfEdgeLabeling, InLabel, OutLabel};
use lcl_faults::{inject_panic, isolate, Budget, BudgetExceeded, FaultPlan, NodeFault};
use lcl_graph::{Graph, NodeId, ShardMap};
use lcl_local::{NodeInit, SyncAlgorithm};
use lcl_obs::{Event, EventLog};

use crate::domain::ShardDomain;
use crate::snapshot::{ShardSnapshot, SHARD_SNAPSHOT_VERSION};

/// Outgoing halo batches of one superstep: `(destination shard,
/// payload)` in ascending destination order.
pub type HaloBatches<M> = Vec<(usize, Vec<Option<M>>)>;

/// Inbound halo batches of one superstep, keyed by source shard.
pub type HaloInbox<M> = BTreeMap<usize, Vec<Option<M>>>;

/// The in-memory image a whole-shard rebuild restores: states, death
/// rounds, and beacon outboxes as of the start of a superstep.
type SnapshotImage<A> = (
    Vec<Option<<A as SyncAlgorithm>::State>>,
    Vec<Option<u32>>,
    Vec<Option<Vec<<A as SyncAlgorithm>::Msg>>>,
);

/// Appends a fault record to a phase buffer and mirrors it into the
/// shard's private event stream.
fn buffer_fault(
    buf: &mut Vec<NodeFault>,
    events: &EventLog,
    node: u64,
    round: u32,
    tag: &'static str,
    payload: String,
) {
    events.record(Event::Fault {
        node,
        round: u64::from(round),
        fault: tag,
    });
    buf.push(NodeFault {
        node,
        round: u64::from(round),
        payload,
    });
}

/// One shard's execution state and phase methods; see the module docs.
pub struct ShardKernel<A: SyncAlgorithm> {
    domain: ShardDomain,
    stage: String,
    start: usize,
    len: usize,
    states: Vec<Option<A::State>>,
    died: Vec<Option<u32>>,
    last_outbox: Vec<Option<Vec<A::Msg>>>,
    outboxes: Vec<Option<Vec<A::Msg>>>,
    snapshot: Option<SnapshotImage<A>>,
    /// Destination shard → `(source node, source port)` entries in the
    /// receiver's scan order.
    out_routes: BTreeMap<usize, Vec<(u32, u8)>>,
    /// `(source node, source port)` → (source shard, batch position).
    halo_pos: HashMap<(u32, u8), (usize, u32)>,
    /// Source shard → length of the batch it sends each superstep.
    halo_in: BTreeMap<usize, u32>,
    round_halo_messages: u64,
    round_halo_bytes: u64,
    /// Output labels per owned node, filled by [`Self::output_nodes`].
    pub outputs: Vec<Vec<OutLabel>>,
    /// Faults of the init phase.
    pub f_init: Vec<NodeFault>,
    /// Crash-stops and whole-shard crashes of the current superstep.
    pub f_crash: Vec<NodeFault>,
    /// Send-phase faults of the current superstep.
    pub f_send: Vec<NodeFault>,
    /// Receive-phase faults, no-halt faults and condemnations.
    pub f_recv: Vec<NodeFault>,
    /// Output-phase faults.
    pub f_out: Vec<NodeFault>,
    /// Whether every owned node had finished at the last
    /// [`Self::begin_round`].
    pub all_done: bool,
    /// Messages the shard's nodes sent in the current superstep.
    pub round_messages: u64,
    /// Supersteps delivered.
    pub supersteps: u64,
    /// Cumulative boundary messages sent.
    pub halo_messages: u64,
    /// Cumulative boundary bytes (count-derived) sent.
    pub halo_bytes: u64,
    /// Whole-shard crashes taken.
    pub crashes: u64,
    /// Snapshot rebuilds performed.
    pub rebuilds: u64,
    /// Superstep-start checkpoints taken.
    pub checkpoints: u64,
}

impl<A: SyncAlgorithm> ShardKernel<A> {
    /// Builds shard `me`'s kernel: carves its fault domain out of the
    /// run-wide plan and budget (see [`ShardDomain::carve`]) and derives
    /// its halo routes from its own half-edges only.
    pub fn new(
        me: usize,
        map: &ShardMap,
        graph: &Graph,
        plan: &FaultPlan,
        budget: &Budget,
    ) -> Self {
        let range = map.range(me);
        // Destination shard → (receiver node, receiver port, source
        // node, source port); sorting on the receiver's half-edge puts
        // each route in the receiver's scan order.
        let mut outgoing: BTreeMap<usize, Vec<(u32, u8, u32, u8)>> = BTreeMap::new();
        let mut halo_pos: HashMap<(u32, u8), (usize, u32)> = HashMap::new();
        let mut halo_in: BTreeMap<usize, u32> = BTreeMap::new();
        for i in range.clone() {
            let v = NodeId(i as u32);
            for h in graph.half_edges_of(v) {
                let twin = graph.twin(h);
                let u = graph.node_of(twin);
                let d = map.shard_of(u);
                if d == me {
                    continue;
                }
                let q = graph.port_of(twin);
                outgoing
                    .entry(d)
                    .or_default()
                    .push((u.0, q, v.0, graph.port_of(h)));
                let idx = halo_in.entry(d).or_insert(0);
                halo_pos.insert((u.0, q), (d, *idx));
                *idx += 1;
            }
        }
        let out_routes = outgoing
            .into_iter()
            .map(|(d, mut route)| {
                route.sort_unstable();
                (d, route.into_iter().map(|(_, _, v, p)| (v, p)).collect())
            })
            .collect();
        Self {
            domain: ShardDomain::carve(me, map, plan, budget),
            stage: format!("shard/{me}"),
            start: range.start,
            len: range.len(),
            states: Vec::new(),
            died: Vec::new(),
            last_outbox: Vec::new(),
            outboxes: Vec::new(),
            snapshot: None,
            out_routes,
            halo_pos,
            halo_in,
            round_halo_messages: 0,
            round_halo_bytes: 0,
            outputs: Vec::new(),
            f_init: Vec::new(),
            f_crash: Vec::new(),
            f_send: Vec::new(),
            f_recv: Vec::new(),
            f_out: Vec::new(),
            all_done: false,
            round_messages: 0,
            supersteps: 0,
            halo_messages: 0,
            halo_bytes: 0,
            crashes: 0,
            rebuilds: 0,
            checkpoints: 0,
        }
    }

    /// The shard id within the run's partition.
    pub fn id(&self) -> usize {
        self.domain.id()
    }

    /// The shard's fault domain.
    pub fn domain(&self) -> &ShardDomain {
        &self.domain
    }

    /// The shards this one exchanges halos with, ascending. The cut is
    /// symmetric, so these are both the destinations of
    /// [`Self::compute`] and the sources [`Self::deliver`] expects.
    pub fn peers(&self) -> impl Iterator<Item = usize> + '_ {
        self.out_routes.keys().copied()
    }

    /// Checks that every inbound batch comes from a peer shard and is
    /// as long as that peer's route toward this shard.
    pub fn check_inbox(&self, inbox: &HaloInbox<A::Msg>) -> Result<(), String> {
        for (&from, batch) in inbox {
            match self.halo_in.get(&from) {
                Some(&len) if batch.len() == len as usize => {}
                Some(&len) => {
                    return Err(format!(
                        "halo batch from shard {from} has {} entries; shard {} expects {len}",
                        batch.len(),
                        self.id()
                    ))
                }
                None => {
                    return Err(format!(
                        "halo batch from shard {from}, which is not a peer of shard {}",
                        self.id()
                    ))
                }
            }
        }
        Ok(())
    }

    /// Marks every live node dead at `round` with one fault each — the
    /// degrade leg for unplanned whole-shard trouble (an escaped panic
    /// or a budget breach) with no snapshot to rebuild from.
    pub fn condemn(&mut self, round: u32, tag: &'static str, payload: &str) {
        for local in 0..self.len {
            if self.died[local].is_none() {
                self.died[local] = Some(round);
                buffer_fault(
                    &mut self.f_recv,
                    self.domain.events(),
                    (self.start + local) as u64,
                    round,
                    tag,
                    payload.to_string(),
                );
            }
        }
        self.all_done = true;
    }

    /// Initializes the shard's nodes (panic-isolated per node); `ids`
    /// holds the owned nodes' ids by local offset.
    pub fn init_nodes(
        &mut self,
        alg: &A,
        graph: &Graph,
        input: &HalfEdgeLabeling<InLabel>,
        ids: &[u64],
        n: usize,
    ) {
        assert_eq!(ids.len(), self.len, "one id per owned node");
        self.states = Vec::with_capacity(self.len);
        self.died = Vec::with_capacity(self.len);
        for (local, &id) in ids.iter().enumerate() {
            let i = self.start + local;
            let v = NodeId(i as u32);
            let init = NodeInit {
                node: v,
                n,
                id,
                degree: graph.degree(v),
                inputs: graph.half_edges_of(v).map(|h| input.get(h)).collect(),
            };
            match isolate(|| alg.init(&init)) {
                Ok(state) => {
                    self.states.push(Some(state));
                    self.died.push(None);
                }
                Err(payload) => {
                    buffer_fault(
                        &mut self.f_init,
                        self.domain.events(),
                        i as u64,
                        0,
                        "panic",
                        payload,
                    );
                    self.states.push(None);
                    self.died.push(Some(0));
                }
            }
        }
        self.last_outbox = vec![None; self.len];
    }

    /// Superstep prologue: checkpoint the shard's cancel token, then
    /// record in [`Self::all_done`] whether every owned node is
    /// finished (mirroring the unsharded all-done scan, panic-isolated
    /// `is_done` included). A tripped token is returned untouched; the
    /// driver decides what a breach costs.
    pub fn begin_round(&mut self, alg: &A, round: u32) -> Result<(), BudgetExceeded> {
        self.domain
            .token()
            .checkpoint(&self.stage, u64::from(round))?;
        self.all_done = (0..self.len).all(|local| {
            self.died[local].is_some()
                || self.states[local]
                    .as_ref()
                    .is_some_and(|s| isolate(|| alg.is_done(s)).unwrap_or(true))
        });
        Ok(())
    }

    /// Records one `"no-halt"` fault per live unfinished node, in node
    /// order, when the round cap is exhausted.
    pub fn no_halt(&mut self, alg: &A, effective: u32, round: u32) {
        for local in 0..self.len {
            let live = self.died[local].is_none();
            let not_done = self.states[local]
                .as_ref()
                .is_some_and(|s| !isolate(|| alg.is_done(s)).unwrap_or(true));
            if live && not_done {
                buffer_fault(
                    &mut self.f_recv,
                    self.domain.events(),
                    (self.start + local) as u64,
                    round,
                    "no-halt",
                    format!("did not halt within {effective} rounds"),
                );
            }
        }
    }

    /// The shard's snapshot envelope at `superstep`: the metadata a
    /// checkpoint round-trips, and the integrity anchor a worker ships
    /// with every `stepped` reply.
    pub fn snapshot_meta(&self, superstep: u32) -> ShardSnapshot {
        ShardSnapshot {
            version: SHARD_SNAPSHOT_VERSION,
            shard: self.id() as u64,
            range_start: self.start as u64,
            range_end: (self.start + self.len) as u64,
            superstep: u64::from(superstep),
            live_nodes: self.died.iter().filter(|d| d.is_none()).count() as u64,
            halo_messages: self.halo_messages,
            halo_bytes: self.halo_bytes,
        }
    }

    /// Takes the superstep-start checkpoint: serializes and re-parses
    /// the [`ShardSnapshot`] envelope (that round trip is what the
    /// `Checkpoint` event attests) and clones the in-memory image the
    /// rebuild would restore.
    fn checkpoint(&mut self, round: u32) {
        let meta = self.snapshot_meta(round);
        let round_tripped = ShardSnapshot::parse(&meta.to_json())
            .expect("why: a just-serialized shard snapshot always parses back");
        assert_eq!(round_tripped, meta, "snapshot round trip is lossless");
        self.snapshot = Some((
            self.states.clone(),
            self.died.clone(),
            self.last_outbox.clone(),
        ));
        self.checkpoints += 1;
        self.domain.events().record(Event::Checkpoint {
            stage: self.stage.clone(),
            completed: u64::from(round),
        });
    }

    /// Applies the shard plan's crash-stops scheduled for `round`, in
    /// node order (mirroring the unsharded pre-send scan).
    fn apply_crash_stops(&mut self, round: u32) {
        for local in 0..self.len {
            let i = self.start + local;
            if self.died[local].is_none() && self.domain.plan().crash_round(i) == Some(round) {
                buffer_fault(
                    &mut self.f_crash,
                    self.domain.events(),
                    i as u64,
                    round,
                    "crash-stop",
                    "crash-stop".into(),
                );
                self.died[local] = Some(round);
            }
        }
    }

    /// Computes the shard's outboxes for `round` with the full
    /// per-node fault treatment of the unsharded send phase: beacons
    /// from dead nodes, injected first-send panics, wrong-arity and
    /// panic degradation.
    fn compute_outboxes(&mut self, alg: &A, graph: &Graph, round: u32) {
        let mut outboxes: Vec<Option<Vec<A::Msg>>> = Vec::with_capacity(self.len);
        for local in 0..self.len {
            let i = self.start + local;
            let v = NodeId(i as u32);
            if self.died[local].is_some() {
                outboxes.push(self.last_outbox[local].clone());
                continue;
            }
            let state = self.states[local]
                .as_ref()
                .expect("why: died is None, and every live node holds a state");
            let sent = if self.domain.plan().panics(i) && round == 0 {
                isolate(|| inject_panic(i as u64))
            } else {
                isolate(|| alg.send(state, round))
            };
            match sent {
                Ok(out) if out.len() == graph.degree(v) as usize => outboxes.push(Some(out)),
                Ok(out) => {
                    buffer_fault(
                        &mut self.f_send,
                        self.domain.events(),
                        i as u64,
                        round,
                        "wrong-arity",
                        format!(
                            "sent {} messages from a degree-{} node",
                            out.len(),
                            graph.degree(v)
                        ),
                    );
                    self.died[local] = Some(round);
                    outboxes.push(self.last_outbox[local].clone());
                }
                Err(payload) => {
                    buffer_fault(
                        &mut self.f_send,
                        self.domain.events(),
                        i as u64,
                        round,
                        "panic",
                        payload,
                    );
                    self.died[local] = Some(round);
                    outboxes.push(self.last_outbox[local].clone());
                }
            }
        }
        self.round_messages = outboxes
            .iter()
            .map(|o| o.as_ref().map_or(0, |m| m.len() as u64))
            .sum();
        self.outboxes = outboxes;
    }

    /// Assembles this superstep's outgoing halo batches. `only_crashed`
    /// restricts the fan-out to fellow-crashed destinations — the
    /// rebuild path's re-exchange, since healthy shards never lost
    /// their inbound copies.
    fn collect_halos(&mut self, only_crashed: Option<&[bool]>) -> HaloBatches<A::Msg> {
        let mut batches = Vec::new();
        for (dst, route) in &self.out_routes {
            if only_crashed.is_some_and(|crashed| !crashed[*dst]) {
                continue;
            }
            let payload: Vec<Option<A::Msg>> = route
                .iter()
                .map(|&(u, q)| {
                    self.outboxes[u as usize - self.start]
                        .as_ref()
                        .map(|o| o[q as usize].clone())
                })
                .collect();
            let sent = payload.iter().filter(|m| m.is_some()).count() as u64;
            self.round_halo_messages += sent;
            self.round_halo_bytes += sent * std::mem::size_of::<A::Msg>() as u64;
            batches.push((*dst, payload));
        }
        batches
    }

    /// One superstep's send side. A healthy shard checkpoints if it is
    /// crash-planned, applies crash-stops, computes its sends and fans
    /// halos out to every peer. A shard in `crashed_now` loses the
    /// superstep's work at its start and is rebuilt in the same call:
    /// it records the crash, restores the checkpoint just taken,
    /// replays the superstep, and re-sends halos to fellow-crashed
    /// shards only, since healthy peers never lost their copies.
    /// `crashed_now` holds one flag per shard of the partition.
    pub fn compute(
        &mut self,
        alg: &A,
        graph: &Graph,
        round: u32,
        crashed_now: &[bool],
    ) -> HaloBatches<A::Msg> {
        self.round_messages = 0;
        self.round_halo_messages = 0;
        self.round_halo_bytes = 0;
        if self.domain.has_planned_crashes() {
            self.checkpoint(round);
        }
        if !crashed_now[self.id()] {
            self.apply_crash_stops(round);
            self.compute_outboxes(alg, graph, round);
            return self.collect_halos(None);
        }
        self.outboxes = Vec::new();
        self.crashes += 1;
        let payload = format!("shard {} lost whole at superstep {round}", self.id());
        buffer_fault(
            &mut self.f_crash,
            self.domain.events(),
            self.start as u64,
            round,
            "shard-crash",
            payload,
        );
        let (states, died, last_outbox) = self
            .snapshot
            .clone()
            .expect("why: crash-planned shards checkpoint at the start of every superstep");
        self.states = states;
        self.died = died;
        self.last_outbox = last_outbox;
        self.rebuilds += 1;
        self.domain.events().record(Event::Retry {
            stage: self.stage.clone(),
            attempt: self.crashes,
            backoff_ms: 10 << (self.crashes.min(4) - 1),
        });
        self.apply_crash_stops(round);
        self.compute_outboxes(alg, graph, round);
        self.collect_halos(Some(crashed_now))
    }

    /// Delivery: assemble each live node's inbox (local ports from the
    /// shard's own outboxes, boundary ports from `inbox`) and receive.
    /// A port whose source shard crashed this superstep records a
    /// `"halo-loss"` fault and skips the round; a `None` entry (mute
    /// dead source) or a batch missing from a permanently lost shard
    /// skips silently, exactly like the unsharded missing-message rule.
    /// Every batch in `inbox` must pass [`Self::check_inbox`].
    pub fn deliver(
        &mut self,
        alg: &A,
        graph: &Graph,
        round: u32,
        crashed_now: &[bool],
        inbox: &HaloInbox<A::Msg>,
    ) {
        for local in 0..self.len {
            if self.died[local].is_some() {
                continue;
            }
            let i = self.start + local;
            let v = NodeId(i as u32);
            let mut halo_lost: Option<usize> = None;
            let received: Option<Vec<A::Msg>> = graph
                .half_edges_of(v)
                .map(|h| {
                    let twin = graph.twin(h);
                    let u = graph.node_of(twin);
                    let q = graph.port_of(twin);
                    if (self.start..self.start + self.len).contains(&u.index()) {
                        self.outboxes[u.index() - self.start]
                            .as_ref()
                            .map(|o| o[q as usize].clone())
                    } else {
                        let &(d, idx) = self
                            .halo_pos
                            .get(&(u.0, q))
                            .expect("why: every cross half-edge was routed at setup");
                        match inbox.get(&d) {
                            Some(batch) => batch[idx as usize].clone(),
                            None => {
                                if crashed_now[d] {
                                    halo_lost.get_or_insert(d);
                                }
                                None
                            }
                        }
                    }
                })
                .collect();
            if let Some(d) = halo_lost {
                buffer_fault(
                    &mut self.f_recv,
                    self.domain.events(),
                    i as u64,
                    round,
                    "halo-loss",
                    format!("halo from crashed shard {d} lost at superstep {round}"),
                );
                continue;
            }
            if let Some(received) = received {
                let state = self.states[local]
                    .as_mut()
                    .expect("why: died is None, and every live node holds a state");
                if let Err(payload) = isolate(|| alg.receive(state, &received, round)) {
                    buffer_fault(
                        &mut self.f_recv,
                        self.domain.events(),
                        i as u64,
                        round,
                        "panic",
                        payload,
                    );
                    self.died[local] = Some(round);
                }
            }
        }
        for (slot, sent) in self.last_outbox.iter_mut().zip(&self.outboxes) {
            if sent.is_some() {
                *slot = sent.clone();
            }
        }
        self.halo_messages += self.round_halo_messages;
        self.halo_bytes += self.round_halo_bytes;
        self.supersteps += 1;
        self.domain.events().record(Event::ShardStep {
            shard: self.id() as u64,
            superstep: u64::from(round),
            halo_messages: self.round_halo_messages,
            halo_bytes: self.round_halo_bytes,
        });
    }

    /// Computes the shard's output labels with the unsharded output
    /// phase's fault treatment (late injected panics, wrong arity,
    /// placeholder labels for stateless nodes).
    pub fn output_nodes(&mut self, alg: &A, graph: &Graph, rounds: u32) {
        self.outputs = vec![Vec::new(); self.len];
        for local in 0..self.len {
            let i = self.start + local;
            let v = NodeId(i as u32);
            let degree = graph.degree(v) as usize;
            let Some(state) = self.states[local].as_ref() else {
                self.outputs[local] = vec![OutLabel(0); degree];
                continue;
            };
            let labels =
                if self.domain.plan().panics(i) && self.died[local].is_none() && rounds == 0 {
                    isolate(|| inject_panic(i as u64))
                } else {
                    isolate(|| alg.output(state))
                };
            self.outputs[local] = match labels {
                Ok(out) if out.len() == degree => out,
                Ok(out) => {
                    buffer_fault(
                        &mut self.f_out,
                        self.domain.events(),
                        i as u64,
                        rounds,
                        "wrong-arity",
                        format!("labeled {} ports of a degree-{degree} node", out.len()),
                    );
                    vec![OutLabel(0); degree]
                }
                Err(payload) => {
                    if self.died[local].is_none() {
                        buffer_fault(
                            &mut self.f_out,
                            self.domain.events(),
                            i as u64,
                            rounds,
                            "panic",
                            payload,
                        );
                    }
                    vec![OutLabel(0); degree]
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GuardedFlood;
    use lcl_graph::gen;

    type Routes = Vec<BTreeMap<usize, Vec<(u32, u8)>>>;
    type Positions = Vec<HashMap<(u32, u8), (usize, u32)>>;

    /// The coordinator-wide route scan the sharded executor used before
    /// routes were derived per shard: every shard's receive-side scan
    /// appends to its senders' routes, so each route is in the
    /// receiver's `(node, port)` order by construction.
    fn reference_routes(graph: &Graph, map: &ShardMap) -> (Routes, Positions) {
        let m = map.num_shards();
        let mut out_routes: Routes = (0..m).map(|_| BTreeMap::new()).collect();
        let mut halo_pos: Positions = (0..m).map(|_| HashMap::new()).collect();
        for (s, pos) in halo_pos.iter_mut().enumerate() {
            for i in map.range(s) {
                let v = NodeId(i as u32);
                for h in graph.half_edges_of(v) {
                    let twin = graph.twin(h);
                    let u = graph.node_of(twin);
                    let d = map.shard_of(u);
                    if d == s {
                        continue;
                    }
                    let q = graph.port_of(twin);
                    let route = out_routes[d].entry(s).or_default();
                    pos.insert((u.0, q), (d, route.len() as u32));
                    route.push((u.0, q));
                }
            }
        }
        (out_routes, halo_pos)
    }

    #[test]
    fn per_shard_routes_equal_the_coordinator_wide_scan() {
        let plan = FaultPlan::new(0);
        for (name, graph) in [
            ("path", gen::path(50)),
            ("caterpillar", gen::caterpillar(12, 2)),
            ("random_tree", gen::random_tree(60, 4, 7)),
        ] {
            for shards in [1usize, 2, 3, 8] {
                let map = ShardMap::new(graph.node_count(), shards);
                let (routes, positions) = reference_routes(&graph, &map);
                for s in 0..map.num_shards() {
                    let k: ShardKernel<GuardedFlood> =
                        ShardKernel::new(s, &map, &graph, &plan, &Budget::unlimited());
                    assert_eq!(k.out_routes, routes[s], "{name}: shards={shards} s={s}");
                    assert_eq!(k.halo_pos, positions[s], "{name}: shards={shards} s={s}");
                    let lens: BTreeMap<usize, u32> =
                        k.peers().map(|d| (d, routes[d][&s].len() as u32)).collect();
                    assert_eq!(k.halo_in, lens, "{name}: shards={shards} s={s}");
                }
            }
        }
    }

    #[test]
    fn inbound_batches_of_the_wrong_peer_or_length_are_rejected() {
        let graph = gen::path(10);
        let map = ShardMap::new(10, 3);
        let k: ShardKernel<GuardedFlood> =
            ShardKernel::new(1, &map, &graph, &FaultPlan::new(0), &Budget::unlimited());
        let ok: HaloInbox<u64> = [(0, vec![Some(1)]), (2, vec![None])].into();
        assert_eq!(k.check_inbox(&ok), Ok(()));
        assert_eq!(k.check_inbox(&BTreeMap::new()), Ok(()));
        for bad in [
            HaloInbox::from([(0, vec![])]),
            HaloInbox::from([(2, vec![Some(1), Some(2)])]),
            HaloInbox::from([(1, vec![Some(1)])]),
            HaloInbox::from([(7, vec![Some(1)])]),
        ] {
            assert!(k.check_inbox(&bad).is_err(), "{bad:?}");
        }
    }
}
