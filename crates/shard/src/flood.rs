//! [`GuardedFlood`]: the flooding algorithm the sharded substrates are
//! tested, benchmarked and served with.

use lcl::OutLabel;
use lcl_local::{NodeInit, SyncAlgorithm};

/// Flood-max with a halt guard: a node floods the maximum id it has
/// seen for `k` rounds and ignores every message after its own round
/// counter reaches `k`, so its output is `1` exactly where its id is
/// the maximum within distance `k`. The guard makes it safe under
/// shard loss: a lagging frontier node extending the run cannot
/// corrupt finished nodes (an unguarded flood's monotone max would
/// keep absorbing stale beacons). `Msg = u64`.
pub struct GuardedFlood {
    /// Rounds each node floods before halting.
    pub k: u32,
}

/// Node state of [`GuardedFlood`].
#[derive(Clone)]
pub struct FloodState {
    best: u64,
    mine: u64,
    degree: usize,
    round: u32,
    k: u32,
}

impl SyncAlgorithm for GuardedFlood {
    type State = FloodState;
    type Msg = u64;

    fn init(&self, init: &NodeInit) -> FloodState {
        FloodState {
            best: init.id,
            mine: init.id,
            degree: init.degree as usize,
            round: 0,
            k: self.k,
        }
    }

    fn send(&self, state: &FloodState, _round: u32) -> Vec<u64> {
        vec![state.best; state.degree]
    }

    fn receive(&self, state: &mut FloodState, inbox: &[u64], _round: u32) {
        if state.round >= state.k {
            return;
        }
        for &msg in inbox {
            state.best = state.best.max(msg);
        }
        state.round += 1;
    }

    fn is_done(&self, state: &FloodState) -> bool {
        state.round >= state.k
    }

    fn output(&self, state: &FloodState) -> Vec<OutLabel> {
        vec![OutLabel(u32::from(state.best == state.mine)); state.degree]
    }

    fn name(&self) -> &str {
        "guarded-flood"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_graph::{gen, NodeId};

    #[test]
    fn guarded_flood_elects_the_max_id() {
        let g = gen::path(5);
        let input = lcl::uniform_input(&g);
        let ids = [3u64, 9, 1, 7, 5];
        let run = lcl_local::simulate_sync_with(
            &GuardedFlood { k: 4 },
            &g,
            &input,
            &ids,
            None,
            10,
            lcl_faults::RunOptions::new(),
        );
        assert!(run.outcome.faults.is_empty());
        // Only node 1 (id 9) labels itself the winner.
        let out = &run.outcome.outcome.output;
        let winners: Vec<u32> = (0..5u32)
            .map(|i| {
                g.half_edges_of(NodeId(i))
                    .map(|h| out.get(h).0)
                    .max()
                    .unwrap()
            })
            .collect();
        assert_eq!(winners, vec![0, 1, 0, 0, 0]);
    }
}
