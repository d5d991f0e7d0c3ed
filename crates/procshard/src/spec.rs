//! Serializable job specifications for cross-process shard workers.
//!
//! A shard worker is a separate OS process: it cannot borrow the
//! supervisor's [`Graph`] or algorithm value, so a
//! proc-sharded run is described by a [`ProcJob`] — a closed, seedable
//! spec from which both sides reconstruct identical state. Graphs are
//! named generator calls ([`GraphSpec`]), algorithms are named catalog
//! entries ([`AlgSpec`]), and inputs are named constructions
//! ([`InputSpec`]); all three are deterministic, which is what makes
//! kill recovery replay-based (see [`crate::supervisor`]) and the
//! one-shard proc run bit-identical to the in-process executor.

use lcl::{HalfEdgeLabeling, InLabel};
use lcl_graph::{gen, Graph};

/// The guarded flood both substrates run, re-exported so job specs and
/// equivalence tests name the one algorithm the worker serves.
pub use lcl_shard::{FloodState, GuardedFlood};

/// A graph as a deterministic generator call, reconstructible in any
/// process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSpec {
    /// [`gen::path`]: a path on `n` nodes.
    Path {
        /// Node count.
        n: usize,
    },
    /// [`gen::random_tree`]: a seeded random tree.
    RandomTree {
        /// Node count.
        n: usize,
        /// Maximum degree.
        max_degree: u8,
        /// Generator seed.
        seed: u64,
    },
    /// [`gen::caterpillar`]: a spine with `legs` pendant nodes each.
    Caterpillar {
        /// Spine length.
        spine: usize,
        /// Legs per spine node.
        legs: usize,
    },
    /// [`gen::star`]: one hub with `leaves` pendant nodes.
    Star {
        /// Leaf count.
        leaves: usize,
    },
}

impl GraphSpec {
    /// Builds the graph this spec names. Both the supervisor and every
    /// worker call this with the same spec, so all processes hold the
    /// same port-numbered graph.
    pub fn build(&self) -> Graph {
        match *self {
            GraphSpec::Path { n } => gen::path(n),
            GraphSpec::RandomTree {
                n,
                max_degree,
                seed,
            } => gen::random_tree(n, max_degree, seed),
            GraphSpec::Caterpillar { spine, legs } => gen::caterpillar(spine, legs),
            GraphSpec::Star { leaves } => gen::star(leaves),
        }
    }
}

/// An algorithm as a catalog name plus parameter, reconstructible in
/// any process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgSpec {
    /// [`GuardedFlood`] with halt bound `k` (`Msg = u64`).
    GuardedFlood {
        /// Rounds each node floods before halting.
        k: u32,
    },
    /// The synthesized constant-round E1 pipeline: the worker runs
    /// `lcl_core::tree_speedup` on `lcl_problems::anti_matching(delta)`
    /// and executes the resulting lifted algorithm (`Msg = (u64, u32)`).
    AntiMatchingE1 {
        /// Degree bound of the anti-matching instance.
        delta: u8,
    },
}

/// An input labeling as a named construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InputSpec {
    /// [`lcl::uniform_input`]: every half-edge carries input label 0.
    Uniform,
}

impl InputSpec {
    /// Builds the input labeling for `graph`.
    pub fn build(&self, graph: &Graph) -> HalfEdgeLabeling<InLabel> {
        match self {
            InputSpec::Uniform => lcl::uniform_input(graph),
        }
    }
}

/// One cross-process sharded run: everything a worker needs to
/// reconstruct its shard of the computation, plus the round cap the
/// supervisor drives toward.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcJob {
    /// The graph, as a generator call.
    pub graph: GraphSpec,
    /// The algorithm, as a catalog name.
    pub alg: AlgSpec,
    /// The input labeling, as a named construction.
    pub input: InputSpec,
    /// Per-node identifiers (pre-permutation; the supervisor applies
    /// the fault plan's ID permutation exactly like the in-process
    /// executor before shipping ids to workers).
    pub ids: Vec<u64>,
    /// The announced `n` handed to [`NodeInit`](lcl_local::NodeInit), or `None` for the
    /// true node count.
    pub n_announced: Option<usize>,
    /// Round cap (further capped by the run budget's `max_rounds`).
    pub max_rounds: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_specs_build_deterministically() {
        let spec = GraphSpec::RandomTree {
            n: 32,
            max_degree: 3,
            seed: 9,
        };
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.node_count(), 32);
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(GraphSpec::Path { n: 5 }.build().edge_count(), 4);
        assert_eq!(GraphSpec::Star { leaves: 3 }.build().node_count(), 4);
        assert_eq!(
            GraphSpec::Caterpillar { spine: 4, legs: 1 }
                .build()
                .node_count(),
            8
        );
    }
}
