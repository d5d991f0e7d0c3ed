//! Sharded graph substrate with per-shard fault domains.
//!
//! This crate runs the synchronous LOCAL model over a partitioned
//! graph: a [`ShardMap`](lcl_graph::ShardMap) splits the node range
//! into contiguous shards, each shard is stepped as its own fault
//! domain ([`ShardDomain`]: private fault plan, budget, cancel token,
//! and event stream), and LOCAL rounds execute as boundary-exchange
//! supersteps over `std::sync::mpsc` channels. Each shard's state and
//! per-node fault rules live in one [`ShardKernel`], which both this
//! crate's executor and the `lcl_procshard` worker process step. The
//! executor ([`simulate_sharded_with`]) is bit-identical to the
//! single-image faulted executor for every plan without whole-shard
//! losses —
//! outcome, fault list, and event-log cost model all agree across
//! every shard count and runner thread count.
//!
//! On top of the substrate, whole-shard loss is a first-class fault:
//! `Fault::ShardCrash` kills a shard mid-superstep, the shard is
//! rebuilt from its superstep-start [`ShardSnapshot`] checkpoint, and
//! the damage — confined by construction to the healthy neighbors'
//! frontier nodes — is mended by [`repair_sharded`], which synthesizes
//! its repair reference by replaying a clean execution on a cone
//! around the violations instead of re-running the whole graph.
//!
//! The crate follows the repo's recovery lattice end to end: *retry*
//! (the rebuild replays the lost superstep), *resume* (healthy shards
//! never roll back), *repair* (cone-local mending), *degrade* (an
//! unplanned shard loss condemns only that shard's nodes).

pub mod domain;
pub mod flood;
pub mod kernel;
pub mod recovery;
pub mod run;
pub mod snapshot;

pub use domain::{ShardDomain, SHARD_EVENT_CAPACITY};
pub use flood::{FloodState, GuardedFlood};
pub use kernel::{HaloBatches, HaloInbox, ShardKernel};
pub use recovery::repair_sharded;
pub use run::simulate_sharded_with;
pub use snapshot::{ShardSnapshot, ShardSnapshotError, SHARD_SNAPSHOT_VERSION};
