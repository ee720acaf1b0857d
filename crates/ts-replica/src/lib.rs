//! Quorum-replicated register backend over a fault-injecting modelled
//! network.
//!
//! The paper's algorithms are written against abstract atomic MWMR
//! registers; every backend so far realized them with hardware atomics
//! in one address space. This crate realizes them with **replication**:
//! a [`QuorumBackend`] register is `2f + 1` in-process
//! [`Replica`]s running the ABD majority protocol, every client's
//! messages flowing through its own lane of a seeded, fault-injecting
//! [`Router`] — delay, reorder, drop, duplicate, partition/heal — so
//! the same `CollectMax`
//! / `RegisterArray` / lock algorithms run unchanged on top of an
//! unreliable network, and their guarantees can be tested *under*
//! those faults.
//!
//! # Layers
//!
//! | module | what lives there |
//! |---|---|
//! | [`proto`] | [`WriteStamp`] `(seq, writer)` pairs, the flat [`Message`] envelope |
//! | [`net`] | [`Router`]: per-client lanes (in-flight queue, fault stream, op ids, quorum tallies), seeded [`FaultPlan`] knobs, partitions, the per-delivery step hook |
//! | [`replica`] | [`Replica`]: register-major `(stamp, word)` cells, one lock each, behind a lock-free chunked index; handlers, the armed monotonicity invariant |
//! | [`cluster`] | [`Cluster`]: ABD reads/writes, retransmission, counters summed over the client lanes, [`with_cluster`] scoping; [`QuorumTs`], the message-step timestamp object |
//! | [`backend`] | [`QuorumBackend`] / [`QuorumRegister`]: the [`RegisterBackend`](ts_register::RegisterBackend) seam; [`ReplicatedCollectMax`], a collect-max object bundled with its cluster |
//! | [`model`] | [`QuorumModel`] / [`QuorumMachine`]: the model twin (one register per replica, one step per message) |
//!
//! # The model ↔ real loop, now over messages
//!
//! The repo's loop — model-check an algorithm, minimize the violating
//! schedule, replay it against the real object under a step barrier —
//! extends to the network: [`QuorumModel`]'s steps are message
//! deliveries, so an explorer counterexample (e.g. the non-intersecting
//! write quorum of [`QuorumModel::broken`]) replays step-for-step
//! against real replicas through [`QuorumTs::get_ts_paused`], and the
//! router's [step hook](Router::set_step_hook) puts arbitrary cluster
//! traffic under the same [`StepGate`](ts_core::StepGate)
//! pacing.
//!
//! # Example
//!
//! ```
//! use ts_replica::{with_cluster, Cluster, ClusterConfig, FaultPlan, QuorumBackend};
//! use ts_core::{CollectMax, LongLivedTimestamp, Timestamp};
//!
//! // A lossy, reordering network, seeded for reproducibility.
//! let plan = FaultPlan { seed: 7, drop_permille: 100, delay_max: 3, reorder: true, ..FaultPlan::default() };
//! let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
//! let ts = with_cluster(&cluster, || CollectMax::<QuorumBackend>::with_backend(2));
//! let a = ts.get_ts(0).unwrap();
//! let b = ts.get_ts(1).unwrap();
//! assert!(Timestamp::compare(&a, &b), "still a correct timestamp object");
//! assert!(cluster.quorum_rounds() > 0, "every access ran the quorum protocol");
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod cluster;
pub mod model;
pub mod net;
pub mod proto;
pub mod replica;

pub use backend::{QuorumBackend, QuorumRegister, ReplicatedCollectMax};
pub use cluster::{
    with_cluster, Cluster, ClusterConfig, QuorumTs, RestartMode, Unavailable, DEFAULT_DEADLINE,
};
pub use model::{QuorumMachine, QuorumModel, BOT};
pub use net::{FaultPlan, NetStats, Router, StepHook};
pub use proto::{Message, MsgKind, WriteStamp};
pub use replica::Replica;
