//! Workload scenario engine for the timestamp suite.
//!
//! The paper (Helmi–Higham–Pacheco–Woelfel, PODC 2011) studies
//! timestamp objects under *adversarial process behavior* — the
//! `ts-model` crate formalizes that as schedules chosen by an
//! adversary. This crate drives the **real concurrent objects** under
//! the operational analogues of those behaviors: bursty arrivals,
//! skewed operation mixes, and thread churn (workers exiting mid-run,
//! which exercises the epoch backend's orphan-garbage handoff).
//!
//! Five layers:
//!
//! - [`WorkloadTarget`] — the seam every driven object sits behind:
//!   one generic [`Worker`] over a per-slot [`Client`] serves every
//!   issuing target and checks the timestamp property per client
//!   ([`target`]); the targets for the `ts-core`, `ts-apps`,
//!   `ts-replica` and `ts-service` objects live in [`targets`],
//!   [`storm`], [`quorum`] and [`service`];
//! - [`LatencyHistogram`] — log-bucketed (HDR-style) latency recording,
//!   allocation-free on the hot path, with p50/p99/p999/max readouts
//!   and cross-thread merging;
//! - [`Scenario`] / [`catalog`] — traffic shapes: closed loop, open
//!   loop with bursty arrivals (latency measured from *scheduled*
//!   arrival, so there is no coordinated omission), Zipf-skewed op
//!   mixes, and churn;
//! - [`run_scenario`] — the engine: `N` threads drive any
//!   [`WorkloadTarget`] (timestamp objects from `ts-core`, lock
//!   consumers from `ts-apps`, on either register backend) and merge
//!   per-thread histograms into a [`ScenarioReport`]; [`run_scenario_with`] adds a fault
//!   [`Campaign`] (seeded crash/partition/stall schedules from the
//!   [`faults`] module, applied at deterministic op thresholds) and a
//!   liveness watchdog;
//! - [`replay`] — adversarial schedule replay: drives real objects
//!   along `ts-model` Explorer/PCT traces (including minimized
//!   counterexamples) with one OS thread per trace process, released
//!   step-by-step through the
//!   [`StepGate`](ts_core::StepGate) barrier.
//!
//! The `bench_workloads` binary in `ts-bench` sweeps the full
//! (object × backend × scenario × threads) grid and records the rows
//! in `BENCH_workloads.json`.
//!
//! # Example
//!
//! ```
//! use ts_core::CollectMax;
//! use ts_workloads::{run_scenario, Arrival, OpMix, RunConfig, Scenario};
//!
//! let target = CollectMax::new(2);
//! let scenario = Scenario {
//!     name: "quick_closed",
//!     arrival: Arrival::ClosedLoop,
//!     mix: OpMix::uniform(),
//!     churn: None,
//! };
//! let cfg = RunConfig { threads: 2, ops_per_thread: 100, seed: 1 };
//! let report = run_scenario(&target, &scenario, &cfg);
//! assert_eq!(report.counts.total(), 200);
//! assert_eq!(report.latency.count(), 200);
//! assert!(report.throughput_ops_per_sec > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod faults;
pub mod histogram;
pub mod quorum;
pub mod replay;
pub mod scenario;
pub mod service;
pub mod storm;
pub mod target;
pub mod targets;

pub use engine::{
    run_scenario, run_scenario_with, EngineOptions, OpCounts, RunConfig, ScenarioReport,
};
pub use faults::{AppliedFault, Campaign, CampaignShape, FaultEvent, FaultSchedule, TimedFault};
pub use histogram::{LatencyHistogram, NUM_BUCKETS, SUB_BUCKETS};
pub use quorum::{QuorumTsCrashTarget, QuorumTsTarget, ReplicatedTryRegisters};
pub use replay::{replay_trace, ReplayReport, ReplayViolation, ReplayedOp};
pub use scenario::{catalog, Arrival, Churn, OpMix, Scenario};
pub use service::ServiceTarget;
pub use storm::{HelpingScanWorkload, ScanMode};
pub use target::{
    Client, Order, ReplayGranularity, Stamp, Worker, WorkloadOp, WorkloadTarget, WorkloadWorker,
};
pub use targets::{CollectMaxFast, GrowableWorkload, OneShotFactory, OneShotPool, OneShotScan};
