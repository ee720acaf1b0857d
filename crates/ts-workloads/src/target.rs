//! The workload seam: one interface every driven object sits behind.
//!
//! The engine, the replayer and the bench grid drive timestamp objects
//! (and their consumers in `ts-apps`, the service in `ts-service`, the
//! replicated objects in `ts-replica`) under one interface, even though
//! their native APIs differ (one-shot vs long-lived, `pid` vs
//! `GetTsId`, locks vs timestamp sources, single stamps vs batches).
//!
//! - A [`WorkloadTarget`] is a shared, thread-safe object that mints
//!   per-thread workers and carries the report labels.
//! - A [`WorkloadWorker`] executes one operation at a time, the
//!   engine's unit of latency measurement. Operations come in three
//!   kinds ([`WorkloadOp`]): `GetTs` (the mutating call), `Scan` (a
//!   read-only observation pass) and `Compare` (the local comparison of
//!   two stamps, free of shared memory). A worker that cannot honor a
//!   kind substitutes `GetTs` and reports what actually ran, so op
//!   accounting stays truthful.
//! - Every issuing target's worker is the one generic [`Worker`] over a
//!   per-slot [`Client`]: the client issues stamps and observes, the
//!   worker owns everything else. That is the `Compare` operands
//!   (a two-deep history), the `Compare`→`GetTs` and `Scan`→`GetTs`
//!   substitutions, the op-start pause of gated replay, `last_ts`, and
//!   the per-client order check: where the target's [`Order`] is
//!   [`Order::Checked`], two non-overlapping calls by one client must
//!   return ordered stamps (the timestamp property), so every workload
//!   run is also a correctness probe.
//!
//! Only role workers that issue no stamps of their own (the storm
//! scanner and writers, the quorum crash adversary, the fallible
//! register clients) implement [`WorkloadWorker`] by hand.
//!
//! # Replay control
//!
//! Every worker supports [`WorkloadWorker::step_gated`], which
//! announces the op's sub-steps by pausing at a per-worker
//! [`StepGate`] that a controller releases one at a time (see
//! [`replay`](crate::replay)). Targets advertise how faithfully their
//! workers follow a recorded schedule via
//! [`WorkloadTarget::replay_granularity`].
//!
//! # Example
//!
//! ```
//! use ts_core::CollectMax;
//! use ts_workloads::{WorkloadOp, WorkloadTarget};
//!
//! let obj = CollectMax::new(2);
//! let mut worker = obj.worker(0);
//! // GetTs runs and self-checks the timestamp property; the first
//! // Compare lacks two operands and substitutes (and reports) GetTs.
//! assert_eq!(worker.step(WorkloadOp::GetTs), WorkloadOp::GetTs);
//! assert_eq!(worker.step(WorkloadOp::Compare), WorkloadOp::GetTs);
//! assert_eq!(worker.step(WorkloadOp::Compare), WorkloadOp::Compare);
//! assert_eq!(obj.calls(), 2);
//! ```

use std::fmt::Display;
use std::hint::black_box;

use ts_core::{ServiceStats, ShardedTimestamp, StepGate, Timestamp};

/// One kind of operation a workload worker can perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadOp {
    /// The mutating timestamp acquisition (for locks: one
    /// acquire/release cycle, whose doorway takes the timestamp).
    GetTs,
    /// A read-only observation pass over the object's registers.
    Scan,
    /// The local comparison of two previously obtained timestamps.
    Compare,
}

impl WorkloadOp {
    /// All operation kinds, in the canonical mix-weight order.
    pub const ALL: [WorkloadOp; 3] = [WorkloadOp::GetTs, WorkloadOp::Scan, WorkloadOp::Compare];

    /// Canonical index into mix-weight arrays.
    pub fn index(self) -> usize {
        match self {
            WorkloadOp::GetTs => 0,
            WorkloadOp::Scan => 1,
            WorkloadOp::Compare => 2,
        }
    }
}

/// Two-deep history of the stamps a worker obtained: the operands for
/// [`WorkloadOp::Compare`]. Until both exist, `Compare` substitutes a
/// `GetTs` op and reports what actually ran.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpHistory<T> {
    prev2: Option<T>,
    prev: Option<T>,
}

impl<T: Copy> OpHistory<T> {
    /// Empty history.
    pub(crate) fn new() -> Self {
        Self {
            prev2: None,
            prev: None,
        }
    }

    /// Records the newest value, shifting the previous one down.
    pub(crate) fn push(&mut self, value: T) {
        self.prev2 = self.prev;
        self.prev = Some(value);
    }

    /// The most recent value, if any.
    pub(crate) fn last(&self) -> Option<T> {
        self.prev
    }

    /// The `Compare` operands `(older, newer)` once two values exist;
    /// `None` means the worker must substitute `GetTs`.
    pub(crate) fn pair(&self) -> Option<(T, T)> {
        self.prev2.zip(self.prev)
    }
}

/// How faithfully a [`WorkloadTarget`]'s workers can follow a recorded
/// schedule (see [`WorkloadTarget::replay_granularity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayGranularity {
    /// One announced sub-step per operation (the op-start pause): a
    /// replay controller can sequence *operations* along the trace, but
    /// each op's shared-memory body runs without internal pauses at its
    /// invocation point. Reproduces the recorded invocation/response
    /// order; does not reproduce intra-op interleavings.
    Op,
    /// One announced sub-step per shared-memory access (plus the
    /// op-start pause): the controller serializes every register read
    /// and write in trace order, so the replay is fully deterministic —
    /// outputs must equal the model run's.
    MemoryAccess,
}

/// Per-thread execution handle minted by a [`WorkloadTarget`].
///
/// Workers are created on the thread that drives them and are not
/// required to be `Send`; all cross-thread sharing lives in the target.
pub trait WorkloadWorker {
    /// Performs one operation, returning the kind actually executed
    /// (a worker substitutes [`WorkloadOp::GetTs`] for kinds it cannot
    /// honor yet, e.g. `Compare` before two timestamps exist).
    fn step(&mut self, op: WorkloadOp) -> WorkloadOp;

    /// Performs one operation under step-barrier control: the worker
    /// pauses at `gate` once at op start and again before every further
    /// sub-step it announces (see its target's
    /// [`replay_granularity`](WorkloadTarget::replay_granularity)).
    ///
    /// The default implementation announces exactly one sub-step — the
    /// op-start pause — and then runs [`step`](WorkloadWorker::step)
    /// unpaused, which is the [`ReplayGranularity::Op`] contract.
    fn step_gated(&mut self, op: WorkloadOp, gate: &StepGate) -> WorkloadOp {
        gate.pause();
        self.step(op)
    }

    /// The timestamp produced by this worker's most recent successful
    /// `GetTs`, if the adapter tracks one. Replay controllers use it to
    /// check the timestamp property across workers; `None` opts out
    /// (order is still replayed, outputs are not checked).
    fn last_ts(&self) -> Option<Timestamp> {
        None
    }
}

/// An object the workload engine can drive: shared across threads,
/// minting one [`WorkloadWorker`] per driving thread (or per churn
/// life — a worker may be created and dropped many times per slot).
pub trait WorkloadTarget: Send + Sync {
    /// Object label for reports ("collect_max", "fcfs_lock", ...).
    fn object(&self) -> &'static str;

    /// Register-backend label for reports ("packed", "epoch").
    fn backend(&self) -> &'static str;

    /// Number of distinct worker slots the target supports
    /// (`usize::MAX` when unbounded). The engine drives slots
    /// `0..threads` and requires `threads <= slots()`.
    fn slots(&self) -> usize;

    /// Mints the worker for `slot`. At most one live worker per slot at
    /// a time (the engine guarantees this, including across churn
    /// lives).
    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a>;

    /// The sub-step granularity this target's workers announce through
    /// [`WorkloadWorker::step_gated`]. Defaults to
    /// [`ReplayGranularity::Op`]; targets whose objects expose phase
    /// hooks override with [`ReplayGranularity::MemoryAccess`].
    fn replay_granularity(&self) -> ReplayGranularity {
        ReplayGranularity::Op
    }

    /// A snapshot of the object's unified hot-path counters
    /// ([`ServiceStats`]), if it keeps any. Bench reports use this to
    /// print fast-hit / batch-fill / shard-imbalance ratios next to a
    /// cell's throughput. `None` (the default) means the object has no
    /// such counters, not that they are all zero.
    fn service_stats(&self) -> Option<ServiceStats> {
        None
    }
}

/// A value a [`Client`] issues: a timestamp, a sharded stamp, a lock
/// ticket or a cycle count.
pub trait Stamp: Copy + Display {
    /// Whether `self`, obtained first, is ordered before `later`: the
    /// relation the timestamp property promises for non-overlapping
    /// calls.
    fn precedes(&self, later: &Self) -> bool;

    /// The stamp as a replay output (see [`WorkloadWorker::last_ts`]).
    fn output(&self) -> Option<Timestamp> {
        None
    }
}

impl Stamp for Timestamp {
    fn precedes(&self, later: &Self) -> bool {
        Timestamp::compare(self, later)
    }

    fn output(&self) -> Option<Timestamp> {
        Some(*self)
    }
}

impl Stamp for ShardedTimestamp {
    fn precedes(&self, later: &Self) -> bool {
        ShardedTimestamp::compare(self, later)
    }
}

impl Stamp for u64 {
    fn precedes(&self, later: &Self) -> bool {
        self < later
    }
}

/// What a [`Worker`] may assume about the stamps its client issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Non-overlapping calls by one client are ordered: the worker
    /// asserts it on every `GetTs` and every `Compare`, and panics with
    /// the property message when it fails.
    Checked,
    /// No order is promised (k-exclusion cycle counts) or the object is
    /// seeded broken on purpose: the worker asserts nothing, and replay
    /// observes a violation instead of crashing on it.
    Unchecked,
    /// Stamps come from different objects (one-shot pools) and are
    /// mutually incomparable: nothing is asserted and `last_ts` is
    /// `None`, so replay checks order only.
    Incomparable,
}

/// One slot's view of an issuing object: what a [`Worker`] calls to
/// run `GetTs` and `Scan`.
pub trait Client {
    /// What one issue call returns.
    type Stamp: Stamp;

    /// Issues stamps; returns the first and the last (equal unless the
    /// call reserved a batch). A `pause` hook, when given, is called
    /// before every shared-memory access the object announces; clients
    /// of objects without phase hooks ignore it.
    fn issue(&mut self, pause: Option<&mut dyn FnMut()>) -> (Self::Stamp, Self::Stamp);

    /// Runs one read-only observation pass, or returns `false` when the
    /// object has none (the worker then substitutes `GetTs`).
    fn observe(&mut self) -> bool {
        false
    }
}

/// The one [`WorkloadWorker`] of every issuing target: a [`Client`]
/// plus the history, substitutions, pauses and order check the seam
/// promises (see the module docs).
#[derive(Debug)]
pub struct Worker<C: Client> {
    client: C,
    order: Order,
    label: &'static str,
    history: OpHistory<C::Stamp>,
}

impl<C: Client> Worker<C> {
    /// A worker over `client`; `label` names the object in the order
    /// check's panic message.
    pub fn new(label: &'static str, order: Order, client: C) -> Self {
        Self {
            client,
            order,
            label,
            history: OpHistory::new(),
        }
    }

    /// The worker boxed for [`WorkloadTarget::worker`].
    pub fn boxed<'a>(label: &'static str, order: Order, client: C) -> Box<dyn WorkloadWorker + 'a>
    where
        C: 'a,
    {
        Box::new(Self::new(label, order, client))
    }

    fn get_ts(&mut self, pause: Option<&mut dyn FnMut()>) -> WorkloadOp {
        let (first, last) = self.client.issue(pause);
        if let (Order::Checked, Some(prev)) = (self.order, self.history.last()) {
            assert!(
                prev.precedes(&first),
                "{} violated the timestamp property: {prev} !< {first}",
                self.label
            );
        }
        self.history.push(last);
        WorkloadOp::GetTs
    }
}

impl<C: Client> WorkloadWorker for Worker<C> {
    fn step(&mut self, op: WorkloadOp) -> WorkloadOp {
        match op {
            WorkloadOp::GetTs => self.get_ts(None),
            WorkloadOp::Scan if self.client.observe() => WorkloadOp::Scan,
            WorkloadOp::Scan => self.get_ts(None),
            WorkloadOp::Compare => match self.history.pair() {
                Some((a, b)) => {
                    let ordered = black_box(a.precedes(&b));
                    if self.order == Order::Checked {
                        assert!(ordered, "{} history out of order: {a} !< {b}", self.label);
                    }
                    WorkloadOp::Compare
                }
                None => self.get_ts(None),
            },
        }
    }

    fn step_gated(&mut self, op: WorkloadOp, gate: &StepGate) -> WorkloadOp {
        gate.pause(); // op start
        match op {
            WorkloadOp::GetTs => self.get_ts(Some(&mut || gate.pause())),
            other => self.step(other),
        }
    }

    fn last_ts(&self) -> Option<Timestamp> {
        match self.order {
            Order::Incomparable => None,
            _ => self.history.last()?.output(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Issues scripted stamps: the second is lower than the first.
    struct Backwards(std::vec::IntoIter<u64>);

    impl Client for Backwards {
        type Stamp = u64;

        fn issue(&mut self, _pause: Option<&mut dyn FnMut()>) -> (u64, u64) {
            let t = self.0.next().expect("scripted stamps");
            (t, t)
        }
    }

    fn backwards() -> Backwards {
        Backwards(vec![5, 3].into_iter())
    }

    #[test]
    #[should_panic(expected = "fake violated the timestamp property: 5 !< 3")]
    fn checked_worker_panics_on_a_backwards_stamp() {
        let mut w = Worker::new("fake", Order::Checked, backwards());
        w.step(WorkloadOp::GetTs);
        w.step(WorkloadOp::GetTs);
    }

    #[test]
    fn unchecked_worker_lets_a_backwards_stamp_through() {
        for order in [Order::Unchecked, Order::Incomparable] {
            let mut w = Worker::new("fake", order, backwards());
            assert_eq!(w.step(WorkloadOp::GetTs), WorkloadOp::GetTs);
            assert_eq!(w.step(WorkloadOp::GetTs), WorkloadOp::GetTs);
            assert_eq!(w.step(WorkloadOp::Compare), WorkloadOp::Compare);
        }
    }

    #[test]
    fn batches_are_checked_at_their_first_stamp_and_remembered_at_their_last() {
        // (1, 4) then (5, 8): ordered. (1, 4) then (3, 8) would not be.
        struct Batches(std::vec::IntoIter<(u64, u64)>);
        impl Client for Batches {
            type Stamp = u64;
            fn issue(&mut self, _pause: Option<&mut dyn FnMut()>) -> (u64, u64) {
                self.0.next().expect("scripted batches")
            }
        }
        let mut w = Worker::new(
            "fake",
            Order::Checked,
            Batches(vec![(1, 4), (5, 8)].into_iter()),
        );
        w.step(WorkloadOp::GetTs);
        w.step(WorkloadOp::GetTs);
        assert_eq!(w.history.pair(), Some((4, 8)));
        let mut w = Worker::new(
            "fake",
            Order::Checked,
            Batches(vec![(1, 4), (3, 8)].into_iter()),
        );
        w.step(WorkloadOp::GetTs);
        let overlap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.step(WorkloadOp::GetTs);
        }));
        assert!(
            overlap.is_err(),
            "a batch overlapping the last one is a violation"
        );
    }
}
