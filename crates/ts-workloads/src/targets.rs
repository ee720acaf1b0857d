//! [`WorkloadTarget`]s for the paper's objects in `ts-core` and the
//! lock consumers in `ts-apps`. Each is a [`Client`] for the generic
//! [`Worker`] plus the target's labels and [`Order`].
//!
//! - [`CollectMax`] and [`CollectMaxFast`]: the long-lived baseline,
//!   replayed along its classic collect or its cached-max fast path.
//! - [`GrowableWorkload`]: the unbounded long-lived object; every
//!   worker life draws a fresh virtual process id.
//! - [`OneShotPool`]: any one-shot object made long-runnable by cycling
//!   pools of fresh objects.
//! - [`BrokenCounter`]: the replay harness's seeded-broken canary.
//! - [`FcfsLock`] and [`KExclusion`]: `GetTs` is one acquire/release
//!   cycle (the doorway takes the ticket), `Scan` a pass over the
//!   announcement array, `Compare` the local comparison of the last
//!   two tickets. FCFS tickets of non-overlapping cycles must increase;
//!   k-exclusion admits overtaking, so its cycle counts only measure
//!   cost.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ts_apps::{FcfsLock, KExclusion};
use ts_core::{
    ArrayLayout, BrokenCounter, CollectMax, GetTsError, GetTsId, GrowableTimestamp,
    LongLivedTimestamp, OneShotTimestamp, PackedBackend, RegisterBackend, ServiceStats, Timestamp,
    VpidAllocator,
};

use crate::target::{Client, Order, ReplayGranularity, Worker, WorkloadTarget, WorkloadWorker};

/// Report label for a backend × register-layout pair: the plain backend
/// name for the default padded layout, a `_unpadded` suffix for the
/// compact one (so padded-vs-unpadded cells are distinguishable in the
/// workload grid).
fn layout_label(backend: &'static str, layout: ArrayLayout) -> &'static str {
    match (backend, layout) {
        (_, ArrayLayout::Padded) => backend,
        ("packed", ArrayLayout::Compact) => "packed_unpadded",
        ("epoch", ArrayLayout::Compact) => "epoch_unpadded",
        (_, ArrayLayout::Compact) => "custom_unpadded",
    }
}

// ---------------------------------------------------------------------
// CollectMax, along either of its two gated paths.
// ---------------------------------------------------------------------

/// One slot of a [`CollectMax`]. Ungated it always runs `get_ts` (the
/// fast path); gated it announces the classic collect or, with `fast`,
/// the cached-max fast path.
struct CollectMaxClient<'a, B: RegisterBackend<u64>> {
    obj: &'a CollectMax<B>,
    slot: usize,
    fast: bool,
}

impl<B: RegisterBackend<u64>> Client for CollectMaxClient<'_, B> {
    type Stamp = Timestamp;

    fn issue(&mut self, pause: Option<&mut dyn FnMut()>) -> (Timestamp, Timestamp) {
        let t = match pause {
            None => self.obj.get_ts(self.slot),
            Some(pause) if self.fast => self.obj.get_ts_fast_paused(self.slot, pause),
            Some(pause) => self.obj.get_ts_paused(self.slot, pause),
        }
        .expect("slot < processes");
        (t, t)
    }

    fn observe(&mut self) -> bool {
        black_box(self.obj.read_max());
        true
    }
}

fn collect_max_worker<'a, B: RegisterBackend<u64>>(
    label: &'static str,
    obj: &'a CollectMax<B>,
    slot: usize,
    fast: bool,
) -> Box<dyn WorkloadWorker + 'a> {
    assert!(slot < obj.processes(), "slot {slot} out of range");
    Worker::boxed(label, Order::Checked, CollectMaxClient { obj, slot, fast })
}

impl<B: RegisterBackend<u64>> WorkloadTarget for CollectMax<B> {
    fn object(&self) -> &'static str {
        "collect_max"
    }

    fn backend(&self) -> &'static str {
        layout_label(B::NAME, self.layout())
    }

    fn slots(&self) -> usize {
        self.processes()
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        collect_max_worker("collect_max", self, slot, false)
    }

    fn replay_granularity(&self) -> ReplayGranularity {
        ReplayGranularity::MemoryAccess
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        Some(self.stats())
    }
}

/// [`CollectMax`] wrapped so that gated replay drives
/// [`CollectMax::get_ts_fast_paused`] — the cached-max fast path with
/// one announced sub-step per shared access — instead of the classic
/// collect path the bare `CollectMax` target announces.
///
/// Two targets exist because their announced access sequences differ
/// and each must match its own model twin: bare `CollectMax` ↔
/// `CollectMaxModel` (the checked-in pre-fast-path traces), this
/// wrapper ↔ `CollectMaxFastModel` (the fast-path regression traces).
/// Ungated stepping is identical in both (`get_ts` *is* the fast path).
#[derive(Debug)]
pub struct CollectMaxFast<B: RegisterBackend<u64> = PackedBackend>(CollectMax<B>);

impl<B: RegisterBackend<u64>> CollectMaxFast<B> {
    /// Wraps an object for fast-path-granular replay.
    pub fn new(processes: usize) -> Self {
        Self(CollectMax::with_backend(processes))
    }

    /// The wrapped object.
    pub fn inner(&self) -> &CollectMax<B> {
        &self.0
    }
}

impl<B: RegisterBackend<u64>> WorkloadTarget for CollectMaxFast<B> {
    fn object(&self) -> &'static str {
        "collect_max_fast"
    }

    fn backend(&self) -> &'static str {
        layout_label(B::NAME, self.0.layout())
    }

    fn slots(&self) -> usize {
        self.0.processes()
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        collect_max_worker("collect_max_fast", &self.0, slot, true)
    }

    fn replay_granularity(&self) -> ReplayGranularity {
        ReplayGranularity::MemoryAccess
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        Some(self.0.stats())
    }
}

// ---------------------------------------------------------------------
// GrowableTimestamp: workers draw unique virtual process ids so churn
// replacements never reuse a GetTsId.
// ---------------------------------------------------------------------

/// [`GrowableTimestamp`] wrapped for the workload engine: hands every
/// worker (including churn replacements) a fresh virtual process id
/// from a [`VpidAllocator`] so `GetTsId`s stay globally unique across
/// worker lives.
#[derive(Debug, Default)]
pub struct GrowableWorkload {
    inner: GrowableTimestamp,
    vpids: VpidAllocator,
}

impl GrowableWorkload {
    /// Creates an empty growable object ready for driving.
    pub fn new() -> Self {
        Self::default()
    }

    /// The wrapped object (for post-run space assertions).
    pub fn inner(&self) -> &GrowableTimestamp {
        &self.inner
    }
}

struct GrowableClient<'a> {
    obj: &'a GrowableTimestamp,
    vpid: u32,
    turn: u32,
}

impl Client for GrowableClient<'_> {
    type Stamp = Timestamp;

    fn issue(&mut self, _pause: Option<&mut dyn FnMut()>) -> (Timestamp, Timestamp) {
        let t = self.obj.get_ts_with_id(GetTsId::new(self.vpid, self.turn));
        self.turn += 1;
        (t, t)
    }

    fn observe(&mut self) -> bool {
        black_box(self.obj.probe_round());
        true
    }
}

impl WorkloadTarget for GrowableWorkload {
    fn object(&self) -> &'static str {
        "growable"
    }

    fn backend(&self) -> &'static str {
        // The growable object's segmented registers are epoch-reclaimed
        // `StampedRegister`s; there is no packed variant (its slots are
        // unbounded sequences).
        "epoch"
    }

    fn slots(&self) -> usize {
        usize::MAX
    }

    fn worker<'a>(&'a self, _slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        let client = GrowableClient {
            obj: &self.inner,
            vpid: self.vpids.next(),
            turn: 0,
        };
        Worker::boxed("growable", Order::Checked, client)
    }
}

// ---------------------------------------------------------------------
// One-shot objects: made long-runnable by cycling pools of fresh
// objects (each object serves each slot exactly once).
// ---------------------------------------------------------------------

/// Object factory for [`OneShotPool`].
pub type OneShotFactory<T> = Box<dyn Fn() -> T + Send + Sync>;

/// Optional read-only scan hook for [`OneShotPool`] (e.g.
/// [`SimpleOneShot::observed_sum`](ts_core::SimpleOneShot::observed_sum)).
pub type OneShotScan<T> = Box<dyn Fn(&T) + Send + Sync>;

struct PoolState<T> {
    generation: u64,
    objects: Arc<Vec<T>>,
    /// Per-slot progress through `objects`. Shared so a churn
    /// replacement resumes exactly where its predecessor (same slot)
    /// stopped instead of re-walking consumed objects. Only the slot's
    /// single live worker writes its entry (engine guarantee), so plain
    /// relaxed loads/stores suffice.
    cursors: Arc<Vec<AtomicUsize>>,
}

/// Drives any [`OneShotTimestamp`] continuously by cycling through a
/// pool of fresh objects: each worker takes its single timestamp from
/// each pooled object in order, and whichever worker exhausts the pool
/// first swaps in a new generation (laggards finish their old pool —
/// the `Arc` keeps it alive). Per-slot cursors live in the shared pool
/// state, so a churn replacement worker resumes where its predecessor
/// stopped instead of paying a re-walk over consumed objects.
///
/// Timestamps from *different* objects are incomparable, so unlike the
/// long-lived targets this one measures cost only
/// ([`Order::Incomparable`]); the one-shot ordering guarantees are
/// covered by the model checker and the `ts-bench` happens-before
/// harness instead.
pub struct OneShotPool<T> {
    object: &'static str,
    backend: &'static str,
    slots: usize,
    pool_size: usize,
    make: OneShotFactory<T>,
    scan: Option<OneShotScan<T>>,
    state: Mutex<PoolState<T>>,
}

impl<T: OneShotTimestamp> OneShotPool<T> {
    /// Creates a pool target serving `slots` worker slots with
    /// `pool_size` objects per generation; `make` must mint objects
    /// accepting pids `0..slots`.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or `pool_size == 0`.
    pub fn new(
        object: &'static str,
        backend: &'static str,
        slots: usize,
        pool_size: usize,
        make: OneShotFactory<T>,
    ) -> Self {
        assert!(slots > 0, "need at least one slot");
        assert!(pool_size > 0, "need at least one pooled object");
        let objects = Arc::new((0..pool_size).map(|_| make()).collect::<Vec<_>>());
        let cursors = Arc::new((0..slots).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        Self {
            object,
            backend,
            slots,
            pool_size,
            make,
            scan: None,
            state: Mutex::new(PoolState {
                generation: 0,
                objects,
                cursors,
            }),
        }
    }

    /// Installs a read-only scan hook; without one, `Scan` ops fall
    /// back to `GetTs`.
    pub fn with_scan(mut self, scan: OneShotScan<T>) -> Self {
        self.scan = Some(scan);
        self
    }

    fn refresh(&self, seen_generation: u64) -> PoolView<T> {
        let mut state = self.state.lock().expect("pool lock");
        if state.generation == seen_generation {
            state.objects = Arc::new((0..self.pool_size).map(|_| (self.make)()).collect());
            state.cursors = Arc::new((0..self.slots).map(|_| AtomicUsize::new(0)).collect());
            state.generation += 1;
        }
        PoolView::of(&state)
    }

    fn current(&self) -> PoolView<T> {
        PoolView::of(&self.state.lock().expect("pool lock"))
    }
}

/// A worker's snapshot of one pool generation.
struct PoolView<T> {
    generation: u64,
    objects: Arc<Vec<T>>,
    cursors: Arc<Vec<AtomicUsize>>,
}

impl<T> PoolView<T> {
    fn of(state: &PoolState<T>) -> Self {
        Self {
            generation: state.generation,
            objects: Arc::clone(&state.objects),
            cursors: Arc::clone(&state.cursors),
        }
    }
}

impl<T: OneShotTimestamp> std::fmt::Debug for OneShotPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OneShotPool")
            .field("object", &self.object)
            .field("slots", &self.slots)
            .field("pool_size", &self.pool_size)
            .finish()
    }
}

struct PoolClient<'a, T> {
    pool: &'a OneShotPool<T>,
    slot: usize,
    view: PoolView<T>,
}

impl<T: OneShotTimestamp> PoolClient<'_, T> {
    /// This slot's progress through the current generation (shared with
    /// churn successors; only this worker writes it while alive).
    fn cursor(&self) -> usize {
        self.view.cursors[self.slot].load(Ordering::Relaxed)
    }
}

impl<T: OneShotTimestamp> Client for PoolClient<'_, T> {
    type Stamp = Timestamp;

    fn issue(&mut self, _pause: Option<&mut dyn FnMut()>) -> (Timestamp, Timestamp) {
        loop {
            let cursor = self.cursor();
            if cursor >= self.view.objects.len() {
                self.view = self.pool.refresh(self.view.generation);
                continue;
            }
            self.view.cursors[self.slot].store(cursor + 1, Ordering::Relaxed);
            match self.view.objects[cursor].get_ts(self.slot) {
                Ok(t) => return (t, t),
                // Unreachable while the shared cursor is advanced only
                // by this slot's worker; kept as a safety net so a
                // bookkeeping bug degrades to a skip, not a panic.
                Err(GetTsError::AlreadyUsed { .. }) => continue,
                Err(e) => panic!("one-shot pool get_ts failed: {e}"),
            }
        }
    }

    fn observe(&mut self) -> bool {
        let Some(scan) = &self.pool.scan else {
            return false;
        };
        let idx = self.cursor().min(self.view.objects.len() - 1);
        scan(&self.view.objects[idx]);
        true
    }
}

impl<T: OneShotTimestamp> WorkloadTarget for OneShotPool<T> {
    fn object(&self) -> &'static str {
        self.object
    }

    fn backend(&self) -> &'static str {
        self.backend
    }

    fn slots(&self) -> usize {
        self.slots
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot < self.slots, "slot {slot} out of range");
        let client = PoolClient {
            pool: self,
            slot,
            view: self.current(),
        };
        Worker::boxed(self.object, Order::Incomparable, client)
    }
}

// ---------------------------------------------------------------------
// BrokenCounter: the replay harness's canary. Deliberately incorrect,
// so its worker does NOT assert the timestamp property — replay exists
// to *observe* the violation, not panic on it.
//
// Unlike the other one-shot objects (which the scenario engine drives
// through `OneShotPool`'s fresh-object cycling), this target is
// replay-only: each slot supports exactly ONE `GetTs`, mirroring its
// one-shot model twin (`ops_per_process = Some(1)`), and a second op
// panics with a clear message. Traces built from the twin can never
// request a second op per process (the model refuses to invoke one),
// so the panic is reachable only by driving this target outside the
// replay harness — wrap it in `OneShotPool` for scenario use instead.
// ---------------------------------------------------------------------

struct BrokenCounterClient<'a> {
    obj: &'a BrokenCounter,
    pid: usize,
}

impl Client for BrokenCounterClient<'_> {
    type Stamp = Timestamp;

    fn issue(&mut self, pause: Option<&mut dyn FnMut()>) -> (Timestamp, Timestamp) {
        let t = match pause {
            Some(pause) => self.obj.get_ts_paused(self.pid, pause),
            None => self.obj.get_ts_paused(self.pid, || {}),
        }
        .expect(
            "broken_counter is a replay-only one-shot target: each slot supports exactly \
             one GetTs (wrap it in OneShotPool for scenario-engine use)",
        );
        (t, t)
    }
}

impl WorkloadTarget for BrokenCounter {
    fn object(&self) -> &'static str {
        "broken_counter"
    }

    fn backend(&self) -> &'static str {
        // A bare `WordRegister`, not a pluggable backend.
        "word"
    }

    fn slots(&self) -> usize {
        OneShotTimestamp::processes(self)
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot < self.slots(), "slot {slot} out of range");
        let client = BrokenCounterClient {
            obj: self,
            pid: slot,
        };
        Worker::boxed("broken_counter", Order::Unchecked, client)
    }

    fn replay_granularity(&self) -> ReplayGranularity {
        ReplayGranularity::MemoryAccess
    }
}

// ---------------------------------------------------------------------
// The lock consumers of `ts-apps`.
// ---------------------------------------------------------------------

struct FcfsLockClient<'a, B: RegisterBackend<u64>> {
    lock: &'a FcfsLock<B>,
    slot: usize,
}

impl<B: RegisterBackend<u64>> Client for FcfsLockClient<'_, B> {
    type Stamp = u64;

    fn issue(&mut self, _pause: Option<&mut dyn FnMut()>) -> (u64, u64) {
        let guard = self.lock.lock(self.slot);
        let ticket = self.lock.ticket_of(self.slot);
        drop(guard);
        (ticket, ticket)
    }

    fn observe(&mut self) -> bool {
        for q in 0..self.lock.processes() {
            black_box(self.lock.ticket_of(q));
        }
        true
    }
}

impl<B: RegisterBackend<u64>> WorkloadTarget for FcfsLock<B> {
    fn object(&self) -> &'static str {
        "fcfs_lock"
    }

    fn backend(&self) -> &'static str {
        B::NAME
    }

    fn slots(&self) -> usize {
        self.processes()
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot < self.processes(), "slot {slot} out of range");
        let client = FcfsLockClient { lock: self, slot };
        Worker::boxed("fcfs_lock", Order::Checked, client)
    }
}

struct KExclusionClient<'a, B: RegisterBackend<u64>> {
    pool: &'a KExclusion<B>,
    slot: usize,
    /// Local cycle number (`active` is cleared on release, and
    /// k-exclusion admits overtaking, so no cross-cycle ticket order
    /// holds).
    cycles: u64,
}

impl<B: RegisterBackend<u64>> Client for KExclusionClient<'_, B> {
    type Stamp = u64;

    fn issue(&mut self, _pause: Option<&mut dyn FnMut()>) -> (u64, u64) {
        drop(self.pool.acquire(self.slot));
        self.cycles += 1;
        (self.cycles, self.cycles)
    }

    fn observe(&mut self) -> bool {
        black_box(self.pool.competing());
        true
    }
}

impl<B: RegisterBackend<u64>> WorkloadTarget for KExclusion<B> {
    fn object(&self) -> &'static str {
        "k_exclusion"
    }

    fn backend(&self) -> &'static str {
        B::NAME
    }

    fn slots(&self) -> usize {
        self.processes()
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot < self.processes(), "slot {slot} out of range");
        let client = KExclusionClient {
            pool: self,
            slot,
            cycles: 0,
        };
        Worker::boxed("k_exclusion", Order::Unchecked, client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_core::SimpleOneShot;

    fn simple_pool(slots: usize, pool_size: usize) -> OneShotPool<SimpleOneShot> {
        OneShotPool::new(
            "simple_oneshot",
            "packed",
            slots,
            pool_size,
            Box::new(move || SimpleOneShot::<PackedBackend>::with_backend(slots)),
        )
    }

    #[test]
    fn growable_workers_get_unique_vpids_across_lives() {
        let target = GrowableWorkload::new();
        for _life in 0..3 {
            let mut w = target.worker(0); // same slot, new life
            for _ in 0..5 {
                w.step(crate::WorkloadOp::GetTs);
            }
        }
        assert_eq!(target.inner().calls(), 15);
        assert_eq!(target.vpids.issued(), 3);
    }

    #[test]
    fn one_shot_pool_cycles_generations() {
        let pool = simple_pool(2, 4);
        let mut w = pool.worker(0);
        // 10 ops > pool_size forces at least one generation swap.
        for _ in 0..10 {
            assert_eq!(w.step(crate::WorkloadOp::GetTs), crate::WorkloadOp::GetTs);
        }
        assert!(
            pool.current().generation >= 2,
            "pool generation never advanced"
        );
    }

    #[test]
    fn one_shot_pool_replacement_worker_resumes_at_the_shared_cursor() {
        let pool = simple_pool(1, 8);
        {
            let mut w = pool.worker(0);
            for _ in 0..3 {
                w.step(crate::WorkloadOp::GetTs);
            }
        }
        // Replacement on the same slot resumes at object 3 — exactly 5
        // objects remain, consumed without triggering a refresh.
        assert_eq!(pool.current().cursors[0].load(Ordering::Relaxed), 3);
        let mut w = pool.worker(0);
        for _ in 0..5 {
            assert_eq!(w.step(crate::WorkloadOp::GetTs), crate::WorkloadOp::GetTs);
        }
        assert_eq!(
            pool.current().generation,
            0,
            "no refresh needed within one pool"
        );
        assert_eq!(pool.current().cursors[0].load(Ordering::Relaxed), 8);
    }

    #[test]
    fn kexclusion_guard_is_released_after_every_cycle() {
        let pool: KExclusion<PackedBackend> = KExclusion::new(3, 2);
        let mut w = pool.worker(1);
        for _ in 0..3 {
            w.step(crate::WorkloadOp::GetTs);
        }
        assert_eq!(pool.competing(), 0);
    }
}
