//! Long-lived collect-max baseline (`n` SWMR registers) with a
//! cached-max fast path.
//!
//! The matching upper bound for Theorem 1.1 cited by the paper is the
//! `n−1`-register wait-free algorithm of Ellen, Fatourou and Ruppert
//! (Distributed Computing 2008). That construction lives in a different
//! paper; we substitute the folklore `n`-register algorithm with the same
//! asymptotics and progress guarantee (see DESIGN.md §5): every process
//! owns one single-writer register; `getTS()` collects all registers,
//! picks `max + 1`, writes it to its own register and returns it.
//!
//! Register contents are bounded counters, so the object defaults to the
//! word-inlined [`PackedBackend`] (one hardware atomic per register
//! operation). The packed value budget is 32 bits — comfortably more
//! than 4 × 10⁹ `getTS` calls; workloads beyond that should use
//! [`EpochCollectMax`].
//!
//! # The cached-max fast path
//!
//! The full collect costs `n` reads of `n` cache lines, most of them
//! freshly invalidated under write contention. This module keeps a
//! shared *cached maximum* — one padded `AtomicU64` — beside the
//! register array and gives [`CollectMax::get_ts`] a fallback ladder:
//!
//! 1. **fast path**: one `Acquire` load of the cache, then one CAS
//!    advancing it from `m` to `m + 1`; on success the process writes
//!    `m + 1` to its own register and returns it — three shared
//!    accesses total, independent of `n`;
//! 2. **validation failure** (the CAS lost a race): fall back to the
//!    classic full collect — seeded with the cache value the failed CAS
//!    observed — write `max + 1` to the own register, then publish it
//!    into the cache with a `fetch_max` retry chain.
//!
//! Correctness rests on four invariants, spelled out at
//! [`CollectMax::get_ts_fast_paused`]; the fast path is model-checked
//! by `ts_core::model::CollectMaxFastModel` (Explorer + PCT sweeps in
//! `tests/model_check.rs`) and replayed against this implementation
//! from the checked-in trace corpus.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use ts_register::{
    ArrayLayout, CachePadded, EpochBackend, PackedBackend, RegisterArray, RegisterBackend,
    SpaceMeter,
};

use crate::error::GetTsError;
use crate::stats::ServiceStats;
use crate::timestamp::Timestamp;
use crate::traits::LongLivedTimestamp;

/// A reservation of `k` consecutive timestamps from one
/// [`CollectMax::get_ts_batch`] call — an iterator yielding
/// `first..=last` as [`Timestamp`]s.
///
/// The whole range was reserved by a single successful CAS on the
/// cached maximum, so distinct batches (and fast-path singles) never
/// overlap; see `get_ts_batch` for the exact uniqueness contract.
#[derive(Debug, Clone)]
pub struct StampBatch {
    next: u64,
    last: u64,
}

impl StampBatch {
    fn new(first: u64, last: u64) -> Self {
        Self { next: first, last }
    }

    /// The smallest stamp in the batch (named to avoid shadowing
    /// [`Iterator::last`], which consumes the iterator).
    pub fn first_stamp(&self) -> Timestamp {
        Timestamp::scalar(self.next)
    }

    /// The largest stamp in the batch (what the issuer published to its
    /// register).
    pub fn last_stamp(&self) -> Timestamp {
        Timestamp::scalar(self.last)
    }

    /// Stamps remaining to be yielded.
    pub fn remaining(&self) -> usize {
        (self.last + 1 - self.next) as usize
    }
}

impl Iterator for StampBatch {
    type Item = Timestamp;

    fn next(&mut self) -> Option<Timestamp> {
        if self.next > self.last {
            return None;
        }
        let t = Timestamp::scalar(self.next);
        self.next += 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for StampBatch {}

/// Long-lived timestamp object over `n` single-writer registers, generic
/// over the register storage backend.
///
/// Wait-free; timestamps are scalars ordered by `<`. If two concurrent
/// calls return equal values the object is still correct: the timestamp
/// property only constrains non-overlapping calls, and a call that starts
/// after another finishes always observes its effect and returns a
/// strictly larger value.
///
/// `get_ts` serves most calls from the cached-max fast path (one load +
/// one CAS instead of an `n`-read collect — see the module docs);
/// [`CollectMax::fast_path_hits`] reports how often.
///
/// # Example
///
/// ```
/// use ts_core::{CollectMax, LongLivedTimestamp, Timestamp};
///
/// let ts = CollectMax::new(4);
/// let a = ts.get_ts(0).unwrap();
/// let b = ts.get_ts(0).unwrap(); // long-lived: same process again
/// assert!(Timestamp::compare(&a, &b));
/// assert!(ts.fast_path_hits() >= 1);
/// ```
pub struct CollectMax<B: RegisterBackend<u64> = PackedBackend> {
    /// One SWMR register per process, padded by default (each register
    /// has exactly one writer, the textbook false-sharing victim).
    /// Held in a [`RegisterArray`], so every register write feeds its
    /// block dirty word and [`read_max_scan`](CollectMax::read_max_scan)
    /// can ride the same validated-collect ladder as the `ts-snapshot`
    /// scan. Every `n`-register collect here is one metered sweep.
    registers: RegisterArray<u64, B>,
    /// Cached maximum: `>=` the value of every *completed* `getTS`
    /// call, advanced only by CAS/fetch-max (hence monotone). Padded so
    /// fast-path CASes never share a line with any register.
    cached_max: CachePadded<AtomicU64>,
    /// The registers' meter. Every call path writes the caller's
    /// register exactly once, so its total writes *are* the call count.
    meter: SpaceMeter,
    /// Calls that did not take the fast path: slow-path collects,
    /// classic [`get_ts_paused`](CollectMax::get_ts_paused) calls and
    /// batch reservations whose first CAS lost. The fast path itself
    /// bumps no shared counter.
    misses: AtomicU64,
    batches: AtomicU64,
    batched_stamps: AtomicU64,
    scan_recollects: AtomicU64,
}

/// [`CollectMax`] over epoch-reclaimed heap-cell registers — same
/// algorithm, heavier substrate; supports counters beyond the packed
/// 32-bit budget and anchors the `bench_contention` comparison.
pub type EpochCollectMax = CollectMax<EpochBackend>;

impl CollectMax<PackedBackend> {
    /// Creates an object for `processes` processes using `n` word-inlined
    /// registers (the default backend), cache-line padded.
    ///
    /// # Panics
    ///
    /// Panics if `processes == 0`.
    pub fn new(processes: usize) -> Self {
        Self::with_backend(processes)
    }
}

impl<B: RegisterBackend<u64>> CollectMax<B> {
    /// Creates an object for `processes` processes using `n` registers on
    /// the backend `B`, in the default padded layout.
    ///
    /// # Panics
    ///
    /// Panics if `processes == 0`.
    pub fn with_backend(processes: usize) -> Self {
        Self::with_layout(processes, ArrayLayout::Padded)
    }

    /// Creates an object with an explicit register [`ArrayLayout`]
    /// (compact exists for the padded-vs-unpadded contention
    /// comparison in `ts-workloads`/`ts-bench`).
    ///
    /// # Panics
    ///
    /// Panics if `processes == 0`.
    pub fn with_layout(processes: usize, layout: ArrayLayout) -> Self {
        assert!(processes > 0, "need at least one process");
        let meter = SpaceMeter::new(processes);
        Self {
            // The array meters its own register traffic, so the
            // explicit record_* calls of the pre-array implementation
            // are gone from the getTS paths.
            registers: RegisterArray::with_layout_and_meter(processes, 0, layout, meter.clone()),
            cached_max: CachePadded::new(AtomicU64::new(0)),
            meter,
            misses: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_stamps: AtomicU64::new(0),
            scan_recollects: AtomicU64::new(0),
        }
    }

    /// The register memory layout this object was built with.
    pub fn layout(&self) -> ArrayLayout {
        self.registers.layout()
    }

    fn register_count(&self) -> usize {
        self.registers.capacity()
    }

    /// Max of `floor` and every register, read as one metered sweep
    /// with `pause` before each register read.
    fn collect_max(&self, floor: u64, pause: impl FnMut()) -> u64 {
        let mut max = floor;
        self.registers
            .for_each_value(0..self.register_count(), pause, |_, v| max = max.max(v));
        max
    }

    fn write_register(&self, index: usize, value: u64) {
        self.registers.write(index, value).expect("index in range");
    }

    /// The meter recording this object's register traffic (the cached
    /// maximum is auxiliary state, not one of the `n` registers, so its
    /// accesses are not metered).
    pub fn meter(&self) -> &SpaceMeter {
        &self.meter
    }

    /// Total `getTS` calls served so far (batches included): the
    /// meter's total register writes, since every call writes its own
    /// register exactly once.
    pub fn calls(&self) -> u64 {
        self.meter.snapshot().total_writes()
    }

    /// `getTS` calls served by the cached-max fast path (one load + one
    /// CAS, no collect). `calls() - fast_path_hits()` took the full
    /// collect fallback.
    pub fn fast_path_hits(&self) -> u64 {
        self.calls()
            .saturating_sub(self.misses.load(Ordering::Relaxed))
    }

    /// Unified hot-path counter snapshot ([`ServiceStats`]): calls,
    /// stamps, fast hits and batch fill in one struct, so reports show
    /// *ratios* instead of opaque throughput; `shard_stamps` is the
    /// single-shard vector.
    pub fn stats(&self) -> ServiceStats {
        let calls = self.calls();
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_stamps.load(Ordering::Relaxed);
        // Non-batch calls issue one stamp each (saturating: a racing
        // snapshot may observe a call's batch or miss bump before its
        // register write — the counters are Relaxed by design).
        let stamps = calls.saturating_sub(batches) + batched;
        ServiceStats {
            calls,
            stamps,
            fast_hits: calls.saturating_sub(self.misses.load(Ordering::Relaxed)),
            batches,
            batched_stamps: batched,
            shard_stamps: vec![stamps],
            dirty_recollects: self.scan_recollects.load(Ordering::Relaxed),
            ..Default::default()
        }
    }

    /// Reserves `k` **consecutive** timestamps with a single successful
    /// CAS on the cached maximum — the batched `getTS` amortization:
    /// one atomic RMW (plus one register write) hands out `k` stamps,
    /// so the per-stamp contention cost shrinks by `k`.
    ///
    /// The call CAS-loops `m -> m + k` on the cached maximum (the loop
    /// is the only retry — there is no collect fallback on this path),
    /// then writes `m + k` to the caller's register and returns the
    /// batch `m+1 ..= m+k`.
    ///
    /// # Uniqueness and ordering
    ///
    /// Every reservation wins its interval `(m, m+k]` with a CAS from
    /// `m`: no two successful CASes share a starting value, and the
    /// cache is monotone (I1), so intervals from *all* batch calls and
    /// all fast-path singles are pairwise disjoint — the stamps they
    /// issue are globally unique, not merely ordered. Only the
    /// collect fallback of [`get_ts`](LongLivedTimestamp::get_ts) (and
    /// the replay-only classic path) can duplicate a concurrent
    /// reservation's value, exactly as two concurrent collect calls
    /// could before; the timestamp property is indifferent to it.
    ///
    /// The invariants I1–I4 of
    /// [`get_ts_fast_paused`](Self::get_ts_fast_paused) carry over with
    /// `k` in place of 1: completion publishes (the winning CAS itself
    /// made the cache `>= m+k`, I2), the register covers the batch top
    /// (I3; the write is monotone because the reservation base `m` is
    /// at least the cache value this process's previous call
    /// published), so a `getTS` starting after this call returns
    /// strictly more than `m + k` — every stamp in the batch is
    /// ordered before it.
    ///
    /// # Errors
    ///
    /// [`GetTsError::PidOutOfRange`] if `pid >= processes`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (an empty reservation is a caller bug).
    pub fn get_ts_batch(&self, pid: usize, k: u32) -> Result<StampBatch, GetTsError> {
        let n = self.register_count();
        if pid >= n {
            return Err(GetTsError::PidOutOfRange { pid, processes: n });
        }
        assert!(k >= 1, "batch reservation needs k >= 1");
        let k = u64::from(k);
        let mut m = self.cached_max.load(Ordering::Acquire);
        let mut first_attempt = true;
        loop {
            match self
                .cached_max
                .compare_exchange(m, m + k, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(now) => {
                    m = now;
                    first_attempt = false;
                }
            }
        }
        self.write_register(pid, m + k);
        if !first_attempt {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if k > 1 {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.batched_stamps.fetch_add(k, Ordering::Relaxed);
        }
        Ok(StampBatch::new(m + 1, m + k))
    }

    /// `getTS` along the **classic collect path** with a pause hook:
    /// `pause` runs immediately before every announced shared-memory
    /// access (each of the `n` register reads, then the write of the
    /// process's own register).
    ///
    /// This is the step-barrier seam of the schedule-replay harness: a
    /// controller whose `pause` blocks on a
    /// [`StepGate`](crate::StepGate) can hold this call
    /// between any two accesses — e.g. keep the final write pending
    /// while other processes complete, the paper's stalled-writer
    /// adversary. With a no-op hook this is the collect fallback of
    /// `get_ts` (the closure inlines away). Its model twin is
    /// `ts_core::model::CollectMaxModel`, and the checked-in trace
    /// corpus depends on its announced-access sequence staying exactly
    /// `n` reads + 1 write.
    ///
    /// One access is deliberately *not* announced: after the own-register
    /// write, the call publishes its value into the cached maximum with
    /// a silent `fetch_max`. The cache never feeds back into this path
    /// (it is read only by the fast path), so the silent access cannot
    /// change any announced access's observation or this call's output —
    /// announcing it would desynchronize every pre-fast-path trace for
    /// no replay fidelity gain. It must happen, though: a later
    /// *fast-path* call is entitled to see this call's value in the
    /// cache (invariant I2 below).
    ///
    /// # Errors
    ///
    /// [`GetTsError::PidOutOfRange`] if `pid >= processes`.
    pub fn get_ts_paused(
        &self,
        pid: usize,
        mut pause: impl FnMut(),
    ) -> Result<Timestamp, GetTsError> {
        let n = self.register_count();
        if pid >= n {
            return Err(GetTsError::PidOutOfRange { pid, processes: n });
        }
        let t = self.collect_max(0, &mut pause) + 1;
        pause();
        self.write_register(pid, t);
        // Silent cache publication (see above): not an announced
        // sub-step, but required so fast-path readers observe this
        // call's value once it completes.
        self.cached_max.fetch_max(t, Ordering::AcqRel);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(Timestamp::scalar(t))
    }

    /// `getTS` along the **cached-max fast path** (what
    /// [`get_ts`](LongLivedTimestamp::get_ts) runs), with a pause hook
    /// before every shared-memory access — the replay seam for the fast
    /// path's model twin, `ts_core::model::CollectMaxFastModel`.
    ///
    /// Access sequence (each preceded by one `pause()`):
    /// cache load; cache CAS; then either the own-register write (CAS
    /// succeeded) or the `n`-read collect, the own-register write, and
    /// the fetch-max retry chain (one cache load, then one CAS per
    /// retry).
    ///
    /// # Why the fast path never returns a stale max
    ///
    /// Four invariants carry the timestamp property across both paths:
    ///
    /// - **I1 (monotone cache)**: the cached maximum is only ever
    ///   advanced — by the fast path's `CAS(m → m+1)` and the slow
    ///   path's `fetch_max` — so its value never decreases.
    /// - **I2 (completion publishes)**: every call that returns `t`
    ///   made the cache `>= t` before returning (the fast path's own
    ///   successful CAS; the slow path's fetch-max chain, which only
    ///   stops once the cache is `>= t`).
    /// - **I3 (registers cover completions)**: every call that returns
    ///   `t` wrote `t` to its own register before returning, and each
    ///   process's register values are strictly increasing (both paths
    ///   return values strictly above the process's previous value, by
    ///   I1/I2 for the fast path and by the collect including the own
    ///   register for the slow path).
    /// - **I4 (cache observations are floors)**: the slow path seeds
    ///   its collect with the cache value its failed CAS observed, so
    ///   a call along *either* branch returns strictly more than any
    ///   cache value it observed — which is what makes
    ///   [`read_max`](Self::read_max) a sound lower bound even while
    ///   the cache transiently exceeds every register (a fast-path
    ///   call parked between its CAS and its register write).
    ///
    /// If call `A` (returning `t_A`) completes before call `B` begins:
    /// a fast-path `B` loads the cache after `A` made it `>= t_A` (I1,
    /// I2) and returns at least `t_A + 1`; a slow-path or classic
    /// [`get_ts_paused`](Self::get_ts_paused) `B` collects `A`'s
    /// register, which still holds
    /// `>= t_A` (I3), and returns at least `t_A + 1`. Overlapping calls
    /// are unconstrained by the timestamp property, exactly as in the
    /// collect-only algorithm.
    ///
    /// # Errors
    ///
    /// [`GetTsError::PidOutOfRange`] if `pid >= processes`.
    pub fn get_ts_fast_paused(
        &self,
        pid: usize,
        mut pause: impl FnMut(),
    ) -> Result<Timestamp, GetTsError> {
        let n = self.register_count();
        if pid >= n {
            return Err(GetTsError::PidOutOfRange { pid, processes: n });
        }
        pause();
        let m = self.cached_max.load(Ordering::Acquire);
        let t = m + 1;
        pause();
        let observed =
            match self
                .cached_max
                .compare_exchange(m, t, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // Fast path: we advanced the cache m -> m+1 ourselves,
                    // so t is fresh. Publish it in our register for
                    // collectors (I3).
                    pause();
                    self.write_register(pid, t);
                    return Ok(Timestamp::scalar(t));
                }
                Err(now) => now,
            };
        // Validation failed — someone advanced the cache under us. Fall
        // back to the classic collect, seeded with the cache value the
        // failed CAS observed (I4: the cache can transiently exceed
        // every register, and folding it in keeps every observed cache
        // value a floor for later outputs), then publish into the cache
        // (I2) with a CAS retry chain (fetch_max spelled out so every
        // access has a pause point).
        let t = self.collect_max(observed, &mut pause) + 1;
        pause();
        self.write_register(pid, t);
        pause();
        let mut cur = self.cached_max.load(Ordering::Acquire);
        while cur < t {
            pause();
            match self
                .cached_max
                .compare_exchange(cur, t, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(Timestamp::scalar(t))
    }

    /// Read-only observation: the cached maximum, as a timestamp, from
    /// a single `Acquire` load.
    ///
    /// Contract (invariants I1/I2/I4 of
    /// [`get_ts_fast_paused`](Self::get_ts_fast_paused)): the result is
    /// monotone across reads, `>=` the value of every `get_ts` call
    /// completed before the read, and a strict lower bound on every
    /// timestamp a *later* [`get_ts`](LongLivedTimestamp::get_ts) call
    /// can return — both its branches start from a cache observation at
    /// least this large. One documented exemption: the replay-only
    /// classic path [`get_ts_paused`](Self::get_ts_paused) collects
    /// registers without consulting the cache (its announced-access
    /// sequence is pinned by the trace corpus), so while the cache runs
    /// ahead of the registers — fast-path callers parked between their
    /// CAS and their register write — a concurrent-with-them classic
    /// call may return less than an earlier `read_max`. Completed calls
    /// are always covered, on every path.
    pub fn read_max(&self) -> Timestamp {
        Timestamp::scalar(self.cached_max.load(Ordering::Acquire))
    }

    /// Read-only full collect: the maximum value currently in any
    /// register, without consulting the cache. Costs `n` metered reads
    /// (one sweep); kept for diagnostics and for benchmarking against
    /// [`read_max`](Self::read_max).
    pub fn read_max_collect(&self) -> Timestamp {
        Timestamp::scalar(self.collect_max(0, || {}))
    }

    /// Read-only **validated** collect: the maximum value in a
    /// linearizable view of the register bank, obtained through the
    /// adaptive scan ladder of `ts-snapshot` (summary short-circuit,
    /// then dirty-block recollect passes). Unlike
    /// [`read_max_collect`](Self::read_max_collect), whose sweep can
    /// interleave with writes and mix values from different instants,
    /// the view this max is taken from was simultaneously present.
    ///
    /// Dirty-block retry passes are counted into the
    /// `dirty_recollects` field of [`stats`](Self::stats).
    pub fn read_max_scan(&self) -> Timestamp {
        let (view, outcome) = ts_snapshot::adaptive_scan(&self.registers);
        self.scan_recollects
            .fetch_add(outcome.recollect_passes, Ordering::Relaxed);
        Timestamp::scalar(view.entries().iter().map(|s| s.value).max().unwrap_or(0))
    }
}

impl<B: RegisterBackend<u64>> LongLivedTimestamp for CollectMax<B> {
    fn get_ts(&self, pid: usize) -> Result<Timestamp, GetTsError> {
        self.get_ts_fast_paused(pid, || {})
    }

    fn processes(&self) -> usize {
        self.register_count()
    }

    fn registers(&self) -> usize {
        self.register_count()
    }
}

impl<B: RegisterBackend<u64>> fmt::Debug for CollectMax<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CollectMax")
            .field("processes", &self.register_count())
            .field("layout", &self.layout())
            .field("calls", &self.calls())
            .field("fast_path_hits", &self.fast_path_hits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_calls_increase() {
        let ts = CollectMax::new(3);
        let mut last = Timestamp::scalar(0);
        for round in 0..5 {
            for p in 0..3 {
                let t = ts.get_ts(p).unwrap();
                assert!(
                    Timestamp::compare(&last, &t),
                    "round {round} p{p}: {last} !< {t}"
                );
                last = t;
            }
        }
        assert_eq!(ts.calls(), 15);
        // Solo, every CAS succeeds: all 15 calls take the fast path.
        assert_eq!(ts.fast_path_hits(), 15);
    }

    #[test]
    fn epoch_backend_behaves_identically_sequentially() {
        let ts = EpochCollectMax::with_backend(3);
        let mut last = Timestamp::scalar(0);
        for p in [0usize, 1, 2, 0, 1, 2] {
            let t = ts.get_ts(p).unwrap();
            assert!(Timestamp::compare(&last, &t));
            last = t;
        }
        assert_eq!(ts.calls(), 6);
    }

    #[test]
    fn compact_layout_behaves_identically() {
        let ts = CollectMax::<PackedBackend>::with_layout(2, ArrayLayout::Compact);
        assert_eq!(ts.layout(), ArrayLayout::Compact);
        let a = ts.get_ts(0).unwrap();
        let b = ts.get_ts(1).unwrap();
        assert!(Timestamp::compare(&a, &b));
    }

    #[test]
    fn same_process_repeats_fine() {
        let ts = CollectMax::new(1);
        let a = ts.get_ts(0).unwrap();
        let b = ts.get_ts(0).unwrap();
        assert!(Timestamp::compare(&a, &b));
    }

    #[test]
    fn out_of_range_pid_is_rejected() {
        let ts = CollectMax::new(2);
        assert!(ts.get_ts(2).is_err());
        assert!(ts.get_ts_paused(2, || {}).is_err());
        assert!(ts.get_ts_fast_paused(2, || {}).is_err());
    }

    #[test]
    fn uses_exactly_n_registers() {
        let ts = CollectMax::new(5);
        for p in 0..5 {
            ts.get_ts(p).unwrap();
        }
        assert_eq!(ts.meter().snapshot().registers_written(), 5);
    }

    #[test]
    fn classic_path_still_orders_and_feeds_the_fast_path() {
        let ts = CollectMax::new(2);
        // Classic collect path completes with 3...
        let a = ts.get_ts_paused(0, || {}).unwrap();
        let b = ts.get_ts_paused(1, || {}).unwrap();
        // ...and the silent fetch_max must make the fast path see it.
        let c = ts.get_ts(0).unwrap();
        assert!(Timestamp::compare(&a, &b));
        assert!(
            Timestamp::compare(&b, &c),
            "fast path returned a max stale against the classic path: {b} !< {c}"
        );
        assert_eq!(ts.read_max(), c);
    }

    #[test]
    fn read_max_covers_every_completed_call() {
        let ts = CollectMax::new(3);
        let mut top = Timestamp::scalar(0);
        for p in [0usize, 2, 1, 0] {
            top = ts.get_ts(p).unwrap();
            let seen = ts.read_max();
            assert!(
                !Timestamp::compare(&seen, &top),
                "read_max {seen} fell below completed call {top}"
            );
        }
        assert_eq!(ts.read_max_collect(), top);
        assert_eq!(ts.read_max(), top);
    }

    #[test]
    fn fast_paused_announces_the_documented_access_sequence() {
        let ts = CollectMax::new(2);
        let mut pauses = 0u32;
        let t = ts.get_ts_fast_paused(0, || pauses += 1).unwrap();
        assert_eq!(t, Timestamp::scalar(1));
        // Solo fast path: cache load, CAS, own write.
        assert_eq!(pauses, 3);
        assert_eq!(ts.fast_path_hits(), 1);
    }

    #[test]
    fn counters_split_calls_into_fast_hits_and_misses() {
        let n = 3;
        let ts = CollectMax::new(n);
        let counts = |ts: &CollectMax| (ts.calls(), ts.fast_path_hits());
        let reads = |ts: &CollectMax| ts.meter().snapshot().total_reads();

        // Fast path: a call and a hit, no register read.
        ts.get_ts(0).unwrap();
        assert_eq!(counts(&ts), (1, 1));
        assert_eq!(reads(&ts), 0);

        // Classic path: a call and a miss, one n-register sweep.
        ts.get_ts_paused(1, || {}).unwrap();
        assert_eq!(counts(&ts), (2, 1));
        assert_eq!(reads(&ts), n as u64);

        // Forced slow path: before this call's CAS (its second pause),
        // another process advances the cache, so the CAS loses and the
        // call falls back to the collect.
        let mut pauses = 0;
        let t = ts
            .get_ts_fast_paused(2, || {
                pauses += 1;
                if pauses == 2 {
                    ts.get_ts(0).unwrap();
                }
            })
            .unwrap();
        assert_eq!(t, Timestamp::scalar(4));
        assert_eq!(counts(&ts), (4, 2), "the nested call hit, the outer missed");
        assert_eq!(reads(&ts), 2 * n as u64);
        assert_eq!(ts.meter().snapshot().reads, vec![2; n]);

        // Batches: a first-attempt CAS is a hit; each batch is one call.
        ts.get_ts_batch(1, 4).unwrap();
        assert_eq!(counts(&ts), (5, 3));
        let stats = ts.stats();
        assert_eq!(stats.calls, 5);
        assert_eq!(stats.fast_hits, 3);
        assert_eq!(stats.stamps, 8);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_stamps, 4);

        // read_max_collect is one more sweep and no call.
        assert_eq!(ts.read_max_collect(), Timestamp::scalar(8));
        assert_eq!(ts.meter().snapshot().reads, vec![3; n]);
        assert_eq!(ts.calls(), 5);

        // Contended: losing CASes (batch retries, slow paths) are
        // misses, and the split stays exact after join.
        let ts = CollectMax::new(2);
        crossbeam::scope(|s| {
            for p in 0..2 {
                let ts = &ts;
                s.spawn(move |_| {
                    for i in 0..500 {
                        if i % 2 == 0 {
                            ts.get_ts_batch(p, 3).unwrap();
                        } else {
                            ts.get_ts(p).unwrap();
                        }
                    }
                });
            }
        })
        .unwrap();
        let stats = ts.stats();
        assert_eq!(stats.calls, 1000);
        assert_eq!(stats.stamps, 500 * 3 + 500);
        assert_eq!(
            stats.fast_hits + ts.misses.load(Ordering::Relaxed),
            stats.calls
        );
    }

    #[test]
    fn barrier_separated_rounds_are_ordered_across_threads() {
        fn run<B: RegisterBackend<u64>>() {
            let n = 8;
            let ts = Arc::new(CollectMax::<B>::with_backend(n));
            let mut round_maxima = Vec::new();
            for _round in 0..4 {
                let outs: Vec<Timestamp> = crossbeam::scope(|s| {
                    let handles: Vec<_> = (0..n)
                        .map(|p| {
                            let ts = Arc::clone(&ts);
                            s.spawn(move |_| ts.get_ts(p).unwrap())
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
                .unwrap();
                let max = outs.iter().copied().max().unwrap();
                let min = outs.iter().copied().min().unwrap();
                if let Some(prev_max) = round_maxima.last() {
                    assert!(
                        Timestamp::compare(prev_max, &min),
                        "cross-round ordering broken: {prev_max} !< {min}"
                    );
                }
                round_maxima.push(max);
            }
        }
        run::<PackedBackend>();
        run::<EpochBackend>();
    }

    #[test]
    fn batch_reserves_consecutive_stamps_after_the_current_max() {
        let ts = CollectMax::new(2);
        let a = ts.get_ts(0).unwrap(); // 1
        let batch: Vec<Timestamp> = ts.get_ts_batch(1, 4).unwrap().collect();
        assert_eq!(
            batch,
            (2..=5).map(Timestamp::scalar).collect::<Vec<_>>(),
            "batch must be consecutive starting above the completed call"
        );
        assert!(Timestamp::compare(&a, &batch[0]));
        // A later single call starts above the whole batch.
        let b = ts.get_ts(0).unwrap();
        assert_eq!(b, Timestamp::scalar(6));
        assert_eq!(ts.calls(), 3);
        let stats = ts.stats();
        assert_eq!(stats.stamps, 6);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.avg_batch_fill(), Some(4.0));
        assert_eq!(stats.fast_hit_ratio(), Some(1.0), "solo: every CAS wins");
    }

    #[test]
    fn batch_of_one_matches_single_issue_semantics() {
        let ts = CollectMax::new(1);
        let only: Vec<Timestamp> = ts.get_ts_batch(0, 1).unwrap().collect();
        assert_eq!(only, vec![Timestamp::scalar(1)]);
        // k = 1 is not counted as a batch (no amortization happened).
        assert_eq!(ts.stats().batches, 0);
        assert_eq!(ts.read_max(), Timestamp::scalar(1));
    }

    #[test]
    fn batch_rejects_bad_pid_and_publishes_its_top() {
        let ts = CollectMax::new(2);
        assert!(ts.get_ts_batch(2, 4).is_err());
        let batch = ts.get_ts_batch(0, 3).unwrap();
        assert_eq!(batch.first_stamp(), Timestamp::scalar(1));
        assert_eq!(batch.last_stamp(), Timestamp::scalar(3));
        assert_eq!(batch.remaining(), 3);
        // The register and cache both cover the batch top, so a
        // collector started after the call sees all three stamps.
        assert_eq!(ts.read_max(), Timestamp::scalar(3));
        assert_eq!(ts.read_max_collect(), Timestamp::scalar(3));
    }

    #[test]
    fn concurrent_batches_never_overlap() {
        use std::collections::HashSet;
        let n = 4;
        let per_thread = 200u32;
        let ts = Arc::new(CollectMax::<PackedBackend>::with_backend(n));
        let all: Vec<Vec<u64>> = crossbeam::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|p| {
                    let ts = Arc::clone(&ts);
                    s.spawn(move |_| {
                        let mut got = Vec::new();
                        for i in 0..per_thread {
                            let k = 1 + ((p as u32 + i) % 5);
                            got.extend(ts.get_ts_batch(p, k).unwrap().map(|t| t.rnd));
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        let flat: Vec<u64> = all.into_iter().flatten().collect();
        let unique: HashSet<u64> = flat.iter().copied().collect();
        assert_eq!(unique.len(), flat.len(), "batch reservations overlapped");
    }

    #[test]
    fn mixed_fast_and_classic_paths_stay_ordered_across_threads() {
        // Half the threads use the fast path, half the classic collect;
        // barrier-separated rounds must stay ordered regardless of
        // which path produced which value.
        let n = 6;
        let ts = Arc::new(CollectMax::<PackedBackend>::with_backend(n));
        let mut prev_round_max: Option<Timestamp> = None;
        for _round in 0..8 {
            let outs: Vec<Timestamp> = crossbeam::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|p| {
                        let ts = Arc::clone(&ts);
                        s.spawn(move |_| {
                            if p % 2 == 0 {
                                ts.get_ts(p).unwrap()
                            } else {
                                ts.get_ts_paused(p, || {}).unwrap()
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
            .unwrap();
            let max = *outs.iter().max().unwrap();
            let min = *outs.iter().min().unwrap();
            if let Some(prev) = prev_round_max {
                assert!(
                    Timestamp::compare(&prev, &min),
                    "mixed-path ordering broken: {prev} !< {min}"
                );
            }
            prev_round_max = Some(max);
        }
    }
}
