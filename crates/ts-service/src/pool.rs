//! [`SlotPool`]: physical register slots leased per call.
//!
//! This is the storage half of virtual-pid multiplexing: a client
//! session's *identity* is its vpid (never reused, unbounded), but its
//! *storage* — the single-writer register it publishes stamps to — is
//! borrowed from a fixed pool only while an issue call runs. The lease
//! serializes writers per slot, so each register keeps exactly one
//! writer at a time (the SWMR discipline the substrate assumes) even
//! with `M >> n` clients.
//!
//! Each slot's padded [`SlotCell`] also holds the slot's call
//! [`Tally`], owned by the lease.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use ts_register::CachePadded;

/// A slot's share of the service's call counters; `stats()` sums every
/// slot's tally. Only the slot's lease holder writes them, with [`add`].
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) calls: AtomicU64,
    pub(crate) fast_hits: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_stamps: AtomicU64,
    pub(crate) stamps: AtomicU64,
}

/// Adds `n` to a [`Tally`] counter with a plain load + store, no RMW.
/// The caller must hold the slot's lease: the claim flag's
/// `Acquire`/`Release` hand-off orders successive holders, so no update
/// is lost. Readers load `Relaxed` (exact once writers are joined).
pub(crate) fn add(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Everything one slot's lease holder writes, on one padded line.
#[derive(Debug, Default)]
pub(crate) struct SlotCell {
    /// `true` while a lease holds the slot.
    claimed: AtomicBool,
    pub(crate) tally: Tally,
}

/// A fixed set of slot ids (`0..n`) handed out one lease at a time.
///
/// While any slot is free a lease is one CAS on its claim flag and a
/// release a store, a fence and a read of the sleeper count: no lock,
/// no syscall. Only when every slot is taken does a caller block on
/// the kernel — a counted wait, the service's signal that the client
/// population has outgrown the shard's slot budget.
#[derive(Debug)]
pub(crate) struct SlotPool {
    /// Indexed by slot id.
    pub(crate) cells: Vec<CachePadded<SlotCell>>,
    /// Callers registered to sleep on `wake`; releasers lock and notify
    /// only when it is non-zero.
    sleepers: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    waits: AtomicU64,
}

impl SlotPool {
    /// A pool over slots `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one slot");
        Self {
            cells: (0..n).map(|_| CachePadded::default()).collect(),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            waits: AtomicU64::new(0),
        }
    }

    /// Claims the lowest free slot, if any.
    fn try_claim(&self) -> Option<Lease<'_>> {
        let slot = self.cells.iter().position(|cell| {
            let flag = &cell.claimed;
            !flag.load(Ordering::Relaxed)
                && flag
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
        })?;
        Some(Lease { pool: self, slot })
    }

    /// Leases a slot, blocking until one is free. The lease releases
    /// the slot on drop.
    pub(crate) fn lease(&self) -> Lease<'_> {
        if let Some(lease) = self.try_claim() {
            return lease;
        }
        self.waits.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.sleep.lock().expect("slot pool sleep lock");
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        loop {
            // Dekker with `Lease::drop`: either its fence comes first
            // and this re-check sees the freed flag, or ours does and
            // it sees `sleepers > 0` and notifies under the lock we
            // hold until `wait` parks us.
            fence(Ordering::SeqCst);
            if let Some(lease) = self.try_claim() {
                self.sleepers.fetch_sub(1, Ordering::Relaxed);
                return lease;
            }
            guard = self.wake.wait(guard).expect("slot pool sleep lock");
        }
    }

    /// Leases that had to block because every slot was taken.
    pub(crate) fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }
}

/// An exclusive hold on one slot id; returns it to the pool on drop.
#[derive(Debug)]
pub(crate) struct Lease<'a> {
    pool: &'a SlotPool,
    slot: usize,
}

impl Lease<'_> {
    /// The leased slot id.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        let pool = self.pool;
        pool.cells[self.slot]
            .claimed
            .store(false, Ordering::Release);
        fence(Ordering::SeqCst);
        if pool.sleepers.load(Ordering::Relaxed) != 0 {
            // `()` cannot be left invalid by a panicking holder.
            let _guard = pool.sleep.lock().unwrap_or_else(PoisonError::into_inner);
            pool.wake.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_are_exclusive_and_returned_on_drop() {
        let pool = SlotPool::new(2);
        let a = pool.lease();
        let b = pool.lease();
        assert_ne!(a.slot(), b.slot());
        let freed = a.slot();
        drop(a);
        let c = pool.lease();
        assert_eq!(c.slot(), freed, "lowest free slot first");
        drop(b);
        drop(c);
        assert_eq!(pool.waits(), 0, "no lease ever had to block");
    }

    #[test]
    fn oversubscribed_pool_blocks_and_counts_waits() {
        let pool = SlotPool::new(1);
        std::thread::scope(|s| {
            let held = pool.lease();
            let waiter = s.spawn(|| pool.lease().slot());
            // Give the waiter time to block on the taken slot.
            while pool.waits() == 0 {
                std::thread::yield_now();
            }
            drop(held);
            assert_eq!(waiter.join().expect("waiter"), 0);
        });
        assert_eq!(pool.waits(), 1);
    }

    #[test]
    fn many_threads_never_share_a_slot() {
        let pool = SlotPool::new(3);
        let in_use = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let lease = pool.lease();
                        let claims = in_use[lease.slot()].fetch_add(1, Ordering::SeqCst);
                        assert_eq!(claims, 0, "two leases held slot {}", lease.slot());
                        in_use[lease.slot()].fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
    }
}
