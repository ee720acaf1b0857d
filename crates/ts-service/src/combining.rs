//! The flat-combining publication array: one cell per physical slot.
//!
//! Flat combining (Hendler–Incze–Shavit–Tzafrir) turns `p` concurrent
//! single-stamp requests into one shared-memory transaction: every
//! caller *publishes* its request in a per-slot cell, one caller wins a
//! try-lock and becomes the **combiner**, drains every published
//! request, reserves the sum with a single CAS on the shard word, and
//! distributes consecutive sub-ranges back through the cells.
//!
//! # Cell protocol
//!
//! Each [`PubCell`] is a `(req, resp)` pair of atomics owned by one
//! slot lease at a time. The cells live in the
//! [`SlotPool`](crate::pool::SlotPool)'s per-slot cells, which
//! serialize publishers per cell:
//!
//! 1. *Publish* — the peer stores `resp = 0` (`Relaxed`; it owns the
//!    cell) then `req = k` (`Release`). A combiner that later reads
//!    `req = k` with `Acquire` therefore also sees `resp = 0`.
//! 2. *Serve* — the combiner, holding the combiner lock, stores
//!    `req = 0` (`Relaxed`) then `resp = first` (`Release`), where
//!    `first` is the packed word of the peer's first granted stamp.
//!    `first` is never zero (locals start at 1), so `0` is a safe
//!    "pending" sentinel.
//! 3. *Take* — the peer spins on `resp` with `Acquire`; a non-zero read
//!    carries the happens-before edge from the combiner's reservation,
//!    and (because `req = 0` was stored before the `Release`) the
//!    peer's *next* publication cannot be clobbered by a stale serve.
//!
//! Double-serve is impossible: requests are cleared inside the locked
//! pass before their responses publish, and passes are serialized by
//! the combiner lock.

use std::sync::atomic::{AtomicU64, Ordering};

/// One slot's publication cell. Padded by its pool cell, so peers
/// spinning on their own `resp` never bounce a neighbour's line.
#[derive(Debug, Default)]
pub(crate) struct PubCell {
    /// Pending request size (`0` = none). Written by the slot's lease
    /// holder (publish) and the combiner (clear-on-serve).
    req: AtomicU64,
    /// Granted range's first packed word (`0` = pending).
    resp: AtomicU64,
}

impl PubCell {
    /// Peer side: publishes a request for `k` stamps.
    pub(crate) fn publish(&self, k: u64) {
        debug_assert!(k >= 1);
        self.resp.store(0, Ordering::Relaxed);
        self.req.store(k, Ordering::Release);
    }

    /// Peer side: polls for a grant (the first packed word of the
    /// range), `None` while pending.
    pub(crate) fn poll(&self) -> Option<u64> {
        match self.resp.load(Ordering::Acquire) {
            0 => None,
            first => Some(first),
        }
    }

    /// Combiner side: reads the pending request size (`0` = none).
    pub(crate) fn pending(&self) -> u64 {
        self.req.load(Ordering::Acquire)
    }

    /// Combiner side: serves the cell with the first word of its
    /// granted range. Must hold the combiner lock.
    pub(crate) fn serve(&self, first: u64) {
        debug_assert!(first != 0, "grants start at local 1, never word 0");
        self.req.store(0, Ordering::Relaxed);
        self.resp.store(first, Ordering::Release);
    }
}

/// Spin policy while waiting for a grant or the combiner lock: a short
/// on-core spin, then yield — the blocking half matters on machines
/// with fewer cores than waiting peers (the combiner must get cycles
/// to finish its pass).
pub(crate) fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_serve_poll_round_trip() {
        let cell = PubCell::default();
        assert_eq!(cell.pending(), 0);
        assert_eq!(cell.poll(), None);
        cell.publish(3);
        assert_eq!(cell.pending(), 3);
        assert_eq!(cell.poll(), None, "pending until served");
        cell.serve(41);
        assert_eq!(cell.pending(), 0, "serve clears the request");
        assert_eq!(cell.poll(), Some(41));
        // Next round: publishing resets the stale grant.
        cell.publish(1);
        assert_eq!(cell.poll(), None);
    }
}
