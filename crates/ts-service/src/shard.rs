//! One shard domain: a packed `(epoch, local)` reservation word, a bank
//! of single-writer registers, and a slot pool whose per-slot cells hold
//! the call tallies.
//!
//! # The reservation word
//!
//! Each shard issues stamps from a single `AtomicU64` holding
//! `epoch << 32 | local` — packed exactly so that *word order equals
//! `(epoch, local)` order* ([`ShardedTimestamp::word`]). Everything the
//! shard does is a monotone operation on that word:
//!
//! - **reserve** (`k` stamps): CAS from `w` to `advance(max(w, floor), k)`
//!   — the winner owns the exclusive word range
//!   `(base, advance(base, k)]`;
//! - **floor fold** (client carries a stamp from elsewhere):
//!   `fetch_max(w, floor)` — after which any reservation exceeds the
//!   folded floor;
//! - **epoch bump** (`local` about to overflow 32 bits, or an
//!   administrative rebalance): jump to `(epoch + 1, k)` — still a
//!   plain word increase, because epoch sits in the high half.
//!
//! Uniqueness of reserved ranges needs only CAS atomicity: every
//! successful CAS reads the word it replaces, so successful
//! reservations form a chain of disjoint intervals. There is no collect
//! fallback on this path — reservation-issued stamps are globally
//! unique, not merely ordered.

use std::sync::atomic::{AtomicU64, Ordering};

use ts_register::{
    ArrayLayout, BackendRegister, CachePadded, Register, RegisterBackend, Slots, SpaceMeter,
};

use crate::pool::{add, SlotPool};

/// Largest value of the packed word's `local` half.
const LOCAL_MAX: u64 = u32::MAX as u64;

/// Advances a packed `(epoch, local)` word by `k` stamps, bumping the
/// epoch instead of letting `local` overflow its 32-bit half. The
/// result is always strictly greater than `base` (word order), and the
/// reserved range `(base-or-bump, result]` never spans an epoch.
pub(crate) fn advance(base: u64, k: u64) -> u64 {
    debug_assert!(k >= 1 && k <= LOCAL_MAX, "batch size must fit local space");
    let local = base & LOCAL_MAX;
    if local + k > LOCAL_MAX {
        let epoch = base >> 32;
        assert!(epoch < LOCAL_MAX, "epoch space exhausted");
        ((epoch + 1) << 32) | k
    } else {
        base + k
    }
}

/// The word range one successful reservation CAS won: stamps
/// `first..=last` (packed words, one epoch), plus whether the CAS
/// succeeded on its first attempt (the fast-path signal).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reservation {
    pub(crate) first: u64,
    pub(crate) last: u64,
    pub(crate) fast: bool,
}

/// One shard domain. See the module docs for the word protocol; the
/// register bank and slot pool are both sized to the same
/// `slots_per_shard`.
pub(crate) struct Shard<B: RegisterBackend<u64>> {
    /// The packed `(epoch, local)` reservation word. Padded: this is
    /// the shard's contention point and must not share a line with any
    /// register or a neighbouring shard's word.
    word: CachePadded<AtomicU64>,
    /// Single-writer `local` registers, one per slot: the lease holder
    /// publishes the low half of the last word it issued. Register
    /// contents stay within the packed backend's 32-bit budget because
    /// the word is published as an `(epoch, local)` *pair* — see
    /// [`Shard::publish`] for the write ordering that keeps observed
    /// pairs from over-reporting the frontier.
    locals: Slots<B::Reg>,
    /// Single-writer `epoch` registers, paired with `locals`.
    epochs: Slots<B::Reg>,
    meter: SpaceMeter,
    /// Slot leases. Slot `i`'s cell also holds its call tally, owned
    /// by the lease.
    pub(crate) pool: SlotPool,
}

impl<B: RegisterBackend<u64>> Shard<B> {
    pub(crate) fn new(slots: usize) -> Self {
        assert!(slots >= 1, "need at least one slot");
        Self {
            word: CachePadded::new(AtomicU64::new(0)),
            locals: Slots::new(ArrayLayout::Padded, slots, |_| B::Reg::with_initial(0)),
            epochs: Slots::new(ArrayLayout::Padded, slots, |_| B::Reg::with_initial(0)),
            // Meter indexes: `slot` for the local register, `slots +
            // slot` for its epoch partner.
            meter: SpaceMeter::new(2 * slots),
            pool: SlotPool::new(slots),
        }
    }

    /// The current packed word (diagnostics; the frontier of issued
    /// stamps).
    pub(crate) fn word(&self) -> u64 {
        self.word.load(Ordering::Acquire)
    }

    /// Folds an external floor into the word: afterwards every
    /// reservation on this shard returns stamps strictly above `floor`.
    pub(crate) fn raise_floor(&self, floor: u64) {
        self.word.fetch_max(floor, Ordering::AcqRel);
    }

    /// Reserves `k` consecutive stamps above both the current word and
    /// `floor` with one successful CAS.
    pub(crate) fn reserve(&self, floor: u64, k: u64) -> Reservation {
        let mut cur = self.word.load(Ordering::Acquire);
        let mut fast = true;
        loop {
            let base = cur.max(floor);
            let next = advance(base, k);
            match self
                .word
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                // `next - k + 1` is the range's first word in both
                // shapes: plain advance (base + 1) and epoch bump
                // ((epoch+1, 1)).
                Ok(_) => {
                    return Reservation {
                        first: next - k + 1,
                        last: next,
                        fast,
                    }
                }
                Err(now) => {
                    cur = now;
                    fast = false;
                }
            }
        }
    }

    /// Publishes `word` to the slot's `(epoch, local)` register pair
    /// if it exceeds the pair's current value. The lease serializes
    /// writers per slot, so the read-check-write is safe; skipping
    /// non-advances keeps the published word monotone even though
    /// different clients (with different floors) time-share the slot.
    ///
    /// Write ordering: `local` lands **before** `epoch`. Combined with
    /// the collect's epoch-before-local read order, every observed pair
    /// `(e_r, l_r)` satisfies `e_r <= ` the epoch `l_r` was issued
    /// under, so no collect ever reports a stamp above the reservation
    /// frontier — without any read-retry loop.
    fn publish(&self, slot: usize, word: u64) {
        let (epoch, local) = (word >> 32, word & LOCAL_MAX);
        self.meter.record_read(self.locals.len() + slot);
        let cur_epoch = Register::read(self.epochs.get(slot));
        if cur_epoch > epoch {
            return;
        }
        if cur_epoch == epoch {
            self.meter.record_read(slot);
            if Register::read(self.locals.get(slot)) >= local {
                return;
            }
        }
        self.meter.record_write(slot);
        Register::write(self.locals.get(slot), local);
        if cur_epoch < epoch {
            self.meter.record_write(self.locals.len() + slot);
            Register::write(self.epochs.get(slot), epoch);
        }
    }

    /// Reserves `k` stamps above `floor`, publishes the range's top to
    /// the leased slot's register and counts the call in its tally.
    pub(crate) fn get_batch(&self, slot: usize, floor: u64, k: u64) -> Reservation {
        let res = self.reserve(floor, k);
        self.publish(slot, res.last);
        let t = &self.pool.cells[slot].tally;
        add(&t.calls, 1);
        add(&t.fast_hits, u64::from(res.fast));
        add(&t.stamps, k);
        if k > 1 {
            add(&t.batches, 1);
            add(&t.batched_stamps, k);
        }
        res
    }

    /// Collect over the register bank: the largest published word, or
    /// `None` if nothing was published yet. A read-only observation
    /// pass (`2n` metered reads, recorded as one sweep over the
    /// `locals ++ epochs` indices), lower-bounding the reservation
    /// frontier [`Shard::word`] — reading each pair epoch-before-local
    /// (see [`Shard::publish`] for why that never over-reports).
    pub(crate) fn collect_max_word(&self) -> Option<u64> {
        let slots = self.locals.len();
        let mut max = 0;
        for slot in 0..slots {
            let epoch = Register::read(self.epochs.get(slot));
            let local = Register::read(self.locals.get(slot));
            max = max.max((epoch << 32) | local);
        }
        self.meter.record_sweep(0..2 * slots);
        (max > 0).then_some(max)
    }

    /// The shard's register-traffic meter.
    pub(crate) fn meter(&self) -> &SpaceMeter {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_register::PackedBackend;

    fn word(epoch: u32, local: u32) -> u64 {
        (u64::from(epoch) << 32) | u64::from(local)
    }

    #[test]
    fn advance_adds_within_an_epoch() {
        assert_eq!(advance(word(0, 0), 1), word(0, 1));
        assert_eq!(advance(word(3, 10), 16), word(3, 26));
    }

    #[test]
    fn advance_bumps_the_epoch_instead_of_overflowing_local() {
        assert_eq!(advance(word(2, u32::MAX), 1), word(3, 1));
        assert_eq!(advance(word(2, u32::MAX - 3), 16), word(3, 16));
        // The bumped result is still a plain word increase.
        assert!(advance(word(2, u32::MAX - 3), 16) > word(2, u32::MAX - 3));
    }

    #[test]
    fn reserve_returns_disjoint_ranges_above_the_floor() {
        let shard = Shard::<PackedBackend>::new(2);
        let a = shard.reserve(0, 4);
        assert_eq!((a.first, a.last), (word(0, 1), word(0, 4)));
        assert!(a.fast);
        let floor = word(5, 100);
        let b = shard.reserve(floor, 2);
        assert_eq!((b.first, b.last), (word(5, 101), word(5, 102)));
        assert!(b.first > floor, "strictly above the folded floor");
    }

    #[test]
    fn get_batch_publishes_the_top_to_the_slot_register() {
        let shard = Shard::<PackedBackend>::new(2);
        let res = shard.get_batch(1, 0, 3);
        assert_eq!(res.last, word(0, 3));
        assert_eq!(shard.collect_max_word(), Some(word(0, 3)));
        // A lower floor on the same slot must not regress the register.
        shard.get_batch(1, 0, 1);
        assert_eq!(shard.collect_max_word(), Some(word(0, 4)));
    }

    #[test]
    fn reservations_bump_epochs_near_local_exhaustion() {
        let shard = Shard::<PackedBackend>::new(1);
        shard.raise_floor(word(7, u32::MAX - 2));
        let res = shard.reserve(0, 8);
        assert_eq!((res.first, res.last), (word(8, 1), word(8, 8)));
        // All stamps of the reservation share the bumped epoch.
        assert_eq!(res.first >> 32, res.last >> 32);
    }
}
