//! Pluggable register storage backends.
//!
//! The paper's algorithms are written against an abstract atomic MWMR
//! register; *how* such a register is realized is an implementation
//! choice with very different performance envelopes:
//!
//! - [`EpochBackend`] — an atomic pointer to an immutable heap cell with
//!   epoch-based reclamation ([`StampedRegister`]). Supports values of
//!   **any size** (e.g. the growing getTS-id sequences of `ts-core`'s
//!   `GrowableTimestamp`), at the cost of an allocation per write and an
//!   epoch pin per operation.
//! - [`PackedBackend`] — the value bit-packed into a single `AtomicU64`
//!   next to its write stamp ([`PackedRegister`]). Reads and writes are
//!   single hardware atomics — no allocation, no pinning, no
//!   reclamation — but the value must implement [`Packable`]
//!   (≤ 32 bits).
//!
//! A [`RegisterBackend`] type parameter threads this choice through
//! [`RegisterArray`](crate::RegisterArray), the `ts-snapshot` scan and
//! the `ts-core` algorithm constructors, so an algorithm is written once
//! and instantiated with whichever backend fits its slot type.
//!
//! # Which backend should I use?
//!
//! Use `PackedBackend` when every value the register will ever hold fits
//! [`Packable`]'s 32-bit budget — e.g. the `{0, 1, 2}` slots of the
//! simple one-shot algorithm or collect-max counters. Large values that
//! are written once and never change can often still go packed: store
//! them in a write-once record, publish it before the `Release` write of
//! a word naming it, and read it only after an `Acquire` load of such a
//! word (the contract below). `ts-core`'s Algorithm 4 does this: its
//! registers hold handles to per-call `{id, myrnd, seq}` records rather
//! than `⟨seq, rnd⟩` values. Use `EpochBackend` when values are
//! unbounded and have no such write-once owner — e.g. the growable
//! variant's registers, whose number of writers is not fixed up front.
//! The contention benchmark (`bench_contention` in `ts-bench`)
//! quantifies the gap.
//!
//! # Ordering contract (all backends, one place)
//!
//! Every register type in this crate — [`StampedRegister`],
//! [`PackedRegister`], [`WordRegister`](crate::WordRegister) — obeys
//! the same two-part memory-ordering contract, and every consumer
//! (`RegisterArray`, the `ts-snapshot` scan, the `ts-core` algorithms)
//! assumes exactly this much and no more:
//!
//! 1. **Per-register coherence.** All writes to one register form a
//!    single modification order; a thread's reads of that register
//!    never move backwards along it. Even `Relaxed` atomics provide
//!    this; it is what "register values never decrease" arguments
//!    (Lemma 5.1) consume.
//! 2. **Acquire/Release publication.** `write` is (at least) `Release`
//!    and `read`/`read_stamped`/`stamp` are (at least) `Acquire`: a
//!    read that observes a write also observes everything its writer
//!    did before it. This is the cross-register happens-before edge
//!    the algorithms build on ("a getTS that sees my increment sees my
//!    earlier writes too"). `SeqCst` — one total order over unrelated
//!    registers — is used by none of the proofs and none of the
//!    backends' data paths.
//!
//! Change detection is part of the same contract, routed through one
//! accessor: [`BackendRegister::stamp`]. Two `stamp()` calls on the
//! same register returning equal stamps observed the same write —
//! exactly (`StampedRegister` global counter, `PackedRegister`
//! per-register counter) or under the documented monotone-contents
//! caveat (`WordRegister::stamp`, value-as-stamp). The scan compares
//! stamps only register-wise and only through this accessor.
//!
//! Two pieces sit deliberately *outside* the Acquire/Release budget:
//! the per-block dirty words of a `RegisterArray`
//! ([`RegisterArray::block_summary`](crate::RegisterArray::block_summary),
//! one word per block, bumped before and after each store to that
//! block and nothing else; the whole-array
//! [`summary`](crate::RegisterArray::summary) is their sum) use
//! `SeqCst` bumps and loads, because their quiescence proof counts
//! events across *different* threads' writes and must not let a bump
//! reorder around the bracketed register accesses; and the
//! collect-max cached maximum (`ts-core`) uses CAS/fetch-max RMWs,
//! whose read-modify-write atomicity — not ordering — carries its
//! monotonicity argument.

use crate::packed::{Packable, PackedRegister};
use crate::stamped::{Stamp, Stamped, StampedRegister};
use crate::traits::Register;

/// The register interface a backend must materialize: construction,
/// plain reads/writes (via [`Register`]), stamped reads for the
/// double-collect scan, and a zero-copy read.
///
/// Stamp semantics: two `read_stamped` calls **on the same register**
/// returning equal stamps observed the same write. Backends may or may
/// not make stamps unique across registers ([`StampedRegister`] does,
/// [`PackedRegister`] does not); the scan only compares stamps
/// register-wise, so cross-register uniqueness is not part of the
/// contract.
pub trait BackendRegister<T>: Register<T> {
    /// Creates a register holding `initial` under [`Stamp::INITIAL`].
    fn with_initial(initial: T) -> Self;

    /// Returns the current value together with its write stamp.
    fn read_stamped(&self) -> Stamped<T>;

    /// Returns just the stamp of the current value.
    fn stamp(&self) -> Stamp;

    /// Applies `f` to the current value without cloning it out.
    fn read_with<R>(&self, f: impl FnOnce(&T) -> R) -> R;
}

/// A storage strategy for stamped MWMR registers, selecting the concrete
/// register type for a value type `T`.
///
/// Implemented by [`EpochBackend`] (any `T: Clone`) and
/// [`PackedBackend`] (`T: Packable`); downstream crates can add their
/// own (e.g. a futex-based blocking register, or a remote register à la
/// `dist-register`) without touching the algorithm layer.
pub trait RegisterBackend<T>: Send + Sync + 'static {
    /// The concrete register type this backend materializes.
    type Reg: BackendRegister<T> + Send + Sync;

    /// Short lower-case name for benchmark/report labels ("epoch",
    /// "packed"). Third-party backends get a generic default.
    const NAME: &'static str = "custom";
}

/// Backend marker: heap-cell registers with epoch-based reclamation
/// ([`StampedRegister`] over [`AtomicRegister`](crate::AtomicRegister)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochBackend;

/// Backend marker: word-inlined registers ([`PackedRegister`]), no heap
/// and no epoch machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedBackend;

impl<T: Clone + Send + Sync + 'static> RegisterBackend<T> for EpochBackend {
    type Reg = StampedRegister<T>;

    const NAME: &'static str = "epoch";
}

impl<T: Packable> RegisterBackend<T> for PackedBackend {
    type Reg = PackedRegister<T>;

    const NAME: &'static str = "packed";
}

impl<T: Clone + Send + Sync> BackendRegister<T> for StampedRegister<T> {
    fn with_initial(initial: T) -> Self {
        StampedRegister::new(initial)
    }

    fn read_stamped(&self) -> Stamped<T> {
        StampedRegister::read_stamped(self)
    }

    fn stamp(&self) -> Stamp {
        StampedRegister::stamp(self)
    }

    fn read_with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        StampedRegister::read_with(self, f)
    }
}

impl<T: Packable> BackendRegister<T> for PackedRegister<T> {
    fn with_initial(initial: T) -> Self {
        PackedRegister::new(initial)
    }

    fn read_stamped(&self) -> Stamped<T> {
        PackedRegister::read_stamped(self)
    }

    fn stamp(&self) -> Stamp {
        PackedRegister::stamp(self)
    }

    fn read_with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        PackedRegister::read_with(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<B: RegisterBackend<u64>>() {
        let reg = B::Reg::with_initial(0);
        assert_eq!(reg.stamp(), Stamp::INITIAL);
        reg.write(5);
        let s = reg.read_stamped();
        assert_eq!(s.value, 5);
        assert_ne!(s.stamp, Stamp::INITIAL);
        assert_eq!(reg.read_with(|v| v + 1), 6);
        assert_eq!(Register::read(&reg), 5);
    }

    #[test]
    fn both_backends_satisfy_the_contract() {
        exercise::<EpochBackend>();
        exercise::<PackedBackend>();
    }
}
