//! Applications built on the paper's timestamp objects.
//!
//! Section 1 of Helmi et al. motivates timestamp objects with the
//! problems they solve: FCFS fairness in mutual exclusion and
//! k-exclusion (Lamport 1974; Fischer, Lynch, Burns, Borodin 1989),
//! and renaming (Attiya–Fouren 2003). This crate implements those
//! consumers over the `ts-core` objects, closing the loop from the
//! paper's introduction to its algorithms:
//!
//! - [`FcfsLock`] — bakery-style mutual exclusion whose tickets come
//!   from a long-lived timestamp object; first-come-first-served across
//!   non-overlapping doorways;
//! - [`KExclusion`] — the k-resource generalization (up to `k` holders);
//! - [`OrderPreservingRenaming`] — one-shot names from one-shot
//!   timestamps: names are distinct and respect happens-before, from a
//!   namespace polynomial in `n`.
//!
//! # Example
//!
//! ```
//! use ts_apps::FcfsLock;
//!
//! let lock = FcfsLock::new(4);
//! let guard = lock.lock(0);
//! // ... critical section ...
//! drop(guard);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fcfs_lock;
mod kexclusion;
mod renaming;

pub use fcfs_lock::{FcfsLock, FcfsLockGuard};
pub use kexclusion::{KExclusion, KExclusionGuard};
pub use renaming::OrderPreservingRenaming;
