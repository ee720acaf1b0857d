//! Collect, double-collect scan, and wait-free atomic snapshot.
//!
//! Algorithm 4 of Helmi et al. (PODC 2011) performs a `scan` of its
//! register array (line 13) using the obstruction-free double-collect of
//! Afek, Attiya, Dolev, Gafni, Merritt and Shavit (JACM 1993): repeatedly
//! read all registers until two consecutive sweeps observe identical
//! contents, at which point the sweep is a linearizable view. The paper
//! notes that this scan is wait-free *in the context of Algorithm 4*
//! because every `getTS` performs fewer than `m` writes, so the total
//! number of interfering writes is finite.
//!
//! This crate provides one scan entry point per guarantee:
//!
//! - [`adaptive_scan`] — the lock-free scan used by Algorithm 4,
//!   operating on a [`ts_register::RegisterArray`] of either register
//!   backend (epoch heap cells or word-inlined packed registers), with
//!   dirty-block adaptive retries (O(dirty) per retry instead of O(n));
//! - [`helping_scan`] / [`helping_write`] / [`HelpBoard`] — the
//!   wait-free upgrade: writers under distress publish era-tagged
//!   views a starved scanner adopts, bounding scan retries by a
//!   tunable [`ScanPolicy::starvation_bound`];
//! - [`classic_double_collect_scan`] — the textbook full-sweep double
//!   collect, kept as the baseline the writer-storm bench cells measure
//!   the adaptive ladder against;
//! - [`WaitFreeSnapshot`] — the full single-writer atomic snapshot object
//!   of Afek et al., wait-free unconditionally thanks to embedded views.
//!
//! # Example
//!
//! ```
//! use ts_register::RegisterArray;
//! use ts_snapshot::adaptive_scan;
//!
//! let array: RegisterArray<u64> = RegisterArray::new(4, 0);
//! array.write(2, 9).unwrap();
//! let (view, _outcome) = adaptive_scan(&array);
//! assert_eq!(view.values()[2], 9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod help;
mod scan;
mod snapshot;
mod view;

pub use help::{
    helping_scan, helping_scan_paused, helping_write, storm_write_paused, HelpBoard, ScanPolicy,
    WriteOutcome,
};
pub use scan::{adaptive_scan, classic_double_collect_scan, ScanOutcome};
pub use snapshot::{Updater, WaitFreeSnapshot};
pub use view::View;
