//! Space and operation instrumentation.
//!
//! The paper's results bound the *number of registers* an implementation
//! uses. [`SpaceMeter`] observes a register array and records, per
//! register: how many reads and writes it served and whether it was ever
//! written. The derived quantities (`registers_written`,
//! `registers_accessed`, `max_written_index`) are exactly what the
//! experiment tables of EXPERIMENTS.md report against the paper's bounds.
//!
//! A whole-range read pass (a collect, a stamp sweep over one block) is
//! recorded as **one** [`SpaceMeter::record_sweep`] instead of one
//! counter bump per register: the sweep adds +1 at the range start and
//! −1 at its end in a difference array, and [`SpaceMeter::snapshot`]
//! folds the prefix sum back into per-register read counts. The public
//! counts stay exact; only the bookkeeping cost per sweep drops from
//! `len` shared RMWs to at most two.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::traits::Register;

#[derive(Debug, Default)]
struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    /// Difference-array entry for sweeps: +1 per sweep starting here,
    /// −1 (wrapping) per sweep ending here. The prefix sum up to index
    /// `i` is the number of sweeps that covered register `i`.
    sweep_delta: AtomicU64,
}

/// Shared recorder of per-register read/write counts.
///
/// Clone the meter (cheap; internally `Arc`) and attach it to registers
/// via [`SpaceMeter::wrap`] or record manually with
/// [`SpaceMeter::record_read`] / [`SpaceMeter::record_write`], or
/// [`SpaceMeter::record_sweep`] for one read of every register in a
/// range.
///
/// # Example
///
/// ```
/// use ts_register::{AtomicRegister, Register, SpaceMeter};
///
/// let meter = SpaceMeter::new(4);
/// let reg = meter.wrap(1, AtomicRegister::new(0u64));
/// reg.write(9);
/// reg.read();
/// let snap = meter.snapshot();
/// assert_eq!(snap.registers_written(), 1);
/// assert_eq!(snap.reads[1], 1);
/// ```
#[derive(Clone)]
pub struct SpaceMeter {
    counters: Arc<Vec<Counters>>,
}

impl SpaceMeter {
    /// Creates a meter for an array of `capacity` registers.
    pub fn new(capacity: usize) -> Self {
        let mut v = Vec::with_capacity(capacity);
        v.resize_with(capacity, Counters::default);
        Self {
            counters: Arc::new(v),
        }
    }

    /// Number of registers the meter observes.
    pub fn capacity(&self) -> usize {
        self.counters.len()
    }

    /// Records a read of register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn record_read(&self, index: usize) {
        self.counters[index].reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one read of every register in `range` — a collect or a
    /// stamp sweep — with at most two counter updates instead of
    /// `range.len()`. An empty range records nothing.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > capacity`.
    pub fn record_sweep(&self, range: Range<usize>) {
        assert!(
            range.end <= self.capacity(),
            "sweep {range:?} out of meter capacity {}",
            self.capacity()
        );
        if range.is_empty() {
            return;
        }
        self.counters[range.start]
            .sweep_delta
            .fetch_add(1, Ordering::Relaxed);
        if let Some(end) = self.counters.get(range.end) {
            end.sweep_delta.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Records a write of register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn record_write(&self, index: usize) {
        self.counters[index].writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Wraps `register` so that all operations on it are recorded under
    /// `index`.
    pub fn wrap<T, R: Register<T>>(&self, index: usize, register: R) -> MeteredRegister<R> {
        assert!(
            index < self.capacity(),
            "register index {index} out of meter capacity {}",
            self.capacity()
        );
        MeteredRegister {
            inner: register,
            meter: self.clone(),
            index,
        }
    }

    /// Takes a consistent-enough snapshot of the counters.
    ///
    /// Counter updates are relaxed; the snapshot is exact once the metered
    /// execution has quiesced (which is how the experiment harness uses
    /// it). Each register's `reads` is its single reads plus the sweeps
    /// covering it (the prefix sum of the sweep difference array).
    pub fn snapshot(&self) -> MeterSnapshot {
        let mut swept = 0u64;
        MeterSnapshot {
            reads: self
                .counters
                .iter()
                .map(|c| {
                    swept = swept.wrapping_add(c.sweep_delta.load(Ordering::Relaxed));
                    c.reads.load(Ordering::Relaxed).wrapping_add(swept)
                })
                .collect(),
            writes: self
                .counters
                .iter()
                .map(|c| c.writes.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl fmt::Debug for SpaceMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpaceMeter")
            .field("capacity", &self.capacity())
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// Immutable view of a [`SpaceMeter`]'s counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Reads served per register index.
    pub reads: Vec<u64>,
    /// Writes served per register index.
    pub writes: Vec<u64>,
}

impl MeterSnapshot {
    /// Number of registers that were written at least once.
    ///
    /// This is the paper's space-consumption measure: a register that is
    /// never written (like Algorithm 4's trailing sentinel) still counts
    /// toward the *allocation* but the bounds are phrased over registers
    /// that carry information.
    pub fn registers_written(&self) -> usize {
        self.writes.iter().filter(|&&w| w > 0).count()
    }

    /// Number of registers that were read or written at least once.
    pub fn registers_accessed(&self) -> usize {
        self.reads
            .iter()
            .zip(&self.writes)
            .filter(|(&r, &w)| r > 0 || w > 0)
            .count()
    }

    /// Highest register index that was written, if any.
    pub fn max_written_index(&self) -> Option<usize> {
        self.writes.iter().rposition(|&w| w > 0)
    }

    /// Total number of read operations.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Total number of write operations.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }
}

/// A register wrapper that records its operations in a [`SpaceMeter`].
#[derive(Debug)]
pub struct MeteredRegister<R> {
    inner: R,
    meter: SpaceMeter,
    index: usize,
}

impl<R> MeteredRegister<R> {
    /// The index under which this register reports.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Unwraps the underlying register.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<T, R: Register<T>> Register<T> for MeteredRegister<R> {
    fn read(&self) -> T {
        self.meter.record_read(self.index);
        self.inner.read()
    }

    fn write(&self, value: T) {
        self.meter.record_write(self.index);
        self.inner.write(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicRegister;

    #[test]
    fn empty_meter_snapshot_is_zero() {
        let meter = SpaceMeter::new(3);
        let snap = meter.snapshot();
        assert_eq!(snap.registers_written(), 0);
        assert_eq!(snap.registers_accessed(), 0);
        assert_eq!(snap.max_written_index(), None);
    }

    #[test]
    fn reads_and_writes_are_counted_separately() {
        let meter = SpaceMeter::new(2);
        let r0 = meter.wrap(0, AtomicRegister::new(0u64));
        let r1 = meter.wrap(1, AtomicRegister::new(0u64));
        r0.read();
        r0.read();
        r1.write(1);
        let snap = meter.snapshot();
        assert_eq!(snap.reads, vec![2, 0]);
        assert_eq!(snap.writes, vec![0, 1]);
        assert_eq!(snap.registers_written(), 1);
        assert_eq!(snap.registers_accessed(), 2);
        assert_eq!(snap.max_written_index(), Some(1));
        assert_eq!(snap.total_reads(), 2);
        assert_eq!(snap.total_writes(), 1);
    }

    #[test]
    #[should_panic(expected = "out of meter capacity")]
    fn sweep_past_capacity_panics() {
        SpaceMeter::new(2).record_sweep(1..3);
    }

    #[test]
    #[should_panic(expected = "out of meter capacity")]
    fn wrapping_out_of_capacity_panics() {
        let meter = SpaceMeter::new(1);
        let _ = meter.wrap(1, AtomicRegister::new(0u64));
    }

    #[test]
    fn metered_register_reports_index_and_unwraps() {
        let meter = SpaceMeter::new(1);
        let reg = meter.wrap(0, AtomicRegister::new(5u64));
        assert_eq!(reg.index(), 0);
        let inner = reg.into_inner();
        assert_eq!(inner.read(), 5);
    }
}
