//! The double-collect scan of Afek et al. (1993), with a
//! dirty-word-validated fast path and dirty-block adaptive retries.

use ts_register::{RegisterArray, RegisterBackend, Stamped, WriteSummary};

use crate::view::View;

/// How a scan call resolved: which ladder rungs it climbed and, for
/// [`helping_scan`](crate::helping_scan), whether it adopted a helped
/// view instead of validating its own.
///
/// These are the per-call inputs to the `dirty_recollects` /
/// `helped_scans` counters of `ts-core`'s `ServiceStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Dirty-block retry passes performed (0 = the first collect
    /// validated: every block dirty word was clean across it).
    pub recollect_passes: u64,
    /// Registers re-read and patched across all retry passes — the
    /// O(dirty) work a full-recollect loop would have multiplied by
    /// the array capacity.
    pub patched_registers: u64,
    /// The view was adopted from a helper's published record rather
    /// than validated directly (only `helping_scan` sets this).
    pub helped: bool,
}

/// The adaptive scan engine: one initial collect, then dirty-block
/// retry passes that re-read only registers whose block words moved.
///
/// Shared by [`adaptive_scan`] and the helping scan (`crate::help`),
/// which interleaves board polls between passes.
///
/// # The ladder, and why each rung is linearizable
///
/// **Rung 1 (quiescent short-circuit).** The initial collect is
/// bracketed by two readings of every block dirty word (one word per
/// [`BLOCK_REGISTERS`](ts_register::BLOCK_REGISTERS) registers, so a
/// single word for arrays of up to 64). If every block's pair satisfies
/// [`WriteSummary::no_writes_during`], no store landed anywhere in the
/// array during the window and the collect is returned after one value
/// sweep and two dirty-word sweeps.
///
/// **Rung 2 (dirty-block passes).** Otherwise the blocks whose word
/// pair fails `no_writes_during` are *flagged*; each retry pass
/// re-reads only the stamps of registers in flagged blocks (one
/// metered sweep per block), patching entries whose stamp moved, then
/// re-reads the block words to compute the next flag set.
/// The pass windows tile: each pass reuses the previous pass's block
/// readings as its starting bracket, so no store can fall between
/// windows undetected.
///
/// The scan returns when a pass patches nothing (every flagged
/// block's registers re-confirmed their stamps) or when the fresh
/// flag set is empty (no store overlapped the window containing the
/// patches). In both cases every entry was simultaneously current at
/// a point inside the last window: unflagged blocks had no store
/// bracketing it (their words certify quiescence across the window),
/// and flagged blocks' entries are pinned by stamp equality spanning
/// it — stamps change on every store on both backends, so an equal
/// stamp pair certifies the value did not move in between. This is
/// Afek et al.'s double-collect criterion applied per block, with the
/// block words selecting which registers still need the stamp sweep.
pub(crate) struct AdaptiveScanner<'a, T, B: RegisterBackend<T>> {
    array: &'a RegisterArray<T, B>,
    entries: Vec<Stamped<T>>,
    /// Last block-word readings (the opening bracket of the next
    /// window).
    window: Vec<WriteSummary>,
    /// Blocks whose word moved across the previous window.
    flagged: Vec<usize>,
    /// Retry passes performed.
    pub passes: u64,
    /// Registers patched across all passes.
    pub patched: u64,
    validated: bool,
}

impl<'a, T, B> AdaptiveScanner<'a, T, B>
where
    T: Clone + Send + Sync,
    B: RegisterBackend<T>,
{
    /// Performs the initial collect (one register sweep) and the rung-1
    /// validation; check [`is_validated`](Self::is_validated) before
    /// stepping.
    pub fn new(array: &'a RegisterArray<T, B>) -> Self {
        let window = array.block_summaries();
        let entries = array.collect();
        let mut scanner = Self {
            array,
            entries,
            window,
            flagged: Vec::new(),
            passes: 0,
            patched: 0,
            validated: false,
        };
        // Rung 1: every block was quiescent across the collect.
        scanner.advance_window();
        scanner
    }

    /// Re-reads every block word, flags the blocks whose word moved
    /// since the previous reading (in place: no allocation unless a
    /// block is dirty), and validates if none did.
    fn advance_window(&mut self) {
        self.flagged.clear();
        for (block, before) in self.window.iter_mut().enumerate() {
            let after = self.array.block_summary(block);
            if !WriteSummary::no_writes_during(*before, after) {
                self.flagged.push(block);
            }
            *before = after;
        }
        self.validated = self.flagged.is_empty();
    }

    /// Whether the current entries form a validated (linearizable)
    /// view.
    pub fn is_validated(&self) -> bool {
        self.validated
    }

    /// Runs one dirty-block retry pass: one stamp sweep per flagged
    /// block, patching moved entries, then advances the block-word
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if the scan already validated (callers must check
    /// [`is_validated`](Self::is_validated)).
    pub fn step_pass(&mut self) {
        assert!(!self.validated, "scan already validated");
        self.passes += 1;
        let array = self.array;
        let entries = &mut self.entries;
        let mut patched_now = 0u64;
        for &block in &self.flagged {
            array.for_each_stamp(array.block_range(block), |reg, stamp| {
                if stamp != entries[reg].stamp {
                    entries[reg] = array.read_stamped(reg).expect("index in range");
                    patched_now += 1;
                }
            });
        }
        self.patched += patched_now;
        if patched_now == 0 {
            // Every flagged block re-confirmed its stamps across the
            // window boundary; unflagged blocks were quiescent.
            self.validated = true;
            return;
        }
        // Validates if no store overlapped the window the patches were
        // read in.
        self.advance_window();
    }

    /// Consumes the scanner, returning the validated view.
    ///
    /// # Panics
    ///
    /// Panics if the scan has not validated.
    pub fn into_view(self) -> View<T> {
        assert!(self.validated, "scan has not validated");
        View::new(self.entries)
    }
}

/// Repeatedly collects `array` until a collect is validated, and returns
/// that view with the per-call [`ScanOutcome`]: how many dirty-block
/// retry passes ran and how many registers they patched. Zero passes
/// means the first collect validated.
///
/// # Validation ladder
///
/// Each round climbs as little of this ladder as contention forces:
///
/// 1. **Dirty-word short-circuit** — read every block dirty word,
///    collect once, re-read them. If every block's pair satisfies
///    [`WriteSummary::no_writes_during`], no register store executed
///    anywhere in the window: the collect read a quiescent array and
///    is returned after *one* value sweep and two dirty-word sweeps
///    (one load each for arrays of up to 64 registers). This is the
///    common case for quiescent and low-contention arrays (and on
///    oversubscribed hosts, where interfering writers are mostly
///    descheduled).
/// 2. **Dirty-block recollect** — otherwise, compare the per-block
///    dirty words read before and after the collect and re-read only
///    the *stamps* of registers in blocks that moved, patching entries
///    whose stamp changed. Each retry pass costs O(blocks) one-word
///    loads plus O(registers in dirty blocks) stamp reads — not the
///    O(capacity) full sweep of the classic recollect loop — and the
///    pass windows tile, so no store escapes detection. A pass that
///    patches nothing (or whose fresh dirty set is empty) validates
///    the view; see `AdaptiveScanner` (in this module's source) for
///    the rung-by-rung linearizability argument.
///
/// Stamp equality is the classic double-collect success criterion of
/// Afek et al., applied per register: an equal stamp pair brackets a
/// window in which that register was not written, so the captured
/// value was simultaneously present with every other confirmed entry.
///
/// The loop is lock-free but not wait-free: a flood of writers can
/// starve one scanner indefinitely (each pass is cheap, but passes may
/// never stop failing). [`helping_scan`](crate::helping_scan) bounds
/// that starvation. The loop terminates whenever only finitely many
/// writes interfere — which Algorithm 4 guarantees, since each `getTS`
/// writes fewer than `m` times (Lemma 6.14).
///
/// # Example
///
/// ```
/// use ts_register::RegisterArray;
/// use ts_snapshot::adaptive_scan;
///
/// let array: RegisterArray<i32> = RegisterArray::new(2, -1);
/// let (view, outcome) = adaptive_scan(&array);
/// assert_eq!(view.values(), vec![-1, -1]);
/// assert_eq!(outcome.recollect_passes, 0, "a quiescent array validates at once");
/// ```
pub fn adaptive_scan<T, B>(array: &RegisterArray<T, B>) -> (View<T>, ScanOutcome)
where
    T: Clone + Send + Sync,
    B: RegisterBackend<T>,
{
    let mut scanner = AdaptiveScanner::new(array);
    while !scanner.is_validated() {
        scanner.step_pass();
    }
    let outcome = ScanOutcome {
        recollect_passes: scanner.passes,
        patched_registers: scanner.patched,
        helped: false,
    };
    (scanner.into_view(), outcome)
}

/// The textbook double collect of Afek et al., with none of the
/// adaptive ladder: full-array stamped sweeps repeated until two
/// consecutive sweeps agree on every register's stamp.
///
/// This is the **baseline** the adaptive ladder is measured against in
/// `ts-bench`'s writer-storm cells — every retry re-reads all
/// `capacity` registers, where [`adaptive_scan`] re-reads only the
/// registers of blocks whose dirty word moved. Correctness is the
/// classic criterion: stamp equality across consecutive sweeps brackets
/// a window in which no register was written, so the second sweep's
/// values were simultaneously present. Lock-free, not wait-free; use
/// [`helping_scan`](crate::helping_scan) for the bounded version.
///
/// The outcome's `recollect_passes` counts sweeps beyond the mandatory
/// two, and `patched_registers` the stamp mismatches that forced them
/// (so the row is comparable with the adaptive outcome's fields).
pub fn classic_double_collect_scan<T, B>(array: &RegisterArray<T, B>) -> (View<T>, ScanOutcome)
where
    T: Clone + Send + Sync,
    B: RegisterBackend<T>,
{
    let mut outcome = ScanOutcome::default();
    let mut prev = array.collect();
    loop {
        let next = array.collect();
        let moved = prev
            .iter()
            .zip(&next)
            .filter(|(a, b)| a.stamp != b.stamp)
            .count() as u64;
        if moved == 0 {
            return (View::new(next), outcome);
        }
        outcome.recollect_passes += 1;
        outcome.patched_registers += moved;
        prev = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use ts_register::SpaceMeter;

    #[test]
    fn quiescent_scan_returns_current_values() {
        let array: RegisterArray<u64> = RegisterArray::new(3, 0);
        array.write(0, 1).unwrap();
        array.write(2, 3).unwrap();
        let view = adaptive_scan(&array).0;
        assert_eq!(view.values(), vec![1, 0, 3]);
    }

    #[test]
    fn quiescent_scan_short_circuits_to_one_collect() {
        // The summary rung must validate the first sweep: a metered
        // quiescent array records exactly `capacity` reads per scan,
        // not the 2×capacity of an unconditional double collect.
        let meter = SpaceMeter::new(4);
        let array = RegisterArray::with_meter(4, 0u64, meter.clone());
        array.write(1, 9).unwrap();
        let reads_before = meter.snapshot().total_reads();
        let (view, outcome) = adaptive_scan(&array);
        assert_eq!(view.values(), vec![0, 9, 0, 0]);
        assert_eq!(
            meter.snapshot().total_reads() - reads_before,
            4,
            "quiescent scan must validate with the summary word, not a second sweep"
        );
        assert_eq!(outcome.recollect_passes, 0);
        assert_eq!(outcome.patched_registers, 0);
        assert!(!outcome.helped);
    }

    #[test]
    fn quiescent_scanner_validates_on_construction() {
        let meter = SpaceMeter::new(3);
        let array = RegisterArray::with_meter(3, 0u64, meter.clone());
        array.write(2, 7).unwrap();
        let before = meter.snapshot().total_reads();
        let scanner = AdaptiveScanner::new(&array);
        assert!(scanner.is_validated(), "quiescent first collect validates");
        assert_eq!(scanner.entries[2].value, 7);
        assert_eq!(scanner.passes, 0);
        let used = meter.snapshot().total_reads() - before;
        assert_eq!(used, 3, "one sweep for the quiescent collect");
        assert_eq!(scanner.into_view().values(), vec![0, 0, 7]);
    }

    #[test]
    fn classic_scan_matches_quiescent_values_and_counts_sweeps() {
        let array: RegisterArray<u64> = RegisterArray::new(3, 0);
        array.write(1, 6).unwrap();
        let (view, outcome) = classic_double_collect_scan(&array);
        assert_eq!(view.values(), vec![0, 6, 0]);
        assert_eq!(outcome.recollect_passes, 0);
        assert_eq!(outcome.patched_registers, 0);
    }

    #[test]
    fn classic_scan_never_returns_a_torn_view() {
        // Same pair invariant as the adaptive stress below, on the
        // baseline path: classic validation must be equally exact.
        let array = Arc::new(RegisterArray::new(2, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        crossbeam::scope(|s| {
            let writer_array = Arc::clone(&array);
            let writer_stop = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut k = 1u64;
                while !writer_stop.load(Ordering::Relaxed) {
                    writer_array.write(0, k).unwrap();
                    writer_array.write(1, k).unwrap();
                    k += 1;
                }
            });
            for _ in 0..200 {
                let (view, _) = classic_double_collect_scan(&array);
                let v = view.values();
                assert!(
                    v[0] >= v[1] && v[0] - v[1] <= 1,
                    "torn classic view: {v:?} cannot have been simultaneous"
                );
            }
            stop.store(true, Ordering::Relaxed);
        })
        .unwrap();
    }

    #[test]
    fn scan_never_returns_a_torn_view_under_concurrent_writes() {
        // A writer maintains the invariant reg[0] == reg[1] at quiescent
        // points by writing (k, k) pairs register-by-register; the scan
        // must only ever return views where both were written by the same
        // round (values equal) or a prefix thereof. Because each round
        // writes register 0 then register 1 with the same value, any
        // validated view must have been simultaneously present:
        // view[0] >= view[1] and view[0] - view[1] <= 1.
        let array = Arc::new(RegisterArray::new(2, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        crossbeam::scope(|s| {
            let writer_array = Arc::clone(&array);
            let writer_stop = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut k = 1u64;
                while !writer_stop.load(Ordering::Relaxed) {
                    writer_array.write(0, k).unwrap();
                    writer_array.write(1, k).unwrap();
                    k += 1;
                }
            });
            for _ in 0..200 {
                let view = adaptive_scan(&array).0;
                let v = view.values();
                assert!(
                    v[0] >= v[1] && v[0] - v[1] <= 1,
                    "torn view: {v:?} cannot have been simultaneous"
                );
            }
            stop.store(true, Ordering::Relaxed);
        })
        .unwrap();
    }

    #[test]
    fn packed_scan_never_returns_a_torn_view_under_concurrent_writes() {
        // Same invariant as above, on the word-inlined backend: the
        // packed per-register stamps must make the double collect exact.
        let array = Arc::new(ts_register::PackedRegisterArray::<u32>::new_packed(2, 0));
        let stop = Arc::new(AtomicBool::new(false));
        crossbeam::scope(|s| {
            let writer_array = Arc::clone(&array);
            let writer_stop = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut k = 1u32;
                while !writer_stop.load(Ordering::Relaxed) {
                    writer_array.write(0, k).unwrap();
                    writer_array.write(1, k).unwrap();
                    k += 1;
                }
            });
            for _ in 0..200 {
                let view = adaptive_scan(&array).0;
                let v = view.values();
                assert!(
                    v[0] >= v[1] && v[0] - v[1] <= 1,
                    "torn packed view: {v:?} cannot have been simultaneous"
                );
            }
            stop.store(true, Ordering::Relaxed);
        })
        .unwrap();
    }

    #[test]
    fn compact_layout_scans_are_equally_exact() {
        // The validation ladder is layout-independent; hammer the
        // compact (unpadded) layout the same way.
        let array = Arc::new(RegisterArray::<u64>::with_layout(
            2,
            0,
            ts_register::ArrayLayout::Compact,
        ));
        let stop = Arc::new(AtomicBool::new(false));
        crossbeam::scope(|s| {
            let writer_array = Arc::clone(&array);
            let writer_stop = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut k = 1u64;
                while !writer_stop.load(Ordering::Relaxed) {
                    writer_array.write(0, k).unwrap();
                    writer_array.write(1, k).unwrap();
                    k += 1;
                }
            });
            for _ in 0..200 {
                let view = adaptive_scan(&array).0;
                let v = view.values();
                assert!(
                    v[0] >= v[1] && v[0] - v[1] <= 1,
                    "torn compact view: {v:?} cannot have been simultaneous"
                );
            }
            stop.store(true, Ordering::Relaxed);
        })
        .unwrap();
    }

    #[test]
    fn multi_block_scan_stays_exact_across_the_block_boundary() {
        // Paired registers straddling the 64-register block boundary:
        // writes dirty two different blocks, and the scan must still
        // never tear the pair.
        let array = Arc::new(RegisterArray::<u64>::new(65, 0));
        let stop = Arc::new(AtomicBool::new(false));
        crossbeam::scope(|s| {
            let writer_array = Arc::clone(&array);
            let writer_stop = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut k = 1u64;
                while !writer_stop.load(Ordering::Relaxed) {
                    writer_array.write(63, k).unwrap();
                    writer_array.write(64, k).unwrap();
                    k += 1;
                }
            });
            for _ in 0..100 {
                let (view, _) = adaptive_scan(&array);
                let v = view.values();
                assert!(
                    v[63] >= v[64] && v[63] - v[64] <= 1,
                    "torn cross-block view: ({}, {}) cannot have been simultaneous",
                    v[63],
                    v[64]
                );
            }
            stop.store(true, Ordering::Relaxed);
        })
        .unwrap();
    }
}
