//! Fixed-capacity arrays of registers with whole-array collects.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::backend::{BackendRegister, EpochBackend, PackedBackend, RegisterBackend};
use crate::error::CapacityError;
use crate::meter::SpaceMeter;
use crate::packed::Packable;
use crate::pad::CachePadded;
use crate::stamped::{Stamp, Stamped};
use crate::traits::Register;

/// How a [`RegisterArray`] lays its registers out in memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ArrayLayout {
    /// One register per cache line ([`CachePadded`]): writers to
    /// different registers never invalidate each other's lines. The
    /// default — the paper's algorithms assign one writer per register,
    /// which is exactly the false-sharing pattern padding removes.
    #[default]
    Padded,
    /// Registers packed contiguously. Smaller, but neighbouring
    /// registers share cache lines; kept for memory-tight arrays and as
    /// the A/B baseline the contention benchmarks compare against.
    Compact,
}

impl ArrayLayout {
    /// Short label for benchmark rows ("padded" / "compact").
    pub fn label(self) -> &'static str {
        match self {
            ArrayLayout::Padded => "padded",
            ArrayLayout::Compact => "compact",
        }
    }
}

/// A reading of a [`RegisterArray`] dirty word: one block's
/// ([`RegisterArray::block_summary`]) or the array-wide sum over all
/// blocks ([`RegisterArray::summary`]).
///
/// Each block of [`BLOCK_REGISTERS`] registers has one `AtomicU64`
/// beside the registers, packing two 32-bit counts: writes **begun**
/// (high half, bumped immediately before the register store) and writes
/// **completed** (low half, bumped immediately after). Two readings
/// bracketing a collect let a reader prove the collect saw a quiescent
/// block (or array) — see [`WriteSummary::no_writes_during`] — which is
/// what lets the `ts-snapshot` scan skip its second collect in the
/// uncontended case.
///
/// A *single* generation counter could not do this soundly: it detects
/// writes that completed inside the window but not writes *in flight*
/// across it, and an in-flight store landing mid-collect can tear the
/// view even though the generation never moved. Counting begun and
/// completed separately closes that hole: if every write begun by the
/// end of the window had already completed before its start, no store
/// landed inside it at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    raw: u64,
}

impl WriteSummary {
    fn from_halves(begun: u32, completed: u32) -> Self {
        Self {
            raw: (u64::from(begun) << 32) | u64::from(completed),
        }
    }

    /// Writes begun, mod 2³² (bumped before each register store).
    pub fn begun(self) -> u32 {
        (self.raw >> 32) as u32
    }

    /// Writes completed, mod 2³² (bumped after each register store).
    pub fn completed(self) -> u32 {
        self.raw as u32
    }

    /// The array's write generation: total completed writes, mod 2³².
    /// Never decreases (modulo the 32-bit wrap).
    pub fn generation(self) -> u32 {
        self.completed()
    }

    /// Whether **no register store executed** between the moment
    /// `start` was read and the moment `end` was read: every write
    /// begun by `end` had already completed before `start`.
    ///
    /// Since `completed <= begun` at all times, the single equality
    /// pins all four counts: nothing began, completed, or was in flight
    /// inside the window. A collect bracketed by such a pair therefore
    /// read a quiescent array and is trivially linearizable.
    ///
    /// Wrap caveat (same class as the packed stamp wrap): the counts
    /// are 32-bit, so the check could be fooled only by ~2³² write
    /// *begins* landing between the two readings — unreachable in
    /// any real schedule. Both halves stay exact mod 2³² across wraps:
    /// the begun bump wraps off the top of the word, and the writer
    /// that wraps the completed half immediately cancels the carry it
    /// pushed into `begun` (transiently inflating `begun` by one —
    /// the safe, false-non-quiescence direction).
    pub fn no_writes_during(start: WriteSummary, end: WriteSummary) -> bool {
        start.completed() == end.begun()
    }
}

/// One `begun` tick in a packed dirty word (high half).
const SUMMARY_BEGUN_ONE: u64 = 1 << 32;

/// Registers covered by one block dirty word (see
/// [`RegisterArray::block_summary`]): a retrying scanner narrows its
/// recollect to the registers of blocks whose dirty word moved, so the
/// block size trades recollect precision (smaller blocks) against
/// dirty-sweep length (larger blocks). 64 keeps a 4096-register
/// array's dirty sweep at 64 one-word loads, and makes every array of
/// at most 64 registers a single block whose word is the whole-array
/// summary.
pub const BLOCK_REGISTERS: usize = 64;

/// Bumps the `begun` half of a dirty word (immediately before a
/// register store). The bump wraps off the top of the word cleanly.
fn bump_begun(word: &AtomicU64) {
    word.fetch_add(SUMMARY_BEGUN_ONE, Ordering::SeqCst);
}

/// Bumps the `completed` half of a dirty word (immediately after a
/// register store), cancelling the carry when the low half wraps —
/// see the comment in [`RegisterArray::write`].
fn bump_completed(word: &AtomicU64) {
    let prev = word.fetch_add(1, Ordering::SeqCst);
    if prev as u32 == u32::MAX {
        word.fetch_sub(SUMMARY_BEGUN_ONE, Ordering::SeqCst);
    }
}

/// A fixed run of slots stored per an [`ArrayLayout`]: one slot per
/// cache line ([`CachePadded`]) or packed contiguously.
///
/// This is the backing store of [`RegisterArray`], exported so other
/// per-slot-contended structures (e.g. `ts-core`'s collect-max
/// registers) share one layout-dispatch implementation instead of
/// re-deriving it.
pub enum Slots<T> {
    /// One slot per cache line.
    Padded(Vec<CachePadded<T>>),
    /// Slots packed contiguously.
    Compact(Vec<T>),
}

impl<T> Slots<T> {
    /// Builds `capacity` slots with `mk(index)` under `layout`.
    pub fn new(layout: ArrayLayout, capacity: usize, mut mk: impl FnMut(usize) -> T) -> Self {
        match layout {
            ArrayLayout::Padded => {
                Slots::Padded((0..capacity).map(|i| CachePadded::new(mk(i))).collect())
            }
            ArrayLayout::Compact => Slots::Compact((0..capacity).map(mk).collect()),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            Slots::Padded(v) => v.len(),
            Slots::Compact(v) => v.len(),
        }
    }

    /// Whether there are zero slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The layout this run was built with.
    pub fn layout(&self) -> ArrayLayout {
        match self {
            Slots::Padded(_) => ArrayLayout::Padded,
            Slots::Compact(_) => ArrayLayout::Compact,
        }
    }

    /// Borrows slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> &T {
        match self {
            Slots::Padded(v) => &v[index],
            Slots::Compact(v) => &v[index],
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Slots<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slots")
            .field("layout", &self.layout())
            .field("len", &self.len())
            .finish()
    }
}

/// A fixed array `R[0..m)` of stamped atomic registers with optional
/// space metering, generic over the storage [`RegisterBackend`].
///
/// This is the shared data structure of Algorithm 4: `m` multi-writer
/// multi-reader registers, all initialized to the same value (the paper's
/// `⊥`). The array exposes indexed `read`/`write` plus a `collect` (one
/// read of each register in index order), the building block of the
/// double-collect scan.
///
/// # Memory layout, dirty words and metering
///
/// Three contention-aware features live at the array level (see the
/// "Hot paths & memory layout" section of `ARCHITECTURE.md`):
///
/// - registers are laid out **one per cache line** by default
///   ([`ArrayLayout::Padded`]); [`with_layout`](RegisterArray::with_layout)
///   opts into the compact layout for memory-tight arrays;
/// - every write brackets its register store with bumps of **its
///   block's dirty word** (one padded `AtomicU64` per
///   [`BLOCK_REGISTERS`] registers) and of nothing else, so readers can
///   prove "nothing changed while I collected" from one-word loads —
///   see [`WriteSummary`], [`RegisterArray::block_summary`] and the
///   derived whole-array [`RegisterArray::summary`]. The `ts-snapshot`
///   scan uses this to skip its second collect whenever the array is
///   quiescent;
/// - a metered array records each whole-range pass (a collect, a stamp
///   sweep, a value sweep) as one [`SpaceMeter::record_sweep`], so a
///   collect costs the meter at most two counter updates, not one per
///   register.
///
/// The default backend is [`EpochBackend`] (values of any size); arrays
/// of small [`Packable`] values can opt into the word-inlined
/// [`PackedBackend`] via [`RegisterArray::new_packed`] (or the
/// [`PackedRegisterArray`] alias), trading away unbounded contents for
/// allocation-free, pin-free operations.
///
/// # Example
///
/// ```
/// use ts_register::{PackedRegisterArray, RegisterArray};
///
/// let array: RegisterArray<Option<u64>> = RegisterArray::new(3, None);
/// array.write(1, Some(42)).unwrap();
/// assert_eq!(array.read(1).unwrap(), Some(42));
/// let view = array.collect();
/// assert_eq!(view.len(), 3);
/// assert_eq!(array.summary().generation(), 1);
///
/// // Same API, word-inlined storage:
/// let packed: PackedRegisterArray<u32> = RegisterArray::new_packed(3, 0);
/// packed.write(2, 7).unwrap();
/// assert_eq!(packed.read(2).unwrap(), 7);
/// ```
// Aligned like `CachePadded`: every access loads the header (register
// and dirty-word pointers), so it must not share a line with a written
// neighbour, such as an owning object's counters.
#[repr(align(128))]
pub struct RegisterArray<T, B: RegisterBackend<T> = EpochBackend> {
    registers: Slots<B::Reg>,
    /// Per-block dirty words, one per [`BLOCK_REGISTERS`] registers,
    /// packing begun/completed write counts; padded so the bumps never
    /// contend with register lines. A write brackets its store with
    /// bumps of its block word only, so a retrying scanner can localize
    /// interference to blocks instead of re-sweeping the whole array —
    /// see [`RegisterArray::block_summary`]. The whole-array
    /// [`summary`](RegisterArray::summary) is derived from these.
    blocks: Box<[CachePadded<AtomicU64>]>,
    /// Register-traffic meter: single reads and writes are recorded per
    /// register, whole-range passes as one sweep each.
    meter: Option<SpaceMeter>,
    _value: PhantomData<fn(T) -> T>,
}

/// A [`RegisterArray`] of word-inlined [`PackedBackend`] registers.
pub type PackedRegisterArray<T> = RegisterArray<T, PackedBackend>;

impl<T: Clone + Send + Sync + 'static> RegisterArray<T, EpochBackend> {
    /// Creates an epoch-backed array of `capacity` registers, all
    /// holding `initial`.
    pub fn new(capacity: usize, initial: T) -> Self {
        Self::with_backend(capacity, initial)
    }

    /// Creates a metered epoch-backed array; all operations report to
    /// `meter`.
    ///
    /// # Panics
    ///
    /// Panics if `meter.capacity() != capacity`.
    pub fn with_meter(capacity: usize, initial: T, meter: SpaceMeter) -> Self {
        Self::with_backend_and_meter(capacity, initial, meter)
    }
}

impl<T: Packable> RegisterArray<T, PackedBackend> {
    /// Creates a packed array of `capacity` registers, all holding
    /// `initial`.
    pub fn new_packed(capacity: usize, initial: T) -> Self {
        Self::with_backend(capacity, initial)
    }
}

impl<T: Clone + Send + Sync, B: RegisterBackend<T>> RegisterArray<T, B> {
    /// Creates an array of `capacity` registers, all holding `initial`,
    /// on the backend `B`, in the default cache-padded layout.
    pub fn with_backend(capacity: usize, initial: T) -> Self {
        Self::with_layout(capacity, initial, ArrayLayout::Padded)
    }

    /// Creates an array on the backend `B` with an explicit
    /// [`ArrayLayout`].
    pub fn with_layout(capacity: usize, initial: T, layout: ArrayLayout) -> Self {
        let block_count = capacity.div_ceil(BLOCK_REGISTERS);
        Self {
            registers: Slots::new(layout, capacity, |_| B::Reg::with_initial(initial.clone())),
            blocks: (0..block_count)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            meter: None,
            _value: PhantomData,
        }
    }

    /// Creates a metered array on the backend `B`; all operations report
    /// to `meter`.
    ///
    /// # Panics
    ///
    /// Panics if `meter.capacity() != capacity`.
    pub fn with_backend_and_meter(capacity: usize, initial: T, meter: SpaceMeter) -> Self {
        Self::with_layout_and_meter(capacity, initial, ArrayLayout::Padded, meter)
    }

    /// Creates a metered array on the backend `B` with an explicit
    /// [`ArrayLayout`].
    ///
    /// # Panics
    ///
    /// Panics if `meter.capacity() != capacity`.
    pub fn with_layout_and_meter(
        capacity: usize,
        initial: T,
        layout: ArrayLayout,
        meter: SpaceMeter,
    ) -> Self {
        assert_eq!(
            meter.capacity(),
            capacity,
            "meter capacity must match array capacity"
        );
        let mut array = Self::with_layout(capacity, initial, layout);
        array.meter = Some(meter);
        array
    }

    /// Number of registers in the array.
    pub fn capacity(&self) -> usize {
        self.registers.len()
    }

    /// The memory layout this array was built with.
    pub fn layout(&self) -> ArrayLayout {
        self.registers.layout()
    }

    /// Returns the meter attached to this array, if any.
    pub fn meter(&self) -> Option<&SpaceMeter> {
        self.meter.as_ref()
    }

    /// The whole-array write summary: per-half wrapping sums of every
    /// block dirty word (one `SeqCst` load per block, unmetered; a
    /// single load for arrays of at most [`BLOCK_REGISTERS`] registers).
    ///
    /// Two of these bracketing a collect prove, via
    /// [`WriteSummary::no_writes_during`], that no register store
    /// executed inside the window. The sum is sound although its block
    /// loads happen at different instants: every block's load in the
    /// opening reading precedes the collect and every load in the
    /// closing one follows it, so each block's `completed` before is at
    /// most its `begun` after, and the two sums can only be equal if
    /// every block's pair is.
    pub fn summary(&self) -> WriteSummary {
        let (mut begun, mut completed) = (0u32, 0u32);
        for block in 0..self.blocks.len() {
            let s = self.block_summary(block);
            begun = begun.wrapping_add(s.begun());
            completed = completed.wrapping_add(s.completed());
        }
        WriteSummary::from_halves(begun, completed)
    }

    /// Number of block dirty words (`ceil(capacity / BLOCK_REGISTERS)`).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block covering register `index`.
    pub fn block_of(index: usize) -> usize {
        index / BLOCK_REGISTERS
    }

    /// The register indices covered by `block` (clamped to capacity for
    /// the final, possibly partial, block).
    ///
    /// # Panics
    ///
    /// Panics if `block >= block_count()`.
    pub fn block_range(&self, block: usize) -> std::ops::Range<usize> {
        assert!(block < self.blocks.len(), "block {block} out of range");
        let start = block * BLOCK_REGISTERS;
        start..self.capacity().min(start + BLOCK_REGISTERS)
    }

    /// Reads the dirty word of `block` (one `SeqCst` load, unmetered —
    /// like [`summary`](RegisterArray::summary), the dirty words are
    /// auxiliary state, not one of the array's registers).
    ///
    /// Two of these bracketing a window prove, via
    /// [`WriteSummary::no_writes_during`], that no store to any register
    /// of that block executed inside the window — what lets a retrying
    /// scanner re-read only the registers of blocks that actually
    /// moved.
    ///
    /// # Panics
    ///
    /// Panics if `block >= block_count()`.
    pub fn block_summary(&self, block: usize) -> WriteSummary {
        WriteSummary {
            raw: self.blocks[block].load(Ordering::SeqCst),
        }
    }

    /// Reads every block dirty word once, in block order (unmetered).
    pub fn block_summaries(&self) -> Vec<WriteSummary> {
        (0..self.blocks.len())
            .map(|b| self.block_summary(b))
            .collect()
    }

    fn check(&self, index: usize) -> Result<(), CapacityError> {
        if index < self.registers.len() {
            Ok(())
        } else {
            Err(CapacityError {
                index,
                capacity: self.registers.len(),
            })
        }
    }

    /// Reads register `index`.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn read(&self, index: usize) -> Result<T, CapacityError> {
        Ok(self.read_stamped(index)?.value)
    }

    /// Reads register `index` together with its write stamp.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn read_stamped(&self, index: usize) -> Result<Stamped<T>, CapacityError> {
        self.check(index)?;
        if let Some(meter) = &self.meter {
            meter.record_read(index);
        }
        Ok(self.registers.get(index).read_stamped())
    }

    /// Reads just the write stamp of register `index` — the cheapest
    /// change probe a backend offers (no value clone on the epoch
    /// backend). One register read for metering purposes.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn stamp(&self, index: usize) -> Result<Stamp, CapacityError> {
        self.check(index)?;
        if let Some(meter) = &self.meter {
            meter.record_read(index);
        }
        Ok(self.registers.get(index).stamp())
    }

    /// Writes `value` to register `index`, bracketed by the
    /// begun/completed bumps of its block's dirty word.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn write(&self, index: usize, value: T) -> Result<(), CapacityError> {
        self.check(index)?;
        if let Some(meter) = &self.meter {
            meter.record_write(index);
        }
        // `SeqCst` bumps so dirty-word loads, register accesses and
        // these RMWs order consistently; see the ordering contract in
        // `crate::backend`. The begun bump (high half) wraps off the
        // top of the word cleanly. One word brackets the store: its
        // block's, which also feeds the derived whole-array summary.
        //
        // On the completed bump, when the low half wraps its +1 carries
        // into the begun half; `bump_completed` cancels the carry so
        // both halves stay exact mod 2³². Between its two RMWs readers
        // can see `begun` inflated by one — the safe direction (a
        // spurious "write in flight" only costs a validation sweep,
        // never a false quiescence claim). Without this, one wrap would
        // leave `begun == completed + 1` at quiescence *forever*,
        // permanently disabling the scan's dirty-word short-circuit after
        // 2³² writes.
        let block = &self.blocks[Self::block_of(index)];
        bump_begun(block);
        self.registers.get(index).write(value);
        bump_completed(block);
        Ok(())
    }

    /// Visits every register of `range` in index order, then records
    /// the pass as one sweep on the meter.
    fn sweep(&self, range: Range<usize>, mut visit: impl FnMut(usize, &B::Reg)) {
        for index in range.clone() {
            visit(index, self.registers.get(index));
        }
        if let Some(meter) = &self.meter {
            meter.record_sweep(range);
        }
    }

    /// Reads every register once, in index order, returning the observed
    /// values with their stamps.
    ///
    /// A single collect is *not* a linearizable view of the whole array
    /// (writes may interleave between the per-register reads) — unless
    /// [`summary`](RegisterArray::summary) reads bracketing it satisfy
    /// [`WriteSummary::no_writes_during`]. The `ts-snapshot` scan
    /// packages that check; use it when an atomic view is required.
    ///
    /// Metered as one sweep over the whole array.
    pub fn collect(&self) -> Vec<Stamped<T>> {
        let mut view = Vec::with_capacity(self.capacity());
        self.sweep(0..self.capacity(), |_, reg| view.push(reg.read_stamped()));
        view
    }

    /// Reads every register's stamp once, in index order — a collect
    /// that only observes *whether* registers changed, at the cost of
    /// one stamp read each (no value clones). The scan's validation
    /// sweeps use this instead of a second full collect. Metered as one
    /// sweep.
    pub fn collect_stamps(&self) -> Vec<Stamp> {
        let mut stamps = Vec::with_capacity(self.capacity());
        self.for_each_stamp(0..self.capacity(), |_, stamp| stamps.push(stamp));
        stamps
    }

    /// Reads the stamp of every register in `range`, in index order,
    /// passing `(index, stamp)` to `f` — a partial
    /// [`collect_stamps`](Self::collect_stamps), metered as one sweep.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > capacity()`.
    pub fn for_each_stamp(&self, range: Range<usize>, mut f: impl FnMut(usize, Stamp)) {
        self.sweep(range, |index, reg| f(index, reg.stamp()));
    }

    /// Reads the value of every register in `range`, in index order,
    /// passing `(index, value)` to `f`; `before_read` runs immediately
    /// before each register read (the step seam of the replay harness,
    /// `|| {}` otherwise). Metered as one sweep; the meter update is
    /// not a register access, so it adds no step to the seam.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > capacity()`.
    pub fn for_each_value(
        &self,
        range: Range<usize>,
        mut before_read: impl FnMut(),
        mut f: impl FnMut(usize, T),
    ) {
        self.sweep(range, |index, reg| {
            before_read();
            f(index, reg.read());
        });
    }
}

impl<T, B> fmt::Debug for RegisterArray<T, B>
where
    T: Clone + Send + Sync + fmt::Debug,
    B: RegisterBackend<T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegisterArray")
            .field("capacity", &self.capacity())
            .field("layout", &self.layout())
            .field("values", &self.collect())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_array_holds_initial_everywhere() {
        let array: RegisterArray<u32> = RegisterArray::new(4, 7);
        assert_eq!(array.layout(), ArrayLayout::Padded);
        for i in 0..4 {
            assert_eq!(array.read(i).unwrap(), 7);
        }
    }

    #[test]
    fn packed_array_holds_initial_everywhere() {
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(4, 7);
        for i in 0..4 {
            assert_eq!(array.read(i).unwrap(), 7);
        }
    }

    #[test]
    fn compact_layout_behaves_identically() {
        let array: RegisterArray<u32> = RegisterArray::with_layout(3, 0, ArrayLayout::Compact);
        assert_eq!(array.layout(), ArrayLayout::Compact);
        assert_eq!(ArrayLayout::Compact.label(), "compact");
        array.write(1, 9).unwrap();
        assert_eq!(array.read(1).unwrap(), 9);
        assert_eq!(array.summary().generation(), 1);
    }

    #[test]
    fn out_of_range_read_errors() {
        let array: RegisterArray<u32> = RegisterArray::new(2, 0);
        let err = array.read(2).unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(err.capacity, 2);
    }

    #[test]
    fn out_of_range_write_errors() {
        let array: RegisterArray<u32> = RegisterArray::new(2, 0);
        assert!(array.write(5, 1).is_err());
    }

    #[test]
    fn collect_returns_all_values_in_order_on_both_backends() {
        fn run<B: RegisterBackend<u32>>(array: RegisterArray<u32, B>) {
            array.write(0, 10).unwrap();
            array.write(2, 30).unwrap();
            let view = array.collect();
            let values: Vec<u32> = view.into_iter().map(|s| s.value).collect();
            assert_eq!(values, vec![10, 0, 30]);
        }
        run(RegisterArray::<u32>::new(3, 0));
        run(RegisterArray::<u32, PackedBackend>::with_backend(3, 0));
    }

    #[test]
    fn stamps_detect_rewrites_on_both_backends() {
        fn run<B: RegisterBackend<u32>>(array: RegisterArray<u32, B>) {
            let before = array.read_stamped(0).unwrap();
            array.write(0, before.value).unwrap();
            let after = array.read_stamped(0).unwrap();
            assert_eq!(before.value, after.value);
            assert_ne!(before.stamp, after.stamp, "ABA rewrite went undetected");
            assert_eq!(array.stamp(0).unwrap(), after.stamp);
        }
        run(RegisterArray::<u32>::new(1, 5));
        run(RegisterArray::<u32, PackedBackend>::with_backend(1, 5));
    }

    #[test]
    fn summary_counts_writes_and_detects_quiescence() {
        let array: RegisterArray<u32> = RegisterArray::new(3, 0);
        let s0 = array.summary();
        assert_eq!(s0.begun(), 0);
        assert_eq!(s0.completed(), 0);
        let s1 = array.summary();
        assert!(WriteSummary::no_writes_during(s0, s1));

        array.write(0, 1).unwrap();
        array.write(1, 2).unwrap();
        let s2 = array.summary();
        assert_eq!(s2.begun(), 2);
        assert_eq!(s2.generation(), 2);
        assert!(!WriteSummary::no_writes_during(s0, s2));
        assert!(WriteSummary::no_writes_during(s2, array.summary()));
    }

    #[test]
    fn summary_survives_the_completed_half_wrap() {
        // Seed block 0's word (the only block, so the derived summary
        // is that word) at begun == completed == u32::MAX (4 billion
        // quiescent writes ago) and cross the wrap: the carry the
        // completed bump pushes into begun must be cancelled, so the
        // quiescence check keeps working on the far side.
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(1, 0);
        let seeded = (u64::from(u32::MAX) << 32) | u64::from(u32::MAX);
        array.blocks[0].store(seeded, Ordering::SeqCst);
        array.write(0, 7).unwrap();
        let s = array.summary();
        assert_eq!(s.begun(), 0, "begun must wrap cleanly");
        assert_eq!(s.completed(), 0, "completed must wrap cleanly");
        assert!(
            WriteSummary::no_writes_during(s, array.summary()),
            "quiescence detection must survive the 2^32 wrap"
        );
        // And writes keep counting normally afterwards.
        array.write(0, 8).unwrap();
        assert_eq!(array.summary().generation(), 1);
    }

    #[test]
    fn block_counts_cover_the_boundary_sizes() {
        for (capacity, blocks) in [
            (0, 0),
            (1, 1),
            (63, 1),
            (64, 1),
            (65, 2),
            (128, 2),
            (129, 3),
        ] {
            let array: PackedRegisterArray<u32> = RegisterArray::new_packed(capacity, 0);
            assert_eq!(array.block_count(), blocks, "capacity {capacity}");
            if blocks > 0 {
                let mut covered = 0;
                for b in 0..blocks {
                    let range = array.block_range(b);
                    assert_eq!(range.start, covered);
                    covered = range.end;
                }
                assert_eq!(covered, capacity, "blocks must tile the array");
            }
        }
    }

    #[test]
    fn writes_dirty_only_their_own_block() {
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(65, 0);
        let pre = array.block_summaries();
        array.write(64, 9).unwrap();
        let post = array.block_summaries();
        assert!(
            WriteSummary::no_writes_during(pre[0], post[0]),
            "block 0 must stay clean"
        );
        assert!(
            !WriteSummary::no_writes_during(pre[1], post[1]),
            "block 1 must record the write"
        );
        assert_eq!(post[1].generation(), 1);
        // The derived whole-array summary still sees every write.
        assert_eq!(array.summary().generation(), 1);
        assert_eq!(PackedRegisterArray::<u32>::block_of(64), 1);
        assert_eq!(PackedRegisterArray::<u32>::block_of(63), 0);
    }

    #[test]
    fn block_summary_survives_the_completed_half_wrap() {
        // The carry-cancel regression read through `block_summary`
        // (`summary_survives_the_completed_half_wrap` reads the same
        // word through the derived summary): seed it at
        // begun == completed == u32::MAX and cross the wrap.
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(1, 0);
        let seeded = (u64::from(u32::MAX) << 32) | u64::from(u32::MAX);
        array.blocks[0].store(seeded, Ordering::SeqCst);
        array.write(0, 7).unwrap();
        let s = array.block_summary(0);
        assert_eq!(s.begun(), 0, "block begun must wrap cleanly");
        assert_eq!(s.completed(), 0, "block completed must wrap cleanly");
        assert!(
            WriteSummary::no_writes_during(s, array.block_summary(0)),
            "block quiescence detection must survive the 2^32 wrap"
        );
        array.write(0, 8).unwrap();
        assert_eq!(array.block_summary(0).generation(), 1);
    }

    #[test]
    fn tail_block_summary_survives_the_completed_half_wrap() {
        // The wrap-carry regression on the partial tail block of a
        // boundary-sized array: seed block 1 (covering only register
        // 64 of a 65-register array) at begun == completed == u32::MAX
        // and cross the wrap. Block 0 must stay untouched throughout.
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(65, 0);
        let seeded = (u64::from(u32::MAX) << 32) | u64::from(u32::MAX);
        array.blocks[1].store(seeded, Ordering::SeqCst);
        let block0_before = array.block_summary(0);
        array.write(64, 7).unwrap();
        let s = array.block_summary(1);
        assert_eq!(s.begun(), 0, "tail block begun must wrap cleanly");
        assert_eq!(s.completed(), 0, "tail block completed must wrap cleanly");
        assert!(
            WriteSummary::no_writes_during(s, array.block_summary(1)),
            "tail block quiescence detection must survive the 2^32 wrap"
        );
        assert!(
            WriteSummary::no_writes_during(block0_before, array.block_summary(0)),
            "a tail-block write must not dirty block 0"
        );
        array.write(64, 8).unwrap();
        assert_eq!(array.block_summary(1).generation(), 1);
    }

    #[test]
    fn block_summary_loads_are_unmetered() {
        let meter = SpaceMeter::new(3);
        let array = RegisterArray::with_meter(3, 0u32, meter.clone());
        let _ = array.block_summaries();
        let _ = array.summary();
        assert_eq!(
            meter.snapshot().total_reads(),
            0,
            "summary words are auxiliary state, not registers"
        );
    }

    #[test]
    fn summary_sums_blocks_across_a_wrap() {
        // Two blocks, one seeded at begun == completed == u32::MAX: the
        // per-half sums must wrap exactly (no carry from completed into
        // begun) and prove quiescence on both sides of the wrap.
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(65, 0);
        let seeded = (u64::from(u32::MAX) << 32) | u64::from(u32::MAX);
        array.blocks[1].store(seeded, Ordering::SeqCst);
        array.write(0, 1).unwrap();
        let s = array.summary();
        assert_eq!((s.begun(), s.completed()), (0, 0));
        assert!(WriteSummary::no_writes_during(s, array.summary()));
        array.write(64, 2).unwrap();
        assert!(!WriteSummary::no_writes_during(s, array.summary()));
        assert_eq!(array.summary().generation(), 1);
    }

    #[test]
    fn sweeps_meter_one_read_per_register() {
        let meter = SpaceMeter::new(130);
        let array = RegisterArray::with_meter(130, 0u32, meter.clone());
        let _ = array.collect();
        let _ = array.collect_stamps();
        array.for_each_stamp(array.block_range(2), |_, _| {});
        let mut pauses = 0;
        let mut seen = Vec::new();
        array.for_each_value(64..66, || pauses += 1, |i, v| seen.push((i, v)));
        assert_eq!(pauses, 2);
        assert_eq!(seen, vec![(64, 0), (65, 0)]);
        let reads = meter.snapshot().reads;
        let expected: Vec<u64> = (0..130)
            .map(|i| 2 + u64::from(i >= 128) + u64::from((64..66).contains(&i)))
            .collect();
        assert_eq!(reads, expected);
    }

    #[test]
    fn collect_stamps_matches_full_collect() {
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(3, 0);
        array.write(2, 5).unwrap();
        let full: Vec<Stamp> = array.collect().into_iter().map(|s| s.stamp).collect();
        assert_eq!(array.collect_stamps(), full);
    }

    #[test]
    fn padded_registers_sit_on_distinct_cache_lines() {
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(4, 0);
        match &array.registers {
            Slots::Padded(regs) => {
                for pair in regs.windows(2) {
                    let a = (&*pair[0]) as *const _ as usize;
                    let b = (&*pair[1]) as *const _ as usize;
                    assert!(b - a >= 128, "registers {a:#x}/{b:#x} share a line");
                }
            }
            Slots::Compact(_) => panic!("default layout must be padded"),
        }
    }

    #[test]
    fn header_is_aligned_off_its_neighbours() {
        assert_eq!(std::mem::align_of::<PackedRegisterArray<u32>>(), 128);
        assert_eq!(std::mem::align_of::<RegisterArray<String>>(), 128);
    }

    #[test]
    fn metered_array_reports_operations() {
        let meter = SpaceMeter::new(3);
        let array = RegisterArray::with_meter(3, 0u32, meter.clone());
        array.write(1, 5).unwrap();
        let _ = array.collect();
        let snap = meter.snapshot();
        assert_eq!(snap.total_writes(), 1);
        assert_eq!(snap.total_reads(), 3);
        assert_eq!(snap.max_written_index(), Some(1));
    }

    #[test]
    fn metered_packed_array_reports_operations() {
        let meter = SpaceMeter::new(2);
        let array: PackedRegisterArray<u8> =
            RegisterArray::with_backend_and_meter(2, 0, meter.clone());
        array.write(0, 1).unwrap();
        let _ = array.read(1).unwrap();
        let snap = meter.snapshot();
        assert_eq!(snap.total_writes(), 1);
        assert_eq!(snap.total_reads(), 1);
    }

    #[test]
    #[should_panic(expected = "meter capacity must match")]
    fn mismatched_meter_capacity_panics() {
        let meter = SpaceMeter::new(2);
        let _ = RegisterArray::with_meter(3, 0u32, meter);
    }

    #[test]
    fn zero_capacity_array_is_usable() {
        let array: RegisterArray<u8> = RegisterArray::new(0, 0);
        assert_eq!(array.capacity(), 0);
        assert!(array.collect().is_empty());
        assert!(array.collect_stamps().is_empty());
        assert!(array.read(0).is_err());
    }
}
