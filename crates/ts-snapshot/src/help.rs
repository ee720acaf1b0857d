//! Wait-free helping for the adaptive scan: era-tagged help records
//! published by writers, adopted by starved scanners.
//!
//! The dirty-block ladder of [`adaptive_scan`](crate::adaptive_scan)
//! makes each retry cheap (O(dirty) instead of O(n)) but not *bounded*:
//! a writer storm can keep failing a scanner's validation forever. This
//! module adds the classic Afek-et-al.-style helping construction on
//! top of the ladder, adapted to multi-writer register arrays:
//!
//! - A scanner that fails `starvation_bound` retry passes raises a
//!   **distress** flag on the shared [`HelpBoard`] and keeps retrying,
//!   now polling the board between passes.
//! - A writer calling [`helping_write`] while distress is raised first
//!   runs its own adaptive scan, **publishes** the resulting view to
//!   its board slot tagged with the *era* it read before scanning, and
//!   only then performs its store.
//! - The starved scanner **adopts** any published record whose era tag
//!   is at least the era it announced at scan start — such a record's
//!   view was collected entirely inside the scanner's interval, so
//!   returning it is linearizable.
//!
//! # Linearizability of adoption
//!
//! Every scan announces itself by bumping the board's era counter
//! (scanners) or reading it (helpers) *before* its first collect, and
//! every published record carries the era its producing scan read at
//! start — a helper that itself adopted re-publishes the **original**
//! tag, never its own era, so a tag `t` always certifies "this view's
//! linearization point lies after the era counter first reached `t`".
//! A scanner that bumped the era to `e₀` therefore knows any record
//! tagged `≥ e₀` linearized after its own scan began; the record was
//! read before the scan returns, so the adopted view linearizes inside
//! the scanner's interval. (Adopting by publication *time* alone would
//! be unsound: a record published after the scan began may hold a view
//! collected long before it.)
//!
//! # The starvation bound
//!
//! Once a scanner's distress is visible, every writer performs at most
//! one more store before its next [`helping_write`] observes distress
//! and publishes a qualifying record ahead of its store (its era read
//! follows the scanner's bump, so its tag qualifies — and if it
//! adopted, the preserved tag still qualifies, because the record it
//! adopted from was itself produced under distress). Each failed retry
//! pass consumes at least one interfering store, so with `w` writers
//! the scanner validates or adopts within `starvation_bound + w + 1`
//! passes of raising distress: `scan` is wait-free provided all
//! writers route their stores through `helping_write`. Writers are
//! wait-free too — a helper's own collect is bounded by the same
//! pigeonhole (any writer interfering twice with it published a
//! qualifying record in between), and a helper abandons helping as
//! soon as distress clears.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ts_register::{CachePadded, CapacityError, RegisterArray, RegisterBackend, StampedRegister};

use crate::scan::{AdaptiveScanner, ScanOutcome};
use crate::view::View;

/// Tuning knobs for [`helping_scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanPolicy {
    /// Failed dirty-block retry passes a scanner tolerates before
    /// raising distress on the help board. Lower bounds the scanner's
    /// latency under storm (it adopts sooner); higher keeps writers on
    /// their fast path longer (they only help while distress is up).
    pub starvation_bound: u32,
}

impl Default for ScanPolicy {
    fn default() -> Self {
        Self {
            starvation_bound: 4,
        }
    }
}

/// One era-tagged published view (see the module docs for the tag
/// invariant).
struct HelpRecord<T> {
    era_tag: u64,
    view: Arc<View<T>>,
}

impl<T> Clone for HelpRecord<T> {
    fn clone(&self) -> Self {
        Self {
            era_tag: self.era_tag,
            view: Arc::clone(&self.view),
        }
    }
}

/// The shared helping substrate beside a [`RegisterArray`]: the era
/// counter, the distress gauge, and one era-tagged record slot per
/// writer (single-writer, epoch-reclaimed [`StampedRegister`]s — the
/// record's sequence stamp is the register's write stamp).
///
/// One board serves one array; writers are identified by a dense index
/// `0..writers` (their board slot), independent of which array
/// register they store to.
pub struct HelpBoard<T> {
    era: CachePadded<AtomicU64>,
    distress: CachePadded<AtomicU64>,
    slots: Vec<CachePadded<StampedRegister<Option<HelpRecord<T>>>>>,
}

impl<T: Clone + Send + Sync + 'static> HelpBoard<T> {
    /// Creates a board with one publication slot per writer.
    pub fn new(writers: usize) -> Self {
        Self {
            era: CachePadded::new(AtomicU64::new(0)),
            distress: CachePadded::new(AtomicU64::new(0)),
            slots: (0..writers)
                .map(|_| CachePadded::new(StampedRegister::new(None)))
                .collect(),
        }
    }

    /// Number of writer slots.
    pub fn writers(&self) -> usize {
        self.slots.len()
    }

    /// Scanners currently starved past their policy bound (writers
    /// help while this is non-zero).
    pub fn distress_level(&self) -> u64 {
        self.distress.load(Ordering::SeqCst)
    }

    /// The current era (diagnostics; bumped once per `helping_scan`).
    pub fn era(&self) -> u64 {
        self.era.load(Ordering::SeqCst)
    }

    /// Returns a published record with `era_tag >= min_era`, if any
    /// slot holds one.
    fn adopt(&self, min_era: u64) -> Option<(u64, Arc<View<T>>)> {
        self.slots.iter().find_map(|slot| {
            slot.read_with(|record| {
                record
                    .as_ref()
                    .filter(|r| r.era_tag >= min_era)
                    .map(|r| (r.era_tag, Arc::clone(&r.view)))
            })
        })
    }

    fn publish(&self, writer: usize, era_tag: u64, view: Arc<View<T>>) {
        self.slots[writer].write(Some(HelpRecord { era_tag, view }));
    }
}

impl<T> fmt::Debug for HelpBoard<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HelpBoard")
            .field("writers", &self.slots.len())
            .field("era", &self.era.load(Ordering::Relaxed))
            .field("distress", &self.distress.load(Ordering::Relaxed))
            .finish()
    }
}

/// Wait-free adaptive scan: the dirty-block ladder of
/// [`adaptive_scan`](crate::adaptive_scan), plus board-mediated
/// helping once `policy.starvation_bound` retry passes have failed.
///
/// Returns the view and a [`ScanOutcome`] whose `helped` flag reports
/// whether the view was adopted from a writer's published record
/// instead of validated directly. Wait-freedom holds when every store
/// to `array` goes through [`helping_write`] on the same board; stores
/// that bypass the board degrade this to the lock-free guarantee of
/// `adaptive_scan` (they can starve the scanner without ever
/// publishing help).
pub fn helping_scan<T, B>(
    array: &RegisterArray<T, B>,
    board: &HelpBoard<T>,
    policy: &ScanPolicy,
) -> (View<T>, ScanOutcome)
where
    T: Clone + Send + Sync + 'static,
    B: RegisterBackend<T>,
{
    // Announce the scan: records tagged >= e0 were collected after
    // this bump, i.e. inside our interval.
    let e0 = board.era.fetch_add(1, Ordering::SeqCst) + 1;
    let mut scanner = AdaptiveScanner::new(array);
    let mut distressed = false;
    while !scanner.is_validated() {
        if distressed {
            if let Some((_, view)) = board.adopt(e0) {
                board.distress.fetch_sub(1, Ordering::SeqCst);
                let outcome = ScanOutcome {
                    recollect_passes: scanner.passes,
                    patched_registers: scanner.patched,
                    helped: true,
                };
                return ((*view).clone(), outcome);
            }
        } else if scanner.passes >= u64::from(policy.starvation_bound) {
            board.distress.fetch_add(1, Ordering::SeqCst);
            distressed = true;
            continue; // poll once before paying for another pass
        }
        scanner.step_pass();
    }
    if distressed {
        board.distress.fetch_sub(1, Ordering::SeqCst);
    }
    let outcome = ScanOutcome {
        recollect_passes: scanner.passes,
        patched_registers: scanner.patched,
        helped: false,
    };
    (scanner.into_view(), outcome)
}

/// What a [`helping_write`] did besides its store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteOutcome {
    /// A help record was published ahead of the store (distress was
    /// raised and the helper's collect completed or adopted).
    pub published_help: bool,
    /// Dirty-block retry passes the helper's own collect performed.
    pub recollect_passes: u64,
}

/// Stores `value` into `array[index]`, first publishing help if any
/// scanner is in distress: the writer runs its own adaptive collect
/// (adopting from the board if it is itself interfered with), writes
/// the era-tagged view into its board `slot`, and only then performs
/// the store — so the store can never starve a scanner without having
/// handed it a qualifying view first.
///
/// `slot` identifies the writer on the board (`0..board.writers()`);
/// `index` is the array register being written, as in
/// [`RegisterArray::write`].
///
/// # Errors
///
/// Returns [`CapacityError`] if `index` is out of range (the help
/// publication is skipped in that case too).
///
/// # Panics
///
/// Panics if `slot >= board.writers()`.
pub fn helping_write<T, B>(
    array: &RegisterArray<T, B>,
    board: &HelpBoard<T>,
    slot: usize,
    index: usize,
    value: T,
) -> Result<WriteOutcome, CapacityError>
where
    T: Clone + Send + Sync + 'static,
    B: RegisterBackend<T>,
{
    assert!(slot < board.writers(), "writer slot {slot} out of range");
    if index >= array.capacity() {
        // Surface the same error write() would, without publishing.
        return array.write(index, value).map(|_| WriteOutcome::default());
    }
    let mut outcome = WriteOutcome::default();
    if board.distress_level() > 0 {
        // Tag with the era read *before* collecting: the view below is
        // collected entirely after this read, so the tag certifies the
        // module-level invariant.
        let era = board.era.load(Ordering::SeqCst);
        let mut scanner = AdaptiveScanner::new(array);
        loop {
            if scanner.is_validated() {
                outcome.recollect_passes = scanner.passes;
                board.publish(slot, era, Arc::new(scanner.into_view()));
                outcome.published_help = true;
                break;
            }
            if board.distress_level() == 0 {
                // Every starved scanner finished; abandon the help
                // (publishing a half-validated view would be unsound,
                // and nobody is waiting).
                outcome.recollect_passes = scanner.passes;
                break;
            }
            if let Some((tag, view)) = board.adopt(era) {
                // Preserve the adopted record's tag — re-tagging with
                // our own era would claim a freshness the view does
                // not have (see the module docs).
                outcome.recollect_passes = scanner.passes;
                board.publish(slot, tag, view);
                outcome.published_help = true;
                break;
            }
            scanner.step_pass();
        }
    }
    array.write(index, value)?;
    Ok(outcome)
}

/// Replay-gated rendition of [`helping_scan`], announcing one `pause`
/// immediately before every shared-memory access, in the exact order of
/// `ts_core::model::HelpingScanMachine` (the model twin): era read, era
/// bump CAS, one read per register for the opening collect, then
/// full-array validate sweeps (the model has one register per dirty
/// block, so a validate pass is a full sweep, not a dirty-block one)
/// with board polls — one read per slot, ascending — between failed
/// sweeps once distress is up.
///
/// Two deliberate divergences from [`helping_scan`], both mirroring the
/// model so a recorded schedule drives the same access sequence:
///
/// - **Sticky distress**: raised with a plain store of 1 and never
///   decremented. A decrement after adoption would be an unannounced
///   access that can flip a concurrent writer's path choice mid-replay.
/// - **Effective bound `>= 1`**: distress can only be raised *after* a
///   failed validate sweep (the model's `RaiseDistress` follows a
///   patched `Validate`), so a `starvation_bound` of 0 behaves as 1.
///
/// The outcome's `recollect_passes` counts failed validate sweeps (0 =
/// the first double collect validated), matching the retry semantics of
/// the unpaused ladder.
pub fn helping_scan_paused<T, B>(
    array: &RegisterArray<T, B>,
    board: &HelpBoard<T>,
    policy: &ScanPolicy,
    mut pause: impl FnMut(),
) -> (View<T>, ScanOutcome)
where
    T: Clone + Send + Sync + 'static,
    B: RegisterBackend<T>,
{
    let n = array.capacity();
    pause(); // era read
    let mut e = board.era.load(Ordering::SeqCst);
    let e0 = loop {
        pause(); // era bump CAS (one announced access per attempt)
        match board
            .era
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => break e + 1,
            Err(prior) => e = prior,
        }
    };
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        pause(); // opening collect, one read per register
        entries.push(array.read_stamped(i).expect("index in range"));
    }
    let bound = u64::from(policy.starvation_bound.max(1));
    let mut failed = 0u64;
    let mut patched_total = 0u64;
    let mut distressed = false;
    loop {
        // Validate sweep: re-read every register, patch moved stamps.
        let mut patched_now = 0u64;
        for (i, entry) in entries.iter_mut().enumerate() {
            pause(); // validate read
            let fresh = array.read_stamped(i).expect("index in range");
            if fresh.stamp != entry.stamp {
                *entry = fresh;
                patched_now += 1;
            }
        }
        if patched_now == 0 {
            let outcome = ScanOutcome {
                recollect_passes: failed,
                patched_registers: patched_total,
                helped: false,
            };
            return (View::new(entries), outcome);
        }
        failed += 1;
        patched_total += patched_now;
        if !distressed && failed >= bound {
            pause(); // distress store (sticky; see the doc comment)
            board.distress.store(1, Ordering::SeqCst);
            distressed = true;
        }
        if distressed {
            for slot in &board.slots {
                pause(); // board poll, one read per slot, ascending
                let adopted = slot.read_with(|record| {
                    record
                        .as_ref()
                        .filter(|r| r.era_tag >= e0)
                        .map(|r| Arc::clone(&r.view))
                });
                if let Some(view) = adopted {
                    let outcome = ScanOutcome {
                        recollect_passes: failed,
                        patched_registers: patched_total,
                        helped: true,
                    };
                    return ((*view).clone(), outcome);
                }
            }
        }
    }
}

/// Replay-gated rendition of a storming collect-max writer routed
/// through the help board: the writer's op is a `getTS`-style collect
/// (`max + 1`) stored into `array[index]`, helping first when distress
/// is up — the model twin's writer, announced one `pause` per
/// shared-memory access.
///
/// Calm path (distress read as 0): one value read per register, then
/// the store. Helping path: era read, stamped collect, full-array
/// validate sweeps **looped until clean** (the model's helper neither
/// adopts nor abandons — abandoning would hinge on an unannounced
/// distress re-read), publish the era-tagged view on the own board
/// slot, then the store. Returns the stored timestamp and the
/// [`WriteOutcome`], whose `recollect_passes` counts failed validate
/// sweeps.
///
/// # Panics
///
/// Panics if `slot >= board.writers()` or `index >= array.capacity()`
/// (replay workloads always pass in-range indices; a recoverable error
/// path would add unannounced accesses).
pub fn storm_write_paused<B>(
    array: &RegisterArray<u64, B>,
    board: &HelpBoard<u64>,
    slot: usize,
    index: usize,
    mut pause: impl FnMut(),
) -> (u64, WriteOutcome)
where
    B: RegisterBackend<u64>,
{
    assert!(slot < board.writers(), "writer slot {slot} out of range");
    assert!(index < array.capacity(), "register {index} out of range");
    let n = array.capacity();
    let mut outcome = WriteOutcome::default();
    pause(); // distress read picks the path
    let t = if board.distress.load(Ordering::SeqCst) == 0 {
        let mut max = 0u64;
        for i in 0..n {
            pause(); // calm collect, one value read per register
            max = max.max(array.read(i).expect("index in range"));
        }
        max + 1
    } else {
        pause(); // era read *before* the collect (the tag invariant)
        let tag = board.era.load(Ordering::SeqCst);
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            pause(); // helping collect, one stamped read per register
            entries.push(array.read_stamped(i).expect("index in range"));
        }
        loop {
            let mut patched = false;
            for (i, entry) in entries.iter_mut().enumerate() {
                pause(); // helping validate read
                let fresh = array.read_stamped(i).expect("index in range");
                if fresh.stamp != entry.stamp {
                    *entry = fresh;
                    patched = true;
                }
            }
            if !patched {
                break;
            }
            outcome.recollect_passes += 1;
        }
        let view = View::new(entries);
        let max = view.values().into_iter().max().unwrap_or(0);
        pause(); // board publish
        board.publish(slot, tag, Arc::new(view));
        outcome.published_help = true;
        max + 1
    };
    pause(); // the store itself
    array.write(index, t).expect("index in range");
    (t, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn uncontended_helping_scan_is_a_plain_scan() {
        let array: RegisterArray<u64> = RegisterArray::new(3, 0);
        let board = HelpBoard::new(2);
        array.write(1, 5).unwrap();
        let (view, outcome) = helping_scan(&array, &board, &ScanPolicy::default());
        assert_eq!(view.values(), vec![0, 5, 0]);
        assert!(!outcome.helped);
        assert_eq!(outcome.recollect_passes, 0);
        assert_eq!(board.distress_level(), 0);
        assert_eq!(board.era(), 1, "every scan announces an era");
    }

    #[test]
    fn helping_write_skips_the_board_when_nobody_is_starving() {
        let array: RegisterArray<u64> = RegisterArray::new(2, 0);
        let board = HelpBoard::new(1);
        let outcome = helping_write(&array, &board, 0, 1, 42).unwrap();
        assert!(!outcome.published_help);
        assert_eq!(array.read(1).unwrap(), 42);
        assert!(board.adopt(0).is_none(), "no record published");
    }

    #[test]
    fn helping_write_publishes_under_distress() {
        let array: RegisterArray<u64> = RegisterArray::new(2, 0);
        let board = HelpBoard::new(1);
        board.distress.fetch_add(1, Ordering::SeqCst);
        let outcome = helping_write(&array, &board, 0, 0, 7).unwrap();
        assert!(outcome.published_help);
        let (tag, view) = board.adopt(0).expect("record published");
        assert_eq!(tag, board.era());
        // The published view predates the store that followed it.
        assert_eq!(view.values(), vec![0, 0]);
        board.distress.fetch_sub(1, Ordering::SeqCst);
    }

    #[test]
    fn adoption_requires_a_fresh_era_tag() {
        let array: RegisterArray<u64> = RegisterArray::new(1, 0);
        let board: HelpBoard<u64> = HelpBoard::new(1);
        board.publish(0, 3, Arc::new(View::new(array.collect())));
        assert!(board.adopt(3).is_some());
        assert!(
            board.adopt(4).is_none(),
            "stale records must never be adopted"
        );
    }

    #[test]
    fn out_of_range_helping_write_errors_without_publishing() {
        let array: RegisterArray<u64> = RegisterArray::new(1, 0);
        let board = HelpBoard::new(1);
        board.distress.fetch_add(1, Ordering::SeqCst);
        assert!(helping_write(&array, &board, 0, 5, 1).is_err());
        assert!(board.adopt(0).is_none());
    }

    #[test]
    fn paused_scan_announces_the_model_access_sequence() {
        // Solo scanner over 2 registers: era read, era CAS, collect x2,
        // validate x2 — six announced accesses, exactly the model's
        // step count for a clean solo scan.
        let array: RegisterArray<u64> = RegisterArray::new(2, 0);
        let board = HelpBoard::new(1);
        array.write(1, 4).unwrap();
        let mut pauses = 0u32;
        let (view, outcome) =
            helping_scan_paused(&array, &board, &ScanPolicy::default(), || pauses += 1);
        assert_eq!(pauses, 6);
        assert_eq!(view.values(), vec![0, 4]);
        assert_eq!(outcome.recollect_passes, 0);
        assert!(!outcome.helped);
        assert_eq!(board.era(), 1);
    }

    #[test]
    fn paused_write_announces_both_paths() {
        let array: RegisterArray<u64> = RegisterArray::new(2, 0);
        let board = HelpBoard::new(1);
        // Calm path: distress read, 2 value reads, the store.
        let mut pauses = 0u32;
        let (t, outcome) = storm_write_paused(&array, &board, 0, 0, || pauses += 1);
        assert_eq!(pauses, 4);
        assert_eq!(t, 1);
        assert!(!outcome.published_help);
        // Helping path: distress read, era read, collect x2,
        // validate x2, publish, store.
        board.distress.store(1, Ordering::SeqCst);
        let mut pauses = 0u32;
        let (t, outcome) = storm_write_paused(&array, &board, 0, 0, || pauses += 1);
        assert_eq!(pauses, 8);
        assert_eq!(t, 2);
        assert!(outcome.published_help);
        let (tag, view) = board.adopt(0).expect("record published");
        assert_eq!(tag, 0, "tag is the era read before the collect");
        assert_eq!(view.values(), vec![1, 0], "view predates the store");
    }

    #[test]
    fn paused_scan_scripted_starvation_adopts() {
        // Script a starvation episode through the pause hook itself:
        // dirty the register between the scanner's collect (#3) and its
        // validate read (#4) so the pass patches, then publish a fresh
        // record right before the board poll (#6). With bound 1 the
        // announced sequence is era read, CAS, collect, validate,
        // distress store, poll-and-adopt.
        let array: RegisterArray<u64> = RegisterArray::new(1, 0);
        let board: HelpBoard<u64> = HelpBoard::new(1);
        let mut calls = 0u32;
        let (view, outcome) = helping_scan_paused(
            &array,
            &board,
            &ScanPolicy {
                starvation_bound: 1,
            },
            || {
                calls += 1;
                match calls {
                    4 => array.write(0, 7).unwrap(),
                    6 => board.publish(0, 1, Arc::new(View::new(array.collect()))),
                    _ => {}
                }
            },
        );
        assert_eq!(calls, 6);
        assert!(outcome.helped, "the poll must adopt the tag-1 record");
        assert_eq!(outcome.recollect_passes, 1);
        assert_eq!(view.values(), vec![7]);
        assert_eq!(board.distress_level(), 1, "paused distress is sticky");
    }

    #[test]
    fn starved_scanner_adopts_a_helped_view() {
        // One writer storms a 2-register array through helping_write
        // with (k, k) pairs; scanners with a starvation bound of 0
        // enter distress on their first failed pass. Under the storm,
        // scans must keep completing (wait-freedom), every returned
        // view must satisfy the pair invariant whether helped or not,
        // and at least some scans should resolve via adoption.
        let array = Arc::new(RegisterArray::new(2, 0u64));
        let board = Arc::new(HelpBoard::new(1));
        let stop = Arc::new(AtomicBool::new(false));
        let policy = ScanPolicy {
            starvation_bound: 0,
        };
        crossbeam::scope(|s| {
            let wa = Arc::clone(&array);
            let wb = Arc::clone(&board);
            let ws = Arc::clone(&stop);
            s.spawn(move |_| {
                let mut k = 1u64;
                while !ws.load(Ordering::Relaxed) {
                    helping_write(&wa, &wb, 0, 0, k).unwrap();
                    helping_write(&wa, &wb, 0, 1, k).unwrap();
                    k += 1;
                }
            });
            for _ in 0..500 {
                let (view, outcome) = helping_scan(&array, &board, &policy);
                let v = view.values();
                assert!(
                    v[0] >= v[1] && v[0] - v[1] <= 1,
                    "torn {}view: {v:?}",
                    if outcome.helped { "helped " } else { "" }
                );
            }
            stop.store(true, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(board.distress_level(), 0, "distress must be balanced");
    }
}
