//! Algorithm 4: the `⌈2√M⌉`-register bounded-concurrency timestamp
//! object (Section 6 of the paper).
//!
//! For a bound `M` on the total number of `getTS()` invocations, the
//! object uses `m = ⌈2√M⌉` multi-writer registers `R[1..m]`, each holding
//! `⊥` or a pair `⟨seq, rnd⟩` where `seq` is a sequence of getTS-ids and
//! `rnd` a positive integer. Specialized to one-shot timestamps
//! (`M = n`) this realizes Theorem 1.3 and matches the `√(2n) − log n`
//! lower bound of Theorem 1.2 asymptotically.
//!
//! The execution proceeds in *phases*. During phase `k` registers
//! `R[1..k−1]` are non-`⊥`; a `getTS` whose while-loop measures
//! `myrnd = k − 1` either finds a *valid* register `R[j]` (its last
//! writer equals the `j`-th entry recorded in `R[k−1]`... see line 7),
//! invalidates it and returns `(k − 1, j)`-style turn timestamps, or
//! discovers every register invalid, scans, opens phase `k` by writing
//! `R[k]` and returns `(k, 0)`.
//!
//! # Registers as handles to call records
//!
//! Every pair a call writes is determined by the call alone: an
//! invalidation write (lines 8 and 11) stores `⟨[id], myrnd⟩` and a
//! phase-opening write (line 15) stores `⟨seq, myrnd + 1⟩` for the one
//! `seq` that call builds. So [`BoundedTimestamp`] keeps each call's
//! `{id, myrnd, seq}` in a write-once *call record* `a`, and its
//! registers are word-inlined
//! [`PackedRegister`](ts_register::PackedRegister)s holding only a
//! handle:
//!
//! - `0` is `⊥`;
//! - `(a + 1) << 1 | opens` names record `a`, with `opens` set for the
//!   phase-opening write. The named pair is `⟨[id], myrnd⟩` when
//!   `opens` is clear and `⟨seq, myrnd + 1⟩` when it is set.
//!
//! A budgeted object ([`BoundedTimestamp::with_budget`]) indexes records
//! by admission number, taken from one shared counter. A one-shot
//! object ([`BoundedTimestamp::one_shot`]) indexes them by pid: process
//! `p`'s only call owns record `p`, and a flag in that record is the
//! once-only guard, so a one-shot call touches no shared admission
//! state. Records are aligned to 64 bytes, one per cache line, so one
//! call's record writes do not invalidate the line of a record another
//! call is reading through a register handle.
//!
//! A record is filled in before its owner's first (`Release`) register
//! write and read only after an `Acquire` load of a word naming it —
//! the publication edge of the register ordering contract
//! (`ts_register::backend`). Nothing is allocated per write except an
//! opener's `seq`, and nothing is ever retired: the records live as
//! long as the object. Since records are told apart by getTS-id at
//! line 7, ids must be unique per call, as the paper requires.
//!
//! # Metering in O(1) updates per call
//!
//! The object's [`SpaceMeter`] counts every register read exactly, but a
//! call does not pay one shared counter update per read. The lines 1–4
//! prefix walk is one early-stopping sweep
//! ([`RegisterArray::sweep_while`]), metered as one range. Lines 5–12
//! read `R[myrnd + 1]` and then `R[j]` once per iteration; they read
//! without metering and, on whichever of their three exits they take
//! (line 9, line 12, or falling through to line 13), record the `R[j]`
//! reads as one sweep over the visited prefix and the repeated
//! `R[myrnd + 1]` reads as one [`SpaceMeter::record_reads`]. The line-13
//! scan meters its collects as sweeps too. Per-register counts are the
//! same as one update per read would give.
//!
//! This module also carries the paper's accounting instrumentation
//! (Section 6.3): phases, invalidation writes, and register usage are
//! counted so the bounds `Φ < 2√M` (Lemma 6.5) and `≤ 2M` invalidation
//! writes (Claim 6.13) can be checked against real executions.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ts_register::{PackedRegisterArray, RegisterArray, SpaceMeter};
use ts_snapshot::adaptive_scan;

use crate::error::GetTsError;
use crate::ids::GetTsId;
use crate::timestamp::Timestamp;
use crate::traits::OneShotTimestamp;

/// Register contents `⊥` or `⟨seq, rnd⟩`, as values.
///
/// [`BoundedTimestamp`] does not store these: its registers hold
/// handles to write-once call records (see the module docs). The value
/// form is what the model twin (`model::BoundedModel`) and
/// [`GrowableTimestamp`](crate::GrowableTimestamp) keep in their
/// registers. In either form, the ids in `seq` must be unique per call.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Slot {
    /// The initial value `⊥`.
    Bot,
    /// A written pair `⟨seq, rnd⟩` (shared so clones are cheap).
    Val(Arc<SlotVal>),
}

impl Slot {
    /// Builds a written slot.
    pub fn val(seq: Vec<GetTsId>, rnd: u64) -> Self {
        Slot::Val(Arc::new(SlotVal { seq, rnd }))
    }

    /// Whether the slot is `⊥`.
    pub fn is_bot(&self) -> bool {
        matches!(self, Slot::Bot)
    }

    /// `last(R.seq)` — the last getTS-id of the stored sequence.
    pub fn last(&self) -> Option<GetTsId> {
        match self {
            Slot::Bot => None,
            Slot::Val(v) => v.seq.last().copied(),
        }
    }

    /// `R.seq[j]` with the paper's 1-based indexing.
    pub fn seq_get(&self, j: usize) -> Option<GetTsId> {
        match self {
            Slot::Bot => None,
            Slot::Val(v) => v.seq.get(j.checked_sub(1)?).copied(),
        }
    }

    /// `R.rnd`, if written.
    pub fn rnd(&self) -> Option<u64> {
        match self {
            Slot::Bot => None,
            Slot::Val(v) => Some(v.rnd),
        }
    }
}

/// The pair `⟨seq, rnd⟩` stored in a written register.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SlotVal {
    /// Sequence of getTS-ids (length 1 for invalidation writes, length
    /// `k` for the write opening phase `k`).
    pub seq: Vec<GetTsId>,
    /// The round the write belongs to.
    pub rnd: u64,
}

/// What to do at lines 10–11 when a register is found invalid.
///
/// The paper overwrites only when the stale value's round is older than
/// the current one (`R[j].rnd < myrnd`) — enough to pin the register
/// invalid for the rest of the phase without wasting writes. The
/// alternatives exist for the E9 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverwritePolicy {
    /// Overwrite iff `R[j].rnd < myrnd` (the paper's Algorithm 4).
    #[default]
    Paper,
    /// Overwrite every invalid register ("simple repair" — correct but
    /// write-heavier).
    Always,
    /// Never overwrite (the bug discussed in Section 6.1: a stale
    /// phase-opening write can re-validate invalidated registers and
    /// invert timestamps).
    Never,
}

/// The register word `⊥`.
const BOT: u32 = 0;

/// Budgets from this value up do not fit a handle's 31-bit call index.
const BUDGET_LIMIT: usize = (1 << 31) - 1;

/// The register word naming call record `call`'s invalidation pair
/// (`opens` clear) or phase-opening pair (`opens` set).
fn handle(call: usize, opens: bool) -> u32 {
    ((call as u32 + 1) << 1) | u32::from(opens)
}

/// How a call returned, kept in its record's tally.
#[derive(Clone, Copy)]
enum Outcome {
    /// Line 12: saw the next phase open early.
    Early = 1,
    /// Line 9: took a turn.
    Turn = 2,
    /// Line 16: returned after the line-13 scan.
    Scanned = 3,
}

/// The write-once record of one call: record `a` belongs to the call
/// admitted `a`-th on a budgeted object, or to process `a` on a
/// one-shot object.
///
/// `id` and `myrnd` are set before the call's first register write,
/// `seq` only by a phase-opening call just before its line-15 write;
/// readers reach a record only through a register word naming it. So
/// the fields can be `Relaxed`: the owner's `Release` store of a word
/// naming the record, paired with the reader's `Acquire` load of that
/// word, orders them. `tally` is the call's own accounting, stored
/// once as it returns and summed by [`BoundedTimestamp::phase_stats`].
///
/// Aligned to one 64-byte cache line, so a call's writes to its own
/// record never invalidate the line of a neighbouring record that
/// another call reads. One line, not the register arrays' two: two
/// would double the records' footprint, and the cost of building an
/// object with it, for no throughput gain.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CallRecord {
    /// The one-shot guard: set to 1 by the pid's first call, which
    /// owns the record. Unused on budgeted objects. A word, not an
    /// `AtomicBool`: with a one-byte field, building and dropping a
    /// `one_shot(64)` object took about 1.5x as long (x86-64).
    claimed: AtomicU32,
    /// The getTS-id, packed `pid << 32 | seq`.
    id: AtomicU64,
    /// The round measured at line 4.
    myrnd: AtomicU32,
    /// `writes << 2 | outcome`; 0 while the call runs.
    tally: AtomicU32,
    /// The phase-opening sequence (line 15), if the call opened a phase.
    seq: OnceLock<Box<[GetTsId]>>,
}

impl CallRecord {
    fn id(&self) -> GetTsId {
        let id = self.id.load(Ordering::Relaxed);
        GetTsId::new((id >> 32) as u32, id as u32)
    }

    fn settle(&self, writes: u32, outcome: Outcome) {
        self.tally
            .store(writes << 2 | outcome as u32, Ordering::Relaxed);
    }
}

/// Phase counters that must stay exact across racing writers; the
/// per-call counters live in the call records.
#[derive(Debug)]
struct Accounting {
    invalidation_writes: AtomicU64,
    /// Visible-phase epoch: incremented at each phase-opening write.
    epoch: AtomicU64,
    /// Epoch of the last write per register (u64::MAX = never written).
    last_write_epoch: Vec<AtomicU64>,
}

impl Accounting {
    fn new(m: usize) -> Self {
        Self {
            invalidation_writes: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            last_write_epoch: (0..m).map(|_| AtomicU64::new(u64::MAX)).collect(),
        }
    }

    fn record_write(&self, paper_index: usize, opens_phase: bool) {
        let epoch = if opens_phase {
            // Racing scanners may both open the same phase k by writing
            // R[k]; the phase number is the highest register opened, not
            // the number of opening writes.
            self.epoch.fetch_max(paper_index as u64, Ordering::Relaxed);
            paper_index as u64
        } else {
            self.epoch.load(Ordering::Relaxed)
        };
        let slot = &self.last_write_epoch[paper_index - 1];
        if slot.swap(epoch, Ordering::Relaxed) != epoch {
            // First write to this register in the current (visible)
            // phase: an invalidation write in the paper's sense.
            self.invalidation_writes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Accounting snapshot for one [`BoundedTimestamp`]'s history.
///
/// Phases are counted at *visible* granularity (a phase is counted when
/// its opening register write lands, not at the opening scan), which
/// can only under-count invalidation writes relative to the paper's
/// definition; the paper's upper bounds still apply. The per-call
/// counters (`total_writes`, `scans`, `early_returns`, `turn_returns`)
/// cover calls that have returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PhaseStats {
    /// Register budget `m = ⌈2√M⌉`.
    pub m: usize,
    /// Invocation budget `M`.
    pub budget: usize,
    /// `getTS` calls served so far.
    pub calls: u64,
    /// Completed phases Φ (phase-opening writes).
    pub phases: u64,
    /// Invalidation writes (first write per register per visible phase).
    pub invalidation_writes: u64,
    /// All register writes.
    pub total_writes: u64,
    /// Double-collect scans executed.
    pub scans: u64,
    /// Calls that returned at line 12 (saw the next phase open early).
    pub early_returns: u64,
    /// Calls that returned a turn timestamp at line 9.
    pub turn_returns: u64,
    /// Registers written at least once.
    pub registers_written: usize,
}

impl PhaseStats {
    /// Claim 6.13: at most `2M` invalidation writes.
    pub fn invalidation_bound_holds(&self) -> bool {
        self.invalidation_writes <= 2 * self.budget as u64
    }

    /// Lemma 6.5: fewer than `2√M` phases.
    pub fn phase_bound_holds(&self) -> bool {
        (self.phases as f64) < 2.0 * (self.budget as f64).sqrt() + f64::EPSILON
    }

    /// Theorem 1.3 specialization: at most `⌈2√M⌉` registers written.
    pub fn space_bound_holds(&self) -> bool {
        self.registers_written <= self.m
    }
}

/// The bounded-concurrency timestamp object of Algorithm 4.
///
/// Wait-free for up to `M` `getTS()` invocations using `⌈2√M⌉`
/// registers; `compare` is Algorithm 3 ([`Timestamp::compare`]). Each
/// register holds a one-word handle to a call record (see the module
/// docs), so besides the registers the object keeps `M` records.
///
/// # Example
///
/// ```
/// use ts_core::{BoundedTimestamp, GetTsId, Timestamp};
///
/// // Budget of 9 calls from any mix of processes: ⌈2√9⌉ = 6 registers.
/// let ts = BoundedTimestamp::with_budget(9);
/// assert_eq!(ts.registers(), 6);
/// let a = ts.get_ts_with_id(GetTsId::new(0, 0)).unwrap();
/// let b = ts.get_ts_with_id(GetTsId::new(0, 1)).unwrap();
/// assert!(Timestamp::compare(&a, &b));
/// ```
pub struct BoundedTimestamp {
    regs: PackedRegisterArray<u32>,
    meter: SpaceMeter,
    m: usize,
    budget: usize,
    policy: OverwritePolicy,
    /// Built with [`BoundedTimestamp::one_shot`]: calls are admitted by
    /// pid, each pid once, and own the record with their pid's index.
    one_shot: bool,
    /// Admission counter of a budgeted object (unused when one-shot).
    invocations: AtomicU64,
    /// One record per admissible call, indexed by admission number, or
    /// by pid when one-shot.
    calls: Box<[CallRecord]>,
    accounting: Accounting,
}

/// `⌈2√M⌉` computed exactly: the least `m` with `m² ≥ 4M`.
pub(crate) fn registers_for_budget(budget: usize) -> usize {
    let target = 4u128 * budget as u128;
    let mut m = (target as f64).sqrt() as u128;
    while m * m < target {
        m += 1;
    }
    while m > 0 && (m - 1) * (m - 1) >= target {
        m -= 1;
    }
    m as usize
}

impl BoundedTimestamp {
    /// Creates an object accepting at most `budget` `getTS()` calls,
    /// from any processes, identified by caller-supplied [`GetTsId`]s.
    /// Ids must be unique per call.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0` or `budget ≥ 2³¹ − 1` (a register handle
    /// holds a 31-bit call index).
    pub fn with_budget(budget: usize) -> Self {
        Self::with_budget_and_policy(budget, OverwritePolicy::Paper)
    }

    /// Like [`BoundedTimestamp::with_budget`] with an explicit
    /// invalidation-overwrite policy (see [`OverwritePolicy`]).
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0` or `budget ≥ 2³¹ − 1` (a register handle
    /// holds a 31-bit call index).
    pub fn with_budget_and_policy(budget: usize, policy: OverwritePolicy) -> Self {
        assert!(budget > 0, "budget must be positive");
        assert!(
            budget < BUDGET_LIMIT,
            "budget {budget} is too large: a register handle names at most 2^31 - 2 calls"
        );
        // One extra sentinel beyond the writable range is already part of
        // ⌈2√M⌉ (Φ < 2√M), but guard the degenerate tiny budgets where
        // the ceiling equals the phase count.
        let m = registers_for_budget(budget).max(2);
        let meter = SpaceMeter::new(m);
        Self {
            regs: RegisterArray::with_backend_and_meter(m, BOT, meter.clone()),
            meter,
            m,
            budget,
            policy,
            one_shot: false,
            invocations: AtomicU64::new(0),
            calls: (0..budget).map(|_| CallRecord::default()).collect(),
            accounting: Accounting::new(m),
        }
    }

    /// Creates a one-shot object for `processes` processes (`M = n`),
    /// realizing Theorem 1.3 with `⌈2√n⌉` registers.
    ///
    /// # Panics
    ///
    /// Panics if `processes == 0` or `processes ≥ 2³¹ − 1` (a register
    /// handle holds a 31-bit call index).
    pub fn one_shot(processes: usize) -> Self {
        Self::one_shot_with_policy(processes, OverwritePolicy::Paper)
    }

    /// One-shot constructor with an explicit overwrite policy.
    ///
    /// # Panics
    ///
    /// Panics if `processes == 0` or `processes ≥ 2³¹ − 1` (a register
    /// handle holds a 31-bit call index).
    pub fn one_shot_with_policy(processes: usize, policy: OverwritePolicy) -> Self {
        Self {
            one_shot: true,
            ..Self::with_budget_and_policy(processes, policy)
        }
    }

    /// The register budget `m`.
    pub fn registers(&self) -> usize {
        self.m
    }

    /// The invocation budget `M`.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The meter recording this object's register traffic.
    pub fn meter(&self) -> &SpaceMeter {
        &self.meter
    }

    /// A snapshot of the phase accounting (Section 6.3 quantities).
    pub fn phase_stats(&self) -> PhaseStats {
        let (calls, records) = if self.one_shot {
            let claimed = self
                .calls
                .iter()
                .filter(|r| r.claimed.load(Ordering::Relaxed) != 0)
                .count();
            (claimed as u64, &self.calls[..])
        } else {
            let admitted = self
                .invocations
                .load(Ordering::Relaxed)
                .min(self.budget as u64);
            (admitted, &self.calls[..admitted as usize])
        };
        let mut stats = PhaseStats {
            m: self.m,
            budget: self.budget,
            calls,
            phases: self.accounting.epoch.load(Ordering::Relaxed),
            invalidation_writes: self.accounting.invalidation_writes.load(Ordering::Relaxed),
            total_writes: 0,
            scans: 0,
            early_returns: 0,
            turn_returns: 0,
            registers_written: self.meter.snapshot().registers_written(),
        };
        // An unclaimed one-shot record's tally is 0: it adds nothing.
        for call in records {
            let tally = call.tally.load(Ordering::Relaxed);
            let outcome = tally & 3;
            stats.total_writes += u64::from(tally >> 2);
            stats.early_returns += u64::from(outcome == Outcome::Early as u32);
            stats.turn_returns += u64::from(outcome == Outcome::Turn as u32);
            stats.scans += u64::from(outcome == Outcome::Scanned as u32);
        }
        stats
    }

    /// Reads register `R[j]` (paper's 1-based indexing) without
    /// metering it; see [`BoundedTimestamp::meter_validity_loop`].
    fn read(&self, j: usize) -> u32 {
        self.regs
            .read_unmetered(j - 1)
            .expect("paper register index within the array")
    }

    /// Meters the register reads of lines 5–12 on their exit, in at
    /// most three counter updates: one read each of `R[1..=swept]` and
    /// `line6` reads of `R[myrnd + 1]`.
    fn meter_validity_loop(&self, myrnd: usize, swept: usize, line6: usize) {
        self.meter.record_sweep(0..swept);
        self.meter.record_reads(myrnd, line6 as u64);
    }

    /// Writes register `R[j]` (paper's 1-based indexing).
    fn write(&self, j: usize, word: u32, opens_phase: bool) {
        self.accounting.record_write(j, opens_phase);
        self.regs
            .write(j - 1, word)
            .expect("paper register index within the array");
    }

    /// The record a non-`⊥` register word names.
    fn record(&self, word: u32) -> &CallRecord {
        &self.calls[(word >> 1) as usize - 1]
    }

    /// `last(R.seq)` of a register word: its writer's id.
    fn last(&self, word: u32) -> Option<GetTsId> {
        (word != BOT).then(|| self.record(word).id())
    }

    /// `R.rnd` of a register word.
    fn rnd(&self, word: u32) -> Option<u64> {
        (word != BOT)
            .then(|| u64::from(self.record(word).myrnd.load(Ordering::Relaxed) + (word & 1)))
    }

    /// `R.seq[j]` of a register word, 1-based: `[id]` for an
    /// invalidation word, the opener's `seq` for a phase-opening word.
    fn seq_get(&self, word: u32, j: usize) -> Option<GetTsId> {
        if word == BOT {
            return None;
        }
        let record = self.record(word);
        if word & 1 == 0 {
            return (j == 1).then(|| record.id());
        }
        let seq = record
            .seq
            .get()
            .expect("an opener's seq is set before its write");
        seq.get(j.checked_sub(1)?).copied()
    }

    /// Algorithm 4 `getTS(ID)` for an explicit getTS-id, which must be
    /// unique per call.
    ///
    /// On a one-shot object the call is admitted as process `id.pid`'s
    /// one call, through the same guard as
    /// [`get_ts`](OneShotTimestamp::get_ts): records are indexed by pid
    /// there, so admitting by a shared counter could hand two calls one
    /// record.
    ///
    /// # Errors
    ///
    /// On a budgeted object, returns [`GetTsError::BudgetExhausted`]
    /// once `M` calls have been admitted. On a one-shot object, returns
    /// [`GetTsError::PidOutOfRange`] if `id.pid ≥ n` and
    /// [`GetTsError::AlreadyUsed`] if `id.pid` already called.
    ///
    /// # Panics
    ///
    /// Panics if an execution exceeds the proven space bound (which
    /// would falsify Lemma 6.5) — this is an internal invariant check,
    /// not an expected failure mode.
    pub fn get_ts_with_id(&self, id: GetTsId) -> Result<Timestamp, GetTsError> {
        self.get_ts_paused(id, |_| {})
    }

    /// Admits a call: its record index, or the error that rejects it.
    fn admit(&self, id: GetTsId) -> Result<usize, GetTsError> {
        if self.one_shot {
            return self.claim(id.pid as usize);
        }
        let admitted = self.invocations.fetch_add(1, Ordering::AcqRel);
        if admitted >= self.budget as u64 {
            return Err(GetTsError::BudgetExhausted {
                budget: self.budget,
            });
        }
        Ok(admitted as usize)
    }

    /// Admits one-shot process `pid`'s only call, claiming record `pid`.
    fn claim(&self, pid: usize) -> Result<usize, GetTsError> {
        let record = self.calls.get(pid).ok_or(GetTsError::PidOutOfRange {
            pid,
            processes: self.budget,
        })?;
        if record.claimed.swap(1, Ordering::AcqRel) != 0 {
            return Err(GetTsError::AlreadyUsed { pid });
        }
        Ok(pid)
    }

    /// [`get_ts_with_id`](Self::get_ts_with_id) with `pause(j)` run
    /// just before line 6 of iteration `j` (the first one runs between
    /// lines 4 and 5); tests use it to land other calls there.
    fn get_ts_paused(
        &self,
        id: GetTsId,
        pause: impl FnMut(usize),
    ) -> Result<Timestamp, GetTsError> {
        let call = self.admit(id)?;
        Ok(self.get_ts_inner(call, id, pause))
    }

    fn get_ts_inner(&self, call: usize, id: GetTsId, mut pause: impl FnMut(usize)) -> Timestamp {
        let m = self.m;

        // Lines 1–4: find the non-⊥ prefix, in one sweep metered as one
        // range. Of r[1..myrnd] only r[myrnd] is consulted again
        // (line 7), so only it is kept.
        let mut r_last = BOT;
        let myrnd = self.regs.sweep_while(0..m, |_, word| {
            let set = word != BOT;
            if set {
                r_last = word;
            }
            set
        });
        assert!(
            myrnd < m,
            "space bound violated: all {m} registers non-⊥ (Lemma 6.5 refuted)"
        );

        // Fill in this call's record before any write can name it.
        let me = &self.calls[call];
        me.id.store(
            u64::from(id.pid) << 32 | u64::from(id.seq),
            Ordering::Relaxed,
        );
        me.myrnd.store(myrnd as u32, Ordering::Relaxed);
        let invalidation = handle(call, false);
        let mut writes = 0;

        // Lines 5–12: look for the first valid register among R[1..myrnd-1].
        // Their reads are metered on exit: by line 6 of iteration j they
        // have read R[myrnd + 1] j times and each of R[1..j-1] once.
        for j in 1..myrnd {
            pause(j);
            // Line 6: has the next phase opened?
            if self.read(myrnd + 1) != BOT {
                // Line 12.
                self.meter_validity_loop(myrnd, j - 1, j);
                me.settle(writes, Outcome::Early);
                return Timestamp::new((myrnd + 1) as u64, 0);
            }
            // Lines 7–11: one read of R[j] serves both the validity test
            // and the staleness test.
            let cur = self.read(j);
            let expected = self.seq_get(r_last, j);
            if expected.is_some() && self.last(cur) == expected {
                // Lines 8–9: R[j] is valid — invalidate it, take turn j.
                self.write(j, invalidation, false);
                self.meter_validity_loop(myrnd, j, j);
                me.settle(writes + 1, Outcome::Turn);
                return Timestamp::new(myrnd as u64, j as u64);
            }
            let overwrite = match self.policy {
                OverwritePolicy::Paper => {
                    // Line 10: only a write from an *older* phase can
                    // spuriously re-validate later; pin it down.
                    self.rnd(cur).is_some_and(|rnd| rnd < myrnd as u64)
                }
                OverwritePolicy::Always => true,
                OverwritePolicy::Never => false,
            };
            if overwrite {
                // Line 11.
                self.write(j, invalidation, false);
                writes += 1;
            }
        }
        let iterations = myrnd.saturating_sub(1);
        self.meter_validity_loop(myrnd, iterations, iterations);

        // Line 13: linearizable view via double-collect scan.
        let view = adaptive_scan(&self.regs).0;

        // Line 14: r[myrnd + 1] == ⊥ ? (1-based paper index → 0-based array)
        if view[myrnd].value == BOT {
            // Line 15: open phase myrnd + 1.
            assert!(
                myrnd + 1 < m,
                "space bound violated: writing sentinel register R[{m}]"
            );
            let seq: Box<[GetTsId]> = view.entries()[..myrnd]
                .iter()
                .map(|r| {
                    self.last(r.value)
                        .expect("scanned prefix registers are non-⊥ (Claim 6.1)")
                })
                .chain([id])
                .collect();
            me.seq.set(seq).expect("a call opens at most one phase");
            self.write(myrnd + 1, handle(call, true), true);
            writes += 1;
        }
        // Line 16.
        me.settle(writes, Outcome::Scanned);
        Timestamp::new((myrnd + 1) as u64, 0)
    }
}

impl OneShotTimestamp for BoundedTimestamp {
    fn get_ts(&self, pid: usize) -> Result<Timestamp, GetTsError> {
        assert!(
            self.one_shot,
            "get_ts(pid) requires a one-shot object; use get_ts_with_id on budgeted objects"
        );
        let call = self.claim(pid)?;
        Ok(self.get_ts_inner(call, GetTsId::one_shot(call as u32), |_| {}))
    }

    fn processes(&self) -> usize {
        self.budget
    }

    fn registers(&self) -> usize {
        self.m
    }
}

impl fmt::Debug for BoundedTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoundedTimestamp")
            .field("m", &self.m)
            .field("budget", &self.budget)
            .field("policy", &self.policy)
            .field("stats", &self.phase_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn register_budget_formula_is_exact() {
        assert_eq!(registers_for_budget(1), 2);
        assert_eq!(registers_for_budget(4), 4);
        assert_eq!(registers_for_budget(9), 6);
        assert_eq!(registers_for_budget(16), 8);
        assert_eq!(registers_for_budget(10), 7); // 2√10 ≈ 6.32 → 7
        assert_eq!(registers_for_budget(100), 20);
        // Exact ceiling around perfect squares:
        assert_eq!(registers_for_budget(99), 20); // 2√99 ≈ 19.899
        assert_eq!(registers_for_budget(101), 21); // 2√101 ≈ 20.09
    }

    #[test]
    fn sequential_timestamps_strictly_increase() {
        let ts = BoundedTimestamp::with_budget(50);
        let mut last: Option<Timestamp> = None;
        for k in 0..50u32 {
            let t = ts.get_ts_with_id(GetTsId::new(0, k)).unwrap();
            if let Some(prev) = last {
                assert!(Timestamp::compare(&prev, &t), "call {k}: {prev} !< {t}");
            }
            last = Some(t);
        }
    }

    #[test]
    fn sequential_pattern_matches_paper_walkthrough() {
        // The sequential run of Section 6.1: the opener of phase k
        // returns (k, 0); the j-th call after it returns (k, j).
        let ts = BoundedTimestamp::with_budget(10);
        let got: Vec<Timestamp> = (0..10u32)
            .map(|k| ts.get_ts_with_id(GetTsId::new(k, 0)).unwrap())
            .collect();
        let expected = [
            Timestamp::new(1, 0),
            Timestamp::new(2, 0),
            Timestamp::new(2, 1),
            Timestamp::new(3, 0),
            Timestamp::new(3, 1),
            Timestamp::new(3, 2),
            Timestamp::new(4, 0),
            Timestamp::new(4, 1),
            Timestamp::new(4, 2),
            Timestamp::new(4, 3),
        ];
        assert_eq!(got.as_slice(), expected.as_slice());
    }

    #[test]
    fn budget_is_enforced() {
        let ts = BoundedTimestamp::with_budget(2);
        ts.get_ts_with_id(GetTsId::new(0, 0)).unwrap();
        ts.get_ts_with_id(GetTsId::new(0, 1)).unwrap();
        assert_eq!(
            ts.get_ts_with_id(GetTsId::new(0, 2)),
            Err(GetTsError::BudgetExhausted { budget: 2 })
        );
    }

    #[test]
    fn one_shot_guard_rejects_repeats() {
        let ts = BoundedTimestamp::one_shot(4);
        ts.get_ts(1).unwrap();
        assert_eq!(ts.get_ts(1), Err(GetTsError::AlreadyUsed { pid: 1 }));
        assert!(matches!(
            ts.get_ts(9),
            Err(GetTsError::PidOutOfRange { .. })
        ));
    }

    #[test]
    fn space_bound_holds_sequentially() {
        for n in [4usize, 16, 64, 256] {
            let ts = BoundedTimestamp::one_shot(n);
            for p in 0..n {
                ts.get_ts(p).unwrap();
            }
            let stats = ts.phase_stats();
            assert!(stats.space_bound_holds(), "n={n}: {stats:?}");
            assert!(stats.phase_bound_holds(), "n={n}: {stats:?}");
            assert!(stats.invalidation_bound_holds(), "n={n}: {stats:?}");
        }
    }

    #[test]
    fn concurrent_rounds_respect_happens_before() {
        let n = 32;
        let ts = Arc::new(BoundedTimestamp::one_shot(n));
        let mut rounds: Vec<Vec<Timestamp>> = Vec::new();
        for round in 0..4 {
            let outs: Vec<Timestamp> = crossbeam::scope(|s| {
                let handles: Vec<_> = (0..n / 4)
                    .map(|i| {
                        let ts = Arc::clone(&ts);
                        let pid = round * (n / 4) + i;
                        s.spawn(move |_| ts.get_ts(pid).unwrap())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
            .unwrap();
            rounds.push(outs);
        }
        for earlier in 0..rounds.len() {
            for later in earlier + 1..rounds.len() {
                for a in &rounds[earlier] {
                    for b in &rounds[later] {
                        assert!(Timestamp::compare(a, b), "{a} !< {b}");
                        assert!(!Timestamp::compare(b, a), "{b} < {a}");
                    }
                }
            }
        }
        let stats = ts.phase_stats();
        assert!(stats.space_bound_holds(), "{stats:?}");
        assert!(stats.invalidation_bound_holds(), "{stats:?}");
    }

    #[test]
    fn always_overwrite_policy_is_also_correct_sequentially() {
        let ts = BoundedTimestamp::with_budget_and_policy(30, OverwritePolicy::Always);
        let mut last: Option<Timestamp> = None;
        for k in 0..30u32 {
            let t = ts.get_ts_with_id(GetTsId::new(k, 0)).unwrap();
            if let Some(prev) = last {
                assert!(Timestamp::compare(&prev, &t));
            }
            last = Some(t);
        }
    }

    #[test]
    fn slot_accessors() {
        let bot = Slot::Bot;
        assert!(bot.is_bot());
        assert_eq!(bot.last(), None);
        assert_eq!(bot.rnd(), None);
        assert_eq!(bot.seq_get(1), None);
        let v = Slot::val(vec![GetTsId::new(1, 0), GetTsId::new(2, 0)], 3);
        assert_eq!(v.last(), Some(GetTsId::new(2, 0)));
        assert_eq!(v.seq_get(1), Some(GetTsId::new(1, 0)));
        assert_eq!(v.seq_get(2), Some(GetTsId::new(2, 0)));
        assert_eq!(v.seq_get(3), None);
        assert_eq!(v.seq_get(0), None);
        assert_eq!(v.rnd(), Some(3));
    }

    #[test]
    #[should_panic(expected = "2^31 - 2 calls")]
    fn budget_beyond_the_handle_range_is_rejected() {
        BoundedTimestamp::with_budget(1 << 31);
    }

    #[test]
    fn handles_name_records_and_phase_openings() {
        assert_eq!(handle(0, false), 2);
        assert_eq!(handle(0, true), 3);
        let top = BUDGET_LIMIT - 2;
        assert_eq!(handle(top, true), u32::MAX - 2);
        let ts = BoundedTimestamp::with_budget(4);
        // Call 0 opens phase 1, call 1 opens phase 2 with seq [p0, p1],
        // call 2 invalidates R[1].
        for k in 0..3u32 {
            ts.get_ts_with_id(GetTsId::new(k, 0)).unwrap();
        }
        let (r1, r2) = (ts.read(1), ts.read(2));
        assert_eq!(r1, handle(2, false));
        assert_eq!(r2, handle(1, true));
        assert_eq!(ts.last(r1), Some(GetTsId::new(2, 0)));
        assert_eq!(ts.rnd(r1), Some(2));
        assert_eq!(ts.seq_get(r1, 1), Some(GetTsId::new(2, 0)));
        assert_eq!(ts.seq_get(r1, 2), None);
        assert_eq!(ts.last(r2), Some(GetTsId::new(1, 0)));
        assert_eq!(ts.rnd(r2), Some(2));
        assert_eq!(ts.seq_get(r2, 1), Some(GetTsId::new(0, 0)));
        assert_eq!(ts.seq_get(r2, 2), Some(GetTsId::new(1, 0)));
        assert_eq!(ts.seq_get(r2, 3), None);
        assert_eq!(ts.last(BOT), None);
        assert_eq!(ts.rnd(BOT), None);
    }

    /// Per-register meter counts of sequential runs, as one counter
    /// update per register read gives them: `(n, reads, writes)`.
    const SEQUENTIAL_METER: [(usize, &[u64], &[u64]); 5] = [
        (4, &[9, 6, 7, 3], &[2, 1, 1, 0]),
        (
            16,
            &[36, 30, 27, 25, 24, 25, 6, 6],
            &[5, 4, 3, 2, 1, 1, 0, 0],
        ),
        (
            64,
            &[
                137, 125, 116, 108, 101, 95, 90, 86, 83, 82, 83, 55, 11, 11, 11, 11,
            ],
            &[11, 10, 9, 8, 7, 6, 5, 4, 2, 1, 1, 0, 0, 0, 0, 0],
        ),
        (
            100,
            &[
                212, 197, 185, 174, 164, 155, 147, 140, 134, 130, 127, 125, 124, 125, 58, 14, 14,
                14, 14, 14,
            ],
            &[
                14, 13, 12, 11, 10, 9, 8, 7, 5, 4, 3, 2, 1, 1, 0, 0, 0, 0, 0, 0,
            ],
        ),
        (
            256,
            &[
                533, 509, 488, 469, 451, 434, 418, 403, 389, 376, 364, 353, 343, 334, 326, 319,
                313, 308, 304, 301, 299, 298, 299, 28, 23, 23, 23, 23, 23, 23, 23, 23,
            ],
            &[
                23, 22, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 1,
                0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ),
    ];

    #[test]
    fn sequential_meter_counts_are_per_read_exact() {
        for (n, reads, writes) in SEQUENTIAL_METER {
            let one_shot = BoundedTimestamp::one_shot(n);
            for p in 0..n {
                one_shot.get_ts(p).unwrap();
            }
            let budgeted = BoundedTimestamp::with_budget(n);
            for k in 0..n as u32 {
                budgeted.get_ts_with_id(GetTsId::new(0, k)).unwrap();
            }
            for ts in [&one_shot, &budgeted] {
                let snap = ts.meter().snapshot();
                assert_eq!(snap.reads, reads, "n={n}");
                assert_eq!(snap.writes, writes, "n={n}");
            }
        }
    }

    /// Runs calls `ids` one after another on `ts`, asserting each succeeds.
    fn run(ts: &BoundedTimestamp, ids: impl IntoIterator<Item = u32>) {
        for k in ids {
            ts.get_ts_with_id(GetTsId::new(k, 0)).unwrap();
        }
    }

    #[test]
    fn line_12_exit_meters_per_read_exact() {
        // Paused at iteration 1 (between lines 4 and 5) with myrnd = 2,
        // the call sees two more calls open phase 3 and returns at
        // line 12 having read R[3] once at line 6 and no R[j].
        let ts = BoundedTimestamp::with_budget(10);
        run(&ts, 0..2);
        let t = ts
            .get_ts_paused(GetTsId::new(2, 0), |j| {
                if j == 1 {
                    run(&ts, 3..5);
                }
            })
            .unwrap();
        assert_eq!(t, Timestamp::new(3, 0));
        let snap = ts.meter().snapshot();
        assert_eq!(snap.reads, [10, 7, 9, 3, 3, 3, 3]);
        assert_eq!(snap.writes, [2, 1, 1, 0, 0, 0, 0]);
        assert_eq!(ts.phase_stats().early_returns, 1);

        // Paused at iteration 2 with myrnd = 3: it has read R[4] once
        // and found R[1] invalid; two more calls open phase 4, so the
        // exit meters R[1] once and R[4] twice.
        let ts = BoundedTimestamp::with_budget(20);
        run(&ts, 0..5);
        let t = ts
            .get_ts_paused(GetTsId::new(5, 0), |j| {
                if j == 2 {
                    run(&ts, 6..8);
                }
            })
            .unwrap();
        assert_eq!(t, Timestamp::new(4, 0));
        let snap = ts.meter().snapshot();
        assert_eq!(snap.reads, [18, 13, 12, 15, 4, 4, 4, 4, 4]);
        assert_eq!(snap.writes, [3, 2, 1, 1, 0, 0, 0, 0, 0]);
        let stats = ts.phase_stats();
        assert_eq!((stats.early_returns, stats.turn_returns), (1, 3));
    }

    /// Checks that `calls` counts `accepted` and each call has one outcome.
    fn assert_accounted(ts: &BoundedTimestamp, accepted: u64) {
        let stats = ts.phase_stats();
        assert_eq!(stats.calls, accepted, "{stats:?}");
        assert_eq!(
            stats.scans + stats.turn_returns + stats.early_returns,
            accepted,
            "{stats:?}"
        );
    }

    #[test]
    fn one_shot_stats_count_accepted_calls() {
        let ts = BoundedTimestamp::one_shot(16);
        for p in (0..16).step_by(3) {
            ts.get_ts(p).unwrap();
        }
        assert_accounted(&ts, 6);
        assert_eq!(ts.get_ts(3), Err(GetTsError::AlreadyUsed { pid: 3 }));
        assert_eq!(
            ts.get_ts(16),
            Err(GetTsError::PidOutOfRange {
                pid: 16,
                processes: 16
            })
        );
        assert_accounted(&ts, 6);

        let ts = BoundedTimestamp::one_shot(64);
        let accepted: u64 = crossbeam::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|t| {
                    let ts = &ts;
                    s.spawn(move |_| {
                        // Thread t calls its 32 pids, then repeats one
                        // and tries one past the end.
                        let mut accepted = 0;
                        for p in t * 32..t * 32 + 32 {
                            ts.get_ts(p).unwrap();
                            accepted += 1;
                        }
                        assert_eq!(
                            ts.get_ts(t * 32),
                            Err(GetTsError::AlreadyUsed { pid: t * 32 })
                        );
                        assert!(matches!(
                            ts.get_ts(64 + t),
                            Err(GetTsError::PidOutOfRange { processes: 64, .. })
                        ));
                        accepted
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        })
        .unwrap();
        assert_accounted(&ts, accepted);
        assert_eq!(accepted, 64);
    }

    #[test]
    fn get_ts_with_id_on_one_shot_goes_through_the_pid_guard() {
        let ts = BoundedTimestamp::one_shot(6);
        let mut stamps = vec![ts.get_ts_with_id(GetTsId::new(3, 7)).unwrap()];
        assert_eq!(ts.get_ts(3), Err(GetTsError::AlreadyUsed { pid: 3 }));
        stamps.push(ts.get_ts(0).unwrap());
        assert_eq!(
            ts.get_ts_with_id(GetTsId::new(0, 1)),
            Err(GetTsError::AlreadyUsed { pid: 0 })
        );
        assert_eq!(
            ts.get_ts_with_id(GetTsId::new(6, 0)),
            Err(GetTsError::PidOutOfRange {
                pid: 6,
                processes: 6
            })
        );
        stamps.push(ts.get_ts_with_id(GetTsId::new(5, 2)).unwrap());
        stamps.push(ts.get_ts(1).unwrap());
        for pair in stamps.windows(2) {
            assert!(Timestamp::compare(&pair[0], &pair[1]), "{pair:?}");
        }
        assert_accounted(&ts, 4);
        // Each accepted call filled in its own pid's record, and only it.
        let ids: Vec<Option<GetTsId>> = ts
            .calls
            .iter()
            .map(|r| (r.claimed.load(Ordering::Relaxed) != 0).then(|| r.id()))
            .collect();
        assert_eq!(
            ids,
            [
                Some(GetTsId::new(0, 0)),
                Some(GetTsId::new(1, 0)),
                None,
                Some(GetTsId::new(3, 7)),
                None,
                Some(GetTsId::new(5, 2)),
            ]
        );
    }

    #[test]
    fn call_records_are_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<CallRecord>(), 64);
        assert_eq!(std::mem::size_of::<CallRecord>(), 64);
    }

    #[test]
    fn stats_snapshot_is_coherent() {
        let ts = BoundedTimestamp::with_budget(20);
        for k in 0..20u32 {
            ts.get_ts_with_id(GetTsId::new(k, 0)).unwrap();
        }
        let stats = ts.phase_stats();
        assert_eq!(stats.calls, 20);
        assert!(stats.phases > 0);
        assert!(stats.total_writes >= stats.invalidation_writes);
        assert!(stats.scans >= stats.phases);
    }
}
