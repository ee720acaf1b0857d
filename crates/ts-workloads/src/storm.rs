//! The writer-storm workload: one scanner and storming writers over
//! one shared register array, the driving seam for the adaptive and
//! helping scan paths of `ts-snapshot`. Its slots play roles and issue
//! no stamps of their own through a [`Client`](crate::Client), so its
//! two workers implement [`WorkloadWorker`] by hand.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use ts_core::{PackedBackend, ServiceStats, StepGate, Timestamp};
use ts_register::RegisterArray;
use ts_snapshot::{HelpBoard, ScanOutcome, ScanPolicy};

use crate::target::{OpHistory, ReplayGranularity, WorkloadOp, WorkloadTarget, WorkloadWorker};

// ---------------------------------------------------------------------

/// Which scan rendition the scanner slot of a [`HelpingScanWorkload`]
/// runs when stepped ungated — the A/B/C axis of the `writer_storm`
/// bench cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// `classic_double_collect_scan`: full-array sweeps repeated until
    /// two agree — the pre-adaptive baseline.
    Classic,
    /// `adaptive_scan`: the dirty-block retry ladder (lock-free).
    Adaptive,
    /// `helping_scan`: the ladder plus help-board adoption (wait-free).
    Helping,
}

/// A scanner/writer-storm workload over one register array: slot 0
/// scans (by the configured [`ScanMode`]), every other slot storms
/// writes into its own register through the help board.
///
/// This is the driving seam for the adaptive scan path: ungated it
/// produces the `writer_storm` bench cells (same writer traffic, three
/// scanner renditions), gated it replays
/// `ts_core::model::HelpingScanModel` schedules at memory-access
/// granularity — the scanner announces `helping_scan_paused`'s access
/// sequence, writers announce `storm_write_paused`'s (collect-max
/// `getTS` issuers, like the model twin's).
///
/// The array capacity may exceed the writer count (writers use
/// registers `0..writers`): a storm over a large, sparsely-written
/// array is exactly where the dirty-block ladder beats the classic
/// full-sweep recollect.
///
/// Ungated writers are *paced to scanner progress* (see
/// `HelpingScanWriter::pace`): each store is followed by a bounded
/// spin that exits early when the scan counter moves, so the storm
/// covers the scanner's whole run instead of draining in its opening
/// instants, whichever rendition is scanning.
pub struct HelpingScanWorkload {
    array: RegisterArray<u64, PackedBackend>,
    board: HelpBoard<u64>,
    policy: ScanPolicy,
    mode: ScanMode,
    writers: usize,
    scans: AtomicU64,
    helped: AtomicU64,
    recollects: AtomicU64,
    writes: AtomicU64,
}

impl std::fmt::Debug for HelpingScanWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HelpingScanWorkload")
            .field("mode", &self.mode)
            .field("writers", &self.writers)
            .field("capacity", &self.array.capacity())
            .finish()
    }
}

impl HelpingScanWorkload {
    /// Creates the workload: `writers` storming slots over an array of
    /// `capacity >= writers` registers, scanned in `mode` under
    /// `policy`. Slot count is `writers + 1` (slot 0 scans).
    ///
    /// # Panics
    ///
    /// Panics if `writers == 0` or `capacity < writers`.
    pub fn new(writers: usize, capacity: usize, mode: ScanMode, policy: ScanPolicy) -> Self {
        assert!(writers > 0, "need at least one writer slot");
        assert!(capacity >= writers, "every writer needs a register");
        Self {
            array: RegisterArray::with_backend(capacity, 0),
            board: HelpBoard::new(writers),
            policy,
            mode,
            writers,
            scans: Default::default(),
            helped: Default::default(),
            recollects: Default::default(),
            writes: Default::default(),
        }
    }

    /// The replay configuration matching `HelpingScanModel::new(n)`:
    /// `n - 1` writers, one register per writer, helping mode with a
    /// starvation bound of 1 (the model raises distress after its
    /// first failed validate pass).
    pub fn for_replay(processes: usize) -> Self {
        assert!(processes >= 2, "need a scanner and a writer");
        Self::new(
            processes - 1,
            processes - 1,
            ScanMode::Helping,
            ScanPolicy {
                starvation_bound: 1,
            },
        )
    }

    /// Scans completed (all slots, all modes).
    pub fn scans(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    fn record_scan(&self, outcome: &ScanOutcome) {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.recollects
            .fetch_add(outcome.recollect_passes, Ordering::Relaxed);
        if outcome.helped {
            self.helped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct HelpingScanScanner<'a> {
    obj: &'a HelpingScanWorkload,
}

impl WorkloadWorker for HelpingScanScanner<'_> {
    // Slot 0 honors only `Scan`, whatever the mix deals it.
    fn step(&mut self, _op: WorkloadOp) -> WorkloadOp {
        let outcome = match self.obj.mode {
            ScanMode::Classic => {
                let (view, outcome) = ts_snapshot::classic_double_collect_scan(&self.obj.array);
                black_box(view);
                outcome
            }
            ScanMode::Adaptive => {
                let (view, outcome) = ts_snapshot::adaptive_scan(&self.obj.array);
                black_box(view);
                outcome
            }
            ScanMode::Helping => {
                let (view, outcome) =
                    ts_snapshot::helping_scan(&self.obj.array, &self.obj.board, &self.obj.policy);
                black_box(view);
                outcome
            }
        };
        self.obj.record_scan(&outcome);
        WorkloadOp::Scan
    }

    fn step_gated(&mut self, _op: WorkloadOp, gate: &StepGate) -> WorkloadOp {
        gate.pause(); // op start
        let (view, outcome) = ts_snapshot::helping_scan_paused(
            &self.obj.array,
            &self.obj.board,
            &self.obj.policy,
            || gate.pause(),
        );
        black_box(view);
        self.obj.record_scan(&outcome);
        WorkloadOp::Scan
    }

    // Scan outputs are views, not timestamps: opt out of the replay
    // output check (order is still replayed and property-checked across
    // the writers' timestamps).
}

struct HelpingScanWriter<'a> {
    obj: &'a HelpingScanWorkload,
    /// Board slot and register index (writer `slot - 1` of the target).
    writer: usize,
    /// Ungated storm value: a worker-local monotone counter (the
    /// register is single-writer, so the register stays monotone too).
    next: u64,
    history: OpHistory<Timestamp>,
}

impl HelpingScanWriter<'_> {
    /// Paces the ungated storm to scanner progress: after each write,
    /// spin until the shared scan counter moves or a sweep-scale spin
    /// budget expires.
    ///
    /// Without pacing, writers (a few dozen nanoseconds per store)
    /// drain their closed-loop op budget in the opening instants of
    /// the cell and the scanner spends the rest of the run over a
    /// quiescent array — every scan rendition then measures its
    /// *contention-free* cost and the cell stops being a storm. With
    /// pacing, the storm self-throttles to whatever the scanner can
    /// sustain: a scanner that keeps validating (the adaptive ladder)
    /// releases the writers a few stores per scan for its whole run,
    /// while a scanner stuck re-sweeping (the classic baseline never
    /// sees two clean full sweeps under sustained stores) leaves the
    /// writers on the budget path, which keeps the store rate high
    /// enough to stay ahead of full-array validation. The budget is
    /// proportional to the array capacity so the fallback write
    /// interval tracks the cost of the sweeps it is meant to disturb.
    fn pace(&self) {
        let seen = self.obj.scans.load(Ordering::Relaxed);
        for _ in 0..2 * self.obj.array.capacity() {
            if self.obj.scans.load(Ordering::Relaxed) != seen {
                break;
            }
            std::hint::spin_loop();
        }
    }
}

impl WorkloadWorker for HelpingScanWriter<'_> {
    // Writer slots honor only `GetTs` (the storm store); `Compare`
    // checks the worker's own history once it has a pair.
    fn step(&mut self, op: WorkloadOp) -> WorkloadOp {
        match op {
            WorkloadOp::Compare => match self.history.pair() {
                Some((a, b)) => {
                    assert!(
                        black_box(Timestamp::compare(&a, &b)),
                        "storm writer history out of order: {a} !< {b}"
                    );
                    WorkloadOp::Compare
                }
                None => self.step(WorkloadOp::GetTs),
            },
            _ => {
                self.next += 1;
                ts_snapshot::helping_write(
                    &self.obj.array,
                    &self.obj.board,
                    self.writer,
                    self.writer,
                    self.next,
                )
                .expect("writer register in range");
                self.obj.writes.fetch_add(1, Ordering::Relaxed);
                self.history.push(Timestamp::scalar(self.next));
                self.pace();
                WorkloadOp::GetTs
            }
        }
    }

    fn step_gated(&mut self, _op: WorkloadOp, gate: &StepGate) -> WorkloadOp {
        gate.pause(); // op start
        let (t, _outcome) = ts_snapshot::storm_write_paused(
            &self.obj.array,
            &self.obj.board,
            self.writer,
            self.writer,
            || gate.pause(),
        );
        self.obj.writes.fetch_add(1, Ordering::Relaxed);
        let t = Timestamp::scalar(t);
        if let Some(p) = self.history.last() {
            // The gated writer is a collect-max getTS issuer (its own
            // register is in the collect), so its outputs are ordered.
            assert!(
                Timestamp::compare(&p, &t),
                "storm writer violated the timestamp property: {p} !< {t}"
            );
        }
        self.history.push(t);
        WorkloadOp::GetTs
    }

    fn last_ts(&self) -> Option<Timestamp> {
        self.history.last()
    }
}

impl WorkloadTarget for HelpingScanWorkload {
    fn object(&self) -> &'static str {
        match self.mode {
            ScanMode::Classic => "classic_scan",
            ScanMode::Adaptive => "adaptive_scan",
            ScanMode::Helping => "helping_scan",
        }
    }

    fn backend(&self) -> &'static str {
        "packed"
    }

    fn slots(&self) -> usize {
        self.writers + 1
    }

    fn worker<'a>(&'a self, slot: usize) -> Box<dyn WorkloadWorker + 'a> {
        assert!(slot <= self.writers, "slot {slot} out of range");
        if slot == 0 {
            Box::new(HelpingScanScanner { obj: self })
        } else {
            Box::new(HelpingScanWriter {
                obj: self,
                writer: slot - 1,
                next: 0,
                history: OpHistory::new(),
            })
        }
    }

    fn replay_granularity(&self) -> ReplayGranularity {
        ReplayGranularity::MemoryAccess
    }

    fn service_stats(&self) -> Option<ServiceStats> {
        Some(ServiceStats {
            calls: self.writes.load(Ordering::Relaxed),
            stamps: self.writes.load(Ordering::Relaxed),
            helped_scans: self.helped.load(Ordering::Relaxed),
            dirty_recollects: self.recollects.load(Ordering::Relaxed),
            ..ServiceStats::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

    #[test]
    fn helping_scan_target_steps_by_slot_role() {
        // Slot 0 scans whatever the mix deals it; writer slots storm.
        let obj = HelpingScanWorkload::new(2, 4, ScanMode::Helping, ScanPolicy::default());
        assert_eq!(obj.object(), "helping_scan");
        assert_eq!(obj.slots(), 3);
        assert_eq!(obj.replay_granularity(), ReplayGranularity::MemoryAccess);
        let mut scanner = obj.worker(0);
        assert_eq!(scanner.step(WorkloadOp::GetTs), WorkloadOp::Scan);
        assert_eq!(scanner.last_ts(), None, "scan outputs are not timestamps");
        let mut writer = obj.worker(1);
        assert_eq!(writer.step(WorkloadOp::Scan), WorkloadOp::GetTs);
        assert_eq!(writer.step(WorkloadOp::GetTs), WorkloadOp::GetTs);
        assert_eq!(writer.step(WorkloadOp::Compare), WorkloadOp::Compare);
        assert_eq!(writer.last_ts(), Some(Timestamp::scalar(2)));
        drop((scanner, writer));
        let stats = obj.service_stats().expect("target keeps counters");
        assert_eq!(stats.calls, 2);
        assert_eq!(obj.scans(), 1);
        assert_eq!(stats.helped_scans, 0, "nobody starved");
    }

    #[test]
    fn helping_scan_mode_labels_select_the_scan_rendition() {
        for (mode, label) in [
            (ScanMode::Classic, "classic_scan"),
            (ScanMode::Adaptive, "adaptive_scan"),
            (ScanMode::Helping, "helping_scan"),
        ] {
            let obj = HelpingScanWorkload::new(1, 1, mode, ScanPolicy::default());
            assert_eq!(obj.object(), label);
            let mut scanner = obj.worker(0);
            assert_eq!(scanner.step(WorkloadOp::Scan), WorkloadOp::Scan);
        }
    }

    #[test]
    fn helping_scan_gated_workers_announce_the_model_access_sequence() {
        // One writer, one register: the solo scanner announces
        // 1 op-start + era read + era CAS + 1 collect + 1 validate = 5;
        // the calm writer announces 1 op-start + distress read +
        // 1 collect read + store = 4 — exactly the model twin's
        // Invoke/Read/Write/Cas step counts.
        let obj = HelpingScanWorkload::for_replay(2);
        let gate = StepGate::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = obj.worker(0);
                w.step_gated(WorkloadOp::Scan, &gate);
                gate.finish();
            });
            for _ in 0..5 {
                gate.release_next(GATE_TIMEOUT).unwrap();
            }
        });
        assert_eq!(gate.progress().announced, 5);
        let gate = StepGate::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = obj.worker(1);
                w.step_gated(WorkloadOp::GetTs, &gate);
                assert_eq!(w.last_ts(), Some(Timestamp::scalar(1)));
                gate.finish();
            });
            for _ in 0..4 {
                gate.release_next(GATE_TIMEOUT).unwrap();
            }
        });
        assert_eq!(gate.progress().announced, 4);
        assert_eq!(obj.scans(), 1);
    }
}
