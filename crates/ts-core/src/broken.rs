//! Deliberately incorrect timestamp objects (failure injection).
//!
//! These exist so the test suite can demonstrate that its checkers — the
//! model explorer, the happens-before stress tests, the property tests —
//! actually *fail* on broken implementations rather than passing
//! vacuously. They are exported (rather than test-only) because the
//! benchmark harness also uses them to calibrate the checker's detection
//! latency.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use ts_register::WordRegister;

use crate::error::GetTsError;
use crate::timestamp::Timestamp;
use crate::traits::OneShotTimestamp;

fn one_shot_guard(used: &[AtomicBool], pid: usize) -> Result<(), GetTsError> {
    if pid >= used.len() {
        return Err(GetTsError::PidOutOfRange {
            pid,
            processes: used.len(),
        });
    }
    if used[pid].swap(true, Ordering::AcqRel) {
        return Err(GetTsError::AlreadyUsed { pid });
    }
    Ok(())
}

/// Broken object: every call returns `(0, 0)`.
///
/// Violates the property at the very first ordered pair.
pub struct BrokenConstant {
    used: Vec<AtomicBool>,
}

impl BrokenConstant {
    /// Creates an instance for `processes` processes.
    pub fn new(processes: usize) -> Self {
        Self {
            used: (0..processes).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

impl OneShotTimestamp for BrokenConstant {
    fn get_ts(&self, pid: usize) -> Result<Timestamp, GetTsError> {
        one_shot_guard(&self.used, pid)?;
        Ok(Timestamp::new(0, 0))
    }

    fn processes(&self) -> usize {
        self.used.len()
    }

    fn registers(&self) -> usize {
        0
    }
}

impl fmt::Debug for BrokenConstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokenConstant")
            .field("processes", &self.used.len())
            .finish()
    }
}

/// Broken object: reads a shared counter and returns it *without*
/// writing.
///
/// Two sequential calls observe the same counter and return equal
/// timestamps — an ordered pair that `compare` cannot separate. This is
/// the minimal "forgot to leave a trace" bug; the paper's lower bounds
/// are precisely about how much trace (register space) a correct object
/// *must* leave.
pub struct BrokenStaleRead {
    register: WordRegister,
    used: Vec<AtomicBool>,
}

impl BrokenStaleRead {
    /// Creates an instance for `processes` processes.
    pub fn new(processes: usize) -> Self {
        Self {
            register: WordRegister::new(0),
            used: (0..processes).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

impl OneShotTimestamp for BrokenStaleRead {
    fn get_ts(&self, pid: usize) -> Result<Timestamp, GetTsError> {
        one_shot_guard(&self.used, pid)?;
        Ok(Timestamp::scalar(self.register.read()))
    }

    fn processes(&self) -> usize {
        self.used.len()
    }

    fn registers(&self) -> usize {
        1
    }
}

impl fmt::Debug for BrokenStaleRead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokenStaleRead")
            .field("processes", &self.used.len())
            .finish()
    }
}

/// Broken object: read-increment-write on one shared register, with no
/// collect — the real twin of the model crate's toy counter.
///
/// `getTS()` reads the register, writes `read + 1`, and returns the
/// written value. Correct for up to three one-shot processes; **broken
/// for four or more**: a process stalled between its read and its write
/// can roll the register back after two others have taken strictly
/// larger timestamps, letting a fourth, strictly later call return a
/// non-larger value. Unlike [`BrokenConstant`] and [`BrokenStaleRead`],
/// this bug *requires an adversarial interleaving* — sequential runs
/// are clean — which makes it the canonical target for the schedule
/// replay harness: the model explorer finds the interleaving on the
/// twin ([`BrokenCounterModel`](crate::model::BrokenCounterModel)), and
/// replaying the minimized schedule against this object reproduces the
/// violation on real threads.
///
/// [`get_ts_paused`](BrokenCounter::get_ts_paused) exposes the
/// read/write phase boundary so a replay controller can hold the
/// stalled writer exactly where the counterexample needs it.
///
/// Its workload target in `ts-workloads` is **replay-only**: each
/// slot supports exactly one `GetTs` (matching the one-shot twin), and
/// a second op panics. To drive it with the scenario engine, wrap it
/// in that crate's `OneShotPool` like the other one-shot objects.
pub struct BrokenCounter {
    register: WordRegister,
    used: Vec<AtomicBool>,
}

impl BrokenCounter {
    /// Creates an instance for `processes` processes.
    pub fn new(processes: usize) -> Self {
        Self {
            register: WordRegister::new(0),
            used: (0..processes).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// `getTS` with a pause hook: `pause` runs immediately before the
    /// shared read and again before the shared write (the step-barrier
    /// seam used by schedule replay).
    ///
    /// # Errors
    ///
    /// [`GetTsError::PidOutOfRange`] or [`GetTsError::AlreadyUsed`]
    /// exactly as [`OneShotTimestamp::get_ts`].
    pub fn get_ts_paused(
        &self,
        pid: usize,
        mut pause: impl FnMut(),
    ) -> Result<Timestamp, GetTsError> {
        one_shot_guard(&self.used, pid)?;
        pause();
        let v = self.register.read();
        pause();
        self.register.write(v + 1);
        Ok(Timestamp::scalar(v + 1))
    }
}

impl OneShotTimestamp for BrokenCounter {
    fn get_ts(&self, pid: usize) -> Result<Timestamp, GetTsError> {
        self.get_ts_paused(pid, || {})
    }

    fn processes(&self) -> usize {
        self.used.len()
    }

    fn registers(&self) -> usize {
        1
    }
}

impl fmt::Debug for BrokenCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokenCounter")
            .field("processes", &self.used.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_violates_on_first_ordered_pair() {
        let ts = BrokenConstant::new(2);
        let a = ts.get_ts(0).unwrap();
        let b = ts.get_ts(1).unwrap(); // strictly after a
        assert!(
            !Timestamp::compare(&a, &b),
            "sanity: the broken object must actually be broken"
        );
    }

    #[test]
    fn stale_read_violates_on_first_ordered_pair() {
        let ts = BrokenStaleRead::new(2);
        let a = ts.get_ts(0).unwrap();
        let b = ts.get_ts(1).unwrap();
        assert!(!Timestamp::compare(&a, &b));
    }

    #[test]
    fn broken_counter_is_sequentially_clean() {
        // The counter's bug needs an adversarial interleaving; any
        // sequential order is correct — that's what makes it the replay
        // harness's canary rather than a trivially broken object.
        let ts = BrokenCounter::new(4);
        let mut last = Timestamp::scalar(0);
        for p in 0..4 {
            let t = ts.get_ts(p).unwrap();
            assert!(Timestamp::compare(&last, &t), "{last} !< {t}");
            last = t;
        }
    }

    #[test]
    fn broken_counter_stalled_writer_rolls_back() {
        // Drive the rollback by hand through the pause hook: p0 reads 0
        // and stalls before its write; p1 and p2 finish (register
        // reaches 2, t1 = 1, t2 = 2); p0's pending write lands 1,
        // rolling the register back; p3's strictly-later call returns 2
        // again — equal to t2, violating the property.
        use std::sync::mpsc;
        let ts = BrokenCounter::new(4);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (arrived_tx, arrived_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let ts = &ts;
            let handle = s.spawn(move || {
                ts.get_ts_paused(0, || {
                    arrived_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                })
                .unwrap()
            });
            arrived_rx.recv().unwrap(); // p0 poised on its read
            release_tx.send(()).unwrap();
            arrived_rx.recv().unwrap(); // p0 read 0, poised to write 1
            let t1 = ts.get_ts(1).unwrap();
            let t2 = ts.get_ts(2).unwrap();
            assert!(Timestamp::compare(&t1, &t2));
            release_tx.send(()).unwrap(); // p0's stale write rolls back
            let t0 = handle.join().unwrap();
            assert_eq!(t0, Timestamp::scalar(1));
            let t3 = ts.get_ts(3).unwrap(); // strictly after p2 responded
            assert!(
                !Timestamp::compare(&t2, &t3),
                "expected the rollback to break ordering: t2={t2} t3={t3}"
            );
        });
    }

    #[test]
    fn broken_objects_still_enforce_one_shot_discipline() {
        let ts = BrokenConstant::new(1);
        ts.get_ts(0).unwrap();
        assert_eq!(ts.get_ts(0), Err(GetTsError::AlreadyUsed { pid: 0 }));
        let ts = BrokenStaleRead::new(1);
        ts.get_ts(0).unwrap();
        assert!(ts.get_ts(0).is_err());
    }
}
