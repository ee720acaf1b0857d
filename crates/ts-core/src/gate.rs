//! The step barrier behind schedule replay and fault-campaign stalls.
//!
//! A worker thread announces each sub-step of an operation by pausing
//! at its [`StepGate`]; a controller releases the sub-steps one at a
//! time (`ts_workloads::replay` walks a recorded trace this way) or
//! grants them in bulk (the fault campaigns' stall/resume knob). The
//! objects in this crate, and the quorum clients in `ts-replica`,
//! expose `*_paused` variants of their calls that take the pause hook.

use std::sync::{Condvar, Mutex};

use ts_register::CachePadded;

/// Why a [`StepGate::release_next`] call gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateError {
    /// The worker did not finish the released sub-step within the
    /// timeout — it is stuck, dead, or announces fewer sub-steps than
    /// the controller's trace expects.
    Stalled,
    /// The worker called [`StepGate::finish`] before announcing the
    /// released sub-step: the trace expects more sub-steps than the
    /// worker has.
    FinishedEarly,
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::Stalled => write!(f, "worker never finished the released sub-step"),
            GateError::FinishedEarly => {
                write!(f, "worker finished before the released sub-step")
            }
        }
    }
}

/// A snapshot of a gate's counters (for invariant checks and
/// diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateProgress {
    /// Sub-steps the controller has authorized.
    pub released: u64,
    /// Pauses the worker has announced (the `k`-th pause blocks until
    /// `released >= k`).
    pub announced: u64,
    /// Sub-steps the worker has finished.
    pub finished: u64,
    /// Whether the worker has called [`StepGate::finish`].
    pub done: bool,
}

#[derive(Debug, Default)]
struct GateState {
    released: u64,
    announced: u64,
    finished: u64,
    done: bool,
}

/// A per-worker step barrier: the worker announces sub-steps by pausing
/// at the gate, and a controller releases them one at a time.
///
/// This is the protocol behind adversarial schedule replay
/// (`ts_workloads::replay`): each worker thread calls
/// [`pause`](StepGate::pause) immediately before every announced
/// sub-step of an operation (at minimum once at op start; see
/// `step_gated` in `ts-workloads`) and [`finish`](StepGate::finish) when
/// it will announce no more. The controller calls
/// [`release_next`](StepGate::release_next) once per recorded step —
/// the call returns only after the worker has *finished* the released
/// sub-step (observed at its next pause or at `finish`), so the
/// controller always knows the sub-step's shared-memory effect is
/// visible before it releases any other worker.
///
/// Invariant (checked internally on every release): the worker never
/// runs ahead of its released step — `finished <= released` at all
/// times until [`release_all`](StepGate::release_all) abandons pacing.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use ts_core::StepGate;
///
/// let gate = StepGate::new();
/// let work_done = AtomicU64::new(0);
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         for _ in 0..3 {
///             gate.pause(); // announce; blocks until released
///             work_done.fetch_add(1, Ordering::SeqCst);
///         }
///         gate.finish();
///     });
///     for expected in 1..=3 {
///         gate.release_next(std::time::Duration::from_secs(5)).unwrap();
///         // release_next returned: sub-step `expected` has finished.
///         assert!(work_done.load(Ordering::SeqCst) >= expected);
///     }
/// });
/// ```
#[derive(Debug, Default)]
pub struct StepGate {
    /// Cache-line padded: replay keeps one gate per worker in a `Vec`,
    /// and each gate's released/finished counters are hammered by a
    /// different worker thread plus the controller — without padding,
    /// neighbouring workers' gate traffic bounces one shared line
    /// between every thread in the replay.
    state: CachePadded<Mutex<GateState>>,
    cv: Condvar,
}

impl StepGate {
    /// Creates a gate with nothing announced or released.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker side: announces the next sub-step and blocks until the
    /// controller releases it. Marks every earlier sub-step finished.
    pub fn pause(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.finished = state.announced;
        state.announced += 1;
        let waiting_for = state.announced;
        self.cv.notify_all();
        while state.released < waiting_for {
            state = self.cv.wait(state).expect("gate lock");
        }
    }

    /// Worker side: declares that no further sub-steps will be
    /// announced and that all announced work is finished.
    pub fn finish(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.finished = state.announced;
        state.done = true;
        self.cv.notify_all();
    }

    /// Controller side: releases the next sub-step and waits until the
    /// worker has finished it (arrived at its next pause, or called
    /// [`finish`](StepGate::finish)).
    ///
    /// # Errors
    ///
    /// [`GateError::Stalled`] if the worker does not finish within
    /// `timeout`; [`GateError::FinishedEarly`] if the worker finished
    /// without ever announcing this sub-step (a trace/implementation
    /// sub-step-count mismatch).
    pub fn release_next(&self, timeout: std::time::Duration) -> Result<(), GateError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().expect("gate lock");
        state.released += 1;
        let target = state.released;
        self.cv.notify_all();
        while state.finished < target {
            if state.done {
                return Err(GateError::FinishedEarly);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(GateError::Stalled);
            }
            let (guard, _timeout_result) = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("gate lock");
            state = guard;
        }
        // The run-ahead invariant: a worker can only have finished what
        // was released (release_all sets released = u64::MAX, which
        // trivially keeps the inequality).
        debug_assert!(
            state.finished <= state.released,
            "worker ran ahead of its released step"
        );
        Ok(())
    }

    /// Controller side, non-blocking: adds `n` release credits without
    /// waiting for the worker to consume any of them.
    ///
    /// This is the fault-campaign stall/resume knob: a worker paced
    /// purely by credits runs freely while credits remain, parks at its
    /// next pause when they dry up (a *stall* injected at an exact
    /// announced sub-step), and resumes the instant more are granted.
    /// Unlike [`release_next`](StepGate::release_next) there is no
    /// lock-step wait, so one controller can meter many workers.
    pub fn grant(&self, n: u64) {
        let mut state = self.state.lock().expect("gate lock");
        state.released = state.released.saturating_add(n);
        self.cv.notify_all();
    }

    /// Controller side: abandons pacing — every current and future
    /// pause is released immediately. Used to drain workers whose
    /// remaining sub-steps fall outside the replayed trace (e.g. a
    /// counterexample's stalled writer, left mid-operation when the
    /// trace ends).
    pub fn release_all(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.released = u64::MAX;
        self.cv.notify_all();
    }

    /// Current counters (for tests and diagnostics).
    pub fn progress(&self) -> GateProgress {
        let state = self.state.lock().expect("gate lock");
        GateProgress {
            released: state.released,
            announced: state.announced,
            finished: state.finished,
            done: state.done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const GATE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

    #[test]
    fn gate_release_next_observes_completed_substeps() {
        let gate = StepGate::new();
        let progress = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..5 {
                    gate.pause();
                    progress.fetch_add(1, Ordering::SeqCst);
                }
                gate.finish();
            });
            for released in 1..=5 {
                gate.release_next(GATE_TIMEOUT).unwrap();
                assert_eq!(progress.load(Ordering::SeqCst), released);
            }
            let p = gate.progress();
            assert!(p.done);
            assert_eq!(p.finished, 5);
        });
    }

    #[test]
    fn gate_worker_never_runs_ahead_of_released_steps() {
        // A worker hammering the gate as fast as it can, a controller
        // releasing with jitter, and a sampler asserting the run-ahead
        // invariant the whole time.
        let gate = StepGate::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let steps = 200u64;
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..steps {
                    gate.pause();
                }
                gate.finish();
            });
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let p = gate.progress();
                    assert!(
                        p.finished <= p.released,
                        "worker ran ahead: finished {} > released {}",
                        p.finished,
                        p.released
                    );
                    assert!(
                        p.announced <= p.released + 1,
                        "worker announced past its release horizon"
                    );
                    std::thread::yield_now();
                }
            });
            // SplitMix64-style jitter without a rand dependency.
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..steps {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 4 == 0 {
                    std::thread::yield_now();
                }
                gate.release_next(GATE_TIMEOUT).unwrap();
            }
            stop.store(true, Ordering::Release);
        });
    }

    #[test]
    fn gate_reports_finished_early_on_substep_mismatch() {
        let gate = StepGate::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                gate.pause();
                gate.finish(); // announces 1 sub-step total
            });
            gate.release_next(GATE_TIMEOUT).unwrap();
            // The trace expects a second sub-step the worker never has.
            assert_eq!(
                gate.release_next(GATE_TIMEOUT),
                Err(GateError::FinishedEarly)
            );
        });
    }

    #[test]
    fn gate_reports_stall_on_absent_worker() {
        let gate = StepGate::new();
        assert_eq!(
            gate.release_next(std::time::Duration::from_millis(50)),
            Err(GateError::Stalled)
        );
        // An abandoned gate lets a later worker run unpaced.
        gate.release_all();
        gate.pause(); // returns immediately
        gate.finish();
    }

    #[test]
    fn granted_credits_meter_the_worker_without_lockstep_waits() {
        use std::sync::atomic::AtomicU64;
        let gate = StepGate::new();
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    gate.pause();
                    done.fetch_add(1, Ordering::SeqCst);
                }
                gate.finish();
            });
            // Two credits: the worker burns both and parks at its third
            // pause — a stall injected at an exact sub-step boundary.
            gate.grant(2);
            while gate.progress().announced < 3 {
                std::thread::yield_now();
            }
            assert_eq!(done.load(Ordering::SeqCst), 2, "parked on the 3rd pause");
            // One more credit resumes it.
            gate.grant(1);
            while !gate.progress().done {
                std::thread::yield_now();
            }
            assert_eq!(done.load(Ordering::SeqCst), 3);
        });
    }
}
