//! The scenario engine: drives a [`WorkloadTarget`] under a
//! [`Scenario`] with `N` worker threads and reports throughput plus a
//! merged latency histogram.
//!
//! Latency semantics per arrival mode:
//!
//! - **closed loop** — each sample is the service time of one
//!   `WorkloadWorker::step` call;
//! - **open loop** — each op has a *scheduled* arrival instant derived
//!   from the aggregate rate (bursts arrive together); the sample is
//!   `completion − scheduled`, so time spent queued behind a slow op
//!   counts against every op that waited. This avoids coordinated
//!   omission: a closed loop silently stops submitting while stalled,
//!   an open loop keeps the clock running.
//!
//! Churn scenarios run each worker life on its own short-lived OS
//! thread (same slot, fresh
//! [`WorkloadWorker`](crate::WorkloadWorker)); when a
//! life's thread
//! exits, its epoch-backend garbage is orphaned, and the supervising
//! slot thread immediately calls [`ts_register::reclaim::flush`] to
//! adopt and reclaim it — the churn hook that keeps garbage from
//! accumulating across generations.
//!
//! # Example
//!
//! ```
//! use ts_core::CollectMax;
//! use ts_workloads::engine::{run_scenario, RunConfig};
//! use ts_workloads::scenario::{Arrival, Churn, OpMix, Scenario};
//!
//! // Two threads, churning every 50 ops: 4 lives per slot.
//! let scenario = Scenario {
//!     name: "churny",
//!     arrival: Arrival::ClosedLoop,
//!     mix: OpMix::get_ts_only(),
//!     churn: Some(Churn { ops_per_life: 50 }),
//! };
//! let cfg = RunConfig { threads: 2, ops_per_thread: 200, seed: 9 };
//! let report = run_scenario(&CollectMax::new(2), &scenario, &cfg);
//! assert_eq!(report.lives, 8);
//! assert_eq!(report.counts.total(), 400);
//! assert_eq!(report.latency.count(), 400);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::faults::Campaign;
use crate::histogram::LatencyHistogram;
use crate::scenario::{Arrival, Scenario};
use crate::target::{WorkloadOp, WorkloadTarget};

/// Per-run knobs that are not part of the traffic shape.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Concurrent worker slots (must not exceed the target's
    /// [`slots`](WorkloadTarget::slots)).
    pub threads: usize,
    /// Ops each slot performs over the whole run (summed across churn
    /// lives).
    pub ops_per_thread: u64,
    /// Base seed; every (slot, life) derives its own op-mix stream.
    pub seed: u64,
}

/// Executed operations by kind (what workers actually ran, after any
/// fallback substitution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `GetTs` ops (including substitutions for unsupported kinds).
    pub get_ts: u64,
    /// `Scan` ops.
    pub scan: u64,
    /// `Compare` ops.
    pub compare: u64,
}

impl OpCounts {
    /// Total executed ops.
    pub fn total(&self) -> u64 {
        self.get_ts + self.scan + self.compare
    }

    fn add(&mut self, op: WorkloadOp) {
        match op {
            WorkloadOp::GetTs => self.get_ts += 1,
            WorkloadOp::Scan => self.scan += 1,
            WorkloadOp::Compare => self.compare += 1,
        }
    }

    fn merge(&mut self, other: &OpCounts) {
        self.get_ts += other.get_ts;
        self.scan += other.scan;
        self.compare += other.compare;
    }
}

/// Everything measured about one (target × scenario × threads) cell.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Object label from the target.
    pub object: &'static str,
    /// Backend label from the target.
    pub backend: &'static str,
    /// Scenario name.
    pub scenario: &'static str,
    /// Worker thread count.
    pub threads: usize,
    /// Worker lives (equals `threads` without churn).
    pub lives: u64,
    /// Executed ops by kind.
    pub counts: OpCounts,
    /// Wall-clock duration of the whole run.
    pub elapsed_secs: f64,
    /// Executed ops per wall-clock second.
    pub throughput_ops_per_sec: f64,
    /// Merged per-op latency histogram (see the module docs for what a
    /// sample means per arrival mode).
    pub latency: LatencyHistogram,
}

/// Optional engine extensions: fault campaigns and the liveness
/// watchdog. [`run_scenario`] uses the default (no faults, no
/// watchdog); [`run_scenario_with`] takes explicit options.
///
/// `RunConfig` stays a plain `Copy` grid knob; anything that owns
/// state or references lives here instead.
#[derive(Debug, Default, Clone)]
pub struct EngineOptions {
    /// Fault campaign to drive alongside the scenario (see
    /// [`Campaign`]). Its events fire at global completed-op
    /// thresholds, applied in-band by the worker that crosses them.
    pub campaign: Option<Arc<Campaign>>,
    /// Liveness watchdog: if **no op completes** for this long while
    /// workers are still running, the run panics with a per-slot
    /// diagnosis (crashed replicas, stalled slots, op counts) instead
    /// of hanging. Campaign stalls of a worker subset keep the
    /// watchdog quiet — the other workers' completions feed it.
    pub watchdog: Option<Duration>,
}

/// The watchdog body: polls the completed-op pulse; on stagnation past
/// `patience`, breaks starved campaign stalls first and panics with a
/// diagnosis only if the run stays frozen with nothing left to break.
fn watchdog_loop(
    patience: Duration,
    pulse: &std::sync::atomic::AtomicU64,
    done: &AtomicBool,
    campaign: Option<&Campaign>,
    target: &dyn WorkloadTarget,
) {
    let poll = (patience / 10).max(Duration::from_millis(5));
    let mut last = pulse.load(std::sync::atomic::Ordering::Relaxed);
    let mut frozen_since = Instant::now();
    while !done.load(Ordering::SeqCst) {
        // Sleep the poll interval in short slices so a finished run
        // joins this thread promptly instead of waiting out the full
        // interval.
        let wake = Instant::now() + poll;
        while Instant::now() < wake {
            if done.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5).min(poll));
        }
        let count = pulse.load(std::sync::atomic::Ordering::Relaxed);
        if count != last {
            last = count;
            frozen_since = Instant::now();
            continue;
        }
        if frozen_since.elapsed() < patience {
            continue;
        }
        if let Some(c) = campaign {
            let stalled = c.stalled_slots();
            if !stalled.is_empty() {
                // A stall whose resume threshold the run can no longer
                // reach (everyone else finished, or the schedule
                // overran the op budget): break it rather than hang.
                eprintln!(
                    "watchdog: no op completed for {patience:?} at {count} ops; \
                     force-resuming stalled slots {stalled:?}"
                );
                c.finish();
                frozen_since = Instant::now();
                continue;
            }
        }
        let mut diagnosis = format!(
            "liveness watchdog: no op completed for {patience:?} \
             (stuck at {count} ops) on {}/{}",
            target.object(),
            target.backend(),
        );
        if let Some(c) = campaign {
            diagnosis.push_str(&format!(
                "; crashed replicas {:?}, partitioned {:?}, \
                 {} of {} fault events applied",
                c.cluster().crashed(),
                c.cluster().router().isolated(),
                c.applied().len(),
                c.schedule().events.len(),
            ));
        }
        panic!("{diagnosis}");
    }
}

/// Derives the deterministic RNG seed for one worker life.
fn life_seed(base: u64, slot: usize, life: u64) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(slot as u64)
        .wrapping_mul(0x0000_0100_0000_01B3)
        .wrapping_add(life)
}

/// Sleeps (coarsely) then spins (finely) until `deadline`.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_millis(2) {
            std::thread::sleep(remaining - Duration::from_millis(1));
        } else {
            std::thread::yield_now();
        }
    }
}

/// One worker life: `ops` operations as `slot`, starting at global op
/// index `first_op` (relevant for open-loop arrival schedules, which
/// continue across churn lives).
#[allow(clippy::too_many_arguments)]
fn run_life(
    target: &dyn WorkloadTarget,
    scenario: &Scenario,
    cfg: &RunConfig,
    opts: &EngineOptions,
    slot: usize,
    seed: u64,
    first_op: u64,
    ops: u64,
    epoch_start: Instant,
    pulse: &std::sync::atomic::AtomicU64,
) -> (LatencyHistogram, OpCounts) {
    let mut worker = target.worker(slot);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hist = LatencyHistogram::new();
    let mut counts = OpCounts::default();
    let campaign = opts.campaign.as_deref();
    match scenario.arrival {
        Arrival::ClosedLoop => {
            for _ in 0..ops {
                let op = scenario.mix.sample(&mut rng);
                if let Some(c) = campaign {
                    c.before_op(slot);
                }
                let started = Instant::now();
                let actual = worker.step(op);
                hist.record(started.elapsed().as_nanos() as u64);
                counts.add(actual);
                pulse.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if let Some(c) = campaign {
                    c.after_op();
                }
            }
        }
        Arrival::OpenLoop { rate_hz, burst } => {
            // One global arrival stream at the aggregate rate, dealt
            // round-robin: worker `slot` owns global indices
            // slot, slot+threads, slot+2·threads, ... so the bursts the
            // object sees are exactly `burst` arrivals wide (not
            // burst × threads, as a per-worker schedule with a shared
            // origin would produce).
            let period_ns = 1_000_000_000u128 / u128::from(rate_hz.max(1));
            let burst = u64::from(burst.max(1));
            for i in 0..ops {
                let index = slot as u64 + (first_op + i) * cfg.threads as u64;
                let group = index / burst;
                let sched_ns = (u128::from(group * burst) * period_ns).min(u128::from(u64::MAX));
                let scheduled = epoch_start + Duration::from_nanos(sched_ns as u64);
                wait_until(scheduled);
                let op = scenario.mix.sample(&mut rng);
                if let Some(c) = campaign {
                    c.before_op(slot);
                }
                let actual = worker.step(op);
                let sojourn = Instant::now().saturating_duration_since(scheduled);
                hist.record(sojourn.as_nanos() as u64);
                counts.add(actual);
                pulse.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if let Some(c) = campaign {
                    c.after_op();
                }
            }
        }
    }
    (hist, counts)
}

/// Runs `scenario` against `target` with default [`EngineOptions`]
/// (no fault campaign, no watchdog) and returns the merged report.
///
/// # Panics
///
/// Panics if `cfg.threads == 0`, if the target has fewer slots than
/// `cfg.threads`, or if any worker thread panics (a worker assertion —
/// e.g. a timestamp-property violation — is a real failure).
pub fn run_scenario(
    target: &dyn WorkloadTarget,
    scenario: &Scenario,
    cfg: &RunConfig,
) -> ScenarioReport {
    run_scenario_with(target, scenario, cfg, &EngineOptions::default())
}

/// [`run_scenario`] with explicit [`EngineOptions`]: an optional fault
/// [`Campaign`] applied at global op thresholds, and an optional
/// liveness watchdog.
///
/// The watchdog observes the global completed-op pulse. If it
/// stagnates for the configured duration it first force-releases any
/// campaign stall gates still pending (a schedule whose resume
/// threshold the run can no longer reach would otherwise park a worker
/// forever) and notes it on stderr; if the pulse stays frozen with no
/// stall left to break, it panics with a diagnosis — op counts,
/// crashed replicas, partitioned replicas, stalled slots — instead of
/// letting the run hang silently.
pub fn run_scenario_with(
    target: &dyn WorkloadTarget,
    scenario: &Scenario,
    cfg: &RunConfig,
    opts: &EngineOptions,
) -> ScenarioReport {
    assert!(cfg.threads >= 1, "need at least one worker thread");
    assert!(
        target.slots() >= cfg.threads,
        "target {} has {} slots but {} threads requested",
        target.object(),
        target.slots(),
        cfg.threads
    );
    let epoch_start = Instant::now();
    let pulse = std::sync::atomic::AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let (per_slot, run_elapsed): (Vec<(LatencyHistogram, OpCounts, u64)>, Duration) =
        std::thread::scope(|s| {
            let watchdog = opts.watchdog.map(|patience| {
                let pulse = &pulse;
                let done = &done;
                let campaign = opts.campaign.clone();
                s.spawn(move || watchdog_loop(patience, pulse, done, campaign.as_deref(), target))
            });
            let handles: Vec<_> = (0..cfg.threads)
                .map(|slot| {
                    let pulse = &pulse;
                    s.spawn(move || {
                        let mut hist = LatencyHistogram::new();
                        let mut counts = OpCounts::default();
                        let mut lives = 0u64;
                        match scenario.churn {
                            None => {
                                let (h, c) = run_life(
                                    target,
                                    scenario,
                                    cfg,
                                    opts,
                                    slot,
                                    life_seed(cfg.seed, slot, 0),
                                    0,
                                    cfg.ops_per_thread,
                                    epoch_start,
                                    pulse,
                                );
                                hist.merge(&h);
                                counts.merge(&c);
                                lives = 1;
                            }
                            Some(churn) => {
                                let per_life = churn.ops_per_life.max(1);
                                let mut done = 0u64;
                                while done < cfg.ops_per_thread {
                                    let ops = per_life.min(cfg.ops_per_thread - done);
                                    let seed = life_seed(cfg.seed, slot, lives);
                                    // A real OS thread per life: its exit is
                                    // what hands epoch garbage to the orphan
                                    // stack.
                                    let (h, c) = std::thread::scope(|life| {
                                        life.spawn(move || {
                                            run_life(
                                                target,
                                                scenario,
                                                cfg,
                                                opts,
                                                slot,
                                                seed,
                                                done,
                                                ops,
                                                epoch_start,
                                                pulse,
                                            )
                                        })
                                        .join()
                                        .expect("worker life panicked")
                                    });
                                    hist.merge(&h);
                                    counts.merge(&c);
                                    // Churn hook: adopt + reclaim the exited
                                    // life's orphaned garbage now.
                                    ts_register::reclaim::flush();
                                    done += ops;
                                    lives += 1;
                                }
                            }
                        }
                        (hist, counts, lives)
                    })
                })
                .collect();
            // Set `done` even when a worker's join panics and this closure
            // unwinds — otherwise the watchdog thread would keep the scope
            // alive forever while the panic waits to propagate.
            struct DoneGuard<'a>(&'a AtomicBool);
            impl Drop for DoneGuard<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
            let _done_guard = DoneGuard(&done);
            let per_slot: Vec<(LatencyHistogram, OpCounts, u64)> = handles
                .into_iter()
                .map(|h| h.join().expect("worker slot panicked"))
                .collect();
            // The run's wall time ends when the last worker finishes — not
            // when the watchdog thread wakes from its coarse poll sleep
            // (patience/10, seconds at bench patience) to observe `done`.
            // Measuring after that join would quantize every watchdog-armed
            // run's elapsed time (and deflate its throughput) to the poll
            // interval.
            let run_elapsed = epoch_start.elapsed();
            done.store(true, Ordering::SeqCst);
            if let Some(w) = watchdog {
                w.join().expect("watchdog panicked");
            }
            (per_slot, run_elapsed)
        });
    if let Some(campaign) = &opts.campaign {
        // Release any stall gate still pending (a schedule tail the run
        // never reached) so nothing leaks into the next run.
        campaign.finish();
    }
    let elapsed_secs = run_elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    let mut latency = LatencyHistogram::new();
    let mut counts = OpCounts::default();
    let mut lives = 0u64;
    for (h, c, l) in &per_slot {
        latency.merge(h);
        counts.merge(c);
        lives += l;
    }
    ScenarioReport {
        object: target.object(),
        backend: target.backend(),
        scenario: scenario.name,
        threads: cfg.threads,
        lives,
        counts,
        elapsed_secs,
        throughput_ops_per_sec: counts.total() as f64 / elapsed_secs,
        latency,
    }
}
