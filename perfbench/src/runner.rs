//! The closed-loop runner: two load threads, windowed counts, sampled
//! latency and, in a traced phase, one span around every library call.
//!
//! Every number the runner reports is a median over fixed-length
//! windows of the measured interval, so a short stall on a shared host
//! moves one window, not the result. Windows in which the hypervisor
//! stole much of the host's CPU time are left out of the medians (see
//! [`quiet_windows`]).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::{check, host};

/// Load threads per workload (the benchmark host has two CPUs).
pub const THREADS: usize = 2;

/// Length of one measurement window.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Latency samples kept per thread per window (reservoir sampling, so
/// memory does not grow with throughput or run length).
const RESERVOIR: usize = 4096;

/// An untimed op checks the clock this often, to notice window ends.
const CLOCK_EVERY: u64 = 16;

/// A window counts toward the medians if at most this share of the
/// host's CPU time during it was stolen by the hypervisor.
const STEAL_MAX: f64 = 0.03;

/// If fewer windows than `1 / QUIET_SHARE` of the run are that quiet,
/// the medians are over that many of the least-stolen windows.
const QUIET_SHARE: usize = 4;

/// One op stream per load thread, generated from the seed before
/// set-up; op `i` of a thread reads entry `i` modulo its length.
pub type Streams = Vec<Vec<u8>>;

/// What an op does to the object, as far as the checks care.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Issues one stamp.
    Get,
    /// Issues a batch of consecutive stamps.
    Batch,
    /// Reads the current maximum; issues nothing.
    Read,
}

/// One op kind of a workload: the span its library call is recorded
/// under, and its role.
#[derive(Clone, Copy, Debug)]
pub struct Kind {
    pub span: &'static str,
    pub role: Role,
}

/// One sampled op: invoke and response instants (ns since the phase's
/// base instant), the first and last stamp it returned as ordered keys
/// (equal for a single stamp or a read), and the object it ran on.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub inv: u64,
    pub resp: u64,
    pub lo: u128,
    pub hi: u128,
    pub obj: u64,
    pub kind: u8,
}

/// Fills the reservoirs when they are allocated, so their pages are
/// touched before the run rather than during it.
const UNUSED: Sample = Sample {
    inv: u64::MAX,
    resp: u64::MAX,
    lo: 0,
    hi: 0,
    obj: 0,
    kind: 0,
};

/// The result of one op, as the workload reports it to the runner.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    pub kind: u8,
    pub obj: u64,
    pub lo: u128,
    pub hi: u128,
    /// Stamps issued (0 for a read).
    pub stamps: u64,
    /// False if the call failed or broke the per-thread or per-session
    /// order check.
    pub ok: bool,
}

/// Times a library call when the op is sampled or traced.
#[derive(Debug)]
pub struct Clock {
    base: Instant,
    on: bool,
    inv: u64,
    resp: u64,
}

impl Clock {
    /// Runs `call`, reading the clock around it if this op is timed.
    #[inline]
    pub fn time<R>(&mut self, call: impl FnOnce() -> R) -> R {
        if !self.on {
            return call();
        }
        self.inv = ns_since(self.base);
        let r = call();
        self.resp = ns_since(self.base);
        r
    }
}

fn ns_since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// A benchmark workload: the shared object(s), the per-thread op
/// streams, and the checks on its outputs.
pub trait Workload: Sync {
    /// Per-thread state (sessions, order floors, the current round).
    type Worker<'a>
    where
        Self: 'a;

    /// The op kinds, indexed by [`Done::kind`].
    const KINDS: &'static [Kind];

    fn worker(&self, thread: usize) -> Self::Worker<'_>;

    /// Whether op `i` of a thread is a latency (and correctness) sample.
    fn sampled(&self, i: u64) -> bool;

    /// Runs op `i` of the thread. `None` means the run is over (`stop`
    /// was raised while the op waited for the other thread).
    fn step(
        &self,
        worker: &mut Self::Worker<'_>,
        i: u64,
        clock: &mut Clock,
        stop: &AtomicBool,
    ) -> Option<Done>;

    /// Timestamp-property violations among the retained samples.
    fn violations(&self, samples: &[Sample]) -> u64;

    /// End-of-run conditions that are not per-op (fault schedule,
    /// register count); each failure is a line of text.
    fn finish(&self) -> Vec<String> {
        Vec::new()
    }

    /// Per-layer counters read from the objects' public counters after
    /// a traced phase.
    fn layer_metrics(&self, totals: &Totals, samples: &[Sample], out: &mut BTreeMap<String, f64>);
}

/// Per-thread output buffers, allocated and touched before the run.
struct ThreadOut {
    ops: Vec<u64>,
    stamps: Vec<u64>,
    reservoirs: Vec<Vec<Sample>>,
    filled: Vec<usize>,
    seen: Vec<u64>,
    span_calls: Vec<u64>,
    span_ns: Vec<u64>,
    failed: u64,
    busy_ns: u64,
    rng: u64,
    /// The host's stolen and total CPU ticks at the start and at the end
    /// of each window; read by thread 0 only.
    cpu: Vec<Option<(u64, u64)>>,
}

impl ThreadOut {
    fn new(windows: usize, kinds: usize, seed: u64) -> Self {
        Self {
            ops: vec![0; windows],
            stamps: vec![0; windows],
            reservoirs: (0..windows).map(|_| vec![UNUSED; RESERVOIR]).collect(),
            filled: vec![0; windows],
            seen: vec![0; windows],
            span_calls: vec![0; kinds],
            span_ns: vec![0; kinds],
            failed: 0,
            busy_ns: 0,
            rng: seed | 1,
            cpu: vec![None; windows + 1],
        }
    }

    /// Algorithm R: every sampled op of the window is equally likely to
    /// be kept.
    fn keep(&mut self, w: usize, s: Sample) {
        self.seen[w] += 1;
        if self.filled[w] < RESERVOIR {
            self.reservoirs[w][self.filled[w]] = s;
            self.filled[w] += 1;
        } else {
            let j = (check::splitmix(&mut self.rng) % self.seen[w]) as usize;
            if j < RESERVOIR {
                self.reservoirs[w][j] = s;
            }
        }
    }
}

/// Whole-phase sums over both threads.
#[derive(Debug, Default)]
pub struct Totals {
    pub ops: u64,
    pub failed: u64,
    pub span_calls: Vec<u64>,
    pub span_ns: Vec<u64>,
    pub busy_ns: u64,
}

impl Totals {
    /// Calls of every kind with `role`.
    pub fn calls(&self, kinds: &[Kind], role: Role) -> u64 {
        kinds
            .iter()
            .zip(&self.span_calls)
            .filter(|(k, _)| k.role == role)
            .map(|(_, c)| c)
            .sum()
    }
}

/// A built workload with its buffers: what set-up produces.
pub struct Prepared<W> {
    workload: W,
    outs: Vec<ThreadOut>,
    windows: usize,
    /// Bytes of the op streams and sample reservoirs, all resident.
    buffer_bytes: usize,
}

/// What one measured phase reports.
#[derive(Debug)]
pub struct PhaseOut {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub stamps_per_s: f64,
    pub get_p50_ns: Option<f64>,
    pub get_p99_ns: Option<f64>,
    pub read_p50_ns: Option<f64>,
    /// For a workload without a read operation: the per-call cost of
    /// `compare` on its sampled stamps (see [`check::compare_ns`]).
    pub compare_ns: Option<f64>,
    /// Peak resident memory of the process during the run, less the
    /// benchmark's own buffers (MiB).
    pub peak_rss_mb: Option<f64>,
    /// Windows the medians are over, of all `windows`.
    pub quiet_windows: usize,
    pub windows: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Samples the cross-thread checks found out of order.
    pub violations: u64,
    pub problems: Vec<String>,
    pub layer: BTreeMap<String, f64>,
}

/// Builds timed together as one set-up: a single build takes about a
/// microsecond, too close to the clock to time alone.
const BUILDS: usize = 32;

/// Pause between two timed set-ups. On a shared host the speed of a
/// microsecond-long build jumps by up to 1.7x from one 100 ms stretch
/// to the next, so set-ups timed back to back all land in one stretch
/// and their median moves from run to run; spread out, they sample
/// many.
const SETUP_GAP: Duration = Duration::from_millis(20);

/// Builds the workload's objects from its op streams and drops them,
/// `BUILDS` times in each of `setups` timed intervals `SETUP_GAP`
/// apart, then builds the one that runs. Each build is dropped before
/// the next so that it reuses the same memory: kept builds would each
/// fault in fresh pages, and the time would track the page faults. The
/// op streams and the sample buffers exist before the first build: they
/// are the benchmark's, not the workload's, so they are neither timed
/// nor counted in the peak memory.
pub fn prepare<'s, W: Workload + 's>(
    streams: &'s Streams,
    make: impl Fn(&'s Streams) -> W,
    seconds: f64,
    setups: usize,
    seed: u64,
) -> (f64, Prepared<W>) {
    let windows = ((seconds / WINDOW.as_secs_f64()).round() as usize).max(1);
    let outs: Vec<ThreadOut> = (0..THREADS)
        .map(|t| ThreadOut::new(windows, W::KINDS.len(), seed ^ ((t as u64 + 1) << 32)))
        .collect();
    let buffer_bytes = streams.iter().map(Vec::len).sum::<usize>()
        + outs.len() * windows * RESERVOIR * std::mem::size_of::<Sample>();
    let mut times: Vec<f64> = (0..setups.max(1))
        .map(|k| {
            if k > 0 {
                std::thread::sleep(SETUP_GAP);
            }
            let t = Instant::now();
            for _ in 0..BUILDS {
                drop(black_box(make(streams)));
            }
            t.elapsed().as_secs_f64() / BUILDS as f64
        })
        .collect();
    let prepared = Prepared {
        workload: make(streams),
        outs,
        windows,
        buffer_bytes,
    };
    (
        median(&mut times).expect("at least one set-up ran"),
        prepared,
    )
}

/// Runs a prepared workload for its windows, untraced or traced, and
/// checks its outputs.
pub fn measure<W: Workload>(prepared: Prepared<W>, setup_s: f64, trace: bool) -> PhaseOut {
    let Prepared {
        workload,
        mut outs,
        windows,
        buffer_bytes,
    } = prepared;
    host::reset_peak_rss();
    let barrier = Barrier::new(THREADS);
    let stop = AtomicBool::new(false);
    let base = Instant::now();
    std::thread::scope(|s| {
        for (t, out) in outs.iter_mut().enumerate() {
            let (w, b, st) = (&workload, &barrier, &stop);
            s.spawn(move || {
                if trace {
                    run_thread::<W, true>(w, t, out, windows, base, b, st);
                } else {
                    run_thread::<W, false>(w, t, out, windows, base, b, st);
                }
            });
        }
    });
    // Read before the summary allocates its own copies of the samples.
    let peak_rss_mb = host::peak_rss_mb().map(|mb| mb - buffer_bytes as f64 / (1 << 20) as f64);
    let mut out = summarize(&workload, &outs, windows, setup_s, trace);
    out.peak_rss_mb = peak_rss_mb;
    out
}

fn run_thread<W: Workload, const TRACE: bool>(
    workload: &W,
    thread: usize,
    out: &mut ThreadOut,
    windows: usize,
    base: Instant,
    barrier: &Barrier,
    stop: &AtomicBool,
) {
    let mut worker = workload.worker(thread);
    barrier.wait();
    let start = ns_since(base);
    let track_cpu = thread == 0;
    if track_cpu {
        out.cpu[0] = host::cpu_ticks();
    }
    let window_ns = WINDOW.as_nanos() as u64;
    let mut w = 0usize;
    let mut next = start + window_ns;
    let mut i = 0u64;
    loop {
        let sampled = workload.sampled(i);
        let mut clock = Clock {
            base,
            on: TRACE || sampled,
            inv: 0,
            resp: 0,
        };
        let Some(done) = workload.step(&mut worker, i, &mut clock, stop) else {
            break;
        };
        i += 1;
        out.ops[w] += 1;
        out.stamps[w] += done.stamps;
        out.failed += u64::from(!done.ok);
        if TRACE {
            out.span_calls[done.kind as usize] += 1;
            out.span_ns[done.kind as usize] += clock.resp - clock.inv;
        }
        if sampled {
            out.keep(
                w,
                Sample {
                    inv: clock.inv,
                    resp: clock.resp,
                    lo: done.lo,
                    hi: done.hi,
                    obj: done.obj,
                    kind: done.kind,
                },
            );
        }
        let now = if clock.on {
            clock.resp
        } else if i.is_multiple_of(CLOCK_EVERY) {
            ns_since(base)
        } else {
            continue;
        };
        while now >= next {
            w += 1;
            next += window_ns;
            if track_cpu {
                out.cpu[w] = host::cpu_ticks();
            }
            if w == windows {
                stop.store(true, Ordering::Relaxed);
                out.busy_ns = now - start;
                return;
            }
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
    // Stopped by the other thread while waiting: the op did not finish
    // and is not counted.
    out.busy_ns = ns_since(base) - start;
    if track_cpu {
        out.cpu[w + 1] = host::cpu_ticks();
    }
}

fn summarize<W: Workload>(
    workload: &W,
    outs: &[ThreadOut],
    windows: usize,
    setup_s: f64,
    trace: bool,
) -> PhaseOut {
    let secs = WINDOW.as_secs_f64();
    let quiet = quiet_windows(&outs[0].cpu);
    let mut ops_rate: Vec<f64> = quiet
        .iter()
        .map(|&w| outs.iter().map(|o| o.ops[w]).sum::<u64>() as f64 / secs)
        .collect();
    let mut stamp_rate: Vec<f64> = quiet
        .iter()
        .map(|&w| outs.iter().map(|o| o.stamps[w]).sum::<u64>() as f64 / secs)
        .collect();

    let mut get_p50 = Vec::new();
    let mut get_p99 = Vec::new();
    let mut read_p50 = Vec::new();
    // Every window's samples are checked, quiet or not.
    let mut all: Vec<Sample> = Vec::new();
    for w in 0..windows {
        let window: Vec<Sample> = outs
            .iter()
            .flat_map(|o| o.reservoirs[w][..o.filled[w]].iter().copied())
            .collect();
        if quiet.contains(&w) {
            let mut gets = latencies(&window, W::KINDS, Role::Get);
            let mut reads = latencies(&window, W::KINDS, Role::Read);
            get_p50.extend(quantile(&mut gets, 0.50));
            get_p99.extend(quantile(&mut gets, 0.99));
            read_p50.extend(quantile(&mut reads, 0.50));
        }
        all.extend(window);
    }

    let mut totals = Totals {
        span_calls: vec![0; W::KINDS.len()],
        span_ns: vec![0; W::KINDS.len()],
        ..Totals::default()
    };
    for o in outs {
        totals.ops += o.ops.iter().sum::<u64>();
        totals.failed += o.failed;
        totals.busy_ns += o.busy_ns;
        for k in 0..W::KINDS.len() {
            totals.span_calls[k] += o.span_calls[k];
            totals.span_ns[k] += o.span_ns[k];
        }
    }

    let violations = workload.violations(&all);
    let mut problems = workload.finish();
    if totals.failed > 0 {
        problems.push(format!(
            "{} ops failed or broke per-thread order",
            totals.failed
        ));
    }
    if violations > 0 {
        problems.push(format!(
            "{violations} sampled ops broke the real-time order"
        ));
    }

    // Only an untraced run reports it.
    let has_reads = W::KINDS.iter().any(|k| k.role == Role::Read);
    let compare_ns = if has_reads || trace {
        None
    } else {
        check::compare_ns(&all)
    };

    let mut layer = BTreeMap::new();
    if trace {
        for (k, kind) in W::KINDS.iter().enumerate() {
            if totals.span_calls[k] > 0 {
                layer.insert(
                    format!("{}_ns", kind.span),
                    totals.span_ns[k] as f64 / totals.span_calls[k] as f64,
                );
            }
        }
        let in_spans: u64 = totals.span_ns.iter().sum();
        layer.insert(
            "bench.loop_ns".into(),
            totals.busy_ns.saturating_sub(in_spans) as f64 / totals.ops.max(1) as f64,
        );
        workload.layer_metrics(&totals, &all, &mut layer);
    }

    PhaseOut {
        setup_s,
        ops_per_s: median(&mut ops_rate).unwrap_or(0.0),
        stamps_per_s: median(&mut stamp_rate).unwrap_or(0.0),
        get_p50_ns: median(&mut get_p50),
        get_p99_ns: median(&mut get_p99),
        read_p50_ns: median(&mut read_p50),
        compare_ns,
        peak_rss_mb: None,
        quiet_windows: quiet.len(),
        windows,
        attempted: totals.ops,
        failed: totals.failed + violations,
        violations,
        problems,
        layer,
    }
}

/// The windows the medians are over, from the host's CPU ticks at each
/// window boundary. On a shared virtual machine the hypervisor at times
/// takes a CPU away for a good part of a window. The other load thread
/// then runs alone: its calls meet no contention, and latencies fall by
/// up to 4x (`quorum_faults`) while the rates move either way. Such
/// windows measure the host, not the library, so they are left out:
/// a window counts if at most `STEAL_MAX` of its CPU time was stolen,
/// and if fewer than `1 / QUIET_SHARE` of the windows are that quiet,
/// that many of the least-stolen count. Where `/proc/stat` cannot be
/// read, every window counts. The library cannot cause steal, so the
/// choice cannot hide a change in it.
fn quiet_windows(cpu: &[Option<(u64, u64)>]) -> Vec<usize> {
    let steal: Vec<f64> = cpu
        .windows(2)
        .map(|ends| match (ends[0], ends[1]) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        })
        .collect();
    let mut quiet: Vec<usize> = (0..steal.len())
        .filter(|&w| steal[w] <= STEAL_MAX)
        .collect();
    let least = steal.len().div_ceil(QUIET_SHARE);
    if quiet.len() < least {
        quiet = (0..steal.len()).collect();
        quiet.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        quiet.truncate(least);
        quiet.sort_unstable();
    }
    quiet
}

/// Latencies (ns) of the samples whose kind has `role`.
pub fn latencies(samples: &[Sample], kinds: &[Kind], role: Role) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| kinds[s.kind as usize].role == role)
        .map(|s| (s.resp - s.inv) as f64)
        .collect()
}

/// The `q`-quantile, interpolated between order statistics; `None`
/// without values.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(values[lo] + (values[hi] - values[lo]) * (pos - lo as f64))
}

pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}
