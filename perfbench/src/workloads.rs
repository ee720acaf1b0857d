//! The four workloads. Each drives one public object API from both
//! load threads and checks its own outputs; see `README.md` for why
//! each exists.
//!
//! A workload's op streams are generated from the seed once, before
//! set-up, and the workload borrows them: `setup_s` times the library
//! constructors alone.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ts_core::{
    BoundedTimestamp, BrokenStaleRead, CollectMax, GetTsError, LongLivedTimestamp,
    OneShotTimestamp, Timestamp,
};
use ts_replica::{FaultPlan, ReplicatedCollectMax, RestartMode};
use ts_service::{ClientSession, ServiceConfig, ShardedCollectMax};

use crate::check::{self, derive, key, sharded_key, splitmix, Floor};
use crate::runner::{self, Clock, Done, Kind, Role, Sample, Streams, Totals, Workload, THREADS};

/// Op-stream length per thread; streams repeat after this many ops.
const STREAM: usize = 1 << 20;

/// Processes of the long-lived and one-shot objects.
const PROCESSES: usize = 64;

/// Processes each load thread acts as.
const PIDS_PER_THREAD: usize = PROCESSES / THREADS;

/// ⌈2√64⌉: the paper's register count for a one-shot object of 64.
const ONESHOT_REGISTERS: usize = 16;

/// An untraced op is a latency sample one time in this many.
const SAMPLE_EVERY: u64 = 16;

/// A thread's op kinds, drawn with the given percentages.
fn op_stream(seed: u64, thread: usize, percent: &[u64]) -> Vec<u8> {
    let mut s = derive(seed, thread as u64 + 1);
    (0..STREAM)
        .map(|_| {
            let mut x = splitmix(&mut s) % 100;
            let mut kind = 0;
            while x >= percent[kind] {
                x -= percent[kind];
                kind += 1;
            }
            kind as u8
        })
        .collect()
}

fn stamp_done(kind: u8, obj: u64, res: Result<Timestamp, GetTsError>, floor: &mut Floor) -> Done {
    match res {
        Ok(ts) => {
            let k = key(ts);
            Done {
                kind,
                obj,
                lo: k,
                hi: k,
                stamps: 1,
                ok: floor.stamp(k, k),
            }
        }
        Err(_) => Done {
            kind,
            obj,
            lo: 0,
            hi: 0,
            stamps: 0,
            ok: false,
        },
    }
}

fn read_done(kind: u8, obj: u64, k: u128, floor: &mut Floor) -> Done {
    Done {
        kind,
        obj,
        lo: k,
        hi: k,
        stamps: 0,
        ok: floor.read(k),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn insert(out: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    out.insert(name.to_string(), value);
}

/// Register traffic per op from a meter, inserted as the
/// `register.*_per_op` metrics.
fn register_traffic(out: &mut BTreeMap<String, f64>, reads: u64, writes: u64, ops: u64) {
    insert(out, "register.reads_per_op", ratio(reads, ops));
    insert(out, "register.writes_per_op", ratio(writes, ops));
}

/// `longlived_local`: the paper's long-lived object alone.
pub struct LonglivedLocal<'s> {
    obj: CollectMax,
    streams: &'s Streams,
}

impl<'s> LonglivedLocal<'s> {
    /// 90% `get_ts`, 10% `read_max_scan`.
    pub fn streams(seed: u64) -> Streams {
        (0..THREADS)
            .map(|t| op_stream(seed, t, &[90, 10]))
            .collect()
    }

    pub fn new(streams: &'s Streams) -> Self {
        Self {
            obj: CollectMax::new(PROCESSES),
            streams,
        }
    }
}

impl Workload for LonglivedLocal<'_> {
    type Worker<'a>
        = (usize, Floor)
    where
        Self: 'a;

    const KINDS: &'static [Kind] = &[
        Kind {
            span: "core.collect_max_get_ts",
            role: Role::Get,
        },
        Kind {
            span: "core.read_max_scan",
            role: Role::Read,
        },
    ];

    fn worker(&self, thread: usize) -> (usize, Floor) {
        (thread, Floor::default())
    }

    fn sampled(&self, i: u64) -> bool {
        i.is_multiple_of(SAMPLE_EVERY)
    }

    fn step(
        &self,
        w: &mut (usize, Floor),
        i: u64,
        clock: &mut Clock,
        _: &AtomicBool,
    ) -> Option<Done> {
        let (t, floor) = w;
        Some(if self.streams[*t][i as usize % STREAM] == 0 {
            let pid = *t * PIDS_PER_THREAD + (i % PIDS_PER_THREAD as u64) as usize;
            stamp_done(0, 0, clock.time(|| self.obj.get_ts(pid)), floor)
        } else {
            read_done(1, 0, key(clock.time(|| self.obj.read_max_scan())), floor)
        })
    }

    fn violations(&self, samples: &[Sample]) -> u64 {
        check::violations(samples, |s| s.kind == 1, true)
    }

    fn layer_metrics(&self, totals: &Totals, _: &[Sample], out: &mut BTreeMap<String, f64>) {
        let stats = self.obj.stats();
        let meter = self.obj.meter().snapshot();
        register_traffic(out, meter.total_reads(), meter.total_writes(), totals.ops);
        let scans = totals.calls(Self::KINDS, Role::Read);
        insert(
            out,
            "snapshot.recollects_per_scan",
            ratio(stats.dirty_recollects, scans),
        );
        insert(
            out,
            "core.fast_hit_ratio",
            stats.fast_hit_ratio().unwrap_or(0.0),
        );
    }
}

/// The one-shot objects `oneshot_rounds` can run: the paper's
/// algorithm, or a broken one for the checker's self-test.
pub trait RoundObject: OneShotTimestamp + 'static {
    /// Register reads and writes so far.
    fn traffic(&self) -> (u64, u64);
}

impl RoundObject for BoundedTimestamp {
    fn traffic(&self) -> (u64, u64) {
        let m = self.meter().snapshot();
        (m.total_reads(), m.total_writes())
    }
}

impl RoundObject for BrokenStaleRead {
    fn traffic(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Round traffic summed when tracing: reads, writes, rounds finished.
#[derive(Default)]
struct RoundTotals {
    reads: u64,
    writes: u64,
    rounds: u64,
}

/// `oneshot_rounds`: a fresh one-shot object per round; each thread
/// calls `get_ts` once for each of its 32 pids, in a seeded order.
/// Threads start a round together (a thread that finishes early waits
/// for the other), so every round's 64 calls run concurrently on one
/// object. Without the wait, the threads drift into different rounds
/// and each object sees one thread only.
pub struct OneshotRounds<'s, O> {
    make: fn(usize) -> O,
    registers: usize,
    streams: &'s Streams,
    current: Mutex<Option<(u64, Arc<O>)>>,
    finished: [AtomicU64; THREADS],
    trace: bool,
    totals: Mutex<RoundTotals>,
}

/// Rounds whose ops are all sampled: one in this many.
const SAMPLE_ROUND_EVERY: u64 = 64;

impl<'s, O: RoundObject> OneshotRounds<'s, O> {
    /// Per thread, a run of seeded permutations of its 32 pid offsets.
    pub fn streams(seed: u64) -> Streams {
        (0..THREADS)
            .map(|t| {
                let mut s = derive(seed, 100 + t as u64);
                let mut stream = Vec::with_capacity(STREAM);
                while stream.len() < STREAM {
                    let mut perm: Vec<u8> = (0..PIDS_PER_THREAD as u8).collect();
                    for j in (1..perm.len()).rev() {
                        perm.swap(j, (splitmix(&mut s) % (j as u64 + 1)) as usize);
                    }
                    stream.extend(perm);
                }
                stream
            })
            .collect()
    }

    pub fn new(streams: &'s Streams, trace: bool, make: fn(usize) -> O) -> Self {
        Self {
            make,
            registers: make(PROCESSES).registers(),
            streams,
            current: Mutex::new(None),
            finished: std::array::from_fn(|_| AtomicU64::new(0)),
            trace,
            totals: Mutex::new(RoundTotals::default()),
        }
    }

    /// Joins round `r` once every other thread has finished round
    /// `r - 1`; the first thread in creates the round's object.
    fn enter(&self, thread: usize, r: u64, stop: &AtomicBool) -> Option<Arc<O>> {
        for (u, finished) in self.finished.iter().enumerate() {
            while u != thread && finished.load(Ordering::Acquire) < r {
                if stop.load(Ordering::Relaxed) {
                    return None;
                }
                std::thread::yield_now();
            }
        }
        let mut current = self
            .current
            .lock()
            .expect("no thread panics holding the round");
        if let Some((round, obj)) = current.as_ref() {
            if *round == r {
                return Some(Arc::clone(obj));
            }
        }
        let obj = Arc::new((self.make)(PROCESSES));
        if let Some((_, done)) = current.replace((r, Arc::clone(&obj))) {
            drop(current);
            self.retire(&done);
        }
        Some(obj)
    }

    /// Adds a finished round's register traffic to the traced totals.
    fn retire(&self, done: &O) {
        if self.trace {
            let (reads, writes) = done.traffic();
            let mut totals = self
                .totals
                .lock()
                .expect("no thread panics holding the totals");
            totals.reads += reads;
            totals.writes += writes;
            totals.rounds += 1;
        }
    }
}

pub struct RoundWorker<O> {
    thread: usize,
    round: Option<Arc<O>>,
    floor: Floor,
}

impl<O: RoundObject> Workload for OneshotRounds<'_, O> {
    type Worker<'a>
        = RoundWorker<O>
    where
        Self: 'a;

    const KINDS: &'static [Kind] = &[Kind {
        span: "core.bounded_get_ts",
        role: Role::Get,
    }];

    fn worker(&self, thread: usize) -> RoundWorker<O> {
        RoundWorker {
            thread,
            round: None,
            floor: Floor::default(),
        }
    }

    fn sampled(&self, i: u64) -> bool {
        (i / PIDS_PER_THREAD as u64).is_multiple_of(SAMPLE_ROUND_EVERY)
    }

    fn step(
        &self,
        w: &mut RoundWorker<O>,
        i: u64,
        clock: &mut Clock,
        stop: &AtomicBool,
    ) -> Option<Done> {
        let r = i / PIDS_PER_THREAD as u64;
        if i.is_multiple_of(PIDS_PER_THREAD as u64) {
            if w.round.take().is_some() {
                self.finished[w.thread].store(r, Ordering::Release);
            }
            w.round = Some(self.enter(w.thread, r, stop)?);
            w.floor = Floor::default();
        }
        let obj = w.round.as_ref().expect("entered above");
        let pid = w.thread * PIDS_PER_THREAD + self.streams[w.thread][i as usize % STREAM] as usize;
        Some(stamp_done(
            0,
            r,
            clock.time(|| obj.get_ts(pid)),
            &mut w.floor,
        ))
    }

    fn violations(&self, samples: &[Sample]) -> u64 {
        let mut rounds: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
        for s in samples {
            rounds.entry(s.obj).or_default().push(s);
        }
        rounds
            .values()
            .map(|g| check::all_pairs_violations(g))
            .sum()
    }

    fn finish(&self) -> Vec<String> {
        if self.registers == ONESHOT_REGISTERS {
            return Vec::new();
        }
        vec![format!(
            "one-shot object of {PROCESSES} uses {} registers, not {ONESHOT_REGISTERS}",
            self.registers
        )]
    }

    fn layer_metrics(&self, _: &Totals, _: &[Sample], out: &mut BTreeMap<String, f64>) {
        let rounds = self
            .totals
            .lock()
            .expect("no thread panics holding the totals");
        // Ops of rounds still open at the end are not in the traffic sums.
        let ops = rounds.rounds * PROCESSES as u64;
        register_traffic(out, rounds.reads, rounds.writes, ops);
        insert(out, "core.oneshot_registers", self.registers as f64);
        insert(out, "core.oneshot_rounds", rounds.rounds as f64);
    }
}

/// Client sessions per load thread in `service_sessions`.
const SESSIONS_PER_THREAD: usize = 8;

/// Bits of a `service_sessions` stream byte that hold the op kind; the
/// bits above hold the session.
const KIND_BITS: u32 = 2;

/// Stamps per `get_ts_batch` call.
const BATCH: u32 = 16;

/// `service_sessions`: the sharded service with more sessions (16) than
/// slots (8), so every call leases a slot. Two slots per shard, so that
/// with two load threads no call blocks on a lease: with one, a blocked
/// call's latency is the kernel's wake-up time, and the p99 read
/// 3.0–6.0 µs from run to run.
pub struct ServiceSessions<'s> {
    svc: ShardedCollectMax,
    streams: &'s Streams,
}

impl<'s> ServiceSessions<'s> {
    /// Per op, the kind and a seeded choice of session. Not round-robin:
    /// both threads would then cycle through the shards in the same
    /// order, and how often they meet on a shard would depend on their
    /// relative phase, which drifts from run to run.
    pub fn streams(seed: u64) -> Streams {
        (0..THREADS)
            .map(|t| {
                let mut s = derive(seed, 50 + t as u64);
                op_stream(seed, t, &[60, 30, 10])
                    .into_iter()
                    .map(|kind| {
                        let session = (splitmix(&mut s) % SESSIONS_PER_THREAD as u64) as u8;
                        kind | session << KIND_BITS
                    })
                    .collect()
            })
            .collect()
    }

    pub fn new(streams: &'s Streams) -> Self {
        Self {
            svc: ShardedCollectMax::new(ServiceConfig::new(4, 2)),
            streams,
        }
    }
}

pub struct SessionWorker<'a> {
    sessions: Vec<(ClientSession<'a>, Floor)>,
    thread: usize,
    /// Everything this thread has seen: a snapshot must not fall below.
    seen: Floor,
}

impl Workload for ServiceSessions<'_> {
    type Worker<'a>
        = SessionWorker<'a>
    where
        Self: 'a;

    const KINDS: &'static [Kind] = &[
        Kind {
            span: "service.get_ts",
            role: Role::Get,
        },
        Kind {
            span: "service.get_ts_batch",
            role: Role::Batch,
        },
        Kind {
            span: "service.read_max_snapshot",
            role: Role::Read,
        },
    ];

    fn worker(&self, thread: usize) -> SessionWorker<'_> {
        // Shards are assigned here, not by the order in which the two
        // threads mint sessions, so every run has the same layout.
        let shards = self.svc.shards();
        let sessions = (0..SESSIONS_PER_THREAD)
            .map(|j| {
                let mut s = self.svc.session();
                s.migrate((thread * SESSIONS_PER_THREAD + j) % shards);
                (s, Floor::default())
            })
            .collect();
        SessionWorker {
            sessions,
            thread,
            seen: Floor::default(),
        }
    }

    fn sampled(&self, i: u64) -> bool {
        i.is_multiple_of(SAMPLE_EVERY)
    }

    fn step(
        &self,
        w: &mut SessionWorker<'_>,
        i: u64,
        clock: &mut Clock,
        _: &AtomicBool,
    ) -> Option<Done> {
        let op = self.streams[w.thread][i as usize % STREAM];
        let kind = op & ((1 << KIND_BITS) - 1);
        let (session, floor) = &mut w.sessions[usize::from(op >> KIND_BITS)];
        let shard = session.shard() as u64;
        let (lo, hi, stamps) = match kind {
            0 => {
                let k = sharded_key(clock.time(|| session.get_ts()));
                (k, k, 1)
            }
            1 => {
                let batch = clock.time(|| session.get_ts_batch(BATCH));
                let n = batch.len() as u64;
                (
                    sharded_key(batch.first_stamp()),
                    sharded_key(batch.last_stamp()),
                    n,
                )
            }
            _ => {
                let k = clock
                    .time(|| self.svc.read_max_snapshot())
                    .map_or(0, sharded_key);
                return Some(read_done(2, u64::MAX, k, &mut w.seen));
            }
        };
        let ok = floor.stamp(lo, hi) && (kind == 0 || stamps == u64::from(BATCH));
        w.seen.note(hi);
        Some(Done {
            kind,
            obj: shard,
            lo,
            hi,
            stamps,
            ok,
        })
    }

    /// Stamps are ordered in real time within a shard; a snapshot
    /// covers every stamp published on any shard before it began.
    fn violations(&self, samples: &[Sample]) -> u64 {
        let per_shard: u64 = (0..self.svc.shards() as u64)
            .map(|sh| check::violations(samples.iter().filter(|s| s.obj == sh), |_| false, true))
            .sum();
        per_shard + check::violations(samples, |s| s.kind == 2, false)
    }

    fn layer_metrics(&self, totals: &Totals, _: &[Sample], out: &mut BTreeMap<String, f64>) {
        let stats = self.svc.stats();
        let (mut reads, mut writes) = (0, 0);
        for shard in 0..self.svc.shards() {
            let m = self.svc.meter(shard).snapshot();
            reads += m.total_reads();
            writes += m.total_writes();
        }
        register_traffic(out, reads, writes, totals.ops);
        let snapshots = totals.calls(Self::KINDS, Role::Read);
        insert(
            out,
            "service.fast_hit_ratio",
            stats.fast_hit_ratio().unwrap_or(0.0),
        );
        insert(
            out,
            "service.lease_waits_per_call",
            ratio(stats.lease_waits, stats.calls),
        );
        insert(
            out,
            "service.recollects_per_snapshot",
            ratio(stats.dirty_recollects, snapshots),
        );
        insert(
            out,
            "service.shard_imbalance",
            stats.shard_imbalance().unwrap_or(0.0),
        );
    }
}

/// The faulty network of `quorum_faults` and of the f=1 ABD probe. It
/// must inject faults: a fault-free plan takes the cluster's direct
/// path and bypasses the router.
pub fn quorum_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: derive(seed, 200),
        drop_permille: 50,
        dup_permille: 20,
        delay_max: 3,
        ..FaultPlan::default()
    }
}

/// The replica crashed and restarted by the fault schedule.
const FAULTY_REPLICA: u32 = 2;

/// Fault schedule, in completed ops: in every period the replica
/// crashes at `CRASH_AT` and restarts, wiped, at `RESTART_AT`.
const PERIOD: u64 = 1_000;
const CRASH_AT: u64 = 900;
const RESTART_AT: u64 = 999;

/// `quorum_faults`: `CollectMax` over ABD-replicated registers (f = 1,
/// three replicas) on a lossy network, with a crash/restart schedule.
pub struct QuorumFaults<'s> {
    rep: ReplicatedCollectMax,
    streams: &'s Streams,
    /// Completed ops. A lock, not an atomic: counting an op and
    /// applying the fault due at that count happen together, so a
    /// restart can never run before the crash scheduled ahead of it,
    /// however the two threads are scheduled.
    completed: Mutex<u64>,
    restart_ns: AtomicU64,
}

impl<'s> QuorumFaults<'s> {
    /// The op mix of `longlived_local`: 90% `get_ts`, 10% `read_max_scan`.
    pub fn streams(seed: u64) -> Streams {
        LonglivedLocal::streams(seed)
    }

    pub fn new(seed: u64, streams: &'s Streams) -> Self {
        Self {
            rep: ReplicatedCollectMax::with_plan(THREADS, 1, "quorum_faults", quorum_plan(seed)),
            streams,
            completed: Mutex::new(0),
            restart_ns: AtomicU64::new(0),
        }
    }

    /// Schedule points (`n % PERIOD == at`) among the first `ops` ops.
    fn scheduled(ops: u64, at: u64) -> u64 {
        if ops < at {
            0
        } else {
            (ops - at) / PERIOD + 1
        }
    }

    fn apply_schedule(&self) {
        let mut n = self
            .completed
            .lock()
            .expect("no thread panics holding the op count");
        *n += 1;
        let cluster = self.rep.cluster();
        match *n % PERIOD {
            CRASH_AT => cluster.crash(FAULTY_REPLICA),
            RESTART_AT => {
                let t = Instant::now();
                cluster.restart(FAULTY_REPLICA, RestartMode::Wipe);
                self.restart_ns
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

impl Workload for QuorumFaults<'_> {
    type Worker<'a>
        = (usize, Floor)
    where
        Self: 'a;

    const KINDS: &'static [Kind] = &[
        Kind {
            span: "replica.get_ts",
            role: Role::Get,
        },
        Kind {
            span: "replica.read_max_scan",
            role: Role::Read,
        },
    ];

    fn worker(&self, thread: usize) -> (usize, Floor) {
        (thread, Floor::default())
    }

    /// Every op: each costs microseconds, far above the clock.
    fn sampled(&self, _: u64) -> bool {
        true
    }

    fn step(
        &self,
        w: &mut (usize, Floor),
        i: u64,
        clock: &mut Clock,
        _: &AtomicBool,
    ) -> Option<Done> {
        let (t, floor) = w;
        let obj = self.rep.inner();
        let done = if self.streams[*t][i as usize % STREAM] == 0 {
            stamp_done(0, 0, clock.time(|| obj.get_ts(*t)), floor)
        } else {
            read_done(1, 0, key(clock.time(|| obj.read_max_scan())), floor)
        };
        self.apply_schedule();
        Some(done)
    }

    fn violations(&self, samples: &[Sample]) -> u64 {
        check::violations(samples, |s| s.kind == 1, true)
    }

    fn finish(&self) -> Vec<String> {
        let ops = *self
            .completed
            .lock()
            .expect("no thread panics holding the op count");
        let cluster = self.rep.cluster();
        let crashes = (Self::scheduled(ops, CRASH_AT), cluster.replica_crashes());
        let restarts = (Self::scheduled(ops, RESTART_AT), cluster.replica_restarts());
        let mut problems = Vec::new();
        if crashes.0 != crashes.1 || restarts.0 != restarts.1 {
            problems.push(format!(
                "fault schedule: {}/{} crashes and {}/{} restarts applied",
                crashes.1, crashes.0, restarts.1, restarts.0
            ));
        }
        if restarts.0 == 0 {
            problems.push(format!(
                "run too short for one crash/restart cycle ({ops} ops)"
            ));
        }
        problems
    }

    fn layer_metrics(&self, totals: &Totals, samples: &[Sample], out: &mut BTreeMap<String, f64>) {
        let cluster = self.rep.cluster();
        let inner = self.rep.inner();
        let meter = inner.meter().snapshot();
        let net = cluster.net_stats();
        let ops = totals.ops;
        let scans = totals.calls(Self::KINDS, Role::Read);
        register_traffic(out, meter.total_reads(), meter.total_writes(), ops);
        insert(
            out,
            "snapshot.recollects_per_scan",
            ratio(inner.stats().dirty_recollects, scans),
        );
        let mut reads = runner::latencies(samples, Self::KINDS, Role::Read);
        if let Some(p99) = runner::quantile(&mut reads, 0.99) {
            insert(out, "replica.read_max_scan_p99_ns", p99);
        }
        insert(
            out,
            "replica.rounds_per_op",
            ratio(cluster.quorum_rounds(), ops),
        );
        insert(
            out,
            "replica.retries_per_op",
            ratio(cluster.quorum_retries(), ops),
        );
        insert(out, "replica.msgs_per_op", ratio(net.sent, ops));
        insert(out, "replica.dropped_per_op", ratio(net.dropped, ops));
        insert(
            out,
            "replica.repair_ratio",
            ratio(cluster.quorum_repairs(), cluster.quorum_rounds()),
        );
        let restarts = cluster.replica_restarts();
        if restarts > 0 {
            let ms = self.restart_ns.load(Ordering::Relaxed) as f64 / restarts as f64 / 1e6;
            insert(out, "replica.restart_ms", ms);
        }
        insert(
            out,
            "replica.resynced_registers",
            cluster.resynced_registers() as f64,
        );
    }
}
