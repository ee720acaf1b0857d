//! The replica cluster: `2f + 1` replicas, one router with a network
//! lane per client, and the ABD client operations that read and write
//! registers through them.
//!
//! # Client operations
//!
//! [`Cluster::abd_read`] and [`Cluster::abd_write`] are the classic
//! two-phase majority protocol:
//!
//! * **read** — query `f + 1` replicas for their `(stamp, word)`;
//!   take the lexicographic maximum. If the replies *diverged*, push
//!   the maximum back onto `f + 1` replicas (read-repair) before
//!   returning, so a later read can never observe an older value.
//!   When the replies agree, `f + 1` replicas already hold the
//!   maximum and the write-back is skipped.
//! * **write** — query `f + 1` replicas for stamps, pick
//!   `(max.seq + 1, self)`, then install on `f + 1` replicas and
//!   return only once all acks arrive — the ack set is the durability
//!   proof.
//!
//! Any two `f + 1` subsets of `2f + 1` intersect, which is the whole
//! correctness argument; replica choice is a rotation preference, not
//! a requirement, so clients widen their target set on retry and
//! survive any minority of unreachable replicas.
//!
//! # Determinism
//!
//! All nondeterminism lives in the router's seeded
//! [`FaultPlan`] plus the thread schedule. Each client sends into and
//! pumps only its own network lane, whose fault stream is seeded from
//! `(plan seed, client vpid)`, and mints its own operation ids — so a
//! lane's schedule is a function of the seed, the vpid and that
//! client's own sends; other clients' traffic never perturbs it.
//! Single-client runs over a seeded plan therefore replay
//! **bit-identically** (see `delivery_log`). Multi-threaded runs stay
//! linearizable; what they share — replica state, crashes, partitions
//! and wipes — follows the thread schedule, exactly like the
//! shared-memory objects upstream.
//!
//! # Ambient wiring
//!
//! [`RegisterBackend`](ts_register::RegisterBackend) construction has
//! no context parameter, so the generic seams
//! (`RegisterArray::with_backend`, `CollectMax::with_backend`, …) are
//! wired through a thread-local scope: build objects inside
//! [`with_cluster`] and every quorum register they create joins that
//! cluster. Outside any scope a register gets its own private
//! fault-free `f = 1` cluster, which keeps doc-tests and quick probes
//! zero-ceremony.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ts_core::{ServiceStats, Timestamp, VpidAllocator};

use crate::net::{FaultPlan, Lane, NetStats, Pumped, Router, MAX_REPLICAS};
use crate::proto::{Message, MsgKind, WriteStamp};
use crate::replica::{Cells, Replica};

/// Default per-operation deadline, in client-local steps (see
/// [`ClusterConfig::deadline`]). Generous: a healthy or lossy-but-live
/// network resolves a quorum op in tens of steps; only a quorum that
/// stays unreachable burns the whole budget.
pub const DEFAULT_DEADLINE: u64 = 1 << 20;

/// Exponential-backoff exponent cap: waits grow `2, 4, ..., 2^CAP`
/// steps (plus seeded jitter) and then plateau.
const BACKOFF_CAP: u64 = 10;

/// Shape and fault schedule of a [`Cluster`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Tolerated replica failures; the cluster runs `2f + 1` replicas
    /// and quorums are `f + 1`.
    pub f: usize,
    /// The router's seeded fault schedule.
    pub plan: FaultPlan,
    /// Per-operation deadline in **client-local steps** — every replica
    /// probe, router pump, and backoff tick a quorum op performs counts
    /// one step. No wall clock anywhere: the same seed and schedule
    /// exhaust the deadline at the same step, so timeouts replay
    /// deterministically.
    pub deadline: u64,
}

impl ClusterConfig {
    /// Fault-free config tolerating `f` failures.
    ///
    /// # Panics
    ///
    /// If `2f + 1` exceeds [`MAX_REPLICAS`],
    /// the replica count the crash/partition bitmasks address.
    pub fn new(f: usize) -> Self {
        assert_replica_count(f);
        Self {
            f,
            plan: FaultPlan::default(),
            deadline: DEFAULT_DEADLINE,
        }
    }

    /// Replaces the fault plan.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Replaces the per-operation step deadline (must be nonzero).
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        assert!(deadline > 0, "deadline must be nonzero");
        self.deadline = deadline;
        self
    }

    /// Replica count (`2f + 1`).
    pub fn replicas(&self) -> usize {
        2 * self.f + 1
    }
}

fn assert_replica_count(f: usize) {
    assert!(
        f <= (MAX_REPLICAS - 1) / 2,
        "f = {f} needs 2f + 1 replicas; at most {MAX_REPLICAS} are supported"
    );
}

/// How a crashed replica comes back in [`Cluster::restart`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartMode {
    /// The replica kept its durable state across the crash.
    Retain,
    /// The replica lost everything (restart from an empty disk); the
    /// rejoin resync sweep rebuilds its slots from the live majority.
    Wipe,
}

/// A quorum operation exhausted its step deadline: fewer than `f + 1`
/// replicas were reachable for its whole retry/backoff budget.
///
/// Returned by the `try_*` client operations; the infallible
/// [`RegisterBackend`](ts_register::RegisterBackend) seam converts it
/// into a panic carrying this diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unavailable {
    /// The register the operation targeted.
    pub reg: u32,
    /// Which phase gave up ("read", "write", "write-back").
    pub op: &'static str,
    /// Retransmission attempts made before giving up.
    pub attempts: u64,
    /// Client-local steps consumed (probes + pumps + backoff ticks).
    pub steps: u64,
    /// The deadline those steps exhausted.
    pub deadline: u64,
    /// Replicas crashed at the moment of giving up.
    pub crashed: Vec<u32>,
    /// Replicas partitioned away at the moment of giving up.
    pub isolated: Vec<u32>,
}

impl std::fmt::Display for Unavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "quorum {} on register {} unavailable: {} attempts / {} steps \
             (deadline {}), crashed replicas {:?}, partitioned {:?}",
            self.op,
            self.reg,
            self.attempts,
            self.steps,
            self.deadline,
            self.crashed,
            self.isolated
        )
    }
}

impl std::error::Error for Unavailable {}

/// SplitMix64-flavored hash: deterministic backoff jitter from
/// `(plan seed, client, op, attempt)` — no RNG state to carry, no wall
/// clock, bit-identical on replay.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One client's share of the cluster's quorum counters, plus the
/// client's op-id counter, on its own padded line of the client's
/// [`Lane`]. Only the owning client writes them, with [`add`]; the
/// [`Cluster`] getters sum every lane's.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// The next operation id this client mints. Replies are matched
    /// within the client's own lane, so ids are unique per client only.
    next_op: AtomicU64,
    rounds: AtomicU64,
    repairs: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    backoffs: AtomicU64,
    degraded: AtomicU64,
    unavailable: AtomicU64,
}

/// Adds `n` to a [`Tally`] counter with a plain load + store, no RMW.
/// The caller must be the lane's owning client, its only writer.
/// Readers load `Relaxed` (exact once the writers are joined).
fn add(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// This thread's identity as a client of one cluster.
struct ClientSlot {
    id: u32,
    /// The client's network lane, co-owned by the cluster's router.
    lane: Arc<Lane>,
}

impl ClientSlot {
    fn tally(&self) -> &Tally {
        &self.lane.tally
    }

    /// Mints this client's next operation id.
    fn next_op(&self) -> u64 {
        let op = self.tally().next_op.load(Ordering::Relaxed);
        add(&self.tally().next_op, 1);
        op
    }
}

thread_local! {
    /// Stack of ambient clusters (innermost last); see [`with_cluster`].
    static AMBIENT: RefCell<Vec<Arc<Cluster>>> = const { RefCell::new(Vec::new()) };
    /// This thread's client slot per cluster uid.
    static CLIENT_IDS: RefCell<HashMap<u64, Rc<ClientSlot>>> = RefCell::new(HashMap::new());
}

static NEXT_CLUSTER_UID: AtomicU64 = AtomicU64::new(0);

/// Runs `f` with `cluster` as the ambient cluster: every
/// [`QuorumBackend`](crate::QuorumBackend) register created inside
/// (directly or through a generic seam like
/// `CollectMax::with_backend`) joins it.
///
/// Scopes nest (innermost wins) and unwind safely on panic.
pub fn with_cluster<R>(cluster: &Arc<Cluster>, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            AMBIENT.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    AMBIENT.with(|s| s.borrow_mut().push(Arc::clone(cluster)));
    let _guard = Guard;
    f()
}

/// The innermost ambient cluster on this thread, if any.
pub(crate) fn ambient_cluster() -> Option<Arc<Cluster>> {
    AMBIENT.with(|s| s.borrow().last().cloned())
}

/// `2f + 1` [`Replica`]s behind one fault-injecting
/// [`Router`], reached by each client over its own lane. See the
/// module docs for the protocol and wiring.
pub struct Cluster {
    uid: u64,
    config: ClusterConfig,
    replicas: Vec<Replica>,
    /// Every replica's per-register cells (shared with the replicas).
    cells: Arc<Cells>,
    router: Router,
    client_vpids: VpidAllocator,
    crashes: AtomicU64,
    restarts: AtomicU64,
    resynced_regs: AtomicU64,
    /// Bumped (Release) right *before* every wipe. A quorum phase
    /// snapshots it at attempt start and re-checks (Acquire) after its
    /// last reply: a change means some acking replica may have been
    /// wiped — and resynced from others that had not yet seen this
    /// phase's write — *inside* the ack window, so the phase discards
    /// the replies and retries instead of reporting a durability level
    /// it no longer has. See `quorum_rpc` for the full argument.
    wipe_epoch: AtomicU64,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("f", &self.config.f)
            .field("replicas", &self.replicas.len())
            .field("plan", &self.config.plan)
            .field("registers", &self.registers())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds a cluster of `2f + 1` replicas running `config.plan`.
    ///
    /// # Panics
    ///
    /// If `2f + 1` exceeds [`MAX_REPLICAS`].
    pub fn new(config: ClusterConfig) -> Arc<Self> {
        assert_replica_count(config.f);
        let cells = Arc::new(Cells::new(config.replicas()));
        Arc::new(Self {
            uid: NEXT_CLUSTER_UID.fetch_add(1, Ordering::Relaxed),
            config,
            replicas: (0..config.replicas() as u32)
                .map(|id| Replica::new(id, Arc::clone(&cells)))
                .collect(),
            cells,
            router: Router::new(config.plan),
            client_vpids: VpidAllocator::new(),
            crashes: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            resynced_regs: AtomicU64::new(0),
            wipe_epoch: AtomicU64::new(0),
        })
    }

    /// The cluster's shape and plan.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// Tolerated failures `f`.
    pub fn f(&self) -> usize {
        self.config.f
    }

    /// Replica count (`2f + 1`).
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Quorum size (`f + 1`).
    pub fn quorum(&self) -> usize {
        self.config.f + 1
    }

    /// Direct access to a replica (durability probes, invariants).
    pub fn replica(&self, id: usize) -> &Replica {
        &self.replicas[id]
    }

    /// The fault-injecting router (partition/heal knobs, step hook,
    /// delivery log, counters summed over the client lanes).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Network-level counters.
    pub fn net_stats(&self) -> NetStats {
        self.router.stats()
    }

    /// `counter` summed over every client's [`Tally`].
    fn tally(&self, counter: impl Fn(&Tally) -> &AtomicU64) -> u64 {
        self.router
            .sum_lanes(|lane| counter(&lane.tally).load(Ordering::Relaxed))
    }

    /// Quorum round-trips performed (one per phase started).
    pub fn quorum_rounds(&self) -> u64 {
        self.tally(|t| &t.rounds)
    }

    /// Read-repair write-backs performed.
    pub fn quorum_repairs(&self) -> u64 {
        self.tally(|t| &t.repairs)
    }

    /// Client retransmission attempts (fault pressure).
    pub fn quorum_retries(&self) -> u64 {
        self.tally(|t| &t.retries)
    }

    /// Operations that exhausted their step deadline.
    pub fn quorum_timeouts(&self) -> u64 {
        self.tally(|t| &t.timeouts)
    }

    /// Backoff steps spent waiting between retransmissions.
    pub fn quorum_backoff_steps(&self) -> u64 {
        self.tally(|t| &t.backoffs)
    }

    /// Operations that completed, but only after retrying (service was
    /// degraded, not down, from that client's perspective).
    pub fn quorum_degraded(&self) -> u64 {
        self.tally(|t| &t.degraded)
    }

    /// Operations that returned [`Unavailable`].
    pub fn quorum_unavailable(&self) -> u64 {
        self.tally(|t| &t.unavailable)
    }

    /// Replica crashes injected.
    pub fn replica_crashes(&self) -> u64 {
        self.crashes.load(Ordering::Relaxed)
    }

    /// Replica restarts performed.
    pub fn replica_restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Registers refreshed by rejoin resync sweeps.
    pub fn resynced_registers(&self) -> u64 {
        self.resynced_regs.load(Ordering::Relaxed)
    }

    /// Copies the quorum + network counters into a [`ServiceStats`]
    /// snapshot.
    pub fn fill_stats(&self, stats: &mut ServiceStats) {
        stats.quorum_rounds = self.quorum_rounds();
        stats.quorum_repairs = self.quorum_repairs();
        stats.quorum_retries = self.quorum_retries();
        stats.quorum_timeouts = self.quorum_timeouts();
        stats.quorum_backoff_steps = self.quorum_backoff_steps();
        stats.quorum_degraded = self.quorum_degraded();
        stats.quorum_unavailable = self.quorum_unavailable();
        let net = self.net_stats();
        stats.net_dropped = net.dropped;
        stats.net_duplicated = net.duplicated;
        stats.net_delayed = net.delayed;
        stats.net_reordered = net.reordered;
    }

    // ---- replica lifecycle (crash-stop faults) ----

    /// Crash-stops replica `id`: the router discards every message to
    /// or from it until [`Cluster::restart`]. Its in-memory state is
    /// untouched here — whether it survives is decided at restart time
    /// by the [`RestartMode`].
    pub fn crash(&self, id: u32) {
        assert!((id as usize) < self.replicas.len(), "no such replica");
        self.crashes.fetch_add(1, Ordering::Relaxed);
        self.router.crash_endpoint(id);
    }

    /// Restarts a crashed replica: optionally wipes its state, runs the
    /// rejoin **resync** sweep, then reconnects it.
    ///
    /// Resync runs *before* the endpoint is restored, so no client can
    /// observe the replica's pre-resync state: from the outside the
    /// crash+restart is one atomic transition from "offline" to
    /// "online and caught up". That ordering is what lets the model
    /// treat crash/recovery as single steps.
    pub fn restart(&self, id: u32, mode: RestartMode) {
        self.restart_inner(id, mode, true);
    }

    /// Broken twin of [`Cluster::restart`] that skips the resync sweep
    /// — a wiped replica rejoins remembering nothing. Exists to
    /// demonstrate *why* resync is load-bearing: with it skipped, a
    /// subsequent quorum read can count the amnesiac replica and (once
    /// `f` more replicas fail or lag) observe a stamp regression. The
    /// model checker finds the interleaving; see the
    /// `quorum_crash_skip_resync` corpus trace.
    pub fn restart_skip_resync(&self, id: u32, mode: RestartMode) {
        self.restart_inner(id, mode, false);
    }

    fn restart_inner(&self, id: u32, mode: RestartMode, resync: bool) {
        assert!((id as usize) < self.replicas.len(), "no such replica");
        assert!(self.router.is_crashed(id), "replica {id} is not crashed");
        self.restarts.fetch_add(1, Ordering::Relaxed);
        if resync && mode == RestartMode::Wipe {
            // A wiped replica's only copy of an acked write may be the
            // live others'. With fewer than a quorum of them up, some
            // acked write could be held *only* by still-crashed
            // replicas plus the state we are about to destroy — refuse
            // rather than silently lose it. (Checked before the wipe.)
            let live_others = (0..self.replicas.len() as u32)
                .filter(|&r| r != id && !self.router.is_crashed(r))
                .count();
            assert!(
                live_others >= self.quorum(),
                "resync of wiped replica {id} needs a live quorum of others \
                 ({} up, {} needed) — restart a retained replica first",
                live_others,
                self.quorum()
            );
        }
        if mode == RestartMode::Wipe {
            // Bumped before the state is destroyed: any quorum phase
            // whose final epoch check already passed saw the old value
            // here, so all of its acks landed before this wipe (and
            // before the resync reads below) — the live others still
            // hold its write. Any phase still inside its ack window
            // sees the bump and retries.
            self.wipe_epoch.fetch_add(1, Ordering::Release);
            self.replicas[id as usize].wipe();
        }
        if resync {
            self.resync(id);
        }
        self.router.restore_endpoint(id);
    }

    /// Catch-up read-repair sweep for a healing replica: for every
    /// register, read the stored `(stamp, word)` of **all live other
    /// replicas**, take the stamp-maximum, and install it into the
    /// healing replica through the ordinary `Write` handler (so the
    /// monotonic-stamp assert stays armed).
    ///
    /// Soundness (the wiped case — the retained case only gains): with
    /// at most `f` replicas down in total (the healing one included),
    /// the live others number at least `f + 1` — a quorum — and any
    /// acked write is held by `f + 1` replicas, of which at most
    /// `f - 1` others can be down. So at least one live other replica
    /// holds every acked write, and the max over them dominates
    /// everything clients were promised. `restart_inner` enforces the
    /// live-quorum precondition before a wipe.
    fn resync(&self, id: u32) {
        let live: Vec<u32> = (0..self.replicas.len() as u32)
            .filter(|&r| r != id && !self.router.is_crashed(r))
            .collect();
        if live.is_empty() {
            // Retained restart with everyone else down: nothing to
            // learn from; the replica rejoins with its own state.
            return;
        }
        let healing = &self.replicas[id as usize];
        for reg in 0..self.registers() {
            let (stamp, word) = live
                .iter()
                .map(|&r| self.replicas[r as usize].stored(reg))
                .max_by_key(|&(stamp, _)| stamp)
                .expect("live set is non-empty");
            let (mine, _) = healing.stored(reg);
            if stamp > mine {
                let (from, op) = self.next_op();
                healing.handle(&Message {
                    kind: MsgKind::Write,
                    op,
                    from,
                    to: id,
                    reg,
                    seq: stamp.seq,
                    writer: stamp.writer,
                    word,
                    expected: 0,
                });
                self.resynced_regs.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Currently crashed replica ids (sorted).
    pub fn crashed(&self) -> Vec<u32> {
        self.router.crashed()
    }

    /// Allocates a fresh register initialized to `word` on every
    /// replica.
    pub fn alloc_register(self: &Arc<Self>, word: u64) -> u32 {
        self.cells.alloc(word)
    }

    /// Registers allocated so far.
    pub fn registers(&self) -> u32 {
        self.cells.len()
    }

    /// This thread's client id on this cluster (minted on first use).
    pub fn client_id(&self) -> u32 {
        self.with_client(|c| c.id)
    }

    /// Mints this thread's next operation id as a client of this
    /// cluster: `(client id, op id)`.
    fn next_op(&self) -> (u32, u64) {
        self.with_client(|c| (c.id, c.next_op()))
    }

    /// This thread's client slot for this cluster: a quorum phase looks
    /// it up once, not once per attempt.
    fn client(&self) -> Rc<ClientSlot> {
        self.with_client(Rc::clone)
    }

    /// Runs `f` on this thread's client slot for this cluster. The slot
    /// (client id and network lane) is minted on first use
    /// and cached thread-locally, so the hot path does no shared
    /// lookup.
    fn with_client<R>(&self, f: impl FnOnce(&Rc<ClientSlot>) -> R) -> R {
        CLIENT_IDS.with(|slots| {
            if let Some(slot) = slots.borrow().get(&self.uid) {
                return f(slot);
            }
            let mut slots = slots.borrow_mut();
            // Forget the slots of dropped clusters: their routers held
            // the only other reference to the lane.
            slots.retain(|_, slot| Arc::strong_count(&slot.lane) > 1);
            let vpid = self.client_vpids.next();
            let slot = slots.entry(self.uid).or_insert(Rc::new(ClientSlot {
                id: Message::CLIENT_BASE + vpid,
                lane: self.router.lane(vpid),
            }));
            f(slot)
        })
    }

    /// ABD read: returns the quorum-maximum `(stamp, word)`, repairing
    /// divergent replicas on the way out. Panics with the
    /// [`Unavailable`] diagnosis if a quorum stays unreachable for the
    /// whole deadline — fallible callers use [`Cluster::try_abd_read`].
    pub fn abd_read(&self, reg: u32) -> (WriteStamp, u64) {
        self.try_abd_read(reg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// ABD write; panicking twin of [`Cluster::try_abd_write`].
    pub fn abd_write(&self, reg: u32, word: u64) -> WriteStamp {
        self.try_abd_write(reg, word)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible ABD read: quorum-maximum `(stamp, word)` with
    /// read-repair, or [`Unavailable`] once the step deadline expires.
    pub fn try_abd_read(&self, reg: u32) -> Result<(WriteStamp, u64), Unavailable> {
        let me = self.client();
        let replies = self.quorum_rpc(&me, "read", reg, |op, from, to| Message {
            kind: MsgKind::ReadQuery,
            op,
            from,
            to,
            reg,
            seq: 0,
            writer: 0,
            word: 0,
            expected: 0,
        })?;
        let best = replies
            .iter()
            .max_by_key(|m| m.stamp())
            .expect("quorum_rpc returns a full quorum");
        let (stamp, word) = (best.stamp(), best.word);
        if replies.iter().any(|m| m.stamp() < stamp) {
            // Read-repair: the replies diverged, so the maximum may be
            // durable on fewer than f + 1 replicas. Write it back
            // before returning or a later read could go backwards.
            add(&me.tally().repairs, 1);
            self.try_write_back(&me, reg, stamp, word)?;
        }
        Ok((stamp, word))
    }

    /// Fallible ABD write: two phases (stamp query, quorum install).
    /// Returns the stamp the write landed under; when the ack quorum
    /// is in, `f + 1` replicas hold a stamp `>=` it. Returns
    /// [`Unavailable`] once the step deadline expires — the write may
    /// then be durable on up to `f` replicas (a later read-repair can
    /// still surface it), exactly like a timed-out write in any
    /// quorum system.
    pub fn try_abd_write(&self, reg: u32, word: u64) -> Result<WriteStamp, Unavailable> {
        let me = self.client();
        let replies = self.quorum_rpc(&me, "write", reg, |op, from, to| Message {
            kind: MsgKind::ReadQuery,
            op,
            from,
            to,
            reg,
            seq: 0,
            writer: 0,
            word: 0,
            expected: 0,
        })?;
        let max = replies
            .iter()
            .map(|m| m.stamp())
            .max()
            .expect("quorum_rpc returns a full quorum");
        let stamp = max.next(me.id);
        self.try_write_back(&me, reg, stamp, word)?;
        Ok(stamp)
    }

    /// One quorum write phase: install `(stamp, word)` on `f + 1`
    /// replicas and wait for all acks.
    fn try_write_back(
        &self,
        me: &ClientSlot,
        reg: u32,
        stamp: WriteStamp,
        word: u64,
    ) -> Result<(), Unavailable> {
        let acks = self.quorum_rpc(me, "write-back", reg, |op, from, to| Message {
            kind: MsgKind::Write,
            op,
            from,
            to,
            reg,
            seq: stamp.seq,
            writer: stamp.writer,
            word,
            expected: 0,
        })?;
        debug_assert!(acks.iter().all(|a| a.kind == MsgKind::WriteAck));
        Ok(())
    }

    /// One quorum phase of client `me`: sends one request per target
    /// replica and collects `f + 1` replies from distinct replicas,
    /// retransmitting (with a fresh op id and a widened target set)
    /// whenever the network runs dry.
    ///
    /// Every probe, pump, and backoff tick is one **client-local
    /// step**; the phase fails with [`Unavailable`] once the step
    /// count crosses [`ClusterConfig::deadline`]. Between attempts the
    /// client waits out a seeded exponential backoff
    /// (`2^min(attempt, CAP)` steps plus deterministic jitter hashed
    /// from `(plan seed, client, op, attempt)`) — the waiting ticks
    /// keep pumping the client's own lane, so late copies of the
    /// abandoned attempt's traffic still reach the replicas (and its
    /// stale replies drain) while it waits.
    fn quorum_rpc(
        &self,
        me: &ClientSlot,
        phase: &'static str,
        reg: u32,
        build: impl Fn(u64, u32, u32) -> Message,
    ) -> Result<Vec<Message>, Unavailable> {
        let n = self.replicas.len();
        let need = self.quorum();
        let deadline = self.config.deadline;
        let tally = me.tally();
        add(&tally.rounds, 1);
        // Only the queued path sends through the network lane.
        let lane = (!self.config.plan.is_fault_free()).then_some(&*me.lane);
        let client = me.id;
        let mut attempt = 0u64;
        let mut steps = 0u64;
        loop {
            let op = me.next_op();
            // Snapshot the wipe epoch before the first probe of this
            // attempt; re-checked after the last reply.
            let epoch = self.wipe_epoch.load(Ordering::Acquire);
            // Rotate the window by client id (load spreading) and by
            // attempt, widening until every replica is targeted.
            let width = (need + attempt as usize).min(n);
            let start = (client as usize + attempt as usize) % n;
            let mut replies: Vec<Message> = Vec::with_capacity(need);
            if let Some(lane) = lane {
                for i in 0..width {
                    let to = ((start + i) % n) as u32;
                    steps += 1;
                    self.router.send(lane, build(op, client, to));
                }
                self.collect_replies(lane, op, need, &mut replies, &mut steps);
            } else {
                for i in 0..width {
                    let to = ((start + i) % n) as u32;
                    steps += 1;
                    if let Some(reply) = self.interact_direct(build(op, client, to)) {
                        replies.push(reply);
                        if replies.len() == need {
                            break;
                        }
                    }
                }
            }
            // The ack-window wipe check: a reply only proves its
            // replica held the state *when it answered*. If a replica
            // was wiped after answering — and resynced from others
            // that had not all seen this phase's write — counting its
            // reply would overstate durability (a write-back could
            // "complete" on fewer than `f + 1` surviving copies, the
            // exact regression the skip-resync model counterexample
            // exhibits at the protocol level). An unchanged epoch
            // proves no wipe overlapped the window, so every counted
            // reply is still standing; on a change the phase pays a
            // retry and re-earns its quorum. The deadline still bounds
            // the loop either way.
            if replies.len() == need && self.wipe_epoch.load(Ordering::Acquire) == epoch {
                if attempt > 0 {
                    add(&tally.degraded, 1);
                }
                return Ok(replies);
            }
            attempt += 1;
            add(&tally.retries, 1);
            if steps >= deadline {
                add(&tally.timeouts, 1);
                add(&tally.unavailable, 1);
                return Err(Unavailable {
                    reg,
                    op: phase,
                    attempts: attempt,
                    steps,
                    deadline,
                    crashed: self.router.crashed(),
                    isolated: self.router.isolated(),
                });
            }
            // Seeded exponential backoff: deterministic per
            // (plan seed, client, op, attempt), so a replay with the
            // same schedule waits the same number of steps.
            let base = 1u64 << attempt.min(BACKOFF_CAP);
            let jitter = mix(self.config.plan.seed, client as u64, op, attempt) % base;
            let wait = (base + jitter).min(deadline.saturating_sub(steps));
            add(&tally.backoffs, wait);
            steps += wait;
            // Waiting ticks pump the lane (Idle is cheap when it is
            // empty); replies landing here belong to the abandoned
            // attempt, whose reply set is discarded.
            if let Some(lane) = lane {
                for _ in 0..wait {
                    self.pump_dispatch(lane, op, &mut replies);
                }
            }
            std::thread::yield_now();
        }
    }

    /// Fault-free synchronous interaction: applies the handler inline
    /// (no queue), honoring partitions, crashes and the step hook.
    /// Returns `None` when either endpoint is isolated or crashed.
    fn interact_direct(&self, msg: Message) -> Option<Message> {
        if self.router.blocks(&msg) {
            return None;
        }
        self.router.fire_hook(&msg);
        let reply = self.replicas[msg.to as usize].handle(&msg);
        self.router.fire_hook(&reply);
        Some(reply)
    }

    /// Pumps `lane` once and dispatches the delivery: replica-bound
    /// requests are handled inline (the reply re-enters the lane), and
    /// a reply to the current `op` joins `replies` unless its replica
    /// already answered. Returns `true` when the lane was idle.
    fn pump_dispatch(&self, lane: &Lane, op: u64, replies: &mut Vec<Message>) -> bool {
        match self.router.pump(lane) {
            Pumped::Deliver(msg) => {
                if msg.to < Message::CLIENT_BASE {
                    let reply = self.replicas[msg.to as usize].handle(&msg);
                    self.router.send(lane, reply);
                } else if msg.op == op && !replies.iter().any(|r| r.from == msg.from) {
                    replies.push(msg);
                }
                false
            }
            Pumped::Discarded => false,
            Pumped::Idle => true,
        }
    }

    /// Pumps `lane` until `need` distinct replicas answered `op`, or
    /// the lane runs dry (time to retransmit).
    fn collect_replies(
        &self,
        lane: &Lane,
        op: u64,
        need: usize,
        replies: &mut Vec<Message>,
        steps: &mut u64,
    ) {
        while replies.len() < need {
            *steps += 1;
            if self.pump_dispatch(lane, op, replies) {
                return;
            }
        }
    }

    // ---- step-addressed single-replica access (the QuorumTs path) ----

    /// Reads replica `replica`'s word for `reg` — one protocol step,
    /// delivered synchronously (the step hook still fires).
    pub(crate) fn replica_fetch(&self, replica: u32, reg: u32) -> u64 {
        let (client, op) = self.next_op();
        let msg = Message {
            kind: MsgKind::ReadQuery,
            op,
            from: client,
            to: replica,
            reg,
            seq: 0,
            writer: 0,
            word: 0,
            expected: 0,
        };
        self.router.fire_hook(&msg);
        let reply = self.replicas[replica as usize].handle(&msg);
        self.router.fire_hook(&reply);
        reply.word
    }

    /// Conditionally installs `new` over `expected` on one replica —
    /// one protocol step. Returns the word held before (equality with
    /// `expected` means it landed).
    pub(crate) fn replica_install(&self, replica: u32, reg: u32, expected: u64, new: u64) -> u64 {
        let (client, op) = self.next_op();
        let msg = Message {
            kind: MsgKind::Install,
            op,
            from: client,
            to: replica,
            reg,
            seq: new as u32,
            writer: 0,
            word: new,
            expected,
        };
        self.router.fire_hook(&msg);
        let reply = self.replicas[replica as usize].handle(&msg);
        self.router.fire_hook(&reply);
        reply.word
    }
}

/// The replicated timestamp object whose steps are **messages**: the
/// real twin of [`QuorumModel`](crate::QuorumModel).
///
/// Each `getTS` reads `f + 1` replicas (rotating by pid), proposes
/// `max + 1`, then conditionally installs it on its write quorum —
/// every replica interaction is one gated step, so the model
/// checker's message interleavings replay against these real replicas
/// through the usual
/// [`StepGate`](ts_core::StepGate) pacing.
///
/// [`QuorumTs::broken`] shrinks the write quorum to a single replica:
/// reads and writes then no longer intersect, and the explorer finds
/// the duplicate-timestamp interleaving — which replays here, on real
/// replicas, as the acceptance counterexample.
#[derive(Debug)]
pub struct QuorumTs {
    cluster: Arc<Cluster>,
    reg: u32,
    write_quorum: usize,
}

impl QuorumTs {
    /// Correct protocol: read and write quorums of `f + 1`.
    pub fn new(f: usize) -> Self {
        Self::with_write_quorum(Cluster::new(ClusterConfig::new(f)), f + 1)
    }

    /// Deliberately broken protocol: writes land on one replica only.
    pub fn broken(f: usize) -> Self {
        Self::with_write_quorum(Cluster::new(ClusterConfig::new(f)), 1)
    }

    /// A timestamp object on an existing cluster with an explicit
    /// write-quorum size (`1..=f + 1`).
    pub fn with_write_quorum(cluster: Arc<Cluster>, write_quorum: usize) -> Self {
        assert!(
            (1..=cluster.quorum()).contains(&write_quorum),
            "write quorum must be in 1..=f+1"
        );
        let reg = cluster.alloc_register(0);
        Self {
            cluster,
            reg,
            write_quorum,
        }
    }

    /// The cluster the object lives on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Whether this instance runs the intersecting (correct) quorums.
    pub fn is_correct(&self) -> bool {
        self.write_quorum == self.cluster.quorum()
    }

    /// `getTS` without gating.
    pub fn get_ts(&self, pid: usize) -> Timestamp {
        self.get_ts_paused(pid, || {})
    }

    /// `getTS` with a pause before **every replica interaction** (the
    /// message-step granularity the replayer schedules).
    pub fn get_ts_paused(&self, pid: usize, mut pause: impl FnMut()) -> Timestamp {
        let n = self.cluster.replicas();
        let read_quorum = self.cluster.quorum();
        let mut observed = Vec::with_capacity(read_quorum);
        for i in 0..read_quorum {
            pause();
            observed.push(self.cluster.replica_fetch(((pid + i) % n) as u32, self.reg));
        }
        let proposal = observed.iter().copied().max().expect("non-empty quorum") + 1;
        for (j, expected) in observed.iter().copied().take(self.write_quorum).enumerate() {
            let replica = ((pid + j) % n) as u32;
            let mut expected = expected;
            loop {
                pause();
                let prior = self
                    .cluster
                    .replica_install(replica, self.reg, expected, proposal);
                if prior == expected || prior >= proposal {
                    // Landed, or someone already installed >= ours.
                    break;
                }
                expected = prior;
            }
        }
        Timestamp::scalar(proposal)
    }

    /// Largest word any replica holds (observation probe for tests).
    pub fn read_max(&self) -> u64 {
        (0..self.cluster.replicas())
            .map(|r| self.cluster.replica(r).stored(self.reg).1)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_read_write_round_trips() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(7);
        assert_eq!(cluster.abd_read(reg), (WriteStamp::INITIAL, 7));
        let stamp = cluster.abd_write(reg, 42);
        assert_eq!(stamp.seq, 1);
        let (read_stamp, word) = cluster.abd_read(reg);
        assert_eq!((read_stamp, word), (stamp, 42));
        // Fault-free reads of agreeing replicas never repair.
        assert_eq!(cluster.quorum_repairs(), 0);
    }

    #[test]
    fn writes_survive_any_minority_partition() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        // This thread's client id rotates its quorum window to start at
        // replica 1 — partition exactly that replica, so the write must
        // retry and widen past its preferred window.
        let start = cluster.client_id() as usize % cluster.replicas();
        cluster.router().partition(&[start as u32]);
        let stamp = cluster.abd_write(reg, 5);
        // f + 1 = 2 replicas hold the write despite the partition.
        let holders = (0..3)
            .filter(|&r| cluster.replica(r).stored(reg) == (stamp, 5))
            .count();
        assert!(holders >= 2, "only {holders} replicas hold the write");
        assert!(
            !cluster.router().isolated().is_empty(),
            "partition still active"
        );
        assert!(cluster.quorum_retries() > 0, "the partition forced retries");
        cluster.router().heal();
        assert_eq!(cluster.abd_read(reg).1, 5);
    }

    #[test]
    fn divergent_replicas_are_read_repaired() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        // Pick the replica just *outside* this client's preferred
        // window, partition it, write: it stays stale.
        let n = cluster.replicas();
        let start = cluster.client_id() as usize % n;
        let stale = ((start + 2) % n) as u32;
        cluster.router().partition(&[stale]);
        cluster.abd_write(reg, 9);
        cluster.router().heal();
        assert_eq!(cluster.replica(stale as usize).stored(reg).1, 0, "stale");
        // A reader whose window covers the stale replica observes
        // divergent replies and repairs before returning. Client ids
        // are per-thread, so mint readers until one's window hits it.
        let repaired = std::thread::scope(|s| {
            let mut hit = false;
            for _ in 0..n {
                hit |= s
                    .spawn(|| {
                        let me = cluster.client_id() as usize % n;
                        assert_eq!(cluster.abd_read(reg).1, 9, "no stale read, ever");
                        me == stale as usize || (me + 1) % n == stale as usize
                    })
                    .join()
                    .expect("reader thread");
            }
            hit
        });
        assert!(repaired, "some reader's window covered the stale replica");
        assert!(cluster.quorum_repairs() >= 1);
        assert_eq!(cluster.replica(stale as usize).stored(reg).1, 9, "repaired");
    }

    #[test]
    fn lossy_network_still_linearizes() {
        let plan = FaultPlan {
            seed: 11,
            drop_permille: 200,
            dup_permille: 100,
            delay_max: 3,
            reorder: true,
            ..FaultPlan::default()
        };
        let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
        let reg = cluster.alloc_register(0);
        for v in 1..=20u64 {
            cluster.abd_write(reg, v);
            assert_eq!(cluster.abd_read(reg).1, v, "read your own write");
        }
        let stats = cluster.net_stats();
        assert!(stats.dropped > 0, "the plan actually dropped: {stats:?}");
    }

    #[test]
    fn ambient_scope_nests_and_unwinds() {
        let outer = Cluster::new(ClusterConfig::new(0));
        let inner = Cluster::new(ClusterConfig::new(1));
        assert!(ambient_cluster().is_none());
        with_cluster(&outer, || {
            assert_eq!(ambient_cluster().expect("outer").uid, outer.uid);
            with_cluster(&inner, || {
                assert_eq!(ambient_cluster().expect("inner").uid, inner.uid);
            });
            assert_eq!(ambient_cluster().expect("outer again").uid, outer.uid);
        });
        assert!(ambient_cluster().is_none());
    }

    #[test]
    fn quorum_ts_is_monotone_per_thread() {
        let ts = QuorumTs::new(1);
        let mut last = None;
        for _ in 0..10 {
            let t = ts.get_ts(0);
            if let Some(prev) = last {
                assert!(Timestamp::compare(&prev, &t), "{prev:?} !< {t:?}");
            }
            last = Some(t);
        }
        assert_eq!(ts.read_max(), 10);
    }

    #[test]
    fn broken_quorum_ts_duplicates_stamps_across_disjoint_windows() {
        let ts = QuorumTs::broken(1);
        assert!(!ts.is_correct());
        // With a write quorum of 1, pid 0 installs only on replica 0 —
        // and pid 1's read window {1, 2} never sees it. Two
        // *non-overlapping* calls return the same timestamp: exactly
        // the violation the model explorer minimizes.
        let a = ts.get_ts(0);
        let b = ts.get_ts(1);
        assert_eq!(a, b, "non-intersecting quorums duplicate stamps");
        // A window that does cover replica 0 stays ordered.
        let c = ts.get_ts(2);
        assert!(Timestamp::compare(&a, &c));
    }

    #[test]
    fn crash_minority_write_survives_and_restart_resyncs() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        // Crash the client's preferred first replica, so the write must
        // retry and widen past it (degraded, not down).
        let down = (cluster.client_id() as usize % cluster.replicas()) as u32;
        cluster.crash(down);
        assert_eq!(cluster.crashed(), vec![down]);
        let stamp = cluster.abd_write(reg, 5);
        assert!(cluster.quorum_degraded() > 0, "first window hit the crash");
        // Both live replicas hold the write; the crashed one has none.
        let holders = (0..3)
            .filter(|&r| r != down as usize)
            .filter(|&r| cluster.replica(r).stored(reg) == (stamp, 5))
            .count();
        assert_eq!(holders, 2);
        assert_eq!(cluster.replica(down as usize).stored(reg).1, 0);
        // Restart with retained state: resync catches the replica up
        // before any client can reach it again.
        cluster.restart(down, RestartMode::Retain);
        assert!(cluster.crashed().is_empty());
        assert_eq!(cluster.replica(down as usize).stored(reg), (stamp, 5));
        assert!(cluster.resynced_registers() >= 1);
        assert_eq!(cluster.abd_read(reg).1, 5);
        assert_eq!(cluster.replica_crashes(), 1);
        assert_eq!(cluster.replica_restarts(), 1);
    }

    #[test]
    fn crash_majority_returns_unavailable_within_the_deadline() {
        let cluster = Cluster::new(ClusterConfig::new(1).with_deadline(512));
        let reg = cluster.alloc_register(3);
        cluster.crash(0);
        cluster.crash(1);
        let err = cluster.try_abd_write(reg, 9).expect_err("no quorum up");
        assert_eq!(err.crashed, vec![0, 1]);
        assert_eq!(err.deadline, 512);
        // The budget is exhausted promptly: at most one extra probe
        // window past the deadline, never an unbounded spin.
        assert!(err.steps >= 512);
        assert!(err.steps <= 512 + cluster.replicas() as u64);
        assert_eq!(cluster.quorum_timeouts(), 1);
        assert_eq!(cluster.quorum_unavailable(), 1);
        assert!(cluster.quorum_backoff_steps() > 0);
        // Reads fail too — and recover the moment quorum returns.
        cluster.try_abd_read(reg).expect_err("still no quorum");
        cluster.restart(1, RestartMode::Retain);
        let stamp = cluster.try_abd_write(reg, 9).expect("quorum restored");
        assert_eq!(cluster.try_abd_read(reg), Ok((stamp, 9)));
    }

    #[test]
    fn wiped_restart_rebuilds_state_from_the_live_majority() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        let s1 = cluster.abd_write(reg, 11);
        cluster.crash(2);
        let s2 = cluster.abd_write(reg, 22);
        assert!(s2 > s1);
        cluster.restart(2, RestartMode::Wipe);
        assert_eq!(cluster.replica(2).wipes(), 1);
        // The wiped replica rejoined holding the newest acked write.
        assert_eq!(cluster.replica(2).stored(reg), (s2, 22));
        let (stamp, word) = cluster.abd_read(reg);
        assert!(stamp >= s2, "no reader ever observes a regression");
        assert_eq!(word, 22);
    }

    #[test]
    fn restart_skip_resync_leaves_a_wiped_replica_amnesiac() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        cluster.abd_write(reg, 7);
        let holder = (0..3)
            .find(|&r| cluster.replica(r).stored(reg).1 == 7)
            .expect("a quorum holds the write") as u32;
        // Broken path: the wiped holder rejoins remembering nothing.
        cluster.crash(holder);
        cluster.restart_skip_resync(holder, RestartMode::Wipe);
        assert_eq!(
            cluster.replica(holder as usize).stored(reg),
            (WriteStamp::INITIAL, 0),
            "skip-resync rejoins with amnesia — the unsafe variant"
        );
        // The correct path repairs it (Retain + resync still sweeps).
        cluster.crash(holder);
        cluster.restart(holder, RestartMode::Retain);
        assert_eq!(cluster.replica(holder as usize).stored(reg).1, 7);
    }

    #[test]
    #[should_panic(expected = "resync of wiped replica")]
    fn wipe_restart_without_a_live_quorum_is_refused() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        cluster.alloc_register(0);
        cluster.crash(0);
        cluster.crash(1);
        // Wiping 0 now could destroy the only live copy of a write
        // acked on {0, 1}; the cluster refuses instead of losing data.
        cluster.restart(0, RestartMode::Wipe);
    }

    #[test]
    #[should_panic(expected = "at most 64 are supported")]
    fn a_config_past_the_replica_masks_is_refused() {
        ClusterConfig::new(32);
    }

    #[test]
    #[should_panic(expected = "at most 64 are supported")]
    fn a_cluster_past_the_replica_masks_is_refused() {
        Cluster::new(ClusterConfig {
            f: 32,
            ..ClusterConfig::new(31)
        });
    }

    #[test]
    fn deadline_exhaustion_replays_bit_identically() {
        let run = || {
            let cluster = Cluster::new(ClusterConfig::new(1).with_deadline(256));
            let reg = cluster.alloc_register(0);
            cluster.crash(0);
            cluster.crash(2);
            cluster.try_abd_read(reg).expect_err("no quorum")
        };
        assert_eq!(run(), run(), "same seed, same schedule, same diagnosis");
    }

    #[test]
    fn crashes_block_the_queued_path_too() {
        // A lossy plan forces the router path; crashing a majority must
        // still produce Unavailable (discards, not hangs).
        let plan = FaultPlan {
            seed: 3,
            drop_permille: 100,
            ..FaultPlan::default()
        };
        let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan).with_deadline(2048));
        let reg = cluster.alloc_register(1);
        cluster.abd_write(reg, 4);
        cluster.crash(0);
        cluster.crash(1);
        let err = cluster.try_abd_read(reg).expect_err("no quorum");
        assert_eq!(err.crashed, vec![0, 1]);
        assert!(cluster.net_stats().crash_discarded > 0);
        cluster.restart(0, RestartMode::Retain);
        assert_eq!(cluster.try_abd_read(reg).expect("healed").1, 4);
    }

    #[test]
    fn step_hook_counts_quorum_ts_messages() {
        use std::sync::atomic::AtomicU64 as Count;
        let cluster = Cluster::new(ClusterConfig::new(1));
        let ts = QuorumTs::with_write_quorum(Arc::clone(&cluster), 2);
        let count = Arc::new(Count::new(0));
        let c2 = Arc::clone(&count);
        cluster.router().set_step_hook(Some(Box::new(move |_| {
            c2.fetch_add(1, Ordering::SeqCst);
        })));
        ts.get_ts(0);
        // 2 reads + 2 installs, each a request + reply pair.
        assert_eq!(count.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn wipe_during_the_ack_window_forces_a_phase_retry() {
        use std::sync::atomic::AtomicBool;
        // The ack-window race the wipe epoch closes: a replica acks
        // the write-back, then crashes and wipe-restarts before the
        // client has collected its remaining acks. Its resync ran
        // against others that had not yet seen this write, so the
        // already-counted ack no longer stands for a surviving copy —
        // without the guard the write would "complete" while held by
        // fewer than f + 1 replicas.
        let cluster = Cluster::new(ClusterConfig::new(1));
        let reg = cluster.alloc_register(0);
        let fired = Arc::new(AtomicBool::new(false));
        let c2 = Arc::clone(&cluster);
        let f2 = Arc::clone(&fired);
        cluster
            .router()
            .set_step_hook(Some(Box::new(move |msg: &Message| {
                if msg.kind == MsgKind::WriteAck && !f2.swap(true, Ordering::SeqCst) {
                    c2.crash(msg.from);
                    c2.restart(msg.from, RestartMode::Wipe);
                }
            })));
        let stamp = cluster.abd_write(reg, 9);
        cluster.router().set_step_hook(None);
        assert!(fired.load(Ordering::SeqCst), "the write-back acked");
        let wipes: u64 = (0..3).map(|r| cluster.replica(r).wipes()).sum();
        assert_eq!(wipes, 1, "exactly the first acker was wiped");
        // The guard discarded the poisoned attempt and re-earned a
        // full quorum: f + 1 = 2 replicas hold the write at
        // quiescence even though one acker lost its copy mid-phase.
        let holders = (0..3)
            .filter(|&r| cluster.replica(r).stored(reg) == (stamp, 9))
            .count();
        assert!(holders >= 2, "only {holders} replicas hold the write");
        assert!(
            cluster.quorum_retries() > 0,
            "the mid-window wipe must cost the phase a retry"
        );
    }
}
