//! The modelled network: seeded, fault-injecting per-client lanes.
//!
//! Every quorum client reaches the replicas over its own private
//! *lane*: the client's in-flight messages, a virtual clock, a
//! seeded fault stream and the lane's counters, plus the client's op-id
//! counter and quorum tallies. The lanes share one
//! [`Router`] (the in-process reproduction of `dist-register`'s
//! `network/modelled.rs`, where each client's links are independent),
//! which keeps only what is global: the plan, the step hook, the
//! crash/partition topology and the optional delivery log.
//!
//! The network is *thread-free*: it owns no event loop. A client
//! pushes sends into its lane and then **pumps** that lane — each pump
//! delivers exactly one of the lane's in-flight messages, chosen by
//! the lane's seeded stream — and replica handlers run inline on the
//! pumping thread. Only the owning client pumps its lane, so its
//! messages move only while it is active: still an asynchronous
//! network with arbitrary delay, one whose delays are set per client.
//! (The [`QuorumModel`](crate::QuorumModel) twin models direct replica
//! steps, not the router, so its schedules are unaffected.)
//!
//! A lane's delivery order is a function of the plan seed, the
//! client's vpid and the client's own sends: lane `k` draws from the
//! stream seeded `seed ^ k·0x9E37_79B9_7F4A_7C15`, so client 0 draws
//! exactly the plan seed's stream and no other client's traffic
//! perturbs it.
//!
//! # Fault knobs ([`FaultPlan`])
//!
//! | knob | effect |
//! |---|---|
//! | `seed` | SplitMix64 streams (one per lane) deciding every probabilistic choice |
//! | `drop_permille` | per-message loss probability (‰), rolled at send |
//! | `dup_permille` | per-message duplication probability (‰) |
//! | `delay_max` | extra delivery ticks, uniform in `0..=delay_max` |
//! | `reorder` | deliver a random eligible message instead of FIFO |
//! | `record_log` | keep the delivered-message log for diffing |
//!
//! Partitions are dynamic (not part of the plan):
//! [`Router::partition`] isolates a replica set — traffic to or from
//! it is discarded at delivery time — and [`Router::heal`] reconnects
//! it. Clients survive both through retransmission.
//!
//! Crashes are dynamic too: [`Router::crash_endpoint`] marks a replica
//! crash-stopped (its traffic is discarded like a partitioned node's,
//! counted separately in [`NetStats::crash_discarded`]) and
//! [`Router::restore_endpoint`] brings it back. State loss and resync
//! on rejoin live one layer up, in
//! [`Cluster::restart`](crate::Cluster::restart).
//!
//! Both are one-word replica bitmasks every delivery reads, so only
//! replica ids below [`MAX_REPLICAS`] can be isolated or crashed;
//! clients never are.
//!
//! # The step hook
//!
//! [`Router::set_step_hook`] installs a callback invoked **before
//! every message delivery**, outside any lock. Pointing it at
//! [`StepGate::pause`](ts_core::workload::StepGate::pause) puts each
//! delivery under controller pacing — the same barrier protocol that
//! replays memory-access schedules — so message interleavings become
//! steppable and replayable exactly like register accesses.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ts_register::CachePadded;

use crate::cluster::Tally;
use crate::proto::Message;

/// Replica ids the crash/partition bitmasks can address: a cluster
/// runs at most this many replicas (`2f + 1 <= MAX_REPLICAS`).
pub const MAX_REPLICAS: usize = 64;

/// The golden-ratio multiplier that spreads lane seeds: lane `k` is
/// seeded `plan.seed ^ k * LANE_SEED_STRIDE`.
const LANE_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seeded fault schedule of a [`Router`]. See the module docs for
/// the knob table. [`FaultPlan::default`] is the fault-free plan:
/// FIFO, lossless, undelayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the SplitMix64 streams behind every probabilistic knob.
    pub seed: u64,
    /// Per-message drop probability in permille (0..=1000).
    pub drop_permille: u16,
    /// Per-message duplication probability in permille (0..=1000).
    pub dup_permille: u16,
    /// Maximum extra delivery delay in ticks (sampled uniformly).
    pub delay_max: u8,
    /// Deliver a seeded-random eligible message instead of the oldest.
    pub reorder: bool,
    /// Record every delivered message (see [`Router::delivery_log`]).
    pub record_log: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_permille: 0,
            dup_permille: 0,
            delay_max: 0,
            reorder: false,
            record_log: false,
        }
    }
}

impl FaultPlan {
    /// Whether the plan injects any fault at all (a fault-free plan
    /// lets the cluster take its synchronous direct path).
    pub fn is_fault_free(&self) -> bool {
        self.drop_permille == 0 && self.dup_permille == 0 && self.delay_max == 0 && !self.reorder
    }
}

/// Counters the router keeps about its own mischief, summed over all
/// lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted into flight.
    pub sent: u64,
    /// Messages delivered to a handler or client.
    pub delivered: u64,
    /// Messages lost to the drop knob at send time.
    pub dropped: u64,
    /// Extra copies minted by the duplicate knob.
    pub duplicated: u64,
    /// Messages discarded at delivery time because an endpoint was
    /// partitioned away.
    pub partitioned: u64,
    /// Messages that drew a nonzero extra delivery delay at send time.
    pub delayed: u64,
    /// Deliveries where the reorder knob picked a message other than
    /// the FIFO (oldest-eligible) choice.
    pub reordered: u64,
    /// Messages discarded at delivery time because an endpoint was
    /// crashed (see [`Router::crash_endpoint`]).
    pub crash_discarded: u64,
}

impl NetStats {
    fn merge(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.partitioned += other.partitioned;
        self.delayed += other.delayed;
        self.reordered += other.reordered;
        self.crash_discarded += other.crash_discarded;
    }
}

#[derive(Debug)]
struct Flight {
    deliver_at: u64,
    id: u64,
    msg: Message,
}

#[derive(Debug)]
struct LaneState {
    now: u64,
    next_id: u64,
    in_flight: Vec<Flight>,
    rng: StdRng,
    stats: NetStats,
}

/// One client's private share of the network, on two padded lines of
/// its own: the in-flight messages, virtual clock, seeded fault stream
/// and net counters under a lock that only the owning client takes on
/// the hot path ([`Router::stats`] takes it to sum the counters); and
/// the client's op-id counter and quorum [`Tally`], which only the
/// owning client writes and [`Router::sum_lanes`] sums.
#[derive(Debug)]
pub(crate) struct Lane {
    state: CachePadded<Mutex<LaneState>>,
    pub(crate) tally: CachePadded<Tally>,
}

/// What one pump produced: a message for a handler, silence, or proof
/// that nothing is in flight (time to retransmit).
#[derive(Debug)]
pub(crate) enum Pumped {
    /// The message to hand to its destination's handler.
    Deliver(Message),
    /// A message existed but was discarded (crashed or partitioned
    /// endpoint); the pump still made progress.
    Discarded,
    /// Nothing in flight on this lane.
    Idle,
}

/// Per-delivery callback type (see the module docs on the step hook).
pub type StepHook = Box<dyn Fn(&Message) + Send + Sync>;

/// The bit of `id` in a replica bitmask.
///
/// # Panics
///
/// If `id` is not a replica id the masks can address.
fn replica_bit(id: u32) -> u64 {
    assert!(
        (id as usize) < MAX_REPLICAS,
        "endpoint {id} is not a replica id: only replicas 0..{MAX_REPLICAS} \
         can be partitioned or crashed"
    );
    1 << id
}

/// The bit of `id` in a replica bitmask, or none for a client id.
fn bit(id: u32) -> u64 {
    1u64.checked_shl(id).unwrap_or(0)
}

/// The replica bits of a message's endpoints.
fn endpoint_bits(msg: &Message) -> u64 {
    bit(msg.from) | bit(msg.to)
}

/// The replica ids set in `mask`, ascending.
fn mask_ids(mask: u64) -> Vec<u32> {
    (0..MAX_REPLICAS as u32)
        .filter(|&id| mask & (1 << id) != 0)
        .collect()
}

/// The seeded fault-injecting network shared by a
/// [`Cluster`](crate::Cluster)'s client lanes; see the module docs.
pub struct Router {
    plan: FaultPlan,
    hook: Mutex<Option<StepHook>>,
    // Lock-free mirror of "a hook is installed".
    hook_armed: AtomicBool,
    /// Replica bitmasks of the partitioned and crashed endpoints.
    /// Updates are release operations made after the state change they
    /// announce (`Cluster::restart` resyncs, then restores), and every
    /// delivery loads them with acquire, so a delivery that sees a
    /// replica restored also sees its resynced state.
    isolated: AtomicU64,
    crashed: AtomicU64,
    /// Every lane ever opened, for [`Router::stats`].
    lanes: Mutex<Vec<Arc<Lane>>>,
    log: Mutex<Vec<Message>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("plan", &self.plan)
            .field("lanes", &self.lanes.lock().expect("lanes lock").len())
            .field("isolated", &self.isolated())
            .field("crashed", &self.crashed())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Router {
    /// Creates a router executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            hook: Mutex::new(None),
            hook_armed: AtomicBool::new(false),
            isolated: AtomicU64::new(0),
            crashed: AtomicU64::new(0),
            lanes: Mutex::new(Vec::new()),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The plan this router runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Opens the lane of the client with virtual id `vpid`, seeded
    /// `plan.seed ^ vpid * 0x9E37_79B9_7F4A_7C15` (so vpid 0 draws the
    /// plan seed's own stream).
    pub(crate) fn lane(&self, vpid: u32) -> Arc<Lane> {
        let seed = self.plan.seed ^ u64::from(vpid).wrapping_mul(LANE_SEED_STRIDE);
        let lane = Arc::new(Lane {
            state: CachePadded::new(Mutex::new(LaneState {
                now: 0,
                next_id: 0,
                in_flight: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                stats: NetStats::default(),
            })),
            tally: CachePadded::default(),
        });
        self.lanes
            .lock()
            .expect("lanes lock")
            .push(Arc::clone(&lane));
        lane
    }

    /// Installs (or clears) the per-delivery step hook.
    pub fn set_step_hook(&self, hook: Option<StepHook>) {
        let armed = hook.is_some();
        *self.hook.lock().expect("hook lock") = hook;
        self.hook_armed.store(armed, Ordering::Release);
    }

    /// Fires the step hook, if one is armed, for a delivery.
    pub(crate) fn fire_hook(&self, msg: &Message) {
        if self.hook_armed.load(Ordering::Acquire) {
            if let Some(hook) = self.hook.lock().expect("hook lock").as_ref() {
                hook(msg);
            }
        }
    }

    /// Isolates `replicas`: messages to or from them are discarded at
    /// delivery time until [`Router::heal`].
    ///
    /// # Panics
    ///
    /// If an id is not a replica id below [`MAX_REPLICAS`].
    pub fn partition(&self, replicas: &[u32]) {
        let mask = replicas.iter().fold(0, |m, &id| m | replica_bit(id));
        self.isolated.fetch_or(mask, Ordering::AcqRel);
    }

    /// Reconnects every isolated replica.
    pub fn heal(&self) {
        self.isolated.store(0, Ordering::Release);
    }

    /// Reconnects one replica.
    pub fn heal_one(&self, replica: u32) {
        self.isolated
            .fetch_and(!replica_bit(replica), Ordering::AcqRel);
    }

    /// Marks `replica` crashed: all its traffic (both directions) is
    /// discarded at delivery time until [`Router::restore_endpoint`].
    /// Unlike a partition, a crash also implies the replica's *state*
    /// may be lost — that part is the cluster's business; the router
    /// only models unreachability.
    ///
    /// # Panics
    ///
    /// If `replica` is not a replica id below [`MAX_REPLICAS`].
    pub fn crash_endpoint(&self, replica: u32) {
        self.crashed
            .fetch_or(replica_bit(replica), Ordering::AcqRel);
    }

    /// Brings a crashed replica back onto the network.
    pub fn restore_endpoint(&self, replica: u32) {
        self.crashed
            .fetch_and(!replica_bit(replica), Ordering::AcqRel);
    }

    /// Whether `replica` is currently crashed.
    pub fn is_crashed(&self, replica: u32) -> bool {
        self.crashed.load(Ordering::Acquire) & bit(replica) != 0
    }

    /// The currently crashed replica ids (sorted).
    pub fn crashed(&self) -> Vec<u32> {
        mask_ids(self.crashed.load(Ordering::Acquire))
    }

    /// The currently isolated replica ids (sorted).
    pub fn isolated(&self) -> Vec<u32> {
        mask_ids(self.isolated.load(Ordering::Acquire))
    }

    /// Whether any replica is currently isolated.
    pub fn has_partition(&self) -> bool {
        self.isolated.load(Ordering::Acquire) != 0
    }

    /// Whether either endpoint of `msg` is currently unreachable —
    /// isolated by a partition or crashed.
    pub(crate) fn blocks(&self, msg: &Message) -> bool {
        let down = self.isolated.load(Ordering::Acquire) | self.crashed.load(Ordering::Acquire);
        down & endpoint_bits(msg) != 0
    }

    /// Snapshot of the network's counters, summed over every lane.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for lane in self.lanes.lock().expect("lanes lock").iter() {
            total.merge(&lane.state.lock().expect("lane lock").stats);
        }
        total
    }

    /// Sums `f` over every lane ever opened.
    pub(crate) fn sum_lanes(&self, f: impl Fn(&Lane) -> u64) -> u64 {
        self.lanes
            .lock()
            .expect("lanes lock")
            .iter()
            .map(|l| f(l))
            .sum()
    }

    /// The delivered-message log (empty unless
    /// [`FaultPlan::record_log`] is set), in delivery order across all
    /// lanes. Serializing this and diffing across runs is the
    /// seeded-schedule reproducibility check.
    pub fn delivery_log(&self) -> Vec<Message> {
        self.log.lock().expect("log lock").clone()
    }

    /// Accepts `msg` into `lane`'s flight, rolling the drop /
    /// duplicate / delay knobs on the lane's stream.
    pub(crate) fn send(&self, lane: &Lane, msg: Message) {
        let mut state = lane.state.lock().expect("lane lock");
        state.stats.sent += 1;
        if self.plan.drop_permille > 0 {
            let p = u64::from(self.plan.drop_permille);
            if state.rng.random_range(0u64..1000) < p {
                state.stats.dropped += 1;
                return;
            }
        }
        let copies = if self.plan.dup_permille > 0 {
            let p = u64::from(self.plan.dup_permille);
            if state.rng.random_range(0u64..1000) < p {
                state.stats.duplicated += 1;
                2
            } else {
                1
            }
        } else {
            1
        };
        for _ in 0..copies {
            let delay = if self.plan.delay_max > 0 {
                state
                    .rng
                    .random_range(0u64..u64::from(self.plan.delay_max) + 1)
            } else {
                0
            };
            if delay > 0 {
                state.stats.delayed += 1;
            }
            let flight = Flight {
                deliver_at: state.now + 1 + delay,
                id: state.next_id,
                msg,
            };
            state.next_id += 1;
            state.in_flight.push(flight);
        }
    }

    /// Advances `lane`'s time and takes its next message to deliver,
    /// applying crashes and partitions. Fires the step hook (outside
    /// the lane lock) for messages that will reach a handler.
    pub(crate) fn pump(&self, lane: &Lane) -> Pumped {
        let taken = {
            let mut guard = lane.state.lock().expect("lane lock");
            let state = &mut *guard;
            // The FIFO choice: the oldest (arrival, id) in flight.
            let Some((fifo, first_at)) = state
                .in_flight
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| (f.deliver_at, f.id))
                .map(|(i, f)| (i, f.deliver_at))
            else {
                return Pumped::Idle;
            };
            state.now += 1;
            let now = state.now;
            let chosen = if first_at > now {
                // Nothing is due: jump time to the earliest arrival
                // instead of spinning.
                state.now = first_at;
                fifo
            } else if self.plan.reorder {
                let eligible: Vec<usize> = state
                    .in_flight
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.deliver_at <= now)
                    .map(|(i, _)| i)
                    .collect();
                if eligible.len() > 1 {
                    let pick = eligible[state.rng.random_range(0..eligible.len())];
                    if pick != fifo {
                        state.stats.reordered += 1;
                    }
                    pick
                } else {
                    fifo
                }
            } else {
                fifo
            };
            let flight = state.in_flight.swap_remove(chosen);
            let endpoints = endpoint_bits(&flight.msg);
            if self.crashed.load(Ordering::Acquire) & endpoints != 0 {
                state.stats.crash_discarded += 1;
                return Pumped::Discarded;
            }
            if self.isolated.load(Ordering::Acquire) & endpoints != 0 {
                state.stats.partitioned += 1;
                return Pumped::Discarded;
            }
            state.stats.delivered += 1;
            flight.msg
        };
        if self.plan.record_log {
            self.log.lock().expect("log lock").push(taken);
        }
        self.fire_hook(&taken);
        Pumped::Deliver(taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MsgKind;

    fn msg(op: u64, to: u32) -> Message {
        Message {
            kind: MsgKind::ReadQuery,
            op,
            from: Message::CLIENT_BASE,
            to,
            reg: 0,
            seq: 0,
            writer: 0,
            word: 0,
            expected: 0,
        }
    }

    fn drain(router: &Router, lane: &Lane) -> Vec<u64> {
        let mut ops = Vec::new();
        loop {
            match router.pump(lane) {
                Pumped::Deliver(m) => ops.push(m.op),
                Pumped::Discarded => {}
                Pumped::Idle => return ops,
            }
        }
    }

    #[test]
    fn fault_free_router_is_fifo() {
        let router = Router::new(FaultPlan::default());
        let lane = router.lane(0);
        for op in 0..5 {
            router.send(&lane, msg(op, 0));
        }
        assert_eq!(drain(&router, &lane), vec![0, 1, 2, 3, 4]);
        assert_eq!(router.stats().delivered, 5);
    }

    #[test]
    fn seeded_reorder_is_deterministic() {
        let plan = FaultPlan {
            seed: 42,
            delay_max: 4,
            reorder: true,
            ..FaultPlan::default()
        };
        let run = || {
            let router = Router::new(plan);
            let lane = router.lane(0);
            for op in 0..20 {
                router.send(&lane, msg(op, (op % 3) as u32));
            }
            drain(&router, &lane)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same delivery order");
        assert_ne!(a, (0..20).collect::<Vec<_>>(), "the knobs actually reorder");
    }

    #[test]
    fn lanes_are_independent_and_seeded_per_vpid() {
        let plan = FaultPlan {
            seed: 42,
            delay_max: 4,
            reorder: true,
            ..FaultPlan::default()
        };
        let alone = {
            let router = Router::new(plan);
            let lane = router.lane(0);
            for op in 0..20 {
                router.send(&lane, msg(op, 0));
            }
            drain(&router, &lane)
        };
        // Interleaving another lane's sends and pumps leaves lane 0's
        // schedule untouched; the counters sum over both lanes.
        let router = Router::new(plan);
        let (a, b) = (router.lane(0), router.lane(1));
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        for op in 0..20 {
            router.send(&a, msg(op, 0));
            router.send(&b, msg(op, 1));
        }
        loop {
            let pa = router.pump(&a);
            let pb = router.pump(&b);
            if let Pumped::Deliver(m) = pa {
                got_a.push(m.op);
            }
            if let Pumped::Deliver(m) = pb {
                got_b.push(m.op);
            }
            if matches!((pa, pb), (Pumped::Idle, Pumped::Idle)) {
                break;
            }
        }
        assert_eq!(got_a, alone, "lane 0 ignores lane 1's traffic");
        assert_ne!(got_b, got_a, "lane 1 draws its own stream");
        assert_eq!(router.stats().delivered, 40);
    }

    #[test]
    fn partition_discards_and_heal_restores() {
        let router = Router::new(FaultPlan::default());
        let lane = router.lane(0);
        router.partition(&[1]);
        assert!(router.has_partition());
        router.send(&lane, msg(0, 1));
        router.send(&lane, msg(1, 0));
        assert_eq!(
            drain(&router, &lane),
            vec![1],
            "replica 1's traffic discarded"
        );
        assert_eq!(router.stats().partitioned, 1);
        router.heal();
        assert!(!router.has_partition());
        router.send(&lane, msg(2, 1));
        assert_eq!(drain(&router, &lane), vec![2]);
    }

    #[test]
    fn drop_knob_loses_messages_at_send() {
        let plan = FaultPlan {
            seed: 7,
            drop_permille: 500,
            ..FaultPlan::default()
        };
        let router = Router::new(plan);
        let lane = router.lane(0);
        for op in 0..200 {
            router.send(&lane, msg(op, 0));
        }
        let delivered = drain(&router, &lane).len() as u64;
        let stats = router.stats();
        assert_eq!(stats.sent, 200);
        assert_eq!(stats.dropped + delivered, 200);
        assert!(stats.dropped > 50 && stats.dropped < 150, "{stats:?}");
    }

    #[test]
    fn dup_knob_delivers_twice() {
        let plan = FaultPlan {
            seed: 3,
            dup_permille: 1000,
            ..FaultPlan::default()
        };
        let router = Router::new(plan);
        let lane = router.lane(0);
        router.send(&lane, msg(0, 0));
        assert_eq!(drain(&router, &lane), vec![0, 0]);
        assert_eq!(router.stats().duplicated, 1);
    }

    #[test]
    fn crashed_endpoint_discards_until_restored() {
        let router = Router::new(FaultPlan::default());
        let lane = router.lane(0);
        router.crash_endpoint(1);
        assert!(router.is_crashed(1));
        assert_eq!(router.crashed(), vec![1]);
        assert!(router.blocks(&msg(0, 1)));
        router.send(&lane, msg(0, 1)); // to the crashed replica
        router.send(&lane, msg(1, 0)); // unrelated traffic flows
        assert_eq!(drain(&router, &lane), vec![1]);
        assert_eq!(router.stats().crash_discarded, 1);
        assert_eq!(router.stats().partitioned, 0, "crash is not a partition");
        router.restore_endpoint(1);
        assert!(router.crashed().is_empty());
        assert!(!router.blocks(&msg(0, 1)));
        router.send(&lane, msg(2, 1));
        assert_eq!(drain(&router, &lane), vec![2]);
    }

    #[test]
    #[should_panic(expected = "is not a replica id")]
    fn partitioning_a_client_id_panics() {
        Router::new(FaultPlan::default()).partition(&[Message::CLIENT_BASE]);
    }

    #[test]
    #[should_panic(expected = "is not a replica id")]
    fn crashing_an_id_past_the_replica_masks_panics() {
        Router::new(FaultPlan::default()).crash_endpoint(MAX_REPLICAS as u32);
    }

    #[test]
    fn delay_and_reorder_counters_track_the_knobs() {
        let plan = FaultPlan {
            seed: 42,
            delay_max: 4,
            reorder: true,
            ..FaultPlan::default()
        };
        let router = Router::new(plan);
        let lane = router.lane(0);
        for op in 0..50 {
            router.send(&lane, msg(op, 0));
        }
        let delivered = drain(&router, &lane);
        assert_eq!(delivered.len(), 50);
        let stats = router.stats();
        assert!(stats.delayed > 0, "delay_max > 0 must delay something");
        assert!(stats.reordered > 0, "the reorder knob must fire");
        assert!(stats.reordered < 50, "FIFO picks are not counted");
    }

    #[test]
    fn step_hook_sees_every_delivery() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let router = Router::new(FaultPlan::default());
        let lane = router.lane(0);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        router.set_step_hook(Some(Box::new(move |_| {
            seen2.fetch_add(1, Ordering::SeqCst);
        })));
        for op in 0..3 {
            router.send(&lane, msg(op, 0));
        }
        drain(&router, &lane);
        assert_eq!(seen.load(Ordering::SeqCst), 3);
    }
}
