//! Concurrency stress for the `ts-service` layer.
//!
//! Three hammers, each aimed at a different uniqueness argument:
//!
//! - **Batch reservations**: N threads issue mixed-size batches on both
//!   register backends; every stamp ever issued must be globally unique
//!   and every batch internally consecutive — one CAS reserving `k`
//!   stamps must never overlap another reservation.
//! - **Flat combining**: N threads route single-stamp requests through
//!   the publication array; a combiner serving a peer's request twice
//!   (or never) would surface as a duplicate (or a hang).
//! - **Vpid multiplexing**: the workload engine drives `M = 64` client
//!   sessions over `n = 8` physical slots through the churn scenario;
//!   the per-worker monotonicity asserts inside the engine check the
//!   timestamp property while sessions outnumber registers 8:1.
//! - **Blocking leases**: N threads over one slot per shard, so calls
//!   sleep for a lease; a lost wake-up fails as a bounded "lease hang"
//!   instead of hanging the suite.

use std::collections::HashSet;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Barrier;
use std::time::Duration;

use timestamp_suite::ts_core::{EpochBackend, PackedBackend, RegisterBackend, ShardedTimestamp};
use timestamp_suite::ts_register;
use timestamp_suite::ts_service::{IssueMode, ServiceConfig, ShardedCollectMax};
use timestamp_suite::ts_workloads::ServiceTarget;
use timestamp_suite::ts_workloads::{run_scenario, Arrival, Churn, OpMix, RunConfig, Scenario};

const THREADS: usize = 8;

/// Collects every stamp issued by `per_thread` calls from each of
/// `THREADS` threads, as `(shard, word)` keys (shard-qualified words
/// are unique iff stamps are).
fn hammer<B, F>(service: &ShardedCollectMax<B>, per_thread: usize, issue: F) -> HashSet<(u32, u64)>
where
    B: RegisterBackend<u64>,
    F: Fn(&mut timestamp_suite::ts_service::ClientSession<'_, B>, usize) -> Vec<ShardedTimestamp>
        + Sync,
{
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut session = service.session();
                    let mut seen = Vec::new();
                    barrier.wait();
                    for i in 0..per_thread {
                        seen.extend(issue(&mut session, i));
                    }
                    seen
                })
            })
            .collect();
        let mut all = HashSet::new();
        let mut count = 0usize;
        for h in handles {
            for t in h.join().expect("stress thread panicked") {
                count += 1;
                assert!(
                    all.insert((t.shard, t.word())),
                    "duplicate stamp issued: {t}"
                );
            }
        }
        assert_eq!(all.len(), count);
        all
    })
}

fn batch_stress<B: RegisterBackend<u64>>(shards: usize) {
    let service: ShardedCollectMax<B> =
        ShardedCollectMax::with_backend(ServiceConfig::new(shards, THREADS.div_ceil(shards)));
    let per_thread = 150;
    let all = hammer(&service, per_thread, |session, i| {
        // Mixed batch sizes 1..=16, cycling differently per call.
        let k = (i % 16) as u32 + 1;
        let batch = session.get_ts_batch(k);
        assert_eq!(batch.remaining() as u32, k);
        let stamps: Vec<ShardedTimestamp> = batch.collect();
        // Consecutive within the batch: same shard and epoch, locals
        // stepping by exactly one (reservations never span an epoch).
        for pair in stamps.windows(2) {
            assert_eq!(pair[0].shard, pair[1].shard);
            assert_eq!(pair[0].epoch, pair[1].epoch, "batch spanned an epoch");
            assert_eq!(pair[0].local + 1, pair[1].local, "batch not consecutive");
        }
        stamps
    });
    let stats = service.stats();
    assert_eq!(
        stats.stamps,
        all.len() as u64,
        "stats disagree with issue count"
    );
    assert_eq!(stats.calls, (THREADS * per_thread) as u64);
    // Calls with k > 1 are batches; the k == 1 calls are single stamps.
    let singles = (THREADS * per_thread.div_ceil(16)) as u64;
    assert_eq!(stats.batches, stats.calls - singles);
    assert_eq!(stats.batched_stamps, stats.stamps - singles);
    assert!(stats.fast_hits <= stats.calls);
    assert_eq!((stats.combined_ops, stats.combine_passes), (0, 0));
    assert_eq!(stats.shard_stamps.len(), shards);
    assert_eq!(stats.shard_stamps.iter().sum::<u64>(), stats.stamps);
}

#[test]
fn batches_are_unique_and_consecutive_packed() {
    batch_stress::<PackedBackend>(1);
    batch_stress::<PackedBackend>(4);
    ts_register::reclaim::flush();
}

#[test]
fn batches_are_unique_and_consecutive_epoch() {
    batch_stress::<EpochBackend>(1);
    batch_stress::<EpochBackend>(4);
    ts_register::reclaim::flush();
}

/// Batches stay unique while the shard is driven across an epoch
/// boundary mid-stress (the `advance` jump path under contention).
#[test]
fn batches_survive_epoch_rollover_under_contention() {
    let service = ShardedCollectMax::new(ServiceConfig::new(1, THREADS));
    // Park the shard close to `local` exhaustion so the stress crosses
    // the epoch bump almost immediately.
    service.raise_shard_floor(0, ShardedTimestamp::new(0, u32::MAX - 500, 0));
    let all = hammer(&service, 100, |session, i| {
        session.get_ts_batch((i % 8) as u32 + 1).collect()
    });
    assert!(
        all.iter().any(|&(_, word)| word >> 32 >= 1),
        "stress never reached the next epoch"
    );
    assert_eq!(service.stats().stamps, all.len() as u64);
}

#[test]
fn combining_issues_each_request_exactly_once() {
    for shards in [1usize, 2] {
        let service = ShardedCollectMax::new(ServiceConfig::new(shards, THREADS));
        let per_thread = 300;
        let all = hammer(&service, per_thread, |session, _| {
            vec![session.get_ts_combined()]
        });
        let stats = service.stats();
        let calls = (THREADS * per_thread) as u64;
        assert_eq!(all.len() as u64, calls);
        assert_eq!((stats.calls, stats.stamps), (calls, calls));
        // Every request was served by exactly one pass (possibly its own).
        assert_eq!(stats.combined_ops, calls);
        assert!(stats.combine_passes >= 1);
        assert!(stats.combine_passes <= stats.calls);
        // Only a combiner's pass can hit the fast path.
        assert!(stats.fast_hits <= stats.combine_passes);
        assert_eq!((stats.batches, stats.batched_stamps), (0, 0));
        assert_eq!(stats.shard_stamps.iter().sum::<u64>(), stats.stamps);
    }
}

/// Batch size of call `i` in the blocking-lease mix: 2..=8, so every
/// batch call counts as a batch.
fn mixed_batch(i: usize) -> u32 {
    2 + (i / 3 % 7) as u32
}

/// Pools oversubscribed 8:1 or 4:1 (one slot per shard), with single,
/// batch and combining calls mixed, so calls find their slot taken and
/// sleep for it. Rounds repeat until some lease has blocked: on one CPU
/// a lease is only ever found taken when its holder is preempted. The
/// rounds run on a helper thread so that a lost wake-up fails here
/// after a bounded wait rather than hanging CI.
#[test]
fn oversubscribed_leases_wake_every_sleeper() {
    const PER_THREAD: usize = 3000;
    const MAX_ROUNDS: u64 = 200;
    for shards in [1usize, 2] {
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let service = ShardedCollectMax::new(ServiceConfig::new(shards, 1));
            let mut all = HashSet::new();
            let mut rounds = 0;
            while rounds == 0 || service.stats().lease_waits == 0 {
                assert!(rounds < MAX_ROUNDS, "no lease blocked in {rounds} rounds");
                let round = hammer(&service, PER_THREAD, |session, i| match i % 3 {
                    0 => vec![session.get_ts()],
                    1 => session.get_ts_batch(mixed_batch(i)).collect(),
                    _ => vec![session.get_ts_combined()],
                });
                for key in round {
                    assert!(all.insert(key), "stamp {key:?} issued in two rounds");
                }
                rounds += 1;
            }
            tx.send((all.len() as u64, rounds, service.stats()))
                .expect("main thread is waiting");
        });
        let (issued, rounds, stats) = match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(done) => done,
            Err(RecvTimeoutError::Timeout) => {
                panic!(
                    "lease hang: {shards} shard(s) x 1 slot, {THREADS} threads, not done in 60 s"
                )
            }
            Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
                helper.join().expect_err("helper exits only after sending"),
            ),
        };
        helper.join().expect("helper thread");
        let thread_rounds = rounds * THREADS as u64;
        let per_kind = |kind: usize| (0..PER_THREAD).filter(move |i| i % 3 == kind);
        let batches = per_kind(1).count() as u64 * thread_rounds;
        let batched_stamps =
            per_kind(1).map(|i| u64::from(mixed_batch(i))).sum::<u64>() * thread_rounds;
        let combined = per_kind(2).count() as u64 * thread_rounds;
        let singles = per_kind(0).count() as u64 * thread_rounds;
        assert!(stats.lease_waits > 0);
        assert_eq!(stats.calls, PER_THREAD as u64 * thread_rounds);
        assert_eq!(stats.stamps, singles + batched_stamps + combined);
        assert_eq!(stats.stamps, issued);
        assert_eq!(
            (stats.batches, stats.batched_stamps),
            (batches, batched_stamps)
        );
        assert_eq!(stats.combined_ops, combined);
        assert_eq!(stats.shard_stamps.iter().sum::<u64>(), stats.stamps);
    }
}

/// The acceptance configuration: M = 64 client sessions multiplexed
/// over n = 8 physical slots (2 shards × 4 slots), driven by the
/// workload engine's churn scenario. The engine's workers assert
/// per-session monotonicity on every issued stamp; this test adds the
/// space-side claims.
#[test]
fn sixty_four_clients_multiplex_over_eight_slots() {
    let target = ServiceTarget::new("sharded_mux", ServiceConfig::new(2, 4), IssueMode::Single);
    let scenario = Scenario {
        name: "mux_churn",
        arrival: Arrival::ClosedLoop,
        mix: OpMix::get_ts_only(),
        churn: Some(Churn { ops_per_life: 100 }),
    };
    let cfg = RunConfig {
        threads: 8,
        ops_per_thread: 800,
        seed: 0x64,
    };
    let report = run_scenario(&target, &scenario, &cfg);
    assert_eq!(report.lives, 64, "8 threads x 8 lives = 64 sessions");
    assert_eq!(target.service().sessions(), 64);
    assert_eq!(
        target.service().registers(),
        16,
        "8 slots (x2-register pairs) regardless of client count"
    );
    let stats = target.service().stats();
    assert_eq!(stats.stamps, 8 * 800);
    assert_eq!(
        stats.shard_stamps.iter().sum::<u64>(),
        stats.stamps,
        "every stamp is accounted to a shard"
    );
}
