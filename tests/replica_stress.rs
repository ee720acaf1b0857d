//! Multi-threaded storms over the quorum-replicated backend under
//! partition/heal churn.
//!
//! Every replica's monotonic-register invariant is an *armed* runtime
//! assert (not a debug assert), so these storms double as invariant
//! fuzzers: any handler that regressed a stored stamp would abort the
//! whole test process. The specific regression pinned here is the
//! killed-and-healed minority: a replica isolated across acknowledged
//! writes and then reconnected must never cause a stale read, because
//! every read quorum still intersects every write quorum and reads
//! take the maximum.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use timestamp_suite::ts_core::{CollectMax, LongLivedTimestamp, Timestamp};
use timestamp_suite::ts_replica::{
    with_cluster, Cluster, ClusterConfig, FaultPlan, Message, MsgKind, QuorumBackend, RestartMode,
    WriteStamp,
};

/// Rotates single-replica partitions (always a minority for f >= 1)
/// until `done` flips, healing between victims.
fn churn_partitions(cluster: &Cluster, done: &AtomicBool) {
    let n = cluster.replicas();
    let mut victim = 0u32;
    while !done.load(Ordering::Relaxed) {
        cluster.router().partition(&[victim]);
        for _ in 0..50 {
            if done.load(Ordering::Relaxed) {
                break;
            }
            std::thread::yield_now();
        }
        cluster.router().heal();
        victim = (victim + 1) % n as u32;
        std::thread::yield_now();
    }
    cluster.router().heal();
}

/// Writer/reader storm on the replicated collect-max object while a
/// churn thread partitions and heals one replica at a time. Each
/// worker checks its own timestamps strictly increase; the armed
/// replica invariant checks no stored stamp ever regresses.
#[test]
fn collect_max_storm_survives_partition_heal_churn() {
    const THREADS: usize = 4;
    const OPS: usize = 300;
    let plan = FaultPlan {
        seed: 0xc0ffee,
        delay_max: 2,
        reorder: true,
        ..FaultPlan::default()
    };
    let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
    let ts = with_cluster(&cluster, || {
        CollectMax::<QuorumBackend>::with_backend(THREADS)
    });
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        s.spawn(|| churn_partitions(&cluster, &done));
        let handles: Vec<_> = (0..THREADS)
            .map(|pid| {
                let ts = &ts;
                s.spawn(move || {
                    let mut prev: Option<Timestamp> = None;
                    for _ in 0..OPS {
                        let t = ts.get_ts(pid).expect("pid in range");
                        if let Some(p) = prev {
                            assert!(
                                Timestamp::compare(&p, &t),
                                "p{pid}: timestamps regressed under churn: {p} !< {t}"
                            );
                        }
                        prev = Some(t);
                    }
                    prev.expect("ran ops")
                })
            })
            .collect();
        let finals: Vec<Timestamp> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        done.store(true, Ordering::Relaxed);
        // Every op went somewhere: the global maximum covers at least
        // the longest per-thread chain.
        let max = finals.iter().map(|t| t.rnd).max().unwrap();
        assert!(max >= OPS as u64, "global max {max} < per-thread op count");
    });

    assert!(
        cluster.quorum_rounds() > 0,
        "the storm ran through the quorum protocol"
    );
}

/// The stale-read regression: a minority replica is isolated, writes
/// are acknowledged without it, it heals — and every subsequent read,
/// from *every* rotation window (one fresh client thread per window),
/// must return the last acknowledged write, never the healed replica's
/// stale word.
#[test]
fn killed_and_healed_minority_never_causes_a_stale_read() {
    let cluster = Cluster::new(ClusterConfig::new(1).with_plan(FaultPlan {
        seed: 7,
        ..FaultPlan::default()
    }));
    let reg = cluster.alloc_register(0);
    let n = cluster.replicas();

    for round in 1..=20u64 {
        let victim = ((round as usize) % n) as u32;
        cluster.router().partition(&[victim]);
        let stamp = cluster.abd_write(reg, round);
        // The ack really excluded the victim: it is still behind.
        assert!(
            cluster.replica(victim as usize).stored(reg).0 < stamp,
            "round {round}: the isolated replica saw the write"
        );
        cluster.router().heal();

        // One reader per rotation window (fresh threads mint fresh
        // client ids, so collectively the windows cover every replica,
        // including the stale one).
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    let (read_stamp, word) = cluster.abd_read(reg);
                    assert_eq!(word, round, "stale read after heal");
                    assert!(read_stamp >= stamp);
                });
            }
        });
    }
    assert!(
        cluster.quorum_repairs() > 0,
        "healed replicas were brought forward by read-repair"
    );
}

/// Concurrent writers and readers on one replicated register under a
/// lossy, reordering network: each reader's observed stamp sequence
/// per register must be non-decreasing (reads take quorum maxima and
/// replicas never regress), and the final word must be one of the
/// written values.
#[test]
fn concurrent_register_storm_observes_monotone_stamps() {
    const WRITERS: usize = 3;
    const READERS: usize = 3;
    const OPS: u64 = 200;
    let plan = FaultPlan {
        seed: 99,
        drop_permille: 30,
        dup_permille: 20,
        delay_max: 2,
        reorder: true,
        ..FaultPlan::default()
    };
    let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
    let reg = cluster.alloc_register(0);
    let issued = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..WRITERS as u64 {
            let cluster = Arc::clone(&cluster);
            let issued = &issued;
            s.spawn(move || {
                for i in 1..=OPS {
                    // Distinct words per writer; low bits tag the writer.
                    cluster.abd_write(reg, i * WRITERS as u64 + w);
                    issued.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for _ in 0..READERS {
            let cluster = Arc::clone(&cluster);
            s.spawn(move || {
                let mut last = None;
                loop {
                    let (stamp, _) = cluster.abd_read(reg);
                    if let Some(prev) = last {
                        assert!(stamp >= prev, "reader saw stamps regress: {stamp} < {prev}");
                    }
                    last = Some(stamp);
                    if stamp.seq as u64 >= OPS {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
    });

    let (final_stamp, final_word) = cluster.abd_read(reg);
    // Sequence numbers grow by exactly one per successful install, so
    // the final stamp counts the writes that actually advanced the
    // register; concurrent writers may overwrite each other (last
    // writer wins) but the end state must be some writer's last word.
    assert!(final_stamp.seq as u64 >= OPS);
    assert!(
        final_word >= OPS * WRITERS as u64,
        "final word {final_word} is stale"
    );
}

/// Runs `work` while another thread crashes and wipe-restarts one
/// replica at a time, round robin, so at most one replica (never more
/// than `f`) is down. `work` starts after the first wipe-restart, and
/// the cycling stops only after two more cycles have ended once `work`
/// returns: at least one whole wipe, and its resync, follows the last
/// write.
fn with_wipe_cycling<R>(cluster: &Cluster, work: impl FnOnce() -> R) -> R {
    /// Stops the cycler however `work` ends, so a failing assert in it
    /// cannot leave the scope waiting on the cycler forever.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let cycles = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let cycler = s.spawn(|| {
            let n = cluster.replicas() as u64;
            while !done.load(Ordering::Relaxed) {
                let victim = (cycles.load(Ordering::Relaxed) % n) as u32;
                cluster.crash(victim);
                for _ in 0..20 {
                    std::thread::yield_now();
                }
                cluster.restart(victim, RestartMode::Wipe);
                cycles.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            }
        });
        let _stop = Stop(&done);
        // A cycler that panicked stops counting; the scope re-raises
        // its panic once this returns.
        let wait_for = |target: u64| {
            while cycles.load(Ordering::Relaxed) < target && !cycler.is_finished() {
                std::thread::yield_now();
            }
        };
        wait_for(1);
        let out = work();
        wait_for(cycles.load(Ordering::Relaxed) + 2);
        out
    })
}

/// The per-client quorum tallies and the per-register replica tallies
/// add up exactly under a lossy network and wipe cycling: every ABD
/// read is one phase plus one per repair and every write two, and every
/// `Write` a replica handled was either delivered by a client's lane
/// (seen by the step hook) or installed by a resync sweep.
#[test]
fn quorum_and_replica_tallies_count_every_phase_and_write() {
    const THREADS: usize = 4;
    const OPS: u64 = 300;
    let plan = FaultPlan {
        seed: 0x7a11,
        drop_permille: 50,
        dup_permille: 30,
        delay_max: 2,
        reorder: true,
        ..FaultPlan::default()
    };
    let cluster = Cluster::new(ClusterConfig::new(1).with_plan(plan));
    let shared = cluster.alloc_register(0);
    let own: Vec<u32> = (0..THREADS).map(|_| cluster.alloc_register(0)).collect();
    let write_deliveries = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&write_deliveries);
    cluster
        .router()
        .set_step_hook(Some(Box::new(move |msg: &Message| {
            if msg.kind == MsgKind::Write {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        })));
    let (reads, writes) = with_wipe_cycling(&cluster, || {
        std::thread::scope(|s| {
            let workers: Vec<_> = own
                .iter()
                .enumerate()
                .map(|(t, &mine)| {
                    let cluster = &cluster;
                    s.spawn(move || {
                        let (mut reads, mut writes) = (0u64, 0u64);
                        for i in 0..OPS {
                            let reg = if i % 2 == 0 { mine } else { shared };
                            if i % 3 == 0 {
                                cluster.abd_write(reg, i * THREADS as u64 + t as u64);
                                writes += 1;
                            } else {
                                cluster.abd_read(reg);
                                reads += 1;
                            }
                        }
                        (reads, writes)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker"))
                .fold((0, 0), |(r, w), (dr, dw)| (r + dr, w + dw))
        })
    });
    cluster.router().set_step_hook(None);

    assert_eq!(cluster.quorum_unavailable(), 0);
    assert_eq!(
        cluster.quorum_rounds(),
        reads + 2 * writes + cluster.quorum_repairs(),
        "{reads} reads, {writes} writes, {} repairs",
        cluster.quorum_repairs()
    );
    let handled: u64 = (0..cluster.replicas())
        .map(|r| cluster.replica(r).installs() + cluster.replica(r).stale_writes())
        .sum();
    assert!(
        cluster.resynced_registers() > 0,
        "a wipe after the writes resyncs"
    );
    assert_eq!(
        handled,
        write_deliveries.load(Ordering::Relaxed) + cluster.resynced_registers()
    );
    assert!(
        cluster.quorum_retries() > 0,
        "the lossy plan forced retries"
    );
}

/// Writers on distinct registers under wipe cycling, at f = 1 and
/// f = 2: after the join every writer's last acked write is held (at
/// its stamp or above) by `f + 1` replicas, and a quorum read returns
/// it. Each cluster runs on a helper thread, so a stuck quorum fails
/// here after a bounded wait rather than hanging.
#[test]
fn acked_writes_survive_wipe_cycling() {
    const WRITERS: usize = 3;
    const OPS: u64 = 200;
    for f in [1usize, 2] {
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let plan = FaultPlan {
                seed: 0x3170 + f as u64,
                drop_permille: 30,
                delay_max: 2,
                reorder: true,
                ..FaultPlan::default()
            };
            let cluster = Cluster::new(ClusterConfig::new(f).with_plan(plan));
            let regs: Vec<u32> = (0..WRITERS).map(|_| cluster.alloc_register(0)).collect();
            let last: Vec<(u32, WriteStamp, u64)> = with_wipe_cycling(&cluster, || {
                std::thread::scope(|s| {
                    let writers: Vec<_> = regs
                        .iter()
                        .map(|&reg| {
                            let cluster = &cluster;
                            s.spawn(move || {
                                let mut stamp = WriteStamp::INITIAL;
                                for word in 1..=OPS {
                                    stamp = cluster.abd_write(reg, word);
                                }
                                (reg, stamp, OPS)
                            })
                        })
                        .collect();
                    writers
                        .into_iter()
                        .map(|w| w.join().expect("writer"))
                        .collect()
                })
            });
            for (reg, stamp, word) in last {
                let holders = (0..cluster.replicas())
                    .filter(|&r| cluster.replica(r).stored(reg).0 >= stamp)
                    .count();
                assert!(
                    holders > f,
                    "f = {f}: register {reg}'s last acked write {stamp} is held by {holders} replicas"
                );
                assert_eq!(
                    cluster.abd_read(reg),
                    (stamp, word),
                    "f = {f}: register {reg}"
                );
            }
            tx.send(()).expect("main thread is waiting");
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => helper.join().expect("helper thread"),
            Err(RecvTimeoutError::Timeout) => {
                panic!("wipe cycling at f = {f}: not done in 60 s")
            }
            Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
                helper.join().expect_err("helper exits only after sending"),
            ),
        }
    }
}
