//! Conformance of every workload target to the seam's contract: report
//! labels, replay granularity, the `Compare`→`GetTs` and `Scan`→`GetTs`
//! substitutions, whether `last_ts` reports outputs, and the number of
//! sub-steps one gated `GetTs` announces (which must keep matching the
//! model twins the checked-in traces were recorded from).

use ts_apps::{FcfsLock, KExclusion};
use ts_core::{
    ArrayLayout, BoundedTimestamp, BrokenCounter, CollectMax, EpochBackend, PackedBackend,
    SimpleOneShot, StepGate,
};
use ts_replica::ReplicatedCollectMax;
use ts_service::{IssueMode, ServiceConfig};
use ts_workloads::{
    CollectMaxFast, GrowableWorkload, HelpingScanWorkload, OneShotPool, QuorumTsCrashTarget,
    QuorumTsTarget, ReplayGranularity, ReplicatedTryRegisters, ServiceTarget, WorkloadOp,
    WorkloadTarget,
};

use ReplayGranularity::{MemoryAccess, Op};
use WorkloadOp::{Compare, GetTs, Scan};

/// One target, driven at one slot, and what it must do there.
struct Row {
    make: fn() -> Box<dyn WorkloadTarget>,
    slot: usize,
    object: &'static str,
    backend: &'static str,
    granularity: ReplayGranularity,
    /// What a `Scan` on a fresh worker runs (`GetTs` without an
    /// observer).
    scan: WorkloadOp,
    /// What a `Compare` runs once the worker holds two stamps (`None`:
    /// the slot supports one op only).
    paired_compare: Option<WorkloadOp>,
    /// Whether `last_ts` reports the stamp of a `GetTs`.
    reports: bool,
    /// Sub-steps one gated `GetTs` announces, op-start pause included.
    gated_steps: u64,
}

fn simple_pool() -> OneShotPool<SimpleOneShot> {
    OneShotPool::new(
        "simple_oneshot",
        "packed",
        2,
        4,
        Box::new(|| SimpleOneShot::<PackedBackend>::with_backend(2)),
    )
}

fn rows() -> Vec<Row> {
    let issuer = |make, slot, object, backend, granularity, reports, gated_steps| Row {
        make,
        slot,
        object,
        backend,
        granularity,
        scan: Scan,
        paired_compare: Some(Compare),
        reports,
        gated_steps,
    };
    vec![
        // 1 op start + n = 3 reads + 1 write.
        issuer(
            || Box::new(CollectMax::new(3)),
            0,
            "collect_max",
            "packed",
            MemoryAccess,
            true,
            5,
        ),
        issuer(
            || Box::new(CollectMax::<EpochBackend>::with_backend(2)),
            1,
            "collect_max",
            "epoch",
            MemoryAccess,
            true,
            4,
        ),
        issuer(
            || {
                Box::new(CollectMax::<PackedBackend>::with_layout(
                    2,
                    ArrayLayout::Compact,
                ))
            },
            0,
            "collect_max",
            "packed_unpadded",
            MemoryAccess,
            true,
            4,
        ),
        issuer(
            || Box::new(CollectMaxFast::<PackedBackend>::new(2)),
            0,
            "collect_max_fast",
            "packed",
            MemoryAccess,
            true,
            4,
        ),
        issuer(
            || Box::new(GrowableWorkload::new()),
            0,
            "growable",
            "epoch",
            Op,
            true,
            1,
        ),
        Row {
            scan: GetTs,
            ..issuer(
                || Box::new(simple_pool()),
                1,
                "simple_oneshot",
                "packed",
                Op,
                false,
                1,
            )
        },
        issuer(
            || {
                let hook = Box::new(|obj: &SimpleOneShot| {
                    std::hint::black_box(obj.observed_sum());
                });
                Box::new(simple_pool().with_scan(hook))
            },
            0,
            "simple_oneshot",
            "packed",
            Op,
            false,
            1,
        ),
        Row {
            scan: GetTs,
            ..issuer(
                || {
                    let make = Box::new(|| BoundedTimestamp::one_shot(2));
                    Box::new(OneShotPool::new("bounded_oneshot", "epoch", 2, 4, make))
                },
                0,
                "bounded_oneshot",
                "epoch",
                Op,
                false,
                1,
            )
        },
        // 1 op start + read + write; one GetTs per slot.
        Row {
            scan: GetTs,
            paired_compare: None,
            ..issuer(
                || Box::new(BrokenCounter::new(2)),
                1,
                "broken_counter",
                "word",
                MemoryAccess,
                true,
                3,
            )
        },
        issuer(
            || Box::new(FcfsLock::<PackedBackend>::new(2)),
            0,
            "fcfs_lock",
            "packed",
            Op,
            false,
            1,
        ),
        issuer(
            || Box::new(FcfsLock::<EpochBackend>::with_backend(2)),
            0,
            "fcfs_lock",
            "epoch",
            Op,
            false,
            1,
        ),
        issuer(
            || Box::new(KExclusion::<PackedBackend>::new(3, 2)),
            1,
            "k_exclusion",
            "packed",
            Op,
            false,
            1,
        ),
        // 1 op start + 2 reads + 2 installs (f = 1).
        issuer(
            || Box::new(QuorumTsTarget::new(1, 1)),
            0,
            "quorum_ts",
            "quorum",
            MemoryAccess,
            true,
            5,
        ),
        issuer(
            || Box::new(QuorumTsTarget::new(2, 1)),
            1,
            "quorum_ts",
            "quorum",
            MemoryAccess,
            true,
            5,
        ),
        issuer(
            || Box::new(QuorumTsTarget::broken(2, 1)),
            0,
            "quorum_ts_broken",
            "quorum",
            MemoryAccess,
            true,
            4,
        ),
        issuer(
            || Box::new(QuorumTsCrashTarget::new(2, 1)),
            0,
            "quorum_ts_crash",
            "quorum",
            MemoryAccess,
            true,
            5,
        ),
        issuer(
            || Box::new(ReplicatedCollectMax::new(2, 1, "replicated_f1")),
            1,
            "replicated_f1",
            "quorum",
            MemoryAccess,
            true,
            4,
        ),
        issuer(
            || {
                let config = ServiceConfig::new(2, 2);
                Box::new(ServiceTarget::new(
                    "sharded_s2_single",
                    config,
                    IssueMode::Single,
                ))
            },
            0,
            "sharded_s2_single",
            "packed",
            Op,
            false,
            1,
        ),
        issuer(
            || {
                let config = ServiceConfig::new(1, 1);
                Box::new(ServiceTarget::new(
                    "sharded_s1_batch16",
                    config,
                    IssueMode::Batch(16),
                ))
            },
            0,
            "sharded_s1_batch16",
            "packed",
            Op,
            false,
            1,
        ),
        // Role workers. A storm writer: 1 op start + distress read +
        // 2 collect reads + store.
        Row {
            scan: GetTs,
            ..issuer(
                || Box::new(HelpingScanWorkload::for_replay(3)),
                1,
                "helping_scan",
                "packed",
                MemoryAccess,
                true,
                5,
            )
        },
        // A fallible register client: every non-scan op is a write.
        Row {
            paired_compare: Some(GetTs),
            ..issuer(
                || Box::new(ReplicatedTryRegisters::new(2, 1, "try_f1")),
                0,
                "try_f1",
                "quorum",
                Op,
                false,
                1,
            )
        },
    ]
}

#[test]
fn every_target_keeps_the_seam_contract() {
    for row in rows() {
        let at = format!("{} slot {}", row.object, row.slot);
        let target = (row.make)();
        assert_eq!(target.object(), row.object, "{at}");
        assert_eq!(target.backend(), row.backend, "{at}");
        assert!(target.slots() > row.slot, "{at}");
        assert_eq!(target.replay_granularity(), row.granularity, "{at}");

        let mut w = target.worker(row.slot);
        assert_eq!(w.step(Scan), row.scan, "{at}: Scan");
        drop(w);

        let target = (row.make)();
        let mut w = target.worker(row.slot);
        assert_eq!(w.step(Compare), GetTs, "{at}: Compare before two stamps");
        assert_eq!(w.last_ts().is_some(), row.reports, "{at}: last_ts");
        if let Some(paired) = row.paired_compare {
            assert_eq!(w.step(GetTs), GetTs, "{at}");
            assert_eq!(w.step(Compare), paired, "{at}: Compare after two stamps");
        }

        let target = (row.make)();
        let gate = StepGate::new();
        gate.release_all();
        let mut w = target.worker(row.slot);
        w.step_gated(GetTs, &gate);
        assert_eq!(
            gate.progress().announced,
            row.gated_steps,
            "{at}: gated GetTs"
        );
    }
}

/// `GetTs` under a gate announces its sub-steps one release at a time:
/// the worker never runs ahead of the controller.
#[test]
fn gated_getts_waits_for_each_release() {
    let obj = CollectMax::new(3);
    let gate = StepGate::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            obj.worker(0).step_gated(GetTs, &gate);
            gate.finish();
        });
        for _ in 0..5 {
            gate.release_next(std::time::Duration::from_secs(10))
                .unwrap();
        }
    });
    assert_eq!(gate.progress().announced, 5);
    assert_eq!(obj.calls(), 1);
}
