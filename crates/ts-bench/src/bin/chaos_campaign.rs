//! `chaos_campaign` — the crash-stop chaos acceptance harness.
//!
//! Runs the robustness acceptance properties as one reproducible
//! campaign grid and records the evidence in `CAMPAIGN_chaos.json`:
//!
//! | cell | target | campaign | acceptance property |
//! |---|---|---|---|
//! | `random_minority` | `replicated_f1` (infallible) | [`FaultSchedule::random`] — seeded, availability-preserving | with at most `f` replicas down, throughput stays nonzero and **no** op exhausts its deadline |
//! | `majority_outage` | `replicated_try_f1` (fallible, short deadline) | hand-written: crash 2 of 3, then heal | ops through the outage return `Unavailable` **within the step deadline** (probed directly), never hang; service recovers after heal |
//! | `heal_resync` | `replicated_f1` | crash one replica, wipe-restart it | the rejoin resync rebuilds the wiped replica and the armed per-replica monotonic-stamp assert stays quiet — no timestamp regression across recovery |
//! | `determinism` | `replicated_f1`, single-threaded | the same seeded random schedule, twice | both runs apply every event at the **same op count** and finish with identical op/round counters |
//!
//! Every cell runs under the engine's liveness watchdog, so a hang is
//! a diagnosed failure, not a wedged process. Cells assert their
//! property in-process — a violated property fails the binary — and
//! the JSON file carries the measured numbers for review.
//!
//! Flags: `--threads N` (default 4), `--seed S` (default `0x5EED`),
//! `--smoke` shrinks op budgets ~10x for CI, `--out PATH` relocates
//! the results file (`-` skips).

use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;

use ts_bench::Table;
use ts_replica::{ClusterConfig, ReplicatedCollectMax};
use ts_workloads::{
    run_scenario_with, Arrival, Campaign, CampaignShape, EngineOptions, FaultEvent, FaultSchedule,
    OpMix, ReplicatedTryRegisters, RunConfig, Scenario, ScenarioReport, TimedFault, WorkloadTarget,
};

/// One campaign cell's recorded evidence.
#[derive(Debug, Clone, Serialize)]
struct ChaosCell {
    name: &'static str,
    object: String,
    threads: usize,
    ops: u64,
    throughput_ops_per_sec: f64,
    p999_ns: u64,
    quorum_timeouts: u64,
    quorum_degraded: u64,
    quorum_unavailable: u64,
    resynced_registers: u64,
    wipes: u64,
    /// Wall time spent in restart resync sweeps and heals.
    recovery_ms: f64,
    events_applied: usize,
    /// Majority-outage cell only: client-local steps one doomed op
    /// burned before returning `Unavailable` (must be <= the deadline).
    outage_probe_steps: Option<u64>,
    /// Determinism cell only: both seeded runs matched event-for-event.
    deterministic: Option<bool>,
}

/// The file schema of `CAMPAIGN_chaos.json`.
#[derive(Debug, Serialize)]
struct CampaignFile {
    schema: String,
    seed: u64,
    smoke: bool,
    host_threads: usize,
    cells: Vec<ChaosCell>,
}

struct Config {
    threads: usize,
    seed: u64,
    smoke: bool,
    out: Option<String>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        threads: 4,
        seed: 0x5EED,
        smoke: false,
        out: Some("CAMPAIGN_chaos.json".to_string()),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let v = args.next().expect("--threads takes a value");
                cfg.threads = v.parse().expect("--threads takes a number");
                assert!(cfg.threads >= 2, "--threads must be >= 2");
            }
            "--seed" => {
                let v = args.next().expect("--seed takes a value");
                cfg.seed = v.parse().expect("--seed takes a number");
            }
            "--smoke" => cfg.smoke = true,
            "--out" => {
                let v = args.next().expect("--out takes a path");
                cfg.out = if v == "-" { None } else { Some(v) };
            }
            other => panic!(
                "unknown flag {other} (expected --threads N | --seed S | --smoke | --out PATH)"
            ),
        }
    }
    cfg
}

fn closed_getts(name: &'static str) -> Scenario {
    Scenario {
        name,
        arrival: Arrival::ClosedLoop,
        mix: OpMix::get_ts_only(),
        churn: None,
    }
}

fn run(
    target: &dyn WorkloadTarget,
    scenario: &Scenario,
    run_cfg: &RunConfig,
    campaign: &Arc<Campaign>,
) -> ScenarioReport {
    let opts = EngineOptions {
        campaign: Some(Arc::clone(campaign)),
        watchdog: Some(Duration::from_secs(30)),
    };
    run_scenario_with(target, scenario, run_cfg, &opts)
}

fn cell(
    name: &'static str,
    report: &ScenarioReport,
    campaign: &Campaign,
    stats: &ts_core::ServiceStats,
) -> ChaosCell {
    let cluster = campaign.cluster();
    let wipes = (0..cluster.replicas())
        .map(|i| cluster.replica(i).wipes())
        .sum();
    ChaosCell {
        name,
        object: report.object.to_string(),
        threads: report.threads,
        ops: report.counts.total(),
        throughput_ops_per_sec: report.throughput_ops_per_sec,
        p999_ns: report.latency.percentile(99.9),
        quorum_timeouts: stats.quorum_timeouts,
        quorum_degraded: stats.quorum_degraded,
        quorum_unavailable: stats.quorum_unavailable,
        resynced_registers: cluster.resynced_registers(),
        wipes,
        recovery_ms: campaign.repair_time().as_secs_f64() * 1e3,
        events_applied: campaign.applied().len(),
        outage_probe_steps: None,
        deterministic: None,
    }
}

fn main() {
    let cfg = parse_args();
    let ops_per_thread: u64 = if cfg.smoke { 200 } else { 2_000 };
    let total = cfg.threads as u64 * ops_per_thread;
    let run_cfg = RunConfig {
        threads: cfg.threads,
        ops_per_thread,
        seed: cfg.seed,
    };
    let mut cells: Vec<ChaosCell> = Vec::new();

    // random_minority: a seeded availability-preserving campaign —
    // crashes, partitions, stalls, never more than f replicas
    // unreachable — against the infallible replicated collect-max.
    {
        let target = ReplicatedCollectMax::new(cfg.threads, 1, "replicated_f1");
        let schedule = FaultSchedule::random(
            cfg.seed,
            &CampaignShape {
                f: 1,
                threads: cfg.threads,
                total_ops: total,
                events: 8,
            },
        );
        let campaign = Campaign::new(Arc::clone(target.cluster()), schedule, cfg.threads);
        let report = run(
            &target,
            &closed_getts("random_minority"),
            &run_cfg,
            &campaign,
        );
        let stats = target.service_stats().expect("replicated stats");
        assert_eq!(
            report.counts.total(),
            total,
            "every op completed through the campaign"
        );
        assert!(report.throughput_ops_per_sec > 0.0);
        assert_eq!(
            stats.quorum_unavailable, 0,
            "an availability-preserving campaign must never exhaust a deadline"
        );
        cells.push(cell("random_minority", &report, &campaign, &stats));
    }

    // majority_outage: 2 of 3 replicas crash mid-run; the fallible
    // client keeps completing ops as counted, deadline-bounded
    // failures. A direct probe during a fresh outage measures the
    // bound exactly.
    {
        let deadline = 2_048;
        let target = ReplicatedTryRegisters::with_config(
            cfg.threads,
            ClusterConfig::new(1).with_deadline(deadline),
            "replicated_try_f1",
        );
        let schedule = FaultSchedule::new(vec![
            TimedFault {
                at_op: total * 3 / 10,
                event: FaultEvent::Crash { replica: 0 },
            },
            TimedFault {
                at_op: total * 45 / 100,
                event: FaultEvent::Crash { replica: 2 },
            },
            TimedFault {
                at_op: total * 65 / 100,
                event: FaultEvent::Restart {
                    replica: 0,
                    wipe: false,
                },
            },
            TimedFault {
                at_op: total * 3 / 4,
                event: FaultEvent::Restart {
                    replica: 2,
                    wipe: true,
                },
            },
        ]);
        let campaign = Campaign::new(Arc::clone(target.cluster()), schedule, cfg.threads);
        let report = run(
            &target,
            &closed_getts("majority_outage"),
            &run_cfg,
            &campaign,
        );
        let stats = target.service_stats().expect("replicated stats");
        assert_eq!(
            report.counts.total(),
            total,
            "outage ops complete (as failures), they never hang"
        );
        assert!(
            stats.quorum_unavailable > 0,
            "the majority outage surfaced Unavailable"
        );
        assert!(
            target.cluster().resynced_registers() > 0,
            "the wiped replica resynced on rejoin"
        );
        // Probe the deadline bound directly on a fresh outage.
        let cluster = target.cluster();
        cluster.crash(0);
        cluster.crash(2);
        let err = cluster
            .try_abd_write(0, u64::MAX)
            .expect_err("no quorum exists");
        // The deadline check runs between retry rounds, so the op may
        // finish the round in flight before giving up — the bound is
        // the deadline plus one round of per-replica probes.
        assert!(
            err.steps <= err.deadline + cluster.replicas() as u64,
            "Unavailable returned within the step deadline: {err:?}"
        );
        cluster.restart(0, ts_replica::RestartMode::Retain);
        cluster.restart(2, ts_replica::RestartMode::Retain);
        let mut c = cell("majority_outage", &report, &campaign, &stats);
        c.outage_probe_steps = Some(err.steps);
        cells.push(c);
    }

    // heal_resync: one replica crash-stops and rejoins from an empty
    // disk. The resync sweep rebuilds it from the live majority; the
    // per-replica monotonic-stamp assert is armed across the restart,
    // so a stamp regression would panic the run.
    {
        let target = ReplicatedCollectMax::new(cfg.threads, 1, "replicated_f1");
        let schedule = FaultSchedule::new(vec![
            TimedFault {
                at_op: total * 3 / 10,
                event: FaultEvent::Crash { replica: 1 },
            },
            TimedFault {
                at_op: total * 7 / 10,
                event: FaultEvent::Restart {
                    replica: 1,
                    wipe: true,
                },
            },
        ]);
        let campaign = Campaign::new(Arc::clone(target.cluster()), schedule, cfg.threads);
        let report = run(&target, &closed_getts("heal_resync"), &run_cfg, &campaign);
        let stats = target.service_stats().expect("replicated stats");
        assert!(campaign.fully_applied(), "crash and wipe-restart fired");
        assert!(
            target.cluster().resynced_registers() > 0,
            "resync rebuilt the wiped replica"
        );
        assert_eq!(target.cluster().replica(1).wipes(), 1);
        assert_eq!(stats.quorum_unavailable, 0, "minority loss stays available");
        cells.push(cell("heal_resync", &report, &campaign, &stats));
    }

    // determinism: the same seeded random campaign twice,
    // single-threaded so op-threshold crossings are exact. Both runs
    // must apply every event at the same op count and end with the
    // same counters — chaos results are replayable evidence, not
    // flaky observations.
    {
        let single = RunConfig {
            threads: 1,
            ops_per_thread: total.min(1_000),
            seed: cfg.seed,
        };
        let shape = CampaignShape {
            f: 1,
            threads: 1,
            total_ops: single.ops_per_thread,
            events: 6,
        };
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let target = ReplicatedCollectMax::new(1, 1, "replicated_f1");
            let schedule = FaultSchedule::random(cfg.seed, &shape);
            let campaign = Campaign::new(Arc::clone(target.cluster()), schedule, 1);
            let report = run(&target, &closed_getts("determinism"), &single, &campaign);
            let applied: Vec<(usize, u64)> = campaign
                .applied()
                .iter()
                .map(|a| (a.index, a.at_op))
                .collect();
            outcomes.push((
                applied,
                report.counts.total(),
                target.cluster().quorum_rounds(),
                report,
                campaign,
                target,
            ));
        }
        let (a, b) = (&outcomes[0], &outcomes[1]);
        assert_eq!(a.0, b.0, "applied logs diverged between identical runs");
        assert_eq!(a.1, b.1, "op counts diverged");
        assert_eq!(a.2, b.2, "quorum round counts diverged");
        let stats = a.5.service_stats().expect("replicated stats");
        let mut c = cell("determinism", &a.3, &a.4, &stats);
        c.deterministic = Some(true);
        cells.push(c);
    }

    let mut table = Table::new(
        "chaos_campaign — crash-stop fault campaigns: acceptance evidence",
        &[
            "cell",
            "object",
            "threads",
            "ops",
            "ops/sec",
            "p999 ns",
            "unavail",
            "timeouts",
            "resynced",
            "recovery ms",
        ],
    );
    for c in &cells {
        table.push_row(vec![
            c.name.to_string(),
            c.object.clone(),
            c.threads.to_string(),
            c.ops.to_string(),
            format!("{:.0}", c.throughput_ops_per_sec),
            c.p999_ns.to_string(),
            c.quorum_unavailable.to_string(),
            c.quorum_timeouts.to_string(),
            c.resynced_registers.to_string(),
            format!("{:.3}", c.recovery_ms),
        ]);
    }
    if ts_bench::json_mode() {
        for c in &cells {
            println!("{}", serde_json::to_string(c).expect("cells serialize"));
        }
    } else {
        table.emit();
    }
    ts_bench::note(
        "acceptance: minority campaigns keep throughput nonzero with zero Unavailable;\n\
         the majority outage fails ops within the step deadline and recovers after heal;\n\
         wipe-restarts resync before serving (armed monotonic asserts stay quiet); the\n\
         same seed replays the same campaign event-for-event.",
    );

    if let Some(path) = &cfg.out {
        let file = CampaignFile {
            schema: "ts-bench/chaos_campaign/v1".to_string(),
            seed: cfg.seed,
            smoke: cfg.smoke,
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cells,
        };
        let json = serde_json::to_string(&file).expect("cells serialize");
        std::fs::write(path, json + "\n").expect("write results file");
        ts_bench::note(format!("campaign evidence written to {path}"));
    }
}
