//! The repository benchmark: four closed-loop `getTS` workloads on the
//! public object APIs, with end-to-end metrics from an untraced run and
//! per-layer metrics from a traced run. See `README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--selftest]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only if every check passed; with `--selftest`, only if the sampled
//! cross-thread checks caught the broken object.

mod check;
mod host;
mod probes;
mod runner;
mod workloads;

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::process::ExitCode;

use ts_core::{BoundedTimestamp, BrokenStaleRead};

use runner::{measure, prepare, PhaseOut, Streams, Workload};
use workloads::{LonglivedLocal, OneshotRounds, QuorumFaults, ServiceSessions};

const WORKLOADS: [&str; 4] = [
    "longlived_local",
    "oneshot_rounds",
    "service_sessions",
    "quorum_faults",
];

/// End-to-end metrics (untraced run): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("stamps_per_s", "stamps/s"),
    ("getts_p50_ns", "ns"),
    ("getts_p99_ns", "ns"),
    ("read_p50_ns", "ns"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run): name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("register.read_ns", "ns"),
    ("register.write_ns", "ns"),
    ("register.reads_per_op", "reads/op"),
    ("register.writes_per_op", "writes/op"),
    ("snapshot.adaptive_scan_ns", "ns"),
    ("snapshot.recollects_per_scan", "recollects/scan"),
    ("core.collect_max_get_ts_ns", "ns"),
    ("core.read_max_scan_ns", "ns"),
    ("core.fast_hit_ratio", "share"),
    ("core.bounded_get_ts_ns", "ns"),
    ("core.oneshot_registers", "registers"),
    ("core.oneshot_rounds", "rounds"),
    ("service.get_ts_ns", "ns"),
    ("service.get_ts_batch_ns", "ns"),
    ("service.read_max_snapshot_ns", "ns"),
    ("service.fast_hit_ratio", "share"),
    ("service.lease_waits_per_call", "waits/call"),
    ("service.recollects_per_snapshot", "recollects/snap"),
    ("service.shard_imbalance", "max/mean"),
    ("replica.get_ts_ns", "ns"),
    ("replica.read_max_scan_ns", "ns"),
    ("replica.read_max_scan_p99_ns", "ns"),
    ("replica.abd_read_ns", "ns"),
    ("replica.abd_write_ns", "ns"),
    ("replica.abd_read_f0_ns", "ns"),
    ("replica.rounds_per_op", "rounds/op"),
    ("replica.retries_per_op", "retries/op"),
    ("replica.msgs_per_op", "msgs/op"),
    ("replica.dropped_per_op", "dropped/op"),
    ("replica.repair_ratio", "share"),
    ("replica.restart_ms", "ms"),
    ("replica.resynced_registers", "count"),
    ("bench.timer_ns", "ns"),
    ("bench.loop_ns", "ns"),
    ("bench.trace_overhead", "ratio"),
];

/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 41;

/// Length of the traced slice of each other workload in a traced run.
const SLICE_SECONDS: f64 = 0.5;

const USAGE: &str = "usage: perfbench --workload <longlived_local|oneshot_rounds|service_sessions|\
quorum_faults> --seed <n> --seconds <s> --trace <0|1> [--selftest]";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut argv = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace, mut selftest) =
            (None, None, None, None, false);
        while let Some(flag) = argv.next() {
            if flag == "--selftest" {
                selftest = true;
                continue;
            }
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *WORKLOADS
                            .iter()
                            .find(|w| **w == value)
                            .ok_or(format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(1.0..=600.0).contains(&seconds) {
            return Err(format!("--seconds must be within 1..=600, not {seconds}"));
        }
        let args = Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            selftest,
        };
        if args.selftest && (args.workload != "oneshot_rounds" || args.trace) {
            return Err("--selftest runs only with --workload oneshot_rounds --trace 0".into());
        }
        Ok(args)
    }
}

fn phase_of<'s, W: Workload + 's>(
    streams: &'s Streams,
    make: impl Fn(&'s Streams) -> W,
    seconds: f64,
    trace: bool,
    setups: usize,
    seed: u64,
) -> PhaseOut {
    let (setup_s, prepared) = prepare(streams, make, seconds, setups, seed);
    measure(prepared, setup_s, trace)
}

/// One measured phase of a workload. Its op streams are generated from
/// the seed before set-up, which borrows them.
fn phase(workload: &str, args: &Args, seconds: f64, trace: bool, setups: usize) -> PhaseOut {
    let seed = args.seed;
    match workload {
        "longlived_local" => {
            let streams = LonglivedLocal::streams(seed);
            phase_of(&streams, LonglivedLocal::new, seconds, trace, setups, seed)
        }
        "oneshot_rounds" => {
            let streams = OneshotRounds::<BoundedTimestamp>::streams(seed);
            if args.selftest {
                let make = |s| OneshotRounds::new(s, trace, BrokenStaleRead::new);
                phase_of(&streams, make, seconds, trace, setups, seed)
            } else {
                let make = |s| OneshotRounds::new(s, trace, BoundedTimestamp::one_shot);
                phase_of(&streams, make, seconds, trace, setups, seed)
            }
        }
        "service_sessions" => {
            let streams = ServiceSessions::streams(seed);
            phase_of(&streams, ServiceSessions::new, seconds, trace, setups, seed)
        }
        "quorum_faults" => {
            let streams = QuorumFaults::streams(seed);
            let make = |s| QuorumFaults::new(seed, s);
            phase_of(&streams, make, seconds, trace, setups, seed)
        }
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// What the run prints as its result.
struct Report {
    metrics: BTreeMap<String, f64>,
    /// Metrics taken from another workload's slice: name and workload.
    borrowed: BTreeMap<String, &'static str>,
    attempted: u64,
    failed: u64,
    violations: u64,
    problems: Vec<String>,
}

fn untraced(args: &Args, timer_ns: f64) -> (Report, Vec<&'static str>) {
    let out = phase(args.workload, args, args.seconds, false, SETUPS);
    println!(
        "  medians over {} of {} windows; the rest lost CPU time to the hypervisor",
        out.quiet_windows, out.windows
    );
    let mut metrics = BTreeMap::new();
    let mut unresolved = Vec::new();
    // A latency timed one call at a time is unresolved below twice the
    // cost of the clock reads around it.
    for (name, value) in [
        ("getts_p50_ns", out.get_p50_ns),
        ("getts_p99_ns", out.get_p99_ns),
        ("read_p50_ns", out.read_p50_ns),
    ] {
        if let Some(v) = value {
            if v < 2.0 * timer_ns {
                unresolved.push(name);
            }
            metrics.insert(name.to_string(), v);
        }
    }
    let mut put = |name: &str, value: Option<f64>| {
        if let Some(v) = value {
            metrics.insert(name.to_string(), v);
        }
    };
    put("read_p50_ns", out.compare_ns);
    put("setup_s", Some(out.setup_s));
    put("ops_per_s", Some(out.ops_per_s));
    put("stamps_per_s", Some(out.stamps_per_s));
    put(
        "ok_share",
        Some(1.0 - out.failed as f64 / out.attempted.max(1) as f64),
    );
    put("peak_rss_mb", out.peak_rss_mb);
    let report = Report {
        metrics,
        borrowed: BTreeMap::new(),
        attempted: out.attempted,
        failed: out.failed,
        violations: out.violations,
        problems: out.problems,
    };
    (report, unresolved)
}

fn traced(args: &Args, timer_ns: f64) -> Report {
    let half = args.seconds / 2.0;
    let plain = phase(args.workload, args, half, false, 1);
    let main = phase(args.workload, args, half, true, 1);
    let mut metrics = main.layer;
    metrics.insert("bench.timer_ns".into(), timer_ns);
    metrics.insert(
        "bench.trace_overhead".into(),
        main.ops_per_s / plain.ops_per_s.max(f64::MIN_POSITIVE),
    );
    let (mut attempted, mut failed) =
        (plain.attempted + main.attempted, plain.failed + main.failed);
    let mut violations = plain.violations + main.violations;
    let mut problems: Vec<String> = plain.problems.into_iter().chain(main.problems).collect();
    // The result must carry every per-layer metric. Those of layers this
    // workload does not call come from a short traced slice of a
    // workload that does, and are marked as borrowed in the text table;
    // this workload's own values win.
    let mut borrowed = BTreeMap::new();
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let slice = phase(other, args, SLICE_SECONDS, true, 1);
        for (name, value) in slice.layer {
            if let Entry::Vacant(slot) = metrics.entry(name) {
                borrowed.insert(slot.key().clone(), *other);
                slot.insert(value);
            }
        }
        violations += slice.violations;
        attempted += slice.attempted;
        failed += slice.failed;
        problems.extend(
            slice
                .problems
                .into_iter()
                .map(|p| format!("{other} slice: {p}")),
        );
    }
    probes::run(args.seed, &mut metrics);
    Report {
        metrics,
        borrowed,
        attempted,
        failed,
        violations,
        problems,
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let timer_ns = host::timer_ns();
    println!(
        "host {}",
        host::fingerprint(args.workload, args.seed, timer_ns)
    );
    let (mut report, unresolved, wanted) = if args.trace {
        (traced(&args, timer_ns), Vec::new(), PER_LAYER)
    } else {
        let (report, unresolved) = untraced(&args, timer_ns);
        (report, unresolved, END_TO_END)
    };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        match report.metrics.get(name) {
            Some(v) if v.is_finite() => {
                let note = if unresolved.contains(&name) {
                    "  (unresolved: below 2x bench.timer_ns)".to_string()
                } else if let Some(other) = report.borrowed.get(name) {
                    format!("  (from the {other} slice)")
                } else {
                    String::new()
                };
                println!("  {name:<34} {v:>16.3} {unit}{note}");
                fields.push(format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    host::json_str(name),
                    host::json_str(unit)
                ));
            }
            _ => report
                .problems
                .push(format!("metric {name} was not measured")),
        }
    }
    let correct = report.problems.is_empty();
    for p in &report.problems {
        println!("  FAILED: {p}");
    }
    println!(
        "  correct: {correct} ({} of {} ops failed)",
        report.failed, report.attempted
    );
    // The self-test passes only if the cross-thread checks on the samples
    // catch the broken object by themselves, whatever the per-thread and
    // register-count checks found.
    let passed = if args.selftest {
        let caught = report.violations > 0;
        println!(
            "  selftest: BrokenStaleRead in place of the one-shot object; the sampled \
             real-time checks found {} violations: {}",
            report.violations,
            if caught { "caught" } else { "MISSED" }
        );
        caught
    } else {
        correct
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
