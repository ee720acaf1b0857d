//! Host fingerprint, timer calibration and peak memory.

use std::fs;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::runner::median;

/// Cost of one `Instant::now()` pair in ns: the median of several
/// timed runs of back-to-back pairs.
pub fn timer_ns() -> f64 {
    const PAIRS: u32 = 20_000;
    let mut runs: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..PAIRS {
                black_box(Instant::now());
                black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    median(&mut runs).expect("nine runs")
}

/// This process's peak resident memory in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host's CPU time so far, in clock ticks, from the first line of
/// `/proc/stat`: time stolen by the hypervisor, and all time.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Resets the peak resident memory to the current resident memory, so
/// that earlier peaks (set-up, stream generation) are forgotten. Where
/// the kernel does not allow it, the peak keeps them.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory; an exported tree has none.
fn git_commit() -> String {
    let read = |p: &str| fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "none (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|c| c.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host fingerprint printed with every result, so numbers from
/// different hosts are never compared.
pub fn fingerprint(workload: &str, seed: u64, timer_ns: f64) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"cpus\": {cpus}, \"cpu_model\": {}, \
         \"timer_ns\": {timer_ns}, \"rustc\": {}, \"commit\": {}}}",
        json_str(workload),
        json_str(&cpu_model()),
        json_str(&rustc_version()),
        json_str(&git_commit()),
    )
}
