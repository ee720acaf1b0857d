//! Layer probes for the traced run: direct calls to one layer at a
//! time, so a moved end-to-end number can be traced to the layer that
//! moved it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ts_register::{PackedBackend, RegisterArray};
use ts_replica::{Cluster, ClusterConfig};

use crate::workloads::quorum_plan;

/// How long each probe measures.
const PROBE: Duration = Duration::from_millis(300);

/// Calls timed together, so each timed interval is far above the clock.
const BATCH: u64 = 64;

type Packed = RegisterArray<u64, PackedBackend>;

/// Runs every probe and inserts its metrics.
pub fn run(seed: u64, out: &mut BTreeMap<String, f64>) {
    let (read, write) = register_read_write();
    out.insert("register.read_ns".into(), read);
    out.insert("register.write_ns".into(), write);
    out.insert("snapshot.adaptive_scan_ns".into(), adaptive_scan());
    let (read, write) = abd(ClusterConfig::new(1).with_plan(quorum_plan(seed)));
    out.insert("replica.abd_read_ns".into(), read);
    out.insert("replica.abd_write_ns".into(), write);
    let (read, _) = abd(ClusterConfig::new(0));
    out.insert("replica.abd_read_f0_ns".into(), read);
}

/// Mean ns per call of `call`, over batches, for `PROBE` or until
/// `stop` is raised.
fn mean_ns(stop: Option<&AtomicBool>, mut call: impl FnMut(u64)) -> f64 {
    let (start, mut calls, mut i) = (Instant::now(), 0u64, 0u64);
    while start.elapsed() < PROBE && !stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
        for _ in 0..BATCH {
            call(i);
            i += 1;
        }
        calls += BATCH;
    }
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// A writer thread stores round-robin into the 64 registers while this
/// thread times something against the array; returns both means.
fn under_writer(array: &Packed, timed: impl FnOnce() -> f64) -> (f64, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            mean_ns(Some(&stop), |i| {
                array
                    .write((i % 64) as usize, i & u64::from(u32::MAX))
                    .expect("index within the array");
            })
        });
        let other = timed();
        stop.store(true, Ordering::Relaxed);
        (other, writer.join().expect("writer thread panicked"))
    })
}

/// `RegisterArray::read` and `RegisterArray::write` on a packed array of
/// 64 registers: one reader thread and one writer thread.
fn register_read_write() -> (f64, f64) {
    let array = Packed::new_packed(64, 0);
    under_writer(&array, || {
        mean_ns(None, |i| {
            black_box(
                array
                    .read((i % 64) as usize)
                    .expect("index within the array"),
            );
        })
    })
}

/// `ts_snapshot::adaptive_scan` of the same array under one writer.
fn adaptive_scan() -> f64 {
    let array = Packed::new_packed(64, 0);
    under_writer(&array, || {
        mean_ns(None, |_| {
            black_box(ts_snapshot::adaptive_scan(&array));
        })
    })
    .0
}

/// `Cluster::abd_read` and `Cluster::abd_write` on one register, from
/// one client.
fn abd(config: ClusterConfig) -> (f64, f64) {
    let cluster = Cluster::new(config);
    let reg = cluster.alloc_register(0);
    let write = mean_ns(None, |i| {
        black_box(cluster.abd_write(reg, i + 1));
    });
    let read = mean_ns(None, |_| {
        black_box(cluster.abd_read(reg));
    });
    (read, write)
}
