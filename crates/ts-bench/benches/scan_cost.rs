//! E8 — cost of the double-collect scan (Algorithm 4 line 13) vs array
//! size, quiescent and under a concurrent writer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ts_register::RegisterArray;
use ts_snapshot::adaptive_scan;

fn bench_quiescent(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan/quiescent");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for m in [8usize, 32, 128, 512] {
        let array: RegisterArray<u64> = RegisterArray::new(m, 0);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| std::hint::black_box(adaptive_scan(&array).0))
        });
    }
    group.finish();
}

fn bench_under_writer(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan/one_writer");
    group.sample_size(15);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for m in [8usize, 32, 128] {
        let array = Arc::new(RegisterArray::new(m, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let array = Arc::clone(&array);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    array.write((k as usize) % m, k).unwrap();
                    k += 1;
                    std::thread::yield_now();
                }
            })
        };
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| std::hint::black_box(adaptive_scan(&array).0))
        });
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
    group.finish();
}

criterion_group!(benches, bench_quiescent, bench_under_writer);
criterion_main!(benches);
