//! Algorithm 4 keeps its register contents in write-once call records,
//! not in epoch-reclaimed heap cells, so running it must leave the
//! epoch collector's deferred-garbage gauge where it was.
//!
//! The gauge is process-wide, which is why this file holds one test:
//! no other test in the binary can defer cells while it runs.

use timestamp_suite::ts_core::{BoundedTimestamp, OneShotTimestamp, Timestamp};
use timestamp_suite::ts_register::reclaim::deferred_outstanding;

const ROUNDS: usize = 1_000;
const PROCESSES: usize = 64;
const THREADS: usize = 2;

#[test]
fn oneshot_rounds_defer_no_epoch_garbage() {
    let start = deferred_outstanding();
    for _ in 0..ROUNDS {
        let ts = BoundedTimestamp::one_shot(PROCESSES);
        let stamps: Vec<Timestamp> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let ts = &ts;
                    s.spawn(move || {
                        (t..PROCESSES)
                            .step_by(THREADS)
                            .map(|pid| ts.get_ts(pid).expect("each pid calls once"))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker finished"))
                .collect()
        });
        assert_eq!(stamps.len(), PROCESSES);
    }
    let end = deferred_outstanding();
    assert!(
        end <= start,
        "{ROUNDS} one-shot rounds left {end} deferred cells outstanding (started at {start})"
    );
}
