//! Output checks: the timestamp property on per-thread sequences and
//! on pairs of sampled ops, plus the seeded generator the op streams
//! come from.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ts_core::{ShardedTimestamp, Timestamp};

use crate::runner::Sample;

/// SplitMix64: one step of the seeded stream behind every op stream and
/// fault-plan seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for one purpose (`tag`) derived from the workload seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix(&mut s)
}

/// Order-preserving key of a `(rnd, turn)` stamp.
pub fn key(t: Timestamp) -> u128 {
    (u128::from(t.rnd) << 64) | u128::from(t.turn)
}

/// Inverse of [`key`].
pub fn timestamp(key: u128) -> Timestamp {
    Timestamp::new((key >> 64) as u64, key as u64)
}

/// Order-preserving key of a service stamp (lexicographic on
/// `(epoch, local, shard)`).
pub fn sharded_key(t: ShardedTimestamp) -> u128 {
    (u128::from(t.word()) << 32) | u128::from(t.shard)
}

/// The order one client has observed so far. A stamp must exceed every
/// stamp the client was issued earlier; a read must not fall below
/// anything the client saw earlier. (A stamp need not exceed an earlier
/// read: a scan may see a register written by a call that has not yet
/// returned, and the timestamp property does not order overlapping
/// calls.)
#[derive(Debug, Default, Clone, Copy)]
pub struct Floor {
    stamps: Option<u128>,
    all: Option<u128>,
}

fn raise(floor: &mut Option<u128>, v: u128) {
    *floor = Some(floor.map_or(v, |f| f.max(v)));
}

impl Floor {
    /// Admits stamps `lo..=hi`; false if they break the order.
    pub fn stamp(&mut self, lo: u128, hi: u128) -> bool {
        let ok = self.stamps.is_none_or(|f| lo > f);
        raise(&mut self.stamps, hi);
        raise(&mut self.all, hi);
        ok
    }

    /// Admits a read of `v`; false if it breaks the order.
    pub fn read(&mut self, v: u128) -> bool {
        let ok = self.all.is_none_or(|f| v >= f);
        raise(&mut self.all, v);
        ok
    }

    /// Records stamps a later read must cover, without checking them.
    pub fn note(&mut self, hi: u128) {
        raise(&mut self.all, hi);
    }
}

/// Counts samples that break the timestamp property against the
/// samples that responded before they were invoked: a read must not
/// fall below any of them, and (if `check_stamps`) a stamp must exceed
/// every earlier stamp. Sorting makes this equal to checking all pairs.
pub fn violations<'a>(
    group: impl IntoIterator<Item = &'a Sample>,
    is_read: impl Fn(&Sample) -> bool,
    check_stamps: bool,
) -> u64 {
    let mut by_resp: Vec<&Sample> = group.into_iter().collect();
    let mut by_inv = by_resp.clone();
    by_resp.sort_by_key(|s| s.resp);
    by_inv.sort_by_key(|s| s.inv);
    let mut done = by_resp.iter().peekable();
    let mut earlier = Floor::default();
    let mut bad = 0;
    for b in by_inv {
        while let Some(a) = done.next_if(|a| a.resp < b.inv) {
            if is_read(a) {
                earlier.note(a.hi);
            } else {
                earlier.stamp(a.lo, a.hi);
            }
        }
        // Check b against a copy: b itself is not earlier than later ops
        // until its response is passed above.
        let mut floor = earlier;
        let ok = if is_read(b) {
            floor.read(b.lo)
        } else {
            !check_stamps || floor.stamp(b.lo, b.hi)
        };
        bad += u64::from(!ok);
    }
    bad
}

/// All-pairs check with the paper's `compare`: for every pair where `a`
/// responded before `b` was invoked, `compare(a, b)` must hold.
pub fn all_pairs_violations(group: &[&Sample]) -> u64 {
    let mut bad = 0;
    for a in group {
        for b in group {
            if a.resp < b.inv && !Timestamp::compare(&timestamp(a.lo), &timestamp(b.lo)) {
                bad += 1;
            }
        }
    }
    bad
}

/// How long [`compare_ns`] times passes.
const COMPARE_FOR: Duration = Duration::from_millis(100);

/// Per-call cost of the paper's `compare`, for a workload whose object
/// has no read operation: each timed pass compares all ordered pairs of
/// the first 64 sampled stamps (4096 calls, far above the clock), and
/// the result is the fastest pass of those run in `COMPARE_FOR` after
/// the run. The fastest pass is the cost of `compare` itself; on a
/// shared host a median of a loop this tight moves with the neighbours.
pub fn compare_ns(samples: &[Sample]) -> Option<f64> {
    let stamps: Vec<Timestamp> = samples.iter().take(64).map(|s| timestamp(s.lo)).collect();
    let calls = (stamps.len() * stamps.len()) as f64;
    let start = Instant::now();
    let mut best = None::<f64>;
    while !stamps.is_empty() && start.elapsed() < COMPARE_FOR {
        let t = Instant::now();
        let mut ordered = 0u64;
        for a in black_box(&stamps) {
            for b in &stamps {
                ordered += u64::from(Timestamp::compare(a, b));
            }
        }
        black_box(ordered);
        let ns = t.elapsed().as_nanos() as f64 / calls;
        best = Some(best.map_or(ns, |b| b.min(ns)));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(inv: u64, resp: u64, stamp: u128) -> Sample {
        Sample {
            inv,
            resp,
            lo: stamp,
            hi: stamp,
            obj: 0,
            kind: 0,
        }
    }

    #[test]
    fn sweep_catches_a_stale_later_stamp() {
        let ok = [sample(0, 10, 5), sample(20, 30, 6), sample(5, 25, 1)];
        assert_eq!(
            violations(&ok, |_| false, true),
            0,
            "overlapping ops are free"
        );
        let bad = [sample(0, 10, 5), sample(20, 30, 5)];
        assert_eq!(violations(&bad, |_| false, true), 1);
        assert_eq!(
            violations(&bad, |s| s.resp == 30, true),
            0,
            "a read may equal"
        );
        assert_eq!(all_pairs_violations(&bad.iter().collect::<Vec<_>>()), 1);
    }

    #[test]
    fn a_stamp_need_not_exceed_an_earlier_read() {
        let read_then_stamp = [sample(0, 10, 9), sample(20, 30, 5)];
        assert_eq!(violations(&read_then_stamp, |s| s.resp == 10, true), 0);
        let stamp_then_read = [sample(0, 10, 9), sample(20, 30, 5)];
        assert_eq!(violations(&stamp_then_read, |s| s.resp == 30, true), 1);
    }

    #[test]
    fn floor_orders_stamps_strictly_and_reads_weakly() {
        let mut f = Floor::default();
        assert!(f.stamp(3, 3));
        assert!(f.read(3));
        assert!(!f.stamp(3, 3));
        assert!(f.stamp(4, 20));
        assert!(!f.read(19));
        let mut g = Floor::default();
        assert!(g.read(50));
        assert!(g.stamp(7, 7), "a stamp is not ordered after a read");
    }
}
