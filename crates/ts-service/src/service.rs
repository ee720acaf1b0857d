//! [`ShardedCollectMax`]: the sharded, batched timestamp service.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use ts_core::{ServiceStats, ShardedTimestamp, VpidAllocator};
use ts_register::{PackedBackend, RegisterBackend, SpaceMeter};

use crate::batch::ShardBatch;
use crate::session::ClientSession;
use crate::shard::Shard;
use crate::ServiceConfig;

/// A long-lived timestamp *service* over `S` independent shard domains.
///
/// Each shard issues stamps from its own packed `(epoch, local)` word
/// and owns its own bank of `n` single-writer registers — the
/// [`CollectMax`](ts_core::CollectMax) substrate, partitioned. Issued
/// stamps are [`ShardedTimestamp`] triples, totally ordered
/// lexicographically; the service guarantees the timestamp property
/// *per client* (see the crate docs for exactly what is traded away,
/// and why that trade is what escapes the single contended maximum the
/// paper's Ω(n) objects all share).
///
/// Clients interact through [`ClientSession`]s
/// ([`session`](ShardedCollectMax::session)): a session carries a
/// never-reused virtual pid, its assigned shard and its floor (last
/// stamp), and borrows a physical register slot only while a call
/// runs — `M` sessions multiplex over `shards * slots_per_shard`
/// registers.
///
/// # Example
///
/// ```
/// use ts_service::{ServiceConfig, ShardedCollectMax};
///
/// let service = ShardedCollectMax::new(ServiceConfig::new(2, 4));
/// let mut a = service.session();
/// let mut b = service.session();
/// let (ta, tb) = (a.get_ts(), b.get_ts());
/// assert_ne!(ta, tb, "issued stamps are globally unique");
/// let stats = service.stats();
/// assert_eq!(stats.calls, 2);
/// assert_eq!(stats.stamps, 2);
/// ```
pub struct ShardedCollectMax<B: RegisterBackend<u64> = PackedBackend> {
    shards: Vec<Shard<B>>,
    config: ServiceConfig,
    vpids: VpidAllocator,
    scan_recollects: AtomicU64,
}

impl ShardedCollectMax<PackedBackend> {
    /// Creates a service on the default word-inlined register backend.
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_backend(config)
    }
}

impl<B: RegisterBackend<u64>> ShardedCollectMax<B> {
    /// Creates a service with `config.shards` domains of
    /// `config.slots_per_shard` registers each, on backend `B`.
    pub fn with_backend(config: ServiceConfig) -> Self {
        // Re-validate: the config fields are public.
        let config = ServiceConfig::new(config.shards, config.slots_per_shard);
        Self {
            shards: (0..config.shards)
                .map(|_| Shard::new(config.slots_per_shard))
                .collect(),
            config,
            vpids: VpidAllocator::new(),
            scan_recollects: AtomicU64::new(0),
        }
    }

    /// The shape this service was built with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Number of shard domains.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// Physical registers across all shards
    /// (`shards * slots_per_shard * 2`: an `(epoch, local)` pair per
    /// slot) — the service's register space, independent of how many
    /// sessions exist.
    pub fn registers(&self) -> usize {
        self.config.registers()
    }

    /// The backend label (for bench reports).
    pub fn backend_name(&self) -> &'static str {
        B::NAME
    }

    /// Mints a new client session, assigned round-robin (by vpid) to a
    /// shard. Sessions are cheap: a vpid, a shard index and a floor —
    /// no per-session shared memory.
    pub fn session(&self) -> ClientSession<'_, B> {
        let vpid = self.vpids.next();
        let shard = (vpid as usize) % self.config.shards;
        ClientSession::new(self, vpid, shard)
    }

    /// Sessions minted so far.
    pub fn sessions(&self) -> u32 {
        self.vpids.issued()
    }

    /// A shard's reservation frontier as a stamp (`None` while the
    /// shard has issued nothing). Administrative/diagnostic.
    pub fn shard_frontier(&self, shard: usize) -> Option<ShardedTimestamp> {
        let word = self.shards[shard].word();
        (word > 0).then(|| ShardedTimestamp::from_word(word, shard as u32))
    }

    /// Administratively raises a shard's floor: afterwards every stamp
    /// the shard issues exceeds `floor` in `(epoch, local)`. This is
    /// the rebalance hook (fold a retiring shard's frontier into its
    /// successor) and the test hook for driving a shard toward `local`
    /// exhaustion.
    pub fn raise_shard_floor(&self, shard: usize, floor: ShardedTimestamp) {
        self.shards[shard].raise_floor(floor.word());
    }

    /// Read-only observation pass: collects every shard's register bank
    /// and returns the largest *published* stamp (`None` before any
    /// publication). Lower-bounds the reservation frontiers — an
    /// in-flight reservation is visible here only once its issuer's
    /// register write lands.
    pub fn read_max(&self) -> Option<ShardedTimestamp> {
        let mut best: Option<ShardedTimestamp> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some(word) = shard.collect_max_word() {
                let t = ShardedTimestamp::from_word(word, i as u32);
                if best.is_none_or(|b| b < t) {
                    best = Some(t);
                }
            }
        }
        best
    }

    /// Validated observation pass — the sharded sibling of the
    /// adaptive scan ladder in `ts-snapshot`. A plain [`read_max`]
    /// collect can interleave with publications; this variant repeats
    /// each frontier collect until two consecutive passes agree, and a
    /// retry re-collects **only the shards whose published maximum
    /// moved** (per-shard published maxima are monotone — every
    /// publication writes the top of a frontier reservation that
    /// strictly exceeds all earlier ones on that shard — so a stable
    /// per-shard max pins that shard for the whole bracket). Retry
    /// passes are counted into the `dirty_recollects` field of
    /// [`stats`](Self::stats).
    ///
    /// [`read_max`]: Self::read_max
    pub fn read_max_snapshot(&self) -> Option<ShardedTimestamp> {
        let mut words: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.collect_max_word().unwrap_or(0))
            .collect();
        // Dirty set: shards whose max moved since the previous pass.
        let mut dirty: Vec<usize> = (0..self.shards.len()).collect();
        loop {
            let mut moved = Vec::new();
            for &i in &dirty {
                let now = self.shards[i].collect_max_word().unwrap_or(0);
                if now != words[i] {
                    words[i] = now;
                    moved.push(i);
                }
            }
            if moved.is_empty() {
                break;
            }
            self.scan_recollects.fetch_add(1, Ordering::Relaxed);
            dirty = moved;
        }
        let best = words
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(i, &w)| ShardedTimestamp::from_word(w, i as u32))
            .max();
        best
    }

    /// A shard's register-traffic meter (space accounting, same
    /// substrate as [`CollectMax::meter`](ts_core::CollectMax::meter)).
    pub fn meter(&self, shard: usize) -> &SpaceMeter {
        self.shards[shard].meter()
    }

    /// Snapshot of the unified hot-path counters: the sum of every
    /// slot's tally (exact once the issuing threads are joined).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = ServiceStats {
            lease_waits: self.shards.iter().map(|s| s.pool.waits()).sum(),
            dirty_recollects: self.scan_recollects.load(Ordering::Relaxed),
            ..Default::default()
        };
        for shard in &self.shards {
            let mut stamps = 0;
            for t in shard.pool.cells.iter().map(|cell| &cell.tally) {
                let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
                stats.calls += get(&t.calls);
                stats.fast_hits += get(&t.fast_hits);
                stats.batches += get(&t.batches);
                stats.batched_stamps += get(&t.batched_stamps);
                stamps += get(&t.stamps);
            }
            stats.stamps += stamps;
            stats.shard_stamps.push(stamps);
        }
        stats
    }

    /// Issues `k` stamps on `shard` above `floor` (a packed word, `0`
    /// for none): leases a slot, reserves with one CAS, publishes the
    /// top to the leased register. Sessions call this; it is the
    /// single-stamp path too (`k == 1`).
    pub(crate) fn issue_batch(&self, shard: usize, floor: u64, k: u32) -> ShardBatch {
        assert!(k >= 1, "batch size must be at least 1");
        let sh = &self.shards[shard];
        let lease = sh.pool.lease();
        let res = sh.get_batch(lease.slot(), floor, u64::from(k));
        drop(lease);
        ShardBatch::new(res.first, res.last, shard as u32)
    }
}

impl<B: RegisterBackend<u64>> fmt::Debug for ShardedCollectMax<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedCollectMax")
            .field("backend", &B::NAME)
            .field("config", &self.config)
            .field("sessions", &self.vpids.issued())
            .field("calls", &self.stats().calls)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_register::EpochBackend;

    #[test]
    fn sessions_round_robin_over_shards() {
        let service = ShardedCollectMax::new(ServiceConfig::new(3, 1));
        let shards: Vec<usize> = (0..6).map(|_| service.session().shard()).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(service.sessions(), 6);
    }

    #[test]
    fn issued_stamps_land_in_stats_and_read_max() {
        let service = ShardedCollectMax::new(ServiceConfig::new(2, 2));
        let mut s0 = service.session(); // shard 0
        let mut s1 = service.session(); // shard 1
        s0.get_ts();
        let batch = s1.get_ts_batch(4);
        assert_eq!(batch.len(), 4);
        let stats = service.stats();
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.stamps, 5);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_stamps, 4);
        assert_eq!(stats.shard_stamps, vec![1, 4]);
        assert_eq!(stats.fast_hit_ratio(), Some(1.0), "uncontended = all fast");
        // Shard 1 published local 4 — the global max.
        let max = service.read_max().expect("stamps were published");
        assert_eq!((max.local, max.shard), (4, 1));
    }

    #[test]
    fn shard_stamps_follow_migrating_sessions() {
        let service = ShardedCollectMax::new(ServiceConfig::new(3, 2));
        let mut sessions: Vec<_> = (0..4).map(|_| service.session()).collect();
        let mut issued = vec![0u64; 3];
        for round in 0..6 {
            for (j, s) in sessions.iter_mut().enumerate() {
                s.migrate((round + j) % 3);
                let stamps: Vec<_> = if j % 2 == 0 {
                    vec![s.get_ts(), s.get_ts()]
                } else {
                    s.get_ts_batch(1 + j as u32).collect()
                };
                for t in stamps {
                    issued[t.shard as usize] += 1;
                }
            }
        }
        let stats = service.stats();
        assert_eq!(stats.shard_stamps, issued);
        assert_eq!(stats.stamps, issued.iter().sum::<u64>());
        // Per 6 rounds: sessions 0 and 2 make 2 calls, 1 and 3 one batch.
        assert_eq!(stats.calls, 6 * 6);
        assert_eq!((stats.batches, stats.batched_stamps), (12, 6 * (2 + 4)));
        assert_eq!(stats.fast_hits, stats.calls, "uncontended = all fast");
    }

    #[test]
    fn validated_snapshot_agrees_with_read_max_when_quiescent() {
        let service = ShardedCollectMax::new(ServiceConfig::new(3, 2));
        assert_eq!(service.read_max_snapshot(), None, "nothing published yet");
        let mut sessions: Vec<_> = (0..3).map(|_| service.session()).collect();
        for s in &mut sessions {
            s.get_ts();
            s.get_ts();
        }
        let snap = service.read_max_snapshot().expect("stamps were published");
        assert_eq!(Some(snap), service.read_max());
        // Quiescent validation: the confirming pass saw no movement.
        assert_eq!(service.stats().dirty_recollects, 0);
    }

    #[test]
    fn raise_shard_floor_pushes_the_frontier() {
        let service = ShardedCollectMax::new(ServiceConfig::new(1, 1));
        let floor = ShardedTimestamp::new(5, 10, 0);
        service.raise_shard_floor(0, floor);
        assert_eq!(service.shard_frontier(0), Some(floor));
        let mut s = service.session();
        let t = s.get_ts();
        assert_eq!((t.epoch, t.local), (5, 11));
    }

    #[test]
    fn epoch_backend_service_issues_identically() {
        let service: ShardedCollectMax<EpochBackend> =
            ShardedCollectMax::with_backend(ServiceConfig::new(2, 1));
        assert_eq!(service.backend_name(), "epoch");
        let mut s = service.session();
        let a = s.get_ts();
        let b = s.get_ts();
        assert!(ShardedTimestamp::compare(&a, &b));
        assert_eq!(service.stats().stamps, 2);
    }

    #[test]
    fn meters_record_register_traffic() {
        let service = ShardedCollectMax::new(ServiceConfig::new(1, 2));
        let mut s = service.session();
        s.get_ts();
        assert!(service.meter(0).snapshot().total_writes() >= 1);
    }
}
