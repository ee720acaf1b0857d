//! [`ClientSession`]: a virtual-pid client of the sharded service.

use ts_core::ShardedTimestamp;
use ts_register::{PackedBackend, RegisterBackend};

use crate::batch::ShardBatch;
use crate::service::ShardedCollectMax;

/// One client's handle on a [`ShardedCollectMax`].
///
/// A session is *identity plus floor*: a never-reused virtual pid, an
/// assigned shard, and the last stamp obtained. It owns no shared
/// memory — physical register slots are leased from the shard's pool
/// only while a call runs, which is how `M` sessions share
/// `shards * slots_per_shard` registers.
///
/// **Per-client monotonicity.** Every issuing method folds the floor
/// into the shard's reservation word before (or while) reserving, so
/// each stamp returned is strictly larger — in `(epoch, local)` and
/// hence in the full lexicographic order — than every stamp the session
/// returned before it, across batches and
/// [`migrate`](ClientSession::migrate) calls. Each method `debug_assert`s
/// the property on return.
///
/// Sessions are plain data over `&service`, so they can move into
/// scoped threads; a session itself is single-threaded (`&mut self`),
/// which matches the paper's model of one process issuing sequential
/// `getTS` calls.
#[derive(Debug)]
pub struct ClientSession<'a, B: RegisterBackend<u64> = PackedBackend> {
    service: &'a ShardedCollectMax<B>,
    vpid: u32,
    shard: usize,
    last: Option<ShardedTimestamp>,
}

impl<'a, B: RegisterBackend<u64>> ClientSession<'a, B> {
    pub(crate) fn new(service: &'a ShardedCollectMax<B>, vpid: u32, shard: usize) -> Self {
        Self {
            service,
            vpid,
            shard,
            last: None,
        }
    }

    /// This session's virtual pid (globally unique, never reused).
    pub fn vpid(&self) -> u32 {
        self.vpid
    }

    /// The shard this session currently issues from.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The session's floor: its most recent stamp, if any.
    pub fn last(&self) -> Option<ShardedTimestamp> {
        self.last
    }

    /// The packed floor word (`0` before the first stamp).
    fn floor(&self) -> u64 {
        self.last.map_or(0, |t| t.word())
    }

    /// Records a batch's top as the new floor and checks monotonicity
    /// against the old one.
    fn advance_floor(&mut self, batch: &ShardBatch) {
        let first = batch.first_stamp();
        if let Some(prev) = self.last {
            debug_assert!(
                ShardedTimestamp::compare(&prev, &first),
                "session {} lost monotonicity: {prev} !< {first}",
                self.vpid
            );
        }
        self.last = Some(batch.last_stamp());
    }

    /// Issues one stamp (one slot lease + one CAS + one register
    /// write), strictly above the session's floor.
    pub fn get_ts(&mut self) -> ShardedTimestamp {
        let batch = self.service.issue_batch(self.shard, self.floor(), 1);
        self.advance_floor(&batch);
        batch.first_stamp()
    }

    /// Reserves `k` consecutive stamps with one CAS. The whole batch is
    /// above the session's floor, and the floor advances to the batch's
    /// top — the batch is *owned*: its stamps count as issued to this
    /// client in order.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn get_ts_batch(&mut self, k: u32) -> ShardBatch {
        let batch = self.service.issue_batch(self.shard, self.floor(), k);
        self.advance_floor(&batch);
        batch
    }

    /// Moves the session to `shard`. The floor travels with the
    /// session: the next issue folds it into the new shard's word, so
    /// monotonicity holds across the migration even when the new shard
    /// is far behind the old one.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn migrate(&mut self, shard: usize) {
        assert!(
            shard < self.service.shards(),
            "shard {shard} out of range (service has {})",
            self.service.shards()
        );
        self.shard = shard;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;

    #[test]
    fn stamps_strictly_increase_across_modes_and_migrations() {
        let service = ShardedCollectMax::new(ServiceConfig::new(3, 2));
        let mut session = service.session();
        let mut stamps = vec![session.get_ts()];
        stamps.extend(session.get_ts_batch(5));
        for target in [2, 1, 0, 2] {
            session.migrate(target);
            assert_eq!(session.shard(), target);
            stamps.push(session.get_ts());
            stamps.extend(session.get_ts_batch(3));
        }
        for pair in stamps.windows(2) {
            assert!(
                ShardedTimestamp::compare(&pair[0], &pair[1]),
                "{} !< {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn migration_to_a_lagging_shard_folds_the_floor() {
        let service = ShardedCollectMax::new(ServiceConfig::new(2, 1));
        let mut session = service.session(); // shard 0
        service.raise_shard_floor(0, ShardedTimestamp::new(9, 0, 0));
        let high = session.get_ts();
        assert_eq!(high.epoch, 9);
        session.migrate(1); // shard 1 is still at (0, 0)
        let after = session.get_ts();
        assert_eq!(after.shard, 1);
        assert!(
            ShardedTimestamp::compare(&high, &after),
            "{high} !< {after}"
        );
        // The lagging shard's word was pulled up by the floor fold.
        assert_eq!(after.epoch, 9);
    }

    #[test]
    fn sessions_keep_distinct_vpids_and_floors() {
        let service = ShardedCollectMax::new(ServiceConfig::new(1, 2));
        let mut a = service.session();
        let mut b = service.session();
        assert_ne!(a.vpid(), b.vpid());
        assert_eq!(a.last(), None);
        let ta = a.get_ts();
        assert_eq!(a.last(), Some(ta));
        assert_eq!(b.last(), None, "floors are per-session");
        let tb = b.get_ts();
        assert_ne!(ta, tb);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn migrate_rejects_bad_shard() {
        let service = ShardedCollectMax::new(ServiceConfig::new(2, 1));
        service.session().migrate(2);
    }
}
