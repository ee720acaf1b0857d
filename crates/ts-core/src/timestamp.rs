//! Timestamps and the `compare` method (Algorithm 3).

use std::fmt;

/// A timestamp `(rnd, turn)` as returned by Algorithm 4.
///
/// `compare` (Algorithm 3 of the paper) orders timestamps
/// lexicographically without accessing shared memory:
/// `(rnd1, turn1) < (rnd2, turn2)` iff `rnd1 < rnd2`, or `rnd1 = rnd2`
/// and `turn1 < turn2`.
///
/// Timestamps of the other algorithms in this crate (sums, counter
/// values) are embedded as `(value, 0)` so that every implementation
/// returns the same public type.
///
/// # Example
///
/// ```
/// use ts_core::Timestamp;
///
/// let a = Timestamp::new(2, 1);
/// let b = Timestamp::new(3, 0);
/// assert!(Timestamp::compare(&a, &b));
/// assert!(!Timestamp::compare(&b, &a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Timestamp {
    /// The phase/round number.
    pub rnd: u64,
    /// The turn within the round (0 for round-opening timestamps).
    pub turn: u64,
}

impl Timestamp {
    /// Creates a timestamp with the given round and turn.
    pub fn new(rnd: u64, turn: u64) -> Self {
        Self { rnd, turn }
    }

    /// Embeds a scalar timestamp (from the simple or collect-max
    /// algorithms) as `(value, 0)`.
    pub fn scalar(value: u64) -> Self {
        Self {
            rnd: value,
            turn: 0,
        }
    }

    /// Algorithm 3: `compare((rnd1, turn1), (rnd2, turn2))`.
    ///
    /// Returns `(rnd1 < rnd2) ∨ ((rnd1 = rnd2) ∧ (turn1 < turn2))`.
    /// No shared memory is accessed.
    ///
    /// Computed as one comparison of the `rnd << 64 | turn` words, which
    /// order exactly like the formula and compile without a
    /// data-dependent branch.
    pub fn compare(t1: &Timestamp, t2: &Timestamp) -> bool {
        t1.word() < t2.word()
    }

    /// The `rnd << 64 | turn` word whose order is Algorithm 3's.
    fn word(&self) -> u128 {
        u128::from(self.rnd) << 64 | u128::from(self.turn)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.rnd, self.turn)
    }
}

/// A sharded-service timestamp `(epoch, local, shard)` as issued by
/// `ts-service`'s `ShardedCollectMax`.
///
/// The service partitions the timestamp space into `S` independent
/// shards, each advancing its own packed `(epoch, local)` word. Stamps
/// are ordered **lexicographically** by `(epoch, local, shard)`:
///
/// - `epoch` is the shard epoch — a coarse phase counter that only
///   advances (on administrative rebalances, on per-epoch `local`
///   exhaustion, and when a migrating client folds a higher-epoch floor
///   into its new shard);
/// - `local` is the stamp index within `(epoch, shard)`, reserved by a
///   single CAS on the shard word and hence unique per shard;
/// - `shard` is the issuing shard — a tie-breaker that makes the order
///   *total* on issued stamps: `(epoch, local)` pairs can coincide
///   across shards, the full triple cannot.
///
/// This is the same shape as a distributed register's
/// `(seqno, client_id)` timestamp: lexicographic order over a counter
/// plus an origin id. The order is total, antisymmetric and transitive
/// on the type (it is exactly the derived [`Ord`]), which the proptest
/// suite in `tests/service_properties.rs` checks alongside per-client
/// monotonicity across shard migrations.
///
/// **What the order means.** Within one shard, non-overlapping `getTS`
/// calls are ordered exactly as [`Timestamp`] calls on a `CollectMax`
/// are. *Across* shards, the service guarantees the timestamp property
/// **per client**: each client carries its last stamp as a floor, and
/// every later stamp it obtains — on any shard, after any migration —
/// is strictly larger. Two different clients on different shards whose
/// calls never exchange a floor are ordered only by the (arbitrary but
/// total) lexicographic rule; that relaxation is what lets the shard
/// words scale independently instead of racing on one global maximum.
///
/// # Example
///
/// ```
/// use ts_core::ShardedTimestamp;
///
/// let a = ShardedTimestamp::new(1, 9, 3);
/// let b = ShardedTimestamp::new(2, 0, 0);
/// assert!(ShardedTimestamp::compare(&a, &b)); // epoch dominates
/// let c = ShardedTimestamp::new(2, 0, 1);
/// assert!(ShardedTimestamp::compare(&b, &c)); // shard tie-breaks
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ShardedTimestamp {
    /// The shard epoch (monotone, coarse).
    pub epoch: u32,
    /// The stamp index within `(epoch, shard)` (unique per shard).
    pub local: u32,
    /// The issuing shard (tie-breaker; makes issued stamps unique).
    pub shard: u32,
}

impl ShardedTimestamp {
    /// Creates a stamp with the given epoch, local index and shard.
    pub fn new(epoch: u32, local: u32, shard: u32) -> Self {
        Self {
            epoch,
            local,
            shard,
        }
    }

    /// Lexicographic comparison, shared-memory-free like
    /// [`Timestamp::compare`]: `(e1, l1, s1) < (e2, l2, s2)`.
    pub fn compare(t1: &ShardedTimestamp, t2: &ShardedTimestamp) -> bool {
        t1 < t2
    }

    /// The packed `epoch << 32 | local` word the service shards CAS on.
    /// Word order equals `(epoch, local)` order, which is why a single
    /// `fetch_max`/CAS on the word implements the floor fold.
    pub fn word(&self) -> u64 {
        (u64::from(self.epoch) << 32) | u64::from(self.local)
    }

    /// Rebuilds a stamp from a packed shard word plus the issuing shard.
    pub fn from_word(word: u64, shard: u32) -> Self {
        Self {
            epoch: (word >> 32) as u32,
            local: word as u32,
            shard,
        }
    }

    /// Embeds the ordered `(epoch, local)` prefix as a flat
    /// [`Timestamp`] for consumers that only understand pairs (the
    /// workload engine's per-worker monotonicity asserts). The shard
    /// tie-breaker is dropped: per-client stamp sequences strictly
    /// increase in `(epoch, local)` alone, so the embedding preserves
    /// exactly the order those asserts rely on.
    pub fn flatten(&self) -> Timestamp {
        Timestamp::new(u64::from(self.epoch), u64::from(self.local))
    }
}

impl fmt::Display for ShardedTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})@s{}", self.epoch, self.local, self.shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_is_lexicographic() {
        assert!(Timestamp::compare(
            &Timestamp::new(1, 9),
            &Timestamp::new(2, 0)
        ));
        assert!(Timestamp::compare(
            &Timestamp::new(2, 0),
            &Timestamp::new(2, 1)
        ));
        assert!(!Timestamp::compare(
            &Timestamp::new(2, 1),
            &Timestamp::new(2, 0)
        ));
    }

    #[test]
    fn compare_is_irreflexive() {
        let t = Timestamp::new(4, 2);
        assert!(!Timestamp::compare(&t, &t));
    }

    #[test]
    fn compare_agrees_with_derived_ord() {
        for (a, b) in [
            (Timestamp::new(0, 0), Timestamp::new(0, 1)),
            (Timestamp::new(1, 5), Timestamp::new(2, 0)),
            (Timestamp::new(3, 3), Timestamp::new(3, 3)),
        ] {
            assert_eq!(Timestamp::compare(&a, &b), a < b);
        }
    }

    #[test]
    fn compare_agrees_with_the_paper_formula() {
        let paper =
            |a: &Timestamp, b: &Timestamp| (a.rnd < b.rnd) || (a.rnd == b.rnd && a.turn < b.turn);
        let values = [0, 1, 2, u64::MAX - 1, u64::MAX];
        let stamps: Vec<Timestamp> = values
            .iter()
            .flat_map(|&rnd| values.iter().map(move |&turn| Timestamp::new(rnd, turn)))
            .collect();
        for a in &stamps {
            // Equal pairs: irreflexive.
            assert!(!Timestamp::compare(a, a), "{a} < {a}");
            for b in &stamps {
                assert_eq!(Timestamp::compare(a, b), paper(a, b), "{a} vs {b}");
            }
        }
        // Equal rnd: the turn decides, also at the top of its range.
        let (lo, hi) = (Timestamp::new(5, u64::MAX - 1), Timestamp::new(5, u64::MAX));
        assert!(Timestamp::compare(&lo, &hi) && !Timestamp::compare(&hi, &lo));
        // rnd dominates a maximal turn.
        let (a, b) = (
            Timestamp::new(u64::MAX - 1, u64::MAX),
            Timestamp::new(u64::MAX, 0),
        );
        assert!(Timestamp::compare(&a, &b) && !Timestamp::compare(&b, &a));
    }

    #[test]
    fn scalar_embedding_orders_by_value() {
        assert!(Timestamp::compare(
            &Timestamp::scalar(1),
            &Timestamp::scalar(2)
        ));
        assert!(!Timestamp::compare(
            &Timestamp::scalar(2),
            &Timestamp::scalar(2)
        ));
    }

    #[test]
    fn display_formats_pair() {
        assert_eq!(Timestamp::new(3, 1).to_string(), "(3, 1)");
    }

    #[test]
    fn sharded_compare_is_lexicographic_with_shard_tiebreak() {
        let cases = [
            (
                ShardedTimestamp::new(1, 9, 9),
                ShardedTimestamp::new(2, 0, 0),
            ),
            (
                ShardedTimestamp::new(2, 0, 5),
                ShardedTimestamp::new(2, 1, 0),
            ),
            (
                ShardedTimestamp::new(2, 1, 0),
                ShardedTimestamp::new(2, 1, 1),
            ),
        ];
        for (a, b) in cases {
            assert!(ShardedTimestamp::compare(&a, &b), "{a} !< {b}");
            assert!(!ShardedTimestamp::compare(&b, &a), "{b} < {a}");
        }
        let t = ShardedTimestamp::new(3, 3, 3);
        assert!(!ShardedTimestamp::compare(&t, &t), "irreflexive");
    }

    #[test]
    fn sharded_word_round_trips_and_orders_like_the_pair() {
        let a = ShardedTimestamp::new(7, 42, 3);
        assert_eq!(ShardedTimestamp::from_word(a.word(), 3), a);
        let b = ShardedTimestamp::new(8, 0, 3);
        // Word order must equal (epoch, local) order — the fetch_max
        // floor fold depends on it.
        assert!(a.word() < b.word());
        let c = ShardedTimestamp::new(7, 43, 3);
        assert!(a.word() < c.word() && c.word() < b.word());
    }

    #[test]
    fn flatten_preserves_epoch_local_order() {
        let a = ShardedTimestamp::new(1, 9, 2);
        let b = ShardedTimestamp::new(2, 0, 0);
        assert!(Timestamp::compare(&a.flatten(), &b.flatten()));
        assert!(!Timestamp::compare(&b.flatten(), &a.flatten()));
    }

    #[test]
    fn sharded_display_shows_shard() {
        assert_eq!(ShardedTimestamp::new(2, 7, 1).to_string(), "(2, 7)@s1");
    }
}
