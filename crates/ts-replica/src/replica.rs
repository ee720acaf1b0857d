//! One quorum replica: its `(stamp, word)` per register plus the
//! message handlers.
//!
//! A replica is passive — it owns no thread. Whoever pumps the router
//! (or takes the fault-free direct path) applies `Replica::handle`
//! inline, under the lock of the one cell the message addresses.
//! Handlers are pure state transitions: request in, reply out.
//!
//! # Layout: per-register cells
//!
//! A cluster's replicas share one `Cells` index, laid out
//! register-major: each register owns one block holding all `2f + 1`
//! replicas' cells for it, and blocks are at least 128 bytes
//! apart. A cell is the replica's `(stamp, word)` for the register plus
//! its install/stale tallies, under the cell's own lock. So a handler
//! touches only the lines of the register it addresses, and two clients
//! contend only when they address the same register. Blocks live in
//! chunks that double in size, allocated as registers are; a lookup by
//! register id computes its chunk and takes no lock.
//!
//! # The monotonic-register invariant
//!
//! The load-bearing safety property (the `MonotoneRegister` of
//! `dist-register`, and the reason ABD read-repair is linearizable):
//! **a replica's stored stamp for a register never decreases**. Every
//! install re-checks it via debug-independent
//! runtime assertions — not `debug_assert!` — so stress tests and
//! fault schedules keep it armed in release builds too.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::proto::{Message, MsgKind, WriteStamp};

/// Registers in the index's first chunk; chunk `k` holds
/// `FIRST_CHUNK << k` of them.
const FIRST_CHUNK: usize = 4;

/// Chunks enough for every `u32` register id:
/// `FIRST_CHUNK * (2^CHUNKS - 1) >= 2^32`.
const CHUNKS: usize = 31;

/// The least distance between two registers' blocks, so that traffic
/// on different registers does not share a cache line (or the line the
/// adjacent-line prefetcher pairs with it).
const BLOCK_BYTES: usize = 128;

/// Failed lock attempts a waiter spins through before it starts
/// yielding its CPU to a possibly preempted holder.
const SPINS: u32 = 64;

/// One replica's state for one register: the highest-stamped write
/// seen, and what the handlers did with the writes that reached it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    stamp: WriteStamp,
    word: u64,
    /// Writes/installs that advanced the slot.
    installs: u64,
    /// Stale writes ignored (incoming stamp not above stored).
    stale: u64,
}

/// A [`Slot`] under its own lock: a flag that a handler holds for the
/// few loads and stores of one message. A flag, not a `Mutex`: building
/// the first chunk's 16 `Mutex`es cost about 150 ns per cluster, while
/// a chunk of these all-zero cells costs about 25. The fields are
/// atomics only so that a cell needs no `unsafe`: each is read and
/// written only by the flag's holder (or the word by `Cells::alloc`,
/// before the register's id is handed out), and the flag's
/// `Acquire`/`Release` orders successive holders. All-zero is the fresh `(INITIAL, 0)`
/// slot.
#[derive(Debug, Default)]
struct Cell {
    locked: AtomicBool,
    seq: AtomicU32,
    writer: AtomicU32,
    word: AtomicU64,
    installs: AtomicU64,
    stale: AtomicU64,
}

/// Holds a [`Cell`]'s flag; releases it when dropped (also when a
/// handler panics, so one failed assert cannot wedge the cell).
struct Held<'a>(&'a Cell);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.locked.store(false, Ordering::Release);
    }
}

impl Cell {
    fn lock(&self) -> Held<'_> {
        let mut fails = 0u32;
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            fails += 1;
            if fails < SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        Held(self)
    }

    /// Runs `f` on the slot under the cell's lock, storing back the
    /// fields it changed (none if it panics). A reader stores nothing,
    /// so it cannot undo the unlocked word store of `Cells::alloc`.
    fn with<R>(&self, f: impl FnOnce(&mut Slot) -> R) -> R {
        let _held = self.lock();
        let old = Slot {
            stamp: WriteStamp {
                seq: self.seq.load(Ordering::Relaxed),
                writer: self.writer.load(Ordering::Relaxed),
            },
            word: self.word.load(Ordering::Relaxed),
            installs: self.installs.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
        };
        let mut slot = old;
        let out = f(&mut slot);
        if slot.stamp != old.stamp {
            self.seq.store(slot.stamp.seq, Ordering::Relaxed);
            self.writer.store(slot.stamp.writer, Ordering::Relaxed);
        }
        if slot.word != old.word {
            self.word.store(slot.word, Ordering::Relaxed);
        }
        if slot.installs != old.installs {
            self.installs.store(slot.installs, Ordering::Relaxed);
        }
        if slot.stale != old.stale {
            self.stale.store(slot.stale, Ordering::Relaxed);
        }
        out
    }
}

/// The register-major cell index shared by a cluster's replicas; see
/// the module docs.
pub(crate) struct Cells {
    replicas: usize,
    /// Cells per register block: one per replica, padded so blocks are
    /// at least [`BLOCK_BYTES`] apart.
    stride: usize,
    /// Registers allocated so far.
    len: AtomicU32,
    /// Append-only: chunk `k`, a leaked `Box<[Cell]>` of `chunk_len(k)`
    /// cells, is installed once, by the first allocation of one of its
    /// registers, and freed only by `drop`. Plain pointers rather than
    /// `OnceLock`s: building and dropping 31 `OnceLock`s added about
    /// 50 ns to every cluster, as much as the rest of an empty one.
    chunks: [AtomicPtr<Cell>; CHUNKS],
}

/// The chunk holding register `reg`, and the register's block index in
/// that chunk.
fn locate(reg: u32) -> (usize, usize) {
    let r = reg as usize + FIRST_CHUNK;
    let k = (r / FIRST_CHUNK).ilog2() as usize;
    (k, r - (FIRST_CHUNK << k))
}

impl Cells {
    /// An index for `replicas` replicas with no registers yet (no chunk
    /// is allocated before the first register is).
    pub(crate) fn new(replicas: usize) -> Self {
        Self {
            replicas,
            stride: replicas.max(BLOCK_BYTES.div_ceil(std::mem::size_of::<Cell>())),
            len: AtomicU32::new(0),
            chunks: [const { AtomicPtr::new(ptr::null_mut()) }; CHUNKS],
        }
    }

    /// Cells in chunk `k`.
    fn chunk_len(&self, k: usize) -> usize {
        (FIRST_CHUNK << k) * self.stride
    }

    /// Chunk `k`, if it is installed.
    fn chunk(&self, k: usize) -> Option<&[Cell]> {
        let cells = self.chunks[k].load(Ordering::Acquire);
        // SAFETY: a non-null entry points to the `chunk_len(k)` cells
        // of a boxed slice that `alloc` leaked (and published with a
        // release CAS, paired with the acquire load above), and only
        // `drop`, which needs `&mut self`, frees it.
        (!cells.is_null()).then(|| unsafe { std::slice::from_raw_parts(cells, self.chunk_len(k)) })
    }

    /// Registers allocated so far.
    pub(crate) fn len(&self) -> u32 {
        self.len.load(Ordering::Relaxed)
    }

    /// Allocates a register that holds `word` at
    /// [`WriteStamp::INITIAL`] on every replica, and returns its id.
    pub(crate) fn alloc(&self, word: u64) -> u32 {
        let reg = self.len.fetch_add(1, Ordering::Relaxed);
        let (k, i) = locate(reg);
        if self.chunk(k).is_none() {
            let fresh: Box<[Cell]> = (0..self.chunk_len(k)).map(|_| Cell::default()).collect();
            let fresh = Box::into_raw(fresh).cast::<Cell>();
            let installed = self.chunks[k].compare_exchange(
                ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            if installed.is_err() {
                // Another allocator installed chunk `k` first.
                // SAFETY: `fresh` is the slice leaked just above, never
                // shared.
                drop(unsafe {
                    Box::from_raw(ptr::slice_from_raw_parts_mut(fresh, self.chunk_len(k)))
                });
            }
        }
        let chunk = self.chunk(k).expect("chunk installed above");
        // No message can address `reg` before its id is handed out, and
        // a wipe leaves the stamp at INITIAL: setting the word is the
        // whole initialization, and needs no lock. (A wipe racing with
        // it leaves 0 or `word`, as if it ran before or after; a
        // concurrent reader stores nothing back.)
        for cell in &chunk[i * self.stride..][..self.replicas] {
            cell.word.store(word, Ordering::Relaxed);
        }
        reg
    }

    /// Register `reg`'s block (replica `i`'s cell at index `i`), or
    /// none if `reg` is not allocated yet.
    fn get(&self, reg: u32) -> Option<&[Cell]> {
        if reg >= self.len() {
            return None;
        }
        let (k, i) = locate(reg);
        let chunk = self.chunk(k)?;
        Some(&chunk[i * self.stride..][..self.replicas])
    }

    /// Replica `replica`'s cell for `reg`.
    ///
    /// # Panics
    ///
    /// If `reg` was never allocated.
    fn cell(&self, reg: u32, replica: u32) -> &Cell {
        let block = self
            .get(reg)
            .unwrap_or_else(|| panic!("register {reg} was never allocated"));
        &block[replica as usize]
    }

    /// Sums `field` over replica `replica`'s cells.
    fn sum(&self, replica: u32, field: impl Fn(&Slot) -> u64) -> u64 {
        (0..self.len())
            .filter_map(|reg| self.get(reg))
            .map(|block| block[replica as usize].with(|slot| field(slot)))
            .sum()
    }
}

impl Drop for Cells {
    fn drop(&mut self) {
        for k in 0..CHUNKS {
            let cells = *self.chunks[k].get_mut();
            if !cells.is_null() {
                // SAFETY: as in `chunk`; `&mut self` leaves no reader.
                drop(unsafe {
                    Box::from_raw(ptr::slice_from_raw_parts_mut(cells, self.chunk_len(k)))
                });
            }
        }
    }
}

/// One of the cluster's `2f + 1` storage nodes.
///
/// Holds a `(stamp, word)` cell per register and answers
/// [`Message`]s; see the module docs for the layout, the handler
/// semantics and the armed monotonicity invariant.
pub struct Replica {
    id: u32,
    cells: Arc<Cells>,
    /// State wipes suffered (crash-with-state-loss restarts).
    wipes: AtomicU64,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("registers", &self.cells.len())
            .field("installs", &self.installs())
            .finish()
    }
}

impl Replica {
    /// Creates replica `id`, whose cells live in `cells`.
    pub(crate) fn new(id: u32, cells: Arc<Cells>) -> Self {
        Self {
            id,
            cells,
            wipes: AtomicU64::new(0),
        }
    }

    /// This replica's node id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Crash-with-state-loss: resets every register to `(INITIAL, 0)`,
    /// as if the replica restarted from an empty disk.
    ///
    /// The monotonic-register invariant is **per incarnation**: it
    /// constrains every handler step, and a wipe starts a new
    /// incarnation with a fresh baseline. Cluster-level monotonicity
    /// across the wipe is restored by the rejoin resync sweep
    /// ([`Cluster::restart`](crate::Cluster::restart)), which runs
    /// through the ordinary `Write` handler — so the invariant stays
    /// armed while the replica catches back up.
    ///
    /// The reset takes one register's cell lock at a time, so a handler
    /// on another register may run between two resets. That is enough:
    ///
    /// * ABD state is per register: no protocol step reads or writes
    ///   two registers at once, so no step can tell a one-lock wipe
    ///   from this one.
    /// * The cluster bumps its wipe epoch before the first reset, so
    ///   every quorum phase whose replies overlap the wipe retries.
    /// * Resync and the endpoint restore run only after the whole wipe.
    pub(crate) fn wipe(&self) {
        for reg in 0..self.cells.len() {
            if let Some(block) = self.cells.get(reg) {
                block[self.id as usize].with(|slot| {
                    slot.stamp = WriteStamp::INITIAL;
                    slot.word = 0;
                });
            }
        }
        self.wipes.fetch_add(1, Ordering::Relaxed);
    }

    /// Times this replica's state has been wiped by a crash.
    pub fn wipes(&self) -> u64 {
        self.wipes.load(Ordering::Relaxed)
    }

    /// The stored `(stamp, word)` for `reg` — durability probes in
    /// tests look here.
    ///
    /// # Panics
    ///
    /// If `reg` was never allocated.
    pub fn stored(&self, reg: u32) -> (WriteStamp, u64) {
        self.cells
            .cell(reg, self.id)
            .with(|slot| (slot.stamp, slot.word))
    }

    /// Installs that advanced a slot (monotone steps taken).
    pub fn installs(&self) -> u64 {
        self.cells.sum(self.id, |s| s.installs)
    }

    /// Stale writes ignored without touching the slot.
    pub fn stale_writes(&self) -> u64 {
        self.cells.sum(self.id, |s| s.stale)
    }

    /// Applies one request and returns the reply (addressed back to
    /// `msg.from`, echoing `msg.op`). Panics on reply kinds — replicas
    /// never receive replies.
    pub(crate) fn handle(&self, msg: &Message) -> Message {
        debug_assert_eq!(msg.to, self.id, "misrouted message");
        self.cells
            .cell(msg.reg, self.id)
            .with(|slot| self.apply(msg, slot))
    }

    /// The handler body, run under the addressed cell's lock.
    fn apply(&self, msg: &Message, slot: &mut Slot) -> Message {
        let before = slot.stamp;
        let reply = match msg.kind {
            MsgKind::ReadQuery => Message {
                kind: MsgKind::ReadReply,
                seq: slot.stamp.seq,
                writer: slot.stamp.writer,
                word: slot.word,
                expected: 0,
                ..reply_envelope(self.id, msg)
            },
            MsgKind::Write => {
                // Install iff strictly newer; always ack — a stale ack
                // still means "my stamp is >= yours", which is all the
                // writer needs for durability.
                if msg.stamp() > slot.stamp {
                    slot.stamp = msg.stamp();
                    slot.word = msg.word;
                    slot.installs += 1;
                } else {
                    slot.stale += 1;
                }
                Message {
                    kind: MsgKind::WriteAck,
                    seq: slot.stamp.seq,
                    writer: slot.stamp.writer,
                    word: 0,
                    expected: 0,
                    ..reply_envelope(self.id, msg)
                }
            }
            MsgKind::Install => {
                // Conditional install (the QuorumTs CAS step): land the
                // new word only if the stored word still equals
                // `expected`; reply with the *prior* word either way.
                let prior = slot.word;
                if prior == msg.expected && msg.word > prior {
                    slot.stamp = WriteStamp {
                        seq: msg.seq,
                        writer: msg.writer,
                    };
                    slot.word = msg.word;
                    slot.installs += 1;
                } else {
                    slot.stale += 1;
                }
                Message {
                    kind: MsgKind::InstallReply,
                    seq: slot.stamp.seq,
                    writer: slot.stamp.writer,
                    word: prior,
                    expected: 0,
                    ..reply_envelope(self.id, msg)
                }
            }
            MsgKind::ReadReply | MsgKind::WriteAck | MsgKind::InstallReply => {
                panic!("replica {} received reply kind {:?}", self.id, msg.kind)
            }
        };
        // The armed invariant: no handler may regress a stored stamp.
        assert!(
            slot.stamp >= before,
            "monotonic-register invariant violated on replica {}: \
             register {} regressed {} -> {}",
            self.id,
            msg.reg,
            before,
            slot.stamp,
        );
        reply
    }
}

fn reply_envelope(id: u32, req: &Message) -> Message {
    Message {
        kind: req.kind, // overwritten by the caller
        op: req.op,
        from: id,
        to: req.from,
        reg: req.reg,
        seq: 0,
        writer: 0,
        word: 0,
        expected: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replica `id` of `id + 1`, holding register 0 initialized to
    /// `word`.
    fn replica(id: u32, word: u64) -> Replica {
        let cells = Arc::new(Cells::new(id as usize + 1));
        assert_eq!(cells.alloc(word), 0);
        Replica::new(id, cells)
    }

    fn write(reg: u32, seq: u32, writer: u32, word: u64) -> Message {
        Message {
            kind: MsgKind::Write,
            op: 1,
            from: Message::CLIENT_BASE,
            to: 0,
            reg,
            seq,
            writer,
            word,
            expected: 0,
        }
    }

    #[test]
    fn reads_echo_the_stored_pair() {
        let r = replica(0, 7);
        let reply = r.handle(&Message {
            kind: MsgKind::ReadQuery,
            op: 9,
            from: Message::CLIENT_BASE + 2,
            to: 0,
            reg: 0,
            seq: 0,
            writer: 0,
            word: 0,
            expected: 0,
        });
        assert_eq!(reply.kind, MsgKind::ReadReply);
        assert_eq!(reply.op, 9);
        assert_eq!(reply.to, Message::CLIENT_BASE + 2);
        assert_eq!((reply.stamp(), reply.word), (WriteStamp::INITIAL, 7));
    }

    #[test]
    fn writes_install_only_forward() {
        let r = replica(0, 0);
        r.handle(&write(0, 2, 1, 22));
        assert_eq!(r.stored(0), (WriteStamp { seq: 2, writer: 1 }, 22));
        // Older stamp: ignored, but still acked with the newer stamp.
        let ack = r.handle(&write(0, 1, 9, 11));
        assert_eq!(ack.kind, MsgKind::WriteAck);
        assert_eq!(ack.stamp(), WriteStamp { seq: 2, writer: 1 });
        assert_eq!(r.stored(0), (WriteStamp { seq: 2, writer: 1 }, 22));
        // Same seq, higher writer: the tiebreak installs.
        r.handle(&write(0, 2, 3, 33));
        assert_eq!(r.stored(0), (WriteStamp { seq: 2, writer: 3 }, 33));
        assert_eq!(r.installs(), 2);
        assert_eq!(r.stale_writes(), 1);
    }

    #[test]
    fn installs_are_conditional_on_the_expected_word() {
        let r = replica(1, 0);
        let install = Message {
            kind: MsgKind::Install,
            op: 5,
            from: Message::CLIENT_BASE,
            to: 1,
            reg: 0,
            seq: 1,
            writer: 0,
            word: 1,
            expected: 0,
        };
        let reply = r.handle(&install);
        assert_eq!(reply.kind, MsgKind::InstallReply);
        assert_eq!(reply.word, 0, "reply carries the prior word");
        assert_eq!(r.stored(0).1, 1);
        // Replayed duplicate: expected stale, slot untouched.
        let reply = r.handle(&install);
        assert_eq!(reply.word, 1);
        assert_eq!(r.stored(0).1, 1);
        assert_eq!(r.installs(), 1);
    }

    #[test]
    fn wipe_starts_a_fresh_incarnation_with_the_invariant_armed() {
        let r = replica(0, 0);
        r.handle(&write(0, 5, 1, 50));
        assert_eq!(r.stored(0), (WriteStamp { seq: 5, writer: 1 }, 50));
        r.wipe();
        assert_eq!(r.wipes(), 1);
        assert_eq!(r.stored(0), (WriteStamp::INITIAL, 0));
        // A lower-than-pre-wipe stamp installs fine (new incarnation),
        // and the per-step invariant still rejects regressions after.
        r.handle(&write(0, 2, 1, 20));
        assert_eq!(r.stored(0), (WriteStamp { seq: 2, writer: 1 }, 20));
        r.handle(&write(0, 1, 1, 10));
        assert_eq!(r.stored(0).1, 20, "stale write after wipe still ignored");
    }

    #[test]
    fn duplicate_write_is_idempotent() {
        let r = replica(0, 0);
        let msg = write(0, 1, 2, 5);
        r.handle(&msg);
        r.handle(&msg);
        assert_eq!(r.stored(0), (WriteStamp { seq: 1, writer: 2 }, 5));
        assert_eq!(r.installs(), 1);
        assert_eq!(r.stale_writes(), 1);
    }

    #[test]
    fn blocks_are_spaced_a_block_apart() {
        for replicas in [1, 3, 5] {
            let cells = Cells::new(replicas);
            assert!(cells.stride >= replicas);
            assert!(cells.stride * std::mem::size_of::<Cell>() >= BLOCK_BYTES);
        }
        // Chunks double: 4 registers, then 8, then 16, ...
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(3), (0, 3));
        assert_eq!(locate(4), (1, 0));
        assert_eq!(locate(11), (1, 7));
        assert_eq!(locate(12), (2, 0));
        assert_eq!(locate(u32::MAX).0, CHUNKS - 1);
    }

    #[test]
    fn concurrent_allocations_across_chunks_keep_every_initial_word() {
        // Rounds, because a reader overwriting an allocator's unlocked
        // word store has a window of a few instructions.
        for _ in 0..200 {
            allocate_across_chunks_beside_a_reader();
        }
    }

    /// Two threads allocate registers 0..=70, across chunks 0..=4
    /// (boundaries 4, 12, 28, 60), while a third reads every allocated
    /// cell; then every replica must hold each register's initial word.
    fn allocate_across_chunks_beside_a_reader() {
        let cells = Arc::new(Cells::new(3));
        let replicas: Vec<Replica> = (0..3)
            .map(|id| Replica::new(id, Arc::clone(&cells)))
            .collect();
        let allocated: Vec<(u32, u64)> = std::thread::scope(|s| {
            s.spawn(|| {
                while cells.len() < 71 {
                    replicas.iter().for_each(|r| {
                        std::hint::black_box(r.installs());
                    });
                }
            });
            let workers: Vec<_> = (0..2u64)
                .map(|t| {
                    let cells = &cells;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while cells.len() < 71 {
                            let word = 1000 * (t + 1) + mine.len() as u64;
                            mine.push((cells.alloc(word), word));
                        }
                        mine
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("allocator"))
                .collect()
        });
        let mut ids: Vec<u32> = allocated.iter().map(|&(reg, _)| reg).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..cells.len()).collect::<Vec<_>>(),
            "ids are dense and unique"
        );
        assert!(cells.len() >= 71);
        for &(reg, word) in &allocated {
            for r in &replicas {
                assert_eq!(
                    r.stored(reg),
                    (WriteStamp::INITIAL, word),
                    "replica {} reg {reg}",
                    r.id()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "register 3 was never allocated")]
    fn stored_panics_on_a_register_never_allocated() {
        // Register 3 shares chunk 0 with register 0 but was never
        // handed out.
        replica(0, 0).stored(3);
    }
}
