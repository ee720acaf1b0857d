//! [`QuorumBackend`]: the ABD-replicated
//! [`RegisterBackend`].
//!
//! Plugs the cluster into every generic seam upstream: a
//! `RegisterArray<u64, QuorumBackend>` scans replicated registers, a
//! `CollectMax<QuorumBackend>` issues timestamps whose every register
//! access is a quorum protocol run, `FcfsLock::<QuorumBackend>` takes
//! its doorway over the modelled network. Registers created inside a
//! [`with_cluster`](crate::with_cluster) scope join that cluster (and
//! its fault plan); registers created outside get a private fault-free
//! `f = 1` cluster each.
//!
//! # Contract mapping
//!
//! The backend's [ordering contract](ts_register::backend) maps onto
//! quorum intersection instead of hardware atomics:
//!
//! * **Per-register coherence** — replica stamps never regress (the
//!   armed monotonicity invariant) and every read returns a quorum
//!   maximum after read-repair, so the values a client sees never move
//!   backwards.
//! * **Publication** — a write acks only after `f + 1` replicas hold
//!   it; every later read quorum intersects that set. The
//!   happens-before edge rides the lock of the register's cell on a
//!   replica in that intersection.
//! * **Stamp semantics** — stamps are packed `(seq, writer)` pairs:
//!   distinct writes of one register never share a stamp, and equal
//!   stamps mean the same write. `u64` order equals pair order.

use std::marker::PhantomData;
use std::sync::Arc;

use ts_register::{BackendRegister, Packable, Register, RegisterBackend, Stamp, Stamped};

use crate::cluster::{ambient_cluster, Cluster, ClusterConfig, Unavailable};

/// Backend marker: quorum-replicated registers over the modelled
/// network (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuorumBackend;

impl<T: Packable> RegisterBackend<T> for QuorumBackend {
    type Reg = QuorumRegister<T>;

    const NAME: &'static str = "quorum";
}

/// One ABD-replicated register: a register id on a shared
/// [`Cluster`], read and written through quorum protocol runs.
#[derive(Debug)]
pub struct QuorumRegister<T> {
    cluster: Arc<Cluster>,
    reg: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Packable> QuorumRegister<T> {
    /// The cluster this register is replicated on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The register's id within its cluster.
    pub fn id(&self) -> u32 {
        self.reg
    }

    /// Fallible read: the quorum value, or [`Unavailable`] once the
    /// cluster's step deadline expires. The infallible
    /// [`Register::read`] seam panics with the same diagnosis instead
    /// — generic callers that can't handle failure get a crisp
    /// post-mortem rather than a hang.
    pub fn try_read(&self) -> Result<T, Unavailable> {
        Ok(T::unpack(self.cluster.try_abd_read(self.reg)?.1))
    }

    /// Fallible write; see [`QuorumRegister::try_read`].
    pub fn try_write(&self, value: T) -> Result<(), Unavailable> {
        self.cluster.try_abd_write(self.reg, value.pack())?;
        Ok(())
    }
}

impl<T: Packable> BackendRegister<T> for QuorumRegister<T> {
    fn with_initial(initial: T) -> Self {
        let cluster = ambient_cluster().unwrap_or_else(|| Cluster::new(ClusterConfig::new(1)));
        let reg = cluster.alloc_register(initial.pack());
        Self {
            cluster,
            reg,
            _marker: PhantomData,
        }
    }

    fn read_stamped(&self) -> Stamped<T> {
        let (stamp, word) = self.cluster.abd_read(self.reg);
        Stamped {
            value: T::unpack(word),
            stamp: stamp.as_stamp(),
        }
    }

    fn stamp(&self) -> Stamp {
        // A full quorum read (including repair): two equal stamps must
        // mean the scan saw the same durable write.
        self.cluster.abd_read(self.reg).0.as_stamp()
    }

    fn read_with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let value = T::unpack(self.cluster.abd_read(self.reg).1);
        f(&value)
    }
}

impl<T: Packable> Register<T> for QuorumRegister<T> {
    fn read(&self) -> T {
        T::unpack(self.cluster.abd_read(self.reg).1)
    }

    fn write(&self, value: T) {
        self.cluster.abd_write(self.reg, value.pack());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::with_cluster;

    #[test]
    fn standalone_register_round_trips() {
        let reg = QuorumRegister::<u64>::with_initial(3);
        assert_eq!(reg.read(), 3);
        assert_eq!(reg.stamp(), Stamp::INITIAL);
        reg.write(9);
        let s = reg.read_stamped();
        assert_eq!(s.value, 9);
        assert!(s.stamp > Stamp::INITIAL);
        assert_eq!(reg.read_with(|v| v + 1), 10);
    }

    #[test]
    fn scoped_registers_share_the_ambient_cluster() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let (a, b) = with_cluster(&cluster, || {
            (
                QuorumRegister::<u64>::with_initial(0),
                QuorumRegister::<bool>::with_initial(false),
            )
        });
        assert!(Arc::ptr_eq(a.cluster(), &cluster));
        assert!(Arc::ptr_eq(b.cluster(), &cluster));
        assert_eq!(cluster.registers(), 2);
        a.write(5);
        b.write(true);
        assert_eq!((a.read(), b.read()), (5, true));
        assert_eq!(cluster.replicas(), 5);
    }

    #[test]
    fn try_ops_surface_unavailable_instead_of_spinning() {
        use crate::cluster::RestartMode;
        let cluster = Cluster::new(ClusterConfig::new(1).with_deadline(256));
        let reg = with_cluster(&cluster, || QuorumRegister::<u64>::with_initial(1));
        cluster.crash(0);
        cluster.crash(2);
        let err = reg.try_write(9).expect_err("majority down");
        assert_eq!(err.crashed, vec![0, 2]);
        cluster.restart(0, RestartMode::Retain);
        reg.try_write(9).expect("quorum back");
        assert_eq!(reg.try_read().expect("readable"), 9);
    }

    #[test]
    fn backend_satisfies_the_generic_contract() {
        fn exercise<B: RegisterBackend<u64>>() {
            let reg = B::Reg::with_initial(0);
            assert_eq!(reg.stamp(), Stamp::INITIAL);
            reg.write(5);
            let s = reg.read_stamped();
            assert_eq!(s.value, 5);
            assert_ne!(s.stamp, Stamp::INITIAL);
            assert_eq!(Register::read(&reg), 5);
        }
        exercise::<QuorumBackend>();
    }
}
