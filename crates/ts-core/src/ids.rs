//! getTS-ids: identifiers of individual `getTS` invocations.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// The paper's getTS-id `p.k`: the `k`-th invocation by process `p`.
///
/// When specialized to one-shot timestamps, the id is just the invoking
/// process's identifier (`k = 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GetTsId {
    /// The invoking process.
    pub pid: u32,
    /// The invocation index within that process (0-based).
    pub seq: u32,
}

impl GetTsId {
    /// The id of process `pid`'s one-shot invocation.
    pub fn one_shot(pid: u32) -> Self {
        Self { pid, seq: 0 }
    }

    /// The id of process `pid`'s `seq`-th invocation.
    pub fn new(pid: u32, seq: u32) -> Self {
        Self { pid, seq }
    }
}

impl fmt::Display for GetTsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}.{}", self.pid, self.seq)
    }
}

/// Hands out globally unique virtual process ids (vpids).
///
/// This is the machinery behind `M` clients over `n` physical slots:
/// identity (the vpid, never reused, never bounded) is decoupled from
/// storage (the slot, leased while an operation runs). The workload
/// engine's growable target mints a fresh vpid per churn life so
/// `GetTsId`s stay unique across worker replacements; the `ts-service`
/// crate uses it to key client sessions, so slot count stops scaling
/// with client count.
///
/// # Example
///
/// ```
/// use ts_core::VpidAllocator;
///
/// let vpids = VpidAllocator::new();
/// let a = vpids.next();
/// let b = vpids.next();
/// assert_ne!(a, b);
/// assert_eq!(vpids.issued(), 2);
/// ```
#[derive(Debug, Default)]
pub struct VpidAllocator {
    next: AtomicU32,
}

impl VpidAllocator {
    /// Creates an allocator starting at vpid 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints the next vpid (never reused).
    pub fn next(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Vpids handed out so far.
    pub fn issued(&self) -> u32 {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_id_has_zero_seq() {
        let id = GetTsId::one_shot(3);
        assert_eq!(id, GetTsId::new(3, 0));
        assert_eq!(id.to_string(), "p3.0");
    }

    #[test]
    fn ids_order_by_pid_then_seq() {
        assert!(GetTsId::new(1, 5) < GetTsId::new(2, 0));
        assert!(GetTsId::new(1, 0) < GetTsId::new(1, 1));
    }
}
