//! Remote-memory-access window (paper §III).
//!
//! The paper allocates an MPI window on the root rank holding one work-load
//! estimate per process; communicator threads `MPI_Put` their local
//! estimate and `MPI_Get` the whole array when they need to pick a victim
//! to request work from. RMA bypasses the remote CPU (InfiniBand NIC
//! transfers); here the window is an atomic array shared by reference —
//! the same one-sided semantics (no receiver-side code runs) without the
//! hardware.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Observer for window traffic, installed by a fault-injecting transport.
///
/// Real RMA reads race with remote puts: the value a rank observes may be
/// arbitrarily stale. The production window is exact (shared atomics); a
/// hook restores the weaker semantics under test by substituting the
/// *estimate* reads ([`Window::get_all`], [`Window::argmax_excluding`])
/// with historical values. Single-slot [`Window::get`] and the
/// fetch-and-op calls stay exact — termination counters must never run
/// backwards.
pub trait WindowHook: Send + Sync {
    /// Called on every window operation before it executes — the
    /// simulator's scheduling yield point for RMA traffic.
    fn on_op(&self);

    /// Records a completed put (offset, new value) for stale-read replay.
    fn on_put(&self, offset: usize, value: u64);

    /// Optionally replaces the value array seen by estimate reads.
    /// `current` is the exact snapshot; return `None` to keep it.
    fn estimates(&self, current: &[u64]) -> Option<Vec<u64>>;
}

/// A one-sided memory window of `u64` slots.
#[derive(Clone)]
pub struct Window {
    slots: Arc<Vec<AtomicU64>>,
    hook: Option<Arc<dyn WindowHook>>,
}

impl Window {
    /// Collectively creates a window with `len` slots (zero-initialized).
    /// In MPI terms the memory lives on the root; every rank holds the
    /// same handle.
    pub fn new(len: usize) -> Self {
        Window {
            slots: Arc::new((0..len).map(|_| AtomicU64::new(0)).collect()),
            hook: None,
        }
    }

    /// Creates a window whose traffic is observed (and whose estimate
    /// reads may be weakened) by `hook`.
    pub fn with_hook(len: usize, hook: Arc<dyn WindowHook>) -> Self {
        Window {
            slots: Arc::new((0..len).map(|_| AtomicU64::new(0)).collect()),
            hook: Some(hook),
        }
    }

    #[inline]
    fn yield_op(&self) {
        if let Some(h) = &self.hook {
            h.on_op();
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the window has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// One-sided put: stores `value` at `offset`.
    pub fn put(&self, offset: usize, value: u64) {
        self.yield_op();
        self.slots[offset].store(value, Ordering::Release);
        if let Some(h) = &self.hook {
            h.on_put(offset, value);
        }
    }

    /// One-sided get of a single slot (exact, never stale — used for
    /// termination counters).
    pub fn get(&self, offset: usize) -> u64 {
        self.yield_op();
        self.slots[offset].load(Ordering::Acquire)
    }

    /// One-sided get of the entire window (the victim-selection read).
    /// Under a fault-injecting hook the returned estimates may be stale.
    pub fn get_all(&self) -> Vec<u64> {
        self.yield_op();
        let exact: Vec<u64> = self
            .slots
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .collect();
        match &self.hook {
            Some(h) => h.estimates(&exact).unwrap_or(exact),
            None => exact,
        }
    }

    /// Atomic fetch-and-add (MPI_Accumulate with MPI_SUM).
    pub fn fetch_add(&self, offset: usize, delta: u64) -> u64 {
        self.yield_op();
        let prev = self.slots[offset].fetch_add(delta, Ordering::AcqRel);
        if let Some(h) = &self.hook {
            h.on_put(offset, prev + delta);
        }
        prev
    }

    /// Index of the slot with the maximum value among the first `limit`
    /// slots (ties to the lowest rank), excluding `exclude`. The limit
    /// matters when extra bookkeeping slots (e.g. a completion counter)
    /// share the window with the per-rank estimates. Returns `None` when
    /// all other slots are zero.
    pub fn argmax_excluding(&self, exclude: usize, limit: usize) -> Option<usize> {
        let all = self.get_all();
        let mut best: Option<(usize, u64)> = None;
        for (i, &v) in all.iter().take(limit).enumerate() {
            if i == exclude {
                continue;
            }
            if v > 0 && best.is_none_or(|(_, bv)| v > bv) {
                best = Some((i, v));
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;

    #[test]
    fn put_get_roundtrip() {
        let w = Window::new(4);
        w.put(2, 99);
        assert_eq!(w.get(2), 99);
        assert_eq!(w.get_all(), vec![0, 0, 99, 0]);
    }

    #[test]
    fn fetch_add_accumulates() {
        let w = Window::new(1);
        assert_eq!(w.fetch_add(0, 5), 0);
        assert_eq!(w.fetch_add(0, 3), 5);
        assert_eq!(w.get(0), 8);
    }

    #[test]
    fn argmax_excludes_self_and_zeros() {
        let w = Window::new(4);
        w.put(0, 10);
        w.put(1, 50);
        w.put(2, 50);
        assert_eq!(w.argmax_excluding(3, 4), Some(1)); // tie -> lowest rank
        assert_eq!(w.argmax_excluding(1, 4), Some(2));
        // A bookkeeping slot beyond the limit is never selected.
        w.put(3, 999);
        assert_eq!(w.argmax_excluding(0, 3), Some(1));
        let empty = Window::new(3);
        assert_eq!(empty.argmax_excluding(0, 3), None);
    }

    #[test]
    fn concurrent_puts_from_ranks() {
        let w = Window::new(8);
        let results = run(8, |comm| {
            let w = w.clone();
            w.put(comm.rank(), (comm.rank() as u64 + 1) * 10);
            comm.barrier();
            w.get_all()
        });
        for r in &results {
            assert_eq!(*r, vec![10, 20, 30, 40, 50, 60, 70, 80]);
        }
    }

    #[test]
    fn concurrent_accumulate_is_atomic() {
        let w = Window::new(1);
        run(8, |comm| {
            let w = w.clone();
            for _ in 0..1000 {
                w.fetch_add(0, 1);
            }
            comm.barrier();
        });
        assert_eq!(w.get(0), 8000);
    }
}
