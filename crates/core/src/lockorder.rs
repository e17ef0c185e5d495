//! Lock-order witness: records which lock *classes* are held at each
//! acquisition, and checks the record against the documented order.
//!
//! The runtime's deadlock-freedom argument is a total order on its eleven
//! lock classes (DESIGN.md §13): every thread acquires locks in ascending
//! [`LockClass::rank`] order, so a cycle in the waits-for graph is
//! impossible. This module makes that argument *checkable*: a lock of one
//! of the classes is declared with its class in its type
//! ([`crate::sync::ClassedMutex`], [`crate::sync::ClassedRwLock`]) and
//! calls [`acquiring`] on every acquisition, so coverage is every
//! acquisition, by construction. While recording is [`enable`]d, every
//! (held-class → acquired-class) pair is accumulated into a global edge
//! multiset, and [`inversions`] returns the edges that break the order.
//! Under a total order that is the whole check: a cycle of edges must
//! somewhere acquire a class that does not outrank the one held, so every
//! deadlock cycle shows as at least one inversion.
//!
//! Costs: the witness is always compiled. With recording disabled each
//! acquisition costs one relaxed atomic load. Recording itself takes a
//! global `std::sync::Mutex` per acquisition — strictly a diagnostics mode,
//! never a production configuration. The witness structures — enable flag
//! included — use plain `std` primitives (not [`crate::sync`]): they are
//! observer infrastructure, not part of the protocol under verification,
//! and must not add schedule points to loom models.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One lock class from the documented order. Ranks ascend in legal
/// acquisition order: while holding a class of rank *r*, only classes of
/// rank strictly greater than *r* may be acquired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum LockClass {
    /// The stop-the-world RwLock (`Inner::world`).
    World = 0,
    /// The stream-table RwLock (`Inner::streams`, the vec itself).
    Streams = 1,
    /// A per-stream window mutex (`Arc<Mutex<StreamState>>`).
    Stream = 2,
    /// The buffer-table RwLock (`Inner::buffers`).
    Buffers = 3,
    /// The replay log and, on a durable run, its WAL writer
    /// (`Inner::recovery`): appends, wait-entry flushes and checkpoints
    /// all run under it.
    Recovery = 4,
    /// The degraded-cards list (`Inner::degraded`).
    Degraded = 5,
    /// Sim-mode host shadow map (`Inner::sim_shadow`).
    SimShadow = 6,
    /// The single-compactor guard (`EventTable::compactor`).
    Compactor = 7,
    /// A per-slot event-table mutex (`Slot::be`).
    EventSlot = 8,
    /// The virtual clock's event heap, source clock and model service
    /// (`exec::sim::VirtualClock`).
    SimExec = 9,
    /// The virtual clock's inbox: what a heap event hands the clock to
    /// schedule or serve before the next step. Pushed while a step holds
    /// [`LockClass::SimExec`].
    SimInbox = 10,
}

impl LockClass {
    /// Every class, in rank order.
    pub const ALL: [LockClass; 11] = [
        LockClass::World,
        LockClass::Streams,
        LockClass::Stream,
        LockClass::Buffers,
        LockClass::Recovery,
        LockClass::Degraded,
        LockClass::SimShadow,
        LockClass::Compactor,
        LockClass::EventSlot,
        LockClass::SimExec,
        LockClass::SimInbox,
    ];

    /// Position in the total acquisition order (0 = outermost).
    pub fn rank(self) -> u8 {
        self as u8
    }
}

/// RAII witness for one held lock: created by [`acquiring`] immediately
/// before the acquisition, dropped with (or after) the lock guard.
#[must_use = "bind to a local so the class stays on the held stack while the lock is held"]
pub struct Acquired {
    /// `None`: recording was off at the acquisition, nothing to pop.
    class: Option<LockClass>,
}

// Relaxed everywhere: the flag publishes no data (the edge map has its own
// mutex, the held stack is thread-local).
static ENABLED: AtomicBool = AtomicBool::new(false);
/// (held, acquired) → occurrences, across all threads since `clear`.
static EDGES: Mutex<BTreeMap<(LockClass, LockClass), u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Classes this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<LockClass>> = const { RefCell::new(Vec::new()) };
}

/// Start recording acquisition edges (global, all threads).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording. Edges already recorded are kept until [`clear`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Drop all recorded edges.
pub fn clear() {
    EDGES.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Snapshot of the recorded edges as `(held, acquired, count)` rows.
pub fn edges() -> Vec<(LockClass, LockClass, u64)> {
    EDGES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(&(h, a), &n)| (h, a, n))
        .collect()
}

/// The recorded edges that break the documented order: the acquired class
/// does not outrank the held one. A same-class nesting (two stream
/// mutexes, say) is one too. Empty for a run that obeyed the order.
pub fn inversions() -> Vec<(LockClass, LockClass, u64)> {
    inverted(edges())
}

fn inverted(edges: Vec<(LockClass, LockClass, u64)>) -> Vec<(LockClass, LockClass, u64)> {
    edges
        .into_iter()
        .filter(|&(held, acquired, _)| acquired.rank() <= held.rank())
        .collect()
}

/// Witness an acquisition of `class`: one relaxed load while recording is
/// off. [`crate::sync::ClassedMutex`] and [`crate::sync::ClassedRwLock`]
/// call this on every acquisition; nothing else in the runtime does.
#[inline]
pub fn acquiring(class: LockClass) -> Acquired {
    if !ENABLED.load(Ordering::Relaxed) {
        return Acquired { class: None };
    }
    record(class);
    Acquired { class: Some(class) }
}

#[cold]
fn record(class: LockClass) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if !held.is_empty() {
            let mut edges = EDGES.lock().unwrap_or_else(|e| e.into_inner());
            for &h in held.iter() {
                *edges.entry((h, class)).or_insert(0) += 1;
            }
        }
        held.push(class);
    });
}

impl Drop for Acquired {
    #[inline]
    fn drop(&mut self) {
        let Some(class) = self.class else { return };
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards usually drop LIFO, but `drop(g)` patterns may
            // release out of order: remove the *last* matching entry.
            if let Some(i) = held.iter().rposition(|&c| c == class) {
                held.remove(i);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockClass::*;

    #[test]
    fn ranks_are_dense() {
        for (i, c) in LockClass::ALL.iter().enumerate() {
            assert_eq!(c.rank() as usize, i);
        }
    }

    #[test]
    fn clean_graph_has_no_findings() {
        let edges = vec![
            (World, Stream, 10),
            (Stream, EventSlot, 10),
            (World, Buffers, 3),
        ];
        assert_eq!(inverted(edges), vec![]);
    }

    /// A two-class cycle shows as its one descending edge.
    #[test]
    fn inversion_and_two_cycle_both_reported() {
        let edges = vec![(World, Stream, 5), (Stream, World, 1)];
        assert_eq!(inverted(edges), vec![(Stream, World, 1)]);
    }

    #[test]
    fn same_class_nesting_is_an_inversion() {
        assert_eq!(
            inverted(vec![(Stream, Stream, 2)]),
            vec![(Stream, Stream, 2)]
        );
    }

    /// Each hop but the last ascends: the cycle is caught at the one edge
    /// that closes it.
    #[test]
    fn three_cycle_without_direct_back_edge() {
        let edges = vec![
            (World, Streams, 1),
            (Streams, Stream, 1),
            (Stream, World, 1),
        ];
        assert_eq!(inverted(edges), vec![(Stream, World, 1)]);
    }
}
