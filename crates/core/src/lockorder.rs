//! Lock-order witness: records which lock *classes* are held at each
//! acquisition, for offline analysis by `hsan lock-order`.
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
//! multiset, and [`edges_json`] serializes it for the `hsan lock-order`
//! subcommand, which reports rank inversions and cycles.
//!
//! The class list and ranks live here — in the runtime, next to the locks
//! they describe — and `hsan` imports them, so the checker can never drift
//! from the code it checks.
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
use std::fmt::Write as _;
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
    /// The replay log (`Inner::recovery`).
    Recovery = 4,
    /// The durable WAL writer (`durable::WalShared`). Appends happen while
    /// the `Recovery` lock is held (the log entry and its on-disk record
    /// must land atomically w.r.t. other enqueuers), so `Wal` ranks just
    /// inside `Recovery`; flushes at wait entries take `Wal` alone.
    Wal = 5,
    /// The degraded-cards list (`Inner::degraded`).
    Degraded = 6,
    /// Sim-mode host shadow map (`Inner::sim_shadow`).
    SimShadow = 7,
    /// The single-compactor guard (`EventTable::compactor`).
    Compactor = 8,
    /// A per-slot event-table mutex (`Slot::be`).
    EventSlot = 9,
    /// The serialized virtual-time executor (`Executor::Sim`).
    SimExec = 10,
}

impl LockClass {
    /// Every class, in rank order.
    pub const ALL: [LockClass; 11] = [
        LockClass::World,
        LockClass::Streams,
        LockClass::Stream,
        LockClass::Buffers,
        LockClass::Recovery,
        LockClass::Wal,
        LockClass::Degraded,
        LockClass::SimShadow,
        LockClass::Compactor,
        LockClass::EventSlot,
        LockClass::SimExec,
    ];

    /// Position in the total acquisition order (0 = outermost).
    pub fn rank(self) -> u8 {
        self as u8
    }

    /// Stable wire name used in the edges JSON.
    pub fn name(self) -> &'static str {
        match self {
            LockClass::World => "world",
            LockClass::Streams => "streams",
            LockClass::Stream => "stream",
            LockClass::Buffers => "buffers",
            LockClass::Recovery => "recovery",
            LockClass::Wal => "wal",
            LockClass::Degraded => "degraded",
            LockClass::SimShadow => "sim_shadow",
            LockClass::Compactor => "compactor",
            LockClass::EventSlot => "event_slot",
            LockClass::SimExec => "sim_exec",
        }
    }

    /// Inverse of [`LockClass::name`].
    pub fn from_name(name: &str) -> Option<LockClass> {
        LockClass::ALL.iter().copied().find(|c| c.name() == name)
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

/// The recorded edges in the `hsan lock-order` input format.
pub fn edges_json() -> String {
    let rows = edges();
    let mut s = String::from("{\n  \"edges\": [\n");
    for (i, (h, a, n)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"from\": \"{}\", \"to\": \"{}\", \"count\": {n}}}{comma}",
            h.name(),
            a.name()
        );
    }
    s.push_str("  ]\n}\n");
    s
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

    #[test]
    fn ranks_are_dense_and_names_round_trip() {
        for (i, c) in LockClass::ALL.iter().enumerate() {
            assert_eq!(c.rank() as usize, i);
            assert_eq!(LockClass::from_name(c.name()), Some(*c));
        }
        assert_eq!(LockClass::from_name("no-such-lock"), None);
    }
}
