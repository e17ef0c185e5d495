//! Per-stream bookkeeping: the pending-action window used for dependence
//! derivation, and the FIFO/out-of-order policy.
//!
//! Dependence lookup is indexed by (domain, buffer): a new action only
//! compares ranges against pending actions that touch one of its own
//! buffers, so enqueue cost is proportional to the *contention* on the
//! action's operands, not to the stream's total backlog. Synchronization
//! actions (barriers) dominate everything before them, letting the index be
//! cleared wholesale.

use crate::cpumask::CpuMask;
use crate::deps::{covers, FootprintItem};
use crate::types::{BufferId, DomainId, Event, OrderingMode, StreamId};
use hs_coi::small::SmallVec;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// Hasher for the location index. The key is two small dense ids; the
/// default SipHash costs more than the probe it guards on the per-action
/// dependence-analysis path, so mix the words with one multiply-xor round
/// (Fibonacci-hashing constant) instead. Not DoS-resistant — the keys are
/// runtime-internal ids, not attacker input.
#[derive(Default)]
struct LocHasher(u64);

impl Hasher for LocHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }
}

impl LocHasher {
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }
}

type LocMap<V> = HashMap<(DomainId, BufferId), V, BuildHasherDefault<LocHasher>>;

/// The pending items at one location, inline for eight, so a location's
/// bucket coming and going between sweeps costs no allocation. Counted at
/// every push on the `smallact` benchmark workload, a bucket holds one item
/// three times in four and never more than eight; four would spill on 0.3 %
/// of its actions. A bucket is one per location, so the room costs nothing
/// per action.
type Bucket = SmallVec<PendingItem, 8>;

/// Dependence list with inline storage for the common small fan-in.
pub type DepList = SmallVec<Event, 8>;

#[derive(Default)]
struct PendingItem {
    event: Event,
    range: Range<usize>,
    write: bool,
}

/// How an action participates in intra-stream ordering. Declared in
/// `hs-obs`, whose lifecycle records carry it.
pub use hs_obs::ActionKind;

/// Source-side state of one stream.
pub struct StreamState {
    pub id: StreamId,
    pub domain: DomainId,
    pub mask: CpuMask,
    /// Pending items indexed by touched location.
    by_loc: LocMap<Bucket>,
    /// Every pending (not yet observed complete) event, in enqueue order —
    /// which is ascending id order: ids are minted under this stream's lock
    /// (checked in `push`).
    all: Vec<Event>,
    /// The most recent pending sync action (event-wait or marker): later
    /// actions order on it.
    last_barrier: Option<Event>,
    /// Most recent pending action (strict-FIFO chaining).
    last_event: Option<Event>,
    enqueued: u64,
    since_full_retire: u32,
}

impl StreamState {
    pub fn new(id: StreamId, domain: DomainId, mask: CpuMask) -> StreamState {
        StreamState {
            id,
            domain,
            mask,
            by_loc: LocMap::default(),
            all: Vec::new(),
            last_barrier: None,
            last_event: None,
            enqueued: 0,
            since_full_retire: 0,
        }
    }

    /// Number of cores bound to this stream's sink.
    pub fn cores(&self) -> u32 {
        self.mask.count()
    }

    /// Total actions ever enqueued (diagnostics).
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Currently pending (not yet observed complete) actions.
    pub fn pending_len(&self) -> usize {
        self.all.len()
    }

    /// Drop retired actions. `is_complete` queries the event table. Cheap
    /// when called every enqueue: a full sweep runs only periodically or
    /// when the window grows; in between only the prefix is trimmed (actions
    /// mostly retire oldest-first).
    pub fn retire(&mut self, is_complete: impl Fn(Event) -> bool) {
        self.since_full_retire += 1;
        let full = self.since_full_retire >= 64 || self.all.len() > 4096;
        if full {
            self.retire_now(&is_complete);
        } else {
            // Prefix trim of the ordered list only (index entries linger
            // until the next full sweep — or until the first `find_deps`
            // probe touches them, which prunes them in place).
            let drop = self.all.iter().take_while(|e| is_complete(**e)).count();
            self.all.drain(..drop);
        }
        self.settle_sync_markers(is_complete);
    }

    /// Unconditional full sweep: prune the ordered list AND the location
    /// index (used by `stream_synchronize`, where everything just completed
    /// and stale index entries should not linger).
    pub fn retire_now(&mut self, is_complete: impl Fn(Event) -> bool) {
        self.since_full_retire = 0;
        self.all.retain(|e| !is_complete(*e));
        for items in self.by_loc.values_mut() {
            items.retain(|it| !is_complete(it.event));
        }
        self.by_loc.retain(|_, v| !v.is_empty());
        self.settle_sync_markers(is_complete);
    }

    fn settle_sync_markers(&mut self, is_complete: impl Fn(Event) -> bool) {
        if let Some(b) = self.last_barrier {
            if is_complete(b) {
                self.last_barrier = None;
            }
        }
        if let Some(l) = self.last_event {
            if is_complete(l) {
                self.last_event = None;
            }
        }
    }

    /// The pending sync action (marker or event-wait) an out-of-order
    /// event-wait must chain on. `push` *replaces* `last_barrier`, so a
    /// wait that did not order after the previous barrier would sever a
    /// marker's gate for everything enqueued after the wait (later actions
    /// order on the newest sync action only, relying on this sync-to-sync
    /// chain for the older ones).
    pub fn sync_chain(&self) -> Option<Event> {
        self.last_barrier
    }

    /// Events of all pending actions, in enqueue (= ascending id) order.
    /// A borrow — callers iterate or copy under the stream's lock.
    pub fn pending(&self) -> &[Event] {
        &self.all
    }

    /// The lowest-id pending event strictly after `last` (None = from the
    /// start). Lets `stream_synchronize` walk the pending window one event
    /// at a time without cloning it — by id, not by position, so the walk
    /// survives retirements shifting the list between calls.
    pub fn first_pending_after(&self, last: Option<Event>) -> Option<Event> {
        let i = last.map_or(0, |l| self.all.partition_point(|e| *e <= l));
        self.all.get(i).copied()
    }

    /// Dependences a new action with `footprint` must wait for, per the
    /// ordering mode, appended to `out`. Call after [`StreamState::retire`].
    ///
    /// Returns the number of *stale* location-index entries pruned: items
    /// whose event precedes the oldest pending one are already complete
    /// (they linger in `by_loc` between full sweeps) and induce no
    /// dependence — they are removed from the index on first contact and
    /// counted once, feeding the `deps.redundant` obs counter.
    pub fn find_deps(
        &mut self,
        footprint: &[FootprintItem],
        barrier: bool,
        mode: OrderingMode,
        out: &mut DepList,
    ) -> u64 {
        match mode {
            OrderingMode::StrictFifo => {
                out.extend_from_slice(self.last_event.as_slice());
                0
            }
            OrderingMode::OutOfOrder => {
                if barrier {
                    out.extend_from_slice(&self.all);
                    return 0;
                }
                // An index entry below the oldest pending id cannot be
                // pending: it is a retired leftover and induces no
                // dependence — so it is pruned *here*, in place, rather
                // than skipped. Skipping let a stale entry charge one
                // redundant probe per enqueue until the next full sweep
                // (the single-enqueue path sweeps only every 64 calls);
                // pruning on first contact bounds its lifetime cost to
                // one probe, matching what the batch path's amortized
                // sweep already achieved. (An already-retired entry
                // *above* it merely resolves to a completed event
                // downstream — safe, just not counted as redundant.)
                let oldest_pending = self.all.first().map_or(u64::MAX, |e| e.0);
                let mut redundant = 0u64;
                out.extend_from_slice(self.last_barrier.as_slice());
                for item in footprint {
                    if let Some(items) = self.by_loc.get_mut(&(item.domain, item.buffer)) {
                        items.retain(|p| {
                            if p.event.0 < oldest_pending {
                                redundant += 1;
                                return false;
                            }
                            if p.range.start < item.range.end
                                && item.range.start < p.range.end
                                && (p.write || item.write)
                            {
                                out.push(p.event);
                            }
                            true
                        });
                    }
                }
                redundant
            }
        }
    }

    /// Record a newly enqueued action.
    pub fn push(&mut self, event: Event, footprint: &[FootprintItem], kind: ActionKind) {
        match kind {
            ActionKind::Marker => {
                // The marker dominates everything before it: later actions
                // only need the marker itself, so the location index resets.
                self.by_loc.clear();
                self.last_barrier = Some(event);
            }
            ActionKind::EventWait => {
                // Later actions order on the wait, but prior actions are
                // untouched — so the conflict index MUST stay (a later
                // action's RAW/WAW edges to pre-wait producers are not
                // subsumed by the wait).
                self.last_barrier = Some(event);
            }
            ActionKind::Normal => {
                for item in footprint {
                    let bucket = self.by_loc.entry((item.domain, item.buffer)).or_default();
                    if item.write {
                        // Dominated-entry pruning: this write covers (and —
                        // because it writes — conflicts with) every entry
                        // whose range it contains, so the just-computed dep
                        // list already orders it after them; and any future
                        // action conflicting with a covered entry overlaps
                        // this write's range too, so the transitive edge
                        // through this event preserves the ordering. Without
                        // this, repeated whole-buffer writers (the common
                        // streaming pattern) grow the bucket — and every
                        // later dependence scan — linearly with the pending
                        // window. A covering *read* must not prune: it
                        // doesn't conflict with a covered read, so a future
                        // writer's WAR edge would have no transitive carrier.
                        bucket.retain(|p| !covers(&item.range, &p.range));
                    }
                    bucket.push(PendingItem {
                        event,
                        range: item.range.clone(),
                        write: item.write,
                    });
                }
            }
        }
        debug_assert!(
            self.all.last().is_none_or(|l| *l < event),
            "stream {:?}: event {event:?} pushed after {:?} — ids must be minted under the stream lock",
            self.id,
            self.all.last()
        );
        self.all.push(event);
        self.last_event = Some(event);
        self.enqueued += 1;
    }

    /// Total location-index entries (test visibility into pruning).
    #[cfg(test)]
    fn index_entries(&self) -> usize {
        self.by_loc.values().map(|v| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(buf: u64, range: std::ops::Range<usize>, write: bool) -> Vec<FootprintItem> {
        vec![FootprintItem::new(DomainId(1), BufferId(buf), range, write)]
    }

    fn stream() -> StreamState {
        StreamState::new(StreamId(0), DomainId(1), CpuMask::first(4))
    }

    fn deps_of(
        s: &mut StreamState,
        fp: &[FootprintItem],
        barrier: bool,
        mode: OrderingMode,
    ) -> Vec<Event> {
        let mut out = DepList::new();
        s.find_deps(fp, barrier, mode, &mut out);
        out.as_slice().to_vec()
    }

    #[test]
    fn ooo_deps_only_on_conflicts() {
        let mut s = stream();
        s.push(Event(0), &fp(0, 0..10, true), ActionKind::Normal);
        s.push(Event(1), &fp(1, 0..10, true), ActionKind::Normal);
        let deps = deps_of(&mut s, &fp(0, 5..6, false), false, OrderingMode::OutOfOrder);
        assert_eq!(deps, vec![Event(0)], "only the conflicting writer");
        let none = deps_of(&mut s, &fp(2, 0..10, true), false, OrderingMode::OutOfOrder);
        assert!(none.is_empty(), "independent action has no deps");
    }

    #[test]
    fn read_read_overlap_is_free() {
        let mut s = stream();
        s.push(Event(0), &fp(0, 0..10, false), ActionKind::Normal);
        let deps = deps_of(
            &mut s,
            &fp(0, 0..10, false),
            false,
            OrderingMode::OutOfOrder,
        );
        assert!(deps.is_empty());
    }

    #[test]
    fn strict_fifo_chains_on_last() {
        let mut s = stream();
        s.push(Event(0), &fp(0, 0..10, true), ActionKind::Normal);
        s.push(Event(1), &fp(1, 0..10, true), ActionKind::Normal);
        let deps = deps_of(&mut s, &fp(2, 0..10, true), false, OrderingMode::StrictFifo);
        assert_eq!(
            deps,
            vec![Event(1)],
            "chain on most recent regardless of operands"
        );
    }

    #[test]
    fn marker_depends_on_all_and_blocks_later() {
        let mut s = stream();
        s.push(Event(0), &fp(0, 0..10, true), ActionKind::Normal);
        s.push(Event(1), &fp(1, 0..10, true), ActionKind::Normal);
        let deps = deps_of(&mut s, &Vec::new(), true, OrderingMode::OutOfOrder);
        assert_eq!(deps, vec![Event(0), Event(1)]);
        s.push(Event(2), &[], ActionKind::Marker);
        let later = deps_of(&mut s, &fp(9, 0..1, false), false, OrderingMode::OutOfOrder);
        assert!(
            later.contains(&Event(2)),
            "later actions order on the marker"
        );
        // And the pre-marker index is dominated: no stale deps besides it.
        let deps2 = deps_of(&mut s, &fp(0, 0..10, true), false, OrderingMode::OutOfOrder);
        assert_eq!(deps2, vec![Event(2)]);
    }

    #[test]
    fn event_wait_keeps_prior_conflicts_visible() {
        let mut s = stream();
        s.push(Event(0), &fp(0, 0..10, true), ActionKind::Normal);
        // A light event-wait: later actions order on it, but edges to the
        // pre-wait writer of buffer 0 must survive.
        s.push(Event(1), &[], ActionKind::EventWait);
        let deps = deps_of(
            &mut s,
            &fp(0, 0..10, false),
            false,
            OrderingMode::OutOfOrder,
        );
        assert!(deps.contains(&Event(0)), "RAW edge to the pre-wait writer");
        assert!(deps.contains(&Event(1)), "orders after the wait too");
        // Independent later actions wait only on the event-wait.
        let ind = deps_of(&mut s, &fp(5, 0..10, true), false, OrderingMode::OutOfOrder);
        assert_eq!(ind, vec![Event(1)]);
    }

    #[test]
    fn retire_removes_completed() {
        let mut s = stream();
        s.push(Event(0), &fp(0, 0..10, true), ActionKind::Normal);
        s.push(Event(1), &fp(0, 0..10, true), ActionKind::Normal);
        // Force a full sweep regardless of the amortization counter.
        s.since_full_retire = 1000;
        s.retire(|e| e == Event(0));
        assert_eq!(s.pending_len(), 1);
        let deps = deps_of(
            &mut s,
            &fp(0, 0..10, false),
            false,
            OrderingMode::OutOfOrder,
        );
        assert_eq!(deps, vec![Event(1)], "completed actions induce no deps");
        assert_eq!(s.enqueued(), 2, "retire does not affect the lifetime count");
    }

    #[test]
    fn stale_index_entries_are_skipped_and_counted() {
        let mut s = stream();
        // Overlapping but non-covering writes: neither prunes the other.
        s.push(Event(0), &fp(0, 0..10, true), ActionKind::Normal);
        s.push(Event(1), &fp(0, 5..15, true), ActionKind::Normal);
        // Cheap prefix retire: event 0 leaves `all` but stays in `by_loc`.
        s.retire(|e| e == Event(0));
        assert_eq!(s.pending_len(), 1);
        let mut out = DepList::new();
        let redundant = s.find_deps(
            &fp(0, 0..10, false),
            false,
            OrderingMode::OutOfOrder,
            &mut out,
        );
        assert_eq!(out.as_slice(), &[Event(1)], "stale entry induces no dep");
        assert_eq!(redundant, 1, "the lingering index entry is counted");
        // The probe pruned the stale entry in place: a second identical
        // probe pays nothing (no full sweep needed in between).
        let mut out2 = DepList::new();
        let r2 = s.find_deps(
            &fp(0, 0..10, false),
            false,
            OrderingMode::OutOfOrder,
            &mut out2,
        );
        assert_eq!(out2.as_slice(), &[Event(1)]);
        assert_eq!(r2, 0, "a stale entry costs at most one probe, ever");
        // After a full sweep nothing is stale either.
        s.retire_now(|e| e == Event(0));
        let mut out3 = DepList::new();
        let r3 = s.find_deps(
            &fp(0, 0..10, false),
            false,
            OrderingMode::OutOfOrder,
            &mut out3,
        );
        assert_eq!(r3, 0);
    }

    #[test]
    fn covering_writer_prunes_dominated_entries() {
        let mut s = stream();
        // The whole-buffer-rewrite streaming pattern: each writer covers
        // its predecessor, so the index holds exactly one entry however
        // deep the pending window gets.
        for i in 0..50 {
            s.push(Event(i), &fp(0, 0..4096, true), ActionKind::Normal);
        }
        assert_eq!(s.index_entries(), 1, "dominated entries pruned");
        assert_eq!(s.pending_len(), 50, "the ordered window is untouched");
        let deps = deps_of(
            &mut s,
            &fp(0, 0..4096, true),
            false,
            OrderingMode::OutOfOrder,
        );
        assert_eq!(deps, vec![Event(49)], "newest writer carries the chain");
        // A partial write covers nothing: both entries stay.
        s.push(Event(50), &fp(0, 100..200, true), ActionKind::Normal);
        assert_eq!(s.index_entries(), 2);
    }

    #[test]
    fn covering_read_does_not_prune() {
        let mut s = stream();
        s.push(Event(0), &fp(0, 2..8, true), ActionKind::Normal);
        // A covering read: the write entry underneath must survive, or a
        // future writer would lose its WAR carrier... and so must peer
        // reads (read-read is free, so the covering read carries no edge).
        s.push(Event(1), &fp(0, 0..10, false), ActionKind::Normal);
        assert_eq!(s.index_entries(), 2);
        let deps = deps_of(&mut s, &fp(0, 0..10, true), false, OrderingMode::OutOfOrder);
        assert!(deps.contains(&Event(0)), "WAW edge to the covered writer");
        assert!(deps.contains(&Event(1)), "WAR edge to the covering reader");
    }

    #[test]
    fn pruned_entry_ordering_survives_transitively() {
        // The soundness argument behind pruning, end to end: A(write 0..8),
        // B(write 0..10, covers A), then C conflicting with A's range. C
        // must order after B (its dep), and B after A (B's dep) — the edge
        // to A is carried transitively even though A left the index.
        let mut s = stream();
        s.push(Event(0), &fp(0, 0..8, true), ActionKind::Normal);
        let mut b_deps = DepList::new();
        s.find_deps(
            &fp(0, 0..10, true),
            false,
            OrderingMode::OutOfOrder,
            &mut b_deps,
        );
        assert_eq!(b_deps.as_slice(), &[Event(0)], "B depends on covered A");
        s.push(Event(1), &fp(0, 0..10, true), ActionKind::Normal);
        let c = deps_of(&mut s, &fp(0, 3..5, false), false, OrderingMode::OutOfOrder);
        assert_eq!(c, vec![Event(1)], "C reaches A through B");
    }

    #[test]
    fn first_pending_after_walks_in_order() {
        let mut s = stream();
        for e in [2u64, 5, 9] {
            s.push(Event(e), &fp(0, 0..1, false), ActionKind::Normal);
        }
        assert_eq!(s.first_pending_after(None), Some(Event(2)));
        assert_eq!(s.first_pending_after(Some(Event(2))), Some(Event(5)));
        assert_eq!(s.first_pending_after(Some(Event(5))), Some(Event(9)));
        assert_eq!(s.first_pending_after(Some(Event(9))), None);
    }

    #[test]
    fn prefix_retire_trims_pending_window() {
        // (uses the amortized retire path)
        let mut s = stream();
        for i in 0..10 {
            s.push(
                Event(i),
                &fp(0, (i as usize) * 10..(i as usize) * 10 + 5, true),
                ActionKind::Normal,
            );
        }
        // Events 0..5 complete: even the cheap path trims the prefix.
        s.retire(|e| e.0 < 5);
        assert_eq!(s.pending_len(), 5);
    }

    #[test]
    fn retired_barrier_stops_blocking() {
        let mut s = stream();
        s.push(Event(0), &[], ActionKind::Marker);
        s.retire(|e| e == Event(0));
        let deps = deps_of(&mut s, &fp(0, 0..4, true), false, OrderingMode::OutOfOrder);
        assert!(deps.is_empty(), "completed barrier induces no deps");
    }

    #[test]
    fn empty_stream_has_no_deps() {
        let mut s = stream();
        assert!(deps_of(&mut s, &fp(0, 0..10, true), false, OrderingMode::OutOfOrder).is_empty());
        assert!(deps_of(&mut s, &fp(0, 0..10, true), false, OrderingMode::StrictFifo).is_empty());
    }

    #[test]
    fn pending_lists_all_as_borrow() {
        let mut s = stream();
        s.push(Event(3), &fp(0, 0..1, false), ActionKind::Normal);
        s.push(Event(5), &fp(1, 0..1, false), ActionKind::Normal);
        assert_eq!(s.pending(), &[Event(3), Event(5)]);
    }

    #[test]
    fn multi_domain_footprints_index_separately() {
        let mut s = stream();
        // A transfer footprint touches host (read) and card (write).
        s.push(
            Event(0),
            &[
                FootprintItem::new(DomainId(0), BufferId(7), 0..64, false),
                FootprintItem::new(DomainId(1), BufferId(7), 0..64, true),
            ],
            ActionKind::Normal,
        );
        // A host write to the same buffer conflicts via the host item.
        let host_probe = vec![FootprintItem::new(DomainId(0), BufferId(7), 0..8, true)];
        assert_eq!(
            deps_of(&mut s, &host_probe, false, OrderingMode::OutOfOrder),
            vec![Event(0)]
        );
        // A different buffer on the card does not.
        let other = vec![FootprintItem::new(DomainId(1), BufferId(8), 0..8, true)];
        assert!(deps_of(&mut s, &other, false, OrderingMode::OutOfOrder).is_empty());
    }
}
