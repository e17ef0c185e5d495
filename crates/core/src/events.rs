//! The global event table: an append-only, segmented store mapping each
//! [`Event`](crate::types::Event) id to its backend completion handle and
//! producing stream.
//!
//! Three properties drive the design:
//!
//! * **No reallocation under readers.** Storage is fixed-size segments
//!   reached through a preallocated array of `OnceLock`'d pointers, so a
//!   concurrent reader never observes a `Vec` being regrown.
//! * **Mutable slots.** Card-loss replay overwrites an event's backend in
//!   place (application-held handles transparently track the replayed
//!   attempt), so each slot guards its payload with a short per-slot lock
//!   rather than being write-once.
//! * **Bounded memory.** Completed *successful* events are tombstoned by
//!   [`EventTable::compact`] — the backend handle (and whatever it retains:
//!   callbacks, status, sim bookkeeping) is dropped while the slot keeps the
//!   producing stream, so late waiters still resolve the event as a
//!   completed success. Failures are never tombstoned: their cause feeds
//!   poison edges, `wait_any` verdicts and the card-loss replay closure.
//!
//! Ids come from one counter ([`EventTable::reserve`] is one `fetch_add`),
//! so [`EventTable::len`] is exact and — the one call site runs under the
//! stream lock — a stream's ids ascend in enqueue order.
//!
//! The occupancy gauge is sharded ([`OCC_SHARDS`] cache-padded packed
//! words, folded on read) so concurrent publishers on different id ranges
//! do not bounce a single counter line.

use crate::exec::BackendEvent;
#[cfg(debug_assertions)]
use crate::sync::AtomicBool;
use crate::sync::{class, AtomicU32, AtomicU64, ClassedMutex, OnceLock, Ordering};
use crate::types::{Event, StreamId};
use crossbeam::utils::CachePadded;

/// log2 of the slots per segment.
const SEG_BITS: u64 = 12;
/// Slots per segment (4096 · 16 B of slot header ≈ 64 KiB each).
const SEG_LEN: u64 = 1 << SEG_BITS;
/// Maximum segments; the pointer array is preallocated (4096 · 8 B = 32 KiB)
/// so segment lookup is a plain indexed load. Caps a run at ~16.7M events.
const MAX_SEGS: usize = 4096;

/// log2 of the occupancy shard stride: this many consecutive ids map to one
/// shard, so a given id's publish/retire/revive steps all hit the same
/// packed word and the borrow-carry arithmetic stays shard-local.
const OCC_STRIDE_BITS: u64 = 5;

/// Occupancy gauge shards (folded on read).
#[cfg(not(loom))]
const OCC_SHARDS: usize = 8;
#[cfg(loom)]
const OCC_SHARDS: usize = 2;

/// Sentinel in `Slot::stream` until the slot is published.
const UNPUBLISHED: u32 = u32::MAX;
/// Sentinel in `Slot::stream` for a reserved id handed back unused by a
/// failed batch ([`EventTable::tombstone_reserved`]). Reads as `Retired`
/// (no producing stream exists; the id was never returned to a caller, so
/// nothing legitimately waits on it).
const TOMBSTONE: u32 = u32::MAX - 1;

struct Slot {
    /// Producing stream id; `UNPUBLISHED` until [`EventTable::publish`],
    /// `TOMBSTONE` for a reserved id a failed batch handed back.
    /// Stored with `Release` after the payload so an `Acquire` reader that
    /// sees it set also sees the payload.
    stream: AtomicU32,
    /// `Some` while live; `None` after tombstoning (with `stream` still
    /// set, distinguishing "retired" from "never published").
    be: ClassedMutex<class::EventSlot, Option<BackendEvent>>,
}

/// What a table lookup found.
pub enum EventView {
    /// No such event (out of range, or reserved but not yet published).
    Missing,
    /// Pending or completed, backend handle still held.
    Live(BackendEvent, StreamId),
    /// Tombstoned: completed successfully and compacted away (or a
    /// reserved id a failed batch handed back).
    Retired(StreamId),
}

/// Packed-occupancy step for one live → retired transition: adding
/// `2³² − 1` to the packed word is `live −= 1, retired += 1` in one RMW
/// (the low-half borrow carries into the high half); subtracting it is the
/// reverse (un-retire). Sound only while `live ≥ 1` resp. `retired ≥ 1`,
/// which the per-slot lock guarantees (see `publish`/`compact`/`overwrite`).
const RETIRE_STEP: u64 = (1 << 32) - 1;
/// Packed-occupancy step for tombstoning a never-published id: retired += 1
/// with live untouched (the id was never live).
const TOMBSTONE_STEP: u64 = 1 << 32;

fn unpack_occupancy(packed: u64) -> (u64, u64) {
    (packed & 0xFFFF_FFFF, packed >> 32)
}

/// Occupancy counters surfaced through `HStreams::metrics`.
pub struct TableStats {
    pub reserved: u64,
    pub live: u64,
    pub retired: u64,
    pub watermark: u64,
    /// Reserved-but-never-published ids handed back by failed batches.
    pub tombstoned: u64,
}

fn new_segment() -> Box<[Slot]> {
    (0..SEG_LEN)
        .map(|_| Slot {
            stream: AtomicU32::new(UNPUBLISHED),
            be: ClassedMutex::new(None),
        })
        .collect()
}

pub struct EventTable {
    segs: Box<[OnceLock<Box<[Slot]>>]>,
    next: AtomicU64,
    /// Every id below this is retired (scan start for compaction).
    /// Monotone except for [`EventTable::overwrite`], which rewinds it when
    /// card-loss replay revives a tombstoned slot below it.
    watermark: AtomicU64,
    /// Sharded packed occupancy gauge: per shard, live count (published,
    /// not tombstoned) in the low 32 bits, retired (tombstoned) count in
    /// the high 32. One word per shard so the two counts move in a single
    /// atomic step; [`EventTable::stats`] folds the shards (total ids ≪
    /// 2³², so the halves never carry into each other under summation).
    /// Shard = `id >> OCC_STRIDE_BITS` mod [`OCC_SHARDS`]: all of one id's
    /// transitions hit one word, and publishers on different id ranges hit
    /// different cache lines.
    occupancy: Box<[CachePadded<AtomicU64>]>,
    /// Single-compactor guard; contenders skip (compaction is periodic).
    compactor: ClassedMutex<class::Compactor, ()>,
    /// Never-published ids handed back as tombstones.
    tombstoned: AtomicU64,
    /// Debug-only tripwire for the quiesce contract: `overwrite` (which
    /// runs under the world *write* lock during degradation) must never
    /// race `compact` (which runs under the world *read* lock).
    #[cfg(debug_assertions)]
    compacting: AtomicBool,
}

impl EventTable {
    pub fn new() -> EventTable {
        EventTable {
            segs: (0..MAX_SEGS).map(|_| OnceLock::new()).collect(),
            next: AtomicU64::new(0),
            watermark: AtomicU64::new(0),
            occupancy: (0..OCC_SHARDS)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            compactor: ClassedMutex::new(()),
            tombstoned: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            compacting: AtomicBool::new(false),
        }
    }

    /// Ids handed out so far (reserved, not necessarily published).
    pub fn len(&self) -> u64 {
        // Acquire: pairs with the AcqRel fetch_add in `reserve`, so a
        // thread that learned an id through this bound also sees the
        // side effects sequenced before that id's reservation. (The
        // segment itself is published by the `OnceLock`, which carries its
        // own synchronization — this pairing is belt on top of braces.)
        self.next.load(Ordering::Acquire)
    }

    fn slot(&self, id: u64) -> Option<&Slot> {
        let seg = (id >> SEG_BITS) as usize;
        let idx = (id & (SEG_LEN - 1)) as usize;
        self.segs.get(seg)?.get()?.get(idx)
    }

    /// The occupancy shard a given id's gauge transitions land in.
    fn occ(&self, id: u64) -> &AtomicU64 {
        &self.occupancy[((id >> OCC_STRIDE_BITS) as usize) % OCC_SHARDS]
    }

    /// Mint the next event id (one shared RMW) and make sure its segment
    /// exists. The id is not visible to lookups until
    /// [`EventTable::publish`].
    pub fn reserve(&self) -> u64 {
        // AcqRel: the release half pairs with the Acquire load in `len`
        // (see there); the acquire half orders this mint after any prior
        // reservation whose count we observe.
        let id = self.next.fetch_add(1, Ordering::AcqRel);
        let seg = (id >> SEG_BITS) as usize;
        assert!(
            seg < MAX_SEGS,
            "event table exhausted ({} events); raise MAX_SEGS",
            MAX_SEGS as u64 * SEG_LEN
        );
        self.segs[seg].get_or_init(new_segment);
        id
    }

    /// Hand back ids that were [`EventTable::reserve`]d but will never be
    /// published — a batch enqueue that validated, reserved, and then
    /// failed before submit. The slots retire immediately (they read as
    /// `Retired`, i.e. completed success, so nothing acquires a dependence
    /// edge on them) and the compaction watermark crosses them instead of
    /// stalling forever on a slot no one will ever fill.
    pub fn tombstone_reserved(&self, ids: impl IntoIterator<Item = u64>) {
        let mut n = 0;
        for id in ids {
            let slot = self.slot(id).expect("tombstone of unreserved id");
            let g = slot.be.lock();
            debug_assert!(g.is_none(), "tombstone of a published slot {id}");
            debug_assert_eq!(
                slot.stream.load(Ordering::Acquire),
                UNPUBLISHED,
                "tombstone of a published/tombstoned slot {id}"
            );
            // retired += 1, live untouched (never published) — under the
            // slot lock, like every other slot state transition.
            self.occ(id).fetch_add(TOMBSTONE_STEP, Ordering::Relaxed);
            slot.stream.store(TOMBSTONE, Ordering::Release);
            drop(g);
            n += 1;
        }
        self.tombstoned.fetch_add(n, Ordering::Relaxed);
    }

    /// Fill a reserved slot. Called once per id, after the backend accepted
    /// the submission.
    pub fn publish(&self, id: u64, stream: StreamId, be: BackendEvent) {
        let slot = self.slot(id).expect("publish of unreserved event id");
        let mut g = slot.be.lock();
        debug_assert!(g.is_none(), "double publish of event {id}");
        debug_assert_eq!(
            slot.stream.load(Ordering::Acquire),
            UNPUBLISHED,
            "publish of a tombstoned event id {id}"
        );
        *g = Some(be);
        // live += 1 under the slot lock, before it is released: tombstoning
        // (live -= 1, in `compact`) also runs under the slot lock, so the
        // decrement can never land before this increment and the gauge can
        // never transiently underflow. (Bumping it after releasing the lock
        // *would* underflow — the `loom_publish_vs_compact` observer thread
        // catches exactly that mutation.) Relaxed is enough: the lock
        // serializes the RMW pair and the gauge feeds metrics only.
        self.occ(id).fetch_add(1, Ordering::Relaxed);
        // Publication point. Release: pairs with the Acquire loads in
        // `view_id`/`compact`, so a reader that observes the stream id also
        // observes the payload written above (`view_id` relies on it for
        // the Missing-vs-Retired distinction on a tombstoned slot).
        slot.stream.store(stream.0, Ordering::Release);
        // The slot lock is held across the store: every slot state
        // transition (publish, tombstone, revive) is serialized by it.
    }

    /// Replace a published event's backend in place (card-loss replay). A
    /// tombstoned slot comes back to life: the replayed attempt is pending
    /// again, and the retirement watermark is rewound below it so a later
    /// sweep re-tombstones the slot when it completes again (without the
    /// rewind the revived backend would sit below the scan start forever).
    ///
    /// Quiesce contract: callers run under the world *write* lock
    /// (degradation is stop-the-world), so no compactor — which holds the
    /// world *read* lock — is ever concurrent. Checked in debug builds via
    /// the `compacting` tripwire.
    pub fn overwrite(&self, id: u64, be: BackendEvent) {
        #[cfg(debug_assertions)]
        debug_assert!(
            !self.compacting.load(Ordering::Relaxed),
            "overwrite racing compact violates the world-lock quiesce contract"
        );
        let slot = self.slot(id).expect("overwrite of unreserved event id");
        // Acquire: pairs with publish's Release store — overwrite is only
        // legal on a slot whose publication we have observed.
        debug_assert_ne!(slot.stream.load(Ordering::Acquire), UNPUBLISHED);
        let mut g = slot.be.lock();
        if g.is_none() {
            // Un-retire: live += 1, retired -= 1 in one packed step. The
            // slot lock serializes this with the tombstone that set `None`,
            // so retired ≥ 1 here and the subtraction cannot borrow across
            // the halves. Relaxed: gauge only, ordering via the slot lock.
            self.occ(id).fetch_sub(RETIRE_STEP, Ordering::Relaxed);
            // AcqRel for the RMW handshake with other rewinds; the next
            // compactor re-reads the watermark under the compactor mutex.
            self.watermark.fetch_min(id, Ordering::AcqRel);
        }
        *g = Some(be);
    }

    pub fn view(&self, ev: Event) -> EventView {
        self.view_id(ev.0)
    }

    pub fn view_id(&self, id: u64) -> EventView {
        let Some(slot) = self.slot(id) else {
            return EventView::Missing;
        };
        // Acquire: pairs with publish's Release store. Observing the
        // stream id set means the payload write is visible, so a `None`
        // under the slot lock below can only mean "tombstoned", never
        // "not yet published" — the Missing/Retired distinction.
        let s = slot.stream.load(Ordering::Acquire);
        if s == UNPUBLISHED {
            return EventView::Missing;
        }
        match &*slot.be.lock() {
            Some(be) => EventView::Live(be.clone(), StreamId(s)),
            None => EventView::Retired(StreamId(s)),
        }
    }

    /// Clone-free retirement probe: applies `ok` to the live payload under
    /// the slot lock instead of cloning it out (the dependence-window sweep
    /// calls this once per pending action per enqueue). Tombstoned slots
    /// are retired successes by construction; unpublished or missing ids
    /// are not retired.
    pub fn retired_ok(&self, ev: Event, ok: impl FnOnce(&BackendEvent) -> bool) -> bool {
        let Some(slot) = self.slot(ev.0) else {
            return false;
        };
        // Acquire: pairs with publish's Release store (see `view_id`).
        if slot.stream.load(Ordering::Acquire) == UNPUBLISHED {
            return false;
        }
        match &*slot.be.lock() {
            Some(be) => ok(be),
            None => true,
        }
    }

    /// Tombstone completed successes. `verdict` returns `None` while the
    /// event is pending, `Some(succeeded)` once complete; only
    /// `Some(true)` slots are tombstoned. One compactor runs at a time;
    /// concurrent callers return immediately. The scan starts at the
    /// retirement watermark (the longest fully-retired prefix), so steady
    /// state cost is proportional to the live window, not to table length.
    pub fn compact(&self, verdict: impl Fn(&BackendEvent) -> Option<bool>) {
        let Some(_g) = self.compactor.try_lock() else {
            return;
        };
        #[cfg(debug_assertions)]
        self.compacting.store(true, Ordering::Relaxed);
        let len = self.len();
        // Acquire: pairs with the Release store below (a previous
        // compactor's watermark) and with overwrite's rewind; the compactor
        // mutex already orders compactor-to-compactor handoffs — the
        // pairing additionally covers the lock-free metrics reader.
        let start = self.watermark.load(Ordering::Acquire);
        let mut wm = start;
        let mut contiguous = true;
        for id in start..len {
            let retired_here = match self.slot(id) {
                None => false, // reserved, segment raced away: treat as live
                Some(slot) => {
                    // Acquire: pairs with publish's Release store — only
                    // published slots are candidates; a mid-publish slot
                    // (payload written, stream not yet stored) is skipped
                    // and retried next sweep.
                    if slot.stream.load(Ordering::Acquire) == UNPUBLISHED {
                        false // mid-publish on another thread
                    } else {
                        let mut g = slot.be.lock();
                        match &*g {
                            None => true, // already tombstoned
                            Some(be) => match verdict(be) {
                                Some(true) => {
                                    *g = None;
                                    // live -= 1, retired += 1 in one packed
                                    // step under the slot lock; publish
                                    // incremented live before this slot
                                    // became visible, so live ≥ 1 and the
                                    // borrow stays within the low half.
                                    // Relaxed: gauge only (see publish).
                                    self.occ(id).fetch_add(RETIRE_STEP, Ordering::Relaxed);
                                    true
                                }
                                _ => false, // pending or failed: keep
                            },
                        }
                    }
                }
            };
            if contiguous {
                if retired_here {
                    wm = id + 1;
                } else {
                    contiguous = false;
                }
            }
        }
        // Release: pairs with the Acquire loads above/in `stats`. The
        // watermark only ever covers slots this sweep (or a predecessor
        // under the same mutex) observed as retired — never a live or
        // failed slot, the invariant the loom models check.
        self.watermark.store(wm, Ordering::Release);
        #[cfg(debug_assertions)]
        self.compacting.store(false, Ordering::Relaxed);
    }

    pub fn stats(&self) -> TableStats {
        // Fold the shards. Each shard's packed word is internally
        // consistent (every id-state transition is a single RMW on its
        // shard); the halves cannot carry into each other under summation
        // because total ids ≪ 2³². The fold is a snapshot across shards —
        // fine for a metrics gauge.
        let mut packed = 0u64;
        for c in self.occupancy.iter() {
            packed = packed.wrapping_add(c.load(Ordering::Relaxed));
        }
        let (live, retired) = unpack_occupancy(packed);
        TableStats {
            reserved: self.len(),
            live,
            retired,
            // Acquire: pairs with compact's Release store (metrics-only).
            watermark: self.watermark.load(Ordering::Acquire),
            tombstoned: self.tombstoned.load(Ordering::Relaxed),
        }
    }
}

// Under `--cfg loom` the loom models below replace these (the std unit
// tests spawn real threads and fill whole segments, which loom's
// scheduler would neither see nor afford).
#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use hs_coi::CoiEvent;

    fn done_event() -> BackendEvent {
        let e = CoiEvent::new();
        e.signal();
        BackendEvent::Thread(e)
    }

    fn pending_event() -> BackendEvent {
        BackendEvent::Thread(CoiEvent::new())
    }

    fn failed_event() -> BackendEvent {
        let e = CoiEvent::new();
        e.fail("injected");
        BackendEvent::Thread(e)
    }

    /// The thread-mode compaction verdict, as `HStreams::compact_now`
    /// states it: pending → `None`, success → `Some(true)`, failure →
    /// `Some(false)` (kept: failures feed poison edges and replay).
    fn thread_verdict(be: &BackendEvent) -> Option<bool> {
        match be {
            BackendEvent::Thread(e) => match e.status() {
                hs_coi::EventStatus::Pending => None,
                hs_coi::EventStatus::Done => Some(true),
                hs_coi::EventStatus::Failed(_) => Some(false),
            },
            BackendEvent::Sim(_) => None,
        }
    }

    #[test]
    fn reserve_publish_view_roundtrip() {
        let t = EventTable::new();
        let id = t.reserve();
        assert!(matches!(t.view_id(id), EventView::Missing), "unpublished");
        t.publish(id, StreamId(3), done_event());
        match t.view_id(id) {
            EventView::Live(BackendEvent::Thread(e), s) => {
                assert!(e.is_complete());
                assert_eq!(s, StreamId(3));
            }
            _ => panic!("expected live thread event"),
        }
        assert!(matches!(t.view_id(id + 1), EventView::Missing));
    }

    #[test]
    fn ids_are_dense_and_cross_segments() {
        let t = EventTable::new();
        let n = SEG_LEN + 10;
        for i in 0..n {
            assert_eq!(t.reserve(), i);
            t.publish(i, StreamId(0), done_event());
        }
        assert_eq!(t.len(), n);
        assert!(matches!(t.view_id(SEG_LEN + 5), EventView::Live(..)));
        // The sharded gauge folds across many strides (> OCC_SHARDS).
        let st = t.stats();
        assert_eq!(st.live, n);
        assert_eq!(st.retired, 0);
    }

    #[test]
    fn concurrent_reserves_are_unique_and_gap_free() {
        let t = EventTable::new();
        const THREADS: usize = 4;
        const PER: usize = 100;
        let ids: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        (0..PER)
                            .map(|_| {
                                let id = t.reserve();
                                t.publish(id, StreamId(0), done_event());
                                id
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), THREADS * PER, "duplicate ids handed out");
        // Exactly what was asked for was minted: one sweep retires the
        // entire reserved range, no gaps.
        let st = t.stats();
        assert_eq!(st.reserved, (THREADS * PER) as u64);
        assert_eq!((st.live, st.retired), (st.reserved, 0));
        t.compact(thread_verdict);
        let st = t.stats();
        assert_eq!(st.live, 0);
        assert_eq!(st.watermark, st.reserved, "watermark stalled on a gap");
    }

    #[test]
    fn compact_tombstones_successes_keeps_pending() {
        let t = EventTable::new();
        for i in 0..10 {
            let id = t.reserve();
            let be = if i == 5 {
                pending_event()
            } else {
                done_event()
            };
            t.publish(id, StreamId(0), be);
        }
        t.compact(|be| match be {
            BackendEvent::Thread(e) => e.is_complete().then_some(true),
            BackendEvent::Sim(_) => None,
        });
        let st = t.stats();
        assert_eq!(st.retired, 9);
        assert_eq!(st.live, 1);
        assert_eq!(st.watermark, 5, "watermark stops at the pending slot");
        assert!(matches!(t.view_id(3), EventView::Retired(_)));
        assert!(matches!(t.view_id(5), EventView::Live(..)));
    }

    #[test]
    fn overwrite_revives_a_tombstoned_slot() {
        let t = EventTable::new();
        let id = t.reserve();
        t.publish(id, StreamId(1), done_event());
        t.compact(|_| Some(true));
        assert!(matches!(t.view_id(id), EventView::Retired(_)));
        t.overwrite(id, pending_event());
        assert!(matches!(t.view_id(id), EventView::Live(..)));
        let st = t.stats();
        assert_eq!(st.live, 1);
        assert_eq!(st.retired, 0);
    }

    #[test]
    fn watermark_bounds_live_window_over_many_cycles() {
        let t = EventTable::new();
        for _ in 0..100 {
            for _ in 0..64 {
                let id = t.reserve();
                t.publish(id, StreamId(0), done_event());
            }
            t.compact(|_| Some(true));
        }
        let st = t.stats();
        assert_eq!(st.live, 0);
        assert_eq!(st.watermark, st.reserved);
    }

    #[test]
    fn failed_events_survive_compaction() {
        let t = EventTable::new();
        for i in 0..6 {
            let id = t.reserve();
            let be = if i == 2 { failed_event() } else { done_event() };
            t.publish(id, StreamId(0), be);
        }
        t.compact(thread_verdict);
        let st = t.stats();
        assert_eq!(st.retired, 5);
        assert_eq!(st.live, 1);
        assert_eq!(st.watermark, 2, "watermark stops below the failure");
        assert!(matches!(t.view_id(2), EventView::Live(..)));
    }

    /// Regression: card-loss replay revives a slot *below* the watermark;
    /// without the watermark rewind in `overwrite` the revived backend
    /// would sit below the scan start forever and never be re-collected.
    #[test]
    fn overwrite_below_watermark_rewinds_the_sweep() {
        let t = EventTable::new();
        for _ in 0..8 {
            let id = t.reserve();
            t.publish(id, StreamId(0), done_event());
        }
        t.compact(thread_verdict);
        assert_eq!(t.stats().watermark, 8);
        // Replay revives id 3 as pending again.
        t.overwrite(3, pending_event());
        let st = t.stats();
        assert_eq!(st.watermark, 3, "watermark rewound to the revived slot");
        assert_eq!(st.live, 1);
        assert_eq!(st.retired, 7);
        // Still pending: a sweep keeps it, watermark stays put.
        t.compact(thread_verdict);
        assert!(matches!(t.view_id(3), EventView::Live(..)));
        assert_eq!(t.stats().watermark, 3);
        // The replayed attempt completes; the next sweep re-retires it and
        // the watermark recovers the full prefix.
        t.overwrite(3, done_event());
        t.compact(thread_verdict);
        let st = t.stats();
        assert_eq!(st.live, 0);
        assert_eq!(st.retired, 8);
        assert_eq!(st.watermark, 8);
    }

    /// Event-table invariants under arbitrary publish / complete / fail /
    /// compact / revive sequences, checked against a shadow model after
    /// every op:
    ///
    /// * `watermark ≤ next` (reserved);
    /// * `live + retired == published` (the packed gauge balances);
    /// * every id below the watermark is retired;
    /// * failed events are never retired.
    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Shadow {
            Pending,
            Done,
            Failed,
            Retired,
        }

        fn check(t: &EventTable, shadow: &[Shadow]) {
            let st = t.stats();
            assert_eq!(st.reserved, shadow.len() as u64);
            assert!(st.watermark <= st.reserved, "watermark past next");
            let live_shadow = shadow
                .iter()
                .filter(|s| !matches!(s, Shadow::Retired))
                .count() as u64;
            let retired_shadow = shadow
                .iter()
                .filter(|s| matches!(s, Shadow::Retired))
                .count() as u64;
            assert_eq!(st.live, live_shadow, "live gauge drifted");
            assert_eq!(st.retired, retired_shadow, "retired gauge drifted");
            assert_eq!(
                st.live + st.retired,
                shadow.len() as u64,
                "gauge unbalanced"
            );
            for (id, s) in shadow.iter().enumerate() {
                let view = t.view_id(id as u64);
                if (id as u64) < st.watermark {
                    assert!(
                        matches!(view, EventView::Retired(_)),
                        "watermark passed non-retired id {id} ({s:?})"
                    );
                }
                match s {
                    Shadow::Retired => {
                        assert!(matches!(view, EventView::Retired(_)))
                    }
                    _ => assert!(
                        matches!(view, EventView::Live(..)),
                        "non-retired id {id} ({s:?}) not live"
                    ),
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            #[test]
            fn table_invariants_hold_under_arbitrary_ops(ops in proptest::collection::vec(0u8..7, 1..100)) {
                let t = EventTable::new();
                let mut shadow: Vec<Shadow> = Vec::new();
                let mut handles: Vec<CoiEvent> = Vec::new();
                for op in ops {
                    match op {
                        // Publish an already-completed success.
                        0 => {
                            let id = t.reserve();
                            t.publish(id, StreamId(0), done_event());
                            shadow.push(Shadow::Done);
                            handles.push(CoiEvent::done());
                        }
                        // Publish a pending action, keep the handle.
                        1 => {
                            let e = CoiEvent::new();
                            let id = t.reserve();
                            t.publish(id, StreamId(0), BackendEvent::Thread(e.clone()));
                            shadow.push(Shadow::Pending);
                            handles.push(e);
                        }
                        // Publish an already-failed action.
                        2 => {
                            let id = t.reserve();
                            t.publish(id, StreamId(0), failed_event());
                            shadow.push(Shadow::Failed);
                            handles.push(CoiEvent::done());
                        }
                        // Complete the oldest pending action.
                        3 => {
                            if let Some(i) = shadow.iter().position(|s| *s == Shadow::Pending) {
                                handles[i].signal();
                                shadow[i] = Shadow::Done;
                            }
                        }
                        // Fail the oldest pending action.
                        4 => {
                            if let Some(i) = shadow.iter().position(|s| *s == Shadow::Pending) {
                                handles[i].fail("injected");
                                shadow[i] = Shadow::Failed;
                            }
                        }
                        // Sweep: completed successes tombstone.
                        5 => {
                            t.compact(thread_verdict);
                            for s in shadow.iter_mut() {
                                if *s == Shadow::Done {
                                    *s = Shadow::Retired;
                                }
                            }
                        }
                        // Card-loss replay: revive the oldest retired slot.
                        _ => {
                            if let Some(i) = shadow.iter().position(|s| *s == Shadow::Retired) {
                                let e = CoiEvent::new();
                                t.overwrite(i as u64, BackendEvent::Thread(e.clone()));
                                shadow[i] = Shadow::Pending;
                                handles[i] = e;
                            }
                        }
                    }
                    check(&t, &shadow);
                }
            }
        }
    }
}

/// Exhaustive interleaving models of the table's lock-free protocols, run
/// with `RUSTFLAGS="--cfg loom" cargo test -p hstreams-core --lib loom_`.
/// See DESIGN.md §14 for what these do and don't prove.
#[cfg(all(test, loom))]
mod loom_models {
    use super::*;
    use crate::sync::{Arc, RwLock};
    use hs_coi::CoiEvent;

    fn done_event() -> BackendEvent {
        let e = CoiEvent::new();
        e.signal();
        BackendEvent::Thread(e)
    }

    fn thread_verdict(be: &BackendEvent) -> Option<bool> {
        match be {
            BackendEvent::Thread(e) => match e.status() {
                hs_coi::EventStatus::Pending => None,
                hs_coi::EventStatus::Done => Some(true),
                hs_coi::EventStatus::Failed(_) => Some(false),
            },
            BackendEvent::Sim(_) => None,
        }
    }

    /// Publish racing a reader: the Release store / Acquire load pairing
    /// means the reader sees either Missing (not yet published) or the
    /// fully-written payload with the right stream id — never a torn
    /// UNPUBLISHED/payload mix, and never a spurious Retired.
    #[test]
    fn loom_publish_vs_reader() {
        loom::model(|| {
            let t = Arc::new(EventTable::new());
            let id = t.reserve();
            let t2 = t.clone();
            let reader = loom::thread::spawn(move || match t2.view_id(id) {
                EventView::Missing => {} // published later: fine
                EventView::Live(BackendEvent::Thread(e), s) => {
                    assert_eq!(s, StreamId(7), "stream id torn");
                    assert!(e.is_complete(), "payload not visible with stream id");
                }
                EventView::Live(..) => panic!("wrong backend variant"),
                EventView::Retired(_) => panic!("retired without any compact"),
            });
            t.publish(id, StreamId(7), done_event());
            reader.join().unwrap();
            assert!(matches!(t.view_id(id), EventView::Live(..)));
            let st = t.stats();
            assert_eq!((st.live, st.retired), (1, 0));
        });
    }

    /// Publish racing the compactor: on every interleaving the watermark
    /// never passes a live or unpublished slot and the packed occupancy
    /// gauge stays balanced (the old two-counter scheme could transiently
    /// underflow `live` here).
    #[test]
    fn loom_publish_vs_compact() {
        // Three threads: exhaustive exploration blows the schedule budget,
        // so bound preemptions CHESS-style (2 catches the torn-gauge and
        // underflow interleavings; an env bound may tighten it further).
        let mut b = loom::model::Builder::new();
        b.preemption_bound = Some(b.preemption_bound.map_or(2, |p| p.min(2)));
        b.check(|| {
            let t = Arc::new(EventTable::new());
            let id0 = t.reserve();
            t.publish(id0, StreamId(0), done_event());
            let id1 = t.reserve();
            let t2 = t.clone();
            let publisher = loom::thread::spawn(move || {
                t2.publish(id1, StreamId(1), done_event());
            });
            // Concurrent metrics reader: the torn-snapshot victim. With
            // the pre-fix protocol (live incremented *after* the slot
            // becomes visible, on a separate counter) this observer can
            // catch `live` mid-underflow at ~2⁶⁴.
            let t3 = t.clone();
            let observer = loom::thread::spawn(move || {
                let st = t3.stats();
                assert!(st.live <= 2, "live gauge underflowed: {}", st.live);
                assert!(st.retired <= 2, "retired gauge overran: {}", st.retired);
                assert!(st.live + st.retired <= 2, "gauge counted unpublished slots");
            });
            t.compact(thread_verdict);
            publisher.join().unwrap();
            observer.join().unwrap();
            let st = t.stats();
            assert!(st.watermark <= st.reserved);
            assert_eq!(st.live + st.retired, 2, "gauge unbalanced after race");
            for id in 0..st.watermark {
                assert!(
                    matches!(t.view_id(id), EventView::Retired(_)),
                    "watermark passed a non-retired slot"
                );
            }
            // A quiesced sweep finishes the job deterministically.
            t.compact(thread_verdict);
            let st = t.stats();
            assert_eq!((st.live, st.retired, st.watermark), (0, 2, 2));
        });
    }

    /// Un-retire (card-loss replay) against the sweep, under the world
    /// RwLock protocol `HStreams` uses: replay holds the write lock,
    /// compactors hold read locks. On every interleaving the revived slot
    /// is re-collected (watermark rewind) and the gauge balances.
    #[test]
    fn loom_unretire_vs_sweep() {
        loom::model(|| {
            let world = Arc::new(RwLock::new(()));
            let t = Arc::new(EventTable::new());
            for _ in 0..2 {
                let id = t.reserve();
                t.publish(id, StreamId(0), done_event());
            }
            t.compact(thread_verdict);
            assert_eq!(t.stats().watermark, 2);
            let (t2, w2) = (t.clone(), world.clone());
            let degrader = loom::thread::spawn(move || {
                let _w = w2.write(); // stop-the-world, as in degrade_card
                t2.overwrite(0, done_event());
            });
            {
                let _w = world.read(); // as in compact_now
                t.compact(thread_verdict);
            }
            degrader.join().unwrap();
            {
                let _w = world.read();
                t.compact(thread_verdict);
            }
            let st = t.stats();
            assert_eq!(st.live, 0, "revived slot never re-collected");
            assert_eq!(st.retired, 2);
            assert_eq!(st.watermark, 2, "watermark stuck below revived slot");
        });
    }
}
