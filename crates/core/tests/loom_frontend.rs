//! Loom models of the concurrent front-end protocol: per-stream window
//! mutexes under the world RwLock, racing stop-the-world degradation.
//!
//! The full `HStreams` runtime cannot run under loom — its thread executor
//! spawns free-running OS workers outside the model scheduler — so these
//! models drive the *front-end data structures* (`EventTable`,
//! `StreamState`, the world `RwLock`, the per-stream `Mutex`) through the
//! exact acquisition sequence `enqueue_built`/`degrade_card` use, per the
//! documented lock order (DESIGN.md §13): `world` → `streams` (vec) →
//! per-stream mutex → event-table slot.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test --test loom_frontend`.
//! Every interleaving is explored (bounded CHESS-style for the three-thread
//! model); a deadlock on any schedule — e.g. an acquisition order inversion
//! — fails the test, as does any assertion below.
#![cfg(loom)]

use hstreams_core::events::{EventTable, EventView};
use hstreams_core::stream::StreamState;
use hstreams_core::sync::{Arc, AtomicUsize, Condvar, Mutex, Ordering, RwLock};
use hstreams_core::types::{DomainId, Event, StreamId};
use hstreams_core::{ActionKind, CpuMask};

fn done_event() -> hs_coi::CoiEvent {
    hs_coi::CoiEvent::done()
}

/// The front-end state shared by the model threads: the stop-the-world
/// lock, the stream table, and the event table — the pieces of `Inner`
/// the enqueue/degrade race actually touches.
struct Frontend {
    world: RwLock<()>,
    streams: RwLock<Vec<Arc<Mutex<StreamState>>>>,
    events: EventTable,
}

impl Frontend {
    fn new(n_streams: usize) -> Frontend {
        let streams = (0..n_streams)
            .map(|i| {
                Arc::new(Mutex::new(StreamState::new(
                    StreamId(i as u32),
                    DomainId(1),
                    CpuMask::first(4),
                )))
            })
            .collect();
        Frontend {
            world: RwLock::new(()),
            streams: RwLock::new(streams),
            events: EventTable::new(),
        }
    }

    /// A single enqueue: a batch of one.
    fn enqueue(&self, s: usize) -> u64 {
        self.enqueue_batch(s, 1)[0]
    }

    /// One `enqueue_built`-shaped enqueue of K actions: world shared →
    /// stream-table shared (dropped before the per-stream lock, as
    /// `stream_arc` does) → per-stream mutex, under which K slots are
    /// reserved and windowed incrementally and *all* of them publish
    /// before the lock drops (the publish ordering contract, DESIGN.md §13).
    fn enqueue_batch(&self, s: usize, k: usize) -> Vec<u64> {
        let _world = self.world.read();
        let st_arc = { self.streams.read()[s].clone() };
        let mut st = st_arc.lock();
        let mut ids = Vec::with_capacity(k);
        for _ in 0..k {
            let id = self.events.reserve();
            st.push(Event(id), &[], ActionKind::Normal);
            ids.push(id);
        }
        // One executor round-trip for the whole batch, then publish
        // everything while the window lock is still held.
        for &id in &ids {
            self.events.publish(id, done_event());
        }
        ids
    }

    /// The `degrade_card` prefix: exclusive world lock, then walk the
    /// stream table (shared) taking each stream's mutex — the same
    /// acquisition sequence as the remap step. Asserts the stop-the-world
    /// guarantee: with the write lock held, no enqueue is mid-flight, so
    /// the event table has no reserved-but-unpublished slot and each
    /// stream's window agrees with the table.
    fn degrade_scan(&self) -> u64 {
        let _world = self.world.write();
        let mut windowed = 0u64;
        {
            let streams = self.streams.read();
            for st_arc in streams.iter() {
                let st = st_arc.lock();
                windowed += st.enqueued();
            }
        }
        let published = self.events.len();
        assert_eq!(
            windowed, published,
            "stop-the-world saw a torn enqueue: {windowed} events in stream \
             windows vs {published} reserved slots"
        );
        for id in 0..published {
            assert!(
                !matches!(self.events.view_id(id), EventView::Missing),
                "slot {id} reserved but unpublished under the exclusive world \
                 lock — an enqueue escaped the shared world lock"
            );
        }
        published
    }
}

/// One enqueuer racing stop-the-world degradation, exhaustively explored.
/// The world RwLock must serialize them: the degrader sees the enqueue
/// either fully absent or fully present (reserve+publish+window push are
/// atomic under the shared lock), never torn — and the enqueue is never
/// lost afterwards.
#[test]
fn loom_enqueue_vs_degrade_exhaustive() {
    loom::model(|| {
        let fe = Arc::new(Frontend::new(1));
        let fe2 = fe.clone();
        let enq = loom::thread::spawn(move || fe2.enqueue(0));
        let seen = fe.degrade_scan();
        assert!(seen <= 1);
        let id = enq.join().unwrap();
        assert!(
            matches!(fe.events.view_id(id), EventView::Live(..)),
            "enqueue lost across degradation"
        );
        assert_eq!(fe.events.len(), 1);
        assert_eq!(fe.streams.read()[0].lock().enqueued(), 1);
    });
}

/// Two enqueuers on distinct streams racing the degrader (three threads,
/// CHESS preemption bound 2). Distinct streams never touch each other's
/// mutex, so both proceed concurrently under the shared world lock; the
/// exclusive lock still observes an untorn world at every interleaving.
#[test]
fn loom_two_streams_vs_degrade_bounded() {
    let mut b = loom::model::Builder::new();
    b.preemption_bound = Some(b.preemption_bound.map_or(2, |p| p.min(2)));
    b.check(|| {
        let fe = Arc::new(Frontend::new(2));
        let (fe1, fe2) = (fe.clone(), fe.clone());
        let e1 = loom::thread::spawn(move || fe1.enqueue(0));
        let e2 = loom::thread::spawn(move || fe2.enqueue(1));
        fe.degrade_scan();
        let (id1, id2) = (e1.join().unwrap(), e2.join().unwrap());
        assert_ne!(id1, id2, "event ids must be unique across streams");
        assert_eq!(fe.events.len(), 2);
        for id in [id1, id2] {
            assert!(matches!(fe.events.view_id(id), EventView::Live(..)));
        }
        let st = fe.events.stats();
        assert_eq!((st.live, st.retired), (2, 0));
    });
}

/// A batched enqueue racing stop-the-world degradation, exhaustively
/// explored. The batch reserves and windows its slots one by one but
/// holds the shared world lock (and the stream mutex) from first reserve
/// to last publish — so the degrader must see the batch all-or-nothing:
/// zero or K events, never a prefix, and never a reserved-but-unpublished
/// slot.
#[test]
fn loom_batch_publish_vs_degrade() {
    loom::model(|| {
        let fe = Arc::new(Frontend::new(1));
        let fe2 = fe.clone();
        let batch = loom::thread::spawn(move || fe2.enqueue_batch(0, 2));
        let seen = fe.degrade_scan();
        assert!(
            seen == 0 || seen == 2,
            "degrader saw a torn batch: {seen} of 2 events"
        );
        let ids = batch.join().unwrap();
        assert_eq!(ids.len(), 2);
        for id in ids {
            assert!(
                matches!(fe.events.view_id(id), EventView::Live(..)),
                "batch event lost across degradation"
            );
        }
        let st = fe.events.stats();
        assert_eq!((st.live, st.retired), (2, 0));
        assert_eq!(st.live + st.retired, st.reserved, "gauge unbalanced");
        assert_eq!(fe.streams.read()[0].lock().enqueued(), 2);
    });
}

/// Degradation's replay step racing a same-stream enqueue: the replayer
/// holds the exclusive world lock while it overwrites a failed slot
/// in place (`replay_after_loss`); a concurrent enqueue on the same
/// stream holds the shared lock. On every interleaving the replayed
/// slot revives (live again, watermark rewound below it) and the new
/// enqueue is neither lost nor double-counted.
#[test]
fn loom_replay_vs_enqueue_same_stream() {
    loom::model(|| {
        let fe = Arc::new(Frontend::new(1));
        // A retired action from before the card loss…
        let id0 = fe.enqueue(0);
        fe.events.compact(|e| match e.status() {
            hs_coi::EventStatus::Pending => None,
            hs_coi::EventStatus::Done => Some(true),
            hs_coi::EventStatus::Failed(_) => Some(false),
        });
        assert!(matches!(fe.events.view_id(id0), EventView::Retired));
        let fe2 = fe.clone();
        let enq = loom::thread::spawn(move || fe2.enqueue(0));
        {
            // Replay: exclusive world lock, overwrite the slot in place.
            let _world = fe.world.write();
            fe.events.overwrite(id0, done_event());
        }
        let id1 = enq.join().unwrap();
        assert!(
            matches!(fe.events.view_id(id0), EventView::Live(..)),
            "replayed slot did not revive"
        );
        assert!(matches!(fe.events.view_id(id1), EventView::Live(..)));
        let st = fe.events.stats();
        assert_eq!(
            (st.live, st.retired),
            (2, 0),
            "gauge unbalanced after replay vs enqueue"
        );
        assert!(
            st.watermark <= id0,
            "watermark not rewound below the revived slot"
        );
    });
}

/// Where the steps of the wake-on-demand rule fall, in the model below.
#[derive(Clone, Copy, Debug)]
enum WakeOrder {
    /// `shims/parking_lot`'s `Condvar`, which every condvar on a hot path
    /// (`EventCore`, `WindowMem`, the worker pool, the timer wheel) is: the
    /// waiter counts itself inside the wait, under the lock that checked
    /// the predicate; the notifier publishes the predicate under the lock
    /// and reads the count after unlocking, as `WindowMem::release` does.
    Shim,
    /// The tempting waiter: check the predicate, drop the lock, then count
    /// itself — a completion in that window sees no sleeper.
    WaiterCountsOutsideTheLock,
    /// The tempting notifier: read the count before publishing the
    /// predicate — a waiter that counts itself in between is never woken.
    NotifierReadsFirst,
}

/// The wake-on-demand rule of the `parking_lot` shim's `Condvar`: a notify
/// goes to the condvar only while the sleeper count is non-zero. A model of
/// the rule, not of the compiled shim — the shim is built on `std::sync`
/// and cannot take a loom edge (the frozen `benchmark/` workspace locks its
/// dependency set); the compiled code is raced by the shim's own ping-pong
/// test and by `a_waiter_racing_the_completion_is_never_left_asleep` in
/// hs-coi.
fn wake_on_demand_model(order: WakeOrder) {
    loom::model(move || {
        // (done, the condvar, its sleepers)
        let ev = Arc::new((Mutex::new(false), Condvar::new(), AtomicUsize::new(0)));
        let ev2 = ev.clone();
        let waiter = loom::thread::spawn(move || {
            let (m, cv, sleepers) = &*ev2;
            let mut done = m.lock();
            while !*done {
                if let WakeOrder::WaiterCountsOutsideTheLock = order {
                    drop(done);
                    sleepers.fetch_add(1, Ordering::Relaxed);
                    done = m.lock();
                } else {
                    sleepers.fetch_add(1, Ordering::Relaxed);
                }
                cv.wait(&mut done);
                sleepers.fetch_sub(1, Ordering::Relaxed);
            }
        });
        let (m, cv, sleepers) = &*ev;
        let early = matches!(order, WakeOrder::NotifierReadsFirst)
            .then(|| sleepers.load(Ordering::Relaxed));
        *m.lock() = true;
        let asleep = early.unwrap_or_else(|| sleepers.load(Ordering::Relaxed));
        if asleep > 0 {
            cv.notify_all();
        }
        // A waiter left asleep is a deadlock, which the scheduler reports.
        waiter.join().unwrap();
    });
}

/// A waiter racing the notifier is never left asleep, on every schedule —
/// and the model does find the lost wake-up in each tempting reordering.
#[test]
fn loom_completion_wakes_a_racing_waiter() {
    wake_on_demand_model(WakeOrder::Shim);
    for order in [
        WakeOrder::WaiterCountsOutsideTheLock,
        WakeOrder::NotifierReadsFirst,
    ] {
        let lost = std::panic::catch_unwind(|| wake_on_demand_model(order));
        assert!(
            lost.is_err(),
            "the model missed the lost wake-up of {order:?}"
        );
    }
}
