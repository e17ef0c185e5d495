//! The lock-order witness records what it should. The edge multiset and
//! the enable flag are process-global, so this lives in a test binary of
//! its own: as a unit test it shared a process with every other unit test
//! that takes a classed lock, and whichever ran while recording was on
//! added edges to the multiset this test compares exactly. The two tests
//! here take [`SERIAL`] for the same reason.

use hstreams_core::lockorder::{acquiring, clear, disable, edges, enable, LockClass};
use hstreams_core::sync::{class, ClassedMutex, ClassedRwLock};

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The bare primitive the classed locks call.
#[test]
fn records_held_to_acquired_edges() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    clear();
    enable();
    {
        let _w = acquiring(LockClass::World);
        let _s = acquiring(LockClass::Stream);
        let _e = acquiring(LockClass::EventSlot);
    }
    disable();
    assert_eq!(
        edges(),
        vec![
            (LockClass::World, LockClass::Stream, 1),
            (LockClass::World, LockClass::EventSlot, 1),
            (LockClass::Stream, LockClass::EventSlot, 1),
        ]
    );
    // Disabled: nothing further is recorded.
    {
        let _w = acquiring(LockClass::World);
        let _s = acquiring(LockClass::Streams);
    }
    assert_eq!(edges().len(), 3);

    // Out-of-order guard drop: dropping the outer guard first takes
    // `world` off the held stack, so the next acquisition records an
    // edge from `stream` only.
    clear();
    enable();
    let w = acquiring(LockClass::World);
    let s = acquiring(LockClass::Stream);
    drop(w);
    let _b = acquiring(LockClass::Buffers);
    drop(s);
    disable();
    assert_eq!(
        edges(),
        vec![
            (LockClass::World, LockClass::Stream, 1),
            (LockClass::Stream, LockClass::Buffers, 1),
        ]
    );
    clear();
    assert!(edges().is_empty());
}

/// The same bookkeeping through the locks themselves: the class comes from
/// the lock's type and the witness lives and dies with the guard.
#[test]
fn classed_locks_witness_their_own_acquisitions() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let world = ClassedRwLock::<class::World, ()>::new(());
    let stream = ClassedMutex::<class::Stream, u32>::new(7);
    let buffers = ClassedRwLock::<class::Buffers, ()>::new(());
    clear();
    enable();
    // A failed `try_lock` leaves nothing on the held stack: the next
    // acquisition records no edge from `stream`.
    std::thread::scope(|sc| {
        let held = stream.lock();
        sc.spawn(|| {
            assert!(stream.try_lock().is_none());
            drop(buffers.read());
        })
        .join()
        .expect("prober");
        assert_eq!(*held, 7);
    });
    assert_eq!(edges(), vec![]);
    // A successful one holds its class until the guard drops.
    {
        let mut g = stream.try_lock().expect("uncontended");
        *g += 1;
        drop(buffers.write());
    }
    assert_eq!(edges(), vec![(LockClass::Stream, LockClass::Buffers, 1)]);
    // Guards dropped out of order pop the right class: with `world` gone
    // first, only `stream` is held at the `buffers` acquisition.
    clear();
    let w = world.read();
    let s = stream.lock();
    drop(w);
    drop(buffers.read());
    drop(s);
    drop(world.write());
    disable();
    assert_eq!(
        edges(),
        vec![
            (LockClass::World, LockClass::Stream, 1),
            (LockClass::Stream, LockClass::Buffers, 1),
        ]
    );
    clear();
}
