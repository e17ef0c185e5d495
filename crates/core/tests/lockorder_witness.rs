//! The lock-order witness records what it should. The edge multiset and
//! the enable flag are process-global, so this lives in a test binary of
//! its own: as a unit test it shared a process with every other unit test
//! that takes a classed lock, and whichever ran while recording was on
//! added edges to the multiset this test compares exactly.
#![cfg(feature = "lock-order")]

use hstreams_core::lockorder::{acquiring, clear, disable, edges, edges_json, enable, LockClass};

/// One sequential test: splitting these scenarios across `#[test]`s would
/// race them against each other under the parallel test runner.
#[test]
fn records_held_to_acquired_edges() {
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
    let json = edges_json();
    assert!(json.contains("\"from\": \"world\""), "{json}");
    assert!(json.contains("\"to\": \"event_slot\""), "{json}");

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
