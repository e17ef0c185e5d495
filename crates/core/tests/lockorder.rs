//! The lock-order check over what the witness really recorded: a nesting
//! in the documented order reports nothing, and a descending or same-class
//! nesting reports its edge. The edge multiset is process-global, so this
//! is one `#[test]` in a binary of its own.

use hstreams_core::lockorder::{self, acquiring, LockClass};

#[test]
fn recorded_nestings_are_checked_against_the_order() {
    lockorder::clear();
    lockorder::enable();
    {
        let _world = acquiring(LockClass::World);
        let _stream = acquiring(LockClass::Stream);
        let _slot = acquiring(LockClass::EventSlot);
    }
    lockorder::disable();
    assert_eq!(lockorder::edges().len(), 3);
    assert_eq!(lockorder::inversions(), vec![]);

    // A stream mutex held across a world acquisition: half of an AB/BA
    // deadlock against any thread that takes them the right way round.
    lockorder::clear();
    lockorder::enable();
    {
        let _world = acquiring(LockClass::World);
        let _stream = acquiring(LockClass::Stream);
    }
    {
        let _stream = acquiring(LockClass::Stream);
        let _world = acquiring(LockClass::World);
    }
    lockorder::disable();
    assert_eq!(
        lockorder::inversions(),
        vec![(LockClass::Stream, LockClass::World, 1)]
    );

    // Two stream mutexes nested: the order forbids same-class nesting.
    lockorder::clear();
    lockorder::enable();
    {
        let _a = acquiring(LockClass::Stream);
        let _b = acquiring(LockClass::Stream);
    }
    lockorder::disable();
    assert_eq!(
        lockorder::inversions(),
        vec![(LockClass::Stream, LockClass::Stream, 1)]
    );
    lockorder::clear();
}
