//! Sync-primitive facade: the single place crates/core imports
//! synchronization types from.
//!
//! Normal builds re-export `parking_lot`'s locks and `std`'s atomics /
//! once-cells. Under `RUSTFLAGS="--cfg loom"` every one of these resolves
//! to the `loom` model checker's schedule-point-instrumented equivalents
//! instead, which is what makes the front-end protocols model-checkable
//! (see DESIGN.md §14 and `tests/loom_frontend.rs`).
//!
//! A lock that belongs to one of the eleven classes of the documented order
//! (DESIGN.md §13) is declared as a [`ClassedMutex`] / [`ClassedRwLock`]:
//! the class is a type parameter, every acquisition is witnessed for
//! [`crate::lockorder`] by the lock itself, and the guard carries the
//! witness. Leaf locks outside the order use the plain re-exports.
//!
//! Rules enforced by `crates/core/tests/sync_shim_guard.rs`:
//!
//! * No file in crates/core other than this one may import
//!   `std::sync::atomic` or `parking_lot` directly — a direct import would
//!   silently opt that code out of model checking and rot the shim.
//! * No file in crates/core other than this one and `lockorder.rs` may call
//!   `lockorder::acquiring`: a class is witnessed by its lock's type, not
//!   by whoever remembered to annotate the acquisition.
//! * `std::sync::{Arc, mpsc, …}` (non-atomic, non-lock) remain fair game;
//!   `Arc` is re-exported here for convenience but not required.
//!
//! The API shape is the intersection the workspace uses: `lock()` returns
//! the guard directly (no poisoning), `try_lock` returns `Option`,
//! `Condvar::wait_for` returns a `WaitTimeoutResult`.

#[cfg(not(loom))]
pub use parking_lot::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
pub use std::sync::OnceLock;

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
#[cfg(loom)]
pub use loom::sync::{
    Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};

pub use std::sync::Arc;

use crate::lockorder::{self, Acquired, LockClass};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// A lock class as a type: the `C` of [`ClassedMutex`] / [`ClassedRwLock`].
pub trait Class {
    const CLASS: LockClass;
}

/// One marker type per [`LockClass`], same names.
pub mod class {
    use super::{Class, LockClass};

    macro_rules! markers {
        ($($name:ident),*) => {$(
            pub struct $name;
            impl Class for $name {
                const CLASS: LockClass = LockClass::$name;
            }
        )*};
    }
    markers!(
        World, Streams, Stream, Buffers, Recovery, Degraded, SimShadow, Compactor, EventSlot,
        SimExec, SimInbox
    );
}

/// A held classed lock: derefs to the data, and takes the class off the
/// thread's held stack when it drops (whatever the order guards drop in).
pub struct Witnessed<G> {
    guard: G,
    _witness: Acquired,
}

impl<G> Witnessed<G> {
    /// Witnessed before blocking: an acquisition that deadlocks has still
    /// recorded the edge that explains it.
    fn acquire(class: LockClass, acquire: impl FnOnce() -> G) -> Self {
        let _witness = lockorder::acquiring(class);
        Witnessed {
            guard: acquire(),
            _witness,
        }
    }
}

impl<G: Deref> Deref for Witnessed<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Witnessed<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// A [`Mutex`] of lock class `C`.
pub struct ClassedMutex<C, T> {
    raw: Mutex<T>,
    _class: PhantomData<C>,
}

impl<C: Class, T> ClassedMutex<C, T> {
    pub fn new(value: T) -> Self {
        ClassedMutex {
            raw: Mutex::new(value),
            _class: PhantomData,
        }
    }

    pub fn lock(&self) -> Witnessed<MutexGuard<'_, T>> {
        Witnessed::acquire(C::CLASS, || self.raw.lock())
    }

    /// Witnessed only on success: a failed attempt holds nothing.
    pub fn try_lock(&self) -> Option<Witnessed<MutexGuard<'_, T>>> {
        let guard = self.raw.try_lock()?;
        Some(Witnessed {
            guard,
            _witness: lockorder::acquiring(C::CLASS),
        })
    }
}

/// A [`RwLock`] of lock class `C`. Shared and exclusive acquisitions are
/// the same class: the order argument does not distinguish them.
pub struct ClassedRwLock<C, T> {
    raw: RwLock<T>,
    _class: PhantomData<C>,
}

impl<C: Class, T> ClassedRwLock<C, T> {
    pub fn new(value: T) -> Self {
        ClassedRwLock {
            raw: RwLock::new(value),
            _class: PhantomData,
        }
    }

    pub fn read(&self) -> Witnessed<RwLockReadGuard<'_, T>> {
        Witnessed::acquire(C::CLASS, || self.raw.read())
    }

    pub fn write(&self) -> Witnessed<RwLockWriteGuard<'_, T>> {
        Witnessed::acquire(C::CLASS, || self.raw.write())
    }
}
