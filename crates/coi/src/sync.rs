//! Sync-primitive facade: where [`crate::workers`] takes its lock, condvar,
//! atomics, thread spawn and yield from.
//!
//! In the library these are `parking_lot`'s locks and `std`'s atomics and
//! threads. `crates/coi/tests/loom_pool.rs` mounts `workers.rs` by
//! `#[path]` beside a `sync` module of its own with the same names mapped
//! to the `loom` model checker, so the models explore the compiled pool,
//! not a copy of it. A file on this facade must therefore name no
//! primitive or clock any other way: `crates/coi/tests/sync_facade_guard.rs`
//! fails on a direct `parking_lot`, `std::sync::atomic`, `std::thread` or
//! `Instant` in one.

pub use parking_lot::{Condvar, Mutex};
pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
pub use std::thread::{yield_now, JoinHandle};

use std::time::{Duration, Instant};

/// A thread named `name` running `f`.
pub fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("spawning a pool worker")
}

/// How long a spin may go on: wall time here, a count of polls under the
/// models (each poll a schedule point there).
pub struct SpinBudget {
    until: Instant,
}

impl SpinBudget {
    pub fn new(budget: Duration) -> SpinBudget {
        SpinBudget {
            until: Instant::now() + budget,
        }
    }

    /// Whether there is budget left for another poll.
    pub fn left(&mut self) -> bool {
        Instant::now() < self.until
    }
}
