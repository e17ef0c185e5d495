//! Allocation-lean helpers for the enqueue hot path: the inline-first small
//! vector (shared with the sink side, so it lives in `hs-coi`) for
//! dependence lists, and thread-local reusable scratch for the
//! backend-event collection in `enqueue_common`.
//!
//! The enqueue fast path runs once per action; with typical dependence
//! fan-in well under eight events, the inline array keeps the whole
//! find-deps → sort → dedup → collect pipeline off the heap.

pub use hs_coi::small::SmallVec;
use std::cell::RefCell;

thread_local! {
    /// Reusable buffer for the per-enqueue backend-dependence collection.
    static BE_SCRATCH: RefCell<Vec<crate::exec::BackendEvent>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a cleared, thread-local scratch `Vec<BackendEvent>`. The
/// allocation is reused across enqueues on the same source thread. Falls
/// back to a fresh vector if re-entered (defensive; the enqueue path does
/// not recurse).
pub(crate) fn with_be_scratch<R>(f: impl FnOnce(&mut Vec<crate::exec::BackendEvent>) -> R) -> R {
    BE_SCRATCH.with(|c| match c.try_borrow_mut() {
        Ok(mut v) => {
            v.clear();
            f(&mut v)
        }
        Err(_) => f(&mut Vec::new()),
    })
}
