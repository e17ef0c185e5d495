//! A counting global allocator: allocations and frees, split between the
//! thread that called [`mark_driver`] and every other thread of the process.
//! Shared (by `#[path]`) between `tests/alloc_budget.rs` and the
//! `enqueue_throughput` bench, each of which installs it with
//! `#[global_allocator] static A: Counting = Counting;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocation and free counts of one group of threads.
struct Tally {
    allocs: AtomicU64,
    frees: AtomicU64,
}

impl Tally {
    const fn new() -> Tally {
        Tally {
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
        }
    }

    fn take(&self) -> Counts {
        Counts {
            allocs: self.allocs.swap(0, Ordering::Relaxed),
            frees: self.frees.swap(0, Ordering::Relaxed),
        }
    }
}

static DRIVER: Tally = Tally::new();
static OTHERS: Tally = Tally::new();
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without a destructor, so reading it from inside
    // the allocator neither allocates nor touches torn-down TLS.
    static IS_DRIVER: Cell<bool> = const { Cell::new(false) };
}

#[derive(Clone, Copy, Debug)]
pub struct Counts {
    pub allocs: u64,
    pub frees: u64,
}

/// Count this thread's blocks as the driver's from now on.
pub fn mark_driver() {
    IS_DRIVER.with(|d| d.set(true));
}

/// Run `f` with counting on; what (the driver, every other thread)
/// allocated and freed meanwhile.
pub fn counted(f: impl FnOnce()) -> (Counts, Counts) {
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    (DRIVER.take(), OTHERS.take())
}

fn tally() -> Option<&'static Tally> {
    if !COUNTING.load(Ordering::Relaxed) {
        return None;
    }
    let driver = IS_DRIVER.try_with(Cell::get).unwrap_or(false);
    Some(if driver { &DRIVER } else { &OTHERS })
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters on the side are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if let Some(t) = tally() {
            t.allocs.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if let Some(t) = tally() {
            t.frees.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (see
        // `alloc` above); the caller's obligations are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A regrow is one new block for the budget's purposes.
        if let Some(t) = tally() {
            t.allocs.fetch_add(1, Ordering::Relaxed);
            t.frees.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`, plus the caller's `new_size` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
