//! Registered memory windows with range locking.
//!
//! A window is a byte arena representing device (or host) memory that DMA
//! and sink-side compute may access concurrently at *disjoint* ranges. The
//! upper layers (the hStreams dependence engine) guarantee that conflicting
//! accesses are ordered; the range lock makes that guarantee *enforced*
//! rather than assumed: concurrent readers of overlapping ranges are
//! admitted, a writer waits until every overlapping guard is released.
//!
//! This is a hand-built synchronization primitive in the style of
//! *Rust Atomics and Locks*: a `Mutex`-protected active-range table plus a
//! `Condvar` for waiters, wrapped around an `UnsafeCell` arena. The safety
//! argument is local and explicit (see `as_mut_slice`).

use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::ops::Range;

use crate::NodeId;

/// Identifies a registered window on a node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub struct WindowId {
    pub node: NodeId,
    pub(crate) id: u64,
}

impl WindowId {
    /// The node-local raw id — what identifies this window on the wire to
    /// a remote worker (ids are meaningless across nodes).
    pub fn raw(self) -> u64 {
        self.id
    }
}

#[derive(Clone, Copy, Debug)]
struct ActiveRange {
    start: usize,
    end: usize,
    write: bool,
}

fn conflicts(a: &ActiveRange, b: &ActiveRange) -> bool {
    a.start < b.end && b.start < a.end && (a.write || b.write)
}

/// A byte arena with range-granular reader/writer locking.
pub struct WindowMem {
    /// Backing words. `UnsafeCell<u64>` has the same layout as `u64`, so the
    /// arena is 8-byte aligned — tasks may reinterpret aligned ranges as
    /// `f64`/`u64` slices. Storing cells (rather than deriving references
    /// through a raw pointer to a `Box`) keeps the aliasing story simple:
    /// every access materializes a fresh slice from the cell pointer.
    data: Box<[UnsafeCell<u64>]>,
    /// Logical length in bytes (<= data.len() * 8).
    len: usize,
    active: Mutex<Vec<ActiveRange>>,
    released: Condvar,
}

// SAFETY: `WindowMem` owns its arena (`Box<[UnsafeCell<u64>]>`); moving the
// struct to another thread moves ownership of the cells with it, and the
// remaining fields (`Mutex`, `Condvar`, `usize`) are all `Send`.
unsafe impl Send for WindowMem {}
// SAFETY: all shared access to `data` goes through `RangeGuard`s handed out
// by `lock_range`, which admits overlapping ranges only when every party is
// a reader. Disjoint ranges never alias; overlapping read-only ranges only
// produce shared references — so `&WindowMem` is safe to use from many
// threads at once.
unsafe impl Sync for WindowMem {}

impl WindowMem {
    pub fn new(len: usize) -> WindowMem {
        let words = len.div_ceil(8);
        WindowMem {
            data: (0..words).map(|_| UnsafeCell::new(0u64)).collect(),
            len,
            active: Mutex::new(Vec::new()),
            released: Condvar::new(),
        }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Acquire access to `range`. Blocks while any conflicting guard (an
    /// overlapping range where either side writes) is outstanding. Returns
    /// an error if the range is out of bounds or empty-inverted.
    pub fn lock_range(
        &self,
        range: Range<usize>,
        write: bool,
    ) -> Result<RangeGuard<'_>, RangeError> {
        if range.start > range.end || range.end > self.len() {
            return Err(RangeError::OutOfBounds {
                range,
                len: self.len(),
            });
        }
        let want = ActiveRange {
            start: range.start,
            end: range.end,
            write,
        };
        let mut active = self.active.lock();
        while active.iter().any(|a| conflicts(a, &want)) {
            self.released.wait(&mut active);
        }
        active.push(want);
        Ok(RangeGuard {
            mem: self,
            range,
            write,
        })
    }

    /// Non-blocking variant: `None` if a conflicting guard is outstanding.
    pub fn try_lock_range(
        &self,
        range: Range<usize>,
        write: bool,
    ) -> Result<Option<RangeGuard<'_>>, RangeError> {
        if range.start > range.end || range.end > self.len() {
            return Err(RangeError::OutOfBounds {
                range,
                len: self.len(),
            });
        }
        let want = ActiveRange {
            start: range.start,
            end: range.end,
            write,
        };
        let mut active = self.active.lock();
        if active.iter().any(|a| conflicts(a, &want)) {
            return Ok(None);
        }
        active.push(want);
        Ok(Some(RangeGuard {
            mem: self,
            range,
            write,
        }))
    }

    /// Number of currently held guards (diagnostics).
    pub fn active_guards(&self) -> usize {
        self.active.lock().len()
    }

    /// Raw base of the arena as a byte pointer. Going through
    /// `UnsafeCell::raw_get` (rather than casting a `*const` to `*mut`)
    /// keeps the write permission that `UnsafeCell` grants on the pointer's
    /// provenance. Dereferencing still requires holding a suitable guard.
    fn base(&self) -> *mut u8 {
        UnsafeCell::raw_get(self.data.as_ptr()).cast::<u8>()
    }

    fn release(&self, range: &Range<usize>, write: bool) {
        let mut active = self.active.lock();
        let pos = active
            .iter()
            .position(|a| a.start == range.start && a.end == range.end && a.write == write)
            .expect("released guard must be in the active table");
        active.swap_remove(pos);
        drop(active);
        self.released.notify_all();
    }
}

/// Errors from range acquisition.
#[derive(Debug, PartialEq, Eq)]
pub enum RangeError {
    OutOfBounds { range: Range<usize>, len: usize },
}

impl std::fmt::Display for RangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RangeError::OutOfBounds { range, len } => {
                write!(f, "range {range:?} out of bounds for window of {len} bytes")
            }
        }
    }
}
impl std::error::Error for RangeError {}

/// RAII access to a locked range of a window.
pub struct RangeGuard<'a> {
    mem: &'a WindowMem,
    range: Range<usize>,
    write: bool,
}

impl RangeGuard<'_> {
    /// Shared view of the locked bytes.
    pub fn as_slice(&self) -> &[u8] {
        let len = self.range.end - self.range.start;
        // SAFETY: the range is in bounds (checked at lock time) and while
        // this guard lives any overlapping guard is read-only (writers are
        // excluded by `lock_range`), so shared access is sound.
        unsafe { std::slice::from_raw_parts(self.mem.base().add(self.range.start), len) }
    }

    /// Exclusive view of the locked bytes. Only write guards may call this.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        assert!(self.write, "as_mut_slice on a read guard");
        let len = self.range.end - self.range.start;
        // SAFETY: the range is in bounds; this is a write guard, so
        // `lock_range` guaranteed no other guard overlaps `range`, and
        // `&mut self` prevents a second simultaneous view via this guard.
        unsafe { std::slice::from_raw_parts_mut(self.mem.base().add(self.range.start), len) }
    }

    /// Shared `f64` view; the locked range must be 8-byte aligned.
    pub fn as_f64_slice(&self) -> &[f64] {
        let bytes = self.as_slice();
        assert!(
            self.range.start.is_multiple_of(8) && bytes.len().is_multiple_of(8),
            "f64 view requires 8-byte aligned range"
        );
        // SAFETY: the arena is 8-byte aligned (u64 words) and the range
        // offset/length are multiples of 8; any bit pattern is a valid f64.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f64, bytes.len() / 8) }
    }

    /// Exclusive `f64` view; the locked range must be 8-byte aligned.
    pub fn as_f64_mut_slice(&mut self) -> &mut [f64] {
        let bytes = self.as_mut_slice();
        let (ptr, n) = (bytes.as_mut_ptr(), bytes.len());
        assert!(
            self.range.start.is_multiple_of(8) && n % 8 == 0,
            "f64 view requires 8-byte aligned range"
        );
        // SAFETY: as in `as_f64_slice`, plus exclusivity from the write guard.
        unsafe { std::slice::from_raw_parts_mut(ptr as *mut f64, n / 8) }
    }
}

impl Drop for RangeGuard<'_> {
    fn drop(&mut self) {
        self.mem.release(&self.range, self.write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn read_then_write_round_trip() {
        let mem = WindowMem::new(8);
        mem.lock_range(0..8, true)
            .expect("in bounds")
            .as_mut_slice()
            .copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let g = mem.lock_range(2..5, false).expect("in bounds");
        assert_eq!(g.as_slice(), &[3, 4, 5]);
    }

    #[test]
    fn overlapping_reads_coexist() {
        let mem = WindowMem::new(16);
        let g1 = mem.lock_range(0..8, false).expect("ok");
        let g2 = mem.lock_range(4..12, false).expect("ok");
        assert_eq!(mem.active_guards(), 2);
        drop((g1, g2));
        assert_eq!(mem.active_guards(), 0);
    }

    #[test]
    fn writer_excludes_overlapping_writer() {
        let mem = WindowMem::new(16);
        let g1 = mem.try_lock_range(0..8, true).expect("ok");
        assert!(g1.is_some());
        let g2 = mem.try_lock_range(4..12, true).expect("ok");
        assert!(g2.is_none(), "overlapping writer must be refused");
        let g3 = mem.try_lock_range(8..16, true).expect("ok");
        assert!(g3.is_some(), "disjoint writer is fine");
    }

    #[test]
    fn writer_excludes_overlapping_reader_and_vice_versa() {
        let mem = WindowMem::new(16);
        let r = mem.try_lock_range(0..8, false).expect("ok");
        assert!(r.is_some());
        assert!(mem.try_lock_range(0..4, true).expect("ok").is_none());
        drop(r);
        let w = mem.try_lock_range(0..4, true).expect("ok");
        assert!(w.is_some());
        assert!(mem.try_lock_range(2..6, false).expect("ok").is_none());
    }

    #[test]
    fn touching_ranges_do_not_conflict() {
        let mem = WindowMem::new(16);
        let _w1 = mem.lock_range(0..8, true).expect("ok");
        let w2 = mem.try_lock_range(8..16, true).expect("ok");
        assert!(w2.is_some());
    }

    #[test]
    fn out_of_bounds_is_error() {
        let mem = WindowMem::new(8);
        assert!(matches!(
            mem.lock_range(4..12, false),
            Err(RangeError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn blocked_writer_proceeds_after_release() {
        let mem = Arc::new(WindowMem::new(8));
        let started = Arc::new(AtomicBool::new(false));
        let reader = mem.lock_range(0..8, false).expect("ok");
        let t = {
            let mem = mem.clone();
            let started = started.clone();
            std::thread::spawn(move || {
                started.store(true, Ordering::SeqCst);
                let mut g = mem.lock_range(0..8, true).expect("ok");
                g.as_mut_slice()[0] = 42;
            })
        };
        while !started.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(reader);
        t.join().expect("writer thread completes");
        let g = mem.lock_range(0..1, false).expect("ok");
        assert_eq!(g.as_slice()[0], 42);
    }

    #[test]
    #[should_panic(expected = "as_mut_slice on a read guard")]
    fn read_guard_denies_mut_access() {
        let mem = WindowMem::new(8);
        let mut g = mem.lock_range(0..8, false).expect("ok");
        let _ = g.as_mut_slice();
    }

    #[test]
    fn f64_views_round_trip() {
        let mem = WindowMem::new(64);
        mem.lock_range(8..40, true)
            .expect("ok")
            .as_f64_mut_slice()
            .copy_from_slice(&[1.5, -2.5, 3.25, 0.0]);
        let g = mem.lock_range(8..40, false).expect("ok");
        assert_eq!(g.as_f64_slice(), &[1.5, -2.5, 3.25, 0.0]);
    }

    #[test]
    #[should_panic(expected = "8-byte aligned")]
    fn misaligned_f64_view_panics() {
        let mem = WindowMem::new(64);
        let g = mem.lock_range(4..12, false).expect("ok");
        let _ = g.as_f64_slice();
    }

    #[test]
    fn arena_is_8_byte_aligned() {
        let mem = WindowMem::new(16);
        let g = mem.lock_range(0..16, false).expect("ok");
        assert_eq!(g.as_slice().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn odd_length_window_keeps_logical_len() {
        let mem = WindowMem::new(13);
        assert_eq!(mem.len(), 13);
        assert!(mem.lock_range(0..13, false).is_ok());
        assert!(mem.lock_range(0..14, false).is_err());
    }

    #[test]
    fn concurrent_disjoint_writers_fill_correctly() {
        let mem = Arc::new(WindowMem::new(4096));
        std::thread::scope(|s| {
            for i in 0..16usize {
                let mem = mem.clone();
                s.spawn(move || {
                    let mut g = mem.lock_range(i * 256..(i + 1) * 256, true).expect("ok");
                    for b in g.as_mut_slice() {
                        *b = i as u8;
                    }
                });
            }
        });
        let g = mem.lock_range(0..4096, false).expect("ok");
        for (i, b) in g.as_slice().iter().enumerate() {
            assert_eq!(*b, (i / 256) as u8);
        }
    }
}
