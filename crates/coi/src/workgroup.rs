//! Task expansion: a task "naturally expands across a stream's threads"
//! (paper §II).
//!
//! The original implementation spawned fresh OS threads through
//! `std::thread::scope` on *every* parallel region — exactly the per-action
//! overhead the paper's §III pooling discussion warns dominates small-tile
//! streaming. A [`Workgroup`] runs its regions on a [`WorkerPool`] whose
//! threads all exist before the first region: a pipeline's group on its
//! runtime's pool ([`crate::CoiRuntime::pool`]), a group made by
//! [`Workgroup::new`] on a pool of its own with `width - 1` workers. No
//! thread is ever spawned on the compute path.
//!
//! A region is a job on that pool (memory ordering in DESIGN.md §9): the
//! submitter pushes up to `width - 1` helper tickets to the front of the
//! pool's FIFO and runs the claim loop itself — it is lane 0, and finishes
//! the region alone if no helper comes. Then it closes the region and waits
//! for the helpers that entered before it closed. A helper that starts after
//! the region has closed does nothing.

use crate::workers::{Job, WorkerPool};
use parking_lot::Mutex;
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A type-erased reference to a region's job: a `dyn Fn() + Sync` closure
/// on the *submitter's stack*. The region protocol guarantees it outlives
/// every helper's use (the submitter does not return while a helper is
/// inside the region).
struct JobRef(*const (dyn Fn() + Sync));

// SAFETY: the pointer is only dereferenced by helpers inside an open region,
// while the submitter is blocked in `run_job`, which keeps the pointee
// alive; the pointee is `Sync`, so calls from many threads are sound.
unsafe impl Send for JobRef {}
// SAFETY: as for `Send` — sharing the pointer only ever shares the `Sync`
// closure behind it.
unsafe impl Sync for JobRef {}

/// `Region::state` bit: the submitter's claim loop is over; no helper may
/// enter any more.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// One parallel region, shared by its submitter and its helper tickets.
struct Region {
    /// Helpers inside the region, plus [`CLOSED`].
    state: AtomicUsize,
    job: JobRef,
    /// First panic payload captured from a helper.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    submitter: std::thread::Thread,
}

impl Job for Region {
    /// A helper ticket: enter unless closed, run the claim loop, leave.
    fn run(self: Arc<Self>) {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            if s & CLOSED != 0 {
                return; // the submitter finished without us
            }
            match self
                .state
                .compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(now) => s = now,
            }
        }
        // SAFETY: this helper entered before `CLOSED` was set, so the
        // submitter waits in `run_job` until the decrement below: the
        // closure behind the pointer is alive for the whole call.
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*self.job.0)() }));
        if let Err(p) = r {
            let mut first = self.panic.lock();
            if first.is_none() {
                *first = Some(p);
            }
        }
        if self.state.fetch_sub(1, Ordering::AcqRel) == CLOSED + 1 {
            self.submitter.unpark();
        }
    }
}

/// `width` expansion lanes over a [`WorkerPool`]: the submitter of a
/// region is lane 0, pool workers are the others.
pub struct Workgroup {
    pool: Arc<WorkerPool>,
    width: usize,
    /// Advisory CPU affinity (the owning stream's mask bits), kept for
    /// diagnostics — OS pinning is out of scope (DESIGN §10).
    affinity: Option<u128>,
    /// Parallel regions opened so far.
    regions: AtomicU64,
}

impl Workgroup {
    /// A group of `width` lanes on a pool of its own: `width - 1` workers,
    /// spawned here and named after `label`. `affinity` carries the owning
    /// stream's CPU-mask bits.
    pub fn new(width: usize, label: impl Into<String>, affinity: Option<u128>) -> Workgroup {
        assert!(width >= 1, "workgroup width must be >= 1");
        let pool = WorkerPool::new(width - 1, &format!("hs-wg-{}", label.into()));
        Workgroup::on(Arc::new(pool), width, affinity)
    }

    /// A group of `width` lanes whose regions run on `pool`'s workers
    /// (and count in the pool's [`WorkerPool::regions`]).
    pub fn on(pool: Arc<WorkerPool>, width: usize, affinity: Option<u128>) -> Workgroup {
        assert!(width >= 1, "workgroup width must be >= 1");
        Workgroup {
            pool,
            width,
            affinity,
            regions: AtomicU64::new(0),
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    /// The stream CPU-mask bits this group was created for, if any.
    pub fn affinity(&self) -> Option<u128> {
        self.affinity
    }

    /// The pool this group's regions run on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Parallel regions opened so far. A width-1 group, and a loop too short
    /// to split, run inline and open none.
    pub fn regions(&self) -> u64 {
        self.regions.load(Ordering::Relaxed)
    }

    /// Run `job` on up to `width` lanes (submitter included) and return once
    /// every lane that took part is done. Helper panics are re-raised here —
    /// a panicking task fails its region, never the pool.
    fn run_job(&self, job: &(dyn Fn() + Sync)) {
        debug_assert!(self.width > 1, "width-1 groups run inline");
        self.regions.fetch_add(1, Ordering::Relaxed);
        self.pool.regions.fetch_add(1, Ordering::Relaxed);
        // SAFETY: lifetime erasure, see `JobRef`. `run_job` does not return
        // while a helper is inside the region, so `job` outlives all helper
        // use; the transmute only widens lifetimes on an otherwise identical
        // type.
        let erased = JobRef(unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync + 'static)>(job)
                as *const _
        });
        let region = Arc::new(Region {
            state: AtomicUsize::new(0),
            job: erased,
            panic: Mutex::new(None),
            submitter: std::thread::current(),
        });
        let helpers = (self.width - 1).min(self.pool.size());
        self.pool.push_helpers(region.clone(), helpers);
        // The submitter is lane 0: the same claim loop, inline.
        let caller_panic = std::panic::catch_unwind(AssertUnwindSafe(job)).err();
        if region.state.fetch_or(CLOSED, Ordering::AcqRel) != 0 {
            while region.state.load(Ordering::Acquire) != CLOSED {
                std::thread::park();
            }
        }
        let helper_panic = region.panic.lock().take();
        if let Some(p) = caller_panic.or(helper_panic) {
            std::panic::resume_unwind(p);
        }
    }

    /// Dynamic-balanced parallel loop over `0..n` across the group's
    /// lanes. Iterations are claimed in chunks from a shared atomic
    /// counter, so uneven iteration costs still balance.
    pub fn par_for(&self, n: usize, f: impl Fn(usize) + Sync) {
        if self.width <= 1 || n <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let counter = AtomicUsize::new(0);
        // ~4 chunks per lane bounds both contention and imbalance.
        let chunk = n.div_ceil(self.width * 4).max(1);
        self.run_job(&|| claim_loop(&counter, chunk, n, &f));
    }

    /// Split `data` into `chunk_len`-sized chunks and process them across
    /// the group's lanes. Chunks are claimed dynamically; each chunk is
    /// visited exactly once, so the `&mut` views are disjoint.
    pub fn par_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let len = data.len();
        let nchunks = len.div_ceil(chunk_len);
        if self.width <= 1 || nchunks <= 1 {
            for (i, c) in data.chunks_mut(chunk_len).enumerate() {
                f(i, c);
            }
            return;
        }
        let base = SendPtr(data.as_mut_ptr());
        self.par_for(nchunks, move |i| {
            let start = i * chunk_len;
            let this_len = chunk_len.min(len - start);
            // SAFETY: `par_for` yields each index in `0..nchunks` exactly
            // once, and chunk i covers `[i*chunk_len, i*chunk_len+this_len)`
            // — disjoint ranges of a slice that outlives the parallel
            // region (the caller's `&mut` borrow is held across it).
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), this_len) };
            f(i, chunk);
        });
    }
}

/// A `Send + Sync` wrapper for the base pointer captured by
/// [`Workgroup::par_chunks_mut`]'s claim closure.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Whole-struct accessor so closures capture the wrapper (with its
    /// `Send`/`Sync` impls), not the bare pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}
// SAFETY: dereferences are confined to disjoint index-claimed ranges; see
// the safety argument at the use site.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same — the pointer itself is only read (offset arithmetic).
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// The shared claim loop: grab chunks of indices until the counter passes
/// `n`. Run by every lane of a parallel region.
fn claim_loop(counter: &AtomicUsize, chunk: usize, n: usize, f: &(dyn Fn(usize) + Sync)) {
    loop {
        let start = counter.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        for i in start..(start + chunk).min(n) {
            f(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A group of `width` lanes on a shared pool of one worker: the region
    /// gets at most one helper, whatever its width.
    fn on_one_worker(width: usize) -> Workgroup {
        Workgroup::on(Arc::new(WorkerPool::new(1, "shared")), width, None)
    }

    #[test]
    fn par_for_visits_every_index_once() {
        for width in [1, 2, 4, 7] {
            let wg = on_one_worker(width);
            let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
            wg.par_for(1000, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "width {width} on one worker: every index exactly once"
            );
        }
    }

    #[test]
    fn pooled_par_for_visits_every_index_once() {
        for width in [1, 2, 4, 7] {
            let wg = Workgroup::new(width, format!("t{width}"), None);
            for round in 0..3 {
                let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
                wg.par_for(1000, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "width {width} round {round}: every index exactly once"
                );
            }
        }
    }

    #[test]
    fn par_for_handles_edge_sizes() {
        let count = AtomicUsize::new(0);
        let wg = Workgroup::new(4, "edges", None);
        wg.par_for(0, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        wg.par_for(1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
        Workgroup::new(8, "edges8", None).par_for(3, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
        assert_eq!(wg.regions(), 0, "a loop too short to split opens no region");
    }

    #[test]
    fn pooled_par_chunks_mut_writes_disjoint_chunks() {
        let wg = Workgroup::new(4, "chunks", None);
        let mut data = vec![0u32; 103];
        wg.par_chunks_mut(&mut data, 10, |idx, chunk| {
            for x in chunk {
                *x = idx as u32 + 1;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, (i / 10) as u32 + 1);
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_chunks() {
        let mut data = vec![0u32; 103];
        on_one_worker(4).par_chunks_mut(&mut data, 10, |idx, chunk| {
            for x in chunk {
                *x = idx as u32 + 1;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, (i / 10) as u32 + 1);
        }
    }

    #[test]
    fn par_chunks_mut_single_thread_path() {
        let wg = Workgroup::new(1, "one", None);
        let mut data = vec![0u8; 16];
        wg.par_chunks_mut(&mut data, 4, |idx, chunk| chunk.fill(idx as u8));
        assert_eq!(&data[12..16], &[3, 3, 3, 3]);
        assert_eq!(wg.regions(), 0, "a width-1 group runs inline");
    }

    #[test]
    fn par_for_balances_uneven_work() {
        // Just a smoke check that heavy early iterations don't serialize the
        // loop: the elapsed must be well under the serial sum.
        let wg = Workgroup::new(4, "uneven", None);
        let t0 = std::time::Instant::now();
        wg.par_for(8, |i| {
            let d = if i < 2 { 20 } else { 5 };
            std::thread::sleep(std::time::Duration::from_millis(d));
        });
        let elapsed = t0.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(70),
            "parallel loop too slow: {elapsed:?} (serial would be 70ms)"
        );
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_panics() {
        let mut data = vec![0u8; 4];
        Workgroup::new(2, "zero", None).par_chunks_mut(&mut data, 0, |_, _| {});
    }

    #[test]
    fn pooled_differential_vs_scoped() {
        // The pool must produce what a sequential loop over the same chunks
        // produces, for a reduction written via disjoint slots.
        let n = 777;
        let fill = |idx: usize, chunk: &mut [u64]| {
            for (o, x) in chunk.iter_mut().enumerate() {
                *x = (idx * 1000 + o) as u64;
            }
        };
        let wg = Workgroup::new(3, "diff", None);
        let mut pooled = vec![0u64; n];
        let mut sequential = vec![0u64; n];
        wg.par_chunks_mut(&mut pooled, 13, fill);
        for (idx, chunk) in sequential.chunks_mut(13).enumerate() {
            fill(idx, chunk);
        }
        assert_eq!(pooled, sequential);
    }
}
