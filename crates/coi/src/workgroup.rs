//! Task expansion: a task "naturally expands across a stream's threads"
//! (paper §II).
//!
//! The original implementation spawned fresh OS threads through
//! `std::thread::scope` on *every* parallel region — exactly the per-action
//! overhead the paper's §III pooling discussion warns dominates small-tile
//! streaming. [`Workgroup`] replaces that with a persistent pool: `width-1`
//! resident worker threads per sink pipeline, parked on a condvar and woken
//! by publishing a job in a shared epoch-stamped slot. `par_for` /
//! `par_chunks_mut` become submit-to-resident-pool; after warm-up no thread
//! is ever spawned on the compute path (asserted through
//! [`Workgroup::spawned`] in `tests/workgroup_pool.rs`).
//!
//! Handoff protocol (memory ordering documented in DESIGN.md §9): the
//! submitter publishes `(epoch+1, job)` under the slot mutex and notifies;
//! workers wake, observe the new epoch, run the job, and decrement
//! `active` under the same mutex — the mutex orders the job pointer
//! publication before any worker dereferences it, and the final decrement
//! before the submitter returns. The submitter always executes the job
//! body itself too (it is worker 0), so a width-w group runs w ways.
//!
//! The spawn-per-call scoped helpers are retained as free functions at the
//! bottom: they are the reference implementation the pool is differentially
//! tested against, and the fallback for one-shot callers with no pipeline.

use hs_obs::ObsHub;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased reference to the current parallel job. The pointee is a
/// `dyn Fn() + Sync` closure on the *submitter's stack*; the submit
/// protocol guarantees it outlives every worker's use (the submitter does
/// not return until `active == 0`).
#[derive(Clone, Copy)]
struct JobRef(*const (dyn Fn() + Sync));

// SAFETY: the raw pointer is only dereferenced by pool workers while the
// submitting thread is blocked in `run_job`, which keeps the pointee alive;
// the pointee itself is `Sync` so shared calls from many threads are sound.
unsafe impl Send for JobRef {}

struct Slot {
    /// Bumped once per published job; workers run each epoch exactly once.
    epoch: u64,
    job: Option<JobRef>,
    /// Workers still running the current epoch's job.
    active: usize,
    /// First panic payload captured from a worker this epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The submitter parks here until `active` drains to zero.
    done_cv: Condvar,
}

/// A persistent pool of `width - 1` resident worker threads (the submitter
/// is the width-th). Workers are spawned lazily on the first parallel
/// region that needs them and then live until the group is dropped.
pub struct Workgroup {
    shared: Arc<Shared>,
    width: usize,
    /// Advisory CPU affinity (the owning stream's mask bits); used for
    /// worker naming/diagnostics — OS pinning is out of scope (DESIGN §10).
    affinity: Option<u128>,
    label: String,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// OS threads this group has ever spawned — the "no spawns after
    /// warm-up" regression guard. Per group, so tests that run side by side
    /// cannot see each other's pools.
    spawned: AtomicUsize,
    /// Serializes parallel regions submitted from different threads.
    submit: Mutex<()>,
    /// Pool occupancy/spawn metrics sink (a disabled hub by default).
    obs: ObsHub,
}

impl Workgroup {
    /// A group of `width` expansion lanes labelled `label` (used in worker
    /// thread names). `affinity` carries the owning stream's CPU-mask bits.
    pub fn new(width: usize, label: impl Into<String>, affinity: Option<u128>) -> Workgroup {
        assert!(width >= 1, "workgroup width must be >= 1");
        Workgroup {
            shared: Arc::new(Shared {
                slot: Mutex::new(Slot {
                    epoch: 0,
                    job: None,
                    active: 0,
                    panic: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            width,
            affinity,
            label: label.into(),
            workers: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
            submit: Mutex::new(()),
            obs: ObsHub::new(),
        }
    }

    /// Route pool metrics (occupancy gauge, region counter) to `hub`.
    /// Called by the owning pipeline before the group is shared.
    pub fn set_obs(&mut self, hub: ObsHub) {
        self.obs = hub;
    }

    pub fn width(&self) -> usize {
        self.width
    }

    /// The stream CPU-mask bits this group was created for, if any.
    pub fn affinity(&self) -> Option<u128> {
        self.affinity
    }

    /// Resident worker threads currently alive (0 until first expansion).
    pub fn resident_workers(&self) -> usize {
        self.workers.lock().expect("workgroup mutex").len()
    }

    /// Worker threads this group has spawned since it was created.
    pub fn spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Spawn the resident workers if this is the first parallel region.
    fn ensure_workers(&self) {
        let mut ws = self.workers.lock().expect("workgroup mutex");
        if !ws.is_empty() {
            return;
        }
        // Name workers after the cores of the stream's mask when known.
        let cores: Vec<u32> = match self.affinity {
            Some(bits) => (0..128).filter(|i| (bits >> i) & 1 == 1).collect(),
            None => (0..self.width as u32).collect(),
        };
        for w in 1..self.width {
            let shared = self.shared.clone();
            let core = cores.get(w).copied().unwrap_or(w as u32);
            self.spawned.fetch_add(1, Ordering::Relaxed);
            let h = std::thread::Builder::new()
                .name(format!("hs-wg-{}-c{core}", self.label))
                .spawn(move || worker_loop(&shared))
                .expect("spawning a workgroup worker");
            ws.push(h);
        }
    }

    /// Run `job` on all lanes of the group (submitter included) and wait
    /// for every lane to finish. Worker panics are re-raised here, after
    /// the slot state has been reset — a panicking task never poisons the
    /// pool.
    fn run_job(&self, job: &(dyn Fn() + Sync)) {
        debug_assert!(self.width > 1, "width-1 groups run inline");
        self.ensure_workers();
        // Serialize whole parallel regions: a second submitter (pools are
        // normally driven by a single pipeline thread, but benches may
        // share one) waits for the previous region to fully drain.
        let _region = self.submit.lock().expect("workgroup mutex");
        self.obs.counter_add("wg.regions", 1);
        self.obs.gauge_add("wg.active_lanes", self.width as i64);
        // SAFETY: lifetime erasure, see `JobRef`. `run_job` blocks below
        // until `active == 0`, so `job` outlives all worker use; the
        // transmute only widens lifetimes on an otherwise identical type.
        let erased = JobRef(unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync + 'static)>(job)
                as *const _
        });
        {
            let mut s = self.shared.slot.lock().expect("workgroup mutex");
            debug_assert_eq!(s.active, 0, "previous job fully drained");
            s.epoch += 1;
            s.job = Some(erased);
            s.active = self.width - 1;
            self.shared.work_cv.notify_all();
        }
        // The submitter is lane 0: run the same claim-loop body inline.
        let caller_panic = std::panic::catch_unwind(AssertUnwindSafe(job)).err();
        // Wait for the workers to drain, then collect any worker panic.
        let worker_panic = {
            let mut s = self.shared.slot.lock().expect("workgroup mutex");
            while s.active > 0 {
                s = self.shared.done_cv.wait(s).expect("workgroup mutex");
            }
            s.job = None;
            s.panic.take()
        };
        // Decrement occupancy before any unwind so the gauge stays balanced
        // even when a task panics.
        self.obs.gauge_add("wg.active_lanes", -(self.width as i64));
        if let Some(p) = caller_panic.or(worker_panic) {
            // Release the region lock before unwinding so a panicking task
            // cannot poison the pool for the next parallel region.
            drop(_region);
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

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut s = shared.slot.lock().expect("workgroup mutex");
            loop {
                if s.shutdown {
                    return;
                }
                if s.epoch != seen {
                    if let Some(j) = s.job {
                        seen = s.epoch;
                        break j;
                    }
                }
                s = shared.work_cv.wait(s).expect("workgroup mutex");
            }
        };
        // SAFETY: the submitter blocks in `run_job` until this worker
        // decrements `active` below, so the closure behind the pointer is
        // alive for the whole call.
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
        let mut s = shared.slot.lock().expect("workgroup mutex");
        if let Err(p) = r {
            if s.panic.is_none() {
                s.panic = Some(p);
            }
        }
        s.active -= 1;
        if s.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

impl Drop for Workgroup {
    fn drop(&mut self) {
        {
            let mut s = self.shared.slot.lock().expect("workgroup mutex");
            s.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.lock().expect("workgroup mutex").drain(..) {
            let _ = h.join();
        }
    }
}

/// The shared claim loop: grab chunks of indices until the counter passes
/// `n`. Run by every lane of a parallel region (pooled or scoped).
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

// ------------------------------------------------- spawn-per-call fallback

/// Dynamic-balanced parallel loop over `0..n` with `width` *freshly
/// spawned* threads (including the caller). Reference implementation and
/// fallback for one-shot callers; pipelines use the resident
/// [`Workgroup`] instead.
pub fn par_for(width: usize, n: usize, f: impl Fn(usize) + Sync) {
    if width <= 1 || n <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let counter = AtomicUsize::new(0);
    let chunk = n.div_ceil(width * 4).max(1);
    std::thread::scope(|s| {
        for _ in 1..width {
            s.spawn(|| claim_loop(&counter, chunk, n, &f));
        }
        claim_loop(&counter, chunk, n, &f);
    });
}

/// Split `data` into chunks of `chunk_len` and process them with `width`
/// freshly spawned threads. Chunks are distributed round-robin (static),
/// which keeps the mutable-aliasing story trivial: every chunk is moved
/// into exactly one worker's list.
pub fn par_chunks_mut<T: Send>(
    width: usize,
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    if width <= 1 || data.len() <= chunk_len {
        for (i, c) in data.chunks_mut(chunk_len).enumerate() {
            f(i, c);
        }
        return;
    }
    let mut per_thread: Vec<Vec<(usize, &mut [T])>> = (0..width).map(|_| Vec::new()).collect();
    for (i, c) in data.chunks_mut(chunk_len).enumerate() {
        per_thread[i % width].push((i, c));
    }
    std::thread::scope(|s| {
        let mut iter = per_thread.into_iter();
        let mine = iter.next().expect("width >= 1");
        for list in iter {
            let f = &f;
            s.spawn(move || {
                for (i, c) in list {
                    f(i, c);
                }
            });
        }
        for (i, c) in mine {
            f(i, c);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_for_visits_every_index_once() {
        for width in [1, 2, 4, 7] {
            let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
            par_for(width, 1000, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "width {width}: every index exactly once"
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
        par_for(4, 0, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        par_for(4, 1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
        par_for(8, 3, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
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
        par_chunks_mut(4, &mut data, 10, |idx, chunk| {
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
        let mut data = vec![0u8; 16];
        par_chunks_mut(1, &mut data, 4, |idx, chunk| chunk.fill(idx as u8));
        assert_eq!(&data[12..16], &[3, 3, 3, 3]);
    }

    #[test]
    fn par_for_balances_uneven_work() {
        // Just a smoke check that heavy early iterations don't serialize the
        // loop: the elapsed must be well under the serial sum.
        let t0 = std::time::Instant::now();
        par_for(4, 8, |i| {
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
        par_chunks_mut(2, &mut data, 0, |_, _| {});
    }

    #[test]
    fn pooled_differential_vs_scoped() {
        // The pool and the scoped reference must produce identical results
        // for a reduction written via disjoint slots.
        let n = 777;
        let wg = Workgroup::new(3, "diff", None);
        let mut pooled = vec![0u64; n];
        let mut scoped = vec![0u64; n];
        wg.par_chunks_mut(&mut pooled, 13, |idx, chunk| {
            for (o, x) in chunk.iter_mut().enumerate() {
                *x = (idx * 1000 + o) as u64;
            }
        });
        par_chunks_mut(3, &mut scoped, 13, |idx, chunk| {
            for (o, x) in chunk.iter_mut().enumerate() {
                *x = (idx * 1000 + o) as u64;
            }
        });
        assert_eq!(pooled, scoped);
    }
}
