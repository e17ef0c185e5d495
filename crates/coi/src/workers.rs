//! The worker pool under every in-process queue, and the serial queue that
//! runs on it.
//!
//! A [`CoiRuntime`](crate::CoiRuntime) owns one [`WorkerPool`] of
//! `available_parallelism()` threads. A stream's sink and a card's DMA
//! direction are each a [`SerialQueue`]: its items run one at a time in the
//! order they were pushed, and the queue holds a worker only while it has
//! items — its first item puts it on the pool's FIFO, a worker runs one item
//! and re-queues it while more are waiting. Streams are queues, not threads:
//! an in-process runtime runs at most `host_cores` of them at once, however
//! many it has. Expansion regions ([`crate::Workgroup`]) are jobs on the same
//! pool.
//!
//! **LIFO slot.** A queue made runnable on a worker — the item that worker
//! just ran completed, and its completion released a dependent onto the
//! queue — goes to that worker's LIFO slot and runs next there, without a
//! wake-up. A queue re-queueing itself takes the slot only while it is free.
//! A worker takes at most [`LIFO_CAP`] jobs in a row from its slot before it
//! serves the FIFO, so a chain that feeds itself cannot starve the pool.
//!
//! **Waking.** A worker that finds the FIFO empty first spins: it polls a
//! count of queued jobs for up to [`SPIN`] (yielding its core between
//! polls), and only then parks on the condvar. One worker per pool spins at
//! a time, and a one-worker pool never does. A push wakes a parked worker
//! only for a job nobody else will take: the spinner takes one, and a
//! parked worker that a notify is already on its way to (the FIFO's
//! `notified` count) takes another. A worker that takes a job from the
//! FIFO and leaves more behind hands the rest on by the same rule. A
//! stream fed faster than once per [`SPIN`] therefore wakes a worker once
//! per idle spell, not once per push. [`WorkerPool::stats`] counts the
//! notifies (`wakes`), the parks and the jobs a spinner took
//! (`spin_takes`); an in-process runtime's `metrics()` reads them as
//! `workers.*`.
//!
//! **Blocking queues.** A queue whose items block (a remote card's exec
//! connection, its wire DMA) is the same queue on a pool of its own
//! with one worker: a blocked item never holds a worker that ready compute
//! could use.
//!
//! **Shutdown.** Dropping a [`SerialQueue`] closes it: later pushes are
//! refused, and what is queued drains. A pool goes with its last handle
//! (the runtime's, a queue's or an expansion group's): it stops its workers
//! once the FIFO is empty and joins them, unless the drop runs on one of
//! them — then every worker is left to finish on its own.

use crate::sync::{
    spawn, yield_now, AtomicU64, AtomicUsize, Condvar, JoinHandle, Mutex, Ordering, SpinBudget,
};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;

/// Jobs a worker takes from its LIFO slot in a row before it serves the FIFO.
pub const LIFO_CAP: u32 = 4;

/// How long a worker that finds the FIFO empty polls it before it parks.
pub const SPIN: Duration = Duration::from_micros(50);

/// A unit of work on a [`WorkerPool`].
pub(crate) trait Job: Send + Sync {
    fn run(self: Arc<Self>);
}

struct Fifo {
    jobs: VecDeque<Arc<dyn Job>>,
    /// Workers parked on the condvar.
    idle: usize,
    /// Parked workers a notify is already on its way to; at most `idle`.
    notified: usize,
    /// A worker is polling `Shared::queued` instead of parking.
    spinner: bool,
    shutdown: bool,
}

impl Fifo {
    /// Parked workers to notify for `runnable` jobs just made takeable: the
    /// spinner takes one, each worker already notified another. The
    /// returned workers count as notified from here on.
    fn claim_wakes(&mut self, runnable: usize) -> usize {
        let spare = runnable.saturating_sub(usize::from(self.spinner));
        let wake = spare.min(self.idle - self.notified);
        self.notified += wake;
        wake
    }
}

struct Shared {
    fifo: Mutex<Fifo>,
    cv: Condvar,
    /// `fifo.jobs.len()`, stored under the lock, for the spinner to poll
    /// without taking it.
    queued: AtomicUsize,
    /// More than one worker: a one-worker pool never spins.
    spins: bool,
    wakes: AtomicU64,
    parks: AtomicU64,
    spin_takes: AtomicU64,
}

impl Shared {
    /// Queue `n` runs of `job` — at the front for region helpers, which a
    /// running item waits on — and wake the parked workers they need.
    fn push(&self, job: Arc<dyn Job>, n: usize, front: bool) {
        let wake = {
            let mut f = self.fifo.lock();
            for _ in 1..n {
                f.jobs.push_front(job.clone());
            }
            if front {
                f.jobs.push_front(job);
            } else {
                f.jobs.push_back(job);
            }
            self.queued.store(f.jobs.len(), Ordering::Relaxed);
            f.claim_wakes(n)
        };
        self.wake(wake);
    }

    /// Send the notifies [`Fifo::claim_wakes`] claimed.
    fn wake(&self, n: usize) {
        if n == 0 {
            return;
        }
        self.wakes.fetch_add(n as u64, Ordering::Relaxed);
        for _ in 0..n {
            self.cv.notify_one();
        }
    }
}

/// What a [`WorkerPool`]'s workers did about running out of work, counted
/// since the pool started.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Notifies sent to parked workers.
    pub wakes: u64,
    /// Times a worker parked on an empty FIFO.
    pub parks: u64,
    /// Jobs a worker took from the FIFO after spinning for them.
    pub spin_takes: u64,
}

thread_local! {
    /// The pool this thread works for; null on every other thread.
    static POOL: Cell<*const Shared> = const { Cell::new(std::ptr::null()) };
    /// This worker's LIFO slot.
    static LIFO: Cell<Option<Arc<dyn Job>>> = const { Cell::new(None) };
}

/// A fixed set of worker threads serving one FIFO of `Job`s, plus a LIFO
/// slot per worker. Every thread is spawned by [`WorkerPool::new`].
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// Parallel regions opened on this pool, by every group on it.
    pub(crate) regions: AtomicU64,
}

impl WorkerPool {
    /// `size` workers, named `{name}-{i}`.
    pub fn new(size: usize, name: &str) -> WorkerPool {
        let shared = Arc::new(Shared {
            fifo: Mutex::new(Fifo {
                jobs: VecDeque::new(),
                idle: 0,
                notified: 0,
                spinner: false,
                shutdown: false,
            }),
            cv: Condvar::new(),
            queued: AtomicUsize::new(0),
            spins: size > 1,
            wakes: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            spin_takes: AtomicU64::new(0),
        });
        let threads = (0..size)
            .map(|i| {
                let shared = shared.clone();
                spawn(format!("{name}-{i}"), move || work(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            regions: AtomicU64::new(0),
        }
    }

    /// Worker threads: every thread this pool has spawned or ever will.
    pub fn size(&self) -> usize {
        self.threads.len()
    }

    /// Parallel regions the [`crate::Workgroup`]s on this pool have opened.
    pub fn regions(&self) -> u64 {
        self.regions.load(Ordering::Relaxed)
    }

    /// Wake-ups, parks and spinner takes so far.
    pub fn stats(&self) -> WorkerStats {
        WorkerStats {
            wakes: self.shared.wakes.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
            spin_takes: self.shared.spin_takes.load(Ordering::Relaxed),
        }
    }

    /// Workers parked on the condvar right now.
    pub fn parked(&self) -> usize {
        self.shared.fifo.lock().idle
    }

    fn on_worker(&self) -> bool {
        POOL.with(Cell::get) == Arc::as_ptr(&self.shared)
    }

    /// Run `job` once: next on this worker when called from one (whatever
    /// held the LIFO slot moves to the FIFO), else from the FIFO.
    pub(crate) fn schedule(&self, job: Arc<dyn Job>) {
        if !self.on_worker() {
            return self.shared.push(job, 1, false);
        }
        if let Some(displaced) = LIFO.with(|slot| slot.replace(Some(job))) {
            self.shared.push(displaced, 1, false);
        }
    }

    /// [`Self::schedule`] for a job that yields: it takes the LIFO slot only
    /// while the slot is free, and goes to the back of the FIFO otherwise.
    fn requeue(&self, job: Arc<dyn Job>) {
        let job = if self.on_worker() {
            LIFO.with(|slot| match slot.take() {
                None => {
                    slot.set(Some(job));
                    None
                }
                held => {
                    slot.set(held);
                    Some(job)
                }
            })
        } else {
            Some(job)
        };
        if let Some(job) = job {
            self.shared.push(job, 1, false);
        }
    }

    /// `n` runs of `job` at the front of the FIFO: helpers for a region its
    /// submitter is already running.
    pub(crate) fn push_helpers(&self, job: Arc<dyn Job>, n: usize) {
        if n > 0 {
            self.shared.push(job, n, true);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.fifo.lock().shutdown = true;
        self.shared.cv.notify_all();
        if self.on_worker() {
            return; // never join this thread; the others stop on their own
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A worker: its LIFO slot up to [`LIFO_CAP`] jobs in a row, then the FIFO,
/// until the pool shuts down and the FIFO is empty.
fn work(shared: &Arc<Shared>) {
    POOL.with(|p| p.set(Arc::as_ptr(shared)));
    let mut lifo_runs = 0;
    loop {
        let job = match LIFO.with(Cell::take) {
            Some(job) if lifo_runs < LIFO_CAP => {
                lifo_runs += 1;
                job
            }
            spilled => {
                lifo_runs = 0;
                let mut f = shared.fifo.lock();
                if let Some(job) = spilled {
                    f.jobs.push_back(job);
                }
                let mut spun = false;
                loop {
                    if let Some(job) = f.jobs.pop_front() {
                        shared.queued.store(f.jobs.len(), Ordering::Relaxed);
                        if spun {
                            shared.spin_takes.fetch_add(1, Ordering::Relaxed);
                        }
                        let wake = if f.jobs.is_empty() {
                            0
                        } else {
                            f.claim_wakes(1)
                        };
                        drop(f);
                        shared.wake(wake);
                        break job;
                    }
                    if f.shutdown {
                        return;
                    }
                    if shared.spins && !spun && !f.spinner {
                        f.spinner = true;
                        drop(f);
                        let mut budget = SpinBudget::new(SPIN);
                        while shared.queued.load(Ordering::Relaxed) == 0 && budget.left() {
                            std::hint::spin_loop();
                            yield_now();
                        }
                        f = shared.fifo.lock();
                        f.spinner = false;
                        spun = true;
                        // Back to the top: a push that found this worker
                        // spinning woke nobody, so its job is this
                        // worker's to take.
                        continue;
                    }
                    f.idle += 1;
                    shared.parks.fetch_add(1, Ordering::Relaxed);
                    shared.cv.wait(&mut f);
                    f.idle -= 1;
                    f.notified = f.notified.saturating_sub(1);
                    spun = false;
                }
            }
        };
        // Queues and regions catch their items' panics; this keeps the
        // worker alive whatever a job does.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| job.run()));
    }
}

struct QState<T> {
    items: VecDeque<T>,
    /// On the pool: in the FIFO, in a LIFO slot, or running.
    scheduled: bool,
    closed: bool,
}

struct Queue<T> {
    state: Mutex<QState<T>>,
    run: Box<dyn Fn(T) + Send + Sync>,
    pool: Arc<WorkerPool>,
}

impl<T: Send + 'static> Queue<T> {
    fn push(self: &Arc<Self>, item: T) -> Result<(), T> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(item);
        }
        st.items.push_back(item);
        if st.scheduled {
            return Ok(());
        }
        st.scheduled = true;
        drop(st);
        self.pool.schedule(self.clone());
        Ok(())
    }
}

impl<T: Send + 'static> Job for Queue<T> {
    /// One item, then back on the pool while more are waiting.
    fn run(self: Arc<Self>) {
        let item = self.state.lock().items.pop_front();
        if let Some(item) = item {
            // The run functions catch their items' panics; this keeps the
            // queue going whatever an item does.
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| (self.run)(item)));
        }
        let more = {
            let mut st = self.state.lock();
            st.scheduled = !st.items.is_empty();
            st.scheduled
        };
        if more {
            self.pool.clone().requeue(self);
        }
    }
}

/// An in-order queue of `T`s, each handed to the queue's run function, one
/// at a time, on a [`WorkerPool`]. This is the owner: dropping it closes the
/// queue (see the module docs); [`QueueHandle`]s push.
pub struct SerialQueue<T: Send + 'static> {
    queue: Arc<Queue<T>>,
}

impl<T: Send + 'static> SerialQueue<T> {
    pub fn new(pool: Arc<WorkerPool>, run: impl Fn(T) + Send + Sync + 'static) -> SerialQueue<T> {
        let queue = Arc::new(Queue {
            state: Mutex::new(QState {
                items: VecDeque::new(),
                scheduled: false,
                closed: false,
            }),
            run: Box::new(run),
            pool,
        });
        SerialQueue { queue }
    }

    /// A cloneable handle that pushes onto this queue from any thread.
    pub fn handle(&self) -> QueueHandle<T> {
        QueueHandle(self.queue.clone())
    }
}

impl<T: Send + 'static> Drop for SerialQueue<T> {
    fn drop(&mut self) {
        self.queue.state.lock().closed = true;
    }
}

/// Pushes onto a [`SerialQueue`].
pub struct QueueHandle<T>(Arc<Queue<T>>);

impl<T> Clone for QueueHandle<T> {
    fn clone(&self) -> Self {
        QueueHandle(self.0.clone())
    }
}

impl<T: Send + 'static> QueueHandle<T> {
    /// Queue `item` behind everything pushed before it; a closed queue hands
    /// it back.
    pub fn push(&self, item: T) -> Result<(), T> {
        self.0.push(item)
    }
}
