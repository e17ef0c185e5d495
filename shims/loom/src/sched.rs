//! The cooperative scheduler and DFS schedule explorer behind [`crate::model`].
//!
//! One model run executes the user closure with every spawned thread mapped
//! to a real OS thread, but **serialized**: a single `active` token decides
//! who runs, and everyone else parks on a condvar. Each schedule point
//! ([`Scheduler::yield_point`] / [`Scheduler::block_on`]) asks the
//! [`Explorer`] which runnable thread goes next. The explorer records the
//! candidate set at each decision the first time it is reached and, across
//! runs, advances a cursor DFS-style until every schedule has been executed.
//!
//! Preemption bounding (CHESS): continuing the currently active thread is
//! free; switching away from a thread that could have continued costs one
//! preemption. With a bound of `k`, only schedules with ≤ k preemptions are
//! explored — unbounded exploration is the default and exhaustive.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

pub(crate) type Tid = usize;

/// Why a thread is not runnable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Blocked acquiring a mutex/rwlock; the id is the resource's.
    Resource(u64),
    /// Waiting on a condvar. `timed` waits are rescued instead of counting
    /// toward deadlock.
    Cond { cv: u64, timed: bool },
    /// Waiting for a thread to finish.
    Join(Tid),
}

#[derive(Debug)]
enum Status {
    Runnable,
    Waiting(Wait),
    Finished,
}

struct ThreadInfo {
    status: Status,
    /// Set when a timed condvar wait was woken by deadlock rescue; the
    /// waiter reports a timeout.
    rescued: bool,
}

enum Abort {
    /// A model thread panicked; the payload is re-thrown by the driver.
    Panic(Box<dyn Any + Send + 'static>),
    Deadlock(String),
}

/// Internal marker panic used to unwind model threads once a run aborts.
pub(crate) struct LoomAbort;

struct State {
    threads: Vec<ThreadInfo>,
    active: Tid,
    /// Decision index within the current run (position in the explorer's
    /// node path).
    depth: usize,
    preemptions: usize,
    abort: Option<Abort>,
    os: Vec<std::thread::JoinHandle<()>>,
}

/// One scheduling decision point: the runnable candidates seen there and
/// the DFS cursor into them.
struct Node {
    choices: Vec<Tid>,
    cursor: usize,
}

/// Depth-first enumerator over schedules, shared across the runs of one
/// model.
pub(crate) struct Explorer {
    nodes: Vec<Node>,
    pub(crate) iterations: u64,
}

impl Explorer {
    pub(crate) fn new() -> Explorer {
        Explorer {
            nodes: Vec::new(),
            iterations: 0,
        }
    }

    /// Pick the thread to run at decision `depth` given `candidates`
    /// (preference-ordered, current-thread first). Replays the recorded
    /// choice when revisiting a prefix; extends the path otherwise.
    fn choose(&mut self, depth: usize, candidates: Vec<Tid>) -> Tid {
        if let Some(n) = self.nodes.get(depth) {
            assert!(
                n.choices == candidates,
                "loom(shim): nondeterministic model — decision {depth} saw \
                 candidates {:?} on replay but {:?} originally; model bodies \
                 must be deterministic given the schedule",
                candidates,
                n.choices
            );
            return n.choices[n.cursor];
        }
        debug_assert_eq!(depth, self.nodes.len());
        let chosen = candidates[0];
        self.nodes.push(Node {
            choices: candidates,
            cursor: 0,
        });
        chosen
    }

    /// Advance to the next unexplored schedule. Returns false when the
    /// whole space has been visited.
    pub(crate) fn advance(&mut self) -> bool {
        self.iterations += 1;
        while let Some(n) = self.nodes.last_mut() {
            n.cursor += 1;
            if n.cursor < n.choices.len() {
                return true;
            }
            self.nodes.pop();
        }
        false
    }
}

pub(crate) struct Scheduler {
    st: StdMutex<State>,
    cv: StdCondvar,
    explorer: Arc<StdMutex<Explorer>>,
    bound: Option<usize>,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Per-OS-thread handle into the active model, if any.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) sched: Arc<Scheduler>,
    pub(crate) tid: Tid,
}

pub(crate) fn current() -> Option<Ctx> {
    let ctx = CTX.with(|c| c.borrow().clone())?;
    // A thread unwinding out of an aborted run runs its destructors outside
    // the model: a lock, notify or join there would otherwise raise
    // `LoomAbort` inside a destructor, and a panic during unwinding aborts
    // the process instead of reporting the failure.
    if std::thread::panicking() && ctx.sched.st().abort.is_some() {
        return None;
    }
    Some(ctx)
}

fn set_current(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

impl Scheduler {
    fn new(explorer: Arc<StdMutex<Explorer>>, bound: Option<usize>) -> Scheduler {
        Scheduler {
            st: StdMutex::new(State {
                threads: Vec::new(),
                active: 0,
                depth: 0,
                preemptions: 0,
                abort: None,
                os: Vec::new(),
            }),
            cv: StdCondvar::new(),
            explorer,
            bound,
        }
    }

    fn st(&self) -> StdMutexGuard<'_, State> {
        // Model threads unwind through this lock on abort; poisoning is
        // expected and harmless — the state stays consistent because every
        // mutation completes before any panic point.
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn check_abort(&self, st: &State) {
        if st.abort.is_some() {
            panic::panic_any(LoomAbort);
        }
    }

    /// Register a new model thread; it starts runnable but does not run
    /// until a decision selects it.
    pub(crate) fn register(&self) -> Tid {
        let mut st = self.st();
        st.threads.push(ThreadInfo {
            status: Status::Runnable,
            rescued: false,
        });
        st.threads.len() - 1
    }

    pub(crate) fn adopt(&self, h: std::thread::JoinHandle<()>) {
        self.st().os.push(h);
    }

    pub(crate) fn is_finished(&self, tid: Tid) -> bool {
        matches!(self.st().threads[tid].status, Status::Finished)
    }

    /// Core decision: pick the next active thread. Caller holds the state
    /// lock. No-op once aborted; flags deadlock when nothing can run.
    fn decide(&self, st: &mut State) {
        if st.abort.is_some() {
            return;
        }
        let mut runnable: Vec<Tid> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.status, Status::Runnable))
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            // Rescue timed condvar waits: they are timeouts, not deadlock.
            let timed: Vec<Tid> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    matches!(t.status, Status::Waiting(Wait::Cond { timed: true, .. }))
                })
                .map(|(i, _)| i)
                .collect();
            if !timed.is_empty() {
                for &t in &timed {
                    st.threads[t].status = Status::Runnable;
                    st.threads[t].rescued = true;
                }
                runnable = timed;
            } else if st
                .threads
                .iter()
                .all(|t| matches!(t.status, Status::Finished))
            {
                return; // run complete
            } else {
                let desc: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !matches!(t.status, Status::Finished))
                    .map(|(i, t)| format!("thread {i}: {:?}", t.status))
                    .collect();
                st.abort = Some(Abort::Deadlock(desc.join("; ")));
                return;
            }
        }
        let cur = st.active;
        let cur_runnable = runnable.contains(&cur);
        let candidates: Vec<Tid> = if cur_runnable {
            let may_preempt = self.bound.is_none_or(|b| st.preemptions < b);
            let mut c = vec![cur];
            if may_preempt {
                c.extend(runnable.iter().copied().filter(|&t| t != cur));
            }
            c
        } else {
            runnable
        };
        let chosen = {
            let mut ex = self.explorer.lock().unwrap_or_else(|e| e.into_inner());
            ex.choose(st.depth, candidates)
        };
        st.depth += 1;
        if cur_runnable && chosen != cur {
            st.preemptions += 1;
        }
        st.active = chosen;
    }

    /// Schedule point before every visible operation: maybe switch threads,
    /// then wait until this thread holds the active token again.
    pub(crate) fn yield_point(&self, me: Tid) {
        let mut st = self.st();
        self.check_abort(&st);
        self.decide(&mut st);
        self.check_abort(&st);
        if st.active == me {
            return;
        }
        self.cv.notify_all();
        while st.active != me {
            self.check_abort(&st);
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Give up the active token until woken (resource released, condvar
    /// notified, join target finished). Returns true if the wake was a
    /// timed-wait rescue.
    pub(crate) fn block_on(&self, me: Tid, why: Wait) -> bool {
        let mut st = self.st();
        self.check_abort(&st);
        st.threads[me].status = Status::Waiting(why);
        self.decide(&mut st);
        self.cv.notify_all();
        loop {
            self.check_abort(&st);
            if matches!(st.threads[me].status, Status::Runnable) && st.active == me {
                let rescued = st.threads[me].rescued;
                st.threads[me].rescued = false;
                return rescued;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A mutex/rwlock was released: every thread parked on it retries.
    /// Deliberately not a schedule point (guards drop during unwinding).
    pub(crate) fn release_resource(&self, id: u64) {
        let mut st = self.st();
        for t in st.threads.iter_mut() {
            if matches!(t.status, Status::Waiting(Wait::Resource(r)) if r == id) {
                t.status = Status::Runnable;
            }
        }
    }

    /// Wake one (lowest-tid) or all waiters of a condvar.
    pub(crate) fn notify_cond(&self, cv: u64, all: bool) {
        let mut st = self.st();
        for t in st.threads.iter_mut() {
            if matches!(t.status, Status::Waiting(Wait::Cond { cv: c, .. }) if c == cv) {
                t.status = Status::Runnable;
                if !all {
                    break;
                }
            }
        }
    }

    /// First wait of a freshly spawned thread: run only once scheduled.
    pub(crate) fn wait_scheduled(&self, me: Tid) {
        let mut st = self.st();
        loop {
            self.check_abort(&st);
            if st.active == me {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Mark a thread done, wake joiners, hand the token onward.
    pub(crate) fn finish(&self, me: Tid) {
        let mut st = self.st();
        st.threads[me].status = Status::Finished;
        for t in st.threads.iter_mut() {
            if matches!(t.status, Status::Waiting(Wait::Join(j)) if j == me) {
                t.status = Status::Runnable;
            }
        }
        if st.abort.is_none() {
            self.decide(&mut st);
        }
        self.cv.notify_all();
    }

    /// A model thread panicked with a real (non-abort) payload: record it
    /// and wake everyone so they unwind.
    pub(crate) fn abort_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut st = self.st();
        if st.abort.is_none() {
            st.abort = Some(Abort::Panic(payload));
        }
        self.cv.notify_all();
    }

    fn wait_all_finished(&self) -> (Option<Abort>, Vec<std::thread::JoinHandle<()>>) {
        let mut st = self.st();
        while !st
            .threads
            .iter()
            .all(|t| matches!(t.status, Status::Finished))
        {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        (st.abort.take(), std::mem::take(&mut st.os))
    }
}

/// Spawn a model thread (used by `loom::thread::spawn` and the root).
/// `first` skips the initial wait for the root thread, which starts active.
pub(crate) fn spawn_model(
    sched: &Arc<Scheduler>,
    tid: Tid,
    root: bool,
    body: impl FnOnce() + Send + 'static,
) {
    let s = sched.clone();
    let h = std::thread::Builder::new()
        .name(format!("loom-{tid}"))
        .spawn(move || {
            set_current(Some(Ctx {
                sched: s.clone(),
                tid,
            }));
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                if !root {
                    s.wait_scheduled(tid);
                }
                body()
            }));
            if let Err(p) = r {
                if !p.is::<LoomAbort>() {
                    s.abort_panic(p);
                }
            }
            s.finish(tid);
            set_current(None);
        })
        .expect("loom(shim): spawning model OS thread");
    sched.adopt(h);
}

/// Execute the model closure once under a fresh scheduler, against the
/// schedule currently loaded in `explorer`. Panics (re-raising the model's
/// own panic, or a deadlock report) if the run fails.
pub(crate) fn run_one(
    f: Arc<dyn Fn() + Send + Sync + 'static>,
    explorer: Arc<StdMutex<Explorer>>,
    bound: Option<usize>,
) {
    let sched = Arc::new(Scheduler::new(explorer, bound));
    let root = sched.register();
    sched.st().active = root;
    spawn_model(&sched, root, true, move || f());
    let (abort, handles) = sched.wait_all_finished();
    for h in handles {
        let _ = h.join();
    }
    match abort {
        None => {}
        Some(Abort::Panic(p)) => panic::resume_unwind(p),
        Some(Abort::Deadlock(d)) => panic!("loom(shim): deadlock detected — {d}"),
    }
}
