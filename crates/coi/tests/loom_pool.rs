//! Loom models of the compiled worker pool.
//!
//! `src/workers.rs` is mounted below by `#[path]`, beside a `sync` module
//! that maps the names of the `hs_coi::sync` facade to the loom model
//! checker. The models therefore explore the pool's own source: its FIFO
//! lock, the spinner flag, the `notified` count, the condvar park, the LIFO
//! slot and `SerialQueue`'s `scheduled` flag. A job that is queued but never
//! run leaves its waiter and a parked worker blocked, which the checker
//! reports as a deadlock; an item run twice, out of order or beside another
//! of its queue fails an assertion.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p hs-coi --release --test
//! loom_pool`. The two-worker models are CHESS-bounded (at most
//! `PREEMPTIONS` preemptions per schedule, fewer if `LOOM_MAX_PREEMPTIONS`
//! says so); the one-worker models are explored exhaustively.
#![cfg(loom)]

/// The facade under the models: loom's lock, condvar, atomics, threads and
/// yield, and a spin budget of [`sync::SPIN_POLLS`] polls.
mod sync {
    pub use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    pub use loom::sync::{Condvar, Mutex};
    pub use loom::thread::{yield_now, JoinHandle};
    use std::time::Duration;

    pub fn spawn(_name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
        loom::thread::spawn(f)
    }

    /// Polls a spin makes under the models: each is an atomic load and a
    /// yield, two schedule points.
    pub const SPIN_POLLS: u32 = 2;

    pub struct SpinBudget {
        polls: u32,
    }

    impl SpinBudget {
        pub fn new(_: Duration) -> SpinBudget {
            SpinBudget { polls: SPIN_POLLS }
        }

        pub fn left(&mut self) -> bool {
            let left = self.polls > 0;
            self.polls = self.polls.saturating_sub(1);
            left
        }
    }
}

#[allow(dead_code)]
#[path = "../src/workers.rs"]
mod workers;

use loom::sync::{Arc, Condvar, Mutex};
use workers::{QueueHandle, SerialQueue, WorkerPool, LIFO_CAP};

/// Preemptions per schedule in the two-worker models.
const PREEMPTIONS: usize = 2;

/// Items run so far, by the queue they ran on, and a condvar to wait on.
#[derive(Default)]
struct Log {
    ran: Mutex<Vec<(u8, u32)>>,
    cv: Condvar,
}

impl Log {
    fn record(&self, queue: u8, item: u32) {
        self.ran.lock().push((queue, item));
        self.cv.notify_all();
    }

    /// Block until `n` items have run. A job lost by the pool blocks this
    /// forever, which the checker reports as a deadlock.
    fn wait_for(&self, n: usize) -> Vec<(u8, u32)> {
        let mut ran = self.ran.lock();
        while ran.len() < n {
            self.cv.wait(&mut ran);
        }
        ran.clone()
    }
}

/// A queue named `name` whose items are logged, with a flag that fails the
/// model if two of its items ever run at once.
fn logged_queue(pool: &Arc<WorkerPool>, log: &Arc<Log>, name: u8) -> SerialQueue<u32> {
    let (log, busy) = (log.clone(), Arc::new(Mutex::new(false)));
    SerialQueue::new(pool.clone(), move |item| {
        assert!(
            !std::mem::replace(&mut *busy.lock(), true),
            "two items of one queue ran at once"
        );
        log.record(name, item);
        *busy.lock() = false;
    })
}

fn bounded(f: impl Fn() + Send + Sync + 'static) {
    let mut b = loom::model::Builder::new();
    b.preemption_bound = Some(
        b.preemption_bound
            .map_or(PREEMPTIONS, |p| p.min(PREEMPTIONS)),
    );
    b.check(f);
}

/// A push racing the queue's last item, on a one-worker pool: the second
/// push lands before, during or after the worker's check for more, and
/// after it has parked again. Both items run, once each, in order, and the
/// worker that parked after the first is woken for the second (this is
/// what a `notified` count that is never paid back breaks).
#[test]
fn a_push_racing_the_last_item_runs_both_in_order() {
    loom::model(|| {
        let pool = Arc::new(WorkerPool::new(1, "m"));
        let log = Arc::new(Log::default());
        let q = logged_queue(&pool, &log, 0);
        let h = q.handle();
        h.push(1).unwrap();
        h.push(2).unwrap();
        assert_eq!(log.wait_for(2), vec![(0, 1), (0, 2)]);
        let s = pool.stats();
        assert!(s.wakes <= 2 && s.spin_takes == 0, "{s:?}");
    });
}

/// One job pushed onto a two-worker pool whose workers are starting, one of
/// them spinning: the push lands before the spin, during it (and wakes
/// nobody) or after its give-up. The job runs on every schedule.
#[test]
fn a_push_racing_the_spinners_give_up_is_never_lost() {
    bounded(|| {
        let pool = Arc::new(WorkerPool::new(2, "m"));
        let log = Arc::new(Log::default());
        let q = logged_queue(&pool, &log, 0);
        q.handle().push(1).unwrap();
        assert_eq!(log.wait_for(1), vec![(0, 1)]);
    });
}

/// Two jobs pushed back to back (two queues) while a worker may be
/// spinning: the spinner takes one, and the other runs too — by the parked
/// worker or by the spinner after its first.
#[test]
fn two_pushes_in_one_spin_window_both_run() {
    bounded(|| {
        let pool = Arc::new(WorkerPool::new(2, "m"));
        let log = Arc::new(Log::default());
        let (a, b) = (logged_queue(&pool, &log, 0), logged_queue(&pool, &log, 1));
        a.handle().push(1).unwrap();
        b.handle().push(1).unwrap();
        let mut ran = log.wait_for(2);
        ran.sort_unstable();
        assert_eq!(ran, vec![(0, 1), (1, 1)]);
    });
}

/// The pool dropped while a worker may be spinning, with one item queued
/// just before: the item drains, every worker stops and the drop's join
/// returns.
#[test]
fn shutdown_while_a_worker_spins_drains_and_joins() {
    bounded(|| {
        let pool = Arc::new(WorkerPool::new(2, "m"));
        let log = Arc::new(Log::default());
        let q = logged_queue(&pool, &log, 0);
        q.handle().push(1).unwrap();
        drop(q);
        drop(pool);
        assert_eq!(log.wait_for(1), vec![(0, 1)]);
    });
}

/// A queue feeding itself from its own items runs on through the worker's
/// LIFO slot; a second queue pushed meanwhile runs within `LIFO_CAP` + 1 of
/// the chain's items, counted from when its push returned.
#[test]
fn a_self_feeding_chain_yields_within_the_lifo_cap() {
    const CHAIN: u32 = LIFO_CAP + 3;
    loom::model(|| {
        let pool = Arc::new(WorkerPool::new(1, "m"));
        let log = Arc::new(Log::default());
        let me: Arc<Mutex<Option<QueueHandle<u32>>>> = Arc::default();
        let (chain_log, next) = (log.clone(), me.clone());
        let chain = SerialQueue::new(pool.clone(), move |item: u32| {
            chain_log.record(0, item);
            let mut me = next.lock();
            if item < CHAIN {
                me.as_ref()
                    .expect("set before the first push")
                    .push(item + 1)
                    .unwrap();
            } else {
                *me = None;
            }
        });
        *me.lock() = Some(chain.handle());
        let other = logged_queue(&pool, &log, 1);
        chain.handle().push(1).unwrap();
        other.handle().push(1).unwrap();
        let before = log.ran.lock().len();
        let ran = log.wait_for(CHAIN as usize + 1);
        let at = ran
            .iter()
            .position(|&r| r == (1, 1))
            .expect("the other queue ran");
        assert!(
            at - before.min(at) <= LIFO_CAP as usize + 1,
            "the other queue waited behind {} chain items: {ran:?}",
            at - before.min(at)
        );
    });
}
