//! How an idle worker pool wakes: its spinner gives up and parks once its
//! budget is spent, and a stream of spaced pushes wakes a worker once per
//! idle spell rather than once per push.

use hs_coi::{SerialQueue, WorkerPool, SPIN};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A two-worker pool and a queue on it whose items count themselves.
fn counting_pool() -> (Arc<WorkerPool>, SerialQueue<()>, Arc<AtomicUsize>) {
    let pool = Arc::new(WorkerPool::new(2, "wakes"));
    let ran = Arc::new(AtomicUsize::new(0));
    let counted = ran.clone();
    let queue = SerialQueue::new(pool.clone(), move |()| {
        counted.fetch_add(1, SeqCst);
    });
    (pool, queue, ran)
}

/// Poll `cond` every 100 µs for up to `limit`; whether it came true.
fn within(limit: Duration, cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    true
}

/// Busy-wait `d`: a sleep would overshoot the spin budget it is measured
/// against.
fn pause(d: Duration) {
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// After its last job every worker of a two-worker pool parks: the spinner
/// stops polling once its budget is spent, so an idle pool burns no CPU.
#[test]
fn an_idle_pool_goes_quiet() {
    let (pool, queue, ran) = counting_pool();
    let push = queue.handle();
    for _ in 0..200 {
        push.push(()).unwrap();
        pause(Duration::from_micros(5));
    }
    assert!(
        within(Duration::from_secs(10), || ran.load(SeqCst) == 200),
        "ran {} of 200 items",
        ran.load(SeqCst)
    );
    assert!(
        within(Duration::from_secs(1), || pool.parked() == 2),
        "{} of 2 workers parked a second after the last job ({:?})",
        pool.parked(),
        pool.stats()
    );
    let parks = pool.stats().parks;
    std::thread::sleep(SPIN * 20);
    assert_eq!(pool.parked(), 2, "a parked worker woke with nothing to do");
    assert_eq!(
        pool.stats().parks,
        parks,
        "a parked worker woke and re-parked"
    );
}

/// 1,000 pushes a few µs apart to an idle two-worker pool: the spinner
/// takes each one, so the pool wakes a worker at most 100 times (about
/// 1,000 when every push woke a parked worker). Timing-sensitive — a
/// descheduled spinner misses its window — so it runs in CI's
/// `concurrency-smoke` job, not in the default test run.
#[test]
#[ignore = "timing-sensitive: run with --ignored on an otherwise idle host"]
fn spaced_pushes_wake_an_idle_pool_once_per_spell() {
    const PUSHES: usize = 1_000;
    let (pool, queue, ran) = counting_pool();
    assert!(within(Duration::from_secs(1), || pool.parked() == 2));
    let before = pool.stats();
    let push = queue.handle();
    for _ in 0..PUSHES {
        push.push(()).unwrap();
        pause(Duration::from_micros(5));
    }
    assert!(within(Duration::from_secs(10), || ran.load(SeqCst) == PUSHES));
    let after = pool.stats();
    let wakes = after.wakes - before.wakes;
    eprintln!(
        "{PUSHES} spaced pushes: {wakes} wakes, {} parks, {} spinner takes",
        after.parks - before.parks,
        after.spin_takes - before.spin_takes
    );
    assert!(wakes <= 100, "{wakes} wakes for {PUSHES} spaced pushes");
}
