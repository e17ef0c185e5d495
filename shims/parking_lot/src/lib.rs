//! Offline shim for `parking_lot`: the same lock API shape (guards returned
//! directly, no poison `Result`s) implemented over `std::sync`. Poisoning is
//! translated to a panic — matching parking_lot's behaviour of not tracking
//! poison at all closely enough for this workspace, whose lock holders never
//! intentionally panic.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{self, TryLockError};
use std::time::Duration;

pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

/// Result of a timed condvar wait.
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable that counts the threads inside [`Condvar::wait`] /
/// [`Condvar::wait_for`] and skips the notify while the count is zero, as
/// parking_lot does: std's futex condvar enters the kernel on every notify,
/// whoever is waiting.
///
/// The count goes up under the caller's mutex, before std's wait releases
/// it, and down once the wait returns. A notifier that changed the
/// predicate under that mutex — and notifies after, with the lock held or
/// not — therefore reads a count that includes every waiter that checked
/// the old predicate: the waiter's increment precedes its unlock, which
/// precedes the notifier's lock. A waiter that checks after the change
/// sees the new predicate and does not wait.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
    /// Threads between the increment in a wait and its return.
    sleepers: AtomicU32,
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar {
            inner: sync::Condvar::new(),
            sleepers: AtomicU32::new(0),
        }
    }

    /// Block until notified. Takes `&mut guard` like parking_lot (std takes
    /// the guard by value); the guard is moved out and back in.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        replace_guard(guard, |g| {
            self.inner.wait(g).unwrap_or_else(|e| e.into_inner())
        });
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let mut timed_out = false;
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        replace_guard(guard, |g| {
            let (g, res) = self
                .inner
                .wait_timeout(g, timeout)
                .unwrap_or_else(|e| e.into_inner());
            timed_out = res.timed_out();
            g
        });
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        WaitTimeoutResult { timed_out }
    }

    // Relaxed suffices: the increment this load must see is ordered before
    // it by the mutex the waiter released and the notifier then took.
    pub fn notify_one(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.inner.notify_all();
        }
    }
}

/// Move the guard out of `slot`, run `f` on it, put the result back.
/// `f` must return a live guard for the same mutex (condvar waits do).
fn replace_guard<'a, T>(
    slot: &mut MutexGuard<'a, T>,
    f: impl FnOnce(MutexGuard<'a, T>) -> MutexGuard<'a, T>,
) {
    // SAFETY: `slot` is a valid initialized guard; we read it out, hand it
    // to `f` (which consumes and returns a guard of identical type), and
    // write the returned guard back before anyone can observe the hole. A
    // panic inside `f` would leave `slot` logically uninitialized — std's
    // condvar wait only panics on poison, which `unwrap_or_else(into_inner)`
    // above converts to a normal return — so the hole is never observed.
    unsafe {
        let guard = std::ptr::read(slot);
        let new_guard = f(guard);
        std::ptr::write(slot, new_guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().expect("waiter exits");
    }

    /// Run `f` on its own thread; panic if it is not done in `secs` (a
    /// waiter left asleep hangs instead of failing).
    fn within(secs: u64, f: impl FnOnce() + Send + 'static) {
        let t = std::thread::spawn(f);
        let deadline = std::time::Instant::now() + Duration::from_secs(secs);
        while !t.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "a waiter was left asleep"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        t.join().expect("no panic");
    }

    #[test]
    fn a_notify_after_unlock_never_leaves_the_other_side_asleep() {
        // Two threads hand a turn back and forth in `WindowMem::release`'s
        // order: flip the predicate under the lock, unlock, then notify. A
        // notify that skipped a waiter which had checked the old predicate
        // would stop the ping-pong.
        const ROUNDS: u32 = 10_000;
        within(60, || {
            let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
            let play = |pair: Arc<(Mutex<u32>, Condvar)>, parity: u32| {
                move || {
                    let (m, cv) = &*pair;
                    for _ in 0..ROUNDS {
                        let mut turn = m.lock();
                        while *turn % 2 != parity {
                            cv.wait(&mut turn);
                        }
                        *turn += 1;
                        drop(turn);
                        cv.notify_one();
                    }
                }
            };
            let odd = std::thread::spawn(play(pair.clone(), 1));
            play(pair.clone(), 0)();
            odd.join().expect("odd side finishes");
            assert_eq!(*pair.0.lock(), 2 * ROUNDS);
            assert_eq!(pair.1.sleepers.load(Ordering::Relaxed), 0);
        });
    }

    #[test]
    fn a_timed_out_wait_leaves_no_sleeper_counted() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(2)).timed_out());
        assert_eq!(cv.sleepers.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn notify_all_wakes_every_waiter() {
        within(60, || {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let waiters: Vec<_> = (0..4)
                .map(|_| {
                    let pair = pair.clone();
                    std::thread::spawn(move || {
                        let (m, cv) = &*pair;
                        let mut go = m.lock();
                        while !*go {
                            cv.wait(&mut go);
                        }
                    })
                })
                .collect();
            let (m, cv) = &*pair;
            // All four inside `wait`, so one notify has to wake each of them.
            while cv.sleepers.load(Ordering::Relaxed) < 4 {
                std::thread::yield_now();
            }
            *m.lock() = true;
            cv.notify_all();
            for w in waiters {
                w.join().expect("waiter exits");
            }
            assert_eq!(cv.sleepers.load(Ordering::Relaxed), 0);
        });
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(res.timed_out());
    }
}
