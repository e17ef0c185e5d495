//! Completion events with wait/poll semantics and error propagation.
//!
//! The completion state is an [`EventCore`] that lives *inside* whatever it
//! completes: a bare event allocates just the core, while a task record (the
//! pipelines' own, or the executor's per-action record above this crate)
//! embeds one and hands out [`CoiEvent`]s that are views of itself — an
//! action's event costs no allocation of its own. What waits on an event is
//! a list of [`Dependent`]s walked in place at completion: never taken,
//! never freed by the completing thread, so a pool worker that completes an
//! action releases nothing the enqueuing thread allocated. The list goes
//! when its owner sweeps the finished event ([`EventCore::retire`]) — or,
//! for an event nobody sweeps, with the core.

use crate::small::SmallVec;
use hs_chaos::FailureCause;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Observable status of an event.
#[derive(Clone, PartialEq, Debug)]
pub enum EventStatus {
    Pending,
    Done,
    Failed(FailureCause),
}

/// Something released by an event's completion: a dependent action's
/// countdown.
pub trait Dependent: Send + Sync {
    /// The producer completed with `status` (never `Pending`). Runs on the
    /// completing thread, or inline on the registering thread when the
    /// producer was already complete.
    fn resolved(self: Arc<Self>, status: &EventStatus);
}

/// The owner of an [`EventCore`]: what a [`CoiEvent`] points at.
pub trait EventHost: Send + Sync {
    fn event_core(&self) -> &EventCore;

    /// Called once with the final status, on the completing thread, before
    /// the completion is observable: no waiter, poll or dependent sees it
    /// until this returns (so a completion stamp taken here never exceeds
    /// one its dependents take). Runs under the event's lock: it must not
    /// touch the event.
    fn completed(&self, _status: &EventStatus) {}
}

struct EventState {
    status: EventStatus,
    /// Threads parked on `cv`. Counted under the state lock — the lock a
    /// waiter holds from its status check until it parks and a completer
    /// holds while it publishes the status — so a completion either sees
    /// the waiter and notifies it, or the waiter sees the completion and
    /// never parks. With nobody parked, completion skips the futex syscall.
    waiters: u32,
    /// Registered while pending, frozen at completion, dropped by
    /// [`EventCore::retire`] or with the core. Inline for four: counted at
    /// every registration on the runtime's `smallact` benchmark workload, a
    /// producer had at most eight dependents, and two spill on 7 % of its
    /// actions, four on 0.4 %; eight would spill on none but cost every
    /// action 64 bytes more (`peak_rss_mb` 6.28 → 6.48 MiB there).
    dependents: SmallVec<Option<Arc<dyn Dependent>>, 4>,
    /// How many of `dependents` the completing thread has released.
    walked: usize,
}

/// One-shot completion state: status, parked waiters, dependents.
pub struct EventCore {
    state: Mutex<EventState>,
    cv: Condvar,
    /// Lock-free mirror of the settled status ([`PENDING`], [`OK`] or
    /// [`FAILED`]), stored under the state lock when the status leaves
    /// `Pending`. Retire sweeps and outstanding-list pruning poll once per
    /// action, so the common "already done" answer must not take the mutex.
    settled: AtomicU8,
}

const PENDING: u8 = 0;
const OK: u8 = 1;
const FAILED: u8 = 2;

impl Default for EventCore {
    fn default() -> Self {
        Self::new()
    }
}

impl EventHost for EventCore {
    fn event_core(&self) -> &EventCore {
        self
    }
}

impl EventCore {
    pub fn new() -> EventCore {
        EventCore {
            state: Mutex::new(EventState {
                status: EventStatus::Pending,
                waiters: 0,
                dependents: SmallVec::new(),
                walked: 0,
            }),
            cv: Condvar::new(),
            settled: AtomicU8::new(PENDING),
        }
    }

    /// Settle the event (first completion wins; later ones are ignored):
    /// tell `host`, publish the status and wake parked waiters, then
    /// release the dependents in registration order. `host` is the owner of
    /// this core.
    pub fn complete(&self, new: EventStatus, host: &(impl EventHost + ?Sized)) {
        let status = {
            let mut st = self.state.lock();
            if st.status != EventStatus::Pending {
                return;
            }
            host.completed(&new);
            let settled = if new == EventStatus::Done { OK } else { FAILED };
            st.status = new;
            self.settled.store(settled, Ordering::Release);
            if st.waiters > 0 {
                self.cv.notify_all();
            }
            st.status.clone()
        };
        // The list is frozen now (registrations that find the event complete
        // run inline), so it is walked by cursor outside the lock: a
        // dependent may dispatch, complete and walk its own list from here.
        loop {
            let dep = {
                let mut st = self.state.lock();
                let Some(dep) = st.dependents.as_slice().get(st.walked).cloned() else {
                    return;
                };
                st.walked += 1;
                dep
            };
            dep.expect("registered dependents stay in place")
                .resolved(&status);
        }
    }

    /// Complete, with every dependent released? Then drop the dependent list
    /// here, on the calling thread, and say so. The owner's sweep of finished
    /// events calls this: a finished producer stops pinning the records that
    /// registered on it (and, through them, theirs), and what the list held
    /// is freed by the sweeping thread, never by the completing one.
    pub fn retire(&self) -> bool {
        if self.settled.load(Ordering::Acquire) == PENDING {
            return false;
        }
        let released = {
            let mut st = self.state.lock();
            if st.walked < st.dependents.len() {
                return false; // the completing thread is still walking
            }
            std::mem::take(&mut st.dependents)
        };
        drop(released); // outside the lock: a last reference frees a record
        true
    }

    /// Release `dep` when the event completes — inline, on this thread, if
    /// it already has.
    pub fn add_dependent(&self, dep: Arc<dyn Dependent>) {
        let status = {
            let mut st = self.state.lock();
            if st.status == EventStatus::Pending {
                st.dependents.push(Some(dep));
                return;
            }
            st.status.clone()
        };
        dep.resolved(&status);
    }

    pub fn status(&self) -> EventStatus {
        self.state.lock().status.clone()
    }

    /// The mirror is stored under the state lock before any waiter or
    /// dependent can observe completion, so a settled read is never stale.
    /// A pending read falls back to the locked status — the caller may be
    /// racing the completing thread.
    fn settled(&self) -> u8 {
        match self.settled.load(Ordering::Acquire) {
            PENDING => match &self.state.lock().status {
                EventStatus::Pending => PENDING,
                EventStatus::Done => OK,
                EventStatus::Failed(_) => FAILED,
            },
            settled => settled,
        }
    }

    pub fn is_complete(&self) -> bool {
        self.settled() != PENDING
    }

    /// Completed *successfully*? (The retirement predicate calls this once
    /// per pending action per enqueue.)
    pub fn completed_ok(&self) -> bool {
        self.settled() == OK
    }

    /// Park on the condvar (until notified, or for `timeout`), counted as a
    /// waiter for the duration.
    fn park(&self, st: &mut MutexGuard<'_, EventState>, timeout: Option<Duration>) {
        st.waiters += 1;
        match timeout {
            Some(t) => {
                self.cv.wait_for(st, t);
            }
            None => self.cv.wait(st),
        }
        st.waiters -= 1;
    }

    /// Block until complete; `Err` carries the failure cause.
    pub fn wait(&self) -> Result<(), FailureCause> {
        self.wait_until(None)
            .expect("an unbounded wait returns only on completion")
    }

    /// Block until complete or until `deadline` passes. Returns `None` on
    /// timeout (the event is left pending). Used by executor shutdown to
    /// drain outstanding actions with a bounded budget instead of hanging
    /// on an action whose dependence will never resolve.
    pub fn wait_deadline(&self, deadline: Instant) -> Option<Result<(), FailureCause>> {
        self.wait_until(Some(deadline))
    }

    fn wait_until(&self, deadline: Option<Instant>) -> Option<Result<(), FailureCause>> {
        let mut st = self.state.lock();
        loop {
            match &st.status {
                EventStatus::Done => return Some(Ok(())),
                EventStatus::Failed(m) => return Some(Err(m.clone())),
                EventStatus::Pending => {}
            }
            let left = match deadline {
                Some(d) => Some(
                    d.checked_duration_since(Instant::now())
                        .filter(|t| !t.is_zero())?,
                ),
                None => None,
            };
            self.park(&mut st, left);
        }
    }
}

/// A shareable one-shot completion event: a view of the [`EventCore`] its
/// host embeds (it derefs to it). Cloning shares the same core.
#[derive(Clone)]
pub struct CoiEvent {
    host: Arc<dyn EventHost>,
}

impl Default for CoiEvent {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for CoiEvent {
    type Target = EventCore;

    fn deref(&self) -> &EventCore {
        self.host.event_core()
    }
}

impl CoiEvent {
    pub fn new() -> CoiEvent {
        CoiEvent::of(Arc::new(EventCore::new()))
    }

    /// The event of `host`.
    pub fn of(host: Arc<dyn EventHost>) -> CoiEvent {
        CoiEvent { host }
    }

    /// An event that is already complete.
    pub fn done() -> CoiEvent {
        let ev = CoiEvent::new();
        ev.signal();
        ev
    }

    /// Mark complete and wake waiters. Signalling twice is idempotent;
    /// signalling after `fail` keeps the failure.
    pub fn signal(&self) {
        self.complete(EventStatus::Done, &*self.host);
    }

    /// Mark failed and wake waiters.
    pub fn fail(&self, cause: impl Into<FailureCause>) {
        self.complete(EventStatus::Failed(cause.into()), &*self.host);
    }

    /// Wait for all events; the first failure (in list order) is reported.
    pub fn wait_all(events: &[CoiEvent]) -> Result<(), FailureCause> {
        for ev in events {
            ev.wait()?;
        }
        Ok(())
    }

    /// Wait until at least one event *succeeds*; returns its index. Only
    /// when every member has failed does it return an error — the first
    /// failure in list order. The paper highlights wait-any ("being signaled
    /// when one or all the events are finished ... can save CPU spinning
    /// time"); this implementation parks on a still-pending member's condvar
    /// rather than spinning.
    pub fn wait_any(events: &[CoiEvent]) -> Result<usize, FailureCause> {
        assert!(!events.is_empty(), "wait_any on empty set");
        loop {
            let mut first_fail = None;
            let mut pending = None;
            for (i, ev) in events.iter().enumerate() {
                match ev.status() {
                    EventStatus::Done => return Ok(i),
                    EventStatus::Failed(c) => first_fail = first_fail.or(Some(c)),
                    EventStatus::Pending => pending = pending.or(Some(i)),
                }
            }
            let Some(p) = pending else {
                return Err(first_fail.expect("non-empty set with no pending and no done"));
            };
            // Park on a pending member; re-scan on wake or timeout (another
            // member may have completed while we were parked elsewhere).
            let core: &EventCore = &events[p];
            let mut st = core.state.lock();
            if st.status == EventStatus::Pending {
                core.park(&mut st, Some(Duration::from_micros(200)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_host_hears_of_a_completion_before_anyone_can_observe_it() {
        // What a lock-free poll (`is_complete`, `completed_ok`) reads when
        // the host is told: a dependent that polled the event complete and
        // skipped waiting must never stamp its own completion first.
        struct Host {
            ev: EventCore,
            seen: Mutex<Option<u8>>,
        }
        impl EventHost for Host {
            fn event_core(&self) -> &EventCore {
                &self.ev
            }
            fn completed(&self, _: &EventStatus) {
                *self.seen.lock() = Some(self.ev.settled.load(Ordering::Acquire));
            }
        }
        let host = Arc::new(Host {
            ev: EventCore::new(),
            seen: Mutex::new(None),
        });
        CoiEvent::of(host.clone()).signal();
        assert_eq!(*host.seen.lock(), Some(PENDING));
    }

    #[test]
    fn signal_completes_waiters() {
        let ev = CoiEvent::new();
        let ev2 = ev.clone();
        let t = std::thread::spawn(move || ev2.wait());
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(!ev.is_complete());
        ev.signal();
        assert_eq!(t.join().expect("thread completes"), Ok(()));
    }

    #[test]
    fn a_waiter_racing_the_completion_is_never_left_asleep() {
        // Waiter and completer leave a barrier together, so the wait's
        // status check, its park and the completion's waiter check collide
        // in every order over the rounds. A completion that skipped the
        // wake-up for a waiter about to park would time the wait out.
        for _ in 0..2_000 {
            let ev = CoiEvent::new();
            let start = Arc::new(std::sync::Barrier::new(2));
            let (ev2, start2) = (ev.clone(), start.clone());
            let waiter = std::thread::spawn(move || {
                start2.wait();
                ev2.wait_deadline(Instant::now() + Duration::from_secs(10))
            });
            start.wait();
            ev.signal();
            let woke = waiter.join().expect("waiter thread");
            assert_eq!(woke, Some(Ok(())), "waiter slept through the signal");
            assert_eq!(ev.state.lock().waiters, 0, "waiter count returns to zero");
        }
    }

    #[test]
    fn retire_drops_the_dependents_once_all_are_released() {
        // A dependent that tries to retire its producer from inside the walk.
        struct Probe(CoiEvent, Mutex<Vec<bool>>);
        impl Dependent for Probe {
            fn resolved(self: Arc<Self>, _: &EventStatus) {
                let retired = self.0.retire();
                self.1.lock().push(retired);
            }
        }
        let ev = CoiEvent::new();
        let probe = Arc::new(Probe(ev.clone(), Mutex::new(Vec::new())));
        for _ in 0..3 {
            ev.add_dependent(probe.clone());
        }
        assert!(!ev.retire(), "pending");
        ev.signal();
        // Mid-walk the list stays; the last dependent runs with it released.
        assert_eq!(*probe.1.lock(), [false, false, true]);
        assert!(ev.retire(), "idempotent");
        assert_eq!(Arc::strong_count(&probe), 1, "the held event pins nothing");
    }

    #[test]
    fn fail_propagates_cause() {
        let ev = CoiEvent::new();
        ev.fail("boom");
        assert_eq!(ev.wait(), Err(FailureCause::Exec("boom".into())));
        assert_eq!(
            ev.status(),
            EventStatus::Failed(FailureCause::Exec("boom".into()))
        );
    }

    #[test]
    fn signal_is_idempotent_and_fail_after_done_ignored() {
        let ev = CoiEvent::new();
        ev.signal();
        ev.signal();
        ev.fail("late");
        assert_eq!(ev.wait(), Ok(()));
    }

    #[test]
    fn done_constructor_is_complete() {
        assert!(CoiEvent::done().is_complete());
    }

    #[test]
    fn wait_all_stops_at_first_failure() {
        let a = CoiEvent::done();
        let b = CoiEvent::new();
        b.fail("x");
        let c = CoiEvent::done();
        assert_eq!(
            CoiEvent::wait_all(&[a, b, c]),
            Err(FailureCause::Exec("x".into()))
        );
    }

    #[test]
    fn wait_any_returns_first_completed_index() {
        let a = CoiEvent::new();
        let b = CoiEvent::new();
        let b2 = b.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            b2.signal();
        });
        let idx = CoiEvent::wait_any(&[a.clone(), b.clone()]).expect("one completes");
        assert_eq!(idx, 1);
        t.join().expect("thread completes");
        a.signal();
    }

    #[test]
    fn wait_any_survives_an_early_failure_and_returns_later_success() {
        // Regression: wait_any used to return the first failure it scanned
        // even though another member was still pending and would succeed.
        let failed = CoiEvent::new();
        failed.fail("early");
        let slow = CoiEvent::new();
        let slow2 = slow.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            slow2.signal();
        });
        let idx = CoiEvent::wait_any(&[failed, slow]).expect("pending member succeeds");
        assert_eq!(idx, 1);
        t.join().expect("thread completes");
    }

    #[test]
    fn wait_any_all_failed_returns_first_failure_in_list_order() {
        let a = CoiEvent::new();
        a.fail(FailureCause::Timeout { deadline_ns: 5 });
        let b = CoiEvent::new();
        b.fail("second");
        let t0 = std::time::Instant::now();
        let err = CoiEvent::wait_any(&[a, b]).expect_err("all failed");
        assert_eq!(err, FailureCause::Timeout { deadline_ns: 5 });
        // Regression: this used to park-with-timeout forever on a completed
        // member in some orderings; it must return immediately.
        assert!(t0.elapsed() < std::time::Duration::from_millis(100));
    }

    #[test]
    fn wait_deadline_times_out_then_completes() {
        let ev = CoiEvent::new();
        let t0 = std::time::Instant::now();
        let r = ev.wait_deadline(t0 + std::time::Duration::from_millis(10));
        assert!(r.is_none(), "pending event must time out");
        assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
        ev.signal();
        let r = ev.wait_deadline(std::time::Instant::now());
        assert_eq!(r, Some(Ok(())));
    }

    /// A dependent that records every status it is released with.
    struct Recorder(Mutex<Vec<EventStatus>>);

    impl Dependent for Recorder {
        fn resolved(self: Arc<Self>, status: &EventStatus) {
            self.0.lock().push(status.clone());
        }
    }

    fn recorder() -> Arc<Recorder> {
        Arc::new(Recorder(Mutex::new(Vec::new())))
    }

    #[test]
    fn on_complete_fires_on_signal() {
        let ev = CoiEvent::new();
        let hit = recorder();
        ev.add_dependent(hit.clone());
        assert!(hit.0.lock().is_empty());
        ev.signal();
        assert_eq!(*hit.0.lock(), [EventStatus::Done]);
    }

    #[test]
    fn on_complete_after_completion_runs_inline() {
        let ev = CoiEvent::new();
        ev.fail("gone");
        let hit = recorder();
        ev.add_dependent(hit.clone());
        assert_eq!(
            *hit.0.lock(),
            [EventStatus::Failed(FailureCause::Exec("gone".into()))]
        );
    }

    #[test]
    fn multiple_callbacks_all_fire() {
        let ev = CoiEvent::new();
        let hit = recorder();
        for _ in 0..5 {
            ev.add_dependent(hit.clone());
        }
        ev.signal();
        assert_eq!(*hit.0.lock(), vec![EventStatus::Done; 5]);
    }

    #[test]
    fn clones_share_state() {
        let ev = CoiEvent::new();
        let clone = ev.clone();
        ev.signal();
        assert!(clone.is_complete());
    }
}
