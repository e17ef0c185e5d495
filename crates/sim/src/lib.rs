//! # hs-sim — deterministic discrete-event simulation engine
//!
//! This crate is the virtual-time substrate used to reproduce the
//! heterogeneous-platform experiments of the hStreams paper without the
//! (now defunct) Xeon Phi hardware. It provides:
//!
//! * a virtual clock with nanosecond resolution ([`Time`], [`Dur`]),
//! * a deterministic event heap ([`Sim::schedule`]) with FIFO tie-breaking,
//!   run to quiescence ([`Sim::run`]), to an instant ([`Sim::run_until`]) or
//!   one event at a time by a caller that keeps state of its own in step
//!   with the clock ([`Sim::step_until`]),
//! * **servers** — serial or k-wide resources with FIFO queues
//!   ([`Sim::server_create`], [`Sim::server_enqueue`]) used to model stream
//!   compute sinks and DMA directions, optionally gated on a counting
//!   semaphore ([`Sim::sem_create`]) that models a domain's shared cores.
//!   A job's completion is a one-shot **token** ([`Token`]) whose waiters
//!   run when it fires.
//!
//! The engine keeps no record of what ran: a job's completion time is its
//! token's fire time. The runtime's virtual clock drives this heap under
//! the same action state machine as its thread executor, and stamps every
//! action's lifecycle into the observability records, which is where Gantt
//! charts and overlap are read from.
//!
//! Determinism: two runs of the same program fire every token at the same
//! time. Ties in the event heap are broken by insertion sequence number, and
//! all ids are dense indices handed out in creation order.

mod server;
mod time;
mod token;

pub use server::{SemId, ServerId};
pub use time::{Dur, Time};
pub use token::Token;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use server::{SemState, ServerState};
use token::TokenState;

/// A callback scheduled to run at a virtual time.
type Callback = Box<dyn FnOnce(&mut Sim) + Send>;

struct Scheduled {
    at: Time,
    seq: u64,
    cb: Callback,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The discrete-event simulator.
///
/// All state (tokens, servers, semaphores) lives inside the `Sim` so that
/// callbacks receive a single `&mut Sim` and cannot deadlock on borrows.
pub struct Sim {
    now: Time,
    seq: u64,
    heap: BinaryHeap<Reverse<Scheduled>>,
    tokens: Vec<TokenState>,
    servers: Vec<ServerState>,
    sems: Vec<SemState>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulator at time zero.
    pub fn new() -> Self {
        Sim {
            now: Time::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            tokens: Vec::new(),
            servers: Vec::new(),
            sems: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `cb` to run `delay` after the current time.
    pub fn schedule<F: FnOnce(&mut Sim) + Send + 'static>(&mut self, delay: Dur, cb: F) {
        let at = self.now + delay;
        self.schedule_at(at, cb);
    }

    /// Schedule `cb` at an absolute virtual time (clamped to `now`).
    pub fn schedule_at<F: FnOnce(&mut Sim) + Send + 'static>(&mut self, at: Time, cb: F) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            at,
            seq,
            cb: Box::new(cb),
        }));
    }

    /// Run the earliest scheduled event if it is due by `limit`: the clock
    /// moves to the event's time, `at` is told that time, then the event
    /// runs. Returns `false`, running nothing, when no event is due by
    /// `limit`.
    pub fn step_until(&mut self, limit: Time, at: impl FnOnce(Time)) -> bool {
        match self.heap.peek() {
            Some(Reverse(top)) if top.at <= limit => {}
            _ => return false,
        }
        let Reverse(s) = self.heap.pop().expect("peeked above");
        debug_assert!(s.at >= self.now, "virtual time must be monotone");
        self.now = s.at;
        at(s.at);
        (s.cb)(self);
        true
    }

    /// Run until no events remain. Returns the final time.
    pub fn run(&mut self) -> Time {
        while self.step_until(Time(u64::MAX), |_| {}) {}
        self.now
    }

    /// Run until the clock reaches `t` (events at exactly `t` are executed).
    pub fn run_until(&mut self, t: Time) {
        while self.step_until(t, |_| {}) {}
        if self.now < t {
            self.now = t;
        }
    }

    // ---------------------------------------------------------------- tokens

    /// Create a fresh unfired token.
    pub fn token_create(&mut self) -> Token {
        let id = Token(self.tokens.len() as u64);
        self.tokens.push(TokenState::new());
        id
    }

    /// Virtual time at which the token fired (None if unfired).
    pub fn token_fire_time(&self, tok: Token) -> Option<Time> {
        let st = &self.tokens[tok.index()];
        if st.fired {
            Some(st.fire_time)
        } else {
            None
        }
    }

    /// Fire a token, waking all waiters at the current time. Firing twice is
    /// a logic error (panics in debug builds, ignored in release).
    pub fn token_fire(&mut self, tok: Token) {
        let st = &mut self.tokens[tok.index()];
        if st.fired {
            debug_assert!(false, "token {tok:?} fired twice");
            return;
        }
        st.fired = true;
        st.fire_time = self.now;
        let waiters = std::mem::take(&mut st.waiters);
        for w in waiters {
            // Wake at the current instant; scheduling (rather than calling
            // inline) keeps wake order deterministic and reentrancy-safe.
            self.schedule_at(self.now, w);
        }
    }

    /// Run `cb` when `tok` fires (immediately-scheduled if already fired).
    pub fn token_on_fire<F: FnOnce(&mut Sim) + Send + 'static>(&mut self, tok: Token, cb: F) {
        if self.tokens[tok.index()].fired {
            self.schedule_at(self.now, cb);
        } else {
            self.tokens[tok.index()].waiters.push(Box::new(cb));
        }
    }

    // --------------------------------------------------------------- servers

    /// Create a resource with `width` concurrent slots (1 = serial server).
    pub fn server_create(&mut self, width: usize) -> ServerId {
        assert!(width >= 1, "server width must be >= 1");
        let id = ServerId(self.servers.len());
        self.servers.push(ServerState::new(width));
        id
    }

    /// Enqueue a job of `service` duration; the returned token fires when the
    /// job completes. Jobs are served FIFO among those enqueued.
    ///
    /// With a `gate` of `(sem, units)` the job also holds `units` of `sem`'s
    /// capacity for its whole service time — the mechanism that keeps
    /// overlapping streams of one domain within the domain's physical
    /// cores. A gated head-of-queue job blocks its server until capacity
    /// frees (FIFO among waiting servers).
    pub fn server_enqueue(
        &mut self,
        server: ServerId,
        service: Dur,
        gate: Option<(SemId, u32)>,
    ) -> Token {
        if let Some((_, units)) = gate {
            debug_assert!(units > 0, "gated jobs must request capacity");
        }
        let done = self.token_create();
        let st = &mut self.servers[server.0];
        st.queue.push_back(server::Job {
            service,
            done,
            gate,
        });
        self.server_pump(server);
        done
    }

    fn server_pump(&mut self, server: ServerId) {
        loop {
            let st = &mut self.servers[server.0];
            if st.busy >= st.width || st.queue.is_empty() {
                return;
            }
            // Gated head: acquire capacity or park the server on the sem.
            // The semaphore is FIFO-fair: once a server parks, it reserves
            // its place — later small requests cannot overtake it, so a
            // wide task (e.g. a machine-wide panel stream) cannot starve
            // behind a steady drizzle of narrow ones.
            if let Some((sem, units)) = st.queue.front().expect("non-empty").gate {
                let sem_st = &self.sems[sem.0];
                let is_front = sem_st.waiters.front() == Some(&server);
                let unblocked = sem_st.waiters.is_empty() || is_front;
                let grantable = sem_st.available >= units && unblocked;
                if !grantable {
                    // A server already parked keeps its FIFO slot.
                    let st = &mut self.servers[server.0];
                    if !st.parked {
                        st.parked = true;
                        self.sems[sem.0].waiters.push_back(server);
                    }
                    return;
                }
                if is_front {
                    self.sems[sem.0].waiters.pop_front();
                }
                self.sems[sem.0].available -= units;
                self.servers[server.0].parked = false;
            }
            let st = &mut self.servers[server.0];
            let job = st.queue.pop_front().expect("non-empty checked above");
            st.busy += 1;
            let done = job.done;
            let gate = job.gate;
            self.schedule(job.service, move |sim| {
                sim.servers[server.0].busy -= 1;
                if let Some((sem, units)) = gate {
                    sim.sem_release(sem, units);
                }
                sim.token_fire(done);
                sim.server_pump(server);
            });
        }
    }

    // ------------------------------------------------------------ semaphores

    /// Create a counting semaphore with `capacity` units.
    pub fn sem_create(&mut self, capacity: u32) -> SemId {
        let id = SemId(self.sems.len());
        self.sems.push(SemState {
            available: capacity,
            waiters: std::collections::VecDeque::new(),
        });
        id
    }

    /// Units currently available.
    pub fn sem_available(&self, sem: SemId) -> u32 {
        self.sems[sem.0].available
    }

    fn sem_release(&mut self, sem: SemId, units: u32) {
        self.sems[sem.0].available += units;
        // Wake front waiters in order while they can be satisfied; the pump
        // pops a granted server from the waiter list itself.
        loop {
            let Some(front) = self.sems[sem.0].waiters.front().copied() else {
                return;
            };
            let before = self.sems[sem.0].waiters.len();
            self.server_pump(front);
            if self.sems[sem.0].waiters.len() == before {
                // Front still blocked: stop (FIFO fairness).
                return;
            }
        }
    }
}

/// Test-only shared cell: `Cell`-style get/set that satisfies the `Send`
/// bound scheduled callbacks now carry.
#[cfg(test)]
pub(crate) mod testcell {
    pub(crate) struct SyncCell<T>(std::sync::Mutex<T>);

    impl<T: Copy> SyncCell<T> {
        pub(crate) fn new(v: T) -> std::sync::Arc<Self> {
            std::sync::Arc::new(SyncCell(std::sync::Mutex::new(v)))
        }

        pub(crate) fn get(&self) -> T {
            *self.0.lock().expect("test cell")
        }

        pub(crate) fn set(&self, v: T) {
            *self.0.lock().expect("test cell") = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_starts_at_zero_and_advances() {
        let mut sim = Sim::new();
        assert_eq!(sim.now(), Time::ZERO);
        let hits = crate::testcell::SyncCell::new(0);
        let h = hits.clone();
        sim.schedule(Dur::from_micros(5), move |s| {
            assert_eq!(s.now(), Time::ZERO + Dur::from_micros(5));
            h.set(h.get() + 1);
        });
        sim.run();
        assert_eq!(hits.get(), 1);
        assert_eq!(sim.now(), Time::ZERO + Dur::from_micros(5));
    }

    #[test]
    fn same_time_events_run_in_insertion_order() {
        let mut sim = Sim::new();
        let order = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        for i in 0..10 {
            let order = order.clone();
            sim.schedule(Dur::from_nanos(100), move |_| {
                order.lock().expect("order").push(i)
            });
        }
        sim.run();
        assert_eq!(*order.lock().expect("order"), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn token_fire_wakes_waiters() {
        let mut sim = Sim::new();
        let tok = sim.token_create();
        let woke = crate::testcell::SyncCell::new(false);
        let w = woke.clone();
        sim.token_on_fire(tok, move |_| w.set(true));
        assert_eq!(sim.token_fire_time(tok), None);
        sim.schedule(Dur::from_micros(1), move |s| s.token_fire(tok));
        sim.run();
        assert!(woke.get());
        assert_eq!(
            sim.token_fire_time(tok),
            Some(Time::ZERO + Dur::from_micros(1))
        );
    }

    #[test]
    fn token_on_fire_after_fired_still_runs() {
        let mut sim = Sim::new();
        let tok = sim.token_create();
        sim.token_fire(tok);
        let woke = crate::testcell::SyncCell::new(false);
        let w = woke.clone();
        sim.token_on_fire(tok, move |_| w.set(true));
        sim.run();
        assert!(woke.get());
    }

    #[test]
    fn step_until_tells_the_time_before_the_event_runs() {
        let mut sim = Sim::new();
        let heard = crate::testcell::SyncCell::new(Time::ZERO);
        let h = heard.clone();
        sim.schedule(Dur::from_micros(3), move |s| assert_eq!(h.get(), s.now()));
        let not_due = Time::ZERO + Dur::from_micros(2);
        assert!(!sim.step_until(not_due, |_| panic!("nothing is due")));
        assert_eq!(
            sim.now(),
            Time::ZERO,
            "a step that runs nothing keeps the time"
        );
        assert!(sim.step_until(Time(u64::MAX), |t| heard.set(t)));
        assert_eq!(heard.get(), Time::ZERO + Dur::from_micros(3));
        assert!(!sim.step_until(Time(u64::MAX), |_| {}), "the heap is empty");
    }

    #[test]
    fn serial_server_serializes_jobs() {
        let mut sim = Sim::new();
        let s = sim.server_create(1);
        let t1 = sim.server_enqueue(s, Dur::from_micros(10), None);
        let t2 = sim.server_enqueue(s, Dur::from_micros(10), None);
        sim.run();
        assert_eq!(
            sim.token_fire_time(t1),
            Some(Time::ZERO + Dur::from_micros(10))
        );
        assert_eq!(
            sim.token_fire_time(t2),
            Some(Time::ZERO + Dur::from_micros(20))
        );
    }

    #[test]
    fn wide_server_runs_jobs_concurrently() {
        let mut sim = Sim::new();
        let s = sim.server_create(2);
        let t1 = sim.server_enqueue(s, Dur::from_micros(10), None);
        let t2 = sim.server_enqueue(s, Dur::from_micros(10), None);
        let t3 = sim.server_enqueue(s, Dur::from_micros(10), None);
        sim.run();
        assert_eq!(
            sim.token_fire_time(t1),
            Some(Time::ZERO + Dur::from_micros(10))
        );
        assert_eq!(
            sim.token_fire_time(t2),
            Some(Time::ZERO + Dur::from_micros(10))
        );
        assert_eq!(
            sim.token_fire_time(t3),
            Some(Time::ZERO + Dur::from_micros(20))
        );
    }

    #[test]
    fn run_until_respects_boundary() {
        let mut sim = Sim::new();
        let hit = crate::testcell::SyncCell::new(0u32);
        for us in [1u64, 2, 3] {
            let hit = hit.clone();
            sim.schedule(Dur::from_micros(us), move |_| {
                hit.set(hit.get() + 1);
            });
        }
        sim.run_until(Time::ZERO + Dur::from_micros(2));
        assert_eq!(hit.get(), 2);
        assert_eq!(sim.now(), Time::ZERO + Dur::from_micros(2));
        sim.run();
        assert_eq!(hit.get(), 3);
    }
}
