//! The executor and its one action state machine.
//!
//! Every submitted action is an `ActionRun` record: its completion state
//! (the [`CoiEvent`] the runtime hands out is a view of it), its
//! dependence countdown, its retry state. Dependences resolve through
//! [`Dependent`] registrations: the last completing dependence makes the
//! action ready, so the source never blocks and independent actions
//! overtake blocked ones — the out-of-order-under-FIFO-semantics behaviour
//! of the paper. Each attempt is routed to the *service*; its result comes
//! back to `ActionRun::finish`, which settles, retries after a jittered
//! backoff, or fails — and a failure poisons the dependents.
//!
//! The same record runs on either clock (`Clock`). In wall time a ready
//! action dispatches on the thread that made it ready, and retries and
//! deadlines sit on a timer wheel with a thread of its own. In virtual time
//! ([`super::sim`]) every one of those is a heap event. The service is
//! either the COI pools — streams map to COI pipelines
//! ([`hs_coi::physical_lanes`] lanes for task expansion, here or in the
//! worker of a remote card), transfers to per-(card, direction) DMA queues,
//! serialized per direction like PCIe DMA channels; pipelines and DMA
//! queues are serial queues on the runtime's worker pool, except that a
//! remote card's, whose items block on the wire, run on threads of their
//! own — or the cost model's servers.
//!
//! Error-path invariant: dispatch never panics. Malformed specs (bad stream
//! index, real transfer without a card), dispatch after executor shutdown,
//! and closed DMA channels all *fail the action's event*, so the error
//! propagates to waiters and dependents instead of aborting whichever
//! thread happened to run the dispatch.

use super::sim::VirtualClock;
use super::{ActionSpec, BatchDep, BatchSubmitItem, SubmitOpts};
use crate::sync::{
    Arc, AtomicU32, AtomicU64, AtomicUsize, Condvar, Mutex, OnceLock, Ordering, RwLock,
};
use crate::ExecMode;
use hs_chaos::{ChaosHub, FailureCause, RetryPolicy};
use hs_coi::pipeline::BufAccess;
use hs_coi::{
    CoiEvent, CoiRuntime, Dependent, EngineId, EventCore, EventHost, EventStatus, QueueHandle,
    SerialQueue, SinkTask, WorkerPool,
};
use hs_machine::PlatformCfg;
use hs_obs::{ObsAction, ObsPhase};
use hs_sim::ServerId;
use std::collections::BTreeMap;
use std::sync::Weak;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A card's DMA direction: transfers in dispatch order, one at a time.
type DmaQueue = SerialQueue<Arc<ActionRun>>;

/// What the clock does to an action's record when its instant comes.
pub(super) enum TimerJob {
    /// Ready, or its backoff is over: run the next attempt.
    Attempt(Arc<ActionRun>),
    /// Deadline (of this many nanoseconds) reached: fail-then-poison. Weak:
    /// a generous deadline must not keep a finished action's record alive.
    Deadline(Weak<ActionRun>, u64),
    /// The submit instant in virtual time: release the wiring's hold on
    /// the countdown (wall time releases it inline).
    Release(Arc<ActionRun>),
}

impl TimerJob {
    pub(super) fn run(self) {
        match self {
            TimerJob::Attempt(run) => dispatch_attempt(&run),
            // `complete` is first-wins, so a deadline firing after success
            // is a no-op; one firing first fails the action and poisons
            // dependents — no silent hangs. (Sink work is not cancelled;
            // its late result is discarded.)
            TimerJob::Deadline(run, ns) => {
                if let Some(run) = run.upgrade() {
                    run.fail(FailureCause::Timeout { deadline_ns: ns });
                }
            }
            TimerJob::Release(run) => run.resolved(&EventStatus::Done),
        }
    }
}

#[derive(Default)]
struct TimerState {
    /// Keyed by (instant, insertion order): the first entry is due first.
    queue: BTreeMap<(Instant, u64), TimerJob>,
    seq: u64,
    stop: bool,
}

/// Shared core of the timer wheel: deadline expiries and retry backoffs
/// are scheduled at absolute instants and run by one dedicated thread.
#[derive(Default)]
pub(super) struct TimerShared {
    state: Mutex<TimerState>,
    cv: Condvar,
}

impl TimerShared {
    fn after(&self, delay_ns: u64, job: TimerJob) {
        let at = Instant::now() + Duration::from_nanos(delay_ns);
        let mut st = self.state.lock();
        if st.stop {
            return; // executor tearing down; late timers are meaningless
        }
        st.seq += 1;
        let seq = st.seq;
        st.queue.insert((at, seq), job);
        self.cv.notify_one();
    }
}

/// The timer-wheel thread owner: stops and joins on drop, dropping any
/// jobs still pending (their events are being torn down too).
struct TimerWheel {
    shared: Arc<TimerShared>,
    handle: Option<JoinHandle<()>>,
}

impl TimerWheel {
    fn spawn() -> TimerWheel {
        let shared = Arc::<TimerShared>::default();
        let sh = shared.clone();
        let handle = std::thread::Builder::new()
            .name("hs-timer".into())
            .spawn(move || loop {
                let job = {
                    let mut st = sh.state.lock();
                    loop {
                        if st.stop {
                            return;
                        }
                        let now = Instant::now();
                        match st.queue.first_key_value() {
                            Some((&(at, _), _)) if at <= now => {
                                break st.queue.pop_first().expect("first entry seen").1;
                            }
                            Some((&(at, _), _)) => {
                                let _ = sh.cv.wait_for(&mut st, at - now);
                            }
                            None => sh.cv.wait(&mut st),
                        }
                    }
                };
                // Run outside the lock: a retry may schedule further timers.
                job.run();
            })
            .expect("spawning the timer-wheel thread");
        TimerWheel {
            shared,
            handle: Some(handle),
        }
    }
}

impl Drop for TimerWheel {
    fn drop(&mut self) {
        self.shared.state.lock().stop = true;
        self.shared.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        // A pending retry holds its record, whose dispatch context holds
        // this queue: left in place, the cycle would leak the whole runtime.
        let pending = std::mem::take(&mut self.shared.state.lock().queue);
        drop(pending);
    }
}

/// The clock an executor's actions run on: it decides *when* a ready
/// action dispatches and a timer job runs, and what time a lifecycle stamp
/// carries.
#[derive(Clone)]
pub(super) enum Clock {
    /// Wall time: the timer wheel; a ready action dispatches inline.
    Wall(Arc<TimerShared>),
    /// Virtual time: hs-sim's event heap, reached through the clock's
    /// inbox.
    Virtual(Arc<VirtualClock>),
}

impl Clock {
    /// Run `job` this many nanoseconds from now.
    fn after(&self, delay_ns: u64, job: TimerJob) {
        match self {
            Clock::Wall(w) => w.after(delay_ns, job),
            Clock::Virtual(v) => v.schedule(v.now_ns() + delay_ns, job),
        }
    }
}

/// How long `Drop` waits for outstanding actions before closing the sink
/// and DMA queues. Bounded so an action with a never-resolvable dependence cannot
/// hang shutdown; such actions fail cleanly when they later try to
/// dispatch into closed channels.
const DRAIN_BUDGET: Duration = Duration::from_secs(2);

/// Each stream's sink, by stream index, with what makes new ones.
enum Sinks {
    /// Thread mode: a COI pipeline per stream; the runtime and each card's
    /// DMA queues.
    Pools {
        coi: Arc<CoiRuntime>,
        /// Per domain, the modelled cores of the machine its streams run
        /// on — the `modelled_cores` of [`hs_coi::physical_lanes`]: the
        /// domains hosted in this process share this machine, a card behind
        /// a remote worker has that worker's machine to itself.
        modelled_cores: Vec<u32>,
        pipes: Vec<hs_coi::Pipeline>,
        /// Per card: [h2d, d2h] queues. Index = card domain index - 1.
        dma: Vec<[DmaQueue; 2]>,
    },
    /// Sim mode: a model server per stream, with the domain it runs on.
    Model {
        clock: Arc<VirtualClock>,
        servers: Vec<(ServerId, u32)>,
    },
}

impl Sinks {
    fn pools(
        platform: &PlatformCfg,
        chaos: &ChaosHub,
        remotes: &[(usize, hs_fabric::Endpoint)],
    ) -> std::io::Result<Sinks> {
        let ncards = platform.cards().count();
        let coi = CoiRuntime::new_with_endpoints(ncards, chaos.clone(), remotes)?;
        let dma: Vec<[DmaQueue; 2]> = (0..ncards)
            .map(|c| {
                // Wire transfers block for their duration: each direction
                // of a remote card gets a thread of its own, so the
                // runtime's workers stay on compute.
                let blocking = coi.fabric().is_remote(hs_fabric::NodeId(c as u16 + 1));
                ["h2d", "d2h"].map(|dir| {
                    let pool = if blocking {
                        Arc::new(WorkerPool::new(1, &format!("hs-dma-c{c}-{dir}")))
                    } else {
                        coi.pool().clone()
                    };
                    SerialQueue::new(pool, ActionRun::transfer)
                })
            })
            .collect();
        let remote = |i: usize| coi.fabric().is_remote(hs_fabric::NodeId(i as u16));
        let in_process: u32 = platform
            .domains
            .iter()
            .enumerate()
            .filter(|&(i, _)| !remote(i))
            .map(|(_, d)| d.cores)
            .sum();
        let modelled_cores = platform
            .domains
            .iter()
            .enumerate()
            .map(|(i, d)| if remote(i) { d.cores } else { in_process })
            .collect();
        Ok(Sinks::Pools {
            coi,
            modelled_cores,
            pipes: Vec::new(),
            dma,
        })
    }

    /// A stream's sink, `width` cores wide, on `engine`, appended or put
    /// in place of stream `at`'s.
    fn place(&mut self, at: Option<usize>, engine: EngineId, width: usize, affinity: Option<u128>) {
        match self {
            Sinks::Pools {
                coi,
                modelled_cores,
                pipes,
                ..
            } => {
                // A stream on a card behind a worker owns none of this
                // process's cores: its tasks run over there, on lanes the
                // worker sizes by the same rule from the card's cores and
                // its own.
                let modelled = modelled_cores[usize::from(engine.0)];
                let pipe = coi.pipeline_create_stream(engine, width, modelled, affinity);
                match at {
                    Some(i) => pipes[i] = pipe,
                    None => pipes.push(pipe),
                }
            }
            Sinks::Model { clock, servers } => {
                let server = (clock.add_server(), u32::from(engine.0));
                match at {
                    Some(i) => servers[i] = server,
                    None => servers.push(server),
                }
            }
        }
    }
}

/// The executor behind an `HStreams` instance: one action state machine
/// on a wall or a virtual clock, with the COI pools or the cost model as
/// its service.
///
/// Submission is `&self` and internally synchronized: the only mutable
/// state on the hot path is the outstanding-event list (a short mutex) and
/// the submission counter (an atomic). The dispatch context — everything a
/// foreign thread needs to launch an action — is *cached* as an `Arc` and
/// rebuilt only when the stream topology changes (`add_stream`, card-loss
/// remap), so a submit shares one refcount bump instead of cloning three
/// vectors of handles. In virtual time, whatever touches the heap is
/// serialized by the clock's lock: there is a single global clock, so
/// concurrent source threads degrade to interleaving, which is all the
/// semantics require.
pub struct Executor {
    /// Thread mode's COI runtime (None in sim mode).
    coi: Option<Arc<CoiRuntime>>,
    /// Mutated only by `add_stream`/`remap_stream_to_host` (both rebuild the
    /// cached dispatch context under this lock).
    sinks: Mutex<Sinks>,
    /// Cached dispatch context, shared by every in-flight action.
    ctx: RwLock<Arc<DispatchCtx>>,
    clock: Clock,
    /// Wall-time measurement baseline: stamped at the *first submit*, not
    /// at construction, so pipeline/worker spawn cost does not leak into
    /// measured time.
    started: OnceLock<Instant>,
    /// Every submitted action still in flight at the last sweep; `Drop`
    /// drains these before joining workers. With the event table it is what
    /// keeps a finished record alive until an enqueuing thread frees it.
    outstanding: Mutex<Outstanding>,
    chaos: ChaosHub,
    /// Cards on the platform.
    cards: usize,
    /// Monotonic submission counter, used as the deterministic per-action
    /// salt for retry-backoff jitter.
    submitted: AtomicU64,
    /// Wall-time [`Self::wait`]s that found their event still pending.
    blocking_waits: AtomicU64,
    /// Wall time's timer thread. Declared last so the sink and DMA queues
    /// are closed before it goes (nothing can schedule after them).
    _wheel: Option<TimerWheel>,
}

impl Executor {
    /// An executor for `platform` in `mode`, sharing `chaos` with every
    /// fabric DMA channel and dispatch point, and — thread mode only — with
    /// the card domains hosted by out-of-process workers: `remotes` maps
    /// card engine index (1-based — the host is engine 0 and cannot be
    /// remote) to the worker's endpoint; with none, every domain is in this
    /// process and construction cannot fail. Connecting is synchronous, so a
    /// worker that never comes up errors here; one that dies later surfaces
    /// as `CardLost` at first use. `mode` picks the clock and the service: the COI pools on
    /// the wall clock ([`ExecMode::Threads`]) or the cost
    /// model on the virtual clock ([`ExecMode::Sim`]).
    pub fn connect(
        platform: &PlatformCfg,
        mode: ExecMode,
        chaos: ChaosHub,
        remotes: &[(usize, hs_fabric::Endpoint)],
    ) -> std::io::Result<Executor> {
        let cards = platform.cards().count();
        let (sinks, clock, wheel) = match mode {
            ExecMode::Sim => {
                let clock = Arc::new(VirtualClock::new(platform, chaos.clone()));
                let sinks = Sinks::Model {
                    clock: clock.clone(),
                    servers: Vec::new(),
                };
                (sinks, Clock::Virtual(clock), None)
            }
            ExecMode::Threads => {
                let sinks = Sinks::pools(platform, &chaos, remotes)?;
                let wheel = TimerWheel::spawn();
                (sinks, Clock::Wall(wheel.shared.clone()), Some(wheel))
            }
        };
        let coi = match &sinks {
            Sinks::Pools { coi, .. } => Some(coi.clone()),
            Sinks::Model { .. } => None,
        };
        let ctx = DispatchCtx::new(&sinks, cards, &chaos, &clock);
        Ok(Executor {
            coi,
            sinks: Mutex::new(sinks),
            ctx: RwLock::new(Arc::new(ctx)),
            clock,
            started: OnceLock::new(),
            outstanding: Mutex::new(Outstanding::default()),
            chaos,
            cards,
            submitted: AtomicU64::new(0),
            blocking_waits: AtomicU64::new(0),
            _wheel: wheel,
        })
    }

    /// The COI runtime tasks and transfers run on (None in sim mode, where
    /// nothing runs).
    pub fn coi(&self) -> Option<&Arc<CoiRuntime>> {
        self.coi.as_ref()
    }

    /// Each live stream's logical width and physical lanes (the lanes its
    /// tasks' parallel regions ask the pool for), by stream index; empty in
    /// sim mode.
    pub fn stream_shapes(&self) -> Vec<(usize, usize)> {
        match &*self.sinks.lock() {
            Sinks::Pools { pipes, .. } => pipes.iter().map(|p| (p.width(), p.lanes())).collect(),
            Sinks::Model { .. } => Vec::new(),
        }
    }

    /// Completion probes the outstanding list's sweeps have made so far
    /// (for the linearity test).
    #[doc(hidden)]
    pub fn sweep_probes(&self) -> u64 {
        self.outstanding.lock().probes
    }

    /// Register a new stream's sink; streams are indexed densely in
    /// creation order. Domain indices correspond 1:1 to COI engines (host =
    /// 0). The stream's mask rides down to the pipeline as its logical
    /// width and affinity, which stay the tuner-visible knobs (paper §II);
    /// the model needs only the domain.
    pub fn add_stream(&self, domain_idx: usize, mask: crate::CpuMask) {
        let width = mask.count().max(1) as usize;
        let mut sinks = self.sinks.lock();
        sinks.place(None, EngineId(domain_idx as u16), width, Some(mask.0));
        self.rebuild_ctx(&sinks);
    }

    /// Rebind stream `idx`'s sink to the host (card-loss degradation):
    /// subsequent submissions on the stream run on host resources. A
    /// pipeline is replaced — the old one drops: its queue closes and what
    /// it holds drains against the lost card's windows (their results are
    /// discarded by the replay); the stream keeps its logical width and
    /// mask, its lanes worked out afresh for the host. A model server is
    /// replaced by a fresh host-domain one: jobs already queued on the lost
    /// card's server still complete.
    pub fn remap_stream_to_host(&self, idx: usize) {
        let mut sinks = self.sinks.lock();
        let shape = match &*sinks {
            Sinks::Pools { pipes, .. } => pipes
                .get(idx)
                .map(|p| (p.width(), p.workgroup().affinity())),
            Sinks::Model { servers, .. } => servers.get(idx).map(|_| (1, None)),
        };
        let Some((width, affinity)) = shape else {
            return;
        };
        sinks.place(Some(idx), EngineId::HOST, width, affinity);
        self.rebuild_ctx(&sinks);
    }

    /// Recompute the cached dispatch context after a topology change.
    /// Called with the sinks lock held so two concurrent mutators cannot
    /// install contexts out of order.
    fn rebuild_ctx(&self, sinks: &Sinks) {
        let ctx = DispatchCtx::new(sinks, self.cards, &self.chaos, &self.clock);
        *self.ctx.write() = Arc::new(ctx);
    }

    /// Submit one action whose dependences are all external: a batch of one
    /// (for callers that drive the executor directly; the runtime hands
    /// [`Self::submit_batch`] its whole enqueue).
    pub fn submit(
        &self,
        spec: ActionSpec,
        deps: &[CoiEvent],
        obs: ObsAction,
        opts: SubmitOpts,
    ) -> CoiEvent {
        let item = BatchSubmitItem {
            spec,
            deps: 0..deps.len(),
            obs,
        };
        let deps: Vec<BatchDep> = deps.iter().cloned().map(BatchDep::External).collect();
        let mut out = Vec::with_capacity(1);
        self.submit_batch(std::iter::once(item), &deps, opts, &mut out);
        out.remove(0)
    }

    /// Submit `items` — the front-end's whole enqueue, be it one action or
    /// a batch, all under the same `opts` — their completion events
    /// replacing the contents of `out`, index-aligned, with the
    /// shared-state traffic paid once per call: one submission-counter RMW
    /// (salts are the call's ordinal range), one outstanding-list lock, one
    /// dispatch-context read-lock for all items. [`BatchDep::Internal`]
    /// dependences resolve against the call's own records — an item may
    /// depend on any earlier item of the same call, which is wired by the
    /// time the item is.
    pub fn submit_batch(
        &self,
        items: impl ExactSizeIterator<Item = BatchSubmitItem>,
        deps: &[BatchDep],
        opts: SubmitOpts,
        out: &mut Vec<CoiEvent>,
    ) {
        self.started.get_or_init(Instant::now);
        let salt0 = self
            .submitted
            .fetch_add(items.len() as u64, Ordering::Relaxed)
            + 1;
        // The context is read-locked across the call rather than cloned for
        // it: a topology change (`add_stream`, the card-loss remap) waits the
        // call out, and nothing the wiring runs takes this lock.
        let ctx = self.ctx.read();
        out.clear();
        for (i, item) in items.enumerate() {
            let salt = salt0 + i as u64;
            let run = ActionRun::new(ctx.clone(), item.spec, item.obs, opts.retry, salt);
            let deps = deps[item.deps].iter().map(|d| match d {
                BatchDep::External(e) => &**e,
                BatchDep::Internal(j) => &*out[*j],
            });
            self.wire(&run, deps, opts.deadline_ns);
            out.push(CoiEvent::of(run));
        }
        drop(ctx);
        self.outstanding.lock().track(out.iter());
    }

    /// Park the action on its dependence countdown, release the wiring's
    /// own hold at the submit instant — which dispatches it then when
    /// nothing else is pending — and arm the deadline from that instant.
    fn wire<'a>(
        &self,
        run: &Arc<ActionRun>,
        deps: impl Iterator<Item = &'a EventCore>,
        deadline_ns: Option<u64>,
    ) {
        let deadline = |ns| TimerJob::Deadline(Arc::downgrade(run), ns);
        match &self.clock {
            Clock::Wall(w) => {
                if let Some(ns) = deadline_ns {
                    w.after(ns, deadline(ns));
                }
                register(run, deps);
                run.clone().resolved(&EventStatus::Done);
            }
            Clock::Virtual(v) => {
                // The source spends the enqueue overhead issuing the action,
                // which cannot start before it has been issued.
                let at = v.issue();
                register(run, deps);
                v.schedule(at, TimerJob::Release(run.clone()));
                if let Some(ns) = deadline_ns {
                    v.schedule(at + ns, deadline(ns));
                }
            }
        }
    }

    /// Block until the event completes: on it in wall time, by running the
    /// heap in virtual time. A virtual wait on an event nothing can complete
    /// any more is an error, not a hang.
    pub fn wait(&self, ev: &CoiEvent) -> Result<(), FailureCause> {
        match &self.clock {
            Clock::Wall(_) => {
                if !ev.is_complete() {
                    self.blocking_waits.fetch_add(1, Ordering::Relaxed);
                }
                ev.wait()
            }
            Clock::Virtual(v) => v.wait(ev),
        }
    }

    /// Wall-time waits that blocked: their event was still pending.
    pub fn blocking_waits(&self) -> u64 {
        self.blocking_waits.load(Ordering::Relaxed)
    }

    /// Wait until any of the events *succeeds*; returns its index. Errors
    /// (with the first failure in list order) only when all have failed.
    pub fn wait_any(&self, evs: &[CoiEvent]) -> Result<usize, FailureCause> {
        match &self.clock {
            Clock::Wall(_) => CoiEvent::wait_any(evs),
            Clock::Virtual(v) => v.wait_any(evs),
        }
    }

    /// Settle every submitted action: block on each in wall time, run the
    /// heap to quiescence in virtual time. Degradation uses this to settle
    /// every in-flight action's status before selecting the replay set.
    pub fn run_all(&self) {
        match &self.clock {
            Clock::Wall(_) => {
                let runs = self.outstanding.lock().runs.clone();
                for run in &runs {
                    let _ = run.wait();
                }
            }
            Clock::Virtual(v) => v.run_all(),
        }
    }

    /// Charge synchronous source-side time (buffer instantiation, layered
    /// runtimes' per-task overheads) to the virtual source clock. No-op in
    /// wall time, where the source spends it for real.
    pub fn charge_source(&self, dur: hs_sim::Dur) {
        if let Clock::Virtual(v) = &self.clock {
            v.charge_source(dur);
        }
    }

    /// Elapsed time: virtual seconds in sim mode, wall seconds since the
    /// first submit (0.0 before any work) in real mode.
    pub fn now_secs(&self) -> f64 {
        match &self.clock {
            Clock::Wall(_) => self
                .started
                .get()
                .map(|t| t.elapsed().as_secs_f64())
                .unwrap_or(0.0),
            Clock::Virtual(v) => v.now_secs(),
        }
    }

    /// Virtual nanoseconds on the source clock (sim mode's enqueue
    /// timestamps); None in wall time.
    pub fn source_ns(&self) -> Option<u64> {
        match &self.clock {
            Clock::Wall(_) => None,
            Clock::Virtual(v) => Some(v.source_ns()),
        }
    }
}

/// Register `run` on each dependence not yet complete-and-successful:
/// successfully-completed ones answer via the lock-free flag and are never
/// registered on; a failed one poisons `run` inline.
fn register<'a>(run: &Arc<ActionRun>, deps: impl Iterator<Item = &'a EventCore>) {
    for dep in deps.filter(|d| !d.completed_ok()) {
        run.remaining.fetch_add(1, Ordering::Relaxed);
        dep.add_dependent(run.clone());
    }
}

/// Floor of the outstanding list's sweep threshold.
const SWEEP_MIN: usize = 64;

/// The in-flight list, pruned on an amortised schedule: a sweep probes every
/// entry (each probe may pull another core's cache line), so it runs only
/// when the list has doubled since the last one — n submits behind a slow
/// sink cost O(n) probes in total, where a sweep per submit cost O(n²).
/// A finished record leaves with its dependent list dropped
/// ([`EventCore::retire`]), so whoever still holds its event pins that one
/// record and none of the actions that waited on it.
#[derive(Default)]
struct Outstanding {
    runs: Vec<CoiEvent>,
    /// List length at which the next sweep is due.
    sweep_at: usize,
    /// Completion probes made by sweeps so far.
    probes: u64,
}

impl Outstanding {
    fn track<'a>(&mut self, new: impl Iterator<Item = &'a CoiEvent>) {
        if self.runs.len() >= self.sweep_at.max(SWEEP_MIN) {
            self.probes += self.runs.len() as u64;
            self.runs.retain(|run| !run.retire());
            self.sweep_at = 2 * self.runs.len();
        }
        self.runs.extend(new.cloned());
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        let out = &mut self.outstanding.get_mut().runs;
        match &self.clock {
            Clock::Wall(_) => {
                // Drain outstanding actions (bounded) before closing the sink
                // and DMA queues, so normally-completing work finishes and
                // only genuinely stuck actions see closed queues.
                let deadline = Instant::now() + DRAIN_BUDGET;
                for run in out.iter() {
                    // A dead card completes nothing: once the chaos hub knows
                    // one is gone (a remote worker died, say), stop waiting —
                    // spending the budget per event would turn one lost worker
                    // into a multi-second shutdown hang.
                    if !self.chaos.dead_cards().is_empty() {
                        break;
                    }
                    if run.wait_deadline(deadline).is_none() {
                        break; // budget exhausted; remaining actions fail on dispatch
                    }
                }
                // Whatever is still incomplete after the drain gets the
                // literal cause when a card is down, so late waiters see
                // `CardLost`, not a silent hang.
                if let Some(&card) = self.chaos.dead_cards().first() {
                    for run in out.iter() {
                        run.fail(FailureCause::CardLost { card });
                    }
                }
            }
            // Nothing runs unless the clock is stepped: pending heap events
            // hold records whose context holds the clock, a cycle to cut.
            Clock::Virtual(v) => v.clear(),
        }
        // Unlink what finished since the last sweep, so an event that
        // outlives the executor holds one record, not a chain of them.
        for run in out.iter() {
            run.retire();
        }
        // Fields then drop in declaration order: pipelines, then DMA queues.
        // Each closes, and what it still holds drains on its pool.
    }
}

/// What runs a dispatched compute or transfer, as of the submit.
pub(super) enum Service {
    /// Each stream's COI pipeline, each card's [h2d, d2h] DMA queues.
    Pools {
        coi: Arc<CoiRuntime>,
        pipes: Vec<hs_coi::pipeline::PipelineHandle>,
        dma: Vec<[QueueHandle<Arc<ActionRun>>; 2]>,
    },
    /// Each stream's model server, behind the virtual clock.
    Model {
        clock: Arc<VirtualClock>,
        servers: Vec<ServerId>,
    },
}

/// Everything needed to dispatch an action from an arbitrary thread.
pub(super) struct DispatchCtx {
    /// Engine each stream's sink currently runs on (0 = host): the
    /// compute-site chaos consult needs the card to honour dead-card state,
    /// and a remapped stream must stop drawing faults for the lost card.
    pub(super) engines: Vec<u32>,
    /// Cards on the platform: a transfer's card domain is checked against
    /// it.
    cards: usize,
    chaos: ChaosHub,
    clock: Clock,
    pub(super) service: Service,
}

impl DispatchCtx {
    fn new(sinks: &Sinks, cards: usize, chaos: &ChaosHub, clock: &Clock) -> DispatchCtx {
        let (engines, service) = match sinks {
            Sinks::Pools {
                coi, pipes, dma, ..
            } => (
                pipes.iter().map(|p| u32::from(p.engine().0)).collect(),
                Service::Pools {
                    coi: coi.clone(),
                    pipes: pipes.iter().map(|p| p.sender_handle()).collect(),
                    dma: dma.iter().map(|q| [q[0].handle(), q[1].handle()]).collect(),
                },
            ),
            Sinks::Model { clock, servers } => (
                servers.iter().map(|&(_, domain)| domain).collect(),
                Service::Model {
                    clock: clock.clone(),
                    servers: servers.iter().map(|&(server, _)| server).collect(),
                },
            ),
        };
        DispatchCtx {
            engines,
            cards,
            chaos: chaos.clone(),
            clock: clock.clone(),
            service,
        }
    }
}

/// One submitted action, in one heap block for its whole life: the resolved
/// spec (retained, not consumed, so transient-fault attempts re-dispatch
/// it), the completion state the [`CoiEvent`] hands out views of, the
/// dependence countdown, and the retry state. The enqueuing thread allocates
/// it; the service — sink pipelines ([`SinkTask`]) and DMA queues, or the
/// model's servers — borrows it through an `Arc` and reports each attempt's
/// result to [`ActionRun::finish`]; producers list it as their
/// [`Dependent`]. The outstanding list and the event-table slot hold the
/// references that outlive completion, and both are swept on enqueuing
/// threads — so that is where the block is freed.
pub(super) struct ActionRun {
    pub(super) ev: EventCore,
    pub(super) ctx: Arc<DispatchCtx>,
    pub(super) spec: ActionSpec,
    pub(super) obs: ObsAction,
    retry: RetryPolicy,
    /// Attempts dispatched so far; feeds backoff jitter and the obs failure
    /// record.
    attempts: AtomicU32,
    /// Dependences still pending, plus one held by `wire` until the submit
    /// instant; whoever takes it to zero makes the action ready.
    remaining: AtomicUsize,
    /// Deterministic jitter salt (the submission ordinal).
    salt: u64,
}

impl ActionRun {
    fn new(
        ctx: Arc<DispatchCtx>,
        spec: ActionSpec,
        obs: ObsAction,
        retry: RetryPolicy,
        salt: u64,
    ) -> Arc<ActionRun> {
        Arc::new(ActionRun {
            ev: EventCore::new(),
            ctx,
            spec,
            obs,
            retry,
            attempts: AtomicU32::new(0),
            remaining: AtomicUsize::new(1),
            salt,
        })
    }

    fn fail(&self, cause: FailureCause) {
        self.ev.complete(EventStatus::Failed(cause), self);
    }

    /// The clock's time for a lifecycle stamp: the hub's wall clock, read
    /// only while this action is recorded, or the virtual now.
    fn now_ns(&self) -> u64 {
        match &self.ctx.clock {
            Clock::Wall(_) => self.obs.wall_ns(),
            Clock::Virtual(v) => v.now_ns(),
        }
    }

    /// Stamp a lifecycle phase at the clock's time.
    fn stamp(&self, phase: ObsPhase) {
        self.obs.phase(phase, self.now_ns());
    }

    /// The result of one attempt, from whichever thread ran it: success
    /// settles the action; a transient failure with budget left schedules
    /// the next attempt on the clock after a jittered backoff; any other
    /// failure — or an exhausted budget — fails it. Dependents only ever
    /// see the settled status, never an intermediate transient failure.
    pub(super) fn finish(self: Arc<Self>, result: Result<(), FailureCause>) {
        let cause = match result {
            Ok(()) => return self.ev.complete(EventStatus::Done, &*self),
            Err(cause) => cause,
        };
        if self.ev.is_complete() {
            return; // deadline beat the attempt; its verdict is void
        }
        let made = self.attempts.load(Ordering::Acquire);
        if cause.is_transient() && made < self.retry.max_attempts {
            let jitter = self.ctx.chaos.jitter01(self.salt ^ u64::from(made));
            let backoff = self.retry.backoff_us(made, jitter);
            self.obs.retry(made, backoff, self.now_ns());
            let ctx = self.ctx.clone();
            ctx.clock.after(backoff * 1_000, TimerJob::Attempt(self));
        } else {
            self.fail(cause);
        }
    }

    /// The DMA queue's half of a transfer: copy, then report.
    fn transfer(self: Arc<Self>) {
        let (
            ActionSpec::Transfer {
                bytes,
                real: Some(real),
                ..
            },
            Service::Pools { coi, .. },
        ) = (&self.spec, &self.ctx.service)
        else {
            return self.finish(Err(FailureCause::Malformed(
                "malformed transfer: a DMA queue needs the transfer's windows".into(),
            )));
        };
        self.stamp(ObsPhase::SinkStart);
        let r = coi.dma_copy(real.src.0, real.src.1, real.dst.0, real.dst.1, *bytes);
        self.finish(r.map_err(|e| e.into_cause()));
    }
}

impl EventHost for ActionRun {
    fn event_core(&self) -> &EventCore {
        &self.ev
    }

    fn completed(&self, status: &EventStatus) {
        // Attempts made; one for an action that never dispatched.
        let attempts = self.attempts.load(Ordering::Relaxed).max(1);
        let now = self.now_ns();
        match status {
            EventStatus::Failed(c) => self.obs.fail_cause(c, attempts, now),
            _ => self.obs.finish(true, now),
        }
    }
}

impl Dependent for ActionRun {
    /// One dependence settled: a failure poisons this action (fail once; it
    /// never dispatches); the last success makes it ready — dispatched from
    /// the producer's completing thread in wall time, from a heap event at
    /// the same instant in virtual time.
    fn resolved(self: Arc<Self>, status: &EventStatus) {
        match status {
            EventStatus::Failed(m) => self.fail(FailureCause::poisoned_by(m.clone())),
            _ => {
                if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    match &self.ctx.clock {
                        Clock::Wall(_) => dispatch_attempt(&self),
                        Clock::Virtual(_) => {
                            let ctx = self.ctx.clone();
                            ctx.clock.after(0, TimerJob::Attempt(self));
                        }
                    }
                }
            }
        }
    }
}

impl SinkTask for ActionRun {
    fn call(&self) -> (&str, &[u8], &[BufAccess]) {
        match &self.spec {
            ActionSpec::Compute {
                func, args, bufs, ..
            } => (func.name(), args, bufs.as_slice()),
            _ => unreachable!("only computes are queued on sink pipelines"),
        }
    }

    fn started(&self) {
        self.stamp(ObsPhase::SinkStart);
    }

    fn finish(self: Arc<Self>, result: Result<(), FailureCause>) {
        ActionRun::finish(self, result);
    }
}

/// Run one attempt of an action whose dependences have all resolved (or
/// whose backoff is over): route it to its service, which reports back
/// through [`ActionRun::finish`]. The first attempt stamps `DepsResolved`;
/// every attempt stamps `Dispatched` — a compute's after the chaos consult
/// at its dispatch point (a transfer's is consulted by the service).
///
/// Never panics: a malformed spec, a stopped pipeline and a closed DMA
/// queue all *finish the attempt with an error*, which reaches waiters and
/// dependents instead of aborting whichever thread ran the dispatch.
fn dispatch_attempt(run: &Arc<ActionRun>) {
    if run.ev.is_complete() {
        return; // deadline expired (or dependence poisoned) while queued
    }
    if run.attempts.fetch_add(1, Ordering::AcqRel) == 0 {
        run.stamp(ObsPhase::DepsResolved);
    }
    let ctx = &run.ctx;
    let refuse = |cause: FailureCause| run.clone().finish(Err(cause));
    match &run.spec {
        ActionSpec::Noop => {
            run.stamp(ObsPhase::Dispatched);
            run.clone().finish(Ok(()));
        }
        ActionSpec::Compute {
            stream_idx, func, ..
        } => {
            let stream_idx = *stream_idx;
            let Some(&card) = ctx.engines.get(stream_idx) else {
                return refuse(FailureCause::Malformed(format!(
                    "malformed compute '{}': no stream with index {stream_idx}",
                    func.name()
                )));
            };
            // Chaos consult at the compute site: an injected fault finishes
            // the attempt with its cause without touching the sink.
            let injected = if ctx.chaos.is_armed() {
                ctx.chaos.check_compute(stream_idx as u32, card)
            } else {
                None
            };
            run.stamp(ObsPhase::Dispatched);
            if let Some(cause) = injected {
                return refuse(cause);
            }
            match &ctx.service {
                Service::Pools { pipes, .. } => pipes[stream_idx].submit(run.clone()),
                Service::Model { clock, .. } => clock.serve(run.clone()),
            }
        }
        ActionSpec::Transfer {
            card_domain,
            h2d,
            real,
            label,
            ..
        } => {
            let Some(domain) = *card_domain else {
                if real.is_some() {
                    return refuse(FailureCause::Malformed(format!(
                        "malformed transfer '{label}': real transfer without a card domain"
                    )));
                }
                // Host-as-target alias: "transfers en-queued in host streams
                // are aliased and optimized away".
                run.stamp(ObsPhase::Dispatched);
                return run.clone().finish(Ok(()));
            };
            let Some(card) = domain.checked_sub(1).filter(|&c| c < ctx.cards) else {
                return refuse(FailureCause::Malformed(format!(
                    "malformed transfer '{label}': card domain {domain} out of range ({} cards)",
                    ctx.cards
                )));
            };
            run.stamp(ObsPhase::Dispatched);
            match &ctx.service {
                Service::Pools { dma, .. } => {
                    if dma[card][usize::from(!h2d)].push(run.clone()).is_err() {
                        // Executor shut down between dependence resolution
                        // and dispatch: the queue is closed.
                        refuse(FailureCause::from(format!(
                            "transfer '{label}' dropped: executor shut down before dispatch"
                        )));
                    }
                }
                Service::Model { clock, .. } => clock.serve(run.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::CpuMask;
    use hs_coi::physical_lanes;
    use hs_machine::{Device, PlatformCfg};

    #[test]
    fn lanes_follow_the_machine_not_the_model() {
        let platform = PlatformCfg::hetero(Device::Hsw, 1);
        let modelled: u32 = platform.domains.iter().map(|d| d.cores).sum();
        for host_cores in [1usize, 2, 8, 28, 128] {
            for per_domain in [1usize, 2, 4] {
                let masks: Vec<CpuMask> = platform
                    .domains
                    .iter()
                    .flat_map(|d| CpuMask::partition_evenly(d.cores, per_domain))
                    .collect();
                let lanes: Vec<usize> = masks
                    .iter()
                    .map(|m| physical_lanes(m.count(), modelled, host_cores))
                    .collect();
                for (m, &l) in masks.iter().zip(&lanes) {
                    assert!(l >= 1, "a stream always has one lane");
                    assert!(l <= m.count() as usize, "never wider than the mask");
                }
                let total: usize = lanes.iter().sum();
                assert!(
                    total <= host_cores.max(masks.len()),
                    "{per_domain} streams/domain on {host_cores} cores: {lanes:?}"
                );
            }
        }
        // The two hosts the rule was sized on: this 2-core one runs every
        // stream of the 28 + 60 core model on one lane; a real
        // 28-core host gives the halves of each domain 4 + 4 + 9 + 9.
        assert_eq!(physical_lanes(14, 88, 2), 1);
        assert_eq!(physical_lanes(30, 88, 2), 1);
        let on_28: Vec<usize> = [14, 14, 30, 30]
            .map(|cores| physical_lanes(cores, 88, 28))
            .to_vec();
        assert_eq!(on_28, [4, 4, 9, 9]);
        // A machine larger than the model never widens a stream past its mask.
        assert_eq!(physical_lanes(14, 88, 1024), 14);
        assert_eq!(physical_lanes(0, 0, 0), 1);
    }
}
