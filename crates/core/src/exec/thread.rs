//! The real-thread executor.
//!
//! Streams map to COI pipelines ([`hs_coi::physical_lanes`] lanes for task
//! expansion, here or in the worker of a remote card); transfers run on
//! per-(card, direction) DMA queues, serialized per direction like PCIe DMA
//! channels and optionally paced to link speed. Pipelines and DMA queues
//! are serial queues on the runtime's worker pool, `host_cores` threads
//! however many streams there are; the ones whose items block — a remote
//! card's, and every paced DMA queue — run on threads of their own instead.
//! Dependences resolve via event callbacks: the last completing dependence
//! dispatches the action from its own thread, so the source never blocks
//! and independent actions overtake blocked ones — the
//! out-of-order-under-FIFO-semantics behaviour of the paper.
//!
//! Error-path invariant: dispatch never panics. Malformed specs (bad stream
//! index, real transfer without a card), dispatch after executor shutdown,
//! and closed DMA channels all *fail the action's event*, so the error
//! propagates to waiters and dependents instead of aborting whichever
//! thread happened to run the dispatch callback.

use super::{ActionSpec, BackendEvent, BatchDep, SubmitOpts};
use crate::sync::{
    Arc, AtomicU32, AtomicU64, AtomicUsize, Condvar, Mutex, OnceLock, Ordering, RwLock,
};
use hs_chaos::{ChaosHub, FailureCause, Injection, RetryPolicy};
use hs_coi::pipeline::BufAccess;
use hs_coi::{
    CoiEvent, CoiRuntime, Dependent, EngineId, EventCore, EventHost, EventStatus, QueueHandle,
    SerialQueue, SinkTask, WorkerPool,
};
use hs_fabric::Pacer;
use hs_machine::PlatformCfg;
use hs_obs::{ObsAction, ObsHub, ObsPhase};
use std::collections::BTreeMap;
use std::sync::Weak;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A card's DMA direction: transfers in dispatch order, one at a time.
type DmaQueue = SerialQueue<Arc<ActionRun>>;

/// What the timer wheel does to an action's record when its instant comes.
enum TimerJob {
    /// Backoff over: run the next attempt.
    Retry(Arc<ActionRun>),
    /// Deadline (of this many nanoseconds) reached: fail-then-poison. Weak:
    /// a generous deadline must not keep a finished action's record alive.
    Deadline(Weak<ActionRun>, u64),
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
struct TimerShared {
    state: Mutex<TimerState>,
    cv: Condvar,
}

impl TimerShared {
    fn schedule(&self, at: Instant, job: TimerJob) {
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
                match job {
                    TimerJob::Retry(run) => dispatch_attempt(&run),
                    // `complete` is first-wins, so a deadline firing after
                    // success is a no-op; one firing first fails the action
                    // and poisons dependents — no silent hangs. (Sink work
                    // is not cancelled; its late result is discarded.)
                    TimerJob::Deadline(run, ns) => {
                        if let Some(run) = run.upgrade() {
                            run.fail(FailureCause::Timeout { deadline_ns: ns });
                        }
                    }
                }
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

/// How long `Drop` waits for outstanding actions before closing the sink
/// and DMA queues. Bounded so an action with a never-resolvable dependence cannot
/// hang shutdown; such actions fail cleanly when they later try to
/// dispatch into closed channels.
const DRAIN_BUDGET: Duration = Duration::from_secs(2);

/// Real-thread executor state.
///
/// Submission is `&self` and internally synchronized: the only mutable
/// state on the hot path is the outstanding-event list (a short mutex) and
/// the submission counter (an atomic). The dispatch context — everything a
/// foreign thread needs to launch an action — is *cached* as an `Arc` and
/// rebuilt only when the stream topology changes (`add_stream`, card-loss
/// remap), so a submit shares one refcount bump instead of cloning three
/// vectors of handles.
pub struct ThreadExec {
    coi: Arc<CoiRuntime>,
    /// Per domain, the modelled cores of the machine its streams run on —
    /// the `modelled_cores` of [`hs_coi::physical_lanes`]: the domains
    /// hosted in this process share this machine, a card behind a remote
    /// worker has that worker's machine to itself.
    modelled_cores: Vec<u32>,
    /// Stream pipelines; mutated only by `add_stream`/`remap_stream_to_host`
    /// (both rebuild the cached dispatch context under this lock).
    pipes: Mutex<Vec<hs_coi::Pipeline>>,
    /// Cached dispatch context, shared by every in-flight action.
    ctx: RwLock<Arc<DispatchCtx>>,
    /// Per card: [h2d, d2h] queues. Index = card domain index - 1.
    dma: Vec<[DmaQueue; 2]>,
    /// Measurement baseline: stamped at the *first submit*, not at `new()`,
    /// so pipeline/worker spawn cost does not leak into measured time.
    started: OnceLock<Instant>,
    /// Every submitted action still in flight at the last sweep; `Drop`
    /// drains these before joining workers. With the event table it is what
    /// keeps a finished record alive until an enqueuing thread frees it.
    outstanding: Mutex<Outstanding>,
    obs: ObsHub,
    chaos: ChaosHub,
    /// Monotonic submission counter, used as the deterministic per-action
    /// salt for retry-backoff jitter.
    submitted: AtomicU64,
    /// Declared last so the sink and DMA queues are closed before the timer
    /// thread goes (nothing can schedule after them).
    timer: TimerWheel,
}

impl ThreadExec {
    /// Build the executor for `platform`. `paced` enables PCIe-speed DMA
    /// pacing (for real-mode overlap experiments); functional tests leave it
    /// off.
    pub fn new(platform: &PlatformCfg, paced: bool) -> ThreadExec {
        Self::new_with_remotes(platform, paced, ObsHub::new(), ChaosHub::default(), &[])
            .expect("in-process executor construction is infallible")
    }

    /// Like [`Self::new`], routing lifecycle events and gauges to `obs`,
    /// sharing `chaos` with every fabric DMA channel and dispatch point, and
    /// with some card domains hosted by out-of-process workers: `remotes`
    /// maps card engine index (1-based —
    /// the host is engine 0 and cannot be remote) to the worker's endpoint.
    /// Connecting is synchronous, so a worker that never comes up errors
    /// here; one that dies later surfaces as `CardLost` at first use. The
    /// card's pacer still models the link *on top of* measured wire time
    /// (see `DmaEngine::run_wire`), so paced runs stay meaningful.
    pub fn new_with_remotes(
        platform: &PlatformCfg,
        paced: bool,
        obs: ObsHub,
        chaos: ChaosHub,
        remotes: &[(usize, hs_fabric::Endpoint)],
    ) -> std::io::Result<ThreadExec> {
        // Each card paces to its *own* link: heterogeneous platforms mix
        // e.g. a PCIe card with a slower fabric-attached remote node.
        let pacers: Vec<Pacer> = platform
            .cards()
            .map(|(_, c)| {
                if paced {
                    let link = c.link.unwrap_or(hs_machine::LinkSpec::pcie_knc());
                    Pacer::pcie(link, platform.overheads)
                } else {
                    Pacer::unpaced()
                }
            })
            .collect();
        let ncards = pacers.len();
        let coi = CoiRuntime::new_with_endpoints(pacers, obs.clone(), chaos.clone(), remotes)?;
        let dma: Vec<[DmaQueue; 2]> = (0..ncards)
            .map(|c| {
                // Paced and wire transfers block for their duration: each
                // direction gets a thread of its own, so the runtime's workers
                // stay on compute.
                let blocking = paced || coi.fabric().is_remote(hs_fabric::NodeId(c as u16 + 1));
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
        let timer = TimerWheel::spawn();
        let ctx = Arc::new(make_ctx(&coi, &[], &dma, &obs, &chaos, &timer.shared));
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
        Ok(ThreadExec {
            coi,
            modelled_cores,
            pipes: Mutex::new(Vec::new()),
            ctx: RwLock::new(ctx),
            dma,
            started: OnceLock::new(),
            outstanding: Mutex::new(Outstanding::default()),
            obs,
            chaos,
            submitted: AtomicU64::new(0),
            timer,
        })
    }

    pub fn coi(&self) -> &Arc<CoiRuntime> {
        &self.coi
    }

    /// Physical lanes summed over the live streams: the lanes their tasks'
    /// parallel regions ask the pool for.
    pub fn lanes(&self) -> usize {
        self.pipes.lock().iter().map(|p| p.lanes()).sum()
    }

    /// Completion probes the outstanding list's sweeps have made so far
    /// (for the linearity test).
    #[doc(hidden)]
    pub fn sweep_probes(&self) -> u64 {
        self.outstanding.lock().probes
    }

    /// The fault-injection hub shared with the fabric and dispatch points.
    pub fn chaos(&self) -> &ChaosHub {
        &self.chaos
    }

    /// Rebind stream `idx`'s sink pipeline to the host engine (card-loss
    /// degradation). The old pipeline drops: its queue closes and what it
    /// holds drains against the lost card's windows (their results are
    /// discarded by the replay). The stream keeps its logical
    /// width and mask; its lanes are worked out afresh for the host.
    pub fn remap_stream_to_host(&self, idx: usize) {
        let mut pipes = self.pipes.lock();
        if idx >= pipes.len() {
            return;
        }
        let (width, affinity) = (pipes[idx].width(), pipes[idx].workgroup().affinity());
        pipes[idx] = self.stream_pipeline(idx, EngineId::HOST, width, affinity);
        self.rebuild_ctx(&pipes);
    }

    /// The sink pipeline of stream `idx`, `width` cores wide, on `engine`.
    fn stream_pipeline(
        &self,
        idx: usize,
        engine: EngineId,
        width: usize,
        affinity: Option<u128>,
    ) -> hs_coi::Pipeline {
        // A stream on a card behind a worker owns none of this process's
        // cores: its tasks run over there, on lanes the worker sizes by the
        // same rule from the card's cores and its own.
        let modelled = self.modelled_cores[usize::from(engine.0)];
        let pipe = self
            .coi
            .pipeline_create_stream(engine, width, modelled, affinity);
        if self.obs.is_enabled() {
            self.obs
                .gauge_set(&format!("stream.{idx}.width"), width as i64);
            self.obs
                .gauge_set(&format!("stream.{idx}.lanes"), pipe.lanes() as i64);
        }
        pipe
    }

    /// Wall seconds since the first submit (0.0 before any work).
    pub fn elapsed_secs(&self) -> f64 {
        self.started
            .get()
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0)
    }

    pub fn add_stream(&self, domain_idx: usize, mask: crate::CpuMask) {
        // Domain indices correspond 1:1 to COI engines (host = 0). The
        // stream's mask rides down to the pipeline as its logical width and
        // affinity, which stay the tuner-visible knobs (paper §II).
        let width = mask.count().max(1) as usize;
        let mut pipes = self.pipes.lock();
        let pipe = self.stream_pipeline(
            pipes.len(),
            EngineId(domain_idx as u16),
            width,
            Some(mask.0),
        );
        pipes.push(pipe);
        self.rebuild_ctx(&pipes);
    }

    /// Submit one action whose dependences are all external: a batch of one
    /// (for callers that drive the executor directly; the runtime hands
    /// [`Self::submit_batch`] its whole enqueue).
    pub fn submit(
        &self,
        spec: ActionSpec,
        deps: &[BackendEvent],
        obs: ObsAction,
        opts: SubmitOpts,
    ) -> CoiEvent {
        let item = super::BatchSubmitItem {
            spec,
            deps: 0..deps.len(),
            obs,
        };
        let deps: Vec<BatchDep> = deps.iter().cloned().map(BatchDep::External).collect();
        let mut out = Vec::with_capacity(1);
        self.submit_batch(std::iter::once(item), &deps, opts, &mut out);
        out.remove(0).as_thread().clone()
    }

    /// Submit `items`, their completion events replacing the contents of
    /// `out`, with the shared-state traffic paid once per call:
    /// one submission-counter RMW (salts are the call's ordinal range), one
    /// outstanding-list lock, one dispatch-context read-lock for all items.
    /// [`BatchDep::Internal`] dependences resolve against the call's own
    /// records — an item may depend on any earlier item of the same call,
    /// which is wired by the time the item is.
    pub fn submit_batch(
        &self,
        items: impl ExactSizeIterator<Item = super::BatchSubmitItem>,
        deps: &[BatchDep],
        opts: SubmitOpts,
        out: &mut Vec<BackendEvent>,
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
                BatchDep::External(be) => &**be.as_thread(),
                BatchDep::Internal(j) => &**out[*j].as_thread(),
            });
            self.wire(&run, deps, opts.deadline_ns);
            out.push(BackendEvent::Thread(CoiEvent::of(run)));
        }
        drop(ctx);
        self.outstanding
            .lock()
            .track(out.iter().map(BackendEvent::as_thread));
    }

    /// Arm the deadline, then park the action on its dependence countdown —
    /// which dispatches it at once when nothing is pending.
    fn wire<'a>(
        &self,
        run: &Arc<ActionRun>,
        deps: impl Iterator<Item = &'a EventCore>,
        deadline_ns: Option<u64>,
    ) {
        if let Some(ns) = deadline_ns {
            self.timer.shared.schedule(
                Instant::now() + Duration::from_nanos(ns),
                TimerJob::Deadline(Arc::downgrade(run), ns),
            );
        }
        // Successfully-completed dependences answer via the lock-free flag
        // and are never registered on; a failed one poisons `run` inline.
        for dep in deps.filter(|d| !d.completed_ok()) {
            run.remaining.fetch_add(1, Ordering::Relaxed);
            dep.add_dependent(run.clone());
        }
        run.clone().resolved(&EventStatus::Done); // the wiring's own hold
    }

    /// Recompute the cached dispatch context after a topology change.
    /// Called with the pipes lock held so two concurrent mutators cannot
    /// install contexts out of order.
    fn rebuild_ctx(&self, pipes: &[hs_coi::Pipeline]) {
        let ctx = Arc::new(make_ctx(
            &self.coi,
            pipes,
            &self.dma,
            &self.obs,
            &self.chaos,
            &self.timer.shared,
        ));
        *self.ctx.write() = ctx;
    }
}

fn make_ctx(
    coi: &Arc<CoiRuntime>,
    pipes: &[hs_coi::Pipeline],
    dma: &[[DmaQueue; 2]],
    obs: &ObsHub,
    chaos: &ChaosHub,
    timer: &Arc<TimerShared>,
) -> DispatchCtx {
    DispatchCtx {
        coi: coi.clone(),
        pipes: pipes.iter().map(|p| p.sender_handle()).collect(),
        // Engine each stream's pipeline currently targets (0 = host):
        // the compute-site chaos consult needs the card to honour
        // dead-card state, and remapped streams must stop drawing
        // faults for the lost card.
        pipe_cards: pipes.iter().map(|p| p.engine().0 as u32).collect(),
        dma: dma
            .iter()
            .map(|pair| [pair[0].handle(), pair[1].handle()])
            .collect(),
        dma_queue_keys: (1..=dma.len())
            .map(|card| ["h2d", "d2h"].map(|dir| format!("dma.c{card}.{dir}.queue")))
            .collect(),
        obs: obs.clone(),
        chaos: chaos.clone(),
        timer: timer.clone(),
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

impl Drop for ThreadExec {
    fn drop(&mut self) {
        // Drain outstanding actions (bounded) before closing the sink and
        // DMA queues, so normally-completing work finishes and only
        // genuinely stuck actions see closed queues.
        let deadline = Instant::now() + DRAIN_BUDGET;
        let out = &mut self.outstanding.get_mut().runs;
        for run in out.iter() {
            // A dead card completes nothing: once the chaos hub knows one
            // is gone (a remote worker died, say), stop waiting — spending
            // the budget per event would turn one lost worker into a
            // multi-second shutdown hang.
            if !self.chaos.dead_cards().is_empty() {
                break;
            }
            if run.wait_deadline(deadline).is_none() {
                break; // budget exhausted; remaining actions fail on dispatch
            }
        }
        // Whatever is still incomplete after the drain gets the literal
        // cause when a card is down, so late waiters see `CardLost`, not a
        // silent hang.
        if let Some(&card) = self.chaos.dead_cards().first() {
            for run in out.iter() {
                run.fail(FailureCause::CardLost { card });
            }
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

/// Everything needed to dispatch an action from an arbitrary thread.
struct DispatchCtx {
    coi: Arc<CoiRuntime>,
    pipes: Vec<hs_coi::pipeline::PipelineHandle>,
    /// Engine index behind each pipeline (0 = host), for compute-site
    /// fault consultation.
    pipe_cards: Vec<u32>,
    dma: Vec<[QueueHandle<Arc<ActionRun>>; 2]>,
    /// Queue-depth gauge names, per card and direction like `dma`.
    dma_queue_keys: Vec<[String; 2]>,
    obs: ObsHub,
    chaos: ChaosHub,
    timer: Arc<TimerShared>,
}

/// One submitted action, in one heap block for its whole life: the resolved
/// spec (retained, not consumed, so transient-fault attempts re-dispatch
/// it), the completion state `BackendEvent::Thread` hands out views of, the
/// dependence countdown, and the retry state. The enqueuing thread allocates
/// it; sink pipelines ([`SinkTask`]) and DMA queues borrow it through an
/// `Arc` and report each attempt's result to [`ActionRun::finish`]; producers
/// list it as their [`Dependent`]. The outstanding list and the event-table
/// slot hold the references that outlive completion, and both are swept on
/// enqueuing threads — so that is where the block is freed.
struct ActionRun {
    ev: EventCore,
    ctx: Arc<DispatchCtx>,
    spec: ActionSpec,
    obs: ObsAction,
    retry: RetryPolicy,
    /// Attempts dispatched so far; feeds backoff jitter and the obs failure
    /// record.
    attempts: AtomicU32,
    /// Dependences still pending, plus one held by `wire` while it registers
    /// them; whoever takes it to zero dispatches.
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

    /// The result of one attempt, from whichever thread ran it: success
    /// settles the action; a transient failure with budget left schedules
    /// the next attempt on the timer wheel after a jittered backoff; any
    /// other failure — or an exhausted budget — fails it. Dependents only
    /// ever see the settled status, never an intermediate transient failure.
    fn finish(self: Arc<Self>, result: Result<(), FailureCause>) {
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
            self.obs.retry_wall(made, backoff);
            let timer = self.ctx.timer.clone();
            timer.schedule(
                Instant::now() + Duration::from_micros(backoff),
                TimerJob::Retry(self),
            );
        } else {
            self.fail(cause);
        }
    }

    /// The DMA queue's half of a transfer: copy, then report.
    fn transfer(self: Arc<Self>) {
        let ActionSpec::Transfer {
            card_domain: Some(card),
            h2d,
            bytes,
            real: Some(real),
            ..
        } = &self.spec
        else {
            unreachable!("only real card transfers are queued on DMA queues");
        };
        if self.obs.is_enabled() {
            let key = &self.ctx.dma_queue_keys[card - 1][usize::from(!h2d)];
            self.ctx.obs.gauge_add(key, -1);
        }
        self.obs.phase_wall(ObsPhase::SinkStart);
        let r = self
            .ctx
            .coi
            .dma_copy(real.src.0, real.src.1, real.dst.0, real.dst.1, *bytes);
        self.finish(r.map_err(|e| e.into_cause()));
    }
}

impl EventHost for ActionRun {
    fn event_core(&self) -> &EventCore {
        &self.ev
    }

    fn completed(&self, status: &EventStatus) {
        match status {
            EventStatus::Failed(c) => {
                let attempts = self.attempts.load(Ordering::Relaxed).max(1);
                self.obs.fail_cause_wall(c, attempts);
            }
            _ => self.obs.finish_wall(true),
        }
    }
}

impl Dependent for ActionRun {
    /// One dependence settled: a failure poisons this action (fail once; it
    /// never dispatches), the last success dispatches it from the
    /// producer's completing thread.
    fn resolved(self: Arc<Self>, status: &EventStatus) {
        match status {
            EventStatus::Failed(m) => self.fail(FailureCause::poisoned_by(m.clone())),
            _ => {
                if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    dispatch_attempt(&self);
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
            } => (func, args, bufs.as_slice()),
            _ => unreachable!("only computes are queued on sink pipelines"),
        }
    }

    fn started(&self) {
        self.obs.phase_wall(ObsPhase::SinkStart);
    }

    fn finish(self: Arc<Self>, result: Result<(), FailureCause>) {
        ActionRun::finish(self, result);
    }
}

/// Run one attempt of an action whose dependences have all resolved (or
/// whose backoff is over): route it to its sink pipeline or DMA queue,
/// which reports back through [`ActionRun::finish`].
///
/// Never panics: a malformed spec, a stopped pipeline and a closed DMA
/// queue all *finish the attempt with an error*, which reaches waiters and
/// dependents instead of aborting whichever thread ran the dispatch.
fn dispatch_attempt(run: &Arc<ActionRun>) {
    if run.ev.is_complete() {
        return; // deadline expired (or dependence poisoned) while queued
    }
    run.attempts.fetch_add(1, Ordering::AcqRel);
    let (ctx, obs) = (&run.ctx, &run.obs);
    let refuse = |cause: FailureCause| run.clone().finish(Err(cause));
    obs.phase_wall(ObsPhase::DepsResolved);
    match &run.spec {
        ActionSpec::Noop => {
            obs.phase_wall(ObsPhase::Dispatched);
            run.clone().finish(Ok(()));
        }
        ActionSpec::Compute {
            stream_idx, func, ..
        } => {
            let stream_idx = *stream_idx;
            let Some(pipe) = ctx.pipes.get(stream_idx) else {
                return refuse(FailureCause::Malformed(format!(
                    "malformed compute '{func}': no pipeline for stream index {stream_idx}"
                )));
            };
            obs.phase_wall(ObsPhase::Dispatched);
            // Chaos consult at the compute site: injected failures finish
            // the attempt without touching the sink; injected panics ride
            // the real sink path so unwinding is exercised end to end.
            if ctx.chaos.is_armed() {
                let card = ctx.pipe_cards.get(stream_idx).copied().unwrap_or(0);
                match ctx.chaos.check_compute(stream_idx as u32, card) {
                    Some(Injection::Fail(c)) => return refuse(c),
                    Some(Injection::Panic(msg)) => {
                        let run = run.clone();
                        let panicked = pipe.call(move || panic!("{msg}"));
                        return panicked.on_complete(move |st| {
                            run.finish(match st {
                                EventStatus::Failed(m) => Err(m.clone()),
                                _ => Ok(()),
                            })
                        });
                    }
                    None => {}
                }
            }
            pipe.submit(run.clone());
        }
        ActionSpec::Transfer {
            card_domain,
            h2d,
            real,
            label,
            ..
        } => {
            if real.is_none() {
                // Host-as-target alias: "transfers en-queued in host streams
                // are aliased and optimized away".
                obs.phase_wall(ObsPhase::Dispatched);
                return run.clone().finish(Ok(()));
            }
            let Some(card) = card_domain.and_then(|d| d.checked_sub(1)) else {
                return refuse(FailureCause::Malformed(format!(
                    "malformed transfer '{label}': real transfer without a card domain"
                )));
            };
            let Some(queues) = ctx.dma.get(card) else {
                return refuse(FailureCause::Malformed(format!(
                    "malformed transfer '{label}': card domain {} out of range ({} cards)",
                    card + 1,
                    ctx.dma.len()
                )));
            };
            let dir = usize::from(!h2d);
            obs.phase_wall(ObsPhase::Dispatched);
            let queue_key = obs.is_enabled().then(|| &ctx.dma_queue_keys[card][dir]);
            if let Some(key) = queue_key {
                ctx.obs.gauge_add(key, 1);
            }
            if queues[dir].push(run.clone()).is_err() {
                // Executor shut down between dependence resolution and
                // dispatch: the queue is closed.
                if let Some(key) = queue_key {
                    ctx.obs.gauge_add(key, -1);
                }
                refuse(FailureCause::from(format!(
                    "transfer '{label}' dropped: executor shut down before dispatch"
                )));
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
