//! Pipelines: sink-side command queues.
//!
//! A COI pipeline is an in-order command queue bound to a set of sink CPUs.
//! Here each pipeline is a [`SerialQueue`] that executes run functions in
//! arrival order: on the runtime's worker pool for an in-process engine, on
//! a thread of its own for a remote card, whose tasks block on the wire. Its
//! *width* is the logical size of the stream it serves (the cores of the
//! stream's mask on the modelled platform — what tuners and the wire see);
//! its *lanes* are how many OS threads a task really expands across via
//! [`RunCtx`]'s parallel helpers (the hStreams "task naturally expands to
//! use all of the resources given to a stream" semantics, on the machine
//! that exists), by [`physical_lanes`] — here for an in-process engine, in
//! the worker for a remote card. A pipeline on a remote card holds that
//! stream's exec connection to the worker, so the card's streams run there
//! side by side as they would here.
//!
//! Ordering note: hStreams enqueues work to a pipeline only when its
//! dependences are satisfied, so pipeline FIFO order is *dispatch* order,
//! not program order — that is exactly what lets hStreams execute actions
//! out of order while the pipeline itself stays simple.

use crate::event::{CoiEvent, EventCore, EventHost, EventStatus};
use crate::registry::FnRegistry;
use crate::small::SmallVec;
use crate::workers::{QueueHandle, SerialQueue, WorkerPool};
use crate::workgroup::Workgroup;
use crate::{CoiRuntime, EngineId};
use bytes::Bytes;
use hs_chaos::FailureCause;
use hs_fabric::transport::{ExecReply, ExecRequest, TransportError};
use hs_fabric::{ExecConn, NodeId, RangeGuard, WindowId, WindowMem};
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Buffer operand of a run function: window, byte range, writable?
pub type BufAccess = (WindowId, Range<usize>, bool);

/// How many OS threads a stream's parallel regions use: the stream owns the
/// same fraction of the real machine (`host_cores`) as its mask
/// (`mask_cores`) owns of the platform that machine emulates
/// (`modelled_cores`: the domains hosted in this process, or the one card a
/// worker hosts), at least one and never more than the mask is wide.
///
/// The mask's core count stays the stream's *logical* width — what the sim
/// cost model, the tuner, hsan and the wire see. It is not a thread count:
/// 14 of a modelled 28-core host's cores on a 2-core machine are one lane,
/// not fourteen threads taking turns. Disjoint masks that cover the
/// platform therefore never run more lanes than `max(host_cores, streams)`.
/// A function of the platform and the machine, on purpose: a knob would
/// have to be re-tuned on every host, and this is what it would be set to.
/// The one rule on both sides of the wire: the in-process executor sizes a
/// stream with it, and so does the worker, from the stream's exec
/// connection's `Hello`.
pub fn physical_lanes(mask_cores: u32, modelled_cores: u32, host_cores: usize) -> usize {
    let share = u64::from(mask_cores) * host_cores as u64 / u64::from(modelled_cores.max(1));
    share.clamp(1, u64::from(mask_cores.max(1))) as usize
}

/// A run-function invocation as the sink sees it. The queue carries an `Arc`
/// of the *caller's* task, so enqueueing copies nothing: the sink borrows
/// the call for the duration of the run and reports the result straight
/// back to the task.
pub trait SinkTask: Send + Sync {
    /// Function name, opaque argument bytes, operand windows.
    fn call(&self) -> (&str, &[u8], &[BufAccess]);
    /// The task reached the front of the queue and is about to run, on the
    /// thread that runs it (where a traced caller stamps `SinkStart`).
    fn started(&self) {}
    /// The run's outcome; a panicking run function arrives as
    /// [`FailureCause::SinkPanic`], a stopped pipeline as an `Exec` failure.
    fn finish(self: Arc<Self>, result: Result<(), FailureCause>);
}

enum Command {
    Run(Arc<dyn SinkTask>),
    /// Execute an arbitrary closure in the pipeline's order (bookkeeping
    /// that must serialize with computes of the same stream).
    Call(Box<dyn FnOnce() + Send>, CoiEvent),
}

/// The task behind [`PipelineHandle::run`]: event and command in one block.
struct RunTask {
    ev: EventCore,
    name: String,
    args: Bytes,
    bufs: Vec<BufAccess>,
}

impl EventHost for RunTask {
    fn event_core(&self) -> &EventCore {
        &self.ev
    }
}

impl SinkTask for RunTask {
    fn call(&self) -> (&str, &[u8], &[BufAccess]) {
        (&self.name, &self.args, &self.bufs)
    }

    fn finish(self: Arc<Self>, result: Result<(), FailureCause>) {
        self.ev.complete(status_of(result), &*self);
    }
}

fn status_of(result: Result<(), FailureCause>) -> EventStatus {
    match result {
        Ok(()) => EventStatus::Done,
        Err(cause) => EventStatus::Failed(cause),
    }
}

/// Handle to a sink pipeline. Dropping it closes the queue: later commands
/// fail, the queued ones drain (see [`SerialQueue`]).
pub struct Pipeline {
    /// Held for its drop, which closes the queue.
    _queue: SerialQueue<Command>,
    sender: PipelineHandle,
    engine: EngineId,
    /// The expansion group shared with the sink; its width is this
    /// pipeline's lane count.
    wg: Arc<Workgroup>,
}

impl Pipeline {
    /// A pipeline of `width` logical cores expanding over `lanes` threads
    /// here. On a remote card it opens the stream's exec connection, whose
    /// `Hello` gives the worker `width` and the card's `cores`; a connection
    /// that cannot be opened has poisoned the card, so its tasks fail as
    /// `CardLost`.
    pub(crate) fn spawn(
        rt: Arc<CoiRuntime>,
        engine: EngineId,
        width: usize,
        lanes: usize,
        cores: u32,
        affinity: Option<u128>,
    ) -> Pipeline {
        assert!(width >= 1, "pipeline width must be >= 1");
        assert!(
            (1..=width).contains(&lanes),
            "pipeline lanes must be in 1..=width"
        );
        // Tasks expand over the runtime's pool: no thread of their own.
        let wg = Arc::new(Workgroup::on(rt.pool().clone(), lanes, affinity));
        let node = engine.node();
        let exec = rt.fabric().transport(node).as_remote().and_then(|remote| {
            let conn = remote.open_exec(width as u32, cores);
            conn.ok().map(|conn| (node, conn))
        });
        // A remote card's tasks block on the wire: they get a thread of
        // their own, so they never hold a worker that host compute could use.
        let pool = if rt.fabric().is_remote(node) {
            Arc::new(WorkerPool::new(1, &format!("coi-pipe-e{}", engine.0)))
        } else {
            rt.pool().clone()
        };
        let sink = Sink {
            rt,
            width,
            wg: wg.clone(),
            exec,
        };
        let queue = SerialQueue::new(pool, move |cmd| sink.run(cmd));
        Pipeline {
            sender: PipelineHandle {
                queue: queue.handle(),
                width,
            },
            _queue: queue,
            engine,
            wg,
        }
    }

    pub fn engine(&self) -> EngineId {
        self.engine
    }

    /// Logical width: the core count of the owning stream's mask.
    pub fn width(&self) -> usize {
        self.sender.width
    }

    /// Physical lanes: the OS threads a parallel region of a task runs on
    /// (the one running the task included).
    pub fn lanes(&self) -> usize {
        self.wg.width()
    }

    /// The pipeline's expansion group (for diagnostics/tests).
    pub fn workgroup(&self) -> &Arc<Workgroup> {
        &self.wg
    }

    /// A cloneable handle that can enqueue commands from any thread.
    pub fn sender_handle(&self) -> PipelineHandle {
        self.sender.clone()
    }

    /// See [`PipelineHandle::run`].
    pub fn run(&self, name: &str, args: Bytes, bufs: Vec<BufAccess>) -> CoiEvent {
        self.sender.run(name, args, bufs)
    }

    /// See [`PipelineHandle::call`].
    pub fn call(&self, f: impl FnOnce() + Send + 'static) -> CoiEvent {
        self.sender.call(f)
    }
}

/// A cloneable, thread-safe handle to a pipeline's command queue.
#[derive(Clone)]
pub struct PipelineHandle {
    queue: QueueHandle<Command>,
    width: usize,
}

impl PipelineHandle {
    pub fn width(&self) -> usize {
        self.width
    }

    /// Enqueue the caller's task. A stopped pipeline finishes it with an
    /// error at once.
    pub fn submit(&self, task: Arc<dyn SinkTask>) {
        if let Err(Command::Run(task)) = self.queue.push(Command::Run(task)) {
            task.finish(Err("pipeline stopped".into()));
        }
    }

    /// Enqueue a run function; returns its completion event.
    pub fn run(&self, name: &str, args: Bytes, bufs: Vec<BufAccess>) -> CoiEvent {
        let task = Arc::new(RunTask {
            ev: EventCore::new(),
            name: name.to_string(),
            args,
            bufs,
        });
        self.submit(task.clone());
        CoiEvent::of(task)
    }

    /// Enqueue an arbitrary closure; returns its completion event.
    pub fn call(&self, f: impl FnOnce() + Send + 'static) -> CoiEvent {
        let done = CoiEvent::new();
        if self
            .queue
            .push(Command::Call(Box::new(f), done.clone()))
            .is_err()
        {
            done.fail("pipeline stopped");
        }
        done
    }
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> FailureCause {
    if let Some(s) = p.downcast_ref::<&str>() {
        FailureCause::SinkPanic((*s).to_string())
    } else if let Some(s) = p.downcast_ref::<String>() {
        FailureCause::SinkPanic(s.clone())
    } else {
        FailureCause::SinkPanic("<non-string payload>".to_string())
    }
}

/// Operand lists of the usual size live on the sink's stack.
type Inline<T> = SmallVec<T, 4>;

/// Operand indices in canonical (window, offset) order: every pipeline takes
/// its range locks in this order, so racing on shared operands cannot
/// deadlock.
fn acquire_order(bufs: &[BufAccess]) -> Inline<usize> {
    let mut order: Inline<usize> = (0..bufs.len()).collect();
    order
        .as_mut_slice()
        .sort_by_key(|&i| (bufs[i].0, bufs[i].1.start));
    order
}

/// What a pipeline's queue runs commands with.
struct Sink {
    rt: Arc<CoiRuntime>,
    width: usize,
    wg: Arc<Workgroup>,
    /// The stream's exec connection, on a pipeline whose engine is a remote
    /// card (that card's node).
    exec: Option<(NodeId, ExecConn)>,
}

impl Sink {
    fn run(&self, cmd: Command) {
        match cmd {
            Command::Call(f, done) => match std::panic::catch_unwind(AssertUnwindSafe(f)) {
                Ok(()) => done.signal(),
                Err(p) => done.fail(panic_msg(p.as_ref())),
            },
            Command::Run(task) => {
                task.started();
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| self.execute(&*task)));
                task.finish(r.unwrap_or_else(|p| Err(panic_msg(p.as_ref()))));
            }
        }
    }

    fn execute(&self, task: &dyn SinkTask) -> Result<(), FailureCause> {
        let rt = &*self.rt;
        let (name, args, bufs) = task.call();
        // Any operand living on a remote node routes the whole task through
        // the wire (the worker process owns that memory — there is no local
        // view).
        let remote = bufs
            .iter()
            .map(|(w, _, _)| w.node)
            .find(|&n| rt.fabric().is_remote(n));
        if let Some(node) = remote {
            return self.execute_remote(node, name, args, bufs);
        }
        let mut mems: Inline<Option<Arc<WindowMem>>> = Inline::new();
        for (w, _, _) in bufs {
            let mem = rt.fabric().window(*w).ok_or_else(|| {
                FailureCause::Exec(format!("run function '{name}': window {w:?} gone"))
            })?;
            mems.push(Some(mem));
        }
        let mems = mems.as_slice();
        let operand = |i: usize| {
            let mem = mems[i].as_deref().expect("every window resolved above");
            (mem, bufs[i].1.clone(), bufs[i].2)
        };
        let order = acquire_order(bufs);
        run_locked(
            rt.registry(),
            name,
            args,
            operand,
            order.as_slice(),
            &self.wg,
        )
    }

    /// Execute a task whose operands live (at least partly) on remote `node`.
    ///
    /// Fast path: every operand is on `node` and the worker knows the function —
    /// one `Exec` frame on the stream's exec connection, zero data motion; the
    /// worker runs it on the lanes it sized from that connection's `Hello`.
    /// Fallback (worker replies `UnknownFn`, e.g. a closure registered only
    /// host-side, or operands are mixed host/remote): fetch the remote operand
    /// bytes into private scratch windows, run the function locally, and write
    /// back the write-operands. The fallback uses the raw transport (not the
    /// DMA engines) so the `dma.cN.*` rows keep meaning "buffer instantiation
    /// traffic" and stay comparable between Local and Remote transports.
    fn execute_remote(
        &self,
        node: NodeId,
        name: &str,
        args: &[u8],
        bufs: &[BufAccess],
    ) -> Result<(), FailureCause> {
        let rt = &*self.rt;
        for (w, _, _) in bufs {
            if rt.fabric().is_remote(w.node) && w.node != node {
                return Err(FailureCause::Malformed(format!(
                    "run function '{name}': operands span remote nodes {} and {}",
                    node.0, w.node.0
                )));
            }
        }
        let t = rt.fabric().transport(node).clone();
        if bufs.iter().all(|(w, _, _)| w.node == node) {
            let raw: Vec<(u64, u64, u64, bool)> = bufs
                .iter()
                .map(|(w, r, wr)| (w.raw(), r.start as u64, r.end as u64, *wr))
                .collect();
            let req = ExecRequest {
                name,
                args,
                width: self.width as u32,
                bufs: &raw,
            };
            let reply = match &self.exec {
                Some((on, conn)) if *on == node => conn.exec(&req),
                _ => t.exec(&req),
            };
            match reply {
                Ok(ExecReply::Done) => return Ok(()),
                Ok(ExecReply::UnknownFn) => {} // fall through to fetch-compute-writeback
                Ok(ExecReply::Failed(msg)) => {
                    return Err(match msg.strip_prefix("panic: ") {
                        Some(p) => FailureCause::SinkPanic(p.to_string()),
                        None => FailureCause::Exec(format!("remote exec '{name}': {msg}")),
                    })
                }
                Err(e) => return Err(wire_cause(node, e)),
            }
        }
        // Fetch-compute-writeback: remote operands become private scratch
        // windows (no lock contention — each call gets fresh ones), local
        // operands keep their real memories and canonical lock order.
        let mut ops: Vec<(Arc<WindowMem>, Range<usize>, bool)> = Vec::with_capacity(bufs.len());
        let mut fetched: Vec<usize> = Vec::new();
        for (i, (w, range, wr)) in bufs.iter().enumerate() {
            if w.node == node {
                let len = range.len();
                let scratch = Arc::new(WindowMem::new(len));
                {
                    let mut g = scratch
                        .lock_range(0..len, true)
                        .map_err(|e| FailureCause::Exec(format!("scratch for '{name}': {e}")))?;
                    t.read(w.raw(), range.start, g.as_mut_slice())
                        .map_err(|e| wire_cause(node, e))?;
                }
                ops.push((scratch, 0..len, *wr));
                fetched.push(i);
            } else {
                let mem = rt.fabric().window(*w).ok_or_else(|| {
                    FailureCause::Exec(format!("run function '{name}': window {w:?} gone"))
                })?;
                ops.push((mem, range.clone(), *wr));
            }
        }
        // Scratch windows are private, so ordering only matters among the real
        // (local) operands — the canonical (window, offset) sort keeps them safe.
        execute_on(
            rt.registry(),
            name,
            args,
            &ops,
            acquire_order(bufs).as_slice(),
            &self.wg,
        )?;
        for i in fetched {
            let (scratch, srange, wr) = &ops[i];
            if *wr {
                let g = scratch
                    .lock_range(srange.clone(), false)
                    .map_err(|e| FailureCause::Exec(format!("scratch for '{name}': {e}")))?;
                t.write(bufs[i].0.raw(), bufs[i].1.start, g.as_slice())
                    .map_err(|e| wire_cause(node, e))?;
            }
        }
        Ok(())
    }
}

/// Run a registered function against already-resolved operand memories.
///
/// This is the sink-side core shared by the in-process path above and the
/// remote worker server ([`crate::server`]): look the function up, take the
/// operand range locks in `acquire_order` (callers pass a canonical
/// (window, offset) order so concurrent pipelines cannot deadlock), and call
/// it with a [`RunCtx`] built over the guards.
pub fn execute_on(
    registry: &FnRegistry,
    name: &str,
    args: &[u8],
    ops: &[(Arc<WindowMem>, Range<usize>, bool)],
    acquire_order: &[usize],
    wg: &Arc<Workgroup>,
) -> Result<(), FailureCause> {
    debug_assert_eq!(acquire_order.len(), ops.len());
    let operand = |i: usize| (&*ops[i].0, ops[i].1.clone(), ops[i].2);
    run_locked(registry, name, args, operand, acquire_order, wg)
}

/// [`execute_on`] over an operand accessor (memory, byte range, writable?)
/// instead of a slice, so the in-process sink need not build one.
fn run_locked<'a>(
    registry: &FnRegistry,
    name: &str,
    args: &'a [u8],
    operand: impl Fn(usize) -> (&'a WindowMem, Range<usize>, bool),
    acquire_order: &[usize],
    wg: &Arc<Workgroup>,
) -> Result<(), FailureCause> {
    let f = registry
        .lookup(name)
        .ok_or_else(|| FailureCause::Malformed(format!("no run function named '{name}'")))?;
    let mut guards: Inline<Option<RangeGuard<'a>>> = acquire_order.iter().map(|_| None).collect();
    for &i in acquire_order {
        let (mem, range, write) = operand(i);
        let g = mem
            .lock_range(range, write)
            .map_err(|e| FailureCause::Exec(format!("run function '{name}': {e}")))?;
        guards.as_mut_slice()[i] = Some(g);
    }
    let mut ctx = RunCtx {
        args,
        guards,
        wg: wg.clone(),
    };
    f(&mut ctx);
    Ok(())
}

/// Map a transport failure on `node` to the cause the executor understands:
/// a closed/poisoned link is the literal card loss the chaos layer models.
fn wire_cause(node: NodeId, e: TransportError) -> FailureCause {
    match e {
        TransportError::Closed(_) => FailureCause::CardLost {
            card: node.0 as u32,
        },
        other => FailureCause::Exec(format!("remote exec on node {}: {other}", node.0)),
    }
}

/// Execution context handed to a run function.
pub struct RunCtx<'a> {
    args: &'a [u8],
    /// One per operand, all `Some` by the time a run function sees them.
    guards: Inline<Option<RangeGuard<'a>>>,
    wg: Arc<Workgroup>,
}

impl<'a> RunCtx<'a> {
    /// Opaque argument bytes (hStreams marshals scalar args this way).
    pub fn args(&self) -> &[u8] {
        self.args
    }

    /// Number of OS threads this task may expand across.
    pub fn lanes(&self) -> usize {
        self.wg.width()
    }

    /// The stream's expansion group. Clone the `Arc` *before* taking
    /// `buf_mut` borrows, then expand with
    /// [`Workgroup::par_for`]/[`Workgroup::par_chunks_mut`] — the group
    /// handle is independent of the operand guards.
    pub fn workgroup(&self) -> &Arc<Workgroup> {
        &self.wg
    }

    pub fn num_bufs(&self) -> usize {
        self.guards.len()
    }

    fn guard(&self, i: usize) -> &RangeGuard<'a> {
        held(&self.guards.as_slice()[i])
    }

    fn guard_mut(&mut self, i: usize) -> &mut RangeGuard<'a> {
        held_mut(&mut self.guards.as_mut_slice()[i])
    }

    /// Shared byte view of operand `i`.
    pub fn buf(&self, i: usize) -> &[u8] {
        self.guard(i).as_slice()
    }

    /// Exclusive byte view of operand `i` (must be a write operand).
    pub fn buf_mut(&mut self, i: usize) -> &mut [u8] {
        self.guard_mut(i).as_mut_slice()
    }

    /// Shared `f64` view of operand `i` (8-byte aligned operands).
    pub fn buf_f64(&self, i: usize) -> &[f64] {
        self.guard(i).as_f64_slice()
    }

    /// Exclusive `f64` view of operand `i`.
    pub fn buf_f64_mut(&mut self, i: usize) -> &mut [f64] {
        self.guard_mut(i).as_f64_mut_slice()
    }

    /// Take two distinct operands, the second mutably (e.g. input tile and
    /// output tile of one kernel).
    pub fn buf_f64_pair_mut(&mut self, ro: usize, rw: usize) -> (&[f64], &mut [f64]) {
        let ([src], dst) = self.buf_f64_split([ro], rw);
        (src, dst)
    }

    /// Shared `f64` views of the operands `ro` together with the exclusive
    /// view of operand `rw` (which must be a write operand and none of
    /// `ro`): a kernel reads its inputs in place while it writes its output.
    pub fn buf_f64_split<const N: usize>(
        &mut self,
        ro: [usize; N],
        rw: usize,
    ) -> ([&[f64]; N], &mut [f64]) {
        assert!(!ro.contains(&rw), "operand indices must differ");
        let (below, rest) = self.guards.as_mut_slice().split_at_mut(rw);
        let (out, above) = rest.split_first_mut().expect("operand index in range");
        let (below, above) = (&*below, &*above);
        let views = ro.map(|i| {
            let guard = if i < rw {
                &below[i]
            } else {
                &above[i - rw - 1]
            };
            held(guard).as_f64_slice()
        });
        (views, held_mut(out).as_f64_mut_slice())
    }

    /// Dynamic-balanced parallel loop over `0..n` across the task's lanes,
    /// on the runtime's worker pool (no thread spawns).
    pub fn par_for(&self, n: usize, f: impl Fn(usize) + Sync) {
        self.wg.par_for(n, f);
    }
}

fn held<'g, 'a>(slot: &'g Option<RangeGuard<'a>>) -> &'g RangeGuard<'a> {
    slot.as_ref().expect("operand guards are all held")
}

fn held_mut<'g, 'a>(slot: &'g mut Option<RangeGuard<'a>>) -> &'g mut RangeGuard<'a> {
    slot.as_mut().expect("operand guards are all held")
}

// Tasks that hold `buf_mut` borrows expand via `ctx.workgroup().clone()`
// captured before the borrow — the group handle does not alias the guards.

#[cfg(test)]
mod tests {
    use super::*;
    use hs_fabric::Pacer;

    fn rt1() -> Arc<CoiRuntime> {
        CoiRuntime::new(1, Pacer::unpaced())
    }

    #[test]
    fn commands_execute_in_arrival_order() {
        let rt = rt1();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let pipe = rt.pipeline_create(EngineId(1), 1);
        let mut events = Vec::new();
        for i in 0..10 {
            let log = log.clone();
            events.push(pipe.call(move || log.lock().push(i)));
        }
        CoiEvent::wait_all(&events).expect("all complete");
        assert_eq!(*log.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_function_fails_event_but_pipeline_survives() {
        let rt = rt1();
        rt.register("boom", Arc::new(|_ctx: &mut RunCtx| panic!("kaput")));
        let pipe = rt.pipeline_create(EngineId(1), 1);
        let ev = pipe.run("boom", Bytes::new(), vec![]);
        let err = ev.wait().expect_err("panic must fail the event");
        assert!(
            matches!(&err, FailureCause::SinkPanic(m) if m.contains("kaput")),
            "{err}"
        );
        // The pipeline still processes subsequent commands.
        let ev2 = pipe.call(|| {});
        assert_eq!(ev2.wait(), Ok(()));
    }

    #[test]
    fn run_ctx_exposes_args_and_lanes() {
        let rt = rt1();
        let seen = Arc::new(parking_lot::Mutex::new((0usize, Vec::new())));
        let seen2 = seen.clone();
        rt.register(
            "probe",
            Arc::new(move |ctx: &mut RunCtx| {
                *seen2.lock() = (ctx.lanes(), ctx.args().to_vec());
            }),
        );
        let pipe = rt.pipeline_create(EngineId(1), 3);
        pipe.run("probe", Bytes::from_static(&[1, 2, 3]), vec![])
            .wait()
            .expect("probe runs");
        let (w, a) = seen.lock().clone();
        assert_eq!(w, 3);
        assert_eq!(a, vec![1, 2, 3]);
    }

    #[test]
    fn f64_operands_via_ctx() {
        let rt = rt1();
        rt.register(
            "sum_into",
            Arc::new(|ctx: &mut RunCtx| {
                let total: f64 = ctx.buf_f64(0).iter().sum();
                ctx.buf_f64_mut(1)[0] = total;
            }),
        );
        let a = rt.buffer_alloc(EngineId(1), 32, true);
        let b = rt.buffer_alloc(EngineId(1), 8, true);
        {
            let mem = rt.fabric().window(a.id()).expect("window exists");
            mem.lock_range(0..32, true)
                .expect("in bounds")
                .as_f64_mut_slice()
                .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        }
        let pipe = rt.pipeline_create(EngineId(1), 1);
        pipe.run(
            "sum_into",
            Bytes::new(),
            vec![(a.id(), 0..32, false), (b.id(), 0..8, true)],
        )
        .wait()
        .expect("sum_into runs");
        let mem = rt.fabric().window(b.id()).expect("window exists");
        let g = mem.lock_range(0..8, false).expect("in bounds");
        assert_eq!(g.as_f64_slice()[0], 10.0);
    }

    #[test]
    fn f64_pair_hands_out_the_named_operands_in_either_order() {
        let rt = rt1();
        // out[i] = 2 * in[i]; the operand order is in the args byte.
        rt.register(
            "double_into",
            Arc::new(|ctx: &mut RunCtx| {
                let (ro, rw) = (ctx.args()[0] as usize, ctx.args()[1] as usize);
                let (src, dst) = ctx.buf_f64_pair_mut(ro, rw);
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = 2.0 * s;
                }
            }),
        );
        let pipe = rt.pipeline_create(EngineId(1), 1);
        for (ro, rw) in [(0u8, 1u8), (1, 0)] {
            let src = rt.buffer_alloc(EngineId(1), 16, true);
            let dst = rt.buffer_alloc(EngineId(1), 16, true);
            {
                let mem = rt.fabric().window(src.id()).expect("window exists");
                mem.lock_range(0..16, true)
                    .expect("in bounds")
                    .as_f64_mut_slice()
                    .copy_from_slice(&[1.5, -4.0]);
            }
            let mut bufs = vec![(src.id(), 0..16, false), (dst.id(), 0..16, true)];
            if ro > rw {
                bufs.swap(0, 1);
            }
            pipe.run("double_into", Bytes::from(vec![ro, rw]), bufs)
                .wait()
                .unwrap_or_else(|e| panic!("ro={ro} rw={rw}: {e}"));
            let mem = rt.fabric().window(dst.id()).expect("window exists");
            let g = mem.lock_range(0..16, false).expect("in bounds");
            assert_eq!(g.as_f64_slice(), &[3.0, -8.0], "ro={ro} rw={rw}");
        }
    }

    #[test]
    fn f64_split_reads_the_inputs_in_place_wherever_the_output_sits() {
        let rt = rt1();
        // out = x + 10 * y; args: the operand indices of x, y and out.
        rt.register(
            "axpy_into",
            Arc::new(|ctx: &mut RunCtx| {
                let [x, y, out] = [0, 1, 2].map(|i| ctx.args()[i] as usize);
                let ([x, y], out) = ctx.buf_f64_split([x, y], out);
                for ((o, x), y) in out.iter_mut().zip(x).zip(y) {
                    *o = x + 10.0 * y;
                }
            }),
        );
        rt.register(
            "aliased",
            Arc::new(|ctx: &mut RunCtx| {
                ctx.buf_f64_split([0, 1], 1);
            }),
        );
        let pipe = rt.pipeline_create(EngineId(1), 1);
        let fill = |vals: [f64; 2]| {
            let w = rt.buffer_alloc(EngineId(1), 16, true);
            let mem = rt.fabric().window(w.id()).expect("window exists");
            mem.lock_range(0..16, true)
                .expect("in bounds")
                .as_f64_mut_slice()
                .copy_from_slice(&vals);
            w
        };
        for order in [[0u8, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]] {
            let wins = [fill([1.0, 2.0]), fill([3.0, 4.0]), fill([0.0, 0.0])];
            let mut bufs = vec![(wins[0].id(), 0..16, false); 3];
            for (w, &slot) in wins.iter().zip(&order) {
                bufs[slot as usize] = (w.id(), 0..16, slot == order[2]);
            }
            pipe.run("axpy_into", Bytes::from(order.to_vec()), bufs)
                .wait()
                .unwrap_or_else(|e| panic!("order {order:?}: {e}"));
            let mem = rt.fabric().window(wins[2].id()).expect("window exists");
            let g = mem.lock_range(0..16, false).expect("in bounds");
            assert_eq!(g.as_f64_slice(), &[31.0, 42.0], "order {order:?}");
        }
        // The output may not also be handed out as an input.
        let (a, b) = (fill([0.0; 2]), fill([0.0; 2]));
        let bufs = vec![(a.id(), 0..16, false), (b.id(), 0..16, true)];
        let err = pipe
            .run("aliased", Bytes::new(), bufs)
            .wait()
            .expect_err("aliasing split must fail the task");
        assert!(err.to_string().contains("must differ"), "{err}");
    }

    #[test]
    fn task_expands_across_width_with_par_for() {
        let rt = rt1();
        let max_conc = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let cur = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (m2, c2) = (max_conc.clone(), cur.clone());
        rt.register(
            "wide",
            Arc::new(move |ctx: &mut RunCtx| {
                let (m, c) = (m2.clone(), c2.clone());
                ctx.par_for(64, move |_| {
                    use std::sync::atomic::Ordering::SeqCst;
                    let now = c.fetch_add(1, SeqCst) + 1;
                    m.fetch_max(now, SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(300));
                    c.fetch_sub(1, SeqCst);
                });
            }),
        );
        let pipe = rt.pipeline_create(EngineId(1), 4);
        pipe.run("wide", Bytes::new(), vec![]).wait().expect("runs");
        assert!(
            max_conc.load(std::sync::atomic::Ordering::SeqCst) > 1,
            "parallel_for must actually use multiple threads"
        );
    }

    #[test]
    fn overlapping_write_operands_serialize_across_pipelines() {
        let rt = rt1();
        rt.register(
            "incr_all",
            Arc::new(|ctx: &mut RunCtx| {
                let buf = ctx.buf_f64_mut(0);
                for x in buf.iter_mut() {
                    let v = *x;
                    // Non-atomic read-modify-write over the whole range: only
                    // correct if the range lock serializes the two tasks.
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    *x = v + 1.0;
                }
            }),
        );
        let w = rt.buffer_alloc(EngineId(1), 8 * 8, true);
        let p1 = rt.pipeline_create(EngineId(1), 1);
        let p2 = rt.pipeline_create(EngineId(1), 1);
        let e1 = p1.run("incr_all", Bytes::new(), vec![(w.id(), 0..64, true)]);
        let e2 = p2.run("incr_all", Bytes::new(), vec![(w.id(), 0..64, true)]);
        e1.wait().expect("first increment");
        e2.wait().expect("second increment");
        let mem = rt.fabric().window(w.id()).expect("window exists");
        let g = mem.lock_range(0..64, false).expect("in bounds");
        assert!(g.as_f64_slice().iter().all(|&x| x == 2.0));
    }
}
