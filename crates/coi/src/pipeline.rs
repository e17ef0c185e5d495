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
use std::sync::{Arc, OnceLock};

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

/// Handle to a sink pipeline. Dropping it closes the queue: later tasks
/// fail, the queued ones drain (see [`SerialQueue`]).
pub struct Pipeline {
    /// Held for its drop, which closes the queue.
    _queue: SerialQueue<Arc<dyn SinkTask>>,
    sender: PipelineHandle,
    engine: EngineId,
    /// The expansion group shared with the sink; its width is this
    /// pipeline's lane count.
    wg: Arc<Workgroup>,
}

impl Pipeline {
    /// A pipeline of `width` logical cores expanding over `lanes` threads
    /// here. On a remote card it opens the stream's exec connection, whose
    /// `Hello` gives the worker `width` and the card's `cores`; a card that
    /// is down leaves it to the first task after the card's `reconnect`.
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
        let remote = rt.fabric().is_remote(node).then(|| RemoteSink {
            node,
            width: width as u32,
            cores,
            conn: OnceLock::new(),
        });
        if let Some(remote) = &remote {
            // A card that is down now fails this stream's tasks as `CardLost`
            // until it is reconnected.
            let _ = remote.conn(&rt);
        }
        // A remote card's tasks block on the wire: they get a thread of
        // their own, so they never hold a worker that host compute could use.
        let pool = if remote.is_some() {
            Arc::new(WorkerPool::new(1, &format!("coi-pipe-e{}", engine.0)))
        } else {
            rt.pool().clone()
        };
        let sink = Sink {
            rt,
            wg: wg.clone(),
            remote,
        };
        let queue = SerialQueue::new(pool, move |task| sink.run(task));
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

    /// A cloneable handle that can enqueue tasks from any thread.
    pub fn sender_handle(&self) -> PipelineHandle {
        self.sender.clone()
    }

    /// See [`PipelineHandle::run`].
    pub fn run(&self, name: &str, args: Bytes, bufs: Vec<BufAccess>) -> CoiEvent {
        self.sender.run(name, args, bufs)
    }
}

/// A cloneable, thread-safe handle to a pipeline's task queue.
#[derive(Clone)]
pub struct PipelineHandle {
    queue: QueueHandle<Arc<dyn SinkTask>>,
    width: usize,
}

impl PipelineHandle {
    /// Enqueue the caller's task. A stopped pipeline finishes it with an
    /// error at once.
    pub fn submit(&self, task: Arc<dyn SinkTask>) {
        if let Err(task) = self.queue.push(task) {
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
}

/// Operand lists of the usual size live on the sink's stack.
type Inline<T> = SmallVec<T, 4>;

/// What a pipeline's queue runs tasks with.
struct Sink {
    rt: Arc<CoiRuntime>,
    wg: Arc<Workgroup>,
    /// Set on a pipeline whose engine is a remote card: its tasks run there.
    remote: Option<RemoteSink>,
}

/// The remote card a pipeline's tasks run on, and the stream's exec
/// connection to its worker.
struct RemoteSink {
    node: NodeId,
    /// The stream's logical width and the card's modelled cores, for the
    /// connection's `Hello`.
    width: u32,
    cores: u32,
    /// Opened at spawn, or by the first task that finds the card up; a
    /// `reconnect` of the card re-opens it in place.
    conn: OnceLock<ExecConn>,
}

impl Sink {
    fn run(&self, task: Arc<dyn SinkTask>) {
        task.started();
        let result = self.execute(&*task);
        task.finish(result);
    }

    fn execute(&self, task: &dyn SinkTask) -> Result<(), FailureCause> {
        let rt = &*self.rt;
        let (name, args, bufs) = task.call();
        if let Some(remote) = &self.remote {
            return remote.execute(rt, name, args, bufs);
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
            let (w, range, write) = &bufs[i];
            let mem = mems[i].as_deref().expect("every window resolved above");
            (*w, mem, range.clone(), *write)
        };
        execute_on(rt.registry(), name, args, bufs.len(), operand, &self.wg)
    }
}

impl RemoteSink {
    /// One `Exec` frame on the stream's exec connection, zero data motion;
    /// the worker runs the function on the lanes it sized from that
    /// connection's `Hello`, from its own registry. A name it lacks fails
    /// the task as an unregistered name fails it here.
    fn execute(
        &self,
        rt: &CoiRuntime,
        name: &str,
        args: &[u8],
        bufs: &[BufAccess],
    ) -> Result<(), FailureCause> {
        if let Some((w, _, _)) = bufs.iter().find(|(w, _, _)| w.node != self.node) {
            return Err(FailureCause::Malformed(format!(
                "run function '{name}': operand {w:?} is not on node {}",
                self.node.0
            )));
        }
        let raw: Vec<(u64, u64, u64, bool)> = bufs
            .iter()
            .map(|(w, r, wr)| (w.raw(), r.start as u64, r.end as u64, *wr))
            .collect();
        let req = ExecRequest {
            name,
            args,
            width: self.width,
            bufs: &raw,
        };
        let reply = self.conn(rt)?.exec(&req);
        match reply.map_err(|e| wire_cause(self.node, e))? {
            ExecReply::Done => Ok(()),
            ExecReply::UnknownFn => Err(unknown_fn(name)),
            ExecReply::Failed(msg) => Err(match msg.strip_prefix("panic: ") {
                Some(p) => FailureCause::SinkPanic(p.to_string()),
                None => FailureCause::Exec(format!("remote exec '{name}': {msg}")),
            }),
        }
    }

    /// The stream's exec connection, opened on first use. The queue runs
    /// one task at a time, so no two tasks race to open it.
    fn conn(&self, rt: &CoiRuntime) -> Result<&ExecConn, FailureCause> {
        if let Some(conn) = self.conn.get() {
            return Ok(conn);
        }
        let domain = rt.fabric().transport(self.node).as_remote();
        let domain = domain.expect("a remote node's transport is a remote domain");
        let conn = domain
            .open_exec(self.width, self.cores)
            .map_err(|e| wire_cause(self.node, e))?;
        Ok(self.conn.get_or_init(|| conn))
    }
}

/// How the sink fails a task whose function no registry holds, on either
/// side of the wire.
fn unknown_fn(name: &str) -> FailureCause {
    FailureCause::Malformed(format!("no run function named '{name}'"))
}

fn panic_cause(p: &(dyn std::any::Any + Send)) -> FailureCause {
    if let Some(s) = p.downcast_ref::<&str>() {
        FailureCause::SinkPanic((*s).to_string())
    } else if let Some(s) = p.downcast_ref::<String>() {
        FailureCause::SinkPanic(s.clone())
    } else {
        FailureCause::SinkPanic("<non-string payload>".to_string())
    }
}

/// Run a registered function against already-resolved operands: the sink
/// core shared by the in-process pipeline above and the remote worker
/// ([`crate::server`]). `operand(i)` is operand `i`'s lock-order key (its
/// window's id), memory, byte range and writability. The range locks are
/// taken in canonical (window, offset) order, so concurrent tasks cannot
/// deadlock on shared operands, and a panicking function fails the task
/// as [`FailureCause::SinkPanic`] instead of unwinding into the caller.
pub(crate) fn execute_on<'a, K: Ord>(
    registry: &FnRegistry,
    name: &str,
    args: &'a [u8],
    n: usize,
    operand: impl Fn(usize) -> (K, &'a WindowMem, Range<usize>, bool),
    wg: &Arc<Workgroup>,
) -> Result<(), FailureCause> {
    let f = registry.lookup(name).ok_or_else(|| unknown_fn(name))?;
    let mut order: Inline<usize> = (0..n).collect();
    order.as_mut_slice().sort_by_key(|&i| {
        let (key, _, range, _) = operand(i);
        (key, range.start)
    });
    let mut guards: Inline<Option<RangeGuard<'a>>> = (0..n).map(|_| None).collect();
    for &i in order.as_slice() {
        let (_, mem, range, write) = operand(i);
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
    std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx))).map_err(|p| panic_cause(p.as_ref()))
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
        let seen = log.clone();
        rt.register(
            "log_arg",
            Arc::new(move |ctx: &mut RunCtx| seen.lock().push(ctx.args()[0])),
        );
        let pipe = rt.pipeline_create(EngineId(1), 1);
        let events: Vec<_> = (0..10u8)
            .map(|i| pipe.run("log_arg", Bytes::from(vec![i]), vec![]))
            .collect();
        CoiEvent::wait_all(&events).expect("all complete");
        assert_eq!(*log.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_function_fails_event_but_pipeline_survives() {
        let rt = rt1();
        rt.register("boom", Arc::new(|_ctx: &mut RunCtx| panic!("kaput")));
        rt.register("noop", Arc::new(|_ctx: &mut RunCtx| {}));
        let pipe = rt.pipeline_create(EngineId(1), 1);
        let ev = pipe.run("boom", Bytes::new(), vec![]);
        let err = ev.wait().expect_err("panic must fail the event");
        assert!(
            matches!(&err, FailureCause::SinkPanic(m) if m.contains("kaput")),
            "{err}"
        );
        // The pipeline still processes subsequent tasks.
        let ev2 = pipe.run("noop", Bytes::new(), vec![]);
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
                *seen2.lock() = (ctx.workgroup().width(), ctx.args().to_vec());
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
