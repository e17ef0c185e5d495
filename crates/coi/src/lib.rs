//! # hs-coi — a COI-like offload plumbing layer
//!
//! The hStreams library is "layered above other plumbing layers": the Intel
//! Coprocessor Offload Infrastructure (COI), which provides *engines*
//! (devices), *processes* (sink-side runtimes), *pipelines* (in-order command
//! queues bound to CPU masks), *run functions* (named sink-side entry
//! points) and *buffers*. This crate reproduces that layer on top of
//! [`hs_fabric`]:
//!
//! * [`CoiRuntime`] — owns the fabric and the engine table (engine 0 is
//!   the host).
//! * [`pipeline::Pipeline`] — a serial queue executing [`RunFunction`]s in
//!   arrival order on the runtime's [`WorkerPool`], with a logical *width*
//!   (the stream's mask) and the physical *lanes* [`RunCtx::par_for`]
//!   expands a task across (the hStreams stream-width semantics on the
//!   machine that exists).
//! * [`workers::WorkerPool`] — the runtime's `host_cores` worker threads,
//!   which run every in-process pipeline, DMA queue and expansion region
//!   ([`workers::SerialQueue`]).
//! * [`registry::FnRegistry`] — name → function table shared by the
//!   engines of one process, mirroring COI's symbol lookup of sink binaries
//!   (and letting the same task code run on any engine, the paper's
//!   portability point); a worker process holds its own.
//! * [`event::CoiEvent`] — completion events with wait/poll, error-carrying
//!   (a panicking run function *fails* the event instead of hanging the
//!   host).
//! * [`pool::BufferPool`] — the buffer pool (§III's "pool of 2MB buffers")
//!   whose absence the paper's overhead analysis flags as significant:
//!   per-size-class free lists, windows sized to their data.
//! * [`sync`] — the lock, condvar, atomics and threads [`workers`] is built
//!   from, which the pool's loom models swap for the model checker's.

pub mod event;
pub mod pipeline;
pub mod pool;
pub mod registry;
pub mod server;
pub mod small;
pub mod sync;
pub mod workers;
pub mod workgroup;

pub use event::{CoiEvent, Dependent, EventCore, EventHost, EventStatus};
pub use pipeline::{physical_lanes, Pipeline, PipelineHandle, RunCtx, SinkTask};
pub use pool::{BufferPool, PoolStats, PooledWindow, WindowTooLarge};
pub use registry::{FnRegistry, RunFunction};
pub use server::{
    inflight_requests, request_shutdown, serve_tcp, serve_uds, shutdown_requested, WorkerState,
};
pub use workers::{QueueHandle, SerialQueue, WorkerPool, WorkerStats, LIFO_CAP, SPIN};
pub use workgroup::Workgroup;

use hs_chaos::ChaosHub;
use hs_fabric::{Endpoint, Fabric, NodeId, Pacer, WindowId};
use std::sync::Arc;

/// Identifies an engine (device) in the COI sense. Engine 0 is the host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EngineId(pub u16);

impl EngineId {
    pub const HOST: EngineId = EngineId(0);

    pub fn node(self) -> NodeId {
        NodeId(self.0)
    }
}

/// The COI runtime: fabric + per-engine state.
pub struct CoiRuntime {
    fabric: Arc<Fabric>,
    registry: Arc<FnRegistry>,
    pools: Vec<BufferPool>,
    n_engines: usize,
    /// Cores of this machine: the `host_cores` of [`physical_lanes`] for
    /// the in-process engines' streams.
    host_cores: usize,
    /// One worker per core, spawned here: what every in-process pipeline,
    /// DMA queue and expansion region runs on.
    pool: Arc<WorkerPool>,
}

impl CoiRuntime {
    /// A runtime with the host plus `n_cards` in-process card engines. The
    /// [`Pacer`] is accepted and ignored: DMA is no longer paced, and the
    /// argument stays only while the frozen benchmark passes one.
    pub fn new(n_cards: usize, _pacer: Pacer) -> Arc<CoiRuntime> {
        Self::new_with_endpoints(n_cards, ChaosHub::default(), &[])
            .expect("no endpoint to connect: in-process construction is infallible")
    }

    /// The full constructor: the host plus `n_cards` card engines. `chaos`
    /// is the fault-injection hub wired into every DMA channel (and
    /// consulted by dispatchers above). `remotes` backs some card engines
    /// with out-of-process workers: it maps engine index (1-based; the host
    /// cannot be remote) to the worker's endpoint, and an empty slice is
    /// the all-in-process case. Connecting is synchronous — a worker that
    /// never comes up is an error here, while a worker that dies *later*
    /// surfaces as `CardLost` at first use.
    pub fn new_with_endpoints(
        n_cards: usize,
        chaos: ChaosHub,
        remotes: &[(usize, Endpoint)],
    ) -> std::io::Result<Arc<CoiRuntime>> {
        let n_engines = n_cards + 1;
        let fabric = Fabric::new_with_endpoints(n_engines, chaos, remotes)?;
        let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        Ok(Arc::new(CoiRuntime {
            fabric: Arc::new(fabric),
            registry: Arc::new(FnRegistry::new()),
            pools: (0..n_engines).map(|_| BufferPool::new()).collect(),
            n_engines,
            host_cores,
            pool: Arc::new(WorkerPool::new(host_cores, "hs-pool")),
        }))
    }

    /// The worker pool under this runtime's in-process queues and regions.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    pub fn engines(&self) -> impl Iterator<Item = EngineId> + '_ {
        (0..self.n_engines as u16).map(EngineId)
    }

    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    pub fn registry(&self) -> &Arc<FnRegistry> {
        &self.registry
    }

    /// Register a run function for every engine this process hosts; a
    /// remote card runs what its worker registered.
    pub fn register(&self, name: &str, f: RunFunction) {
        self.registry.register(name, f);
    }

    /// Create a pipeline on `engine` with `width` lanes for task expansion:
    /// the explicit-lane constructor, logical width and physical lanes both
    /// `width`. On a remote card its exec connection announces a
    /// stream spanning `width` cores of a card that size, which the worker
    /// runs on `width` lanes, up to its own cores.
    pub fn pipeline_create(self: &Arc<Self>, engine: EngineId, width: usize) -> Pipeline {
        Pipeline::spawn(self.clone(), engine, width, width, width as u32, None)
    }

    /// A stream's pipeline: logical `width` and CPU-mask bits `affinity`
    /// are the stream's (what tuners and the wire see), and `modelled_cores`
    /// are the cores of the modelled platform the machine running the
    /// stream emulates — the in-process domains for an in-process engine,
    /// the card alone for a remote one. Tasks expand across the
    /// [`physical_lanes`] of that machine: here, or in the worker, which
    /// learns `width` and `modelled_cores` from the stream's exec connection
    /// (a remote stream's pipeline runs nothing here, so it keeps one lane).
    pub fn pipeline_create_stream(
        self: &Arc<Self>,
        engine: EngineId,
        width: usize,
        modelled_cores: u32,
        affinity: Option<u128>,
    ) -> Pipeline {
        let lanes = if self.fabric.is_remote(engine.node()) {
            1
        } else {
            physical_lanes(width as u32, modelled_cores, self.host_cores)
        };
        Pipeline::spawn(self.clone(), engine, width, lanes, modelled_cores, affinity)
    }

    /// Allocate a window on `engine`, through the engine's buffer pool when
    /// `pooled` (COI's buffer pool) or directly otherwise. On a remote
    /// engine a length above the per-window cap
    /// ([`hs_fabric::proto::MAX_WINDOW`]) is refused.
    pub fn try_buffer_alloc(
        &self,
        engine: EngineId,
        len: usize,
        pooled: bool,
    ) -> Result<PooledWindow, WindowTooLarge> {
        self.pools[engine.0 as usize].alloc(&self.fabric, engine.node(), len, pooled)
    }

    /// [`CoiRuntime::try_buffer_alloc`] for lengths the caller knows to be
    /// within the cap. Panics where that one refuses.
    pub fn buffer_alloc(&self, engine: EngineId, len: usize, pooled: bool) -> PooledWindow {
        self.try_buffer_alloc(engine, len, pooled)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Return a pooled window for reuse.
    pub fn buffer_free(&self, engine: EngineId, win: PooledWindow) {
        self.pools[engine.0 as usize].free(&self.fabric, win);
    }

    /// Pool statistics for an engine (used by the §III overheads bench).
    pub fn pool_stats(&self, engine: EngineId) -> PoolStats {
        self.pools[engine.0 as usize].stats()
    }

    /// Drop an engine's free-listed pool windows. Called when the engine's
    /// worker process restarted: its window allocations are gone, so the
    /// free lists hold phantoms (see [`BufferPool::purge`]).
    pub fn pool_purge(&self, engine: EngineId) {
        self.pools[engine.0 as usize].purge(&self.fabric);
    }

    /// Synchronous DMA between windows (callers place it on their own
    /// threads; hStreams' executor runs these on per-direction DMA queues).
    pub fn dma_copy(
        &self,
        src: WindowId,
        src_off: usize,
        dst: WindowId,
        dst_off: usize,
        len: usize,
    ) -> Result<(), hs_fabric::FabricError> {
        self.fabric.dma_copy(src, src_off, dst, dst_off, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn engine_enumeration() {
        let rt = CoiRuntime::new(2, Pacer::unpaced());
        let engines: Vec<_> = rt.engines().collect();
        assert_eq!(engines.len(), 3);
        assert_eq!(engines, [EngineId(0), EngineId(1), EngineId(2)]);
    }

    #[test]
    fn run_function_executes_on_card_engine() {
        let rt = CoiRuntime::new(1, Pacer::unpaced());
        rt.register(
            "fill7",
            Arc::new(|ctx: &mut RunCtx| {
                let buf = ctx.buf_mut(0);
                buf.fill(7);
            }),
        );
        let card = EngineId(1);
        let win = rt.buffer_alloc(card, 16, true);
        let pipe = rt.pipeline_create(card, 1);
        let ev = pipe.run("fill7", Bytes::new(), vec![(win.id(), 0..16, true)]);
        ev.wait().expect("run function succeeds");
        let mem = rt.fabric().window(win.id()).expect("window exists");
        let g = mem.lock_range(0..16, false).expect("in bounds");
        assert_eq!(g.as_slice(), &[7u8; 16]);
    }

    #[test]
    fn unknown_function_fails_event() {
        let rt = CoiRuntime::new(1, Pacer::unpaced());
        let pipe = rt.pipeline_create(EngineId(1), 1);
        let ev = pipe.run("nope", Bytes::new(), vec![]);
        let err = ev.wait().expect_err("unknown function must fail");
        assert!(
            err.to_string().contains("nope"),
            "error names the function: {err}"
        );
    }

    #[test]
    fn dma_between_engines_via_runtime() {
        let rt = CoiRuntime::new(1, Pacer::unpaced());
        let h = rt.buffer_alloc(EngineId::HOST, 32, false);
        let d = rt.buffer_alloc(EngineId(1), 32, false);
        {
            let mem = rt.fabric().window(h.id()).expect("window exists");
            let mut g = mem.lock_range(0..32, true).expect("in bounds");
            g.as_mut_slice().fill(3);
        }
        rt.dma_copy(h.id(), 0, d.id(), 0, 32).expect("dma ok");
        let mem = rt.fabric().window(d.id()).expect("window exists");
        let g = mem.lock_range(0..32, false).expect("in bounds");
        assert_eq!(g.as_slice(), &[3u8; 32]);
    }
}
