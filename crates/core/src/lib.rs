//! # hstreams-core — the hStreams library
//!
//! A Rust reproduction of the heterogeneous streaming library of
//! *Heterogeneous Streaming* (Newburn et al., IPDPSW 2016). The three
//! building blocks are exactly the paper's:
//!
//! * **Domains** — units of compute + coherent memory (the host, each
//!   coprocessor card). Discoverable and enumerable with properties
//!   ([`HStreams::domains`]).
//! * **Streams** — FIFO task queues with a source endpoint (the caller) and
//!   a sink endpoint bound to a domain + CPU mask
//!   ([`HStreams::stream_create`], or the app-level
//!   [`HStreams::app_init`] even partitioning). Three action kinds are
//!   enqueued into streams: compute ([`HStreams::enqueue_compute`]), data
//!   transfer ([`HStreams::enqueue_xfer`]) and synchronization
//!   ([`HStreams::enqueue_event_wait`]). Actions may execute and complete
//!   **out of order** as long as the sequential FIFO semantic is preserved:
//!   dependences within a stream are derived from FIFO order plus
//!   memory-operand overlap, and only from explicit events across streams.
//! * **Buffers** — memory encapsulation named by [`BufferId`] + byte
//!   offset, with per-domain instantiations and tuner-controlled storage
//!   properties ([`HStreams::buffer_create`]).
//!
//! Two executors run the same semantics: [`ExecMode::Threads`] executes
//! tasks for real (sink pipelines and DMA queues over a COI/SCIF-like
//! substrate, run by one worker pool), and [`ExecMode::Sim`] replays the
//! schedule in virtual time with the calibrated cost model of
//! [`hs_machine`] — the mode used to regenerate the paper's figures.
//!
//! ## Concurrent source endpoints
//!
//! `HStreams` is a cloneable `Send + Sync` handle: every API takes `&self`,
//! so N source threads can enqueue into (their own, or shared) streams
//! concurrently. Per-stream dependence state sits behind fine-grained
//! per-stream locks; the global event table is append-only and segmented
//! (no reallocation under readers); card-loss degradation is the one
//! stop-the-world operation. See DESIGN.md §13 for the locking map.
//!
//! ```
//! use hstreams_core::{Access, CostHint, ExecMode, HStreams, Operand};
//! use hs_machine::{Device, PlatformCfg};
//! use std::sync::Arc;
//!
//! // A host + one (simulated) coprocessor card.
//! let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
//! hs.register("double", Arc::new(|ctx: &mut hstreams_core::TaskCtx| {
//!     for x in ctx.buf_f64_mut(0) { *x *= 2.0; }
//! }));
//! let card = hs.domains()[1].id;
//! let s = hs.stream_create(card, hstreams_core::CpuMask::first(4)).unwrap();
//! let buf = hs.buffer_create(8 * 4, Default::default());
//! hs.buffer_instantiate(buf, card).unwrap();
//! hs.buffer_write_f64(buf, 0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
//! hs.xfer_to_sink(s, buf, 0..32).unwrap();
//! hs.enqueue_compute(s, "double", bytes::Bytes::new(),
//!     &[Operand::f64s(buf, 0, 4, Access::InOut)], CostHint::trivial()).unwrap();
//! hs.xfer_to_source(s, buf, 0..32).unwrap();
//! hs.stream_synchronize(s).unwrap();
//! let mut out = [0.0; 4];
//! hs.buffer_read_f64(buf, 0, &mut out).unwrap();
//! assert_eq!(out, [2.0, 4.0, 6.0, 8.0]);
//! ```

mod buffer;
mod cpumask;
pub mod deps;
mod durable;
mod enqueue;
/// Segmented event table. Private in normal builds; public under
/// `--cfg loom` so the model suite (`tests/loom_frontend.rs`) can drive
/// the publish/compact protocol directly.
#[cfg(not(loom))]
mod events;
#[cfg(loom)]
pub mod events;
pub mod exec;
pub mod lockorder;
pub mod record;
mod replay;
mod stats;
pub mod stream;
pub mod sync;
#[doc(hidden)]
pub mod testing;
pub mod types;

pub use buffer::{BufProps, Instantiation};
pub use cpumask::CpuMask;
pub use durable::RecoveryReport;
pub use enqueue::{ActionOpts, BatchAction};
pub use record::{ActionRecord, ActionTrace};
pub use stream::ActionKind;
pub use types::{
    Access, BufferId, CostHint, DomainId, Event, HsError, HsResult, Operand, OrderingMode, StreamId,
};

/// Fault-injection surface (re-exported from `hs-chaos`): install a
/// [`FaultPlan`] with [`HStreams::chaos_install`] (which hands back the
/// [`ChaosHub`] for its injected-fault log), tune per-action
/// [`RetryPolicy`]s via [`ActionOpts`], and inspect structured
/// [`FailureCause`]s from [`HsError::ActionFailed`].
pub use hs_chaos::{ChaosHub, FailureCause, FaultKind, FaultPlan, FaultSite, RetryPolicy, Trigger};
pub use hs_fabric::Endpoint;

/// Task execution context (re-exported from the COI layer): operand views,
/// argument bytes, stream width and `par_for`.
pub use hs_coi::RunCtx as TaskCtx;
/// A sink-side task function.
pub use hs_coi::RunFunction as TaskFn;

use buffer::BufferTable;
use bytes::Bytes;
use deps::{Footprint, FootprintItem};
use events::{EventTable, EventView};
use exec::Executor;
use hs_coi::EngineId;
use hs_machine::{Device, DomainRole, PlatformCfg};
use hs_obs::{MetricsSnapshot, ObsHub, ObsRecord};
use stats::{ApiStats, ShardedU64};
use std::ops::Range;
use stream::{DepList, StreamState};
use sync::{class, Arc, AtomicBool, AtomicU64, ClassedMutex, ClassedRwLock, Ordering};

/// What an enqueued action was, in source terms — enough to re-enqueue it
/// during card-loss degradation or after a crash. Decoded from the action's
/// log record: into the replay mirror while a card can be lost, and by
/// `recover` from the WAL.
#[derive(Clone)]
enum LoggedOp {
    Compute {
        func: String,
        args: Bytes,
        operands: Vec<Operand>,
        cost: CostHint,
    },
    Xfer {
        buf: BufferId,
        range: Range<usize>,
        from: DomainId,
        to: DomainId,
    },
    /// Event waits and markers: pure synchronization, replayed as a noop
    /// over the (possibly replayed) dependence events.
    Sync,
}

/// One recovery-log entry: the op and its enqueue-time dependences. The
/// card-loss replay set is decided from the op's operands ([`replay`]).
#[derive(Clone)]
struct LoggedAction {
    ev: u64,
    stream: StreamId,
    op: LoggedOp,
    deps: Vec<u64>,
    retry: RetryPolicy,
}

/// How the runtime executes actions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Real threads; a transfer takes its `memcpy` or wire time
    /// (functional testing, examples).
    Threads,
    /// Virtual time with the calibrated cost model (figure regeneration).
    Sim,
}

/// Discoverable properties of a domain (paper §II: "Each domain has a set of
/// properties that include the number, kind and speed of hardware threads,
/// and the amount of each kind of memory").
#[derive(Clone, Debug)]
pub struct DomainInfo {
    pub id: DomainId,
    pub device: Device,
    pub role: DomainRole,
    pub cores: u32,
    pub threads: u32,
    pub ram_bytes: u64,
    /// A card lost and degraded to the host (its streams run there), until
    /// [`HStreams::readmit_remote`] brings it back.
    pub degraded: bool,
}

/// Enqueues between amortized event-table / recovery-log compactions.
const COMPACT_EVERY: u64 = 1024;

/// A stream's dependence window behind its own lock.
type StreamLock = ClassedMutex<class::Stream, StreamState>;

/// Shared runtime state behind the [`HStreams`] handle.
///
/// Lock order (outer → inner; never acquire leftward while holding
/// rightward): `world` → `streams` (vec) → per-stream mutex → `buffers` →
/// `recovery` → event-table slot → sim executor. Each lock's
/// class is in its type, which is what witnesses its acquisitions
/// ([`lockorder`]).
pub(crate) struct Inner {
    platform: PlatformCfg,
    mode: ExecMode,
    ordering: OrderingMode,
    /// The stop-the-world lock: enqueues and stream creation hold it
    /// shared; card-loss degradation holds it exclusively while it
    /// quiesces, remaps and replays.
    world: ClassedRwLock<class::World, ()>,
    /// Dense stream table; each stream's dependence window has its own
    /// fine-grained lock so distinct streams enqueue fully concurrently.
    streams: ClassedRwLock<class::Streams, Vec<Arc<StreamLock>>>,
    buffers: ClassedRwLock<class::Buffers, BufferTable>,
    /// Append-only segmented event table (see [`events`]).
    events: EventTable,
    exec: Executor,
    stats: ApiStats,
    /// Sim-mode host shadows for `buffer_write_f64`/`buffer_read_f64`.
    sim_shadow: ClassedMutex<class::SimShadow, std::collections::HashMap<BufferId, Vec<u8>>>,
    /// Action-lifecycle observability hub, shared with both executors and
    /// the COI layer — and what `hsan` reads ([`record`]). Disabled
    /// (near-zero cost) until [`HStreams::obs_enable`].
    obs: ObsHub,
    /// Fault-injection hub, shared with the executors and every fabric DMA
    /// channel. Disarmed (one relaxed atomic load per site) until
    /// [`HStreams::chaos_install`].
    chaos: ChaosHub,
    /// The action log: every enqueued action's record goes to the WAL
    /// while durability is on, and into the in-memory replay mirror while
    /// a card can be lost (card-loss degradation replays the affected
    /// subset).
    recovery: ClassedMutex<class::Recovery, durable::RecoveryLog>,
    /// Can a card be lost? True from init when any domain is remote (its
    /// worker is a process that can die) and from the first
    /// [`HStreams::chaos_install`] on (a plan can kill an in-process
    /// card). While it holds, enqueues keep the replay mirror and a
    /// `CardLost` degrades its card; an all-in-process runtime with no
    /// plan keeps neither. Never cleared.
    can_lose_card: AtomicBool,
    /// Durable logging enabled? Checked (one relaxed load) on every
    /// enqueue and wait entry, so an in-memory run never takes the
    /// `recovery` lock to flush; set once by [`HStreams::durability_opts`]
    /// *after* the log got its writer, so an enqueue that observes `true`
    /// always finds the writer behind the `recovery` lock.
    durable: AtomicBool,
    /// Cards already degraded (each card degrades at most once).
    degraded: ClassedMutex<class::Degraded, Vec<u32>>,
    /// Degradation generation: bumped once per completed degradation. Wait
    /// loops snapshot it before waiting; a failed wait whose snapshot is
    /// stale re-waits instead of racing a concurrent degradation.
    degrade_gen: AtomicU64,
    /// Event-table length at which the next amortized compaction is due.
    /// Driven off the table's id counter so the per-action check is two
    /// loads and no RMW of its own (one thread's CAS here claims the whole
    /// compaction).
    compact_due: AtomicU64,
    /// Times an enqueue found its stream's lock held (multi-source
    /// contention probe; surfaced as `frontend.stream_lock.contended`).
    /// Thread-striped: losing the race to a lock must not also mean
    /// bouncing a shared counter line.
    contended: ShardedU64,
    /// Stale location-index entries skipped during dependence derivation
    /// (surfaced as `deps.redundant`).
    redundant: ShardedU64,
}

/// The hStreams runtime handle (one source endpoint).
///
/// Cloning is cheap (an `Arc` bump) and every method takes `&self`: hand a
/// clone to each source thread and enqueue concurrently. Dropping the last
/// clone shuts the executor down.
#[derive(Clone)]
pub struct HStreams {
    inner: Arc<Inner>,
}

// The entire point of the handle: it crosses threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync + Clone>() {}
    assert_send_sync::<HStreams>();
};

impl HStreams {
    /// Initialize the runtime for a platform (out-of-order hStreams
    /// semantics).
    pub fn init(platform: PlatformCfg, mode: ExecMode) -> HStreams {
        Self::init_with_ordering(platform, mode, OrderingMode::OutOfOrder)
    }

    /// Initialize with an explicit intra-stream ordering mode.
    /// [`OrderingMode::StrictFifo`] reproduces CUDA-Streams-like semantics
    /// for the paper's comparisons.
    pub fn init_with_ordering(
        platform: PlatformCfg,
        mode: ExecMode,
        ordering: OrderingMode,
    ) -> HStreams {
        Self::init_full(platform, mode, ordering, &[])
            .expect("in-process runtime construction is infallible")
    }

    /// Initialize with some card domains hosted by out-of-process workers
    /// (`hs-worker` processes reached over Unix/TCP sockets). `remotes`
    /// maps card domain index (1-based; domain 0, the host, cannot be
    /// remote) to the worker's endpoint; an index that is not a card of
    /// `platform`, or one named twice, is [`HsError::InvalidArg`], checked
    /// before anything connects. Only thread-backed modes can talk
    /// to a wire; [`ExecMode::Sim`] returns [`HsError::InvalidArg`].
    /// Connection failures surface as [`HsError::ExecFailed`]. A worker
    /// that dies *after* init surfaces as `CardLost` at the first wait
    /// that observes it, which degrades the card: its streams move to the
    /// host and the affected actions replay there from the in-memory
    /// mirror, which a runtime with a remote domain keeps from its first
    /// enqueue. No fault plan is needed.
    pub fn init_remote(
        platform: PlatformCfg,
        mode: ExecMode,
        remotes: &[(usize, Endpoint)],
    ) -> HsResult<HStreams> {
        if matches!(mode, ExecMode::Sim) {
            return Err(HsError::InvalidArg(
                "remote domains require a thread-backed exec mode".to_string(),
            ));
        }
        for (i, (idx, _)) in remotes.iter().enumerate() {
            if !platform.cards().any(|(card, _)| card == *idx) {
                return Err(HsError::InvalidArg(format!(
                    "remote domain {idx} is not a card of {}",
                    platform.name
                )));
            }
            if remotes[..i].iter().any(|(earlier, _)| earlier == idx) {
                return Err(HsError::InvalidArg(format!(
                    "remote domain {idx} is named twice"
                )));
            }
        }
        Self::init_full(platform, mode, OrderingMode::OutOfOrder, remotes)
    }

    fn init_full(
        platform: PlatformCfg,
        mode: ExecMode,
        ordering: OrderingMode,
        remotes: &[(usize, Endpoint)],
    ) -> HsResult<HStreams> {
        let obs = ObsHub::new();
        let chaos = ChaosHub::new();
        let exec = Executor::connect(&platform, mode, chaos.clone(), remotes)
            .map_err(|e| HsError::ExecFailed(format!("connecting remote domains: {e}")))?;
        Ok(HStreams {
            inner: Arc::new(Inner {
                platform,
                mode,
                ordering,
                world: ClassedRwLock::new(()),
                streams: ClassedRwLock::new(Vec::new()),
                buffers: ClassedRwLock::new(BufferTable::new()),
                events: EventTable::new(),
                exec,
                stats: ApiStats::default(),
                sim_shadow: ClassedMutex::new(std::collections::HashMap::new()),
                obs,
                chaos,
                recovery: ClassedMutex::new(durable::RecoveryLog::default()),
                can_lose_card: AtomicBool::new(!remotes.is_empty()),
                durable: AtomicBool::new(false),
                degraded: ClassedMutex::new(Vec::new()),
                degrade_gen: AtomicU64::new(0),
                compact_due: AtomicU64::new(COMPACT_EVERY),
                contended: ShardedU64::new(),
                redundant: ShardedU64::new(),
            }),
        })
    }

    // ------------------------------------------------------ fault injection

    /// Arm a deterministic fault-injection plan: its sites are consulted at
    /// every DMA channel and compute dispatch, and its retry policy becomes
    /// the default budget for the transients it injects. A `CardDead`
    /// fault is a lost card like any other: the next wait that observes it
    /// degrades the card. Re-arming replaces the plan and resets its site
    /// ordinals; the replay mirror and the dead cards stay. Returns the hub
    /// (a shared handle) for inspecting the injected-fault log and the dead
    /// cards.
    ///
    /// A plan can kill an in-process card, and a lost card replays its work
    /// from the replay mirror. A runtime whose cards are all in-process
    /// keeps that mirror from its first plan on, so that plan is refused
    /// (`InvalidArg`) once an action has been enqueued: work the mirror
    /// never saw could not be replayed.
    pub fn chaos_install(&self, plan: FaultPlan) -> HsResult<ChaosHub> {
        if !self.can_lose_card() && self.inner.events.len() != 0 {
            return Err(HsError::InvalidArg(
                "the first fault plan must be armed before any action is enqueued".into(),
            ));
        }
        self.inner.can_lose_card.store(true, Ordering::Relaxed);
        self.inner.chaos.arm(plan);
        Ok(self.inner.chaos.clone())
    }

    /// Should enqueues encode their log records? While a card can be lost
    /// (card-loss replay needs the mirror) or durability is on (the WAL
    /// needs the records).
    fn log_actions(&self) -> bool {
        self.can_lose_card() || self.inner.durable.load(Ordering::Relaxed)
    }

    fn can_lose_card(&self) -> bool {
        self.inner.can_lose_card.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------ discovery

    /// Enumerate domains and their properties.
    pub fn domains(&self) -> Vec<DomainInfo> {
        let degraded = self.inner.degraded.lock();
        self.inner
            .platform
            .domains
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let spec = d.device.spec();
                DomainInfo {
                    id: DomainId(i),
                    device: d.device,
                    role: d.role,
                    cores: d.cores,
                    threads: d.cores * spec.threads_per_core,
                    ram_bytes: spec.ram_bytes(),
                    degraded: degraded.contains(&(i as u32)),
                }
            })
            .collect()
    }

    pub fn platform(&self) -> &PlatformCfg {
        &self.inner.platform
    }

    pub(crate) fn ordering(&self) -> OrderingMode {
        self.inner.ordering
    }

    /// The executor this runtime was initialized with.
    pub fn mode(&self) -> ExecMode {
        self.inner.mode
    }

    // ----------------------------------------------------------- core APIs

    /// Create a stream whose sink is bound to `mask` within `domain`
    /// (core-API level: explicit mask per stream).
    pub fn stream_create(&self, domain: DomainId, mask: CpuMask) -> HsResult<StreamId> {
        self.inner.stats.bump("stream_create");
        if domain.0 >= self.inner.platform.domains.len() {
            return Err(HsError::UnknownDomain(domain));
        }
        if mask.is_empty() {
            return Err(HsError::InvalidArg("stream mask is empty".into()));
        }
        let _world = self.inner.world.read();
        // Id assignment, executor registration and table insertion are one
        // critical section: concurrent creators get dense, matching indices.
        let mut streams = self.inner.streams.write();
        let id = StreamId(streams.len() as u32);
        self.inner.exec.add_stream(domain.0, mask);
        streams.push(Arc::new(StreamLock::new(StreamState::new(
            id, domain, mask,
        ))));
        Ok(id)
    }

    /// App-API convenience: for each `(domain, n)` divide the domain's cores
    /// evenly among `n` streams. Returns all created stream ids, in argument
    /// order. Every pair is checked before any stream is created: an
    /// unknown domain, or an `n` of zero or above the domain's cores, fails
    /// the call with nothing created.
    pub fn app_init(&self, streams_per_domain: &[(DomainId, usize)]) -> HsResult<Vec<StreamId>> {
        self.inner.stats.bump("app_init");
        let mut masks = Vec::new();
        for &(domain, n) in streams_per_domain {
            let cores = self
                .inner
                .platform
                .domains
                .get(domain.0)
                .ok_or(HsError::UnknownDomain(domain))?
                .cores;
            if n == 0 || n > cores as usize {
                return Err(HsError::InvalidArg(format!(
                    "app_init: {n} streams on the {cores} cores of domain {domain:?}"
                )));
            }
            for mask in CpuMask::partition_evenly(cores, n) {
                masks.push((domain, mask));
            }
        }
        masks
            .into_iter()
            .map(|(domain, mask)| self.stream_create(domain, mask))
            .collect()
    }

    fn stream_arc(&self, s: StreamId) -> HsResult<Arc<StreamLock>> {
        let streams = self.inner.streams.read();
        streams
            .get(s.0 as usize)
            .cloned()
            .ok_or(HsError::UnknownStream(s))
    }

    /// The domain a stream's sink lives in.
    pub fn stream_domain(&self, s: StreamId) -> HsResult<DomainId> {
        let domain = self.stream_arc(s)?.lock().domain;
        Ok(domain)
    }

    pub(crate) fn num_streams(&self) -> usize {
        self.inner.streams.read().len()
    }

    // -------------------------------------------------------------- buffers

    /// Create a buffer of `len` bytes. The host instantiation is created
    /// eagerly (the host holds the source copy of every buffer); card
    /// instantiations require explicit [`HStreams::buffer_instantiate`].
    pub fn buffer_create(&self, len: usize, props: BufProps) -> BufferId {
        self.inner.stats.bump("buffer_create");
        let id = self.inner.buffers.write().create(len, props);
        self.instantiate_unchecked(id, DomainId::HOST)
            .expect("fresh buffer instantiates on host");
        id
    }

    /// Materialize the buffer in `domain` (required before transfers or
    /// computes touch it there — the paper leaves placement to the tuner).
    pub fn buffer_instantiate(&self, buf: BufferId, domain: DomainId) -> HsResult<()> {
        self.inner.stats.bump("buffer_instantiate");
        if domain.0 >= self.inner.platform.domains.len() {
            return Err(HsError::UnknownDomain(domain));
        }
        self.instantiate_unchecked(buf, domain)
    }

    fn instantiate_unchecked(&self, buf: BufferId, domain: DomainId) -> HsResult<()> {
        let pooled = self.inner.platform.coi_buffer_pool;
        let len = {
            let buffers = self.inner.buffers.read();
            let rec = buffers.get(buf)?;
            if rec.is_instantiated(domain) {
                return Ok(());
            }
            rec.len
        };
        // The (possibly slow) allocation runs outside the table lock; the
        // insert re-checks under the write lock and frees the surplus window
        // if another thread instantiated the same (buffer, domain) meanwhile.
        let inst = match self.inner.exec.coi() {
            Some(coi) => {
                let w = coi
                    .try_buffer_alloc(EngineId(domain.0 as u16), len.max(8), pooled)
                    .map_err(|e| HsError::InvalidArg(format!("instantiate {buf:?}: {e}")))?;
                Instantiation::Window(w)
            }
            None => {
                // The paper: MIC-side allocation is synchronous (its
                // asynchrony is "future work"), so it charges the source.
                self.inner
                    .exec
                    .charge_source(self.inner.platform.cost_model().alloc_dur(pooled));
                Instantiation::Virtual
            }
        };
        let surplus = {
            let mut buffers = self.inner.buffers.write();
            match buffers.get_mut(buf) {
                Ok(rec) if rec.is_instantiated(domain) => Some(inst),
                Ok(rec) => {
                    rec.inst.insert(domain, inst);
                    None
                }
                Err(e) => {
                    // Destroyed while we allocated: release and report.
                    if let (Instantiation::Window(w), Some(coi)) = (inst, self.inner.exec.coi()) {
                        coi.buffer_free(EngineId(domain.0 as u16), w);
                    }
                    return Err(e);
                }
            }
        };
        if let (Some(Instantiation::Window(w)), Some(coi)) = (surplus, self.inner.exec.coi()) {
            coi.buffer_free(EngineId(domain.0 as u16), w);
        }
        Ok(())
    }

    /// Destroy a buffer, returning its windows to the COI pool.
    pub fn buffer_destroy(&self, buf: BufferId) -> HsResult<()> {
        self.inner.stats.bump("buffer_destroy");
        let len = self.buffer_len(buf)?;
        // Wait for any action still touching the buffer.
        let deps = self.conflicting_events(buf, 0..len, true);
        self.wait_events_recovering(&deps)?;
        let insts = self.inner.buffers.write().destroy(buf)?;
        if let Some(coi) = self.inner.exec.coi() {
            for (domain, inst) in insts {
                if let Instantiation::Window(w) = inst {
                    coi.buffer_free(EngineId(domain.0 as u16), w);
                }
            }
        }
        self.inner.sim_shadow.lock().remove(&buf);
        Ok(())
    }

    pub(crate) fn buffer_len(&self, buf: BufferId) -> HsResult<usize> {
        self.inner.buffers.read().get(buf).map(|r| r.len)
    }

    /// Synchronously write `data` into the buffer's **host** instantiation
    /// at element `offset` (little-endian). Waits for conflicting in-flight
    /// actions first (source↔stream dependences are explicit in hStreams;
    /// this API is the explicit-sync entry point).
    pub fn buffer_write_f64(&self, buf: BufferId, offset: usize, data: &[f64]) -> HsResult<()> {
        self.host_write_with(buf, offset * 8..(offset + data.len()) * 8, |dst| {
            for (b, x) in dst.chunks_exact_mut(8).zip(data) {
                b.copy_from_slice(&x.to_le_bytes());
            }
        })
    }

    /// Synchronously read from the buffer's **host** instantiation at
    /// element `offset`, waiting for conflicting in-flight actions first.
    pub fn buffer_read_f64(&self, buf: BufferId, offset: usize, out: &mut [f64]) -> HsResult<()> {
        self.host_read_with(buf, offset * 8..(offset + out.len()) * 8, |src| {
            for (x, b) in out.iter_mut().zip(src.chunks_exact(8)) {
                *x = f64::from_le_bytes(b.try_into().expect("chunk of 8"));
            }
        })
    }

    /// Wait for in-flight actions that touch `range` of `buf`, then let
    /// `fill` write the range's bytes in the host instantiation: the locked
    /// window range in thread mode, the shadow in sim mode.
    fn host_write_with(
        &self,
        buf: BufferId,
        range: Range<usize>,
        fill: impl FnOnce(&mut [u8]),
    ) -> HsResult<()> {
        self.inner.stats.bump("buffer_write");
        self.inner.buffers.read().get(buf)?.check_range(&range)?;
        let deps = self.conflicting_events(buf, range.clone(), true);
        self.wait_events_recovering(&deps)?;
        match self.inner.exec.coi() {
            Some(coi) => {
                let buffers = self.inner.buffers.read();
                let rec = buffers.get(buf)?;
                let win = rec.window(DomainId::HOST)?;
                let mem = coi
                    .fabric()
                    .window(win.id())
                    .ok_or_else(|| HsError::ExecFailed("host window vanished".into()))?;
                let mut g = mem
                    .lock_range(range, true)
                    .map_err(|e| HsError::ExecFailed(e.to_string()))?;
                fill(g.as_mut_slice());
            }
            None => {
                let len = self.buffer_len(buf)?;
                let mut shadow = self.inner.sim_shadow.lock();
                let bytes = shadow.entry(buf).or_insert_with(|| vec![0; len]);
                fill(&mut bytes[range]);
            }
        }
        Ok(())
    }

    /// The reading counterpart of [`Self::host_write_with`]; a sim-mode
    /// buffer nothing was written to reads as zeros.
    fn host_read_with(
        &self,
        buf: BufferId,
        range: Range<usize>,
        take: impl FnOnce(&[u8]),
    ) -> HsResult<()> {
        self.inner.stats.bump("buffer_read");
        self.inner.buffers.read().get(buf)?.check_range(&range)?;
        let deps = self.conflicting_events(buf, range.clone(), false);
        self.wait_events_recovering(&deps)?;
        match self.inner.exec.coi() {
            Some(coi) => {
                let buffers = self.inner.buffers.read();
                let rec = buffers.get(buf)?;
                let win = rec.window(DomainId::HOST)?;
                let mem = coi
                    .fabric()
                    .window(win.id())
                    .ok_or_else(|| HsError::ExecFailed("host window vanished".into()))?;
                let g = mem
                    .lock_range(range, false)
                    .map_err(|e| HsError::ExecFailed(e.to_string()))?;
                take(g.as_slice());
            }
            None => match self.inner.sim_shadow.lock().get(&buf) {
                Some(shadow) => take(&shadow[range]),
                None => take(&vec![0; range.len()]),
            },
        }
        Ok(())
    }

    // ------------------------------------------------------------ registry

    /// Register a sink-side task function for the domains this process
    /// hosts: the host and the in-process cards. A remote card's worker
    /// runs what its own registry holds (`hs-worker` registers the apps'
    /// kernel table); a name it lacks fails the task as an unregistered
    /// name fails it here.
    pub fn register(&self, name: &str, f: TaskFn) {
        self.inner.stats.bump("register");
        if let Some(coi) = self.inner.exec.coi() {
            coi.register(name, f);
        }
        // Sim mode: tasks never run; names need no resolution.
    }

    /// Has this event's action completed **successfully**? This is the
    /// dependence-window retirement predicate: failed actions never retire,
    /// so later overlapping enqueues still inherit the poison. Tombstoned
    /// entries completed successfully by construction.
    fn event_retired_ok(&self, e: Event) -> bool {
        // Probe under the slot lock — no payload clone; the event answers
        // lock-free in both modes.
        self.inner.events.retired_ok(e, |ev| ev.completed_ok())
    }

    /// Source-side "now" in nanoseconds (wall in thread mode, virtual in
    /// sim mode) for obs timestamps.
    fn source_now_ns(&self) -> u64 {
        self.inner
            .exec
            .source_ns()
            .unwrap_or_else(|| self.inner.obs.wall_ns())
    }

    /// Events of pending actions conflicting with a source-side access of
    /// `buf[range]` (`write` = source intends to write).
    fn conflicting_events(&self, buf: BufferId, range: Range<usize>, write: bool) -> Vec<Event> {
        // The source access conflicts with an action touching this buffer in
        // any domain (a transfer still in flight, a compute on a card copy
        // the user will overwrite next, ...). Conservative and simple.
        let probe: Footprint = (0..self.inner.platform.domains.len())
            .map(|d| FootprintItem::new(DomainId(d), buf, range.clone(), write))
            .collect();
        let mut deps = Vec::new();
        let streams = self.inner.streams.read();
        let mut tmp = DepList::new();
        for st in streams.iter() {
            tmp.clear();
            let red = st
                .lock()
                .find_deps(&probe, false, OrderingMode::OutOfOrder, &mut tmp);
            if red != 0 {
                self.inner.redundant.add(red);
            }
            deps.extend_from_slice(tmp.as_slice());
        }
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    // ------------------------------------------------------- compaction

    /// Amortized bounded-memory sweep, run outside the enqueue locks.
    ///
    /// Cadence is observed through the event table's id counter rather
    /// than a dedicated per-enqueue counter: the common case is two loads
    /// and no RMW per action, and the CAS — attempted only once per
    /// [`COMPACT_EVERY`] ids — elects a single compacting thread.
    fn maybe_compact(&self) {
        let inner = &*self.inner;
        let minted = inner.events.len();
        let due = inner.compact_due.load(Ordering::Relaxed);
        if minted < due {
            return;
        }
        if inner
            .compact_due
            .compare_exchange(
                due,
                minted + COMPACT_EVERY,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            self.compact_now();
        }
    }

    /// Tombstone completed-successful events in the global table (their
    /// backend handles drop; late waiters still resolve them as successes)
    /// and, while a card can be lost, prune replay-mirror entries that can
    /// never be replayed. Runs automatically every `COMPACT_EVERY` enqueues;
    /// [`testing::compact_now`] forces a sweep at a point a test picks.
    pub(crate) fn compact_now(&self) {
        let inner = &*self.inner;
        let _world = inner.world.read();
        inner
            .events
            .compact(|ev| ev.is_complete().then(|| ev.completed_ok()));
        if self.can_lose_card() {
            // A replay-mirror entry is dead weight once no card loss
            // can make the replay need it (`replay::live`): it completed
            // successfully and either touched the host only — host memory
            // survives — or left a result on a card that has since come
            // home or been overwritten there. Failed or pending actions
            // always stay. This prunes the mirror only — on-disk WAL records
            // are pruned solely by watermark retirement at a checkpoint.
            let card_of_stream: Vec<Option<DomainId>> = {
                let streams = inner.streams.read();
                streams
                    .iter()
                    .map(|st| Some(st.lock().domain).filter(|d| !d.is_host()))
                    .collect()
            };
            let mut log = inner.recovery.lock();
            let ok: Vec<bool> = log
                .entries()
                .iter()
                .map(|la| match inner.events.view_id(la.ev) {
                    EventView::Retired => true,
                    EventView::Live(ev) => ev.completed_ok(),
                    EventView::Missing => false,
                })
                .collect();
            let mut keep = replay::live(log.entries(), &ok, |la| {
                card_of_stream.get(la.stream.0 as usize).copied().flatten()
            })
            .into_iter();
            log.retain(|_| keep.next().unwrap_or(true));
        }
        // Durable runs: buffered appends reach the page cache on the same
        // cadence, and a fully-quiescent table is the chance to checkpoint
        // buffer state and retire WAL segments below the watermark.
        self.wal_flush();
        self.wal_maybe_checkpoint(false);
    }

    // ----------------------------------------------------------- durability

    /// Is durability on? Lock-free: an in-memory run's waits never take
    /// the `recovery` lock.
    fn durable(&self) -> bool {
        self.inner.durable.load(Ordering::Acquire)
    }

    /// Push buffered WAL appends to the kernel page cache. Runs at every
    /// wait entry: everything an application could have observed complete
    /// is on disk before the wait returns. No-op when durability is off.
    fn wal_flush(&self) {
        if self.durable() {
            self.inner.recovery.lock().flush();
        }
    }

    /// At a quiesce point — every reserved event retired — snapshot all
    /// buffer instantiations into a checkpoint blob and retire WAL segments
    /// below the watermark. `force` skips the appended-bytes throttle (test
    /// hook); the quiesce requirement always holds, since a snapshot taken
    /// against in-flight writers would tear.
    fn wal_maybe_checkpoint(&self, force: bool) {
        if !self.durable() || !(force || self.inner.recovery.lock().wants_checkpoint()) {
            return;
        }
        let table = self.inner.events.stats();
        if table.watermark != table.reserved {
            return;
        }
        // Gathered with the `recovery` lock released: `buffers` ranks
        // before it.
        let bufs = self.wal_snapshot_buffers();
        // Enqueues on other source threads were not stopped (they hold the
        // world lock shared, as this sweep does): one that reserved an id
        // while the buffers were copied may have run into the snapshot, and
        // its record is at or above the watermark, so recovery would apply
        // it twice. Any such action has moved the id counter; skip, and let
        // a later quiesce point checkpoint. (An action reserved after this
        // re-read ran after its buffers were copied, so the blob lacks it
        // and the replay supplies it.)
        if self.inner.events.len() != table.reserved {
            return;
        }
        self.inner
            .recovery
            .lock()
            .checkpoint(table.watermark, &bufs);
    }

    /// Gather every buffer instantiation's bytes for a checkpoint. Card
    /// windows are included, not just host ones: post-checkpoint actions
    /// may read card-resident data produced before it, and the checkpoint
    /// replaces the retired log records that produced that data. Called at
    /// a quiesce point (no in-flight action holds any window range).
    fn wal_snapshot_buffers(&self) -> Vec<(u64, u32, Vec<u8>)> {
        let mut out = Vec::new();
        match self.inner.exec.coi() {
            Some(coi) => {
                let buffers = self.inner.buffers.read();
                for rec in buffers.iter() {
                    for (domain, inst) in &rec.inst {
                        let Instantiation::Window(w) = inst else {
                            continue;
                        };
                        let Some(mem) = coi.fabric().window(w.id()) else {
                            continue;
                        };
                        let Ok(g) = mem.lock_range(0..rec.len, false) else {
                            continue;
                        };
                        out.push((rec.id.0, domain.0 as u32, g.as_slice().to_vec()));
                    }
                }
            }
            None => {
                // Sim mode: bytes only exist in the host shadow map.
                for (buf, bytes) in self.inner.sim_shadow.lock().iter() {
                    out.push((buf.0, 0, bytes.clone()));
                }
            }
        }
        out
    }

    /// Write a checkpoint's buffer bytes back into the live instantiations
    /// (thread mode) or the host shadow map (sim mode). Mismatches — a
    /// buffer or instantiation the restarted application did not recreate —
    /// are skipped with a line in `remarks`, never fatal.
    fn wal_overlay_checkpoint(&self, bufs: &[(u64, u32, Vec<u8>)], remarks: &mut Vec<String>) {
        for (id, domain, bytes) in bufs {
            let buf = BufferId(*id);
            let dom = DomainId(*domain as usize);
            match self.inner.exec.coi() {
                Some(coi) => {
                    let buffers = self.inner.buffers.read();
                    let mem = buffers
                        .get(buf)
                        .ok()
                        .filter(|rec| rec.len == bytes.len())
                        .and_then(|rec| rec.window(dom).ok())
                        .and_then(|w| coi.fabric().window(w.id()));
                    let ok = match &mem {
                        Some(mem) => match mem.lock_range(0..bytes.len(), true) {
                            Ok(mut g) => {
                                g.as_mut_slice().copy_from_slice(bytes);
                                true
                            }
                            Err(_) => false,
                        },
                        None => false,
                    };
                    if !ok {
                        remarks.push(format!(
                            "recover: checkpoint overlay skipped buf {id} domain {domain} \
                             (not recreated or size mismatch)"
                        ));
                    }
                }
                None => {
                    if dom.is_host() {
                        self.inner.sim_shadow.lock().insert(buf, bytes.clone());
                    }
                }
            }
        }
    }

    /// Force a WAL flush and, if the runtime is quiescent, a checkpoint +
    /// segment retirement — the same work `compact_now` performs on its
    /// amortized cadence, without the appended-bytes throttle. No-op when
    /// durability is off. Compacts first: the quiesce requirement
    /// (`watermark == reserved`) only holds once the retirement watermark
    /// sweeps forward. Reached from tests through [`testing::wal_checkpoint`].
    pub(crate) fn wal_checkpoint(&self) {
        self.compact_now();
        self.wal_maybe_checkpoint(true);
    }

    /// WAL statistics (None when durability is off).
    pub fn wal_stats(&self) -> Option<hs_wal::WalStats> {
        self.inner.recovery.lock().stats()
    }

    // ---------------------------------------------------------------- waits

    /// Wait for one event, running card-loss degradation (and re-waiting on
    /// the replayed action) when the failure's root cause is a lost card.
    fn wait_event_recovering(&self, ev: Event) -> HsResult<()> {
        loop {
            // Snapshot the degradation generation *before* inspecting the
            // event: a degradation completing between our failed wait and
            // our recovery attempt is detected as a stale snapshot.
            let gen = self.inner.degrade_gen.load(Ordering::Acquire);
            match self.inner.events.view(ev) {
                EventView::Missing => {
                    if ev.0 < self.inner.events.len() {
                        // Reserved, publish in flight on another thread.
                        std::thread::yield_now();
                        continue;
                    }
                    return Err(HsError::UnknownEvent(ev));
                }
                // Tombstoned: completed successfully and compacted.
                EventView::Retired => return Ok(()),
                EventView::Live(be) => match self.inner.exec.wait(&be) {
                    Ok(()) => return Ok(()),
                    Err(c) => {
                        if self.try_degrade(&c, gen)? {
                            continue; // the event now tracks the replayed action
                        }
                        return Err(HsError::ActionFailed(c));
                    }
                },
            }
        }
    }

    fn wait_events_recovering(&self, evs: &[Event]) -> HsResult<()> {
        for ev in evs {
            self.wait_event_recovering(*ev)?;
        }
        Ok(())
    }

    /// Wait for one event.
    pub fn event_wait(&self, ev: Event) -> HsResult<()> {
        self.inner.stats.bump("event_wait");
        self.wal_flush();
        self.wait_event_recovering(ev)
    }

    /// Wait until any of the events *succeeds*; returns its index. Errors
    /// only when every event has failed — with the first failure in list
    /// order (the paper: "waiting on a set of events and being signaled
    /// when one or all the events are finished ... can save CPU spinning
    /// time").
    pub fn event_wait_any(&self, evs: &[Event]) -> HsResult<usize> {
        self.inner.stats.bump("event_wait_any");
        self.wal_flush();
        if evs.is_empty() {
            return Err(HsError::InvalidArg("wait_any on empty set".into()));
        }
        'retry: loop {
            let gen = self.inner.degrade_gen.load(Ordering::Acquire);
            let mut bes = Vec::with_capacity(evs.len());
            for (i, ev) in evs.iter().enumerate() {
                match self.inner.events.view(*ev) {
                    EventView::Missing => {
                        if ev.0 < self.inner.events.len() {
                            std::thread::yield_now();
                            continue 'retry;
                        }
                        return Err(HsError::UnknownEvent(*ev));
                    }
                    // Tombstoned = already a success.
                    EventView::Retired => return Ok(i),
                    EventView::Live(be) => bes.push(be),
                }
            }
            match self.inner.exec.wait_any(&bes) {
                Ok(i) => return Ok(i),
                Err(c) => {
                    if self.try_degrade(&c, gen)? {
                        continue; // replayed events may yet succeed
                    }
                    return Err(HsError::ActionFailed(c));
                }
            }
        }
    }

    // --------------------------------------------- card-loss degradation

    /// If `cause` is rooted in a lost card that has not been degraded yet
    /// (and the runtime kept the mirror its replay needs), stop the world,
    /// degrade that card and return `true` — the caller re-waits on the
    /// replayed events. `seen_gen` is the degradation generation the caller loaded
    /// before its failed wait: when stale, another thread already degraded
    /// and the caller simply re-waits.
    fn try_degrade(&self, cause: &FailureCause, seen_gen: u64) -> HsResult<bool> {
        let FailureCause::CardLost { card } = *cause.root() else {
            return Ok(false);
        };
        if !self.can_lose_card() {
            return Ok(false);
        }
        if card == 0 || card as usize >= self.inner.platform.domains.len() {
            return Ok(false);
        }
        let _world = self.inner.world.write();
        if self.inner.degrade_gen.load(Ordering::Acquire) != seen_gen {
            // A degradation completed since the caller's snapshot; its
            // failed wait may now resolve against a replayed action.
            return Ok(true);
        }
        if self.inner.degraded.lock().contains(&card) {
            return Ok(false);
        }
        self.degrade_card(card)?;
        self.inner.degrade_gen.fetch_add(1, Ordering::Release);
        Ok(true)
    }

    /// Card-loss degradation: quiesce, remap the card's streams to the
    /// host, drop its (lost) buffer instantiations, and replay the affected
    /// actions from the recovery log against the surviving domains. Runs
    /// under the exclusive world lock: no enqueue or stream creation is in
    /// flight anywhere.
    fn degrade_card(&self, card: u32) -> HsResult<()> {
        let inner = &*self.inner;
        let dom = DomainId(card as usize);
        inner.chaos.mark_card_dead(card);
        inner.degraded.lock().push(card);
        // 1. Quiesce: settle every in-flight action's status. Everything
        //    completes — card ops fail fast against the dead set, failures
        //    poison dependents, and deadlines bound the rest.
        inner.exec.run_all();
        // 2. Remap the lost card's streams to host sinks. Stream ids stay
        //    valid; subsequent (and replayed) actions resolve on the host.
        //    `on_card[i]`: stream i sat on the lost card until now.
        let on_card: Vec<bool> = {
            let streams = inner.streams.read();
            let mut on_card = vec![false; streams.len()];
            for (i, st_arc) in streams.iter().enumerate() {
                let mut st = st_arc.lock();
                if st.domain == dom {
                    st.domain = DomainId::HOST;
                    inner.exec.remap_stream_to_host(i);
                    on_card[i] = true;
                }
            }
            on_card
        };
        let remapped = on_card.iter().filter(|lost| **lost).count() as u32;
        // 3. Drop the card's buffer instantiations — that memory is gone.
        //    The source proxy (host instantiation) is the recovery copy.
        let mut dropped = 0u32;
        let mut freed = Vec::new();
        {
            let mut buffers = inner.buffers.write();
            for rec in buffers.iter_mut() {
                if let Some(inst) = rec.inst.remove(&dom) {
                    dropped += 1;
                    if let Instantiation::Window(w) = inst {
                        freed.push(w);
                    }
                }
            }
        }
        if let Some(coi) = inner.exec.coi() {
            for w in freed {
                coi.buffer_free(EngineId(card as u16), w);
            }
        }
        // 4. Replay the affected actions on the surviving domains.
        let replayed = self.replay_after_loss(dom, &on_card)?;
        // 5. Surface the event to tuners/tests.
        inner
            .obs
            .degraded(card, remapped, dropped, replayed, self.source_now_ns());
        inner.chaos.note(format!(
            "degraded: card {card} lost, {remapped} streams remapped, \
             {dropped} buffers dropped, {replayed} actions replayed"
        ));
        // Durable runs record the degradation on the meta partition so a
        // restarted process learns the prior failure history.
        let mut log = inner.recovery.lock();
        log.append_meta(card);
        log.flush();
        Ok(())
    }

    /// Re-admit a restarted worker process as fabric card `card`. The
    /// inverse of the degradation path: reconnects the card's
    /// [`hs_fabric::RemoteDomain`] to the (possibly new) `endpoint` with
    /// exponential backoff, verifies liveness with a ping, revives the card
    /// on the chaos hub, and clears it from the degraded set.
    ///
    /// Scope: *new* work. Streams that were remapped to the host during
    /// degradation stay on the host (their actions already replayed there),
    /// and the card's buffer instantiations were dropped with its memory —
    /// re-instantiate buffers and create fresh streams on the domain after
    /// readmission. The restarted worker starts empty; there is nothing on
    /// it to reuse.
    pub fn readmit_remote(&self, card: u32, endpoint: &Endpoint) -> HsResult<()> {
        use hs_fabric::Transport as _;
        let inner = &*self.inner;
        let Some(coi) = inner.exec.coi() else {
            return Err(HsError::ExecFailed(
                "readmit_remote requires a thread-backed exec mode".to_string(),
            ));
        };
        if card == 0 || (card as usize) >= inner.platform.domains.len() {
            return Err(HsError::UnknownDomain(DomainId(card as usize)));
        }
        // Exclusive frontend: no enqueue may race the flip from dead to
        // live, or it could observe a half-revived card.
        let _world = inner.world.write();
        let fabric = coi.fabric();
        let transport = fabric.transport(hs_fabric::NodeId(card as u16));
        let Some(remote) = transport.as_remote() else {
            return Err(HsError::InvalidArg(format!(
                "domain {card} is not a remote domain"
            )));
        };
        remote
            .reconnect(endpoint, &RetryPolicy::standard(6))
            .map_err(|e| HsError::ExecFailed(format!("readmit card {card}: {e}")))?;
        remote
            .ping()
            .map_err(|e| HsError::ExecFailed(format!("readmit card {card}: ping: {e}")))?;
        // The old worker's window allocations died with it; free-listed
        // pool windows for this engine are phantoms the empty replacement
        // has never heard of.
        coi.pool_purge(EngineId(card as u16));
        inner.chaos.revive_card(card);
        inner.degraded.lock().retain(|c| *c != card);
        inner
            .chaos
            .note(format!("readmitted: card {card} at {endpoint}"));
        Ok(())
    }

    /// Wait until every action enqueued in `s` has completed.
    ///
    /// Walks the pending window incrementally (one event at a time under a
    /// brief stream lock) instead of cloning it, so concurrent enqueuers on
    /// the same stream are not blocked and memory stays bounded; actions
    /// enqueued by *other threads* while this wait runs are waited on too.
    pub fn stream_synchronize(&self, s: StreamId) -> HsResult<()> {
        self.inner.stats.bump("stream_synchronize");
        self.wal_flush();
        let st_arc = self.stream_arc(s)?;
        let mut last = None;
        loop {
            let next = st_arc.lock().first_pending_after(last);
            match next {
                None => break,
                Some(e) => {
                    self.wait_event_recovering(e)?;
                    last = Some(e);
                }
            }
        }
        // Everything observed complete: full sweep so no stale index
        // entries linger past a synchronize point.
        st_arc.lock().retire_now(|e| self.event_retired_ok(e));
        // The wait loop above also covers actions other threads enqueued
        // *while it ran*; their records may postdate the entry flush, so
        // flush again — nothing observed complete here returns unflushed.
        self.wal_flush();
        Ok(())
    }

    /// Wait until every action in every stream has completed.
    pub fn thread_synchronize(&self) -> HsResult<()> {
        self.inner.stats.bump("thread_synchronize");
        for i in 0..self.num_streams() {
            self.stream_synchronize(StreamId(i as u32))?;
        }
        Ok(())
    }

    // ------------------------------------------------------------- metrics

    /// Elapsed time: virtual seconds (sim) or wall seconds (threads).
    pub fn now_secs(&self) -> f64 {
        self.inner.exec.now_secs()
    }

    /// Charge synchronous source time (used by layered runtimes like the
    /// OmpSs reproduction to model their per-task overheads). No-op in real
    /// mode.
    pub fn charge_source_secs(&self, secs: f64) {
        self.inner
            .exec
            .charge_source(hs_sim::Dur::from_secs_f64(secs));
    }

    // ------------------------------------------------------- observability

    /// Enable/disable action-lifecycle recording (both executor modes) —
    /// the one switch for the Chrome export and `hsan` alike. While
    /// disabled — the default — enqueues pay one relaxed atomic load.
    /// [`Self::metrics`] does not depend on it.
    pub fn obs_enable(&self, on: bool) {
        self.inner.obs.enable(on);
    }

    /// Drain the lifecycle records collected so far (for export via
    /// `hs_obs::chrome`, and for `hsan` via [`ActionTrace::from_records`]).
    pub fn take_obs_records(&self) -> Vec<ObsRecord> {
        self.inner.obs.take_records()
    }

    /// A flat metrics snapshot, every row read from the component that
    /// owns the number: accepted actions by kind (`actions.*`) and API
    /// calls by name (`api.*`), event-table occupancy, front-end
    /// contention, the cards marked dead (`chaos.dead_cards`, armed plan or
    /// not) and the WAL (`wal.broken` once durability is lost) in every
    /// mode; DMA bytes, ops and link utilization, stream shapes, expansion
    /// regions and pool memory in real mode. Mergeable into bench JSON via
    /// `hs-bench`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, n) in self.inner.stats.rows() {
            snap.extra.insert(name, n as f64);
        }
        let table = self.inner.events.stats();
        snap.extra
            .insert("events.reserved".into(), table.reserved as f64);
        snap.extra.insert("events.live".into(), table.live as f64);
        snap.extra
            .insert("events.retired".into(), table.retired as f64);
        snap.extra
            .insert("events.watermark".into(), table.watermark as f64);
        // One id per mint. Exported because the frozen benchmark's ledger
        // divides it by `events.reserved` (`core.id_rmw_per_action`).
        snap.extra
            .insert("events.id_block.mints".into(), table.reserved as f64);
        snap.extra.insert(
            "frontend.stream_lock.contended".into(),
            self.inner.contended.get() as f64,
        );
        snap.extra
            .insert("deps.redundant".into(), self.inner.redundant.get() as f64);
        snap.extra.insert(
            "frontend.recovery.entries".into(),
            self.inner.recovery.lock().entries().len() as f64,
        );
        snap.extra.insert(
            "chaos.dead_cards".into(),
            self.inner.chaos.dead_cards().len() as f64,
        );
        if let Some(ws) = self.wal_stats() {
            snap.extra
                .insert("wal.appended_bytes".into(), ws.appended_bytes as f64);
            snap.extra.insert("wal.records".into(), ws.records as f64);
            snap.extra.insert("wal.segments".into(), ws.segments as f64);
            snap.extra.insert("wal.flushes".into(), ws.flushes as f64);
            snap.extra.insert("wal.fsync_us".into(), ws.fsync_us as f64);
            snap.extra.insert("wal.fsyncs".into(), ws.fsyncs as f64);
            snap.extra
                .insert("wal.fsync_batched".into(), ws.fsync_batched as f64);
            snap.extra
                .insert("wal.retired_segments".into(), ws.retired_segments as f64);
            let broken = self.inner.recovery.lock().broken();
            snap.extra
                .insert("wal.broken".into(), f64::from(u8::from(broken)));
        }
        if let Some(coi) = self.inner.exec.coi() {
            let fabric = coi.fabric();
            let wall = self.inner.exec.now_secs();
            for (card_idx, _) in self.inner.platform.cards() {
                for h2d in [true, false] {
                    let node = hs_fabric::NodeId(card_idx as u16);
                    let stats = fabric.engine(node, h2d).stats();
                    let dir = if h2d { "h2d" } else { "d2h" };
                    let key = format!("dma.c{card_idx}.{dir}");
                    snap.extra
                        .insert(format!("{key}.bytes"), stats.bytes as f64);
                    snap.extra.insert(format!("{key}.ops"), stats.ops as f64);
                    if wall > 0.0 {
                        snap.extra.insert(
                            format!("{key}.utilization"),
                            (stats.busy_ns as f64 / 1e9) / wall,
                        );
                    }
                }
            }
            // Remote cards additionally report raw link traffic: what the
            // wire actually carried (frame headers included), next to the
            // payload `dma.cN.*` totals the DMA channels count.
            for (card_idx, _) in self.inner.platform.cards() {
                let node = hs_fabric::NodeId(card_idx as u16);
                if !fabric.is_remote(node) {
                    continue;
                }
                let link = fabric.transport(node).link_stats();
                let key = format!("link.c{card_idx}");
                snap.extra
                    .insert(format!("{key}.tx_bytes"), link.tx_bytes as f64);
                snap.extra
                    .insert(format!("{key}.rx_bytes"), link.rx_bytes as f64);
                snap.extra.insert(format!("{key}.reqs"), link.reqs as f64);
                snap.extra
                    .insert(format!("{key}.rtt_us"), link.rtt_ns as f64 / 1e3);
            }
            let shapes = self.inner.exec.stream_shapes();
            for (idx, (width, lanes)) in shapes.iter().enumerate() {
                snap.extra
                    .insert(format!("stream.{idx}.width"), *width as f64);
                snap.extra
                    .insert(format!("stream.{idx}.lanes"), *lanes as f64);
            }
            let lanes: usize = shapes.iter().map(|(_, lanes)| lanes).sum();
            snap.extra.insert("wg.lanes".to_string(), lanes as f64);
            snap.extra
                .insert("wg.regions".to_string(), coi.pool().regions() as f64);
            let workers = coi.pool().stats();
            snap.extra
                .insert("workers.wakes".to_string(), workers.wakes as f64);
            snap.extra
                .insert("workers.parks".to_string(), workers.parks as f64);
            snap.extra
                .insert("workers.spin_takes".to_string(), workers.spin_takes as f64);
            snap.extra.insert(
                "exec.blocking_waits".to_string(),
                self.inner.exec.blocking_waits() as f64,
            );
            // Window capacity the buffer pools hold registered, all domains:
            // against the bytes of the live buffers it is what pooling costs.
            let registered: u64 = coi
                .engines()
                .map(|e| coi.pool_stats(e).registered_bytes)
                .sum();
            snap.extra
                .insert("pool.registered_bytes".to_string(), registered as f64);
        }
        snap
    }
}
