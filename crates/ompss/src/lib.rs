//! # hs-ompss — an OmpSs-like task-dataflow runtime
//!
//! OmpSs (§IV of the paper) "enables sequential applications to run in
//! parallel": the user declares tasks with in/out data accesses; the runtime
//! detects dependences, allocates device data automatically, inserts data
//! movement implicitly, and manages streams and events transparently. The
//! paper ports OmpSs on top of hStreams and compares against its CUDA
//! Streams backend; this crate reproduces that layer over both:
//!
//! * [`Backend::HStreams`] — relies on the FIFO + operand-overlap semantics:
//!   dependences between tasks that land in the *same* stream need **no**
//!   synchronization at all, and independent work in one stream still
//!   overlaps (out-of-order execution).
//! * [`Backend::CudaStreams`] — strict FIFO streams: the runtime must
//!   *explicitly* record an event after every task and insert
//!   `stream_wait_event`s for every cross-task dependence, "which increases
//!   the complexity and programming effort" — and, in the paper's
//!   measurement, costs 1.45× on a 4K×4K tiled matmul.
//!
//! The cost of OmpSs's conveniences is also modelled, as the paper measures
//! it (§III: 15–50 % over direct hStreams for Cholesky at n = 4800–10000):
//! a per-task instantiation/scheduling charge on the source, and COI buffer
//! allocation *without* the 2 MB pool ("when they were not enabled, as in
//! the OmpSs case, the COI allocation overheads were significant").

use bytes::Bytes;
use hs_baselines::{CuEvent, CuStream, CudaLike, DevPtr};
use hs_machine::{CostModel, Device, PlatformCfg};
use hstreams_core::{
    Access, BufProps, BufferId, CostHint, CpuMask, DomainId, Event, ExecMode, HStreams, HsResult,
    StreamId, TaskFn,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Name of the internal sink no-op used to model synchronous allocation
/// stalls.
const ALLOC_STALL_KERNEL: &str = "__ompss_alloc_stall";

/// Which streaming backend OmpSs drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    HStreams,
    CudaStreams,
}

/// Task placement: pinned (the paper's evaluated configuration) or
/// automatic. The paper notes hStreams itself "does not yet automate
/// dynamic scheduling"; OmpSs is the layer that does, so the automatic
/// policy lives here: earliest-estimated-finish-time over the devices,
/// accounting for data movement of regions not yet valid on a candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    Pin(DomainId),
    Auto,
}

/// A user data region (one tile / array). OmpSs tracks validity and
/// dependences at region granularity, like its region-based dependence
/// system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DataId(usize);

/// One declared task access.
#[derive(Clone, Copy, Debug)]
pub struct DataAccess {
    pub data: DataId,
    pub access: Access,
}

impl DataAccess {
    pub fn input(data: DataId) -> DataAccess {
        DataAccess {
            data,
            access: Access::In,
        }
    }
    pub fn output(data: DataId) -> DataAccess {
        DataAccess {
            data,
            access: Access::Out,
        }
    }
    pub fn inout(data: DataId) -> DataAccess {
        DataAccess {
            data,
            access: Access::InOut,
        }
    }
}

/// Backend-specific completion handle of a scheduled task (or staging
/// transfer). `Cu` handles carry (device, stream index) so dependence
/// enforcement can tell cross-stream from same-stream across devices.
#[derive(Clone, Copy, Debug)]
enum TaskHandle {
    Hs {
        event: Event,
        stream: StreamId,
    },
    Cu {
        event: CuEvent,
        device: usize,
        stream: usize,
    },
}

struct DataState {
    buffer: BufferId,
    len: usize,
    /// Domains holding a valid copy. Host starts valid.
    valid: Vec<DomainId>,
    /// Instantiated domains (device allocation is automatic + lazy).
    instantiated: Vec<DomainId>,
    last_writer: Option<TaskHandle>,
    readers: Vec<TaskHandle>,
}

enum Be {
    Hs {
        hs: HStreams,
        /// Streams per domain: `streams[domain] = Vec<StreamId>`.
        streams: Vec<Vec<StreamId>>,
        rr: Vec<usize>,
    },
    Cu {
        cu: CudaLike,
        /// One whole-device stream list per card domain id (CUDA cannot
        /// subdivide, but OmpSs still creates several streams per device).
        streams: Vec<Vec<CuStream>>,
        rr: Vec<usize>,
        dev_ptrs: HashMap<(usize, usize), DevPtr>,
    },
}

/// The OmpSs-like runtime.
pub struct OmpSs {
    be: Be,
    /// Per-buffer sink-side allocation stall (µs) — COI allocation without
    /// the 2 MB pool is synchronous with the card and blocks its pipeline
    /// ("making MIC-side memory allocation asynchronous is a bottleneck",
    /// §VII). Zero when the pool is enabled.
    alloc_stall_us: f64,
    data: Vec<DataState>,
    task_overhead_secs: f64,
    tasks_run: u64,
    syncs_inserted: u64,
    /// (device, kind, cores) per domain, for the EFT scheduler.
    dev_info: Vec<(DomainId, Device, u32)>,
    cost: CostModel,
    /// Estimated cumulative busy seconds per (device, stream) — the EFT
    /// policy schedules at stream granularity because a task occupies one
    /// stream's cores, not the whole device.
    stream_busy_est: Vec<Vec<f64>>,
    streams_per_dev: Vec<usize>,
    link_bw: f64,
}

impl OmpSs {
    /// Create the runtime. `streams_per_device` mirrors the paper's "OmpSs
    /// uses several streams and partitions to distribute work".
    pub fn new(
        mut platform: PlatformCfg,
        mode: ExecMode,
        backend: Backend,
        streams_per_device: usize,
    ) -> OmpSs {
        // §III: the COI 2 MB buffer pool was not enabled in the OmpSs case.
        platform.coi_buffer_pool = false;
        let alloc_stall_us = platform.overheads.alloc_no_pool_us;
        let task_overhead_secs = platform.cost_model().ompss_task_dur().as_secs_f64();
        let ndom = platform.domains.len();
        let dev_info: Vec<(DomainId, Device, u32)> = platform
            .domains
            .iter()
            .enumerate()
            .map(|(i, d)| (DomainId(i), d.device, d.cores))
            .collect();
        let cost = platform.cost_model();
        let link_bw = platform
            .cards()
            .next()
            .and_then(|(_, c)| c.link)
            .map(|l| l.h2d_bytes_per_sec)
            .unwrap_or(f64::INFINITY);
        let mut be = match backend {
            Backend::HStreams => {
                let hs = HStreams::init(platform, mode);
                let mut streams = vec![Vec::new(); ndom];
                for d in hs.domains() {
                    let n = streams_per_device.min(d.cores as usize).max(1);
                    for mask in CpuMask::partition_evenly(d.cores, n) {
                        streams[d.id.0].push(hs.stream_create(d.id, mask).expect("stream"));
                    }
                }
                Be::Hs {
                    hs,
                    streams,
                    rr: vec![0; ndom],
                }
            }
            Backend::CudaStreams => {
                let mut cu =
                    CudaLike::new(platform, mode).with_stream_partition(streams_per_device as u32);
                let mut streams = vec![Vec::new(); ndom];
                for (d, dev_streams) in streams.iter_mut().enumerate() {
                    for _ in 0..streams_per_device.max(1) {
                        dev_streams.push(cu.stream_create(DomainId(d)).expect("stream"));
                    }
                }
                Be::Cu {
                    cu,
                    streams,
                    rr: vec![0; ndom],
                    dev_ptrs: HashMap::new(),
                }
            }
        };
        // Internal no-op kernel backing the modelled allocation stall.
        match &mut be {
            Be::Hs { hs, .. } => hs.register(
                ALLOC_STALL_KERNEL,
                Arc::new(|_ctx: &mut hstreams_core::TaskCtx| {}),
            ),
            Be::Cu { cu, .. } => cu.register_kernel(
                ALLOC_STALL_KERNEL,
                Arc::new(|_ctx: &mut hstreams_core::TaskCtx| {}),
            ),
        }
        let streams_per_dev: Vec<usize> = match &be {
            Be::Hs { streams, .. } => streams.iter().map(Vec::len).collect(),
            Be::Cu { streams, .. } => streams.iter().map(Vec::len).collect(),
        };
        let stream_busy_est = streams_per_dev.iter().map(|n| vec![0.0; *n]).collect();
        OmpSs {
            be,
            data: Vec::new(),
            task_overhead_secs,
            tasks_run: 0,
            syncs_inserted: 0,
            stream_busy_est,
            streams_per_dev,
            dev_info,
            cost,
            link_bw,
            alloc_stall_us,
        }
    }

    /// Modelled duration of the task on one *stream* of `device` (a task
    /// expands across a stream's cores, not the device's), plus staging for
    /// regions not valid on the device.
    fn estimate(&self, device: usize, accesses: &[DataAccess], cost_hint: &CostHint) -> f64 {
        let (dom, dev, cores) = self.dev_info[device];
        let stream_cores = (cores / self.streams_per_dev[device] as u32).max(1);
        let compute = self.cost.kernel_secs(
            dev,
            stream_cores,
            cost_hint.kernel,
            cost_hint.flops,
            cost_hint.tile_n,
        );
        let mut staging = 0.0;
        for a in accesses {
            if a.access.is_read() {
                let st = &self.data[a.data.0];
                if !st.valid.contains(&dom) {
                    staging += st.len as f64 / self.link_bw;
                }
            }
        }
        compute + staging
    }

    /// Earliest-estimated-finish-time placement at stream granularity.
    fn pick_device(&self, accesses: &[DataAccess], cost_hint: &CostHint) -> (DomainId, usize) {
        let mut best = (f64::INFINITY, DomainId::HOST, 0usize);
        for (idx, (dom, _, _)) in self.dev_info.iter().enumerate() {
            let dur = self.estimate(idx, accesses, cost_hint);
            for (sk, busy) in self.stream_busy_est[idx].iter().enumerate() {
                let finish = busy + dur;
                if finish < best.0 {
                    best = (finish, *dom, sk);
                }
            }
        }
        (best.1, best.2)
    }

    fn note_scheduled(
        &mut self,
        device: DomainId,
        stream_key: usize,
        accesses: &[DataAccess],
        cost_hint: &CostHint,
    ) {
        let dur = self.estimate(device.0, accesses, cost_hint);
        let n = self.stream_busy_est[device.0].len();
        self.stream_busy_est[device.0][stream_key % n] += dur;
    }

    pub fn register(&mut self, name: &str, f: TaskFn) {
        match &mut self.be {
            Be::Hs { hs, .. } => hs.register(name, f),
            Be::Cu { cu, .. } => cu.register_kernel(name, f),
        }
    }

    /// Declare a data region of `len` bytes (host-resident initially;
    /// device copies are allocated automatically when tasks need them).
    pub fn data_create(&mut self, len: usize) -> DataId {
        let buffer = match &mut self.be {
            Be::Hs { hs, .. } => hs.buffer_create(len, BufProps::default()),
            Be::Cu { cu, .. } => cu.host_alloc(len),
        };
        self.data.push(DataState {
            buffer,
            len,
            valid: vec![DomainId::HOST],
            instantiated: vec![DomainId::HOST],
            last_writer: None,
            readers: Vec::new(),
        });
        DataId(self.data.len() - 1)
    }

    pub fn data_write_f64(&mut self, d: DataId, off: usize, v: &[f64]) -> HsResult<()> {
        // A host write invalidates device copies and clears dependence
        // chains the same way a host "task" would; callers do this before
        // the task graph starts (matching OmpSs semantics of registered
        // host data).
        let buffer = self.data[d.0].buffer;
        match &mut self.be {
            Be::Hs { hs, .. } => hs.buffer_write_f64(buffer, off, v)?,
            Be::Cu { cu, .. } => cu.host_write_f64(buffer, off, v)?,
        }
        self.data[d.0].valid = vec![DomainId::HOST];
        Ok(())
    }

    pub fn data_read_f64(&mut self, d: DataId, off: usize, out: &mut [f64]) -> HsResult<()> {
        // Ensure the host copy is current first.
        self.fetch_to_host(d)?;
        let buffer = self.data[d.0].buffer;
        match &mut self.be {
            Be::Hs { hs, .. } => hs.buffer_read_f64(buffer, off, out),
            Be::Cu { cu, .. } => cu.host_read_f64(buffer, off, out),
        }
    }

    /// Number of explicit synchronizations the runtime had to insert —
    /// the bookkeeping the paper contrasts between backends.
    pub fn syncs_inserted(&self) -> u64 {
        self.syncs_inserted
    }

    pub fn tasks_run(&self) -> u64 {
        self.tasks_run
    }

    pub fn now_secs(&self) -> f64 {
        match &self.be {
            Be::Hs { hs, .. } => hs.now_secs(),
            Be::Cu { cu, .. } => cu.now_secs(),
        }
    }

    fn charge_task_overhead(&mut self) {
        let secs = self.task_overhead_secs;
        match &mut self.be {
            Be::Hs { hs, .. } => hs.charge_source_secs(secs),
            Be::Cu { cu, .. } => cu.hstreams().charge_source_secs(secs),
        }
    }

    /// Submit a task pinned to `device` (OmpSs target clause) — the
    /// deterministic policy the paper's evaluation used.
    pub fn task(
        &mut self,
        func: &str,
        args: Bytes,
        accesses: &[DataAccess],
        cost: CostHint,
        device: DomainId,
    ) -> HsResult<()> {
        self.task_placed(func, args, accesses, cost, Placement::Pin(device))
    }

    /// Submit a task with explicit placement policy: `Placement::Auto` uses
    /// the earliest-finish-time heuristic over all devices.
    pub fn task_placed(
        &mut self,
        func: &str,
        args: Bytes,
        accesses: &[DataAccess],
        cost: CostHint,
        placement: Placement,
    ) -> HsResult<()> {
        let (device, chosen_stream) = match placement {
            Placement::Pin(d) => (d, None),
            Placement::Auto => {
                let (d, sk) = self.pick_device(accesses, &cost);
                (d, Some(sk))
            }
        };
        self.charge_task_overhead();
        self.tasks_run += 1;

        // 1. Collect dependences from the region dependence table.
        let mut deps: Vec<TaskHandle> = Vec::new();
        for a in accesses {
            let st = &self.data[a.data.0];
            match a.access {
                Access::In => {
                    if let Some(w) = st.last_writer {
                        deps.push(w);
                    }
                }
                Access::Out | Access::InOut => {
                    if let Some(w) = st.last_writer {
                        deps.push(w);
                    }
                    deps.extend(st.readers.iter().copied());
                }
            }
        }

        // 2. Pick a stream on the target device: the EFT choice if we made
        //    one, round-robin otherwise.
        let stream_key = match chosen_stream {
            Some(sk) => sk,
            None => self.pick_stream(device),
        };
        self.note_scheduled(device, stream_key, accesses, &cost);

        // 3. Automatic data movement: make In/InOut regions valid on the
        //    device, via the host if needed. Staging transfers may run in
        //    other devices' streams, so their handles join the launch's
        //    dependence set.
        let mut deps_with_staging = deps.clone();
        for a in accesses {
            if a.access.is_read() {
                let staged = self.stage_to(a.data, device, stream_key, &deps)?;
                deps_with_staging.extend(staged);
            } else {
                self.ensure_instantiated(a.data, device, stream_key)?;
            }
        }

        // 4. Enforce dependences + launch, backend-specific.
        let handle = self.launch(
            func,
            args,
            accesses,
            cost,
            device,
            stream_key,
            &deps_with_staging,
        )?;

        // 5. Update the dependence table and validity.
        for a in accesses {
            let st = &mut self.data[a.data.0];
            match a.access {
                Access::In => st.readers.push(handle),
                Access::Out | Access::InOut => {
                    st.last_writer = Some(handle);
                    st.readers.clear();
                    st.valid = vec![device];
                }
            }
        }
        Ok(())
    }

    fn pick_stream(&mut self, device: DomainId) -> usize {
        match &mut self.be {
            Be::Hs { streams, rr, .. } => {
                let n = streams[device.0].len();
                let k = rr[device.0] % n;
                rr[device.0] += 1;
                k
            }
            Be::Cu { streams, rr, .. } => {
                let n = streams[device.0].len();
                let k = rr[device.0] % n;
                rr[device.0] += 1;
                k
            }
        }
    }

    fn ensure_instantiated(
        &mut self,
        d: DataId,
        device: DomainId,
        stream_key: usize,
    ) -> HsResult<()> {
        if self.data[d.0].instantiated.contains(&device) {
            return Ok(());
        }
        let buffer = self.data[d.0].buffer;
        let len = self.data[d.0].len;
        let stall = self.alloc_stall_us;
        match &mut self.be {
            Be::Hs { hs, streams, .. } => {
                hs.buffer_instantiate(buffer, device)?;
                // Unpooled allocation is synchronous with the card: it
                // occupies the device pipeline, not just the source. Model
                // it as a fixed stall task in the stream about to use the
                // buffer (so it orders before the staging transfer without
                // perturbing the scheduler's round-robin state).
                if stall > 0.0 && !device.is_host() {
                    let n = streams[device.0].len();
                    let s = streams[device.0][stream_key % n];
                    hs.enqueue_compute(
                        s,
                        ALLOC_STALL_KERNEL,
                        Bytes::new(),
                        &[hstreams_core::Operand::new(buffer, 0..len, Access::Out)],
                        CostHint::new(hs_machine::KernelKind::FixedUs, stall, 1),
                    )?;
                }
            }
            Be::Cu {
                cu,
                streams,
                dev_ptrs,
                ..
            } => {
                if !device.is_host() {
                    let p = cu.malloc(device, buffer)?;
                    dev_ptrs.insert((d.0, device.0), p);
                    // cudaMalloc is synchronous too: same modelled stall.
                    if stall > 0.0 {
                        let n = streams[device.0].len();
                        let st = streams[device.0][stream_key % n];
                        cu.launch(
                            st,
                            ALLOC_STALL_KERNEL,
                            Bytes::new(),
                            &[(p, 0..len, Access::Out)],
                            CostHint::new(hs_machine::KernelKind::FixedUs, stall, 1),
                        )?;
                    }
                }
            }
        }
        self.data[d.0].instantiated.push(device);
        Ok(())
    }

    /// Stage a region so `device` holds a valid copy before the task runs,
    /// inserting implicit transfers in the chosen stream. Returns the
    /// handles of the transfers so the consuming launch can depend on them
    /// even when they run in another device's streams.
    fn stage_to(
        &mut self,
        d: DataId,
        device: DomainId,
        stream_key: usize,
        deps: &[TaskHandle],
    ) -> HsResult<Vec<TaskHandle>> {
        if self.data[d.0].valid.contains(&device) {
            return Ok(Vec::new());
        }
        self.ensure_instantiated(d, device, stream_key)?;
        let mut staged = Vec::new();
        // If the only valid copy is on another card, go through the host.
        if !self.data[d.0].valid.contains(&DomainId::HOST) {
            let src = self.data[d.0].valid[0];
            staged.extend(self.transfer(d, src, DomainId::HOST, stream_key, deps)?);
            self.data[d.0].valid.push(DomainId::HOST);
        }
        if !device.is_host() {
            staged.extend(self.transfer(d, DomainId::HOST, device, stream_key, deps)?);
        }
        self.data[d.0].valid.push(device);
        Ok(staged)
    }

    fn transfer(
        &mut self,
        d: DataId,
        from: DomainId,
        to: DomainId,
        stream_key: usize,
        deps: &[TaskHandle],
    ) -> HsResult<Option<TaskHandle>> {
        let (buffer, len) = (self.data[d.0].buffer, self.data[d.0].len);
        // The transfer must respect the region's dependences (e.g. reading a
        // card copy produced by an unfinished task). Enforce them the same
        // way the launch path does.
        let device = if to.is_host() { from } else { to };
        self.enforce_deps(device, stream_key, deps)?;
        match &mut self.be {
            Be::Hs { hs, streams, .. } => {
                let s = streams[device.0][stream_key % streams[device.0].len()];
                let event = hs.enqueue_xfer(s, buffer, 0..len, from, to)?;
                Ok(Some(TaskHandle::Hs { event, stream: s }))
            }
            Be::Cu {
                cu,
                streams,
                dev_ptrs,
                ..
            } => {
                let s = streams[device.0][stream_key % streams[device.0].len()];
                let p = *dev_ptrs
                    .get(&(d.0, device.0))
                    .expect("instantiated before staging");
                if to.is_host() {
                    cu.memcpy_d2h_async(s, p, 0..len)?;
                } else {
                    cu.memcpy_h2d_async(s, p, 0..len)?;
                }
                // A waitable marker for the transfer (CUDA needs an event).
                let event = cu.event_create();
                cu.event_record(event, s)?;
                self.syncs_inserted += 1;
                Ok(Some(TaskHandle::Cu {
                    event,
                    device: device.0,
                    stream: stream_key % self.streams_per_dev[device.0],
                }))
            }
        }
    }

    /// Insert whatever synchronization the backend needs so that work
    /// subsequently enqueued on (device, stream_key) happens after `deps`.
    fn enforce_deps(
        &mut self,
        device: DomainId,
        stream_key: usize,
        deps: &[TaskHandle],
    ) -> HsResult<()> {
        match &mut self.be {
            Be::Hs { hs, streams, .. } => {
                let s = streams[device.0][stream_key % streams[device.0].len()];
                // hStreams: same-stream dependences are implicit (FIFO +
                // operands); only cross-stream ones need an event wait.
                let cross: Vec<Event> = deps
                    .iter()
                    .filter_map(|h| match h {
                        TaskHandle::Hs { event, stream } if *stream != s => Some(*event),
                        _ => None,
                    })
                    .collect();
                if !cross.is_empty() {
                    hs.enqueue_event_wait(s, &cross)?;
                    self.syncs_inserted += 1;
                }
            }
            Be::Cu { cu, streams, .. } => {
                let s = streams[device.0][stream_key % streams[device.0].len()];
                let this_key = stream_key % streams[device.0].len();
                // CUDA Streams: OmpSs "needs to explicitly compute and
                // enforce dependences" — a stream_wait_event per dependence
                // whose producing (device, stream) differs.
                let waits: Vec<CuEvent> = deps
                    .iter()
                    .filter_map(|h| match h {
                        TaskHandle::Cu {
                            event,
                            device: pd,
                            stream,
                        } if (*pd, *stream) != (device.0, this_key) => Some(*event),
                        _ => None,
                    })
                    .collect();
                for ev in waits {
                    cu.stream_wait_event(s, ev)?;
                    self.syncs_inserted += 1;
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn launch(
        &mut self,
        func: &str,
        args: Bytes,
        accesses: &[DataAccess],
        cost: CostHint,
        device: DomainId,
        stream_key: usize,
        deps: &[TaskHandle],
    ) -> HsResult<TaskHandle> {
        self.enforce_deps(device, stream_key, deps)?;
        match &mut self.be {
            Be::Hs { hs, streams, .. } => {
                let s = streams[device.0][stream_key % streams[device.0].len()];
                let ops: Vec<hstreams_core::Operand> = accesses
                    .iter()
                    .map(|a| {
                        let st = &self.data[a.data.0];
                        hstreams_core::Operand::new(st.buffer, 0..st.len, a.access)
                    })
                    .collect();
                let event = hs.enqueue_compute(s, func, args, &ops, cost)?;
                Ok(TaskHandle::Hs { event, stream: s })
            }
            Be::Cu {
                cu,
                streams,
                dev_ptrs,
                ..
            } => {
                let s = streams[device.0][stream_key % streams[device.0].len()];
                let ops: Vec<(DevPtr, std::ops::Range<usize>, Access)> = accesses
                    .iter()
                    .map(|a| {
                        let st = &self.data[a.data.0];
                        let p = if device.is_host() {
                            DevPtr {
                                device,
                                buf: st.buffer,
                            }
                        } else {
                            *dev_ptrs
                                .get(&(a.data.0, device.0))
                                .expect("instantiated before launch")
                        };
                        (p, 0..st.len, a.access)
                    })
                    .collect();
                cu.launch(s, func, args, &ops, cost)?;
                // CUDA: record an event after *every* task — the runtime
                // cannot know which future task will depend on it.
                let event = cu.event_create();
                cu.event_record(event, s)?;
                self.syncs_inserted += 1;
                Ok(TaskHandle::Cu {
                    event,
                    device: device.0,
                    stream: stream_key % self.streams_per_dev[device.0],
                })
            }
        }
    }

    fn fetch_to_host(&mut self, d: DataId) -> HsResult<()> {
        if self.data[d.0].valid.contains(&DomainId::HOST) {
            self.sync_all()?;
            return Ok(());
        }
        let src = self.data[d.0].valid[0];
        let deps: Vec<TaskHandle> = self.data[d.0].last_writer.into_iter().collect();
        let key = self.pick_stream(src);
        let _ = self.transfer(d, src, DomainId::HOST, key, &deps)?;
        self.data[d.0].valid.push(DomainId::HOST);
        self.sync_all()
    }

    /// `#pragma omp taskwait` — everything completes.
    pub fn taskwait(&mut self) -> HsResult<()> {
        self.sync_all()
    }

    fn sync_all(&mut self) -> HsResult<()> {
        match &mut self.be {
            Be::Hs { hs, .. } => hs.thread_synchronize(),
            Be::Cu { cu, .. } => cu.device_synchronize(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_machine::Device;
    use std::sync::Arc;

    fn rt(backend: Backend) -> OmpSs {
        let mut o = OmpSs::new(
            PlatformCfg::hetero(Device::Hsw, 1),
            ExecMode::Threads,
            backend,
            2,
        );
        o.register(
            "add1",
            Arc::new(|ctx: &mut hstreams_core::TaskCtx| {
                let n = ctx.num_bufs();
                for x in ctx.buf_f64_mut(n - 1) {
                    *x += 1.0;
                }
            }),
        );
        o.register(
            "sum2",
            Arc::new(|ctx: &mut hstreams_core::TaskCtx| {
                // c = a + b (operands ordered a, b, c by the caller).
                let a: Vec<f64> = ctx.buf_f64(0).to_vec();
                let b: Vec<f64> = ctx.buf_f64(1).to_vec();
                let c = ctx.buf_f64_mut(2);
                for i in 0..c.len() {
                    c[i] = a[i] + b[i];
                }
            }),
        );
        o
    }

    fn chain_test(backend: Backend) {
        let mut o = rt(backend);
        let card = DomainId(1);
        let d = o.data_create(8 * 4);
        o.data_write_f64(d, 0, &[0.0; 4]).expect("write");
        // Ten dependent increments, alternating streams: the runtime must
        // detect the RAW chain and enforce it (implicitly or explicitly).
        for _ in 0..10 {
            o.task(
                "add1",
                Bytes::new(),
                &[DataAccess::inout(d)],
                CostHint::trivial(),
                card,
            )
            .expect("task");
        }
        let mut out = [0.0; 4];
        o.data_read_f64(d, 0, &mut out).expect("read");
        assert_eq!(out, [10.0; 4], "{backend:?}");
    }

    #[test]
    fn dependent_chain_is_ordered_on_hstreams() {
        chain_test(Backend::HStreams);
    }

    #[test]
    fn dependent_chain_is_ordered_on_cuda() {
        chain_test(Backend::CudaStreams);
    }

    fn dataflow_join_test(backend: Backend) {
        let mut o = rt(backend);
        let card = DomainId(1);
        let a = o.data_create(8 * 4);
        let b = o.data_create(8 * 4);
        let c = o.data_create(8 * 4);
        o.data_write_f64(a, 0, &[1.0; 4]).expect("write");
        o.data_write_f64(b, 0, &[2.0; 4]).expect("write");
        o.data_write_f64(c, 0, &[0.0; 4]).expect("write");
        // Two producers then a join: c = (a+1) + (b+1).
        o.task(
            "add1",
            Bytes::new(),
            &[DataAccess::inout(a)],
            CostHint::trivial(),
            card,
        )
        .expect("p1");
        o.task(
            "add1",
            Bytes::new(),
            &[DataAccess::inout(b)],
            CostHint::trivial(),
            card,
        )
        .expect("p2");
        o.task(
            "sum2",
            Bytes::new(),
            &[
                DataAccess::input(a),
                DataAccess::input(b),
                DataAccess::output(c),
            ],
            CostHint::trivial(),
            card,
        )
        .expect("join");
        let mut out = [0.0; 4];
        o.data_read_f64(c, 0, &mut out).expect("read");
        assert_eq!(out, [5.0; 4], "{backend:?}");
    }

    #[test]
    fn dataflow_join_on_hstreams() {
        dataflow_join_test(Backend::HStreams);
    }

    #[test]
    fn dataflow_join_on_cuda() {
        dataflow_join_test(Backend::CudaStreams);
    }

    #[test]
    fn automatic_movement_host_to_card_and_back() {
        let mut o = rt(Backend::HStreams);
        let card = DomainId(1);
        let d = o.data_create(8 * 2);
        o.data_write_f64(d, 0, &[7.0, 8.0]).expect("write");
        // The task runs on the card; the runtime must move data there.
        o.task(
            "add1",
            Bytes::new(),
            &[DataAccess::inout(d)],
            CostHint::trivial(),
            card,
        )
        .expect("task");
        // Reading pulls it back automatically.
        let mut out = [0.0; 2];
        o.data_read_f64(d, 0, &mut out).expect("read");
        assert_eq!(out, [8.0, 9.0]);
    }

    #[test]
    fn cuda_backend_inserts_more_syncs_than_hstreams() {
        let run = |backend| {
            let mut o = rt(backend);
            let card = DomainId(1);
            let ds: Vec<DataId> = (0..4).map(|_| o.data_create(8 * 4)).collect();
            for d in &ds {
                o.data_write_f64(*d, 0, &[0.0; 4]).expect("write");
            }
            // A chain across regions: t_i reads d_{i-1}, writes d_i, with
            // round-robin stream placement forcing cross-stream deps.
            for i in 1..4 {
                o.task(
                    "sum2",
                    Bytes::new(),
                    &[
                        DataAccess::input(ds[i - 1]),
                        DataAccess::input(ds[(i + 1) % 4]),
                        DataAccess::output(ds[i]),
                    ],
                    CostHint::trivial(),
                    card,
                )
                .expect("task");
            }
            o.taskwait().expect("wait");
            o.syncs_inserted()
        };
        let hs_syncs = run(Backend::HStreams);
        let cu_syncs = run(Backend::CudaStreams);
        assert!(
            cu_syncs > hs_syncs,
            "CUDA backend must pay more explicit synchronization: {cu_syncs} vs {hs_syncs}"
        );
    }

    #[test]
    fn host_tasks_work_too() {
        let mut o = rt(Backend::HStreams);
        let d = o.data_create(8 * 2);
        o.data_write_f64(d, 0, &[1.0, 1.0]).expect("write");
        o.task(
            "add1",
            Bytes::new(),
            &[DataAccess::inout(d)],
            CostHint::trivial(),
            DomainId::HOST,
        )
        .expect("host task");
        let mut out = [0.0; 2];
        o.data_read_f64(d, 0, &mut out).expect("read");
        assert_eq!(out, [2.0, 2.0]);
    }
}
