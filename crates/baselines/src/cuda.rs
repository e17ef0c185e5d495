//! A CUDA-Streams-shaped API over the strict-FIFO runtime.
//!
//! Differences from hStreams that the paper calls out, all reproduced here:
//!
//! * **Opaque handles**: streams and events are objects that must be created
//!   and destroyed explicitly (vs. hStreams integers / implicit events).
//! * **Per-device addresses**: `cu_malloc` returns a [`DevPtr`] the caller
//!   must keep per device ("multiple variables are needed to keep the
//!   addresses for each memory space").
//! * **Strict FIFO order**: "CUDA Streams follow a strict FIFO order of
//!   operations, and are not pipelined" — actions in one stream never
//!   reorder, regardless of operand overlap.
//! * **Explicit dependence enforcement**: cross-stream (and would-be
//!   out-of-order) dependences require `event_record` + `stream_wait_event`
//!   pairs, which is precisely the extra work OmpSs had to do on this
//!   backend (§IV: the 1.45× gap).

use bytes::Bytes;
use hs_machine::PlatformCfg;
use hstreams_core::{
    Access, BufProps, BufferId, CostHint, CpuMask, DomainId, Event, ExecMode, HStreams, HsResult,
    Operand, OrderingMode, StreamId, TaskFn,
};
use std::collections::BTreeMap;
use std::ops::Range;

/// Opaque stream handle (contrast with hStreams' plain integers).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CuStream {
    inner: StreamId,
    device: DomainId,
}

/// Opaque event handle; must be recorded before it is waitable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CuEvent {
    slot: usize,
}

/// A device pointer: (device, allocation id). The *caller* tracks one per
/// (array, device) pair — the bookkeeping burden the paper contrasts with
/// hStreams' one id per buffer, whatever the domains it is instantiated in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DevPtr {
    pub device: DomainId,
    pub buf: BufferId,
}

/// The CUDA-like driver.
pub struct CudaLike {
    hs: HStreams,
    events: Vec<Option<Event>>,
    api: BTreeMap<&'static str, u64>,
    host_bufs: Vec<BufferId>,
    /// Streams expected per device: device capacity is shared between
    /// concurrent streams (the hardware scheduler timeshares SMs), so each
    /// created stream gets `cores / partition` of the device. Default 4.
    partition: u32,
    created: Vec<u32>,
}

impl CudaLike {
    /// Build on a platform. Internally this is hStreams with strict-FIFO
    /// intra-stream ordering.
    pub fn new(platform: PlatformCfg, mode: ExecMode) -> CudaLike {
        let ndom = platform.domains.len();
        CudaLike {
            hs: HStreams::init_with_ordering(platform, mode, OrderingMode::StrictFifo),
            events: Vec::new(),
            api: BTreeMap::new(),
            host_bufs: Vec::new(),
            partition: 4,
            created: vec![0; ndom],
        }
    }

    /// Set how many concurrent streams will share each device's capacity
    /// (call before creating streams).
    pub fn with_stream_partition(mut self, n: u32) -> CudaLike {
        self.partition = n.max(1);
        self
    }

    fn bump(&mut self, name: &'static str) {
        *self.api.entry(name).or_insert(0) += 1;
    }

    /// Register a kernel (stands in for compiling a `__global__` with nvcc).
    pub fn register_kernel(&mut self, name: &str, f: TaskFn) {
        self.hs.register(name, f);
    }

    pub fn device_count(&self) -> usize {
        self.hs.platform().domains.len().saturating_sub(1)
    }

    /// `cudaStreamCreate` — whole-device stream (CUDA cannot subdivide a
    /// device into core groups: "Unlike CUDA Streams, hStreams allows the
    /// possibility of dividing the computing resources into smaller
    /// groups").
    pub fn stream_create(&mut self, device: DomainId) -> HsResult<CuStream> {
        self.bump("cudaStreamCreate");
        let cores = self.hs.domains()[device.0].cores;
        // CUDA exposes no subdivision; concurrently active streams share the
        // device. Model: each stream owns an even share of the cores.
        let share = (cores / self.partition).max(1);
        let idx = self.created[device.0] % self.partition;
        self.created[device.0] += 1;
        let inner = self
            .hs
            .stream_create(device, CpuMask::range(idx * share, share))?;
        Ok(CuStream { inner, device })
    }

    pub fn stream_destroy(&mut self, _s: CuStream) {
        self.bump("cudaStreamDestroy");
        // Streams are pooled in the runtime; destruction is bookkeeping.
    }

    /// `cudaMallocHost` — host staging allocation.
    pub fn host_alloc(&mut self, bytes: usize) -> BufferId {
        self.bump("cudaMallocHost");
        let b = self.hs.buffer_create(bytes, BufProps::default());
        self.host_bufs.push(b);
        b
    }

    /// `cudaMalloc` — device allocation; returns a device pointer the
    /// caller must track per device.
    pub fn malloc(&mut self, device: DomainId, host: BufferId) -> HsResult<DevPtr> {
        self.bump("cudaMalloc");
        self.hs.buffer_instantiate(host, device)?;
        Ok(DevPtr { device, buf: host })
    }

    pub fn free(&mut self, _p: DevPtr) {
        self.bump("cudaFree");
    }

    /// `cudaMemcpyAsync` host→device.
    pub fn memcpy_h2d_async(
        &mut self,
        s: CuStream,
        dst: DevPtr,
        range: Range<usize>,
    ) -> HsResult<()> {
        self.bump("cudaMemcpyAsync");
        self.hs
            .enqueue_xfer(s.inner, dst.buf, range, DomainId::HOST, dst.device)?;
        Ok(())
    }

    /// `cudaMemcpyAsync` device→host.
    pub fn memcpy_d2h_async(
        &mut self,
        s: CuStream,
        src: DevPtr,
        range: Range<usize>,
    ) -> HsResult<()> {
        self.bump("cudaMemcpyAsync");
        self.hs
            .enqueue_xfer(s.inner, src.buf, range, src.device, DomainId::HOST)?;
        Ok(())
    }

    /// Kernel launch (`<<<...>>>` / `cublasDgemm`-style call).
    pub fn launch(
        &mut self,
        s: CuStream,
        kernel: &str,
        args: Bytes,
        operands: &[(DevPtr, Range<usize>, Access)],
        cost: CostHint,
    ) -> HsResult<()> {
        self.bump("cudaLaunchKernel");
        let ops: Vec<Operand> = operands
            .iter()
            .map(|(p, r, a)| Operand::new(p.buf, r.clone(), *a))
            .collect();
        self.hs.enqueue_compute(s.inner, kernel, args, &ops, cost)?;
        Ok(())
    }

    /// `cudaEventCreate`.
    pub fn event_create(&mut self) -> CuEvent {
        self.bump("cudaEventCreate");
        self.events.push(None);
        CuEvent {
            slot: self.events.len() - 1,
        }
    }

    /// `cudaEventRecord` — the event completes when all work already in the
    /// stream completes.
    pub fn event_record(&mut self, ev: CuEvent, s: CuStream) -> HsResult<()> {
        self.bump("cudaEventRecord");
        let marker = self.hs.enqueue_marker(s.inner)?;
        self.events[ev.slot] = Some(marker);
        Ok(())
    }

    /// `cudaStreamWaitEvent` — later work in `s` waits for the recorded
    /// event.
    pub fn stream_wait_event(&mut self, s: CuStream, ev: CuEvent) -> HsResult<()> {
        self.bump("cudaStreamWaitEvent");
        let marker = self.events[ev.slot].ok_or_else(|| {
            hstreams_core::HsError::InvalidArg("event waited before being recorded".into())
        })?;
        self.hs.enqueue_event_wait(s.inner, &[marker])?;
        Ok(())
    }

    pub fn event_destroy(&mut self, _ev: CuEvent) {
        self.bump("cudaEventDestroy");
    }

    /// `cudaStreamSynchronize`.
    pub fn stream_synchronize(&mut self, s: CuStream) -> HsResult<()> {
        self.bump("cudaStreamSynchronize");
        self.hs.stream_synchronize(s.inner)
    }

    /// `cudaDeviceSynchronize`.
    pub fn device_synchronize(&mut self) -> HsResult<()> {
        self.bump("cudaDeviceSynchronize");
        self.hs.thread_synchronize()
    }

    /// Host data access (outside the counted API set, like plain memcpy to
    /// pinned memory).
    pub fn host_write_f64(&mut self, b: BufferId, off: usize, data: &[f64]) -> HsResult<()> {
        self.hs.buffer_write_f64(b, off, data)
    }

    pub fn host_read_f64(&mut self, b: BufferId, off: usize, out: &mut [f64]) -> HsResult<()> {
        self.hs.buffer_read_f64(b, off, out)
    }

    /// Measured API counts: (unique APIs, total calls).
    pub fn api_counts(&self) -> (usize, u64) {
        (self.api.len(), self.api.values().sum())
    }

    pub fn api_rows(&self) -> Vec<(&'static str, u64)> {
        self.api.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Elapsed (virtual or wall) seconds.
    pub fn now_secs(&self) -> f64 {
        self.hs.now_secs()
    }

    /// Escape hatch for tests.
    pub fn hstreams(&mut self) -> &mut HStreams {
        &mut self.hs
    }
}

/// Support-variable counts of the paper's Fig. 3 middle table, computed from
/// tile counts (M×N output tiles, L inner tiles).
pub struct SupportVars {
    pub hstreams: usize,
    pub cuda: usize,
}

pub fn support_vars(m: usize, n: usize, l: usize) -> SupportVars {
    SupportVars {
        // hStreams: 1 matrix[M][N][L] of events.
        hstreams: m * n * l,
        // CUDA: streams[M][N] + events[M][N][L] + cublas handle +
        //       device addrs for A[M][L], B[L][N], C[M][N].
        cuda: m * n + m * n * l + 1 + m * l + l * n + m * n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_machine::Device;
    use std::sync::Arc;

    fn rt() -> CudaLike {
        let mut cu = CudaLike::new(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
        cu.register_kernel(
            "inc",
            Arc::new(|ctx: &mut hstreams_core::TaskCtx| {
                for x in ctx.buf_f64_mut(0) {
                    *x += 1.0;
                }
            }),
        );
        cu
    }

    #[test]
    fn basic_offload_round_trip() {
        let mut cu = rt();
        let dev = DomainId(1);
        let s = cu.stream_create(dev).expect("stream");
        let h = cu.host_alloc(4 * 8);
        let d = cu.malloc(dev, h).expect("malloc");
        cu.host_write_f64(h, 0, &[1.0, 2.0, 3.0, 4.0])
            .expect("write");
        cu.memcpy_h2d_async(s, d, 0..32).expect("h2d");
        cu.launch(
            s,
            "inc",
            Bytes::new(),
            &[(d, 0..32, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("launch");
        cu.memcpy_d2h_async(s, d, 0..32).expect("d2h");
        cu.stream_synchronize(s).expect("sync");
        let mut out = [0.0; 4];
        cu.host_read_f64(h, 0, &mut out).expect("read");
        assert_eq!(out, [2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn strict_fifo_never_reorders() {
        // Two independent operations in one stream: the second cannot start
        // before the first (contrast with the hStreams OOO test). We verify
        // the *semantic* here (execution order), not timing: a slow first op
        // delays the second even though operands are disjoint.
        let mut cu = CudaLike::new(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
        let order = Arc::new(parking_lot_order::OrderLog::new());
        let o1 = order.clone();
        let o2 = order.clone();
        cu.register_kernel(
            "slow",
            Arc::new(move |_ctx: &mut hstreams_core::TaskCtx| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                o1.push("slow");
            }),
        );
        cu.register_kernel(
            "fast",
            Arc::new(move |_ctx: &mut hstreams_core::TaskCtx| {
                o2.push("fast");
            }),
        );
        let dev = DomainId(1);
        let s = cu.stream_create(dev).expect("stream");
        let h1 = cu.host_alloc(8);
        let h2 = cu.host_alloc(8);
        let d1 = cu.malloc(dev, h1).expect("malloc");
        let d2 = cu.malloc(dev, h2).expect("malloc");
        cu.launch(
            s,
            "slow",
            Bytes::new(),
            &[(d1, 0..8, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("launch slow");
        cu.launch(
            s,
            "fast",
            Bytes::new(),
            &[(d2, 0..8, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("launch fast");
        cu.device_synchronize().expect("sync");
        assert_eq!(order.snapshot(), vec!["slow", "fast"], "strict FIFO order");
    }

    mod parking_lot_order {
        pub struct OrderLog(std::sync::Mutex<Vec<&'static str>>);
        impl OrderLog {
            pub fn new() -> std::sync::Arc<OrderLog> {
                std::sync::Arc::new(OrderLog(std::sync::Mutex::new(Vec::new())))
            }
            pub fn push(&self, s: &'static str) {
                self.0.lock().expect("order log lock").push(s);
            }
            pub fn snapshot(&self) -> Vec<&'static str> {
                self.0.lock().expect("order log lock").clone()
            }
        }
    }

    #[test]
    fn events_enforce_cross_stream_order() {
        let mut cu = rt();
        let dev = DomainId(1);
        let s1 = cu.stream_create(dev).expect("s1");
        let s2 = cu.stream_create(dev).expect("s2");
        let h = cu.host_alloc(8 * 4);
        let d = cu.malloc(dev, h).expect("malloc");
        cu.host_write_f64(h, 0, &[0.0; 4]).expect("write");
        cu.memcpy_h2d_async(s1, d, 0..32).expect("h2d");
        cu.launch(
            s1,
            "inc",
            Bytes::new(),
            &[(d, 0..32, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("launch");
        let ev = cu.event_create();
        cu.event_record(ev, s1).expect("record");
        cu.stream_wait_event(s2, ev).expect("wait event");
        cu.launch(
            s2,
            "inc",
            Bytes::new(),
            &[(d, 0..32, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("launch 2");
        cu.memcpy_d2h_async(s2, d, 0..32).expect("d2h");
        cu.device_synchronize().expect("sync");
        let mut out = [0.0; 4];
        cu.host_read_f64(h, 0, &mut out).expect("read");
        assert_eq!(out, [2.0; 4]);
    }

    #[test]
    fn waiting_unrecorded_event_is_an_error() {
        let mut cu = rt();
        let s = cu.stream_create(DomainId(1)).expect("stream");
        let ev = cu.event_create();
        assert!(cu.stream_wait_event(s, ev).is_err());
    }

    #[test]
    fn api_calls_are_counted() {
        let mut cu = rt();
        let dev = DomainId(1);
        let s = cu.stream_create(dev).expect("stream");
        let h = cu.host_alloc(32);
        let d = cu.malloc(dev, h).expect("malloc");
        cu.memcpy_h2d_async(s, d, 0..32).expect("h2d");
        cu.stream_synchronize(s).expect("sync");
        let (unique, total) = cu.api_counts();
        assert!(unique >= 5);
        assert!(total >= 5);
        assert!(cu
            .api_rows()
            .iter()
            .any(|(k, v)| *k == "cudaMalloc" && *v == 1));
    }

    #[test]
    fn support_vars_match_fig3_formulas() {
        // 5x5 tiling with 5 inner tiles: Fig 3 shape.
        let sv = support_vars(5, 5, 5);
        assert_eq!(sv.hstreams, 125);
        assert_eq!(sv.cuda, 25 + 125 + 1 + 25 + 25 + 25);
        assert!(sv.cuda > sv.hstreams, "CUDA needs more support variables");
    }
}
