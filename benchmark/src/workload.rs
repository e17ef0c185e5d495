//! The five workloads: what one repetition does, and how it is checked.
//!
//! Every repetition builds a fresh runtime (the apps create their streams
//! and buffers inside `run`, so a runtime is not reusable across runs),
//! which also makes set-up a per-repetition sample. The platform is always
//! `PlatformCfg::hetero(Device::Hsw, 1)` in `ExecMode::Threads`,
//! out-of-order, unpaced, two streams per domain: this host has two cores.

use crate::spans::Spans;
use bytes::Bytes;
use hs_apps::cholesky::{self, CholConfig, CholVariant};
use hs_apps::matmul::{self, MatmulConfig};
use hs_machine::{Device, PlatformCfg};
use hs_obs::ObsRecord;
use hstreams_core::{
    Access, BatchAction, BufferId, CostHint, DomainId, Endpoint, ExecMode, HStreams, Operand,
    StreamId, TaskCtx,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Streams per domain, host and card alike.
pub const STREAMS: usize = 2;
/// Buffers each `smallact` stream owns.
const BUFS_PER_STREAM: usize = 8;
/// `f64`s per `smallact` buffer: 4 KiB.
const BUF_F64S: usize = 512;
const BUF_BYTES: usize = BUF_F64S * 8;
/// Actions per `enqueue_many` call in the batched half of `smallact`.
const BATCH: usize = 64;
/// `stream_synchronize` after this many actions on a stream.
const SYNC_EVERY: usize = 512;
/// The sink function `smallact` and the round-trip probe enqueue.
pub const KERNEL: &str = "e2e_axpb";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    MatmulLocal,
    CholeskyLocal,
    MatmulUds,
    Smallact,
    SmallactWal,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MatmulLocal,
        Workload::CholeskyLocal,
        Workload::MatmulUds,
        Workload::Smallact,
        Workload::SmallactWal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatmulLocal => "matmul_local",
            Workload::CholeskyLocal => "cholesky_local",
            Workload::MatmulUds => "matmul_uds",
            Workload::Smallact => "smallact",
            Workload::SmallactWal => "smallact_wal",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_app(self) -> bool {
        !matches!(self, Workload::Smallact | Workload::SmallactWal)
    }

    /// Card 1 lives in a worker process.
    pub fn remote(self) -> bool {
        self == Workload::MatmulUds
    }

    /// The share of a run during which the workload keeps the second core
    /// busy, which sets how it slows down when the VM loses part of that
    /// core (see [`crate::calib`]). Measured on this host as
    /// `(T'/T − 1)/(k − 1)` over repetitions in a slow phase, `T` the median
    /// run time in clean phases and `k` the slow-down of the all-cores
    /// calibration loop: 0.80 (quartiles 0.75–0.87, 156 slow-phase
    /// repetitions) for `matmul_local`, 0.29 (0.25–0.36, 267) for
    /// `cholesky_local`, 0.38 (0.35–0.42, 17) for `matmul_uds`, whose wire
    /// half is a ping-pong between two processes. `smallact` came out at
    /// −0.2 (7 repetitions): its source thread is busy 80–85 % of the run
    /// and wake-ups get cheaper when both virtual cores share a physical
    /// one, so it is treated as serial, and `smallact_wal`, the same
    /// driver, with it.
    ///
    /// A program change that alters a workload's parallelism makes its
    /// number stale; that costs steadiness across phases, not correctness
    /// within one.
    pub fn parallel_share(self) -> f64 {
        match self {
            Workload::MatmulLocal => 0.8,
            Workload::CholeskyLocal => 0.3,
            Workload::MatmulUds => 0.4,
            Workload::Smallact | Workload::SmallactWal => 0.0,
        }
    }

    /// The action log is on disk, fsynced.
    pub fn durable(self) -> bool {
        self == Workload::SmallactWal
    }
}

/// Problem sizes: the measured ones, or `--smoke`'s.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub matmul: (usize, usize),
    pub cholesky: (usize, usize),
    pub actions: usize,
    pub rtt_trips: usize,
}

impl Size {
    pub const FULL: Size = Size {
        matmul: (1024, 128),
        cholesky: (1024, 64),
        actions: 20_000,
        rtt_trips: 2_000,
    };
    pub const SMOKE: Size = Size {
        matmul: (256, 64),
        cholesky: (256, 64),
        actions: 2_000,
        rtt_trips: 200,
    };
}

/// How a repetition's runtime is built.
#[derive(Clone, Debug, Default)]
pub struct RtCfg {
    /// Card 1 is the worker at this endpoint, not in-process.
    pub endpoint: Option<Endpoint>,
    /// Durable action log under this (fresh, empty) root, `fsync = true`,
    /// 25 ms group commit.
    pub wal_root: Option<PathBuf>,
}

impl RtCfg {
    pub fn init(&self, mode: ExecMode) -> Result<HStreams, String> {
        let platform = PlatformCfg::hetero(Device::Hsw, 1);
        let hs = match &self.endpoint {
            Some(ep) => {
                HStreams::init_remote(platform, mode, &[(1, ep.clone())]).map_err(err_text)?
            }
            None => HStreams::init(platform, mode),
        };
        if let Some(root) = &self.wal_root {
            hs.durability_opts(root, true, 25).map_err(err_text)?;
        }
        Ok(hs)
    }
}

fn err_text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// How much a repetition records about itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trace {
    /// Nothing: the pass the end-to-end metrics come from.
    Off,
    /// `hs-obs` lifecycle records and, in `smallact*`, the time spent in
    /// the driver's own calls into `hstreams-core`.
    Metrics,
    /// Also one span per such call, for the trace file. One repetition per
    /// run is enough of those: 20 000 actions are 6 MB of JSON.
    Detail,
}

/// What the traced pass additionally brings back from a repetition.
pub struct Traced {
    pub records: Vec<ObsRecord>,
    /// Benchmark-clock time at which the runtime's obs clock read zero.
    pub clock_offset_ns: u64,
    /// `hs.metrics()` rows plus the `hs.wal_stats()` fields it omits.
    pub counters: BTreeMap<String, f64>,
    /// Highest `events.live` seen at the driver's sample points.
    pub events_live_peak: f64,
    pub calls: CallTimes,
}

/// One repetition's outcome. `Err` from the functions below, a panic and a
/// watchdog expiry all count as one failed attempt.
pub struct Rep {
    /// First enqueue to `thread_synchronize` returning, seconds.
    pub run_s: f64,
    pub max_err: f64,
    pub checksum: u64,
    pub spans: Spans,
    pub traced: Option<Traced>,
}

/// Time the driver spent inside its own calls into `hstreams-core`
/// (`smallact*`, traced repetitions only).
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTimes {
    pub single_compute_s: f64,
    pub single_computes: u64,
    pub single_xfer_s: f64,
    pub single_xfers: u64,
    pub batched_s: f64,
    pub batched_actions: u64,
    pub sync_s: f64,
}

impl CallTimes {
    pub fn enqueue_s(&self) -> f64 {
        self.single_compute_s + self.single_xfer_s + self.batched_s
    }
}

fn snapshot(hs: &HStreams) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = hs.metrics().rows().into_iter().collect();
    if let Some(ws) = hs.wal_stats() {
        m.insert("wal.fsyncs".into(), ws.fsyncs as f64);
        m.insert("wal.fsync_batched".into(), ws.fsync_batched as f64);
    }
    m
}

// ---------------------------------------------------------------- the apps

/// One verified run of the tiled matmul or Cholesky app.
pub fn app_rep(
    w: Workload,
    size: &Size,
    rt: &RtCfg,
    mut spans: Spans,
    trace: Trace,
) -> Result<Rep, String> {
    spans.open("core.init");
    let mut hs = rt.init(ExecMode::Threads)?;
    spans.close();
    let clock_offset_ns = spans.now_ns();
    hs.obs_enable(trace != Trace::Off);
    spans.open("apps.run");
    let out = app_run(w, size, &mut hs);
    spans.close();
    let (run_s, max_err, checksum) = out?;
    let traced = (trace != Trace::Off).then(|| {
        let counters = snapshot(&hs);
        Traced {
            records: hs.take_obs_records(),
            clock_offset_ns,
            events_live_peak: counters.get("events.live").copied().unwrap_or(0.0),
            counters,
            calls: CallTimes::default(),
        }
    });
    spans.open("core.teardown");
    drop(hs);
    spans.close();
    Ok(Rep {
        run_s,
        max_err,
        checksum,
        spans,
        traced,
    })
}

/// `(secs, max_err, checksum)` of the app on `hs`; the last two only under
/// `verify`.
fn app_exec(
    w: Workload,
    size: &Size,
    hs: &mut HStreams,
    verify: bool,
) -> Result<(f64, Option<f64>, Option<u64>), String> {
    if w == Workload::CholeskyLocal {
        let (n, tile) = size.cholesky;
        let mut cfg = CholConfig::new(n, tile, CholVariant::Hetero);
        cfg.streams_host = STREAMS;
        cfg.streams_per_card = STREAMS;
        cfg.verify = verify;
        let r = cholesky::run(hs, &cfg).map_err(err_text)?;
        Ok((r.secs, r.max_err, r.checksum))
    } else {
        let (n, tile) = size.matmul;
        let mut cfg = MatmulConfig::new(n, tile);
        cfg.streams_host = STREAMS;
        cfg.streams_per_card = STREAMS;
        cfg.verify = verify;
        let r = matmul::run(hs, &cfg).map_err(err_text)?;
        Ok((r.secs, r.max_err, r.checksum))
    }
}

/// A verified run. The apps only load real data under `verify` (a
/// thread-mode Cholesky without it factors the zero matrix and panics), so
/// every repetition verifies.
fn app_run(w: Workload, size: &Size, hs: &mut HStreams) -> Result<(f64, f64, u64), String> {
    let (secs, Some(max_err), Some(checksum)) = app_exec(w, size, hs, true)? else {
        return Err("app did not verify its result".to_string());
    };
    let tol = if w == Workload::CholeskyLocal {
        1e-9
    } else {
        1e-10
    };
    if max_err.is_nan() || max_err > tol {
        return Err(format!("max_err {max_err:e} over the {tol:e} tolerance"));
    }
    Ok((secs, max_err, checksum))
}

/// Sim-mode prediction for the same app configuration: `(predicted
/// seconds, wall seconds the replay took)`.
pub fn app_sim(w: Workload, size: &Size) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let mut hs = RtCfg::default().init(ExecMode::Sim)?;
    let (secs, ..) = app_exec(w, size, &mut hs, false)?;
    Ok((secs, t.elapsed().as_secs_f64()))
}

// --------------------------------------------------------------- smallact

/// `dst = dst·½ + c (+ src·¼)`: the last operand is the in-out
/// destination, an optional first one the input; `c` is the 8 argument
/// bytes. The halving makes the result depend on the order tasks ran in,
/// so an ordering bug cannot hide behind commuting adds.
///
/// The input comes first because `RunCtx::buf_f64_pair_mut(ro, rw)` hands
/// back the wrong pair when `ro > rw` (it takes the write view of the
/// read operand and panics); with `ro < rw` it is correct.
fn kernel(ctx: &mut TaskCtx) {
    let c = f64::from_le_bytes(ctx.args()[..8].try_into().expect("8 argument bytes"));
    if ctx.num_bufs() == 2 {
        let (src, dst) = ctx.buf_f64_pair_mut(0, 1);
        apply(dst, Some(src), c);
    } else {
        apply(ctx.buf_f64_mut(0), None, c);
    }
}

/// The arithmetic of [`kernel`], shared with the sequential oracle so the
/// two cannot drift apart: same operations, same order, same bits.
fn apply(dst: &mut [f64], src: Option<&[f64]>, c: f64) {
    match src {
        Some(src) => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = *d * 0.5 + *s * 0.25 + c;
            }
        }
        None => {
            for d in dst {
                *d = *d * 0.5 + c;
            }
        }
    }
}

/// The kernel table entry the runtime and the worker both register.
pub fn kernel_fn() -> hstreams_core::TaskFn {
    Arc::new(kernel)
}

/// splitmix64: the benchmark's own generator, so inputs depend on `--seed`
/// and on nothing in the repo.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[derive(Clone, Copy, Debug)]
struct Task {
    /// 0..STREAMS are host streams, STREAMS..2·STREAMS card streams.
    stream: usize,
    dst: usize,
    src: Option<usize>,
    c: f64,
}

impl Task {
    fn on_card(&self) -> bool {
        self.stream >= STREAMS
    }

    /// A host task is one compute; a card task is H2D, compute, D2H.
    fn actions(&self) -> usize {
        if self.on_card() {
            3
        } else {
            1
        }
    }
}

/// `smallact`'s inputs, drawn from the workload seed, and what a
/// sequential execution of them leaves in every buffer (DESIGN.md §4: the
/// out-of-order runtime must be indistinguishable from this).
pub struct Plan {
    tasks: Vec<Task>,
    /// `[stream][buffer]` initial contents.
    init: Vec<Vec<Vec<f64>>>,
    /// `[stream][buffer]` contents after the last task.
    expect: Vec<Vec<Vec<f64>>>,
}

impl Plan {
    /// Tasks round-robin over the four streams until `actions` actions are
    /// planned. Streams own their buffers, so the per-stream FIFO order
    /// alone fixes the result.
    pub fn new(seed: u64, actions: usize) -> Plan {
        let mut rng = Rng::new(seed);
        let init: Vec<Vec<Vec<f64>>> = (0..2 * STREAMS)
            .map(|_| {
                (0..BUFS_PER_STREAM)
                    .map(|_| (0..BUF_F64S).map(|_| rng.next_f64()).collect())
                    .collect()
            })
            .collect();
        let mut tasks = Vec::new();
        let mut planned = 0;
        while planned < actions {
            let stream = tasks.len() % (2 * STREAMS);
            let dst = rng.below(BUFS_PER_STREAM);
            // Half the tasks read a second buffer (In), half touch only
            // their in-out operand.
            let src = (rng.below(2) == 0)
                .then(|| (dst + 1 + rng.below(BUFS_PER_STREAM - 1)) % BUFS_PER_STREAM);
            let t = Task {
                stream,
                dst,
                src,
                c: rng.next_f64(),
            };
            planned += t.actions();
            tasks.push(t);
        }
        let mut expect = init.clone();
        for t in &tasks {
            let bufs = &mut expect[t.stream];
            let src = t.src.map(|s| bufs[s].clone());
            apply(&mut bufs[t.dst], src.as_deref(), t.c);
        }
        Plan {
            tasks,
            init,
            expect,
        }
    }

    /// Break the oracle (the smoke test's proof that a wrong result is
    /// caught, not a way to measure anything).
    pub fn corrupt(&mut self) {
        self.expect[0][0][0] += 1.0;
    }
}

struct Rig {
    hs: HStreams,
    streams: Vec<StreamId>,
    /// `[stream][buffer]`.
    bufs: Vec<Vec<BufferId>>,
    card: DomainId,
}

impl Rig {
    /// Runtime, kernel, `host` + `card` streams (host first), and every
    /// stream's buffers created, filled and — for card streams — resident
    /// on the card.
    fn new(
        rt: &RtCfg,
        host: usize,
        card_streams: usize,
        init: &[Vec<Vec<f64>>],
        spans: &mut Spans,
    ) -> Result<Rig, String> {
        spans.open("core.init");
        let hs = rt.init(ExecMode::Threads)?;
        hs.register(KERNEL, kernel_fn());
        let card = hs.domains()[1].id;
        // `app_init` refuses to partition a domain into zero streams.
        let wanted: Vec<_> = [(DomainId::HOST, host), (card, card_streams)]
            .into_iter()
            .filter(|(_, n)| *n > 0)
            .collect();
        let streams = hs.app_init(&wanted).map_err(err_text)?;
        spans.close();
        spans.open("core.buffers");
        let mut bufs = Vec::new();
        for (s, contents) in streams.iter().zip(init) {
            let on_card = hs.stream_domain(*s).map_err(err_text)? == card;
            let mut row = Vec::new();
            for data in contents {
                let b = hs.buffer_create(BUF_BYTES, Default::default());
                hs.buffer_write_f64(b, 0, data).map_err(err_text)?;
                if on_card {
                    hs.buffer_instantiate(b, card).map_err(err_text)?;
                    hs.xfer_to_sink(*s, b, 0..BUF_BYTES).map_err(err_text)?;
                }
                row.push(b);
            }
            bufs.push(row);
        }
        hs.thread_synchronize().map_err(err_text)?;
        spans.close();
        Ok(Rig {
            hs,
            streams,
            bufs,
            card,
        })
    }

    fn operands(&self, t: &Task) -> Vec<Operand> {
        let row = &self.bufs[t.stream];
        let src = t
            .src
            .map(|s| Operand::f64s(row[s], 0, BUF_F64S, Access::In));
        let dst = Operand::f64s(row[t.dst], 0, BUF_F64S, Access::InOut);
        src.into_iter().chain([dst]).collect()
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn args(c: f64) -> Bytes {
    Bytes::copy_from_slice(&c.to_le_bytes())
}

/// One of the driver's own calls into `hstreams-core`.
#[derive(Clone, Copy)]
enum Call {
    Compute,
    Xfer,
    /// `enqueue_many` of this many actions.
    Batch(usize),
    Sync,
}

/// The driver's stopwatch around those calls. Off in the untraced pass,
/// which measures the program and not the benchmark's clock reads.
struct Stopwatch {
    trace: Trace,
    spans: Spans,
    calls: CallTimes,
}

impl Stopwatch {
    fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        if self.trace == Trace::Off {
            return f();
        }
        let start = self.spans.now_ns();
        let out = f();
        let end = self.spans.now_ns();
        let secs = (end - start) as f64 / 1e9;
        let c = &mut self.calls;
        let name = match call {
            Call::Compute => {
                c.single_compute_s += secs;
                c.single_computes += 1;
                "core.enqueue_compute"
            }
            Call::Xfer => {
                c.single_xfer_s += secs;
                c.single_xfers += 1;
                "core.enqueue_xfer"
            }
            Call::Batch(n) => {
                c.batched_s += secs;
                c.batched_actions += n as u64;
                "core.enqueue_many"
            }
            Call::Sync => {
                c.sync_s += secs;
                "core.synchronize"
            }
        };
        if self.trace == Trace::Detail {
            self.spans.leaf(name, start, end);
        }
        out
    }
}

/// One `smallact` repetition: the plan's tasks on 2 host + 2 card streams,
/// the first half enqueued one call per action, the second half through
/// `enqueue_many` in batches of [`BATCH`], `stream_synchronize` every
/// [`SYNC_EVERY`] actions per stream; then every buffer read back and
/// compared, bit for bit, with the sequential oracle.
pub fn smallact_rep(
    plan: &Plan,
    rt: &RtCfg,
    mut spans: Spans,
    trace: Trace,
) -> Result<Rep, String> {
    let rig = Rig::new(rt, STREAMS, STREAMS, &plan.init, &mut spans)?;
    let hs = &rig.hs;
    let clock_offset_ns = spans.now_ns();
    hs.obs_enable(trace != Trace::Off);
    spans.open("smallact.run");
    let mut watch = Stopwatch {
        trace,
        spans,
        calls: CallTimes::default(),
    };
    let mut events_live_peak = 0.0f64;
    let mut pending: Vec<Vec<BatchAction>> = vec![Vec::new(); rig.streams.len()];
    let mut since_sync = vec![0usize; rig.streams.len()];
    let flush = |watch: &mut Stopwatch, s: usize, pending: &mut Vec<Vec<BatchAction>>| {
        let batch = std::mem::take(&mut pending[s]);
        if batch.is_empty() {
            return Ok(());
        }
        watch
            .time(Call::Batch(batch.len()), || {
                hs.enqueue_many(rig.streams[s], batch)
            })
            .map(drop)
            .map_err(err_text)
    };

    let t0 = Instant::now();
    let batched_from = plan.tasks.len() / 2;
    for (i, t) in plan.tasks.iter().enumerate() {
        let (s, sid) = (t.stream, rig.streams[t.stream]);
        let dst = rig.bufs[s][t.dst];
        let (to_card, to_host) = ((DomainId::HOST, rig.card), (rig.card, DomainId::HOST));
        if i < batched_from {
            let xfer = |watch: &mut Stopwatch, (from, to)| {
                watch
                    .time(Call::Xfer, || {
                        hs.enqueue_xfer(sid, dst, 0..BUF_BYTES, from, to)
                    })
                    .map_err(err_text)
            };
            if t.on_card() {
                xfer(&mut watch, to_card)?;
            }
            watch
                .time(Call::Compute, || {
                    let ops = rig.operands(t);
                    hs.enqueue_compute(sid, KERNEL, args(t.c), &ops, CostHint::trivial())
                })
                .map_err(err_text)?;
            if t.on_card() {
                xfer(&mut watch, to_host)?;
            }
        } else {
            let xfer = |(from, to)| BatchAction::Xfer {
                buf: dst,
                range: 0..BUF_BYTES,
                from,
                to,
            };
            let compute = BatchAction::Compute {
                func: KERNEL.to_string(),
                args: args(t.c),
                operands: rig.operands(t),
                cost: CostHint::trivial(),
            };
            let actions = if t.on_card() {
                vec![xfer(to_card), compute, xfer(to_host)]
            } else {
                vec![compute]
            };
            for a in actions {
                pending[s].push(a);
                if pending[s].len() == BATCH {
                    flush(&mut watch, s, &mut pending)?;
                }
            }
        }
        since_sync[s] += t.actions();
        if since_sync[s] >= SYNC_EVERY {
            since_sync[s] = 0;
            flush(&mut watch, s, &mut pending)?;
            watch
                .time(Call::Sync, || hs.stream_synchronize(sid))
                .map_err(err_text)?;
            if trace != Trace::Off {
                let live = hs.metrics().extra.get("events.live").copied();
                events_live_peak = events_live_peak.max(live.unwrap_or(0.0));
            }
        }
    }
    for s in 0..pending.len() {
        flush(&mut watch, s, &mut pending)?;
    }
    watch
        .time(Call::Sync, || hs.thread_synchronize())
        .map_err(err_text)?;
    let run_s = t0.elapsed().as_secs_f64();
    let Stopwatch {
        mut spans, calls, ..
    } = watch;
    spans.close();

    spans.open("smallact.readback");
    let mut got = vec![0.0; BUF_F64S];
    let mut checksum = 0u64;
    let mut wrong = 0usize;
    for (row, expect) in rig.bufs.iter().zip(&plan.expect) {
        for (buf, expect) in row.iter().zip(expect) {
            hs.buffer_read_f64(*buf, 0, &mut got).map_err(err_text)?;
            wrong += usize::from(!same_bits(&got, expect));
            checksum = checksum.rotate_left(7) ^ hs_apps::remote::checksum_f64s(&got);
        }
    }
    spans.close();
    let traced = (trace != Trace::Off).then(|| Traced {
        counters: snapshot(hs),
        records: hs.take_obs_records(),
        clock_offset_ns,
        events_live_peak,
        calls,
    });
    spans.open("core.teardown");
    drop(rig);
    spans.close();
    if wrong > 0 {
        return Err(format!("{wrong} buffers differ from the sequential oracle"));
    }
    Ok(Rep {
        run_s,
        max_err: 0.0,
        checksum,
        spans,
        traced,
    })
}

// ------------------------------------------------------------- round trips

/// The round-trip probe: one card stream, one resident 4 KiB buffer; each
/// trip enqueues one compute on it and waits for its event.
pub struct RttRig {
    rig: Rig,
    value: Vec<f64>,
}

impl RttRig {
    pub fn new(rt: &RtCfg, spans: &mut Spans) -> Result<RttRig, String> {
        let value = vec![1.0; BUF_F64S];
        let rig = Rig::new(rt, 0, 1, &[vec![value.clone()]], spans)?;
        Ok(RttRig { rig, value })
    }

    /// `n` sequential round trips; seconds each took.
    pub fn trips(&mut self, n: usize) -> Result<Vec<f64>, String> {
        let (hs, s, buf) = (&self.rig.hs, self.rig.streams[0], self.rig.bufs[0][0]);
        let ops = [Operand::f64s(buf, 0, BUF_F64S, Access::InOut)];
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            let ev = hs
                .enqueue_compute(s, KERNEL, args(0.25), &ops, CostHint::trivial())
                .map_err(err_text)?;
            hs.event_wait(ev).map_err(err_text)?;
            out.push(t.elapsed().as_secs_f64());
            apply(&mut self.value, None, 0.25);
        }
        Ok(out)
    }

    /// Bring the buffer home and compare it with the oracle's.
    pub fn verify(self) -> Result<(), String> {
        let (hs, s, buf) = (&self.rig.hs, self.rig.streams[0], self.rig.bufs[0][0]);
        hs.xfer_to_source(s, buf, 0..BUF_BYTES).map_err(err_text)?;
        hs.stream_synchronize(s).map_err(err_text)?;
        let mut got = vec![0.0; BUF_F64S];
        hs.buffer_read_f64(buf, 0, &mut got).map_err(err_text)?;
        if same_bits(&got, &self.value) {
            Ok(())
        } else {
            Err("round-trip buffer differs from the sequential oracle".to_string())
        }
    }
}
