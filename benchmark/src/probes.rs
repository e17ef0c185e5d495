//! Per-layer probes: the benchmark timing loops of calls into each layer's
//! public functions, warm, median of [`SAMPLES`] samples.
//!
//! They run in every traced pass whatever the workload, so that a layer's
//! own speed is on record next to the workload numbers it should explain.

use crate::guard::{Scratch, Worker};
use crate::spans::Spans;
use crate::stats::median;
use bytes::Bytes;
use hs_coi::{CoiRuntime, EngineId, Workgroup};
use hs_fabric::proto::{self, Kind};
use hs_fabric::{LocalTransport, Pacer, RemoteDomain, Transport};
use hs_linalg::dense::{random, random_spd};
use hs_linalg::{blas3, factor, flops};
use hstreams_core::ChaosHub;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Samples per probe.
const SAMPLES: usize = 200;
/// A probe whose calls are slow stops sampling after this long, once it has
/// [`MIN_SAMPLES`]: the TCP transport's 40 ms round trips would otherwise
/// take half a traced pass.
const PROBE_CAP_S: f64 = 0.4;
const MIN_SAMPLES: usize = 10;
/// Unmeasured calls before sampling starts.
const WARM: usize = 20;
/// Payload of the transport and framing probes.
const XFER_BYTES: usize = 128 << 10;
/// Payload of one WAL probe record.
const WAL_RECORD: usize = 128;
/// The WAL probe flushes after this many appended bytes.
const WAL_FLUSH_EVERY: usize = 32 << 10;

/// Median seconds of `f` over [`SAMPLES`] calls (fewer past
/// [`PROBE_CAP_S`]) after [`WARM`] warm-ups; `prep` runs before each call,
/// untimed.
fn sample_with<S>(state: &mut S, mut prep: impl FnMut(&mut S), mut f: impl FnMut(&mut S)) -> f64 {
    let mut secs = Vec::with_capacity(SAMPLES);
    let mut spent = 0.0;
    for i in 0..WARM + SAMPLES {
        prep(state);
        let t = Instant::now();
        f(state);
        let dt = t.elapsed().as_secs_f64();
        spent += dt;
        if i >= WARM || spent > PROBE_CAP_S {
            secs.push(dt);
        }
        if spent > PROBE_CAP_S && secs.len() >= MIN_SAMPLES {
            break;
        }
    }
    median(&secs)
}

/// [`sample_with`] for a call that needs nothing prepared.
fn sample(mut f: impl FnMut()) -> f64 {
    sample_with(&mut (), |_| (), |_| f())
}

fn mbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e6
}

/// One layer's probes: fills in its metrics, or says what failed.
type Probe<'a> = dyn FnMut(&mut BTreeMap<String, f64>) -> Result<(), String> + 'a;

/// Every probe metric by name, and how each group of probes went: the
/// caller counts an `Err` as a failure and reports the metrics it did get.
pub struct Probes {
    pub metrics: BTreeMap<String, f64>,
    pub outcomes: Vec<Result<(), String>>,
}

pub fn run_all(scratch: &Scratch, spans: &mut Spans) -> Probes {
    let mut p = Probes {
        metrics: BTreeMap::new(),
        outcomes: Vec::new(),
    };
    let mut layer = |name: &'static str, f: &mut Probe| {
        spans.open(name);
        let r = f(&mut p.metrics);
        p.outcomes.push(r.map_err(|e| format!("{name}: {e}")));
        spans.close();
    };
    layer("probe.linalg", &mut |m| {
        linalg(m);
        Ok(())
    });
    layer("probe.coi", &mut coi);
    layer("probe.fabric.framing", &mut framing);
    layer("probe.fabric.local", &mut |m| {
        transport(m, &LocalTransport::new())
    });
    layer("probe.fabric.uds", &mut |m| {
        let w = Worker::spawn_uds(&scratch.path("probe.sock"))?;
        let t = RemoteDomain::connect(&w.endpoint(), 1, ChaosHub::default())
            .map_err(|e| format!("connecting: {e}"))?;
        transport(m, &t)
    });
    layer("probe.fabric.tcp", &mut |m| {
        let w = Worker::spawn_tcp()?;
        let t = RemoteDomain::connect(&w.endpoint(), 1, ChaosHub::default())
            .map_err(|e| format!("connecting: {e}"))?;
        transport(m, &t)
    });
    layer("probe.wal", &mut |m| wal(m, scratch));
    p
}

/// Single-thread tile kernels at the two tile sizes the apps use.
fn linalg(m: &mut BTreeMap<String, f64>) {
    let gf = |fl: f64, secs: f64| fl / secs / 1e9;
    for t in [128usize, 64] {
        let (a, b) = (random(t, t, 1), random(t, t, 2));
        let mut c = vec![0.0; t * t];
        let secs = sample(|| {
            blas3::dgemm(1.0, a.as_slice(), b.as_slice(), 0.0, &mut c, t, t, t);
            black_box(&c);
        });
        m.insert(
            format!("linalg.dgemm_gflops_t{t}"),
            gf(flops::gemm(t, t, t), secs),
        );
    }
    let t = 64;
    let a = random(t, t, 3);
    let spd = random_spd(t, 4);
    let mut l = spd.as_slice().to_vec();
    factor::dpotrf(&mut l, t).expect("random_spd is positive definite");
    // Each kernel updates its operand in place; it is restored before every
    // sample so values cannot drift into denormals or infinities.
    let start = random(t, t, 5);
    let mut c = start.as_slice().to_vec();
    let reset = |c: &mut Vec<f64>, from: &[f64]| c.copy_from_slice(from);
    let secs = sample_with(
        &mut c,
        |c| reset(c, start.as_slice()),
        |c| {
            blas3::dsyrk_ln(a.as_slice(), c, t, t);
            black_box(&*c);
        },
    );
    m.insert("linalg.syrk_gflops_t64".into(), gf(flops::syrk(t, t), secs));
    let secs = sample_with(
        &mut c,
        |c| reset(c, start.as_slice()),
        |c| {
            blas3::dtrsm_rlt(&l, c, t, t);
            black_box(&*c);
        },
    );
    m.insert("linalg.trsm_gflops_t64".into(), gf(flops::trsm(t, t), secs));
    let secs = sample_with(
        &mut c,
        |c| reset(c, spd.as_slice()),
        |c| {
            factor::dpotrf(c, t).expect("random_spd is positive definite");
            black_box(&*c);
        },
    );
    m.insert("linalg.potrf_gflops_t64".into(), gf(flops::potrf(t), secs));
}

/// Pipeline hand-off, workgroup fork/join and pooled allocation.
fn coi(m: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let rt = CoiRuntime::new(1, Pacer::unpaced());
    rt.register("noop", Arc::new(|_ctx: &mut hs_coi::RunCtx| {}));
    let card = EngineId(1);
    let pipe = rt.pipeline_create(card, 1);
    let mut failed = 0u32;
    let secs = sample(|| {
        failed += u32::from(pipe.run("noop", Bytes::new(), Vec::new()).wait().is_err());
    });
    if failed > 0 {
        return Err(format!("{failed} no-op run functions failed"));
    }
    m.insert("coi.pipeline_run_us".into(), secs * 1e6);

    let wg = Workgroup::new(2, "e2e-probe", None);
    let secs = sample(|| {
        wg.par_for(2, |i| {
            black_box(i);
        })
    });
    m.insert("coi.workgroup_forkjoin_us_w2".into(), secs * 1e6);

    // Alloc and free alternate, so after the first miss every allocation
    // should come off the free list.
    let mut held = None;
    let secs = sample_with(
        &mut held,
        |held| {
            if let Some(w) = held.take() {
                rt.buffer_free(card, w);
            }
        },
        |held| *held = Some(rt.buffer_alloc(card, 4096, true)),
    );
    m.insert("coi.pool_alloc_us".into(), secs * 1e6);
    let ps = rt.pool_stats(card);
    m.insert(
        "coi.pool_hit_frac".into(),
        ps.hits as f64 / (ps.hits + ps.misses).max(1) as f64,
    );
    Ok(())
}

/// The wire format alone, on in-memory buffers: CRC, encode, decode.
fn framing(m: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let payload: Vec<u8> = (0..XFER_BYTES).map(|i| (i * 31) as u8).collect();
    let secs = sample(|| {
        black_box(proto::crc32(black_box(&payload)));
    });
    m.insert("fabric.crc32_MBps".into(), mbps(XFER_BYTES, secs));

    let mut wire = Vec::with_capacity(XFER_BYTES + 64);
    let mut bad = 0u32;
    let secs = sample_with(&mut wire, Vec::clear, |wire| {
        bad += u32::from(proto::send_frame(wire, Kind::Write, &payload).is_err());
    });
    m.insert("fabric.frame_encode_MBps".into(), mbps(XFER_BYTES, secs));
    let secs = sample(|| match proto::recv_frame(&mut wire.as_slice()) {
        Ok((_, got, _)) if got.len() == XFER_BYTES => drop(black_box(got)),
        _ => bad += 1,
    });
    m.insert("fabric.frame_decode_MBps".into(), mbps(XFER_BYTES, secs));
    if bad > 0 {
        return Err(format!("{bad} frames failed to encode or decode"));
    }
    Ok(())
}

/// `ping`, `write` and `read` of one transport, timed around the calls
/// (what a DMA worker waits for), 128 KiB payloads.
fn transport(m: &mut BTreeMap<String, f64>, t: &dyn Transport) -> Result<(), String> {
    const WIN: u64 = 1;
    let kind = t.kind();
    t.alloc(WIN, XFER_BYTES).map_err(|e| e.to_string())?;
    let data: Vec<u8> = (0..XFER_BYTES).map(|i| (i * 7) as u8).collect();
    let mut back = vec![0u8; XFER_BYTES];
    let mut errs = 0u32;
    let secs = sample(|| errs += u32::from(t.ping().is_err()));
    m.insert(format!("fabric.{kind}.ping_us"), secs * 1e6);
    let secs = sample(|| errs += u32::from(t.write(WIN, 0, &data).is_err()));
    m.insert(format!("fabric.{kind}.write_MBps"), mbps(XFER_BYTES, secs));
    let secs = sample(|| errs += u32::from(t.read(WIN, 0, &mut back).is_err()));
    m.insert(format!("fabric.{kind}.read_MBps"), mbps(XFER_BYTES, secs));
    let _ = t.free(WIN);
    if errs > 0 {
        return Err(format!("{errs} {kind} transport calls failed"));
    }
    if back != data {
        return Err(format!("{kind} transport read back different bytes"));
    }
    Ok(())
}

/// Append, fsync and recovery of `hs-wal` on the scratch directory.
fn wal(m: &mut BTreeMap<String, f64>, scratch: &Scratch) -> Result<(), String> {
    let dir = scratch.path("probe_wal");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let io = |e: std::io::Error| format!("wal: {e}");
    let mut wal = hs_wal::Wal::create(&dir, 1, hs_wal::WalOptions::default()).map_err(io)?;
    let payload = [0x5au8; WAL_RECORD];

    // Throughput over a long run of appends with the runtime's flush
    // cadence; latency from the per-append samples.
    let records = 40 * SAMPLES;
    let mut per_append = Vec::with_capacity(records);
    let (mut unflushed, mut ev) = (0usize, 0u64);
    let t_all = Instant::now();
    for _ in 0..records {
        let t = Instant::now();
        wal.append(0, ev, &payload).map_err(io)?;
        per_append.push(t.elapsed().as_secs_f64());
        ev += 1;
        unflushed += WAL_RECORD + hs_wal::RECORD_OVERHEAD;
        if unflushed >= WAL_FLUSH_EVERY {
            wal.flush().map_err(io)?;
            unflushed = 0;
        }
    }
    wal.flush().map_err(io)?;
    let total = t_all.elapsed().as_secs_f64();
    m.insert("wal.append_us".into(), median(&per_append) * 1e6);
    m.insert("wal.append_MBps".into(), mbps(records * WAL_RECORD, total));

    // State the two closures share: the log, the next event id and the
    // first I/O error (later samples then time nothing useful, and the
    // probe is reported failed).
    let mut st = (wal, ev, None);
    let secs = sample_with(
        &mut st,
        |(wal, ev, err)| {
            let r = wal.append(0, *ev, &payload).and_then(|_| wal.flush());
            *err = err.take().or(r.err());
            *ev += 1;
        },
        |(wal, _, err)| *err = err.take().or(wal.sync_all().err()),
    );
    let (wal, _, err) = st;
    if let Some(e) = err {
        return Err(io(e));
    }
    m.insert("wal.fsync_us".into(), secs * 1e6);
    let appended = wal.stats();
    drop(wal);

    let t = Instant::now();
    let rec = hs_wal::recover_dir(&dir).map_err(io)?;
    let secs = t.elapsed().as_secs_f64();
    m.insert(
        "wal.recover_MBps".into(),
        mbps(appended.appended_bytes as usize, secs),
    );
    m.insert(
        "wal.recover_ok_frac".into(),
        rec.records.len() as f64 / appended.records.max(1) as f64,
    );
    Ok(())
}
